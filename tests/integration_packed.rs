//! Packed-vs-scalar equivalence: the bit-packed [`Coloring`] must be
//! observationally identical to a reference byte-per-element model, and
//! every registry probe strategy must report the same probe counts whether a
//! coloring was built element-by-element or through the word-level API.

use probequorum::prelude::*;
use probequorum::sim::eval::{ColoringSource, EvalEngine, EvalPlan};
use proptest::prelude::*;

/// The pre-packing reference representation: one `Color` per element.
#[derive(Debug, Clone)]
struct ScalarColoring {
    colors: Vec<Color>,
}

impl ScalarColoring {
    fn new(n: usize) -> Self {
        ScalarColoring {
            colors: vec![Color::Green; n],
        }
    }

    fn red_count(&self) -> usize {
        self.colors.iter().filter(|c| c.is_red()).count()
    }

    fn green_set(&self) -> ElementSet {
        ElementSet::from_iter(
            self.colors.len(),
            self.colors
                .iter()
                .enumerate()
                .filter(|(_, c)| c.is_green())
                .map(|(e, _)| e),
        )
    }
}

/// One mutation applied to both representations (decoded from parallel
/// proptest vectors — the vendored shim has no tuple strategies).
#[derive(Debug, Clone)]
enum Op {
    Set(usize, bool),
    Swap(usize, usize),
    Fill(bool),
    Invert,
}

/// Decodes one op from independently drawn components.
fn decode_op(variant: usize, a: usize, b: usize, flag: bool) -> Op {
    match variant {
        0 | 1 => Op::Set(a, flag),
        2 | 3 => Op::Swap(a, b),
        4 => Op::Fill(flag),
        _ => Op::Invert,
    }
}

fn color_of(red: bool) -> Color {
    if red {
        Color::Red
    } else {
        Color::Green
    }
}

proptest! {
    /// Random op sequences drive the packed coloring and the scalar model in
    /// lockstep; every observable must agree at every step, across word
    /// boundaries (n spans 1..=130, covering 1, 2 and 3 backing words).
    #[test]
    fn packed_coloring_matches_scalar_model(
        n in 1usize..=130,
        variants in proptest::collection::vec(0usize..6, 1..40),
        operands in proptest::collection::vec(0usize..130, 1..40),
        others in proptest::collection::vec(0usize..130, 1..40),
        flags in proptest::collection::vec(any::<bool>(), 1..40),
    ) {
        let mut packed = Coloring::all_green(n);
        let mut scalar = ScalarColoring::new(n);
        let ops = variants
            .into_iter()
            .zip(operands)
            .zip(others)
            .zip(flags)
            .map(|(((variant, a), b), flag)| decode_op(variant, a, b, flag));
        for op in ops {
            match op {
                Op::Set(e, red) => {
                    let e = e % n;
                    packed.set_color(e, color_of(red));
                    scalar.colors[e] = color_of(red);
                }
                Op::Swap(a, b) => {
                    let (a, b) = (a % n, b % n);
                    packed.swap(a, b);
                    scalar.colors.swap(a, b);
                }
                Op::Fill(red) => {
                    packed.fill(color_of(red));
                    scalar.colors.fill(color_of(red));
                }
                Op::Invert => {
                    packed = packed.inverted();
                    for c in &mut scalar.colors {
                        *c = c.opposite();
                    }
                }
            }
            prop_assert_eq!(packed.red_count(), scalar.red_count());
            prop_assert_eq!(packed.green_count(), n - scalar.red_count());
            for (e, &expected) in scalar.colors.iter().enumerate() {
                prop_assert_eq!(packed.color(e), expected, "element {}", e);
            }
            prop_assert_eq!(packed.green_set(), scalar.green_set());
            prop_assert_eq!(packed.red_set(), scalar.green_set().complement());
        }
    }

    /// Building a coloring element-by-element, from an explicit color vector,
    /// and through the word-level API must all be bit-identical.
    #[test]
    fn construction_paths_agree(reds in proptest::collection::vec(any::<bool>(), 1..=130)) {
        let n = reds.len();
        let by_fn = Coloring::from_fn(n, |e| color_of(reds[e]));
        let by_vec = Coloring::from_colors(reds.iter().copied().map(color_of).collect());
        let red_set = ElementSet::from_iter(n, (0..n).filter(|&e| reds[e]));
        let by_set = Coloring::from_red_set(&red_set);
        let mut by_words = Coloring::all_green(n);
        for (index, &word) in red_set.words().iter().enumerate() {
            by_words.set_red_word(index, word);
        }
        prop_assert_eq!(&by_fn, &by_vec);
        prop_assert_eq!(&by_fn, &by_set);
        prop_assert_eq!(&by_fn, &by_words);
        prop_assert_eq!(by_fn.to_string(), by_vec.to_string());
    }
}

/// Every registry strategy must observe the identical coloring — and hence
/// report the identical probe count — whether the cell's coloring was built
/// through the scalar (`from_fn`) path or the word-level (`from_red_set`)
/// path. Fixed-coloring cells make the comparison exact, not statistical.
#[test]
fn registry_strategies_report_identical_probe_counts_on_both_representations() {
    let systems: Vec<DynSystem> = catalogue()
        .iter()
        .map(|e| erase_family(e.family, 9).unwrap())
        .collect();
    let pairs = StrategyRegistry::paper().compatible_pairs(&systems);
    assert!(!pairs.is_empty());

    for (seed, reds_mod) in [(7u64, 3usize), (8, 2), (9, 4)] {
        let mut scalar_plan = EvalPlan::new(seed).trials(48);
        let mut word_plan = EvalPlan::new(seed).trials(48);
        for (system, strategy) in &pairs {
            let n = system.universe_size();
            let scalar_coloring = Coloring::from_fn(n, |e| {
                if e % reds_mod == 0 {
                    Color::Red
                } else {
                    Color::Green
                }
            });
            let red_set = ElementSet::from_iter(n, (0..n).filter(|e| e % reds_mod == 0));
            let word_coloring = Coloring::from_red_set(&red_set);
            assert_eq!(scalar_coloring, word_coloring);
            scalar_plan.probe(system, strategy, ColoringSource::fixed(scalar_coloring));
            word_plan.probe(system, strategy, ColoringSource::fixed(word_coloring));
        }
        let engine = EvalEngine::with_threads(2);
        let scalar_report = engine.run(&scalar_plan);
        let word_report = engine.run(&word_plan);
        assert_eq!(
            scalar_report.cells, word_report.cells,
            "a registry strategy diverged between coloring representations (seed {seed})"
        );
    }
}

/// The packed fast paths of every failure model agree with a scalar
/// re-derivation of the same coloring: resampling into a scratch and reading
/// it element-by-element must match the word-level view.
#[test]
fn failure_models_fill_words_consistently() {
    use probequorum::sim::{FailureModel, TrialRng};
    use rand::SeedableRng;

    let n = 130usize;
    let models = [
        FailureModel::iid(0.3),
        FailureModel::iid(0.5),
        FailureModel::exact_red_count(37),
        FailureModel::heterogeneous((0..n).map(|e| (e % 7) as f64 / 10.0).collect()),
        FailureModel::zoned(9, 0.4, 0.2),
        FailureModel::churn(n, 0.1, 0.3, 32, 5),
    ];
    for model in models {
        let mut rng = TrialRng::seed_from_u64(99);
        let mut scratch = Coloring::all_green(0);
        for trial in 0..40u64 {
            model.sample_into(n, trial, &mut rng, &mut scratch);
            // The word view and the element view must be the same coloring.
            let from_words = Coloring::from_red_set(&scratch.red_set());
            assert_eq!(scratch, from_words, "{} trial {trial}", model.label());
            let scalar_reds = (0..n).filter(|&e| scratch.is_red(e)).count();
            assert_eq!(scratch.red_count(), scalar_reds, "{}", model.label());
        }
    }
}
