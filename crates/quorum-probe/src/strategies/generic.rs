//! Generic probing strategies applicable to any quorum system.

use quorum_core::{
    Color, Coloring, ColoringDelta, DeltaEvaluator, ElementId, QuorumSystem, Witness, WitnessKind,
    WORD_BITS,
};
use rand::seq::SliceRandom;
use rand::RngCore;

use crate::{ProbeOracle, ProbeStrategy};

/// Probes elements in increasing index order until the probed greens or the
/// probed reds certify the system state.
///
/// This is the trivial universal algorithm: it never exceeds `n` probes and is
/// the natural deterministic baseline for the evasive systems of the paper
/// (Maj, Wheel, CW, Tree all have deterministic probe complexity `n`).
/// For the Majority system it coincides with the paper's asymptotically
/// optimal probabilistic-model algorithm, because all elements are symmetric.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialScan;

impl SequentialScan {
    /// Creates the strategy.
    pub fn new() -> Self {
        SequentialScan
    }
}

/// Whether the probed greens or the probed reds contain a quorum, kept up to
/// date one probe at a time.
///
/// With a family [`DeltaEvaluator`], each color gets one, run over the
/// coloring in which exactly the elements probed with that color are green.
/// A first-time probe is then a single red→green flip into the evaluator of
/// the observed color — O(flips · height) instead of an O(n) re-check of the
/// probed set. Without one, the probed sets are re-checked through
/// [`QuorumSystem::contains_quorum`].
struct ProbedQuorums<'s, S: ?Sized> {
    system: &'s S,
    /// Indexed by [`side`]; `None` when the system has no delta evaluator.
    sides: Option<[Side; 2]>,
    delta: ColoringDelta,
}

/// One color's incremental evaluator and the coloring it last evaluated.
struct Side {
    coloring: Coloring,
    evaluator: Box<dyn DeltaEvaluator + Send>,
}

fn side(color: Color) -> usize {
    match color {
        Color::Green => 0,
        Color::Red => 1,
    }
}

impl<'s, S: QuorumSystem + ?Sized> ProbedQuorums<'s, S> {
    fn new(system: &'s S, oracle: &ProbeOracle<'_>) -> Self {
        let start = |color| {
            let mut evaluator = system.delta_evaluator()?;
            let coloring = Coloring::from_red_set(&oracle.probed_with(color).complement());
            evaluator.reset(&coloring);
            Some(Side {
                coloring,
                evaluator,
            })
        };
        ProbedQuorums {
            system,
            sides: start(Color::Green)
                .zip(start(Color::Red))
                .map(|(green, red)| [green, red]),
            delta: ColoringDelta::empty(oracle.universe_size()),
        }
    }

    /// Probes `e`, feeding a first-time probe to the evaluator of its color.
    fn probe(&mut self, oracle: &mut ProbeOracle<'_>, e: ElementId) {
        let first = !oracle.is_probed(e);
        let color = oracle.probe(e);
        if let (true, Some(sides)) = (first, &mut self.sides) {
            let Side {
                coloring,
                evaluator,
            } = &mut sides[side(color)];
            coloring.set_color(e, Color::Green);
            self.delta.clear();
            self.delta.push_word(e / WORD_BITS, 1 << (e % WORD_BITS));
            evaluator.update(coloring, &self.delta);
        }
    }

    /// Whether the elements probed with `color` contain a quorum.
    fn contains_quorum(&self, oracle: &ProbeOracle<'_>, color: Color) -> bool {
        match &self.sides {
            Some(sides) => sides[side(color)].evaluator.verdict(),
            None => self.system.contains_quorum(oracle.probed_with(color)),
        }
    }
}

/// Shared scan loop: probe the supplied order until a monochromatic
/// certificate appears, then return it. After each probe the green side is
/// checked before the red side.
pub(crate) fn scan_until_witness<S: QuorumSystem + ?Sized>(
    system: &S,
    oracle: &mut ProbeOracle<'_>,
    order: impl IntoIterator<Item = usize>,
) -> Witness {
    let mut probed = ProbedQuorums::new(system, oracle);
    for e in order {
        probed.probe(oracle, e);
        for color in [Color::Green, Color::Red] {
            if probed.contains_quorum(oracle, color) {
                return witness(oracle, color);
            }
        }
    }
    // All elements probed: for an ND coterie one of the two cases above must
    // have fired.  For a dominated system neither monochromatic set may
    // contain a quorum, but the red set is then necessarily a transversal
    // (there is no green quorum), which is still a valid red certificate.
    if probed.contains_quorum(oracle, Color::Green) {
        witness(oracle, Color::Green)
    } else {
        witness(oracle, Color::Red)
    }
}

/// The certificate made of the elements probed with `color`.
fn witness(oracle: &ProbeOracle<'_>, color: Color) -> Witness {
    Witness::new(
        WitnessKind::for_color(color),
        oracle.probed_with(color).clone(),
    )
}

impl<S: QuorumSystem + ?Sized> ProbeStrategy<S> for SequentialScan {
    fn name(&self) -> String {
        "SequentialScan".into()
    }

    fn find_witness(
        &self,
        system: &S,
        oracle: &mut ProbeOracle<'_>,
        _rng: &mut dyn RngCore,
    ) -> Witness {
        let n = system.universe_size();
        scan_until_witness(system, oracle, 0..n)
    }
}

/// Probes elements in a uniformly random order until the probed greens or the
/// probed reds certify the system state.
///
/// Applied to the Majority system this is exactly the paper's algorithm
/// `R_Probe_Maj` (Theorem 4.2), which achieves the optimal randomized
/// worst-case probe complexity `n − (n−1)/(n+3)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomScan;

impl RandomScan {
    /// Creates the strategy.
    pub fn new() -> Self {
        RandomScan
    }
}

impl<S: QuorumSystem + ?Sized> ProbeStrategy<S> for RandomScan {
    fn name(&self) -> String {
        "RandomScan".into()
    }

    fn find_witness(
        &self,
        system: &S,
        oracle: &mut ProbeOracle<'_>,
        rng: &mut dyn RngCore,
    ) -> Witness {
        let mut order: Vec<usize> = (0..system.universe_size()).collect();
        order.shuffle(rng);
        scan_until_witness(system, oracle, order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_strategy;
    use quorum_core::Coloring;
    use quorum_systems::{Grid, Majority, TreeQuorum, Wheel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sequential_scan_stops_as_soon_as_certified() {
        let maj = Majority::new(7).unwrap();
        let coloring = Coloring::all_green(7);
        let mut rng = StdRng::seed_from_u64(0);
        let run = run_strategy(&maj, &SequentialScan::new(), &coloring, &mut rng);
        assert_eq!(run.probes, 4);
        assert!(run.witness.is_green());
    }

    #[test]
    fn sequential_scan_finds_red_witness() {
        let maj = Majority::new(7).unwrap();
        let coloring = Coloring::all_red(7);
        let mut rng = StdRng::seed_from_u64(0);
        let run = run_strategy(&maj, &SequentialScan::new(), &coloring, &mut rng);
        assert_eq!(run.probes, 4);
        assert!(run.witness.is_red());
    }

    #[test]
    fn random_scan_is_correct_on_every_coloring() {
        let wheel = Wheel::new(5).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        for coloring in Coloring::enumerate_all(5) {
            let run = run_strategy(&wheel, &RandomScan::new(), &coloring, &mut rng);
            // run_strategy verifies the witness; also check the verdict agrees
            // with the ground truth.
            assert_eq!(run.witness.is_green(), wheel.has_green_quorum(&coloring));
            assert!(run.probes <= 5);
        }
    }

    #[test]
    fn sequential_scan_is_correct_on_every_tree_coloring() {
        let tree = TreeQuorum::new(2).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for coloring in Coloring::enumerate_all(7) {
            let run = run_strategy(&tree, &SequentialScan::new(), &coloring, &mut rng);
            assert_eq!(run.witness.is_green(), tree.has_green_quorum(&coloring));
        }
    }

    #[test]
    fn dominated_system_yields_transversal_certificates() {
        // On the 2x2 grid, the "diagonal" coloring has no monochromatic
        // row+column for either color, so the red certificate is a transversal.
        let grid = Grid::new(2, 2).unwrap();
        let coloring = Coloring::from_red_set(&quorum_core::ElementSet::from_iter(4, [0, 3]));
        let mut rng = StdRng::seed_from_u64(3);
        let run = run_strategy(&grid, &SequentialScan::new(), &coloring, &mut rng);
        assert!(run.witness.is_red());
        assert_eq!(run.probes, 4);
    }

    #[test]
    fn strategies_report_names() {
        assert_eq!(
            ProbeStrategy::<Majority>::name(&SequentialScan::new()),
            "SequentialScan"
        );
        assert_eq!(
            ProbeStrategy::<Majority>::name(&RandomScan::new()),
            "RandomScan"
        );
    }
}
