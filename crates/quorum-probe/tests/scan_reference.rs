//! The scan strategies track their certificates through two delta
//! evaluators (one per probed color). These tests hold them to the plain
//! rescan they replaced: a copy of the old loop, which re-checks the probed
//! greens and then the probed reds with `contains_quorum` after every probe,
//! replayed along each strategy's own probe order, must stop at the same
//! probe with the same witness — on every catalogue family and on
//! compositions with repeated leaves, under exhaustive and random colorings,
//! and through a wrapper that hides the delta evaluator.

use std::sync::Arc;

use proptest::prelude::*;
use quorum_core::{Color, Coloring, DynQuorumSystem, ElementSet, QuorumSystem, Witness};
use quorum_probe::strategies::{
    LeastLoadedScan, LoadView, PowerOfTwoScan, RandomScan, SequentialScan,
};
use quorum_probe::{ProbeOracle, ProbeStrategy};
use quorum_systems::{catalogue, Composition, CompositionNode, SystemSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The scan loop before the delta engine: after every probe, re-check the
/// probed greens, then the probed reds. Returns the probe sequence and the
/// witness.
fn reference_scan(
    system: &dyn QuorumSystem,
    coloring: &Coloring,
    order: impl IntoIterator<Item = usize>,
) -> (Vec<usize>, Witness) {
    let mut oracle = ProbeOracle::new(coloring);
    for e in order {
        oracle.probe(e);
        if system.contains_quorum(oracle.green_probed()) {
            let witness = Witness::green(oracle.green_probed().clone());
            return (oracle.sequence().to_vec(), witness);
        }
        if system.contains_quorum(oracle.red_probed()) {
            let witness = Witness::red(oracle.red_probed().clone());
            return (oracle.sequence().to_vec(), witness);
        }
    }
    let witness = if system.contains_quorum(oracle.green_probed()) {
        Witness::green(oracle.green_probed().clone())
    } else {
        Witness::red(oracle.red_probed().clone())
    };
    (oracle.sequence().to_vec(), witness)
}

/// Hides a system's delta evaluator, so the scans re-check with
/// `contains_quorum`.
struct NoDelta(DynQuorumSystem);

impl QuorumSystem for NoDelta {
    fn name(&self) -> String {
        self.0.name()
    }
    fn universe_size(&self) -> usize {
        self.0.universe_size()
    }
    fn contains_quorum(&self, set: &ElementSet) -> bool {
        self.0.contains_quorum(set)
    }
    fn min_quorum_size(&self) -> usize {
        self.0.min_quorum_size()
    }
    fn max_quorum_size(&self) -> usize {
        self.0.max_quorum_size()
    }
}

fn mix(seed: u64, e: usize) -> u64 {
    let mut z = seed ^ (e as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Each element red with probability `p`.
fn random_coloring(n: usize, p: f64, seed: u64) -> Coloring {
    Coloring::from_fn(n, |e| {
        if ((mix(seed, e) >> 11) as f64) < p * (1u64 << 53) as f64 {
            Color::Red
        } else {
            Color::Green
        }
    })
}

/// A composition whose leaves repeat across gates: 2-of-3 over "the first
/// half all green", "some element of the second half green" and a 2-of-3
/// over elements taken from both halves.
fn overlapping_compose(n: usize) -> DynQuorumSystem {
    let half = n / 2;
    let root = CompositionNode::gate(
        2,
        vec![
            CompositionNode::gate(half, (0..half).map(CompositionNode::leaf).collect()),
            CompositionNode::gate(1, (half..n).map(CompositionNode::leaf).collect()),
            CompositionNode::gate(2, [0, half, n - 1].map(CompositionNode::leaf).to_vec()),
        ],
    );
    Arc::new(Composition::new(n, root).expect("valid composition"))
}

/// Every catalogue family at `hint`, plus two compositions with repeated
/// leaves (Grid as a composition, where every element sits in two leaves,
/// and [`overlapping_compose`]) and a constant-true 0-of-n gate, whose empty
/// probe sets already hold both certificates, so the green side must win.
fn systems(hint: usize) -> Vec<(String, DynQuorumSystem)> {
    let mut out: Vec<(String, DynQuorumSystem)> = catalogue()
        .into_iter()
        .map(|entry| (entry.family.to_string(), (entry.build)(hint)))
        .collect();
    let side = ((hint as f64).sqrt() as usize).max(2);
    let grid = SystemSpec::grid_as_compose(side, side + 1)
        .build()
        .expect("grid-as-compose builds");
    out.push(("Grid-as-Compose".into(), grid));
    out.push(("Overlap".into(), overlapping_compose(hint.max(3))));
    let constant = CompositionNode::gate(0, (0..hint).map(CompositionNode::leaf).collect());
    out.push((
        "Constant".into(),
        Arc::new(Composition::new(hint, constant).expect("valid composition")),
    ));
    out
}

type Scan = Box<dyn ProbeStrategy<dyn QuorumSystem>>;

/// Fresh instances of the four scans. The load-aware ones charge their view
/// as they probe, so each instance starts from its own copy of the same
/// pseudo-random scores.
fn scans(n: usize, seed: u64) -> Vec<Scan> {
    let view = || {
        let view = LoadView::new(n);
        for e in 0..n {
            view.set(e, mix(seed ^ 0x10AD, e) % 4);
        }
        view
    };
    vec![
        Box::new(SequentialScan::new()),
        Box::new(RandomScan::new()),
        Box::new(LeastLoadedScan::new(view())),
        Box::new(PowerOfTwoScan::new(view())),
    ]
}

fn run(
    scan: &Scan,
    system: &(dyn QuorumSystem + 'static),
    coloring: &Coloring,
    seed: u64,
) -> (Vec<usize>, Witness) {
    let mut oracle = ProbeOracle::new(coloring);
    let witness = scan.find_witness(system, &mut oracle, &mut StdRng::seed_from_u64(seed));
    (oracle.sequence().to_vec(), witness)
}

/// Runs every scan on `system` with and without its delta evaluator and
/// checks both against the reference replayed along the scan's own order
/// (followed by whatever the scan left unprobed, so stopping too early
/// shows up as a shorter sequence).
fn check(label: &str, system: &DynQuorumSystem, coloring: &Coloring, seed: u64) {
    let n = system.universe_size();
    let hidden = NoDelta(Arc::clone(system));
    for (scan, hidden_scan) in scans(n, seed).iter().zip(&scans(n, seed)) {
        let (sequence, witness) = run(scan, system.as_ref(), coloring, seed);
        let unprobed = ElementSet::from_iter(n, sequence.iter().copied()).complement();
        let reference = reference_scan(
            system.as_ref(),
            coloring,
            sequence.iter().copied().chain(unprobed.iter()),
        );
        let name = scan.name();
        assert_eq!(
            (&sequence, &witness),
            (&reference.0, &reference.1),
            "{label} n={n} {name} seed {seed}: diverged from the reference rescan"
        );
        assert_eq!(
            run(hidden_scan, &hidden, coloring, seed),
            reference,
            "{label} n={n} {name} seed {seed}: the rescan fallback diverged"
        );
    }
}

#[test]
fn scans_match_the_reference_on_every_coloring_of_small_systems() {
    for hint in [3usize, 5, 9] {
        for (label, system) in systems(hint) {
            let n = system.universe_size();
            if n > 12 {
                continue;
            }
            for (i, coloring) in Coloring::enumerate_all(n).iter().enumerate() {
                check(&label, &system, coloring, i as u64);
            }
        }
    }
}

#[test]
fn scans_match_the_reference_on_every_family() {
    for hint in [16usize, 40, 70, 130, 260] {
        for (label, system) in systems(hint) {
            let n = system.universe_size();
            for (i, p) in [0.1, 0.3, 0.5, 0.7, 0.9].into_iter().enumerate() {
                let seed = (hint * 10 + i) as u64;
                check(&label, &system, &random_coloring(n, p, seed), seed);
            }
        }
    }
}

proptest! {
    /// Random systems, sizes, colorings and strategy seeds.
    #[test]
    fn prop_scans_match_the_reference(
        which in 0usize..10,
        hint in 3usize..200,
        p in 0.0f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        let (label, system) = systems(hint).swap_remove(which);
        let coloring = random_coloring(system.universe_size(), p, seed);
        check(&label, &system, &coloring, seed);
    }
}
