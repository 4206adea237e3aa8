//! `churn-walk`: streaming `ChurnTrajectory::walk` at a low and a high churn
//! rate for all seven catalogue families at n ≈ 4k, each walk driving one
//! `delta_evaluator_for` evaluator on one thread.
//!
//! This is the incremental counterpart of `lane-avail`: the same evaluators,
//! one coloring at a time. A circuit change that helps lanes but costs delta
//! updates shows up only here.

use std::hint::black_box;

use probequorum::core::{delta_evaluator_for, DynQuorumSystem};
use probequorum::sim::ChurnTrajectory;
use probequorum::systems::catalogue;

use crate::check::Checks;
use crate::harness::{self, Ctx, Outcome};
use crate::metrics::CHURN_FAMILIES;
use crate::trace::{Dist, Tracer};

/// Universe size hint.
const N_HINT: usize = 4_096;
/// Steps per walk.
const STEPS: usize = 4_096;
/// Every `SAMPLE_EVERY`-th step is re-evaluated from scratch when checking.
const SAMPLE_EVERY: usize = 61;

/// `(label, fail, repair)`: about 2 flips per step at n = 4096, and about
/// 114 flips per step.
const REGIMES: [(&str, f64, f64); 2] = [
    ("low", 1.0 / 4_096.0, 1.0 / 64.0),
    ("high", 1.0 / 64.0, 1.0 / 8.0),
];

/// One walk: a family's system and a trajectory.
pub struct Walk {
    /// Family label (one of [`CHURN_FAMILIES`]).
    pub family: &'static str,
    /// Regime label.
    pub regime: &'static str,
    system: DynQuorumSystem,
    trajectory: ChurnTrajectory,
}

/// Builds every `(family, regime)` walk from `seed`.
pub fn build(seed: u64) -> Vec<Walk> {
    let mut walks = Vec::new();
    for (family_index, entry) in catalogue().iter().enumerate() {
        let system = (entry.build)(N_HINT);
        let n = system.universe_size();
        for (regime_index, &(regime, fail, repair)) in REGIMES.iter().enumerate() {
            let walk_seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((family_index * REGIMES.len() + regime_index) as u64 + 1);
            walks.push(Walk {
                family: CHURN_FAMILIES[family_index],
                regime,
                system: system.clone(),
                trajectory: ChurnTrajectory::generate(n, fail, repair, STEPS, walk_seed),
            });
        }
    }
    walks
}

/// One job: every walk, start to end, delta-evaluated. Returns, per walk,
/// the number of steps whose verdict was "a live quorum exists".
fn job(walks: &[Walk]) -> Vec<usize> {
    walks
        .iter()
        .map(|walk| {
            let mut evaluator = delta_evaluator_for(&walk.system);
            let mut walker = walk.trajectory.walk();
            let mut live = 0usize;
            let mut primed = false;
            while let Some((coloring, delta)) = walker.step() {
                let verdict = if primed {
                    evaluator.update(coloring, delta)
                } else {
                    primed = true;
                    evaluator.reset(coloring)
                };
                live += usize::from(verdict);
            }
            black_box(live)
        })
        .collect()
}

/// Runs the workload (always on one thread).
pub fn run(ctx: &Ctx) -> Outcome {
    assert_eq!(
        catalogue().len(),
        CHURN_FAMILIES.len(),
        "metric names cover the catalogue"
    );
    harness::run(
        ctx,
        || build(ctx.seed),
        |walks, out| measure(ctx, walks, out),
    )
}

fn measure(ctx: &Ctx, walks: &[Walk], out: &mut Outcome) {
    let units = (walks.len() * STEPS) as f64;
    for walk in walks.iter().step_by(REGIMES.len()) {
        out.fact(
            format!("system.{}", walk.family),
            format!("{} n={}", walk.system.name(), walk.system.universe_size()),
        );
    }
    if !ctx.trace {
        let (timings, _) = harness::timed_loop(ctx.seconds, 3, 1, || job(walks));
        harness::end_to_end(out, units, &timings);
    } else {
        let (walls, live) = harness::timed_loop(ctx.seconds / 2.0, 2, 1, || job(walks));
        traced_pass(out, walks, &live, units / harness::median_wall(&walls));
    }
    for walk in walks {
        check_walk(&mut out.checks, walk, None);
    }
}

/// Re-evaluates a walk from scratch on a fixed sample of steps and at every
/// verdict change, checking the delta verdict against `has_green_quorum`.
/// `flip_at` inverts the delta verdict at one step (the negative-control
/// tests use it; a real run passes `None`).
pub fn check_walk(checks: &mut Checks, walk: &Walk, flip_at: Option<usize>) {
    let mut evaluator = delta_evaluator_for(&walk.system);
    let mut walker = walk.trajectory.walk();
    let mut previous: Option<bool> = None;
    let mut step = 0usize;
    while let Some((coloring, delta)) = walker.step() {
        let mut verdict = match previous {
            None => evaluator.reset(coloring),
            Some(_) => evaluator.update(coloring, delta),
        };
        if flip_at == Some(step) {
            verdict = !verdict;
        }
        if step.is_multiple_of(SAMPLE_EVERY) || previous != Some(verdict) {
            let scratch = walk.system.has_green_quorum(coloring);
            checks.check(verdict == scratch, || {
                format!(
                    "churn-walk: {} {} step {step}: delta verdict {verdict} but from scratch {scratch}",
                    walk.family, walk.regime
                )
            });
        }
        previous = Some(verdict);
        step += 1;
    }
}

fn traced_pass(out: &mut Outcome, walks: &[Walk], job_live: &[usize], untraced_rate: f64) {
    let mut tr = Tracer::new();
    let mut live = vec![0usize; walks.len()];
    let mut flips = 0u64;
    let mut steps = 0u64;
    let started = std::time::Instant::now();
    for (index, walk) in walks.iter().enumerate() {
        let update = format!("core.delta.update.{}", walk.family);
        let walk_span = tr.begin("churn.walk", None, index as u64);
        let mut evaluator = delta_evaluator_for(&walk.system);
        let mut walker = walk.trajectory.walk();
        let mut primed = false;
        for step in 0..STEPS as u64 {
            let step_span = tr.begin("step", Some(walk_span), step);
            let span = tr.begin("sim.failure.step", Some(step_span), step);
            let (coloring, delta) = walker.step().expect("a walk has STEPS steps");
            tr.end(span);
            if primed {
                flips += delta.flip_count() as u64;
                let span = tr.begin(&update, Some(step_span), step);
                let verdict = evaluator.update(coloring, delta);
                tr.end(span);
                live[index] += usize::from(verdict);
            } else {
                primed = true;
                let span = tr.begin("core.delta.reset", Some(step_span), step);
                let verdict = evaluator.reset(coloring);
                tr.end(span);
                live[index] += usize::from(verdict);
            }
            tr.end(step_span);
            steps += 1;
        }
        tr.end(walk_span);
    }
    let traced_rate = steps as f64 / started.elapsed().as_secs_f64();
    tr.count("core.delta.flips", flips as f64);
    tr.count("churn.steps", steps as f64);

    out.dist(
        "sim.failure.step_ns",
        Dist::of(tr.durations("sim.failure.step")),
        "ns",
    );
    for family in CHURN_FAMILIES {
        out.dist(
            &format!("core.delta.update_ns.{family}"),
            Dist::of(tr.durations(&format!("core.delta.update.{family}"))),
            "ns",
        );
    }
    // The first step of each walk is a reset with an empty delta.
    let updates = steps - walks.len() as u64;
    out.metric(
        "core.delta.flips_per_step",
        flips as f64 / updates.max(1) as f64,
        "flips",
    );
    out.metric("trace.rate_ratio", traced_rate / untraced_rate, "ratio");
    // The replica must reach the job's verdict tally on every walk, or its
    // per-layer figures describe other work.
    let replica_agrees = live == job_live;
    out.metric(
        "trace.replica_agrees",
        f64::from(u8::from(replica_agrees)),
        "bool",
    );
    out.checks.check(replica_agrees, || {
        "churn-walk: the traced replica's verdict tally differs from the job's".into()
    });
    out.tracer = Some(tr);
}
