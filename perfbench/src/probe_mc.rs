//! `probe-mc`: one `EvalPlan` through `EvalEngine::run`.
//!
//! The plan mixes the paper's strategies at moderate n under i.i.d., zoned
//! and churn colorings with `SequentialScan`/`RandomScan` on every family at
//! n ≈ 1k, plus small reference cells whose exact expectation is known. Cell
//! costs are heavily skewed, which is what the engine's scheduling and the
//! scan path's per-probe quorum re-check are measured against.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use probequorum::analysis::{bounds, RunningStats};
use probequorum::core::{Coloring, ElementSet, QuorumError, QuorumSystem};
use probequorum::core::{Coterie, DeltaEvaluator};
use probequorum::probe::strategies::{
    IrProbeHqs, ProbeCw, ProbeHqs, ProbeMaj, ProbeTree, RProbeCw, RProbeHqs, RProbeMaj, RProbeTree,
    RandomScan, SequentialScan,
};
use probequorum::probe::{ProbeOracle, ProbeStrategy};
use probequorum::sim::eval::{
    derive_rng, erase_spec, typed_strategy, universal_strategy, ColoringSource, DynProbeStrategy,
    DynSystem, EvalEngine, EvalPlan, EvalReport, EvalSystem, TrialRng,
};
use probequorum::sim::exhaustive_expected_probes;
use probequorum::systems::{CrumblingWalls, Hqs, Majority, SystemSpec, TreeQuorum};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::check::{within_z, Checks};
use crate::harness::{self, Ctx, JobTiming, Outcome};
use crate::trace::{Dist, SpanId, Tracer};

/// Standard errors a cell mean may sit from its reference.
const Z: f64 = 5.0;

/// Trials per paper cell.
const PAPER_TRIALS: usize = 1_024;
/// Trials per scan cell (one scan trial on Tree n = 1023 costs milliseconds).
const SCAN_TRIALS: usize = 48;
/// Trials per reference cell.
const REFERENCE_TRIALS: usize = 4_096;

/// Which per-layer bucket a cell's strategy time goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// One of the paper's strategies (`Probe_*`, `R_Probe_*`, `IR_Probe_HQS`).
    Paper,
    /// `SequentialScan` / `RandomScan`.
    Scan,
}

impl Class {
    fn span(self) -> &'static str {
        match self {
            Class::Paper => "probe.strategy.paper",
            Class::Scan => "probe.strategy.scan",
        }
    }
}

/// What a cell's mean is checked against.
pub enum Reference {
    /// The exact expectation, computed when checking.
    Exact(Box<dyn Fn() -> f64 + Send + Sync>),
    /// A proven upper bound on the expectation.
    Upper(f64),
}

/// The traced face of a cell's strategy: runs `find_witness` through a
/// [`ProbeOracle`] and then verifies the witness, each in its own span.
/// Returns `(probes, witness verified, quorum checks made by the strategy)`.
type Runner = Arc<
    dyn Fn(
            &dyn EvalSystem,
            &Coloring,
            &mut TrialRng,
            &mut Tracer,
            SpanId,
            u64,
            Class,
        ) -> (usize, bool, u64)
        + Send
        + Sync,
>;

/// One plan cell, with what the traced replica and the checks need.
pub struct McCell {
    /// Report label.
    pub label: String,
    /// Strategy class.
    pub class: Class,
    system: DynSystem,
    strategy: DynProbeStrategy,
    runner: Runner,
    source: ColoringSource,
    trials: usize,
    reference: Option<Reference>,
}

/// The workload's inputs.
pub struct Setup {
    /// Plan cells, in plan order.
    pub cells: Vec<McCell>,
    /// The plan built from `cells`.
    pub plan: EvalPlan,
}

fn spec(text: &str) -> DynSystem {
    erase_spec(&SystemSpec::parse(text).expect("benchmark spec parses")).expect("spec builds")
}

fn family(name: &str, hint: usize) -> DynSystem {
    erase_spec(&SystemSpec::family_with_size_hint(name, hint).expect("catalogue family"))
        .expect("family builds")
}

/// Runs a typed strategy on its concrete system.
fn typed<S, T>(strategy: T) -> (DynProbeStrategy, Runner)
where
    S: QuorumSystem + Send + Sync + 'static,
    T: ProbeStrategy<S> + Clone + Send + Sync + 'static,
{
    let dyn_strategy = typed_strategy::<S, _>(strategy.clone());
    let runner: Runner = Arc::new(
        move |system: &dyn EvalSystem,
              coloring: &Coloring,
              rng: &mut TrialRng,
              tr: &mut Tracer,
              parent: SpanId,
              trial: u64,
              class: Class| {
            let concrete = system
                .as_any()
                .downcast_ref::<S>()
                .expect("typed strategy on its own family");
            let (probes, ok) = probe_then_verify(
                concrete, concrete, &strategy, coloring, rng, tr, parent, trial, class,
            );
            (probes, ok, 0)
        },
    );
    (dyn_strategy, runner)
}

/// Runs a system-generic strategy through a quorum-check-counting wrapper.
fn universal<T>(strategy: T, system: &DynSystem) -> (DynProbeStrategy, Runner)
where
    T: ProbeStrategy<dyn QuorumSystem + Send + Sync> + Clone + Send + Sync + 'static,
{
    let dyn_strategy = universal_strategy(strategy.clone());
    let counting = Arc::new(Counting::new(Arc::clone(system)));
    let runner: Runner = Arc::new(
        move |system: &dyn EvalSystem,
              coloring: &Coloring,
              rng: &mut TrialRng,
              tr: &mut Tracer,
              parent: SpanId,
              trial: u64,
              class: Class| {
            let before = counting.calls();
            let target: &(dyn QuorumSystem + Send + Sync) = counting.as_ref();
            let (probes, ok) = probe_then_verify(
                target,
                system.as_quorum_system(),
                &strategy,
                coloring,
                rng,
                tr,
                parent,
                trial,
                class,
            );
            (probes, ok, counting.calls() - before)
        },
    );
    (dyn_strategy, runner)
}

#[allow(clippy::too_many_arguments)]
fn probe_then_verify<S, V, T>(
    probe_system: &S,
    verify_system: &V,
    strategy: &T,
    coloring: &Coloring,
    rng: &mut TrialRng,
    tr: &mut Tracer,
    parent: SpanId,
    trial: u64,
    class: Class,
) -> (usize, bool)
where
    S: QuorumSystem + ?Sized,
    V: QuorumSystem + ?Sized,
    T: ProbeStrategy<S> + ?Sized,
{
    let mut oracle = ProbeOracle::new(coloring);
    let span = tr.begin(class.span(), Some(parent), trial);
    let witness = strategy.find_witness(probe_system, &mut oracle, rng);
    tr.end(span);
    let span = tr.begin("core.verify", Some(parent), trial);
    let ok = witness.verify(verify_system, coloring).is_ok()
        && witness.elements().is_subset(oracle.probed());
    tr.end(span);
    (oracle.probe_count(), ok)
}

/// A delegating [`QuorumSystem`] that counts characteristic-function
/// evaluations (`contains_quorum`, `has_green_quorum`, `has_red_quorum`).
pub struct Counting {
    inner: DynSystem,
    calls: AtomicU64,
}

impl Counting {
    fn new(inner: DynSystem) -> Self {
        Counting {
            inner,
            calls: AtomicU64::new(0),
        }
    }

    fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    fn tick(&self) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
}

impl QuorumSystem for Counting {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn universe_size(&self) -> usize {
        self.inner.universe_size()
    }
    fn contains_quorum(&self, set: &ElementSet) -> bool {
        self.tick();
        self.inner.contains_quorum(set)
    }
    fn min_quorum_size(&self) -> usize {
        self.inner.min_quorum_size()
    }
    fn max_quorum_size(&self) -> usize {
        self.inner.max_quorum_size()
    }
    fn has_green_quorum(&self, coloring: &Coloring) -> bool {
        self.tick();
        self.inner.has_green_quorum(coloring)
    }
    fn has_red_quorum(&self, coloring: &Coloring) -> bool {
        self.tick();
        self.inner.has_red_quorum(coloring)
    }
    fn green_quorum_lanes(&self, lanes: &[u64]) -> Option<u64> {
        self.inner.green_quorum_lanes(lanes)
    }
    fn green_quorum_lane_block(&self, lanes: &[u64], width: usize, out: &mut [u64]) -> bool {
        self.inner.green_quorum_lane_block(lanes, width, out)
    }
    fn delta_evaluator(&self) -> Option<Box<dyn DeltaEvaluator + Send>> {
        self.inner.delta_evaluator()
    }
    fn enumerate_quorums(&self) -> Result<Vec<ElementSet>, QuorumError> {
        self.inner.enumerate_quorums()
    }
    fn to_coterie(&self) -> Result<Coterie, QuorumError> {
        self.inner.to_coterie()
    }
}

/// Exact expected probes of a deterministic strategy under i.i.d. `p`, by
/// enumerating every coloring of the (small) system.
fn exhaustive<S, T>(system: &DynSystem, strategy: T, p: f64) -> Reference
where
    S: QuorumSystem + Sync + 'static,
    T: ProbeStrategy<S> + Sync + Send + 'static,
{
    let system = Arc::clone(system);
    Reference::Exact(Box::new(move || {
        let concrete = system
            .as_ref()
            .as_any()
            .downcast_ref::<S>()
            .expect("reference on its own family");
        exhaustive_expected_probes(concrete, &strategy, p, 1, &mut StdRng::seed_from_u64(0))
    }))
}

struct CellSpec {
    system: DynSystem,
    strategy: DynProbeStrategy,
    runner: Runner,
    class: Class,
    reference: Option<Reference>,
}

fn paper_cells(system: &DynSystem, family: &str) -> Vec<CellSpec> {
    let mut pairs: Vec<(DynProbeStrategy, Runner)> = Vec::new();
    match family {
        "Maj" => {
            pairs.push(typed::<Majority, _>(ProbeMaj::new()));
            pairs.push(typed::<Majority, _>(RProbeMaj::new()));
        }
        "Triang" => {
            pairs.push(typed::<CrumblingWalls, _>(ProbeCw::new()));
            pairs.push(typed::<CrumblingWalls, _>(RProbeCw::new()));
        }
        "Tree" => {
            pairs.push(typed::<TreeQuorum, _>(ProbeTree::new()));
            pairs.push(typed::<TreeQuorum, _>(RProbeTree::new()));
        }
        "HQS" => {
            pairs.push(typed::<Hqs, _>(ProbeHqs::new()));
            pairs.push(typed::<Hqs, _>(RProbeHqs::new()));
            pairs.push(typed::<Hqs, _>(IrProbeHqs::new()));
        }
        other => unreachable!("no paper strategy for {other}"),
    }
    pairs
        .into_iter()
        .map(|(strategy, runner)| CellSpec {
            system: Arc::clone(system),
            strategy,
            runner,
            class: Class::Paper,
            reference: None,
        })
        .collect()
}

/// Builds the plan and its cell descriptions from `seed`.
pub fn build(seed: u64) -> Setup {
    let mut cells: Vec<McCell> = Vec::new();
    let mut push = |spec: CellSpec, source: ColoringSource, trials: usize| {
        cells.push(McCell {
            label: format!(
                "{} {} {}",
                spec.system.name(),
                spec.strategy.name(),
                source.label()
            ),
            class: spec.class,
            system: spec.system,
            strategy: spec.strategy,
            runner: spec.runner,
            source,
            trials,
            reference: spec.reference,
        });
    };

    // Paper strategies at moderate n under i.i.d., zoned and churn inputs.
    // Probe_CW's Theorem 3.3 bound (2k − 1 expected probes for every i.i.d.
    // p) is checked on its i.i.d. cell.
    for (name, hint) in [("Maj", 101), ("Triang", 105), ("Tree", 127), ("HQS", 81)] {
        let system = family(name, hint);
        let n = system.universe_size();
        let sources = [
            ColoringSource::iid(0.3),
            ColoringSource::zoned_correlated((n / 10).max(2), 0.3, 0.75),
            ColoringSource::churn(n, 0.05, 0.15, PAPER_TRIALS, seed ^ 0xC4A2),
        ];
        for (i, source) in sources.into_iter().enumerate() {
            for mut cell in paper_cells(&system, name) {
                if i == 0 && cell.strategy.name() == "Probe_CW" {
                    let rows = system
                        .as_ref()
                        .as_any()
                        .downcast_ref::<CrumblingWalls>()
                        .expect("Triang is a wall")
                        .row_count();
                    cell.reference = Some(Reference::Upper(bounds::cw_probabilistic_upper(rows)));
                }
                push(cell, source.clone(), PAPER_TRIALS);
            }
        }
    }

    // Generic scans on every family at n ≈ 1k.
    for (name, hint) in [
        ("Tree", 1_023),
        ("Triang", 1_000),
        ("Compose", 1_000),
        ("HQS", 729),
        ("Grid", 1_024),
        ("Maj", 1_024),
    ] {
        let system = family(name, hint);
        for (strategy, runner) in [
            universal(SequentialScan::new(), &system),
            universal(RandomScan::new(), &system),
        ] {
            let cell = CellSpec {
                system: Arc::clone(&system),
                strategy,
                runner,
                class: Class::Scan,
                reference: None,
            };
            push(cell, ColoringSource::iid(0.3), SCAN_TRIALS);
        }
    }

    // Reference cells: exact expectations by enumeration, and Theorem 4.2's
    // closed form for R_Probe_Maj on a coloring with (n+1)/2 reds.
    let p = 0.3;
    let referenced = |system: DynSystem,
                      (strategy, runner): (DynProbeStrategy, Runner),
                      class: Class,
                      reference: Reference| CellSpec {
        system,
        strategy,
        runner,
        class,
        reference: Some(reference),
    };
    let (maj9, tree2, hqs2, triang5) = (
        spec("maj(9)"),
        spec("tree(2)"),
        spec("hqs(2)"),
        spec("triang(5)"),
    );
    let grid = spec("grid(4,4)");
    let grid_view = Arc::clone(&grid);
    let grid_exact = Reference::Exact(Box::new(move || {
        let system = grid_view.as_quorum_system();
        exhaustive_expected_probes(
            system,
            &SequentialScan::new(),
            p,
            1,
            &mut StdRng::seed_from_u64(0),
        )
    }));
    for cell in [
        referenced(
            maj9.clone(),
            typed::<Majority, _>(ProbeMaj::new()),
            Class::Paper,
            exhaustive::<Majority, _>(&maj9, ProbeMaj::new(), p),
        ),
        referenced(
            tree2.clone(),
            typed::<TreeQuorum, _>(ProbeTree::new()),
            Class::Paper,
            exhaustive::<TreeQuorum, _>(&tree2, ProbeTree::new(), p),
        ),
        referenced(
            hqs2.clone(),
            typed::<Hqs, _>(ProbeHqs::new()),
            Class::Paper,
            exhaustive::<Hqs, _>(&hqs2, ProbeHqs::new(), p),
        ),
        referenced(
            triang5.clone(),
            typed::<CrumblingWalls, _>(ProbeCw::new()),
            Class::Paper,
            exhaustive::<CrumblingWalls, _>(&triang5, ProbeCw::new(), p),
        ),
        referenced(
            grid.clone(),
            universal(SequentialScan::new(), &grid),
            Class::Scan,
            grid_exact,
        ),
    ] {
        push(cell, ColoringSource::iid(p), REFERENCE_TRIALS);
    }
    push(
        referenced(
            spec("maj(21)"),
            typed::<Majority, _>(RProbeMaj::new()),
            Class::Paper,
            Reference::Exact(Box::new(|| bounds::maj_randomized_exact(21))),
        ),
        ColoringSource::exact_red_count(11),
        REFERENCE_TRIALS,
    );

    let mut plan = EvalPlan::new(seed);
    for cell in &cells {
        plan.probe_with_trials(
            &cell.system,
            &cell.strategy,
            cell.source.clone(),
            cell.trials,
        );
    }
    Setup { cells, plan }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    harness::run(
        ctx,
        || build(ctx.seed),
        |setup, out| measure(ctx, setup, out),
    )
}

fn measure(ctx: &Ctx, setup: &Setup, out: &mut Outcome) {
    let trials = setup.plan.total_trials() as f64;
    let parallel = EvalEngine::with_threads(ctx.threads);
    let serial = EvalEngine::with_threads(1);
    out.fact("cells", setup.cells.len());
    out.fact("shards", parallel.shards(&setup.plan).len());

    let report_n;
    let report_1;
    if !ctx.trace {
        let (timings, report) =
            harness::timed_loop(ctx.seconds, 3, ctx.threads, || parallel.run(&setup.plan));
        harness::end_to_end(out, trials, &timings);
        report_n = report;
        report_1 = serial.run(&setup.plan);
    } else {
        // Untraced walls at 1 and nproc threads (speed-up), then one traced
        // single-threaded replica of the same plan.
        let half = ctx.seconds / 2.0;
        let (walls_n, report) =
            harness::timed_loop(half / 2.0, 2, ctx.threads, || parallel.run(&setup.plan));
        let (walls_1, report1) = harness::timed_loop(half / 2.0, 2, 1, || serial.run(&setup.plan));
        report_n = report;
        report_1 = report1;
        let speedup = harness::median_wall(&walls_1) / harness::median_wall(&walls_n);
        out.metric("engine.speedup", speedup, "x");
        out.metric("engine.efficiency", speedup / ctx.threads as f64, "ratio");
        traced_pass(out, setup, &report_1, &walls_1, trials);
    }
    check(&mut out.checks, setup, &report_n, &report_1, 0.0);
}

/// The workload's checks. `shift` is added to every reference value (zero
/// in a real run; the negative-control tests perturb it).
pub fn check(
    checks: &mut Checks,
    setup: &Setup,
    report_n: &EvalReport,
    report_1: &EvalReport,
    shift: f64,
) {
    checks.check(report_n.fingerprint() == report_1.fingerprint(), || {
        "probe-mc: report differs between nproc and 1 thread".into()
    });
    for (cell, report) in setup.cells.iter().zip(&report_1.cells) {
        let est = report.estimate;
        match &cell.reference {
            None => {}
            Some(Reference::Exact(reference)) => {
                let value = reference() + shift;
                checks.check(within_z(est.mean, est.std_error, value, Z), || {
                    format!(
                        "probe-mc: {} mean {} ± {} is not within {Z} SE of exact {value}",
                        cell.label, est.mean, est.std_error
                    )
                });
            }
            Some(Reference::Upper(bound)) => {
                let bound = bound + shift;
                checks.check(est.mean - Z * est.std_error <= bound, || {
                    format!(
                        "probe-mc: {} mean {} ± {} exceeds the upper bound {bound}",
                        cell.label, est.mean, est.std_error
                    )
                });
            }
        }
    }
}

fn traced_pass(
    out: &mut Outcome,
    setup: &Setup,
    report_1: &EvalReport,
    walls_1: &[JobTiming],
    trials: f64,
) {
    let mut tr = Tracer::new();
    let engine = EvalEngine::with_threads(1);
    let shards = engine.shards(&setup.plan);
    let mut stats: Vec<RunningStats> = vec![RunningStats::new(); setup.cells.len()];
    let mut scratch = Coloring::all_green(0);
    let mut all_verified = true;
    let (mut probes, mut scan_probes, mut scan_checks) = (0u64, 0u64, 0u64);
    let mut shard_ms = Vec::with_capacity(shards.len());
    let started = std::time::Instant::now();
    for (shard_index, shard) in shards.iter().enumerate() {
        let shard_span = tr.begin("engine.shard", None, shard_index as u64);
        let cell = &setup.cells[shard.cell_index];
        let n = cell.system.universe_size();
        for offset in 0..shard.trials as u64 {
            let trial = shard.first_trial + offset;
            let id = ((shard.cell_index as u64) << 32) | trial;
            let trial_span = tr.begin("trial", Some(shard_span), id);
            let mut rng = derive_rng(report_1.base_seed, shard.cell_index as u64, trial);
            let span = tr.begin("sim.sample", Some(trial_span), id);
            cell.source.sample_into(n, trial, &mut rng, &mut scratch);
            tr.end(span);
            let (count, verified, checks) = (cell.runner)(
                cell.system.as_ref(),
                &scratch,
                &mut rng,
                &mut tr,
                trial_span,
                id,
                cell.class,
            );
            all_verified &= verified;
            probes += count as u64;
            if cell.class == Class::Scan {
                scan_probes += count as u64;
                scan_checks += checks;
            }
            let span = tr.begin("analysis.fold", Some(trial_span), id);
            stats[shard.cell_index].push(count as f64);
            tr.end(span);
            tr.end(trial_span);
        }
        shard_ms.push(tr.end(shard_span) as f64 / 1e6);
    }
    let traced_wall = started.elapsed().as_secs_f64();

    // The replica must reproduce the engine's report bit for bit, or its
    // per-layer figures describe other work.
    let replica_agrees = all_verified
        && stats.iter().zip(&report_1.cells).all(|(s, cell)| {
            let sum = s.summary();
            let est = cell.estimate;
            sum.count == est.samples
                && sum.mean == est.mean
                && sum.std_error == est.std_error
                && sum.min == est.min
                && sum.max == est.max
        });
    tr.count("probe.probes", probes as f64);
    tr.count("probe.scan_probes", scan_probes as f64);
    tr.count("systems.scan_quorum_checks", scan_checks as f64);

    out.dist("sim.sample_ns", Dist::of(tr.durations("sim.sample")), "ns");
    out.dist(
        "probe.strategy_ns.paper",
        Dist::of(tr.durations("probe.strategy.paper")),
        "ns",
    );
    out.dist(
        "probe.strategy_ns.scan",
        Dist::of(tr.durations("probe.strategy.scan")),
        "ns",
    );
    out.dist(
        "core.verify_ns",
        Dist::of(tr.durations("core.verify")),
        "ns",
    );
    out.dist(
        "analysis.fold_ns",
        Dist::of(tr.durations("analysis.fold")),
        "ns",
    );
    out.metric("probe.probes_per_trial", probes as f64 / trials, "probes");
    out.metric(
        "systems.quorum_checks_per_probe",
        scan_checks as f64 / scan_probes.max(1) as f64,
        "checks",
    );
    let shard_dist = Dist::of(shard_ms.clone());
    out.metric("engine.shard_ms.p50", shard_dist.p50, "ms");
    out.metric(
        "engine.shard_ms.max",
        shard_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    out.metric("engine.shard_ms.n", shard_dist.n as f64, "count");
    let untraced_rate = trials / harness::median_wall(walls_1);
    out.metric(
        "trace.rate_ratio",
        (trials / traced_wall) / untraced_rate,
        "ratio",
    );
    out.metric(
        "trace.replica_agrees",
        f64::from(u8::from(replica_agrees)),
        "bool",
    );
    out.checks.check(replica_agrees, || {
        "probe-mc: the traced replica does not reproduce the engine's report".into()
    });
    out.fact("traced_rate_per_s", trials / traced_wall);
    out.fact("untraced_rate_per_s_1thread", untraced_rate);
    out.tracer = Some(tr);
}
