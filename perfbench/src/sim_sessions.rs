//! `sim-sessions`: the discrete-event workload engine through
//! `run_net_workload_cells` (`WorkloadSpec::run` on the sim backend).
//!
//! Cells cover Maj, Triang, Tree and Compose; paper (load-blind),
//! `LeastLoaded` and `PowerOfTwo` strategies; open-Poisson and closed-loop
//! simulated arrivals (`standard_workloads`); and the `network_scenarios`
//! battery under naive and robust policies. This is the only workload where
//! `quorum-cluster`'s event queue, service queues and network fates do the
//! work. The live runtime is left out on purpose: it spawns one OS thread per
//! node plus supervisors, so on a few cores its sessions per second measure
//! the OS scheduler, not the program.

use std::sync::Arc;

use probequorum::cluster::{NetProbe, NetSessionPlan, ProbePolicy, SimTime, WorkloadSpec};
use probequorum::core::{Color, Coloring};
use probequorum::probe::session::observed_coloring;
use probequorum::probe::strategies::{
    LeastLoadedScan, LoadView, PowerOfTwoScan, ProbeCw, ProbeMaj, ProbeTree, SequentialScan,
};
use probequorum::sim::eval::{
    derive_rng, erase_spec, typed_strategy, universal_strategy, ColoringSource, DynProbeStrategy,
    DynSystem, EvalEngine,
};
use probequorum::sim::{
    network_scenarios, open_poisson_workload, run_net_workload_cells, standard_workloads,
    NetWorkloadCell, NetWorkloadOutcome, WorkloadStrategy,
};
use probequorum::systems::{CrumblingWalls, Majority, SystemSpec, TreeQuorum};

use crate::check::Checks;
use crate::harness::{self, Ctx, Outcome};
use crate::trace::{Dist, Tracer};

/// Simulated sessions per cell.
const SESSIONS: usize = 2_000;

/// Builds every cell.
pub fn build() -> Vec<NetWorkloadCell> {
    let spec = |s: SystemSpec| erase_spec(&s).expect("benchmark spec builds");
    let systems: Vec<(DynSystem, DynProbeStrategy)> = vec![
        (
            spec(SystemSpec::Majority { n: 31 }),
            typed_strategy::<Majority, _>(ProbeMaj::new()),
        ),
        (
            spec(SystemSpec::Triang { rows: 8 }),
            typed_strategy::<CrumblingWalls, _>(ProbeCw::new()),
        ),
        (
            spec(SystemSpec::Tree { height: 4 }),
            typed_strategy::<TreeQuorum, _>(ProbeTree::new()),
        ),
        // No paper strategy probes a composition; its load-blind baseline
        // is the sequential scan.
        (
            spec(SystemSpec::org_majority_with_size_hint(25)),
            universal_strategy(SequentialScan::new()),
        ),
    ];
    let source = ColoringSource::iid(0.05);
    let mut cells = Vec::new();
    for (system, paper) in &systems {
        let n = system.universe_size();
        // Simulated arrivals on a clean network, every strategy.
        for strategy in [
            WorkloadStrategy::Paper(Arc::clone(paper)),
            WorkloadStrategy::LeastLoaded,
            WorkloadStrategy::PowerOfTwo,
        ] {
            for (name, config) in standard_workloads(SESSIONS) {
                let clean = &network_scenarios(n, &config)[0];
                cells.push(NetWorkloadCell {
                    system: system.clone(),
                    strategy: strategy.clone(),
                    source: source.clone(),
                    workload: name.into(),
                    config,
                    net: clean.name.into(),
                    network: clean.network.clone(),
                    policy: clean.policy,
                    health: None,
                });
            }
        }
        // The network battery, naive and robust.
        let config = open_poisson_workload(SESSIONS, SimTime::from_micros(250));
        for scenario in network_scenarios(n, &config) {
            let mut policies = vec![scenario.policy];
            if !scenario.policy.is_sequential() {
                policies.push(ProbePolicy::sequential());
            }
            for policy in policies {
                cells.push(NetWorkloadCell {
                    system: system.clone(),
                    strategy: WorkloadStrategy::Paper(Arc::clone(paper)),
                    source: source.clone(),
                    workload: "open-poisson".into(),
                    config,
                    net: scenario.name.into(),
                    network: scenario.network.clone(),
                    policy,
                    health: None,
                });
            }
        }
    }
    cells
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    harness::run(ctx, build, |cells, out| measure(ctx, cells, out))
}

fn measure(ctx: &Ctx, cells: &[NetWorkloadCell], out: &mut Outcome) {
    let parallel = EvalEngine::with_threads(ctx.threads);
    let serial = EvalEngine::with_threads(1);
    let units = cells.iter().map(|c| c.config.sessions).sum::<usize>() as f64;
    out.fact("cells", cells.len());

    let rows_n;
    let rows_1;
    if !ctx.trace {
        let (timings, rows) = harness::timed_loop(ctx.seconds, 3, ctx.threads, || {
            run_net_workload_cells(&parallel, ctx.seed, cells)
        });
        harness::end_to_end(out, units, &timings);
        rows_n = rows;
        rows_1 = run_net_workload_cells(&serial, ctx.seed, cells);
    } else {
        let quarter = ctx.seconds / 4.0;
        let (walls_n, rows) = harness::timed_loop(quarter, 2, ctx.threads, || {
            run_net_workload_cells(&parallel, ctx.seed, cells)
        });
        let (walls_1, rows1) = harness::timed_loop(quarter, 2, 1, || {
            run_net_workload_cells(&serial, ctx.seed, cells)
        });
        rows_n = rows;
        rows_1 = rows1;
        let speedup = harness::median_wall(&walls_1) / harness::median_wall(&walls_n);
        out.metric("engine.speedup", speedup, "x");
        out.metric("engine.efficiency", speedup / ctx.threads as f64, "ratio");
        traced_pass(
            out,
            cells,
            ctx.seed,
            &rows_1,
            units / harness::median_wall(&walls_1),
        );
    }
    check(&mut out.checks, &rows_n, &rows_1);
}

/// Checks that every outcome row is bit-identical at `nproc` and 1 thread.
pub fn check(checks: &mut Checks, rows_n: &[NetWorkloadOutcome], rows_1: &[NetWorkloadOutcome]) {
    checks.check(rows_n.len() == rows_1.len(), || {
        "sim-sessions: row counts differ between nproc and 1 thread".into()
    });
    for (index, (a, b)) in rows_n.iter().zip(rows_1).enumerate() {
        checks.check(a == b, || {
            format!(
                "sim-sessions: row {index} ({} {} {}) differs between nproc and 1 thread",
                a.system, a.strategy, a.net
            )
        });
    }
}

/// Totals of one replayed cell.
struct CellTotals {
    sessions: u64,
    probes: u64,
    messages: u64,
    wasted: u64,
    run_ns: u64,
    plan_ns: u64,
}

/// Replays one cell through `WorkloadSpec::run`, timing the session closure
/// separately from the engine around it. Mirrors the sim backend's cell
/// runner for health-blind cells, so the totals must equal the engine's row.
fn replay_cell(
    tr: &mut Tracer,
    base_seed: u64,
    cell_index: u64,
    cell: &NetWorkloadCell,
) -> (CellTotals, probequorum::cluster::WorkloadReport) {
    let n = cell.system.universe_size();
    let view = match &cell.strategy {
        WorkloadStrategy::Paper(_) => None,
        _ => Some(LoadView::new(n)),
    };
    let strategy: DynProbeStrategy = match (&cell.strategy, &view) {
        (WorkloadStrategy::Paper(strategy), _) => Arc::clone(strategy),
        (WorkloadStrategy::LeastLoaded, Some(view)) => {
            universal_strategy(LeastLoadedScan::new(view.clone()))
        }
        (WorkloadStrategy::PowerOfTwo, Some(view)) => {
            universal_strategy(PowerOfTwoScan::new(view.clone()))
        }
        _ => unreachable!("load-aware strategies carry a view"),
    };
    let engine_seed = base_seed
        .rotate_left(17)
        .wrapping_add((cell_index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut scratch = Coloring::all_green(n);
    let mut plan_ns = 0u64;
    let run_span = tr.begin("cluster.run", None, cell_index);
    let report = {
        let tr = &mut *tr;
        WorkloadSpec::new(n)
            .config(cell.config)
            .network(cell.network.clone())
            .policy(cell.policy)
            .run(engine_seed, |session, ledger, now, net_rng| {
                let span = tr.begin("sim.workload.plan", Some(run_span), session);
                if let Some(view) = &view {
                    for e in 0..n {
                        view.set(e, ledger.score(e, now));
                    }
                }
                let mut rng = derive_rng(base_seed, cell_index, session);
                cell.source.sample_into(n, session, &mut rng, &mut scratch);
                let (observed, mut fates) = observed_coloring(&scratch, |e, color| {
                    cell.network
                        .probe_fate(e, color == Color::Green, now, &cell.policy, net_rng)
                });
                let run = strategy.run(cell.system.as_ref(), &observed, &mut rng);
                let probes: Vec<NetProbe> = run
                    .sequence
                    .iter()
                    .map(|&e| NetProbe {
                        node: e,
                        observed: observed.color(e),
                        failures: std::mem::take(&mut fates[e].failures),
                    })
                    .collect();
                let plan = NetSessionPlan {
                    probes,
                    success: run.witness.is_green(),
                };
                plan_ns += tr.end(span);
                plan
            })
            .report
    };
    let run_ns = tr.end(run_span);
    let totals = CellTotals {
        sessions: report.sessions as u64,
        probes: report.probes,
        messages: report.messages,
        wasted: report.wasted_probes,
        run_ns,
        plan_ns,
    };
    (totals, report)
}

fn traced_pass(
    out: &mut Outcome,
    cells: &[NetWorkloadCell],
    seed: u64,
    rows_1: &[NetWorkloadOutcome],
    untraced_rate: f64,
) {
    let mut tr = Tracer::new();
    let mut engine_ns_per_session = Vec::with_capacity(cells.len());
    let (mut sessions, mut probes, mut messages, mut wasted) = (0u64, 0u64, 0u64, 0u64);
    let mut replica_agrees = true;
    let started = std::time::Instant::now();
    for (index, (cell, row)) in cells.iter().zip(rows_1).enumerate() {
        let (totals, report) = replay_cell(&mut tr, seed, index as u64, cell);
        replica_agrees &= report.sessions == row.sessions
            && report.success_rate() == row.success_rate
            && report.probes_per_session() == row.probes_per_session
            && report.messages_per_session() == row.messages_per_session
            && report.wasted_fraction() == row.wasted_fraction
            && report.latency.p99().unwrap_or(0) == row.p99_us;
        engine_ns_per_session
            .push((totals.run_ns - totals.plan_ns) as f64 / totals.sessions.max(1) as f64);
        sessions += totals.sessions;
        probes += totals.probes;
        messages += totals.messages;
        wasted += totals.wasted;
    }
    let traced_rate = sessions as f64 / started.elapsed().as_secs_f64();
    tr.count("cluster.sessions", sessions as f64);
    tr.count("cluster.probes", probes as f64);
    tr.count("cluster.messages", messages as f64);
    tr.count("cluster.wasted_probes", wasted as f64);

    out.dist(
        "sim.workload.plan_ns",
        Dist::of(tr.durations("sim.workload.plan")),
        "ns",
    );
    out.dist("cluster.engine_ns", Dist::of(engine_ns_per_session), "ns");
    out.metric(
        "cluster.probes_per_session",
        probes as f64 / sessions as f64,
        "probes",
    );
    out.metric(
        "cluster.msgs_per_session",
        messages as f64 / sessions as f64,
        "msgs",
    );
    out.metric(
        "cluster.wasted_frac",
        wasted as f64 / probes.max(1) as f64,
        "ratio",
    );
    out.metric("trace.rate_ratio", traced_rate / untraced_rate, "ratio");
    out.metric(
        "trace.replica_agrees",
        f64::from(u8::from(replica_agrees)),
        "bool",
    );
    out.checks.check(replica_agrees, || {
        "sim-sessions: the traced replica does not reproduce the engine's rows".into()
    });
    out.tracer = Some(tr);
}
