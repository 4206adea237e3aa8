//! The benchmark's metric catalogue: the names and units every result line
//! carries. `BENCHMARK.json` at the repository root lists the same names
//! (a test keeps the two in step).

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["probe-mc", "lane-avail", "churn-walk", "sim-sessions"];

/// Lane-path systems of `lane-avail`, as they appear in metric names.
pub const LANE_FAMILIES: [&str; 8] = [
    "grid",
    "tree",
    "maj",
    "hqs",
    "compose",
    "tree-as-compose",
    "hqs-as-compose",
    "grid-as-compose",
];

/// Catalogue families of `churn-walk`, as they appear in metric names.
pub const CHURN_FAMILIES: [&str; 7] = ["maj", "wheel", "triang", "tree", "hqs", "grid", "compose"];

/// End-to-end metrics (untraced pass), with units.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    vec![
        ("setup_s".into(), "s"),
        ("throughput_per_s".into(), "1/s"),
        ("cpu_s".into(), "s"),
        ("peak_rss_mib".into(), "MiB"),
    ]
}

fn dist(out: &mut Vec<(String, &'static str)>, name: &str, unit: &'static str) {
    out.push((format!("{name}.p50"), unit));
    out.push((format!("{name}.tail"), unit));
    out.push((format!("{name}.n"), "count"));
}

/// Per-layer metrics (traced pass), with units.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    // probe-mc
    dist(&mut out, "sim.sample_ns", "ns");
    dist(&mut out, "probe.strategy_ns.paper", "ns");
    dist(&mut out, "probe.strategy_ns.scan", "ns");
    dist(&mut out, "core.verify_ns", "ns");
    dist(&mut out, "analysis.fold_ns", "ns");
    out.push(("probe.probes_per_trial".into(), "probes"));
    out.push(("systems.quorum_checks_per_probe".into(), "checks"));
    out.push(("engine.shard_ms.p50".into(), "ms"));
    out.push(("engine.shard_ms.max".into(), "ms"));
    out.push(("engine.shard_ms.n".into(), "count"));
    out.push(("engine.speedup".into(), "x"));
    out.push(("engine.efficiency".into(), "ratio"));
    // lane-avail
    dist(&mut out, "core.lanes.fill_ns_per_word", "ns");
    out.push(("core.lanes.rng_words_per_lane".into(), "words"));
    for family in LANE_FAMILIES {
        dist(
            &mut out,
            &format!("systems.circuit_ns_per_word.{family}"),
            "ns",
        );
    }
    out.push(("core.lanes.bytes_per_trial".into(), "B"));
    out.push(("core.lanes.block_bytes".into(), "B"));
    out.push(("host.llc_bytes".into(), "B"));
    // churn-walk
    dist(&mut out, "sim.failure.step_ns", "ns");
    for family in CHURN_FAMILIES {
        dist(&mut out, &format!("core.delta.update_ns.{family}"), "ns");
    }
    out.push(("core.delta.flips_per_step".into(), "flips"));
    // sim-sessions
    dist(&mut out, "sim.workload.plan_ns", "ns");
    dist(&mut out, "cluster.engine_ns", "ns");
    out.push(("cluster.probes_per_session".into(), "probes"));
    out.push(("cluster.msgs_per_session".into(), "msgs"));
    out.push(("cluster.wasted_frac".into(), "ratio"));
    // every workload
    out.push(("trace.rate_ratio".into(), "ratio"));
    out.push(("trace.replica_agrees".into(), "bool"));
    out.push(("check.error_frac".into(), "ratio"));
    out
}
