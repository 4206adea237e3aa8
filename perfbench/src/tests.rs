//! The benchmark's own tests: every checker passes on real outputs and
//! fails on a perturbed reference (the negative control), the tracer's
//! bookkeeping is right, and `BENCHMARK.json` lists exactly the metrics the
//! runs print.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use probequorum::sim::eval::EvalEngine;
use probequorum::sim::run_net_workload_cells;

use crate::check::Checks;
use crate::trace::{quantile, Dist, Tracer};
use crate::{churn_walk, lane_avail, metrics, probe_mc, sim_sessions};

#[test]
fn probe_mc_checks_pass_and_a_shifted_reference_fails() {
    let setup = probe_mc::build(7);
    let report_1 = EvalEngine::with_threads(1).run(&setup.plan);
    let report_n = EvalEngine::with_threads(2).run(&setup.plan);

    let mut real = Checks::default();
    probe_mc::check(&mut real, &setup, &report_n, &report_1, 0.0);
    assert!(real.made() > 1);
    assert_eq!(real.error_frac(), 0.0, "{:?}", real.failures());

    let mut shifted = Checks::default();
    probe_mc::check(&mut shifted, &setup, &report_n, &report_1, -1.0);
    assert!(shifted.error_frac() > 0.0);
}

#[test]
fn lane_avail_checks_pass_and_a_shifted_fp_fails() {
    let systems = lane_avail::build_sized(7, 4, 8, 1_001, 900);
    let wide = lane_avail::job(&systems, 11, lane_avail::WIDTH);
    let narrow = lane_avail::job(&systems, 11, 1);

    let mut real = Checks::default();
    lane_avail::check(&mut real, &systems, &wide, &narrow, 0.0);
    assert!(real.made() > systems.len() as u64);
    assert_eq!(real.error_frac(), 0.0, "{:?}", real.failures());

    let mut shifted = Checks::default();
    lane_avail::check(&mut shifted, &systems, &wide, &narrow, 0.1);
    assert!(shifted.error_frac() > 0.0);
}

#[test]
fn binomial_tail_matches_small_cases() {
    // P(X ≥ 2) for X ~ Bin(3, 1/2) is 1/2; P(X ≥ 1) for Bin(4, 0.3) is
    // 1 − 0.7⁴.
    assert!((lane_avail::binomial_tail(3, 2, 0.5) - 0.5).abs() < 1e-12);
    assert!((lane_avail::binomial_tail(4, 1, 0.3) - (1.0 - 0.7f64.powi(4))).abs() < 1e-12);
    // Symmetric majority of an odd universe is exactly one half.
    assert!((lane_avail::binomial_tail(1_000_001, 500_001, 0.5) - 0.5).abs() < 1e-9);
}

#[test]
fn churn_walk_checks_pass_and_a_flipped_verdict_fails() {
    let walks = churn_walk::build(3);
    for walk in walks.iter().take(2) {
        let mut real = Checks::default();
        churn_walk::check_walk(&mut real, walk, None);
        assert!(real.made() > 10);
        assert_eq!(real.error_frac(), 0.0, "{:?}", real.failures());

        // Step 0 is always re-evaluated from scratch.
        let mut flipped = Checks::default();
        churn_walk::check_walk(&mut flipped, walk, Some(0));
        assert!(flipped.error_frac() > 0.0);
    }
}

#[test]
fn sim_sessions_checks_pass_and_an_altered_row_fails() {
    let cells: Vec<_> = sim_sessions::build().into_iter().take(3).collect();
    let rows_1 = run_net_workload_cells(&EvalEngine::with_threads(1), 5, &cells);
    let rows_n = run_net_workload_cells(&EvalEngine::with_threads(2), 5, &cells);

    let mut real = Checks::default();
    sim_sessions::check(&mut real, &rows_n, &rows_1);
    assert_eq!(real.error_frac(), 0.0, "{:?}", real.failures());

    let mut altered_rows = rows_n.clone();
    altered_rows[1].probes_per_session += 1.0;
    let mut altered = Checks::default();
    sim_sessions::check(&mut altered, &altered_rows, &rows_1);
    assert!(altered.error_frac() > 0.0);
}

#[test]
fn self_time_subtracts_direct_children() {
    let mut tr = Tracer::new();
    let parent = tr.begin("parent", None, 0);
    let child = tr.begin("child", Some(parent), 0);
    std::thread::sleep(std::time::Duration::from_millis(2));
    tr.end(child);
    tr.end(parent);
    let rows = tr.self_times();
    let (_, _, parent_total, parent_self) = rows.iter().find(|r| r.0 == "parent").cloned().unwrap();
    let (_, _, child_total, child_self) = rows.iter().find(|r| r.0 == "child").cloned().unwrap();
    assert_eq!(child_total, child_self);
    assert_eq!(parent_self, parent_total - child_total);
    assert!(child_total >= 2_000_000);
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond_it() {
    let d = Dist::of((1..=1_000).map(f64::from).collect());
    assert_eq!(d.n, 1_000);
    assert_eq!(d.tail_pct, 99.0);
    assert_eq!(d.p50, 500.0);
    assert_eq!(d.tail, 990.0);
    let few = Dist::of(vec![3.0, 1.0, 2.0]);
    assert_eq!(few.tail_pct, 50.0);
    assert_eq!(few.p50, 2.0);
    assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
}

/// `(name, unit)` of every metric object in `BENCHMARK.json`'s
/// `end_to_end` and `per_layer` lists, read with a minimal scanner.
fn benchmark_json_metrics(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("{section} section"));
    let end = text[start..]
        .find(']')
        .map(|i| start + i)
        .expect("list end");
    let field = |object: &str, key: &str| -> String {
        let at = object.find(&format!("\"{key}\"")).expect("field") + key.len() + 2;
        let rest = &object[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = rest[open..].find('"').expect("string end") + open;
        rest[open..close].to_owned()
    };
    text[start..end]
        .split('}')
        .filter(|object| object.contains("\"name\""))
        .map(|object| (field(object, "name"), field(object, "unit")))
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let as_owned = |list: Vec<(String, &str)>| -> Vec<(String, String)> {
        list.into_iter().map(|(n, u)| (n, u.to_owned())).collect()
    };
    assert_eq!(
        benchmark_json_metrics("end_to_end"),
        as_owned(metrics::end_to_end())
    );
    assert_eq!(
        benchmark_json_metrics("per_layer"),
        as_owned(metrics::per_layer())
    );
}
