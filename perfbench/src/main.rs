//! The probequorum benchmark: one workload per process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload probe-mc --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Workloads: `probe-mc`, `lane-avail`, `churn-walk`, `sim-sessions` (see
//! `perfbench/README.md`). With `--trace 0` the run measures the end-to-end
//! metrics with tracing off; with `--trace 1` it makes the traced pass and
//! reports the per-layer metrics, writing its spans as JSON lines under
//! `perfbench/out/`. Either way it checks the program's outputs, prints the
//! host and run facts, and ends with one JSON result line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`, where
//! `attempted` and `failed` count correctness checks.

mod check;
mod churn_walk;
mod harness;
mod host;
mod lane_avail;
mod metrics;
mod probe_mc;
mod sim_sessions;
#[cfg(test)]
mod tests;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Ctx, Outcome};

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        metrics::WORKLOADS.join("|")
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !metrics::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".into()
    }
}

fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads: if args.workload == "churn-walk" {
            1
        } else {
            host::nproc()
        },
    };

    let mut outcome: Outcome = match args.workload.as_str() {
        "probe-mc" => probe_mc::run(&ctx),
        "lane-avail" => lane_avail::run(&ctx),
        "churn-walk" => churn_walk::run(&ctx),
        "sim-sessions" => sim_sessions::run(&ctx),
        _ => unreachable!("workload names are validated"),
    };

    // Host and run facts, in every output.
    let mut facts: Vec<(String, String)> = vec![
        ("workload".into(), args.workload.clone()),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), u8::from(args.trace).to_string()),
        ("nproc".into(), host::nproc().to_string()),
        ("engine_threads".into(), ctx.threads.to_string()),
        ("commit".into(), host::commit()),
        ("rustc".into(), host::rustc_version()),
        (
            "llc".into(),
            host::last_level_cache().map_or_else(
                || "unknown".into(),
                |(level, bytes)| format!("L{level} {} MiB", bytes / (1024 * 1024)),
            ),
        ),
        (
            "lane_block_bytes_width8_n1e6".into(),
            format!(
                "{} MiB (computed: 10^6 elements x 8 words x 8 B)",
                lane_avail::block_bytes(1_000_000, 8) / (1024 * 1024)
            ),
        ),
        ("checks_made".into(), outcome.checks.made().to_string()),
        (
            "error_frac".into(),
            json_number(outcome.checks.error_frac()),
        ),
    ];
    facts.append(&mut outcome.facts);

    if let Some(tracer) = &outcome.tracer {
        // One file per workload, overwritten by its next traced run, so
        // repeated runs do not pile up tens of MiB each.
        let path = PathBuf::from("perfbench/out").join(format!("spans-{}.jsonl", args.workload));
        let header = format!(
            "{{\"workload\": {}, \"seed\": {}}}",
            json_string(&args.workload),
            args.seed
        );
        match tracer.write_jsonl(&path, &header) {
            Ok(()) => facts.push(("spans_jsonl".into(), path.display().to_string())),
            Err(err) => eprintln!("perfbench: cannot write {}: {err}", path.display()),
        }
        facts.push(("spans".into(), tracer.len().to_string()));
        println!("# self time by span name (ms):");
        println!(
            "#   {:<34} {:>9} {:>12} {:>12}",
            "span", "count", "total", "self"
        );
        for (name, count, total, own) in tracer.self_times() {
            println!(
                "#   {name:<34} {count:>9} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }
    for failure in outcome.checks.failures() {
        println!("# CHECK FAILED: {failure}");
    }

    if args.trace {
        let error_frac = outcome.checks.error_frac();
        outcome.metric("check.error_frac", error_frac, "ratio");
    }

    // Every per-layer metric appears in every traced result; those a
    // workload does not exercise read 0 (nothing was measured).
    let expected = if args.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let mut metric_json = Vec::new();
    for (name, unit) in &expected {
        let reported = outcome.metrics.iter().find(|m| m.name == *name);
        if let Some(metric) = reported {
            if metric.unit != *unit {
                eprintln!("perfbench: {name} reported in {} not {unit}", metric.unit);
                return ExitCode::from(1);
            }
        }
        let value = reported.map(|m| m.value);
        if value.is_none() && !args.trace {
            eprintln!("perfbench: workload did not report {name}");
            return ExitCode::from(1);
        }
        metric_json.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(name),
            json_number(value.unwrap_or(0.0)),
            json_string(unit)
        ));
    }
    for metric in &outcome.metrics {
        if !expected.iter().any(|(name, _)| *name == metric.name) {
            eprintln!("perfbench: unlisted metric {}", metric.name);
            return ExitCode::from(1);
        }
    }

    let facts_json: Vec<String> = facts
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    println!("{{\"facts\": {{{}}}}}", facts_json.join(", "));
    let (made, failed) = (outcome.checks.made(), outcome.checks.failed());
    if made == 0 {
        eprintln!("perfbench: the workload made no correctness checks");
        return ExitCode::from(1);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        made,
        failed,
        metric_json.join(", ")
    );
    ExitCode::SUCCESS
}
