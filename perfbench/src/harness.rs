//! Shared run machinery: the run context, timed job loops, repeated set-up,
//! and the metric list a workload hands back.

use std::time::Instant;

use crate::check::Checks;
use crate::host;
use crate::trace::{median, quantile, Dist, Tracer};

/// What one benchmark process was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Seconds the timed phase measures.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) pass.
    pub trace: bool,
    /// Engine worker threads for the parallel phases (`nproc`).
    pub threads: usize,
}

/// One named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, e.g. `throughput_per_s`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything a workload reports back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced pass) or per-layer metrics (traced pass).
    pub metrics: Vec<Metric>,
    /// Correctness checks made.
    pub checks: Checks,
    /// Human-readable run facts printed before the result line.
    pub facts: Vec<(String, String)>,
    /// Spans and counters of the traced pass.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Adds `<name>.p50`, `<name>.tail` and `<name>.n` for a timing
    /// distribution, and records which percentile the tail is.
    pub fn dist(&mut self, name: &str, dist: Dist, unit: &'static str) {
        self.metric(format!("{name}.p50"), dist.p50, unit);
        self.metric(format!("{name}.tail"), dist.tail, unit);
        self.metric(format!("{name}.n"), dist.n as f64, "count");
        self.fact(
            format!("{name}.tail"),
            format!("p{} over {} samples", dist.tail_pct, dist.n),
        );
    }

    /// Adds a run fact.
    pub fn fact(&mut self, key: impl Into<String>, value: impl ToString) {
        self.facts.push((key.into(), value.to_string()));
    }
}

/// Wall and CPU seconds of one job.
#[derive(Debug, Clone, Copy)]
pub struct JobTiming {
    /// Wall-clock seconds.
    pub wall: f64,
    /// Process CPU seconds (user + system, all threads).
    pub cpu: f64,
    /// CPU seconds the hypervisor took from the machine meanwhile (0 where
    /// not reported).
    pub steal: f64,
    /// Worker threads the job ran on.
    pub threads: usize,
}

impl JobTiming {
    /// Wall seconds net of steal: the job's wall time minus the steal spread
    /// evenly over the virtual CPUs the job kept busy, `min(threads, nproc)`
    /// (see [`end_to_end`]), never below half the wall time.
    pub fn net_wall(&self) -> f64 {
        let busy = self.threads.clamp(1, host::nproc());
        (self.wall - self.steal / busy as f64).max(self.wall / 2.0)
    }
}

/// Runs `job`, which uses `threads` worker threads, once and measures it.
pub fn time_job<R>(threads: usize, job: impl FnOnce() -> R) -> (R, JobTiming) {
    let steal0 = host::steal_seconds();
    let cpu0 = host::process_cpu();
    let t0 = Instant::now();
    let out = job();
    let wall = t0.elapsed().as_secs_f64();
    let cpu = (host::process_cpu() - cpu0).as_secs_f64();
    let steal = match (steal0, host::steal_seconds()) {
        (Some(a), Some(b)) => b - a,
        _ => 0.0,
    };
    (
        out,
        JobTiming {
            wall,
            cpu,
            steal,
            threads,
        },
    )
}

/// Repeats `job`, which uses `threads` worker threads, until `seconds` have
/// passed (and at least `min_reps` times). Returns every timing and the
/// first job's output.
pub fn timed_loop<R>(
    seconds: f64,
    min_reps: usize,
    threads: usize,
    mut job: impl FnMut() -> R,
) -> (Vec<JobTiming>, R) {
    let started = Instant::now();
    let (first, timing) = time_job(threads, &mut job);
    let mut timings = vec![timing];
    while timings.len() < min_reps || started.elapsed().as_secs_f64() < seconds {
        let (out, timing) = time_job(threads, &mut job);
        drop(out);
        timings.push(timing);
    }
    (timings, first)
}

/// Builds the workload's inputs at least `min_reps` times and until
/// `budget_s` seconds have passed (at most [`SETUP_MAX_REPS`] times),
/// keeping the last build. Returns every build time in seconds. Earlier
/// builds are dropped before the next starts, so peak memory holds one
/// build.
fn repeat_setup<T>(min_reps: usize, budget_s: f64, mut build: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::new();
    let mut kept = None;
    let started = Instant::now();
    while times.len() < min_reps.max(1)
        || (times.len() < SETUP_MAX_REPS && started.elapsed().as_secs_f64() < budget_s)
    {
        drop(kept.take());
        let t0 = Instant::now();
        let built = build();
        times.push(t0.elapsed().as_secs_f64());
        kept = Some(built);
    }
    (times, kept.expect("at least one build"))
}

/// Runs one workload: builds its inputs with `build`, hands them to `body`
/// (which times the job, makes the traced pass and the checks), and reports
/// `setup_s`.
///
/// An untraced run repeats the set-up in a window before `body` and another
/// after it (with the inputs `body` used dropped first, so only one build is
/// alive at a time), and reports the 90th percentile of the build times of
/// both windows. The traced pass builds once.
///
/// Not the median: on a shared host the machine moves, over seconds, between
/// its usual state and bursts of extra speed, and a microsecond build is
/// about 1.6× faster in a burst. A run's builds are then bimodal, and their
/// median lands on whichever mode held more of the windows; the 90th
/// percentile reports the usual state, as the slow-side statistics of
/// [`end_to_end`] do. Longer windows do not help, because one state can hold
/// for several seconds.
pub fn run<T>(
    ctx: &Ctx,
    mut build: impl FnMut() -> T,
    body: impl FnOnce(&T, &mut Outcome),
) -> Outcome {
    let mut out = Outcome::default();
    let (min_reps, budget_s) = if ctx.trace {
        (1, 0.0)
    } else {
        (SETUP_MIN_REPS, SETUP_BUDGET_S)
    };
    let (mut times, built) = repeat_setup(min_reps, budget_s, &mut build);
    if let Some(bytes) = host::peak_rss_bytes() {
        out.fact("peak_rss_after_setup_mib", bytes as f64 / (1024.0 * 1024.0));
    }
    body(&built, &mut out);
    drop(built);
    if !ctx.trace {
        let (more, last) = repeat_setup(min_reps, budget_s, &mut build);
        drop(last);
        times.extend(more);
        out.metric("setup_s", quantile(&times, 0.9), "s");
    }
    out.fact("setup_reps", times.len());
    out.fact(
        "setup_s_p10_p50_p90",
        format!(
            "{:e} {:e} {:e}",
            quantile(&times, 0.1),
            median(&times),
            quantile(&times, 0.9)
        ),
    );
    out
}

/// Seconds each of the two set-up windows of an untraced run lasts.
const SETUP_BUDGET_S: f64 = 0.5;
/// Most set-up repetitions in one window.
const SETUP_MAX_REPS: usize = 5_000;
/// Least set-up repetitions in one window of an untraced run.
const SETUP_MIN_REPS: usize = 3;

/// The end-to-end metrics of the timed job, shared by every workload: work
/// units per wall second, CPU seconds per job, and peak memory (`setup_s` is
/// added by [`run`]).
///
/// A job's wall seconds are counted net of steal: the CPU time the
/// hypervisor took from the machine during the job, spread evenly over the
/// virtual CPUs the job kept busy (zero on bare metal; an idle, halted
/// virtual CPU accrues none). On a virtual machine shared
/// with other guests, steal comes and goes in bursts that take a third of
/// the machine for seconds at a time; it is not the program's doing, and
/// leaving it in makes one run's rate half another's.
///
/// Rates and CPU seconds are then taken on the slow side of the run's jobs
/// (the 20th percentile of rates, the 95th of CPU seconds). The machine also
/// moves, over seconds, between its usual state and bursts in which jobs run
/// up to 1.7× faster, and the share of burst time changes from run to run;
/// the slow-side statistic reports the usual state, which nearly every run
/// visits, where the median would follow the bursts. Every job's rate, CPU
/// seconds and steal are printed with the run facts.
pub fn end_to_end(out: &mut Outcome, units_per_job: f64, timings: &[JobTiming]) {
    let rates: Vec<f64> = timings
        .iter()
        .map(|t| units_per_job / t.net_wall())
        .collect();
    let cpus: Vec<f64> = timings.iter().map(|t| t.cpu).collect();
    out.metric("throughput_per_s", quantile(&rates, 0.2), "1/s");
    out.metric("cpu_s", quantile(&cpus, 0.95), "s");
    out.metric(
        "peak_rss_mib",
        host::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0)),
        "MiB",
    );
    let list = |values: &[f64], fmt: fn(f64) -> String| {
        values.iter().map(|&v| fmt(v)).collect::<Vec<_>>().join(" ")
    };
    out.fact("timed_jobs", timings.len());
    out.fact("job_rates", list(&rates, |r| format!("{r:.0}")));
    out.fact("job_cpu_s", list(&cpus, |c| format!("{c:.4}")));
    let steals: Vec<f64> = timings.iter().map(|t| t.steal).collect();
    out.fact("job_steal_s", list(&steals, |s| format!("{s:.2}")));
    out.fact("units_per_job", units_per_job);
}

/// Median wall seconds, net of steal, of `timings`.
pub fn median_wall(timings: &[JobTiming]) -> f64 {
    median(&timings.iter().map(JobTiming::net_wall).collect::<Vec<_>>())
}
