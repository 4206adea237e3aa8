//! The traced pass's recorder: spans kept in memory (name, start, end,
//! parent, and the trial, step or session they belong to), counters at the
//! same boundaries, per-name self time, and a JSON-lines dump at the end.
//!
//! Spans are recorded by the benchmark around its calls into each module; the
//! program itself is not instrumented. One recorder is used from one thread.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: u32,
    parent: Option<SpanId>,
    id: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Spans and counters of one traced pass.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    names: Vec<String>,
    spans: Vec<Span>,
    counters: BTreeMap<String, f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    fn intern(&mut self, name: &str) -> u32 {
        match self.names.iter().position(|n| n == name) {
            Some(i) => i as u32,
            None => {
                self.names.push(name.to_owned());
                (self.names.len() - 1) as u32
            }
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under `parent` for trial, step or session
    /// `id`.
    pub fn begin(&mut self, name: &str, parent: Option<SpanId>, id: u64) -> SpanId {
        let name = self.intern(name);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            id,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes `span` and returns its duration in nanoseconds.
    pub fn end(&mut self, span: SpanId) -> u64 {
        let end_ns = self.now_ns();
        let s = &mut self.spans[span];
        s.end_ns = end_ns;
        end_ns - s.start_ns
    }

    /// Adds `by` to counter `name`.
    pub fn count(&mut self, name: &str, by: f64) {
        *self.counters.entry(name.to_owned()).or_insert(0.0) += by;
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations (ns) of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let Some(id) = self.names.iter().position(|n| n == name) else {
            return Vec::new();
        };
        self.spans
            .iter()
            .filter(|s| s.name as usize == id)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Per-name totals: `(name, count, total_ns, self_ns)`, where a span's
    /// self time is its duration minus the durations of its direct children.
    /// Children never overlap because one thread records them in sequence.
    pub fn self_times(&self) -> Vec<(String, usize, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(parent) = s.parent {
                child_ns[parent] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(String, usize, u64, u64)> =
            self.names.iter().map(|n| (n.clone(), 0, 0, 0)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let row = &mut rows[s.name as usize];
            row.1 += 1;
            row.2 += dur;
            row.3 += dur.saturating_sub(child_ns[i]);
        }
        rows
    }

    /// Writes the `header` line, then every span, then every counter, as one
    /// JSON object per line.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        let mut line = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            line.clear();
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                line,
                "{{\"span\":{i},\"name\":\"{}\",\"parent\":{parent},\"id\":{},\"start_ns\":{},\"end_ns\":{}}}",
                self.names[s.name as usize], s.id, s.start_ns, s.end_ns
            );
            writeln!(out, "{line}")?;
        }
        for (name, value) in &self.counters {
            writeln!(out, "{{\"counter\":\"{name}\",\"value\":{value}}}")?;
        }
        out.flush()
    }
}

/// A timing distribution: the median, the highest percentile that still has
/// at least ten samples beyond it, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Median.
    pub p50: f64,
    /// The tail percentile's value.
    pub tail: f64,
    /// Which percentile `tail` is (e.g. 99.0), or 50 when there are too few
    /// samples for any higher one.
    pub tail_pct: f64,
    /// Number of samples.
    pub n: usize,
}

/// Candidate tail percentiles, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0];

impl Dist {
    /// Summarises `samples` (empty input gives all zeros).
    pub fn of(mut samples: Vec<f64>) -> Dist {
        let n = samples.len();
        if n == 0 {
            return Dist {
                p50: 0.0,
                tail: 0.0,
                tail_pct: 0.0,
                n: 0,
            };
        }
        samples.sort_by(f64::total_cmp);
        let tail_pct = TAIL_PERCENTILES
            .iter()
            .copied()
            .find(|pct| n as f64 * (1.0 - pct / 100.0) >= 10.0)
            .unwrap_or(50.0);
        Dist {
            p50: percentile(&samples, 50.0),
            tail: percentile(&samples, tail_pct),
            tail_pct,
            n,
        }
    }
}

/// Nearest-rank percentile of sorted, non-empty `sorted`.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `q`-quantile (0 ≤ q ≤ 1) of non-empty `values`, interpolating
/// linearly between order statistics.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of non-empty `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}
