//! Correctness checks. Every workload records each check it makes here; the
//! failed share is the run's `error_frac`, and a run with any failure reports
//! `"correct": false`.

/// A tally of checks made and failed, with a description of each failure.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    made: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes it when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.made += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Checks made.
    pub fn made(&self) -> u64 {
        self.made
    }

    /// Checks failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Descriptions of the failed checks.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Failed checks ÷ checks made (0 when none were made).
    pub fn error_frac(&self) -> f64 {
        if self.made == 0 {
            0.0
        } else {
            self.failed() as f64 / self.made as f64
        }
    }
}

/// Whether an estimate `mean ± std_error` is within `z` standard errors of
/// `reference`. A zero standard error (every trial equal) demands an exact
/// match up to rounding.
pub fn within_z(mean: f64, std_error: f64, reference: f64, z: f64) -> bool {
    (mean - reference).abs() <= z * std_error.max(1e-9)
}
