//! Fault-aware probe sessions: running a strategy against the coloring a
//! client *observes* through an unreliable network, rather than the true
//! coloring of the universe.
//!
//! The paper's oracle model assumes a probe either answers or is
//! known-dead. Over a real network a probe is a request/response message
//! pair: either leg can be lost or partitioned away, so a live element can
//! look dead to the client, and a client-side policy (bounded retries,
//! hedging) decides how hard to try before giving up. This module supplies
//! the observation layer:
//!
//! * [`AttemptLoss`] / [`ProbeFate`] describe how each probe attempt to an
//!   element fares in transit — which leg of which attempt was dropped, and
//!   the color the client ultimately records.
//! * [`observed_coloring`] folds per-element fates over a true coloring to
//!   produce the coloring the client actually sees. A strategy then runs
//!   against that observed coloring, and the fates of the elements it
//!   probed are priced by a message-level network simulator (see
//!   `quorum-cluster`'s workload engine).
//!
//! The fate of an element is decided by a caller-supplied closure, so this
//! crate stays agnostic of delay models and partition schedules; it only
//! fixes the *contract*: a dead element never answers, and an element
//! observed green answered on the attempt after its recorded failures.

use quorum_core::{Color, Coloring, ElementId};

/// Which leg of a probe attempt the network dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptLoss {
    /// The request never reached the element (lost, partitioned away, or the
    /// element is dead): the element does no work, the client times out.
    Request,
    /// The request was delivered and served, but the response was dropped on
    /// the way back: the element's work is wasted, the client times out.
    Response,
    /// The request was delivered to a crashed (or crashing) element: the
    /// queued work is dropped without being served, the client times out.
    /// Distinguishable from [`AttemptLoss::Request`] so crash accounting
    /// (`delivered == served + lost_to_crash`) can be cross-validated.
    Crash,
}

/// How probing one element turns out, over all attempts a policy allows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeFate {
    /// The color the client records after its last attempt.
    pub observed: Color,
    /// The losses of the failed attempts, in order. An element observed
    /// [`Color::Green`] answered on the attempt following these failures; an
    /// element observed [`Color::Red`] exhausted every attempt.
    pub failures: Vec<AttemptLoss>,
}

impl ProbeFate {
    /// A clean first-attempt answer.
    pub fn answered() -> Self {
        ProbeFate {
            observed: Color::Green,
            failures: Vec::new(),
        }
    }

    /// A dead (or unreachable) element probed `attempts` times: every
    /// request leg is charged, nothing ever answers.
    pub fn dead(attempts: u32) -> Self {
        ProbeFate {
            observed: Color::Red,
            failures: vec![AttemptLoss::Request; attempts.max(1) as usize],
        }
    }

    /// A crashed element probed `attempts` times: every request is delivered
    /// into a queue that is dropped, so the work is lost rather than served.
    pub fn crashed(attempts: u32) -> Self {
        ProbeFate {
            observed: Color::Red,
            failures: vec![AttemptLoss::Crash; attempts.max(1) as usize],
        }
    }

    /// A probe the client declined to send (circuit breaker open): observed
    /// red with **zero** attempts, so it costs no messages and no work.
    pub fn shed() -> Self {
        ProbeFate {
            observed: Color::Red,
            failures: Vec::new(),
        }
    }

    /// Whether the client never sent a single attempt (see [`ProbeFate::shed`]).
    pub fn is_shed(&self) -> bool {
        self.observed == Color::Red && self.failures.is_empty()
    }

    /// Number of attempts this fate consumed (failures plus the answering
    /// attempt for green observations). Shed fates consumed zero.
    pub fn attempts(&self) -> usize {
        self.failures.len() + usize::from(self.observed == Color::Green)
    }
}

/// Folds per-element fates over the true coloring, returning the coloring
/// the client observes plus every element's fate (indexed by element).
///
/// `fate(e, true_color)` is called once per element in index order, so a
/// deterministic closure yields a deterministic observation no matter which
/// elements the strategy later probes.
///
/// # Panics
///
/// Panics if a fate claims a green observation for a truly red element — a
/// dead element cannot answer.
pub fn observed_coloring<F>(truth: &Coloring, mut fate: F) -> (Coloring, Vec<ProbeFate>)
where
    F: FnMut(ElementId, Color) -> ProbeFate,
{
    let n = truth.universe_size();
    let mut fates = Vec::with_capacity(n);
    let mut colors = Vec::with_capacity(n);
    for e in 0..n {
        let true_color = truth.color(e);
        let verdict = fate(e, true_color);
        assert!(
            !(true_color == Color::Red && verdict.observed == Color::Green),
            "element {e} is dead but its fate claims an answer"
        );
        colors.push(verdict.observed);
        fates.push(verdict);
    }
    (Coloring::from_colors(colors), fates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fates_report_their_attempt_counts() {
        assert_eq!(ProbeFate::answered().attempts(), 1);
        assert_eq!(ProbeFate::dead(3).attempts(), 3);
        assert_eq!(ProbeFate::dead(0).attempts(), 1, "at least one attempt");
        let retried = ProbeFate {
            observed: Color::Green,
            failures: vec![AttemptLoss::Response, AttemptLoss::Request],
        };
        assert_eq!(retried.attempts(), 3);
    }

    #[test]
    fn clean_fates_observe_the_truth() {
        let truth = Coloring::from_colors(vec![Color::Green, Color::Red, Color::Green]);
        let (observed, fates) = observed_coloring(&truth, |_, color| match color {
            Color::Green => ProbeFate::answered(),
            Color::Red => ProbeFate::dead(1),
        });
        assert_eq!(observed, truth);
        assert_eq!(fates[0], ProbeFate::answered());
        assert_eq!(fates[1], ProbeFate::dead(1));
    }

    #[test]
    fn lost_answers_turn_live_elements_red() {
        let truth = Coloring::all_green(4);
        // Element 2's answers are all dropped on the response leg.
        let (observed, fates) = observed_coloring(&truth, |e, _| {
            if e == 2 {
                ProbeFate {
                    observed: Color::Red,
                    failures: vec![AttemptLoss::Response; 2],
                }
            } else {
                ProbeFate::answered()
            }
        });
        assert_eq!(observed.color(2), Color::Red);
        assert_eq!(observed.red_count(), 1);
        assert_eq!(fates[2].attempts(), 2);
    }

    #[test]
    #[should_panic(expected = "dead but its fate claims an answer")]
    fn dead_elements_cannot_answer() {
        let truth = Coloring::all_red(2);
        let _ = observed_coloring(&truth, |_, _| ProbeFate::answered());
    }
}
