//! The concurrent workload engine: a discrete-event scheduler that
//! interleaves many simultaneous client probing sessions over simulated
//! nodes with service queues, connected through a message-level network.
//!
//! [`Cluster::probe_for_quorum`](crate::Cluster::probe_for_quorum) runs *one*
//! client at a time and charges pure network latency. This module models the
//! regime the ROADMAP targets — heavy traffic over an unreliable network —
//! where many clients probe concurrently, nodes take time to *serve* each
//! probe, and every probe is a request/response message pair that can be
//! lost or partitioned away:
//!
//! * **Arrivals** ([`ArrivalProcess`]): open-loop Poisson (sessions arrive at
//!   a fixed rate regardless of completions) or closed-loop think time (a
//!   fixed client population, each starting its next session a think time
//!   after the previous one finished).
//! * **Per-node service queues**: each delivered probe request travels one
//!   network delay, waits for the node's FIFO queue (ordered by probe-issue
//!   time), is served for a sampled service time, and travels back.
//! * **Message-level faults** ([`NetworkModel`]): either leg of a probe can
//!   be dropped by loss or a [`crate::PartitionSchedule`] window; a dropped
//!   message never arrives, so the timeout is a *client-side policy*
//!   ([`ProbePolicy`]: bounded retries with exponential backoff, hedged
//!   probes) rather than an oracle.
//! * **Load ledger** ([`LoadLedger`]): probes received, timeouts, busy time,
//!   current backlog and peak backlog per node — the signal that load-aware
//!   probe strategies consult.
//!
//! The engine knows nothing about strategies or failure models: the caller
//! supplies a `session` closure that, given the session index and the current
//! ledger, returns the plan (probe sequence, observed colors and per-attempt
//! message fates) that session will execute. `quorum-sim` builds those plans
//! by sampling a failure scenario, deciding each element's fate through the
//! network model, and running a probe strategy against the *observed*
//! coloring; the engine turns them into interleaved, queued, timed RPCs.
//! Everything is a pure function of the seed and the supplied closure, so
//! runs are bit-reproducible. The entry point is
//! [`WorkloadSpec::run`](crate::spec::WorkloadSpec::run), which takes
//! [`NetSessionPlan`]s. The paper's oracle model is the special case of a
//! [`NetworkModel::clean`] network and the [`ProbePolicy::sequential`]
//! policy: a green probe answers first try, and a red probe is one
//! unanswered request.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use quorum_analysis::{load_imbalance, wasted_work_fraction, LogHistogram};
use quorum_core::Color;
use quorum_probe::session::AttemptLoss;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::network::{NetworkModel, ProbePolicy};
use crate::{NodeId, SimTime};

/// A distribution over durations, sampled with the engine's seeded RNG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Always the same duration.
    Fixed(SimTime),
    /// Uniform over `[min, max]`.
    Uniform {
        /// Smallest possible duration.
        min: SimTime,
        /// Largest possible duration.
        max: SimTime,
    },
    /// Exponential with the given mean (memoryless service/think times).
    Exponential {
        /// The mean duration.
        mean: SimTime,
    },
    /// A heavy-tailed mixture: mostly uniform over `[min, max]`, but with
    /// probability `slow_ppm` (parts per million) an exponential straggler
    /// of mean `slow` — the tail-latency regime hedged probes target.
    HeavyTail {
        /// Smallest common-case duration.
        min: SimTime,
        /// Largest common-case duration.
        max: SimTime,
        /// Mean of the straggler tail.
        slow: SimTime,
        /// Straggler probability, in parts per million.
        slow_ppm: u32,
    },
}

impl Distribution {
    /// A fixed duration.
    pub fn fixed(value: SimTime) -> Self {
        Distribution::Fixed(value)
    }

    /// Uniform over `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn uniform(min: SimTime, max: SimTime) -> Self {
        assert!(min <= max, "uniform distribution needs min <= max");
        Distribution::Uniform { min, max }
    }

    /// Exponential with the given mean.
    pub fn exponential(mean: SimTime) -> Self {
        Distribution::Exponential { mean }
    }

    /// The heavy-tailed mixture: uniform `[min, max]` with an exponential
    /// straggler of mean `slow` at probability `slow_ppm`/1e6.
    ///
    /// # Panics
    ///
    /// Panics if `min > max` or `slow_ppm > 1_000_000`.
    pub fn heavy_tail(min: SimTime, max: SimTime, slow: SimTime, slow_ppm: u32) -> Self {
        assert!(min <= max, "heavy-tail body needs min <= max");
        assert!(slow_ppm <= 1_000_000, "slow_ppm is parts per million");
        Distribution::HeavyTail {
            min,
            max,
            slow,
            slow_ppm,
        }
    }

    /// The mean duration.
    pub fn mean(&self) -> SimTime {
        match self {
            Distribution::Fixed(value) => *value,
            Distribution::Uniform { min, max } => {
                SimTime::from_micros((min.as_micros() + max.as_micros()) / 2)
            }
            Distribution::Exponential { mean } => *mean,
            Distribution::HeavyTail {
                min,
                max,
                slow,
                slow_ppm,
            } => {
                let body = (min.as_micros() + max.as_micros()) / 2;
                let ppm = u64::from(*slow_ppm);
                SimTime::from_micros(
                    (body * (1_000_000 - ppm) + slow.as_micros() * ppm) / 1_000_000,
                )
            }
        }
    }

    /// Draws one duration.
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> SimTime {
        match self {
            Distribution::Fixed(value) => *value,
            Distribution::Uniform { min, max } => {
                let (lo, hi) = (min.as_micros(), max.as_micros());
                if hi > lo {
                    SimTime::from_micros(rng.gen_range(lo..=hi))
                } else {
                    *min
                }
            }
            Distribution::Exponential { mean } => {
                // Inverse CDF on a 53-bit uniform in [0, 1); `1 - u` keeps the
                // argument of `ln` strictly positive.
                let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                let draw = -(mean.as_micros() as f64) * (1.0 - u).ln();
                SimTime::from_micros(draw.round() as u64)
            }
            Distribution::HeavyTail {
                min,
                max,
                slow,
                slow_ppm,
            } => {
                if rng.gen_range(0u32..1_000_000) < *slow_ppm {
                    Distribution::Exponential { mean: *slow }.sample(rng)
                } else {
                    Distribution::Uniform {
                        min: *min,
                        max: *max,
                    }
                    .sample(rng)
                }
            }
        }
    }
}

/// How client sessions arrive at the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Open loop: inter-arrival times are drawn from an exponential with the
    /// given mean, independent of completions (a Poisson process). Offered
    /// load does not back off when the system slows down.
    OpenPoisson {
        /// Mean time between session arrivals.
        mean_interarrival: SimTime,
    },
    /// Closed loop: a fixed population of clients; each client starts its
    /// next session one think time after its previous session completed.
    /// Offered load is self-limiting — at most `clients` sessions in flight.
    ClosedLoop {
        /// Number of concurrent clients.
        clients: usize,
        /// Think time between a completion and the client's next session.
        think: Distribution,
    },
}

impl ArrivalProcess {
    /// A short label used in report rows.
    pub fn label(&self) -> String {
        match self {
            ArrivalProcess::OpenPoisson { mean_interarrival } => {
                format!("open-poisson({mean_interarrival})")
            }
            ArrivalProcess::ClosedLoop { clients, think } => {
                format!("closed({clients} clients,think={})", think.mean())
            }
        }
    }
}

/// Configuration of one workload run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// How sessions arrive.
    pub arrival: ArrivalProcess,
    /// Total number of sessions to run.
    pub sessions: usize,
    /// One-way network delay of a probe request (and of its response).
    pub rpc_latency: Distribution,
    /// Service time of one probe at a live node.
    pub service: Distribution,
    /// How long a client waits for a probe answer before the attempt is
    /// written off (a timed-out or unreachable attempt costs this much).
    pub probe_timeout: SimTime,
}

impl WorkloadConfig {
    /// Whether the configuration is consistent: at least one session, a
    /// positive timeout, and a closed loop with at least one client.
    pub fn is_valid(&self) -> bool {
        let arrival_ok = match self.arrival {
            ArrivalProcess::OpenPoisson { .. } => true,
            ArrivalProcess::ClosedLoop { clients, .. } => clients >= 1,
        };
        self.sessions >= 1 && self.probe_timeout > SimTime::ZERO && arrival_ok
    }

    /// A rough estimate of the run's virtual-time horizon, used to place
    /// partition windows relative to the run (not a guarantee — queueing can
    /// stretch the actual run past it).
    pub fn horizon_hint(&self) -> SimTime {
        match self.arrival {
            ArrivalProcess::OpenPoisson { mean_interarrival } => {
                mean_interarrival.saturating_mul(self.sessions as u64)
            }
            ArrivalProcess::ClosedLoop { clients, think } => {
                let per_session = think.mean()
                    + self.service.mean().saturating_mul(4)
                    + self.rpc_latency.mean().saturating_mul(2);
                per_session.saturating_mul(self.sessions.div_ceil(clients.max(1)) as u64)
            }
        }
    }
}

/// Per-node load bookkeeping, updated as the engine issues probe RPCs.
#[derive(Debug, Clone)]
pub struct LoadLedger {
    probes: Vec<u64>,
    timeouts: Vec<u64>,
    busy: Vec<SimTime>,
    /// Outstanding service completion times per node, in FIFO order.
    outstanding: Vec<VecDeque<SimTime>>,
    peak_backlog: Vec<usize>,
}

impl LoadLedger {
    fn new(n: usize) -> Self {
        LoadLedger {
            probes: vec![0; n],
            timeouts: vec![0; n],
            busy: vec![SimTime::ZERO; n],
            outstanding: vec![VecDeque::new(); n],
            peak_backlog: vec![0; n],
        }
    }

    /// Number of nodes tracked.
    pub fn len(&self) -> usize {
        self.probes.len()
    }

    /// Whether the ledger tracks no nodes.
    pub fn is_empty(&self) -> bool {
        self.probes.is_empty()
    }

    /// Probes received per node so far (timeouts included).
    pub fn probes_received(&self) -> &[u64] {
        &self.probes
    }

    /// Timed-out probes per node so far.
    pub fn timeouts(&self) -> &[u64] {
        &self.timeouts
    }

    /// Cumulative service time of node `node`.
    pub fn busy_time(&self, node: NodeId) -> SimTime {
        self.busy[node]
    }

    /// The peak backlog (requests queued or in service) node `node` reached.
    pub fn peak_backlog(&self, node: NodeId) -> usize {
        self.peak_backlog[node]
    }

    /// Requests queued or in service at `node` as of `now`.
    pub fn backlog(&self, node: NodeId, now: SimTime) -> usize {
        self.outstanding[node]
            .iter()
            .filter(|&&finish| finish > now)
            .count()
    }

    /// A single load score for `node` as of `now`: the current backlog in the
    /// high bits (the hot, instantaneous signal) with cumulative probes as
    /// the low-order tie-break, so idle nodes order by long-run fairness.
    pub fn score(&self, node: NodeId, now: SimTime) -> u64 {
        ((self.backlog(node, now) as u64) << 32) | self.probes[node].min(u32::MAX as u64)
    }

    /// The load-imbalance factor (max/mean) of cumulative probes per node.
    pub fn imbalance(&self) -> f64 {
        load_imbalance(&self.probes)
    }

    /// Drops completed requests (finish `<= now`) from a node's queue; the
    /// queue is FIFO in finish time, so this is a pop-front loop.
    fn prune(&mut self, node: NodeId, now: SimTime) {
        while self.outstanding[node].front().is_some_and(|&f| f <= now) {
            self.outstanding[node].pop_front();
        }
    }
}

/// One probe of a message-level session plan: the element, the color the
/// client ends up recording, and the transit fate of each failed attempt.
#[derive(Debug, Clone)]
pub struct NetProbe {
    /// The element (node) probed.
    pub node: NodeId,
    /// The color the client records once its attempts are exhausted or
    /// answered.
    pub observed: Color,
    /// The failed attempts, in order ([`AttemptLoss::Request`] legs cost a
    /// timeout; [`AttemptLoss::Response`] legs additionally make the node do
    /// wasted work; [`AttemptLoss::Crash`] legs deliver into a dying node
    /// that drops the work unserved). A green observation answers on the
    /// attempt after these. A red observation with *no* entries is a *shed*
    /// probe (see `quorum_probe::health`): the client declined to send, so
    /// it costs no attempts, no messages and no time.
    pub failures: Vec<AttemptLoss>,
}

/// What one client session will do under the message-level engine.
#[derive(Debug, Clone)]
pub struct NetSessionPlan {
    /// The probes, in the order the strategy issued them.
    pub probes: Vec<NetProbe>,
    /// Whether the session located a live quorum *in its observed coloring*.
    pub success: bool,
}

/// The measured outcome of one workload run.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Sessions completed (always equals the configured count).
    pub sessions: usize,
    /// Sessions that located a live quorum.
    pub successes: usize,
    /// Total probe RPCs issued (timeouts and retries included).
    pub probes: u64,
    /// Virtual time of the last session completion.
    pub duration: SimTime,
    /// Session latency histogram, in microseconds of virtual time.
    pub latency: LogHistogram,
    /// The final load ledger.
    pub ledger: LoadLedger,
    /// Messages actually transmitted (requests sent plus responses sent,
    /// whether or not they were delivered).
    pub messages: u64,
    /// Probe attempts whose answer was never used: lost/timed-out attempts
    /// that a retry or red observation wrote off.
    pub wasted_probes: u64,
    /// Probes launched early by the hedging policy.
    pub hedges: u64,
    /// Hedge races where the slower of the two overlapped probes was
    /// cancelled in the ledger (its answer no longer gated the session).
    pub cancelled: u64,
    /// Requests delivered into crashed nodes and dropped unserved
    /// ([`AttemptLoss::Crash`] fates) — the sim-side counterpart of the live
    /// runtime's `requests_lost_to_crash`.
    pub lost_to_crash: u64,
}

impl WorkloadReport {
    /// Completed sessions per second of virtual time.
    pub fn throughput_per_sec(&self) -> f64 {
        if self.duration == SimTime::ZERO {
            0.0
        } else {
            self.sessions as f64 / (self.duration.as_micros() as f64 / 1e6)
        }
    }

    /// Fraction of sessions that found a live quorum.
    pub fn success_rate(&self) -> f64 {
        if self.sessions == 0 {
            0.0
        } else {
            self.successes as f64 / self.sessions as f64
        }
    }

    /// Mean probes per session.
    pub fn probes_per_session(&self) -> f64 {
        if self.sessions == 0 {
            0.0
        } else {
            self.probes as f64 / self.sessions as f64
        }
    }

    /// Mean messages per session.
    pub fn messages_per_session(&self) -> f64 {
        if self.sessions == 0 {
            0.0
        } else {
            self.messages as f64 / self.sessions as f64
        }
    }

    /// Fraction of probe attempts whose answer was never used.
    pub fn wasted_fraction(&self) -> f64 {
        wasted_work_fraction(self.wasted_probes, self.probes)
    }

    /// The load-imbalance factor (max/mean probes per node).
    pub fn load_imbalance(&self) -> f64 {
        self.ledger.imbalance()
    }
}

/// One scheduled event. Ordered by `(time, seq)`: `seq` is a global issue
/// counter, so simultaneous events fire in the deterministic order they were
/// scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// A new session arrives (index into the session count).
    Arrival(u64),
    /// Probe `1` of session slot `0` resolves at the client: its answer
    /// arrived, or its last attempt timed out.
    Resolved(usize, usize),
    /// The hedging delay of probe `1` in session slot `0` elapsed without a
    /// resolution: consider launching the next candidate.
    HedgeDue(usize, usize),
}

/// The event queue: min-ordered on `(time, schedule counter, kind)`.
type EventHeap = BinaryHeap<Reverse<(SimTime, u64, EventKind)>>;

#[derive(Debug)]
struct ActiveSession {
    probes: Vec<NetProbe>,
    success: bool,
    resolved: Vec<bool>,
    next_issue: usize,
    in_flight: usize,
    done: usize,
    started: SimTime,
    /// Whether a hedge-launched pair is currently racing; cleared (and
    /// counted as one cancellation) when the race's first probe resolves.
    hedge_race: bool,
}

/// Mutable engine counters shared by the pricing helpers.
struct EngineState {
    ledger: LoadLedger,
    probes_total: u64,
    messages: u64,
    wasted: u64,
    hedges: u64,
    cancelled: u64,
    lost_to_crash: u64,
}

impl EngineState {
    /// Queues one delivered request at `node` (arriving at `request_at`) and
    /// returns its service-finish instant.
    fn serve(&mut self, node: NodeId, request_at: SimTime, service: SimTime) -> SimTime {
        self.ledger.prune(node, request_at);
        // The queue is FIFO in probe-*issue* order (the order the pricing
        // code runs), not request-arrival order: a request issued earlier but
        // with a longer network delay is still served first. The modelling
        // simplification keeps each probe's full timeline computable at issue
        // time.
        let queue_free = self.ledger.outstanding[node]
            .back()
            .copied()
            .unwrap_or(request_at)
            .max(request_at);
        let finish = queue_free + service;
        self.ledger.busy[node] += service;
        self.ledger.outstanding[node].push_back(finish);
        let depth = self.ledger.outstanding[node].len();
        if depth > self.ledger.peak_backlog[node] {
            self.ledger.peak_backlog[node] = depth;
        }
        finish
    }

    /// Prices one probe issued at `now`, returning the instant it resolves
    /// at the client. Failed attempts cost the timeout (plus backoff);
    /// attempts whose response leg was dropped additionally make the node do
    /// the work. The answering attempt of a green observation goes through
    /// the delay → queue → service → delay pipeline.
    fn price_probe(
        &mut self,
        probe: &NetProbe,
        now: SimTime,
        config: &WorkloadConfig,
        delay: &Distribution,
        policy: &ProbePolicy,
        rng: &mut StdRng,
    ) -> SimTime {
        let node = probe.node;
        let mut send_at = now;
        let mut last_failure = now;
        for (attempt, loss) in probe.failures.iter().enumerate() {
            self.ledger.probes[node] += 1;
            self.ledger.timeouts[node] += 1;
            self.probes_total += 1;
            self.messages += 1; // the request was transmitted
            if crate::spec::attempt_is_wasted(probe.observed, attempt, &probe.failures) {
                self.wasted += 1;
            }
            if *loss == AttemptLoss::Response {
                // Delivered and served; only the answer was dropped.
                let request_at = send_at + delay.sample(rng);
                let service = config.service.sample(rng);
                self.serve(node, request_at, service);
                self.messages += 1; // the response was transmitted, then lost
            }
            if *loss == AttemptLoss::Crash {
                // Delivered into a crashing node: the queued work is dropped
                // unserved — no response message, no service time, but the
                // loss is accounted so `delivered == served + lost_to_crash`
                // can be cross-validated against the live runtime.
                self.lost_to_crash += 1;
            }
            last_failure = send_at + config.probe_timeout;
            send_at = last_failure + policy.backoff_before(attempt as u32);
        }
        match probe.observed {
            Color::Green => {
                self.ledger.probes[node] += 1;
                self.probes_total += 1;
                self.messages += 1;
                let request_at = send_at + delay.sample(rng);
                let service = config.service.sample(rng);
                let finish = self.serve(node, request_at, service);
                self.messages += 1;
                finish + delay.sample(rng)
            }
            Color::Red => {
                // A red observation with no failures is a *shed* probe: the
                // health layer declined to send, so it resolves immediately
                // (`last_failure` is still `now`) at zero cost.
                last_failure
            }
        }
    }
}

/// The discrete-event engine behind every backend: prices each session plan
/// in virtual time under `network` and `policy`, with all randomness drawn
/// from one `StdRng` seeded with `seed` — the report is a pure function of
/// `(n, config, network, policy, seed, session)`.
pub(crate) fn run_net_engine<F>(
    n: usize,
    config: &WorkloadConfig,
    network: &NetworkModel,
    policy: &ProbePolicy,
    seed: u64,
    mut session: F,
) -> WorkloadReport
where
    F: FnMut(u64, &LoadLedger, SimTime, &mut StdRng) -> NetSessionPlan,
{
    assert!(config.is_valid(), "inconsistent workload configuration");
    let delay = network.delay.unwrap_or(config.rpc_latency);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = EngineState {
        ledger: LoadLedger::new(n),
        probes_total: 0,
        messages: 0,
        wasted: 0,
        hedges: 0,
        cancelled: 0,
        lost_to_crash: 0,
    };
    let mut latency = LogHistogram::new();
    let mut heap: EventHeap = BinaryHeap::new();
    let mut seq = 0u64;
    let mut schedule = |heap: &mut EventHeap, at: SimTime, kind: EventKind| {
        heap.push(Reverse((at, seq, kind)));
        seq += 1;
    };

    // Seed the arrival stream.
    let total_sessions = config.sessions as u64;
    let mut sessions_issued: u64;
    match config.arrival {
        ArrivalProcess::OpenPoisson { mean_interarrival } => {
            let first = Distribution::exponential(mean_interarrival).sample(&mut rng);
            schedule(&mut heap, first, EventKind::Arrival(0));
            sessions_issued = 1;
        }
        ArrivalProcess::ClosedLoop { clients, think } => {
            sessions_issued = (clients as u64).min(total_sessions);
            for client in 0..sessions_issued {
                let at = think.sample(&mut rng);
                schedule(&mut heap, at, EventKind::Arrival(client));
            }
        }
    }

    let mut active: Vec<ActiveSession> = Vec::new();
    let mut completed = 0usize;
    let mut successes = 0usize;
    let mut last_completion = SimTime::ZERO;

    // Issues probe `index` of session `slot` at `now`: prices it, schedules
    // its resolution and (when hedging) its hedge timer.
    let issue = |slot: usize,
                 index: usize,
                 now: SimTime,
                 active: &mut Vec<ActiveSession>,
                 heap: &mut EventHeap,
                 state: &mut EngineState,
                 rng: &mut StdRng,
                 schedule: &mut dyn FnMut(&mut EventHeap, SimTime, EventKind)| {
        let resolve_at = state.price_probe(
            &active[slot].probes[index],
            now,
            config,
            &delay,
            policy,
            rng,
        );
        active[slot].next_issue = index + 1;
        active[slot].in_flight += 1;
        schedule(heap, resolve_at, EventKind::Resolved(slot, index));
        if let Some(hedge) = policy.hedge {
            // Only meaningful if the probe is still unresolved at the timer
            // and a next candidate exists.
            if resolve_at > now + hedge && index + 1 < active[slot].probes.len() {
                schedule(heap, now + hedge, EventKind::HedgeDue(slot, index));
            }
        }
    };

    while let Some(Reverse((now, _, kind))) = heap.pop() {
        match kind {
            EventKind::Arrival(session_index) => {
                // Open-loop arrivals breed the next arrival immediately, so
                // the offered rate never reacts to completions.
                if let ArrivalProcess::OpenPoisson { mean_interarrival } = config.arrival {
                    if sessions_issued < total_sessions {
                        let gap = Distribution::exponential(mean_interarrival).sample(&mut rng);
                        schedule(&mut heap, now + gap, EventKind::Arrival(sessions_issued));
                        sessions_issued += 1;
                    }
                }
                let plan = session(session_index, &state.ledger, now, &mut rng);
                if plan.probes.is_empty() {
                    // A zero-probe session (degenerate but legal): completes
                    // instantly.
                    completed += 1;
                    successes += usize::from(plan.success);
                    latency.record(0);
                    last_completion = last_completion.max(now);
                    if let ArrivalProcess::ClosedLoop { think, .. } = config.arrival {
                        if sessions_issued < total_sessions {
                            let gap = think.sample(&mut rng);
                            schedule(&mut heap, now + gap, EventKind::Arrival(sessions_issued));
                            sessions_issued += 1;
                        }
                    }
                    continue;
                }
                let count = plan.probes.len();
                active.push(ActiveSession {
                    probes: plan.probes,
                    success: plan.success,
                    resolved: vec![false; count],
                    next_issue: 0,
                    in_flight: 0,
                    done: 0,
                    started: now,
                    hedge_race: false,
                });
                let slot = active.len() - 1;
                issue(
                    slot,
                    0,
                    now,
                    &mut active,
                    &mut heap,
                    &mut state,
                    &mut rng,
                    &mut schedule,
                );
            }
            EventKind::Resolved(slot, index) => {
                // A hedge race ends the moment the faster of its two probes
                // resolves: the one still in flight is cancelled in the
                // ledger. Counted once per race (a pipeline that keeps
                // running past a stalled probe is not a new race), so
                // `cancelled <= hedges` always holds.
                if active[slot].hedge_race && active[slot].in_flight == 2 {
                    state.cancelled += 1;
                    active[slot].hedge_race = false;
                }
                active[slot].resolved[index] = true;
                active[slot].done += 1;
                active[slot].in_flight -= 1;
                if active[slot].next_issue == index + 1
                    && active[slot].next_issue < active[slot].probes.len()
                {
                    let next = active[slot].next_issue;
                    issue(
                        slot,
                        next,
                        now,
                        &mut active,
                        &mut heap,
                        &mut state,
                        &mut rng,
                        &mut schedule,
                    );
                    continue;
                }
                if active[slot].done == active[slot].probes.len() {
                    // Session complete. Drop the plan's buffers so memory
                    // stays proportional to in-flight sessions, not total
                    // sessions.
                    let session = &mut active[slot];
                    latency.record((now - session.started).as_micros());
                    completed += 1;
                    successes += usize::from(session.success);
                    session.probes = Vec::new();
                    session.resolved = Vec::new();
                    last_completion = last_completion.max(now);
                    if let ArrivalProcess::ClosedLoop { think, .. } = config.arrival {
                        if sessions_issued < total_sessions {
                            let gap = think.sample(&mut rng);
                            schedule(&mut heap, now + gap, EventKind::Arrival(sessions_issued));
                            sessions_issued += 1;
                        }
                    }
                }
            }
            EventKind::HedgeDue(slot, index) => {
                // Launch the next candidate only if the hedged probe is
                // still unresolved, its successor has not been issued some
                // other way, and the two-in-flight cap leaves room.
                let launch = !active[slot].probes.is_empty()
                    && !active[slot].resolved[index]
                    && active[slot].next_issue == index + 1
                    && active[slot].next_issue < active[slot].probes.len()
                    && active[slot].in_flight < 2;
                if launch {
                    state.hedges += 1;
                    active[slot].hedge_race = true;
                    let next = active[slot].next_issue;
                    issue(
                        slot,
                        next,
                        now,
                        &mut active,
                        &mut heap,
                        &mut state,
                        &mut rng,
                        &mut schedule,
                    );
                }
            }
        }
    }

    debug_assert_eq!(completed, config.sessions, "every session must complete");
    WorkloadReport {
        sessions: completed,
        successes,
        probes: state.probes_total,
        duration: last_completion,
        latency,
        ledger: state.ledger,
        messages: state.messages,
        wasted_probes: state.wasted,
        hedges: state.hedges,
        cancelled: state.cancelled,
        lost_to_crash: state.lost_to_crash,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::PartitionSchedule;
    use crate::spec::WorkloadSpec;
    use quorum_core::{Coloring, QuorumSystem};
    use quorum_probe::run_strategy;
    use quorum_probe::strategies::SequentialScan;
    use quorum_systems::Majority;

    fn lan_config(arrival: ArrivalProcess, sessions: usize) -> WorkloadConfig {
        WorkloadConfig {
            arrival,
            sessions,
            rpc_latency: Distribution::uniform(
                SimTime::from_micros(100),
                SimTime::from_micros(400),
            ),
            service: Distribution::exponential(SimTime::from_micros(200)),
            probe_timeout: SimTime::from_millis(10),
        }
    }

    /// The oracle-model plan of a sequential scan over Maj(n) on `coloring`:
    /// green probes answer first try, red probes are one lost request.
    fn maj_plan(maj: &Majority, coloring: &Coloring, session: u64) -> NetSessionPlan {
        let mut rng = StdRng::seed_from_u64(session);
        let run = run_strategy(maj, &SequentialScan::new(), coloring, &mut rng);
        NetSessionPlan {
            probes: run
                .sequence
                .iter()
                .map(|&node| {
                    let observed = coloring.color(node);
                    NetProbe {
                        node,
                        observed,
                        failures: match observed {
                            Color::Green => Vec::new(),
                            Color::Red => vec![AttemptLoss::Request],
                        },
                    }
                })
                .collect(),
            success: run.witness.is_green(),
        }
    }

    /// A session closure probing a Majority system on an all-green universe.
    fn maj_sessions(
        n: usize,
    ) -> impl FnMut(u64, &LoadLedger, SimTime, &mut StdRng) -> NetSessionPlan {
        let maj = Majority::new(n).unwrap();
        let coloring = Coloring::all_green(maj.universe_size());
        move |session, _ledger, _now, _rng| maj_plan(&maj, &coloring, session)
    }

    #[test]
    fn open_loop_runs_every_session() {
        let n = 7;
        let config = lan_config(
            ArrivalProcess::OpenPoisson {
                mean_interarrival: SimTime::from_micros(500),
            },
            200,
        );
        let report = WorkloadSpec::new(n)
            .config(config)
            .run(1, maj_sessions(n))
            .report;
        assert_eq!(report.sessions, 200);
        assert_eq!(report.successes, 200);
        // Sequential scan on all-green Maj(7) always probes 4 elements.
        assert_eq!(report.probes, 800);
        assert!((report.probes_per_session() - 4.0).abs() < 1e-12);
        assert!(report.duration > SimTime::ZERO);
        assert!(report.throughput_per_sec() > 0.0);
        assert_eq!(report.latency.count(), 200);
        assert!(report.latency.p50().unwrap() <= report.latency.p99().unwrap());
        // Sequential scans hammer the prefix: elements 0..=3 carry all load.
        assert_eq!(report.ledger.probes_received()[0], 200);
        assert_eq!(report.ledger.probes_received()[5], 0);
        assert!(report.load_imbalance() > 1.5);
        // On a clean network every probe is one request + one response and
        // nothing is wasted, hedged or cancelled.
        assert_eq!(report.messages, 2 * report.probes);
        assert_eq!(report.wasted_probes, 0);
        assert_eq!(report.hedges, 0);
        assert_eq!(report.cancelled, 0);
        assert_eq!(report.wasted_fraction(), 0.0);
        assert!((report.messages_per_session() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn closed_loop_bounds_in_flight_sessions() {
        let n = 5;
        let clients = 3usize;
        let config = lan_config(
            ArrivalProcess::ClosedLoop {
                clients,
                think: Distribution::fixed(SimTime::from_micros(50)),
            },
            60,
        );
        let report = WorkloadSpec::new(n)
            .config(config)
            .run(2, maj_sessions(n))
            .report;
        assert_eq!(report.sessions, 60);
        // At most `clients` sessions in flight ⇒ a node's backlog can never
        // exceed the client population.
        for node in 0..n {
            assert!(
                report.ledger.peak_backlog(node) <= clients,
                "node {node} backlog {} exceeds {clients} clients",
                report.ledger.peak_backlog(node)
            );
        }
    }

    #[test]
    fn runs_are_seed_deterministic() {
        let n = 7;
        let config = lan_config(
            ArrivalProcess::OpenPoisson {
                mean_interarrival: SimTime::from_micros(300),
            },
            100,
        );
        let a = WorkloadSpec::new(n)
            .config(config)
            .run(9, maj_sessions(n))
            .report;
        let b = WorkloadSpec::new(n)
            .config(config)
            .run(9, maj_sessions(n))
            .report;
        assert_eq!(a.duration, b.duration);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.ledger.probes_received(), b.ledger.probes_received());
        let c = WorkloadSpec::new(n)
            .config(config)
            .run(10, maj_sessions(n))
            .report;
        assert_ne!(a.duration, c.duration, "a different seed must differ");
    }

    #[test]
    fn contention_inflates_latency() {
        let n = 7;
        // Same total work, but arrivals 100x denser: queues must form and
        // the p99 latency must exceed the uncontended run's.
        let relaxed = lan_config(
            ArrivalProcess::OpenPoisson {
                mean_interarrival: SimTime::from_millis(50),
            },
            150,
        );
        let slammed = lan_config(
            ArrivalProcess::OpenPoisson {
                mean_interarrival: SimTime::from_micros(50),
            },
            150,
        );
        let calm = WorkloadSpec::new(n)
            .config(relaxed)
            .run(3, maj_sessions(n))
            .report;
        let hot = WorkloadSpec::new(n)
            .config(slammed)
            .run(3, maj_sessions(n))
            .report;
        let hot_p99 = hot.latency.p99().unwrap();
        let calm_p99 = calm.latency.p99().unwrap();
        assert!(
            hot_p99 > calm_p99,
            "queueing must show up in the tail: hot {hot_p99} vs calm {calm_p99}"
        );
        let busiest = (0..n).map(|e| hot.ledger.peak_backlog(e)).max().unwrap();
        assert!(busiest > 1, "dense arrivals must queue somewhere");
    }

    #[test]
    fn timeouts_are_charged_and_recorded() {
        let n = 5;
        let maj = Majority::new(n).unwrap();
        let config = lan_config(
            ArrivalProcess::OpenPoisson {
                mean_interarrival: SimTime::from_millis(1),
            },
            20,
        );
        // Element 0 is crashed in every session's view.
        let coloring = Coloring::from_fn(n, |e| if e == 0 { Color::Red } else { Color::Green });
        let report = WorkloadSpec::new(n)
            .config(config)
            .run(4, |session, _ledger, _now, _rng| {
                maj_plan(&maj, &coloring, session)
            })
            .report;
        assert_eq!(report.sessions, 20);
        assert_eq!(report.successes, 20);
        assert_eq!(report.ledger.timeouts()[0], 20);
        assert_eq!(report.ledger.timeouts()[1], 0);
        // Every session eats one 10ms timeout, so no latency can be below it.
        assert!(report.latency.min() >= SimTime::from_millis(10).as_micros());
        // A single timed-out attempt IS the red observation — not waste.
        assert_eq!(report.wasted_probes, 0);
        assert_eq!(report.wasted_fraction(), 0.0);
    }

    #[test]
    fn ledger_scores_expose_backlog_and_history() {
        let mut ledger = LoadLedger::new(2);
        ledger.probes[0] = 10;
        ledger.outstanding[1].push_back(SimTime::from_millis(5));
        let now = SimTime::from_millis(1);
        assert_eq!(ledger.backlog(0, now), 0);
        assert_eq!(ledger.backlog(1, now), 1);
        assert!(ledger.score(1, now) > ledger.score(0, now));
        // Once the request finishes, history decides.
        let later = SimTime::from_millis(6);
        assert!(ledger.score(0, later) > ledger.score(1, later));
        assert_eq!(ledger.len(), 2);
        assert!(!ledger.is_empty());
    }

    #[test]
    fn distributions_sample_sane_values() {
        let mut rng = StdRng::seed_from_u64(5);
        let fixed = Distribution::fixed(SimTime::from_micros(7));
        assert_eq!(fixed.sample(&mut rng), SimTime::from_micros(7));
        assert_eq!(fixed.mean(), SimTime::from_micros(7));
        let uniform = Distribution::uniform(SimTime::from_micros(10), SimTime::from_micros(20));
        for _ in 0..100 {
            let v = uniform.sample(&mut rng).as_micros();
            assert!((10..=20).contains(&v));
        }
        let expo = Distribution::exponential(SimTime::from_micros(1_000));
        let mean: f64 = (0..4_000)
            .map(|_| expo.sample(&mut rng).as_micros() as f64)
            .sum::<f64>()
            / 4_000.0;
        assert!((mean - 1_000.0).abs() < 100.0, "exponential mean {mean}");
    }

    #[test]
    fn heavy_tail_mixes_body_and_stragglers() {
        let mut rng = StdRng::seed_from_u64(6);
        let dist = Distribution::heavy_tail(
            SimTime::from_micros(100),
            SimTime::from_micros(200),
            SimTime::from_millis(50),
            100_000, // 10 % stragglers
        );
        // Mean: 0.9·150us + 0.1·50ms = 5.135ms.
        assert_eq!(dist.mean(), SimTime::from_micros(5_135));
        let mut body = 0usize;
        let mut tail = 0usize;
        for _ in 0..4_000 {
            let v = dist.sample(&mut rng).as_micros();
            if (100..=200).contains(&v) {
                body += 1;
            } else {
                tail += 1;
            }
        }
        let tail_rate = tail as f64 / (body + tail) as f64;
        assert!(
            (tail_rate - 0.1).abs() < 0.03,
            "straggler rate {tail_rate} should be ≈ 0.1"
        );
    }

    /// Retried attempts charge timeouts and backoff; response-lost attempts
    /// also make the node do wasted work.
    #[test]
    fn retries_and_lost_responses_are_priced() {
        let n = 3;
        let config = lan_config(
            ArrivalProcess::OpenPoisson {
                mean_interarrival: SimTime::from_millis(1),
            },
            10,
        );
        let policy = ProbePolicy::retry(3, SimTime::from_micros(500));
        let report = WorkloadSpec::new(n)
            .config(config)
            .network(NetworkModel::clean())
            .policy(policy)
            .run(13, |_index, _ledger, _now, _rng| NetSessionPlan {
                probes: vec![NetProbe {
                    node: 0,
                    observed: Color::Green,
                    failures: vec![AttemptLoss::Request, AttemptLoss::Response],
                }],
                success: true,
            })
            .report;
        assert_eq!(report.sessions, 10);
        // 3 attempts per session: 2 failed + 1 answered.
        assert_eq!(report.probes, 30);
        assert_eq!(report.wasted_probes, 20);
        assert_eq!(report.ledger.timeouts()[0], 20);
        // Messages: attempt 1 request; attempt 2 request + lost response;
        // attempt 3 request + response = 5 per session.
        assert_eq!(report.messages, 50);
        // Each session pays two timeouts plus backoff 500us + 1000us before
        // the answering attempt even starts.
        let floor = 2 * config.probe_timeout.as_micros() + 1_500;
        assert!(
            report.latency.min() >= floor,
            "latency {} below the retry floor {floor}",
            report.latency.min()
        );
        assert!(report.wasted_fraction() > 0.6 && report.wasted_fraction() < 0.7);
    }

    /// Hedging overlaps a stalled probe with its successor: the tail of the
    /// latency distribution shrinks, the observations are unchanged, and the
    /// race's loser is counted.
    #[test]
    fn hedging_overlaps_stalled_probes() {
        let n = 5;
        let config = lan_config(
            ArrivalProcess::OpenPoisson {
                mean_interarrival: SimTime::from_millis(2),
            },
            50,
        );
        // Every session: a dead element (10ms timeout) then three greens.
        let plan = || NetSessionPlan {
            probes: vec![
                NetProbe {
                    node: 0,
                    observed: Color::Red,
                    failures: vec![AttemptLoss::Request],
                },
                NetProbe {
                    node: 1,
                    observed: Color::Green,
                    failures: vec![],
                },
                NetProbe {
                    node: 2,
                    observed: Color::Green,
                    failures: vec![],
                },
                NetProbe {
                    node: 3,
                    observed: Color::Green,
                    failures: vec![],
                },
            ],
            success: true,
        };
        let sequential = WorkloadSpec::new(n)
            .config(config)
            .network(NetworkModel::clean())
            .policy(ProbePolicy::sequential())
            .run(17, |_, _, _, _| plan())
            .report;
        let hedged_policy = ProbePolicy::sequential().with_hedge(SimTime::from_millis(1));
        let hedged = WorkloadSpec::new(n)
            .config(config)
            .network(NetworkModel::clean())
            .policy(hedged_policy)
            .run(17, |_, _, _, _| plan())
            .report;
        assert_eq!(hedged.successes, sequential.successes, "ok-rate unchanged");
        assert_eq!(hedged.probes, sequential.probes, "same observations");
        // Each session hedges exactly once (past the stalled red probe),
        // and each race has exactly one loser: the pipeline continuing past
        // the stall must not be re-counted as further cancellations.
        assert_eq!(hedged.hedges, 50, "one hedge per session");
        assert_eq!(hedged.cancelled, 50, "one loser per race");
        assert!(hedged.cancelled <= hedged.hedges);
        let hedged_p50 = hedged.latency.p50().unwrap();
        let sequential_p50 = sequential.latency.p50().unwrap();
        assert!(
            hedged_p50 < sequential_p50,
            "hedging must shrink the stall: {hedged_p50} vs {sequential_p50}"
        );
    }

    /// A partitioned minority makes its nodes look dead for the window, and
    /// healing restores them — measured end to end through fates.
    #[test]
    fn partition_fates_flow_through_the_engine() {
        let n = 4;
        let config = lan_config(
            ArrivalProcess::OpenPoisson {
                mean_interarrival: SimTime::from_millis(1),
            },
            40,
        );
        let network = NetworkModel {
            partitions: PartitionSchedule::minority(
                vec![0],
                SimTime::ZERO,
                SimTime::from_millis(15),
            ),
            ..NetworkModel::clean()
        };
        let policy = ProbePolicy::sequential();
        let report = WorkloadSpec::new(n)
            .config(config)
            .network(network.clone())
            .policy(policy)
            .run(19, |_, _, now, rng| {
                let fate = network.probe_fate(0, true, now, &policy, rng);
                NetSessionPlan {
                    probes: vec![NetProbe {
                        node: 0,
                        observed: fate.observed,
                        failures: fate.failures,
                    }],
                    success: fate.observed == Color::Green,
                }
            })
            .report;
        assert_eq!(report.sessions, 40);
        assert!(
            report.successes > 0 && report.successes < 40,
            "sessions inside the window fail, sessions after it succeed: {}",
            report.successes
        );
        assert_eq!(
            (40 - report.successes) as u64,
            report.ledger.timeouts()[0],
            "each partitioned session times out once"
        );
    }

    #[test]
    #[should_panic(expected = "inconsistent workload configuration")]
    fn invalid_config_is_rejected() {
        let config = WorkloadConfig {
            arrival: ArrivalProcess::ClosedLoop {
                clients: 0,
                think: Distribution::fixed(SimTime::ZERO),
            },
            sessions: 10,
            rpc_latency: Distribution::fixed(SimTime::from_micros(100)),
            service: Distribution::fixed(SimTime::from_micros(100)),
            probe_timeout: SimTime::from_millis(1),
        };
        let _ = WorkloadSpec::new(3)
            .config(config)
            .run(0, |_, _, _, _| NetSessionPlan {
                probes: vec![],
                success: false,
            });
    }

    #[test]
    fn horizon_hint_tracks_the_arrival_model() {
        let open = lan_config(
            ArrivalProcess::OpenPoisson {
                mean_interarrival: SimTime::from_micros(250),
            },
            1_000,
        );
        assert_eq!(open.horizon_hint(), SimTime::from_millis(250));
        let closed = lan_config(
            ArrivalProcess::ClosedLoop {
                clients: 10,
                think: Distribution::fixed(SimTime::from_millis(1)),
            },
            100,
        );
        assert!(closed.horizon_hint() >= SimTime::from_millis(10));
    }
}
