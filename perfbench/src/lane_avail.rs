//! `lane-avail`: `batched_availability_wide` at width 8 on universes of about
//! 10⁶ elements — the native Grid, Tree, Maj and HQS circuits, the Compose
//! family, and Tree/HQS/Grid rebuilt as Compose specs.
//!
//! This path skips strategies, the probe oracle and `EvalPlan`: Bernoulli
//! fill and the lane circuit take all the time, so a probe-path change
//! should leave it unchanged, and the Compose-versus-native lane gap shows
//! here. Each system runs at a failure probability where `F_p` is neither 0
//! nor 1 nor 1/2, chosen dyadic so the fill draws at most 11 words per lane.

use probequorum::analysis::availability::{hqs_failure_probability, tree_failure_probability};
use probequorum::analysis::RunningStats;
use probequorum::core::lanes::{bernoulli_lane_words, LANE_TRIALS};
use probequorum::core::QuorumSystem;
use probequorum::sim::eval::{derive_rng, erase_spec, DynSystem, EvalEngine, TrialRng};
use probequorum::sim::{batched_availability_wide, Estimate};
use probequorum::systems::SystemSpec;
use rand::RngCore;

use crate::check::{within_z, Checks};
use crate::harness::{self, Ctx, Outcome};
use crate::host;
use crate::trace::{Dist, Tracer};

/// Lane-block width under test.
pub const WIDTH: usize = 8;
/// Trials per system per job: two width-8 superblocks.
const TRIALS: usize = 2 * WIDTH * LANE_TRIALS;
/// Standard errors an estimate may sit from the exact `F_p`.
const Z: f64 = 5.0;
/// The `derive_rng` cell coordinate the batched estimators reserve.
const BATCH_CELL: u64 = u64::MAX - 1;

/// Bytes of one element-major lane block of `n` elements at `width` words.
pub fn block_bytes(n: usize, width: usize) -> u64 {
    (n * width * 8) as u64
}

/// How a system's exact failure probability is known, if it is.
#[derive(Debug, Clone, Copy)]
enum Exact {
    Tree(usize),
    Hqs(usize),
    /// Majority over `n` elements.
    Maj(usize),
    /// Majority of `groups` organizations, each a majority of `size`.
    OrgMajority(usize, usize),
    None,
}

/// One system of the workload.
pub struct LaneSystem {
    /// Metric label (one of [`crate::metrics::LANE_FAMILIES`]).
    pub label: &'static str,
    system: DynSystem,
    /// Element failure probability.
    pub p: f64,
    exact: Exact,
    /// The label of the native system this one must reproduce bit for bit.
    twin_of: Option<&'static str>,
}

/// `P(X ≥ k)` for `X ~ Binomial(n, q)`, summed in log space.
pub fn binomial_tail(n: usize, k: usize, q: f64) -> f64 {
    if k == 0 {
        return 1.0;
    }
    if k > n {
        return 0.0;
    }
    let (ln_q, ln_p) = (q.ln(), (1.0 - q).ln());
    let ln_choose = |i: usize| {
        ln_gamma(n as f64 + 1.0) - ln_gamma(i as f64 + 1.0) - ln_gamma((n - i) as f64 + 1.0)
    };
    (k..=n)
        .map(|i| (ln_choose(i) + i as f64 * ln_q + (n - i) as f64 * ln_p).exp())
        .sum::<f64>()
        .min(1.0)
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7, nine terms; relative error
/// around 1e-15).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let mut a = G[0];
    for (i, g) in G.iter().enumerate().skip(1) {
        a += g / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

impl Exact {
    fn failure(self, p: f64) -> Option<f64> {
        match self {
            Exact::Tree(h) => Some(tree_failure_probability(h, p)),
            Exact::Hqs(h) => Some(hqs_failure_probability(h, p)),
            Exact::Maj(n) => Some(1.0 - binomial_tail(n, n.div_ceil(2), 1.0 - p)),
            Exact::OrgMajority(groups, size) => {
                let group_live = binomial_tail(size, size.div_ceil(2), 1.0 - p);
                Some(1.0 - binomial_tail(groups, groups.div_ceil(2), group_live))
            }
            Exact::None => None,
        }
    }
}

fn build_spec(spec: &SystemSpec) -> DynSystem {
    erase_spec(spec).expect("benchmark spec builds")
}

/// Builds the eight systems.
pub fn build() -> Vec<LaneSystem> {
    build_sized(19, 12, 1_000, 1_000_001, 1_000_000)
}

/// Builds the eight systems at the given sizes (the tests use small ones).
pub fn build_sized(
    tree_h: usize,
    hqs_h: usize,
    grid_side: usize,
    maj_n: usize,
    compose_hint: usize,
) -> Vec<LaneSystem> {
    // Tree, Maj, HQS and the org-majority Compose are self-dual, so at
    // p = 1/2 each has F_p = 1/2 exactly and a check against it could not
    // tell a correct circuit from a coin flip. Each runs at a short dyadic p
    // below 1/2 instead: 15/32 moves Tree h=19 to F ≈ 0.21, 1/2 − 2⁻¹¹ moves
    // Maj 10⁶+1 to F ≈ 0.16 and the Compose family to F ≈ 0.22, and
    // 1/2 − 2⁻¹⁰ moves HQS h=12 to F ≈ 0.37. Grid needs a full live row and
    // column, so at 1000×1000 it only has 0 < F_p < 1 near p = 1/128.
    let p_tree = 15.0 / 32.0;
    let p_maj = 0.5 - 1.0 / 2_048.0;
    let p_hqs = 0.5 - 1.0 / 1_024.0;
    let p_grid = 1.0 / 128.0;
    let compose = SystemSpec::org_majority_with_size_hint(compose_hint);
    let (groups, size) = match &compose {
        SystemSpec::Orgs { groups, .. } => (groups.len(), groups[0].len()),
        _ => unreachable!("org_majority builds an Orgs spec"),
    };
    vec![
        LaneSystem {
            label: "grid",
            system: build_spec(&SystemSpec::Grid {
                rows: grid_side,
                cols: grid_side,
            }),
            p: p_grid,
            exact: Exact::None,
            twin_of: None,
        },
        LaneSystem {
            label: "tree",
            system: build_spec(&SystemSpec::Tree { height: tree_h }),
            p: p_tree,
            exact: Exact::Tree(tree_h),
            twin_of: None,
        },
        LaneSystem {
            label: "maj",
            system: build_spec(&SystemSpec::Majority { n: maj_n }),
            p: p_maj,
            exact: Exact::Maj(maj_n),
            twin_of: None,
        },
        LaneSystem {
            label: "hqs",
            system: build_spec(&SystemSpec::Hqs { height: hqs_h }),
            p: p_hqs,
            exact: Exact::Hqs(hqs_h),
            twin_of: None,
        },
        LaneSystem {
            label: "compose",
            system: build_spec(&compose),
            p: p_maj,
            exact: Exact::OrgMajority(groups, size),
            twin_of: None,
        },
        LaneSystem {
            label: "tree-as-compose",
            system: build_spec(&SystemSpec::tree_as_compose(tree_h)),
            p: p_tree,
            exact: Exact::Tree(tree_h),
            twin_of: Some("tree"),
        },
        LaneSystem {
            label: "hqs-as-compose",
            system: build_spec(&SystemSpec::hqs_as_compose(hqs_h)),
            p: p_hqs,
            exact: Exact::Hqs(hqs_h),
            twin_of: Some("hqs"),
        },
        LaneSystem {
            label: "grid-as-compose",
            system: build_spec(&SystemSpec::grid_as_compose(grid_side, grid_side)),
            p: p_grid,
            exact: Exact::None,
            twin_of: Some("grid"),
        },
    ]
}

/// One job: every system's availability estimate at `width`.
pub fn job(systems: &[LaneSystem], seed: u64, width: usize) -> Vec<Estimate> {
    systems
        .iter()
        .map(|s| batched_availability_wide(s.system.as_quorum_system(), s.p, TRIALS, seed, width))
        .collect()
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    harness::run(ctx, build, |systems, out| measure(ctx, systems, out))
}

fn measure(ctx: &Ctx, systems: &[LaneSystem], out: &mut Outcome) {
    let parallel = EvalEngine::with_threads(ctx.threads);
    let serial = EvalEngine::with_threads(1);
    let units = (TRIALS * systems.len()) as f64;
    for s in systems {
        out.fact(
            format!("system.{}", s.label),
            format!(
                "{} n={} p={}",
                s.system.name(),
                s.system.universe_size(),
                s.p
            ),
        );
    }

    let estimates;
    if !ctx.trace {
        let (timings, first) = harness::timed_loop(ctx.seconds, 3, ctx.threads, || {
            parallel.install(|| job(systems, ctx.seed, WIDTH))
        });
        harness::end_to_end(out, units, &timings);
        estimates = first;
    } else {
        let quarter = ctx.seconds / 4.0;
        let (walls_n, first) = harness::timed_loop(quarter, 2, ctx.threads, || {
            parallel.install(|| job(systems, ctx.seed, WIDTH))
        });
        let (walls_1, _) = harness::timed_loop(quarter, 2, 1, || {
            serial.install(|| job(systems, ctx.seed, WIDTH))
        });
        let speedup = harness::median_wall(&walls_1) / harness::median_wall(&walls_n);
        out.metric("engine.speedup", speedup, "x");
        out.metric("engine.efficiency", speedup / ctx.threads as f64, "ratio");
        estimates = first;
        traced_pass(
            out,
            systems,
            ctx.seed,
            &estimates,
            units / harness::median_wall(&walls_1),
        );
    }
    let narrow = parallel.install(|| job(systems, ctx.seed, 1));
    check(&mut out.checks, systems, &estimates, &narrow, 0.0);
}

/// The workload's checks. `shift` is added to every exact `F_p` (zero in a
/// real run; the negative-control tests perturb it).
pub fn check(
    checks: &mut Checks,
    systems: &[LaneSystem],
    wide: &[Estimate],
    narrow: &[Estimate],
    shift: f64,
) {
    for ((s, w), n) in systems.iter().zip(wide).zip(narrow) {
        checks.check(
            w.mean.to_bits() == n.mean.to_bits() && w.std_error.to_bits() == n.std_error.to_bits(),
            || {
                format!(
                    "lane-avail: {} differs between widths {WIDTH} and 1",
                    s.label
                )
            },
        );
        if let Some(fail) = s.exact.failure(s.p) {
            let reference = 1.0 - (fail + shift);
            checks.check(within_z(w.mean, w.std_error, reference, Z), || {
                format!(
                    "lane-avail: {} availability {} ± {} is not within {Z} SE of exact {reference}",
                    s.label, w.mean, w.std_error
                )
            });
        }
        if let Some(twin) = s.twin_of {
            let native = systems
                .iter()
                .position(|o| o.label == twin)
                .expect("twin is in the list");
            checks.check(wide[native].mean.to_bits() == w.mean.to_bits(), || {
                format!("lane-avail: {} differs from native {twin}", s.label)
            });
        }
    }
}

fn traced_pass(
    out: &mut Outcome,
    systems: &[LaneSystem],
    seed: u64,
    estimates: &[Estimate],
    untraced_rate: f64,
) {
    let mut tr = Tracer::new();
    let words = TRIALS.div_ceil(LANE_TRIALS);
    let mut fill_ns_per_word = Vec::new();
    let mut replica_agrees = true;
    let mut rng_words = 0u64;
    let mut lanes_filled = 0u64;
    let started = std::time::Instant::now();
    for (index, s) in systems.iter().enumerate() {
        let system = s.system.as_quorum_system();
        let n = system.universe_size();
        let circuit = format!("systems.circuit.{}", s.label);
        let mut circuit_ns_per_word = Vec::new();
        let mut stats = RunningStats::new();
        let system_span = tr.begin("lane.system", None, index as u64);
        for first_word in (0..words).step_by(WIDTH) {
            let w = WIDTH.min(words - first_word);
            let block = tr.begin("lane.block", Some(system_span), first_word as u64);
            let mut rngs: Vec<TrialRng> = (0..w)
                .map(|i| derive_rng(seed, BATCH_CELL, (first_word + i) as u64))
                .collect();
            let mut lanes = vec![0u64; n * w];
            let mut draws = 0u64;
            let span = tr.begin("core.lanes.fill", Some(block), first_word as u64);
            for slot in lanes.chunks_mut(w) {
                bernoulli_lane_words(1.0 - s.p, slot, |i| {
                    draws += 1;
                    rngs[i].next_u64()
                });
            }
            let ns = tr.end(span);
            fill_ns_per_word.push(ns as f64 / (n * w) as f64);
            rng_words += draws;
            lanes_filled += (n * w) as u64;

            let mut available = vec![0u64; w];
            let span = tr.begin(&circuit, Some(block), first_word as u64);
            let evaluated = system.green_quorum_lane_block(&lanes, w, &mut available);
            let ns = tr.end(span);
            replica_agrees &= evaluated;
            circuit_ns_per_word.push(ns as f64 / (n * w) as f64);

            let take = (LANE_TRIALS * w).min(TRIALS - first_word * LANE_TRIALS);
            let span = tr.begin("analysis.fold", Some(block), first_word as u64);
            for word in &mut available {
                *word = !*word;
            }
            stats.push_indicator_lanes(&available, take);
            tr.end(span);
            tr.end(block);
        }
        tr.end(system_span);
        let summary = stats.summary();
        replica_agrees &= (1.0 - summary.mean).to_bits() == estimates[index].mean.to_bits();
        out.dist(
            &format!("systems.circuit_ns_per_word.{}", s.label),
            Dist::of(circuit_ns_per_word),
            "ns",
        );
    }
    let traced_rate = (TRIALS * systems.len()) as f64 / started.elapsed().as_secs_f64();
    tr.count("core.lanes.rng_words", rng_words as f64);
    tr.count("core.lanes.lane_words", lanes_filled as f64);

    let max_n = systems
        .iter()
        .map(|s| s.system.universe_size())
        .max()
        .unwrap_or(0);
    out.dist(
        "core.lanes.fill_ns_per_word",
        Dist::of(fill_ns_per_word),
        "ns",
    );
    out.dist(
        "analysis.fold_ns",
        Dist::of(tr.durations("analysis.fold")),
        "ns",
    );
    out.metric(
        "core.lanes.rng_words_per_lane",
        rng_words as f64 / lanes_filled.max(1) as f64,
        "words",
    );
    // One bit per element per trial; a block holds n·W words.
    out.metric("core.lanes.bytes_per_trial", max_n as f64 / 8.0, "B");
    out.metric(
        "core.lanes.block_bytes",
        block_bytes(max_n, WIDTH) as f64,
        "B",
    );
    out.metric(
        "host.llc_bytes",
        host::last_level_cache().map_or(0.0, |(_, b)| b as f64),
        "B",
    );
    out.fact(
        "lane_working_set",
        format!(
            "computed: {} B per trial, {} MiB per width-{WIDTH} block per worker at n={max_n}",
            max_n / 8,
            block_bytes(max_n, WIDTH) / (1024 * 1024)
        ),
    );
    out.metric("trace.rate_ratio", traced_rate / untraced_rate, "ratio");
    out.metric(
        "trace.replica_agrees",
        f64::from(u8::from(replica_agrees)),
        "bool",
    );
    out.checks.check(replica_agrees, || {
        "lane-avail: the traced replica does not reproduce the batched estimates".into()
    });
    out.tracer = Some(tr);
}
