//! Parallel, deterministic Monte-Carlo trial runner.
//!
//! The experiment harness averages many independent *trials*
//! (realizations of a contact graph, a group partition, a workload, and
//! a simulation run). This module supplies the two pieces every entry
//! point shares:
//!
//! 1. **Seeding** — [`trial_rng`] derives each trial's RNG from
//!    `(base seed, domain, trial index)` with a SplitMix64 finalizer,
//!    replacing the harness's historical ad-hoc `seed ^ (CONST + i)`
//!    XOR scheme. Domain separation ([`SeedDomain`]) keeps the streams
//!    of different experiment families (random-graph vs trace-driven vs
//!    security sweeps) and different roles within one trial (simulation
//!    vs message-start draws) statistically independent even for
//!    adversarially similar base seeds — XOR-offset schemes collide
//!    whenever `seed_a ^ seed_b = off_a ^ off_b`, which the avalanching
//!    finalizer makes practically impossible.
//! 2. **Execution** — [`run_trials`] fans trial indices across a scoped
//!    worker pool (work-stealing over an atomic counter, no external
//!    dependencies) and folds each trial's partial result on the
//!    caller's thread **in ascending trial order** via a reorder
//!    buffer. Because every trial is a pure function of its index and
//!    the fold order is fixed, the final aggregate is bit-identical for
//!    any worker count — `threads = 1` and `threads = 64` produce the
//!    same report for the same seed.
//!
//! Memory stays O(out-of-orderness): the reorder buffer holds only
//! results that finished ahead of the next index to fold, never the
//! whole trial set.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Experiment family / role tag mixed into every trial seed.
///
/// One variant per independent RNG stream the harness draws. Two
/// domains with the same base seed and trial index yield unrelated
/// streams.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeedDomain {
    /// Random-graph delivery experiments: graph, schedule, workload,
    /// groups, simulation, adversary.
    GraphRealization,
    /// Trace-driven delivery experiments: workload, groups, simulation,
    /// adversary (the schedule is fixed).
    ScheduleRealization,
    /// Message start-time draws of trace-driven delivery experiments
    /// (the paper's "business hours" policy).
    ScheduleStarts,
    /// Random-graph security sweeps.
    SecurityGraph,
    /// Trace-driven security sweeps.
    SecuritySchedule,
    /// Message start-time draws of trace-driven security sweeps.
    SecurityStarts,
    /// Direct Monte-Carlo model validation (no simulator involved).
    ModelValidation,
    /// Fault-injection draws ([`dtn_sim::faults::FaultPlan`]): crashes,
    /// contact failures, truncation, in-flight loss. A separate stream
    /// from the trial's protocol RNG so enabling faults never perturbs
    /// the protocol's own draws.
    Faults,
    /// Wire-mode crypto draws (packet nonces and filler): a separate
    /// stream from the trial's protocol RNG so building/peeling real
    /// ciphertext never perturbs the trial's own draw order — the
    /// invariant behind the wire-mode differential determinism test.
    Wire,
    /// Coded-mode codec draws (the Reed-Solomon payloads): a separate
    /// stream from the trial's protocol RNG so real erasure-coding work
    /// never perturbs the trial's own draw order, keeping replica-mode
    /// results bit-identical with the codec linked in.
    Codec,
    /// Sparse-scenario realizations (PPP world, groups, workload,
    /// protocol, adversary): a fresh domain, so sparse mode never shares
    /// a stream with — or perturbs — the frozen dense experiments.
    SparseRealization,
    /// Sparse-scenario contact streams: the calendar queue owns its RNG
    /// (re-arrival draws interleave with protocol draws during the run),
    /// so the stream gets its own domain-separated seed.
    SparseContacts,
}

impl SeedDomain {
    /// The 64-bit tag mixed into the seed stream. Values are arbitrary
    /// but fixed forever: changing one silently changes every published
    /// number for that experiment family.
    const fn tag(self) -> u64 {
        match self {
            SeedDomain::GraphRealization => 0x9E37_79B9_0000_0001,
            SeedDomain::ScheduleRealization => 0x51ED_2701_0000_0002,
            SeedDomain::ScheduleStarts => 0x0000_ABCD_0000_0003,
            SeedDomain::SecurityGraph => 0x0BAD_CAFE_0000_0004,
            SeedDomain::SecuritySchedule => 0xFEED_F00D_0000_0005,
            SeedDomain::SecurityStarts => 0x0000_1234_0000_0006,
            SeedDomain::ModelValidation => 0x00DE_17E5_0000_0007,
            SeedDomain::Faults => 0xFA17_0BAD_0000_0008,
            SeedDomain::Wire => 0x3173_C0DE_0000_0009,
            SeedDomain::Codec => 0x3173_C0DE_0000_000A,
            SeedDomain::SparseRealization => 0x5AA5_C5A1_0000_000B,
            SeedDomain::SparseContacts => 0x5AA5_C5A1_0000_000C,
        }
    }
}

/// SplitMix64 finalizer (Steele et al.): full-avalanche mixing of one
/// 64-bit word. Identical constants to `rand`'s `seed_from_u64`
/// expansion, so the whole pipeline shares one mixing family.
const fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the 64-bit seed for one `(base, domain, trial)` triple:
/// two chained SplitMix64 finalizer rounds, absorbing the domain tag
/// and then the trial index.
pub const fn trial_seed(base: u64, domain: SeedDomain, trial: u64) -> u64 {
    splitmix64(splitmix64(base ^ domain.tag()) ^ trial)
}

/// The deterministic RNG for one trial: a ChaCha8 stream keyed by
/// [`trial_seed`]. Every experiment entry point derives its
/// per-realization randomness exactly this way, so a `(seed, domain,
/// trial)` triple pins the full trial down independent of scheduling.
pub fn trial_rng(base: u64, domain: SeedDomain, trial: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(trial_seed(base, domain, trial))
}

/// Tag absorbed when re-seeding a quarantined trial's retry, so attempt
/// 1 draws a stream unrelated to attempt 0. Arbitrary but fixed forever.
const RETRY_TAG: u64 = 0x5EED_A6A1_0BAD_9001;

/// [`trial_seed`] disambiguated by retry attempt: attempt `0` is exactly
/// `trial_seed(base, domain, trial)` (the normal path is unchanged);
/// attempt `a > 0` mixes in one more finalizer round keyed by `a`, so a
/// deterministic retry after a quarantined panic replays the trial with
/// a fresh but reproducible stream.
pub const fn trial_seed_attempt(base: u64, domain: SeedDomain, trial: u64, attempt: u32) -> u64 {
    let seed = trial_seed(base, domain, trial);
    if attempt == 0 {
        seed
    } else {
        splitmix64(seed ^ RETRY_TAG ^ (attempt as u64))
    }
}

/// The deterministic RNG for one `(trial, attempt)` pair — see
/// [`trial_seed_attempt`]. Attempt 0 equals [`trial_rng`].
pub fn trial_rng_attempt(base: u64, domain: SeedDomain, trial: u64, attempt: u32) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(trial_seed_attempt(base, domain, trial, attempt))
}

/// Worker-pool configuration for [`run_trials`]. The default
/// (`threads: 0`) auto-detects.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunnerConfig {
    /// Worker threads; `0` means auto-detect
    /// (`std::thread::available_parallelism`). The thread count never
    /// affects results, only wall-clock time.
    pub threads: usize,
}

impl RunnerConfig {
    /// A config with an explicit worker count (`0` = auto).
    pub fn new(threads: usize) -> Self {
        RunnerConfig { threads }
    }

    /// The worker count actually used for `trials` trials: auto-detects
    /// when `threads == 0`, and never exceeds the trial count.
    fn effective_threads(&self, trials: usize) -> usize {
        let requested = if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        };
        requested.min(trials).max(1)
    }
}

/// Runs `trials` independent jobs, folding their results into `acc`
/// **in ascending trial order** regardless of how many workers ran them
/// or how they interleaved.
///
/// `job(i)` must be a pure function of the trial index `i` (derive all
/// randomness via [`trial_rng`]); `fold(acc, i, out)` is called exactly
/// once per trial, on the calling thread, with `i` strictly ascending
/// from 0. Under those contracts the final `acc` is bit-identical for
/// every thread count.
///
/// With one effective worker the pool is skipped entirely and trials
/// run inline — the fold sequence is the same either way.
///
/// # Panics
///
/// Propagates panics from `job` (via `std::thread::scope`).
pub fn run_trials<T, Job, Acc, Fold>(
    config: &RunnerConfig,
    trials: usize,
    job: Job,
    acc: &mut Acc,
    mut fold: Fold,
) where
    T: Send,
    Job: Fn(usize) -> T + Sync,
    Fold: FnMut(&mut Acc, usize, T),
{
    if trials == 0 {
        return;
    }
    let threads = config.effective_threads(trials);
    // Telemetry is sampled once up front; when disabled, the per-trial
    // cost is a `None` check (no clock reads, no locks). Metrics only
    // observe the run — they never feed back into `fold`, so reports are
    // identical with telemetry on or off.
    let metrics = obs::metrics_enabled();
    let wall_start = metrics.then(Instant::now);
    let mut progress = obs::Progress::new("trials", trials as u64);
    let mut busy_secs = 0.0f64;
    let mut reorder_high_water = 0usize;

    if threads == 1 {
        for i in 0..trials {
            let trial_start = metrics.then(Instant::now);
            let out = job(i);
            if let Some(t0) = trial_start {
                let dt = t0.elapsed().as_secs_f64();
                busy_secs += dt;
                obs::record("runner.trial_secs", dt);
            }
            fold(acc, i, out);
            progress.inc(1);
        }
    } else {
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, T, f64)>();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let tx = tx.clone();
                let next = &next;
                let job = &job;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= trials {
                        break;
                    }
                    let trial_start = metrics.then(Instant::now);
                    let out = job(i);
                    let dt = trial_start.map_or(0.0, |t0| t0.elapsed().as_secs_f64());
                    if tx.send((i, out, dt)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);

            // In-order merge through a reorder buffer: results are folded
            // strictly by trial index, so aggregation order (and therefore
            // floating-point rounding) is scheduling-independent.
            let mut pending: BTreeMap<usize, T> = BTreeMap::new();
            let mut next_fold = 0usize;
            for (i, out, dt) in rx {
                if metrics {
                    busy_secs += dt;
                    obs::record("runner.trial_secs", dt);
                }
                pending.insert(i, out);
                reorder_high_water = reorder_high_water.max(pending.len());
                while let Some(out) = pending.remove(&next_fold) {
                    fold(acc, next_fold, out);
                    next_fold += 1;
                    progress.inc(1);
                }
            }
            // If a worker panicked, the scope re-raises the panic when it
            // joins; otherwise every index was received and folded.
        });
    }
    drop(progress);

    if let Some(t0) = wall_start {
        let wall = t0.elapsed().as_secs_f64();
        obs::counter_add("runner.trials", trials as u64);
        obs::counter_add("runner.threads", threads as u64);
        obs::record("runner.wall_secs", wall);
        obs::record("runner.reorder_high_water", reorder_high_water as f64);
        // Fraction of the workers' wall-clock budget spent inside jobs;
        // the rest is channel/fold/scheduling overhead or idle stealing.
        let utilization = if wall > 0.0 {
            (busy_secs / (wall * threads as f64)).min(1.0)
        } else {
            1.0
        };
        obs::record("runner.utilization", utilization);
        obs::debug!(
            "onion_routing::runner",
            "{trials} trials on {threads} thread(s): {wall:.2}s wall, \
             {:.1} trials/s, {:.0}% utilization, reorder high-water {reorder_high_water}",
            trials as f64 / wall.max(1e-9),
            utilization * 100.0,
        );
    }
}

/// One trial that panicked on both its original attempt and its
/// deterministic retry, quarantined instead of poisoning the sweep.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrialFailure {
    /// The trial index that failed.
    pub trial: usize,
    /// Attempts made (always 2: the original run and one retry).
    pub attempts: u32,
    /// The panic payload of the final attempt, when it was a string.
    pub message: String,
}

/// Renders a `catch_unwind` payload as text.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// [`run_trials`] with panic isolation: each trial runs under
/// `catch_unwind`; a panicking trial is retried once with a
/// disambiguated sub-seed (`job` receives the attempt number, normally
/// `0`; derive randomness via [`trial_rng_attempt`]), and a trial whose
/// retry also panics is recorded as a [`TrialFailure`] instead of
/// aborting the sweep.
///
/// Surviving trials fold exactly as in [`run_trials`] — in ascending
/// trial order — so when no trial fails the result is bit-identical to
/// the non-resilient path, and the outcome is deterministic in general
/// because the retry stream is a pure function of `(trial, attempt)`.
/// Failures are returned in ascending trial order, for the caller to
/// report.
///
/// This is the one owner of a trial's trace ring: each attempt runs on
/// a fresh ring (`obs::trace_ring_begin`), the last attempt's ring
/// travels beside its result, and every trial's ring is appended
/// (`obs::trace_append`) in the in-order fold, so the trace is the same
/// at every thread count. A quarantined trial keeps its block, closed by
/// a [`obs::TraceEvent::Quarantine`] event at the time of its last
/// recorded event (0 when there is none).
///
/// The process-global panic hook still prints each caught panic to
/// stderr; quarantine only controls propagation, not reporting.
pub fn run_trials_resilient<T, Job, Acc, Fold>(
    config: &RunnerConfig,
    trials: usize,
    job: Job,
    acc: &mut Acc,
    mut fold: Fold,
) -> Vec<TrialFailure>
where
    T: Send,
    Job: Fn(usize, u32) -> T + Sync,
    Fold: FnMut(&mut Acc, usize, T),
{
    use std::panic::{catch_unwind, AssertUnwindSafe};

    // AssertUnwindSafe: a panicking attempt leaves no state behind —
    // every attempt rebuilds its full world from the trial seed.
    let run_attempt = |i: usize, attempt: u32| {
        obs::trace_ring_begin(i as u64);
        let out = catch_unwind(AssertUnwindSafe(|| job(i, attempt)));
        (out, obs::trace_ring_take())
    };
    let guarded = |i: usize| -> (Result<T, TrialFailure>, Option<obs::TraceRing>) {
        let payload = match run_attempt(i, 0) {
            (Ok(out), ring) => return (Ok(out), ring),
            (Err(payload), _) => payload,
        };
        obs::warn!(
            "onion_routing::runner",
            "trial {i} panicked ({}); retrying with sub-seed attempt 1",
            panic_message(payload.as_ref()),
        );
        let (out, mut ring) = run_attempt(i, 1);
        let out = out.map_err(|payload| TrialFailure {
            trial: i,
            attempts: 2,
            message: panic_message(payload.as_ref()),
        });
        if let (Err(failure), Some(ring)) = (&out, ring.as_mut()) {
            let time = ring.iter().last().map_or(0.0, obs::TraceEvent::time);
            ring.push(obs::TraceEvent::Quarantine {
                time,
                attempts: failure.attempts,
                message: failure.message.clone(),
            });
        }
        (out, ring)
    };
    let mut failures = Vec::new();
    run_trials(config, trials, guarded, acc, |acc, i, (out, ring)| {
        ring.iter().for_each(obs::trace_append);
        match out {
            Ok(out) => fold(acc, i, out),
            Err(failure) => failures.push(failure),
        }
    });
    if !failures.is_empty() {
        obs::counter_add("runner.trials_quarantined", failures.len() as u64);
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn trial_seed_separates_domains_and_trials() {
        let base = 0x0D10_57E5;
        let a = trial_seed(base, SeedDomain::GraphRealization, 0);
        let b = trial_seed(base, SeedDomain::ScheduleRealization, 0);
        let c = trial_seed(base, SeedDomain::GraphRealization, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        // Stable across calls (pure function).
        assert_eq!(a, trial_seed(base, SeedDomain::GraphRealization, 0));
    }

    #[test]
    fn trial_seed_has_no_xor_offset_collisions() {
        // The old scheme had seed_a ^ (C + i) == seed_b ^ (C + j)
        // whenever seed_a ^ seed_b == i ^ j (for offsets in the same
        // family). Check the mixed scheme on exactly that pattern.
        let mut seen = std::collections::HashSet::new();
        for seed in [7u64, 7 ^ 1, 7 ^ 2, 7 ^ 3] {
            for trial in 0..4 {
                assert!(
                    seen.insert(trial_seed(seed, SeedDomain::GraphRealization, trial)),
                    "collision at seed {seed} trial {trial}"
                );
            }
        }
    }

    #[test]
    fn trial_rng_streams_differ() {
        let mut a = trial_rng(1, SeedDomain::GraphRealization, 0);
        let mut b = trial_rng(1, SeedDomain::GraphRealization, 1);
        let mut a2 = trial_rng(1, SeedDomain::GraphRealization, 0);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        let xs2: Vec<u64> = (0..4).map(|_| a2.next_u64()).collect();
        assert_ne!(xs, ys);
        assert_eq!(xs, xs2);
    }

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(RunnerConfig::new(8).effective_threads(3), 3);
        assert_eq!(RunnerConfig::new(2).effective_threads(100), 2);
        assert!(RunnerConfig::default().effective_threads(100) >= 1);
        assert_eq!(RunnerConfig::new(5).effective_threads(0), 1);
    }

    fn sum_of_squares(threads: usize, trials: usize) -> (f64, Vec<usize>) {
        let mut order = Vec::new();
        let mut total = 0.0f64;
        run_trials(
            &RunnerConfig::new(threads),
            trials,
            |i| (i as f64 + 0.5) * (i as f64 + 0.5),
            &mut (&mut total, &mut order),
            |state, i, x| {
                *state.0 += x;
                state.1.push(i);
            },
        );
        (total, order)
    }

    #[test]
    fn fold_order_is_ascending_for_any_thread_count() {
        let expected_order: Vec<usize> = (0..97).collect();
        let (serial, order1) = sum_of_squares(1, 97);
        assert_eq!(order1, expected_order);
        for threads in [2, 3, 8] {
            let (parallel, order) = sum_of_squares(threads, 97);
            assert_eq!(order, expected_order, "threads = {threads}");
            assert_eq!(serial.to_bits(), parallel.to_bits(), "threads = {threads}");
        }
    }

    #[test]
    fn zero_trials_is_a_no_op() {
        let mut calls = 0usize;
        run_trials(
            &RunnerConfig::default(),
            0,
            |_| 1usize,
            &mut calls,
            |acc, _, x| *acc += x,
        );
        assert_eq!(calls, 0);
    }

    #[test]
    fn attempt_zero_matches_trial_seed() {
        for trial in [0u64, 1, 99] {
            assert_eq!(
                trial_seed_attempt(7, SeedDomain::Faults, trial, 0),
                trial_seed(7, SeedDomain::Faults, trial)
            );
            assert_ne!(
                trial_seed_attempt(7, SeedDomain::Faults, trial, 1),
                trial_seed(7, SeedDomain::Faults, trial)
            );
            assert_ne!(
                trial_seed_attempt(7, SeedDomain::Faults, trial, 1),
                trial_seed_attempt(7, SeedDomain::Faults, trial, 2)
            );
        }
    }

    #[test]
    fn resilient_quarantines_persistent_panics() {
        // Trial 7 panics on every attempt; the sweep must complete and
        // report exactly that one failure, for any thread count.
        for threads in [1usize, 2, 8] {
            let mut total = 0usize;
            let failures = run_trials_resilient(
                &RunnerConfig::new(threads),
                16,
                |i, _attempt| {
                    assert!(i != 7, "boom at {i}");
                    i
                },
                &mut total,
                |acc, _, x| *acc += x,
            );
            assert_eq!(failures.len(), 1, "threads = {threads}");
            assert_eq!(failures[0].trial, 7);
            assert_eq!(failures[0].attempts, 2);
            assert!(failures[0].message.contains("boom at 7"));
            // Every other trial folded: 0+1+...+15 minus 7.
            assert_eq!(total, (0..16).sum::<usize>() - 7, "threads = {threads}");
        }
    }

    #[test]
    fn resilient_retry_recovers_flaky_trial() {
        // Trial 3 panics only on attempt 0: the deterministic retry
        // recovers it and no failure is recorded.
        let mut folded = Vec::new();
        let failures = run_trials_resilient(
            &RunnerConfig::new(1),
            6,
            |i, attempt| {
                assert!(!(i == 3 && attempt == 0), "flaky");
                (i, attempt)
            },
            &mut folded,
            |acc, _, x| acc.push(x),
        );
        assert!(failures.is_empty());
        assert_eq!(folded, vec![(0, 0), (1, 0), (2, 0), (3, 1), (4, 0), (5, 0)]);
    }

    #[test]
    fn resilient_matches_plain_runner_when_nothing_fails() {
        let mut plain = 0.0f64;
        run_trials(
            &RunnerConfig::new(2),
            33,
            |i| (i as f64).sqrt(),
            &mut plain,
            |acc, _, x| *acc += x,
        );
        let mut resilient = 0.0f64;
        let failures = run_trials_resilient(
            &RunnerConfig::new(2),
            33,
            |i, _| (i as f64).sqrt(),
            &mut resilient,
            |acc, _, x| *acc += x,
        );
        assert!(failures.is_empty());
        assert_eq!(plain.to_bits(), resilient.to_bits());
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            let mut total = 0usize;
            run_trials(
                &RunnerConfig::new(4),
                16,
                |i| {
                    assert!(i != 7, "boom");
                    i
                },
                &mut total,
                |acc, _, x| *acc += x,
            );
            total
        });
        assert!(result.is_err());
    }
}
