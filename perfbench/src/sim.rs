//! The three simulation workloads: the fig04 deadline sweep, a wire+coded
//! point, and a sparse n = 10⁴ trial.
//!
//! One operation is one trial, run through the library's public entry
//! point with `realizations = 1`, `threads = 1`, and its own seed derived
//! from the workload seed. The traced run instead runs a block of trials
//! under one seed and replays each of them layer by layer
//! ([`crate::replay`]).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use contact_graph::TimeDelta;
use dtn_sim::SimCounters;
use onion_crypto::WirePacket;
use onion_routing::{
    run_random_graph_point, run_sparse_point, DeliverySweepRow, ExperimentOptions,
    OnionCryptoContext, OnionGroups, PointSummary, ProtocolConfig, SparseScenario, SweepSpec,
    CODED_PAYLOAD_LEN,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::replay::{self, DenseScoring, LayerTimes, SweepSums};
use crate::stats::{self, Metrics};
use crate::{op_seed, Outcome, DEFAULT_SEED};

/// The fig04 sweep's deadline grid (minutes).
pub const FIG04_DEADLINES: [f64; 5] = [60.0, 180.0, 360.0, 720.0, 1080.0];

/// Which simulation workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimWorkload {
    Fig04Sweep,
    WireCodedPoint,
    SparseScale,
}

/// The output of one operation.
enum Output {
    Rows(Vec<DeliverySweepRow>),
    Point(Box<PointSummary>),
}

impl Output {
    fn to_json(&self) -> String {
        match self {
            Output::Rows(rows) => serde_json::to_string(rows),
            Output::Point(p) => serde_json::to_string(&**p),
        }
        .expect("results serialize")
    }
}

impl SimWorkload {
    /// Recorded FNV-1a digest of operation 0's output at [`DEFAULT_SEED`].
    fn recorded_digest(self) -> &'static str {
        match self {
            SimWorkload::Fig04Sweep => "f41a992bb1f1ba5a",
            SimWorkload::WireCodedPoint => "9250cc3c7bc70120",
            SimWorkload::SparseScale => "720d636f72e224c6",
        }
    }

    /// The protocol config of one trial (the sweep simulates to its
    /// largest deadline).
    fn config(self) -> ProtocolConfig {
        match self {
            SimWorkload::Fig04Sweep => ProtocolConfig::table2_defaults(),
            SimWorkload::WireCodedPoint => ProtocolConfig {
                deadline: TimeDelta::new(360.0),
                ..ProtocolConfig::table2_defaults()
            },
            // n = 10⁴ rather than the 10⁵ scale headline: one 10⁵ trial
            // takes 13–18 s and 1 GiB, so a run holds a single operation
            // and its time swung by 22 % (quartile spread, 10 seeds) with
            // the host's load; at 10⁴ a run holds ~14 trials and the same
            // layers (PPP world, calendar queue, streaming loop) run.
            SimWorkload::SparseScale => sparse_config(10_000),
        }
    }

    /// Options for `realizations` trials at `seed`.
    fn options(self, seed: u64, realizations: usize) -> ExperimentOptions {
        let b = ExperimentOptions::builder()
            .realizations(realizations)
            .seed(seed)
            .threads(1);
        match self {
            SimWorkload::Fig04Sweep | SimWorkload::SparseScale => b.messages(5),
            SimWorkload::WireCodedPoint => b.messages(200).wire(true).code(Some((2, 4))),
        }
        .build()
    }

    /// Runs `realizations` trials at `seed` through the public entry
    /// point; a panic (a quarantined trial) is an `Err`.
    fn run(self, cfg: &ProtocolConfig, seed: u64, realizations: usize) -> Result<Output, String> {
        let opts = self.options(seed, realizations);
        catch_unwind(AssertUnwindSafe(|| match self {
            SimWorkload::Fig04Sweep => Output::Rows(
                SweepSpec::random_graph(cfg.clone())
                    .over_deadlines(&FIG04_DEADLINES)
                    .run(&opts)
                    .into_delivery()
                    .expect("deadline axis yields delivery rows"),
            ),
            SimWorkload::WireCodedPoint => {
                Output::Point(Box::new(run_random_graph_point(cfg, &opts)))
            }
            SimWorkload::SparseScale => Output::Point(Box::new(run_sparse_point(
                cfg,
                &SparseScenario {
                    avg_degree: SPARSE_DEGREE,
                },
                &opts,
            ))),
        }))
        .map_err(|_| format!("{self:?}: a trial was quarantined at seed {seed}"))
    }

    /// Checks the invariants every output must satisfy; the returned count
    /// is the number of failed operations inside it (codec decode
    /// failures).
    fn check(self, out: &Output, realizations: usize) -> Result<u64, String> {
        match out {
            Output::Rows(rows) => {
                check_rows(rows)?;
                Ok(0)
            }
            Output::Point(p) => {
                let c = &p.sim_counters;
                let messages = self.options(0, realizations).messages;
                ensure(p.delivered <= p.injected, "delivered exceeds injected")?;
                ensure(
                    p.injected == messages * realizations,
                    "injected count differs from the workload",
                )?;
                ensure(p.trial_failures == 0, "a trial was quarantined")?;
                ensure(
                    c.wire_aead_opens == c.wire_packets_peeled,
                    "wire AEAD opens differ from packets peeled",
                )?;
                if self == SimWorkload::WireCodedPoint {
                    ensure(c.wire_packets_built > 0, "wire mode built no packets")?;
                    ensure(
                        c.decode_successes == p.delivered as u64,
                        "decode successes differ from deliveries",
                    )?;
                }
                Ok(c.decode_failures)
            }
        }
    }
}

/// Expected neighbours per node of the sparse world.
const SPARSE_DEGREE: f64 = 10.0;

fn sparse_config(nodes: usize) -> ProtocolConfig {
    ProtocolConfig {
        nodes,
        compromised: nodes / 10,
        deadline: TimeDelta::new(720.0),
        ..ProtocolConfig::table2_defaults()
    }
}

fn ensure(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

/// Sweep rows: one per deadline, rates in `[0, 1]`, and delivery (both
/// series) never falling as the deadline grows.
fn check_rows(rows: &[DeliverySweepRow]) -> Result<(), String> {
    ensure(rows.len() == FIG04_DEADLINES.len(), "wrong row count")?;
    for r in rows {
        ensure(
            (0.0..=1.0).contains(&r.sim) && (0.0..=1.0).contains(&r.analysis),
            "a delivery rate lies outside [0, 1]",
        )?;
    }
    for w in rows.windows(2) {
        ensure(
            w[1].sim >= w[0].sim,
            "simulated delivery falls with the deadline",
        )?;
        ensure(
            w[1].analysis >= w[0].analysis - 1e-12,
            "model delivery falls with the deadline",
        )?;
    }
    Ok(())
}

/// Trials of one warm-up run, and how many warm-up runs set-up takes.
const WARMUP_TRIALS: usize = 2;
const SETUP_REPS: usize = 5;

/// Set-up: one warm-up run of the workload's own point (for the sparse
/// workload, of a 10³-node world of the same scenario, which keeps set-up
/// short), repeated; returns the median time.
fn setup(w: SimWorkload, seed: u64) -> Result<f64, String> {
    let cfg = match w {
        SimWorkload::SparseScale => sparse_config(1_000),
        _ => w.config(),
    };
    let mut times = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let out = w.run(&cfg, op_seed(seed, u64::MAX), WARMUP_TRIALS)?;
        times.push(t0.elapsed().as_secs_f64());
        w.check(&out, WARMUP_TRIALS)?;
    }
    Ok(stats::median(&times))
}

/// The untraced run: trials one at a time until `seconds` have passed,
/// then the memory pass.
pub fn timed(w: SimWorkload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let setup_s = setup(w, seed)?;
    let cfg = w.config();
    let mut op_ms = Vec::new();
    let mut failed = 0u64;
    let start = Instant::now();
    while op_ms.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let i = op_ms.len() as u64;
        let t0 = Instant::now();
        let out = w.run(&cfg, op_seed(seed, i), 1);
        op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match out {
            Ok(out) => {
                failed += w.check(&out, 1).map_err(|e| format!("{w:?} op {i}: {e}"))?;
                if i == 0 && seed == DEFAULT_SEED {
                    stats::check_digest(
                        &format!("{w:?} op 0"),
                        out.to_json().as_bytes(),
                        w.recorded_digest(),
                    )?;
                }
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                failed += 1;
            }
        }
    }
    eprintln!(
        "perfbench: {:.2} trials/s over {} trials",
        op_ms.len() as f64 * 1e3 / op_ms.iter().sum::<f64>(),
        op_ms.len()
    );
    let mut m = Metrics::default();
    m.push("op_p90_ms", stats::quantile(&op_ms, 0.9), "ms");
    m.push("peak_rss_mb", memory_pass(w, &cfg, seed)?, "MiB");
    m.push("setup_s", setup_s, "s");
    Ok(Outcome {
        metrics: m,
        attempted: op_ms.len() as u64,
        failed,
    })
}

/// Trials of the memory pass.
fn memory_trials(w: SimWorkload) -> u64 {
    match w {
        SimWorkload::Fig04Sweep => 30,
        SimWorkload::WireCodedPoint => 10,
        SimWorkload::SparseScale => 4,
    }
}

/// Peak resident set per trial as a fresh process would see it: the run's
/// first trials again, each started from a trimmed heap with the
/// high-water mark reset; returns the 90th percentile in MiB. Without the
/// trim, memory the allocator kept from an earlier trial counts toward
/// every later one, so a rare trial on a costlier allocation path (fig04
/// trials with fewer than 2^19 contact events peak ~7 MiB higher) raised
/// the whole run. It is a pass of its own because a trimmed heap makes the
/// next trial fault its memory in again, which the timed loop must not pay.
fn memory_pass(w: SimWorkload, cfg: &ProtocolConfig, seed: u64) -> Result<f64, String> {
    let mut peaks = Vec::new();
    for i in 0..memory_trials(w) {
        crate::trim_heap();
        crate::reset_peak_rss()?;
        w.run(cfg, op_seed(seed, i), 1)?;
        peaks.push(crate::peak_rss_mib()?);
    }
    Ok(stats::quantile(&peaks, 0.9))
}

/// Trials in one traced block.
fn traced_trials(w: SimWorkload) -> usize {
    match w {
        SimWorkload::Fig04Sweep => 40,
        SimWorkload::WireCodedPoint => 8,
        SimWorkload::SparseScale => 4,
    }
}

/// The traced run: trials one at a time, each first untraced through the
/// library and then replayed layer by layer under the same seed, so slow
/// drift of the machine hits both sides alike. The replay must reproduce
/// the untraced run's engine counters (and, for the sweep, its rows bit
/// for bit).
pub fn traced(w: SimWorkload, seed: u64) -> Result<Outcome, String> {
    let trials = traced_trials(w);
    let cfg = w.config();
    let mut lt = LayerTimes::default();
    let mut untraced_s = 0.0;
    let mut untraced_counters = SimCounters::default();
    let mut no_wire = SimCounters::default();
    let mut failed = 0;
    for i in 0..trials as u64 {
        let op_seed = op_seed(seed, i);
        let opts = w.options(op_seed, 1);
        let t0 = Instant::now();
        let untraced = w.run(&cfg, op_seed, 1)?;
        untraced_s += t0.elapsed().as_secs_f64();
        failed += w.check(&untraced, 1)?;
        match (w, &untraced) {
            (SimWorkload::Fig04Sweep, Output::Rows(rows)) => {
                let mut sums = SweepSums::new(FIG04_DEADLINES.len());
                let scoring = DenseScoring::Sweep {
                    deadlines: &FIG04_DEADLINES,
                    sums: &mut sums,
                };
                replay::dense_trial(&cfg, &opts, 0, scoring, &mut lt);
                ensure(
                    *rows == sums.rows(&FIG04_DEADLINES),
                    "replayed sweep rows differ from the untraced rows",
                )?;
                // The sweep reports rows only; its counters come from the
                // point entry point at the sweep's horizon, which draws the
                // same trial streams in the same order.
                let point = catch_unwind(AssertUnwindSafe(|| run_random_graph_point(&cfg, &opts)))
                    .map_err(|_| "the counter reference point panicked".to_string())?;
                untraced_counters.merge(&point.sim_counters);
            }
            (SimWorkload::WireCodedPoint, Output::Point(point)) => {
                replay::dense_trial(&cfg, &opts, 0, DenseScoring::Point, &mut lt);
                no_wire.merge(&replay::dense_engine_without_wire(&cfg, &opts, 0, &mut lt));
                untraced_counters.merge(&point.sim_counters);
            }
            (SimWorkload::SparseScale, Output::Point(point)) => {
                replay::sparse_trial(&cfg, SPARSE_DEGREE, &opts, 0, &mut lt);
                untraced_counters.merge(&point.sim_counters);
            }
            _ => unreachable!("sweeps yield rows and points yield summaries"),
        }
    }
    compare_counters(&lt.counters, &untraced_counters)?;
    if w == SimWorkload::WireCodedPoint {
        compare_counters(&no_wire, &untraced_counters)
            .map_err(|e| format!("wire mode changed the results: {e}"))?;
    }

    let mut m = Metrics::default();
    trial_layer_metrics(&mut m, &lt, untraced_s);
    if w == SimWorkload::WireCodedPoint {
        crypto_codec_metrics(&mut m, &lt, &cfg);
    } else {
        zero_crypto_codec_metrics(&mut m);
    }
    crate::serve_mix::zero_metrics(&mut m);
    Ok(Outcome {
        metrics: m,
        attempted: trials as u64,
        failed,
    })
}

/// The replay's engine counters must equal the untraced run's.
fn compare_counters(replayed: &SimCounters, untraced: &SimCounters) -> Result<(), String> {
    let pairs = [
        ("contacts", replayed.contacts, untraced.contacts),
        (
            "forwards",
            replayed.total_forwards(),
            untraced.total_forwards(),
        ),
        ("delivered", replayed.delivered, untraced.delivered),
    ];
    for (name, r, u) in pairs {
        ensure(
            r == u,
            &format!("replayed {name} {r} differ from the untraced run's {u}"),
        )?;
    }
    Ok(())
}

fn ms_per_trial(d: Duration, trials: u64) -> f64 {
    d.as_secs_f64() * 1e3 / trials.max(1) as f64
}

fn ns_per(d: Duration, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        d.as_secs_f64() * 1e9 / n as f64
    }
}

/// Per-trial layer times and counts of a replayed block.
fn trial_layer_metrics(m: &mut Metrics, lt: &LayerTimes, untraced_s: f64) {
    let n = lt.trials;
    let per = |d| ms_per_trial(d, n);
    let c = &lt.counters;
    m.push("contact_graph.world_ms", per(lt.world), "ms");
    m.push("contact_graph.schedule_ms", per(lt.schedule), "ms");
    m.push("contact_graph.events", (lt.events / n) as f64, "count");
    let event_time = if lt.schedule > Duration::ZERO {
        lt.schedule
    } else {
        lt.calendar_drain
    };
    m.push(
        "contact_graph.ns_per_event",
        ns_per(event_time, lt.events),
        "ns",
    );
    m.push("dtn_sim.engine_ms", per(lt.engine), "ms");
    m.push(
        "dtn_sim.ns_per_contact",
        ns_per(lt.engine, c.contacts),
        "ns",
    );
    m.push("dtn_sim.contacts", (c.contacts / n) as f64, "count");
    m.push("dtn_sim.forwards", (c.total_forwards() / n) as f64, "count");
    m.push("dtn_sim.delivered", c.delivered as f64 / n as f64, "count");
    m.push("dtn_sim.calendar_build_ms", per(lt.calendar_build), "ms");
    m.push("dtn_sim.calendar_drain_ms", per(lt.calendar_drain), "ms");
    m.push("dtn_sim.world_bytes", lt.world_bytes as f64, "bytes");
    m.push("dtn_sim.calendar_bytes", lt.calendar_bytes as f64, "bytes");
    m.push("onion_routing.setup_ms", per(lt.setup), "ms");
    m.push("onion_routing.score_ms", per(lt.score), "ms");
    m.push(
        "onion_routing.unattributed_share",
        1.0 - lt.total().as_secs_f64() / untraced_s,
        "share",
    );
    m.push("analysis.path_rates_ms", per(lt.path_rates), "ms");
    m.push("analysis.delivery_eval_ms", per(lt.delivery_eval), "ms");
}

/// Names of the per-trial layer metrics, reported as 0 where no trial runs.
const TRIAL_LAYER_METRICS: [(&str, &str); 18] = [
    ("contact_graph.world_ms", "ms"),
    ("contact_graph.schedule_ms", "ms"),
    ("contact_graph.events", "count"),
    ("contact_graph.ns_per_event", "ns"),
    ("dtn_sim.engine_ms", "ms"),
    ("dtn_sim.ns_per_contact", "ns"),
    ("dtn_sim.contacts", "count"),
    ("dtn_sim.forwards", "count"),
    ("dtn_sim.delivered", "count"),
    ("dtn_sim.calendar_build_ms", "ms"),
    ("dtn_sim.calendar_drain_ms", "ms"),
    ("dtn_sim.world_bytes", "bytes"),
    ("dtn_sim.calendar_bytes", "bytes"),
    ("onion_routing.setup_ms", "ms"),
    ("onion_routing.score_ms", "ms"),
    ("onion_routing.unattributed_share", "share"),
    ("analysis.path_rates_ms", "ms"),
    ("analysis.delivery_eval_ms", "ms"),
];

const CRYPTO_CODEC_METRICS: [(&str, &str); 11] = [
    ("onion_crypto.build_us", "us"),
    ("onion_crypto.peel_us", "us"),
    ("onion_crypto.packets_built", "count"),
    ("onion_crypto.packets_peeled", "count"),
    ("onion_crypto.bytes_sent", "bytes"),
    ("onion_crypto.trial_ms", "ms"),
    ("onion_crypto.trial_est_ms", "ms"),
    ("onion_codec.encode_us", "us"),
    ("onion_codec.decode_us", "us"),
    ("onion_codec.fragments", "count"),
    ("onion_codec.decodes", "count"),
];

fn zero_crypto_codec_metrics(m: &mut Metrics) {
    for (name, unit) in CRYPTO_CODEC_METRICS {
        m.push(name, 0.0, unit);
    }
}

/// Every trial-side per-layer metric as 0, for workloads that run no trial.
pub fn zero_trial_metrics(m: &mut Metrics) {
    for (name, unit) in TRIAL_LAYER_METRICS {
        m.push(name, 0.0, unit);
    }
    zero_crypto_codec_metrics(m);
}

/// Median per-call time in µs of `f`, over batches of `batch` calls.
fn per_call_us(batch: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    for _ in 0..15 {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t0.elapsed().as_secs_f64() * 1e6 / batch as f64);
    }
    stats::median(&samples)
}

/// Wire-crypto and codec layers: per-call costs of the calls the engine
/// makes, the counts it made, and the wire layer's share of a trial both
/// measured (engine time wire on − wire off) and estimated (counts × cost).
fn crypto_codec_metrics(m: &mut Metrics, lt: &LayerTimes, cfg: &ProtocolConfig) {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0B5E_55ED);
    let groups = OnionGroups::random_partition(cfg.nodes, cfg.group_size, &mut rng);
    let route = groups
        .select_route(cfg.onions, &mut rng)
        .expect("Table II has enough groups for K");
    let relay = groups.members(route[0])[0];
    let ctx = OnionCryptoContext::new([7u8; 32], groups);
    let payload = [0x5Au8; CODED_PAYLOAD_LEN];
    let destination = contact_graph::NodeId(1);
    let mut packet = WirePacket::zeroed();
    let build_us = per_call_us(200, || {
        ctx.build_wire_into(&mut packet, &route, destination, &payload, &mut rng)
            .expect("route fits the wire body");
    });
    let built = packet.clone();
    let peel_us = per_call_us(200, || {
        packet.copy_from(&built);
        std::hint::black_box(
            ctx.peel_wire_as(&mut packet, relay, &mut rng)
                .expect("relay holds the first group's key"),
        );
    });
    let codec = onion_codec::RsCodec::new(2, 4).expect("(2, 4) is a valid code");
    let data: Vec<u8> = (0..CODED_PAYLOAD_LEN as u8).collect();
    let encode_us = per_call_us(2_000, || {
        std::hint::black_box(codec.encode(std::hint::black_box(&data)));
    });
    let frags = codec.encode(&data);
    let decode_us = per_call_us(2_000, || {
        let got = codec
            .decode(&[(1, &frags[1]), (3, &frags[3])], data.len())
            .expect("any two of four fragments decode");
        std::hint::black_box(got);
    });

    let n = lt.trials.max(1);
    let c = &lt.counters;
    let per = |x: u64| x as f64 / n as f64;
    m.push("onion_crypto.build_us", build_us, "us");
    m.push("onion_crypto.peel_us", peel_us, "us");
    m.push(
        "onion_crypto.packets_built",
        per(c.wire_packets_built),
        "count",
    );
    m.push(
        "onion_crypto.packets_peeled",
        per(c.wire_packets_peeled),
        "count",
    );
    m.push("onion_crypto.bytes_sent", per(c.wire_bytes_sent), "bytes");
    let wire_ms = ms_per_trial(lt.engine.saturating_sub(lt.engine_no_wire), n);
    m.push("onion_crypto.trial_ms", wire_ms, "ms");
    let est_ms =
        (per(c.wire_packets_built) * build_us + per(c.wire_packets_peeled) * peel_us) / 1e3;
    m.push("onion_crypto.trial_est_ms", est_ms, "ms");
    m.push("onion_codec.encode_us", encode_us, "us");
    m.push("onion_codec.decode_us", decode_us, "us");
    m.push("onion_codec.fragments", per(c.fragments_injected), "count");
    m.push("onion_codec.decodes", per(c.decode_successes), "count");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny config: the replay of a few trials reproduces the library's
    /// counters and sweep rows exactly.
    #[test]
    fn replay_counters_match_on_a_tiny_config() {
        let cfg = ProtocolConfig {
            nodes: 30,
            group_size: 3,
            onions: 2,
            compromised: 3,
            deadline: TimeDelta::new(300.0),
            ..ProtocolConfig::table2_defaults()
        };
        let opts = ExperimentOptions::builder()
            .messages(4)
            .realizations(3)
            .seed(11)
            .threads(1)
            .build();
        let point = run_random_graph_point(&cfg, &opts);
        let mut lt = LayerTimes::default();
        let mut sums = SweepSums::new(2);
        for trial in 0..3 {
            let scoring = DenseScoring::Sweep {
                deadlines: &[100.0, 300.0],
                sums: &mut sums,
            };
            replay::dense_trial(&cfg, &opts, trial, scoring, &mut lt);
        }
        assert!(point.sim_counters.contacts > 0);
        compare_counters(&lt.counters, &point.sim_counters).unwrap();
        let rows = SweepSpec::random_graph(cfg.clone())
            .over_deadlines(&[100.0, 300.0])
            .run(&opts)
            .into_delivery()
            .unwrap();
        assert_eq!(rows, sums.rows(&[100.0, 300.0]));

        // A different seed gives different counters, so the check bites.
        let other = run_random_graph_point(&cfg, &opts.clone().into_builder().seed(12).build());
        assert!(compare_counters(&lt.counters, &other.sim_counters).is_err());
    }

    #[test]
    fn sparse_replay_counters_match_on_a_tiny_world() {
        let cfg = sparse_config(300);
        let opts = SimWorkload::SparseScale.options(5, 2);
        let scenario = SparseScenario {
            avg_degree: SPARSE_DEGREE,
        };
        let point = run_sparse_point(&cfg, &scenario, &opts);
        let mut lt = LayerTimes::default();
        for trial in 0..2 {
            replay::sparse_trial(&cfg, SPARSE_DEGREE, &opts, trial, &mut lt);
        }
        assert!(lt.counters.contacts > 0);
        compare_counters(&lt.counters, &point.sim_counters).unwrap();
    }

    #[test]
    fn rows_that_fall_with_the_deadline_are_rejected() {
        let row = |deadline, sim| DeliverySweepRow {
            deadline,
            analysis: 0.5,
            sim,
        };
        let mut rows: Vec<_> = FIG04_DEADLINES.iter().map(|&t| row(t, 0.4)).collect();
        assert!(check_rows(&rows).is_ok());
        rows[3].sim = 0.2;
        assert!(check_rows(&rows).is_err());
    }
}
