//! Single-core Monte-Carlo throughput harness for the fig04-style sweep.
//!
//! Times the fig04 deadline sweep (`SweepSpec::random_graph` +
//! `over_deadlines`) at Table II defaults on one thread, cross-checks
//! bit-identity of the rows against a threads=2 run, and emits a JSON
//! record shaped like `BENCH_serve.json`.
//!
//! ```text
//! cargo run --release --example bench_sim -- \
//!     [--realizations N] [--scale] [--out PATH] [--check-against BENCH_sim.json]
//! ```
//!
//! `--scale` additionally runs the sparse-engine scale curve: one
//! `run_sparse_point` per n ∈ {10², 10³, 10⁴, 10⁵} (CSR world +
//! calendar event queue), reporting trials/s and the process peak RSS
//! (`VmHWM` from `/proc/self/status`) after each size. The RSS column is
//! a process-wide high-water mark, so it is monotone across the curve;
//! the n = 10⁵ row is the number the CI scale-smoke ceiling checks. Each
//! row also records the engine's delivery and transmissions per message:
//! onion groups are drawn uniformly over all n nodes while a node meets
//! only ~10 neighbours, so from n = 10³ up the protocol is all but idle
//! and the curve times the event drain.
//!
//! `--check-against` compares trials/s to the committed baseline's
//! `after.trials_per_sec` and exits non-zero on a >2x regression. The
//! bound is deliberately generous: trials/s is roughly independent of
//! realization count, but single-core CI containers are noisy.

use std::time::Instant;

use contact_graph::TimeDelta;
use onion_routing::{
    run_sparse_point, ExperimentOptions, ProtocolConfig, SparseScenario, SweepSpec,
};
use serde::Serialize;

#[derive(Serialize)]
struct ScalePoint {
    nodes: usize,
    avg_degree: f64,
    realizations: usize,
    elapsed_secs: f64,
    trials_per_sec: f64,
    peak_rss_bytes: u64,
    sim_delivery: f64,
    sim_transmissions: f64,
}

#[derive(Serialize)]
struct BenchRecord {
    workload: &'static str,
    config: &'static str,
    deadlines: Vec<f64>,
    messages: usize,
    seed: u64,
    realizations: usize,
    threads: usize,
    elapsed_secs: f64,
    trials_per_sec: f64,
    per_trial_ms: f64,
    rows_bit_identical_threads_1_2: bool,
    scale_curve: Vec<ScalePoint>,
}

fn fail(msg: &str) -> ! {
    eprintln!("bench_sim: {msg}");
    std::process::exit(2);
}

/// Process peak resident set (`VmHWM`) in bytes, from `/proc/self/status`.
/// Returns 0 on platforms without procfs rather than failing the bench.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// One sparse point per decade of n: the trials/s-vs-n curve for the
/// CSR + calendar-queue engine. Realization counts shrink with n so the
/// whole curve stays a few minutes even at n = 10⁵.
fn scale_curve() -> Vec<ScalePoint> {
    let sizes: [(usize, usize); 4] = [(100, 20), (1_000, 10), (10_000, 3), (100_000, 1)];
    let mut curve = Vec::new();
    for (nodes, realizations) in sizes {
        let cfg = ProtocolConfig {
            nodes,
            compromised: nodes / 10,
            deadline: TimeDelta::new(720.0),
            ..ProtocolConfig::table2_defaults()
        };
        let sparse = SparseScenario { avg_degree: 10.0 };
        let opts = ExperimentOptions::builder()
            .messages(5)
            .realizations(realizations)
            .seed(0xF1_604)
            .threads(1)
            .build();
        eprintln!("bench_sim: sparse point n={nodes}, {realizations} realization(s) ...");
        let t0 = Instant::now();
        let point = run_sparse_point(&cfg, &sparse, &opts);
        let elapsed = t0.elapsed().as_secs_f64();
        let rss = peak_rss_bytes();
        eprintln!(
            "bench_sim: n={nodes}: {elapsed:.2} s ({:.2} trials/s), delivery {:.3}, \
             {:.2} tx/msg, peak RSS {:.1} MiB",
            realizations as f64 / elapsed,
            point.sim_delivery,
            point.sim_transmissions,
            rss as f64 / (1024.0 * 1024.0)
        );
        curve.push(ScalePoint {
            nodes,
            avg_degree: 10.0,
            realizations,
            elapsed_secs: elapsed,
            trials_per_sec: realizations as f64 / elapsed,
            peak_rss_bytes: rss,
            sim_delivery: point.sim_delivery,
            sim_transmissions: point.sim_transmissions,
        });
    }
    curve
}

fn main() {
    let mut realizations: usize = 1000;
    let mut scale = false;
    let mut out: Option<String> = None;
    let mut check_against: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| {
            args.get(i + 1)
                .unwrap_or_else(|| fail(&format!("{} needs a value", args[i])))
                .clone()
        };
        match args[i].as_str() {
            "--realizations" => {
                realizations = need(i)
                    .parse()
                    .unwrap_or_else(|_| fail("--realizations must be a positive integer"));
                i += 2;
            }
            "--scale" => {
                scale = true;
                i += 1;
            }
            "--out" => {
                out = Some(need(i));
                i += 2;
            }
            "--check-against" => {
                check_against = Some(need(i));
                i += 2;
            }
            other => fail(&format!("unknown flag {other}")),
        }
    }
    if realizations == 0 {
        fail("--realizations must be a positive integer");
    }

    let cfg = ProtocolConfig::table2_defaults();
    let deadlines = [60.0f64, 180.0, 360.0, 720.0, 1080.0];
    let opts = |threads: usize| {
        ExperimentOptions::builder()
            .messages(5)
            .realizations(realizations)
            .seed(0xF1_604)
            .threads(threads)
            .build()
    };

    eprintln!("bench_sim: fig04-style sweep, {realizations} realizations, threads=1 ...");
    let t0 = Instant::now();
    let spec = SweepSpec::random_graph(cfg.clone()).over_deadlines(&deadlines);
    let rows = spec
        .run(&opts(1))
        .into_delivery()
        .expect("deadline axis yields delivery rows");
    let elapsed = t0.elapsed().as_secs_f64();
    let trials_per_sec = realizations as f64 / elapsed;
    let per_trial_ms = elapsed * 1e3 / realizations as f64;
    eprintln!(
        "bench_sim: {elapsed:.2} s ({trials_per_sec:.1} trials/s, {per_trial_ms:.2} ms/trial)"
    );

    // Determinism cross-check: the same sweep on two threads must produce
    // byte-identical rows.
    let rows_json = serde_json::to_string(&rows).expect("rows serialize");
    let rows2 = spec
        .run(&opts(2))
        .into_delivery()
        .expect("deadline axis yields delivery rows");
    let rows2_json = serde_json::to_string(&rows2).expect("rows serialize");
    assert_eq!(
        rows_json, rows2_json,
        "threads=1 and threads=2 rows must be bit-identical"
    );
    eprintln!("bench_sim: threads=1 vs threads=2 rows bit-identical");

    let scale_points = if scale { scale_curve() } else { Vec::new() };

    let record = BenchRecord {
        workload: "fig04_delivery_sweep_random_graph",
        config: "table2_defaults",
        deadlines: deadlines.to_vec(),
        messages: 5,
        seed: 0xF1_604,
        realizations,
        threads: 1,
        elapsed_secs: elapsed,
        trials_per_sec,
        per_trial_ms,
        rows_bit_identical_threads_1_2: true,
        scale_curve: scale_points,
    };
    let rendered = serde_json::to_string_pretty(&record).expect("record serializes");
    println!("{rendered}");
    if let Some(path) = out {
        std::fs::write(&path, format!("{rendered}\n"))
            .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        eprintln!("bench_sim: wrote {path}");
    }

    if let Some(path) = check_against {
        let baseline = serde_json::parse_value(
            &std::fs::read_to_string(&path)
                .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}"))),
        )
        .unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")));
        let committed = match baseline.get("after").and_then(|a| a.get("trials_per_sec")) {
            Some(serde::Value::Float(v)) => *v,
            Some(serde::Value::UInt(v)) => *v as f64,
            Some(serde::Value::Int(v)) => *v as f64,
            _ => fail(&format!("{path} has no after.trials_per_sec")),
        };
        eprintln!(
            "bench_sim: committed baseline {committed:.1} trials/s, measured {trials_per_sec:.1}"
        );
        if trials_per_sec < committed / 2.0 {
            eprintln!(
                "bench_sim: FAIL — throughput regressed more than 2x vs the committed baseline"
            );
            std::process::exit(1);
        }
        eprintln!("bench_sim: within the 2x regression bound");
    }
}
