//! The lifecycle trace must be a pure observer, exactly like metrics:
//! enabling tracing may not perturb a single bit of the experiment
//! results, at any thread count, and the trace file itself is the same
//! at every thread count. Also covered here: ring-buffer eviction
//! semantics (a proptest) and the flight recorder's crash bundle —
//! written exactly once for a quarantined trial, parseable, and
//! carrying the seed that deterministically reproduces the panic.

use std::path::PathBuf;

use obs::{CrashBundleHeader, TraceEvent, TraceRing};
use onion_dtn::prelude::*;
use onion_routing::{run_trials_resilient, RunnerConfig};
use proptest::prelude::*;

fn small_point() -> (ProtocolConfig, ExperimentOptions) {
    let cfg = ProtocolConfig {
        nodes: 40,
        group_size: 4,
        onions: 2,
        compromised: 4,
        deadline: TimeDelta::new(240.0),
        ..ProtocolConfig::table2_defaults()
    };
    let opts = ExperimentOptions::builder()
        .messages(6)
        .realizations(4)
        .seed(0x7E1E_3E7A)
        .threads(1)
        .build();
    (cfg, opts)
}

/// A scratch directory unique to this test process.
fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("onion-dtn-{label}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// One test function (not several) so the global trace toggles cannot
/// race between parallel test threads within this binary — the same
/// structure `telemetry_determinism.rs` uses for the metrics gate.
#[test]
fn trace_on_and_off_produce_bit_identical_summaries_and_crash_bundles() {
    let (cfg, opts) = small_point();

    // ---- Purity: trace off vs on, across thread counts. ----
    obs::set_trace_enabled(false);
    let quiet = run_random_graph_point(&cfg, &opts);

    let dir = scratch_dir("trace-det");
    obs::set_trace_capacity(64); // small cap: exercise eviction mid-run
    obs::set_trace_enabled(true);
    let mut files = Vec::new();
    for threads in [1usize, 2, 8] {
        let trace_path = dir.join(format!("trace-{threads}.jsonl"));
        obs::set_trace_path(Some(&trace_path)).expect("create trace file");
        let traced =
            run_random_graph_point(&cfg, &opts.clone().into_builder().threads(threads).build());
        assert_eq!(
            quiet, traced,
            "tracing must not perturb results (threads={threads})"
        );
        assert_eq!(
            serde_json::to_string(&quiet).unwrap(),
            serde_json::to_string(&traced).unwrap(),
            "serialized summaries must be byte-identical (threads={threads})"
        );
        files.push(std::fs::read_to_string(&trace_path).expect("trace file written"));
    }

    // The runs' blocks are written in trial order, so the files are one.
    assert_eq!(files[0], files[1], "trace at threads 1 vs 2");
    assert_eq!(files[0], files[2], "trace at threads 1 vs 8");
    // It holds parseable per-trial JSONL lines, one block per trial.
    let text = &files[0];
    assert!(!text.trim().is_empty(), "trace output is non-empty");
    let mut blocks = Vec::new();
    for line in text.lines() {
        let value = serde_json::parse_value(line).expect("trace line parses as JSON");
        let trial = match value.get("trial") {
            Some(serde::Value::UInt(trial)) => *trial,
            other => panic!("line carries trial {other:?}: {line}"),
        };
        if blocks.last() != Some(&trial) {
            blocks.push(trial);
        }
        assert!(value.get("seq").is_some(), "line carries seq: {line}");
        assert!(value.get("event").is_some(), "line carries event: {line}");
    }
    assert_eq!(blocks, [0, 1, 2, 3], "one block per trial, in trial order");

    // ---- Flight recorder: quarantined trial -> exactly one bundle. ----
    let crash_dir = scratch_dir("trace-crash");
    for stale in std::fs::read_dir(&crash_dir).expect("list crash dir") {
        std::fs::remove_file(stale.expect("entry").path()).expect("clean crash dir");
    }
    obs::set_crash_sink(&crash_dir, "fingerprint-under-test", 0xF1_604);
    let poisoned_trial = 1usize;
    let job = |trial: usize, _attempt: u32| -> usize {
        obs::trace_ring_begin(trial as u64);
        obs::trace_event(|| TraceEvent::Inject {
            time: 0.0,
            message: trial as u64,
            source: 0,
            destination: 9,
        });
        obs::trace_event(|| TraceEvent::Deliver {
            time: 1.0,
            message: trial as u64,
            node: 9,
        });
        assert!(
            trial != poisoned_trial,
            "poisoned trial {trial} panics deterministically"
        );
        trial
    };
    let mut done = Vec::new();
    let failures = run_trials_resilient(&RunnerConfig::new(2), 4, job, &mut done, |acc, _, v| {
        acc.push(v)
    });
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].trial, poisoned_trial);
    assert_eq!(failures[0].attempts, 2);
    assert_eq!(done.len(), 3, "the other trials completed");

    let bundles: Vec<PathBuf> = std::fs::read_dir(&crash_dir)
        .expect("list crash dir")
        .map(|e| e.expect("entry").path())
        .collect();
    assert_eq!(
        bundles.len(),
        1,
        "exactly one crash bundle per quarantined trial: {bundles:?}"
    );
    assert_eq!(
        bundles[0].file_name().and_then(|n| n.to_str()),
        Some("crash-trial1.jsonl")
    );
    let bundle = std::fs::read_to_string(&bundles[0]).expect("read bundle");
    let mut lines = bundle.lines();
    let header: CrashBundleHeader =
        serde_json::from_str(lines.next().expect("header line")).expect("header parses");
    assert_eq!(header.schema, obs::CRASH_BUNDLE_SCHEMA);
    assert_eq!(header.fingerprint, "fingerprint-under-test");
    assert_eq!(header.seed, 0xF1_604);
    assert_eq!(header.trial, poisoned_trial as u64);
    assert_eq!(header.attempts, 2);
    assert!(header.message.contains("poisoned trial 1"));
    assert_eq!(header.events, 2, "both ring events were dumped");
    let events: Vec<TraceEvent> = lines
        .map(|l| {
            let value = serde_json::parse_value(l).expect("event line parses");
            assert!(value.get("seq").is_some());
            // Extra `trial`/`seq` keys are ignored by the decoder: the
            // event fields are flattened into the same object.
            serde_json::from_str::<TraceEvent>(l).expect("event decodes")
        })
        .collect();
    assert_eq!(events.len(), header.events as usize);
    assert!(matches!(events[0], TraceEvent::Inject { message: 1, .. }));
    assert!(matches!(events[1], TraceEvent::Deliver { message: 1, .. }));

    // Replay: the recorded trial id reproduces the panic deterministically.
    let replay = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        job(header.trial as usize, 0)
    }));
    assert!(replay.is_err(), "recorded trial must reproduce its panic");

    // ---- Teardown: leave the global recorder as we found it. ----
    obs::clear_crash_sink();
    obs::set_trace_enabled(false);
    obs::set_trace_path(None).expect("clear trace path");
    obs::set_trace_capacity(obs::DEFAULT_TRACE_CAP);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The ring keeps exactly the newest `cap` events, in push order,
    /// and reports how many older events were evicted.
    #[test]
    fn ring_evicts_oldest_first(cap in 1usize..32, pushes in 0usize..100) {
        let mut ring = TraceRing::new(7, cap);
        for i in 0..pushes {
            ring.push(TraceEvent::FaultCrash { time: i as f64, node: i as u64 });
        }
        prop_assert_eq!(ring.trial(), 7);
        prop_assert_eq!(ring.pushed(), pushes as u64);
        prop_assert_eq!(ring.len(), pushes.min(cap));
        prop_assert_eq!(ring.dropped(), pushes.saturating_sub(cap) as u64);
        let survivors: Vec<u64> = ring
            .iter()
            .map(|e| match e {
                TraceEvent::FaultCrash { node, .. } => *node,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        let expected: Vec<u64> =
            (pushes.saturating_sub(cap)..pushes).map(|i| i as u64).collect();
        prop_assert_eq!(survivors, expected, "oldest events evicted first, order kept");
    }
}
