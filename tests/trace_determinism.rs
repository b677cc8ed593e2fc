//! The lifecycle trace must be a pure observer, exactly like metrics:
//! enabling tracing may not perturb a single bit of the experiment
//! results, at any thread count, and the trace file itself is the same
//! at every thread count. Also covered here: ring-buffer eviction
//! semantics (a proptest) and the flight recorder — a quarantined
//! trial keeps its block at its trial position, closed by a
//! `quarantine` event, and a trial whose retry succeeds keeps only the
//! retry's events.

use std::path::PathBuf;

use obs::{TraceEvent, TraceRing};
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
fn trace_on_and_off_produce_bit_identical_summaries_and_trial_blocks() {
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

    // ---- Flight recorder: every trial's block, in trial order. ----
    // Trial 1 panics on both attempts; trial 2 only on its first.
    let (poisoned, flaky) = (1usize, 2usize);
    let job = |trial: usize, attempt: u32| -> usize {
        let (message, node) = (trial as u64, u64::from(attempt));
        obs::trace_event(|| TraceEvent::Inject {
            time: 0.5,
            message,
            source: node,
            destination: 9,
        });
        obs::trace_event(|| TraceEvent::Deliver {
            time: 1.5 + f64::from(attempt),
            message,
            node,
        });
        assert!(
            trial != poisoned,
            "poisoned trial {trial} panics deterministically"
        );
        assert!(
            (trial, attempt) != (flaky, 0),
            "flaky trial {trial} panics on its first attempt"
        );
        trial
    };
    let mut files = Vec::new();
    for threads in [1usize, 2] {
        let trace_path = dir.join(format!("resilient-{threads}.jsonl"));
        obs::set_trace_path(Some(&trace_path)).expect("create trace file");
        let mut done = Vec::new();
        let failures = run_trials_resilient(
            &RunnerConfig::new(threads),
            4,
            job,
            &mut done,
            |acc, _, v| acc.push(v),
        );
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].trial, poisoned);
        assert_eq!(failures[0].attempts, 2);
        assert_eq!(done, [0, 2, 3], "the other trials folded");
        files.push(std::fs::read_to_string(&trace_path).expect("trace file written"));
    }
    assert_eq!(files[0], files[1], "trace at threads 1 vs 2");
    let mut blocks: Vec<(u64, Vec<TraceEvent>)> = Vec::new();
    for line in files[0].lines() {
        let value = serde_json::parse_value(line).expect("trace line parses");
        let Some(serde::Value::UInt(trial)) = value.get("trial") else {
            panic!("line carries no trial: {line}");
        };
        if blocks.last().map(|b| b.0) != Some(*trial) {
            blocks.push((*trial, Vec::new()));
        }
        // The decoder ignores the extra `trial`/`seq` keys.
        let event = serde_json::from_str(line).expect("event decodes");
        blocks.last_mut().expect("a block").1.push(event);
    }
    let trials: Vec<u64> = blocks.iter().map(|b| b.0).collect();
    assert_eq!(trials, [0, 1, 2, 3], "one block per trial, in trial order");
    // The quarantined block: its retry's events, then the quarantine at
    // the time of the last of them.
    let events = &blocks[poisoned].1;
    assert_eq!(events.len(), 3, "{events:?}");
    assert!(matches!(events[0], TraceEvent::Inject { source: 1, .. }));
    assert!(matches!(events[1], TraceEvent::Deliver { node: 1, .. }));
    match &events[2] {
        TraceEvent::Quarantine {
            time,
            attempts,
            message,
        } => {
            assert_eq!(*time, events[1].time());
            assert_eq!(*attempts, 2);
            assert!(message.contains("poisoned trial 1"), "{message}");
        }
        other => panic!("the block ends with {other:?}"),
    }
    // The recovered block holds only the retry's events.
    let events = &blocks[flaky].1;
    assert_eq!(events.len(), 2, "{events:?}");
    assert!(matches!(events[0], TraceEvent::Inject { source: 1, .. }));
    assert!(matches!(events[1], TraceEvent::Deliver { node: 1, .. }));

    // Replay: the recorded trial id reproduces the panic deterministically.
    let replay = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        job(trials[poisoned] as usize, 1)
    }));
    assert!(replay.is_err(), "recorded trial must reproduce its panic");

    // ---- Teardown: leave the global recorder as we found it. ----
    obs::set_trace_enabled(false);
    obs::set_trace_path(None).expect("clear trace path");
    obs::set_trace_capacity(obs::DEFAULT_TRACE_CAP);
    let _ = std::fs::remove_dir_all(&dir);
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
