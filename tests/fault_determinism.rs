//! Determinism contracts for the fault-injection layer:
//!
//! * a zero-rate fault plan is **bit-identical** to running without any
//!   fault support at all (no stray RNG draws);
//! * faulted experiments are bit-identical across thread counts (faults
//!   draw from their own per-trial seed domain, never shared state);
//! * a checkpointed sweep killed mid-run and resumed — including from a
//!   torn final line — reproduces the uninterrupted results
//!   byte-for-byte;
//! * a deliberately panicking trial is quarantined without aborting the
//!   sweep, and the retry seed is deterministic.

use onion_dtn::onion_routing::SweepControls;
use onion_dtn::prelude::*;
use proptest::prelude::*;

fn small_cfg() -> ProtocolConfig {
    ProtocolConfig {
        nodes: 40,
        group_size: 4,
        onions: 2,
        compromised: 4,
        deadline: TimeDelta::new(240.0),
        ..ProtocolConfig::table2_defaults()
    }
}

fn small_opts(seed: u64) -> ExperimentOptions {
    ExperimentOptions::builder()
        .messages(6)
        .realizations(3)
        .seed(seed)
        .threads(2)
        .build()
}

fn faulty_plan() -> FaultPlan {
    FaultPlan {
        churn: Some(ChurnConfig {
            crash_rate: 0.004,
            mean_downtime: 60.0,
            memory: ChurnMemory::Forget,
        }),
        contact_failure: 0.15,
        transfer_truncation: 0.1,
        message_loss: 0.05,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any zero-rate plan — with or without a zero-rate churn block —
    /// must be indistinguishable from the fault-free baseline, down to
    /// the last bit of the serialized summary.
    #[test]
    fn zero_rate_plan_is_bit_identical_to_baseline(
        seed in 0u64..1000,
        with_churn_block in any::<bool>(),
        forget in any::<bool>(),
    ) {
        let cfg = small_cfg();
        let baseline = run_random_graph_point(&cfg, &small_opts(seed));
        let zero_plan = FaultPlan {
            churn: with_churn_block.then_some(ChurnConfig {
                crash_rate: 0.0,
                mean_downtime: 60.0,
                memory: if forget { ChurnMemory::Forget } else { ChurnMemory::Persist },
            }),
            ..FaultPlan::default()
        };
        let faulted = run_random_graph_point(
            &cfg,
            &small_opts(seed).into_builder().faults(zero_plan).build(),
        );
        prop_assert_eq!(
            serde_json::to_string(&baseline).unwrap(),
            serde_json::to_string(&faulted).unwrap()
        );
    }
}

#[test]
fn faulted_point_is_bit_identical_across_thread_counts() {
    let cfg = small_cfg();
    let base = small_opts(0xFA17)
        .into_builder()
        .faults(faulty_plan())
        .build();
    let reference = run_random_graph_point(&cfg, &base.clone().into_builder().threads(1).build());
    assert!(
        reference.sim_counters.fault_contacts_dropped > 0,
        "plan must actually bite for the test to mean anything"
    );
    for threads in [2, 8] {
        let got =
            run_random_graph_point(&cfg, &base.clone().into_builder().threads(threads).build());
        assert_eq!(
            serde_json::to_string(&reference).unwrap(),
            serde_json::to_string(&got).unwrap(),
            "threads = {threads}"
        );
    }
}

#[test]
fn faulted_security_sweep_is_thread_count_invariant() {
    let cfg = small_cfg();
    let base = small_opts(0x5EC5)
        .into_builder()
        .faults(faulty_plan())
        .build();
    let cs = [2usize, 8];
    let spec = SweepSpec::random_graph(cfg.clone()).over_security(&cs, 2);
    let reference = spec
        .run(&base.clone().into_builder().threads(1).build())
        .into_security()
        .expect("security rows");
    let wide = spec
        .run(&base.clone().into_builder().threads(8).build())
        .into_security()
        .expect("security rows");
    assert_eq!(
        serde_json::to_string(&reference).unwrap(),
        serde_json::to_string(&wide).unwrap()
    );
}

/// A scratch dir cleaned up on drop, so failed tests don't pile up junk.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "onion-dtn-fault-determinism-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> std::path::PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn interrupted_fault_sweep_resumes_byte_identically() {
    let scratch = Scratch::new("resume");
    let cfg = small_cfg();
    let opts = small_opts(0xC0DE);
    let plan = faulty_plan();
    let intensities = [0.0, 0.5, 1.0];

    // Uninterrupted reference, no checkpoint involved.
    let spec = SweepSpec::random_graph(cfg.clone()).over_faults(plan, &intensities);
    let reference = spec.run(&opts).into_fault().expect("fault rows");
    let reference_json = serde_json::to_string(&reference).unwrap();

    // "Killed" run: only the first two points finish before the crash,
    // and the kill tears the final line of the checkpoint mid-write.
    let path = scratch.path("sweep.jsonl");
    let identity = spec.identity(&opts);
    let resume = |spec: &SweepSpec, cp: &Checkpoint| {
        let controls = SweepControls {
            cancel: None,
            rows: Some(cp),
        };
        let rows = spec.run_controlled(&opts, &controls).unwrap();
        cp.finish().unwrap();
        rows.into_fault().expect("fault rows")
    };
    {
        let cp = Checkpoint::open(&path, &identity).unwrap();
        let partial = SweepSpec::random_graph(cfg.clone()).over_faults(plan, &intensities[..2]);
        resume(&partial, &cp);
    }
    let full = std::fs::read(&path).unwrap();
    std::fs::write(&path, &full[..full.len() - 7]).unwrap(); // torn tail

    // Resume: the surviving complete point replays from the file; the
    // torn one and the never-started one are recomputed.
    let cp = Checkpoint::open(&path, &identity).unwrap();
    assert_eq!(cp.len(), 1, "torn final entry must have been discarded");
    let resumed = resume(&spec, &cp);
    assert_eq!(cp.resumed_points(), 1);
    assert_eq!(serde_json::to_string(&resumed).unwrap(), reference_json);

    // A second full resume replays every point without recomputing.
    let cp = Checkpoint::open(&path, &identity).unwrap();
    let replayed = resume(&spec, &cp);
    assert_eq!(cp.resumed_points(), intensities.len() as u64);
    assert_eq!(serde_json::to_string(&replayed).unwrap(), reference_json);
    drop(cp);

    // The same spec under another realization count is another run.
    let more = opts
        .clone()
        .into_builder()
        .realizations(opts.realizations + 1);
    let err = Checkpoint::open(&path, &spec.identity(&more.build())).unwrap_err();
    assert!(
        matches!(err, CheckpointError::FingerprintMismatch { .. }),
        "{err}"
    );
}

#[test]
fn panicking_trial_is_quarantined_without_aborting() {
    let mut folded: Vec<usize> = Vec::new();
    let failures = run_trials_resilient(
        &RunnerConfig::new(4),
        8,
        |trial, _attempt| {
            assert!(trial != 5, "trial 5 always panics");
            trial
        },
        &mut folded,
        |acc, _trial, value| acc.push(value),
    );
    assert_eq!(folded, vec![0, 1, 2, 3, 4, 6, 7]);
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].trial, 5);
    assert_eq!(failures[0].attempts, 2);
    assert!(failures[0].message.contains("trial 5 always panics"));
}

#[test]
fn retry_seed_is_deterministic_and_disambiguated() {
    let base = 0xFEED;
    for trial in 0..4u64 {
        let plain = trial_seed(base, SeedDomain::Faults, trial);
        assert_eq!(
            plain,
            trial_seed_attempt(base, SeedDomain::Faults, trial, 0),
            "attempt 0 must be the plain trial seed"
        );
        assert_ne!(
            plain,
            trial_seed_attempt(base, SeedDomain::Faults, trial, 1),
            "the retry must see a different stream"
        );
        assert_eq!(
            trial_seed_attempt(base, SeedDomain::Faults, trial, 1),
            trial_seed_attempt(base, SeedDomain::Faults, trial, 1),
            "...but a deterministic one"
        );
    }
}

#[test]
fn faults_degrade_delivery_but_raise_anonymity() {
    // A tight deadline so the fault-free rate is below saturation and
    // contact loss has something to take away.
    let cfg = ProtocolConfig {
        deadline: TimeDelta::new(90.0),
        ..small_cfg()
    };
    let opts = ExperimentOptions::builder()
        .messages(10)
        .realizations(6)
        .seed(0xD06_F00D)
        .threads(0)
        .build();
    let heavy = FaultPlan {
        contact_failure: 0.8,
        ..FaultPlan::default()
    };
    let rows = SweepSpec::random_graph(cfg.clone())
        .over_faults(heavy, &[0.0, 1.0])
        .run(&opts)
        .into_fault()
        .expect("fault rows");
    let (clean, faulted) = (&rows[0].summary, &rows[1].summary);
    assert!(
        faulted.sim_delivery < clean.sim_delivery,
        "losing 60% of contacts must hurt delivery ({} vs {})",
        faulted.sim_delivery,
        clean.sim_delivery
    );
    assert!(faulted.sim_counters.fault_contacts_dropped > 0);
    // Path anonymity under faults must not degrade: fewer completed
    // custody transfers expose fewer relays to the adversary (see
    // DESIGN.md). Allow a small tolerance for sampling noise.
    if let (Some(a0), Some(a1)) = (clean.sim_anonymity, faulted.sim_anonymity) {
        assert!(
            a1 >= a0 - 0.05,
            "anonymity should not fall under faults ({a1} vs {a0})"
        );
    }
}
