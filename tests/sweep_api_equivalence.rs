//! Golden bit-equality suite for the sweep API.
//!
//! Three layers of protection:
//!
//! 1. **Committed golden `PointSummary` fixtures** — the dense
//!    (`tests/golden/point_fig04_small.json`) and sparse
//!    (`tests/golden/point_sparse_small.json`) point runs, generated from
//!    the reference engine. Every hot-path change must reproduce them
//!    byte-for-byte at threads 1, 2, and 8 — this is what lets the perf
//!    work in `dtn_sim::engine` / `contact_graph` claim "no result bit
//!    changed".
//!
//! 2. **Committed golden sweep rows** (`tests/golden/sweep_*.json`) —
//!    every `SweepSpec` scenario × axis cell (random graph, schedule,
//!    trace and sparse worlds × deadline, security, fault and code axes;
//!    trace × fault/code excepted, whose analysis series follows the
//!    caller's trained rates) serializes its rows to the exact same bytes
//!    at threads 1 and 2, as do the schedule point and a wire + coded
//!    dense point. The sweep output itself is pinned, not an agreement
//!    between two code paths. A spec without an `over_*` call runs the
//!    point golden of its world.
//!
//! 3. **Committed golden keys** (`tests/golden/sweep_keys.json`) — the
//!    `SweepSpec::identity` key of every scenario × axis cell and of the
//!    fault and code row prefixes: the names of `--resume` checkpoints
//!    and of serve's cached and stored responses.
//!
//! A last pair of tests pins the default security grid and fault sweep
//! that serve and the CLI share.
//!
//! Regenerate all fixtures (only when a change is *meant* to alter
//! results, which requires sign-off in DESIGN.md) with:
//! `UPDATE_GOLDEN=1 cargo test --test sweep_api_equivalence`

use contact_graph::{ContactSchedule, Time, TimeDelta, UniformGraphBuilder};
use dtn_sim::FaultPlan;
use onion_routing::sweep::{default_fault_plan, default_security_grid, DEFAULT_FAULT_INTENSITIES};
use onion_routing::{
    run_random_graph_point, run_schedule_point, run_sparse_point, ExperimentOptions,
    ProtocolConfig, Scenario, SparseScenario, SweepReport, SweepSpec,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Value;

fn golden_path(name: &str) -> String {
    format!("{}/tests/golden/{name}.json", env!("CARGO_MANIFEST_DIR"))
}

/// Compares `computed` against the committed fixture `name`, rewriting
/// the fixture first when `UPDATE_GOLDEN` is set.
fn assert_matches_golden(name: &str, computed: &str, context: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, format!("{computed}\n")).expect("write golden fixture");
        eprintln!("updated {path}");
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden fixture missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        computed,
        golden.trim_end(),
        "{context} drifted from the committed golden {name}"
    );
}

/// Small fig04-flavored configuration: Table II defaults shrunk so the
/// golden run stays fast in debug test builds while still exercising the
/// full pipeline (graph → schedule → onion sim → Eq. 4–7 scoring).
fn golden_cfg() -> ProtocolConfig {
    ProtocolConfig {
        nodes: 40,
        group_size: 5,
        onions: 2,
        compromised: 4,
        deadline: TimeDelta::new(1080.0),
        ..ProtocolConfig::table2_defaults()
    }
}

fn golden_opts(threads: usize) -> ExperimentOptions {
    ExperimentOptions::builder()
        .messages(5)
        .realizations(10)
        .seed(0xF1_604)
        .threads(threads)
        .build()
}

#[test]
fn point_summary_matches_committed_golden_at_threads_1_2_8() {
    for threads in [1usize, 2, 8] {
        let computed = serde_json::to_string(&run_random_graph_point(
            &golden_cfg(),
            &golden_opts(threads),
        ))
        .expect("PointSummary serializes");
        assert_matches_golden(
            "point_fig04_small",
            &computed,
            &format!("dense PointSummary at threads={threads}"),
        );
    }
}

/// Sparse counterpart of the dense point golden: the CSR world +
/// calendar-queue engine path gets its own committed fixture, pinned at
/// the same three thread counts. Dense and sparse draw from disjoint
/// seed domains, so this fixture moving while the dense one holds (or
/// vice versa) localizes a regression to one engine path.
#[test]
fn sparse_point_summary_matches_committed_golden_at_threads_1_2_8() {
    let cfg = ProtocolConfig {
        nodes: 120,
        group_size: 4,
        onions: 2,
        compromised: 8,
        deadline: TimeDelta::new(720.0),
        ..ProtocolConfig::table2_defaults()
    };
    let sparse = SparseScenario { avg_degree: 12.0 };
    for threads in [1usize, 2, 8] {
        let computed =
            serde_json::to_string(&run_sparse_point(&cfg, &sparse, &golden_opts(threads)))
                .expect("PointSummary serializes");
        assert_matches_golden(
            "point_sparse_small",
            &computed,
            &format!("sparse PointSummary at threads={threads}"),
        );
    }
}

/// A fixed schedule + config pair for the schedule-flavored comparisons,
/// sized down so six sweeps stay fast in debug builds.
fn schedule_fixture() -> (ContactSchedule, ProtocolConfig) {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5C4E_D01E);
    let graph = UniformGraphBuilder::new(30).build(&mut rng);
    let schedule = ContactSchedule::sample(&graph, Time::new(900.0), &mut rng);
    let cfg = ProtocolConfig {
        nodes: 30,
        group_size: 3,
        onions: 2,
        compromised: 3,
        deadline: TimeDelta::new(720.0),
        ..ProtocolConfig::table2_defaults()
    };
    (schedule, cfg)
}

fn json<T: serde::Serialize>(rows: &T) -> String {
    serde_json::to_string(rows).expect("rows serialize")
}

#[test]
fn delivery_random_graph_matches_golden() {
    let cfg = golden_cfg();
    let deadlines = [180.0, 1080.0];
    for threads in [1usize, 2] {
        let rows = SweepSpec::random_graph(cfg.clone())
            .over_deadlines(&deadlines)
            .run(&golden_opts(threads))
            .into_delivery()
            .expect("delivery rows");
        assert_matches_golden(
            "sweep_delivery_rg",
            &json(&rows),
            &format!("random-graph delivery rows at threads={threads}"),
        );
    }
}

#[test]
fn delivery_schedule_matches_golden() {
    let (schedule, cfg) = schedule_fixture();
    let deadlines = [120.0, 720.0];
    for threads in [1usize, 2] {
        let rows = SweepSpec::schedule(cfg.clone(), schedule.clone())
            .over_deadlines(&deadlines)
            .run(&golden_opts(threads))
            .into_delivery()
            .expect("delivery rows");
        assert_matches_golden(
            "sweep_delivery_schedule",
            &json(&rows),
            &format!("schedule delivery rows at threads={threads}"),
        );
    }
}

#[test]
fn delivery_trace_matches_golden() {
    let (schedule, cfg) = schedule_fixture();
    // The schedule's own rate estimate, passed explicitly, exercises the
    // "trained rates" trace path.
    let trained = schedule.estimate_rates();
    let deadlines = [120.0, 720.0];
    for threads in [1usize, 2] {
        let rows = SweepSpec::trace(cfg.clone(), schedule.clone(), trained.clone())
            .over_deadlines(&deadlines)
            .run(&golden_opts(threads))
            .into_delivery()
            .expect("delivery rows");
        assert_matches_golden(
            "sweep_delivery_trace",
            &json(&rows),
            &format!("trace delivery rows at threads={threads}"),
        );
    }
}

#[test]
fn security_random_graph_matches_golden() {
    let cfg = golden_cfg();
    let cs = [2usize, 8];
    for threads in [1usize, 2] {
        let rows = SweepSpec::random_graph(cfg.clone())
            .over_security(&cs, 3)
            .run(&golden_opts(threads))
            .into_security()
            .expect("security rows");
        assert_matches_golden(
            "sweep_security_rg",
            &json(&rows),
            &format!("random-graph security rows at threads={threads}"),
        );
    }
}

#[test]
fn security_schedule_matches_golden() {
    let (schedule, cfg) = schedule_fixture();
    let cs = [2usize, 6];
    for threads in [1usize, 2] {
        let rows = SweepSpec::schedule(cfg.clone(), schedule.clone())
            .over_security(&cs, 3)
            .run(&golden_opts(threads))
            .into_security()
            .expect("security rows");
        assert_matches_golden(
            "sweep_security_schedule",
            &json(&rows),
            &format!("schedule security rows at threads={threads}"),
        );
    }
}

#[test]
fn fault_random_graph_matches_golden() {
    let cfg = golden_cfg();
    let plan = FaultPlan {
        contact_failure: 0.3,
        message_loss: 0.05,
        ..FaultPlan::default()
    };
    let intensities = [0.0, 1.0];
    for threads in [1usize, 2] {
        let rows = SweepSpec::random_graph(cfg.clone())
            .over_faults(plan, &intensities)
            .run(&golden_opts(threads))
            .into_fault()
            .expect("fault rows");
        assert_matches_golden(
            "sweep_fault_rg",
            &json(&rows),
            &format!("random-graph fault rows at threads={threads}"),
        );
    }
}

#[test]
fn schedule_point_matches_golden() {
    let (schedule, cfg) = schedule_fixture();
    for threads in [1usize, 2] {
        let computed = json(&run_schedule_point(&schedule, &cfg, &golden_opts(threads)));
        assert_matches_golden(
            "point_schedule_small",
            &computed,
            &format!("schedule PointSummary at threads={threads}"),
        );
    }
}

/// Wire packets and (2, 3) coding on one dense point: both mode RNGs
/// (`SeedDomain::Wire`, `SeedDomain::Codec`) and the coded analysis
/// series in a single fixture.
#[test]
fn wire_coded_point_matches_golden() {
    for threads in [1usize, 2] {
        let opts = golden_opts(threads)
            .into_builder()
            .wire(true)
            .code(Some((2, 3)))
            .build();
        let computed = json(&run_random_graph_point(&golden_cfg(), &opts));
        assert_matches_golden(
            "point_wire_coded_small",
            &computed,
            &format!("wire + coded PointSummary at threads={threads}"),
        );
    }
}

/// A spec built without an `over_*` call runs one point: in every world
/// its report is the `run_*_point` summary and the committed point
/// golden. The trace world, scored against rates equal to the schedule's
/// own estimate, reproduces the schedule point.
#[test]
fn default_axis_runs_the_point_of_every_world() {
    let (schedule, cfg) = schedule_fixture();
    let sparse = sparse_spec();
    let Scenario::Sparse(scenario) = &sparse.scenario else {
        unreachable!("sparse_spec is sparse");
    };
    let opts = golden_opts(2);
    let schedule_point = run_schedule_point(&schedule, &cfg, &opts);
    let worlds = [
        (
            SweepSpec::random_graph(golden_cfg()),
            run_random_graph_point(&golden_cfg(), &opts),
            "point_fig04_small",
        ),
        (
            SweepSpec::schedule(cfg.clone(), schedule.clone()),
            schedule_point.clone(),
            "point_schedule_small",
        ),
        (
            SweepSpec::trace(cfg, schedule.clone(), schedule.estimate_rates()),
            schedule_point,
            "point_schedule_small",
        ),
        (
            sparse.clone(),
            run_sparse_point(&sparse.config, scenario, &opts),
            "point_sparse_small",
        ),
    ];
    for (spec, direct, golden) in worlds {
        let point = spec
            .run(&opts)
            .into_point()
            .expect("the default axis is a point");
        assert_eq!(point, direct, "{golden}");
        assert_matches_golden(golden, &json(&point), &format!("default-axis {golden}"));
    }
}

/// The sparse-world cells share the sparse point golden's shape.
fn sparse_spec() -> SweepSpec {
    let cfg = ProtocolConfig {
        nodes: 120,
        group_size: 4,
        onions: 2,
        compromised: 8,
        deadline: TimeDelta::new(720.0),
        ..ProtocolConfig::table2_defaults()
    };
    SweepSpec::sparse(cfg, 12.0)
}

fn golden_plan() -> FaultPlan {
    FaultPlan {
        contact_failure: 0.3,
        message_loss: 0.05,
        ..FaultPlan::default()
    }
}

/// Runs `spec` at threads 1 and 2 and pins the report's rows to `name`.
fn assert_spec_matches_golden(spec: &SweepSpec, name: &str) {
    for threads in [1usize, 2] {
        let rows = match spec.run(&golden_opts(threads)) {
            SweepReport::Point(summary) => json(&*summary),
            SweepReport::Delivery(rows) => json(&rows),
            SweepReport::Security(rows) => json(&rows),
            SweepReport::Fault(rows) => json(&rows),
            SweepReport::Code(rows) => json(&rows),
        };
        assert_matches_golden(name, &rows, &format!("{name} rows at threads={threads}"));
    }
}

#[test]
fn delivery_sparse_matches_golden() {
    assert_spec_matches_golden(
        &sparse_spec().over_deadlines(&[240.0, 720.0]),
        "sweep_delivery_sparse",
    );
}

#[test]
fn security_sparse_matches_golden() {
    assert_spec_matches_golden(
        &sparse_spec().over_security(&[4, 16], 3),
        "sweep_security_sparse",
    );
}

#[test]
fn fault_sparse_matches_golden() {
    assert_spec_matches_golden(
        &sparse_spec().over_faults(golden_plan(), &[0.0, 1.0]),
        "sweep_fault_sparse",
    );
}

#[test]
fn fault_schedule_matches_golden() {
    let (schedule, cfg) = schedule_fixture();
    assert_spec_matches_golden(
        &SweepSpec::schedule(cfg, schedule).over_faults(golden_plan(), &[0.0, 1.0]),
        "sweep_fault_schedule",
    );
}

#[test]
fn code_random_graph_matches_golden() {
    assert_spec_matches_golden(
        &SweepSpec::random_graph(golden_cfg()).over_code_rates(&[(1, 2), (2, 3)]),
        "sweep_code_rg",
    );
}

#[test]
fn code_schedule_matches_golden() {
    let (schedule, cfg) = schedule_fixture();
    assert_spec_matches_golden(
        &SweepSpec::schedule(cfg, schedule).over_code_rates(&[(1, 2), (2, 3)]),
        "sweep_code_schedule",
    );
}

#[test]
fn code_sparse_matches_golden() {
    assert_spec_matches_golden(
        &sparse_spec().over_code_rates(&[(1, 2), (2, 3)]),
        "sweep_code_sparse",
    );
}

#[test]
fn security_trace_matches_golden() {
    let (schedule, cfg) = schedule_fixture();
    let trained = schedule.estimate_rates();
    assert_spec_matches_golden(
        &SweepSpec::trace(cfg, schedule, trained).over_security(&[2, 6], 3),
        "sweep_security_trace",
    );
}

/// The key of every scenario × axis cell, and of the fault and code row
/// prefixes (the same spec with its grid emptied, under which serve
/// stores each row), against the committed keys. A key names a `--resume`
/// checkpoint and serve's cached and stored responses, so a drifted key
/// silently orphans all of them: regenerate only on purpose.
#[test]
fn identity_keys_match_committed_golden() {
    let (schedule, schedule_cfg) = schedule_fixture();
    let trained = schedule.estimate_rates();
    let worlds = [
        ("random_graph", SweepSpec::random_graph(golden_cfg())),
        (
            "schedule",
            SweepSpec::schedule(schedule_cfg.clone(), schedule.clone()),
        ),
        ("trace", SweepSpec::trace(schedule_cfg, schedule, trained)),
        ("sparse", sparse_spec()),
    ];
    let opts = golden_opts(4)
        .into_builder()
        .faults(golden_plan())
        .wire(true)
        .code(Some((2, 3)))
        .build();
    let about = "Hex SHA-256 of SweepSpec::identity for each world of this suite \
                 (its golden configs; a schedule enters as a digest) under its golden \
                 options at threads 4, with the golden fault plan, wire mode and code \
                 (2,3): deadlines [60,360,720], compromised [3,12] x 5 draws, the golden \
                 plan over [0,0.5,1], rates [(1,2),(2,3)]; `rows` is a grid emptied.";
    let mut keys = vec![("_about".to_string(), Value::Str(about.into()))];
    let plan = golden_plan();
    for (world, spec) in worlds {
        for (axis, spec) in [
            ("point", spec.clone()),
            (
                "deadline",
                spec.clone().over_deadlines(&[60.0, 360.0, 720.0]),
            ),
            ("security", spec.clone().over_security(&[3, 12], 5)),
            ("fault", spec.clone().over_faults(plan, &[0.0, 0.5, 1.0])),
            ("fault rows", spec.clone().over_faults(plan, &[])),
            ("code", spec.clone().over_code_rates(&[(1, 2), (2, 3)])),
            ("code rows", spec.over_code_rates(&[])),
        ] {
            let key = spec.identity(&opts).key();
            keys.push((format!("{world} {axis}"), Value::Str(key)));
        }
    }
    let keys = serde_json::to_string_pretty(&Value::Object(keys)).unwrap();
    assert_matches_golden("sweep_keys", &keys, "identity keys");
}

// ---------------------------------------------------------------------
// The default grids serve and the CLI both fall back on when a sweep
// names none. Each lives once, in `onion_routing::sweep`; these pin the
// values they document.

#[test]
fn default_security_grid_is_rounded_percentages_at_least_one() {
    assert_eq!(default_security_grid(100), [1, 5, 10, 20, 30, 40, 50]);
    assert_eq!(default_security_grid(150), [2, 8, 15, 30, 45, 60, 75]);
    // Small worlds floor every cell at one compromised node, each count
    // once.
    assert_eq!(default_security_grid(12), [1, 2, 4, 5, 6]);
    assert_eq!(default_security_grid(10), [1, 2, 3, 4, 5]);
    assert_eq!(default_security_grid(1), [1]);
}

#[test]
fn default_fault_sweep_spans_fault_free_to_every_fault_class() {
    let plan = default_fault_plan();
    plan.validate().expect("default plan is valid");
    assert!(plan.churn.is_some_and(|c| c.crash_rate > 0.0), "{plan:?}");
    assert!(plan.contact_failure > 0.0, "{plan:?}");
    assert!(plan.transfer_truncation > 0.0, "{plan:?}");
    assert!(plan.message_loss > 0.0, "{plan:?}");
    assert_eq!(DEFAULT_FAULT_INTENSITIES, [0.0, 0.25, 0.5, 0.75, 1.0]);
    assert!(plan.scaled(DEFAULT_FAULT_INTENSITIES[0]).is_noop());
    assert_eq!(
        plan.scaled(*DEFAULT_FAULT_INTENSITIES.last().unwrap()),
        plan
    );
}
