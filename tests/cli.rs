//! End-to-end tests of the `onion-dtn` command line, run against the
//! built binary: usage and I/O exit codes, that printed results equal
//! the library's, the thread-count determinism contract for every
//! experiment command, the telemetry side channels (`--quiet`,
//! `--metrics-out`, `--trace-out`), checkpoint resume, and the
//! `serve`/`loadgen` round trip. Every run has a time limit, so a hung
//! process fails its test instead of stalling the suite.

use std::ffi::OsStr;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use obs::MetricsSnapshot;
use onion_dtn::analysis;
use onion_dtn::onion_routing::sweep::{default_security_grid, DEFAULT_FAULT_INTENSITIES};
use onion_dtn::prelude::*;

const BIN: &str = env!("CARGO_BIN_EXE_onion-dtn");

/// How long one experiment run may take before its test fails.
const RUN_LIMIT: Duration = Duration::from_secs(120);

/// A small dense point (Table II rates): each command on it runs in
/// well under a second.
const SMALL: &[&str] = &[
    "--n",
    "30",
    "--g",
    "3",
    "--k",
    "2",
    "--c",
    "3",
    "--t",
    "240",
    "--messages",
    "4",
    "--realizations",
    "3",
];

/// The protocol configuration [`SMALL`] describes.
fn small_config() -> ProtocolConfig {
    ProtocolConfig {
        nodes: 30,
        group_size: 3,
        onions: 2,
        copies: 1,
        deadline: TimeDelta::new(240.0),
        compromised: 3,
        selection: RouteSelection::Uniform,
    }
}

/// The CLI's defaults (`--seed`, the Table II inter-contact range) with
/// [`SMALL`]'s message and realization counts.
fn small_options() -> ExperimentOptions {
    ExperimentOptions::builder()
        .messages(4)
        .realizations(3)
        .seed(0x0D10_57E5)
        .intercontact_range((1.0, 36.0))
        .threads(1)
        .build()
}

/// `command`, then [`SMALL`], then `extra`.
fn small(command: &str, extra: &[&str]) -> Vec<String> {
    std::iter::once(command)
        .chain(SMALL.iter().copied())
        .chain(extra.iter().copied())
        .map(String::from)
        .collect()
}

/// The binary with the telemetry environment cleared, so the caller's
/// `ONION_DTN_*` settings cannot leak into a run.
fn command<I, S>(args: I) -> Command
where
    I: IntoIterator<Item = S>,
    S: AsRef<OsStr>,
{
    let mut cmd = Command::new(BIN);
    cmd.args(args).stdin(Stdio::null());
    for var in [
        "ONION_DTN_LOG",
        "ONION_DTN_METRICS",
        "ONION_DTN_PROGRESS",
        "ONION_DTN_TRACE",
    ] {
        cmd.env_remove(var);
    }
    cmd
}

/// A finished run: its exit code and everything it printed.
#[derive(Debug)]
struct Run {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

impl Run {
    fn expect_exit(&self, code: i32) -> &Run {
        assert_eq!(
            self.code,
            Some(code),
            "stdout:\n{}\nstderr:\n{}",
            self.stdout,
            self.stderr
        );
        self
    }

    fn expect_ok(&self) -> &Run {
        self.expect_exit(0)
    }

    /// Exit 2 with the usage text and a message containing `needle`.
    fn expect_usage_error(&self, needle: &str) {
        self.expect_exit(2);
        assert!(
            self.stderr.contains(needle),
            "{needle:?} in:\n{}",
            self.stderr
        );
        assert!(self.stderr.contains("usage: onion-dtn"), "{}", self.stderr);
        assert!(self.stdout.is_empty(), "stdout:\n{}", self.stdout);
    }

    /// Exit 3 with a message containing `needle` and no usage text.
    fn expect_io_error(&self, needle: &str) {
        self.expect_exit(3);
        assert!(
            self.stderr.contains(needle),
            "{needle:?} in:\n{}",
            self.stderr
        );
        assert!(!self.stderr.contains("usage: onion-dtn"), "{}", self.stderr);
    }
}

fn run<I, S>(args: I) -> Run
where
    I: IntoIterator<Item = S>,
    S: AsRef<OsStr>,
{
    finish(command(args), RUN_LIMIT)
}

/// Runs `cmd` to its end, killing it (and failing) past `limit`.
fn finish(mut cmd: Command, limit: Duration) -> Run {
    let child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn onion-dtn");
    wait_with_limit(child, limit)
}

fn wait_with_limit(mut child: Child, limit: Duration) -> Run {
    let drain = |mut pipe: Box<dyn Read + Send>| {
        std::thread::spawn(move || {
            let mut text = String::new();
            pipe.read_to_string(&mut text).expect("read child output");
            text
        })
    };
    let stdout = drain(Box::new(child.stdout.take().expect("piped stdout")));
    let stderr = drain(Box::new(child.stderr.take().expect("piped stderr")));
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll child") {
            break status;
        }
        if start.elapsed() > limit {
            let _ = child.kill();
            let _ = child.wait();
            panic!("onion-dtn ran past {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    Run {
        code: status.code(),
        stdout: stdout.join().expect("stdout reader"),
        stderr: stderr.join().expect("stderr reader"),
    }
}

/// A scratch directory unique to this test and process, emptied first.
fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("onion-dtn-cli-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn path_arg(path: &Path) -> String {
    path.to_str().expect("UTF-8 temp path").to_string()
}

/// The single metrics snapshot a one-point run wrote to `path`.
fn only_snapshot(path: &Path) -> MetricsSnapshot {
    let text = std::fs::read_to_string(path).expect("metrics file");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "one JSON object per point:\n{text}");
    serde_json::from_str(lines[0]).expect("metrics line parses")
}

/// The data rows of a sweep table: every stdout line after the header,
/// split on whitespace.
fn table_rows(stdout: &str) -> Vec<Vec<String>> {
    stdout
        .lines()
        .skip(1)
        .map(|line| line.split_whitespace().map(String::from).collect())
        .collect()
}

fn column_f64(rows: &[Vec<String>], index: usize) -> Vec<f64> {
    rows.iter()
        .map(|row| row[index].parse().expect("numeric cell"))
        .collect()
}

/// A small Haggle trace: eight devices, 48 contacts every five minutes.
fn haggle_trace() -> String {
    let mut text = String::from("# id_a id_b start end\n");
    for i in 0..48u32 {
        let a = 100 + i % 8;
        let b = 100 + (i * 3 + 1) % 8;
        if a != b {
            let start = 1_000 + 300 * i;
            text.push_str(&format!("{a} {b} {start} {}\n", start + 60));
        }
    }
    text
}

/// Asserts that `args` prints the same stdout at `--threads` 1, 2 and
/// 0 (auto), and returns it.
fn assert_thread_invariant(args: &[String]) -> String {
    let outputs: Vec<String> = ["1", "2", "0"]
        .iter()
        .map(|threads| {
            let mut args = args.to_vec();
            args.extend([
                "--threads".to_string(),
                threads.to_string(),
                "--quiet".into(),
            ]);
            run(&args).expect_ok().stdout.clone()
        })
        .collect();
    assert!(!outputs[0].is_empty());
    assert_eq!(outputs[0], outputs[1], "--threads 1 vs 2");
    assert_eq!(outputs[0], outputs[2], "--threads 1 vs auto");
    outputs[0].clone()
}

// ---------------------------------------------------------------------
// Usage errors: exit 2, the usage text on stderr, nothing on stdout.
// ---------------------------------------------------------------------

#[test]
fn no_command_prints_usage_and_exits_2() {
    let r = run::<[&str; 0], &str>([]);
    r.expect_exit(2);
    assert!(r.stderr.starts_with("usage: onion-dtn"), "{}", r.stderr);
    assert!(r.stdout.is_empty());
}

#[test]
fn unknown_command_is_a_usage_error_naming_it() {
    run(["simulate"]).expect_usage_error("unknown command \"simulate\"");
}

#[test]
fn flag_without_a_value_is_a_usage_error() {
    run(["point", "--threads"]).expect_usage_error("flag --threads needs a value");
}

#[test]
fn unparsable_flag_value_is_a_usage_error() {
    run(["point", "--threads", "banana"])
        .expect_usage_error("cannot parse --threads value \"banana\"");
}

#[test]
fn non_finite_deadline_is_a_usage_error() {
    run(["point", "--t", "nan"]).expect_usage_error("--t must be a number");
    run(["point", "--t", "inf"]).expect_usage_error("deadline must be finite and non-negative");
}

#[test]
fn one_node_config_is_a_usage_error() {
    run(["point", "--n", "1", "--g", "1", "--k", "1", "--c", "0"])
        .expect_usage_error("n must be at least 2");
}

#[test]
fn more_onions_than_groups_is_a_usage_error() {
    run(["point", "--n", "10", "--g", "5", "--k", "3"])
        .expect_usage_error("exceeds the number of groups");
}

#[test]
fn more_compromised_nodes_than_nodes_is_a_usage_error() {
    let mut args = small("security-sweep", &[]);
    args.extend(["--c".to_string(), "31".to_string()]);
    run(&args).expect_usage_error("c must not exceed n");
}

#[test]
fn plan_rejects_an_onion_count_over_the_model_limit() {
    run(["plan", "--k", "100000"]).expect_usage_error("k must be at most");
}

#[test]
fn plan_rejects_a_target_outside_the_open_unit_interval() {
    for target in ["0", "1", "1.5", "-0.2"] {
        let r = run(["plan", "--target", target]);
        r.expect_exit(2);
        assert!(r.stdout.is_empty(), "--target {target}: {}", r.stdout);
    }
}

#[test]
fn malformed_code_rates_are_usage_errors() {
    let too_many = format!("1/{}", MAX_CODE_FRAGMENTS + 1);
    for bad in ["0/3", "4/3", "3", "a/b", too_many.as_str()] {
        let r = run(small("code-sweep", &["--code", bad]));
        r.expect_usage_error("--code");
    }
}

#[test]
fn non_positive_sparse_degree_is_a_usage_error() {
    for bad in ["0", "-2", "inf", "dense"] {
        run(small("point", &["--sparse-degree", bad])).expect_usage_error("--sparse-degree");
    }
}

#[test]
fn zero_trace_cap_is_a_usage_error() {
    run(small("point", &["--trace-cap", "0"])).expect_usage_error("--trace-cap must be at least 1");
}

#[test]
fn fault_probability_outside_the_unit_interval_is_a_usage_error() {
    run(small("point", &["--fault-contact-loss", "1.5"]))
        .expect_usage_error("contact_failure probability 1.5 outside [0, 1]");
    run(small("fault-sweep", &["--fault-msg-loss", "-0.1"]))
        .expect_usage_error("message_loss probability -0.1 outside [0, 1]");
}

#[test]
fn churn_without_downtime_is_a_usage_error() {
    run(small(
        "point",
        &["--fault-churn", "0.01", "--fault-downtime", "0"],
    ))
    .expect_usage_error("mean_downtime 0 must be > 0");
}

#[test]
fn trace_without_a_source_is_a_usage_error() {
    run(["trace"]).expect_usage_error("trace needs an argument");
}

#[test]
fn serve_rejects_a_non_numeric_port() {
    run(["serve", "--port", "notaport"]).expect_usage_error("cannot parse --port value");
}

#[test]
fn loadgen_rejects_zero_workers() {
    run(["loadgen", "--workers", "0"]).expect_usage_error("at least one worker");
}

// ---------------------------------------------------------------------
// I/O errors: exit 3, no usage text.
// ---------------------------------------------------------------------

#[test]
fn trace_of_a_missing_file_exits_3() {
    let dir = scratch_dir("missing-trace");
    let path = path_arg(&dir.join("no-such-trace.txt"));
    run(["trace", path.as_str()]).expect_io_error(&format!("open {path}"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_on_an_occupied_port_exits_3() {
    let holder = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a free port");
    let port = holder.local_addr().expect("local addr").port().to_string();
    let r = finish(
        command(["serve", "--port", port.as_str(), "--quiet"]),
        Duration::from_secs(30),
    );
    r.expect_exit(3);
    assert!(!r.stdout.contains("serving on"), "{}", r.stdout);
    drop(holder);
}

#[test]
fn strict_trace_parse_rejects_a_malformed_line_with_exit_3() {
    let dir = scratch_dir("strict-trace");
    let path = dir.join("dirty.txt");
    std::fs::write(&path, format!("{}101 102 soon 900\n", haggle_trace())).unwrap();
    let path = path_arg(&path);
    run(["trace", path.as_str(), "--quiet"]).expect_io_error(&format!("parse {path}"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_checkpoint_of_another_configuration_exits_3() {
    let dir = scratch_dir("resume-other");
    let cp = path_arg(&dir.join("cp.jsonl"));
    run(small("point", &["--seed", "5", "--resume", &cp, "--quiet"])).expect_ok();
    let before = std::fs::read(&cp).unwrap();
    run(small("point", &["--seed", "6", "--resume", &cp, "--quiet"]))
        .expect_io_error("belongs to a different sweep configuration");
    assert_eq!(
        std::fs::read(&cp).unwrap(),
        before,
        "rejected run left the file alone"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_into_a_missing_directory_exits_3() {
    let dir = scratch_dir("resume-missing");
    let cp = path_arg(&dir.join("absent").join("cp.jsonl"));
    run(small("point", &["--resume", &cp, "--quiet"])).expect_io_error("checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// What the commands print.
// ---------------------------------------------------------------------

/// `cmd_point`'s four lines for a summary.
fn point_lines(p: &PointSummary) -> String {
    let dash = |v: Option<f64>| v.map_or("   -  ".to_string(), |v| format!("{v:.4}"));
    format!(
        "delivery   analysis {:.4} | simulation {:.4}\n\
         traceable  analysis {:.4} | simulation {}\n\
         anonymity  analysis {:.4} | simulation {}\n\
         cost       bound    {:.1} | simulation {:.2} tx/msg\n",
        p.analysis_delivery,
        p.sim_delivery,
        p.analysis_traceable,
        dash(p.sim_traceable),
        p.analysis_anonymity,
        dash(p.sim_anonymity),
        p.analysis_cost_bound,
        p.sim_transmissions
    )
}

#[test]
fn point_prints_the_library_summary() {
    let r = run(small("point", &["--threads", "1", "--quiet"]));
    let expected = point_lines(&run_random_graph_point(&small_config(), &small_options()));
    assert_eq!(r.expect_ok().stdout, expected);
}

#[test]
fn trace_file_point_prints_the_library_summary() {
    let dir = scratch_dir("trace-file");
    let path = dir.join("trace.txt");
    let text = haggle_trace();
    std::fs::write(&path, &text).unwrap();
    let r = run(["trace", &path_arg(&path), "--threads", "1", "--quiet"]);

    let schedule = HaggleParser::new().parse_str(&text).unwrap().schedule;
    let n = schedule.node_count();
    let cfg = ProtocolConfig {
        nodes: n,
        group_size: 1,
        onions: 3,
        copies: 1,
        deadline: TimeDelta::new(3600.0),
        compromised: (n / 10).max(1),
        selection: RouteSelection::Uniform,
    };
    let opts = ExperimentOptions::builder()
        .messages(25)
        .realizations(4)
        .seed(1)
        .intercontact_range((1.0, 36.0))
        .threads(1)
        .build();
    let p = run_schedule_point(&schedule, &cfg, &opts);
    let dash = p
        .sim_anonymity
        .map_or("   -  ".to_string(), |v| format!("{v:.4}"));
    let expected = format!(
        "delivery   analysis {:.4} | simulation {:.4}\n\
         anonymity  analysis {:.4} | simulation {dash}\n",
        p.analysis_delivery, p.sim_delivery, p.analysis_anonymity
    );
    assert_eq!(r.expect_ok().stdout, expected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lenient_trace_parse_skips_malformed_lines_within_the_ratio() {
    let dir = scratch_dir("lenient-trace");
    let clean = dir.join("clean.txt");
    let dirty = dir.join("dirty.txt");
    std::fs::write(&clean, haggle_trace()).unwrap();
    std::fs::write(&dirty, format!("{}101 102 soon 900\n", haggle_trace())).unwrap();
    let clean_run = run(["trace", &path_arg(&clean), "--quiet"]);
    // One bad line among ~50: tolerated at a 10 % ratio, not at 1 %.
    let dirty_run = run([
        "trace",
        &path_arg(&dirty),
        "--max-bad-lines",
        "0.1",
        "--quiet",
    ]);
    assert_eq!(dirty_run.expect_ok().stdout, clean_run.expect_ok().stdout);
    run(["trace", &path_arg(&dirty), "--max-bad-lines", "0.01"]).expect_exit(3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn plan_prints_the_model_deadline_and_delays() {
    let r = run([
        "plan", "--target", "0.9", "--g", "4", "--k", "2", "--l", "2",
    ]);
    let rates = analysis::uniform_onion_path_rates(analysis::TABLE2_MEAN_RATE, 4, 2).unwrap();
    let t = analysis::deadline_for_target(&rates, 2, 0.9).unwrap();
    let expected = format!(
        "deadline for 90% delivery with g=4, K=2, L=2: {t:.1} minutes\n\
         (median delay {:.1} min, mean {:.1} min)\n",
        analysis::median_delay(&rates).unwrap(),
        analysis::HypoExp::new(rates).unwrap().mean()
    );
    assert_eq!(r.expect_ok().stdout, expected);
}

#[test]
fn deadline_sweep_walks_a_log_grid_up_to_the_deadline() {
    let r = run(small("deadline-sweep", &["--threads", "1", "--quiet"]));
    let stdout = &r.expect_ok().stdout;
    assert!(stdout.starts_with("deadline"), "{stdout}");
    let rows = table_rows(stdout);
    assert_eq!(rows.len(), 8, "{stdout}");
    let deadlines = column_f64(&rows, 0);
    assert_eq!(deadlines[7], 240.0);
    assert!(deadlines.windows(2).all(|w| w[0] <= w[1]), "{deadlines:?}");
    assert!(deadlines[0] > 0.0);
    // The model's delivery rate is a CDF of the deadline.
    let model = column_f64(&rows, 1);
    assert!(model.windows(2).all(|w| w[0] <= w[1]), "{model:?}");
    for rate in model.iter().chain(&column_f64(&rows, 2)) {
        assert!((0.0..=1.0).contains(rate), "{rate}");
    }
}

#[test]
fn security_sweep_rows_follow_the_default_grid() {
    let r = run(small("security-sweep", &["--threads", "1", "--quiet"]));
    let rows = table_rows(&r.expect_ok().stdout);
    let cs: Vec<usize> = rows.iter().map(|row| row[0].parse().unwrap()).collect();
    assert_eq!(cs, default_security_grid(30));
    // More compromised nodes trace more and hide less, in the model.
    let traceable = column_f64(&rows, 1);
    let anonymity = column_f64(&rows, 3);
    assert!(traceable.windows(2).all(|w| w[0] < w[1]), "{traceable:?}");
    assert!(anonymity.windows(2).all(|w| w[0] > w[1]), "{anonymity:?}");
}

#[test]
fn fault_sweep_rows_follow_the_default_intensities() {
    let r = run(small("fault-sweep", &["--threads", "1", "--quiet"]));
    let rows = table_rows(&r.expect_ok().stdout);
    let intensities = column_f64(&rows, 0);
    assert_eq!(intensities, DEFAULT_FAULT_INTENSITIES);
    // Intensity 0 is the fault-free point: no crashes, no dropped
    // contacts, and the plain point's simulated numbers.
    assert_eq!(rows[0][5..], ["0".to_string(), "0".to_string()]);
    let p = run_random_graph_point(&small_config(), &small_options());
    assert_eq!(rows[0][2], format!("{:.4}", p.sim_delivery));
    assert_eq!(rows[0][3], format!("{:.4}", p.sim_traceable.unwrap()));
    assert_eq!(rows[0][4], format!("{:.4}", p.sim_anonymity.unwrap()));
}

#[test]
fn code_sweep_walks_the_default_rate_grid() {
    let r = run(small("code-sweep", &["--threads", "1", "--quiet"]));
    let rows = table_rows(&r.expect_ok().stdout);
    let rates: Vec<&str> = rows.iter().map(|row| row[0].as_str()).collect();
    assert_eq!(rates, ["1/1", "1/2", "1/3", "2/3", "2/4", "3/4", "3/5"]);
    for row in &rows {
        let decodes: usize = row[6].parse().unwrap();
        assert!(decodes <= 4 * 3, "{row:?}");
    }
}

#[test]
fn code_flag_collapses_code_sweep_to_one_rate() {
    let grid = run(small("code-sweep", &["--threads", "1", "--quiet"]));
    let one = run(small(
        "code-sweep",
        &["--code", "2/3", "--threads", "1", "--quiet"],
    ));
    let one = one.expect_ok().stdout.clone();
    let lines: Vec<&str> = one.lines().collect();
    assert_eq!(lines.len(), 2, "{one}");
    // Each row is its own seeded point, so the single rate reproduces
    // its row of the full grid.
    let grid_row = grid
        .expect_ok()
        .stdout
        .lines()
        .find(|line| line.starts_with("2/3 "))
        .expect("2/3 row in the default grid");
    assert_eq!(lines[1], grid_row);
}

#[test]
fn wire_mode_leaves_the_point_output_unchanged() {
    let plain = run(small("point", &["--threads", "1", "--quiet"]));
    let wire = run(small("point", &["--threads", "1", "--quiet", "--wire"]));
    assert_eq!(wire.expect_ok().stdout, plain.expect_ok().stdout);
}

#[test]
fn seed_flag_reaches_every_trial() {
    let a = run(small("point", &["--threads", "1", "--quiet"]));
    let b = run(small(
        "point",
        &["--threads", "1", "--quiet", "--seed", "7"],
    ));
    let (a, b) = (&a.expect_ok().stdout, &b.expect_ok().stdout);
    assert_ne!(a, b, "a new seed draws new graphs and trials");
    let opts = small_options().into_builder().seed(7).build();
    assert_eq!(
        *b,
        point_lines(&run_random_graph_point(&small_config(), &opts))
    );
}

// ---------------------------------------------------------------------
// Results are identical for every thread count.
// ---------------------------------------------------------------------

#[test]
fn point_output_is_identical_for_every_thread_count() {
    assert_thread_invariant(&small("point", &["--realizations", "6"]));
}

#[test]
fn deadline_sweep_output_is_identical_for_every_thread_count() {
    assert_thread_invariant(&small("deadline-sweep", &[]));
}

#[test]
fn security_sweep_output_is_identical_for_every_thread_count() {
    assert_thread_invariant(&small("security-sweep", &[]));
}

#[test]
fn fault_sweep_output_is_identical_for_every_thread_count() {
    assert_thread_invariant(&small("fault-sweep", &[]));
}

#[test]
fn code_sweep_output_is_identical_for_every_thread_count() {
    assert_thread_invariant(&small("code-sweep", &["--code", "2/4"]));
}

#[test]
fn trace_output_is_identical_for_every_thread_count() {
    let args: Vec<String> = ["trace", "cambridge", "--t", "1800", "--messages", "4"]
        .map(String::from)
        .to_vec();
    assert_thread_invariant(&args);
}

#[test]
fn sparse_point_output_is_identical_for_every_thread_count() {
    assert_thread_invariant(&small(
        "point",
        &["--n", "200", "--c", "20", "--sparse-degree", "8"],
    ));
}

// ---------------------------------------------------------------------
// Telemetry: side channels that never change what stdout says.
// ---------------------------------------------------------------------

#[test]
fn quiet_clean_run_writes_nothing_to_stderr() {
    for command in ["point", "deadline-sweep"] {
        let r = run(small(command, &["--quiet"]));
        r.expect_ok();
        assert!(r.stderr.is_empty(), "{command}: {}", r.stderr);
    }
}

#[test]
fn status_line_goes_to_stderr_and_leaves_stdout_alone() {
    let loud = run(small("point", &["--threads", "1"]));
    let quiet = run(small("point", &["--threads", "1", "--quiet"]));
    assert!(
        loud.stderr
            .contains("n=30 g=3 K=2 L=1 T=240 c=3 (4 msgs x 3 realizations)"),
        "{}",
        loud.stderr
    );
    assert_eq!(loud.expect_ok().stdout, quiet.expect_ok().stdout);
}

#[test]
fn progress_flag_leaves_stdout_unchanged() {
    let plain = run(small("point", &["--threads", "1", "--quiet"]));
    let progress = run(small("point", &["--threads", "1", "--progress"]));
    assert_eq!(progress.expect_ok().stdout, plain.expect_ok().stdout);
}

#[test]
fn metrics_out_leaves_stdout_unchanged() {
    let dir = scratch_dir("metrics-stdout");
    let metrics = path_arg(&dir.join("m.jsonl"));
    let plain = run(small("point", &["--threads", "2", "--quiet"]));
    let measured = run(small(
        "point",
        &["--threads", "2", "--quiet", "--metrics-out", &metrics],
    ));
    assert_eq!(measured.expect_ok().stdout, plain.expect_ok().stdout);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_out_times_every_phase_of_every_trial() {
    let dir = scratch_dir("metrics-phases");
    let metrics = dir.join("m.jsonl");
    run(small(
        "point",
        &[
            "--threads",
            "1",
            "--quiet",
            "--metrics-out",
            &path_arg(&metrics),
        ],
    ))
    .expect_ok();
    let snap = only_snapshot(&metrics);
    assert_eq!(snap.label, "random_graph_point");
    assert_eq!(snap.counters.get("runner.trials"), 3);
    let trial = snap.histograms["runner.trial_secs"];
    assert_eq!(trial.count, 3);
    // A dense trial's phases run one after another inside the trial,
    // so together they take no longer than it.
    let mut phases = 0.0;
    for name in [
        "trial.world_secs",
        "trial.draw_secs",
        "trial.setup_secs",
        "trial.events_secs",
        "sim.run_secs",
        "trial.score_secs",
    ] {
        let h = snap
            .histograms
            .get(name)
            .unwrap_or_else(|| panic!("{name}"));
        assert_eq!(h.count, 3, "{name}");
        phases += h.sum.unwrap();
    }
    assert!(phases > 0.0);
    assert!(phases <= trial.sum.unwrap() + 1e-9, "{phases} > {trial:?}");
    assert!(snap.gauges.get("dense.contacts_bytes_hwm") > 0);
    assert!(snap.counters.get("sim.idle_tail_contacts") <= snap.counters.get("sim.contacts"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_env_var_names_the_output_path() {
    let dir = scratch_dir("metrics-env");
    let metrics = dir.join("env.jsonl");
    let mut cmd = command(small("deadline-sweep", &["--threads", "1", "--quiet"]));
    cmd.env("ONION_DTN_METRICS", &metrics);
    let r = finish(cmd, RUN_LIMIT);
    r.expect_ok();
    let snap = only_snapshot(&metrics);
    assert_eq!(snap.label, "delivery_sweep_random_graph");
    // One run per realization scores all eight deadlines.
    assert_eq!(snap.counters.get("runner.trials"), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_env_var_names_the_output_path() {
    let dir = scratch_dir("trace-env");
    let (by_flag, by_env) = (dir.join("flag.jsonl"), dir.join("env.jsonl"));
    run(small(
        "point",
        &[
            "--threads",
            "1",
            "--quiet",
            "--trace-out",
            &path_arg(&by_flag),
        ],
    ))
    .expect_ok();
    let mut cmd = command(small("point", &["--threads", "1", "--quiet"]));
    cmd.env("ONION_DTN_TRACE", &by_env);
    finish(cmd, RUN_LIMIT).expect_ok();
    let traced = std::fs::read_to_string(&by_flag).unwrap();
    assert!(!traced.is_empty());
    assert_eq!(std::fs::read_to_string(&by_env).unwrap(), traced);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sparse_point_reports_its_memory_gauges() {
    let dir = scratch_dir("sparse-gauges");
    let metrics = dir.join("m.jsonl");
    run(small(
        "point",
        &[
            "--n",
            "200",
            "--c",
            "20",
            "--sparse-degree",
            "8",
            "--quiet",
            "--metrics-out",
            &path_arg(&metrics),
        ],
    ))
    .expect_ok();
    let snap = only_snapshot(&metrics);
    for gauge in [
        "sparse.world_bytes_hwm",
        "sparse.calendar_bytes_hwm",
        "sim.state_bytes_hwm",
    ] {
        assert!(snap.gauges.get(gauge) > 0, "{gauge}");
    }
    assert_eq!(snap.histograms["trial.world_secs"].count, 3);
    // Sparse worlds draw no dense contact buffer.
    assert!(!snap.histograms.contains_key("trial.draw_secs"));
    assert_eq!(snap.gauges.get("dense.contacts_bytes_hwm"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_out_is_byte_stable_at_one_thread() {
    let dir = scratch_dir("trace-stable");
    let (a, b) = (dir.join("a.jsonl"), dir.join("b.jsonl"));
    for path in [&a, &b] {
        run(small(
            "point",
            &["--threads", "1", "--quiet", "--trace-out", &path_arg(path)],
        ))
        .expect_ok();
    }
    let a = std::fs::read_to_string(&a).unwrap();
    assert_eq!(a, std::fs::read_to_string(&b).unwrap());
    let mut trials = std::collections::BTreeSet::new();
    for line in a.lines() {
        let event = serde_json::parse_value(line).expect("trace line parses");
        match event.get("trial") {
            Some(serde::Value::UInt(t)) => trials.insert(*t),
            other => panic!("trial field {other:?} in {line}"),
        };
        assert!(event.get("event").is_some(), "{line}");
    }
    assert_eq!(trials.into_iter().collect::<Vec<_>>(), [0, 1, 2]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_cap_keeps_the_last_events_of_each_trial() {
    let dir = scratch_dir("trace-cap");
    let (full, capped) = (dir.join("full.jsonl"), dir.join("capped.jsonl"));
    run(small(
        "point",
        &["--threads", "1", "--quiet", "--trace-out", &path_arg(&full)],
    ))
    .expect_ok();
    run(small(
        "point",
        &[
            "--threads",
            "1",
            "--quiet",
            "--trace-out",
            &path_arg(&capped),
            "--trace-cap",
            "5",
        ],
    ))
    .expect_ok();
    let full = std::fs::read_to_string(&full).unwrap();
    let capped = std::fs::read_to_string(&capped).unwrap();
    for trial in 0..3 {
        let tag = format!("{{\"trial\":{trial},");
        let block = |text: &str| -> Vec<String> {
            text.lines()
                .filter(|l| l.starts_with(&tag))
                .map(String::from)
                .collect()
        };
        let (full, capped) = (block(&full), block(&capped));
        assert!(full.len() > 5, "trial {trial} has {} events", full.len());
        assert_eq!(capped, full[full.len() - 5..], "trial {trial}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Checkpoint resume.
// ---------------------------------------------------------------------

#[test]
fn resume_replays_a_finished_point_without_rewriting_the_checkpoint() {
    let dir = scratch_dir("resume-replay");
    let cp = path_arg(&dir.join("cp.jsonl"));
    let first = run(small("point", &["--resume", &cp, "--quiet"]));
    let recorded = std::fs::read(&cp).unwrap();
    let second = run(small("point", &["--resume", &cp]));
    assert_eq!(second.expect_ok().stdout, first.expect_ok().stdout);
    assert!(
        second.stderr.contains("1 finished point(s) on record"),
        "{}",
        second.stderr
    );
    assert_eq!(std::fs::read(&cp).unwrap(), recorded);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_accepts_a_different_thread_count() {
    let dir = scratch_dir("resume-threads");
    let cp = path_arg(&dir.join("cp.jsonl"));
    let one = run(small(
        "deadline-sweep",
        &["--threads", "1", "--resume", &cp, "--quiet"],
    ));
    let two = run(small(
        "deadline-sweep",
        &["--threads", "2", "--resume", &cp, "--quiet"],
    ));
    assert_eq!(two.expect_ok().stdout, one.expect_ok().stdout);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn partial_fault_sweep_checkpoint_completes_byte_identically() {
    let dir = scratch_dir("resume-partial");
    let cp = dir.join("cp.jsonl");
    let args = small(
        "fault-sweep",
        &["--threads", "1", "--resume", &path_arg(&cp), "--quiet"],
    );
    let full_run = run(&args);
    let full = std::fs::read_to_string(&cp).unwrap();
    assert_eq!(full.lines().count(), 1 + DEFAULT_FAULT_INTENSITIES.len());
    // Keep the header and the first two rows, as a run killed mid-sweep
    // would, plus a torn third row.
    let kept: String = full.lines().take(3).map(|l| format!("{l}\n")).collect();
    std::fs::write(&cp, format!("{kept}{{\"key\":\"inten")).unwrap();
    let resumed = run(&args);
    assert_eq!(resumed.expect_ok().stdout, full_run.expect_ok().stdout);
    assert_eq!(std::fs::read_to_string(&cp).unwrap(), full);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// The serving daemon and its load generator.
// ---------------------------------------------------------------------

/// Kills the daemon if the test fails before it drained.
struct Daemon(Option<Child>);

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(child) = self.0.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[test]
fn serve_and_loadgen_round_trip_drains_gracefully() {
    let dir = scratch_dir("serve");
    let report = dir.join("loadgen.json");
    let mut child = command(["serve", "--port", "0", "--workers", "2", "--quiet"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut banner = String::new();
    BufReader::new(child.stdout.as_mut().expect("piped stdout"))
        .read_line(&mut banner)
        .expect("read the serving banner");
    let mut daemon = Daemon(Some(child));
    let addr = banner
        .strip_prefix("serving on http://")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("banner {banner:?}"))
        .to_string();

    let load = run([
        "loadgen",
        "--addr",
        &addr,
        "--workers",
        "2",
        "--duration",
        "1",
        "--sweep-share",
        "0.1",
        "--seed",
        "1",
        "--report",
        &path_arg(&report),
        "--shutdown",
        "--quiet",
    ]);
    load.expect_ok();
    assert!(load.stdout.contains(", failed 0,"), "{}", load.stdout);
    let report = std::fs::read_to_string(&report).expect("loadgen report");
    let report = serde_json::parse_value(&report).expect("report parses");
    assert!(matches!(report.get("ok"), Some(serde::Value::UInt(n)) if *n > 0));

    // `--shutdown` drains the daemon, which then exits cleanly.
    let served = wait_with_limit(daemon.0.take().unwrap(), Duration::from_secs(60));
    served.expect_ok();
    let _ = std::fs::remove_dir_all(&dir);
}
