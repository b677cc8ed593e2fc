//! Command-line interface for the onion-dtn experiment library.
//!
//! ```text
//! onion-dtn point   [--n 100] [--g 5] [--k 3] [--l 1] [--t 1080] [--c 10]
//!                   [--messages 25] [--realizations 5] [--seed 1] [--threads 0]
//! onion-dtn deadline-sweep [same flags; sweeps T over a log grid]
//! onion-dtn security-sweep [same flags; sweeps c from 1% to 50%]
//! onion-dtn fault-sweep    [same flags; sweeps fault intensity 0 -> 1]
//! onion-dtn code-sweep     [same flags; sweeps erasure-code rates (k, m)]
//! onion-dtn trace (cambridge|infocom|PATH) [--t 3600] [--max-bad-lines 0]
//! onion-dtn plan  --target 0.95 [--g 5] [--k 3] [--l 1]
//! onion-dtn serve [--port 7070] [--host 127.0.0.1] [--workers 0]
//!                 [--queue 128] [--cache 512] [--shards 8]
//!                 [--max-realizations 64] [--max-messages 200]
//! onion-dtn loadgen [--addr 127.0.0.1:7070] [--workers 2] [--duration 10]
//!                   [--sweep-share 0.1] [--seed 1] [--report out.json] [--shutdown]
//! ```
//!
//! Fault-injection flags (any experiment command): `--fault-churn <rate>`
//! (node crashes per minute, with `--fault-downtime <mean minutes>` and
//! `--fault-forget` to also wipe duplicate-suppression state),
//! `--fault-contact-loss <p>`, `--fault-truncation <p>`, and
//! `--fault-msg-loss <p>`. `--wire` turns on wire mode: every forward
//! moves (and, at route hops, peels) a real constant-size onion packet,
//! filling the `wire.*` counters without changing any abstract result.
//! `--keep-going` tolerates quarantined trial
//! failures instead of aborting; `--resume <path>` checkpoints finished
//! points to a JSONL file and skips them on restart, byte-identically.
//!
//! Exit codes: `0` success, `2` usage error, `3` I/O error, `4` a trial
//! failed its retry and the run aborted (rerun with `--keep-going`).
//!
//! Telemetry flags (any command): `--metrics-out <path>` appends one
//! JSON object per experiment point to `<path>`, `--trace-out <path>`
//! appends one JSON object per message-lifecycle event (bounded per
//! trial by `--trace-cap <n>`, default 4096; each trial's block is
//! deterministic and blocks land in the order trials finish, so
//! `--threads 1` gives a byte-stable file; tracing never perturbs
//! results), `--progress` shows a live trials/s + ETA line on stderr,
//! and `--quiet` silences all status output below the error level.
//! `ONION_DTN_LOG`, `ONION_DTN_METRICS`, `ONION_DTN_TRACE`, and
//! `ONION_DTN_PROGRESS` set the same defaults from the environment
//! (see the `obs` crate). When `--resume` is active, a trial that
//! panics on both its seed and retry seed dumps its last traced
//! events into `crash-trial<N>.jsonl` next to the checkpoint file.

use std::collections::HashMap;
use std::process::ExitCode;

use onion_dtn::prelude::*;
use onion_routing::sweep::{default_fault_plan, default_security_grid, DEFAULT_FAULT_INTENSITIES};
use serde::{Serialize, Value};

/// The usage text printed on a usage error.
const USAGE: &str = "usage: onion-dtn <point|deadline-sweep|security-sweep|fault-sweep|code-sweep|trace|plan|serve|loadgen> [flags]\n\
         \n\
         common flags: --n <nodes> --g <group size> --k <onions> --l <copies>\n\
         \t--t <deadline> --c <compromised> --messages <m> --realizations <r> --seed <s>\n\
         \t--threads <w>  (worker threads for the realization fan-out; 0 = auto;\n\
         \t                results are identical for every value)\n\
         faults: --fault-churn <crashes/min> --fault-downtime <mean min> --fault-forget\n\
         \t--fault-contact-loss <p> --fault-truncation <p> --fault-msg-loss <p>\n\
         wire mode: --wire (move + peel real constant-size ciphertext per forward;\n\
         \t         abstract results are bit-identical, wire.* counters fill in)\n\
         coded mode: --code k/m (erasure-coded k-of-m forwarding: every message\n\
         \t          becomes m independently routed Reed-Solomon fragments, any k\n\
         \t          reconstruct it; code-sweep walks a default (k, m) grid)\n\
         scale: --sparse-degree <d> (sparse CSR contact world with mean degree d,\n\
         \t       driven by a calendar event queue — the n = 10^5+ backend for\n\
         \t       point and every sweep; separate RNG domains, so dense-mode\n\
         \t       results and checkpoints are untouched)\n\
         resilience: --keep-going (tolerate quarantined trials)\n\
         \t--resume <path> (JSONL checkpoint; finished points are skipped on restart)\n\
         trace: onion-dtn trace (cambridge|infocom|<haggle file>) [--t seconds]\n\
         \t--max-bad-lines <ratio> (skip malformed file lines up to this share\n\
         \t                         of all data lines; default 0)\n\
         plan:  onion-dtn plan --target 0.95 [--g --k --l]  (deadline for target delivery)\n\
         serve: onion-dtn serve [--port 7070 --host 127.0.0.1 --workers 0 --queue 128\n\
         \t--cache 512 --shards 8 --sweep-threads 1] (HTTP daemon; /healthz /metricsz\n\
         \t/v1/model/* /v1/sweep/* — POST /v1/admin/shutdown drains and exits)\n\
         \t--store <dir> (crash-safe disk response store; survives kill -9)\n\
         \t--store-budget <bytes> (store size budget, default 256 MiB)\n\
         \t--max-realizations 64 --max-messages 200 (largest accepted sweep\n\
         \t                                          body; bigger ones answer 400)\n\
         \t--request-deadline-secs 300 (503 if expired in queue, 504 mid-sweep)\n\
         \t--read-timeout-secs 10 (overall read budget; defeats slowloris)\n\
         loadgen: onion-dtn loadgen [--addr 127.0.0.1:7070 --workers 2 --duration 10\n\
         \t--sweep-share 0.1 --seed 1 --report out.json --shutdown]\n\
         \t--max-retries 3 --backoff-ms 50 (retry 503/transport errors with\n\
         \t                                 jittered exponential backoff)\n\
         \t--chaos --chaos-share 0.25 (inject drops/stalls/half-closes/garbage)\n\
         telemetry: --metrics-out <path> (JSONL per experiment point)\n\
         \t--trace-out <path> (JSONL message-lifecycle trace; each trial's block\n\
         \t                    is deterministic, blocks land as trials finish, so\n\
         \t                    --threads 1 gives a byte-stable file; never\n\
         \t                    perturbs results)  --trace-cap <n> (per-trial\n\
         \t                    ring-buffer capacity, default 4096)\n\
         \t--progress (live trials/s + ETA on stderr)  --quiet (errors only)\n\
         exit codes: 0 ok | 2 usage | 3 I/O | 4 trial failed its retry";

fn print_usage() {
    eprintln!("{USAGE}");
}

/// Flags that take no value; present means `"true"`.
const BOOL_FLAGS: &[&str] = &[
    "progress",
    "quiet",
    "keep-going",
    "fault-forget",
    "shutdown",
    "wire",
    "chaos",
];

/// A CLI failure carrying its process exit code: usage errors exit 2,
/// I/O errors 3, and quarantined trial failures 4.
#[derive(Debug)]
enum CliError {
    /// Bad command line or invalid parameter combination (exit 2).
    Usage(String),
    /// Filesystem or checkpoint trouble (exit 3).
    Io(String),
    /// A realization panicked on its seed *and* its retry seed, and
    /// `--keep-going` was not set (exit 4).
    Trial(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Io(_) => 3,
            CliError::Trial(_) => 4,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Io(m) | CliError::Trial(m) => m,
        }
    }
}

// Parse and validation helpers report plain strings; those are usage
// errors by default. I/O and trial failures are constructed explicitly.
impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Usage(message)
    }
}

/// Parses `--key value` pairs; returns positional args and the flag map.
fn parse_flags(args: &[String]) -> Result<(Vec<String>, HashMap<String, String>), String> {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if let Some(key) = arg.strip_prefix("--") {
            if BOOL_FLAGS.contains(&key) {
                flags.insert(key.to_string(), "true".to_string());
                continue;
            }
            let value = iter
                .next()
                .ok_or_else(|| format!("flag --{key} needs a value"))?;
            flags.insert(key.to_string(), value.clone());
        } else {
            positional.push(arg.clone());
        }
    }
    Ok((positional, flags))
}

/// Applies the telemetry flags to the global `obs` recorder. Env vars
/// (`ONION_DTN_*`) set the defaults; explicit flags override them.
fn apply_telemetry(flags: &HashMap<String, String>) -> Result<(), String> {
    obs::init();
    if let Some(path) = flags.get("metrics-out") {
        obs::set_metrics_enabled(true);
        obs::set_metrics_path(Some(std::path::Path::new(path)));
    }
    if let Some(path) = flags.get("trace-out") {
        obs::set_trace_path(Some(std::path::Path::new(path)));
        obs::set_trace_enabled(true);
    }
    if let Some(cap) = flags.get("trace-cap") {
        let cap: usize = cap
            .parse()
            .map_err(|_| format!("cannot parse --trace-cap value {cap:?}"))?;
        if cap == 0 {
            return Err("--trace-cap must be at least 1".to_string());
        }
        obs::set_trace_capacity(cap);
    }
    if flags.contains_key("progress") {
        obs::set_progress(true);
    }
    if flags.contains_key("quiet") {
        obs::set_filter("error");
        obs::set_progress(false);
    }
    Ok(())
}

fn flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("cannot parse --{key} value {v:?}")),
        None => Ok(default),
    }
}

/// The `--t` deadline. A NaN is a usage error here, not a panic in
/// `TimeDelta::new`; an infinite one fails `ProtocolConfig::validate`.
fn deadline_flag(flags: &HashMap<String, String>, default: f64) -> Result<TimeDelta, String> {
    let t = flag(flags, "t", default)?;
    if t.is_nan() {
        return Err("--t must be a number".to_string());
    }
    Ok(TimeDelta::new(t))
}

fn config_from(flags: &HashMap<String, String>) -> Result<ProtocolConfig, String> {
    let cfg = ProtocolConfig {
        nodes: flag(flags, "n", 100usize)?,
        group_size: flag(flags, "g", 5usize)?,
        onions: flag(flags, "k", 3usize)?,
        copies: flag(flags, "l", 1u32)?,
        deadline: deadline_flag(flags, 1080.0)?,
        compromised: flag(flags, "c", 10usize)?,
        selection: RouteSelection::Uniform,
    };
    cfg.validate()?;
    Ok(cfg)
}

/// Builds the fault plan from `--fault-*` flags; all default to off.
fn faults_from(flags: &HashMap<String, String>) -> Result<FaultPlan, String> {
    let crash_rate = flag(flags, "fault-churn", 0.0f64)?;
    let churn = (crash_rate > 0.0).then_some(ChurnConfig {
        crash_rate,
        mean_downtime: flag(flags, "fault-downtime", 60.0f64)?,
        memory: if flags.contains_key("fault-forget") {
            ChurnMemory::Forget
        } else {
            ChurnMemory::Persist
        },
    });
    let plan = FaultPlan {
        churn,
        contact_failure: flag(flags, "fault-contact-loss", 0.0f64)?,
        transfer_truncation: flag(flags, "fault-truncation", 0.0f64)?,
        message_loss: flag(flags, "fault-msg-loss", 0.0f64)?,
    };
    plan.validate()?;
    Ok(plan)
}

/// Parses `--code k/m` into the erasure-code rate, e.g. `--code 3/5`.
fn code_from(flags: &HashMap<String, String>) -> Result<Option<(u32, u32)>, String> {
    let Some(v) = flags.get("code") else {
        return Ok(None);
    };
    let parse = |s: &str| {
        s.trim()
            .parse::<u32>()
            .map_err(|_| format!("cannot parse --code value {v:?} (expected k/m, e.g. 3/5)"))
    };
    let (k, m) = v
        .split_once('/')
        .ok_or_else(|| format!("--code expects k/m (e.g. 3/5), got {v:?}"))?;
    let (k, m) = (parse(k)?, parse(m)?);
    if k == 0 || k > m || m > MAX_CODE_FRAGMENTS {
        return Err(format!(
            "--code needs 1 <= k <= m <= {MAX_CODE_FRAGMENTS}, got {k}/{m}"
        ));
    }
    Ok(Some((k, m)))
}

fn opts_from(flags: &HashMap<String, String>) -> Result<ExperimentOptions, String> {
    Ok(ExperimentOptions::builder()
        .messages(flag(flags, "messages", 25usize)?)
        .realizations(flag(flags, "realizations", 5usize)?)
        .seed(flag(flags, "seed", 0x0D10_57E5u64)?)
        .intercontact_range((1.0, 36.0))
        .threads(flag(flags, "threads", 0usize)?)
        .faults(faults_from(flags)?)
        .keep_going(flags.contains_key("keep-going"))
        .wire(flags.contains_key("wire"))
        .code(code_from(flags)?)
        .build())
}

/// Parses `--sparse-degree`: present selects the sparse CSR +
/// calendar-queue backend with that mean contact degree.
fn sparse_from(flags: &HashMap<String, String>) -> Result<Option<SparseScenario>, String> {
    let Some(v) = flags.get("sparse-degree") else {
        return Ok(None);
    };
    let d: f64 = v
        .trim()
        .parse()
        .map_err(|_| format!("cannot parse --sparse-degree value {v:?}"))?;
    if !d.is_finite() || d <= 0.0 {
        return Err(format!(
            "--sparse-degree must be finite and positive, got {v}"
        ));
    }
    Ok(Some(SparseScenario { avg_degree: d }))
}

/// Chooses the sweep scenario: dense Table II random graph, or the
/// sparse backend when `--sparse-degree` was given.
fn scenario_spec(cfg: &ProtocolConfig, sparse: Option<&SparseScenario>) -> SweepSpec {
    match sparse {
        Some(s) => SweepSpec::sparse(cfg.clone(), s.avg_degree),
        None => SweepSpec::random_graph(cfg.clone()),
    }
}

/// The `--resume` fingerprint: the SHA-256 of the JSON array
/// `[command, config, canonical options, axis parts…]`. `threads` is
/// excluded (results are thread-count-independent, so resuming with a
/// different `--threads` is legal). A sparse scenario joins only when
/// present, in one of two frozen layouts: per-row sweeps (with axis
/// parts) suffix the command with `#sparse` and append the scenario,
/// the other commands append `"sparse"` and the scenario. Dense
/// checkpoints keep their original identity byte-for-byte, and
/// `tests/golden/sweep_keys.json` pins one key per shape.
fn resume_key(
    command: &str,
    cfg: &ProtocolConfig,
    opts: &ExperimentOptions,
    axis: Vec<Value>,
    sparse: Option<&SparseScenario>,
) -> String {
    let mut command = command.to_string();
    let mut parts = vec![cfg.to_value(), opts.canonical().to_value()];
    let per_row = !axis.is_empty();
    parts.extend(axis);
    if let Some(s) = sparse {
        if per_row {
            command.push_str("#sparse");
        } else {
            parts.push("sparse".to_value());
        }
        parts.push(s.to_value());
    }
    parts.insert(0, command.to_value());
    Checkpoint::fingerprint(&parts)
}

/// Opens the `--resume` checkpoint (if requested) bound to the
/// command's [`resume_key`].
fn open_checkpoint(
    flags: &HashMap<String, String>,
    command: &str,
    cfg: &ProtocolConfig,
    opts: &ExperimentOptions,
    axis: Vec<Value>,
    sparse: Option<&SparseScenario>,
) -> Result<Option<Checkpoint>, CliError> {
    let Some(path) = flags.get("resume") else {
        return Ok(None);
    };
    let key = resume_key(command, cfg, opts, axis, sparse);
    let cp = Checkpoint::open(std::path::Path::new(path), &key)
        .map_err(|e| CliError::Io(format!("checkpoint {path}: {e}")))?;
    arm_crash_sink(path, &key, opts.seed);
    if !cp.is_empty() {
        obs::info!(
            "onion_dtn",
            "resuming from {path}: {} finished point(s) on record",
            cp.len()
        );
    }
    Ok(Some(cp))
}

/// The shared front of the sweep commands: parses the config, options
/// and world, lets `axis` pick the swept grid (and the parts of it that
/// join the `--resume` key), validates the spec — a rejected one is a
/// usage error — and opens the checkpoint.
fn sweep_command(
    flags: &HashMap<String, String>,
    command: &str,
    axis: impl FnOnce(SweepSpec, &ExperimentOptions) -> Result<(SweepSpec, Vec<Value>), CliError>,
) -> Result<(SweepSpec, ExperimentOptions, Option<Checkpoint>), CliError> {
    let cfg = config_from(flags)?;
    let opts = opts_from(flags)?;
    let sparse = sparse_from(flags)?;
    let (spec, key_axis) = axis(scenario_spec(&cfg, sparse.as_ref()), &opts)?;
    spec.validate(&opts).map_err(|e| e.to_string())?;
    let cp = open_checkpoint(flags, command, &cfg, &opts, key_axis, sparse.as_ref())?;
    Ok((spec, opts, cp))
}

/// Validates a point as `/v1/sweep/point` does: as the security sweep
/// at the point's own `c` with one draw, which checks exactly the
/// point's config, options and world. A rejected point is a usage error.
fn validate_point(spec: SweepSpec, opts: &ExperimentOptions) -> Result<SweepSpec, String> {
    let c = spec.config.compromised;
    let spec = spec.over_security(&[c], 1);
    spec.validate(opts).map_err(|e| e.to_string())?;
    Ok(spec)
}

/// Points the flight recorder's crash sink at the checkpoint's
/// directory: a quarantined trial then dumps its last traced events,
/// the run fingerprint, and the base seed into a JSONL crash bundle
/// next to the checkpoint file.
fn arm_crash_sink(checkpoint_path: &str, fingerprint: &str, seed: u64) {
    let dir = match std::path::Path::new(checkpoint_path).parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    obs::set_crash_sink(&dir, fingerprint, seed);
}

/// A four-decimal value, or a dash when there is none.
fn or_dash(value: Option<f64>) -> String {
    value.map_or("   -  ".into(), |v| format!("{v:.4}"))
}

/// Runs `compute` through the checkpoint when one is open, so a finished
/// point is replayed instead of recomputed.
fn checkpointed<T, F>(cp: &mut Option<Checkpoint>, key: &str, compute: F) -> Result<T, CliError>
where
    T: serde::Serialize + serde::DeserializeOwned,
    F: FnOnce() -> T,
{
    match cp {
        Some(cp) => cp
            .run_point(key, compute)
            .map_err(|e| CliError::Io(format!("checkpoint: {e}"))),
        None => Ok(compute()),
    }
}

fn cmd_point(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let cfg = config_from(flags)?;
    let opts = opts_from(flags)?;
    let sparse = sparse_from(flags)?;
    validate_point(scenario_spec(&cfg, sparse.as_ref()), &opts)?;
    obs::info!(
        "onion_dtn",
        "n={} g={} K={} L={} T={} c={} ({} msgs x {} realizations){}",
        cfg.nodes,
        cfg.group_size,
        cfg.onions,
        cfg.copies,
        cfg.deadline.as_f64(),
        cfg.compromised,
        opts.messages,
        opts.realizations,
        match &sparse {
            Some(s) => format!(" sparse deg={}", s.avg_degree),
            None => String::new(),
        }
    );
    let mut cp = open_checkpoint(flags, "point", &cfg, &opts, vec![], sparse.as_ref())?;
    let p: PointSummary = checkpointed(&mut cp, "point", || match &sparse {
        Some(s) => run_sparse_point(&cfg, s, &opts),
        None => run_random_graph_point(&cfg, &opts),
    })?;
    if p.trial_failures > 0 {
        eprintln!("warning: {} realization(s) quarantined", p.trial_failures);
    }
    println!(
        "delivery   analysis {:.4} | simulation {:.4}",
        p.analysis_delivery, p.sim_delivery
    );
    println!(
        "traceable  analysis {:.4} | simulation {}",
        p.analysis_traceable,
        or_dash(p.sim_traceable)
    );
    println!(
        "anonymity  analysis {:.4} | simulation {}",
        p.analysis_anonymity,
        or_dash(p.sim_anonymity)
    );
    println!(
        "cost       bound    {:.1} | simulation {:.2} tx/msg",
        p.analysis_cost_bound, p.sim_transmissions
    );
    Ok(())
}

fn cmd_deadline_sweep(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let (spec, opts, mut cp) = sweep_command(flags, "deadline-sweep", |spec, _| {
        let max_t = spec.config.deadline.as_f64();
        let deadlines: Vec<f64> = (0..8)
            .map(|i| max_t * (0.06f64).max(2f64.powi(i - 7)))
            .map(|t| (t * 10.0).round() / 10.0)
            .collect();
        Ok((spec.over_deadlines(&deadlines), vec![]))
    })?;
    let rows: Vec<DeliverySweepRow> = checkpointed(&mut cp, "rows", || {
        spec.run(&opts)
            .into_delivery()
            .expect("deadline axis yields delivery rows")
    })?;
    println!("{:<12}{:>12}{:>12}", "deadline", "analysis", "simulation");
    for row in rows {
        println!(
            "{:<12}{:>12.4}{:>12.4}",
            row.deadline, row.analysis, row.sim
        );
    }
    Ok(())
}

fn cmd_security_sweep(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let (spec, opts, mut cp) = sweep_command(flags, "security-sweep", |spec, _| {
        let cs = default_security_grid(spec.config.nodes);
        Ok((spec.over_security(&cs, 3), vec![]))
    })?;
    let rows: Vec<SecuritySweepRow> = checkpointed(&mut cp, "rows", || {
        spec.run(&opts)
            .into_security()
            .expect("security axis yields security rows")
    })?;
    println!(
        "{:<8}{:>12}{:>12}{:>12}{:>12}",
        "c", "trace(A)", "trace(S)", "anon(A)", "anon(S)"
    );
    for row in rows {
        println!(
            "{:<8}{:>12.4}{:>12}{:>12.4}{:>12}",
            row.compromised,
            row.analysis_traceable,
            or_dash(row.sim_traceable),
            row.analysis_anonymity,
            or_dash(row.sim_anonymity),
        );
    }
    Ok(())
}

fn cmd_trace(positional: &[String], flags: &HashMap<String, String>) -> Result<(), CliError> {
    use rand::SeedableRng;
    let which = positional.first().ok_or_else(|| {
        CliError::Usage("trace needs an argument: cambridge | infocom | <file>".to_string())
    })?;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(flag(flags, "seed", 1u64)?);
    let schedule = match which.as_str() {
        "cambridge" => SyntheticTraceBuilder::cambridge_like().build(&mut rng),
        "infocom" => SyntheticTraceBuilder::infocom05_like().build(&mut rng),
        path => {
            let file =
                std::fs::File::open(path).map_err(|e| CliError::Io(format!("open {path}: {e}")))?;
            HaggleParser::new()
                .lenient(flag(flags, "max-bad-lines", 0.0f64)?)
                .parse_reader(std::io::BufReader::new(file))
                .map_err(|e| CliError::Io(format!("parse {path}: {e}")))?
                .schedule
        }
    };
    let n = schedule.node_count();
    obs::info!(
        "onion_dtn",
        "trace: {n} nodes, {} contacts over {:.2} days",
        schedule.len(),
        schedule.horizon().as_f64() / 86_400.0
    );
    let cfg = ProtocolConfig {
        nodes: n,
        group_size: flag(flags, "g", 1usize)?,
        onions: flag(flags, "k", 3usize)?,
        copies: flag(flags, "l", 1u32)?,
        deadline: deadline_flag(flags, 3600.0)?,
        compromised: (n / 10).max(1),
        selection: RouteSelection::Uniform,
    };
    let opts = opts_from(flags)?
        .into_builder()
        .realizations(flag(flags, "realizations", 4usize)?)
        .seed(flag(flags, "seed", 1u64)?)
        .build();
    let spec = validate_point(SweepSpec::schedule(cfg.clone(), schedule), &opts)?;
    let Scenario::Schedule(schedule) = &spec.scenario else {
        unreachable!("built as a schedule sweep");
    };
    let mut cp = open_checkpoint(flags, &format!("trace:{which}"), &cfg, &opts, vec![], None)?;
    let p: PointSummary = checkpointed(&mut cp, "point", || {
        run_schedule_point(schedule, &cfg, &opts)
    })?;
    println!(
        "delivery   analysis {:.4} | simulation {:.4}",
        p.analysis_delivery, p.sim_delivery
    );
    println!(
        "anonymity  analysis {:.4} | simulation {}",
        p.analysis_anonymity,
        or_dash(p.sim_anonymity)
    );
    Ok(())
}

fn cmd_fault_sweep(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let (spec, opts, mut cp) = sweep_command(flags, "fault-sweep", |spec, _| {
        let explicit = faults_from(flags)?;
        let base = if explicit.is_noop() {
            default_fault_plan()
        } else {
            explicit
        };
        // The base plan is swept (opts.faults is overridden per point), so
        // it joins the fingerprint explicitly.
        let key_axis = vec![base.to_value(), DEFAULT_FAULT_INTENSITIES.to_value()];
        Ok((spec.over_faults(base, DEFAULT_FAULT_INTENSITIES), key_axis))
    })?;
    let rows = spec
        .run_with_checkpoint(&opts, cp.as_mut())
        .map_err(|e| CliError::Io(format!("checkpoint: {e}")))?
        .into_fault()
        .expect("fault axis yields fault rows");
    println!(
        "{:<11}{:>12}{:>12}{:>12}{:>12}{:>10}{:>10}",
        "intensity", "deliv(A)", "deliv(S)", "trace(S)", "anon(S)", "crashes", "dropped"
    );
    for row in rows {
        let s = &row.summary;
        println!(
            "{:<11}{:>12.4}{:>12.4}{:>12}{:>12}{:>10}{:>10}",
            row.intensity,
            s.analysis_delivery,
            s.sim_delivery,
            or_dash(s.sim_traceable),
            or_dash(s.sim_anonymity),
            s.sim_counters.fault_crashes,
            s.sim_counters.fault_contacts_dropped,
        );
    }
    Ok(())
}

/// Default (k, m) grid for `code-sweep` when `--code` is not given:
/// replica baselines (k = 1) next to genuine codes at matching overhead.
const DEFAULT_CODE_GRID: &[(u32, u32)] = &[(1, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5)];

fn cmd_code_sweep(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let (spec, opts, mut cp) = sweep_command(flags, "code-sweep", |spec, opts| {
        // With --code k/m the sweep collapses to that single rate;
        // otherwise it walks the default grid. Each row overrides
        // opts.code itself, so the grid joins the fingerprint explicitly,
        // mirroring fault-sweep's base plan.
        let rates: Vec<(u32, u32)> = match opts.code {
            Some(rate) => vec![rate],
            None => DEFAULT_CODE_GRID.to_vec(),
        };
        Ok((spec.over_code_rates(&rates), vec![rates.to_value()]))
    })?;
    let rows = spec
        .run_with_checkpoint(&opts, cp.as_mut())
        .map_err(|e| CliError::Io(format!("checkpoint: {e}")))?
        .into_code()
        .expect("code axis yields code rows");
    println!(
        "{:<8}{:>12}{:>12}{:>12}{:>12}{:>12}{:>10}",
        "k/m", "deliv(A)", "deliv(S)", "anon(S)", "cost(A)", "tx/msg", "decodes"
    );
    for row in rows {
        let s = &row.summary;
        println!(
            "{:<8}{:>12.4}{:>12.4}{:>12}{:>12.2}{:>12.2}{:>10}",
            format!("{}/{}", row.k, row.m),
            s.analysis_delivery,
            s.sim_delivery,
            or_dash(s.sim_anonymity),
            s.analysis_cost_bound,
            s.sim_transmissions,
            s.sim_counters.decode_successes,
        );
    }
    Ok(())
}

fn cmd_plan(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let target: f64 = flag(flags, "target", 0.95f64)?;
    // The /v1/model/* size limits, so a plan is never slower than the
    // daemon would allow.
    let g = serve::api::check_limit("g", flag(flags, "g", 5usize)?, serve::MAX_MODEL_GROUP_SIZE)
        .map_err(CliError::Usage)?;
    let k = serve::api::check_limit("k", flag(flags, "k", 3usize)?, serve::MAX_MODEL_ONIONS)
        .map_err(CliError::Usage)?;
    let l = serve::api::check_limit("l", flag(flags, "l", 1u32)?, serve::MAX_MODEL_COPIES)
        .map_err(CliError::Usage)?;
    let rates = analysis::uniform_onion_path_rates(analysis::TABLE2_MEAN_RATE, g, k)
        .map_err(|e| CliError::Usage(e.to_string()))?;
    let t = analysis::deadline_for_target(&rates, l, target)
        .map_err(|e| CliError::Usage(e.to_string()))?;
    println!(
        "deadline for {:.0}% delivery with g={g}, K={k}, L={l}: {t:.1} minutes",
        target * 100.0
    );
    println!(
        "(median delay {:.1} min, mean {:.1} min)",
        analysis::median_delay(&rates).map_err(|e| e.to_string())?,
        analysis::HypoExp::new(rates)
            .map_err(|e| e.to_string())?
            .mean()
    );
    Ok(())
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let host: String = flag(flags, "host", "127.0.0.1".to_string())?;
    let port: u16 = flag(flags, "port", 7070u16)?;
    let cfg = ServeConfig {
        addr: format!("{host}:{port}"),
        workers: flag(flags, "workers", 0usize)?,
        queue_depth: flag(flags, "queue", 128usize)?,
        cache_capacity: flag(flags, "cache", 512usize)?,
        cache_shards: flag(flags, "shards", 8usize)?,
        sweep_threads: flag(flags, "sweep-threads", 1usize)?,
        max_realizations: flag(flags, "max-realizations", 64usize)?,
        max_messages: flag(flags, "max-messages", 200usize)?,
        store_dir: flags.get("store").cloned(),
        store_budget_bytes: flag(
            flags,
            "store-budget",
            serve::server::DEFAULT_STORE_BUDGET_BYTES,
        )?,
        request_deadline_secs: flag(
            flags,
            "request-deadline-secs",
            serve::server::DEFAULT_REQUEST_DEADLINE_SECS,
        )?,
        read_timeout_secs: flag(
            flags,
            "read-timeout-secs",
            serve::server::DEFAULT_READ_TIMEOUT_SECS,
        )?,
    };
    let server = Server::bind(&cfg).map_err(|e| CliError::Io(serve_error_text(e)))?;
    let addr = server.local_addr();
    println!("serving on http://{addr} (POST /v1/admin/shutdown to drain and exit)");
    server.run().map_err(|e| CliError::Io(serve_error_text(e)))
}

fn serve_error_text(e: ServeError) -> String {
    match e {
        ServeError::Bind(msg) => msg,
        ServeError::Io(err) => err.to_string(),
        ServeError::Store(msg) => msg,
    }
}

fn cmd_loadgen(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let cfg = LoadgenConfig {
        addr: flag(flags, "addr", "127.0.0.1:7070".to_string())?,
        metrics_out: flags.get("metrics-out").cloned(),
        workers: flag(flags, "workers", 2usize)?,
        duration_secs: flag(flags, "duration", 10.0f64)?,
        sweep_share: flag(flags, "sweep-share", 0.1f64)?,
        seed: flag(flags, "seed", 1u64)?,
        shutdown_after: flags.contains_key("shutdown"),
        max_retries: flag(flags, "max-retries", 3u32)?,
        backoff_base_ms: flag(flags, "backoff-ms", 50u64)?,
        chaos: flags.contains_key("chaos"),
        chaos_share: flag(flags, "chaos-share", 0.25f64)?,
    };
    let report = run_loadgen(&cfg).map_err(CliError::Usage)?;
    println!(
        "loadgen: {} requests in {:.1}s ({:.1} req/s) — ok {}, rejected {}, failed {}, \
         retries {}, gave up {}, chaos {}",
        report.total,
        report.elapsed_secs,
        report.throughput_rps,
        report.ok,
        report.rejected,
        report.failed,
        report.retries,
        report.gave_up,
        report.chaos_injected,
    );
    for (class, s) in &report.classes {
        println!(
            "  {class:<8} n={:<6} p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms, max {:.2} ms",
            s.count, s.p50_ms, s.p90_ms, s.p99_ms, s.max_ms
        );
    }
    if let Some(path) = flags.get("report") {
        let json = serde_json::to_string(&report)
            .map_err(|e| CliError::Io(format!("cannot serialize report: {e}")))?;
        std::fs::write(path, json)
            .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
        println!("report written to {path}");
    }
    if report.failed > 0 {
        return Err(CliError::Io(format!(
            "{} requests failed (non-2xx/503 or transport error)",
            report.failed
        )));
    }
    Ok(())
}

fn dispatch(
    command: &str,
    positional: &[String],
    flags: &HashMap<String, String>,
) -> Result<(), CliError> {
    match command {
        "point" => cmd_point(flags),
        "deadline-sweep" => cmd_deadline_sweep(flags),
        "security-sweep" => cmd_security_sweep(flags),
        "fault-sweep" => cmd_fault_sweep(flags),
        "code-sweep" => cmd_code_sweep(flags),
        "trace" => cmd_trace(positional, flags),
        "plan" => cmd_plan(flags),
        "serve" => cmd_serve(flags),
        "loadgen" => cmd_loadgen(flags),
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

/// Best-effort text of a panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        print_usage();
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let result = match parse_flags(rest) {
        Err(e) => Err(CliError::Usage(e)),
        Ok((positional, flags)) => match apply_telemetry(&flags) {
            Err(e) => Err(CliError::Usage(e)),
            Ok(()) => {
                // Quarantined trial failures abort experiments by panicking
                // with a marker prefix; translate that to exit code 4 instead
                // of a raw abort. Any other panic is re-raised untouched.
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    dispatch(&command, &positional, &flags)
                })) {
                    Ok(r) => r,
                    Err(payload) => {
                        let text = panic_text(payload.as_ref());
                        if text.contains(TRIAL_FAILURE_ABORT) {
                            Err(CliError::Trial(text))
                        } else {
                            std::panic::resume_unwind(payload)
                        }
                    }
                }
            }
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            obs::error!("onion_dtn", "error: {}", e.message());
            if matches!(e, CliError::Usage(_)) {
                print_usage();
            }
            ExitCode::from(e.exit_code())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_parsing() {
        let (pos, flags) = parse_flags(&strings(&["cambridge", "--g", "5", "--t", "60"])).unwrap();
        assert_eq!(pos, vec!["cambridge"]);
        assert_eq!(flags.get("g").map(String::as_str), Some("5"));
        assert_eq!(flag(&flags, "t", 0.0f64).unwrap(), 60.0);
        assert_eq!(flag(&flags, "missing", 7u32).unwrap(), 7);
    }

    #[test]
    fn non_finite_deadline_is_a_usage_error() {
        for t in ["nan", "NaN", "inf", "infinity"] {
            let (_, flags) = parse_flags(&strings(&["--t", t])).unwrap();
            assert!(config_from(&flags).is_err(), "--t {t}");
        }
    }

    #[test]
    fn missing_value_is_error() {
        assert!(parse_flags(&strings(&["--g"])).is_err());
    }

    #[test]
    fn bad_value_is_error() {
        let (_, flags) = parse_flags(&strings(&["--g", "five"])).unwrap();
        assert!(flag(&flags, "g", 1usize).is_err());
    }

    #[test]
    fn threads_flag_reaches_experiment_options() {
        let (_, flags) = parse_flags(&strings(&["--threads", "4"])).unwrap();
        let opts = opts_from(&flags).unwrap();
        assert_eq!(opts.threads, 4);
        // Default is auto-detect.
        let (_, flags) = parse_flags(&strings(&[])).unwrap();
        assert_eq!(opts_from(&flags).unwrap().threads, 0);
    }

    #[test]
    fn bool_flags_take_no_value() {
        // `--progress` and `--quiet` must not consume the token after
        // them, so they can precede positionals and other flags.
        let (pos, flags) = parse_flags(&strings(&[
            "--progress",
            "cambridge",
            "--quiet",
            "--g",
            "5",
        ]))
        .unwrap();
        assert_eq!(pos, vec!["cambridge"]);
        assert_eq!(flags.get("progress").map(String::as_str), Some("true"));
        assert_eq!(flags.get("quiet").map(String::as_str), Some("true"));
        assert_eq!(flags.get("g").map(String::as_str), Some("5"));
    }

    #[test]
    fn metrics_out_flag_takes_a_path() {
        let (_, flags) =
            parse_flags(&strings(&["--metrics-out", "target/m.jsonl", "--quiet"])).unwrap();
        assert_eq!(
            flags.get("metrics-out").map(String::as_str),
            Some("target/m.jsonl")
        );
        assert!(parse_flags(&strings(&["--metrics-out"])).is_err());
    }

    #[test]
    fn sparse_degree_flag_parses_and_validates() {
        let (_, flags) = parse_flags(&strings(&["--sparse-degree", "12.5"])).unwrap();
        assert_eq!(
            sparse_from(&flags).unwrap(),
            Some(SparseScenario { avg_degree: 12.5 })
        );
        // Absent means dense mode.
        let (_, flags) = parse_flags(&strings(&[])).unwrap();
        assert_eq!(sparse_from(&flags).unwrap(), None);
        // Zero, negative, and non-numeric degrees are usage errors.
        for bad in ["0", "-3", "inf", "lots"] {
            let (_, flags) = parse_flags(&strings(&["--sparse-degree", bad])).unwrap();
            assert!(sparse_from(&flags).is_err(), "--sparse-degree {bad}");
        }
    }

    /// Every `--resume` key shape against the committed fingerprints,
    /// which the tuple expressions this function replaced produced.
    #[test]
    fn resume_keys_match_committed_golden() {
        let golden: std::collections::BTreeMap<String, String> =
            serde_json::from_str(include_str!("../../tests/golden/sweep_keys.json")).unwrap();
        let cfg = ProtocolConfig {
            nodes: 60,
            group_size: 4,
            onions: 2,
            copies: 2,
            deadline: TimeDelta::new(720.0),
            compromised: 6,
            selection: RouteSelection::Uniform,
        };
        let opts = ExperimentOptions::builder()
            .messages(7)
            .realizations(3)
            .seed(99)
            .threads(4)
            .faults(FaultPlan {
                contact_failure: 0.1,
                ..FaultPlan::default()
            })
            .wire(true)
            .code(Some((2, 3)))
            .build();
        let sparse = SparseScenario { avg_degree: 9.5 };
        let fault = vec![
            default_fault_plan().to_value(),
            DEFAULT_FAULT_INTENSITIES.to_value(),
        ];
        let code = vec![DEFAULT_CODE_GRID.to_value()];
        for (command, axis) in [
            ("point", vec![]),
            ("deadline-sweep", vec![]),
            ("security-sweep", vec![]),
            ("trace:cambridge", vec![]),
            ("fault-sweep", fault),
            ("code-sweep", code),
        ] {
            let dense = resume_key(command, &cfg, &opts, axis.clone(), None);
            assert_eq!(dense, golden[&format!("cli {command}")], "{command}");
            if command != "trace:cambridge" {
                let key = resume_key(command, &cfg, &opts, axis, Some(&sparse));
                assert_eq!(key, golden[&format!("cli {command} sparse")], "{command}");
            }
        }
    }

    #[test]
    fn config_respects_flags_and_validates() {
        let (_, flags) = parse_flags(&strings(&["--g", "2", "--k", "4"])).unwrap();
        let cfg = config_from(&flags).unwrap();
        assert_eq!((cfg.group_size, cfg.onions), (2, 4));
        // Invalid: K exceeds the group count.
        let (_, flags) = parse_flags(&strings(&["--n", "10", "--g", "5", "--k", "3"])).unwrap();
        assert!(config_from(&flags).is_err());
    }

    #[test]
    fn zero_trials_are_usage_errors_that_name_the_field() {
        for (command, positional) in [
            ("point", &[][..]),
            ("trace", &["cambridge"][..]),
            ("deadline-sweep", &[][..]),
        ] {
            for field in ["messages", "realizations"] {
                let args = strings(&["--n", "20", "--g", "2", "--k", "2", "--c", "2"]);
                let (_, mut flags) = parse_flags(&args).unwrap();
                flags.insert(field.to_string(), "0".to_string());
                match dispatch(command, &strings(positional), &flags) {
                    Err(CliError::Usage(m)) => {
                        assert!(m.contains(&format!("opts.{field}")), "{command}: {m}")
                    }
                    other => panic!("{command} --{field} 0: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn usage_names_the_limit_and_lenient_parse_flags() {
        for flag in ["--max-realizations", "--max-messages", "--max-bad-lines"] {
            assert!(USAGE.contains(flag), "{flag}");
        }
    }
}
