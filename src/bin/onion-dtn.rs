//! Command-line interface for the onion-dtn experiment library.
//!
//! ```text
//! onion-dtn point   [--n 100] [--g 5] [--k 3] [--l 1] [--t 1080] [--c 10]
//!                   [--messages 25] [--realizations 5] [--seed 219174885]
//!                   [--threads 0]
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
//! A rerun with `--keep-going` resumes the same file, and a row that
//! tolerated a quarantine is never checkpointed.
//!
//! Exit codes: `0` success, `2` usage error (also any flag or word the
//! command does not read, and a flag given twice), `3` I/O error (also
//! an output file that cannot be created), `4` a trial failed its retry
//! and the run aborted (rerun with `--keep-going`).
//!
//! Telemetry flags (any command): `--metrics-out <path>` appends one
//! JSON object per experiment point to `<path>`, `--trace-out <path>`
//! appends one JSON object per message-lifecycle event (bounded per
//! trial by `--trace-cap <n>`, default 4096; tracing never perturbs
//! results), `--progress` shows a live trials/s + ETA line on stderr,
//! and `--quiet` silences all status output below the error level.
//! `ONION_DTN_LOG`, `ONION_DTN_METRICS`, `ONION_DTN_TRACE`, and
//! `ONION_DTN_PROGRESS` set the same defaults from the environment
//! (see the `obs` crate). A trial that panics on both its seed and
//! retry seed keeps its block in the `--trace-out` file, at its trial
//! position, closed by a `quarantine` event.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::process::ExitCode;

use onion_dtn::prelude::*;
use onion_routing::sweep::{default_fault_plan, default_security_grid, DEFAULT_FAULT_INTENSITIES};
use onion_routing::{RowCache, SweepControls};

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
         \t--store <dir> (crash-safe disk store of sweep rows; survives kill -9)\n\
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
         \t--trace-out <path> (JSONL message-lifecycle trace; never perturbs\n\
         \t                    results)  --trace-cap <n> (per-trial\n\
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

/// A command's arguments after its name: `--key value` pairs, the
/// value-less [`BOOL_FLAGS`] and positional words. Every read is
/// recorded, so [`Flags::reject_unread`] refuses what no read asked for.
#[derive(Default)]
struct Flags {
    values: BTreeMap<String, String>,
    words: Vec<String>,
    read: RefCell<HashSet<String>>,
    words_read: Cell<usize>,
}

impl Flags {
    /// The value of `--key`, if given.
    fn get(&self, key: &str) -> Option<&String> {
        self.read.borrow_mut().insert(key.to_string());
        self.values.get(key)
    }

    /// The positional word at `index`, if given.
    fn word(&self, index: usize) -> Option<&String> {
        self.words_read.set(self.words_read.get().max(index + 1));
        self.words.get(index)
    }

    /// Refuses the first word, then the first flag, that no read asked for.
    fn reject_unread(&self) -> Result<(), String> {
        if let Some(word) = self.words.get(self.words_read.get()) {
            return Err(format!("unexpected argument {word:?}"));
        }
        let read = self.read.borrow();
        match self.values.keys().find(|key| !read.contains(key.as_str())) {
            Some(key) => Err(format!("unexpected flag --{key}")),
            None => Ok(()),
        }
    }
}

/// Parses `--key value` pairs and positional words. A value that starts
/// with `--` is the next flag, so the flag before it has no value, and a
/// flag given twice is refused rather than read once.
fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let Some(key) = arg.strip_prefix("--") else {
            flags.words.push(arg.clone());
            continue;
        };
        let value = if BOOL_FLAGS.contains(&key) {
            "true"
        } else {
            iter.next()
                .filter(|value| !value.starts_with("--"))
                .ok_or_else(|| format!("flag --{key} needs a value"))?
        };
        if flags.values.insert(key.into(), value.into()).is_some() {
            return Err(format!("flag --{key} given twice"));
        }
    }
    Ok(flags)
}

/// Applies the telemetry flags every command takes to the global `obs`
/// recorder; env vars (`ONION_DTN_*`) set the defaults and explicit
/// flags override them. Each command calls it once it has read its own
/// flags and before it does any work, so it first refuses any flag or
/// word no read asked for (exit 2); an output file that cannot be
/// created exits 3.
fn apply_telemetry(flags: &Flags) -> Result<(), CliError> {
    let metrics = flags.get("metrics-out");
    let trace = flags.get("trace-out");
    let cap = flag(flags, "trace-cap", obs::trace_capacity())?;
    if cap == 0 {
        return Err(CliError::Usage("--trace-cap must be at least 1".into()));
    }
    let progress = flags.get("progress").is_some();
    let quiet = flags.get("quiet").is_some();
    flags.reject_unread()?;
    let create = |what: &str, path: &str, set: fn(Option<&Path>) -> std::io::Result<()>| {
        set(Some(Path::new(path)))
            .map_err(|e| CliError::Io(format!("cannot create {what} file {path}: {e}")))
    };
    if let Some(path) = metrics {
        obs::set_metrics_enabled(true);
        create("metrics", path, obs::set_metrics_path)?;
    }
    if let Some(path) = trace {
        create("trace", path, obs::set_trace_path)?;
        obs::set_trace_enabled(true);
    }
    obs::set_trace_capacity(cap);
    if progress {
        obs::set_progress(true);
    }
    if quiet {
        obs::set_filter("error");
        obs::set_progress(false);
    }
    Ok(())
}

fn flag<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> Result<T, String> {
    match flags.get(key) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("cannot parse --{key} value {v:?}")),
        None => Ok(default),
    }
}

/// The `--t` deadline. A NaN is a usage error here, not a panic in
/// `TimeDelta::new`; an infinite one fails `ProtocolConfig::validate`.
fn deadline_flag(flags: &Flags, default: f64) -> Result<TimeDelta, String> {
    let t = flag(flags, "t", default)?;
    if t.is_nan() {
        return Err("--t must be a number".to_string());
    }
    Ok(TimeDelta::new(t))
}

fn config_from(flags: &Flags) -> Result<ProtocolConfig, String> {
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
fn faults_from(flags: &Flags) -> Result<FaultPlan, String> {
    let crash_rate = flag(flags, "fault-churn", 0.0f64)?;
    let churn = (crash_rate > 0.0).then_some(ChurnConfig {
        crash_rate,
        mean_downtime: flag(flags, "fault-downtime", 60.0f64)?,
        memory: if flags.get("fault-forget").is_some() {
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
fn code_from(flags: &Flags) -> Result<Option<(u32, u32)>, String> {
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
    dtn_sim::check_code_shape((k, m)).map_err(|e| format!("--code: {e}"))?;
    Ok(Some((k, m)))
}

fn opts_from(flags: &Flags) -> Result<ExperimentOptions, String> {
    Ok(ExperimentOptions::builder()
        .messages(flag(flags, "messages", 25usize)?)
        .realizations(flag(flags, "realizations", 5usize)?)
        .seed(flag(flags, "seed", 0x0D10_57E5u64)?)
        .intercontact_range((1.0, 36.0))
        .threads(flag(flags, "threads", 0usize)?)
        .faults(faults_from(flags)?)
        .keep_going(flags.get("keep-going").is_some())
        .wire(flags.get("wire").is_some())
        .code(code_from(flags)?)
        .build())
}

/// Parses `--sparse-degree`: present selects the sparse CSR +
/// calendar-queue backend with that mean contact degree.
fn sparse_from(flags: &Flags) -> Result<Option<SparseScenario>, String> {
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

/// Opens the `--resume` checkpoint at `path`, bound to the spec's
/// identity under `opts`.
fn open_checkpoint(
    path: &str,
    spec: &SweepSpec,
    opts: &ExperimentOptions,
) -> Result<Checkpoint, CliError> {
    let cp = Checkpoint::open(Path::new(path), &spec.identity(opts))
        .map_err(|e| CliError::Io(format!("checkpoint {path}: {e}")))?;
    if !cp.is_empty() {
        obs::info!(
            "onion_dtn",
            "resuming from {path}: {} finished point(s) on record",
            cp.len()
        );
    }
    Ok(cp)
}

/// Runs one experiment command's spec: validates it (a rejected spec is
/// a usage error), then runs it through the `--resume` checkpoint, if
/// any. Rows on record replay, new ones are appended as they finish, and
/// a failed append stops the run at the next row and exits 3. A
/// quarantined trial without `--keep-going` exits 4.
fn run_experiment(
    resume: Option<&String>,
    spec: &SweepSpec,
    opts: &ExperimentOptions,
) -> Result<SweepReport, CliError> {
    spec.validate(opts).map_err(|e| e.to_string())?;
    let cp = resume
        .map(|path| open_checkpoint(path, spec, opts))
        .transpose()?;
    let failed = || cp.as_ref().is_some_and(Checkpoint::failed);
    let controls = SweepControls {
        cancel: Some(&failed),
        rows: cp.as_ref().map(|cp| cp as &(dyn RowCache + Sync)),
    };
    let report = spec.run_controlled(opts, &controls);
    if let Some(cp) = &cp {
        cp.finish()
            .map_err(|e| CliError::Io(format!("checkpoint: {e}")))?;
    }
    report.map_err(|e| match e {
        SweepRunError::Quarantined { .. } => CliError::Trial(format!(
            "{e}; rerun with --keep-going to tolerate quarantined trials"
        )),
        _ => CliError::Usage(e.to_string()),
    })
}

/// The shared front of the commands on a generated world: reads the
/// config, options, world and checkpoint path, applies telemetry, lets
/// `axis` pick the swept grid, then runs the spec.
fn sweep_command(
    flags: &Flags,
    axis: impl FnOnce(SweepSpec, &ExperimentOptions) -> Result<SweepSpec, CliError>,
) -> Result<SweepReport, CliError> {
    let cfg = config_from(flags)?;
    let opts = opts_from(flags)?;
    let sparse = sparse_from(flags)?;
    let resume = flags.get("resume");
    apply_telemetry(flags)?;
    let spec = match sparse {
        Some(s) => SweepSpec::sparse(cfg, s.avg_degree),
        None => SweepSpec::random_graph(cfg),
    };
    let spec = axis(spec, &opts)?;
    run_experiment(resume, &spec, &opts)
}

/// A four-decimal value, or a dash when there is none.
fn or_dash(value: Option<f64>) -> String {
    value.map_or("   -  ".into(), |v| format!("{v:.4}"))
}

fn cmd_point(flags: &Flags) -> Result<(), CliError> {
    let report = sweep_command(flags, |spec, opts| {
        let cfg = &spec.config;
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
            match &spec.scenario {
                Scenario::Sparse(s) => format!(" sparse deg={}", s.avg_degree),
                _ => String::new(),
            }
        );
        Ok(spec)
    })?;
    let p = report.into_point().expect("point axis yields a point");
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

fn cmd_deadline_sweep(flags: &Flags) -> Result<(), CliError> {
    let report = sweep_command(flags, |spec, _| {
        // Eight log-spaced deadlines from 0.06·T to T: T itself, and below
        // it seven rounded to 0.1 min. A small T rounds some of those to
        // one value, kept once, and some to 0 or up to T, dropped.
        let max_t = spec.config.deadline.as_f64();
        if max_t <= 0.0 {
            return Err(CliError::Usage(format!(
                "--t {max_t} leaves no positive deadline to sweep"
            )));
        }
        let mut deadlines: Vec<f64> = (0..7)
            .map(|i| max_t * 0.06f64.powf(1.0 - f64::from(i) / 7.0))
            .map(|t| (t * 10.0).round() / 10.0)
            .filter(|&t| t > 0.0 && t < max_t)
            .collect();
        deadlines.dedup();
        deadlines.push(max_t);
        Ok(spec.over_deadlines(&deadlines))
    })?;
    let rows = report
        .into_delivery()
        .expect("deadline axis yields delivery rows");
    println!("{:<12}{:>12}{:>12}", "deadline", "analysis", "simulation");
    for row in rows {
        println!(
            "{:<12}{:>12.4}{:>12.4}",
            row.deadline, row.analysis, row.sim
        );
    }
    Ok(())
}

fn cmd_security_sweep(flags: &Flags) -> Result<(), CliError> {
    let report = sweep_command(flags, |spec, _| {
        let cs = default_security_grid(spec.config.nodes);
        Ok(spec.over_security(&cs, 3))
    })?;
    let rows = report
        .into_security()
        .expect("security axis yields security rows");
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

fn cmd_trace(flags: &Flags) -> Result<(), CliError> {
    use rand::SeedableRng;
    let which = flags.word(0).ok_or_else(|| {
        CliError::Usage("trace needs an argument: cambridge | infocom | <file>".to_string())
    })?;
    let synthetic = match which.as_str() {
        "cambridge" => Some(SyntheticTraceBuilder::cambridge_like()),
        "infocom" => Some(SyntheticTraceBuilder::infocom05_like()),
        _ => None,
    };
    // Only a file has lines to skip.
    let lenient = match synthetic {
        Some(_) => 0.0,
        None => flag(flags, "max-bad-lines", 0.0f64)?,
    };
    let seed = flag(flags, "seed", 1u64)?;
    let (group_size, onions) = (flag(flags, "g", 1usize)?, flag(flags, "k", 3usize)?);
    let (copies, deadline) = (flag(flags, "l", 1u32)?, deadline_flag(flags, 3600.0)?);
    let opts = opts_from(flags)?
        .into_builder()
        .realizations(flag(flags, "realizations", 4usize)?)
        .seed(seed)
        .build();
    let resume = flags.get("resume");
    apply_telemetry(flags)?;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let schedule = match synthetic {
        Some(builder) => builder.build(&mut rng),
        None => {
            let file = std::fs::File::open(which)
                .map_err(|e| CliError::Io(format!("open {which}: {e}")))?;
            HaggleParser::new()
                .lenient(lenient)
                .parse_reader(std::io::BufReader::new(file))
                .map_err(|e| CliError::Io(format!("parse {which}: {e}")))?
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
        group_size,
        onions,
        copies,
        deadline,
        compromised: (n / 10).max(1),
        selection: RouteSelection::Uniform,
    };
    let spec = SweepSpec::schedule(cfg, schedule);
    let p = run_experiment(resume, &spec, &opts)?
        .into_point()
        .expect("point axis yields a point");
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

fn cmd_fault_sweep(flags: &Flags) -> Result<(), CliError> {
    let report = sweep_command(flags, |spec, opts| {
        let explicit = opts.faults;
        let base = if explicit.is_noop() {
            default_fault_plan()
        } else {
            explicit
        };
        Ok(spec.over_faults(base, DEFAULT_FAULT_INTENSITIES))
    })?;
    let rows = report.into_fault().expect("fault axis yields fault rows");
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

fn cmd_code_sweep(flags: &Flags) -> Result<(), CliError> {
    let report = sweep_command(flags, |spec, opts| {
        // With --code k/m the sweep collapses to that single rate;
        // otherwise it walks the default grid.
        let rates = match opts.code {
            Some(rate) => vec![rate],
            None => DEFAULT_CODE_GRID.to_vec(),
        };
        Ok(spec.over_code_rates(&rates))
    })?;
    let rows = report.into_code().expect("code axis yields code rows");
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

fn cmd_plan(flags: &Flags) -> Result<(), CliError> {
    let target: f64 = flag(flags, "target", 0.95f64)?;
    // The /v1/model/* size limits, so a plan is never slower than the
    // daemon would allow.
    let g = serve::api::check_limit("g", flag(flags, "g", 5usize)?, serve::MAX_MODEL_GROUP_SIZE)
        .map_err(CliError::Usage)?;
    let k = serve::api::check_limit("k", flag(flags, "k", 3usize)?, serve::MAX_MODEL_ONIONS)
        .map_err(CliError::Usage)?;
    let l = serve::api::check_limit("l", flag(flags, "l", 1u32)?, serve::MAX_MODEL_COPIES)
        .map_err(CliError::Usage)?;
    apply_telemetry(flags)?;
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

fn cmd_serve(flags: &Flags) -> Result<(), CliError> {
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
    apply_telemetry(flags)?;
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

fn cmd_loadgen(flags: &Flags) -> Result<(), CliError> {
    let cfg = LoadgenConfig {
        addr: flag(flags, "addr", "127.0.0.1:7070".to_string())?,
        metrics_out: flags.get("metrics-out").cloned(),
        workers: flag(flags, "workers", 2usize)?,
        duration_secs: flag(flags, "duration", 10.0f64)?,
        sweep_share: flag(flags, "sweep-share", 0.1f64)?,
        seed: flag(flags, "seed", 1u64)?,
        shutdown_after: flags.get("shutdown").is_some(),
        max_retries: flag(flags, "max-retries", 3u32)?,
        backoff_base_ms: flag(flags, "backoff-ms", 50u64)?,
        chaos: flags.get("chaos").is_some(),
        chaos_share: flag(flags, "chaos-share", 0.25f64)?,
    };
    let report_path = flags.get("report");
    apply_telemetry(flags)?;
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
    if let Some(path) = report_path {
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

fn dispatch(command: &str, flags: &Flags) -> Result<(), CliError> {
    match command {
        "point" => cmd_point(flags),
        "deadline-sweep" => cmd_deadline_sweep(flags),
        "security-sweep" => cmd_security_sweep(flags),
        "fault-sweep" => cmd_fault_sweep(flags),
        "code-sweep" => cmd_code_sweep(flags),
        "trace" => cmd_trace(flags),
        "plan" => cmd_plan(flags),
        "serve" => cmd_serve(flags),
        "loadgen" => cmd_loadgen(flags),
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        print_usage();
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let result = parse_flags(rest)
        .map_err(CliError::Usage)
        .and_then(|flags| dispatch(&command, &flags));
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
        let flags = parse_flags(&strings(&["cambridge", "--g", "5", "--t", "60"])).unwrap();
        assert_eq!(flags.words, vec!["cambridge"]);
        assert_eq!(flags.get("g").map(String::as_str), Some("5"));
        assert_eq!(flag(&flags, "t", 0.0f64).unwrap(), 60.0);
        assert_eq!(flag(&flags, "missing", 7u32).unwrap(), 7);
    }

    #[test]
    fn non_finite_deadline_is_a_usage_error() {
        for t in ["nan", "NaN", "inf", "infinity"] {
            let flags = parse_flags(&strings(&["--t", t])).unwrap();
            assert!(config_from(&flags).is_err(), "--t {t}");
        }
    }

    #[test]
    fn missing_value_is_error() {
        assert!(parse_flags(&strings(&["--g"])).is_err());
    }

    #[test]
    fn bad_value_is_error() {
        let flags = parse_flags(&strings(&["--g", "five"])).unwrap();
        assert!(flag(&flags, "g", 1usize).is_err());
    }

    #[test]
    fn threads_flag_reaches_experiment_options() {
        let flags = parse_flags(&strings(&["--threads", "4"])).unwrap();
        let opts = opts_from(&flags).unwrap();
        assert_eq!(opts.threads, 4);
        // Default is auto-detect.
        let flags = parse_flags(&strings(&[])).unwrap();
        assert_eq!(opts_from(&flags).unwrap().threads, 0);
    }

    #[test]
    fn bool_flags_take_no_value() {
        // `--progress` and `--quiet` must not consume the token after
        // them, so they can precede positionals and other flags.
        let flags = parse_flags(&strings(&[
            "--progress",
            "cambridge",
            "--quiet",
            "--g",
            "5",
        ]))
        .unwrap();
        assert_eq!(flags.words, vec!["cambridge"]);
        assert_eq!(flags.get("progress").map(String::as_str), Some("true"));
        assert_eq!(flags.get("quiet").map(String::as_str), Some("true"));
        assert_eq!(flags.get("g").map(String::as_str), Some("5"));
    }

    #[test]
    fn metrics_out_flag_takes_a_path() {
        let flags = parse_flags(&strings(&["--metrics-out", "target/m.jsonl", "--quiet"])).unwrap();
        assert_eq!(
            flags.get("metrics-out").map(String::as_str),
            Some("target/m.jsonl")
        );
        assert!(parse_flags(&strings(&["--metrics-out"])).is_err());
    }

    #[test]
    fn sparse_degree_flag_parses_and_validates() {
        let flags = parse_flags(&strings(&["--sparse-degree", "12.5"])).unwrap();
        assert_eq!(
            sparse_from(&flags).unwrap(),
            Some(SparseScenario { avg_degree: 12.5 })
        );
        // Absent means dense mode.
        let flags = parse_flags(&strings(&[])).unwrap();
        assert_eq!(sparse_from(&flags).unwrap(), None);
        // Zero, negative, and non-numeric degrees are usage errors.
        for bad in ["0", "-3", "inf", "lots"] {
            let flags = parse_flags(&strings(&["--sparse-degree", bad])).unwrap();
            assert!(sparse_from(&flags).is_err(), "--sparse-degree {bad}");
        }
    }

    #[test]
    fn config_respects_flags_and_validates() {
        let flags = parse_flags(&strings(&["--g", "2", "--k", "4"])).unwrap();
        let cfg = config_from(&flags).unwrap();
        assert_eq!((cfg.group_size, cfg.onions), (2, 4));
        // Invalid: K exceeds the group count.
        let flags = parse_flags(&strings(&["--n", "10", "--g", "5", "--k", "3"])).unwrap();
        assert!(config_from(&flags).is_err());
    }

    #[test]
    fn zero_trials_are_usage_errors_that_name_the_field() {
        // A trace's schedule fixes its node and compromised counts.
        let world = &["--n", "20", "--c", "2"][..];
        for (command, own) in [
            ("point", world),
            ("trace", &["cambridge"][..]),
            ("deadline-sweep", world),
        ] {
            for field in ["messages", "realizations"] {
                let mut args = strings(own);
                args.extend(strings(&["--g", "2", "--k", "2"]));
                args.extend([format!("--{field}"), "0".to_string()]);
                let flags = parse_flags(&args).unwrap();
                match dispatch(command, &flags) {
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
