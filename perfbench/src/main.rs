//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `fig04_sweep`, `wire_coded_point`, `sparse_scale` (one trial
//! per operation, `threads = 1`) and `serve_mixed` (an in-process daemon
//! driven in a closed loop over loopback). With `--trace 0` the run is
//! untraced and prints the end-to-end metrics; with `--trace 1` it prints
//! the per-layer metrics of a layer-by-layer replay. Every output is
//! checked; a failed check prints the reason on stderr and exits 1 without
//! a result line. The last stdout line is the result object.

mod replay;
mod serve_mix;
mod sim;
mod stats;

use sim::SimWorkload;
use stats::Metrics;

/// The seed whose first outputs have recorded digests.
pub const DEFAULT_SEED: u64 = 1;

/// What one run measured.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

/// SplitMix64 finalizer.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of operation `i` of a run with workload seed `seed`.
pub fn op_seed(seed: u64, i: u64) -> u64 {
    splitmix64(splitmix64(seed) ^ i)
}

/// Peak resident set of this process (`VmHWM`) in MiB, since start or
/// since the last [`reset_peak_rss`].
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

extern "C" {
    /// glibc: returns the allocator's free memory to the operating system.
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Returns the allocator's free memory to the operating system, so the
/// resident set holds live data only.
pub fn trim_heap() {
    // SAFETY: `malloc_trim` takes no pointers and only releases memory the
    // allocator holds free; glibc allows the call at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// Resets this process's `VmHWM` to its current resident set.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set: {e}"))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = value.parse().map_err(|_| "--seed must be a u64")?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds must be positive")?;
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let sim = match args.workload.as_str() {
        "fig04_sweep" => Some(SimWorkload::Fig04Sweep),
        "wire_coded_point" => Some(SimWorkload::WireCodedPoint),
        "sparse_scale" => Some(SimWorkload::SparseScale),
        "serve_mixed" => None,
        other => return Err(format!("unknown workload {other}")),
    };
    Ok(match (sim, args.trace) {
        (Some(w), false) => sim::timed(w, args.seed, args.seconds)?,
        (Some(w), true) => sim::traced(w, args.seed)?,
        (None, false) => serve_mix::timed(args.seed, args.seconds)?,
        (None, true) => serve_mix::traced(args.seed, args.seconds)?,
    })
}

fn main() {
    let outcome = parse_args().and_then(|args| {
        eprintln!(
            "perfbench: workload {} seed {} seconds {} trace {}",
            args.workload, args.seed, args.seconds, args.trace as u8
        );
        run(&args)
    });
    match outcome {
        Ok(o) => println!("{}", o.metrics.result_line(o.attempted, o.failed)),
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            std::process::exit(1);
        }
    }
}
