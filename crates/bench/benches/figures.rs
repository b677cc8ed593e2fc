//! Regenerates every figure of the paper's evaluation, Table II and the
//! ablations into `target/figures/*.csv`. Arguments that do not start
//! with `-` select the figures whose names start with them (cargo passes
//! `--bench`, which is skipped); a failed shape check exits 1.

use std::process::ExitCode;

fn main() -> ExitCode {
    let filter: Vec<String> = std::env::args()
        .skip(1)
        .filter(|arg| !arg.starts_with('-'))
        .collect();
    bench::run_figures(&filter)
}
