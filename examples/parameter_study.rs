//! Parameter study: the delivery / anonymity / cost design space.
//!
//! Sweeps the protocol's four knobs — group size `g`, route length `K`,
//! copy count `L`, and erasure-code rate `(k, m)` — and prints the
//! trade-off frontier a deployment would choose from, pairing every
//! analytical prediction with simulation.
//!
//! Run with: `cargo run --example parameter_study [-- --metrics-out PATH]`
//!
//! With `--metrics-out`, each frontier point also appends one JSONL
//! snapshot (the same `obs` plumbing as the CLI's sweeps), so the
//! delivery-vs-anonymity-vs-cost surface can be plotted offline.

use onion_dtn::prelude::*;

fn print_header() {
    println!(
        "{:<20}{:>12}{:>12}{:>12}{:>12}{:>12}{:>12}",
        "configuration", "deliv(A)", "deliv(S)", "anon(A)", "anon(S)", "trace(A)", "tx/msg"
    );
}

fn print_row(label: &str, p: &PointSummary) {
    println!(
        "{:<20}{:>12.3}{:>12.3}{:>12.3}{:>12.3}{:>12.3}{:>12.2}",
        label,
        p.analysis_delivery,
        p.sim_delivery,
        p.analysis_anonymity,
        p.sim_anonymity.unwrap_or(f64::NAN),
        p.analysis_traceable,
        p.sim_transmissions,
    );
}

fn main() {
    // Optional JSONL emission: `-- --metrics-out PATH` routes one
    // snapshot per frontier point through the global obs recorder.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut metrics = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--metrics-out" => {
                let path = args.get(i + 1).unwrap_or_else(|| {
                    eprintln!("parameter_study: --metrics-out needs a value");
                    std::process::exit(2);
                });
                obs::init();
                obs::set_metrics_enabled(true);
                if let Err(e) = obs::set_metrics_path(Some(std::path::Path::new(path))) {
                    eprintln!("parameter_study: cannot create metrics file {path}: {e}");
                    std::process::exit(3);
                }
                metrics = true;
                i += 2;
            }
            other => {
                eprintln!("parameter_study: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    // threads: 0 auto-detects; the fan-out is deterministic, so the
    // printed frontier is identical on any machine.
    let opts = ExperimentOptions::builder()
        .messages(25)
        .realizations(4)
        .seed(0x57D7)
        .threads(0)
        .build();
    // A tight 2-hour deadline keeps delivery away from saturation so the
    // knobs are visible.
    let base = ProtocolConfig {
        deadline: TimeDelta::new(120.0),
        ..ProtocolConfig::table2_defaults()
    };

    println!("n = 100, T = 120 min, c/n = 10% — (A)nalysis vs (S)imulation\n");

    println!("-- group size g (K = 3, L = 1) --");
    print_header();
    for g in [1usize, 2, 5, 10] {
        let cfg = ProtocolConfig {
            group_size: g,
            ..base.clone()
        };
        print_row(&format!("g = {g}"), &run_random_graph_point(&cfg, &opts));
    }

    println!("\n-- onion route length K (g = 5, L = 1) --");
    print_header();
    for k in [1usize, 3, 5, 8] {
        let cfg = ProtocolConfig {
            onions: k,
            ..base.clone()
        };
        print_row(&format!("K = {k}"), &run_random_graph_point(&cfg, &opts));
    }

    println!("\n-- copies L (g = 5, K = 3) --");
    print_header();
    for l in [1u32, 2, 3, 5] {
        let cfg = ProtocolConfig {
            copies: l,
            ..base.clone()
        };
        print_row(&format!("L = {l}"), &run_random_graph_point(&cfg, &opts));
    }

    println!("\n-- erasure code (k, m) (g = 5, K = 3) --");
    print_header();
    for (k, m) in [(1u32, 1u32), (1, 2), (2, 3), (2, 4), (3, 4), (3, 5)] {
        let coded_opts = opts.clone().into_builder().code(Some((k, m))).build();
        let p = run_random_graph_point(&base, &coded_opts);
        print_row(&format!("(k, m) = ({k}, {m})"), &p);
        if metrics {
            // One JSONL snapshot per frontier point: the three axes a
            // deployment trades between, plus the closed-form bound.
            obs::record("study.analysis_delivery", p.analysis_delivery);
            obs::record("study.sim_delivery", p.sim_delivery);
            obs::record("study.analysis_anonymity", p.analysis_anonymity);
            obs::record("study.sim_anonymity", p.sim_anonymity.unwrap_or(f64::NAN));
            obs::record("study.analysis_cost_bound", p.analysis_cost_bound);
            obs::record("study.sim_transmissions", p.sim_transmissions);
            obs::flush_point(&format!("code_frontier k={k} m={m}"));
        }
    }

    println!(
        "\nreading the frontier: g buys delivery AND anonymity (bigger anycast\n\
         sets), K buys lower traceability at a delivery and cost penalty, and\n\
         L buys delivery at an anonymity and cost penalty — exactly the\n\
         trade-offs of Figures 4-13. The (k, m) rows split the message into\n\
         m fragments of which any k reconstruct: m/k replicas' worth of\n\
         transmissions buys replica-grade delivery while each traced\n\
         fragment exposes only its own path."
    );
}
