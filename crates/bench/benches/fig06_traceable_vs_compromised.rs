//! Figure 6: traceable rate w.r.t. percentage of compromised nodes, for
//! K ∈ {3, 5, 10} onion groups (g = 5, random graphs).
//!
//! Expected shape (paper): traceable rate grows with the compromised
//! percentage; more onion routers lower the traceable rate.

use bench::{check_trend, default_opts, FigureTable};
use onion_routing::sweep::default_security_grid;
use onion_routing::{ProtocolConfig, SweepSpec};

fn main() {
    let cs = default_security_grid(100);
    let ks = [3usize, 5, 10];

    let sweeps: Vec<_> = ks
        .iter()
        .map(|&k| {
            let cfg = ProtocolConfig {
                onions: k,
                ..ProtocolConfig::table2_defaults()
            };
            SweepSpec::random_graph(cfg.clone())
                .over_security(&cs, 3)
                .run(&default_opts())
                .into_security()
                .expect("security rows")
        })
        .collect();

    let mut table = FigureTable::new(
        "Figure 6: Traceable rate w.r.t. compromised % (g = 5, varying K)",
        "compromised_%",
        ks.iter()
            .flat_map(|k| [format!("analysis:K={k}"), format!("sim:K={k}")])
            .collect(),
    );
    for (i, &c) in cs.iter().enumerate() {
        let mut row = Vec::new();
        for sweep in &sweeps {
            row.push(Some(sweep[i].analysis_traceable));
            row.push(sweep[i].sim_traceable);
        }
        table.push_row(c as f64, row);
    }
    table.print();
    table.save_csv("fig06_traceable_vs_compromised");

    for (ki, k) in ks.iter().enumerate() {
        let a: Vec<f64> = sweeps[ki].iter().map(|r| r.analysis_traceable).collect();
        check_trend(&format!("analysis K={k}"), &a, true, 1e-12);
        let s: Vec<f64> = sweeps[ki].iter().filter_map(|r| r.sim_traceable).collect();
        check_trend(&format!("sim K={k}"), &s, true, 0.05);
    }
    // Larger K → lower traceable rate at the highest compromise level.
    let last = cs.len() - 1;
    check_trend(
        "traceable decreases with K",
        &sweeps
            .iter()
            .map(|s| s[last].analysis_traceable)
            .collect::<Vec<_>>(),
        false,
        1e-12,
    );
}
