//! Figure 12: path anonymity w.r.t. percentage of compromised nodes for
//! L ∈ {1, 3, 5} copies (g = 5, K = 3, random graphs).
//!
//! Expected shape (paper): anonymity decreases when L increases — every
//! copy traverses the same onion groups, so an adversary correlates
//! exposures across the L paths (Eq. 20).

use bench::{check_trend, default_opts, FigureTable};
use onion_routing::sweep::default_security_grid;
use onion_routing::{ProtocolConfig, SweepSpec};

fn main() {
    let cs = default_security_grid(100);
    let ls = [1u32, 3, 5];

    let sweeps: Vec<_> = ls
        .iter()
        .map(|&l| {
            let cfg = ProtocolConfig {
                copies: l,
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
        "Figure 12: Path anonymity w.r.t. compromised % (g = 5, K = 3, varying L)",
        "compromised_%",
        ls.iter()
            .flat_map(|l| [format!("analysis:L={l}"), format!("sim:L={l}")])
            .collect(),
    );
    for (i, &c) in cs.iter().enumerate() {
        let mut row = Vec::new();
        for sweep in &sweeps {
            row.push(Some(sweep[i].analysis_anonymity));
            row.push(sweep[i].sim_anonymity);
        }
        table.push_row(c as f64, row);
    }
    table.print();
    table.save_csv("fig12_anonymity_vs_compromised_copies");

    for (li, l) in ls.iter().enumerate() {
        let a: Vec<f64> = sweeps[li].iter().map(|r| r.analysis_anonymity).collect();
        check_trend(&format!("analysis L={l}"), &a, false, 1e-12);
    }
    // More copies → lower anonymity at a mid compromise level.
    let mid = cs.len() / 2;
    check_trend(
        "anonymity decreases with L",
        &sweeps
            .iter()
            .map(|s| s[mid].analysis_anonymity)
            .collect::<Vec<_>>(),
        false,
        1e-12,
    );
}
