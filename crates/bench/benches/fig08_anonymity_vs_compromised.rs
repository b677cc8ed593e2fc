//! Figure 8: path anonymity w.r.t. percentage of compromised nodes, for
//! group sizes g ∈ {1, 5, 10} (single-copy, K = 3, random graphs).
//!
//! Expected shape (paper): anonymity falls as compromise grows; larger
//! groups preserve more anonymity (a compromised hop only narrows the
//! next router to g candidates).

use bench::{check_trend, default_opts, FigureTable};
use onion_routing::sweep::default_security_grid;
use onion_routing::{ProtocolConfig, SweepSpec};

fn main() {
    let cs = default_security_grid(100);
    let gs = [1usize, 5, 10];

    let sweeps: Vec<_> = gs
        .iter()
        .map(|&g| {
            let cfg = ProtocolConfig {
                group_size: g,
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
        "Figure 8: Path anonymity w.r.t. compromised % (single-copy, K = 3, varying g)",
        "compromised_%",
        gs.iter()
            .flat_map(|g| [format!("analysis:g={g}"), format!("sim:g={g}")])
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
    table.save_csv("fig08_anonymity_vs_compromised");

    for (gi, g) in gs.iter().enumerate() {
        let a: Vec<f64> = sweeps[gi].iter().map(|r| r.analysis_anonymity).collect();
        check_trend(&format!("analysis g={g}"), &a, false, 1e-12);
        let s: Vec<f64> = sweeps[gi].iter().filter_map(|r| r.sim_anonymity).collect();
        check_trend(&format!("sim g={g}"), &s, false, 0.05);
    }
    // Larger g → higher anonymity at the highest compromise level.
    let last = cs.len() - 1;
    check_trend(
        "anonymity increases with g",
        &sweeps
            .iter()
            .map(|s| s[last].analysis_anonymity)
            .collect::<Vec<_>>(),
        true,
        1e-12,
    );
}
