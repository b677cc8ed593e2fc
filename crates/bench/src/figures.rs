//! The one list of the paper's figures, in paper order: the fifteen
//! sweep figures as rows of [`SweepFigure`], then the figures with their
//! own code. Each name is also the figure's CSV in
//! `tests/golden/figures/`.

use crate::own;
use crate::sweep::{At::*, Check::*, Dim, Grid, Memo, Side::*, SweepFigure, World, G, K, L};
use crate::Trend::*;
use crate::{Report, Sample, FIGURE_SAMPLE, SWEEP_SAMPLE};

/// One entry of [`FIGURES`].
pub(crate) enum Figure {
    /// A sweep figure, run by the shared driver.
    Sweep(SweepFigure),
    /// A figure with its own code: its name and the function that
    /// prints, publishes and checks it.
    Own(&'static str, fn(&mut Memo, &mut Report)),
}

impl Figure {
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Figure::Sweep(fig) => fig.name,
            Figure::Own(name, _) => name,
        }
    }
}

/// The deadline grid of the random-graph delivery figures: 60 to 1080
/// minutes (Table II).
const TABLE2_DEADLINES: &[f64] = &[
    60.0, 120.0, 240.0, 360.0, 480.0, 600.0, 720.0, 840.0, 960.0, 1080.0,
];

/// `default_security_grid(100)`: 1, 5, 10, 20, 30, 40 and 50 % of
/// Table II's 100 nodes.
const TABLE2_COMPROMISED: &[usize] = &[1, 5, 10, 20, 30, 40, 50];

/// The per-x grids of Figs. 7, 9 and 13.
const ONE_TO_TEN: &[usize] = &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
const TEN_TWENTY_THIRTY: &[usize] = &[10, 20, 30];

/// The grids of the trace figures: deadlines in seconds (Infocom's
/// log-spaced, 60 s to the full span), and compromised nodes from 1 ≈ 8 %
/// to 6 = 50 % of Cambridge's 12 and ~2.5 % to ~50 % of Infocom's 41.
const CAMBRIDGE_DEADLINES: &[f64] = &[
    60.0, 120.0, 300.0, 600.0, 900.0, 1200.0, 1800.0, 2700.0, 3600.0,
];
const INFOCOM_DEADLINES: &[f64] = &[
    60.0, 256.0, 1024.0, 4096.0, 16_384.0, 65_536.0, 131_072.0, 259_200.0,
];
const CAMBRIDGE_COMPROMISED: &[usize] = &[1, 2, 3, 4, 5, 6];
const INFOCOM_COMPROMISED: &[usize] = &[1, 2, 4, 8, 12, 16, 20];

/// Every figure, in paper order. Laid out by hand, not by rustfmt, so
/// that each entry reads as one row of the table DESIGN.md §4 indexes.
#[rustfmt::skip]
pub(crate) const FIGURES: &[Figure] = &[
    // Expected shape (paper): delivery rises with the deadline and larger
    // groups deliver more (more forwarding opportunities per hop).
    Figure::Sweep(SweepFigure {
        name: "fig04_delivery_vs_deadline_group_size", x_label: "deadline_min",
        title: "Figure 4: Delivery rate w.r.t. deadline (single-copy, K = 3, varying g)",
        world: World::RandomGraph, sample: FIGURE_SAMPLE,
        grid: Grid::Delivery(TABLE2_DEADLINES), x: Dim::Grid, series: Dim::Field(G, &[1, 5, 10]),
        checks: &[Along(Sim, Up, 0.02), Across(Last, Up, 1e-9)],
    }),
    // Expected shape (paper): fewer onion routers → higher delivery rate
    // (shorter opportunistic onion path). The slack across K allows for
    // curves that have all saturated at ~1.0.
    Figure::Sweep(SweepFigure {
        name: "fig05_delivery_vs_deadline_onions", x_label: "deadline_min",
        title: "Figure 5: Delivery rate w.r.t. deadline (single-copy, g = 5, varying K)",
        world: World::RandomGraph, sample: FIGURE_SAMPLE,
        grid: Grid::Delivery(TABLE2_DEADLINES), x: Dim::Grid, series: Dim::Field(K, &[3, 5, 10]),
        checks: &[Along(Sim, Up, 0.02), Across(Every, Down, 1e-4)],
    }),
    // Expected shape (paper): traceable rate grows with the compromised
    // percentage; more onion routers lower the traceable rate.
    Figure::Sweep(SweepFigure {
        name: "fig06_traceable_vs_compromised", x_label: "compromised_%",
        title: "Figure 6: Traceable rate w.r.t. compromised % (g = 5, varying K)",
        world: World::RandomGraph, sample: FIGURE_SAMPLE,
        grid: Grid::Traceable(TABLE2_COMPROMISED, 3),
        x: Dim::Grid, series: Dim::Field(K, &[3, 5, 10]),
        checks: &[Along(Analysis, Up, 1e-12), Along(Sim, Up, 0.05), Across(Last, Down, 1e-12)],
    }),
    // Expected shape (paper): traceable rate falls as K grows (the weighted
    // compromised segments shrink relative to the path length). One
    // simulation per K serves all three adversaries.
    Figure::Sweep(SweepFigure {
        name: "fig07_traceable_vs_onions", x_label: "onion_relays_K",
        title: "Figure 7: Traceable rate w.r.t. number of onion relays (g = 5, varying c/n)",
        world: World::RandomGraph, sample: SWEEP_SAMPLE,
        grid: Grid::Traceable(TEN_TWENTY_THIRTY, 3),
        x: Dim::Field(K, ONE_TO_TEN), series: Dim::Grid,
        checks: &[Along(Analysis, Down, 1e-12)],
    }),
    // Expected shape (paper): anonymity falls as compromise grows; larger
    // groups preserve more anonymity (a compromised hop only narrows the
    // next router to g candidates).
    Figure::Sweep(SweepFigure {
        name: "fig08_anonymity_vs_compromised", x_label: "compromised_%",
        title: "Figure 8: Path anonymity w.r.t. compromised % (single-copy, K = 3, varying g)",
        world: World::RandomGraph, sample: FIGURE_SAMPLE,
        grid: Grid::Anonymity(TABLE2_COMPROMISED, 3),
        x: Dim::Grid, series: Dim::Field(G, &[1, 5, 10]),
        checks: &[Along(Analysis, Down, 1e-12), Along(Sim, Down, 0.05), Across(Last, Up, 1e-12)],
    }),
    // Expected shape (paper): anonymity gradually increases with the group
    // size at every compromise level.
    Figure::Sweep(SweepFigure {
        name: "fig09_anonymity_vs_group_size", x_label: "group_size_g",
        title: "Figure 9: Path anonymity w.r.t. group size (single-copy, K = 3, varying c/n)",
        world: World::RandomGraph, sample: SWEEP_SAMPLE,
        grid: Grid::Anonymity(TEN_TWENTY_THIRTY, 3),
        x: Dim::Field(G, ONE_TO_TEN), series: Dim::Grid,
        checks: &[Along(Analysis, Up, 1e-12)],
    }),
    // Expected shape (paper): more copies deliver more at every deadline
    // (each per-hop rate is multiplied by L, Eq. 7; g = 5 so that L ≤ g),
    // most visibly at the first deadline.
    Figure::Sweep(SweepFigure {
        name: "fig10_delivery_vs_deadline_copies", x_label: "deadline_min",
        title: "Figure 10: Delivery rate w.r.t. deadline (g = 5, K = 3, varying L)",
        world: World::RandomGraph, sample: FIGURE_SAMPLE,
        grid: Grid::Delivery(TABLE2_DEADLINES), x: Dim::Grid, series: Dim::Field(L, &[1, 3, 5]),
        checks: &[Along(Sim, Up, 0.02), Across(First, Up, 1e-9)],
    }),
    Figure::Own("fig11_transmission_cost", own::fig11_transmission_cost),
    // Expected shape (paper): anonymity decreases when L increases — every
    // copy traverses the same onion groups, so an adversary correlates
    // exposures across the L paths (Eq. 20).
    Figure::Sweep(SweepFigure {
        name: "fig12_anonymity_vs_compromised_copies", x_label: "compromised_%",
        title: "Figure 12: Path anonymity w.r.t. compromised % (g = 5, K = 3, varying L)",
        world: World::RandomGraph, sample: FIGURE_SAMPLE,
        grid: Grid::Anonymity(TABLE2_COMPROMISED, 3),
        x: Dim::Grid, series: Dim::Field(L, &[1, 3, 5]),
        checks: &[Along(Analysis, Down, 1e-12), Across(Mid, Down, 1e-12)],
    }),
    // Expected shape (paper): anonymity grows with g for every L, and
    // single-copy dominates multi-copy throughout. One simulation per
    // (g, L), the adversary fixed at c = 10 %.
    Figure::Sweep(SweepFigure {
        name: "fig13_anonymity_vs_group_size_copies", x_label: "group_size_g",
        title: "Figure 13: Path anonymity w.r.t. group size (c = 10%, K = 3, varying L)",
        world: World::RandomGraph, sample: SWEEP_SAMPLE,
        grid: Grid::Anonymity(&[10], 3),
        x: Dim::Field(G, ONE_TO_TEN), series: Dim::Field(L, &[1, 3, 5]),
        checks: &[Along(Analysis, Up, 1e-12), Across(Every, Down, 1e-12)],
    }),
    // Expected shape (paper): the trace is dense, so delivery reaches ~100%
    // within about 1800 s when transmissions start in business hours. The
    // deadlines fit inside one business window, so the analysis uses rates
    // trained on active time.
    Figure::Sweep(SweepFigure {
        name: "fig14_cambridge_delivery", x_label: "deadline_s",
        title: "Figure 14: Delivery rate w.r.t. deadline, Cambridge trace (K = 3, g = 1, L = 1)",
        world: World::Cambridge { trained: true }, sample: Sample::new(0xCA3B_2016, 6, 30),
        grid: Grid::Delivery(CAMBRIDGE_DEADLINES), x: Dim::Grid, series: Dim::One("L=1"),
        checks: &[Along(Sim, Up, 0.02), FinalSimAtLeast(0.8)],
    }),
    // Expected shape (paper): the traceable model is independent of
    // inter-contact times, so analysis and simulation stay close even on a
    // real trace.
    Figure::Sweep(SweepFigure {
        name: "fig15_cambridge_traceable", x_label: "compromised_nodes",
        title: "Figure 15: Traceable rate w.r.t. compromised %, Cambridge trace (K = 3)",
        world: World::Cambridge { trained: false }, sample: Sample::new(0xCA3B_2017, 6, 30),
        grid: Grid::Traceable(CAMBRIDGE_COMPROMISED, 4), x: Dim::Grid, series: Dim::One("3 onions"),
        checks: &[Along(Analysis, Up, 1e-12), Along(Sim, Up, 0.06)],
    }),
    // Expected shape (paper): anonymity decreases roughly linearly in the
    // compromised percentage, and analysis matches simulation closely (the
    // metric is independent of inter-meeting times).
    Figure::Sweep(SweepFigure {
        name: "fig16_cambridge_anonymity", x_label: "compromised_nodes",
        title: "Figure 16: Path anonymity w.r.t. compromised %, Cambridge trace (L = 1)",
        world: World::Cambridge { trained: false }, sample: Sample::new(0xCA3B_2018, 6, 30),
        grid: Grid::Anonymity(CAMBRIDGE_COMPROMISED, 4), x: Dim::Grid, series: Dim::One("L=1"),
        checks: &[Along(Analysis, Down, 1e-12), Along(Sim, Down, 0.05)],
    }),
    // Expected shape (paper): delivery rises early, *plateaus across session
    // breaks and overnight gaps* (no contacts → no progress), then rises
    // again; multi-copy helps only slightly because the path diversity
    // among onion routers is limited (the last row shows the gap). The
    // deadlines are log-spaced, 60 s to the full trace span.
    Figure::Sweep(SweepFigure {
        name: "fig17_infocom_delivery", x_label: "deadline_s",
        title: "Figure 17: Delivery rate w.r.t. deadline (log scale), Infocom'05 trace (K = 3, g = 5)",
        world: World::Infocom, sample: Sample::new(0x1F0C_2016, 6, 30),
        grid: Grid::Delivery(INFOCOM_DEADLINES), x: Dim::Grid, series: Dim::Field(L, &[1, 3, 5]),
        checks: &[Along(Sim, Up, 0.02)],
    }),
    // Expected shape (paper): analysis and simulation within a few percent
    // — the traceable model depends only on K and c/n, not on contact
    // timing.
    Figure::Sweep(SweepFigure {
        name: "fig18_infocom_traceable", x_label: "compromised_nodes",
        title: "Figure 18: Traceable rate w.r.t. compromised %, Infocom'05 trace (K = 3)",
        world: World::Infocom, sample: Sample::new(0x1F0C_2017, 5, 30),
        grid: Grid::Traceable(INFOCOM_COMPROMISED, 4), x: Dim::Grid, series: Dim::One("3 onions"),
        checks: &[Along(Analysis, Up, 1e-12), GapAtMost(0.12)],
    }),
    // Expected shape (paper): L = 1 matches the model almost perfectly;
    // L = 3/5 sit slightly below, but closer together than on random
    // graphs because the copies' paths barely diverge on a sparse trace.
    Figure::Sweep(SweepFigure {
        name: "fig19_infocom_anonymity", x_label: "compromised_nodes",
        title: "Figure 19: Path anonymity w.r.t. compromised %, Infocom'05 trace (K = 3, g = 5)",
        world: World::Infocom, sample: Sample::new(0x1F0C_2018, 5, 30),
        grid: Grid::Anonymity(INFOCOM_COMPROMISED, 4),
        x: Dim::Grid, series: Dim::Field(L, &[1, 3, 5]),
        checks: &[Along(Analysis, Down, 1e-12)],
    }),
    Figure::Own("table2_defaults", own::table2_defaults),
    Figure::Own("ablation_hypoexp", own::ablation_hypoexp),
    Figure::Own("ablation_traceable", own::ablation_traceable),
    Figure::Own("ablation_group_selection", own::ablation_group_selection),
    Figure::Own("ablation_spray", own::ablation_spray),
    Figure::Own("ablation_tps", own::ablation_tps),
    Figure::Own("ablation_buffers", own::ablation_buffers),
];

#[cfg(test)]
mod tests {
    use super::*;
    use onion_routing::sweep::default_security_grid;

    #[test]
    fn the_list_and_the_goldens_name_the_same_23_figures() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/figures");
        let entries = std::fs::read_dir(dir).expect("golden figures directory");
        let name = |entry: std::io::Result<std::fs::DirEntry>| entry.expect("entry").file_name();
        let mut goldens: Vec<String> = entries.map(|e| name(e).into_string().unwrap()).collect();
        let mut listed: Vec<String> = FIGURES
            .iter()
            .map(|f| f.name().to_owned() + ".csv")
            .collect();
        goldens.sort();
        listed.sort();
        assert_eq!(listed, goldens);
        assert_eq!(listed.len(), 23);
        assert_eq!(TABLE2_COMPROMISED, default_security_grid(100));
    }
}
