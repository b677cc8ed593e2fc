//! Figure 11: number of message transmissions w.r.t. the number of copies
//! L (K = 3, g = 5, random graphs).
//!
//! Series: the non-anonymous baseline (≤ 2L transmissions; simulated with
//! source spray-and-wait), the paper's analytical bound ((K + 2)·L, with
//! the exact K + 1 at L = 1), and the simulated onion protocol.
//!
//! Expected shape (paper): cost grows with L; the analysis bound sits just
//! above the simulation; anonymity costs a constant factor over the
//! non-anonymous baseline.

use bench::{check_trend, default_opts, FigureTable};
use contact_graph::{ContactSchedule, Time, TimeDelta, UniformGraphBuilder};
use dtn_sim::baselines::SprayAndWait;
use dtn_sim::{run, SimConfig, WorkloadBuilder};
use onion_routing::{run_random_graph_point, ProtocolConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Simulated mean transmissions of non-anonymous source spray-and-wait.
fn spray_cost(l: u32, opts: &onion_routing::ExperimentOptions) -> f64 {
    let mut total = 0.0;
    let mut count = 0usize;
    for realization in 0..opts.realizations {
        let mut rng = ChaCha8Rng::seed_from_u64(opts.seed ^ (0xBA5E + realization as u64));
        let graph = UniformGraphBuilder::new(100)
            .mean_intercontact_range(
                TimeDelta::new(opts.intercontact_range.0),
                TimeDelta::new(opts.intercontact_range.1),
            )
            .build(&mut rng);
        let schedule = ContactSchedule::sample(&graph, Time::new(1080.0), &mut rng);
        let messages = WorkloadBuilder::new(opts.messages, TimeDelta::new(1080.0))
            .copies(l)
            .build(100, &mut rng);
        let report = run(
            &schedule,
            &mut SprayAndWait::source(),
            messages,
            &SimConfig::default(),
            &mut rng,
        )
        .expect("valid messages");
        total += report.total_transmissions() as f64;
        count += report.injected_count();
    }
    total / count as f64
}

fn main() {
    let opts = default_opts();
    let ls = [1u32, 2, 3, 4, 5];

    let mut table = FigureTable::new(
        "Figure 11: Message transmissions w.r.t. number of copies (K = 3, g = 5)",
        "copies_L",
        vec![
            "non-anon bound (2L)".into(),
            "non-anon sim (spray)".into(),
            "analysis bound".into(),
            "sim onion".into(),
        ],
    );

    let mut analysis_series = Vec::new();
    let mut sim_series = Vec::new();
    for &l in &ls {
        let cfg = ProtocolConfig {
            copies: l,
            ..ProtocolConfig::table2_defaults()
        };
        let point = run_random_graph_point(&cfg, &opts);
        let spray = spray_cost(l, &opts);
        table.push_row(
            l as f64,
            vec![
                Some(analysis::non_anonymous_bound(l) as f64),
                Some(spray),
                Some(point.analysis_cost_bound),
                Some(point.sim_transmissions),
            ],
        );
        analysis_series.push(point.analysis_cost_bound);
        sim_series.push(point.sim_transmissions);

        // The simulation must respect the paper's bound.
        if point.sim_transmissions > point.analysis_cost_bound {
            println!(
                "WARNING: L = {l}: simulated cost {} exceeds bound {}",
                point.sim_transmissions, point.analysis_cost_bound
            );
        }
    }
    table.print();
    table.save_csv("fig11_transmission_cost");

    check_trend("analysis bound grows with L", &analysis_series, true, 1e-12);
    check_trend("simulated cost grows with L", &sim_series, true, 0.2);
}
