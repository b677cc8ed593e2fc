//! The paper's headline claim as executable assertions: the analytical
//! models closely approximate (or share the trend of) the simulation.
//!
//! These are statistical tests over seeded experiments, with tolerances
//! set generously enough to be deterministic at the configured sample
//! sizes.

use contact_graph::TimeDelta;
use onion_routing::{
    run_random_graph_point, run_trials, trial_rng, ExperimentOptions, ProtocolConfig, RunnerConfig,
    SeedDomain, SweepSpec,
};
use rand::Rng;

fn opts() -> ExperimentOptions {
    ExperimentOptions::builder()
        .messages(25)
        .realizations(5)
        .seed(0x0A11_DA7A)
        .intercontact_range((1.0, 36.0))
        .threads(0)
        .build()
}

#[test]
fn delivery_model_tracks_simulation_across_deadlines() {
    let cfg = ProtocolConfig::table2_defaults();
    let deadlines = [60.0, 120.0, 240.0, 480.0, 1080.0];
    let rows = SweepSpec::random_graph(cfg.clone())
        .over_deadlines(&deadlines)
        .run(&opts())
        .into_delivery()
        .expect("delivery rows");
    for row in &rows {
        assert!(
            (row.analysis - row.sim).abs() < 0.12,
            "T = {}: analysis {} vs sim {}",
            row.deadline,
            row.analysis,
            row.sim
        );
    }
    // Both saturate by the Table II maximum deadline.
    assert!(rows.last().unwrap().sim > 0.95);
    assert!(rows.last().unwrap().analysis > 0.95);
}

#[test]
fn delivery_model_tracks_simulation_across_group_sizes() {
    for g in [1usize, 5, 10] {
        let cfg = ProtocolConfig {
            group_size: g,
            deadline: TimeDelta::new(120.0),
            ..ProtocolConfig::table2_defaults()
        };
        let point = run_random_graph_point(&cfg, &opts());
        assert!(
            (point.analysis_delivery - point.sim_delivery).abs() < 0.12,
            "g = {g}: analysis {} vs sim {}",
            point.analysis_delivery,
            point.sim_delivery
        );
    }
}

#[test]
fn multicopy_delivery_model_tracks_simulation() {
    for l in [1u32, 3, 5] {
        let cfg = ProtocolConfig {
            copies: l,
            deadline: TimeDelta::new(120.0),
            ..ProtocolConfig::table2_defaults()
        };
        let point = run_random_graph_point(&cfg, &opts());
        // The paper observes a wider gap for multi-copy at short
        // deadlines (Fig. 10); the trend must still match.
        assert!(
            (point.analysis_delivery - point.sim_delivery).abs() < 0.2,
            "L = {l}: analysis {} vs sim {}",
            point.analysis_delivery,
            point.sim_delivery
        );
    }
}

#[test]
fn traceable_model_matches_simulation_closely() {
    let cfg = ProtocolConfig {
        deadline: TimeDelta::new(1080.0),
        ..ProtocolConfig::table2_defaults()
    };
    let cs = [5usize, 10, 20, 30, 50];
    let rows = SweepSpec::random_graph(cfg.clone())
        .over_security(&cs, 4)
        .run(&opts())
        .into_security()
        .expect("security rows");
    for row in &rows {
        let sim = row.sim_traceable.expect("plenty of deliveries at T = 1080");
        assert!(
            (row.analysis_traceable - sim).abs() < 0.03,
            "c = {}: analysis {} vs sim {}",
            row.compromised,
            row.analysis_traceable,
            sim
        );
    }
}

#[test]
fn anonymity_model_matches_simulation_closely() {
    let cfg = ProtocolConfig {
        deadline: TimeDelta::new(1080.0),
        ..ProtocolConfig::table2_defaults()
    };
    let cs = [5usize, 10, 20, 30];
    let rows = SweepSpec::random_graph(cfg.clone())
        .over_security(&cs, 4)
        .run(&opts())
        .into_security()
        .expect("security rows");
    for row in &rows {
        let sim = row.sim_anonymity.expect("anonymity always measurable");
        assert!(
            (row.analysis_anonymity - sim).abs() < 0.05,
            "c = {}: analysis {} vs sim {}",
            row.compromised,
            row.analysis_anonymity,
            sim
        );
    }
}

#[test]
fn multicopy_anonymity_gap_grows_with_compromise() {
    // Section V-C: the L = 5 model and simulation agree below ~30%
    // compromise and drift apart beyond (the c ≪ n assumption).
    let cfg = ProtocolConfig {
        copies: 5,
        deadline: TimeDelta::new(1080.0),
        ..ProtocolConfig::table2_defaults()
    };
    let rows = SweepSpec::random_graph(cfg.clone())
        .over_security(&[10usize, 50], 4)
        .run(&opts())
        .into_security()
        .expect("security rows");
    let small_gap = (rows[0].analysis_anonymity - rows[0].sim_anonymity.unwrap()).abs();
    assert!(small_gap < 0.08, "gap at 10%: {small_gap}");
}

#[test]
fn cost_bounds_hold_in_simulation() {
    for l in [1u32, 2, 5] {
        let cfg = ProtocolConfig {
            copies: l,
            deadline: TimeDelta::new(1080.0),
            ..ProtocolConfig::table2_defaults()
        };
        let point = run_random_graph_point(&cfg, &opts());
        assert!(
            point.sim_transmissions <= point.analysis_cost_bound + 1e-9,
            "L = {l}: {} > {}",
            point.sim_transmissions,
            point.analysis_cost_bound
        );
        // Single-copy cost is *exactly* K + 1 for delivered messages, so
        // the mean is positive once anything is delivered.
        assert!(point.sim_transmissions > 0.0);
    }
}

/// Direct Monte-Carlo convergence to the delivery model (Eqs. 4–7): the
/// parallel runner samples the onion path's per-hop exponential delays
/// (with the Eq. 7 `L`-boosted rates) and the empirical delivery
/// frequency over ≥2k trials must match the hypoexponential CDF within
/// the binomial sampling tolerance. Exercises [`run_trials`] with a
/// multi-thread config on a workload that is pure model, no simulator.
#[test]
fn parallel_mc_delivery_converges_to_hypoexponential_model() {
    let lambda = analysis::TABLE2_MEAN_RATE;
    let trials = 4000usize;
    // 4·sqrt(p(1-p)/n) ≤ 4·0.5/sqrt(4000) ≈ 0.032 — deterministic at
    // these seeds with ample slack.
    let tolerance = 0.035;

    // Two (K, g, L) settings from the paper's sweeps: the single-copy
    // Table II default and a long multi-copy route.
    for (k, g, l, t) in [(3usize, 5usize, 1u32, 360.0), (5usize, 2usize, 3u32, 240.0)] {
        let rates = analysis::uniform_onion_path_rates(lambda, g, k).expect("valid parameters");
        let model = analysis::delivery_rate_multicopy(&rates, l, t).expect("valid parameters");

        let boosted: Vec<f64> = rates.iter().map(|&r| r * l as f64).collect();
        let mut hits = 0usize;
        run_trials(
            &RunnerConfig::new(4),
            trials,
            |trial| {
                let mut rng = trial_rng(0x0A11_DA7A, SeedDomain::ModelValidation, trial as u64);
                let total: f64 = boosted
                    .iter()
                    .map(|&rate| {
                        let u: f64 = rng.gen_range(0.0..1.0);
                        -(1.0 - u).ln() / rate
                    })
                    .sum();
                total <= t
            },
            &mut hits,
            |hits, _, delivered| {
                if delivered {
                    *hits += 1;
                }
            },
        );
        let empirical = hits as f64 / trials as f64;
        assert!(
            (empirical - model).abs() < tolerance,
            "K = {k}, g = {g}, L = {l}: model {model} vs Monte-Carlo {empirical}"
        );
    }
}

#[test]
fn tradeoff_delivery_up_anonymity_down_with_copies() {
    // The paper's Figures 10–13 trade-off in one assertion.
    let opts = opts();
    let mut last_delivery = -1.0;
    let mut last_anonymity = 2.0;
    for l in [1u32, 3, 5] {
        let cfg = ProtocolConfig {
            copies: l,
            deadline: TimeDelta::new(60.0),
            ..ProtocolConfig::table2_defaults()
        };
        let point = run_random_graph_point(&cfg, &opts);
        assert!(
            point.analysis_delivery >= last_delivery,
            "delivery should rise with L"
        );
        assert!(
            point.analysis_anonymity <= last_anonymity,
            "anonymity should fall with L"
        );
        last_delivery = point.analysis_delivery;
        last_anonymity = point.analysis_anonymity;
    }
}
