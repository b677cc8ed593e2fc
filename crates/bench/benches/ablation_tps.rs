//! Ablation: onion-group routing vs the Threshold Pivot Scheme (TPS,
//! related work [32]) on identical networks.
//!
//! TPS splits the message into `s` Shamir shares routed via one relay
//! group each to a pivot, which reconstructs and delivers. It avoids the
//! `K`-group detour (lower delay) but reveals the destination to the
//! pivot — the paper's stated criticism. This bench quantifies both
//! sides.

use bench::FigureTable;
use contact_graph::{ContactSchedule, Time, TimeDelta, UniformGraphBuilder};
use dtn_sim::random_endpoints;
use onion_routing::{
    destination_exposure, run_tps_message, tps_cost_bound, OnionGroups, TpsConfig,
};
use onion_routing::{run_random_graph_point, ExperimentOptions, ProtocolConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let deadline = 120.0;
    let n = 100;
    let reps = 6;
    let messages = 25;

    // TPS side: simulate share routing + pivot leg.
    let tps_cfg = TpsConfig {
        shares: 4,
        threshold: 2,
    };
    let mut tps_delivered = 0usize;
    let mut tps_tx = 0u64;
    let mut tps_total = 0usize;
    let mut tps_delay_sum = 0.0;
    for rep in 0..reps {
        let mut rng = ChaCha8Rng::seed_from_u64(0x7B5 + rep);
        let graph = UniformGraphBuilder::new(n).build(&mut rng);
        let schedule = ContactSchedule::sample(&graph, Time::new(deadline), &mut rng);
        let groups = OnionGroups::random_partition(n, 5, &mut rng);
        for _ in 0..messages {
            let (source, destination) = random_endpoints(n, &mut rng);
            let outcome = run_tps_message(
                &schedule,
                &groups,
                &tps_cfg,
                source,
                destination,
                Time::ZERO,
                TimeDelta::new(deadline),
                &mut rng,
            );
            tps_total += 1;
            tps_tx += outcome.transmissions;
            if let Some(t) = outcome.delivered_at {
                tps_delivered += 1;
                tps_delay_sum += t.as_f64();
            }
        }
    }

    // Onion side: same network scale, Table II defaults at the same
    // deadline, single copy.
    let onion_point = run_random_graph_point(
        &ProtocolConfig {
            deadline: TimeDelta::new(deadline),
            ..ProtocolConfig::table2_defaults()
        },
        &ExperimentOptions::builder()
            .messages(messages)
            .realizations(reps as usize)
            .seed(0x7B5)
            .build(),
    );

    let mut table = FigureTable::new(
        "Ablation: onion routing (K = 3) vs TPS (s = 4, τ = 2), T = 120 min",
        "protocol (1=onion, 2=tps)",
        vec![
            "delivery".into(),
            "tx per msg".into(),
            "cost bound".into(),
            "dest exposure @ c/n=10%".into(),
        ],
    );
    table.push_row(
        1.0,
        vec![
            Some(onion_point.sim_delivery),
            Some(onion_point.sim_transmissions),
            Some(onion_point.analysis_cost_bound),
            // Onion: the destination is revealed only if the *last-hop
            // relay* is compromised AND identified; upper bound c/n·(1/g).
            Some(0.1 / 5.0),
        ],
    );
    table.push_row(
        2.0,
        vec![
            Some(tps_delivered as f64 / tps_total as f64),
            Some(tps_tx as f64 / tps_total as f64),
            Some(tps_cost_bound(&tps_cfg) as f64),
            Some(destination_exposure(n, 10)),
        ],
    );
    table.print();
    table.save_csv("ablation_tps");

    println!(
        "\nmean TPS delivery delay: {:.1} min over {} delivered",
        tps_delay_sum / tps_delivered.max(1) as f64,
        tps_delivered
    );
    println!(
        "TPS trades destination anonymity (pivot knows v_d: exposure {}) for a\n\
         shorter detour; onion routing keeps exposure at ~{} but pays K+1 hops.",
        destination_exposure(n, 10),
        0.1 / 5.0
    );
}
