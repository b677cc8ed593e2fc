//! Ablation: the cost of anonymity — onion routing (single- and
//! multi-copy) vs the non-anonymous baselines (direct delivery,
//! spray-and-wait source/binary, epidemic) on identical workloads.
//!
//! Expected shape: epidemic delivers most at the highest cost; onion
//! routing pays the (K + 2)·L detour for anonymity; direct delivery is
//! cheapest and slowest.

use bench::{default_opts, FigureTable};
use contact_graph::{ContactSchedule, Time, TimeDelta, UniformGraphBuilder};
use dtn_sim::baselines::{DirectDelivery, Epidemic, SprayAndWait};
use dtn_sim::{run, RoutingProtocol, SimConfig, SimReport, WorkloadBuilder};
use onion_routing::{ForwardingMode, OnionGroups, OnionRouting};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn evaluate<P: RoutingProtocol>(
    label: &str,
    protocol: &mut P,
    copies: u32,
    rows: &mut Vec<(String, f64, f64)>,
) {
    let opts = default_opts();
    let mut delivery = 0.0;
    let mut tx = 0.0;
    for realization in 0..opts.realizations {
        let mut rng = ChaCha8Rng::seed_from_u64(opts.seed ^ (0xAB1A + realization as u64));
        let graph = UniformGraphBuilder::new(100).build(&mut rng);
        let schedule = ContactSchedule::sample(&graph, Time::new(360.0), &mut rng);
        let msgs = WorkloadBuilder::new(30, TimeDelta::new(360.0))
            .copies(copies)
            .build(100, &mut rng);
        let report: SimReport = run(&schedule, protocol, msgs, &SimConfig::default(), &mut rng)
            .expect("valid workload");
        delivery += report.delivery_rate();
        tx += report.mean_transmissions();
    }
    rows.push((
        label.to_string(),
        delivery / opts.realizations as f64,
        tx / opts.realizations as f64,
    ));
}

fn main() {
    let mut rows = Vec::new();
    evaluate("direct-delivery", &mut DirectDelivery, 1, &mut rows);
    evaluate(
        "spray-source L=4",
        &mut SprayAndWait::source(),
        4,
        &mut rows,
    );
    evaluate(
        "spray-binary L=4",
        &mut SprayAndWait::binary(),
        4,
        &mut rows,
    );
    evaluate("epidemic", &mut Epidemic, 1, &mut rows);

    let mut rng = ChaCha8Rng::seed_from_u64(0xA110);
    let groups = OnionGroups::random_partition(100, 5, &mut rng);
    evaluate(
        "onion single K=3",
        &mut OnionRouting::new(groups.clone(), 3, ForwardingMode::SingleCopy),
        1,
        &mut rows,
    );
    evaluate(
        "onion multi K=3 L=4",
        &mut OnionRouting::new(groups, 3, ForwardingMode::MultiCopy),
        4,
        &mut rows,
    );

    let mut table = FigureTable::new(
        "Ablation: cost of anonymity across protocols (n = 100, T = 360 min)",
        "protocol_idx",
        vec!["delivery rate".into(), "tx per message".into()],
    );
    for (i, (label, delivery, tx)) in rows.iter().enumerate() {
        println!("row {}: {label}", i + 1);
        table.push_row((i + 1) as f64, vec![Some(*delivery), Some(*tx)]);
    }
    table.print();
    table.save_csv("ablation_spray");

    // Sanity: epidemic dominates delivery; direct delivery is cheapest.
    let epidemic = &rows[3];
    let direct = &rows[0];
    for (label, delivery, _) in &rows {
        if delivery > &epidemic.1 {
            println!(
                "WARNING: {label} beats epidemic delivery ({delivery} > {})",
                epidemic.1
            );
        }
    }
    for (label, _, tx) in &rows[1..] {
        if tx < &direct.2 {
            println!(
                "WARNING: {label} is cheaper than direct delivery ({tx} < {})",
                direct.2
            );
        }
    }
}
