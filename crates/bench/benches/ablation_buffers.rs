//! Ablation: the paper's infinite-buffer assumption vs finite buffers.
//!
//! The abstract model assumes nodes always have room; this sweep shows at
//! what buffer size that assumption starts to matter for the onion
//! protocol (hardly at all — single-custody) vs epidemic routing (a lot).

use bench::FigureTable;
use contact_graph::{ContactSchedule, Time, TimeDelta, UniformGraphBuilder};
use dtn_sim::baselines::Epidemic;
use dtn_sim::{run, DropPolicy, RoutingProtocol, SimConfig, WorkloadBuilder};
use onion_routing::{ForwardingMode, OnionGroups, OnionRouting};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn evaluate<P, F>(make_protocol: F, capacity: Option<usize>) -> (f64, f64)
where
    P: RoutingProtocol,
    F: Fn(&mut ChaCha8Rng) -> P,
{
    let mut delivery = 0.0;
    let mut drops = 0.0;
    let reps = 5;
    for rep in 0..reps {
        let mut rng = ChaCha8Rng::seed_from_u64(0xBFF + rep);
        let graph = UniformGraphBuilder::new(100).build(&mut rng);
        let schedule = ContactSchedule::sample(&graph, Time::new(360.0), &mut rng);
        let msgs = WorkloadBuilder::new(40, TimeDelta::new(360.0)).build(100, &mut rng);
        let mut protocol = make_protocol(&mut rng);
        let cfg = SimConfig::builder()
            .buffer_capacity(capacity)
            .drop_policy(DropPolicy::DropOldest)
            .build();
        let report = run(&schedule, &mut protocol, msgs, &cfg, &mut rng).expect("valid");
        delivery += report.delivery_rate();
        drops += report.buffer_drops() as f64;
    }
    (delivery / reps as f64, drops / reps as f64)
}

fn main() {
    let mut table = FigureTable::new(
        "Ablation: finite buffers (DropOldest), 40 msgs, T = 360 min",
        "buffer_capacity",
        vec![
            "onion delivery".into(),
            "onion drops".into(),
            "epidemic delivery".into(),
            "epidemic drops".into(),
        ],
    );

    for capacity in [Some(1usize), Some(2), Some(5), Some(20), None] {
        let (onion_delivery, onion_drops) = evaluate(
            |rng| {
                let groups = OnionGroups::random_partition(100, 5, rng);
                OnionRouting::new(groups, 3, ForwardingMode::SingleCopy)
            },
            capacity,
        );
        let (epi_delivery, epi_drops) = evaluate(|_| Epidemic, capacity);
        table.push_row(
            capacity.map_or(f64::INFINITY, |c| c as f64),
            vec![
                Some(onion_delivery),
                Some(onion_drops),
                Some(epi_delivery),
                Some(epi_drops),
            ],
        );
    }
    table.print();
    table.save_csv("ablation_buffers");
    println!(
        "single-custody onion routing barely notices small buffers (one copy per\n\
         message in flight); epidemic replication collapses onto the drop policy.\n\
         The paper's infinite-buffer assumption is therefore harmless for its\n\
         protocol class."
    );
}
