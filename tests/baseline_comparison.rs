//! Cross-protocol integration: the anonymity/performance orderings between
//! onion routing and the classical baselines hold on shared workloads.

use dtn_sim::baselines::{DirectDelivery, Epidemic, FirstContact, SprayAndWait};
use onion_dtn::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

struct Scenario {
    schedule: ContactSchedule,
    messages: Vec<Message>,
}

fn scenario(seed: u64, copies: u32) -> Scenario {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let graph = UniformGraphBuilder::new(50).build(&mut rng);
    let schedule = ContactSchedule::sample(&graph, Time::new(240.0), &mut rng);
    let messages = WorkloadBuilder::new(25, TimeDelta::new(240.0))
        .copies(copies)
        .build(50, &mut rng);
    Scenario { schedule, messages }
}

fn run_protocol<P: RoutingProtocol>(s: &Scenario, protocol: &mut P, seed: u64) -> SimReport {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    run(
        &s.schedule,
        protocol,
        s.messages.clone(),
        &SimConfig::default(),
        &mut rng,
    )
    .expect("valid scenario")
}

#[test]
fn epidemic_dominates_everything_in_delivery() {
    let s = scenario(1, 1);
    let epidemic = run_protocol(&s, &mut Epidemic, 100);
    let direct = run_protocol(&s, &mut DirectDelivery, 100);
    let first = run_protocol(&s, &mut FirstContact, 100);
    let mut rng = ChaCha8Rng::seed_from_u64(100);
    let groups = OnionGroups::random_partition(50, 5, &mut rng);
    let onion = run_protocol(
        &s,
        &mut OnionRouting::new(groups, 3, ForwardingMode::SingleCopy),
        100,
    );

    assert!(epidemic.delivery_rate() >= direct.delivery_rate());
    assert!(epidemic.delivery_rate() >= first.delivery_rate());
    assert!(epidemic.delivery_rate() >= onion.delivery_rate());
    // And pays the highest cost.
    assert!(epidemic.total_transmissions() >= onion.total_transmissions());
    assert!(epidemic.total_transmissions() >= direct.total_transmissions());
}

#[test]
fn onion_detour_costs_more_than_direct_but_stays_bounded() {
    let s = scenario(2, 1);
    let direct = run_protocol(&s, &mut DirectDelivery, 7);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let groups = OnionGroups::random_partition(50, 5, &mut rng);
    let onion = run_protocol(
        &s,
        &mut OnionRouting::new(groups, 3, ForwardingMode::SingleCopy),
        7,
    );

    // Direct: exactly one transmission per delivered message.
    assert_eq!(
        direct.total_transmissions(),
        direct.delivered_count() as u64
    );
    // Onion: each delivered message costs exactly K + 1 = 4; partial
    // progress costs at most K.
    for &id in onion.injected() {
        let tx = onion.transmissions_for(id);
        if onion.delivery_time(id).is_some() {
            assert_eq!(tx, 4, "delivered message must cost K + 1");
        } else {
            assert!(tx <= 3, "undelivered single-copy exceeded K transfers");
        }
    }
}

#[test]
fn spray_and_wait_sits_between_direct_and_epidemic() {
    let s = scenario(3, 4);
    let direct = run_protocol(&s, &mut DirectDelivery, 9);
    let spray = run_protocol(&s, &mut SprayAndWait::source(), 9);
    let epidemic = run_protocol(&s, &mut Epidemic, 9);

    assert!(spray.delivery_rate() >= direct.delivery_rate() - 0.04);
    assert!(spray.delivery_rate() <= epidemic.delivery_rate() + 1e-9);
    assert!(spray.total_transmissions() <= epidemic.total_transmissions());
}

#[test]
fn binary_spray_spreads_at_least_as_fast_as_source_spray() {
    let s = scenario(4, 8);
    let source = run_protocol(&s, &mut SprayAndWait::source(), 11);
    let binary = run_protocol(&s, &mut SprayAndWait::binary(), 11);
    // Binary spray disseminates copies strictly faster in expectation;
    // allow a small tolerance for this finite sample.
    assert!(binary.delivery_rate() >= source.delivery_rate() - 0.05);
}

#[test]
fn multi_copy_onion_beats_single_copy_delivery_under_tight_deadline() {
    let mut single_total = 0.0;
    let mut multi_total = 0.0;
    for seed in 0..5u64 {
        let s1 = scenario(40 + seed, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(13 + seed);
        let groups = OnionGroups::random_partition(50, 5, &mut rng);
        let single = run_protocol(
            &s1,
            &mut OnionRouting::new(groups.clone(), 3, ForwardingMode::SingleCopy),
            13 + seed,
        );
        let s3 = scenario(40 + seed, 3);
        let multi = run_protocol(
            &s3,
            &mut OnionRouting::new(groups, 3, ForwardingMode::MultiCopy),
            13 + seed,
        );
        single_total += single.delivery_rate();
        multi_total += multi.delivery_rate();
    }
    assert!(
        multi_total >= single_total,
        "multi-copy should deliver at least as much: {multi_total} vs {single_total}"
    );
}

#[test]
fn anonymity_ordering_onion_beats_baselines() {
    // Baselines expose the full path to a path-observing adversary (no
    // layered encryption): model them as g = 1 effective anonymity, vs
    // the onion's g = 5.
    let onion = analysis::path_anonymity(50, 5, 3, 10, 1).expect("valid");
    let baseline = analysis::path_anonymity(50, 1, 3, 10, 1).expect("valid");
    assert!(onion > baseline);
}
