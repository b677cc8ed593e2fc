//! Integration coverage for the extensions beyond the paper's minimum
//! (DESIGN.md §4b): epoch rekeying, constant-size onions, TPS, PRoPHET,
//! finite buffers, mobility, and the ONE trace format — exercised
//! together rather than module-by-module.

use onion_dtn::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn epoch_rekeying_invalidates_old_onions() {
    // An onion built under epoch 0 keys must not peel with epoch 1 keys:
    // captured devices cannot decrypt future traffic and vice versa.
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let chain0 = EpochKeychain::new([7u8; 32]);
    let mut chain1 = chain0.clone();
    chain1.advance();

    let spec = onion_crypto::OnionLayerSpec {
        group: 4,
        key: chain0.group_key(4),
    };
    let mut packet = WirePacket::build(&[spec], 9, b"epoch bound", &mut rng).unwrap();
    // Next epoch fails (leaving the packet intact); correct epoch peels.
    assert!(packet
        .peel_in_place(&chain1.group_key(4), &mut rng)
        .is_err());
    assert!(packet.peel_in_place(&chain0.group_key(4), &mut rng).is_ok());
}

#[test]
fn constant_size_onion_over_simulated_path() {
    // Run the abstract protocol, then replay the winning chain with the
    // constant-size wire packet, whose fixed buffer means no hop can tell
    // its depth from the wire size.
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let graph = UniformGraphBuilder::new(40).build(&mut rng);
    let schedule = ContactSchedule::sample(&graph, Time::new(300.0), &mut rng);
    let groups = OnionGroups::random_partition(40, 4, &mut rng);
    let mut protocol = OnionRouting::new(groups.clone(), 3, ForwardingMode::SingleCopy);
    let messages = WorkloadBuilder::new(10, TimeDelta::new(300.0)).build(40, &mut rng);
    let report = run(
        &schedule,
        &mut protocol,
        messages,
        &SimConfig::default(),
        &mut rng,
    )
    .unwrap();

    let ctx = OnionCryptoContext::new([3u8; 32], groups);
    let mut verified = 0;
    for &id in report.injected() {
        let Some(chain) = report.delivered_path(id) else {
            continue;
        };
        let route = protocol.route_of(id).unwrap();
        let destination = *chain.last().unwrap();
        let mut packet = WirePacket::zeroed();
        ctx.build_wire_into(&mut packet, route, destination, b"fixed", &mut rng)
            .unwrap();
        let payload = ctx
            .walk_custody_chain(packet, &chain, &mut rng)
            .expect("fixed-size walk");
        assert_eq!(payload, b"fixed");
        verified += 1;
    }
    assert!(verified >= 5, "only {verified} chains verified");
}

#[test]
fn tps_trades_exposure_for_delay() {
    use onion_routing::{run_tps_message, TpsConfig};
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let graph = UniformGraphBuilder::new(50).build(&mut rng);
    let schedule = ContactSchedule::sample(&graph, Time::new(400.0), &mut rng);
    let groups = OnionGroups::random_partition(50, 5, &mut rng);

    let mut tps_delivered = 0;
    let trials = 10;
    for i in 0..trials {
        let outcome = run_tps_message(
            &schedule,
            &groups,
            &TpsConfig {
                shares: 4,
                threshold: 2,
            },
            NodeId(i),
            NodeId(49 - i),
            Time::ZERO,
            TimeDelta::new(400.0),
            &mut rng,
        );
        if outcome.delivered_at.is_some() {
            tps_delivered += 1;
        }
        assert!(
            outcome.transmissions
                <= onion_routing::tps_cost_bound(&TpsConfig {
                    shares: 4,
                    threshold: 2
                })
        );
    }
    assert!(
        tps_delivered >= 8,
        "TPS delivered only {tps_delivered}/{trials}"
    );
    // The structural exposure trade-off.
    assert!(onion_routing::destination_exposure(50, 5) > 0.05);
}

#[test]
fn prophet_beats_direct_on_community_structure() {
    use dtn_sim::baselines::DirectDelivery;
    use dtn_sim::prophet::Prophet;
    // Community graph: history helps find cross-community couriers.
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let graph = contact_graph::community_graph(
        5,
        8,
        TimeDelta::new(2.0),
        TimeDelta::new(120.0),
        0.15,
        &mut rng,
    );
    let schedule = ContactSchedule::sample(&graph, Time::new(240.0), &mut rng);
    let messages = WorkloadBuilder::new(30, TimeDelta::new(240.0)).build(40, &mut rng);

    let mut r1 = ChaCha8Rng::seed_from_u64(5);
    let prophet = run(
        &schedule,
        &mut Prophet::new(40),
        messages.clone(),
        &SimConfig::default(),
        &mut r1,
    )
    .unwrap();
    let mut r2 = ChaCha8Rng::seed_from_u64(5);
    let direct = run(
        &schedule,
        &mut DirectDelivery,
        messages,
        &SimConfig::default(),
        &mut r2,
    )
    .unwrap();
    assert!(
        prophet.delivery_rate() >= direct.delivery_rate(),
        "prophet {} < direct {}",
        prophet.delivery_rate(),
        direct.delivery_rate()
    );
}

#[test]
fn finite_buffers_hurt_epidemic_more_than_onion() {
    use dtn_sim::baselines::Epidemic;
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let graph = UniformGraphBuilder::new(50).build(&mut rng);
    let schedule = ContactSchedule::sample(&graph, Time::new(200.0), &mut rng);
    let messages = WorkloadBuilder::new(30, TimeDelta::new(200.0)).build(50, &mut rng);

    let tight = SimConfig::builder()
        .buffer_capacity(Some(2))
        .drop_policy(DropPolicy::DropOldest)
        .build();
    let mut r = ChaCha8Rng::seed_from_u64(7);
    let epi = run(&schedule, &mut Epidemic, messages.clone(), &tight, &mut r).unwrap();
    let mut r = ChaCha8Rng::seed_from_u64(7);
    let groups = OnionGroups::random_partition(50, 5, &mut r);
    let mut onion = OnionRouting::new(groups, 3, ForwardingMode::SingleCopy);
    let oni = run(&schedule, &mut onion, messages, &tight, &mut r).unwrap();

    // Epidemic thrashes the tiny buffers; single-custody onion barely
    // notices.
    assert!(epi.buffer_drops() > 10 * oni.buffer_drops().max(1));
}

#[test]
fn one_format_feeds_the_same_pipeline() {
    // Generate a mobility schedule, export it as a ONE event log, parse
    // it back, and confirm the round trip preserves the contacts.
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let schedule = waypoint_schedule(
        8,
        Time::new(2000.0),
        &WaypointConfig {
            arena: 300.0,
            range: 40.0,
            ..WaypointConfig::default()
        },
        &mut rng,
    );
    assert!(schedule.len() > 20);

    let mut log = String::new();
    for e in schedule.iter() {
        log.push_str(&format!(
            "{} CONN n{} n{} up\n",
            e.time.as_f64(),
            e.a.0,
            e.b.0
        ));
    }
    let parsed = traces::parse_one_str(&log).unwrap();
    assert_eq!(parsed.schedule.len(), schedule.len());
    assert_eq!(parsed.schedule.node_count(), 8);
}

#[test]
fn report_percentiles_match_deadline_curve() {
    // delivery_rate_within at the q-quantile delay must be >= q fraction
    // of *delivered* messages... check internal consistency on a real run.
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let graph = UniformGraphBuilder::new(30).build(&mut rng);
    let schedule = ContactSchedule::sample(&graph, Time::new(300.0), &mut rng);
    let groups = OnionGroups::random_partition(30, 3, &mut rng);
    let mut protocol = OnionRouting::new(groups, 2, ForwardingMode::SingleCopy);
    let messages = WorkloadBuilder::new(25, TimeDelta::new(300.0)).build(30, &mut rng);
    let report = run(
        &schedule,
        &mut protocol,
        messages,
        &SimConfig::default(),
        &mut rng,
    )
    .unwrap();
    let delivered_fraction = report.delivery_rate();
    if let Some(median) = report.median_delay() {
        let at_median = report.delivery_rate_within(median);
        assert!(at_median >= 0.5 * delivered_fraction - 1e-9);
        assert!(at_median <= delivered_fraction + 1e-9);
    }
}
