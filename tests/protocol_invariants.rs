//! Property-based invariants of the routing protocols under randomized
//! networks, workloads, and schedules.

use onion_dtn::prelude::*;
use proptest::prelude::*;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Builds a random scenario and runs the onion protocol, returning
/// everything needed to check invariants.
fn run_scenario(
    seed: u64,
    n: usize,
    g: usize,
    k: usize,
    copies: u32,
    horizon: f64,
) -> (OnionRouting, SimReport, Vec<Message>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let graph = UniformGraphBuilder::new(n).build(&mut rng);
    let schedule = ContactSchedule::sample(&graph, Time::new(horizon), &mut rng);
    let groups = OnionGroups::random_partition(n, g, &mut rng);
    let mode = if copies == 1 {
        ForwardingMode::SingleCopy
    } else {
        ForwardingMode::MultiCopy
    };
    let mut protocol = OnionRouting::new(groups, k, mode);
    let messages: Vec<Message> = (0..8u64)
        .map(|i| {
            let (source, destination) = random_endpoints(n, &mut rng);
            Message {
                id: MessageId(i),
                source,
                destination,
                created: Time::new(rng.gen_range(0.0..horizon / 4.0)),
                deadline: TimeDelta::new(rng.gen_range(horizon / 4.0..horizon)),
                copies,
            }
        })
        .collect();
    let report = run(
        &schedule,
        &mut protocol,
        messages.clone(),
        &SimConfig::default(),
        &mut rng,
    )
    .expect("valid scenario");
    (protocol, report, messages)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn single_copy_invariants(seed in 0u64..10_000, k in 1usize..5, g in 1usize..6) {
        let n = 40;
        prop_assume!(k <= n / g);
        let (protocol, report, messages) = run_scenario(seed, n, g, k, 1, 300.0);

        for m in &messages {
            // Cost: at most K + 1 transmissions ever.
            prop_assert!(report.transmissions_for(m.id) <= (k + 1) as u64);

            if let Some(path) = report.delivered_path(m.id) {
                // Path structure: source, K relays, destination.
                prop_assert_eq!(path.len(), k + 2);
                prop_assert_eq!(path[0], m.source);
                prop_assert_eq!(*path.last().unwrap(), m.destination);
                // Relays traverse the route's groups in order, and are
                // never the endpoints.
                let route = protocol.route_of(m.id).unwrap();
                for (hop, &relay) in path[1..path.len() - 1].iter().enumerate() {
                    prop_assert!(protocol.groups().contains(route[hop], relay));
                    prop_assert!(relay != m.source && relay != m.destination);
                }
                // Delivered within the deadline.
                let delay = report.delivery_delay(m.id).unwrap();
                prop_assert!(delay.as_f64() <= m.deadline.as_f64() + 1e-9);
            }
        }
    }

    #[test]
    fn multi_copy_invariants(seed in 0u64..10_000, copies in 2u32..6) {
        let (_protocol, report, messages) = run_scenario(seed, 40, 5, 3, copies, 300.0);

        for m in &messages {
            // Paper's bound: at most (K + 2) · L transmissions.
            let bound = analysis::multi_copy_bound(3, copies).unwrap();
            prop_assert!(
                report.transmissions_for(m.id) <= bound,
                "{} > {}", report.transmissions_for(m.id), bound
            );

            // Copy budget: at most L - 1 sprayed (tag-0) receivers, and at
            // most L distinct custodians at any hop position.
            let sprayed = report
                .forward_log()
                .iter()
                .filter(|r| r.message == m.id && r.receiver_tag == 0)
                .count();
            prop_assert!(sprayed <= (copies - 1) as usize);
            let positions = onion_routing::metrics::custodians_per_position(&report, m.id, 4);
            for (i, set) in positions.iter().enumerate().skip(1) {
                prop_assert!(
                    set.len() <= copies as usize,
                    "position {} has {} custodians for L = {}", i, set.len(), copies
                );
            }
        }
    }

    #[test]
    fn forwarding_respects_route_membership(seed in 0u64..10_000) {
        let (protocol, report, messages) = run_scenario(seed, 40, 4, 3, 1, 300.0);
        for rec in report.forward_log() {
            let m = messages.iter().find(|m| m.id == rec.message).unwrap();
            let route = protocol.route_of(rec.message).unwrap();
            let tag = rec.receiver_tag as usize;
            if tag == 0 {
                // Spray does not happen in single-copy mode.
                prop_assert!(false, "single-copy must never emit tag-0 transfers");
            } else if tag <= route.len() {
                // Entering group R_tag.
                prop_assert!(protocol.groups().contains(route[tag - 1], rec.to));
            } else {
                // Final hop to the destination.
                prop_assert_eq!(rec.to, m.destination);
                prop_assert_eq!(tag, route.len() + 1);
            }
        }
    }

    #[test]
    fn no_transfer_after_expiry(seed in 0u64..10_000) {
        let (_p, report, messages) = run_scenario(seed, 30, 3, 2, 1, 200.0);
        for rec in report.forward_log() {
            let m = messages.iter().find(|m| m.id == rec.message).unwrap();
            prop_assert!(rec.time <= m.expires_at(), "transfer after deadline");
            prop_assert!(rec.time >= m.created, "transfer before injection");
        }
    }
}
