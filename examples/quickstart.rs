//! Quickstart: anonymous message delivery over a random DTN.
//!
//! Builds a Table II contact graph, routes one message through onion
//! groups with the abstract protocol, verifies the realized custody chain
//! against *real* layered encryption, and compares the analytical delivery
//! model with the simulation.
//!
//! Run with: `cargo run --example quickstart`

use onion_dtn::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(2016);

    // 1. The network: 100 nodes, every pair meets with a mean
    //    inter-contact time between 1 and 36 minutes (Table II).
    let graph = UniformGraphBuilder::new(100).build(&mut rng);
    let schedule = ContactSchedule::sample(&graph, Time::new(360.0), &mut rng);
    println!(
        "network: {} nodes, {} contacts in 6 hours",
        graph.len(),
        schedule.len()
    );

    // 2. Onion groups of 5 and the single-copy protocol with K = 3.
    let groups = OnionGroups::random_partition(100, 5, &mut rng);
    let mut protocol = OnionRouting::new(groups.clone(), 3, ForwardingMode::SingleCopy);

    // 3. One message: v_0 wants to reach v_99 within 6 hours.
    let message = Message {
        id: MessageId(1),
        source: NodeId(0),
        destination: NodeId(99),
        created: Time::ZERO,
        deadline: TimeDelta::new(360.0),
        copies: 1,
    };
    let report = run(
        &schedule,
        &mut protocol,
        vec![message],
        &SimConfig::default(),
        &mut rng,
    )
    .expect("valid message");

    let route = protocol.route_of(MessageId(1)).expect("route chosen");
    println!("route: v0 -> {route:?} -> v99");

    match report.delivered_path(MessageId(1)) {
        Some(path) => {
            println!(
                "delivered in {:.1} min via {path:?} ({} transmissions)",
                report
                    .delivery_delay(MessageId(1))
                    .expect("delivered")
                    .as_f64(),
                report.transmissions_for(MessageId(1)),
            );

            // 4. Prove the chain works with real cryptography: build the
            //    actual constant-size onion and let each relay peel its
            //    layer in place.
            let ctx = OnionCryptoContext::new([7u8; 32], groups);
            let mut packet = WirePacket::zeroed();
            ctx.build_wire_into(&mut packet, route, NodeId(99), b"attack at dawn", &mut rng)
                .expect("non-empty route");
            println!(
                "onion packet: {} bytes, target {}",
                packet.as_bytes().len(),
                packet.target()
            );
            let payload = ctx
                .walk_custody_chain(packet, &path, &mut rng)
                .expect("realized chain must be cryptographically valid");
            println!(
                "crypto walk recovered payload: {:?}",
                String::from_utf8_lossy(&payload)
            );
        }
        None => println!("message missed its deadline (rare on this dense graph)"),
    }

    // 5. Compare with the analytical model (Eq. 4 + Eq. 6).
    let members: Vec<Vec<NodeId>> = protocol
        .groups()
        .route_members(route)
        .into_iter()
        .map(|g| {
            g.into_iter()
                .filter(|&v| v != NodeId(0) && v != NodeId(99))
                .collect()
        })
        .collect();
    let rates =
        analysis::onion_path_rates(&graph, NodeId(0), &members, NodeId(99)).expect("valid route");
    println!(
        "model: per-hop rates {rates:.3?}, P[delivery within 6 h] = {:.4}",
        analysis::delivery_rate(&rates, 360.0).expect("valid rates")
    );

    // 6. What does an adversary with 10 compromised nodes learn?
    let adversary = Adversary::random(100, 10, &mut rng);
    if let Some(path) = report.delivered_path(MessageId(1)) {
        println!(
            "adversary (10% compromised): traceable rate of this path = {:.4}",
            adversary.traceable_rate(&path)
        );
    }
    println!(
        "expected path anonymity (Eq. 19): {:.4}",
        analysis::path_anonymity(100, 5, 3, 10, 1).expect("valid parameters")
    );
}
