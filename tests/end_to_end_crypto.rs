//! End-to-end integration: the abstract simulation's custody chains are
//! cryptographically realizable with the real layered encryption.
//!
//! For every delivered message across several random networks, we build
//! the actual constant-size wire packet (group keys derived from a network
//! master secret) and replay the realized chain: each relay peels its
//! layer with *its own* keyring only.

use onion_crypto::keys::derive_group_key;
use onion_crypto::OnionLayerSpec;
use onion_dtn::prelude::*;
use onion_routing::{GroupId, WalkError};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn simulate(seed: u64, copies: u32) -> (OnionRouting, SimReport, Vec<Message>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let graph = UniformGraphBuilder::new(60).build(&mut rng);
    let schedule = ContactSchedule::sample(&graph, Time::new(400.0), &mut rng);
    let groups = OnionGroups::random_partition(60, 4, &mut rng);
    let mode = if copies == 1 {
        ForwardingMode::SingleCopy
    } else {
        ForwardingMode::MultiCopy
    };
    let mut protocol = OnionRouting::new(groups, 3, mode);
    let messages = WorkloadBuilder::new(15, TimeDelta::new(400.0))
        .copies(copies)
        .build(60, &mut rng);
    let report = run(
        &schedule,
        &mut protocol,
        messages.clone(),
        &SimConfig::default(),
        &mut rng,
    )
    .expect("valid messages");
    (protocol, report, messages)
}

#[test]
fn every_delivered_single_copy_chain_is_cryptographically_valid() {
    let mut verified = 0usize;
    for seed in 0..5u64 {
        let (protocol, report, messages) = simulate(seed, 1);
        let ctx = OnionCryptoContext::new([seed as u8; 32], protocol.groups().clone());
        let mut rng = ChaCha8Rng::seed_from_u64(seed + 1000);
        for m in &messages {
            let Some(chain) = report.delivered_path(m.id) else {
                continue;
            };
            let route = protocol.route_of(m.id).expect("route exists");
            let payload = format!("payload for {}", m.id).into_bytes();
            let mut packet = WirePacket::zeroed();
            ctx.build_wire_into(&mut packet, route, m.destination, &payload, &mut rng)
                .expect("non-empty route");
            let recovered = ctx
                .walk_custody_chain(packet, &chain, &mut rng)
                .unwrap_or_else(|e| panic!("seed {seed}, {}: {e}", m.id));
            assert_eq!(recovered, payload);
            verified += 1;
        }
    }
    assert!(
        verified > 20,
        "expected many delivered chains, got {verified}"
    );
}

#[test]
fn multi_copy_winning_chains_are_cryptographically_valid() {
    let mut verified = 0usize;
    for seed in 10..14u64 {
        let (protocol, report, messages) = simulate(seed, 3);
        let ctx = OnionCryptoContext::new([seed as u8; 32], protocol.groups().clone());
        let mut rng = ChaCha8Rng::seed_from_u64(seed + 2000);
        for m in &messages {
            let Some(chain) = report.delivered_path(m.id) else {
                continue;
            };
            // The winning chain may include sprayed pre-route custodians
            // (nodes holding the copy before it entered R_1). Those are
            // transport-level carriers, not onion relays: strip leading
            // tag-0 holders so the crypto walk starts at the last
            // pre-route custodian.
            let positions = onion_routing::metrics::custodians_per_position(&report, m.id, 4);
            let route = protocol.route_of(m.id).expect("route exists");
            // Find where the chain enters R_1 (skipping the source, which
            // may itself belong to R_1's group without acting as a relay).
            let groups = protocol.groups();
            let enter = chain
                .iter()
                .enumerate()
                .skip(1)
                .find(|&(_, &v)| groups.contains(route[0], v))
                .map(|(i, _)| i)
                .expect("chain must pass through R_1");
            let crypto_chain = &chain[enter - 1..];
            let payload = b"multi copy payload".to_vec();
            let mut packet = WirePacket::zeroed();
            ctx.build_wire_into(&mut packet, route, m.destination, &payload, &mut rng)
                .expect("non-empty route");
            let recovered = ctx
                .walk_custody_chain(packet, crypto_chain, &mut rng)
                .unwrap_or_else(|e| panic!("seed {seed}, {}: {e}", m.id));
            assert_eq!(recovered, payload);
            assert!(!positions[0].is_empty());
            verified += 1;
        }
    }
    assert!(
        verified > 10,
        "expected many delivered chains, got {verified}"
    );
}

#[test]
fn compromised_relay_outside_group_cannot_peel() {
    let (protocol, report, messages) = simulate(42, 1);
    let ctx = OnionCryptoContext::new([42u8; 32], protocol.groups().clone());
    let mut rng = ChaCha8Rng::seed_from_u64(4242);
    for m in &messages {
        let Some(_chain) = report.delivered_path(m.id) else {
            continue;
        };
        let route = protocol.route_of(m.id).expect("route exists");
        let mut packet = WirePacket::zeroed();
        ctx.build_wire_into(&mut packet, route, m.destination, b"secret", &mut rng)
            .expect("non-empty route");
        // A node outside R_1 (e.g. the destination itself) cannot peel the
        // outer layer.
        let outsider_ring = ctx.keyring_for(m.destination);
        let own_group = protocol.groups().group_of(m.destination);
        if own_group != route[0] {
            let key = outsider_ring.key(own_group.0).expect("own key");
            assert!(
                packet.peel_in_place(key, &mut rng).is_err(),
                "outsider peeled layer 1"
            );
        }
        return; // one case suffices
    }
}

#[test]
fn walk_rejects_chain_node_outside_group_structure() {
    // A chain naming a node the group structure does not know is refused
    // with a typed error before any layer is peeled, wherever the node
    // sits: as source, relay or destination.
    let (protocol, report, messages) = simulate(7, 1);
    let ctx = OnionCryptoContext::new([7u8; 32], protocol.groups().clone());
    let unknown = NodeId(protocol.groups().node_count() as u32 + 40);
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let mut checked = 0usize;
    for m in &messages {
        let Some(chain) = report.delivered_path(m.id) else {
            continue;
        };
        let route = protocol.route_of(m.id).expect("route exists");
        for hop in 0..chain.len() {
            let mut bad = chain.clone();
            bad[hop] = unknown;
            let mut packet = WirePacket::zeroed();
            ctx.build_wire_into(&mut packet, route, m.destination, b"x", &mut rng)
                .expect("non-empty route");
            match ctx.walk_custody_chain(packet, &bad, &mut rng) {
                Err(WalkError::UnknownNode { hop: at, node }) => {
                    assert_eq!((at, node), (hop, unknown));
                }
                other => panic!("{}, unknown node at hop {hop}: {other:?}", m.id),
            }
            checked += 1;
        }
    }
    assert!(checked > 0, "no delivered chain to corrupt");
}

#[test]
fn context_crypto_is_the_explicit_key_crypto() {
    // The context caches each group's key after first use. Its builds and
    // peels must still be, byte for byte and word for word of the RNG,
    // the packet-level calls with freshly HKDF-derived keys.
    for seed in 0..4u64 {
        let master = [seed as u8 ^ 0x3C; 32];
        let mut setup = ChaCha8Rng::seed_from_u64(seed);
        let groups = OnionGroups::random_partition(60, 4, &mut setup);
        let ctx = OnionCryptoContext::new(master, groups.clone());
        let cold_clone = ctx.clone();
        for layers in 1..=5u64 {
            let route = groups.select_route(layers as usize, &mut setup).unwrap();
            let destination = NodeId(setup.gen_range(0..60));
            let payload = format!("seed {seed}, {layers} layers").into_bytes();
            let specs: Vec<OnionLayerSpec> = route
                .iter()
                .map(|g| OnionLayerSpec {
                    group: g.0,
                    key: derive_group_key(&master, g.0),
                })
                .collect();
            let mut ctx_rng = ChaCha8Rng::seed_from_u64(100 * seed + layers);
            let mut explicit_rng = ctx_rng.clone();
            let mut via_ctx = WirePacket::zeroed();
            ctx.build_wire_into(&mut via_ctx, &route, destination, &payload, &mut ctx_rng)
                .unwrap();
            let mut explicit = WirePacket::zeroed();
            explicit
                .build_into(&specs, destination.0, &payload, &mut explicit_rng)
                .unwrap();
            assert_eq!(
                via_ctx.as_bytes(),
                explicit.as_bytes(),
                "seed {seed}, build"
            );
            assert_eq!(
                ctx_rng.next_u64(),
                explicit_rng.next_u64(),
                "RNG after build"
            );

            // Each layer is peeled by some member of its group.
            for (layer, group) in route.iter().enumerate() {
                let members = groups.members(*group);
                let relay = members[(seed as usize + layer) % members.len()];
                let got = ctx.peel_wire_as(&mut via_ctx, relay, &mut ctx_rng);
                let want =
                    explicit.peel_in_place(&derive_group_key(&master, group.0), &mut explicit_rng);
                assert_eq!(got, want, "seed {seed}, layer {layer}");
                assert!(got.is_ok(), "seed {seed}, layer {layer}");
                assert_eq!(
                    via_ctx.as_bytes(),
                    explicit.as_bytes(),
                    "seed {seed}, layer {layer}"
                );
                assert_eq!(
                    ctx_rng.next_u64(),
                    explicit_rng.next_u64(),
                    "RNG after peel"
                );
            }
        }

        // Every group's key, cold or warm, cloned or not, and ids past the
        // group count, which have no cache slot.
        let warm_clone = ctx.clone();
        for g in 0..groups.group_count() as u32 + 3 {
            let want = derive_group_key(&master, g);
            for (which, c) in [
                ("context", &ctx),
                ("cold clone", &cold_clone),
                ("warm clone", &warm_clone),
            ] {
                assert_eq!(c.group_key(GroupId(g)), want, "seed {seed}, {which}, R{g}");
            }
        }
        for node in 0..60 {
            let gid = groups.group_of(NodeId(node)).0;
            let ring = ctx.keyring_for(NodeId(node));
            assert_eq!(ring.group_ids().collect::<Vec<_>>(), [gid]);
            assert_eq!(ring.key(gid).unwrap(), &derive_group_key(&master, gid));
        }
    }
}
