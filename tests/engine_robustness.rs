//! Failure injection: the engine must stay consistent when the routing
//! protocol misbehaves (references phantom messages, over-spends tickets,
//! duplicates transfers, or floods decisions).

use onion_dtn::prelude::*;
use rand::RngCore;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use dtn_sim::{ContactView, Forward, ForwardKind};

fn schedule(seed: u64, n: usize, horizon: f64) -> ContactSchedule {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let graph = UniformGraphBuilder::new(n).build(&mut rng);
    ContactSchedule::sample(&graph, Time::new(horizon), &mut rng)
}

fn messages(n: u32, count: u64, copies: u32, horizon: f64) -> Vec<Message> {
    (0..count)
        .map(|i| Message {
            id: MessageId(i),
            source: NodeId(i as u32 % (n / 2)),
            destination: NodeId(n / 2 + i as u32 % (n / 2)),
            created: Time::ZERO,
            deadline: TimeDelta::new(horizon),
            copies,
        })
        .collect()
}

/// References messages the carrier does not hold.
struct PhantomForwarder;
impl RoutingProtocol for PhantomForwarder {
    fn name(&self) -> &str {
        "phantom"
    }
    fn on_contact(&mut self, _view: &dyn ContactView, _rng: &mut dyn RngCore) -> Vec<Forward> {
        (1000..1010)
            .map(|i| Forward {
                message: MessageId(i),
                kind: ForwardKind::Handoff,
                receiver_tag: 0,
            })
            .collect()
    }
}

#[test]
fn phantom_messages_are_rejected_not_fatal() {
    let s = schedule(1, 20, 100.0);
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let report = dtn_sim::run(
        &s,
        &mut PhantomForwarder,
        messages(20, 5, 1, 100.0),
        &SimConfig::default(),
        &mut rng,
    )
    .unwrap();
    assert_eq!(report.total_transmissions(), 0);
    assert!(report.rejected_forwards() > 0);
    assert_eq!(report.delivery_rate(), 0.0);
}

/// Tries to give away more tickets than it has, and zero tickets.
struct TicketCheater;
impl RoutingProtocol for TicketCheater {
    fn name(&self) -> &str {
        "ticket-cheater"
    }
    fn on_contact(&mut self, view: &dyn ContactView, _rng: &mut dyn RngCore) -> Vec<Forward> {
        view.carried()
            .iter()
            .copied()
            .flat_map(|(id, copy)| {
                [
                    Forward {
                        message: id,
                        kind: ForwardKind::Split {
                            tickets_to_receiver: copy.tickets + 100,
                        },
                        receiver_tag: 0,
                    },
                    Forward {
                        message: id,
                        kind: ForwardKind::Split {
                            tickets_to_receiver: 0,
                        },
                        receiver_tag: 0,
                    },
                ]
            })
            .collect()
    }
}

#[test]
fn ticket_overdraft_is_rejected() {
    let s = schedule(3, 20, 100.0);
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let report = dtn_sim::run(
        &s,
        &mut TicketCheater,
        messages(20, 5, 3, 100.0),
        &SimConfig::default(),
        &mut rng,
    )
    .unwrap();
    // Every proposed transfer is invalid: nothing moves.
    assert_eq!(report.total_transmissions(), 0);
    assert!(report.rejected_forwards() > 0);
}

/// Proposes the same transfer many times per contact.
struct Duplicator;
impl RoutingProtocol for Duplicator {
    fn name(&self) -> &str {
        "duplicator"
    }
    fn on_contact(&mut self, view: &dyn ContactView, _rng: &mut dyn RngCore) -> Vec<Forward> {
        view.carried()
            .iter()
            .copied()
            .flat_map(|(id, _)| {
                std::iter::repeat_n(
                    Forward {
                        message: id,
                        kind: ForwardKind::Replicate,
                        receiver_tag: 0,
                    },
                    5,
                )
            })
            .collect()
    }
}

#[test]
fn duplicate_decisions_transfer_once() {
    let s = schedule(5, 10, 50.0);
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let report = dtn_sim::run(
        &s,
        &mut Duplicator,
        messages(10, 3, 1, 50.0),
        &SimConfig::default(),
        &mut rng,
    )
    .unwrap();
    // Transfers happened, but each (message, receiver) at most once: the
    // forwarding log must have no duplicates.
    let mut seen = std::collections::HashSet::new();
    for rec in report.forward_log() {
        assert!(
            seen.insert((rec.message, rec.to)),
            "duplicate transfer of {:?} to {:?}",
            rec.message,
            rec.to
        );
    }
    assert!(
        report.rejected_forwards() > 0,
        "duplicates must be rejected"
    );
}

/// Hands the message back and forth (tries to create a custody loop).
struct PingPonger;
impl RoutingProtocol for PingPonger {
    fn name(&self) -> &str {
        "ping-pong"
    }
    fn on_contact(&mut self, view: &dyn ContactView, _rng: &mut dyn RngCore) -> Vec<Forward> {
        view.carried()
            .iter()
            .copied()
            .map(|(id, _)| Forward {
                message: id,
                kind: ForwardKind::Handoff,
                receiver_tag: 0,
            })
            .collect()
    }
}

#[test]
fn seen_filter_bounds_pingpong_transmissions() {
    let s = schedule(7, 10, 200.0);
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let report = dtn_sim::run(
        &s,
        &mut PingPonger,
        messages(10, 2, 1, 200.0),
        &SimConfig::default(),
        &mut rng,
    )
    .unwrap();
    // A node refuses a copy it has seen, so a single copy visits each
    // node at most once: at most n - 1 transmissions per message.
    for &id in report.injected() {
        assert!(
            report.transmissions_for(id) <= 9,
            "{id}: {} transmissions",
            report.transmissions_for(id)
        );
    }
}
