//! Baseline (non-anonymous) DTN routing protocols.
//!
//! These serve two purposes: they are the classical protocols the paper's
//! related-work section builds on (epidemic routing, spray-and-wait,
//! direct delivery), and they provide the non-anonymous cost baseline of
//! Fig. 11 (`2L` transmissions when distance is ignored — direct delivery
//! with `L = 1` costs exactly one transmission per delivered message;
//! anonymity multiplies cost by the onion path length).

use rand::RngCore;

use crate::protocol::{ContactView, Forward, ForwardKind, RoutingProtocol};

/// Direct delivery: the source holds the message until it meets the
/// destination. One transmission per delivered message; the cheapest and
/// slowest scheme.
#[derive(Clone, Copy, Debug, Default)]
pub struct DirectDelivery;

impl RoutingProtocol for DirectDelivery {
    fn name(&self) -> &str {
        "direct-delivery"
    }

    fn on_contact(&mut self, view: &dyn ContactView, _rng: &mut dyn RngCore) -> Vec<Forward> {
        view.carried()
            .iter()
            .copied()
            .filter(|(id, _)| {
                !view.is_delivered(*id) && view.message(*id).destination == view.peer()
            })
            .map(|(id, _)| Forward {
                message: id,
                kind: ForwardKind::Handoff,
                receiver_tag: 0,
            })
            .collect()
    }
}

/// Epidemic routing (Vahdat & Becker): replicate every message to every
/// node that has not seen it. Maximal delivery rate, maximal cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct Epidemic;

impl RoutingProtocol for Epidemic {
    fn name(&self) -> &str {
        "epidemic"
    }

    fn on_contact(&mut self, view: &dyn ContactView, _rng: &mut dyn RngCore) -> Vec<Forward> {
        view.carried()
            .iter()
            .copied()
            .filter(|(id, _)| !view.is_delivered(*id) && !view.peer_has(*id))
            .map(|(id, _)| Forward {
                message: id,
                kind: ForwardKind::Replicate,
                receiver_tag: 0,
            })
            .collect()
    }
}

/// Ticket-splitting discipline for [`SprayAndWait`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SprayMode {
    /// Source spray: only the source distributes copies, one ticket each.
    #[default]
    Source,
    /// Binary spray: every custodian with more than one ticket gives half
    /// away (Spyropoulos et al.).
    Binary,
}

/// Spray-and-wait (Spyropoulos, Psounis & Raghavendra): at most `L` copies.
///
/// Spray phase: custodians with spare tickets replicate to met nodes.
/// Wait phase: a custodian with one ticket forwards only to the
/// destination.
#[derive(Clone, Copy, Debug, Default)]
pub struct SprayAndWait {
    mode: SprayMode,
}

impl SprayAndWait {
    /// Source-spray variant (the paper's multi-copy extension sprays from
    /// the source).
    pub fn source() -> Self {
        SprayAndWait {
            mode: SprayMode::Source,
        }
    }

    /// Binary-spray variant.
    pub fn binary() -> Self {
        SprayAndWait {
            mode: SprayMode::Binary,
        }
    }
}

impl RoutingProtocol for SprayAndWait {
    fn name(&self) -> &str {
        match self.mode {
            SprayMode::Source => "spray-and-wait/source",
            SprayMode::Binary => "spray-and-wait/binary",
        }
    }

    fn on_contact(&mut self, view: &dyn ContactView, _rng: &mut dyn RngCore) -> Vec<Forward> {
        let mut out = Vec::new();
        for &(id, copy) in view.carried() {
            if view.is_delivered(id) {
                continue;
            }
            let msg = view.message(id);
            if view.peer() == msg.destination {
                out.push(Forward {
                    message: id,
                    kind: ForwardKind::Handoff,
                    receiver_tag: copy.tag,
                });
                continue;
            }
            if view.peer_has(id) {
                continue;
            }
            if copy.tickets > 1 {
                let give = match self.mode {
                    SprayMode::Source => {
                        // Only the source sprays; relays wait.
                        if view.carrier() == msg.source {
                            1
                        } else {
                            continue;
                        }
                    }
                    SprayMode::Binary => copy.tickets / 2,
                };
                out.push(Forward {
                    message: id,
                    kind: ForwardKind::Split {
                        tickets_to_receiver: give,
                    },
                    receiver_tag: copy.tag,
                });
            }
            // tickets == 1: wait phase, only the destination branch above.
        }
        out
    }
}

/// First contact: hand the single copy to the first node met that has not
/// seen it (a random-walk-like single-copy scheme).
#[derive(Clone, Copy, Debug, Default)]
pub struct FirstContact;

impl RoutingProtocol for FirstContact {
    fn name(&self) -> &str {
        "first-contact"
    }

    fn on_contact(&mut self, view: &dyn ContactView, _rng: &mut dyn RngCore) -> Vec<Forward> {
        view.carried()
            .iter()
            .copied()
            .filter(|(id, _)| !view.is_delivered(*id) && !view.peer_has(*id))
            .map(|(id, _)| Forward {
                message: id,
                kind: ForwardKind::Handoff,
                receiver_tag: 0,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, SimConfig};
    use crate::message::{Message, MessageId};
    use contact_graph::{ContactSchedule, NodeId, Time, TimeDelta, UniformGraphBuilder};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup(seed: u64) -> (ContactSchedule, Vec<Message>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let graph = UniformGraphBuilder::new(30).build(&mut rng);
        let schedule = ContactSchedule::sample(&graph, Time::new(600.0), &mut rng);
        let messages = (0..20u64)
            .map(|i| Message {
                id: MessageId(i),
                source: NodeId((i % 15) as u32),
                destination: NodeId((15 + i % 15) as u32),
                created: Time::new(0.0),
                deadline: TimeDelta::new(600.0),
                copies: 4,
            })
            .collect();
        (schedule, messages)
    }

    #[test]
    fn epidemic_dominates_direct_delivery() {
        let (schedule, messages) = setup(1);
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let epi = run(
            &schedule,
            &mut Epidemic,
            messages.clone(),
            &SimConfig::default(),
            &mut rng,
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let direct = run(
            &schedule,
            &mut DirectDelivery,
            messages,
            &SimConfig::default(),
            &mut rng,
        )
        .unwrap();
        assert!(epi.delivery_rate() >= direct.delivery_rate());
        assert!(epi.total_transmissions() > direct.total_transmissions());
        // Direct delivery costs exactly one transmission per delivery.
        assert_eq!(
            direct.total_transmissions(),
            direct.delivered_count() as u64
        );
    }

    #[test]
    fn spray_respects_copy_budget() {
        let (schedule, messages) = setup(2);
        for proto in [SprayAndWait::source(), SprayAndWait::binary()] {
            let mut p = proto;
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            let report = run(
                &schedule,
                &mut p,
                messages.clone(),
                &SimConfig::default(),
                &mut rng,
            )
            .unwrap();
            for m in &messages {
                // With L copies: at most L-1 spray transmissions plus, for
                // each of the <= L custodians, at most one handoff to the
                // destination... but only one handoff can occur (delivery
                // consumes the message). Bound: (L - 1) + L.
                let tx = report.transmissions_for(m.id);
                assert!(
                    tx <= (m.copies as u64 - 1) + m.copies as u64,
                    "{}: {tx} transmissions for L = {}",
                    p.name(),
                    m.copies
                );
            }
        }
    }

    #[test]
    fn source_spray_only_source_replicates() {
        let (schedule, messages) = setup(3);
        let mut p = SprayAndWait::source();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let report = run(
            &schedule,
            &mut p,
            messages.clone(),
            &SimConfig::default(),
            &mut rng,
        )
        .unwrap();
        for rec in report.forward_log() {
            let meta = report.message_meta(rec.message).unwrap();
            // Every non-delivery transfer originates at the source.
            if rec.to != meta.destination {
                assert_eq!(rec.from, meta.source);
            }
        }
    }

    #[test]
    fn first_contact_single_copy() {
        let (schedule, mut messages) = setup(4);
        for m in &mut messages {
            m.copies = 1;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let report = run(
            &schedule,
            &mut FirstContact,
            messages,
            &SimConfig::default(),
            &mut rng,
        )
        .unwrap();
        // Single copy: per-message transmissions equal the hop count of the
        // (single) custody chain — each node transfers the copy onward at
        // most once because `seen` blocks revisits.
        for &id in report.injected() {
            if let Some(hops) = report.delivered_path(id).map(|p| p.len() - 1) {
                assert_eq!(report.transmissions_for(id), hops as u64);
            }
        }
    }

    #[test]
    fn more_copies_help_spray() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let graph = UniformGraphBuilder::new(40).build(&mut rng);
        let schedule = ContactSchedule::sample(&graph, Time::new(30.0), &mut rng);
        let make = |copies: u32| -> Vec<Message> {
            (0..40u64)
                .map(|i| Message {
                    id: MessageId(i),
                    source: NodeId((i % 20) as u32),
                    destination: NodeId((20 + i % 20) as u32),
                    created: Time::new(0.0),
                    deadline: TimeDelta::new(30.0),
                    copies,
                })
                .collect()
        };
        let mut rate = Vec::new();
        for copies in [1u32, 8] {
            let mut p = SprayAndWait::source();
            let mut rng = ChaCha8Rng::seed_from_u64(13);
            let report = run(
                &schedule,
                &mut p,
                make(copies),
                &SimConfig::default(),
                &mut rng,
            )
            .unwrap();
            rate.push(report.delivery_rate());
        }
        assert!(
            rate[1] >= rate[0],
            "8 copies ({}) should beat 1 copy ({})",
            rate[1],
            rate[0]
        );
    }
}
