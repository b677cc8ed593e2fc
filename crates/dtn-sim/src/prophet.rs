//! PRoPHET: Probabilistic Routing Protocol using History of Encounters
//! and Transitivity (Lindgren, Doria & Schelén) — the utility-based
//! baseline the paper's related work points to ("the use of past contact
//! history significantly improves the delivery rate").
//!
//! Each node maintains delivery predictabilities `P(a, b) ∈ [0, 1]`:
//!
//! * encounter: `P(a,b) ← P(a,b) + (1 − P(a,b))·P_init`
//! * aging:     `P(a,b) ← P(a,b)·γ^k` with `k` elapsed time units
//! * transitivity: `P(a,c) ← max(P(a,c), P(a,b)·P(b,c)·β)`
//!
//! A custodian replicates a message to an encountered node whose
//! predictability for the destination exceeds its own.

use contact_graph::{NodeId, Time};
use rand::RngCore;

use crate::protocol::{ContactView, Forward, ForwardKind, RoutingProtocol};

/// Encounter reinforcement `P_init` (the original paper's value).
const P_INIT: f64 = 0.75;
/// Transitivity scaling `β`.
const BETA: f64 = 0.25;
/// Aging base `γ`, applied once per simulation time unit.
const GAMMA: f64 = 0.98;

/// The PRoPHET routing protocol.
///
/// # Examples
///
/// ```
/// use dtn_sim::prophet::Prophet;
/// use dtn_sim::RoutingProtocol;
/// let p = Prophet::new(50);
/// assert_eq!(p.name(), "prophet");
/// ```
#[derive(Clone, Debug)]
pub struct Prophet {
    n: usize,
    /// Row-major predictability matrix `P[a][b]`.
    p: Vec<f64>,
    /// Last aging instant per node (row).
    last_aged: Vec<Time>,
}

impl Prophet {
    /// Creates PRoPHET for an `n`-node network.
    pub fn new(n: usize) -> Self {
        Prophet {
            n,
            p: vec![0.0; n * n],
            last_aged: vec![Time::ZERO; n],
        }
    }

    /// Current predictability `P(a, b)` (no aging applied).
    fn predictability(&self, a: NodeId, b: NodeId) -> f64 {
        self.p[a.index() * self.n + b.index()]
    }

    fn age_row(&mut self, node: NodeId, now: Time) {
        let elapsed = (now - self.last_aged[node.index()]).as_f64();
        if elapsed <= 0.0 {
            return;
        }
        let factor = GAMMA.powf(elapsed);
        let row = node.index() * self.n;
        for v in &mut self.p[row..row + self.n] {
            *v *= factor;
        }
        self.last_aged[node.index()] = now;
    }

    fn encounter_update(&mut self, a: NodeId, b: NodeId) {
        let idx = a.index() * self.n + b.index();
        self.p[idx] += (1.0 - self.p[idx]) * P_INIT;
    }

    fn transitivity_update(&mut self, a: NodeId, b: NodeId) {
        // P(a,c) = max(P(a,c), P(a,b)·P(b,c)·β) for all c.
        let p_ab = self.predictability(a, b);
        let row_b = b.index() * self.n;
        let row_a = a.index() * self.n;
        for c in 0..self.n {
            let candidate = p_ab * self.p[row_b + c] * BETA;
            if candidate > self.p[row_a + c] {
                self.p[row_a + c] = candidate;
            }
        }
    }
}

impl RoutingProtocol for Prophet {
    fn name(&self) -> &str {
        "prophet"
    }

    fn observes_contacts(&self) -> bool {
        true
    }

    fn on_contact_observed(&mut self, a: NodeId, b: NodeId, time: Time) {
        self.age_row(a, time);
        self.age_row(b, time);
        self.encounter_update(a, b);
        self.encounter_update(b, a);
        self.transitivity_update(a, b);
        self.transitivity_update(b, a);
    }

    fn on_contact(&mut self, view: &dyn ContactView, _rng: &mut dyn RngCore) -> Vec<Forward> {
        let carrier = view.carrier();
        let peer = view.peer();
        view.carried()
            .iter()
            .copied()
            .filter(|&(id, _)| {
                if view.is_delivered(id) || view.peer_has(id) {
                    return false;
                }
                let dest = view.message(id).destination;
                peer == dest || self.predictability(peer, dest) > self.predictability(carrier, dest)
            })
            .map(|(id, _)| Forward {
                message: id,
                kind: ForwardKind::Replicate,
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
    use contact_graph::{ContactEvent, ContactSchedule, TimeDelta, UniformGraphBuilder};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn encounter_raises_predictability() {
        let mut p = Prophet::new(3);
        assert_eq!(p.predictability(NodeId(0), NodeId(1)), 0.0);
        p.on_contact_observed(NodeId(0), NodeId(1), Time::new(1.0));
        assert!((p.predictability(NodeId(0), NodeId(1)) - 0.75).abs() < 1e-12);
        p.on_contact_observed(NodeId(0), NodeId(1), Time::new(1.0));
        // 0.75 + 0.25·0.75 = 0.9375
        assert!((p.predictability(NodeId(0), NodeId(1)) - 0.9375).abs() < 1e-12);
        // Symmetric update.
        assert!((p.predictability(NodeId(1), NodeId(0)) - 0.9375).abs() < 1e-12);
    }

    #[test]
    fn aging_decays_predictability() {
        let mut p = Prophet::new(2);
        p.on_contact_observed(NodeId(0), NodeId(1), Time::new(0.0));
        let before = p.predictability(NodeId(0), NodeId(1));
        // Observe a later contact: rows age first.
        p.on_contact_observed(NodeId(0), NodeId(1), Time::new(100.0));
        // After aging by γ^100 the reinforcement dominates, but the value
        // reflects decay: P = 0.75·0.98^100 + (1 − ·)·0.75.
        let aged = before * 0.98f64.powf(100.0);
        let expect = aged + (1.0 - aged) * 0.75;
        assert!((p.predictability(NodeId(0), NodeId(1)) - expect).abs() < 1e-9);
    }

    #[test]
    fn transitivity_builds_indirect_predictability() {
        let mut p = Prophet::new(3);
        // 1 meets 2 often, then 0 meets 1: P(0,2) should become positive.
        p.on_contact_observed(NodeId(1), NodeId(2), Time::new(1.0));
        p.on_contact_observed(NodeId(0), NodeId(1), Time::new(2.0));
        let p02 = p.predictability(NodeId(0), NodeId(2));
        assert!(p02 > 0.0, "transitivity failed");
        // β-scaled product bound.
        assert!(p02 <= 0.25);
    }

    #[test]
    fn forwards_toward_higher_utility() {
        // 1 meets destination 3 repeatedly; 0 carries a message for 3 and
        // meets 1: it must replicate to 1, then 1 delivers.
        let events = vec![
            ContactEvent::new(Time::new(1.0), NodeId(1), NodeId(3)),
            ContactEvent::new(Time::new(2.0), NodeId(1), NodeId(3)),
            ContactEvent::new(Time::new(3.0), NodeId(0), NodeId(1)),
            ContactEvent::new(Time::new(4.0), NodeId(1), NodeId(3)),
        ];
        let s = ContactSchedule::from_events(events, 4, Time::new(10.0));
        let m = Message {
            id: MessageId(1),
            source: NodeId(0),
            destination: NodeId(3),
            created: Time::ZERO,
            deadline: TimeDelta::new(10.0),
            copies: 1,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let report = run(
            &s,
            &mut Prophet::new(4),
            vec![m],
            &SimConfig::default(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(report.delivery_time(MessageId(1)), Some(Time::new(4.0)));
        assert_eq!(
            report.delivered_path(MessageId(1)),
            Some(vec![NodeId(0), NodeId(1), NodeId(3)])
        );
    }

    #[test]
    fn does_not_forward_toward_lower_utility() {
        // 0 has high P to 3 (met it), 2 has none; 0 meets 2: no transfer.
        let events = vec![
            ContactEvent::new(Time::new(1.0), NodeId(0), NodeId(3)),
            ContactEvent::new(Time::new(2.0), NodeId(0), NodeId(2)),
        ];
        let s = ContactSchedule::from_events(events, 4, Time::new(10.0));
        let m = Message {
            id: MessageId(1),
            source: NodeId(0),
            destination: NodeId(3),
            created: Time::new(1.5), // injected after the 0-3 contact
            deadline: TimeDelta::new(8.0),
            copies: 1,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let report = run(
            &s,
            &mut Prophet::new(4),
            vec![m],
            &SimConfig::default(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(report.transmissions_for(MessageId(1)), 0);
    }

    #[test]
    fn beats_direct_delivery_on_random_graph() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let graph = UniformGraphBuilder::new(40)
            .connectivity(0.2)
            .build(&mut rng);
        let schedule = ContactSchedule::sample(&graph, Time::new(120.0), &mut rng);
        let messages: Vec<Message> = (0..20u64)
            .map(|i| Message {
                id: MessageId(i),
                source: NodeId((i % 20) as u32),
                destination: NodeId((20 + i % 20) as u32),
                created: Time::ZERO,
                deadline: TimeDelta::new(120.0),
                copies: 1,
            })
            .collect();
        let mut rng2 = ChaCha8Rng::seed_from_u64(4);
        let prophet = run(
            &schedule,
            &mut Prophet::new(40),
            messages.clone(),
            &SimConfig::default(),
            &mut rng2,
        )
        .unwrap();
        let mut rng3 = ChaCha8Rng::seed_from_u64(4);
        let direct = run(
            &schedule,
            &mut crate::baselines::DirectDelivery,
            messages,
            &SimConfig::default(),
            &mut rng3,
        )
        .unwrap();
        assert!(
            prophet.delivery_rate() >= direct.delivery_rate(),
            "prophet {} < direct {}",
            prophet.delivery_rate(),
            direct.delivery_rate()
        );
    }
}
