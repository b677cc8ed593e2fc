//! The paper's message workload (§V-A), written once.
//!
//! Every message has uniformly random distinct endpoints
//! ([`random_endpoints`]). On the random graphs every message starts at
//! `t = 0`; on the traces each starts at a random contact of its source
//! ([`random_contact_time`]). [`WorkloadBuilder`] turns the two rules
//! into a batch, taking the start time as a per-source function so a
//! caller can draw starts from a stream of their own.

use contact_graph::{ContactSchedule, NodeId, Time, TimeDelta};
use rand::Rng;

use crate::message::{Message, MessageId};

/// A message's endpoints over an `n`-node network: a uniformly random
/// source, then uniformly random destinations until one differs from it.
///
/// # Panics
///
/// Panics if `n < 2`: a message needs two distinct endpoints.
pub fn random_endpoints<R: Rng + ?Sized>(n: usize, rng: &mut R) -> (NodeId, NodeId) {
    assert!(n >= 2, "need at least two nodes");
    let source = NodeId(rng.gen_range(0..n as u32));
    let mut destination = NodeId(rng.gen_range(0..n as u32));
    while destination == source {
        destination = NodeId(rng.gen_range(0..n as u32));
    }
    (source, destination)
}

/// The paper's trace start rule: "a source node initiates a message
/// transmission at any time after it has a contact with any node" — the
/// time of a uniformly random contact of `source` in `schedule`, so
/// transmissions begin in business hours. An isolated source starts at
/// `t = 0` without drawing.
pub fn random_contact_time<R: Rng + ?Sized>(
    schedule: &ContactSchedule,
    source: NodeId,
    rng: &mut R,
) -> Time {
    let times: Vec<Time> = schedule
        .iter()
        .filter(|e| e.involves(source))
        .map(|e| e.time)
        .collect();
    match times.len() {
        0 => Time::ZERO,
        len => times[rng.gen_range(0..len)],
    }
}

/// Builder for message batches.
///
/// # Examples
///
/// ```
/// use dtn_sim::WorkloadBuilder;
/// use contact_graph::TimeDelta;
///
/// let mut rng = rand::thread_rng();
/// let messages = WorkloadBuilder::new(20, TimeDelta::new(360.0))
///     .copies(3)
///     .build(100, &mut rng);
/// assert_eq!(messages.len(), 20);
/// assert!(messages.iter().all(|m| m.source != m.destination));
/// ```
#[derive(Clone, Debug)]
pub struct WorkloadBuilder {
    count: usize,
    deadline: TimeDelta,
    copies: u32,
    first_id: u64,
}

impl WorkloadBuilder {
    /// Starts a builder for `count` single-copy messages with the given
    /// relative deadline.
    pub fn new(count: usize, deadline: TimeDelta) -> Self {
        WorkloadBuilder {
            count,
            deadline,
            copies: 1,
            first_id: 0,
        }
    }

    /// Sets the copy budget `L` for every message.
    ///
    /// # Panics
    ///
    /// Panics if `copies == 0`.
    pub fn copies(mut self, copies: u32) -> Self {
        assert!(copies > 0, "L must be positive");
        self.copies = copies;
        self
    }

    /// Sets the first message id (ids are consecutive).
    pub fn first_id(mut self, id: u64) -> Self {
        self.first_id = id;
        self
    }

    /// Builds the batch over an `n`-node network, every message created
    /// at `t = 0` (the random-graph experiments).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (see [`random_endpoints`]).
    pub fn build<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<Message> {
        self.build_with_starts(n, |_| Time::ZERO, rng)
    }

    /// Builds the batch over an `n`-node network, each message created at
    /// `start(source)`. The endpoints are drawn from `rng`, message by
    /// message; `start` is called once per message, in id order, after
    /// its endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (see [`random_endpoints`]).
    pub fn build_with_starts<R: Rng + ?Sized>(
        &self,
        n: usize,
        mut start: impl FnMut(NodeId) -> Time,
        rng: &mut R,
    ) -> Vec<Message> {
        (0..self.count as u64)
            .map(|i| {
                let (source, destination) = random_endpoints(n, rng);
                Message {
                    id: MessageId(self.first_id + i),
                    source,
                    destination,
                    created: start(source),
                    deadline: self.deadline,
                    copies: self.copies,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contact_graph::{ContactEvent, UniformGraphBuilder};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn basic_batch() {
        let msgs = WorkloadBuilder::new(50, TimeDelta::new(100.0))
            .copies(4)
            .first_id(1000)
            .build(30, &mut rng(1));
        assert_eq!(msgs.len(), 50);
        assert_eq!(msgs[0].id, MessageId(1000));
        assert_eq!(msgs[49].id, MessageId(1049));
        for m in &msgs {
            assert_ne!(m.source, m.destination);
            assert!(m.source.index() < 30 && m.destination.index() < 30);
            assert_eq!(m.copies, 4);
            assert_eq!(m.created, Time::ZERO);
        }
    }

    #[test]
    fn contact_start_policy_uses_source_contacts() {
        let mut r = rng(3);
        let graph = UniformGraphBuilder::new(10).build(&mut r);
        let schedule = contact_graph::ContactSchedule::sample(&graph, Time::new(50.0), &mut r);
        let builder = WorkloadBuilder::new(20, TimeDelta::new(10.0));
        let at_zero = builder.build(10, &mut r.clone());
        let mut start_rng = rng(30);
        let msgs = builder.build_with_starts(
            10,
            |source| random_contact_time(&schedule, source, &mut start_rng),
            &mut r,
        );
        for (m, z) in msgs.iter().zip(&at_zero) {
            assert!(
                schedule
                    .iter()
                    .any(|e| e.time == m.created && e.involves(m.source)),
                "start {} is not a contact of {}",
                m.created,
                m.source
            );
            // Starts drawn from their own stream leave the endpoints as
            // `build` draws them.
            assert_eq!(
                (m.id, m.source, m.destination),
                (z.id, z.source, z.destination)
            );
        }
    }

    #[test]
    fn isolated_source_falls_back_to_zero() {
        // Schedule where node 2 never appears.
        let events = vec![ContactEvent::new(Time::new(1.0), NodeId(0), NodeId(1))];
        let schedule = ContactSchedule::from_events(events, 3, Time::new(5.0));
        let mut start_rng = rng(40);
        assert_eq!(
            random_contact_time(&schedule, NodeId(2), &mut start_rng),
            Time::ZERO
        );
        // An isolated source draws nothing.
        assert_eq!(start_rng.gen::<u64>(), rng(40).gen::<u64>());
        assert_eq!(
            random_contact_time(&schedule, NodeId(0), &mut start_rng),
            Time::new(1.0)
        );
    }

    #[test]
    #[should_panic(expected = "two nodes")]
    fn tiny_network_rejected() {
        let _ = WorkloadBuilder::new(1, TimeDelta::new(1.0)).build(1, &mut rng(6));
    }

    #[test]
    fn batch_is_valid_sim_input() {
        let mut r = rng(7);
        let graph = UniformGraphBuilder::new(20).build(&mut r);
        let schedule = contact_graph::ContactSchedule::sample(&graph, Time::new(100.0), &mut r);
        let msgs = WorkloadBuilder::new(10, TimeDelta::new(100.0)).build(20, &mut r);
        let report = crate::run(
            &schedule,
            &mut crate::baselines::Epidemic,
            msgs,
            &crate::SimConfig::default(),
            &mut r,
        )
        .expect("workload is always valid input");
        assert_eq!(report.injected_count(), 10);
    }
}
