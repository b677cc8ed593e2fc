//! # contact-graph
//!
//! The contact-graph substrate for delay tolerant network experiments.
//!
//! A DTN is modeled as a *contact graph* (Section III-A of Sakai et al.,
//! ICDCS 2016): nodes are mobile devices, an edge `(i, j)` exists iff the
//! pair ever meets, and the pair's inter-contact time is exponential with
//! rate `λ_{i,j}` ([`Rate`]). The probability that the pair meets within a
//! window `T` is `1 − e^{−λT}` (Eq. 3), exposed as
//! [`Rate::contact_probability_within`].
//!
//! The crate provides:
//!
//! * [`ContactGraph`] — the symmetric rate matrix, plus the aggregate-rate
//!   queries (Eq. 4) that the analytical models and the onion router need;
//! * [`UniformGraphBuilder`] and friends — the paper's Table II random
//!   graphs plus community topologies for richer scenarios;
//! * [`ContactModel`] and [`SparseContacts`] — the trait surface the
//!   analytical models query, with a CSR sparse backend (active pairs
//!   only, PPP mobility generator) that scales to `n = 10⁵–10⁶`;
//! * [`ContactSchedule`] — concrete, time-ordered contact realizations,
//!   either sampled from a graph or loaded from a trace, replayed by the
//!   simulator; and rate estimation from schedules (the paper's trace
//!   "training");
//! * [`SampledContacts`] — a graph's sampled contact times, streamed in
//!   time order one window at a time, for readers that may stop early.
//!
//! # Examples
//!
//! ```
//! use contact_graph::{ContactSchedule, Time, UniformGraphBuilder};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let graph = UniformGraphBuilder::new(100).build(&mut rng);
//! let schedule = ContactSchedule::sample(&graph, Time::new(1080.0), &mut rng);
//! assert!(schedule.len() > 10_000); // dense Table II graphs meet often
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generator;
pub mod graph;
pub mod mobility;
pub mod model;
pub mod node;
pub mod schedule;
pub mod time;

pub use generator::{community_graph, UniformGraphBuilder};
pub use graph::ContactGraph;
pub use mobility::{waypoint_schedule, WaypointConfig};
pub use model::{ContactModel, SparseContacts};
pub use node::NodeId;
pub use schedule::{
    sample_intercontact, ContactEvent, ContactSchedule, SampledContacts, SampledEvents,
};
pub use time::{Rate, Time, TimeDelta};
