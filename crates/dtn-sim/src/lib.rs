//! # dtn-sim
//!
//! A discrete-event delay tolerant network simulator with pluggable routing
//! protocols.
//!
//! The engine ([`run`]) replays a [`contact_graph::ContactSchedule`]
//! (sampled from a random contact graph or loaded from a trace), owns every
//! node's buffer, enforces deadlines and the `L`-copy ticket discipline of
//! the paper's Algorithm 2, and records delivery times, transmission
//! counts, and a full forwarding log from which realized routing paths are
//! reconstructed ([`SimReport::delivered_path`]) for the security analyses.
//!
//! Protocols implement [`RoutingProtocol`]; the classical baselines
//! (epidemic, spray-and-wait, direct delivery, first contact) live in
//! [`baselines`], the utility-based PRoPHET baseline in [`prophet`], and
//! the paper's onion protocols in the `onion-routing` crate.
//!
//! # Examples
//!
//! ```
//! use contact_graph::{ContactSchedule, NodeId, Time, TimeDelta, UniformGraphBuilder};
//! use dtn_sim::baselines::Epidemic;
//! use dtn_sim::{run, Message, MessageId, SimConfig};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let graph = UniformGraphBuilder::new(20).build(&mut rng);
//! let schedule = ContactSchedule::sample(&graph, Time::new(200.0), &mut rng);
//! let msg = Message {
//!     id: MessageId(0),
//!     source: NodeId(0),
//!     destination: NodeId(19),
//!     created: Time::ZERO,
//!     deadline: TimeDelta::new(200.0),
//!     copies: 1,
//! };
//! let report = run(&schedule, &mut Epidemic, vec![msg], &SimConfig::default(), &mut rng)?;
//! assert!(report.delivery_rate() > 0.99); // epidemic on a dense graph
//! # Ok::<(), dtn_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod engine;
pub mod faults;
pub mod message;
pub mod prophet;
pub mod protocol;
pub mod report;
pub mod stats;
pub mod workload;

pub use engine::{
    run, run_stream, run_with_faults, CalendarQueue, CopyMode, DropPolicy, SimConfig,
    SimConfigBuilder, SimError,
};
pub use faults::{ChurnConfig, ChurnMemory, FaultPlan, FaultState};
pub use message::{
    check_code_shape, fragment_id, fragment_parent, CopyState, Message, MessageId, FRAG_BASE,
    MAX_CODE_FRAGMENTS,
};
pub use protocol::{ContactView, Forward, ForwardKind, RoutingProtocol};
pub use report::{CodedOutcome, ForwardRecord, SimCounters, SimReport};
pub use stats::StreamingStats;
pub use workload::{random_contact_time, random_endpoints, WorkloadBuilder};
