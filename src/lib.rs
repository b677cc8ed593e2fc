//! # onion-dtn
//!
//! A complete, from-scratch reproduction of *"An Analysis of Onion-Based
//! Anonymous Routing for Delay Tolerant Networks"* (Sakai, Sun, Ku, Wu,
//! Alanazi — ICDCS 2016): the abstract onion-group routing protocol
//! (single- and multi-copy), real layered encryption, a discrete-event DTN
//! simulator, trace substrates, and every analytical model of the paper's
//! Section IV, validated figure-by-figure in the `bench` crate.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`contact_graph`] — contact graphs, rates, schedules, generators;
//! * [`traces`] — Haggle trace parsing and Cambridge/Infocom-like
//!   synthetic traces with business-hours gating;
//! * [`onion_crypto`] — SHA-256 / HMAC / HKDF / ChaCha20 / Poly1305 /
//!   HKDF group keys / onion packets, all RFC-vector tested;
//! * [`dtn_sim`] — the simulator and classical baselines;
//! * [`onion_routing`] — the paper's protocol, adversary model, realized
//!   metrics, and the experiment harness;
//! * [`analysis`] — delivery (hypoexponential opportunistic onion path),
//!   cost, traceable-rate, and path-anonymity models;
//! * [`serve`] — the dependency-free HTTP serving daemon (cached,
//!   single-flight Monte-Carlo sweeps + analytical models) and its
//!   closed-loop load generator.
//!
//! # Quick start
//!
//! ```
//! use onion_dtn::prelude::*;
//!
//! // Table II defaults, 6-hour deadline.
//! let cfg = ProtocolConfig {
//!     deadline: TimeDelta::new(360.0),
//!     ..ProtocolConfig::table2_defaults()
//! };
//! let opts = ExperimentOptions::builder().messages(5).realizations(2).build();
//! let point = run_random_graph_point(&cfg, &opts);
//! println!(
//!     "delivery: model {:.3} vs simulation {:.3}",
//!     point.analysis_delivery, point.sim_delivery
//! );
//! # assert!(point.sim_delivery > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use analysis;
pub use contact_graph;
pub use dtn_sim;
pub use onion_codec;
pub use onion_crypto;
pub use onion_routing;
pub use serve;
pub use traces;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use analysis::{
        coded_cost_bound, coded_delivery_rate, deadline_for_target, delay_quantile, delivery_rate,
        delivery_rate_multicopy, expected_traceable_rate, median_delay, path_anonymity,
        uniform_onion_path_rates, HypoExp,
    };
    pub use contact_graph::{waypoint_schedule, WaypointConfig};
    pub use contact_graph::{
        ContactEvent, ContactGraph, ContactModel, ContactSchedule, NodeId, Rate, SparseContacts,
        Time, TimeDelta, UniformGraphBuilder,
    };
    pub use dtn_sim::{
        fragment_id, fragment_parent, random_contact_time, random_endpoints, run, run_stream,
        run_with_faults, CalendarQueue, ChurnConfig, ChurnMemory, CodedOutcome, CopyMode,
        DropPolicy, FaultPlan, FaultState, Message, MessageId, RoutingProtocol, SimConfig,
        SimReport, StreamingStats, WorkloadBuilder, MAX_CODE_FRAGMENTS,
    };
    pub use onion_codec::{CodecError, Gf256, RsCodec};
    pub use onion_crypto::{GroupKeyring, WirePacket};
    pub use onion_routing::{
        run_random_graph_point, run_schedule_point, run_sparse_point, run_trials,
        run_trials_resilient, trial_rng, trial_rng_attempt, trial_seed, trial_seed_attempt,
        Adversary, Checkpoint, CheckpointError, CodeAxis, CodeSweepRow, DeliverySweepRow,
        ExperimentOptions, ExperimentOptionsBuilder, FaultAxis, FaultSweepRow, ForwardingMode,
        OnionCryptoContext, OnionGroups, OnionRouting, PointSummary, ProtocolConfig,
        RouteSelection, RunnerConfig, Scenario, SecurityAxis, SecuritySweepRow, SeedDomain,
        SparseScenario, SweepAxis, SweepError, SweepReport, SweepRunError, SweepSpec,
        TraceScenario, TrialFailure,
    };
    pub use serve::{
        run_loadgen, LoadReport, LoadgenConfig, ServeConfig, ServeError, Server, ServerHandle,
    };
    pub use traces::{ActivityPattern, HaggleParser, SyntheticTraceBuilder};
}
