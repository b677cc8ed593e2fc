//! # onion-routing
//!
//! Onion-based anonymous routing for delay tolerant networks — the primary
//! contribution of *"An Analysis of Onion-Based Anonymous Routing for
//! Delay Tolerant Networks"* (Sakai et al., ICDCS 2016), reproduced as a
//! library:
//!
//! * [`OnionGroups`] — the onion-group partition (any member of `R_k` can
//!   peel layer `k` and accept the message);
//! * [`OnionRouting`] — the abstract protocol: Algorithm 1 (single-copy)
//!   and Algorithm 2 (multi-copy, source spray with `L` tickets), plus the
//!   ARDEN-style last-hop group variant;
//! * [`OnionCryptoContext`] — the *real* layered encryption over the same
//!   group structure (group keys, onion build, per-relay peeling), proving
//!   the simulated custody chains are cryptographically realizable;
//! * [`Adversary`] and [`metrics`] — node compromise, realized traceable
//!   rate (Eq. 1), and realized entropy-based path anonymity;
//! * [`experiment`] — the per-figure harness producing paired
//!   analysis/simulation values.
//!
//! # Examples
//!
//! ```
//! use contact_graph::TimeDelta;
//! use onion_routing::{run_random_graph_point, ExperimentOptions, ProtocolConfig};
//!
//! let cfg = ProtocolConfig {
//!     deadline: TimeDelta::new(360.0),
//!     ..ProtocolConfig::table2_defaults()
//! };
//! let opts = ExperimentOptions::builder().messages(5).realizations(2).build();
//! let point = run_random_graph_point(&cfg, &opts);
//! assert!(point.sim_delivery >= 0.0 && point.sim_delivery <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod audit;
pub mod checkpoint;
pub mod config;
pub mod crypto;
pub mod experiment;
pub mod groups;
pub mod metrics;
pub mod protocol;
pub mod runner;
pub mod sweep;
pub mod tps;
mod trial;

pub use adversary::Adversary;
pub use audit::TraceAudit;
pub use checkpoint::{Checkpoint, CheckpointError};
pub use config::{ProtocolConfig, RouteSelection};
pub use crypto::{OnionCryptoContext, WalkError};
pub use experiment::{
    run_random_graph_point, run_schedule_point, run_sparse_point, CodeSweepRow, DeliverySweepRow,
    ExperimentOptions, ExperimentOptionsBuilder, FaultSweepRow, PointSummary, SecuritySweepRow,
};
pub use groups::{GroupId, OnionGroups};
pub use protocol::{ForwardingMode, OnionRouting, CODED_PAYLOAD_LEN};
pub use runner::{
    run_trials, run_trials_resilient, trial_rng, trial_rng_attempt, trial_seed, trial_seed_attempt,
    RunnerConfig, SeedDomain, TrialFailure,
};
pub use sweep::{
    CodeAxis, FaultAxis, Identity, RowCache, Scenario, SecurityAxis, SparseScenario, SweepAxis,
    SweepControls, SweepError, SweepReport, SweepRunError, SweepSpec, TraceScenario,
};
pub use tps::{destination_exposure, run_tps_message, tps_cost_bound, TpsConfig, TpsOutcome};
