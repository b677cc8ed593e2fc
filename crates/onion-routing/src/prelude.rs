//! One-stop imports for sweep-driving code.
//!
//! `use onion_routing::prelude::*;` pulls in the configuration types, the
//! [`SweepSpec`](crate::sweep::SweepSpec) builder family, and the result
//! rows — everything a CLI subcommand, serve endpoint, bench, or example
//! needs to describe and run an experiment. All sweep-shaped work goes
//! through `SweepSpec` (the legacy free sweep functions were removed).

pub use crate::config::{ProtocolConfig, RouteSelection};
pub use crate::experiment::{
    CodeSweepRow, DeliverySweepRow, ExperimentOptions, ExperimentOptionsBuilder, FaultSweepRow,
    PointSummary, SecuritySweepRow,
};
pub use crate::groups::{GroupId, OnionGroups};
pub use crate::protocol::{ForwardingMode, OnionRouting};
pub use crate::runner::{trial_rng, RunnerConfig, SeedDomain};
pub use crate::sweep::{
    CodeAxis, FaultAxis, Scenario, SecurityAxis, SparseScenario, SweepAxis, SweepError,
    SweepReport, SweepSpec, TraceScenario,
};
pub use analysis::{coded_cost_bound, coded_delivery_rate};
pub use dtn_sim::faults::{ChurnMemory, FaultPlan};
