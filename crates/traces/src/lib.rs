//! # traces
//!
//! Real-trace parsing and synthetic trace generation for DTN experiments.
//!
//! The paper validates its models on the CRAWDAD `cambridge/haggle` iMote
//! traces (Cambridge / "Experiment 2" with 12 mobile nodes, Infocom'05 /
//! "Experiment 3" with 41). Those files are licensed downloads, so this
//! crate offers both:
//!
//! * [`HaggleParser`] — drop a real trace file in and parse it; and
//! * [`SyntheticTraceBuilder`] — statistically faithful stand-ins
//!   reproducing the node counts, contact density, and business-hours
//!   structure the paper's trace results depend on (see `DESIGN.md` for the
//!   substitution argument).
//!
//! Both produce a [`contact_graph::ContactSchedule`], so experiments are
//! agnostic to the trace's origin.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod haggle;
pub mod stats;
pub mod synthetic;

pub use activity::{ActivityPattern, PatternError};
pub use haggle::{HaggleParser, ParsedTrace, TraceError};
pub use stats::{estimate_active_rates, trace_stats, TraceStats};
pub use synthetic::SyntheticTraceBuilder;
