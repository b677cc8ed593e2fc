//! # analysis
//!
//! The analytical performance and security models of *"An Analysis of
//! Onion-Based Anonymous Routing for Delay Tolerant Networks"* (Sakai et
//! al., ICDCS 2016), Section IV:
//!
//! | Model | Paper | Module |
//! |---|---|---|
//! | Opportunistic onion path (hypoexponential delay) | Eqs. 4–6 | [`hypoexp`], [`delivery`] |
//! | Multi-copy delivery rate | Eq. 7 | [`delivery`] |
//! | Message forwarding cost bounds | §IV-C | [`cost`] |
//! | Traceable rate via run lengths | Eqs. 1, 8–12 | [`traceable`] |
//! | Entropy-based path anonymity | Eqs. 13–20 | [`anonymity`] |
//!
//! Every model is pure and deterministic; the simulation counterparts live
//! in `onion-routing` + `dtn-sim`, and the figure-by-figure comparison in
//! the `bench` crate.
//!
//! # Examples
//!
//! ```
//! // Delivery rate of a 3-onion path on a uniform contact graph
//! // (mean inter-contact 18 min, groups of 5), deadline 6 h:
//! let rates = analysis::uniform_onion_path_rates(1.0 / 18.0, 5, 3)?;
//! let p = analysis::delivery_rate(&rates, 360.0)?;
//! assert!(p > 0.9);
//!
//! // Path anonymity with 10% of 100 nodes compromised:
//! let d = analysis::path_anonymity(100, 5, 3, 10, 1)?;
//! assert!(d > 0.8 && d < 1.0);
//! # Ok::<(), analysis::AnalysisError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anonymity;
pub mod cost;
pub mod delivery;
pub mod error;
pub mod hypoexp;
pub mod quantiles;
pub mod special;
pub mod traceable;

pub use anonymity::{
    entropy_bits, expected_compromised_on_path, expected_compromised_on_paths, max_entropy_bits,
    path_anonymity, path_anonymity_exact, path_anonymity_stirling,
};
pub use cost::{
    anonymity_cost_factor, coded_cost_bound, multi_copy_bound, multi_copy_first_hop_bound,
    non_anonymous_bound, single_copy_cost,
};
pub use delivery::{
    coded_delivery_rate, delivery_rate, delivery_rate_multicopy, expected_delay, onion_path_rates,
    uniform_onion_path_rates, TABLE2_MEAN_RATE,
};
pub use error::AnalysisError;
pub use hypoexp::HypoExp;
pub use quantiles::{deadline_for_target, delay_quantile, median_delay};
pub use traceable::{
    expected_traceable_rate, expected_traceable_rate_paper, traceable_rate_of_bits,
};
