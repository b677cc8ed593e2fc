//! Protocol and experiment configuration (Tables I and II).
//!
//! # Notation (Table I)
//!
//! | Symbol | Meaning | Field |
//! |---|---|---|
//! | `n` | number of nodes | [`ProtocolConfig::nodes`] |
//! | `1/λ_{i,j}` | inter-contact time of `v_i, v_j` | contact graph |
//! | `T` | message deadline | [`ProtocolConfig::deadline`] |
//! | `L` | number of copies | [`ProtocolConfig::copies`] |
//! | `K` | onion routers a message travels | [`ProtocolConfig::onions`] |
//! | `η = K + 1` | hops between the two endpoints | [`ProtocolConfig::eta`] |
//! | `R_i` | the `i`-th onion group on the route | `onion_routing::GroupId` |
//! | `g` | onion group size | [`ProtocolConfig::group_size`] |
//! | `c` | compromised nodes | [`ProtocolConfig::compromised`] |
//! | `c_o` | compromised nodes on a path | `analysis::anonymity` |

use contact_graph::TimeDelta;
use serde::{Deserialize, Serialize};

/// Route selection policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum RouteSelection {
    /// `K` distinct groups uniformly at random (the abstract protocol).
    #[default]
    Uniform,
    /// Uniform, but the last group is the destination's group (ARDEN's
    /// destination-anonymity enhancement).
    ArdenLastHop,
}

/// Full parameter set of an experiment, with Table II defaults.
///
/// # Examples
///
/// ```
/// use onion_routing::ProtocolConfig;
///
/// let cfg = ProtocolConfig::table2_defaults();
/// assert_eq!((cfg.nodes, cfg.group_size, cfg.onions, cfg.copies), (100, 5, 3, 1));
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// `n` — number of nodes (Table II: 100).
    pub nodes: usize,
    /// `g` — onion group size (Table II default: 5, swept 1–10).
    pub group_size: usize,
    /// `K` — number of onion groups a message travels (default 3, swept
    /// 1–10).
    pub onions: usize,
    /// `L` — number of message copies (default 1, swept 1–5).
    pub copies: u32,
    /// `T` — message deadline (Table II: 60–1080 minutes).
    pub deadline: TimeDelta,
    /// `c` — number of compromised nodes (Table II: 1%–50% of `n`,
    /// default 10%).
    pub compromised: usize,
    /// Route selection policy.
    pub selection: RouteSelection,
}

impl ProtocolConfig {
    /// The paper's Table II defaults: `n = 100`, `g = 5`, `K = 3`,
    /// `L = 1`, `T = 1080` minutes, `c = 10` (10%).
    pub fn table2_defaults() -> Self {
        ProtocolConfig {
            nodes: 100,
            group_size: 5,
            onions: 3,
            copies: 1,
            deadline: TimeDelta::new(1080.0),
            compromised: 10,
            selection: RouteSelection::Uniform,
        }
    }

    /// `η = K + 1`, the number of hops between the endpoints.
    pub fn eta(&self) -> usize {
        self.onions + 1
    }

    /// The compromise probability `p = c/n`.
    pub fn compromise_probability(&self) -> f64 {
        self.compromised as f64 / self.nodes as f64
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes < 2 {
            return Err("n must be at least 2: a message needs two distinct endpoints".into());
        }
        if self.group_size == 0 {
            return Err("g must be positive".into());
        }
        if self.onions == 0 {
            return Err("K must be positive".into());
        }
        if self.copies == 0 {
            return Err("L must be positive".into());
        }
        if self.onions > self.nodes / self.group_size {
            return Err(format!(
                "K = {} exceeds the number of groups ⌊n/g⌋ = {}",
                self.onions,
                self.nodes / self.group_size
            ));
        }
        if self.compromised > self.nodes {
            return Err("c must not exceed n".into());
        }
        if !(self.deadline.is_non_negative() && self.deadline.as_f64().is_finite()) {
            return Err("deadline must be finite and non-negative".into());
        }
        Ok(())
    }
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        Self::table2_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let cfg = ProtocolConfig::table2_defaults();
        assert_eq!(cfg.nodes, 100);
        assert_eq!(cfg.group_size, 5);
        assert_eq!(cfg.onions, 3);
        assert_eq!(cfg.copies, 1);
        assert_eq!(cfg.compromised, 10);
        assert_eq!(cfg.eta(), 4);
        assert!((cfg.compromise_probability() - 0.1).abs() < 1e-12);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg, ProtocolConfig::default());
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = ProtocolConfig::table2_defaults();
        cfg.group_size = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = ProtocolConfig::table2_defaults();
        cfg.onions = 25; // only 20 groups exist
        assert!(cfg.validate().is_err());

        let mut cfg = ProtocolConfig::table2_defaults();
        cfg.compromised = 101;
        assert!(cfg.validate().is_err());

        let mut cfg = ProtocolConfig::table2_defaults();
        cfg.copies = 0;
        assert!(cfg.validate().is_err());

        // An endless deadline would sample contacts forever.
        for t in [f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let mut cfg = ProtocolConfig::table2_defaults();
            cfg.deadline = TimeDelta::new(t);
            assert!(cfg.validate().unwrap_err().contains("deadline"), "{t}");
        }

        // One node with g = K = 1 passes every other check, but no
        // message has two distinct endpoints.
        let cfg = ProtocolConfig {
            nodes: 1,
            group_size: 1,
            onions: 1,
            compromised: 0,
            ..ProtocolConfig::table2_defaults()
        };
        assert!(cfg
            .validate()
            .unwrap_err()
            .contains("two distinct endpoints"));
    }
}
