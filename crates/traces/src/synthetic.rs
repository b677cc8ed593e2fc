//! Statistically faithful synthetic stand-ins for the CRAWDAD
//! `cambridge/haggle` traces.
//!
//! The real iMote traces are licensed downloads and cannot be bundled.
//! The paper's trace results depend on three properties only (Sections V-D
//! and V-E): node count, contact density/inter-contact scale, and the
//! business-hours on/off structure that causes the Fig. 17 plateau. The
//! generators here reproduce exactly those properties:
//!
//! * [`SyntheticTraceBuilder::cambridge_like`] — 12 mobile iMotes, dense
//!   contacts, short inter-contact times (delivery saturates within ~30
//!   minutes as in Fig. 14);
//! * [`SyntheticTraceBuilder::infocom05_like`] — 41 iMotes, medium density,
//!   conference-session activity with long overnight gaps (delivery
//!   plateaus between sessions as in Fig. 17).
//!
//! A real trace file can be substituted at any time via
//! [`crate::HaggleParser`]; both paths yield a
//! [`ContactSchedule`] and flow through the same simulator.

use contact_graph::{ContactEvent, ContactSchedule, NodeId, Time};
use rand::Rng;

use crate::activity::ActivityPattern;

/// Builder for synthetic Haggle-like traces.
///
/// Contacts of each connected pair form a Poisson process *on the
/// active-time axis* of an [`ActivityPattern`], then map to wall-clock
/// time — so no contacts ever occur outside business hours.
///
/// # Examples
///
/// ```
/// use traces::SyntheticTraceBuilder;
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
/// let trace = SyntheticTraceBuilder::cambridge_like().build(&mut rng);
/// assert_eq!(trace.node_count(), 12);
/// ```
#[derive(Clone, Debug)]
pub struct SyntheticTraceBuilder {
    n: usize,
    days: f64,
    pattern: ActivityPattern,
    /// Mean inter-contact time range on the active-time axis, seconds.
    mean_range: (f64, f64),
    /// Probability that a pair ever meets.
    connectivity: f64,
}

impl SyntheticTraceBuilder {
    /// Starts a fully custom builder.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `days <= 0`, the mean range is not
    /// `0 < min <= max`, or `connectivity ∉ [0, 1]`.
    pub fn new(n: usize, days: f64, pattern: ActivityPattern) -> Self {
        assert!(n > 0, "need at least one node");
        assert!(days > 0.0, "need a positive duration");
        SyntheticTraceBuilder {
            n,
            days,
            pattern,
            mean_range: (300.0, 1800.0),
            connectivity: 1.0,
        }
    }

    /// Preset mimicking the Cambridge trace (Haggle "Experiment 2"):
    /// 12 mobile iMotes over 3 business days, dense and fast.
    pub fn cambridge_like() -> Self {
        SyntheticTraceBuilder::new(12, 3.0, ActivityPattern::business_hours())
            .mean_intercontact_range(60.0, 420.0)
            .connectivity(1.0)
    }

    /// Preset mimicking the Infocom 2005 trace (Haggle "Experiment 3"):
    /// 41 iMotes over 3 conference days with session/break/overnight
    /// structure, medium density.
    pub fn infocom05_like() -> Self {
        SyntheticTraceBuilder::new(41, 3.0, ActivityPattern::conference_sessions())
            .mean_intercontact_range(600.0, 7200.0)
            .connectivity(0.75)
    }

    /// Sets the range of mean inter-contact times (active seconds).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min <= max`.
    pub fn mean_intercontact_range(mut self, min: f64, max: f64) -> Self {
        assert!(0.0 < min && min <= max, "require 0 < min <= max");
        self.mean_range = (min, max);
        self
    }

    /// Sets the probability that a pair ever meets.
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ [0, 1]`.
    pub fn connectivity(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "connectivity must be in [0,1]");
        self.connectivity = p;
        self
    }

    /// Sets the number of nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn nodes(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one node");
        self.n = n;
        self
    }

    /// Generates the trace.
    pub fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> ContactSchedule {
        let horizon_wall = self.days * self.pattern.period();
        let horizon_active = self.pattern.active_measure(horizon_wall);
        let mut events = Vec::new();

        for i in 0..self.n as u32 {
            for j in (i + 1)..self.n as u32 {
                if self.connectivity < 1.0 && !rng.gen_bool(self.connectivity) {
                    continue;
                }
                let mean = rng.gen_range(self.mean_range.0..=self.mean_range.1);
                let mut t_active = 0.0f64;
                loop {
                    let u: f64 = rng.gen();
                    t_active += -(1.0 - u).ln() * mean;
                    if t_active >= horizon_active {
                        break;
                    }
                    let wall = self.pattern.active_to_wall(t_active);
                    if wall > horizon_wall {
                        break;
                    }
                    events.push(ContactEvent::new(Time::new(wall), NodeId(i), NodeId(j)));
                }
            }
        }

        ContactSchedule::from_events(events, self.n, Time::new(horizon_wall))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn cambridge_like_shape() {
        let trace = SyntheticTraceBuilder::cambridge_like().build(&mut rng(1));
        assert_eq!(trace.node_count(), 12);
        assert!(
            trace.len() > 500,
            "dense trace expected, got {}",
            trace.len()
        );
        // Every contact falls in business hours.
        let pattern = ActivityPattern::business_hours();
        for e in trace.iter() {
            assert!(
                pattern.is_active(e.time.as_f64()),
                "contact at {} outside business hours",
                e.time
            );
        }
    }

    #[test]
    fn infocom_like_shape() {
        let trace = SyntheticTraceBuilder::infocom05_like().build(&mut rng(2));
        assert_eq!(trace.node_count(), 41);
        let pattern = ActivityPattern::conference_sessions();
        for e in trace.iter() {
            assert!(pattern.is_active(e.time.as_f64()));
        }
        // Medium density: some pairs never meet.
        let est = trace.estimate_rates();
        assert!(est.density() < 0.95);
        assert!(est.density() > 0.4);
    }

    #[test]
    fn overnight_gap_exists() {
        let trace = SyntheticTraceBuilder::cambridge_like().build(&mut rng(3));
        // No contacts between 17:00 day 0 and 09:00 day 1.
        let gap = trace.window(Time::new(17.0 * 3600.0), Time::new(86_400.0 + 9.0 * 3600.0));
        assert!(gap.is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SyntheticTraceBuilder::cambridge_like().build(&mut rng(7));
        let b = SyntheticTraceBuilder::cambridge_like().build(&mut rng(7));
        assert_eq!(a, b);
    }

    #[test]
    fn custom_parameters() {
        let always = ActivityPattern::new(86_400.0, vec![(0.0, 86_400.0)]).unwrap();
        let trace = SyntheticTraceBuilder::new(5, 1.0, always)
            .mean_intercontact_range(100.0, 100.0)
            .connectivity(1.0)
            .build(&mut rng(4));
        assert_eq!(trace.node_count(), 5);
        // 10 pairs, rate 1/100 s, horizon 86400 s → ~8640 contacts.
        let count = trace.len() as f64;
        assert!((count - 8640.0).abs() < 500.0, "got {count}");
    }

    #[test]
    fn builder_setters() {
        let b = SyntheticTraceBuilder::cambridge_like().nodes(6);
        let trace = b.build(&mut rng(8));
        assert_eq!(trace.node_count(), 6);
        assert_eq!(trace.horizon(), Time::new(3.0 * 86_400.0));
    }
}
