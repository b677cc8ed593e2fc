//! Periodic activity patterns (business hours).
//!
//! The Haggle traces "most likely \[have\] no contact in off-business hours"
//! (Section V-A of the paper), and the Infocom'05 delivery curve (Fig. 17)
//! plateaus during overnight gaps. [`ActivityPattern`] models that on/off
//! structure: contacts only occur while the pattern is *active*, and the
//! synthetic generators sample Poisson processes on the active-time axis,
//! mapping them back to wall-clock time.

use serde::{Deserialize, Serialize};

/// A daily-periodic on/off schedule.
///
/// `period` is the cycle length (86 400 s for a day) and `windows` the
/// active intervals within one cycle, as `[start, end)` offsets.
///
/// # Examples
///
/// ```
/// use traces::ActivityPattern;
///
/// // 09:00–17:00 business hours.
/// let p = ActivityPattern::new(86_400.0, vec![(9.0 * 3600.0, 17.0 * 3600.0)]).unwrap();
/// assert!(p.is_active(10.0 * 3600.0));
/// assert!(!p.is_active(3.0 * 3600.0));
/// assert!(p.is_active(86_400.0 + 10.0 * 3600.0)); // next day
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ActivityPattern {
    period: f64,
    /// Sorted, non-overlapping `[start, end)` windows within one period.
    windows: Vec<(f64, f64)>,
}

/// Error building an [`ActivityPattern`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternError {
    /// The period was not strictly positive.
    NonPositivePeriod,
    /// A window was empty, inverted, or extended beyond the period.
    BadWindow,
    /// Two windows overlap.
    OverlappingWindows,
}

impl std::fmt::Display for PatternError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatternError::NonPositivePeriod => write!(f, "period must be positive"),
            PatternError::BadWindow => write!(f, "window must satisfy 0 <= start < end <= period"),
            PatternError::OverlappingWindows => write!(f, "windows must not overlap"),
        }
    }
}

impl std::error::Error for PatternError {}

impl ActivityPattern {
    /// Builds a pattern; windows are sorted internally.
    ///
    /// # Errors
    ///
    /// See [`PatternError`].
    pub fn new(period: f64, mut windows: Vec<(f64, f64)>) -> Result<Self, PatternError> {
        if period <= 0.0 || period.is_nan() || !period.is_finite() {
            return Err(PatternError::NonPositivePeriod);
        }
        for &(s, e) in &windows {
            if !(0.0 <= s && s < e && e <= period) {
                return Err(PatternError::BadWindow);
            }
        }
        windows.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("validated finite"));
        for pair in windows.windows(2) {
            if pair[0].1 > pair[1].0 {
                return Err(PatternError::OverlappingWindows);
            }
        }
        Ok(ActivityPattern { period, windows })
    }

    /// Standard 9-to-5 business hours over a 24 h day.
    pub fn business_hours() -> Self {
        ActivityPattern::new(86_400.0, vec![(9.0 * 3600.0, 17.0 * 3600.0)])
            .expect("static windows are valid")
    }

    /// Conference-style sessions: morning, midday, and afternoon blocks
    /// separated by breaks, with long overnight gaps (used by the
    /// Infocom'05-like generator).
    pub fn conference_sessions() -> Self {
        ActivityPattern::new(
            86_400.0,
            vec![
                (8.5 * 3600.0, 10.5 * 3600.0),
                (11.5 * 3600.0, 13.0 * 3600.0),
                (14.0 * 3600.0, 18.0 * 3600.0),
            ],
        )
        .expect("static windows are valid")
    }

    /// The cycle length.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// Active time per cycle.
    pub fn active_per_period(&self) -> f64 {
        self.windows.iter().map(|&(s, e)| e - s).sum()
    }

    /// Whether wall-clock instant `t` falls in an active window.
    pub fn is_active(&self, t: f64) -> bool {
        let phase = t.rem_euclid(self.period);
        self.windows.iter().any(|&(s, e)| s <= phase && phase < e)
    }

    /// Amount of active time in the wall-clock interval `[0, t)`.
    pub fn active_measure(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        let full_cycles = (t / self.period).floor();
        let phase = t - full_cycles * self.period;
        let partial: f64 = self
            .windows
            .iter()
            .map(|&(s, e)| (phase.min(e) - s).max(0.0))
            .sum();
        full_cycles * self.active_per_period() + partial
    }

    /// Maps an *active-time* coordinate to wall-clock time: the instant at
    /// which `active` units of active time have elapsed since `t = 0`.
    ///
    /// Inverse of [`active_measure`](Self::active_measure) (up to gaps).
    ///
    /// # Panics
    ///
    /// Panics if the pattern has no windows (never constructed that way) or
    /// `active` is negative.
    pub fn active_to_wall(&self, active: f64) -> f64 {
        assert!(active >= 0.0, "active time must be non-negative");
        let per = self.active_per_period();
        assert!(per > 0.0, "pattern has no active time");
        let full_cycles = (active / per).floor();
        let mut remaining = active - full_cycles * per;
        let base = full_cycles * self.period;
        for &(s, e) in &self.windows {
            let span = e - s;
            if remaining < span {
                return base + s + remaining;
            }
            remaining -= span;
        }
        // `active` was an exact multiple boundary; land at the start of the
        // next cycle's first window.
        base + self.period + self.windows[0].0
    }

    /// The first active instant at or after `t`.
    pub fn next_active(&self, t: f64) -> f64 {
        if self.is_active(t) {
            return t;
        }
        let cycle = (t / self.period).floor();
        let phase = t - cycle * self.period;
        for &(s, _) in &self.windows {
            if phase < s {
                return cycle * self.period + s;
            }
        }
        (cycle + 1.0) * self.period + self.windows[0].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert_eq!(
            ActivityPattern::new(0.0, vec![]),
            Err(PatternError::NonPositivePeriod)
        );
        assert_eq!(
            ActivityPattern::new(10.0, vec![(5.0, 4.0)]),
            Err(PatternError::BadWindow)
        );
        assert_eq!(
            ActivityPattern::new(10.0, vec![(0.0, 11.0)]),
            Err(PatternError::BadWindow)
        );
        assert_eq!(
            ActivityPattern::new(10.0, vec![(0.0, 5.0), (4.0, 6.0)]),
            Err(PatternError::OverlappingWindows)
        );
        assert!(ActivityPattern::new(10.0, vec![(6.0, 8.0), (0.0, 5.0)]).is_ok());
    }

    #[test]
    fn business_hours_membership() {
        let p = ActivityPattern::business_hours();
        assert!(!p.is_active(8.0 * 3600.0));
        assert!(p.is_active(9.0 * 3600.0));
        assert!(p.is_active(16.99 * 3600.0));
        assert!(!p.is_active(17.0 * 3600.0));
        assert!((p.active_per_period() - 8.0 * 3600.0).abs() < 1e-9);
    }

    #[test]
    fn active_measure_accumulates() {
        let p = ActivityPattern::new(10.0, vec![(2.0, 4.0), (6.0, 7.0)]).unwrap();
        assert_eq!(p.active_measure(0.0), 0.0);
        assert_eq!(p.active_measure(2.0), 0.0);
        assert_eq!(p.active_measure(3.0), 1.0);
        assert_eq!(p.active_measure(5.0), 2.0);
        assert_eq!(p.active_measure(6.5), 2.5);
        assert_eq!(p.active_measure(10.0), 3.0);
        assert_eq!(p.active_measure(13.0), 4.0); // next cycle
    }

    #[test]
    fn active_to_wall_inverts_measure() {
        let p = ActivityPattern::new(10.0, vec![(2.0, 4.0), (6.0, 7.0)]).unwrap();
        for active in [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 2.9, 3.5, 7.3] {
            let wall = p.active_to_wall(active);
            let measured = p.active_measure(wall);
            assert!(
                (measured - active).abs() < 1e-9,
                "active {active} wall {wall} measured {measured}"
            );
            assert!(p.is_active(wall) || wall == 4.0 || wall == 7.0);
        }
    }

    #[test]
    fn next_active_skips_gaps() {
        let p = ActivityPattern::new(10.0, vec![(2.0, 4.0), (6.0, 7.0)]).unwrap();
        assert_eq!(p.next_active(0.0), 2.0);
        assert_eq!(p.next_active(3.0), 3.0);
        assert_eq!(p.next_active(4.5), 6.0);
        assert_eq!(p.next_active(8.0), 12.0); // wraps to next cycle
    }

    #[test]
    fn always_active_has_no_gaps() {
        let p = ActivityPattern::new(86_400.0, vec![(0.0, 86_400.0)]).unwrap();
        assert!(p.is_active(0.0));
        assert!(p.is_active(123_456.0));
        assert_eq!(p.active_measure(1000.0), 1000.0);
        assert_eq!(p.active_to_wall(5000.0), 5000.0);
    }

    #[test]
    fn conference_sessions_have_three_blocks() {
        let p = ActivityPattern::conference_sessions();
        assert!(p.is_active(9.0 * 3600.0));
        assert!(!p.is_active(11.0 * 3600.0)); // morning break
        assert!(p.is_active(12.0 * 3600.0));
        assert!(!p.is_active(22.0 * 3600.0)); // night
    }
}
