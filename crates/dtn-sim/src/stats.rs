//! Order-robust streaming aggregates for Monte-Carlo experiment output.
//!
//! [`StreamingStats`] is a Welford/Chan accumulator: it ingests samples
//! one at a time (`push`) or merges whole partial accumulators
//! (`merge`) in O(1) memory, tracking count, mean, variance, min, and
//! max without storing the samples. Partials produced on worker threads
//! merge into the exact same state as a serial pass *when merged in a
//! fixed order* — the contract the parallel experiment runner relies on
//! for bit-identical reports regardless of thread count.

use serde::{Deserialize, Serialize};

/// Welford-style single-pass accumulator for mean/variance/min/max.
///
/// The merge formula is Chan et al.'s parallel variance update, so a
/// set of disjoint partials merged in a fixed order reproduces the
/// serial result deterministically (floating-point addition is not
/// associative, so the *fixed order* is what guarantees bit-equality,
/// not the algebra alone).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamingStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl StreamingStats {
    /// An empty accumulator (identity element of [`merge`](Self::merge)).
    pub fn new() -> Self {
        StreamingStats::default()
    }

    /// Ingests one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
    }

    /// Merges another accumulator into this one (Chan et al.). Merging
    /// `b` into `a` is equivalent to having pushed all of `b`'s samples
    /// after `a`'s.
    pub fn merge(&mut self, other: &StreamingStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Number of samples ingested.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Unbiased (n−1) sample variance; `None` with fewer than 2 samples.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 1).then(|| self.m2 / (self.count - 1) as f64)
    }

    /// Sample standard deviation; `None` with fewer than 2 samples.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Standard error of the mean; `None` with fewer than 2 samples.
    pub fn std_error(&self) -> Option<f64> {
        self.std_dev().map(|s| s / (self.count as f64).sqrt())
    }

    /// Smallest sample; `None` if empty.
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Largest sample; `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }

    #[test]
    fn matches_two_pass_reference() {
        let xs = [3.5, -1.0, 0.0, 7.25, 2.0, 2.0, -4.5];
        let mut s = StreamingStats::new();
        for &x in &xs {
            s.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert_eq!(s.count(), xs.len() as u64);
        assert_close(s.mean().unwrap(), mean);
        assert_close(s.variance().unwrap(), var);
        assert_eq!(s.min(), Some(-4.5));
        assert_eq!(s.max(), Some(7.25));
    }

    #[test]
    fn merge_equals_sequential_push() {
        let xs: Vec<f64> = (0..100).map(|i| ((i * 37) % 19) as f64 - 9.0).collect();
        for split in [0, 1, 50, 99, 100] {
            let mut serial = StreamingStats::new();
            for &x in &xs {
                serial.push(x);
            }
            let (mut a, mut b) = (StreamingStats::new(), StreamingStats::new());
            for &x in &xs[..split] {
                a.push(x);
            }
            for &x in &xs[split..] {
                b.push(x);
            }
            a.merge(&b);
            assert_eq!(a.count(), serial.count());
            assert_close(a.mean().unwrap(), serial.mean().unwrap());
            assert_close(a.variance().unwrap(), serial.variance().unwrap());
            assert_eq!(a.min(), serial.min());
            assert_eq!(a.max(), serial.max());
        }
    }

    #[test]
    fn fixed_merge_order_is_bit_identical() {
        // The runner's determinism contract: the same partials merged in
        // the same order give bit-identical state, however they were
        // produced.
        let mut parts = Vec::new();
        for chunk in 0..8 {
            let mut p = StreamingStats::new();
            for i in 0..25 {
                p.push((chunk * 25 + i) as f64 * 0.1 - 7.0);
            }
            parts.push(p);
        }
        let merge_all = || {
            let mut acc = StreamingStats::new();
            for p in &parts {
                acc.merge(p);
            }
            acc
        };
        let a = merge_all();
        let b = merge_all();
        assert_eq!(a.mean().unwrap().to_bits(), b.mean().unwrap().to_bits());
        assert_eq!(
            a.variance().unwrap().to_bits(),
            b.variance().unwrap().to_bits()
        );
    }

    #[test]
    fn empty_and_singleton_edge_cases() {
        let mut s = StreamingStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), None);
        assert_eq!(s.variance(), None);
        assert_eq!(s.min(), None);

        s.push(2.5);
        assert_eq!(s.mean(), Some(2.5));
        assert_eq!(s.variance(), None); // n-1 denominator needs 2 samples
        assert_eq!(s.min(), Some(2.5));
        assert_eq!(s.max(), Some(2.5));

        // Merging with an empty accumulator is the identity both ways.
        let empty = StreamingStats::new();
        let before = s;
        s.merge(&empty);
        assert_eq!(s, before);
        let mut e = StreamingStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }
}
