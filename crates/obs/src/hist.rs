//! Log-bucketed value histograms with quantile summaries.
//!
//! Buckets cover `[2^MIN_EXP, 2^(MAX_EXP+1))` with [`SUB_BUCKETS`]
//! geometric sub-divisions per octave, so every bucket spans a factor of
//! `2^(1/SUB_BUCKETS) ≈ 1.19` — a bounded ~9% relative error on any
//! quantile estimate, at a fixed 240-slot memory cost. Values at or
//! below zero and non-finite values are tallied separately so `merge`
//! and `quantile` never see them.

use serde::{Deserialize, Serialize};

/// Geometric sub-divisions per power of two.
pub const SUB_BUCKETS: usize = 4;
/// Exponent of the smallest bucketed magnitude (`2^MIN_EXP` ≈ 1 ns in seconds).
pub const MIN_EXP: i32 = -30;
/// Exponent of the largest bucketed octave; values ≥ `2^(MAX_EXP+1)` overflow.
pub const MAX_EXP: i32 = 30;
/// Total number of regular buckets.
pub const BUCKET_COUNT: usize = ((MAX_EXP - MIN_EXP + 1) as usize) * SUB_BUCKETS;

/// `2^(i/4)` for `i = 0..4` — the shared sub-bucket boundary ratios.
/// Both `bucket_index` and `bucket_bounds` use these exact constants so
/// boundary values land in the same bucket on every platform.
const SUBDIV: [f64; SUB_BUCKETS] = [
    1.0,
    1.189_207_115_002_721, // 2^(1/4)
    std::f64::consts::SQRT_2,
    1.681_792_830_507_429, // 2^(3/4)
];

/// Maps a finite `v > 0` to its bucket index, clamping below range to
/// bucket 0; returns `None` for values past the largest bucket.
fn bucket_index(v: f64) -> Option<usize> {
    debug_assert!(v > 0.0 && v.is_finite());
    let bits = v.to_bits();
    let raw_exp = ((bits >> 52) & 0x7ff) as i32;
    if raw_exp == 0 {
        // Subnormal: far below 2^MIN_EXP.
        return Some(0);
    }
    let exp = raw_exp - 1023; // v in [2^exp, 2^(exp+1))
    if exp < MIN_EXP {
        return Some(0);
    }
    if exp > MAX_EXP {
        return None;
    }
    // Mantissa as 1.0 <= m < 2.0; compare against the shared boundaries.
    let mantissa = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52));
    let mut sub = SUB_BUCKETS - 1;
    while sub > 0 && mantissa < SUBDIV[sub] {
        sub -= 1;
    }
    Some(((exp - MIN_EXP) as usize) * SUB_BUCKETS + sub)
}

/// The `[lo, hi)` value range covered by bucket `idx`.
pub fn bucket_bounds(idx: usize) -> (f64, f64) {
    assert!(idx < BUCKET_COUNT, "bucket index out of range");
    let octave = MIN_EXP + (idx / SUB_BUCKETS) as i32;
    let sub = idx % SUB_BUCKETS;
    let scale = (octave as f64).exp2();
    let lo = scale * SUBDIV[sub];
    let hi = if sub + 1 < SUB_BUCKETS {
        scale * SUBDIV[sub + 1]
    } else {
        scale * 2.0
    };
    (lo, hi)
}

/// A mergeable log-bucketed histogram of non-negative values.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Histogram {
    buckets: Vec<u64>,
    /// Recorded values `<= 0` (tallied, excluded from buckets).
    zero_or_negative: u64,
    /// Recorded values `>= 2^(MAX_EXP+1)`.
    overflow: u64,
    count: u64,
    sum: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; BUCKET_COUNT],
            zero_or_negative: 0,
            overflow: 0,
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one value. Non-finite values are ignored.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += v;
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
        if v <= 0.0 {
            self.zero_or_negative += 1;
        } else {
            match bucket_index(v) {
                Some(idx) => self.buckets[idx] += 1,
                None => self.overflow += 1,
            }
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values, or `None` when empty.
    pub fn sum(&self) -> Option<f64> {
        (self.count > 0).then_some(self.sum)
    }

    /// Mean of recorded values, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Largest recorded value.
    pub fn max(&self) -> Option<f64> {
        self.max
    }

    /// Folds another histogram into this one, bucket-wise.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.zero_or_negative += other.zero_or_negative;
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) by nearest-rank walk over
    /// the buckets, returning the geometric midpoint of the bucket that
    /// holds the target rank (clamped to the observed min/max). `None`
    /// when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank: the smallest value with cumulative count >= rank.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = self.zero_or_negative;
        if seen >= rank {
            return Some(0.0f64.max(self.min.unwrap_or(0.0)));
        }
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(idx);
                let mid = (lo * hi).sqrt();
                let mid = match (self.min, self.max) {
                    (Some(lo), Some(hi)) => mid.clamp(lo, hi),
                    _ => mid,
                };
                return Some(mid);
            }
        }
        // Target rank lives in the overflow tail.
        self.max
    }

    /// Iterates the occupied buckets as `(index, count)` pairs, in
    /// ascending value order; feed indices to [`bucket_bounds`] for the
    /// value ranges. Empty buckets are skipped.
    fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(idx, &n)| (idx, n))
    }

    /// Cumulative bucket counts in Prometheus `le` form: one
    /// `(upper_bound, cumulative_count)` pair per occupied bucket,
    /// ascending. `zero_or_negative` values are below every positive
    /// bound, so they seed the running total; `overflow` values belong
    /// only to the implicit `+Inf` bucket (i.e. [`Histogram::count`]),
    /// which the caller appends.
    pub fn cumulative_le(&self) -> Vec<(f64, u64)> {
        let mut total = self.zero_or_negative;
        self.nonzero_buckets()
            .map(|(idx, n)| {
                total += n;
                (bucket_bounds(idx).1, total)
            })
            .collect()
    }

    /// Point-in-time summary with the standard quantiles.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            sum: self.sum(),
            min: self.min,
            max: self.max,
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// Serializable snapshot of a [`Histogram`]: counts plus quantile
/// estimates. All value fields are `None` when the histogram is empty,
/// which also keeps the JSON free of non-finite floats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HistSummary {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: Option<f64>,
    /// Smallest recorded value.
    pub min: Option<f64>,
    /// Largest recorded value.
    pub max: Option<f64>,
    /// Arithmetic mean.
    pub mean: Option<f64>,
    /// Estimated median.
    pub p50: Option<f64>,
    /// Estimated 90th percentile.
    pub p90: Option<f64>,
    /// Estimated 99th percentile.
    pub p99: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_tile_the_range() {
        for idx in 0..BUCKET_COUNT - 1 {
            let (lo, hi) = bucket_bounds(idx);
            let (next_lo, _) = bucket_bounds(idx + 1);
            assert!(lo < hi, "bucket {idx} is empty");
            assert_eq!(hi, next_lo, "gap after bucket {idx}");
        }
        assert_eq!(bucket_bounds(0).0, (MIN_EXP as f64).exp2());
        assert_eq!(
            bucket_bounds(BUCKET_COUNT - 1).1,
            ((MAX_EXP + 1) as f64).exp2()
        );
    }

    #[test]
    fn values_land_in_their_bucket() {
        for idx in 0..BUCKET_COUNT {
            let (lo, hi) = bucket_bounds(idx);
            assert_eq!(bucket_index(lo), Some(idx), "lower bound of {idx}");
            let interior = lo * 1.05;
            if interior < hi {
                assert_eq!(bucket_index(interior), Some(idx), "interior of {idx}");
            }
        }
    }

    #[test]
    fn boundary_value_opens_the_next_bucket() {
        // hi of bucket i is lo of bucket i+1 — half-open intervals.
        let (_, hi) = bucket_bounds(7);
        assert_eq!(bucket_index(hi), Some(8));
    }

    #[test]
    fn out_of_range_values() {
        assert_eq!(bucket_index(f64::MIN_POSITIVE), Some(0)); // subnormal-adjacent
        assert_eq!(bucket_index((MIN_EXP as f64 - 3.0).exp2()), Some(0));
        assert_eq!(bucket_index(((MAX_EXP + 2) as f64).exp2()), None);
        let mut h = Histogram::new();
        h.record(((MAX_EXP + 2) as f64).exp2());
        h.record(-1.0);
        h.record(0.0);
        h.record(f64::NAN); // ignored entirely
        assert_eq!(h.count(), 3);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.zero_or_negative, 2);
    }

    #[test]
    fn quantiles_are_relative_error_bounded() {
        let mut h = Histogram::new();
        let mut values: Vec<f64> = (1..=1000).map(|i| i as f64 / 100.0).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_by(f64::total_cmp);
        let ratio = 2.0f64.powf(1.0 / SUB_BUCKETS as f64);
        for q in [0.5, 0.9, 0.99] {
            let exact = values[((q * values.len() as f64).ceil() as usize).max(1) - 1];
            let est = h.quantile(q).unwrap();
            assert!(
                est >= exact / ratio && est <= exact * ratio,
                "q={q}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn quantile_edge_cases() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);

        let mut h = Histogram::new();
        h.record(5.0);
        assert_eq!(h.quantile(0.0).unwrap(), 5.0);
        assert_eq!(h.quantile(1.0).unwrap(), 5.0);

        // All mass at zero.
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(0.0);
        assert_eq!(h.quantile(0.5), Some(0.0));
    }

    #[test]
    fn merge_matches_recording_everything_in_one() {
        let mut all = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 0..200 {
            let v = (i as f64 * 0.37).sin().abs() * 1e3 + 1e-9;
            all.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.buckets, all.buckets);
        assert_eq!(a.min, all.min);
        assert_eq!(a.max(), all.max());
        assert_eq!(a.quantile(0.9), all.quantile(0.9));
    }

    #[test]
    fn bucket_exposition_is_cumulative_and_skips_empties() {
        let mut h = Histogram::new();
        h.record(0.0); // zero_or_negative
        h.record(1.0);
        h.record(1.0);
        h.record(100.0);
        h.record(((MAX_EXP + 2) as f64).exp2()); // overflow

        let occupied: Vec<(usize, u64)> = h.nonzero_buckets().collect();
        assert_eq!(occupied.len(), 2);
        assert_eq!(occupied[0].1, 2);
        assert_eq!(occupied[1].1, 1);
        assert_eq!(h.zero_or_negative, 1);
        assert_eq!(h.overflow, 1);

        let le = h.cumulative_le();
        assert_eq!(le.len(), 2);
        // zero_or_negative seeds the running total; overflow is excluded.
        assert_eq!(le[0].1, 3);
        assert_eq!(le[1].1, 4);
        assert!(le[0].0 < le[1].0);
        assert!(le[0].0 > 1.0 && le[1].0 > 100.0);
        assert_eq!(h.count(), 5); // the +Inf bucket the caller appends
    }

    #[test]
    fn summary_of_empty_is_all_none() {
        let s = Histogram::new().summary();
        assert_eq!(s.count, 0);
        assert!(s.sum.is_none() && s.mean.is_none() && s.p50.is_none());
    }
}
