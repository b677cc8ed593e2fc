//! Delay quantiles and deadline planning on the opportunistic onion path.
//!
//! The paper asks "what is the delivery rate at deadline `T`?" (Eq. 6);
//! deployments usually ask the inverse — "what deadline do I need for a
//! target delivery rate?" — and distributional questions ("what is the
//! median delay?"). Both reduce to inverting the hypoexponential CDF,
//! done here by bisection (the CDF is continuous and strictly increasing
//! on `(0, ∞)`). One search evaluates the CDF some 40–50 times, all on
//! one evaluator, so the uniformization chain of a tied rate vector is
//! stepped once per search rather than once per probe.

use crate::error::AnalysisError;
use crate::hypoexp::HypoExp;

/// The `q`-quantile of the end-to-end delay: the smallest `t` with
/// `CDF(t) ≥ q`.
///
/// # Errors
///
/// Rejects `q ∉ (0, 1)` (use the mean or the CDF directly for the
/// endpoints) and propagates rate validation.
pub fn delay_quantile(per_hop_rates: &[f64], q: f64) -> Result<f64, AnalysisError> {
    if !(0.0 < q && q < 1.0) || q.is_nan() {
        return Err(AnalysisError::InvalidProbability(q));
    }
    let h = HypoExp::new(per_hop_rates.to_vec())?;
    let mut eval = h.evaluator();

    // Bracket: the mean plus enough standard deviations always exceeds
    // any q < 1 eventually; grow geometrically until the CDF crosses q.
    let mut lo = 0.0f64;
    let mut hi = h.mean().max(1e-12);
    while eval.cdf(hi) < q {
        hi *= 2.0;
        if hi > 1e18 {
            return Err(AnalysisError::InvalidParameter(
                "quantile bracket exceeded numeric range",
            ));
        }
    }
    // Bisection to relative precision.
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if eval.cdf(mid) < q {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo) <= 1e-12 * hi.max(1.0) {
            break;
        }
    }
    Ok(hi)
}

/// Median end-to-end delay.
///
/// # Errors
///
/// Propagates rate validation.
pub fn median_delay(per_hop_rates: &[f64]) -> Result<f64, AnalysisError> {
    delay_quantile(per_hop_rates, 0.5)
}

/// The deadline required to reach `target` delivery rate with `l` copies
/// (inverse of Eq. 7).
///
/// # Errors
///
/// Rejects `target ∉ (0, 1)` and `l == 0`; propagates rate validation.
pub fn deadline_for_target(
    per_hop_rates: &[f64],
    l: u32,
    target: f64,
) -> Result<f64, AnalysisError> {
    if l == 0 {
        return Err(AnalysisError::InvalidParameter("copy count L must be > 0"));
    }
    let boosted: Vec<f64> = per_hop_rates.iter().map(|&r| r * l as f64).collect();
    delay_quantile(&boosted, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delivery::{delivery_rate_multicopy, uniform_onion_path_rates};

    #[test]
    fn quantile_inverts_cdf() {
        let rates = vec![0.5, 0.2, 0.9];
        let h = HypoExp::new(rates.clone()).unwrap();
        for q in [0.01, 0.25, 0.5, 0.9, 0.999] {
            let t = delay_quantile(&rates, q).unwrap();
            assert!(
                (h.cdf(t) - q).abs() < 1e-6,
                "q = {q}: cdf({t}) = {}",
                h.cdf(t)
            );
        }
    }

    #[test]
    fn median_below_mean_for_skewed_sums() {
        // Exponential-ish sums are right-skewed: median < mean.
        let rates = vec![0.3, 0.3, 0.3];
        let median = median_delay(&rates).unwrap();
        let mean = HypoExp::new(rates).unwrap().mean();
        assert!(median < mean, "median {median} >= mean {mean}");
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let rates = uniform_onion_path_rates(0.1, 5, 3).unwrap();
        let mut last = 0.0;
        for q in [0.1, 0.3, 0.5, 0.7, 0.9, 0.99] {
            let t = delay_quantile(&rates, q).unwrap();
            assert!(t > last);
            last = t;
        }
    }

    #[test]
    fn deadline_for_target_achieves_target() {
        let rates = uniform_onion_path_rates(1.0 / 18.0, 5, 3).unwrap();
        for l in [1u32, 3] {
            let t = deadline_for_target(&rates, l, 0.95).unwrap();
            let achieved = delivery_rate_multicopy(&rates, l, t).unwrap();
            assert!((achieved - 0.95).abs() < 1e-6, "L = {l}: {achieved}");
        }
        // More copies need a shorter deadline.
        let t1 = deadline_for_target(&rates, 1, 0.95).unwrap();
        let t3 = deadline_for_target(&rates, 3, 0.95).unwrap();
        assert!(t3 < t1);
    }

    #[test]
    fn works_with_equal_rates_fallback() {
        // Exercise the uniformization path through the bisection.
        let rates = vec![0.25; 4];
        let t = delay_quantile(&rates, 0.5).unwrap();
        let h = HypoExp::new(rates).unwrap();
        assert!((h.cdf(t) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn validation() {
        assert!(delay_quantile(&[1.0], 0.0).is_err());
        assert!(delay_quantile(&[1.0], 1.0).is_err());
        assert!(delay_quantile(&[1.0], f64::NAN).is_err());
        assert!(delay_quantile(&[], 0.5).is_err());
        assert!(deadline_for_target(&[1.0], 0, 0.5).is_err());
    }
}
