//! Bit-identity oracle for the uniformization evaluator.
//!
//! [`reference_transient`] is the per-call loop `HypoExp` used before the
//! evaluator kept its chain between evaluations, verbatim: every call
//! re-steps the chain from `m = 0`. The tests compare the `to_bits()` of
//! `cdf`, `pdf` and `delay_quantile` against it, over tied rates (the
//! uniform abstraction), near-ties just past `CONDITION_LIMIT`, 1–8
//! stages, rate ratios spanning four decades and more, and `Λt` from
//! 10⁻⁶ to 10⁶, and check that those cases reach every path of the
//! evaluator.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};

use super::{poisson_window, HypoExp};
use crate::special::ln_factorial;
use crate::{delay_quantile, uniform_onion_path_rates, AnalysisError};

/// Transient stage-occupancy probabilities `p_i(t)` of the absorbing
/// birth chain, via uniformization with Poisson weights computed in
/// the log domain (stable for any `Λt`).
fn reference_transient(h: &HypoExp, t: f64) -> Vec<f64> {
    let k = h.rates.len();
    let lambda_max = h.rates.iter().cloned().fold(0.0f64, f64::max);
    let lt = lambda_max * t;
    if lt == 0.0 {
        let mut p = vec![0.0; k];
        p[0] = 1.0;
        return p;
    }

    // Poisson(lt) window: mode ± 12 standard deviations (tail mass
    // far below 1e-16), always including m = 0 region for small lt.
    let std12 = 12.0 * (lt.sqrt() + 1.0);
    let m_lo = ((lt - std12).floor()).max(0.0) as usize;
    let m_hi = (lt + std12).ceil() as usize + 10;

    // v_m: distribution over transient stages after m uniformized
    // jumps, starting in stage 0.
    let mut v = vec![0.0f64; k];
    v[0] = 1.0;
    let stay: Vec<f64> = h.rates.iter().map(|&r| 1.0 - r / lambda_max).collect();
    let advance: Vec<f64> = h.rates.iter().map(|&r| r / lambda_max).collect();

    let mut acc = vec![0.0f64; k];
    for m in 0..=m_hi {
        if m >= m_lo {
            // ln Pois(m; lt) = −lt + m·ln lt − ln m!
            let ln_w = -lt + (m as f64) * lt.ln() - ln_factorial(m as f64);
            let w = ln_w.exp();
            if w > 0.0 {
                for i in 0..k {
                    acc[i] += w * v[i];
                }
            }
        }
        // v_{m+1} = v_m · P (upper bidiagonal chain).
        let mut next = vec![0.0f64; k];
        for i in 0..k {
            next[i] += v[i] * stay[i];
            if i + 1 < k {
                next[i + 1] += v[i] * advance[i];
            }
        }
        v = next;
        // Early exit once all transient mass is gone.
        if m >= m_lo && v.iter().sum::<f64>() < 1e-18 {
            break;
        }
    }
    acc
}

/// `HypoExp::cdf` over [`reference_transient`].
fn reference_cdf(h: &HypoExp, t: f64) -> f64 {
    if t <= 0.0 {
        return 0.0;
    }
    if h.well_conditioned {
        let sum: f64 = h
            .rates
            .iter()
            .zip(&h.coefficients)
            .map(|(&rate, &a)| a * (1.0 - (-rate * t).exp()))
            .sum();
        sum.clamp(0.0, 1.0)
    } else {
        let transient = reference_transient(h, t);
        (1.0 - transient.iter().sum::<f64>()).clamp(0.0, 1.0)
    }
}

/// `HypoExp::pdf` over [`reference_transient`].
fn reference_pdf(h: &HypoExp, t: f64) -> f64 {
    if t < 0.0 {
        return 0.0;
    }
    if h.well_conditioned {
        let sum: f64 = h
            .rates
            .iter()
            .zip(&h.coefficients)
            .map(|(&rate, &a)| a * rate * (-rate * t).exp())
            .sum();
        sum.max(0.0)
    } else {
        // Absorption flux: the last stage's occupancy times its rate.
        let transient = reference_transient(h, t);
        (transient[h.rates.len() - 1] * h.rates[h.rates.len() - 1]).max(0.0)
    }
}

/// `delay_quantile` with a fresh [`reference_cdf`] per probe.
fn reference_quantile(per_hop_rates: &[f64], q: f64) -> Result<f64, AnalysisError> {
    if !(0.0 < q && q < 1.0) || q.is_nan() {
        return Err(AnalysisError::InvalidProbability(q));
    }
    let h = HypoExp::new(per_hop_rates.to_vec())?;

    // Bracket: the mean plus enough standard deviations always exceeds
    // any q < 1 eventually; grow geometrically until the CDF crosses q.
    let mut lo = 0.0f64;
    let mut hi = h.mean().max(1e-12);
    while reference_cdf(&h, hi) < q {
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
        if reference_cdf(&h, mid) < q {
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

/// One generated case: a rate vector, the `Λt` points to evaluate it at
/// (in evaluation order, so one evaluator sees them unsorted), and a
/// random quantile level.
#[derive(Debug)]
struct Case {
    family: Family,
    rates: Vec<f64>,
    lts: Vec<f64>,
    q: f64,
}

fn log_uniform(rng: &mut impl Rng, lo_exp: f64, hi_exp: f64) -> f64 {
    10f64.powf(rng.gen_range(lo_exp..hi_exp))
}

/// The three families of rate vectors the cases draw from.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Family {
    /// Tied rates of the uniform abstraction (`g` 1–9, `K` 1–7, `L` 1–4).
    Uniform,
    /// 1–8 stages, the first two a near-tie just past `CONDITION_LIMIT`.
    NearTie,
    /// 4–8 stages spanning four decades: `Λ = 1`, one slow stage at
    /// 10⁻⁴·¹⁵…10⁻⁴, and a tie at 10⁻³…10⁻¹ that the slow stage cannot
    /// mask (next to a slow stage, a tie among fast ones can still pass
    /// the conditioning test). A single slow stage keeps the oracle's
    /// quantile searches, which re-step ~`Λt` rows per probe, short.
    WideSpan,
}

/// Half uniform-abstraction cases, a quarter each of the other two
/// families; `Λt` log-uniform over 10⁻⁶…10⁶.
struct Cases;

impl Strategy for Cases {
    type Value = Case;

    fn sample(&self, rng: &mut proptest::TestRng) -> Case {
        let family = match rng.gen_range(0..4u32) {
            0 | 1 => Family::Uniform,
            2 => Family::NearTie,
            _ => Family::WideSpan,
        };
        let rates = match family {
            Family::Uniform => {
                let lambda = log_uniform(rng, -3.0, 0.0);
                let g = rng.gen_range(1..=9usize);
                let k = rng.gen_range(1..=7usize);
                let l = rng.gen_range(1..=4u32) as f64;
                uniform_onion_path_rates(lambda, g, k)
                    .expect("valid uniform rates")
                    .into_iter()
                    .map(|r| r * l)
                    .collect()
            }
            Family::NearTie => {
                let n = rng.gen_range(1..=8usize);
                let mut rates: Vec<f64> = (0..n).map(|_| log_uniform(rng, -2.0, 0.0)).collect();
                if n > 1 {
                    rates[1] = rates[0] * (1.0 + log_uniform(rng, -9.5, -8.0));
                }
                rates
            }
            Family::WideSpan => {
                let n = rng.gen_range(4..=8usize);
                let mut rates: Vec<f64> = (0..n).map(|_| log_uniform(rng, -2.0, 0.0)).collect();
                rates[0] = 1.0;
                rates[1] = log_uniform(rng, -3.0, -1.0);
                rates[2] = rates[1];
                rates[n - 1] = log_uniform(rng, -4.15, -4.0);
                rates
            }
        };
        Case {
            family,
            rates,
            lts: (0..3).map(|_| log_uniform(rng, -6.0, 6.0)).collect(),
            q: rng.gen_range(0.001..0.999),
        }
    }
}

/// Which inputs and evaluator paths a case reached.
#[derive(Clone, Copy, Debug, Default)]
struct Paths {
    near_tie: bool,
    wide_span: bool,
    window_past_zero: bool,
    mass_exit: bool,
    zero_tail: bool,
    constant_tail: bool,
    streamed: bool,
}

impl Paths {
    fn union(self, o: Paths) -> Paths {
        Paths {
            near_tie: self.near_tie || o.near_tie,
            wide_span: self.wide_span || o.wide_span,
            window_past_zero: self.window_past_zero || o.window_past_zero,
            mass_exit: self.mass_exit || o.mass_exit,
            zero_tail: self.zero_tail || o.zero_tail,
            constant_tail: self.constant_tail || o.constant_tail,
            streamed: self.streamed || o.streamed,
        }
    }
}

/// Compares `cdf` and `pdf` at each point of a case bit for bit against
/// the oracle — through one evaluator shared by all points and through a
/// fresh `HypoExp` call each — and reports the paths the case reached.
fn check_points(case: &Case) -> Result<Paths, TestCaseError> {
    let h = HypoExp::new(case.rates.clone()).expect("valid rates");
    let mut eval = h.evaluator();
    let mut paths = Paths::default();
    let lambda_max = case.rates.iter().cloned().fold(0.0f64, f64::max);
    for &lt in &case.lts {
        let t = lt / lambda_max;
        let (cdf, pdf) = (reference_cdf(&h, t), reference_pdf(&h, t));
        prop_assert_eq!(eval.cdf(t).to_bits(), cdf.to_bits(), "shared cdf({})", t);
        prop_assert_eq!(eval.pdf(t).to_bits(), pdf.to_bits(), "shared pdf({})", t);
        prop_assert_eq!(h.cdf(t).to_bits(), cdf.to_bits(), "cdf({})", t);
        prop_assert_eq!(h.pdf(t).to_bits(), pdf.to_bits(), "pdf({})", t);
        let Some(chain) = eval.chain.as_mut() else {
            continue;
        };
        let m_end = chain.accumulate(t);
        let (m_lo, m_hi) = poisson_window(chain.lambda_max * t);
        let k = case.rates.len();
        let past_tail = chain.tail.is_some_and(|f| m_lo > f);
        let zero = chain
            .tail
            .is_some_and(|f| chain.rows[f * k..].iter().all(|&v| v == 0.0));
        paths = paths.union(Paths {
            near_tie: case.family == Family::NearTie,
            wide_span: case.family == Family::WideSpan,
            window_past_zero: m_lo > 0,
            mass_exit: m_end < m_hi,
            zero_tail: past_tail && zero,
            constant_tail: past_tail && !zero,
            streamed: chain.tail.is_none() && m_end + 1 >= chain.max_rows,
        });
    }
    Ok(paths)
}

/// Compares `delay_quantile` at q ∈ {0.01, 0.5, 0.99, case.q} bit for bit
/// against the oracle's search.
fn check_quantiles(case: &Case) -> Result<(), TestCaseError> {
    for q in [0.01, 0.5, 0.99, case.q] {
        let got = delay_quantile(&case.rates, q).map(f64::to_bits);
        let want = reference_quantile(&case.rates, q).map(f64::to_bits);
        prop_assert_eq!(got, want, "delay_quantile(q = {})", q);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn evaluator_is_bit_identical_to_the_per_call_loop(case in Cases) {
        check_points(&case)?;
        check_quantiles(&case)?;
    }
}

#[test]
fn oracle_cases_reach_every_path() {
    let mut reached = Paths::default();
    for seed in 0..48u64 {
        let case = Cases.sample(&mut proptest::TestRng::seed_from_u64(seed));
        let paths = check_points(&case).unwrap_or_else(|e| panic!("{case:?}: {e:?}"));
        reached = reached.union(paths);
    }
    assert!(reached.near_tie, "no near-tie reached uniformization");
    assert!(
        reached.wide_span,
        "no four-decade span reached uniformization"
    );
    assert!(reached.window_past_zero, "no window with m_lo > 0");
    assert!(reached.mass_exit, "no window left on the 1e-18 exit");
    assert!(reached.zero_tail, "no window past an all-zero tail");
    assert!(
        reached.constant_tail,
        "no window past a nonzero constant tail"
    );
    assert!(
        reached.streamed,
        "no evaluation streamed past the storage cap"
    );
}
