//! The hypoexponential distribution: the sum of independent exponential
//! stages — the paper's *opportunistic onion path* delay model (Eqs. 5–6).
//!
//! `CDF(t) = Σ_k A_k (1 − e^{−λ_k t})`, with the coefficients
//! `A_k = Π_{j≠k} λ_j / (λ_j − λ_k)` (Eq. 5).
//!
//! The product form is exact but numerically catastrophic when rates are
//! close or equal — and equal rates are the *common* case here (the
//! uniform abstraction gives `λ_1 = … = λ_K = g·λ`). [`HypoExp`] therefore
//! detects ill-conditioning (via the magnitude of the `A_k`) and falls
//! back to a uniformization (randomization) evaluation of the underlying
//! absorbing Markov chain, which is unconditionally stable. The
//! `ablation_hypoexp` bench quantifies the difference.
//!
//! # The uniformization evaluator
//!
//! Uniformizing at `Λ = max_k λ_k` gives a discrete chain whose stage `i`
//! stays put with probability `1 − λ_i/Λ` and advances with `λ_i/Λ`; then
//! `p_i(t) = Σ_m Pois(m; Λt)·v_m[i]` with `v_m = e_1·Pᵐ`. Only the Poisson
//! weights depend on `t`. The chain rows `v_m`, their sums (the early-exit
//! test) and `ln m!` do not, so a crate-private evaluator keeps them per
//! rate vector and grows them on demand: one evaluation then costs its
//! window `m_lo..=m_end` of weighted terms (one `exp` and `k`
//! multiply-adds each) plus whatever rows were not stepped yet.
//! [`crate::delay_quantile`] holds one evaluator for its whole
//! bracket-and-bisect search. [`HypoExp::cdf`] and [`HypoExp::pdf`] run
//! the same code for a single point, where nothing is reused: they store
//! no rows past `v_0` and stream the chain in `O(k)` memory.
//!
//! * **Constant tail.** The mass drains into absorption, so the rows fall
//!   into the subnormal range and then stop changing: to all zeros, or —
//!   when a stage keeps more than half its mass per step (`g ≥ 3` under
//!   the uniform abstraction) — to a few multiples of the smallest
//!   subnormal that rounding holds in place. Every row after one equal to
//!   its predecessor is equal to it too, so the evaluator stops stepping
//!   there (≈ `745·Λ/λ_min` rows; `745·g + K` under the uniform
//!   abstraction) and reads later rows from that one. A window starting
//!   past it takes one term and exits, the tail's mass being far below
//!   the exit test's 1e-18, so an evaluation's cost no longer grows with
//!   `Λt`: a deadline of 10¹² costs what 10⁴ does.
//! * **Memory.** A stored row takes `k + 2` values (row, sum, `ln m!`),
//!   at most `CHAIN_CAP_VALUES` = 2¹⁷ values (1 MiB) per evaluator. Rows
//!   past the cap stream through two scratch rows in `O(k)` memory,
//!   stopping at the constant tail too, and are re-stepped on every
//!   evaluation, as the former per-call loop did.
//! * **Bit-identity.** Every returned `f64` has the bits of the former
//!   per-call loop, which the tests keep as an oracle: the same rows from
//!   the same operations in the same order, the same weight expression
//!   `−Λt + m·ln(Λt) − ln m!`, the same per-stage accumulation over
//!   ascending `m`, and the same exit test `Σ v_{m+1} < 1e-18`. Past the
//!   constant tail the old loop added the same row's terms the evaluator
//!   adds, reading it from storage instead of recomputing it.

use crate::error::AnalysisError;
use crate::special::ln_factorial;

/// Coefficient magnitude beyond which the Eq. 5 product form loses too
/// much precision (error ≈ `max|A_k| · ε_machine`).
const CONDITION_LIMIT: f64 = 1e8;

/// Minimal relative separation enforced when computing the (possibly
/// ill-conditioned) coefficients, to avoid division by zero on exact ties.
const TIE_NUDGE: f64 = 1e-12;

/// Most `f64` values one uniformization evaluator stores (1 MiB): chain
/// rows of `k` values plus each row's sum and `ln m!`. Later rows stream.
const CHAIN_CAP_VALUES: usize = 1 << 17;

/// Early-exit threshold on the transient mass `Σ v_{m+1}` left in the
/// chain once the window has started.
const EXIT_MASS: f64 = 1e-18;

/// A hypoexponential (generalized Erlang) distribution.
///
/// # Examples
///
/// ```
/// use analysis::HypoExp;
///
/// // Two stages of mean 1 and 1/2: total mean 1.5.
/// let h = HypoExp::new(vec![1.0, 2.0]).unwrap();
/// assert!((h.mean() - 1.5).abs() < 1e-12);
/// assert!(h.cdf(0.0) == 0.0);
/// assert!(h.cdf(100.0) > 0.999999);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct HypoExp {
    rates: Vec<f64>,
    /// Eq. 5 coefficients (computed with tie nudging; meaningful only when
    /// `well_conditioned`).
    coefficients: Vec<f64>,
    well_conditioned: bool,
}

impl HypoExp {
    /// Builds the distribution from stage rates.
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::EmptyRates`] if `rates` is empty;
    /// * [`AnalysisError::InvalidRate`] if any rate is not finite and
    ///   positive.
    pub fn new(rates: Vec<f64>) -> Result<Self, AnalysisError> {
        if rates.is_empty() {
            return Err(AnalysisError::EmptyRates);
        }
        for &r in &rates {
            if !(r.is_finite() && r > 0.0) {
                return Err(AnalysisError::InvalidRate(r));
            }
        }
        let nudged = separate_ties(rates.clone());
        let coefficients = eq5_coefficients(&nudged);
        let max_coef = coefficients.iter().fold(0.0f64, |m, &a| m.max(a.abs()));
        Ok(HypoExp {
            rates,
            coefficients,
            well_conditioned: max_coef < CONDITION_LIMIT,
        })
    }

    /// The Eq. 5 mixture coefficients `A_k` (computed with exact ties
    /// separated by a negligible nudge; see [`Self::is_well_conditioned`]).
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Whether the Eq. 5 product form is numerically trustworthy for this
    /// rate vector. When false, [`Self::cdf`] and [`Self::pdf`] use the
    /// uniformization evaluator instead.
    pub fn is_well_conditioned(&self) -> bool {
        self.well_conditioned
    }

    /// Mean: `Σ_k 1/λ_k`.
    pub fn mean(&self) -> f64 {
        self.rates.iter().map(|r| 1.0 / r).sum()
    }

    /// Variance: `Σ_k 1/λ_k²`.
    pub fn variance(&self) -> f64 {
        self.rates.iter().map(|r| 1.0 / (r * r)).sum()
    }

    /// `P(T ≤ t)` — Eq. 6: the probability the whole chain completes
    /// within `t`. Clamped to `[0, 1]`.
    pub fn cdf(&self, t: f64) -> f64 {
        self.single_point().cdf(t)
    }

    /// Probability density at `t`.
    pub fn pdf(&self, t: f64) -> f64 {
        self.single_point().pdf(t)
    }

    /// Draws one end-to-end delay: the sum of one exponential sample per
    /// stage (inverse-CDF sampling per stage).
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.rates
            .iter()
            .map(|&rate| {
                let u: f64 = rng.gen();
                -(1.0 - u).ln() / rate
            })
            .sum()
    }

    /// An evaluator for many points of this distribution; it keeps the
    /// uniformization chain between calls (see the module docs).
    pub(crate) fn evaluator(&self) -> Evaluator<'_> {
        self.evaluator_storing(CHAIN_CAP_VALUES / (self.rates.len() + 2))
    }

    /// An evaluator for one point: nothing is reused, so it stores only
    /// `v_0` and streams the chain in `O(k)` memory.
    fn single_point(&self) -> Evaluator<'_> {
        self.evaluator_storing(1)
    }

    fn evaluator_storing(&self, max_rows: usize) -> Evaluator<'_> {
        Evaluator {
            h: self,
            chain: (!self.well_conditioned).then(|| Uniformization::new(&self.rates, max_rows)),
        }
    }
}

/// Evaluates one [`HypoExp`] at any number of points: Eq. 5 when it is
/// well conditioned, otherwise one [`Uniformization`] reused throughout.
pub(crate) struct Evaluator<'a> {
    h: &'a HypoExp,
    chain: Option<Uniformization>,
}

impl Evaluator<'_> {
    /// [`HypoExp::cdf`].
    pub(crate) fn cdf(&mut self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        match &mut self.chain {
            None => {
                let sum: f64 = self
                    .h
                    .rates
                    .iter()
                    .zip(&self.h.coefficients)
                    .map(|(&rate, &a)| a * (1.0 - (-rate * t).exp()))
                    .sum();
                sum.clamp(0.0, 1.0)
            }
            Some(chain) => (1.0 - chain.transient(t).iter().sum::<f64>()).clamp(0.0, 1.0),
        }
    }

    /// [`HypoExp::pdf`].
    pub(crate) fn pdf(&mut self, t: f64) -> f64 {
        if t < 0.0 {
            return 0.0;
        }
        match &mut self.chain {
            None => {
                let sum: f64 = self
                    .h
                    .rates
                    .iter()
                    .zip(&self.h.coefficients)
                    .map(|(&rate, &a)| a * rate * (-rate * t).exp())
                    .sum();
                sum.max(0.0)
            }
            Some(chain) => {
                // Absorption flux: the last stage's occupancy times its rate.
                let last = self.h.rates.len() - 1;
                (chain.transient(t)[last] * self.h.rates[last]).max(0.0)
            }
        }
    }
}

/// The uniformized absorbing birth chain of one rate vector, with the
/// parts of `p_i(t)` that do not depend on `t` kept between evaluations:
/// the rows `v_m`, their sums and `ln m!`, grown on demand.
struct Uniformization {
    /// `Λ = max_k λ_k`.
    lambda_max: f64,
    /// Per-stage probability of staying put on one uniformized jump.
    stay: Vec<f64>,
    /// Per-stage probability of advancing on one uniformized jump.
    advance: Vec<f64>,
    /// Stored rows `v_0, v_1, …`, `k` values each; `v_0 = e_1`.
    rows: Vec<f64>,
    /// `Σ v_m` per stored row; NaN until an exit test first needs it.
    sums: Vec<f64>,
    /// `ln m!` per stored row; NaN until a window first needs it.
    ln_fact: Vec<f64>,
    /// Set once a stepped row equals its predecessor: the index of the
    /// last stored row, which every later row equals.
    tail: Option<usize>,
    /// Most rows stored (at least `v_0`); later rows stream.
    max_rows: usize,
    /// `p_i(t)` of the latest evaluation.
    acc: Vec<f64>,
}

impl Uniformization {
    fn new(rates: &[f64], max_rows: usize) -> Uniformization {
        let k = rates.len();
        let lambda_max = rates.iter().cloned().fold(0.0f64, f64::max);
        let mut rows = vec![0.0f64; k];
        rows[0] = 1.0;
        Uniformization {
            lambda_max,
            stay: rates.iter().map(|&r| 1.0 - r / lambda_max).collect(),
            advance: rates.iter().map(|&r| r / lambda_max).collect(),
            sums: vec![f64::NAN],
            rows,
            ln_fact: vec![f64::NAN],
            tail: None,
            max_rows: max_rows.max(1),
            acc: vec![0.0; k],
        }
    }

    /// Transient stage-occupancy probabilities `p_i(t)`: the Poisson(Λt)
    /// mixture of the rows over the window `m_lo..=m_end`, with weights
    /// computed in the log domain (stable for any `Λt`).
    fn transient(&mut self, t: f64) -> &[f64] {
        self.accumulate(t);
        &self.acc
    }

    /// Fills `acc` with `p_i(t)` and returns the last `m` whose term was
    /// taken (the tests read it to tell which path ran).
    fn accumulate(&mut self, t: f64) -> usize {
        let k = self.stay.len();
        self.acc.fill(0.0);
        let lt = self.lambda_max * t;
        if lt == 0.0 {
            self.acc[0] = 1.0;
            return 0;
        }
        let (m_lo, m_hi) = poisson_window(lt);
        let ln_lt = lt.ln();
        // ln Pois(m; lt) = −lt + m·ln lt − ln m!
        let weight = |m: usize, ln_fact: f64| (-lt + (m as f64) * ln_lt - ln_fact).exp();
        let mut m = m_lo;
        // Stored rows, and the constant tail past them.
        while self.reach(m.saturating_add(1)) {
            let w = weight(m, self.ln_fact_at(m));
            let row = self.stored(m) * k;
            add_term(&mut self.acc, w, &self.rows[row..row + k]);
            if m == m_hi || self.sum_at(m + 1) < EXIT_MASS {
                return m;
            }
            m += 1;
        }
        // Past the cap: step on from the last stored row through two
        // scratch rows, jumping ahead once a row repeats.
        let mut j = self.sums.len() - 1;
        let mut cur = self.rows[j * k..].to_vec();
        let mut next = vec![0.0f64; k];
        while j < m {
            step(&cur, &self.stay, &self.advance, &mut next);
            j = if same_bits(&cur, &next) { m } else { j + 1 };
            std::mem::swap(&mut cur, &mut next);
        }
        loop {
            step(&cur, &self.stay, &self.advance, &mut next);
            let w = weight(m, self.ln_fact_at(m));
            add_term(&mut self.acc, w, &cur);
            if m == m_hi || next.iter().sum::<f64>() < EXIT_MASS {
                return m;
            }
            std::mem::swap(&mut cur, &mut next);
            m += 1;
        }
    }

    /// Steps the stored chain until row `m` is known — stored, or equal
    /// to the constant tail. False when row `m` lies past the cap.
    fn reach(&mut self, m: usize) -> bool {
        let k = self.stay.len();
        while self.tail.is_none() && self.sums.len() <= m {
            let len = self.sums.len();
            if len == self.max_rows {
                return false;
            }
            let start = (len - 1) * k;
            self.rows.resize(start + 2 * k, 0.0);
            let (prev, next) = self.rows[start..].split_at_mut(k);
            step(prev, &self.stay, &self.advance, next);
            if same_bits(prev, next) {
                self.rows.truncate(start + k);
                self.tail = Some(len - 1);
            } else {
                self.sums.push(f64::NAN);
                self.ln_fact.push(f64::NAN);
            }
        }
        true
    }

    /// Storage index of row `m` (every row past the tail equals it).
    fn stored(&self, m: usize) -> usize {
        self.tail.map_or(m, |tail| m.min(tail))
    }

    /// `Σ v_m` of a known row, cached.
    fn sum_at(&mut self, m: usize) -> f64 {
        let row = self.stored(m);
        let slot = &mut self.sums[row];
        if slot.is_nan() {
            let k = self.stay.len();
            *slot = self.rows[row * k..(row + 1) * k].iter().sum::<f64>();
        }
        *slot
    }

    /// `ln m!`, cached for stored rows.
    fn ln_fact_at(&mut self, m: usize) -> f64 {
        match self.ln_fact.get_mut(m) {
            Some(slot) => {
                if slot.is_nan() {
                    *slot = ln_factorial(m as f64);
                }
                *slot
            }
            None => ln_factorial(m as f64),
        }
    }
}

/// The Poisson(`lt`) window `m_lo..=m_hi`: the mode ± 12 standard
/// deviations (tail mass far below 1e-16) plus 10, always including the
/// `m = 0` region for small `lt`. Saturates instead of overflowing for
/// huge `lt`.
fn poisson_window(lt: f64) -> (usize, usize) {
    let std12 = 12.0 * (lt.sqrt() + 1.0);
    let m_lo = ((lt - std12).floor()).max(0.0) as usize;
    let m_hi = ((lt + std12).ceil() as usize).saturating_add(10);
    (m_lo, m_hi)
}

/// One uniformized jump, `next = v · P` for the upper-bidiagonal `P`:
/// `next[i] = (0.0 + v[i−1]·advance[i−1]) + v[i]·stay[i]`, the sums in
/// the order the former loop's zeroed `next[i] +=` updates made them.
/// The last stage's advance is the absorbed mass and is dropped.
fn step(v: &[f64], stay: &[f64], advance: &[f64], next: &mut [f64]) {
    let mut carry = 0.0;
    for (((n, &v), &s), &a) in next.iter_mut().zip(v).zip(stay).zip(advance) {
        *n = carry + v * s;
        carry = 0.0 + v * a;
    }
}

/// `acc += w·row`, skipping weights that underflowed to zero.
fn add_term(acc: &mut [f64], w: f64, row: &[f64]) {
    if w > 0.0 {
        for (a, &v) in acc.iter_mut().zip(row) {
            *a += w * v;
        }
    }
}

/// Bitwise equality of two rows, compared from the last stage back, where
/// the mass of a draining chain still moves.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.iter()
        .rev()
        .zip(b.iter().rev())
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Separates exact ties so the Eq. 5 product is at least computable.
fn separate_ties(mut rates: Vec<f64>) -> Vec<f64> {
    let mut order: Vec<usize> = (0..rates.len()).collect();
    order.sort_by(|&a, &b| rates[a].partial_cmp(&rates[b]).expect("validated finite"));
    let mut previous = f64::NEG_INFINITY;
    for &idx in &order {
        let min_allowed = previous * (1.0 + TIE_NUDGE);
        if previous.is_finite() && rates[idx] <= min_allowed {
            rates[idx] = min_allowed;
        }
        previous = rates[idx];
    }
    rates
}

/// The `A_k` coefficients of Eq. 5.
fn eq5_coefficients(rates: &[f64]) -> Vec<f64> {
    (0..rates.len())
        .map(|k| {
            let mut a = 1.0;
            for j in 0..rates.len() {
                if j != k {
                    a *= rates[j] / (rates[j] - rates[k]);
                }
            }
            a
        })
        .collect()
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn single_stage_is_exponential() {
        let h = HypoExp::new(vec![0.5]).unwrap();
        for t in [0.1, 1.0, 5.0] {
            let expect = 1.0 - (-0.5f64 * t).exp();
            assert!((h.cdf(t) - expect).abs() < 1e-12);
        }
        assert_eq!(h.mean(), 2.0);
        assert_eq!(h.variance(), 4.0);
    }

    #[test]
    fn coefficients_sum_to_one() {
        let h = HypoExp::new(vec![1.0, 3.0, 0.2, 7.5]).unwrap();
        assert!(h.is_well_conditioned());
        let sum: f64 = h.coefficients().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "ΣA_k = {sum}");
    }

    #[test]
    fn cdf_properties() {
        let h = HypoExp::new(vec![0.3, 1.1, 2.2]).unwrap();
        assert_eq!(h.cdf(0.0), 0.0);
        assert_eq!(h.cdf(-5.0), 0.0);
        assert!(h.cdf(1e6) > 0.999_999);
        let mut prev = 0.0;
        for i in 0..200 {
            let t = i as f64 * 0.25;
            let c = h.cdf(t);
            assert!(c >= prev - 1e-12, "CDF decreased at t = {t}");
            prev = c;
        }
    }

    #[test]
    fn matches_monte_carlo() {
        let rates = [0.8, 0.4, 1.5];
        let h = HypoExp::new(rates.to_vec()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let trials = 200_000;
        let t_check = 4.0;
        let mut hits = 0u64;
        for _ in 0..trials {
            let total: f64 = rates
                .iter()
                .map(|&r| {
                    let u: f64 = rng.gen();
                    -(1.0 - u).ln() / r
                })
                .sum();
            if total <= t_check {
                hits += 1;
            }
        }
        let empirical = hits as f64 / trials as f64;
        let model = h.cdf(t_check);
        assert!(
            (empirical - model).abs() < 0.005,
            "model {model} vs monte carlo {empirical}"
        );
    }

    #[test]
    fn equal_rates_match_erlang() {
        // Erlang(3, λ=1): CDF(t) = 1 − e^−t (1 + t + t²/2).
        let h = HypoExp::new(vec![1.0, 1.0, 1.0]).unwrap();
        assert!(!h.is_well_conditioned());
        for t in [0.5f64, 1.0, 2.0, 4.0, 20.0] {
            let erlang = 1.0 - (-t).exp() * (1.0 + t + t * t / 2.0);
            assert!(
                (h.cdf(t) - erlang).abs() < 1e-9,
                "t = {t}: {} vs {erlang}",
                h.cdf(t)
            );
        }
    }

    #[test]
    fn mixed_equal_and_distinct_rates() {
        // Three equal fast stages plus one slow: compare with Monte Carlo.
        let rates = [0.5, 0.5, 0.5, 0.1];
        let h = HypoExp::new(rates.to_vec()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let trials = 200_000;
        for t_check in [5.0, 15.0, 40.0] {
            let mut hits = 0u64;
            for _ in 0..trials {
                let total: f64 = rates
                    .iter()
                    .map(|&r| {
                        let u: f64 = rng.gen();
                        -(1.0 - u).ln() / r
                    })
                    .sum();
                if total <= t_check {
                    hits += 1;
                }
            }
            let empirical = hits as f64 / trials as f64;
            let model = h.cdf(t_check);
            assert!(
                (empirical - model).abs() < 0.005,
                "t = {t_check}: model {model} vs MC {empirical}"
            );
        }
    }

    #[test]
    fn near_equal_rates_are_stable() {
        let h = HypoExp::new(vec![1.0, 1.0 + 1e-13, 2.0]).unwrap();
        let c = h.cdf(1.0);
        assert!(c.is_finite() && (0.0..=1.0).contains(&c));
        let href = HypoExp::new(vec![1.0, 1.0001, 2.0]).unwrap();
        assert!((c - href.cdf(1.0)).abs() < 1e-3);
    }

    #[test]
    fn uniformization_agrees_with_product_form() {
        // A well-conditioned case evaluated both ways must agree.
        let rates = vec![0.9, 0.3, 1.7];
        let h = HypoExp::new(rates.clone()).unwrap();
        assert!(h.is_well_conditioned());
        let mut forced = h.clone();
        forced.well_conditioned = false;
        for t in [0.5, 2.0, 7.0, 30.0] {
            assert!(
                (h.cdf(t) - forced.cdf(t)).abs() < 1e-9,
                "t = {t}: product {} vs uniformization {}",
                h.cdf(t),
                forced.cdf(t)
            );
        }
    }

    #[test]
    fn large_rate_spread_with_ties() {
        // Fast tied stages + very slow stage, large Λt: survival is
        // dominated by the slow stage.
        let h = HypoExp::new(vec![100.0, 100.0, 0.01]).unwrap();
        let t = 50.0;
        // ≈ Exp(0.01) survival since the fast stages are instantaneous.
        let expect = 1.0 - (-0.01f64 * t).exp();
        assert!((h.cdf(t) - expect).abs() < 1e-3, "{} vs {expect}", h.cdf(t));
    }

    #[test]
    fn mean_of_chain() {
        let h = HypoExp::new(vec![0.5, 0.25]).unwrap();
        assert!((h.mean() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn pdf_integrates_to_cdf() {
        for rates in [vec![0.9, 1.7, 0.33], vec![1.0, 1.0, 1.0]] {
            let h = HypoExp::new(rates).unwrap();
            let steps = 20_000;
            let dt = 10.0 / steps as f64;
            let mut integral = 0.0;
            for i in 0..steps {
                let a = h.pdf(i as f64 * dt);
                let b = h.pdf((i + 1) as f64 * dt);
                integral += 0.5 * (a + b) * dt;
            }
            assert!(
                (integral - h.cdf(10.0)).abs() < 1e-4,
                "∫pdf = {integral}, cdf = {}",
                h.cdf(10.0)
            );
        }
    }

    #[test]
    fn sampling_matches_model() {
        let h = HypoExp::new(vec![0.5, 0.25, 1.0]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| h.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!(
            (mean - h.mean()).abs() < 0.05,
            "sample mean {mean} vs {}",
            h.mean()
        );
        // Empirical CDF at a few points.
        for t in [2.0, 7.0, 15.0] {
            let frac = samples.iter().filter(|&&s| s <= t).count() as f64 / n as f64;
            assert!(
                (frac - h.cdf(t)).abs() < 0.01,
                "t = {t}: {frac} vs {}",
                h.cdf(t)
            );
        }
    }

    #[test]
    fn uniform_chains_settle_after_about_745_g_rows() {
        // The cost model of the module docs: under the uniform abstraction
        // the chain stops changing within ≈ 745·g + K rows, to all zeros
        // for g ≤ 2 and to a rounding-held subnormal row otherwise.
        for g in 1..=12usize {
            for k in [1usize, 3, 5] {
                let rates = crate::uniform_onion_path_rates(0.1, g, k).unwrap();
                let mut chain = Uniformization::new(&rates, usize::MAX);
                chain.accumulate(1e300);
                let tail = chain.tail.expect("chain settles");
                assert!(tail <= 745 * g + k, "g = {g}, K = {k}: tail row {tail}");
                let last = &chain.rows[tail * (k + 1)..];
                assert_eq!(last.iter().all(|&v| v == 0.0), g <= 2, "g = {g}: {last:?}");
                assert!(last.iter().all(|&v| v < f64::MIN_POSITIVE), "{last:?}");
            }
        }
    }

    #[test]
    fn validation() {
        assert_eq!(HypoExp::new(vec![]), Err(AnalysisError::EmptyRates));
        assert_eq!(
            HypoExp::new(vec![1.0, 0.0]),
            Err(AnalysisError::InvalidRate(0.0))
        );
        assert_eq!(
            HypoExp::new(vec![-2.0]),
            Err(AnalysisError::InvalidRate(-2.0))
        );
        assert!(HypoExp::new(vec![f64::NAN]).is_err());
        assert!(HypoExp::new(vec![f64::INFINITY]).is_err());
    }
}
