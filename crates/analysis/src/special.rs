//! Special functions: log-gamma, log-factorial, binomial helpers.
//!
//! The anonymity model (Eqs. 14–19) manipulates factorials of values near
//! `n = 100` and, in the exact form, factorials at *non-integer* offsets
//! `n − η + c_o` where `c_o` is an expected value — hence a real-argument
//! log-gamma.

/// Natural log of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Lanczos approximation (g = 7, 9 coefficients); absolute error below
/// `1e-10` over the range used here.
///
/// # Panics
///
/// Panics if `x <= 0`.
fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Coefficients for g = 7.
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// `ln(x!)` for real `x >= 0` (via `ln Γ(x + 1)`).
///
/// # Panics
///
/// Panics if `x < 0`.
pub fn ln_factorial(x: f64) -> f64 {
    assert!(x >= 0.0, "ln_factorial requires x >= 0, got {x}");
    ln_gamma(x + 1.0)
}

/// Binomial probability mass `P(X = k)` for `X ~ Binomial(n, p)`, computed
/// in the log domain for stability.
///
/// # Panics
///
/// Panics if `k > n` or `p ∉ [0, 1]`.
pub fn binomial_pmf(n: u64, k: u64, p: f64) -> f64 {
    assert!(k <= n, "k must not exceed n");
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1]");
    if p == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p == 1.0 {
        return if k == n { 1.0 } else { 0.0 };
    }
    let ln_choose = ln_factorial(n as f64) - ln_factorial(k as f64) - ln_factorial((n - k) as f64);
    (ln_choose + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln()).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_matches_factorials() {
        // ln Γ(n) = ln (n-1)!
        let facts: [(f64, f64); 6] = [
            (1.0, 0.0),
            (2.0, 0.0),
            (3.0, 2.0f64.ln()),
            (4.0, 6.0f64.ln()),
            (5.0, 24.0f64.ln()),
            (11.0, 3_628_800.0f64.ln()),
        ];
        for (x, expect) in facts {
            assert!(
                (ln_gamma(x) - expect).abs() < 1e-10,
                "ln_gamma({x}) = {} expected {expect}",
                ln_gamma(x)
            );
        }
    }

    #[test]
    fn gamma_half() {
        // Γ(1/2) = √π.
        let expect = std::f64::consts::PI.sqrt().ln();
        assert!((ln_gamma(0.5) - expect).abs() < 1e-10);
    }

    #[test]
    fn ln_factorial_large() {
        // 100! has ln ≈ 363.73937555556349014408
        assert!((ln_factorial(100.0) - 363.739_375_555_563_49).abs() < 1e-8);
    }

    #[test]
    fn factorial_recurrence_on_reals() {
        // ln Γ(x+1) = ln x + ln Γ(x) holds for non-integers too.
        for x in [0.7, 1.3, 2.5, 10.2, 97.9] {
            let lhs = ln_gamma(x + 1.0);
            let rhs = x.ln() + ln_gamma(x);
            assert!((lhs - rhs).abs() < 1e-9, "x = {x}");
        }
    }

    #[test]
    #[should_panic(expected = "x > 0")]
    fn gamma_rejects_nonpositive() {
        let _ = ln_gamma(0.0);
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        let n = 20;
        for p in [0.0, 0.1, 0.5, 0.93, 1.0] {
            let total: f64 = (0..=n).map(|k| binomial_pmf(n, k, p)).sum();
            assert!((total - 1.0).abs() < 1e-10, "p = {p}");
        }
    }

    #[test]
    fn binomial_pmf_known_value() {
        // Binomial(4, 0.5), k = 2 → 6/16.
        assert!((binomial_pmf(4, 2, 0.5) - 0.375).abs() < 1e-12);
    }
}
