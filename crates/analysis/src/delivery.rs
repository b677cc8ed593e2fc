//! Delivery-rate models (Section IV-A/B, Eqs. 4–7).
//!
//! A message travels `v_s → R_1 → R_2 → … → R_K → v_d`. Each hop is an
//! exponential race: the current custodian meets *any* member of the next
//! onion group. The per-hop aggregate rates `λ_k` (Eq. 4) feed a
//! hypoexponential end-to-end delay — the *opportunistic onion path* — and
//! the delivery rate within deadline `T` is its CDF (Eq. 6). Multi-copy
//! forwarding with `L` replicas divides the expected per-hop delay by `L`,
//! i.e. multiplies each rate by `L` (Eq. 7, following the replication
//! observation of \[30\]).

use contact_graph::{ContactModel, NodeId};

use crate::error::AnalysisError;
use crate::hypoexp::HypoExp;

/// The per-hop aggregate rates `λ_1 … λ_{K+1}` of an opportunistic onion
/// path (Eq. 4), over any [`ContactModel`] — the dense `ContactGraph`
/// or the sparse CSR backend.
///
/// * `λ_1 = Σ_j λ_{s, r_{1,j}}` — the source reaches *any* member of
///   `R_1`;
/// * `λ_k = (1/g) Σ_i Σ_j λ_{r_{k−1,i}, r_{k,j}}` for `2 ≤ k ≤ K` — the
///   (unknown, uniformly likely) custodian in `R_{k−1}` reaches any member
///   of `R_k`;
/// * `λ_{K+1} = (1/g) Σ_j λ_{r_{K,j}, d}` — the custodian in `R_K`
///   reaches the destination. (We average over which member holds the
///   message; the paper's Eq. 4 prints the bare sum, but the averaged form
///   is the physically consistent one and matches simulation.)
pub fn onion_path_rates<M: ContactModel + ?Sized>(
    graph: &M,
    source: NodeId,
    groups: &[Vec<NodeId>],
    destination: NodeId,
) -> Result<Vec<f64>, AnalysisError> {
    if groups.is_empty() {
        return Err(AnalysisError::InvalidParameter("at least one onion group"));
    }
    for g in groups {
        if g.is_empty() {
            return Err(AnalysisError::InvalidParameter("onion group is empty"));
        }
    }
    let mut rates = Vec::with_capacity(groups.len() + 1);
    rates.push(graph.rate_to_group(source, &groups[0]).as_f64());
    for k in 1..groups.len() {
        rates.push(
            graph
                .mean_rate_between_groups(&groups[k - 1], &groups[k])
                .as_f64(),
        );
    }
    let last = groups.last().expect("non-empty groups");
    let sum_to_dest: f64 = last
        .iter()
        .map(|&r| graph.contact_rate(r, destination).as_f64())
        .sum();
    rates.push(sum_to_dest / last.len() as f64);
    Ok(rates)
}

/// The mean pairwise contact rate of the Table II random graph, the
/// `lambda` of its [`uniform_onion_path_rates`] abstraction:
/// `E[1/X] = ln 36 / 35` for mean inter-contact times `X ~ U(1, 36)`
/// minutes, which is how `UniformGraphBuilder` draws `λ = 1/X`.
pub const TABLE2_MEAN_RATE: f64 = 0.102_386_255_384_460_28;

/// Per-hop rates for the *uniform abstraction* used in parameter studies:
/// every pair meets at rate `lambda`, groups have size `g`, and there are
/// `k` onion groups. Then `λ_1 = … = λ_K = g·λ` and `λ_{K+1} = λ`.
///
/// # Errors
///
/// Rejects non-positive `lambda`, `g == 0`, or `k == 0`.
pub fn uniform_onion_path_rates(
    lambda: f64,
    g: usize,
    k: usize,
) -> Result<Vec<f64>, AnalysisError> {
    if !(lambda.is_finite() && lambda > 0.0) {
        return Err(AnalysisError::InvalidRate(lambda));
    }
    if g == 0 {
        return Err(AnalysisError::InvalidParameter("group size g must be > 0"));
    }
    if k == 0 {
        return Err(AnalysisError::InvalidParameter(
            "number of onion groups K must be > 0",
        ));
    }
    let mut rates = vec![lambda * g as f64; k];
    rates.push(lambda);
    Ok(rates)
}

/// Delivery rate within deadline `t` for single-copy forwarding (Eq. 6):
/// the hypoexponential CDF over the per-hop rates.
///
/// # Errors
///
/// Propagates rate-validation failures from [`HypoExp::new`].
pub fn delivery_rate(per_hop_rates: &[f64], t: f64) -> Result<f64, AnalysisError> {
    Ok(HypoExp::new(per_hop_rates.to_vec())?.cdf(t))
}

/// Delivery rate within deadline `t` with `l` copies (Eq. 7): each per-hop
/// rate is multiplied by `l`.
///
/// # Errors
///
/// Rejects `l == 0` and propagates rate-validation failures.
pub fn delivery_rate_multicopy(
    per_hop_rates: &[f64],
    l: u32,
    t: f64,
) -> Result<f64, AnalysisError> {
    if l == 0 {
        return Err(AnalysisError::InvalidParameter("copy count L must be > 0"));
    }
    let boosted: Vec<f64> = per_hop_rates.iter().map(|&r| r * l as f64).collect();
    Ok(HypoExp::new(boosted)?.cdf(t))
}

/// Expected end-to-end delay of the opportunistic onion path.
///
/// # Errors
///
/// Propagates rate-validation failures.
pub fn expected_delay(per_hop_rates: &[f64]) -> Result<f64, AnalysisError> {
    Ok(HypoExp::new(per_hop_rates.to_vec())?.mean())
}

/// Delivery rate within deadline `t` for erasure-coded k-of-m forwarding:
/// the message is split into `m` independently routed single-copy
/// fragments, each with hypoexponential hop delay over `per_hop_rates`
/// (Eqs. 5/6), and delivery means *any* `k` fragments arrive in time —
/// the k-of-m order statistic, i.e. the binomial tail
/// `Σ_{j=k}^{m} C(m,j) p^j (1−p)^{m−j}` with `p = HypoExp(rates).cdf(t)`.
///
/// At `k = 1` the model short-circuits to the paper's replica formula
/// [`delivery_rate_multicopy`] with `L = m` (Eq. 7): a 1-of-m code is a
/// replica race, and the rate-boost form is the convention the rest of
/// the crate (and the simulation differential) uses for that case.
///
/// # Errors
///
/// Rejects `k == 0` or `k > m` and propagates rate-validation failures.
pub fn coded_delivery_rate(
    per_hop_rates: &[f64],
    k: u32,
    m: u32,
    t: f64,
) -> Result<f64, AnalysisError> {
    if k == 0 || k > m {
        return Err(AnalysisError::InvalidParameter(
            "code parameters must satisfy 1 <= k <= m",
        ));
    }
    if k == 1 {
        return delivery_rate_multicopy(per_hop_rates, m, t);
    }
    let p = HypoExp::new(per_hop_rates.to_vec())?.cdf(t);
    let mut tail = 0.0;
    for j in k..=m {
        tail += crate::special::binomial_pmf(m as u64, j as u64, p);
    }
    Ok(tail.clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use contact_graph::{ContactGraph, Rate, SparseContacts};

    fn uniform_graph(n: usize, lambda: f64) -> ContactGraph {
        let mut g = ContactGraph::new(n);
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                g.set_rate(NodeId(i), NodeId(j), Rate::new(lambda));
            }
        }
        g
    }

    #[test]
    fn uniform_rates_shape() {
        let rates = uniform_onion_path_rates(0.1, 5, 3).unwrap();
        assert_eq!(rates, vec![0.5, 0.5, 0.5, 0.1]);
    }

    #[test]
    fn table2_mean_rate_is_ln36_over_35() {
        assert_eq!(TABLE2_MEAN_RATE.to_bits(), (36f64.ln() / 35.0).to_bits());
        // E[1/X] for X ~ U(1, 36), by the midpoint rule.
        let steps = 100_000;
        let h = 35.0 / steps as f64;
        let integral: f64 = (0..steps).map(|i| h / (1.0 + (i as f64 + 0.5) * h)).sum();
        assert!((integral / 35.0 - TABLE2_MEAN_RATE).abs() < 1e-9);
    }

    #[test]
    fn astronomical_deadlines_deliver_surely() {
        // Λt ≈ 5·10²⁹⁹ saturates the uniformization window instead of
        // overflowing it (a debug-build panic before), and the evaluation
        // stops on the chain's constant tail instead of stepping Λt rows.
        let rates = uniform_onion_path_rates(0.1, 5, 3).unwrap();
        for t in [1e12, 1e300, f64::MAX, f64::INFINITY] {
            assert_eq!(delivery_rate(&rates, t).unwrap(), 1.0, "t = {t}");
        }
        assert_eq!(delivery_rate_multicopy(&rates, 3, 1e12).unwrap(), 1.0);
    }

    #[test]
    fn graph_rates_match_uniform_abstraction() {
        // On a perfectly uniform graph, Eq. 4 reduces to the closed form.
        let lambda = 0.05;
        let graph = uniform_graph(30, lambda);
        let groups = vec![
            vec![NodeId(1), NodeId(2), NodeId(3)],
            vec![NodeId(4), NodeId(5), NodeId(6)],
            vec![NodeId(7), NodeId(8), NodeId(9)],
        ];
        let rates = onion_path_rates(&graph, NodeId(0), &groups, NodeId(29)).unwrap();
        let expect = uniform_onion_path_rates(lambda, 3, 3).unwrap();
        for (r, e) in rates.iter().zip(&expect) {
            assert!((r - e).abs() < 1e-12, "{rates:?} vs {expect:?}");
        }
    }

    #[test]
    fn sparse_model_rates_match_dense_bitwise() {
        // The ContactModel abstraction must not perturb Eq. 4: a sparse
        // backend holding the same rates produces identical f64s.
        let graph = uniform_graph(30, 0.05);
        let sparse = SparseContacts::from_dense(&graph);
        let groups = vec![
            vec![NodeId(1), NodeId(2), NodeId(3)],
            vec![NodeId(4), NodeId(5), NodeId(6)],
        ];
        let dense_rates = onion_path_rates(&graph, NodeId(0), &groups, NodeId(29)).unwrap();
        let sparse_rates = onion_path_rates(&sparse, NodeId(0), &groups, NodeId(29)).unwrap();
        assert_eq!(dense_rates, sparse_rates);
    }

    #[test]
    fn bigger_groups_deliver_more() {
        // Fig. 4's trend: delivery rate increases with g.
        let t = 300.0;
        let mut last = 0.0;
        for g in [1usize, 5, 10] {
            let rates = uniform_onion_path_rates(1.0 / 18.0, g, 3).unwrap();
            let p = delivery_rate(&rates, t).unwrap();
            assert!(p > last, "g = {g}: {p} <= {last}");
            last = p;
        }
    }

    #[test]
    fn more_onions_deliver_less() {
        // Fig. 5's trend: delivery rate decreases with K.
        let t = 300.0;
        let mut last = 1.0;
        for k in [3usize, 5, 10] {
            let rates = uniform_onion_path_rates(1.0 / 18.0, 5, k).unwrap();
            let p = delivery_rate(&rates, t).unwrap();
            assert!(p < last, "K = {k}: {p} >= {last}");
            last = p;
        }
    }

    #[test]
    fn more_copies_deliver_more() {
        // Fig. 10's trend: delivery rate increases with L.
        let rates = uniform_onion_path_rates(1.0 / 18.0, 5, 3).unwrap();
        let t = 120.0;
        let p1 = delivery_rate_multicopy(&rates, 1, t).unwrap();
        let p3 = delivery_rate_multicopy(&rates, 3, t).unwrap();
        let p5 = delivery_rate_multicopy(&rates, 5, t).unwrap();
        assert!(p1 < p3 && p3 < p5, "{p1} {p3} {p5}");
        // L = 1 coincides with the single-copy model.
        assert!((p1 - delivery_rate(&rates, t).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn coded_rate_reduces_to_replica_at_k1() {
        // A 1-of-m code is a replica race: exact agreement with Eq. 7.
        let rates = uniform_onion_path_rates(1.0 / 18.0, 5, 3).unwrap();
        for m in [1u32, 2, 5] {
            let coded = coded_delivery_rate(&rates, 1, m, 120.0).unwrap();
            let replica = delivery_rate_multicopy(&rates, m, 120.0).unwrap();
            assert!((coded - replica).abs() < 1e-15, "m = {m}");
        }
    }

    #[test]
    fn coded_rate_is_binomial_tail() {
        // k = m = 2: both fragments must arrive, so the tail is p^2.
        let rates = uniform_onion_path_rates(1.0 / 18.0, 5, 3).unwrap();
        let p = delivery_rate(&rates, 120.0).unwrap();
        let both = coded_delivery_rate(&rates, 2, 2, 120.0).unwrap();
        assert!((both - p * p).abs() < 1e-12);
        // Monotone in m at fixed k, and decreasing in k at fixed m.
        let r24 = coded_delivery_rate(&rates, 2, 4, 120.0).unwrap();
        let r34 = coded_delivery_rate(&rates, 3, 4, 120.0).unwrap();
        assert!(both < r24, "{both} vs {r24}");
        assert!(r34 < r24, "{r34} vs {r24}");
        assert!(coded_delivery_rate(&rates, 0, 3, 1.0).is_err());
        assert!(coded_delivery_rate(&rates, 4, 3, 1.0).is_err());
    }

    #[test]
    fn expected_delay_decomposes() {
        let rates = vec![0.5, 0.25, 0.1];
        let d = expected_delay(&rates).unwrap();
        assert!((d - (2.0 + 4.0 + 10.0)).abs() < 1e-9);
    }

    #[test]
    fn validation() {
        assert!(onion_path_rates(&uniform_graph(5, 1.0), NodeId(0), &[], NodeId(4)).is_err());
        assert!(onion_path_rates(&uniform_graph(5, 1.0), NodeId(0), &[vec![]], NodeId(4)).is_err());
        assert!(uniform_onion_path_rates(0.0, 5, 3).is_err());
        assert!(uniform_onion_path_rates(1.0, 0, 3).is_err());
        assert!(uniform_onion_path_rates(1.0, 5, 0).is_err());
        assert!(delivery_rate_multicopy(&[1.0], 0, 1.0).is_err());
    }
}
