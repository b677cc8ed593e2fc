//! A dense sample counts each pair's contacts from a running product of
//! its draws instead of their running time, settling draws near the
//! horizon by the exact sum. These tests put the horizon exactly on a
//! partial sum of the exact loop, and one ulp to either side, on a
//! two-node graph, and check the count, the times and where the RNG
//! stream ends through the public API alone.

use contact_graph::{sample_intercontact, ContactGraph, NodeId, Rate, SampledContacts, Time};
use rand::rngs::mock::StepRng;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The exact loop for one pair: gaps added until the running time
/// passes `horizon`, every draw consumed.
fn exact_times(rate: Rate, horizon: Time, rng: &mut dyn RngCore) -> Vec<Time> {
    let mut times = Vec::new();
    let mut t = Time::ZERO;
    while let Some(gap) = sample_intercontact(rate, rng) {
        t += gap;
        if t > horizon {
            break;
        }
        times.push(t);
    }
    times
}

/// Samples the two-node graph at `rate` over the exact loop's `k`-th
/// partial sum and its two neighbouring floats, checking each horizon
/// against the exact loop.
fn check_boundaries(rate: f64, k: usize, stream: impl Fn() -> Box<dyn RngCore>) {
    let rate = Rate::new(rate);
    let mut graph = ContactGraph::new(2);
    graph.set_rate(NodeId(0), NodeId(1), rate);
    let mut draws = stream();
    let mut s = Time::ZERO;
    for _ in 0..k {
        s += sample_intercontact(rate, &mut draws).unwrap();
    }
    let s = s.as_f64();
    for (horizon, kept) in [(s.next_down(), k - 1), (s, k), (s.next_up(), k)] {
        let horizon = Time::new(horizon);
        let case = format!("rate {rate:?}, k {k}, horizon {horizon}");
        let mut oracle_rng = stream();
        let oracle = exact_times(rate, horizon, &mut oracle_rng);
        assert_eq!(oracle.len(), kept, "{case}");
        let mut rng = stream();
        let contacts = SampledContacts::sample(&graph, horizon, &mut rng);
        assert_eq!(contacts.len(), oracle.len(), "{case}");
        let times: Vec<Time> = contacts.events().map(|e| e.time).collect();
        assert_eq!(times, oracle, "{case}");
        // The crossing draw is consumed, as in the exact loop.
        assert_eq!(rng.next_u64(), oracle_rng.next_u64(), "{case}");
    }
}

#[test]
fn horizons_on_a_partial_sum_keep_the_exact_count() {
    for rate in [0.03, 0.4, 1.0, 2.5, 7.3] {
        for seed in 0..8u64 {
            for k in [1, 2, 3, 7, 20, 61] {
                check_boundaries(rate, k, || Box::new(ChaCha8Rng::seed_from_u64(seed)));
            }
        }
    }
}

#[test]
fn constant_words_on_a_partial_sum_keep_the_exact_count() {
    for rate in [0.03, 0.5, 1.0, 7.3] {
        for word in [1u64 << 60, 3 << 62, 0x9E37_79B9_7F4A_7C15, 15 << 60] {
            for k in [1, 4, 33] {
                check_boundaries(rate, k, || Box::new(StepRng::new(word, 0)));
            }
        }
    }
}
