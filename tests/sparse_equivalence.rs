//! Dense-vs-sparse backend equivalence.
//!
//! The `ContactModel` contract: a [`SparseContacts`] built from the
//! *same* pairwise rates as a dense [`ContactGraph`] is the same
//! statistical world, so everything downstream must agree —
//!
//! 1. **Bit-identically** wherever the computation is a deterministic
//!    function of the rates: every `contact_rate`, every Eq. 4 group
//!    aggregate, and the full Eq. 4–7 analysis pipeline
//!    (delivery/cost/anonymity all consume only these rates). This is
//!    property-tested over random graphs, group shapes, and
//!    connectivities.
//!
//! 2. **Within Monte-Carlo tolerance** for the simulated series, where
//!    dense mode samples a [`ContactSchedule`] up front and sparse mode
//!    streams arrivals from a [`CalendarQueue`]: the two engines draw
//!    different (but identically distributed) Poisson arrival processes,
//!    so delivery and per-message cost must agree statistically, not
//!    bitwise.

use contact_graph::{
    ContactModel, ContactSchedule, NodeId, SparseContacts, Time, TimeDelta, UniformGraphBuilder,
};
use dtn_sim::{run_stream, run_with_faults, CalendarQueue, FaultPlan, SimConfig, WorkloadBuilder};
use onion_routing::{ForwardingMode, OnionGroups, OnionRouting};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `SparseContacts::from_dense` preserves every pairwise rate and
    /// every Eq. 4 aggregate bit-for-bit, across sizes and partial
    /// connectivities. Analysis delivery, cost, and anonymity are
    /// deterministic functions of exactly these quantities, so bitwise
    /// agreement here is bitwise agreement of the whole analysis side.
    #[test]
    fn from_dense_preserves_rates_and_group_aggregates(
        n in 4usize..40,
        seed in any::<u64>(),
        connectivity in 0.2f64..=1.0,
        group in 1usize..6,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let dense = UniformGraphBuilder::new(n)
            .connectivity(connectivity)
            .build(&mut rng);
        let sparse = SparseContacts::from_dense(&dense);

        prop_assert_eq!(sparse.node_count(), dense.node_count());
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                prop_assert_eq!(
                    sparse.contact_rate(NodeId(a), NodeId(b)).as_f64().to_bits(),
                    dense.contact_rate(NodeId(a), NodeId(b)).as_f64().to_bits(),
                    "rate ({a},{b})"
                );
            }
        }

        // Eq. 4 aggregates over a random group partition: same summation
        // order, same bits.
        let groups = OnionGroups::random_partition(n, group.min(n), &mut rng);
        let members: Vec<Vec<NodeId>> = groups
            .group_ids()
            .map(|g| groups.members(g).to_vec())
            .collect();
        for g in &members {
            prop_assert_eq!(
                sparse.rate_to_group(NodeId(0), g).as_f64().to_bits(),
                dense.rate_to_group(NodeId(0), g).as_f64().to_bits()
            );
        }
        for w in members.windows(2) {
            prop_assert_eq!(
                sparse.mean_rate_between_groups(&w[0], &w[1]).as_f64().to_bits(),
                dense.mean_rate_between_groups(&w[0], &w[1]).as_f64().to_bits()
            );
        }
    }
}

/// Runs `trials` onion-routing realizations on a fixed rate world and
/// returns (delivered fraction, transmissions per message). `sparse`
/// selects the engine: schedule-driven dense mode or calendar-queue
/// sparse mode over `from_dense` of the identical graph.
fn simulate(trials: u64, sparse: bool) -> (f64, f64) {
    let n = 40usize;
    let horizon = Time::new(360.0);
    let mut world_rng = ChaCha8Rng::seed_from_u64(0x5EED_E001);
    let graph = UniformGraphBuilder::new(n).build(&mut world_rng);
    let csr = SparseContacts::from_dense(&graph);

    let mut delivered = 0u64;
    let mut injected = 0u64;
    let mut transmissions = 0u64;
    for trial in 0..trials {
        // Distinct streams per engine flavor: the comparison is
        // statistical, so sharing a stream would only fake agreement.
        let mut rng = ChaCha8Rng::seed_from_u64(0xE0_0000 + trial * 2 + u64::from(sparse));
        let mut fault_rng = ChaCha8Rng::seed_from_u64(0xFA_0000 + trial);
        let groups = OnionGroups::random_partition(n, 5, &mut rng);
        let mut protocol = OnionRouting::new(groups, 2, ForwardingMode::SingleCopy);
        let messages = WorkloadBuilder::new(10, TimeDelta::new(360.0))
            .first_id(trial * 1000)
            .build(n, &mut rng);
        injected += messages.len() as u64;
        let config = SimConfig::builder().build();
        let plan = FaultPlan::default();
        let report = if sparse {
            let queue = CalendarQueue::from_sparse(&csr, horizon, rng.clone());
            run_stream(
                n,
                horizon,
                queue,
                &mut protocol,
                messages,
                &config,
                &plan,
                &mut fault_rng,
                &mut rng,
            )
            .expect("sparse run succeeds")
        } else {
            let schedule = ContactSchedule::sample(&graph, horizon, &mut rng);
            run_with_faults(
                &schedule,
                &mut protocol,
                messages,
                &config,
                &plan,
                &mut fault_rng,
                &mut rng,
            )
            .expect("dense run succeeds")
        };
        delivered += report.delivered_count() as u64;
        transmissions += report.total_transmissions();
    }
    (
        delivered as f64 / injected as f64,
        transmissions as f64 / injected as f64,
    )
}

/// The two engines agree on delivery and cost within Monte-Carlo
/// tolerance when fed the same pairwise rates.
#[test]
fn engines_agree_on_delivery_and_cost_within_mc_tolerance() {
    let trials = 60;
    let (dense_delivery, dense_cost) = simulate(trials, false);
    let (sparse_delivery, sparse_cost) = simulate(trials, true);

    // Both engines must actually route something, or the comparison is
    // vacuous.
    assert!(
        dense_delivery > 0.05,
        "dense delivery too low to compare: {dense_delivery}"
    );
    assert!(
        sparse_delivery > 0.05,
        "sparse delivery too low to compare: {sparse_delivery}"
    );

    let delivery_gap = (dense_delivery - sparse_delivery).abs();
    assert!(
        delivery_gap < 0.08,
        "delivery gap {delivery_gap:.4} exceeds MC tolerance \
         (dense {dense_delivery:.4} vs sparse {sparse_delivery:.4})"
    );
    let cost_gap = (dense_cost - sparse_cost).abs();
    let cost_scale = dense_cost.max(1.0);
    assert!(
        cost_gap / cost_scale < 0.15,
        "cost gap {cost_gap:.4} exceeds MC tolerance \
         (dense {dense_cost:.4} vs sparse {sparse_cost:.4})"
    );
}
