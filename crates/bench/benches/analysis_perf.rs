//! Criterion micro-benchmarks for the analytical models: hypoexponential
//! evaluation (product form vs uniformization fallback), traceable rate,
//! and path anonymity.

use std::time::Duration;

use analysis::TABLE2_MEAN_RATE;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_hypoexp(c: &mut Criterion) {
    let mut group = c.benchmark_group("hypoexp");

    // Well-conditioned: distinct rates → Eq. 5 product form.
    let distinct = analysis::HypoExp::new(vec![0.11, 0.23, 0.37, 0.52]).expect("valid");
    assert!(distinct.is_well_conditioned());
    group.bench_function("cdf/product_form_K4", |b| {
        b.iter(|| distinct.cdf(std::hint::black_box(360.0)))
    });

    // Ill-conditioned: equal rates → uniformization fallback.
    let equal = analysis::HypoExp::new(vec![0.25; 4]).expect("valid");
    assert!(!equal.is_well_conditioned());
    group.bench_function("cdf/uniformization_K4", |b| {
        b.iter(|| equal.cdf(std::hint::black_box(360.0)))
    });

    let equal_k11 = analysis::HypoExp::new(vec![0.25; 11]).expect("valid");
    group.bench_function("cdf/uniformization_K11", |b| {
        b.iter(|| equal_k11.cdf(std::hint::black_box(1080.0)))
    });

    // The served delivery model at Table II defaults: g = 5, K = 3 ties
    // the group stages, so both rows run the uniformization evaluator.
    let table2 = analysis::uniform_onion_path_rates(TABLE2_MEAN_RATE, 5, 3).expect("valid");
    group.bench_function("quantile/median_uniform_K3", |b| {
        b.iter(|| analysis::median_delay(std::hint::black_box(&table2)).expect("valid"))
    });
    // A deadline whose Poisson window lies past the chain's constant
    // tail: the cost must not grow with Λt.
    let uniform = analysis::HypoExp::new(table2.clone()).expect("valid");
    group.bench_function("cdf/uniformization_deadline_1e6", |b| {
        b.iter(|| uniform.cdf(std::hint::black_box(1e6)))
    });
    group.finish();
}

fn bench_security_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("security_models");
    group.bench_function("traceable_exact/eta11", |b| {
        b.iter(|| analysis::expected_traceable_rate(11, std::hint::black_box(0.2)).expect("valid"))
    });
    group.bench_function("traceable_paper/eta11", |b| {
        b.iter(|| {
            analysis::expected_traceable_rate_paper(11, std::hint::black_box(0.2)).expect("valid")
        })
    });
    group.bench_function("anonymity_stirling", |b| {
        b.iter(|| analysis::path_anonymity(100, 5, 3, std::hint::black_box(10), 3).expect("valid"))
    });
    group.bench_function("anonymity_exact", |b| {
        b.iter(|| {
            analysis::path_anonymity_exact(100, 5, 4, std::hint::black_box(1.5)).expect("valid")
        })
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(30)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_hypoexp, bench_security_models
}
criterion_main!(benches);
