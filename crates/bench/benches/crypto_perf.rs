//! Criterion micro-benchmarks for the from-scratch crypto substrate:
//! primitive throughput plus constant-size wire onion build/peel over one
//! reused buffer, and the XOR-stub ablation showing the real AEAD layers
//! are not the experiment bottleneck.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use onion_crypto::aead::AeadKey;
use onion_crypto::keys::derive_group_key;
use onion_crypto::{aead, chacha20, sha256};
use onion_crypto::{OnionLayerSpec, WirePacket, WirePeeled};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("primitives");
    let data = vec![0xA5u8; 4096];

    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("sha256/4KiB", |b| {
        b.iter(|| sha256::Sha256::digest(std::hint::black_box(&data)))
    });

    let key = [7u8; 32];
    let nonce = [1u8; 12];
    group.bench_function("chacha20/4KiB", |b| {
        b.iter(|| chacha20::xor(&key, &nonce, 0, std::hint::black_box(&data)))
    });

    let aead_key = AeadKey::from_bytes(key);
    group.bench_function("chacha20poly1305_seal/4KiB", |b| {
        b.iter(|| aead::seal(&aead_key, &nonce, b"aad", std::hint::black_box(&data)))
    });

    group.finish();
}

fn bench_onion(c: &mut Criterion) {
    let mut group = c.benchmark_group("onion");
    let master = [9u8; 32];
    let payload = vec![0x5Au8; 1024];

    for k in [3usize, 5, 10] {
        let specs: Vec<OnionLayerSpec> = (0..k as u32)
            .map(|g| OnionLayerSpec {
                group: g,
                key: derive_group_key(&master, g),
            })
            .collect();

        group.bench_function(format!("build/K={k}"), |b| {
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            let mut pkt = WirePacket::zeroed();
            b.iter(|| {
                pkt.build_into(&specs, 99, &payload, &mut rng)
                    .expect("payload fits the fixed body");
                std::hint::black_box(pkt.as_bytes()[0])
            })
        });

        group.bench_function(format!("full_peel/K={k}"), |b| {
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            let onion = WirePacket::build(&specs, 99, &payload, &mut rng)
                .expect("payload fits the fixed body");
            let mut pkt = WirePacket::zeroed();
            b.iter(|| {
                pkt.copy_from(&onion);
                for spec in &specs {
                    let peeled = pkt
                        .peel_in_place(&spec.key, &mut rng)
                        .expect("correct key order");
                    if let WirePeeled::Delivered { payload_len, .. } = peeled {
                        return std::hint::black_box(payload_len);
                    }
                }
                unreachable!("packet depth matches route")
            })
        });
    }

    // Ablation: XOR-stub "encryption" to show AEAD cost in context.
    group.bench_function("ablation_xor_stub/K=3", |b| {
        b.iter(|| {
            let mut data = payload.clone();
            for layer in 0..3u8 {
                for byte in &mut data {
                    *byte ^= layer.wrapping_add(0x33);
                }
            }
            std::hint::black_box(data.len())
        })
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_primitives, bench_onion
}
criterion_main!(benches);
