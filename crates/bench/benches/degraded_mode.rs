//! Cost of the degraded-mode machinery: strict vs. lenient (clean) vs.
//! lenient under fault injection.
//!
//! Lenient mode adds per-line skip accounting and per-shard panic
//! isolation to the worker loop; this bench shows that on a clean corpus
//! the overhead is noise, and quantifies the extra work of corrupting and
//! skip-counting when injection is on.
//!
//! Set `SSFA_BENCH_DEGRADED_SCALE` to override the fleet scale.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ssfa::prelude::*;
use ssfa::Pipeline;
use std::hint::black_box;

const DEFAULT_SCALE: f64 = 0.02;
const SEED: u64 = 404;
const INJECT_RATE: f64 = 1e-3;

fn bench_degraded_mode(c: &mut Criterion) {
    let scale = std::env::var("SSFA_BENCH_DEGRADED_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SCALE);
    let strict = Pipeline::new().scale(scale).seed(SEED).threads(4);
    let lenient = strict.clone().lenient();
    let injected = lenient.clone().faults(FaultSpec::uniform(INJECT_RATE));

    // The zero-rate identity, checked on the bench config before timing:
    // lenient on a clean corpus is not an approximation of strict.
    let (strict_study, stats, strict_health) = strict.run().expect("strict pipeline runs");
    let (lenient_study, _, health) = lenient.run().expect("lenient pipeline runs");
    assert_eq!(
        lenient_study.input(),
        strict_study.input(),
        "lenient@rate0 must equal strict"
    );
    assert!(health.is_clean());

    println!(
        "degraded-mode bench at scale {scale}: {} shards, {:.1} MiB corpus",
        strict_health.shards_total,
        stats.total_bytes as f64 / (1024.0 * 1024.0),
    );

    let mut group = c.benchmark_group("degraded_mode");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(stats.total_bytes as u64));
    group.bench_function("strict_clean", |b| {
        b.iter(|| black_box(strict.run().expect("strict pipeline runs")));
    });
    group.bench_function("lenient_clean", |b| {
        b.iter(|| black_box(lenient.run().expect("lenient pipeline runs")));
    });
    group.bench_function(format!("lenient_injected_{INJECT_RATE}"), |b| {
        b.iter(|| black_box(injected.run().expect("injected pipeline runs")));
    });
    group.finish();
}

criterion_group!(benches, bench_degraded_mode);
criterion_main!(benches);
