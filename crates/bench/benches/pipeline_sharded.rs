//! Monolithic vs. sharded streaming pipeline: wall-clock and peak
//! corpus-buffer bytes.
//!
//! The streaming path's claim is twofold: it scales with worker threads,
//! and its peak resident corpus text is one shard, not the whole fleet's
//! log. This bench measures both on a scale(0.12) fleet — large enough
//! that the monolithic corpus is hundreds of MiB-class lines while each
//! per-system shard stays small.
//!
//! Set `SSFA_BENCH_SHARDED_SCALE` to override the fleet scale (e.g. a
//! smaller value for quick local runs).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ssfa::Pipeline;
use std::hint::black_box;

const DEFAULT_SCALE: f64 = 0.12;
const SEED: u64 = 1988;

fn bench_pipeline_sharded(c: &mut Criterion) {
    let scale = std::env::var("SSFA_BENCH_SHARDED_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SCALE);
    let pipeline = Pipeline::new().scale(scale).seed(SEED);

    // One streaming run up front for the memory-bound evidence.
    let (_, stats, health) = pipeline
        .clone()
        .threads(8)
        .run()
        .expect("streaming pipeline runs");
    println!(
        "sharded pipeline at scale {scale}: {} shards, total corpus {:.1} MiB, \
         peak resident shard {:.2} MiB ({:.1}x smaller than monolithic)",
        health.shards_total,
        stats.total_bytes as f64 / (1024.0 * 1024.0),
        stats.max_shard_bytes as f64 / (1024.0 * 1024.0),
        stats.total_bytes as f64 / stats.max_shard_bytes.max(1) as f64,
    );
    assert!(
        stats.max_shard_bytes * 4 < stats.total_bytes,
        "streaming path must never hold the full rendered text"
    );

    let mut group = c.benchmark_group("pipeline_sharded");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(stats.total_bytes as u64));
    group.bench_function("monolithic", |b| {
        b.iter(|| black_box(pipeline.run_monolithic().expect("monolithic pipeline runs")));
    });
    for threads in [1usize, 2, 8] {
        let p = pipeline.clone().threads(threads);
        group.bench_function(format!("streaming_threads_{threads}"), |b| {
            b.iter(|| black_box(p.run().expect("streaming pipeline runs")));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline_sharded);
criterion_main!(benches);
