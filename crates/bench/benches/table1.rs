//! Regenerates the paper's Table 1 (fleet overview per class), and times
//! it next to `FindingsReport::evaluate`, the rest of the follow-up pass
//! over a finished study.

mod common;

use criterion::{criterion_group, criterion_main, Criterion};
use ssfa_core::FindingsReport;
use std::hint::black_box;

fn bench_table1(c: &mut Criterion) {
    // Print the series once so `cargo bench` output doubles as the report.
    let study = common::prebuilt_study();
    println!("{}", ssfa_bench::render_table1(&study));

    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    group.bench_function("analysis", |b| {
        b.iter(|| black_box(study.table1()));
    });
    group.bench_function("findings", |b| {
        b.iter(|| black_box(FindingsReport::evaluate(black_box(&study))));
    });
    group.bench_function("end_to_end", |b| {
        b.iter(|| {
            let study = common::ctx().study();
            black_box(study.table1())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);
