//! Differential determinism: the chunked streaming pipeline must be
//! bit-identical to the monolithic reference pipeline for every
//! `(scale, seed, threads, chunk size)` tuple, whether shards arrive as
//! parsed lines from the simulator or as text from an on-disk corpus.
//!
//! Each test is a slice of the engine grid (`tests/grid/mod.rs`), which
//! checks every run's full `AnalysisInput`, its Table 1 rows and its
//! `RunHealth` line counters against the monolithic reference.

mod grid;

use grid::{cross, run_grid, Case, Chunk};
use ssfa::logs::CascadeStyle;
use ssfa::Pipeline;

/// The (scale, seed) grid: three distinct fleet sizes, three seeds, small
/// enough to keep the suite fast but big enough that every shard path
/// (multi-shard chunks, replacement disks, masked failures) is exercised.
const GRID: [(f64, u64); 3] = [(0.002, 7), (0.004, 1234), (0.006, 424_242)];

/// Thread counts: serial, even split, oversubscribed.
const THREADS: [usize; 3] = [1, 2, 8];

/// Chunk sizes: the legacy one-system granularity, small batches that
/// straddle chunk boundaries, and one far beyond any grid fleet (a single
/// chunk). `None` is the auto byte-budget policy.
const CHUNKS: [Chunk; 4] = [Some(1), Some(7), Some(100_000), None];

/// `points` over the simulator source for every fleet of [`GRID`].
fn sim_grid(points: &[(usize, Chunk)]) -> Vec<Case> {
    GRID.into_iter()
        .map(|(scale, seed)| Case {
            sim: points.to_vec(),
            ..Case::new(scale, seed)
        })
        .collect()
}

#[test]
fn streaming_equals_monolithic_across_the_grid() {
    run_grid(&sim_grid(&cross(&THREADS, &CHUNKS)));
}

/// The full serialize → re-parse round trip, which is how production
/// corpora arrive: render every shard to a corpus on disk, then read it
/// back as text through both disk-backed sources.
#[test]
fn disk_round_trip_equals_monolithic_across_the_grid() {
    let cases: Vec<Case> = GRID
        .into_iter()
        .map(|(scale, seed)| Case {
            disk: vec![(1, Some(1)), (2, Some(7)), (8, None)],
            ..Case::new(scale, seed)
        })
        .collect();
    run_grid(&cases);
}

#[test]
fn table1_rows_are_identical_across_thread_counts() {
    run_grid(&sim_grid(&cross(&THREADS, &[None])));
}

#[test]
fn thread_counts_agree_with_each_other_bitwise() {
    let (scale, seed) = GRID[1];
    run_grid(&[Case {
        sim: cross(&[1, 2, 3, 8, 64], &[None]),
        ..Case::new(scale, seed)
    }]);
}

#[test]
fn streaming_memory_is_bounded_by_shard_size() {
    let (study, stats, health) = Pipeline::new()
        .scale(0.006)
        .seed(7)
        .threads(4)
        .run()
        .unwrap();
    assert_eq!(health.shards_total, study.input().topology.systems.len());
    assert!(
        health.shards_total > 8,
        "grid scale should give a multi-shard fleet"
    );
    assert!(
        health.chunks_total > 0 && health.chunks_total <= health.shards_total,
        "{health:?}"
    );
    assert!(stats.max_shard_bytes > 0 && stats.total_bytes > stats.max_shard_bytes);
    // The bounded-memory claim: the biggest corpus buffer any worker held
    // is a small fraction of what the monolithic path materializes —
    // chunking batches classifier setup, not shard residency, so this
    // holds for the auto policy too.
    assert!(
        stats.max_shard_bytes * 4 < stats.total_bytes,
        "peak shard {} bytes vs total {} bytes",
        stats.max_shard_bytes,
        stats.total_bytes
    );
    // And it holds when whole-fleet chunking forces a single work unit.
    let (_, one_chunk, one_chunk_health) = Pipeline::new()
        .scale(0.006)
        .seed(7)
        .threads(4)
        .chunk_systems(100_000)
        .run()
        .unwrap();
    assert_eq!(one_chunk_health.chunks_total, 1, "{one_chunk_health:?}");
    assert!(
        one_chunk.max_shard_bytes * 4 < one_chunk.total_bytes,
        "single-chunk peak {} bytes vs total {} bytes",
        one_chunk.max_shard_bytes,
        one_chunk.total_bytes
    );
}

#[test]
fn full_cascade_style_is_also_differential() {
    let (scale, seed) = GRID[0];
    run_grid(&[Case {
        style: CascadeStyle::Full,
        sim: cross(&THREADS, &[None]),
        ..Case::new(scale, seed)
    }]);
}
