//! Differential determinism harness: the chunked streaming pipeline must
//! be bit-identical to the monolithic reference pipeline for every
//! `(scale, seed, threads, chunk size)` tuple, whether shards arrive as
//! parsed lines from the simulator or as text from an on-disk corpus.
//!
//! "Bit-identical" is checked at both levels the analysis consumes:
//! the full [`AnalysisInput`] (every recovered lifetime, failure record,
//! and topology entry) and the headline `Study::table1()` rows.

use std::path::PathBuf;

use ssfa::logs::CorpusWriter;
use ssfa::pipeline::Source;
use ssfa::prelude::*;
use ssfa::{FileSource, MmapSource, Pipeline};

/// The (scale, seed) grid: three distinct fleet sizes, three seeds, small
/// enough to keep the suite fast but big enough that every shard path
/// (multi-shard chunks, replacement disks, masked failures) is exercised.
const GRID: [(f64, u64); 3] = [(0.002, 7), (0.004, 1234), (0.006, 424_242)];

/// Thread counts per ISSUE: serial, even split, oversubscribed.
const THREADS: [usize; 3] = [1, 2, 8];

/// Chunk sizes: the legacy one-system granularity, small batches that
/// straddle chunk boundaries, and one far beyond any grid fleet (a single
/// chunk). `None` is the auto byte-budget policy.
const CHUNKS: [Option<usize>; 4] = [Some(1), Some(7), Some(100_000), None];

fn pipeline(scale: f64, seed: u64) -> Pipeline {
    Pipeline::new().scale(scale).seed(seed)
}

fn chunked(p: Pipeline, chunk: Option<usize>) -> Pipeline {
    match chunk {
        Some(n) => p.chunk_systems(n),
        None => p,
    }
}

#[test]
fn streaming_equals_monolithic_across_the_grid() {
    for (scale, seed) in GRID {
        let (reference, _, _) = pipeline(scale, seed).run_monolithic().unwrap();
        for threads in THREADS {
            for chunk in CHUNKS {
                let (streamed, _, _) = chunked(pipeline(scale, seed).threads(threads), chunk)
                    .run()
                    .unwrap();
                assert_eq!(
                    streamed.input(),
                    reference.input(),
                    "analysis input diverged at scale {scale}, seed {seed}, \
                     {threads} threads, chunk {chunk:?}"
                );
            }
        }
    }
}

/// A self-deleting scratch directory under the system temp dir.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("ssfa-pipeline-diff-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn disk_round_trip_equals_monolithic_across_the_grid() {
    // The full serialize → re-parse round trip, which is how production
    // corpora arrive: render every shard to a corpus on disk, then read
    // it back as text through both disk-backed sources.
    for (scale, seed) in GRID {
        let base = pipeline(scale, seed);
        let (reference, _, _) = base.run_monolithic().unwrap();
        let tmp = TempDir::new(&format!("{scale}-{seed}"));
        let fleet = base.build_fleet();
        let output = base.simulate(&fleet);
        CorpusWriter::new(&tmp.0)
            .write(&fleet, &output, CascadeStyle::RaidOnly, seed)
            .expect("corpus builds");
        let file = FileSource::open(&tmp.0).expect("file source opens");
        let mmap = MmapSource::open(&tmp.0).expect("mmap source opens");
        for (threads, chunk) in [(1, Some(1)), (2, Some(7)), (8, None)] {
            let configured = chunked(base.clone().threads(threads), chunk);
            for (name, source) in [("file", &file as &dyn Source), ("mmap", &mmap)] {
                let (streamed, _, _) = configured.run_source(source).unwrap();
                assert_eq!(
                    streamed.input(),
                    reference.input(),
                    "{name} source diverged at scale {scale}, seed {seed}, \
                     {threads} threads, chunk {chunk:?}"
                );
            }
        }
    }
}

#[test]
fn table1_rows_are_identical_across_thread_counts() {
    for (scale, seed) in GRID {
        let reference = pipeline(scale, seed).run_monolithic().unwrap().0.table1();
        for threads in THREADS {
            let streamed = pipeline(scale, seed)
                .threads(threads)
                .run()
                .unwrap()
                .0
                .table1();
            assert_eq!(
                format!("{streamed:?}"),
                format!("{reference:?}"),
                "table 1 diverged at scale {scale}, seed {seed}, {threads} threads"
            );
        }
    }
}

#[test]
fn thread_counts_agree_with_each_other_bitwise() {
    // Transitivity makes this redundant with the monolithic comparison,
    // but it localizes a failure: if this passes while the monolithic
    // comparison fails, the bug is in the merge, not the worker split.
    let (scale, seed) = GRID[1];
    let (one, _, _) = pipeline(scale, seed).threads(1).run().unwrap();
    for threads in [2, 3, 8, 64] {
        let (many, _, _) = pipeline(scale, seed).threads(threads).run().unwrap();
        assert_eq!(
            many.input(),
            one.input(),
            "threads={threads} diverged from threads=1"
        );
    }
}

#[test]
fn streaming_memory_is_bounded_by_shard_size() {
    let (study, stats, health) = pipeline(0.006, 7).threads(4).run().unwrap();
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
    let (_, one_chunk, one_chunk_health) = pipeline(0.006, 7)
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
    let (reference, _, _) = pipeline(scale, seed)
        .cascade_style(CascadeStyle::Full)
        .run_monolithic()
        .unwrap();
    for threads in THREADS {
        let (streamed, _, _) = pipeline(scale, seed)
            .cascade_style(CascadeStyle::Full)
            .threads(threads)
            .run()
            .unwrap();
        assert_eq!(streamed.input(), reference.input());
    }
}
