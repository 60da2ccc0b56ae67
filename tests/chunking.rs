//! Chunk-batching invariants of the streaming pipeline.
//!
//! 1. **Granularity identity**: chunk size 1 (the legacy one-shard work
//!    units), the auto byte-budget policy, and a single whole-fleet chunk
//!    all produce bit-identical studies — and identical `RunHealth` line
//!    counters.
//! 2. **Degenerate bounds**: chunk size ≥ fleet collapses to exactly one
//!    chunk; chunk size 1 gives one chunk per shard.
//! 3. **Blast radius**: a panicking system inside a multi-system chunk
//!    quarantines exactly that chunk — every cohabiting system is counted
//!    lost, with the exact rendered line count, and the rest of the fleet
//!    still merges.

use std::collections::BTreeSet;

use ssfa::logs::{render_system_log, NoiseParams, ShardPlan};
use ssfa::prelude::*;
use ssfa::Pipeline;

const SCALE: f64 = 0.004;
const SEED: u64 = 7;

fn pipeline() -> Pipeline {
    Pipeline::new().scale(SCALE).seed(SEED)
}

#[test]
fn every_chunk_granularity_is_bit_identical() {
    let (legacy, _, legacy_health) = pipeline().threads(2).chunk_systems(1).run().unwrap();
    let (auto, _, auto_health) = pipeline().threads(2).run().unwrap();
    let (whole, _, whole_health) = pipeline()
        .threads(2)
        .chunk_systems(1_000_000)
        .run()
        .unwrap();

    assert_eq!(
        auto.input(),
        legacy.input(),
        "auto chunking diverged from chunk size 1"
    );
    assert_eq!(
        whole.input(),
        legacy.input(),
        "whole-fleet chunk diverged from chunk size 1"
    );
    for (health, what) in [
        (&auto_health, "auto"),
        (&whole_health, "whole-fleet"),
        (&legacy_health, "legacy"),
    ] {
        assert!(health.is_clean(), "{what} chunking reported loss: {health}");
        assert_eq!(
            health.lines_seen, legacy_health.lines_seen,
            "{what} line count diverged"
        );
        assert_eq!(
            health.chunks_processed, health.chunks_total,
            "{what}: {health}"
        );
    }
}

#[test]
fn chunk_counts_hit_the_degenerate_bounds() {
    let (_, _, per_shard) = pipeline().chunk_systems(1).run().unwrap();
    assert_eq!(
        per_shard.chunks_total, per_shard.shards_total,
        "chunk size 1 must give one chunk per shard"
    );

    let (_, _, single) = pipeline().chunk_systems(1_000_000).run().unwrap();
    assert_eq!(
        single.chunks_total, 1,
        "chunk size beyond the fleet must collapse to one chunk"
    );
    assert_eq!(single.shards_total, per_shard.shards_total);

    let (_, _, auto) = pipeline().run().unwrap();
    assert!(
        auto.chunks_total >= 1 && auto.chunks_total <= auto.shards_total,
        "auto chunk count out of range: {auto:?}"
    );
}

#[test]
fn one_system_fleet_chunk1_and_auto_are_identical() {
    // The smallest legal fleet: one retained class at a vanishing scale
    // floors to exactly one system, so every chunking policy must plan
    // one chunk over one shard and produce the same study.
    let one_system = || {
        Pipeline::new()
            .seed(SEED)
            .config(
                FleetConfig::paper()
                    .only_classes(&[SystemClass::HighEnd])
                    .scaled(1e-9),
            )
            .threads(2)
    };
    let (fixed, fixed_stats, fixed_health) = one_system().chunk_systems(1).run().unwrap();
    let (auto, auto_stats, auto_health) = one_system().run().unwrap();
    assert_eq!(fixed_health.shards_total, 1);
    assert_eq!(fixed_health.chunks_total, 1);
    assert_eq!(auto_stats, fixed_stats);
    assert_eq!(auto_health, fixed_health);
    assert_eq!(auto.input(), fixed.input());

    let (mono, _, _) = one_system().run_monolithic().unwrap();
    assert_eq!(
        mono.input(),
        fixed.input(),
        "one-system streaming diverged from the monolithic oracle"
    );
}

#[test]
fn panicking_system_quarantines_its_whole_chunk_with_exact_accounting() {
    const CHUNK: usize = 8;
    const PANIC_SHARD: usize = 10;
    let spec = FaultSpec {
        panic_shards: BTreeSet::from([PANIC_SHARD]),
        ..FaultSpec::none()
    };
    let (study, _, health) = pipeline()
        .threads(4)
        .chunk_systems(CHUNK)
        .lenient()
        .faults(spec)
        .run()
        .unwrap();

    // Shard 10 lives in chunk 1 (shards 8..16); the whole chunk is retried
    // once, panics again, and is quarantined.
    assert_eq!(health.chunks_quarantined(), 1, "{health}");
    let q = &health.quarantined[0];
    assert_eq!(q.chunk, PANIC_SHARD / CHUNK);
    assert_eq!(q.shards, 8..16);
    assert_eq!(
        q.systems_lost(),
        CHUNK,
        "every cohabiting system counts as lost"
    );
    assert_eq!(q.attempts, 2);
    assert!(
        q.reason.contains("deliberate worker panic on shard 10"),
        "quarantine must carry the panic message: {}",
        q.reason
    );
    assert_eq!(health.shards_quarantined(), CHUNK, "{health}");
    assert_eq!(
        health.shards_retried, CHUNK,
        "the retry re-ran the whole chunk"
    );
    assert_eq!(
        health.shards_processed,
        health.shards_total - CHUNK,
        "{health}"
    );
    assert_eq!(health.chunks_processed, health.chunks_total - 1, "{health}");

    // The loss ledger is exact: lines_lost is the sum of the rendered line
    // counts of all eight quarantined shards, and what was seen plus what
    // was lost is the whole corpus.
    let p = pipeline();
    let fleet = p.build_fleet();
    let output = p.simulate(&fleet);
    let plan = ShardPlan::new(&fleet, &output);
    let render_lines = |shard: usize| {
        render_system_log(
            &fleet,
            &output,
            &plan,
            shard,
            CascadeStyle::RaidOnly,
            NoiseParams::none(),
            SEED,
        )
        .len() as u64
    };
    let expected_lost: u64 = q.shards.clone().map(render_lines).sum();
    assert_eq!(q.lines_lost, Some(expected_lost), "{health}");
    assert_eq!(health.lines_lost(), Some(expected_lost));
    let total_corpus_lines: u64 = (0..plan.shard_count()).map(render_lines).sum();
    assert_eq!(
        health.lines_seen + expected_lost,
        total_corpus_lines,
        "seen + lost must cover the whole corpus: {health}"
    );

    // Exactly the quarantined systems are missing from the merge.
    assert_eq!(
        study.input().topology.systems.len(),
        health.shards_total - CHUNK
    );
    for system in &q.systems {
        assert!(
            !study.input().topology.systems.contains_key(system),
            "quarantined sys-{} leaked into the merge",
            system.0
        );
    }
}
