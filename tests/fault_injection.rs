//! Keystone invariants of the fault-injection harness and the
//! degraded-mode pipeline.
//!
//! 1. **Zero-rate identity**: with no faults injected, the lenient
//!    pipeline is bit-identical to the strict pipeline — same
//!    `AnalysisInput`, same Table 1 — across seeds and thread counts, and
//!    its `RunHealth` is a clean bill.
//! 2. **Exact accounting**: under injection at rate ε > 0 the run
//!    completes, and `RunHealth` matches the injector's own ledger line
//!    for line — every fault that landed is either ingested (duplicates,
//!    reorders), skip-counted by kind, or attributed to a dropped shard.
//! 3. **Bounded damage**: at small ε the Table-1 AFR deltas stay small.
//! 4. **Isolation**: a deliberately panicking shard worker is retried
//!    once, then quarantined with the panic message — without killing the
//!    other workers or the run.

use std::collections::BTreeSet;

use ssfa::logs::{render_system_log, FaultInjector, FaultLedger, NoiseParams, ShardPlan};
use ssfa::prelude::*;
use ssfa::{Pipeline, PipelineError, RunHealth};

/// Small enough to keep the suite fast, big enough for a multi-shard,
/// multi-class fleet (~160 systems).
const SCALE: f64 = 0.004;

const SEEDS: [u64; 2] = [7, 4242];
const THREADS: [usize; 2] = [1, 4];
const RATES: [f64; 2] = [1e-4, 1e-2];

fn pipeline(seed: u64) -> Pipeline {
    Pipeline::new().scale(SCALE).seed(seed)
}

/// Replays the injector outside the pipeline: the independent oracle the
/// run's merged ledger must reproduce exactly.
fn external_ledger(seed: u64, spec: &FaultSpec) -> FaultLedger {
    let p = pipeline(seed);
    let fleet = p.build_fleet();
    let output = p.simulate(&fleet);
    let plan = ShardPlan::new(&fleet, &output);
    let injector = FaultInjector::new(spec.clone(), seed);
    let mut ledger = FaultLedger::default();
    for shard in 0..plan.shard_count() {
        let text = render_system_log(
            &fleet,
            &output,
            &plan,
            shard,
            CascadeStyle::RaidOnly,
            NoiseParams::none(),
            seed,
        )
        .to_text();
        let _ = injector.corrupt_shard(shard, 0, &text, &mut ledger);
    }
    ledger
}

/// The exact-accounting contract between a run's health and its ledger.
fn assert_exact_accounting(health: &RunHealth, context: &str) {
    let ledger = &health.ledger;
    assert_eq!(
        health.lines_seen, ledger.lines_out,
        "lines seen vs injector output: {context}"
    );
    assert_eq!(
        health.lines_skipped_malformed, ledger.expect_malformed,
        "malformed skips vs ledger: {context}"
    );
    assert_eq!(
        health.lines_skipped_missing_topology, ledger.expect_missing_topology,
        "missing-topology skips vs ledger: {context}"
    );
    assert_eq!(
        health.shards_dropped, ledger.shards_dropped,
        "dropped shards: {context}"
    );
    assert_eq!(
        health.shards_processed + health.shards_dropped + health.shards_quarantined(),
        health.shards_total,
        "every shard must be processed, dropped, or quarantined: {context}"
    );
}

#[test]
fn zero_rate_lenient_is_bit_identical_to_strict() {
    for seed in SEEDS {
        let (strict, _, _) = pipeline(seed).run().unwrap();
        for threads in THREADS {
            let (lenient, _, health) = pipeline(seed).threads(threads).lenient().run().unwrap();
            assert_eq!(
                lenient.input(),
                strict.input(),
                "lenient@rate0 diverged from strict at seed {seed}, {threads} threads"
            );
            assert_eq!(
                format!("{:?}", lenient.table1()),
                format!("{:?}", strict.table1()),
                "table 1 diverged at seed {seed}, {threads} threads"
            );
            assert!(health.is_clean(), "clean run reported loss: {health}");
            assert_eq!(health.shards_processed, health.shards_total);
            assert_eq!(health.ledger, FaultLedger::default());
            assert!((health.coverage() - 1.0).abs() < f64::EPSILON);
        }
    }
}

#[test]
fn strict_mode_is_backward_compatible_with_health_reporting() {
    let (study, _, health) = pipeline(7).run().unwrap();
    assert_eq!(study.input(), pipeline(7).run().unwrap().0.input());
    assert_eq!(health.strictness, Strictness::Strict);
    assert!(
        health.is_clean(),
        "strict clean run must have a clean bill: {health}"
    );
    assert!(health.lines_seen > 0);
}

#[test]
fn injected_runs_complete_with_exact_accounting() {
    for rate in RATES {
        let spec = FaultSpec::uniform(rate);
        for seed in SEEDS {
            let oracle = external_ledger(seed, &spec);
            let mut baseline: Option<RunHealth> = None;
            for threads in THREADS {
                let (study, _, health) = pipeline(seed)
                    .threads(threads)
                    .lenient()
                    .faults(spec.clone())
                    .run()
                    .unwrap();
                let context = format!("rate {rate}, seed {seed}, {threads} threads");
                assert_exact_accounting(&health, &context);
                assert_eq!(
                    health.ledger, oracle,
                    "pipeline ledger diverged from external replay: {context}"
                );
                assert!(
                    health.quarantined.is_empty(),
                    "uniform corruption must never quarantine: {context}"
                );
                assert!(study.input().lines_seen_sanity(), "{context}");
                match &baseline {
                    None => baseline = Some(health),
                    Some(first) => {
                        assert_eq!(&health, first, "health diverged across threads: {context}");
                    }
                }
            }
            // Faults are keyed by shard index, so the ledger — and the
            // exact-accounting contract — is invariant under chunking.
            let (_, _, chunked) = pipeline(seed)
                .threads(2)
                .chunk_systems(7)
                .lenient()
                .faults(spec.clone())
                .run()
                .unwrap();
            let context = format!("rate {rate}, seed {seed}, chunk_systems(7)");
            assert_exact_accounting(&chunked, &context);
            assert_eq!(
                chunked.ledger, oracle,
                "chunked ledger diverged from replay: {context}"
            );
            let auto = baseline.expect("threads loop ran");
            assert_eq!(chunked.lines_seen, auto.lines_seen, "{context}");
            assert_eq!(chunked.shards_dropped, auto.shards_dropped, "{context}");
            assert_eq!(
                chunked.lines_skipped_total(),
                auto.lines_skipped_total(),
                "{context}"
            );
        }
    }
}

/// At a small injection rate the study's headline numbers barely move:
/// per-class total AFR shifts by well under half a percentage point.
#[test]
fn small_rate_keeps_afr_deltas_bounded() {
    let seed = 7;
    let (clean, _, _) = pipeline(seed).run().unwrap();
    let (dirty, _, health) = pipeline(seed)
        .lenient()
        .faults(FaultSpec::uniform(1e-4))
        .run()
        .unwrap();
    assert!(
        health.ledger.faults_landed() > 0,
        "rate 1e-4 should land at least one fault"
    );
    let clean_afr = clean.afr_by_class(true);
    let dirty_afr = dirty.afr_by_class(true);
    for (class, clean_breakdown) in &clean_afr {
        let dirty_breakdown = dirty_afr
            .get(class)
            .unwrap_or_else(|| panic!("class {class} vanished under 1e-4 injection"));
        let delta = (clean_breakdown.total_afr() - dirty_breakdown.total_afr()).abs();
        assert!(
            delta < 0.005,
            "class {class} AFR moved by {delta:.4} (clean {:.4}, dirty {:.4})",
            clean_breakdown.total_afr(),
            dirty_breakdown.total_afr(),
        );
    }
}

#[test]
fn panicking_shard_is_quarantined_without_killing_the_run() {
    let spec = FaultSpec {
        panic_shards: BTreeSet::from([2]),
        panic_once_shards: BTreeSet::from([5]),
        ..FaultSpec::none()
    };
    // One system per chunk pins quarantine to exactly the panicking shard;
    // the multi-system-chunk blast radius is covered in tests/chunking.rs.
    let (study, _, health) = pipeline(7)
        .threads(4)
        .chunk_systems(1)
        .lenient()
        .faults(spec)
        .run()
        .unwrap();

    // Shard 2 panicked, was retried, panicked again → quarantined.
    // Shard 5 panicked once, was retried → processed.
    assert_eq!(health.shards_retried, 2, "{health}");
    assert_eq!(health.shards_quarantined(), 1, "{health}");
    assert_eq!(health.chunks_quarantined(), 1, "{health}");
    assert_eq!(health.chunks_processed, health.chunks_total - 1, "{health}");
    let q = &health.quarantined[0];
    assert_eq!(q.shards, 2..3);
    assert_eq!(q.systems_lost(), 1);
    assert_eq!(q.attempts, 2);
    assert!(
        q.reason.contains("deliberate worker panic on shard 2"),
        "quarantine must carry the panic message: {}",
        q.reason
    );
    // The loss is counted exactly: the quarantined shard's rendered lines.
    let p = pipeline(7);
    let fleet = p.build_fleet();
    let output = p.simulate(&fleet);
    let plan = ShardPlan::new(&fleet, &output);
    let lost_shard_lines = render_system_log(
        &fleet,
        &output,
        &plan,
        2,
        CascadeStyle::RaidOnly,
        NoiseParams::none(),
        7,
    )
    .len() as u64;
    assert_eq!(q.lines_lost, Some(lost_shard_lines), "{health}");
    assert_eq!(health.lines_lost(), Some(lost_shard_lines));
    assert_eq!(health.shards_processed, health.shards_total - 1);
    // The quarantined system is the only one missing from the merge.
    assert_eq!(
        study.input().topology.systems.len(),
        health.shards_total - 1
    );
    assert!(!study.input().topology.systems.contains_key(&q.systems[0]));
}

#[test]
fn strict_mode_worker_error_carries_the_panic_message() {
    let spec = FaultSpec {
        panic_shards: BTreeSet::from([0]),
        ..FaultSpec::none()
    };
    let err = pipeline(7).threads(2).faults(spec).run().unwrap_err();
    match err {
        PipelineError::Worker { what } => {
            assert!(
                what.contains("deliberate worker panic on shard 0"),
                "worker error lost the panic payload: {what}"
            );
            assert!(
                what.contains("sys-"),
                "worker error should name the system: {what}"
            );
        }
        other => panic!("expected PipelineError::Worker, got {other:?}"),
    }
}

/// Helper trait-less sanity shim so the exactness test reads naturally.
trait InputSanity {
    fn lines_seen_sanity(&self) -> bool;
}

impl InputSanity for ssfa::logs::AnalysisInput {
    fn lines_seen_sanity(&self) -> bool {
        // A completed degraded run still recovers a non-trivial study.
        !self.lifetimes.is_empty() && !self.topology.systems.is_empty()
    }
}
