//! Exhaustive schedule exploration of the ordered worker pool's claims
//! (`ssfa::model::Claims`) on the vendored loom stand-in.
//!
//! Run with: `cargo test --features model-check --test model_check`
//!
//! These tests compile the *same* `Claims` claim/fail/work code that
//! `ssfa_model::run_ordered` runs for the simulator, the corpus writer and
//! the pipeline engine, but over `ssfa_loom` atomics, and then explore
//! every interleaving of the workers' atomic operations. The joined
//! results go through the same `deliver_in_order` the pool calls. The
//! invariants are the ones the pool promises:
//!
//! - every index is claimed by exactly one worker (no lost or duplicated
//!   item — the engine grid's thread-count invariance assumes this);
//! - after a failure no item runs twice, every item below the failure
//!   runs, and the error delivered is the lowest failed item's, after
//!   exactly the items below it were consumed (the rule that keeps a
//!   strict run's earlier checkpoint epochs durable).
//!
//! Per-worker results travel back through `JoinHandle` return values
//! (exactly like `run_ordered`'s per-worker lists) rather than a shared
//! ledger, so the explored tree is precisely the claims' own atomic
//! operations — small enough to exhaust, large enough to mean something.

#![cfg(feature = "model-check")]

use ssfa::model::{deliver_in_order, Claims};
use ssfa_loom as loom;
use std::sync::Arc;

type LoomClaims = Claims<loom::sync::atomic::AtomicUsize>;

/// High enough to exhaust every tree below; the assertions on
/// `report.complete` prove the bound was never the reason a test passed.
const SCHEDULE_BOUND: usize = 200_000;

fn builder() -> loom::Builder {
    loom::Builder {
        max_schedules: SCHEDULE_BOUND,
        ..loom::Builder::default()
    }
}

/// Runs `workers` virtual threads of `Claims::work` over `items` items
/// that fail exactly at `failing`, joins them, and returns how often each
/// item ran together with the delivery's outcome: the indices consumed,
/// in order, and the error returned.
fn run_pool(
    workers: usize,
    items: usize,
    failing: Option<usize>,
) -> (Vec<u32>, Vec<usize>, Result<(), usize>) {
    let claims = Arc::new(LoomClaims::new(items));
    let handles: Vec<_> = (0..workers)
        .map(|_| {
            let claims = Arc::clone(&claims);
            loom::thread::spawn(move || {
                claims.work(&|i| if Some(i) == failing { Err(i) } else { Ok(i) })
            })
        })
        .collect();
    let mut done = Vec::new();
    for h in handles {
        done.extend(h.join().unwrap());
    }
    let mut runs = vec![0u32; items];
    for (i, _) in &done {
        runs[*i] += 1;
    }
    let mut consumed = Vec::new();
    let delivered = deliver_in_order(done, |i, _| {
        consumed.push(i);
        Ok(())
    });
    (runs, consumed, delivered)
}

#[test]
fn every_index_claimed_exactly_once_across_all_schedules() {
    let report = builder().check(|| {
        let (runs, consumed, delivered) = run_pool(2, 3, None);
        assert!(
            runs.iter().all(|&n| n == 1),
            "lost or duplicated item: runs={runs:?}"
        );
        assert_eq!(consumed, [0, 1, 2], "consumed out of index order");
        assert_eq!(delivered, Ok(()));
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(
        report.complete,
        "schedule bound hit before exhausting the tree ({} schedules)",
        report.schedules
    );
    assert!(
        report.schedules >= 2,
        "2 workers x 3 items must branch, got {} schedule(s)",
        report.schedules
    );
}

#[test]
fn injected_lost_update_bug_is_caught() {
    // The deliberately broken claim path (a read, then a separate bump,
    // in `claim_lost_update`) must be caught: some interleaving hands the
    // same item to both workers.
    const WORKERS: usize = 2;
    const ITEMS: usize = 3;
    let report = builder().check(|| {
        let claims = Arc::new(LoomClaims::new(ITEMS));
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                let claims = Arc::clone(&claims);
                loom::thread::spawn(move || {
                    std::iter::from_fn(|| claims.claim_lost_update()).collect::<Vec<_>>()
                })
            })
            .collect();
        let mut runs = vec![0u32; ITEMS];
        for h in handles {
            for i in h.join().unwrap() {
                runs[i] += 1;
            }
        }
        assert!(
            runs.iter().all(|&n| n == 1),
            "lost or duplicated item: runs={runs:?}"
        );
    });
    let failure = report
        .failure
        .expect("the racy claim path must produce a duplicated or lost item");
    assert!(
        failure.message.contains("lost or duplicated item"),
        "unexpected failure: {}",
        failure.message
    );
    assert!(
        !failure.schedule.is_empty(),
        "failing schedule must be reported for replay"
    );
}

#[test]
fn a_failure_never_double_runs_and_delivers_the_lowest_error() {
    // Item 1 fails (a strict-mode chunk error). Whatever the schedule: no
    // item runs twice (so a chunk can never be quarantined twice), items
    // 0 and 1 run exactly once, item 2 runs at most once (a worker may
    // have claimed it before the failure was recorded), and delivery
    // consumes item 0 alone before returning item 1's error.
    const FAILING: usize = 1;
    let report = builder().check(|| {
        let (runs, consumed, delivered) = run_pool(2, 3, Some(FAILING));
        assert!(runs.iter().all(|&n| n <= 1), "item ran twice: {runs:?}");
        assert_eq!(
            runs[..=FAILING],
            [1, 1],
            "every item up to the failure runs: {runs:?}"
        );
        assert_eq!(
            consumed,
            [0],
            "only the items below the failure are consumed"
        );
        assert_eq!(delivered, Err(FAILING), "the lowest failed item's error");
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(
        report.complete,
        "schedule bound hit before exhausting the tree ({} schedules)",
        report.schedules
    );
}

#[test]
fn three_workers_bounded_preemption_no_loss() {
    // Widen to 3 virtual threads over 3 items. The fully exhaustive tree
    // here runs past 500k schedules, so this test is *bounded*, not
    // exhaustive: at most 2 preemptive switches per execution (loom's own
    // escape hatch for wider thread counts — any bug reachable with <= 2
    // preemptions is still caught, and the single fetch_add claim point
    // can only race within one preemption). The 2-worker tests above
    // remain fully exhaustive.
    let report = loom::Builder {
        max_schedules: SCHEDULE_BOUND,
        preemption_bound: Some(2),
    }
    .check(|| {
        let (runs, consumed, delivered) = run_pool(3, 3, None);
        assert!(
            runs.iter().all(|&n| n == 1),
            "lost or duplicated item: runs={runs:?}"
        );
        assert_eq!(consumed, [0, 1, 2], "consumed out of index order");
        assert_eq!(delivered, Ok(()));
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(
        report.complete,
        "schedule bound hit before exhausting the bounded tree ({} schedules)",
        report.schedules
    );
}
