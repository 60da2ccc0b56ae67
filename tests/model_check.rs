//! Exhaustive schedule exploration of the ordered worker pool
//! (`ssfa::model::Pool`) on the vendored loom stand-in.
//!
//! Run with: `cargo test --features model-check --test model_check`
//!
//! These tests compile the *same* `Pool` code that
//! `ssfa_model::run_ordered` runs for the simulator, the corpus writer and
//! the pipeline engine — the `Claims` claim/fail code, the workers' window
//! wait and deposit, and the consumer's in-order take from the reorder
//! buffer — but over `ssfa_loom`'s atomics, mutex and condition variable,
//! and then explore every interleaving of the workers' and the consumer's
//! sync operations. The invariants are the ones the pool promises:
//!
//! - every item is consumed exactly once, in index order (no lost or
//!   duplicated item — the engine grid's thread-count invariance assumes
//!   this), and no item runs twice;
//! - after a failure every item below it runs and is consumed, and the
//!   error returned is the lowest failed item's (the rule that keeps a
//!   strict run's earlier checkpoint epochs durable);
//! - a consumer error stops the workers and is returned;
//! - no schedule ends with every thread blocked: the worker holding the
//!   lowest undelivered index never waits for the window.
//!
//! The root virtual thread is the consumer, as the calling thread is in
//! `run_ordered`; two spawned virtual threads are the workers. Item runs
//! are tallied in plain `std` atomics, which are not yield points, so the
//! explored tree is precisely the pool's own sync operations.
//!
//! Three threads of 2 workers × 3 items make a tree too large to exhaust
//! outright (one variant already runs past 300,000 schedules at four
//! preemptions), so each pool tree is exhausted within [`PREEMPTIONS`]
//! preemptive switches per schedule, the bound loom's own
//! `LOOM_MAX_PREEMPTIONS` sets. Switches forced by a thread blocking on
//! the mutex or parking on the condition variable are free, so every
//! blocking order is explored.
//!
//! The claim protocol alone (`Claims::claim` and `Claims::fail`, the only
//! code the workers race on outside the mutex) is small enough to exhaust
//! outright: 2 workers × 3 items, clean and with item 1 failing, with no
//! preemption bound, and 3 workers × 3 items within two preemptions.

#![cfg(feature = "model-check")]

use ssfa::model::{Buffer, Claims, Pool};
use ssfa_loom as loom;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

type LoomAtomic = loom::sync::atomic::AtomicUsize;
type LoomPool = Pool<(loom::sync::Mutex<Buffer<usize, usize>>, loom::sync::Condvar), LoomAtomic>;

/// High enough to exhaust every tree below; the assertions on
/// `report.complete` prove the bound was never the reason a test passed.
const SCHEDULE_BOUND: usize = 200_000;

/// Preemptive switches per schedule: every pool tree below is exhausted
/// at this bound (about 15,000–53,000 schedules each).
const PREEMPTIONS: usize = 3;

const WORKERS: usize = 2;
const ITEMS: usize = 3;

/// The consumer's error, told apart from an item's by this offset.
const CONSUMER_ERROR: usize = 100;

fn builder() -> loom::Builder {
    loom::Builder {
        max_schedules: SCHEDULE_BOUND,
        ..loom::Builder::default()
    }
}

/// What one schedule of the pool did.
struct Outcome {
    /// How often each item ran.
    runs: Vec<u32>,
    /// The indices consumed, in consumption order.
    consumed: Vec<usize>,
    /// What the consumer returned.
    result: Result<(), usize>,
}

/// Runs `workers` virtual threads of `Pool::work` over `ITEMS` items with
/// a window of `window`, item `failing` returning its index as its error,
/// and the consumer on the root thread returning `CONSUMER_ERROR + i` at
/// item `consumer_fails`; then joins the workers.
fn run_pool(
    workers: usize,
    window: usize,
    failing: Option<usize>,
    consumer_fails: Option<usize>,
) -> Outcome {
    let pool = Arc::new(LoomPool::new(ITEMS, window));
    let runs: Arc<Vec<AtomicU32>> = Arc::new((0..ITEMS).map(|_| AtomicU32::new(0)).collect());
    let handles: Vec<_> = (0..workers)
        .map(|_| {
            let pool = Arc::clone(&pool);
            let runs = Arc::clone(&runs);
            loom::thread::spawn(move || {
                pool.work(&|i| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    if Some(i) == failing {
                        Err(i)
                    } else {
                        Ok(i)
                    }
                });
            })
        })
        .collect();
    let mut consumed = Vec::new();
    let result = pool.consume(|i, value| {
        assert_eq!(value, i, "item {i} consumed another item's result");
        consumed.push(i);
        if Some(i) == consumer_fails {
            Err(CONSUMER_ERROR + i)
        } else {
            Ok(())
        }
    });
    for h in handles {
        h.join().unwrap();
    }
    Outcome {
        runs: runs.iter().map(|r| r.load(Ordering::Relaxed)).collect(),
        consumed,
        result,
    }
}

/// Exhausts the pool's schedules within [`PREEMPTIONS`] at windows 1 and
/// 2 and checks every outcome; a schedule that deadlocks fails the
/// exploration.
fn exhaust(failing: Option<usize>, consumer_fails: Option<usize>, check: fn(&Outcome)) {
    for window in [1, 2] {
        let report = loom::Builder {
            preemption_bound: Some(PREEMPTIONS),
            ..builder()
        }
        .check(move || {
            check(&run_pool(WORKERS, window, failing, consumer_fails));
        });
        assert_exhausted(
            &report,
            &format!("{WORKERS} workers x {ITEMS} items, window {window}"),
        );
    }
}

#[test]
fn every_item_is_consumed_once_in_index_order_across_all_schedules() {
    exhaust(None, None, |outcome| {
        assert!(
            outcome.runs.iter().all(|&n| n == 1),
            "lost or duplicated item: runs={:?}",
            outcome.runs
        );
        assert_eq!(outcome.consumed, [0, 1, 2], "consumed out of index order");
        assert_eq!(outcome.result, Ok(()));
    });
}

#[test]
fn a_failure_never_double_runs_and_returns_the_lowest_error() {
    // Item 1 fails (a strict-mode chunk error). Whatever the schedule: no
    // item runs twice (so a chunk can never be quarantined twice), items
    // 0 and 1 run exactly once, item 2 runs at most once (a worker may
    // have claimed it before the failure was recorded), and the consumer
    // takes item 0 alone before returning item 1's error.
    exhaust(Some(1), None, |outcome| {
        assert!(
            outcome.runs.iter().all(|&n| n <= 1),
            "item ran twice: {:?}",
            outcome.runs
        );
        assert_eq!(
            outcome.runs[..=1],
            [1, 1],
            "every item up to the failure runs: {:?}",
            outcome.runs
        );
        assert_eq!(
            outcome.consumed,
            [0],
            "only the items below the failure are consumed"
        );
        assert_eq!(outcome.result, Err(1), "the lowest failed item's error");
    });
}

#[test]
fn a_consumer_error_stops_the_workers_and_is_returned() {
    // The consumer fails at item 1 (a checkpoint write error). The workers
    // parked at the window edge must wake and exit, or the root's joins
    // deadlock; no item runs twice and none past 1 is consumed.
    exhaust(None, Some(1), |outcome| {
        assert!(
            outcome.runs.iter().all(|&n| n <= 1),
            "item ran twice: {:?}",
            outcome.runs
        );
        assert_eq!(outcome.consumed, [0, 1], "consumption stops at the error");
        assert_eq!(outcome.result, Err(CONSUMER_ERROR + 1));
    });
}

#[test]
fn a_window_that_parks_the_lowest_worker_is_a_deadlock() {
    // Canary: at a window of zero the check `i < delivered + window` also
    // parks the worker holding the lowest undelivered index, so nothing is
    // ever deposited and every thread ends up blocked. The checker must
    // report it rather than hang or pass.
    let report = builder().check(|| {
        run_pool(WORKERS, 0, None, None);
    });
    let failure = report
        .failure
        .expect("a window that parks every worker must deadlock");
    assert!(
        failure.message.contains("deadlock"),
        "unexpected failure: {}",
        failure.message
    );
}

/// Runs `workers` virtual threads that take indices from one
/// `Claims` over `ITEMS` items through `claim` until it returns `None`,
/// recording a failure at item `failing` as a pool worker does, and
/// returns how often each index was claimed.
fn run_claims(
    workers: usize,
    failing: Option<usize>,
    claim: fn(&Claims<LoomAtomic>) -> Option<usize>,
) -> Vec<u32> {
    let claims = Arc::new(Claims::<LoomAtomic>::new(ITEMS));
    let handles: Vec<_> = (0..workers)
        .map(|_| {
            let claims = Arc::clone(&claims);
            loom::thread::spawn(move || {
                std::iter::from_fn(|| {
                    let i = claim(&claims)?;
                    if Some(i) == failing {
                        claims.fail(i);
                    }
                    Some(i)
                })
                .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut claimed = vec![0u32; ITEMS];
    for h in handles {
        for i in h.join().unwrap() {
            claimed[i] += 1;
        }
    }
    claimed
}

/// Asserts that `report` found no failure and exhausted its tree.
fn assert_exhausted(report: &loom::Report, tree: &str) {
    assert!(report.failure.is_none(), "{tree}: {:?}", report.failure);
    assert!(
        report.complete,
        "{tree}: schedule bound hit before exhausting the tree ({} schedules)",
        report.schedules
    );
    assert!(
        report.schedules >= 2,
        "{tree}: must branch, got {} schedule(s)",
        report.schedules
    );
}

#[test]
fn every_index_claimed_exactly_once_across_all_schedules() {
    // The claim protocol alone, with no preemption bound: whatever the
    // interleaving of the two workers' claim atomics, each index goes to
    // exactly one of them.
    let report = builder().check(|| {
        let claimed = run_claims(WORKERS, None, Claims::claim);
        assert!(
            claimed.iter().all(|&n| n == 1),
            "lost or duplicated item: claimed={claimed:?}"
        );
    });
    assert_exhausted(&report, "2 workers x 3 items, claims only");
}

#[test]
fn a_failure_never_double_claims_and_every_index_up_to_it_is_claimed() {
    // Item 1 fails, with no preemption bound: no index is claimed twice
    // (so no item past the failure runs twice), and items 0 and 1 are
    // each claimed exactly once, so the lowest failure is item 1 on every
    // schedule. Item 2 is claimed at most once: a worker may take it
    // before the failure is recorded.
    let report = builder().check(|| {
        let claimed = run_claims(WORKERS, Some(1), Claims::claim);
        assert!(
            claimed.iter().all(|&n| n <= 1),
            "index claimed twice: {claimed:?}"
        );
        assert_eq!(
            claimed[..=1],
            [1, 1],
            "every index up to the failure is claimed: {claimed:?}"
        );
    });
    assert_exhausted(&report, "2 workers x 3 items, item 1 failing, claims only");
}

#[test]
fn three_workers_bounded_preemption_no_loss() {
    // Three workers over the claim protocol. The unbounded tree runs past
    // 500,000 schedules, so this one is bounded at two preemptive switches
    // per schedule: a race on the single `fetch_add` claim point needs
    // only one.
    let report = loom::Builder {
        preemption_bound: Some(2),
        ..builder()
    }
    .check(|| {
        let claimed = run_claims(3, None, Claims::claim);
        assert!(
            claimed.iter().all(|&n| n == 1),
            "lost or duplicated item: claimed={claimed:?}"
        );
    });
    assert_exhausted(&report, "3 workers x 3 items, claims only");
}

#[test]
fn injected_lost_update_bug_is_caught() {
    // The deliberately broken claim path (a read, then a separate bump,
    // in `claim_lost_update`) must be caught: some interleaving hands the
    // same item to both workers.
    let report = builder().check(|| {
        let claimed = run_claims(WORKERS, None, Claims::claim_lost_update);
        assert!(
            claimed.iter().all(|&n| n == 1),
            "lost or duplicated item: claimed={claimed:?}"
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
