//! [`run_ordered`]: the workspace's one pool for independent items whose
//! results must come back in index order.
//!
//! Workers claim item indices from a shared counter, so a slow item never
//! strands the others behind a static split, and the caller gets the
//! results in index order whatever order the workers finish in. The
//! simulator (chunks of systems) and the corpus writer (segment files) use
//! it; the pipeline engine keeps its own model-checked chunk queue.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The claim counter and the lowest failed index of one [`run_ordered`]
/// call.
///
/// Every index below the lowest failure is processed: indices are claimed
/// in increasing order, and a claim is refused only when it lies above a
/// failure already recorded. So the lowest failed index, and with it the
/// returned error, is the one a serial run stops at, whatever the
/// schedule. Both counters are `Relaxed`: a worker that sees a failure
/// late only processes an item it could have skipped.
#[derive(Debug)]
struct Claims {
    n: usize,
    next: AtomicUsize,
    failed: AtomicUsize,
}

impl Claims {
    fn new(n: usize) -> Claims {
        Claims {
            n,
            next: AtomicUsize::new(0),
            failed: AtomicUsize::new(usize::MAX),
        }
    }

    /// The next unclaimed index, or `None` once all are claimed or the
    /// index lies above a recorded failure.
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.n && i < self.failed.load(Ordering::Relaxed)).then_some(i)
    }

    /// Records that item `i` failed.
    fn fail(&self, i: usize) {
        self.failed.fetch_min(i, Ordering::Relaxed);
    }

    /// One worker's share: claims and runs items until none is left.
    fn work<T, E>(&self, f: &impl Fn(usize) -> Result<T, E>) -> Vec<(usize, Result<T, E>)> {
        let mut done = Vec::new();
        while let Some(i) = self.claim() {
            let result = f(i);
            if result.is_err() {
                self.fail(i);
            }
            done.push((i, result));
        }
        done
    }
}

/// Runs `f(0)`, …, `f(n - 1)` on up to `threads` workers and returns the
/// results in index order.
///
/// Workers claim indices from a shared counter; the calling thread is one
/// of them, so one worker (or one item) spawns no thread. If any item
/// fails, the error of the lowest failed index is returned, the same error
/// a serial loop stopping at its first failure returns; after a failure
/// workers claim no item above it, but finish the items they hold.
///
/// # Panics
///
/// Panics if `threads` is zero, and re-raises a panic from `f`.
pub fn run_ordered<T, E, F>(n: usize, threads: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    assert!(threads > 0, "need at least one worker thread");
    let claims = Claims::new(n);
    let workers = threads.min(n);
    #[expect(
        clippy::disallowed_methods,
        reason = "the ordered worker pool; items are claimed by index and results returned in index order"
    )]
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers)
            .map(|_| scope.spawn(|| claims.work(&f)))
            .collect();
        let mut done = claims.work(&f);
        for handle in helpers {
            match handle.join() {
                Ok(mine) => done.extend(mine),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    done.sort_unstable_by_key(|(i, _)| *i);
    // Every index below the lowest failure was processed (see `Claims`),
    // so the first error in index order is the lowest one.
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_for_any_worker_count() {
        for threads in [1, 2, 3, 8] {
            for n in [0, 1, 5, 64, 129] {
                let out = run_ordered(n, threads, |i| Ok::<_, ()>(i * i)).unwrap();
                assert_eq!(
                    out,
                    (0..n).map(|i| i * i).collect::<Vec<_>>(),
                    "{n} items on {threads} threads"
                );
            }
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let runs: Vec<AtomicUsize> = (0..200).map(|_| AtomicUsize::new(0)).collect();
        run_ordered(runs.len(), 4, |i| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            Ok::<_, ()>(())
        })
        .unwrap();
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn the_lowest_failed_index_wins_for_any_worker_count() {
        for threads in [1, 2, 4] {
            let err = run_ordered(100, threads, |i| {
                if i % 17 == 5 || i == 90 {
                    Err(i)
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
            assert_eq!(err, 5, "{threads} threads");
        }
    }

    #[test]
    fn no_item_above_a_recorded_failure_is_claimed() {
        let claims = Claims::new(10);
        assert_eq!(claims.claim(), Some(0));
        assert_eq!(claims.claim(), Some(1));
        assert_eq!(claims.claim(), Some(2));
        claims.fail(2);
        assert_eq!(claims.claim(), None, "index 3 lies above the failure");
        assert_eq!(claims.claim(), None);
    }

    #[test]
    fn an_index_claimed_below_a_later_failure_is_still_claimed() {
        // A worker that claimed index 1 before index 2 failed still holds
        // it; the claim check only refuses indices above the failure.
        let claims = Claims::new(10);
        claims.next.store(1, Ordering::Relaxed);
        claims.fail(2);
        assert_eq!(claims.claim(), Some(1));
        assert_eq!(claims.claim(), None);
    }

    #[test]
    fn a_serial_run_stops_at_its_first_failure() {
        let ran = AtomicUsize::new(0);
        let err = run_ordered(10, 1, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 3 {
                Err("three")
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(err, "three");
        assert_eq!(
            ran.load(Ordering::Relaxed),
            4,
            "items 0..=3 ran, none after"
        );
    }

    #[test]
    #[should_panic(expected = "item 7")]
    fn a_worker_panic_reaches_the_caller() {
        let _ = run_ordered(20, 2, |i| {
            assert_ne!(i, 7, "item 7");
            Ok::<_, ()>(())
        });
    }

    #[test]
    #[should_panic(expected = "worker thread")]
    fn zero_threads_panics() {
        let _ = run_ordered(1, 0, |_| Ok::<_, ()>(()));
    }
}
