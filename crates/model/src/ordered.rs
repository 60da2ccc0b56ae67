//! [`run_ordered`]: the workspace's one batch pool, for independent items
//! whose results must be consumed in index order.
//!
//! Workers claim item indices from a shared counter, so a slow item never
//! strands the others behind a static split, and the caller consumes the
//! results in index order whatever order the workers finish in. The
//! simulator (chunks of systems), the corpus writer (segment files) and
//! the pipeline engine (chunks of shards) run on it. With the
//! `model-check` feature, [`Claims`] runs over `ssfa-loom` atomics, so
//! `tests/model_check.rs` explores every schedule of the claim code this
//! pool runs.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The atomic counter [`Claims`] is built on: `std`'s `AtomicUsize` in
/// production and, with the `model-check` feature, `ssfa-loom`'s. Every
/// operation is `Relaxed` (see [`Claims`] for why that suffices).
pub trait Counter: Sync {
    /// A counter holding `v`.
    fn new(v: usize) -> Self;
    /// Adds `n`, returning the previous value.
    fn fetch_add(&self, n: usize) -> usize;
    /// Stores the minimum of the value and `v`.
    fn fetch_min(&self, v: usize);
    /// Reads the value.
    fn load(&self) -> usize;
}

impl Counter for AtomicUsize {
    fn new(v: usize) -> Self {
        AtomicUsize::new(v)
    }
    fn fetch_add(&self, n: usize) -> usize {
        self.fetch_add(n, Ordering::Relaxed)
    }
    fn fetch_min(&self, v: usize) {
        self.fetch_min(v, Ordering::Relaxed);
    }
    fn load(&self) -> usize {
        self.load(Ordering::Relaxed)
    }
}

#[cfg(feature = "model-check")]
impl Counter for ssfa_loom::sync::atomic::AtomicUsize {
    fn new(v: usize) -> Self {
        ssfa_loom::sync::atomic::AtomicUsize::new(v)
    }
    fn fetch_add(&self, n: usize) -> usize {
        self.fetch_add(n, Ordering::Relaxed)
    }
    fn fetch_min(&self, v: usize) {
        self.fetch_min(v, Ordering::Relaxed);
    }
    fn load(&self) -> usize {
        self.load(Ordering::Relaxed)
    }
}

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
pub struct Claims<A = AtomicUsize> {
    n: usize,
    next: A,
    failed: A,
}

impl<A: Counter> Claims<A> {
    /// Claims over the indices `0..n`.
    pub fn new(n: usize) -> Claims<A> {
        Claims {
            n,
            next: A::new(0),
            failed: A::new(usize::MAX),
        }
    }

    /// The next unclaimed index, or `None` once all are claimed or the
    /// index lies above a recorded failure.
    pub fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1);
        (i < self.n && i < self.failed.load()).then_some(i)
    }

    /// Records that item `i` failed.
    pub fn fail(&self, i: usize) {
        self.failed.fetch_min(i);
    }

    /// One worker's share: claims and runs items until none is left, and
    /// returns each with its index, in the order this worker ran them.
    pub fn work<T, E>(&self, f: &impl Fn(usize) -> Result<T, E>) -> Vec<(usize, Result<T, E>)> {
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

    /// A claim path with a lost update, kept only to prove the model
    /// checker catches one: the counter is read, then bumped, so two
    /// workers between the read and the bump claim the same index.
    #[cfg(any(test, feature = "model-check"))]
    pub fn claim_lost_update(&self) -> Option<usize> {
        let i = self.next.load();
        self.next.fetch_add(1);
        (i < self.n && i < self.failed.load()).then_some(i)
    }
}

/// Sorts the workers' `done` items by index and hands each result to
/// `consume` in that order, stopping at the first failed item or the
/// first `consume` error and returning that error.
///
/// Every index below the lowest failure was processed (see [`Claims`]),
/// so the items consumed are exactly `0..k` for the lowest failed `k`,
/// and the error returned is item `k`'s.
pub fn deliver_in_order<T, E>(
    mut done: Vec<(usize, Result<T, E>)>,
    mut consume: impl FnMut(usize, T) -> Result<(), E>,
) -> Result<(), E> {
    done.sort_unstable_by_key(|(i, _)| *i);
    for (i, result) in done {
        consume(i, result?)?;
    }
    Ok(())
}

/// Runs `f(0)`, …, `f(n - 1)` on up to `threads` workers and hands each
/// result, in index order, to `consume(index, result)`.
///
/// Each worker is a spawned thread that claims indices from a shared
/// counter. The calling thread runs no item: it joins the workers, then
/// consumes the results in index order. (With the calling thread as one
/// of the workers, the engine's scale-1.0 chunk pass on 2 threads took
/// 0.71 s against 0.68 s on a 2-core host.)
/// If an item fails, the items below it are consumed and the lowest
/// failed index's error is returned, the same error a serial loop
/// stopping at its first failure returns; after a failure workers claim
/// no item above it, but finish the items they hold. A `consume` error
/// stops the consumption and is returned.
///
/// # Errors
///
/// The error of the lowest failed item, or the first `consume` error.
///
/// # Panics
///
/// Panics if `threads` is zero, and re-raises a panic from `f`.
pub fn run_ordered<T, E, F>(
    n: usize,
    threads: usize,
    f: F,
    consume: impl FnMut(usize, T) -> Result<(), E>,
) -> Result<(), E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    assert!(threads > 0, "need at least one worker thread");
    let claims = Claims::<AtomicUsize>::new(n);
    let workers = threads.min(n);
    #[expect(
        clippy::disallowed_methods,
        reason = "the ordered worker pool; items are claimed by index and consumed in index order"
    )]
    let done = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| scope.spawn(|| claims.work(&f)))
            .collect();
        let mut done = Vec::new();
        for handle in handles {
            match handle.join() {
                Ok(mine) => done.extend(mine),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    deliver_in_order(done, consume)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `run_ordered` collecting every result, as the simulator does.
    fn collect<T: Send, E: Send>(
        n: usize,
        threads: usize,
        f: impl Fn(usize) -> Result<T, E> + Sync,
    ) -> Result<Vec<T>, E> {
        let mut out = Vec::with_capacity(n);
        run_ordered(n, threads, f, |i, value| {
            assert_eq!(i, out.len(), "consumed out of order");
            out.push(value);
            Ok(())
        })?;
        Ok(out)
    }

    #[test]
    fn results_come_back_in_index_order_for_any_worker_count() {
        for threads in [1, 2, 3, 8] {
            for n in [0, 1, 5, 64, 129] {
                let out = collect(n, threads, |i| Ok::<_, ()>(i * i)).unwrap();
                assert_eq!(
                    out,
                    (0..n).map(|i| i * i).collect::<Vec<_>>(),
                    "{n} items on {threads} threads"
                );
            }
        }
    }

    #[test]
    fn delivery_sorts_the_workers_results_by_index() {
        // Two workers' lists, concatenated in join order.
        let done = vec![(2, Ok('c')), (0, Ok('a')), (3, Ok('d')), (1, Ok('b'))];
        let mut seen = Vec::new();
        deliver_in_order(done, |i, value| {
            seen.push((i, value));
            Ok::<_, ()>(())
        })
        .unwrap();
        assert_eq!(seen, [(0, 'a'), (1, 'b'), (2, 'c'), (3, 'd')]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let runs: Vec<AtomicUsize> = (0..200).map(|_| AtomicUsize::new(0)).collect();
        collect(runs.len(), 4, |i| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            Ok::<_, ()>(())
        })
        .unwrap();
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn the_lowest_failed_index_wins_and_only_items_below_it_are_consumed() {
        for threads in [1, 2, 4] {
            let mut consumed = Vec::new();
            let err = run_ordered(
                100,
                threads,
                |i| {
                    if i % 17 == 5 || i == 90 {
                        Err(i)
                    } else {
                        Ok(i)
                    }
                },
                |i, _| {
                    consumed.push(i);
                    Ok(())
                },
            )
            .unwrap_err();
            assert_eq!(err, 5, "{threads} threads");
            assert_eq!(consumed, [0, 1, 2, 3, 4], "{threads} threads");
        }
    }

    #[test]
    fn a_consumer_error_stops_consumption_and_is_returned() {
        for threads in [1, 3] {
            let mut consumed = Vec::new();
            let err = run_ordered(20, threads, Ok, |i, _| {
                consumed.push(i);
                if i == 6 {
                    Err("consumer")
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
            assert_eq!(err, "consumer");
            assert_eq!(consumed, (0..=6).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn no_item_above_a_recorded_failure_is_claimed() {
        let claims = Claims::<AtomicUsize>::new(10);
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
        let claims = Claims::<AtomicUsize>::new(10);
        claims.next.store(1, Ordering::Relaxed);
        claims.fail(2);
        assert_eq!(claims.claim(), Some(1));
        assert_eq!(claims.claim(), None);
    }

    #[test]
    fn zero_items_are_exhausted_at_once() {
        let claims = Claims::<AtomicUsize>::new(0);
        assert_eq!(claims.claim(), None);
        assert!(claims.work(&|_| Ok::<_, ()>(())).is_empty());
    }

    #[test]
    fn the_lost_update_claim_is_correct_on_one_thread() {
        // Serially the lost update cannot bite; `tests/model_check.rs`
        // proves it bites under interleaving.
        let claims = Claims::<AtomicUsize>::new(3);
        let seen: Vec<_> = std::iter::from_fn(|| claims.claim_lost_update()).collect();
        assert_eq!(seen, [0, 1, 2]);
    }

    #[test]
    fn a_serial_run_stops_at_its_first_failure() {
        let ran = AtomicUsize::new(0);
        let err = collect(10, 1, |i| {
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
        let _ = collect(20, 2, |i| {
            assert_ne!(i, 7, "item 7");
            Ok::<_, ()>(())
        });
    }

    #[test]
    #[should_panic(expected = "worker thread")]
    fn zero_threads_panics() {
        let _ = collect(1, 0, |_| Ok::<_, ()>(()));
    }
}
