//! [`run_ordered`]: the workspace's one batch pool, for independent items
//! whose results must be consumed in index order.
//!
//! Workers claim item indices from a shared counter, so a slow item never
//! strands the others behind a static split, and deposit each result in a
//! bounded reorder buffer. The calling thread consumes the buffer in index
//! order as results land, whatever order the workers finish in, so the
//! consumer runs while the workers do and at most about one window of
//! results is alive at once. The simulator (chunks of systems), the corpus
//! writer (segment files) and the pipeline engine (chunks of shards) run
//! on it. With the `model-check` feature, [`Pool`] also runs over
//! `ssfa-loom` atomics, mutex and condition variable, so
//! `tests/model_check.rs` explores the schedules of the code this pool
//! runs.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::DerefMut;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Results a [`run_ordered`] worker may run ahead of the consumer, per
/// worker: a worker does not start an item at or past `delivered +
/// WINDOW_PER_WORKER × workers`.
pub const WINDOW_PER_WORKER: usize = 4;

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

/// A mutex and the condition variable its waiters park on, which the
/// [`Pool`]'s reorder buffer lives behind: `std`'s pair in production
/// and, with the `model-check` feature, `ssfa-loom`'s. The pool waits and
/// notifies only with the mutex held, which `ssfa-loom`'s choice points
/// rely on.
pub trait Monitor: Sync {
    /// The state the mutex guards.
    type State;
    /// Holds the mutex while alive.
    type Guard<'a>: DerefMut<Target = Self::State>
    where
        Self: 'a;
    /// A monitor guarding `state`.
    fn new(state: Self::State) -> Self;
    /// Locks the mutex.
    fn lock(&self) -> Self::Guard<'_>;
    /// Unlocks the mutex, parks until notified, and locks it again.
    fn wait<'a>(&'a self, guard: Self::Guard<'a>) -> Self::Guard<'a>;
    /// Wakes every parked waiter.
    fn notify_all(&self);
}

/// No code runs under the lock that can panic, so a poisoned lock
/// cannot arise; recovering the guard keeps that from being an `unwrap`.
impl<S: Send> Monitor for (Mutex<S>, Condvar) {
    type State = S;
    type Guard<'a>
        = MutexGuard<'a, S>
    where
        Self: 'a;
    fn new(state: S) -> Self {
        (Mutex::new(state), Condvar::new())
    }
    fn lock(&self) -> MutexGuard<'_, S> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
    fn wait<'a>(&'a self, guard: MutexGuard<'a, S>) -> MutexGuard<'a, S> {
        self.1.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }
    fn notify_all(&self) {
        self.1.notify_all();
    }
}

#[cfg(feature = "model-check")]
impl<S: Send> Monitor for (ssfa_loom::sync::Mutex<S>, ssfa_loom::sync::Condvar) {
    type State = S;
    type Guard<'a>
        = ssfa_loom::sync::MutexGuard<'a, S>
    where
        Self: 'a;
    fn new(state: S) -> Self {
        (
            ssfa_loom::sync::Mutex::new(state),
            ssfa_loom::sync::Condvar::new(),
        )
    }
    fn lock(&self) -> ssfa_loom::sync::MutexGuard<'_, S> {
        self.0.lock().expect("a model mutex never poisons")
    }
    fn wait<'a>(
        &'a self,
        guard: ssfa_loom::sync::MutexGuard<'a, S>,
    ) -> ssfa_loom::sync::MutexGuard<'a, S> {
        self.1.wait(guard).expect("a model mutex never poisons")
    }
    fn notify_all(&self) {
        self.1.notify_all();
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

/// The reorder buffer a [`Pool`]'s workers deposit results in and its
/// consumer takes them from, in index order.
#[derive(Debug)]
pub struct Buffer<T, E> {
    /// Item `delivered + k`'s result, once deposited, at position `k`.
    ready: VecDeque<Option<Result<T, E>>>,
    /// The lowest index the consumer has not taken.
    delivered: usize,
    /// Set when the consumer stops early or an item panicked; workers
    /// start no further item.
    stopped: bool,
    /// The first item panic's payload, for the consumer to re-raise.
    panic: Option<Box<dyn Any + Send>>,
}

impl<T, E> Buffer<T, E> {
    fn new() -> Buffer<T, E> {
        Buffer {
            ready: VecDeque::new(),
            delivered: 0,
            stopped: false,
            panic: None,
        }
    }

    fn put(&mut self, i: usize, result: Result<T, E>) {
        let k = i - self.delivered;
        if self.ready.len() <= k {
            self.ready.resize_with(k + 1, || None);
        }
        self.ready[k] = Some(result);
    }

    /// Takes the lowest undelivered index's result, if it has landed.
    fn take_next(&mut self) -> Option<Result<T, E>> {
        let result = self.ready.front_mut()?.take()?;
        self.ready.pop_front();
        self.delivered += 1;
        Some(result)
    }
}

/// The shared state of one [`run_ordered`] call: the [`Claims`], the
/// reorder [`Buffer`] behind a [`Monitor`], and the window.
///
/// Workers run [`Pool::work`] and the calling thread runs
/// [`Pool::consume`]. A worker that claimed index `i` starts it only
/// once `i < delivered + window`, so at most `window` results wait in the
/// buffer or run, besides the one the consumer holds. The worker holding the lowest undelivered index never
/// waits (it lies inside any window of at least one), and it deposits
/// that index, which the consumer then takes, widening the window: so the
/// pool cannot deadlock. A window of zero parks that worker too, and the
/// pool deadlocks (the model check's canary builds one).
#[derive(Debug)]
pub struct Pool<M, A = AtomicUsize> {
    claims: Claims<A>,
    window: usize,
    buffer: M,
}

impl<T, E, A, M> Pool<M, A>
where
    A: Counter,
    M: Monitor<State = Buffer<T, E>>,
{
    /// A pool over the items `0..n` whose workers run at most `window`
    /// items ahead of the consumer.
    pub fn new(n: usize, window: usize) -> Pool<M, A> {
        Pool {
            claims: Claims::new(n),
            window,
            buffer: M::new(Buffer::new()),
        }
    }

    /// One worker's share: claims items and runs each once the window
    /// reaches it, depositing every result in the buffer, until no item
    /// is left or the pool stopped. A failed item is recorded in the
    /// claims, so no item above it is claimed; a panic in `f` stops the
    /// pool and leaves its payload for the consumer to re-raise.
    pub fn work(&self, f: &impl Fn(usize) -> Result<T, E>) {
        while let Some(i) = self.claims.claim() {
            let mut buffer = self.buffer.lock();
            while !buffer.stopped && i >= buffer.delivered + self.window {
                buffer = self.buffer.wait(buffer);
            }
            if buffer.stopped {
                return;
            }
            drop(buffer);
            let result = catch_unwind(AssertUnwindSafe(|| f(i)));
            if let Ok(Err(_)) = result {
                self.claims.fail(i);
            }
            let mut buffer = self.buffer.lock();
            match result {
                Ok(result) => buffer.put(i, result),
                Err(payload) => {
                    buffer.panic.get_or_insert(payload);
                    buffer.stopped = true;
                }
            }
            self.buffer.notify_all();
        }
    }

    /// The consumer: hands each result to `consume(index, value)` in
    /// index order as soon as it lands, stopping at the first failed item
    /// or the first `consume` error and returning that error. Either way
    /// the pool stops, so parked workers exit.
    ///
    /// Every index below the lowest failure is processed (see [`Claims`]),
    /// so the items consumed are exactly `0..k` for the lowest failed
    /// `k`, and the error returned is item `k`'s.
    ///
    /// # Errors
    ///
    /// The error of the lowest failed item, or the first `consume` error.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from an item that lands before it returns, or
    /// from `consume`. An item panic that lands after it returned stays in
    /// the buffer for [`Pool::take_panic`].
    pub fn consume(&self, mut consume: impl FnMut(usize, T) -> Result<(), E>) -> Result<(), E> {
        for i in 0..self.claims.n {
            let mut buffer = self.buffer.lock();
            let result = loop {
                if let Some(payload) = buffer.panic.take() {
                    drop(buffer);
                    resume_unwind(payload);
                }
                if let Some(result) = buffer.take_next() {
                    break result;
                }
                buffer = self.buffer.wait(buffer);
            };
            buffer.stopped |= result.is_err();
            self.buffer.notify_all();
            drop(buffer);
            let value = result?;
            match catch_unwind(AssertUnwindSafe(|| consume(i, value))) {
                Ok(Ok(())) => {}
                Ok(Err(error)) => {
                    self.stop(i);
                    return Err(error);
                }
                Err(payload) => {
                    self.stop(i);
                    resume_unwind(payload);
                }
            }
        }
        Ok(())
    }

    /// The payload of an item panic that [`Pool::consume`] did not
    /// re-raise: one in an item above the returned error that landed after
    /// the consumer returned. Call it once the workers have joined.
    pub fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.buffer.lock().panic.take()
    }

    /// Stops the pool after the consumer quit at item `i`: no item above
    /// it is claimed, and parked workers exit.
    fn stop(&self, i: usize) {
        self.claims.fail(i);
        let mut buffer = self.buffer.lock();
        buffer.stopped = true;
        self.buffer.notify_all();
    }
}

/// Runs `f(0)`, …, `f(n - 1)` on up to `threads` workers and hands each
/// result, in index order, to `consume(index, result)` as soon as it and
/// every result before it have landed.
///
/// Each worker is a spawned thread that claims indices from a shared
/// counter and runs at most `WINDOW_PER_WORKER` (4) × workers items
/// ahead of the consumer, so about that many results are alive at once;
/// the worker holding the lowest undelivered index never waits, so the
/// pool cannot deadlock. The calling thread runs no item: it
/// consumes, while the workers run. (With the calling thread as one of
/// the workers, the engine's scale-1.0 chunk pass on 2 threads took
/// 0.71 s against 0.68 s on a 2-core host.)
/// If an item fails, the items below it are consumed and the lowest
/// failed index's error is returned, the same error a serial loop
/// stopping at its first failure returns; after a failure workers claim
/// no item above it, but finish the items they hold. A `consume` error
/// stops the workers and is returned.
///
/// # Errors
///
/// The error of the lowest failed item, or the first `consume` error.
///
/// # Panics
///
/// Panics if `threads` is zero, and re-raises a panic from `f` or
/// `consume`. A panic in an item always reaches the caller, even in an
/// item above the returned error, which a worker ran before the error
/// stopped the pool.
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
    let workers = threads.min(n);
    let pool = Pool::<(Mutex<Buffer<T, E>>, Condvar)>::new(n, WINDOW_PER_WORKER * workers);
    #[expect(
        clippy::disallowed_methods,
        reason = "the ordered worker pool; items are claimed by index and consumed in index order"
    )]
    let result = std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| pool.work(&f));
        }
        pool.consume(consume)
    });
    if let Some(payload) = pool.take_panic() {
        resume_unwind(payload);
    }
    result
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
    fn at_most_w_outcomes_are_alive_at_once() {
        /// Counts the outcomes alive at once, and their high-water mark.
        struct Live<'a>(&'a AtomicUsize);
        impl Drop for Live<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        const N: usize = 200;
        for threads in [2, 4] {
            let (live, high) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let mut consumed = 0;
            run_ordered(
                N,
                threads,
                |_| {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    high.fetch_max(now, Ordering::SeqCst);
                    Ok::<_, ()>(Live(&live))
                },
                |_, outcome| {
                    // Hold each outcome a moment, so workers that could
                    // run ahead without bound would.
                    std::thread::yield_now();
                    drop(outcome);
                    consumed += 1;
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(consumed, N);
            assert_eq!(live.load(Ordering::SeqCst), 0);
            let bound = WINDOW_PER_WORKER * threads + threads;
            let high = high.load(Ordering::SeqCst);
            assert!(
                high <= bound,
                "{high} outcomes alive on {threads} threads, bound {bound}"
            );
        }
    }

    #[test]
    fn the_consumer_runs_before_the_last_item_is_started() {
        // Item n - 1 may start only once item 0 has been consumed, which a
        // pool that joins its workers before consuming never allows.
        let first_consumed = AtomicUsize::new(0);
        let started_late = AtomicUsize::new(0);
        let n = WINDOW_PER_WORKER * 2 * 3;
        run_ordered(
            n,
            2,
            |i| {
                if i == n - 1 {
                    started_late.store(first_consumed.load(Ordering::SeqCst), Ordering::SeqCst);
                }
                Ok::<_, ()>(i)
            },
            |i, _| {
                if i == 0 {
                    first_consumed.store(1, Ordering::SeqCst);
                }
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(started_late.load(Ordering::SeqCst), 1);
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
        let ran = AtomicUsize::new(0);
        collect(0, 3, |_| {
            ran.fetch_add(1, Ordering::Relaxed);
            Ok::<_, ()>(())
        })
        .unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 0);
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
    #[should_panic(expected = "item 1 after the consumer error")]
    fn a_panic_above_a_consumer_error_still_reaches_the_caller() {
        // The consumer fails at item 0 only once item 1 has started, and
        // item 1 panics only once the consumer has failed, so the consumer
        // never sees the payload: `run_ordered` must re-raise it after the
        // join rather than return the error.
        let (started, consumer_failed) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let wait_for = |flag: &AtomicUsize| {
            while flag.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
        };
        let _ = run_ordered(
            2,
            2,
            |i| {
                if i == 1 {
                    started.store(1, Ordering::SeqCst);
                    wait_for(&consumer_failed);
                    panic!("item 1 after the consumer error");
                }
                Ok::<_, &str>(i)
            },
            |_, _| {
                wait_for(&started);
                consumer_failed.store(1, Ordering::SeqCst);
                Err("consumer")
            },
        );
    }

    #[test]
    #[should_panic(expected = "consumer at 3")]
    fn a_consumer_panic_stops_the_workers_and_reaches_the_caller() {
        // Workers parked at the window edge must exit, or the scope never
        // joins and this test hangs.
        let _ = run_ordered(200, 2, Ok::<_, ()>, |i, _| {
            assert_ne!(i, 3, "consumer at 3");
            Ok(())
        });
    }

    #[test]
    #[should_panic(expected = "worker thread")]
    fn zero_threads_panics() {
        let _ = collect(1, 0, |_| Ok::<_, ()>(()));
    }
}
