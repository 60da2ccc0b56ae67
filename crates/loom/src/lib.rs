//! # ssfa-loom: a vendored schedule-exploring model checker
//!
//! A small, offline stand-in for [loom](https://github.com/tokio-rs/loom)
//! exposing a small API subset: [`sync::atomic::AtomicUsize`] (what the
//! ssfa ordered worker pool's claims run on), [`sync::Mutex`] and
//! [`sync::Condvar`] (what its reorder buffer runs on), and
//! [`thread::spawn`]/[`thread::JoinHandle::join`].
//!
//! ## How it works
//!
//! [`model`] (or [`Builder::check`]) runs the closure repeatedly, once per
//! distinct *schedule*. Each virtual thread is backed by a real OS thread,
//! but a token scheduler lets exactly one run at a time; every atomic
//! operation, lock and join yields first, creating a *choice point* where
//! any currently runnable virtual thread may be scheduled next. An unlock,
//! a condition-variable wait and a notify are not choice points: an
//! unlock is seen only by a later lock, which is one, and a wait or
//! notify made with the mutex held, as it must be here, commutes with
//! everything another thread can do meanwhile. An execution records the
//! choice made at every point; the driver then backtracks depth-first —
//! bump the deepest choice with unexplored alternatives, replay the prefix,
//! continue — until the whole tree is exhausted or `max_schedules` is hit.
//!
//! Because user code must be deterministic apart from scheduling, this
//! enumerates **every interleaving of sync operations** (under sequential
//! consistency — a sound over-approximation for the invariants checked
//! here: lost updates, duplicated claims, lost wake-ups, deadlocks). A
//! schedule on which every unfinished virtual thread is blocked — on a
//! mutex, a join or a condition variable — is a deadlock.
//!
//! ## Example
//!
//! ```
//! use ssfa_loom as loom;
//! use loom::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//!
//! // Two threads racing fetch_add never lose an increment…
//! let report = loom::Builder::default().check(|| {
//!     let n = Arc::new(AtomicUsize::new(0));
//!     let h: Vec<_> = (0..2)
//!         .map(|_| {
//!             let n = Arc::clone(&n);
//!             loom::thread::spawn(move || {
//!                 n.fetch_add(1, Ordering::Relaxed);
//!             })
//!         })
//!         .collect();
//!     for h in h {
//!         h.join().unwrap();
//!     }
//!     assert_eq!(n.load(Ordering::Relaxed), 2);
//! });
//! assert!(report.failure.is_none());
//! assert!(report.complete);
//! ```

#![warn(missing_docs)]

mod scheduler;
pub mod sync;
pub mod thread;

use std::sync::Arc;

/// Exploration driver with a configurable schedule bound.
#[derive(Debug, Clone)]
pub struct Builder {
    /// Stop after this many schedules even if the tree is not exhausted
    /// (the report then has `complete == false`).
    pub max_schedules: usize,
    /// Maximum *preemptive* context switches per execution — switches away
    /// from a thread that could have kept running. Switches forced by a
    /// block or thread exit are always free. `None` (the default) explores
    /// exhaustively; `Some(n)` bounds the tree the way loom's
    /// `LOOM_MAX_PREEMPTIONS` does, which keeps wider thread counts
    /// tractable while still catching every bug reachable with `<= n`
    /// preemptions (most real races need only one or two).
    pub preemption_bound: Option<usize>,
}

impl Default for Builder {
    fn default() -> Self {
        Builder {
            max_schedules: 100_000,
            preemption_bound: None,
        }
    }
}

/// The first failing schedule found, if any.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Panic message (or deadlock description) from the failing execution.
    pub message: String,
    /// The schedule that produced it: at the i-th choice point, the index
    /// (into the list of runnable virtual threads, sorted by id) that ran.
    /// Feeding this back as a prefix deterministically reproduces the bug.
    pub schedule: Vec<usize>,
}

/// Outcome of an exploration.
#[derive(Debug, Clone)]
pub struct Report {
    /// Number of distinct schedules executed.
    pub schedules: usize,
    /// Whether the schedule tree was exhausted (false = bound hit first).
    pub complete: bool,
    /// First failing schedule, if one was found (exploration stops there).
    pub failure: Option<Failure>,
}

impl Builder {
    /// Explores schedules of `f` until exhaustion, first failure, or the
    /// schedule bound, and reports what happened.
    pub fn check<F>(&self, f: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        scheduler::install_panic_filter();
        let f = Arc::new(f);
        let mut prefix: Vec<usize> = Vec::new();
        let mut schedules = 0usize;
        loop {
            let exec = scheduler::run_once(&f, prefix.clone(), self.preemption_bound);
            schedules += 1;
            if let Some(message) = exec.failure {
                return Report {
                    schedules,
                    complete: false,
                    failure: Some(Failure {
                        message,
                        schedule: exec.trace.iter().map(|cp| cp.chosen).collect(),
                    }),
                };
            }
            // Depth-first backtrack: bump the deepest choice point that
            // still has an unexplored alternative.
            let mut stem = exec.trace;
            let mut bumped = false;
            while let Some(cp) = stem.pop() {
                if cp.chosen + 1 < cp.alternatives {
                    let mut next = cp;
                    next.chosen += 1;
                    stem.push(next);
                    bumped = true;
                    break;
                }
            }
            if !bumped {
                return Report {
                    schedules,
                    complete: true,
                    failure: None,
                };
            }
            if schedules >= self.max_schedules {
                return Report {
                    schedules,
                    complete: false,
                    failure: None,
                };
            }
            prefix = stem.iter().map(|cp| cp.chosen).collect();
        }
    }
}

/// Exhaustively model-checks `f`, panicking on the first failing schedule
/// or if the default schedule bound is hit before exhaustion.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    let report = Builder::default().check(f);
    if let Some(failure) = report.failure {
        panic!(
            "model check failed after {} schedule(s): {}\nfailing schedule: {:?}",
            report.schedules, failure.message, failure.schedule
        );
    }
    assert!(
        report.complete,
        "model check hit the schedule bound ({} schedules) before exhausting the tree",
        report.schedules
    );
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicUsize, Ordering};
    use super::sync::{Condvar, Mutex};
    use super::{thread, Builder};
    use std::sync::Arc;

    #[test]
    fn single_thread_is_one_schedule_per_choice_chain() {
        let report = Builder::default().check(|| {
            let n = AtomicUsize::new(0);
            n.fetch_add(1, Ordering::Relaxed);
            assert_eq!(n.load(Ordering::Relaxed), 1);
        });
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.complete);
        assert_eq!(report.schedules, 1, "no concurrency, no branching");
    }

    #[test]
    fn two_racing_fetch_adds_never_lose_an_increment() {
        let report = Builder::default().check(|| {
            let n = Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    thread::spawn(move || {
                        n.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(n.load(Ordering::Relaxed), 2);
        });
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.complete);
        assert!(
            report.schedules >= 2,
            "two orders of the racing adds must both be explored, got {}",
            report.schedules
        );
    }

    #[test]
    fn load_then_store_lost_update_is_caught() {
        // The classic non-atomic increment: load, then store(v + 1).
        // Interleaved, one increment is lost — the checker must find it.
        let report = Builder::default().check(|| {
            let n = Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    thread::spawn(move || {
                        let v = n.load(Ordering::Relaxed);
                        n.store(v + 1, Ordering::Relaxed);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(n.load(Ordering::Relaxed), 2, "lost update");
        });
        let failure = report.failure.expect("lost update must be found");
        assert!(
            failure.message.contains("lost update"),
            "unexpected failure: {}",
            failure.message
        );
        assert!(!failure.schedule.is_empty());
    }

    #[test]
    fn mutex_serializes_a_plain_counter() {
        let report = Builder::default().check(|| {
            let n = Arc::new(Mutex::new(0u32));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    thread::spawn(move || {
                        let mut guard = n.lock().unwrap();
                        *guard += 1;
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(*n.lock().unwrap(), 2);
        });
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.complete);
    }

    #[test]
    fn lock_order_inversion_deadlock_is_detected() {
        let report = Builder::default().check(|| {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let h = thread::spawn(move || {
                let _ga = a2.lock().unwrap();
                let _gb = b2.lock().unwrap();
            });
            {
                let _gb = b.lock().unwrap();
                let _ga = a.lock().unwrap();
            }
            let _ = h.join();
        });
        let failure = report.failure.expect("AB/BA lock order must deadlock");
        assert!(
            failure.message.contains("deadlock"),
            "unexpected failure: {}",
            failure.message
        );
    }

    /// One thread sets a flag under the lock and notifies; the other
    /// waits for it. `checked` waiters test the flag before parking.
    fn handoff(checked: bool) -> super::Report {
        Builder::default().check(move || {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let setter = Arc::clone(&pair);
            let h = thread::spawn(move || {
                *setter.0.lock().unwrap() = true;
                setter.1.notify_all();
            });
            let mut set = pair.0.lock().unwrap();
            if checked {
                while !*set {
                    set = pair.1.wait(set).unwrap();
                }
            } else {
                set = pair.1.wait(set).unwrap();
            }
            assert!(*set);
            drop(set);
            h.join().unwrap();
        })
    }

    #[test]
    fn a_notified_waiter_sees_the_state_it_waited_for() {
        let report = handoff(true);
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.complete);
        assert!(report.schedules >= 2, "the setter may run first or second");
    }

    #[test]
    fn a_wait_that_skips_its_check_loses_the_wake_up() {
        // When the setter runs first, its notify finds no waiter, and the
        // unchecked wait parks forever: every thread blocked.
        let failure = handoff(false)
            .failure
            .expect("the lost wake-up must be found");
        assert!(
            failure.message.contains("deadlock"),
            "unexpected failure: {}",
            failure.message
        );
    }

    #[test]
    fn join_returns_the_thread_value() {
        let report = Builder::default().check(|| {
            let h = thread::spawn(|| 41usize + 1);
            assert_eq!(h.join().unwrap(), 42);
        });
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.complete);
    }

    #[test]
    fn schedule_bound_truncates_incomplete() {
        let report = Builder {
            max_schedules: 1,
            ..Builder::default()
        }
        .check(|| {
            let n = Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    thread::spawn(move || {
                        n.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        assert!(report.failure.is_none());
        assert!(!report.complete, "bound of 1 cannot exhaust a racing pair");
        assert_eq!(report.schedules, 1);
    }

    #[test]
    fn preemption_bound_still_catches_the_lost_update() {
        // The load/store lost update needs exactly one preemption (between
        // the load and the store), so a bound of 1 must still find it — and
        // with a far smaller tree than the exhaustive run.
        let report = Builder {
            preemption_bound: Some(1),
            ..Builder::default()
        }
        .check(|| {
            let n = Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    thread::spawn(move || {
                        let v = n.load(Ordering::Relaxed);
                        n.store(v + 1, Ordering::Relaxed);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(n.load(Ordering::Relaxed), 2, "lost update");
        });
        let failure = report
            .failure
            .expect("one preemption suffices to lose the update");
        assert!(failure.message.contains("lost update"));
    }

    #[test]
    fn preemption_bound_shrinks_the_tree_without_breaking_correct_code() {
        // Three racing fetch_adds: correct under every schedule. The
        // bounded run must exhaust its (restricted) tree and agree, in
        // strictly fewer schedules than the exhaustive run.
        let body = |n: &Arc<AtomicUsize>| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let n = Arc::clone(n);
                    thread::spawn(move || {
                        n.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(n.load(Ordering::Relaxed), 3);
        };
        let exhaustive = Builder::default().check(move || {
            let n = Arc::new(AtomicUsize::new(0));
            body(&n);
        });
        let bounded = Builder {
            preemption_bound: Some(1),
            ..Builder::default()
        }
        .check(move || {
            let n = Arc::new(AtomicUsize::new(0));
            body(&n);
        });
        assert!(exhaustive.complete && exhaustive.failure.is_none());
        assert!(bounded.complete && bounded.failure.is_none());
        assert!(
            bounded.schedules < exhaustive.schedules,
            "bound must prune: bounded {} vs exhaustive {}",
            bounded.schedules,
            exhaustive.schedules
        );
    }
}
