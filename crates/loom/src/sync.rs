//! Model-checked counterparts of a `std::sync` subset: the atomic the ssfa
//! ordered worker pool's claims run on, and the mutex and condition
//! variable its reorder buffer runs on. Every atomic operation and every
//! lock is a scheduler yield point, so the explorer can interleave
//! virtual threads before each atomic or lock effect; an unlock, a wait
//! and a notify are not (see the crate docs for why that is sound when
//! waits and notifies hold the mutex).
//! Memory-ordering arguments are accepted for API parity but the
//! exploration is sequentially consistent — a sound over-approximation
//! for catching lost updates, lost wake-ups and deadlocks at this pool's
//! strength.

use crate::scheduler::Explorer;
use std::fmt;

/// Model-checked atomics.
pub mod atomic {
    use super::Explorer;

    pub use std::sync::atomic::Ordering;

    /// Model-checked `AtomicUsize`: a yield point before every operation.
    #[derive(Debug, Default)]
    pub struct AtomicUsize {
        v: std::sync::atomic::AtomicUsize,
    }

    impl AtomicUsize {
        /// Creates the atomic. Usable outside the model (no yield).
        pub fn new(v: usize) -> AtomicUsize {
            AtomicUsize {
                v: std::sync::atomic::AtomicUsize::new(v),
            }
        }

        /// Reads the value (yield point).
        pub fn load(&self, _order: Ordering) -> usize {
            Explorer::yield_point();
            self.v.load(Ordering::SeqCst)
        }

        /// Writes the value (yield point).
        pub fn store(&self, val: usize, _order: Ordering) {
            Explorer::yield_point();
            self.v.store(val, Ordering::SeqCst)
        }

        /// Atomically adds, returning the previous value (yield point; the
        /// read-modify-write itself is indivisible, as on hardware).
        pub fn fetch_add(&self, val: usize, _order: Ordering) -> usize {
            Explorer::yield_point();
            self.v.fetch_add(val, Ordering::SeqCst)
        }

        /// Atomically stores the minimum of the value and `val`, returning
        /// the previous value (yield point; indivisible, as on hardware).
        pub fn fetch_min(&self, val: usize, _order: Ordering) -> usize {
            Explorer::yield_point();
            self.v.fetch_min(val, Ordering::SeqCst)
        }
    }
}

/// Error type for [`Mutex::lock`] parity with `std`. The model never
/// actually poisons: a panicking execution aborts the whole schedule, so
/// `lock()` always returns `Ok` and `.unwrap()` is idiomatic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoisonError;

impl fmt::Display for PoisonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("loom model mutex poisoned")
    }
}

impl std::error::Error for PoisonError {}

/// Model-checked mutex. MUST be created inside the model closure (it
/// registers itself with the running explorer).
#[derive(Debug)]
pub struct Mutex<T> {
    id: usize,
    data: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a model mutex registered with the current exploration.
    pub fn new(value: T) -> Mutex<T> {
        Mutex {
            id: Explorer::register_mutex(),
            data: std::sync::Mutex::new(value),
        }
    }

    /// Acquires the lock, blocking in *model* time: the virtual thread is
    /// descheduled while another virtual thread owns the mutex.
    pub fn lock(&self) -> Result<MutexGuard<'_, T>, PoisonError> {
        Explorer::acquire_mutex(self.id);
        // The inner std lock is uncontended by construction: only the
        // model-level owner ever touches it, and the token serializes
        // virtual threads. `unwrap_or_else(into_inner)` keeps teardown of a
        // panicked execution from cascading poison panics.
        Ok(MutexGuard {
            mutex: self,
            inner: Some(self.data()),
        })
    }

    fn data(&self) -> std::sync::MutexGuard<'_, T> {
        self.data.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// RAII guard for [`Mutex`]; dropping it releases the lock.
pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
    // Option so `Condvar::wait` can release the real guard BEFORE parking
    // in the scheduler — otherwise a rescheduled virtual thread could
    // block on the inner std mutex for real and wedge the explorer.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("MutexGuard").field(&**self).finish()
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard data present until drop")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard data present until drop")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock first, then the model-level ownership.
        self.inner.take();
        Explorer::release_mutex(self.mutex.id);
    }
}

/// Model-checked condition variable. MUST be created inside the model
/// closure (it registers itself with the running explorer). Waiting
/// parks the virtual thread until a [`Condvar::notify_all`]; a schedule
/// on which every unfinished virtual thread waits is reported as a
/// deadlock.
#[derive(Debug)]
pub struct Condvar {
    id: usize,
}

impl Condvar {
    /// Creates a model condition variable registered with the current
    /// exploration.
    pub fn new() -> Condvar {
        Condvar {
            id: Explorer::register_condvar(),
        }
    }

    /// Unlocks `guard`'s mutex and parks in one step, then locks it again
    /// once notified, as `std::sync::Condvar::wait` does.
    pub fn wait<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
    ) -> Result<MutexGuard<'a, T>, PoisonError> {
        // As in `MutexGuard::drop`: the real lock goes before parking.
        guard.inner.take();
        Explorer::wait_condvar(self.id, guard.mutex.id);
        guard.inner = Some(guard.mutex.data());
        Ok(guard)
    }

    /// Wakes every virtual thread parked on this condition variable.
    pub fn notify_all(&self) {
        Explorer::notify_condvar(self.id);
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}
