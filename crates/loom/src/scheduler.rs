//! The schedule explorer: real OS threads serialized down to one runnable
//! virtual thread at a time by a token (mutex + condvar), with a *choice
//! point* before every atomic operation, lock and join. One execution follows a
//! forced schedule prefix and records every choice it makes; the driver in
//! `lib.rs` then backtracks depth-first by bumping the deepest choice that
//! still has unexplored alternatives. Deterministic user code + deterministic
//! scheduling = exhaustive enumeration of sync-op interleavings.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Panic payload used to tear down parked virtual threads once an execution
/// has failed (assertion panic or deadlock). Never escapes the crate: the
/// panic hook filter and `vthread_main` both swallow it.
pub(crate) struct SchedAbort;

/// Scheduling state of one virtual thread.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Run {
    Ready,
    Blocked,
    Finished,
}

/// What a blocked virtual thread is waiting for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BlockOn {
    /// Waiting to acquire model mutex with this id.
    Mutex(usize),
    /// Waiting for this virtual thread to finish.
    Join(usize),
    /// Parked on model condition variable with this id until notified.
    Condvar(usize),
}

/// One recorded scheduling decision: which of the `alternatives` enabled
/// threads ran (index into the sorted enabled list, not a tid).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ChoicePoint {
    pub(crate) chosen: usize,
    pub(crate) alternatives: usize,
}

struct SchedState {
    runs: Vec<Run>,
    blocked_on: Vec<Option<BlockOn>>,
    /// Tid currently holding the run token.
    current: usize,
    /// Maximum preemptive context switches per execution (None = no limit,
    /// fully exhaustive exploration).
    preemption_bound: Option<usize>,
    /// Preemptive switches taken so far this execution.
    preemptions: usize,
    /// Forced choices replayed from a previous execution (DFS backtracking).
    prefix: Vec<usize>,
    /// How many choice points have been passed so far this execution.
    step: usize,
    trace: Vec<ChoicePoint>,
    failure: Option<String>,
    /// Once set, every parked virtual thread unwinds out via [`SchedAbort`].
    abort: bool,
    /// Model mutex id -> owning tid.
    mutex_owner: Vec<Option<usize>>,
    /// How many model condition variables were registered (their ids).
    condvars: usize,
    /// Real handles of spawned vthreads, joined by the driver at the end.
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl SchedState {
    /// Makes every vthread blocked on `on` runnable.
    fn wake(&mut self, on: BlockOn) {
        for t in 0..self.runs.len() {
            if self.runs[t] == Run::Blocked && self.blocked_on[t] == Some(on) {
                self.blocked_on[t] = None;
                self.runs[t] = Run::Ready;
            }
        }
    }

    /// Frees model mutex `id` and wakes its waiters.
    fn unlock(&mut self, id: usize) {
        self.mutex_owner[id] = None;
        self.wake(BlockOn::Mutex(id));
    }
}

pub(crate) struct Explorer {
    state: Mutex<SchedState>,
    cv: Condvar,
}

/// Per-OS-thread pointer back to the explorer driving it.
struct Ctx {
    exp: Arc<Explorer>,
    tid: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Result of one complete execution under one schedule.
pub(crate) struct ExecOutcome {
    pub(crate) trace: Vec<ChoicePoint>,
    pub(crate) failure: Option<String>,
}

impl Explorer {
    fn with_ctx<R>(f: impl FnOnce(&Arc<Explorer>, usize) -> R) -> R {
        CTX.with(|c| {
            let borrow = c.borrow();
            let ctx = borrow
                .as_ref()
                .expect("ssfa-loom primitive used outside loom::model / Builder::check");
            f(&ctx.exp, ctx.tid)
        })
    }

    /// The yield point every sync op passes through *before* performing its
    /// effect: pick who runs next (a recorded choice), then wait until the
    /// token comes back to the caller.
    pub(crate) fn yield_point() {
        // During unwind (guard drops on a panicking thread) we must not
        // park: the wrapper in `vthread_main` will run teardown.
        if std::thread::panicking() {
            return;
        }
        Self::with_ctx(|exp, tid| {
            let st = exp.state.lock().unwrap();
            let st = exp.pick_next(st);
            exp.wait_for_token(st, tid);
        });
    }

    /// Chooses the next runnable thread, records the choice, and wakes it.
    /// Detects global deadlock (nothing enabled, not everything finished).
    fn pick_next<'a>(&'a self, mut st: MutexGuard<'a, SchedState>) -> MutexGuard<'a, SchedState> {
        let mut enabled: Vec<usize> = (0..st.runs.len())
            .filter(|&i| st.runs[i] == Run::Ready)
            .collect();
        // Preemption bounding (loom-style): once the budget is spent, a
        // still-runnable current thread must keep running; the schedule
        // only branches where a switch is forced (block/finish). With
        // bound None this is a no-op and exploration stays exhaustive.
        let prev = st.current;
        if let Some(bound) = st.preemption_bound {
            if st.preemptions >= bound && st.runs.get(prev) == Some(&Run::Ready) {
                enabled = vec![prev];
            }
        }
        if enabled.is_empty() {
            if st.runs.iter().all(|&r| r == Run::Finished) {
                // Execution complete; wake the driver.
                self.cv.notify_all();
                return st;
            }
            st.failure.get_or_insert_with(|| {
                "deadlock: every unfinished virtual thread is blocked".to_string()
            });
            st.abort = true;
            self.cv.notify_all();
            return st;
        }
        let idx = if st.step < st.prefix.len() {
            // Replaying a forced prefix. Deterministic code makes the
            // enabled set identical to the recording run; min() keeps a
            // misuse from panicking instead of producing a wrong schedule.
            st.prefix[st.step].min(enabled.len() - 1)
        } else {
            0
        };
        st.trace.push(ChoicePoint {
            chosen: idx,
            alternatives: enabled.len(),
        });
        st.step += 1;
        st.current = enabled[idx];
        // Switching away from a thread that could have kept running is a
        // preemption; a switch forced by block/finish is not.
        if st.current != prev && st.runs.get(prev) == Some(&Run::Ready) {
            st.preemptions += 1;
        }
        self.cv.notify_all();
        st
    }

    /// Parks until `me` is Ready and holds the token. Panics with
    /// [`SchedAbort`] when the execution is being torn down.
    fn wait_for_token(&self, mut st: MutexGuard<'_, SchedState>, me: usize) {
        loop {
            if st.abort {
                drop(st);
                std::panic::panic_any(SchedAbort);
            }
            if st.runs[me] == Run::Ready && st.current == me {
                return;
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Registers a new model mutex, returning its id.
    pub(crate) fn register_mutex() -> usize {
        Self::with_ctx(|exp, _| {
            let mut st = exp.state.lock().unwrap();
            st.mutex_owner.push(None);
            st.mutex_owner.len() - 1
        })
    }

    /// Acquires model mutex `id` for the calling vthread, blocking (in
    /// model time) while another vthread owns it.
    pub(crate) fn acquire_mutex(id: usize) {
        Self::yield_point();
        Self::with_ctx(|exp, me| loop {
            let mut st = exp.state.lock().unwrap();
            if st.abort {
                drop(st);
                std::panic::panic_any(SchedAbort);
            }
            if st.mutex_owner[id].is_none() {
                st.mutex_owner[id] = Some(me);
                return;
            }
            // Contended: block until the owner releases, then retry (another
            // waiter may get there first — that re-block is itself a
            // legitimate interleaving).
            st.runs[me] = Run::Blocked;
            st.blocked_on[me] = Some(BlockOn::Mutex(id));
            let st = exp.pick_next(st);
            exp.wait_for_token(st, me);
        });
    }

    /// Releases model mutex `id` if the calling vthread owns it, waking
    /// every vthread blocked on it. Not a yield point: the release is
    /// only visible to a thread that acquires, and every acquire is one.
    /// Safe to call during unwind; a guard dropped while its owner was
    /// parked on a condition variable owns nothing to release.
    pub(crate) fn release_mutex(id: usize) {
        Self::with_ctx(|exp, me| {
            let mut st = exp.state.lock().unwrap();
            if st.mutex_owner[id] == Some(me) {
                st.unlock(id);
            }
            exp.notify_only(st);
        });
    }

    /// Registers a new model condition variable, returning its id.
    pub(crate) fn register_condvar() -> usize {
        Self::with_ctx(|exp, _| {
            let mut st = exp.state.lock().unwrap();
            st.condvars += 1;
            st.condvars - 1
        })
    }

    /// Releases model mutex `mutex` and parks on condition variable `cv`
    /// in one step, as `std`'s `Condvar::wait` does, then re-acquires the
    /// mutex once notified. No spurious wake-ups are modelled.
    pub(crate) fn wait_condvar(cv: usize, mutex: usize) {
        Self::with_ctx(|exp, me| {
            let mut st = exp.state.lock().unwrap();
            if st.abort {
                drop(st);
                std::panic::panic_any(SchedAbort);
            }
            st.unlock(mutex);
            st.runs[me] = Run::Blocked;
            st.blocked_on[me] = Some(BlockOn::Condvar(cv));
            let st = exp.pick_next(st);
            exp.wait_for_token(st, me);
        });
        Self::acquire_mutex(mutex);
    }

    /// Makes every vthread parked on condition variable `cv` runnable. Not
    /// a yield point: the waiters only observe it at their next choice.
    pub(crate) fn notify_condvar(cv: usize) {
        Self::with_ctx(|exp, _| {
            let mut st = exp.state.lock().unwrap();
            st.wake(BlockOn::Condvar(cv));
        });
    }

    fn notify_only(&self, st: MutexGuard<'_, SchedState>) {
        drop(st);
        self.cv.notify_all();
    }

    /// Registers and starts a new virtual thread running `body`.
    pub(crate) fn spawn_vthread(body: Box<dyn FnOnce() + Send>) -> usize {
        Self::with_ctx(|exp, _| {
            let tid = {
                let mut st = exp.state.lock().unwrap();
                st.runs.push(Run::Ready);
                st.blocked_on.push(None);
                st.runs.len() - 1
            };
            let e2 = exp.clone();
            #[expect(
                clippy::disallowed_methods,
                reason = "the model checker serializes real threads behind its token scheduler"
            )]
            let handle = std::thread::Builder::new()
                .name(format!("loom-vthread-{tid}"))
                .spawn(move || vthread_main(e2, tid, body))
                .expect("spawn loom vthread");
            exp.state.lock().unwrap().handles.push(handle);
            tid
        })
    }

    /// Blocks (in model time) until vthread `target` finishes.
    pub(crate) fn join_vthread(target: usize) {
        Self::yield_point();
        Self::with_ctx(|exp, me| {
            let mut st = exp.state.lock().unwrap();
            if st.abort {
                drop(st);
                std::panic::panic_any(SchedAbort);
            }
            if st.runs[target] != Run::Finished {
                st.runs[me] = Run::Blocked;
                st.blocked_on[me] = Some(BlockOn::Join(target));
                let st = exp.pick_next(st);
                exp.wait_for_token(st, me);
            }
        });
    }

    /// Marks `me` finished, force-releases anything it still owns, wakes
    /// joiners, and either schedules the next thread or (on failure) tears
    /// the execution down.
    fn finish(&self, me: usize, failure: Option<String>) {
        let mut st = self.state.lock().unwrap();
        st.runs[me] = Run::Finished;
        // A thread torn down while parked still carries its block marker;
        // clear it so a later mutex release cannot resurrect it to Ready.
        st.blocked_on[me] = None;
        // Normal unwind drops guards first, so owned mutexes are usually
        // already released; this is the belt-and-braces path.
        for id in 0..st.mutex_owner.len() {
            if st.mutex_owner[id] == Some(me) {
                st.unlock(id);
            }
        }
        st.wake(BlockOn::Join(me));
        if let Some(msg) = failure {
            st.failure.get_or_insert(msg);
            st.abort = true;
            self.notify_only(st);
            return;
        }
        if st.abort {
            self.notify_only(st);
            return;
        }
        drop(self.pick_next(st));
    }
}

/// Entry point of every virtual thread's real OS thread.
fn vthread_main(exp: Arc<Explorer>, tid: usize, body: Box<dyn FnOnce() + Send>) {
    CTX.with(|c| {
        *c.borrow_mut() = Some(Ctx {
            exp: exp.clone(),
            tid,
        })
    });
    let result = catch_unwind(AssertUnwindSafe(|| {
        let st = exp.state.lock().unwrap();
        exp.wait_for_token(st, tid);
        body();
    }));
    let failure = match result {
        Ok(()) => None,
        Err(payload) if payload.is::<SchedAbort>() => None,
        Err(payload) => Some(panic_message(payload.as_ref())),
    };
    exp.finish(tid, failure);
}

/// Runs the model closure once under the given forced schedule prefix and
/// returns the full choice trace plus any failure.
pub(crate) fn run_once<F>(
    f: &Arc<F>,
    prefix: Vec<usize>,
    preemption_bound: Option<usize>,
) -> ExecOutcome
where
    F: Fn() + Send + Sync + 'static,
{
    let exp = Arc::new(Explorer {
        state: Mutex::new(SchedState {
            runs: vec![Run::Ready],
            blocked_on: vec![None],
            current: 0,
            preemption_bound,
            preemptions: 0,
            prefix,
            step: 0,
            trace: Vec::new(),
            failure: None,
            abort: false,
            mutex_owner: Vec::new(),
            condvars: 0,
            handles: Vec::new(),
        }),
        cv: Condvar::new(),
    });
    let e2 = exp.clone();
    let f2 = Arc::clone(f);
    #[expect(
        clippy::disallowed_methods,
        reason = "the model checker serializes real threads behind its token scheduler"
    )]
    let root = std::thread::Builder::new()
        .name("loom-vthread-0".to_string())
        .spawn(move || vthread_main(e2, 0, Box::new(move || f2())))
        .expect("spawn loom root vthread");
    {
        let mut st = exp.state.lock().unwrap();
        while !st.runs.iter().all(|&r| r == Run::Finished) {
            st = exp.cv.wait(st).unwrap();
        }
    }
    let handles = std::mem::take(&mut exp.state.lock().unwrap().handles);
    let _ = root.join();
    for h in handles {
        let _ = h.join();
    }
    let st = exp.state.lock().unwrap();
    ExecOutcome {
        trace: st.trace.clone(),
        failure: st.failure.clone(),
    }
}

/// Installs (once, process-wide) a panic hook that silences the
/// [`SchedAbort`] teardown panics and panics on `loom-vthread-*` threads —
/// their messages are captured into the [`ExecOutcome`] instead, so the
/// default hook would only add noise that the libtest harness cannot
/// capture (it unwinds on a non-test thread).
pub(crate) fn install_panic_filter() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<SchedAbort>() {
                return;
            }
            if std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("loom-vthread-"))
            {
                return;
            }
            prev(info);
        }));
    });
}
