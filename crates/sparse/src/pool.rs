//! A persistent kernel thread pool.
//!
//! [`run`] runs one job `f(t, nt)` for `t in 0..nt` and returns only after
//! every index has finished. The caller runs index 0; helper threads
//! (`available_parallelism() - 1` of them, at most 63) join the job as
//! they wake, each taking the next index; once the caller's own index is
//! done it closes the job and runs every index no helper took. So a helper that is slow to wake (asleep, or descheduled on
//! a busy host) costs the caller nothing but its share of parallelism: the
//! caller only ever waits for helpers that are running an index.
//!
//! The helpers are spawned once, on the first call that asks for more than
//! one thread, and live for the rest of the process. Between jobs a helper
//! spins for a short bounded while (so the back-to-back phases of a kernel
//! do not pay a wake-up) and then parks on a condition variable: an idle
//! pool uses no CPU.
//!
//! One job runs at a time. A call made while the pool is busy — from a
//! second thread (the realtime driver's predictor and solver, parallel
//! tests) or from inside a job — runs inline on its caller with `nt = 1`
//! instead of waiting. Callers must therefore make their results
//! independent of `nt` and of which thread runs which index: the kernels
//! split their work into fixed chunks whose values do not depend on the
//! thread that computes them.
//!
//! A job that panics on a helper is caught there and re-raised on the
//! caller, after every thread has let go of the job.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Most threads (caller included) a job runs on.
const MAX_THREADS: usize = 64;

/// Spin iterations a waiting thread makes before it parks (about 0.3 ms
/// on a current x86-64 core): long enough to bridge the gap between the
/// phases of one kernel and between the kernels of one solver iteration,
/// short enough that an idle pool goes quiet.
const SPIN: u32 = 1 << 14;

/// [`Shared::gate`] layout: the job's epoch in the high 32 bits, then the
/// closed flag, then the number of helpers that joined.
const CLOSED: u64 = 1 << 31;
const JOINED: u64 = CLOSED - 1;

/// A published job with its lifetime erased (see the `SAFETY` argument in
/// [`run`]).
type Job = &'static (dyn Fn(usize, usize) + Sync);

/// What the helpers read under the lock.
struct Slot {
    /// The current job; `None` between jobs.
    job: Option<Job>,
    /// Threads of the current job.
    nt: usize,
    /// First panic payload a helper caught in the current job.
    panic: Option<Box<dyn Any + Send>>,
    /// Helpers parked on `wake`.
    sleepers: usize,
    /// The caller is parked on `done`.
    waiting: bool,
}

/// Memory ordering: the job, its `nt` and the epoch are read under the
/// lock. `finished` is reset under the lock before the gate opens
/// (`Release`), and a helper can only increment it after joining through
/// an `Acquire` read of that gate, so the reset happens first. A helper's
/// `AcqRel` increment of `finished` after its index pairs with the
/// caller's `Acquire` loads, so the caller sees everything the index
/// wrote. `busy` is taken with `Acquire` and released with `Release`, so
/// successive jobs are ordered too.
struct Shared {
    slot: Mutex<Slot>,
    wake: Condvar,
    done: Condvar,
    /// Jobs published so far; changed only under `slot`'s lock.
    epoch: AtomicUsize,
    /// Admission to the current job (see [`CLOSED`]).
    gate: AtomicU64,
    /// Helpers that finished their index of the current job.
    finished: AtomicUsize,
    /// A caller owns the pool.
    busy: AtomicBool,
}

static SHARED: Shared = Shared {
    slot: Mutex::new(Slot {
        job: None,
        nt: 1,
        panic: None,
        sleepers: 0,
        waiting: false,
    }),
    wake: Condvar::new(),
    done: Condvar::new(),
    epoch: AtomicUsize::new(0),
    gate: AtomicU64::new(CLOSED),
    finished: AtomicUsize::new(0),
    busy: AtomicBool::new(false),
};

/// Number of helper threads, spawning them on first use.
static HELPERS: OnceLock<usize> = OnceLock::new();

impl Shared {
    /// The lock is never held while a job runs, so it cannot be poisoned
    /// by one; recover the guard regardless.
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The gate value that opens job `epoch` to helpers.
fn opened(epoch: usize) -> u64 {
    (epoch as u64) << 32
}

/// Threads a job can run on: the caller plus the helpers (1 on a
/// single-CPU host or affinity mask).
pub fn threads() -> usize {
    1 + *HELPERS.get_or_init(|| {
        let want = std::thread::available_parallelism().map_or(1, |n| n.get());
        let epoch = SHARED.epoch.load(Ordering::Acquire);
        let mut spawned = 0;
        for t in 1..want.min(MAX_THREADS) {
            let helper = std::thread::Builder::new()
                .name(format!("hetsolve-kernel-{t}"))
                .spawn(move || helper(epoch));
            if helper.is_err() {
                break;
            }
            spawned += 1;
        }
        spawned
    })
}

/// Run `f(t, nt)` for every `t in 0..nt` and return when all have
/// finished, with `nt = min(max_threads, threads())`, or `nt = 1` inline
/// when the pool is already running a job. Which thread runs which index
/// is not fixed. A panic in any `f(t, nt)` is re-raised here once every
/// thread is done with `f`.
pub fn run<F: Fn(usize, usize) + Sync>(max_threads: usize, f: F) {
    let nt = if max_threads > 1 {
        max_threads.min(threads())
    } else {
        1
    };
    if nt == 1 || SHARED.busy.swap(true, Ordering::Acquire) {
        return f(0, 1);
    }
    let job: &(dyn Fn(usize, usize) + Sync) = &f;
    // SAFETY: only the lifetime changes. The erased reference is stored in
    // `SHARED.slot` below and called only by helpers that joined this
    // job's gate, before they count themselves `finished`. This function
    // closes the gate, then does not return or unwind before every joined
    // helper has finished (its own calls run under `catch_unwind`), and it
    // clears the slot before releasing `busy`; a helper that did not join
    // never calls the job. So `f` is alive at every call.
    let job = unsafe { std::mem::transmute::<&(dyn Fn(usize, usize) + Sync), Job>(job) };
    let sh = &SHARED;
    {
        let mut s = sh.lock();
        s.job = Some(job);
        s.nt = nt;
        sh.finished.store(0, Ordering::Relaxed);
        let epoch = sh.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        sh.gate.store(opened(epoch), Ordering::Release);
        if s.sleepers > 0 {
            sh.wake.notify_all();
        }
    }
    let mine = panic::catch_unwind(AssertUnwindSafe(|| f(0, nt)));
    let joined = (sh.gate.fetch_or(CLOSED, Ordering::AcqRel) & JOINED) as usize;
    let mine = mine.and_then(|()| {
        panic::catch_unwind(AssertUnwindSafe(|| {
            for t in joined + 1..nt {
                f(t, nt);
            }
        }))
    });
    let mut spins = 0;
    while sh.finished.load(Ordering::Acquire) != joined && spins < SPIN {
        std::hint::spin_loop();
        spins += 1;
    }
    let theirs = {
        let mut s = sh.lock();
        s.waiting = true;
        while sh.finished.load(Ordering::Acquire) != joined {
            s = sh.done.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        s.waiting = false;
        s.job = None;
        s.panic.take()
    };
    sh.busy.store(false, Ordering::Release);
    if let Err(p) = mine {
        panic::resume_unwind(p);
    }
    if let Some(p) = theirs {
        panic::resume_unwind(p);
    }
}

/// A helper's loop: wait for a job newer than `seen`, join it if it is
/// still open and has an index left, run that index, report completion.
fn helper(mut seen: usize) {
    let sh = &SHARED;
    loop {
        let mut spins = 0;
        while sh.epoch.load(Ordering::Acquire) == seen && spins < SPIN {
            std::hint::spin_loop();
            spins += 1;
        }
        let mut s = sh.lock();
        while sh.epoch.load(Ordering::Acquire) == seen {
            s.sleepers += 1;
            s = sh.wake.wait(s).unwrap_or_else(PoisonError::into_inner);
            s.sleepers -= 1;
        }
        // the epoch only changes under the lock, so it matches the slot
        seen = sh.epoch.load(Ordering::Acquire);
        let (job, nt) = (s.job, s.nt);
        drop(s);
        let Some(job) = job else { continue };
        let Some(t) = join(sh, seen, nt) else {
            continue;
        };
        if let Err(p) = panic::catch_unwind(AssertUnwindSafe(|| job(t, nt))) {
            sh.lock().panic.get_or_insert(p);
        }
        sh.finished.fetch_add(1, Ordering::AcqRel);
        let s = sh.lock();
        if s.waiting {
            sh.done.notify_one();
        }
    }
}

/// Take the next index of job `epoch` (of `nt` threads), unless the job
/// is closed, superseded or has no index left.
fn join(sh: &Shared, epoch: usize, nt: usize) -> Option<usize> {
    let mut gate = sh.gate.load(Ordering::Acquire);
    loop {
        let t = (gate & JOINED) as usize + 1;
        if gate & !(CLOSED | JOINED) != opened(epoch) || gate & CLOSED != 0 || t >= nt {
            return None;
        }
        match sh
            .gate
            .compare_exchange_weak(gate, gate + 1, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => return Some(t),
            Err(now) => gate = now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Every index of a job runs exactly once, whatever `nt` the pool
    /// picked, and `nt` never exceeds the request.
    #[test]
    fn every_index_runs_exactly_once() {
        for max in [1, 2, 3, MAX_THREADS, usize::MAX] {
            for _ in 0..50 {
                let hits: Vec<AtomicU64> = (0..MAX_THREADS).map(|_| AtomicU64::new(0)).collect();
                let seen_nt = AtomicUsize::new(0);
                run(max, |t, nt| {
                    hits[t].fetch_add(1, Ordering::Relaxed);
                    seen_nt.store(nt, Ordering::Relaxed);
                });
                let nt = seen_nt.load(Ordering::Relaxed);
                assert!(nt >= 1 && nt <= max.min(threads()));
                for (t, h) in hits.iter().enumerate() {
                    let want = u64::from(t < nt);
                    assert_eq!(h.load(Ordering::Relaxed), want, "index {t} of {nt}");
                }
            }
        }
    }

    /// A panic on any index reaches the caller, and the pool keeps
    /// working afterwards.
    #[test]
    fn panic_propagates_and_pool_survives() {
        for bad in [0, 1] {
            let caught = panic::catch_unwind(|| {
                run(usize::MAX, |t, nt| {
                    if t == bad.min(nt - 1) {
                        panic!("job {t} failed");
                    }
                })
            });
            let msg = caught.expect_err("panic must propagate");
            let msg = msg.downcast_ref::<String>().expect("formatted message");
            assert!(msg.contains("failed"), "{msg}");
        }
        let sum = AtomicUsize::new(0);
        run(usize::MAX, |t, _| {
            sum.fetch_add(t + 1, Ordering::Relaxed);
        });
        assert!(sum.load(Ordering::Relaxed) >= 1);
    }

    /// Two threads calling at once both finish; one of them may run
    /// inline.
    #[test]
    fn concurrent_callers_both_finish() {
        let total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..200 {
                        let ran = AtomicUsize::new(0);
                        run(usize::MAX, |_, _| {
                            ran.fetch_add(1, Ordering::Relaxed);
                        });
                        assert!(ran.load(Ordering::Relaxed) >= 1);
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 400);
    }

    /// A call from inside a job runs inline with `nt = 1` instead of
    /// waiting for the pool it is running on.
    #[test]
    fn nested_call_runs_inline() {
        let inner = AtomicUsize::new(0);
        run(usize::MAX, |_, _| {
            run(usize::MAX, |t, nt| {
                assert_eq!((t, nt), (0, 1));
                inner.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(inner.load(Ordering::Relaxed) >= 1);
    }
}
