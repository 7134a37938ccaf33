//! The process's one worker pool.
//!
//! Every parallel section of the workspace runs through [`deal`]: a DNN
//! network's batch passes and bit-search trials, a sharded engine's
//! channel replays and a sweep's jobs. The pool starts
//! [`threads`]` − 1` helper threads the first time a deal wants one and
//! keeps them for the life of the process, so a dispatch wakes a helper
//! instead of spawning a thread.
//!
//! - **Work-first.** The caller takes jobs itself, in job order, like
//!   any helper. A helper that enters after the last job was taken
//!   takes none and builds no state, and the caller waits only for the
//!   helpers that entered.
//! - **One holder.** One deal at a time holds the helpers. A deal made
//!   inside a pool job (a split pass inside a sweep job), or on another
//!   thread while the helpers are held, runs its jobs inline on its own
//!   thread. Runnable threads therefore never outnumber the cores, and
//!   no deal waits for another.
//! - **Spin, then park.** After each dispatch a helper spins
//!   `SPIN_BUDGET` iterations watching for the next one, then parks
//!   on a condition variable. The budget is an iteration count, not a
//!   time: the root `clippy.toml` bans wall-clock types and sleeps from
//!   this crate (DLK003).
//!
//! [`threads`] is the workspace's one reading of the host's parallelism
//! that sizes work (the obs crate's build record only reports it), and
//! this module is the only one that starts threads (DLK005): `clippy.toml`
//! bans thread starts, and only [`spawn_detached`] and the helpers'
//! start allow them.
//!
//! ```
//! use dlk_memctrl::pool;
//!
//! // Results come back in job order, whoever ran each job.
//! let squares = pool::deal((0..6).collect(), pool::threads(), || (), |(), n: u64| n * n);
//! assert_eq!(squares, [0, 1, 4, 9, 16, 25]);
//! ```

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, Once, OnceLock, PoisonError};

/// Iterations of `spin_loop` a helper spends watching for the next
/// dispatch before it parks: ~0.3 ms on the 2-vCPU x86-64 host it was
/// tuned on. There, against scoped threads spawned per call, over four
/// alternating rounds of perfbench `bfa-cnn` (seed 1), 2,000 iterations
/// (~26 µs) cut `scenario_ms.p50` by 20%, 20,000 by 37% and 200,000
/// (~3 ms) by 38%. Beside a CPU-bound process, where a spinning helper
/// takes a core from it, 20,000 cut `setup_s` by 26% and 200,000 by 1%.
const SPIN_BUDGET: u32 = 20_000;

/// A share function with its lifetime erased: runs jobs until none is
/// left. Only [`Pool::dispatch`] makes one.
type Share = &'static (dyn Fn() + Sync);

/// The cores this process may run on: the host's available
/// parallelism, read once per process, and at least 1.
pub fn threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Runs `work` on every one of `jobs` over at most `workers` threads
/// (at most one per job, and at most [`threads`]): the caller and each
/// pool helper that enters take the next job no one has taken, in job
/// order, until none is left. Each participant starts from its own
/// `state()`, built when it takes its first job. A helper that starts
/// late or runs slow, on a busy core, takes fewer jobs instead of
/// holding the others up. Returns the results in job order.
///
/// A deal made inside a pool job, or while another thread holds the
/// helpers, runs every job on the caller's thread. A job's panic
/// unwinds on the caller once every helper has left the deal.
pub fn deal<J: Send, S, T: Send>(
    jobs: Vec<J>,
    workers: usize,
    state: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, J) -> T + Sync,
) -> Vec<T> {
    // The host's parallelism is read only for work that can split.
    let seats = match workers.min(jobs.len()) {
        0 | 1 => 0,
        wanted => wanted.min(threads()) - 1,
    };
    if seats > 0 {
        POOL.start();
    }
    deal_on(&POOL, seats, jobs, state, work)
}

/// Starts `task` on a thread of its own that no one joins: a job whose
/// wall clock is bounded (a sweep's timeout) runs there, and is left to
/// finish alone if its caller stops waiting.
#[allow(clippy::disallowed_methods, reason = "the pool is where threads start")]
pub fn spawn_detached(task: impl FnOnce() + Send + 'static) {
    std::thread::spawn(task);
}

/// [`deal`] on `pool`, offering `seats` helpers a place.
fn deal_on<J: Send, S, T: Send>(
    pool: &Pool,
    seats: usize,
    jobs: Vec<J>,
    state: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, J) -> T + Sync,
) -> Vec<T> {
    let count = jobs.len();
    let queue = Mutex::new(jobs.into_iter().enumerate());
    // Nothing panics while the queue is locked, so it is never poisoned.
    let next = || queue.lock().unwrap_or_else(PoisonError::into_inner).next();
    let done = Mutex::new(Vec::with_capacity(count));
    let share = || {
        let Some((i, job)) = next() else { return };
        let mut state = state();
        let mut mine = vec![(i, work(&mut state, job))];
        while let Some((i, job)) = next() {
            mine.push((i, work(&mut state, job)));
        }
        done.lock().unwrap_or_else(PoisonError::into_inner).append(&mut mine);
    };
    if seats == 0 || !pool.dispatch(seats, &share) {
        share();
    }
    let mut results: Vec<Option<T>> = (0..count).map(|_| None).collect();
    for (i, result) in done.into_inner().unwrap_or_else(PoisonError::into_inner) {
        results[i] = Some(result);
    }
    results.into_iter().flatten().collect()
}

/// The helpers' meeting point.
static POOL: Pool = Pool::new();

/// What a helper may enter, under [`Pool::open`]'s lock.
struct Open {
    /// The held deal's share, while the deal is open.
    share: Option<Share>,
    /// Helpers the open deal still takes.
    seats: usize,
    /// Helpers asleep on [`Pool::wake`].
    parked: usize,
}

struct Pool {
    open: Mutex<Open>,
    wake: Condvar,
    /// Dispatches so far; spinning helpers watch it change.
    dispatches: AtomicU64,
    /// Helpers running the held deal's share.
    inside: AtomicUsize,
    /// Whether a deal holds the helpers.
    held: AtomicBool,
    started: Once,
}

impl Pool {
    const fn new() -> Self {
        Self {
            open: Mutex::new(Open { share: None, seats: 0, parked: 0 }),
            wake: Condvar::new(),
            dispatches: AtomicU64::new(0),
            inside: AtomicUsize::new(0),
            held: AtomicBool::new(false),
            started: Once::new(),
        }
    }

    /// Starts the process's helpers, once. A helper the host refuses
    /// to start is one seat nobody takes: the caller does its jobs.
    #[allow(clippy::disallowed_methods, reason = "the pool is where threads start")]
    fn start(&'static self) {
        self.started.call_once(|| {
            let seen = self.dispatches.load(Ordering::Acquire);
            for i in 1..threads() {
                let helper = std::thread::Builder::new().name(format!("dlk-pool-{i}"));
                // The helpers serve until the process exits; none is joined.
                drop(helper.spawn(move || self.help(seen)));
            }
        });
    }

    /// The open deal's bookkeeping. Every update of [`Open`] is one
    /// assignment, so a poisoned lock still holds a valid value.
    fn lock(&self) -> MutexGuard<'_, Open> {
        self.open.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `share` on the caller and on up to `seats` helpers, and
    /// returns once each of them has returned from it; `false`, running
    /// nothing, when another deal holds the helpers. A panic in any
    /// copy of `share` unwinds here after the helpers have left.
    fn dispatch(&self, seats: usize, share: &(dyn Fn() + Sync)) -> bool {
        if self.held.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed).is_err() {
            return false;
        }
        let panicked = Mutex::new(None::<Box<dyn Any + Send>>);
        let guarded = || {
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(share)) {
                panicked.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(payload);
            }
        };
        let guarded: &(dyn Fn() + Sync) = &guarded;
        // SAFETY: `guarded` borrows this frame. Helpers reach it only
        // through `open.share`, and only while they are counted in
        // `inside`: a helper takes a seat and counts itself under the
        // lock that `close` takes to clear the share, and uncounts
        // itself once it no longer uses the reference. `guarded`
        // catches every panic, so nothing unwinds between here and the
        // `close` below, which returns only once `inside` is zero.
        // The reference therefore outlives every use of it.
        let erased = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Share>(guarded) };
        let wakes = {
            let mut open = self.lock();
            open.share = Some(erased);
            open.seats = seats;
            // Bumped under the lock: a helper about to park reads it
            // under the same lock, so it cannot miss this dispatch.
            self.dispatches.fetch_add(1, Ordering::Release);
            seats.min(open.parked)
        };
        for _ in 0..wakes {
            self.wake.notify_one();
        }
        guarded();
        self.close();
        self.held.store(false, Ordering::Release);
        match panicked.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some(payload) => panic::resume_unwind(payload),
            None => true,
        }
    }

    /// Lets no further helper enter the open deal, then waits for the
    /// ones inside it to leave.
    fn close(&self) {
        self.lock().share = None;
        // The share is drained: whoever is inside is finishing its last
        // job, so yield the core rather than sleep.
        while self.inside.load(Ordering::Acquire) > 0 {
            std::thread::yield_now();
        }
    }

    /// A helper's life: wait for a dispatch, take a seat in it if one
    /// is left, run the share, and wait for the next.
    fn help(&self, mut seen: u64) {
        loop {
            seen = self.next_dispatch(seen);
            self.enter();
        }
    }

    /// Takes a seat in the open deal, if there is one with a seat left,
    /// and runs its share.
    fn enter(&self) {
        let share = {
            let mut open = self.lock();
            match open.share {
                Some(share) if open.seats > 0 => {
                    open.seats -= 1;
                    self.inside.fetch_add(1, Ordering::Relaxed);
                    share
                }
                _ => return,
            }
        };
        share();
        // Pairs with `close`'s Acquire load: the deal sees all this
        // helper did before it returns.
        self.inside.fetch_sub(1, Ordering::Release);
    }

    /// Spins, then parks, until a dispatch after the `seen`-th one;
    /// returns the dispatch count then.
    fn next_dispatch(&self, seen: u64) -> u64 {
        for _ in 0..SPIN_BUDGET {
            let now = self.dispatches.load(Ordering::Acquire);
            if now != seen {
                return now;
            }
            std::hint::spin_loop();
        }
        let mut open = self.lock();
        open.parked += 1;
        loop {
            let now = self.dispatches.load(Ordering::Acquire);
            if now != seen {
                open.parked -= 1;
                return now;
            }
            open = self.wake.wait(open).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "tests race the pool against threads of their own")]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc, Barrier};
    use std::thread;
    use std::time::Duration;

    /// Serializes these tests, so that no other test's deal holds the
    /// helpers while one of them expects to use them.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn results_come_back_in_job_order_for_any_count_and_workers() {
        let _serial = serial();
        for count in 0..=12usize {
            for workers in 0..=5 {
                let runs = AtomicUsize::new(0);
                let got = deal(
                    (0..count).collect(),
                    workers,
                    || (),
                    |(), job| {
                        runs.fetch_add(1, Ordering::Relaxed);
                        job * 10
                    },
                );
                let want: Vec<usize> = (0..count).map(|job| job * 10).collect();
                assert_eq!(got, want, "{count} jobs on {workers} workers");
                assert_eq!(runs.into_inner(), count, "each job runs once");
            }
        }
    }

    #[test]
    fn each_participant_builds_one_state_for_the_jobs_it_takes() {
        let _serial = serial();
        for _ in 0..200 {
            let states = AtomicUsize::new(0);
            let runners = Mutex::new(std::collections::HashSet::new());
            let got = deal(
                (0..6).collect(),
                2,
                || states.fetch_add(1, Ordering::Relaxed),
                |_, job: u32| {
                    runners.lock().unwrap().insert(thread::current().id());
                    job + 1
                },
            );
            assert_eq!(got, [1, 2, 3, 4, 5, 6]);
            assert_eq!(states.into_inner(), runners.into_inner().unwrap().len());
        }
    }

    /// A local pool with no helper threads: the test's own threads play
    /// the helpers by calling `enter` at chosen moments.
    fn local_pool() -> &'static Pool {
        Box::leak(Box::new(Pool::new()))
    }

    #[test]
    fn the_caller_waits_for_no_helper_that_did_not_enter() {
        let pool = local_pool();
        let caller = thread::current().id();
        let ran =
            deal_on(pool, 3, (0..5).collect(), || (), |(), job: u8| (job, thread::current().id()));
        assert!(ran.iter().all(|&(_, id)| id == caller));
        assert_eq!(ran.iter().map(|&(job, _)| job).collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
        assert!(!pool.held.load(Ordering::Acquire), "the deal let go of the helpers");
    }

    #[test]
    fn a_helper_that_enters_after_the_queue_drained_takes_no_job() {
        let pool = local_pool();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let (left_tx, left_rx) = mpsc::channel::<()>();
        let helper = thread::spawn(move || {
            go_rx.recv().unwrap();
            pool.enter();
            left_tx.send(()).unwrap();
        });
        let left_rx = Mutex::new(left_rx);
        let states = AtomicUsize::new(0);
        let ran = deal_on(
            pool,
            1,
            (0..3).collect(),
            || states.fetch_add(1, Ordering::Relaxed),
            |_, job: u8| {
                if job == 2 {
                    // The last job is taken, so the queue is empty: the
                    // helper entering now finds nothing to do.
                    go_tx.send(()).unwrap();
                    left_rx.lock().unwrap().recv().unwrap();
                }
                thread::current().id()
            },
        );
        helper.join().unwrap();
        assert_eq!(ran, [thread::current().id(); 3], "the caller ran every job");
        assert_eq!(states.into_inner(), 1, "the late helper built no state");
        assert_eq!(pool.inside.load(Ordering::Acquire), 0);
    }

    #[test]
    fn a_panic_unwinds_on_the_caller_after_every_entered_helper_left() {
        let pool = local_pool();
        let caller = thread::current().id();
        let (enter_tx, enter_rx) = mpsc::channel::<()>();
        let helper = thread::spawn(move || {
            enter_rx.recv().unwrap();
            pool.enter();
        });
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (panicking_tx, panicking_rx) = mpsc::channel::<()>();
        let (started_rx, panicking_rx) = (Mutex::new(started_rx), Mutex::new(panicking_rx));
        let finished = AtomicBool::new(false);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            deal_on(
                pool,
                1,
                vec![(); 2],
                || (),
                |(), ()| {
                    if thread::current().id() == caller {
                        enter_tx.send(()).unwrap();
                        started_rx.lock().unwrap().recv().unwrap();
                        panicking_tx.send(()).unwrap();
                        panic!("deliberate");
                    }
                    started_tx.send(()).unwrap();
                    panicking_rx.lock().unwrap().recv().unwrap();
                    // Still at work while the caller's job unwinds.
                    thread::sleep(Duration::from_millis(30));
                    finished.store(true, Ordering::Release);
                },
            )
        }));
        let payload = outcome.expect_err("the caller's panic comes back");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"deliberate"));
        assert!(finished.load(Ordering::Acquire), "the deal waited for its helper");
        helper.join().unwrap();
        assert!(!pool.held.load(Ordering::Acquire));
    }

    #[test]
    fn a_jobs_panic_unwinds_on_the_caller_and_the_pool_stays_usable() {
        let _serial = serial();
        for _ in 0..4 {
            let outcome = panic::catch_unwind(|| {
                deal((0..8).collect(), 2, || (), |(), job: usize| assert_ne!(job, 3, "job {job}"))
            });
            let payload = outcome.expect_err("job 3's panic comes back");
            let message = payload.downcast_ref::<String>().expect("a formatted message");
            assert!(message.contains("job 3"), "{message}");
            assert_eq!(deal(vec![1, 2, 3], 2, || (), |(), n: u8| n * 2), [2, 4, 6]);
        }
    }

    #[test]
    fn a_deal_inside_a_pool_job_runs_inline_and_completes() {
        let _serial = serial();
        let sums = deal(
            (0..6).collect(),
            threads(),
            || (),
            |(), outer: u64| {
                let inner = thread::current().id();
                let parts = deal(
                    (0..5).collect(),
                    threads(),
                    || (),
                    |(), k: u64| {
                        assert_eq!(
                            thread::current().id(),
                            inner,
                            "a nested deal stays on its thread"
                        );
                        outer * k
                    },
                );
                parts.iter().sum::<u64>()
            },
        );
        assert_eq!(sums, [0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn deals_from_two_threads_at_once_both_complete() {
        let _serial = serial();
        let barrier = Arc::new(Barrier::new(2));
        let deals: Vec<_> = (0..2u64)
            .map(|side| {
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    barrier.wait();
                    (0..50)
                        .map(|round| {
                            deal(
                                (0..16).collect(),
                                threads(),
                                || (),
                                |(), k: u64| side * 1000 + round + k,
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for (side, handle) in deals.into_iter().enumerate() {
            let rounds = handle.join().unwrap();
            for (round, got) in rounds.into_iter().enumerate() {
                let want: Vec<u64> =
                    (0..16).map(|k| side as u64 * 1000 + round as u64 + k).collect();
                assert_eq!(got, want);
            }
        }
    }
}
