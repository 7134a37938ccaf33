//! A threaded sweep really hands its jobs to the pool's helpers, and a
//! cancel leaves only the jobs already in flight to finish.
//!
//! The pool runs a sweep inline while another thread holds it, so these
//! tests live in a binary of their own and take turns on [`SERIAL`].
//! On a one-core host the pool has no helper and both return early.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use dram_locker::memctrl::pool;
use dram_locker::sim::{JobStatus, RunReport, SimError, SweepRunner};

/// Serializes the tests, so that neither holds the pool while the
/// other expects its helpers.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn failing_job(index: usize) -> Result<RunReport, SimError> {
    Err(SimError::Build(format!("job {index}")))
}

#[test]
#[allow(
    clippy::disallowed_methods,
    reason = "one job sleeps so that the other worker must take the rest"
)]
fn a_free_worker_takes_every_job_while_another_sleeps() {
    let _serial = serial();
    if pool::threads() < 2 {
        return;
    }
    let outcomes = SweepRunner::with_threads(2).run_fn(8, |index| {
        if index == 0 {
            std::thread::sleep(Duration::from_millis(120));
        }
        failing_job(index)
    });
    assert!(outcomes.iter().all(|o| o.status() == JobStatus::Failed));
    let sleeper = outcomes[0].worker.expect("job 0 ran");
    for outcome in &outcomes[1..] {
        let worker = outcome.worker.expect("every job ran");
        assert_ne!(worker, sleeper, "job {} waited for the sleeping worker", outcome.index);
    }
}

#[test]
#[allow(clippy::disallowed_methods, reason = "jobs sleep so that a cancel finds others in flight")]
fn a_cancel_lets_only_in_flight_jobs_finish() {
    let _serial = serial();
    if pool::threads() < 2 {
        return;
    }
    let outcomes =
        SweepRunner::with_threads(pool::threads()).on_progress(|_| false).run_fn(32, |index| {
            std::thread::sleep(Duration::from_millis(5));
            failing_job(index)
        });
    assert_eq!(outcomes.len(), 32);
    let mut ran = 0;
    for outcome in &outcomes {
        match outcome.status() {
            JobStatus::Failed => {
                assert!(outcome.worker.is_some(), "job {} ran on no worker", outcome.index);
                ran += 1;
            }
            JobStatus::Cancelled => assert_eq!(outcome.worker, None),
            other => panic!("job {} ended {other:?}", outcome.index),
        }
    }
    // Each thread checks for a cancel before it starts a job, and
    // cancels on finishing its first: no thread runs two.
    assert!((1..=pool::threads()).contains(&ran), "{ran} jobs ran");
}
