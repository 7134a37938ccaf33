//! Serving queue: the `SweepRunner` as a job server — specs go in,
//! each free pool thread takes the next one in spec order, per-job
//! outcomes stream out in completion order, and the returned vector is
//! still in spec order, bit-identical to a serial run. This is the
//! queue underneath `dlk sweep` and the `dlk serve` spool daemon.
//!
//! Run with: `cargo run --example serving_queue`

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dram_locker::sim::{catalog, JobStatus, SweepRunner};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small batch of named scenarios from the catalog, as specs.
    let specs: Vec<_> = catalog()
        .into_iter()
        .filter(|entry| entry.name.starts_with("hammer-vs-"))
        .map(|entry| entry.spec)
        .collect();
    println!("queueing {} specs on {} workers", specs.len(), SweepRunner::parallel().threads());

    // 1. The progress callback fires once per job, in completion order,
    //    from worker threads — this is where `dlk sweep` streams CSV
    //    rows and `dlk serve` appends its checkpoint journal.
    let streamed = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&streamed);
    let outcomes = SweepRunner::parallel()
        .timeout(Duration::from_secs(30)) // a hung job can't wedge the queue
        .on_progress(move |outcome| {
            seen.fetch_add(1, Ordering::Relaxed);
            println!(
                "  [{}] {} on worker {:?} in {:?}",
                outcome.status().token(),
                outcome.label,
                outcome.worker,
                outcome.wall,
            );
            true // returning false would cancel the rest of the queue
        })
        .run_jobs(&specs);
    assert_eq!(streamed.load(Ordering::Relaxed), specs.len());

    // 2. Outcomes come back in spec order regardless of which worker
    //    finished first, and agree bit-for-bit with a serial run.
    let serial = SweepRunner::serial().run_jobs(&specs);
    for (parallel_out, serial_out) in outcomes.iter().zip(&serial) {
        assert_eq!(parallel_out.label, serial_out.label);
        assert_eq!(
            parallel_out.report.as_ref().ok(),
            serial_out.report.as_ref().ok(),
            "parallel scheduling must not change results"
        );
    }
    let done = outcomes.iter().filter(|o| o.status() == JobStatus::Done).count();
    println!("{done}/{} done, results in spec order, bit-identical to serial", outcomes.len());

    // 3. Panics are isolated: a poisoned job is one failed outcome, not
    //    a crashed queue (this is what keeps the spool daemon alive).
    //    Hush the default hook so the intentional panic doesn't splat a
    //    backtrace over the demo output.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mixed = SweepRunner::parallel().run_fn(4, |index| {
        if index == 2 {
            panic!("job 2 is poisoned");
        }
        Err(dram_locker::sim::SimError::Build(format!("noop {index}")))
    });
    std::panic::set_hook(default_hook);
    assert_eq!(mixed[2].status(), JobStatus::Panicked);
    assert!(mixed.iter().all(|o| o.status() != JobStatus::Cancelled));
    println!("poisoned job isolated: {:?}", mixed[2].status());
    Ok(())
}
