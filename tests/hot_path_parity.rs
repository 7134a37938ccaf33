//! Parity pin for the controller's one servicing path: queued
//! `submit` + `run_to_completion` (FCFS) must be behaviourally
//! identical to direct `service` — same completions, same statistics,
//! same device state — although the queued path maps each address at
//! submit time and the direct path maps it at service time.

use dram_locker::locker::{DramLocker, LockerConfig};
use dram_locker::memctrl::{MemCtrlConfig, MemRequest, MemoryController};

/// Deterministic xorshift for the request mix.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// A randomized but always-mappable request mix: reads and writes
/// across every row, a slice of untrusted requests into an
/// OS-protected range (→ os_faults), and traffic into locker-locked
/// rows (→ denials).
fn request_mix(seed: u64, count: usize, row_bytes: u64, total_rows: u64) -> Vec<MemRequest> {
    let mut rng = Rng(seed | 1);
    (0..count)
        .map(|_| {
            let row = rng.next() % total_rows;
            let offset = rng.next() % (row_bytes - 8);
            let addr = row * row_bytes + offset;
            let len = 1 + (rng.next() % 8) as usize;
            let request = if rng.next().is_multiple_of(4) {
                MemRequest::write(addr, vec![(rng.next() & 0xFF) as u8; len])
            } else {
                MemRequest::read(addr, len)
            };
            if rng.next().is_multiple_of(3) {
                request.untrusted()
            } else {
                request
            }
        })
        .collect()
}

/// Builds a controller with an OS-protected range and a DRAM-Locker
/// hook with a few locked rows, so the mix exercises every completion
/// flavour (served, os-faulted, denied).
fn controller_under_test() -> MemoryController {
    let config = MemCtrlConfig::tiny_for_tests();
    let row_bytes = config.dram.geometry.row_bytes as u64;
    let mut locker = DramLocker::new(LockerConfig::default(), config.dram.geometry);
    locker.lock_phys_range(3 * row_bytes, 16 * row_bytes).expect("lock rows 3..16");
    let mut ctrl = MemoryController::with_hook(config, Box::new(locker));
    ctrl.os_protect_range(32 * row_bytes, 64 * row_bytes);
    ctrl
}

#[test]
fn queued_fcfs_run_is_identical_to_direct_service() {
    for seed in [1u64, 42, 0xDEAD_BEEF] {
        let mut direct = controller_under_test();
        let mut queued = controller_under_test();
        let geometry = direct.geometry();
        let mix = request_mix(seed, 400, geometry.row_bytes as u64, geometry.total_rows());

        let mut singles = Vec::with_capacity(mix.len());
        for request in &mix {
            singles.push(direct.service(request.clone()).expect("mappable"));
        }
        for request in mix {
            queued.submit(request);
        }
        let stepped = queued.run_to_completion().expect("mappable");

        assert_eq!(singles, stepped, "completions diverged for seed {seed}");
        assert_eq!(direct.stats(), queued.stats(), "stats diverged for seed {seed}");
        assert_eq!(direct.dram().stats(), queued.dram().stats(), "device diverged for seed {seed}");
        // The mix must actually exercise all three completion paths,
        // or the parity claim is vacuous.
        let stats = direct.stats();
        assert!(stats.served > 0, "mix never reached the device");
        assert!(stats.os_faults > 0, "mix never OS-faulted");
        assert!(stats.denied > 0, "mix never hit a locked row");
    }
}
