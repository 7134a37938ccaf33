//! Property: a defense hook mounted on a built scenario's controller
//! sees exactly the same activation stream as the same hook hand-wired
//! onto a raw `MemoryController` (the legacy path). The scenario
//! pipeline adds nothing and hides nothing from the hook.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use dram_locker::attacks::hammer::{HammerConfig, HammerDriver};
use dram_locker::defenses::{CounterDefenseHook, RowTracker};
use dram_locker::dram::RowId;
use dram_locker::memctrl::{MemCtrlConfig, MemRequest, MemoryController};
use dram_locker::sim::{AttackSpec, Budget, Scenario, VictimSpec};

/// A tracker that records every activation it is shown into a shared
/// log the test reads back.
struct SpyTracker {
    threshold: u64,
    count: u64,
    log: Arc<Mutex<Vec<u64>>>,
}

impl SpyTracker {
    fn new(threshold: u64) -> (Self, Arc<Mutex<Vec<u64>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        (Self { threshold, count: 0, log: log.clone() }, log)
    }
}

impl RowTracker for SpyTracker {
    fn on_activate(&mut self, row: RowId) -> bool {
        self.log.lock().unwrap().push(row.0);
        self.count += 1;
        if self.count >= self.threshold {
            self.count = 0;
            true
        } else {
            false
        }
    }

    fn reset_window(&mut self) {
        self.count = 0;
    }

    fn storage_bits(&self) -> u64 {
        64
    }

    fn name(&self) -> &'static str {
        "spy"
    }
}

proptest! {
    /// For arbitrary victim rows, thresholds and budgets, the builder
    /// path and the legacy hand-wired path drive identical activation
    /// streams into the mounted defense.
    #[test]
    fn builder_mounted_hook_sees_the_legacy_activation_stream(
        victim_row in 2u64..60,
        threshold in 2u64..12,
        budget in 64u64..512,
    ) {
        let bit = 7usize;
        let fill = 0xA5u8;

        // Path 1: the Scenario builder, with the hook mounted between
        // build (which deploys the victim) and run. Its report phase
        // ends with one trusted integrity read of the victim row.
        let (tracker, scenario_log) = SpyTracker::new(threshold);
        let mut run = Scenario::builder()
            .victim(VictimSpec::row(victim_row, fill))
            .attack(AttackSpec::Hammer { bit })
            .budget(Budget { max_activations: budget, check_interval: 8, iterations: 1 })
            .build()
            .expect("scenario builds");
        run.controller_mut().set_hook(Box::new(CounterDefenseHook::new(tracker)));
        let report = run.run().expect("scenario runs");

        // Path 2: the legacy wiring — seed the row, mount the hook by
        // hand, run the same campaign, read the row back.
        let config = MemCtrlConfig::tiny_for_tests();
        let row_bytes = config.dram.geometry.row_bytes;
        let (tracker, legacy_log) = SpyTracker::new(threshold);
        let mut ctrl = MemoryController::with_hook(config, Box::new(CounterDefenseHook::new(tracker)));
        let (row, _) = ctrl.mapper().to_dram(victim_row * row_bytes as u64).expect("maps");
        ctrl.dram_mut().write_row(row, &vec![fill; row_bytes]).expect("seed");
        let driver = HammerDriver::new(HammerConfig { max_activations: budget, check_interval: 8 });
        let outcome = driver.hammer_bit(&mut ctrl, row, bit).expect("campaign runs");
        let done = ctrl
            .service(MemRequest::read(victim_row * row_bytes as u64, row_bytes))
            .expect("victim read");

        prop_assert_eq!(scenario_log.lock().unwrap().clone(), legacy_log.lock().unwrap().clone());
        // The surfaced outcome matches the raw driver's too.
        prop_assert_eq!(report.landed_flips > 0, outcome.flipped);
        prop_assert_eq!(report.requests, outcome.requests);
        prop_assert_eq!(report.denied, outcome.denied);
        prop_assert_eq!(
            report.victims[0].data_intact,
            Some(done.data.as_deref() == Some(vec![fill; row_bytes].as_slice()))
        );
    }
}
