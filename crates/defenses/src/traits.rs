//! The counter-tracker abstraction.
//!
//! Counter-based RowHammer defenses share one skeleton: observe
//! activations, maintain (approximate) per-row counts in some budgeted
//! structure, and fire a mitigation — a targeted row refresh (TRR) of
//! the would-be victims — when a count crosses the mitigation
//! threshold. They differ only in the counting structure, which is what
//! [`RowTracker`] captures. [`CounterDefenseHook`] adapts any tracker
//! into a [`DefenseHook`] so it can be mounted on the controller and
//! compared head-to-head with DRAM-Locker.

use dlk_dram::{DramDevice, RowAddr, RowId};
use dlk_memctrl::{DefenseHook, HookAction, MemRequest};

/// A row-activation tracker with a mitigation threshold.
///
/// Trackers must be `Send`: a mounted [`CounterDefenseHook`] lives
/// inside its channel's controller, and the sharded execution engine
/// steps channels on scoped threads.
pub trait RowTracker: Send {
    /// Observes one activation of `row`; returns `true` if the tracker
    /// demands mitigation of this row's neighbourhood now.
    fn on_activate(&mut self, row: RowId) -> bool;

    /// Resets window state (called once per refresh window).
    fn reset_window(&mut self);

    /// The tracker's SRAM/CAM budget in bits (for overhead reports).
    fn storage_bits(&self) -> u64;

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// Adapts a [`RowTracker`] into a controller [`DefenseHook`] that
/// issues targeted refreshes.
///
/// On mitigation the hook refreshes the aggressor's victims: in the
/// disturbance model this is a [`reset_row`](dlk_dram::HammerTracker::reset_row)
/// of the aggressor's counter (recharging the victims' cells makes the
/// accumulated disturbance harmless, which is equivalent to restarting
/// the aggressor's count).
#[derive(Debug)]
pub struct CounterDefenseHook<T> {
    tracker: T,
    /// Extra latency per request (tracker lookup), cycles.
    pub check_cycles: u64,
    mitigations: u64,
}

impl<T: RowTracker> CounterDefenseHook<T> {
    /// Wraps a tracker.
    pub fn new(tracker: T) -> Self {
        Self { tracker, check_cycles: 1, mitigations: 0 }
    }

    /// The wrapped tracker.
    pub fn tracker(&self) -> &T {
        &self.tracker
    }

    /// Mitigations (targeted refreshes) issued so far.
    pub fn mitigations(&self) -> u64 {
        self.mitigations
    }
}

impl<T: RowTracker> DefenseHook for CounterDefenseHook<T> {
    fn before_access(
        &mut self,
        _request: &MemRequest,
        _target: RowAddr,
        _dram: &mut DramDevice,
    ) -> HookAction {
        HookAction::Allow
    }

    fn on_activate(&mut self, row: RowAddr, dram: &mut DramDevice) {
        let id = dram.geometry().row_id(row);
        if self.tracker.on_activate(id) {
            dram.hammer_mut().reset_row(id);
            self.mitigations += 1;
        }
    }

    fn check_latency(&self) -> u64 {
        self.check_cycles
    }

    fn name(&self) -> &str {
        self.tracker.name()
    }

    fn actions(&self) -> u64 {
        self.mitigations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlk_dram::DramConfig;

    /// A tracker that mitigates every `n`-th activation of any row.
    struct EveryN {
        n: u64,
        count: u64,
    }

    impl RowTracker for EveryN {
        fn on_activate(&mut self, _row: RowId) -> bool {
            self.count += 1;
            self.count.is_multiple_of(self.n)
        }
        fn reset_window(&mut self) {
            self.count = 0;
        }
        fn storage_bits(&self) -> u64 {
            64
        }
        fn name(&self) -> &'static str {
            "every-n"
        }
    }

    #[test]
    fn hook_issues_mitigations_and_resets_hammer_count() {
        let mut dram = DramDevice::new(DramConfig::tiny_for_tests());
        let mut hook = CounterDefenseHook::new(EveryN { n: 2, count: 0 });
        let row = RowAddr::new(0, 0, 5);
        let id = dram.geometry().row_id(row);
        // Simulate the controller notifying activations.
        for _ in 0..4 {
            dram.hammer_mut();
            // Mirror what the device would count.
            dram.issue(dlk_dram::DramCommand::Act(row)).unwrap();
            dram.issue(dlk_dram::DramCommand::Pre(0)).unwrap();
            hook.on_activate(row, &mut dram);
        }
        assert_eq!(hook.mitigations(), 2);
        // After the last mitigation the hammer count was reset.
        assert_eq!(dram.hammer().count(id), 0);
    }

    #[test]
    fn hook_allows_all_requests() {
        let mut dram = DramDevice::new(DramConfig::tiny_for_tests());
        let mut hook = CounterDefenseHook::new(EveryN { n: 2, count: 0 });
        let req = MemRequest::read(0, 1);
        assert_eq!(hook.before_access(&req, RowAddr::new(0, 0, 0), &mut dram), HookAction::Allow);
    }
}
