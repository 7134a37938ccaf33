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
//!
//! Every tracker table is a `RowMap`, keyed through the fixed
//! `RowHasher`: a tracker runs on every activation, and a randomly
//! keyed hash would cost a SipHash per update and make any order read
//! from a table differ between processes.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use dlk_dram::{DramDevice, RowAddr, RowId};
use dlk_memctrl::{DefenseHook, HookAction, MemRequest};

/// A fixed multiply-rotate hash of row ids and group indices: one
/// multiply per key word, and the same table layout in every process.
/// `std`'s map picks buckets by the low hash bits, so `finish` folds
/// the product's well-mixed high half into them: ids that differ only
/// in high bits (rows a power-of-two stride apart, which an attacker's
/// trace can pick) spread over buckets instead of sharing one. Row ids
/// are bounded by the geometry, so a table holds at most one entry per
/// row.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RowHasher(u64);

impl Hasher for RowHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A tracker table: a `HashMap` keyed through [`RowHasher`].
pub(crate) type RowMap<K, V> = HashMap<K, V, BuildHasherDefault<RowHasher>>;

/// A row-activation tracker with a mitigation threshold.
///
/// Trackers must be `Send`: a mounted [`CounterDefenseHook`] lives
/// inside its channel's controller, and the sharded execution engine
/// deals channels over the worker pool.
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
/// the aggressor's count). When the device has passed a refresh window
/// since the last activation, the hook resets the tracker's window
/// state first, as the device reset its own hammer counts.
#[derive(Debug)]
pub struct CounterDefenseHook<T> {
    tracker: T,
    /// Extra latency per request (tracker lookup), cycles.
    pub check_cycles: u64,
    mitigations: u64,
    /// The device's refresh-window count the tracker's state is from.
    window: u64,
}

impl<T: RowTracker> CounterDefenseHook<T> {
    /// Wraps a tracker.
    pub fn new(tracker: T) -> Self {
        Self { tracker, check_cycles: 1, mitigations: 0, window: 0 }
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
        if self.window != dram.refresh_windows() {
            self.window = dram.refresh_windows();
            self.tracker.reset_window();
        }
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
    fn row_hash_is_fixed_and_spreads_strided_rows() {
        use std::hash::{BuildHasher, Hash};
        let hash = |row: RowId| BuildHasherDefault::<RowHasher>::default().hash_one(row);
        assert_eq!(hash(RowId(1)), 0x517c_c1b7_2722_0a95 ^ 0x517c_c1b7);
        // Neighbouring rows, and rows 64 or 2^20 apart, fill about as
        // many of 64 low-bit buckets as 64 random keys would (about 41).
        let buckets = |stride: u64| {
            let low: std::collections::BTreeSet<u64> =
                (0..64).map(|i| hash(RowId(i * stride)) % 64).collect();
            low.len()
        };
        for stride in [1, 64, 1 << 20] {
            assert!(buckets(stride) >= 36, "stride {stride}: {} buckets", buckets(stride));
        }
        let mut bytes = RowHasher::default();
        0x0102_0304_0506_0708u64.to_le_bytes().as_slice().hash(&mut bytes);
        assert_ne!(bytes.finish(), 0);
    }

    /// With auto-refresh on, counts restart every refresh window, as
    /// the device's hammer counts do: two rows alternating over many
    /// windows, each activated fewer times per window than the
    /// threshold but ten times as often in all, are never mitigated by
    /// counter-per-row, nor swapped away by RRS or SHADOW.
    #[test]
    fn counts_restart_at_each_refresh_window() {
        use crate::{CounterPerRow, RowSwapDefense, Shadow, SwapPolicy};

        let threshold = 200;
        let hooks: [Box<dyn DefenseHook>; 3] = [
            Box::new(CounterDefenseHook::new(CounterPerRow::new(threshold))),
            Box::new(RowSwapDefense::new(SwapPolicy::Randomized, threshold, 1)),
            Box::new(Shadow::new(threshold, 1)),
        ];
        for mut hook in hooks {
            let mut config = DramConfig::tiny_for_tests();
            config.auto_refresh = true;
            config.timing.trefi = 2_000;
            config.timing.trefw = 10_000;
            let mut dram = DramDevice::new(config);
            let rows = [RowAddr::new(0, 0, 10), RowAddr::new(0, 0, 40)];
            for _ in 0..10 * threshold {
                for row in rows {
                    // Serve a refresh that fell due first: it closes the
                    // bank.
                    dram.advance(0);
                    if dram.open_row_of(0).is_some() {
                        dram.issue(dlk_dram::DramCommand::Pre(0)).unwrap();
                    }
                    dram.issue(dlk_dram::DramCommand::Act(row)).unwrap();
                    hook.on_activate(row, &mut dram);
                }
            }
            // 27 windows, so ~74 activations of each row per window.
            assert_eq!(dram.refresh_windows(), 27);
            assert_eq!(hook.actions(), 0, "{}", hook.name());
        }
    }

    #[test]
    fn hook_allows_all_requests() {
        let mut dram = DramDevice::new(DramConfig::tiny_for_tests());
        let mut hook = CounterDefenseHook::new(EveryN { n: 2, count: 0 });
        let req = MemRequest::read(0, 1);
        assert_eq!(hook.before_access(&req, RowAddr::new(0, 0, 0), &mut dram), HookAction::Allow);
    }
}
