//! Hydra (Qureshi et al., ISCA 2022): hybrid group + per-row tracking.
//!
//! A small SRAM array keeps one counter per *group* of rows. While a
//! group's aggregate count stays below the group threshold, no per-row
//! state exists. When it crosses, the group "splits": per-row counters
//! for that group are allocated (backed by DRAM in hardware, cached in
//! SRAM) and initialized to the group count, and further activations
//! are tracked exactly. Mitigation fires when a per-row count reaches
//! the row threshold.

use dlk_dram::RowId;

use crate::traits::{RowMap, RowTracker};

/// The Hydra tracker.
///
/// # Example
///
/// ```
/// use dlk_defenses::{Hydra, RowTracker};
/// use dlk_dram::RowId;
///
/// let mut tracker = Hydra::new(8, 4, 10);
/// for _ in 0..9 {
///     assert!(!tracker.on_activate(RowId(0)));
/// }
/// assert!(tracker.on_activate(RowId(0)));
/// ```
#[derive(Debug, Clone)]
pub struct Hydra {
    group_size: u64,
    group_threshold: u64,
    row_threshold: u64,
    groups: RowMap<u64, u64>,
    rows: RowMap<RowId, u64>,
    split_groups: u64,
}

impl Hydra {
    /// Creates a tracker: rows are grouped `group_size` at a time; a
    /// group splits at `group_threshold` aggregate activations; a row
    /// mitigates at `row_threshold`.
    pub fn new(group_size: u64, group_threshold: u64, row_threshold: u64) -> Self {
        Self {
            group_size,
            group_threshold,
            row_threshold,
            groups: RowMap::default(),
            rows: RowMap::default(),
            split_groups: 0,
        }
    }

    /// Standard sizing: group threshold at half the row threshold.
    pub fn for_threshold(trh: u64) -> Self {
        Self::new(128, trh / 4, trh / 2)
    }

    fn group_of(&self, row: RowId) -> u64 {
        row.0 / self.group_size
    }

    /// Whether a row's group has split to per-row tracking.
    pub fn is_split(&self, row: RowId) -> bool {
        self.groups.get(&self.group_of(row)).is_some_and(|&c| c >= self.group_threshold)
    }

    /// Groups that have split so far.
    pub fn split_groups(&self) -> u64 {
        self.split_groups
    }
}

impl RowTracker for Hydra {
    fn on_activate(&mut self, row: RowId) -> bool {
        let group = self.group_of(row);
        let group_count = self.groups.entry(group).or_insert(0);
        if *group_count < self.group_threshold {
            *group_count += 1;
            if *group_count == self.group_threshold {
                self.split_groups += 1;
            }
            false
        } else {
            // Per-row phase: the row inherits the (pessimistic) group
            // count on first sight, as in the paper.
            let count = self.rows.entry(row).or_insert(self.group_threshold);
            *count += 1;
            if *count >= self.row_threshold {
                *count = 0;
                true
            } else {
                false
            }
        }
    }

    fn reset_window(&mut self) {
        self.groups.clear();
        self.rows.clear();
    }

    fn storage_bits(&self) -> u64 {
        // SRAM group counters only (per-row counters live in DRAM).
        (self.groups.len().max(1) as u64) * 16
    }

    fn name(&self) -> &'static str {
        "hydra"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_phase_then_row_phase() {
        let mut tracker = Hydra::new(4, 6, 10);
        let row = RowId(1);
        // First 6 activations only move the group counter.
        for _ in 0..6 {
            assert!(!tracker.on_activate(row));
        }
        assert!(tracker.is_split(row));
        // Row inherits count 6; mitigates at 10.
        for _ in 0..3 {
            assert!(!tracker.on_activate(row));
        }
        assert!(tracker.on_activate(row));
    }

    #[test]
    fn sibling_rows_share_group_budget() {
        let mut tracker = Hydra::new(4, 6, 10);
        // Rows 0..3 share group 0: 6 activations split it even spread
        // over different rows.
        for i in 0..6u64 {
            tracker.on_activate(RowId(i % 4));
        }
        assert!(tracker.is_split(RowId(0)));
        assert_eq!(tracker.split_groups(), 1);
    }

    #[test]
    fn distant_rows_do_not_interact() {
        let mut tracker = Hydra::new(4, 6, 10);
        for _ in 0..6 {
            tracker.on_activate(RowId(0));
        }
        assert!(tracker.is_split(RowId(0)));
        assert!(!tracker.is_split(RowId(100)));
    }

    #[test]
    fn mitigation_cannot_be_evaded_below_trh() {
        // A row can never reach group_threshold + row_threshold
        // activations without mitigation.
        let mut tracker = Hydra::for_threshold(1000);
        let row = RowId(42);
        let mut unmitigated = 0u64;
        for _ in 0..5000 {
            if tracker.on_activate(row) {
                unmitigated = 0;
            } else {
                unmitigated += 1;
            }
            assert!(unmitigated < 1000, "row evaded mitigation for {unmitigated} acts");
        }
    }

    #[test]
    fn window_reset() {
        let mut tracker = Hydra::new(4, 2, 4);
        tracker.on_activate(RowId(0));
        tracker.on_activate(RowId(0));
        assert!(tracker.is_split(RowId(0)));
        tracker.reset_window();
        assert!(!tracker.is_split(RowId(0)));
    }
}
