//! TWiCE (Lee et al., ISCA 2019): time-window counters with pruning.
//!
//! TWiCE keeps a counter table in SRAM/CAM and exploits the fact that a
//! dangerous aggressor must sustain a high activation *rate* across the
//! whole refresh window. The window is divided into pruning intervals;
//! at each interval boundary, entries whose count is below a growing
//! "benign" line (`interval_index × prune_rate`) are evicted — they can
//! no longer reach the threshold in time. Rows that survive long enough
//! and cross the threshold are mitigated.

use dlk_dram::RowId;

use crate::traits::{RowMap, RowTracker};

/// The TWiCE tracker.
///
/// # Example
///
/// ```
/// use dlk_defenses::{Twice, RowTracker};
/// use dlk_dram::RowId;
///
/// let mut tracker = Twice::new(8, 100, 10);
/// for _ in 0..7 {
///     assert!(!tracker.on_activate(RowId(3)));
/// }
/// assert!(tracker.on_activate(RowId(3)));
/// ```
#[derive(Debug, Clone)]
pub struct Twice {
    threshold: u64,
    prune_interval: u64,
    prune_rate: u64,
    counters: RowMap<RowId, u64>,
    activations_in_interval: u64,
    intervals_elapsed: u64,
    pruned: u64,
}

impl Twice {
    /// Creates a tracker mitigating at `threshold`, pruning every
    /// `prune_interval` activations entries below the benign line that
    /// grows by `prune_rate` per interval.
    pub fn new(threshold: u64, prune_interval: u64, prune_rate: u64) -> Self {
        Self {
            threshold,
            prune_interval,
            prune_rate,
            counters: RowMap::default(),
            activations_in_interval: 0,
            intervals_elapsed: 0,
            pruned: 0,
        }
    }

    /// Standard sizing for a RowHammer threshold.
    pub fn for_threshold(trh: u64) -> Self {
        Self::new(trh / 2, trh, trh / 64)
    }

    /// Live table entries.
    pub fn occupancy(&self) -> usize {
        self.counters.len()
    }

    /// Entries pruned so far.
    pub fn pruned(&self) -> u64 {
        self.pruned
    }

    fn maybe_prune(&mut self) {
        if self.activations_in_interval < self.prune_interval {
            return;
        }
        self.activations_in_interval = 0;
        self.intervals_elapsed += 1;
        let line = self.intervals_elapsed * self.prune_rate;
        let before = self.counters.len();
        self.counters.retain(|_, &mut count| count >= line);
        self.pruned += (before - self.counters.len()) as u64;
    }
}

impl RowTracker for Twice {
    fn on_activate(&mut self, row: RowId) -> bool {
        self.activations_in_interval += 1;
        let count = self.counters.entry(row).or_insert(0);
        *count += 1;
        let mitigate = *count >= self.threshold;
        if mitigate {
            self.counters.remove(&row);
        }
        self.maybe_prune();
        mitigate
    }

    fn reset_window(&mut self) {
        self.counters.clear();
        self.activations_in_interval = 0;
        self.intervals_elapsed = 0;
    }

    fn storage_bits(&self) -> u64 {
        self.counters.len().max(1) as u64 * (32 + 16)
    }

    fn name(&self) -> &'static str {
        "twice"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_row_mitigated() {
        let mut tracker = Twice::new(10, 1000, 1);
        let row = RowId(5);
        for _ in 0..9 {
            assert!(!tracker.on_activate(row));
        }
        assert!(tracker.on_activate(row));
    }

    #[test]
    fn cold_rows_get_pruned() {
        let mut tracker = Twice::new(1000, 50, 10);
        // 50 distinct rows activated once each: all below the benign
        // line at the first pruning.
        for i in 0..50u64 {
            tracker.on_activate(RowId(i));
        }
        assert!(tracker.pruned() >= 49, "pruned {}", tracker.pruned());
        assert!(tracker.occupancy() <= 1);
    }

    #[test]
    fn sustained_attacker_survives_pruning() {
        let mut tracker = Twice::new(100, 40, 1);
        let aggressor = RowId(9);
        let mut mitigated = false;
        // Aggressor activates at a high rate amid background noise.
        for round in 0..130u64 {
            if tracker.on_activate(aggressor) {
                mitigated = true;
                break;
            }
            tracker.on_activate(RowId(1000 + round)); // background
        }
        assert!(mitigated, "sustained aggressor must be caught");
    }

    #[test]
    fn window_reset_clears_all() {
        let mut tracker = Twice::new(10, 100, 1);
        tracker.on_activate(RowId(1));
        tracker.reset_window();
        assert_eq!(tracker.occupancy(), 0);
    }
}
