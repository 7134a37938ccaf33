//! Graphene (Park et al., MICRO 2020): Misra-Gries frequent-item
//! counting.
//!
//! Graphene keeps `k` counters in CAM+SRAM. An activation of a tracked
//! row increments its counter; an untracked row takes a free slot if
//! one exists; otherwise the *spillover counter* increments and any
//! counter equal to the spillover value is reclaimable. A row whose
//! estimated count crosses the mitigation threshold triggers a TRR and
//! its counter resets. Misra-Gries guarantees no row can reach `N/k`
//! activations untracked, giving deterministic protection with a tiny
//! table.
//!
//! Which entry a full table gives up is fixed: the lowest count, the
//! lowest row id among equal counts. A min-heap of lower bounds on the
//! counts finds it without scanning the table.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dlk_dram::RowId;

use crate::traits::{RowMap, RowTracker};

/// The Graphene tracker.
///
/// # Example
///
/// ```
/// use dlk_defenses::{Graphene, RowTracker};
/// use dlk_dram::RowId;
///
/// let mut tracker = Graphene::new(4, 10);
/// for _ in 0..9 {
///     assert!(!tracker.on_activate(RowId(7)));
/// }
/// assert!(tracker.on_activate(RowId(7))); // 10th activation mitigates
/// ```
#[derive(Debug, Clone)]
pub struct Graphene {
    capacity: usize,
    threshold: u64,
    counters: RowMap<RowId, u64>,
    /// `(count, row)` lower bounds, lowest first: each tracked row has
    /// one no greater than its count. An increment leaves its row's
    /// bound stale, and a stale or untracked bound is fixed or dropped
    /// when it reaches the top.
    floor: BinaryHeap<Reverse<(u64, RowId)>>,
    spillover: u64,
}

impl Graphene {
    /// Creates a tracker with `capacity` table entries and the given
    /// mitigation threshold.
    pub fn new(capacity: usize, threshold: u64) -> Self {
        Self {
            capacity,
            threshold,
            counters: RowMap::default(),
            floor: BinaryHeap::new(),
            spillover: 0,
        }
    }

    /// A configuration following the paper's sizing rule: enough
    /// entries to catch any row reaching `trh` within a refresh window
    /// of `acts_per_window` total activations.
    pub fn for_threshold(trh: u64, acts_per_window: u64) -> Self {
        let capacity = (acts_per_window / (trh / 2).max(1)).max(16) as usize;
        Self::new(capacity, trh / 2)
    }

    /// Estimated count of a row (0 if untracked).
    pub fn estimate(&self, row: RowId) -> u64 {
        self.counters.get(&row).copied().unwrap_or(self.spillover)
    }

    /// Number of occupied table entries.
    pub fn occupancy(&self) -> usize {
        self.counters.len()
    }

    /// The spillover counter.
    pub fn spillover(&self) -> u64 {
        self.spillover
    }

    /// Sets `row`'s count and records it as the row's lower bound. A
    /// heap grown past twice the table, mostly stale bounds, is
    /// rebuilt from the table instead.
    fn set(&mut self, row: RowId, count: u64) {
        self.counters.insert(row, count);
        if self.floor.len() > 2 * self.capacity {
            self.floor = self.counters.iter().map(|(&row, &count)| Reverse((count, row))).collect();
        } else {
            self.floor.push(Reverse((count, row)));
        }
    }

    /// Removes and returns the lowest entry (lowest count, then lowest
    /// row id) if its count is below the spillover level.
    fn reclaim(&mut self) -> Option<RowId> {
        while let Some(&Reverse((bound, row))) = self.floor.peek() {
            match self.counters.get(&row) {
                Some(&count) if count == bound => {
                    if count >= self.spillover {
                        return None;
                    }
                    self.floor.pop();
                    self.counters.remove(&row);
                    return Some(row);
                }
                Some(&count) if count > bound => {
                    self.floor.pop();
                    self.floor.push(Reverse((count, row)));
                }
                // Untracked, or a second bound above a lower one.
                _ => {
                    self.floor.pop();
                }
            }
        }
        None
    }
}

impl RowTracker for Graphene {
    fn on_activate(&mut self, row: RowId) -> bool {
        let count = if let Some(count) = self.counters.get_mut(&row) {
            *count += 1;
            *count
        } else if self.counters.len() < self.capacity {
            self.set(row, self.spillover + 1);
            self.spillover + 1
        } else {
            // Try to reclaim an entry below the new spillover level.
            self.spillover += 1;
            if self.reclaim().is_some() {
                self.set(row, self.spillover);
            }
            self.spillover
        };
        if count >= self.threshold {
            self.set(row, 0);
            true
        } else {
            false
        }
    }

    fn reset_window(&mut self) {
        self.counters.clear();
        self.floor.clear();
        self.spillover = 0;
    }

    fn storage_bits(&self) -> u64 {
        // Per entry: a row id in CAM (~32 bits) + a counter (~16 bits).
        self.capacity as u64 * (32 + 16)
    }

    fn name(&self) -> &'static str {
        "graphene"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracked_row_mitigated_at_threshold() {
        let mut tracker = Graphene::new(8, 5);
        let row = RowId(1);
        for i in 1..5 {
            assert!(!tracker.on_activate(row), "activation {i}");
        }
        assert!(tracker.on_activate(row));
        // Counter reset after mitigation: next threshold needs 5 more.
        for _ in 0..4 {
            assert!(!tracker.on_activate(row));
        }
        assert!(tracker.on_activate(row));
    }

    #[test]
    fn no_row_exceeds_threshold_unmitigated_under_adversarial_load() {
        // The Misra-Gries guarantee, exercised with many rows and a
        // small table.
        let mut tracker = Graphene::new(4, 20);
        let mut unmitigated: std::collections::HashMap<RowId, u64> = Default::default();
        for round in 0..2000u64 {
            let row = RowId(round % 13);
            let mitigated = tracker.on_activate(row);
            let entry = unmitigated.entry(row).or_insert(0);
            if mitigated {
                *entry = 0;
            } else {
                *entry += 1;
            }
            // The true unmitigated count may exceed the threshold by at
            // most the spillover error bound (N/k).
            let bound = tracker.threshold + round / 4 + 1;
            assert!(*entry <= bound, "row {row} reached {entry} (bound {bound})");
        }
    }

    #[test]
    fn a_full_table_gives_up_its_lowest_entry() {
        let mut tracker = Graphene::new(2, 100);
        for row in [1, 1, 1, 2] {
            tracker.on_activate(RowId(row));
        }
        // Spillover 1: row 2's count (1) is not below it.
        tracker.on_activate(RowId(3));
        assert_eq!((tracker.estimate(RowId(2)), tracker.estimate(RowId(3))), (1, 1));
        // Spillover 2: row 2 is the lowest and below it, so row 4 takes
        // its entry at the spillover level.
        tracker.on_activate(RowId(4));
        assert_eq!(tracker.estimate(RowId(4)), 2);
        assert_eq!(tracker.estimate(RowId(1)), 3);
        assert_eq!(tracker.estimate(RowId(2)), tracker.spillover());
        assert_eq!(tracker.occupancy(), 2);
    }

    #[test]
    fn two_tables_fed_one_stream_mitigate_alike() {
        // A stream over 11 rows keeps a 4-entry table full, so nearly
        // every miss reclaims: which entry goes must not depend on
        // the table's hash order.
        let mut trackers = [Graphene::new(4, 20), Graphene::new(4, 20)];
        let mut state = 1u64;
        let mut mitigations = 0;
        for at in 0..5_000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let row = RowId((state >> 33) % 11);
            let [a, b] = &mut trackers;
            let mitigated = a.on_activate(row);
            assert_eq!(mitigated, b.on_activate(row), "activation {at} of {row:?}");
            mitigations += u64::from(mitigated);
        }
        assert_eq!(mitigations, 3_228);
    }

    #[test]
    fn stale_bounds_are_rebuilt_not_kept() {
        let mut tracker = Graphene::new(2, 2);
        for _ in 0..1_000 {
            tracker.on_activate(RowId(7));
        }
        assert!(tracker.floor.len() <= 2 * 2 + 1, "floor holds {}", tracker.floor.len());
    }

    #[test]
    fn occupancy_bounded_by_capacity() {
        let mut tracker = Graphene::new(4, 1000);
        for i in 0..100 {
            tracker.on_activate(RowId(i));
        }
        assert!(tracker.occupancy() <= 4);
        assert!(tracker.spillover() > 0);
    }

    #[test]
    fn window_reset_clears_state() {
        let mut tracker = Graphene::new(4, 10);
        tracker.on_activate(RowId(1));
        tracker.reset_window();
        assert_eq!(tracker.occupancy(), 0);
        assert_eq!(tracker.spillover(), 0);
    }

    #[test]
    fn sizing_rule_gives_reasonable_capacity() {
        let tracker = Graphene::for_threshold(10_000, 8_000_000);
        assert!(tracker.capacity >= 16);
        assert!(tracker.storage_bits() > 0);
    }
}
