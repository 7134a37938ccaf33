//! The exact counter-per-row tracker: one counter per DRAM row, the
//! gold standard for detection accuracy and the overhead upper bound in
//! Table I.

use dlk_dram::RowId;

use crate::traits::{RowMap, RowTracker};

/// The device row count that `storage_bits` charges one counter each.
const TOTAL_ROWS: u64 = 1 << 24;

/// One exact counter per row.
///
/// # Example
///
/// ```
/// use dlk_defenses::{CounterPerRow, RowTracker};
/// use dlk_dram::RowId;
///
/// let mut tracker = CounterPerRow::new(3);
/// assert!(!tracker.on_activate(RowId(0)));
/// assert!(!tracker.on_activate(RowId(0)));
/// assert!(tracker.on_activate(RowId(0)));
/// ```
#[derive(Debug, Clone)]
pub struct CounterPerRow {
    threshold: u64,
    counts: RowMap<RowId, u64>,
}

impl CounterPerRow {
    /// Creates a tracker mitigating at `threshold`.
    pub fn new(threshold: u64) -> Self {
        Self { threshold, counts: RowMap::default() }
    }

    /// Exact count of a row.
    pub fn count(&self, row: RowId) -> u64 {
        self.counts.get(&row).copied().unwrap_or(0)
    }
}

impl RowTracker for CounterPerRow {
    fn on_activate(&mut self, row: RowId) -> bool {
        let count = self.counts.entry(row).or_insert(0);
        *count += 1;
        if *count >= self.threshold {
            *count = 0;
            true
        } else {
            false
        }
    }

    fn reset_window(&mut self) {
        self.counts.clear();
    }

    fn storage_bits(&self) -> u64 {
        // A hardware implementation stores a counter for every row.
        TOTAL_ROWS * 16
    }

    fn name(&self) -> &'static str {
        "counter-per-row"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_row_is_exact() {
        let mut tracker = CounterPerRow::new(5);
        for i in 1..5 {
            assert!(!tracker.on_activate(RowId(9)), "activation {i}");
        }
        assert!(tracker.on_activate(RowId(9)));
        assert_eq!(tracker.count(RowId(9)), 0, "reset after mitigation");
    }

    #[test]
    fn per_row_rows_independent() {
        let mut tracker = CounterPerRow::new(3);
        tracker.on_activate(RowId(0));
        tracker.on_activate(RowId(0));
        assert!(!tracker.on_activate(RowId(1)));
        assert!(tracker.on_activate(RowId(0)));
    }
}
