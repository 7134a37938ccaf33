//! DRAM-Locker configuration.

/// Which rows the protection plan locks.
///
/// The paper argues for locking the *adjacent* rows of protected data:
/// the protected rows themselves are hot (weights are read constantly),
/// so locking them would force a SWAP on nearly every access, while
/// their neighbours — the rows an attacker must hammer — are cold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LockTarget {
    /// Lock the rows physically adjacent to the protected data (the
    /// aggressor-candidate rows). The paper's choice.
    #[default]
    AdjacentRows,
    /// Lock the protected data rows themselves (ablation baseline).
    DataRows,
    /// Lock both the data rows and their neighbours (belt and braces;
    /// maximum unlock churn).
    Both,
}

/// Configuration of the [`DramLocker`](crate::DramLocker) defense.
///
/// # Example
///
/// ```
/// use dlk_locker::LockerConfig;
/// let config = LockerConfig::default();
/// assert_eq!(config.relock_interval, 1000);      // paper: 1k R/W
/// assert_eq!(config.table_capacity_bytes, 56 * 1024); // paper: 56 KB SRAM
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LockerConfig {
    /// R/W instructions after a SWAP before the row is swapped back and
    /// re-locked (1k in the paper).
    pub relock_interval: u64,
    /// SRAM budget of the lock-table in bytes (56 KB in the paper's
    /// Table I).
    pub table_capacity_bytes: usize,
    /// Bytes per lock-table entry (a packed row id).
    pub entry_bytes: usize,
    /// Lock-table lookup latency charged on every request, cycles.
    pub check_cycles: u64,
    /// Probability that one RowClone copy of a SWAP fails (process
    /// variation; §IV-D reports 0%, 0.14% and 9.6% at ±0/10/20%).
    pub copy_error_rate: f64,
    /// Rows per subarray reserved as the free-row pool for SWAPs.
    pub free_rows_per_subarray: u32,
    /// RNG seed for free-row selection and error injection.
    pub seed: u64,
}

impl Default for LockerConfig {
    fn default() -> Self {
        Self {
            relock_interval: 1000,
            table_capacity_bytes: 56 * 1024,
            entry_bytes: 8,
            check_cycles: 1,
            copy_error_rate: 0.0,
            free_rows_per_subarray: 4,
            seed: 0xD1A0_10CC,
        }
    }
}

impl LockerConfig {
    /// Maximum number of lock-table entries that fit the SRAM budget.
    pub fn table_capacity_entries(&self) -> usize {
        self.table_capacity_bytes / self.entry_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_entries_from_sram_budget() {
        let config = LockerConfig::default();
        assert_eq!(config.table_capacity_entries(), 56 * 1024 / 8);
    }

    #[test]
    fn default_lock_target_is_adjacent() {
        assert_eq!(LockTarget::default(), LockTarget::AdjacentRows);
    }
}
