//! DRAM-Locker configuration.

use serde::{Deserialize, Serialize};

/// Which rows the protection plan locks.
///
/// The paper argues for locking the *adjacent* rows of protected data:
/// the protected rows themselves are hot (weights are read constantly),
/// so locking them would force a SWAP on nearly every access, while
/// their neighbours — the rows an attacker must hammer — are cold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

    /// Configuration with the worst-case ±20% process variation error
    /// rate from §IV-D (9.6% per SWAP, i.e. per three-copy sequence;
    /// the per-copy rate is its cube root).
    pub fn with_worst_case_variation(mut self) -> Self {
        // 1 - (1-p)^3 = 0.096  =>  p = 1 - (1-0.096)^(1/3)
        self.copy_error_rate = 1.0 - (1.0f64 - 0.096).powf(1.0 / 3.0);
        self
    }

    /// Configuration with an explicit per-copy error rate.
    pub fn with_copy_error_rate(mut self, rate: f64) -> Self {
        self.copy_error_rate = rate;
        self
    }

    /// Probability that a whole SWAP (three copies) succeeds.
    pub fn swap_success_probability(&self) -> f64 {
        (1.0 - self.copy_error_rate).powi(3)
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
    fn worst_case_variation_gives_9_6_percent_swap_failure() {
        let config = LockerConfig::default().with_worst_case_variation();
        let failure = 1.0 - config.swap_success_probability();
        assert!((failure - 0.096).abs() < 1e-9, "failure {failure}");
    }

    #[test]
    fn zero_error_rate_means_certain_swaps() {
        let config = LockerConfig::default();
        assert_eq!(config.swap_success_probability(), 1.0);
    }

    #[test]
    fn default_lock_target_is_adjacent() {
        assert_eq!(LockTarget::default(), LockTarget::AdjacentRows);
    }
}
