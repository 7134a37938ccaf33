//! DRAM-Locker runtime statistics.

use serde::{Deserialize, Serialize};

/// Counters describing the defense's runtime behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LockerStats {
    /// R/W instructions observed on the request path.
    pub rw_seen: u64,
    /// Accesses denied because the row was locked: the instructions
    /// skipped in place, which never reach the DRAM.
    pub denies: u64,
    /// SWAP operations issued (unlock a row's data).
    pub swaps: u64,
    /// SWAPs containing at least one erroneous row copy.
    pub swap_failures: u64,
    /// Individual row copies that failed (process variation).
    pub failed_copies: u64,
    /// Swap-back operations (data returned to its locked home row).
    pub relocks: u64,
    /// Accesses transparently redirected to a row's current location.
    pub redirects: u64,
    /// Row-copy µOps issued to DRAM (3 per SWAP/relock).
    pub copies_issued: u64,
    /// Device cycles spent inside SWAP/relock sequences.
    pub swap_cycles: u64,
    /// Energy spent inside SWAP/relock sequences, picojoules.
    pub swap_energy_pj: f64,
}

impl LockerStats {
    /// Fraction of SWAPs that had at least one erroneous copy.
    pub fn swap_failure_rate(&self) -> f64 {
        let total = self.swaps + self.relocks;
        if total == 0 {
            0.0
        } else {
            self.swap_failures as f64 / total as f64
        }
    }

    /// Mean cycles per SWAP (including relocks).
    pub fn mean_swap_cycles(&self) -> f64 {
        let total = self.swaps + self.relocks;
        if total == 0 {
            0.0
        } else {
            self.swap_cycles as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_are_zero_when_idle() {
        let stats = LockerStats::default();
        assert_eq!(stats.swap_failure_rate(), 0.0);
        assert_eq!(stats.mean_swap_cycles(), 0.0);
    }

    #[test]
    fn failure_rate_over_all_swap_kinds() {
        let stats = LockerStats { swaps: 3, relocks: 1, swap_failures: 1, ..Default::default() };
        assert!((stats.swap_failure_rate() - 0.25).abs() < 1e-12);
    }
}
