//! DRAM-Locker runtime statistics.

/// Counters describing the defense's runtime behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
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
