//! RowClone: fast in-DRAM bulk row copy.
//!
//! Two modes, following Seshadri et al. (MICRO 2013):
//!
//! - **FPM** (Fast Parallel Mode): source and destination share a
//!   subarray; two back-to-back ACTs copy the row through the sense
//!   amplifiers in under 100 ns.
//! - **PSM** (Pipelined Serial Mode): rows in different subarrays or
//!   banks; data moves over the internal bus one cache line at a time —
//!   still avoiding the memory channel, but much slower than FPM.
//!
//! The engine plans a copy and reports its latency/energy, which the
//! DRAM-Locker SWAP engine uses to cost its three-copy unlock sequence.

use crate::geometry::RowAddr;
use crate::stats::EnergyModel;
use crate::timing::TimingParams;

/// How a row copy will be executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CloneMode {
    /// Intra-subarray copy via back-to-back activation.
    Fpm,
    /// Inter-subarray/inter-bank copy over the internal bus.
    Psm,
}

/// Plans row copies and reports their costs.
///
/// # Example
///
/// ```
/// use dlk_dram::{RowCloneEngine, RowAddr, CloneMode};
/// use dlk_dram::{TimingParams, EnergyModel};
///
/// let engine = RowCloneEngine::new(TimingParams::ddr4_2400(), EnergyModel::default(), 8192);
/// let src = RowAddr::new(0, 3, 10);
/// let dst = RowAddr::new(0, 3, 11);
/// assert_eq!(engine.mode(src, dst), CloneMode::Fpm);
/// assert!(engine.latency_cycles(CloneMode::Fpm) < engine.latency_cycles(CloneMode::Psm));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RowCloneEngine {
    timing: TimingParams,
    energy: EnergyModel,
    row_bytes: usize,
    /// Internal bus width for PSM transfers, bytes per beat.
    psm_beat_bytes: usize,
}

impl RowCloneEngine {
    /// Creates an engine for the given timing/energy model and row size.
    pub fn new(timing: TimingParams, energy: EnergyModel, row_bytes: usize) -> Self {
        Self { timing, energy, row_bytes, psm_beat_bytes: 64 }
    }

    /// Chooses the copy mode for a source/destination pair.
    pub fn mode(&self, src: RowAddr, dst: RowAddr) -> CloneMode {
        if src.bank == dst.bank && src.subarray == dst.subarray {
            CloneMode::Fpm
        } else {
            CloneMode::Psm
        }
    }

    /// Latency of one full row copy in cycles.
    pub fn latency_cycles(&self, mode: CloneMode) -> u64 {
        match mode {
            CloneMode::Fpm => self.timing.rowclone_cycles(),
            CloneMode::Psm => {
                // ACT src, stream beats, ACT dst, stream beats, PREs.
                let beats = (self.row_bytes.div_ceil(self.psm_beat_bytes)) as u64;
                2 * (self.timing.trcd + self.timing.trp) + beats * self.timing.tccd * 2
            }
        }
    }

    /// Energy of one full row copy in picojoules.
    pub fn energy_pj(&self, mode: CloneMode) -> f64 {
        match mode {
            CloneMode::Fpm => self.energy.aap_pj,
            CloneMode::Psm => {
                let beats = (self.row_bytes.div_ceil(self.psm_beat_bytes)) as f64;
                2.0 * (self.energy.act_pj + self.energy.pre_pj)
                    + beats * 0.5 * (self.energy.rd_pj + self.energy.wr_pj)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> RowCloneEngine {
        RowCloneEngine::new(TimingParams::ddr4_2400(), EnergyModel::default(), 8192)
    }

    #[test]
    fn mode_selection() {
        let e = engine();
        assert_eq!(e.mode(RowAddr::new(0, 1, 2), RowAddr::new(0, 1, 9)), CloneMode::Fpm);
        assert_eq!(e.mode(RowAddr::new(0, 1, 2), RowAddr::new(0, 2, 2)), CloneMode::Psm);
        assert_eq!(e.mode(RowAddr::new(0, 1, 2), RowAddr::new(1, 1, 2)), CloneMode::Psm);
    }

    #[test]
    fn fpm_completes_under_100ns() {
        let timing = TimingParams::ddr4_2400();
        assert!(timing.cycles_to_ns(engine().latency_cycles(CloneMode::Fpm)) < 100.0);
    }

    #[test]
    fn psm_slower_than_fpm() {
        let e = engine();
        let fpm = e.latency_cycles(CloneMode::Fpm);
        let psm = e.latency_cycles(CloneMode::Psm);
        assert!(fpm < psm, "fpm {fpm} < psm {psm}");
    }

    #[test]
    fn psm_energy_exceeds_fpm() {
        let e = engine();
        assert!(e.energy_pj(CloneMode::Psm) > e.energy_pj(CloneMode::Fpm));
    }
}
