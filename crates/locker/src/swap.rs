//! The in-DRAM SWAP engine.
//!
//! A SWAP exchanges the contents of a locked row and a free row using
//! three RowClone copies through a reserved buffer row (Fig. 4(b)):
//!
//! 1. locked → buffer,
//! 2. free → locked,
//! 3. buffer → free.
//!
//! Because RowClone drives the whole row through the sense amplifiers,
//! process variation can corrupt a copy (§IV-D: 0%, 0.14% and 9.6%
//! erroneous SWAPs at ±0%, ±10% and ±20% variation). The engine injects
//! such errors per copy with a seeded RNG: a failed copy leaves one
//! corrupted bit in the destination row, and the SWAP is reported
//! unsuccessful.
//!
//! Row budget per subarray: the last row is the buffer row; the
//! `free_rows` rows before it form the free pool used as SWAP partners.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashSet;

use dlk_dram::{DramDevice, DramGeometry, RowAddr, RowId};

use crate::config::LockerConfig;
use crate::error::LockerError;
use crate::isa::MicroProgram;

/// Result of one SWAP operation.
#[derive(Debug, Clone, PartialEq)]
pub struct SwapOutcome {
    /// The micro-program that realized the SWAP (three copies + done).
    pub program: MicroProgram,
    /// `true` if all three copies completed without error.
    pub success: bool,
    /// Indices (0..3) of copies that failed.
    pub failed_copies: Vec<usize>,
    /// Device cycles consumed.
    pub cycles: u64,
    /// Energy consumed, picojoules.
    pub energy_pj: f64,
}

/// Plans and executes SWAPs with error injection.
#[derive(Debug)]
pub struct SwapEngine {
    copy_error_rate: f64,
    free_rows: u32,
    rng: StdRng,
}

impl SwapEngine {
    /// Creates an engine from the locker configuration.
    pub fn new(config: &LockerConfig) -> Self {
        Self {
            copy_error_rate: config.copy_error_rate,
            free_rows: config.free_rows_per_subarray,
            rng: StdRng::seed_from_u64(config.seed),
        }
    }

    /// The reserved buffer row of a subarray (its last row).
    pub fn buffer_row(geometry: &DramGeometry, bank: u16, subarray: u16) -> RowAddr {
        RowAddr::new(bank, subarray, geometry.rows_per_subarray - 1)
    }

    /// The free-row pool of a subarray: the `free_rows` rows just below
    /// the buffer row.
    pub fn free_pool(&self, geometry: &DramGeometry, bank: u16, subarray: u16) -> Vec<RowAddr> {
        let top = geometry.rows_per_subarray - 1; // buffer row
        (top.saturating_sub(self.free_rows)..top)
            .map(|row| RowAddr::new(bank, subarray, row))
            .collect()
    }

    /// Highest row index usable for ordinary data (below the free pool).
    pub fn usable_rows(&self, geometry: &DramGeometry) -> u32 {
        geometry.rows_per_subarray - 1 - self.free_rows
    }

    /// Picks a random free row of `locked`'s subarray that is not in
    /// `in_use`.
    ///
    /// # Errors
    ///
    /// Returns [`LockerError::NoFreeRow`] if the pool is exhausted.
    pub fn pick_free_row(
        &mut self,
        geometry: &DramGeometry,
        locked: RowAddr,
        in_use: &HashSet<RowId>,
    ) -> Result<RowAddr, LockerError> {
        let pool: Vec<RowAddr> = self
            .free_pool(geometry, locked.bank, locked.subarray)
            .into_iter()
            .filter(|row| !in_use.contains(&geometry.row_id(*row)))
            .collect();
        if pool.is_empty() {
            return Err(LockerError::NoFreeRow { bank: locked.bank, subarray: locked.subarray });
        }
        Ok(pool[self.rng.random_range(0..pool.len())])
    }

    /// Executes the three-copy SWAP of `a` and `b` through the buffer
    /// row, injecting per-copy errors.
    ///
    /// # Errors
    ///
    /// Returns an error if the rows do not share a subarray (SWAP uses
    /// Fast-Parallel-Mode RowClone).
    pub fn execute(
        &mut self,
        dram: &mut DramDevice,
        a: RowAddr,
        b: RowAddr,
    ) -> Result<SwapOutcome, LockerError> {
        if a.bank != b.bank || a.subarray != b.subarray {
            return Err(LockerError::Dram(dlk_dram::DramError::CrossSubarrayClone {
                src: a,
                dst: b,
            }));
        }
        let geometry = *dram.geometry();
        let buffer = Self::buffer_row(&geometry, a.bank, a.subarray);
        let program = MicroProgram::swap(0, 1, 2);
        let begin = dram.now();
        let mut energy = 0.0;
        let mut failed = Vec::new();
        for (index, (src, dst)) in [(a, buffer), (b, a), (buffer, b)].into_iter().enumerate() {
            let result = dram.row_clone(src, dst)?;
            energy += result.energy_pj;
            if self.copy_error_rate > 0.0 && self.rng.random_bool(self.copy_error_rate) {
                // Charge-sharing failure: one destination cell latches
                // the wrong value.
                let bit = self.rng.random_range(0..geometry.row_bytes * 8);
                dram.flip_bit(dst, bit)?;
                failed.push(index);
            }
        }
        Ok(SwapOutcome {
            program,
            success: failed.is_empty(),
            failed_copies: failed,
            cycles: dram.now() - begin,
            energy_pj: energy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{MicroExecutor, RegFile};
    use dlk_dram::DramConfig;

    fn setup(error_rate: f64) -> (DramDevice, SwapEngine) {
        let dram = DramDevice::new(DramConfig::tiny_for_tests());
        let config = LockerConfig { copy_error_rate: error_rate, ..LockerConfig::default() };
        (dram, SwapEngine::new(&config))
    }

    #[test]
    fn swap_exchanges_rows() {
        let (mut dram, mut engine) = setup(0.0);
        let a = RowAddr::new(0, 0, 3);
        let b = RowAddr::new(0, 0, 40);
        dram.write_row(a, &[0x11; 64]).unwrap();
        dram.write_row(b, &[0x22; 64]).unwrap();
        let outcome = engine.execute(&mut dram, a, b).unwrap();
        assert!(outcome.success);
        assert_eq!(outcome.program.len(), 4);
        assert!(outcome.cycles > 0);
        assert_eq!(dram.read_row(a).unwrap(), vec![0x22; 64]);
        assert_eq!(dram.read_row(b).unwrap(), vec![0x11; 64]);
    }

    /// The µISA interpreter is the reference for the SWAP the engine
    /// issues itself: on twin devices, `execute` and running the
    /// program it reports leave every row, the stats and the clock
    /// identical.
    #[test]
    fn swap_matches_interpreting_its_program() {
        let (mut dram, mut engine) = setup(0.0);
        let geometry = *dram.geometry();
        for row in 0..geometry.rows_per_subarray {
            dram.write_row(RowAddr::new(1, 1, row), &[row as u8 ^ 0x5A; 64]).unwrap();
        }
        let mut twin = dram.clone();
        let (a, b) = (RowAddr::new(1, 1, 3), RowAddr::new(1, 1, 40));
        let buffer = SwapEngine::buffer_row(&geometry, 1, 1);

        let outcome = engine.execute(&mut dram, a, b).unwrap();
        let program = MicroProgram::swap(0, 1, 2);
        let mut regs = RegFile::new();
        regs.bind_row(0, a);
        regs.bind_row(1, b);
        regs.bind_row(2, buffer);
        let report = MicroExecutor::new().run(&program, &mut regs, &mut twin).unwrap();

        assert_eq!(outcome.program, program);
        assert_eq!(outcome.cycles, report.cycles);
        assert_eq!(dram.stats(), twin.stats());
        assert_eq!(dram.now(), twin.now());
        for row in 0..geometry.rows_per_subarray {
            let row = RowAddr::new(1, 1, row);
            assert_eq!(dram.read_row(row).unwrap(), twin.read_row(row).unwrap(), "row {row}");
        }
        assert_eq!(twin.read_row(a).unwrap(), vec![40 ^ 0x5A; 64], "the rows really swapped");
    }

    #[test]
    fn swap_twice_restores_original() {
        let (mut dram, mut engine) = setup(0.0);
        let a = RowAddr::new(0, 1, 3);
        let b = RowAddr::new(0, 1, 40);
        dram.write_row(a, &[0xAB; 64]).unwrap();
        engine.execute(&mut dram, a, b).unwrap();
        engine.execute(&mut dram, a, b).unwrap();
        assert_eq!(dram.read_row(a).unwrap(), vec![0xAB; 64]);
    }

    #[test]
    fn error_injection_corrupts_and_reports() {
        let (mut dram, mut engine) = setup(1.0); // every copy fails
        let a = RowAddr::new(0, 0, 3);
        let b = RowAddr::new(0, 0, 40);
        dram.write_row(a, &[0u8; 64]).unwrap();
        dram.write_row(b, &[0u8; 64]).unwrap();
        let outcome = engine.execute(&mut dram, a, b).unwrap();
        assert!(!outcome.success);
        assert_eq!(outcome.failed_copies, vec![0, 1, 2]);
        // At least one row differs from all-zero now.
        let corrupted = dram.read_row(a).unwrap().iter().any(|&x| x != 0)
            || dram.read_row(b).unwrap().iter().any(|&x| x != 0)
            || dram
                .read_row(SwapEngine::buffer_row(dram.geometry(), 0, 0))
                .unwrap()
                .iter()
                .any(|&x| x != 0);
        assert!(corrupted);
    }

    #[test]
    fn observed_failure_rate_tracks_configured_rate() {
        // Per-copy error p=0.0333 => swap failure 1-(1-p)^3 ≈ 9.6%.
        let p = 1.0 - (1.0f64 - 0.096).powf(1.0 / 3.0);
        let (mut dram, mut engine) = setup(p);
        let a = RowAddr::new(0, 0, 3);
        let b = RowAddr::new(0, 0, 40);
        let trials = 2000;
        let mut failures = 0;
        for _ in 0..trials {
            if !engine.execute(&mut dram, a, b).unwrap().success {
                failures += 1;
            }
        }
        let rate = failures as f64 / trials as f64;
        assert!((rate - 0.096).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn buffer_row_is_last_row() {
        let geometry = DramGeometry::tiny();
        let buffer = SwapEngine::buffer_row(&geometry, 1, 1);
        assert_eq!(buffer.row, geometry.rows_per_subarray - 1);
    }

    #[test]
    fn free_pool_sits_below_buffer() {
        let (_, engine) = setup(0.0);
        let geometry = DramGeometry::tiny();
        let pool = engine.free_pool(&geometry, 0, 0);
        assert_eq!(pool.len(), 4);
        assert!(pool.iter().all(|row| row.row < geometry.rows_per_subarray - 1));
        assert!(pool.iter().all(|row| row.row >= engine.usable_rows(&geometry)));
    }

    #[test]
    fn pick_free_row_respects_in_use() {
        let (_, mut engine) = setup(0.0);
        let geometry = DramGeometry::tiny();
        let locked = RowAddr::new(0, 0, 5);
        let mut in_use = HashSet::new();
        // Exhaust the pool one row at a time.
        for _ in 0..4 {
            let row = engine.pick_free_row(&geometry, locked, &in_use).unwrap();
            assert!(in_use.insert(geometry.row_id(row)), "row handed out twice");
        }
        assert!(matches!(
            engine.pick_free_row(&geometry, locked, &in_use),
            Err(LockerError::NoFreeRow { .. })
        ));
    }

    #[test]
    fn cross_subarray_swap_rejected() {
        let (mut dram, mut engine) = setup(0.0);
        let a = RowAddr::new(0, 0, 3);
        let b = RowAddr::new(0, 1, 3);
        assert!(engine.execute(&mut dram, a, b).is_err());
    }
}
