//! The DRAM device: banks + subarray storage + disturbance + refresh.
//!
//! [`DramDevice`] executes [`DramCommand`]s at command-level timing
//! fidelity. Every activation feeds the RowHammer tracker; threshold
//! crossings corrupt victim-row data in place, exactly as a physical
//! disturbance would. Auto-refresh is modeled on the device clock: one
//! `REF` per tREFI, with all per-row hammer counters reset once per
//! refresh window (tREFW, 64 ms on DDR4).

use crate::bank::Bank;
use crate::command::{CommandKind, CommandResult, DramCommand};
use crate::error::DramError;
use crate::geometry::{DramGeometry, RowAddr, RowId};
use crate::rowclone::{CloneMode, RowCloneEngine};
use crate::rowhammer::{DisturbanceEvent, HammerTracker, RowHammerConfig};
use crate::stats::{DramStats, EnergyModel};
use crate::subarray::{ReadData, Subarray};
use crate::timing::TimingParams;

/// Full configuration of a [`DramDevice`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Physical organization.
    pub geometry: DramGeometry,
    /// Timing parameters.
    pub timing: TimingParams,
    /// Energy model.
    pub energy: EnergyModel,
    /// RowHammer disturbance model.
    pub hammer: RowHammerConfig,
    /// Whether auto-refresh is simulated (disable for pure functional
    /// tests where the clock never moves far).
    pub auto_refresh: bool,
}

impl Default for DramConfig {
    fn default() -> Self {
        Self {
            geometry: DramGeometry::default(),
            timing: TimingParams::ddr4_2400(),
            energy: EnergyModel::default(),
            hammer: RowHammerConfig::default(),
            auto_refresh: true,
        }
    }
}

impl DramConfig {
    /// A tiny configuration for unit tests: small geometry, low TRH.
    pub fn tiny_for_tests() -> Self {
        Self {
            geometry: DramGeometry::tiny(),
            timing: TimingParams::ddr4_2400(),
            energy: EnergyModel::default(),
            hammer: RowHammerConfig::with_trh(16),
            auto_refresh: false,
        }
    }

    /// The DDR4 datasheet configuration: [`TimingParams::ddr4`] paired
    /// with [`EnergyModel::ddr4`] on the default scaled geometry.
    pub fn ddr4() -> Self {
        Self { timing: TimingParams::ddr4(), energy: EnergyModel::ddr4(), ..Self::default() }
    }

    /// The LPDDR4 datasheet configuration: [`TimingParams::lpddr4`]
    /// paired with [`EnergyModel::lpddr4`] on the default scaled
    /// geometry.
    pub fn lpddr4() -> Self {
        Self { timing: TimingParams::lpddr4(), energy: EnergyModel::lpddr4(), ..Self::default() }
    }
}

/// A command-level DRAM device model.
///
/// # Example
///
/// ```
/// use dlk_dram::{DramConfig, DramDevice, DramCommand, RowAddr};
///
/// # fn main() -> Result<(), dlk_dram::DramError> {
/// let mut dram = DramDevice::new(DramConfig::tiny_for_tests());
/// let row = RowAddr::new(0, 0, 3);
/// dram.issue(DramCommand::Act(row))?;
/// dram.issue(DramCommand::Rd { bank: 0, col: 0 })?;
/// dram.issue(DramCommand::Pre(0))?;
/// assert!(dram.stats().cycles > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DramDevice {
    config: DramConfig,
    banks: Vec<Bank>,
    storage: Vec<Subarray>,
    hammer: HammerTracker,
    clone_engine: RowCloneEngine,
    stats: DramStats,
    clock: u64,
    next_refresh: u64,
    window_end: u64,
    windows: u64,
}

impl DramDevice {
    /// Creates a device from a configuration.
    pub fn new(config: DramConfig) -> Self {
        let geometry = config.geometry;
        let banks = (0..geometry.banks).map(|_| Bank::new()).collect();
        let storage = (0..geometry.banks as usize * geometry.subarrays_per_bank as usize)
            .map(|_| Subarray::new(geometry.row_bytes))
            .collect();
        let clone_engine = RowCloneEngine::new(config.timing, config.energy, geometry.row_bytes);
        Self {
            banks,
            storage,
            hammer: HammerTracker::new(config.hammer),
            clone_engine,
            stats: DramStats::new(),
            clock: 0,
            next_refresh: config.timing.trefi,
            window_end: config.timing.trefw,
            windows: 0,
            config,
        }
    }

    /// The device geometry.
    pub fn geometry(&self) -> &DramGeometry {
        &self.config.geometry
    }

    /// The timing parameters.
    pub fn timing(&self) -> &TimingParams {
        &self.config.timing
    }

    /// The configuration the device was built with.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// The RowClone cost model.
    pub fn clone_engine(&self) -> &RowCloneEngine {
        &self.clone_engine
    }

    /// The RowHammer tracker (activation counts, flip plans).
    pub fn hammer(&self) -> &HammerTracker {
        &self.hammer
    }

    /// Mutable access to the RowHammer tracker, e.g. to register
    /// attacker flip plans.
    pub fn hammer_mut(&mut self) -> &mut HammerTracker {
        &mut self.hammer
    }

    /// Current device clock in cycles.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Refresh windows (tREFW) that have passed, each resetting the
    /// hammer counts. A defense that counts activations resets its own
    /// counts when this changes.
    pub fn refresh_windows(&self) -> u64 {
        self.windows
    }

    /// Advances the device clock by `cycles` (idle time), servicing any
    /// auto-refresh that falls due.
    pub fn advance(&mut self, cycles: u64) {
        self.clock += cycles;
        self.stats.cycles = self.clock;
        self.stats.energy_pj += cycles as f64 * self.config.energy.static_pj_per_cycle;
        self.service_refresh();
    }

    fn storage_index(&self, bank: u16, subarray: u16) -> usize {
        bank as usize * self.config.geometry.subarrays_per_bank as usize + subarray as usize
    }

    fn validate_row(&self, addr: RowAddr) -> Result<(), DramError> {
        if self.config.geometry.contains(addr) {
            Ok(())
        } else if addr.bank >= self.config.geometry.banks {
            Err(DramError::InvalidBank(addr.bank))
        } else {
            Err(DramError::InvalidRow(addr))
        }
    }

    /// Issues one DRAM command. The clock advances to the command's
    /// completion; disturbance events are applied to stored data and
    /// returned in the result.
    ///
    /// # Errors
    ///
    /// Returns an error if the command violates the bank state machine
    /// or references an address outside the geometry. The device state
    /// is unchanged on error.
    pub fn issue(&mut self, cmd: DramCommand) -> Result<CommandResult, DramError> {
        let (start_cycle, disturbances) = self.step(cmd)?;
        Ok(CommandResult {
            start_cycle,
            done_cycle: self.clock,
            energy_pj: self.config.energy.energy_pj(cmd.kind()),
            disturbances,
        })
    }

    /// Runs one command for [`DramDevice::issue`] and the timed
    /// accesses alike: services a due auto-refresh, executes `cmd`,
    /// records its kind and energy, applies the disturbances it
    /// triggers and moves the clock to its completion. Returns the
    /// cycle the command started at and its disturbances, an empty
    /// (unallocated) list unless it crossed TRH. Inlined, so each call
    /// site with a known command keeps only that command's arm.
    #[inline(always)]
    fn step(&mut self, cmd: DramCommand) -> Result<(u64, Vec<DisturbanceEvent>), DramError> {
        self.service_refresh();
        let timing = self.config.timing;
        let mut disturbances = Vec::new();
        let (start, done) = match cmd {
            DramCommand::Act(row) => {
                self.validate_row(row)?;
                let span = self.banks[row.bank as usize].activate(row, self.clock, &timing)?;
                disturbances = self.hammer.on_activate(row, &self.config.geometry);
                span
            }
            DramCommand::Pre(bank) => {
                if bank >= self.config.geometry.banks {
                    return Err(DramError::InvalidBank(bank));
                }
                self.banks[bank as usize].precharge(self.clock, &timing)?
            }
            DramCommand::Rd { bank, col } | DramCommand::Wr { bank, col } => {
                if bank >= self.config.geometry.banks {
                    return Err(DramError::InvalidBank(bank));
                }
                if col >= self.config.geometry.row_bytes {
                    return Err(DramError::InvalidColumn {
                        col,
                        row_bytes: self.config.geometry.row_bytes,
                    });
                }
                if matches!(cmd, DramCommand::Rd { .. }) {
                    self.banks[bank as usize].read(self.clock, &timing)?
                } else {
                    self.banks[bank as usize].write(self.clock, &timing)?
                }
            }
            DramCommand::Ref => {
                let done = self.execute_refresh();
                (self.clock, done)
            }
            DramCommand::Aap { src, dst } => {
                self.validate_row(src)?;
                self.validate_row(dst)?;
                if self.clone_engine.mode(src, dst) != CloneMode::Fpm {
                    return Err(DramError::CrossSubarrayClone { src, dst });
                }
                let bank = &mut self.banks[src.bank as usize];
                // AAP begins from a precharged bank; close any open row.
                if bank.open_row().is_some() {
                    bank.precharge(self.clock, &timing)?;
                }
                let (start, _) = bank.activate(src, self.clock, &timing)?;
                bank.aap_second_act(dst, self.clock, &timing)?;
                let (_, done) = bank.precharge(self.clock, &timing)?;
                // Both activations hammer their neighbourhoods.
                disturbances = self.hammer.on_activate(src, &self.config.geometry);
                disturbances.extend(self.hammer.on_activate(dst, &self.config.geometry));
                // Functional copy.
                let idx = self.storage_index(src.bank, src.subarray);
                self.storage[idx].copy_row(src.row, dst.row);
                (start, done)
            }
        };
        self.stats.record(cmd.kind(), self.config.energy.energy_pj(cmd.kind()));
        self.apply_disturbances(&disturbances)?;
        self.clock = done;
        self.stats.cycles = self.clock;
        Ok((start, disturbances))
    }

    fn apply_disturbances(&mut self, events: &[DisturbanceEvent]) -> Result<(), DramError> {
        for event in events {
            let idx = self.storage_index(event.target.row.bank, event.target.row.subarray);
            self.storage[idx].flip_bit(event.target.row.row, event.target.bit)?;
            self.stats.disturbances += 1;
            self.stats.bit_flips += 1;
        }
        Ok(())
    }

    fn execute_refresh(&mut self) -> u64 {
        let done = self.clock + self.config.timing.trfc;
        for bank in &mut self.banks {
            bank.force_idle(done);
        }
        done
    }

    /// Issues the REFs and ends the refresh windows that the clock has
    /// reached, when auto-refresh is on; a device with it off never
    /// refreshes.
    #[inline]
    fn service_refresh(&mut self) {
        if !self.config.auto_refresh {
            return;
        }
        while self.clock >= self.next_refresh {
            let done = self.execute_refresh();
            self.stats.record(CommandKind::Ref, self.config.energy.ref_pj);
            self.clock = done.max(self.clock);
            self.next_refresh += self.config.timing.trefi;
        }
        while self.clock >= self.window_end {
            self.hammer.reset_window();
            self.window_end += self.config.timing.trefw;
            self.windows += 1;
        }
    }

    /// Checks that `len` bytes at `col` of `addr` lie inside the
    /// geometry — before a timed access issues any command, so a
    /// rejected access leaves the clock, statistics and hammer counts
    /// untouched.
    fn validate_access(&self, addr: RowAddr, col: usize, len: usize) -> Result<(), DramError> {
        self.validate_row(addr)?;
        let row_bytes = self.config.geometry.row_bytes;
        if col >= row_bytes {
            Err(DramError::InvalidColumn { col, row_bytes })
        } else if len > row_bytes - col {
            Err(DramError::InvalidColumn { col: col.saturating_add(len), row_bytes })
        } else {
            Ok(())
        }
    }

    /// A timed read access: activates the row if needed (closing any
    /// other open row first), then reads `len` bytes at `col`. The
    /// commands run exactly as [`DramDevice::issue`] would run them,
    /// without building their [`CommandResult`]s.
    ///
    /// Returns the data and the cycles the access took.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range addresses or a span past the
    /// row's end; no command is issued then.
    pub fn access_read(
        &mut self,
        addr: RowAddr,
        col: usize,
        len: usize,
    ) -> Result<(ReadData, u64), DramError> {
        self.validate_access(addr, col, len)?;
        let begin = self.clock;
        self.open_row_for(addr)?;
        self.step(DramCommand::Rd { bank: addr.bank, col })?;
        let idx = self.storage_index(addr.bank, addr.subarray);
        let data = self.storage[idx].read_bytes(addr.row, col, len)?;
        Ok((data, self.clock - begin))
    }

    /// A timed write access, mirroring [`DramDevice::access_read`].
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range addresses or a span past the
    /// row's end; no command is issued then.
    pub fn access_write(
        &mut self,
        addr: RowAddr,
        col: usize,
        bytes: &[u8],
    ) -> Result<u64, DramError> {
        self.validate_access(addr, col, bytes.len())?;
        let begin = self.clock;
        self.open_row_for(addr)?;
        self.step(DramCommand::Wr { bank: addr.bank, col })?;
        let idx = self.storage_index(addr.bank, addr.subarray);
        self.storage[idx].write_bytes(addr.row, col, bytes)?;
        Ok(self.clock - begin)
    }

    fn open_row_for(&mut self, addr: RowAddr) -> Result<(), DramError> {
        match self.banks[addr.bank as usize].open_row() {
            Some(open) if open == addr => {
                self.stats.row_buffer_hits += 1;
            }
            Some(_) => {
                self.stats.row_buffer_misses += 1;
                self.step(DramCommand::Pre(addr.bank))?;
                self.step(DramCommand::Act(addr))?;
            }
            None => {
                self.stats.row_buffer_misses += 1;
                self.step(DramCommand::Act(addr))?;
            }
        }
        Ok(())
    }

    /// Functional (untimed) full-row read — for initialization and
    /// inspection; does not touch the clock, stats or hammer counters.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range addresses.
    pub fn read_row(&self, addr: RowAddr) -> Result<Vec<u8>, DramError> {
        self.validate_row(addr)?;
        let idx = self.storage_index(addr.bank, addr.subarray);
        Ok(self.storage[idx].read(addr.row))
    }

    /// Functional (untimed) full-row write.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range addresses or wrong-sized data.
    pub fn write_row(&mut self, addr: RowAddr, data: &[u8]) -> Result<(), DramError> {
        self.validate_row(addr)?;
        let idx = self.storage_index(addr.bank, addr.subarray);
        self.storage[idx].write(addr.row, data)
    }

    /// Functional read of a single bit.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range addresses.
    pub fn read_bit(&self, addr: RowAddr, bit: usize) -> Result<bool, DramError> {
        self.validate_row(addr)?;
        let idx = self.storage_index(addr.bank, addr.subarray);
        self.storage[idx].read_bit(addr.row, bit)
    }

    /// Functional flip of a single bit (fault injection outside the
    /// hammer path; counted in stats as a bit flip).
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range addresses.
    pub fn flip_bit(&mut self, addr: RowAddr, bit: usize) -> Result<bool, DramError> {
        self.validate_row(addr)?;
        let idx = self.storage_index(addr.bank, addr.subarray);
        let value = self.storage[idx].flip_bit(addr.row, bit)?;
        self.stats.bit_flips += 1;
        Ok(value)
    }

    /// RowClone copy `src -> dst`. Same-subarray pairs use a single AAP
    /// (FPM); others fall back to a timed PSM transfer.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range addresses.
    pub fn row_clone(&mut self, src: RowAddr, dst: RowAddr) -> Result<CommandResult, DramError> {
        self.validate_row(src)?;
        self.validate_row(dst)?;
        match self.clone_engine.mode(src, dst) {
            CloneMode::Fpm => self.issue(DramCommand::Aap { src, dst }),
            CloneMode::Psm => {
                let start = self.clock;
                let latency = self.clone_engine.latency_cycles(CloneMode::Psm);
                let energy = self.clone_engine.energy_pj(CloneMode::Psm);
                let data = self.read_row(src)?;
                self.write_row(dst, &data)?;
                // PSM activates both rows once.
                let mut disturbances = self.hammer.on_activate(src, &self.config.geometry);
                disturbances.extend(self.hammer.on_activate(dst, &self.config.geometry));
                self.apply_disturbances(&disturbances)?;
                self.clock = start + latency;
                self.stats.cycles = self.clock;
                self.stats.record(CommandKind::Aap, energy);
                Ok(CommandResult {
                    start_cycle: start,
                    done_cycle: start + latency,
                    energy_pj: energy,
                    disturbances,
                })
            }
        }
    }

    /// Swaps two rows in the same subarray using three RowClone copies
    /// through `buffer` (the DRAM-Locker SWAP primitive). Returns the
    /// combined result of the three AAPs.
    ///
    /// # Errors
    ///
    /// Returns an error if the three rows do not share a subarray.
    pub fn swap_rows(
        &mut self,
        a: RowAddr,
        b: RowAddr,
        buffer: RowAddr,
    ) -> Result<CommandResult, DramError> {
        let start = self.clock;
        let mut energy = 0.0;
        let mut disturbances = Vec::new();
        // Step 1: locked row -> buffer; step 2: unlocked -> locked;
        // step 3: buffer -> unlocked.
        for (src, dst) in [(a, buffer), (b, a), (buffer, b)] {
            let result = self.issue(DramCommand::Aap { src, dst })?;
            energy += result.energy_pj;
            disturbances.extend(result.disturbances);
        }
        Ok(CommandResult {
            start_cycle: start,
            done_cycle: self.clock,
            energy_pj: energy,
            disturbances,
        })
    }

    /// Number of hammer activations recorded for `id` in this window.
    pub fn activation_count(&self, id: RowId) -> u64 {
        self.hammer.count(id)
    }

    /// The row currently open in `bank`'s row buffer, if any.
    /// Returns `None` for out-of-range banks as well.
    pub fn open_row_of(&self, bank: u16) -> Option<RowAddr> {
        self.banks.get(bank as usize).and_then(Bank::open_row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> DramDevice {
        DramDevice::new(DramConfig::tiny_for_tests())
    }

    #[test]
    fn functional_row_roundtrip() {
        let mut dram = device();
        let addr = RowAddr::new(1, 1, 7);
        let data = vec![0x5A; dram.geometry().row_bytes];
        dram.write_row(addr, &data).unwrap();
        assert_eq!(dram.read_row(addr).unwrap(), data);
    }

    #[test]
    fn timed_access_moves_clock_and_counts_hits() {
        let mut dram = device();
        let addr = RowAddr::new(0, 0, 1);
        dram.access_write(addr, 0, &[1, 2, 3]).unwrap();
        let (data, _) = dram.access_read(addr, 0, 3).unwrap();
        assert_eq!(*data, [1, 2, 3]);
        assert_eq!(dram.stats().row_buffer_misses, 1);
        assert_eq!(dram.stats().row_buffer_hits, 1);
        assert!(dram.now() > 0);
    }

    /// Everything a rejected access must leave untouched.
    fn observable(dram: &DramDevice, row: RowAddr) -> (u64, DramStats, u64) {
        (dram.now(), dram.stats().clone(), dram.activation_count(dram.geometry().row_id(row)))
    }

    #[test]
    fn past_the_end_accesses_issue_nothing() {
        let mut dram = device();
        let row = RowAddr::new(0, 0, 1);
        dram.access_write(RowAddr::new(0, 0, 2), 0, &[1]).unwrap();
        let before = observable(&dram, row);
        let row_bytes = dram.geometry().row_bytes;
        let too_far = DramError::InvalidColumn { col: 68, row_bytes };
        assert_eq!(dram.access_read(row, 8, 60), Err(too_far.clone()));
        assert_eq!(observable(&dram, row), before);
        assert_eq!(dram.access_write(row, 8, &[0; 60]), Err(too_far));
        assert_eq!(observable(&dram, row), before);
        let past_row = DramError::InvalidColumn { col: row_bytes, row_bytes };
        assert_eq!(dram.access_write(row, row_bytes, &[]), Err(past_row));
        assert_eq!(observable(&dram, row), before);
    }

    #[test]
    fn huge_access_lengths_are_errors_not_panics() {
        let mut dram = device();
        let row = RowAddr::new(0, 0, 1);
        assert!(dram.access_read(row, 1, usize::MAX).is_err());
        assert!(dram.access_write(row, usize::MAX, &[1]).is_err());
        assert_eq!(observable(&dram, row), observable(&device(), row));
    }

    #[test]
    fn conflicting_row_forces_pre_act() {
        let mut dram = device();
        dram.access_read(RowAddr::new(0, 0, 1), 0, 1).unwrap();
        dram.access_read(RowAddr::new(0, 0, 2), 0, 1).unwrap();
        assert_eq!(dram.stats().row_buffer_misses, 2);
        assert_eq!(dram.stats().count(CommandKind::Pre), 1);
        assert_eq!(dram.stats().count(CommandKind::Act), 2);
    }

    #[test]
    fn invalid_addresses_rejected() {
        let mut dram = device();
        let bad_bank = RowAddr::new(99, 0, 0);
        assert_eq!(dram.issue(DramCommand::Act(bad_bank)), Err(DramError::InvalidBank(99)));
        let bad_row = RowAddr::new(0, 0, 10_000);
        assert!(matches!(dram.issue(DramCommand::Act(bad_row)), Err(DramError::InvalidRow(_))));
    }

    #[test]
    fn aap_copies_data_functionally() {
        let mut dram = device();
        let src = RowAddr::new(0, 0, 4);
        let dst = RowAddr::new(0, 0, 9);
        let data = vec![0xCD; dram.geometry().row_bytes];
        dram.write_row(src, &data).unwrap();
        dram.issue(DramCommand::Aap { src, dst }).unwrap();
        assert_eq!(dram.read_row(dst).unwrap(), data);
    }

    #[test]
    fn aap_cross_subarray_rejected() {
        let mut dram = device();
        let src = RowAddr::new(0, 0, 4);
        let dst = RowAddr::new(0, 1, 4);
        assert!(matches!(
            dram.issue(DramCommand::Aap { src, dst }),
            Err(DramError::CrossSubarrayClone { .. })
        ));
    }

    #[test]
    fn psm_clone_crosses_subarrays() {
        let mut dram = device();
        let src = RowAddr::new(0, 0, 4);
        let dst = RowAddr::new(1, 1, 4);
        let data = vec![0xEF; dram.geometry().row_bytes];
        dram.write_row(src, &data).unwrap();
        let result = dram.row_clone(src, dst).unwrap();
        assert_eq!(dram.read_row(dst).unwrap(), data);
        assert!(result.latency() > dram.clone_engine().latency_cycles(CloneMode::Fpm));
    }

    #[test]
    fn swap_rows_exchanges_contents() {
        let mut dram = device();
        let a = RowAddr::new(0, 0, 1);
        let b = RowAddr::new(0, 0, 2);
        let buffer = RowAddr::new(0, 0, 63);
        let da = vec![0xAA; dram.geometry().row_bytes];
        let db = vec![0xBB; dram.geometry().row_bytes];
        dram.write_row(a, &da).unwrap();
        dram.write_row(b, &db).unwrap();
        let result = dram.swap_rows(a, b, buffer).unwrap();
        assert_eq!(dram.read_row(a).unwrap(), db);
        assert_eq!(dram.read_row(b).unwrap(), da);
        assert_eq!(dram.stats().count(CommandKind::Aap), 3);
        assert!(result.latency() > 0);
    }

    #[test]
    fn hammering_past_trh_flips_victim_bit() {
        let mut dram = device();
        let aggressor = RowAddr::new(0, 0, 10);
        let victim = RowAddr::new(0, 0, 11);
        let victim_id = dram.geometry().row_id(victim);
        dram.hammer_mut().set_flip_plan(victim_id, vec![3]);
        assert!(!dram.read_bit(victim, 3).unwrap());
        let trh = dram.config().hammer.trh;
        for _ in 0..trh {
            dram.issue(DramCommand::Act(aggressor)).unwrap();
            dram.issue(DramCommand::Pre(0)).unwrap();
        }
        assert!(dram.read_bit(victim, 3).unwrap(), "victim bit should have flipped");
        assert!(dram.stats().bit_flips >= 1);
    }

    #[test]
    fn auto_refresh_resets_hammer_window() {
        let mut config = DramConfig::tiny_for_tests();
        config.auto_refresh = true;
        // Shrink the refresh window so the test is fast.
        config.timing.trefw = 10_000;
        config.timing.trefi = 2_000;
        let mut dram = DramDevice::new(config);
        let aggressor = RowAddr::new(0, 0, 10);
        let id = dram.geometry().row_id(aggressor);
        dram.issue(DramCommand::Act(aggressor)).unwrap();
        dram.issue(DramCommand::Pre(0)).unwrap();
        assert_eq!(dram.activation_count(id), 1);
        assert_eq!(dram.refresh_windows(), 0);
        dram.advance(20_000);
        assert_eq!(dram.activation_count(id), 0, "window reset should clear count");
        assert_eq!(dram.refresh_windows(), 2);
        assert!(dram.stats().count(CommandKind::Ref) > 0);
    }

    #[test]
    fn advance_never_refreshes_with_auto_refresh_off() {
        let mut dram = device();
        let trefw = dram.config().timing.trefw;
        dram.advance(trefw);
        assert_eq!(dram.stats().count(CommandKind::Ref), 0);
        assert_eq!(dram.refresh_windows(), 0);
    }

    #[test]
    fn flip_bit_fault_injection_counts() {
        let mut dram = device();
        let addr = RowAddr::new(0, 0, 0);
        assert!(dram.flip_bit(addr, 12).unwrap());
        assert!(!dram.flip_bit(addr, 12).unwrap());
        assert_eq!(dram.stats().bit_flips, 2);
    }
}
