//! The DRAM-Locker defense hook.
//!
//! [`DramLocker`] implements [`DefenseHook`]:
//!
//! - every request pays the one-cycle lock-table lookup;
//! - *untrusted* accesses to locked rows are denied — the instruction
//!   is skipped, so the attacker's hammer loop never activates the row;
//! - *trusted* (program) accesses to locked rows trigger a SWAP: the
//!   row's data moves to a randomly chosen free row of the same
//!   subarray and the access is redirected there. Until the re-lock
//!   deadline, further accesses are transparently redirected;
//! - after `relock_interval` R/W instructions the data is swapped back
//!   to its home row (Fig. 4(d)).
//!
//! Trust is an address-origin distinction, not a privilege check: the
//! locked rows are (by the protection plan) rows the victim program
//! *owns*, so its own accesses legitimately unlock them, while an
//! attacker process hammering those physical rows has no unlock path.

use std::collections::{HashMap, HashSet, VecDeque};

use dlk_dram::{DramDevice, DramGeometry, RowAddr, RowId};
use dlk_memctrl::{DefenseHook, HookAction, MemRequest};

use crate::config::LockerConfig;
use crate::error::LockerError;
use crate::locktable::LockTable;
use crate::sequence::Sequence;
use crate::stats::LockerStats;
use crate::swap::SwapEngine;

#[derive(Debug, Clone, Copy)]
struct MovedEntry {
    /// Where the locked row's data currently lives.
    current: RowAddr,
    /// The home (locked) row.
    home: RowAddr,
}

/// The DRAM-Locker defense (see crate docs and the paper's §IV).
///
/// # Example
///
/// ```
/// use dlk_dram::{DramGeometry, RowAddr};
/// use dlk_locker::{DramLocker, LockerConfig};
///
/// # fn main() -> Result<(), dlk_locker::LockerError> {
/// let geometry = DramGeometry::tiny();
/// let mut locker = DramLocker::new(LockerConfig::default(), geometry);
/// locker.lock_row(RowAddr::new(0, 0, 10))?;
/// assert_eq!(locker.lock_table().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DramLocker {
    config: LockerConfig,
    geometry: DramGeometry,
    table: LockTable,
    engine: SwapEngine,
    sequence: Sequence,
    /// Locked home row -> current data location.
    moved: HashMap<RowId, MovedEntry>,
    /// Free-pool rows currently holding moved data.
    free_in_use: HashSet<RowId>,
    /// Re-lock deadlines: (due_at_rw_count, home row id).
    relock_queue: VecDeque<(u64, RowId)>,
    stats: LockerStats,
}

impl DramLocker {
    /// Creates a locker for the given DRAM geometry.
    pub fn new(config: LockerConfig, geometry: DramGeometry) -> Self {
        Self {
            table: LockTable::new(config.table_capacity_entries()),
            engine: SwapEngine::new(&config),
            sequence: Sequence::new(),
            moved: HashMap::new(),
            free_in_use: HashSet::new(),
            relock_queue: VecDeque::new(),
            stats: LockerStats::default(),
            geometry,
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &LockerConfig {
        &self.config
    }

    /// The DRAM geometry the locker was built for.
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// The lock-table (read-only).
    pub fn lock_table(&self) -> &LockTable {
        &self.table
    }

    /// Surfaces the defense's interior counters in `registry`:
    /// lock-table probe traffic under `<prefix>.locktable.*`. Deltas
    /// only — safe to call after every run (the scenario runner does).
    pub fn export_obs(&self, registry: &dlk_obs::Registry, prefix: &str) {
        self.table.export_obs(registry, &format!("{prefix}.locktable"));
    }

    /// Runtime statistics.
    pub fn stats(&self) -> &LockerStats {
        &self.stats
    }

    /// The instruction sequence (skip accounting).
    pub fn sequence(&self) -> &Sequence {
        &self.sequence
    }

    /// Locks a row.
    ///
    /// # Errors
    ///
    /// Returns [`LockerError::TableFull`] if the SRAM budget is spent,
    /// or [`LockerError::Dram`] for addresses outside the geometry.
    pub fn lock_row(&mut self, row: RowAddr) -> Result<(), LockerError> {
        if !self.geometry.contains(row) {
            return Err(LockerError::Dram(dlk_dram::DramError::InvalidRow(row)));
        }
        self.table.lock(self.geometry.row_id(row))
    }

    /// Unlocks a row (removing any active indirection bookkeeping is
    /// the caller's responsibility — normally rows are unlocked only
    /// when the protected object is freed).
    pub fn unlock_row(&mut self, row: RowAddr) -> bool {
        self.table.unlock(self.geometry.row_id(row))
    }

    /// Locks every row overlapping the physical byte range
    /// `[start, end)` under the bank-sequential address mapping.
    ///
    /// # Errors
    ///
    /// Returns [`LockerError::BadRange`] for empty ranges and
    /// [`LockerError::TableFull`] when the SRAM budget is spent.
    pub fn lock_phys_range(&mut self, start: u64, end: u64) -> Result<usize, LockerError> {
        if start >= end {
            return Err(LockerError::BadRange { start, end });
        }
        let row_bytes = self.geometry.row_bytes as u64;
        let mut locked = 0;
        for global_row in (start / row_bytes)..=((end - 1) / row_bytes) {
            let rows = self.geometry.rows_per_subarray as u64;
            let row = (global_row % rows) as u32;
            let sa_global = global_row / rows;
            let subarray = (sa_global % self.geometry.subarrays_per_bank as u64) as u16;
            let bank = (sa_global / self.geometry.subarrays_per_bank as u64) as u16;
            self.lock_row(RowAddr::new(bank, subarray, row))?;
            locked += 1;
        }
        Ok(locked)
    }

    /// Where the data of `home` currently lives (after a SWAP), if it
    /// has been moved out.
    pub fn current_location(&self, home: RowAddr) -> Option<RowAddr> {
        self.moved.get(&self.geometry.row_id(home)).map(|entry| entry.current)
    }

    /// Number of rows whose data is currently swapped out.
    pub fn moved_count(&self) -> usize {
        self.moved.len()
    }

    fn perform_swap(
        &mut self,
        home: RowAddr,
        dram: &mut DramDevice,
    ) -> Result<RowAddr, LockerError> {
        let free = self.engine.pick_free_row(&self.geometry, home, &self.free_in_use)?;
        let outcome = self.engine.execute(dram, home, free)?;
        self.stats.swaps += 1;
        self.stats.copies_issued += 3;
        self.stats.swap_cycles += outcome.cycles;
        self.stats.swap_energy_pj += outcome.energy_pj;
        if !outcome.success {
            self.stats.swap_failures += 1;
            self.stats.failed_copies += outcome.failed_copies.len() as u64;
        }
        for instruction in outcome.program.instructions() {
            self.sequence.push_micro(*instruction);
            self.sequence.pop();
        }
        let home_id = self.geometry.row_id(home);
        let free_id = self.geometry.row_id(free);
        self.moved.insert(home_id, MovedEntry { current: free, home });
        self.free_in_use.insert(free_id);
        self.relock_queue.push_back((self.stats.rw_seen + self.config.relock_interval, home_id));
        Ok(free)
    }

    fn service_relocks(&mut self, dram: &mut DramDevice) {
        while let Some(&(due, home_id)) = self.relock_queue.front() {
            if self.stats.rw_seen < due {
                break;
            }
            self.relock_queue.pop_front();
            let Some(entry) = self.moved.remove(&home_id) else { continue };
            self.free_in_use.remove(&self.geometry.row_id(entry.current));
            // Swap the data back home; errors here count like any SWAP.
            match self.engine.execute(dram, entry.current, entry.home) {
                Ok(outcome) => {
                    self.stats.relocks += 1;
                    self.stats.copies_issued += 3;
                    self.stats.swap_cycles += outcome.cycles;
                    self.stats.swap_energy_pj += outcome.energy_pj;
                    if !outcome.success {
                        self.stats.swap_failures += 1;
                        self.stats.failed_copies += outcome.failed_copies.len() as u64;
                    }
                }
                Err(_) => {
                    // Leave the indirection in place on hard failure.
                    self.moved.insert(home_id, entry);
                    self.free_in_use.insert(self.geometry.row_id(entry.current));
                    break;
                }
            }
        }
    }
}

impl DefenseHook for DramLocker {
    fn before_access(
        &mut self,
        request: &MemRequest,
        target: RowAddr,
        dram: &mut DramDevice,
    ) -> HookAction {
        self.stats.rw_seen += 1;
        self.service_relocks(dram);
        let id = self.geometry.row_id(target);
        self.sequence.push_rw(id, false);

        if !self.table.is_locked(id) {
            self.sequence.pop();
            return HookAction::Allow;
        }
        if request.untrusted {
            // Attacker access to a locked row: skip the instruction.
            self.sequence.skip();
            self.stats.denies += 1;
            return HookAction::Deny;
        }
        self.sequence.pop();
        if let Some(entry) = self.moved.get(&id) {
            // Already unlocked by an earlier SWAP: follow the move.
            self.stats.redirects += 1;
            return HookAction::Redirect(entry.current);
        }
        match self.perform_swap(target, dram) {
            Ok(free) => {
                self.stats.redirects += 1;
                HookAction::Redirect(free)
            }
            // Pool exhausted: fail closed. Protection beats availability.
            Err(_) => {
                self.stats.denies += 1;
                HookAction::Deny
            }
        }
    }

    fn check_latency(&self) -> u64 {
        self.config.check_cycles
    }

    fn name(&self) -> &str {
        "dram-locker"
    }

    fn actions(&self) -> u64 {
        self.stats.denies + self.stats.swaps
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlk_dram::DramConfig;

    fn setup() -> (DramLocker, DramDevice) {
        let config = DramConfig::tiny_for_tests();
        let locker = DramLocker::new(LockerConfig::default(), config.geometry);
        (locker, DramDevice::new(config))
    }

    fn read_req(untrusted: bool) -> MemRequest {
        let req = MemRequest::read(0, 1);
        if untrusted {
            req.untrusted()
        } else {
            req
        }
    }

    #[test]
    fn unlocked_rows_flow_through() {
        let (mut locker, mut dram) = setup();
        let action = locker.before_access(&read_req(false), RowAddr::new(0, 0, 5), &mut dram);
        assert_eq!(action, HookAction::Allow);
        assert_eq!(locker.stats().rw_seen, 1);
    }

    #[test]
    fn attacker_denied_on_locked_row() {
        let (mut locker, mut dram) = setup();
        let row = RowAddr::new(0, 0, 5);
        locker.lock_row(row).unwrap();
        let action = locker.before_access(&read_req(true), row, &mut dram);
        assert_eq!(action, HookAction::Deny);
        assert_eq!(locker.stats().denies, 1);
        assert_eq!(locker.sequence().skipped(), 1);
        // No activation reached the DRAM.
        assert_eq!(dram.stats().total_activations(), 0);
    }

    #[test]
    fn trusted_access_triggers_swap_and_redirect() {
        let (mut locker, mut dram) = setup();
        let row = RowAddr::new(0, 0, 5);
        dram.write_row(row, &[0x77; 64]).unwrap();
        locker.lock_row(row).unwrap();
        let action = locker.before_access(&read_req(false), row, &mut dram);
        let HookAction::Redirect(new_row) = action else {
            panic!("expected redirect, got {action:?}");
        };
        assert_ne!(new_row, row);
        assert_eq!(new_row.subarray, row.subarray, "swap stays in the subarray");
        // The data followed the swap.
        assert_eq!(dram.read_row(new_row).unwrap(), vec![0x77; 64]);
        assert_eq!(locker.stats().swaps, 1);
        assert_eq!(locker.moved_count(), 1);
        // Three AAP copies were issued.
        assert_eq!(dram.stats().count(dlk_dram::CommandKind::Aap), 3);
    }

    #[test]
    fn second_trusted_access_reuses_indirection() {
        let (mut locker, mut dram) = setup();
        let row = RowAddr::new(0, 0, 5);
        locker.lock_row(row).unwrap();
        let first = locker.before_access(&read_req(false), row, &mut dram);
        let second = locker.before_access(&read_req(false), row, &mut dram);
        assert_eq!(first, second, "same redirect target, no second swap");
        assert_eq!(locker.stats().swaps, 1);
        assert_eq!(locker.stats().redirects, 2);
    }

    #[test]
    fn relock_swaps_data_home_after_interval() {
        let config = DramConfig::tiny_for_tests();
        let locker_config = LockerConfig { relock_interval: 10, ..LockerConfig::default() };
        let mut locker = DramLocker::new(locker_config, config.geometry);
        let mut dram = DramDevice::new(config);
        let row = RowAddr::new(0, 0, 5);
        dram.write_row(row, &[0x42; 64]).unwrap();
        locker.lock_row(row).unwrap();
        locker.before_access(&read_req(false), row, &mut dram);
        assert_eq!(locker.moved_count(), 1);
        // Generate interval-many R/W instructions elsewhere.
        for i in 0..10 {
            locker.before_access(&read_req(false), RowAddr::new(0, 0, 20 + i), &mut dram);
        }
        assert_eq!(locker.moved_count(), 0, "data must be re-locked");
        assert_eq!(locker.stats().relocks, 1);
        assert_eq!(dram.read_row(row).unwrap(), vec![0x42; 64], "data back home");
        // Next trusted access swaps again.
        locker.before_access(&read_req(false), row, &mut dram);
        assert_eq!(locker.stats().swaps, 2);
    }

    #[test]
    fn attacker_denied_even_while_data_moved() {
        let (mut locker, mut dram) = setup();
        let row = RowAddr::new(0, 0, 5);
        locker.lock_row(row).unwrap();
        locker.before_access(&read_req(false), row, &mut dram); // swap out
        let action = locker.before_access(&read_req(true), row, &mut dram);
        assert_eq!(action, HookAction::Deny, "home row stays locked after swap");
    }

    #[test]
    fn pool_exhaustion_fails_closed() {
        let config = DramConfig::tiny_for_tests();
        let locker_config = LockerConfig {
            free_rows_per_subarray: 1,
            relock_interval: 1_000_000,
            ..LockerConfig::default()
        };
        let mut locker = DramLocker::new(locker_config, config.geometry);
        let mut dram = DramDevice::new(config);
        let a = RowAddr::new(0, 0, 5);
        let b = RowAddr::new(0, 0, 6);
        locker.lock_row(a).unwrap();
        locker.lock_row(b).unwrap();
        assert!(matches!(
            locker.before_access(&read_req(false), a, &mut dram),
            HookAction::Redirect(_)
        ));
        // Pool (1 row) is now in use; next unlock attempt must deny.
        assert_eq!(locker.before_access(&read_req(false), b, &mut dram), HookAction::Deny);
    }

    #[test]
    fn lock_phys_range_locks_covering_rows() {
        let (mut locker, _) = setup();
        // Rows are 64 bytes in the tiny geometry; lock 3 rows' worth.
        let locked = locker.lock_phys_range(64, 64 * 4).unwrap();
        assert_eq!(locked, 3);
        assert_eq!(locker.lock_table().len(), 3);
        assert!(locker.lock_phys_range(10, 10).is_err());
    }

    #[test]
    fn out_of_geometry_lock_rejected() {
        let (mut locker, _) = setup();
        assert!(locker.lock_row(RowAddr::new(50, 0, 0)).is_err());
    }

    #[test]
    fn check_latency_is_one_cycle_sram_lookup() {
        let (locker, _) = setup();
        assert_eq!(locker.check_latency(), 1);
    }
}
