//! Software support: the protection plan.
//!
//! The paper's framework "allows users to customize the data they are
//! willing to protect without requiring changes to the framework". A
//! [`ProtectionPlan`] is that user-facing API: the application registers
//! the physical ranges of its critical data (e.g. a DNN's weight
//! tensors), and the plan compiles them into the set of rows to lock —
//! by default the rows *adjacent* to the data (the aggressor-candidate
//! rows an attacker must hammer), per the paper's argument that locking
//! hot data rows would cause constant unlock churn.

use std::collections::BTreeSet;

use dlk_dram::RowAddr;
use dlk_memctrl::AddressMapper;

use crate::config::LockTarget;
use crate::error::LockerError;
use crate::locker::DramLocker;

/// A compiled set of rows to protect.
///
/// # Example
///
/// ```
/// use dlk_dram::DramGeometry;
/// use dlk_memctrl::AddressMapper;
/// use dlk_locker::{LockTarget, ProtectionPlan};
///
/// let geom = DramGeometry::tiny();
/// let mapper = AddressMapper::new(geom);
/// let mut plan = ProtectionPlan::new(LockTarget::AdjacentRows);
/// plan.protect_range(&mapper, 10 * 64, 11 * 64).unwrap(); // one row of data
/// // Locks the two neighbours of row 10, not row 10 itself.
/// assert_eq!(plan.lock_rows().count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProtectionPlan {
    target: LockTarget,
    radius: u32,
    data_rows: BTreeSet<(u16, u16, u32)>,
    lock_rows: BTreeSet<(u16, u16, u32)>,
}

impl ProtectionPlan {
    /// Creates an empty plan with the given lock-target policy and the
    /// default lock radius of 1 (immediate neighbours).
    pub fn new(target: LockTarget) -> Self {
        Self { target, radius: 1, data_rows: BTreeSet::new(), lock_rows: BTreeSet::new() }
    }

    /// Sets the lock radius: how many rows on each side of protected
    /// data are locked. Radius 1 covers classic RowHammer; radius 2
    /// additionally covers Half-Double-style distance-2 disturbance
    /// (Kogler et al., USENIX Security 2022), which the paper names as
    /// the attack class that breaks distance-1 victim-refresh schemes.
    pub fn with_radius(mut self, radius: u32) -> Self {
        self.radius = radius.max(1);
        self
    }

    /// The lock radius.
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// The lock-target policy.
    pub fn target(&self) -> LockTarget {
        self.target
    }

    /// Registers the physical byte range `[start, end)` as protected
    /// data, expanding the lock set per the policy.
    ///
    /// # Errors
    ///
    /// Returns [`LockerError::BadRange`] for empty or unmappable ranges.
    pub fn protect_range(
        &mut self,
        mapper: &AddressMapper,
        start: u64,
        end: u64,
    ) -> Result<(), LockerError> {
        if start >= end {
            return Err(LockerError::BadRange { start, end });
        }
        let geometry = *mapper.geometry();
        let row_bytes = geometry.row_bytes as u64;
        let mut phys = start;
        while phys < end {
            let (row, _) =
                mapper.to_dram(phys).map_err(|_| LockerError::BadRange { start, end })?;
            self.data_rows.insert((row.bank, row.subarray, row.row));
            match self.target {
                LockTarget::DataRows => {
                    self.lock_rows.insert((row.bank, row.subarray, row.row));
                }
                LockTarget::AdjacentRows => {
                    self.insert_neighbors(row, &geometry);
                }
                LockTarget::Both => {
                    self.lock_rows.insert((row.bank, row.subarray, row.row));
                    self.insert_neighbors(row, &geometry);
                }
            }
            phys = (phys / row_bytes + 1) * row_bytes;
        }
        if self.target == LockTarget::AdjacentRows {
            // Data rows themselves must stay accessible: if a data row
            // was pulled in as a neighbour of another data row, drop it.
            for &row in &self.data_rows {
                self.lock_rows.remove(&row);
            }
        }
        Ok(())
    }

    /// Rows holding protected data.
    pub fn data_rows(&self) -> impl Iterator<Item = RowAddr> + '_ {
        self.data_rows.iter().map(|&(b, s, r)| RowAddr::new(b, s, r))
    }

    /// Rows the plan will lock.
    pub fn lock_rows(&self) -> impl Iterator<Item = RowAddr> + '_ {
        self.lock_rows.iter().map(|&(b, s, r)| RowAddr::new(b, s, r))
    }

    /// Applies the plan to a locker, returning how many rows were
    /// newly locked.
    ///
    /// # Errors
    ///
    /// Returns [`LockerError::TableFull`] if the SRAM budget is spent.
    pub fn apply(&self, locker: &mut DramLocker) -> Result<usize, LockerError> {
        let mut locked = 0;
        for row in self.lock_rows() {
            if !locker.lock_table().peek(locker.geometry().row_id(row)) {
                locker.lock_row(row)?;
                locked += 1;
            }
        }
        Ok(locked)
    }

    fn insert_neighbors(&mut self, row: RowAddr, geometry: &dlk_dram::DramGeometry) {
        for distance in 1..=self.radius as i64 {
            for offset in [-distance, distance] {
                if let Some(neighbor) = row.neighbor(offset, geometry) {
                    self.lock_rows.insert((neighbor.bank, neighbor.subarray, neighbor.row));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LockerConfig;
    use dlk_dram::DramGeometry;

    fn mapper() -> AddressMapper {
        AddressMapper::new(DramGeometry::tiny())
    }

    #[test]
    fn adjacent_policy_locks_neighbors_not_data() {
        let mapper = mapper();
        let mut plan = ProtectionPlan::new(LockTarget::AdjacentRows);
        plan.protect_range(&mapper, 10 * 64, 11 * 64).unwrap();
        let locked: Vec<u32> = plan.lock_rows().map(|r| r.row).collect();
        assert_eq!(locked, vec![9, 11]);
        assert_eq!(plan.data_rows().count(), 1);
    }

    #[test]
    fn contiguous_data_locks_only_outer_neighbors() {
        // Data in rows 10..=12: neighbours are 9..=13 minus the data
        // rows themselves -> lock 9 and 13 only.
        let mapper = mapper();
        let mut plan = ProtectionPlan::new(LockTarget::AdjacentRows);
        plan.protect_range(&mapper, 10 * 64, 13 * 64).unwrap();
        let locked: Vec<u32> = plan.lock_rows().map(|r| r.row).collect();
        assert_eq!(locked, vec![9, 13]);
    }

    #[test]
    fn data_rows_policy_locks_data_itself() {
        let mapper = mapper();
        let mut plan = ProtectionPlan::new(LockTarget::DataRows);
        plan.protect_range(&mapper, 10 * 64, 12 * 64).unwrap();
        let locked: Vec<u32> = plan.lock_rows().map(|r| r.row).collect();
        assert_eq!(locked, vec![10, 11]);
    }

    #[test]
    fn both_policy_is_union() {
        let mapper = mapper();
        let mut plan = ProtectionPlan::new(LockTarget::Both);
        plan.protect_range(&mapper, 10 * 64, 11 * 64).unwrap();
        let locked: Vec<u32> = plan.lock_rows().map(|r| r.row).collect();
        assert_eq!(locked, vec![9, 10, 11]);
    }

    #[test]
    fn empty_range_rejected() {
        let mapper = mapper();
        let mut plan = ProtectionPlan::new(LockTarget::AdjacentRows);
        assert!(plan.protect_range(&mapper, 100, 100).is_err());
    }

    #[test]
    fn apply_locks_rows_in_locker() {
        let mapper = mapper();
        let mut plan = ProtectionPlan::new(LockTarget::AdjacentRows);
        plan.protect_range(&mapper, 10 * 64, 11 * 64).unwrap();
        let mut locker = DramLocker::new(LockerConfig::default(), DramGeometry::tiny());
        let locked = plan.apply(&mut locker).unwrap();
        assert_eq!(locked, 2);
        assert_eq!(locker.lock_table().len(), 2);
        // Re-applying is idempotent.
        assert_eq!(plan.apply(&mut locker).unwrap(), 0);
    }

    #[test]
    fn radius_two_locks_half_double_aggressors() {
        let mapper = mapper();
        let mut plan = ProtectionPlan::new(LockTarget::AdjacentRows).with_radius(2);
        plan.protect_range(&mapper, 10 * 64, 11 * 64).unwrap();
        let locked: Vec<u32> = plan.lock_rows().map(|r| r.row).collect();
        assert_eq!(locked, vec![8, 9, 11, 12]);
    }

    #[test]
    fn radius_zero_is_clamped_to_one() {
        let plan = ProtectionPlan::new(LockTarget::AdjacentRows).with_radius(0);
        assert_eq!(plan.radius(), 1);
    }

    #[test]
    fn subarray_edge_data_has_single_neighbor() {
        let mapper = mapper();
        let mut plan = ProtectionPlan::new(LockTarget::AdjacentRows);
        plan.protect_range(&mapper, 0, 64).unwrap(); // row 0
        let locked: Vec<u32> = plan.lock_rows().map(|r| r.row).collect();
        assert_eq!(locked, vec![1]);
    }
}
