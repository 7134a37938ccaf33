//! DRAM geometry: banks, subarrays, rows, columns and typed addresses.
//!
//! The paper's evaluation uses a 32 GB, 16-bank DDR4 configuration; the
//! defaults here are a scaled-down (but structurally identical) device so
//! that simulations run comfortably in memory. All sizes are configurable.

use std::fmt;

/// Identifier of a bank within a DRAM device.
pub type BankId = u16;
/// Identifier of a subarray within a bank.
pub type SubarrayId = u16;

/// A flat, device-global row identifier.
///
/// `RowId` is a dense index over `(bank, subarray, row)` suitable for use
/// as a hash key in trackers and lock tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(pub u64);

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "row#{}", self.0)
    }
}

/// A structured row address: `(bank, subarray, row-within-subarray)`.
///
/// # Example
///
/// ```
/// use dlk_dram::RowAddr;
/// let addr = RowAddr::new(1, 2, 100);
/// assert_eq!(addr.bank, 1);
/// assert_eq!(addr.subarray, 2);
/// assert_eq!(addr.row, 100);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowAddr {
    /// Bank index.
    pub bank: BankId,
    /// Subarray index within the bank.
    pub subarray: SubarrayId,
    /// Row index within the subarray.
    pub row: u32,
}

impl RowAddr {
    /// Creates a new row address.
    pub fn new(bank: BankId, subarray: SubarrayId, row: u32) -> Self {
        Self { bank, subarray, row }
    }

    /// Returns the address of the row physically adjacent at `offset`
    /// (e.g. `-1` / `+1` for the two RowHammer victim rows), or `None` if
    /// it would fall outside the subarray.
    ///
    /// Disturbance does not propagate across subarray boundaries because
    /// each subarray has its own sense-amplifier stripe isolating it.
    pub fn neighbor(&self, offset: i64, geometry: &DramGeometry) -> Option<RowAddr> {
        let row = self.row as i64 + offset;
        if row < 0 || row >= geometry.rows_per_subarray as i64 {
            None
        } else {
            Some(RowAddr::new(self.bank, self.subarray, row as u32))
        }
    }
}

impl fmt::Display for RowAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}.s{}.r{}", self.bank, self.subarray, self.row)
    }
}

/// Physical organization of a DRAM device.
///
/// # Example
///
/// ```
/// use dlk_dram::DramGeometry;
/// let geom = DramGeometry::default();
/// assert!(geom.total_rows() > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramGeometry {
    /// Number of banks in the device.
    pub banks: u16,
    /// Number of subarrays per bank.
    pub subarrays_per_bank: u16,
    /// Number of rows per subarray.
    pub rows_per_subarray: u32,
    /// Row size in bytes (the amount latched into the row buffer).
    pub row_bytes: usize,
}

impl DramGeometry {
    /// A small geometry convenient for unit tests: 2 banks, 2 subarrays,
    /// 64 rows of 64 bytes.
    pub fn tiny() -> Self {
        Self { banks: 2, subarrays_per_bank: 2, rows_per_subarray: 64, row_bytes: 64 }
    }

    /// Rows per bank across all subarrays.
    pub fn rows_per_bank(&self) -> u64 {
        self.subarrays_per_bank as u64 * self.rows_per_subarray as u64
    }

    /// Total number of rows in the device.
    pub fn total_rows(&self) -> u64 {
        self.banks as u64 * self.rows_per_bank()
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_rows() * self.row_bytes as u64
    }

    /// Returns `true` if `addr` lies within this geometry.
    pub fn contains(&self, addr: RowAddr) -> bool {
        addr.bank < self.banks
            && addr.subarray < self.subarrays_per_bank
            && addr.row < self.rows_per_subarray
    }

    /// Flattens a structured address into a device-global [`RowId`].
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `addr` is outside the geometry; use
    /// [`DramGeometry::contains`] to validate first.
    pub fn row_id(&self, addr: RowAddr) -> RowId {
        debug_assert!(self.contains(addr), "address {addr} outside geometry");
        let per_bank = self.rows_per_bank();
        RowId(
            addr.bank as u64 * per_bank
                + addr.subarray as u64 * self.rows_per_subarray as u64
                + addr.row as u64,
        )
    }

    /// Expands a flat [`RowId`] back into a structured address.
    ///
    /// Returns `None` if the id is outside the geometry.
    pub fn row_addr(&self, id: RowId) -> Option<RowAddr> {
        if id.0 >= self.total_rows() {
            return None;
        }
        let per_bank = self.rows_per_bank();
        let bank = (id.0 / per_bank) as u16;
        let rem = id.0 % per_bank;
        let subarray = (rem / self.rows_per_subarray as u64) as u16;
        let row = (rem % self.rows_per_subarray as u64) as u32;
        Some(RowAddr::new(bank, subarray, row))
    }
}

impl Default for DramGeometry {
    /// A mid-sized geometry: 8 banks, 8 subarrays, 256 rows, 2 KiB rows.
    fn default() -> Self {
        Self { banks: 8, subarrays_per_bank: 8, rows_per_subarray: 256, row_bytes: 2048 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_id_roundtrip() {
        let geom = DramGeometry::default();
        let addr = RowAddr::new(3, 5, 100);
        let id = geom.row_id(addr);
        assert_eq!(geom.row_addr(id), Some(addr));
    }

    #[test]
    fn row_id_dense_and_unique() {
        let geom = DramGeometry::tiny();
        let mut seen = std::collections::HashSet::new();
        for bank in 0..geom.banks {
            for sa in 0..geom.subarrays_per_bank {
                for row in 0..geom.rows_per_subarray {
                    let id = geom.row_id(RowAddr::new(bank, sa, row));
                    assert!(id.0 < geom.total_rows());
                    assert!(seen.insert(id), "duplicate id {id}");
                }
            }
        }
        assert_eq!(seen.len() as u64, geom.total_rows());
    }

    #[test]
    fn out_of_range_id_rejected() {
        let geom = DramGeometry::tiny();
        assert_eq!(geom.row_addr(RowId(geom.total_rows())), None);
    }

    #[test]
    fn neighbor_respects_subarray_bounds() {
        let geom = DramGeometry::tiny();
        let first = RowAddr::new(0, 0, 0);
        assert_eq!(first.neighbor(-1, &geom), None);
        assert_eq!(first.neighbor(1, &geom), Some(RowAddr::new(0, 0, 1)));
        let last = RowAddr::new(0, 0, geom.rows_per_subarray - 1);
        assert_eq!(last.neighbor(1, &geom), None);
        assert_eq!(last.neighbor(-2, &geom), Some(RowAddr::new(0, 0, geom.rows_per_subarray - 3)));
    }

    #[test]
    fn contains_validates_every_field() {
        let geom = DramGeometry::tiny();
        assert!(geom.contains(RowAddr::new(0, 0, 0)));
        assert!(!geom.contains(RowAddr::new(geom.banks, 0, 0)));
        assert!(!geom.contains(RowAddr::new(0, geom.subarrays_per_bank, 0)));
        assert!(!geom.contains(RowAddr::new(0, 0, geom.rows_per_subarray)));
    }

    #[test]
    fn capacity_matches_product() {
        let geom = DramGeometry {
            banks: 16,
            subarrays_per_bank: 32,
            rows_per_subarray: 512,
            row_bytes: 8192,
        };
        assert_eq!(geom.capacity_bytes(), 16u64 * 32 * 512 * 8192);
    }

    #[test]
    fn display_formats() {
        let addr = RowAddr::new(1, 2, 3);
        assert_eq!(addr.to_string(), "b1.s2.r3");
        assert_eq!(RowId(7).to_string(), "row#7");
    }
}
