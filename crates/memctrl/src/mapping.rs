//! Physical-address to DRAM-coordinate mapping.
//!
//! The mapping is bank-sequential: a bank's rows are contiguous in the
//! physical address space, which keeps related data (e.g. one DNN
//! layer) in one bank/subarray — convenient for reasoning about
//! adjacency in attacks. It is bijective over the device capacity, and
//! adjacency within a subarray (what RowHammer cares about) is
//! preserved by construction because the low-order `row` bits map to
//! physically adjacent rows.

use dlk_dram::{DramGeometry, RowAddr};

use crate::error::MemCtrlError;

/// Maps physical byte addresses to `(RowAddr, column)` pairs and back.
///
/// # Example
///
/// ```
/// use dlk_dram::DramGeometry;
/// use dlk_memctrl::AddressMapper;
///
/// let geom = DramGeometry::tiny();
/// let mapper = AddressMapper::new(geom);
/// let (addr, col) = mapper.to_dram(geom.row_bytes as u64 + 5).unwrap();
/// assert_eq!(col, 5);
/// assert_eq!(mapper.to_phys(addr, col), geom.row_bytes as u64 + 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapper {
    geometry: DramGeometry,
}

impl AddressMapper {
    /// Creates a mapper for a geometry.
    pub fn new(geometry: DramGeometry) -> Self {
        Self { geometry }
    }

    /// The geometry this mapper covers.
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// Total mapped capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.geometry.capacity_bytes()
    }

    /// Maps a physical byte address to a DRAM coordinate.
    ///
    /// # Errors
    ///
    /// Returns [`MemCtrlError::AddressOutOfRange`] beyond capacity.
    pub fn to_dram(&self, phys: u64) -> Result<(RowAddr, usize), MemCtrlError> {
        if phys >= self.capacity() {
            return Err(MemCtrlError::AddressOutOfRange { addr: phys, capacity: self.capacity() });
        }
        let row_bytes = self.geometry.row_bytes as u64;
        let global_row = phys / row_bytes;
        let col = (phys % row_bytes) as usize;
        // global_row = ((bank * subarrays + subarray) * rows) + row
        let rows = self.geometry.rows_per_subarray as u64;
        let row = (global_row % rows) as u32;
        let sa_global = global_row / rows;
        let subarray = (sa_global % self.geometry.subarrays_per_bank as u64) as u16;
        let bank = (sa_global / self.geometry.subarrays_per_bank as u64) as u16;
        Ok((RowAddr::new(bank, subarray, row), col))
    }

    /// Inverse of [`AddressMapper::to_dram`].
    pub fn to_phys(&self, addr: RowAddr, col: usize) -> u64 {
        let row_bytes = self.geometry.row_bytes as u64;
        let global_row = (addr.bank as u64 * self.geometry.subarrays_per_bank as u64
            + addr.subarray as u64)
            * self.geometry.rows_per_subarray as u64
            + addr.row as u64;
        global_row * row_bytes + col as u64
    }

    /// The physical byte range `[start, end)` covered by one DRAM row.
    pub fn row_span(&self, addr: RowAddr) -> (u64, u64) {
        let start = self.to_phys(addr, 0);
        (start, start + self.geometry.row_bytes as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapper() -> AddressMapper {
        AddressMapper::new(DramGeometry::tiny())
    }

    #[test]
    fn roundtrip_is_bijective() {
        let mapper = mapper();
        let row_bytes = mapper.geometry().row_bytes as u64;
        // Sample one address per row plus odd offsets.
        for row in 0..mapper.capacity() / row_bytes {
            let phys = row * row_bytes + (row % row_bytes);
            let (addr, col) = mapper.to_dram(phys).unwrap();
            assert_eq!(mapper.to_phys(addr, col), phys);
        }
    }

    #[test]
    fn out_of_range_rejected() {
        let mapper = mapper();
        assert!(mapper.to_dram(mapper.capacity()).is_err());
        assert!(mapper.to_dram(u64::MAX).is_err());
    }

    #[test]
    fn bank_sequential_keeps_consecutive_rows_adjacent() {
        let geom = DramGeometry::tiny();
        let mapper = AddressMapper::new(geom);
        let row_bytes = geom.row_bytes as u64;
        let (a, _) = mapper.to_dram(0).unwrap();
        let (b, _) = mapper.to_dram(row_bytes).unwrap();
        assert_eq!(a.bank, b.bank);
        assert_eq!(a.subarray, b.subarray);
        assert_eq!(b.row, a.row + 1, "physically adjacent rows");
    }

    #[test]
    fn row_span_covers_row_bytes() {
        let mapper = mapper();
        let (addr, _) = mapper.to_dram(12345).unwrap();
        let (start, end) = mapper.row_span(addr);
        assert_eq!(end - start, mapper.geometry().row_bytes as u64);
        assert!((start..end).contains(&12345));
    }

    #[test]
    fn full_coverage_no_collisions_bank_sequential() {
        let geom = DramGeometry::tiny();
        let mapper = AddressMapper::new(geom);
        let mut seen = std::collections::HashSet::new();
        let row_bytes = geom.row_bytes as u64;
        for phys in (0..mapper.capacity()).step_by(row_bytes as usize) {
            let (addr, _) = mapper.to_dram(phys).unwrap();
            assert!(seen.insert(addr), "collision at {phys:#x}");
        }
        assert_eq!(seen.len() as u64, geom.total_rows());
    }
}
