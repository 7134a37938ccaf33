//! A DRAM-resident page table.
//!
//! Page-table entries are stored *in DRAM rows* (at a configurable
//! physical base address), exactly like a real kernel's page tables.
//! This is what makes the Page Table Attack (PTA) of the paper possible:
//! RowHammer flips in the PTE rows silently change the physical frame a
//! virtual page points at, redirecting subsequent accesses to
//! attacker-controlled data.
//!
//! Each PTE is 8 bytes: bits `0..48` hold the physical frame number
//! (PFN), bit `63` is the valid bit, the rest are reserved/flag bits.

use std::fmt;

use dlk_dram::{DramDevice, RowAddr};

use crate::error::MemCtrlError;
use crate::mapping::AddressMapper;

/// A virtual byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtAddr(pub u64);

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "va:{:#x}", self.0)
    }
}

/// A decoded page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pte {
    /// Physical frame number.
    pub pfn: u64,
    /// Entry is valid (present).
    pub valid: bool,
}

impl Pte {
    const VALID_BIT: u64 = 63;
    const PFN_MASK: u64 = (1 << 48) - 1;

    /// Encodes the PTE to its 8-byte in-memory representation.
    pub fn encode(&self) -> u64 {
        (self.pfn & Self::PFN_MASK) | ((self.valid as u64) << Self::VALID_BIT)
    }

    /// Decodes an 8-byte in-memory representation.
    pub fn decode(raw: u64) -> Self {
        Self { pfn: raw & Self::PFN_MASK, valid: raw >> Self::VALID_BIT & 1 == 1 }
    }
}

/// Page table configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageTableConfig {
    /// Page size in bytes (power of two).
    pub page_size: u64,
    /// Physical byte address where the PTE array begins.
    pub base_phys: u64,
    /// Number of virtual pages covered.
    pub num_pages: u64,
}

impl PageTableConfig {
    /// A small configuration for tests: 256-byte pages, 32 pages, table
    /// at physical address 0.
    pub fn tiny_for_tests() -> Self {
        Self { page_size: 256, base_phys: 0, num_pages: 32 }
    }
}

/// A single-level, DRAM-resident page table.
///
/// All reads go through DRAM storage, so disturbance-induced bit flips
/// in the PTE rows are *visible to translation* — there is no shadow
/// copy that would mask an attack.
///
/// # Example
///
/// ```
/// use dlk_dram::{DramConfig, DramDevice, DramGeometry};
/// use dlk_memctrl::{AddressMapper, PageTable, PageTableConfig, VirtAddr};
///
/// # fn main() -> Result<(), dlk_memctrl::MemCtrlError> {
/// let mut dram = DramDevice::new(DramConfig::tiny_for_tests());
/// let mapper = AddressMapper::new(*dram.geometry());
/// let table = PageTable::new(PageTableConfig::tiny_for_tests());
/// table.map(&mut dram, &mapper, 3, 7)?; // vpn 3 -> pfn 7
/// let pa = table.translate(&dram, &mapper, VirtAddr(3 * 256 + 17))?;
/// assert_eq!(pa, 7 * 256 + 17);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageTable {
    config: PageTableConfig,
}

impl PageTable {
    const PTE_BYTES: u64 = 8;

    /// Creates a page table descriptor (the entries live in DRAM).
    pub fn new(config: PageTableConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &PageTableConfig {
        &self.config
    }

    /// Physical byte address of the PTE for `vpn`.
    pub fn pte_phys_addr(&self, vpn: u64) -> u64 {
        self.config.base_phys + vpn * Self::PTE_BYTES
    }

    /// DRAM location `(row, byte-column)` of the PTE for `vpn`.
    ///
    /// Attackers use this to find which row to hammer and which bits to
    /// target; SoftTRR-style defenses use it to know which rows to guard.
    ///
    /// # Errors
    ///
    /// Returns an error if the PTE array exceeds DRAM capacity.
    pub fn pte_location(
        &self,
        mapper: &AddressMapper,
        vpn: u64,
    ) -> Result<(RowAddr, usize), MemCtrlError> {
        mapper.to_dram(self.pte_phys_addr(vpn))
    }

    /// The bit index *within the PTE row* that holds PFN bit `pfn_bit`
    /// of `vpn`'s entry — the exact target an attacker must flip to
    /// redirect the page by `2^pfn_bit` frames.
    ///
    /// # Errors
    ///
    /// Returns an error if the PTE array exceeds DRAM capacity.
    pub fn pfn_bit_location(
        &self,
        mapper: &AddressMapper,
        vpn: u64,
        pfn_bit: u32,
    ) -> Result<(RowAddr, usize), MemCtrlError> {
        let (row, col) = self.pte_location(mapper, vpn)?;
        Ok((row, col * 8 + pfn_bit as usize))
    }

    /// Installs (or replaces) the mapping `vpn -> pfn` by writing the
    /// encoded PTE into DRAM.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range VPNs or DRAM addresses.
    pub fn map(
        &self,
        dram: &mut DramDevice,
        mapper: &AddressMapper,
        vpn: u64,
        pfn: u64,
    ) -> Result<(), MemCtrlError> {
        self.check_vpn(vpn)?;
        let (row, col) = self.pte_location(mapper, vpn)?;
        let raw = Pte { pfn, valid: true }.encode();
        let mut row_data = dram.read_row(row)?;
        row_data[col..col + 8].copy_from_slice(&raw.to_le_bytes());
        dram.write_row(row, &row_data)?;
        Ok(())
    }

    /// Reads and decodes the PTE for `vpn` from DRAM.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range VPNs or DRAM addresses.
    pub fn read_pte(
        &self,
        dram: &DramDevice,
        mapper: &AddressMapper,
        vpn: u64,
    ) -> Result<Pte, MemCtrlError> {
        self.check_vpn(vpn)?;
        let (row, col) = self.pte_location(mapper, vpn)?;
        let row_data = dram.read_row(row)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&row_data[col..col + 8]);
        Ok(Pte::decode(u64::from_le_bytes(raw)))
    }

    /// Translates a virtual address by walking the DRAM-resident table.
    ///
    /// # Errors
    ///
    /// Returns [`MemCtrlError::TranslationFault`] for unmapped or
    /// invalid entries.
    pub fn translate(
        &self,
        dram: &DramDevice,
        mapper: &AddressMapper,
        vaddr: VirtAddr,
    ) -> Result<u64, MemCtrlError> {
        let vpn = vaddr.0 / self.config.page_size;
        let offset = vaddr.0 % self.config.page_size;
        let pte = self
            .read_pte(dram, mapper, vpn)
            .map_err(|_| MemCtrlError::TranslationFault { vaddr: vaddr.0 })?;
        if !pte.valid {
            return Err(MemCtrlError::TranslationFault { vaddr: vaddr.0 });
        }
        Ok(pte.pfn * self.config.page_size + offset)
    }

    /// All DRAM rows that hold PTEs — the rows a page-table-protecting
    /// defense must lock.
    ///
    /// # Errors
    ///
    /// Returns an error if the PTE array exceeds DRAM capacity.
    pub fn pte_rows(&self, mapper: &AddressMapper) -> Result<Vec<RowAddr>, MemCtrlError> {
        let mut rows = Vec::new();
        let mut last: Option<RowAddr> = None;
        for vpn in 0..self.config.num_pages {
            let (row, _) = self.pte_location(mapper, vpn)?;
            if last != Some(row) {
                rows.push(row);
                last = Some(row);
            }
        }
        rows.dedup();
        Ok(rows)
    }

    fn check_vpn(&self, vpn: u64) -> Result<(), MemCtrlError> {
        if vpn >= self.config.num_pages {
            return Err(MemCtrlError::TranslationFault { vaddr: vpn * self.config.page_size });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlk_dram::DramConfig;

    fn setup() -> (DramDevice, AddressMapper, PageTable) {
        let dram = DramDevice::new(DramConfig::tiny_for_tests());
        let mapper = AddressMapper::new(*dram.geometry());
        let table = PageTable::new(PageTableConfig::tiny_for_tests());
        (dram, mapper, table)
    }

    #[test]
    fn pte_encode_decode_roundtrip() {
        let pte = Pte { pfn: 0xABCDE, valid: true };
        assert_eq!(Pte::decode(pte.encode()), pte);
        let invalid = Pte { pfn: 42, valid: false };
        assert_eq!(Pte::decode(invalid.encode()), invalid);
    }

    #[test]
    fn translate_after_map() {
        let (mut dram, mapper, table) = setup();
        table.map(&mut dram, &mapper, 5, 9).unwrap();
        let pa = table.translate(&dram, &mapper, VirtAddr(5 * 256 + 100)).unwrap();
        assert_eq!(pa, 9 * 256 + 100);
    }

    #[test]
    fn unmapped_page_faults() {
        let (dram, mapper, table) = setup();
        let err = table.translate(&dram, &mapper, VirtAddr(4 * 256)).unwrap_err();
        assert!(matches!(err, MemCtrlError::TranslationFault { .. }));
    }

    #[test]
    fn out_of_range_vpn_faults() {
        let (mut dram, mapper, table) = setup();
        assert!(table.map(&mut dram, &mapper, 1000, 0).is_err());
    }

    #[test]
    fn bit_flip_in_dram_changes_translation() {
        // The PTA primitive: flipping PFN bit k in the DRAM-resident PTE
        // redirects the page by 2^k frames.
        let (mut dram, mapper, table) = setup();
        table.map(&mut dram, &mapper, 2, 8).unwrap();
        let (row, bit) = table.pfn_bit_location(&mapper, 2, 1).unwrap();
        dram.flip_bit(row, bit).unwrap();
        let pte = table.read_pte(&dram, &mapper, 2).unwrap();
        assert_eq!(pte.pfn, 8 ^ 0b10);
        let pa = table.translate(&dram, &mapper, VirtAddr(2 * 256)).unwrap();
        assert_eq!(pa, (8 ^ 0b10) * 256);
    }

    #[test]
    fn valid_bit_flip_invalidates_entry() {
        let (mut dram, mapper, table) = setup();
        table.map(&mut dram, &mapper, 1, 3).unwrap();
        let (row, col) = table.pte_location(&mapper, 1).unwrap();
        dram.flip_bit(row, col * 8 + 63).unwrap();
        assert!(table.translate(&dram, &mapper, VirtAddr(256)).is_err());
    }

    #[test]
    fn pte_rows_cover_all_entries() {
        let (_, mapper, table) = setup();
        let rows = table.pte_rows(&mapper).unwrap();
        // 32 PTEs x 8 bytes = 256 bytes; tiny geometry rows are 64 bytes
        // -> 4 rows.
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn remap_overwrites() {
        let (mut dram, mapper, table) = setup();
        table.map(&mut dram, &mapper, 0, 1).unwrap();
        table.map(&mut dram, &mapper, 0, 2).unwrap();
        assert_eq!(table.read_pte(&dram, &mapper, 0).unwrap().pfn, 2);
    }
}
