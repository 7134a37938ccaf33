//! The Page Table Attack (PTA).
//!
//! Threat model §III / Fig. 3(b): instead of flipping weight bits
//! directly, the attacker flips one PFN bit inside the victim's
//! DRAM-resident page-table entry. The victim's virtual weight page
//! then silently resolves to a different physical frame — one the
//! attacker pre-filled with malicious weight bytes (memory massaging
//! lets the attacker claim the specific frame `pfn ^ 2^bit`).
//!
//! The flip itself is realized with the same RowHammer driver as BFA,
//! aimed at the PTE row instead of a weight row — which is why a
//! general-purpose row-locking defense covers both attacks.

use dlk_memctrl::{MemCtrlError, MemoryController, PageTable};

use crate::hammer::{HammerConfig, HammerDriver, HammerOutcome};

/// PTA configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PtaConfig {
    /// Which PFN bit to flip (redirects the page by `2^bit` frames).
    pub pfn_bit: u32,
    /// Hammer budget.
    pub hammer: HammerConfig,
}

impl Default for PtaConfig {
    fn default() -> Self {
        Self { pfn_bit: 1, hammer: HammerConfig::default() }
    }
}

/// Result of one PTA campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PtaOutcome {
    /// The PTE was corrupted and the page now resolves elsewhere.
    pub redirected: bool,
    /// PFN before the attack.
    pub original_pfn: u64,
    /// PFN after the attack (== original if the attack failed).
    pub final_pfn: u64,
    /// The underlying hammer campaign.
    pub hammer: HammerOutcome,
}

/// The page-table attacker.
///
/// # Example
///
/// ```
/// use dlk_attacks::{PtaAttack, PtaConfig};
/// let attack = PtaAttack::new(PtaConfig::default());
/// assert_eq!(attack.config().pfn_bit, 1);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct PtaAttack {
    config: PtaConfig,
}

impl PtaAttack {
    /// Creates a PTA attacker.
    pub fn new(config: PtaConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &PtaConfig {
        &self.config
    }

    /// The physical frame the page will point at if the attack
    /// succeeds — where the attacker must stage the malicious payload.
    pub fn target_pfn(&self, original_pfn: u64) -> u64 {
        original_pfn ^ (1 << self.config.pfn_bit)
    }

    /// Stages an attacker payload at the redirect target of `vpn` and
    /// returns the staged frame number.
    ///
    /// # Errors
    ///
    /// Propagates translation and DRAM errors.
    pub fn stage_payload(
        &self,
        controller: &mut MemoryController,
        table: &PageTable,
        vpn: u64,
        payload: &[u8],
    ) -> Result<u64, MemCtrlError> {
        let pte = {
            let mapper = *controller.mapper();
            table.read_pte(controller.dram(), &mapper, vpn)?
        };
        let target = self.target_pfn(pte.pfn);
        let base = target * table.config().page_size;
        let mapper = *controller.mapper();
        let row_bytes = mapper.geometry().row_bytes;
        let mut offset = 0usize;
        while offset < payload.len() {
            let (row, col) = mapper.to_dram(base + offset as u64)?;
            let take = (row_bytes - col).min(payload.len() - offset);
            let mut row_data = controller.dram().read_row(row).map_err(MemCtrlError::Dram)?;
            row_data[col..col + take].copy_from_slice(&payload[offset..offset + take]);
            controller.dram_mut().write_row(row, &row_data).map_err(MemCtrlError::Dram)?;
            offset += take;
        }
        Ok(target)
    }

    /// Executes the PTA: hammers the PFN bit of `vpn`'s PTE and reports
    /// whether translation now resolves to the attacker's frame.
    ///
    /// # Errors
    ///
    /// Propagates controller/page-table errors.
    pub fn execute(
        &self,
        controller: &mut MemoryController,
        table: &PageTable,
        vpn: u64,
    ) -> Result<PtaOutcome, MemCtrlError> {
        let mapper = *controller.mapper();
        let original_pfn = table.read_pte(controller.dram(), &mapper, vpn)?.pfn;
        let (pte_row, bit_in_row) = table.pfn_bit_location(&mapper, vpn, self.config.pfn_bit)?;
        let driver = HammerDriver::new(self.config.hammer);
        let hammer = driver.hammer_bit(controller, pte_row, bit_in_row)?;
        let final_pfn = table.read_pte(controller.dram(), &mapper, vpn)?.pfn;
        Ok(PtaOutcome { redirected: final_pfn != original_pfn, original_pfn, final_pfn, hammer })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlk_memctrl::{MemCtrlConfig, MemRequest, PageTableConfig, VirtAddr};

    fn setup() -> (MemoryController, PageTable) {
        let mut ctrl = MemoryController::new(MemCtrlConfig::tiny_for_tests());
        // Keep the PTE array away from row 0 edges: base it at row 16.
        let table =
            PageTable::new(PageTableConfig { page_size: 256, base_phys: 16 * 64, num_pages: 16 });
        let mapper = *ctrl.mapper();
        // Map vpn 3 -> pfn 8.
        table.map(ctrl.dram_mut(), &mapper, 3, 8).unwrap();
        (ctrl, table)
    }

    #[test]
    fn pta_redirects_page_without_defense() {
        let (mut ctrl, table) = setup();
        let attack = PtaAttack::new(PtaConfig {
            pfn_bit: 1,
            hammer: HammerConfig { max_activations: 10_000, check_interval: 8 },
        });
        let outcome = attack.execute(&mut ctrl, &table, 3).unwrap();
        assert!(outcome.redirected, "{outcome:?}");
        assert_eq!(outcome.original_pfn, 8);
        assert_eq!(outcome.final_pfn, 8 ^ 2);
    }

    #[test]
    fn victim_reads_attacker_payload_after_pta() {
        let (mut ctrl, table) = setup();
        let attack = PtaAttack::new(PtaConfig {
            pfn_bit: 1,
            hammer: HammerConfig { max_activations: 10_000, check_interval: 8 },
        });
        // Stage malicious bytes at the redirect target.
        let payload = vec![0xBD; 16];
        let staged_pfn = attack.stage_payload(&mut ctrl, &table, 3, &payload).unwrap();
        assert_eq!(staged_pfn, 10);
        let outcome = attack.execute(&mut ctrl, &table, 3).unwrap();
        assert!(outcome.redirected);
        // Victim translates its virtual address and reads... the payload.
        let mapper = *ctrl.mapper();
        let pa = table.translate(ctrl.dram(), &mapper, VirtAddr(3 * 256)).unwrap();
        let done = ctrl.service(MemRequest::read(pa, 4)).unwrap();
        assert_eq!(done.data.as_deref(), Some(&[0xBD, 0xBD, 0xBD, 0xBD][..]));
    }

    #[test]
    fn failed_hammer_leaves_translation_intact() {
        let (mut ctrl, table) = setup();
        let attack = PtaAttack::new(PtaConfig {
            pfn_bit: 1,
            hammer: HammerConfig { max_activations: 4, check_interval: 2 },
        });
        let outcome = attack.execute(&mut ctrl, &table, 3).unwrap();
        assert!(!outcome.redirected);
        assert_eq!(outcome.final_pfn, 8);
    }

    #[test]
    fn target_pfn_is_xor() {
        let attack = PtaAttack::new(PtaConfig { pfn_bit: 3, hammer: HammerConfig::default() });
        assert_eq!(attack.target_pfn(0b0001), 0b1001);
    }
}
