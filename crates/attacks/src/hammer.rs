//! The physical attack layer: RowHammer through the memory controller.
//!
//! Given a target bit in a DRAM row, the driver:
//!
//! 1. registers the attacker's precise flip plan on the victim row
//!    (threat model §III: DeepHammer-style precise flips);
//! 2. picks the aggressor row adjacent to the victim and a *conflict
//!    row* far away in the same bank, then issues untrusted reads
//!    alternating between the two. The row-buffer conflict forces an
//!    activation per access — the classic hammer loop;
//! 3. stops when the victim bit flips or the activation budget runs out.
//!
//! (A naive double-sided loop that drives `v-1` and `v+1` in lockstep
//! would make both aggressors cross TRH in the same iteration and
//! toggle the victim bit twice — the single-aggressor + conflict-row
//! pattern sidesteps that artefact of the XOR disturbance model.)
//!
//! Against DRAM-Locker the aggressor row is locked: every request is
//! denied, no activation happens, and the outcome reports the denial
//! count instead of a flip.

use dlk_dram::{RowAddr, RowId};
use dlk_memctrl::{MemCtrlError, MemRequest, MemoryController};

/// Hammer driver configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HammerConfig {
    /// Maximum aggressor activations to attempt.
    pub max_activations: u64,
    /// Check the victim bit every `check_interval` activations.
    pub check_interval: u64,
}

impl Default for HammerConfig {
    fn default() -> Self {
        Self { max_activations: 200_000, check_interval: 64 }
    }
}

/// Result of one hammer campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HammerOutcome {
    /// The victim bit flipped.
    pub flipped: bool,
    /// Aggressor-side read requests issued (excluding conflict-row
    /// reads).
    pub requests: u64,
    /// Aggressor requests denied by the defense.
    pub denied: u64,
    /// Device cycles the campaign consumed.
    pub cycles: u64,
}

impl HammerOutcome {
    /// `true` if the defense blocked every aggressor access.
    pub fn fully_denied(&self) -> bool {
        self.denied > 0 && self.denied == self.requests
    }
}

/// Drives RowHammer campaigns against a controller.
#[derive(Debug, Clone, Copy, Default)]
pub struct HammerDriver {
    config: HammerConfig,
}

impl HammerDriver {
    /// Creates a driver.
    pub fn new(config: HammerConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &HammerConfig {
        &self.config
    }

    /// The aggressor the attacker will hammer to disturb `victim`:
    /// the row below if it exists, else the row above.
    pub fn pick_aggressor(victim: RowAddr, geometry: &dlk_dram::DramGeometry) -> Option<RowAddr> {
        victim.neighbor(-1, geometry).or_else(|| victim.neighbor(1, geometry))
    }

    /// A far-away row in the aggressor's bank/subarray used to force
    /// row-buffer conflicts (never adjacent to the victim).
    pub fn pick_conflict_row(aggressor: RowAddr, geometry: &dlk_dram::DramGeometry) -> RowAddr {
        let rows = geometry.rows_per_subarray;
        let far = (aggressor.row + rows / 2) % rows;
        RowAddr::new(aggressor.bank, aggressor.subarray, far)
    }

    /// Hammers until `victim`'s `bit` flips (relative to its current
    /// value) or the budget is exhausted.
    ///
    /// # Errors
    ///
    /// Propagates controller errors (unmappable rows etc.).
    pub fn hammer_bit(
        &self,
        controller: &mut MemoryController,
        victim: RowAddr,
        bit: usize,
    ) -> Result<HammerOutcome, MemCtrlError> {
        let geometry = controller.geometry();
        let victim_id: RowId = geometry.row_id(victim);
        controller.dram_mut().hammer_mut().set_flip_plan(victim_id, vec![bit]);
        let original = controller.dram().read_bit(victim, bit)?;

        let Some(aggressor) = Self::pick_aggressor(victim, &geometry) else {
            return Ok(HammerOutcome { flipped: false, requests: 0, denied: 0, cycles: 0 });
        };
        let conflict = Self::pick_conflict_row(aggressor, &geometry);
        let aggressor_phys = controller.mapper().to_phys(aggressor, 0);
        let conflict_phys = controller.mapper().to_phys(conflict, 0);

        let start_cycles = controller.dram().now();
        let mut requests = 0u64;
        let mut denied = 0u64;
        let mut flipped = false;
        while requests < self.config.max_activations {
            for _ in 0..self.config.check_interval {
                let done = controller.service(MemRequest::read(aggressor_phys, 1).untrusted())?;
                requests += 1;
                if done.denied {
                    denied += 1;
                }
                controller.service(MemRequest::read(conflict_phys, 1).untrusted())?;
            }
            if controller.dram().read_bit(victim, bit)? != original {
                flipped = true;
                break;
            }
            // If everything is denied, repetition cannot help.
            if denied == requests {
                break;
            }
        }
        Ok(HammerOutcome {
            flipped,
            requests,
            denied,
            cycles: controller.dram().now() - start_cycles,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlk_memctrl::MemCtrlConfig;

    fn controller() -> MemoryController {
        // tiny_for_tests: TRH = 16, auto-refresh off.
        MemoryController::new(MemCtrlConfig::tiny_for_tests())
    }

    #[test]
    fn hammer_flips_target_bit_without_defense() {
        let mut ctrl = controller();
        let victim = RowAddr::new(0, 0, 10);
        let driver = HammerDriver::new(HammerConfig { max_activations: 10_000, check_interval: 8 });
        let outcome = driver.hammer_bit(&mut ctrl, victim, 123).unwrap();
        assert!(outcome.flipped, "undefended hammer must succeed: {outcome:?}");
        assert_eq!(outcome.denied, 0);
        assert!(ctrl.dram().read_bit(victim, 123).unwrap());
        // The flip needed at least TRH activations of the aggressor.
        assert!(outcome.requests >= 16);
    }

    #[test]
    fn budget_exhaustion_reports_no_flip() {
        let mut ctrl = controller();
        let victim = RowAddr::new(0, 0, 10);
        // Budget below TRH -> no flip possible.
        let driver = HammerDriver::new(HammerConfig { max_activations: 8, check_interval: 4 });
        let outcome = driver.hammer_bit(&mut ctrl, victim, 0).unwrap();
        assert!(!outcome.flipped);
        assert!(outcome.requests <= 16);
    }

    #[test]
    fn hammering_costs_row_cycles() {
        let mut ctrl = controller();
        let victim = RowAddr::new(0, 1, 20);
        let driver = HammerDriver::new(HammerConfig { max_activations: 1_000, check_interval: 8 });
        let outcome = driver.hammer_bit(&mut ctrl, victim, 5).unwrap();
        assert!(outcome.cycles > 0);
        // Every access conflicts in the row buffer (alternating rows),
        // so activations track total requests (aggressor + conflict).
        assert!(ctrl.dram().stats().row_buffer_misses as f64 > outcome.requests as f64 * 1.8);
    }

    #[test]
    fn edge_victim_uses_row_above() {
        let mut ctrl = controller();
        // Row 0 has only one neighbour (row 1).
        let victim = RowAddr::new(0, 0, 0);
        let geometry = ctrl.geometry();
        assert_eq!(HammerDriver::pick_aggressor(victim, &geometry), Some(RowAddr::new(0, 0, 1)));
        let driver = HammerDriver::new(HammerConfig { max_activations: 10_000, check_interval: 8 });
        let outcome = driver.hammer_bit(&mut ctrl, victim, 7).unwrap();
        assert!(outcome.flipped);
    }

    #[test]
    fn conflict_row_is_far_from_aggressor() {
        let geometry = dlk_dram::DramGeometry::tiny();
        let aggressor = RowAddr::new(0, 0, 9);
        let conflict = HammerDriver::pick_conflict_row(aggressor, &geometry);
        assert_eq!(conflict.bank, aggressor.bank);
        assert!(conflict.row.abs_diff(aggressor.row) > 2);
    }
}
