//! Randomized Row-Swap (RRS) and Secure Row-Swap (SRS).
//!
//! Swap-based mitigation (Saileshwar et al., ASPLOS 2022; Woo et al.,
//! 2022): when a row's activation count crosses the swap threshold, its
//! *data* is swapped with a randomly chosen row and the controller's
//! logical-to-physical row remap is updated. The attacker keeps
//! hammering the same logical address, but the physical row behind it
//! changed — the accumulated disturbance no longer lands next to the
//! victim data.
//!
//! The defense mounts as a [`DefenseHook`]: `before_access` redirects
//! logical rows through the remap; `on_activate` counts physical-row
//! activations and triggers swaps.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;

use dlk_dram::{DramDevice, RowAddr, RowId};
use dlk_memctrl::{DefenseHook, HookAction, MemRequest};

/// Which swap-based scheme to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwapPolicy {
    /// RRS: swap at `threshold` with a uniformly random partner row of
    /// the same subarray.
    Randomized,
    /// SRS: like RRS but with a lower effective threshold (the scheme
    /// swaps proactively for security-critical rows, trading more
    /// swaps for earlier relocation).
    Secure,
}

impl SwapPolicy {
    fn effective_threshold(&self, threshold: u64) -> u64 {
        match self {
            SwapPolicy::Randomized => threshold,
            SwapPolicy::Secure => (threshold / 2).max(1),
        }
    }
}

/// The RRS/SRS defense hook.
///
/// # Example
///
/// ```
/// use dlk_defenses::{RowSwapDefense, SwapPolicy};
/// let defense = RowSwapDefense::new(SwapPolicy::Randomized, 512, 7);
/// assert_eq!(defense.swaps(), 0);
/// ```
#[derive(Debug)]
pub struct RowSwapDefense {
    policy: SwapPolicy,
    threshold: u64,
    /// Logical row -> physical row (sparse; identity when absent).
    remap: HashMap<RowId, RowAddr>,
    /// Physical row -> logical row (sparse inverse).
    inverse: HashMap<RowId, RowAddr>,
    /// Physical-row activations since the last swap of the row, in the
    /// current refresh window.
    counts: HashMap<RowId, u64>,
    /// The device's refresh-window count `counts` is from.
    window: u64,
    swaps: u64,
    rng: StdRng,
}

impl RowSwapDefense {
    /// Creates a defense swapping at `threshold` activations.
    pub fn new(policy: SwapPolicy, threshold: u64, seed: u64) -> Self {
        Self {
            policy,
            threshold,
            remap: HashMap::new(),
            inverse: HashMap::new(),
            counts: HashMap::new(),
            window: 0,
            swaps: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Swaps performed so far.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// Where a logical row currently resolves.
    pub fn resolve(&self, logical: RowAddr, dram: &DramDevice) -> RowAddr {
        let id = dram.geometry().row_id(logical);
        self.remap.get(&id).copied().unwrap_or(logical)
    }

    fn logical_of(&self, physical: RowAddr, dram: &DramDevice) -> RowAddr {
        let id = dram.geometry().row_id(physical);
        self.inverse.get(&id).copied().unwrap_or(physical)
    }

    fn swap_away(&mut self, physical: RowAddr, dram: &mut DramDevice) {
        let geometry = *dram.geometry();
        // Pick a random partner row in the same subarray (not itself,
        // not the buffer row we use for the 3-copy swap).
        let buffer_row = geometry.rows_per_subarray - 1;
        let mut partner_row = physical.row;
        for _ in 0..16 {
            let candidate = self.rng.random_range(0..geometry.rows_per_subarray - 1);
            if candidate != physical.row {
                partner_row = candidate;
                break;
            }
        }
        if partner_row == physical.row {
            return;
        }
        let partner = RowAddr::new(physical.bank, physical.subarray, partner_row);
        let buffer = RowAddr::new(physical.bank, physical.subarray, buffer_row);
        if dram.swap_rows(physical, partner, buffer).is_err() {
            return;
        }
        // The swap rewrites all three rows through the sense amps and,
        // as in the RRS paper, is paired with a targeted refresh of
        // their neighbourhoods — the accumulated disturbance of the
        // relocated aggressor is neutralized.
        let geometry_ids = [
            dram.geometry().row_id(physical),
            dram.geometry().row_id(partner),
            dram.geometry().row_id(buffer),
        ];
        for id in geometry_ids {
            dram.hammer_mut().reset_row(id);
        }
        // Update the remap: whoever pointed at `physical` now points at
        // `partner` and vice versa.
        let logical_a = self.logical_of(physical, dram);
        let logical_b = self.logical_of(partner, dram);
        let geometry = *dram.geometry();
        let ida = geometry.row_id(logical_a);
        let idb = geometry.row_id(logical_b);
        self.remap.insert(ida, partner);
        self.remap.insert(idb, physical);
        self.inverse.insert(geometry.row_id(partner), logical_a);
        self.inverse.insert(geometry.row_id(physical), logical_b);
        self.counts.remove(&geometry.row_id(physical));
        self.counts.remove(&geometry.row_id(partner));
        self.swaps += 1;
    }
}

impl DefenseHook for RowSwapDefense {
    fn before_access(
        &mut self,
        _request: &MemRequest,
        target: RowAddr,
        dram: &mut DramDevice,
    ) -> HookAction {
        let resolved = self.resolve(target, dram);
        if resolved == target {
            HookAction::Allow
        } else {
            HookAction::Redirect(resolved)
        }
    }

    fn on_activate(&mut self, row: RowAddr, dram: &mut DramDevice) {
        // A refresh window restarts the counts, as it does the device's.
        if self.window != dram.refresh_windows() {
            self.window = dram.refresh_windows();
            self.counts.clear();
        }
        let id = dram.geometry().row_id(row);
        let count = self.counts.entry(id).or_insert(0);
        *count += 1;
        if *count >= self.policy.effective_threshold(self.threshold) {
            self.swap_away(row, dram);
        }
    }

    fn check_latency(&self) -> u64 {
        1 // remap table lookup
    }

    fn name(&self) -> &str {
        match self.policy {
            SwapPolicy::Randomized => "rrs",
            SwapPolicy::Secure => "srs",
        }
    }

    fn actions(&self) -> u64 {
        self.swaps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlk_dram::DramConfig;

    fn setup(threshold: u64) -> (RowSwapDefense, DramDevice) {
        let defense = RowSwapDefense::new(SwapPolicy::Randomized, threshold, 3);
        (defense, DramDevice::new(DramConfig::tiny_for_tests()))
    }

    #[test]
    fn no_remap_before_threshold() {
        let (mut defense, mut dram) = setup(10);
        let row = RowAddr::new(0, 0, 5);
        let req = MemRequest::read(0, 1);
        assert_eq!(defense.before_access(&req, row, &mut dram), HookAction::Allow);
    }

    #[test]
    fn crossing_threshold_swaps_and_redirects() {
        let (mut defense, mut dram) = setup(4);
        let row = RowAddr::new(0, 0, 5);
        dram.write_row(row, &[0x5A; 64]).unwrap();
        for _ in 0..4 {
            defense.on_activate(row, &mut dram);
        }
        assert_eq!(defense.swaps(), 1);
        let req = MemRequest::read(0, 1);
        let action = defense.before_access(&req, row, &mut dram);
        let HookAction::Redirect(new_row) = action else {
            panic!("expected redirect after swap, got {action:?}");
        };
        assert_ne!(new_row, row);
        // The data followed the swap.
        assert_eq!(dram.read_row(new_row).unwrap(), vec![0x5A; 64]);
    }

    #[test]
    fn displaced_row_also_redirects() {
        let (mut defense, mut dram) = setup(2);
        let hot = RowAddr::new(0, 0, 5);
        defense.on_activate(hot, &mut dram);
        defense.on_activate(hot, &mut dram);
        let partner = defense.resolve(hot, &dram);
        assert_ne!(partner, hot);
        // The partner's logical address must now resolve to `hot`.
        assert_eq!(defense.resolve(partner, &dram), hot);
    }

    #[test]
    fn srs_swaps_earlier_than_rrs() {
        let mut dram = DramDevice::new(DramConfig::tiny_for_tests());
        let mut srs = RowSwapDefense::new(SwapPolicy::Secure, 8, 3);
        let mut rrs = RowSwapDefense::new(SwapPolicy::Randomized, 8, 3);
        let row = RowAddr::new(0, 1, 5);
        for _ in 0..4 {
            srs.on_activate(row, &mut dram);
            rrs.on_activate(row, &mut dram);
        }
        assert_eq!(srs.swaps(), 1);
        assert_eq!(rrs.swaps(), 0);
    }

    #[test]
    fn hammer_counter_restarts_after_swap() {
        // The security property: after relocation, the physical row the
        // attacker now activates starts from a fresh hammer count.
        let (mut defense, mut dram) = setup(4);
        let row = RowAddr::new(0, 0, 5);
        for _ in 0..4 {
            dram.issue(dlk_dram::DramCommand::Act(row)).unwrap();
            dram.issue(dlk_dram::DramCommand::Pre(0)).unwrap();
            defense.on_activate(row, &mut dram);
        }
        let new_phys = defense.resolve(row, &dram);
        let id = dram.geometry().row_id(new_phys);
        // Swap AAPs hammered rows too, but the relocated row's count is
        // far below the attacker's accumulated 4.
        assert!(dram.hammer().count(id) <= 2);
    }
}
