//! SHADOW (Wi et al., HPCA 2023): intra-subarray row shuffling.
//!
//! SHADOW prevents RowHammer by shuffling rows inside a subarray so an
//! attacker can never keep hammering next to its victim. The paper
//! criticizes it as *unintelligent*: it swaps all potential target rows
//! whether or not they are under attack, wasting swap bandwidth.
//!
//! Two faces are provided:
//!
//! - [`Shadow`] — a working [`DefenseHook`] (per-row counters, shuffle
//!   at threshold, logical/physical remap) for end-to-end simulation;
//! - [`ShadowModel`] — the analytical latency/defense-time model used
//!   to regenerate Fig. 7(a)/(b). SHADOW's latency grows with the
//!   number of BFAs (each BFA of `trh_attack` activations forces
//!   `trh_attack / threshold` shuffles) until the *defense threshold*:
//!   once the demanded shuffle bandwidth exceeds the per-window budget,
//!   system integrity is compromised and delay escalation halts.

use serde::{Deserialize, Serialize};

use dlk_dram::{DramDevice, RowAddr, TimingParams};
use dlk_memctrl::{DefenseHook, HookAction, MemRequest};

use crate::rrs::{RowSwapDefense, SwapPolicy};

/// SHADOW as a working defense hook (shuffle = randomized intra-
/// subarray swap at the configured threshold).
#[derive(Debug)]
pub struct Shadow {
    inner: RowSwapDefense,
    threshold: u64,
}

impl Shadow {
    /// Creates a SHADOW hook shuffling rows every `threshold`
    /// activations.
    pub fn new(threshold: u64, seed: u64) -> Self {
        Self { inner: RowSwapDefense::new(SwapPolicy::Randomized, threshold, seed), threshold }
    }

    /// The shuffle threshold.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Shuffles performed.
    pub fn shuffles(&self) -> u64 {
        self.inner.swaps()
    }
}

impl DefenseHook for Shadow {
    fn before_access(
        &mut self,
        request: &MemRequest,
        target: RowAddr,
        dram: &mut DramDevice,
    ) -> HookAction {
        self.inner.before_access(request, target, dram)
    }

    fn on_activate(&mut self, row: RowAddr, dram: &mut DramDevice) {
        self.inner.on_activate(row, dram);
    }

    fn check_latency(&self) -> u64 {
        self.inner.check_latency()
    }

    fn name(&self) -> &str {
        "shadow"
    }

    fn actions(&self) -> u64 {
        self.shuffles()
    }
}

/// The analytical SHADOW cost/security model behind Fig. 7.
///
/// # Example
///
/// ```
/// use dlk_defenses::ShadowModel;
/// let shadow1k = ShadowModel::new(1000);
/// let shadow8k = ShadowModel::new(8000);
/// // More frequent shuffling -> more latency for the same attack.
/// let n = 20_000;
/// assert!(shadow1k.latency_per_tref_s(n, 1000) > shadow8k.latency_per_tref_s(n, 1000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShadowModel {
    /// Shuffle threshold (activations between shuffles of a hot row).
    pub threshold: u64,
    /// Cycles per shuffle: a three-copy swap plus remap-table update.
    pub shuffle_cycles: u64,
    /// Fraction of the refresh window SHADOW may spend shuffling before
    /// it can no longer keep up (the defense threshold of Fig. 7(a)).
    pub budget_fraction: f64,
    /// DDR timing used for unit conversion.
    pub timing: TimingParams,
}

impl ShadowModel {
    /// Creates a model with the paper-calibrated constants.
    pub fn new(threshold: u64) -> Self {
        let timing = TimingParams::ddr4_2400();
        Self {
            threshold,
            // 3 RowClone copies + tag bookkeeping.
            shuffle_cycles: 3 * timing.rowclone_cycles() + 64,
            budget_fraction: 0.13,
            timing,
        }
    }

    /// Shuffles demanded by `n_bfa` attacks of `trh_attack` activations
    /// each within one refresh window.
    pub fn shuffles_needed(&self, n_bfa: u64, trh_attack: u64) -> u64 {
        (n_bfa * trh_attack) / self.threshold.max(1)
    }

    /// Maximum shuffles SHADOW can execute per refresh window.
    pub fn shuffle_capacity(&self) -> u64 {
        ((self.timing.trefw as f64 * self.budget_fraction) / self.shuffle_cycles as f64) as u64
    }

    /// The defense threshold: the BFA count beyond which SHADOW cannot
    /// keep up and integrity is compromised.
    pub fn defense_threshold_bfas(&self, trh_attack: u64) -> u64 {
        self.shuffle_capacity() * self.threshold / trh_attack.max(1)
    }

    /// Added latency per refresh window in seconds for `n_bfa` attacks
    /// (saturates at the defense threshold — beyond it the system is
    /// compromised and no further delay accrues, as in Fig. 7(a)).
    pub fn latency_per_tref_s(&self, n_bfa: u64, trh_attack: u64) -> f64 {
        let shuffles = self.shuffles_needed(n_bfa, trh_attack).min(self.shuffle_capacity());
        self.timing.cycles_to_s(shuffles * self.shuffle_cycles)
    }

    /// `true` if `n_bfa` attacks per window exceed what SHADOW can
    /// mitigate.
    pub fn compromised(&self, n_bfa: u64, trh_attack: u64) -> bool {
        self.shuffles_needed(n_bfa, trh_attack) > self.shuffle_capacity()
    }

    /// Expected defense time in days: windows until the attacker's
    /// cumulative success probability exceeds 99%.
    ///
    /// Per window the attacker completes `hammers_per_window / trh`
    /// hammer campaigns; each campaign succeeds if the post-shuffle
    /// placement happens to restore aggressor/victim adjacency, modeled
    /// as `alignment_probability` (two-row placement in a 512-row
    /// subarray ≈ 1/512² ≈ 3.8e-6).
    pub fn defense_time_days(&self, trh_attack: u64) -> f64 {
        let opportunities = (self.timing.hammers_per_window() / trh_attack.max(1)) as f64;
        let alignment_probability = 1.0 / (512.0 * 512.0);
        defense_days(opportunities * alignment_probability, &self.timing)
    }
}

/// Windows during which the attacker's cumulative success probability
/// stays below 1% (the paper's success criterion), converted to days.
pub fn defense_days(p_win: f64, timing: &TimingParams) -> f64 {
    let p = p_win.clamp(1e-300, 0.999_999);
    // 1 - (1-p)^n = 0.01  =>  n = ln(0.99) / ln(1-p)
    let windows = (0.99f64).ln() / (1.0 - p).ln();
    windows * timing.cycles_to_s(timing.trefw) / 86_400.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlk_dram::DramConfig;

    #[test]
    fn hook_shuffles_hot_rows() {
        let mut dram = DramDevice::new(DramConfig::tiny_for_tests());
        let mut shadow = Shadow::new(4, 1);
        let row = RowAddr::new(0, 0, 10);
        for _ in 0..8 {
            shadow.on_activate(row, &mut dram);
        }
        assert!(shadow.shuffles() >= 1);
    }

    #[test]
    fn latency_ordering_matches_fig7a() {
        // SHADOW-1000 > SHADOW-2000 > SHADOW-4000 > SHADOW-8000 at a
        // fixed attack intensity below everyone's defense threshold.
        let n = 5_000;
        let latencies: Vec<f64> = [1000u64, 2000, 4000, 8000]
            .iter()
            .map(|&t| ShadowModel::new(t).latency_per_tref_s(n, 1000))
            .collect();
        for pair in latencies.windows(2) {
            assert!(pair[0] >= pair[1], "latencies must be non-increasing: {latencies:?}");
        }
        assert!(latencies[0] > 0.0);
    }

    #[test]
    fn latency_saturates_at_defense_threshold() {
        let model = ShadowModel::new(1000);
        let threshold = model.defense_threshold_bfas(1000);
        let below = model.latency_per_tref_s(threshold.saturating_sub(1), 1000);
        let at = model.latency_per_tref_s(threshold, 1000);
        let beyond = model.latency_per_tref_s(threshold * 10, 1000);
        assert!(below <= at);
        assert!((beyond - at).abs() < at * 0.01 + 1e-12, "latency must flatten");
        assert!(model.compromised(threshold * 10, 1000));
        assert!(!model.compromised(threshold / 2, 1000));
    }

    #[test]
    fn defense_time_is_short_relative_to_dram_locker() {
        // Fig. 7(b): SHADOW defends for far less time than DRAM-Locker's
        // 500+ days (tested against the locker model in dlk-xlayer).
        let model = ShadowModel::new(1000);
        let days = model.defense_time_days(1000);
        assert!(days < 100.0, "SHADOW should fail within weeks: {days}");
        assert!(days > 0.0);
    }

    #[test]
    fn higher_attack_threshold_extends_defense() {
        let model = ShadowModel::new(1000);
        assert!(model.defense_time_days(8000) > model.defense_time_days(1000));
    }
}
