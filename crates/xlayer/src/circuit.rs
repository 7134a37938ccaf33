//! Circuit-level Monte-Carlo of the in-DRAM SWAP (§IV-D).
//!
//! Stands in for the paper's Cadence Spectre simulation on the 45 nm
//! NCSU PDK. A RowClone copy succeeds when the charge-sharing swing on
//! the bit-line is large enough for the sense amplifier to latch before
//! the back-to-back destination activation:
//!
//! `ΔV = (VDD/2) · C_cell / (C_cell + C_bl)`, scaled by the access
//! transistor's drive strength. Cell capacitance, bit-line capacitance,
//! word-line driver strength and transistor strength all vary with
//! process; each trial draws them from a truncated Gaussian
//! (`σ = variation/3`, truncated at ±variation — the worst-case-corner
//! convention). A trial fails when the achieved margin falls below the
//! sense threshold, which is calibrated so the failure rates match the
//! paper: 0% at ±0%, ≈0.14% at ±10%, ≈9.6% at ±20% variation.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Nominal 45 nm cell electricals and the calibrated sense threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationConfig {
    /// Cell capacitance, fF.
    pub cell_cap_ff: f64,
    /// Bit-line capacitance, fF.
    pub bitline_cap_ff: f64,
    /// Supply voltage, V.
    pub vdd: f64,
    /// Sense succeeds when `margin ≥ threshold_fraction · nominal`.
    /// Calibrated to reproduce the paper's §IV-D failure rates.
    pub threshold_fraction: f64,
}

impl Default for VariationConfig {
    fn default() -> Self {
        Self { cell_cap_ff: 24.0, bitline_cap_ff: 85.0, vdd: 1.1, threshold_fraction: 0.87 }
    }
}

impl VariationConfig {
    /// Nominal bit-line swing in volts.
    pub fn nominal_swing(&self) -> f64 {
        (self.vdd / 2.0) * self.cell_cap_ff / (self.cell_cap_ff + self.bitline_cap_ff)
    }
}

/// Result of one Monte-Carlo campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloReport {
    /// Parameter variation (e.g. 0.2 for ±20%).
    pub variation: f64,
    /// Trials run.
    pub trials: u64,
    /// Trials whose SWAP copy failed.
    pub failures: u64,
}

impl MonteCarloReport {
    /// Failure rate in `[0, 1]`.
    pub fn failure_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.failures as f64 / self.trials as f64
        }
    }

    /// Failure rate in percent.
    pub fn failure_pct(&self) -> f64 {
        self.failure_rate() * 100.0
    }
}

/// The Monte-Carlo engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct MonteCarlo {
    config: VariationConfig,
}

impl MonteCarlo {
    /// Creates an engine.
    pub fn new(config: VariationConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &VariationConfig {
        &self.config
    }

    /// Samples one varied parameter multiplier: truncated Gaussian with
    /// `σ = variation/3`, clamped to ±variation.
    fn sample_factor(rng: &mut StdRng, variation: f64) -> f64 {
        if variation == 0.0 {
            return 1.0;
        }
        let sigma = variation / 3.0;
        // Box-Muller.
        let u1: f64 = rng.random_range(1e-12f64..1.0);
        let u2: f64 = rng.random_range(0.0f64..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        1.0 + (z * sigma).clamp(-variation, variation)
    }

    /// Simulates one SWAP row-copy; returns `true` on success.
    pub fn trial(&self, rng: &mut StdRng, variation: f64) -> bool {
        let cell = self.config.cell_cap_ff * Self::sample_factor(rng, variation);
        let bitline = self.config.bitline_cap_ff * Self::sample_factor(rng, variation);
        let drive = Self::sample_factor(rng, variation);
        let swing = (self.config.vdd / 2.0) * cell / (cell + bitline) * drive;
        swing >= self.config.threshold_fraction * self.config.nominal_swing()
    }

    /// Runs `trials` SWAP copies at ±`variation` (fraction, e.g. 0.2).
    pub fn run(&self, variation: f64, trials: u64, seed: u64) -> MonteCarloReport {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut failures = 0;
        for _ in 0..trials {
            if !self.trial(&mut rng, variation) {
                failures += 1;
            }
        }
        MonteCarloReport { variation, trials, failures }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_variation_never_fails() {
        let report = MonteCarlo::default().run(0.0, 10_000, 7);
        assert_eq!(report.failures, 0);
    }

    #[test]
    fn ten_percent_variation_fails_rarely() {
        // Paper: 0.14% at ±10%.
        let report = MonteCarlo::default().run(0.10, 10_000, 7);
        let pct = report.failure_pct();
        assert!(pct < 1.0, "got {pct}%");
    }

    #[test]
    fn twenty_percent_variation_fails_about_ten_percent() {
        // Paper: 9.6% at ±20%.
        let report = MonteCarlo::default().run(0.20, 10_000, 7);
        let pct = report.failure_pct();
        assert!((6.0..14.0).contains(&pct), "got {pct}%");
    }

    #[test]
    fn failure_rate_monotone_in_variation() {
        let mc = MonteCarlo::default();
        let rates: Vec<f64> = [0.0, 0.05, 0.10, 0.15, 0.20]
            .iter()
            .map(|&v| mc.run(v, 5_000, 3).failure_rate())
            .collect();
        for pair in rates.windows(2) {
            assert!(pair[0] <= pair[1] + 1e-9, "rates {rates:?}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mc = MonteCarlo::default();
        assert_eq!(mc.run(0.2, 1_000, 5), mc.run(0.2, 1_000, 5));
        assert_ne!(mc.run(0.2, 10_000, 5).failures, 0);
    }

    #[test]
    fn nominal_swing_is_reasonable() {
        // ~120 mV swing for 24fF/85fF at 1.1 V.
        let swing = VariationConfig::default().nominal_swing();
        assert!((0.08..0.16).contains(&swing), "swing {swing}");
    }
}
