//! Training-based DNN defenses (Table II).
//!
//! The software-side alternatives the paper compares DRAM-Locker
//! against, each evaluated by running BFA until the model reaches
//! near-chance accuracy (or a flip budget runs out):
//!
//! - baseline: the undefended quantized victim;
//! - [`transforms::PiecewiseClustering`]: clip weight outliers so a
//!   single MSB flip moves a weight less;
//! - [`binary::BinaryWeight`]: binarized weights — a flip can only
//!   toggle a sign, bounding per-flip damage;
//! - capacity scaling: a wider network dilutes per-weight noise;
//! - [`transforms::WeightReconstruction`]: statistical outlier repair
//!   after every flip;
//! - RA-BNN: binarization *and* capacity growth;
//! - DRAM-Locker: the hardware defense — flips never land, accuracy
//!   never moves.
//!
//! All of these trade training cost or clean accuracy for robustness;
//! DRAM-Locker's point in Table II is keeping the baseline's clean
//! accuracy while blocking the attack entirely.

#![allow(
    clippy::expect_used,
    reason = "Table II's training defenses run offline, off the request path"
)]

pub mod binary;
pub mod transforms;

use dlk_attacks::bfa::{BfaConfig, BitSearch};
use dlk_dnn::models::Victim;
use dlk_dnn::{QuantNetwork, Tensor};

/// One row of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct TableTwoEntry {
    /// Defense name.
    pub name: String,
    /// Accuracy before the attack, percent.
    pub clean_acc_pct: f64,
    /// Accuracy after the attack, percent.
    pub post_attack_acc_pct: f64,
    /// Bit flips performed (or attempted, for DRAM-Locker).
    pub bit_flips: usize,
}

/// Runs BFA on `model` until accuracy falls to `target_acc` or `budget`
/// flips are spent. Returns `(final_accuracy, flips_used)`.
pub fn run_bfa_until(
    model: &mut QuantNetwork,
    x: &Tensor,
    labels: &[usize],
    target_acc: f64,
    budget: usize,
) -> (f64, usize) {
    let mut search = BitSearch::new(BfaConfig::default());
    let mut accuracy = model.accuracy(x, labels).expect("shapes consistent");
    let mut flips = 0;
    while accuracy > target_acc && flips < budget {
        let Some(flip) = search.next_flip(model, x, labels) else { break };
        model.flip_bit(flip).expect("search returns valid indices");
        flips += 1;
        accuracy = model.accuracy(x, labels).expect("shapes consistent");
    }
    (accuracy, flips)
}

/// Evaluates the undefended baseline.
pub fn baseline_entry(victim: &Victim, sample: usize, budget: usize) -> TableTwoEntry {
    let (x, y) = victim.dataset.test_sample(sample, 0);
    let mut model = victim.model.clone();
    let clean = model.accuracy(&x, &y).expect("shapes consistent");
    // Robustness metric: flips needed to halve the model's own clean
    // accuracy. The one half is a chosen target, not the paper's: it
    // keeps the metric insensitive to differing clean baselines across
    // defenses. ROADMAP item 5 states it in a claim-ledger row beside
    // the paper's value.
    let (post, flips) = run_bfa_until(&mut model, &x, &y, clean * 0.5, budget);
    TableTwoEntry {
        name: "Baseline".to_owned(),
        clean_acc_pct: clean * 100.0,
        post_attack_acc_pct: post * 100.0,
        bit_flips: flips,
    }
}

/// Evaluates DRAM-Locker's row: the attack is blocked in hardware, so
/// after `budget` *attempted* flips the accuracy equals the clean
/// accuracy.
pub fn dram_locker_entry(victim: &Victim, sample: usize, attempted: usize) -> TableTwoEntry {
    let (x, y) = victim.dataset.test_sample(sample, 0);
    let clean = victim.model.accuracy(&x, &y).expect("shapes consistent") * 100.0;
    TableTwoEntry {
        name: "DRAM-Locker".to_owned(),
        clean_acc_pct: clean,
        post_attack_acc_pct: clean,
        bit_flips: attempted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlk_dnn::models;

    #[test]
    fn baseline_collapses_within_budget() {
        let victim = models::victim_tiny(3);
        let entry = baseline_entry(&victim, 32, 40);
        assert!(entry.post_attack_acc_pct < entry.clean_acc_pct);
        assert!(entry.bit_flips > 0);
    }

    #[test]
    fn locker_preserves_clean_accuracy() {
        let victim = models::victim_tiny(3);
        let entry = dram_locker_entry(&victim, 32, 1150);
        assert_eq!(entry.clean_acc_pct, entry.post_attack_acc_pct);
        assert_eq!(entry.bit_flips, 1150);
    }

    #[test]
    fn run_bfa_until_respects_budget() {
        let victim = models::victim_tiny(4);
        let (x, y) = victim.dataset.test_sample(16, 0);
        let mut model = victim.model.clone();
        let (_, flips) = run_bfa_until(&mut model, &x, &y, 0.0, 3);
        assert!(flips <= 3);
    }
}
