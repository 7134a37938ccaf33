//! Table II: DRAM-Locker vs training-based software defenses.
//!
//! Every defense is attacked with progressive bit search until the
//! model loses half of its own clean accuracy (or the flip budget runs
//! out); the table reports clean accuracy, post-attack accuracy and
//! the flips spent. DRAM-Locker's row keeps the baseline's clean
//! accuracy untouched after the full budget of *attempted* flips.

use dlk_defenses::training::binary::{BinaryWeight, CapacityScale, RaBnn};
use dlk_defenses::training::transforms::{PiecewiseClustering, WeightReconstruction};
use dlk_defenses::training::{baseline_entry, dram_locker_entry, TableTwoEntry};
use dlk_dnn::models;
use dlk_sim::metrics::Table;

use super::Fidelity;

/// Runs every Table II row.
pub fn entries(fidelity: Fidelity) -> Vec<TableTwoEntry> {
    let (victim, sample, budget) = match fidelity {
        Fidelity::Fast => (models::victim_tiny(7), 32, 40),
        Fidelity::Full => (models::victim_resnet20_cifar10(7), 64, 250),
    };
    vec![
        baseline_entry(&victim, sample, budget),
        PiecewiseClustering::default().evaluate(&victim, sample, budget),
        BinaryWeight.evaluate(&victim, sample, budget),
        CapacityScale::default().evaluate(&victim, sample, budget),
        WeightReconstruction::default().evaluate(&victim, sample, budget),
        RaBnn::default().evaluate(&victim, sample, budget),
        dram_locker_entry(&victim, sample, budget.max(1150)),
    ]
}

/// Builds the rendered table.
pub fn run(fidelity: Fidelity) -> Table {
    let mut table = Table::new(
        "Table II: vs training-based defenses (ResNet-20 / CIFAR-10)",
        &["Model", "Clean Acc. (%)", "Post-Attack Acc. (%)", "Bit-Flips #"],
    );
    for entry in entries(fidelity) {
        table.row(vec![
            entry.name.clone(),
            format!("{:.2}", entry.clean_acc_pct),
            format!("{:.2}", entry.post_attack_acc_pct),
            entry.bit_flips.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locker_row_preserves_clean_accuracy() {
        let rows = entries(Fidelity::Fast);
        let locker = rows.last().unwrap();
        assert_eq!(locker.name, "DRAM-Locker");
        assert_eq!(locker.clean_acc_pct, locker.post_attack_acc_pct);
        let baseline = &rows[0];
        assert!(baseline.post_attack_acc_pct < baseline.clean_acc_pct);
    }

    #[test]
    fn locker_attempted_flips_dominate() {
        let rows = entries(Fidelity::Fast);
        let locker_flips = rows.last().unwrap().bit_flips;
        for row in &rows[..rows.len() - 1] {
            assert!(locker_flips >= row.bit_flips, "{row:?}");
        }
    }

    #[test]
    fn table_has_seven_rows() {
        let table = run(Fidelity::Fast);
        assert_eq!(table.rows().len(), 7);
    }
}
