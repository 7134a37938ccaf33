//! §IV-D: Monte-Carlo SWAP error rates under process variation.

use dlk_sim::metrics::Table;

use crate::circuit::{MonteCarlo, VariationConfig};

use super::Fidelity;

/// Runs the 10,000-trial sweep (1,000 trials in fast mode) at ±0%,
/// ±10% and ±20% variation.
pub fn run(fidelity: Fidelity) -> Table {
    let trials = match fidelity {
        Fidelity::Fast => 1_000,
        Fidelity::Full => 10_000,
    };
    let mc = MonteCarlo::new(VariationConfig::default());
    let mut table = Table::new(
        "SWAP error vs process variation (SIV-D)",
        &["Variation", "Trials", "Erroneous SWAPs", "Rate %", "Paper %"],
    );
    for (variation, paper) in [(0.0, 0.0), (0.10, 0.14), (0.20, 9.6)] {
        let report = mc.run(variation, trials, 0xD1A0);
        table.row(vec![
            format!("±{:.0}%", variation * 100.0),
            report.trials.to_string(),
            report.failures.to_string(),
            format!("{:.2}", report.failure_pct()),
            format!("{paper:.2}"),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_has_three_rows_in_paper_order() {
        let table = run(Fidelity::Fast);
        assert_eq!(table.rows().len(), 3);
        assert!(table.rows()[0][0].contains('0'));
        // Zero variation row reports zero failures.
        assert_eq!(table.rows()[0][2], "0");
    }

    #[test]
    fn full_mode_runs_paper_trial_count() {
        let table = run(Fidelity::Full);
        assert_eq!(table.rows()[0][1], "10000");
        // ±20% lands in the paper's ballpark.
        let rate: f64 = table.rows()[2][3].parse().unwrap();
        assert!((6.0..14.0).contains(&rate), "rate {rate}");
    }
}
