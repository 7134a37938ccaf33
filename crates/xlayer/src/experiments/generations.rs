//! DRAM-generation sweep: how the shrinking RowHammer threshold of
//! Fig. 1(b) translates into attack pressure and DRAM-Locker defense
//! time.
//!
//! Ties the two ends of the paper together: newer parts flip with
//! fewer activations (more attacker opportunities per refresh window),
//! yet DRAM-Locker's deny-based protection degrades only linearly in
//! the threshold — the "general applicability across various DRAM
//! chips" claim of §V.

use dlk_dram::{DramGeneration, TimingParams};
use dlk_sim::metrics::Table;

use super::dl_model::DlSecurityModel;

/// One row of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationRow {
    /// The DRAM generation.
    pub generation: DramGeneration,
    /// Its RowHammer threshold.
    pub trh: u64,
    /// Hammer campaigns an attacker completes per refresh window.
    pub campaigns_per_window: u64,
    /// DRAM-Locker defense time in days (10% row-copy error).
    pub locker_days: f64,
}

/// Runs the sweep.
pub fn rows() -> Vec<GenerationRow> {
    let timing = TimingParams::ddr4_2400();
    let model = DlSecurityModel::default();
    DramGeneration::ALL
        .iter()
        .map(|&generation| {
            let trh = generation.trh();
            GenerationRow {
                generation,
                trh,
                campaigns_per_window: timing.hammers_per_window() / trh,
                locker_days: model.defense_time_days(trh),
            }
        })
        .collect()
}

/// Builds the report table.
pub fn run() -> Table {
    let mut table = Table::new(
        "DRAM-Locker across DRAM generations",
        &["Generation", "TRH", "Campaigns/window", "DL defense (days)"],
    );
    for row in rows() {
        table.row(vec![
            row.generation.label().to_owned(),
            row.trh.to_string(),
            row.campaigns_per_window.to_string(),
            format!("{:.0}", row.locker_days),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_generation() {
        assert_eq!(rows().len(), 6);
    }

    #[test]
    fn newer_parts_give_attackers_more_campaigns() {
        let all = rows();
        let ddr3_old = all.iter().find(|r| r.generation == DramGeneration::Ddr3Old).unwrap();
        let lpddr4_new = all.iter().find(|r| r.generation == DramGeneration::Lpddr4New).unwrap();
        assert!(lpddr4_new.campaigns_per_window > 10 * ddr3_old.campaigns_per_window);
    }

    #[test]
    fn defense_time_scales_with_threshold() {
        // Higher TRH -> fewer attacker opportunities -> longer defense.
        let all = rows();
        for pair in all.windows(2) {
            if pair[0].trh > pair[1].trh {
                assert!(pair[0].locker_days > pair[1].locker_days);
            }
        }
    }

    #[test]
    fn even_worst_generation_defends_for_years() {
        // LPDDR4 (new) at TRH = 4.8k still gives multi-year protection.
        let all = rows();
        let worst = all.iter().map(|r| r.locker_days).fold(f64::INFINITY, f64::min);
        assert!(worst > 365.0, "worst-case defense {worst} days");
    }
}
