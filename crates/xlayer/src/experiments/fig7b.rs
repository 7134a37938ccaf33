//! Fig. 7(b): defense time (days) per RowHammer threshold.
//!
//! How long each defense keeps the attacker's cumulative success
//! probability below 1%, assuming a 10% row-copy error rate for
//! DRAM-Locker's SWAPs. The paper reports >500 days at the 1k
//! threshold and ">4000" at the high end, with SHADOW failing within
//! (fractions of) days.

use dlk_defenses::ShadowModel;
use dlk_sim::metrics::Table;

use super::dl_model::DlSecurityModel;

/// Thresholds on the figure's x-axis.
pub const THRESHOLDS: [u64; 4] = [1_000, 2_000, 4_000, 8_000];

/// Runs the experiment.
pub fn run() -> Table {
    let dl = DlSecurityModel::default();
    let mut table = Table::new(
        "Fig 7(b): defense time (days) per threshold",
        &["Threshold", "SHADOW (days)", "DRAM-Locker (days)"],
    );
    for trh in THRESHOLDS {
        let shadow = ShadowModel::new(trh).defense_time_days(trh);
        let locker = dl.defense_time_days(trh);
        table.row(vec![format!("{}K", trh / 1000), format!("{shadow:.4}"), format!("{locker:.0}")]);
    }
    table
}

/// The DRAM-Locker defense-time series (for plotting).
pub fn dl_days() -> Vec<(u64, f64)> {
    let dl = DlSecurityModel::default();
    THRESHOLDS.iter().map(|&trh| (trh, dl.defense_time_days(trh))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locker_exceeds_500_days_at_1k() {
        let days = dl_days();
        assert!(days[0].1 > 500.0, "got {} days", days[0].1);
    }

    #[test]
    fn locker_days_increase_with_threshold() {
        let days = dl_days();
        for pair in days.windows(2) {
            assert!(pair[1].1 > pair[0].1);
        }
        assert!(days[3].1 > 4000.0, "Fig 7(b) annotates >4000: {}", days[3].1);
    }

    #[test]
    fn table_shows_locker_dominating_shadow() {
        let table = run();
        for row in table.rows() {
            let shadow: f64 = row[1].parse().unwrap();
            let locker: f64 = row[2].parse().unwrap();
            assert!(locker > shadow * 100.0, "row {row:?}");
        }
    }
}
