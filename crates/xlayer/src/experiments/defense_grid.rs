//! The channel × defense grid: the paper's head-to-head matchup
//! rendered as one declarative sweep.
//!
//! A hammer campaign against a guarded row victim is expanded over
//! {1, 2, 4 channels} × {no defense, DRAM-Locker} by a
//! [`SweepGrid`], executed across worker threads by a [`SweepRunner`]
//! (results bit-identical to serial execution — the determinism suite
//! asserts it) and exported through the unified
//! [`metrics::Table`]. This is the experiment
//! CI prints as CSV so figure data is visible in the job log.

use dlk_sim::sweep::{SweepGrid, SweepRunner};
use dlk_sim::{metrics, DefenseSpec, ScenarioSpec, SimError};

/// The swept channel counts.
pub const CHANNELS: [usize; 3] = [1, 2, 4];

/// The expanded spec list: {1,2,4 channels} × {none, dram-locker} over
/// the catalog's `hammer-vs-none` base scenario.
///
/// # Errors
///
/// Propagates the catalog lookup (the base entry is always present).
pub fn specs() -> Result<Vec<ScenarioSpec>, SimError> {
    let base = dlk_sim::find("hammer-vs-none")?.spec;
    Ok(SweepGrid::over(base)
        .channels(CHANNELS)
        .defenses([vec![], vec![DefenseSpec::locker_adjacent()]])
        .expand())
}

/// Runs the grid on `runner` and builds the metrics table.
///
/// # Errors
///
/// Propagates the first failing scenario, in spec order.
pub fn run_on(runner: SweepRunner) -> Result<metrics::Table, SimError> {
    let reports = runner.run_reports(&specs()?)?;
    Ok(metrics::Table::from_reports(&reports))
}

/// Runs the grid across worker threads.
///
/// # Errors
///
/// Propagates the first failing scenario, in spec order.
pub fn run() -> Result<metrics::Table, SimError> {
    run_on(SweepRunner::parallel())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_channels_times_defenses() {
        let specs = specs().unwrap();
        assert_eq!(specs.len(), 6);
        assert!(specs.iter().any(|s| s.label == "hammer-vs-none/dram-locker/4ch"));
    }

    #[test]
    fn locker_rows_deny_and_undefended_rows_flip() {
        let table = run().unwrap();
        assert_eq!(table.rows().len(), 6);
        let column = |name: &str| {
            table.columns().iter().position(|c| c == name).unwrap_or_else(|| panic!("{name}"))
        };
        let (denied, flips) = (column("denied"), column("landed_flips"));
        for row in table.rows() {
            if row[0].contains("dram-locker") {
                assert_ne!(row[denied], "0", "{row:?}");
                assert_eq!(row[flips], "0", "{row:?}");
            } else {
                assert_eq!(row[denied], "0", "{row:?}");
                assert_eq!(row[flips], "1", "{row:?}");
            }
        }
    }

    #[test]
    fn parallel_table_equals_serial_table() {
        let parallel = run_on(SweepRunner::parallel()).unwrap();
        let serial = run_on(SweepRunner::serial()).unwrap();
        assert_eq!(parallel, serial);
    }
}
