//! Ablations of DRAM-Locker's design choices: the re-lock interval
//! (paper: every 1k R/W) and the lock target (adjacent rows, the data
//! rows themselves, or both).
//!
//! Each configuration runs one victim workload through the unified
//! scenario pipeline: 2000 reads that mostly hit the victim's data rows
//! 10/11 and every tenth touch the locked neighbour row 9. The cost of
//! a configuration is what that benign traffic pays — SWAP redirects,
//! denied accesses and mean service latency.

use dlk_locker::{LockTarget, LockerConfig};
use dlk_memctrl::MemRequest;
use dlk_sim::{Attack, AttackOutcome, LockerMitigation, RunEnv, Scenario, SimError, VictimSpec};

use crate::report::Table;

/// The swept re-lock intervals (R/W operations between re-locks).
pub const RELOCK_INTERVALS: [u64; 3] = [100, 1_000, 10_000];

/// The swept lock targets, with their table labels.
pub const LOCK_TARGETS: [(&str, LockTarget); 3] = [
    ("adjacent-rows", LockTarget::AdjacentRows),
    ("data-rows", LockTarget::DataRows),
    ("both", LockTarget::Both),
];

/// Victim workload: reads over data rows 10/11, every tenth on the
/// locked neighbour row 9.
struct VictimMix {
    accesses: u64,
}

impl Attack for VictimMix {
    fn name(&self) -> &str {
        "victim-mix"
    }

    fn execute(&mut self, env: &mut RunEnv<'_>) -> Result<AttackOutcome, SimError> {
        let row_bytes = env.ctrl().geometry().row_bytes as u64;
        let mut outcome = AttackOutcome::default();
        for index in 0..self.accesses {
            let row = if index % 10 == 0 { 9 } else { 10 + index % 2 };
            let done = env.ctrl().service(MemRequest::read(row * row_bytes, 1))?;
            outcome.requests += 1;
            if done.denied {
                outcome.denied += 1;
            }
        }
        Ok(outcome)
    }
}

/// What the victim workload paid under one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AblationRun {
    /// Requests redirected by a SWAP.
    pub redirected: u64,
    /// Requests denied by the lock table.
    pub denied: u64,
    /// Mean service latency in cycles.
    pub mean_latency: f64,
}

/// Runs the victim workload with the locker configured for
/// `relock_interval` and `target`.
///
/// # Errors
///
/// Propagates scenario build and run failures.
pub fn victim_workload(relock_interval: u64, target: LockTarget) -> Result<AblationRun, SimError> {
    let config = LockerConfig { relock_interval, lock_target: target, ..LockerConfig::default() };
    let report = Scenario::builder()
        .label("ablation")
        // Protect rows 10..12 (data): which rows lock depends on `target`.
        .victim(VictimSpec::row_span(10, 2, 0xA5))
        .defense(LockerMitigation::new(config, target))
        .custom_attack(VictimMix { accesses: 2_000 })
        .build()?
        .run()?;
    Ok(AblationRun {
        redirected: report.controller.redirected,
        denied: report.controller.denied,
        mean_latency: report.controller.mean_latency(),
    })
}

/// Runs both sweeps (re-lock interval with adjacent-row locking, then
/// every lock target at the paper's 1k interval).
///
/// # Errors
///
/// Propagates scenario failures.
pub fn run() -> Result<Table, SimError> {
    let mut table = Table::new(
        "DRAM-Locker ablations (victim workload cost)",
        &["Ablation", "Setting", "Redirects", "Denies", "Mean latency (cycles)"],
    );
    let mut row = |ablation: &str, setting: String, run: AblationRun| {
        table.row_owned(vec![
            ablation.to_string(),
            setting,
            run.redirected.to_string(),
            run.denied.to_string(),
            format!("{:.1}", run.mean_latency),
        ]);
    };
    for interval in RELOCK_INTERVALS {
        row(
            "relock interval",
            interval.to_string(),
            victim_workload(interval, LockTarget::AdjacentRows)?,
        );
    }
    for (label, target) in LOCK_TARGETS {
        row("lock target", label.to_string(), victim_workload(1_000, target)?);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_one_row_per_setting() {
        let table = run().unwrap();
        assert_eq!(table.rows.len(), RELOCK_INTERVALS.len() + LOCK_TARGETS.len());
        assert_eq!(table.rows[0][1], "100");
        assert_eq!(table.rows[5][1], "both");
    }

    #[test]
    fn every_access_to_a_locked_row_pays_and_no_other_does() {
        // Adjacent-row locking locks only row 9, touched by every tenth
        // of the 2000 accesses; locking the data rows catches the other
        // nine tenths instead, and `both` catches everything.
        let touches = |target| {
            let run = victim_workload(1_000, target).unwrap();
            assert!(run.mean_latency > 0.0);
            run.denied + run.redirected
        };
        assert_eq!(touches(LockTarget::AdjacentRows), 200);
        assert_eq!(touches(LockTarget::DataRows), 1_800);
        assert_eq!(touches(LockTarget::Both), 2_000);
    }
}
