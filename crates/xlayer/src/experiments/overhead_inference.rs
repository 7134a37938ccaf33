//! Runtime overhead of DRAM-Locker on the victim's own inference
//! traffic (the "small amount of delay and energy" the paper concedes
//! in the Table II discussion).
//!
//! The victim's inference loop streams every weight byte from DRAM
//! once per batch — the [`AttackSpec::InferenceStream`] traffic of the
//! unified scenario pipeline. With the protection plan locking only the
//! *adjacent* rows, the victim's reads never touch a locked row, so the
//! only cost is the one-cycle lock-table check per request — which is
//! the argument for the adjacent-row policy in §IV-A.

use dlk_dnn::models::ModelKind;
use dlk_locker::{LockTarget, LockerConfig};
use dlk_sim::metrics::Table;
use dlk_sim::{AttackSpec, DefenseSpec, Scenario, SimError, VictimSpec};

/// One measured configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadRun {
    /// Scenario label.
    pub label: String,
    /// Total cycles for the inference read stream.
    pub cycles: u64,
    /// DRAM energy in picojoules.
    pub energy_pj: f64,
    /// Requests denied (must be zero for the victim's own traffic).
    pub denied: u64,
}

fn stream_weights(target: Option<LockTarget>) -> Result<OverheadRun, SimError> {
    let label = match target {
        None => "no defense".to_owned(),
        Some(target) => format!("locker ({target:?})"),
    };
    let mut builder = Scenario::builder()
        .label(label.clone())
        .victim(VictimSpec::model(ModelKind::Tiny, 3, 0x400))
        .attack(AttackSpec::InferenceStream { batches: 10, chunk: 32 });
    if let Some(target) = target {
        builder = builder.defense(DefenseSpec::Locker {
            config: LockerConfig::default(),
            target,
            radius: 1,
        });
    }
    let report = builder.build()?.run()?;
    Ok(OverheadRun {
        label,
        cycles: report.cycles,
        energy_pj: report.energy_pj,
        denied: report.denied,
    })
}

/// Runs the three configurations and builds the report table.
///
/// # Errors
///
/// Propagates scenario failures.
pub fn run() -> Result<Table, SimError> {
    let mut table = Table::new(
        "Inference-traffic overhead of DRAM-Locker",
        &["Scenario", "Cycles", "Energy (nJ)", "Denied", "Cycle overhead %"],
    );
    let baseline = stream_weights(None)?;
    for run in [
        baseline.clone(),
        stream_weights(Some(LockTarget::AdjacentRows))?,
        stream_weights(Some(LockTarget::DataRows))?,
    ] {
        let overhead = (run.cycles as f64 / baseline.cycles as f64 - 1.0) * 100.0;
        table.row(vec![
            run.label.clone(),
            run.cycles.to_string(),
            format!("{:.2}", run.energy_pj / 1000.0),
            run.denied.to_string(),
            format!("{overhead:.2}"),
        ]);
    }
    Ok(table)
}

/// The adjacent-rows cycle overhead as a fraction (for assertions).
///
/// # Errors
///
/// Propagates scenario failures.
pub fn adjacent_rows_overhead() -> Result<f64, SimError> {
    let baseline = stream_weights(None)?;
    let defended = stream_weights(Some(LockTarget::AdjacentRows))?;
    Ok(defended.cycles as f64 / baseline.cycles as f64 - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacent_row_locking_costs_almost_nothing() {
        // The paper's §IV-A argument: locking neighbours (not the hot
        // data rows) keeps the victim's own traffic unaffected.
        let overhead = adjacent_rows_overhead().unwrap();
        assert!(overhead < 0.02, "cycle overhead {overhead}");
    }

    #[test]
    fn victim_traffic_is_never_denied() {
        let run = stream_weights(Some(LockTarget::AdjacentRows)).unwrap();
        assert_eq!(run.denied, 0);
    }

    #[test]
    fn data_row_locking_is_far_more_expensive() {
        // The ablation: locking the hot data rows forces SWAP churn.
        let baseline = stream_weights(None).unwrap();
        let adjacent = stream_weights(Some(LockTarget::AdjacentRows)).unwrap();
        let data_rows = stream_weights(Some(LockTarget::DataRows)).unwrap();
        assert!(
            data_rows.cycles > adjacent.cycles,
            "data-row locking {} must exceed adjacent {} (baseline {})",
            data_rows.cycles,
            adjacent.cycles,
            baseline.cycles
        );
    }

    #[test]
    fn table_reports_three_scenarios() {
        let table = run().unwrap();
        assert_eq!(table.rows().len(), 3);
        assert_eq!(table.rows()[0][4], "0.00");
    }
}
