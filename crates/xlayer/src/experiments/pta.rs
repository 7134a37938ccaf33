//! §V: the Page Table Attack evaluation.
//!
//! End-to-end through the unified [`Scenario`]
//! pipeline: the victim's quantized weights live in physical frames
//! mapped by a DRAM-resident page table ([`VictimSpec::paged`]); the
//! attacker stages a corrupted copy of a weight page at the frame the
//! PTE would point to after one PFN-bit flip, then hammers the PTE row
//! ([`AttackSpec::PageTable`]). Undefended, translation silently redirects
//! and the victim loads poisoned weights. With DRAM-Locker guarding the
//! page-table rows (locking their aggressor-candidate neighbours),
//! every hammer access is denied and the weights survive untouched.

use dlk_dnn::models::ModelKind;
use dlk_sim::metrics::Table;
use dlk_sim::{AttackSpec, Budget, DefenseSpec, Scenario, ScenarioBuilder, SimError, VictimSpec};

/// Result of one PTA run.
#[derive(Debug, Clone, PartialEq)]
pub struct PtaRun {
    /// Scenario label.
    pub label: String,
    /// Whether the PTE was corrupted.
    pub redirected: bool,
    /// Attacker requests denied by the defense.
    pub denied: u64,
    /// Victim accuracy before the attack, percent.
    pub accuracy_before_pct: f64,
    /// Victim accuracy after reloading weights through translation.
    pub accuracy_after_pct: f64,
}

/// The PTA scenario, with or without DRAM-Locker mounted.
pub fn scenario(defended: bool) -> ScenarioBuilder {
    let builder = Scenario::builder()
        .label(if defended { "with DRAM-Locker" } else { "without DRAM-Locker" })
        .victim(VictimSpec::paged(ModelKind::Tiny, 21))
        .attack(AttackSpec::PageTable { pfn_bit: 1, payload_xor: 0x80 })
        .budget(Budget { max_activations: 20_000, check_interval: 8, iterations: 1 })
        .eval_batch(64);
    if defended {
        builder.defense(DefenseSpec::locker_adjacent())
    } else {
        builder
    }
}

/// Runs the PTA end to end, with or without DRAM-Locker.
///
/// # Errors
///
/// Propagates scenario build/run failures.
pub fn run_scenario(defended: bool) -> Result<PtaRun, SimError> {
    let report = scenario(defended).build()?.run()?;
    let victim = report.victim().clone();
    Ok(PtaRun {
        label: report.scenario,
        redirected: report.redirected,
        denied: report.denied,
        accuracy_before_pct: victim.accuracy_before_pct.unwrap_or(0.0),
        accuracy_after_pct: victim.accuracy_after_pct.unwrap_or(0.0),
    })
}

/// Runs both scenarios and builds the report table.
///
/// # Errors
///
/// Propagates scenario failures.
pub fn run() -> Result<Table, SimError> {
    let mut table = Table::new(
        "PTA evaluation (SV): page-table attack on DNN weights",
        &["Scenario", "PTE redirected", "Denied accesses", "Acc before %", "Acc after %"],
    );
    for defended in [false, true] {
        let run = run_scenario(defended)?;
        table.row(vec![
            run.label.clone(),
            run.redirected.to_string(),
            run.denied.to_string(),
            format!("{:.2}", run.accuracy_before_pct),
            format!("{:.2}", run.accuracy_after_pct),
        ]);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undefended_pta_poisons_the_model() {
        let run = run_scenario(false).unwrap();
        assert!(run.redirected, "{run:?}");
        assert_eq!(run.denied, 0);
        assert!(
            run.accuracy_after_pct < run.accuracy_before_pct - 10.0,
            "poisoned page must hurt accuracy: {run:?}"
        );
    }

    #[test]
    fn defended_pta_is_denied_and_harmless() {
        let run = run_scenario(true).unwrap();
        assert!(!run.redirected, "{run:?}");
        assert!(run.denied > 0);
        assert_eq!(run.accuracy_before_pct, run.accuracy_after_pct);
    }

    #[test]
    fn report_table_has_both_scenarios() {
        let table = run().unwrap();
        assert_eq!(table.rows().len(), 2);
        let text = table.to_string();
        assert!(text.contains("without DRAM-Locker") && text.contains("with DRAM-Locker"));
    }
}
