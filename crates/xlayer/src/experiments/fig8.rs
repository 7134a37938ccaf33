//! Fig. 8: BFA accuracy degradation with and without DRAM-Locker.
//!
//! 100 attack iterations against (a) ResNet-20-like / CIFAR-10-like
//! and (b) VGG-11-like / CIFAR-100-like, each run through the unified
//! scenario pipeline with a DRAM-deployed weight image and an
//! [`AttackSpec::ProgressiveBfa`] attack. Without the defense every iteration lands
//! its chosen flip. With DRAM-Locker under worst-case ±20% process
//! variation, an iteration only succeeds when an erroneous SWAP leaves
//! a window — 9.6% of the time (§IV-D) — so the attacker needs an order
//! of magnitude more iterations for the same damage.

use dlk_attacks::bfa::BfaConfig;
use dlk_dnn::models::ModelKind;
use dlk_sim::AttackSpec;

use crate::report::Series;

use super::Fidelity;

/// BFA success probability under DRAM-Locker at ±20% variation.
pub const DEFENDED_SUCCESS_RATE: f64 = 0.096;

/// One panel of Fig. 8.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Panel {
    /// Panel label ("ResNet-20 / CIFAR-10" or "VGG-11 / CIFAR-100").
    pub label: String,
    /// Accuracy (%) vs iteration without the defense.
    pub without_locker: Series,
    /// Accuracy (%) vs iteration with DRAM-Locker.
    pub with_locker: Series,
}

impl Fig8Panel {
    /// Renders the panel.
    pub fn render(&self) -> String {
        Series::render_all(
            &format!("Fig 8: {} (accuracy % vs attack iteration)", self.label),
            &[self.without_locker.clone(), self.with_locker.clone()],
        )
    }
}

fn attack(model: ModelKind, iterations: usize, success_rate: f64, seed: u64) -> Series {
    let label = if success_rate >= 1.0 { "without DRAM-Locker" } else { "with DRAM-Locker" };
    let attack = AttackSpec::ProgressiveBfa { success_rate, seed, config: BfaConfig::default() };
    Series {
        label: label.to_owned(),
        points: super::weight_campaign(model, attack, iterations, 128),
    }
}

/// Runs one panel.
pub fn run_panel(model: ModelKind, label: &str, iterations: usize) -> Fig8Panel {
    Fig8Panel {
        label: label.to_owned(),
        without_locker: attack(model, iterations, 1.0, 8),
        with_locker: attack(model, iterations, DEFENDED_SUCCESS_RATE, 8),
    }
}

/// Runs both panels.
pub fn run(fidelity: Fidelity) -> Vec<Fig8Panel> {
    match fidelity {
        Fidelity::Fast => vec![run_panel(ModelKind::Tiny, "tiny (fast mode)", 20)],
        Fidelity::Full => vec![
            run_panel(ModelKind::Resnet20, "ResNet-20 / CIFAR-10", 100),
            run_panel(ModelKind::Vgg11, "VGG-11 / CIFAR-100", 100),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locker_slows_degradation_dramatically() {
        let panels = run(Fidelity::Fast);
        let panel = &panels[0];
        assert!(
            panel.with_locker.last_y() > panel.without_locker.last_y() + 10.0,
            "with {} vs without {}",
            panel.with_locker.last_y(),
            panel.without_locker.last_y()
        );
    }

    #[test]
    fn both_curves_start_clean() {
        let panels = run(Fidelity::Fast);
        let panel = &panels[0];
        assert_eq!(panel.with_locker.points[0].1, panel.without_locker.points[0].1);
    }

    #[test]
    fn defended_curve_is_monotone_nonincreasing_overall() {
        // Accuracy can wobble per-iteration, but the defended end must
        // not be above the clean start.
        let panels = run(Fidelity::Fast);
        let panel = &panels[0];
        assert!(panel.with_locker.last_y() <= panel.with_locker.points[0].1 + 1e-9);
    }
}
