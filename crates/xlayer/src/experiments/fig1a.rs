//! Fig. 1(a): targeted BFA vs random bit flips.
//!
//! An 8-bit quantized VGG-11-like network on the CIFAR-100-like
//! dataset. The targeted attack collapses accuracy within tens of
//! flips; uniformly random flips barely move it — the gap DRAM-Locker
//! aims to enforce on every attacker. Each curve is a scenario run
//! against the DRAM-deployed victim: an [`AttackSpec::ProgressiveBfa`]
//! whose every flip lands, and one [`AttackSpec::RandomFlip`] per
//! random seed.

use dlk_attacks::bfa::BfaConfig;
use dlk_dnn::models::ModelKind;
use dlk_sim::AttackSpec;

use crate::report::Series;

use super::Fidelity;

/// Result of the Fig. 1(a) experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1a {
    /// Targeted-attack accuracy curve (x = flips, y = accuracy %).
    pub bfa: Series,
    /// Random-attack accuracy curve averaged over several seeds.
    pub random: Series,
}

impl Fig1a {
    /// Renders both curves.
    pub fn render(&self) -> String {
        Series::render_all(
            "Fig 1(a): targeted BFA vs random flips (accuracy %)",
            &[self.bfa.clone(), self.random.clone()],
        )
    }
}

/// Runs the experiment.
pub fn run(fidelity: Fidelity) -> Fig1a {
    let (model, flips, sample) = match fidelity {
        Fidelity::Fast => (ModelKind::Tiny, 15, 32),
        Fidelity::Full => (ModelKind::Vgg11, 100, 128),
    };
    let campaign = |attack| super::weight_campaign(model, attack, flips, sample);

    let config = BfaConfig::default();
    let bfa = campaign(AttackSpec::ProgressiveBfa { success_rate: 1.0, seed: 0, config });
    let bfa = Series { label: "BFA".to_owned(), points: bfa };

    // Average the random baseline over a few seeds.
    let seeds = 3u64;
    let mut sums = vec![0.0f64; flips + 1];
    for seed in 0..seeds {
        for (sum, (_, accuracy_pct)) in
            sums.iter_mut().zip(campaign(AttackSpec::RandomFlip { seed }))
        {
            *sum += accuracy_pct;
        }
    }
    let mut random = Series::new("Random");
    for (index, sum) in sums.iter().enumerate() {
        random.push(index as f64, sum / seeds as f64);
    }

    Fig1a { bfa, random }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfa_ends_well_below_random() {
        let result = run(Fidelity::Fast);
        assert!(
            result.bfa.last_y() < result.random.last_y() - 5.0,
            "BFA {} vs random {}",
            result.bfa.last_y(),
            result.random.last_y()
        );
    }

    #[test]
    fn curves_start_at_the_same_clean_accuracy() {
        let result = run(Fidelity::Fast);
        let (_, bfa0) = result.bfa.points[0];
        let (_, rnd0) = result.random.points[0];
        assert!((bfa0 - rnd0).abs() < 1e-9);
        assert!(bfa0 > 50.0);
    }

    #[test]
    fn render_mentions_both_attacks() {
        let text = run(Fidelity::Fast).render();
        assert!(text.contains("BFA") && text.contains("Random"));
    }
}
