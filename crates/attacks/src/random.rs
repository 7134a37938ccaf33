//! The random-flip baseline.
//!
//! Fig. 1(a) of the paper contrasts BFA with uniformly random bit
//! flips: the random attack needs orders of magnitude more flips for
//! the same damage — which is exactly the level DRAM-Locker aims to
//! degrade a *targeted* attacker to.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use dlk_dnn::{BitIndex, QuantNetwork, Tensor};

use crate::outcome::{AttackCurve, AttackPoint};

/// A uniformly random bit flipper.
///
/// # Example
///
/// ```
/// use dlk_attacks::RandomAttack;
/// use dlk_dnn::models;
///
/// let victim = models::victim_tiny(1);
/// let (x, y) = victim.dataset.test_sample(16, 0);
/// let mut model = victim.model.clone();
/// let curve = RandomAttack::new(7).run(&mut model, &x, &y, 5);
/// assert_eq!(curve.total_flips(), 5);
/// ```
#[derive(Debug)]
pub struct RandomAttack {
    rng: StdRng,
}

impl RandomAttack {
    /// Creates a random attacker with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Self { rng: StdRng::seed_from_u64(seed) }
    }

    /// Picks a uniformly random weight bit of the model.
    pub fn next_flip(&mut self, model: &QuantNetwork) -> BitIndex {
        let offset = self.rng.random_range(0..model.total_weights());
        let (layer, weight) = model.locate_byte(offset).expect("offset drawn below total_weights");
        BitIndex { layer, weight, bit: self.rng.random_range(0..8u8) }
    }

    /// Flips `iterations` random bits, recording the accuracy curve.
    pub fn run(
        &mut self,
        model: &mut QuantNetwork,
        x: &Tensor,
        labels: &[usize],
        iterations: usize,
    ) -> AttackCurve {
        let mut curve = AttackCurve::new("random");
        let clean = model.accuracy(x, labels).expect("shapes consistent");
        curve.push(AttackPoint { iteration: 0, flips: 0, accuracy: clean, flipped: None });
        for iteration in 1..=iterations {
            let flip = self.next_flip(model);
            model.flip_bit(flip).expect("random index is in range");
            let accuracy = model.accuracy(x, labels).expect("shapes consistent");
            curve.push(AttackPoint { iteration, flips: iteration, accuracy, flipped: Some(flip) });
        }
        curve
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfa::{BfaConfig, BitSearch};
    use dlk_dnn::models;

    #[test]
    fn random_attack_is_much_weaker_than_bfa() {
        // The headline contrast of Fig. 1(a).
        let victim = models::victim_tiny(9);
        let (x, y) = victim.dataset.test_sample(32, 5);
        let iterations = 10;

        let mut bfa_model = victim.model.clone();
        let bfa_curve =
            BitSearch::new(BfaConfig::default()).run(&mut bfa_model, &x, &y, iterations);

        // Average several random runs to avoid luck.
        let mut random_final = 0.0;
        for seed in 0..5 {
            let mut model = victim.model.clone();
            let curve = RandomAttack::new(seed).run(&mut model, &x, &y, iterations);
            random_final += curve.final_accuracy();
        }
        random_final /= 5.0;

        assert!(
            bfa_curve.final_accuracy() < random_final - 0.1,
            "BFA {} should be well below random {}",
            bfa_curve.final_accuracy(),
            random_final
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let victim = models::victim_tiny(2);
        let mut a = RandomAttack::new(3);
        let mut b = RandomAttack::new(3);
        assert_eq!(a.next_flip(&victim.model), b.next_flip(&victim.model));
    }

    #[test]
    fn flips_cover_all_layers_eventually() {
        let victim = models::victim_tiny(2);
        let mut attack = RandomAttack::new(11);
        let mut layers_seen = std::collections::HashSet::new();
        for _ in 0..200 {
            layers_seen.insert(attack.next_flip(&victim.model).layer);
        }
        assert_eq!(layers_seen.len(), victim.model.weighted_count());
    }
}
