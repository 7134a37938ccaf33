//! The random-flip baseline.
//!
//! Fig. 1(a) of the paper contrasts BFA with uniformly random bit
//! flips: the random attack needs orders of magnitude more flips for
//! the same damage — which is exactly the level DRAM-Locker aims to
//! degrade a *targeted* attacker to.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use dlk_dnn::{BitIndex, QuantNetwork};

/// A uniformly random bit flipper.
///
/// # Example
///
/// ```
/// use dlk_attacks::RandomAttack;
/// use dlk_dnn::models;
///
/// let mut model = models::victim_tiny(1).model;
/// let flip = RandomAttack::new(7).next_flip(&model);
/// model.flip_bit(flip).unwrap();
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlk_dnn::models;

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
