//! Progressive bit search (the Bit-Flip Attack).
//!
//! Following Rakin et al. (ICCV 2019): in each iteration the attacker
//!
//! 1. computes the loss gradient w.r.t. every (dequantized) weight on
//!    an evaluation batch;
//! 2. in each layer, ranks bits by first-order loss increase
//!    `grad · Δw`, where `Δw` is the weight change that bit flip would
//!    cause right now (sign-bit flips of large-gradient weights
//!    dominate);
//! 3. trials the top in-layer candidates and keeps the single flip that
//!    maximizes loss across all layers. A trial resumes the gradient
//!    pass's own forward at the flipped layer (a
//!    [`TrialRecord`](dlk_dnn::TrialRecord)): the layers before it
//!    cannot change, so only the rest of the plan runs, and the loss is
//!    bit-identical to that of a full forward pass of the flipped
//!    network.
//!
//! The search is *white-box*: per the paper's threat model the attacker
//! has full knowledge of parameters, bit representation and gradients.

use serde::{Deserialize, Serialize};

use dlk_dnn::{BitIndex, QuantizedMlp, Tensor};

use crate::outcome::{AttackCurve, AttackPoint};

/// Bit-search configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BfaConfig {
    /// Candidate bits trialled per layer per iteration.
    pub candidates_per_layer: usize,
    /// Restrict the search to the most significant bits (`None` =
    /// all 8). The published attack converges fastest on bits 6–7.
    pub bits_considered: Option<[u8; 2]>,
}

impl Default for BfaConfig {
    fn default() -> Self {
        Self { candidates_per_layer: 5, bits_considered: Some([6, 7]) }
    }
}

/// The progressive bit search attacker.
///
/// # Example
///
/// ```
/// use dlk_attacks::BitSearch;
/// use dlk_dnn::models;
///
/// let victim = models::victim_tiny(3);
/// let (x, y) = victim.dataset.test_sample(32, 0);
/// let mut search = BitSearch::new(Default::default());
/// let mut model = victim.model.clone();
/// let flip = search.next_flip(&model, &x, &y).unwrap();
/// model.flip_bit(flip).unwrap();
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitSearch {
    config: BfaConfig,
}

impl BitSearch {
    /// Creates a searcher.
    pub fn new(config: BfaConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &BfaConfig {
        &self.config
    }

    /// Finds the most damaging single bit flip for the current model
    /// state on batch `(x, labels)`. Returns `None` when no considered
    /// bit has a positive first-order gain: for an empty model, and when
    /// the gradients vanish (a collapsed, chance-level victim or an
    /// all-zero network), so there is nothing to flip.
    pub fn next_flip(
        &mut self,
        model: &QuantizedMlp,
        x: &Tensor,
        labels: &[usize],
    ) -> Option<BitIndex> {
        let (grads, mut record) =
            model.trial_record(x, labels).expect("attack batch shapes are consistent");
        let mut best: Option<(f32, BitIndex)> = None;
        for (layer_index, layer_grads) in grads.iter().enumerate() {
            // Rank candidate bits in this layer by first-order gain.
            let grad = layer_grads.weight.as_slice();
            let mut candidates: Vec<(f32, BitIndex)> = Vec::new();
            let bits: Vec<u8> = match self.config.bits_considered {
                Some([a, b]) => vec![a, b],
                None => (0..8).collect(),
            };
            for (weight_index, &g) in grad.iter().enumerate() {
                for &bit in &bits {
                    let index = BitIndex { layer: layer_index, weight: weight_index, bit };
                    let delta = model.flip_delta(index).expect("index enumerated from model shape");
                    let gain = g * delta;
                    if gain > 0.0 {
                        candidates.push((gain, index));
                    }
                }
            }
            candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            // Trial the top candidates from this layer on.
            for &(_, index) in candidates.iter().take(self.config.candidates_per_layer) {
                let loss = record.trial(index).expect("candidate index is valid");
                if best.is_none_or(|(b, _)| loss > b) {
                    best = Some((loss, index));
                }
            }
        }
        best.map(|(_, index)| index)
    }

    /// Runs `iterations` of the attack directly on the in-memory model
    /// (no DRAM in the loop), recording the accuracy trajectory on the
    /// held-out set `(eval_x, eval_y)` while searching on `(x, labels)`.
    pub fn run(
        &mut self,
        model: &mut QuantizedMlp,
        x: &Tensor,
        labels: &[usize],
        iterations: usize,
    ) -> AttackCurve {
        let mut curve = AttackCurve::new("BFA");
        let clean = model.accuracy(x, labels).expect("shapes consistent");
        curve.push(AttackPoint { iteration: 0, flips: 0, accuracy: clean, flipped: None });
        for iteration in 1..=iterations {
            let Some(flip) = self.next_flip(model, x, labels) else { break };
            model.flip_bit(flip).expect("search returned a valid index");
            let accuracy = model.accuracy(x, labels).expect("shapes consistent");
            curve.push(AttackPoint { iteration, flips: iteration, accuracy, flipped: Some(flip) });
        }
        curve
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlk_dnn::{models, Layer, Linear, Network};

    #[test]
    fn bfa_crushes_accuracy_quickly() {
        let victim = models::victim_tiny(5);
        let (x, y) = victim.dataset.test_sample(32, 1);
        let mut model = victim.model.clone();
        let mut search = BitSearch::new(BfaConfig::default());
        let curve = search.run(&mut model, &x, &y, 20);
        assert!(curve.clean_accuracy() > 0.6);
        assert!(
            curve.final_accuracy() < curve.clean_accuracy() * 0.6,
            "BFA should at least nearly halve accuracy: {} -> {}",
            curve.clean_accuracy(),
            curve.final_accuracy()
        );
    }

    #[test]
    fn each_flip_is_distinct_bit_state() {
        let victim = models::victim_tiny(6);
        let (x, y) = victim.dataset.test_sample(24, 2);
        let mut model = victim.model.clone();
        let mut search = BitSearch::new(BfaConfig::default());
        let curve = search.run(&mut model, &x, &y, 5);
        let flips: Vec<_> = curve.points.iter().filter_map(|p| p.flipped).collect();
        assert_eq!(flips.len(), 5);
    }

    #[test]
    fn msb_restriction_targets_high_bits() {
        let victim = models::victim_tiny(7);
        let (x, y) = victim.dataset.test_sample(24, 3);
        let mut search = BitSearch::new(BfaConfig::default());
        let flip = search.next_flip(&victim.model, &x, &y).unwrap();
        assert!(flip.bit >= 6, "expected MSB-range flip, got bit {}", flip.bit);
    }

    /// The flips and accuracies of eight search iterations, recorded
    /// from the search that trialled every candidate with a full
    /// forward pass: resuming each trial at the flipped layer must pick
    /// the same flips.
    #[test]
    fn flip_sequences_are_pinned() {
        let flip = |layer, weight, bit| Some(BitIndex { layer, weight, bit });
        let perfbench = BfaConfig { candidates_per_layer: 2, bits_considered: Some([6, 7]) };
        let cases = [
            (
                models::victim_tiny_cnn(11),
                perfbench,
                [
                    (None, 0.96875),
                    (flip(6, 210, 7), 0.75),
                    (flip(6, 198, 7), 0.71875),
                    (flip(6, 211, 7), 0.71875),
                    (flip(4, 204, 7), 0.6875),
                    (flip(6, 48, 7), 0.6875),
                    (flip(4, 206, 7), 0.5),
                    (flip(3, 122, 7), 0.4375),
                    (flip(6, 52, 7), 0.375),
                ],
            ),
            (
                models::victim_tiny(5),
                BfaConfig::default(),
                [
                    (None, 0.875),
                    (flip(1, 79, 7), 0.71875),
                    (flip(1, 76, 7), 0.6875),
                    (flip(1, 90, 7), 0.6875),
                    (flip(1, 81, 7), 0.6875),
                    (flip(1, 31, 7), 0.6875),
                    (flip(1, 28, 7), 0.6875),
                    (flip(0, 38, 7), 0.6875),
                    (flip(0, 32, 6), 0.6875),
                ],
            ),
        ];
        for (victim, config, expected) in cases {
            let (x, y) = victim.dataset.test_sample(32, 0);
            let mut model = victim.model.clone();
            let curve = BitSearch::new(config).run(&mut model, &x, &y, 8);
            let got: Vec<_> = curve.points.iter().map(|p| (p.flipped, p.accuracy)).collect();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn vanishing_gradients_leave_nothing_to_flip() {
        // All-zero weights and biases: every hidden activation and so
        // every weight gradient is zero, and no bit has a positive gain.
        let zero = |inputs, outputs| {
            Layer::Dense(Linear::from_parts(Tensor::zeros(outputs, inputs), vec![0.0; outputs]))
        };
        let network = Network::new(vec![zero(8, 24), Layer::Relu, zero(24, 4)]);
        let model = QuantizedMlp::quantize(&network);
        let x = Tensor::randn(16, 8, 3);
        let y: Vec<usize> = (0..16).map(|i| i % 4).collect();
        let mut search =
            BitSearch::new(BfaConfig { bits_considered: None, ..BfaConfig::default() });
        assert_eq!(search.next_flip(&model, &x, &y), None);
    }

    #[test]
    fn search_is_deterministic() {
        let victim = models::victim_tiny(8);
        let (x, y) = victim.dataset.test_sample(24, 4);
        let mut a = BitSearch::new(BfaConfig::default());
        let mut b = BitSearch::new(BfaConfig::default());
        assert_eq!(a.next_flip(&victim.model, &x, &y), b.next_flip(&victim.model, &x, &y));
    }
}
