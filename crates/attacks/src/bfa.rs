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
//! 3. trials every layer's top candidates (one scan per layer keeps
//!    them) as one batch and keeps the single flip that maximizes loss
//!    across all layers, the first in (layer, rank) order on a tie. A
//!    trial resumes the gradient pass's own forward at the flipped layer
//!    (a [`TrialRecord`](dlk_dnn::TrialRecord)): the layers before it
//!    cannot change, so only the rest of the plan runs, and the loss is
//!    bit-identical to that of a full forward pass of the flipped
//!    network. The batch's trials are independent, so
//!    [`TrialRecord::losses`](dlk_dnn::TrialRecord::losses) splits a
//!    large batch over the host's cores; which worker runs a trial
//!    changes none of its bits.
//!
//! The search is *white-box*: per the paper's threat model the attacker
//! has full knowledge of parameters, bit representation and gradients.

use dlk_dnn::quant::flip_delta;
use dlk_dnn::{BitIndex, QuantLayer, QuantNetwork, Tensor};

/// Bit-search configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BfaConfig {
    /// Candidate bits trialled per layer per iteration.
    pub candidates_per_layer: usize,
    /// Restrict the search to the inclusive bit range `[lo, hi]`, i.e.
    /// bits `lo..=hi` (`None` = all 8). The published attack converges
    /// fastest on bits 6–7, `Some([6, 7])`.
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
        model: &QuantNetwork,
        x: &Tensor,
        labels: &[usize],
    ) -> Option<BitIndex> {
        let (grads, record) =
            model.trial_record(x, labels).expect("attack batch shapes are consistent");
        let [lo, hi] = self.config.bits_considered.unwrap_or([0, 7]);
        let k = self.config.candidates_per_layer;
        let mut top = Vec::new();
        let mut candidates = Vec::new();
        let weighted = model.layers().iter().filter_map(QuantLayer::matrix);
        for (layer_index, (layer_grads, matrix)) in grads.iter().zip(weighted).enumerate() {
            // This layer's top candidate bits by first-order gain.
            let scale = matrix.scale();
            top.clear();
            for (weight_index, (&g, &q)) in
                layer_grads.weight.iter().zip(matrix.qweights()).enumerate()
            {
                for bit in lo..=hi {
                    let gain = g * flip_delta(q as u8, bit, scale);
                    if gain > 0.0 {
                        let index = BitIndex { layer: layer_index, weight: weight_index, bit };
                        keep_top(&mut top, k, gain, index);
                    }
                }
            }
            candidates.extend(top.iter().map(|&(_, index)| index));
        }
        // Trial every layer's candidates in one batch; the first maximum
        // in (layer, rank) order wins.
        let losses = record.losses(&candidates).expect("candidate indices are valid");
        let mut best: Option<(f32, BitIndex)> = None;
        for (loss, index) in losses.into_iter().zip(candidates) {
            if best.is_none_or(|(b, _)| loss > b) {
                best = Some((loss, index));
            }
        }
        best.map(|(_, index)| index)
    }
}

/// Offers `(gain, index)` to `top`, the `k` best candidates offered so
/// far in descending gain, ties in the order offered: what a stable
/// sort by descending gain followed by `take(k)` keeps. Gains are never
/// NaN (only positive gains are offered).
fn keep_top(top: &mut Vec<(f32, BitIndex)>, k: usize, gain: f32, index: BitIndex) {
    let at = top.partition_point(|&(kept, _)| kept >= gain);
    if at < k {
        if top.len() == k {
            top.pop();
        }
        top.insert(at, (gain, index));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlk_dnn::{models, Layer, Linear, Network};

    /// Up to `iterations` searches on `(x, labels)`, each flip applied
    /// to a copy of `model`: `(None, clean accuracy)`, then each flip
    /// with the accuracy after it. Stops early when nothing is left to
    /// flip.
    fn campaign(
        config: BfaConfig,
        model: &QuantNetwork,
        x: &Tensor,
        labels: &[usize],
        iterations: usize,
    ) -> Vec<(Option<BitIndex>, f64)> {
        let mut search = BitSearch::new(config);
        let mut model = model.clone();
        let mut points = vec![(None, model.accuracy(x, labels).unwrap())];
        for _ in 0..iterations {
            let Some(flip) = search.next_flip(&model, x, labels) else { break };
            model.flip_bit(flip).unwrap();
            points.push((Some(flip), model.accuracy(x, labels).unwrap()));
        }
        points
    }

    #[test]
    fn bfa_crushes_accuracy_quickly() {
        let victim = models::victim_tiny(5);
        let (x, y) = victim.dataset.test_sample(32, 1);
        let points = campaign(BfaConfig::default(), &victim.model, &x, &y, 20);
        let (clean, last) = (points[0].1, points[points.len() - 1].1);
        assert!(clean > 0.6);
        assert!(last < clean * 0.6, "BFA should at least nearly halve accuracy: {clean} -> {last}");
    }

    #[test]
    fn each_flip_is_distinct_bit_state() {
        let victim = models::victim_tiny(6);
        let (x, y) = victim.dataset.test_sample(24, 2);
        let points = campaign(BfaConfig::default(), &victim.model, &x, &y, 5);
        let flips: Vec<_> = points.iter().filter_map(|p| p.0).collect();
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
            assert_eq!(campaign(config, &victim.model, &x, &y, 8), expected);
        }
    }

    /// The one-scan top-k keeps what a stable sort by descending gain
    /// and `take(k)` keep, in the same order: ties and `+∞` included,
    /// and lists shorter than `k`.
    #[test]
    fn top_k_scan_matches_a_stable_sort() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        let values = [0.25, 1.0, 1.0, 3.5, f32::INFINITY];
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..500 {
            let len = rng.random_range(0..12);
            let gains: Vec<(f32, BitIndex)> = (0..len)
                .map(|weight| {
                    let gain = values[rng.random_range(0..values.len())];
                    (gain, BitIndex { layer: 0, weight, bit: 7 })
                })
                .collect();
            for k in [1, 2, 5] {
                let mut sorted = gains.clone();
                sorted.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
                sorted.truncate(k);
                let mut top = Vec::new();
                for &(gain, index) in &gains {
                    keep_top(&mut top, k, gain, index);
                }
                assert_eq!(top, sorted, "k {k}, gains {gains:?}");
            }
        }
    }

    /// `bits=lo,hi` is the inclusive range `lo..=hi`, as `dlk check`
    /// reads it: `[0, 7]` ranks every bit, the same search as `None`,
    /// and `[5, 7]` ranks bit 6 too.
    #[test]
    fn bit_range_is_inclusive() {
        let victim = models::victim_tiny(5);
        let (x, y) = victim.dataset.test_sample(32, 0);
        let flips = |bits_considered| {
            let config = BfaConfig { candidates_per_layer: 5, bits_considered };
            let points = campaign(config, &victim.model, &x, &y, 8);
            points.into_iter().filter_map(|p| p.0).collect::<Vec<_>>()
        };
        assert_eq!(flips(Some([0, 7])), flips(None));
        let middle = flips(Some([5, 7]));
        assert!(middle.iter().any(|f| f.bit == 6), "{middle:?}");
    }

    #[test]
    fn vanishing_gradients_leave_nothing_to_flip() {
        // All-zero weights and biases: every hidden activation and so
        // every weight gradient is zero, and no bit has a positive gain.
        let zero = |inputs, outputs| {
            Layer::Dense(Linear::from_parts(Tensor::zeros(outputs, inputs), vec![0.0; outputs]))
        };
        let network = Network::new(vec![zero(8, 24), Layer::Relu, zero(24, 4)]);
        let model = QuantNetwork::quantize(&network);
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
