//! Binary-weight defenses: binary quantization and RA-BNN.
//!
//! Binarization stores one bit per weight: `w = ±m` with `m` the mean
//! magnitude of the weight's output row (its output channel, in a
//! conv). The only fault a memory attacker can inject
//! is a *sign toggle*, whose damage is bounded by `2m` — no MSB
//! amplification exists. RA-BNN (Rakin et al., 2021) additionally grows
//! the network so each individual sign carries even less information;
//! the paper credits it with surviving 1150 flips.

use dlk_dnn::data::SyntheticDataset;
use dlk_dnn::models::Victim;
use dlk_dnn::train::{TrainConfig, Trainer};
use dlk_dnn::{Layer, Network, QuantLayer, QuantNetwork, Tensor};

use super::TableTwoEntry;

/// A binarized network: each weighted layer's weights as signs with
/// per-output-row magnitudes (XNOR-Net-style scaling, which retains far
/// more accuracy than a single per-layer magnitude). A row is one
/// output neuron of a dense layer, or one output channel of a conv.
#[derive(Debug, Clone, PartialEq)]
pub struct BinaryNetwork {
    /// The float network the binary weights are written into: its
    /// plan, shapes and biases.
    template: Network,
    /// Per-weighted-layer sign storage (`true` = +m).
    signs: Vec<Vec<bool>>,
    /// Per-weighted-layer, per-output-row magnitudes.
    magnitudes: Vec<Vec<f32>>,
}

impl BinaryNetwork {
    /// Binarizes a float model: `w -> sign(w) · mean|w_row|` per
    /// output row of every weighted layer.
    pub fn binarize(model: &Network) -> Self {
        let weights = model.layers().iter().filter_map(Layer::weight);
        let (signs, magnitudes) = weights
            .map(|weight| {
                let cols = weight.cols().max(1);
                let row_mean = |row: &[f32]| row.iter().map(|w| w.abs()).sum::<f32>() / cols as f32;
                let signs = weight.as_slice().iter().map(|&w| w >= 0.0).collect();
                (signs, weight.as_slice().chunks(cols).map(row_mean).collect())
            })
            .unzip();
        Self { template: model.clone(), signs, magnitudes }
    }

    /// Binarizes with straight-through-estimator fine-tuning: the
    /// forward pass uses binarized weights while gradients update the
    /// float master, recovering most of the accuracy binarization
    /// costs (as binary-weight training does in the defense papers).
    pub fn binarize_with_finetune(
        model: &Network,
        dataset: &SyntheticDataset,
        epochs: usize,
    ) -> Self {
        let mut master = model.clone();
        let n = dataset.train_x.rows();
        let dim = dataset.dim;
        let batch = 32.min(n);
        let stride = (n / batch).max(1);
        let lr = 0.05f32;
        for _ in 0..epochs {
            for start in 0..stride {
                let indices: Vec<usize> = (0..batch).map(|k| (start + k * stride) % n).collect();
                let mut xs = Vec::with_capacity(batch * dim);
                let mut ys = Vec::with_capacity(batch);
                for &index in &indices {
                    xs.extend_from_slice(dataset.train_x.row(index));
                    ys.push(dataset.train_y[index]);
                }
                let x = Tensor::from_vec(batch, dim, xs);
                // Forward/backward through the binarized weights.
                let binary_model = Self::binarize(&master).to_float_model();
                let (_, grads) = binary_model.loss_and_grads(&x, &ys).expect("shapes consistent");
                master.apply_grads(&grads, lr).expect("shapes consistent");
            }
        }
        Self::binarize(&master)
    }

    /// Total weights (= attackable sign bits).
    pub fn total_weights(&self) -> usize {
        self.signs.iter().map(Vec::len).sum()
    }

    /// Toggles the sign of one weight of a weighted layer.
    pub fn flip_sign(&mut self, layer: usize, weight: usize) {
        self.signs[layer][weight] = !self.signs[layer][weight];
    }

    /// Materializes the float model implied by current signs: the
    /// template with every weight written as `±m` of its row.
    pub fn to_float_model(&self) -> Network {
        let mut model = self.template.clone();
        let weights = model.layers_mut().iter_mut().filter_map(Layer::weight_mut);
        for ((weight, signs), magnitudes) in weights.zip(&self.signs).zip(&self.magnitudes) {
            let cols = weight.cols().max(1);
            let rows = weight.as_mut_slice().chunks_mut(cols).zip(signs.chunks(cols));
            for ((row, signs), &m) in rows.zip(magnitudes) {
                for (w, &s) in row.iter_mut().zip(signs) {
                    *w = if s { m } else { -m };
                }
            }
        }
        model
    }

    /// Accuracy on a batch.
    pub fn accuracy(&self, x: &Tensor, labels: &[usize]) -> f64 {
        self.to_float_model().accuracy(x, labels).expect("shapes consistent")
    }

    /// Greedy most-damaging sign flip (gradient-ranked, like BFA).
    pub fn worst_sign_flip(&self, x: &Tensor, labels: &[usize]) -> Option<(usize, usize)> {
        let float_model = self.to_float_model();
        let (_, grads) = float_model.loss_and_grads(x, labels).expect("shapes consistent");
        let mut best: Option<(f32, (usize, usize))> = None;
        let layers = grads.iter().zip(&self.signs).zip(&self.magnitudes);
        for (layer_index, ((layer_grads, signs), magnitudes)) in layers.enumerate() {
            let cols = (signs.len() / magnitudes.len().max(1)).max(1);
            for (weight_index, (&g, &s)) in layer_grads.weight.iter().zip(signs).enumerate() {
                // Toggling the sign changes w by -2w = ∓2m; first-order
                // loss gain is g * delta.
                let m = magnitudes[weight_index / cols];
                let w = if s { m } else { -m };
                let gain = g * (-2.0 * w);
                if gain > 0.0 && best.is_none_or(|(b, _)| gain > b) {
                    best = Some((gain, (layer_index, weight_index)));
                }
            }
        }
        best.map(|(_, index)| index)
    }
}

/// An MLP victim's layer sizes with every hidden width times `factor`:
/// the capacity growth of RA-BNN and Model Capacity.
///
/// # Panics
///
/// Panics unless every weighted layer of `victim` is dense: only an
/// MLP's hidden widths are grown.
fn widened_sizes(victim: &Victim, factor: usize) -> Vec<usize> {
    let dense: Vec<_> = victim
        .model
        .layers()
        .iter()
        .filter_map(|layer| match layer {
            QuantLayer::Dense(dense) => Some(dense),
            _ => None,
        })
        .collect();
    assert!(
        !dense.is_empty() && dense.len() == victim.model.weighted_count(),
        "Table II's capacity growth widens MLP victims only"
    );
    let mut sizes = vec![dense[0].in_features()];
    sizes.extend(dense[..dense.len() - 1].iter().map(|layer| layer.out_features() * factor));
    sizes.extend(dense.last().map(|layer| layer.out_features()));
    sizes
}

/// The binary-weight defense of Table II.
#[derive(Debug, Clone, Copy, Default)]
pub struct BinaryWeight;

impl BinaryWeight {
    /// Evaluates the Table II row: greedy sign-flip attack on the
    /// binarized model, dense or convolutional.
    pub fn evaluate(&self, victim: &Victim, sample: usize, budget: usize) -> TableTwoEntry {
        let (x, y) = victim.dataset.test_sample(sample, 0);
        let float_model = victim.model.to_float_model();
        let mut model = BinaryNetwork::binarize_with_finetune(&float_model, &victim.dataset, 20);
        evaluate_binary("Binary Weight", &mut model, &x, &y, budget)
    }
}

/// RA-BNN: binarization plus capacity growth (hidden layers widened by
/// `growth`), retrained briefly to recover accuracy.
#[derive(Debug, Clone, Copy)]
pub struct RaBnn {
    /// Hidden-width multiplier.
    pub growth: usize,
}

impl Default for RaBnn {
    fn default() -> Self {
        Self { growth: 4 }
    }
}

impl RaBnn {
    /// Evaluates the Table II row.
    ///
    /// # Panics
    ///
    /// Panics if `victim` is not an MLP victim: the growth widens its
    /// dense hidden layers.
    pub fn evaluate(&self, victim: &Victim, sample: usize, budget: usize) -> TableTwoEntry {
        let (x, y) = victim.dataset.test_sample(sample, 0);
        // Grow hidden layers and retrain a float model, then binarize.
        let mut grown = Network::mlp(&widened_sizes(victim, self.growth), 99);
        let config = TrainConfig { epochs: 60, ..TrainConfig::default() };
        Trainer::new(config).fit(&mut grown, &victim.dataset);
        let mut model = BinaryNetwork::binarize_with_finetune(&grown, &victim.dataset, 20);
        evaluate_binary("RA-BNN", &mut model, &x, &y, budget)
    }
}

fn evaluate_binary(
    name: &str,
    model: &mut BinaryNetwork,
    x: &Tensor,
    labels: &[usize],
    budget: usize,
) -> TableTwoEntry {
    let clean = model.accuracy(x, labels);
    let target = clean * 0.5;
    let mut accuracy = clean;
    let mut flips = 0;
    while accuracy > target && flips < budget {
        let Some((layer, weight)) = model.worst_sign_flip(x, labels) else { break };
        model.flip_sign(layer, weight);
        flips += 1;
        accuracy = model.accuracy(x, labels);
    }
    TableTwoEntry {
        name: name.to_owned(),
        clean_acc_pct: clean * 100.0,
        post_attack_acc_pct: accuracy * 100.0,
        bit_flips: flips,
    }
}

/// The capacity-scaling defense (Model Capacity ×16 in Table II):
/// widen hidden layers, retrain, attack with standard BFA.
#[derive(Debug, Clone, Copy)]
pub struct CapacityScale {
    /// Hidden-width multiplier (16x parameters ≈ 4x width for an MLP).
    pub width_factor: usize,
}

impl Default for CapacityScale {
    fn default() -> Self {
        Self { width_factor: 4 }
    }
}

impl CapacityScale {
    /// Evaluates the Table II row.
    ///
    /// # Panics
    ///
    /// Panics if `victim` is not an MLP victim (see [`RaBnn::evaluate`]).
    pub fn evaluate(&self, victim: &Victim, sample: usize, budget: usize) -> TableTwoEntry {
        let (x, y) = victim.dataset.test_sample(sample, 0);
        let mut grown = Network::mlp(&widened_sizes(victim, self.width_factor), 55);
        let config = TrainConfig { epochs: 60, ..TrainConfig::default() };
        Trainer::new(config).fit(&mut grown, &victim.dataset);
        let mut model = QuantNetwork::quantize(&grown);
        let clean = model.accuracy(&x, &y).expect("shapes consistent");
        let (post, flips) = super::run_bfa_until(&mut model, &x, &y, clean * 0.5, budget);
        TableTwoEntry {
            name: format!("Model Capacity x{}", self.width_factor * self.width_factor),
            clean_acc_pct: clean * 100.0,
            post_attack_acc_pct: post * 100.0,
            bit_flips: flips,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlk_dnn::models;

    #[test]
    fn binarize_roundtrip_shapes() {
        let victim = models::victim_tiny(8);
        let binary = BinaryNetwork::binarize(&victim.model.to_float_model());
        assert_eq!(binary.total_weights(), victim.model.total_weights());
        let float_model = binary.to_float_model();
        assert_eq!(float_model.num_classes(), 4);
    }

    #[test]
    fn binary_model_keeps_useful_accuracy() {
        let victim = models::victim_tiny(8);
        let (x, y) = victim.dataset.test_sample(48, 0);
        let binary = BinaryNetwork::binarize(&victim.model.to_float_model());
        let acc = binary.accuracy(&x, &y);
        assert!(
            acc > victim.dataset.chance_accuracy() * 1.5,
            "binary accuracy {acc} too close to chance"
        );
    }

    #[test]
    fn sign_flip_toggles() {
        let victim = models::victim_tiny(8);
        let mut binary = BinaryNetwork::binarize(&victim.model.to_float_model());
        let before = binary.signs[0][0];
        binary.flip_sign(0, 0);
        assert_ne!(binary.signs[0][0], before);
    }

    #[test]
    fn binary_weight_evaluates_a_cnn_victim() {
        let victim = models::victim_tiny_cnn(11);
        let binary = BinaryNetwork::binarize(&victim.model.to_float_model());
        assert_eq!(binary.total_weights(), victim.model.total_weights());
        // One magnitude per output channel of the 1→3 stem conv.
        assert_eq!(binary.magnitudes[0].len(), 3);
        let entry = BinaryWeight.evaluate(&victim, 32, 20);
        assert!(entry.clean_acc_pct > 100.0 * victim.dataset.chance_accuracy(), "{entry:?}");
        assert!(entry.bit_flips <= 20);
    }

    #[test]
    fn binary_defense_survives_more_flips_than_baseline() {
        let victim = models::victim_tiny(9);
        let budget = 50;
        let baseline = super::super::baseline_entry(&victim, 32, budget);
        let binary = BinaryWeight.evaluate(&victim, 32, budget);
        assert!(
            binary.bit_flips >= baseline.bit_flips,
            "binary {} vs baseline {}",
            binary.bit_flips,
            baseline.bit_flips
        );
    }
}
