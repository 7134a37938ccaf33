//! Weight-space defense transforms: piece-wise clustering and weight
//! reconstruction.

use dlk_dnn::models::Victim;
use dlk_dnn::quant::QuantNetwork;

use dlk_attacks::bfa::{BfaConfig, BitSearch};

use super::TableTwoEntry;

/// Piece-wise clustering (He et al., CVPR 2020), modeled as its
/// post-training effect: the clustering penalty pulls weights toward
/// two tight clusters, eliminating the large-magnitude outliers whose
/// MSB flips are BFA's best targets. We apply the equivalent transform
/// — clip each layer's weights to the `quantile` absolute-value
/// quantile and re-quantize — which shrinks the quantization scale and
/// therefore the damage of any single flip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PiecewiseClustering {
    /// Clip quantile in `(0, 1]` (the paper's penalty strength maps to
    /// roughly 0.9–0.99).
    pub quantile: f64,
}

impl Default for PiecewiseClustering {
    fn default() -> Self {
        Self { quantile: 0.95 }
    }
}

impl PiecewiseClustering {
    /// Applies the clustering transform to a float model and
    /// re-quantizes.
    pub fn apply(&self, victim: &Victim) -> QuantNetwork {
        let mut float_model = victim.model.to_float_model();
        for layer in float_model.layers_mut() {
            let Some(weight) = layer.weight_mut() else { continue };
            let mut magnitudes: Vec<f32> = weight.as_slice().iter().map(|w| w.abs()).collect();
            magnitudes.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let index = ((magnitudes.len() - 1) as f64 * self.quantile) as usize;
            let clip = magnitudes[index].max(1e-6);
            for w in weight.as_mut_slice() {
                *w = w.clamp(-clip, clip);
            }
        }
        QuantNetwork::quantize(&float_model)
    }

    /// Evaluates the Table II row.
    pub fn evaluate(&self, victim: &Victim, sample: usize, budget: usize) -> TableTwoEntry {
        let (x, y) = victim.dataset.test_sample(sample, 0);
        let mut model = self.apply(victim);
        let clean = model.accuracy(&x, &y).expect("shapes consistent");
        let (post, flips) = super::run_bfa_until(&mut model, &x, &y, clean * 0.5, budget);
        TableTwoEntry {
            name: "Piece-wise Clustering".to_owned(),
            clean_acc_pct: clean * 100.0,
            post_attack_acc_pct: post * 100.0,
            bit_flips: flips,
        }
    }
}

/// Weight reconstruction (Li et al., DAC 2020): the defense stores
/// per-layer statistics of the trained weights and, on every inference
/// (modeled: after every attack flip), repairs statistical outliers by
/// clamping quantized values back inside the recorded envelope. An MSB
/// flip turns a small weight into an extreme one, so the repair undoes
/// most of the damage and the attacker needs many more flips.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightReconstruction {
    /// Envelope width in standard deviations.
    pub sigmas: f32,
}

impl Default for WeightReconstruction {
    fn default() -> Self {
        Self { sigmas: 2.5 }
    }
}

impl WeightReconstruction {
    /// Records a per-output-row `(mean, std)` envelope of quantized
    /// values for every layer (rows give a much tighter statistical
    /// fingerprint than whole layers).
    pub fn envelope(model: &QuantNetwork) -> Vec<Vec<(f32, f32)>> {
        model
            .weighted_layers()
            .iter()
            .map(|layer| {
                let layer = layer.matrix().expect("weighted layers carry a matrix");
                let input = layer.in_features().max(1);
                let qs = layer.qweights();
                (0..layer.out_features())
                    .map(|row| {
                        let slice = &qs[row * input..(row + 1) * input];
                        let n = slice.len().max(1) as f32;
                        let mean = slice.iter().map(|&q| q as f32).sum::<f32>() / n;
                        let var = slice.iter().map(|&q| (q as f32 - mean).powi(2)).sum::<f32>() / n;
                        (mean, var.sqrt())
                    })
                    .collect()
            })
            .collect()
    }

    /// Repairs outliers in place; returns how many weights were fixed.
    pub fn repair(&self, model: &mut QuantNetwork, envelope: &[Vec<(f32, f32)>]) -> usize {
        let mut repaired = 0;
        for (layer_index, layer) in model.weighted_layers_mut().into_iter().enumerate() {
            let layer = layer.matrix_mut().expect("weighted layers carry a matrix");
            let input = layer.in_features().max(1);
            for index in 0..layer.num_weights() {
                let (mean, std) = envelope[layer_index][index / input];
                let low = mean - self.sigmas * std;
                let high = mean + self.sigmas * std;
                let q = layer.weight_byte(index).expect("index in range") as i8 as f32;
                if q < low || q > high {
                    // Reconstruct by clamping into the row envelope —
                    // neutralizes MSB amplification while keeping large
                    // legitimate weights mostly intact.
                    let clamped = q.clamp(low, high).round().clamp(-127.0, 127.0);
                    layer.set_weight_byte(index, clamped as i8 as u8);
                    repaired += 1;
                }
            }
        }
        repaired
    }

    /// Evaluates the Table II row: BFA with repair after every flip.
    pub fn evaluate(&self, victim: &Victim, sample: usize, budget: usize) -> TableTwoEntry {
        let (x, y) = victim.dataset.test_sample(sample, 0);
        let mut model = victim.model.clone();
        let envelope = Self::envelope(&model);
        // Normalize the starting model into the envelope so clean
        // accuracy reflects the defense's own (small) cost.
        self.repair(&mut model, &envelope);
        let clean = model.accuracy(&x, &y).expect("shapes consistent");
        let target = clean * 0.5;
        let mut search = BitSearch::new(BfaConfig::default());
        let mut accuracy = clean;
        let mut flips = 0;
        while accuracy > target && flips < budget {
            let Some(flip) = search.next_flip(&model, &x, &y) else { break };
            model.flip_bit(flip).expect("valid index");
            flips += 1;
            self.repair(&mut model, &envelope);
            accuracy = model.accuracy(&x, &y).expect("shapes consistent");
        }
        TableTwoEntry {
            name: "Weight Reconstruction".to_owned(),
            clean_acc_pct: clean * 100.0,
            post_attack_acc_pct: accuracy * 100.0,
            bit_flips: flips,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlk_dnn::models;

    #[test]
    fn clustering_shrinks_quantization_scale() {
        let victim = models::victim_tiny(5);
        let clustered = PiecewiseClustering { quantile: 0.9 }.apply(&victim);
        for (orig, new) in victim.model.weighted_layers().iter().zip(clustered.weighted_layers()) {
            assert!(new.scale() <= orig.scale());
        }
    }

    #[test]
    fn clustering_keeps_most_accuracy() {
        let victim = models::victim_tiny(5);
        let (x, y) = victim.dataset.test_sample(48, 0);
        let clustered = PiecewiseClustering::default().apply(&victim);
        let acc = clustered.accuracy(&x, &y).unwrap();
        assert!(acc > victim.clean_accuracy - 0.15, "acc {acc}");
    }

    #[test]
    fn reconstruction_repairs_msb_flip() {
        let victim = models::victim_tiny(6);
        let mut model = victim.model.clone();
        let envelope = WeightReconstruction::envelope(&model);
        let defense = WeightReconstruction::default();
        defense.repair(&mut model, &envelope);
        // Pick a small weight: its MSB flip lands far outside the row
        // envelope and must be repaired.
        let byte_at = |model: &dlk_dnn::QuantNetwork, i: usize| {
            model.weighted_layers()[0].matrix().unwrap().weight_byte(i).unwrap() as i8
        };
        let weight = (0..model.weighted_layers()[0].num_weights())
            .find(|&i| byte_at(&model, i).abs() <= 8)
            .expect("a small weight exists");
        let flip = dlk_dnn::BitIndex { layer: 0, weight, bit: 7 };
        model.flip_bit(flip).unwrap();
        let flipped = byte_at(&model, weight);
        assert!(flipped.unsigned_abs() >= 120);
        let repaired = defense.repair(&mut model, &envelope);
        assert!(repaired >= 1);
        // The repaired weight is back near the envelope, not at ±128.
        let byte = byte_at(&model, weight);
        assert!(
            byte.unsigned_abs() < 120,
            "repair should pull the weight back (flipped {flipped} -> {byte})"
        );
    }

    #[test]
    fn defended_models_need_more_flips_than_baseline() {
        let victim = models::victim_tiny(7);
        let budget = 60;
        let baseline = super::super::baseline_entry(&victim, 32, budget);
        let reconstruction = WeightReconstruction::default().evaluate(&victim, 32, budget);
        assert!(
            reconstruction.bit_flips >= baseline.bit_flips,
            "reconstruction {} vs baseline {}",
            reconstruction.bit_flips,
            baseline.bit_flips
        );
    }
}
