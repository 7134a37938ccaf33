//! SGD training.

#![allow(clippy::expect_used, reason = "training runs at victim setup, off the request path")]

use crate::data::SyntheticDataset;
use crate::network::Network;
use crate::tensor::Tensor;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Learning rate.
    pub lr: f32,
    /// Epochs over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Multiplicative LR decay applied each epoch.
    pub lr_decay: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { lr: 0.3, epochs: 40, batch_size: 32, lr_decay: 0.98 }
    }
}

impl TrainConfig {
    /// A fast configuration for unit tests.
    pub fn fast_for_tests() -> Self {
        Self { lr: 0.3, epochs: 20, batch_size: 16, lr_decay: 1.0 }
    }
}

/// Outcome of a training run. A caller that wants an accuracy runs
/// [`Network::accuracy`] on the rows it cares about.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainReport {
    /// Final epoch mean training loss.
    pub final_loss: f32,
    /// Epochs actually run.
    pub epochs: usize,
}

/// Mini-batch SGD trainer.
///
/// # Example
///
/// ```
/// use dlk_dnn::{Network, SyntheticDataset, TrainConfig, Trainer};
///
/// let dataset = SyntheticDataset::tiny_for_tests(1);
/// let mut model = Network::mlp(&[8, 24, 4], 1);
/// let report = Trainer::new(TrainConfig::fast_for_tests()).fit(&mut model, &dataset);
/// assert_eq!(report.epochs, 20);
/// let accuracy = model.accuracy(&dataset.test_x, &dataset.test_y).unwrap();
/// assert!(accuracy > dataset.chance_accuracy());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(config: TrainConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `model` on `dataset`, returning a report.
    ///
    /// Batches are taken in a fixed round-robin order (the dataset
    /// generator already interleaves classes), keeping training fully
    /// deterministic. A dataset without training rows runs no epoch
    /// and leaves `model` unchanged.
    pub fn fit(&self, model: &mut Network, dataset: &SyntheticDataset) -> TrainReport {
        let n = dataset.train_x.rows();
        let dim = dataset.dim;
        let epochs = if n == 0 { 0 } else { self.config.epochs };
        let batch = self.config.batch_size.clamp(1, n.max(1));
        let mut lr = self.config.lr;
        let mut final_loss = f32::NAN;
        // Interleave classes within batches by striding.
        let stride = (n / batch).max(1);
        for _ in 0..epochs {
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            for start in 0..stride {
                let indices: Vec<usize> = (0..batch).map(|k| (start + k * stride) % n).collect();
                let mut xs = Vec::with_capacity(batch * dim);
                let mut ys = Vec::with_capacity(batch);
                for &index in &indices {
                    xs.extend_from_slice(dataset.train_x.row(index));
                    ys.push(dataset.train_y[index]);
                }
                let x = Tensor::from_vec(batch, dim, xs);
                let (loss, grads) = model
                    .loss_and_grads(&x, &ys)
                    .expect("training shapes are consistent by construction");
                model.apply_grads(&grads, lr).expect("gradients match their network");
                epoch_loss += loss;
                batches += 1;
            }
            final_loss = epoch_loss / batches as f32;
            lr *= self.config.lr_decay;
        }
        TrainReport { final_loss, epochs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_beats_chance_substantially() {
        let dataset = SyntheticDataset::tiny_for_tests(7);
        let mut model = Network::mlp(&[8, 24, 4], 7);
        let report = Trainer::new(TrainConfig::fast_for_tests()).fit(&mut model, &dataset);
        let accuracy = model.accuracy(&dataset.test_x, &dataset.test_y).unwrap();
        assert!(accuracy > 0.7, "expected >70% on separable blobs, got {accuracy}");
        assert!(report.final_loss < 1.0);
    }

    #[test]
    fn training_is_deterministic() {
        let dataset = SyntheticDataset::tiny_for_tests(3);
        let run = || {
            let mut model = Network::mlp(&[8, 16, 4], 3);
            Trainer::new(TrainConfig::fast_for_tests()).fit(&mut model, &dataset);
            model
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_training_set_runs_no_step() {
        let dataset = SyntheticDataset::images(4, 6, 6, 0, 2, 5.0, 1);
        assert_eq!(dataset.train_x.rows(), 0);
        let mut model = crate::models::tiny_cnn(1);
        let before = model.clone();
        let report = Trainer::new(TrainConfig::fast_for_tests()).fit(&mut model, &dataset);
        assert_eq!(model, before);
        assert_eq!(report.epochs, 0);
        assert!(report.final_loss.is_nan());
    }

    #[test]
    fn report_reflects_epochs() {
        let dataset = SyntheticDataset::tiny_for_tests(1);
        let mut model = Network::mlp(&[8, 8, 4], 1);
        let config = TrainConfig { epochs: 3, ..TrainConfig::fast_for_tests() };
        let report = Trainer::new(config).fit(&mut model, &dataset);
        assert_eq!(report.epochs, 3);
    }
}
