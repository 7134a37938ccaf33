//! Fully-connected layers with hand-written backprop.

use crate::error::DnnError;
use crate::network::{stacked, LayerGrads};
use crate::tensor::Tensor;

/// A fully-connected layer `y = x Wᵀ + b` with weights `(out, in)`.
///
/// # Example
///
/// ```
/// use dlk_dnn::{Linear, Tensor};
/// let layer = Linear::new(4, 2, 7);
/// let x = Tensor::zeros(3, 4);
/// let y = layer.forward(&x).unwrap();
/// assert_eq!(y.shape(), (3, 2));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    weight: Tensor,
    bias: Vec<f32>,
}

/// Gradients of one linear layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearGrads {
    /// dL/dW, shape `(out, in)`.
    pub weight: Tensor,
    /// dL/db, length `out`.
    pub bias: Vec<f32>,
}

impl Linear {
    /// Creates a layer with Kaiming-random weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        Self {
            weight: Tensor::randn(out_features, in_features, seed),
            bias: vec![0.0; out_features],
        }
    }

    /// Creates a layer from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != weight.rows()`.
    pub fn from_parts(weight: Tensor, bias: Vec<f32>) -> Self {
        assert_eq!(bias.len(), weight.rows(), "bias length must equal out features");
        Self { weight, bias }
    }

    /// Input features.
    pub fn in_features(&self) -> usize {
        self.weight.cols()
    }

    /// Output features.
    pub fn out_features(&self) -> usize {
        self.weight.rows()
    }

    /// The weight matrix `(out, in)`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Mutable weight matrix.
    pub fn weight_mut(&mut self) -> &mut Tensor {
        &mut self.weight
    }

    /// The bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Mutable bias vector.
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias
    }

    /// The weight matrix and bias, borrowed together for an update.
    pub(crate) fn params_mut(&mut self) -> (&mut Tensor, &mut [f32]) {
        (&mut self.weight, &mut self.bias)
    }

    /// Forward pass: `x (batch, in) -> (batch, out)`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] on wrong input width.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor, DnnError> {
        let mut y = x.matmul_transpose(&self.weight)?;
        for row in 0..y.rows() {
            for col in 0..y.cols() {
                let v = y.get(row, col) + self.bias[col];
                y.set(row, col, v);
            }
        }
        Ok(y)
    }

    /// Backward pass. Given upstream gradient `d_out (batch, out)` and
    /// the forward input `x (batch, in)`, returns `(grads, d_x)`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] on inconsistent shapes.
    pub fn backward(&self, x: &Tensor, d_out: &Tensor) -> Result<(LinearGrads, Tensor), DnnError> {
        let grads = self.weight_grads(&[(x, d_out)])?;
        let d_x = self.backward_data(d_out)?;
        let weight = Tensor::from_vec(self.out_features(), self.in_features(), grads.weight);
        Ok((LinearGrads { weight, bias: grads.bias }, d_x))
    }

    /// The input gradient `d_x = d_out × W (batch, in)`: each row from
    /// its own row of `d_out` alone.
    pub(crate) fn backward_data(&self, d_out: &Tensor) -> Result<Tensor, DnnError> {
        d_out.matmul(&self.weight)
    }

    /// `dW = d_outᵀ × x (out, in)` and `db`, the column sums of
    /// `d_out`, over the batch whose row blocks `parts` holds as `(x,
    /// d_out)` pairs in row order (see [`stacked`]).
    pub(crate) fn weight_grads(
        &self,
        parts: &[(&Tensor, &Tensor)],
    ) -> Result<LayerGrads, DnnError> {
        let (x, d_out) = stacked(parts);
        let weight = d_out.transpose_matmul(&x)?.into_vec();
        let mut bias = vec![0.0f32; self.out_features()];
        for row in 0..d_out.rows() {
            for (col, db) in bias.iter_mut().enumerate() {
                *db += d_out.get(row, col);
            }
        }
        Ok(LayerGrads { weight, bias })
    }
}

/// Softmax cross-entropy over logits.
///
/// Returns `(mean_loss, probabilities)`.
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()`.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    assert_eq!(labels.len(), logits.rows(), "one label per row");
    let mut probs = logits.clone();
    let mut loss = 0.0f32;
    for row in 0..logits.rows() {
        let slice = &mut probs.as_mut_slice()[row * logits.cols()..(row + 1) * logits.cols()];
        let max = slice.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let mut sum = 0.0f32;
        for value in slice.iter_mut() {
            *value = (*value - max).exp();
            sum += *value;
        }
        for value in slice.iter_mut() {
            *value /= sum;
        }
        loss -= (slice[labels[row]] + 1e-12).ln();
    }
    (loss / logits.rows() as f32, probs)
}

/// Gradient of the mean softmax cross-entropy w.r.t. logits:
/// `(probs - onehot) / batch`.
///
/// # Panics
///
/// Panics if `labels.len() != probs.rows()`.
pub fn cross_entropy_grad(probs: &Tensor, labels: &[usize]) -> Tensor {
    assert_eq!(labels.len(), probs.rows(), "one label per row");
    let mut grad = probs.clone();
    let batch = probs.rows() as f32;
    for (row, &label) in labels.iter().enumerate() {
        let v = grad.get(row, label);
        grad.set(row, label, v - 1.0);
    }
    grad.scale(1.0 / batch);
    grad
}

/// ReLU's backward mask: whether each input element was `> 0`.
pub(crate) fn relu_mask(x: &Tensor) -> Vec<bool> {
    x.as_slice().iter().map(|&v| v > 0.0).collect()
}

/// ReLU backward: zero gradient where the forward input was ≤ 0.
///
/// # Panics
///
/// Panics if mask length differs from the gradient element count.
pub fn relu_backward(d_out: &Tensor, mask: &[bool]) -> Tensor {
    assert_eq!(mask.len(), d_out.len(), "mask/grad size mismatch");
    let mut d_x = d_out.clone();
    for (value, &keep) in d_x.as_mut_slice().iter_mut().zip(mask) {
        *value = if keep { *value } else { 0.0 };
    }
    d_x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_applies_bias() {
        let weight = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let layer = Linear::from_parts(weight, vec![10.0, 20.0]);
        let x = Tensor::from_rows(&[&[1.0, 2.0]]);
        let y = layer.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[11.0, 22.0]);
    }

    #[test]
    fn softmax_probs_sum_to_one() {
        let logits = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[0.0, 0.0, 0.0]]);
        let (loss, probs) = softmax_cross_entropy(&logits, &[2, 0]);
        for row in 0..2 {
            let sum: f32 = probs.row(row).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        assert!(loss > 0.0);
    }

    #[test]
    fn perfect_prediction_has_low_loss() {
        let logits = Tensor::from_rows(&[&[100.0, 0.0]]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss < 1e-3);
    }

    #[test]
    fn numerical_gradient_check_weights() {
        // Finite-difference check of dL/dW on a tiny layer.
        let mut layer = Linear::new(3, 2, 11);
        let x = Tensor::randn(4, 3, 12);
        let labels = vec![0, 1, 1, 0];

        let loss_of = |layer: &Linear| {
            let y = layer.forward(&x).unwrap();
            softmax_cross_entropy(&y, &labels).0
        };

        let y = layer.forward(&x).unwrap();
        let (_, probs) = softmax_cross_entropy(&y, &labels);
        let d_logits = cross_entropy_grad(&probs, &labels);
        let (grads, _) = layer.backward(&x, &d_logits).unwrap();

        let eps = 1e-3f32;
        for index in [0usize, 1, 4, 5] {
            let orig = layer.weight().as_slice()[index];
            layer.weight_mut().as_mut_slice()[index] = orig + eps;
            let up = loss_of(&layer);
            layer.weight_mut().as_mut_slice()[index] = orig - eps;
            let down = loss_of(&layer);
            layer.weight_mut().as_mut_slice()[index] = orig;
            let numeric = (up - down) / (2.0 * eps);
            let analytic = grads.weight.as_slice()[index];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "index {index}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn numerical_gradient_check_input() {
        let layer = Linear::new(3, 2, 21);
        let mut x = Tensor::randn(2, 3, 22);
        let labels = vec![1, 0];
        let y = layer.forward(&x).unwrap();
        let (_, probs) = softmax_cross_entropy(&y, &labels);
        let d_logits = cross_entropy_grad(&probs, &labels);
        let (_, d_x) = layer.backward(&x, &d_logits).unwrap();

        let eps = 1e-3f32;
        let orig = x.get(0, 1);
        x.set(0, 1, orig + eps);
        let up = softmax_cross_entropy(&layer.forward(&x).unwrap(), &labels).0;
        x.set(0, 1, orig - eps);
        let down = softmax_cross_entropy(&layer.forward(&x).unwrap(), &labels).0;
        let numeric = (up - down) / (2.0 * eps);
        assert!((numeric - d_x.get(0, 1)).abs() < 1e-2);
    }

    #[test]
    fn relu_mask_roundtrip() {
        let mut x = Tensor::from_rows(&[&[-1.0, 2.0, 0.0]]);
        let mask = relu_mask(&x);
        x.relu_inplace();
        assert_eq!(x.as_slice(), &[0.0, 2.0, 0.0]);
        let d = relu_backward(&Tensor::from_rows(&[&[5.0, 5.0, 5.0]]), &mask);
        assert_eq!(d.as_slice(), &[0.0, 5.0, 0.0]);
    }
}
