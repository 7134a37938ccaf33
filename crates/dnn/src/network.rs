//! The general sequential network: a flat [`Layer`] list that subsumes
//! [`Mlp`] and adds convolutions, pooling and residual skips.
//!
//! A [`Network`] executes its layers in order over the workspace's 2-D
//! [`Tensor`] (each batch row one flattened feature map). Residual
//! blocks are encoded *flat* with two structure markers instead of
//! nesting: [`Layer::SkipStart`] remembers the running activation and
//! [`Layer::SkipAdd`] adds it back (the identity shortcut of a ResNet
//! basic block). Keeping the list flat is what lets the quantized
//! attack surface address every weight as `(weighted-layer, index,
//! bit)` uniformly across MLPs and CNNs.
//!
//! ```
//! use dlk_dnn::network::{Layer, Network};
//! use dlk_dnn::{Mlp, Tensor};
//!
//! // Every MLP is a Network.
//! let mlp = Mlp::new(&[4, 8, 2], 7);
//! let net = Network::from(&mlp);
//! let x = Tensor::randn(3, 4, 9);
//! assert_eq!(net.forward(&x).unwrap(), mlp.forward(&x).unwrap());
//! assert_eq!(net.weighted_count(), mlp.num_layers());
//! ```

use serde::{Deserialize, Serialize};

use crate::conv::{Conv2d, Pool2d};
use crate::error::DnnError;
use crate::layers::{
    cross_entropy_grad, relu_backward, relu_forward, softmax_cross_entropy, Linear,
};
use crate::model::{argmax_rows, Mlp};
use crate::tensor::Tensor;

/// One step of a [`Network`]'s execution plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Layer {
    /// A fully-connected layer.
    Dense(Linear),
    /// A 2-D convolution (im2col kernel matrix).
    Conv(Conv2d),
    /// Element-wise ReLU.
    Relu,
    /// 2-D max pooling.
    MaxPool(Pool2d),
    /// 2-D average pooling.
    AvgPool(Pool2d),
    /// Remembers the running activation as a residual shortcut.
    SkipStart,
    /// Adds the most recent remembered shortcut back (identity
    /// residual). Pairs with the innermost open [`Layer::SkipStart`].
    SkipAdd,
}

impl Layer {
    /// Whether this layer carries attackable weights.
    pub fn is_weighted(&self) -> bool {
        matches!(self, Layer::Dense(_) | Layer::Conv(_))
    }

    /// Number of weight parameters (excluding biases).
    pub fn num_weights(&self) -> usize {
        self.weight().map_or(0, Tensor::len)
    }

    /// The weight matrix, for weighted layers.
    pub fn weight(&self) -> Option<&Tensor> {
        match self {
            Layer::Dense(l) => Some(l.weight()),
            Layer::Conv(c) => Some(c.weight()),
            _ => None,
        }
    }

    /// Mutable weight matrix, for weighted layers.
    pub fn weight_mut(&mut self) -> Option<&mut Tensor> {
        match self {
            Layer::Dense(l) => Some(l.weight_mut()),
            Layer::Conv(c) => Some(c.weight_mut()),
            _ => None,
        }
    }
}

/// Gradients of one weighted layer, flat: `weight[i]` is dL/dw for the
/// same flat index `i` that [`BitIndex`](crate::quant::BitIndex) uses.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerGrads {
    /// dL/dW, flattened row-major like the layer's weight matrix.
    pub weight: Vec<f32>,
    /// dL/db.
    pub bias: Vec<f32>,
}

/// A sequential network over a flat [`Layer`] list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    layers: Vec<Layer>,
}

/// Per-layer forward state kept for the backward pass.
pub(crate) enum Cache {
    /// The layer's input activation (weighted layers).
    Input(Tensor),
    /// ReLU sign mask.
    Mask(Vec<bool>),
    /// Max-pool winner indices.
    Switches(Vec<usize>),
    /// Nothing needed.
    None,
}

/// What [`Network::run`] keeps of each layer it executes.
pub(crate) enum Tape<'t> {
    /// Nothing: inference, and every resumed trial.
    Off,
    /// Each layer's state for the backward pass.
    Backward(&'t mut Vec<Cache>),
    /// The backward state, plus a copy of the residual shortcuts open
    /// at each weighted layer: what a trial needs to resume there.
    Record(&'t mut Vec<Cache>, &'t mut Vec<Vec<Tensor>>),
}

/// A point a forward pass can resume from: a weighted layer's plan
/// position, the activation entering it and the residual shortcuts
/// open there (innermost last).
#[derive(Debug)]
pub(crate) struct Resume {
    pub(crate) position: usize,
    pub(crate) input: Tensor,
    pub(crate) skips: Vec<Tensor>,
}

impl Network {
    /// Builds a network from a layer list.
    pub fn new(layers: Vec<Layer>) -> Self {
        Self { layers }
    }

    /// Builds the MLP topology `sizes` (Dense layers with ReLU
    /// between) — the [`Mlp`] constructor expressed as a [`Network`].
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn mlp(sizes: &[usize], seed: u64) -> Self {
        Self::from(&Mlp::new(sizes, seed))
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: Layer) -> Self {
        self.layers.push(layer);
        self
    }

    /// The layer list.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable layer list.
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// The weighted (Dense/Conv) layers in execution order — the list
    /// [`BitIndex::layer`](crate::quant::BitIndex) indexes.
    pub fn weighted_layers(&self) -> Vec<&Layer> {
        self.layers.iter().filter(|l| l.is_weighted()).collect()
    }

    /// Number of weighted layers.
    pub fn weighted_count(&self) -> usize {
        self.layers.iter().filter(|l| l.is_weighted()).count()
    }

    /// Total weight parameters across layers (excluding biases).
    pub fn total_weights(&self) -> usize {
        self.layers.iter().map(Layer::num_weights).sum()
    }

    /// Input feature count (first weighted layer's input width).
    pub fn in_features(&self) -> usize {
        self.layers
            .iter()
            .find_map(|layer| match layer {
                Layer::Dense(l) => Some(l.in_features()),
                Layer::Conv(c) => Some(c.spec().in_features()),
                _ => None,
            })
            .unwrap_or(0)
    }

    /// Output class count (last weighted layer's output width).
    pub fn num_classes(&self) -> usize {
        self.layers
            .iter()
            .rev()
            .find_map(|layer| match layer {
                Layer::Dense(l) => Some(l.out_features()),
                Layer::Conv(c) => Some(c.spec().out_features()),
                _ => None,
            })
            .unwrap_or(0)
    }

    /// Reconstructs an [`Mlp`] when the plan is exactly the MLP shape
    /// `Dense (Relu Dense)*` — the inverse of [`Network::from`].
    pub fn as_mlp(&self) -> Option<Mlp> {
        let mut dense = Vec::new();
        for (index, layer) in self.layers.iter().enumerate() {
            match layer {
                Layer::Dense(l) if index % 2 == 0 => dense.push(l.clone()),
                Layer::Relu if index % 2 == 1 => {}
                _ => return None,
            }
        }
        if dense.is_empty() || self.layers.len().is_multiple_of(2) {
            return None;
        }
        let sizes: Vec<usize> = std::iter::once(dense[0].in_features())
            .chain(dense.iter().map(Linear::out_features))
            .collect();
        let mut mlp = Mlp::new(&sizes, 0);
        for (dst, src) in mlp.layers_mut().iter_mut().zip(dense) {
            *dst = src;
        }
        Some(mlp)
    }

    /// Forward pass to logits.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] on wrong input width and
    /// [`DnnError::UnbalancedSkip`] for mismatched skip markers.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor, DnnError> {
        self.run(0, x, &[], Tape::Off)
    }

    /// The one executor: runs the plan from position `start` on `x`,
    /// the activation entering it, with `skips` the residual shortcuts
    /// open there (innermost last). A forward pass starts at 0 with no
    /// shortcuts; a bit-search trial resumes at the flipped layer.
    /// `tape` chooses what is kept of each layer.
    pub(crate) fn run(
        &self,
        start: usize,
        x: &Tensor,
        skips: &[Tensor],
        mut tape: Tape<'_>,
    ) -> Result<Tensor, DnnError> {
        let mut act = x.clone();
        let mut skips = skips.to_vec();
        for layer in &self.layers[start..] {
            let cache = match layer {
                Layer::Dense(l) => {
                    let input = act;
                    act = l.forward(&input)?;
                    Cache::Input(input)
                }
                Layer::Conv(c) => {
                    let input = act;
                    act = c.forward(&input)?;
                    Cache::Input(input)
                }
                Layer::Relu => {
                    let (y, mask) = relu_forward(&act);
                    act = y;
                    Cache::Mask(mask)
                }
                Layer::MaxPool(p) => {
                    let (y, switches) = p.forward_max(&act)?;
                    act = y;
                    Cache::Switches(switches)
                }
                Layer::AvgPool(p) => {
                    act = p.forward_avg(&act)?;
                    Cache::None
                }
                Layer::SkipStart => {
                    skips.push(act.clone());
                    Cache::None
                }
                Layer::SkipAdd => {
                    let skip = skips.pop().ok_or(DnnError::UnbalancedSkip)?;
                    act.add_assign(&skip)?;
                    Cache::None
                }
            };
            match &mut tape {
                Tape::Off => {}
                Tape::Backward(caches) => caches.push(cache),
                Tape::Record(caches, open) => {
                    if layer.is_weighted() {
                        open.push(skips.clone());
                    }
                    caches.push(cache);
                }
            }
        }
        if skips.is_empty() {
            Ok(act)
        } else {
            Err(DnnError::UnbalancedSkip)
        }
    }

    /// Forward + backward: the mean softmax cross-entropy loss and one
    /// [`LayerGrads`] per *weighted* layer, in execution order.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] on inconsistent shapes and
    /// [`DnnError::UnbalancedSkip`] for mismatched skip markers.
    pub fn loss_and_grads(
        &self,
        x: &Tensor,
        labels: &[usize],
    ) -> Result<(f32, Vec<LayerGrads>), DnnError> {
        let mut caches = Vec::with_capacity(self.layers.len());
        let logits = self.run(0, x, &[], Tape::Backward(&mut caches))?;
        self.backward(&logits, labels, &caches)
    }

    /// [`Network::loss_and_grads`]'s gradients, plus one [`Resume`]
    /// point per weighted layer, taken from the same forward pass.
    pub(crate) fn grads_and_resumes(
        &self,
        x: &Tensor,
        labels: &[usize],
    ) -> Result<(Vec<LayerGrads>, Vec<Resume>), DnnError> {
        let mut caches = Vec::with_capacity(self.layers.len());
        let mut open = Vec::with_capacity(self.weighted_count());
        let logits = self.run(0, x, &[], Tape::Record(&mut caches, &mut open))?;
        let (_, grads) = self.backward(&logits, labels, &caches)?;
        let inputs = caches.into_iter().enumerate().filter_map(|(position, cache)| match cache {
            Cache::Input(input) => Some((position, input)),
            _ => None,
        });
        let resumes = inputs
            .zip(open)
            .map(|((position, input), skips)| Resume { position, input, skips })
            .collect();
        Ok((grads, resumes))
    }

    /// The loss of `logits` and the backward pass over the `caches` of
    /// the forward pass that produced them.
    fn backward(
        &self,
        logits: &Tensor,
        labels: &[usize],
        caches: &[Cache],
    ) -> Result<(f32, Vec<LayerGrads>), DnnError> {
        let (loss, probs) = softmax_cross_entropy(logits, labels);
        let mut d = cross_entropy_grad(&probs, labels);

        let mut grads_rev: Vec<LayerGrads> = Vec::with_capacity(self.weighted_count());
        let mut skip_grads: Vec<Tensor> = Vec::new();
        for (layer, cache) in self.layers.iter().zip(caches).rev() {
            match (layer, cache) {
                (Layer::Dense(l), Cache::Input(input)) => {
                    let (g, d_x) = l.backward(input, &d)?;
                    grads_rev
                        .push(LayerGrads { weight: g.weight.as_slice().to_vec(), bias: g.bias });
                    d = d_x;
                }
                (Layer::Conv(c), Cache::Input(input)) => {
                    let (g, d_x) = c.backward(input, &d)?;
                    grads_rev
                        .push(LayerGrads { weight: g.weight.as_slice().to_vec(), bias: g.bias });
                    d = d_x;
                }
                (Layer::Relu, Cache::Mask(mask)) => d = relu_backward(&d, mask),
                (Layer::MaxPool(p), Cache::Switches(switches)) => {
                    d = p.backward_max(&d, switches);
                }
                (Layer::AvgPool(p), Cache::None) => d = p.backward_avg(&d)?,
                // Reverse of the forward stack: the add's gradient
                // flows into both the main path and the shortcut.
                (Layer::SkipAdd, Cache::None) => skip_grads.push(d.clone()),
                (Layer::SkipStart, Cache::None) => {
                    let skip = skip_grads.pop().ok_or(DnnError::UnbalancedSkip)?;
                    d.add_assign(&skip)?;
                }
                _ => unreachable!("cache kind always matches its layer"),
            }
        }
        grads_rev.reverse();
        Ok((loss, grads_rev))
    }

    /// One SGD step on a batch; returns the pre-update loss.
    ///
    /// # Errors
    ///
    /// Same as [`Network::loss_and_grads`].
    pub fn train_step(&mut self, x: &Tensor, labels: &[usize], lr: f32) -> Result<f32, DnnError> {
        let (loss, grads) = self.loss_and_grads(x, labels)?;
        let weighted = self.layers.iter_mut().filter(|l| l.is_weighted());
        for (layer, grad) in weighted.zip(&grads) {
            match layer {
                Layer::Dense(l) => {
                    for (w, g) in l.weight_mut().as_mut_slice().iter_mut().zip(&grad.weight) {
                        *w -= lr * g;
                    }
                    for (b, g) in l.bias_mut().iter_mut().zip(&grad.bias) {
                        *b -= lr * g;
                    }
                }
                Layer::Conv(c) => {
                    for (w, g) in c.weight_mut().as_mut_slice().iter_mut().zip(&grad.weight) {
                        *w -= lr * g;
                    }
                    for (b, g) in c.bias_mut().iter_mut().zip(&grad.bias) {
                        *b -= lr * g;
                    }
                }
                _ => unreachable!("filtered to weighted layers"),
            }
        }
        Ok(loss)
    }

    /// Predicted class per input row.
    ///
    /// # Errors
    ///
    /// Same as [`Network::forward`].
    pub fn predict(&self, x: &Tensor) -> Result<Vec<usize>, DnnError> {
        Ok(argmax_rows(&self.forward(x)?))
    }

    /// Classification accuracy on `(x, labels)`.
    ///
    /// # Errors
    ///
    /// Same as [`Network::forward`].
    pub fn accuracy(&self, x: &Tensor, labels: &[usize]) -> Result<f64, DnnError> {
        let predictions = self.predict(x)?;
        let correct = predictions.iter().zip(labels).filter(|(p, l)| p == l).count();
        Ok(correct as f64 / labels.len().max(1) as f64)
    }
}

impl From<&Mlp> for Network {
    /// Every MLP is a network: Dense layers with ReLU between.
    fn from(mlp: &Mlp) -> Self {
        let mut layers = Vec::with_capacity(mlp.num_layers() * 2 - 1);
        for (index, linear) in mlp.layers().iter().enumerate() {
            if index > 0 {
                layers.push(Layer::Relu);
            }
            layers.push(Layer::Dense(linear.clone()));
        }
        Self { layers }
    }
}

impl From<&Network> for Network {
    fn from(net: &Network) -> Self {
        net.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::ConvSpec;

    /// A small CNN with one identity-skip residual block.
    fn tiny_residual_cnn(seed: u64) -> Network {
        let spec =
            |in_c, out_c| ConvSpec { in_c, in_h: 4, in_w: 4, out_c, k: 3, stride: 1, pad: 1 };
        Network::new(vec![
            Layer::Conv(Conv2d::new(spec(1, 3), seed)),
            Layer::Relu,
            Layer::SkipStart,
            Layer::Conv(Conv2d::new(spec(3, 3), seed + 1)),
            Layer::Relu,
            Layer::Conv(Conv2d::new(spec(3, 3), seed + 2)),
            Layer::SkipAdd,
            Layer::Relu,
            Layer::MaxPool(Pool2d::halve(3, 4, 4)),
            Layer::Dense(Linear::new(3 * 2 * 2, 2, seed + 3)),
        ])
    }

    #[test]
    fn network_subsumes_mlp_exactly() {
        let mlp = Mlp::new(&[5, 9, 4, 3], 3);
        let net = Network::from(&mlp);
        let x = Tensor::randn(6, 5, 4);
        let labels = vec![0, 1, 2, 0, 1, 2];
        assert_eq!(net.forward(&x).unwrap(), mlp.forward(&x).unwrap());
        assert_eq!(net.total_weights(), mlp.total_weights());
        assert_eq!(net.in_features(), mlp.in_features());
        assert_eq!(net.num_classes(), mlp.num_classes());
        // Gradients agree layer for layer.
        let (net_loss, net_grads) = net.loss_and_grads(&x, &labels).unwrap();
        let (mlp_loss, mlp_grads) = mlp.loss_and_grads(&x, &labels).unwrap();
        assert_eq!(net_loss, mlp_loss);
        assert_eq!(net_grads.len(), mlp_grads.len());
        for (ng, mg) in net_grads.iter().zip(&mlp_grads) {
            assert_eq!(ng.weight, mg.weight.as_slice());
            assert_eq!(ng.bias, mg.bias);
        }
        // And the round trip back to an Mlp is lossless.
        assert_eq!(net.as_mlp().unwrap(), mlp);
    }

    #[test]
    fn as_mlp_rejects_non_mlp_plans() {
        assert!(tiny_residual_cnn(1).as_mlp().is_none());
        assert!(Network::new(vec![Layer::Relu]).as_mlp().is_none());
        let trailing_relu = Network::mlp(&[3, 2], 0).push(Layer::Relu);
        assert!(trailing_relu.as_mlp().is_none());
    }

    #[test]
    fn residual_forward_adds_the_shortcut() {
        // Zero conv block: SkipAdd must reproduce the input exactly.
        let spec = ConvSpec { in_c: 1, in_h: 2, in_w: 2, out_c: 1, k: 3, stride: 1, pad: 1 };
        let zero = Conv2d::from_parts(Tensor::zeros(1, 9), vec![0.0], spec);
        let net = Network::new(vec![Layer::SkipStart, Layer::Conv(zero), Layer::SkipAdd]);
        let x = Tensor::randn(3, 4, 8);
        assert_eq!(net.forward(&x).unwrap(), x);
    }

    #[test]
    fn unbalanced_skips_are_rejected() {
        let x = Tensor::zeros(1, 4);
        let dangling = Network::new(vec![Layer::SkipStart]);
        assert!(matches!(dangling.forward(&x), Err(DnnError::UnbalancedSkip)));
        let orphan = Network::new(vec![Layer::SkipAdd]);
        assert!(matches!(orphan.forward(&x), Err(DnnError::UnbalancedSkip)));
        let orphan = Network::new(vec![Layer::SkipAdd]);
        assert!(matches!(orphan.loss_and_grads(&x, &[0]), Err(DnnError::UnbalancedSkip)));
    }

    #[test]
    fn cnn_gradient_check_through_residual_and_pool() {
        let net = tiny_residual_cnn(17);
        let x = Tensor::randn(3, 16, 18);
        let labels = vec![0, 1, 0];
        let (_, grads) = net.loss_and_grads(&x, &labels).unwrap();
        assert_eq!(grads.len(), net.weighted_count());
        let eps = 1e-2f32;
        // One weight in every weighted layer, including both residual
        // convs (whose gradient flows through the skip add).
        for (weighted_index, check_index) in [(0usize, 2usize), (1, 5), (2, 0), (3, 3)] {
            let mut probe = net.clone();
            let loss_at = |probe: &Network| {
                let logits = probe.forward(&x).unwrap();
                softmax_cross_entropy(&logits, &labels).0
            };
            let layer_pos = probe
                .layers()
                .iter()
                .enumerate()
                .filter(|(_, l)| l.is_weighted())
                .map(|(i, _)| i)
                .nth(weighted_index)
                .unwrap();
            let orig = probe.layers()[layer_pos].weight().unwrap().as_slice()[check_index];
            let slice = probe.layers_mut()[layer_pos].weight_mut().unwrap().as_mut_slice();
            slice[check_index] = orig + eps;
            let up = loss_at(&probe);
            probe.layers_mut()[layer_pos].weight_mut().unwrap().as_mut_slice()[check_index] =
                orig - eps;
            let down = loss_at(&probe);
            let numeric = (up - down) / (2.0 * eps);
            let analytic = grads[weighted_index].weight[check_index];
            assert!(
                (numeric - analytic).abs() < 3e-2 * analytic.abs().max(1.0),
                "weighted layer {weighted_index}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn cnn_trains_on_separable_images() {
        let mut net = tiny_residual_cnn(5);
        // Two classes: bright top half vs bright bottom half.
        let mut xs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..24 {
            let class = i % 2;
            let mut image = vec![0.1 * (i % 5) as f32; 16];
            for p in 0..8 {
                image[if class == 0 { p } else { 8 + p }] += 2.0;
            }
            xs.extend(image);
            labels.push(class);
        }
        let x = Tensor::from_vec(24, 16, xs);
        let first = net.train_step(&x, &labels, 0.05).unwrap();
        let mut last = first;
        for _ in 0..60 {
            last = net.train_step(&x, &labels, 0.05).unwrap();
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
        assert!(net.accuracy(&x, &labels).unwrap() > 0.9);
    }

    #[test]
    fn weighted_layers_skip_structure_markers() {
        let net = tiny_residual_cnn(2);
        assert_eq!(net.layers().len(), 10);
        assert_eq!(net.weighted_count(), 4);
        assert_eq!(net.weighted_layers().len(), 4);
        assert!(net.total_weights() > 0);
    }
}
