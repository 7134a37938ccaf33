//! The one model type: a sequential network over a flat [`Layer`]
//! list — dense layers, convolutions, pooling and residual skips.
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
//! use dlk_dnn::Tensor;
//!
//! // An MLP is Dense layers with ReLU between.
//! let net = Network::mlp(&[4, 8, 2], 7);
//! assert!(matches!(net.layers(), [Layer::Dense(_), Layer::Relu, Layer::Dense(_)]));
//! let x = Tensor::randn(3, 4, 9);
//! assert_eq!(net.forward(&x).unwrap().shape(), (3, 2));
//! assert_eq!(net.weighted_count(), 2);
//! ```

use serde::{Deserialize, Serialize};

use crate::conv::{Conv2d, Pool2d};
use crate::error::DnnError;
use crate::layers::{cross_entropy_grad, relu_backward, relu_mask, softmax_cross_entropy, Linear};
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

    /// The weight matrix and bias together, for weighted layers.
    fn params_mut(&mut self) -> Option<(&mut Tensor, &mut [f32])> {
        match self {
            Layer::Dense(l) => Some(l.params_mut()),
            Layer::Conv(c) => Some(c.params_mut()),
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

    /// Builds the MLP topology `sizes`, e.g. `&[in, h1, out]`: Dense
    /// layers with ReLU between, dense layer `i` seeded `seed + i`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn mlp(sizes: &[usize], seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let mut layers = Vec::with_capacity(2 * sizes.len() - 3);
        for (i, w) in sizes.windows(2).enumerate() {
            if i > 0 {
                layers.push(Layer::Relu);
            }
            layers.push(Layer::Dense(Linear::new(w[0], w[1], seed.wrapping_add(i as u64))));
        }
        Self { layers }
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
                    // Inference drops the mask, so only a tape builds it.
                    let cache = match tape {
                        Tape::Off => Cache::None,
                        Tape::Backward(_) | Tape::Record(..) => Cache::Mask(relu_mask(&act)),
                    };
                    act.relu_inplace();
                    cache
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
        for (position, (layer, cache)) in self.layers.iter().zip(caches).enumerate().rev() {
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
                _ => return Err(DnnError::TapeMismatch { position }),
            }
        }
        grads_rev.reverse();
        Ok((loss, grads_rev))
    }

    /// One SGD update, `p -= lr * grad`, of every weighted layer's
    /// weights and bias from `grads` in [`Network::loss_and_grads`]
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] (weighted layers, weights)
    /// and changes nothing unless `grads` holds one gradient of the
    /// layer's size per weighted layer.
    pub fn apply_grads(&mut self, grads: &[LayerGrads], lr: f32) -> Result<(), DnnError> {
        let mismatch = DnnError::ShapeMismatch {
            op: "apply_grads",
            lhs: (self.weighted_count(), self.total_weights()),
            rhs: (grads.len(), grads.iter().map(|g| g.weight.len()).sum()),
        };
        let params: Vec<_> = self.layers.iter_mut().filter_map(Layer::params_mut).collect();
        let fits = params.len() == grads.len()
            && params
                .iter()
                .zip(grads)
                .all(|((w, b), g)| w.len() == g.weight.len() && b.len() == g.bias.len());
        if !fits {
            return Err(mismatch);
        }
        for ((weight, bias), grad) in params.into_iter().zip(grads) {
            for (w, g) in weight.as_mut_slice().iter_mut().zip(&grad.weight) {
                *w -= lr * g;
            }
            for (b, g) in bias.iter_mut().zip(&grad.bias) {
                *b -= lr * g;
            }
        }
        Ok(())
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

/// Row-wise argmax; ties go to the lowest index.
pub fn argmax_rows(logits: &Tensor) -> Vec<usize> {
    (0..logits.rows())
        .map(|row| {
            let mut best = 0;
            let mut best_value = f32::NEG_INFINITY;
            for (index, &value) in logits.row(row).iter().enumerate() {
                if value > best_value {
                    best_value = value;
                    best = index;
                }
            }
            best
        })
        .collect()
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

    /// One SGD step on a batch; returns the pre-update loss.
    fn train_step(net: &mut Network, x: &Tensor, labels: &[usize], lr: f32) -> f32 {
        let (loss, grads) = net.loss_and_grads(x, labels).unwrap();
        net.apply_grads(&grads, lr).unwrap();
        loss
    }

    #[test]
    fn mlp_shape_and_sizes() {
        let net = Network::mlp(&[4, 8, 3], 1);
        assert_eq!(net.layers().len(), 3);
        assert_eq!(net.forward(&Tensor::zeros(5, 4)).unwrap().shape(), (5, 3));
        assert_eq!(net.num_classes(), 3);
        assert_eq!(net.in_features(), 4);
        assert_eq!(net.total_weights(), 4 * 8 + 8 * 3);
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn mlp_needs_two_sizes() {
        let _ = Network::mlp(&[4], 0);
    }

    #[test]
    fn mlp_gradient_check_in_every_layer() {
        let net = Network::mlp(&[3, 5, 4, 2], 33);
        let x = Tensor::randn(4, 3, 34);
        let labels = vec![0, 1, 0, 1];
        let (_, grads) = net.loss_and_grads(&x, &labels).unwrap();
        assert_eq!(grads.len(), 3);
        let loss_at =
            |probe: &Network| softmax_cross_entropy(&probe.forward(&x).unwrap(), &labels).0;
        let mut probe = net.clone();
        let eps = 1e-3f32;
        // Weight (0, 0) of each dense layer, at plan positions 0, 2, 4.
        for (layer_grads, position) in grads.iter().zip([0, 2, 4]) {
            let orig = probe.layers()[position].weight().unwrap().get(0, 0);
            probe.layers_mut()[position].weight_mut().unwrap().set(0, 0, orig + eps);
            let up = loss_at(&probe);
            probe.layers_mut()[position].weight_mut().unwrap().set(0, 0, orig - eps);
            let down = loss_at(&probe);
            probe.layers_mut()[position].weight_mut().unwrap().set(0, 0, orig);
            let numeric = (up - down) / (2.0 * eps);
            let analytic = layer_grads.weight[0];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "position {position}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn apply_grads_moves_against_the_gradient() {
        let dense = Linear::from_parts(Tensor::zeros(1, 1), vec![0.0]);
        let mut net = Network::new(vec![Layer::Relu, Layer::Dense(dense)]);
        let grads = [LayerGrads { weight: vec![2.0], bias: vec![1.0] }];
        net.apply_grads(&grads, 0.5).unwrap();
        let Layer::Dense(dense) = &net.layers()[1] else { panic!("dense layer moved") };
        assert_eq!(dense.weight().get(0, 0), -1.0);
        assert_eq!(dense.bias()[0], -0.5);
    }

    #[test]
    fn apply_grads_rejects_mis_sized_grads_and_changes_nothing() {
        let mut net = Network::mlp(&[2, 3, 2], 4);
        let before = net.clone();
        let grads = vec![LayerGrads { weight: vec![1.0; 6], bias: vec![1.0; 3] }];
        assert!(matches!(net.apply_grads(&grads, 0.1), Err(DnnError::ShapeMismatch { .. })));
        let short = [grads[0].clone(), LayerGrads { weight: vec![1.0; 5], bias: vec![1.0; 2] }];
        assert!(matches!(net.apply_grads(&short, 0.1), Err(DnnError::ShapeMismatch { .. })));
        assert_eq!(net, before);
    }

    #[test]
    fn argmax_breaks_ties_low_index() {
        let logits = Tensor::from_rows(&[&[1.0, 1.0, 0.0]]);
        assert_eq!(argmax_rows(&logits), vec![0]);
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
    fn backward_rejects_a_cache_of_the_wrong_kind() {
        let net = Network::new(vec![Layer::Relu, Layer::Relu]);
        let logits = Tensor::zeros(1, 2);
        let caches = [Cache::None, Cache::Mask(vec![true; 2])];
        let err = net.backward(&logits, &[0], &caches).unwrap_err();
        assert_eq!(err, DnnError::TapeMismatch { position: 0 });
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
        let first = train_step(&mut net, &x, &labels, 0.05);
        let mut last = first;
        for _ in 0..60 {
            last = train_step(&mut net, &x, &labels, 0.05);
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
