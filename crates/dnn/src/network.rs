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
//! Every batch pass cuts its rows into `W` contiguous blocks and deals
//! them over the process's worker [`pool`]: the caller and up to
//! `W − 1` pool helpers each take the next block no worker has taken.
//! `W` is the least of the pool's threads, the row count and the
//! batch's forward multiply-accumulates over `MIN_MACS_PER_WORKER`,
//! and at least 1; the same rule deals [`TrialRecord`] trials. A pass
//! made inside another pool job, such as a sweep job's, runs on its
//! own thread. A forward pass runs each block alone and stacks the
//! logits. A gradient pass runs each block's forward and input-gradient
//! chain alone, takes the loss on the stacked logits, and then has one
//! worker sum each weighted layer's weight and bias gradients over
//! every block's rows in order, the layers dealt like the blocks.
//!
//! No bit depends on `W`. Every value a block computes (activations,
//! masks, pool switches, input gradients) belongs to one row and is
//! computed from that row alone, by the same kernels in the same order
//! as in a whole-batch pass: a GEMM sums each output over `k` in
//! ascending order whatever its width. The only sums across rows, the
//! loss and the weight and bias gradients, each run on one worker over
//! the rows in order. A one-worker pass cuts and stacks nothing.
//!
//! [`TrialRecord`]: crate::quant::TrialRecord
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

use std::borrow::Cow;

use dlk_memctrl::pool;

use crate::conv::{Conv2d, Pool2d};
use crate::error::DnnError;
use crate::layers::{cross_entropy_grad, relu_backward, relu_mask, softmax_cross_entropy, Linear};
use crate::tensor::Tensor;

/// One step of a [`Network`]'s execution plan.
#[derive(Debug, Clone, PartialEq)]
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

    /// Multiply-accumulates per batch row: a dense layer's weights
    /// once, a conv's kernel matrix once per output position. Structure
    /// layers count none.
    pub(crate) fn macs_per_row(&self) -> u64 {
        let positions = match self {
            Layer::Conv(c) => c.spec().out_h() * c.spec().out_w(),
            _ => 1,
        };
        (self.num_weights() * positions) as u64
    }

    /// A weighted layer's weight and bias gradients over the batch
    /// whose row blocks `parts` holds (see [`stacked`]); any other
    /// layer, at plan `position`, has none.
    fn weight_grads(
        &self,
        parts: &[(&Tensor, &Tensor)],
        position: usize,
    ) -> Result<LayerGrads, DnnError> {
        match self {
            Layer::Dense(l) => l.weight_grads(parts),
            Layer::Conv(c) => c.weight_grads(parts),
            _ => Err(DnnError::TapeMismatch { position }),
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
#[derive(Debug, Clone, PartialEq)]
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

impl Cache {
    /// A weighted layer's input, moved out.
    fn into_input(self) -> Option<Tensor> {
        match self {
            Cache::Input(input) => Some(input),
            _ => None,
        }
    }
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

    /// Forward pass to logits, split into row blocks as the module
    /// documentation describes.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] on wrong input width and
    /// [`DnnError::UnbalancedSkip`] for mismatched skip markers.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor, DnnError> {
        self.forward_on(x, self.batch_workers(x.rows()))
    }

    /// [`Network::forward`] over `workers` row blocks (at least 1; a
    /// block may be empty).
    fn forward_on(&self, x: &Tensor, workers: usize) -> Result<Tensor, DnnError> {
        let blocks = pool::deal(
            row_blocks(x, workers),
            workers,
            || (),
            |(), block| self.run(0, block, &[], Tape::Off),
        );
        match blocks.into_iter().collect() {
            Ok(blocks) => Ok(joined(blocks)),
            // A block's error names the block's shape: report the batch's.
            Err(_) if workers > 1 => self.forward_on(x, 1),
            Err(err) => Err(err),
        }
    }

    /// Workers for a pass over `rows` batch rows: [`workers`] of the
    /// rows and their forward multiply-accumulates.
    fn batch_workers(&self, rows: usize) -> usize {
        let per_row: u64 = self.layers.iter().map(Layer::macs_per_row).sum();
        workers(rows, per_row.saturating_mul(rows as u64))
    }

    /// The one executor: runs the plan from position `start` on `x`,
    /// the activation entering it, with `skips` the residual shortcuts
    /// open there (innermost last). A forward pass starts at 0 with no
    /// shortcuts; a bit-search trial resumes at the flipped layer.
    /// `tape` chooses what is kept of each layer.
    pub(crate) fn run(
        &self,
        start: usize,
        x: Tensor,
        skips: &[Tensor],
        mut tape: Tape<'_>,
    ) -> Result<Tensor, DnnError> {
        let mut act = x;
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
    /// [`LayerGrads`] per *weighted* layer, in execution order, split
    /// into row blocks as the module documentation describes.
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
        let (loss, grads, _) = self.gradients(x, labels, self.batch_workers(x.rows()), false)?;
        Ok((loss, grads))
    }

    /// [`Network::loss_and_grads`]'s gradients, plus one [`Resume`]
    /// point per weighted layer, taken from the same forward pass.
    pub(crate) fn grads_and_resumes(
        &self,
        x: &Tensor,
        labels: &[usize],
    ) -> Result<(Vec<LayerGrads>, Vec<Resume>), DnnError> {
        let (_, grads, resumes) = self.gradients(x, labels, self.batch_workers(x.rows()), true)?;
        Ok((grads, resumes))
    }

    /// The gradient pass over `workers` row blocks (at least 1; a block
    /// may be empty): the loss, the gradients and, if `record`, the
    /// resume points.
    fn gradients(
        &self,
        x: &Tensor,
        labels: &[usize],
        workers: usize,
        record: bool,
    ) -> Result<(f32, Vec<LayerGrads>, Vec<Resume>), DnnError> {
        match self.gradients_on(x, labels, workers, record) {
            // A block's error names the block's shape: report the batch's.
            Err(_) if workers > 1 => self.gradients_on(x, labels, 1, record),
            result => result,
        }
    }

    /// [`Network::gradients`] without its error rule.
    fn gradients_on(
        &self,
        x: &Tensor,
        labels: &[usize],
        workers: usize,
        record: bool,
    ) -> Result<(f32, Vec<LayerGrads>, Vec<Resume>), DnnError> {
        // Each block's forward, keeping what its backward needs.
        let forwards = pool::deal(
            row_blocks(x, workers),
            workers,
            || (),
            |(), block| {
                let mut caches = Vec::with_capacity(self.layers.len());
                let mut open = Vec::new();
                let tape = if record {
                    Tape::Record(&mut caches, &mut open)
                } else {
                    Tape::Backward(&mut caches)
                };
                let logits = self.run(0, block, &[], tape)?;
                Ok::<_, DnnError>((logits, caches, open))
            },
        );
        let (mut logits, mut tapes) = (Vec::with_capacity(workers), Vec::with_capacity(workers));
        for forward in forwards {
            let (block_logits, caches, open) = forward?;
            logits.push(block_logits);
            tapes.push((caches, open));
        }
        // The loss of the whole batch, then each block's input-gradient
        // chain from its rows of the loss gradient.
        let (loss, probs) = softmax_cross_entropy(&joined(logits), labels);
        let d = cross_entropy_grad(&probs, labels);
        let d = if workers == 1 { vec![d] } else { row_blocks(&d, workers) };
        let chains = d.into_iter().zip(&tapes).collect();
        let d_outs = pool::deal(
            chains,
            workers,
            || (),
            |(), (d, (caches, _))| self.backward_data(d, caches),
        );
        let d_outs = d_outs.into_iter().collect::<Result<Vec<_>, _>>()?;
        // Each weighted layer's gradients on one worker, over every
        // block's rows in order.
        let weighted: Vec<_> =
            self.layers.iter().enumerate().filter(|(_, l)| l.is_weighted()).enumerate().collect();
        let grads = pool::deal(
            weighted.iter().collect(),
            workers,
            || (),
            |(), &(i, (position, layer))| {
                let mut parts = Vec::with_capacity(tapes.len());
                for ((caches, _), block_d_outs) in tapes.iter().zip(&d_outs) {
                    match (caches.get(position), block_d_outs.get(i)) {
                        (Some(Cache::Input(input)), Some(d_out)) => parts.push((input, d_out)),
                        _ => return Err(DnnError::TapeMismatch { position }),
                    }
                }
                layer.weight_grads(&parts, position)
            },
        );
        let grads = grads.into_iter().collect::<Result<Vec<_>, _>>()?;
        let resumes = if record { Self::resumes(&weighted, tapes) } else { Vec::new() };
        Ok((loss, grads, resumes))
    }

    /// One block's input-gradient chain: walks the plan backwards over
    /// the block's forward `caches` from `d`, the loss gradient of its
    /// logits, and returns the gradient of each weighted layer's output,
    /// in execution order. The plan's first layer passes its input
    /// gradient to nothing, so it computes none.
    fn backward_data(&self, mut d: Tensor, caches: &[Cache]) -> Result<Vec<Tensor>, DnnError> {
        let mut d_outs = Vec::with_capacity(self.weighted_count());
        let mut skip_grads: Vec<Tensor> = Vec::new();
        for (position, (layer, cache)) in self.layers.iter().zip(caches).enumerate().rev() {
            match (layer, cache) {
                (Layer::Dense(_) | Layer::Conv(_), Cache::Input(_)) if position == 0 => {
                    d_outs.push(d);
                    break;
                }
                (Layer::Dense(l), Cache::Input(_)) => {
                    let d_x = l.backward_data(&d)?;
                    d_outs.push(std::mem::replace(&mut d, d_x));
                }
                (Layer::Conv(c), Cache::Input(_)) => {
                    let d_x = c.backward_data(&d)?;
                    d_outs.push(std::mem::replace(&mut d, d_x));
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
        d_outs.reverse();
        Ok(d_outs)
    }

    /// The resume points of a recorded gradient pass: each weighted
    /// layer's input and open shortcuts, stacked from the blocks'
    /// `tapes` (moved, for one block).
    fn resumes(
        weighted: &[(usize, (usize, &Layer))],
        tapes: Vec<(Vec<Cache>, Vec<Vec<Tensor>>)>,
    ) -> Vec<Resume> {
        let (mut inputs, mut open) = (Vec::new(), Vec::new());
        for (caches, block_open) in tapes {
            inputs.push(caches.into_iter().filter_map(Cache::into_input).collect());
            open.push(block_open);
        }
        let inputs = regroup(inputs).into_iter().map(joined);
        let open = regroup(open).into_iter().map(|skips| regroup(skips).into_iter().map(joined));
        let positions = weighted.iter().map(|&(_, (position, _))| position);
        positions
            .zip(inputs.zip(open))
            .map(|(position, (input, skips))| Resume { position, input, skips: skips.collect() })
            .collect()
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

/// Below this many multiply-accumulates (MACs) of forward work per
/// worker, [`workers`] adds no further worker. A dispatch wakes a pool
/// helper rather than spawning a thread, so the share that pays for a
/// helper is small. On a 2-vCPU x86-64 host, two workers against one,
/// with the helper awake: the Tiny CNN's 16- to 48-row passes (0.30–0.90
/// M MACs) ran 1.22–1.81x faster forward and 1.48–1.88x with gradients,
/// and the ResNet-20 CNN's 3-row pass (0.53 M) 1.11–1.12x and
/// 1.22–1.23x; its 2-row pass (0.35 M, ~177 k per worker) tied forward
/// (0.97–1.00x). 2^18 (~262 k) keeps that margin over the tie for passes
/// that find the helper parked. Over 32 rows, the Tiny MLP's batch
/// passes and bit-search trials (~9 k and ~61 k MACs) stay on the
/// caller's thread; the Tiny CNN's and the ResNet-20 CNN's batch passes
/// (~0.6 M and ~5.7 M) and trials (~4.6 M and ~117 M) are split.
pub(crate) const MIN_MACS_PER_WORKER: u64 = 1 << 18;

/// Workers for `items` independent pieces of work (batch rows or
/// bit-search trials) that together run `macs` multiply-accumulates:
/// the least of the pool's [`threads`](pool::threads), `items` and
/// `macs / MIN_MACS_PER_WORKER`, and at least 1.
pub(crate) fn workers(items: usize, macs: u64) -> usize {
    let by_work = usize::try_from(macs / MIN_MACS_PER_WORKER).unwrap_or(usize::MAX);
    match items.min(by_work) {
        0 | 1 => 1,
        wanted => wanted.min(pool::threads()),
    }
}

/// `x`'s rows cut into `workers` contiguous blocks, as even as whole
/// rows allow.
fn row_blocks(x: &Tensor, workers: usize) -> Vec<Tensor> {
    let rows = x.rows();
    (0..workers).map(|w| x.row_block(rows * w / workers..rows * (w + 1) / workers)).collect()
}

/// Row blocks stacked back into their batch; one block is moved.
fn joined(blocks: Vec<Tensor>) -> Tensor {
    match <[Tensor; 1]>::try_from(blocks) {
        Ok([only]) => only,
        Err(blocks) => Tensor::stack(&blocks.iter().collect::<Vec<_>>()),
    }
}

/// `lists[b][k]` regrouped as `[k][b]`: one list per row block becomes
/// one list per item, each in block order.
fn regroup<T>(lists: Vec<Vec<T>>) -> Vec<Vec<T>> {
    let mut lists: Vec<_> = lists.into_iter().map(Vec::into_iter).collect();
    let len = lists.first().map_or(0, ExactSizeIterator::len);
    (0..len).map(|_| lists.iter_mut().filter_map(Iterator::next).collect()).collect()
}

/// The `(x, d_out)` batch that row blocks `parts` make up, in row
/// order: one block borrowed as it is, or every block stacked.
pub(crate) fn stacked<'a>(
    parts: &[(&'a Tensor, &'a Tensor)],
) -> (Cow<'a, Tensor>, Cow<'a, Tensor>) {
    match parts {
        [(x, d_out)] => (Cow::Borrowed(*x), Cow::Borrowed(*d_out)),
        _ => {
            let xs: Vec<_> = parts.iter().map(|&(x, _)| x).collect();
            let d_outs: Vec<_> = parts.iter().map(|&(_, d_out)| d_out).collect();
            (Cow::Owned(Tensor::stack(&xs)), Cow::Owned(Tensor::stack(&d_outs)))
        }
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
        let caches = [Cache::None, Cache::Mask(vec![true; 2])];
        let err = net.backward_data(Tensor::zeros(1, 2), &caches).unwrap_err();
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

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn grad_bits(grads: &[LayerGrads]) -> Vec<[Vec<u32>; 2]> {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect();
        grads.iter().map(|g| [bits(&g.weight), bits(&g.bias)]).collect()
    }

    fn resume_bits(resumes: &[Resume]) -> Vec<(usize, Vec<u32>, Vec<Vec<u32>>)> {
        let skips = |r: &Resume| r.skips.iter().map(bits).collect();
        resumes.iter().map(|r| (r.position, bits(&r.input), skips(r))).collect()
    }

    /// Every forced worker count gives the one-worker pass's logits,
    /// loss, gradients and resume points, bit for bit: on the Tiny MLP,
    /// the Tiny CNN and the ResNet-20 CNN (whose resume points hold open
    /// shortcuts), over 7 and 33 rows, and with more workers than rows.
    /// A pass that summed each block's weight gradient and then added
    /// the blocks would round differently and fail here.
    #[test]
    fn every_worker_count_gives_the_one_worker_bits() {
        use crate::models;

        // (network, resume points with open residual shortcuts)
        let cases =
            [(models::tiny_mlp(1), 0), (models::tiny_cnn(2), 4), (models::resnet20_cnn(3), 18)];
        for (seed, (network, open_skips)) in (1u64..).zip(cases) {
            for rows in [7, 33] {
                let mut x = Tensor::randn(rows, network.in_features(), seed + rows as u64);
                x.relu_inplace();
                let labels: Vec<usize> = (0..rows).map(|i| i * 7 % network.num_classes()).collect();
                let logits = bits(&network.forward_on(&x, 1).unwrap());
                let (loss, grads, resumes) = network.gradients(&x, &labels, 1, true).unwrap();
                let (grads, resumes) = (grad_bits(&grads), resume_bits(&resumes));
                assert_eq!(resumes.len(), network.weighted_count());
                let open = resumes.iter().filter(|(_, _, skips)| !skips.is_empty()).count();
                assert_eq!(open, open_skips);
                let counts: &[usize] = if rows == 7 { &[1, 2, 3, 4, 8] } else { &[1, 2, 3, 4] };
                for &workers in counts {
                    let what = format!("seed {seed}, {rows} rows, {workers} workers");
                    assert_eq!(bits(&network.forward_on(&x, workers).unwrap()), logits, "{what}");
                    for record in [true, false] {
                        let (l, g, r) = network.gradients(&x, &labels, workers, record).unwrap();
                        assert_eq!(l.to_bits(), loss.to_bits(), "loss, {what}");
                        assert_eq!(grad_bits(&g), grads, "gradients, {what}");
                        let want = if record { resumes.clone() } else { Vec::new() };
                        assert_eq!(resume_bits(&r), want, "resume points, {what}");
                    }
                }
            }
        }
    }

    /// A split pass reports an error as the one-worker pass does, with
    /// the whole batch's shape rather than a block's.
    #[test]
    fn a_split_pass_reports_the_whole_batch_error() {
        let network = crate::models::resnet20_cnn(1);
        let x = Tensor::zeros(9, network.in_features() + 1);
        let labels = [0; 9];
        let want = network.forward_on(&x, 1).unwrap_err();
        assert!(matches!(want, DnnError::ShapeMismatch { lhs: (9, _), .. }), "{want:?}");
        for workers in [2, 4] {
            assert_eq!(network.forward_on(&x, workers).unwrap_err(), want);
            assert_eq!(network.gradients(&x, &labels, workers, true).unwrap_err(), want);
        }
    }

    /// Batch passes split only where two workers' shares of
    /// `MIN_MACS_PER_WORKER` fit: over 32 rows, not the Tiny MLP, but
    /// the Tiny CNN and the ResNet-20 CNN.
    #[test]
    fn only_wide_batches_are_split() {
        use crate::models;

        let cores = pool::threads();
        assert_eq!(models::tiny_mlp(1).batch_workers(32), 1);
        let tiny = models::tiny_cnn(1);
        let per_row: u64 = tiny.layers().iter().map(Layer::macs_per_row).sum();
        assert_eq!(per_row, 18_684);
        assert_eq!(tiny.batch_workers(32), 2.min(cores));
        // 16 rows (~0.30 M MACs) are one worker's share.
        assert_eq!(tiny.batch_workers(16), 1);
        let cnn = models::resnet20_cnn(1);
        let per_row: u64 = cnn.layers().iter().map(Layer::macs_per_row).sum();
        assert_eq!(per_row, 176_736);
        assert_eq!(cnn.batch_workers(32), 2.min(cores));
        assert_eq!(cnn.batch_workers(1), 1);
        assert_eq!(cnn.batch_workers(0), 1);
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
