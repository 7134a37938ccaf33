//! Symmetric 8-bit quantization and the quantized inference network.
//!
//! Weights are quantized per layer: `scale = max|w| / 127`,
//! `q = round(w / scale)` clamped to `[-127, 127]`, stored as `i8` in
//! two's complement. A bit flip in the stored byte therefore changes
//! the effective weight by `±2^bit · scale` for magnitude bits — and
//! flips of bit 7 (the sign bit in two's complement) swing the weight
//! by up to `128·scale`, which is why BFA overwhelmingly targets MSBs.
//!
//! The quantized network mirrors the float [`Network`]: a flat
//! [`QuantLayer`] plan whose weighted entries (dense matrices and conv
//! kernel matrices) are the attack surface. [`BitIndex::layer`]
//! indexes the *weighted* layers in execution order, so an MLP's
//! indices are unchanged from the original all-dense substrate and a
//! CNN's conv kernels are addressed the same way.

use serde::{Deserialize, Serialize};

use crate::conv::{Conv2d, ConvSpec, Pool2d};
use crate::error::DnnError;
use crate::layers::{softmax_cross_entropy, Linear};
use crate::model::{argmax_rows, Mlp};
use crate::network::{Layer, LayerGrads, Network, Resume, Tape};
use crate::tensor::Tensor;

/// Identifies one bit of one quantized weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BitIndex {
    /// Index among the network's *weighted* layers (dense + conv), in
    /// execution order.
    pub layer: usize,
    /// Flat weight index within the layer's kernel/weight matrix.
    pub weight: usize,
    /// Bit position (0 = LSB, 7 = sign bit).
    pub bit: u8,
}

/// A quantized fully-connected layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantLinear {
    qweight: Vec<i8>,
    out_features: usize,
    in_features: usize,
    scale: f32,
    bias: Vec<f32>,
}

impl QuantLinear {
    /// Quantizes a float layer.
    pub fn quantize(layer: &Linear) -> Self {
        let abs_max = layer.weight().abs_max();
        let scale = if abs_max == 0.0 { 1.0 } else { abs_max / 127.0 };
        let qweight = layer
            .weight()
            .as_slice()
            .iter()
            .map(|&w| (w / scale).round().clamp(-127.0, 127.0) as i8)
            .collect();
        Self {
            qweight,
            out_features: layer.out_features(),
            in_features: layer.in_features(),
            scale,
            bias: layer.bias().to_vec(),
        }
    }

    /// Quantization scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Number of weights.
    pub fn num_weights(&self) -> usize {
        self.qweight.len()
    }

    /// Output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// The quantized weights.
    pub fn qweights(&self) -> &[i8] {
        &self.qweight
    }

    /// Raw weight byte (two's complement) at `index`.
    pub fn weight_byte(&self, index: usize) -> Option<u8> {
        self.qweight.get(index).map(|&q| q as u8)
    }

    /// Overwrites the raw weight byte at `index`.
    pub fn set_weight_byte(&mut self, index: usize, byte: u8) -> bool {
        if let Some(slot) = self.qweight.get_mut(index) {
            *slot = byte as i8;
            true
        } else {
            false
        }
    }

    /// Dequantizes to a float layer.
    pub fn dequantize(&self) -> Linear {
        let weight = Tensor::from_vec(
            self.out_features,
            self.in_features,
            self.qweight.iter().map(|&q| q as f32 * self.scale).collect(),
        );
        Linear::from_parts(weight, self.bias.clone())
    }

    /// Forward pass using dequantized weights.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] on wrong input width.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor, DnnError> {
        self.dequantize().forward(x)
    }
}

/// A quantized 2-D convolution: the im2col kernel matrix quantized
/// exactly like a dense layer, plus the spatial spec to execute it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantConv2d {
    matrix: QuantLinear,
    spec: ConvSpec,
}

impl QuantConv2d {
    /// Quantizes a float convolution.
    pub fn quantize(conv: &Conv2d) -> Self {
        let as_linear = Linear::from_parts(conv.weight().clone(), conv.bias().to_vec());
        Self { matrix: QuantLinear::quantize(&as_linear), spec: *conv.spec() }
    }

    /// The spatial specification.
    pub fn spec(&self) -> &ConvSpec {
        &self.spec
    }

    /// The quantized kernel matrix `(out_c, in_c·k·k)`.
    pub fn matrix(&self) -> &QuantLinear {
        &self.matrix
    }

    /// Mutable quantized kernel matrix.
    pub fn matrix_mut(&mut self) -> &mut QuantLinear {
        &mut self.matrix
    }

    /// Dequantizes to a float convolution.
    pub fn dequantize(&self) -> Conv2d {
        let linear = self.matrix.dequantize();
        Conv2d::from_parts(linear.weight().clone(), linear.bias().to_vec(), self.spec)
    }
}

/// One step of a [`QuantNetwork`]'s execution plan — the quantized
/// mirror of [`Layer`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QuantLayer {
    /// A quantized fully-connected layer.
    Dense(QuantLinear),
    /// A quantized convolution.
    Conv(QuantConv2d),
    /// Element-wise ReLU.
    Relu,
    /// 2-D max pooling.
    MaxPool(Pool2d),
    /// 2-D average pooling.
    AvgPool(Pool2d),
    /// Residual shortcut marker.
    SkipStart,
    /// Residual add marker.
    SkipAdd,
}

impl QuantLayer {
    /// Whether this layer carries attackable weights.
    pub fn is_weighted(&self) -> bool {
        matches!(self, QuantLayer::Dense(_) | QuantLayer::Conv(_))
    }

    /// The quantized weight matrix of a weighted layer — the dense
    /// matrix itself, or a conv's im2col kernel matrix.
    pub fn matrix(&self) -> Option<&QuantLinear> {
        match self {
            QuantLayer::Dense(q) => Some(q),
            QuantLayer::Conv(c) => Some(c.matrix()),
            _ => None,
        }
    }

    /// Mutable quantized weight matrix of a weighted layer.
    pub fn matrix_mut(&mut self) -> Option<&mut QuantLinear> {
        match self {
            QuantLayer::Dense(q) => Some(q),
            QuantLayer::Conv(c) => Some(c.matrix_mut()),
            _ => None,
        }
    }

    /// Number of quantized weights (0 for structure layers).
    pub fn num_weights(&self) -> usize {
        self.matrix().map_or(0, QuantLinear::num_weights)
    }

    /// Quantization scale (1.0 for structure layers).
    pub fn scale(&self) -> f32 {
        self.matrix().map_or(1.0, QuantLinear::scale)
    }

    fn quantize(layer: &Layer) -> Self {
        match layer {
            Layer::Dense(l) => QuantLayer::Dense(QuantLinear::quantize(l)),
            Layer::Conv(c) => QuantLayer::Conv(QuantConv2d::quantize(c)),
            Layer::Relu => QuantLayer::Relu,
            Layer::MaxPool(p) => QuantLayer::MaxPool(*p),
            Layer::AvgPool(p) => QuantLayer::AvgPool(*p),
            Layer::SkipStart => QuantLayer::SkipStart,
            Layer::SkipAdd => QuantLayer::SkipAdd,
        }
    }

    fn dequantize(&self) -> Layer {
        match self {
            QuantLayer::Dense(q) => Layer::Dense(q.dequantize()),
            QuantLayer::Conv(c) => Layer::Conv(c.dequantize()),
            QuantLayer::Relu => Layer::Relu,
            QuantLayer::MaxPool(p) => Layer::MaxPool(*p),
            QuantLayer::AvgPool(p) => Layer::AvgPool(*p),
            QuantLayer::SkipStart => Layer::SkipStart,
            QuantLayer::SkipAdd => Layer::SkipAdd,
        }
    }
}

/// The quantized inference network — BFA's attack surface.
///
/// # Example
///
/// ```
/// use dlk_dnn::{Mlp, QuantizedMlp, BitIndex};
///
/// let model = Mlp::new(&[4, 8, 2], 3);
/// let mut quantized = QuantizedMlp::quantize(&model);
/// let bit = BitIndex { layer: 0, weight: 0, bit: 7 };
/// let before = quantized.bit(bit).unwrap();
/// quantized.flip_bit(bit).unwrap();
/// assert_ne!(quantized.bit(bit).unwrap(), before);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantNetwork {
    layers: Vec<QuantLayer>,
}

/// The historical name of the quantized network, kept because every
/// call site grew up on the all-dense substrate. A `QuantizedMlp` can
/// hold convolutions and residual skips since the CNN subsystem landed.
pub type QuantizedMlp = QuantNetwork;

impl QuantNetwork {
    /// Quantizes every layer of a float model ([`Mlp`] or [`Network`],
    /// by reference).
    pub fn quantize(model: impl Into<Network>) -> Self {
        let network: Network = model.into();
        Self { layers: network.layers().iter().map(QuantLayer::quantize).collect() }
    }

    /// The full execution plan, including structure layers.
    pub fn layers(&self) -> &[QuantLayer] {
        &self.layers
    }

    /// Mutable execution plan.
    pub fn layers_mut(&mut self) -> &mut [QuantLayer] {
        &mut self.layers
    }

    /// The weighted layers in execution order — the list
    /// [`BitIndex::layer`] indexes.
    pub fn weighted_layers(&self) -> Vec<&QuantLayer> {
        self.layers.iter().filter(|l| l.is_weighted()).collect()
    }

    /// Mutable weighted layers in execution order.
    pub fn weighted_layers_mut(&mut self) -> Vec<&mut QuantLayer> {
        self.layers.iter_mut().filter(|l| l.is_weighted()).collect()
    }

    /// Number of weighted layers.
    pub fn weighted_count(&self) -> usize {
        self.layers.iter().filter(|l| l.is_weighted()).count()
    }

    /// Total quantized weights.
    pub fn total_weights(&self) -> usize {
        self.layers.iter().map(QuantLayer::num_weights).sum()
    }

    /// Total weight bits (8 per weight).
    pub fn total_bits(&self) -> usize {
        self.total_weights() * 8
    }

    /// Reconstructs the float network implied by current (possibly
    /// corrupted) quantized weights.
    pub fn to_float_model(&self) -> Network {
        Network::new(self.layers.iter().map(QuantLayer::dequantize).collect())
    }

    /// Reconstructs an [`Mlp`] when the plan is the all-dense MLP
    /// shape; `None` for CNNs.
    pub fn to_mlp(&self) -> Option<Mlp> {
        self.to_float_model().as_mlp()
    }

    /// Forward pass to logits (dequantized execution).
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] on wrong input width.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor, DnnError> {
        self.to_float_model().forward(x)
    }

    /// Classification accuracy.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] on wrong input width.
    pub fn accuracy(&self, x: &Tensor, labels: &[usize]) -> Result<f64, DnnError> {
        let logits = self.forward(x)?;
        let predictions = argmax_rows(&logits);
        let correct = predictions.iter().zip(labels).filter(|(p, l)| p == l).count();
        Ok(correct as f64 / labels.len().max(1) as f64)
    }

    /// Mean loss and per-weighted-layer gradients w.r.t. the
    /// *dequantized* weights — the ranking signal of progressive bit
    /// search. `grads[i].weight[j]` aligns with
    /// `BitIndex { layer: i, weight: j, .. }`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] on inconsistent shapes.
    pub fn loss_and_grads(
        &self,
        x: &Tensor,
        labels: &[usize],
    ) -> Result<(f32, Vec<LayerGrads>), DnnError> {
        self.to_float_model().loss_and_grads(x, labels)
    }

    /// [`QuantNetwork::loss_and_grads`]'s gradients, plus a
    /// [`TrialRecord`] of the same forward pass for trialling single
    /// bit flips on `(x, labels)`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] on inconsistent shapes.
    pub fn trial_record<'a>(
        &'a self,
        x: &Tensor,
        labels: &'a [usize],
    ) -> Result<(Vec<LayerGrads>, TrialRecord<'a>), DnnError> {
        let float = self.to_float_model();
        let (grads, resumes) = float.grads_and_resumes(x, labels)?;
        Ok((grads, TrialRecord { model: self, labels, float, resumes }))
    }

    /// The weighted layer at [`BitIndex::layer`] position `index`.
    fn weighted(&self, index: usize) -> Option<&QuantLinear> {
        self.layers.iter().filter(|l| l.is_weighted()).nth(index)?.matrix()
    }

    fn weighted_mut(&mut self, index: usize) -> Option<&mut QuantLinear> {
        self.layers.iter_mut().filter(|l| l.is_weighted()).nth(index)?.matrix_mut()
    }

    /// Reads one weight bit.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::BadWeightIndex`] for out-of-range indices.
    pub fn bit(&self, index: BitIndex) -> Result<bool, DnnError> {
        let byte = self
            .weighted(index.layer)
            .and_then(|l| l.weight_byte(index.weight))
            .ok_or(DnnError::BadWeightIndex { layer: index.layer, index: index.weight })?;
        Ok(byte >> (index.bit & 7) & 1 == 1)
    }

    /// Flips one weight bit; returns the new bit value.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::BadWeightIndex`] for out-of-range indices.
    pub fn flip_bit(&mut self, index: BitIndex) -> Result<bool, DnnError> {
        let layer = self
            .weighted_mut(index.layer)
            .ok_or(DnnError::BadWeightIndex { layer: index.layer, index: index.weight })?;
        let byte = layer
            .weight_byte(index.weight)
            .ok_or(DnnError::BadWeightIndex { layer: index.layer, index: index.weight })?;
        let flipped = byte ^ (1 << (index.bit & 7));
        layer.set_weight_byte(index.weight, flipped);
        Ok(flipped >> (index.bit & 7) & 1 == 1)
    }

    /// The change in effective weight value a flip of `index` causes
    /// right now (signed, in float weight units).
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::BadWeightIndex`] for out-of-range indices.
    pub fn flip_delta(&self, index: BitIndex) -> Result<f32, DnnError> {
        let layer = self
            .weighted(index.layer)
            .ok_or(DnnError::BadWeightIndex { layer: index.layer, index: index.weight })?;
        let byte = layer
            .weight_byte(index.weight)
            .ok_or(DnnError::BadWeightIndex { layer: index.layer, index: index.weight })?;
        let before = byte as i8 as f32;
        let after = (byte ^ (1 << (index.bit & 7))) as i8 as f32;
        Ok((after - before) * layer.scale())
    }

    /// Concatenated raw weight bytes of all weighted layers (two's
    /// complement) — the image deployed into DRAM.
    pub fn weight_bytes(&self) -> Vec<u8> {
        self.layers
            .iter()
            .filter_map(QuantLayer::matrix)
            .flat_map(|l| l.qweights().iter().map(|&q| q as u8))
            .collect()
    }

    /// Overwrites all weights from a concatenated byte image.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::RegionTooSmall`] if `bytes` is shorter than
    /// the weight count.
    pub fn load_weight_bytes(&mut self, bytes: &[u8]) -> Result<(), DnnError> {
        let needed = self.total_weights();
        if bytes.len() < needed {
            return Err(DnnError::RegionTooSmall {
                needed: needed as u64,
                available: bytes.len() as u64,
            });
        }
        let mut offset = 0;
        for layer in self.layers.iter_mut().filter_map(QuantLayer::matrix_mut) {
            for index in 0..layer.num_weights() {
                layer.set_weight_byte(index, bytes[offset + index]);
            }
            offset += layer.num_weights();
        }
        Ok(())
    }

    /// Locates a flat byte offset (into [`QuantNetwork::weight_bytes`])
    /// as a `(weighted-layer, weight)` pair.
    pub fn locate_byte(&self, offset: usize) -> Option<(usize, usize)> {
        let mut base = 0;
        for (layer_index, layer) in self.layers.iter().filter(|l| l.is_weighted()).enumerate() {
            if offset < base + layer.num_weights() {
                return Some((layer_index, offset - base));
            }
            base += layer.num_weights();
        }
        None
    }

    /// Inverse of [`QuantNetwork::locate_byte`].
    pub fn byte_offset(&self, layer: usize, weight: usize) -> Option<usize> {
        let weighted = self.weighted_layers();
        if layer >= weighted.len() || weight >= weighted[layer].num_weights() {
            return None;
        }
        let base: usize = weighted[..layer].iter().map(|l| l.num_weights()).sum();
        Some(base + weight)
    }
}

/// One gradient pass's forward, kept so that the loss with any single
/// bit flipped costs only the layers from the flipped one on. Built by
/// [`QuantNetwork::trial_record`].
///
/// A flip in weighted layer `L` cannot change what the layers before
/// `L` compute, so a trial starts the plan at `L` from the recorded
/// input activation and open residual shortcuts. The flipped weight is
/// dequantized exactly as [`QuantNetwork::forward`] would dequantize it
/// after [`QuantNetwork::flip_bit`], and the same operations then run
/// on the same inputs in the same order, so a trial's loss is
/// bit-identical to that of flipping, running a full forward pass and
/// taking [`softmax_cross_entropy`].
#[derive(Debug)]
pub struct TrialRecord<'a> {
    model: &'a QuantNetwork,
    labels: &'a [usize],
    /// The dequantized network, patched for the length of one trial.
    float: Network,
    /// One resume point per weighted layer.
    resumes: Vec<Resume>,
}

impl TrialRecord<'_> {
    /// The mean softmax cross-entropy loss on the recorded batch with
    /// `index` flipped. The record is unchanged afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::BadWeightIndex`] for out-of-range indices.
    pub fn trial(&mut self, index: BitIndex) -> Result<f32, DnnError> {
        let bad = || DnnError::BadWeightIndex { layer: index.layer, index: index.weight };
        let matrix = self.model.weighted(index.layer).ok_or_else(bad)?;
        let byte = matrix.weight_byte(index.weight).ok_or_else(bad)?;
        let mut value = (byte ^ (1 << (index.bit & 7))) as i8 as f32 * matrix.scale();
        let resume = &self.resumes[index.layer];
        let swap = |float: &mut Network, value: &mut f32| {
            let layer = &mut float.layers_mut()[resume.position];
            let weights = layer.weight_mut().expect("resume points are weighted");
            std::mem::swap(&mut weights.as_mut_slice()[index.weight], value);
        };
        swap(&mut self.float, &mut value);
        let logits = self.float.run(resume.position, &resume.input, &resume.skips, Tape::Off);
        swap(&mut self.float, &mut value);
        Ok(softmax_cross_entropy(&logits?, self.labels).0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;

    fn model() -> Mlp {
        Mlp::new(&[4, 6, 3], 17)
    }

    fn cnn() -> Network {
        let spec = ConvSpec { in_c: 1, in_h: 4, in_w: 4, out_c: 2, k: 3, stride: 1, pad: 1 };
        Network::new(vec![
            Layer::Conv(Conv2d::new(spec, 4)),
            Layer::Relu,
            Layer::SkipStart,
            Layer::Conv(Conv2d::new(ConvSpec { in_c: 2, out_c: 2, ..spec }, 5)),
            Layer::SkipAdd,
            Layer::MaxPool(Pool2d::halve(2, 4, 4)),
            Layer::Dense(Linear::new(8, 3, 6)),
        ])
    }

    #[test]
    fn quantization_error_is_bounded() {
        let float_model = model();
        let quantized = QuantizedMlp::quantize(&float_model);
        for (fl, ql) in float_model.layers().iter().zip(quantized.weighted_layers()) {
            let deq = ql.matrix().unwrap().dequantize();
            for (a, b) in fl.weight().as_slice().iter().zip(deq.weight().as_slice()) {
                assert!((a - b).abs() <= ql.scale() / 2.0 + 1e-6);
            }
        }
    }

    #[test]
    fn quantized_accuracy_close_to_float() {
        let float_model = model();
        let quantized = QuantizedMlp::quantize(&float_model);
        let x = Tensor::randn(32, 4, 3);
        let float_logits = float_model.forward(&x).unwrap();
        let quant_logits = quantized.forward(&x).unwrap();
        let agree = argmax_rows(&float_logits)
            .iter()
            .zip(argmax_rows(&quant_logits))
            .filter(|(a, b)| **a == *b)
            .count();
        assert!(agree >= 30, "8-bit quantization should barely change argmax: {agree}/32");
    }

    #[test]
    fn bit_flip_roundtrip() {
        let mut quantized = QuantizedMlp::quantize(&model());
        let bit = BitIndex { layer: 1, weight: 5, bit: 3 };
        let before = quantized.bit(bit).unwrap();
        let after = quantized.flip_bit(bit).unwrap();
        assert_ne!(before, after);
        quantized.flip_bit(bit).unwrap();
        assert_eq!(quantized.bit(bit).unwrap(), before);
    }

    #[test]
    fn msb_flip_moves_weight_most() {
        let quantized = QuantizedMlp::quantize(&model());
        let lsb = quantized.flip_delta(BitIndex { layer: 0, weight: 0, bit: 0 }).unwrap().abs();
        let msb = quantized.flip_delta(BitIndex { layer: 0, weight: 0, bit: 7 }).unwrap().abs();
        assert!(msb > lsb * 100.0, "msb {msb} vs lsb {lsb}");
    }

    #[test]
    fn out_of_range_bit_rejected() {
        let quantized = QuantizedMlp::quantize(&model());
        assert!(quantized.bit(BitIndex { layer: 9, weight: 0, bit: 0 }).is_err());
        assert!(quantized.bit(BitIndex { layer: 0, weight: 1 << 20, bit: 0 }).is_err());
    }

    #[test]
    fn weight_bytes_roundtrip() {
        let quantized = QuantizedMlp::quantize(&model());
        let bytes = quantized.weight_bytes();
        assert_eq!(bytes.len(), quantized.total_weights());
        let mut other = quantized.clone();
        // Corrupt then restore.
        let mut corrupted = bytes.clone();
        corrupted[0] ^= 0x80;
        other.load_weight_bytes(&corrupted).unwrap();
        assert_ne!(other, quantized);
        other.load_weight_bytes(&bytes).unwrap();
        assert_eq!(other, quantized);
    }

    #[test]
    fn locate_byte_is_inverse_of_byte_offset() {
        let quantized = QuantizedMlp::quantize(&model());
        for offset in [0usize, 5, 23, quantized.total_weights() - 1] {
            let (layer, weight) = quantized.locate_byte(offset).unwrap();
            assert_eq!(quantized.byte_offset(layer, weight), Some(offset));
        }
        assert_eq!(quantized.locate_byte(quantized.total_weights()), None);
    }

    #[test]
    fn to_float_model_matches_forward() {
        let quantized = QuantizedMlp::quantize(&model());
        let float_model = quantized.to_float_model();
        let x = Tensor::randn(4, 4, 8);
        let a = quantized.forward(&x).unwrap();
        let b = float_model.forward(&x).unwrap();
        for (p, q) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((p - q).abs() < 1e-5);
        }
    }

    #[test]
    fn mlp_bit_indices_are_unchanged_by_the_generalization() {
        // The historical contract: for an MLP, BitIndex.layer is the
        // linear-layer position, despite the interleaved ReLUs in the
        // flat plan.
        let quantized = QuantizedMlp::quantize(&model());
        assert_eq!(quantized.layers().len(), 3); // Dense Relu Dense
        assert_eq!(quantized.weighted_count(), 2);
        assert_eq!(quantized.locate_byte(0), Some((0, 0)));
        assert_eq!(quantized.locate_byte(4 * 6), Some((1, 0)));
        // The dequantized network still round-trips as an MLP, and
        // re-quantizing it is a fixed point.
        let mlp = quantized.to_mlp().unwrap();
        assert_eq!(mlp.num_layers(), 2);
        assert_eq!(QuantizedMlp::quantize(&mlp), quantized);
    }

    #[test]
    fn cnn_quantizes_and_round_trips() {
        let network = cnn();
        let quantized = QuantNetwork::quantize(&network);
        assert_eq!(quantized.weighted_count(), 3);
        assert_eq!(quantized.total_weights(), network.total_weights());
        assert!(quantized.to_mlp().is_none());
        // Quantized forward tracks the float network closely.
        let x = Tensor::randn(8, 16, 9);
        let fl = network.forward(&x).unwrap();
        let ql = quantized.forward(&x).unwrap();
        let agree =
            argmax_rows(&fl).iter().zip(argmax_rows(&ql)).filter(|(a, b)| **a == *b).count();
        assert!(agree >= 7, "{agree}/8");
    }

    #[test]
    fn conv_kernel_bits_are_flippable() {
        let mut quantized = QuantNetwork::quantize(cnn());
        // Weighted layer 1 is the residual conv: flip its first MSB.
        let bit = BitIndex { layer: 1, weight: 0, bit: 7 };
        let before = quantized.weighted_layers()[1].matrix().unwrap().weight_byte(0).unwrap();
        quantized.flip_bit(bit).unwrap();
        let after = quantized.weighted_layers()[1].matrix().unwrap().weight_byte(0).unwrap();
        assert_eq!(before ^ after, 0x80);
        // And the byte image sees the same flip at the right offset.
        let offset = quantized.byte_offset(1, 0).unwrap();
        assert_eq!(quantized.weight_bytes()[offset], after);
        let delta = quantized.flip_delta(bit).unwrap();
        assert!(delta.abs() > quantized.flip_delta(BitIndex { bit: 0, ..bit }).unwrap().abs());
    }

    #[test]
    fn trials_match_a_full_forward_of_the_flipped_network() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        use crate::models;

        // (network, resume points with open residual shortcuts)
        let cases = [
            (Network::from(&models::tiny_mlp(1)), 0),
            (models::tiny_cnn(2), 4),
            (models::resnet20_cnn(3), 18),
        ];
        for (seed, (network, open_skips)) in (1u64..).zip(cases) {
            let model = QuantNetwork::quantize(&network);
            let x = Tensor::randn(8, network.in_features(), seed);
            let labels: Vec<usize> = (0..8).map(|i| i % network.num_classes()).collect();
            let (_, mut record) = model.trial_record(&x, &labels).unwrap();
            assert_eq!(record.resumes.iter().filter(|r| !r.skips.is_empty()).count(), open_skips);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut trials = Vec::new();
            for (layer, weighted) in model.weighted_layers().iter().enumerate() {
                for _ in 0..4 {
                    let weight = rng.random_range(0..weighted.num_weights());
                    let index = BitIndex { layer, weight, bit: rng.random_range(0..8u8) };
                    let mut flipped = model.clone();
                    flipped.flip_bit(index).unwrap();
                    let full = softmax_cross_entropy(&flipped.forward(&x).unwrap(), &labels).0;
                    let loss = record.trial(index).unwrap();
                    assert_eq!(loss.to_bits(), full.to_bits(), "{index:?}");
                    trials.push((index, loss));
                }
            }
            // Repeated from the last layer back, each trial runs through
            // every weight an earlier repeat patched: the same bits show
            // each patch was restored.
            for &(index, loss) in trials.iter().rev() {
                assert_eq!(record.trial(index).unwrap().to_bits(), loss.to_bits(), "{index:?}");
            }
            assert_eq!(model, QuantNetwork::quantize(&network));
        }
    }

    #[test]
    fn cnn_grads_align_with_bit_indices() {
        let quantized = QuantNetwork::quantize(cnn());
        let x = Tensor::randn(6, 16, 10);
        let labels = vec![0, 1, 2, 0, 1, 2];
        let (_, grads) = quantized.loss_and_grads(&x, &labels).unwrap();
        assert_eq!(grads.len(), quantized.weighted_count());
        for (grad, layer) in grads.iter().zip(quantized.weighted_layers()) {
            assert_eq!(grad.weight.len(), layer.num_weights());
        }
    }
}
