//! The paper's evaluation networks.
//!
//! The paper uses ResNet-20 on CIFAR-10 and VGG-11 on CIFAR-100. Two
//! families of stand-ins are provided, both trained to high accuracy
//! and 8-bit quantized exactly as in the paper's pipeline:
//!
//! - MLP stand-ins (`resnet20_like`, `vgg11_like`): the original
//!   dense-only substrate, still used by the training-time defense
//!   baselines (Table II) whose transforms are MLP-specific;
//! - convolutional stand-ins (`resnet20_cnn`, `vgg11_cnn`,
//!   `tiny_cnn`): real conv/pool/residual topologies on the
//!   [`Network`] substrate — scaled to 1×8×8 synthetic images so
//!   functional simulation stays test-sized, but with the papers'
//!   structural signatures (ResNet-20: a conv stem and three stages of
//!   three identity-skip residual blocks; VGG-11: eight convs with
//!   interleaved max-pools and a three-layer dense head). Their conv
//!   kernels quantize, deploy to DRAM rows and are attacked bit-by-bit
//!   through exactly the same [`BitIndex`] machinery as dense weights.
//!
//! Real CIFAR-10/100 is unavailable offline, so every victim trains on
//! a deterministic synthetic stand-in from [`crate::data`] with the
//! same class count (10 or 100): Gaussian-cluster feature vectors for
//! the MLPs, smoothed-pattern 1×8×8 images for the CNNs.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use crate::conv::{Conv2d, ConvSpec, Pool2d};
use crate::data::SyntheticDataset;
use crate::layers::Linear;
use crate::model::Mlp;
use crate::network::{Layer, Network};
use crate::quant::{BitIndex, QuantizedMlp};
use crate::storage::WeightLayout;
use crate::tensor::Tensor;
use crate::train::{TrainConfig, Trainable, Trainer};

/// A deep-narrow network for the CIFAR-10-like dataset
/// (32 → 64 → 64 → 64 → 48 → 10).
pub fn resnet20_like(seed: u64) -> Mlp {
    Mlp::new(&[32, 64, 64, 64, 48, 10], seed)
}

/// A wide network with a large head for the CIFAR-100-like dataset
/// (64 → 128 → 128 → 100).
pub fn vgg11_like(seed: u64) -> Mlp {
    Mlp::new(&[64, 128, 128, 100], seed)
}

/// A tiny MLP for unit tests (8 → 24 → 4).
pub fn tiny_mlp(seed: u64) -> Mlp {
    Mlp::new(&[8, 24, 4], seed)
}

/// A 3×3/stride-1/pad-1 convolution at the given feature-map size.
fn conv3(in_c: usize, out_c: usize, h: usize, w: usize, seed: u64) -> Layer {
    Layer::Conv(Conv2d::new(
        ConvSpec { in_c, in_h: h, in_w: w, out_c, k: 3, stride: 1, pad: 1 },
        seed,
    ))
}

/// One identity-skip residual basic block (conv–relu–conv, add, relu).
fn res_block(layers: &mut Vec<Layer>, c: usize, h: usize, w: usize, seed: u64) {
    layers.push(Layer::SkipStart);
    layers.push(conv3(c, c, h, w, seed));
    layers.push(Layer::Relu);
    layers.push(conv3(c, c, h, w, seed + 1));
    layers.push(Layer::SkipAdd);
    layers.push(Layer::Relu);
}

/// The ResNet-20-shaped CNN for 1×8×8 CIFAR-10-like images: conv stem,
/// three stages of three residual blocks (widths 4/8/12) with
/// average-pool downsampling between stages, dense classifier — 22
/// weighted layers, 13,764 quantized weights.
pub fn resnet20_cnn(seed: u64) -> Network {
    let mut layers = Vec::new();
    layers.push(conv3(1, 4, 8, 8, seed));
    layers.push(Layer::Relu);
    for block in 0..3 {
        res_block(&mut layers, 4, 8, 8, seed + 1 + 2 * block);
    }
    layers.push(conv3(4, 8, 8, 8, seed + 7));
    layers.push(Layer::Relu);
    layers.push(Layer::AvgPool(Pool2d::halve(8, 8, 8)));
    for block in 0..3 {
        res_block(&mut layers, 8, 4, 4, seed + 8 + 2 * block);
    }
    layers.push(conv3(8, 12, 4, 4, seed + 14));
    layers.push(Layer::Relu);
    layers.push(Layer::AvgPool(Pool2d::halve(12, 4, 4)));
    for block in 0..3 {
        res_block(&mut layers, 12, 2, 2, seed + 15 + 2 * block);
    }
    layers.push(Layer::Dense(Linear::new(12 * 2 * 2, 10, seed + 21)));
    Network::new(layers)
}

/// The VGG-11-shaped CNN for 1×8×8 CIFAR-100-like images: eight 3×3
/// convs (widths 4/8/16/16/24/24/24/24) with max-pool halvings after
/// the first two, and a three-layer dense head — 11 weighted layers,
/// 39,428 quantized weights.
pub fn vgg11_cnn(seed: u64) -> Network {
    let mut layers = vec![conv3(1, 4, 8, 8, seed), Layer::Relu];
    layers.push(Layer::MaxPool(Pool2d::halve(4, 8, 8)));
    layers.push(conv3(4, 8, 4, 4, seed + 1));
    layers.push(Layer::Relu);
    layers.push(Layer::MaxPool(Pool2d::halve(8, 4, 4)));
    layers.push(conv3(8, 16, 2, 2, seed + 2));
    layers.push(Layer::Relu);
    layers.push(conv3(16, 16, 2, 2, seed + 3));
    layers.push(Layer::Relu);
    layers.push(conv3(16, 24, 2, 2, seed + 4));
    layers.push(Layer::Relu);
    for i in 0..3 {
        layers.push(conv3(24, 24, 2, 2, seed + 5 + i));
        layers.push(Layer::Relu);
    }
    layers.push(Layer::Dense(Linear::new(24 * 2 * 2, 64, seed + 8)));
    layers.push(Layer::Relu);
    layers.push(Layer::Dense(Linear::new(64, 64, seed + 9)));
    layers.push(Layer::Relu);
    layers.push(Layer::Dense(Linear::new(64, 100, seed + 10)));
    Network::new(layers)
}

/// A miniature residual CNN for unit tests (1×6×6 images, 4 classes):
/// conv stem, two residual blocks around an average-pool transition,
/// dense head — 7 weighted layers, ~1.2k weights.
pub fn tiny_cnn(seed: u64) -> Network {
    let mut layers = vec![conv3(1, 3, 6, 6, seed), Layer::Relu];
    res_block(&mut layers, 3, 6, 6, seed + 1);
    layers.push(conv3(3, 6, 6, 6, seed + 3));
    layers.push(Layer::Relu);
    layers.push(Layer::AvgPool(Pool2d::halve(6, 6, 6)));
    res_block(&mut layers, 6, 3, 3, seed + 4);
    layers.push(Layer::Dense(Linear::new(6 * 3 * 3, 4, seed + 6)));
    Network::new(layers)
}

/// The enumerable victim-model zoo: every trained victim the scenario
/// layer can name *as data*. A `(ModelKind, seed)` pair fully
/// determines a [`Victim`] (training is deterministic per seed), which
/// is what lets scenario specs and sweep grids carry victims as plain
/// values instead of closures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Tiny MLP for tests ([`victim_tiny`]).
    Tiny,
    /// Miniature residual CNN for tests ([`victim_tiny_cnn`]).
    TinyCnn,
    /// ResNet-20-like MLP stand-in on CIFAR-10-like
    /// ([`victim_resnet20_cifar10`]).
    Resnet20,
    /// VGG-11-like MLP stand-in on CIFAR-100-like
    /// ([`victim_vgg11_cifar100`]).
    Vgg11,
    /// ResNet-20-shaped CNN on CIFAR-10 image stand-ins
    /// ([`victim_resnet20_cnn`]).
    Resnet20Cnn,
    /// VGG-11-shaped CNN on CIFAR-100 image stand-ins
    /// ([`victim_vgg11_cnn`]).
    Vgg11Cnn,
}

impl ModelKind {
    /// Every model kind, in zoo order.
    pub const ALL: [ModelKind; 6] = [
        ModelKind::Tiny,
        ModelKind::TinyCnn,
        ModelKind::Resnet20,
        ModelKind::Vgg11,
        ModelKind::Resnet20Cnn,
        ModelKind::Vgg11Cnn,
    ];

    /// Trains (or fetches the memoized copy of) this kind's victim for
    /// `seed`.
    pub fn victim(self, seed: u64) -> Victim {
        match self {
            ModelKind::Tiny => victim_tiny(seed),
            ModelKind::TinyCnn => victim_tiny_cnn(seed),
            ModelKind::Resnet20 => victim_resnet20_cifar10(seed),
            ModelKind::Vgg11 => victim_vgg11_cifar100(seed),
            ModelKind::Resnet20Cnn => victim_resnet20_cnn(seed),
            ModelKind::Vgg11Cnn => victim_vgg11_cnn(seed),
        }
    }

    /// The stable spec-file token for this kind.
    pub fn token(self) -> &'static str {
        match self {
            ModelKind::Tiny => "tiny",
            ModelKind::TinyCnn => "tiny-cnn",
            ModelKind::Resnet20 => "resnet20",
            ModelKind::Vgg11 => "vgg11",
            ModelKind::Resnet20Cnn => "resnet20-cnn",
            ModelKind::Vgg11Cnn => "vgg11-cnn",
        }
    }

    /// Parses a [`token`](ModelKind::token) back into a kind.
    pub fn from_token(token: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|kind| kind.token() == token)
    }

    /// Number of weighted layers (dense + conv) in this kind's
    /// architecture — available *without* training the victim, so
    /// static analyzers can sanity-check layer-indexed attack
    /// parameters before a run. Pinned to the constructors (see the
    /// `weighted_layers_match_constructed_networks` test).
    pub fn weighted_layers(self) -> usize {
        match self {
            ModelKind::Tiny => 2,
            ModelKind::TinyCnn => 7,
            ModelKind::Resnet20 => 5,
            ModelKind::Vgg11 => 3,
            ModelKind::Resnet20Cnn => 22,
            ModelKind::Vgg11Cnn => 11,
        }
    }
}

/// A trained-and-quantized victim: model, dataset and clean accuracy.
#[derive(Debug, Clone)]
pub struct Victim {
    /// The quantized inference network deployed to DRAM.
    pub model: QuantizedMlp,
    /// Its dataset.
    pub dataset: SyntheticDataset,
    /// Test accuracy before any attack.
    pub clean_accuracy: f64,
}

/// Trains and quantizes the ResNet-20-like victim on CIFAR-10-like
/// (memoized per seed).
pub fn victim_resnet20_cifar10(seed: u64) -> Victim {
    cached_victim("resnet20", seed, || {
        build_victim(resnet20_like(seed), SyntheticDataset::cifar10_like(seed), 40, 0.3)
    })
}

/// Trains and quantizes the VGG-11-like victim on CIFAR-100-like
/// (memoized per seed).
pub fn victim_vgg11_cifar100(seed: u64) -> Victim {
    cached_victim("vgg11", seed, || {
        build_victim(vgg11_like(seed), SyntheticDataset::cifar100_like(seed), 50, 0.3)
    })
}

/// Trains and quantizes a tiny victim for tests (memoized per seed:
/// sweeps and spec-built scenarios request the same victim repeatedly).
pub fn victim_tiny(seed: u64) -> Victim {
    cached_victim("tiny", seed, || {
        build_victim(tiny_mlp(seed), SyntheticDataset::tiny_for_tests(seed), 12, 0.3)
    })
}

/// Trains and quantizes the ResNet-20-shaped CNN victim on CIFAR-10
/// image stand-ins. Memoized per seed: CNN training is the expensive
/// step of a scenario, and sweeps build the same victim repeatedly.
pub fn victim_resnet20_cnn(seed: u64) -> Victim {
    cached_victim("resnet20-cnn", seed, || {
        build_victim(resnet20_cnn(seed), SyntheticDataset::cifar10_images(seed), 20, 0.12)
    })
}

/// Trains and quantizes the VGG-11-shaped CNN victim on CIFAR-100
/// image stand-ins (memoized per seed).
pub fn victim_vgg11_cnn(seed: u64) -> Victim {
    cached_victim("vgg11-cnn", seed, || {
        build_victim(vgg11_cnn(seed), SyntheticDataset::cifar100_images(seed), 30, 0.15)
    })
}

/// Trains and quantizes the miniature residual CNN for tests
/// (memoized per seed).
pub fn victim_tiny_cnn(seed: u64) -> Victim {
    cached_victim("tiny-cnn", seed, || {
        build_victim(tiny_cnn(seed), SyntheticDataset::tiny_images_for_tests(seed), 30, 0.05)
    })
}

/// The most damaging MSB flip among weights in the *first DRAM row* of
/// the weight image laid out by `layout`.
///
/// The OS isolates the victim's own pages, so an unprivileged attacker
/// can only hammer the unowned rows physically adjacent to the image —
/// making the image's edge row the only row whose bits are reachable.
/// This ranks the edge-row MSBs by first-order loss increase
/// `grad · Δw` on the batch `(x, y)` and returns the best, or `None`
/// when no edge-row flip increases the loss. For CNN victims the edge
/// row holds the first conv kernels, so the search walks conv-kernel
/// bits through the same flat indexing.
pub fn best_edge_target(
    model: &QuantizedMlp,
    layout: &WeightLayout,
    x: &Tensor,
    y: &[usize],
) -> Option<BitIndex> {
    let (_, grads) = model.loss_and_grads(x, y).ok()?;
    let row_bytes = layout.mapper().geometry().row_bytes;
    let base = layout.base_phys() as usize;
    let edge_bytes = row_bytes - (base % row_bytes).min(row_bytes);
    let mut best: Option<(f32, BitIndex)> = None;
    for offset in 0..edge_bytes.min(model.total_weights()) {
        let (layer, weight) = model.locate_byte(offset)?;
        let index = BitIndex { layer, weight, bit: 7 };
        let delta = model.flip_delta(index).ok()?;
        let gain = grads[layer].weight[weight] * delta;
        if gain > 0.0 && best.is_none_or(|(b, _)| gain > b) {
            best = Some((gain, index));
        }
    }
    best.map(|(_, index)| index)
}

fn build_victim<M>(mut model: M, dataset: SyntheticDataset, epochs: usize, lr: f32) -> Victim
where
    M: Trainable,
    for<'a> &'a M: Into<Network>,
{
    let config = TrainConfig { epochs, lr, ..TrainConfig::default() };
    Trainer::new(config).fit(&mut model, &dataset);
    let quantized = QuantizedMlp::quantize(&model);
    let clean_accuracy =
        quantized.accuracy(&dataset.test_x, &dataset.test_y).expect("victim shapes are consistent");
    Victim { model: quantized, dataset, clean_accuracy }
}

/// Returns the cached victim for `(kind, seed)`, training it on first
/// use. Victims are deterministic per seed, so caching is observable
/// only as saved time.
fn cached_victim(kind: &'static str, seed: u64, build: impl FnOnce() -> Victim) -> Victim {
    static CACHE: OnceLock<Mutex<HashMap<(&'static str, u64), Victim>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(victim) = cache.lock().expect("victim cache lock").get(&(kind, seed)) {
        return victim.clone();
    }
    let victim = build();
    cache.lock().expect("victim cache lock").insert((kind, seed), victim.clone());
    victim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_victim_trains_well() {
        let victim = victim_tiny(11);
        assert!(victim.clean_accuracy > 0.7, "clean accuracy {}", victim.clean_accuracy);
    }

    #[test]
    fn victims_are_deterministic() {
        let a = victim_tiny(4);
        let b = victim_tiny(4);
        assert_eq!(a.model, b.model);
        assert_eq!(a.clean_accuracy, b.clean_accuracy);
    }

    #[test]
    fn architectures_have_expected_shapes() {
        assert_eq!(resnet20_like(0).num_layers(), 5);
        assert_eq!(resnet20_like(0).num_classes(), 10);
        assert_eq!(vgg11_like(0).num_classes(), 100);
        // Deep-narrow vs wide: resnet-like has more layers, vgg-like
        // more parameters per layer on average.
        let r = resnet20_like(0);
        let v = vgg11_like(0);
        assert!(r.num_layers() > v.num_layers());
        assert!(v.total_weights() / v.num_layers() > r.total_weights() / r.num_layers());
    }

    #[test]
    fn cnn_topologies_have_the_papers_shapes() {
        let r = resnet20_cnn(0);
        // Stem + 9 residual blocks × 2 convs + 2 transition convs +
        // dense head — ResNet-20's ~20 weighted layers.
        assert_eq!(r.weighted_count(), 22);
        assert_eq!(r.total_weights(), 13_764);
        assert_eq!(r.num_classes(), 10);
        assert_eq!(r.in_features(), 64);
        let skips = r.layers().iter().filter(|l| matches!(l, Layer::SkipAdd)).count();
        assert_eq!(skips, 9, "three stages of three residual blocks");

        let v = vgg11_cnn(0);
        assert_eq!(v.weighted_count(), 11, "VGG-11: 8 convs + 3 dense");
        assert_eq!(v.total_weights(), 39_428);
        assert_eq!(v.num_classes(), 100);
        // VGG's signature vs ResNet's: fewer, fatter layers.
        assert!(v.total_weights() > r.total_weights());
        assert!(r.weighted_count() > v.weighted_count());

        let t = tiny_cnn(0);
        assert_eq!(t.weighted_count(), 7);
        assert_eq!(t.num_classes(), 4);
    }

    #[test]
    fn weighted_layers_match_constructed_networks() {
        assert_eq!(ModelKind::Tiny.weighted_layers(), tiny_mlp(0).num_layers());
        assert_eq!(ModelKind::Resnet20.weighted_layers(), resnet20_like(0).num_layers());
        assert_eq!(ModelKind::Vgg11.weighted_layers(), vgg11_like(0).num_layers());
        assert_eq!(ModelKind::TinyCnn.weighted_layers(), tiny_cnn(0).weighted_count());
        assert_eq!(ModelKind::Resnet20Cnn.weighted_layers(), resnet20_cnn(0).weighted_count());
        assert_eq!(ModelKind::Vgg11Cnn.weighted_layers(), vgg11_cnn(0).weighted_count());
    }

    #[test]
    fn tiny_cnn_victim_trains_well_and_is_cached() {
        let victim = victim_tiny_cnn(11);
        assert!(victim.clean_accuracy > 0.7, "clean accuracy {}", victim.clean_accuracy);
        // Same seed returns the identical cached victim.
        let again = victim_tiny_cnn(11);
        assert_eq!(victim.model, again.model);
        // The quantized model is a real CNN, not an MLP.
        assert!(victim.model.to_mlp().is_none());
    }

    /// FNV-1a over a victim's deployed weight image, then the bits of
    /// its clean accuracy.
    fn victim_digest(victim: &Victim) -> u64 {
        let accuracy = victim.clean_accuracy.to_bits().to_le_bytes();
        victim
            .model
            .weight_bytes()
            .iter()
            .chain(&accuracy)
            .fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
                (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// Training is deterministic per seed and every kernel keeps its
    /// float order, so a trained conv victim is a fixed bit pattern: a
    /// kernel change that moves one rounding anywhere in training moves
    /// these digests.
    #[test]
    fn trained_conv_victims_are_pinned_bit_for_bit() {
        let got = [victim_tiny_cnn(11), victim_resnet20_cnn(42)].map(|v| victim_digest(&v));
        assert_eq!(
            got,
            [0x913e_8796_ac89_5581, 0x1111_bb70_b3b7_494f],
            "tiny-cnn 11, resnet20-cnn 42: {got:x?}"
        );
    }

    #[test]
    fn cnn_forward_is_deterministic_per_seed() {
        let a = tiny_cnn(3);
        let b = tiny_cnn(3);
        let c = tiny_cnn(4);
        let x = Tensor::randn(2, 36, 5);
        assert_eq!(a.forward(&x).unwrap(), b.forward(&x).unwrap());
        assert_ne!(a.forward(&x).unwrap(), c.forward(&x).unwrap());
    }
}
