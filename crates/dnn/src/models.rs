//! The paper's evaluation networks.
//!
//! The paper uses ResNet-20 on CIFAR-10 and VGG-11 on CIFAR-100. Two
//! families of stand-ins are provided, all of them [`Network`]s trained
//! and 8-bit quantized exactly as in the paper's pipeline:
//!
//! - MLP stand-ins (`resnet20_like`, `vgg11_like`): dense networks
//!   that the full-fidelity Fig. 1(a), Fig. 8 and Table II run on;
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

#![allow(
    clippy::expect_used,
    reason = "victims are built once per process at setup, off the request path"
)]

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use crate::conv::{Conv2d, ConvSpec, Pool2d};
use crate::data::SyntheticDataset;
use crate::layers::Linear;
use crate::network::{Layer, Network};
use crate::quant::{BitIndex, QuantNetwork};
use crate::storage::WeightLayout;
use crate::tensor::Tensor;
use crate::train::{TrainConfig, Trainer};

/// A deep-narrow MLP for the CIFAR-10-like dataset
/// (32 → 64 → 64 → 64 → 48 → 10).
pub fn resnet20_like(seed: u64) -> Network {
    Network::mlp(&[32, 64, 64, 64, 48, 10], seed)
}

/// A wide MLP with a large head for the CIFAR-100-like dataset
/// (64 → 128 → 128 → 100).
pub fn vgg11_like(seed: u64) -> Network {
    Network::mlp(&[64, 128, 128, 100], seed)
}

/// A tiny MLP for unit tests (8 → 24 → 4).
pub fn tiny_mlp(seed: u64) -> Network {
    Network::mlp(&[8, 24, 4], seed)
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

    /// The one statement of each kind: its spec-file token,
    /// architecture, dataset and training schedule `(epochs, lr)`.
    fn spec(self) -> KindSpec {
        use SyntheticDataset as D;
        match self {
            ModelKind::Tiny => ("tiny", tiny_mlp, D::tiny_for_tests, (12, 0.3)),
            ModelKind::TinyCnn => ("tiny-cnn", tiny_cnn, D::tiny_images_for_tests, (30, 0.05)),
            ModelKind::Resnet20 => ("resnet20", resnet20_like, D::cifar10_like, (40, 0.3)),
            ModelKind::Vgg11 => ("vgg11", vgg11_like, D::cifar100_like, (50, 0.3)),
            ModelKind::Resnet20Cnn => ("resnet20-cnn", resnet20_cnn, D::cifar10_images, (20, 0.12)),
            ModelKind::Vgg11Cnn => ("vgg11-cnn", vgg11_cnn, D::cifar100_images, (30, 0.15)),
        }
    }

    /// Trains and quantizes this kind's victim for `seed`, or fetches
    /// the memoized copy: training is deterministic per seed, and
    /// sweeps and spec-built scenarios request the same victim
    /// repeatedly.
    pub fn victim(self, seed: u64) -> Victim {
        static CACHE: OnceLock<Mutex<HashMap<(ModelKind, u64), Victim>>> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        if let Some(victim) = cache.lock().expect("victim cache lock").get(&(self, seed)) {
            return victim.clone();
        }
        let (_, build, dataset, (epochs, lr)) = self.spec();
        let victim = build_victim(build(seed), dataset(seed), epochs, lr);
        cache.lock().expect("victim cache lock").insert((self, seed), victim.clone());
        victim
    }

    /// The stable spec-file token for this kind.
    pub fn token(self) -> &'static str {
        let (token, ..) = self.spec();
        token
    }

    /// Parses a [`token`](ModelKind::token) back into a kind.
    pub fn from_token(token: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|kind| kind.token() == token)
    }

    /// Number of weighted layers (dense + conv) in this kind's
    /// architecture, counted on an untrained instance — available
    /// *without* training the victim, so static analyzers can
    /// sanity-check layer-indexed attack parameters before a run.
    pub fn weighted_layers(self) -> usize {
        let (_, build, ..) = self.spec();
        build(0).weighted_count()
    }
}

/// What [`ModelKind::spec`] states about a kind: token, architecture,
/// dataset and `(epochs, lr)`.
type KindSpec = (&'static str, fn(u64) -> Network, fn(u64) -> SyntheticDataset, (usize, f32));

/// A trained-and-quantized victim: model, dataset and clean accuracy.
#[derive(Debug, Clone)]
pub struct Victim {
    /// The quantized inference network deployed to DRAM.
    pub model: QuantNetwork,
    /// Its dataset.
    pub dataset: SyntheticDataset,
    /// Test accuracy before any attack.
    pub clean_accuracy: f64,
}

/// The ResNet-20-like MLP victim on CIFAR-10-like ([`ModelKind::Resnet20`]).
pub fn victim_resnet20_cifar10(seed: u64) -> Victim {
    ModelKind::Resnet20.victim(seed)
}

/// The VGG-11-like MLP victim on CIFAR-100-like ([`ModelKind::Vgg11`]).
pub fn victim_vgg11_cifar100(seed: u64) -> Victim {
    ModelKind::Vgg11.victim(seed)
}

/// The tiny MLP victim for tests ([`ModelKind::Tiny`]).
pub fn victim_tiny(seed: u64) -> Victim {
    ModelKind::Tiny.victim(seed)
}

/// The ResNet-20-shaped CNN victim on CIFAR-10 image stand-ins
/// ([`ModelKind::Resnet20Cnn`]).
pub fn victim_resnet20_cnn(seed: u64) -> Victim {
    ModelKind::Resnet20Cnn.victim(seed)
}

/// The VGG-11-shaped CNN victim on CIFAR-100 image stand-ins
/// ([`ModelKind::Vgg11Cnn`]).
pub fn victim_vgg11_cnn(seed: u64) -> Victim {
    ModelKind::Vgg11Cnn.victim(seed)
}

/// The miniature residual CNN victim for tests ([`ModelKind::TinyCnn`]).
pub fn victim_tiny_cnn(seed: u64) -> Victim {
    ModelKind::TinyCnn.victim(seed)
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
    model: &QuantNetwork,
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

fn build_victim(mut model: Network, dataset: SyntheticDataset, epochs: usize, lr: f32) -> Victim {
    let config = TrainConfig { epochs, lr, ..TrainConfig::default() };
    Trainer::new(config).fit(&mut model, &dataset);
    let quantized = QuantNetwork::quantize(&model);
    let clean_accuracy =
        quantized.accuracy(&dataset.test_x, &dataset.test_y).expect("victim shapes are consistent");
    Victim { model: quantized, dataset, clean_accuracy }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::QuantLayer;

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
        assert_eq!(resnet20_like(0).weighted_count(), 5);
        assert_eq!(resnet20_like(0).num_classes(), 10);
        assert_eq!(vgg11_like(0).num_classes(), 100);
        // Deep-narrow vs wide: resnet-like has more layers, vgg-like
        // more parameters per layer on average.
        let r = resnet20_like(0);
        let v = vgg11_like(0);
        assert!(r.weighted_count() > v.weighted_count());
        assert!(v.total_weights() / v.weighted_count() > r.total_weights() / r.weighted_count());
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
    fn tiny_cnn_victim_trains_well_and_is_cached() {
        let victim = victim_tiny_cnn(11);
        assert!(victim.clean_accuracy > 0.7, "clean accuracy {}", victim.clean_accuracy);
        // Same seed returns the identical cached victim.
        let again = victim_tiny_cnn(11);
        assert_eq!(victim.model, again.model);
        // The quantized model is a real CNN, not an MLP.
        assert!(victim.model.layers().iter().any(|l| matches!(l, QuantLayer::Conv(_))));
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
    /// float order, so a trained victim is a fixed bit pattern: a
    /// kernel change that moves one rounding anywhere in training moves
    /// these digests. Pinned: the conv victims, Table II's fast (tiny 7)
    /// and full (resnet20 7) victims and the catalog's tiny 42.
    #[test]
    fn trained_victims_are_pinned_bit_for_bit() {
        let got = [
            victim_tiny_cnn(11),
            victim_resnet20_cnn(42),
            victim_tiny(7),
            victim_tiny(42),
            victim_resnet20_cifar10(7),
        ]
        .map(|v| victim_digest(&v));
        assert_eq!(
            got,
            [
                0x913e_8796_ac89_5581,
                0x1111_bb70_b3b7_494f,
                0x45f3_cc3b_b941_51d8,
                0x59b1_3370_08f8_5e35,
                0xb8fa_995e_b108_77d1,
            ],
            "tiny-cnn 11, resnet20-cnn 42, tiny 7, tiny 42, resnet20 7: {got:x?}"
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
