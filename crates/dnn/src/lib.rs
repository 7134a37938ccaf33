//! # dlk-dnn — quantized DNN substrate
//!
//! The victim workload of the DRAM-Locker paper: 8-bit quantized neural
//! networks whose weights live in DRAM rows. Everything is built from
//! scratch:
//!
//! - [`tensor`]: a minimal 2-D tensor (row-major `f32` matrix);
//! - [`layers`]: fully-connected layers with ReLU and a softmax
//!   cross-entropy head, all with hand-written backprop;
//! - [`conv`]: 2-D convolution (im2col forward/backward) and pooling;
//! - [`network`]: the one model type, [`Network`] — a flat [`Layer`]
//!   plan with residual-skip markers that every victim, MLP or CNN,
//!   is built, trained and attacked as;
//! - [`quant`]: symmetric 8-bit quantization and the
//!   [`QuantNetwork`] inference network with per-bit weight access —
//!   the attack surface of BFA, for dense *and* conv kernels — and
//!   the [`TrialRecord`] that trials a single flip from its layer on;
//! - [`data`]: deterministic synthetic classification datasets
//!   standing in for CIFAR-10 / CIFAR-100, which are unavailable
//!   offline: seeded Gaussian-cluster vectors (MLP victims) and
//!   smoothed-pattern 1×8×8 images (CNN victims) with the same class
//!   counts;
//! - [`train`]: mini-batch SGD training of a [`Network`];
//! - [`models`]: the paper's evaluation networks — MLP stand-ins plus
//!   real ResNet-20-shaped and VGG-11-shaped CNNs — and the memoized
//!   victim zoo ([`models::ModelKind`]);
//! - [`storage`]: the DRAM weight layout — deploys quantized weights
//!   into [`dlk_dram`] rows and reads them back, so RowHammer flips in
//!   DRAM *are* weight corruptions at inference time.
//!
//! ## Example
//!
//! ```
//! use dlk_dnn::data::SyntheticDataset;
//! use dlk_dnn::models;
//! use dlk_dnn::quant::QuantNetwork;
//! use dlk_dnn::train::{Trainer, TrainConfig};
//!
//! let dataset = SyntheticDataset::tiny_for_tests(42);
//! let mut model = models::tiny_mlp(42);
//! Trainer::new(TrainConfig::fast_for_tests()).fit(&mut model, &dataset);
//! assert!(model.accuracy(&dataset.test_x, &dataset.test_y).unwrap() > 0.6);
//! let quantized = QuantNetwork::quantize(&model);
//! assert!(quantized.total_weights() > 0);
//! ```

// DLK001: the request path returns typed errors instead of panicking,
// because a panic there takes down a whole sweep worker. Test code is exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod conv;
pub mod data;
pub mod error;
pub mod layers;
pub mod models;
pub mod network;
pub mod quant;
pub mod storage;
pub mod tensor;
pub mod train;

pub use crate::conv::{Conv2d, ConvSpec, Pool2d};
pub use crate::data::SyntheticDataset;
pub use crate::error::DnnError;
pub use crate::layers::Linear;
pub use crate::network::{Layer, LayerGrads, Network};
pub use crate::quant::{BitIndex, QuantConv2d, QuantLayer, QuantLinear, QuantNetwork, TrialRecord};
pub use crate::storage::WeightLayout;
pub use crate::tensor::Tensor;
pub use crate::train::{TrainConfig, TrainReport, Trainer};
