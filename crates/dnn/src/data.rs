//! Deterministic synthetic classification datasets.
//!
//! The paper evaluates on CIFAR-10 (ResNet-20) and CIFAR-100 (VGG-11).
//! Real CIFAR is unavailable offline, so we substitute Gaussian-cluster
//! datasets with the same class counts: each class is an anisotropic
//! Gaussian blob around a random unit-norm centroid. This preserves
//! everything BFA dynamics depend on — a trained, quantized network
//! whose accuracy collapses to chance under targeted weight corruption.
//! The convolutional victims get the image counterpart,
//! [`SyntheticDataset::images`]: smoothed random patterns on a small
//! single-channel grid (1×8×8 for the CIFAR stand-ins), so class
//! evidence has the spatial structure convolution and pooling exploit.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::tensor::Tensor;

/// A labelled train/test split.
///
/// # Example
///
/// ```
/// use dlk_dnn::SyntheticDataset;
/// let dataset = SyntheticDataset::generate(10, 16, 50, 20, 1.8, 42);
/// assert_eq!(dataset.num_classes, 10);
/// assert_eq!(dataset.train_x.rows(), 500);
/// assert_eq!(dataset.test_x.rows(), 200);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticDataset {
    /// Number of classes.
    pub num_classes: usize,
    /// Feature dimension.
    pub dim: usize,
    /// Training inputs `(n_train, dim)`.
    pub train_x: Tensor,
    /// Training labels.
    pub train_y: Vec<usize>,
    /// Test inputs `(n_test, dim)`.
    pub test_x: Tensor,
    /// Test labels.
    pub test_y: Vec<usize>,
}

impl SyntheticDataset {
    /// Generates a dataset of `classes` Gaussian blobs in `dim`
    /// dimensions with `per_class_train`/`per_class_test` samples per
    /// class. `separation` scales centroid distance relative to the
    /// unit noise; ~2.0 gives a problem a small MLP solves with >90%
    /// test accuracy without being trivial.
    pub fn generate(
        classes: usize,
        dim: usize,
        per_class_train: usize,
        per_class_test: usize,
        separation: f32,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let centroids: Vec<Vec<f32>> = (0..classes)
            .map(|_| {
                let v: Vec<f32> = (0..dim).map(|_| rng.random_range(-1.0f32..1.0)).collect();
                let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
                v.into_iter().map(|x| x / norm * separation).collect()
            })
            .collect();

        let sample = |count: usize, rng: &mut StdRng| {
            let mut xs = Vec::with_capacity(classes * count * dim);
            let mut ys = Vec::with_capacity(classes * count);
            for (class, centroid) in centroids.iter().enumerate() {
                for _ in 0..count {
                    for &c in centroid {
                        xs.push(c + gaussian(rng));
                    }
                    ys.push(class);
                }
            }
            (Tensor::from_vec(classes * count, dim, xs), ys)
        };
        let (train_x, train_y) = sample(per_class_train, &mut rng);
        let (test_x, test_y) = sample(per_class_test, &mut rng);
        Self { num_classes: classes, dim, train_x, train_y, test_x, test_y }
    }

    /// The CIFAR-10 stand-in: 10 classes, 32 features.
    pub fn cifar10_like(seed: u64) -> Self {
        Self::generate(10, 32, 80, 32, 3.7, seed)
    }

    /// The CIFAR-100 stand-in: 100 classes, 64 features.
    pub fn cifar100_like(seed: u64) -> Self {
        Self::generate(100, 64, 24, 8, 4.2, seed)
    }

    /// A tiny dataset for unit tests: 4 classes, 8 features.
    pub fn tiny_for_tests(seed: u64) -> Self {
        Self::generate(4, 8, 30, 12, 3.0, seed)
    }

    /// Generates an *image* dataset of `classes` patterns on a `h`×`w`
    /// single-channel grid. Class centroids are random fields smoothed
    /// with repeated 3×3 box filters, so class evidence lives in the
    /// low spatial frequencies — the structure convolution and pooling
    /// exploit (white per-pixel Gaussian noise is added per sample, as
    /// in [`SyntheticDataset::generate`]).
    pub fn images(
        classes: usize,
        h: usize,
        w: usize,
        per_class_train: usize,
        per_class_test: usize,
        separation: f32,
        seed: u64,
    ) -> Self {
        let dim = h * w;
        let mut rng = StdRng::seed_from_u64(seed);
        let centroids: Vec<Vec<f32>> = (0..classes)
            .map(|_| {
                let mut p: Vec<f32> = (0..dim).map(|_| rng.random_range(-1.0f32..1.0)).collect();
                // Two smoothing passes concentrate energy in low
                // frequencies without flattening the pattern.
                for _ in 0..2 {
                    p = box_smooth(&p, h, w);
                }
                let norm = p.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
                p.into_iter().map(|x| x / norm * separation).collect()
            })
            .collect();
        let sample = |count: usize, rng: &mut StdRng| {
            let mut xs = Vec::with_capacity(classes * count * dim);
            let mut ys = Vec::with_capacity(classes * count);
            for (class, centroid) in centroids.iter().enumerate() {
                for _ in 0..count {
                    for &c in centroid {
                        xs.push(c + gaussian(rng));
                    }
                    ys.push(class);
                }
            }
            (Tensor::from_vec(classes * count, dim, xs), ys)
        };
        let (train_x, train_y) = sample(per_class_train, &mut rng);
        let (test_x, test_y) = sample(per_class_test, &mut rng);
        Self { num_classes: classes, dim, train_x, train_y, test_x, test_y }
    }

    /// The CIFAR-10 stand-in for *convolutional* victims: 10 classes of
    /// 1×8×8 images (64 features, interpreted channel-major by the CNN
    /// models in [`models`](crate::models)).
    pub fn cifar10_images(seed: u64) -> Self {
        Self::images(10, 8, 8, 40, 16, 6.0, seed)
    }

    /// The CIFAR-100 stand-in for convolutional victims: 100 classes of
    /// 1×8×8 images.
    pub fn cifar100_images(seed: u64) -> Self {
        Self::images(100, 8, 8, 16, 6, 7.0, seed)
    }

    /// A tiny image dataset for CNN unit tests: 4 classes of 1×6×6
    /// images (36 features).
    pub fn tiny_images_for_tests(seed: u64) -> Self {
        Self::images(4, 6, 6, 30, 12, 5.0, seed)
    }

    /// Random accuracy level (1 / classes) — what a destroyed model
    /// converges to.
    pub fn chance_accuracy(&self) -> f64 {
        1.0 / self.num_classes as f64
    }

    /// A deterministic evaluation subsample of the test set of up to
    /// `n` rows (the paper uses 128-image samples for the attacks).
    pub fn test_sample(&self, n: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let total = self.test_x.rows();
        let take = n.min(total);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut indices: Vec<usize> = (0..total).collect();
        // Fisher-Yates shuffle, then take the prefix.
        for i in (1..total).rev() {
            let j = rng.random_range(0..=i);
            indices.swap(i, j);
        }
        let mut xs = Vec::with_capacity(take * self.dim);
        let mut ys = Vec::with_capacity(take);
        for &index in indices.iter().take(take) {
            xs.extend_from_slice(self.test_x.row(index));
            ys.push(self.test_y[index]);
        }
        (Tensor::from_vec(take, self.dim, xs), ys)
    }
}

/// One 3×3 box-filter pass over an `h`×`w` grid (edge-clamped).
fn box_smooth(p: &[f32], h: usize, w: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; p.len()];
    for y in 0..h {
        for x in 0..w {
            let mut acc = 0.0;
            let mut n = 0.0;
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    let (sy, sx) = (y as i64 + dy, x as i64 + dx);
                    if sy >= 0 && sx >= 0 && (sy as usize) < h && (sx as usize) < w {
                        acc += p[sy as usize * w + sx as usize];
                        n += 1.0;
                    }
                }
            }
            out[y * w + x] = acc / n;
        }
    }
    out
}

/// Standard normal sample via Box-Muller.
fn gaussian(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.random_range(1e-7f32..1.0);
    let u2: f32 = rng.random_range(0.0f32..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_labels_consistent() {
        let ds = SyntheticDataset::generate(3, 5, 10, 4, 2.0, 1);
        assert_eq!(ds.train_x.shape(), (30, 5));
        assert_eq!(ds.train_y.len(), 30);
        assert_eq!(ds.test_x.shape(), (12, 5));
        assert!(ds.train_y.iter().all(|&y| y < 3));
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(SyntheticDataset::tiny_for_tests(5), SyntheticDataset::tiny_for_tests(5));
        assert_ne!(SyntheticDataset::tiny_for_tests(5), SyntheticDataset::tiny_for_tests(6));
    }

    #[test]
    fn classes_are_balanced() {
        let ds = SyntheticDataset::generate(4, 3, 7, 2, 2.0, 9);
        for class in 0..4 {
            assert_eq!(ds.train_y.iter().filter(|&&y| y == class).count(), 7);
            assert_eq!(ds.test_y.iter().filter(|&&y| y == class).count(), 2);
        }
    }

    #[test]
    fn chance_accuracy_is_reciprocal() {
        let ds = SyntheticDataset::cifar10_like(0);
        assert!((ds.chance_accuracy() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn test_sample_deterministic_and_bounded() {
        let ds = SyntheticDataset::tiny_for_tests(2);
        let (xa, ya) = ds.test_sample(10, 3);
        let (xb, yb) = ds.test_sample(10, 3);
        assert_eq!(xa, xb);
        assert_eq!(ya, yb);
        assert_eq!(xa.rows(), 10);
        let (all, _) = ds.test_sample(10_000, 3);
        assert_eq!(all.rows(), ds.test_x.rows());
    }

    #[test]
    fn cifar100_like_has_100_classes() {
        let ds = SyntheticDataset::cifar100_like(1);
        assert_eq!(ds.num_classes, 100);
        assert!(ds.train_x.rows() >= 100);
    }
}
