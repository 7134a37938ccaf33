//! A minimal 2-D tensor (row-major `f32` matrix).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::error::DnnError;

/// A row-major 2-D tensor of `f32`.
///
/// # Example
///
/// ```
/// use dlk_dnn::Tensor;
/// let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Tensor::eye(2);
/// let c = a.matmul(&b).unwrap();
/// assert_eq!(c.get(1, 0), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// A zero tensor of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// The identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(n, n);
        for i in 0..n {
            t.set(i, i, 1.0);
        }
        t
    }

    /// Builds a tensor from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let cols = rows.first().map_or(0, |r| r.len());
        assert!(rows.iter().all(|r| r.len() == cols), "ragged rows");
        Self { rows: rows.len(), cols, data: rows.iter().flat_map(|r| r.iter().copied()).collect() }
    }

    /// Builds a tensor from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must match shape");
        Self { rows, cols, data }
    }

    /// Kaiming-style random init: N(0, sqrt(2/fan_in)), deterministic
    /// per seed.
    pub fn randn(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let std = (2.0 / cols as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| {
                // Box-Muller from two uniforms.
                let u1: f32 = rng.random_range(1e-7f32..1.0);
                let u2: f32 = rng.random_range(0.0f32..1.0);
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos() * std
            })
            .collect();
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        self.data[row * self.cols + col]
    }

    /// Sets element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        self.data[row * self.cols + col] = value;
    }

    /// Flat row-major view.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One row as a slice.
    pub fn row(&self, row: usize) -> &[f32] {
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// The explicit transpose `(cols, rows)` — the bridge that lets
    /// every matrix-product variant run through the one blocked GEMM
    /// kernel. Copies tile by tile, so the strided side of a large
    /// transpose, such as a conv's patch matrix, stays in cache.
    pub fn transposed(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for i0 in (0..self.rows).step_by(TRANSPOSE_TILE) {
            for j0 in (0..self.cols).step_by(TRANSPOSE_TILE) {
                for i in i0..(i0 + TRANSPOSE_TILE).min(self.rows) {
                    for j in j0..(j0 + TRANSPOSE_TILE).min(self.cols) {
                        out.data[j * self.rows + i] = self.data[i * self.cols + j];
                    }
                }
            }
        }
        out
    }

    /// Matrix product `self (m,k) × other (k,n) -> (m,n)` via the
    /// blocked kernel (`gemm_acc`).
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] if inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, DnnError> {
        if self.cols != other.rows {
            return Err(DnnError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Tensor::zeros(self.rows, other.cols);
        gemm_acc(&mut out.data, &self.data, &other.data, self.rows, self.cols, other.cols);
        Ok(out)
    }

    /// `self (m,k) × otherᵀ (n,k) -> (m,n)` — the forward-pass product
    /// behind every dense layer. Runs the same blocked kernel as
    /// [`Tensor::matmul`] over the materialized transpose: the
    /// row-blocked, unrolled accumulation vectorizes, where the old
    /// per-output scalar dot product was bound by the
    /// floating-point add latency chain.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] if inner dimensions differ.
    pub fn matmul_transpose(&self, other: &Tensor) -> Result<Tensor, DnnError> {
        if self.cols != other.cols {
            return Err(DnnError::ShapeMismatch {
                op: "matmul_transpose",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let bt = other.transposed();
        let mut out = Tensor::zeros(self.rows, other.rows);
        gemm_acc(&mut out.data, &self.data, &bt.data, self.rows, self.cols, other.rows);
        Ok(out)
    }

    /// `selfᵀ (k,m) × other (k,n) -> (m,n)` (used for weight
    /// gradients: `dW = dYᵀ X`), through the same blocked kernel.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] if row counts differ.
    pub fn transpose_matmul(&self, other: &Tensor) -> Result<Tensor, DnnError> {
        if self.rows != other.rows {
            return Err(DnnError::ShapeMismatch {
                op: "transpose_matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let at = self.transposed();
        let mut out = Tensor::zeros(self.cols, other.cols);
        gemm_acc(&mut out.data, &at.data, &other.data, self.cols, self.rows, other.cols);
        Ok(out)
    }

    /// Pre-refactor scalar `matmul`, kept as the oracle for the
    /// blocked kernel (exact-equivalence tests; the layered bench
    /// reports the MFLOP/s ratio as `dnn/gemm_vs_reference`).
    #[doc(hidden)]
    pub fn matmul_reference(&self, other: &Tensor) -> Result<Tensor, DnnError> {
        if self.cols != other.rows {
            return Err(DnnError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Tensor::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let lhs_row = i * other.cols;
                for j in 0..other.cols {
                    out.data[lhs_row + j] += a * other.data[k * other.cols + j];
                }
            }
        }
        Ok(out)
    }

    /// Pre-refactor scalar `matmul_transpose`, kept as the oracle for
    /// the blocked kernel.
    #[doc(hidden)]
    pub fn matmul_transpose_reference(&self, other: &Tensor) -> Result<Tensor, DnnError> {
        if self.cols != other.cols {
            return Err(DnnError::ShapeMismatch {
                op: "matmul_transpose",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Tensor::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            for j in 0..other.rows {
                let mut acc = 0.0;
                for k in 0..self.cols {
                    acc += self.data[i * self.cols + k] * other.data[j * other.cols + k];
                }
                out.data[i * other.rows + j] = acc;
            }
        }
        Ok(out)
    }

    /// Pre-refactor scalar `transpose_matmul`, kept as the oracle for
    /// the blocked kernel.
    #[doc(hidden)]
    pub fn transpose_matmul_reference(&self, other: &Tensor) -> Result<Tensor, DnnError> {
        if self.rows != other.rows {
            return Err(DnnError::ShapeMismatch {
                op: "transpose_matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Tensor::zeros(self.cols, other.cols);
        for k in 0..self.rows {
            for i in 0..self.cols {
                let a = self.data[k * self.cols + i];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.data[i * other.cols + j] += a * other.data[k * other.cols + j];
                }
            }
        }
        Ok(out)
    }

    /// Element-wise in-place addition.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<(), DnnError> {
        if self.shape() != other.shape() {
            return Err(DnnError::ShapeMismatch {
                op: "add_assign",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// In-place scale by a constant.
    pub fn scale(&mut self, factor: f32) {
        for value in &mut self.data {
            *value *= factor;
        }
    }

    /// Maximum absolute element (0 for empty tensors).
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// In-place ReLU.
    pub fn relu_inplace(&mut self) {
        for value in &mut self.data {
            if *value < 0.0 {
                *value = 0.0;
            }
        }
    }
}

/// Tile side of [`Tensor::transposed`]: a 32×32 `f32` tile is 4 KiB
/// read and 4 KiB written, both resident in L1.
const TRANSPOSE_TILE: usize = 32;

/// `k`-block width of the shared GEMM kernel: a 256-element slice of a
/// `b` row is 1 KiB, so one block of `b` rows stays resident in L1/L2
/// while the `i` loop streams over it.
const GEMM_KC: usize = 256;

/// `j`-unroll width: eight independent output accumulators per step,
/// wide enough for LLVM to keep the inner loop in vector registers.
const GEMM_JU: usize = 8;

/// The one blocked GEMM kernel behind [`Tensor::matmul`],
/// [`Tensor::matmul_transpose`], [`Tensor::transpose_matmul`] and
/// every [`Conv2d`](crate::conv::Conv2d) product:
/// `out (m,n) += a (m,k) × b (k,n)`, all row-major.
///
/// Bit-exact with the pre-refactor scalar loops: each output element
/// accumulates its products in ascending-`k` order (the `k` blocks are
/// visited in order, and within a block `k` ascends), and the
/// zero-skip only elides `±0.0` contributions, which cannot change an
/// accumulator that starts at `+0.0` for finite inputs.
pub(crate) fn gemm_acc(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    for k0 in (0..k).step_by(GEMM_KC) {
        let kb = GEMM_KC.min(k - k0);
        for i in 0..m {
            let a_row = &a[i * k + k0..i * k + k0 + kb];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (dk, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &b[(k0 + dk) * n..(k0 + dk + 1) * n];
                let mut out_chunks = out_row.chunks_exact_mut(GEMM_JU);
                let mut b_chunks = b_row.chunks_exact(GEMM_JU);
                for (oc, bc) in out_chunks.by_ref().zip(b_chunks.by_ref()) {
                    for u in 0..GEMM_JU {
                        oc[u] += av * bc[u];
                    }
                }
                for (o, &bv) in out_chunks.into_remainder().iter_mut().zip(b_chunks.remainder()) {
                    *o += av * bv;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let out = a.matmul(&Tensor::eye(2)).unwrap();
        assert_eq!(out, a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0]]);
        let b = Tensor::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let out = a.matmul(&b).unwrap();
        assert_eq!(out.shape(), (1, 1));
        assert_eq!(out.get(0, 0), 14.0);
    }

    #[test]
    fn matmul_shape_mismatch_rejected() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_variants_agree_with_explicit_transpose() {
        let a = Tensor::randn(3, 4, 1);
        let b = Tensor::randn(5, 4, 2);
        // a (3,4) x b^T (4,5) = (3,5)
        let direct = a.matmul_transpose(&b).unwrap();
        // Build b^T explicitly and compare.
        let mut bt = Tensor::zeros(4, 5);
        for i in 0..5 {
            for j in 0..4 {
                bt.set(j, i, b.get(i, j));
            }
        }
        let explicit = a.matmul(&bt).unwrap();
        for (x, y) in direct.as_slice().iter().zip(explicit.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn transpose_matmul_matches() {
        let a = Tensor::randn(6, 3, 3);
        let b = Tensor::randn(6, 2, 4);
        let got = a.transpose_matmul(&b).unwrap(); // (3,2)
        assert_eq!(got.shape(), (3, 2));
        // Element (i,j) = sum_k a[k,i] * b[k,j]
        let mut want = 0.0;
        for k in 0..6 {
            want += a.get(k, 1) * b.get(k, 0);
        }
        assert!((got.get(1, 0) - want).abs() < 1e-5);
    }

    #[test]
    fn randn_is_deterministic_and_seed_sensitive() {
        assert_eq!(Tensor::randn(4, 4, 9), Tensor::randn(4, 4, 9));
        assert_ne!(Tensor::randn(4, 4, 9), Tensor::randn(4, 4, 10));
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut t = Tensor::from_rows(&[&[-1.0, 2.0], &[0.5, -3.0]]);
        t.relu_inplace();
        assert_eq!(t.as_slice(), &[0.0, 2.0, 0.5, 0.0]);
    }

    #[test]
    fn abs_max_over_signs() {
        let t = Tensor::from_rows(&[&[-5.0, 2.0]]);
        assert_eq!(t.abs_max(), 5.0);
    }

    #[test]
    fn add_assign_and_scale() {
        let mut a = Tensor::from_rows(&[&[1.0, 2.0]]);
        let b = Tensor::from_rows(&[&[3.0, 4.0]]);
        a.add_assign(&b).unwrap();
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[8.0, 12.0]);
        assert!(a.add_assign(&Tensor::zeros(2, 2)).is_err());
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_validates_length() {
        let _ = Tensor::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn transposed_known_values() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transposed();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(t.transposed(), a);
    }

    #[test]
    fn transposed_spans_partial_tiles() {
        let a = Tensor::randn(37, 70, 5);
        let t = a.transposed();
        assert_eq!(t.shape(), (70, 37));
        for i in 0..37 {
            for j in 0..70 {
                assert_eq!(t.get(j, i).to_bits(), a.get(i, j).to_bits());
            }
        }
        assert_eq!(t.transposed(), a);
    }

    /// Shapes chosen to hit every kernel corner: empty, 1×1, sizes
    /// below/at/above the `GEMM_JU` unroll remainder, and a `k` larger
    /// than `GEMM_KC` so multiple blocks run.
    fn equivalence_shapes() -> Vec<(usize, usize, usize)> {
        vec![(0, 0, 0), (1, 1, 1), (2, 3, 5), (3, 7, 8), (5, 9, 11), (4, 300, 17), (8, 513, 9)]
    }

    #[test]
    fn blocked_matmul_bit_exact_vs_reference() {
        for (seed, (m, k, n)) in equivalence_shapes().into_iter().enumerate() {
            let a = Tensor::randn(m, k, seed as u64);
            let b = Tensor::randn(k, n, seed as u64 + 100);
            let new = a.matmul(&b).unwrap();
            let old = a.matmul_reference(&b).unwrap();
            assert_eq!(new.as_slice(), old.as_slice(), "matmul {m}x{k}x{n}");
        }
    }

    #[test]
    fn blocked_matmul_transpose_bit_exact_vs_reference() {
        for (seed, (m, k, n)) in equivalence_shapes().into_iter().enumerate() {
            let a = Tensor::randn(m, k, seed as u64 + 200);
            let b = Tensor::randn(n, k, seed as u64 + 300);
            let new = a.matmul_transpose(&b).unwrap();
            let old = a.matmul_transpose_reference(&b).unwrap();
            assert_eq!(new.as_slice(), old.as_slice(), "matmul_transpose {m}x{k}x{n}");
        }
    }

    #[test]
    fn blocked_transpose_matmul_bit_exact_vs_reference() {
        for (seed, (m, k, n)) in equivalence_shapes().into_iter().enumerate() {
            let a = Tensor::randn(k, m, seed as u64 + 400);
            let b = Tensor::randn(k, n, seed as u64 + 500);
            let new = a.transpose_matmul(&b).unwrap();
            let old = a.transpose_matmul_reference(&b).unwrap();
            assert_eq!(new.as_slice(), old.as_slice(), "transpose_matmul {m}x{k}x{n}");
        }
    }

    #[test]
    fn blocked_kernel_bit_exact_with_zero_rich_inputs() {
        // Sparse inputs exercise the zero-skip path; exact zeros must
        // not perturb the accumulation order of the nonzero terms.
        let mut a = Tensor::randn(6, 40, 77);
        for i in 0..6 {
            for j in 0..40 {
                if (i + j) % 3 != 0 {
                    a.set(i, j, 0.0);
                }
            }
        }
        let b = Tensor::randn(40, 5, 78);
        assert_eq!(a.matmul(&b).unwrap(), a.matmul_reference(&b).unwrap());
        let bt = Tensor::randn(5, 40, 79);
        assert_eq!(a.matmul_transpose(&bt).unwrap(), a.matmul_transpose_reference(&bt).unwrap());
        let a2 = a.transposed();
        assert_eq!(a2.transpose_matmul(&b).unwrap(), a2.transpose_matmul_reference(&b).unwrap());
    }

    #[test]
    fn reference_paths_reject_same_shape_mismatches() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        assert!(a.matmul_reference(&b).is_err());
        assert!(a.matmul_transpose(&Tensor::zeros(2, 4)).is_err());
        assert!(a.matmul_transpose_reference(&Tensor::zeros(2, 4)).is_err());
        assert!(a.transpose_matmul(&Tensor::zeros(3, 3)).is_err());
        assert!(a.transpose_matmul_reference(&Tensor::zeros(3, 3)).is_err());
    }
}
