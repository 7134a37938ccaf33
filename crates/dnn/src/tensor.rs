//! A minimal 2-D tensor (row-major `f32` matrix).

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

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
#[derive(Debug, Clone, PartialEq)]
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

    /// The flat row-major data, moved out.
    pub(crate) fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// A copy of the rows in `rows`.
    pub(crate) fn row_block(&self, rows: Range<usize>) -> Tensor {
        let data = self.data[rows.start * self.cols..rows.end * self.cols].to_vec();
        Tensor { rows: rows.len(), cols: self.cols, data }
    }

    /// `parts`' rows one after another, in order: the inverse of
    /// cutting a tensor into [`Tensor::row_block`]s.
    ///
    /// # Panics
    ///
    /// Panics if the parts differ in width.
    pub(crate) fn stack(parts: &[&Tensor]) -> Tensor {
        let cols = parts.first().map_or(0, |part| part.cols);
        let mut data = Vec::with_capacity(parts.iter().map(|part| part.data.len()).sum());
        for part in parts {
            data.extend_from_slice(&part.data);
        }
        Tensor::from_vec(parts.iter().map(|part| part.rows).sum(), cols, data)
    }

    /// The explicit transpose `(cols, rows)` — the bridge that lets
    /// every matrix-product variant run through the one blocked GEMM
    /// kernel: dense-layer weights and gradients, conv kernel matrices,
    /// and the patch matrix of a conv the backward lane kernel does not
    /// take. Copies tile by tile, so the strided side of a large
    /// transpose stays in cache.
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

    /// In-place ReLU: every negative element becomes `+0.0`; `-0.0`
    /// and NaN pass through unchanged. Written as a select rather than
    /// a branch, so it vectorizes and does not mispredict on the random
    /// signs of an activation.
    pub fn relu_inplace(&mut self) {
        for value in &mut self.data {
            *value = if *value < 0.0 { 0.0 } else { *value };
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
/// one AVX register (two SSE registers) of `f32`.
const GEMM_JU: usize = 8;

/// `k` steps fused per pass over an output row: each 8-float output
/// chunk is loaded once and stored once per four products.
const GEMM_KU: usize = 4;

/// The one blocked GEMM kernel behind [`Tensor::matmul`],
/// [`Tensor::matmul_transpose`], [`Tensor::transpose_matmul`] and
/// every [`Conv2d`](crate::conv::Conv2d) product but the weight
/// gradient its lane kernel computes:
/// `out (m,n) += a (m,k) × b (k,n)`, all row-major.
///
/// Bit-exact with the pre-refactor scalar loops: each output element
/// accumulates its products in ascending-`k` order, one rounded
/// multiply and one rounded add per product. The `k` blocks are
/// visited in order; within a block, `k` is taken four at a time, and
/// each output chunk adds its four products one by one in ascending
/// `k` before it is stored, so holding the chunk in registers across
/// the group changes no sum. A group holding a zero `a` falls back to
/// one step per `k`, so the zero-skip elides exactly the `±0.0`
/// contributions it always did (they cannot change an accumulator that
/// starts at `+0.0` for finite inputs), and the `k % 4` tail runs the
/// same single steps.
///
/// The body is compiled twice: as is, and inside a function with AVX2
/// enabled, which this one calls when the CPU reports AVX2 at run time.
/// Only `avx2` is enabled, never `fma`: a fused multiply-add rounds
/// once where the scalar loop rounds twice, which would move every sum.
pub(crate) fn gemm_acc(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `gemm_acc_avx2` enables only `avx2`, which the CPU
        // running this call was just checked to support.
        unsafe { gemm_acc_avx2(out, a, b, m, k, n) };
        return;
    }
    gemm_acc_body(out, a, b, m, k, n);
}

/// [`gemm_acc_body`] compiled with AVX2 (and so 8-wide vectors).
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_acc_avx2(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    gemm_acc_body(out, a, b, m, k, n);
}

/// [`gemm_acc`]'s one hand-written body. `#[inline(always)]`, like
/// its helpers, so that each caller compiles it with its own target
/// features.
#[inline(always)]
fn gemm_acc_body(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    for k0 in (0..k).step_by(GEMM_KC) {
        let kb = GEMM_KC.min(k - k0);
        let b_block = &b[k0 * n..(k0 + kb) * n];
        for i in 0..m {
            let a_row = &a[i * k + k0..i * k + k0 + kb];
            let out_row = &mut out[i * n..(i + 1) * n];
            let mut groups = a_row.chunks_exact(GEMM_KU);
            for (g, group) in groups.by_ref().enumerate() {
                let b_rows = &b_block[g * GEMM_KU * n..(g + 1) * GEMM_KU * n];
                if group.contains(&0.0) {
                    for (dk, &av) in group.iter().enumerate() {
                        axpy(out_row, av, &b_rows[dk * n..(dk + 1) * n]);
                    }
                } else {
                    let (b0, rest) = b_rows.split_at(n);
                    let (b1, rest) = rest.split_at(n);
                    let (b2, b3) = rest.split_at(n);
                    axpy4(out_row, group, [b0, b1, b2, b3]);
                }
            }
            let tail = kb - groups.remainder().len();
            for (dk, &av) in (tail..).zip(groups.remainder()) {
                axpy(out_row, av, &b_block[dk * n..(dk + 1) * n]);
            }
        }
    }
}

/// `out += av · b_row`, one `k` step; skips `av == ±0.0`.
#[inline(always)]
fn axpy(out: &mut [f32], av: f32, b_row: &[f32]) {
    if av == 0.0 {
        return;
    }
    let mut out_chunks = out.chunks_exact_mut(GEMM_JU);
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

/// Four `k` steps in one pass: `out += a[0]·b[0] + … + a[3]·b[3]`,
/// each product added to the output in turn, in ascending `k`.
#[inline(always)]
fn axpy4(out: &mut [f32], a: &[f32], b: [&[f32]; GEMM_KU]) {
    let (a0, a1, a2, a3) = (a[0], a[1], a[2], a[3]);
    let mut out_chunks = out.chunks_exact_mut(GEMM_JU);
    let mut c0 = b[0].chunks_exact(GEMM_JU);
    let mut c1 = b[1].chunks_exact(GEMM_JU);
    let mut c2 = b[2].chunks_exact(GEMM_JU);
    let mut c3 = b[3].chunks_exact(GEMM_JU);
    let chunks = out_chunks.by_ref().zip(c0.by_ref()).zip(c1.by_ref());
    for ((((oc, x0), x1), x2), x3) in chunks.zip(c2.by_ref()).zip(c3.by_ref()) {
        for u in 0..GEMM_JU {
            let mut v = oc[u];
            v += a0 * x0[u];
            v += a1 * x1[u];
            v += a2 * x2[u];
            v += a3 * x3[u];
            oc[u] = v;
        }
    }
    let tail = out_chunks.into_remainder().iter_mut().zip(c0.remainder()).zip(c1.remainder());
    for ((((o, &x0), &x1), &x2), &x3) in tail.zip(c2.remainder()).zip(c3.remainder()) {
        let mut v = *o;
        v += a0 * x0;
        v += a1 * x1;
        v += a2 * x2;
        v += a3 * x3;
        *o = v;
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

    /// Both compilations of the kernel body against the scalar oracle,
    /// bit for bit: the plain one, which a host with AVX2 never
    /// dispatches to, and whichever `gemm_acc` picks here. On top of
    /// `equivalence_shapes` (whose `k` ends in remainders of 1 and 3
    /// after the groups of four), `k` remainders of 2 within one and
    /// after a second `GEMM_KC` block, a zero-rich `a`, and groups of
    /// four holding exactly one zero, against an infinite `b` row that
    /// only the zero-skip keeps out of the sums.
    #[test]
    fn plain_and_dispatched_kernels_bit_exact_vs_reference() {
        let shapes = equivalence_shapes().into_iter().chain([(3, 6, 13), (2, 258, 20)]);
        let mut cases: Vec<(Tensor, Tensor)> = shapes
            .enumerate()
            .map(|(seed, (m, k, n))| {
                (Tensor::randn(m, k, seed as u64 + 600), Tensor::randn(k, n, seed as u64 + 700))
            })
            .collect();
        let mut sparse = Tensor::randn(6, 41, 80);
        for (i, v) in sparse.as_mut_slice().iter_mut().enumerate() {
            if i % 3 != 0 {
                *v = 0.0;
            }
        }
        cases.push((sparse, Tensor::randn(41, 19, 81)));
        let mut one_zero = Tensor::randn(3, 10, 82);
        let mut b = Tensor::randn(10, 12, 83);
        for i in 0..3 {
            one_zero.set(i, 2, if i == 1 { -0.0 } else { 0.0 });
            one_zero.set(i, 5, 0.0);
        }
        for j in 0..12 {
            b.set(2, j, f32::INFINITY);
            b.set(5, j, f32::NEG_INFINITY);
        }
        cases.push((one_zero, b));
        type Kernel = fn(&mut [f32], &[f32], &[f32], usize, usize, usize);
        let kernels: [(&str, Kernel); 2] = [("plain", gemm_acc_body), ("dispatched", gemm_acc)];
        for (a, b) in &cases {
            let (m, k, n) = (a.rows(), a.cols(), b.cols());
            let want = a.matmul_reference(b).unwrap();
            assert!(want.as_slice().iter().all(|v| v.is_finite()), "{m}x{k}x{n}");
            for (name, kernel) in kernels {
                let mut out = vec![0.0; m * n];
                kernel(&mut out, a.as_slice(), b.as_slice(), m, k, n);
                for (i, (got, want)) in out.iter().zip(want.as_slice()).enumerate() {
                    assert_eq!(got.to_bits(), want.to_bits(), "{name} {m}x{k}x{n} [{i}]");
                }
            }
        }
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
