//! Convolutional and pooling layers with hand-written backprop.
//!
//! Feature maps travel between layers as the workspace's 2-D
//! [`Tensor`]: each batch row is one image flattened channel-major,
//! `features[c * h * w + y * w + x]`. A [`ConvSpec`] carries the
//! spatial interpretation, so a convolution is self-describing — it
//! validates its input width and produces the next layer's width.
//!
//! The forward path uses im2col: every receptive field is unrolled
//! into a column of the channel-major patch matrix `(in_c·k·k,
//! batch·out_h·out_w)`, turning the convolution into one product of
//! the `(out_c, in_c·k·k)` kernel matrix times it. The wide
//! `batch·out_h·out_w` side is the one the GEMM kernel unrolls, even
//! for a convolution with four output channels. The kernel matrix is
//! quantized, deployed to DRAM and attacked bit-by-bit exactly like a
//! fully-connected weight matrix — which is what lets BFA walk conv
//! kernels through the same [`BitIndex`] machinery.
//!
//! The backward pass builds no patch matrix for a stride-1 3×3 conv,
//! which every conv of the model zoo is. Its weight gradient comes from
//! a lane kernel: the upstream gradient is transposed per image so the
//! output channels fill 8-float vector lanes (zero lanes pad `out_c` up
//! to a multiple of 8), and each input channel's nine taps are nine
//! eight-lane accumulators kept in registers over a zero-padded copy of
//! the image. Each weight's gradient still adds its products one at a
//! time in ascending output position from `+0.0`, and adds `+0.0` where
//! the GEMM it replaces skipped a zero gradient, which changes no bit.
//! The kernel has one body, compiled plain and with AVX2 (never FMA)
//! and picked at run time. Every other geometry multiplies the
//! gradient by the transposed patch matrix. The input gradient is one
//! GEMM for every geometry, folded back onto the image in merged runs
//! for the stride-1 "same" convs. Geometry alone picks each path, and
//! all of them give the same bits; [`Conv2d::backward`] has the
//! details.
//!
//! [`BitIndex`]: crate::quant::BitIndex

use std::ops::Range;

use crate::error::DnnError;
use crate::network::{stacked, LayerGrads};
use crate::tensor::{gemm_acc, Tensor};

/// Spatial specification of a 2-D convolution with square kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvSpec {
    /// Input channels.
    pub in_c: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Output channels.
    pub out_c: usize,
    /// Kernel side length.
    pub k: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding on each spatial border.
    pub pad: usize,
}

impl ConvSpec {
    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad - self.k) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad - self.k) / self.stride + 1
    }

    /// Flattened input width `in_c·in_h·in_w`.
    pub fn in_features(&self) -> usize {
        self.in_c * self.in_h * self.in_w
    }

    /// Flattened output width `out_c·out_h·out_w`.
    pub fn out_features(&self) -> usize {
        self.out_c * self.out_h() * self.out_w()
    }

    /// Unrolled receptive-field length `in_c·k·k` — the kernel
    /// matrix's inner dimension.
    pub fn patch_len(&self) -> usize {
        self.in_c * self.k * self.k
    }

    /// Along one axis, the output positions whose input coordinate
    /// `o·stride + tap − pad` lies inside `0..in_len`, and the first
    /// one's input coordinate; `None` where kernel offset `tap` reads
    /// only padding.
    fn span(&self, tap: usize, out_len: usize, in_len: usize) -> Option<(Range<usize>, usize)> {
        let lo = self.pad.saturating_sub(tap).div_ceil(self.stride);
        let hi = (in_len + self.pad).saturating_sub(tap).div_ceil(self.stride).min(out_len);
        (lo < hi).then(|| (lo..hi, lo * self.stride + tap - self.pad))
    }

    /// The flat in-image index tap `(c, ky, kx)` reads at output
    /// `(oy, ox)`, or `None` in the padding: the naive oracles' view of
    /// a convolution.
    #[cfg(test)]
    fn input_index(&self, c: usize, oy: usize, ox: usize, ky: usize, kx: usize) -> Option<usize> {
        let iy = (oy * self.stride + ky).checked_sub(self.pad).filter(|&iy| iy < self.in_h)?;
        let ix = (ox * self.stride + kx).checked_sub(self.pad).filter(|&ix| ix < self.in_w)?;
        Some((c * self.in_h + iy) * self.in_w + ix)
    }
}

/// A 2-D convolution layer storing its kernels as the im2col matrix
/// `(out_c, in_c·k·k)`.
///
/// # Example
///
/// ```
/// use dlk_dnn::conv::{Conv2d, ConvSpec};
/// use dlk_dnn::Tensor;
///
/// let spec = ConvSpec { in_c: 1, in_h: 4, in_w: 4, out_c: 2, k: 3, stride: 1, pad: 1 };
/// let conv = Conv2d::new(spec, 7);
/// let x = Tensor::zeros(5, spec.in_features());
/// let y = conv.forward(&x).unwrap();
/// assert_eq!(y.shape(), (5, spec.out_features()));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2d {
    weight: Tensor,
    bias: Vec<f32>,
    spec: ConvSpec,
}

/// Gradients of one convolution layer.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvGrads {
    /// dL/dW in kernel-matrix form `(out_c, in_c·k·k)`.
    pub weight: Tensor,
    /// dL/db, length `out_c`.
    pub bias: Vec<f32>,
}

impl Conv2d {
    /// Creates a layer with Kaiming-random kernels and zero bias.
    pub fn new(spec: ConvSpec, seed: u64) -> Self {
        Self {
            weight: Tensor::randn(spec.out_c, spec.patch_len(), seed),
            bias: vec![0.0; spec.out_c],
            spec,
        }
    }

    /// Creates a layer from an explicit kernel matrix.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not `(out_c, in_c·k·k)` or `bias` is not
    /// `out_c` long.
    pub fn from_parts(weight: Tensor, bias: Vec<f32>, spec: ConvSpec) -> Self {
        assert_eq!(weight.shape(), (spec.out_c, spec.patch_len()), "kernel matrix shape");
        assert_eq!(bias.len(), spec.out_c, "bias length must equal out channels");
        Self { weight, bias, spec }
    }

    /// The spatial specification.
    pub fn spec(&self) -> &ConvSpec {
        &self.spec
    }

    /// The kernel matrix `(out_c, in_c·k·k)`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Mutable kernel matrix.
    pub fn weight_mut(&mut self) -> &mut Tensor {
        &mut self.weight
    }

    /// The bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Mutable bias vector.
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias
    }

    /// The kernel matrix and bias, borrowed together for an update.
    pub(crate) fn params_mut(&mut self) -> (&mut Tensor, &mut [f32]) {
        (&mut self.weight, &mut self.bias)
    }

    fn check_input(&self, x: &Tensor) -> Result<(), DnnError> {
        if x.cols() != self.spec.in_features() {
            return Err(DnnError::ShapeMismatch {
                op: "conv2d",
                lhs: x.shape(),
                rhs: (self.spec.out_c, self.spec.in_features()),
            });
        }
        Ok(())
    }

    /// Unrolls every receptive field of `x` into a column of the patch
    /// matrix `(in_c·k·k, batch·out_h·out_w)`. Row `(c·k + ky)·k + kx`
    /// holds kernel tap `(c, ky, kx)`'s input pixel at every output
    /// position, zero where the tap overhangs the padding border.
    ///
    /// A stride-1 conv whose output is as wide as its input (every
    /// "same" conv, so every conv of the model zoo) reads a tap's valid
    /// rows of one image as one contiguous run of the input plane, and
    /// writes them as one run of the patch row: the run is copied once,
    /// and the `out_w − |valid columns|` entries that wrap from one
    /// row's end to the next row's start are zeroed again. Any other
    /// geometry copies its valid spans one output row at a time.
    fn im2col(&self, x: &Tensor) -> Tensor {
        let s = &self.spec;
        let (oh, ow) = (s.out_h(), s.out_w());
        let n = x.rows() * oh * ow;
        let merged = s.stride == 1 && ow == s.in_w;
        let mut cols = Tensor::zeros(s.patch_len(), n);
        let data = cols.as_mut_slice();
        for c in 0..s.in_c {
            for ky in 0..s.k {
                let Some((ys, _)) = s.span(ky, oh, s.in_h) else { continue };
                for kx in 0..s.k {
                    let Some((xs, first)) = s.span(kx, ow, s.in_w) else { continue };
                    let tap = ((c * s.k + ky) * s.k + kx) * n;
                    for b in 0..x.rows() {
                        let plane = &x.row(b)[c * s.in_h * s.in_w..];
                        let image = &mut data[tap + b * oh * ow..][..oh * ow];
                        if merged {
                            let run = &mut image[ys.start * ow + xs.start..];
                            let run = &mut run[..(ys.len() - 1) * ow + xs.len()];
                            let src = &plane[(ys.start + ky - s.pad) * s.in_w + first..];
                            run.copy_from_slice(&src[..run.len()]);
                            zero_wrapped(run, xs.len(), ow);
                        } else {
                            for oy in ys.clone() {
                                let src = &plane[(oy * s.stride + ky - s.pad) * s.in_w + first..];
                                gather(&mut image[oy * ow..][xs.clone()], src, s.stride);
                            }
                        }
                    }
                }
            }
        }
        cols
    }

    /// Scatter-adds patch-matrix gradients `(in_c·k·k,
    /// batch·out_h·out_w)` back onto the input image — the exact
    /// adjoint of [`Conv2d::im2col`]. Taps are visited in descending
    /// `(ky, kx)`, so each input pixel sums its contributions in
    /// ascending output position.
    ///
    /// The geometries whose rows `im2col` merges add a tap's valid rows
    /// of one image as one run of the plane, the run `im2col` copies.
    /// The run's wrapped entries are first set to `+0.0` in `d_cols`, so
    /// the pixels they land on add `+0.0`: a sum that starts at `+0.0`
    /// is never `−0.0`, so this changes no bit. Any other geometry adds
    /// one output row's valid span at a time.
    fn col2im(&self, mut d_cols: Tensor, batch: usize) -> Tensor {
        let s = &self.spec;
        let (oh, ow) = (s.out_h(), s.out_w());
        let n = batch * oh * ow;
        let merged = s.stride == 1 && ow == s.in_w;
        let plane_len = s.in_h * s.in_w;
        let mut d_x = Tensor::zeros(batch, s.in_features());
        let out = d_x.as_mut_slice();
        let cols = d_cols.as_mut_slice();
        for c in 0..s.in_c {
            for ky in (0..s.k).rev() {
                let Some((ys, _)) = s.span(ky, oh, s.in_h) else { continue };
                for kx in (0..s.k).rev() {
                    let Some((xs, first)) = s.span(kx, ow, s.in_w) else { continue };
                    let row = &mut cols[((c * s.k + ky) * s.k + kx) * n..][..n];
                    for b in 0..batch {
                        let plane = &mut out[b * s.in_features() + c * plane_len..][..plane_len];
                        let image = &mut row[b * oh * ow..][..oh * ow];
                        if merged {
                            let run = &mut image[ys.start * ow + xs.start..];
                            let run = &mut run[..(ys.len() - 1) * ow + xs.len()];
                            zero_wrapped(run, xs.len(), ow);
                            let dst = &mut plane[(ys.start + ky - s.pad) * s.in_w + first..];
                            for (d, &g) in dst[..run.len()].iter_mut().zip(run.iter()) {
                                *d += g;
                            }
                        } else {
                            for oy in ys.clone() {
                                let dst =
                                    &mut plane[(oy * s.stride + ky - s.pad) * s.in_w + first..];
                                let src = &image[oy * ow..][xs.clone()];
                                for (d, &g) in dst.iter_mut().step_by(s.stride).zip(src) {
                                    *d += g;
                                }
                            }
                        }
                    }
                }
            }
        }
        d_x
    }

    /// Forward pass: `x (batch, in_c·in_h·in_w)` →
    /// `(batch, out_c·out_h·out_w)`, channel-major. One GEMM of the
    /// kernel matrix times the patch matrix, whose wide
    /// `batch·out_h·out_w` dimension is the one the kernel unrolls.
    /// Each output sums its products in ascending patch index from
    /// `+0.0`, then adds the bias; the kernel's zero-skip elides only
    /// `±0` products of zero weights.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] on wrong input width.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor, DnnError> {
        self.check_input(x)?;
        let s = &self.spec;
        let area = s.out_h() * s.out_w();
        let n = x.rows() * area;
        let cols = self.im2col(x);
        // (out_c, batch·oh·ow)
        let mut y = vec![0.0; s.out_c * n];
        gemm_acc(&mut y, self.weight.as_slice(), cols.as_slice(), s.out_c, s.patch_len(), n);
        let mut out = Tensor::zeros(x.rows(), s.out_features());
        let data = out.as_mut_slice();
        for b in 0..x.rows() {
            for (c, &bias) in self.bias.iter().enumerate() {
                let src = &y[c * n + b * area..][..area];
                let dst = &mut data[(b * s.out_c + c) * area..][..area];
                for (o, &v) in dst.iter_mut().zip(src) {
                    *o = v + bias;
                }
            }
        }
        Ok(out)
    }

    /// Backward pass. Given the forward input `x` and upstream gradient
    /// `d_out (batch, out_c·out_h·out_w)`, returns `(grads, d_x)`.
    ///
    /// The upstream gradient is copied channel-major into `d_y (out_c,
    /// batch·out_h·out_w)`. The input gradient is one GEMM, `d_cols =
    /// Wᵀ · d_y`, folded back onto the image by `col2im`. The weight
    /// gradient takes one of two paths, chosen by geometry alone:
    ///
    /// - a stride-1 3×3 conv of any padding (every conv of the model
    ///   zoo) runs the lane kernel, which neither builds nor transposes
    ///   the patch matrix. It transposes only each image's upstream
    ///   gradient, to `(out_h·out_w, out_c)` with the output channels in
    ///   8-float vector lanes: one `(out_h·out_w, 8)` block per eight
    ///   channels, zero lanes padding the last. It reads the input from
    ///   a zero-padded copy of the image. For each input channel and
    ///   block, the nine taps are nine eight-lane accumulators held in
    ///   registers while the kernel walks the positions `(b, oy, ox)` in
    ///   ascending order;
    /// - any other geometry multiplies `d_y` by the transposed patch
    ///   matrix in one `gemm_acc`.
    ///
    /// Both paths give the same bits. Each `dW[oc][tap]` adds its
    /// products `d_y · x` one at a time, in ascending position, from
    /// `+0.0`. Where the GEMM skips a zero `d_y`, the lane kernel adds
    /// `+0.0` in its place. The accumulator is never `−0.0`, so that
    /// addition changes no bit, and an infinite activation met by a zero
    /// gradient stays out of the sum on both paths. The lane kernel has
    /// one body, compiled plain and with AVX2 and picked at run time
    /// like `gemm_acc`'s: only `avx2` is enabled, never `fma`, whose
    /// single rounding would move every sum.
    ///
    /// The input gradient (`backward_data`, each image from its own
    /// rows) and the weight and bias gradients (`weight_grads`, summed
    /// over the batch) are separate crate-private halves, which a
    /// [`Network`](crate::network::Network) gradient pass split into row
    /// blocks runs apart: the first per block, the second once over
    /// every block's rows in order.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] on inconsistent shapes.
    pub fn backward(&self, x: &Tensor, d_out: &Tensor) -> Result<(ConvGrads, Tensor), DnnError> {
        let grads = self.weight_grads(&[(x, d_out)])?;
        let d_x = self.backward_data(d_out)?;
        let weight = Tensor::from_vec(self.spec.out_c, self.spec.patch_len(), grads.weight);
        Ok((ConvGrads { weight, bias: grads.bias }, d_x))
    }

    /// The input gradient `d_x (batch, in_c·in_h·in_w)` of
    /// [`Conv2d::backward`]: `col2im(Wᵀ · d_y)`, each image from its own
    /// rows of `d_out` alone.
    pub(crate) fn backward_data(&self, d_out: &Tensor) -> Result<Tensor, DnnError> {
        let s = &self.spec;
        if d_out.cols() != s.out_features() {
            return Err(DnnError::ShapeMismatch {
                op: "conv2d backward",
                lhs: d_out.shape(),
                rhs: (d_out.rows(), s.out_features()),
            });
        }
        let plen = s.patch_len();
        let n = d_out.rows() * s.out_h() * s.out_w();
        // d_cols = Wᵀ · d_y  (in_c·k·k, batch·oh·ow)
        let weight_t = self.weight.transposed();
        let mut d_cols = Tensor::zeros(plen, n);
        gemm_acc(
            d_cols.as_mut_slice(),
            weight_t.as_slice(),
            &self.channel_major(d_out),
            plen,
            s.out_c,
            n,
        );
        Ok(self.col2im(d_cols, d_out.rows()))
    }

    /// The weight gradient `(out_c, in_c·k·k)` and bias gradient of
    /// [`Conv2d::backward`] over the batch whose row blocks `parts`
    /// holds as `(x, d_out)` pairs in row order. Every sum runs over the
    /// blocks' images in order, so it adds what the stacked batch would
    /// add, in the same order.
    pub(crate) fn weight_grads(
        &self,
        parts: &[(&Tensor, &Tensor)],
    ) -> Result<LayerGrads, DnnError> {
        let s = &self.spec;
        for &(x, d_out) in parts {
            self.check_input(x)?;
            if d_out.shape() != (x.rows(), s.out_features()) {
                return Err(DnnError::ShapeMismatch {
                    op: "conv2d backward",
                    lhs: d_out.shape(),
                    rhs: (x.rows(), s.out_features()),
                });
            }
        }
        let area = s.out_h() * s.out_w();
        let mut bias = vec![0.0f32; s.out_c];
        for &(_, d_out) in parts {
            for b in 0..d_out.rows() {
                for (c, db) in bias.iter_mut().enumerate() {
                    for &v in &d_out.row(b)[c * area..][..area] {
                        *db += v;
                    }
                }
            }
        }
        let weight = if s.k == 3 && s.stride == 1 {
            let images = parts.iter().map(|&(x, d_out)| (x.as_slice(), d_out.as_slice()));
            conv3_weight_grad(s, &images.collect::<Vec<_>>())
        } else {
            let (x, d_out) = stacked(parts);
            self.weight_grad_gemm(&x, &self.channel_major(&d_out))
        };
        Ok(LayerGrads { weight, bias })
    }

    /// The upstream gradient `d_out (batch, out_c·out_h·out_w)` copied
    /// channel-major, as `d_y (out_c, batch·out_h·out_w)`.
    fn channel_major(&self, d_out: &Tensor) -> Vec<f32> {
        let area = self.spec.out_h() * self.spec.out_w();
        let n = d_out.rows() * area;
        let mut d_y = vec![0.0f32; self.spec.out_c * n];
        for b in 0..d_out.rows() {
            for c in 0..self.spec.out_c {
                d_y[c * n + b * area..][..area].copy_from_slice(&d_out.row(b)[c * area..][..area]);
            }
        }
        d_y
    }

    /// `dW = d_y · patchesᵀ`, `(out_c, in_c·k·k)` flat, for the
    /// geometries the lane kernel does not take. `d_y` is the upstream
    /// gradient channel-major, `(out_c, batch·out_h·out_w)`.
    fn weight_grad_gemm(&self, x: &Tensor, d_y: &[f32]) -> Vec<f32> {
        let s = &self.spec;
        let n = x.rows() * s.out_h() * s.out_w();
        let patches_t = self.im2col(x).transposed();
        let mut d_weight = vec![0.0; s.out_c * s.patch_len()];
        gemm_acc(&mut d_weight, d_y, patches_t.as_slice(), s.out_c, n, s.patch_len());
        d_weight
    }
}

/// Output channels per vector of the lane kernel: one AVX register of
/// `f32`.
const LANES: usize = 8;

/// Taps of a 3×3 kernel, in kernel-matrix order `ky·3 + kx`.
const TAPS: usize = 9;

/// The weight gradient `(out_c, in_c·9)` of a stride-1 3×3 conv `s`,
/// flat, over a batch given as row blocks `(x, d_out)` in row order:
/// each block's input and upstream gradient, both flat `(rows,
/// features)` — the lane kernel of [`Conv2d::backward`]. Runs
/// [`conv3_weight_grad_body`] with AVX2 when the CPU reports it at run
/// time, as [`gemm_acc`] does.
fn conv3_weight_grad(s: &ConvSpec, blocks: &[(&[f32], &[f32])]) -> Vec<f32> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `conv3_weight_grad_avx2` enables only `avx2`, which
        // the CPU running this call was just checked to support.
        return unsafe { conv3_weight_grad_avx2(s, blocks) };
    }
    conv3_weight_grad_body(s, blocks)
}

/// [`conv3_weight_grad_body`] compiled with AVX2 (and so 8-wide
/// vectors).
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn conv3_weight_grad_avx2(s: &ConvSpec, blocks: &[(&[f32], &[f32])]) -> Vec<f32> {
    conv3_weight_grad_body(s, blocks)
}

/// [`conv3_weight_grad`]'s one hand-written body, `#[inline(always)]`
/// so that each caller compiles it with its own target features.
///
/// Per image it transposes the upstream gradient to `(groups, area,
/// LANES)`, lane `u` of group `g` holding output channel `g·LANES + u`,
/// and copies the image inside its zero border. Then, for each group
/// and each input channel, it loads that block's nine tap
/// accumulators, adds every position's products in ascending `(oy,
/// ox)` and stores them back, so across images each accumulator runs
/// in ascending `(b, oy, ox)`, `b` running over the blocks' images in
/// order.
#[inline(always)]
fn conv3_weight_grad_body(s: &ConvSpec, blocks: &[(&[f32], &[f32])]) -> Vec<f32> {
    let (oh, ow) = (s.out_h(), s.out_w());
    let area = oh * ow;
    let groups = s.out_c.div_ceil(LANES);
    let (ph, pw) = (s.in_h + 2 * s.pad, s.in_w + 2 * s.pad);
    // Block `(g·in_c + c)·TAPS + tap` accumulates group `g`'s lanes of
    // dW's column `(c, tap)`.
    let mut acc = vec![[0.0f32; LANES]; groups * s.in_c * TAPS];
    let mut grad = vec![[0.0f32; LANES]; groups * area];
    let mut padded = vec![0.0f32; s.in_c * ph * pw];
    let images = blocks.iter().flat_map(|&(x, d_out)| {
        x.chunks_exact(s.in_features()).zip(d_out.chunks_exact(s.out_features()))
    });
    for (image, d_image) in images {
        for (oc, src) in d_image.chunks_exact(area).enumerate() {
            let group = &mut grad[oc / LANES * area..][..area];
            for (lanes, &g) in group.iter_mut().zip(src) {
                lanes[oc % LANES] = g;
            }
        }
        let planes = padded.chunks_exact_mut(ph * pw).zip(image.chunks_exact(s.in_h * s.in_w));
        for (dst, src) in planes {
            let rows = dst[s.pad * pw..].chunks_exact_mut(pw).zip(src.chunks_exact(s.in_w));
            for (row, src_row) in rows {
                row[s.pad..][..s.in_w].copy_from_slice(src_row);
            }
        }
        for (acc_g, grad_g) in acc.chunks_exact_mut(s.in_c * TAPS).zip(grad.chunks_exact(area)) {
            for (acc_c, plane) in acc_g.chunks_exact_mut(TAPS).zip(padded.chunks_exact(ph * pw)) {
                let mut taps = [[0.0f32; LANES]; TAPS];
                taps.copy_from_slice(acc_c);
                for oy in 0..oh {
                    // Output row `oy` reads padded rows `oy..oy + 3`,
                    // each `ow + 2` wide.
                    let [r0, r1, r2] = [0, 1, 2].map(|ky| &plane[(oy + ky) * pw..][..ow + 2]);
                    let grad_row = &grad_g[oy * ow..][..ow];
                    for ox in 0..ow {
                        let gv = grad_row[ox];
                        #[rustfmt::skip]
                        let xs = [
                            r0[ox], r0[ox + 1], r0[ox + 2],
                            r1[ox], r1[ox + 1], r1[ox + 2],
                            r2[ox], r2[ox + 1], r2[ox + 2],
                        ];
                        for (tap, &xv) in taps.iter_mut().zip(&xs) {
                            for u in 0..LANES {
                                tap[u] += if gv[u] == 0.0 { 0.0 } else { gv[u] * xv };
                            }
                        }
                    }
                }
                acc_c.copy_from_slice(&taps);
            }
        }
    }
    let plen = s.in_c * TAPS;
    let mut d_weight = vec![0.0f32; s.out_c * plen];
    for (oc, row) in d_weight.chunks_exact_mut(plen).enumerate() {
        let block = &acc[oc / LANES * plen..][..plen];
        for (w, tap) in row.iter_mut().zip(block) {
            *w = tap[oc % LANES];
        }
    }
    d_weight
}

/// Sets to `+0.0` the entries of a merged run (see [`Conv2d::im2col`])
/// that wrap from one output row's end to the next row's start: the
/// `ow − width` entries after each row's `width` valid ones.
fn zero_wrapped(run: &mut [f32], width: usize, ow: usize) {
    for wrapped in run[width..].chunks_exact_mut(ow) {
        wrapped[..ow - width].fill(0.0);
    }
}

/// Copies every `stride`-th element of `src` into `dst`: one output
/// row's valid span of a patch-matrix row, for the geometries whose
/// rows `im2col` cannot merge. Stride 1 is one `memcpy`.
fn gather(dst: &mut [f32], src: &[f32], stride: usize) {
    if stride == 1 {
        dst.copy_from_slice(&src[..dst.len()]);
    } else {
        for (d, &v) in dst.iter_mut().zip(src.iter().step_by(stride)) {
            *d = v;
        }
    }
}

/// A 2-D pooling window (shared by max and average pooling, which
/// carry no parameters — the [`Layer`](crate::network::Layer) variant
/// picks the reduction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool2d {
    /// Channels (pooling is per-channel).
    pub channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Window side length.
    pub k: usize,
    /// Stride.
    pub stride: usize,
}

impl Pool2d {
    /// The ubiquitous 2×2/stride-2 halving window.
    pub fn halve(channels: usize, in_h: usize, in_w: usize) -> Self {
        Self { channels, in_h, in_w, k: 2, stride: 2 }
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.in_h - self.k) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w - self.k) / self.stride + 1
    }

    /// Flattened input width.
    pub fn in_features(&self) -> usize {
        self.channels * self.in_h * self.in_w
    }

    /// Flattened output width.
    pub fn out_features(&self) -> usize {
        self.channels * self.out_h() * self.out_w()
    }

    fn check_input(&self, x: &Tensor) -> Result<(), DnnError> {
        if x.cols() != self.in_features() {
            return Err(DnnError::ShapeMismatch {
                op: "pool2d",
                lhs: x.shape(),
                rhs: (self.channels, self.in_features()),
            });
        }
        Ok(())
    }

    /// Max-pool forward. Returns the output and, per output element,
    /// the flat in-row index of the winning input (for backward).
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] on wrong input width.
    pub fn forward_max(&self, x: &Tensor) -> Result<(Tensor, Vec<usize>), DnnError> {
        self.check_input(x)?;
        let (oh, ow) = (self.out_h(), self.out_w());
        let mut out = Tensor::zeros(x.rows(), self.out_features());
        let mut switches = vec![0usize; x.rows() * self.out_features()];
        for b in 0..x.rows() {
            let image = x.row(b);
            for c in 0..self.channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        // The window's first element wins when none
                        // beats −∞ (all −∞ or NaN), so the gradient
                        // still lands inside the window.
                        let mut best = f32::NEG_INFINITY;
                        let mut best_index =
                            (c * self.in_h + oy * self.stride) * self.in_w + ox * self.stride;
                        for ky in 0..self.k {
                            for kx in 0..self.k {
                                let iy = oy * self.stride + ky;
                                let ix = ox * self.stride + kx;
                                let index = (c * self.in_h + iy) * self.in_w + ix;
                                if image[index] > best {
                                    best = image[index];
                                    best_index = index;
                                }
                            }
                        }
                        let o = (c * oh + oy) * ow + ox;
                        out.set(b, o, best);
                        switches[b * self.out_features() + o] = best_index;
                    }
                }
            }
        }
        Ok((out, switches))
    }

    /// Max-pool backward: route each output gradient to the input that
    /// won the forward max.
    ///
    /// # Panics
    ///
    /// Panics if `switches` does not match `d_out`'s element count.
    pub fn backward_max(&self, d_out: &Tensor, switches: &[usize]) -> Tensor {
        assert_eq!(switches.len(), d_out.len(), "switch/grad size mismatch");
        let mut d_x = Tensor::zeros(d_out.rows(), self.in_features());
        let out = d_x.as_mut_slice();
        for b in 0..d_out.rows() {
            let grad = d_out.row(b);
            for (o, &g) in grad.iter().enumerate() {
                out[b * self.in_features() + switches[b * self.out_features() + o]] += g;
            }
        }
        d_x
    }

    /// Average-pool forward.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] on wrong input width.
    pub fn forward_avg(&self, x: &Tensor) -> Result<Tensor, DnnError> {
        self.check_input(x)?;
        let (oh, ow) = (self.out_h(), self.out_w());
        let norm = 1.0 / (self.k * self.k) as f32;
        let mut out = Tensor::zeros(x.rows(), self.out_features());
        for b in 0..x.rows() {
            let image = x.row(b);
            for c in 0..self.channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ky in 0..self.k {
                            for kx in 0..self.k {
                                let iy = oy * self.stride + ky;
                                let ix = ox * self.stride + kx;
                                acc += image[(c * self.in_h + iy) * self.in_w + ix];
                            }
                        }
                        out.set(b, (c * oh + oy) * ow + ox, acc * norm);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Average-pool backward: spread each output gradient uniformly
    /// over its window.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] on wrong gradient width.
    pub fn backward_avg(&self, d_out: &Tensor) -> Result<Tensor, DnnError> {
        if d_out.cols() != self.out_features() {
            return Err(DnnError::ShapeMismatch {
                op: "pool2d backward",
                lhs: d_out.shape(),
                rhs: (self.channels, self.out_features()),
            });
        }
        let (oh, ow) = (self.out_h(), self.out_w());
        let norm = 1.0 / (self.k * self.k) as f32;
        let mut d_x = Tensor::zeros(d_out.rows(), self.in_features());
        let out = d_x.as_mut_slice();
        for b in 0..d_out.rows() {
            let grad = d_out.row(b);
            for c in 0..self.channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = grad[(c * oh + oy) * ow + ox] * norm;
                        for ky in 0..self.k {
                            for kx in 0..self.k {
                                let iy = oy * self.stride + ky;
                                let ix = ox * self.stride + kx;
                                out[b * self.in_features()
                                    + (c * self.in_h + iy) * self.in_w
                                    + ix] += g;
                            }
                        }
                    }
                }
            }
        }
        Ok(d_x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_3x3() -> ConvSpec {
        ConvSpec { in_c: 2, in_h: 5, in_w: 4, out_c: 3, k: 3, stride: 1, pad: 1 }
    }

    /// Padded, strided, overhanging and 1×1-image convs, one whose
    /// outer taps read only padding, and the ResNet-20 CNN's 4→4 8×8
    /// and 8→12 4×4 shapes. `im2col` copies a tap's rows as one merged
    /// run for the stride-1 "same" convs, among them two non-square
    /// ones (5×4, and 3×6 with two wrapped entries per row at the outer
    /// taps), and row by row for the strided convs and the stride-1
    /// 5×6 and 4×5 convs whose output is narrower than their input.
    /// Every stride-1 3×3 conv takes its weight gradient from the lane
    /// kernel: the 12-channel conv fills two lane groups, and the
    /// 17-channel unpadded one three, the last with one live lane.
    fn oracle_specs() -> [ConvSpec; 10] {
        [
            ConvSpec { in_c: 1, in_h: 3, in_w: 1, out_c: 2, k: 5, stride: 1, pad: 2 },
            spec_3x3(),
            ConvSpec { in_c: 1, in_h: 6, in_w: 6, out_c: 2, k: 3, stride: 2, pad: 0 },
            ConvSpec { in_c: 3, in_h: 4, in_w: 4, out_c: 4, k: 2, stride: 2, pad: 1 },
            ConvSpec { in_c: 2, in_h: 1, in_w: 1, out_c: 2, k: 3, stride: 1, pad: 1 },
            ConvSpec { in_c: 4, in_h: 8, in_w: 8, out_c: 4, k: 3, stride: 1, pad: 1 },
            ConvSpec { in_c: 8, in_h: 4, in_w: 4, out_c: 12, k: 3, stride: 1, pad: 1 },
            ConvSpec { in_c: 2, in_h: 5, in_w: 6, out_c: 3, k: 3, stride: 1, pad: 0 },
            ConvSpec { in_c: 2, in_h: 3, in_w: 6, out_c: 3, k: 5, stride: 1, pad: 2 },
            ConvSpec { in_c: 2, in_h: 4, in_w: 5, out_c: 17, k: 3, stride: 1, pad: 0 },
        ]
    }

    /// A conv with a nonzero bias on each channel.
    fn biased_conv(spec: ConvSpec) -> Conv2d {
        let mut conv = Conv2d::new(spec, 11);
        for (i, b) in conv.bias_mut().iter_mut().enumerate() {
            *b = 0.1 * i as f32 - 0.05;
        }
        conv
    }

    /// A ReLU'd input batch, zero-rich like a hidden activation.
    fn relu_input(spec: &ConvSpec) -> Tensor {
        let mut x = Tensor::randn(3, spec.in_features(), 12);
        x.relu_inplace();
        x
    }

    fn assert_bits_eq(fast: &[f32], naive: &[f32], what: &str, spec: &ConvSpec) {
        assert_eq!(fast.len(), naive.len(), "{what} length in {spec:?}");
        for (i, (a, b)) in fast.iter().zip(naive).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}[{i}]: fast {a} vs naive {b} in {spec:?}");
        }
    }

    /// Reference forward pass with naive nested loops — the oracle the
    /// patch-matrix path is tested against. Each output sums
    /// `kernel · pixel` over its receptive field in ascending patch
    /// index from `0.0`, then adds the bias: the fast path's order.
    fn forward_naive(conv: &Conv2d, x: &Tensor) -> Tensor {
        let s = conv.spec();
        let (oh, ow) = (s.out_h(), s.out_w());
        let mut out = Tensor::zeros(x.rows(), s.out_features());
        for b in 0..x.rows() {
            let image = x.row(b);
            for oc in 0..s.out_c {
                let kernel = conv.weight().row(oc);
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for c in 0..s.in_c {
                            for ky in 0..s.k {
                                for kx in 0..s.k {
                                    let Some(pixel) = s.input_index(c, oy, ox, ky, kx) else {
                                        continue;
                                    };
                                    acc += kernel[(c * s.k + ky) * s.k + kx] * image[pixel];
                                }
                            }
                        }
                        out.set(b, (oc * oh + oy) * ow + ox, acc + conv.bias[oc]);
                    }
                }
            }
        }
        out
    }

    /// Reference backward pass with naive nested loops, summing in the
    /// fast path's order, each sum from `0.0`:
    /// - `d_bias[oc]` over `(b, p)` ascending;
    /// - `dW[oc][tap]` over `(b, oy, ox)` ascending;
    /// - `d_x` per pixel over the outputs `(oy, ox)` that read it,
    ///   ascending, each term summed over `out_c` first.
    fn backward_naive(conv: &Conv2d, x: &Tensor, d_out: &Tensor) -> (ConvGrads, Tensor) {
        let s = conv.spec();
        let (oh, ow, area) = (s.out_h(), s.out_w(), s.out_h() * s.out_w());
        let mut d_bias = vec![0.0f32; s.out_c];
        for b in 0..x.rows() {
            for (oc, db) in d_bias.iter_mut().enumerate() {
                for p in 0..area {
                    *db += d_out.get(b, oc * area + p);
                }
            }
        }
        let mut d_weight = Tensor::zeros(s.out_c, s.patch_len());
        let mut d_x = Tensor::zeros(x.rows(), s.in_features());
        for oc in 0..s.out_c {
            for c in 0..s.in_c {
                for ky in 0..s.k {
                    for kx in 0..s.k {
                        let mut acc = 0.0;
                        for b in 0..x.rows() {
                            for oy in 0..oh {
                                for ox in 0..ow {
                                    if let Some(pixel) = s.input_index(c, oy, ox, ky, kx) {
                                        acc += d_out.get(b, (oc * oh + oy) * ow + ox)
                                            * x.get(b, pixel);
                                    }
                                }
                            }
                        }
                        d_weight.set(oc, (c * s.k + ky) * s.k + kx, acc);
                    }
                }
            }
        }
        for b in 0..x.rows() {
            for oy in 0..oh {
                for ox in 0..ow {
                    for c in 0..s.in_c {
                        for ky in 0..s.k {
                            for kx in 0..s.k {
                                let Some(pixel) = s.input_index(c, oy, ox, ky, kx) else {
                                    continue;
                                };
                                let tap = (c * s.k + ky) * s.k + kx;
                                let mut term = 0.0;
                                for oc in 0..s.out_c {
                                    term += d_out.get(b, (oc * oh + oy) * ow + ox)
                                        * conv.weight().get(oc, tap);
                                }
                                d_x.set(b, pixel, d_x.get(b, pixel) + term);
                            }
                        }
                    }
                }
            }
        }
        (ConvGrads { weight: d_weight, bias: d_bias }, d_x)
    }

    #[test]
    fn im2col_forward_matches_naive_reference() {
        for spec in oracle_specs() {
            let conv = biased_conv(spec);
            let x = relu_input(&spec);
            let fast = conv.forward(&x).unwrap();
            let naive = forward_naive(&conv, &x);
            assert_eq!(fast.shape(), naive.shape());
            assert_bits_eq(fast.as_slice(), naive.as_slice(), "output", &spec);
        }
    }

    #[test]
    fn backward_matches_naive_reference_bit_for_bit() {
        for spec in oracle_specs() {
            let conv = biased_conv(spec);
            let x = relu_input(&spec);
            let mut d_out = Tensor::randn(x.rows(), spec.out_features(), 13);
            for (i, g) in d_out.as_mut_slice().iter_mut().enumerate() {
                if i % 3 == 0 {
                    *g = 0.0;
                }
            }
            let (grads, d_x) = conv.backward(&x, &d_out).unwrap();
            let (want, want_d_x) = backward_naive(&conv, &x, &d_out);
            assert_bits_eq(grads.weight.as_slice(), want.weight.as_slice(), "dW", &spec);
            assert_bits_eq(&grads.bias, &want.bias, "d_bias", &spec);
            assert_bits_eq(d_x.as_slice(), want_d_x.as_slice(), "d_x", &spec);
        }
    }

    /// The GEMM-form weight gradient `d_y · im2col(x)ᵀ`: what every
    /// geometry the lane kernel does not take still runs, and, unlike
    /// `backward_naive`, a reference that skips a zero `d_y`.
    fn weight_grad_gemm_form(conv: &Conv2d, x: &Tensor, d_out: &Tensor) -> Vec<f32> {
        let s = conv.spec();
        let area = s.out_h() * s.out_w();
        let n = x.rows() * area;
        let mut d_y = vec![0.0; s.out_c * n];
        for b in 0..x.rows() {
            for c in 0..s.out_c {
                d_y[c * n + b * area..][..area].copy_from_slice(&d_out.row(b)[c * area..][..area]);
            }
        }
        conv.weight_grad_gemm(x, &d_y)
    }

    /// Both compilations of the lane kernel against the GEMM form, bit
    /// for bit: the plain one, which a host with AVX2 never dispatches
    /// to, and whichever `conv3_weight_grad` picks here. `out_c` 3, 8,
    /// 12 and 17 leave lane remainders of 3, 0, 4 and 1, over pads 0, 1
    /// and 2. Image 1 holds a `+∞` activation whose every reading
    /// position has an all-zero gradient column: the GEMM skips those
    /// products and the lane kernel adds `+0.0` for them, so `dW` stays
    /// finite where the naive oracle's `0 · ∞` would be NaN.
    #[test]
    fn lane_kernel_matches_gemm_form_bit_for_bit() {
        type Kernel = fn(&ConvSpec, &[(&[f32], &[f32])]) -> Vec<f32>;
        let kernels: [(&str, Kernel); 2] =
            [("plain", conv3_weight_grad_body), ("dispatched", conv3_weight_grad)];
        for out_c in [3, 8, 12, 17] {
            for pad in [0, 1, 2] {
                let spec = ConvSpec { in_c: 3, in_h: 5, in_w: 6, out_c, k: 3, stride: 1, pad };
                let (oh, ow) = (spec.out_h(), spec.out_w());
                let conv = biased_conv(spec);
                let mut x = relu_input(&spec);
                let mut d_out = Tensor::randn(x.rows(), spec.out_features(), 13);
                for (i, g) in d_out.as_mut_slice().iter_mut().enumerate() {
                    if i % 3 == 0 {
                        *g = 0.0;
                    }
                }
                let pixel = (2 * spec.in_h + 2) * spec.in_w + 3;
                x.set(1, pixel, f32::INFINITY);
                for (oy, ox) in (0..oh).flat_map(|oy| (0..ow).map(move |ox| (oy, ox))) {
                    let reads =
                        (0..9).any(|t| spec.input_index(2, oy, ox, t / 3, t % 3) == Some(pixel));
                    if reads {
                        for oc in 0..out_c {
                            d_out.set(1, (oc * oh + oy) * ow + ox, 0.0);
                        }
                    }
                }
                let want = weight_grad_gemm_form(&conv, &x, &d_out);
                assert!(want.iter().all(|w| w.is_finite()), "{spec:?}");
                for (name, kernel) in kernels {
                    let got = kernel(&spec, &[(x.as_slice(), d_out.as_slice())]);
                    assert_bits_eq(&got, &want, name, &spec);
                }
            }
        }
    }

    #[test]
    fn conv_shapes_and_wrong_input_rejected() {
        let spec = spec_3x3();
        let conv = Conv2d::new(spec, 1);
        assert_eq!(spec.out_h(), 5);
        assert_eq!(spec.out_w(), 4);
        let y = conv.forward(&Tensor::zeros(2, spec.in_features())).unwrap();
        assert_eq!(y.shape(), (2, spec.out_features()));
        assert!(conv.forward(&Tensor::zeros(2, spec.in_features() + 1)).is_err());
    }

    #[test]
    fn conv_gradient_check_weights_bias_and_input() {
        let spec = ConvSpec { in_c: 2, in_h: 3, in_w: 3, out_c: 2, k: 2, stride: 1, pad: 0 };
        let mut conv = Conv2d::new(spec, 21);
        let x = Tensor::randn(2, spec.in_features(), 22);
        // Scalar loss: sum of squared outputs / 2, so dL/dy = y.
        let loss_of = |conv: &Conv2d, x: &Tensor| -> f32 {
            conv.forward(x).unwrap().as_slice().iter().map(|v| v * v * 0.5).sum()
        };
        let y = conv.forward(&x).unwrap();
        let (grads, d_x) = conv.backward(&x, &y).unwrap();

        let eps = 1e-2f32;
        for index in [0usize, 3, 7, spec.out_c * spec.patch_len() - 1] {
            let orig = conv.weight().as_slice()[index];
            conv.weight_mut().as_mut_slice()[index] = orig + eps;
            let up = loss_of(&conv, &x);
            conv.weight_mut().as_mut_slice()[index] = orig - eps;
            let down = loss_of(&conv, &x);
            conv.weight_mut().as_mut_slice()[index] = orig;
            let numeric = (up - down) / (2.0 * eps);
            let analytic = grads.weight.as_slice()[index];
            assert!(
                (numeric - analytic).abs() < 2e-2 * analytic.abs().max(1.0),
                "weight {index}: numeric {numeric} vs analytic {analytic}"
            );
        }
        {
            let orig = conv.bias()[1];
            conv.bias_mut()[1] = orig + eps;
            let up = loss_of(&conv, &x);
            conv.bias_mut()[1] = orig - eps;
            let down = loss_of(&conv, &x);
            conv.bias_mut()[1] = orig;
            let numeric = (up - down) / (2.0 * eps);
            assert!((numeric - grads.bias[1]).abs() < 2e-2 * grads.bias[1].abs().max(1.0));
        }
        {
            let mut probe = x.clone();
            let orig = probe.get(1, 4);
            probe.set(1, 4, orig + eps);
            let up = loss_of(&conv, &probe);
            probe.set(1, 4, orig - eps);
            let down = loss_of(&conv, &probe);
            let numeric = (up - down) / (2.0 * eps);
            let analytic = d_x.get(1, 4);
            assert!(
                (numeric - analytic).abs() < 2e-2 * analytic.abs().max(1.0),
                "input: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn max_pool_selects_maxima_and_routes_gradient() {
        let pool = Pool2d::halve(1, 4, 4);
        #[rustfmt::skip]
        let x = Tensor::from_rows(&[&[
            1.0, 5.0,  2.0, 0.0,
            3.0, 4.0,  1.0, 8.0,
            0.0, 0.0,  9.0, 1.0,
            2.0, 1.0,  1.0, 1.0,
        ]]);
        let (y, switches) = pool.forward_max(&x).unwrap();
        assert_eq!(y.as_slice(), &[5.0, 8.0, 2.0, 9.0]);
        let d = pool.backward_max(&Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]), &switches);
        assert_eq!(d.get(0, 1), 1.0); // the 5.0
        assert_eq!(d.get(0, 7), 2.0); // the 8.0
        assert_eq!(d.get(0, 12), 3.0); // the 2.0
        assert_eq!(d.get(0, 10), 4.0); // the 9.0
        assert_eq!(d.as_slice().iter().sum::<f32>(), 10.0);
    }

    /// A window where no value beats `−∞` (all `−∞`, or all NaN) picks
    /// its own first element, so its gradient stays inside the window
    /// instead of landing on pixel 0 of channel 0.
    #[test]
    fn max_pool_routes_all_nan_and_all_neg_infinity_windows_inside_them() {
        let pool = Pool2d::halve(2, 2, 4);
        let (nan, ninf) = (f32::NAN, f32::NEG_INFINITY);
        #[rustfmt::skip]
        let x = Tensor::from_rows(&[&[
            1.0, 2.0,  ninf, ninf,
            3.0, 4.0,  ninf, ninf,
            nan, nan,  5.0, 6.0,
            nan, nan,  7.0, 8.0,
        ]]);
        let (y, switches) = pool.forward_max(&x).unwrap();
        assert_eq!(y.as_slice(), &[4.0, ninf, ninf, 8.0]);
        assert_eq!(switches, [5, 2, 8, 15]);
        let d = pool.backward_max(&Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]), &switches);
        let mut want = [0.0; 16];
        (want[5], want[2], want[8], want[15]) = (1.0, 2.0, 3.0, 4.0);
        assert_eq!(d.as_slice(), &want);
    }

    #[test]
    fn avg_pool_averages_and_spreads_gradient() {
        let pool = Pool2d::halve(1, 2, 2);
        let x = Tensor::from_rows(&[&[1.0, 2.0, 3.0, 6.0]]);
        let y = pool.forward_avg(&x).unwrap();
        assert_eq!(y.as_slice(), &[3.0]);
        let d = pool.backward_avg(&Tensor::from_rows(&[&[4.0]])).unwrap();
        assert_eq!(d.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn avg_pool_gradient_check() {
        let pool = Pool2d { channels: 2, in_h: 4, in_w: 4, k: 2, stride: 2 };
        let x = Tensor::randn(2, pool.in_features(), 5);
        let loss_of = |x: &Tensor| -> f32 { pool.forward_avg(x).unwrap().as_slice().iter().sum() };
        let ones = Tensor::from_vec(2, pool.out_features(), vec![1.0; 2 * pool.out_features()]);
        let d_x = pool.backward_avg(&ones).unwrap();
        let eps = 1e-2f32;
        let mut probe = x.clone();
        let orig = probe.get(0, 5);
        probe.set(0, 5, orig + eps);
        let up = loss_of(&probe);
        probe.set(0, 5, orig - eps);
        let down = loss_of(&probe);
        let numeric = (up - down) / (2.0 * eps);
        assert!((numeric - d_x.get(0, 5)).abs() < 1e-2);
    }

    #[test]
    fn pool_rejects_wrong_width() {
        let pool = Pool2d::halve(2, 4, 4);
        assert!(pool.forward_max(&Tensor::zeros(1, 3)).is_err());
        assert!(pool.forward_avg(&Tensor::zeros(1, 3)).is_err());
        assert!(pool.backward_avg(&Tensor::zeros(1, 3)).is_err());
    }
}
