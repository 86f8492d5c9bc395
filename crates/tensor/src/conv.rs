//! Convolution products as implicit GEMMs over kj-shifted planes.
//!
//! A same-padded, stride-1 `k × k` convolution over `[B, C·H·W]` NCHW
//! input is three products against the input's patch matrix, whose row
//! `(ic, ki, kj)` and column `(s, oi, oj)` hold input
//! `[s, ic, oi + ki − k/2, oj + kj − k/2]`, or `+0.0` outside the image.
//! Nothing writes that matrix. Per sample, each channel is copied into
//! `k` *kj-shifted planes*: plane `(ic, kj)` has `H + k − 1` rows of `W`
//! pixels, row `r` holding image row `r − k/2` shifted by `kj − k/2`
//! columns, zeros outside the image. Patch row `(ic, ki, kj)` of the
//! sample is then the contiguous run of `H·W` elements that starts `ki`
//! rows into plane `(ic, kj)`; a run crosses plane rows, and each row
//! already carries its own zero border. The GEMM reads every run in
//! place through a per-row offset table ([`Table`]): as B in the
//! forward, as A in `dWᵀ`. `dX` is a sum over taps of products against
//! the planes of `dY`, read the same way, added in the tile epilogue.
//!
//! Planes are built per sample (`C·k·(H + k − 1)·W` elements: 3.4× the
//! sample for 3×3 over 16×16, where its patch matrix would be 9×) and
//! rebuilt by each product that needs them, so no buffer grows with the
//! batch but the outputs.
//!
//! # Determinism
//!
//! Each output is the sum the patch-matrix formulation defines, in the
//! same order: ascending patch row for `y` (then `+ b`), ascending
//! `(s, pixel)` for `dW` (a k-block never crosses a sample), and for
//! `dX` ascending taps of ascending-channel sums, each tap added only
//! where it reads inside the image. The products fan out over samples
//! (`dWᵀ` over rows) only when issued from outside the pool, and every
//! element is owned by one task, so results do not depend on threads.

use std::ops::Range;

use crate::matmul::{
    gemm_panel, par_runs, tile_kernel, Bias, Epilogue, Meet, Operand, Sum, Table, Tile, Window,
    MIN_SPLIT, MR, NR, PAR_WORK,
};
use crate::scratch::{self, ScratchVec};
use crate::{simd, Result, Tensor, TensorError};

/// The shape of a same-padded, stride-1 2-D convolution: `in_channels`
/// planes of `height × width` in, `out_channels` out, a `kernel ×
/// kernel` window (odd). Its products take and return NCHW tensors,
/// one sample per row, and a `[out_channels, in_channels·k·k]` weight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels `C`.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Image rows `H`.
    pub height: usize,
    /// Image columns `W`.
    pub width: usize,
    /// Kernel side `k`, odd.
    pub kernel: usize,
}

impl ConvGeometry {
    /// Patch rows, `C·k·k`: the weight's columns.
    pub fn patch_rows(&self) -> usize {
        self.in_channels * self.taps()
    }

    fn taps(&self) -> usize {
        self.kernel * self.kernel
    }

    fn hw(&self) -> usize {
        self.height * self.width
    }

    /// Elements of one kj-shifted plane, `(H + k − 1)·W`.
    fn plane_len(&self) -> usize {
        (self.height + self.kernel - 1) * self.width
    }

    /// Elements of one sample's planes of `channels` channels, plus the
    /// `NR` a tile's last column window may read past the last run.
    fn planes_len(&self, channels: usize) -> usize {
        channels * self.kernel * self.plane_len() + NR
    }

    /// Forward pass: `y[s, o, p] = Σ_r W[o, r] · patch(r, s, p) + b[o]`,
    /// as `[B, out_c·H·W]`. Each sample's `[out_c × H·W]` block is one
    /// product against its planes, stored in place with the bias added
    /// as the tile stores its finished sums.
    ///
    /// # Errors
    ///
    /// [`TensorError::ShapeMismatch`] when `x` is not `[B, C·H·W]`, the
    /// weight not `[out_c, C·k·k]` or the bias not `[out_c]`.
    pub fn forward(&self, weight: &Tensor, bias: &Tensor, x: &Tensor) -> Result<Tensor> {
        self.forward_with(weight, bias, x, false)
    }

    /// [`ConvGeometry::forward`] followed by a ReLU, `v > 0 ? v : +0.0`,
    /// applied to each finished sum in the same store as the bias: a
    /// conv cell's output, with no pass over it afterwards.
    ///
    /// # Errors
    ///
    /// As [`ConvGeometry::forward`].
    pub fn forward_relu(&self, weight: &Tensor, bias: &Tensor, x: &Tensor) -> Result<Tensor> {
        self.forward_with(weight, bias, x, true)
    }

    fn forward_with(
        &self,
        weight: &Tensor,
        bias: &Tensor,
        x: &Tensor,
        relu: bool,
    ) -> Result<Tensor> {
        let batch = self.samples(x, self.in_channels)?;
        self.check_weight(weight)?;
        let (oc, hw, rows) = (self.out_channels, self.hw(), self.patch_rows());
        if bias.shape().dims() != [oc] {
            return Err(TensorError::ShapeMismatch {
                left: bias.shape().dims().to_vec(),
                right: vec![oc],
            });
        }
        let mut out = scratch::take(batch * oc * hw);
        if rows == 0 {
            // No taps: every sum is the empty one.
            for (row, &b) in out.chunks_mut(hw.max(1)).zip(bias.data().iter().cycle()) {
                let v = 0.0 + b;
                row.fill(if !relu || v > 0.0 { v } else { 0.0 });
            }
        } else if !out.is_empty() {
            let whole = Window::whole(&mut out, batch * oc, hw);
            let (w, b) = (weight.data(), bias.data());
            let kern = simd::active();
            scratch::with_index_buf(|offs| {
                self.patch_offsets(self.in_channels, offs);
                let samples = |run: Range<usize>| {
                    let mut planes = ScratchVec::take(self.planes_len(self.in_channels));
                    for s in run {
                        self.build_planes(sample(x, s), 0..self.in_channels, &mut planes);
                        // SAFETY: one sample's block is alive at a time,
                        // and concurrent tasks own disjoint samples.
                        let block = unsafe { whole.own(s * oc..(s + 1) * oc, 0..hw) };
                        let ep = Epilogue {
                            meet: Meet::Store,
                            bias: Some(Bias::Rows(b)),
                            relu,
                        };
                        let patches = Operand::Planes(Table::new(&planes, offs));
                        let weight = Operand::row_major(w, rows);
                        gemm_panel(kern, weight, patches, block, rows, ep, &mut None);
                    }
                };
                if batch * oc * hw * rows < PAR_WORK || !par_runs(batch, 1, 1, &samples) {
                    samples(0..batch);
                }
            });
        }
        Tensor::from_vec(out, &[batch, oc * hw])
    }

    /// The weight gradient, transposed: `dWᵀ = patches(x) · dYᵀ`, as
    /// `[C·k·k, out_c]`, each element summed over ascending `(s, p)`.
    /// A is read in place from each sample's planes, one sample per
    /// run of k-blocks; B is that sample's `dY`, packed.
    ///
    /// # Errors
    ///
    /// [`TensorError::ShapeMismatch`] when `x` is not `[B, C·H·W]` or
    /// `dy` not `[B, out_c·H·W]`.
    pub fn weight_grad_t(&self, x: &Tensor, dy: &Tensor) -> Result<Tensor> {
        let batch = self.samples(x, self.in_channels)?;
        if self.samples(dy, self.out_channels)? != batch {
            return Err(TensorError::ShapeMismatch {
                left: dy.shape().dims().to_vec(),
                right: vec![batch, self.out_channels * self.hw()],
            });
        }
        let (m, n, hw, taps) = (self.patch_rows(), self.out_channels, self.hw(), self.taps());
        if batch * hw == 0 {
            return Tensor::from_vec(scratch::take_zeroed(m * n), &[m, n]);
        }
        let mut out = scratch::take(m * n);
        if m * n > 0 {
            let whole = Window::whole(&mut out, m, n);
            let kern = simd::active();
            let rows = |run: Range<usize>| {
                let channels = run.start / taps..run.end.div_ceil(taps);
                let mut planes = ScratchVec::take(self.planes_len(channels.len()));
                scratch::with_index_buf(|offs| {
                    // Row `r` of the table addresses this run's own
                    // planes; rows of earlier channels are never read.
                    offs.resize(channels.start * taps, 0);
                    self.patch_offsets(channels.len(), offs);
                    let mut bpack = None;
                    for s in 0..batch {
                        self.build_planes(sample(x, s), channels.clone(), &mut planes);
                        let patches = Operand::Planes(Table::new(&planes, offs));
                        let dys = Operand::col_major(sample(dy, s), hw);
                        // SAFETY: one window of this run is alive at a
                        // time, and concurrent tasks own disjoint runs.
                        let window = unsafe { whole.sub(run.clone(), 0..n) };
                        let ep = Epilogue {
                            meet: if s > 0 { Meet::Continue } else { Meet::Store },
                            ..Epilogue::STORE
                        };
                        gemm_panel(kern, patches, dys, window, hw, ep, &mut bpack);
                    }
                });
            };
            if m * n * batch * hw < PAR_WORK || !par_runs(m, MR, MIN_SPLIT, &rows) {
                rows(0..m);
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// The input gradient, `[B, C·H·W]`: pixel `(i, j)` of channel `c`
    /// sums, over taps `(ki, kj)` in ascending order, the patch
    /// gradient `Σ_o W[o, (c, ki, kj)] · dY[o, i + k/2 − ki, j + k/2 − kj]`
    /// (ascending `o`) of every tap that reads it. Per sample, each tap
    /// is one product against the planes of `dY`, read reverse-shifted
    /// in place, and its sums are added in the tile epilogue where that
    /// `dY` pixel exists — the taps a scatter of the patch gradient
    /// would add, so a non-finite weight poisons the same elements.
    ///
    /// # Errors
    ///
    /// [`TensorError::ShapeMismatch`] when `dy` is not `[B, out_c·H·W]`
    /// or the weight not `[out_c, C·k·k]`.
    pub fn input_grad(&self, weight: &Tensor, dy: &Tensor) -> Result<Tensor> {
        let batch = self.samples(dy, self.out_channels)?;
        self.check_weight(weight)?;
        let (c, oc, hw) = (self.in_channels, self.out_channels, self.hw());
        let mut dx = scratch::take(batch * c * hw);
        if oc == 0 {
            dx.fill(0.0);
        } else if !dx.is_empty() {
            let whole = Window::whole(&mut dx, batch * c, hw);
            let kern = simd::active();
            scratch::with_index_buf(|offs| {
                self.tap_offsets(offs);
                let samples = |run: Range<usize>| {
                    let mut planes = ScratchVec::take(self.planes_len(oc));
                    for s in run {
                        self.build_planes(sample(dy, s), 0..oc, &mut planes);
                        // SAFETY: one sample's block is alive at a time,
                        // and concurrent tasks own disjoint samples.
                        let block = unsafe { whole.own(s * c..(s + 1) * c, 0..hw) };
                        self.input_grad_panel(
                            kern,
                            weight.data(),
                            Table::new(&planes, offs),
                            block,
                        );
                    }
                };
                let work = batch * c * hw * oc * self.taps();
                if work < PAR_WORK || !par_runs(batch, 1, 1, &samples) {
                    samples(0..batch);
                }
            });
        }
        Tensor::from_vec(dx, &[batch, c * hw])
    }

    /// One sample's `dX` (`out`, `[C × H·W]`) from the planes of its
    /// `dY`, addressed per tap by `dy` (rows `tap·out_c..`, see
    /// [`ConvGeometry::tap_offsets`]). Each `MR × NR` tile keeps its
    /// running sums in a local buffer that starts at `+0.0`; per tap the
    /// register tile computes the tap's sums and adds them, in its
    /// store, on the lanes that tap reads inside the image
    /// ([`Sum::AddMasked`]). The tile is written once, after its last
    /// tap.
    fn input_grad_panel(&self, kern: simd::Kernel, w: &[f32], dy: Table, mut out: Window) {
        let (oc, k, ld) = (self.out_channels, self.kernel, self.patch_rows());
        let (c, hw) = (out.rows(), out.cols());
        scratch::with_index_buf(|masks| {
            for j0 in (0..hw).step_by(NR) {
                let jw = (hw - j0).min(NR);
                self.tap_masks(j0, jw, masks);
                for r0 in (0..c).step_by(MR) {
                    let rh = (c - r0).min(MR);
                    let mut acc = [[0.0f32; NR]; MR];
                    for tap in 0..k * k {
                        let lanes = masks[tap / k] & masks[k + tap % k];
                        if lanes == 0 {
                            continue;
                        }
                        // Aᵀ of the tap: row `ic` is column `(ic, tap)` of W.
                        let a = std::array::from_fn(|r| &w[(r0 + r.min(rh - 1)) * k * k + tap..]);
                        let tile = Tile {
                            a,
                            a_step: ld,
                            b: dy.block(tap * oc..(tap + 1) * oc, j0),
                            kc: oc,
                        };
                        let sum = Sum::AddMasked(lanes as u32);
                        tile_kernel::<_, true>(kern, tile, &mut acc.each_mut(), sum, jw);
                    }
                    for (r, accr) in acc.iter().take(rh).enumerate() {
                        out.segment(r0 + r, j0, jw).copy_from_slice(&accr[..jw]);
                    }
                }
            }
        });
    }

    /// The lanes of column window `j0..j0 + jw` each tap adds to, as
    /// bit masks: `masks[ki]` has lane `l` set where pixel `j0 + l`'s row
    /// `i` has a `dY` row `i + k/2 − ki`, `masks[k + kj]` where its
    /// column `j` has a `dY` column `j + k/2 − kj`. Tap `(ki, kj)` adds
    /// on `masks[ki] & masks[k + kj]`: the pixels a scatter of its patch
    /// gradient would reach.
    fn tap_masks(&self, j0: usize, jw: usize, masks: &mut Vec<usize>) {
        let (k, w) = (self.kernel, self.width);
        masks.clear();
        for (by_row, len) in [(true, self.height), (false, w)] {
            for t in 0..k {
                // Coordinate `o` has a `dY` coordinate `o + k/2 − t`.
                let (inside, _) = tap_range(k - 1 - t, k, len);
                let (mut i, mut j) = (j0 / w, j0 % w);
                let mut bits = 0;
                for lane in 0..jw {
                    if inside.contains(if by_row { &i } else { &j }) {
                        bits |= 1 << lane;
                    }
                    j += 1;
                    if j == w {
                        (i, j) = (i + 1, 0);
                    }
                }
                masks.push(bits);
            }
        }
    }

    /// Writes the kj-shifted planes of channels `channels` of one sample
    /// (`src`, `[channels × H·W]`) into `dst`, plane `(ic, kj)` at
    /// `((ic − channels.start)·k + kj) · plane_len`. The slack past the
    /// last plane keeps whatever it held; only dropped lanes read it.
    fn build_planes(&self, src: &[f32], channels: Range<usize>, dst: &mut [f32]) {
        let (h, w, k) = (self.height, self.width, self.kernel);
        let (hw, pad, len) = (h * w, k / 2, self.plane_len());
        debug_assert!(dst.len() >= channels.len() * k * len, "planes overflow");
        if len == 0 {
            return;
        }
        let planes = dst.chunks_exact_mut(len).take(channels.len() * k);
        for (q, plane) in planes.enumerate() {
            let (ic, kj) = (channels.start + q / k, q % k);
            let image = &src[ic * hw..(ic + 1) * hw];
            let (cols, from) = tap_range(kj, k, w);
            let (top, body) = plane.split_at_mut(pad * w);
            let (body, bottom) = body.split_at_mut(hw);
            top.fill(0.0);
            bottom.fill(0.0);
            for (row, src_row) in body.chunks_exact_mut(w).zip(image.chunks_exact(w)) {
                row[..cols.start].fill(0.0);
                if !cols.is_empty() {
                    short_copy(&mut row[cols.clone()], &src_row[from..from + cols.len()]);
                }
                row[cols.end..].fill(0.0);
            }
        }
        crate::work::count(|c| c.planes += channels.len() * k * len);
    }

    /// Appends the offset of patch row `(ic, ki, kj)`, `ic < channels`,
    /// into planes built by [`ConvGeometry::build_planes`], in
    /// patch-row order.
    fn patch_offsets(&self, channels: usize, offs: &mut Vec<usize>) {
        let (k, w, len) = (self.kernel, self.width, self.plane_len());
        for ic in 0..channels {
            for ki in 0..k {
                offs.extend((0..k).map(|kj| (ic * k + kj) * len + ki * w));
            }
        }
    }

    /// Appends, for each tap `(ki, kj)` in ascending order and each
    /// output channel `o`, the offset of the run of `dY`'s planes that
    /// holds `dY[o, i + k/2 − ki, j + k/2 − kj]` at pixel `(i, j)`: patch
    /// row `(o, k − 1 − ki, k − 1 − kj)` of `dY`, the tap reversed.
    fn tap_offsets(&self, offs: &mut Vec<usize>) {
        let (k, w, len) = (self.kernel, self.width, self.plane_len());
        for tap in 0..self.taps() {
            let (ki, kj) = (k - 1 - tap / k, k - 1 - tap % k);
            offs.extend((0..self.out_channels).map(|o| (o * k + kj) * len + ki * w));
        }
    }

    /// The batch of `t`, which must be `[B, channels·H·W]`.
    fn samples(&self, t: &Tensor, channels: usize) -> Result<usize> {
        let (rows, cols) = (t.rows()?, t.cols()?);
        if cols != channels * self.hw() {
            return Err(TensorError::ShapeMismatch {
                left: t.shape().dims().to_vec(),
                right: vec![rows, channels * self.hw()],
            });
        }
        Ok(rows)
    }

    fn check_weight(&self, weight: &Tensor) -> Result<()> {
        let want = [self.out_channels, self.patch_rows()];
        if weight.shape().dims() != want {
            return Err(TensorError::ShapeMismatch {
                left: weight.shape().dims().to_vec(),
                right: want.to_vec(),
            });
        }
        Ok(())
    }
}

/// Row `s` of the matrix `t`.
fn sample(t: &Tensor, s: usize) -> &[f32] {
    let cols = t.data().len() / t.shape().dims()[0];
    &t.data()[s * cols..(s + 1) * cols]
}

/// For kernel tap `t` of a same-padded size-`k` kernel over an axis of
/// `len` pixels: the output positions `o` whose input position
/// `o + t − k/2` lies inside the image, and the input position the
/// first of them reads (the rest follow one by one). The range is empty
/// when the tap only ever sees padding (`len` shorter than the kernel's
/// reach).
fn tap_range(t: usize, k: usize, len: usize) -> (Range<usize>, usize) {
    let pad = k / 2;
    let lo = pad.saturating_sub(t).min(len);
    let hi = (len + pad).saturating_sub(t).min(len).max(lo);
    (lo..hi, t.saturating_sub(pad))
}

/// Lanes per move in [`short_copy`].
const RUN_LANES: usize = 8;

/// `dst.copy_from_slice(src)` for the short runs the planes copy (an
/// image row, thousands per product): fixed `RUN_LANES`-wide moves, the
/// last one overlapping its predecessor, which compile inline instead
/// of calling the library `memcpy` once per run. The overlap rewrites
/// lanes with the values they already hold.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline(always)]
fn short_copy(dst: &mut [f32], src: &[f32]) {
    let n = dst.len();
    if n < RUN_LANES {
        return dst.copy_from_slice(src);
    }
    assert_eq!(src.len(), n, "short_copy length mismatch");
    let mut i = 0;
    while i + RUN_LANES < n {
        dst[i..i + RUN_LANES].copy_from_slice(&src[i..i + RUN_LANES]);
        i += RUN_LANES;
    }
    dst[n - RUN_LANES..].copy_from_slice(&src[n - RUN_LANES..]);
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;

    use super::*;
    use crate::work;

    /// A NaN whose payload no plane element holds: a slack element that
    /// no longer holds it was written by `build_planes`.
    const CANARY: f32 = f32::from_bits(0x7fa5_a5a5);

    fn geometry(
        in_channels: usize,
        out_channels: usize,
        hw: (usize, usize),
        kernel: usize,
    ) -> ConvGeometry {
        ConvGeometry {
            in_channels,
            out_channels,
            height: hw.0,
            width: hw.1,
            kernel,
        }
    }

    /// Patch-matrix element `(r, p)` of one sample `x` (`[C × H·W]`),
    /// one element at a time: each tests its own border.
    fn patch_oracle(g: ConvGeometry, x: &[f32], r: usize, p: usize) -> f32 {
        let (h, w, k) = (g.height, g.width, g.kernel);
        let (ic, ki, kj) = (r / (k * k), r % (k * k) / k, r % k);
        let ii = (p / w + ki) as isize - (k / 2) as isize;
        let jj = (p % w + kj) as isize - (k / 2) as isize;
        if ii < 0 || jj < 0 || ii >= h as isize || jj >= w as isize {
            return 0.0;
        }
        x[ic * h * w + ii as usize * w + jj as usize]
    }

    #[test]
    fn every_patch_row_is_one_run_of_the_planes() {
        // Patch row r of a sample, read at its offset, is the oracle's
        // row bit for bit, for a run of channels that starts anywhere
        // (a `dWᵀ` task's), and the reverse-shifted runs `dX` reads per
        // tap are the oracle's rows of the reversed tap. Images of 1×1,
        // 5×7, 16×16 and 17×3 put whole taps in the padding. The slack
        // after the planes keeps its canaries.
        for k in [1, 3, 5] {
            for hw in [(1, 1), (5, 7), (16, 16), (17, 3)] {
                let g = geometry(4, 3, hw, k);
                let mut rng = rand::rngs::StdRng::seed_from_u64((k * 100 + hw.0 * hw.1) as u64);
                let x = crate::uniform(&mut rng, &[1, 4 * hw.0 * hw.1], -1.0, 1.0);
                let n = hw.0 * hw.1;
                let taps = k * k;
                for channels in [0..4, 1..3, 3..4] {
                    let len = g.planes_len(channels.len());
                    let mut planes = vec![CANARY; len];
                    g.build_planes(x.data(), channels.clone(), &mut planes);
                    assert!(planes[len - NR..]
                        .iter()
                        .all(|v| v.to_bits() == CANARY.to_bits()));
                    let mut offs = Vec::new();
                    g.patch_offsets(channels.len(), &mut offs);
                    for (i, &off) in offs.iter().enumerate() {
                        let r = channels.start * taps + i;
                        for p in 0..n {
                            let want = patch_oracle(g, x.data(), r, p);
                            assert_eq!(
                                planes[off + p].to_bits(),
                                want.to_bits(),
                                "k{k} {hw:?} row {r} pixel {p}"
                            );
                        }
                    }
                }
                // dY of 3 channels: tap t's run for channel o is patch
                // row (o, reversed tap).
                let dy = crate::uniform(&mut rng, &[1, 3 * n], -1.0, 1.0);
                let dg = geometry(3, 3, hw, k);
                let mut planes = vec![CANARY; dg.planes_len(3)];
                dg.build_planes(dy.data(), 0..3, &mut planes);
                let mut offs = Vec::new();
                dg.tap_offsets(&mut offs);
                for (e, &off) in offs.iter().enumerate() {
                    let (tap, o) = (e / 3, e % 3);
                    let r = o * taps + taps - 1 - tap;
                    for p in 0..n {
                        let want = patch_oracle(dg, dy.data(), r, p);
                        assert_eq!(
                            planes[off + p].to_bits(),
                            want.to_bits(),
                            "k{k} {hw:?} tap {tap} dY channel {o}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_train_step_lowers_nothing_and_writes_only_the_planes() {
        // One train step of a 16 → 16 3×3 layer at batch 10 on 16×16,
        // issued nested as a client lane issues it: forward, dWᵀ, dX.
        // The only pack is `dY` (once per sample), and the only buffers
        // are the outputs, one planes buffer per product and one B slab:
        // a patch matrix lowered into a pack (368 640 elements) would
        // show in `packed`, and a lowered A block or a `dcols` patch
        // gradient (368 640 each) in `scratch`.
        let g = geometry(16, 16, (16, 16), 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let w = crate::uniform(&mut rng, &[16, 144], -1.0, 1.0);
        let b = crate::uniform(&mut rng, &[16], -1.0, 1.0);
        let x = crate::uniform(&mut rng, &[10, 16 * 256], -1.0, 1.0);
        let dy = crate::uniform(&mut rng, &[10, 16 * 256], -1.0, 1.0);
        let step = work::measure(&|| {
            drop(g.forward(&w, &b, &x).unwrap());
            drop(g.weight_grad_t(&x, &dy).unwrap());
            drop(g.input_grad(&w, &dy).unwrap());
        });
        // 16 channels × 3 shifts × 18 rows × 16 pixels per sample.
        let planes = 16 * 3 * 18 * 16;
        assert_eq!(planes * 10, 138_240);
        let outputs = 10 * 16 * 256 + 144 * 16 + 10 * 16 * 256;
        let slab = crate::tune::KC * NR;
        assert_eq!(
            step,
            work::Work {
                packed: 10 * 16 * 256,
                transposed: 10 * 16 * 256,
                planes: 3 * 10 * planes,
                scratch: outputs + 3 * (planes + NR) + slab,
                passes: 0,
                key_rows: 0,
                normals: 0,
                exact_normals: 0,
                cloned: 0,
                plans: 0,
            }
        );
    }
}
