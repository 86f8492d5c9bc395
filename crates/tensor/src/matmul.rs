//! Matrix multiplication kernels.
//!
//! Every simulated client's forward/backward pass funnels through the
//! GEMM variants here, so they are the hottest code in the repo. They
//! take one path, whatever the shape: a cache-blocked loop
//! nest around one `MR × NR` register tile (AVX-512 or AVX2 where the
//! CPU has it) that reads A in place, reads a row-major B in place too when its
//! k-block is small ([`DIRECT_B_MAX`]) and packs it otherwise, and —
//! for large shapes issued from outside the worker pool
//! ([`crate::pool`]) — fans panels of the longer output dimension out
//! across it. A large product issued from
//! *inside* a pool task (every client lane and evaluation task is one)
//! runs as a single panel: the kernel packs B at most once wherever it
//! runs.
//!
//! A convolution's patch matrix is an operand too ([`Patches`]): the
//! conv geometry plus its NCHW input. No `[C·k·k, B·H·W]` matrix is
//! ever written; as B its elements are lowered straight into the pack
//! slab, and as A one `rows × KC` block at a time into scratch.
//!
//! # Determinism
//!
//! Results are bit-for-bit reproducible and independent of thread
//! count: each output element is owned by exactly one task, and its
//! dot product accumulates in ascending-`k` order with a single `f32`
//! accumulator that starts at `+0.0` on every code path (one panel or
//! many, operands packed or read in place, any kernel tier). No FMA
//! contraction, no split reductions.
//!
//! # Non-finite propagation
//!
//! The kernels deliberately do **not** skip zero multiplicands:
//! `0 × NaN` and `0 × ∞` must produce `NaN` so divergent weights
//! surface in metrics instead of being silently masked (an earlier
//! version short-circuited `a == 0.0` rows and swallowed them).

use std::marker::PhantomData;
use std::ops::Range;

use crate::scratch::{self, ScratchVec};
use crate::{pool, simd, tune, Result, Tensor, TensorError};

/// Rows per register tile.
pub(crate) const MR: usize = 4;
/// Columns per register tile. The `MR × NR` tile is eight independent
/// 16-lane accumulators on AVX-512 (two `__m512` per row) and two
/// 4 × 16 halves of eight `__m256` accumulators each on AVX2, so no
/// accumulator's `add` waits on its own previous `add` for long
/// (docs/ARCHITECTURE.md "Micro-kernels & block sizes" has the sweep).
pub(crate) const NR: usize = 32;
/// At or above this many multiply-adds, panels are fanned out across
/// the worker pool; under it, thread dispatch costs more than it buys.
const PAR_WORK: usize = 1 << 20;
/// Shortest run of rows (or columns) one fanned-out task may own.
///
/// A row-split task packs all of B for itself — about one cycle per
/// element — and reuses each packed element for as many multiply-adds
/// as its run is long, at about a third of a cycle each (the
/// 18 GFLOP/s an unsplit conv panel reaches on the benchmark host). At
/// 32 the private re-pack is under a tenth of the task; the old
/// `m.div_ceil(2 · threads).max(MR)` rule handed out single 4-row
/// micro-tiles that spent longer re-packing B than multiplying.
/// A multiple of both `MR` and `NR`, so task boundaries fall on
/// register-tile boundaries.
const MIN_SPLIT: usize = 32;
/// Largest k-block of a row-major B, in elements of its storage
/// (`kc` stored rows of `ld`), that the register tile reads in place
/// instead of packing. Set where packed and in-place B cross on the
/// benchmark host (one thread, each side alone; `docs/ARCHITECTURE.md`
/// "Packing"). Every `fedtrans-dense` k-block is at most 18 Ki elements,
/// and in place its products ran 1.0–2.0× faster than packed.
/// Every `fedtrans-conv` patch-matrix k-block is at least 40 Ki, with
/// rows 10 KiB apart. Read in place, the strip one column window
/// touches falls into a few L1 sets, and each of many row tiles
/// re-fetches it; those products ran up to 1.3× slower than packed.
/// The crossing for a 144-row product lies between 16 and 32 Ki
/// (re-measured on the 4 × 32 tile: packing wins from about 16 Ki for
/// 144 rows, in place up to at least 36 Ki for 16).
const DIRECT_B_MAX: usize = 24 * 1024;

impl Tensor {
    /// Matrix product `self @ other` for rank-2 tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MatmulDimMismatch`] when inner dimensions
    /// disagree and [`TensorError::RankMismatch`] for non-matrices.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k) = (self.rows()?, self.cols()?);
        let (k2, n) = (other.rows()?, other.cols()?);
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                left: vec![m, k],
                right: vec![k2, n],
            });
        }
        let (a, b) = (
            Operand::row_major(self.data(), k),
            Operand::row_major(other.data(), n),
        );
        let out = gemm(simd::active(), a, b, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// Computes `self^T @ other` without the caller materializing the
    /// transpose: the register tile reads A straight from its `[k × m]`
    /// storage.
    ///
    /// Used by linear-layer backward passes (`dW = X^T dY`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MatmulDimMismatch`] when the row counts of
    /// the two operands disagree.
    pub fn t_matmul(&self, other: &Tensor) -> Result<Tensor> {
        let (k, m) = (self.rows()?, self.cols()?);
        let (k2, n) = (other.rows()?, other.cols()?);
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                left: vec![m, k],
                right: vec![k2, n],
            });
        }
        let (a, b) = (
            Operand::col_major(self.data(), m),
            Operand::row_major(other.data(), n),
        );
        let out = gemm(simd::active(), a, b, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// Computes `self @ other^T` without the caller materializing the
    /// transpose: B is packed straight from its `[n × k]` storage.
    ///
    /// Used by linear-layer backward passes (`dX = dY W^T`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MatmulDimMismatch`] when the column counts
    /// of the two operands disagree.
    pub fn matmul_t(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k) = (self.rows()?, self.cols()?);
        let (n, k2) = (other.rows()?, other.cols()?);
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                left: vec![m, k],
                right: vec![n, k2],
            });
        }
        let (a, b) = (
            Operand::row_major(self.data(), k),
            Operand::col_major(other.data(), k),
        );
        let out = gemm(simd::active(), a, b, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// Computes `self @ patches` — a convolution's forward product,
    /// `W[out_c × C·k·k]` times the `[C·k·k × B·H·W]` patch matrix —
    /// lowering patch elements straight into the B pack.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MatmulDimMismatch`] when `self` does not
    /// have one column per patch row.
    pub fn matmul_patches(&self, patches: &Patches) -> Result<Tensor> {
        let (m, k) = (self.rows()?, self.cols()?);
        let (k2, n) = (patches.rows(), patches.cols());
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                left: vec![m, k],
                right: vec![k2, n],
            });
        }
        let a = Operand::row_major(self.data(), k);
        let out = gemm(simd::active(), a, Operand::Patches(patches), m, k, n);
        Tensor::from_vec(out, &[m, n])
    }
}

/// The patch matrix of a same-padded, stride-1 2-D convolution, as a
/// GEMM operand: the conv geometry plus its `[B, C·H·W]` NCHW input.
/// Logically it is `[C·k·k, B·H·W]`. Row `ic·k·k + ki·k + kj`, column
/// `s·H·W + oi·W + oj` holds input `[s, ic, oi + ki − k/2, oj + kj − k/2]`,
/// or `+0.0` where that falls outside the image.
///
/// Nothing materializes the matrix. [`Patches::new`] copies the input
/// once into zero-bordered planes (`(H + k − 1) × (W + k − 1)` each,
/// about 1.3× the input for 3×3 over 16×16); a patch row's run across
/// one image row is then a single copy out of them, with no border
/// test. As B ([`Tensor::matmul_patches`]) the runs are lowered into
/// the packed `kc × NR` slab; as A ([`Patches::matmul_t`]) one
/// `rows × kc` block per k-block is lowered into scratch, and the tile
/// reads it in place. Lowering only copies input values and the
/// border's `+0.0`, so the products are bit-identical to those over a
/// materialized patch matrix.
pub struct Patches<'a> {
    input: &'a [f32],
    /// The input's `B·C` planes, each bordered by `k/2` zeros above and
    /// left and `k − 1 − k/2` below and right.
    planes: ScratchVec,
    channels: usize,
    height: usize,
    width: usize,
    kernel: usize,
}

impl<'a> Patches<'a> {
    /// The patch matrix of `input` (`[B, C·H·W]`) for a `kernel × kernel`
    /// same-padded convolution over `channels` planes of
    /// `height × width`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `input` is not a
    /// matrix with `channels·height·width` columns.
    pub fn new(
        input: &'a Tensor,
        channels: usize,
        height: usize,
        width: usize,
        kernel: usize,
    ) -> Result<Self> {
        let (batch, per_sample) = (input.rows()?, channels * height * width);
        if input.cols()? != per_sample {
            return Err(TensorError::ShapeMismatch {
                left: input.shape().dims().to_vec(),
                right: vec![batch, per_sample],
            });
        }
        let (hp, wp, pad) = (
            height + kernel.max(1) - 1,
            width + kernel.max(1) - 1,
            kernel / 2,
        );
        let mut planes = ScratchVec::take_zeroed(batch * channels * hp * wp);
        if height * width > 0 {
            let plane_rows = input.data().chunks_exact(height * width);
            for (plane, padded) in plane_rows.zip(planes.chunks_exact_mut(hp * wp)) {
                let padded_rows = padded.chunks_exact_mut(wp).skip(pad);
                for (row, out) in plane.chunks_exact(width).zip(padded_rows) {
                    short_copy(&mut out[pad..pad + width], row);
                }
            }
        }
        Ok(Patches {
            input: input.data(),
            planes,
            channels,
            height,
            width,
            kernel,
        })
    }

    /// Logical rows, `C·k·k`.
    pub(crate) fn rows(&self) -> usize {
        self.channels * self.kernel * self.kernel
    }

    /// Logical columns, `B·H·W`.
    pub(crate) fn cols(&self) -> usize {
        let (per_sample, hw) = (
            self.channels * self.height * self.width,
            self.height * self.width,
        );
        self.input.len().checked_div(per_sample).unwrap_or(0) * hw
    }

    /// Computes `patches @ other^T` — a convolution's weight gradient,
    /// transposed (`dWᵀ = patches · dYᵀ` for `dY` stored
    /// `[out_c × B·H·W]`). The patch matrix is the A operand, lowered one
    /// k-block at a time; only `other` is packed.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MatmulDimMismatch`] when `other` does not
    /// have one column per patch column.
    pub fn matmul_t(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k) = (self.rows(), self.cols());
        let (n, k2) = (other.rows()?, other.cols()?);
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                left: vec![m, k],
                right: vec![n, k2],
            });
        }
        let b = Operand::col_major(other.data(), k);
        let out = gemm(simd::active(), Operand::Patches(self), b, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// Writes the block `rows × cols` of the patch matrix into `dst`,
    /// logical row `r` at `dst[(r − rows.start) · ld..]`, `cols.len()`
    /// elements per row; nothing else of `dst` is touched.
    ///
    /// A row's columns fall into runs of one image row each, and each
    /// run is one copy out of the zero-bordered planes. Row and column
    /// coordinates are stepped, not divided out, once the block's first
    /// element is located.
    fn lower(&self, rows: Range<usize>, cols: Range<usize>, dst: &mut [f32], ld: usize) {
        if cols.is_empty() || rows.is_empty() {
            return;
        }
        let (h, w, k) = (self.height, self.width, self.kernel);
        let (hw, wp) = (h * w, w + k - 1);
        let plane = (h + k - 1) * wp;
        let sample = self.channels * plane;
        let first = (cols.start / hw, cols.start % hw / w, cols.start % w);
        let (mut ic, tap) = (rows.start / (k * k), rows.start % (k * k));
        let (mut ki, mut kj) = (tap / k, tap % k);
        for (r, out) in dst.chunks_mut(ld).take(rows.len()).enumerate() {
            if r > 0 {
                kj += 1;
                if kj == k {
                    kj = 0;
                    ki += 1;
                    if ki == k {
                        ki = 0;
                        ic += 1;
                    }
                }
            }
            // Output pixel (oi, oj) of sample s reads padded (oi + ki, oj + kj).
            let tap_origin = ic * plane + ki * wp + kj;
            let out = &mut out[..cols.len()];
            let (mut s, mut oi, mut oj) = first;
            let mut d = 0;
            while d < out.len() {
                let len = (w - oj).min(out.len() - d);
                let src = s * sample + tap_origin + oi * wp + oj;
                short_copy(&mut out[d..d + len], &self.planes[src..src + len]);
                d += len;
                oj = 0;
                oi += 1;
                if oi == h {
                    oi = 0;
                    s += 1;
                }
            }
        }
    }
}

/// Lanes per move in [`short_copy`].
const RUN_LANES: usize = 8;

/// `dst.copy_from_slice(src)` for the short runs the lowering copies
/// (an image row or less, thousands per product): fixed
/// `RUN_LANES`-wide moves, the last one overlapping its predecessor,
/// which compile inline instead of calling the library `memcpy` once
/// per run. The overlap rewrites lanes with the values they already
/// hold.
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

/// A GEMM operand: a matrix as its caller stores it, or a conv input
/// standing for its patch matrix.
#[derive(Clone, Copy)]
enum Operand<'a> {
    Stored(Stored<'a>),
    Patches(&'a Patches<'a>),
}

impl<'a> Operand<'a> {
    fn row_major(data: &'a [f32], ld: usize) -> Self {
        Operand::Stored(Stored::row_major(data, ld))
    }

    fn col_major(data: &'a [f32], ld: usize) -> Self {
        Operand::Stored(Stored {
            data,
            ld,
            col_major: true,
        })
    }

    /// The buffer the operand's elements come from (what the test-only
    /// pack probe is keyed on).
    #[cfg(test)]
    fn source(&self) -> &'a [f32] {
        match self {
            Operand::Stored(s) => s.data,
            Operand::Patches(p) => p.input,
        }
    }
}

/// A matrix exactly as its caller stores it. `ld` is the length
/// of one stored row; `col_major` says the stored rows are the logical
/// matrix's *columns* (`t_matmul`'s A is stored `[k × m]`, `matmul_t`'s
/// B `[n × k]`). The register tile reads A in either layout in place,
/// and [`pack_b`] reads B in either, so no caller materializes a
/// transpose.
#[derive(Clone, Copy)]
struct Stored<'a> {
    data: &'a [f32],
    ld: usize,
    col_major: bool,
}

impl<'a> Stored<'a> {
    fn row_major(data: &'a [f32], ld: usize) -> Self {
        Stored {
            data,
            ld,
            col_major: false,
        }
    }

    /// Logical rows `i..i + rh` of A from column `pc` on, as the
    /// register tile reads them: row `r`'s element at k-step `p` is
    /// `rows[r][p * step]`. Rows past `rh` (an edge tile) repeat the
    /// last real row; the tile computes them and the store drops them.
    fn a_rows(&self, i: usize, rh: usize, pc: usize) -> ([&'a [f32]; MR], usize) {
        let (start, step) = if self.col_major {
            (pc * self.ld + i, self.ld)
        } else {
            (i * self.ld + pc, 1)
        };
        let inner = if self.col_major { 1 } else { self.ld };
        let rows = std::array::from_fn(|r| &self.data[start + r.min(rh - 1) * inner..]);
        (rows, step)
    }
}

/// The part of the output one panel owns: `rows × cols` elements of a
/// row-major buffer whose rows are `ld` apart, with the window's
/// top-left element being element `(i0, j0)` of the whole product.
/// Fanned-out tasks each write through their own window of the one
/// output buffer — row panels and column windows alike, in place.
struct Window<'a> {
    /// Element `(0, 0)` of the window.
    ptr: *mut f32,
    ld: usize,
    i0: usize,
    j0: usize,
    rows: usize,
    cols: usize,
    _buffer: PhantomData<&'a mut [f32]>,
}

// SAFETY: a shared `&Window` only lets another thread carve
// sub-windows out of it (`sub`, whose contract keeps concurrently live
// ones disjoint); every write goes through `&mut self`.
unsafe impl Sync for Window<'_> {}

impl<'a> Window<'a> {
    /// The whole `m × n` output.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `m · n` long (every later bounds argument
    /// rests on it).
    fn whole(out: &'a mut [f32], m: usize, n: usize) -> Self {
        assert_eq!(out.len(), m * n, "output buffer must be m x n");
        Window {
            ptr: out.as_mut_ptr(),
            ld: n,
            i0: 0,
            j0: 0,
            rows: m,
            cols: n,
            _buffer: PhantomData,
        }
    }

    /// The sub-window `rows × cols`, in this window's coordinates.
    ///
    /// # Safety
    ///
    /// Sub-windows of one window that are alive at the same time must
    /// not overlap, and the parent must not be written through while
    /// any of them is.
    ///
    /// # Panics
    ///
    /// Panics if the ranges leave the window.
    unsafe fn sub(&self, rows: Range<usize>, cols: Range<usize>) -> Window<'_> {
        assert!(
            rows.start <= rows.end && rows.end <= self.rows,
            "rows leave the window"
        );
        assert!(
            cols.start <= cols.end && cols.end <= self.cols,
            "cols leave the window"
        );
        Window {
            // SAFETY: `(rows.start, cols.start)` is inside this window
            // (or one past its last row, for an empty range), which is
            // inside the buffer `whole` was given.
            ptr: unsafe { self.ptr.add(rows.start * self.ld + cols.start) },
            ld: self.ld,
            i0: self.i0 + rows.start,
            j0: self.j0 + cols.start,
            rows: rows.len(),
            cols: cols.len(),
            _buffer: PhantomData,
        }
    }

    /// Columns `j..j + w` of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if the segment leaves the window.
    #[inline]
    fn segment(&mut self, i: usize, j: usize, w: usize) -> &mut [f32] {
        assert!(
            i < self.rows && j + w <= self.cols,
            "segment leaves the window"
        );
        // SAFETY: the segment lies inside the window (checked above),
        // hence inside the buffer; it is contiguous, so the slice covers
        // only elements this window owns, which no other live window
        // overlaps (`sub`'s contract); `&mut self` keeps two segments of
        // one window from being alive together.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(i * self.ld + j), w) }
    }

    /// The full `MR × NR` tile whose top-left element is `(i, j)`, one
    /// array per row.
    ///
    /// # Panics
    ///
    /// Panics if the tile leaves the window.
    #[inline]
    fn tile(&mut self, i: usize, j: usize) -> [&mut [f32; NR]; MR] {
        assert!(
            i + MR <= self.rows && j + NR <= self.cols,
            "tile leaves the window"
        );
        std::array::from_fn(|r| {
            // SAFETY: row `i + r`, columns `j..j + NR` lie inside the
            // window (checked above), hence inside the buffer. Rows are
            // `ld ≥ cols` apart, so the `MR` row segments are disjoint;
            // no other live window overlaps them (`sub`'s contract), and
            // `&mut self` keeps two tiles of one window from being alive
            // together.
            unsafe { &mut *self.ptr.add((i + r) * self.ld + j).cast::<[f32; NR]>() }
        })
    }
}

/// `A[m×k] @ B[k×n]` into a scratch-pooled row-major buffer (the
/// caller hands it to a `Tensor`, which recycles it on drop). The
/// buffer is checked out unzeroed: the first k-block of every register
/// tile *stores* its sums rather than adding them to the output, so
/// every element is written before it is read. Only an empty inner
/// dimension leaves nothing to store, and gets zeros. Every tile runs
/// on tier `kern`.
fn gemm(kern: simd::Kernel, a: Operand, b: Operand, m: usize, k: usize, n: usize) -> Vec<f32> {
    if k == 0 {
        return scratch::take_zeroed(m * n);
    }
    let mut out = scratch::take(m * n);
    if m == 0 || n == 0 {
        return out;
    }
    // Under `PAR_WORK` the pool is never touched (or lazily spawned).
    if m * n * k < PAR_WORK || !fan_out(kern, a, b, &mut out, m, k, n) {
        gemm_panel(kern, a, b, Window::whole(&mut out, m, n), k);
    }
    out
}

/// Splits the product across the worker pool, or returns `false` with
/// `out` untouched when the pool would run the pieces inline (nested
/// call, pool owned, no workers) or the shape is too short to split —
/// the caller then computes one panel, which packs B at most once.
///
/// One rule: split the **longer** of `m` and `n`. Only B is ever
/// packed: a column split packs each column of B once in total (every
/// task packs just its own columns), while in a row split every task
/// packs all of B for its own rows. Splitting the longer side keeps
/// that re-pack to shapes where B is the smaller operand. The 16-row
/// conv GEMMs therefore split columns (B streams past once); squarish
/// and tall shapes split rows. Tasks own at least [`MIN_SPLIT`]
/// rows/columns and there are at most two per thread, so the atomic
/// task queue can still even out
/// finish times. Every task writes its [`Window`] of `out` in place;
/// per-element arithmetic is identical on every path, so results stay
/// bit-equal to the single panel.
fn fan_out(
    kern: simd::Kernel,
    a: Operand,
    b: Operand,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) -> bool {
    let by_cols = n > m;
    let (extent, tile) = if by_cols { (n, NR) } else { (m, MR) };
    let tasks = (pool::max_parallelism() * 2).min(extent / MIN_SPLIT);
    // Task `t` owns `bound(t)..bound(t + 1)`: tile-aligned cuts of an
    // even split. `tasks ≤ extent / MIN_SPLIT` and `MIN_SPLIT` is a
    // multiple of `tile`, so no run is shorter than `MIN_SPLIT`.
    let bound = |t: usize| {
        if t == tasks {
            extent
        } else {
            t * extent / tasks / tile * tile
        }
    };
    let whole = Window::whole(out, m, n);
    pool::try_parallel_for(tasks, &|t| {
        let run = bound(t)..bound(t + 1);
        // SAFETY: `bound` is monotone, so the runs of distinct tasks —
        // and with them their row panels or column windows — are
        // disjoint; nothing writes through `whole` itself.
        let window = unsafe {
            if by_cols {
                whole.sub(0..m, run)
            } else {
                whole.sub(run, 0..n)
            }
        };
        gemm_panel(kern, a, b, window, k);
    })
}

/// Tiled core: computes `A[rows, :] @ B[:, cols]` for the rows and
/// columns of the product that `out` covers, overwriting them.
///
/// Blocking is `pc` (k, [`tune::KC`]) → `ic` (rows, [`tune::MC`]) →
/// `j0` (columns, `NR`) → `r0` (rows, `MR`): per k-block, each `mc`-row
/// slice of A stays L2-resident while every column window streams past
/// it. The register tile reads a stored A in place in either layout
/// ([`Stored::a_rows`]); a patch-matrix A is first lowered, the panel's
/// rows times the k-block, into scratch that the tile then reads in
/// place. The tile reads B in place too when B is stored row-major,
/// its k-block spans at most [`DIRECT_B_MAX`] elements and the window
/// is a full `NR` columns; otherwise ([`matmul_t`](Tensor::matmul_t)'s
/// B, a large or patch-matrix B, the last narrow window) the window is
/// packed into a contiguous, zero-padded `kc × NR` slab first. Neither
/// choice combines values, so neither can change a result. Block sizes
/// come from [`tune::active`] and cannot change results either: every
/// output element accumulates k-blocks in ascending `pc` order
/// regardless of how `ic`/`j0` interleave, the first block starts its
/// accumulator at `+0.0`, and a later block boundary just round-trips
/// it through an exact `f32` store. Edge tiles run the same full-size
/// tile; their padded lanes and repeated rows are computed and then
/// discarded by the partial store, which cannot change the kept values
/// (each output element only ever accumulates its own row/column lane).
fn gemm_panel(kern: simd::Kernel, a: Operand, b: Operand, mut out: Window, k: usize) {
    let (i0, m) = (out.i0, out.rows);
    let (jc, n) = (out.j0, out.cols);
    let cfg = tune::active();
    let kc_max = cfg.kc.min(k);
    let mc = cfg.mc.min(m.next_multiple_of(MR));
    let b_in_place =
        matches!(b, Operand::Stored(s) if !s.col_major && kc_max * s.ld <= DIRECT_B_MAX);
    // The B slab and the lowered A block come from the executing
    // thread's scratch pool, and only once something needs them: a
    // product that reads both operands in place checks out neither.
    // Unzeroed scratch is safe: [`pack_b`] and [`Patches::lower`] write
    // every element the tile reads.
    let mut bpack: Option<ScratchVec> = None;
    let mut ablock: Option<ScratchVec> = None;
    let mut pc = 0;
    while pc < k {
        let kc = (k - pc).min(kc_max);
        // A as the tile reads it, and the coordinates of the panel's
        // first row and this k-block in it.
        let (a_src, ai, apc) = match a {
            Operand::Stored(s) => (s, i0, pc),
            Operand::Patches(p) => {
                let block = ablock.get_or_insert_with(|| ScratchVec::take(m * kc_max));
                p.lower(i0..i0 + m, pc..pc + kc, block, kc);
                (Stored::row_major(&block[..m * kc], kc), 0, 0)
            }
        };
        let mut ic = 0;
        while ic < m {
            let mh = (m - ic).min(mc);
            let mut j0 = 0;
            while j0 < n {
                let jw = (n - j0).min(NR);
                let (bsrc, b_step) = match b {
                    Operand::Stored(s) if b_in_place && jw == NR => {
                        (&s.data[pc * s.ld + jc + j0..], s.ld)
                    }
                    _ => {
                        let slab = bpack.get_or_insert_with(|| ScratchVec::take(kc_max * NR));
                        pack_b(b, slab, pc, kc, jc + j0, jw);
                        (&slab[..], NR)
                    }
                };
                let mut r0 = ic;
                while r0 < ic + mh {
                    let rh = (ic + mh - r0).min(MR);
                    let (arows, a_step) = a_src.a_rows(ai + r0, rh, apc);
                    let tile = Tile {
                        a: arows,
                        a_step,
                        b: bsrc,
                        b_step,
                        kc,
                    };
                    micro_tile(kern, tile, &mut out, r0, rh, j0, jw, pc == 0);
                    r0 += rh;
                }
                j0 += jw;
            }
            ic += mh;
        }
        pc += kc;
    }
}

/// Packs columns `j..j + jw` of B's k-block `pc..pc + kc` into the
/// first `kc × NR` elements of `slab`, `NR` per k-step, zero-padding
/// lanes past `jw`. A patch-matrix B is lowered straight into the slab.
fn pack_b(b: Operand, slab: &mut [f32], pc: usize, kc: usize, j: usize, jw: usize) {
    if jw < NR {
        slab[..kc * NR].fill(0.0);
    }
    match b {
        Operand::Patches(p) => p.lower(pc..pc + kc, j..j + jw, slab, NR),
        Operand::Stored(b) if b.col_major => {
            // Stored `[n × k]`: one logical column is a contiguous
            // stored row.
            for c in 0..jw {
                let base = (j + c) * b.ld + pc;
                for (p, &v) in b.data[base..base + kc].iter().enumerate() {
                    slab[p * NR + c] = v;
                }
            }
        }
        Operand::Stored(b) => {
            for p in 0..kc {
                let base = (pc + p) * b.ld + j;
                slab[p * NR..p * NR + jw].copy_from_slice(&b.data[base..base + jw]);
            }
        }
    }
    #[cfg(test)]
    pack_probe::record(b.source(), kc * jw);
}

/// One register tile's operands over one k-block of `kc` steps: A row
/// `r` at step `p` is `a[r][p * a_step]`, and B's `NR` lanes at step
/// `p` start at `b[p * b_step]` — packed (`b_step = NR`) or in place
/// (`b_step` = B's row length).
#[derive(Clone, Copy)]
struct Tile<'a> {
    a: [&'a [f32]; MR],
    a_step: usize,
    b: &'a [f32],
    b_step: usize,
    kc: usize,
}

/// `MR × NR` register tile: accumulators live in registers across the
/// k-block and only the `rh × jw` live sub-tile is stored. On the
/// `first` k-block they start at `+0.0` and *store* over whatever the
/// output held; on later blocks they are loaded from the output and
/// the sums stored back — the same accumulator, round-tripped through
/// an exact `f32`. A full tile is loaded from and stored to the output
/// in place; an edge tile goes through a local `MR × NR` buffer whose
/// padding lanes are dropped.
///
/// # Panics
///
/// Panics if an operand slice ends before the k-block does, or the
/// `rh × jw` sub-tile leaves `out` — both bugs in the blocking loops,
/// checked before any raw-pointer read.
#[inline]
fn micro_tile(
    kern: simd::Kernel,
    t: Tile,
    out: &mut Window,
    r0: usize,
    rh: usize,
    j0: usize,
    jw: usize,
    first: bool,
) {
    if rh == MR && jw == NR {
        tile_kernel(kern, t, &mut out.tile(r0, j0), !first, NR);
        return;
    }
    let mut acc = [[0.0f32; NR]; MR];
    if !first {
        for (r, accr) in acc.iter_mut().take(rh).enumerate() {
            accr[..jw].copy_from_slice(out.segment(r0 + r, j0, jw));
        }
    }
    tile_kernel(kern, t, &mut acc.each_mut(), true, jw);
    for (r, accr) in acc.iter().take(rh).enumerate() {
        out.segment(r0 + r, j0, jw).copy_from_slice(&accr[..jw]);
    }
}

/// `c[r][j] = (load ? c[r][j] : +0.0) + Σ_p a[r][p·a_step] ·
/// b[p·b_step + j]`, ascending `p`, one accumulator per element, for
/// the columns `j < jw` (an edge tile's lanes past `jw` may be left
/// stale or hold sums of padding; the caller drops them).
///
/// Dispatches on `kern`: the SIMD tiers execute the same mul-then-add
/// per lane (bit-identical, see [`crate::simd`]) and everything else
/// runs the portable loop.
///
/// # Panics
///
/// Panics if the k-block is empty, `b_step < NR` (B's lanes of two
/// k-steps would overlap), or an operand slice ends before the k-block
/// does — each a bug in the blocking loops, checked before any tier
/// reads anything.
#[inline]
fn tile_kernel(kern: simd::Kernel, t: Tile, c: &mut [&mut [f32; NR]; MR], load: bool, jw: usize) {
    let kc = t.kc;
    assert!(kc > 0 && t.b_step >= NR, "malformed tile");
    let last = kc - 1;
    assert!(
        t.a.iter().all(|row| row.len() > last * t.a_step) && t.b.len() >= last * t.b_step + NR,
        "tile operands shorter than the k-block"
    );
    match kern {
        #[cfg(target_arch = "x86_64")]
        simd::Kernel::Avx2 => {
            // SAFETY: `simd::active` only returns tiers the CPU
            // supports, and the asserts above are the kernel's extent
            // contract: every `a[r][p·a_step]` and `b[p·b_step + j]`,
            // `p < kc`, `j < NR`, lies inside its slice.
            unsafe {
                simd::x86::gemm_tile_avx2(
                    t.a.map(<[f32]>::as_ptr),
                    t.a_step,
                    t.b.as_ptr(),
                    t.b_step,
                    c,
                    kc,
                    load,
                    jw,
                );
            }
        }
        #[cfg(target_arch = "x86_64")]
        simd::Kernel::Avx512 => {
            let tile = if jw <= NR / 2 {
                simd::x86::gemm_tile_avx512::<1>
            } else {
                simd::x86::gemm_tile_avx512::<{ NR / 16 }>
            };
            // SAFETY: as for the AVX2 arm — a supported tier, and the
            // asserts above are the kernel's extent contract.
            unsafe {
                tile(
                    t.a.map(<[f32]>::as_ptr),
                    t.a_step,
                    t.b.as_ptr(),
                    t.b_step,
                    c,
                    kc,
                    load,
                );
            }
        }
        _ => {
            // `MR × 8` blocks, one k-sweep each: their accumulators fit
            // the baseline x86-64 register file, a whole tile's do not.
            const W: usize = 8;
            for cb in (0..jw.min(NR)).step_by(W) {
                let mut acc = [[0.0f32; W]; MR];
                if load {
                    for (accr, cr) in acc.iter_mut().zip(c.iter()) {
                        accr.copy_from_slice(&cr[cb..cb + W]);
                    }
                }
                for p in 0..kc {
                    let brow = &t.b[p * t.b_step + cb..p * t.b_step + cb + W];
                    for (accr, arow) in acc.iter_mut().zip(&t.a) {
                        let av = arow[p * t.a_step];
                        for (x, &bv) in accr.iter_mut().zip(brow) {
                            *x += av * bv;
                        }
                    }
                }
                for (cr, accr) in c.iter_mut().zip(acc) {
                    cr[cb..cb + W].copy_from_slice(&accr);
                }
            }
        }
    }
}

/// Test-only pack-volume counter: how many source elements [`pack_b`]
/// read from the watched B buffer. Keyed on that buffer's address so
/// GEMMs issued by tests running concurrently on other threads are not
/// counted, and global rather than thread-local so a fanned-out
/// product's tasks are. A is never packed.
#[cfg(test)]
mod pack_probe {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    struct Watch {
        b_addr: usize,
        b_elems: usize,
    }

    static WATCH: Mutex<Option<Watch>> = Mutex::new(None);
    /// One measurement at a time.
    static SESSION: Mutex<()> = Mutex::new(());

    fn watch() -> MutexGuard<'static, Option<Watch>> {
        WATCH.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(super) fn record(b: &[f32], b_elems: usize) {
        if let Some(w) = watch().as_mut() {
            if w.b_addr == b.as_ptr() as usize {
                w.b_elems += b_elems;
            }
        }
    }

    /// Runs `f` and returns the element count packed from `b`.
    pub(super) fn measure(b: &[f32], f: impl FnOnce()) -> usize {
        let _session = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
        *watch() = Some(Watch {
            b_addr: b.as_ptr() as usize,
            b_elems: 0,
        });
        f();
        let w = watch().take().expect("watch installed above");
        w.b_elems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(v.to_vec(), dims).unwrap()
    }

    #[test]
    fn matmul_small_known_product() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let c = a.matmul(&Tensor::eye(3)).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn matmul_rejects_bad_inner_dims() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let b = t(&[1.0, 0.0, 2.0, 1.0, 0.0, 3.0], &[3, 2]);
        let fast = a.t_matmul(&b).unwrap();
        let slow = a.transpose().unwrap().matmul(&b).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[1.0, 0.0, 2.0, 1.0, 0.0, 3.0], &[2, 3]);
        let fast = a.matmul_t(&b).unwrap();
        let slow = a.matmul(&b.transpose().unwrap()).unwrap();
        assert_eq!(fast, slow);
    }

    /// Serial reference with the same accumulation order the kernels
    /// guarantee: ascending `k`, one accumulator per element.
    fn reference(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.rows().unwrap(), a.cols().unwrap());
        let n = b.cols().unwrap();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.at(i, p) * b.at(p, j);
                }
                out[i * n + j] = acc;
            }
        }
        Tensor::from_vec(out, &[m, n]).unwrap()
    }

    fn operands(m: usize, k: usize, n: usize) -> (Tensor, Tensor) {
        let mut rng = rand::rngs::StdRng::seed_from_u64((m * 31 + k * 7 + n) as u64);
        (
            crate::uniform(&mut rng, &[m, k], -1.0, 1.0),
            crate::uniform(&mut rng, &[k, n], -1.0, 1.0),
        )
    }

    #[test]
    fn column_window_panels_match_the_full_panel() {
        // The column split computes disjoint column windows of the one
        // output in place; together they must reproduce the full-width
        // panel bit-for-bit.
        let (m, k, n) = (5, 150, 64);
        let (a, b) = operands(m, k, n);
        let (a, b) = (
            Operand::row_major(a.data(), k),
            Operand::row_major(b.data(), n),
        );
        let mut full = vec![0.0f32; m * n];
        let kern = simd::active();
        gemm_panel(kern, a, b, Window::whole(&mut full, m, n), k);
        let mut windowed = vec![0.0f32; m * n];
        let whole = Window::whole(&mut windowed, m, n);
        for jc in (0..n).step_by(NR + 3) {
            // SAFETY: one sub-window alive at a time.
            let window = unsafe { whole.sub(0..m, jc..(jc + NR + 3).min(n)) };
            gemm_panel(kern, a, b, window, k);
        }
        assert_eq!(full, windowed);
    }

    #[test]
    fn row_panels_of_a_transposed_operand_match_the_full_panel() {
        // The row split hands each task a row range of A; for
        // `t_matmul` those are *columns* of the stored `[k × m]` buffer.
        let (m, k, n) = (19, 150, 21);
        let (a, b) = operands(m, k, n);
        let at = a.transpose().unwrap();
        let bt = b.transpose().unwrap();
        let kern = simd::active();
        let mut full = vec![0.0f32; m * n];
        gemm_panel(
            kern,
            Operand::row_major(a.data(), k),
            Operand::row_major(b.data(), n),
            Window::whole(&mut full, m, n),
            k,
        );
        let (a, b) = (
            Operand::col_major(at.data(), m),
            Operand::col_major(bt.data(), k),
        );
        let mut stacked = vec![0.0f32; m * n];
        let whole = Window::whole(&mut stacked, m, n);
        for rows in [0..8, 8..12, 12..m] {
            // SAFETY: one sub-window alive at a time.
            gemm_panel(kern, a, b, unsafe { whole.sub(rows, 0..n) }, k);
        }
        assert_eq!(full, stacked);
    }

    #[test]
    fn large_shapes_cross_the_tiled_and_parallel_paths() {
        // 96×70×130 packs its narrow last window; 128×128×128 reaches PAR_WORK
        // (row split) and 4×600×600 the short-and-wide column split
        // when a multi-core pool exists. All must agree with the
        // reference bit-for-bit.
        for (m, k, n) in [(96, 70, 130), (128, 128, 128), (4, 600, 600)] {
            let (a, b) = operands(m, k, n);
            assert_eq!(a.matmul(&b).unwrap(), reference(&a, &b), "{m}x{k}x{n}");
        }
    }

    /// A 3×3 conv layer over a batch of 10 16×16 images, as
    /// `fedtrans-conv` trains it: `(channels, height, width, kernel)`
    /// of its input.
    type ConvGeometry = (usize, usize, usize, usize);

    /// The public products.
    #[derive(Clone, Copy, Debug)]
    enum Method {
        MatMul,
        TMatMul,
        MatMulT,
        /// `a @ patches(b)`: a conv forward, `b` the NCHW input.
        MatMulPatches(ConvGeometry),
        /// `patches(a) @ bᵀ`: a conv `dWᵀ`, `a` the NCHW input.
        PatchesMatMulT(ConvGeometry),
    }

    /// How a test issues a product: through `gemm` on one tier, with
    /// the operands laid out as the public method lays them out, or
    /// through the public method itself, on the active tier.
    #[derive(Clone, Copy, Debug)]
    enum Via {
        Tier(simd::Kernel),
        Public,
    }

    /// Every tier this host has, then the public methods.
    fn every_route() -> Vec<Via> {
        let mut routes: Vec<Via> = simd::available().into_iter().map(Via::Tier).collect();
        routes.push(Via::Public);
        routes
    }

    fn patches(x: &Tensor, (c, h, w, k): ConvGeometry) -> Patches<'_> {
        Patches::new(x, c, h, w, k).unwrap()
    }

    impl Method {
        /// `a.method(b)`, issued `via`; the product is dropped.
        fn run(self, via: Via, a: &Tensor, b: &Tensor) {
            let kern = match via {
                Via::Tier(kern) => kern,
                Via::Public => {
                    let product = match self {
                        Method::MatMul => a.matmul(b),
                        Method::TMatMul => a.t_matmul(b),
                        Method::MatMulT => a.matmul_t(b),
                        Method::MatMulPatches(g) => a.matmul_patches(&patches(b, g)),
                        Method::PatchesMatMulT(g) => patches(a, g).matmul_t(b),
                    };
                    return drop(product.unwrap());
                }
            };
            let (ar, ac) = (a.rows().unwrap(), a.cols().unwrap());
            let (br, bc) = (b.rows().unwrap(), b.cols().unwrap());
            let lowered = match self {
                Method::MatMulPatches(g) => Some(patches(b, g)),
                Method::PatchesMatMulT(g) => Some(patches(a, g)),
                _ => None,
            };
            let (a, b, m, k, n) = match self {
                Method::MatMul => (
                    Operand::row_major(a.data(), ac),
                    Operand::row_major(b.data(), bc),
                    ar,
                    ac,
                    bc,
                ),
                Method::TMatMul => (
                    Operand::col_major(a.data(), ac),
                    Operand::row_major(b.data(), bc),
                    ac,
                    ar,
                    bc,
                ),
                Method::MatMulT => (
                    Operand::row_major(a.data(), ac),
                    Operand::col_major(b.data(), bc),
                    ar,
                    ac,
                    br,
                ),
                Method::MatMulPatches(_) => {
                    let p = lowered.as_ref().expect("built above");
                    (
                        Operand::row_major(a.data(), ac),
                        Operand::Patches(p),
                        ar,
                        ac,
                        p.cols(),
                    )
                }
                Method::PatchesMatMulT(_) => {
                    let p = lowered.as_ref().expect("built above");
                    (
                        Operand::Patches(p),
                        Operand::col_major(b.data(), bc),
                        p.rows(),
                        bc,
                        br,
                    )
                }
            };
            drop(gemm(kern, a, b, m, k, n));
        }
    }

    /// One product of a `fedtrans-conv` layer, `a.method(b)` with the
    /// operands as the layer stores them, and the element count one
    /// pack of B reads (lowers, for a patch-matrix B).
    struct ConvProduct {
        method: Method,
        a: Tensor,
        b: Tensor,
        once: usize,
    }

    /// The three products of one conv layer of `fedtrans-conv`
    /// (16 → 16 channels, 3×3, batch 10 of 16×16): forward
    /// `matmul_patches`, which lowers the `[144 × 2560]` patch matrix
    /// into its pack; `dWᵀ` `Patches::matmul_t`, which packs `dY`; and
    /// one sample's `dcols` `t_matmul`, whose `[16 × 256]` B is read in
    /// place.
    fn conv_products() -> [ConvProduct; 3] {
        let (oc, c, hw, batch) = (16, 16, 256, 10);
        let geometry = (c, 16, 16, 3);
        let (w, _) = operands(oc, c * 9, 1); // weight [16×144]
        let (x, _) = operands(batch, c * hw, 1); // NCHW input
        let (dy, _) = operands(oc, batch * hw, 1); // [16×2560]
        let (dys, _) = operands(oc, hw, 1); // one sample's [16×256]
        [
            ConvProduct {
                method: Method::MatMulPatches(geometry),
                a: w.clone(),
                b: x.clone(),
                once: c * 9 * batch * hw,
            },
            ConvProduct {
                method: Method::PatchesMatMulT(geometry),
                a: x,
                b: dy,
                once: oc * batch * hw,
            },
            ConvProduct {
                method: Method::TMatMul,
                a: w,
                b: dys,
                once: 0,
            },
        ]
    }

    /// Runs `f` from inside a pool task (as every client lane and
    /// evaluation task does), whichever thread ends up executing it.
    fn nested(f: &(dyn Fn() + Sync)) {
        // Index 0 runs either on a worker or on this thread while it
        // owns the pool: both make a dispatch from inside `f` inline.
        while !pool::try_parallel_for(2, &|i| {
            if i == 0 {
                f();
            }
        }) {
            if pool::max_parallelism() == 1 {
                // No workers: every dispatch is inline anyway.
                return f();
            }
            // Another test owns the pool right now.
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_nested_conv_gemm_packs_b_exactly_once() {
        // Once per product, not once per 4-row panel, and with no
        // `transposed()` copy first, on every tier and through the
        // public methods — or not at all, where B is read in place. A
        // is never packed.
        for via in every_route() {
            for p in conv_products() {
                let run = || nested(&|| p.method.run(via, &p.a, &p.b));
                let packed = pack_probe::measure(p.b.data(), run);
                assert_eq!(packed, p.once, "{:?} via {via:?}", p.method);
            }
        }
    }

    #[test]
    fn a_fanned_out_conv_gemm_packs_b_once_in_total() {
        // From the main thread the product may fan out (when the pool
        // has workers and nobody else owns it). The forward and `dcols`
        // are wider than tall, so they split by columns and each task
        // packs only its own columns of B. `dWᵀ` is taller than wide
        // and splits by rows: each task packs all of `dY`, at most one
        // task per `MIN_SPLIT` rows.
        for via in every_route() {
            for p in conv_products() {
                let run = || p.method.run(via, &p.a, &p.b);
                let packed = pack_probe::measure(p.b.data(), run);
                let shape = format!("{:?} via {via:?}", p.method);
                if let Method::PatchesMatMulT(_) = p.method {
                    let tasks = packed / p.once;
                    assert_eq!(packed % p.once, 0, "{shape}");
                    assert!((1..=144 / MIN_SPLIT).contains(&tasks), "{shape}: {tasks}");
                } else {
                    assert_eq!(packed, p.once, "{shape}");
                }
            }
        }
    }

    /// Patch-matrix block `rows × cols` of `x` for `geometry`, one
    /// element at a time (each tests its own border): the lowering's
    /// oracle.
    fn patch_oracle(x: &Tensor, (c, h, w, k): ConvGeometry, r: usize, col: usize) -> f32 {
        let (ic, ki, kj) = (r / (k * k), r % (k * k) / k, r % k);
        let (s, oi, oj) = (col / (h * w), col % (h * w) / w, col % w);
        let ii = (oi + ki) as isize - (k / 2) as isize;
        let jj = (oj + kj) as isize - (k / 2) as isize;
        if ii < 0 || jj < 0 || ii >= h as isize || jj >= w as isize {
            return 0.0;
        }
        x.data()[s * c * h * w + ic * h * w + ii as usize * w + jj as usize]
    }

    #[test]
    fn the_32_channel_layer_packs_dy_and_never_a_patch_matrix() {
        // The widest `fedtrans-conv` layer, 32 → 32 channels, 3×3,
        // batch 10 of 16×16, issued nested as a client lane issues it,
        // on every tier and through the public methods.
        let (oc, c, hw, batch) = (32, 32, 256, 10);
        let geometry = (c, 16, 16, 3);
        let (rows, cols) = (c * 9, batch * hw);
        let (w, _) = operands(oc, rows, 1);
        let (x, _) = operands(batch, c * hw, 1);
        let (dy, _) = operands(oc, cols, 1);
        // The matrix an im2col lowering would have written.
        let materialized = Tensor::from_vec(
            (0..rows * cols)
                .map(|e| patch_oracle(&x, geometry, e / cols, e % cols))
                .collect(),
            &[rows, cols],
        )
        .unwrap();
        for via in every_route() {
            let packed = |method: Method, a: &Tensor, b: &Tensor, key: &Tensor| {
                pack_probe::measure(key.data(), || nested(&|| method.run(via, a, b)))
            };
            // dWᵀ = patches · dYᵀ packs dY once: 32 × 2 560 elements.
            let dwt = Method::PatchesMatMulT(geometry);
            assert_eq!(packed(dwt, &x, &dy, &dy), 81_920, "{via:?}");
            // dW = dY · patchesᵀ, the orientation it replaced, sends the
            // whole patch matrix through the transposing pack.
            let dw = Method::MatMulT;
            assert_eq!(
                packed(dw, &dy, &materialized, &materialized),
                737_280,
                "{via:?}"
            );
            // The forward lowers each patch element into its pack once,
            // straight from the input.
            let forward = Method::MatMulPatches(geometry);
            assert_eq!(packed(forward, &w, &x, &x), rows * cols, "{via:?}");
        }
    }

    #[test]
    fn the_lowering_writes_only_its_own_block() {
        // `Patches::lower` as the B pack calls it (a slab of at most
        // `NR` columns, rows `NR` apart) and as the A block does (rows a
        // k-block long), into canary-padded buffers at offsets 1–7:
        // each element of the block must match the per-element oracle
        // bit for bit, and every other element must still be a canary.
        // Images of 1×1, 5×7, 16×16 and 17×3 put sample boundaries and
        // whole padding taps inside blocks.
        let mut calls = 0usize;
        for k in [1, 3, 5] {
            for (h, w) in [(1, 1), (5, 7), (16, 16), (17, 3)] {
                for (c, batch) in [(1, 1), (3, 3), (2, 10)] {
                    let mut rng = rand::rngs::StdRng::seed_from_u64((k * 100 + h * w + c) as u64);
                    let x = crate::uniform(&mut rng, &[batch, c * h * w], -1.0, 1.0);
                    let geometry = (c, h, w, k);
                    let p = patches(&x, geometry);
                    let (rows, cols) = (p.rows(), p.cols());
                    let blocks = [
                        (0..rows, 0..cols.min(NR), NR),
                        (rows / 2..rows, cols / 3..(cols / 3 + NR).min(cols), NR),
                        (0..rows, 0..cols, cols + 3),
                        (rows - 1..rows, cols - 1..cols, 5),
                        (rows / 3..rows, cols / 2..cols, cols + 1),
                    ];
                    for (block_rows, block_cols, ld) in blocks {
                        calls += 1;
                        let off = 1 + calls % 7;
                        let len = block_rows.len() * ld;
                        let mut buf = vec![CANARY; off + len + TAIL];
                        p.lower(
                            block_rows.clone(),
                            block_cols.clone(),
                            &mut buf[off..off + len],
                            ld,
                        );
                        for (e, got) in buf.iter().enumerate() {
                            let inside = e
                                .checked_sub(off)
                                .filter(|&e| e < len && e % ld < block_cols.len());
                            let want = inside.map_or(CANARY, |e| {
                                let r = block_rows.start + e / ld;
                                patch_oracle(&x, geometry, r, block_cols.start + e % ld)
                            });
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{c}x{h}x{w} k{k} batch {batch}, rows {block_rows:?}, \
                                 cols {block_cols:?}, ld {ld}: element {e} (offset {off})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dense_layer_products_pack_only_the_transposed_weight() {
        // Every `fedtrans-dense` layer shape (batch 10), the widest
        // 96 ↔ 192 pair included, on every tier and through the public
        // methods: forward and `dW` read B in place, except a window
        // narrower than `NR` (the last 16 columns of a 48-wide layer,
        // all of a 16-wide head), which is packed; `dX = dY Wᵀ` packs W
        // once.
        for via in every_route() {
            for (fan_in, fan_out) in [(96, 48), (48, 16), (96, 192), (192, 96)] {
                let (x, w) = operands(10, fan_in, fan_out);
                let (dy, _) = operands(10, fan_out, 1);
                let edge = fan_out % NR;
                let packed = |method: Method, a: &Tensor, b: &Tensor| {
                    pack_probe::measure(b.data(), || method.run(via, a, b))
                };
                let shape = format!("{fan_in} -> {fan_out} via {via:?}");
                assert_eq!(packed(Method::MatMul, &x, &w), fan_in * edge, "{shape}");
                assert_eq!(packed(Method::TMatMul, &x, &dy), 10 * edge, "{shape}");
                let dx = packed(Method::MatMulT, &dy, &w);
                assert_eq!(dx, fan_in * fan_out, "{shape}");
            }
        }
    }

    /// A NaN whose payload no product produces: a padding element that
    /// no longer holds it was written by the kernel, and one that leaks
    /// into a kept output turns it into a NaN the reference lacks.
    const CANARY: f32 = f32::from_bits(0x7fa5_a5a5);
    /// Canary elements after every buffer: more than a tile row reads.
    const TAIL: usize = 2 * NR + 1;

    /// `values` at offset `off` of a canary-filled buffer.
    fn padded(values: &[f32], off: usize) -> Vec<f32> {
        let mut buf = vec![CANARY; off + values.len() + TAIL];
        buf[off..off + values.len()].copy_from_slice(values);
        buf
    }

    /// Logical `rows × cols` matrix `at(r, c)` stored as `stored` rows of
    /// `ld` (`ld` ≥ the stored row length); padding cells are canaries.
    fn store(
        rows: usize,
        cols: usize,
        col_major: bool,
        ld: usize,
        at: &dyn Fn(usize, usize) -> f32,
    ) -> Vec<f32> {
        let (stored, len) = if col_major {
            (cols, rows)
        } else {
            (rows, cols)
        };
        let mut buf = vec![CANARY; stored * ld];
        for s in 0..stored {
            for e in 0..len {
                let (r, c) = if col_major { (e, s) } else { (s, e) };
                buf[s * ld + e] = at(r, c);
            }
        }
        buf
    }

    #[test]
    fn the_tile_stays_inside_canary_padded_operands_and_windows() {
        // Every raw-pointer path of the kernel — the SIMD tiles' reads of
        // A and B in place, `Window::tile`/`segment` writes, `Window::sub`
        // offsets — on every tier at 0 ULP against the reference.
        // Operands sit at base offsets 1–7 of canary-padded buffers and
        // carry canary padding between their stored rows; outputs are
        // windows of a canary-filled product (whole, last row, last
        // column, a corner with MR/NR remainders). Every `m` mod `MR`
        // appears, and `n` straddles the AVX2 half-tile (16) and the
        // full-tile (`NR`) edges. After every call each element outside the window
        // must still be a canary, and each inside must match the
        // reference bit for bit.
        let mut calls = 0usize;
        let shapes = [1, 2, 3, 4, 5, 9].into_iter().flat_map(|m| {
            [1, 15, 16, 17, NR - 1, NR, NR + 1, 2 * NR + 1]
                .into_iter()
                .flat_map(move |n| [1, 7, 9, 200].map(|k| (m, n, k)))
        });
        for (m, n, k) in shapes {
            let mut rng = rand::rngs::StdRng::seed_from_u64((m * 1000 + n * 10 + k) as u64);
            let av: Vec<f32> = crate::uniform(&mut rng, &[m * k], -1.0, 1.0)
                .data()
                .to_vec();
            let bv: Vec<f32> = crate::uniform(&mut rng, &[k * n], -1.0, 1.0)
                .data()
                .to_vec();
            let (a_at, b_at) = (
                |i: usize, p: usize| av[i * k + p],
                |p: usize, j: usize| bv[p * n + j],
            );
            let want: Vec<f32> = (0..m * n)
                .map(|e| (0..k).fold(0.0f32, |acc, p| acc + a_at(e / n, p) * b_at(p, e % n)))
                .collect();
            // (layout, stored row length): A row-major tight and padded,
            // A column-major padded; B row-major in place, B row-major
            // too wide to read in place, B column-major padded.
            let packed_ld = (DIRECT_B_MAX / k.min(tune::KC) + 1).max(n);
            let a_forms = [(false, k), (false, k + 3), (true, m + 3)];
            let b_forms = [(false, n + 3), (false, packed_ld), (true, k + 3)];
            let windows = [
                (0..m, 0..n),
                (m - 1..m, 0..n),
                (0..m, n - 1..n),
                (m / 2..m, n / 2..n),
            ];
            for (a_col, a_ld) in a_forms {
                for (b_col, b_ld) in b_forms {
                    let a_off = 1 + calls % 7;
                    let b_off = 1 + (calls / 7) % 7;
                    let abuf = padded(&store(m, k, a_col, a_ld, &a_at), a_off);
                    let bbuf = padded(&store(k, n, b_col, b_ld, &b_at), b_off);
                    let a_len = abuf.len() - a_off - TAIL;
                    let b_len = bbuf.len() - b_off - TAIL;
                    let a = Operand::Stored(Stored {
                        data: &abuf[a_off..a_off + a_len],
                        ld: a_ld,
                        col_major: a_col,
                    });
                    let b = Operand::Stored(Stored {
                        data: &bbuf[b_off..b_off + b_len],
                        ld: b_ld,
                        col_major: b_col,
                    });
                    for kern in simd::available() {
                        for (rows, cols) in windows.clone() {
                            calls += 1;
                            let off = 1 + calls % 7;
                            let mut out = padded(&vec![CANARY; m * n], off);
                            let whole = Window::whole(&mut out[off..off + m * n], m, n);
                            // SAFETY: the only sub-window alive.
                            let window = unsafe { whole.sub(rows.clone(), cols.clone()) };
                            gemm_panel(kern, a, b, window, k);
                            for (e, got) in out.iter().enumerate() {
                                let inside = e.checked_sub(off).filter(|&e| {
                                    e < m * n && rows.contains(&(e / n)) && cols.contains(&(e % n))
                                });
                                let expect = inside.map_or(CANARY, |e| want[e]);
                                assert_eq!(
                                    got.to_bits(),
                                    expect.to_bits(),
                                    "{m}x{k}x{n} element {e} (offset {off}), A col_major {a_col} ld {a_ld}, \
                                     B col_major {b_col} ld {b_ld}, window {rows:?} x {cols:?}, {kern:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    use rand::SeedableRng;

    #[test]
    fn nan_weight_poisons_matmul_product() {
        // Regression: the old kernel skipped `a == 0.0` rows, so a NaN
        // in B vanished from the product when multiplied by zero.
        let a = t(&[0.0, 1.0], &[1, 2]);
        let b = t(&[f32::NAN, 2.0, 3.0, 4.0], &[2, 2]);
        let c = a.matmul(&b).unwrap();
        assert!(c.data()[0].is_nan(), "0 x NaN must propagate NaN");
        assert!(c.data()[1].is_finite());
    }

    #[test]
    fn nan_weight_poisons_t_matmul_product() {
        let a = t(&[0.0, 1.0], &[2, 1]);
        let b = t(&[f32::NAN, 2.0, 3.0, 4.0], &[2, 2]);
        let c = a.t_matmul(&b).unwrap();
        assert!(c.data()[0].is_nan());
    }

    #[test]
    fn infinity_times_zero_poisons_matmul_t_product() {
        let a = t(&[0.0, 1.0], &[1, 2]);
        let b = t(&[f32::INFINITY, 2.0], &[1, 2]);
        let c = a.matmul_t(&b).unwrap();
        assert!(c.data()[0].is_nan(), "0 x inf must propagate NaN");
    }

    #[test]
    fn stale_scratch_never_reaches_a_product() {
        // The output is checked out unzeroed and the first k-block
        // stores over it: a NaN-filled buffer recycled into the pool
        // right before each product must leave no trace, whether the
        // product takes one k-block or several.
        for (m, k, n) in [(10, 96, 48), (10, 10, 16), (7, 300, 13), (96, 10, 48)] {
            let (a, b) = operands(m, k, n);
            let (at, bt) = (a.transpose().unwrap(), b.transpose().unwrap());
            let want = reference(&a, &b);
            let products: [&dyn Fn() -> Tensor; 3] = [
                &|| a.matmul(&b).unwrap(),
                &|| at.t_matmul(&b).unwrap(),
                &|| a.matmul_t(&bt).unwrap(),
            ];
            for product in products {
                drop(Tensor::from_vec(vec![f32::NAN; m * n], &[m, n]).unwrap());
                assert_eq!(product(), want, "{m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn a_sum_of_negative_zeros_is_positive_zero() {
        // Every accumulator starts at +0.0, as the reference's does, so
        // `+0 + (-0) + (-0)` is +0 — a tile that started from its first
        // product instead would store -0.
        let a = t(&[-1.0, -2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[0.0, 0.0], &[2, 1]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data()[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(c.data()[1].to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn empty_dimensions_yield_empty_or_zero_products() {
        let a = Tensor::zeros(&[0, 3]);
        let b = Tensor::zeros(&[3, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape().dims(), &[0, 2]);

        // Zero-length inner dimension: the product is all zeros.
        let a = Tensor::zeros(&[2, 0]);
        let b = Tensor::zeros(&[0, 3]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape().dims(), &[2, 3]);
        assert!(c.data().iter().all(|&v| v == 0.0));
    }
}
