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
//! A convolution's patch matrix is an operand too ([`Table`]): each
//! patch row is a contiguous run of a kj-shifted plane
//! ([`crate::conv`]), found through a per-row offset table and read in
//! place, as A or as B. No patch element is ever copied into a pack.
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
use crate::{pool, simd, tune, work, Result, Tensor, TensorError};

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
pub(crate) const PAR_WORK: usize = 1 << 20;
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
pub(crate) const MIN_SPLIT: usize = 32;
/// Largest k-block of a row-major B, in elements of its storage
/// (`kc` stored rows of `ld`), that the register tile reads in place
/// instead of packing. Set where packed and in-place B cross on the
/// benchmark host (one thread, each side alone; `docs/ARCHITECTURE.md`
/// "Packing"). Every `fedtrans-dense` k-block is at most 18 Ki elements,
/// and in place its products ran 1.0–2.0× faster than packed.
/// A k-block of rows 10 KiB apart (2 560 columns, a batch of ten 16×16
/// images as a patch matrix) falls into a few L1 sets per column
/// window, and each of many row tiles re-fetches it; such products ran
/// up to 1.3× slower in place than packed. The crossing for a 144-row product
/// lies between 16 and 32 Ki (re-measured on the 4 × 32 tile: packing
/// wins from about 16 Ki for 144 rows, in place up to at least 36 Ki
/// for 16).
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

    /// A dense layer's forward, `self @ weight + bias` for a `[m × k]`
    /// input, a `[k × n]` weight and a length-`n` bias: each finished
    /// sum gets its column's bias as the tile stores it, so no pass
    /// over the output follows the product.
    ///
    /// # Errors
    ///
    /// [`TensorError::MatmulDimMismatch`] when inner dimensions disagree,
    /// [`TensorError::ShapeMismatch`] when the bias is not `[n]`.
    pub fn matmul_bias(&self, weight: &Tensor, bias: &Tensor) -> Result<Tensor> {
        self.matmul_finished(weight, bias, false)
    }

    /// [`Tensor::matmul_bias`] followed by a ReLU in the same store:
    /// `v > 0 ? v : +0.0` on each biased sum (a NaN becomes `+0.0`).
    ///
    /// # Errors
    ///
    /// As [`Tensor::matmul_bias`].
    pub fn matmul_bias_relu(&self, weight: &Tensor, bias: &Tensor) -> Result<Tensor> {
        self.matmul_finished(weight, bias, true)
    }

    fn matmul_finished(&self, weight: &Tensor, bias: &Tensor, relu: bool) -> Result<Tensor> {
        let (m, k) = (self.rows()?, self.cols()?);
        let (k2, n) = (weight.rows()?, weight.cols()?);
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                left: vec![m, k],
                right: vec![k2, n],
            });
        }
        if bias.shape().dims() != [n] {
            return Err(TensorError::ShapeMismatch {
                left: bias.shape().dims().to_vec(),
                right: vec![n],
            });
        }
        let (a, b) = (
            Operand::row_major(self.data(), k),
            Operand::row_major(weight.data(), n),
        );
        let ep = Epilogue {
            meet: Meet::Store,
            bias: Some(Bias::Cols(bias.data())),
            relu,
        };
        let mut out = scratch::take(m * n);
        gemm_into(simd::active(), a, b, &mut out, m, k, n, ep);
        Tensor::from_vec(out, &[m, n])
    }

    /// `selfᵀ @ other` for `[k × m]` and `[k × n]` operands, stored over
    /// the `[m × n]` `out` in the tile's store: bit for bit
    /// `self.t_matmul(other)?` with no product buffer. A layer's weight
    /// gradient lands this way.
    ///
    /// # Errors
    ///
    /// [`TensorError::MatmulDimMismatch`] when the row counts disagree,
    /// [`TensorError::ShapeMismatch`] when `out` is not `[m × n]`.
    pub fn t_matmul_into(&self, other: &Tensor, out: &mut Tensor) -> Result<()> {
        let (k, m) = (self.rows()?, self.cols()?);
        let (k2, n) = (other.rows()?, other.cols()?);
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                left: vec![m, k],
                right: vec![k2, n],
            });
        }
        let a = Operand::col_major(self.data(), m);
        product_into(a, other, out, &[m, n], k)
    }

    /// The column sums of `self` (a `[k × n]` matrix; each sum over
    /// ascending rows from `+0.0`), stored over the length-`n` `out` in
    /// the tile's store as the product `1ᵀ @ self`: the sums a
    /// row-by-row loop makes, with no buffer between. A dense layer's
    /// bias gradient lands this way.
    ///
    /// # Errors
    ///
    /// [`TensorError::RankMismatch`] for a non-matrix,
    /// [`TensorError::ShapeMismatch`] when `out` is not `[n]`.
    pub fn sum_rows_into(&self, out: &mut Tensor) -> Result<()> {
        let (k, n) = (self.rows()?, self.cols()?);
        // A one-element column-major A with stride 0: a row of ones as
        // long as any k-block.
        let ones = Operand::col_major(&[1.0], 0);
        product_into(ones, self, out, &[n], k)
    }
}

/// `A @ B` for an `[m × k]` A and a row-major `[k × n]` B, stored over
/// `out`; `out` must be shaped `dims`, which hold `m · n` elements and
/// end in `n`.
fn product_into(a: Operand, b: &Tensor, out: &mut Tensor, dims: &[usize], k: usize) -> Result<()> {
    if out.shape().dims() != dims {
        return Err(TensorError::ShapeMismatch {
            left: out.shape().dims().to_vec(),
            right: dims.to_vec(),
        });
    }
    let n = dims[dims.len() - 1];
    let m = out.len() / n.max(1);
    let (b, out) = (Operand::row_major(b.data(), n), out.data_mut());
    gemm_into(simd::active(), a, b, out, m, k, n, Epilogue::STORE);
    Ok(())
}

/// A GEMM operand: a matrix as its caller stores it, or a patch matrix
/// read in place out of shifted planes.
#[derive(Clone, Copy)]
pub(crate) enum Operand<'a> {
    Stored(Stored<'a>),
    Planes(Table<'a>),
}

impl<'a> Operand<'a> {
    pub(crate) fn row_major(data: &'a [f32], ld: usize) -> Self {
        Operand::Stored(Stored::row_major(data, ld))
    }

    pub(crate) fn col_major(data: &'a [f32], ld: usize) -> Self {
        Operand::Stored(Stored {
            data,
            ld,
            col_major: true,
        })
    }

    /// Logical rows `i..i + rh` of A from column `pc` on, as the
    /// register tile reads them: row `r`'s element at k-step `p` is
    /// `rows[r][p * step]`. Rows past `rh` (an edge tile) repeat the
    /// last real row; the tile computes them and the store drops them.
    fn a_rows(&self, i: usize, rh: usize, pc: usize) -> ([&'a [f32]; MR], usize) {
        match self {
            Operand::Stored(s) => s.a_rows(i, rh, pc),
            Operand::Planes(t) => (std::array::from_fn(|r| t.row(i + r.min(rh - 1), pc)), 1),
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
pub(crate) struct Stored<'a> {
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

    /// [`Operand::a_rows`] for a stored A.
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

/// How the register tile finds B's `NR` lanes at each k-step of one
/// tile. Generic, so each form compiles its own tile and a stored B
/// keeps its plain strided addressing.
pub(crate) trait BRows: Copy {
    /// Whether the `NR` lanes of every k-step `p < kc` lie inside B's
    /// storage: the tiers' extent contract, checked once per tile.
    fn covers(&self, kc: usize) -> bool;

    /// B's storage from k-step `p`'s first lane on (the portable tier
    /// reads it through bounds-checked slices).
    fn lanes(&self, p: usize) -> &[f32];

    /// A pointer to k-step `p`'s first lane.
    ///
    /// # Safety
    ///
    /// [`BRows::covers`] must hold for some `kc > p`.
    unsafe fn row(&self, p: usize) -> *const f32;
}

/// B rows `step` apart: a packed slab (`step = NR`) or a row-major B in
/// place (`step` = its row length).
#[derive(Clone, Copy)]
pub(crate) struct Strided<'a> {
    data: &'a [f32],
    step: usize,
}

impl BRows for Strided<'_> {
    fn covers(&self, kc: usize) -> bool {
        // `step < NR` would overlap two k-steps' lanes.
        self.step >= NR && kc > 0 && self.data.len() >= (kc - 1) * self.step + NR
    }

    #[inline(always)]
    fn lanes(&self, p: usize) -> &[f32] {
        &self.data[p * self.step..]
    }

    #[inline(always)]
    unsafe fn row(&self, p: usize) -> *const f32 {
        debug_assert!(
            p * self.step + NR <= self.data.len(),
            "B read past its slice"
        );
        // SAFETY: `covers(kc)` with `p < kc` puts `p·step + NR` inside
        // the slice (the caller's contract).
        unsafe { self.data.as_ptr().add(p * self.step) }
    }
}

/// A matrix whose row `r` is the contiguous run `data[offs[r]..]`: the
/// patch matrix of one sample, each row a run of a kj-shifted plane
/// ([`crate::conv`]). As B the tile reads step `p` through the table;
/// as A each tile row is its own run, one element per k-step.
#[derive(Clone, Copy)]
pub(crate) struct Table<'a> {
    data: &'a [f32],
    offs: &'a [usize],
    /// An upper bound on every entry of `offs` (the largest entry of
    /// the table this one was narrowed from).
    max: usize,
}

impl<'a> Table<'a> {
    pub(crate) fn new(data: &'a [f32], offs: &'a [usize]) -> Self {
        let max = offs.iter().copied().max().unwrap_or(0);
        debug_assert!(
            offs.is_empty() || max + NR <= data.len(),
            "an offset-table entry leaves its planes"
        );
        Table { data, offs, max }
    }

    /// Rows `rows` of the matrix, from column `col` on.
    pub(crate) fn block(&self, rows: Range<usize>, col: usize) -> Self {
        Table {
            data: &self.data[col..],
            offs: &self.offs[rows],
            max: self.max,
        }
    }

    /// Row `r` from column `pc` on.
    fn row(&self, r: usize, pc: usize) -> &'a [f32] {
        &self.data[self.offs[r] + pc..]
    }
}

impl BRows for Table<'_> {
    fn covers(&self, kc: usize) -> bool {
        kc > 0 && self.offs.len() >= kc && self.max + NR <= self.data.len()
    }

    #[inline(always)]
    fn lanes(&self, p: usize) -> &[f32] {
        &self.data[self.offs[p]..]
    }

    #[inline(always)]
    unsafe fn row(&self, p: usize) -> *const f32 {
        debug_assert!(
            p < self.offs.len() && self.offs[p] + NR <= self.data.len(),
            "B read leaves its planes"
        );
        // SAFETY: `covers(kc)` with `p < kc` puts `p` inside the table
        // and `offs[p] + NR ≤ max + NR` inside the planes (the caller's
        // contract).
        unsafe { self.data.as_ptr().add(*self.offs.get_unchecked(p)) }
    }
}

/// The part of the output one panel owns: `rows × cols` elements of a
/// row-major buffer whose rows are `ld` apart, with the window's
/// top-left element being element `(i0, j0)` of the whole product.
/// Fanned-out tasks each write through their own window of the one
/// output buffer — row panels and column windows alike, in place.
pub(crate) struct Window<'a> {
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
    pub(crate) fn whole(out: &'a mut [f32], m: usize, n: usize) -> Self {
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
    pub(crate) unsafe fn sub(&self, rows: Range<usize>, cols: Range<usize>) -> Window<'_> {
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

    /// [`Window::sub`] as the whole output of a product of its own: its
    /// top-left element is element `(0, 0)` of that product (one
    /// sample's block of a batched conv output).
    ///
    /// # Safety
    ///
    /// As [`Window::sub`].
    pub(crate) unsafe fn own(&self, rows: Range<usize>, cols: Range<usize>) -> Window<'_> {
        // SAFETY: the caller's contract is `sub`'s.
        let mut w = unsafe { self.sub(rows, cols) };
        (w.i0, w.j0) = (0, 0);
        w
    }

    /// Columns `j..j + w` of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if the segment leaves the window.
    #[inline]
    pub(crate) fn segment(&mut self, i: usize, j: usize, w: usize) -> &mut [f32] {
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

    /// Rows of the window.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the window.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }
}

/// `A[m×k] @ B[k×n]` into a scratch-pooled row-major buffer (the
/// caller hands it to a `Tensor`, which recycles it on drop). The
/// buffer is checked out unzeroed: the first k-block of every register
/// tile *stores* its sums rather than adding them to the output, so
/// every element is written before it is read. Every tile runs on tier
/// `kern`.
fn gemm(kern: simd::Kernel, a: Operand, b: Operand, m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = scratch::take(m * n);
    gemm_into(kern, a, b, &mut out, m, k, n, Epilogue::STORE);
    out
}

/// `A[m×k] @ B[k×n]` met with the row-major `m × n` buffer `out` and
/// finished as `ep` says, fanned out across the pool when the product
/// is large enough. An empty inner dimension makes every sum `+0.0`.
fn gemm_into(
    kern: simd::Kernel,
    a: Operand,
    b: Operand,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ep: Epilogue,
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        let finish = Finish {
            bias: ep.bias,
            relu: ep.relu,
        };
        for (r, row) in out.chunks_exact_mut(n).enumerate() {
            match ep.meet {
                Meet::Store => row.fill(0.0),
                Meet::Continue => {}
            }
            finish.row(r, 0, row);
        }
        return;
    }
    // Under `PAR_WORK` the pool is never touched (or lazily spawned).
    if m * n * k < PAR_WORK || !fan_out(kern, a, b, out, m, k, n, ep) {
        let whole = Window::whole(out, m, n);
        gemm_panel(kern, a, b, whole, k, ep, &mut None);
    }
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
/// that re-pack to shapes where B is the smaller operand: squarish and
/// tall shapes split rows, short and wide ones columns. Every task
/// writes its [`Window`] of `out` in place; per-element arithmetic is
/// identical on every path, so results stay bit-equal to the single
/// panel.
fn fan_out(
    kern: simd::Kernel,
    a: Operand,
    b: Operand,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ep: Epilogue,
) -> bool {
    let by_cols = n > m;
    let whole = Window::whole(out, m, n);
    let (extent, tile) = if by_cols { (n, NR) } else { (m, MR) };
    par_runs(extent, tile, MIN_SPLIT, &|run| {
        // SAFETY: the runs of distinct tasks — and with them their row
        // panels or column windows — are disjoint; nothing writes
        // through `whole` itself.
        let window = unsafe {
            if by_cols {
                whole.sub(0..m, run)
            } else {
                whole.sub(run, 0..n)
            }
        };
        gemm_panel(kern, a, b, window, k, ep, &mut None);
    })
}

/// Fans `body` out over disjoint runs covering `0..extent`, or returns
/// `false` having run nothing when the pool would run them inline (see
/// [`pool::try_parallel_for`]). Runs are `align`-aligned cuts of an even
/// split, at most two per thread, and none is shorter than `min_run`
/// (a multiple of `align`), so the atomic task queue can still even
/// out finish times.
pub(crate) fn par_runs(
    extent: usize,
    align: usize,
    min_run: usize,
    body: &(dyn Fn(Range<usize>) + Sync),
) -> bool {
    let tasks = (pool::max_parallelism() * 2).min(extent / min_run);
    let bound = |t: usize| {
        if t == tasks {
            extent
        } else {
            t * extent / tasks / align * align
        }
    };
    pool::try_parallel_for(tasks, &|t| body(bound(t)..bound(t + 1)))
}

/// How a panel's first k-block meets what the output holds. Later
/// k-blocks of the panel always continue the sums.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Meet {
    /// `c = +0.0 + Σ`: overwrite whatever the output held.
    Store,
    /// `c = c + Σ`, term by term: the product continues an earlier
    /// one's sums (the next sample of a conv `dWᵀ`).
    Continue,
}

/// A bias added onto each finished sum as the tile stores it.
#[derive(Clone, Copy)]
pub(crate) enum Bias<'a> {
    /// Window row `r` gets `+ b[r]` (a conv output channel).
    Rows(&'a [f32]),
    /// Product column `j` gets `+ b[j]` (a dense layer's output).
    Cols(&'a [f32]),
}

/// What a panel does with its sums besides storing them.
#[derive(Clone, Copy)]
pub(crate) struct Epilogue<'a> {
    pub(crate) meet: Meet,
    /// After the last k-block, one add onto each finished sum.
    pub(crate) bias: Option<Bias<'a>>,
    /// After the bias, `v > 0 ? v : +0.0` (a NaN becomes `+0.0`).
    pub(crate) relu: bool,
}

impl Epilogue<'_> {
    /// Store the sums, nothing else.
    pub(crate) const STORE: Self = Epilogue {
        meet: Meet::Store,
        bias: None,
        relu: false,
    };
}

/// Tiled core: computes `A[rows, :] @ B[:, cols]` for the rows and
/// columns of the product that `out` covers, overwriting them (or, per
/// `ep`, continuing their sums, and finishing each sum with a bias and
/// a ReLU).
///
/// Blocking is `pc` (k, [`tune::KC`]) → `ic` (rows, [`tune::MC`]) →
/// `j0` (columns, `NR`) → `r0` (rows, `MR`): per k-block, each `mc`-row
/// slice of A stays L2-resident while every column window streams past
/// it. The register tile reads A in place, stored in either layout or
/// as a patch matrix ([`Operand::a_rows`]). It reads B in place too
/// when B is a patch matrix (through its offset table), or stored
/// row-major with a k-block of at most [`DIRECT_B_MAX`] elements and a
/// full `NR`-column window; otherwise ([`matmul_t`](Tensor::matmul_t)'s
/// B, a large B, the last narrow window) the window is packed into a
/// contiguous, zero-padded `kc × NR` slab first, checked out into
/// `bpack` once and kept there for the caller's next panel. Neither
/// choice combines values, so neither can change a result. Block sizes
/// ([`tune::MC`] / [`tune::KC`]; [`blocked_panel`] takes others) cannot
/// change results either: every
/// output element accumulates k-blocks in ascending `pc` order
/// regardless of how `ic`/`j0` interleave, the first block starts its
/// accumulator at `+0.0`, and a later block boundary just round-trips
/// it through an exact `f32` store. Edge tiles run the same full-size
/// tile; their padded lanes and repeated rows are computed and then
/// discarded by the partial store, which cannot change the kept values
/// (each output element only ever accumulates its own row/column lane).
pub(crate) fn gemm_panel(
    kern: simd::Kernel,
    a: Operand,
    b: Operand,
    out: Window,
    k: usize,
    ep: Epilogue,
    bpack: &mut Option<ScratchVec>,
) {
    blocked_panel(kern, (tune::MC, tune::KC), a, b, out, k, ep, bpack);
}

/// [`gemm_panel`] with `(mc, kc)` blocks: `mc` a multiple of `MR`, `kc`
/// of 8.
fn blocked_panel(
    kern: simd::Kernel,
    (mc, kc): (usize, usize),
    a: Operand,
    b: Operand,
    mut out: Window,
    k: usize,
    ep: Epilogue,
    bpack: &mut Option<ScratchVec>,
) {
    let (i0, m) = (out.i0, out.rows);
    let (jc, n) = (out.j0, out.cols);
    let kc_max = kc.min(k);
    let mc = mc.min(m.next_multiple_of(MR));
    let finish = Finish {
        bias: ep.bias.map(|bias| match bias {
            Bias::Rows(b) => Bias::Rows(b),
            Bias::Cols(b) => Bias::Cols(&b[jc..jc + n]),
        }),
        relu: ep.relu,
    };
    let b_in_place =
        matches!(b, Operand::Stored(s) if !s.col_major && kc_max * s.ld <= DIRECT_B_MAX);
    let mut pc = 0;
    while pc < k {
        let kc = (k - pc).min(kc_max);
        let block = Block {
            a,
            i0,
            pc,
            kc,
            meet: if pc == 0 { ep.meet } else { Meet::Continue },
            finish: (pc + kc == k).then_some(finish),
        };
        let mut ic = 0;
        while ic < m {
            let mh = (m - ic).min(mc);
            let mut j0 = 0;
            while j0 < n {
                let jw = (n - j0).min(NR);
                let tiles = ic..ic + mh;
                match b {
                    Operand::Planes(t) => {
                        let rows = t.block(pc..pc + kc, jc + j0);
                        block.row_tiles(kern, rows, &mut out, tiles, j0, jw);
                    }
                    Operand::Stored(s) if b_in_place && jw == NR => {
                        let data = &s.data[pc * s.ld + jc + j0..];
                        let rows = Strided { data, step: s.ld };
                        block.row_tiles(kern, rows, &mut out, tiles, j0, jw);
                    }
                    Operand::Stored(s) => {
                        if bpack.as_ref().is_some_and(|slab| slab.len() < kc_max * NR) {
                            *bpack = None;
                        }
                        let slab = bpack.get_or_insert_with(|| ScratchVec::take(kc_max * NR));
                        pack_b(kern, s, slab, pc, kc, jc + j0, jw);
                        let rows = Strided {
                            data: slab,
                            step: NR,
                        };
                        block.row_tiles(kern, rows, &mut out, tiles, j0, jw);
                    }
                }
                j0 += jw;
            }
            ic += mh;
        }
        pc += kc;
    }
}

/// What the last k-block does to each finished sum as the tile stores
/// it: `+ bias`, then the ReLU.
#[derive(Clone, Copy)]
struct Finish<'a> {
    /// Indexed by window row, or by window column.
    bias: Option<Bias<'a>>,
    relu: bool,
}

impl Finish<'_> {
    /// Finishes window row `r`'s lanes from window column `j0` on.
    #[inline(always)]
    fn row(&self, r: usize, j0: usize, row: &mut [f32]) {
        match self.bias {
            Some(Bias::Rows(b)) => {
                let b = b[r];
                for v in row.iter_mut() {
                    *v += b;
                }
            }
            Some(Bias::Cols(b)) => {
                for (v, &b) in row.iter_mut().zip(&b[j0..]) {
                    *v += b;
                }
            }
            None => {}
        }
        if self.relu {
            for v in row {
                *v = if *v > 0.0 { *v } else { 0.0 };
            }
        }
    }
}

/// One k-block of a panel: where its A rows come from and how its sums
/// meet the output.
#[derive(Clone, Copy)]
struct Block<'a> {
    a: Operand<'a>,
    /// The panel's first row in the whole product (A's row index).
    i0: usize,
    pc: usize,
    kc: usize,
    meet: Meet,
    /// Set on the last k-block: what each finished sum gets.
    finish: Option<Finish<'a>>,
}

impl Block<'_> {
    /// Runs the register tile over window rows `rows` of column window
    /// `j0..j0 + jw`, reading this block's B through `b`.
    fn row_tiles<B: BRows>(
        &self,
        kern: simd::Kernel,
        b: B,
        out: &mut Window,
        rows: Range<usize>,
        j0: usize,
        jw: usize,
    ) {
        let mut r0 = rows.start;
        while r0 < rows.end {
            let rh = (rows.end - r0).min(MR);
            let (a, a_step) = self.a.a_rows(self.i0 + r0, rh, self.pc);
            let tile = Tile {
                a,
                a_step,
                b,
                kc: self.kc,
            };
            micro_tile(kern, tile, out, r0, rh, j0, jw, self.meet, self.finish);
            r0 += rh;
        }
    }
}

/// Packs columns `j..j + jw` of B's k-block `pc..pc + kc` into the
/// first `kc × NR` elements of `slab`, `NR` per k-step, zero-padding
/// lanes past `jw`. A column-major B ([`matmul_t`](Tensor::matmul_t)'s
/// `Wᵀ`, a conv `dYᵀ`) is transposed on the way in
/// ([`pack_transposed`]); a row-major one is copied row by row.
fn pack_b(
    kern: simd::Kernel,
    b: Stored,
    slab: &mut [f32],
    pc: usize,
    kc: usize,
    j: usize,
    jw: usize,
) {
    let slab = &mut slab[..kc * NR];
    if jw < NR {
        slab.fill(0.0);
    }
    if b.col_major {
        pack_transposed(kern, b, slab, pc, kc, j, jw);
    } else {
        for p in 0..kc {
            let base = (pc + p) * b.ld + j;
            slab[p * NR..p * NR + jw].copy_from_slice(&b.data[base..base + jw]);
        }
    }
    #[cfg(test)]
    pack_probe::record(b.data, kc * jw);
    work::count(|w| {
        w.packed += kc * jw;
        if b.col_major {
            w.transposed += kc * jw;
        }
    });
}

/// Lanes and k-steps of one in-register transpose block.
const TB: usize = 8;

/// [`pack_b`] for a column-major B: stored row `j + c` is logical
/// column `c` of the window. Every whole 8 × 8 block — eight 8-element
/// runs of stored rows in, eight 8-lane runs of slab rows out — is one
/// register transpose on the SIMD tiers ([`simd::x86::transpose_8x8`]);
/// the k-steps and lanes past the last whole block, and the portable
/// tier, go one element at a time. Either way each element is copied,
/// never combined.
///
/// # Panics
///
/// Panics if a block leaves B or the slab — a bug in the blocking
/// loops, checked by the transpose before it reads anything.
fn pack_transposed(
    kern: simd::Kernel,
    b: Stored,
    slab: &mut [f32],
    pc: usize,
    kc: usize,
    j: usize,
    jw: usize,
) {
    let (kc8, jw8) = (kc / TB * TB, jw / TB * TB);
    let column = |c: usize| &b.data[(j + c) * b.ld + pc..][..kc];
    for c0 in (0..jw8).step_by(TB) {
        for p0 in (0..kc8).step_by(TB) {
            let src = &b.data[(j + c0) * b.ld + pc + p0..];
            let dst = &mut slab[p0 * NR + c0..];
            match kern {
                #[cfg(target_arch = "x86_64")]
                simd::Kernel::Avx2 | simd::Kernel::Avx512 => {
                    // SAFETY: both tiers need AVX2, which `kern` (a tier
                    // `supported` reports) has; the function checks its
                    // runs against the slices.
                    unsafe { simd::x86::transpose_8x8(src, b.ld, dst) }
                }
                _ => {
                    for c in 0..TB {
                        for p in 0..TB {
                            dst[p * NR + c] = src[c * b.ld + p];
                        }
                    }
                }
            }
        }
    }
    for c in 0..jw {
        let from = if c < jw8 { kc8 } else { 0 };
        for (p, &v) in column(c).iter().enumerate().skip(from) {
            slab[p * NR + c] = v;
        }
    }
}

/// One register tile's operands over one k-block of `kc` steps: A row
/// `r` at step `p` is `a[r][p * a_step]`, and B's `NR` lanes at step
/// `p` are found through `b` — packed, stored in place, or a patch row
/// in place.
#[derive(Clone, Copy)]
pub(crate) struct Tile<'a, B> {
    pub(crate) a: [&'a [f32]; MR],
    pub(crate) a_step: usize,
    pub(crate) b: B,
    pub(crate) kc: usize,
}

/// How a register tile meets the output with its sums.
#[derive(Clone, Copy)]
pub(crate) enum Sum {
    /// `c = +0.0 + Σ`: the first k-block.
    Store,
    /// `c = c + Σ`: the accumulator continues from an earlier k-block.
    Continue,
    /// `c = c + (+0.0 + Σ)` on the lanes whose bit is set, `c` on the
    /// others: one tap of a conv `dX`, added only where it reads inside
    /// the image.
    AddMasked(u32),
}

/// `MR × NR` register tile: accumulators live in registers across the
/// k-block and only the `rh × jw` live sub-tile is stored. Per `meet`
/// they start at `+0.0` and *store* over whatever the output held, or
/// are loaded from the output and continue (the same accumulator,
/// round-tripped through an exact `f32`). A full tile is loaded from and
/// stored to the output in place; an edge tile goes through a local
/// `MR × NR` buffer whose padding lanes are dropped. With a `finish`,
/// each stored row gets its bias and ReLU after its sums are complete,
/// while the tile is still in L1.
///
/// # Panics
///
/// Panics if an operand slice ends before the k-block does, or the
/// `rh × jw` sub-tile leaves `out` — both bugs in the blocking loops,
/// checked before any raw-pointer read.
#[inline]
fn micro_tile<B: BRows>(
    kern: simd::Kernel,
    t: Tile<B>,
    out: &mut Window,
    r0: usize,
    rh: usize,
    j0: usize,
    jw: usize,
    meet: Meet,
    finish: Option<Finish>,
) {
    if rh == MR && jw == NR {
        let mut tile = out.tile(r0, j0);
        let sum = match meet {
            Meet::Store => Sum::Store,
            Meet::Continue => Sum::Continue,
        };
        tile_kernel::<B, false>(kern, t, &mut tile, sum, jw);
        if let Some(f) = finish {
            for (r, row) in tile.into_iter().enumerate() {
                f.row(r0 + r, j0, row);
            }
        }
        return;
    }
    let mut acc = [[0.0f32; NR]; MR];
    if meet == Meet::Continue {
        for (r, accr) in acc.iter_mut().take(rh).enumerate() {
            accr[..jw].copy_from_slice(out.segment(r0 + r, j0, jw));
        }
    }
    tile_kernel::<B, false>(kern, t, &mut acc.each_mut(), Sum::Continue, jw);
    for (r, accr) in acc.iter_mut().take(rh).enumerate() {
        if let Some(f) = finish {
            f.row(r0 + r, j0, &mut accr[..jw]);
        }
        out.segment(r0 + r, j0, jw).copy_from_slice(&accr[..jw]);
    }
}

/// `Σ_p a[r][p·a_step] · B[p][j]`, ascending `p`, one accumulator per
/// element, met with `c[r][j]` as `sum` says, for the columns `j < jw`
/// (an edge tile's lanes past `jw` may be left stale or hold sums of
/// padding; the caller drops them, and a masked add sets no bit
/// there).
///
/// Dispatches on `kern`: the SIMD tiers execute the same mul-then-add
/// per lane (bit-identical, see [`crate::simd`]) and everything else
/// runs the portable loop.
///
/// # Panics
///
/// Panics if the k-block is empty or an operand ends before the k-block
/// does ([`BRows::covers`]) — each a bug in the blocking loops, checked
/// before any tier reads anything.
#[inline]
pub(crate) fn tile_kernel<B: BRows, const MASKED: bool>(
    kern: simd::Kernel,
    t: Tile<B>,
    c: &mut [&mut [f32; NR]; MR],
    sum: Sum,
    jw: usize,
) {
    let kc = t.kc;
    assert!(
        t.b.covers(kc) && t.a.iter().all(|row| row.len() > (kc - 1) * t.a_step),
        "tile operands shorter than the k-block"
    );
    debug_assert_eq!(
        MASKED,
        matches!(sum, Sum::AddMasked(_)),
        "a masked add needs the masked tile"
    );
    match kern {
        #[cfg(target_arch = "x86_64")]
        simd::Kernel::Avx2 => {
            let a = t.a.map(<[f32]>::as_ptr);
            // SAFETY: `simd::active` only returns tiers the CPU
            // supports, and the assert above is the kernel's extent
            // contract: every `a[r][p·a_step]` and B lane `j < NR` of
            // step `p < kc` lies inside its slice.
            unsafe {
                simd::x86::gemm_tile_avx2::<B, MASKED>(a, t.a_step, t.b, c, kc, sum, jw);
            }
        }
        #[cfg(target_arch = "x86_64")]
        simd::Kernel::Avx512 => {
            let a = t.a.map(<[f32]>::as_ptr);
            // SAFETY: as for the AVX2 arm — a supported tier, and the
            // assert above is the kernel's extent contract.
            unsafe {
                use simd::x86::gemm_tile_avx512 as tile;
                if jw <= NR / 2 {
                    tile::<1, B, MASKED>(a, t.a_step, t.b, c, kc, sum);
                } else {
                    tile::<{ NR / 16 }, B, MASKED>(a, t.a_step, t.b, c, kc, sum);
                }
            }
        }
        _ => {
            // `MR × 8` blocks, one k-sweep each: their accumulators fit
            // the baseline x86-64 register file, a whole tile's do not.
            const W: usize = 8;
            for cb in (0..jw.min(NR)).step_by(W) {
                let mut acc = [[0.0f32; W]; MR];
                if let Sum::Continue = sum {
                    for (accr, cr) in acc.iter_mut().zip(c.iter()) {
                        accr.copy_from_slice(&cr[cb..cb + W]);
                    }
                }
                for p in 0..kc {
                    let brow = &t.b.lanes(p)[cb..cb + W];
                    for (accr, arow) in acc.iter_mut().zip(&t.a) {
                        let av = arow[p * t.a_step];
                        for (x, &bv) in accr.iter_mut().zip(brow) {
                            *x += av * bv;
                        }
                    }
                }
                for (cr, accr) in c.iter_mut().zip(acc) {
                    let lanes = &mut cr[cb..cb + W];
                    match sum {
                        Sum::AddMasked(mask) if MASKED => {
                            for (j, (o, x)) in lanes.iter_mut().zip(accr).enumerate() {
                                if mask >> (cb + j) & 1 == 1 {
                                    *o += x;
                                }
                            }
                        }
                        _ => lanes.copy_from_slice(&accr),
                    }
                }
            }
        }
    }
}

/// Test-only pack-volume counter: how many source elements [`pack_b`]
/// read from the watched buffer. Keyed on that buffer's extent (a conv
/// `dWᵀ` packs each sample's slice of `dY`) so GEMMs issued by tests
/// running concurrently on other threads are not counted, and global
/// rather than thread-local so a fanned-out product's tasks are. A is
/// never packed.
#[cfg(test)]
mod pack_probe {
    use std::ops::Range;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    struct Watch {
        extent: Range<usize>,
        elems: usize,
    }

    static WATCH: Mutex<Option<Watch>> = Mutex::new(None);
    /// One measurement at a time.
    static SESSION: Mutex<()> = Mutex::new(());

    fn watch() -> MutexGuard<'static, Option<Watch>> {
        WATCH.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(super) fn record(b: &[f32], elems: usize) {
        if let Some(w) = watch().as_mut() {
            if w.extent.contains(&(b.as_ptr() as usize)) {
                w.elems += elems;
            }
        }
    }

    /// Runs `f` and returns the element count packed from `b`.
    pub(super) fn measure(b: &[f32], f: impl FnOnce()) -> usize {
        let _session = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
        let start = b.as_ptr() as usize;
        *watch() = Some(Watch {
            extent: start..start + std::mem::size_of_val(b).max(1),
            elems: 0,
        });
        f();
        let w = watch().take().expect("watch installed above");
        w.elems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConvGeometry;

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
        gemm_panel(
            kern,
            a,
            b,
            Window::whole(&mut full, m, n),
            k,
            Epilogue::STORE,
            &mut None,
        );
        let mut windowed = vec![0.0f32; m * n];
        let whole = Window::whole(&mut windowed, m, n);
        for jc in (0..n).step_by(NR + 3) {
            // SAFETY: one sub-window alive at a time.
            let window = unsafe { whole.sub(0..m, jc..(jc + NR + 3).min(n)) };
            gemm_panel(kern, a, b, window, k, Epilogue::STORE, &mut None);
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
            Epilogue::STORE,
            &mut None,
        );
        let (a, b) = (
            Operand::col_major(at.data(), m),
            Operand::col_major(bt.data(), k),
        );
        let mut stacked = vec![0.0f32; m * n];
        let whole = Window::whole(&mut stacked, m, n);
        for rows in [0..8, 8..12, 12..m] {
            // SAFETY: one sub-window alive at a time.
            let window = unsafe { whole.sub(rows, 0..n) };
            gemm_panel(kern, a, b, window, k, Epilogue::STORE, &mut None);
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

    /// Any `(mc, kc)` blocking gives the constants' bits on every tier:
    /// blocking changes scheduling, never the per-element accumulation
    /// order — the digest-neutrality of [`tune::MC`] / [`tune::KC`].
    #[test]
    fn block_size_sweep_is_bit_neutral() {
        let (m, k, n) = (45, 300, 37);
        let (a, b) = operands(m, k, n);
        let (a, b) = (
            Operand::row_major(a.data(), k),
            Operand::row_major(b.data(), n),
        );
        let run = |kern, blocks| {
            let mut out = vec![0.0f32; m * n];
            let whole = Window::whole(&mut out, m, n);
            blocked_panel(kern, blocks, a, b, whole, k, Epilogue::STORE, &mut None);
            out.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        let want = run(simd::Kernel::Portable, (tune::MC, tune::KC));
        for blocks in [(32, 32), (64, 64), (128, 512), (4096, 480), (36, 136)] {
            for kern in simd::available() {
                assert_eq!(run(kern, blocks), want, "{kern:?} (mc, kc) = {blocks:?}");
            }
        }
    }

    /// The public products.
    #[derive(Clone, Copy, Debug)]
    enum Method {
        MatMul,
        TMatMul,
        MatMulT,
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
                    };
                    return drop(product.unwrap());
                }
            };
            let (ar, ac) = (a.rows().unwrap(), a.cols().unwrap());
            let (br, bc) = (b.rows().unwrap(), b.cols().unwrap());
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
            };
            drop(gemm(kern, a, b, m, k, n));
        }
    }

    /// The three products of one 3×3 conv layer of `fedtrans-conv`
    /// over a batch of 10 16×16 images, `cin → cout` channels: its
    /// geometry, weight, input and output gradient.
    fn conv_layer(cin: usize, cout: usize) -> (ConvGeometry, Tensor, Tensor, Tensor) {
        let g = ConvGeometry {
            in_channels: cin,
            out_channels: cout,
            height: 16,
            width: 16,
            kernel: 3,
        };
        let (w, _) = operands(cout, cin * 9, 1);
        let (x, _) = operands(10, cin * 256, 1);
        let (dy, _) = operands(10, cout * 256, 1);
        (g, w, x, dy)
    }

    #[test]
    fn a_nested_conv_gemm_packs_b_exactly_once() {
        // Issued from inside a pool task, as a client lane issues them:
        // the forward reads its patch matrix in place and packs
        // nothing, `dX` reads `dY`'s planes in place and packs nothing,
        // and `dWᵀ` packs each sample's `dY` once — 16 × 2 560 elements.
        // Packing decisions do not depend on the tier.
        let (g, w, x, dy) = conv_layer(16, 16);
        let b = Tensor::zeros(&[16]);
        let forward = work::measure(&|| drop(g.forward(&w, &b, &x).unwrap()));
        let dwt = work::measure(&|| drop(g.weight_grad_t(&x, &dy).unwrap()));
        let dx = work::measure(&|| drop(g.input_grad(&w, &dy).unwrap()));
        assert_eq!((forward.packed, dwt.packed, dx.packed), (0, 16 * 2560, 0));
    }

    #[test]
    fn a_fanned_out_conv_gemm_packs_b_once_in_total() {
        // From the main thread a product may fan out (when the pool has
        // workers and nobody else owns it). The forward and `dX` split
        // samples and pack nothing. `dWᵀ` splits its 144 rows: each task
        // packs all of `dY`, at most one task per `MIN_SPLIT` rows.
        let (g, w, x, dy) = conv_layer(16, 16);
        let b = Tensor::zeros(&[16]);
        let forward = pack_probe::measure(x.data(), || drop(g.forward(&w, &b, &x).unwrap()));
        assert_eq!(forward, 0);
        let dx = pack_probe::measure(dy.data(), || drop(g.input_grad(&w, &dy).unwrap()));
        assert_eq!(dx, 0);
        let once = 16 * 2560;
        let dwt = pack_probe::measure(dy.data(), || drop(g.weight_grad_t(&x, &dy).unwrap()));
        assert_eq!(dwt % once, 0);
        assert!((1..=144 / MIN_SPLIT).contains(&(dwt / once)), "{dwt}");
    }

    #[test]
    fn the_32_channel_layer_packs_dy_and_never_a_patch_matrix() {
        // The widest `fedtrans-conv` layer, 32 → 32 channels, 3×3,
        // batch 10 of 16×16, issued nested as a client lane issues it.
        // dWᵀ = patches · dYᵀ packs dY once: 32 × 2 560 elements. The
        // forward packs nothing; lowering its patch matrix into the pack
        // would copy 288 × 2 560.
        let (g, w, x, dy) = conv_layer(32, 32);
        let dwt = work::measure(&|| drop(g.weight_grad_t(&x, &dy).unwrap()));
        assert_eq!(dwt.packed, 81_920);
        let b = Tensor::zeros(&[32]);
        let forward = work::measure(&|| drop(g.forward(&w, &b, &x).unwrap()));
        assert_eq!(forward.packed, 0);
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

    /// One canary case: the `m × k × n` product of seeded operands,
    /// A and B stored as `(column-major, row length)` forms at base
    /// offsets `a_off` and `b_off`, into each window of a canary-filled
    /// output at offset `out_off`, on every tier. Every element outside
    /// the window must still be a canary, and each inside must match the
    /// reference bit for bit.
    fn canary_case(
        (m, n, k): (usize, usize, usize),
        (a_col, a_ld): (bool, usize),
        (b_col, b_ld): (bool, usize),
        (a_off, b_off, out_off): (usize, usize, usize),
    ) {
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
        let windows = [
            (0..m, 0..n),
            (m - 1..m, 0..n),
            (0..m, n - 1..n),
            (m / 2..m, n / 2..n),
        ];
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
                let off = out_off;
                let mut out = padded(&vec![CANARY; m * n], off);
                let whole = Window::whole(&mut out[off..off + m * n], m, n);
                // SAFETY: the only sub-window alive.
                let window = unsafe { whole.sub(rows.clone(), cols.clone()) };
                gemm_panel(kern, a, b, window, k, Epilogue::STORE, &mut None);
                for (e, got) in out.iter().enumerate() {
                    let inside = e.checked_sub(off).filter(|&e| {
                        e < m * n && rows.contains(&(e / n)) && cols.contains(&(e % n))
                    });
                    let expect = inside.map_or(CANARY, |e| want[e]);
                    assert_eq!(
                        got.to_bits(),
                        expect.to_bits(),
                        "{m}x{k}x{n} element {e} (offset {off}), A col_major {a_col} ld {a_ld} \
                         (offset {a_off}), B col_major {b_col} ld {b_ld} (offset {b_off}), \
                         window {rows:?} x {cols:?}, {kern:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_tile_stays_inside_canary_padded_operands_and_windows() {
        // Every raw-pointer path of the kernel — the SIMD tiles' reads of
        // A and B in place, the pack's register transposes of a
        // column-major B, `Window::tile`/`segment` writes, `Window::sub`
        // offsets — on every tier at 0 ULP against the reference.
        // Operands sit at base offsets 1–7 of canary-padded buffers and
        // carry canary padding between their stored rows; outputs are
        // windows of a canary-filled product (whole, last row, last
        // column, a corner with MR/NR remainders). Every `m` mod `MR`
        // appears, and `n` straddles the AVX2 half-tile (16) and the
        // full-tile (`NR`) edges.
        let mut calls = 0usize;
        let shapes = [1, 2, 3, 4, 5, 9].into_iter().flat_map(|m| {
            [1, 15, 16, 17, NR - 1, NR, NR + 1, 2 * NR + 1]
                .into_iter()
                .flat_map(move |n| [1, 7, 9, 200].map(|k| (m, n, k)))
        });
        for (m, n, k) in shapes {
            // (layout, stored row length): A row-major tight and padded,
            // A column-major padded; B row-major in place, B row-major
            // too wide to read in place, B column-major padded.
            let packed_ld = (DIRECT_B_MAX / k.min(tune::KC) + 1).max(n);
            let a_forms = [(false, k), (false, k + 3), (true, m + 3)];
            let b_forms = [(false, n + 3), (false, packed_ld), (true, k + 3)];
            for a_form in a_forms {
                for b_form in b_forms {
                    calls += 1;
                    let offs = (1 + calls % 7, 1 + (calls / 7) % 7, 1 + (calls / 3) % 7);
                    canary_case((m, n, k), a_form, b_form, offs);
                }
            }
        }
        // The transposing pack at every block remainder: k-blocks of
        // 1, 7, 8, 9, 17 and 200 steps (a whole 8-step block, none, and
        // both with a tail) times windows of 1 to 32 lanes, B at each
        // base offset 1–7, stored with canary padding between rows and
        // tight (where reading past a row's k-block reads the next
        // row's values instead).
        for m in [1, 5] {
            for n in [1, 7, 8, 9, 16, 31, 32] {
                for k in [1, 7, 8, 9, 17, 200] {
                    for b_off in 1..=7 {
                        for b_ld in [k + 3, k] {
                            let offs = (1 + (b_off + m) % 7, b_off, 1 + (b_off + n) % 7);
                            canary_case((m, n, k), (false, k), (true, b_ld), offs);
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
    fn products_into_a_gradient_store_at_any_depth() {
        // `t_matmul_into` and `sum_rows_into` against the temporaries
        // they replace, bit for bit, over a NaN-filled gradient: one
        // k-block (k = 10, the dense batch) and several (k = 400 > KC).
        for (m, k, n) in [(96, 10, 48), (5, 400, 40), (33, 193, 17)] {
            let (x, dy) = (operands(k, m, 1).0, operands(k, n, 1).0);
            let mut got = Tensor::full(&[m, n], f32::NAN);
            x.t_matmul_into(&dy, &mut got).unwrap();
            assert_eq!(got, x.t_matmul(&dy).unwrap(), "dW, {m}x{k}x{n}");

            let sums: Vec<f32> = (0..n)
                .map(|j| (0..k).fold(0.0f32, |acc, r| acc + dy.at(r, j)))
                .collect();
            let mut got = Tensor::full(&[n], f32::NAN);
            dy.sum_rows_into(&mut got).unwrap();
            assert_eq!(got.data(), &sums[..], "db, {k}x{n}");
        }
        let mut wrong = Tensor::zeros(&[3, 3]);
        assert!(Tensor::zeros(&[2, 3])
            .t_matmul_into(&Tensor::zeros(&[2, 2]), &mut wrong)
            .is_err());
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
