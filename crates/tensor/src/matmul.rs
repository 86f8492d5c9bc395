//! Matrix multiplication kernels.
//!
//! Every simulated client's forward/backward pass funnels through the
//! three GEMM variants here, so they are the hottest code in the repo.
//! The implementation is a cache-blocked, register-tiled kernel that
//! falls back to a plain loop nest below a tuned size threshold and,
//! for large shapes issued from outside the worker pool
//! ([`crate::pool`]), fans panels of the longer output dimension out
//! across it. A large product issued from *inside* a pool task (every
//! client lane and evaluation task is one) runs as a single panel: the
//! kernel packs each operand once wherever it runs.
//!
//! # Determinism
//!
//! Results are bit-for-bit reproducible and independent of thread
//! count: each output element is owned by exactly one task, and its
//! dot product accumulates in ascending-`k` order with a single `f32`
//! accumulator on every code path (small, tiled-serial, and parallel
//! alike). No FMA contraction, no split reductions.
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
/// Columns per register tile (one 8-lane f32 vector — a full `__m256`
/// on AVX2; MR·NR/8 + operand registers fit the 16-register SIMD file).
pub(crate) const NR: usize = 8;
/// Below this many multiply-adds the plain loop nest beats the tiled
/// kernel (no blocking bookkeeping, no operand transposes).
const SMALL_WORK: usize = 1 << 15;
/// At or above this many multiply-adds, panels are fanned out across
/// the worker pool; under it, thread dispatch costs more than it buys.
const PAR_WORK: usize = 1 << 20;
/// Shortest run of rows (or columns) one fanned-out task may own.
///
/// A task packs the *whole* other operand for itself — about one cycle
/// per element — and reuses each packed element for as many
/// multiply-adds as its run is long, at about a third of a cycle each
/// (the 18 GFLOP/s an unsplit conv panel reaches on the benchmark
/// host). At 32 the private re-pack is under a tenth of the task; the
/// old `m.div_ceil(2 · threads).max(MR)` rule handed out single
/// 4-row micro-tiles that spent longer re-packing B than multiplying.
/// A multiple of both `MR` and `NR`, so task boundaries fall on
/// register-tile boundaries.
const MIN_SPLIT: usize = 32;

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
        let a = self.data();
        let b = other.data();
        if m * n * k < SMALL_WORK {
            // ikj loop: row-panel axpy, cache-friendly without blocking.
            let mut out = scratch::take_zeroed(m * n);
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                let orow = &mut out[i * n..(i + 1) * n];
                for (p, &av) in arow.iter().enumerate() {
                    let brow = &b[p * n..(p + 1) * n];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
            return Tensor::from_vec(out, &[m, n]);
        }
        let out = gemm(Operand::row_major(a, k), Operand::row_major(b, n), m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// Computes `self^T @ other` without the caller materializing the
    /// transpose.
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
        let a = self.data();
        let b = other.data();
        if m * n * k < SMALL_WORK {
            // p-outer loop reads A rows contiguously; no transpose.
            let mut out = scratch::take_zeroed(m * n);
            for p in 0..k {
                let arow = &a[p * m..(p + 1) * m];
                let brow = &b[p * n..(p + 1) * n];
                for (i, &av) in arow.iter().enumerate() {
                    let orow = &mut out[i * n..(i + 1) * n];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
            return Tensor::from_vec(out, &[m, n]);
        }
        // The panel kernel packs A straight from its `[k × m]` storage.
        let out = gemm(Operand::col_major(a, m), Operand::row_major(b, n), m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// Computes `self @ other^T` without the caller materializing the
    /// transpose.
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
        let a = self.data();
        let b = other.data();
        if m * n * k < SMALL_WORK {
            // Every element is stored exactly once, so unzeroed
            // scratch is safe here.
            let mut out = scratch::take(m * n);
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                for j in 0..n {
                    let brow = &b[j * k..(j + 1) * k];
                    let mut acc = 0.0f32;
                    for (&av, &bv) in arow.iter().zip(brow) {
                        acc += av * bv;
                    }
                    out[i * n + j] = acc;
                }
            }
            return Tensor::from_vec(out, &[m, n]);
        }
        // The panel kernel packs B straight from its `[n × k]` storage.
        let out = gemm(Operand::row_major(a, k), Operand::col_major(b, k), m, k, n);
        Tensor::from_vec(out, &[m, n])
    }
}

/// A GEMM operand exactly as its caller stores it. `ld` is the length
/// of one stored row; `col_major` says the stored rows are the logical
/// matrix's *columns* (`t_matmul`'s A is stored `[k × m]`, `matmul_t`'s
/// B `[n × k]`). The pack loops of [`gemm_panel`] read either layout in
/// place, so no caller materializes a transpose.
#[derive(Clone, Copy)]
struct Operand<'a> {
    data: &'a [f32],
    ld: usize,
    col_major: bool,
}

impl<'a> Operand<'a> {
    fn row_major(data: &'a [f32], ld: usize) -> Self {
        Operand {
            data,
            ld,
            col_major: false,
        }
    }

    fn col_major(data: &'a [f32], ld: usize) -> Self {
        Operand {
            data,
            ld,
            col_major: true,
        }
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
}

/// `A[m×k] @ B[k×n]` above the small-shape cutoff, into a
/// scratch-pooled row-major buffer (the caller hands it to a `Tensor`,
/// which recycles it on drop). Zeroed up front because the panel kernel
/// accumulates.
fn gemm(a: Operand, b: Operand, m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = scratch::take_zeroed(m * n);
    if m == 0 || n == 0 || k == 0 {
        return out;
    }
    // Under `PAR_WORK` the pool is never touched (or lazily spawned).
    if m * n * k < PAR_WORK || !fan_out(a, b, &mut out, m, k, n) {
        gemm_panel(a, b, Window::whole(&mut out, m, n), k);
    }
    out
}

/// Splits the product across the worker pool, or returns `false` with
/// `out` untouched when the pool would run the pieces inline (nested
/// call, pool owned, no workers) or the shape is too short to split —
/// the caller then computes one panel, which packs each operand once.
///
/// One rule: split the **longer** of `m` and `n`. A task packs its own
/// slice of the split operand and all of the other one, so the operand
/// that gets re-packed per task is always the smaller, and the larger
/// is packed exactly once in total. The 16-row conv GEMMs therefore
/// split columns (B streams past once); squarish and tall shapes split
/// rows. Tasks own at least [`MIN_SPLIT`] rows/columns and there are at
/// most two per thread, so the atomic task queue can still even out
/// finish times. Every task writes its [`Window`] of `out` in place;
/// per-element arithmetic is identical on every path, so results stay
/// bit-equal to the single panel.
fn fan_out(a: Operand, b: Operand, out: &mut [f32], m: usize, k: usize, n: usize) -> bool {
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
        gemm_panel(a, b, window, k);
    })
}

/// Tiled core: accumulates `out += A[rows, :] @ B[:, cols]` for the
/// rows and columns of the product that `out` covers.
///
/// Blocking is `pc` (k, [`tune::KC`]) → `ic` (rows, [`tune::MC`])
/// → `j0` (columns, `NR`): per k-block, each `mc`-row slice of A is
/// packed into `MR`-interleaved micro-panels that stay L2-resident
/// while every column window streams past, and each B block into a
/// contiguous `kc × NR` slab, so the micro-kernel reads two dense
/// streams (BLIS-style). Both pack loops read the operand in whichever
/// layout the caller stores it ([`Operand`]): packing moves values, it
/// never combines them, so the layout cannot change a result. Block
/// sizes come from [`tune::active`] and cannot change results either:
/// every output element accumulates k-blocks in ascending `pc` order
/// regardless of how `ic`/`j0` interleave, and a block boundary just
/// round-trips the accumulator through an exact `f32` store. Edge tiles
/// are zero-padded into the same full-size micro-kernel; padded lanes
/// are computed and then discarded by the partial store, which cannot
/// change the kept values (each output element only ever accumulates
/// its own row/column lane).
fn gemm_panel(a: Operand, b: Operand, mut out: Window, k: usize) {
    let (i0, m) = (out.i0, out.rows);
    let (jc, n) = (out.j0, out.cols);
    let kern = simd::active();
    let cfg = tune::active();
    let kc_max = cfg.kc.min(k);
    let mc = cfg.mc.min(m.next_multiple_of(MR));
    let block_groups = mc.div_ceil(MR);
    // The A pack panel comes from the executing thread's scratch pool
    // — the steady-state GEMM invocation allocates nothing. Unzeroed
    // scratch is safe: full tiles are overwritten before every read
    // and edge tiles are explicitly zero-filled below. The B slab has
    // a compile-time bound (`KC_MAX × NR` = 16 KiB), so it lives on
    // the stack — and its statically known extent is what lets LLVM
    // keep the micro-kernel's bounds checks out of the k-loop (an
    // opaque, pool-provided slab measurably de-vectorizes the kernel).
    let mut apack = ScratchVec::take(block_groups * MR * kc_max);
    let mut bpack = [0.0f32; tune::KC_MAX * NR];
    let mut pc = 0;
    while pc < k {
        let kc = (k - pc).min(kc_max);
        let mut ic = 0;
        while ic < m {
            let mh = (m - ic).min(mc);
            let groups = mh.div_ceil(MR);
            for g in 0..groups {
                let r0 = ic + g * MR;
                let rh = (m - r0).min(MR);
                let dst = &mut apack[g * MR * kc..(g + 1) * MR * kc];
                if rh < MR {
                    dst.fill(0.0);
                }
                if a.col_major {
                    // Stored `[k × m]`: the `rh` rows of one k-step sit
                    // side by side, already in micro-panel order.
                    for p in 0..kc {
                        let base = (pc + p) * a.ld + i0 + r0;
                        dst[p * MR..p * MR + rh].copy_from_slice(&a.data[base..base + rh]);
                    }
                } else {
                    for r in 0..rh {
                        let base = (i0 + r0 + r) * a.ld + pc;
                        for (p, &v) in a.data[base..base + kc].iter().enumerate() {
                            dst[p * MR + r] = v;
                        }
                    }
                }
                #[cfg(test)]
                pack_probe::record(a.data, rh * kc, 0);
            }
            let mut j0 = 0;
            while j0 < n {
                let jw = (n - j0).min(NR);
                if jw < NR {
                    bpack[..kc * NR].fill(0.0);
                }
                if b.col_major {
                    // Stored `[n × k]`: one logical column is a
                    // contiguous stored row.
                    for j in 0..jw {
                        let base = (jc + j0 + j) * b.ld + pc;
                        for (p, &v) in b.data[base..base + kc].iter().enumerate() {
                            bpack[p * NR + j] = v;
                        }
                    }
                } else {
                    for p in 0..kc {
                        let base = (pc + p) * b.ld + jc + j0;
                        bpack[p * NR..p * NR + jw].copy_from_slice(&b.data[base..base + jw]);
                    }
                }
                #[cfg(test)]
                pack_probe::record(a.data, 0, kc * jw);
                for g in 0..groups {
                    let r0 = ic + g * MR;
                    let rh = (m - r0).min(MR);
                    micro_tile(
                        kern,
                        &apack[g * MR * kc..(g + 1) * MR * kc],
                        &bpack,
                        &mut out,
                        r0,
                        rh,
                        j0,
                        jw,
                        kc,
                    );
                }
                j0 += jw;
            }
            ic += mh;
        }
        pc += kc;
    }
}

/// `MR × NR` register tile over packed operands: accumulators live in
/// registers across the k-block; `apack` is `kc × MR` (row-interleaved),
/// `bpack` is `kc × NR`. Stores only the `rh × jw` live sub-tile.
///
/// The k-loop dispatches on `kern`: the AVX2 tier executes the same
/// mul-then-add per lane (bit-identical, see [`crate::simd`]) and
/// everything else runs the portable loop. Accumulator copy-in/out is
/// shared by both tiers.
#[inline]
fn micro_tile(
    kern: simd::Kernel,
    apack: &[f32],
    bpack: &[f32],
    out: &mut Window,
    r0: usize,
    rh: usize,
    j0: usize,
    jw: usize,
    kc: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, accr) in acc.iter_mut().take(rh).enumerate() {
        accr[..jw].copy_from_slice(out.segment(r0 + r, j0, jw));
    }
    match kern {
        #[cfg(target_arch = "x86_64")]
        simd::Kernel::Avx2 => {
            // SAFETY: `simd::active` only returns tiers the CPU
            // supports; apack/bpack hold kc·MR / kc·NR elements.
            unsafe { simd::x86::gemm_micro_avx2(apack, bpack, &mut acc, kc) }
        }
        _ => {
            for p in 0..kc {
                let arow = &apack[p * MR..p * MR + MR];
                let brow = &bpack[p * NR..p * NR + NR];
                for (r, accr) in acc.iter_mut().enumerate() {
                    let av = arow[r];
                    for (x, &bv) in accr.iter_mut().zip(brow) {
                        *x += av * bv;
                    }
                }
            }
        }
    }
    for (r, accr) in acc.iter().take(rh).enumerate() {
        out.segment(r0 + r, j0, jw).copy_from_slice(&accr[..jw]);
    }
}

/// Test-only pack-volume counter: how many source elements the pack
/// loops of [`gemm_panel`] read, for products whose A operand is the
/// watched buffer. Keyed on that buffer's address so GEMMs issued by
/// tests running concurrently on other threads are not counted, and
/// global rather than thread-local so a fanned-out product's tasks are.
#[cfg(test)]
mod pack_probe {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    struct Watch {
        a_addr: usize,
        a_elems: usize,
        b_elems: usize,
    }

    static WATCH: Mutex<Option<Watch>> = Mutex::new(None);
    /// One measurement at a time.
    static SESSION: Mutex<()> = Mutex::new(());

    fn watch() -> MutexGuard<'static, Option<Watch>> {
        WATCH.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(super) fn record(a: &[f32], a_elems: usize, b_elems: usize) {
        if let Some(w) = watch().as_mut() {
            if w.a_addr == a.as_ptr() as usize {
                w.a_elems += a_elems;
                w.b_elems += b_elems;
            }
        }
    }

    /// Runs `f` and returns the `(A, B)` element counts packed by
    /// products whose A operand is `a`.
    pub(super) fn measure(a: &[f32], f: impl FnOnce()) -> (usize, usize) {
        let _session = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
        *watch() = Some(Watch {
            a_addr: a.as_ptr() as usize,
            a_elems: 0,
            b_elems: 0,
        });
        f();
        let w = watch().take().expect("watch installed above");
        (w.a_elems, w.b_elems)
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
        gemm_panel(a, b, Window::whole(&mut full, m, n), k);
        let mut windowed = vec![0.0f32; m * n];
        let whole = Window::whole(&mut windowed, m, n);
        for jc in (0..n).step_by(NR + 3) {
            // SAFETY: one sub-window alive at a time.
            let window = unsafe { whole.sub(0..m, jc..(jc + NR + 3).min(n)) };
            gemm_panel(a, b, window, k);
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
        let mut full = vec![0.0f32; m * n];
        gemm_panel(
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
            gemm_panel(a, b, unsafe { whole.sub(rows, 0..n) }, k);
        }
        assert_eq!(full, stacked);
    }

    #[test]
    fn large_shapes_cross_the_tiled_and_parallel_paths() {
        // 96×70×130 exceeds SMALL_WORK; 128×128×128 reaches PAR_WORK
        // (row split) and 4×600×600 the short-and-wide column split
        // when a multi-core pool exists. All must agree with the
        // reference bit-for-bit.
        for (m, k, n) in [(96, 70, 130), (128, 128, 128), (4, 600, 600)] {
            let (a, b) = operands(m, k, n);
            assert_eq!(a.matmul(&b).unwrap(), reference(&a, &b), "{m}x{k}x{n}");
        }
    }

    /// One product of a `fedtrans-conv` layer: the tensor its A operand
    /// lives in, the call, and the `(A, B)` element counts one pack of
    /// each operand reads.
    struct ConvProduct {
        name: &'static str,
        a: Tensor,
        call: Box<dyn Fn(&Tensor) + Sync>,
        once: (usize, usize),
    }

    /// The three products of one conv layer of `fedtrans-conv`
    /// (16 → 16 channels, 3×3, batch 10 of 16×16): forward `matmul`,
    /// `dW` `matmul_t`, `dcols` `t_matmul`.
    fn conv_products() -> [ConvProduct; 3] {
        let (oc, ckk, cols) = (16, 144, 2560);
        let (w, x) = operands(oc, ckk, cols); // weight [16×144], patches [144×2560]
        let (dy, _) = operands(oc, cols, 1); // [16×2560]
        let (x_fwd, x_dw, dy_dcols) = (x.clone(), x, dy.clone());
        [
            ConvProduct {
                name: "matmul",
                a: w.clone(),
                call: Box::new(move |a| drop(a.matmul(&x_fwd).unwrap())),
                once: (oc * ckk, ckk * cols),
            },
            ConvProduct {
                name: "matmul_t",
                a: dy,
                call: Box::new(move |a| drop(a.matmul_t(&x_dw).unwrap())),
                once: (oc * cols, cols * ckk),
            },
            ConvProduct {
                name: "t_matmul",
                a: w,
                call: Box::new(move |a| drop(a.t_matmul(&dy_dcols).unwrap())),
                once: (ckk * oc, oc * cols),
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
    fn a_nested_conv_gemm_packs_each_operand_exactly_once() {
        // Before: four 4-row panels, each re-packing all of B (≈ 4× the
        // B term), after a full `transposed()` copy for the two
        // transposing variants.
        for p in conv_products() {
            let packed = pack_probe::measure(p.a.data(), || nested(&|| (p.call)(&p.a)));
            assert_eq!(packed, p.once, "{}", p.name);
        }
    }

    #[test]
    fn a_fanned_out_conv_gemm_packs_its_large_operand_once_in_total() {
        // From the main thread the product may fan out (when the pool
        // has workers and nobody else owns it): every task re-packs the
        // small operand, the large one is packed once between them.
        let max_tasks = 2 * pool::max_parallelism();
        for p in conv_products() {
            let (pa, pb) = pack_probe::measure(p.a.data(), || (p.call)(&p.a));
            let (a_once, b_once) = p.once;
            let (small, small_once, large, large_once) = if a_once < b_once {
                (pa, a_once, pb, b_once)
            } else {
                (pb, b_once, pa, a_once)
            };
            assert_eq!(large, large_once, "{}: large operand", p.name);
            assert_eq!(small % small_once, 0, "{}: whole re-packs only", p.name);
            assert!(
                (1..=max_tasks).contains(&(small / small_once)),
                "{}",
                p.name
            );
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
