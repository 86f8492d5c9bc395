//! Per-worker, size-classed scratch buffers — the workspace memory
//! layer behind the zero-allocation steady-state train step.
//!
//! Every transient `f32` buffer in the workspace (tensor data, GEMM
//! pack panels, conv shifted planes, attention projection workspaces,
//! loss/eval temporaries) is checked out of a thread-local pool with
//! [`take`] / [`take_zeroed`] and returned on drop — either through
//! the [`ScratchVec`] guard or through `Tensor`'s `Drop` impl, which
//! feeds its buffer back via [`recycle`]. In the warm steady state of
//! a training loop every buffer size repeats each step, so after the
//! first step the pool serves every checkout from its free lists and
//! the underlying allocator is never called again (pinned by the
//! `alloc_steady_state` regression test in `ft_fedsim`).
//!
//! # Ownership and determinism
//!
//! Pools are strictly per-thread (`thread_local!`), so checkout and
//! return never synchronize, never contend, and never move buffers
//! between threads while in use: a buffer checked out by a pool
//! worker lives on that worker's stack until it is dropped, exactly
//! like a plain `Vec` would. Reuse changes *where* a buffer's memory
//! comes from, never its contents as observed by callers: [`take`]
//! hands out initialized buffers of unspecified contents (stale
//! values or zeros — never uninitialized memory) for code that fully
//! overwrites them, and [`take_zeroed`] zero-fills the requested
//! length for accumulation buffers, which is byte-identical to
//! `vec![0.0; len]`. All arithmetic performed *in* the buffers is
//! untouched, so the 0-ULP determinism contract of the kernels is
//! preserved by construction.
//!
//! # Bounding
//!
//! Buffers are binned by power-of-two capacity class. Each class
//! retains a bounded number of free buffers and a bounded byte total
//! (`MAX_PER_CLASS` / `MAX_CLASS_BYTES`); anything beyond that (and
//! any buffer larger than `MAX_POOLED_BYTES`) is released to the real
//! allocator, so a transient spike cannot pin memory forever.

use std::cell::RefCell;

/// Smallest pooled class, in elements (smaller requests round up).
const MIN_CLASS_ELEMS: usize = 64;
/// Buffers above this many bytes are never pooled.
const MAX_POOLED_BYTES: usize = 64 << 20;
/// Retained free buffers per class.
const MAX_PER_CLASS: usize = 16;
/// Retained free bytes per class (caps the large classes harder).
const MAX_CLASS_BYTES: usize = 64 << 20;

/// One thread's free lists, indexed by power-of-two class.
struct ThreadPool {
    /// `classes[i]` holds buffers with capacity in
    /// `[MIN_CLASS_ELEMS << i, MIN_CLASS_ELEMS << (i + 1))`.
    classes: Vec<Vec<Vec<f32>>>,
    /// Reusable `usize` buffers (batch index scratch).
    index_bufs: Vec<Vec<usize>>,
}

impl ThreadPool {
    const fn new() -> Self {
        ThreadPool {
            classes: Vec::new(),
            index_bufs: Vec::new(),
        }
    }
}

thread_local! {
    static POOL: RefCell<ThreadPool> = const { RefCell::new(ThreadPool::new()) };
}

/// Class index for a request of `len` elements.
fn class_of(len: usize) -> usize {
    let rounded = len.max(MIN_CLASS_ELEMS).next_power_of_two();
    (rounded / MIN_CLASS_ELEMS).trailing_zeros() as usize
}

/// Capacity allocated for class `class`.
fn class_capacity(class: usize) -> usize {
    MIN_CLASS_ELEMS << class
}

/// Checks a buffer of exactly `len` elements out of the calling
/// thread's pool, with **unspecified contents** (stale values from a
/// previous user, or zeros). Use only where every element is written
/// before being read; use [`take_zeroed`] for accumulation buffers.
///
/// Buffers keep their initialized length through the pool, so the
/// warm path is a plain `truncate` — no clearing pass, no
/// uninitialized memory (`Vec::set_len` over fresh capacity would be
/// library UB even for `f32`). Growing past a recycled buffer's
/// initialized prefix, and the cold fresh-allocation path, zero-fill
/// the gap; in the steady state sizes repeat, so neither occurs.
pub fn take(len: usize) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    crate::work::count(|w| w.scratch += len);
    let reused = POOL.with(|p| {
        let mut p = p.borrow_mut();
        let class = class_of(len);
        p.classes.get_mut(class).and_then(Vec::pop)
    });
    if let Some(mut v) = reused {
        debug_assert!(v.capacity() >= len);
        if v.len() >= len {
            v.truncate(len);
        } else {
            // Within capacity by the class invariant: fills only
            // the `v.len()..len` gap, never reallocates.
            v.resize(len, 0.0);
        }
        return v;
    }
    let mut v = Vec::with_capacity(class_capacity(class_of(len)));
    v.resize(len, 0.0);
    v
}

/// [`take`], but with the `len` prefix zero-filled — byte-identical
/// to `vec![0.0; len]` as far as the caller can observe.
pub fn take_zeroed(len: usize) -> Vec<f32> {
    let mut v = take(len);
    v.fill(0.0);
    v
}

/// Returns a buffer to the calling thread's pool (or frees it when
/// the buffer is empty, oversized, or its class is full). Accepts any
/// `Vec<f32>`, not just pool-born ones: a deserialized tensor's buffer
/// enters the pool on first drop.
pub fn recycle(v: Vec<f32>) {
    let cap = v.capacity();
    if cap < MIN_CLASS_ELEMS || cap * 4 > MAX_POOLED_BYTES {
        return; // dropped
    }
    // Classify by the largest class the capacity fully covers, so a
    // future `take` from that class always fits.
    let class = class_of(cap);
    let class = if class_capacity(class) > cap {
        match class.checked_sub(1) {
            Some(c) => c,
            None => return,
        }
    } else {
        class
    };
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.classes.len() <= class {
            p.classes.resize_with(class + 1, Vec::new);
        }
        let list = &mut p.classes[class];
        let class_bytes = class_capacity(class) * 4;
        if list.len() < MAX_PER_CLASS && (list.len() + 1) * class_bytes <= MAX_CLASS_BYTES {
            list.push(v);
        }
    });
}

/// An RAII checkout: derefs to `[f32]` and returns its buffer to the
/// pool on drop. [`ScratchVec::into_vec`] hands the buffer off
/// instead (e.g. to become a `Tensor`'s storage, which recycles it
/// through its own `Drop`).
pub struct ScratchVec {
    v: Vec<f32>,
}

impl ScratchVec {
    /// Checks out `len` elements with unspecified contents.
    pub fn take(len: usize) -> Self {
        ScratchVec { v: take(len) }
    }

    /// Checks out `len` zero-filled elements.
    pub fn take_zeroed(len: usize) -> Self {
        ScratchVec {
            v: take_zeroed(len),
        }
    }

    /// Releases the underlying buffer to the caller (it will not be
    /// recycled by this guard).
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.v)
    }
}

impl std::ops::Deref for ScratchVec {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.v
    }
}

impl std::ops::DerefMut for ScratchVec {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.v
    }
}

impl Drop for ScratchVec {
    fn drop(&mut self) {
        recycle(std::mem::take(&mut self.v));
    }
}

/// Borrows a reusable `usize` buffer (cleared before `f` runs) from
/// the calling thread's pool — the batch-index scratch used by data
/// sampling. Reentrant calls get a fresh buffer.
pub fn with_index_buf<R>(f: impl FnOnce(&mut Vec<usize>) -> R) -> R {
    let mut buf = POOL
        .with(|p| p.borrow_mut().index_bufs.pop())
        .unwrap_or_default();
    buf.clear();
    let out = f(&mut buf);
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.index_bufs.len() < 4 {
            p.index_bufs.push(buf);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_len_and_zeroing() {
        let v = take(100);
        assert_eq!(v.len(), 100);
        let z = take_zeroed(100);
        assert!(z.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn zero_len_take_is_empty() {
        assert!(take(0).is_empty());
        assert!(take_zeroed(0).is_empty());
    }

    #[test]
    fn recycled_capacity_is_reused() {
        let mut v = take(1000);
        v[0] = 42.0;
        let ptr = v.as_ptr();
        recycle(v);
        // Same thread, same class: the very next checkout of a
        // same-class size reuses the buffer.
        let v2 = take(900);
        assert_eq!(v2.as_ptr(), ptr);
        assert_eq!(v2.len(), 900);
    }

    #[test]
    fn take_zeroed_clears_recycled_garbage() {
        let mut v = take(256);
        v.fill(7.0);
        recycle(v);
        let z = take_zeroed(256);
        assert!(z.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn class_retention_is_bounded() {
        // Recycling more than MAX_PER_CLASS buffers must not grow the
        // free list without bound; this is observational (no panic,
        // no leak under ASan-style reasoning) — just exercise it.
        for _ in 0..(MAX_PER_CLASS * 2) {
            recycle(take(128));
        }
        let v = take(128);
        assert_eq!(v.len(), 128);
    }

    #[test]
    fn foreign_buffers_are_accepted() {
        // A vec not born from the pool (odd capacity) still recycles:
        // it lands in the class its capacity fully covers.
        let v = Vec::with_capacity(200);
        recycle(v);
        let out = take(128); // class 1 (cap 128) <= 200
        assert!(out.capacity() >= 128);
    }

    #[test]
    fn scratch_vec_guard_round_trips() {
        let mut g = ScratchVec::take_zeroed(300);
        g[0] = 1.0;
        let ptr = g.as_ptr();
        drop(g);
        let g2 = ScratchVec::take(300);
        assert_eq!(g2.as_ptr(), ptr);
    }

    #[test]
    fn index_buf_is_cleared_between_uses() {
        with_index_buf(|b| b.extend(0..10));
        with_index_buf(|b| assert!(b.is_empty()));
    }
}
