//! Runtime-dispatched SIMD micro-kernels for the GEMM core and the
//! fused element-wise kernels.
//!
//! # Dispatch
//!
//! The kernel tier is decided once per process by [`active`]:
//!
//! 1. `FT_TENSOR_SIMD=0` (or `off`, `portable`) forces the portable
//!    fallback (the plain Rust loops, exactly the pre-SIMD code path).
//! 2. Otherwise (unset, or `1`/`on`/`auto`),
//!    `is_x86_feature_detected!("avx2")` picks [`Kernel::Avx2`] on
//!    capable x86-64 hosts and [`Kernel::Portable`] everywhere else.
//!
//! There is no FMA tier: contracting `mul`+`add` into one rounding
//! would move every digest.
//!
//! # Why AVX2 keeps results bit-identical
//!
//! Every [`Kernel::Avx2`] kernel performs exactly the scalar kernels'
//! arithmetic — the same IEEE-754 single-precision `mul`/`add`/`sub`/
//! `div`/`sqrt` operations, on the same operands, in the same
//! per-element order — merely eight lanes at a time. Vectorizing runs
//! across *independent* output elements (the `NR` column dimension in
//! GEMM, disjoint indices element-wise), so no accumulation order
//! changes and no reduction is split: each output element keeps its
//! single accumulator and ascending-`k` order. `x86` vector `mulps`/
//! `addps` lanes round exactly like their scalar `mulss`/`addss`
//! counterparts, so the results are 0 ULP from the portable fallback —
//! pinned by `crates/tensor/tests/proptest_simd.rs` and by the CI
//! scenario legs that replay every golden digest under
//! `FT_TENSOR_SIMD=0`.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// A micro-kernel implementation tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Plain Rust loops — the reference semantics on every platform.
    Portable,
    /// Explicit AVX2 intrinsics, bit-identical to [`Kernel::Portable`].
    Avx2,
}

impl Kernel {
    /// Stable lowercase name used in bench emitters and logs.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Portable => "portable",
            Kernel::Avx2 => "avx2",
        }
    }
}

/// Parses an `FT_TENSOR_SIMD` value: `Some(false)` forces the portable
/// fallback, `Some(true)` asks for CPU auto-detection, `None` is not a
/// recognised form ([`active`] then auto-detects; `ft-run` refuses to
/// start).
pub fn parse_env(value: &str) -> Option<bool> {
    match value.trim() {
        "0" | "off" | "portable" => Some(false),
        "1" | "on" | "auto" => Some(true),
        _ => None,
    }
}

/// Pure decision function behind [`active`], separated so the env/CPU
/// matrix is unit-testable without touching process state.
fn decide(env: Option<&str>, has_avx2: bool) -> Kernel {
    if has_avx2 && env.and_then(parse_env).unwrap_or(true) {
        Kernel::Avx2
    } else {
        Kernel::Portable
    }
}

/// Whether this host's CPU can execute `k` at all (independent of the
/// `FT_TENSOR_SIMD` setting).
pub fn supported(k: Kernel) -> bool {
    match k {
        Kernel::Portable => true,
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
        #[cfg(not(target_arch = "x86_64"))]
        _ => false,
    }
}

/// Every kernel tier this host can execute, portable first. Hardware
/// capability only — `FT_TENSOR_SIMD` does not narrow this list, so
/// equivalence tests can always compare the tiers side by side.
pub fn available() -> Vec<Kernel> {
    [Kernel::Portable, Kernel::Avx2]
        .into_iter()
        .filter(|&k| supported(k))
        .collect()
}

/// The env- and CPU-derived kernel choice, computed once per process.
fn detected() -> Kernel {
    static DETECTED: OnceLock<Kernel> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        let env = std::env::var("FT_TENSOR_SIMD").ok();
        decide(env.as_deref(), supported(Kernel::Avx2))
    })
}

/// Test/bench override: 0 = none, otherwise `Kernel as u8 + 1`.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Overrides the kernel tier for subsequent calls (`None` restores
/// the `FT_TENSOR_SIMD`/CPU auto-detection). A bench/test hook:
/// production code never calls it, and callers must not flip it while
/// kernels are running on other threads.
///
/// # Panics
///
/// Panics when `k` is a tier this host's CPU cannot execute
/// ([`supported`] is false) — forcing it would be undefined behavior.
pub fn force(k: Option<Kernel>) {
    let v = match k {
        None => 0,
        Some(k) => {
            assert!(
                supported(k),
                "cannot force {:?}: not supported by this host's CPU",
                k
            );
            k as u8 + 1
        }
    };
    FORCED.store(v, Ordering::SeqCst);
}

/// The kernel tier every dispatch site uses for this call.
pub fn active() -> Kernel {
    match FORCED.load(Ordering::SeqCst) {
        1 => Kernel::Portable,
        2 => Kernel::Avx2,
        _ => detected(),
    }
}

/// The explicit AVX2 kernels. Each function is `unsafe` solely
/// because of the `target_feature` contract: the caller must have
/// verified AVX2 support, which every dispatch site does by
/// construction ([`active`] only returns a tier [`supported`] reports
/// true for).
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use std::arch::x86_64::*;

    use crate::matmul::{MR, NR};

    /// AVX2 GEMM register tile: `c[r][j] = (load ? c[r][j] : +0.0) +
    /// Σ_p a[r][p·a_step] · b[p·b_step + j]`, ascending `p`, one `mul` +
    /// one `add` per term — the portable tile's arithmetic exactly,
    /// eight `j` lanes per instruction (`NR` = 8 = one `__m256`). `a[r]`
    /// points at row `r` of A in place (`a_step` = 1 row-major, the
    /// stored row length column-major); `b` at a packed slab (`b_step`
    /// = `NR`) or at B in place (`b_step` = its row length); `c` holds
    /// the tile's output rows, in the product or in a local edge buffer.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support, and for every
    /// `p < kc`, `r < MR`, `j < NR` the elements `a[r] + p·a_step` and
    /// `b + p·b_step + j` must be readable.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_micro_avx2(
        a: [*const f32; MR],
        a_step: usize,
        b: *const f32,
        b_step: usize,
        c: &mut [&mut [f32; NR]; MR],
        kc: usize,
        load: bool,
    ) {
        let (mut v0, mut v1, mut v2, mut v3) = if load {
            // SAFETY: each c row is NR = 8 contiguous f32s.
            unsafe {
                (
                    _mm256_loadu_ps(c[0].as_ptr()),
                    _mm256_loadu_ps(c[1].as_ptr()),
                    _mm256_loadu_ps(c[2].as_ptr()),
                    _mm256_loadu_ps(c[3].as_ptr()),
                )
            }
        } else {
            let zero = _mm256_setzero_ps();
            (zero, zero, zero, zero)
        };
        for p in 0..kc {
            // SAFETY: p < kc, so b + p·b_step + 0..NR is readable (the
            // caller's contract).
            let bv = unsafe { _mm256_loadu_ps(b.add(p * b_step)) };
            // SAFETY: p < kc, so every a[r] + p·a_step is readable (the
            // caller's contract).
            let (a0, a1, a2, a3) = unsafe {
                (
                    _mm256_set1_ps(*a[0].add(p * a_step)),
                    _mm256_set1_ps(*a[1].add(p * a_step)),
                    _mm256_set1_ps(*a[2].add(p * a_step)),
                    _mm256_set1_ps(*a[3].add(p * a_step)),
                )
            };
            v0 = _mm256_add_ps(v0, _mm256_mul_ps(a0, bv));
            v1 = _mm256_add_ps(v1, _mm256_mul_ps(a1, bv));
            v2 = _mm256_add_ps(v2, _mm256_mul_ps(a2, bv));
            v3 = _mm256_add_ps(v3, _mm256_mul_ps(a3, bv));
        }
        // SAFETY: each c row is NR = 8 contiguous f32s.
        unsafe {
            _mm256_storeu_ps(c[0].as_mut_ptr(), v0);
            _mm256_storeu_ps(c[1].as_mut_ptr(), v1);
            _mm256_storeu_ps(c[2].as_mut_ptr(), v2);
            _mm256_storeu_ps(c[3].as_mut_ptr(), v3);
        }
    }

    /// Width of one `__m256` in `f32` lanes.
    const LANES: usize = 8;

    /// `a[i] += b[i]`.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support; slices must be equal
    /// length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_assign_avx2(a: &mut [f32], b: &[f32]) {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let (pa, pb) = (a.as_mut_ptr(), b.as_ptr());
        let mut i = 0;
        while i + LANES <= n {
            // SAFETY: i + 8 ≤ n, both slices are n long.
            unsafe {
                let va = _mm256_loadu_ps(pa.add(i));
                let vb = _mm256_loadu_ps(pb.add(i));
                _mm256_storeu_ps(pa.add(i), _mm256_add_ps(va, vb));
            }
            i += LANES;
        }
        for (x, &y) in a[i..].iter_mut().zip(&b[i..]) {
            *x += y;
        }
    }

    /// `a[i] -= b[i]`.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support; slices must be equal
    /// length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sub_assign_avx2(a: &mut [f32], b: &[f32]) {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let (pa, pb) = (a.as_mut_ptr(), b.as_ptr());
        let mut i = 0;
        while i + LANES <= n {
            // SAFETY: i + 8 ≤ n, both slices are n long.
            unsafe {
                let va = _mm256_loadu_ps(pa.add(i));
                let vb = _mm256_loadu_ps(pb.add(i));
                _mm256_storeu_ps(pa.add(i), _mm256_sub_ps(va, vb));
            }
            i += LANES;
        }
        for (x, &y) in a[i..].iter_mut().zip(&b[i..]) {
            *x -= y;
        }
    }

    /// `a[i] *= b[i]`.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support; slices must be equal
    /// length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mul_assign_avx2(a: &mut [f32], b: &[f32]) {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let (pa, pb) = (a.as_mut_ptr(), b.as_ptr());
        let mut i = 0;
        while i + LANES <= n {
            // SAFETY: i + 8 ≤ n, both slices are n long.
            unsafe {
                let va = _mm256_loadu_ps(pa.add(i));
                let vb = _mm256_loadu_ps(pb.add(i));
                _mm256_storeu_ps(pa.add(i), _mm256_mul_ps(va, vb));
            }
            i += LANES;
        }
        for (x, &y) in a[i..].iter_mut().zip(&b[i..]) {
            *x *= y;
        }
    }

    /// `a[i] *= alpha`.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scale_assign_avx2(a: &mut [f32], alpha: f32) {
        let n = a.len();
        let pa = a.as_mut_ptr();
        let va = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i + LANES <= n {
            // SAFETY: i + 8 ≤ n.
            unsafe {
                let v = _mm256_loadu_ps(pa.add(i));
                _mm256_storeu_ps(pa.add(i), _mm256_mul_ps(v, va));
            }
            i += LANES;
        }
        for x in &mut a[i..] {
            *x *= alpha;
        }
    }

    /// `a[i] += alpha * b[i]` (no FMA: `mul` then `add`, matching the
    /// portable kernel bit for bit).
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support; slices must be equal
    /// length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_avx2(a: &mut [f32], alpha: f32, b: &[f32]) {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let (pa, pb) = (a.as_mut_ptr(), b.as_ptr());
        let valpha = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i + LANES <= n {
            // SAFETY: i + 8 ≤ n, both slices are n long.
            unsafe {
                let va = _mm256_loadu_ps(pa.add(i));
                let vb = _mm256_loadu_ps(pb.add(i));
                _mm256_storeu_ps(pa.add(i), _mm256_add_ps(va, _mm256_mul_ps(valpha, vb)));
            }
            i += LANES;
        }
        for (x, &y) in a[i..].iter_mut().zip(&b[i..]) {
            *x += alpha * y;
        }
    }

    /// Fused SGD-with-momentum update, the scalar kernel's arithmetic
    /// lane for lane: `grad = g + wd·p; v = mom·v + grad; p -= lr·v`.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support; slices must be equal
    /// length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sgd_momentum_avx2(
        p: &mut [f32],
        v: &mut [f32],
        g: &[f32],
        lr: f32,
        momentum: f32,
        weight_decay: f32,
    ) {
        debug_assert!(p.len() == v.len() && p.len() == g.len());
        let n = p.len();
        let (pp, pv, pg) = (p.as_mut_ptr(), v.as_mut_ptr(), g.as_ptr());
        let (vlr, vmom, vwd) = (
            _mm256_set1_ps(lr),
            _mm256_set1_ps(momentum),
            _mm256_set1_ps(weight_decay),
        );
        let mut i = 0;
        while i + LANES <= n {
            // SAFETY: i + 8 ≤ n; p/v/g are all n long.
            unsafe {
                let xp = _mm256_loadu_ps(pp.add(i));
                let xv = _mm256_loadu_ps(pv.add(i));
                let xg = _mm256_loadu_ps(pg.add(i));
                let grad = _mm256_add_ps(xg, _mm256_mul_ps(vwd, xp));
                let vel = _mm256_add_ps(_mm256_mul_ps(vmom, xv), grad);
                _mm256_storeu_ps(pv.add(i), vel);
                _mm256_storeu_ps(pp.add(i), _mm256_sub_ps(xp, _mm256_mul_ps(vlr, vel)));
            }
            i += LANES;
        }
        for ((p, v), &g) in p[i..].iter_mut().zip(&mut v[i..]).zip(&g[i..]) {
            let grad = g + weight_decay * *p;
            let vel = momentum * *v + grad;
            *v = vel;
            *p -= lr * vel;
        }
    }

    /// Fused FedProx update: the SGD kernel with the proximal term
    /// `g + mu·(p − anchor)` computed from the pre-update `p`.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support; slices must be equal
    /// length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn prox_sgd_momentum_avx2(
        p: &mut [f32],
        v: &mut [f32],
        g: &[f32],
        anchor: &[f32],
        mu: f32,
        lr: f32,
        momentum: f32,
        weight_decay: f32,
    ) {
        debug_assert!(p.len() == v.len() && p.len() == g.len() && p.len() == anchor.len());
        let n = p.len();
        let (pp, pv, pg, pa) = (p.as_mut_ptr(), v.as_mut_ptr(), g.as_ptr(), anchor.as_ptr());
        let (vmu, vlr, vmom, vwd) = (
            _mm256_set1_ps(mu),
            _mm256_set1_ps(lr),
            _mm256_set1_ps(momentum),
            _mm256_set1_ps(weight_decay),
        );
        let mut i = 0;
        while i + LANES <= n {
            // SAFETY: i + 8 ≤ n; p/v/g/anchor are all n long.
            unsafe {
                let xp = _mm256_loadu_ps(pp.add(i));
                let xv = _mm256_loadu_ps(pv.add(i));
                let xg = _mm256_loadu_ps(pg.add(i));
                let xa = _mm256_loadu_ps(pa.add(i));
                let adjusted = _mm256_add_ps(xg, _mm256_mul_ps(vmu, _mm256_sub_ps(xp, xa)));
                let grad = _mm256_add_ps(adjusted, _mm256_mul_ps(vwd, xp));
                let vel = _mm256_add_ps(_mm256_mul_ps(vmom, xv), grad);
                _mm256_storeu_ps(pv.add(i), vel);
                _mm256_storeu_ps(pp.add(i), _mm256_sub_ps(xp, _mm256_mul_ps(vlr, vel)));
            }
            i += LANES;
        }
        for (((p, v), &g), &a) in p[i..]
            .iter_mut()
            .zip(&mut v[i..])
            .zip(&g[i..])
            .zip(&anchor[i..])
        {
            let adjusted = g + mu * (*p - a);
            let grad = adjusted + weight_decay * *p;
            let vel = momentum * *v + grad;
            *v = vel;
            *p -= lr * vel;
        }
    }

    /// `signum` over a vector, matching `f32::signum` lane for lane:
    /// ±1 with the operand's sign bit for finite and infinite values
    /// (including ±0), the canonical `f32::NAN` for NaN lanes.
    ///
    /// # Safety
    ///
    /// Safe to call only from the AVX2-featured kernels of this module;
    /// any other caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    fn signum_ps(x: __m256) -> __m256 {
        let signed_one = _mm256_or_ps(_mm256_set1_ps(1.0), _mm256_and_ps(x, _mm256_set1_ps(-0.0)));
        // Unordered-with-self picks out NaN lanes.
        let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
        _mm256_blendv_ps(signed_one, _mm256_set1_ps(f32::NAN), nan)
    }

    /// Fused Yogi update, the scalar kernel's arithmetic lane for
    /// lane (vector `sqrt`/`div` round identically to their scalar
    /// forms; `signum` is emulated exactly, see [`signum_ps`]).
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support; slices must be equal
    /// length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn yogi_avx2(
        p: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        d: &[f32],
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
    ) {
        debug_assert!(p.len() == m.len() && p.len() == v.len() && p.len() == d.len());
        let n = p.len();
        let (pp, pm, pv, pd) = (p.as_mut_ptr(), m.as_mut_ptr(), v.as_mut_ptr(), d.as_ptr());
        let (vlr, vb1, vb2c, vb1c, veps) = (
            _mm256_set1_ps(lr),
            _mm256_set1_ps(beta1),
            _mm256_set1_ps(1.0 - beta2),
            _mm256_set1_ps(1.0 - beta1),
            _mm256_set1_ps(eps),
        );
        let mut i = 0;
        while i + LANES <= n {
            // SAFETY: i + 8 ≤ n; p/m/v/d are all n long.
            unsafe {
                let xp = _mm256_loadu_ps(pp.add(i));
                let xm = _mm256_loadu_ps(pm.add(i));
                let xv = _mm256_loadu_ps(pv.add(i));
                let xg = _mm256_loadu_ps(pd.add(i));
                let mi = _mm256_add_ps(_mm256_mul_ps(vb1, xm), _mm256_mul_ps(vb1c, xg));
                let g2 = _mm256_mul_ps(xg, xg);
                let sign = signum_ps(_mm256_sub_ps(xv, g2));
                let vi = _mm256_sub_ps(xv, _mm256_mul_ps(_mm256_mul_ps(vb2c, g2), sign));
                _mm256_storeu_ps(pm.add(i), mi);
                _mm256_storeu_ps(pv.add(i), vi);
                let denom = _mm256_add_ps(_mm256_sqrt_ps(vi), veps);
                let step = _mm256_div_ps(_mm256_mul_ps(vlr, mi), denom);
                _mm256_storeu_ps(pp.add(i), _mm256_add_ps(xp, step));
            }
            i += LANES;
        }
        for (((p, m), v), &g) in p[i..]
            .iter_mut()
            .zip(&mut m[i..])
            .zip(&mut v[i..])
            .zip(&d[i..])
        {
            let mi = beta1 * *m + (1.0 - beta1) * g;
            let g2 = g * g;
            let vi = *v - (1.0 - beta2) * g2 * (*v - g2).signum();
            *m = mi;
            *v = vi;
            *p += lr * mi / (vi.sqrt() + eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_honors_the_env_override() {
        assert_eq!(decide(Some("0"), true), Kernel::Portable);
        assert_eq!(decide(Some("off"), true), Kernel::Portable);
        assert_eq!(decide(Some("portable"), true), Kernel::Portable);
        assert_eq!(decide(Some(" 0 "), true), Kernel::Portable);
    }

    #[test]
    fn decide_auto_detects_from_cpu_features() {
        assert_eq!(decide(None, true), Kernel::Avx2);
        assert_eq!(decide(None, false), Kernel::Portable);
        assert_eq!(decide(Some("1"), true), Kernel::Avx2);
        assert_eq!(decide(Some("auto"), false), Kernel::Portable);
    }

    #[test]
    fn unrecognised_values_do_not_parse_and_auto_detect() {
        for bad in ["fma", "protable", "", "2", "avx512"] {
            assert_eq!(parse_env(bad), None, "{bad:?}");
            assert_eq!(decide(Some(bad), true), Kernel::Avx2);
            assert_eq!(decide(Some(bad), false), Kernel::Portable);
        }
    }

    #[test]
    fn available_starts_portable_and_only_lists_supported() {
        let tiers = available();
        assert_eq!(tiers[0], Kernel::Portable);
        for k in tiers {
            assert!(supported(k));
        }
    }

    #[test]
    fn force_overrides_and_restores() {
        force(Some(Kernel::Portable));
        assert_eq!(active(), Kernel::Portable);
        force(None);
        // Back to the env/CPU decision, whatever it is on this host.
        let _ = active();
    }

    #[test]
    fn kernel_names_are_stable() {
        assert_eq!(Kernel::Portable.name(), "portable");
        assert_eq!(Kernel::Avx2.name(), "avx2");
    }
}
