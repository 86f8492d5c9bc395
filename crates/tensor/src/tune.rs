//! One-shot startup autotune for the GEMM cache-block sizes.
//!
//! The micro-kernel's register tile (`MR × NR`) is fixed, but the two
//! outer block sizes are host-dependent: `KC` bounds the `KC × NR` B
//! slab that must stay L1-resident across every row tile of a panel,
//! and `MC` bounds the packed A block that must stay L2-resident
//! across every column window of a k-block. [`config`] picks both once
//! per process from the host cache hierarchy (Linux sysfs), from an
//! explicit `FT_TENSOR_TUNE=mc,kc` override, or from conservative
//! defaults when neither is available.
//!
//! # Digest neutrality
//!
//! Block sizes are *digest-neutral by construction*: blocking decides
//! which `(i, j, k-range)` sub-problems run when, never the arithmetic
//! inside one. Every output element still accumulates its dot product
//! in ascending-`k` order with a single `f32` accumulator — a k-block
//! boundary merely round-trips that accumulator through an exact `f32`
//! store in `out` — so any `(mc, kc)` choice produces bit-identical
//! results, which `proptest_simd` pins by sweeping tile sizes. That is
//! what makes a *measured* (host-varying) tune safe in a bit-exact
//! system: the measurement picks speed, never values.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Hard upper bound on `kc`: keeps the stack-allocated B slab
/// (`KC_MAX × NR × 4` bytes = 16 KiB) a compile-time constant, which
/// is what lets LLVM hoist the micro-kernel's bounds checks (PR 5
/// measured 7x from exactly this property).
pub const KC_MAX: usize = 512;
/// Lower bound on `kc`: below this the per-block packing overhead
/// dominates the k-loop it feeds.
pub const KC_MIN: usize = 32;
/// Bounds on `mc` (rows of packed A per L2 block).
const MC_MIN: usize = 32;
const MC_MAX: usize = 4096;

/// Where the active tile configuration came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TuneSource {
    /// Explicit `FT_TENSOR_TUNE=mc,kc` override.
    Env,
    /// Derived from the host cache sizes reported by sysfs.
    CacheProbe,
    /// Fallback constants (non-Linux hosts, unreadable sysfs).
    Default,
}

impl TuneSource {
    /// Stable lowercase name used in bench emitters and logs.
    pub fn name(self) -> &'static str {
        match self {
            TuneSource::Env => "env",
            TuneSource::CacheProbe => "cache-probe",
            TuneSource::Default => "default",
        }
    }
}

/// The autotuned GEMM block sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TuneConfig {
    /// Rows of packed A per L2-resident block (multiple of `MR`).
    pub mc: usize,
    /// Depth of one k-block; the B slab is `kc × NR` (multiple of 8,
    /// at most [`KC_MAX`]).
    pub kc: usize,
    /// Provenance, surfaced in bench emitters so regressions stay
    /// attributable when the tune differs across hosts.
    pub source: TuneSource,
}

/// Tile sizes used when no cache information is available — the
/// pre-autotune constants (`KC = 128` kept an 8 KiB slab safely inside
/// any 32 KiB L1d alongside the A and C streams).
const DEFAULT: TuneConfig = TuneConfig {
    mc: 256,
    kc: 128,
    source: TuneSource::Default,
};

/// Derives `kc` from the L1 data-cache size: the B slab gets about an
/// eighth of L1d (`kc × NR × 4` bytes), leaving the rest for the A
/// micro-panel stream, the C tile, and whatever else the core touches.
/// 32 KiB → 128 (the historical default); 48 KiB → 192.
fn kc_for_l1d(l1d_bytes: usize) -> usize {
    let raw = (l1d_bytes / 8) / (crate::matmul::NR * 4);
    (raw / 8 * 8).clamp(KC_MIN, KC_MAX)
}

/// Derives `mc` from the L2 size and the chosen `kc`: the packed A
/// block (`mc × kc × 4` bytes) gets about a quarter of L2, leaving
/// room for the B panel traffic and the output. 1 MiB L2, kc = 128 →
/// mc = 512.
fn mc_for_l2(l2_bytes: usize, kc: usize) -> usize {
    let raw = (l2_bytes / 4) / (kc * 4);
    (raw / crate::matmul::MR * crate::matmul::MR).clamp(MC_MIN, MC_MAX)
}

/// Parses a sysfs cache size string like `"48K"` or `"2048K"` into
/// bytes.
fn parse_cache_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1024),
        b'M' => (&s[..s.len() - 1], 1024 * 1024),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok().map(|v| v * mult)
}

/// Reads `(l1d_bytes, l2_bytes)` for cpu0 from sysfs. Any missing or
/// malformed entry yields `None` for that level.
fn probe_caches() -> (Option<usize>, Option<usize>) {
    let (mut l1d, mut l2) = (None, None);
    let base = "/sys/devices/system/cpu/cpu0/cache";
    for idx in 0..8 {
        let dir = format!("{base}/index{idx}");
        let read = |leaf: &str| std::fs::read_to_string(format!("{dir}/{leaf}")).ok();
        let (Some(level), Some(ty)) = (read("level"), read("type")) else {
            continue;
        };
        let size = read("size").and_then(|s| parse_cache_size(&s));
        match (level.trim(), ty.trim()) {
            ("1", "Data") => l1d = size,
            ("2", "Unified") => l2 = size,
            _ => {}
        }
    }
    (l1d, l2)
}

/// Parses the `FT_TENSOR_TUNE=mc,kc` override. Values are clamped to
/// the same bounds the probe respects — in particular `kc` can never
/// exceed [`KC_MAX`], because the B slab's stack extent is fixed at
/// compile time. `None` is not a recognised form ([`config`] then
/// probes the caches; `ft-run` refuses to start).
pub fn parse_env(spec: &str) -> Option<TuneConfig> {
    let mut it = spec.split(',');
    let mc = it.next()?.trim().parse::<usize>().ok()?;
    let kc = it.next()?.trim().parse::<usize>().ok()?;
    if it.next().is_some() {
        return None;
    }
    Some(TuneConfig {
        mc: (mc / crate::matmul::MR * crate::matmul::MR).clamp(MC_MIN, MC_MAX),
        kc: (kc / 8 * 8).clamp(KC_MIN, KC_MAX),
        source: TuneSource::Env,
    })
}

/// Pure decision behind [`config`], separated for unit tests.
fn decide(env: Option<&str>, l1d: Option<usize>, l2: Option<usize>) -> TuneConfig {
    if let Some(cfg) = env.and_then(parse_env) {
        return cfg;
    }
    match (l1d, l2) {
        (Some(l1d), l2) => {
            let kc = kc_for_l1d(l1d);
            TuneConfig {
                mc: mc_for_l2(l2.unwrap_or(1024 * 1024), kc),
                kc,
                source: TuneSource::CacheProbe,
            }
        }
        _ => DEFAULT,
    }
}

/// The process-wide tile configuration, computed once on first use
/// (reads `FT_TENSOR_TUNE`, then sysfs, then falls back to
/// [`TuneSource::Default`] constants).
pub fn config() -> TuneConfig {
    static CONFIG: OnceLock<TuneConfig> = OnceLock::new();
    *CONFIG.get_or_init(|| {
        let env = std::env::var("FT_TENSOR_TUNE").ok();
        let (l1d, l2) = probe_caches();
        decide(env.as_deref(), l1d, l2)
    })
}

/// Test/bench override slots: 0 = unforced.
static FORCED_MC: AtomicUsize = AtomicUsize::new(0);
static FORCED_KC: AtomicUsize = AtomicUsize::new(0);

/// Overrides the tile configuration for subsequent [`active`] calls
/// (`None` restores the autotuned [`config`]). A test/bench hook in
/// the spirit of [`crate::simd::force`]: the equivalence proptests use
/// it to sweep `(mc, kc)` and pin that every choice produces
/// bit-identical GEMM results. Values are clamped exactly like the
/// `FT_TENSOR_TUNE` override — `kc` can never exceed [`KC_MAX`].
pub fn force(cfg: Option<(usize, usize)>) {
    match cfg {
        None => {
            FORCED_MC.store(0, Ordering::SeqCst);
            FORCED_KC.store(0, Ordering::SeqCst);
        }
        Some((mc, kc)) => {
            let mc = (mc / crate::matmul::MR * crate::matmul::MR).clamp(MC_MIN, MC_MAX);
            let kc = (kc / 8 * 8).clamp(KC_MIN, KC_MAX);
            FORCED_MC.store(mc, Ordering::SeqCst);
            FORCED_KC.store(kc, Ordering::SeqCst);
        }
    }
}

/// The tile configuration the GEMM core uses for this call: the
/// [`force`] override when set, otherwise the cached [`config`].
pub fn active() -> TuneConfig {
    let (mc, kc) = (
        FORCED_MC.load(Ordering::SeqCst),
        FORCED_KC.load(Ordering::SeqCst),
    );
    if mc != 0 && kc != 0 {
        TuneConfig {
            mc,
            kc,
            source: TuneSource::Env,
        }
    } else {
        config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_cache_size_handles_sysfs_forms() {
        assert_eq!(parse_cache_size("48K\n"), Some(48 * 1024));
        assert_eq!(parse_cache_size("2048K"), Some(2048 * 1024));
        assert_eq!(parse_cache_size("4M"), Some(4 * 1024 * 1024));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("banana"), None);
        assert_eq!(parse_cache_size(""), None);
    }

    #[test]
    fn kc_matches_historical_default_on_32k_l1() {
        assert_eq!(kc_for_l1d(32 * 1024), 128);
        assert_eq!(kc_for_l1d(48 * 1024), 192);
        // Tiny and huge caches hit the clamps.
        assert_eq!(kc_for_l1d(1024), KC_MIN);
        assert_eq!(kc_for_l1d(1 << 24), KC_MAX);
    }

    #[test]
    fn mc_scales_with_l2_and_divides_by_kc() {
        assert_eq!(mc_for_l2(1024 * 1024, 128), 512);
        assert_eq!(mc_for_l2(2048 * 1024, 192), 680);
        assert!(mc_for_l2(1 << 30, 32) <= 4096);
        assert!(mc_for_l2(4096, 512) >= 32);
    }

    #[test]
    fn env_override_wins_and_is_clamped() {
        let cfg = decide(Some("512,256"), Some(32 * 1024), Some(1 << 20));
        assert_eq!((cfg.mc, cfg.kc, cfg.source), (512, 256, TuneSource::Env));
        // kc can never exceed the compile-time slab bound.
        let cfg = decide(Some("100000,100000"), None, None);
        assert_eq!((cfg.mc, cfg.kc), (4096, KC_MAX));
        // Non-multiples round down to the tile grid.
        let cfg = decide(Some("66,67"), None, None);
        assert_eq!((cfg.mc, cfg.kc), (64, 64));
    }

    #[test]
    fn malformed_env_falls_through_to_probe_or_default() {
        let cfg = decide(Some("banana"), Some(32 * 1024), Some(1 << 20));
        assert_eq!(cfg.source, TuneSource::CacheProbe);
        assert_eq!((cfg.mc, cfg.kc), (512, 128));
        let cfg = decide(Some("1,2,3"), None, None);
        assert_eq!(cfg, DEFAULT);
    }

    #[test]
    fn no_cache_info_yields_the_default() {
        let cfg = decide(None, None, None);
        assert_eq!(cfg, DEFAULT);
        assert_eq!(cfg.source.name(), "default");
    }

    #[test]
    fn probe_missing_l2_assumes_a_megabyte() {
        let cfg = decide(None, Some(32 * 1024), None);
        assert_eq!((cfg.mc, cfg.kc), (512, 128));
        assert_eq!(cfg.source, TuneSource::CacheProbe);
    }

    #[test]
    fn force_overrides_clamped_then_restores() {
        force(Some((100, 100000)));
        let cfg = active();
        assert_eq!((cfg.mc, cfg.kc), (100, KC_MAX));
        force(None);
        assert_eq!(active(), config());
    }

    #[test]
    fn process_config_is_stable_and_in_bounds() {
        let a = config();
        let b = config();
        assert_eq!(a, b);
        assert!(a.kc >= KC_MIN && a.kc <= KC_MAX && a.kc.is_multiple_of(8));
        assert!(a.mc >= MC_MIN && a.mc <= MC_MAX && a.mc.is_multiple_of(crate::matmul::MR));
    }
}
