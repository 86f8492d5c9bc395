//! What the benchmark reads from the host: the ceilings that give
//! "fast" a denominator, the child's memory high-water mark, and the
//! identification block printed with every result.

use std::hint::black_box;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::spec::PINNED_ENV;

/// Identifies a run: host, pinned settings, kernel selection, inputs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Header {
    pub workload: String,
    pub seed: u64,
    pub rounds: usize,
    pub passes: usize,
    pub commit: String,
    pub nproc: usize,
    pub client_threads: String,
    pub tensor_threads: String,
    pub simd: String,
    pub tune_mc: usize,
    pub tune_kc: usize,
    pub tune_source: String,
}

impl Header {
    /// Built in the child, where the kernels are selected.
    pub fn new(workload: &str, seed: u64, rounds: usize, passes: usize, commit: &str) -> Self {
        let tune = ft_tensor::tune::active();
        Header {
            workload: workload.to_owned(),
            seed,
            rounds,
            passes,
            commit: commit.to_owned(),
            nproc: nproc(),
            client_threads: std::env::var(PINNED_ENV[0].0).unwrap_or_default(),
            tensor_threads: std::env::var(PINNED_ENV[1].0).unwrap_or_default(),
            simd: ft_tensor::simd::active().name().to_owned(),
            tune_mc: tune.mc,
            tune_kc: tune.kc,
            tune_source: tune.source.name().to_owned(),
        }
    }

    pub fn line(&self) -> String {
        format!(
            "workload {} seed {} rounds {} passes {} commit {} nproc {} client_threads {} tensor_threads {} simd {} tune mc={} kc={} ({})",
            self.workload,
            self.seed,
            self.rounds,
            self.passes,
            self.commit,
            self.nproc,
            self.client_threads,
            self.tensor_threads,
            self.simd,
            self.tune_mc,
            self.tune_kc,
            self.tune_source
        )
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The commit of the working tree, or `unknown` outside a git checkout.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Every `FT_*` variable must be one of the pinned ones at its pinned
/// value: any other knob reaching the child could tilt a comparison.
pub fn check_env() -> Result<(), String> {
    for (key, value) in std::env::vars() {
        if !key.starts_with("FT_") {
            continue;
        }
        match PINNED_ENV.iter().find(|(k, _)| *k == key) {
            Some((_, pinned)) if *pinned == value => {}
            Some((_, pinned)) => {
                return Err(format!("{key}={value} in the child, pinned to {pinned}"))
            }
            None => return Err(format!("{key}={value} survived into the child; unset it")),
        }
    }
    for (key, _) in PINNED_ENV {
        if std::env::var(key).is_err() {
            return Err(format!("{key} is not set in the child"));
        }
    }
    Ok(())
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

const LANES: usize = 8;
const CHAINS: usize = 12;

/// `CHAINS` independent multiply-then-add chains over `LANES`-wide
/// vectors, unfused like the GEMM kernels (the determinism contract
/// forbids FMA contraction), so the ceiling is the one they face.
#[inline(always)]
fn mul_add_chains(iters: usize) -> f32 {
    let a = black_box([1.000_001f32; LANES]);
    let b = black_box([1e-7f32; LANES]);
    let mut acc = [[1.0f32; LANES]; CHAINS];
    for _ in 0..iters {
        for chain in &mut acc {
            for l in 0..LANES {
                chain[l] = chain[l] * a[l] + b[l];
            }
        }
    }
    acc.iter().flatten().sum()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn mul_add_chains_avx2(iters: usize) -> f32 {
    mul_add_chains(iters)
}

fn mul_add_once(iters: usize) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just detected on this CPU.
        return unsafe { mul_add_chains_avx2(iters) };
    }
    mul_add_chains(iters)
}

/// Measured multiply+add ceiling of the host in GFLOP/s: the best of a
/// few timed passes, all `nproc` threads running at once.
pub fn peak_gflops() -> f64 {
    const ITERS: usize = 1_000_000;
    let threads = nproc();
    let flop = (2 * LANES * CHAINS * ITERS * threads) as f64;
    let mut best = 0.0f64;
    for _ in 0..20 {
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| black_box(mul_add_once(black_box(ITERS))));
            }
        });
        best = best.max(flop / start.elapsed().as_secs_f64() / 1e9);
    }
    best
}

/// Measured copy bandwidth of the host in GB/s (bytes read plus bytes
/// written), over buffers far larger than the last-level cache.
pub fn mem_gbps() -> f64 {
    const LEN: usize = 16 << 20;
    let src = vec![1.0f32; LEN];
    let mut dst = vec![0.0f32; LEN];
    let mut best = 0.0f64;
    for _ in 0..5 {
        let start = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        best = best.max((2 * LEN * 4) as f64 / start.elapsed().as_secs_f64() / 1e9);
    }
    best
}
