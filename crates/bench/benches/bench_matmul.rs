//! `bench_matmul`: the tiled GEMM core versus the old scalar kernels,
//! plus the round-level client-parallelism measurement.
//!
//! Two outputs:
//!
//! 1. A criterion group (`bench_matmul/...`) timing all three tiled
//!    variants plus the pre-rewrite scalar kernels at matched shapes.
//! 2. A JSON artifact, `bench_results/matmul.json`, recording
//!    seconds-per-iteration and the tiled-over-scalar speedup per
//!    size — plus a `simd` leg per size (the runtime-dispatched
//!    intrinsics kernel versus the portable micro-kernel, forced via
//!    `ft_tensor::simd::force`), a top-level `kernel` object naming
//!    the dispatched variant and the autotuned MC/KC tile config, and
//!    a `round` entry timing one simulated round of parallel client
//!    local training (the `ft_fedsim::exec` engine at full width)
//!    against the serial client loop, so the bench regression gate
//!    covers round wall-clock too, and an ungated `nested` leg: the
//!    three GEMMs of one `fedtrans-conv` layer issued from the main
//!    thread (where they may fan out) versus from inside
//!    `exec::par_map_indexed` lanes (where each must run as one
//!    panel), in GFLOP/s summed over the lanes.
//!
//! `FT_BENCH_QUICK=1` trims sizes and repetitions to CI scale.
//! `FT_TENSOR_THREADS` controls the worker pool as usual;
//! `FT_TENSOR_SIMD=0` collapses the `simd` leg to `null` (there is
//! nothing to A/B when dispatch is pinned to portable).

use std::time::Instant;

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use ft_tensor::Tensor;
use rand::SeedableRng;

/// The pre-rewrite `matmul` kernel: scalar ikj loops with the
/// (NaN-masking) zero-skip fast path. Kept verbatim as the speedup
/// baseline the acceptance numbers are measured against.
fn scalar_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows().unwrap(), a.cols().unwrap());
    let n = b.cols().unwrap();
    let (a, b) = (a.data(), b.data());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (p, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    Tensor::from_vec(out, &[m, n]).unwrap()
}

/// The pre-rewrite `matmul_t` kernel: per-element dot products, which
/// the compiler cannot vectorize (f32 sums must not be reassociated).
fn scalar_matmul_t(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows().unwrap(), a.cols().unwrap());
    let n = b.rows().unwrap();
    let (a, b) = (a.data(), b.data());
    let mut out = vec![0.0f32; m * n];
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
    Tensor::from_vec(out, &[m, n]).unwrap()
}

fn quick() -> bool {
    std::env::var("FT_BENCH_QUICK").is_ok_and(|v| v != "0")
}

fn sizes() -> Vec<usize> {
    if quick() {
        vec![64, 256]
    } else {
        vec![64, 128, 256, 384]
    }
}

fn operands(n: usize) -> (Tensor, Tensor) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
    let a = ft_tensor::uniform(&mut rng, &[n, n], -1.0, 1.0);
    let b = ft_tensor::uniform(&mut rng, &[n, n], -1.0, 1.0);
    (a, b)
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("bench_matmul");
    if quick() {
        group.sample_size(3);
    }
    for n in sizes() {
        let (a, b) = operands(n);
        group.bench_with_input(BenchmarkId::new("tiled", n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul(&b).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("tiled_t_matmul", n), &n, |bench, _| {
            bench.iter(|| black_box(a.t_matmul(&b).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("tiled_matmul_t", n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul_t(&b).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("tiled_portable", n), &n, |bench, _| {
            ft_tensor::simd::force(Some(ft_tensor::simd::Kernel::Portable));
            bench.iter(|| black_box(a.matmul(&b).unwrap()));
            ft_tensor::simd::force(None);
        });
        group.bench_with_input(BenchmarkId::new("scalar", n), &n, |bench, _| {
            bench.iter(|| black_box(scalar_matmul(&a, &b)));
        });
        group.bench_with_input(BenchmarkId::new("scalar_matmul_t", n), &n, |bench, _| {
            bench.iter(|| black_box(scalar_matmul_t(&a, &b)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_matmul);

/// Median seconds per call over `reps` timed calls (after one warm-up).
fn time_median<F: FnMut()>(mut f: F, reps: usize) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Times the intrinsics-vs-fallback A/B leg for one operand pair: the
/// same tiled `matmul` under the portable micro-kernel (forced via
/// [`ft_tensor::simd::force`]) and under the runtime-dispatched
/// intrinsics kernel. Samples alternate A/B/A/B so frequency ramps and
/// noisy co-tenants hit both legs equally. Returns `null` when
/// dispatch already resolves to portable (no intrinsics on this host,
/// or `FT_TENSOR_SIMD=0`) — there is nothing to compare.
fn simd_leg(a: &Tensor, b: &Tensor, reps: usize) -> serde_json::Value {
    use ft_tensor::simd::{self, Kernel};
    if simd::active() == Kernel::Portable {
        return serde_json::json!(null);
    }
    // Warm both paths before sampling.
    simd::force(Some(Kernel::Portable));
    drop(black_box(a.matmul(b).unwrap()));
    simd::force(None);
    drop(black_box(a.matmul(b).unwrap()));
    let mut fallback = Vec::with_capacity(reps);
    let mut vectored = Vec::with_capacity(reps);
    for _ in 0..reps {
        simd::force(Some(Kernel::Portable));
        let start = Instant::now();
        drop(black_box(a.matmul(b).unwrap()));
        fallback.push(start.elapsed().as_secs_f64());
        simd::force(None);
        let start = Instant::now();
        drop(black_box(a.matmul(b).unwrap()));
        vectored.push(start.elapsed().as_secs_f64());
    }
    fallback.sort_by(f64::total_cmp);
    vectored.sort_by(f64::total_cmp);
    let (fallback_s, simd_s) = (fallback[fallback.len() / 2], vectored[vectored.len() / 2]);
    serde_json::json!({
        "fallback_s": fallback_s,
        "simd_s": simd_s,
        "speedup": fallback_s / simd_s,
    })
}

/// Times one round of client local training — the `large-population`
/// fan-out shape (10 participants per round) at bench-sized models —
/// through the serial client loop (`threads = 1`, which leaves the
/// pool to the GEMM kernels) and through the client engine at the
/// pool's full width. The gated metric is their ratio: like the GEMM
/// speedups it is normalized against the same machine in the same run,
/// so it is comparable across hosts of one core count.
fn bench_round(reps: usize) -> serde_json::Value {
    use ft_fedsim::coordinator::RoundOptions;
    use ft_fedsim::trainer::{train_round, LocalTrainConfig};

    let clients = if quick() { 8 } else { 10 };
    let data = ft_data::DatasetConfig::femnist_like()
        .with_num_clients(clients)
        .with_mean_samples(40)
        .generate();
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    let model =
        ft_model::CellModel::dense(&mut rng, data.input_dim(), &[96, 96], data.num_classes());
    let cfg = LocalTrainConfig {
        local_steps: if quick() { 5 } else { 10 },
        ..Default::default()
    };
    let assignments = || -> Vec<(usize, ft_model::CellModel)> {
        (0..clients).map(|c| (c, model.clone())).collect()
    };
    let threads = ft_tensor::pool::max_parallelism();
    let serial_s = time_median(
        || {
            let opts = RoundOptions {
                threads: Some(1),
                ..Default::default()
            };
            train_round(assignments(), data.clients(), &cfg, 77, &opts).expect("round trains");
        },
        reps,
    );
    let parallel_s = time_median(
        || {
            let opts = RoundOptions {
                threads: Some(threads),
                ..Default::default()
            };
            train_round(assignments(), data.clients(), &cfg, 77, &opts).expect("round trains");
        },
        reps,
    );
    println!(
        "round ({clients} clients, {threads} threads): serial {serial_s:.2e}s \
         parallel {parallel_s:.2e}s ({:.2}x)",
        serial_s / parallel_s
    );
    serde_json::json!({
        "clients": clients,
        "threads": threads,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s,
    })
}

/// The `nested` leg: one `fedtrans-conv` layer's GEMMs (16 → 16
/// channels, 3×3, batch 10 of 16×16) from the main thread and from
/// `lanes` concurrent `exec::par_map_indexed` lanes — the call context
/// of every client's training and evaluation. Each timed call runs the
/// product `BURST` times (a lane's local steps issue them back to back;
/// one product would mostly time the pool's wake-up). A developer
/// number, not gated: lanes that each deliver the main-thread
/// single-panel rate mean a nested GEMM neither re-packs its operands
/// nor fights the other lanes.
fn nested_leg(reps: usize) -> serde_json::Value {
    const BURST: usize = 16;
    let (oc, ckk, cols) = (16usize, 144usize, 2560usize);
    let mut rng = rand::rngs::StdRng::seed_from_u64(18);
    let w = ft_tensor::uniform(&mut rng, &[oc, ckk], -1.0, 1.0);
    let x = ft_tensor::uniform(&mut rng, &[ckk, cols], -1.0, 1.0);
    let dy = ft_tensor::uniform(&mut rng, &[oc, cols], -1.0, 1.0);
    let lanes = ft_tensor::pool::max_parallelism();
    let flop = (BURST * 2 * oc * ckk * cols) as f64;
    let products: [(&str, &(dyn Fn() + Sync)); 3] = [
        ("matmul", &|| drop(black_box(w.matmul(&x).unwrap()))),
        ("matmul_t", &|| drop(black_box(dy.matmul_t(&x).unwrap()))),
        ("t_matmul", &|| drop(black_box(w.t_matmul(&dy).unwrap()))),
    ];
    let mut legs = vec![("lanes".to_owned(), serde_json::json!(lanes))];
    for (name, product) in products {
        let burst = || (0..BURST).for_each(|_| product());
        let main_s = time_median(burst, reps);
        let nested_s = time_median(
            || drop(ft_fedsim::exec::par_map_indexed(lanes, lanes, |_| burst())),
            reps,
        );
        let (main_gflops, nested_gflops) =
            (flop / main_s / 1e9, lanes as f64 * flop / nested_s / 1e9);
        println!(
            "conv {name} {oc}x{ckk}x{cols}: main thread {main_gflops:.1} GFLOP/s, \
             {lanes} nested lanes {nested_gflops:.1} GFLOP/s in total"
        );
        legs.push((
            name.to_owned(),
            serde_json::json!({
                "main_s": main_s,
                "main_gflops": main_gflops,
                "nested_s": nested_s,
                "nested_total_gflops": nested_gflops,
            }),
        ));
    }
    serde_json::Value::Object(legs)
}

/// Emits `bench_results/matmul.json`: per-size scalar vs tiled timings
/// for `matmul` and `matmul_t`, with speedups, so CI keeps a perf
/// trajectory across PRs.
fn emit_json() {
    // Enough samples that the median shrugs off a descheduling blip —
    // the CI bench gate reads these numbers, so stability matters more
    // than a few extra seconds.
    let reps = if quick() { 7 } else { 9 };
    let mut results = Vec::new();
    for n in sizes() {
        let (a, b) = operands(n);
        let scalar_s = time_median(|| drop(black_box(scalar_matmul(&a, &b))), reps);
        let tiled_s = time_median(|| drop(black_box(a.matmul(&b).unwrap())), reps);
        let scalar_t_s = time_median(|| drop(black_box(scalar_matmul_t(&a, &b))), reps);
        let tiled_t_s = time_median(|| drop(black_box(a.matmul_t(&b).unwrap())), reps);
        let simd = simd_leg(&a, &b, reps);
        if let Some(s) = simd.get("speedup").and_then(serde::Value::as_f64) {
            println!("matmul {n}x{n}x{n} simd-vs-fallback: {s:.2}x");
        }
        let gflops = |s: f64| 2.0 * (n * n * n) as f64 / s / 1e9;
        results.push(serde_json::json!({
            "size": n,
            "simd": simd,
            "matmul": {
                "scalar_s": scalar_s,
                "tiled_s": tiled_s,
                "speedup": scalar_s / tiled_s,
                "tiled_gflops": gflops(tiled_s),
            },
            "matmul_t": {
                "scalar_s": scalar_t_s,
                "tiled_s": tiled_t_s,
                "speedup": scalar_t_s / tiled_t_s,
                "tiled_gflops": gflops(tiled_t_s),
            },
        }));
        println!(
            "matmul {n}x{n}x{n}: scalar {scalar_s:.2e}s tiled {tiled_s:.2e}s \
             ({:.2}x); matmul_t scalar {scalar_t_s:.2e}s tiled {tiled_t_s:.2e}s ({:.2}x)",
            scalar_s / tiled_s,
            scalar_t_s / tiled_t_s,
        );
    }
    let tune = ft_tensor::tune::active();
    let report = serde_json::json!({
        "bench": "bench_matmul",
        "threads": ft_tensor::pool::max_parallelism(),
        "quick": quick(),
        // Which micro-kernel dispatch picked and the autotuned tile
        // config it ran with — so a perf trace in CI is attributable
        // to the exact kernel configuration that produced it.
        "kernel": {
            "variant": ft_tensor::simd::active().name(),
            "mc": tune.mc,
            "kc": tune.kc,
            "tune_source": tune.source.name(),
        },
        "results": results,
        "round": bench_round(reps),
        "nested": nested_leg(reps),
    });
    // `cargo bench` runs with the package as cwd; the shared artifact
    // helper anchors the path at the workspace root so local runs and
    // CI agree on it.
    let path = ft_fedsim::report::dump_json("matmul", &report).expect("writing bench artifact");
    println!("wrote {}", path.display());
}

fn main() {
    benches();
    emit_json();
}
