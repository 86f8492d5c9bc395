//! `bench_matmul`: criterion timings of the tiled GEMM core — an
//! ungated developer tool (performance is gated by `benchmark/`).
//!
//! Two groups:
//!
//! 1. `bench_matmul/...`: the three tiled variants at square sizes,
//!    plus `tiled_portable` — the same `matmul` pinned to the portable
//!    micro-kernel via `ft_tensor::simd::force`, so the
//!    intrinsics-vs-fallback gap reads off two adjacent rows.
//! 2. `nested/...`: the three GEMMs of one `fedtrans-conv` layer issued
//!    from the main thread (where they may fan out) versus from inside
//!    `exec::par_map_indexed` lanes (where each must run as one panel).
//!
//! `FT_BENCH_QUICK=1` trims sizes and repetitions to CI scale.
//! `FT_TENSOR_THREADS` controls the worker pool as usual.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ft_tensor::Tensor;
use rand::SeedableRng;

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
    }
    group.finish();
}

/// One `fedtrans-conv` layer's GEMMs (16 → 16 channels, 3×3, batch 10
/// of 16×16) from the main thread and from `lanes` concurrent
/// `exec::par_map_indexed` lanes — the call context of every client's
/// training and evaluation. Each iteration runs the product `BURST`
/// times (a lane's local steps issue them back to back; one product
/// would mostly time the pool's wake-up). The `lanes` row does `lanes`
/// times the work of the `main` row: equal times mean a nested GEMM
/// neither re-packs its operands nor fights the other lanes.
fn bench_nested(c: &mut Criterion) {
    const BURST: usize = 16;
    let (oc, ckk, cols) = (16usize, 144usize, 2560usize);
    let mut rng = rand::rngs::StdRng::seed_from_u64(18);
    let w = ft_tensor::uniform(&mut rng, &[oc, ckk], -1.0, 1.0);
    let x = ft_tensor::uniform(&mut rng, &[ckk, cols], -1.0, 1.0);
    let dy = ft_tensor::uniform(&mut rng, &[oc, cols], -1.0, 1.0);
    let lanes = ft_tensor::pool::max_parallelism();
    let products: [(&str, &(dyn Fn() + Sync)); 3] = [
        ("matmul", &|| drop(black_box(w.matmul(&x).unwrap()))),
        ("matmul_t", &|| drop(black_box(dy.matmul_t(&x).unwrap()))),
        ("t_matmul", &|| drop(black_box(w.t_matmul(&dy).unwrap()))),
    ];
    let mut group = c.benchmark_group("nested");
    if quick() {
        group.sample_size(3);
    }
    for (name, product) in products {
        let burst = || (0..BURST).for_each(|_| product());
        group.bench_function(&format!("{name}_{oc}x{ckk}x{cols}/main"), |bench| {
            bench.iter(burst);
        });
        group.bench_function(
            &format!("{name}_{oc}x{ckk}x{cols}/{lanes}_lanes"),
            |bench| {
                bench.iter(|| ft_fedsim::exec::par_map_indexed(lanes, lanes, |_| burst()));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_matmul, bench_nested);
criterion_main!(benches);
