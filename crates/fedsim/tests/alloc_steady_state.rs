//! Allocation-count regression gate for the steady-state train step
//! and the evaluation sweep.
//!
//! A counting global allocator wraps the system allocator; after a
//! short warm-up, additional client train steps must perform **zero**
//! heap allocations: every transient buffer (batch gather, GEMM
//! outputs and pack panels, activation caches, loss temporaries,
//! optimizer state) is served by `ft_tensor::scratch`'s per-thread
//! pools and the layers' retained workspaces. A warm evaluation of a
//! client shard must allocate nothing either, and even a cold one may
//! not make a single allocation larger than
//! `ft_fedsim::eval::EVAL_BUDGET_BYTES` — the evaluation memory bound,
//! pinned as a count instead of an RSS reading — nor one as large as a
//! conv cell's `[C·k·k, R·H·W]` patch matrix for a chunk of `R`
//! samples: inference reads patches in place out of per-sample shifted
//! planes and never writes that matrix.
//!
//! Runs as a `harness = false` integration test: the default libtest
//! harness keeps service threads that allocate at unpredictable
//! moments, which would charge phantom allocations to the measured
//! window. With a plain `main` and the worker pool pinned to a single
//! thread, every allocation in the process is attributable to the
//! steps being measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use ft_data::ClientData;
use ft_fedsim::eval::{self, EVAL_BUDGET_BYTES};
use ft_model::{Cell, CellModel};
use rand::SeedableRng;

#[path = "common/test_shard.rs"]
mod test_shard;
use test_shard::random_test_shard;

/// Counts every allocator entry point and remembers the largest
/// request; the payload is forwarded to the system allocator untouched.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static LARGEST_ALLOC: AtomicUsize = AtomicUsize::new(0);

fn record(bytes: usize) {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    LARGEST_ALLOC.fetch_max(bytes, Ordering::Relaxed);
}

// SAFETY: pure pass-through to `System`; the counter itself never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds `GlobalAlloc`'s contract; forwarded to
    // `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    // SAFETY: same pass-through as `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    // SAFETY: same pass-through as `alloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: same pass-through as `alloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// Drives warm steps for one model/config and returns the allocation
/// count observed across `measured` post-warm-up steps.
fn allocations_during_warm_steps(
    model: &mut ft_model::CellModel,
    shard: &ft_data::ClientData,
    cfg: &ft_fedsim::trainer::LocalTrainConfig,
    warmup: usize,
    measured: usize,
) -> u64 {
    let mut stepper = ft_fedsim::trainer::LocalStepper::new(model, shard, cfg, 7);
    for _ in 0..warmup {
        stepper.step(model).expect("warm-up step trains");
    }
    let before = allocations();
    for _ in 0..measured {
        stepper.step(model).expect("measured step trains");
    }
    allocations() - before
}

#[expect(
    clippy::disallowed_methods,
    reason = "the pool size is a process setting, pinned before first use"
)]
fn main() {
    // Pin the worker pool to one thread *before* anything touches it:
    // with workers, their thread-local scratch pools would need their
    // own warm-up and task assignment is not deterministic enough to
    // guarantee it within a bounded warm-up.
    std::env::set_var("FT_TENSOR_THREADS", "1");
    // First, while this thread's scratch pool holds nothing an
    // evaluation could reuse.
    cold_conv_eval_never_allocates_past_the_budget();
    warm_train_step_performs_zero_heap_allocations();
    warm_eval_performs_zero_heap_allocations();
    println!("alloc_steady_state: ok (warm train steps and evals allocation-free, eval bounded)");
}

/// A `[3, 16, 16]`-input conv model whose 16→16 cell has 144·256
/// floats (147 KB) of patch-matrix columns per sample.
fn conv_model(rng: &mut rand::rngs::StdRng) -> CellModel {
    CellModel::conv(rng, 3, 16, 16, &[16, 16], 3, 10)
}

fn allocations_during_eval(model: &CellModel, shard: &ClientData) -> u64 {
    let before = allocations();
    eval::accuracy(model, shard).expect("the shard fits the model");
    allocations() - before
}

fn cold_conv_eval_never_allocates_past_the_budget() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let model = conv_model(&mut rng);
    let shard = random_test_shard(&mut rng, 64, model.input_width(), model.classes());
    // The whole shard's working set is four budgets; a chunk of
    // `rows_per_chunk` samples stays within one.
    assert!(64 * model.sample_working_set_bytes() > 4 * EVAL_BUDGET_BYTES);
    // The patch matrix a chunk of the widest conv cell would have (the
    // 16→16 cell's 144·R·256 floats), which the eval used to check out.
    let rows = eval::rows_per_chunk(&model);
    let patch_bytes = model
        .cells()
        .iter()
        .filter_map(|cell| match cell {
            Cell::Conv { conv, .. } => {
                let (h, w) = conv.spatial();
                let taps = conv.kernel() * conv.kernel();
                Some(conv.in_channels() * taps * rows * h * w * std::mem::size_of::<f32>())
            }
            _ => None,
        })
        .max()
        .expect("a conv model");
    LARGEST_ALLOC.store(0, Ordering::Relaxed);
    eval::accuracy(&model, &shard).expect("the shard fits the model");
    let largest = LARGEST_ALLOC.load(Ordering::Relaxed);
    assert!(
        largest <= EVAL_BUDGET_BYTES,
        "a cold 64-sample conv eval allocated {largest} bytes at once \
         (budget {EVAL_BUDGET_BYTES})"
    );
    assert!(
        largest < patch_bytes,
        "a cold conv eval allocated {largest} bytes at once, as much as a \
         {rows}-sample patch matrix ({patch_bytes} bytes)"
    );
}

fn warm_eval_performs_zero_heap_allocations() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(12);
    let dense = CellModel::dense(&mut rng, 64, &[32, 32], 10);
    let conv = conv_model(&mut rng);
    for (name, model, n) in [("dense", &dense, 45), ("conv", &conv, 45)] {
        let shard = random_test_shard(&mut rng, n, model.input_width(), model.classes());
        allocations_during_eval(model, &shard);
        let n = allocations_during_eval(model, &shard);
        assert_eq!(n, 0, "a warm {name} eval allocated {n} times (expected 0)");
    }
}

fn warm_train_step_performs_zero_heap_allocations() {
    let data = ft_data::DatasetConfig::femnist_like()
        .with_num_clients(2)
        .with_mean_samples(40)
        .generate();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);

    // Dense body — the shape every canned scenario's clients train.
    let mut dense =
        ft_model::CellModel::dense(&mut rng, data.input_dim(), &[32, 32], data.num_classes());
    let sgd_cfg = ft_fedsim::trainer::LocalTrainConfig {
        local_steps: 20,
        momentum: 0.9,
        ..Default::default()
    };
    let n = allocations_during_warm_steps(&mut dense, data.client(0), &sgd_cfg, 3, 5);
    assert_eq!(
        n, 0,
        "warm dense SGD train step allocated {n} times over 5 steps \
         (expected 0; run with a heap profiler or bisect recent \
         hot-path changes to find the offender)"
    );

    // FedProx path: the fused proximal cursor must be equally clean.
    let prox_cfg = ft_fedsim::trainer::LocalTrainConfig {
        local_steps: 20,
        prox_mu: Some(0.1),
        ..Default::default()
    };
    let n = allocations_during_warm_steps(&mut dense, data.client(1), &prox_cfg, 3, 5);
    assert_eq!(
        n, 0,
        "warm FedProx train step allocated {n} times over 5 steps (expected 0)"
    );

    // Conv body — shifted planes, forward and backward, through
    // scratch workspaces (the `large-population` scenario's workload
    // shape).
    let conv_data = ft_data::DatasetConfig::openimage_like()
        .with_num_clients(1)
        .with_mean_samples(30)
        .generate();
    let mut conv =
        ft_model::CellModel::conv(&mut rng, 1, 8, 8, &[4, 4], 3, conv_data.num_classes());
    let n = allocations_during_warm_steps(&mut conv, conv_data.client(0), &sgd_cfg, 3, 5);
    assert_eq!(
        n, 0,
        "warm conv train step allocated {n} times over 5 steps (expected 0)"
    );
}
