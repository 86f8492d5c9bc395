//! Allocations of the checkpoint's two writing stages on a small
//! `fedtrans-dense`-shaped run, counted by a global allocator on the
//! calling thread and pinned.
//!
//! `checkpoint()` builds each block once and moves it into the
//! envelope; `to_string` writes the tree where it lies, so its only
//! allocations are the output `String` doubling. A copy of the tree
//! shows here as one allocation per node (every base64 string among
//! them) and as bytes on the order of the checkpoint's length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ft_harness::Scenario;

struct CountingAlloc;

thread_local! {
    /// `(allocations, bytes)` requested by this thread.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn record(bytes: usize) {
    // `try_with`: a thread being torn down allocates after its locals
    // are gone.
    let _ = COUNTS.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: pure pass-through to `System`; the counter never allocates.
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

/// `f`'s result and the `(allocations, bytes)` it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let before = COUNTS.with(Cell::get);
    let out = f();
    let after = COUNTS.with(Cell::get);
    (out, (after.0 - before.0, after.1 - before.1))
}

/// `fedtrans-dense` at a tenth of its fleet and a sixth of its rounds,
/// with the suite growing early.
const SCENARIO: &str = r#"{
  "name": "fedtrans-dense-small",
  "description": "fedtrans-dense's shape at a small scale",
  "dataset": {
    "name": "femnist-like", "num_clients": 40, "num_classes": 16,
    "input": {"Flat": {"dim": 96}}, "dirichlet_alpha": 0.5, "mean_samples": 30,
    "sample_spread": 0.5, "class_sep": 2.2, "noise_std": 0.8, "shift_std": 0.35,
    "max_difficulty": 0.7, "manifold_curvature": 2.4, "test_fraction": 0.25, "seed": 41
  },
  "devices": {"base_capacity_macs": 8000, "disparity": 30, "tiers": [], "seed": 7},
  "algorithm": {
    "FedTrans": {"max_models": 4, "transform_cooldown": 2, "gamma": 2, "delta": 2, "beta": 10}
  },
  "faults": {"dropout_prob": 0, "straggler_prob": 0, "straggler_slowdown": 1},
  "clients_per_round": 8, "rounds": 8, "quick_rounds": 8, "eval_every": 0,
  "local": {"local_steps": 4, "batch_size": 10, "lr": 0.05, "momentum": 0, "prox_mu": null},
  "timing": {"rendezvous_deadline_s": 5, "heartbeat_interval_s": 30, "heartbeat_deadline_s": 120},
  "sparse": false, "eval_clients": null, "attack": null, "availability": null, "drift": null,
  "seed": 201
}"#;

#[test]
fn checkpoint_and_to_string_allocate_what_is_pinned() {
    let scenario: Scenario = serde_json::from_str(SCENARIO).unwrap();
    let mut driver = scenario.build().unwrap();
    driver.run_to(scenario.rounds).unwrap();

    let (state, checkpoint) = counted(|| driver.checkpoint());
    let (text, to_string) = counted(|| serde_json::to_string(&state).unwrap());
    let models = state.get("method").and_then(|m| m.get("models"));
    let models = models.and_then(|m| m.as_array()).map_or(0, <[_]>::len);
    let summary = format!(
        "{} bytes, {models} models; checkpoint {checkpoint:?}, to_string {to_string:?}",
        text.len()
    );
    assert!(models > 1, "the suite must have grown: {summary}");
    // The output `String` grows from empty, at least doubling each time:
    // one allocation a step, under four times the text in all.
    let doublings = u64::from(usize::BITS - text.len().leading_zeros()) + 1;
    assert!(to_string.0 <= doublings, "{summary}");
    assert!(to_string.1 < 4 * text.len() as u64, "{summary}");
    assert_eq!((text.len(), checkpoint, to_string), PINNED, "{summary}");
}

/// `(checkpoint bytes, checkpoint() allocations, to_string allocations)`.
const PINNED: (usize, (u64, u64), (u64, u64)) = (232_487, (366, 251_207), (15, 841_898));
