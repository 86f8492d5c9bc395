//! What one participant of a `fedavg-1m-stream` round costs, counted
//! and pinned: `fedavg-1m-stream`'s config at 64 clients, one warm round
//! on a one-wide client fan-out (so every count lands on this thread),
//! under a thread-local counting allocator and `ft_tensor::work`.
//!
//! A participant draws its client's plan once (pricing draws it and the
//! lane resumes the stream after it), derives its train half into one
//! block (no `Vec` a sample), and copies the round's model once (no
//! snapshot of the global weights, none of the trained ones).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ft_data::{ShardSource, SparseFederatedData};
use ft_harness::Scenario;
use ft_tensor::{work, Settings};
use rand::SeedableRng;

struct CountingAlloc;

thread_local! {
    /// Allocations requested by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: pure pass-through to `System`; the counter never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds `GlobalAlloc`'s contract; forwarded to
    // `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread being torn down allocates after its
        // locals are gone.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    // SAFETY: same pass-through as `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    // SAFETY: same pass-through as `alloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: same pass-through as `alloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// `f`'s result and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// `fedavg-1m-stream` at 64 clients, every one of them selected.
fn scenario() -> Scenario {
    let mut scenario: Scenario =
        serde_json::from_str(include_str!("../benchmark/workloads/fedavg-1m-stream.json")).unwrap();
    scenario.dataset.num_clients = 64;
    scenario
}

/// Plans a participant draws: pricing's, and in debug builds the walk
/// that checks the derivation against its stream.
const PLANS: usize = 1 + cfg!(debug_assertions) as usize;

/// Allocations of the warm round of 64 participants.
const ROUND_ALLOCATIONS: u64 = if cfg!(debug_assertions) { 2_018 } else { 1_826 };

#[test]
fn a_participant_draws_one_plan_and_copies_the_model_once() {
    let scenario = scenario();
    let one_wide = Settings {
        client_threads: 1,
        ..Settings::current()
    };
    one_wide.scope(|| {
        let mut driver = scenario.build().unwrap();
        // The first round fills the scratch pools and draws the
        // prototypes.
        driver.step().unwrap();
        let ((report, work), allocations) =
            counted(|| work::measure_here(|| driver.step().unwrap()));
        let participants = report.participants;
        assert_eq!(participants, 64, "every client trains");

        // One copy of the round's model, as the harness builds it.
        let devices = scenario.devices.generate(scenario.dataset.num_clients);
        let mut rng = rand::rngs::StdRng::seed_from_u64(scenario.seed.wrapping_add(0x5EED));
        let model = fedtrans::seed_model(
            &mut rng,
            scenario.dataset.input,
            scenario.dataset.num_classes,
            devices.min_capacity(),
        );
        let (_, one_copy) = work::measure_here(|| drop(model.clone()));
        // Besides, each train step's layers copy their inputs into their
        // caches and the loss copies its probabilities: a fixed number
        // of elements per batch row.
        let row = ft_tensor::Tensor::zeros(&[1, model.input_width()]);
        let (_, step) = work::measure_here(|| model.clone().loss_and_grad(&row, &[0]).map(drop));
        let per_row = step.cloned - one_copy.cloned;
        let data = SparseFederatedData::new(scenario.dataset.clone());
        let rows: usize = (0..participants)
            .map(|c| scenario.local.batch_size.min(data.plan(c).train_len()))
            .sum();
        let steps_cloned = scenario.local.local_steps * rows * per_row;

        let summary = format!("{participants} participants: {work:?}, {allocations} allocations");
        assert_eq!(work.plans, PLANS * participants, "{summary}");
        // The round itself copies no weights: the server moves the
        // sample-weighted average into its model.
        assert_eq!(
            work.cloned,
            one_copy.cloned * participants + steps_cloned,
            "{summary}; one copy {}, {per_row} a row",
            one_copy.cloned
        );
        assert_eq!(allocations, ROUND_ALLOCATIONS, "{summary}");
    });
}

/// A train half derived from a carried plan makes the same number of
/// allocations whatever its sample count: each half is one block, and
/// no sample has a `Vec` of its own.
#[test]
fn a_train_half_allocates_the_same_at_any_sample_count() {
    let data = SparseFederatedData::new(scenario().dataset);
    drop(data.shard(0)); // the prototypes
    let counts: Vec<(usize, u64)> = (0..64)
        .map(|client| {
            let plan = data.plan(client);
            let (_, allocations) = counted(|| drop(data.train_half(&plan)));
            (plan.train_len(), allocations)
        })
        .collect();
    let lengths: std::collections::BTreeSet<usize> = counts.iter().map(|c| c.0).collect();
    assert!(
        lengths.len() > 8,
        "the clients' sample counts vary: {counts:?}"
    );
    let per_half = if cfg!(debug_assertions) { 8 } else { 5 };
    assert!(counts.iter().all(|&(_, a)| a == per_half), "{counts:?}");
}
