//! The deterministic parallel client execution engine.
//!
//! A federated round is dominated by the embarrassingly parallel part:
//! each selected client trains its own model copy on its own shard.
//! This module fans that per-client work out over the shared tensor
//! worker pool ([`ft_tensor::pool`]) — the same threads the GEMM
//! kernels and the evaluation fan-out use, so round-level, eval-level,
//! and kernel-level parallelism never oversubscribe the host.
//!
//! # Thread budget
//!
//! The fan-out width is the `client_threads` of the current
//! [`ft_tensor::Settings`] (process default: `FT_CLIENT_THREADS`, else
//! the pool's full parallelism). Each in-flight client pins a model
//! clone plus optimizer state in memory, so the budget bounds peak
//! memory; a width of 1 selects a plain serial loop that never touches
//! the pool, which both restores the
//! pre-engine execution shape and leaves every worker free for
//! *intra*-client GEMM fan-out (the right trade when rounds select
//! few clients but train large models).
//!
//! # Two shapes of fan-out
//!
//! [`try_par_map`] runs a whole task set and hands back every result,
//! in index order. [`try_stream_map`] is the round's streaming fold: a
//! pipeline whose lanes train clients while a consumer absorbs finished
//! results in strict index order, with a bounded number of results in
//! flight — nothing is ever materialized as a batch.
//!
//! # Determinism contract
//!
//! Parallel execution is observationally identical to the serial loop:
//!
//! * every task's result lands in its caller-assigned slot (or reaches
//!   the stream's consumer at its index), so output order is the
//!   submission order, never completion order;
//! * tasks draw randomness only from seeds derived statelessly from
//!   `(round seed, client)` (see [`crate::trainer::client_seed`]) —
//!   there is no shared mutable RNG on the parallel path;
//! * the kernels underneath guarantee thread-count-independent
//!   numerics, and GEMMs issued from inside a client task run inline
//!   on that worker (nested-dispatch guard);
//! * on failure, [`try_par_map`] and [`try_stream_map`] report the
//!   error of the lowest-indexed failing task — not whichever failure
//!   happened to finish first — so error paths are as reproducible as
//!   success paths.
//!
//! Reports produced at any client width are therefore
//! byte-identical, which the harness determinism tests pin.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::{Result, SimError};

/// The round-level fan-out width of the current [`ft_tensor::Settings`];
/// `1` (or `0`) means "serial, do not touch the pool".
pub fn client_threads() -> usize {
    ft_tensor::Settings::current().client_threads
}

/// Maps `f` over `0..n` with at most `threads` concurrent tasks,
/// returning results in index order. Infallible twin of
/// [`try_par_map`]; see the module docs for the determinism contract.
#[expect(
    clippy::missing_panics_doc,
    reason = "the pool runs every index exactly once, so every slot is filled"
)]
pub fn par_map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let slots = Mutex::new((0..n).map(|_| None).collect::<Vec<Option<T>>>());
    ft_tensor::pool::parallel_for_budgeted(n, threads, &|i| {
        let value = f(i);
        lock(&slots)[i] = Some(value);
    });
    slots
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|slot| slot.expect("parallel_for runs every index exactly once"))
        .collect()
}

/// Maps a fallible `f` over `0..n` with at most `threads` concurrent
/// tasks. Returns all results in index order, or the error of the
/// lowest-indexed failing task.
///
/// # Errors
///
/// Propagates the first (by index) task error; returns
/// [`SimError::WorkerPanicked`] if any task panicked.
pub fn try_par_map<T, F>(n: usize, threads: usize, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    if threads <= 1 || n <= 1 {
        // The serial path short-circuits on the first error, exactly
        // like the pre-engine loop did — but maps panics to the same
        // `WorkerPanicked` the parallel path reports, so failure
        // surfaces do not depend on the thread budget.
        return catch_unwind(AssertUnwindSafe(|| (0..n).map(&f).collect()))
            .unwrap_or(Err(SimError::WorkerPanicked));
    }
    let results = catch_unwind(AssertUnwindSafe(|| par_map_indexed(n, threads, &f)))
        .map_err(|_| SimError::WorkerPanicked)?;
    results.into_iter().collect()
}

/// Streams a fallible `f` over `0..n` through `consume` in strict index
/// order, with at most `window` results claimed but not yet consumed.
///
/// This is the memory-bounded executor under the coordinator's
/// streaming aggregation, and it is a pipeline, not a sequence of
/// batches. One pool job runs `min(threads, window)` *lanes*; each lane
/// loops over three moves until the fold is done:
///
/// 1. **drain** — if the result of the head index (the next one
///    `consume` must see) sits in the reorder ring and no other lane is
///    draining, take it and run `consume(head, value)`;
/// 2. **claim** — otherwise take the next unclaimed index `i`, allowed
///    only while `i < consumed + window`, run `f(i)` and deposit the
///    result in ring slot `i % window`;
/// 3. **wait** — otherwise the head is still running on another lane: a
///    bounded spin, then park until a consume completes or fails.
///
/// So `consume` overlaps `f`, a slot frees the moment the head is
/// consumed (not when the slowest of a batch finishes), and whichever
/// lane completes the head drains it — which is why `consume` must be
/// `Send`. `consume` still observes `0, 1, 2, …` exactly, one call at a
/// time, so a fold over the stream is bit-identical to a fold over a
/// fully materialized batch at any `window` and any `threads`.
///
/// With `threads <= 1` or `window <= 1` this is a plain serial loop
/// that never touches the pool.
///
/// # Errors
///
/// Failures surface in index order: the error of the lowest-indexed
/// failing `f(i)` or `consume(i, _)`, whichever index is lower, with a
/// panic in either counted as [`SimError::WorkerPanicked`] at its
/// index. After a failure at index `i` nothing at or past `i + window`
/// is ever started.
pub fn try_stream_map<T, F, C>(
    n: usize,
    threads: usize,
    window: usize,
    f: F,
    mut consume: C,
) -> Result<()>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
    C: FnMut(usize, T) -> Result<()> + Send,
{
    let lanes = threads.min(window).min(n);
    if lanes <= 1 {
        return catch_unwind(AssertUnwindSafe(|| {
            (0..n).try_for_each(|i| consume(i, f(i)?))
        }))
        .unwrap_or(Err(SimError::WorkerPanicked));
    }
    let pipeline = Pipeline::new(n, window, f, consume);
    // Lanes catch every panic of `f` and `consume` themselves, so the
    // job cannot unwind.
    par_map_indexed(lanes, threads, |_| pipeline.lane());
    pipeline.finish()
}

/// How many times a lane with nothing to do looks again, pausing twice
/// as long each time (255 pause hints in all, microseconds), before it
/// parks.
const SPIN_CHECKS: u32 = 8;

/// The lanes' shared view of one [`try_stream_map`] call.
struct Progress<T> {
    /// The next index to claim; every index below it has been started.
    next: usize,
    /// How many results `consume` has accepted — equally, the head
    /// index it must see next.
    consumed: usize,
    /// The reorder ring: the finished result of index `i` waits in slot
    /// `i % window`. Claimed indices span less than one `window`, so no
    /// two live indices share a slot.
    ring: Vec<Option<Result<T>>>,
    /// Whether a lane is inside `consume` right now.
    draining: bool,
    /// The failure that ended the fold. The drain walks indices in
    /// order and stops at the first failure, so this is the
    /// lowest-indexed one.
    failed: Option<SimError>,
    /// Lanes parked on [`Pipeline::wake`].
    parked: usize,
}

/// One [`try_stream_map`] call: the work, the consumer, and the state
/// the lanes coordinate through.
struct Pipeline<T, F, C> {
    n: usize,
    window: usize,
    f: F,
    /// Locked only by the lane holding the `draining` flag, so never
    /// contended; the mutex is what lets the consumer change lanes.
    consume: Mutex<C>,
    progress: Mutex<Progress<T>>,
    /// Signalled when a consume completes (a slot frees) or fails.
    wake: Condvar,
}

/// Locks one of this module's mutexes. `f` and `consume` never run
/// under one (and run behind `catch_unwind` in the pipeline), so
/// poisoning cannot happen; recover the guard rather than grow a panic
/// path.
fn lock<V>(mutex: &Mutex<V>) -> MutexGuard<'_, V> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<T, F, C> Pipeline<T, F, C>
where
    F: Fn(usize) -> Result<T>,
    C: FnMut(usize, T) -> Result<()>,
{
    fn new(n: usize, window: usize, f: F, consume: C) -> Self {
        // A window past `n` bounds nothing; clamping it sizes the ring
        // by the work, not by a caller's `usize::MAX`.
        let window = window.min(n);
        Pipeline {
            n,
            window,
            f,
            consume: Mutex::new(consume),
            progress: Mutex::new(Progress {
                next: 0,
                consumed: 0,
                ring: (0..window).map(|_| None).collect(),
                draining: false,
                failed: None,
                parked: 0,
            }),
            wake: Condvar::new(),
        }
    }

    /// Runs one lane to the end of the fold. Any number of lanes may
    /// run concurrently or one after another: a lane only ever waits
    /// for an index that another *running* lane has claimed, so a lone
    /// lane never waits at all.
    fn lane(&self) {
        let mut idle = 0u32;
        let mut st = lock(&self.progress);
        loop {
            if st.failed.is_some() || st.consumed == self.n {
                return;
            }
            let head = st.consumed;
            let ready = if st.draining {
                None
            } else {
                st.ring[head % self.window].take()
            };
            if let Some(result) = ready {
                st.draining = true;
                drop(st);
                let outcome = result.and_then(|value| {
                    let mut consume = lock(&self.consume);
                    catch_unwind(AssertUnwindSafe(|| consume(head, value)))
                        .unwrap_or(Err(SimError::WorkerPanicked))
                });
                st = lock(&self.progress);
                st.draining = false;
                match outcome {
                    Ok(()) => st.consumed += 1,
                    Err(e) => st.failed = Some(e),
                }
                if st.parked > 0 {
                    self.wake.notify_all();
                }
                idle = 0;
            } else if st.next < self.n && st.next < st.consumed + self.window {
                let i = st.next;
                st.next += 1;
                drop(st);
                let result = catch_unwind(AssertUnwindSafe(|| (self.f)(i)))
                    .unwrap_or(Err(SimError::WorkerPanicked));
                st = lock(&self.progress);
                st.ring[i % self.window] = Some(result);
                idle = 0;
            } else if idle < SPIN_CHECKS {
                // The head is training (or being absorbed) on another
                // lane and the window is full. Client tasks are tens of
                // microseconds and a park-and-wake is not much less, so
                // look again a few times first.
                drop(st);
                for _ in 0..1u32 << idle {
                    std::hint::spin_loop();
                }
                idle += 1;
                st = lock(&self.progress);
            } else {
                st.parked += 1;
                st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
                st.parked -= 1;
                idle = 0;
            }
        }
    }

    /// The fold's verdict, once every lane has returned.
    fn finish(self) -> Result<()> {
        let st = self
            .progress
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        st.failed.map_or(Ok(()), Err)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "lane tests drive `Pipeline` on scoped threads, not the pool, and bound their spin-waits by the wall clock"
)]
mod tests {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    use super::*;

    #[test]
    fn preserves_index_order_at_any_width() {
        for threads in [1usize, 2, 4, usize::MAX] {
            let out = par_map_indexed(100, threads, |i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn handles_empty_input() {
        let out: Vec<usize> = par_map_indexed(0, 4, |i| i);
        assert!(out.is_empty());
        assert_eq!(try_par_map(0, 4, Ok).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn error_is_lowest_failing_index() {
        for threads in [1usize, 4] {
            let err = try_par_map(10, threads, |i| {
                if i == 3 || i == 7 {
                    Err(SimError::NoSuchClient {
                        index: i,
                        clients: 0,
                    })
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
            assert_eq!(
                err,
                SimError::NoSuchClient {
                    index: 3,
                    clients: 0
                },
                "threads {threads}"
            );
        }
    }

    #[test]
    fn panic_maps_to_worker_panicked_at_any_width() {
        for threads in [1usize, 4] {
            let err = try_par_map(8, threads, |i| {
                assert!(i != 5, "task 5 died");
                Ok(i)
            });
            // On a single-core host the serial fallback runs inside
            // parallel_for, which still re-raises into catch_unwind.
            assert_eq!(
                err.unwrap_err(),
                SimError::WorkerPanicked,
                "threads {threads}"
            );
        }
    }

    #[test]
    fn client_threads_is_at_least_one() {
        assert!(client_threads() >= 1);
    }

    /// Runs one pipeline on `lanes` scoped threads instead of the pool.
    /// The pool runs a job inline, lane after lane, whenever another
    /// test in this process happens to own it; tests that need lanes to
    /// really overlap cannot depend on that.
    fn stream_on_threads<T, F, C>(
        n: usize,
        lanes: usize,
        window: usize,
        f: F,
        consume: C,
    ) -> Result<()>
    where
        T: Send,
        F: Fn(usize) -> Result<T> + Sync,
        C: FnMut(usize, T) -> Result<()> + Send,
    {
        let pipeline = Pipeline::new(n, window, f, consume);
        std::thread::scope(|s| {
            for _ in 0..lanes {
                s.spawn(|| pipeline.lane());
            }
        });
        pipeline.finish()
    }

    /// Spins until `done()` or a generous deadline; reports which. A
    /// broken executor then fails its test instead of hanging it.
    fn wait_until(done: impl Fn() -> bool) -> bool {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while !done() {
            if std::time::Instant::now() > deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    fn refused(i: usize) -> SimError {
        SimError::protocol(format!("refused {i}"))
    }

    const WINDOWS: [usize; 5] = [1, 2, 3, 7, usize::MAX];

    #[test]
    fn stream_map_consumes_in_order_at_any_window() {
        for window in WINDOWS {
            for threads in [1usize, 2, 4] {
                for on_threads in [false, true] {
                    let mut seen = Vec::new();
                    let record = |i, v| {
                        seen.push((i, v));
                        Ok(())
                    };
                    if on_threads {
                        stream_on_threads(10, threads, window, |i| Ok(i * 2), record).unwrap();
                    } else {
                        try_stream_map(10, threads, window, |i| Ok(i * 2), record).unwrap();
                    }
                    assert_eq!(
                        seen,
                        (0..10).map(|i| (i, i * 2)).collect::<Vec<_>>(),
                        "window {window} threads {threads} scoped {on_threads}"
                    );
                }
            }
        }
    }

    /// A result that counts itself alive from the moment `f` starts
    /// building it until `consume` drops it.
    struct Live<'a>(&'a AtomicUsize);

    impl Drop for Live<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn stream_map_bounds_in_flight_results() {
        // The claim rule `i < consumed + window` caps results that are
        // being computed, waiting in the ring or being consumed.
        for window in [1usize, 2, 3, 7] {
            for threads in [2usize, 4] {
                let live = AtomicUsize::new(0);
                let peak = AtomicUsize::new(0);
                let produce = |_| {
                    peak.fetch_max(live.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                    let result = Live(&live);
                    std::thread::yield_now();
                    Ok(result)
                };
                let absorb = |_, result: Live<'_>| {
                    std::thread::yield_now();
                    drop(result);
                    Ok(())
                };
                stream_on_threads(64, threads, window, produce, absorb).unwrap();
                try_stream_map(64, threads, window, produce, absorb).unwrap();
                let peak = peak.load(Ordering::SeqCst);
                assert!(
                    peak <= window,
                    "window {window} threads {threads}: {peak} in flight"
                );
                assert_eq!(live.load(Ordering::SeqCst), 0);
            }
        }
    }

    #[test]
    fn stream_map_frees_a_slot_when_the_head_is_consumed() {
        // Index 1 cannot finish until index 2 has started. With a
        // window of 2 that needs index 0's slot to free while 1 is
        // still running — a batch-and-barrier executor deadlocks here.
        let two_started = AtomicBool::new(false);
        let mut order = Vec::new();
        let result = stream_on_threads(
            4,
            2,
            2,
            |i| {
                if i == 2 {
                    two_started.store(true, Ordering::SeqCst);
                }
                if i == 1 && !wait_until(|| two_started.load(Ordering::SeqCst)) {
                    return Err(SimError::protocol("index 2 never started"));
                }
                Ok(i)
            },
            |i, _| {
                order.push(i);
                Ok(())
            },
        );
        assert_eq!(result, Ok(()));
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn a_panic_in_f_releases_the_lanes_waiting_on_the_window() {
        // Index 0 is the head. It panics only once the other two lanes
        // have filled the window behind it and have nothing left to do
        // but wait for it.
        let window = 3;
        let behind_done = AtomicUsize::new(0);
        let max_started = AtomicUsize::new(0);
        let result = stream_on_threads(
            32,
            3,
            window,
            |i| {
                max_started.fetch_max(i, Ordering::SeqCst);
                if i == 0 {
                    let filled = wait_until(|| behind_done.load(Ordering::SeqCst) == window - 1);
                    assert!(filled, "lanes never filled the window");
                    panic!("head task died");
                }
                behind_done.fetch_add(1, Ordering::SeqCst);
                Ok(i)
            },
            |_, _| Ok(()),
        );
        assert_eq!(result, Err(SimError::WorkerPanicked));
        assert!(max_started.load(Ordering::SeqCst) < window);
    }

    #[test]
    fn a_panic_in_f_or_consume_leaves_the_pool_usable() {
        for panic_in_consume in [false, true] {
            let result = try_stream_map(
                32,
                4,
                4,
                |i| {
                    assert!(panic_in_consume || i != 5, "task 5 died");
                    Ok(i)
                },
                |i, _| {
                    assert!(!panic_in_consume || i != 5, "absorb 5 died");
                    Ok(())
                },
            );
            assert_eq!(result, Err(SimError::WorkerPanicked));
            assert_eq!(par_map_indexed(16, 4, |i| i), (0..16).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_consume_error_stops_the_fold_within_one_window() {
        for window in WINDOWS {
            for threads in [1usize, 2, 4] {
                for on_threads in [false, true] {
                    let max_started = AtomicUsize::new(0);
                    let mut calls = 0usize;
                    let produce = |i| {
                        max_started.fetch_max(i, Ordering::SeqCst);
                        Ok(i)
                    };
                    let absorb = |i, _| {
                        calls += 1;
                        if i == 3 {
                            Err(refused(3))
                        } else {
                            Ok(())
                        }
                    };
                    let result = if on_threads {
                        stream_on_threads(40, threads, window, produce, absorb)
                    } else {
                        try_stream_map(40, threads, window, produce, absorb)
                    };
                    let case = format!("window {window} threads {threads} scoped {on_threads}");
                    assert_eq!(result, Err(refused(3)), "{case}");
                    assert_eq!(calls, 4, "{case}: nothing is consumed past a failure");
                    assert!(
                        max_started.load(Ordering::SeqCst) < window.saturating_add(3),
                        "{case}"
                    );
                }
            }
        }
    }

    #[test]
    fn stream_map_reports_the_lowest_failing_index() {
        for window in WINDOWS {
            for threads in [1usize, 2, 4] {
                let produce = |i| {
                    if i == 3 || i == 7 {
                        Err(refused(i))
                    } else {
                        Ok(i)
                    }
                };
                let case = format!("window {window} threads {threads}");
                let pooled = try_stream_map(10, threads, window, produce, |_, _| Ok(()));
                assert_eq!(pooled, Err(refused(3)), "{case}");
                let scoped = stream_on_threads(10, threads, window, produce, |_, _| Ok(()));
                assert_eq!(scoped, Err(refused(3)), "{case} scoped");
            }
        }
    }
}
