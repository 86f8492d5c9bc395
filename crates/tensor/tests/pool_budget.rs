//! Multi-worker tests for the budgeted pool dispatch and for
//! `try_parallel_for`, the dispatch that refuses to run inline.
//!
//! This file is its own test binary, so it can pin the pool size with
//! `FT_TENSOR_THREADS` *before* the pool is first touched — the in-crate
//! unit tests run with whatever the host offers (possibly a single
//! core), which would leave the budget path untested on small CI
//! runners.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard, Once};

use ft_tensor::pool::{
    for_each_chunk_mut, max_parallelism, parallel_for, parallel_for_budgeted, parse_threads,
    try_parallel_for, MAX_THREADS, PAR_ELEMS,
};
use ft_tensor::simd::{self, Kernel};
use ft_tensor::Settings;

/// Forces a 7-worker pool (8 threads of parallelism) regardless of the
/// host's core count. Must run before any other pool use in this
/// process; every test funnels through it and holds the returned guard,
/// because a pool has one owner at a time: a test that found it owned
/// by a sibling would silently take the inline path instead of the one
/// it means to exercise.
#[expect(
    clippy::disallowed_methods,
    reason = "the pool size is a process setting, pinned before first use"
)]
fn pinned_pool() -> MutexGuard<'static, ()> {
    static PIN: Once = Once::new();
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    // A poisoned lock only means another test failed.
    let guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    PIN.call_once(|| {
        std::env::set_var("FT_TENSOR_THREADS", "8");
        assert_eq!(max_parallelism(), 8);
    });
    guard
}

/// Runs `body` while another thread owns the pool: that thread's job
/// has started (every task reported in) and cannot finish before `body`
/// returns.
#[expect(
    clippy::disallowed_methods,
    reason = "a second submitter has to come from outside the pool under test"
)]
fn while_another_submitter_owns_the_pool(body: impl FnOnce()) {
    let release = AtomicBool::new(false);
    let (started, running) = mpsc::channel::<()>();
    let started = Mutex::new(started);
    std::thread::scope(|s| {
        s.spawn(|| {
            parallel_for(2, &|_| {
                started.lock().unwrap().send(()).unwrap();
                while !release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            });
        });
        // Both tasks are running, so the job is installed and live.
        running.recv().unwrap();
        running.recv().unwrap();
        body();
        release.store(true, Ordering::Release);
    });
}

#[test]
fn budget_caps_concurrency_with_real_workers() {
    let _pool = pinned_pool();
    for budget in [1usize, 2, 3] {
        let running = AtomicU64::new(0);
        let peak = AtomicU64::new(0);
        parallel_for_budgeted(48, budget, &|_| {
            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            running.fetch_sub(1, Ordering::SeqCst);
        });
        let peak = peak.load(Ordering::SeqCst);
        assert!(
            peak <= budget as u64,
            "budget {budget} exceeded: peak {peak}"
        );
        assert!(peak >= 1);
    }
}

#[test]
fn unbudgeted_dispatch_uses_multiple_threads() {
    let _pool = pinned_pool();
    let running = AtomicU64::new(0);
    let peak = AtomicU64::new(0);
    parallel_for(64, &|_| {
        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
        peak.fetch_max(now, Ordering::SeqCst);
        std::thread::sleep(std::time::Duration::from_micros(500));
        running.fetch_sub(1, Ordering::SeqCst);
    });
    assert!(
        peak.load(Ordering::SeqCst) > 1,
        "a 7-worker pool should overlap at least two tasks"
    );
}

#[test]
fn budgeted_results_match_serial_reference() {
    let _pool = pinned_pool();
    let n = 257usize;
    let reference: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
    for budget in [1usize, 3, usize::MAX] {
        let out: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for_budgeted(n, budget, &|i| {
            out[i].store((i as u64).wrapping_mul(0x9E37), Ordering::Relaxed);
        });
        let got: Vec<u64> = out.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        assert_eq!(got, reference, "budget {budget}");
    }
}

#[test]
fn budgeted_task_panic_propagates_and_pool_survives() {
    let _pool = pinned_pool();
    let result = std::panic::catch_unwind(|| {
        parallel_for_budgeted(16, 2, &|i| {
            assert!(i != 3, "task 3 died");
        });
    });
    assert!(result.is_err());
    let n = AtomicU64::new(0);
    parallel_for_budgeted(16, 2, &|_| {
        n.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(n.load(Ordering::Relaxed), 16);
}

#[test]
fn try_dispatch_from_a_free_pool_runs_every_index_exactly_once() {
    let _pool = pinned_pool();
    let hits: Vec<AtomicU64> = (0..97).map(|_| AtomicU64::new(0)).collect();
    assert!(try_parallel_for(hits.len(), &|i| {
        hits[i].fetch_add(1, Ordering::Relaxed);
    }));
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
}

#[test]
fn try_dispatch_from_inside_a_pool_task_runs_nothing() {
    let _pool = pinned_pool();
    let outer = AtomicU64::new(0);
    let inner = AtomicU64::new(0);
    let refused = AtomicU64::new(0);
    // Whichever thread runs an outer task — a worker, or this thread
    // while it owns the pool — a dispatch from inside it would be an
    // inline loop.
    assert!(try_parallel_for(16, &|_| {
        outer.fetch_add(1, Ordering::Relaxed);
        let dispatched = try_parallel_for(8, &|_| {
            inner.fetch_add(1, Ordering::Relaxed);
        });
        if !dispatched {
            refused.fetch_add(1, Ordering::Relaxed);
        }
    }));
    assert_eq!(outer.load(Ordering::Relaxed), 16);
    assert_eq!(refused.load(Ordering::Relaxed), 16);
    assert_eq!(inner.load(Ordering::Relaxed), 0, "a refused dispatch ran");
}

#[test]
fn try_dispatch_while_another_submitter_owns_the_pool_runs_nothing() {
    let _pool = pinned_pool();
    while_another_submitter_owns_the_pool(|| {
        let ran = AtomicU64::new(0);
        let dispatched = try_parallel_for(8, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert!(!dispatched);
        assert_eq!(ran.load(Ordering::Relaxed), 0, "a refused dispatch ran");
        // The blocking form still completes, inline.
        parallel_for(8, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 8);
    });
    // Released: the pool dispatches again.
    assert!(try_parallel_for(8, &|_| {}));
}

#[test]
fn try_dispatch_refuses_fewer_than_two_tasks() {
    let _pool = pinned_pool();
    assert!(!try_parallel_for(0, &|_| panic!("no task to run")));
    assert!(!try_parallel_for(1, &|_| panic!("a refused dispatch ran")));
}

#[test]
fn try_dispatch_task_panic_reraises_on_the_submitter() {
    let _pool = pinned_pool();
    let result = std::panic::catch_unwind(|| {
        try_parallel_for(16, &|i| {
            assert!(i != 5, "task 5 died");
        })
    });
    assert!(result.is_err(), "task panic must reach the submitter");
    // No dead workers, no stuck job.
    let n = AtomicU64::new(0);
    assert!(try_parallel_for(16, &|_| {
        n.fetch_add(1, Ordering::Relaxed);
    }));
    assert_eq!(n.load(Ordering::Relaxed), 16);
}

/// How many times `for_each_chunk_mut` calls its body over a
/// `len`-element operand.
fn chunk_calls(len: usize) -> u64 {
    let calls = AtomicU64::new(0);
    for_each_chunk_mut([&mut vec![0.0; len][..]], [], |_, []| {
        calls.fetch_add(1, Ordering::Relaxed);
    });
    calls.into_inner()
}

#[test]
fn chunk_fan_out_splits_on_a_free_pool_and_runs_one_range_when_declined() {
    let _pool = pinned_pool();
    // 8 threads: two chunks per thread, each ⌈len/16⌉ elements.
    assert_eq!(chunk_calls(PAR_ELEMS - 1), 1);
    assert_eq!(chunk_calls(PAR_ELEMS + 1), 16);
    while_another_submitter_owns_the_pool(|| assert_eq!(chunk_calls(PAR_ELEMS + 1), 1));
    let nested = AtomicU64::new(0);
    assert!(try_parallel_for(4, &|_| {
        nested.fetch_add(chunk_calls(PAR_ELEMS + 1), Ordering::Relaxed);
    }));
    assert_eq!(
        nested.into_inner(),
        4,
        "a nested fan-out is one range per caller"
    );
}

#[test]
fn thread_counts_parse_up_to_the_cap() {
    assert_eq!(parse_threads(" 4 "), Some(4));
    assert_eq!(parse_threads("0"), Some(1));
    assert_eq!(parse_threads(&MAX_THREADS.to_string()), Some(MAX_THREADS));
    assert_eq!(parse_threads(&(MAX_THREADS + 1).to_string()), None);
    for bad in ["100000", "18446744073709551615", "-1", "two", ""] {
        assert_eq!(parse_threads(bad), None, "{bad:?}");
    }
}

#[test]
fn a_scope_nests_and_restores() {
    // The process default reads the pool size: pin it first.
    let _pool = pinned_pool();
    let outer = Settings::current();
    let portable = Settings {
        kernel: Kernel::Portable,
        client_threads: 3,
    };
    portable.scope(|| {
        assert_eq!(Settings::current(), portable);
        assert_eq!(simd::active(), Kernel::Portable);
        let wider = Settings {
            client_threads: 7,
            ..portable
        };
        wider.scope(|| assert_eq!(Settings::current(), wider));
        assert_eq!(Settings::current(), portable);
        let unwound = std::panic::catch_unwind(|| wider.scope(|| panic!("inside")));
        assert!(unwound.is_err());
        assert_eq!(Settings::current(), portable);
    });
    assert_eq!(Settings::current(), outer);
    assert!(outer.client_threads >= 1);
}

/// What a task saw: the settings, the kernel dispatch reads, and the
/// thread it ran on.
type Seen = (Settings, Kernel, std::thread::ThreadId);

fn seen() -> Seen {
    (
        Settings::current(),
        simd::active(),
        std::thread::current().id(),
    )
}

/// Two threads at once under different scopes: one owns the pool, so
/// its job runs on every worker, while the other dispatches the same
/// nested shape inline. Each sees its own tier and client width in its
/// own code, in every task of its job and in every nested task. A
/// process-global switch would hand one of them the other's.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the second thread has to submit from outside the pool"
)]
fn concurrent_scopes_each_reach_their_own_pool_tasks() {
    let _pool = pinned_pool();
    let tiers = simd::available();
    let one = Settings {
        kernel: tiers[0],
        client_threads: 3,
    };
    let two = Settings {
        kernel: tiers[tiers.len() - 1],
        client_threads: 5,
    };
    let threads = max_parallelism();
    for (owner, inline) in [(one, two), (two, one)] {
        let (owned, nested) = (Mutex::new(Vec::new()), Mutex::new(Vec::new()));
        let release = AtomicBool::new(false);
        let (started, running) = mpsc::channel::<()>();
        let started = Mutex::new(started);
        let mut here = Vec::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                owner.scope(|| {
                    parallel_for(threads, &|_| {
                        owned.lock().unwrap().push(seen());
                        parallel_for(2, &|_| nested.lock().unwrap().push(seen()));
                        started.lock().unwrap().send(()).unwrap();
                        // Hold every thread until the other side is done.
                        while !release.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                    });
                });
            });
            for _ in 0..threads {
                running.recv().unwrap();
            }
            // The pool is owned, so this job runs here, nesting inline.
            let here_all = Mutex::new(Vec::new());
            inline.scope(|| {
                here_all.lock().unwrap().push(seen());
                parallel_for(4, &|_| {
                    here_all.lock().unwrap().push(seen());
                    parallel_for(2, &|_| here_all.lock().unwrap().push(seen()));
                });
            });
            release.store(true, Ordering::Release);
            here = here_all.into_inner().unwrap();
        });
        let me = std::thread::current().id();
        assert_eq!(here.len(), 1 + 4 + 8);
        for (settings, kernel, thread) in here {
            assert_eq!((settings, kernel, thread), (inline, inline.kernel, me));
        }
        let owned = owned.into_inner().unwrap();
        let nested = nested.into_inner().unwrap();
        assert_eq!((owned.len(), nested.len()), (threads, 2 * threads));
        let mut ran_on = Vec::new();
        for (settings, kernel, thread) in owned.into_iter().chain(nested) {
            assert_eq!((settings, kernel), (owner, owner.kernel));
            if !ran_on.contains(&thread) {
                ran_on.push(thread);
            }
        }
        // Every worker and the submitting thread ran a task.
        assert_eq!(ran_on.len(), threads);
    }
}
