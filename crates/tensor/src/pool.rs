//! A small persistent worker pool shared by every parallel kernel.
//!
//! The pool is spawned lazily on first use with
//! `available_parallelism() - 1` workers (override with the
//! `FT_TENSOR_THREADS` environment variable; `1` disables threading
//! entirely). Work is expressed as an indexed task set — a closure
//! invoked once per index — and [`parallel_for`] blocks until every
//! index has run, so closures may freely borrow from the caller's
//! stack. Every task runs under its dispatcher's [`Settings`].
//!
//! Design constraints, in priority order:
//!
//! 1. **Determinism.** The pool never splits a single reduction across
//!    threads; callers partition work into disjoint output regions and
//!    each index is executed exactly once. Results cannot depend on
//!    thread count or scheduling.
//! 2. **No deadlocks from nesting.** A task running on a pool worker
//!    that calls [`parallel_for`] again executes its sub-tasks inline.
//!    Likewise, if another thread currently owns the pool, the caller
//!    runs its tasks itself rather than queueing. A caller that would
//!    rather not split its work at all than run the pieces back to
//!    back asks with [`try_parallel_for`], which runs nothing in
//!    exactly those cases (the GEMM kernels do, when a parallel client
//!    or evaluation pass calls a large matmul).
//! 3. **Low dispatch overhead.** Workers are parked on a condvar
//!    between jobs; a dispatch is one mutex lock plus a wake, so even
//!    millisecond-scale GEMMs amortize it.
//!
//! Two fan-out granularities share this one pool: kernel tiles (GEMM
//! panels) and whole clients (the round-level engine in
//! `ft_fedsim::exec`). [`parallel_for_budgeted`] lets the outer,
//! memory-heavy client fan-out cap its thread budget, and the
//! nested-dispatch guard keeps per-client GEMM fan-out from
//! oversubscribing the host while client fan-out is active: a GEMM
//! issued from inside a pool task runs as one panel on that worker.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crate::Settings;

/// A captured task panic, re-raised on the submitting thread.
type PanicPayload = Box<dyn std::any::Any + Send>;

thread_local! {
    /// Whether this thread is running tasks of a job: always on a
    /// worker, and on a submitter while it takes its share.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is running a pool task, so that any
/// dispatch it makes runs inline.
pub(crate) fn in_task() -> bool {
    IN_TASK.with(Cell::get)
}

/// One dispatched task set: a borrowed closure plus claim/finish
/// counters. The pointer is type-erased to `'static` so workers can
/// hold it; [`parallel_for`] does not return until `finished == total`,
/// which keeps the borrow alive for as long as any worker can touch it.
struct Job {
    task: *const (dyn Fn(usize) + Sync + 'static),
    /// The dispatcher's settings, which every task runs under.
    settings: Settings,
    next: AtomicUsize,
    total: usize,
    finished: AtomicUsize,
    /// Threads allowed to execute tasks of this job, counting the
    /// submitter. Workers beyond the budget leave the job alone — the
    /// knob behind [`parallel_for_budgeted`].
    max_claimants: usize,
    /// Threads currently (or ever) enrolled on this job. Starts at 1:
    /// the submitter is always enrolled.
    claimants: AtomicUsize,
    /// First panic raised by any task; re-thrown by the submitter once
    /// the job has fully drained. Tasks must never unwind out of
    /// `run_tasks` — an unwinding submitter would free the borrowed
    /// closure/output while workers still hold pointers to them, and a
    /// dead worker would leave `finished` short of `total` forever.
    panic: Mutex<Option<PanicPayload>>,
}

impl Job {
    /// Tries to enroll the calling worker within the job's thread
    /// budget. Enrollment never needs to be released: a job is consumed
    /// exactly once and dropped when drained.
    fn try_enroll(&self) -> bool {
        let mut cur = self.claimants.load(Ordering::Relaxed);
        loop {
            if cur >= self.max_claimants {
                return false;
            }
            match self.claimants.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }
}

// SAFETY: `task` points at a `Sync` closure, so sharing it across
// threads is sound; the submitter keeps the referent alive until every
// task index has finished (see `parallel_for`).
unsafe impl Send for Job {}
// SAFETY: as for `Send` — workers reach the job through `&Job` (an
// `Arc`) and only call the `Sync` closure behind `task`; every other
// field is an atomic, a `Mutex`, or never written after construction.
unsafe impl Sync for Job {}

struct PoolState {
    /// Currently dispatched job, if any.
    job: Option<Arc<Job>>,
    /// Bumped on every dispatch so parked workers can tell a new job
    /// from a spurious wakeup on one they already drained.
    epoch: u64,
    /// Whether a submitter currently owns the pool.
    busy: bool,
}

struct Pool {
    state: Mutex<PoolState>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// Submitters park here while workers drain their job.
    done_cv: Condvar,
    /// Number of spawned worker threads (not counting submitters).
    workers: usize,
}

impl Pool {
    /// Claims task indices until the job is drained, running each.
    /// Whoever finishes the last index clears the job and wakes the
    /// submitter.
    ///
    /// # Panics
    ///
    /// Panics if the pool mutex is poisoned, which only happens if a
    /// thread panicked *outside* the catch_unwind below — task panics
    /// are parked on the job instead.
    fn run_tasks(&self, job: &Job) {
        let outer = IN_TASK.with(|f| f.replace(true));
        loop {
            let i = job.next.fetch_add(1, Ordering::Relaxed);
            if i >= job.total {
                break;
            }
            // SAFETY: the submitter blocks in `parallel_for` until
            // `finished == total`, so the closure is alive here. The
            // catch_unwind upholds that invariant when a task panics:
            // the panic is parked on the job and the index still counts
            // as finished, so neither workers nor the submitter unwind
            // while the job is live.
            let result = catch_unwind(AssertUnwindSafe(|| (unsafe { &*job.task })(i)));
            if let Err(payload) = result {
                let mut slot = job
                    .panic
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                slot.get_or_insert(payload);
            }
            let done = job.finished.fetch_add(1, Ordering::AcqRel) + 1;
            if done == job.total {
                let mut st = self.state.lock().expect("pool mutex poisoned");
                st.job = None;
                st.busy = false;
                drop(st);
                self.done_cv.notify_all();
            }
        }
        IN_TASK.with(|f| f.set(outer));
    }

    /// Parks until a new job epoch appears, then joins it.
    ///
    /// # Panics
    ///
    /// Panics if the pool mutex is poisoned (task panics never poison
    /// it; see [`Pool::run_tasks`]).
    fn worker_loop(&self) {
        let mut seen_epoch = 0u64;
        loop {
            let job = {
                let mut st = self.state.lock().expect("pool mutex poisoned");
                loop {
                    if st.epoch != seen_epoch {
                        seen_epoch = st.epoch;
                        if let Some(job) = st.job.clone() {
                            break job;
                        }
                    }
                    st = self.work_cv.wait(st).expect("pool mutex poisoned");
                }
            };
            // A budgeted job may already have its full complement of
            // threads; late workers go back to sleep instead of
            // claiming tasks past the budget.
            if job.try_enroll() {
                job.settings.scope(|| self.run_tasks(&job));
            }
        }
    }
}

/// The largest thread count [`parse_threads`] accepts: a pool spawns
/// one OS thread per count.
pub const MAX_THREADS: usize = 256;

/// Parses a thread count (`FT_TENSOR_THREADS`, `FT_CLIENT_THREADS`): an
/// integer up to [`MAX_THREADS`], clamped to at least 1. `None` is not a
/// recognised form (the readers then use their defaults; `ft-run`
/// refuses to start).
pub fn parse_threads(value: &str) -> Option<usize> {
    let n = value.trim().parse::<usize>().ok()?;
    (n <= MAX_THREADS).then(|| n.max(1))
}

/// The process-wide pool, spawned on first use.
///
/// # Panics
///
/// Panics if the OS refuses to spawn a worker thread.
fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let workers = max_parallelism() - 1;
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            state: Mutex::new(PoolState {
                job: None,
                epoch: 0,
                busy: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            workers,
        }));
        for i in 0..workers {
            #[expect(
                clippy::disallowed_methods,
                reason = "the one sanctioned spawn site: the persistent workers every fan-out shares"
            )]
            std::thread::Builder::new()
                .name(format!("ft-tensor-worker-{i}"))
                .spawn(move || pool.worker_loop())
                .expect("spawning tensor pool worker");
        }
        pool
    })
}

/// Total parallelism the pool offers: worker threads plus the
/// submitting thread itself, read once per process (reading it does not
/// spawn the pool).
pub fn max_parallelism() -> usize {
    static SIZE: OnceLock<usize> = OnceLock::new();
    *SIZE.get_or_init(|| {
        #[expect(clippy::disallowed_methods, reason = "a process setting, read once")]
        let env = std::env::var("FT_TENSOR_THREADS").ok();
        env.as_deref().and_then(parse_threads).unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
    })
}

/// Runs `task(0..tasks)` across the worker pool, blocking until every
/// index has executed exactly once. Falls back to an inline serial loop
/// when the pool has no workers, the caller is itself a pool worker
/// (nested dispatch), or another thread currently owns the pool —
/// callers therefore never deadlock and results never depend on where a
/// task ran.
pub fn parallel_for(tasks: usize, task: &(dyn Fn(usize) + Sync)) {
    parallel_for_budgeted(tasks, usize::MAX, task);
}

/// [`parallel_for`] for callers that would rather not split their work
/// at all than run the pieces one after another: fans `task(0..tasks)`
/// out and returns `true`, or returns `false` **having run nothing**
/// when the dispatch would be an inline loop — the caller is a pool
/// worker, another submitter owns the pool, the pool has no workers, or
/// there are fewer than two tasks. The ownership check and the claim
/// are one critical section, so `false` is never a stale answer about a
/// dispatch that then happens anyway.
///
/// The GEMM kernel is the caller this exists for: a product issued from
/// inside a client lane computes one panel that packs B at most once
/// (A is never packed), instead of a row of "parallel" panels that each
/// re-pack B and then run back to back.
///
/// # Panics
///
/// As [`parallel_for_budgeted`].
#[must_use]
pub fn try_parallel_for(tasks: usize, task: &(dyn Fn(usize) + Sync)) -> bool {
    dispatch(tasks, usize::MAX, task)
}

/// [`parallel_for`] with a cap on how many threads (submitter
/// included) may execute tasks concurrently.
///
/// The cap exists for *outer* fan-outs whose tasks are whole units of
/// work rather than kernel tiles — e.g. one federated client's local
/// training, which pins a full model clone plus optimizer state in
/// memory for as long as the task runs. Budgeting the fan-out bounds
/// that peak footprint without giving up the shared pool. `max_threads`
/// does not change results: tasks are claimed from one atomic counter
/// and each index runs exactly once regardless of who runs it.
///
/// A `max_threads` of 1 degenerates to the inline serial loop without
/// touching the pool, so nested [`parallel_for`] calls issued by the
/// tasks (e.g. per-client GEMM fan-out) may still use every worker.
///
/// # Panics
///
/// A panic inside `task` is re-raised here on the submitting thread
/// once every index has run. Pool-mutex poisoning (unreachable via
/// task panics) also panics.
pub fn parallel_for_budgeted(tasks: usize, max_threads: usize, task: &(dyn Fn(usize) + Sync)) {
    if !dispatch(tasks, max_threads, task) {
        for i in 0..tasks {
            task(i);
        }
    }
}

/// At or above this many elements [`for_each_chunk_mut`] fans out over
/// the pool; below it, dispatch costs more than it buys on a
/// memory-bound loop.
pub const PAR_ELEMS: usize = 1 << 16;

/// Runs `body` over equal-length operands — `M` written, `R` read —
/// handing it the same index range of every operand. At or above
/// [`PAR_ELEMS`] elements the ranges are disjoint pieces of `[0, len)`
/// spread over the pool; below it, or when the pool declines (see
/// [`try_parallel_for`]: the caller is a pool worker, another submitter
/// owns the pool, or it has no workers), `body` runs once over the
/// whole range.
///
/// Purely a scheduling decision: `body` must compute each element from
/// that element's operands alone, so any partition gives the same
/// result. `body` is generic so it is compiled into each caller, which
/// the element-wise kernels need to build their loop inside
/// [`crate::simd`]'s AVX2 trampoline; a `&dyn` body would not be
/// inlined there.
///
/// # Panics
///
/// Panics with "length mismatch" if the operands' lengths differ, and
/// re-raises a panic from `body`.
#[track_caller]
pub fn for_each_chunk_mut<const M: usize, const R: usize>(
    mut muts: [&mut [f32]; M],
    mut refs: [&[f32]; R],
    body: impl Fn([&mut [f32]; M], [&[f32]; R]) + Sync,
) {
    const { assert!(M >= 1) };
    let len = muts[0].len();
    let lens = || {
        muts.iter()
            .map(|s| s.len())
            .chain(refs.iter().map(|s| s.len()))
    };
    assert!(
        lens().all(|n| n == len),
        "length mismatch: operand lengths {:?}",
        lens().collect::<Vec<_>>()
    );
    if len >= PAR_ELEMS {
        let chunk = len.div_ceil(max_parallelism() * 2).max(1024);
        // The operands' unclaimed tails. Each task splits its range off
        // the front, so ranges are disjoint by construction; which task
        // takes which range cannot change an element-wise result.
        let rest = Mutex::new((muts, refs));
        let fanned = try_parallel_for(len.div_ceil(chunk), &|_| {
            let (m, r) = {
                let mut rest = rest
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                let (muts, refs) = &mut *rest;
                let n = chunk.min(muts[0].len());
                let m: [&mut [f32]; M] = std::array::from_fn(|i| {
                    let (head, tail) = std::mem::take(&mut muts[i]).split_at_mut(n);
                    muts[i] = tail;
                    head
                });
                let r: [&[f32]; R] = std::array::from_fn(|i| {
                    let (head, tail) = refs[i].split_at(n);
                    refs[i] = tail;
                    head
                });
                (m, r)
            };
            body(m, r);
        });
        if fanned {
            return;
        }
        (muts, refs) = rest
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
    body(muts, refs);
}

/// Hands `task(0..tasks)` to the pool and blocks until every index has
/// run, or returns `false` without running any when the job would not
/// leave the calling thread (see [`try_parallel_for`]).
///
/// # Panics
///
/// Re-raises the first task panic once every index has run; panics if
/// the pool mutex is poisoned (task panics never poison it; see
/// [`Pool::run_tasks`]).
fn dispatch(tasks: usize, max_threads: usize, task: &(dyn Fn(usize) + Sync)) -> bool {
    if tasks <= 1 || max_threads <= 1 || in_task() {
        return false;
    }
    let pool = pool();
    if pool.workers == 0 {
        return false;
    }
    // SAFETY: erasing the closure's lifetime is sound because this
    // function does not return until `finished == total`, after which
    // no worker dereferences `task` again (workers only touch the
    // closure between a successful index claim and the matching
    // `finished` increment). On the early `busy` return the pointer was
    // never published.
    let task: *const (dyn Fn(usize) + Sync + 'static) =
        unsafe { std::mem::transmute(task as *const (dyn Fn(usize) + Sync)) };
    let job = {
        let mut st = pool.state.lock().expect("pool mutex poisoned");
        if st.busy {
            // Another submitter owns the pool; the caller runs its work
            // itself instead of queueing behind it (avoids lock convoys
            // and keeps worst-case latency bounded).
            return false;
        }
        let job = Arc::new(Job {
            task,
            settings: Settings::current(),
            next: AtomicUsize::new(0),
            total: tasks,
            finished: AtomicUsize::new(0),
            max_claimants: max_threads,
            claimants: AtomicUsize::new(1),
            panic: Mutex::new(None),
        });
        st.busy = true;
        st.job = Some(Arc::clone(&job));
        st.epoch = st.epoch.wrapping_add(1);
        job
    };
    pool.work_cv.notify_all();
    // The submitter participates instead of idling.
    pool.run_tasks(&job);
    {
        let mut st = pool.state.lock().expect("pool mutex poisoned");
        while job.finished.load(Ordering::Acquire) < job.total {
            st = pool.done_cv.wait(st).expect("pool mutex poisoned");
        }
    }
    // Every index has run and no worker holds the task pointer any
    // more; it is now safe to unwind into the caller.
    let payload = job
        .panic
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
    true
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "a second submitter has to come from outside the pool under test"
)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_index_exactly_once() {
        let hits: Vec<AtomicU64> = (0..257).map(|_| AtomicU64::new(0)).collect();
        parallel_for(hits.len(), &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn nested_dispatch_completes() {
        let total = AtomicU64::new(0);
        parallel_for(8, &|_| {
            parallel_for(8, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn zero_and_one_task_edge_cases() {
        parallel_for(0, &|_| panic!("no tasks should run"));
        let ran = AtomicU64::new(0);
        parallel_for(1, &|i| {
            assert_eq!(i, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn concurrent_submitters_all_complete() {
        let counters: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            for c in &counters {
                s.spawn(move || {
                    parallel_for(64, &|_| {
                        c.fetch_add(1, Ordering::Relaxed);
                    });
                });
            }
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 64));
    }

    #[test]
    fn task_panic_propagates_and_pool_survives() {
        let result = std::panic::catch_unwind(|| {
            parallel_for(16, &|i| {
                assert!(i != 7, "task 7 died");
            });
        });
        assert!(result.is_err(), "task panic must reach the submitter");
        // The pool must remain usable: no dead workers, no stuck job.
        let n = AtomicU64::new(0);
        parallel_for(16, &|_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn reports_at_least_one_thread() {
        assert!(max_parallelism() >= 1);
    }

    #[test]
    fn budgeted_runs_every_index_exactly_once() {
        for budget in [1, 2, usize::MAX] {
            let hits: Vec<AtomicU64> = (0..97).map(|_| AtomicU64::new(0)).collect();
            parallel_for_budgeted(hits.len(), budget, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "budget {budget}"
            );
        }
    }

    #[test]
    fn budget_caps_concurrency() {
        // High-water mark of concurrently running tasks must never
        // exceed the budget (trivially satisfied on a single-core
        // host; the multi-worker case is forced in
        // tests/pool_budget.rs, which pins the pool size).
        let budget = 2usize;
        let running = AtomicU64::new(0);
        let peak = AtomicU64::new(0);
        parallel_for_budgeted(64, budget, &|_| {
            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(50));
            running.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= budget as u64);
    }

    #[test]
    fn chunk_ranges_tile_the_operand_exactly_once() {
        // Both sides of the split, and (on two threads) last chunks
        // short by 0–3.
        for len in [0, 17, 5 * PAR_ELEMS + 2]
            .into_iter()
            .chain(PAR_ELEMS - 1..PAR_ELEMS + 4)
        {
            let mut buf = vec![0.0f32; len];
            let base = buf.as_ptr() as usize;
            let ranges = Mutex::new(Vec::new());
            for_each_chunk_mut([&mut buf[..]], [], |[s], []| {
                let start = (s.as_ptr() as usize - base) / std::mem::size_of::<f32>();
                ranges.lock().unwrap().push(start..start + s.len());
                s.iter_mut().for_each(|x| *x += 1.0);
            });
            assert!(
                buf.iter().all(|&x| x == 1.0),
                "len {len}: not every element written once"
            );
            let mut ranges = ranges.into_inner().unwrap();
            ranges.sort_by_key(|r| r.start);
            let tiled = ranges.first().map_or(0, |r| r.start) == 0
                && ranges.windows(2).all(|w| w[0].end == w[1].start)
                && ranges.last().map_or(0, |r| r.end) == len;
            assert!(tiled, "len {len}: {ranges:?}");
            // Fanned out, or declined (another test owns the pool) and
            // run as one range.
            let chunk = len.div_ceil(max_parallelism() * 2).max(1024);
            assert!(
                ranges.len() == 1 || (len >= PAR_ELEMS && ranges.len() == len.div_ceil(chunk)),
                "len {len}: {ranges:?}"
            );
        }
    }

    #[test]
    fn read_operands_arrive_with_the_written_range() {
        let len = PAR_ELEMS + 3;
        let up: Vec<f32> = (0..len).map(|i| i as f32).collect();
        let down: Vec<f32> = up.iter().rev().copied().collect();
        let (mut a, mut b) = (vec![0.0; len], vec![0.0; len]);
        for_each_chunk_mut([&mut a, &mut b], [&up, &down], |[a, b], [up, down]| {
            a.copy_from_slice(up);
            b.copy_from_slice(down);
        });
        assert!(a == up && b == down);
    }

    #[test]
    fn budget_of_one_leaves_pool_free_for_nested_dispatch() {
        // With a serial outer loop the pool is not owned, so an inner
        // parallel_for may still dispatch; either way every index runs.
        let total = AtomicU64::new(0);
        parallel_for_budgeted(4, 1, &|_| {
            parallel_for(8, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 32);
    }
}
