//! Work counters of the calling thread: what the kernels and the layers
//! around them did, each bumped once per call, never per element.
//!
//! They count elements packed into B slabs (and, of those, transposed
//! from a column-major B), kj-shifted plane elements written
//! ([`crate::ConvGeometry`]), scratch elements checked out, and elements
//! written by element-wise passes outside a GEMM (a bias add, a ReLU or
//! its mask, a gradient temporary folded in, an input copied into a
//! cache), key rows read by the robust sinks' rank search, and normals
//! drawn (and, of those, computed through libm). A patch matrix lowered into a pack would show in `packed`; a
//! lowered A block, a `dcols` buffer or a `dW` temporary in `scratch`; a
//! bias or ReLU pass beside a dense GEMM in `passes`.
//!
//! Counting is compiled in for this crate's tests and under the
//! `work-counters` feature (which the workspace's layer and model
//! crates turn on for their own tests); otherwise [`count`] is empty
//! and [`Work`] stays zero.

/// What the kernels did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    /// Elements packed into B slabs.
    pub packed: usize,
    /// Of `packed`, elements transposed from a column-major B.
    pub transposed: usize,
    /// Elements of kj-shifted planes written.
    pub planes: usize,
    /// Scratch elements checked out.
    pub scratch: usize,
    /// Elements written by element-wise passes outside a GEMM.
    pub passes: usize,
    /// Key rows read by the rank-search sweeps of [`crate::order_stats`].
    pub key_rows: usize,
    /// Normals drawn by [`crate::normals::fill`].
    pub normals: usize,
    /// Of `normals`, those computed through libm's `ln` and `cos`: every
    /// one on the portable tier, the guard's fallback lanes elsewhere.
    pub exact_normals: usize,
}

#[cfg(any(test, feature = "work-counters"))]
pub use counting::{measure, nested};

#[cfg(any(test, feature = "work-counters"))]
thread_local! {
    static COUNTS: std::cell::Cell<Work> = const {
        std::cell::Cell::new(Work {
            packed: 0,
            transposed: 0,
            planes: 0,
            scratch: 0,
            passes: 0,
            key_rows: 0,
            normals: 0,
            exact_normals: 0,
        })
    };
}

/// Adds what `f` says to the calling thread's counts.
#[inline(always)]
pub fn count(f: impl FnOnce(&mut Work)) {
    #[cfg(any(test, feature = "work-counters"))]
    COUNTS.with(|c| {
        let mut w = c.get();
        f(&mut w);
        c.set(w);
    });
    #[cfg(not(any(test, feature = "work-counters")))]
    drop(f);
}

#[cfg(any(test, feature = "work-counters"))]
mod counting {
    use std::cell::Cell;
    use std::sync::{Mutex, PoisonError};

    use super::{Work, COUNTS};
    use crate::pool;

    /// Runs `f` from inside a pool task (as every client lane and
    /// evaluation task does), whichever thread ends up executing it, so
    /// every product `f` issues runs inline on that thread.
    pub fn nested(f: &(dyn Fn() + Sync)) {
        // Index 0 runs either on a worker or on this thread while it
        // owns the pool: both make a dispatch from inside `f` inline.
        while !pool::try_parallel_for(2, &|i| {
            if i == 0 {
                f();
            }
        }) {
            if pool::in_task() || pool::max_parallelism() == 1 {
                // Already inside a task, or no workers: every dispatch
                // is inline anyway.
                return f();
            }
            // Another test owns the pool right now.
            std::thread::yield_now();
        }
    }

    /// Runs `f` [`nested`] and returns what it did.
    pub fn measure(f: &(dyn Fn() + Sync)) -> Work {
        let done = Mutex::new(Work::default());
        nested(&|| {
            let before = COUNTS.with(Cell::take);
            f();
            *done.lock().unwrap_or_else(PoisonError::into_inner) =
                COUNTS.with(|c| c.replace(before));
        });
        done.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::time::Duration;

    use super::*;
    use crate::pool;

    /// `measure` called from inside a pool task runs `f` there instead of
    /// waiting for a pool it is itself keeping busy. The call runs on its
    /// own thread, so a regression fails here instead of hanging.
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a watchdog needs a thread the hang cannot hold"
    )]
    fn measure_returns_from_inside_a_pool_task() {
        let (done, finished) = mpsc::channel();
        let caller = std::thread::spawn(move || {
            pool::parallel_for(2, &|i| {
                if i == 0 {
                    let work = measure(&|| count(|w| w.passes += 3));
                    assert_eq!(work.passes, 3);
                }
            });
            let _ = done.send(());
        });
        // A hung caller cannot be joined; one that returned or panicked can.
        let waited = finished.recv_timeout(Duration::from_secs(60));
        if let Err(mpsc::RecvTimeoutError::Timeout) = waited {
            panic!("work::measure from inside a pool task did not return in 60 s");
        }
        caller.join().expect("the measuring task panicked");
    }
}
