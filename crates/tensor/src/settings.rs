//! The per-run settings: the kernel tier and the client fan-out width.
//!
//! Neither changes a result bit, so they are a value the caller picks.
//! [`Settings::current`] is the innermost [`Settings::scope`] on the
//! calling thread; a pool job carries its dispatcher's value and its
//! workers run the job's tasks under it. Outside any scope the process
//! default applies, read once: the tier from `FT_TENSOR_SIMD` (see
//! [`crate::simd`]), the width from `FT_CLIENT_THREADS`, else the pool
//! size. The pool size (`FT_TENSOR_THREADS`) is a process setting.

use std::cell::Cell;
use std::sync::OnceLock;

use crate::pool;
use crate::simd::{self, Kernel};

/// What one run executes under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Settings {
    /// The tier every micro-kernel dispatch site uses.
    pub kernel: Kernel,
    /// Fan-out width of the round-level client engine
    /// (`ft_fedsim::exec`); `1` is the serial loop.
    pub client_threads: usize,
}

thread_local! {
    static SCOPED: Cell<Option<Settings>> = const { Cell::new(None) };
}

impl Settings {
    /// The settings in effect on this thread: the innermost
    /// [`Settings::scope`], else the process default.
    pub fn current() -> Settings {
        SCOPED.get().unwrap_or_else(process_default)
    }

    /// Runs `f` under `self`, on this thread and in every task of a pool
    /// job dispatched from it. The enclosing settings return when `f`
    /// returns or unwinds.
    ///
    /// # Panics
    ///
    /// Panics when this host's CPU cannot execute `self.kernel`
    /// ([`simd::supported`]): running it would be undefined behavior.
    pub fn scope<R>(self, f: impl FnOnce() -> R) -> R {
        assert!(
            simd::supported(self.kernel),
            "{:?} is not supported by this CPU",
            self.kernel
        );
        /// Puts the enclosing settings back, also on unwind.
        struct Restore(Option<Settings>);
        impl Drop for Restore {
            fn drop(&mut self) {
                SCOPED.set(self.0);
            }
        }
        let _restore = Restore(SCOPED.replace(Some(self)));
        f()
    }
}

/// The settings outside any scope.
fn process_default() -> Settings {
    static DEFAULT: OnceLock<Settings> = OnceLock::new();
    #[expect(clippy::disallowed_methods, reason = "the process default, read once")]
    let read = |name| std::env::var(name).ok();
    *DEFAULT.get_or_init(|| Settings {
        kernel: simd::decide(
            read("FT_TENSOR_SIMD").as_deref(),
            simd::available().pop().unwrap_or(Kernel::Portable),
        ),
        client_threads: read("FT_CLIENT_THREADS")
            .as_deref()
            .and_then(pool::parse_threads)
            .unwrap_or_else(pool::max_parallelism),
    })
}
