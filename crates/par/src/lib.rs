//! # rctree-par
//!
//! A hand-rolled scoped work-stealing thread pool for the multi-net layers
//! of the Penfield–Rubinstein reproduction.  Once each net costs one `O(n)`
//! sweep (the batch engine of `rctree-core`), a realistic deck of thousands
//! of nets is embarrassingly parallel — this crate is the runtime that
//! exploits that, end-to-end: SPEF deck parsing (`rctree-netlist`),
//! design-wide stage evaluation (`rctree-sta`), and the `deck_pipeline`
//! benchmark.
//!
//! It exists in lieu of [rayon](https://crates.io/crates/rayon) because this
//! build environment has no crates.io access; the API is deliberately a tiny
//! rayon-shaped subset so a later swap is mechanical.  See `README.md` in
//! this crate for the scheduling model and determinism guarantees.
//!
//! * [`scope`] — run a closure with a pool of scoped workers; spawned jobs
//!   may borrow the environment and are all joined before `scope` returns;
//! * [`par_map_indexed`] — order-preserving parallel map over a slice,
//!   bit-identical to the serial map for any worker count;
//! * [`global_pool`] / [`par_map_global`] — a persistent, lazily-started
//!   pool for `'static` (`Arc`-owned) jobs, reused across calls so that
//!   repeated small parallel regions (the ECO edit→re-query loop, a CLI
//!   session over many decks) stop paying thread startup;
//!   [`start_map_global`] / [`GlobalMap::join`] are its two halves, for a
//!   caller with work of its own to overlap with the map;
//! * [`JobDeque`] — the per-worker steal-half deque underneath the scoped
//!   pool;
//! * [`available_parallelism`] / [`default_jobs`] — worker-count policy
//!   (`RCTREE_JOBS` overrides the hardware default).
//!
//! ```
//! let squares = rctree_par::par_map_indexed(4, &[1u64, 2, 3, 4], |_, x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod deque;
pub mod global;
pub mod pool;

pub use crate::deque::JobDeque;
pub use crate::global::{global_pool, par_map_global, start_map_global, GlobalMap, GlobalPool};
pub use crate::pool::{par_map_indexed, scope, Scope};

/// Environment variable overriding the default worker count (used by CI to
/// force the parallel paths onto a fixed width).
pub const JOBS_ENV: &str = "RCTREE_JOBS";

/// The number of hardware threads available to this process (at least 1).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The default worker count for the analysis pipelines: the value of the
/// `RCTREE_JOBS` environment variable when it parses to a positive integer,
/// otherwise [`available_parallelism`].
pub fn default_jobs() -> usize {
    std::env::var(JOBS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&jobs| jobs >= 1)
        .unwrap_or_else(available_parallelism)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_is_positive() {
        assert!(available_parallelism() >= 1);
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<JobDeque<usize>>();
    }
}
