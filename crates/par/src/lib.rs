//! # rctree-par
//!
//! A hand-rolled persistent thread pool for the multi-net layers of the
//! Penfield–Rubinstein reproduction.  Once each net costs one `O(n)`
//! sweep (the batch engine of `rctree-core`), a realistic deck of thousands
//! of nets is embarrassingly parallel — this crate is the runtime that
//! exploits that, end-to-end: SPEF deck parsing (`rctree-netlist`),
//! design-wide stage evaluation and report rendering (`rctree-sta`), and
//! the simulator's workload sweeps (`rctree-sim`).
//!
//! It exists in lieu of [rayon](https://crates.io/crates/rayon) because this
//! build environment has no crates.io access; the API is deliberately a tiny
//! subset so a later swap is mechanical.  See `README.md` in this crate for
//! the scheduling model and determinism guarantees.
//!
//! * [`global_pool`] / [`par_map_global`] — one persistent, lazily-started
//!   pool and the order-preserving parallel map on it: `jobs - 1` pool
//!   workers plus the calling thread claim chunks of `0..len`, and the
//!   results come back in index order, bit-identical to the serial map for
//!   every width.  Jobs own their data through an `Arc`.  A width becomes
//!   threads only here, capped at four per hardware thread;
//!   [`start_map_global`] / [`GlobalMap::join`] are the map's two halves,
//!   for a caller with work of its own to overlap with it;
//! * [`available_parallelism`] / [`default_jobs`] — worker-count policy
//!   (`RCTREE_JOBS` overrides the hardware default).
//!
//! ```
//! use std::sync::Arc;
//!
//! let items = Arc::new(vec![1u64, 2, 3, 4]);
//! let squares = rctree_par::par_map_global(4, Arc::clone(&items), items.len(), |i, v| {
//!     v[i] * v[i]
//! });
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod global;

pub use crate::global::{global_pool, par_map_global, start_map_global, GlobalMap, GlobalPool};

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
}

/// Checks of the one pool through the crate root, as the pipelines call it.
#[cfg(test)]
mod pool {
    mod tests {
        use crate::par_map_global;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        #[test]
        fn par_map_matches_serial_for_every_worker_count() {
            let items: Vec<u64> = (0..257).collect();
            let serial: Vec<u64> = items
                .iter()
                .enumerate()
                .map(|(i, x)| i as u64 * x)
                .collect();
            let shared = Arc::new(items);
            for jobs in 1..=16 {
                let par = par_map_global(jobs, Arc::clone(&shared), shared.len(), |i, v| {
                    i as u64 * v[i]
                });
                assert_eq!(par, serial, "jobs = {jobs}");
            }
        }

        #[test]
        fn par_map_handles_tiny_and_empty_inputs() {
            let shared = Arc::new(vec![9u32, 1, 2, 3, 4, 5, 6, 7, 8]);
            assert!(par_map_global(4, Arc::clone(&shared), 0, |i, v| v[i]).is_empty());
            assert_eq!(
                par_map_global(4, Arc::clone(&shared), 1, |i, v| (i, v[i])),
                vec![(0, 9)]
            );
            // Lengths on both sides of two items per worker, where a map
            // leaves the caller for the pool.
            for len in [3, 7, 8, 9] {
                let serial: Vec<u32> = shared[..len].iter().map(|x| x * 2).collect();
                let par = par_map_global(4, Arc::clone(&shared), len, |i, v| v[i] * 2);
                assert_eq!(par, serial, "len = {len}");
            }
        }

        #[test]
        fn job_panic_propagates_after_the_pool_drains() {
            // The last index panics, so every other index, its own chunk's
            // included, has run by the time the panic surfaces.
            let ran = Arc::new(AtomicU64::new(0));
            let result = catch_unwind(AssertUnwindSafe(|| {
                par_map_global(4, Arc::clone(&ran), 128, |i, ran| {
                    if i == 127 {
                        panic!("boom");
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                })
            }));
            assert!(result.is_err());
            // The panic did not cancel the other chunks.
            assert_eq!(ran.load(Ordering::Relaxed), 127);
        }
    }
}
