//! The persistent, lazily-started global worker pool and the
//! order-preserving parallel map on it.
//!
//! [`global_pool`] starts worker threads on first demand, parks them on a
//! condvar while idle, and reuses them for every later parallel region in
//! the process: `rctree-sta`'s design analysis and report rendering, the
//! SPEF reader of `rctree-netlist`, the simulator sweeps of `rctree-sim`,
//! and through them the CLI across decks and edit scripts and the ECO
//! edit→re-query loop, where each call's parallel region is small.
//!
//! Jobs own their data: every library crate forbids `unsafe`, and safe
//! Rust cannot hand a non-`'static` closure to an already-running thread.  A
//! map therefore shares an `Arc` of its state with the runners, which is
//! how `rctree-sta` stores its design core, how the SPEF reader shares
//! each batch of scanned sections, and why the simulator sweeps clone
//! their trees (one refcount each) into the `Arc` they map over.
//!
//! Results are written into slots addressed by chunk and concatenated in
//! index order, so the output is bit-identical to the serial map for every
//! width, even though chunks are claimed dynamically by whichever runner
//! is free.  A map runs at most four threads per hardware thread, the
//! caller included, whatever width it asks for.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// A unit of work owned by the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    /// Worker threads started so far (they never exit).
    workers: usize,
}

/// The process-wide persistent worker pool; obtain it with [`global_pool`].
pub struct GlobalPool {
    state: Mutex<QueueState>,
    work: Condvar,
}

impl std::fmt::Debug for GlobalPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobalPool")
            .field("workers", &self.workers())
            .finish()
    }
}

static POOL: OnceLock<GlobalPool> = OnceLock::new();

/// The process-wide persistent pool, started lazily on first use.
pub fn global_pool() -> &'static GlobalPool {
    POOL.get_or_init(|| GlobalPool {
        state: Mutex::new(QueueState::default()),
        work: Condvar::new(),
    })
}

impl GlobalPool {
    fn locked(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of worker threads currently alive (monotonically grows to the
    /// largest width any caller has requested).
    pub fn workers(&self) -> usize {
        self.locked().workers
    }

    /// Lazily starts workers until at least `target` are alive.  The
    /// worker count is reserved under the lock but the (slow) OS spawns
    /// happen outside it, so concurrent sessions keep enqueuing and
    /// dequeuing while the pool grows.
    fn ensure_workers(&'static self, target: usize) {
        let (first, last) = {
            let mut st = self.locked();
            let first = st.workers + 1;
            if st.workers < target {
                st.workers = target;
            }
            (first, st.workers)
        };
        for id in first..=last {
            std::thread::Builder::new()
                .name(format!("rctree-global-{id}"))
                .spawn(move || self.worker_loop())
                .expect("spawning a global-pool worker thread");
        }
    }

    fn worker_loop(&'static self) {
        loop {
            let job = {
                let mut st = self.locked();
                loop {
                    if let Some(job) = st.jobs.pop_front() {
                        break job;
                    }
                    st = self.work.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            };
            // Sessions handle their own panics; this guard only keeps a
            // stray unwind from killing a pooled worker.
            let _ = catch_unwind(AssertUnwindSafe(job));
        }
    }

    /// Queues one owned job on the pool (fire-and-forget; see
    /// [`par_map_global`] for the join-and-collect pattern).
    pub fn spawn(&'static self, job: impl FnOnce() + Send + 'static) {
        self.locked().jobs.push_back(Box::new(job));
        self.work.notify_one();
    }
}

/// One parallel-map session: dynamic chunk claiming, index-addressed result
/// slots, panic capture, and a completion latch the caller waits on.
struct Session<S, U, F> {
    state: Arc<S>,
    f: F,
    len: usize,
    chunk: usize,
    next: AtomicUsize,
    slots: Vec<Mutex<Vec<U>>>,
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<S, U, F> Session<S, U, F>
where
    F: Fn(usize, &S) -> U,
{
    /// Claims and runs chunks until none are left.  Returns once this
    /// runner can make no further progress.
    fn run(&self) {
        loop {
            let ci = self.next.fetch_add(1, Ordering::Relaxed);
            if ci >= self.slots.len() {
                return;
            }
            let start = ci * self.chunk;
            let end = (start + self.chunk).min(self.len);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                (start..end).map(|i| (self.f)(i, &self.state)).collect()
            }));
            match outcome {
                Ok(out) => {
                    *self.slots[ci].lock().unwrap_or_else(|e| e.into_inner()) = out;
                }
                Err(payload) => {
                    let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
                    slot.get_or_insert(payload);
                }
            }
            let mut remaining = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
            *remaining -= 1;
            if *remaining == 0 {
                self.done.notify_all();
            }
        }
    }
}

/// How many chunks of the input each runner of a map gets on average.
const CHUNKS_PER_WORKER: usize = 4;

/// The widest a map runs, the calling thread included: four threads per
/// hardware thread ([`crate::available_parallelism`], read once).  A wider
/// `jobs` is clamped to it, so no `--jobs`/`RCTREE_JOBS` value starts more
/// pool workers than `width_cap() - 1`; results do not depend on the width.
fn width_cap() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| 4 * crate::available_parallelism())
}

/// Order-preserving parallel map over indices `0..len` of a shared
/// `Arc`-owned state, executed on the persistent [`global_pool`].
///
/// `f(i, &state)` is evaluated for every index; results come back in index
/// order, **bit-identical** to the serial loop for any `jobs` width and any
/// scheduling (slots are addressed by index).  `jobs` bounds the
/// concurrency of this call: `jobs - 1` pool workers plus the calling
/// thread, which participates instead of idling, with `jobs` clamped to
/// four threads per hardware thread.  Inputs too small to amortise the
/// handoff (fewer than two items per worker) run serially on the caller.
///
/// This is [`start_map_global`] followed at once by [`GlobalMap::join`];
/// a caller with other work to do between the two calls them itself.
///
/// # Ownership caveat
///
/// The `jobs - 1` runner jobs queued on the pool each hold a clone of the
/// session (and therefore of `state`).  All *chunks* are guaranteed
/// complete when this returns, but a runner that never got dequeued (the
/// caller drained every chunk first) may sit in the pool queue briefly
/// afterwards, keeping `state`'s strong count above one.  Callers that
/// rely on unique ownership after the call (e.g. a subsequent
/// [`Arc::make_mut`]) should hand the pool a [`std::sync::Weak`] and
/// upgrade per item instead of sharing the `Arc` itself.
///
/// # Panics
///
/// Re-throws the first panic raised inside `f` after every chunk has
/// settled.
pub fn par_map_global<S, U, F>(jobs: usize, state: Arc<S>, len: usize, f: F) -> Vec<U>
where
    S: Send + Sync + 'static,
    U: Send + 'static,
    F: Fn(usize, &S) -> U + Send + Sync + 'static,
{
    start_map_global(jobs, state, len, f).join()
}

/// A [`par_map_global`] whose runners are queued and whose remaining
/// chunks, wait and results are still to come: call [`GlobalMap::join`].
///
/// Dropping it without joining leaves the queued runners to finish the
/// chunks on their own; the results are discarded.
#[must_use = "the results arrive only through `join`"]
pub struct GlobalMap<S, U, F> {
    run: Run<S, U, F>,
}

impl<S, U, F> std::fmt::Debug for GlobalMap<S, U, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pooled = matches!(self.run, Run::Pool(_));
        f.debug_struct("GlobalMap")
            .field("pooled", &pooled)
            .finish()
    }
}

/// How a started map runs: all on the caller at join, or on the pool.
enum Run<S, U, F> {
    Serial { state: Arc<S>, len: usize, f: F },
    Pool(Arc<Session<S, U, F>>),
}

/// The first half of [`par_map_global`]: queues `jobs - 1` runners on the
/// [`global_pool`], which start claiming chunks at once, and returns
/// without running any chunk on the caller.  The caller is free to do
/// other work before [`GlobalMap::join`]; a serial-sized input (see
/// [`par_map_global`]) queues nothing and runs wholly inside `join`.
pub fn start_map_global<S, U, F>(jobs: usize, state: Arc<S>, len: usize, f: F) -> GlobalMap<S, U, F>
where
    S: Send + Sync + 'static,
    U: Send + 'static,
    F: Fn(usize, &S) -> U + Send + Sync + 'static,
{
    let jobs = jobs.clamp(1, width_cap()).min(len.max(1));
    if jobs == 1 || len < 2 * jobs {
        return GlobalMap {
            run: Run::Serial { state, len, f },
        };
    }

    let chunk = len.div_ceil(jobs * CHUNKS_PER_WORKER).max(1);
    let n_chunks = len.div_ceil(chunk);
    let session = Arc::new(Session {
        state,
        f,
        len,
        chunk,
        next: AtomicUsize::new(0),
        slots: (0..n_chunks).map(|_| Mutex::new(Vec::new())).collect(),
        remaining: Mutex::new(n_chunks),
        done: Condvar::new(),
        panic: Mutex::new(None),
    });

    let pool = global_pool();
    pool.ensure_workers(jobs - 1);
    for _ in 0..jobs - 1 {
        let session = Arc::clone(&session);
        pool.spawn(move || session.run());
    }
    GlobalMap {
        run: Run::Pool(session),
    }
}

impl<S, U, F> GlobalMap<S, U, F>
where
    F: Fn(usize, &S) -> U,
{
    /// The second half of [`par_map_global`]: runs the chunks no runner
    /// has claimed yet on the calling thread, waits out the stragglers and
    /// collects the results in index order.
    ///
    /// # Panics
    ///
    /// Re-throws the first panic raised inside `f` after every chunk has
    /// settled.
    pub fn join(self) -> Vec<U> {
        let session = match self.run {
            Run::Serial { state, len, f } => return (0..len).map(|i| f(i, &state)).collect(),
            Run::Pool(session) => session,
        };
        // The caller is the final runner, then waits out any stragglers.
        session.run();
        {
            let mut remaining = session.remaining.lock().unwrap_or_else(|e| e.into_inner());
            while *remaining > 0 {
                remaining = session
                    .done
                    .wait(remaining)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        let payload = session
            .panic
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }

        let mut result = Vec::with_capacity(session.len);
        for slot in &session.slots {
            result.append(&mut slot.lock().unwrap_or_else(|e| e.into_inner()));
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_map_matches_serial_for_every_width() {
        let items: Vec<u64> = (0..311).collect();
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| i as u64 * x)
            .collect();
        let shared = Arc::new(items);
        for jobs in [1, 2, 3, 7, 16] {
            let par = par_map_global(jobs, Arc::clone(&shared), shared.len(), |i, items| {
                i as u64 * items[i]
            });
            assert_eq!(par, serial, "jobs = {jobs}");
        }
    }

    #[test]
    fn started_map_overlaps_the_caller_and_joins_to_the_serial_result() {
        let items: Vec<u64> = (0..500).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        let shared = Arc::new(items);
        for jobs in [1, 2, 3, 7] {
            let started = start_map_global(jobs, Arc::clone(&shared), shared.len(), |i, v| {
                v[i] * v[i] + 1
            });
            // The caller's own work between the halves, here a second map
            // of its own, does not disturb the first one's slots.
            let other = par_map_global(jobs, Arc::clone(&shared), 64, |i, v| v[i] + 7);
            assert_eq!(other, (7..71).collect::<Vec<u64>>(), "jobs = {jobs}");
            assert_eq!(started.join(), serial, "jobs = {jobs}");
        }
        // A map dropped unjoined is finished by its runners; the pool keeps
        // serving.
        drop(start_map_global(4, Arc::clone(&shared), 500, |i, v| v[i]));
        assert_eq!(par_map_global(4, shared, 500, |i, v| v[i]).len(), 500);
    }

    #[test]
    fn panic_in_a_started_map_surfaces_at_join() {
        let shared = Arc::new((0..256u64).collect::<Vec<_>>());
        let started = start_map_global(3, shared, 256, |i, v| {
            if i == 200 {
                panic!("boom");
            }
            v[i]
        });
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| started.join()));
        assert!(result.is_err());
    }

    #[test]
    fn pool_threads_persist_across_calls() {
        // The pool is process-global and other tests in this binary use it
        // concurrently, so only monotone properties are asserted: workers
        // exist after the first wide call and the count never shrinks.
        let shared = Arc::new((0..64u64).collect::<Vec<_>>());
        let _ = par_map_global(4, Arc::clone(&shared), 64, |i, v| v[i]);
        let after_first = global_pool().workers();
        assert!(after_first >= 3, "got {after_first}");
        let _ = par_map_global(4, Arc::clone(&shared), 64, |i, v| v[i] * 2);
        let _ = par_map_global(2, shared, 64, |i, v| v[i] * 3);
        assert!(global_pool().workers() >= after_first);
    }

    #[test]
    fn a_width_above_the_cap_starts_no_more_workers_than_the_cap() {
        let shared = Arc::new((0..128u64).collect::<Vec<_>>());
        let serial: Vec<u64> = shared.iter().map(|x| x * 3).collect();
        assert_eq!(par_map_global(64, shared, 128, |i, v| v[i] * 3), serial);
        let (workers, cap) = (global_pool().workers(), width_cap());
        assert!(workers <= cap, "{workers} workers, cap {cap}");
    }

    #[test]
    fn par_map_results_are_in_index_order_not_completion_order() {
        // Earlier indices sleep, so their chunks finish after later ones;
        // the output must still be index-ordered.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map_global(4, Arc::new(items.clone()), 64, |i, v| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            v[i]
        });
        assert_eq!(out, items);
    }

    #[test]
    fn tiny_inputs_fall_back_to_the_caller() {
        let shared = Arc::new(vec![5u32, 6, 7]);
        assert_eq!(
            par_map_global(8, Arc::clone(&shared), 3, |i, v| v[i] + 1),
            vec![6, 7, 8]
        );
        assert!(par_map_global(4, shared, 0, |i, v: &Vec<u32>| v[i]).is_empty());
    }

    #[test]
    fn panic_in_a_chunk_propagates_after_the_session_drains() {
        let shared = Arc::new((0..128u64).collect::<Vec<_>>());
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            par_map_global(4, shared, 128, |i, v| {
                if i == 77 {
                    panic!("boom");
                }
                v[i]
            })
        }));
        assert!(result.is_err());
        // The pool survives the panic and keeps serving.
        let shared = Arc::new(vec![1u64; 64]);
        let sum: u64 = par_map_global(4, shared, 64, |i, v| v[i]).iter().sum();
        assert_eq!(sum, 64);
    }
}
