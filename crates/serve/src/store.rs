//! The snapshot store, the rendered-report cache and the server counters.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

use rctree_obs::{Counter, Registry, Stability};
use rctree_sta::DesignSnapshot;

/// The published `(snapshot, revision)` pair readers serve from.
///
/// Readers take the read lock only long enough to clone an `Arc` (a
/// refcount bump), writers the write lock only long enough to swap the
/// pair — the critical sections are a few nanoseconds, so readers
/// effectively never block and never observe a torn state.  A true
/// lock-free `AtomicArc` swap would need `unsafe` (or an external crate),
/// both of which this workspace forbids; the `RwLock`-around-`Arc` pattern
/// is the safe-Rust equivalent with the same publication semantics:
/// every reader sees some committed prefix of the edit stream, and a
/// snapshot handed out keeps serving consistently however many edits land
/// after it.
#[derive(Debug)]
pub struct SnapshotStore {
    inner: RwLock<(Arc<DesignSnapshot>, u64)>,
}

impl SnapshotStore {
    /// Creates a store publishing `snapshot` as revision 0.
    pub fn new(snapshot: Arc<DesignSnapshot>) -> Self {
        SnapshotStore {
            inner: RwLock::new((snapshot, 0)),
        }
    }

    /// Loads the current `(snapshot, revision)` pair.
    pub fn load(&self) -> (Arc<DesignSnapshot>, u64) {
        match self.inner.read() {
            Ok(guard) => guard.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    /// Atomically publishes a successor snapshot.  The superseded pair is
    /// dropped after the write lock is released, so readers never wait
    /// while its chunks are freed.  One `serve.snapshot_swap` span covers
    /// the lock, the swap and that drop.
    pub fn publish(&self, snapshot: Arc<DesignSnapshot>, revision: u64) {
        let _span = rctree_obs::span("serve.snapshot_swap");
        let superseded = {
            let mut guard = match self.inner.write() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            std::mem::replace(&mut *guard, (snapshot, revision))
        };
        drop(superseded);
    }
}

/// Per-revision(-vector) cache of rendered `REPORT` response blocks,
/// keyed by the raw `--corner` selector (`None` for the plain verb).
/// Rendering a [`rctree_sta::TimingReport`] walks and formats every
/// endpoint, which dwarfs the cost of writing the already-rendered bytes
/// on big decks — and between edits every `REPORT` for the same selector
/// is byte-identical by construction, so the block is rendered once per
/// `(revision vector, selector)`, as one byte payload, and shared via
/// `Arc` after that.  On a sharded store the key is the full per-shard
/// revision vector: an edit on **any** shard drops the whole entry set, so
/// the cache never serves a superseded shard snapshot's rendering.
#[derive(Debug, Default)]
pub struct RenderedReportCache {
    inner: Mutex<ReportCacheState>,
}

#[derive(Debug, Default)]
struct ReportCacheState {
    revisions: Vec<u64>,
    rendered: HashMap<Option<String>, Arc<Vec<u8>>>,
}

impl RenderedReportCache {
    /// The rendered `REPORT` block for `(revision vector, selector)`,
    /// rendering it with `render` on a miss.  Returns the shared block
    /// and whether it was a cache hit.
    pub fn rendered(
        &self,
        revisions: &[u64],
        corner: Option<&str>,
        render: impl FnOnce() -> Vec<u8>,
    ) -> (Arc<Vec<u8>>, bool) {
        let mut cache = match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if cache.revisions != revisions {
            cache.revisions = revisions.to_vec();
            cache.rendered.clear();
        }
        if let Some(block) = cache.rendered.get(&corner.map(str::to_string)) {
            return (Arc::clone(block), true);
        }
        let block = Arc::new(render());
        cache
            .rendered
            .insert(corner.map(str::to_string), Arc::clone(&block));
        (block, false)
    }
}

/// Monotone server counters, shown by the `STATS` verb.  They are
/// schedule-dependent (how many queries raced ahead of an edit), so they
/// are deliberately *not* part of the deterministic response surface the
/// equivalence tests pin.
///
/// Since the observability PR these are **handles into the server's
/// [`rctree_obs::Registry`]** rather than standalone atomics: `STATS` and
/// the `METRICS` exposition read the same cells, so the two surfaces can
/// never disagree.  The shard-scoped tallies (applied/skipped/cache hits
/// per writer shard) live on the shards themselves, registered under
/// `rctree_shard_*` with a `shard` label; the `STATS` globals are derived
/// by summing them at render time.
#[derive(Debug)]
pub struct ServerStats {
    /// Connections accepted since start (`rctree_connections_total`).
    pub connections: Arc<Counter>,
    /// Requests parsed, excluding blank lines and the self-excluded
    /// `METRICS`/`TRACE` scrapes (`rctree_requests_total`).
    pub requests: Arc<Counter>,
    /// `QUERY` requests served — the same series as
    /// `rctree_requests_verb_total{verb="QUERY"}`.
    pub queries: Arc<Counter>,
    /// `REPORT` responses served from the per-revision rendered cache
    /// (`rctree_report_cache_hits_total`; a composed report counts once
    /// here and once per shard).
    pub report_cache_hits: Arc<Counter>,
    /// Request lines rejected by the protocol parser
    /// (`rctree_protocol_errors_total`).
    pub protocol_errors: Arc<Counter>,
}

impl ServerStats {
    /// Registers the counter families on `registry` and returns the
    /// handles.  Every family is `Stable`: the values depend only on the
    /// request stream, never on wall-clock time or worker count.
    pub fn new(registry: &Registry) -> ServerStats {
        ServerStats {
            connections: registry.counter("rctree_connections_total", Stability::Stable, &[]),
            requests: registry.counter("rctree_requests_total", Stability::Stable, &[]),
            queries: registry.counter(
                "rctree_requests_verb_total",
                Stability::Stable,
                &[("verb", "QUERY")],
            ),
            report_cache_hits: registry.counter(
                "rctree_report_cache_hits_total",
                Stability::Stable,
                &[],
            ),
            protocol_errors: registry.counter(
                "rctree_protocol_errors_total",
                Stability::Stable,
                &[],
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rctree_core::units::Seconds;
    use rctree_obs::{Obs, ObsConfig};
    use rctree_sta::{CellLibrary, Design};
    use rctree_workloads::SpefDeckParams;

    #[test]
    fn every_publish_is_one_snapshot_swap_span() {
        let trees = SpefDeckParams {
            nets: 2,
            ..SpefDeckParams::default()
        }
        .trees(7);
        let mut design =
            Design::from_extracted(CellLibrary::nmos_1981(), "inv_4x", trees).expect("deck builds");
        let snapshot = Arc::new(design.publish(0.5, Seconds::new(1e-6), 1).expect("publish"));
        let store = SnapshotStore::new(Arc::clone(&snapshot));
        let obs = Obs::new(ObsConfig::default());
        {
            let _scope = obs.enter();
            for revision in 1..=3 {
                store.publish(Arc::clone(&snapshot), revision);
            }
        }
        assert_eq!(store.load().1, 3);
        let stable = obs.registry().expose(true);
        assert!(
            stable.contains("rctree_phase_total{phase=\"serve.snapshot_swap\"} 3\n"),
            "{stable}"
        );
    }

    #[test]
    fn stats_share_series_with_the_registry() {
        let registry = Registry::new();
        let stats = ServerStats::new(&registry);
        stats.queries.bump();
        stats.connections.add(3);
        assert_eq!(stats.queries.get(), 1);
        assert_eq!(stats.connections.get(), 3);
        // The `queries` handle *is* the per-verb QUERY series: bumping one
        // moves the other, so STATS and METRICS cannot disagree.
        let per_verb = registry.counter(
            "rctree_requests_verb_total",
            Stability::Stable,
            &[("verb", "QUERY")],
        );
        per_verb.bump();
        assert_eq!(stats.queries.get(), 2);
        let text = registry.expose(false);
        assert!(text.contains("rctree_requests_verb_total{verb=\"QUERY\"} 2\n"));
        assert!(text.contains("rctree_connections_total 3\n"));
    }
}
