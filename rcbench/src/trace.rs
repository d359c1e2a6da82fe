//! The benchmark's own spans: recorded around its calls into each layer,
//! kept in memory, and written out once the run ends.
//!
//! Each span has a name, start, end, parent and request id; a span's self
//! time is its duration minus the time its children cover.  Layer-boundary
//! spans also carry the process's `VmRSS` at their end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
struct SpanRecord {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    rss_mib: Option<f64>,
}

/// In-memory span log.  Disabled tracers record nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves a span id, so children finishing first can name their
    /// parent.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records span `id` from `start` to `end`.  `parent` is 0 for a root
    /// span; `rss_mib` is the `VmRSS` sampled at a layer boundary.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
        rss_mib: Option<f64>,
    ) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans
            .lock()
            .expect("span log lock poisoned")
            .push(SpanRecord {
                id,
                parent,
                request,
                name,
                start_ns: ns(start),
                end_ns: ns(end),
                rss_mib,
            });
    }

    /// Writes every span, in id order, as one tab-separated line: id,
    /// parent, request, name, start and end (ns since the tracer started),
    /// self time (ns) and VmRSS (MiB, `-` where not sampled).  Disabled
    /// tracers write nothing.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        let mut spans = self.spans.lock().expect("span log lock poisoned").clone();
        spans.sort_by_key(|s| s.id);
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for span in &spans {
            if span.parent != 0 {
                *child_ns.entry(span.parent).or_default() += span.end_ns - span.start_ns;
            }
        }
        let mut out =
            String::from("id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns\trss_mib\n");
        for span in &spans {
            let children = child_ns.get(&span.id).copied().unwrap_or(0);
            let rss = span
                .rss_mib
                .map_or_else(|| "-".to_string(), |mib| format!("{mib:.1}"));
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{rss}",
                span.id,
                span.parent,
                span.request,
                span.name,
                span.start_ns,
                span.end_ns,
                (span.end_ns - span.start_ns).saturating_sub(children),
            );
        }
        std::fs::write(path, out)
    }
}
