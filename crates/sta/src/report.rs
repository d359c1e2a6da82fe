//! Timing reports and the persistent endpoint order behind them.
//!
//! A [`TimingReport`] lists every endpoint sorted by descending worst
//! arrival (`arrival.max`, compared with `f64::total_cmp`), ties in net
//! order.  The list is an [`Endpoints`] sequence: entries live in
//! `Arc`-shared chunks of at most 128, so cloning a report costs one
//! refcount bump per chunk, and an incremental update re-files single
//! entries by key, copying only the chunks it touches (copy-on-write through
//! `Arc::make_mut`; a copy bumps the refcounts of the chunk's `Arc`-shared
//! endpoints).  Every chunk caches the largest `arrival.min` of its
//! entries, so [`TimingReport::slack_interval`] and
//! [`TimingReport::certification_against`] visit chunks instead of
//! endpoints.
//!
//! Rendering ([`TimingReport`]'s `Display`) writes each endpoint line piece
//! by piece, with no per-line string.  A large report renders in *runs* of
//! 32 whole chunks on the global pool with [`rctree_par::default_jobs`]
//! workers, in rounds of at most two runs per worker written out in report
//! order, so the buffered text stays a few MB however large the report.
//! The bytes are those of the serial rendering for every worker count.

use std::cmp::Ordering;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

use rctree_core::cert::Certification;
use rctree_core::units::Seconds;

/// Most entries one [`Endpoints`] chunk holds; an insert into a full chunk
/// splits it in half.  Larger chunks make report clones and drops cheaper
/// and each copy-on-write dearer; of 64, 128 and 256, 128 gave the
/// cheapest one-edit publish on a 2e4-net, ~89k-endpoint design.
const CHUNK: usize = 128;

/// A chunk that a removal leaves smaller than this merges into a neighbour
/// when the pair fits in one chunk, which keeps the chunk count `O(E/B)`
/// under any update stream.
const CHUNK_MIN: usize = CHUNK / 4;

/// An arrival-time interval propagated through the graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalWindow {
    /// Earliest possible arrival (sum of lower bounds).
    pub min: Seconds,
    /// Latest possible arrival (sum of upper bounds) — the certified value.
    pub max: Seconds,
}

impl ArrivalWindow {
    /// The zero window (primary inputs).
    pub const ZERO: ArrivalWindow = ArrivalWindow {
        min: Seconds::ZERO,
        max: Seconds::ZERO,
    };
}

/// One endpoint (primary output) in the timing report.
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointTiming {
    /// Primary-output name: one allocation per primary output, shared with
    /// the net's [`crate::Load::PrimaryOutput`], so every lane, revision
    /// and re-filed copy of the endpoint holds a refcount clone of it.
    pub name: Arc<str>,
    /// Arrival window at the endpoint.
    pub arrival: ArrivalWindow,
    /// The chain of instance names on the latest path to this endpoint,
    /// starting from the primary input side.
    ///
    /// The spine is shared (`Arc`) with the propagation state and with
    /// every endpoint reached through the same driver, so cloning an
    /// endpoint copies no `O(depth)` strings.
    pub critical_path: Arc<Vec<String>>,
}

/// One filed endpoint: its key — worst arrival plus the tie key that
/// orders equal worst arrivals — and the shared timing, so copying a chunk
/// bumps refcounts instead of cloning names.
#[derive(Debug, Clone)]
struct Entry {
    max: Seconds,
    tie: u64,
    timing: Arc<EndpointTiming>,
}

impl Entry {
    fn new(tie: u64, timing: Arc<EndpointTiming>) -> Entry {
        Entry {
            max: timing.arrival.max,
            tie,
            timing,
        }
    }

    /// Report order of this entry against the key `(max, tie)`.
    fn cmp_key(&self, max: Seconds, tie: u64) -> Ordering {
        key_order((self.max, self.tie), (max, tie))
    }
}

/// Report order of two `(worst arrival, tie key)` keys: descending worst
/// arrival, then ascending tie key.
fn key_order(a: (Seconds, u64), b: (Seconds, u64)) -> Ordering {
    b.0.value().total_cmp(&a.0.value()).then(a.1.cmp(&b.1))
}

/// A non-empty run of consecutive entries.
#[derive(Debug, Clone)]
struct Chunk {
    entries: Vec<Entry>,
    /// Largest `arrival.min` over `entries`.
    max_min: Seconds,
}

impl Chunk {
    fn new(entries: Vec<Entry>) -> Chunk {
        let max_min = max_min(&entries);
        Chunk { entries, max_min }
    }

    fn last(&self) -> &Entry {
        self.entries.last().expect("chunks are never empty")
    }
}

/// The largest `arrival.min` of a non-empty entry run.
fn max_min(entries: &[Entry]) -> Seconds {
    let first = entries[0].timing.arrival.min;
    entries[1..]
        .iter()
        .fold(first, |m, e| later(m, e.timing.arrival.min))
}

/// The later of two arrivals, keeping `a` on a tie.
fn later(a: Seconds, b: Seconds) -> Seconds {
    if a >= b {
        a
    } else {
        b
    }
}

/// Every endpoint of a [`TimingReport`], in report order: descending worst
/// arrival (`arrival.max` by `f64::total_cmp`), ties by net order.
///
/// The read API is `Vec`-like ([`Endpoints::len`], [`Endpoints::iter`],
/// [`Endpoints::first`], [`Endpoints::get`], indexing), and `==` compares
/// the endpoint sequences, not how they are chunked.  Collecting an
/// iterator sorts it stably into report order, so equal worst arrivals keep
/// their input order.
///
/// Cloning is `O(E/B)` refcount bumps for `E` endpoints in chunks of at
/// most `B` = 128; positional [`Endpoints::get`] walks the chunk list, so it
/// is `O(E/B)` as well.  [`Endpoints::first`] is `O(1)`.
#[derive(Clone, Default)]
pub struct Endpoints {
    chunks: Vec<Arc<Chunk>>,
    len: usize,
}

impl Endpoints {
    /// Builds the order from `(tie, timing)` pairs in any order; tie keys
    /// must be unique.
    pub(crate) fn from_keyed(mut entries: Vec<(u64, EndpointTiming)>) -> Endpoints {
        // Ties are unique, so the unstable sort is deterministic and equals
        // a stable sort on worst arrival over the tie-key order.  Sorting
        // before the endpoints move behind `Arc`s lays them out in memory
        // in report order, the order rendering reads them in.
        entries.sort_unstable_by(|(ta, a), (tb, b)| {
            key_order((a.arrival.max, *ta), (b.arrival.max, *tb))
        });
        Endpoints::from_sorted(
            entries
                .into_iter()
                .map(|(tie, timing)| Entry::new(tie, Arc::new(timing))),
        )
    }

    /// Cuts entries already in report order into chunks.
    fn from_sorted(entries: impl ExactSizeIterator<Item = Entry>) -> Endpoints {
        let len = entries.len();
        let mut chunks = Vec::with_capacity(len.div_ceil(CHUNK));
        let mut run = Vec::with_capacity(CHUNK.min(len));
        for entry in entries {
            run.push(entry);
            if run.len() == CHUNK {
                let full = std::mem::replace(&mut run, Vec::with_capacity(CHUNK));
                chunks.push(Arc::new(Chunk::new(full)));
            }
        }
        if !run.is_empty() {
            chunks.push(Arc::new(Chunk::new(run)));
        }
        Endpoints { chunks, len }
    }

    /// Number of endpoints.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no endpoints.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The endpoint with the latest worst arrival, `None` when empty.
    pub fn first(&self) -> Option<&EndpointTiming> {
        self.chunks.first().map(|c| &*c.entries[0].timing)
    }

    /// The endpoint at report position `index`, `None` when out of range.
    pub fn get(&self, mut index: usize) -> Option<&EndpointTiming> {
        for chunk in &self.chunks {
            match chunk.entries.get(index) {
                Some(entry) => return Some(&*entry.timing),
                None => index -= chunk.entries.len(),
            }
        }
        None
    }

    /// The endpoints in report order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            chunks: self.chunks.iter(),
            entries: Default::default(),
            remaining: self.len,
        }
    }

    /// The largest `arrival.min` over all endpoints, from the chunk caches.
    fn max_min(&self) -> Option<Seconds> {
        self.chunks.iter().map(|c| c.max_min).reduce(later)
    }

    /// The conjunction over every endpoint of its verdict against
    /// `required`.  In report order the endpoints that meet the budget form
    /// a suffix, so only the chunks before it are visited, and a chunk
    /// wholly past the budget is decided by its cached `arrival.min`.
    fn certification_against(&self, required: Seconds) -> Certification {
        let mut verdict = Certification::Pass;
        for chunk in &self.chunks {
            if chunk.entries[0].max <= required {
                break;
            }
            if chunk.last().max > required {
                // Every entry misses the budget; one fails outright exactly
                // when the chunk's latest earliest-arrival does.
                if chunk.max_min > required {
                    return Certification::Fail;
                }
                verdict = Certification::Indeterminate;
                continue;
            }
            for entry in &chunk.entries {
                let arrival = entry.timing.arrival;
                if arrival.max <= required {
                    break;
                }
                if arrival.min > required {
                    return Certification::Fail;
                }
                verdict = Certification::Indeterminate;
            }
            break;
        }
        verdict
    }

    /// Chunk `index` for writing, and whether it had to be copied first
    /// (it was shared with another report).
    fn chunk_mut(&mut self, index: usize) -> (&mut Chunk, usize) {
        let copied = usize::from(Arc::get_mut(&mut self.chunks[index]).is_none());
        (Arc::make_mut(&mut self.chunks[index]), copied)
    }

    /// Index of the chunk that holds, or would hold, the key `(max, tie)`:
    /// the first whose last entry does not sort before it (`chunks.len()`
    /// when every entry does).
    fn chunk_of(&self, max: Seconds, tie: u64) -> usize {
        self.chunks
            .partition_point(|c| c.last().cmp_key(max, tie) == Ordering::Less)
    }

    /// Files `timing` under tie key `tie`.  Returns the number of chunks
    /// copied.
    ///
    /// # Panics
    ///
    /// When an entry with the same key is already filed (a broken caller
    /// invariant: tie keys are unique).
    pub(crate) fn insert(&mut self, tie: u64, timing: EndpointTiming) -> usize {
        let entry = Entry::new(tie, Arc::new(timing));
        if self.chunks.is_empty() {
            self.chunks.push(Arc::new(Chunk::new(vec![entry])));
            self.len = 1;
            return 0;
        }
        let max = entry.max;
        let index = self.chunk_of(max, tie).min(self.chunks.len() - 1);
        let (chunk, copied) = self.chunk_mut(index);
        let at = match chunk.entries.binary_search_by(|e| e.cmp_key(max, tie)) {
            Ok(_) => panic!("endpoint tie key {tie} filed twice"),
            Err(at) => at,
        };
        chunk.max_min = later(chunk.max_min, entry.timing.arrival.min);
        chunk.entries.insert(at, entry);
        if chunk.entries.len() > CHUNK {
            let tail = chunk.entries.split_off(chunk.entries.len() / 2);
            chunk.max_min = max_min(&chunk.entries);
            self.chunks.insert(index + 1, Arc::new(Chunk::new(tail)));
        }
        self.len += 1;
        copied
    }

    /// Removes the entry filed under `(max, tie)`.  Returns the number of
    /// chunks copied.
    ///
    /// # Panics
    ///
    /// When no entry is filed under that key (a broken caller invariant:
    /// callers remove exactly the keys they inserted).
    pub(crate) fn remove(&mut self, tie: u64, max: Seconds) -> usize {
        let index = self.chunk_of(max, tie);
        assert!(
            index < self.chunks.len(),
            "endpoint tie key {tie} not filed"
        );
        let (chunk, mut copied) = self.chunk_mut(index);
        let at = chunk
            .entries
            .binary_search_by(|e| e.cmp_key(max, tie))
            .unwrap_or_else(|_| panic!("endpoint tie key {tie} not filed"));
        let gone = chunk.entries.remove(at);
        let left = chunk.entries.len();
        if left > 0 && gone.timing.arrival.min >= chunk.max_min {
            chunk.max_min = max_min(&chunk.entries);
        }
        self.len -= 1;
        if left == 0 {
            self.chunks.remove(index);
        } else if left < CHUNK_MIN {
            copied += self.merge_small(index);
        }
        copied
    }

    /// Merges the undersized chunk `index` with its smaller neighbour when
    /// the pair fits in one chunk.  Returns the number of chunks copied.
    fn merge_small(&mut self, index: usize) -> usize {
        let size = |i: usize| self.chunks.get(i).map_or(usize::MAX, |c| c.entries.len());
        let neighbour = match index.checked_sub(1) {
            Some(left) if size(left) <= size(index + 1) => left,
            _ => index + 1,
        };
        if size(neighbour).saturating_add(size(index)) > CHUNK {
            return 0;
        }
        let (left, right) = (index.min(neighbour), index.max(neighbour));
        let right = self.chunks.remove(right);
        let (tail, mut copied) = match Arc::try_unwrap(right) {
            Ok(chunk) => (chunk, 0),
            Err(shared) => ((*shared).clone(), 1),
        };
        let (chunk, c) = self.chunk_mut(left);
        copied += c;
        chunk.max_min = later(chunk.max_min, tail.max_min);
        chunk.entries.extend(tail.entries);
        copied
    }

    /// Asserts the structural invariants: no empty or oversize chunk, keys
    /// strictly increasing in report order, every cached `arrival.min`
    /// maximum equal to a recomputation, and `len` equal to the entry count.
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) {
        let mut count = 0;
        let mut prev: Option<&Entry> = None;
        for chunk in &self.chunks {
            assert!(!chunk.entries.is_empty(), "empty chunk");
            assert!(chunk.entries.len() <= CHUNK, "oversize chunk");
            assert_eq!(chunk.max_min, max_min(&chunk.entries), "stale max_min");
            for entry in &chunk.entries {
                assert_eq!(entry.max, entry.timing.arrival.max, "stale key");
                if let Some(p) = prev {
                    assert_eq!(
                        p.cmp_key(entry.max, entry.tie),
                        Ordering::Less,
                        "keys out of order"
                    );
                }
                prev = Some(entry);
                count += 1;
            }
        }
        assert_eq!(count, self.len, "len out of sync");
    }

    /// Number of chunks.
    #[cfg(test)]
    pub(crate) fn chunk_count(&self) -> usize {
        self.chunks.len()
    }
}

impl PartialEq for Endpoints {
    fn eq(&self, other: &Endpoints) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Endpoints {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<EndpointTiming> for Endpoints {
    /// Sorts the endpoints stably into report order: equal worst arrivals
    /// keep their iteration order.
    fn from_iter<I: IntoIterator<Item = EndpointTiming>>(iter: I) -> Endpoints {
        Endpoints::from_keyed((0u64..).zip(iter).collect())
    }
}

impl Index<usize> for Endpoints {
    type Output = EndpointTiming;

    fn index(&self, index: usize) -> &EndpointTiming {
        match self.get(index) {
            Some(timing) => timing,
            None => panic!(
                "endpoint index {index} out of range for {} endpoints",
                self.len
            ),
        }
    }
}

impl<'a> IntoIterator for &'a Endpoints {
    type Item = &'a EndpointTiming;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over [`Endpoints`] in report order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    chunks: std::slice::Iter<'a, Arc<Chunk>>,
    entries: std::slice::Iter<'a, Entry>,
    remaining: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a EndpointTiming;

    fn next(&mut self) -> Option<&'a EndpointTiming> {
        loop {
            if let Some(entry) = self.entries.next() {
                self.remaining -= 1;
                return Some(&*entry.timing);
            }
            self.entries = self.chunks.next()?.entries.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// Whole-design timing report.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Switching threshold used for all stage delays.
    pub threshold: f64,
    /// Required arrival time used for slack and certification.
    pub required_time: Seconds,
    /// Per-endpoint results, sorted by descending worst arrival.
    pub endpoints: Endpoints,
}

impl TimingReport {
    /// The endpoint with the largest guaranteed-worst-case arrival, or
    /// `None` for a report with no endpoints (a design whose nets feed only
    /// instance inputs produces such a report — it is not an error).
    pub fn critical_endpoint(&self) -> Option<&EndpointTiming> {
        self.endpoints.first()
    }

    /// Worst slack in the design: `required_time − worst arrival upper
    /// bound`.  Negative slack means the design may miss timing.
    ///
    /// An empty report (no endpoints) has nothing that can miss timing, so
    /// its worst slack is the full `required_time` — the vacuous analogue
    /// of "every endpoint meets the budget with the entire budget to
    /// spare".
    pub fn worst_slack(&self) -> Seconds {
        self.slack_against(self.required_time)
    }

    /// [`TimingReport::worst_slack`] against an arbitrary required time:
    /// the arrivals are budget-independent, so one report answers slack
    /// queries for any budget (the server's `CERTIFY` verb).
    pub fn slack_against(&self, required_time: Seconds) -> Seconds {
        match self.critical_endpoint() {
            Some(e) => required_time - e.arrival.max,
            None => required_time,
        }
    }

    /// The slack as an **interval** induced by the arrival windows:
    /// `[required − maxₑ(arrival.max), required − maxₑ(arrival.min)]`.
    ///
    /// The lower end is the guaranteed ([`TimingReport::worst_slack`])
    /// slack; the upper end is the most optimistic slack consistent with
    /// the bounds.  A negative lower end with a positive upper end is
    /// exactly the [`Certification::Indeterminate`] region.  An empty
    /// report collapses to `(required, required)`.
    pub fn slack_interval(&self) -> (Seconds, Seconds) {
        match (self.critical_endpoint(), self.endpoints.max_min()) {
            (Some(worst), Some(lo)) => (
                self.required_time - worst.arrival.max,
                self.required_time - lo,
            ),
            _ => (self.required_time, self.required_time),
        }
    }

    /// Three-valued certification of the whole design against the required
    /// time (the multi-stage generalisation of the paper's `OK` function).
    ///
    /// An empty report certifies as [`Certification::Pass`]: the verdict is
    /// the conjunction over all endpoints, and a conjunction over none is
    /// vacuously true.
    pub fn certification(&self) -> Certification {
        self.certification_against(self.required_time)
    }

    /// [`TimingReport::certification`] against an arbitrary required time.
    pub fn certification_against(&self, required_time: Seconds) -> Certification {
        self.endpoints.certification_against(required_time)
    }

    /// Composes the reports of disjoint design partitions (see
    /// [`crate::Design::partition`]) into one whole-design report:
    /// endpoints are concatenated in part order and sorted stably into
    /// report order, so for a partition of a design whose parts are
    /// timing-independent the composed report renders byte-identically to
    /// the monolithic one (ties keep part order, exactly as the monolithic
    /// order keeps net order).  Endpoints are shared with the parts, not
    /// copied.
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty — a composition over no partitions has
    /// no threshold or budget to report.
    pub fn compose<'a, I>(parts: I) -> TimingReport
    where
        I: IntoIterator<Item = &'a TimingReport>,
    {
        let mut iter = parts.into_iter().peekable();
        let first = *iter.peek().expect("compose needs at least one report");
        let mut all = Vec::new();
        for part in iter {
            debug_assert_eq!(part.threshold, first.threshold, "mixed-threshold compose");
            for chunk in &part.endpoints.chunks {
                all.extend(chunk.entries.iter().map(|e| Arc::clone(&e.timing)));
            }
        }
        let mut entries: Vec<Entry> = (0u64..)
            .zip(all)
            .map(|(tie, t)| Entry::new(tie, t))
            .collect();
        entries.sort_unstable_by(|a, b| a.cmp_key(b.max, b.tie));
        TimingReport {
            threshold: first.threshold,
            required_time: first.required_time,
            endpoints: Endpoints::from_sorted(entries.into_iter()),
        }
    }

    /// Renders the report with `jobs` workers: the header, one line per
    /// endpoint in report order, then the slack and certification lines.
    ///
    /// A report of at least two runs per worker renders its runs on the
    /// global pool, in rounds of at most two runs per worker; each round
    /// is written to `out` in report order before the next is rendered,
    /// so the extra memory is `2 · jobs` runs of text, not a second copy
    /// of the report.  A smaller report, or `jobs <= 1`, renders serially
    /// straight into `out`.  The bytes are the same for every `jobs`.  The
    /// endpoint lines run in one `sta.render` span on the calling thread,
    /// with the endpoint and run counts as attributes.
    pub(crate) fn render<W: fmt::Write>(&self, out: &mut W, jobs: usize) -> fmt::Result {
        writeln!(
            out,
            "timing report (threshold {:.2}, required {})",
            self.threshold, self.required_time
        )?;
        {
            let mut obs_span = rctree_obs::span("sta.render");
            obs_span.attr_u64("endpoints", self.endpoints.len() as u64);
            obs_span.attr_u64("runs", self.endpoints.runs() as u64);
            self.endpoints.render(out, jobs)?;
        }
        writeln!(out, "  worst slack: {}", self.worst_slack())?;
        writeln!(out, "  certification: {}", self.certification())
    }
}

/// Chunks per rendering run: 32 chunks of at most [`CHUNK`] endpoints,
/// 4,096 endpoint lines or ≈420 KB of text on a generated deck.
const RUN_CHUNKS: usize = 32;

impl Endpoints {
    /// Number of rendering runs: whole runs of [`RUN_CHUNKS`] chunks, the
    /// last one possibly shorter.
    fn runs(&self) -> usize {
        self.chunks.len().div_ceil(RUN_CHUNKS)
    }

    /// Writes every endpoint line in report order (see
    /// [`TimingReport::render`]).
    fn render<W: fmt::Write>(&self, out: &mut W, jobs: usize) -> fmt::Result {
        let runs = self.runs();
        if jobs < 2 || runs < 2 * jobs {
            return self.iter().try_for_each(|e| write_line(out, e));
        }
        let chunks = Arc::new(self.chunks.clone());
        for first in (0..runs).step_by(2 * jobs) {
            let count = (2 * jobs).min(runs - first);
            let texts = rctree_par::par_map_global(
                jobs.min(count / 2).max(1),
                Arc::clone(&chunks),
                count,
                move |i, chunks: &Vec<Arc<Chunk>>| render_run(chunks, first + i),
            );
            for text in texts {
                out.write_str(&text?)?;
            }
        }
        Ok(())
    }
}

/// The endpoint lines of run `run` of `chunks`.
fn render_run(chunks: &[Arc<Chunk>], run: usize) -> Result<String, fmt::Error> {
    let start = run * RUN_CHUNKS;
    let mut text = String::new();
    for chunk in &chunks[start..(start + RUN_CHUNKS).min(chunks.len())] {
        for entry in &chunk.entries {
            write_line(&mut text, &entry.timing)?;
        }
    }
    Ok(text)
}

/// Writes one endpoint line piece by piece:
/// `  <name>: arrival [<min>, <max>] via <inst> -> <inst>…` and a newline.
fn write_line<W: fmt::Write>(out: &mut W, e: &EndpointTiming) -> fmt::Result {
    out.write_str("  ")?;
    out.write_str(&e.name)?;
    out.write_str(": arrival [")?;
    write!(out, "{}", e.arrival.min)?;
    out.write_str(", ")?;
    write!(out, "{}", e.arrival.max)?;
    out.write_str("] via ")?;
    for (i, inst) in e.critical_path.iter().enumerate() {
        if i > 0 {
            out.write_str(" -> ")?;
        }
        out.write_str(inst)?;
    }
    out.write_char('\n')
}

impl fmt::Display for TimingReport {
    /// [`TimingReport::render`] with [`rctree_par::default_jobs`] workers,
    /// the policy [`crate::Design::analyze`] uses.  A report of fewer than
    /// four runs (two per worker at the smallest parallel width) renders
    /// serially without reading it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let jobs = if self.endpoints.runs() < 2 * 2 {
            1
        } else {
            rctree_par::default_jobs()
        };
        self.render(f, jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rctree_workloads::rng::Rng;

    fn timing(name: impl Into<Arc<str>>, min: f64, max: f64) -> EndpointTiming {
        EndpointTiming {
            name: name.into(),
            arrival: ArrivalWindow {
                min: Seconds::new(min),
                max: Seconds::new(max),
            },
            critical_path: Arc::new(Vec::new()),
        }
    }

    /// The reference model: `(tie, timing)` pairs kept sorted by a full
    /// stable sort after every change.
    fn sorted(model: &[(u64, EndpointTiming)]) -> Vec<EndpointTiming> {
        let mut v = model.to_vec();
        v.sort_by_key(|(tie, _)| *tie);
        v.sort_by(|(_, a), (_, b)| b.arrival.max.value().total_cmp(&a.arrival.max.value()));
        v.into_iter().map(|(_, t)| t).collect()
    }

    /// Worst arrivals drawn from a handful of values, so most keys tie.
    fn arrival(rng: &mut Rng) -> (f64, f64) {
        let max = 1.0 + rng.index(6) as f64;
        (max - rng.range_f64(0.0, 1.5), max)
    }

    #[test]
    fn every_insert_and_remove_keeps_the_chunk_invariants() {
        let mut rng = Rng::from_seed(0x0DE5);
        let mut order = Endpoints::default();
        let mut model: Vec<(u64, EndpointTiming)> = Vec::new();
        let mut next_tie = 0u64;
        for step in 0..3000 {
            // Grow towards ~400 entries, then churn around that size.
            let grow =
                model.is_empty() || (model.len() < 400 && rng.chance(0.7)) || rng.chance(0.5);
            if grow {
                let (min, max) = arrival(&mut rng);
                let e = timing(format!("e{next_tie}"), min, max);
                order.insert(next_tie, e.clone());
                model.push((next_tie, e));
                next_tie += 1;
            } else {
                let (tie, e) = model.swap_remove(rng.index(model.len()));
                order.remove(tie, e.arrival.max);
            }
            order.check_invariants();
            assert_eq!(order.len(), model.len(), "step {step}");
            assert!(
                order.iter().eq(sorted(&model).iter()),
                "step {step}: order diverged from the stable sort"
            );
        }
        assert!(order.chunk_count() <= model.len().div_ceil(CHUNK_MIN) + 1);
        // Draining leaves no chunks behind.
        for (tie, e) in model.drain(..) {
            order.remove(tie, e.arrival.max);
            order.check_invariants();
        }
        assert!(order.is_empty());
        assert_eq!(order.chunk_count(), 0);
    }

    #[test]
    fn writes_copy_only_shared_chunks_and_leave_clones_untouched() {
        let entries: Vec<EndpointTiming> = (0..10 * CHUNK)
            .map(|i| timing(format!("e{i}"), 0.5, 1.0 + (i % 97) as f64))
            .collect();
        let mut order: Endpoints = entries.iter().cloned().collect();
        order.check_invariants();
        assert_eq!(order.chunk_count(), 10);
        let published = order.clone();
        let before = published.iter().cloned().collect::<Vec<_>>();

        // Re-file one endpoint: the first write to a shared chunk copies
        // it, a second write to the same chunk does not.
        let e = order.iter().nth(3).expect("entry").clone();
        let tie = entries.iter().position(|x| x.name == e.name).unwrap() as u64;
        assert_eq!(order.remove(tie, e.arrival.max), 1);
        let moved = timing(e.name.clone(), 0.5, e.arrival.max.value() + 0.25);
        assert_eq!(order.insert(tie, moved), 0);
        order.check_invariants();
        assert!(published.iter().eq(before.iter()), "the clone changed");
        assert_ne!(order, published);
        // Once the clone is gone, its former chunks are written in place.
        drop(published);
        let last = order.iter().last().expect("entry").clone();
        let last_tie = entries.iter().position(|x| x.name == last.name).unwrap() as u64;
        assert_eq!(order.remove(last_tie, last.arrival.max), 0);
        order.check_invariants();
    }

    #[test]
    fn queries_agree_with_a_scan_of_every_endpoint() {
        let mut rng = Rng::from_seed(0xC3A7);
        for round in 0..40 {
            let n = rng.index(3 * CHUNK);
            let order: Endpoints = (0..n)
                .map(|i| {
                    let (min, max) = arrival(&mut rng);
                    timing(format!("e{i}"), min, max)
                })
                .collect();
            let all: Vec<&EndpointTiming> = order.iter().collect();
            assert_eq!(order.first().map(|e| &e.name), all.first().map(|e| &e.name));
            for (i, e) in all.iter().enumerate() {
                assert_eq!(&order[i], *e);
            }
            assert!(order.get(n).is_none());
            for required in [0.0, 0.9, 2.0, 3.4, 4.5, 6.0, 7.0] {
                let required = Seconds::new(required);
                let scan = all.iter().fold(Certification::Pass, |v, e| {
                    v.and(if e.arrival.max <= required {
                        Certification::Pass
                    } else if e.arrival.min > required {
                        Certification::Fail
                    } else {
                        Certification::Indeterminate
                    })
                });
                assert_eq!(
                    order.certification_against(required),
                    scan,
                    "round {round}, required {required}"
                );
            }
            let scan_min = all.iter().map(|e| e.arrival.min).reduce(later);
            assert_eq!(order.max_min(), scan_min, "round {round}");
        }

        // Chunks wholly past the budget fail on any entry's earliest
        // arrival, not only their first entry's.
        let mut entries: Vec<EndpointTiming> = (0..2 * CHUNK)
            .map(|i| timing(format!("e{i}"), 0.5, 10.0 - i as f64 * 1e-3))
            .collect();
        entries[CHUNK + 7].arrival.min = Seconds::new(9.0);
        let order: Endpoints = entries.into_iter().collect();
        assert_eq!(order.chunk_count(), 2);
        assert_eq!(
            order.certification_against(Seconds::new(1.0)),
            Certification::Fail
        );
        assert_eq!(
            order.certification_against(Seconds::new(9.5)),
            Certification::Indeterminate
        );
    }

    #[test]
    fn equality_ignores_the_chunk_layout() {
        let entries: Vec<EndpointTiming> = (0..3 * CHUNK)
            .map(|i| timing(format!("e{i}"), 0.0, (i % 7) as f64))
            .collect();
        let bulk: Endpoints = entries.iter().cloned().collect();
        let mut one_by_one = Endpoints::default();
        for (i, e) in entries.into_iter().enumerate().rev() {
            one_by_one.insert(i as u64, e);
        }
        one_by_one.check_invariants();
        assert_ne!(bulk.chunk_count(), one_by_one.chunk_count());
        assert_eq!(bulk, one_by_one);
        assert_eq!(format!("{bulk:?}"), format!("{one_by_one:?}"));
    }

    /// The reference rendering: one `writeln!` per line with the critical
    /// path joined into a string, the format the direct writer replaces.
    fn reference(report: &TimingReport) -> String {
        use std::fmt::Write as _;
        let mut text = String::new();
        writeln!(
            text,
            "timing report (threshold {:.2}, required {})",
            report.threshold, report.required_time
        )
        .unwrap();
        for e in &report.endpoints {
            writeln!(
                text,
                "  {}: arrival [{}, {}] via {}",
                e.name,
                e.arrival.min,
                e.arrival.max,
                e.critical_path.join(" -> ")
            )
            .unwrap();
        }
        writeln!(text, "  worst slack: {}", report.worst_slack()).unwrap();
        writeln!(text, "  certification: {}", report.certification()).unwrap();
        text
    }

    /// `n` endpoints with distinct non-ASCII names, already in report
    /// order, whose critical paths cycle through lengths 0, 1 and 3.
    fn endpoints(n: usize) -> Vec<EndpointTiming> {
        let paths = [
            Arc::new(Vec::new()),
            Arc::new(vec!["drv_ä".to_string()]),
            Arc::new(vec!["u0".to_string(), "µ1".to_string(), "ü2".to_string()]),
        ];
        (0..n)
            .map(|i| EndpointTiming {
                name: format!("pö{i}/nœud·{}", i % 7).into(),
                arrival: ArrivalWindow {
                    min: Seconds::new((i % 13) as f64 * 1e-12),
                    max: Seconds::new(1e-6 - i as f64 * 1e-12),
                },
                critical_path: Arc::clone(&paths[i % 3]),
            })
            .collect()
    }

    fn report_of(endpoints: &[EndpointTiming]) -> TimingReport {
        TimingReport {
            threshold: 0.5,
            required_time: Seconds::new(5e-7),
            endpoints: endpoints.iter().cloned().collect(),
        }
    }

    #[test]
    fn rendering_matches_the_reference_at_every_size_and_worker_count() {
        let run = RUN_CHUNKS * CHUNK;
        let sizes = [
            0,
            1,
            CHUNK - 1,
            CHUNK,
            CHUNK + 1,
            // Three runs render serially at any width; four are two runs per
            // worker at 2 workers, the smallest parallel report.
            3 * run,
            3 * run + 1,
            3 * run + 2,
            // The switch at 7 workers: 14 runs.
            13 * run,
            13 * run + 1,
            13 * run + 2,
            // Three full rounds at 7 workers and a short fourth one.
            46 * run + 77,
        ];
        let all = endpoints(*sizes.iter().max().unwrap());
        for n in sizes {
            let report = report_of(&all[..n]);
            assert_eq!(report.endpoints.len(), n);
            let want = reference(&report);
            assert_eq!(report.to_string(), want, "Display, {n} endpoints");
            for jobs in [1, 2, 7] {
                let mut text = String::new();
                report.render(&mut text, jobs).unwrap();
                assert!(text == want, "{jobs} workers, {n} endpoints");
            }
        }
    }

    #[test]
    fn one_render_span_per_call_whatever_the_worker_count() {
        let report = report_of(&endpoints(5 * RUN_CHUNKS * CHUNK));
        let obs = rctree_obs::Obs::new(rctree_obs::ObsConfig::default());
        {
            let _scope = obs.enter();
            for jobs in [1, 2, 7] {
                report.render(&mut String::new(), jobs).unwrap();
            }
        }
        let stable = obs.registry().expose(true);
        for series in [
            "rctree_phase_total{phase=\"sta.render\"} 3\n",
            "rctree_phase_attr_sum{attr=\"runs\",phase=\"sta.render\"} 15\n",
            "rctree_phase_attr_sum{attr=\"endpoints\",phase=\"sta.render\"} 61440\n",
        ] {
            assert!(stable.contains(series), "missing {series:?} in\n{stable}");
        }
    }
}
