//! Timing reports and the persistent endpoint order behind them.
//!
//! A [`TimingReport`] lists every endpoint sorted by descending worst
//! arrival (`arrival.max`, compared with `f64::total_cmp`), ties in net
//! order.  The list is an [`Endpoints`] sequence, a two-level persistent
//! chunk tree: entries live inline in `Arc`-shared leaves of at most 32
//! under `Arc`-shared nodes of at most 32 leaves.  Cloning a report costs
//! one refcount bump per node, `O(E/(L·F))` for `E` endpoints in leaves of
//! `L` under nodes of `F`, and an incremental update re-files single
//! entries by key, copying (`Arc::make_mut`) only the node and the leaf it
//! writes when another report shares them: `F` refcount bumps for the
//! node, `2L` for the leaf, whose entries each hold a shared name and a
//! shared critical path.  Each node and leaf is cached in its parent with
//! its entry count, its last key and the largest `arrival.min` of its
//! entries, so finding an entry binary-searches the nodes, then one node's
//! leaves, and [`TimingReport::slack_interval`] and
//! [`TimingReport::certification_against`] read node caches before leaf
//! caches before endpoints.
//!
//! A whole order is built from *sorted runs*, each already in report
//! order: a range of net ranks the analysis's endpoint pass sorted on the
//! pool, or one part of a [`TimingReport::compose`].  One k-way merge lays
//! the sorted runs into full leaves under full nodes, so the order's shape
//! does not depend on how its endpoints were cut into sorted runs.
//!
//! # Rendering
//!
//! A report renders as bytes.  Each endpoint line is assembled in its
//! run's byte buffer from the name, the critical path and the two arrivals,
//! which [`rctree_core::shortest::push_f64`] prints as the exact bytes
//! `Seconds`' `Display` writes; no line goes through `fmt`.  A *run* is
//! four whole nodes (4,096 endpoint lines, ≈420 KB on a generated deck).
//! A report of at least two runs per worker renders its runs on the global
//! pool, in rounds of at most two runs per worker handed on in report
//! order, so no more than `2 · jobs` runs of text are buffered however
//! large the report; a smaller one renders run by run through one buffer.
//! The bytes are those of the serial rendering for every worker count.
//!
//! Three surfaces hand the runs on: [`TimingReport::write_to`] writes them
//! to an [`std::io::Write`] (`rcdelay report` streams into its standard
//! output), [`TimingReport::push_to`] appends them to a byte payload (the
//! server's cached `REPORT` block), and `Display` passes each run to the
//! formatter as one `str`, so `to_string()` and `write!(sink, "{report}")`
//! carry the same bytes.  All three render with
//! [`rctree_par::default_jobs`] workers, or serially below four runs.

use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::fmt;
use std::io::{self, Write as _};
use std::ops::{Index, Range};
use std::sync::{Arc, Mutex};

use rctree_core::cert::Certification;
use rctree_core::shortest::push_f64;
use rctree_core::units::Seconds;

use crate::chunk_tree::{self, ChunkTree, Summary, LEAF, NODE};

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

/// One endpoint (primary output) in the timing report.  A report holds
/// it inline in its order's leaves; copying a leaf clones the name and
/// the critical path by refcount.
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointTiming {
    /// Primary-output name: one allocation per primary output, shared with
    /// the net's [`crate::Load::PrimaryOutput`], so every lane, revision
    /// and re-filed copy of the endpoint holds a refcount clone of it.
    pub name: Arc<str>,
    /// Arrival window at the endpoint: the key it is filed under.
    pub arrival: ArrivalWindow,
    /// The chain of instance names on the latest path to this endpoint,
    /// starting from the primary input side.
    ///
    /// The list is shared (`Arc`) by every endpoint of the same net, and
    /// by every lane, revision and leaf copy that holds one of them, so
    /// cloning an endpoint copies no `O(depth)` strings.
    pub critical_path: Arc<Vec<String>>,
}

/// One filed endpoint: the tie key that orders equal worst arrivals, and
/// the timing inline.  Its key is the timing's worst arrival plus the tie
/// key, and a leaf's caches are recomputed from the inline windows.
#[derive(Debug, Clone)]
struct Entry {
    tie: u64,
    timing: EndpointTiming,
}

impl Entry {
    fn key(&self) -> (Seconds, u64) {
        (self.timing.arrival.max, self.tie)
    }
}

/// Report order of two `(worst arrival, tie key)` keys: descending worst
/// arrival, then ascending tie key.
fn key_order(a: (Seconds, u64), b: (Seconds, u64)) -> Ordering {
    b.0.value().total_cmp(&a.0.value()).then(a.1.cmp(&b.1))
}

/// The worst arrival `max` as a compact key whose ascending unsigned order
/// is report order, descending `f64::total_cmp`: the bits with every bit of
/// a negative flipped and only the sign bit of a positive (ascending
/// `total_cmp` order), then every bit complemented.
fn report_key(max: Seconds) -> u64 {
    let bits = max.value().to_bits();
    let ascending = if bits >> 63 == 1 {
        !bits
    } else {
        bits ^ (1 << 63)
    };
    !ascending
}

/// Endpoints being put into report order: pushed in ascending tie order,
/// then [`Run::sorted`].  What one range of an analysis's endpoint pass
/// fills on the pool.
pub(crate) struct Run {
    /// The endpoints in push order, each taken once by the gather.
    entries: Vec<Option<Entry>>,
    /// Per endpoint: its compact [`report_key`] and its push index.
    keys: Vec<(u64, usize)>,
}

impl Run {
    /// An empty run with room for `endpoints` pushes.
    pub(crate) fn with_capacity(endpoints: usize) -> Run {
        Run {
            entries: Vec::with_capacity(endpoints),
            keys: Vec::with_capacity(endpoints),
        }
    }

    /// Appends `timing` under tie key `tie`, which must exceed every tie
    /// pushed before it.
    pub(crate) fn push(&mut self, tie: u64, timing: EndpointTiming) {
        debug_assert!(
            self.entries
                .last()
                .is_none_or(|e| e.as_ref().is_some_and(|e| e.tie < tie)),
            "ties are pushed in ascending order"
        );
        self.keys
            .push((report_key(timing.arrival.max), self.entries.len()));
        self.entries.push(Some(Entry { tie, timing }));
    }

    /// The run in report order: a sort of the compact `(key, index)` pairs,
    /// then one gather of the endpoints in that order, into leaves.  Push
    /// indices ascend with the ties, so this is the order of the full keys.
    pub(crate) fn sorted(self) -> SortedRun {
        let Run {
            mut entries,
            mut keys,
        } = self;
        keys.sort_unstable();
        let mut gather = |&(_, i): &(u64, usize)| entries[i].take().expect("gathered once");
        SortedRun(
            keys.chunks(LEAF)
                .map(|leaf| leaf.iter().map(&mut gather).collect())
                .collect(),
        )
    }
}

/// A [`Run`] in report order, cut into full leaves (the last possibly
/// short): one run is the order's leaves as they are, and a merge of
/// several frees each leaf as it empties.
pub(crate) struct SortedRun(Vec<Vec<Entry>>);

impl SortedRun {
    fn len(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }

    /// The compact key of entry `i`; every leaf before it is full.
    fn key_at(&self, i: usize) -> u64 {
        report_key(self.0[i / LEAF][i % LEAF].timing.arrival.max)
    }

    /// How many entries have a key at most `key`, a count known to lie in
    /// `within`: a binary search of that range.
    fn count_upto(&self, within: Range<usize>, key: u64) -> usize {
        let (mut lo, mut hi) = (within.start, within.end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.key_at(mid) <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Keeps the entries before `at` and returns the rest.  Every leaf
    /// before `at` is full; a split leaf leaves its head here.
    fn split_off(&mut self, at: usize) -> SortedRun {
        let (leaf, offset) = (at / LEAF, at % LEAF);
        if offset == 0 {
            return SortedRun(self.0.split_off(leaf));
        }
        let mut rest = Vec::with_capacity(self.0.len() - leaf);
        rest.push(self.0[leaf].split_off(offset));
        rest.extend(self.0.drain(leaf + 1..));
        SortedRun(rest)
    }
}

/// Entries under one full node: a parallel merge cuts its output at
/// multiples of it.
const NODE_ENTRIES: usize = LEAF * NODE;

/// Per run, how many of its entries come among the first `p` of the merge
/// of `runs` (every leaf full but the last), which orders by key and a
/// tied key by run: every entry below the smallest key
/// with at least `p` entries at or below it, then the entries at that key,
/// run by run.  The key is found by bisection between the runs' extreme
/// keys; each run's count stays bracketed by the counts at the bisection's
/// bounds, so every step searches only the bracket.
fn co_ranks(runs: &[SortedRun], p: usize) -> Vec<usize> {
    let lens: Vec<usize> = runs.iter().map(SortedRun::len).collect();
    let filled = || runs.iter().zip(&lens).filter(|(_, &len)| len > 0);
    let (Some(mut lo), Some(mut hi)) = (
        filled().map(|(run, _)| run.key_at(0)).min(),
        filled().map(|(run, &len)| run.key_at(len - 1)).max(),
    ) else {
        return vec![0; runs.len()];
    };
    // Per run: its count below `lo`, and at or below `hi`.
    let mut below = vec![0; runs.len()];
    let mut upto = lens.to_vec();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let counts: Vec<usize> = runs
            .iter()
            .zip(below.iter().zip(&upto))
            .map(|(run, (&a, &b))| run.count_upto(a..b, mid))
            .collect();
        if counts.iter().sum::<usize>() >= p {
            (hi, upto) = (mid, counts);
        } else {
            (lo, below) = (mid + 1, counts);
        }
    }
    let mut rest = p - below.iter().sum::<usize>();
    below
        .iter()
        .zip(&upto)
        .map(|(&below, &upto)| {
            let take = (upto - below).min(rest);
            rest -= take;
            below + take
        })
        .collect()
}

/// Merges runs, each in report order and every tie of a run below every
/// tie of the runs after it, into full leaves under full nodes: one k-way
/// merge on the compact key, `O(n log k)`, in which the lower run wins a
/// tied key because its ties are lower.
fn merge<I: Iterator<Item = Entry>>(mut runs: Vec<I>) -> ChunkTree<Entry, Reach> {
    let mut heads: Vec<Option<Entry>> = runs.iter_mut().map(Iterator::next).collect();
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = heads
        .iter()
        .enumerate()
        .filter_map(|(r, head)| Some(Reverse((report_key(head.as_ref()?.timing.arrival.max), r))))
        .collect();
    std::iter::from_fn(|| {
        let mut top = heap.peek_mut()?;
        let Reverse((_, r)) = *top;
        let next = runs[r].next();
        match &next {
            Some(e) => *top = Reverse((report_key(e.timing.arrival.max), r)),
            None => {
                PeekMut::pop(top);
            }
        }
        std::mem::replace(&mut heads[r], next)
    })
    .collect()
}

/// What a node or leaf caches about its entries.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Reach {
    /// Largest `arrival.min` of the entries.
    max_min: Seconds,
    /// Key of the last entry in report order: the run's smallest worst
    /// arrival.
    last: (Seconds, u64),
}

impl Summary<Entry> for Reach {
    fn of(entries: &[Entry]) -> Reach {
        let (first, rest) = entries.split_first().expect("leaves are never empty");
        Reach {
            max_min: rest.iter().fold(first.timing.arrival.min, |m, e| {
                later(m, e.timing.arrival.min)
            }),
            last: entries[entries.len() - 1].key(),
        }
    }

    fn join(self, next: Reach) -> Reach {
        Reach {
            max_min: later(self.max_min, next.max_min),
            last: next.last,
        }
    }
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
/// their input order: they are the one sorted run of the merge that builds
/// an analysis's order from the ranges its endpoint pass sorted on the
/// pool.
///
/// The entries sit inline in two levels of `Arc`-shared chunks: leaves of
/// at most `L` = 32 entries under nodes of at most `F` = 32 leaves.
/// Cloning is `O(E/(L·F))` refcount bumps for `E` endpoints, one per node;
/// re-filing an endpoint after a clone copies one node and one leaf, two
/// refcount bumps per entry of the leaf (its name and its critical path).
/// Positional [`Endpoints::get`] walks the cached node counts, then one
/// node's leaf counts, so it is `O(E/(L·F) + F)`.  [`Endpoints::first`] is
/// `O(1)`.
#[derive(Clone, Default)]
pub struct Endpoints {
    tree: ChunkTree<Entry, Reach>,
}

impl Endpoints {
    /// The order of the endpoints in `runs`, every tie of a run below every
    /// tie of the runs after it: one run's leaves as they are, or one merge
    /// of the runs (see [`merge`]).  With `jobs` above one the merge runs
    /// on the global pool in up to `2 · jobs` segments of whole nodes: each
    /// segment's share of every run is found by bisection on the key
    /// ([`co_ranks`]) and split off, and the segments' nodes are laid one
    /// after the other, the tree a serial merge builds.
    pub(crate) fn merged(runs: Vec<SortedRun>, jobs: usize) -> Endpoints {
        let nodes = runs
            .iter()
            .map(SortedRun::len)
            .sum::<usize>()
            .div_ceil(NODE_ENTRIES);
        let segments = (2 * jobs).min(nodes);
        let flat = |runs: Vec<SortedRun>| -> Vec<_> {
            runs.into_iter()
                .map(|run| run.0.into_iter().flatten())
                .collect()
        };
        let tree = match <[SortedRun; 1]>::try_from(runs) {
            Ok([run]) => ChunkTree::from_leaves(run.0),
            Err(runs) if jobs < 2 || segments < 2 => merge(flat(runs)),
            Err(mut runs) => {
                let cuts: Vec<Vec<usize>> = (1..segments)
                    .map(|s| co_ranks(&runs, s * nodes / segments * NODE_ENTRIES))
                    .collect();
                // Split from the last cut back, so that every cut still
                // indexes full leaves.
                let mut pieces = Vec::with_capacity(segments);
                for at in cuts.iter().rev() {
                    let piece: Vec<SortedRun> = runs
                        .iter_mut()
                        .zip(at)
                        .map(|(run, &at)| run.split_off(at))
                        .collect();
                    pieces.push(Mutex::new(piece));
                }
                pieces.push(Mutex::new(runs));
                pieces.reverse();
                let trees = rctree_par::par_map_global(
                    jobs,
                    Arc::new(pieces),
                    segments,
                    move |s, pieces: &Vec<Mutex<Vec<SortedRun>>>| {
                        merge(flat(std::mem::take(&mut *lock(&pieces[s]))))
                    },
                );
                ChunkTree::concat(trees)
            }
        };
        Endpoints { tree }
    }

    /// Number of endpoints.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether there are no endpoints.
    pub fn is_empty(&self) -> bool {
        self.tree.len() == 0
    }

    /// The endpoint with the latest worst arrival, `None` when empty.
    pub fn first(&self) -> Option<&EndpointTiming> {
        self.get(0)
    }

    /// The endpoint at report position `index`, `None` when out of range.
    pub fn get(&self, index: usize) -> Option<&EndpointTiming> {
        self.tree.get(index).map(|e| &e.timing)
    }

    /// The endpoints in report order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            entries: self.tree.iter(),
        }
    }

    /// Each endpoint with its tie key, in report order.
    pub(crate) fn keyed(&self) -> impl Iterator<Item = (u64, &EndpointTiming)> {
        self.tree.iter().map(|e| (e.tie, &e.timing))
    }

    /// The largest `arrival.min` over all endpoints, from the node caches.
    fn max_min(&self) -> Option<Seconds> {
        self.tree.summary().map(|reach| reach.max_min)
    }

    /// The conjunction over every endpoint of its verdict against
    /// `required`.  In report order the endpoints that meet the budget form
    /// a suffix, so only the nodes and leaves before it are visited, and a
    /// node or leaf wholly past the budget is decided by its cached
    /// `arrival.min` maximum.
    fn certification_against(&self, required: Seconds) -> Certification {
        // Every entry of a run whose last entry misses the budget misses
        // it too; one fails outright exactly when the run's latest
        // earliest-arrival does.
        let whole = |reach: Reach| {
            (reach.last.0 > required).then(|| {
                if reach.max_min > required {
                    Certification::Fail
                } else {
                    Certification::Indeterminate
                }
            })
        };
        let mut verdict = Certification::Pass;
        for (node, leaves) in self.tree.nodes() {
            if let Some(v) = whole(node) {
                verdict = verdict.and(v);
                if verdict == Certification::Fail {
                    return verdict;
                }
                continue;
            }
            for (leaf, entries) in leaves {
                if let Some(v) = whole(leaf) {
                    verdict = verdict.and(v);
                    if verdict == Certification::Fail {
                        return verdict;
                    }
                    continue;
                }
                // This leaf's last entry meets the budget, so the scan
                // reaches the suffix here.
                for entry in entries {
                    let arrival = entry.timing.arrival;
                    if arrival.max <= required {
                        return verdict;
                    }
                    if arrival.min > required {
                        return Certification::Fail;
                    }
                    verdict = Certification::Indeterminate;
                }
            }
        }
        verdict
    }

    /// The leaf that holds, or would hold, `key`, and the entry's offset
    /// in it (`Err` when not filed).
    fn find(&self, key: (Seconds, u64)) -> ((usize, usize), Result<usize, usize>) {
        let at = self
            .tree
            .locate(|reach| key_order(reach.last, key) == Ordering::Less);
        let pos = self
            .tree
            .leaf(at)
            .binary_search_by(|e| key_order(e.key(), key));
        (at, pos)
    }

    /// Files `timing` under tie key `tie`.  Returns the number of leaves
    /// copied.
    ///
    /// # Panics
    ///
    /// When an entry with the same key is already filed (a broken caller
    /// invariant: tie keys are unique).
    pub(crate) fn insert(&mut self, tie: u64, timing: EndpointTiming) -> usize {
        let entry = Entry { tie, timing };
        match self.find(entry.key()) {
            (_, Ok(_)) => panic!("endpoint tie key {tie} filed twice"),
            (at, Err(pos)) => self.tree.insert(at, pos, entry),
        }
    }

    /// Removes the entry filed under `(max, tie)`.  Returns the number of
    /// leaves copied.
    ///
    /// # Panics
    ///
    /// When no entry is filed under that key (a broken caller invariant:
    /// callers remove exactly the keys they inserted).
    pub(crate) fn remove(&mut self, tie: u64, max: Seconds) -> usize {
        match self.find((max, tie)) {
            (at, Ok(pos)) => self.tree.remove(at, pos).1,
            (_, Err(_)) => panic!("endpoint tie key {tie} not filed"),
        }
    }

    /// Asserts the structural invariants: the tree's (no empty or oversize
    /// leaf or node, every cached count and summary equal to one rebuilt
    /// from its children), every node's cached last key and `arrival.min`
    /// maximum equal to one rebuilt from its entries, and keys strictly
    /// increasing in report order.
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) {
        self.tree.check_invariants();
        // A node's cache rebuilt from its entries, not from its leaves'
        // caches.
        for (node, leaves) in self.tree.nodes() {
            let entries: Vec<Entry> = leaves.flat_map(|(_, e)| e.iter().cloned()).collect();
            assert_eq!(node, Reach::of(&entries), "stale node cache");
        }
        let mut prev: Option<&Entry> = None;
        for entry in self.tree.iter() {
            if let Some(p) = prev {
                assert_eq!(
                    key_order(p.key(), entry.key()),
                    Ordering::Less,
                    "keys out of order"
                );
            }
            prev = Some(entry);
        }
    }
}

impl PartialEq for Endpoints {
    fn eq(&self, other: &Endpoints) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Endpoints {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<EndpointTiming> for Endpoints {
    /// Sorts the endpoints stably into report order: equal worst arrivals
    /// keep their iteration order.  The endpoints are one run, tied by
    /// position.
    fn from_iter<I: IntoIterator<Item = EndpointTiming>>(iter: I) -> Endpoints {
        let iter = iter.into_iter();
        let mut run = Run::with_capacity(iter.size_hint().0);
        for (tie, timing) in (0u64..).zip(iter) {
            run.push(tie, timing);
        }
        Endpoints::merged(vec![run.sorted()], 1)
    }
}

impl Index<usize> for Endpoints {
    type Output = EndpointTiming;

    fn index(&self, index: usize) -> &EndpointTiming {
        match self.get(index) {
            Some(timing) => timing,
            None => panic!(
                "endpoint index {index} out of range for {} endpoints",
                self.len()
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
    entries: chunk_tree::Iter<'a, Entry, Reach>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a EndpointTiming;

    fn next(&mut self) -> Option<&'a EndpointTiming> {
        self.entries.next().map(|e| &e.timing)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.entries.size_hint()
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
    /// [`crate::Design::partition`]) into one whole-design report: each
    /// part is a run in report order, and one merge of the runs puts them
    /// in report order, equal worst arrivals in part order.  For a
    /// partition of a design whose parts are timing-independent the
    /// composed report renders byte-identically to the monolithic one
    /// (ties keep part order, exactly as the monolithic order keeps net
    /// order).  Names and critical paths are shared with the parts, not
    /// copied.  One part is already in report order: its composition is a
    /// clone of it, one refcount per node.
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty — a composition over no partitions has
    /// no threshold or budget to report.
    pub fn compose<'a, I>(parts: I) -> TimingReport
    where
        I: IntoIterator<Item = &'a TimingReport>,
    {
        let mut iter = parts.into_iter();
        let first = iter.next().expect("compose needs at least one report");
        let Some(second) = iter.next() else {
            return first.clone();
        };
        // Each part's ties follow the parts before it, so the lower part
        // wins a tied worst arrival.
        let mut offset = 0u64;
        let runs = [first, second]
            .into_iter()
            .chain(iter)
            .map(|part| {
                debug_assert_eq!(part.threshold, first.threshold, "mixed-threshold compose");
                let ties = offset..;
                offset += part.endpoints.len() as u64;
                part.endpoints.tree.iter().zip(ties).map(|(e, tie)| Entry {
                    tie,
                    timing: e.timing.clone(),
                })
            })
            .collect();
        TimingReport {
            threshold: first.threshold,
            required_time: first.required_time,
            endpoints: Endpoints { tree: merge(runs) },
        }
    }

    /// Renders the report with `jobs` workers, handing its bytes to `emit`
    /// in report order: the header, one line per endpoint, then the slack
    /// and certification lines.
    ///
    /// Endpoint lines are assembled as bytes in *runs* of [`RUN_NODES`]
    /// nodes.  A report of at least two runs per worker renders its runs
    /// on the global pool, in rounds of at most two runs per worker; each
    /// round is emitted in report order before the next is rendered, so
    /// the extra memory is `2 · jobs` runs of text, not a second copy of
    /// the report.  A smaller report, or `jobs <= 1`, renders its runs
    /// serially through one buffer.  The bytes are the same for every
    /// `jobs`.  The endpoint lines run in one `sta.render` span on the
    /// calling thread, with the endpoint, run and byte counts as
    /// attributes.
    pub(crate) fn render<E>(
        &self,
        jobs: usize,
        emit: &mut impl FnMut(&[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut text = Vec::new();
        // Writing into a `Vec` cannot fail.
        let _ = writeln!(
            text,
            "timing report (threshold {:.2}, required {})",
            self.threshold, self.required_time
        );
        emit(&text)?;
        {
            let mut obs_span = rctree_obs::span("sta.render");
            obs_span.attr_u64("endpoints", self.endpoints.len() as u64);
            obs_span.attr_u64("runs", self.endpoints.runs() as u64);
            let bytes = self.endpoints.render(jobs, text, emit)?;
            obs_span.attr_u64("bytes", bytes);
        }
        let mut text = Vec::new();
        let _ = writeln!(text, "  worst slack: {}", self.worst_slack());
        let _ = writeln!(text, "  certification: {}", self.certification());
        emit(&text)
    }

    /// The worker count `Display` renders with: [`rctree_par::default_jobs`],
    /// the policy [`crate::Design::analyze`] uses, or one for a report of
    /// fewer than four runs (two per worker at the smallest parallel
    /// width), which renders serially without reading it.
    fn render_jobs(&self) -> usize {
        if self.endpoints.runs() < 2 * 2 {
            1
        } else {
            rctree_par::default_jobs()
        }
    }

    /// Writes the rendered report to `out`, run by run, with the workers
    /// `Display` uses: the bytes of `to_string()`, without building it.
    ///
    /// # Errors
    ///
    /// The first error `out` returns; nothing is written after it.
    pub fn write_to(&self, out: &mut impl io::Write) -> io::Result<()> {
        self.render(self.render_jobs(), &mut |text: &[u8]| out.write_all(text))
    }

    /// Appends the rendered report to `out`: the bytes of [`TimingReport::write_to`].
    pub fn push_to(&self, out: &mut Vec<u8>) {
        let appended: Result<(), std::convert::Infallible> =
            self.render(self.render_jobs(), &mut |text: &[u8]| {
                out.extend_from_slice(text);
                Ok(())
            });
        let Ok(()) = appended;
    }
}

/// Nodes per rendering run: four nodes of at most 32 leaves of at most 32
/// endpoints, 4,096 endpoint lines or ≈420 KB of text on a generated deck.
const RUN_NODES: usize = 4;

/// What a pooled render shares: a clone of the node list, one refcount per
/// node, and the spent run buffers, so a report allocates at most one
/// buffer per run in flight.
type Shared = (ChunkTree<Entry, Reach>, Mutex<Vec<Vec<u8>>>);

impl Endpoints {
    /// Number of rendering runs: whole runs of [`RUN_NODES`] nodes, the
    /// last one possibly shorter.
    fn runs(&self) -> usize {
        self.tree.node_count().div_ceil(RUN_NODES)
    }

    /// Emits every endpoint line in report order, a run at a time (see
    /// [`TimingReport::render`]); `text` is a spare buffer.  Returns the
    /// bytes emitted.
    fn render<E>(
        &self,
        jobs: usize,
        mut text: Vec<u8>,
        emit: &mut impl FnMut(&[u8]) -> Result<(), E>,
    ) -> Result<u64, E> {
        let runs = self.runs();
        let mut bytes = 0;
        if jobs < 2 || runs < 2 * jobs {
            for run in 0..runs {
                text.clear();
                push_run(&self.tree, run, &mut text);
                bytes += text.len() as u64;
                emit(&text)?;
            }
            return Ok(bytes);
        }
        let shared: Arc<Shared> = Arc::new((self.tree.clone(), Mutex::new(vec![text])));
        for first in (0..runs).step_by(2 * jobs) {
            let count = (2 * jobs).min(runs - first);
            let texts = rctree_par::par_map_global(
                jobs.min(count / 2).max(1),
                Arc::clone(&shared),
                count,
                move |i, (tree, spare): &Shared| {
                    let mut text = lock(spare).pop().unwrap_or_default();
                    text.clear();
                    push_run(tree, first + i, &mut text);
                    text
                },
            );
            for text in &texts {
                bytes += text.len() as u64;
                emit(text)?;
            }
            lock(&shared.1).extend(texts);
        }
        Ok(bytes)
    }
}

/// The guarded value, poisoned or not: a spare buffer is only ever
/// cleared before use.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Appends the endpoint lines of run `run` of `tree`, a leaf at a time.
///
/// A line's name and critical path sit behind pointers, usually outside
/// the cache.  Formatting a line's two arrivals keeps the processor busy
/// long enough that those misses are taken one line at a time, so each
/// leaf's names and paths are read first, their misses overlapping, and
/// formatted after: about half the time of a one-pass loop on a 1e5-net
/// deck.
fn push_run(tree: &ChunkTree<Entry, Reach>, run: usize, out: &mut Vec<u8>) {
    let start = run * RUN_NODES;
    for leaf in tree.leaves(start..(start + RUN_NODES).min(tree.node_count())) {
        let mut touched = 0u8;
        for entry in leaf {
            let e = &entry.timing;
            touched ^= e.name.bytes().next().unwrap_or(0);
            for inst in e.critical_path.iter() {
                touched ^= inst.bytes().next().unwrap_or(0);
            }
        }
        std::hint::black_box(touched);
        for entry in leaf {
            push_line(out, &entry.timing);
        }
    }
}

/// Appends one endpoint line as bytes:
/// `  <name>: arrival [<min> s, <max> s] via <inst> -> <inst>…` and a
/// newline, each arrival the bytes `Seconds`' `Display` writes.
fn push_line(out: &mut Vec<u8>, e: &EndpointTiming) {
    out.extend_from_slice(b"  ");
    out.extend_from_slice(e.name.as_bytes());
    out.extend_from_slice(b": arrival [");
    push_f64(out, e.arrival.min.value());
    out.extend_from_slice(b" s, ");
    push_f64(out, e.arrival.max.value());
    out.extend_from_slice(b" s] via ");
    for (i, inst) in e.critical_path.iter().enumerate() {
        if i > 0 {
            out.extend_from_slice(b" -> ");
        }
        out.extend_from_slice(inst.as_bytes());
    }
    out.push(b'\n');
}

impl fmt::Display for TimingReport {
    /// The bytes of [`TimingReport::write_to`], rendered with the same
    /// workers and handed to the formatter one run at a time, as a `str`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(self.render_jobs(), &mut |text: &[u8]| {
            // Names are `str`s and everything else is ASCII.
            f.write_str(std::str::from_utf8(text).expect("report text is UTF-8"))
        })
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

    /// Worst arrivals drawn from a handful of values, so most keys tie.
    fn arrival(rng: &mut Rng) -> (f64, f64) {
        let max = 1.0 + rng.index(6) as f64;
        (max - rng.range_f64(0.0, 1.5), max)
    }

    /// An order's entries as `(worst arrival, tie key, earliest arrival)`.
    fn keys(order: &Endpoints) -> Vec<(Seconds, u64, Seconds)> {
        order
            .tree
            .iter()
            .map(|e| (e.timing.arrival.max, e.tie, e.timing.arrival.min))
            .collect()
    }

    /// An order under random inserts and removes, beside the reference
    /// model: its `(max, tie, min)` keys kept sorted in report order.
    struct Churn {
        rng: Rng,
        order: Endpoints,
        model: Vec<(Seconds, u64, Seconds)>,
        next_tie: u64,
    }

    impl Churn {
        /// Files a fresh endpoint when `grow`, else removes a random one,
        /// while holding the last version; then checks both levels'
        /// invariants, the order against the model, and that the held
        /// version still reads as it did.
        fn step(&mut self, grow: bool) {
            let prev = self.order.clone();
            let prev_model = self.model.clone();
            if grow {
                let (min, max) = arrival(&mut self.rng);
                let tie = self.next_tie;
                self.next_tie += 1;
                let e = timing(format!("e{tie}"), min, max);
                let at = self
                    .model
                    .binary_search_by(|&(m, t, _)| key_order((m, t), (e.arrival.max, tie)))
                    .expect_err("tie keys are unique");
                self.model.insert(at, (e.arrival.max, tie, e.arrival.min));
                self.order.insert(tie, e);
            } else {
                let at = self.rng.index(self.model.len());
                let (max, tie, _) = self.model.remove(at);
                self.order.remove(tie, max);
            }
            self.order.check_invariants();
            assert_eq!(keys(&self.order), self.model, "order diverged");
            assert_eq!(keys(&prev), prev_model, "the held version changed");
        }
    }

    #[test]
    fn every_insert_and_remove_keeps_the_chunk_invariants() {
        use crate::chunk_tree::{LEAF, NODE};
        let mut churn = Churn {
            rng: Rng::from_seed(0x0DE5),
            order: Endpoints::default(),
            model: Vec::new(),
            next_tie: 0,
        };
        // Grow past three full nodes, so leaves and nodes split, ...
        while churn.model.len() <= 3 * LEAF * NODE {
            let grow = churn.model.is_empty() || churn.rng.chance(0.8);
            churn.step(grow);
        }
        assert!(churn.order.tree.node_count() > 3);
        // ... churn around that size, ...
        for _ in 0..1000 {
            let grow = churn.rng.chance(0.5);
            churn.step(grow);
        }
        let (len, tree) = (churn.model.len(), &churn.order.tree);
        assert!(tree.leaf_count() <= len.div_ceil(LEAF / 4) + tree.node_count());
        // ... then drain: leaves and nodes merge, and none is left behind.
        while !churn.model.is_empty() {
            churn.step(false);
        }
        assert!(churn.order.is_empty());
        assert_eq!(churn.order.tree.node_count(), 0);
        assert_eq!(churn.order.tree.leaf_count(), 0);
    }

    #[test]
    fn writes_copy_only_shared_chunks_and_leave_clones_untouched() {
        use crate::chunk_tree::{LEAF, NODE};
        let entries: Vec<EndpointTiming> = (0..3 * NODE * LEAF)
            .map(|i| timing(format!("e{i}"), 0.5, 1.0 + (i % 97) as f64))
            .collect();
        let mut order: Endpoints = entries.iter().cloned().collect();
        order.check_invariants();
        assert_eq!(order.tree.node_count(), 3);
        assert_eq!(order.tree.leaf_count(), 3 * NODE);
        let published = order.clone();
        let before = published.iter().cloned().collect::<Vec<_>>();

        // Re-file one endpoint of the second node under its key: the first
        // write to the shared path copies its node and its leaf, a second
        // write to the same leaf copies nothing, and every node off the
        // path stays the clone's.
        let e = order[NODE * LEAF + 3].clone();
        let tie = entries.iter().position(|x| x.name == e.name).unwrap() as u64;
        assert_eq!(order.remove(tie, e.arrival.max), 1);
        assert_eq!(order.tree.unshared_with(&published.tree), (1, 1));
        let moved = timing(e.name.clone(), 0.25, e.arrival.max.value());
        assert_eq!(order.insert(tie, moved), 0);
        assert_eq!(order.tree.unshared_with(&published.tree), (1, 1));
        assert_eq!(published.tree.unshared_with(&order.tree), (1, 1));
        order.check_invariants();
        published.check_invariants();
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
        use crate::chunk_tree::{LEAF, NODE};
        let mut rng = Rng::from_seed(0xC3A7);
        for round in 0..40 {
            let n = rng.index(3 * LEAF * NODE);
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

        // Leaves, and nodes, wholly past the budget fail on any entry's
        // earliest arrival, not only their first entry's: two runs past
        // the budget, the second holding one failing entry, then a run
        // that meets it.
        for run in [LEAF, LEAF * NODE] {
            let mut entries: Vec<EndpointTiming> = (0..3 * run)
                .map(|i| {
                    if i < 2 * run {
                        timing(format!("e{i}"), 0.5, 10.0 - i as f64 * 1e-4)
                    } else {
                        timing(format!("e{i}"), 0.25, 0.5)
                    }
                })
                .collect();
            entries[run + 7].arrival.min = Seconds::new(9.0);
            let order: Endpoints = entries.into_iter().collect();
            let leaves = if run == LEAF { (1, 3) } else { (3, 3 * NODE) };
            assert_eq!((order.tree.node_count(), order.tree.leaf_count()), leaves);
            assert_eq!(
                order.certification_against(Seconds::new(1.0)),
                Certification::Fail
            );
            assert_eq!(
                order.certification_against(Seconds::new(9.5)),
                Certification::Indeterminate
            );
            assert_eq!(order.max_min(), Some(Seconds::new(9.0)));
        }
    }

    #[test]
    fn equality_ignores_the_chunk_layout() {
        use crate::chunk_tree::LEAF;
        let entries: Vec<EndpointTiming> = (0..3 * LEAF)
            .map(|i| timing(format!("e{i}"), 0.0, (i % 7) as f64))
            .collect();
        let bulk: Endpoints = entries.iter().cloned().collect();
        let mut one_by_one = Endpoints::default();
        for (i, e) in entries.into_iter().enumerate().rev() {
            one_by_one.insert(i as u64, e);
        }
        one_by_one.check_invariants();
        assert_ne!(bulk.tree.leaf_count(), one_by_one.tree.leaf_count());
        assert_eq!(bulk, one_by_one);
        assert_eq!(format!("{bulk:?}"), format!("{one_by_one:?}"));
    }

    /// Worst arrivals at the edges of the `f64` order: both zeros, the
    /// smallest subnormals, `MIN_POSITIVE`, `MAX`, both infinities and NaNs
    /// of both signs with several payloads.
    fn edge_values() -> Vec<f64> {
        let positive = [
            0.0,
            f64::from_bits(1),
            f64::from_bits(2),
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::from_bits(0x7fff_ffff_ffff_ffff),
        ];
        positive.iter().flat_map(|&x| [x, -x]).collect()
    }

    #[test]
    fn the_compact_key_orders_as_reversed_total_cmp() {
        let key = |x: f64| report_key(Seconds::new(x));
        let check = |a: f64, b: f64| {
            assert_eq!(
                key(a).cmp(&key(b)),
                b.total_cmp(&a),
                "{a:?} ({:#x}) against {b:?} ({:#x})",
                a.to_bits(),
                b.to_bits()
            );
        };
        let edges = edge_values();
        for &a in &edges {
            for &b in &edges {
                check(a, b);
            }
        }
        let mut rng = Rng::from_seed(0x0B17);
        let seeded: Vec<f64> = (0..100_000)
            .map(|_| f64::from_bits(rng.next_u64()))
            .collect();
        for &a in &seeded {
            for &b in &edges {
                check(a, b);
                check(b, a);
            }
            check(a, seeded[rng.index(seeded.len())]);
            check(a, a);
        }
    }

    #[test]
    fn merging_sorted_runs_equals_a_stable_sort_of_their_concatenation() {
        use crate::chunk_tree::{LEAF, NODE};
        let worst = [0.0, -0.0, 1e-9, 2.5e-9, 1.0, 7.0];
        let mut rng = Rng::from_seed(0x3E26);
        for k in [1, 2, 3, 7, 64] {
            for round in 0..3 {
                // `k` runs, some empty, each in ascending tie order and
                // every tie above the runs' before it, with gaps.
                let mut tie = 0u64;
                let records: Vec<Vec<(u64, EndpointTiming)>> = (0..k)
                    .map(|_| {
                        let len = match rng.chance(0.25) {
                            true => 0,
                            false => rng.index(5 * LEAF * NODE / k + 2),
                        };
                        (0..len)
                            .map(|_| {
                                let max = worst[rng.index(worst.len())];
                                let e = timing(format!("e{tie}"), max - 0.5, max);
                                let filed = (tie, e);
                                tie += 1 + rng.index(3) as u64;
                                filed
                            })
                            .collect()
                    })
                    .collect();
                let mut all: Vec<&(u64, EndpointTiming)> = records.iter().flatten().collect();
                all.sort_by(|(_, a), (_, b)| {
                    b.arrival.max.value().total_cmp(&a.arrival.max.value())
                });
                let want: Vec<(u64, &str)> = all.iter().map(|(t, e)| (*t, &*e.name)).collect();
                for jobs in [1, 2, 7] {
                    let runs: Vec<SortedRun> = records
                        .iter()
                        .map(|records| {
                            let mut run = Run::with_capacity(records.len());
                            for (tie, e) in records {
                                run.push(*tie, e.clone());
                            }
                            run.sorted()
                        })
                        .collect();
                    let merged = Endpoints::merged(runs, jobs);
                    merged.check_invariants();
                    let got: Vec<(u64, &str)> =
                        merged.keyed().map(|(t, e)| (t, &*e.name)).collect();
                    assert_eq!(got, want, "{k} runs, round {round}, {jobs} jobs");
                    // Full leaves under full nodes, however the runs and
                    // the merge were cut.
                    let tree = &merged.tree;
                    assert_eq!(tree.leaf_count(), all.len().div_ceil(LEAF), "{k} runs");
                    assert_eq!(
                        tree.node_count(),
                        all.len().div_ceil(LEAF * NODE),
                        "{k} runs"
                    );
                }
            }
        }
    }

    #[test]
    fn composing_random_parts_equals_collecting_and_sorting_them() {
        use crate::chunk_tree::{LEAF, NODE};
        let mut rng = Rng::from_seed(0xC0B5);
        for parts in [2, 3, 7] {
            let reports: Vec<TimingReport> = (0..parts)
                .map(|p| {
                    let n = match rng.chance(0.2) {
                        true => 0,
                        false => rng.index(2 * LEAF * NODE),
                    };
                    let endpoints: Vec<EndpointTiming> = (0..n)
                        .map(|i| {
                            let (min, max) = arrival(&mut rng);
                            timing(format!("p{p}e{i}"), min, max)
                        })
                        .collect();
                    report_of(&endpoints)
                })
                .collect();
            let composed = TimingReport::compose(&reports);
            composed.endpoints.check_invariants();
            // The oracle: every part's endpoints collected in part order,
            // tied by position, and sorted into report order.
            let mut all: Vec<(u64, &EndpointTiming)> = (0u64..)
                .zip(reports.iter().flat_map(|r| r.endpoints.iter()))
                .collect();
            all.sort_unstable_by(|(ta, a), (tb, b)| {
                key_order((a.arrival.max, *ta), (b.arrival.max, *tb))
            });
            assert!(
                composed.endpoints.keyed().eq(all.iter().copied()),
                "{parts} parts"
            );
        }
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
        use crate::chunk_tree::{LEAF, NODE};
        let run = RUN_NODES * NODE * LEAF;
        let sizes = [
            0,
            1,
            LEAF - 1,
            LEAF,
            LEAF + 1,
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
            let mut written = Vec::new();
            report.write_to(&mut written).unwrap();
            assert!(written == want.as_bytes(), "write_to, {n} endpoints");
            let mut pushed = b"kept".to_vec();
            report.push_to(&mut pushed);
            assert!(pushed[4..] == *want.as_bytes(), "push_to, {n} endpoints");
            for jobs in [1, 2, 7] {
                assert!(
                    rendered(&report, jobs) == want.as_bytes(),
                    "{jobs} workers, {n} endpoints"
                );
            }
        }
    }

    /// `report` rendered with `jobs` workers into one buffer.
    fn rendered(report: &TimingReport, jobs: usize) -> Vec<u8> {
        let mut text = Vec::new();
        let done: Result<(), ()> = report.render(jobs, &mut |t: &[u8]| {
            text.extend_from_slice(t);
            Ok(())
        });
        done.unwrap();
        text
    }

    #[test]
    fn a_failing_sink_ends_the_render_at_its_first_error() {
        use crate::chunk_tree::{LEAF, NODE};
        let report = report_of(&endpoints(9 * RUN_NODES * NODE * LEAF));
        for jobs in [1, 2, 7] {
            let mut calls = 0;
            let done = report.render(jobs, &mut |_: &[u8]| {
                calls += 1;
                if calls == 3 {
                    Err(calls)
                } else {
                    Ok(())
                }
            });
            assert_eq!((done, calls), (Err(3), 3), "{jobs} workers");
        }
    }

    #[test]
    fn one_render_span_per_call_whatever_the_worker_count() {
        use crate::chunk_tree::{LEAF, NODE};
        let report = report_of(&endpoints(5 * RUN_NODES * NODE * LEAF));
        let obs = rctree_obs::Obs::new(rctree_obs::ObsConfig::default());
        {
            let _scope = obs.enter();
            for jobs in [1, 2, 7] {
                rendered(&report, jobs);
            }
        }
        // The endpoint lines: the reference without its header and its two
        // closing lines.
        let text = reference(&report);
        let lines = text.lines().collect::<Vec<_>>();
        let line_bytes: usize = lines[1..lines.len() - 2].iter().map(|l| l.len() + 1).sum();
        let stable = obs.registry().expose(true);
        for series in [
            "rctree_phase_total{phase=\"sta.render\"} 3\n".to_string(),
            "rctree_phase_attr_sum{attr=\"runs\",phase=\"sta.render\"} 15\n".to_string(),
            "rctree_phase_attr_sum{attr=\"endpoints\",phase=\"sta.render\"} 61440\n".to_string(),
            format!(
                "rctree_phase_attr_sum{{attr=\"bytes\",phase=\"sta.render\"}} {}\n",
                3 * line_bytes
            ),
        ] {
            assert!(stable.contains(&series), "missing {series:?} in\n{stable}");
        }
    }
}
