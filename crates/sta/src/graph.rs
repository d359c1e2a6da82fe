//! Multi-stage timing graphs: instances, nets, arrival-time propagation and
//! critical-path extraction.
//!
//! A [`Design`] is a DAG of cell instances connected by nets.  Each net is
//! driven either by a primary input or by an instance's output, carries an
//! extracted interconnect [`RcTree`], and fans out to instance inputs and/or
//! primary outputs.  Arrival times are propagated in topological order as
//! **intervals** `[min, max]`: the lower ends use the Penfield–Rubinstein
//! lower delay bounds, the upper ends the upper bounds, so the reported
//! worst-case arrival at every endpoint is a *guaranteed* bound rather than
//! an estimate — exactly the certification use-case of the paper's abstract.

use std::cell::{OnceCell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use rctree_core::algebra::{DelayValue, Poly2, SymbolicTimes};
use rctree_core::batch::BatchTimes;
use rctree_core::bounds::{symbolic_delay_bounds, DelayBounds, SymbolicDelayBounds};
use rctree_core::cert::Certification;
use rctree_core::corner::CornerSet;
use rctree_core::element::Branch;
use rctree_core::intern::{Interner, NameId};
use rctree_core::moments::CharacteristicTimes;
use rctree_core::tree::{NodeId, RcTree, TreeEdit};
use rctree_core::units::{Farads, Ohms, Seconds};

use crate::cell::{Cell, CellLibrary};
use crate::chunk_tree::ChunkTree;
use crate::error::{Result, StaError};
use crate::report::{ArrivalWindow, EndpointTiming, Endpoints, Run, SortedRun, TimingReport};
use crate::stage::{
    augmented_batch, lane_bounds, stage_symbolic_bounds, stage_symbolic_sweep, StageScales,
    StageScratch,
};

thread_local! {
    /// Per-thread splice columns and sweep buffers of the stage sweep
    /// ([`lane_bounds`]).  The global pool's workers are persistent, so
    /// each worker's scratch survives across nets *and* across calls — the
    /// steady state allocates only the buffers the windows go to, one per
    /// lane per range of nets.
    static STAGE_SCRATCH: RefCell<StageScratch> = RefCell::new(StageScratch::default());
}

/// What drives a net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Driver {
    /// A primary input of the design (arrival time zero).
    PrimaryInput,
    /// The output of the named instance.
    Instance(String),
}

/// What a net sink connects to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Load {
    /// The input of the named instance.
    Instance(String),
    /// A primary output (endpoint) of the design.  The name is one shared
    /// allocation: the propagation topology, every endpoint of every
    /// corner lane and revision, and every snapshot view hold refcount
    /// clones of it.
    PrimaryOutput(Arc<str>),
}

/// One sink of a net: a node of the interconnect tree plus what hangs there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sink {
    /// Name of the interconnect-tree node the load is attached to.
    pub node: String,
    /// What the sink drives.
    pub load: Load,
}

/// A net: driver, extracted interconnect and sinks.
#[derive(Debug, Clone)]
pub struct Net {
    /// Net name.
    pub name: String,
    /// Who drives the net.
    pub driver: Driver,
    /// Extracted interconnect; its input node is the driver's output pin.
    pub interconnect: RcTree,
    /// Fan-out of the net.
    pub sinks: Vec<Sink>,
}

/// Per-corner timing results: the corner names and one full
/// [`TimingReport`] per corner, in corner (lane) order.  Index 0 is always
/// the nominal corner.  [`Design::analyze_corners`] returns one, its lane 0
/// bit-identical to the single-corner [`Design::analyze_with_jobs`]
/// report, and so does [`DesignSnapshot::corners`] on a multi-corner
/// design, its lane 0 the same `Arc` as the snapshot's main report.
#[derive(Debug, Clone)]
pub struct CornerAnalysis {
    /// Corner names in lane order, shared by every snapshot a publish
    /// derives from this one.
    names: Arc<[String]>,
    /// One report per corner, parallel to `names`.
    reports: Vec<Arc<TimingReport>>,
}

impl CornerAnalysis {
    /// Corner names in lane order (index 0 is the nominal corner).
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Comma-joined corner names — the corner vector of the serve
    /// protocol's response tails.
    pub fn names_csv(&self) -> String {
        self.names.join(",")
    }

    /// Number of corners (at least 1).
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// Always `false`: the nominal corner is always present.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The report of corner `k` (0 is the nominal report), or `None` when
    /// `k` is out of range.
    pub fn report(&self, k: usize) -> Option<&TimingReport> {
        self.reports.get(k).map(|r| &**r)
    }

    /// Every corner's report, in lane order.
    pub fn reports(&self) -> &[Arc<TimingReport>] {
        &self.reports
    }

    /// Resolves a corner name to its lane index.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// The worst corner against `required_time`: the lane with the
    /// smallest slack, ties to the lowest lane index, so the nominal corner
    /// wins a tie against any scaled corner — a stable,
    /// scheduling-independent answer.  Returns `(lane, slack,
    /// certification)`, where the certification is the conjunction over
    /// **all** corners: the whole-deck verdict (the deck passes only when
    /// every corner passes) that the `CERTIFY` verb reports.
    pub fn worst_against(&self, required_time: Seconds) -> (usize, Seconds, Certification) {
        let mut worst = 0usize;
        let mut slack = self.reports[0].slack_against(required_time);
        let mut verdict = Certification::Pass;
        for (k, report) in self.reports.iter().enumerate() {
            if k > 0 {
                let s = report.slack_against(required_time);
                if s < slack {
                    worst = k;
                    slack = s;
                }
            }
            verdict = verdict.and(report.certification_against(required_time));
        }
        (worst, slack, verdict)
    }
}

/// A gate-level design with extracted interconnect.
///
/// The library, instance table and nets live behind an [`Arc`] so that the
/// persistent global worker pool ([`rctree_par::global_pool`]) can hold
/// owned (`'static`) references to them while a sharded analysis is in
/// flight; mutation goes through [`Arc::make_mut`], and only a call that
/// changes something mutates.  Pool jobs reference the core only through
/// a [`Weak`] (upgraded per net while the analysing borrow keeps it
/// alive), so even a straggler runner still queued on the pool after an
/// analysis returns cannot pin the strong count — make_mut copies only
/// when the *caller* holds other clones of the design.
///
/// Each net is one id-resolved record of the core: its interconnect
/// table, its driver and its sinks.  Every stage sweep — batch analysis,
/// the ECO warm-up and the dirty-net re-time — splices the net from its
/// record into per-worker scratch; no other copy of a net exists.  Names
/// are resolved once, when they enter the design, and turned back into
/// text only where a snapshot view or a report prints them.
#[derive(Debug, Clone)]
pub struct Design {
    shared: Arc<DesignCore>,
    /// Cached per-net stage results backing the incremental
    /// [`Design::apply_eco`] path; invalidated by structural mutation.
    eco: Option<EcoState>,
    /// Id of the last [`DesignSnapshot`] this design published, `0` when
    /// no published snapshot reflects the current state.  Guards
    /// [`Design::publish_after_eco`] against reusing the per-net views of
    /// an *outdated* snapshot: any mutation outside the publish path
    /// (structural edits, a direct [`Design::apply_eco`]) zeroes it, so
    /// only the design's own latest snapshot ever qualifies for reuse.
    published: u64,
}

/// Process-unique snapshot ids (see [`Design::published`]); `0` is
/// reserved for "none".
static NEXT_SNAPSHOT_ID: AtomicU64 = AtomicU64::new(1);

/// The shareable heart of a [`Design`]: the library, the names, the
/// instance table (indexed by instance id) and one id-resolved record per
/// net, with the lazily built propagation topology.
#[derive(Debug)]
struct DesignCore {
    library: CellLibrary,
    /// `Arc`-shared with the topology and every snapshot; adding a name
    /// copies it only while it is shared.
    names: Arc<Names>,
    instances: Vec<Instance>,
    nets: Vec<NetRecord>,
    /// Where each net's sinks sit in a lane's window column: net `i`'s at
    /// `sink_start[i]..sink_start[i + 1]`, the total sink count last.  The
    /// prefix sums of the sink counts `add_net` fixes; an ECO edit re-binds
    /// a net's sinks but never changes their number.
    sink_start: Vec<usize>,
    /// Lazily built arrival-propagation topology; invalidated whenever the
    /// instance table or the net list changes (ECO edits keep it — they
    /// touch interconnect values, never connectivity).
    topo: Mutex<Option<Arc<PropagationCache>>>,
    /// Active PVT corner set, `None` for a nominal-only design.  Corner 0
    /// of any installed set is the implicit unscaled nominal corner, so
    /// lane 0 of every stage sweep — and every single-corner code path — is
    /// unaffected by this field.
    corners: Option<Arc<CornerSet>>,
}

impl Clone for DesignCore {
    fn clone(&self) -> Self {
        DesignCore {
            library: self.library.clone(),
            names: Arc::clone(&self.names),
            instances: self.instances.clone(),
            nets: self.nets.clone(),
            sink_start: self.sink_start.clone(),
            // A core is only cloned on the mutation path (`Arc::make_mut`),
            // which would invalidate the cache anyway; rebuild on demand.
            topo: Mutex::new(None),
            corners: self.corners.clone(),
        }
    }
}

/// Every net and instance name of a design, interned once, with the net
/// and the instance each one names (two namespaces).  Duplicates are
/// rejected on entry, so a name-addressed operation has one target.
#[derive(Debug, Clone, Default)]
struct Names {
    table: Interner,
    /// Per name id: its `[NET, INSTANCE]` indices, `NONE` for none.
    named: Vec<[u32; 2]>,
}

impl Names {
    const NET: usize = 0;
    const INSTANCE: usize = 1;
    const NONE: u32 = u32::MAX;

    /// The index of the `kind` entry named `name`.
    fn find(&self, name: &str, kind: usize) -> Option<usize> {
        let index = self.named[self.table.get(name)?.index()][kind];
        (index != Names::NONE).then_some(index as usize)
    }

    fn net(&self, name: &str) -> Option<usize> {
        self.find(name, Names::NET)
    }

    fn instance(&self, name: &str) -> Option<usize> {
        self.find(name, Names::INSTANCE)
    }

    /// Interns `name` as the name of `kind` entry `index`.
    fn add(&mut self, name: &str, kind: usize, index: usize) -> NameId {
        let id = self.table.intern(name);
        if id.index() == self.named.len() {
            self.named.push([Names::NONE; 2]);
        }
        self.named[id.index()][kind] =
            u32::try_from(index).expect("fewer than u32::MAX nets and instances");
        id
    }
}

/// One instance: its name and its cell's position in the design's library
/// (which a [`Design`] never changes).
#[derive(Debug, Clone, Copy)]
struct Instance {
    name: NameId,
    cell: usize,
}

/// One net with every name resolved: the only stored form of a net.
#[derive(Debug, Clone)]
struct NetRecord {
    name: NameId,
    /// The extracted interconnect, shared with every snapshot view; an ECO
    /// edit copies it on its first write.
    tree: RcTree,
    /// The driving instance (`None`: a primary input) and its switch
    /// resistance.
    driver: Option<usize>,
    driver_r: Ohms,
    /// Per sink, in net sink order: interconnect node and added load
    /// capacitance, shared with every snapshot view (a graft or prune
    /// re-binds it by node name).
    loads: Arc<[(NodeId, Farads)]>,
    /// Per sink: what it drives, shared with the propagation topology.
    targets: Arc<[Target]>,
}

/// What a sink drives, resolved.
#[derive(Debug, Clone)]
enum Target {
    /// The input of an instance, by id.
    Instance(usize),
    /// A primary output: the net's [`Load::PrimaryOutput`] name, shared by
    /// every endpoint it names.
    Output(Arc<str>),
}

/// Delay window of one sink of a net, produced by the per-net stage sweep:
/// its `[lower, upper]` stage-delay bounds.  What the sink *drives* lives
/// in the net's record and in [`PropagationCache::sinks`] — the windows
/// stay plain numbers, so re-timing a net allocates no strings.
type Window = DelayBounds;

/// A dirty net edited before commit: its index, edited interconnect and
/// re-bound loads.
type Edited = (usize, RcTree, Arc<[(NodeId, Farads)]>);

/// A net re-timed ahead of a sweep: its index and every lane's sink
/// windows.
type Retimed = (usize, Vec<Vec<Window>>);

/// The instance chain of a path, shared by `Arc`: one link (instance index
/// plus predecessor) per driver extension, newest instance first.  Every
/// arrival, candidate and endpoint reached through an extension shares its
/// link, so a chain of depth `D` costs `D` links however many paths run
/// through it; instance names are resolved only where a report needs
/// them ([`Spine::names`]).  Equality compares instance sequences and a
/// dropped chain unlinks iteratively, so neither recurses with the depth.
#[derive(Clone, Default)]
struct Spine(Option<Arc<SpineLink>>);

struct SpineLink {
    inst: usize,
    prev: Spine,
}

impl Spine {
    /// This chain extended by instance `inst`.
    fn extend(&self, inst: usize) -> Spine {
        Spine(Some(Arc::new(SpineLink {
            inst,
            prev: self.clone(),
        })))
    }

    /// Instance indices, newest first.
    fn insts(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.0.as_deref(), |link| link.prev.0.as_deref())
            .map(|link| link.inst)
    }

    /// The chain's instance names, oldest first.
    fn names(&self, cache: &PropagationCache) -> Vec<String> {
        self.names_then(None, cache)
    }

    /// The chain's instance names, oldest first, then `last`'s when given:
    /// the names of `self.extend(last)` without building its link, in one
    /// list sized once.
    fn names_then(&self, last: Option<usize>, cache: &PropagationCache) -> Vec<String> {
        let mut names = Vec::with_capacity(self.insts().count() + usize::from(last.is_some()));
        names.extend(self.insts().map(|i| cache.inst_name(i).to_string()));
        names.reverse();
        names.extend(last.map(|i| cache.inst_name(i).to_string()));
        names
    }
}

impl PartialEq for Spine {
    fn eq(&self, other: &Spine) -> bool {
        let (mut a, mut b) = (&self.0, &other.0);
        loop {
            match (a, b) {
                (Some(x), Some(y)) => {
                    // A shared link means a shared remainder.
                    if Arc::ptr_eq(x, y) {
                        return true;
                    }
                    if x.inst != y.inst {
                        return false;
                    }
                    (a, b) = (&x.prev.0, &y.prev.0);
                }
                (None, None) => return true,
                _ => return false,
            }
        }
    }
}

impl fmt::Debug for Spine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.insts()).finish()
    }
}

impl Drop for SpineLink {
    fn drop(&mut self) {
        // Unlink the predecessors this link solely owns one by one instead
        // of letting each link's drop recurse into the next.
        let mut next = self.prev.0.take();
        while let Some(link) = next {
            next = Arc::into_inner(link).and_then(|mut link| link.prev.0.take());
        }
    }
}

/// One instance's propagated arrival state: the worst input window and the
/// spine of the path that set it.
#[derive(Debug, Clone, PartialEq)]
struct InstArrival {
    window: ArrivalWindow,
    spine: Spine,
}

/// The cached arrival-propagation topology of a design: everything the
/// serial Kahn pass recomputed per call, hoisted so the ECO path can
/// re-propagate only the affected fan-out cone of an edit.
///
/// Instances are addressed by their id in the design's instance table,
/// nets by their index in the net list; names are resolved only to build
/// a critical path.  Invalidated (together with the rest of [`EcoState`])
/// by any structural design mutation — [`Design::add_instance`] /
/// [`Design::add_net`] clear the cache, so the next call falls back to a
/// full propagation.
///
/// Per net the sink targets are a refcount clone of its record's list, and
/// the per-instance adjacency is offset-indexed [`Rows`], so a build
/// allocates a fixed number of arrays however many nets and instances the
/// design has.
#[derive(Debug, Clone)]
struct PropagationCache {
    /// The design's names, shared with its core.
    names: Arc<Names>,
    /// Per instance: its name.
    inst_names: Vec<NameId>,
    /// Cached per-instance intrinsic delay.
    intrinsic: Vec<Seconds>,
    /// Net indices ordered by driver topological rank (the processing
    /// order of the full propagation).
    net_order: Vec<usize>,
    /// Position of each net in `net_order`.
    net_rank: Vec<usize>,
    /// Driving instance of each net (`None` for primary inputs).
    net_driver: Vec<Option<usize>>,
    /// Per instance: the `(net, sink)` pairs feeding it, sorted by
    /// `(net_rank, sink index)` — exactly the order in which the full pass
    /// folds candidates into the instance's arrival window.
    in_edges: Rows<(usize, usize)>,
    /// Per instance: `net_order` ranks of the nets it drives.
    out_ranks: Rows<usize>,
    /// Per net, per sink: what it drives.  Lets the propagation passes run
    /// on plain [`Window`]s without carrying a target per window.
    targets: Vec<Arc<[Target]>>,
    /// Per net rank: the number of primary-output sinks of the nets at
    /// lower ranks, the total last.  Cuts the endpoint pass into ranges of
    /// about equal endpoint counts ([`PropagationCache::endpoint_ranks`]),
    /// each with an exact-size buffer.
    endpoint_start: Vec<usize>,
}

impl PropagationCache {
    /// Number of primary-output sinks: the endpoints of a full pass.
    fn endpoint_count(&self) -> usize {
        self.endpoint_start[self.net_order.len()]
    }

    /// The net ranks of range `r` of `runs` contiguous ranges cut by
    /// endpoint count: range `r` starts at the first rank whose endpoints
    /// start at or past `r / runs` of all of them, so ranks without
    /// endpoints weigh nothing.
    fn endpoint_ranks(&self, r: usize, runs: usize) -> Range<usize> {
        let ranks = self.net_order.len();
        let total = self.endpoint_count();
        let start = |r: usize| match r == runs {
            true => ranks,
            false => self
                .endpoint_start
                .partition_point(|&s| s < r * total / runs),
        };
        start(r)..start(r + 1)
    }

    /// The name of instance `inst`.
    fn inst_name(&self, inst: usize) -> &str {
        self.names.table.resolve(self.inst_names[inst])
    }

    /// The first `count` sinks of `net` (all of them when the table is
    /// shorter): sink index and target.
    fn sinks(&self, net: usize, count: usize) -> impl Iterator<Item = (usize, &Target)> {
        self.targets[net].iter().take(count).enumerate()
    }

    /// The instance names, in id order.
    fn inst_names(&self) -> impl Iterator<Item = &str> {
        (0..self.inst_names.len()).map(|inst| self.inst_name(inst))
    }
}

/// A flat row-indexed adjacency: row `r` is `items[start[r]..start[r + 1]]`.
#[derive(Debug, Clone)]
struct Rows<T> {
    start: Vec<usize>,
    items: Vec<T>,
}

impl<T: Copy + Default> Rows<T> {
    /// `rows` rows filled from the `(row, item)` pairs `pairs()` yields,
    /// each row in yield order.  `pairs` is called twice: once to count,
    /// once to fill.
    fn build<I: Iterator<Item = (usize, T)>>(rows: usize, pairs: impl Fn() -> I) -> Rows<T> {
        let mut start = vec![0usize; rows + 1];
        for (r, _) in pairs() {
            start[r + 1] += 1;
        }
        for r in 0..rows {
            start[r + 1] += start[r];
        }
        let mut next = start[..rows].to_vec();
        let mut items = vec![T::default(); start[rows]];
        for (r, item) in pairs() {
            items[next[r]] = item;
            next[r] += 1;
        }
        Rows { start, items }
    }

    fn row(&self, r: usize) -> &[T] {
        &self.items[self.start[r]..self.start[r + 1]]
    }
}

/// Cached analysis state backing the incremental [`Design::apply_eco`]
/// path: the propagation topology and one timing lane per corner of the
/// design's corner set.  The nets themselves are the core's.
///
/// All of it is kept bit-consistent with what a full
/// [`Design::analyze_with_jobs`] of the current design would produce; the
/// warm path recomputes only dirty nets' windows and the affected cone of
/// the arrival propagation, and re-files only the endpoints the cone walk
/// rewrote.
#[derive(Debug, Clone)]
struct EcoState {
    threshold: f64,
    prop: Arc<PropagationCache>,
    /// One lane per corner of the core's corner set, nominal first (the
    /// set cannot change under the state: [`Design::set_corners`] drops
    /// it).  Every lane goes through the same dirty-net commits and cone
    /// walks, so a publish always has every corner's windows current.
    lanes: Vec<LaneTiming>,
}

impl EcoState {
    /// Lane `k`'s report against `required_time`, sharing every endpoint
    /// node with the lane's persistent order.
    fn report(&self, k: usize, required_time: Seconds) -> TimingReport {
        TimingReport {
            threshold: self.threshold,
            required_time,
            endpoints: self.lanes[k].order.clone(),
        }
    }
}

/// One corner lane's incremental timing: the corner's intrinsic delays,
/// the lane's window column, per-instance arrivals, and every endpoint in
/// report order.
///
/// The window and key columns are indexed by the core's sink offsets
/// ([`DesignCore::sink_start`]), one exact-size allocation each.  A
/// dirty net's re-timed windows overwrite its range in place (a graft or
/// prune keeps the sink count), and the cone walk and the snapshot views
/// read slices of the column.  A cold warm-up builds the lane with the
/// batch analysis's full pass ([`scalar_full`]), then fills the key column
/// from the merged order.
#[derive(Debug, Clone)]
struct LaneTiming {
    /// Per-instance intrinsic delay scaled by the corner's `delay_scale`.
    intrinsic: Vec<Seconds>,
    /// Per sink: its stage delay window, net `i`'s at
    /// `sink_start[i]..sink_start[i + 1]`.
    delays: Vec<Window>,
    arrivals: Vec<InstArrival>,
    /// Per endpoint, at its net's sink offset plus its ordinal among the
    /// net's endpoints: the worst arrival its entry in `order` is filed
    /// under (with tie key [`endpoint_tie`]).  Entries past a net's
    /// endpoints are unused.
    endpoint_keys: Vec<Seconds>,
    order: Endpoints,
}

/// What one publish touched in the persistent orders and view vectors: the
/// `sta.publish` span's `endpoints_moved` and `chunks_copied` attributes.
#[derive(Debug, Clone, Copy, Default)]
struct Touched {
    /// Endpoint entries removed plus entries inserted, over all lanes.
    endpoints_moved: u64,
    /// `Arc`-shared leaf chunks (endpoint and view leaves) copied before
    /// a write; node copies are not counted.
    chunks_copied: u64,
}

impl std::ops::AddAssign for Touched {
    fn add_assign(&mut self, other: Touched) {
        self.endpoints_moved += other.endpoints_moved;
        self.chunks_copied += other.chunks_copied;
    }
}

/// Tie key of a net's `ordinal`-th endpoint: orders equal worst arrivals
/// by `(net_rank, ordinal)`, the order the endpoint pass pushes them in.
fn endpoint_tie(net_rank: usize, ordinal: usize) -> u64 {
    ((net_rank as u64) << 32) | ordinal as u64
}

/// The `(net_rank, ordinal)` an [`endpoint_tie`] encodes.
fn tie_endpoint(tie: u64) -> (usize, usize) {
    ((tie >> 32) as usize, (tie & u64::from(u32::MAX)) as usize)
}

impl LaneTiming {
    /// A lane from one full pass ([`scalar_full`]) over the window column
    /// `delays` with `jobs` workers, its key column filled from the merged
    /// order: tie, then `(net_rank, ordinal)`, then the net's sink offset.
    /// Returns it with the number of endpoints filed.
    fn full(
        core: &Arc<DesignCore>,
        prop: &Arc<PropagationCache>,
        intrinsic: Vec<Seconds>,
        delays: Vec<Window>,
        jobs: usize,
    ) -> (LaneTiming, u64) {
        let (columns, order) = scalar_full(core, prop, intrinsic, delays, jobs);
        let LaneColumns {
            intrinsic,
            delays,
            arrivals,
        } = columns;
        let mut endpoint_keys = vec![Seconds::ZERO; delays.len()];
        for (tie, e) in order.keyed() {
            let (rank, ordinal) = tie_endpoint(tie);
            endpoint_keys[core.sink_start[prop.net_order[rank]] + ordinal] = e.arrival.max;
        }
        let filed = order.len() as u64;
        let lane = LaneTiming {
            intrinsic,
            delays,
            arrivals,
            endpoint_keys,
            order,
        };
        (lane, filed)
    }

    /// Re-propagates the cone of `dirty_ranks` and re-files the endpoints
    /// of every net the walk rewrote: each old entry is removed under the
    /// key recorded in `endpoint_keys`, each new one inserted.  A net's
    /// endpoints are fixed by the topology, so the walk rewrites exactly
    /// as many as are filed.
    fn cone(
        &mut self,
        prop: &PropagationCache,
        sink_start: &[usize],
        dirty_ranks: &[usize],
    ) -> Touched {
        let rewritten = ScalarLane::new(prop, sink_start, &self.intrinsic, &self.delays)
            .cone(&mut self.arrivals, dirty_ranks.iter().copied());
        let mut touched = Touched::default();
        for (net, eps) in rewritten {
            let rank = prop.net_rank[net];
            let keys = &mut self.endpoint_keys[sink_start[net]..][..eps.len()];
            touched.endpoints_moved += 2 * eps.len() as u64;
            for (ordinal, &max) in keys.iter().enumerate() {
                touched.chunks_copied += self.order.remove(endpoint_tie(rank, ordinal), max) as u64;
            }
            for ((ordinal, e), key) in eps.into_iter().enumerate().zip(keys) {
                *key = e.arrival.max;
                touched.chunks_copied += self.order.insert(endpoint_tie(rank, ordinal), e) as u64;
            }
        }
        touched
    }
}

/// A copy of `tree` with every branch resistance scaled by `r_scale` and
/// every branch/node capacitance scaled by `c_scale` — one multiplication
/// per element, nodes inserted in pre-order with their original names, so
/// a sweep over the copy sees exactly the values the stage splice of that
/// corner lane holds, in the same order ([`Design::materialize_corner`]'s
/// oracle contract).
pub(crate) fn scale_tree(tree: &RcTree, r_scale: f64, c_scale: f64) -> Result<RcTree> {
    let input = tree.input();
    let mut b = rctree_core::builder::RcTreeBuilder::with_input_name(tree.name(input)?);
    let mut map = vec![NodeId::INPUT; tree.node_count()];
    map[input.index()] = b.input();
    let new_input = b.input();
    b.add_capacitance(
        new_input,
        Farads::new(tree.capacitance(input)?.value() * c_scale),
    )?;
    if tree.is_output(input)? {
        b.mark_output(new_input)?;
    }
    for id in tree.preorder() {
        if id == input {
            continue;
        }
        let parent = map[tree.parent(id)?.expect("non-input node").index()];
        let name = tree.name(id)?;
        let new_id = match tree.branch(id)?.expect("non-input node") {
            Branch::Resistor { resistance } => {
                b.add_resistor(parent, name, Ohms::new(resistance.value() * r_scale))?
            }
            Branch::Line {
                resistance,
                capacitance,
            } => b.add_line(
                parent,
                name,
                Ohms::new(resistance.value() * r_scale),
                Farads::new(capacitance.value() * c_scale),
            )?,
        };
        b.add_capacitance(new_id, Farads::new(tree.capacitance(id)?.value() * c_scale))?;
        if tree.is_output(id)? {
            b.mark_output(new_id)?;
        }
        map[id.index()] = new_id;
    }
    Ok(b.build()?)
}

/// What arrival propagation carries, written once for every lane: per
/// instance a folded input arrival, per net a driver-output value pushed
/// through each sink's stage delay.  [`run_full`], [`net_endpoints`],
/// [`run_cone`] and [`refold_instance`] are generic over it; [`ScalarLane`]
/// (an `[min, max]` window plus its spine) and [`SymbolicLane`] (a `Poly2`
/// candidate set) are its instances.
trait Lattice {
    /// An instance's folded input arrival; `==` decides cone pruning.
    type Arrival: Clone + PartialEq;
    /// A net's driver-output value.
    type Out;
    /// One endpoint's result.
    type Endpoint;

    /// The fold's initial element at every instance: the primary-input
    /// arrival.
    fn zero(&self) -> Self::Arrival;
    /// Number of leading sinks of `net` that carry a stage delay.  Sinks
    /// past it are skipped: no construction path lets the delay and sink
    /// tables drift apart, but a walk must not panic if they do.
    fn sinks(&self, net: usize) -> usize;
    /// The driver-output value of a net driven by `driver` (`None`: a
    /// primary input).
    fn drive(&self, arrivals: &[Self::Arrival], driver: Option<usize>) -> Self::Out;
    /// Folds `out`, through sink `sink` of `net`, into an instance arrival.
    fn fold(&self, acc: &mut Self::Arrival, out: &Self::Out, net: usize, sink: usize);
    /// The endpoint `name` that `out` reaches through sink `sink` of `net`;
    /// it holds a refcount clone of `name`.
    fn endpoint(&self, out: &Self::Out, net: usize, sink: usize, name: &Arc<str>)
        -> Self::Endpoint;
}

/// The arrival fold over every net, in driver-topological order: each net
/// that loads an instance drives once and folds into the arrivals of the
/// instances it loads.  Returns the final per-instance arrivals; it emits
/// no endpoint.  The endpoints come after, from the final arrivals
/// ([`net_endpoints`]): every in-edge of an instance sits at a lower rank
/// than the nets the instance drives, so a driver's arrival is final
/// before any of its nets is visited, and it is the arrival each of its
/// nets' endpoints reads.  Infallible — every lookup was resolved when the
/// [`PropagationCache`] was built.
fn run_full<L: Lattice>(lane: &L, cache: &PropagationCache) -> Vec<L::Arrival> {
    let mut arrivals: Vec<L::Arrival> = (0..cache.inst_names.len()).map(|_| lane.zero()).collect();
    for &net in &cache.net_order {
        let mut out = None;
        for (k, target) in cache.sinks(net, lane.sinks(net)) {
            if let Target::Instance(u) = target {
                let out = out.get_or_insert_with(|| lane.drive(&arrivals, cache.net_driver[net]));
                lane.fold(&mut arrivals[*u], out, net, k);
            }
        }
    }
    arrivals
}

/// The endpoints of `net` in sink order, from final instance `arrivals`:
/// one [`Lattice::drive`], at the first primary-output sink, then one
/// [`Lattice::endpoint`] per primary-output sink.  The full passes, scalar
/// and symbolic, and the cone walk read every endpoint through it.
fn net_endpoints<'a, L: Lattice>(
    lane: &'a L,
    cache: &'a PropagationCache,
    arrivals: &'a [L::Arrival],
    net: usize,
) -> impl Iterator<Item = L::Endpoint> + 'a {
    let out = OnceCell::new();
    cache
        .sinks(net, lane.sinks(net))
        .filter_map(move |(k, target)| match target {
            Target::Output(name) => {
                let out = out.get_or_init(|| lane.drive(arrivals, cache.net_driver[net]));
                Some(lane.endpoint(out, net, k, name))
            }
            Target::Instance(_) => None,
        })
}

/// Recomputes one instance's arrival by folding every in-edge in
/// `(net_rank, sink)` order from the zero arrival — the exact fold the full
/// pass performs incrementally, so the result is identical to a full
/// propagation.
fn refold_instance<L: Lattice>(
    lane: &L,
    cache: &PropagationCache,
    arrivals: &[L::Arrival],
    inst: usize,
) -> L::Arrival {
    let mut acc = lane.zero();
    for &(net, k) in cache.in_edges.row(inst) {
        if k < lane.sinks(net) {
            let out = lane.drive(arrivals, cache.net_driver[net]);
            lane.fold(&mut acc, &out, net, k);
        }
    }
    acc
}

/// The nets a cone walk rewrote that have endpoints: each net with its
/// endpoints in sink order.
type Rewritten<E> = Vec<(usize, Vec<E>)>;

/// Cone-limited re-propagation from the nets at `dirty_ranks`: re-derives
/// endpoints and instance arrivals only where they can have changed.  The
/// walk visits `(rank, slot)` events in order.  Slot 0 schedules the target
/// instances of the net at `rank` and re-derives its endpoints
/// ([`net_endpoints`]: the driver's arrival is final by then); slot
/// `1 + u` refolds instance `u` once, at the rank of its last in-edge —
/// every in-edge is final by then, because all in-edges of an instance sit
/// at strictly smaller ranks than its out-edges.  An instance whose
/// refolded arrival is unchanged prunes its fan-out from the cone.  Returns
/// every rewritten net that has endpoints (in sink order, the order of
/// their tie keys) and the number of net ranks visited.  Infallible, like
/// [`run_full`].
fn run_cone<L: Lattice>(
    lane: &L,
    cache: &PropagationCache,
    arrivals: &mut [L::Arrival],
    dirty_ranks: impl IntoIterator<Item = usize>,
) -> (Rewritten<L::Endpoint>, u64) {
    let mut cone_ranks = 0u64;
    let mut rewritten = Vec::new();
    let mut pending: BTreeSet<(usize, usize)> =
        dirty_ranks.into_iter().map(|rank| (rank, 0)).collect();
    while let Some((rank, slot)) = pending.pop_first() {
        if let Some(u) = slot.checked_sub(1) {
            let refolded = refold_instance(lane, cache, arrivals, u);
            if refolded != arrivals[u] {
                arrivals[u] = refolded;
                pending.extend(cache.out_ranks.row(u).iter().map(|&out| (out, 0)));
            }
            continue;
        }
        cone_ranks += 1;
        let net = cache.net_order[rank];
        for (_, target) in cache.sinks(net, lane.sinks(net)) {
            if let Target::Instance(u) = target {
                let last = cache
                    .in_edges
                    .row(*u)
                    .last()
                    .map_or(rank, |&(edge, _)| cache.net_rank[edge]);
                pending.insert((last, 1 + u));
            }
        }
        let eps: Vec<L::Endpoint> = net_endpoints(lane, cache, arrivals, net).collect();
        if !eps.is_empty() {
            rewritten.push((net, eps));
        }
    }
    (rewritten, cone_ranks)
}

/// The scalar lattice: `[min, max]` arrival windows folded with strict `>`
/// on the worst arrival (the first maximal in-edge wins), each carrying the
/// spine of its path.
struct ScalarLane<'a> {
    cache: &'a PropagationCache,
    /// Per-instance intrinsic delay (a corner lane's is `delay_scale`d).
    intrinsic: &'a [Seconds],
    /// The core's sink offsets into `delays`.
    sink_start: &'a [usize],
    /// The lane's window column: per sink, the stage delay window.
    delays: &'a [Window],
}

/// A net's driver-output arrival in the scalar lane.  The spine through the
/// driver and the endpoints' critical path are built on first use, so a
/// net allocates each at most once, and only when it wins at a fan-out
/// instance (the fold) or reaches an endpoint (the endpoint pass).
struct ScalarOut {
    window: ArrivalWindow,
    /// The driver and the spine of its input arrival (`None` for a primary
    /// input).
    driver: Option<(usize, Spine)>,
    spine: OnceCell<Spine>,
    path: OnceCell<Arc<Vec<String>>>,
}

impl ScalarOut {
    fn spine(&self) -> &Spine {
        self.spine.get_or_init(|| match &self.driver {
            Some((d, input)) => input.extend(*d),
            None => Spine::default(),
        })
    }

    /// The critical path of the net's endpoints, as names: the driver's
    /// input spine, then the driver, named without building the spine
    /// through the driver, which only the fold keeps.
    fn path(&self, cache: &PropagationCache) -> Arc<Vec<String>> {
        let path = self.path.get_or_init(|| {
            Arc::new(match &self.driver {
                Some((d, input)) => input.names_then(Some(*d), cache),
                None => Vec::new(),
            })
        });
        Arc::clone(path)
    }
}

impl<'a> ScalarLane<'a> {
    fn new(
        cache: &'a PropagationCache,
        sink_start: &'a [usize],
        intrinsic: &'a [Seconds],
        delays: &'a [Window],
    ) -> ScalarLane<'a> {
        ScalarLane {
            cache,
            intrinsic,
            sink_start,
            delays,
        }
    }

    /// The endpoints of the nets at `ranks` from final `arrivals`, in
    /// report order: one exact-size run filled in tie order, then sorted.
    fn endpoint_run(&self, arrivals: &[InstArrival], ranks: Range<usize>) -> SortedRun {
        let (cache, start) = (self.cache, &self.cache.endpoint_start);
        let mut run = Run::with_capacity(start[ranks.end] - start[ranks.start]);
        for rank in ranks {
            if start[rank + 1] == start[rank] {
                continue;
            }
            let eps = net_endpoints(self, cache, arrivals, cache.net_order[rank]);
            for (ordinal, e) in eps.enumerate() {
                run.push(endpoint_tie(rank, ordinal), e);
            }
        }
        run.sorted()
    }

    /// [`run_cone`] over this lane, in a `sta.propagate_cone` span.
    fn cone(
        &self,
        arrivals: &mut [InstArrival],
        dirty_ranks: impl IntoIterator<Item = usize>,
    ) -> Rewritten<EndpointTiming> {
        let mut obs_span = rctree_obs::span("sta.propagate_cone");
        let (rewritten, cone_ranks) = run_cone(self, self.cache, arrivals, dirty_ranks);
        obs_span.attr_u64("cone_ranks", cone_ranks);
        rewritten
    }

    /// The arrival `out` delivers through sink `sink` of `net`.
    fn through(&self, out: &ScalarOut, net: usize, sink: usize) -> ArrivalWindow {
        let delay = self.delays[self.sink_start[net] + sink];
        ArrivalWindow {
            min: out.window.min + delay.lower,
            max: out.window.max + delay.upper,
        }
    }
}

impl Lattice for ScalarLane<'_> {
    type Arrival = InstArrival;
    type Out = ScalarOut;
    type Endpoint = EndpointTiming;

    fn zero(&self) -> InstArrival {
        InstArrival {
            window: ArrivalWindow::ZERO,
            spine: Spine::default(),
        }
    }

    fn sinks(&self, net: usize) -> usize {
        self.sink_start[net + 1] - self.sink_start[net]
    }

    /// Zero for primary inputs, the driver's worst input window plus its
    /// intrinsic delay otherwise.
    fn drive(&self, arrivals: &[InstArrival], driver: Option<usize>) -> ScalarOut {
        let (window, driver) = match driver {
            None => (ArrivalWindow::ZERO, None),
            Some(d) => {
                let input = &arrivals[d];
                let intrinsic = self.intrinsic[d];
                let window = ArrivalWindow {
                    min: input.window.min + intrinsic,
                    max: input.window.max + intrinsic,
                };
                (window, Some((d, input.spine.clone())))
            }
        };
        ScalarOut {
            window,
            driver,
            spine: OnceCell::new(),
            path: OnceCell::new(),
        }
    }

    fn fold(&self, acc: &mut InstArrival, out: &ScalarOut, net: usize, sink: usize) {
        let window = self.through(out, net, sink);
        if window.max > acc.window.max {
            *acc = InstArrival {
                window,
                spine: out.spine().clone(),
            };
        }
    }

    fn endpoint(
        &self,
        out: &ScalarOut,
        net: usize,
        sink: usize,
        name: &Arc<str>,
    ) -> EndpointTiming {
        EndpointTiming {
            name: Arc::clone(name),
            arrival: self.through(out, net, sink),
            critical_path: out.path(self.cache),
        }
    }
}

/// One lane's columns: the corner's intrinsic delays, the window column
/// and the final instance arrivals.  The endpoint pass's pool jobs reach
/// them through a `Weak`, so a queued straggler never pins them, and the
/// pass hands them back whole after its join.
struct LaneColumns {
    intrinsic: Vec<Seconds>,
    delays: Vec<Window>,
    arrivals: Vec<InstArrival>,
}

/// What the endpoint pass's pool jobs share: the core (for its sink
/// offsets) and the lane's columns through `Weak`s, and the topology.
type EndpointPass = (Weak<DesignCore>, Arc<PropagationCache>, Weak<LaneColumns>);

/// The scalar full pass over one lane, the batch analysis's and the ECO
/// warm-up's: the serial arrival fold ([`run_full`]) in a
/// `sta.propagate_full` span, then the endpoint pass and the merge in a
/// `sta.report_order` span.  The pool cuts the net ranks into two
/// contiguous ranges of about equal endpoint counts per worker (one range
/// at one job; at most one worker per hardware thread, since a finer cut
/// of this CPU-bound pass only adds runs to merge); each range builds its
/// endpoints from the final arrivals and sorts them into report order
/// ([`ScalarLane::endpoint_run`]), and one merge lays the runs into the
/// order's leaves.  The ranges' ties ascend range over range, so the
/// order does not depend on `jobs`.  Returns the lane's columns with the
/// order.
fn scalar_full(
    core: &Arc<DesignCore>,
    prop: &Arc<PropagationCache>,
    intrinsic: Vec<Seconds>,
    delays: Vec<Window>,
    jobs: usize,
) -> (LaneColumns, Endpoints) {
    let arrivals = {
        let mut obs_span = rctree_obs::span("sta.propagate_full");
        obs_span.attr_u64("nets", prop.net_order.len() as u64);
        run_full(
            &ScalarLane::new(prop, &core.sink_start, &intrinsic, &delays),
            prop,
        )
    };
    let mut obs_span = rctree_obs::span("sta.report_order");
    obs_span.attr_u64("endpoints", prop.endpoint_count() as u64);
    let columns = Arc::new(LaneColumns {
        intrinsic,
        delays,
        arrivals,
    });
    let jobs = jobs.min(rctree_par::available_parallelism());
    let runs = if jobs > 1 { 2 * jobs } else { 1 };
    let state = Arc::new((
        Arc::downgrade(core),
        Arc::clone(prop),
        Arc::downgrade(&columns),
    ));
    let sorted = rctree_par::par_map_global(
        jobs,
        state,
        runs,
        move |r, (core, prop, columns): &EndpointPass| {
            let core = core.upgrade().expect("design outlives its analysis");
            let columns = columns
                .upgrade()
                .expect("the lane outlives its endpoint pass");
            let lane = ScalarLane::new(prop, &core.sink_start, &columns.intrinsic, &columns.delays);
            lane.endpoint_run(&columns.arrivals, prop.endpoint_ranks(r, runs))
        },
    );
    let order = Endpoints::merged(sorted, jobs);
    drop(obs_span);
    let columns = Arc::into_inner(columns).expect("the endpoint jobs hold the lane only weakly");
    (columns, order)
}

/// One symbolic arrival candidate: the `[min, max]` arrival-window
/// polynomials of a single structural path family plus its spine.
///
/// The scalar propagation realizes, at every instance, the **maximum** over
/// its in-edge windows; under a continuum of `(r_scale, c_scale)` points
/// that maximum is attained by different paths in different regions, so the
/// symbolic pass carries the whole candidate set and defers the fold to
/// evaluation time.  Candidates are kept in the exact order the scalar pass
/// folds them (`(net_rank, sink)` order with the zero window first), and
/// every fold uses strict `>` — so at any evaluation point the selected
/// candidate is the one the scalar pass would have realized, ties included.
#[derive(Debug, Clone, PartialEq)]
struct SymbolicCandidate {
    /// Earliest-arrival polynomial (sum of intrinsics and lower bounds).
    min: Poly2,
    /// Latest-arrival polynomial (sum of intrinsics and upper bounds) —
    /// the certified value; the fold key.
    max: Poly2,
    /// Instance chain of the candidate's path.
    spine: Spine,
}

impl SymbolicCandidate {
    /// The zero candidate (primary-input arrival), the fold's initial
    /// element at every instance — mirroring the scalar pass's
    /// [`ArrivalWindow::ZERO`] initialisation.
    fn zero() -> SymbolicCandidate {
        SymbolicCandidate {
            min: Poly2::ZERO,
            max: Poly2::ZERO,
            spine: Spine::default(),
        }
    }

    /// The arrival window this candidate evaluates to at `(r, c)`.
    fn window_at(&self, r: f64, c: f64) -> ArrivalWindow {
        ArrivalWindow {
            min: Seconds::new(self.min.eval(r, c)),
            max: Seconds::new(self.max.eval(r, c)),
        }
    }

    /// This candidate through one sink's stage-delay bounds.
    fn through(&self, bound: &SymbolicDelayBounds) -> SymbolicCandidate {
        SymbolicCandidate {
            min: self.min.add(&bound.lower),
            max: self.max.add(&bound.upper),
            spine: self.spine.clone(),
        }
    }
}

/// Appends `cand` unless an **earlier** candidate dominates it
/// coefficientwise, and drops every earlier candidate `cand` then strictly
/// dominates.  On the scale domain (`r, c > 0`) every monomial `r^i c^j`
/// is positive, so a dominated candidate never strictly exceeds its
/// dominator and a strictly dominated one is below it everywhere: the
/// first maximal candidate at any point — what every strict-`>` fold
/// selects — is never a pruned one.  Pruning changes no evaluation, no box
/// maximum and no realized path; it only bounds the set.  Dropping the
/// strictly dominated entries is what keeps a chain of `D` stages at one
/// candidate per instance instead of `D`: each stage's arrival strictly
/// dominates the zero arrival the fold starts from.
fn push_candidate(list: &mut Vec<SymbolicCandidate>, cand: SymbolicCandidate) {
    if list.iter().any(|e| e.max.dominates(&cand.max)) {
        return;
    }
    // No entry equals `cand` now, so every entry it dominates, it
    // dominates strictly.
    list.retain(|e| !cand.max.dominates(&e.max));
    list.push(cand);
}

/// The symbolic lattice: instead of realizing the per-instance max fold at
/// `(1, 1)`, every instance accumulates the candidate set of arrival
/// polynomials reaching it ([`push_candidate`]), and endpoints collect
/// theirs in the same push order.  Folding any produced set at a point
/// with strict `>` yields exactly the window and path the scalar pass
/// realizes at that uniform scale: push order equals the scalar fold
/// order, each candidate's evaluated `max` equals the corresponding scalar
/// window's `max`, and pruned candidates are never selected.
struct SymbolicLane<'a> {
    intrinsic: &'a [Seconds],
    /// Per net, per sink: the symbolic stage-delay bounds.
    bounds: &'a [Arc<Vec<SymbolicDelayBounds>>],
}

impl Lattice for SymbolicLane<'_> {
    type Arrival = Arc<Vec<SymbolicCandidate>>;
    type Out = Vec<SymbolicCandidate>;
    type Endpoint = SymbolicEndpointTiming;

    fn zero(&self) -> Arc<Vec<SymbolicCandidate>> {
        Arc::new(vec![SymbolicCandidate::zero()])
    }

    fn sinks(&self, net: usize) -> usize {
        self.bounds[net].len()
    }

    /// Each of the driver's arrival candidates shifted by its (constant)
    /// intrinsic delay, its spine extended by the driver.
    fn drive(
        &self,
        arrivals: &[Arc<Vec<SymbolicCandidate>>],
        driver: Option<usize>,
    ) -> Vec<SymbolicCandidate> {
        let Some(d) = driver else {
            return vec![SymbolicCandidate::zero()];
        };
        let intrinsic = Poly2::monomial(0, 0, self.intrinsic[d].value());
        arrivals[d]
            .iter()
            .map(|cand| SymbolicCandidate {
                min: cand.min.add(&intrinsic),
                max: cand.max.add(&intrinsic),
                spine: cand.spine.extend(d),
            })
            .collect()
    }

    fn fold(
        &self,
        acc: &mut Arc<Vec<SymbolicCandidate>>,
        out: &Vec<SymbolicCandidate>,
        net: usize,
        sink: usize,
    ) {
        let bound = &self.bounds[net][sink];
        let list = Arc::make_mut(acc);
        for cand in out {
            push_candidate(list, cand.through(bound));
        }
    }

    fn endpoint(
        &self,
        out: &Vec<SymbolicCandidate>,
        net: usize,
        sink: usize,
        name: &Arc<str>,
    ) -> SymbolicEndpointTiming {
        let bound = &self.bounds[net][sink];
        let mut candidates = Vec::with_capacity(out.len());
        for cand in out {
            push_candidate(&mut candidates, cand.through(bound));
        }
        SymbolicEndpointTiming {
            name: Arc::clone(name),
            candidates,
        }
    }
}

/// One endpoint of the symbolic analysis: its primary-output name (the
/// net's shared [`Load::PrimaryOutput`] allocation) and the full candidate
/// set of arrival-window polynomials reaching it.
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolicEndpointTiming {
    name: Arc<str>,
    candidates: Vec<SymbolicCandidate>,
}

impl SymbolicEndpointTiming {
    /// Primary-output name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of surviving arrival candidates (≥ 1).
    pub fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    /// The endpoint's arrival window at one `(r_scale, c_scale)` point:
    /// the strict-`>` fold over the candidate maxima, exactly the scalar
    /// propagation's selection.
    pub fn arrival_at(&self, r_scale: f64, c_scale: f64) -> ArrivalWindow {
        self.winner_at(r_scale, c_scale).window_at(r_scale, c_scale)
    }

    /// The candidate the strict-`>` fold selects at `(r, c)`.
    fn winner_at(&self, r: f64, c: f64) -> &SymbolicCandidate {
        let mut best = &self.candidates[0];
        let mut best_max = best.max.eval(r, c);
        for cand in &self.candidates[1..] {
            let v = cand.max.eval(r, c);
            if v > best_max {
                best = cand;
                best_max = v;
            }
        }
        best
    }

    /// The full [`EndpointTiming`] (window + critical path) at `(r, c)`;
    /// the winner's spine is named through `cache`.
    fn timing_at(&self, r: f64, c: f64, cache: &PropagationCache) -> EndpointTiming {
        let best = self.winner_at(r, c);
        EndpointTiming {
            name: Arc::clone(&self.name),
            arrival: best.window_at(r, c),
            critical_path: Arc::new(best.spine.names(cache)),
        }
    }
}

/// The result of certifying a symbolic analysis over a whole scale box
/// (the `CERTIFY … --over` verb): the exact worst upper-bound arrival over
/// the continuum, where it occurs, and the verdict there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxCertification {
    /// The largest endpoint arrival upper bound anywhere in the box.
    pub worst_arrival: Seconds,
    /// The `(r_scale, c_scale)` point attaining it.
    pub at: (f64, f64),
    /// `required_time − worst_arrival` — the guaranteed slack over the
    /// **entire** box (nonnegative ⇒ every point in the box meets timing).
    pub worst_slack: Seconds,
    /// Three-valued certification of the full report **at the worst
    /// point**.  [`Certification::Pass`] here is equivalent to a pass at
    /// every point of the box (the arrivals are upper bounds and the worst
    /// point maximises them); `Fail`/`Indeterminate` describe the worst
    /// point itself.
    pub verdict: Certification,
}

/// A whole-design **symbolic** timing analysis: per-endpoint arrival
/// windows as degree-≤2 polynomials in the global wire scales
/// `(r_scale, c_scale)`, computed in the same one-post-order +
/// one-pre-order traversal per net as the scalar analysis.
///
/// Evaluating at any point with `r, c > 0`
/// ([`SymbolicAnalysis::report_at`]) reproduces the materialized-corner
/// analysis at that uniform scale (to float round-off in the coefficient
/// accumulation order); certifying over a box
/// ([`SymbolicAnalysis::certify_over`]) finds the **exact** continuum worst
/// case via the quadratics' critical points — no sampling grid.
///
/// A snapshot builds it ([`DesignSnapshot::symbolic`]), and it is also
/// the lane a successor snapshot is rebuilt from: it keeps, all
/// `Arc`-shared, the per-net symbolic sink bounds, the per-instance
/// candidate sets and the per-net endpoint candidates, plus the
/// propagation topology and the net views it was swept from.  A seeded
/// rebuild re-sweeps only the nets whose views changed and re-propagates
/// their fan-out cone: `O(Σ n_changed + cone)` plus one refcount bump per
/// net and instance.
/// `==` compares the threshold, the required time, the instance names in
/// id order and every candidate set — names, coefficients and spine
/// instance sequences — whichever way the lane was built.
#[derive(Clone)]
pub struct SymbolicAnalysis {
    threshold: f64,
    required_time: Seconds,
    /// The topology the lane was propagated over; spines index its
    /// instance names.
    prop: Arc<PropagationCache>,
    /// Per net: the symbolic stage bounds of every sink.
    bounds: Vec<Arc<Vec<SymbolicDelayBounds>>>,
    /// Per instance: the candidate set reaching its input.
    arrivals: Vec<Arc<Vec<SymbolicCandidate>>>,
    /// Per net, by `net_order` rank: its endpoints in sink order.
    endpoints: Vec<Arc<Vec<SymbolicEndpointTiming>>>,
    /// The snapshot net views the bounds were swept from.
    views: NetViews,
}

/// The endpoints of a [`SymbolicAnalysis`] in propagation (net-order)
/// order, read in place from the lane's per-net lists.
#[derive(Clone, Copy)]
pub struct SymbolicEndpoints<'a> {
    per_rank: &'a [Arc<Vec<SymbolicEndpointTiming>>],
}

impl<'a> SymbolicEndpoints<'a> {
    /// The endpoints in propagation order.
    pub fn iter(&self) -> impl Iterator<Item = &'a SymbolicEndpointTiming> + 'a {
        self.per_rank.iter().flat_map(|eps| eps.iter())
    }

    /// Number of endpoints.
    pub fn len(&self) -> usize {
        self.per_rank.iter().map(|eps| eps.len()).sum()
    }

    /// Whether there are no endpoints.
    pub fn is_empty(&self) -> bool {
        self.per_rank.iter().all(|eps| eps.is_empty())
    }
}

impl fmt::Debug for SymbolicEndpoints<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl fmt::Debug for SymbolicAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SymbolicAnalysis")
            .field("threshold", &self.threshold)
            .field("required_time", &self.required_time)
            .field("endpoints", &self.endpoints())
            .finish_non_exhaustive()
    }
}

impl PartialEq for SymbolicAnalysis {
    fn eq(&self, other: &SymbolicAnalysis) -> bool {
        self.threshold == other.threshold
            && self.required_time == other.required_time
            && self.prop.inst_names().eq(other.prop.inst_names())
            && self.arrivals == other.arrivals
            && self.endpoints().iter().eq(other.endpoints().iter())
    }
}

impl SymbolicAnalysis {
    /// A full build: one [`run_full`] of the candidate-set lane over
    /// `bounds`, then every net's endpoints from the final arrivals.
    fn full(
        threshold: f64,
        required_time: Seconds,
        prop: Arc<PropagationCache>,
        bounds: Vec<Arc<Vec<SymbolicDelayBounds>>>,
        views: NetViews,
    ) -> SymbolicAnalysis {
        let lane = SymbolicLane {
            intrinsic: &prop.intrinsic,
            bounds: &bounds,
        };
        let arrivals = run_full(&lane, &prop);
        let none = Arc::new(Vec::new());
        let endpoints = prop
            .net_order
            .iter()
            .map(|&net| {
                let eps: Vec<_> = net_endpoints(&lane, &prop, &arrivals, net).collect();
                match eps.is_empty() {
                    true => Arc::clone(&none),
                    false => Arc::new(eps),
                }
            })
            .collect();
        SymbolicAnalysis {
            threshold,
            required_time,
            prop,
            bounds,
            arrivals,
            endpoints,
            views,
        }
    }

    /// The views this lane was swept from, when a snapshot over `prop` at
    /// `threshold` with `nets` net views can be rebuilt from it: the lane
    /// was swept from snapshot views over the same topology `Arc` at the
    /// same threshold.
    fn seed_views(
        &self,
        prop: &Arc<PropagationCache>,
        threshold: f64,
        nets: usize,
    ) -> Option<&NetViews> {
        (Arc::ptr_eq(&self.prop, prop) && self.threshold == threshold && self.views.len() == nets)
            .then_some(&self.views)
    }

    /// The successor lane over `views`: `swept` holds the fresh bounds of
    /// every net whose view changed, and one [`run_cone`] from the nets
    /// whose bounds moved re-derives their fan-out cone; everything else
    /// is shared with this lane.  Returns it with the number of net ranks
    /// the walk visited.
    fn rebuilt(
        &self,
        swept: Vec<(usize, Arc<Vec<SymbolicDelayBounds>>)>,
        required_time: Seconds,
        views: NetViews,
    ) -> (SymbolicAnalysis, u64) {
        let mut bounds = self.bounds.clone();
        let mut dirty = Vec::new();
        for (net, fresh) in swept {
            if fresh != bounds[net] {
                bounds[net] = fresh;
                dirty.push(self.prop.net_rank[net]);
            }
        }
        let mut arrivals = self.arrivals.clone();
        let lane = SymbolicLane {
            intrinsic: &self.prop.intrinsic,
            bounds: &bounds,
        };
        let (rewritten, cone_ranks) = run_cone(&lane, &self.prop, &mut arrivals, dirty);
        let mut endpoints = self.endpoints.clone();
        for (net, eps) in rewritten {
            endpoints[self.prop.net_rank[net]] = Arc::new(eps);
        }
        let lane = SymbolicAnalysis {
            threshold: self.threshold,
            required_time,
            prop: Arc::clone(&self.prop),
            bounds,
            arrivals,
            endpoints,
            views,
        };
        (lane, cone_ranks)
    }

    /// The switching threshold the stage bounds were computed at.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The required arrival time carried into evaluated reports.
    pub fn required_time(&self) -> Seconds {
        self.required_time
    }

    /// Per-endpoint symbolic timings, in propagation (net-order) order.
    pub fn endpoints(&self) -> SymbolicEndpoints<'_> {
        SymbolicEndpoints {
            per_rank: &self.endpoints,
        }
    }

    /// Looks up one endpoint's symbolic timing by primary-output name.
    pub fn endpoint(&self, name: &str) -> Option<&SymbolicEndpointTiming> {
        self.endpoints().iter().find(|e| &*e.name == name)
    }

    /// Evaluates the analysis at one `(r_scale, c_scale)` point into an
    /// ordinary [`TimingReport`]: every endpoint folds its candidates with
    /// the scalar pass's strict-`>` rule, then the endpoints are sorted
    /// with the same stable descending-worst-arrival comparator.
    pub fn report_at(&self, r_scale: f64, c_scale: f64) -> TimingReport {
        TimingReport {
            threshold: self.threshold,
            required_time: self.required_time,
            endpoints: self
                .endpoints()
                .iter()
                .map(|e| e.timing_at(r_scale, c_scale, &self.prop))
                .collect(),
        }
    }

    /// Certifies the design against `required_time` over the **continuum**
    /// box `r_scale ∈ [r.0, r.1] × c_scale ∈ [c.0, c.1]`: the worst
    /// arrival is the exact maximum of every candidate polynomial over the
    /// box ([`Poly2::max_over_box`] — corners, edge stationary points and
    /// interior critical points of the quadratics), folded with strict `>`
    /// in candidate order so the reported witness point is deterministic.
    /// The verdict is [`TimingReport::certification_against`] of the report
    /// at that point, folded from each endpoint's window there without
    /// building the report.
    ///
    /// # Panics
    ///
    /// As for [`Poly2::max_over_box`]: non-finite or inverted ranges.
    pub fn certify_over(
        &self,
        required_time: Seconds,
        r: (f64, f64),
        c: (f64, f64),
    ) -> BoxCertification {
        let mut worst: Option<(f64, (f64, f64))> = None;
        for endpoint in self.endpoints().iter() {
            for cand in &endpoint.candidates {
                let (v, at) = cand.max.max_over_box(r, c);
                match worst {
                    Some((w, _)) if v <= w => {}
                    _ => worst = Some((v, at)),
                }
            }
        }
        // An endpoint-less design has nothing that can miss timing; report
        // the box's lower corner as the (vacuous) witness.
        let (worst_arrival, at) = worst.unwrap_or((0.0, (r.0, c.0)));
        // The report's rule: `Fail` if some endpoint's earliest arrival
        // misses the budget, else `Indeterminate` if some latest arrival
        // does, else `Pass`.
        let mut verdict = Certification::Pass;
        for endpoint in self.endpoints().iter() {
            let arrival = endpoint.arrival_at(at.0, at.1);
            if arrival.max <= required_time {
                continue;
            }
            if arrival.min > required_time {
                verdict = Certification::Fail;
                break;
            }
            verdict = Certification::Indeterminate;
        }
        BoxCertification {
            worst_arrival: Seconds::new(worst_arrival),
            at,
            worst_slack: required_time - Seconds::new(worst_arrival),
            verdict,
        }
    }
}

/// One net-level engineering change order: a named net plus a name-based
/// edit of its extracted interconnect.
///
/// Node references are by *name* rather than [`rctree_core::NodeId`]
/// because structural edits (prunes) renumber ids; names are the stable
/// handle across an edit script.
#[derive(Debug, Clone)]
pub struct EcoEdit {
    /// Name of the net whose interconnect is edited.
    pub net: String,
    /// The edit to apply.
    pub kind: EcoEditKind,
}

/// The name-based edit vocabulary of [`Design::apply_eco`], mirroring
/// [`TreeEdit`].
#[derive(Debug, Clone)]
pub enum EcoEditKind {
    /// Replace the lumped grounded capacitance at a node.
    SetCap {
        /// Node name within the net's interconnect.
        node: String,
        /// New total lumped capacitance.
        cap: Farads,
    },
    /// Replace the branch element feeding a node.
    SetBranch {
        /// Node name within the net's interconnect (not the net root).
        node: String,
        /// The new branch element.
        branch: Branch,
    },
    /// Graft a validated subtree under an existing node.
    Graft {
        /// Host node name the subtree is attached under.
        parent: String,
        /// The new branch connecting the host node to the subtree's input.
        via: Branch,
        /// The subtree to graft (boxed to keep the edit enum small).
        subtree: Box<RcTree>,
    },
    /// Remove a node, its feeding branch, and its whole subtree.
    Prune {
        /// Name of the subtree root to remove.
        node: String,
    },
}

impl Design {
    /// Creates an empty design over the given cell library.
    pub fn new(library: CellLibrary) -> Self {
        Design {
            shared: Arc::new(DesignCore {
                library,
                names: Arc::default(),
                instances: Vec::new(),
                nets: Vec::new(),
                sink_start: vec![0],
                topo: Mutex::new(None),
                corners: None,
            }),
            eco: None,
            published: 0,
        }
    }

    /// Adds an instance of a library cell.
    ///
    /// # Errors
    ///
    /// * [`StaError::UnknownCell`] if the cell is not in the library;
    /// * [`StaError::DuplicateInstance`] if the instance name is taken.
    pub fn add_instance(&mut self, name: impl Into<String>, cell: impl Into<String>) -> Result<()> {
        let name = name.into();
        let cell = self.shared.library.position(&cell.into())?;
        if self.shared.names.instance(&name).is_some() {
            return Err(StaError::DuplicateInstance { name });
        }
        // A new instance changes the propagation topology; the per-net
        // stage arrays are untouched.
        self.mutate().push_instance(&name, cell);
        Ok(())
    }

    /// Adds a net, resolving every name it holds: the driver and each
    /// load to an instance id, each sink node to a node of its tree.
    ///
    /// # Errors
    ///
    /// In this order:
    /// * [`StaError::DuplicateNet`] if a net with the same name already
    ///   exists (names address ECO edits and snapshot queries, so they
    ///   must be unique);
    /// * [`StaError::UnknownInstance`] if the driver instance does not
    ///   exist;
    /// * per sink, [`StaError::UnknownSinkNode`] if it references a node
    ///   that is not part of the net's interconnect tree, then
    ///   [`StaError::UnknownInstance`] if its load instance does not
    ///   exist.
    pub fn add_net(&mut self, net: Net) -> Result<()> {
        let core = &self.shared;
        core.check_new_net(&net.name)?;
        let instance = |name: &str| {
            core.names
                .instance(name)
                .ok_or_else(|| StaError::UnknownInstance {
                    name: name.to_string(),
                })
        };
        let driver = match &net.driver {
            Driver::PrimaryInput => None,
            Driver::Instance(inst) => Some(instance(inst)?),
        };
        let mut loads = Vec::with_capacity(net.sinks.len());
        let mut targets = Vec::with_capacity(net.sinks.len());
        for sink in &net.sinks {
            let node = net.interconnect.node_by_name(&sink.node).map_err(|_| {
                StaError::UnknownSinkNode {
                    net: net.name.clone(),
                    node: sink.node.clone(),
                }
            })?;
            let (cap, target) = match &sink.load {
                Load::Instance(inst) => {
                    let inst = instance(inst)?;
                    (core.cell(inst).input_capacitance, Target::Instance(inst))
                }
                Load::PrimaryOutput(po) => (Farads::ZERO, Target::Output(Arc::clone(po))),
            };
            loads.push((node, cap));
            targets.push(target);
        }
        self.mutate().push_net(
            &net.name,
            net.interconnect,
            driver,
            loads.into(),
            targets.into(),
        );
        Ok(())
    }

    /// The core, for a change to its instances or nets, with the topology
    /// and ECO state dropped first (so that adding a name copies the name
    /// table only while a snapshot still shares it).
    fn mutate(&mut self) -> &mut DesignCore {
        self.eco = None;
        self.published = 0;
        let core = Arc::make_mut(&mut self.shared);
        core.topo = Mutex::new(None);
        core
    }

    /// Number of instances in the design.
    pub fn instance_count(&self) -> usize {
        self.shared.instances.len()
    }

    /// Number of nets in the design.
    pub fn net_count(&self) -> usize {
        self.shared.nets.len()
    }

    /// Installs (or replaces) the design's PVT corner set.
    ///
    /// Corner 0 of any set is the implicit nominal corner, so a
    /// nominal-only set is stored as "no corners" and the design behaves
    /// exactly as an uncornered one (no extra lanes, no corner tails).
    /// Installing corners invalidates the incremental ECO state (it holds
    /// one lane per corner); the nominal analysis results themselves are
    /// unchanged — lane 0 runs the exact float sequence of the
    /// single-corner path.
    pub fn set_corners(&mut self, corners: CornerSet) {
        let core = Arc::make_mut(&mut self.shared);
        core.corners = if corners.is_nominal_only() {
            None
        } else {
            Some(Arc::new(corners))
        };
        self.eco = None;
        self.published = 0;
    }

    /// The active corner set, `None` when the design is nominal-only.
    pub fn corners(&self) -> Option<&CornerSet> {
        self.shared.corners.as_deref()
    }

    /// Number of timing corners (1 when no corner set is installed).
    pub fn corner_count(&self) -> usize {
        self.shared.corner_set().len()
    }

    /// Runs the full arrival-time propagation and produces a report,
    /// sharding the per-net stage evaluation over
    /// [`rctree_par::default_jobs`] worker threads (`RCTREE_JOBS` overrides
    /// the hardware default).  See [`Design::analyze_with_jobs`].
    ///
    /// `threshold` is the switching threshold (fraction of the swing) used
    /// for every stage; `required_time` is the budget every endpoint must
    /// meet.
    ///
    /// # Errors
    ///
    /// * [`StaError::EmptyDesign`] if there is nothing to analyse;
    /// * [`StaError::CombinationalCycle`] if the instance graph has a cycle;
    /// * stage-level errors from the core crate.
    pub fn analyze(&self, threshold: f64, required_time: Seconds) -> Result<TimingReport> {
        self.analyze_with_jobs(threshold, required_time, rctree_par::default_jobs())
    }

    /// [`Design::analyze`] with an explicit worker count.
    ///
    /// Net/stage evaluation — all the numerical work — is embarrassingly
    /// parallel: every net is one independent `O(n)` batched sweep.  The
    /// persistent [`rctree_par::global_pool`] (worker threads are started
    /// once per process and reused by every subsequent call) sweeps
    /// contiguous ranges of nets, each into buffers of its own, and the
    /// buffers are appended in net order into one exact-size window column
    /// per lane, so the report is **bit-identical** to the serial
    /// evaluation (`jobs = 1`) for every worker count.  While the pool
    /// sweeps, the calling thread builds (or fetches) the propagation
    /// topology.  The arrival times then fold over the column in one
    /// serial pass, and the endpoints are built from the final arrivals on
    /// the pool: contiguous ranges of net ranks, each sorted into report
    /// order in a buffer of its own, then merged once into the report's
    /// leaves.
    ///
    /// # Errors
    ///
    /// As for [`Design::analyze`].  On a design with invalid nets the error
    /// surfaced is the first failing net's in net order, independent of
    /// scheduling, and it wins over a [`StaError::CombinationalCycle`] the
    /// topology build found meanwhile.
    pub fn analyze_with_jobs(
        &self,
        threshold: f64,
        required_time: Seconds,
        jobs: usize,
    ) -> Result<TimingReport> {
        let mut reports = self.analyze_lanes(threshold, required_time, jobs, 1)?;
        Ok(reports.remove(0))
    }

    /// Analyses **every corner** of the installed [`CornerSet`]: each net's
    /// lanes are spliced and swept one after the other through the same
    /// `f64` kernel and per-worker scratch (`stage::lane_bounds`), then
    /// arrival windows are propagated once per corner over the cached
    /// topology, each corner using its `delay_scale`d intrinsic delays.
    ///
    /// Corner 0 (nominal) runs the exact float sequence of
    /// [`Design::analyze_with_jobs`], so `report(0)` is bit-identical to a
    /// single-corner analysis for every `jobs` value.  Every other corner
    /// is bit-identical to analysing that corner's fully materialized
    /// design ([`Design::materialize_corner`]): both paths scale each
    /// element with a single multiplication before any accumulation.
    ///
    /// Without an installed corner set this is exactly one nominal
    /// analysis wrapped in a single-entry [`CornerAnalysis`].
    ///
    /// # Errors
    ///
    /// As for [`Design::analyze_with_jobs`]; the error surfaced is the
    /// first failing net in net order, and within it the lowest failing
    /// corner.
    pub fn analyze_corners(
        &self,
        threshold: f64,
        required_time: Seconds,
        jobs: usize,
    ) -> Result<CornerAnalysis> {
        let set = self.shared.corner_set();
        let reports = self.analyze_lanes(threshold, required_time, jobs, set.len())?;
        Ok(CornerAnalysis {
            names: set.corners().iter().map(|c| c.name.clone()).collect(),
            reports: reports.into_iter().map(Arc::new).collect(),
        })
    }

    /// The reports of corner lanes `0..lanes`: every lane's stage windows
    /// from the stage sweep, each through the full pass ([`scalar_full`])
    /// with its corner's intrinsic delays.
    fn analyze_lanes(
        &self,
        threshold: f64,
        required_time: Seconds,
        jobs: usize,
        lanes: usize,
    ) -> Result<Vec<TimingReport>> {
        if self.shared.nets.is_empty() {
            return Err(StaError::EmptyDesign);
        }
        let (delays, cache) = self.stage_delays(threshold, jobs, lanes, Vec::new())?;
        Ok(delays
            .into_iter()
            .enumerate()
            .map(|(k, delays)| {
                let intrinsic = self.shared.lane_intrinsic(&cache, k);
                let (_, endpoints) = scalar_full(&self.shared, &cache, intrinsic, delays, jobs);
                TimingReport {
                    threshold,
                    required_time,
                    endpoints,
                }
            })
            .collect())
    }

    /// Stage timing of corner lanes `0..lanes` of every net, with the
    /// propagation topology: one window column per lane, net `i`'s sinks at
    /// `sink_start[i]..sink_start[i + 1]`, from the one stage sweep of
    /// each net ([`DesignCore::net_windows`]).  One `O(n)` sweep covers all
    /// of a net's fan-outs at one corner, so the full design evaluation is
    /// linear in total augmented-node count plus total sink count, per
    /// lane, divided across the pool's workers.
    ///
    /// The pool sweeps contiguous ranges of nets, each into exact-size
    /// buffers of its own ([`DesignCore::sweep_range`]) with one `Weak`
    /// upgrade per range, and the buffers are appended in net order: a
    /// call allocates a few buffers per range and frees none per net.
    /// While the pool sweeps, the calling thread builds or fetches the
    /// topology (its own `sta.topology` span), then joins: the
    /// `sta.stage_sweep` span is the caller's share of the sweep, its wait
    /// and the append.
    ///
    /// The nets listed in `given` (in net order) take the windows supplied
    /// with them instead of a sweep (the ECO warm-up's already re-timed
    /// dirty nets).  Errors surface as the first failing net in net order,
    /// and within it the lowest failing lane; a failing net wins over a
    /// topology error, at every worker count.
    fn stage_delays(
        &self,
        threshold: f64,
        jobs: usize,
        lanes: usize,
        given: Vec<Retimed>,
    ) -> Result<(Vec<Vec<Window>>, Arc<PropagationCache>)> {
        const RANGES_PER_WORKER: usize = 8;
        let core = &self.shared;
        let n = core.nets.len();
        let ranges = jobs.max(1).saturating_mul(RANGES_PER_WORKER).min(n);
        // Pool jobs hold the core through a Weak, so a queued straggler
        // runner can never pin the strong count past this call and turn a
        // later `Arc::make_mut` commit into a deep clone of the design.
        let state = Arc::new((Arc::downgrade(core), given));
        let sweep = rctree_par::start_map_global(
            jobs,
            state,
            ranges,
            move |r, (weak, given): &(Weak<DesignCore>, Vec<Retimed>)| {
                let core = weak.upgrade().expect("design outlives its analysis");
                core.sweep_range(
                    r * n / ranges..(r + 1) * n / ranges,
                    given,
                    lanes,
                    threshold,
                )
            },
        );
        let topology = core.topology();
        let mut obs_span = rctree_obs::span("sta.stage_sweep");
        obs_span.attr_u64("nets", n as u64);
        let mut columns: Vec<Vec<Window>> = (0..lanes)
            .map(|_| Vec::with_capacity(core.sink_start[n]))
            .collect();
        for buffers in sweep.join() {
            for (column, buffer) in columns.iter_mut().zip(buffers?) {
                column.extend_from_slice(&buffer);
            }
        }
        drop(obs_span);
        Ok((columns, topology?))
    }

    /// Builds a standalone single-corner [`Design`]: every cell parameter
    /// and every interconnect element of this design scaled by corner
    /// `k`'s factors (wire scales honour per-net overrides).  Analysing
    /// the materialized design with [`Design::analyze_with_jobs`] is
    /// **bit-identical** to `analyze_corners(..).report(k)` — both scale
    /// each element with a single multiplication before any accumulation —
    /// which makes this the serial per-corner oracle of the equivalence
    /// tests and the baseline of `benches/corner_sweep.rs`.
    ///
    /// # Errors
    ///
    /// * [`StaError::Core`] with an `InvalidValue` on a corner index out of
    ///   range;
    /// * construction errors while rebuilding the scaled trees (reachable
    ///   only through pathological scale factors, e.g. an overflow to
    ///   infinity).
    pub fn materialize_corner(&self, k: usize) -> Result<Design> {
        let set = self.shared.corner_set();
        if k >= set.len() {
            return Err(StaError::Core(
                rctree_core::error::CoreError::InvalidValue {
                    what: "corner lane index",
                    value: k as f64,
                },
            ));
        }
        let corner = set.corner(k);
        let mut library = CellLibrary::new();
        for cell in self.shared.library.iter() {
            library.insert(Cell::new(
                cell.name.clone(),
                Ohms::new(cell.drive_resistance.value() * corner.r_scale),
                Farads::new(cell.input_capacitance.value() * corner.c_scale),
                Seconds::new(cell.intrinsic_delay.value() * corner.delay_scale),
            ));
        }
        let mut out = Design::new(library);
        let core = &self.shared;
        for inst in 0..core.instances.len() {
            out.add_instance(core.inst_name(inst), core.cell(inst).name.as_str())?;
        }
        for i in 0..core.nets.len() {
            let mut net = core.net_input(i);
            let (wire_r, wire_c) = set.wire_scales(&net.name, k);
            net.interconnect = scale_tree(&net.interconnect, wire_r, wire_c)?;
            out.add_net(net)?;
        }
        Ok(out)
    }

    /// Applies a batch of net-level ECO edits and returns the refreshed
    /// timing report, re-evaluating **only the touched nets**.
    ///
    /// Uses [`rctree_par::default_jobs`] workers when many nets are dirty;
    /// see [`Design::apply_eco_with_jobs`].
    ///
    /// # Errors
    ///
    /// As for [`Design::apply_eco_with_jobs`].
    pub fn apply_eco(
        &mut self,
        edits: &[EcoEdit],
        threshold: f64,
        required_time: Seconds,
    ) -> Result<TimingReport> {
        self.apply_eco_with_jobs(edits, threshold, required_time, rctree_par::default_jobs())
    }

    /// [`Design::apply_eco`] with an explicit worker count.
    ///
    /// The first call (or a call after the threshold changes or the design
    /// is structurally modified) evaluates every net once and caches the
    /// complete incremental state: every corner lane's window column (one
    /// exact-size column of sink windows per lane, a dirty net's range
    /// overwritten in place by a later edit), the Kahn propagation
    /// topology, and the per-instance arrival windows of the last report.
    /// Subsequent calls then cost only the dirty work:
    ///
    /// | step | cost |
    /// |------|------|
    /// | edit application (value) | one row written in the net's table ([`RcTree::apply`]) |
    /// | edit application (structural) | `O(n_net)` integer re-index |
    /// | dirty-net re-timing | one flat `O(n_net)` stage sweep per corner ([`crate::stage::stage_delay_bounds`]'s kernel) |
    /// | arrival re-propagation | `O(affected fan-out cone)` |
    /// | endpoint re-filing | `O(log E + L + F)` per cone endpoint, per lane |
    /// | report assembly | `O(E/(L·F))` node refcount bumps |
    ///
    /// for `E` endpoints held in leaves of at most `L` = 32 under nodes of
    /// at most `F` = 32 leaves (see [`Endpoints`]): the persistent endpoint
    /// order is updated in place for the endpoints the cone walk rewrote,
    /// and the returned report shares every node with it.  An edit copies
    /// the net's table first (`O(n_net)`) when a published snapshot still
    /// shares it.
    ///
    /// The cone walk re-derives an instance's arrival by folding its
    /// in-edges in the exact order the full pass uses and prunes fan-out
    /// wherever the recomputed arrival is unchanged, so the report is
    /// **bit-identical** to a full [`Design::analyze_with_jobs`] of the
    /// edited design for any `jobs` value (the dirty-net sweep is the same
    /// flat kernel the one-shot path runs, and untouched cones keep their
    /// cached windows verbatim).  Structural *design* mutation
    /// ([`Design::add_instance`] / [`Design::add_net`]) invalidates the
    /// cache, falling back to a full propagation on the next call.
    ///
    /// An empty `edits` slice is a cache-warming full analysis; it leaves
    /// the nets, and a core shared with clones of the design, untouched.
    ///
    /// # Errors
    ///
    /// * [`StaError::UnknownNet`] if an edit names a net not in the design;
    /// * [`StaError::UnknownEcoNode`] if an edit references a node name
    ///   missing from its net's interconnect;
    /// * [`StaError::UnknownSinkNode`] if an edit prunes a node that a
    ///   sink of the net is attached to;
    /// * [`StaError::Core`] for edit-level validation failures (negative
    ///   values, grafted name collisions, pruning the net root);
    /// * plus every error of [`Design::analyze_with_jobs`].
    ///
    /// Edits are applied transactionally per call, by snapshot: they are
    /// applied to **clones** of the dirty nets' trees (each clone shares
    /// its table, and the first edit copies that one table), and
    /// validation plus the stage re-timing run entirely against that
    /// pre-commit state.  On any error the design *and* the cached windows
    /// of every net (dirty or not) are left exactly as they were before the
    /// call — a failing call never forces the next one to pay a full
    /// re-warm.
    pub fn apply_eco_with_jobs(
        &mut self,
        edits: &[EcoEdit],
        threshold: f64,
        required_time: Seconds,
        jobs: usize,
    ) -> Result<TimingReport> {
        self.apply_eco_touching(edits, threshold, jobs)?;
        let state = self
            .eco
            .as_ref()
            .expect("a successful apply leaves a warm state");
        Ok(state.report(0, required_time))
    }

    /// [`Design::apply_eco_with_jobs`], returning what re-filing the
    /// endpoint orders touched (every endpoint of every lane counts as
    /// moved on a cold call) and leaving the report in the warm state.
    fn apply_eco_touching(
        &mut self,
        edits: &[EcoEdit],
        threshold: f64,
        jobs: usize,
    ) -> Result<Touched> {
        if self.shared.nets.is_empty() {
            return Err(StaError::EmptyDesign);
        }
        let warm = self
            .eco
            .as_ref()
            .is_some_and(|state| state.threshold == threshold);
        let mut obs_span = rctree_obs::span("sta.eco_apply");
        obs_span.attr_u64("edits", edits.len() as u64);
        obs_span.attr_u64("warm", u64::from(warm));

        // Group the edits by net index, preserving intra-net order.
        let by_net = group_edits(&self.shared, edits)?;

        // Apply the edits to *clones* of the dirty nets' trees and re-time
        // every corner lane of them (the transactional snapshot: on any
        // error below, neither the design nor the cached state has been
        // touched).
        let (edited, retimed) = self.process_dirty(&by_net, threshold, jobs)?;

        let (state, touched) = if warm {
            let mut state = self.eco.take().expect("warm state present");
            // Everything fallible has succeeded — commit, then re-propagate
            // only the affected cone.  Every lane walks the **same** dirty
            // cone ranks: the dirty-net set and the topology are
            // corner-independent, only the windows and intrinsics differ
            // per lane.
            let dirty_ranks: Vec<usize> = retimed
                .iter()
                .map(|(idx, _)| state.prop.net_rank[*idx])
                .collect();
            let sink_start = &self.shared.sink_start;
            for (idx, windows) in retimed {
                // An edit keeps the net's sink count: overwrite its range.
                let at = sink_start[idx];
                for (lane, w) in state.lanes.iter_mut().zip(windows) {
                    lane.delays[at..at + w.len()].copy_from_slice(&w);
                }
            }
            let mut touched = Touched::default();
            for lane in &mut state.lanes {
                touched += lane.cone(&state.prop, sink_start, &dirty_ranks);
            }
            (state, touched)
        } else {
            // Cold cache (first call, threshold change, or structural
            // design mutation): one full warm-up that evaluates every net
            // once, taking the dirty nets' windows from their edited
            // trees, then a full propagation.  On error the previous state
            // (still valid for *its* threshold) is left in place.
            self.warm_state(threshold, jobs, retimed)?
        };
        // Only a call that changed a net touches the core, so an empty
        // batch never copies a core shared with clones of the design.
        if !edited.is_empty() {
            let core = Arc::make_mut(&mut self.shared);
            for (idx, tree, loads) in edited {
                // Structural edits renumber node ids; the loads were
                // re-bound to the edited tree.
                core.nets[idx].tree = tree;
                core.nets[idx].loads = loads;
            }
        }
        self.eco = Some(state);
        // The design state moved past whatever snapshot was last
        // published; `publish`/`publish_after_eco` re-stamp after
        // their internal apply.
        self.published = 0;
        Ok(touched)
    }

    /// Applies grouped edits to clones of the dirty nets' trees and
    /// re-times every corner lane of each, returning the edited nets and
    /// their windows in net order.  Pure with respect to `self`: the caller
    /// commits.
    ///
    /// After a graft or prune each sink is re-bound by its node's name in
    /// the pre-edit tree (the sink-survival rule: a prune may not remove a
    /// node a sink hangs on).  The re-time is sharded over the persistent
    /// pool only when the
    /// dirty set is large enough to amortise the handoff; either way the
    /// windows are computed per net independently, so results are
    /// identical for every `jobs` value.
    fn process_dirty(
        &self,
        by_net: &BTreeMap<usize, Vec<&EcoEdit>>,
        threshold: f64,
        jobs: usize,
    ) -> Result<(Vec<Edited>, Vec<Retimed>)> {
        const PAR_DIRTY_MIN: usize = 8;
        let core = &self.shared;
        let mut edited = Vec::with_capacity(by_net.len());
        for (&idx, net_edits) in by_net {
            let net = &core.nets[idx];
            let mut tree = net.tree.clone();
            let mut structural = false;
            for edit in net_edits {
                let tree_edit = resolve_edit(&edit.net, &edit.kind, &tree)?;
                structural |= matches!(
                    tree_edit,
                    TreeEdit::GraftSubtree { .. } | TreeEdit::PruneSubtree { .. }
                );
                tree.apply(&tree_edit)?;
            }
            let loads = if structural {
                // Node ids were renumbered: re-bind every sink by its name.
                net.loads
                    .iter()
                    .map(|&(node, load)| {
                        let name = net.tree.name(node)?;
                        let node =
                            tree.node_by_name(name)
                                .map_err(|_| StaError::UnknownSinkNode {
                                    net: core.names.table.resolve(net.name).to_string(),
                                    node: name.to_string(),
                                })?;
                        Ok((node, load))
                    })
                    .collect::<Result<_>>()?
            } else {
                Arc::clone(&net.loads)
            };
            edited.push((idx, tree, loads));
        }

        let lanes = core.corner_set().len();
        let windows: Vec<Vec<Vec<Window>>> = if edited.len() < PAR_DIRTY_MIN || jobs <= 1 {
            edited
                .iter()
                .map(|edited| core.edited_windows(edited, lanes, threshold))
                .collect::<Result<_>>()?
        } else {
            // The Weak keeps a straggler runner from pinning the core (see
            // `stage_delays`); the trees and loads are refcount clones.
            let state = Arc::new((Arc::downgrade(core), edited.clone()));
            rctree_par::par_map_global(
                jobs,
                state,
                edited.len(),
                move |k, (weak, edited): &(Weak<DesignCore>, Vec<Edited>)| {
                    let core = weak.upgrade().expect("design outlives its analysis");
                    core.edited_windows(&edited[k], lanes, threshold)
                },
            )
            .into_iter()
            .collect::<Result<_>>()?
        };
        let retimed = edited.iter().map(|(idx, ..)| *idx).zip(windows).collect();
        Ok((edited, retimed))
    }

    /// Builds a complete [`EcoState`] for the current design at
    /// `threshold`: every lane's window column (`given` supplies the
    /// windows of the edited dirty nets, so no net is evaluated twice) and
    /// the propagation topology, built while the pool sweeps
    /// ([`Design::stage_delays`]), then the batch analysis's full pass per
    /// lane ([`LaneTiming::full`]).  Returns the state with the endpoints
    /// filed into its lanes' orders.  Pure with respect to `self`.
    fn warm_state(
        &self,
        threshold: f64,
        jobs: usize,
        given: Vec<Retimed>,
    ) -> Result<(EcoState, Touched)> {
        let lanes = self.shared.corner_set().len();
        let (delays, prop) = self.stage_delays(threshold, jobs, lanes, given)?;

        // One full pass per lane, with the lane's scaled intrinsics.
        let mut touched = Touched::default();
        let lanes = delays
            .into_iter()
            .enumerate()
            .map(|(k, delays)| {
                let intrinsic = self.shared.lane_intrinsic(&prop, k);
                let (lane, filed) = LaneTiming::full(&self.shared, &prop, intrinsic, delays, jobs);
                touched.endpoints_moved += filed;
                lane
            })
            .collect();
        let state = EcoState {
            threshold,
            prop,
            lanes,
        };
        Ok((state, touched))
    }

    /// Builds a single-stage-per-net design from extracted parasitics: the
    /// shape of a deck fresh out of a parasitic extractor, before gate-level
    /// connectivity is known.
    ///
    /// Every `(name, tree)` pair becomes one instance `{name}_drv` of
    /// `driver_cell` driving `tree`, fed from a primary input through a
    /// short feeder net `{name}_pi`; every output node of `tree` becomes a
    /// primary output named `"{name}/{node}"`.  This is the bridge from
    /// `rctree_netlist::parse_spef_deck` to a [`Design`] that
    /// [`Design::analyze`] can shard across workers.
    ///
    /// # Errors
    ///
    /// Those of one [`Design::add_instance`] and two [`Design::add_net`]
    /// calls per deck net, in deck order:
    ///
    /// * [`StaError::UnknownCell`] if `driver_cell` is not in `library`;
    /// * [`StaError::DuplicateInstance`] if two nets share a name;
    /// * [`StaError::DuplicateNet`] if a deck net name collides with a
    ///   synthesized feeder name (a deck holding both `x` and `x_pi`).
    pub fn from_extracted<I>(library: CellLibrary, driver_cell: &str, nets: I) -> Result<Design>
    where
        I: IntoIterator<Item = (String, RcTree)>,
    {
        let mut obs_span = rctree_obs::span("sta.net_build");
        let mut design = Design::new(library);
        let core = Arc::get_mut(&mut design.shared).expect("a fresh design is unshared");
        // One driver-cell lookup, up front, so an empty deck still reports
        // a bad cell name.
        let cell = core.library.position(driver_cell)?;
        let pin_cap = core.library.at(cell).input_capacitance;

        // Feeder: a primary input reaching the driver through a token
        // 10 Ω / 1 fF wire, so every stage has a real arrival window.  One
        // table and one load list, shared by every feeder net.
        let mut builder = rctree_core::builder::RcTreeBuilder::new();
        let pin = builder
            .add_line(
                builder.input(),
                "pin",
                rctree_core::units::Ohms::new(10.0),
                Farads::from_femto(1.0),
            )
            .expect("static feeder wire is valid");
        let feeder = builder.build().expect("static feeder wire is valid");
        let feeder_loads: Arc<[(NodeId, Farads)]> = Arc::new([(pin, pin_cap)]);

        let nets = nets.into_iter();
        let hint = nets.size_hint().0;
        core.instances.reserve(hint);
        core.nets.reserve(2 * hint);
        core.sink_start.reserve(2 * hint);
        // The same nets, checks and error order as one `add_instance` and
        // two `add_net` calls per deck net, with each sink taken from the
        // ids in hand instead of resolved by name.  Every synthesized name
        // is formatted into `buf` and only interned; each `{net}/{node}`
        // primary output is allocated once, as its shared name.
        let mut buf = String::new();
        let mut loads = Vec::new();
        let mut targets = Vec::new();
        for (name, tree) in nets {
            buf.clear();
            buf.push_str(&name);
            buf.push_str("_drv");
            if core.names.instance(&buf).is_some() {
                return Err(StaError::DuplicateInstance { name: buf });
            }
            let inst = core.push_instance(&buf, cell);
            buf.truncate(name.len());
            buf.push_str("_pi");
            core.check_new_net(&buf)?;
            let feeder_target: Arc<[Target]> = Arc::new([Target::Instance(inst)]);
            core.push_net(
                &buf,
                feeder.clone(),
                None,
                Arc::clone(&feeder_loads),
                feeder_target,
            );

            for id in tree.outputs() {
                buf.truncate(name.len());
                buf.push('/');
                buf.push_str(tree.name(id).expect("output node exists"));
                loads.push((id, Farads::ZERO));
                targets.push(Target::Output(Arc::from(buf.as_str())));
            }
            core.check_new_net(&name)?;
            let loads_of_net = Arc::from(loads.as_slice());
            loads.clear();
            core.push_net(
                &name,
                tree,
                Some(inst),
                loads_of_net,
                targets.drain(..).collect(),
            );
        }
        obs_span.attr_u64("nets", core.nets.len() as u64);
        Ok(design)
    }

    /// Partitions the design into at most `shards` timing-independent
    /// sub-designs for per-shard publishing (the sharded snapshot store of
    /// `rctree-serve`).
    ///
    /// Nets are grouped into connected components of the net–instance
    /// graph (two nets connect when one drives an instance the other is
    /// driven by or loads), so no signal path ever crosses a partition and
    /// every shard analyses exactly as it would inside the monolithic
    /// design — per-net results are bit-identical, and
    /// [`TimingReport::compose`] over the shard reports reproduces the
    /// monolithic report.  Components are kept in first-net order and cut
    /// into contiguous ranges: component `j` of `c` goes to shard
    /// `j * n / c` — the deterministic net-range rule clients can
    /// replicate from the deck alone (for extracted decks every component
    /// is one deck net plus its feeder, in deck order).  Fewer components
    /// than `shards` yields fewer (never empty) shards.  Instances not
    /// referenced by any net ride with shard 0.  Each shard clones the
    /// full corner set; overrides naming nets of other shards are inert
    /// (override scales are looked up by net name at analysis time).
    ///
    /// # Errors
    ///
    /// * [`StaError::EmptyDesign`] if the design has no nets.
    pub fn partition(&self, shards: usize) -> Result<Vec<Design>> {
        let total = self.shared.nets.len();
        if total == 0 {
            return Err(StaError::EmptyDesign);
        }
        let shards = shards.max(1);

        // Union-find over net indices, joined through shared instances.
        let mut parent: Vec<usize> = (0..total).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        let core = &self.shared;
        // Per instance, the first net naming it (`None`: an orphan).
        let mut first_net_of: Vec<Option<usize>> = vec![None; core.instances.len()];
        for (idx, net) in core.nets.iter().enumerate() {
            let loads = net.targets.iter().filter_map(|target| match target {
                Target::Instance(inst) => Some(*inst),
                Target::Output(_) => None,
            });
            for inst in net.driver.into_iter().chain(loads) {
                match first_net_of[inst] {
                    Some(first) => {
                        let (a, b) = (find(&mut parent, idx), find(&mut parent, first));
                        // Root at the lower index so component order below
                        // is stable first-net order.
                        parent[a.max(b)] = a.min(b);
                    }
                    None => first_net_of[inst] = Some(idx),
                }
            }
        }

        // Components numbered in first-net order: a root is its
        // component's lowest net.
        let mut component = vec![0; total];
        let mut components = 0;
        for idx in 0..total {
            let root = find(&mut parent, idx);
            component[idx] = if root == idx {
                components
            } else {
                component[root]
            };
            components += usize::from(root == idx);
        }
        let count = components.min(shards);
        let shard_of = |idx: usize| component[idx] * count / components;

        // An instance rides with the shard of the nets naming it (one
        // component), an orphan with shard 0.
        let mut out: Vec<Design> = (0..count)
            .map(|_| Design::new(core.library.clone()))
            .collect();
        for (inst, first) in first_net_of.iter().enumerate() {
            let shard = &mut out[first.map_or(0, shard_of)];
            shard.add_instance(core.inst_name(inst), core.cell(inst).name.as_str())?;
        }
        for idx in 0..total {
            out[shard_of(idx)].add_net(core.net_input(idx))?;
        }
        if let Some(set) = &core.corners {
            for shard in &mut out {
                shard.set_corners((**set).clone());
            }
        }
        Ok(out)
    }
}

/// One sink of a net as exposed by a [`DesignSnapshot`]: the interconnect
/// node it hangs on, what it drives, and its cached stage delay window.
#[derive(Debug, Clone, PartialEq)]
pub struct SinkWindow {
    /// Node name within the net's interconnect.
    pub node: String,
    /// What the sink drives.
    pub load: Load,
    /// Guaranteed lower stage-delay bound at this sink.
    pub lower: Seconds,
    /// Guaranteed upper stage-delay bound at this sink.
    pub upper: Seconds,
}

/// A lazily built augmented-stage sweep of one net: the `BatchTimes`
/// plus the raw-node → augmented-position map.
type SweepCache = Arc<(BatchTimes, Vec<u32>)>;

/// Read-only timing view of one net inside a [`DesignSnapshot`]: the
/// committed interconnect tree, the stage augmentation data (driver
/// resistance and sink loads), and the cached per-sink delay windows of
/// every corner lane.
///
/// Everything is behind `Arc`s — the tree is the design's own
/// `Arc`-shared column table, which a later edit copies rather than
/// changes, and the loads are the design's own list, which a later
/// structural edit replaces — so building a view copies neither, and
/// cloning a `NetTiming`, or the snapshot holding it, is a handful of
/// refcount bumps.  Node-level queries
/// ([`NetTiming::node_times_at`]) resolve the node name with one probe of
/// the tree's name index and are computed on demand from the shared tree
/// in one `O(n_net)` sweep per lane.
#[derive(Debug, Clone)]
pub struct NetTiming {
    name: String,
    tree: RcTree,
    driver_r: Ohms,
    loads: Arc<[(NodeId, Farads)]>,
    /// One entry per corner lane, nominal first.
    lanes: Arc<Vec<NetLane>>,
    /// Lazily built **symbolic** sweep of the whole net: the per-node
    /// [`SymbolicTimes`] coefficient table plus the raw-node → augmented
    /// position map, behind `QUERY … --sens`.  Same build-once contract as
    /// [`NetLane::sweep`].
    symbolic: OnceLock<Arc<(Vec<SymbolicTimes>, Vec<u32>)>>,
}

/// One corner lane of a [`NetTiming`].
#[derive(Debug)]
struct NetLane {
    /// The net's stage scales at this corner.
    scales: StageScales,
    /// The cached per-sink windows at this corner, in net sink order.
    sinks: Vec<SinkWindow>,
    /// Lazily built augmented-stage sweep of the whole net at this corner,
    /// so repeated node queries against one snapshot revision cost `O(1)`
    /// after the first.  Built at most once per view (races rebuild the
    /// identical value and drop the loser).
    sweep: OnceLock<SweepCache>,
}

impl NetTiming {
    /// The net's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cached per-sink stage delay windows, in net sink order.
    pub fn sinks(&self) -> &[SinkWindow] {
        &self.lanes[0].sinks
    }

    /// Number of corners this view carries windows for (1 when the
    /// snapshot is nominal-only).
    pub fn corner_count(&self) -> usize {
        self.lanes.len()
    }

    /// The cached per-sink windows at corner `k` (`0` is the nominal
    /// corner and returns [`NetTiming::sinks`]); `None` when `k` is out of
    /// range.
    pub fn sinks_at(&self, k: usize) -> Option<&[SinkWindow]> {
        self.lanes.get(k).map(|lane| lane.sinks.as_slice())
    }

    /// Characteristic times and delay bounds at an arbitrary node of the
    /// net's interconnect, evaluated against the same augmented stage tree
    /// (driver resistance + sink loads) the cached windows came from:
    /// [`NetTiming::node_times_at`] at the nominal corner.
    ///
    /// # Errors
    ///
    /// As for [`NetTiming::node_times_at`].
    pub fn node_times(
        &self,
        node: &str,
        threshold: f64,
    ) -> Result<(CharacteristicTimes, DelayBounds)> {
        self.node_times_at(node, threshold, 0)
    }

    /// Characteristic times and delay bounds at an arbitrary node of the
    /// net's interconnect at corner `k` (`0` is the nominal corner): the
    /// lane's scaled augmented stage ([`crate::stage`]'s per-element
    /// scaling), the one the cached windows of that lane came from.
    ///
    /// The full-net sweep behind the query is computed once per view and
    /// lane and cached, so repeated queries against one snapshot revision —
    /// the serve loop's `QUERY <net> <node> [--corner k]` hot path — are
    /// `O(1)` lookups after the first.
    ///
    /// # Errors
    ///
    /// * [`StaError::Core`] with an `InvalidValue` on a corner index out of
    ///   range;
    /// * [`StaError::UnknownEcoNode`] if the node name is not part of the
    ///   net's interconnect;
    /// * core errors from the stage sweep or the threshold validation.
    pub fn node_times_at(
        &self,
        node: &str,
        threshold: f64,
        k: usize,
    ) -> Result<(CharacteristicTimes, DelayBounds)> {
        let Some(lane) = self.lanes.get(k) else {
            return Err(StaError::Core(
                rctree_core::error::CoreError::InvalidValue {
                    what: "corner lane index",
                    value: k as f64,
                },
            ));
        };
        let id = self
            .tree
            .node_by_name(node)
            .map_err(|_| StaError::UnknownEcoNode {
                net: self.name.clone(),
                node: node.to_string(),
            })?;
        let sweep = match lane.sweep.get() {
            Some(sweep) => Arc::clone(sweep),
            None => {
                let built = Arc::new(augmented_batch(
                    self.driver_r,
                    &self.tree,
                    &self.loads,
                    lane.scales,
                )?);
                // A racing builder computed the identical value; either
                // copy serves every future query.
                let _ = lane.sweep.set(Arc::clone(&built));
                built
            }
        };
        let times = sweep.0.times_at(sweep.1[id.index()] as usize)?;
        let bounds = times.delay_bounds(threshold)?;
        Ok((times, bounds))
    }

    /// Symbolic characteristic times and delay-bound polynomials at an
    /// arbitrary node of the net — the coefficient table behind
    /// `QUERY … --sens`.  The whole-net symbolic sweep is computed once
    /// per view and cached, so repeated sensitivity queries against one
    /// snapshot revision are `O(1)` lookups after the first.
    ///
    /// # Errors
    ///
    /// As for [`NetTiming::node_times`].
    pub fn node_symbolic(
        &self,
        node: &str,
        threshold: f64,
    ) -> Result<(SymbolicTimes, SymbolicDelayBounds)> {
        let id = self
            .tree
            .node_by_name(node)
            .map_err(|_| StaError::UnknownEcoNode {
                net: self.name.clone(),
                node: node.to_string(),
            })?;
        let sweep = match self.symbolic.get() {
            Some(sweep) => Arc::clone(sweep),
            None => {
                let built = Arc::new(stage_symbolic_sweep(
                    self.driver_r,
                    &self.tree,
                    &self.loads,
                )?);
                // A racing builder computed the identical value; either
                // copy serves every future query.
                let _ = self.symbolic.set(Arc::clone(&built));
                built
            }
        };
        let times = sweep.0[sweep.1[id.index()] as usize].clone();
        let bounds = symbolic_delay_bounds(&times, threshold)?;
        Ok((times, bounds))
    }

    /// Nominal sensitivities `(dT/dr, dT/dc)` of a node's **upper** delay
    /// bound: the gradient of the symbolic bound at `(1, 1)` — how fast
    /// the guaranteed delay moves per unit of uniform wire-resistance /
    /// wire-capacitance scaling.
    ///
    /// # Errors
    ///
    /// As for [`NetTiming::node_symbolic`].
    pub fn node_sens(&self, node: &str, threshold: f64) -> Result<(f64, f64)> {
        let (_, bounds) = self.node_symbolic(node, threshold)?;
        Ok(bounds.upper_sens_at(1.0, 1.0))
    }
}

/// An immutable, cheaply cloneable timing snapshot of a whole design: the
/// full [`TimingReport`] plus per-net [`NetTiming`] views, everything
/// `Arc`-shared.
///
/// This is the publication unit of the concurrent query server
/// (`rctree-serve`): readers answer every query against one consistent
/// snapshot while the single writer applies ECO edits and publishes
/// successors.  [`Design::publish_after_eco`] rebuilds only the dirty
/// nets' views.  The net views and every report's endpoints live in
/// two-level persistent chunk trees — leaves of at most `L` = 32 under
/// nodes of at most `F` = 32 leaves, both `Arc`-shared — and a publish
/// copies only the node and the leaf each write touches.  Publishing after
/// a `k`-net edit therefore costs `O(Σ n_dirty + N/(L·F) + E/(L·F))` for
/// `N` nets and `E` endpoints per corner, plus `L + F` refcount bumps per
/// copied path — the middle terms are one refcount bump per node — and
/// dropping a superseded snapshot frees only the paths its successor
/// replaced.
#[derive(Debug, Clone)]
pub struct DesignSnapshot {
    /// Process-unique id; `publish_after_eco` reuses `prev`'s views only
    /// when `prev` is the publishing design's latest snapshot.
    id: u64,
    threshold: f64,
    required_time: Seconds,
    report: Arc<TimingReport>,
    nets: NetViews,
    /// Per-corner reports when the snapshotted design has a multi-corner
    /// set installed, `None` for nominal-only designs; lane 0 is `report`.
    corners: Option<Arc<CornerAnalysis>>,
    /// The propagation topology the snapshot was assembled over, kept so
    /// the lazy symbolic analysis can re-run the candidate propagation
    /// without touching the (mutable) design.  Its names answer the
    /// snapshot's name lookups.
    prop: Arc<PropagationCache>,
    /// Worker threads of the publish that made the snapshot; its lane's
    /// full build sweeps the nets on the pool with as many.
    jobs: usize,
    /// Lazily built whole-design [`SymbolicAnalysis`] (`CERTIFY … --over`),
    /// built at most once: concurrent first callers wait for the one build
    /// and share its result, and clones of the snapshot share the cell.
    symbolic: Arc<OnceLock<Result<Arc<SymbolicAnalysis>>>>,
    /// The lane a build starts from: the predecessor's built lane, or the
    /// predecessor's own seed when that lane was never built; `None` after
    /// a cold publish.
    seed: Option<Arc<SymbolicAnalysis>>,
}

/// A snapshot's per-net views in net order, as a two-level persistent
/// chunk tree addressed by position: views in `Arc`-shared leaves of 32
/// under `Arc`-shared nodes of 32 leaves.  Cloning bumps one refcount per
/// node, replacing a view copies only its node and leaf, and
/// [`ChunkTree::changed_since`] skips the nodes, then the leaves, two
/// versions share.
type NetViews = ChunkTree<Arc<NetTiming>>;

impl DesignSnapshot {
    /// The switching threshold the snapshot was analysed at.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The required arrival time of the snapshot's report.
    pub fn required_time(&self) -> Seconds {
        self.required_time
    }

    /// The full timing report of the snapshot's design state.
    pub fn report(&self) -> &TimingReport {
        &self.report
    }

    /// Looks up one net's timing view by name.
    pub fn net(&self, name: &str) -> Option<&NetTiming> {
        let view = self.nets.get(self.prop.names.net(name)?)?;
        Some(&**view)
    }

    /// Number of nets in the snapshot.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of instances in the snapshotted design.
    pub fn instance_count(&self) -> usize {
        self.prop.inst_names.len()
    }

    /// Net names in design net order.
    pub fn net_names(&self) -> impl Iterator<Item = &str> {
        self.nets.iter().map(|n| n.name())
    }

    /// Per-corner reports when the snapshotted design has a multi-corner
    /// set installed, `None` for nominal-only designs: a [`CornerAnalysis`]
    /// of at least two lanes, whose lane 0 is the same `Arc` as
    /// [`DesignSnapshot::report`].
    pub fn corners(&self) -> Option<&CornerAnalysis> {
        self.corners.as_deref()
    }

    /// Number of timing corners baked into the snapshot (1 when
    /// nominal-only).
    pub fn corner_count(&self) -> usize {
        self.corners.as_ref().map_or(1, |c| c.len())
    }

    /// The snapshot's whole-design [`SymbolicAnalysis`], built on first
    /// use and cached (shared across clones): per-net symbolic stage
    /// bounds from the snapshot's own net views — the same trees, driver
    /// resistances and loads the scalar report came from — propagated over
    /// the snapshot's cached topology.  This is what the serve loop's
    /// `CERTIFY … --over` answers from; repeated box certifications
    /// against one snapshot revision rebuild nothing, and concurrent first
    /// calls wait for one build instead of racing their own.
    ///
    /// A snapshot published by [`Design::publish_after_eco`] builds from a
    /// seed: its predecessor's lane (or, when that was never built, the
    /// predecessor's own seed).  The seeded build re-sweeps only the nets
    /// whose views are not the seed's, then re-propagates their fan-out
    /// cone, refolding each cone instance in the full pass's exact push
    /// order — the lane is identical to a full build, at a cost of
    /// `O(Σ n_changed + cone)` plus one refcount bump per net and instance.
    /// Without a usable seed — after a cold [`Design::publish`], a
    /// threshold change, or a topology change — the lane is a full build:
    /// `O(Σ n)` sweeps, on the global pool with the publish's worker count
    /// and independent of it, plus one pass over every net.  Evaluating a
    /// lane at `(1, 1)` agrees with the nominal scalar report, and at any
    /// `(r, c)` with the analysis of a materialized corner
    /// `(r, c, delay_scale = 1)`, to float round-off in the coefficient
    /// accumulation, not bitwise.
    ///
    /// # Errors
    ///
    /// As for [`Design::analyze_with_jobs`]: the first failing net in net
    /// order.  A failed build is cached too.
    pub fn symbolic(&self) -> Result<Arc<SymbolicAnalysis>> {
        self.symbolic
            .get_or_init(|| self.build_symbolic().map(Arc::new))
            .clone()
    }

    /// The lane a successor snapshot seeds its build from: this snapshot's
    /// built lane, or its own seed when none is built (yet).
    fn lane_seed(&self) -> Option<Arc<SymbolicAnalysis>> {
        match self.symbolic.get() {
            Some(Ok(lane)) => Some(Arc::clone(lane)),
            _ => self.seed.clone(),
        }
    }

    /// Builds the symbolic lane: a cone rebuild of the seed when it was
    /// swept from views over the same topology at the same threshold, a
    /// full build otherwise.  Its `sta.symbolic_build` span records the
    /// nets re-swept, the net ranks the propagation visited, and the
    /// candidates the lane holds (every instance's set plus every
    /// endpoint's).
    fn build_symbolic(&self) -> Result<SymbolicAnalysis> {
        let mut obs_span = rctree_obs::span("sta.symbolic_build");
        obs_span.attr_u64("nets", self.nets.len() as u64);
        let threshold = self.threshold;
        let sweep = move |net: &NetTiming| {
            stage_symbolic_bounds(net.driver_r, &net.tree, &net.loads, threshold).map(Arc::new)
        };
        let seed = self.seed.as_deref().and_then(|seed| {
            let views = seed.seed_views(&self.prop, self.threshold, self.nets.len())?;
            Some((seed, views))
        });
        let (lane, nets_swept, cone_ranks) = match seed {
            Some((seed, views)) => {
                let mut swept = Vec::new();
                for net in self.nets.changed_since(views) {
                    let view = self.nets.get(net).expect("a changed view is in range");
                    swept.push((net, sweep(view)?));
                }
                let nets_swept = swept.len();
                let (lane, cone_ranks) = seed.rebuilt(swept, self.required_time, self.nets.clone());
                (lane, nets_swept, cone_ranks)
            }
            None => {
                // The pool's jobs own an `Arc` of the views; results land
                // by index, and the first failing net in net order wins.
                let n = self.nets.len();
                let bounds = rctree_par::par_map_global(
                    self.jobs,
                    Arc::new(self.nets.clone()),
                    n,
                    move |i, nets: &NetViews| sweep(nets.get(i).expect("a view per index")),
                )
                .into_iter()
                .collect::<Result<Vec<_>>>()?;
                let lane = SymbolicAnalysis::full(
                    self.threshold,
                    self.required_time,
                    Arc::clone(&self.prop),
                    bounds,
                    self.nets.clone(),
                );
                (lane, n, self.prop.net_order.len() as u64)
            }
        };
        if obs_span.is_live() {
            let held = lane.arrivals.iter().map(|set| set.len()).sum::<usize>()
                + lane
                    .endpoints()
                    .iter()
                    .map(|e| e.candidates.len())
                    .sum::<usize>();
            obs_span.attr_u64("nets_swept", nets_swept as u64);
            obs_span.attr_u64("cone_ranks", cone_ranks);
            obs_span.attr_u64("candidates", held as u64);
        }
        Ok(lane)
    }
}

impl Design {
    /// Publishes a complete read-only [`DesignSnapshot`] of the current
    /// design state, warming the incremental ECO cache in the process (an
    /// empty-edit [`Design::apply_eco_with_jobs`], so the snapshot's
    /// report is bit-identical to [`Design::analyze_with_jobs`]).
    ///
    /// # Errors
    ///
    /// As for [`Design::apply_eco_with_jobs`].
    pub fn publish(
        &mut self,
        threshold: f64,
        required_time: Seconds,
        jobs: usize,
    ) -> Result<DesignSnapshot> {
        let mut obs_span = rctree_obs::span("sta.publish");
        let touched = self.apply_eco_touching(&[], threshold, jobs)?;
        let (snapshot, copied) = self.snapshot_from_state(required_time, jobs, None, &[]);
        obs_span.attr_u64("endpoints_moved", touched.endpoints_moved);
        obs_span.attr_u64("chunks_copied", touched.chunks_copied + copied);
        self.published = snapshot.id;
        Ok(snapshot)
    }

    /// Applies an ECO edit batch through the incremental engine and
    /// publishes the successor snapshot, rebuilding only the **dirty**
    /// nets' [`NetTiming`] views; every untouched net's view (and the
    /// name index) is reused from `prev` by `Arc`, and only the view and
    /// endpoint nodes and leaves the edits touch are copied.
    ///
    /// Reuse happens only when `prev` is this design's **latest published
    /// snapshot** at the same threshold (checked via a process-unique
    /// snapshot id — any mutation outside the publish path, including a
    /// direct [`Design::apply_eco`], invalidates it); otherwise the
    /// snapshot is rebuilt in full instead — never incorrectly reused.
    ///
    /// On reuse the successor also inherits `prev`'s symbolic lane as the
    /// seed its own lane is rebuilt from ([`DesignSnapshot::symbolic`]).
    ///
    /// Transactional exactly like [`Design::apply_eco_with_jobs`]: on any
    /// error, the design, the ECO cache, and `prev` are all untouched.
    ///
    /// # Errors
    ///
    /// As for [`Design::apply_eco_with_jobs`].
    pub fn publish_after_eco(
        &mut self,
        edits: &[EcoEdit],
        threshold: f64,
        required_time: Seconds,
        jobs: usize,
        prev: &DesignSnapshot,
    ) -> Result<DesignSnapshot> {
        let mut obs_span = rctree_obs::span("sta.publish");
        obs_span.attr_u64("edits", edits.len() as u64);
        let reuse = prev.id == self.published
            && self.published != 0
            && prev.threshold == threshold
            && prev.nets.len() == self.shared.nets.len();
        let dirty: Vec<usize> = if reuse {
            let set: BTreeSet<usize> = edits
                .iter()
                .filter_map(|e| self.shared.names.net(&e.net))
                .collect();
            set.into_iter().collect()
        } else {
            Vec::new()
        };
        let touched = self.apply_eco_touching(edits, threshold, jobs)?;
        let (snapshot, copied) =
            self.snapshot_from_state(required_time, jobs, reuse.then_some(prev), &dirty);
        obs_span.attr_u64("endpoints_moved", touched.endpoints_moved);
        obs_span.attr_u64("chunks_copied", touched.chunks_copied + copied);
        self.published = snapshot.id;
        Ok(snapshot)
    }

    /// Builds a snapshot from the warm ECO state, reusing `prev`'s views
    /// for every net not listed in `dirty` when `prev` is given, and
    /// seeding its symbolic lane from `prev`'s; `jobs` is the publish's
    /// worker count, which the lane's full build reuses.  Returns it with
    /// the number of view leaves copied.
    fn snapshot_from_state(
        &self,
        required_time: Seconds,
        jobs: usize,
        prev: Option<&DesignSnapshot>,
        dirty: &[usize],
    ) -> (DesignSnapshot, u64) {
        let state = self.eco.as_ref().expect("publish warms the eco cache");
        let set = self.shared.corner_set();
        let sink_start = &self.shared.sink_start;
        let net_timing = |idx: usize| -> Arc<NetTiming> {
            let net = &self.shared.nets[idx];
            let name = self.shared.names.table.resolve(net.name);
            let windows = sink_start[idx]..sink_start[idx + 1];
            let lanes = state
                .lanes
                .iter()
                .enumerate()
                .map(|(k, lane)| NetLane {
                    scales: StageScales::at(set, name, k),
                    sinks: net
                        .loads
                        .iter()
                        .zip(net.targets.iter())
                        .zip(&lane.delays[windows.clone()])
                        .map(|((&(node, _), target), delay)| SinkWindow {
                            node: net.node_name(node).to_string(),
                            load: self.shared.load(target),
                            lower: delay.lower,
                            upper: delay.upper,
                        })
                        .collect(),
                    sweep: OnceLock::new(),
                })
                .collect();
            Arc::new(NetTiming {
                name: name.to_string(),
                tree: net.tree.clone(),
                driver_r: net.driver_r,
                loads: Arc::clone(&net.loads),
                lanes: Arc::new(lanes),
                symbolic: OnceLock::new(),
            })
        };
        let mut copied = 0u64;
        let nets = match prev {
            Some(prev) => {
                let mut nets = prev.nets.clone();
                for &idx in dirty {
                    copied += nets.set(idx, net_timing(idx)) as u64;
                }
                nets
            }
            None => (0..self.shared.nets.len()).map(net_timing).collect(),
        };
        let reports: Vec<Arc<TimingReport>> = (0..state.lanes.len())
            .map(|k| Arc::new(state.report(k, required_time)))
            .collect();
        let report = Arc::clone(&reports[0]);
        let corners = (reports.len() > 1).then(|| {
            // A reused `prev` has the same corner set: installing corners
            // resets the published id.
            let names = match prev.and_then(|p| p.corners.as_deref()) {
                Some(prev) => Arc::clone(&prev.names),
                None => set.corners().iter().map(|c| c.name.clone()).collect(),
            };
            Arc::new(CornerAnalysis { names, reports })
        });
        let snapshot = DesignSnapshot {
            id: NEXT_SNAPSHOT_ID.fetch_add(1, Ordering::Relaxed),
            threshold: state.threshold,
            required_time,
            report,
            nets,
            corners,
            prop: Arc::clone(&state.prop),
            jobs,
            symbolic: Arc::new(OnceLock::new()),
            seed: prev.and_then(DesignSnapshot::lane_seed),
        };
        (snapshot, copied)
    }
}

impl DesignCore {
    fn inst_name(&self, inst: usize) -> &str {
        self.names.table.resolve(self.instances[inst].name)
    }

    fn cell(&self, inst: usize) -> &Cell {
        self.library.at(self.instances[inst].cell)
    }

    /// Net `i` as the [`Net`] that [`Design::add_net`] takes: every id
    /// resolved back to its name.
    fn net_input(&self, i: usize) -> Net {
        let net = &self.nets[i];
        Net {
            name: self.names.table.resolve(net.name).to_string(),
            driver: match net.driver {
                None => Driver::PrimaryInput,
                Some(inst) => Driver::Instance(self.inst_name(inst).to_string()),
            },
            interconnect: net.tree.clone(),
            sinks: net
                .loads
                .iter()
                .zip(net.targets.iter())
                .map(|(&(node, _), target)| Sink {
                    node: net.node_name(node).to_string(),
                    load: self.load(target),
                })
                .collect(),
        }
    }

    /// What `target` drives, by name.
    fn load(&self, target: &Target) -> Load {
        match target {
            Target::Instance(inst) => Load::Instance(self.inst_name(*inst).to_string()),
            Target::Output(po) => Load::PrimaryOutput(Arc::clone(po)),
        }
    }

    /// The installed corner set, or the nominal-only set when none is:
    /// lane `k` of the stage sweep, the ECO state and the snapshot views is
    /// corner `k` of it.
    fn corner_set(&self) -> &CornerSet {
        static NOMINAL: OnceLock<CornerSet> = OnceLock::new();
        self.corners
            .as_deref()
            .unwrap_or_else(|| NOMINAL.get_or_init(CornerSet::nominal))
    }

    /// Lane `k`'s per-instance intrinsic delays over `prop`: each nominal
    /// value scaled by the corner's `delay_scale` with **one**
    /// multiplication — the same bits a materialized corner design's scaled
    /// cell library produces.
    fn lane_intrinsic(&self, prop: &PropagationCache, k: usize) -> Vec<Seconds> {
        let delay_scale = self.corner_set().corner(k).delay_scale;
        prop.intrinsic
            .iter()
            .map(|d| Seconds::new(d.value() * delay_scale))
            .collect()
    }

    /// # Errors
    ///
    /// [`StaError::DuplicateNet`] if a net named `name` exists.
    fn check_new_net(&self, name: &str) -> Result<()> {
        if self.names.net(name).is_some() {
            return Err(StaError::DuplicateNet {
                name: name.to_string(),
            });
        }
        Ok(())
    }

    /// Appends instance `name` of library cell `cell`; the caller checked
    /// that the name is free.  Returns its id.
    fn push_instance(&mut self, name: &str, cell: usize) -> usize {
        let inst = self.instances.len();
        let name = Arc::make_mut(&mut self.names).add(name, Names::INSTANCE, inst);
        self.instances.push(Instance { name, cell });
        inst
    }

    /// Appends net `name`, which [`DesignCore::check_new_net`] accepted,
    /// driven by instance `driver` (`None`: a primary input), with its
    /// sinks resolved into `loads` and `targets`.
    fn push_net(
        &mut self,
        name: &str,
        tree: RcTree,
        driver: Option<usize>,
        loads: Arc<[(NodeId, Farads)]>,
        targets: Arc<[Target]>,
    ) {
        let driver_r = driver.map_or(Ohms::ZERO, |inst| self.cell(inst).drive_resistance);
        let name = Arc::make_mut(&mut self.names).add(name, Names::NET, self.nets.len());
        let sinks = self.sink_start[self.nets.len()] + loads.len();
        self.sink_start.push(sinks);
        self.nets.push(NetRecord {
            name,
            tree,
            driver,
            driver_r,
            loads,
            targets,
        });
    }

    /// The one stage sweep of net `i` over `tree` and `loads` (the net's
    /// committed ones, or an ECO's edited ones): appends every sink's delay
    /// window at corner lanes `0..out.len()` to that lane's buffer, through
    /// this thread's scratch.  Corner overrides are looked up by the net's
    /// name.
    fn net_windows(
        &self,
        i: usize,
        tree: &RcTree,
        loads: &[(NodeId, Farads)],
        threshold: f64,
        out: &mut [Vec<Window>],
    ) -> Result<()> {
        let (set, net) = (self.corner_set(), &self.nets[i]);
        let name = self.names.table.resolve(net.name);
        let scales = (0..out.len()).map(|k| StageScales::at(set, name, k));
        STAGE_SCRATCH.with(|scratch| {
            lane_bounds(
                net.driver_r,
                tree,
                loads,
                scales,
                threshold,
                &mut scratch.borrow_mut(),
                out,
            )
        })
    }

    /// The windows of nets `nets` at lanes `0..lanes`: one buffer per lane
    /// holding exactly the range's sinks, in net order.  The nets listed in
    /// `given` (in net order) take the windows supplied with them; every
    /// other net is swept.  Stops at the range's first failing net.
    fn sweep_range(
        &self,
        nets: Range<usize>,
        given: &[Retimed],
        lanes: usize,
        threshold: f64,
    ) -> Result<Vec<Vec<Window>>> {
        let sinks = self.sink_start[nets.end] - self.sink_start[nets.start];
        let mut out: Vec<Vec<Window>> = (0..lanes).map(|_| Vec::with_capacity(sinks)).collect();
        for i in nets {
            match given.binary_search_by_key(&i, |(idx, _)| *idx) {
                Ok(k) => {
                    for (out, windows) in out.iter_mut().zip(&given[k].1) {
                        out.extend_from_slice(windows);
                    }
                }
                Err(_) => {
                    let net = &self.nets[i];
                    self.net_windows(i, &net.tree, &net.loads, threshold, &mut out)?;
                }
            }
        }
        Ok(out)
    }

    /// An edited dirty net's windows at lanes `0..lanes`, one buffer per
    /// lane.
    fn edited_windows(
        &self,
        (idx, tree, loads): &Edited,
        lanes: usize,
        threshold: f64,
    ) -> Result<Vec<Vec<Window>>> {
        let mut out: Vec<Vec<Window>> = (0..lanes)
            .map(|_| Vec::with_capacity(loads.len()))
            .collect();
        self.net_windows(*idx, tree, loads, threshold, &mut out)?;
        Ok(out)
    }

    /// The cached propagation topology, rebuilt on first use after a
    /// connectivity change (`add_instance` / `add_net`; ECO edits only
    /// touch interconnect values, never instance-level connectivity).  A
    /// rebuild runs in a `sta.topology` span.
    ///
    /// # Errors
    ///
    /// As for [`DesignCore::propagation_cache`].
    fn topology(&self) -> Result<Arc<PropagationCache>> {
        let mut slot = self.topo.lock().expect("topology cache poisoned");
        if let Some(cache) = slot.as_ref() {
            return Ok(Arc::clone(cache));
        }
        let mut obs_span = rctree_obs::span("sta.topology");
        obs_span.attr_u64("nets", self.nets.len() as u64);
        obs_span.attr_u64("instances", self.instances.len() as u64);
        let cache = Arc::new(self.propagation_cache()?);
        *slot = Some(Arc::clone(&cache));
        Ok(cache)
    }

    /// Builds the arrival-propagation topology from the net records:
    /// Kahn's algorithm over the instance-to-instance edges induced by
    /// nets, the driver-rank net order, per-instance in-edge/out-net
    /// adjacency, and cached intrinsic delays.  Every driver and target is
    /// an id already, so the build resolves no name; it sorts the
    /// instances that start Kahn's queue by name, so the ranks, the
    /// endpoint tie order and the report do not depend on the order the
    /// instances were added in.
    ///
    /// # Errors
    ///
    /// [`StaError::CombinationalCycle`] if the instance graph is cyclic.
    fn propagation_cache(&self) -> Result<PropagationCache> {
        let n_inst = self.instances.len();
        let inst_names: Vec<NameId> = self.instances.iter().map(|inst| inst.name).collect();
        let intrinsic = (0..n_inst)
            .map(|inst| self.cell(inst).intrinsic_delay)
            .collect();
        let n_nets = self.nets.len();
        let net_driver: Vec<Option<usize>> = self.nets.iter().map(|net| net.driver).collect();
        let targets: Vec<Arc<[Target]>> = self
            .nets
            .iter()
            .map(|net| Arc::clone(&net.targets))
            .collect();
        // `(sink, instance)` for every sink of `net` that loads an instance.
        let loaded = |net: usize| {
            targets[net]
                .iter()
                .enumerate()
                .filter_map(|(k, target)| match target {
                    Target::Instance(inst) => Some((k, *inst)),
                    Target::Output(_) => None,
                })
        };

        // Kahn topological order over the instance edges, successors in
        // net and sink order, from a name-sorted initial queue.
        let successors = Rows::build(n_inst, || {
            (0..n_nets).flat_map(|net| {
                let driver = net_driver[net];
                loaded(net).filter_map(move |(_, t)| driver.map(|d| (d, t)))
            })
        });
        let mut in_degree = vec![0usize; n_inst];
        for &target in &successors.items {
            in_degree[target] += 1;
        }
        // The seed's names are resolved once, then sorted as slices (names
        // are unique, so the index never decides).
        let mut seed: Vec<(&str, usize)> = (0..n_inst)
            .filter(|&i| in_degree[i] == 0)
            .map(|i| (self.inst_name(i), i))
            .collect();
        seed.sort_unstable();
        let mut queue: Vec<usize> = Vec::with_capacity(n_inst);
        queue.extend(seed.into_iter().map(|(_, i)| i));
        let mut queue_idx = 0;
        let mut topo_rank = vec![usize::MAX; n_inst];
        let mut seen = 0usize;
        while queue_idx < queue.len() {
            let inst = queue[queue_idx];
            queue_idx += 1;
            topo_rank[inst] = seen;
            seen += 1;
            for &succ in successors.row(inst) {
                in_degree[succ] -= 1;
                if in_degree[succ] == 0 {
                    queue.push(succ);
                }
            }
        }
        if seen != n_inst {
            return Err(StaError::CombinationalCycle);
        }

        // Nets in driver topological order, stable on ties: a counting sort
        // of the nets by driver rank (0 for a primary input).
        let net_order = Rows::build(n_inst + 1, || {
            (0..n_nets).map(|net| (net_driver[net].map_or(0, |d| 1 + topo_rank[d]), net))
        })
        .items;
        let mut net_rank = vec![0usize; n_nets];
        for (rank, &net) in net_order.iter().enumerate() {
            net_rank[net] = rank;
        }

        // Adjacency for the cone walk, in the exact fold order of the full
        // pass.
        let in_edges = Rows::build(n_inst, || {
            net_order
                .iter()
                .flat_map(|&net| loaded(net).map(move |(k, u)| (u, (net, k))))
        });
        let out_ranks = Rows::build(n_inst, || {
            net_order
                .iter()
                .enumerate()
                .filter_map(|(rank, &net)| net_driver[net].map(|d| (d, rank)))
        });

        let mut endpoint_start = Vec::with_capacity(n_nets + 1);
        endpoint_start.push(0);
        for &net in &net_order {
            let outputs = targets[net]
                .iter()
                .filter(|target| matches!(target, Target::Output(_)))
                .count();
            endpoint_start.push(endpoint_start[endpoint_start.len() - 1] + outputs);
        }
        Ok(PropagationCache {
            names: Arc::clone(&self.names),
            inst_names,
            intrinsic,
            net_order,
            net_rank,
            net_driver,
            in_edges,
            out_ranks,
            targets,
            endpoint_start,
        })
    }
}

impl NetRecord {
    /// The name of sink node `node`, which was validated against the
    /// committed tree.
    fn node_name(&self, node: NodeId) -> &str {
        self.tree
            .name(node)
            .expect("a sink node is in its net's tree")
    }
}

/// Groups an edit batch by net index, preserving intra-net order.  Edit
/// names resolve through the design's name table, one probe each.
fn group_edits<'a>(
    core: &DesignCore,
    edits: &'a [EcoEdit],
) -> Result<BTreeMap<usize, Vec<&'a EcoEdit>>> {
    let mut by_net: BTreeMap<usize, Vec<&EcoEdit>> = BTreeMap::new();
    for edit in edits {
        let idx = core
            .names
            .net(&edit.net)
            .ok_or_else(|| StaError::UnknownNet {
                name: edit.net.clone(),
            })?;
        by_net.entry(idx).or_default().push(edit);
    }
    Ok(by_net)
}

/// Resolves a name-based [`EcoEditKind`] against the current state of a
/// net's interconnect into an id-based [`TreeEdit`].
fn resolve_edit(net: &str, kind: &EcoEditKind, tree: &RcTree) -> Result<TreeEdit> {
    let lookup = |node: &str| {
        tree.node_by_name(node)
            .map_err(|_| StaError::UnknownEcoNode {
                net: net.to_string(),
                node: node.to_string(),
            })
    };
    Ok(match kind {
        EcoEditKind::SetCap { node, cap } => TreeEdit::SetCap {
            node: lookup(node)?,
            cap: *cap,
        },
        EcoEditKind::SetBranch { node, branch } => TreeEdit::SetBranch {
            node: lookup(node)?,
            branch: *branch,
        },
        EcoEditKind::Graft {
            parent,
            via,
            subtree,
        } => TreeEdit::GraftSubtree {
            parent: lookup(parent)?,
            via: *via,
            subtree: subtree.clone(),
        },
        EcoEditKind::Prune { node } => TreeEdit::PruneSubtree {
            node: lookup(node)?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rctree_core::builder::RcTreeBuilder;
    use rctree_core::units::Ohms;
    use std::collections::HashMap;

    /// A point-to-point wire: input -> one line -> one sink node "load".
    fn wire(r: f64, c_ff: f64) -> RcTree {
        let mut b = RcTreeBuilder::new();
        let n = b
            .add_line(b.input(), "load", Ohms::new(r), Farads::from_femto(c_ff))
            .unwrap();
        let _ = n;
        b.build().unwrap()
    }

    /// Two-stage buffer chain: PI -> wire -> u1 -> wire -> u2 -> wire -> PO.
    fn buffer_chain() -> Design {
        let mut d = Design::new(CellLibrary::nmos_1981());
        d.add_instance("u1", "inv_1x").unwrap();
        d.add_instance("u2", "inv_4x").unwrap();
        d.add_net(Net {
            name: "n_in".into(),
            driver: Driver::PrimaryInput,
            interconnect: wire(50.0, 5.0),
            sinks: vec![Sink {
                node: "load".into(),
                load: Load::Instance("u1".into()),
            }],
        })
        .unwrap();
        d.add_net(Net {
            name: "n_mid".into(),
            driver: Driver::Instance("u1".into()),
            interconnect: wire(200.0, 20.0),
            sinks: vec![Sink {
                node: "load".into(),
                load: Load::Instance("u2".into()),
            }],
        })
        .unwrap();
        d.add_net(Net {
            name: "n_out".into(),
            driver: Driver::Instance("u2".into()),
            interconnect: wire(400.0, 40.0),
            sinks: vec![Sink {
                node: "load".into(),
                load: Load::PrimaryOutput("out".into()),
            }],
        })
        .unwrap();
        d
    }

    #[test]
    fn spines_compare_instance_sequences_and_unlink_without_recursion() {
        let mut d = Design::new(CellLibrary::nmos_1981());
        for name in ["a", "b", "c"] {
            d.add_instance(name, "inv_1x").unwrap();
        }
        let names = d.shared.propagation_cache().unwrap();
        let ab = Spine::default().extend(0).extend(1);
        assert_eq!(ab, Spine::default().extend(0).extend(1));
        assert_ne!(ab, Spine::default().extend(1).extend(0));
        assert_ne!(ab, ab.extend(2));
        // A proper suffix is not equal, from either side.
        assert_ne!(ab, Spine::default().extend(1));
        assert_ne!(Spine::default().extend(1), ab);
        assert_eq!(ab.names(&names), ["a", "b"]);
        assert_eq!(format!("{:?}", ab.extend(2)), "[2, 1, 0]");

        // Two deep chains sharing no link: equality walks them side by
        // side, and dropping them unlinks iteratively.
        let deep = |n: usize| (0..n).fold(Spine::default(), |s, i| s.extend(i % 7));
        let (x, y) = (deep(200_000), deep(200_000));
        assert_eq!(x, y);
        assert_ne!(x, y.extend(0));
        drop((x, y));
    }

    #[test]
    fn push_candidate_prunes_dominated_candidates_on_both_sides() {
        let cand = |k: f64, rc: f64| SymbolicCandidate {
            min: Poly2::ZERO,
            max: Poly2::monomial(0, 0, k).add(&Poly2::monomial(1, 1, rc)),
            spine: Spine::default(),
        };
        let mut list = vec![SymbolicCandidate::zero()];
        // A candidate strictly dominating an earlier one replaces it.
        push_candidate(&mut list, cand(1.0, 2.0));
        assert_eq!(list, [cand(1.0, 2.0)]);
        // An incoming candidate an earlier one dominates, or equals, is
        // dropped.
        push_candidate(&mut list, cand(1.0, 2.0));
        push_candidate(&mut list, cand(0.5, 2.0));
        assert_eq!(list, [cand(1.0, 2.0)]);
        // Incomparable candidates both stay, in push order, until one
        // candidate dominates both.
        push_candidate(&mut list, cand(2.0, 1.0));
        assert_eq!(list, [cand(1.0, 2.0), cand(2.0, 1.0)]);
        push_candidate(&mut list, cand(2.0, 2.0));
        assert_eq!(list, [cand(2.0, 2.0)]);
    }

    #[test]
    fn buffer_chain_report_is_consistent() {
        let d = buffer_chain();
        assert_eq!(d.instance_count(), 2);
        assert_eq!(d.net_count(), 3);
        let report = d.analyze(0.5, Seconds::from_nano(50.0)).unwrap();
        assert_eq!(report.endpoints.len(), 1);
        let e = &report.endpoints[0];
        assert_eq!(&*e.name, "out");
        assert!(e.arrival.min <= e.arrival.max);
        // Both gate intrinsic delays must be included.
        assert!(e.arrival.min >= Seconds::from_nano(1.8));
        assert_eq!(*e.critical_path, vec!["u1".to_string(), "u2".to_string()]);
        let text = report.to_string();
        assert!(text.contains("out"));
        assert!(text.contains("certification"));
    }

    #[test]
    fn certification_follows_required_time() {
        let d = buffer_chain();
        let generous = d.analyze(0.5, Seconds::from_nano(1000.0)).unwrap();
        assert_eq!(generous.certification(), Certification::Pass);
        assert!(generous.worst_slack().value() > 0.0);

        let impossible = d.analyze(0.5, Seconds::from_pico(1.0)).unwrap();
        assert_eq!(impossible.certification(), Certification::Fail);
        assert!(impossible.worst_slack().value() < 0.0);

        // A budget between the endpoint's min and max arrival cannot be
        // decided by bounds alone.
        let report = d.analyze(0.5, Seconds::from_nano(1000.0)).unwrap();
        let e = report.critical_endpoint().unwrap();
        let mid = Seconds::new((e.arrival.min.value() + e.arrival.max.value()) / 2.0);
        let undecided = d.analyze(0.5, mid).unwrap();
        assert_eq!(undecided.certification(), Certification::Indeterminate);
    }

    #[test]
    fn fanout_reports_every_endpoint() {
        let mut d = Design::new(CellLibrary::nmos_1981());
        d.add_instance("drv", "superbuffer").unwrap();
        d.add_net(Net {
            name: "n_in".into(),
            driver: Driver::PrimaryInput,
            interconnect: wire(10.0, 1.0),
            sinks: vec![Sink {
                node: "load".into(),
                load: Load::Instance("drv".into()),
            }],
        })
        .unwrap();
        // Fan-out net with two sinks at different depths.
        let mut b = RcTreeBuilder::new();
        let stem = b
            .add_line(
                b.input(),
                "stem",
                Ohms::new(100.0),
                Farads::from_femto(10.0),
            )
            .unwrap();
        b.add_line(stem, "near", Ohms::new(10.0), Farads::from_femto(1.0))
            .unwrap();
        b.add_line(stem, "far", Ohms::new(500.0), Farads::from_femto(50.0))
            .unwrap();
        let fanout = b.build().unwrap();
        d.add_net(Net {
            name: "n_fan".into(),
            driver: Driver::Instance("drv".into()),
            interconnect: fanout,
            sinks: vec![
                Sink {
                    node: "near".into(),
                    load: Load::PrimaryOutput("po_near".into()),
                },
                Sink {
                    node: "far".into(),
                    load: Load::PrimaryOutput("po_far".into()),
                },
            ],
        })
        .unwrap();
        let report = d.analyze(0.5, Seconds::from_nano(100.0)).unwrap();
        assert_eq!(report.endpoints.len(), 2);
        assert_eq!(&*report.critical_endpoint().unwrap().name, "po_far");
    }

    #[test]
    fn validation_errors() {
        let mut d = Design::new(CellLibrary::nmos_1981());
        assert!(matches!(
            d.add_instance("u1", "not_a_cell"),
            Err(StaError::UnknownCell { .. })
        ));
        d.add_instance("u1", "inv_1x").unwrap();
        assert!(matches!(
            d.add_instance("u1", "inv_1x"),
            Err(StaError::DuplicateInstance { .. })
        ));
        assert!(matches!(
            d.add_net(Net {
                name: "n".into(),
                driver: Driver::Instance("ghost".into()),
                interconnect: wire(1.0, 1.0),
                sinks: vec![],
            }),
            Err(StaError::UnknownInstance { .. })
        ));
        assert!(matches!(
            d.add_net(Net {
                name: "n".into(),
                driver: Driver::PrimaryInput,
                interconnect: wire(1.0, 1.0),
                sinks: vec![Sink {
                    node: "nope".into(),
                    load: Load::Instance("u1".into())
                }],
            }),
            Err(StaError::UnknownSinkNode { .. })
        ));
        assert!(matches!(
            d.add_net(Net {
                name: "n".into(),
                driver: Driver::PrimaryInput,
                interconnect: wire(1.0, 1.0),
                sinks: vec![Sink {
                    node: "load".into(),
                    load: Load::Instance("ghost".into())
                }],
            }),
            Err(StaError::UnknownInstance { .. })
        ));
        assert!(matches!(
            d.analyze(0.5, Seconds::from_nano(1.0)),
            Err(StaError::EmptyDesign)
        ));
    }

    #[test]
    fn duplicate_net_names_are_rejected() {
        let mut d = Design::new(CellLibrary::nmos_1981());
        d.add_instance("u1", "inv_1x").unwrap();
        let net = |name: &str| Net {
            name: name.into(),
            driver: Driver::PrimaryInput,
            interconnect: wire(10.0, 1.0),
            sinks: vec![Sink {
                node: "load".into(),
                load: Load::Instance("u1".into()),
            }],
        };
        d.add_net(net("n1")).unwrap();
        let err = d.add_net(net("n1")).unwrap_err();
        assert!(
            matches!(&err, StaError::DuplicateNet { name } if name == "n1"),
            "{err:?}"
        );
        // The rejected net was not inserted and the design still works.
        assert_eq!(d.net_count(), 1);
        d.add_net(net("n2")).unwrap();
        assert_eq!(d.net_count(), 2);
        d.analyze(0.5, Seconds::from_nano(50.0)).unwrap();
    }

    #[test]
    fn snapshots_expose_the_report_and_per_net_views() {
        let mut d = buffer_chain();
        let budget = Seconds::from_nano(50.0);
        let baseline = d.analyze(0.5, budget).unwrap();
        let snap = d.publish(0.5, budget, 1).unwrap();
        assert_eq!(snap.report(), &baseline);
        assert_eq!(snap.threshold(), 0.5);
        assert_eq!(snap.required_time(), budget);
        assert_eq!(snap.net_count(), 3);
        assert_eq!(snap.instance_count(), 2);
        assert_eq!(
            snap.net_names().collect::<Vec<_>>(),
            vec!["n_in", "n_mid", "n_out"]
        );
        assert!(snap.net("ghost").is_none());

        // Per-net sink windows match the report's arithmetic: the output
        // net's single sink window plus the upstream arrival reproduces the
        // endpoint arrival exactly.
        let out = snap.net("n_out").unwrap();
        assert_eq!(out.name(), "n_out");
        assert_eq!(out.sinks().len(), 1);
        let sink = &out.sinks()[0];
        assert_eq!(sink.node, "load");
        assert!(matches!(&sink.load, Load::PrimaryOutput(po) if &**po == "out"));
        assert!(sink.lower <= sink.upper);

        // Node-level queries resolve against the same augmented stage tree
        // the windows came from: at the sink node they are the windows.
        let (times, bounds) = out.node_times("load", 0.5).unwrap();
        assert_eq!(bounds.lower, sink.lower);
        assert_eq!(bounds.upper, sink.upper);
        assert!(times.t_p.value() > 0.0);
        let err = out.node_times("ghost", 0.5).unwrap_err();
        assert!(matches!(err, StaError::UnknownEcoNode { .. }), "{err:?}");
    }

    #[test]
    fn publish_after_eco_reuses_untouched_net_views() {
        let mut d = buffer_chain();
        let budget = Seconds::from_nano(50.0);
        let snap0 = d.publish(0.5, budget, 1).unwrap();
        let edit = EcoEdit {
            net: "n_out".into(),
            kind: EcoEditKind::SetCap {
                node: "load".into(),
                cap: Farads::from_femto(500.0),
            },
        };
        let snap1 = d
            .publish_after_eco(std::slice::from_ref(&edit), 0.5, budget, 1, &snap0)
            .unwrap();
        // The successor's report is bit-identical to a full re-analysis.
        assert_eq!(snap1.report(), &d.analyze(0.5, budget).unwrap());
        // Untouched nets' views are the same allocations; the dirty net's
        // is fresh and reflects the edit.
        let view = |snap: &DesignSnapshot, i: usize| Arc::clone(snap.nets.get(i).unwrap());
        assert!(Arc::ptr_eq(
            &view(&snap0, 0), // n_in
            &view(&snap1, 0)
        ));
        assert!(Arc::ptr_eq(&view(&snap0, 1), &view(&snap1, 1)));
        assert!(!Arc::ptr_eq(&view(&snap0, 2), &view(&snap1, 2)));
        let before = snap0.net("n_out").unwrap().sinks()[0].upper;
        let after = snap1.net("n_out").unwrap().sinks()[0].upper;
        assert!(after > before);
        // The predecessor snapshot is untouched (readers keep serving it).
        assert_eq!(snap0.net("n_out").unwrap().sinks()[0].upper, before);

        // A failing batch leaves the design publishable and `prev` valid.
        let bad = EcoEdit {
            net: "ghost".into(),
            kind: EcoEditKind::Prune { node: "x".into() },
        };
        let err = d
            .publish_after_eco(&[bad], 0.5, budget, 1, &snap1)
            .unwrap_err();
        assert!(matches!(err, StaError::UnknownNet { .. }), "{err:?}");
        let snap2 = d.publish_after_eco(&[], 0.5, budget, 1, &snap1).unwrap();
        assert_eq!(snap2.report(), snap1.report());

        // A threshold change falls back to a full rebuild, never a stale
        // reuse.
        let warm = d.publish_after_eco(&[], 0.7, budget, 1, &snap1).unwrap();
        assert_eq!(warm.threshold(), 0.7);
        assert_eq!(warm.report(), &d.analyze(0.7, budget).unwrap());

        // Views over more than one node: 600 identical deck nets and their
        // feeders, 1200 views.  Re-capping a deck net in the second node
        // copies one view node and one view leaf, and every other view
        // stays the predecessor's.
        use crate::chunk_tree::{LEAF, NODE};
        let mut b = RcTreeBuilder::new();
        let n = b
            .add_line(
                b.input(),
                "load",
                Ohms::new(100.0),
                Farads::from_femto(10.0),
            )
            .unwrap();
        b.add_capacitance(n, Farads::from_femto(20.0)).unwrap();
        b.mark_output(n).unwrap();
        let tree = b.build().unwrap();
        let deck = (0..600).map(|i| (format!("w{i}"), tree.clone()));
        let mut d = Design::from_extracted(CellLibrary::nmos_1981(), "inv_4x", deck).unwrap();
        let snap0 = d.publish(0.5, budget, 1).unwrap();
        assert!(snap0.net_count() > LEAF * NODE);
        let idx = snap0.net_names().position(|n| n == "w550").unwrap();
        assert!(idx >= LEAF * NODE, "w550 is view {idx}");
        let edit = EcoEdit {
            net: "w550".into(),
            kind: EcoEditKind::SetCap {
                node: "load".into(),
                cap: Farads::from_femto(1.0),
            },
        };
        let obs = rctree_obs::Obs::new(rctree_obs::ObsConfig::default());
        let snap1 = {
            let _scope = obs.enter();
            d.publish_after_eco(std::slice::from_ref(&edit), 0.5, budget, 1, &snap0)
                .unwrap()
        };
        assert_eq!(snap1.report(), &d.analyze(0.5, budget).unwrap());
        for i in (0..snap0.net_count()).filter(|&i| i != idx) {
            assert!(Arc::ptr_eq(&view(&snap0, i), &view(&snap1, i)), "view {i}");
        }
        assert!(!Arc::ptr_eq(&view(&snap0, idx), &view(&snap1, idx)));
        assert_eq!(snap1.nets.changed_since(&snap0.nets), vec![idx]);
        assert_eq!(snap1.nets.unshared_with(&snap0.nets), (1, 1));
        // The lighter endpoint leaves its full leaf for the end of the
        // order, the partly filled last leaf: two endpoint leaves and the
        // view leaf are copied.
        let endpoints = &snap1.report().endpoints;
        assert_eq!(endpoints[endpoints.len() - 1].name.as_ref(), "w550/load");
        let stable = obs.registry().expose(true);
        assert!(
            stable.contains(
                "rctree_phase_attr_sum{attr=\"chunks_copied\",phase=\"sta.publish\"} 3\n"
            ),
            "{stable}"
        );
    }

    #[test]
    fn publish_after_eco_never_reuses_an_outdated_snapshot() {
        // Reuse is keyed on snapshot identity: handing back anything but
        // the design's *latest* published snapshot must trigger a full
        // rebuild, or stale per-net views would leak into the successor.
        let mut d = buffer_chain();
        let budget = Seconds::from_nano(50.0);
        let fatten = |net: &str, ff: f64| EcoEdit {
            net: net.into(),
            kind: EcoEditKind::SetCap {
                node: "load".into(),
                cap: Farads::from_femto(ff),
            },
        };
        let snap0 = d.publish(0.5, budget, 1).unwrap();
        let _snap1 = d
            .publish_after_eco(&[fatten("n_out", 500.0)], 0.5, budget, 1, &snap0)
            .unwrap();
        // snap0 is now outdated; publishing against it again must not
        // resurrect its pre-edit view of `n_out`.
        let snap2 = d
            .publish_after_eco(&[fatten("n_mid", 90.0)], 0.5, budget, 1, &snap0)
            .unwrap();
        let fresh = d.publish(0.5, budget, 1).unwrap();
        assert_eq!(snap2.report(), fresh.report());
        assert_eq!(
            snap2.net("n_out").unwrap().sinks(),
            fresh.net("n_out").unwrap().sinks(),
            "stale n_out view leaked from the outdated snapshot"
        );

        // A direct apply_eco (outside the publish path) equally
        // invalidates the latest snapshot for reuse.
        let snap3 = d.publish(0.5, budget, 1).unwrap();
        d.apply_eco(&[fatten("n_out", 60.0)], 0.5, budget).unwrap();
        let snap4 = d.publish_after_eco(&[], 0.5, budget, 1, &snap3).unwrap();
        let fresh = d.publish(0.5, budget, 1).unwrap();
        assert_eq!(snap4.report(), fresh.report());
        assert_eq!(
            snap4.net("n_out").unwrap().sinks(),
            fresh.net("n_out").unwrap().sinks(),
            "direct apply_eco did not invalidate snapshot reuse"
        );
    }

    #[test]
    fn empty_report_semantics_are_pinned() {
        // A report with no endpoints is a legitimate outcome (nets that feed
        // only instance inputs), not a panic or an error: the critical
        // endpoint is absent, the whole budget is slack, and certification
        // passes vacuously.
        let empty = TimingReport {
            threshold: 0.5,
            required_time: Seconds::from_nano(10.0),
            endpoints: Endpoints::default(),
        };
        assert!(empty.critical_endpoint().is_none());
        assert_eq!(empty.worst_slack(), Seconds::from_nano(10.0));
        assert_eq!(empty.certification(), Certification::Pass);
        assert!(empty.to_string().contains("worst slack"));
    }

    #[test]
    fn design_without_primary_outputs_yields_an_empty_report() {
        let mut d = Design::new(CellLibrary::nmos_1981());
        d.add_instance("u1", "inv_1x").unwrap();
        d.add_net(Net {
            name: "n_in".into(),
            driver: Driver::PrimaryInput,
            interconnect: wire(50.0, 5.0),
            sinks: vec![Sink {
                node: "load".into(),
                load: Load::Instance("u1".into()),
            }],
        })
        .unwrap();
        let report = d.analyze(0.5, Seconds::from_nano(7.0)).unwrap();
        assert!(report.endpoints.is_empty());
        assert!(report.critical_endpoint().is_none());
        assert_eq!(report.worst_slack(), Seconds::from_nano(7.0));
        assert_eq!(report.certification(), Certification::Pass);
    }

    #[test]
    fn analysis_is_bit_identical_for_any_worker_count() {
        let d = buffer_chain();
        let serial = d
            .analyze_with_jobs(0.5, Seconds::from_nano(50.0), 1)
            .unwrap();
        for jobs in [2, 7, rctree_par::available_parallelism()] {
            let parallel = d
                .analyze_with_jobs(0.5, Seconds::from_nano(50.0), jobs)
                .unwrap();
            assert_eq!(parallel, serial, "jobs = {jobs}");
        }
    }

    #[test]
    fn from_extracted_builds_an_analyzable_deck_design() {
        // Like `wire`, but with the far node marked as an output the way an
        // extractor marks load pins.
        let tapped_wire = |r: f64| {
            let mut b = RcTreeBuilder::new();
            let n = b
                .add_line(b.input(), "load", Ohms::new(r), Farads::from_femto(10.0))
                .unwrap();
            b.mark_output(n).unwrap();
            b.build().unwrap()
        };
        let nets: Vec<(String, RcTree)> = (0..5)
            .map(|i| (format!("net{i}"), tapped_wire(100.0 * (i + 1) as f64)))
            .collect();
        let d = Design::from_extracted(CellLibrary::nmos_1981(), "inv_4x", nets).unwrap();
        assert_eq!(d.instance_count(), 5);
        assert_eq!(d.net_count(), 10); // feeder + payload per extracted net
        let report = d.analyze(0.5, Seconds::from_nano(100.0)).unwrap();
        assert_eq!(report.endpoints.len(), 5);
        assert!(report.endpoints.iter().any(|e| &*e.name == "net4/load"));
        // The longest wire is the critical endpoint.
        assert_eq!(&*report.critical_endpoint().unwrap().name, "net4/load");

        // Duplicate net names collide on the instance name.
        let dup = vec![
            ("x".to_string(), wire(1.0, 1.0)),
            ("x".to_string(), wire(2.0, 1.0)),
        ];
        assert!(matches!(
            Design::from_extracted(CellLibrary::nmos_1981(), "inv_4x", dup),
            Err(StaError::DuplicateInstance { .. })
        ));
        // A deck net colliding with a synthesized feeder name is a
        // structured error too (it used to build two nets named `x_pi`).
        let feeder_clash = vec![
            ("x".to_string(), wire(1.0, 1.0)),
            ("x_pi".to_string(), wire(2.0, 1.0)),
        ];
        assert!(matches!(
            Design::from_extracted(CellLibrary::nmos_1981(), "inv_4x", feeder_clash),
            Err(StaError::DuplicateNet { name }) if name == "x_pi"
        ));
        // Unknown driver cells are rejected up front.
        assert!(matches!(
            Design::from_extracted(CellLibrary::nmos_1981(), "nand_999x", Vec::new()),
            Err(StaError::UnknownCell { .. })
        ));
    }

    #[test]
    fn combinational_cycle_is_detected() {
        let mut d = Design::new(CellLibrary::nmos_1981());
        d.add_instance("a", "inv_1x").unwrap();
        d.add_instance("b", "inv_1x").unwrap();
        for (driver, load, name) in [("a", "b", "n1"), ("b", "a", "n2")] {
            d.add_net(Net {
                name: name.into(),
                driver: Driver::Instance(driver.into()),
                interconnect: wire(1.0, 1.0),
                sinks: vec![Sink {
                    node: "load".into(),
                    load: Load::Instance(load.into()),
                }],
            })
            .unwrap();
        }
        assert!(matches!(
            d.analyze(0.5, Seconds::from_nano(1.0)),
            Err(StaError::CombinationalCycle)
        ));
    }

    #[test]
    fn a_failing_net_wins_over_a_combinational_cycle() {
        // The topology is built while the pool sweeps the nets.  Two
        // instances in a loop, then 40 primary-input nets, so the sweep
        // splits into ranges at every worker count below; a net whose tree
        // uses a reserved stage-node name fails its sweep.
        let design = |failing: &[(usize, &str)]| {
            let mut d = Design::new(CellLibrary::nmos_1981());
            d.add_instance("a", "inv_1x").unwrap();
            d.add_instance("b", "inv_1x").unwrap();
            for (driver, load, name) in [("a", "b", "n1"), ("b", "a", "n2")] {
                d.add_net(Net {
                    name: name.into(),
                    driver: Driver::Instance(driver.into()),
                    interconnect: wire(1.0, 1.0),
                    sinks: vec![Sink {
                        node: "load".into(),
                        load: Load::Instance(load.into()),
                    }],
                })
                .unwrap();
            }
            for i in 0..40 {
                let node = failing
                    .iter()
                    .find(|(at, _)| *at == i)
                    .map_or("load", |(_, node)| node);
                let mut b = RcTreeBuilder::new();
                b.add_line(b.input(), node, Ohms::new(10.0), Farads::from_femto(1.0))
                    .unwrap();
                d.add_net(Net {
                    name: format!("p{i}"),
                    driver: Driver::PrimaryInput,
                    interconnect: b.build().unwrap(),
                    sinks: vec![Sink {
                        node: node.into(),
                        load: Load::PrimaryOutput(format!("p{i}/out").into()),
                    }],
                })
                .unwrap();
            }
            d
        };
        let budget = Seconds::from_nano(1.0);
        let clashing = |result: Result<()>| match result {
            Err(StaError::Core(rctree_core::CoreError::DuplicateName { name })) => name,
            other => panic!("expected a reserved-name clash, got {other:?}"),
        };
        let analyses = |d: &Design, jobs: usize| {
            let mut cornered = d.clone();
            let mut set = CornerSet::nominal();
            set.push("slow", 1.3, 1.2, 1.25).unwrap();
            cornered.set_corners(set);
            [
                d.analyze_with_jobs(0.5, budget, jobs).map(drop),
                d.analyze_corners(0.5, budget, jobs).map(drop),
                cornered.analyze_corners(0.5, budget, jobs).map(drop),
                d.clone()
                    .apply_eco_with_jobs(&[], 0.5, budget, jobs)
                    .map(drop),
            ]
        };
        for result in analyses(&design(&[]), 2) {
            assert!(matches!(result, Err(StaError::CombinationalCycle)));
        }
        let one = design(&[(33, crate::stage::DRIVER_OUTPUT_NODE)]);
        let two = design(&[
            (9, crate::stage::STAGE_INPUT_NODE),
            (33, crate::stage::DRIVER_OUTPUT_NODE),
        ]);
        for jobs in [1, 2, 7, rctree_par::default_jobs()] {
            for result in analyses(&one, jobs) {
                assert_eq!(
                    clashing(result),
                    crate::stage::DRIVER_OUTPUT_NODE,
                    "jobs {jobs}"
                );
            }
            // The lower-indexed failing net wins.
            for result in analyses(&two, jobs) {
                assert_eq!(
                    clashing(result),
                    crate::stage::STAGE_INPUT_NODE,
                    "jobs {jobs}"
                );
            }
        }
    }

    #[test]
    fn apply_eco_matches_full_reanalysis() {
        let mut d = buffer_chain();
        let threshold = 0.5;
        let budget = Seconds::from_nano(50.0);
        let baseline = d.analyze(threshold, budget).unwrap();
        // A cache-warming empty batch reproduces the full analysis exactly.
        let warmed = d.apply_eco(&[], threshold, budget).unwrap();
        assert_eq!(warmed, baseline);

        // Fatten the load on the output net; the incremental report must be
        // bit-identical to a from-scratch analysis of the edited design.
        let report = d
            .apply_eco(
                &[EcoEdit {
                    net: "n_out".into(),
                    kind: EcoEditKind::SetCap {
                        node: "load".into(),
                        cap: Farads::from_femto(500.0),
                    },
                }],
                threshold,
                budget,
            )
            .unwrap();
        assert!(report.endpoints[0].arrival.max > baseline.endpoints[0].arrival.max);
        assert_eq!(report, d.analyze(threshold, budget).unwrap());

        // Structural edits: graft an extra stub, then prune it again.
        let mut gb = rctree_core::builder::RcTreeBuilder::with_input_name("stub");
        gb.add_capacitance(gb.input(), Farads::from_femto(40.0))
            .unwrap();
        let graft = EcoEdit {
            net: "n_out".into(),
            kind: EcoEditKind::Graft {
                parent: "load".into(),
                via: Branch::resistor(rctree_core::units::Ohms::new(50.0)),
                subtree: Box::new(gb.build().unwrap()),
            },
        };
        let grafted = d.apply_eco(&[graft], threshold, budget).unwrap();
        assert_eq!(grafted, d.analyze(threshold, budget).unwrap());
        let pruned = d
            .apply_eco(
                &[EcoEdit {
                    net: "n_out".into(),
                    kind: EcoEditKind::Prune {
                        node: "stub".into(),
                    },
                }],
                threshold,
                budget,
            )
            .unwrap();
        assert_eq!(pruned, d.analyze(threshold, budget).unwrap());
    }

    #[test]
    fn apply_eco_is_schedule_independent() {
        let budget = Seconds::from_nano(50.0);
        let edit = |ff: f64| {
            vec![EcoEdit {
                net: "n_mid".into(),
                kind: EcoEditKind::SetCap {
                    node: "load".into(),
                    cap: Farads::from_femto(ff),
                },
            }]
        };
        let mut serial = buffer_chain();
        let mut serial_reports = Vec::new();
        for step in 1..5 {
            serial_reports.push(
                serial
                    .apply_eco_with_jobs(&edit(step as f64 * 30.0), 0.5, budget, 1)
                    .unwrap(),
            );
        }
        for jobs in [2, 7, rctree_par::available_parallelism()] {
            let mut d = buffer_chain();
            for (step, want) in serial_reports.iter().enumerate() {
                let got = d
                    .apply_eco_with_jobs(&edit((step + 1) as f64 * 30.0), 0.5, budget, jobs)
                    .unwrap();
                assert_eq!(&got, want, "jobs = {jobs}, step {step}");
            }
        }
    }

    #[test]
    fn apply_eco_rejects_unknown_references_transactionally() {
        let mut d = buffer_chain();
        let budget = Seconds::from_nano(50.0);
        let before = d.analyze(0.5, budget).unwrap();
        assert!(matches!(
            d.apply_eco(
                &[EcoEdit {
                    net: "no_such_net".into(),
                    kind: EcoEditKind::Prune { node: "x".into() },
                }],
                0.5,
                budget,
            ),
            Err(StaError::UnknownNet { .. })
        ));
        assert!(matches!(
            d.apply_eco(
                &[EcoEdit {
                    net: "n_out".into(),
                    kind: EcoEditKind::SetCap {
                        node: "ghost".into(),
                        cap: Farads::from_femto(1.0),
                    },
                }],
                0.5,
                budget,
            ),
            Err(StaError::UnknownEcoNode { .. })
        ));
        // Pruning the node a sink hangs on is refused.
        assert!(matches!(
            d.apply_eco(
                &[EcoEdit {
                    net: "n_out".into(),
                    kind: EcoEditKind::Prune {
                        node: "load".into(),
                    },
                }],
                0.5,
                budget,
            ),
            Err(StaError::UnknownSinkNode { .. })
        ));
        // Nothing was committed.
        assert_eq!(d.analyze(0.5, budget).unwrap(), before);
    }

    #[test]
    fn apply_eco_rolls_back_edits_that_break_analysis() {
        // An edit batch can be valid at the tree level yet make a net
        // unanalysable: replacing the output wire (a distributed line, the
        // net's only capacitance) with a plain resistor leaves a
        // capacitance-free net whose sink is a zero-load primary output.
        // The failure surfaces during re-timing, *after* validation — the
        // batch must still roll back completely.
        let mut d = buffer_chain();
        let budget = Seconds::from_nano(50.0);
        let before = d.apply_eco(&[], 0.5, budget).unwrap();
        let err = d
            .apply_eco(
                &[EcoEdit {
                    net: "n_out".into(),
                    kind: EcoEditKind::SetBranch {
                        node: "load".into(),
                        branch: Branch::resistor(rctree_core::units::Ohms::new(400.0)),
                    },
                }],
                0.5,
                budget,
            )
            .unwrap_err();
        assert!(matches!(err, StaError::Core(_)), "{err:?}");
        // The design still analyses and matches the pre-edit report, both
        // through the cache and from scratch.
        assert_eq!(d.apply_eco(&[], 0.5, budget).unwrap(), before);
        assert_eq!(d.analyze(0.5, budget).unwrap(), before);
    }

    #[test]
    fn failing_call_keeps_the_warm_state_for_untouched_nets() {
        let mut d = buffer_chain();
        let budget = Seconds::from_nano(50.0);
        let before = d.apply_eco(&[], 0.5, budget).unwrap();
        assert!(d.eco.is_some(), "empty batch warms the cache");

        // Replacing the output wire (the net's only capacitance) with a
        // plain resistor makes the net unanalysable: the failure surfaces
        // during re-timing, after validation.  The still-valid cached
        // windows of the *untouched* nets must survive, so the next call
        // does not pay a full re-warm (the pre-fix code set `eco = None`).
        let breaking = EcoEdit {
            net: "n_out".into(),
            kind: EcoEditKind::SetBranch {
                node: "load".into(),
                branch: Branch::resistor(Ohms::new(400.0)),
            },
        };
        let err = d
            .apply_eco(std::slice::from_ref(&breaking), 0.5, budget)
            .unwrap_err();
        assert!(matches!(err, StaError::Core(_)), "{err:?}");
        let state = d.eco.as_ref().expect("state survives a failing call");
        assert_eq!(state.threshold, 0.5);
        let sink_start = &d.shared.sink_start;
        assert!(
            (0..d.net_count())
                .all(|i| !state.lanes[0].delays[sink_start[i]..sink_start[i + 1]].is_empty()),
            "every net's cached windows were retained"
        );
        assert_eq!(d.apply_eco(&[], 0.5, budget).unwrap(), before);

        // A failing call at a *different* threshold (a cold-path failure)
        // no longer destroys the state that is still valid for the cached
        // threshold either.
        let err = d.apply_eco(&[breaking], 0.7, budget).unwrap_err();
        assert!(matches!(err, StaError::Core(_)), "{err:?}");
        assert_eq!(d.eco.as_ref().map(|s| s.threshold), Some(0.5));
        assert_eq!(d.apply_eco(&[], 0.5, budget).unwrap(), before);
        assert_eq!(d.analyze(0.5, budget).unwrap(), before);
    }

    #[test]
    fn arena_analysis_matches_the_string_keyed_baseline() {
        // Batch analysis and the cold ECO warm-up of a clone must agree
        // bit-for-bit.
        let d = buffer_chain();
        let budget = Seconds::from_nano(50.0);
        for jobs in [1, 2, 7] {
            let fast = d.analyze_with_jobs(0.5, budget, jobs).unwrap();
            let slow = d
                .clone()
                .apply_eco_with_jobs(&[], 0.5, budget, jobs)
                .unwrap();
            assert_eq!(fast, slow, "jobs {jobs}");
        }

        // A deferred per-net validation failure surfaces at sweep time
        // with the historical error, without poisoning other nets.
        let mut bad = buffer_chain();
        let core = Arc::make_mut(&mut bad.shared);
        Arc::make_mut(&mut core.nets[2].loads)[0].1 = Farads::new(f64::NAN);
        let err = bad.analyze(0.5, budget).unwrap_err();
        assert!(
            matches!(
                err,
                StaError::Core(rctree_core::CoreError::InvalidValue {
                    what: "capacitance",
                    ..
                })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn publishing_a_clone_leaves_the_shared_core_uncopied() {
        // An empty-edit commit changes no net, so it must not copy a core
        // that a clone shares with its original.
        let d = buffer_chain();
        let budget = Seconds::from_nano(50.0);
        let mut c = d.clone();
        let snapshot = c.publish(0.5, budget, 2).unwrap();
        assert!(Arc::ptr_eq(&c.shared, &d.shared));
        c.apply_eco(&[], 0.5, budget).unwrap();
        assert!(Arc::ptr_eq(&c.shared, &d.shared));
        // A real edit copies the core and leaves the original untouched.
        let edit = EcoEdit {
            net: "n_out".into(),
            kind: EcoEditKind::SetCap {
                node: "load".into(),
                cap: Farads::from_femto(90.0),
            },
        };
        c.publish_after_eco(&[edit], 0.5, budget, 2, &snapshot)
            .unwrap();
        assert!(!Arc::ptr_eq(&c.shared, &d.shared));
        assert_eq!(
            d.analyze(0.5, budget).unwrap(),
            buffer_chain().analyze(0.5, budget).unwrap()
        );
    }

    /// A comb of `teeth` trunk nodes `t{j}`, each with a side node `b{j}`:
    /// `2 * teeth + 1` nodes, with outputs at the trunk's end and at every
    /// tenth side node.
    fn comb(teeth: usize, skew: f64) -> RcTree {
        let mut b = RcTreeBuilder::new();
        let mut trunk = b.input();
        for j in 0..teeth {
            let r = Ohms::new(20.0 + skew * (j % 7) as f64);
            trunk = b
                .add_line(trunk, format!("t{j}"), r, Farads::from_femto(2.0))
                .unwrap();
            let side = b
                .add_resistor(trunk, format!("b{j}"), Ohms::new(35.0 * skew))
                .unwrap();
            b.add_capacitance(side, Farads::from_femto(1.0 + (j % 3) as f64))
                .unwrap();
            if j % 10 == 0 {
                b.mark_output(side).unwrap();
            }
        }
        b.mark_output(trunk).unwrap();
        b.build().unwrap()
    }

    /// Every view of `snapshot`, at every lane, against `analyze_stage` on
    /// the design's net rebuilt with that lane's scaled values.  The
    /// driver, sink nodes and loads come from `nets`, the input the design
    /// was built from, every instance being a `cell`; only the (possibly
    /// edited) tree comes from the design.
    fn assert_views_match_the_scaled_builder_stages(
        d: &Design,
        nets: &[Net],
        cell: &str,
        snapshot: &DesignSnapshot,
    ) {
        let set = d.shared.corner_set();
        let cell = d.shared.library.cell(cell).unwrap();
        for (i, net) in nets.iter().enumerate() {
            let view = snapshot.net(&net.name).unwrap();
            let driver_r = match &net.driver {
                Driver::Instance(_) => cell.drive_resistance,
                Driver::PrimaryInput => Ohms::ZERO,
            };
            for k in 0..set.len() {
                let corner = set.corner(k);
                let (wire_r, wire_c) = set.wire_scales(&net.name, k);
                let tree = scale_tree(&d.shared.nets[i].tree, wire_r, wire_c).unwrap();
                let loads: Vec<(NodeId, Farads)> = net
                    .sinks
                    .iter()
                    .map(|sink| {
                        let cap = match &sink.load {
                            Load::Instance(_) => cell.input_capacitance,
                            Load::PrimaryOutput(_) => Farads::ZERO,
                        };
                        let node = tree.node_by_name(&sink.node).unwrap();
                        (node, Farads::new(cap.value() * corner.c_scale))
                    })
                    .collect();
                let driver = Ohms::new(driver_r.value() * corner.r_scale);
                let oracle = crate::stage::analyze_stage(driver, &tree, &loads, 0.5).unwrap();
                let lane = view.sinks_at(k).unwrap();
                assert_eq!(lane.len(), oracle.sinks.len(), "{} lane {k}", net.name);
                for (got, want) in lane.iter().zip(&oracle.sinks) {
                    let bits = |x: Seconds| x.value().to_bits();
                    assert_eq!(
                        bits(got.lower),
                        bits(want.bounds.lower),
                        "{} lane {k}",
                        net.name
                    );
                    assert_eq!(
                        bits(got.upper),
                        bits(want.bounds.upper),
                        "{} lane {k}",
                        net.name
                    );
                }
            }
        }
    }

    #[test]
    fn worker_scratch_reused_across_net_sizes_matches_the_builder_stages() {
        // Nets alternate a 201-node comb and a 2-node wire, so every worker
        // scratch splices a small net over a large one's leftovers.  Each
        // net is driven by its own instance and loads the next one.
        let budget = Seconds::from_nano(500.0);
        let build = || {
            let mut d = Design::new(CellLibrary::nmos_1981());
            let mut input = Vec::new();
            let nets = 16;
            for i in 0..nets {
                d.add_instance(format!("u{i}"), "inv_4x").unwrap();
            }
            for i in 0..nets {
                let tree = if i % 2 == 0 {
                    comb(100, 1.0 + i as f64 / 8.0)
                } else {
                    wire(60.0 + i as f64, 4.0)
                };
                let nodes: Vec<String> = match i % 2 {
                    0 => tree
                        .outputs()
                        .map(|id| tree.name(id).unwrap().into())
                        .collect(),
                    _ => vec!["load".into()],
                };
                let mut sinks: Vec<Sink> = nodes
                    .into_iter()
                    .map(|node| Sink {
                        load: Load::PrimaryOutput(format!("net{i}/{node}").into()),
                        node,
                    })
                    .collect();
                if i + 1 < nets {
                    sinks[0].load = Load::Instance(format!("u{}", i + 1));
                }
                let net = Net {
                    name: format!("net{i}"),
                    driver: Driver::Instance(format!("u{i}")),
                    interconnect: tree,
                    sinks,
                };
                input.push(net.clone());
                d.add_net(net).unwrap();
            }
            let mut set = CornerSet::nominal();
            let slow = set.push("slow", 1.3, 1.2, 1.1).unwrap();
            set.push("fast", 0.8, 0.9, 0.95).unwrap();
            set.push("hot", 1.1, 1.25, 1.05).unwrap();
            set.override_net("net4", slow, 1.6, 1.45).unwrap();
            d.set_corners(set);
            (d, input)
        };
        let mut stub = RcTreeBuilder::with_input_name("g0");
        let g1 = stub
            .add_resistor(stub.input(), "g1", Ohms::new(12.0))
            .unwrap();
        stub.add_capacitance(g1, Farads::from_femto(6.0)).unwrap();
        let stub = stub.build().unwrap();
        let edits = [
            EcoEditKind::SetCap {
                node: "t50".into(),
                cap: Farads::from_femto(40.0),
            },
            EcoEditKind::Graft {
                parent: "t20".into(),
                via: Branch::line(Ohms::new(30.0), Farads::from_femto(3.0)),
                subtree: Box::new(stub),
            },
            EcoEditKind::Prune { node: "b31".into() },
        ];
        for jobs in [1, 2, 7] {
            let (mut d, nets) = build();
            let mut snapshot = d.publish(0.5, budget, jobs).unwrap();
            assert_views_match_the_scaled_builder_stages(&d, &nets, "inv_4x", &snapshot);
            for kind in &edits {
                let edit = EcoEdit {
                    net: "net4".into(),
                    kind: kind.clone(),
                };
                snapshot = d
                    .publish_after_eco(&[edit], 0.5, budget, jobs, &snapshot)
                    .unwrap();
                assert_views_match_the_scaled_builder_stages(&d, &nets, "inv_4x", &snapshot);
            }
            assert_eq!(d.shared.nets[4].tree.node_count(), 201 + 2 - 1);
        }
    }

    #[test]
    fn deeper_paths_arrive_later() {
        let d = buffer_chain();
        let report = d.analyze(0.5, Seconds::from_nano(100.0)).unwrap();
        let out = &report.endpoints[0];
        // The endpoint must arrive later than the sum of intrinsic delays
        // alone (wire delay is nonzero) and the window must be ordered.
        let intrinsic_sum = Seconds::from_nano(1.0) + Seconds::from_nano(0.8);
        assert!(out.arrival.max > intrinsic_sum);
        assert!(out.arrival.min >= intrinsic_sum);
    }

    /// A deck-style design of `n` independent extracted nets (each one a
    /// feeder + driver + wire component, like `from_extracted` builds).
    fn extracted_deck(n: usize) -> Design {
        let nets: Vec<(String, RcTree)> = (0..n)
            .map(|i| {
                (
                    format!("net{i}"),
                    wire(80.0 + 37.0 * i as f64, 3.0 + 2.5 * i as f64),
                )
            })
            .collect();
        Design::from_extracted(CellLibrary::nmos_1981(), "inv_4x", nets).unwrap()
    }

    #[test]
    fn partition_splits_components_into_contiguous_net_ranges() {
        let design = extracted_deck(6);
        let shards = design.partition(3).unwrap();
        assert_eq!(shards.len(), 3);
        // 6 components of 2 nets each, cut 2/2/2 in deck order.
        for (s, shard) in shards.iter().enumerate() {
            assert_eq!(shard.net_count(), 4);
            assert_eq!(shard.instance_count(), 2);
            for i in 0..2 {
                let name = format!("net{}", 2 * s + i);
                assert!(
                    shard.shared.names.net(&name).is_some(),
                    "{name} in shard {s}"
                );
            }
        }
        // More shards than components clamps instead of creating empties.
        assert_eq!(extracted_deck(2).partition(8).unwrap().len(), 2);
        assert!(matches!(
            Design::new(CellLibrary::nmos_1981()).partition(2),
            Err(StaError::EmptyDesign)
        ));
    }

    #[test]
    fn partition_never_splits_a_connected_component() {
        // The buffer chain is one component: PI -> u1 -> u2 -> PO.
        let shards = buffer_chain().partition(4).unwrap();
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].net_count(), 3);
        assert_eq!(shards[0].instance_count(), 2);
    }

    #[test]
    fn composed_partition_reports_render_byte_identically_to_monolithic() {
        let budget = Seconds::from_nano(150.0);
        let design = extracted_deck(7);
        let mono = design.analyze(0.5, budget).unwrap();
        let shards = design.partition(3).unwrap();
        let parts: Vec<TimingReport> = shards
            .iter()
            .map(|s| s.analyze(0.5, budget).unwrap())
            .collect();
        let composed = TimingReport::compose(parts.iter());
        assert_eq!(composed.to_string(), mono.to_string());
        assert_eq!(composed.endpoints.len(), mono.endpoints.len());
        assert_eq!(composed.worst_slack(), mono.worst_slack());
        // A single-part compose is the identity.
        assert_eq!(
            TimingReport::compose(std::iter::once(&mono)).to_string(),
            mono.to_string()
        );
    }

    #[test]
    fn compose_handles_empty_shards_single_endpoints_and_ties() {
        let required = Seconds::from_nano(100.0);
        let endpoint = |name: &str, min_ns: f64, max_ns: f64| EndpointTiming {
            name: name.into(),
            arrival: ArrivalWindow {
                min: Seconds::from_nano(min_ns),
                max: Seconds::from_nano(max_ns),
            },
            critical_path: Arc::new(vec!["u1".to_string()]),
        };
        let report = |endpoints: Vec<EndpointTiming>| TimingReport {
            threshold: 0.5,
            required_time: required,
            endpoints: endpoints.into_iter().collect(),
        };

        // An empty shard (a partition whose nets feed only instance inputs)
        // contributes nothing: composing with it is the identity, in either
        // order, and an all-empty compose stays empty and vacuously passes.
        let empty = report(Vec::new());
        let single = report(vec![endpoint("po1", 10.0, 20.0)]);
        let with_empty = TimingReport::compose([&single, &empty]);
        assert_eq!(with_empty, single);
        assert_eq!(
            TimingReport::compose([&empty, &single]).endpoints,
            single.endpoints
        );
        let both_empty = TimingReport::compose([&empty, &empty]);
        assert!(both_empty.endpoints.is_empty());
        assert_eq!(both_empty.worst_slack(), required);
        assert_eq!(both_empty.slack_interval(), (required, required));
        assert_eq!(both_empty.certification(), Certification::Pass);

        // A single-endpoint shard composes to itself.
        assert_eq!(TimingReport::compose([&single]), single);
        assert_eq!(&*single.critical_endpoint().unwrap().name, "po1");

        // Equal worst arrivals keep part order (stable sort), exactly as a
        // monolithic analysis keeps net order on ties — so the tie order is
        // deterministic, not an artifact of shard count.
        let a = report(vec![
            endpoint("a_fast", 1.0, 5.0),
            endpoint("a_tie", 2.0, 20.0),
        ]);
        let b = report(vec![
            endpoint("b_tie", 3.0, 20.0),
            endpoint("b_slow", 1.0, 30.0),
        ]);
        let composed = TimingReport::compose([&a, &b]);
        let names: Vec<&str> = composed.endpoints.iter().map(|e| &*e.name).collect();
        assert_eq!(names, ["b_slow", "a_tie", "b_tie", "a_fast"]);
        // Reversing the parts reverses only the tied pair.
        let swapped = TimingReport::compose([&b, &a]);
        let names: Vec<&str> = swapped.endpoints.iter().map(|e| &*e.name).collect();
        assert_eq!(names, ["b_slow", "b_tie", "a_tie", "a_fast"]);
        assert_eq!(composed.worst_slack(), swapped.worst_slack());
    }

    #[test]
    fn partition_carries_the_corner_set_and_composes_per_lane() {
        let budget = Seconds::from_nano(150.0);
        let mut design = extracted_deck(5);
        let mut set = CornerSet::nominal();
        let slow = set.push("slow", 1.3, 1.2, 1.1).unwrap();
        set.push("fast", 0.85, 0.9, 0.95).unwrap();
        set.override_net("net3", slow, 1.5, 1.4).unwrap();
        design.set_corners(set);
        let mono = design.analyze_corners(0.5, budget, 1).unwrap();
        let shards = design.partition(2).unwrap();
        let shard_analyses: Vec<CornerAnalysis> = shards
            .iter()
            .map(|s| s.analyze_corners(0.5, budget, 1).unwrap())
            .collect();
        for lane in 0..3 {
            let mut parts: Vec<&TimingReport> = Vec::new();
            for analysis in &shard_analyses {
                assert_eq!(analysis.names(), mono.names());
                parts.push(analysis.report(lane).unwrap());
            }
            let composed = TimingReport::compose(parts);
            assert_eq!(
                composed.to_string(),
                mono.report(lane).unwrap().to_string(),
                "lane {lane} diverged"
            );
        }
    }

    /// Asserts that `names` are exactly the primary outputs of `d`, each
    /// the net's own `Load::PrimaryOutput` allocation rather than a copy.
    fn assert_shared_names<'a>(d: &Design, names: impl Iterator<Item = &'a Arc<str>>, what: &str) {
        let owned: HashMap<&str, &Arc<str>> = d
            .shared
            .nets
            .iter()
            .flat_map(|net| net.targets.iter())
            .filter_map(|target| match target {
                Target::Output(po) => Some((&**po, po)),
                Target::Instance(_) => None,
            })
            .collect();
        let mut seen = 0;
        for name in names {
            assert!(Arc::ptr_eq(name, owned[&**name]), "{what}: `{name}` copied");
            seen += 1;
        }
        assert_eq!(seen, owned.len(), "{what}");
    }

    #[test]
    fn endpoints_share_their_primary_output_name_in_every_lane_and_revision() {
        let budget = Seconds::from_nano(150.0);
        fn names(r: &TimingReport) -> impl Iterator<Item = &Arc<str>> {
            r.endpoints.iter().map(|e| &e.name)
        }
        let nets = (0..6).map(|i| (format!("net{i}"), comb(12, 1.0 + i as f64)));
        let mut d = Design::from_extracted(CellLibrary::nmos_1981(), "inv_4x", nets).unwrap();
        let report = d.analyze_with_jobs(0.5, budget, 2).unwrap();
        assert_eq!(report.endpoints.len(), 18);
        assert_shared_names(&d, names(&report), "analyze_with_jobs");

        let mut set = CornerSet::nominal();
        set.push("slow", 1.3, 1.2, 1.1).unwrap();
        d.set_corners(set);
        let corners = d.analyze_corners(0.5, budget, 2).unwrap();
        assert_eq!(corners.len(), 2);
        for (k, report) in corners.reports().iter().enumerate() {
            let what = format!("analyze_corners lane {k}");
            assert_shared_names(&d, names(report), &what);
        }

        let s0 = d.publish(0.5, budget, 2).unwrap();
        let edit = EcoEdit {
            net: "net2".into(),
            kind: EcoEditKind::SetCap {
                node: "t5".into(),
                cap: Farads::from_femto(40.0),
            },
        };
        let s1 = d
            .publish_after_eco(std::slice::from_ref(&edit), 0.5, budget, 2, &s0)
            .unwrap();
        assert_ne!(s0.report(), s1.report(), "the setcap moved an endpoint");
        for (rev, snapshot) in [&s0, &s1].into_iter().enumerate() {
            let lanes = snapshot.corners().expect("two corners");
            for k in 0..lanes.len() {
                let what = format!("revision {rev} lane {k}");
                assert_shared_names(&d, names(lanes.report(k).unwrap()), &what);
            }
            let symbolic = snapshot.symbolic().unwrap();
            let what = format!("revision {rev} symbolic lane");
            assert_shared_names(&d, symbolic.endpoints().iter().map(|e| &e.name), &what);
            let what = format!("revision {rev} symbolic report");
            let at = symbolic.report_at(1.1, 0.9);
            assert_shared_names(&d, names(&at), &what);
        }
    }
}
