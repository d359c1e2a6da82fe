//! Heap allocations per parsed SPEF net, and per deck net of the design
//! built from them and of its analysis, counted.
//!
//! A section should cost its bytes, its floats and its final tree: the
//! tree is 11 allocations (five base columns, four name-table buffers,
//! the pre-order and the shared table itself) plus one buffer freed once
//! its pre-order is derived, and the tree assembler's buffers are
//! per-thread scratch that a warm thread reuses.  The reader adds the
//! section's name, its copied body and the net's name, plus a few per
//! batch: 15.03 per net in all.  One more allocation per net, a builder
//! whose columns grew by doubling, or an assembler that allocated its own
//! lists per net, reads above the bound.
//!
//! `Design::from_extracted` then turns each parsed net into a driver
//! instance, a feeder net and the deck net, every name interned once
//! into the design's one name table.  A deck net should cost its sink
//! lists and its primary-output names: one allocation for the feeder's
//! target, two for the deck net's loads and targets, one shared name per
//! output node (≈4.4 here), and the amortized growth of the tables: 7.50
//! per deck net in all.
//!
//! `Design::analyze_with_jobs` at one job then costs what its report
//! holds: three allocations for the shared critical path of each deck
//! net's endpoints (the name list, sized once, the driver's name and the
//! shared list), no record per endpoint (the report's leaves hold every
//! endpoint inline), and the report order's leaves and nodes, plus a fixed
//! number of runs and columns per call (one window column per lane and its
//! range buffers, the arrivals, the endpoint run and its keys, and the
//! topology's arrays): 3.33 per deck net in all.  A shared record per
//! endpoint again, as before the inline leaves (8.78), reads above the
//! bound.
//!
//! This file holds one test on purpose: the counter is process-wide, and
//! a second test running beside it would add its allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rctree_core::units::Seconds;
use rctree_netlist::parse_spef_deck;
use rctree_sta::{CellLibrary, Design};
use rctree_workloads::deck::{spef_deck, SpefDeckParams};

/// Allocations (fresh blocks and resizes) since the process started.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation and reallocation.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a relaxed atomic add with no
// allocation of its own.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Most allocations one parsed net may cost at one job, scratch warm
/// (15.03 measured).
const MAX_PER_NET: f64 = 15.5;

/// Most allocations `Design::from_extracted` may spend per deck net
/// (7.50 measured; 21.0 while the design stored every net's and
/// instance's names as strings).
const MAX_PER_BUILT_NET: f64 = 8.0;

/// Most allocations `Design::analyze_with_jobs` may spend per deck net at
/// one job (3.33 measured; 8.78 while every endpoint had its own shared
/// record, 14.73 while every net had its own window and endpoint lists).
const MAX_PER_ANALYSED_NET: f64 = 4.0;

const NETS: usize = 2_000;

/// Allocations made while `f` runs.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn a_warm_parse_and_the_design_build_stay_within_their_allocation_bounds() {
    let deck = spef_deck(
        &SpefDeckParams {
            nets: NETS,
            ..SpefDeckParams::default()
        },
        3,
    );
    // The first pass warms this thread's assembler; only the second is
    // counted.  One job keeps every section on this thread.
    let cold = parse_spef_deck(&deck, 1).expect("the generated deck parses");
    let (warm, parsed) = counted(|| parse_spef_deck(&deck, 1).expect("the generated deck parses"));
    assert_eq!(warm.len(), NETS);
    assert_eq!(warm, cold);
    let per_net = parsed as f64 / NETS as f64;
    assert!(
        per_net <= MAX_PER_NET,
        "{per_net:.2} allocations per parsed net ({parsed} for {NETS} nets), bound {MAX_PER_NET}"
    );
    // The count is real: every net owns at least its tree's allocations.
    assert!(
        per_net >= 11.0,
        "{per_net:.2} allocations per net is too few to be counted"
    );

    let nets: Vec<_> = warm.into_iter().map(|net| (net.name, net.tree)).collect();
    let outputs: usize = nets.iter().map(|(_, tree)| tree.outputs().count()).sum();
    let (design, built) = counted(|| {
        Design::from_extracted(CellLibrary::nmos_1981(), "inv_4x", nets).expect("the deck builds")
    });
    assert_eq!(design.net_count(), 2 * NETS);
    let per_net = built as f64 / NETS as f64;
    assert!(
        per_net <= MAX_PER_BUILT_NET,
        "{per_net:.2} allocations per built deck net ({built} for {NETS} nets), bound \
         {MAX_PER_BUILT_NET}"
    );
    // Every primary output owns its shared name.
    assert!(
        built as usize >= outputs,
        "{built} allocations for {outputs} primary outputs is too few to be counted"
    );

    let (report, analysed) = counted(|| {
        design
            .analyze_with_jobs(0.5, Seconds::new(5e-7), 1)
            .expect("the deck analyses")
    });
    assert_eq!(report.endpoints.len(), outputs);
    let per_net = analysed as f64 / NETS as f64;
    assert!(
        per_net <= MAX_PER_ANALYSED_NET,
        "{per_net:.2} allocations per analysed deck net ({analysed} for {NETS} nets), bound \
         {MAX_PER_ANALYSED_NET}"
    );
    // Every deck net's endpoints share one path list.
    assert!(
        analysed as usize >= NETS,
        "{analysed} allocations for {NETS} deck nets is too few to be counted"
    );
}
