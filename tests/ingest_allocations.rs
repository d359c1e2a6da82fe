//! Heap allocations per parsed SPEF net, counted.
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
//! This file holds one test on purpose: the counter is process-wide, and
//! a second test running beside it would add its allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rctree_netlist::parse_spef_deck;
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

const NETS: usize = 2_000;

#[test]
fn a_warm_parse_stays_within_max_per_net_allocations() {
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
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let warm = parse_spef_deck(&deck, 1).expect("the generated deck parses");
    let counted = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(warm.len(), NETS);
    assert_eq!(warm, cold);
    let per_net = counted as f64 / NETS as f64;
    assert!(
        per_net <= MAX_PER_NET,
        "{per_net:.2} allocations per parsed net ({counted} for {NETS} nets), bound {MAX_PER_NET}"
    );
    // The count is real: every net owns at least its tree's allocations.
    assert!(
        per_net >= 11.0,
        "{per_net:.2} allocations per net is too few to be counted"
    );
}
