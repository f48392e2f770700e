//! Allocation-behavior regression test for skyline maintenance.
//!
//! `SkylineMaintainer` keeps every pruned entry as plain data — an id in
//! its owner's plist, the entry's corner in a flat coordinate array —
//! and keeps the candidate heap's corners in one arena. Building the
//! skyline and maintaining it under removals therefore allocate per node
//! read and per skyline object (its plist's arrays growing), never per
//! pruned or re-homed entry. This test pins that with a counting global
//! allocator.
//!
//! One `#[test]` only: the counter is process-global, and a second
//! concurrently-running test would pollute the deltas.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mpq::datagen::objects::independent;
use mpq::rtree::{RTree, RTreeParams};
use mpq::skyline::SkylineMaintainer;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocation count of `f`, plus its result.
fn counting<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let value = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, value)
}

#[test]
fn build_and_removal_allocate_per_node_and_member_not_per_entry() {
    let objects = independent(30_000, 3, 2009);
    let tree = RTree::bulk_load(&objects, RTreeParams::default());
    // The buffer pool decodes a page on every miss; size it to the
    // whole tree and touch every page once so the counted passes below
    // measure the maintainer, not the pool's first fill.
    tree.set_buffer_capacity(tree.page_count() + 1);
    drop(SkylineMaintainer::build(&tree));

    let mut victims: Vec<u64> = Vec::with_capacity(16);
    let (allocs, (sky, promoted)) = counting(|| {
        let mut sky = SkylineMaintainer::build(&tree);
        victims.extend(sky.iter().take(16).map(|e| e.oid));
        let promoted = sky.remove(&victims, &tree);
        (sky, promoted)
    });
    let stats = sky.stats();
    assert!(stats.entries_rehomed > 0 && !promoted.is_empty());

    // Per node read: at most a handful of allocations. Per object that
    // entered the skyline: its plist `Arc`, the amortized growth of its
    // plist arrays (two `Vec`s doubling up to the plist's length), the
    // lookup map and slab growth, and its entry in the promotions
    // returned by `remove`.
    let members = stats.points_promoted;
    let growth = 2 * (64 - (stats.entries_pruned.max(1)).leading_zeros() as u64);
    let bound = 4 * stats.nodes_expanded + members * (4 + growth) + 64;
    assert!(
        allocs <= bound,
        "{allocs} allocations for {} node reads and {members} promotions \
         (bound {bound}); stats {stats:?}",
        stats.nodes_expanded,
    );
    // An allocation per pruned or re-homed entry would break this
    // several times over.
    let entries = stats.entries_pruned + stats.entries_rehomed;
    assert!(
        allocs * 4 < entries,
        "{allocs} allocations is not well below the {entries} entries pruned \
         and re-homed; stats {stats:?}"
    );
}
