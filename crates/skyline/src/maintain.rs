//! Incremental skyline maintenance with pruned-entry lists (§IV-B of the
//! paper).
//!
//! [`SkylineMaintainer`] runs BBS once over the R-tree and remembers, for
//! every entry it prunes, *which* skyline object pruned it (each entry is
//! kept in the `plist` of exactly one dominator, bounding memory by the
//! number of pruned entries). When skyline objects are removed — because
//! the SB matcher assigned them to users — their plist entries are
//! re-homed to another dominating skyline object where possible;
//! exclusively-dominated entries go back into the BBS priority queue
//! (`Scand` in the paper) and the traversal resumes, reading only pages
//! that have become potentially undominated.
//!
//! ## Layout
//!
//! Maintenance handles tens of thousands of entries per evaluation, so
//! every per-entry record is plain data in a flat array and no entry
//! owns an allocation of its own:
//!
//! * **plists.** An entry is an id — a point's object id or a subtree's
//!   page id — plus its upper corner (the point itself for a point).
//!   One skyline object's plist keeps the ids in one `Vec` and the
//!   corners back to back, stride `dim`, in another.
//! * **candidate heap.** Heap items are a key, an id and a slot; the
//!   slot's corner lives in an arena of coordinates that is cleared
//!   whenever the heap drains, i.e. at the end of every public mutator.
//! * **members.** Skyline objects sit in a stable slab, so plist
//!   ownership survives removals without index fix-ups. Their
//!   coordinates and coordinate sums are kept in flat *scan rows*, each
//!   with a live flag, for the dominance scan below.
//!
//! ## Copy-on-write
//!
//! Each plist sits behind its own `Arc`. Cloning a maintainer (the seed
//! snapshot of seeded evaluation) copies the slab, the scan rows and the
//! lookup map — O(skyline) — and shares every plist with the original,
//! which is what keeps a cache full of seeds O(skyline) each rather than
//! O(inventory). Two rules keep the sharing invisible:
//!
//! * a plist is never modified while shared: appending goes through
//!   `Arc::make_mut`, which first copies a shared plist (two `memcpy`s,
//!   ids and corners) so the other holder never sees the append;
//! * removing an owner never copies its plist: the entries are read
//!   through the shared `Arc` and copied one by one into their new
//!   owners or the candidate heap, and the `Arc` is then released.
//!
//! Everything else — slab, scan rows, lookup map, counters — is owned
//! by each clone outright.
//!
//! ## Dominance-scan acceleration
//!
//! Dominance tests against the skyline are the CPU hot spot of BBS-style
//! algorithms. Two standard devices are used (neither affects results):
//!
//! * a skyline object whose *coordinate sum* is smaller than the
//!   candidate's cannot dominate it (componentwise ≥ implies sum ≥), so
//!   the scan rows are kept in descending-sum order and the scan stops
//!   at the first row whose sum falls below the candidate's (minus an
//!   f64 rounding slack);
//! * removals only clear a row's live flag and promotions append
//!   unsorted rows after the sorted ones (scanned first, without the
//!   early exit); the rows are compacted and re-sorted only after enough
//!   such changes accumulate.

use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::sync::Arc;

use mpq_rtree::geometry::mindist_to_best;
use mpq_rtree::pager::PageId;
use mpq_rtree::{Node, NodeSource};

use crate::dominance::dominates_or_equal;

/// Tolerance for the coordinate-sum fast path in dominance scans: an
/// object whose coordinate sum is smaller than the candidate's (beyond
/// accumulated f64 rounding) cannot dominate it.
const SUM_SLACK: f64 = 1e-9;

/// Bytes [`SkylineMaintainer::approx_bytes`] charges per plist slot, on
/// top of the entry's coordinates. The id itself takes 16; the other 16
/// are a deliberate margin. The result cache admits and evicts seeds by
/// this estimate, and the margin keeps those decisions — and the
/// resident memory they bound — where they were tuned. A smaller charge
/// lets the cache hold more seeds and raises peak memory.
const ENTRY_CHARGE: usize = 32;

/// A borrowed view of one skyline member.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkylineEntry<'a> {
    /// Object id.
    pub oid: u64,
    /// The object's attribute vector.
    pub point: &'a [f64],
}

/// Counters describing the work done by skyline computation/maintenance.
#[derive(Debug, Default, Clone, Copy)]
pub struct SkylineStats {
    /// R-tree nodes expanded (each expansion costs one logical page read).
    pub nodes_expanded: u64,
    /// Entries placed into some skyline object's plist.
    pub entries_pruned: u64,
    /// plist entries moved to a new owner during maintenance.
    pub entries_rehomed: u64,
    /// plist entries pushed back into the candidate heap during
    /// maintenance (exclusively dominated by removed objects).
    pub entries_reheaped: u64,
    /// Points promoted into the skyline.
    pub points_promoted: u64,
    /// Point-vs-point / point-vs-corner dominance tests performed.
    pub dominance_checks: u64,
}

/// Identity of an entry pruned by a skyline object or queued in the
/// candidate heap. The derived order is the heap's tie-break at equal
/// key: points before subtrees, then ascending id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EntryId {
    /// A data point, by object id.
    Point(u64),
    /// An unexpanded R-tree subtree, by page.
    Subtree(PageId),
}

/// The entries one skyline object pruned (it is their exclusive owner):
/// ids in `ids`, upper corners back to back in `hi` (stride `dim`).
#[derive(Debug, Clone, Default)]
struct PList {
    ids: Vec<EntryId>,
    hi: Vec<f64>,
}

impl PList {
    fn push(&mut self, id: EntryId, hi: &[f64]) {
        self.ids.push(id);
        self.hi.extend_from_slice(hi);
    }

    fn append(&mut self, other: &PList) {
        self.ids.extend_from_slice(&other.ids);
        self.hi.extend_from_slice(&other.hi);
    }

    /// `(id, upper corner)` of every entry, in insertion order.
    fn iter(&self, dim: usize) -> impl Iterator<Item = (EntryId, &[f64])> + '_ {
        self.ids.iter().copied().zip(self.hi.chunks_exact(dim))
    }
}

/// Candidate-heap item, popped in ascending `key` (L1 mindist to the
/// best corner) with the [`EntryId`] order as tie-break. The corner is
/// row `slot` of the maintainer's arena.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    key: f64,
    id: EntryId,
    slot: u32,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Inverted: BinaryHeap pops the max, we want the min key.
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// One live skyline object.
#[derive(Debug, Clone)]
struct Member {
    oid: u64,
    /// Its row in the scan arrays.
    row: u32,
    plist: Arc<PList>,
}

/// The skyline's objects: the slab that owns their plists, the scan
/// rows that hold their coordinates, and the running plist totals that
/// make [`SkylineMaintainer::approx_bytes`] O(1).
#[derive(Debug, Clone)]
struct Members {
    dim: usize,
    /// Stable slab in promotion order: `None` = removed. plist owners
    /// are slab indices.
    slab: Vec<Option<Member>>,
    alive: usize,
    by_oid: HashMap<u64, usize>,
    /// Scan rows: coordinates (stride `dim`), coordinate sum, owning
    /// slab index and live flag. Rows `..sorted` are in descending-sum
    /// order; rows after them are promotions since the last rebuild.
    pts: Vec<f64>,
    sums: Vec<f64>,
    owners: Vec<u32>,
    live: Vec<bool>,
    sorted: usize,
    /// Removals since the last rebuild (dead rows).
    stale: usize,
    /// Total capacity and length of the live members' plists.
    plist_slots: usize,
    plist_entries: usize,
}

impl Members {
    fn new(dim: usize) -> Members {
        Members {
            dim,
            slab: Vec::new(),
            alive: 0,
            by_oid: HashMap::new(),
            pts: Vec::new(),
            sums: Vec::new(),
            owners: Vec::new(),
            live: Vec::new(),
            sorted: 0,
            stale: 0,
            plist_slots: 0,
            plist_entries: 0,
        }
    }

    #[inline]
    fn row(&self, r: u32) -> &[f64] {
        let at = r as usize * self.dim;
        &self.pts[at..at + self.dim]
    }

    fn point_of(&self, oid: u64) -> Option<&[f64]> {
        let idx = *self.by_oid.get(&oid)?;
        self.slab[idx].as_ref().map(|m| self.row(m.row))
    }

    /// Add a skyline object owning `plist`.
    fn promote(&mut self, oid: u64, point: &[f64], plist: PList) {
        let idx = self.slab.len();
        let row = self.owners.len() as u32;
        self.pts.extend_from_slice(point);
        self.sums.push(point.iter().sum());
        self.owners.push(idx as u32);
        self.live.push(true);
        self.plist_slots += plist.ids.capacity();
        self.plist_entries += plist.ids.len();
        self.slab.push(Some(Member {
            oid,
            row,
            plist: Arc::new(plist),
        }));
        self.by_oid.insert(oid, idx);
        self.alive += 1;
    }

    /// Take `oid` out of the skyline, returning its plist. Its scan row
    /// stays readable (dead) until the next rebuild.
    fn remove(&mut self, oid: u64) -> (u32, Arc<PList>) {
        let idx = self
            .by_oid
            .remove(&oid)
            .unwrap_or_else(|| panic!("object {oid} is not in the skyline"));
        let m = self.slab[idx].take().expect("slab and by_oid in sync");
        self.live[m.row as usize] = false;
        self.alive -= 1;
        self.stale += 1;
        self.plist_slots -= m.plist.ids.capacity();
        self.plist_entries -= m.plist.ids.len();
        (m.row, m.plist)
    }

    /// Put a pruned entry into a skyline object's plist.
    ///
    /// Note on duplicates: when several objects share identical
    /// coordinates, exactly one of them represents the group in the
    /// skyline, but *which* one is implementation-defined — a duplicate
    /// may be hidden inside an unexpanded subtree whose upper corner
    /// equals the representative, so a smallest-id convention cannot be
    /// maintained without defeating the lazy plist design. Removing the
    /// representative eventually surfaces the remaining duplicates.
    fn adopt(&mut self, owner: usize, id: EntryId, hi: &[f64]) {
        let plist = &mut self.slab[owner].as_mut().expect("owner is alive").plist;
        let before = plist.ids.capacity();
        let plist = Arc::make_mut(plist);
        plist.push(id, hi);
        self.plist_slots = self.plist_slots - before + plist.ids.capacity();
        self.plist_entries += 1;
    }

    /// First skyline object (slab index) that dominates-or-equals `x`,
    /// if any, counting each live member tested in `checks`. Scans the
    /// unsorted recent promotions linearly, then the sorted rows with
    /// early exit once sums fall below the candidate's.
    fn find_dominator(&mut self, x: &[f64], checks: &mut u64) -> Option<usize> {
        self.maybe_rebuild();
        let cutoff = x.iter().sum::<f64>() - SUM_SLACK;
        let s = self.sorted;
        let rows = self.pts.chunks_exact(self.dim);
        let fresh = (self.sums[s..].iter().zip(&self.live[s..]))
            .zip(rows.clone().skip(s).zip(&self.owners[s..]));
        for ((&sum, &live), (p, &owner)) in fresh {
            if !live || sum < cutoff {
                continue;
            }
            *checks += 1;
            if dominates_or_equal(p, x) {
                return Some(owner as usize);
            }
        }
        let sorted = (self.sums[..s].iter().zip(&self.live[..s])).zip(rows.zip(&self.owners[..s]));
        for ((&sum, &live), (p, &owner)) in sorted {
            if sum < cutoff {
                break; // sorted descending: nothing below can dominate
            }
            if !live {
                continue;
            }
            *checks += 1;
            if dominates_or_equal(p, x) {
                return Some(owner as usize);
            }
        }
        None
    }

    fn maybe_rebuild(&mut self) {
        let churn = (self.owners.len() - self.sorted) + self.stale;
        if churn > 64 && churn * 4 > self.alive {
            self.rebuild();
        }
    }

    /// Compact the scan rows to the live members and sort them by
    /// coordinate sum descending (slab index breaks ties).
    fn rebuild(&mut self) {
        let mut order: Vec<u32> = (0..self.owners.len() as u32)
            .filter(|&r| self.live[r as usize])
            .collect();
        order.sort_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            self.sums[b]
                .total_cmp(&self.sums[a])
                .then(self.owners[a].cmp(&self.owners[b]))
        });
        let n = order.len();
        let mut pts = Vec::with_capacity(n * self.dim);
        let mut sums = Vec::with_capacity(n);
        let mut owners = Vec::with_capacity(n);
        for (new_row, &r) in order.iter().enumerate() {
            pts.extend_from_slice(self.row(r));
            sums.push(self.sums[r as usize]);
            let owner = self.owners[r as usize];
            owners.push(owner);
            self.slab[owner as usize]
                .as_mut()
                .expect("live row has a member")
                .row = new_row as u32;
        }
        self.pts = pts;
        self.sums = sums;
        self.owners = owners;
        self.live.clear();
        self.live.resize(n, true);
        self.sorted = n;
        self.stale = 0;
    }
}

/// The maintained skyline of an R-tree-indexed object set.
///
/// Build it once with [`SkylineMaintainer::build`], then call
/// [`SkylineMaintainer::remove`] as objects get assigned; the structure
/// incrementally promotes newly undominated objects. The state is flat
/// and its plists are shared copy-on-write between clones (see the
/// [module docs](self)), so [`Clone`] is O(skyline) and the clones never
/// observe each other's changes.
///
/// The maintainer does not hold a borrow of the tree: the methods that
/// traverse pages take the node source per call, so the same maintainer
/// state can be driven through a bare `&RTree` or a run-scoped
/// [`mpq_rtree::IoSession`] owned alongside it. Callers must pass a
/// source backed by the same tree across calls (page ids recorded in the
/// plists are meaningless in any other tree).
pub struct SkylineMaintainer {
    members: Members,
    heap: BinaryHeap<Candidate>,
    /// Corners of the heap's candidates, stride `dim`, indexed by
    /// [`Candidate::slot`]; cleared whenever the heap drains.
    arena: Vec<f64>,
    /// Plists of the objects being removed, held while their entries
    /// are re-homed (kept to reuse its allocation).
    orphans: Vec<Arc<PList>>,
    /// Objects that entered the skyline since the last [`Self::remove`]
    /// call drained it (promotions only).
    entered: Vec<u64>,
    stats: SkylineStats,
}

/// Snapshotting support for seeded evaluation: between calls the
/// candidate heap is always drained (every public mutator ends in the
/// internal BBS drain), so a clone only has to copy the members — never
/// in-flight heap entries. The plists are shared copy-on-write, so the
/// copy is O(skyline).
impl Clone for SkylineMaintainer {
    fn clone(&self) -> SkylineMaintainer {
        debug_assert!(
            self.heap.is_empty(),
            "maintainer cloned with a non-drained candidate heap"
        );
        SkylineMaintainer {
            members: self.members.clone(),
            heap: BinaryHeap::new(),
            arena: Vec::new(),
            orphans: Vec::new(),
            entered: self.entered.clone(),
            stats: self.stats,
        }
    }
}

impl SkylineMaintainer {
    /// Compute the initial skyline of the whole tree (BBS), recording
    /// pruned entries for later maintenance.
    pub fn build<R: NodeSource>(tree: &R) -> SkylineMaintainer {
        let dim = tree.dim();
        let mut m = SkylineMaintainer {
            members: Members::new(dim),
            heap: BinaryHeap::new(),
            arena: Vec::new(),
            orphans: Vec::new(),
            entered: Vec::new(),
            stats: SkylineStats::default(),
        };
        m.arena.resize(dim, 1.0);
        m.heap.push(Candidate {
            key: mindist_to_best(&m.arena),
            id: EntryId::Subtree(tree.root_page()),
            slot: 0,
        });
        m.run(tree);
        m.members.rebuild();
        m.entered.clear(); // build's "entries" are the initial skyline
        m
    }

    /// Number of current skyline objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.alive
    }

    /// True iff the skyline is empty (the object set is exhausted).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.alive == 0
    }

    /// True iff `oid` is currently a skyline object.
    pub fn contains(&self, oid: u64) -> bool {
        self.members.by_oid.contains_key(&oid)
    }

    /// The attribute vector of skyline object `oid`, if present.
    pub fn get(&self, oid: u64) -> Option<&[f64]> {
        self.members.point_of(oid)
    }

    /// Iterate over the current skyline, in promotion order. Use
    /// [`SkylineMaintainer::len`] for the count.
    pub fn iter(&self) -> impl Iterator<Item = SkylineEntry<'_>> + '_ {
        let members = &self.members;
        members.slab.iter().filter_map(move |slot| {
            slot.as_ref().map(|m| SkylineEntry {
                oid: m.oid,
                point: members.row(m.row),
            })
        })
    }

    /// Work counters accumulated since construction.
    pub fn stats(&self) -> SkylineStats {
        self.stats
    }

    /// Remove assigned skyline objects and restore the skyline property
    /// over the remaining set, reading any newly undominated pages
    /// through `tree`. Returns the objects *promoted into* the skyline
    /// by this removal (in promotion order).
    ///
    /// # Panics
    /// Panics if any of the `oids` is not currently in the skyline —
    /// removing a non-skyline object through the maintainer is a logic
    /// error in the caller (the SB algorithm only assigns skyline
    /// objects).
    pub fn remove<R: NodeSource>(&mut self, oids: &[u64], tree: &R) -> Vec<(u64, Box<[f64]>)> {
        let mut orphans = std::mem::take(&mut self.orphans);
        for &oid in oids {
            orphans.push(self.members.remove(oid).1);
        }

        // Re-home entries still dominated by a surviving skyline object;
        // the rest become candidates (the paper's `Scand`). The orphaned
        // plists are read in place, even when a snapshot shares them.
        let dim = self.members.dim;
        for plist in orphans.drain(..) {
            for (id, hi) in plist.iter(dim) {
                let checks = &mut self.stats.dominance_checks;
                if let Some(owner) = self.members.find_dominator(hi, checks) {
                    self.stats.entries_rehomed += 1;
                    self.members.adopt(owner, id, hi);
                } else {
                    self.stats.entries_reheaped += 1;
                    self.push_candidate(id, hi);
                }
            }
        }
        self.orphans = orphans;

        self.run(tree);
        let members = &self.members;
        self.entered
            .drain(..)
            .map(|oid| {
                let point = members.point_of(oid).expect("promoted this call");
                (oid, point.into())
            })
            .collect()
    }

    /// Re-admit a previously removed object without touching the tree.
    ///
    /// This is the inverse of [`SkylineMaintainer::remove`] for seeded
    /// evaluation: an object peeled for one request's exclusion set
    /// comes back when the next request no longer excludes it. If a
    /// live skyline object dominates (or equals) the point it is
    /// recorded in that owner's plist; otherwise it is promoted and
    /// every live member it now dominates is demoted into its plist
    /// (along with their own plists). Purely in-memory — no pages are
    /// read — and it does not log to the promotion journal drained by
    /// [`SkylineMaintainer::remove`].
    ///
    /// # Panics
    /// Panics if `oid` is already in the skyline.
    pub fn insert(&mut self, oid: u64, point: &[f64]) {
        assert!(
            !self.contains(oid),
            "object {oid} is already in the skyline"
        );
        debug_assert!(self.heap.is_empty());
        let checks = &mut self.stats.dominance_checks;
        if let Some(owner) = self.members.find_dominator(point, checks) {
            self.stats.entries_pruned += 1;
            self.members.adopt(owner, EntryId::Point(oid), point);
            return;
        }
        // Nobody dominates-or-equals the point, so no live member can
        // be coordinate-equal to it: everything it dominates-or-equals
        // is strictly beneath it and must leave the skyline.
        let mut plist = PList::default();
        for idx in 0..self.members.slab.len() {
            let Some(m) = self.members.slab[idx].as_ref() else {
                continue;
            };
            self.stats.dominance_checks += 1;
            if dominates_or_equal(point, self.members.row(m.row)) {
                let demoted = m.oid;
                let (row, owned) = self.members.remove(demoted);
                plist.push(EntryId::Point(demoted), self.members.row(row));
                plist.append(&owned);
                self.stats.entries_pruned += 1;
            }
        }
        self.stats.points_promoted += 1;
        self.members.promote(oid, point, plist);
    }

    /// Approximate heap footprint of the maintained state (members,
    /// plists, lookup map), for cache byte accounting of snapshots.
    /// O(1): the plist part comes from running totals. Shared plists
    /// are charged in full to every holder.
    pub fn approx_bytes(&self) -> usize {
        let m = &self.members;
        std::mem::size_of::<SkylineMaintainer>()
            + m.slab.capacity() * std::mem::size_of::<Option<Member>>()
            + (m.pts.capacity() + m.sums.capacity()) * std::mem::size_of::<f64>()
            + m.owners.capacity() * std::mem::size_of::<u32>()
            + m.live.capacity()
            + m.by_oid.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<usize>())
            + m.plist_slots * ENTRY_CHARGE
            + m.plist_entries * m.dim * std::mem::size_of::<f64>()
    }

    /// Queue an entry in the candidate heap, its corner in the arena.
    fn push_candidate(&mut self, id: EntryId, hi: &[f64]) {
        let slot = (self.arena.len() / self.members.dim) as u32;
        self.arena.extend_from_slice(hi);
        self.heap.push(Candidate {
            key: mindist_to_best(hi),
            id,
            slot,
        });
    }

    /// Prune an entry into its first dominator's plist, or queue it.
    fn admit(&mut self, id: EntryId, hi: &[f64]) {
        let checks = &mut self.stats.dominance_checks;
        if let Some(owner) = self.members.find_dominator(hi, checks) {
            self.stats.entries_pruned += 1;
            self.members.adopt(owner, id, hi);
        } else {
            self.push_candidate(id, hi);
        }
    }

    /// Drain the candidate heap: standard BBS with plist recording.
    fn run<R: NodeSource>(&mut self, tree: &R) {
        let dim = self.members.dim;
        while let Some(c) = self.heap.pop() {
            let at = c.slot as usize * dim;
            let hi = &self.arena[at..at + dim];
            let checks = &mut self.stats.dominance_checks;
            if let Some(owner) = self.members.find_dominator(hi, checks) {
                self.stats.entries_pruned += 1;
                self.members.adopt(owner, c.id, hi);
                continue;
            }
            match c.id {
                EntryId::Point(oid) => {
                    self.stats.points_promoted += 1;
                    self.members.promote(oid, hi, PList::default());
                    self.entered.push(oid);
                }
                EntryId::Subtree(pid) => {
                    let node = tree.read_node(pid);
                    self.stats.nodes_expanded += 1;
                    self.expand(&node);
                }
            }
        }
        self.arena.clear();
    }

    /// Admit a node's children: prune what the current skyline already
    /// dominates (with plist recording), queue the rest.
    fn expand(&mut self, node: &Node) {
        match node {
            Node::Leaf(leaf) => {
                for (oid, p) in leaf.iter() {
                    self.admit(EntryId::Point(oid), p);
                }
            }
            Node::Inner(inner) => {
                for i in 0..inner.len() {
                    self.admit(EntryId::Subtree(inner.child(i)), inner.hi(i));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_skyline_excluding;
    use mpq_rtree::{PointSet, RTree, RTreeParams};
    use std::collections::HashSet;

    fn params() -> RTreeParams {
        RTreeParams {
            page_size: 256,
            min_fill_ratio: 0.4,
            buffer_capacity: 4096,
        }
    }

    fn seeded_points(n: usize, dim: usize, seed: u64) -> PointSet {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut ps = PointSet::with_capacity(dim, n);
        for _ in 0..n {
            let p: Vec<f64> = (0..dim).map(|_| next()).collect();
            ps.push(&p);
        }
        ps
    }

    fn sky_ids(m: &SkylineMaintainer) -> Vec<u64> {
        let mut v: Vec<u64> = m.iter().map(|e| e.oid).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn initial_skyline_matches_naive() {
        for seed in [1, 2, 3] {
            for dim in [2, 3, 4] {
                let ps = seeded_points(400, dim, seed);
                let tree = RTree::bulk_load(&ps, params());
                let m = SkylineMaintainer::build(&tree);
                let expect = naive_skyline_excluding(&ps, &HashSet::new());
                assert_eq!(sky_ids(&m), expect, "seed {seed} dim {dim}");
                assert_eq!(m.len(), expect.len());
            }
        }
    }

    #[test]
    fn maintenance_tracks_naive_through_removals() {
        let ps = seeded_points(600, 3, 9);
        let tree = RTree::bulk_load(&ps, params());
        let mut m = SkylineMaintainer::build(&tree);
        let mut removed: HashSet<u64> = HashSet::new();
        // repeatedly remove the first two skyline objects
        for round in 0..60 {
            let victims: Vec<u64> = m.iter().take(2).map(|e| e.oid).collect();
            if victims.is_empty() {
                break;
            }
            for &v in &victims {
                removed.insert(v);
            }
            m.remove(&victims, &tree);
            let expect = naive_skyline_excluding(&ps, &removed);
            assert_eq!(sky_ids(&m), expect, "round {round}");
        }
    }

    #[test]
    fn remove_returns_exactly_the_promotions() {
        let ps = seeded_points(500, 2, 4);
        let tree = RTree::bulk_load(&ps, params());
        let mut m = SkylineMaintainer::build(&tree);
        let before: HashSet<u64> = m.iter().map(|e| e.oid).collect();
        let victim = m.iter().next().unwrap().oid;
        let promoted = m.remove(&[victim], &tree);
        let after: HashSet<u64> = m.iter().map(|e| e.oid).collect();
        let mut expected_new: Vec<u64> = after.difference(&before).copied().collect();
        expected_new.sort_unstable();
        let mut got_new: Vec<u64> = promoted.iter().map(|(o, _)| *o).collect();
        got_new.sort_unstable();
        assert_eq!(got_new, expected_new);
        // promoted points carry correct coordinates
        for (oid, p) in &promoted {
            assert_eq!(&**p, ps.get(*oid as usize));
        }
    }

    #[test]
    fn duplicates_keep_one_representative() {
        let mut ps = PointSet::new(2);
        ps.push(&[0.9, 0.9]);
        ps.push(&[0.9, 0.9]);
        ps.push(&[0.9, 0.9]);
        ps.push(&[0.1, 0.1]);
        let tree = RTree::bulk_load(&ps, params());
        let mut m = SkylineMaintainer::build(&tree);
        assert_eq!(m.len(), 1, "duplicates must collapse to one skyline object");
        // removing the representative promotes the next duplicate
        let rep = m.iter().next().unwrap().oid;
        m.remove(&[rep], &tree);
        assert_eq!(m.len(), 1);
        assert!(!m.contains(rep));
        // removing both remaining duplicates exposes the dominated point
        let rep2 = m.iter().next().unwrap().oid;
        m.remove(&[rep2], &tree);
        let rep3 = m.iter().next().unwrap().oid;
        m.remove(&[rep3], &tree);
        assert_eq!(sky_ids(&m), vec![3]);
    }

    #[test]
    fn exhausting_the_skyline_empties_the_set() {
        let ps = seeded_points(120, 2, 6);
        let tree = RTree::bulk_load(&ps, params());
        let mut m = SkylineMaintainer::build(&tree);
        let mut total = 0usize;
        while !m.is_empty() {
            let victim = m.iter().next().unwrap().oid;
            m.remove(&[victim], &tree);
            total += 1;
            assert!(total <= 120, "more removals than objects");
        }
        assert_eq!(total, 120, "every object must eventually surface");
    }

    #[test]
    #[should_panic(expected = "not in the skyline")]
    fn removing_non_skyline_object_panics() {
        let ps = seeded_points(50, 2, 10);
        let tree = RTree::bulk_load(&ps, params());
        let mut m = SkylineMaintainer::build(&tree);
        m.remove(&[u64::MAX], &tree);
    }

    #[test]
    fn multi_removal_equals_sequential_removals() {
        let ps = seeded_points(400, 3, 12);
        let tree = RTree::bulk_load(&ps, params());
        let mut a = SkylineMaintainer::build(&tree);

        let tree2 = RTree::bulk_load(&ps, params());
        let mut b = SkylineMaintainer::build(&tree2);

        let victims: Vec<u64> = a.iter().take(3).map(|e| e.oid).collect();
        a.remove(&victims, &tree);
        for &v in &victims {
            b.remove(&[v], &tree2);
        }
        assert_eq!(sky_ids(&a), sky_ids(&b));
    }

    #[test]
    fn incremental_maintenance_reads_less_than_recompute() {
        use crate::bbs::compute_skyline_excluding;
        let ps = seeded_points(4000, 3, 33);
        let tree = RTree::bulk_load(&ps, params());
        let mut m = SkylineMaintainer::build(&tree);

        // Remove 20 skyline objects one at a time, totaling the
        // incremental maintenance cost (in logical accesses, which are
        // buffer-independent).
        let mut removed: HashSet<u64> = HashSet::new();
        tree.reset_io_stats();
        for _ in 0..20 {
            let victim = m.iter().next().unwrap().oid;
            removed.insert(victim);
            m.remove(&[victim], &tree);
        }
        let maint_logical = tree.io_stats().logical;

        // The alternative the paper rejects: recompute BBS from scratch
        // after each removal. Measure just the final recompute — a single
        // from-scratch pass already dwarfs all 20 incremental updates.
        tree.reset_io_stats();
        let _ = compute_skyline_excluding(&tree, |o| removed.contains(&o));
        let recompute_logical = tree.io_stats().logical;

        assert!(
            maint_logical < recompute_logical,
            "20 incremental updates ({maint_logical} accesses) should cost less than \
             one from-scratch recompute ({recompute_logical} accesses)"
        );
    }

    #[test]
    fn insert_reverses_remove_to_the_same_skyline_content() {
        let ps = seeded_points(600, 3, 21);
        let tree = RTree::bulk_load(&ps, params());
        let mut m = SkylineMaintainer::build(&tree);
        let reference = sky_ids(&m);
        // Remove five skyline members, then re-admit them in a
        // different order: the skyline content must round-trip.
        let victims: Vec<(u64, Box<[f64]>)> =
            m.iter().take(5).map(|e| (e.oid, e.point.into())).collect();
        let oids: Vec<u64> = victims.iter().map(|(o, _)| *o).collect();
        m.remove(&oids, &tree);
        assert_ne!(sky_ids(&m), reference);
        for (oid, point) in victims.into_iter().rev() {
            m.insert(oid, &point);
        }
        assert_eq!(sky_ids(&m), reference);
        // The round-tripped state keeps maintaining correctly.
        let mut removed: HashSet<u64> = HashSet::new();
        for _ in 0..10 {
            let victim = m.iter().next().unwrap().oid;
            removed.insert(victim);
            m.remove(&[victim], &tree);
            assert_eq!(sky_ids(&m), naive_skyline_excluding(&ps, &removed));
        }
    }

    #[test]
    fn insert_of_a_dominated_point_stays_hidden_until_its_owner_leaves() {
        let mut ps = PointSet::new(2);
        ps.push(&[0.9, 0.9]); // 0: dominates everything
        ps.push(&[0.5, 0.5]); // 1
        let tree = RTree::bulk_load(&ps, params());
        let mut m = SkylineMaintainer::build(&tree);
        assert_eq!(sky_ids(&m), vec![0]);
        // Peel the dominated point's representative path: remove 0,
        // which surfaces 1, remove 1, then re-admit it.
        m.remove(&[0], &tree);
        assert_eq!(sky_ids(&m), vec![1]);
        m.remove(&[1], &tree);
        assert!(m.is_empty());
        m.insert(0, &[0.9, 0.9]);
        assert_eq!(sky_ids(&m), vec![0]);
        // A dominated insert hides in the dominator's plist ...
        m.insert(1, &[0.5, 0.5]);
        assert_eq!(sky_ids(&m), vec![0]);
        // ... and resurfaces when that owner is removed.
        m.remove(&[0], &tree);
        assert_eq!(sky_ids(&m), vec![1]);
    }

    #[test]
    fn clone_snapshots_diverge_independently() {
        let ps = seeded_points(400, 3, 7);
        let tree = RTree::bulk_load(&ps, params());
        let mut a = SkylineMaintainer::build(&tree);
        let baseline = sky_ids(&a);
        let mut b = a.clone();
        assert_eq!(sky_ids(&b), baseline);
        assert!(b.approx_bytes() > 0);

        // Mutating the clone leaves the original untouched, and both
        // keep tracking the naive skyline through further removals.
        let victim = b.iter().next().unwrap().oid;
        b.remove(&[victim], &tree);
        assert_eq!(sky_ids(&a), baseline);
        let mut removed = HashSet::new();
        removed.insert(victim);
        assert_eq!(sky_ids(&b), naive_skyline_excluding(&ps, &removed));

        let victim_a = a.iter().nth(1).unwrap().oid;
        a.remove(&[victim_a], &tree);
        let mut removed_a = HashSet::new();
        removed_a.insert(victim_a);
        assert_eq!(sky_ids(&a), naive_skyline_excluding(&ps, &removed_a));
    }

    #[test]
    #[should_panic(expected = "already in the skyline")]
    fn inserting_a_live_member_panics() {
        let ps = seeded_points(50, 2, 3);
        let tree = RTree::bulk_load(&ps, params());
        let mut m = SkylineMaintainer::build(&tree);
        let live = m.iter().next().unwrap().oid;
        let point: Box<[f64]> = m.get(live).unwrap().into();
        m.insert(live, &point);
    }

    #[test]
    fn anticorrelated_line_is_all_skyline() {
        // points on the anti-diagonal dominate nothing pairwise
        let mut ps = PointSet::new(2);
        for i in 0..50 {
            let x = i as f64 / 49.0;
            ps.push(&[x, 1.0 - x]);
        }
        let tree = RTree::bulk_load(&ps, params());
        let m = SkylineMaintainer::build(&tree);
        assert_eq!(m.len(), 50);
    }

    #[test]
    fn heavy_churn_keeps_order_index_consistent() {
        // stress the rebuild policy: interleave removals and promotions
        let ps = seeded_points(2000, 3, 55);
        let tree = RTree::bulk_load(&ps, params());
        let mut m = SkylineMaintainer::build(&tree);
        let mut removed: HashSet<u64> = HashSet::new();
        for round in 0..40 {
            let victims: Vec<u64> = m.iter().take(5).map(|e| e.oid).collect();
            if victims.is_empty() {
                break;
            }
            for &v in &victims {
                removed.insert(v);
            }
            m.remove(&victims, &tree);
            if round % 10 == 0 {
                assert_eq!(
                    sky_ids(&m),
                    naive_skyline_excluding(&ps, &removed),
                    "round {round}"
                );
            }
        }
    }
}
