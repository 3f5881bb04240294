//! A from-scratch `d`-dimensional R-tree over points: one Sort-Tile-Recursive
//! packed arena plus a small run of pending inserts.
//!
//! The paper indexes top-k query points with "multidimensional data
//! structures such as R-tree \[10\] or X-tree \[3\]" (§4). The query index is
//! bulk-loaded once and then takes only the incremental inserts and removes
//! of §4.3, so the tree has a single representation:
//!
//! * a **packed arena** built by STR: nodes in one flat `Vec` (a node's
//!   children are contiguous), entries in a second `Vec` grouped by leaf;
//! * a **pending run** of inserts not yet packed, scanned after the arena;
//! * **tombstones**: a removed packed entry leaves an empty slot behind.
//!
//! Once pending inserts plus tombstones exceed `max(node capacity, live/4)`
//! the tree re-packs itself with STR. Every read answers exactly as an
//! [`RTree::bulk`] of the live entries would (same sets, same distances).
//!
//! The access paths improvement-query processing needs:
//!
//! * [`RTree::search_box`] — classic window queries;
//! * [`RTree::search_slab`] — retrieval of query points inside an *affected
//!   subspace* (the region between the pre- and post-improvement
//!   intersection hyperplanes, Eqs. 4–5), pruning whole subtrees whose MBR
//!   provably cannot contain a sign flip;
//! * [`RTree::nearest_k`] — kNN search used by the incremental update rule
//!   of §4.3 ("use the subdomains of the k nearest neighbours as candidate
//!   subdomains of a new query point").

use iq_geometry::{BoundingBox, FlatMatrix, Slab};
use std::collections::BinaryHeap;
use std::ops::Range;

/// Default maximum number of entries per node.
pub const DEFAULT_MAX_ENTRIES: usize = 16;

/// A stored point with its payload, as a read hands it out: the point is
/// borrowed from the tree's coordinate buffer.
#[derive(Debug, Clone, Copy)]
pub struct Entry<'a, T> {
    /// Coordinates of the indexed point.
    pub point: &'a [f64],
    /// Caller payload (typically a query id).
    pub data: T,
}

/// An arena node: `start..end` indexes into `nodes` for internal nodes and
/// into `slots` for leaves.
#[derive(Debug, Clone)]
struct ArenaNode {
    bbox: BoundingBox,
    start: u32,
    end: u32,
    leaf: bool,
}

/// An R-tree over `d`-dimensional points with payloads of type `T`.
///
/// Points live in two flat coordinate buffers, one row per point: the
/// packed slots in leaf order and the pending run in insertion order. No
/// point owns an allocation.
#[derive(Debug, Clone)]
pub struct RTree<T> {
    dim: usize,
    max_entries: usize,
    /// Packed nodes; index 0 is the root. Empty when nothing is packed.
    nodes: Vec<ArenaNode>,
    /// Packed points, row `i` belonging to slot `i`.
    coords: FlatMatrix,
    /// Packed payloads grouped by leaf; `None` is a tombstone.
    slots: Vec<Option<T>>,
    tombstones: usize,
    /// Points inserted since the last pack, in insertion order.
    pending_coords: FlatMatrix,
    /// Their payloads, row for row.
    pending: Vec<T>,
    len: usize,
}

impl<T: Copy> RTree<T> {
    /// Creates an empty tree for points of dimension `dim` with the default
    /// node capacity.
    pub fn new(dim: usize) -> Self {
        Self::with_capacity(dim, DEFAULT_MAX_ENTRIES)
    }

    /// Creates an empty tree with a custom node capacity (`max_entries ≥ 4`).
    pub fn with_capacity(dim: usize, max_entries: usize) -> Self {
        assert!(max_entries >= 4, "R-tree node capacity must be at least 4");
        assert!(dim > 0, "R-tree dimension must be positive");
        RTree {
            dim,
            max_entries,
            nodes: Vec::new(),
            coords: FlatMatrix::new(dim),
            slots: Vec::new(),
            tombstones: 0,
            pending_coords: FlatMatrix::new(dim),
            pending: Vec::new(),
            len: 0,
        }
    }

    /// Bulk-builds a packed tree with Sort-Tile-Recursive packing: at each
    /// level the points are sorted along the widest-spread axis and cut into
    /// evenly sized runs of capacity `max^(h-1)`, which yields uniform leaf
    /// depth and at-least-half-full nodes by construction.
    ///
    /// # Panics
    /// Panics if a point's dimensionality is not `dim`.
    pub fn bulk<'p>(dim: usize, items: impl IntoIterator<Item = (&'p [f64], T)>) -> Self {
        let mut tree = Self::new(dim);
        let mut points = FlatMatrix::new(dim);
        let mut data = Vec::new();
        for (point, d) in items {
            points.push_row(point);
            data.push(d);
        }
        tree.pack_entries(&points, &data);
        tree
    }

    /// Re-packs the live entries with STR now, folding in every pending
    /// insert and dropping every tombstone. Reads answer the same either
    /// way; the tree also does this by itself once its pending run grows.
    pub fn pack(&mut self) {
        if !self.is_packed() {
            let mut points = FlatMatrix::new(self.dim);
            let mut data = Vec::with_capacity(self.len);
            for e in self.iter() {
                points.push_row(e.point);
                data.push(e.data);
            }
            self.pack_entries(&points, &data);
        }
    }

    /// Whether nothing is pending: no unpacked insert and no tombstone.
    pub fn is_packed(&self) -> bool {
        self.pending.is_empty() && self.tombstones == 0
    }

    /// Replaces the whole tree by an STR packing of `points` (row `i`
    /// carrying `data[i]`).
    fn pack_entries(&mut self, points: &FlatMatrix, data: &[T]) {
        let n = data.len();
        self.len = n;
        self.nodes.clear();
        self.coords = FlatMatrix::new(self.dim);
        self.slots = Vec::with_capacity(n);
        self.tombstones = 0;
        self.pending_coords = FlatMatrix::new(self.dim);
        self.pending.clear();
        if n == 0 {
            return;
        }
        // Smallest height whose capacity max^h covers every entry.
        let mut height = 1usize;
        let mut cap = self.max_entries;
        while cap < n {
            cap *= self.max_entries;
            height += 1;
        }
        // An unfilled root; a zero-dimensional box does not allocate.
        self.nodes.push(ArenaNode {
            bbox: BoundingBox::empty(0),
            start: 0,
            end: 0,
            leaf: true,
        });
        let overflow = "R-tree arena index overflow";
        let mut order: Vec<u32> = (0..u32::try_from(n).expect(overflow)).collect();
        self.str_fill(0, points, data, &mut order, height);
    }

    /// Sort-Tile-Recursive packing of the points `items` (row ids into
    /// `points`) into node `idx` at an explicit target height: sort along
    /// the widest-spread axis, cut into `ceil(n / max^(height-1))` even
    /// runs, and recurse per run. Even cuts keep every node at least half
    /// full and every leaf at the same depth (see DESIGN.md §9). The sort
    /// is stable, so equal coordinates keep their input order.
    fn str_fill(
        &mut self,
        idx: usize,
        points: &FlatMatrix,
        data: &[T],
        items: &mut [u32],
        height: usize,
    ) {
        let mut bbox = BoundingBox::empty(self.dim);
        let (start, end) = if height == 1 {
            debug_assert!(items.len() <= self.max_entries);
            let start = self.slots.len();
            for &i in items.iter() {
                let point = points.row(i as usize);
                bbox.merge_point(point);
                self.coords.push_row(point);
                self.slots.push(Some(data[i as usize]));
            }
            (start, self.slots.len())
        } else {
            let n = items.len();
            let children = n.div_ceil(self.max_entries.pow(height as u32 - 1));
            debug_assert!((2..=self.max_entries).contains(&children));
            let axis = widest_axis(points, items);
            items.sort_by(|&a, &b| {
                points.row(a as usize)[axis].total_cmp(&points.row(b as usize)[axis])
            });
            let start = self.nodes.len();
            // Node `idx` is still unfilled: clone it as the children's
            // placeholders.
            let unfilled = self.nodes[idx].clone();
            self.nodes.resize(start + children, unfilled);
            let mut rest = items;
            for i in 0..children {
                let take = n / children + usize::from(i < n % children);
                let (group, tail) = rest.split_at_mut(take);
                rest = tail;
                self.str_fill(start + i, points, data, group, height - 1);
                bbox.merge(&self.nodes[start + i].bbox);
            }
            (start, start + children)
        };
        let overflow = "R-tree arena index overflow";
        self.nodes[idx] = ArenaNode {
            bbox,
            start: u32::try_from(start).expect(overflow),
            end: u32::try_from(end).expect(overflow),
            leaf: height == 1,
        };
    }

    /// The compaction rule: the tree re-packs once pending inserts plus
    /// tombstones exceed `max(node capacity, live / 4)`. Reads scan the
    /// pending run linearly, so this bounds the unindexed work to a quarter
    /// of the tree; the re-pack cost amortizes over the writes that
    /// triggered it.
    fn pending_limit(&self) -> usize {
        self.max_entries.max(self.len / 4)
    }

    fn compact_if_due(&mut self) {
        if self.pending.len() + self.tombstones > self.pending_limit() {
            self.pack();
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree stores nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of the indexed points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Height of the packed arena (a single leaf root has height 1).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut i = 0usize;
        while !self.nodes.is_empty() && !self.nodes[i].leaf {
            h += 1;
            i = self.nodes[i].start as usize;
        }
        h
    }

    /// Rough in-memory footprint in bytes, used by the index-size
    /// experiments (Figs. 4b, 5b, 6b).
    pub fn size_bytes(&self) -> usize {
        self.nodes.len() * (std::mem::size_of::<ArenaNode>() + self.dim * 16)
            + (self.slots.len() + self.pending.len()) * (self.dim * 8 + std::mem::size_of::<T>())
    }

    /// Inserts a copy of `point` with its payload into the pending run.
    ///
    /// # Panics
    /// Panics if the point's dimensionality does not match the tree's.
    pub fn insert(&mut self, point: &[f64], data: T) {
        assert_eq!(point.len(), self.dim, "point dimension mismatch");
        self.pending_coords.push_row(point);
        self.pending.push(data);
        self.len += 1;
        self.compact_if_due();
    }

    /// Removes one entry at `point` whose payload satisfies `pred`: a
    /// pending entry is dropped, a packed one tombstoned. Returns the
    /// removed payload, or `None` if nothing matched.
    pub fn remove(&mut self, point: &[f64], pred: impl Fn(&T) -> bool) -> Option<T> {
        assert_eq!(point.len(), self.dim, "point dimension mismatch");
        let pending = (0..self.pending.len())
            .find(|&i| self.pending_coords.row(i) == point && pred(&self.pending[i]));
        let removed = if let Some(i) = pending {
            self.pending_coords.swap_remove_row(i);
            self.pending.swap_remove(i)
        } else {
            let slot = self
                .leaves(|b| b.contains_point(point))
                .flatten()
                .find(|&i| {
                    self.slots[i].as_ref().is_some_and(&pred) && self.coords.row(i) == point
                })?;
            self.tombstones += 1;
            self.slots[slot].take()?
        };
        self.len -= 1;
        self.compact_if_due();
        Some(removed)
    }

    /// Pruned depth-first walk of the packed arena: descends into children
    /// whose bbox passes `enter` (the root is never tested) and yields each
    /// surviving leaf's slot range, in child order.
    fn leaves<'s, F: Fn(&BoundingBox) -> bool>(
        &'s self,
        enter: F,
    ) -> impl Iterator<Item = Range<usize>> + use<'s, T, F> {
        // The root is held outside the stack so that a single-leaf tree
        // walks without allocating.
        let mut root = (!self.nodes.is_empty()).then_some(0u32);
        let mut stack: Vec<u32> = Vec::new();
        std::iter::from_fn(move || loop {
            let node = &self.nodes[root.take().or_else(|| stack.pop())? as usize];
            if node.leaf {
                return Some(node.start as usize..node.end as usize);
            }
            for ci in (node.start..node.end).rev() {
                if enter(&self.nodes[ci as usize].bbox) {
                    stack.push(ci);
                }
            }
        })
    }

    /// The live packed entries of a slot range.
    fn live(&self, range: Range<usize>) -> impl Iterator<Item = Entry<'_, T>> {
        range.filter_map(|i| {
            self.slots[i].map(|data| Entry {
                point: self.coords.row(i),
                data,
            })
        })
    }

    /// The pending run, in insertion order.
    fn pending_entries(&self) -> impl Iterator<Item = Entry<'_, T>> {
        self.pending_coords
            .iter_rows()
            .zip(&self.pending)
            .map(|(point, &data)| Entry { point, data })
    }

    /// Visits every live entry whose point passes `keep`, packed leaves
    /// first (pruned by `enter`), then the pending run.
    fn visit_where<'a>(
        &'a self,
        enter: impl Fn(&BoundingBox) -> bool,
        keep: impl Fn(&[f64]) -> bool,
        visit: &mut impl FnMut(Entry<'a, T>),
    ) {
        for range in self.leaves(enter) {
            for e in self.live(range) {
                if keep(e.point) {
                    visit(e);
                }
            }
        }
        for e in self.pending_entries() {
            if keep(e.point) {
                visit(e);
            }
        }
    }

    /// Collects every entry whose point lies inside `window`.
    pub fn search_box(&self, window: &BoundingBox) -> Vec<Entry<'_, T>> {
        let mut out = Vec::new();
        self.visit_box(window, &mut |e| out.push(e));
        out
    }

    /// Visitor-style window query (no intermediate allocation).
    pub fn visit_box<'a>(&'a self, window: &BoundingBox, visit: &mut impl FnMut(Entry<'a, T>)) {
        self.visit_where(
            |b| window.intersects(b),
            |p| window.contains_point(p),
            visit,
        );
    }

    /// Collects every entry inside the affected subspace described by
    /// `slab`, pruning subtrees whose MBR is provably sign-stable.
    pub fn search_slab(&self, slab: &Slab) -> Vec<Entry<'_, T>> {
        let mut out = Vec::new();
        self.visit_slab(slab, &mut |e| out.push(e));
        out
    }

    /// Visitor-style affected-subspace query.
    pub fn visit_slab<'a>(&'a self, slab: &Slab, visit: &mut impl FnMut(Entry<'a, T>)) {
        self.visit_where(|b| !b.disjoint_from_slab(slab), |p| slab.contains(p), visit);
    }

    /// Tolerance-widened affected-subspace query: entries within `tol` of
    /// either slab boundary are also visited (their hit status may hinge on
    /// an id tie-break rather than the sign of the form).
    pub fn visit_slab_tol<'a>(
        &'a self,
        slab: &Slab,
        tol: f64,
        visit: &mut impl FnMut(Entry<'a, T>),
    ) {
        self.visit_where(
            |b| !b.disjoint_from_slab_tol(slab, tol),
            |p| slab.contains_tol(p, tol),
            visit,
        );
    }

    /// The `k` entries nearest to `q` by Euclidean distance, closest first.
    /// Returns fewer than `k` when the tree is smaller. The order among
    /// exactly equal distances is unspecified.
    pub fn nearest_k(&self, q: &[f64], k: usize) -> Vec<(Entry<'_, T>, f64)> {
        assert_eq!(q.len(), self.dim, "query dimension mismatch");
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        // Best-first search over nodes and entries ordered by min distance.
        enum Item<'a, T> {
            Node(u32),
            Entry(Entry<'a, T>),
        }
        struct Pq<'a, T> {
            dist: f64,
            item: Item<'a, T>,
        }
        impl<T> PartialEq for Pq<'_, T> {
            fn eq(&self, other: &Self) -> bool {
                self.dist == other.dist
            }
        }
        impl<T> Eq for Pq<'_, T> {}
        impl<T> PartialOrd for Pq<'_, T> {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl<T> Ord for Pq<'_, T> {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Min-heap via reversed comparison; NaN-free by construction.
                other.dist.total_cmp(&self.dist)
            }
        }

        fn entry<'a, T>(q: &[f64], e: Entry<'a, T>) -> Pq<'a, T> {
            Pq {
                dist: iq_geometry::vector::dist_sq(q, e.point),
                item: Item::Entry(e),
            }
        }

        let mut heap: BinaryHeap<Pq<'_, T>> = self.pending_entries().map(|e| entry(q, e)).collect();
        if !self.nodes.is_empty() {
            heap.push(Pq {
                dist: 0.0,
                item: Item::Node(0),
            });
        }
        let mut out = Vec::with_capacity(k);
        while let Some(Pq { dist, item }) = heap.pop() {
            match item {
                Item::Entry(e) => {
                    out.push((e, dist.sqrt()));
                    if out.len() == k {
                        break;
                    }
                }
                Item::Node(i) => {
                    let node = &self.nodes[i as usize];
                    if node.leaf {
                        let range = node.start as usize..node.end as usize;
                        heap.extend(self.live(range).map(|e| entry(q, e)));
                    } else {
                        for ci in node.start..node.end {
                            heap.push(Pq {
                                dist: self.nodes[ci as usize].bbox.min_dist_sq(q),
                                item: Item::Node(ci),
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// Iterates over every live entry: packed leaves in order, then the
    /// pending run.
    pub fn iter(&self) -> impl Iterator<Item = Entry<'_, T>> {
        self.live(0..self.slots.len()).chain(self.pending_entries())
    }

    /// Structural invariant checks, used by tests: MBRs cover children,
    /// leaves at uniform depth, node occupancy within bounds, the live,
    /// tombstone and pending counts agree with the stored ones, and the
    /// compaction rule holds.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Returns (slot count, actual bbox of live entries) so parents can
        // verify their stored MBR covers the contents.
        fn rec<T: Copy>(
            t: &RTree<T>,
            idx: usize,
            depth: usize,
            leaf_depth: &mut Option<usize>,
        ) -> Result<(usize, BoundingBox), String> {
            let node = &t.nodes[idx];
            let n = (node.end - node.start) as usize;
            // Index 0 is the root, exempt from the minimum fill.
            if idx != 0 && n < t.max_entries / 2 {
                return Err(format!("node underfull: {n} < {}", t.max_entries / 2));
            }
            if n > t.max_entries {
                return Err(format!("node overfull: {n} > {}", t.max_entries));
            }
            let mut actual = BoundingBox::empty(t.dim);
            if node.leaf {
                match leaf_depth {
                    Some(d) if *d != depth => {
                        return Err(format!("leaf at depth {depth}, expected {d}"))
                    }
                    _ => *leaf_depth = Some(depth),
                }
                for e in t.live(node.start as usize..node.end as usize) {
                    actual.merge_point(e.point);
                }
                return Ok((n, actual));
            }
            if n == 0 {
                return Err("empty internal node".into());
            }
            let mut total = 0;
            for ci in node.start..node.end {
                let (count, child) = rec(t, ci as usize, depth + 1, leaf_depth)?;
                if !t.nodes[ci as usize].bbox.contains_box(&child) {
                    return Err("MBR does not cover child".into());
                }
                total += count;
                actual.merge(&child);
            }
            Ok((total, actual))
        }
        if self.coords.rows() != self.slots.len()
            || self.pending_coords.rows() != self.pending.len()
        {
            return Err("coordinate rows out of step with payloads".into());
        }
        if let Some(root) = self.nodes.first() {
            let (slots, actual) = rec(self, 0, 0, &mut None)?;
            if slots != self.slots.len() {
                return Err(format!(
                    "leaves cover {slots} of {} slots",
                    self.slots.len()
                ));
            }
            if !root.bbox.contains_box(&actual) {
                return Err("root MBR does not cover contents".into());
            }
        } else if !self.slots.is_empty() {
            return Err("packed slots without a root node".into());
        }
        let dead = self.slots.iter().filter(|s| s.is_none()).count();
        if dead != self.tombstones {
            return Err(format!(
                "tombstones: counted {dead}, stored {}",
                self.tombstones
            ));
        }
        let live = self.slots.len() - dead + self.pending.len();
        if live != self.len {
            return Err(format!("len mismatch: counted {live}, stored {}", self.len));
        }
        if self.pending.len() + self.tombstones > self.pending_limit() {
            return Err("pending run past the compaction rule".into());
        }
        Ok(())
    }
}

/// The axis along which the points `items` (row ids into `points`) spread
/// widest (ties to the lowest axis).
fn widest_axis(points: &FlatMatrix, items: &[u32]) -> usize {
    let mut best = 0;
    let mut best_spread = f64::NEG_INFINITY;
    for axis in 0..points.dim() {
        let (lo, hi) = items
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &i| {
                let x = points.row(i as usize)[axis];
                (lo.min(x), hi.max(x))
            });
        if hi - lo > best_spread {
            best_spread = hi - lo;
            best = axis;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use iq_geometry::Vector;

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        }
    }

    #[test]
    fn empty_tree() {
        let t: RTree<u32> = RTree::new(2);
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert!(t
            .search_box(&BoundingBox::new(vec![0.0, 0.0], vec![1.0, 1.0]))
            .is_empty());
        assert!(t.nearest_k(&[0.0, 0.0], 3).is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_and_window_query() {
        let mut t = RTree::new(2);
        for i in 0..100 {
            let x = (i % 10) as f64;
            let y = (i / 10) as f64;
            t.insert(&[x, y], i);
        }
        assert_eq!(t.len(), 100);
        t.check_invariants().unwrap();
        let window = BoundingBox::new(vec![2.0, 2.0], vec![4.0, 4.0]);
        let mut found: Vec<i32> = t.search_box(&window).iter().map(|e| e.data).collect();
        found.sort_unstable();
        let mut expect: Vec<i32> = (0..100)
            .filter(|i| {
                let x = (i % 10) as f64;
                let y = (i / 10) as f64;
                (2.0..=4.0).contains(&x) && (2.0..=4.0).contains(&y)
            })
            .collect();
        expect.sort_unstable();
        assert_eq!(found, expect);
    }

    #[test]
    fn random_inserts_match_naive_window() {
        let mut rnd = lcg(7);
        let pts: Vec<Vec<f64>> = (0..500)
            .map(|_| vec![rnd() * 100.0, rnd() * 100.0, rnd() * 100.0])
            .collect();
        let mut t = RTree::new(3);
        for (i, p) in pts.iter().enumerate() {
            t.insert(p, i);
        }
        t.check_invariants().unwrap();
        for trial in 0..20 {
            let lo: Vec<f64> = (0..3).map(|_| rnd() * 80.0).collect();
            let hi: Vec<f64> = lo.iter().map(|l| l + rnd() * 30.0).collect();
            let w = BoundingBox::new(lo, hi);
            let mut got: Vec<usize> = t.search_box(&w).iter().map(|e| e.data).collect();
            got.sort_unstable();
            let mut want: Vec<usize> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| w.contains_point(p))
                .map(|(i, _)| i)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "window trial {trial}");
        }
    }

    #[test]
    fn slab_query_matches_naive() {
        let mut rnd = lcg(99);
        let pts: Vec<Vec<f64>> = (0..400)
            .map(|_| vec![rnd() * 2.0 - 1.0, rnd() * 2.0 - 1.0])
            .collect();
        let mut t = RTree::new(2);
        for (i, p) in pts.iter().enumerate() {
            t.insert(p, i);
        }
        for trial in 0..20 {
            let p = Vector::from([rnd() * 2.0 - 1.0, rnd() * 2.0 - 1.0]);
            let o = Vector::from([rnd() * 2.0 - 1.0, rnd() * 2.0 - 1.0]);
            let s = Vector::from([rnd() * 0.6 - 0.3, rnd() * 0.6 - 0.3]);
            let Some(slab) = Slab::affected_subspace(&p, &o, &s) else {
                continue;
            };
            let mut got: Vec<usize> = t.search_slab(&slab).iter().map(|e| e.data).collect();
            got.sort_unstable();
            let mut want: Vec<usize> = pts
                .iter()
                .enumerate()
                .filter(|(_, q)| slab.contains(q))
                .map(|(i, _)| i)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "slab trial {trial}");
        }
    }

    #[test]
    fn knn_matches_naive() {
        let mut rnd = lcg(1234);
        let pts: Vec<Vec<f64>> = (0..300).map(|_| vec![rnd() * 10.0, rnd() * 10.0]).collect();
        let mut t = RTree::new(2);
        for (i, p) in pts.iter().enumerate() {
            t.insert(p, i);
        }
        for trial in 0..10 {
            let q = vec![rnd() * 10.0, rnd() * 10.0];
            let k = 1 + (trial % 7);
            let got: Vec<f64> = t.nearest_k(&q, k).iter().map(|(_, d)| *d).collect();
            let mut dists: Vec<f64> = pts
                .iter()
                .map(|p| iq_geometry::vector::dist(&q, p))
                .collect();
            dists.sort_by(|a, b| a.total_cmp(b));
            assert_eq!(got.len(), k);
            for (a, b) in got.iter().zip(&dists) {
                assert!((a - b).abs() < 1e-9, "knn trial {trial}: {a} vs {b}");
            }
            // Results are sorted ascending.
            for w in got.windows(2) {
                assert!(w[0] <= w[1]);
            }
        }
    }

    #[test]
    fn knn_more_than_len() {
        let mut t = RTree::new(1);
        t.insert(&[1.0], "a");
        t.insert(&[2.0], "b");
        let got = t.nearest_k(&[0.0], 10);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0.data, "a");
    }

    #[test]
    fn remove_half_keeps_survivors() {
        let mut rnd = lcg(42);
        let pts: Vec<Vec<f64>> = (0..200).map(|_| vec![rnd() * 10.0, rnd() * 10.0]).collect();
        let mut t = RTree::new(2);
        for (i, p) in pts.iter().enumerate() {
            t.insert(p, i);
        }
        // Remove every even-id point.
        for (i, p) in pts.iter().enumerate() {
            if i % 2 == 0 {
                let removed = t.remove(p, |&d| d == i);
                assert_eq!(removed, Some(i), "failed to remove {i}");
            }
        }
        assert_eq!(t.len(), 100);
        t.check_invariants().unwrap();
        // Remaining points still findable; removed ones are gone.
        let everything = BoundingBox::new(vec![-1.0, -1.0], vec![11.0, 11.0]);
        let mut left: Vec<usize> = t.search_box(&everything).iter().map(|e| e.data).collect();
        left.sort_unstable();
        let want: Vec<usize> = (0..200).filter(|i| i % 2 == 1).collect();
        assert_eq!(left, want);
    }

    #[test]
    fn remove_missing_returns_none() {
        let mut t = RTree::new(2);
        t.insert(&[1.0, 1.0], 7);
        assert_eq!(t.remove(&[2.0, 2.0], |_| true), None);
        assert_eq!(t.remove(&[1.0, 1.0], |&d| d == 8), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn duplicate_points_distinct_payloads() {
        let mut t = RTree::new(2);
        t.insert(&[1.0, 1.0], 1);
        t.insert(&[1.0, 1.0], 2);
        t.insert(&[1.0, 1.0], 3);
        let w = BoundingBox::point(&[1.0, 1.0]);
        assert_eq!(t.search_box(&w).len(), 3);
        assert_eq!(t.remove(&[1.0, 1.0], |&d| d == 2), Some(2));
        assert_eq!(t.search_box(&w).len(), 2);
    }

    #[test]
    fn iter_yields_everything() {
        let mut t = RTree::new(2);
        for i in 0..150 {
            t.insert(&[i as f64, (i * 7 % 50) as f64], i);
        }
        let mut ids: Vec<i32> = t.iter().map(|e| e.data).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..150).collect::<Vec<_>>());
    }

    #[test]
    fn height_grows_logarithmically() {
        let mut t = RTree::with_capacity(2, 4);
        for i in 0..256 {
            t.insert(&[(i % 16) as f64, (i / 16) as f64], i);
        }
        t.check_invariants().unwrap();
        assert!(t.height() >= 3, "expected multi-level tree");
        assert!(t.height() <= 10, "tree unreasonably deep: {}", t.height());
    }

    #[test]
    fn size_bytes_monotone() {
        let mut t = RTree::new(3);
        let empty = t.size_bytes();
        for i in 0..100 {
            t.insert(&[i as f64, 0.0, 0.0], i);
        }
        assert!(t.size_bytes() > empty);
    }

    #[test]
    fn bulk_is_packed_and_well_formed() {
        for n in [0usize, 1, 5, 16, 17, 100, 257, 1000] {
            let mut rnd = lcg(n as u64 + 3);
            let pts: Vec<Vec<f64>> = (0..n).map(|_| vec![rnd() * 10.0, rnd() * 10.0]).collect();
            let t = RTree::bulk(2, pts.iter().map(Vec::as_slice).zip(0..n));
            assert!(t.is_packed(), "n = {n}");
            assert_eq!(t.len(), n);
            t.check_invariants()
                .unwrap_or_else(|e| panic!("bulk n = {n}: {e}"));
            let mut ids: Vec<usize> = t.iter().map(|e| e.data).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..n).collect::<Vec<_>>(), "n = {n}");
        }
    }

    #[test]
    fn bulk_matches_naive_box_and_slab() {
        let mut rnd = lcg(55);
        let pts: Vec<Vec<f64>> = (0..500)
            .map(|_| vec![rnd() * 2.0 - 1.0, rnd() * 2.0 - 1.0])
            .collect();
        let t = RTree::bulk(2, pts.iter().map(Vec::as_slice).zip(0..pts.len()));
        for trial in 0..20 {
            let lo = vec![rnd() * 1.6 - 1.0, rnd() * 1.6 - 1.0];
            let hi: Vec<f64> = lo.iter().map(|l| l + rnd() * 0.8).collect();
            let w = BoundingBox::new(lo, hi);
            let mut got: Vec<usize> = t.search_box(&w).iter().map(|e| e.data).collect();
            got.sort_unstable();
            let mut want: Vec<usize> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| w.contains_point(p))
                .map(|(i, _)| i)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "bulk window trial {trial}");

            let p = Vector::from([rnd() * 2.0 - 1.0, rnd() * 2.0 - 1.0]);
            let o = Vector::from([rnd() * 2.0 - 1.0, rnd() * 2.0 - 1.0]);
            let s = Vector::from([rnd() * 0.6 - 0.3, rnd() * 0.6 - 0.3]);
            let Some(slab) = Slab::affected_subspace(&p, &o, &s) else {
                continue;
            };
            let mut got: Vec<usize> = t.search_slab(&slab).iter().map(|e| e.data).collect();
            got.sort_unstable();
            let mut want: Vec<usize> = pts
                .iter()
                .enumerate()
                .filter(|(_, q)| slab.contains(q))
                .map(|(i, _)| i)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "bulk slab trial {trial}");
        }
    }

    #[test]
    fn pending_and_tombstones_compact_under_the_rule() {
        let mut rnd = lcg(23);
        let pts: Vec<Vec<f64>> = (0..200).map(|_| vec![rnd() * 10.0, rnd() * 10.0]).collect();
        let mut t = RTree::bulk(2, pts.iter().map(Vec::as_slice).zip(0..pts.len()));
        // Below max(16, 200 / 4) = 50 the writes stay pending.
        t.insert(&[5.0, 5.0], 999);
        assert_eq!(t.remove(&pts[0], |&d| d == 0), Some(0));
        assert!(!t.is_packed());
        assert_eq!(t.len(), 200);
        t.check_invariants().unwrap();
        assert_eq!(t.remove(&[5.0, 5.0], |&d| d == 999), Some(999));
        for (i, p) in pts.iter().enumerate().skip(1).take(60) {
            assert_eq!(t.remove(p, |&d| d == i), Some(i));
            t.check_invariants().unwrap();
        }
        let everything = BoundingBox::new(vec![-1.0, -1.0], vec![11.0, 11.0]);
        let mut left: Vec<usize> = t.search_box(&everything).iter().map(|e| e.data).collect();
        left.sort_unstable();
        assert_eq!(left, (61..200).collect::<Vec<_>>());
        t.pack();
        assert!(t.is_packed());
        t.check_invariants().unwrap();
        assert_eq!(t.iter().count(), 139);
    }

    #[test]
    fn bulk_empty_and_degenerate() {
        let t: RTree<u32> = RTree::bulk(2, []);
        assert!(t.is_empty() && t.is_packed());
        assert_eq!(t.height(), 1);
        t.check_invariants().unwrap();
        assert!(t.nearest_k(&[0.0, 0.0], 3).is_empty());
        // Heavily duplicated points still pack into a valid tree.
        let dup = RTree::bulk(2, (0..100).map(|i| (&[1.0, 1.0][..], i)));
        dup.check_invariants().unwrap();
        assert_eq!(dup.search_box(&BoundingBox::point(&[1.0, 1.0])).len(), 100);
    }
}
