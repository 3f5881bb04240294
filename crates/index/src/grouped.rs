//! A forest of per-group R-trees over query points.
//!
//! The fast ESE path (see `iq-core::ese`) groups query points by the object
//! whose score defines their top-k admission threshold. A strategy's
//! affected subspace is a *different slab per threshold object*, so slab
//! retrieval must be scoped to one group at a time: this structure keeps an
//! R-tree per group and routes slab queries accordingly.
//!
//! Groups are identified by a dense `usize` key supplied by the caller
//! (typically an object id). The forest is built once: items are grouped,
//! then each group is STR-packed with [`RTree::bulk`]. A group of at most
//! [`crate::rtree::DEFAULT_MAX_ENTRIES`] points is a single leaf, which a
//! slab visit scans like a flat list.

use crate::rtree::RTree;
use iq_geometry::Slab;
use std::collections::BTreeMap;

/// Per-group spatial index over `(point, payload)` pairs.
#[derive(Debug, Clone)]
pub struct GroupedQueryIndex {
    groups: BTreeMap<usize, RTree<usize>>,
    len: usize,
}

impl GroupedQueryIndex {
    /// Builds the index from an iterator of `(group, point, payload)`.
    ///
    /// # Panics
    /// Panics if a point's dimensionality is not `dim`.
    pub fn build(dim: usize, items: impl IntoIterator<Item = (usize, Vec<f64>, usize)>) -> Self {
        let mut by_group: BTreeMap<usize, Vec<(Vec<f64>, usize)>> = BTreeMap::new();
        let mut len = 0;
        for (g, p, d) in items {
            by_group.entry(g).or_default().push((p, d));
            len += 1;
        }
        let groups = by_group
            .into_iter()
            .map(|(g, items)| (g, RTree::bulk(dim, items)))
            .collect();
        GroupedQueryIndex { groups, len }
    }

    /// Total number of indexed points across all groups.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Iterates over the group keys in ascending order.
    pub fn group_keys(&self) -> impl Iterator<Item = usize> + '_ {
        self.groups.keys().copied()
    }

    /// Visits the payloads of all points of `group` inside the slab.
    pub fn visit_slab(&self, group: usize, slab: &Slab, visit: &mut impl FnMut(usize)) {
        if let Some(t) = self.groups.get(&group) {
            t.visit_slab(slab, &mut |e| visit(e.data));
        }
    }

    /// Collects payloads of all points of `group` inside the slab.
    pub fn search_slab(&self, group: usize, slab: &Slab) -> Vec<usize> {
        let mut out = Vec::new();
        self.visit_slab(group, slab, &mut |d| out.push(d));
        out
    }

    /// Tolerance-widened slab visit: points within `tol` of either boundary
    /// are also reported (see `RTree::visit_slab_tol`).
    pub fn visit_slab_tol(
        &self,
        group: usize,
        slab: &Slab,
        tol: f64,
        visit: &mut impl FnMut(usize),
    ) {
        if let Some(t) = self.groups.get(&group) {
            t.visit_slab_tol(slab, tol, &mut |e| visit(e.data));
        }
    }

    /// Visits every `(group, point, payload)` triple in ascending group
    /// order.
    pub fn visit_all(&self, visit: &mut impl FnMut(usize, &[f64], usize)) {
        for (&g, t) in &self.groups {
            for e in t.iter() {
                visit(g, &e.point, e.data);
            }
        }
    }

    /// Rough in-memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.groups.values().map(|t| t.size_bytes() + 48).sum()
    }
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
    fn empty_index() {
        let idx = GroupedQueryIndex::build(2, Vec::new());
        assert!(idx.is_empty());
        assert_eq!(idx.num_groups(), 0);
    }

    #[test]
    fn build_and_group_routing() {
        let idx = GroupedQueryIndex::build(
            2,
            [
                (0, vec![0.1, 0.2], 100),
                (1, vec![0.3, 0.4], 101),
                (0, vec![0.5, 0.6], 102),
            ],
        );
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.num_groups(), 2);
        let mut seen = Vec::new();
        idx.visit_all(&mut |g, _, d| seen.push((g, d)));
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 100), (0, 102), (1, 101)]);
    }

    #[test]
    fn multi_level_group_matches_naive_slab() {
        let mut rnd = lcg(5);
        let pts: Vec<Vec<f64>> = (0..200).map(|_| vec![rnd(), rnd()]).collect();
        let idx =
            GroupedQueryIndex::build(2, pts.iter().cloned().enumerate().map(|(i, p)| (7, p, i)));
        assert_eq!(idx.len(), 200);
        let p = Vector::from([0.8, 0.1]);
        let o = Vector::from([0.1, 0.8]);
        let s = Vector::from([-0.4, 0.2]);
        let slab = Slab::affected_subspace(&p, &o, &s).unwrap();
        let mut got = idx.search_slab(7, &slab);
        got.sort_unstable();
        let mut want: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, q)| slab.contains(q))
            .map(|(i, _)| i)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
        // Unknown group returns nothing.
        assert!(idx.search_slab(99, &slab).is_empty());
    }
}
