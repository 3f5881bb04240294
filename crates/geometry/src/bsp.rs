//! Binary space partitioning of query points into subdomains — Algorithm 1
//! (`FindSubdomains`) of the paper.
//!
//! The intersection hyperplanes of the object functions partition the query
//! domain into cells ("subdomains") inside which the full object ranking is
//! constant. Following the paper, the partition is built incrementally: each
//! hyperplane splits every group of queries it separates into an *above* and
//! a *below* group, and groups that end up empty are discarded.
//!
//! Two query points end up in the same subdomain **iff** they lie on the
//! same side of every supplied hyperplane; that invariant (and nothing else)
//! is what the downstream ESE machinery relies on. Each subdomain also
//! remembers the hyperplanes that actually split it off — the paper's
//! `boundaries` — plus its full side signature for exact membership tests
//! during incremental updates (§4.3).

use crate::hyperplane::{Hyperplane, Side};

/// One cell of the partition, holding the queries that fall inside it.
#[derive(Debug, Clone)]
pub struct Subdomain {
    /// Dense id of the subdomain (index into [`Partition::subdomains`]).
    pub id: usize,
    /// Indices (into the input query list) of the queries in this cell.
    pub queries: Vec<usize>,
    /// The hyperplanes that actually split this cell off, with the side of
    /// the cell relative to each — Algorithm 1's `boundaries`.
    pub boundaries: Vec<(usize, Side)>,
    /// Side of the cell with respect to *every* input hyperplane, in input
    /// order. All queries of the cell share this signature.
    pub signature: Vec<Side>,
}

/// The result of running `FindSubdomains`.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Non-empty subdomains, in creation order.
    pub subdomains: Vec<Subdomain>,
    /// For each input query index, the id of the subdomain containing it.
    pub assignment: Vec<usize>,
    /// The hyperplanes the partition was built from (kept for membership
    /// tests on later-arriving query points).
    hyperplanes: Vec<Hyperplane>,
}

/// Computes the side signature of a point against a hyperplane list.
pub fn signature_of(q: &[f64], hyperplanes: &[Hyperplane]) -> Vec<Side> {
    hyperplanes.iter().map(|h| h.side(q)).collect()
}

/// Algorithm 1: partitions `queries` by the arrangement of `hyperplanes`.
///
/// Runs in `O(|I| · |Q|)` time (each hyperplane classifies each point once),
/// which matches the incremental group-splitting formulation of the paper;
/// empty cells are never materialized.
pub fn find_subdomains(hyperplanes: &[Hyperplane], queries: &[Vec<f64>]) -> Partition {
    // Each group is (member query indices, boundaries accumulated so far).
    // Start with a single subdomain holding everything (Algorithm 1 lines
    // 1–5).
    type Group = (Vec<usize>, Vec<(usize, Side)>);
    let mut groups: Vec<Group> = vec![((0..queries.len()).collect(), Vec::new())];

    for (hi, h) in hyperplanes.iter().enumerate() {
        let mut next = Vec::with_capacity(groups.len());
        for (members, bounds) in groups {
            if members.is_empty() {
                continue;
            }
            let mut above = Vec::new();
            let mut below = Vec::new();
            for &qi in &members {
                match h.side(&queries[qi]) {
                    Side::Above => above.push(qi),
                    Side::Below => below.push(qi),
                }
            }
            // The hyperplane "overlaps" the group only if it separates it;
            // otherwise the group passes through unchanged (the common side
            // is still recorded via the signature computed at the end).
            if above.is_empty() || below.is_empty() {
                next.push((members, bounds));
            } else {
                let mut above_bounds = bounds.clone();
                above_bounds.push((hi, Side::Above));
                let mut below_bounds = bounds;
                below_bounds.push((hi, Side::Below));
                next.push((above, above_bounds));
                next.push((below, below_bounds));
            }
        }
        groups = next;
    }

    let mut assignment = vec![usize::MAX; queries.len()];
    let mut subdomains = Vec::with_capacity(groups.len());
    let mut id = 0;
    for (members, boundaries) in groups {
        if members.is_empty() {
            continue; // Algorithm 1 discards subdomains without queries
        }
        let signature = signature_of(&queries[members[0]], hyperplanes);
        for &qi in &members {
            assignment[qi] = id;
        }
        subdomains.push(Subdomain {
            id,
            queries: members,
            boundaries,
            signature,
        });
        id += 1;
    }

    Partition {
        subdomains,
        assignment,
        hyperplanes: hyperplanes.to_vec(),
    }
}

impl Partition {
    /// Number of non-empty subdomains.
    pub fn len(&self) -> usize {
        self.subdomains.len()
    }

    /// True when there are no subdomains (no queries were supplied).
    pub fn is_empty(&self) -> bool {
        self.subdomains.is_empty()
    }

    /// The hyperplanes the partition was built from.
    pub fn hyperplanes(&self) -> &[Hyperplane] {
        &self.hyperplanes
    }

    /// Exact membership test: does point `q` fall inside subdomain `id`?
    ///
    /// Used by the incremental update path (§4.3): new query points first
    /// probe the subdomains of their nearest neighbours before falling back
    /// to a full signature computation.
    pub fn point_in_subdomain(&self, q: &[f64], id: usize) -> bool {
        let sd = &self.subdomains[id];
        sd.signature
            .iter()
            .enumerate()
            .all(|(hi, &side)| self.hyperplanes[hi].side(q) == side)
    }

    /// Locates the subdomain containing `q`, if any existing cell matches
    /// its full signature. Returns `None` when `q` falls in a cell that is
    /// currently empty (no indexed query shares it).
    pub fn locate(&self, q: &[f64]) -> Option<usize> {
        let sig = signature_of(q, &self.hyperplanes);
        // A linear scan is fine for the sizes BSP is used at.
        self.subdomains
            .iter()
            .find(|sd| sd.signature == sig)
            .map(|sd| sd.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::Vector;

    fn hp(n: &[f64], c: f64) -> Hyperplane {
        Hyperplane::new(Vector::from(n), c)
    }

    #[test]
    fn empty_inputs() {
        let p = find_subdomains(&[], &[]);
        assert!(p.is_empty());
        let p = find_subdomains(&[hp(&[1.0], 0.0)], &[]);
        assert!(p.is_empty());
    }

    #[test]
    fn no_hyperplanes_single_cell() {
        let queries = vec![vec![0.0, 0.0], vec![5.0, 5.0]];
        let p = find_subdomains(&[], &queries);
        assert_eq!(p.len(), 1);
        assert_eq!(p.assignment, vec![0, 0]);
        assert!(p.subdomains[0].boundaries.is_empty());
    }

    #[test]
    fn quadrant_partition() {
        // x = 0 and y = 0 split the plane into 4 quadrants.
        let hs = vec![hp(&[1.0, 0.0], 0.0), hp(&[0.0, 1.0], 0.0)];
        let queries = vec![
            vec![1.0, 1.0],   // ++
            vec![-1.0, 1.0],  // -+
            vec![-1.0, -1.0], // --
            vec![1.0, -1.0],  // +-
            vec![2.0, 3.0],   // ++ again
        ];
        let p = find_subdomains(&hs, &queries);
        assert_eq!(p.len(), 4);
        assert_eq!(p.assignment[0], p.assignment[4]);
        let distinct: std::collections::BTreeSet<_> = p.assignment.iter().collect();
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn empty_cells_discarded() {
        // Three parallel lines create 4 cells but queries occupy only 2.
        let hs = vec![
            hp(&[1.0, 0.0], 0.0),
            hp(&[1.0, 0.0], -10.0),
            hp(&[1.0, 0.0], -20.0),
        ];
        let queries = vec![vec![-5.0, 0.0], vec![5.0, 0.0], vec![6.0, 1.0]];
        let p = find_subdomains(&hs, &queries);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn same_cell_iff_same_signature() {
        let hs = vec![
            hp(&[1.0, 2.0], -0.5),
            hp(&[-3.0, 1.0], 0.2),
            hp(&[0.5, -0.5], 0.0),
        ];
        let queries: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let t = i as f64;
                vec![(t * 0.37).sin() * 3.0, (t * 0.73).cos() * 3.0]
            })
            .collect();
        let p = find_subdomains(&hs, &queries);
        for i in 0..queries.len() {
            for j in 0..queries.len() {
                let same_sig = signature_of(&queries[i], &hs) == signature_of(&queries[j], &hs);
                assert_eq!(
                    p.assignment[i] == p.assignment[j],
                    same_sig,
                    "queries {i} and {j} disagree"
                );
            }
        }
    }

    #[test]
    fn on_plane_counts_as_above() {
        let hs = vec![hp(&[1.0], 0.0)];
        let queries = vec![vec![0.0], vec![1.0], vec![-1.0]];
        let p = find_subdomains(&hs, &queries);
        assert_eq!(p.assignment[0], p.assignment[1]);
        assert_ne!(p.assignment[0], p.assignment[2]);
    }

    #[test]
    fn boundaries_recorded_only_on_split() {
        let hs = vec![
            hp(&[1.0, 0.0], -100.0), // splits nothing
            hp(&[1.0, 0.0], 0.0),    // splits the two points
        ];
        let queries = vec![vec![-1.0, 0.0], vec![1.0, 0.0]];
        let p = find_subdomains(&hs, &queries);
        assert_eq!(p.len(), 2);
        for sd in &p.subdomains {
            assert_eq!(sd.boundaries.len(), 1);
            assert_eq!(sd.boundaries[0].0, 1);
        }
    }

    #[test]
    fn locate_and_membership() {
        let hs = vec![hp(&[1.0, 0.0], 0.0), hp(&[0.0, 1.0], 0.0)];
        let queries = vec![vec![1.0, 1.0], vec![-1.0, -1.0]];
        let p = find_subdomains(&hs, &queries);
        // A new point in the ++ quadrant locates to the first subdomain.
        let found = p.locate(&[3.0, 4.0]).unwrap();
        assert_eq!(found, p.assignment[0]);
        assert!(p.point_in_subdomain(&[3.0, 4.0], found));
        assert!(!p.point_in_subdomain(&[-3.0, 4.0], found));
        // A point in an unoccupied quadrant has no home.
        assert!(p.locate(&[-1.0, 1.0]).is_none());
        assert_eq!(p.locate(&[2.0, 2.0]), Some(p.assignment[0]));
    }
}
