//! The Dominant Graph top-k index (Zou & Chen, ICDE 2008) — the
//! state-of-the-art linear-utility comparator the paper benchmarks its
//! indexing cost against (Figs. 4 and 6).
//!
//! Under the workspace's ranking convention (ascending linear scores with
//! non-negative weights), object `a` **dominates** `b` when `a ≤ b` in every
//! attribute and `a ≠ b`: no non-negative weight vector can then rank `b`
//! above `a`, so `b` cannot enter a top-k result until `a` has. The index
//! materializes the transitive reduction of that partial order; a top-k
//! query runs best-first search seeded with the *source set* (the skyline),
//! releasing an object's children only once all of the object's parents
//! have been reported — exactly the traversal of the original paper.

use crate::naive::rank_cmp;
use iq_geometry::matrix::FlatMatrix;
use std::collections::BinaryHeap;

/// The dominance-graph index.
#[derive(Debug, Clone)]
pub struct DominantGraph {
    /// Children (objects directly dominated), per object.
    children: Vec<Vec<u32>>,
    /// Number of direct dominators, per object.
    parent_count: Vec<u32>,
    /// The source set: objects with no dominators (the skyline).
    sources: Vec<u32>,
    num_objects: usize,
}

/// Returns true when `a` dominates `b` (component-wise ≤, at least one <).
#[inline]
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    let mut strict = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strict = true;
        }
    }
    strict
}

impl DominantGraph {
    /// Builds the index over the dataset.
    ///
    /// Construction sorts by coordinate sum (a necessary condition for
    /// dominance: the dominator's sum is strictly smaller) so each object is
    /// compared only against candidates that could possibly dominate it, and
    /// keeps only *direct* dominators (the transitive reduction).
    pub fn build(objects: &FlatMatrix) -> Self {
        let n = objects.rows();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let sums: Vec<f64> = objects.iter_rows().map(|o| o.iter().sum()).collect();
        order.sort_by(|&a, &b| {
            sums[a as usize]
                .total_cmp(&sums[b as usize])
                .then(a.cmp(&b))
        });

        let mut dominators: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (pos, &bi) in order.iter().enumerate() {
            let b = objects.row(bi as usize);
            // Candidates: everything earlier in sum order.
            let mut direct: Vec<u32> = Vec::new();
            for &ai in order[..pos].iter() {
                if dominates(objects.row(ai as usize), b) {
                    direct.push(ai);
                }
            }
            // Transitive reduction: drop any dominator that is itself
            // dominated by another dominator of b.
            let reduced: Vec<u32> = direct
                .iter()
                .copied()
                .filter(|&a| {
                    !direct.iter().any(|&c| {
                        c != a && dominates(objects.row(c as usize), objects.row(a as usize))
                    })
                })
                .collect();
            dominators[bi as usize] = reduced;
        }

        let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut parent_count = vec![0u32; n];
        let mut sources = Vec::new();
        for (b, doms) in dominators.iter().enumerate() {
            parent_count[b] = doms.len() as u32;
            if doms.is_empty() {
                sources.push(b as u32);
            }
            for &a in doms {
                children[a as usize].push(b as u32);
            }
        }
        DominantGraph {
            children,
            parent_count,
            sources,
            num_objects: n,
        }
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.num_objects
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.num_objects == 0
    }

    /// Size of the source set (skyline objects).
    pub fn num_sources(&self) -> usize {
        self.sources.len()
    }

    /// Total number of edges in the reduced graph.
    pub fn num_edges(&self) -> usize {
        self.children.iter().map(Vec::len).sum()
    }

    /// Rough in-memory footprint in bytes, for the index-size experiments.
    pub fn size_bytes(&self) -> usize {
        self.num_edges() * 4 + self.num_objects * (4 + 24) + self.sources.len() * 4
    }

    /// Evaluates a top-k query via dominance-guided best-first traversal.
    ///
    /// Only objects whose dominators have all been reported are score-
    /// evaluated, so the number of score computations is `O(k + frontier)`
    /// rather than `O(n)`.
    pub fn top_k(&self, objects: &FlatMatrix, weights: &[f64], k: usize) -> Vec<usize> {
        #[derive(PartialEq)]
        struct Cand(f64, u32);
        impl Eq for Cand {}
        impl PartialOrd for Cand {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Cand {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Min-heap: reverse of the ranking order.
                rank_cmp(other.0, other.1 as usize, self.0, self.1 as usize)
            }
        }

        let k = k.min(self.num_objects);
        let mut remaining_parents = self.parent_count.clone();
        let mut heap: BinaryHeap<Cand> = BinaryHeap::new();
        for &s in &self.sources {
            heap.push(Cand(objects.dot_row(s as usize, weights), s));
        }
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let Some(Cand(_, id)) = heap.pop() else {
                break;
            };
            out.push(id as usize);
            for &c in &self.children[id as usize] {
                remaining_parents[c as usize] -= 1;
                if remaining_parents[c as usize] == 0 {
                    heap.push(Cand(objects.dot_row(c as usize, weights), c));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;

    fn flat(rows: Vec<Vec<f64>>) -> FlatMatrix {
        FlatMatrix::from_rows(rows[0].len(), &rows)
    }

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
    fn dominance_predicate() {
        assert!(dominates(&[1.0, 2.0], &[2.0, 2.0]));
        assert!(dominates(&[1.0, 1.0], &[2.0, 2.0]));
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0]));
        assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0])); // equal: no strict
    }

    #[test]
    fn chain_graph() {
        // Total order by dominance: 0 ≺ 1 ≺ 2.
        let objs = flat(vec![vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]);
        let dg = DominantGraph::build(&objs);
        assert_eq!(dg.num_sources(), 1);
        // Transitive reduction: exactly 2 edges (0→1, 1→2), not 3.
        assert_eq!(dg.num_edges(), 2);
        assert_eq!(dg.top_k(&objs, &[0.5, 0.5], 2), vec![0, 1]);
    }

    #[test]
    fn antichain_graph() {
        // Anti-correlated points: nobody dominates anybody.
        let objs = flat(vec![
            vec![1.0, 4.0],
            vec![2.0, 3.0],
            vec![3.0, 2.0],
            vec![4.0, 1.0],
        ]);
        let dg = DominantGraph::build(&objs);
        assert_eq!(dg.num_sources(), 4);
        assert_eq!(dg.num_edges(), 0);
        assert_eq!(dg.top_k(&objs, &[1.0, 0.0], 1), vec![0]);
        assert_eq!(dg.top_k(&objs, &[0.0, 1.0], 1), vec![3]);
    }

    #[test]
    fn matches_naive_on_random_data() {
        let mut rnd = lcg(2024);
        for trial in 0..5 {
            let n = 80 + trial * 30;
            let d = 2 + trial % 3;
            let objs = flat((0..n).map(|_| (0..d).map(|_| rnd()).collect()).collect());
            let dg = DominantGraph::build(&objs);
            for _ in 0..10 {
                let w: Vec<f64> = (0..d).map(|_| rnd()).collect();
                for k in [1usize, 3, 10] {
                    assert_eq!(
                        dg.top_k(&objs, &w, k),
                        naive::top_k(&objs, &w, k, &mut Vec::new()),
                        "trial {trial} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn correlated_data_compresses_graph() {
        // Correlated data has long dominance chains → small source set.
        let mut rnd = lcg(7);
        let objs = flat(
            (0..200)
                .map(|_| {
                    let base = rnd();
                    vec![base + rnd() * 0.05, base + rnd() * 0.05]
                })
                .collect(),
        );
        let dg = DominantGraph::build(&objs);
        assert!(
            dg.num_sources() < 40,
            "correlated data should have a small skyline, got {}",
            dg.num_sources()
        );
    }

    #[test]
    fn empty_and_k_zero() {
        let empty = FlatMatrix::new(1);
        let dg = DominantGraph::build(&empty);
        assert!(dg.is_empty());
        assert!(dg.top_k(&empty, &[1.0], 3).is_empty());
        let objs = flat(vec![vec![1.0]]);
        let dg = DominantGraph::build(&objs);
        assert!(dg.top_k(&objs, &[1.0], 0).is_empty());
    }

    #[test]
    fn duplicate_objects_do_not_dominate_each_other() {
        let objs = flat(vec![vec![1.0, 1.0], vec![1.0, 1.0]]);
        let dg = DominantGraph::build(&objs);
        assert_eq!(dg.num_sources(), 2);
        assert_eq!(dg.top_k(&objs, &[1.0, 1.0], 2), vec![0, 1]);
    }
}
