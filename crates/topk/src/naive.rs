//! Naive top-k evaluation — the correctness oracle every other scheme in
//! this crate (and the ESE machinery in `iq-core`) is tested against.
//!
//! Ranking convention (fixed across the whole workspace, from Eq. 6 of the
//! paper): **lower score is better**, ties broken by smaller object id, so
//! every ranking is a total order.
//!
//! Objects are the rows of one [`iq_geometry::matrix::FlatMatrix`]; every
//! function scores them through its kernels, whose sums are bit-identical
//! to [`score`]. Each function is the one brute-force oracle for its
//! question.

use iq_geometry::matrix::FlatMatrix;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A top-k query: a weight vector and a result size.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKQuery {
    /// Per-attribute weights (the query point in function-domain space).
    pub weights: Vec<f64>,
    /// Number of objects to return.
    pub k: usize,
}

impl TopKQuery {
    /// Creates a query.
    pub fn new(weights: Vec<f64>, k: usize) -> Self {
        assert!(k > 0, "top-k query requires k ≥ 1");
        TopKQuery { weights, k }
    }
}

/// The linear score of an object under a weight vector.
#[inline]
pub fn score(object: &[f64], weights: &[f64]) -> f64 {
    iq_geometry::vector::dot(object, weights)
}

/// Compares two objects under a query: score ascending, id ascending.
#[expect(
    clippy::disallowed_methods,
    reason = "the one blessed partial_cmp: NaN scores collapse to Equal (id breaks the \
              tie) instead of total_cmp's sign-dependent NaN ordering, and every ranking \
              in the workspace routes through here"
)]
#[inline]
pub fn rank_cmp(a_score: f64, a_id: usize, b_score: f64, b_id: usize) -> std::cmp::Ordering {
    a_score
        .partial_cmp(&b_score)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a_id.cmp(&b_id))
}

// Max-heap entry ordered by `rank_cmp`, shared by every bounded-selection
// path in this module so the k-best logic exists exactly once.
#[derive(PartialEq)]
struct Worst(f64, usize);
impl Eq for Worst {}
impl PartialOrd for Worst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Worst {
    fn cmp(&self, other: &Self) -> Ordering {
        rank_cmp(self.0, self.1, other.0, other.1)
    }
}

// Bounded max-heap selection of the `k` rank-smallest scores, best first.
// `k` must already be clamped to the stream length. The only allocations
// are the heap (once, `k + 1` slots) and the returned id vector:
// `into_sorted_vec` sorts the heap's own buffer in place instead of
// collecting into an intermediate `(score, id)` vector.
fn smallest_k(scores: impl Iterator<Item = f64>, k: usize) -> Vec<usize> {
    if k == 0 {
        return Vec::new();
    }
    let mut heap: BinaryHeap<Worst> = BinaryHeap::with_capacity(k + 1);
    for (i, s) in scores.enumerate() {
        if heap.len() < k {
            heap.push(Worst(s, i));
        } else if let Some(top) = heap.peek() {
            if rank_cmp(s, i, top.0, top.1) == Ordering::Less {
                heap.pop();
                heap.push(Worst(s, i));
            }
        }
    }
    heap.into_sorted_vec().into_iter().map(|w| w.1).collect()
}

/// The ids of the `k` best objects for the query, best first: every row
/// is scored through the batched kernel into `scratch`, then a bounded
/// max-heap selects, in `O(n log k)`.
pub fn top_k(
    objects: &FlatMatrix,
    weights: &[f64],
    k: usize,
    scratch: &mut Vec<f64>,
) -> Vec<usize> {
    objects.scores_into(weights, scratch);
    top_k_from_scores(scratch, k)
}

/// Selects the ids of the `k` rank-smallest entries of a score slice,
/// best first (`scores[i]` is object `i`'s score).
pub fn top_k_from_scores(scores: &[f64], k: usize) -> Vec<usize> {
    let k = k.min(scores.len());
    smallest_k(scores.iter().copied(), k)
}

/// The full ranking of all objects for the query (best first).
pub fn full_ranking(objects: &FlatMatrix, weights: &[f64]) -> Vec<usize> {
    let mut scores = Vec::new();
    objects.scores_into(weights, &mut scores);
    let mut ids: Vec<usize> = (0..scores.len()).collect();
    ids.sort_by(|&a, &b| rank_cmp(scores[a], a, scores[b], b));
    ids
}

/// The 1-based rank of `target` under the query.
pub fn rank_of(objects: &FlatMatrix, weights: &[f64], target: usize) -> usize {
    let ts = objects.dot_row(target, weights);
    1 + (0..objects.rows())
        .filter(|&i| {
            i != target && rank_cmp(objects.dot_row(i, weights), i, ts, target) == Ordering::Less
        })
        .count()
}

/// Whether `target` is in the top-`k` of the query with these weights.
pub fn hits(objects: &FlatMatrix, weights: &[f64], k: usize, target: usize) -> bool {
    rank_of(objects, weights, target) <= k
}

/// The score of the `k`-th best object **excluding** `exclude` — the
/// admission threshold an improved target must beat (cf. Eq. 6). Returns
/// `(object id, score)`, or `None` when fewer than `k` other objects exist.
pub fn kth_best_excluding(
    objects: &FlatMatrix,
    weights: &[f64],
    k: usize,
    exclude: usize,
) -> Option<(usize, f64)> {
    let n = objects.rows();
    let excluded = if exclude < n { 1 } else { 0 };
    if n < k + excluded {
        return None;
    }
    kth_of_stream((0..n).map(|i| (i, objects.dot_row(i, weights))), k, exclude)
}

// Bounded max-heap of the k best (skipping `exclude`): O(n log k), no full
// sort. The heap root is the k-th best of the stream.
fn kth_of_stream(
    scored: impl Iterator<Item = (usize, f64)>,
    k: usize,
    exclude: usize,
) -> Option<(usize, f64)> {
    let mut heap: BinaryHeap<Worst> = BinaryHeap::with_capacity(k + 1);
    for (i, s) in scored {
        if i == exclude {
            continue;
        }
        if heap.len() < k {
            heap.push(Worst(s, i));
        } else if let Some(top) = heap.peek() {
            if rank_cmp(s, i, top.0, top.1) == Ordering::Less {
                heap.pop();
                heap.push(Worst(s, i));
            }
        }
    }
    heap.peek().map(|w| (w.1, w.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn objs() -> FlatMatrix {
        FlatMatrix::from_rows(
            2,
            &[
                [1.0, 5.0], // id 0
                [2.0, 2.0], // id 1
                [5.0, 1.0], // id 2
                [3.0, 3.0], // id 3
            ],
        )
    }

    fn top(o: &FlatMatrix, w: &[f64], k: usize) -> Vec<usize> {
        top_k(o, w, k, &mut Vec::new())
    }

    #[test]
    fn top_k_basic() {
        // weights (1, 0): scores 1, 2, 5, 3 → top-2 = [0, 1].
        assert_eq!(top(&objs(), &[1.0, 0.0], 2), vec![0, 1]);
        // weights (0, 1): scores 5, 2, 1, 3 → top-2 = [2, 1].
        assert_eq!(top(&objs(), &[0.0, 1.0], 2), vec![2, 1]);
    }

    #[test]
    fn top_k_matches_full_ranking() {
        let o = objs();
        for w in [[0.3, 0.7], [0.9, 0.1], [0.5, 0.5]] {
            let full = full_ranking(&o, &w);
            for k in 1..=o.rows() {
                assert_eq!(top(&o, &w, k), full[..k].to_vec());
            }
        }
    }

    #[test]
    fn top_k_matches_full_ranking_truncation_on_ties() {
        // Heavily tied instance: four score-1.0 objects straddling the k
        // boundary, plus duplicates of the best score. The heap selection
        // must agree with full-sort truncation at every k — in particular
        // the id tie-breaks at the cut.
        let o = FlatMatrix::from_rows(
            1,
            &[
                [1.0], // id 0, tied middle
                [0.5], // id 1, tied best
                [1.0], // id 2
                [0.5], // id 3
                [1.0], // id 4
                [2.0], // id 5, worst
                [1.0], // id 6
            ],
        );
        let w = [1.0];
        let full = full_ranking(&o, &w);
        assert_eq!(full, vec![1, 3, 0, 2, 4, 6, 5]);
        for k in 0..=o.rows() + 2 {
            assert_eq!(top(&o, &w, k), full[..k.min(o.rows())].to_vec(), "k = {k}");
        }
    }

    #[test]
    fn k_larger_than_n() {
        assert_eq!(top(&objs(), &[1.0, 1.0], 10).len(), 4);
    }

    #[test]
    fn tie_broken_by_id() {
        let o = FlatMatrix::from_rows(1, &[[1.0], [1.0], [0.5]]);
        assert_eq!(top(&o, &[1.0], 3), vec![2, 0, 1]);
        assert_eq!(rank_of(&o, &[1.0], 1), 3);
        assert_eq!(rank_of(&o, &[1.0], 0), 2);
    }

    #[test]
    fn rank_and_hits() {
        let o = objs();
        let w = [1.0, 0.0];
        assert_eq!(rank_of(&o, &w, 0), 1);
        assert_eq!(rank_of(&o, &w, 2), 4);
        assert!(hits(&o, &w, 1, 0));
        assert!(!hits(&o, &w, 3, 2));
    }

    #[test]
    fn kth_best_excluding_target() {
        let o = objs();
        let w = [1.0, 0.0];
        // Excluding object 0: scores 2, 5, 3 → 1st best is id 1 (score 2).
        assert_eq!(kth_best_excluding(&o, &w, 1, 0), Some((1, 2.0)));
        // 3rd best excluding 0 is id 2 (score 5).
        assert_eq!(kth_best_excluding(&o, &w, 3, 0), Some((2, 5.0)));
        // k = 4 excluding one object: only 3 remain.
        assert_eq!(kth_best_excluding(&o, &w, 4, 0), None);
    }

    #[test]
    #[should_panic]
    fn zero_k_query_rejected() {
        let _ = TopKQuery::new(vec![1.0], 0);
    }
}
