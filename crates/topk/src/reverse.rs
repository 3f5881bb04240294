//! Naive rank-aware reference queries: reverse top-k and reverse k-ranks
//! (§2 of the paper's related work). These are the oracles for RTA and for
//! the hit-counting machinery in `iq-core`.

use crate::naive::{hits, rank_of};
use iq_geometry::matrix::FlatMatrix;

/// Reverse top-k by exhaustive evaluation: the indices of all queries
/// (row `q` of `weights` with result size `ks[q]`) whose top-k result
/// contains `target`, ascending.
pub fn reverse_top_k_naive(
    objects: &FlatMatrix,
    weights: &FlatMatrix,
    ks: &[usize],
    target: usize,
) -> Vec<usize> {
    (0..weights.rows())
        .filter(|&q| hits(objects, weights.row(q), ks[q], target))
        .collect()
}

/// Reverse k-ranks (Zhang et al., VLDB 2014): the `k` queries under which
/// `target` ranks best, best rank first (ties by query index). Useful for
/// unpopular objects that hit no top-k at all.
pub fn reverse_k_ranks(
    objects: &FlatMatrix,
    weights: &FlatMatrix,
    target: usize,
    k: usize,
) -> Vec<(usize, usize)> {
    let mut ranked: Vec<(usize, usize)> = (0..weights.rows())
        .map(|q| (q, rank_of(objects, weights.row(q), target)))
        .collect();
    ranked.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
    ranked.truncate(k);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (FlatMatrix, FlatMatrix, Vec<usize>) {
        let objects = FlatMatrix::from_rows(
            2,
            &[
                [1.0, 5.0], // 0: best in dim 0
                [2.0, 2.0], // 1: balanced
                [5.0, 1.0], // 2: best in dim 1
            ],
        );
        let weights = FlatMatrix::from_rows(
            2,
            &[
                [1.0, 0.0], // k 1, winner: 0
                [0.0, 1.0], // k 1, winner: 2
                [0.5, 0.5], // k 1, winner: 1 (score 2)
                [0.5, 0.5], // k 2, winners: 1, then 0/2 tie → 0
            ],
        );
        (objects, weights, vec![1, 1, 1, 2])
    }

    #[test]
    fn reverse_topk_basic() {
        let (objects, weights, ks) = setup();
        assert_eq!(reverse_top_k_naive(&objects, &weights, &ks, 0), vec![0, 3]);
        assert_eq!(reverse_top_k_naive(&objects, &weights, &ks, 1), vec![2, 3]);
        assert_eq!(reverse_top_k_naive(&objects, &weights, &ks, 2), vec![1]);
    }

    #[test]
    fn reverse_k_ranks_orders_by_rank() {
        let (objects, weights, _) = setup();
        // Object 2 ranks: q0 → 3rd, q1 → 1st, q2 → 2nd (tie w/ 0 broken by
        // id: 0 before 2 → rank 3? scores under (.5,.5): o0=3, o1=2, o2=3;
        // o2 ties o0, id 0 < 2 so o2 is rank 3), q3 same weights → rank 3.
        let got = reverse_k_ranks(&objects, &weights, 2, 2);
        assert_eq!(got[0], (1, 1));
        assert_eq!(got[1].1, 3);
    }

    #[test]
    fn reverse_k_ranks_k_larger_than_queries() {
        let (objects, weights, _) = setup();
        let got = reverse_k_ranks(&objects, &weights, 0, 10);
        assert_eq!(got.len(), weights.rows());
        // Sorted by rank ascending.
        for w in got.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn unpopular_object_has_empty_reverse_topk_but_ranks() {
        let objects = FlatMatrix::from_rows(2, &[[0.0, 0.0], [1.0, 1.0], [9.0, 9.0]]);
        let weights = FlatMatrix::from_rows(2, &[[0.3, 0.7], [0.6, 0.4]]);
        assert!(reverse_top_k_naive(&objects, &weights, &[2, 2], 2).is_empty());
        let rr = reverse_k_ranks(&objects, &weights, 2, 1);
        assert_eq!(rr.len(), 1);
        assert_eq!(rr[0].1, 3);
    }
}
