//! The Reverse top-k Threshold Algorithm (RTA) of Vlachou et al. (TKDE
//! 2011) — the evaluation comparator the paper builds its `RTA-IQ` baseline
//! from (§6.1).
//!
//! A (bichromatic) reverse top-k query asks: *which of the given top-k
//! queries contain object `p` in their result?* RTA's insight is that
//! similar weight vectors have similar top-k results, so queries are
//! processed in sorted order while keeping the previous query's result as a
//! candidate buffer. For the current query, if `k` buffered objects already
//! score better than `p`, then `p` certainly misses the result and the full
//! `O(n)` evaluation is skipped; otherwise the query is evaluated exactly
//! and the buffer refreshed. The skip test is one-sided, so the algorithm
//! is exact — the buffer only saves work, never changes answers.

use crate::naive::{rank_cmp, top_k};
use iq_geometry::matrix::FlatMatrix;

/// Result of a reverse top-k evaluation, with work accounting.
#[derive(Debug, Clone)]
pub struct RtaResult {
    /// Indices of queries whose top-k contains the target.
    pub hits: Vec<usize>,
    /// Number of queries that required a full dataset evaluation.
    pub full_evaluations: usize,
}

/// Runs RTA over the queries `(weights.row(q), ks[q])`: returns the
/// queries hit by `target` plus work statistics. Full evaluations score
/// through [`crate::naive::top_k`] with one scratch buffer reused across
/// all queries, so the steady state allocates only the candidate buffers.
pub fn reverse_top_k(
    objects: &FlatMatrix,
    weights: &FlatMatrix,
    ks: &[usize],
    target: usize,
) -> RtaResult {
    // Process queries in lexicographic weight order so neighbours are
    // similar; remember the original index to report hits.
    let mut order: Vec<usize> = (0..weights.rows()).collect();
    #[expect(
        clippy::disallowed_methods,
        reason = "lexicographic slice order: weights are finite by construction, \
                  and the order only affects visit sequence, never the hit set"
    )]
    order.sort_by(|&a, &b| {
        weights
            .row(a)
            .partial_cmp(weights.row(b))
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut buffer: Vec<usize> = Vec::new();
    let mut hits = Vec::new();
    let mut full_evaluations = 0usize;
    let mut scratch: Vec<f64> = Vec::new();

    for &qi in &order {
        let (w, k) = (weights.row(qi), ks[qi]);
        let t_score = objects.dot_row(target, w);

        // Threshold test against the buffered candidates.
        let better = buffer
            .iter()
            .filter(|&&b| {
                b != target
                    && rank_cmp(objects.dot_row(b, w), b, t_score, target)
                        == std::cmp::Ordering::Less
            })
            .count();
        if better >= k {
            continue; // certainly not in the top-k; skip full evaluation
        }

        full_evaluations += 1;
        // One pass computes both the result and the refreshed buffer: the
        // buffer keeps one extra entry so near-misses of the next query can
        // still disqualify.
        buffer = top_k(objects, w, k + 1, &mut scratch);
        if buffer[..k.min(buffer.len())].contains(&target) {
            hits.push(qi);
        }
    }
    hits.sort_unstable();
    RtaResult {
        hits,
        full_evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::TopKQuery;
    use crate::reverse::reverse_top_k_naive;

    /// RTA and the naive oracle over nested test rows.
    fn both(objects: &[Vec<f64>], queries: &[TopKQuery], target: usize) -> (RtaResult, Vec<usize>) {
        let dim = objects[0].len();
        let objects = FlatMatrix::from_rows(dim, objects);
        let weights: Vec<&[f64]> = queries.iter().map(|q| q.weights.as_slice()).collect();
        let weights = FlatMatrix::from_rows(dim, &weights);
        let ks: Vec<usize> = queries.iter().map(|q| q.k).collect();
        (
            reverse_top_k(&objects, &weights, &ks, target),
            reverse_top_k_naive(&objects, &weights, &ks, target),
        )
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
    fn matches_naive_small() {
        let objects = vec![
            vec![1.0, 5.0],
            vec![2.0, 2.0],
            vec![5.0, 1.0],
            vec![3.0, 3.0],
        ];
        let queries = vec![
            TopKQuery::new(vec![1.0, 0.0], 2),
            TopKQuery::new(vec![0.0, 1.0], 2),
            TopKQuery::new(vec![0.5, 0.5], 1),
            TopKQuery::new(vec![0.7, 0.3], 3),
        ];
        for target in 0..objects.len() {
            let (got, want) = both(&objects, &queries, target);
            assert_eq!(got.hits, want, "target {target}");
        }
    }

    #[test]
    fn matches_naive_random() {
        let mut rnd = lcg(77);
        let objects: Vec<Vec<f64>> = (0..150).map(|_| vec![rnd(), rnd(), rnd()]).collect();
        let queries: Vec<TopKQuery> = (0..200)
            .map(|_| TopKQuery::new(vec![rnd(), rnd(), rnd()], 1 + (rnd() * 10.0) as usize))
            .collect();
        for target in [0usize, 17, 63] {
            let (got, want) = both(&objects, &queries, target);
            assert_eq!(got.hits, want, "target {target}");
        }
    }

    #[test]
    fn buffer_actually_skips_work() {
        // Clustered queries + an uncompetitive target: most queries should
        // be pruned by the threshold test.
        let mut rnd = lcg(5);
        let mut objects: Vec<Vec<f64>> = (0..100).map(|_| vec![rnd() * 0.5, rnd() * 0.5]).collect();
        objects.push(vec![0.99, 0.99]); // hopeless target, id 100
        let queries: Vec<TopKQuery> = (0..100)
            .map(|i| {
                let t = 0.4 + 0.2 * (i as f64 / 100.0);
                TopKQuery::new(vec![t, 1.0 - t], 5)
            })
            .collect();
        let (res, _) = both(&objects, &queries, 100);
        assert!(res.hits.is_empty());
        assert!(
            res.full_evaluations < queries.len() / 2,
            "expected pruning, got {} full evaluations out of {}",
            res.full_evaluations,
            queries.len()
        );
    }

    #[test]
    fn popular_target_hits_everything() {
        let objects = vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![2.0, 2.0]];
        let queries: Vec<TopKQuery> = (1..5)
            .map(|i| TopKQuery::new(vec![i as f64 * 0.1, 0.3], 1))
            .collect();
        let (res, _) = both(&objects, &queries, 0);
        assert_eq!(res.hits.len(), queries.len());
    }

    #[test]
    fn empty_queries() {
        let objects = FlatMatrix::from_rows(1, &[[1.0]]);
        let res = reverse_top_k(&objects, &FlatMatrix::new(1), &[], 0);
        assert!(res.hits.is_empty());
        assert_eq!(res.full_evaluations, 0);
    }
}
