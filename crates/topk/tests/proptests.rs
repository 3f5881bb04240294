//! Property-based tests: every top-k scheme must agree with the naive
//! oracle on arbitrary data.

use iq_geometry::matrix::FlatMatrix;
use iq_topk::{dominant_graph::DominantGraph, naive, reverse, rta};
use proptest::prelude::*;

fn objects(d: usize) -> impl Strategy<Value = FlatMatrix> {
    prop::collection::vec(prop::collection::vec(0.0f64..1.0, d), 1..60)
        .prop_map(move |rows| FlatMatrix::from_rows(d, &rows))
}

/// Query weights as rows, with their result sizes.
fn split(qs: Vec<(Vec<f64>, usize)>, d: usize) -> (FlatMatrix, Vec<usize>) {
    let (weights, ks): (Vec<Vec<f64>>, Vec<usize>) = qs.into_iter().unzip();
    (FlatMatrix::from_rows(d, &weights), ks)
}

fn weights(d: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..1.0, d)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dominant_graph_equals_naive(objs in objects(3), w in weights(3), k in 1usize..8) {
        let dg = DominantGraph::build(&objs);
        prop_assert_eq!(dg.top_k(&objs, &w, k), naive::top_k(&objs, &w, k, &mut Vec::new()));
    }

    #[test]
    fn rta_equals_naive(
        objs in objects(2),
        qs in prop::collection::vec((weights(2), 1usize..6), 1..30),
        target_seed in any::<usize>(),
    ) {
        let (weights, ks) = split(qs, 2);
        let target = target_seed % objs.rows();
        let got = rta::reverse_top_k(&objs, &weights, &ks, target).hits;
        let want = reverse::reverse_top_k_naive(&objs, &weights, &ks, target);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn topk_is_prefix_of_full_ranking(objs in objects(3), w in weights(3)) {
        let full = naive::full_ranking(&objs, &w);
        for k in 1..=objs.rows().min(10) {
            prop_assert_eq!(naive::top_k(&objs, &w, k, &mut Vec::new()), full[..k].to_vec());
        }
        // Ranks are consistent with the full ranking.
        for (pos, &id) in full.iter().enumerate() {
            prop_assert_eq!(naive::rank_of(&objs, &w, id), pos + 1);
        }
    }

    #[test]
    fn kth_best_excluding_is_the_admission_threshold(
        objs in objects(2), w in weights(2), k in 1usize..5, target_seed in any::<usize>(),
    ) {
        prop_assume!(objs.rows() > k);
        let target = target_seed % objs.rows();
        let (thresh_id, thresh) = naive::kth_best_excluding(&objs, &w, k, target).unwrap();
        prop_assert!(thresh_id != target);
        // The target hits the query iff it beats the threshold object under
        // the workspace tie-breaking rule.
        let ts = naive::score(objs.row(target), &w);
        let beats = naive::rank_cmp(ts, target, thresh, thresh_id) == std::cmp::Ordering::Less;
        let hit = naive::hits(&objs, &w, k, target);
        prop_assert_eq!(beats, hit);
    }

    #[test]
    fn reverse_k_ranks_sorted_and_bounded(
        objs in objects(2),
        qs in prop::collection::vec((weights(2), 1usize..4), 1..15),
        target_seed in any::<usize>(),
        k in 1usize..6,
    ) {
        let (weights, _) = split(qs, 2);
        let target = target_seed % objs.rows();
        let rr = reverse::reverse_k_ranks(&objs, &weights, target, k);
        prop_assert!(rr.len() <= k.min(weights.rows()));
        for w in rr.windows(2) {
            prop_assert!(w[0].1 <= w[1].1);
        }
        for (qi, r) in rr {
            prop_assert_eq!(naive::rank_of(&objs, weights.row(qi), target), r);
        }
    }
}
