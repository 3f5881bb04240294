//! Know where you stand before you improve: the §2 related-work queries —
//! reverse top-k and reverse k-ranks — side by side with an improvement
//! query, showing why only the latter tells you *how to get better* (the
//! paper's core argument).
//!
//! Run with `cargo run --release --example rank_analytics`.

use improvement_queries::prelude::*;
use improvement_queries::topk::{
    reverse::{reverse_k_ranks, reverse_top_k_naive},
    rta,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    // A 2-attribute market (price-deficit, quality-deficit).
    let objects: Vec<Vec<f64>> = (0..40).map(|_| vec![rng.gen(), rng.gen()]).collect();
    let queries: Vec<TopKQuery> = (0..100)
        .map(|_| TopKQuery::new(vec![rng.gen(), rng.gen()], 1 + rng.gen_range(0..5)))
        .collect();
    let instance = Instance::new(objects, queries).unwrap();
    let (objects, weights, ks) = (
        instance.objects_flat(),
        instance.weights_flat(),
        instance.ks(),
    );

    // Our struggling product: fewest hits.
    let target = (0..instance.num_objects())
        .min_by_key(|&t| instance.hit_count_naive(t))
        .unwrap();

    // --- Reverse top-k (Vlachou et al.): who shortlists us today? ---
    let hits = reverse_top_k_naive(objects, weights, ks, target);
    let rta_res = rta::reverse_top_k(objects, weights, ks, target);
    assert_eq!(hits, rta_res.hits);
    println!(
        "reverse top-k:   object #{target} is shortlisted by {} of {} users \
         (RTA needed {} full evaluations)",
        hits.len(),
        ks.len(),
        rta_res.full_evaluations
    );

    // --- Reverse k-ranks (Zhang et al.): our most winnable users. ---
    let nearest = reverse_k_ranks(objects, weights, target, 3);
    println!("reverse 3-ranks: best ranks among users: {nearest:?}");

    // None of the above says what to CHANGE. The improvement query does:
    let index = QueryIndex::build(&instance);
    let tau = hits.len() + 10;
    let report = min_cost_iq(
        &instance,
        &index,
        target,
        tau,
        &EuclideanCost,
        &StrategyBounds::unbounded(2),
        &SearchOptions::default(),
    );
    println!(
        "improvement:     adjust attributes by {:?} (cost {:.4}) to reach {} users",
        report.strategy, report.cost, report.hits_after
    );
    assert!(report.hits_after > hits.len());
}
