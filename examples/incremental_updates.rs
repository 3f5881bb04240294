//! Data updating (§4.3): keep the subdomain index live while queries and
//! objects come, go and change, instead of rebuilding it — with the kNN
//! candidate fast path for new queries, in-place toplist splices for new
//! and moved objects, and the bloom-filter short circuit for object
//! removals.
//!
//! Run with `cargo run --release --example incremental_updates`.

use improvement_queries::core::update::{
    add_object, add_query, move_object, remove_last_object, remove_query, UpdateStats,
};
use improvement_queries::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The wall clock.
#[expect(
    clippy::disallowed_methods,
    reason = "this program times what it runs, so it reads the clock, but only here"
)]
fn now() -> Instant {
    Instant::now()
}

fn main() {
    let mut rng = StdRng::seed_from_u64(43);

    // A live marketplace: 2,000 listings, 600 standing buyer alerts.
    let mut instance = standard_instance(
        Distribution::Independent,
        QueryDistribution::Clustered,
        2000,
        600,
        3,
        8,
        7,
    );
    let t0 = now();
    let mut index = QueryIndex::build(&instance);
    println!(
        "initial build: {} queries in {} subdomains ({:.1} ms)",
        instance.num_queries(),
        index.num_subdomains(),
        t0.elapsed().as_secs_f64() * 1000.0
    );

    // A day of churn: new alerts arrive, stale ones leave, listings change.
    let mut stats = UpdateStats::default();
    let t0 = now();
    for i in 0..200 {
        match i % 4 {
            0 | 1 => {
                // New buyer alert near an existing preference cluster.
                let base = instance.weights(i % instance.num_queries());
                let w: Vec<f64> = base
                    .iter()
                    .map(|v| (v + (rng.gen::<f64>() - 0.5) * 0.02).clamp(0.0, 1.0))
                    .collect();
                add_query(
                    &mut instance,
                    &mut index,
                    TopKQuery::new(w, 1 + i % 7),
                    &mut stats,
                )
                .expect("add query");
            }
            2 => {
                let victim = rng.gen_range(0..instance.num_queries());
                remove_query(&mut instance, &mut index, victim);
            }
            _ => {
                let attrs: Vec<f64> = (0..3).map(|_| rng.gen()).collect();
                add_object(&mut instance, &mut index, &attrs, &mut stats).expect("add object");
                // A listing changes its attributes and keeps its id.
                let listing = rng.gen_range(0..instance.num_objects());
                let attrs: Vec<f64> = (0..3).map(|_| rng.gen()).collect();
                move_object(&mut instance, &mut index, listing, &attrs, &mut stats)
                    .expect("move object");
                if i % 8 == 7 {
                    remove_last_object(&mut instance, &mut index, &mut stats);
                }
            }
        }
    }
    let incremental = t0.elapsed().as_secs_f64() * 1000.0;
    println!(
        "200 mixed updates in {:.1} ms — kNN fast-assigned {} new queries, \
         spliced {} and recomputed {} candidate lists",
        incremental, stats.fast_assignments, stats.toplists_spliced, stats.toplists_recomputed
    );

    // The live index answers IQs exactly like a fresh rebuild would.
    index.check_invariants(&instance).expect("index consistent");
    let t0 = now();
    let rebuilt = QueryIndex::build(&instance);
    let rebuild_ms = t0.elapsed().as_secs_f64() * 1000.0;
    println!(
        "full rebuild for comparison: {:.1} ms ({} subdomains live vs {} rebuilt)",
        rebuild_ms,
        index.num_subdomains(),
        rebuilt.num_subdomains()
    );

    let target = 0;
    let report = min_cost_iq(
        &instance,
        &index,
        target,
        instance.hit_count_naive(target) + 10,
        &EuclideanCost,
        &StrategyBounds::unbounded(3),
        &SearchOptions::default(),
    );
    println!(
        "IQ on the live index: hits {} -> {} at cost {:.4} (achieved: {})",
        report.hits_before, report.hits_after, report.cost, report.achieved
    );
    assert_eq!(
        instance
            .with_strategy(target, &report.strategy)
            .hit_count_naive(target),
        report.hits_after
    );
}
