//! Election-campaign scenario (the paper's second §1 motivation): position
//! several candidates of one party so the ticket appeals to as many voter
//! blocs as possible — a *combinatorial* improvement query (§5.1).
//!
//! Candidates are points in a 3-D policy space (economic, social, foreign
//! stance distance from each bloc's ideal — lower is better). Each voter
//! bloc shortlists its top-2 candidates. The party improves two of its
//! candidates under one shared budget; shifting a stance is costly and a
//! candidate's signature issue is frozen (flip-flopping there would be
//! fatal).
//!
//! Run with `cargo run --release --example election_campaign`.

use improvement_queries::core::multi::{multi_max_hit_iq, multi_min_cost_iq, TargetSpec};
use improvement_queries::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(1789);

    // 12 candidates across all parties; ids 0 and 1 are ours — and our
    // ticket enters the race polling badly (large stance distances).
    let mut candidates: Vec<Vec<f64>> = (0..12)
        .map(|_| (0..3).map(|_| rng.gen::<f64>() * 0.6).collect())
        .collect();
    candidates[0] = vec![0.85, 0.9, 0.8];
    candidates[1] = vec![0.9, 0.8, 0.95];

    // 300 voter blocs with clustered preferences (urban / rural / swing).
    let centroids = [[0.7, 0.2, 0.1], [0.2, 0.6, 0.2], [0.35, 0.35, 0.3]];
    let blocs: Vec<TopKQuery> = (0..300)
        .map(|i| {
            let c = centroids[i % centroids.len()];
            let w: Vec<f64> = c
                .iter()
                .map(|&v| (v + (rng.gen::<f64>() - 0.5) * 0.15).clamp(0.01, 1.0))
                .collect();
            TopKQuery::new(w, 2)
        })
        .collect();

    let instance = Instance::new(candidates, blocs).expect("valid instance");
    let index = QueryIndex::build(&instance);

    let before: usize = (0..instance.num_queries())
        .filter(|&q| {
            [0usize, 1].iter().any(|&t| {
                improvement_queries::topk::naive::hits(
                    instance.objects_flat(),
                    instance.weights(q),
                    instance.k(q),
                    t,
                )
            })
        })
        .count();
    println!("Party ticket (candidates #0 and #1) currently shortlisted by {before}/300 blocs.");

    // Candidate 0's signature issue is the economy (attr 0): frozen.
    // Candidate 1 campaigns freely but social shifts cost double.
    let cost0 = EuclideanCost;
    let cost1 = WeightedEuclideanCost::new(vec![1.0, 4.0, 1.0]);
    let opts = SearchOptions::default();
    let specs = vec![
        TargetSpec {
            target: 0,
            cost_fn: &cost0,
            bounds: StrategyBounds::unbounded(3).freeze(0),
        },
        TargetSpec {
            target: 1,
            cost_fn: &cost1,
            bounds: StrategyBounds::unbounded(3),
        },
    ];

    // --- Reach 60% of blocs at minimum repositioning cost. ---
    let tau = 180;
    let report = multi_min_cost_iq(&instance, &index, &specs, tau, &opts);
    println!("\n[Combinatorial Min-Cost] target {tau} blocs:");
    describe(&report);

    // --- Or: fixed war chest, maximize coverage. ---
    let budget = 1.0;
    let report = multi_max_hit_iq(&instance, &index, &specs, budget, &opts);
    println!("\n[Combinatorial Max-Hit] war chest {budget}:");
    describe(&report);
    assert!(report.total_cost <= budget + 1e-6);

    // Candidate 0's economic stance must not have moved.
    assert!(report.strategies[0][0].abs() < 1e-9);
}

fn describe(report: &improvement_queries::core::multi::MultiIqReport) {
    let issues = ["economic", "social", "foreign"];
    for (ci, (s, c)) in report.strategies.iter().zip(&report.costs).enumerate() {
        println!("  candidate #{ci}: cost {c:.4}");
        for (i, issue) in issues.iter().enumerate() {
            if s[i].abs() > 1e-9 {
                println!("    shift {issue:<8} stance by {:+.4}", s[i]);
            }
        }
    }
    println!(
        "  total cost {:.4}; bloc coverage {} -> {} (achieved: {})",
        report.total_cost, report.hits_before, report.hits_after, report.achieved
    );
}
