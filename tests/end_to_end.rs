//! End-to-end pipeline tests across the whole workspace: generated
//! workloads → subdomain index → the paper's four IQ-processing schemes →
//! truthfulness and quality-ordering checks (§6.3.2's expected shape).

use improvement_queries::core::baselines::{
    greedy_iq, random_min_cost_iq, rta_min_cost_iq, RtaEvaluator,
};
use improvement_queries::core::search::ese_evaluator;
use improvement_queries::core::{ExecPolicy, HitEvaluator};
use improvement_queries::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn scenario(dist: Distribution, seed: u64) -> (Instance, QueryIndex, usize, usize) {
    let inst = standard_instance(dist, QueryDistribution::Uniform, 60, 80, 3, 5, seed);
    let index = QueryIndex::build(&inst);
    // Pick a weak target so there is room to improve.
    let target = (0..inst.num_objects())
        .min_by_key(|&t| inst.hit_count_naive(t))
        .unwrap();
    let tau = (inst.hit_count_naive(target) + 8).min(inst.num_queries());
    (inst, index, target, tau)
}

#[test]
fn four_schemes_on_every_distribution() {
    for (dist, seed) in [
        (Distribution::Independent, 1u64),
        (Distribution::Correlated, 2),
        (Distribution::AntiCorrelated, 3),
    ] {
        let (inst, index, target, tau) = scenario(dist, seed);
        let cost = EuclideanCost;
        let bounds = StrategyBounds::unbounded(3);
        let opts = SearchOptions::default();

        // Efficient-IQ.
        let eff = min_cost_iq(&inst, &index, target, tau, &cost, &bounds, &opts);
        assert!(eff.achieved, "{dist:?}: Efficient-IQ failed to reach tau");
        assert_eq!(
            inst.with_strategy(target, &eff.strategy)
                .hit_count_naive(target),
            eff.hits_after
        );

        // RTA-IQ: identical strategy quality (§6.3.2).
        let rta = rta_min_cost_iq(&inst, target, tau, &cost, &bounds, &opts);
        assert_eq!(rta.hits_after, eff.hits_after, "{dist:?}");
        assert!((rta.cost - eff.cost).abs() < 1e-6, "{dist:?}");

        // Greedy: may stall short of tau (it ignores hit side effects, the
        // very weakness §6.3.2 reports); when it succeeds its cost-per-hit
        // must not beat the ratio-guided search.
        let mut gev = ese_evaluator(&inst, &index, target, &ExecPolicy::sequential());
        let greedy = greedy_iq(&mut gev, Some(tau), None, &cost, &bounds, &opts);
        assert_eq!(
            inst.with_strategy(target, &greedy.strategy)
                .hit_count_naive(target),
            greedy.hits_after,
            "{dist:?}: greedy report untruthful"
        );
        if greedy.achieved {
            assert!(
                eff.cost_per_hit() <= greedy.cost_per_hit() + 1e-9,
                "{dist:?}: Efficient-IQ beaten by simple greedy ({} vs {})",
                eff.cost_per_hit(),
                greedy.cost_per_hit()
            );
        }

        // Random: whatever it returns must be truthful and goal-consistent.
        // (Per-instance quality comparisons against Random are left to the
        // aggregate benchmarks — a lucky overshooting sample can win the
        // cost-per-hit ratio on one instance while losing on average.)
        let mut rev = ese_evaluator(&inst, &index, target, &ExecPolicy::sequential());
        let mut rng = StdRng::seed_from_u64(seed * 97);
        let rnd = random_min_cost_iq(&mut rev, tau, &cost, &bounds, &mut rng, 2000);
        assert_eq!(
            inst.with_strategy(target, &rnd.strategy)
                .hit_count_naive(target),
            rnd.hits_after,
            "{dist:?}: random report untruthful"
        );
        if rnd.achieved {
            assert!(rnd.hits_after >= tau, "{dist:?}");
        }
    }
}

#[test]
fn clustered_queries_pipeline() {
    let inst = standard_instance(
        Distribution::Independent,
        QueryDistribution::Clustered,
        50,
        100,
        3,
        4,
        11,
    );
    let index = QueryIndex::build(&inst);
    // Clustered queries collapse into few subdomains (the CL benefit).
    assert!(
        index.num_subdomains() < inst.num_queries(),
        "no subdomain sharing: {} groups for {} queries",
        index.num_subdomains(),
        inst.num_queries()
    );
    let target = 0;
    let r = max_hit_iq(
        &inst,
        &index,
        target,
        0.4,
        &EuclideanCost,
        &StrategyBounds::unbounded(3),
        &SearchOptions::default(),
    );
    assert!(r.cost <= 0.4 + 1e-6);
    assert_eq!(
        inst.with_strategy(target, &r.strategy)
            .hit_count_naive(target),
        r.hits_after
    );
}

#[test]
fn real_world_datasets_pipeline() {
    let mut rng = StdRng::seed_from_u64(5);
    for (name, ds) in [
        (
            "VEHICLE",
            improvement_queries::workload::real::vehicle_scaled(400, &mut rng),
        ),
        (
            "HOUSE",
            improvement_queries::workload::real::house_scaled(400, &mut rng),
        ),
    ] {
        let inst = improvement_queries::workload::real_instance(
            &ds,
            QueryDistribution::Uniform,
            120,
            5,
            9,
        );
        let index = QueryIndex::build(&inst);
        index.check_invariants(&inst).unwrap();
        let target = (0..inst.num_objects())
            .min_by_key(|&t| inst.hit_count_naive(t))
            .unwrap();
        let tau = (inst.hit_count_naive(target) + 5).min(inst.num_queries());
        let r = min_cost_iq(
            &inst,
            &index,
            target,
            tau,
            &EuclideanCost,
            &StrategyBounds::unbounded(inst.dim()),
            &SearchOptions::default(),
        );
        assert!(r.achieved, "{name}: failed to reach tau");
        assert_eq!(
            inst.with_strategy(target, &r.strategy)
                .hit_count_naive(target),
            r.hits_after,
            "{name}"
        );
    }
}

#[test]
fn rta_evaluator_and_ese_interchangeable_mid_search() {
    // Run the same greedy search through both evaluators step by step and
    // compare hit counts after each committed strategy.
    let inst = standard_instance(
        Distribution::Independent,
        QueryDistribution::Uniform,
        40,
        50,
        2,
        3,
        21,
    );
    let index = QueryIndex::build(&inst);
    let target = 7;
    let mut ese = ese_evaluator(&inst, &index, target, &ExecPolicy::sequential());
    let mut rta = RtaEvaluator::new(&inst, target);
    let steps = [
        Vector::from([-0.05, -0.02]),
        Vector::from([0.01, -0.08]),
        Vector::from([-0.1, 0.05]),
    ];
    for s in steps {
        assert_eq!(HitEvaluator::evaluate(&mut ese, &s), rta.evaluate(&s));
        HitEvaluator::apply(&mut ese, &s);
        rta.apply(&s);
        assert_eq!(HitEvaluator::hit_count(&ese), HitEvaluator::hit_count(&rta));
    }
}

use improvement_queries::geometry::Vector;
