//! The §6.3.2 quality story at a meaningful τ: when the improvement goal
//! is ambitious (a sizeable fraction of the workload), the ratio-guided
//! Efficient-IQ search clearly beats the Greedy and Random baselines on
//! cost — the ordering the paper's Figs. 7b–12b report. (At toy τ the
//! schemes can tie; this test pins the regime where they must separate.)

use improvement_queries::core::baselines::{greedy_iq, random_min_cost_iq};
use improvement_queries::core::search::ese_evaluator;
use improvement_queries::core::ExecPolicy;
use improvement_queries::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup() -> (Instance, QueryIndex, usize, usize) {
    let inst = standard_instance(
        Distribution::Independent,
        QueryDistribution::Uniform,
        80,
        120,
        3,
        4,
        2024,
    );
    let index = QueryIndex::build(&inst);
    // The least popular object, pushed to hit a quarter of the workload.
    let target = (0..inst.num_objects())
        .min_by_key(|&t| inst.hit_count_naive(t))
        .unwrap();
    let tau = (inst.hit_count_naive(target) + 30).min(inst.num_queries());
    (inst, index, target, tau)
}

#[test]
fn efficient_beats_greedy_on_cost_at_ambitious_tau() {
    let (inst, index, target, tau) = setup();
    let cost = EuclideanCost;
    let bounds = StrategyBounds::unbounded(3);
    let opts = SearchOptions::default();

    let eff = min_cost_iq(&inst, &index, target, tau, &cost, &bounds, &opts);
    assert!(eff.achieved, "Efficient-IQ must reach tau: {eff:?}");

    let mut gev = ese_evaluator(&inst, &index, target, &ExecPolicy::sequential());
    let greedy = greedy_iq(&mut gev, Some(tau), None, &cost, &bounds, &opts);

    // Either greedy fails outright (stalls) or pays at least as much.
    if greedy.achieved {
        assert!(
            eff.cost <= greedy.cost + 1e-9,
            "Efficient-IQ cost {} above greedy {}",
            eff.cost,
            greedy.cost
        );
    }
}

#[test]
fn efficient_beats_random_on_cost_at_ambitious_tau() {
    let (inst, index, target, tau) = setup();
    let cost = EuclideanCost;
    let bounds = StrategyBounds::unbounded(3);

    let eff = min_cost_iq(
        &inst,
        &index,
        target,
        tau,
        &cost,
        &bounds,
        &SearchOptions::default(),
    );
    assert!(eff.achieved);

    // Random over several seeds: the blind sampler overshoots massively at
    // an ambitious tau whenever it succeeds at all.
    let mut wins = 0;
    let mut trials = 0;
    for seed in 0..5u64 {
        let mut ev = ese_evaluator(&inst, &index, target, &ExecPolicy::sequential());
        let mut rng = StdRng::seed_from_u64(seed);
        let rnd = random_min_cost_iq(&mut ev, tau, &cost, &bounds, &mut rng, 1000);
        if rnd.achieved {
            trials += 1;
            if eff.cost <= rnd.cost {
                wins += 1;
            }
        }
    }
    if trials > 0 {
        assert_eq!(
            wins, trials,
            "Random found a cheaper strategy than Efficient-IQ at ambitious tau"
        );
    }
}
