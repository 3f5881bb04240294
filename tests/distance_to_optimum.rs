//! Distance to the optimum: how close the greedy searches land to the
//! exact optimum (`iq_core::exact`, branch-and-bound over query subsets,
//! Euclidean cost) on small seeded instances, held to floors.
//!
//! Per configuration it reports Max-Hit's summed gain as a share of the
//! exact gain and the cases at the optimum, and Min-Cost's mean and worst
//! cost over the exact cost, for Efficient-IQ and for Greedy. RTA-IQ runs
//! the same search, so its report must equal Efficient-IQ's bit for bit on
//! every case. Print the tables with
//! `cargo test --release --test distance_to_optimum -- --nocapture`.

use iq_core::baselines::{greedy_iq, rta_max_hit_iq, rta_min_cost_iq};
use iq_core::exact::{exact_max_hit_iq, exact_min_cost_iq};
use iq_core::search::ese_evaluator;
use iq_core::{
    max_hit_iq, min_cost_iq, EuclideanCost, ExecPolicy, IqReport, QueryIndex, SearchOptions,
    StrategyBounds,
};
use iq_workload::{standard_instance, Distribution, QueryDistribution};

/// The seeds every configuration runs, one instance each.
const SEEDS: std::ops::Range<u64> = 1000..1040;
/// Objects × queries per instance, with `k ≤ K_MAX` and uniform queries.
const N: usize = 40;
const M: usize = 16;
const K_MAX: usize = 3;
/// The improved object. Objects are drawn i.i.d., so it is a typical one.
const TARGET: usize = 0;
/// Max-Hit budgets, in attribute units (attributes lie in `[0, 1]`).
const BUDGETS: [f64; 2] = [0.1, 0.3];
/// Min-Cost asks for this many hits beyond the target's own.
const TAU_EXTRA: usize = 3;

/// Floors, set from the measured figures (EXPERIMENTS.md, "Distance to
/// the optimum"): Efficient-IQ's Max-Hit share of the exact gain, per
/// configuration (91.4% at the least) and over all of them (94.3%), and
/// Min-Cost's mean cost ratio (1.110 at the most, on IN d = 3, where two
/// overshoot steps of Algorithm 3 cost 2.4× and 1.5× the optimum).
const MAX_HIT_SHARE_FLOOR: f64 = 0.85;
const MAX_HIT_OVERALL_FLOOR: f64 = 0.90;
const MIN_COST_MEAN_CEILING: f64 = 1.12;

/// Byte-exact comparison key for an [`IqReport`], floats by bits.
fn report_bits(r: &IqReport) -> (Vec<u64>, u64, usize, usize, usize, usize, bool) {
    (
        r.strategy.as_slice().iter().map(|v| v.to_bits()).collect(),
        r.cost.to_bits(),
        r.hits_before,
        r.hits_after,
        r.iterations,
        r.candidates_evaluated,
        r.achieved,
    )
}

/// One Max-Hit configuration's sums over its cases.
#[derive(Default)]
struct MaxHitRow {
    exact_gain: usize,
    efficient_gain: usize,
    greedy_gain: usize,
    efficient_at_opt: usize,
    greedy_at_opt: usize,
}

/// `gain` as a percentage of `exact`.
fn percent(gain: usize, exact: usize) -> f64 {
    100.0 * gain as f64 / exact as f64
}

/// The mean and the largest of `ratios`.
fn mean_and_worst(ratios: &[f64]) -> (f64, f64) {
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    (
        mean,
        ratios.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    )
}

#[test]
fn greedy_searches_stay_near_the_exact_optimum() {
    let cost = EuclideanCost;
    let opts = SearchOptions {
        exec: ExecPolicy::sequential(),
        ..SearchOptions::default()
    };
    let mut failures = Vec::new();
    let mut max_hit_lines = Vec::new();
    let mut min_cost_lines = Vec::new();
    let (mut all_exact, mut all_efficient) = (0, 0);
    for dist in [Distribution::Independent, Distribution::AntiCorrelated] {
        for d in [2, 3] {
            let config = format!("{} d = {d}", dist.label());
            let mut max_hit: Vec<MaxHitRow> =
                BUDGETS.iter().map(|_| MaxHitRow::default()).collect();
            // Cost over the exact cost, per case: Efficient-IQ, Greedy.
            let mut min_cost: [Vec<f64>; 2] = Default::default();
            for seed in SEEDS {
                let inst =
                    standard_instance(dist, QueryDistribution::Uniform, N, M, d, K_MAX, seed);
                let index = QueryIndex::build_with(&inst, &ExecPolicy::sequential());
                let bounds = StrategyBounds::unbounded(d);
                let case = |goal: String| format!("{config} {goal} seed {seed}");
                let run_greedy = |tau, budget| {
                    let mut ev = ese_evaluator(&inst, &index, TARGET, &opts.exec);
                    greedy_iq(&mut ev, tau, budget, &cost, &bounds, &opts)
                };

                for (row, &beta) in max_hit.iter_mut().zip(&BUDGETS) {
                    let exact = exact_max_hit_iq(&inst, &index, TARGET, beta);
                    let efficient = max_hit_iq(&inst, &index, TARGET, beta, &cost, &bounds, &opts);
                    let rta = rta_max_hit_iq(&inst, TARGET, beta, &cost, &bounds, &opts);
                    if report_bits(&efficient) != report_bits(&rta) {
                        failures.push(format!("{}: RTA-IQ differs", case(format!("β = {beta}"))));
                    }
                    let greedy = run_greedy(None, Some(beta));
                    for (name, r) in [("Efficient-IQ", &efficient), ("Greedy", &greedy)] {
                        if r.hits_after > exact.hits_after {
                            failures.push(format!(
                                "{}: {name} hits {}, above the optimum's {}",
                                case(format!("β = {beta}")),
                                r.hits_after,
                                exact.hits_after
                            ));
                        }
                    }
                    let before = efficient.hits_before;
                    row.exact_gain += exact.hits_after - before;
                    row.efficient_gain += efficient.hits_after - before;
                    row.greedy_gain += greedy.hits_after - before;
                    row.efficient_at_opt += usize::from(efficient.hits_after == exact.hits_after);
                    row.greedy_at_opt += usize::from(greedy.hits_after == exact.hits_after);
                }

                let tau = inst.hit_count_naive(TARGET) + TAU_EXTRA;
                let Some(exact) = exact_min_cost_iq(&inst, &index, TARGET, tau) else {
                    failures.push(format!(
                        "{}: τ = {tau} is out of reach",
                        case(String::new())
                    ));
                    continue;
                };
                let efficient = min_cost_iq(&inst, &index, TARGET, tau, &cost, &bounds, &opts);
                let rta = rta_min_cost_iq(&inst, TARGET, tau, &cost, &bounds, &opts);
                if report_bits(&efficient) != report_bits(&rta) {
                    failures.push(format!("{}: RTA-IQ differs", case(format!("τ = {tau}"))));
                }
                let greedy = run_greedy(Some(tau), None);
                for ((name, r), ratios) in [("Efficient-IQ", &efficient), ("Greedy", &greedy)]
                    .into_iter()
                    .zip(&mut min_cost)
                {
                    if !r.achieved {
                        failures.push(format!("{}: {name} missed it", case(format!("τ = {tau}"))));
                    } else if r.cost < exact.cost - 1e-9 {
                        failures.push(format!(
                            "{}: {name} costs {}, below the optimum's {}",
                            case(format!("τ = {tau}")),
                            r.cost,
                            exact.cost
                        ));
                    }
                    ratios.push(r.cost / exact.cost);
                }
            }

            for (row, beta) in max_hit.iter().zip(BUDGETS) {
                max_hit_lines.push(format!(
                    "{:<4} {d:>2} {beta:>4} {:>6} | {:>6} {:>6.1}% {:>6} | {:>6} {:>6.1}% {:>6}",
                    dist.label(),
                    row.exact_gain,
                    row.efficient_gain,
                    percent(row.efficient_gain, row.exact_gain),
                    row.efficient_at_opt,
                    row.greedy_gain,
                    percent(row.greedy_gain, row.exact_gain),
                    row.greedy_at_opt,
                ));
                let share = percent(row.efficient_gain, row.exact_gain);
                if share < 100.0 * MAX_HIT_SHARE_FLOOR {
                    failures.push(format!(
                        "{config} β = {beta}: Efficient-IQ gains {share:.1}% of the exact gain"
                    ));
                }
                if row.efficient_gain < row.greedy_gain {
                    failures.push(format!(
                        "{config} β = {beta}: Efficient-IQ gains {} hits, Greedy {}",
                        row.efficient_gain, row.greedy_gain
                    ));
                }
                all_exact += row.exact_gain;
                all_efficient += row.efficient_gain;
            }

            let [(mean, worst), (greedy_mean, greedy_worst)] =
                min_cost.each_ref().map(|r| mean_and_worst(r));
            min_cost_lines.push(format!(
                "{:<4} {d:>2} {:>5} | {mean:>6.3} {worst:>6.3} | {greedy_mean:>6.3} {greedy_worst:>6.3}",
                dist.label(),
                min_cost[0].len(),
            ));
            if mean > MIN_COST_MEAN_CEILING {
                failures.push(format!("{config}: Min-Cost's mean cost ratio is {mean:.3}"));
            }
        }
    }
    let overall = percent(all_efficient, all_exact);

    println!(
        "Distance to the optimum: {N} × {M}, k ≤ {K_MAX}, UN queries, Euclidean cost, \
         target {TARGET}, seeds {}..{} ({} cases per row)",
        SEEDS.start,
        SEEDS.end,
        SEEDS.end - SEEDS.start
    );
    println!("\nMax-Hit: summed gain over the target's own hits, and cases at the optimum");
    println!(
        "{:<4} {:>2} {:>4} {:>6} | {:>22} | {:>22}",
        "data", "d", "β", "exact", "Efficient-IQ   at opt", "Greedy   at opt"
    );
    max_hit_lines.iter().for_each(|l| println!("{l}"));
    println!("Efficient-IQ overall: {all_efficient} of {all_exact} ({overall:.1}%)");
    println!("\nMin-Cost, τ = H + {TAU_EXTRA}: cost over the exact cost");
    println!(
        "{:<4} {:>2} {:>5} | {:>13} | {:>13}",
        "data", "d", "cases", "Efficient-IQ", "Greedy"
    );
    println!(
        "{:<13} | {:>6} {:>6} | {:>6} {:>6}",
        "", "mean", "worst", "mean", "worst"
    );
    min_cost_lines.iter().for_each(|l| println!("{l}"));

    if overall < 100.0 * MAX_HIT_OVERALL_FLOOR {
        failures.push(format!("Max-Hit overall share {overall:.1}%"));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
