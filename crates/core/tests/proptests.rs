//! Property-based tests for the improvement-query core: the indexed/ESE
//! fast paths must agree with exhaustive oracles on arbitrary instances,
//! and the searches must respect their contracts.

use iq_core::baselines::RtaEvaluator;
use iq_core::multi::{multi_max_hit_iq, multi_min_cost_iq, MultiIqReport, TargetSpec};
use iq_core::search::{ese_evaluator, run_max_hit, run_min_cost};
use iq_core::update::{
    add_object, add_query, move_object, remove_last_object, remove_query, UpdateStats,
};
use iq_core::{
    max_hit_iq, min_cost_iq, AsymmetricLinearCost, CostFunction, EuclideanCost, EvalContext,
    EvalCursor, ExecPolicy, ExprCost, HitEvaluator, Instance, IqReport, L1Cost, QueryIndex,
    SearchOptions, StrategyBounds, TopKQuery, WeightedEuclideanCost,
};
use iq_expr::Expr;
use iq_geometry::Vector;
use proptest::prelude::*;

/// Byte-exact comparison key for an [`IqReport`]: every float is compared
/// by its bit pattern, so "parallel ≡ sequential" means identical down to
/// the last rounding, not merely approximately equal.
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

/// Byte-exact comparison key for a [`MultiIqReport`], floats by bits.
type MultiBits = (Vec<Vec<u64>>, Vec<u64>, u64, usize, usize, usize, bool);

fn multi_bits(r: &MultiIqReport) -> MultiBits {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    (
        r.strategies.iter().map(|s| bits(s.as_slice())).collect(),
        bits(&r.costs),
        r.total_cost.to_bits(),
        r.hits_before,
        r.hits_after,
        r.iterations,
        r.achieved,
    )
}

fn coord() -> impl Strategy<Value = f64> {
    // Lattice coordinates: ties and boundary cases occur constantly.
    (0i32..8).prop_map(|x| x as f64 / 8.0)
}

fn instance() -> impl Strategy<Value = Instance> {
    (
        prop::collection::vec(prop::collection::vec(coord(), 3), 3..25),
        prop::collection::vec((prop::collection::vec(coord(), 3), 1usize..4), 1..30),
    )
        .prop_map(|(objects, qs)| {
            let queries = qs.into_iter().map(|(w, k)| TopKQuery::new(w, k)).collect();
            Instance::new(objects, queries).unwrap()
        })
}

/// [`instance`] plus exact copies of some objects and queries, so tied
/// scores, tied thresholds and tied candidate ratios all occur.
fn instance_with_ties() -> impl Strategy<Value = Instance> {
    (
        prop::collection::vec(prop::collection::vec(coord(), 3), 3..20),
        prop::collection::vec((prop::collection::vec(coord(), 3), 1usize..4), 1..24),
        prop::collection::vec(any::<usize>(), 0..4),
        prop::collection::vec(any::<usize>(), 0..6),
    )
        .prop_map(|(mut objects, qs, dup_objects, dup_queries)| {
            for d in dup_objects {
                objects.push(objects[d % objects.len()].clone());
            }
            let mut queries: Vec<TopKQuery> =
                qs.into_iter().map(|(w, k)| TopKQuery::new(w, k)).collect();
            for d in dup_queries {
                queries.push(queries[d % queries.len()].clone());
            }
            Instance::new(objects, queries).unwrap()
        })
}

/// Every cost function the search supports, with the bounds to run it
/// under: closed-form (plain and with frozen attributes), LP-backed, and
/// the numeric expression cost.
fn cost_functions() -> Vec<(&'static str, Box<dyn CostFunction>, StrategyBounds)> {
    let quadratic = Expr::attr(0)
        .pow(2)
        .add(Expr::c(2.0).mul(Expr::attr(1).pow(2)))
        .add(Expr::attr(2).pow(2));
    vec![
        (
            "euclidean",
            Box::new(EuclideanCost),
            StrategyBounds::unbounded(3),
        ),
        (
            "euclidean-frozen",
            Box::new(EuclideanCost),
            StrategyBounds::unbounded(3).freeze(1),
        ),
        ("l1", Box::new(L1Cost), StrategyBounds::unbounded(3)),
        (
            "weighted-euclidean",
            Box::new(WeightedEuclideanCost::new(vec![1.0, 2.5, 0.5])),
            StrategyBounds::unbounded(3),
        ),
        (
            "asymmetric-linear",
            Box::new(AsymmetricLinearCost::new(
                vec![3.0, 3.0, 3.0],
                vec![1.0, 0.5, 2.0],
            )),
            StrategyBounds::unbounded(3),
        ),
        (
            "expression",
            Box::new(ExprCost::new(quadratic, 3)),
            StrategyBounds::unbounded(3),
        ),
    ]
}

/// The goal of one greedy search.
#[derive(Clone, Copy)]
enum Goal {
    MinCost(usize),
    MaxHit(f64),
}

/// Algorithm 3 as printed and Algorithm 4 under §5.1's budget rule,
/// rebuilt from public parts: every unhit query's candidate is solved, and
/// every one the step can take is *scored*, before the step picks the
/// first strictly best cost-per-hit ratio. Max-Hit first drops the
/// candidates the remaining budget cannot cover, commits the best of the
/// rest, and stops when none is left; it has no fill pass. The library's
/// bound-pruned search must reproduce its report bit for bit.
fn exhaustive_oracle<E: HitEvaluator>(
    ev: &mut E,
    goal: Goal,
    cost_fn: &dyn CostFunction,
    bounds: &StrategyBounds,
) -> IqReport {
    let opts = SearchOptions::default();
    let hits_before = ev.hit_count();
    let (mut iterations, mut evaluated, mut stalls, mut spent) = (0, 0, 0, 0.0f64);
    loop {
        let unmet = match goal {
            Goal::MinCost(tau) => ev.hit_count() < tau,
            Goal::MaxHit(budget) => spent < budget,
        };
        if !unmet || iterations >= opts.max_iterations {
            break;
        }
        iterations += 1;
        let rem = bounds.remaining(ev.applied());
        // (strategy, cost, hits)
        let mut cands: Vec<(Vector, f64, usize)> = Vec::new();
        for q in 0..ev.instance().num_queries() {
            if ev.is_hit(q) {
                continue;
            }
            let Some(rhs) = ev.required_rhs(q) else {
                continue;
            };
            if let Some((s, c)) = cost_fn.min_cost_to_satisfy(ev.instance().weights(q), rhs, &rem) {
                cands.push((s, c, 0));
            }
        }
        evaluated += cands.len();
        if let Goal::MaxHit(budget) = goal {
            cands.retain(|c| spent + c.1 <= budget);
        }
        for c in &mut cands {
            c.2 = ev.evaluate(&c.0);
        }
        let mut best: Option<(usize, f64)> = None;
        for (i, c) in cands.iter().enumerate() {
            let ratio = if c.2 == 0 {
                f64::INFINITY
            } else {
                c.1 / c.2 as f64
            };
            if best.is_none_or(|(_, b)| ratio < b) {
                best = Some((i, ratio));
            }
        }
        let Some((best, _)) = best else {
            break;
        };
        // Only Min-Cost's overshoot ends the search mid-step.
        if let Goal::MinCost(tau) = goal {
            if cands[best].2 > tau {
                let winner = cands
                    .iter()
                    .filter(|c| c.2 >= tau)
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("the best candidate exceeds tau");
                ev.apply(&winner.0);
                break;
            }
        }
        let before = ev.hit_count();
        spent += cands[best].1;
        ev.apply(&cands[best].0);
        if ev.hit_count() <= before {
            stalls += 1;
            if stalls >= opts.max_stalls {
                break;
            }
        } else {
            stalls = 0;
        }
    }
    let strategy = ev.applied().clone();
    IqReport {
        cost: cost_fn.cost(&strategy),
        hits_before,
        hits_after: ev.hit_count(),
        iterations,
        candidates_evaluated: evaluated,
        achieved: match goal {
            Goal::MinCost(tau) => ev.hit_count() >= tau,
            Goal::MaxHit(_) => true,
        },
        strategy,
    }
}

/// §5.1's combinatorial Min-Cost and Max-Hit as printed, from public parts:
/// every `(target, query no target hits)` candidate, target-major and
/// query-ascending under its target's cost function and remaining bounds,
/// is solved *and scored* by its union gain; the step takes the first
/// strictly best cost-per-gain ratio among positive gains. Min-Cost takes
/// the cheapest candidate gaining `τ − U` when that best overshoots;
/// Max-Hit first drops what the budget cannot cover. The library's
/// bound-pruned drivers must reproduce its report bit for bit.
fn multi_exhaustive_oracle(
    inst: &Instance,
    index: &QueryIndex,
    targets: &[TargetSpec<'_>],
    goal: Goal,
) -> MultiIqReport {
    let exec = ExecPolicy::sequential();
    let mut evs: Vec<(EvalContext<'_>, EvalCursor)> = targets
        .iter()
        .map(|t| ese_evaluator(inst, index, t.target, &exec))
        .collect();
    // Per query: how many targets hit it.
    let mut hit_by: Vec<u32> = (0..inst.num_queries())
        .map(|q| evs.iter().filter(|(_, cursor)| cursor.is_hit(q)).count() as u32)
        .collect();
    let union = |hit_by: &[u32]| hit_by.iter().filter(|&&c| c > 0).count();
    let hits_before = union(&hit_by);
    let (mut iterations, mut spent) = (0, 0.0f64);
    loop {
        let unmet = match goal {
            Goal::MinCost(tau) => union(&hit_by) < tau,
            Goal::MaxHit(budget) => spent < budget,
        };
        if !unmet || iterations >= SearchOptions::default().max_iterations {
            break;
        }
        iterations += 1;
        // (target, strategy, cost, union gain)
        let mut cands: Vec<(usize, Vector, f64, i64)> = Vec::new();
        for (t, ((ctx, cursor), spec)) in evs.iter().zip(targets).enumerate() {
            let rem = spec.bounds.remaining(cursor.applied());
            for q in 0..inst.num_queries() {
                let Some(rhs) = ctx.required_rhs(cursor, q).filter(|_| hit_by[q] == 0) else {
                    continue;
                };
                if let Some((s, c)) = spec.cost_fn.min_cost_to_satisfy(inst.weights(q), rhs, &rem) {
                    let gain = ctx
                        .evaluate_changes(cursor, &s)
                        .iter()
                        .map(|&(q, _, now)| match (now, hit_by[q]) {
                            (true, 0) => 1,
                            (false, 1) => -1,
                            _ => 0,
                        })
                        .sum();
                    cands.push((t, s, c, gain));
                }
            }
        }
        if let Goal::MaxHit(budget) = goal {
            cands.retain(|c| spent + c.2 <= budget);
        }
        let mut best: Option<(usize, f64)> = None;
        for (i, c) in cands.iter().enumerate().filter(|(_, c)| c.3 > 0) {
            let ratio = c.2 / c.3 as f64;
            if best.is_none_or(|(_, b)| ratio < b) {
                best = Some((i, ratio));
            }
        }
        let Some((best, _)) = best else {
            break;
        };
        let chosen = match goal {
            Goal::MinCost(tau) if cands[best].3 > (tau - union(&hit_by)) as i64 => cands
                .iter()
                .enumerate()
                .filter(|(_, c)| c.3 >= (tau - union(&hit_by)) as i64)
                .min_by(|(_, a), (_, b)| a.2.total_cmp(&b.2))
                .map_or(best, |(i, _)| i),
            _ => best,
        };
        let (t, s, c, _) = &cands[chosen];
        spent += c;
        let (ctx, cursor) = &mut evs[*t];
        for (q, _, now) in ctx.evaluate_changes(cursor, s) {
            hit_by[q] = if now { hit_by[q] + 1 } else { hit_by[q] - 1 };
        }
        ctx.apply(cursor, s);
    }
    let strategies: Vec<Vector> = evs.iter().map(|(_, c)| c.applied().clone()).collect();
    let costs: Vec<f64> = strategies
        .iter()
        .zip(targets)
        .map(|(s, t)| t.cost_fn.cost(s))
        .collect();
    MultiIqReport {
        total_cost: costs.iter().sum(),
        costs,
        strategies,
        hits_before,
        hits_after: union(&hit_by),
        iterations,
        achieved: match goal {
            Goal::MinCost(tau) => union(&hit_by) >= tau,
            Goal::MaxHit(_) => true,
        },
    }
}

/// The union hit count of `targets` on `inst`, by naive top-k.
/// Whether `target` is in query `q`'s top-k (the naive oracle).
fn hits(inst: &Instance, q: usize, target: usize) -> bool {
    iq_topk::naive::hits(inst.objects_flat(), inst.weights(q), inst.k(q), target)
}

/// The instance's rows as `Instance::new` takes them.
fn rows(inst: &Instance) -> (Vec<Vec<f64>>, Vec<TopKQuery>) {
    let objects = inst
        .objects_flat()
        .iter_rows()
        .map(<[f64]>::to_vec)
        .collect();
    let queries = (0..inst.num_queries())
        .map(|q| TopKQuery::new(inst.weights(q).to_vec(), inst.k(q)))
        .collect();
    (objects, queries)
}

fn union_hits_naive(inst: &Instance, targets: &[usize]) -> usize {
    (0..inst.num_queries())
        .filter(|&q| targets.iter().any(|&t| hits(inst, q, t)))
        .count()
}

fn strategy() -> impl Strategy<Value = Vector> {
    prop::collection::vec((-4i32..4).prop_map(|x| x as f64 / 8.0), 3).prop_map(Vector::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ese_fast_equals_ground_truth(inst in instance(), s in strategy(), tsel in any::<usize>()) {
        let target = tsel % inst.num_objects();
        let index = QueryIndex::build(&inst);
        let (ctx, cursor) = ese_evaluator(&inst, &index, target, &ExecPolicy::sequential());
        prop_assert_eq!(cursor.hit_count(), inst.hit_count_naive(target));
        let fast = ctx.evaluate(&cursor, &s);
        let improved = inst.with_strategy(target, &s);
        prop_assert_eq!(fast, improved.hit_count_naive(target));
        prop_assert_eq!(ctx.evaluate_pairwise(&cursor, &index, &s), fast);
    }

    #[test]
    fn ese_changes_report_is_exact(inst in instance(), s in strategy(), tsel in any::<usize>()) {
        let target = tsel % inst.num_objects();
        let index = QueryIndex::build(&inst);
        let (ctx, cursor) = ese_evaluator(&inst, &index, target, &ExecPolicy::sequential());
        let changes = ctx.evaluate_changes(&cursor, &s);
        let improved = inst.with_strategy(target, &s);
        // Changes come in strictly ascending query id, whatever the shape
        // of the trees that found them.
        prop_assert!(
            changes.windows(2).all(|w| w[0].0 < w[1].0),
            "changes not sorted by query id"
        );
        // Every reported change is real, and no real change is missed.
        let mut reported = vec![None; inst.num_queries()];
        for (q, was, now) in &changes {
            prop_assert!(was != now);
            reported[*q] = Some(*now);
        }
        for (q, &rep) in reported.iter().enumerate() {
            let was = hits(&inst, q, target);
            let now = hits(&improved, q, target);
            match rep {
                Some(r) => {
                    prop_assert_eq!(r, now, "query {} wrong direction", q);
                    prop_assert_ne!(was, now, "query {} reported but unchanged", q);
                }
                None => prop_assert_eq!(was, now, "query {} change missed", q),
            }
        }
    }

    #[test]
    fn rta_evaluator_agrees_with_ese(inst in instance(), s in strategy(), tsel in any::<usize>()) {
        let target = tsel % inst.num_objects();
        let index = QueryIndex::build(&inst);
        let mut ese = ese_evaluator(&inst, &index, target, &ExecPolicy::sequential());
        let mut rta = RtaEvaluator::new(&inst, target);
        prop_assert_eq!(ese.hit_count(), HitEvaluator::hit_count(&rta));
        prop_assert_eq!(ese.evaluate(&s), rta.evaluate(&s));
    }

    #[test]
    fn min_cost_contract(inst in instance(), tsel in any::<usize>(), extra in 1usize..6) {
        let target = tsel % inst.num_objects();
        let index = QueryIndex::build(&inst);
        let before = inst.hit_count_naive(target);
        let tau = (before + extra).min(inst.num_queries());
        let r = min_cost_iq(
            &inst, &index, target, tau,
            &EuclideanCost, &StrategyBounds::unbounded(3), &SearchOptions::default(),
        );
        // Reported hits must be truthful.
        let improved = inst.with_strategy(target, &r.strategy);
        prop_assert_eq!(improved.hit_count_naive(target), r.hits_after);
        prop_assert_eq!(r.hits_before, before);
        if r.achieved {
            prop_assert!(r.hits_after >= tau);
        }
        // Cost consistent with the strategy.
        prop_assert!((r.cost - r.strategy.norm()).abs() < 1e-9);
    }

    #[test]
    fn max_hit_contract(inst in instance(), tsel in any::<usize>(), budget in 0.0f64..1.0) {
        let target = tsel % inst.num_objects();
        let index = QueryIndex::build(&inst);
        let before = inst.hit_count_naive(target);
        let r = max_hit_iq(
            &inst, &index, target, budget,
            &EuclideanCost, &StrategyBounds::unbounded(3), &SearchOptions::default(),
        );
        let improved = inst.with_strategy(target, &r.strategy);
        prop_assert_eq!(improved.hit_count_naive(target), r.hits_after);
        prop_assert!(r.hits_after >= before, "max-hit lost hits");
        prop_assert!(r.cost <= budget + 1e-6, "cost {} over budget {}", r.cost, budget);
    }

    #[test]
    fn multi_target_union_reports_truthful(
        inst in instance(),
        t1 in any::<usize>(),
        t2 in any::<usize>(),
        extra in 1usize..5,
    ) {
        let n = inst.num_objects();
        let (a, b) = (t1 % n, t2 % n);
        prop_assume!(a != b);
        let index = QueryIndex::build(&inst);
        let cost = EuclideanCost;
        let specs = [
            TargetSpec { target: a, cost_fn: &cost, bounds: StrategyBounds::unbounded(3) },
            TargetSpec { target: b, cost_fn: &cost, bounds: StrategyBounds::unbounded(3) },
        ];
        let union_before = union_hits_naive(&inst, &[a, b]);
        let tau = (union_before + extra).min(inst.num_queries());
        let r = multi_min_cost_iq(&inst, &index, &specs, tau, &SearchOptions::default());
        prop_assert_eq!(r.hits_before, union_before);
        // Ground-truth union after applying both strategies.
        let mut improved = inst.clone();
        improved.apply_strategy(a, &r.strategies[0]).unwrap();
        improved.apply_strategy(b, &r.strategies[1]).unwrap();
        prop_assert_eq!(union_hits_naive(&improved, &[a, b]), r.hits_after);
        // Total cost is the sum of the per-target costs.
        let sum: f64 = r.costs.iter().sum();
        prop_assert!((sum - r.total_cost).abs() < 1e-9);
        if r.achieved {
            prop_assert!(r.hits_after >= tau);
        }
    }

    #[test]
    fn parallel_search_equals_sequential(
        inst in instance(),
        tsel in any::<usize>(),
        t2sel in any::<usize>(),
        extra in 1usize..6,
        budget in 0.0f64..1.0,
    ) {
        let target = tsel % inst.num_objects();
        // A second target for the §5.1 searches.
        let other = (target + 1 + t2sel % (inst.num_objects() - 1)) % inst.num_objects();
        let specs = [target, other].map(|t| TargetSpec {
            target: t,
            cost_fn: &EuclideanCost,
            bounds: StrategyBounds::unbounded(3),
        });
        let bounds = StrategyBounds::unbounded(3);
        let cost = EuclideanCost;

        // Sequential reference: one thread everywhere (index build and
        // ESE context construction).
        let seq = SearchOptions {
            exec: ExecPolicy::sequential(),
            ..SearchOptions::default()
        };
        let index = QueryIndex::build_with(&inst, &seq.exec);
        let tau = (inst.hit_count_naive(target) + extra).min(inst.num_queries());
        let mc_ref = min_cost_iq(&inst, &index, target, tau, &cost, &bounds, &seq);
        let mh_ref = max_hit_iq(&inst, &index, target, budget, &cost, &bounds, &seq);
        let union_tau = (union_hits_naive(&inst, &[target, other]) + extra).min(inst.num_queries());
        let mmc_ref = multi_min_cost_iq(&inst, &index, &specs, union_tau, &seq);
        let mmh_ref = multi_max_hit_iq(&inst, &index, &specs, budget, &seq);

        for threads in [2usize, 3, 8] {
            let par = SearchOptions {
                exec: ExecPolicy::with_threads(threads),
                ..SearchOptions::default()
            };
            let pindex = QueryIndex::build_with(&inst, &par.exec);
            let mc = min_cost_iq(&inst, &pindex, target, tau, &cost, &bounds, &par);
            let mh = max_hit_iq(&inst, &pindex, target, budget, &cost, &bounds, &par);
            let mmc = multi_min_cost_iq(&inst, &pindex, &specs, union_tau, &par);
            let mmh = multi_max_hit_iq(&inst, &pindex, &specs, budget, &par);
            prop_assert_eq!(
                report_bits(&mc), report_bits(&mc_ref),
                "min-cost report drifted at {} threads", threads
            );
            prop_assert_eq!(
                report_bits(&mh), report_bits(&mh_ref),
                "max-hit report drifted at {} threads", threads
            );
            prop_assert_eq!(
                multi_bits(&mmc), multi_bits(&mmc_ref),
                "multi min-cost report drifted at {} threads", threads
            );
            prop_assert_eq!(
                multi_bits(&mmh), multi_bits(&mmh_ref),
                "multi max-hit report drifted at {} threads", threads
            );
        }
    }

    #[test]
    fn pruned_search_equals_exhaustive_oracle(
        inst in instance_with_ties(),
        tsel in any::<usize>(),
        extra in 1usize..8,
        budget in 0.0f64..1.5,
    ) {
        let target = tsel % inst.num_objects();
        let index = QueryIndex::build(&inst);
        let tau = (inst.hit_count_naive(target) + extra).min(inst.num_queries());
        let opts = SearchOptions::default();
        for (name, cost, bounds) in cost_functions() {
            let cost = cost.as_ref();
            for goal in [Goal::MinCost(tau), Goal::MaxHit(budget)] {
                let (pruned, rta) = match goal {
                    Goal::MinCost(tau) => (
                        min_cost_iq(&inst, &index, target, tau, cost, &bounds, &opts),
                        run_min_cost(&mut RtaEvaluator::new(&inst, target), tau, cost, &bounds, &opts),
                    ),
                    Goal::MaxHit(budget) => (
                        max_hit_iq(&inst, &index, target, budget, cost, &bounds, &opts),
                        run_max_hit(&mut RtaEvaluator::new(&inst, target), budget, cost, &bounds, &opts),
                    ),
                };
                let ese_oracle = exhaustive_oracle(
                    &mut ese_evaluator(&inst, &index, target, &ExecPolicy::sequential()), goal, cost, &bounds,
                );
                let rta_oracle =
                    exhaustive_oracle(&mut RtaEvaluator::new(&inst, target), goal, cost, &bounds);
                prop_assert_eq!(
                    report_bits(&pruned), report_bits(&ese_oracle),
                    "ESE search drifted from the oracle under {}", name
                );
                prop_assert_eq!(
                    report_bits(&rta), report_bits(&rta_oracle),
                    "RTA search drifted from the oracle under {}", name
                );
            }
        }
    }

    #[test]
    fn multi_pruned_equals_exhaustive_oracle(
        inst in instance_with_ties(),
        tsel in prop::collection::vec(any::<usize>(), 2..5),
        twin in any::<bool>(),
        signed in any::<bool>(),
        extra in 1usize..8,
        budget in 0.0f64..1.5,
    ) {
        let mut ids: Vec<usize> = tsel.iter().map(|t| t % inst.num_objects()).collect();
        ids.sort_unstable();
        ids.dedup();
        let (mut objects, mut queries) = rows(&inst);
        // A twin: the first target's object again, as one more target.
        if twin {
            objects.push(objects[ids[0]].clone());
            ids.push(objects.len() - 1);
        }
        // Mixed-sign weights, so a strategy can also lose hits (duplicate
        // queries stay duplicates).
        if signed {
            for q in queries.iter_mut().filter(|q| q.weights[0] > q.weights[2]) {
                q.weights[1] = -q.weights[1];
            }
        }
        let inst = Instance::new(objects, queries).unwrap();
        prop_assume!(ids.len() >= 2);
        let index = QueryIndex::build(&inst);
        let tau = (union_hits_naive(&inst, &ids) + extra).min(inst.num_queries());
        let opts = SearchOptions::default();
        let costs = cost_functions();
        // Every cost for all targets alike, then one cost per target in turn.
        let mut cases: Vec<(String, Vec<TargetSpec<'_>>)> = costs
            .iter()
            .map(|(name, cost, bounds)| {
                let specs = ids
                    .iter()
                    .map(|&t| TargetSpec { target: t, cost_fn: cost.as_ref(), bounds: bounds.clone() })
                    .collect();
                (name.to_string(), specs)
            })
            .collect();
        let mixed = ids
            .iter()
            .zip(costs.iter().cycle())
            .map(|(&t, (_, cost, bounds))| {
                TargetSpec { target: t, cost_fn: cost.as_ref(), bounds: bounds.clone() }
            })
            .collect();
        cases.push(("mixed".to_string(), mixed));
        for (name, specs) in &cases {
            for goal in [Goal::MinCost(tau), Goal::MaxHit(budget)] {
                let pruned = match goal {
                    Goal::MinCost(tau) => multi_min_cost_iq(&inst, &index, specs, tau, &opts),
                    Goal::MaxHit(budget) => multi_max_hit_iq(&inst, &index, specs, budget, &opts),
                };
                let oracle = multi_exhaustive_oracle(&inst, &index, specs, goal);
                prop_assert_eq!(
                    multi_bits(&pruned), multi_bits(&oracle),
                    "§5.1 search drifted from the oracle under {}", name
                );
            }
        }
    }

    #[test]
    fn updates_equal_rebuild(
        inst in instance(),
        new_queries in prop::collection::vec((prop::collection::vec(coord(), 3), 1usize..4), 0..6),
        new_objects in prop::collection::vec(prop::collection::vec(coord(), 3), 0..4),
        removals in prop::collection::vec(any::<usize>(), 0..4),
    ) {
        let kprime = QueryIndex::build(&inst).kprime();
        let mut live = inst.clone();
        let mut index = QueryIndex::build(&live);
        let mut stats = UpdateStats::default();
        for (w, k) in new_queries {
            if k < kprime {
                add_query(&mut live, &mut index, TopKQuery::new(w, k), &mut stats).unwrap();
            }
        }
        for attrs in new_objects {
            add_object(&mut live, &mut index, &attrs, &mut stats).unwrap();
        }
        for r in removals {
            if live.num_queries() > 1 {
                let qid = r % live.num_queries();
                remove_query(&mut live, &mut index, qid);
            }
        }
        index.check_invariants(&live).map_err(TestCaseError::fail)?;
        // A fresh rebuild may choose a smaller K' (removals can shrink the
        // max k); the maintained index is a refinement — compare prefixes.
        let fresh = QueryIndex::build(&live);
        let common = index.kprime().min(fresh.kprime());
        for q in 0..live.num_queries() {
            let a = &index.toplist_of(q)[..common.min(index.toplist_of(q).len())];
            let b = &fresh.toplist_of(q)[..common.min(fresh.toplist_of(q).len())];
            prop_assert_eq!(a, b, "query {} stale", q);
        }
    }

    /// Random interleavings of every §4.3 update — object moves (to a
    /// random spot, onto another object's exact position, and of a list's
    /// tail member), object appends (duplicates included), query appends,
    /// last-object and query removals — keep the maintained index equal to
    /// a fresh build after every step: same toplist per query, same query
    /// partition. Query 0 carries the largest k and is never removed, so
    /// both indexes keep the same `K'`.
    #[test]
    fn moves_and_inserts_equal_a_fresh_build(
        inst in instance_with_ties(),
        ops in prop::collection::vec(
            (0u8..7, any::<usize>(), any::<usize>(), prop::collection::vec(coord(), 3), 1usize..4),
            1..24,
        ),
    ) {
        let (objects, mut queries) = rows(&inst);
        queries[0].k = 3;
        let mut live = Instance::new(objects, queries).unwrap();
        let mut index = QueryIndex::build(&live);
        let mut stats = UpdateStats::default();
        for (step, (op, a, b, coords, k)) in ops.into_iter().enumerate() {
            let n = live.num_objects();
            match op {
                0 => move_object(&mut live, &mut index, a % n, &coords, &mut stats).unwrap(),
                1 => {
                    let attrs = live.object(b % n).to_vec();
                    move_object(&mut live, &mut index, a % n, &attrs, &mut stats).unwrap();
                }
                2 => {
                    let tail = *index.toplist_of(a % live.num_queries()).last().unwrap();
                    move_object(&mut live, &mut index, tail as usize, &coords, &mut stats).unwrap();
                }
                3 => {
                    let attrs = if a % 2 == 0 { coords } else { live.object(b % n).to_vec() };
                    add_object(&mut live, &mut index, &attrs, &mut stats).unwrap();
                }
                4 => {
                    add_query(&mut live, &mut index, TopKQuery::new(coords, k), &mut stats)
                        .unwrap();
                }
                5 if n > 1 => {
                    remove_last_object(&mut live, &mut index, &mut stats);
                }
                6 if live.num_queries() > 1 => {
                    let qid = 1 + a % (live.num_queries() - 1);
                    remove_query(&mut live, &mut index, qid);
                }
                _ => {}
            }
            index.check_invariants(&live).map_err(TestCaseError::fail)?;
            let fresh = QueryIndex::build(&live);
            prop_assert_eq!(index.kprime(), fresh.kprime());
            for q in 0..live.num_queries() {
                prop_assert_eq!(
                    index.toplist_of(q), fresh.toplist_of(q),
                    "step {}: query {} differs from a fresh build", step, q
                );
                for p in 0..q {
                    prop_assert_eq!(
                        index.subdomain_of(p) == index.subdomain_of(q),
                        fresh.subdomain_of(p) == fresh.subdomain_of(q),
                        "step {}: queries {} and {} grouped differently", step, p, q
                    );
                }
            }
            prop_assert_eq!(index.num_subdomains(), fresh.num_subdomains());
        }
    }
}
