//! Combinatorial object improvement (§5.1): improving *several* targets at
//! once.
//!
//! Each target carries its own cost function (and bounds); a query counts
//! **once** toward the union hit total no matter how many targets hit it.
//! The searches are the single-target Algorithms 3/4 on the same
//! bound-pruned candidate engine ([`crate::search`]), with candidates drawn
//! from every `(target, query no target hits)` pair and scored by the union
//! hits they gain:
//!
//! * Combinatorial Min-Cost (Definition 5): Σ hits ≥ τ, minimize Σ costs.
//! * Combinatorial Max-Hit (Definition 6): Σ costs ≤ β, maximize Σ hits.
//!
//! Target `t`'s candidate of cost `c` gains at most
//! `#{q no target hits : c_{t,q} ≤ c}`, so the single-target hit bounds
//! carry over with base 0. A candidate with no positive gain is never
//! committed, and with finite costs the reports equal scoring every
//! candidate (property-tested against the exhaustive loop in
//! `crates/core/tests/proptests.rs`).

use crate::cost::{CostFunction, StrategyBounds};
use crate::ese::{EvalContext, EvalCursor};
use crate::model::{ImprovementStrategy, Instance};
use crate::search::{
    candidates, ese_evaluator, min_cost_step, pick, Candidate, HitEvaluator, SearchOptions, Step,
};
use crate::subdomain::QueryIndex;

/// One target's specification: object id, cost model, validity bounds.
pub struct TargetSpec<'a> {
    /// The object to improve.
    pub target: usize,
    /// Its cost function (targets may differ, §5.1).
    pub cost_fn: &'a dyn CostFunction,
    /// Its validity bounds.
    pub bounds: StrategyBounds,
}

/// The outcome of a combinatorial improvement query.
#[derive(Debug, Clone)]
pub struct MultiIqReport {
    /// Per input target: the cumulative strategy applied to it.
    pub strategies: Vec<ImprovementStrategy>,
    /// Per input target: its strategy's cost under its own cost function.
    pub costs: Vec<f64>,
    /// Σ costs.
    pub total_cost: f64,
    /// Union hit count before improvement.
    pub hits_before: usize,
    /// Union hit count after improvement.
    pub hits_after: usize,
    /// Greedy iterations executed.
    pub iterations: usize,
    /// Whether the goal was met.
    pub achieved: bool,
}

/// Shared state: per-target ESE evaluators plus the union hit bookkeeping.
struct MultiState<'a, 't> {
    targets: &'t [TargetSpec<'t>],
    evals: Vec<(EvalContext<'a>, EvalCursor)>,
    /// Per query: how many targets currently hit it.
    hit_by: Vec<u32>,
    union_hits: usize,
}

impl<'a, 't> MultiState<'a, 't> {
    fn new(
        instance: &'a Instance,
        index: &QueryIndex,
        targets: &'t [TargetSpec<'t>],
        opts: &SearchOptions,
    ) -> Self {
        let evals: Vec<_> = targets
            .iter()
            .map(|t| ese_evaluator(instance, index, t.target, &opts.exec))
            .collect();
        let hit_by: Vec<u32> = (0..instance.num_queries())
            .map(|q| evals.iter().filter(|(_, cursor)| cursor.is_hit(q)).count() as u32)
            .collect();
        let union_hits = hit_by.iter().filter(|&&c| c > 0).count();
        MultiState {
            targets,
            evals,
            hit_by,
            union_hits,
        }
    }

    /// One iteration's candidates, target-major and query-ascending: for
    /// each target, the cheapest strategy (under its own cost function and
    /// remaining bounds) to hit each query no target hits yet.
    fn candidates(&self) -> Vec<Candidate> {
        let mut out = Vec::new();
        for (t, (ev, spec)) in self.evals.iter().zip(self.targets).enumerate() {
            let rem = spec.bounds.remaining(ev.applied());
            out.extend(candidates(
                ev,
                t,
                spec.cost_fn,
                &rem,
                |q| self.hit_by[q] > 0,
                0,
            ));
        }
        out
    }

    /// A candidate's score: the union hits it gains, 0 when it gains none
    /// on balance. Nothing is committed.
    fn gain(&self, c: &Candidate) -> usize {
        let (ctx, cursor) = &self.evals[c.target];
        let mut delta = 0i64;
        for (q, _, now) in ctx.evaluate_changes(cursor, &c.strategy) {
            if now && self.hit_by[q] == 0 {
                delta += 1; // first target to hit q
            } else if !now && self.hit_by[q] == 1 {
                delta -= 1; // last hitter leaves q
            }
        }
        delta.max(0) as usize
    }

    fn commit(&mut self, c: &Candidate) {
        let (ctx, cursor) = &mut self.evals[c.target];
        for (q, _, now) in ctx.evaluate_changes(cursor, &c.strategy) {
            let before = self.hit_by[q];
            self.hit_by[q] = if now { before + 1 } else { before - 1 };
            // q joins the union with its first hitter and leaves with its last.
            self.union_hits =
                self.union_hits + (before == 0) as usize - (self.hit_by[q] == 0) as usize;
        }
        ctx.apply(cursor, &c.strategy);
    }

    fn finish(self, hits_before: usize, iterations: usize, achieved: bool) -> MultiIqReport {
        let strategies: Vec<ImprovementStrategy> = self
            .evals
            .iter()
            .map(|(_, cursor)| cursor.applied().clone())
            .collect();
        let costs: Vec<f64> = strategies
            .iter()
            .zip(self.targets)
            .map(|(s, t)| t.cost_fn.cost(s))
            .collect();
        MultiIqReport {
            total_cost: costs.iter().sum(),
            costs,
            strategies,
            hits_before,
            hits_after: self.union_hits,
            iterations,
            achieved,
        }
    }
}

/// Combinatorial **Min-Cost** improvement (Definition 5 / §5.1 steps 1–3).
pub fn multi_min_cost_iq(
    instance: &Instance,
    index: &QueryIndex,
    targets: &[TargetSpec<'_>],
    tau: usize,
    opts: &SearchOptions,
) -> MultiIqReport {
    let mut state = MultiState::new(instance, index, targets, opts);
    let hits_before = state.union_hits;
    let mut iterations = 0;
    while state.union_hits < tau && iterations < opts.max_iterations {
        iterations += 1;
        let mut cands = state.candidates();
        // §5.1 step 2: avoid over-achieving τ — when the best candidate
        // overshoots, take the cheapest candidate that gains enough.
        let need = tau - state.union_hits;
        let Some((chosen, _)) = min_cost_step(&mut cands, need, |c| state.gain(c)) else {
            break;
        };
        if cands[chosen].hits == Some(0) {
            break; // no candidate gains a union hit
        }
        state.commit(&cands[chosen]);
    }
    let achieved = state.union_hits >= tau;
    state.finish(hits_before, iterations, achieved)
}

/// Combinatorial **Max-Hit** improvement (Definition 6 / §5.1 steps 1–3).
pub fn multi_max_hit_iq(
    instance: &Instance,
    index: &QueryIndex,
    targets: &[TargetSpec<'_>],
    budget: f64,
    opts: &SearchOptions,
) -> MultiIqReport {
    let mut state = MultiState::new(instance, index, targets, opts);
    let hits_before = state.union_hits;
    let mut iterations = 0;
    let mut spent = 0.0f64;
    while spent < budget && iterations < opts.max_iterations {
        iterations += 1;
        // §5.1 step 2: filter candidates to the remaining budget.
        let mut cands: Vec<Candidate> = state
            .candidates()
            .into_iter()
            .filter(|c| spent + c.cost_inc <= budget)
            .collect();
        // Nothing ends the search, so a step commits unless no candidate
        // is left.
        let Some(Step::Commit(best)) = pick(&mut cands, |c| state.gain(c), None) else {
            break;
        };
        if cands[best].hits == Some(0) {
            break; // no affordable candidate gains a union hit
        }
        spent += cands[best].cost_inc;
        state.commit(&cands[best]);
    }
    state.finish(hits_before, iterations, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{EuclideanCost, WeightedEuclideanCost};
    use crate::model::TopKQuery;
    use crate::search::min_cost_iq;

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        }
    }

    fn random_instance(n: usize, m: usize, d: usize, kmax: usize, seed: u64) -> Instance {
        let mut rnd = lcg(seed);
        let objects: Vec<Vec<f64>> = (0..n).map(|_| (0..d).map(|_| rnd()).collect()).collect();
        let queries: Vec<TopKQuery> = (0..m)
            .map(|_| {
                let w: Vec<f64> = (0..d).map(|_| rnd()).collect();
                TopKQuery::new(w, 1 + (rnd() * kmax as f64) as usize)
            })
            .collect();
        Instance::new(objects, queries).unwrap()
    }

    fn union_hits_ground_truth(inst: &Instance, targets: &[usize]) -> usize {
        (0..inst.num_queries())
            .filter(|&q| {
                targets.iter().any(|&t| {
                    iq_topk::naive::hits(inst.objects_flat(), inst.weights(q), inst.k(q), t)
                })
            })
            .count()
    }

    #[test]
    fn single_target_multi_matches_single_search() {
        let inst = random_instance(25, 40, 3, 3, 91);
        let idx = QueryIndex::build(&inst);
        let cost = EuclideanCost;
        let target = 5;
        let tau = (inst.hit_count_naive(target) + 5).min(inst.num_queries());
        let single = min_cost_iq(
            &inst,
            &idx,
            target,
            tau,
            &cost,
            &StrategyBounds::unbounded(3),
            &SearchOptions::default(),
        );
        let specs = [TargetSpec {
            target,
            cost_fn: &cost,
            bounds: StrategyBounds::unbounded(3),
        }];
        let multi = multi_min_cost_iq(&inst, &idx, &specs, tau, &SearchOptions::default());
        assert!(multi.achieved);
        assert_eq!(multi.hits_after >= tau, single.hits_after >= tau);
        // Both heuristics should land in a similar cost range.
        assert!(multi.total_cost <= single.cost * 1.5 + 1e-6);
    }

    #[test]
    fn two_targets_reach_tau_union_verified() {
        let inst = random_instance(30, 60, 3, 3, 17);
        let idx = QueryIndex::build(&inst);
        let cost = EuclideanCost;
        let targets = [2usize, 19];
        let before = union_hits_ground_truth(&inst, &targets);
        let tau = (before + 10).min(inst.num_queries());
        let specs: Vec<TargetSpec<'_>> = targets
            .iter()
            .map(|&t| TargetSpec {
                target: t,
                cost_fn: &cost,
                bounds: StrategyBounds::unbounded(3),
            })
            .collect();
        let r = multi_min_cost_iq(&inst, &idx, &specs, tau, &SearchOptions::default());
        assert!(r.achieved, "union tau not reached: {r:?}");
        assert_eq!(r.hits_before, before);
        // Ground truth on a fresh instance with both strategies applied.
        let mut improved = inst.clone();
        for (&t, s) in targets.iter().zip(&r.strategies) {
            improved.apply_strategy(t, s).unwrap();
        }
        assert_eq!(union_hits_ground_truth(&improved, &targets), r.hits_after);
        assert!(r.hits_after >= tau);
    }

    #[test]
    fn per_target_cost_functions_respected() {
        let inst = random_instance(25, 40, 2, 3, 33);
        let idx = QueryIndex::build(&inst);
        // Target A can only move attribute 1 cheaply; target B attribute 0.
        let cost_a = WeightedEuclideanCost::new(vec![1000.0, 1.0]);
        let cost_b = WeightedEuclideanCost::new(vec![1.0, 1000.0]);
        let specs = [
            TargetSpec {
                target: 0,
                cost_fn: &cost_a,
                bounds: StrategyBounds::unbounded(2),
            },
            TargetSpec {
                target: 1,
                cost_fn: &cost_b,
                bounds: StrategyBounds::unbounded(2),
            },
        ];
        let before = union_hits_ground_truth(&inst, &[0, 1]);
        let tau = (before + 4).min(inst.num_queries());
        let r = multi_min_cost_iq(&inst, &idx, &specs, tau, &SearchOptions::default());
        if r.achieved {
            // Each target should have moved mostly along its cheap axis.
            assert!(r.strategies[0][0].abs() <= r.strategies[0][1].abs() + 1e-6);
            assert!(r.strategies[1][1].abs() <= r.strategies[1][0].abs() + 1e-6);
        }
    }

    #[test]
    fn multi_max_hit_respects_total_budget() {
        let inst = random_instance(30, 50, 3, 3, 57);
        let idx = QueryIndex::build(&inst);
        let cost = EuclideanCost;
        let targets = [1usize, 8, 22];
        let specs: Vec<TargetSpec<'_>> = targets
            .iter()
            .map(|&t| TargetSpec {
                target: t,
                cost_fn: &cost,
                bounds: StrategyBounds::unbounded(3),
            })
            .collect();
        let before = union_hits_ground_truth(&inst, &targets);
        let r = multi_max_hit_iq(&inst, &idx, &specs, 0.6, &SearchOptions::default());
        assert!(r.hits_after >= before);
        // Charged incrementally; final per-target costs obey the triangle
        // inequality, so the sum stays within budget.
        assert!(r.total_cost <= 0.6 + 1e-6, "over budget: {}", r.total_cost);
        let mut improved = inst.clone();
        for (&t, s) in targets.iter().zip(&r.strategies) {
            improved.apply_strategy(t, s).unwrap();
        }
        assert_eq!(union_hits_ground_truth(&improved, &targets), r.hits_after);
    }

    #[test]
    fn shared_query_counted_once() {
        // Two identical targets: improving both toward the same query must
        // not double-count it.
        let inst = Instance::new(
            vec![vec![0.9, 0.9], vec![0.9, 0.9], vec![0.1, 0.1]],
            vec![TopKQuery::new(vec![0.5, 0.5], 1)],
        )
        .unwrap();
        let idx = QueryIndex::build(&inst);
        let cost = EuclideanCost;
        let specs = [
            TargetSpec {
                target: 0,
                cost_fn: &cost,
                bounds: StrategyBounds::unbounded(2),
            },
            TargetSpec {
                target: 1,
                cost_fn: &cost,
                bounds: StrategyBounds::unbounded(2),
            },
        ];
        let r = multi_min_cost_iq(&inst, &idx, &specs, 1, &SearchOptions::default());
        assert!(r.achieved);
        assert_eq!(r.hits_after, 1);
        // Only one target should have paid anything.
        let movers = r.costs.iter().filter(|&&c| c > 1e-9).count();
        assert_eq!(movers, 1, "both targets moved: {:?}", r.costs);
    }

    #[test]
    fn zero_gain_candidates_are_never_committed() {
        // Target 0 hits q0 (least x); its only candidate, for q2 (most x),
        // moves it past object 1 and so hands q0 to object 2: net gain 0.
        let inst = Instance::new(
            vec![vec![0.5, 0.5], vec![1.0, 0.5], vec![0.8, 0.5]],
            vec![
                TopKQuery::new(vec![1.0, 0.0], 1),
                TopKQuery::new(vec![-1.0, 0.0], 1),
            ],
        )
        .unwrap();
        let idx = QueryIndex::build(&inst);
        let specs = [TargetSpec {
            target: 0,
            cost_fn: &EuclideanCost,
            bounds: StrategyBounds::unbounded(2),
        }];
        let opts = SearchOptions::default();
        let mc = multi_min_cost_iq(&inst, &idx, &specs, 2, &opts);
        let mh = multi_max_hit_iq(&inst, &idx, &specs, 10.0, &opts);
        for r in [mc, mh] {
            assert_eq!((r.hits_before, r.hits_after, r.iterations), (1, 1, 1));
            assert!(r.strategies[0].is_zero(0.0), "{r:?}");
        }
    }

    #[test]
    fn zero_budget_zero_movement() {
        let inst = random_instance(15, 20, 2, 3, 3);
        let idx = QueryIndex::build(&inst);
        let cost = EuclideanCost;
        let specs = [TargetSpec {
            target: 0,
            cost_fn: &cost,
            bounds: StrategyBounds::unbounded(2),
        }];
        let r = multi_max_hit_iq(&inst, &idx, &specs, 0.0, &SearchOptions::default());
        assert_eq!(r.hits_after, r.hits_before);
        assert!(r.strategies[0].is_zero(1e-12));
    }
}
