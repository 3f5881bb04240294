//! The exact "exhaustive search" option (§4.2.1): optimal improvement
//! strategies by branch-and-bound over query subsets.
//!
//! Exact search is exponential (the problems are NP-hard, §4.2.1's
//! set-cover reduction) and only feasible on small instances — the paper
//! reports 4+ hours per query at its experiment scales. It exists here as
//! ground truth: `tests/distance_to_optimum.rs` measures how far the
//! greedy searches land from these optima on instances small enough to
//! finish, and holds them to floors.

use crate::ese::{EvalContext, EvalCursor};
use crate::model::{ImprovementStrategy, Instance};
use crate::subdomain::QueryIndex;
use iq_geometry::Vector;
use iq_solver::{exact_max_hit, exact_min_cost, HitCondition, L2SubsetSolver};

/// An exact optimum (Euclidean cost only — the cost of Eq. 30).
#[derive(Debug, Clone)]
pub struct ExactReport {
    /// The optimal strategy.
    pub strategy: ImprovementStrategy,
    /// Its Euclidean cost.
    pub cost: f64,
    /// `H(p + strategy)`.
    pub hits_after: usize,
}

/// Builds the per-query hit conditions `w_q · s ≤ rhs_q` for a target.
fn hit_conditions(ctx: &EvalContext<'_>, cursor: &EvalCursor) -> Vec<HitCondition> {
    let inst = ctx.instance();
    (0..inst.num_queries())
        .map(|q| {
            let a = Vector::from(inst.weights(q));
            // Trivially-hit queries (no threshold) are satisfied by any
            // strategy; encode them with a constraint on the zero normal...
            // which HitCondition cannot express, so use rhs = +∞-ish via a
            // huge positive slack on the actual weights.
            let b = ctx.required_rhs(cursor, q).unwrap_or(f64::MAX / 4.0);
            HitCondition { a, b }
        })
        .collect()
}

/// Exact **Min-Cost IQ** under the Euclidean cost. `None` when no strategy
/// can reach `tau` hits (e.g. `tau > m`).
pub fn exact_min_cost_iq(
    instance: &Instance,
    index: &QueryIndex,
    target: usize,
    tau: usize,
) -> Option<ExactReport> {
    let ctx = EvalContext::new(instance, index, target);
    let cursor = ctx.new_cursor();
    let conds = hit_conditions(&ctx, &cursor);
    let sol = exact_min_cost(&conds, tau, &L2SubsetSolver)?;
    let strategy = fix_dim(sol.strategy, instance.dim());
    let hits_after = ctx.evaluate_naive(&cursor, &strategy);
    Some(ExactReport {
        cost: sol.cost,
        strategy,
        hits_after,
    })
}

/// Exact **Max-Hit IQ** under the Euclidean cost.
pub fn exact_max_hit_iq(
    instance: &Instance,
    index: &QueryIndex,
    target: usize,
    budget: f64,
) -> ExactReport {
    let ctx = EvalContext::new(instance, index, target);
    let cursor = ctx.new_cursor();
    let conds = hit_conditions(&ctx, &cursor);
    let sol = exact_max_hit(&conds, budget, &L2SubsetSolver);
    let strategy = fix_dim(sol.strategy, instance.dim());
    let hits_after = ctx.evaluate_naive(&cursor, &strategy);
    ExactReport {
        cost: sol.cost,
        strategy,
        hits_after,
    }
}

fn fix_dim(s: Vector, dim: usize) -> Vector {
    if s.dim() == dim {
        s
    } else {
        Vector::zeros(dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TopKQuery;

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        }
    }

    fn small_instance(seed: u64) -> Instance {
        let mut rnd = lcg(seed);
        let objects: Vec<Vec<f64>> = (0..8).map(|_| vec![rnd(), rnd()]).collect();
        let queries: Vec<TopKQuery> = (0..8)
            .map(|_| {
                TopKQuery::new(
                    vec![0.2 + rnd() * 0.8, 0.2 + rnd() * 0.8],
                    1 + (rnd() * 2.0) as usize,
                )
            })
            .collect();
        Instance::new(objects, queries).unwrap()
    }

    #[test]
    fn exact_strategy_achieves_reported_hits() {
        let inst = small_instance(5);
        let idx = QueryIndex::build(&inst);
        let r = exact_min_cost_iq(&inst, &idx, 0, 4).unwrap();
        assert!(r.hits_after >= 4, "{r:?}");
        let improved = inst.with_strategy(0, &r.strategy);
        assert_eq!(improved.hit_count_naive(0), r.hits_after);
    }

    #[test]
    fn exact_max_hit_budget_zero_and_large() {
        let inst = small_instance(7);
        let idx = QueryIndex::build(&inst);
        let target = 1;
        let r0 = exact_max_hit_iq(&inst, &idx, target, 0.0);
        assert_eq!(r0.hits_after, inst.hit_count_naive(target));
        let rbig = exact_max_hit_iq(&inst, &idx, target, 100.0);
        assert_eq!(rbig.hits_after, inst.num_queries());
    }

    #[test]
    fn impossible_tau_returns_none() {
        let inst = small_instance(3);
        let idx = QueryIndex::build(&inst);
        assert!(exact_min_cost_iq(&inst, &idx, 0, inst.num_queries() + 1).is_none());
    }
}
