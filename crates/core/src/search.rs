//! Greedy improvement-strategy search: Algorithm 3 (Min-Cost IQ) and
//! Algorithm 4 (Max-Hit IQ).
//!
//! Both algorithms iterate the same candidate-generation step: for every
//! query the target does not yet hit, solve the single-constraint
//! subproblem (Eqs. 13–14) for the cheapest strategy hitting *that* query,
//! score the candidates with ESE, and commit the candidate with the best
//! cost-per-hit ratio. Min-Cost stops at `τ` hits. Max-Hit follows §5.1's
//! rule: each step drops the candidates the remaining budget `β` cannot
//! cover and picks among the rest, until none is left (this replaces the
//! fill pass of Algorithm 4 lines 13–17; DESIGN.md §8). `candidates` and
//! `pick` are the only candidate generation and scoring in the crate:
//! §5.1's multi-target searches ([`crate::multi`]) run on them too, with
//! a union-gain score.
//!
//! ## Bound-pruned candidate scoring
//!
//! Scoring is each iteration's hot loop, but a step only needs the scores
//! that can change what it does. Every candidate gets a certified upper
//! bound on its hit count before any ESE call: with `c_q` a lower bound on
//! the cost of hitting unhit query `q` ([`CostFunction::min_cost_lower_bound`]
//! on [`HitEvaluator::reach_rhs`]), a candidate of cost `c` hits at most
//! `H + #{unhit q : c_q ≤ c}` queries. That bounds its ratio from below,
//! and candidates are scored in ascending bound order until no unscored
//! one can beat — or, once the best candidate overshoots Min-Cost's goal,
//! until none can turn it into a commit. Ties
//! are broken by candidate index, so the pick is the exhaustive scan's
//! first strictly best ratio and every [`IqReport`] is bit-identical to
//! scoring every candidate (property-tested against an exhaustive oracle
//! in `crates/core/tests/proptests.rs`, for ESE and RTA evaluators alike).

use crate::cost::{CostFunction, StrategyBounds};
use crate::ese::{EvalContext, EvalCursor};
use crate::exec::ExecPolicy;
use crate::model::{ImprovementStrategy, Instance};
use crate::subdomain::QueryIndex;
use iq_geometry::Vector;

/// Tuning knobs shared by both greedy searches.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Hard cap on greedy iterations (defense against oscillation).
    pub max_iterations: usize,
    /// Stop after this many consecutive iterations without a hit-count
    /// improvement (the local-optimum escape hatch the paper acknowledges).
    pub max_stalls: usize,
    /// Thread policy for evaluator construction in the library entry
    /// points. Results are independent of the thread count. Defaults to
    /// `IQ_THREADS` / available parallelism.
    pub exec: ExecPolicy,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            max_iterations: 10_000,
            max_stalls: 3,
            exec: ExecPolicy::from_env(),
        }
    }
}

/// The outcome of an improvement query.
#[derive(Debug, Clone)]
pub struct IqReport {
    /// The cumulative strategy found (`p' = p + strategy`).
    pub strategy: ImprovementStrategy,
    /// `Cost(strategy)` under the supplied cost function.
    pub cost: f64,
    /// Hit count before improvement.
    pub hits_before: usize,
    /// Hit count after applying the strategy.
    pub hits_after: usize,
    /// Greedy iterations executed.
    pub iterations: usize,
    /// Candidate strategies generated: one per solved subproblem per
    /// iteration (work metric). Only some of them are scored with ESE;
    /// the rest are pruned by their hit bounds.
    pub candidates_evaluated: usize,
    /// Whether the improvement goal was met (`≥ τ` hits, or budget-bounded
    /// maximisation completed).
    pub achieved: bool,
}

impl IqReport {
    /// The paper's unified quality metric: cost per hit query (lower is
    /// better). Infinite when nothing is hit.
    pub fn cost_per_hit(&self) -> f64 {
        if self.hits_after == 0 {
            f64::INFINITY
        } else {
            self.cost / self.hits_after as f64
        }
    }
}

/// The evaluation interface the greedy searches run against. The paper's
/// Efficient-IQ scheme plugs in the subdomain-indexed ESE pair
/// `(`[`EvalContext`]`, `[`EvalCursor`]`)`; the RTA-IQ baseline plugs in
/// an RTA-backed evaluator — the search is byte-for-byte the same, which
/// is why the two schemes return strategies of identical quality (§6.3.2).
pub trait HitEvaluator {
    /// The instance being improved.
    fn instance(&self) -> &Instance;
    /// Current `H(p + applied)`.
    fn hit_count(&self) -> usize;
    /// Whether query `q` is currently hit.
    fn is_hit(&self, q: usize) -> bool;
    /// Right-hand side of the hit condition `w_q · s ≤ rhs` for query `q`,
    /// or `None` when trivially hit.
    fn required_rhs(&self, q: usize) -> Option<f64>;
    /// A permissive right-hand side for query `q`: every `s` under which
    /// `q` is hit satisfies `w_q · s ≤ reach_rhs(q)`, f64 rounding
    /// included. The search derives its certified hit bounds from it. The
    /// default `None` counts `q` as reachable by any candidate.
    fn reach_rhs(&self, _q: usize) -> Option<f64> {
        None
    }
    /// `H(p + applied + s)` without committing.
    fn evaluate(&mut self, s: &ImprovementStrategy) -> usize;
    /// Commits `s` on top of the already-applied strategy.
    fn apply(&mut self, s: &ImprovementStrategy);
    /// The cumulative committed strategy.
    fn applied(&self) -> &ImprovementStrategy;
}

/// Fast ESE: one shared context scored against one search's cursor.
impl HitEvaluator for (EvalContext<'_>, EvalCursor) {
    fn instance(&self) -> &Instance {
        self.0.instance()
    }
    fn hit_count(&self) -> usize {
        self.1.hit_count()
    }
    fn is_hit(&self, q: usize) -> bool {
        self.1.is_hit(q)
    }
    fn required_rhs(&self, q: usize) -> Option<f64> {
        self.0.required_rhs(&self.1, q)
    }
    fn reach_rhs(&self, q: usize) -> Option<f64> {
        self.0.reach_rhs(&self.1, q)
    }
    fn evaluate(&mut self, s: &ImprovementStrategy) -> usize {
        self.0.evaluate(&self.1, s)
    }
    fn apply(&mut self, s: &ImprovementStrategy) {
        self.0.apply(&mut self.1, s)
    }
    fn applied(&self) -> &ImprovementStrategy {
        self.1.applied()
    }
}

/// The Efficient-IQ evaluator of `target`: its [`EvalContext`], built
/// under `exec`, with a fresh cursor.
pub fn ese_evaluator<'a>(
    instance: &'a Instance,
    index: &QueryIndex,
    target: usize,
    exec: &ExecPolicy,
) -> (EvalContext<'a>, EvalCursor) {
    let ctx = EvalContext::new_with(instance, index, target, exec);
    let cursor = ctx.new_cursor();
    (ctx, cursor)
}

/// One candidate of a greedy step: the cheapest strategy for one target to
/// hit one query.
pub(crate) struct Candidate {
    /// Which target the strategy moves (always 0 for a single target).
    pub(crate) target: usize,
    pub(crate) strategy: Vector,
    pub(crate) cost_inc: f64,
    /// Certified upper bound on the candidate's score.
    pub(crate) hit_bound: usize,
    /// The candidate's score, once computed: `H(p + applied + strategy)`
    /// for one target, the union gain for several.
    pub(crate) hits: Option<usize>,
}

/// Generates target `target`'s share of a greedy iteration's candidate set
/// `S`: per query not `skip`ped, the cheapest strategy that hits it, with
/// its score bound `base + #{unskipped q : c_q ≤ cost}`. Nothing is scored
/// yet.
pub(crate) fn candidates<E: HitEvaluator>(
    ev: &E,
    target: usize,
    cost_fn: &dyn CostFunction,
    rem_bounds: &StrategyBounds,
    skip: impl Fn(usize) -> bool,
    base: usize,
) -> Vec<Candidate> {
    let mut cands = Vec::new();
    // Per unskipped query, a lower bound on the cost of any strategy
    // hitting it; rhs-less and unsolvable queries count as reachable at
    // any cost.
    let mut reach_costs = Vec::new();
    for q in 0..ev.instance().num_queries() {
        if skip(q) {
            continue;
        }
        let weights = ev.instance().weights(q);
        let mut reach_cost = f64::NEG_INFINITY;
        if let Some(rhs) = ev.required_rhs(q) {
            if let Some((strategy, cost_inc)) =
                cost_fn.min_cost_to_satisfy(weights, rhs, rem_bounds)
            {
                cands.push(Candidate {
                    target,
                    strategy,
                    cost_inc,
                    hit_bound: 0,
                    hits: None,
                });
                if let Some(reach) = ev.reach_rhs(q) {
                    let lb = cost_fn.min_cost_lower_bound(weights, reach, rem_bounds);
                    if !lb.is_nan() {
                        reach_cost = lb;
                    }
                }
            }
        }
        reach_costs.push(reach_cost);
    }
    reach_costs.sort_by(f64::total_cmp);
    for c in &mut cands {
        // Unskipped queries whose cost bound does not exceed `c`; a NaN
        // cost proves nothing, so it counts every query.
        c.hit_bound = base
            + if c.cost_inc.is_nan() {
                reach_costs.len()
            } else {
                reach_costs.partition_point(|&lb| lb <= c.cost_inc)
            };
    }
    cands
}

/// Cost-per-hit as the greedy rule ranks it: infinite when nothing is hit.
fn ratio(cost: f64, hits: usize) -> f64 {
    if hits == 0 {
        f64::INFINITY
    } else {
        cost / hits as f64
    }
}

/// A lower bound on `ratio(cost, h)` over `h ≤ max_hits`: `cost / max_hits`
/// for a non-negative cost, and `cost` itself (`h = 1`) for a negative one.
fn ratio_floor(cost: f64, max_hits: usize) -> f64 {
    if cost < 0.0 {
        cost
    } else {
        ratio(cost, max_hits)
    }
}

/// One candidate's score, computed by `eval` at most once per step.
fn score(c: &mut Candidate, eval: &mut impl FnMut(&Candidate) -> usize) -> usize {
    if let Some(h) = c.hits {
        return h;
    }
    let h = eval(c);
    // A score above the bound means a cost function's
    // `min_cost_lower_bound` is not a lower bound, and the pruning that
    // relies on it is unsound.
    #[cfg(feature = "debug-invariants")]
    assert!(
        h <= c.hit_bound,
        "debug-invariants: candidate for target {} at cost {} scores {h}, above \
         its certified bound {}",
        c.target,
        c.cost_inc,
        c.hit_bound,
    );
    c.hits = Some(h);
    h
}

/// What one greedy step does with its best-ratio candidate.
pub(crate) enum Step {
    /// Commit candidate `i` and keep iterating.
    Commit(usize),
    /// The best candidate scores above the overshoot cap: Min-Cost's
    /// overshoot step (Algorithm 3 lines 12–13) ends the search.
    Finish,
}

/// Finds the step's best cost-per-score candidate — the first strictly
/// lowest ratio in candidate order, exactly as scoring every candidate
/// would — while scoring (with `eval`) as few candidates as the bounds
/// allow.
///
/// A best scoring above `overshoot` ends the search (Min-Cost's goal;
/// `None` when every best commits, as in Max-Hit). While the current best
/// ends it, only a candidate that could become a best scoring at most
/// `overshoot` matters.
pub(crate) fn pick(
    cands: &mut [Candidate],
    mut eval: impl FnMut(&Candidate) -> usize,
    overshoot: Option<usize>,
) -> Option<Step> {
    let cap = overshoot.unwrap_or(usize::MAX);
    // A NaN cost breaks the ordering the bounds rely on: then every
    // candidate is scored, in candidate order.
    let exact = cands.iter().all(|c| !c.cost_inc.is_nan());
    let floor = |c: &Candidate, max_hits: usize| {
        if exact {
            ratio_floor(c.cost_inc, max_hits)
        } else {
            f64::NEG_INFINITY
        }
    };
    let any_floor: Vec<f64> = cands.iter().map(|c| floor(c, c.hit_bound)).collect();
    let mut order: Vec<usize> = (0..cands.len()).collect();
    // Stable: equal floors keep candidate order.
    order.sort_by(|&a, &b| any_floor[a].total_cmp(&any_floor[b]));

    let mut best: Option<(usize, f64)> = None;
    let mut best_ends = false;
    // First position passed over while the best ended the search; those
    // candidates matter again once a best that commits turns up.
    let mut skipped_from: Option<usize> = None;
    let mut pos = 0;
    while let Some(&i) = order.get(pos) {
        pos += 1;
        let best_ratio = best.map_or(f64::INFINITY, |(_, r)| r);
        if best.is_some() && any_floor[i] > best_ratio {
            break;
        }
        if cands[i].hits.is_some() {
            continue;
        }
        // As a best that commits, `i` scores at most `cap`.
        if best_ends && floor(&cands[i], cands[i].hit_bound.min(cap)) > best_ratio {
            skipped_from.get_or_insert(pos - 1);
            continue;
        }
        let h = score(&mut cands[i], &mut eval);
        let r = ratio(cands[i].cost_inc, h);
        if best.is_none_or(|(b, br)| r < br || (r == br && i < b)) {
            best = Some((i, r));
            let ended = best_ends;
            best_ends = h > cap;
            if ended && !best_ends {
                if let Some(from) = skipped_from.take() {
                    pos = from;
                }
            }
        }
    }
    best.map(|(i, _)| {
        if best_ends {
            Step::Finish
        } else {
            Step::Commit(i)
        }
    })
}

/// One Min-Cost step (Algorithm 3 lines 7–13) toward a score of `goal`:
/// the best-ratio candidate, or — when it would overshoot — the cheapest
/// candidate (first among equal costs) whose score reaches `goal`. The
/// flag says the step overshoots; `None` when there is no candidate.
pub(crate) fn min_cost_step(
    cands: &mut [Candidate],
    goal: usize,
    mut eval: impl FnMut(&Candidate) -> usize,
) -> Option<(usize, bool)> {
    // A best that commits scores at most `goal` (Algorithm 3 line 10).
    match pick(cands, &mut eval, Some(goal))? {
        Step::Commit(best) => Some((best, false)),
        Step::Finish => {
            let mut by_cost: Vec<usize> = (0..cands.len()).collect();
            by_cost.sort_by(|&a, &b| cands[a].cost_inc.total_cmp(&cands[b].cost_inc));
            let winner = by_cost
                .into_iter()
                .find(|&i| cands[i].hit_bound >= goal && score(&mut cands[i], &mut eval) >= goal)
                .expect("the best candidate exceeds the goal, so one reaches it");
            Some((winner, true))
        }
    }
}

/// The local-optimum escape hatch: counts the commits in a row that gained
/// no hit, and says when `max_stalls` of them end the search.
pub(crate) fn stalled(stalls: &mut usize, gained: bool, max_stalls: usize) -> bool {
    if gained {
        *stalls = 0;
        return false;
    }
    *stalls += 1;
    *stalls >= max_stalls
}

/// **Algorithm 3** — Min-Cost IQ: the cheapest strategy making the target
/// hit at least `tau` queries, via the subdomain-indexed ESE evaluator.
pub fn min_cost_iq(
    instance: &Instance,
    index: &QueryIndex,
    target: usize,
    tau: usize,
    cost_fn: &dyn CostFunction,
    bounds: &StrategyBounds,
    opts: &SearchOptions,
) -> IqReport {
    let mut ev = ese_evaluator(instance, index, target, &opts.exec);
    run_min_cost(&mut ev, tau, cost_fn, bounds, opts)
}

/// Algorithm 3 over any [`HitEvaluator`] implementation.
pub fn run_min_cost<E: HitEvaluator>(
    ev: &mut E,
    tau: usize,
    cost_fn: &dyn CostFunction,
    bounds: &StrategyBounds,
    opts: &SearchOptions,
) -> IqReport {
    let hits_before = ev.hit_count();
    let mut iterations = 0;
    let mut evaluated = 0;
    let mut stalls = 0;

    while ev.hit_count() < tau && iterations < opts.max_iterations {
        iterations += 1;
        let rem = bounds.remaining(ev.applied());
        let mut cands = candidates(ev, 0, cost_fn, &rem, |q| ev.is_hit(q), ev.hit_count());
        evaluated += cands.len();
        // No query can be hit within the remaining bounds.
        let Some((best, overshoots)) = min_cost_step(&mut cands, tau, |c| ev.evaluate(&c.strategy))
        else {
            break;
        };
        // Apply the step's candidate (Algorithm 3 lines 10–11); an
        // overshoot ends the search (line 13).
        let before = ev.hit_count();
        ev.apply(&cands[best].strategy);
        if overshoots {
            break;
        }
        if stalled(&mut stalls, ev.hit_count() > before, opts.max_stalls) {
            break;
        }
    }

    let strategy = ev.applied().clone();
    IqReport {
        cost: cost_fn.cost(&strategy),
        hits_before,
        hits_after: ev.hit_count(),
        iterations,
        candidates_evaluated: evaluated,
        achieved: ev.hit_count() >= tau,
        strategy,
    }
}

/// **Algorithm 4** — Max-Hit IQ: the strategy hitting the most queries with
/// total (incrementally charged) cost at most `budget`, via the
/// subdomain-indexed ESE evaluator.
pub fn max_hit_iq(
    instance: &Instance,
    index: &QueryIndex,
    target: usize,
    budget: f64,
    cost_fn: &dyn CostFunction,
    bounds: &StrategyBounds,
    opts: &SearchOptions,
) -> IqReport {
    let mut ev = ese_evaluator(instance, index, target, &opts.exec);
    run_max_hit(&mut ev, budget, cost_fn, bounds, opts)
}

/// Algorithm 4 over any [`HitEvaluator`] implementation, with §5.1's
/// budget rule: each step picks among the candidates the remaining budget
/// covers, and the search ends when none is left. The budget is charged
/// the sum of the committed steps' costs.
pub fn run_max_hit<E: HitEvaluator>(
    ev: &mut E,
    budget: f64,
    cost_fn: &dyn CostFunction,
    bounds: &StrategyBounds,
    opts: &SearchOptions,
) -> IqReport {
    let hits_before = ev.hit_count();
    let mut iterations = 0;
    let mut evaluated = 0;
    let mut spent = 0.0f64;
    let mut stalls = 0;

    while spent < budget && iterations < opts.max_iterations {
        iterations += 1;
        let rem = bounds.remaining(ev.applied());
        let mut cands = candidates(ev, 0, cost_fn, &rem, |q| ev.is_hit(q), ev.hit_count());
        evaluated += cands.len();
        cands.retain(|c| spent + c.cost_inc <= budget);
        // No step overshoots, so a step commits unless no candidate is left.
        let Some(Step::Commit(best)) = pick(&mut cands, |c| ev.evaluate(&c.strategy), None) else {
            break;
        };
        let before = ev.hit_count();
        spent += cands[best].cost_inc;
        ev.apply(&cands[best].strategy);
        if stalled(&mut stalls, ev.hit_count() > before, opts.max_stalls) {
            break;
        }
    }

    let strategy = ev.applied().clone();
    IqReport {
        cost: cost_fn.cost(&strategy),
        hits_before,
        hits_after: ev.hit_count(),
        iterations,
        candidates_evaluated: evaluated,
        achieved: true,
        strategy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::EuclideanCost;
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

    fn defaults() -> (EuclideanCost, SearchOptions) {
        (EuclideanCost, SearchOptions::default())
    }

    #[test]
    fn min_cost_reaches_tau_and_is_consistent() {
        let inst = random_instance(40, 60, 3, 4, 11);
        let idx = QueryIndex::build(&inst);
        let (cost, opts) = defaults();
        let target = 20;
        let bounds = StrategyBounds::unbounded(3);
        let before = inst.hit_count_naive(target);
        let tau = (before + 10).min(inst.num_queries());
        let report = min_cost_iq(&inst, &idx, target, tau, &cost, &bounds, &opts);
        assert!(report.achieved, "failed to reach tau: {report:?}");
        assert!(report.hits_after >= tau);
        assert_eq!(report.hits_before, before);
        // The reported hit count matches ground truth on a fresh instance.
        let improved = inst.with_strategy(target, &report.strategy);
        assert_eq!(improved.hit_count_naive(target), report.hits_after);
        assert!(report.cost > 0.0);
    }

    #[test]
    fn min_cost_tau_already_met_returns_zero() {
        let inst = random_instance(30, 40, 2, 5, 5);
        let idx = QueryIndex::build(&inst);
        let (cost, opts) = defaults();
        // Pick the most popular object; tau = its current hits.
        let target = (0..30).max_by_key(|&t| inst.hit_count_naive(t)).unwrap();
        let tau = inst.hit_count_naive(target);
        let bounds = StrategyBounds::unbounded(2);
        let report = min_cost_iq(&inst, &idx, target, tau, &cost, &bounds, &opts);
        assert!(report.achieved);
        assert_eq!(report.cost, 0.0);
        assert_eq!(report.iterations, 0);
        assert!(report.strategy.is_zero(0.0));
    }

    #[test]
    fn min_cost_monotone_in_tau() {
        let inst = random_instance(35, 50, 3, 3, 77);
        let idx = QueryIndex::build(&inst);
        let (cost, opts) = defaults();
        let target = 7;
        let bounds = StrategyBounds::unbounded(3);
        let base = inst.hit_count_naive(target);
        let mut prev = 0.0;
        for extra in [2usize, 5, 10, 20] {
            let tau = (base + extra).min(inst.num_queries());
            let r = min_cost_iq(&inst, &idx, target, tau, &cost, &bounds, &opts);
            if r.achieved {
                assert!(
                    r.cost + 1e-9 >= prev,
                    "cost decreased when tau grew: {} after {}",
                    r.cost,
                    prev
                );
                prev = r.cost;
            }
        }
    }

    #[test]
    fn min_cost_respects_frozen_attributes() {
        let inst = random_instance(30, 40, 3, 3, 31);
        let idx = QueryIndex::build(&inst);
        let (cost, opts) = defaults();
        let target = 3;
        let bounds = StrategyBounds::unbounded(3).freeze(0).freeze(2);
        let tau = (inst.hit_count_naive(target) + 5).min(inst.num_queries());
        let r = min_cost_iq(&inst, &idx, target, tau, &cost, &bounds, &opts);
        assert!(
            r.strategy[0].abs() < 1e-6,
            "frozen attr 0 moved: {:?}",
            r.strategy
        );
        assert!(
            r.strategy[2].abs() < 1e-6,
            "frozen attr 2 moved: {:?}",
            r.strategy
        );
        let improved = inst.with_strategy(target, &r.strategy);
        assert_eq!(improved.hit_count_naive(target), r.hits_after);
    }

    #[test]
    fn max_hit_respects_budget_and_improves() {
        let inst = random_instance(40, 60, 3, 4, 19);
        let idx = QueryIndex::build(&inst);
        let (cost, opts) = defaults();
        let target = 0;
        let bounds = StrategyBounds::unbounded(3);
        let before = inst.hit_count_naive(target);
        let r = max_hit_iq(&inst, &idx, target, 0.5, &cost, &bounds, &opts);
        assert!(r.hits_after >= before, "max-hit lost hits");
        // Cumulative cost is within budget (triangle inequality keeps the
        // final strategy's cost at or below the sum of increments charged).
        assert!(r.cost <= 0.5 + 1e-6, "over budget: {}", r.cost);
        let improved = inst.with_strategy(target, &r.strategy);
        assert_eq!(improved.hit_count_naive(target), r.hits_after);
    }

    #[test]
    fn max_hit_monotone_in_budget() {
        let inst = random_instance(35, 50, 3, 3, 23);
        let idx = QueryIndex::build(&inst);
        let (cost, opts) = defaults();
        let bounds = StrategyBounds::unbounded(3);
        let mut prev = 0usize;
        for budget in [0.0, 0.1, 0.3, 0.8, 2.0] {
            let r = max_hit_iq(&inst, &idx, 12, budget, &cost, &bounds, &opts);
            assert!(
                r.hits_after >= prev,
                "hits dropped as budget grew: {} after {}",
                r.hits_after,
                prev
            );
            prev = r.hits_after;
        }
    }

    #[test]
    fn max_hit_zero_budget_is_identity() {
        let inst = random_instance(20, 30, 2, 3, 41);
        let idx = QueryIndex::build(&inst);
        let (cost, opts) = defaults();
        let bounds = StrategyBounds::unbounded(2);
        let r = max_hit_iq(&inst, &idx, 5, 0.0, &cost, &bounds, &opts);
        assert_eq!(r.hits_after, r.hits_before);
        assert!(r.strategy.is_zero(1e-12));
    }

    #[test]
    fn binary_search_reduction_mincost_via_maxhit() {
        // §4.2.2: binary-searching the budget of Max-Hit recovers a cost
        // close to what Min-Cost finds directly.
        let inst = random_instance(25, 40, 2, 3, 53);
        let idx = QueryIndex::build(&inst);
        let (cost, opts) = defaults();
        let bounds = StrategyBounds::unbounded(2);
        let target = 2;
        let tau = (inst.hit_count_naive(target) + 6).min(inst.num_queries());
        let direct = min_cost_iq(&inst, &idx, target, tau, &cost, &bounds, &opts);
        assert!(direct.achieved);

        let (mut lo, mut hi) = (0.0f64, direct.cost * 4.0 + 1.0);
        for _ in 0..30 {
            let mid = 0.5 * (lo + hi);
            let r = max_hit_iq(&inst, &idx, target, mid, &cost, &bounds, &opts);
            if r.hits_after >= tau {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        // Both are heuristics; the reduction should land in the same
        // ballpark (within 3× here), not exactly equal.
        assert!(
            hi <= direct.cost * 3.0 + 1e-6,
            "binary search budget {hi} far above direct cost {}",
            direct.cost
        );
    }

    #[test]
    fn min_cost_with_l1_cost_function() {
        use crate::cost::L1Cost;
        let inst = random_instance(30, 40, 3, 3, 81);
        let idx = QueryIndex::build(&inst);
        let bounds = StrategyBounds::unbounded(3);
        let target = 6;
        let tau = (inst.hit_count_naive(target) + 5).min(inst.num_queries());
        let r = min_cost_iq(
            &inst,
            &idx,
            target,
            tau,
            &L1Cost,
            &bounds,
            &SearchOptions::default(),
        );
        assert!(r.achieved, "{r:?}");
        assert!((r.cost - r.strategy.norm_l1()).abs() < 1e-9);
        let improved = inst.with_strategy(target, &r.strategy);
        assert_eq!(improved.hit_count_naive(target), r.hits_after);
    }

    #[test]
    fn max_hit_with_asymmetric_cost() {
        use crate::cost::AsymmetricLinearCost;
        let inst = random_instance(30, 40, 2, 3, 87);
        let idx = QueryIndex::build(&inst);
        // Decreasing attributes is cheap, increasing expensive: the search
        // should only ever decrease.
        let cost = AsymmetricLinearCost::new(vec![50.0, 50.0], vec![1.0, 1.0]);
        let bounds = StrategyBounds::unbounded(2);
        let r = max_hit_iq(
            &inst,
            &idx,
            4,
            0.5,
            &cost,
            &bounds,
            &SearchOptions::default(),
        );
        assert!(r.cost <= 0.5 + 1e-6);
        assert!(
            r.strategy.iter().all(|&v| v <= 1e-9),
            "increased: {:?}",
            r.strategy
        );
        let improved = inst.with_strategy(4, &r.strategy);
        assert_eq!(improved.hit_count_naive(4), r.hits_after);
    }

    #[test]
    fn candidates_evaluated_is_thread_count_invariant() {
        // The work metric counts one per generated candidate, whatever
        // thread count built the evaluator.
        let inst = random_instance(60, 80, 3, 4, 23);
        let (cost, _) = defaults();
        let bounds = StrategyBounds::unbounded(3);
        let target = 31;
        let tau = (inst.hit_count_naive(target) + 8).min(inst.num_queries());

        let seq = SearchOptions {
            exec: ExecPolicy::sequential(),
            ..SearchOptions::default()
        };
        let idx = QueryIndex::build_with(&inst, &seq.exec);
        let reference = min_cost_iq(&inst, &idx, target, tau, &cost, &bounds, &seq);
        assert!(reference.candidates_evaluated > 0);

        for threads in [2usize, 4, 8] {
            let par = SearchOptions {
                exec: ExecPolicy::with_threads(threads),
                ..SearchOptions::default()
            };
            let r = min_cost_iq(&inst, &idx, target, tau, &cost, &bounds, &par);
            assert_eq!(
                r.candidates_evaluated, reference.candidates_evaluated,
                "work metric drifted at {threads} threads"
            );
            let mh = max_hit_iq(&inst, &idx, target, 0.8, &cost, &bounds, &par);
            let mh_ref = max_hit_iq(&inst, &idx, target, 0.8, &cost, &bounds, &seq);
            assert_eq!(mh.candidates_evaluated, mh_ref.candidates_evaluated);
        }
    }

    #[test]
    fn cost_per_hit_metric() {
        let r = IqReport {
            strategy: Vector::zeros(2),
            cost: 4.0,
            hits_before: 0,
            hits_after: 8,
            iterations: 1,
            candidates_evaluated: 10,
            achieved: true,
        };
        assert_eq!(r.cost_per_hit(), 0.5);
        let r0 = IqReport { hits_after: 0, ..r };
        assert_eq!(r0.cost_per_hit(), f64::INFINITY);
    }

    /// Candidate `i` costs `cost[i]` and has hit bound `bound[i]`; its
    /// strategy's first coordinate is `i`, so a scorer can look it up.
    fn table(cost: &[f64], bound: &[usize]) -> Vec<Candidate> {
        (0..cost.len())
            .map(|i| Candidate {
                target: 0,
                strategy: Vector::from([i as f64]),
                cost_inc: cost[i],
                hit_bound: bound[i],
                hits: None,
            })
            .collect()
    }

    /// Scores candidate `i` as `hits[i]`.
    fn scorer(hits: &[usize]) -> impl FnMut(&Candidate) -> usize + '_ {
        |c| hits[c.strategy[0] as usize]
    }

    #[test]
    fn pick_breaks_ratio_ties_by_candidate_index() {
        // Both ratios are exactly 1, but candidate 1's lower floor (1/3
        // against 2/4) gets it scored first: the exhaustive rule still
        // keeps the first in candidate order.
        let mut cands = table(&[2.0, 1.0], &[4, 3]);
        let step = pick(&mut cands, scorer(&[2, 1]), None);
        assert!(matches!(step, Some(Step::Commit(0))));
    }

    #[test]
    fn pick_rescans_skipped_candidates_when_the_best_commits() {
        // Min-Cost with τ = 2. Candidate 0 (ratio 0.2) overshoots, so
        // candidate 1 (floor 0.15, but 0.75 as a commit) is skipped;
        // candidate 2 (ratio 0.16) then commits, and the rescan finds
        // candidate 1's ratio 0.15 overshooting: the step overshoots,
        // exactly as scoring all three would decide.
        let tau = 2;
        let mut cands = table(&[1.0, 1.5, 0.32], &[10, 10, 2]);
        let step = pick(&mut cands, scorer(&[5, 10, 2]), Some(tau));
        assert!(matches!(step, Some(Step::Finish)));
        assert!(cands.iter().all(|c| c.hits.is_some()));
    }
}
