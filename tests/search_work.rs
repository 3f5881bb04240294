//! Work counts of the bound-pruned greedy search: how many candidates it
//! scores with ESE, against how many it generates. Counts, not times, so
//! the assertions hold on any host and under debug builds.

use iq_core::search::{ese_evaluator, run_max_hit, run_min_cost};
use iq_core::{
    EuclideanCost, EvalContext, EvalCursor, ExecPolicy, HitEvaluator, ImprovementStrategy,
    Instance, IqReport, QueryIndex, SearchOptions, StrategyBounds,
};
use iq_workload::{standard_instance, Distribution, QueryDistribution};

/// The ESE evaluator, counting its evaluations.
struct Counting<'a> {
    inner: (EvalContext<'a>, EvalCursor),
    evaluations: usize,
}

impl<'a> Counting<'a> {
    fn new(instance: &'a Instance, index: &QueryIndex, target: usize) -> Self {
        Counting {
            inner: ese_evaluator(instance, index, target, &ExecPolicy::sequential()),
            evaluations: 0,
        }
    }
}

impl HitEvaluator for Counting<'_> {
    fn instance(&self) -> &Instance {
        self.inner.instance()
    }
    fn hit_count(&self) -> usize {
        self.inner.hit_count()
    }
    fn is_hit(&self, q: usize) -> bool {
        self.inner.is_hit(q)
    }
    fn required_rhs(&self, q: usize) -> Option<f64> {
        self.inner.required_rhs(q)
    }
    fn reach_rhs(&self, q: usize) -> Option<f64> {
        self.inner.reach_rhs(q)
    }
    fn evaluate(&mut self, s: &ImprovementStrategy) -> usize {
        self.evaluations += 1;
        self.inner.evaluate(s)
    }
    fn apply(&mut self, s: &ImprovementStrategy) {
        self.inner.apply(s)
    }
    fn applied(&self) -> &ImprovementStrategy {
        self.inner.applied()
    }
}

fn opts() -> SearchOptions {
    SearchOptions {
        exec: ExecPolicy::sequential(),
        ..SearchOptions::default()
    }
}

fn assert_pruned(report: &IqReport, evaluations: usize, what: &str) {
    assert!(report.candidates_evaluated > 0, "{what}: nothing generated");
    assert!(
        evaluations * 10 <= report.candidates_evaluated,
        "{what}: scored {evaluations} of {} candidates, more than a tenth",
        report.candidates_evaluated
    );
}

#[test]
fn min_cost_scores_at_most_a_tenth_of_candidates() {
    // IN objects × CL queries, k ≤ 10, τ = H + 5: the serving benchmark's
    // IMPROVE shape on smaller tables.
    let inst = standard_instance(
        Distribution::Independent,
        QueryDistribution::Clustered,
        5000,
        1000,
        3,
        10,
        17,
    );
    let index = QueryIndex::build_with(&inst, &ExecPolicy::sequential());
    let bounds = StrategyBounds::unbounded(3);
    let targets: Vec<usize> = (0..inst.num_objects())
        .filter(|&o| inst.object(o).iter().all(|&a| a >= 0.2))
        .take(4)
        .collect();
    assert_eq!(targets.len(), 4);
    for target in targets {
        let mut ev = Counting::new(&inst, &index, target);
        let tau = ev.hit_count() + 5;
        let r = run_min_cost(&mut ev, tau, &EuclideanCost, &bounds, &opts());
        assert!(r.achieved, "target {target} missed tau {tau}: {r:?}");
        assert_pruned(&r, ev.evaluations, &format!("min-cost target {target}"));
    }
}

#[test]
fn near_top_max_hit_scores_at_most_a_tenth_of_candidates() {
    // A target already near the top of the hit ranking with a small
    // budget: many cheap greedy steps, each generating a candidate per
    // unhit query — the case exhaustive scoring made pathological.
    let inst = standard_instance(
        Distribution::Independent,
        QueryDistribution::Uniform,
        5000,
        1000,
        3,
        50,
        23,
    );
    let index = QueryIndex::build_with(&inst, &ExecPolicy::sequential());
    let mut hits = vec![0usize; inst.num_objects()];
    for q in 0..inst.num_queries() {
        for &o in &index.toplist_of(q)[..inst.k(q)] {
            hits[o as usize] += 1;
        }
    }
    let mut ranked: Vec<usize> = (0..inst.num_objects()).collect();
    ranked.sort_by_key(|&o| (std::cmp::Reverse(hits[o]), o));
    let target = ranked[19];
    let mut ev = Counting::new(&inst, &index, target);
    let r = run_max_hit(
        &mut ev,
        0.05,
        &EuclideanCost,
        &StrategyBounds::unbounded(3),
        &opts(),
    );
    assert!(
        r.iterations > 10,
        "too few steps to exercise pruning: {r:?}"
    );
    assert!(r.hits_after > r.hits_before);
    assert_pruned(&r, ev.evaluations, "near-top max-hit");
}
