//! Efficient Strategy Evaluation (Algorithm 2).
//!
//! Evaluating a candidate strategy means recomputing `H(p + s)` — the
//! number of top-k queries the improved target hits. The key observations:
//!
//! 1. Because only the target moves, the *admission threshold* of query `q`
//!    (the score of the k-th best non-target object, Eq. 6) is a fixed
//!    object per subdomain. The target hits `q` iff its score beats that
//!    threshold object's.
//! 2. The hit status can therefore only flip for queries inside the
//!    *affected subspace* (Eqs. 4–5) of the target/threshold-object pair —
//!    the slab between `(p − o)·q = 0` and `(p + s − o)·q = 0`.
//!
//! ## Shared state vs. scratch state
//!
//! Evaluation state is split along the mutability boundary:
//!
//! * [`EvalContext`] — everything derived from the instance and the
//!   [`QueryIndex`] that never changes during a search: admission
//!   thresholds and the threshold-object grouping (query ids sorted by
//!   threshold object, one run and one bounding box per group).
//!   Read-only, `Send + Sync`, and shared freely across worker threads.
//! * [`EvalCursor`] — the per-search scratch: the cumulative applied
//!   strategy and the current hit bitmap. Cheap to clone, owned by exactly
//!   one search (or thread) at a time.
//!
//! All scoring entry points take `(&EvalContext, &EvalCursor)`, so any
//! number of threads can score against one shared context, and the
//! context itself is built under an [`crate::exec::ExecPolicy`]. The pair
//! `(EvalContext, EvalCursor)` implements [`crate::search::HitEvaluator`]:
//! it is the evaluator the greedy searches run against, one pair per
//! target.
//!
//! [`EvalContext::evaluate`] exploits both observations above: queries are
//! pre-grouped by threshold object, a group whose bounding box misses its
//! slab is skipped whole, and only the members inside the slab are
//! re-scored.
//! [`EvalContext::evaluate_pairwise`] is the literal Algorithm 2 loop over
//! *all* intersecting objects, kept for validation; both are
//! property-tested against naive re-evaluation.

use crate::exec::ExecPolicy;
use crate::model::{ImprovementStrategy, Instance};
use crate::subdomain::QueryIndex;
use iq_geometry::{BoundingBox, Slab, Vector};
use iq_topk::naive::rank_cmp;
use std::cmp::Ordering;

/// Absolute tolerance for affected-subspace boundary tests: queries this
/// close to a boundary are re-evaluated exactly instead of classified by
/// sign (their hit status may hinge on the id tie-break).
const BOUNDARY_TOL: f64 = 1e-7;

/// The immutable, shareable half of a target's evaluation state: admission
/// thresholds and the threshold-object grouping that drives fast ESE.
/// `Send + Sync`; build once, score from any number of threads.
#[derive(Debug, Clone)]
pub struct EvalContext<'a> {
    instance: &'a Instance,
    target: usize,
    /// Per query: the admission threshold `(object id, score)`; `None`
    /// when the dataset has fewer than `k` other objects (trivial hit).
    thresh: Vec<Option<(u32, f64)>>,
    /// The ids of the queries with a threshold, sorted by (threshold
    /// object, id): each group is one run.
    members: Vec<u32>,
    /// The groups in ascending threshold-object order.
    groups: Vec<Group>,
}

/// The queries sharing one threshold object: a run of the context's
/// `members` and the bounding box of their weight rows.
#[derive(Debug, Clone)]
struct Group {
    object: u32,
    start: u32,
    end: u32,
    bbox: BoundingBox,
}

/// The mutable, per-search half: cumulative applied strategy plus the hit
/// bitmap it induces. One cursor per concurrent search; clone to fork.
#[derive(Debug, Clone)]
pub struct EvalCursor {
    /// Cumulative strategy committed so far (`p_eff = p + applied`).
    applied: Vector,
    /// `p + applied`, kept beside `applied` so scoring reads it without
    /// allocating; refreshed by every [`EvalContext::apply`].
    effective: Vector,
    /// Per query: current hit status of the (improved) target.
    hit: Vec<bool>,
    hit_count: usize,
    /// Reusable scores buffer for the batched full-recompute kernel
    /// (`weights_flat · p_eff`). Pure workspace: never read across calls,
    /// so it carries no state a fork could observe.
    scratch: Vec<f64>,
}

impl EvalCursor {
    /// Current hit count `H(p + applied)`.
    pub fn hit_count(&self) -> usize {
        self.hit_count
    }

    /// Whether query `q` is currently hit.
    pub fn is_hit(&self, q: usize) -> bool {
        self.hit[q]
    }

    /// Current hit bitmap.
    pub fn hits(&self) -> &[bool] {
        &self.hit
    }

    /// The cumulative strategy committed so far.
    pub fn applied(&self) -> &Vector {
        &self.applied
    }
}

impl<'a> EvalContext<'a> {
    /// Builds the shared context for one target using a prebuilt query
    /// index, with threshold extraction parallelised per query under
    /// `exec` (results are identical at any thread count).
    pub fn new_with(
        instance: &'a Instance,
        index: &QueryIndex,
        target: usize,
        exec: &ExecPolicy,
    ) -> Self {
        let thresh: Vec<Option<(u32, f64)>> = exec.map(instance.ks(), |qi, _| {
            index
                .threshold_for(instance, qi, target)
                .map(|(o, s)| (o as u32, s))
        });
        // Group by threshold object: sort the query ids once, then bound
        // each run's weight rows.
        let object_of = |q: &u32| thresh[*q as usize].map_or(0, |(o, _)| o);
        let mut members = Vec::with_capacity(thresh.len());
        members.extend((0..thresh.len() as u32).filter(|&q| thresh[q as usize].is_some()));
        members.sort_unstable_by_key(|q| (object_of(q), *q));
        let runs = || members.chunk_by(|a, b| object_of(a) == object_of(b));
        let mut groups = Vec::with_capacity(runs().count());
        let mut start = 0;
        for run in runs() {
            let mut bbox = BoundingBox::empty(instance.dim());
            for &q in run {
                bbox.merge_point(instance.weights(q as usize));
            }
            groups.push(Group {
                object: object_of(&run[0]),
                start,
                end: start + run.len() as u32,
                bbox,
            });
            start += run.len() as u32;
        }
        EvalContext {
            instance,
            target,
            thresh,
            members,
            groups,
        }
    }

    /// [`Self::new_with`] under the environment's default
    /// [`ExecPolicy`] (`IQ_THREADS`).
    pub fn new(instance: &'a Instance, index: &QueryIndex, target: usize) -> Self {
        Self::new_with(instance, index, target, &ExecPolicy::from_env())
    }

    /// A fresh cursor at the unimproved target (zero applied strategy).
    pub fn new_cursor(&self) -> EvalCursor {
        let applied = Vector::zeros(self.instance.dim());
        let mut cursor = EvalCursor {
            effective: &Vector::from(self.instance.object(self.target)) + &applied,
            applied,
            hit: vec![false; self.instance.num_queries()],
            hit_count: 0,
            scratch: Vec::new(),
        };
        self.recompute_hits(&mut cursor);
        cursor
    }

    /// The instance being evaluated against.
    pub fn instance(&self) -> &'a Instance {
        self.instance
    }

    /// The improved target's attribute vector `p + applied` under `cursor`.
    pub fn effective_target<'c>(&self, cursor: &'c EvalCursor) -> &'c Vector {
        &cursor.effective
    }

    /// The admission threshold of query `q` (`None` = trivially hit).
    pub fn threshold(&self, q: usize) -> Option<(usize, f64)> {
        self.thresh[q].map(|(o, s)| (o as usize, s))
    }

    /// The right-hand side of the hit condition for an *additional*
    /// strategy `s` on query `q`: hit ⟺ `w_q · s ≤ rhs` (with strictness
    /// folded in as an epsilon when the id tie-break goes against the
    /// target). `None` when the query is trivially hit regardless of `s`.
    pub fn required_rhs(&self, cursor: &EvalCursor, q: usize) -> Option<f64> {
        let (_, thresh_score) = self.thresh[q]?;
        let ts = self.current_score(cursor, q);
        // Aim strictly below the threshold with a safety epsilon: this is
        // robust to f64 rounding and to the id tie-break, at a vanishing
        // (1e-9-scale) cost premium. Eq. 6 demands strict `<` anyway.
        Some(thresh_score - ts - strict_eps(thresh_score))
    }

    /// [`Self::required_rhs`] widened by twice its safety epsilon: every
    /// additional strategy `s` under which query `q` is hit satisfies
    /// `w_q · s ≤` this value, with room to spare for f64 rounding. `None`
    /// when the query is trivially hit.
    pub fn reach_rhs(&self, cursor: &EvalCursor, q: usize) -> Option<f64> {
        let (_, thresh_score) = self.thresh[q]?;
        let ts = self.current_score(cursor, q);
        Some(thresh_score - ts + strict_eps(thresh_score))
    }

    /// The improved target's current score under query `q`.
    pub fn current_score(&self, cursor: &EvalCursor, q: usize) -> f64 {
        self.instance
            .weights_flat()
            .dot_row(q, self.effective_target(cursor).as_slice())
    }

    fn hit_status(&self, q: usize, target_score: f64) -> bool {
        match self.thresh[q] {
            None => true,
            Some((o, os)) => rank_cmp(target_score, self.target, os, o as usize) == Ordering::Less,
        }
    }

    fn recompute_hits(&self, cursor: &mut EvalCursor) {
        // Batched kernel over the contiguous weight rows; bit-identical to
        // the per-query `dot(p_eff, w_q)` (elementwise products commute,
        // accumulation order is the coordinate order either way).
        let mut scratch = std::mem::take(&mut cursor.scratch);
        self.instance
            .weights_flat()
            .scores_into(cursor.effective.as_slice(), &mut scratch);
        cursor.hit_count = 0;
        for (q, &ts) in scratch.iter().enumerate() {
            let h = self.hit_status(q, ts);
            cursor.hit[q] = h;
            cursor.hit_count += h as usize;
        }
        cursor.scratch = scratch;
    }

    /// **Fast ESE**: `H(p + applied + s)` touching only queries inside the
    /// per-threshold-object affected subspaces. `&self` + `&cursor`:
    /// thread-safe scoring against shared state.
    pub fn evaluate(&self, cursor: &EvalCursor, s: &ImprovementStrategy) -> usize {
        let mut delta = 0i64;
        self.visit_changes(cursor, s, &mut |_, was, now| {
            delta += now as i64 - was as i64;
        });
        (cursor.hit_count as i64 + delta) as usize
    }

    /// Fast ESE, reporting each query whose hit status changes as
    /// `(query, was_hit, now_hit)`, in ascending query id — never in index
    /// traversal order, so no caller can depend on tree shape. Used by the
    /// multi-target extension to maintain union hit counts.
    pub fn evaluate_changes(
        &self,
        cursor: &EvalCursor,
        s: &ImprovementStrategy,
    ) -> Vec<(usize, bool, bool)> {
        let mut out = Vec::new();
        self.visit_changes(cursor, s, &mut |q, was, now| out.push((q, was, now)));
        // Each query sits in exactly one group, so ids are distinct.
        out.sort_unstable_by_key(|&(q, _, _)| q);
        out
    }

    fn visit_changes(
        &self,
        cursor: &EvalCursor,
        s: &ImprovementStrategy,
        visit: &mut impl FnMut(usize, bool, bool),
    ) {
        let p_eff = self.effective_target(cursor);
        let p_new = p_eff + s;
        // Slab re-scoring reads contiguous flat rows: `wf.dot_row(qi, ·)`
        // is `dot(w_q, p_new)`, bit-identical to `dot(p_new, w_q)`.
        let wf = self.instance.weights_flat();
        // Slab-visit superset witness: every query whose hit status flips
        // must have been touched by some slab scan, or the pruning is
        // unsound. Tracked only under debug-invariants.
        #[cfg(feature = "debug-invariants")]
        let mut visited = vec![false; self.instance.num_queries()];
        // One slab buffer for every group: `visit_changes` runs per scored
        // candidate, so it must not allocate per group.
        let mut slab_buf = None;
        for g in &self.groups {
            // `None`: a degenerate boundary (the target coincides with the
            // threshold object before or after) — scan the whole group.
            let slab = Slab::affected_subspace_in(
                &mut slab_buf,
                p_eff.as_slice(),
                p_new.as_slice(),
                self.instance.object(g.object as usize),
            );
            if let Some(slab) = slab {
                if g.bbox.disjoint_from_slab_tol(slab, BOUNDARY_TOL) {
                    continue;
                }
            }
            for &qi in &self.members[g.start as usize..g.end as usize] {
                let qi = qi as usize;
                if let Some(slab) = slab {
                    if !slab.contains_tol(wf.row(qi), BOUNDARY_TOL) {
                        continue;
                    }
                }
                #[cfg(feature = "debug-invariants")]
                {
                    visited[qi] = true;
                }
                let now = self.hit_status(qi, wf.dot_row(qi, p_new.as_slice()));
                if now != cursor.hit[qi] {
                    visit(qi, cursor.hit[qi], now);
                }
            }
        }
        #[cfg(feature = "debug-invariants")]
        {
            for (qi, seen) in visited.iter().enumerate() {
                let now = self.hit_status(qi, wf.dot_row(qi, p_new.as_slice()));
                assert!(
                    *seen || now == cursor.hit[qi],
                    "debug-invariants: ESE slab scans missed query {qi} whose hit \
                     status changed ({} -> {now})",
                    cursor.hit[qi],
                );
            }
        }
    }

    /// **Literal Algorithm 2**: loops over every object intersecting the
    /// target's function, retrieves each pairwise affected subspace from the
    /// full R-tree, and re-evaluates the union of affected queries. Kept as
    /// the faithful-but-slower reference; results are identical to
    /// [`Self::evaluate`].
    pub fn evaluate_pairwise(
        &self,
        cursor: &EvalCursor,
        index: &QueryIndex,
        s: &ImprovementStrategy,
    ) -> usize {
        let p_eff = self.effective_target(cursor);
        let p_new = p_eff + s;
        let mut affected = vec![false; self.instance.num_queries()];
        for l in 0..self.instance.num_objects() {
            if l == self.target {
                continue;
            }
            let o_attrs = Vector::from(self.instance.object(l));
            if let Some(slab) = Slab::affected_subspace(p_eff, &o_attrs, s) {
                index.rtree().visit_slab_tol(&slab, BOUNDARY_TOL, &mut |e| {
                    affected[e.data] = true;
                });
            }
        }
        let wf = self.instance.weights_flat();
        let mut count = cursor.hit_count as i64;
        for (qi, flag) in affected.iter().enumerate() {
            if !flag {
                continue;
            }
            let now = self.hit_status(qi, wf.dot_row(qi, p_new.as_slice()));
            count += now as i64 - cursor.hit[qi] as i64;
        }
        count as usize
    }

    /// Ground-truth evaluation: recomputes every query's hit status from
    /// the stored thresholds. `O(m·d)`; the oracle the fast paths are
    /// tested against (and itself validated against
    /// [`Instance::hit_count_naive`]).
    pub fn evaluate_naive(&self, cursor: &EvalCursor, s: &ImprovementStrategy) -> usize {
        let p_new = self.effective_target(cursor) + s;
        let wf = self.instance.weights_flat();
        (0..self.instance.num_queries())
            .filter(|&q| self.hit_status(q, wf.dot_row(q, p_new.as_slice())))
            .count()
    }

    /// Commits a strategy onto `cursor`: `applied += s`, with hit state
    /// recomputed exactly (no incremental drift).
    pub fn apply(&self, cursor: &mut EvalCursor, s: &ImprovementStrategy) {
        cursor.applied += s;
        cursor.effective = &Vector::from(self.instance.object(self.target)) + &cursor.applied;
        self.recompute_hits(cursor);
    }
}

// The entire point of the split: shared evaluation state must be shareable.
// Compile-time audit — fails to build if any field loses Send/Sync.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EvalContext<'_>>();
    assert_send_sync::<EvalCursor>();
};

/// Safety margin for strict score inequalities, scaled to the threshold
/// magnitude (shared with the RTA evaluator).
pub(crate) fn strict_eps(scale: f64) -> f64 {
    1e-9 * (1.0 + scale.abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TopKQuery;
    use crate::subdomain::QueryIndex;

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

    #[test]
    fn initial_hit_count_matches_naive() {
        let inst = random_instance(40, 60, 3, 5, 1);
        let idx = QueryIndex::build(&inst);
        for target in [0usize, 13, 39] {
            let ctx = EvalContext::new(&inst, &idx, target);
            let cur = ctx.new_cursor();
            assert_eq!(
                cur.hit_count(),
                inst.hit_count_naive(target),
                "target {target}"
            );
        }
    }

    #[test]
    fn fast_ese_matches_naive_random_strategies() {
        let inst = random_instance(30, 80, 3, 4, 7);
        let idx = QueryIndex::build(&inst);
        let mut rnd = lcg(55);
        for target in [0usize, 11, 29] {
            let ctx = EvalContext::new(&inst, &idx, target);
            let cur = ctx.new_cursor();
            for _ in 0..30 {
                let s = Vector::new((0..3).map(|_| (rnd() - 0.5) * 0.6).collect::<Vec<_>>());
                let fast = ctx.evaluate(&cur, &s);
                let naive = ctx.evaluate_naive(&cur, &s);
                assert_eq!(fast, naive, "target {target}, s {s:?}");
                // And the evaluator's own oracle agrees with the model's.
                let improved = inst.with_strategy(target, &s);
                assert_eq!(naive, improved.hit_count_naive(target));
            }
        }
    }

    #[test]
    fn pairwise_ese_matches_fast() {
        let inst = random_instance(25, 50, 2, 3, 21);
        let idx = QueryIndex::build(&inst);
        let mut rnd = lcg(99);
        let ctx = EvalContext::new(&inst, &idx, 5);
        let cur = ctx.new_cursor();
        for _ in 0..20 {
            let s = Vector::new((0..2).map(|_| (rnd() - 0.5) * 0.8).collect::<Vec<_>>());
            assert_eq!(
                ctx.evaluate(&cur, &s),
                ctx.evaluate_pairwise(&cur, &idx, &s)
            );
        }
    }

    #[test]
    fn apply_accumulates_and_recomputes() {
        let inst = random_instance(20, 40, 3, 3, 3);
        let idx = QueryIndex::build(&inst);
        let ctx = EvalContext::new(&inst, &idx, 4);
        let mut cur = ctx.new_cursor();
        let s1 = Vector::from([-0.1, 0.05, -0.2]);
        let s2 = Vector::from([-0.05, -0.1, 0.0]);
        let predicted = ctx.evaluate(&cur, &s1);
        ctx.apply(&mut cur, &s1);
        assert_eq!(cur.hit_count(), predicted);
        let predicted2 = ctx.evaluate(&cur, &s2);
        ctx.apply(&mut cur, &s2);
        assert_eq!(cur.hit_count(), predicted2);
        // Cumulative equals one-shot application on the model.
        let total = &s1 + &s2;
        let improved = inst.with_strategy(4, &total);
        assert_eq!(cur.hit_count(), improved.hit_count_naive(4));
        assert_eq!(cur.applied().as_slice(), total.as_slice());
    }

    #[test]
    fn required_rhs_is_exactly_sufficient() {
        let inst = random_instance(30, 50, 3, 4, 13);
        let idx = QueryIndex::build(&inst);
        let ctx = EvalContext::new(&inst, &idx, 2);
        let cur = ctx.new_cursor();
        for q in 0..inst.num_queries() {
            if cur.is_hit(q) {
                continue;
            }
            let Some(rhs) = ctx.required_rhs(&cur, q) else {
                continue;
            };
            let w = Vector::from(inst.weights(q));
            // A strategy achieving w·s = rhs must hit the query…
            if let Some(s) = iq_solver::min_norm_single(&w, rhs) {
                let new_hits = ctx.evaluate_changes(&cur, &s);
                let hit_now = new_hits
                    .iter()
                    .find(|(qi, _, _)| *qi == q)
                    .map(|&(_, _, now)| now)
                    .unwrap_or(cur.is_hit(q));
                assert!(hit_now, "query {q} not hit at rhs boundary");
            }
            // …and one clearly short of it must not.
            let short = iq_solver::min_norm_single(&w, rhs + 0.05);
            if rhs + 0.05 < 0.0 {
                let s = short.unwrap();
                let changed = ctx.evaluate_changes(&cur, &s);
                let hit_now = changed
                    .iter()
                    .find(|(qi, _, _)| *qi == q)
                    .map(|&(_, _, now)| now)
                    .unwrap_or(cur.is_hit(q));
                assert!(!hit_now, "query {q} hit while short of the threshold");
            }
        }
    }

    #[test]
    fn zero_strategy_changes_nothing() {
        let inst = random_instance(20, 30, 3, 3, 17);
        let idx = QueryIndex::build(&inst);
        let ctx = EvalContext::new(&inst, &idx, 0);
        let cur = ctx.new_cursor();
        let z = Vector::zeros(3);
        assert_eq!(ctx.evaluate(&cur, &z), cur.hit_count());
        assert!(ctx.evaluate_changes(&cur, &z).is_empty());
    }

    #[test]
    fn tiny_dataset_trivial_hits() {
        // Two objects, k = 5 > n − 1: every query trivially hits.
        let inst = Instance::new(
            vec![vec![0.9, 0.9], vec![0.1, 0.1]],
            vec![
                TopKQuery::new(vec![0.5, 0.5], 5),
                TopKQuery::new(vec![0.2, 0.8], 5),
            ],
        )
        .unwrap();
        let idx = QueryIndex::build(&inst);
        let ctx = EvalContext::new(&inst, &idx, 0);
        let cur = ctx.new_cursor();
        assert_eq!(cur.hit_count(), 2);
        assert_eq!(ctx.required_rhs(&cur, 0), None);
        // Even a terrible strategy cannot lose trivial hits.
        assert_eq!(ctx.evaluate(&cur, &Vector::from([100.0, 100.0])), 2);
    }

    #[test]
    fn degenerate_target_equals_threshold_object() {
        // The target coincides with another object; slabs degenerate and
        // the group-scan fallback must still produce exact counts.
        let inst = Instance::new(
            vec![vec![0.5, 0.5], vec![0.5, 0.5], vec![0.2, 0.8]],
            vec![
                TopKQuery::new(vec![0.5, 0.5], 1),
                TopKQuery::new(vec![0.9, 0.1], 1),
                TopKQuery::new(vec![0.1, 0.9], 2),
            ],
        )
        .unwrap();
        let idx = QueryIndex::build(&inst);
        let ctx = EvalContext::new(&inst, &idx, 1);
        let cur = ctx.new_cursor();
        for s in [
            Vector::from([0.0, 0.0]),
            Vector::from([-0.1, 0.0]),
            Vector::from([0.1, -0.3]),
        ] {
            assert_eq!(
                ctx.evaluate(&cur, &s),
                ctx.evaluate_naive(&cur, &s),
                "s {s:?}"
            );
            let improved = inst.with_strategy(1, &s);
            assert_eq!(ctx.evaluate(&cur, &s), improved.hit_count_naive(1));
        }
    }

    #[test]
    fn tie_breaking_lattice_exactness() {
        // Lattice coordinates engineer exact score ties; fast ESE must agree
        // with the naive oracle on every boundary case.
        let objects: Vec<Vec<f64>> = (0..16)
            .map(|i| vec![(i % 4) as f64 * 0.25, (i / 4) as f64 * 0.25])
            .collect();
        let queries: Vec<TopKQuery> = (1..=4)
            .flat_map(|a| {
                (1..=4).map(move |b| TopKQuery::new(vec![a as f64 * 0.25, b as f64 * 0.25], 3))
            })
            .collect();
        let inst = Instance::new(objects, queries).unwrap();
        let idx = QueryIndex::build(&inst);
        for target in [0usize, 5, 10, 15] {
            let ctx = EvalContext::new(&inst, &idx, target);
            let cur = ctx.new_cursor();
            assert_eq!(cur.hit_count(), inst.hit_count_naive(target));
            for sx in [-0.25f64, 0.0, 0.25] {
                for sy in [-0.25f64, 0.0, 0.25] {
                    let s = Vector::from([sx, sy]);
                    let improved = inst.with_strategy(target, &s);
                    assert_eq!(
                        ctx.evaluate(&cur, &s),
                        improved.hit_count_naive(target),
                        "target {target}, s ({sx}, {sy})"
                    );
                }
            }
        }
    }

    #[test]
    fn context_identical_at_any_thread_count() {
        let inst = random_instance(30, 70, 3, 4, 29);
        let idx = QueryIndex::build(&inst);
        let base = EvalContext::new_with(&inst, &idx, 8, &ExecPolicy::sequential());
        for threads in [2usize, 3, 8] {
            let ctx = EvalContext::new_with(&inst, &idx, 8, &ExecPolicy::with_threads(threads));
            assert_eq!(ctx.thresh, base.thresh, "threads = {threads}");
            assert_eq!(
                ctx.new_cursor().hits(),
                base.new_cursor().hits(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn shared_context_scores_from_many_threads() {
        // One context, many concurrent readers: every thread must see the
        // same scores the sequential path computes.
        let inst = random_instance(30, 60, 3, 4, 47);
        let idx = QueryIndex::build(&inst);
        let ctx = EvalContext::new(&inst, &idx, 3);
        let cursor = ctx.new_cursor();
        let mut rnd = lcg(5);
        let strategies: Vec<Vector> = (0..24)
            .map(|_| Vector::new((0..3).map(|_| (rnd() - 0.5) * 0.5).collect::<Vec<_>>()))
            .collect();
        let expect: Vec<usize> = strategies
            .iter()
            .map(|s| ctx.evaluate(&cursor, s))
            .collect();
        let got = ExecPolicy::with_threads(4).map(&strategies, |_, s| ctx.evaluate(&cursor, s));
        assert_eq!(got, expect);
    }

    #[test]
    fn forked_cursors_are_independent() {
        let inst = random_instance(25, 40, 3, 3, 83);
        let idx = QueryIndex::build(&inst);
        let ctx = EvalContext::new(&inst, &idx, 6);
        let pristine = ctx.new_cursor();
        let mut fork = pristine.clone();
        ctx.apply(&mut fork, &Vector::from([-0.2, 0.1, -0.1]));
        // The original cursor is untouched by the fork's progress.
        assert_eq!(pristine.hit_count(), ctx.new_cursor().hit_count());
        assert_eq!(pristine.applied().as_slice(), &[0.0, 0.0, 0.0]);
        // And the fork matches a cursor of a fresh context that applied
        // the same strategy.
        let ctx = EvalContext::new(&inst, &idx, 6);
        let mut cur = ctx.new_cursor();
        ctx.apply(&mut cur, &Vector::from([-0.2, 0.1, -0.1]));
        assert_eq!(fork.hit_count(), cur.hit_count());
        assert_eq!(fork.hits(), cur.hits());
    }
}
