//! The Figure 2 worked example of the paper: objects `f1(q) = 4q1 + 3q2`
//! and `f2(q) = q1 − 2q2`, strategy `s = (1, 0)` applied to `p1`, and five
//! query points of which exactly two change their ranking — the queries
//! inside the affected subspace between the old intersection
//! `3q1 + 5q2 = 0` and the new one `4q1 + 5q2 = 0`.

use improvement_queries::core::EvalContext;
use improvement_queries::geometry::{FlatMatrix, Slab, Vector};
use improvement_queries::prelude::*;
use improvement_queries::topk::naive;

const P1: [f64; 2] = [4.0, 3.0];
const P2: [f64; 2] = [1.0, -2.0];
const S: [f64; 2] = [1.0, 0.0];

/// Five queries chosen to realize the figure's before/after table:
/// q1, q2 rank [f1, f2] before and after; q3, q4 flip to [f2, f1];
/// q5 ranks [f2, f1] throughout. (Rankings are ascending-score, Eq. 6.)
fn queries() -> Vec<[f64; 2]> {
    vec![
        [-5.0, 1.0],  // q1: Δ = −10,  Δ' = −15  → [f1, f2] stays
        [-2.0, 0.5],  // q2: Δ = −3.5, Δ' = −5.5 → [f1, f2] stays
        [10.0, -6.5], // q3: Δ = −2.5, Δ' = 7.5  → flips to [f2, f1]
        [8.0, -4.9],  // q4: Δ = −0.5, Δ' = 7.5  → flips to [f2, f1]
        [5.0, 5.0],   // q5: Δ = 35,   Δ' = 40   → [f2, f1] stays
    ]
}

fn delta(q: &[f64; 2]) -> f64 {
    // f1(q) − f2(q) = 3q1 + 5q2.
    3.0 * q[0] + 5.0 * q[1]
}

fn delta_after(q: &[f64; 2]) -> f64 {
    // After s = (1, 0): 4q1 + 5q2.
    4.0 * q[0] + 5.0 * q[1]
}

#[test]
fn ranking_table_matches_figure() {
    let objects = FlatMatrix::from_rows(2, &[P1, P2]);
    for (i, q) in queries().iter().enumerate() {
        let before = naive::full_ranking(&objects, q);
        let expected_before = if delta(q) < 0.0 {
            vec![0, 1]
        } else {
            vec![1, 0]
        };
        assert_eq!(before, expected_before, "query {} before", i + 1);
    }
    // Apply s to p1 and recheck.
    let improved = FlatMatrix::from_rows(2, &[[P1[0] + S[0], P1[1] + S[1]], P2]);
    for (i, q) in queries().iter().enumerate() {
        let after = naive::full_ranking(&improved, q);
        let expected_after = if delta_after(q) < 0.0 {
            vec![0, 1]
        } else {
            vec![1, 0]
        };
        assert_eq!(after, expected_after, "query {} after", i + 1);
    }
    // The figure's table: q1, q2 unchanged; q3, q4 flipped; q5 unchanged.
    let flips: Vec<bool> = queries()
        .iter()
        .map(|q| (delta(q) < 0.0) != (delta_after(q) < 0.0))
        .collect();
    assert_eq!(flips, vec![false, false, true, true, false]);
}

#[test]
fn affected_subspace_selects_exactly_the_flipping_queries() {
    let p1 = Vector::from(P1);
    let p2 = Vector::from(P2);
    let s = Vector::from(S);
    let slab = Slab::affected_subspace(&p1, &p2, &s).expect("non-degenerate");
    let contained: Vec<bool> = queries().iter().map(|q| slab.contains(q)).collect();
    assert_eq!(
        contained,
        vec![false, false, true, true, false],
        "Fact 1: a query's result is affected iff it moved to a different subdomain"
    );
}

#[test]
fn ese_counts_match_figure_semantics() {
    // Make all five queries top-1: p1 hits a query iff it ranks first.
    let instance = Instance::new(
        vec![P1.to_vec(), P2.to_vec()],
        queries()
            .iter()
            .map(|q| TopKQuery::new(q.to_vec(), 1))
            .collect(),
    )
    .unwrap();
    let index = QueryIndex::build(&instance);
    let ctx = EvalContext::new(&instance, &index, 0);
    let cursor = ctx.new_cursor();
    // Before: p1 wins q1, q2, q3, q4 (Δ < 0 for all four).
    assert_eq!(cursor.hit_count(), 4);
    // After s = (1, 0): p1 loses q3 and q4 (Fact 2's rank switch).
    let s = Vector::from(S);
    assert_eq!(ctx.evaluate(&cursor, &s), 2);
    assert_eq!(
        ctx.evaluate(&cursor, &s),
        instance.with_strategy(0, &s).hit_count_naive(0)
    );
    // Only the two flipping queries are reported as changes.
    let mut changed: Vec<usize> = ctx
        .evaluate_changes(&cursor, &s)
        .iter()
        .map(|&(q, _, _)| q)
        .collect();
    changed.sort_unstable();
    assert_eq!(changed, vec![2, 3]);
}
