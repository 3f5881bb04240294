//! Iteration-order regression tests for the BTreeMap-backed stores.
//!
//! The subdomain index and the grouped evaluation forest used to hold
//! their entries in `HashMap`s, whose per-instance `RandomState` seed made
//! the order of `evaluate_changes` output differ between two builds of the
//! *same* instance — even within one process. These tests pin the fix:
//! two independently constructed builds must produce byte-identical change
//! sequences, in the same order, every time.

use iq_core::{EvalContext, Instance, QueryIndex, TopKQuery};
use iq_geometry::Vector;

fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (u32::MAX as f64)
    }
}

fn instance(dim: usize, objects: usize, queries: usize) -> Instance {
    let mut rng = lcg(42);
    let objs: Vec<Vec<f64>> = (0..objects)
        .map(|_| (0..dim).map(|_| rng()).collect())
        .collect();
    let qs: Vec<TopKQuery> = (0..queries)
        .map(|_| TopKQuery::new((0..dim).map(|_| rng()).collect(), 2))
        .collect();
    Instance::new(objs, qs).unwrap()
}

/// Two independent index builds over the same instance must emit the exact
/// same ordered change list for the same strategy. This is what the
/// `hash-iter-order` lint protects: the grouped forest's visit order flows
/// straight into `evaluate_changes` output (and from there into the greedy
/// search's tie-breaking).
#[test]
fn evaluate_changes_order_is_build_independent() {
    let inst = instance(3, 60, 40);
    let target = 7;
    // Ranking is ascending-score, so a strategy that lowers every attribute
    // improves the target's rank; pick the first probe that flips hits.
    let s = [-0.6, -0.3, -0.9, 0.5]
        .iter()
        .map(|&m| Vector::from([m, m, m]))
        .find(|s| {
            let index = QueryIndex::build(&inst);
            let ctx = EvalContext::new(&inst, &index, target);
            !ctx.evaluate_changes(&ctx.new_cursor(), s).is_empty()
        })
        .expect("some probe strategy must flip hits");

    let reference: Vec<(usize, bool, bool)> = {
        let index = QueryIndex::build(&inst);
        let ctx = EvalContext::new(&inst, &index, target);
        ctx.evaluate_changes(&ctx.new_cursor(), &s)
    };

    for _ in 0..5 {
        let index = QueryIndex::build(&inst);
        let ctx = EvalContext::new(&inst, &index, target);
        assert_eq!(
            ctx.evaluate_changes(&ctx.new_cursor(), &s),
            reference,
            "two builds of the same instance disagreed on change order"
        );
    }
}

/// Subdomain assignment must be identical across independent builds: same
/// subdomain ids for every query, verified with the structural invariant
/// check run on both.
#[test]
fn subdomain_assignment_is_build_independent() {
    let inst = instance(3, 40, 60);
    let a = QueryIndex::build(&inst);
    let b = QueryIndex::build(&inst);
    a.check_invariants(&inst).unwrap();
    b.check_invariants(&inst).unwrap();
    assert_eq!(a.num_subdomains(), b.num_subdomains());
    for q in 0..inst.num_queries() {
        assert_eq!(
            a.subdomain_of(q),
            b.subdomain_of(q),
            "query {q} assigned differently across two builds"
        );
    }
    for (sa, sb) in a.subdomains().iter().zip(b.subdomains()) {
        assert_eq!(sa.queries, sb.queries);
        assert_eq!(sa.toplist, sb.toplist);
    }
}
