//! Scoring one query against the improved target must not allocate:
//! `required_rhs` and `reach_rhs` run once per query per candidate solve,
//! so an allocation there multiplies by the whole workload. Building one
//! evaluation context may allocate a few times per threshold group, never
//! once per query: it reads the weight rows where they are stored. Scoring
//! a candidate with `evaluate` allocates a fixed number of times, whatever
//! the number of threshold groups: one slab buffer serves every group.
//!
//! A counting global allocator tallies allocations made on the calling
//! thread only, so other tests running in parallel cannot disturb the
//! count.

use iq_core::{EvalContext, ExecPolicy, ImprovementStrategy, Instance, QueryIndex, TopKQuery};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to the system allocator unchanged; the
// thread-local counter has a const initializer, so bumping it never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn instance(n: usize, m: usize, d: usize) -> Instance {
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut rnd = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / ((1u64 << 53) as f64)
    };
    let objects = (0..n).map(|_| (0..d).map(|_| rnd()).collect()).collect();
    let queries = (0..m)
        .map(|i| TopKQuery::new((0..d).map(|_| rnd()).collect(), 1 + i % 5))
        .collect();
    Instance::new(objects, queries).unwrap()
}

#[test]
fn rhs_scoring_allocates_nothing() {
    let inst = instance(400, 150, 3);
    let index = QueryIndex::build_with(&inst, &ExecPolicy::sequential());
    let ctx = EvalContext::new_with(&inst, &index, 7, &ExecPolicy::sequential());
    let mut cursor = ctx.new_cursor();
    // Score at the unimproved target and again after a committed step.
    for step in 0..2 {
        let before = allocations();
        let mut sum = 0.0;
        for q in 0..inst.num_queries() {
            sum += ctx.required_rhs(&cursor, q).unwrap_or(0.0);
            sum += ctx.reach_rhs(&cursor, q).unwrap_or(0.0);
        }
        assert_eq!(
            allocations() - before,
            0,
            "step {step}: scoring {} queries allocated",
            inst.num_queries()
        );
        assert!(sum.is_finite());
        ctx.apply(&mut cursor, &ImprovementStrategy::from([-0.05, -0.02, 0.0]));
    }
}

#[test]
fn context_allocates_per_group_not_per_query() {
    let inst = instance(400, 2_000, 3);
    let index = QueryIndex::build_with(&inst, &ExecPolicy::sequential());
    let before = allocations();
    let ctx = EvalContext::new_with(&inst, &index, 7, &ExecPolicy::sequential());
    let made = allocations() - before;
    let groups: std::collections::BTreeSet<usize> = (0..inst.num_queries())
        .filter_map(|q| ctx.threshold(q).map(|(o, _)| o))
        .collect();
    let groups = groups.len() as u64;
    // The bound only separates the two growth rates while the queries far
    // outnumber the groups.
    assert!(groups * 8 < inst.num_queries() as u64, "{groups} groups");
    assert!(
        made <= 4 * groups + 16,
        "one context over {} queries in {groups} groups allocated {made} times",
        inst.num_queries()
    );
}

#[test]
fn evaluate_allocates_a_constant_count_whatever_the_groups() {
    let s = ImprovementStrategy::from([-0.05, -0.02, 0.0]);
    let mut seen = Vec::new();
    for m in [8, 2_000] {
        let inst = instance(400, m, 3);
        let index = QueryIndex::build_with(&inst, &ExecPolicy::sequential());
        let ctx = EvalContext::new_with(&inst, &index, 7, &ExecPolicy::sequential());
        let cursor = ctx.new_cursor();
        let groups: std::collections::BTreeSet<usize> = (0..m)
            .filter_map(|q| ctx.threshold(q).map(|(o, _)| o))
            .collect();
        let before = allocations();
        let hits = ctx.evaluate(&cursor, &s);
        seen.push((groups.len(), allocations() - before));
        assert!(hits <= m);
    }
    let (few, many) = (seen[0], seen[1]);
    assert!(many.0 >= 3 * few.0, "group counts {seen:?}");
    // The improved target, the slab's two normals, and under
    // debug-invariants the visit witness.
    assert_eq!(few.1, many.1, "(groups, allocations) {seen:?}");
    assert!(many.1 <= 4, "(groups, allocations) {seen:?}");
}
