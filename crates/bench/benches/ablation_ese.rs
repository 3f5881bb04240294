//! Ablation: the value of each layer of Efficient Strategy Evaluation.
//!
//! Compares, on identical instances and strategies:
//! * `ese_fast` — per-threshold-object groups, each pruned by its bounding
//!   box and then filtered by its slab (the shipped path);
//! * `ese_pairwise` — the literal Algorithm 2 loop over every object's
//!   affected subspace;
//! * `thresholded_scan` — per-query threshold comparison with no spatial
//!   pruning (still index-assisted: the thresholds come from the
//!   subdomain index);
//! * `no_index` — honest from-scratch evaluation: apply the strategy and
//!   recompute every query's top-k over the whole dataset;
//! * `kernel_scan` — one batched-kernel pass scoring the improved target
//!   against every query's weight row.
//!
//! This is the design-choice evidence behind DESIGN.md §3: each layer of
//! the index buys an order of magnitude, and the grouped fast path is the
//! reason strategy evaluation is cheap enough to run once per candidate
//! inside the greedy loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iq_bench::harness::build_instance;
use iq_core::{EvalContext, QueryIndex};
use iq_geometry::Vector;
use iq_workload::{Distribution, QueryDistribution};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_ese");
    group.sample_size(20);
    for &(n, m) in &[(500usize, 200usize), (2000, 800)] {
        let inst = build_instance(
            Distribution::Independent,
            QueryDistribution::Uniform,
            n,
            m,
            3,
            8,
            99,
        );
        let index = QueryIndex::build(&inst);
        let ctx = EvalContext::new(&inst, &index, 0);
        let cursor = ctx.new_cursor();
        // A small strategy: the realistic candidate-evaluation shape.
        let s = Vector::from([-0.02, -0.01, -0.015]);
        let label = format!("{n}x{m}");
        group.bench_with_input(BenchmarkId::new("ese_fast", &label), &(), |b, _| {
            b.iter(|| ctx.evaluate(&cursor, &s))
        });
        group.bench_with_input(BenchmarkId::new("ese_pairwise", &label), &(), |b, _| {
            b.iter(|| ctx.evaluate_pairwise(&cursor, &index, &s))
        });
        group.bench_with_input(BenchmarkId::new("thresholded_scan", &label), &(), |b, _| {
            b.iter(|| ctx.evaluate_naive(&cursor, &s))
        });
        group.bench_with_input(BenchmarkId::new("no_index", &label), &(), |b, _| {
            b.iter(|| {
                let improved = inst.with_strategy(0, &s);
                improved.hit_count_naive(0)
            })
        });
        // The full pass the kernel makes (DESIGN.md §9): the improved
        // target scored against every query's weight row.
        let p_new = &Vector::from(inst.object(0)) + &s;
        group.bench_with_input(BenchmarkId::new("kernel_scan", &label), &(), |b, _| {
            let mut buf = Vec::new();
            b.iter(|| {
                inst.weights_flat().scores_into(p_new.as_slice(), &mut buf);
                std::hint::black_box(buf.iter().sum::<f64>())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
