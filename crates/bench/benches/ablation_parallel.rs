//! Ablation: the deterministic parallel fan-outs vs thread count.
//!
//! Times the two phases that still fan out across the `iq_core::exec`
//! pool — subdomain index construction (`QueryIndex::build_with`) and ESE
//! context construction (`EvalContext::new_with`) — on the Figure 7
//! workload (Independent objects, Uniform queries), with the pool pinned to
//! 1, 2, 4, and 8 workers. Each phase is asserted byte-identical across
//! thread counts before anything is timed. Candidate scoring is no longer
//! a fan-out: the bound-pruned search scores a handful of candidates per
//! step, one at a time. Measured numbers live in EXPERIMENTS.md —
//! speedups only materialise on multi-core hosts, so the recorded
//! environment matters.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iq_bench::harness::build_instance;
use iq_core::{EvalContext, ExecPolicy, QueryIndex};
use iq_workload::{Distribution, QueryDistribution};

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_parallel");
    group.sample_size(10);
    for &(n, m) in &[(600usize, 120usize), (2000, 400)] {
        let inst = build_instance(
            Distribution::Independent,
            QueryDistribution::Uniform,
            n,
            m,
            3,
            6,
            7,
        );
        let target = 0;
        let reference = QueryIndex::build_with(&inst, &ExecPolicy::sequential());
        let ref_ctx = EvalContext::new_with(&inst, &reference, target, &ExecPolicy::sequential());
        for threads in THREADS {
            let exec = ExecPolicy::with_threads(threads);
            let index = QueryIndex::build_with(&inst, &exec);
            let ctx = EvalContext::new_with(&inst, &index, target, &exec);
            for q in 0..inst.num_queries() {
                assert_eq!(index.toplist_of(q), reference.toplist_of(q));
                assert_eq!(index.subdomain_of(q), reference.subdomain_of(q));
                assert_eq!(
                    ctx.threshold(q).map(|(o, s)| (o, s.to_bits())),
                    ref_ctx.threshold(q).map(|(o, s)| (o, s.to_bits()))
                );
            }
            group.bench_with_input(
                BenchmarkId::new(format!("index_build/threads={threads}"), format!("{n}x{m}")),
                &inst,
                |b, inst| b.iter(|| QueryIndex::build_with(inst, &exec)),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("ese_context/threads={threads}"), format!("{n}x{m}")),
                &(&inst, &index),
                |b, (inst, index)| b.iter(|| EvalContext::new_with(inst, index, target, &exec)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
