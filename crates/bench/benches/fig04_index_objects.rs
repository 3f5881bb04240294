//! Figure 4: indexing cost vs number of objects — Efficient-IQ's subdomain
//! index against the Dominant Graph, at Criterion smoke scale. The full
//! sweep (with the paper's averaging over IN/CO/AC) lives in the `figures`
//! binary (`figures fig4`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iq_bench::harness::build_instance;
use iq_core::QueryIndex;
use iq_topk::DominantGraph;
use iq_workload::{Distribution, QueryDistribution};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig04_index_objects");
    group.sample_size(10);
    for &n in &[300usize, 600] {
        let inst = build_instance(
            Distribution::Independent,
            QueryDistribution::Uniform,
            n,
            120,
            3,
            8,
            4,
        );
        group.bench_with_input(
            BenchmarkId::new("efficient_iq_index", n),
            &inst,
            |b, inst| b.iter(|| QueryIndex::build(inst)),
        );
        group.bench_with_input(BenchmarkId::new("dominant_graph", n), &inst, |b, inst| {
            b.iter(|| DominantGraph::build(inst.objects_flat()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
