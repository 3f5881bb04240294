//! Figure 5: indexing cost vs number of queries — the subdomain index
//! against a bare R-tree over the query points. Full sweep: `figures fig5`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iq_bench::harness::build_instance;
use iq_core::QueryIndex;
use iq_index::RTree;
use iq_workload::{Distribution, QueryDistribution};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig05_index_queries");
    group.sample_size(10);
    for &m in &[100usize, 200] {
        let inst = build_instance(
            Distribution::Independent,
            QueryDistribution::Uniform,
            400,
            m,
            3,
            8,
            5,
        );
        group.bench_with_input(
            BenchmarkId::new("efficient_iq_index", m),
            &inst,
            |b, inst| b.iter(|| QueryIndex::build(inst)),
        );
        group.bench_with_input(BenchmarkId::new("rtree_only", m), &inst, |b, inst| {
            b.iter(|| RTree::bulk(inst.dim(), inst.weights_flat().iter_rows().zip(0usize..)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
