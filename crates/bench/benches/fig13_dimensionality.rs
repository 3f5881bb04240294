//! Figure 13: Efficient-IQ scalability in the number of variables of the
//! interpreted functions (1–5). The paper reports sub-linear growth of the
//! processing time. Full sweep: `figures fig13`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iq_bench::harness::{build_instance, run_one_min_cost, Scheme};
use iq_core::{QueryIndex, SearchOptions};
use iq_workload::{Distribution, QueryDistribution};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig13_dimensionality");
    group.sample_size(10);
    let opts = SearchOptions::default();
    for d in 1..=5usize {
        let inst = build_instance(
            Distribution::Independent,
            QueryDistribution::Uniform,
            400,
            120,
            d,
            6,
            13 + d as u64,
        );
        let index = QueryIndex::build(&inst);
        let target = 0;
        let tau = (inst.hit_count_naive(target) + 8).min(inst.num_queries());
        group.bench_with_input(
            BenchmarkId::new("Efficient-IQ", d),
            &(&inst, &index),
            |b, (inst, index)| {
                b.iter(|| {
                    run_one_min_cost(inst, index, Scheme::EfficientIq, target, tau, &opts, 133)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
