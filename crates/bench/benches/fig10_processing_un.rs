//! Figure 10: IQ processing time vs number of queries on the Uniform
//! (Un) query distribution — all four schemes at smoke scale.
//! Full sweep with quality metrics: `figures fig10`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iq_bench::harness::{build_instance, run_one_min_cost, Scheme};
use iq_core::{QueryIndex, SearchOptions};
use iq_workload::{Distribution, QueryDistribution};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_processing_un");
    group.sample_size(10);
    let opts = SearchOptions::default();
    for &m in &[100usize, 200] {
        let inst = build_instance(
            Distribution::Independent,
            QueryDistribution::Uniform,
            400,
            m,
            3,
            6,
            10,
        );
        let index = QueryIndex::build(&inst);
        let target = 0;
        let tau = (inst.hit_count_naive(target) + 8).min(inst.num_queries());
        for scheme in Scheme::ALL {
            group.bench_with_input(
                BenchmarkId::new(scheme.label(), m),
                &(&inst, &index),
                |b, (inst, index)| {
                    b.iter(|| run_one_min_cost(inst, index, scheme, target, tau, &opts, 100))
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
