//! Figure 7: IQ processing time vs number of objects on the Independent
//! synthetic dataset — all four schemes of §6.1 at Criterion smoke scale.
//! Full sweep with quality metrics: `figures fig7`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iq_bench::harness::{build_instance, run_one_min_cost, Scheme};
use iq_core::{QueryIndex, SearchOptions};
use iq_workload::{Distribution, QueryDistribution};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig07_processing_in");
    group.sample_size(10);
    let opts = SearchOptions::default();
    for &n in &[300usize, 600] {
        let inst = build_instance(
            Distribution::Independent,
            QueryDistribution::Uniform,
            n,
            120,
            3,
            6,
            7,
        );
        let index = QueryIndex::build(&inst);
        let target = 0;
        let tau = (inst.hit_count_naive(target) + 8).min(inst.num_queries());
        for scheme in Scheme::ALL {
            group.bench_with_input(
                BenchmarkId::new(scheme.label(), n),
                &(&inst, &index),
                |b, (inst, index)| {
                    b.iter(|| run_one_min_cost(inst, index, scheme, target, tau, &opts, 70))
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
