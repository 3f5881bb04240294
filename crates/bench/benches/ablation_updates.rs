//! Ablation for the §4.3 update machinery: one incremental operation
//! against the full index rebuild it replaces.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iq_bench::harness::build_instance;
use iq_core::update::{add_query, UpdateStats};
use iq_core::{QueryIndex, TopKQuery};
use iq_workload::{Distribution, QueryDistribution};

fn bench_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_updates");
    group.sample_size(10);
    for &(n, m) in &[(1000usize, 300usize), (4000, 600)] {
        let inst = build_instance(
            Distribution::Independent,
            QueryDistribution::Clustered,
            n,
            m,
            3,
            6,
            77,
        );
        let index = QueryIndex::build(&inst);
        let label = format!("{n}x{m}");
        // Incremental: add one clustered query (kNN fast path likely).
        group.bench_with_input(
            BenchmarkId::new("add_query_incremental", &label),
            &(),
            |b, _| {
                b.iter_batched(
                    || (inst.clone(), index.clone()),
                    |(mut inst, mut index)| {
                        let w = inst.weights(0).to_vec();
                        let mut stats = UpdateStats::default();
                        add_query(&mut inst, &mut index, TopKQuery::new(w, 3), &mut stats).unwrap();
                        (inst, index)
                    },
                    criterion::BatchSize::LargeInput,
                )
            },
        );
        // The alternative: rebuild from scratch after the same insertion.
        group.bench_with_input(BenchmarkId::new("full_rebuild", &label), &(), |b, _| {
            b.iter_batched(
                || {
                    let mut i = inst.clone();
                    let w = i.weights(0).to_vec();
                    i.push_query(&w, 3).unwrap();
                    i
                },
                |inst| QueryIndex::build(&inst),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_updates);
criterion_main!(benches);
