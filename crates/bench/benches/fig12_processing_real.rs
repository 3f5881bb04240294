//! Figure 12: IQ processing time on the (simulated) real-world datasets —
//! all four schemes on VEHICLE and HOUSE at Criterion smoke scale.
//! Full-size run with quality metrics: `figures fig12`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iq_bench::harness::{run_one_min_cost, Scheme};
use iq_core::{QueryIndex, SearchOptions};
use iq_workload::{real, real_instance, QueryDistribution};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig12_processing_real");
    group.sample_size(10);
    let opts = SearchOptions::default();
    let mut rng = StdRng::seed_from_u64(12);
    let datasets = vec![
        ("VEHICLE", real::vehicle_scaled(500, &mut rng)),
        ("HOUSE", real::house_scaled(500, &mut rng)),
    ];
    for (name, ds) in datasets {
        let inst = real_instance(&ds, QueryDistribution::Uniform, ds.len() / 3, 6, 121);
        let index = QueryIndex::build(&inst);
        let target = 0;
        let tau = (inst.hit_count_naive(target) + 8).min(inst.num_queries());
        for scheme in Scheme::ALL {
            group.bench_with_input(
                BenchmarkId::new(scheme.label(), name),
                &(&inst, &index),
                |b, (inst, index)| {
                    b.iter(|| run_one_min_cost(inst, index, scheme, target, tau, &opts, 122))
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
