//! Figure 6: indexing cost on the (simulated) real-world datasets —
//! Efficient-IQ, bare R-tree, and Dominant Graph on VEHICLE and HOUSE.
//! Full-size run: `figures fig6`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iq_core::QueryIndex;
use iq_index::RTree;
use iq_topk::DominantGraph;
use iq_workload::{real, real_instance, QueryDistribution};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig06_index_real");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(6);
    let datasets = vec![
        ("VEHICLE", real::vehicle_scaled(600, &mut rng)),
        ("HOUSE", real::house_scaled(600, &mut rng)),
    ];
    for (name, ds) in datasets {
        let inst = real_instance(&ds, QueryDistribution::Uniform, ds.len() / 3, 8, 66);
        group.bench_with_input(
            BenchmarkId::new("efficient_iq_index", name),
            &inst,
            |b, inst| b.iter(|| QueryIndex::build(inst)),
        );
        group.bench_with_input(BenchmarkId::new("rtree_only", name), &inst, |b, inst| {
            b.iter(|| RTree::bulk(inst.dim(), inst.weights_flat().iter_rows().zip(0usize..)))
        });
        group.bench_with_input(
            BenchmarkId::new("dominant_graph", name),
            &inst,
            |b, inst| b.iter(|| DominantGraph::build(inst.objects_flat())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
