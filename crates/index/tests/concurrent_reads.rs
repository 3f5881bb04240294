//! Concurrent-read audit for the index structures.
//!
//! The evaluation core (`iq-core::exec`) shares an [`RTree`] read-only
//! across worker threads while scoring candidate strategies. Every query path takes `&self`; this test drives
//! those paths from many threads at once against a single shared instance
//! and checks each thread observes exactly the sequential results.

use iq_geometry::{BoundingBox, Hyperplane, Slab, Vector};
use iq_index::RTree;
use std::thread;

fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / ((1u64 << 53) as f64)
    }
}

fn sample_slab(dim: usize, rnd: &mut impl FnMut() -> f64) -> Slab {
    let normal = Vector::new((0..dim).map(|_| rnd() - 0.5).collect::<Vec<_>>());
    let offset = rnd() * 0.5;
    Slab::new(
        Hyperplane::new(normal.clone(), offset),
        Hyperplane::new(normal, offset + 0.2),
    )
}

#[test]
fn rtree_queries_are_stable_under_concurrent_readers() {
    let dim = 3;
    let mut rnd = lcg(42);
    let mut tree = RTree::new(dim);
    for i in 0..500 {
        let point: Vec<f64> = (0..dim).map(|_| rnd()).collect();
        tree.insert(&point, i);
    }

    let window = BoundingBox::new(vec![0.2; dim], vec![0.7; dim]);
    let slabs: Vec<Slab> = (0..8).map(|_| sample_slab(dim, &mut rnd)).collect();

    let expect_box: Vec<usize> = tree.search_box(&window).iter().map(|e| e.data).collect();
    let expect_slabs: Vec<Vec<usize>> = slabs
        .iter()
        .map(|s| tree.search_slab(s).iter().map(|e| e.data).collect())
        .collect();
    let expect_knn: Vec<usize> = tree
        .nearest_k(&vec![0.5; dim], 7)
        .iter()
        .map(|(e, _)| e.data)
        .collect();

    thread::scope(|scope| {
        for t in 0..8 {
            let (tree, window, slabs) = (&tree, &window, &slabs);
            let (expect_box, expect_slabs, expect_knn) = (&expect_box, &expect_slabs, &expect_knn);
            scope.spawn(move || {
                for round in 0..20 {
                    let got: Vec<usize> = tree.search_box(window).iter().map(|e| e.data).collect();
                    assert_eq!(&got, expect_box, "thread {t} round {round}");
                    for (si, slab) in slabs.iter().enumerate() {
                        let got: Vec<usize> =
                            tree.search_slab(slab).iter().map(|e| e.data).collect();
                        assert_eq!(&got, &expect_slabs[si], "thread {t} slab {si}");
                    }
                    let got: Vec<usize> = tree
                        .nearest_k(&vec![0.5; dim], 7)
                        .iter()
                        .map(|(e, _)| e.data)
                        .collect();
                    assert_eq!(&got, expect_knn, "thread {t} round {round}");
                }
            });
        }
    });
}
