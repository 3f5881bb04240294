//! Property-based tests: the R-tree must behave exactly like a naive list of
//! points under arbitrary insert/remove interleavings.

use iq_geometry::{BoundingBox, Hyperplane, Slab, Vector};
use iq_index::{BloomFilter, RTree};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn coord() -> impl Strategy<Value = f64> {
    // Small integer lattice: guarantees duplicates and boundary hits occur.
    (-8i32..8).prop_map(|x| x as f64 * 0.5)
}

fn point(d: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(coord(), d)
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<f64>),
    Remove(usize),
}

fn ops(d: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            3 => point(d).prop_map(Op::Insert),
            1 => (0usize..200).prop_map(Op::Remove),
        ],
        1..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rtree_matches_model_under_mutation(ops in ops(2), window in (point(2), point(2))) {
        let mut tree: RTree<usize> = RTree::with_capacity(2, 4);
        let mut model: Vec<(Vec<f64>, usize)> = Vec::new();
        let mut next_id = 0usize;
        for op in ops {
            match op {
                Op::Insert(p) => {
                    tree.insert(&p, next_id);
                    model.push((p, next_id));
                    next_id += 1;
                }
                Op::Remove(i) => {
                    if !model.is_empty() {
                        let victim = model.swap_remove(i % model.len());
                        let removed = tree.remove(&victim.0, |&d| d == victim.1);
                        prop_assert_eq!(removed, Some(victim.1));
                    }
                }
            }
        }
        prop_assert_eq!(tree.len(), model.len());
        tree.check_invariants().map_err(TestCaseError::fail)?;

        // Window query equivalence.
        let lo: Vec<f64> = window.0.iter().zip(&window.1).map(|(a, b)| a.min(*b)).collect();
        let hi: Vec<f64> = window.0.iter().zip(&window.1).map(|(a, b)| a.max(*b)).collect();
        let w = BoundingBox::new(lo, hi);
        let mut got: Vec<usize> = tree.search_box(&w).iter().map(|e| e.data).collect();
        got.sort_unstable();
        let mut want: Vec<usize> = model
            .iter()
            .filter(|(p, _)| w.contains_point(p))
            .map(|(_, d)| *d)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn rtree_knn_matches_model(pts in prop::collection::vec(point(3), 1..80),
                               q in point(3), k in 1usize..10) {
        let mut tree = RTree::new(3);
        for (i, p) in pts.iter().enumerate() {
            tree.insert(p, i);
        }
        let got = tree.nearest_k(&q, k);
        let mut dists: Vec<f64> = pts.iter().map(|p| iq_geometry::vector::dist(&q, p)).collect();
        dists.sort_by(|a, b| a.total_cmp(b));
        prop_assert_eq!(got.len(), k.min(pts.len()));
        for (i, (_, d)) in got.iter().enumerate() {
            prop_assert!((d - dists[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn rtree_slab_matches_model(pts in prop::collection::vec(point(2), 1..80),
                                p in point(2), o in point(2), s in point(2)) {
        let pv = Vector::new(p);
        let ov = Vector::new(o);
        let sv = Vector::new(s);
        let Some(slab) = Slab::affected_subspace(&pv, &ov, &sv) else {
            return Ok(());
        };
        let mut tree = RTree::with_capacity(2, 4);
        for (i, q) in pts.iter().enumerate() {
            tree.insert(q, i);
        }
        let mut got: Vec<usize> = tree.search_slab(&slab).iter().map(|e| e.data).collect();
        got.sort_unstable();
        let mut want: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, q)| slab.contains(q))
            .map(|(i, _)| i)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn bloom_never_false_negative(keys in prop::collection::vec(any::<u64>(), 1..300)) {
        let mut f = BloomFilter::new(keys.len(), 0.01);
        for k in &keys {
            f.insert(k);
        }
        for k in &keys {
            prop_assert!(f.may_contain(k));
        }
    }

    /// The tolerance-widened slab scan must report a superset of the plain
    /// scan (every affected query plus every boundary-tied one), on a tree
    /// grown by inserts (a packed arena plus a pending run) and on a
    /// bulk-packed one. The lattice coordinates make exact boundary ties
    /// common, so the widened set is regularly a *strict* superset here.
    #[test]
    fn slab_tol_is_superset_on_pending_and_packed(
        pts in prop::collection::vec(point(2), 1..100),
        p in point(2), o in point(2), s in point(2),
        tol_steps in 0usize..3,
    ) {
        let tol = tol_steps as f64 * 0.25;
        let pv = Vector::new(p);
        let ov = Vector::new(o);
        let sv = Vector::new(s);
        let Some(slab) = Slab::affected_subspace(&pv, &ov, &sv) else {
            return Ok(());
        };
        let pending = inserted(&pts);
        let packed = RTree::bulk(2, pts.iter().map(Vec::as_slice).zip(0..pts.len()));
        prop_assert!(packed.is_packed());
        let want_widened: BTreeSet<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, q)| slab.contains_tol(q, tol))
            .map(|(i, _)| i)
            .collect();
        for (name, tree) in [("pending", &pending), ("packed", &packed)] {
            let mut plain = BTreeSet::new();
            tree.visit_slab(&slab, &mut |e| {
                plain.insert(e.data);
            });
            let mut widened = BTreeSet::new();
            tree.visit_slab_tol(&slab, tol, &mut |e| {
                widened.insert(e.data);
            });
            prop_assert!(widened.is_superset(&plain), "{} tree lost entries", name);
            prop_assert_eq!(&widened, &want_widened, "{} tree vs naive tol filter", name);
        }
    }

    /// Random insert/remove interleavings that cross the compaction rule
    /// many times, on a tree grown from empty (node capacity 4) and on one
    /// bulk-packed from `seed`. After every step each read path answers as
    /// a naive list of the live entries: window, slab and widened slab
    /// sets, kNN distances, `len` and the `iter` set.
    #[test]
    fn pending_and_tombstones_answer_like_a_naive_list(
        seed in prop::collection::vec(point(2), 0..40),
        ops in ops(2),
        window in (point(2), point(2)),
        slab in (point(2), point(2), point(2)),
        q in point(2),
        k in 1usize..8,
    ) {
        let lo: Vec<f64> = window.0.iter().zip(&window.1).map(|(a, b)| a.min(*b)).collect();
        let hi: Vec<f64> = window.0.iter().zip(&window.1).map(|(a, b)| a.max(*b)).collect();
        let w = BoundingBox::new(lo, hi);
        let slab = Slab::affected_subspace(
            &Vector::new(slab.0),
            &Vector::new(slab.1),
            &Vector::new(slab.2),
        );
        let grown = inserted(&seed);
        let packed = RTree::bulk(2, seed.iter().map(Vec::as_slice).zip(0..seed.len()));
        for mut tree in [grown, packed] {
            let mut model: Vec<(Vec<f64>, usize)> = seed.iter().cloned().zip(0..).collect();
            let mut next_id = seed.len();
            for op in &ops {
                match op {
                    Op::Insert(p) => {
                        tree.insert(p, next_id);
                        model.push((p.clone(), next_id));
                        next_id += 1;
                    }
                    Op::Remove(i) => {
                        if !model.is_empty() {
                            let (p, d) = model.swap_remove(i % model.len());
                            prop_assert_eq!(tree.remove(&p, |&x| x == d), Some(d));
                        }
                    }
                }
                tree.check_invariants().map_err(TestCaseError::fail)?;
                prop_assert_eq!(tree.len(), model.len());
                let ids = |filter: &dyn Fn(&[f64]) -> bool| -> BTreeSet<usize> {
                    model.iter().filter(|(p, _)| filter(p)).map(|(_, d)| *d).collect()
                };
                let got: BTreeSet<usize> = tree.iter().map(|e| e.data).collect();
                prop_assert_eq!(got, ids(&|_| true));
                let got: BTreeSet<usize> = tree.search_box(&w).iter().map(|e| e.data).collect();
                prop_assert_eq!(got, ids(&|p| w.contains_point(p)));
                if let Some(slab) = &slab {
                    let mut got = BTreeSet::new();
                    tree.visit_slab(slab, &mut |e| {
                        got.insert(e.data);
                    });
                    prop_assert_eq!(got, ids(&|p| slab.contains(p)));
                    let mut got = BTreeSet::new();
                    tree.visit_slab_tol(slab, 0.25, &mut |e| {
                        got.insert(e.data);
                    });
                    prop_assert_eq!(got, ids(&|p| slab.contains_tol(p, 0.25)));
                }
                let got: Vec<f64> = tree.nearest_k(&q, k).iter().map(|(_, d)| *d).collect();
                let mut want: Vec<f64> = model
                    .iter()
                    .map(|(p, _)| iq_geometry::vector::dist(&q, p))
                    .collect();
                want.sort_by(|a, b| a.total_cmp(b));
                want.truncate(k);
                prop_assert_eq!(got, want);
            }
        }
    }
}

/// A tree grown by one insert per point from empty, with node capacity 4 so
/// that small inputs already cross the compaction rule and leave both a
/// multi-level packed arena and a pending run behind.
fn inserted(pts: &[Vec<f64>]) -> RTree<usize> {
    let mut tree = RTree::with_capacity(2, 4);
    for (i, p) in pts.iter().enumerate() {
        tree.insert(p, i);
    }
    tree
}

/// Deterministic boundary-tie instance where the widened scan must be a
/// *strict* superset: one point inside the slab, one within `tol` outside
/// each boundary, one far away — on a grown and a bulk-packed tree.
#[test]
fn slab_tol_strictly_wider_on_engineered_boundary_ties() {
    let slab = Slab::new(
        Hyperplane::new(Vector::from([1.0, 0.0]), 0.0),
        Hyperplane::new(Vector::from([1.0, 0.0]), -1.0),
    );
    let pts = [
        vec![0.5, 0.0],  // inside: the form flips sign across the slab
        vec![1.2, 0.0],  // 0.2 past the `after` boundary
        vec![-0.2, 0.0], // 0.2 past the `before` boundary
        vec![3.0, 0.0],  // far outside: must stay excluded
    ];
    let pending = inserted(&pts);
    assert!(!pending.is_packed());
    let packed = RTree::bulk(2, pts.iter().map(Vec::as_slice).zip(0..pts.len()));
    for (name, tree) in [("pending", &pending), ("packed", &packed)] {
        let mut plain = BTreeSet::new();
        tree.visit_slab(&slab, &mut |e| {
            plain.insert(e.data);
        });
        let mut widened = BTreeSet::new();
        tree.visit_slab_tol(&slab, 0.25, &mut |e| {
            widened.insert(e.data);
        });
        assert_eq!(plain, BTreeSet::from([0]), "{name}");
        assert_eq!(widened, BTreeSet::from([0, 1, 2]), "{name}");
        assert!(
            widened.is_superset(&plain) && widened.len() > plain.len(),
            "{name}: widened scan must be strictly wider"
        );
    }
}
