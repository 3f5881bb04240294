//! Property-based tests for the geometric substrate.

use iq_geometry::bsp::{find_subdomains, signature_of};
use iq_geometry::{BoundingBox, Hyperplane, Slab, Vector};
use proptest::prelude::*;

fn finite(range: std::ops::Range<f64>) -> impl Strategy<Value = f64> {
    prop::num::f64::NORMAL.prop_map(move |x| {
        let frac = (x.abs() % 1.0).abs();
        range.start + frac * (range.end - range.start)
    })
}

fn point(d: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(finite(-10.0..10.0), d)
}

proptest! {
    #[test]
    fn form_range_bounds_every_contained_point(
        lo in point(3),
        ext in prop::collection::vec(finite(0.0..5.0), 3),
        normal in point(3),
        offset in finite(-5.0..5.0),
        t in prop::collection::vec(finite(0.0..1.0), 3),
    ) {
        let hi: Vec<f64> = lo.iter().zip(&ext).map(|(l, e)| l + e).collect();
        let b = BoundingBox::new(lo.clone(), hi.clone());
        // Arbitrary point inside the box.
        let p: Vec<f64> = (0..3).map(|i| lo[i] + t[i] * ext[i]).collect();
        prop_assume!(b.contains_point(&p));
        let (min, max) = b.form_range(&normal, offset);
        let v = iq_geometry::vector::dot(&normal, &p) + offset;
        prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
    }

    #[test]
    fn slab_pruning_never_prunes_contained_points(
        p in point(3),
        o in point(3),
        s in point(3),
        q in point(3),
        ext in prop::collection::vec(finite(0.0..2.0), 3),
    ) {
        let pv = Vector::new(p);
        let ov = Vector::new(o);
        let sv = Vector::new(s);
        if let Some(slab) = Slab::affected_subspace(&pv, &ov, &sv) {
            if slab.contains(&q) {
                // Any box containing q must not be reported disjoint.
                let lo: Vec<f64> = q.iter().zip(&ext).map(|(x, e)| x - e).collect();
                let hi: Vec<f64> = q.iter().zip(&ext).map(|(x, e)| x + e).collect();
                let b = BoundingBox::new(lo, hi);
                prop_assert!(!b.disjoint_from_slab(&slab));
            }
        }
    }

    #[test]
    fn projection_lands_on_plane_and_is_closest(
        n in point(3),
        c in finite(-3.0..3.0),
        q in point(3),
        other_t in finite(-2.0..2.0),
    ) {
        let nv = Vector::new(n.clone());
        prop_assume!(nv.norm() > 1e-6);
        let h = Hyperplane::new(nv, c);
        let proj = h.project(&q);
        prop_assert!(h.eval(proj.as_slice()).abs() < 1e-6);
        // Distance to the projection equals the plane distance, and any other
        // point on the plane is at least as far away.
        let d = iq_geometry::vector::dist(&q, proj.as_slice());
        prop_assert!((d - h.distance(&q)).abs() < 1e-6);
        // Pick another point on the plane by sliding along a tangent.
        let tangent = {
            let mut t = vec![0.0; 3];
            // Any vector orthogonal to n: swap two coords of n.
            t[0] = -n[1];
            t[1] = n[0];
            Vector::new(t)
        };
        if tangent.norm() > 1e-6 {
            let other = proj.axpy(other_t, &tangent);
            prop_assert!(h.eval(other.as_slice()).abs() < 1e-5);
            let d2 = iq_geometry::vector::dist(&q, other.as_slice());
            prop_assert!(d2 + 1e-6 >= d);
        }
    }

    #[test]
    fn bsp_same_cell_iff_same_signature(
        normals in prop::collection::vec(point(2), 1..5),
        offsets in prop::collection::vec(finite(-2.0..2.0), 5),
        queries in prop::collection::vec(point(2), 1..30),
    ) {
        let hs: Vec<Hyperplane> = normals
            .iter()
            .zip(&offsets)
            .filter(|(n, _)| n.iter().any(|x| x.abs() > 1e-9))
            .map(|(n, &c)| Hyperplane::new(Vector::new(n.clone()), c))
            .collect();
        prop_assume!(!hs.is_empty());
        let p = find_subdomains(&hs, &queries);
        // Every query assigned, and cell membership == signature equality.
        for i in 0..queries.len() {
            prop_assert!(p.assignment[i] != usize::MAX);
            for j in (i + 1)..queries.len() {
                let same_sig = signature_of(&queries[i], &hs) == signature_of(&queries[j], &hs);
                prop_assert_eq!(p.assignment[i] == p.assignment[j], same_sig);
            }
        }
        // Subdomain query lists are consistent with the assignment.
        for sd in &p.subdomains {
            for &qi in &sd.queries {
                prop_assert_eq!(p.assignment[qi], sd.id);
            }
        }
    }
}
