//! Axis-aligned bounding boxes in `R^d`, the workhorse of the R-tree.
//!
//! Besides the usual containment/overlap/merge operations, boxes know
//! how to bound a *linear form* over themselves ([`BoundingBox::form_range`]),
//! which is what lets the R-tree prune whole subtrees against hyperplane and
//! slab predicates without visiting the points inside.

use crate::hyperplane::{Hyperplane, Side, Slab};

/// An axis-aligned box `[lo[0], hi[0]] × … × [lo[d-1], hi[d-1]]`.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundingBox {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

/// Relation of a box to a hyperplane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoxSide {
    /// Every point of the box is on/above the plane.
    EntirelyAbove,
    /// Every point of the box is strictly below the plane.
    EntirelyBelow,
    /// The plane passes through the box.
    Straddles,
}

impl BoundingBox {
    /// A degenerate box containing exactly one point.
    pub fn point(p: &[f64]) -> Self {
        BoundingBox {
            lo: p.to_vec(),
            hi: p.to_vec(),
        }
    }

    /// A box from explicit corner coordinates.
    ///
    /// # Panics
    /// Panics if dimensions differ or any `lo[i] > hi[i]`.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "bounding box corner dimension mismatch");
        for i in 0..lo.len() {
            assert!(
                lo[i] <= hi[i],
                "bounding box inverted in dimension {i}: {} > {}",
                lo[i],
                hi[i]
            );
        }
        BoundingBox { lo, hi }
    }

    /// The "empty" box that enlarges to whatever is merged into it.
    pub fn empty(dim: usize) -> Self {
        BoundingBox {
            lo: vec![f64::INFINITY; dim],
            hi: vec![f64::NEG_INFINITY; dim],
        }
    }

    /// Whether this is the empty box (never merged with anything).
    pub fn is_empty(&self) -> bool {
        self.lo.iter().zip(&self.hi).any(|(l, h)| l > h)
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Lower corner.
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper corner.
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Center point of the box.
    pub fn center(&self) -> Vec<f64> {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(l, h)| 0.5 * (l + h))
            .collect()
    }

    /// Whether the point lies inside (closed) the box.
    pub fn contains_point(&self, p: &[f64]) -> bool {
        debug_assert_eq!(p.len(), self.dim());
        p.iter()
            .enumerate()
            .all(|(i, &x)| x >= self.lo[i] && x <= self.hi[i])
    }

    /// Whether `other` is fully inside `self`.
    pub fn contains_box(&self, other: &BoundingBox) -> bool {
        if other.is_empty() {
            return true;
        }
        (0..self.dim()).all(|i| self.lo[i] <= other.lo[i] && self.hi[i] >= other.hi[i])
    }

    /// Whether the two boxes overlap (closed intersection non-empty).
    pub fn intersects(&self, other: &BoundingBox) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        (0..self.dim()).all(|i| self.lo[i] <= other.hi[i] && self.hi[i] >= other.lo[i])
    }

    /// Grows `self` to cover `other`.
    pub fn merge(&mut self, other: &BoundingBox) {
        debug_assert_eq!(self.dim(), other.dim());
        for i in 0..self.dim() {
            self.lo[i] = self.lo[i].min(other.lo[i]);
            self.hi[i] = self.hi[i].max(other.hi[i]);
        }
    }

    /// Grows `self` to cover the point `p`.
    pub fn merge_point(&mut self, p: &[f64]) {
        debug_assert_eq!(self.dim(), p.len());
        for (i, &pi) in p.iter().enumerate() {
            self.lo[i] = self.lo[i].min(pi);
            self.hi[i] = self.hi[i].max(pi);
        }
    }

    /// Minimal squared Euclidean distance from `p` to any point of the box.
    /// Zero when `p` is inside. Used by kNN search.
    pub fn min_dist_sq(&self, p: &[f64]) -> f64 {
        debug_assert_eq!(p.len(), self.dim());
        let mut acc = 0.0;
        for (i, &pi) in p.iter().enumerate() {
            let d = if pi < self.lo[i] {
                self.lo[i] - pi
            } else if pi > self.hi[i] {
                pi - self.hi[i]
            } else {
                0.0
            };
            acc += d * d;
        }
        acc
    }

    /// Tight range `[min, max]` of the linear form `normal · q + offset`
    /// over the box, computed corner-free: the extreme of a linear function
    /// over a box is attained by picking, per coordinate, whichever corner
    /// matches the coefficient's sign.
    pub fn form_range(&self, normal: &[f64], offset: f64) -> (f64, f64) {
        debug_assert_eq!(normal.len(), self.dim());
        let mut min = offset;
        let mut max = offset;
        for (i, &ni) in normal.iter().enumerate() {
            let (a, b) = (ni * self.lo[i], ni * self.hi[i]);
            min += a.min(b);
            max += a.max(b);
        }
        (min, max)
    }

    /// Classifies the box against a hyperplane using [`Self::form_range`].
    ///
    /// `EntirelyAbove` / `EntirelyBelow` are conservative certainties; a
    /// `Straddles` answer only means pruning is not possible.
    pub fn side_of(&self, h: &Hyperplane) -> BoxSide {
        let (min, max) = self.form_range(h.normal().as_slice(), h.offset());
        if min >= 0.0 {
            BoxSide::EntirelyAbove
        } else if max < 0.0 {
            BoxSide::EntirelyBelow
        } else {
            BoxSide::Straddles
        }
    }

    /// True when the box *cannot* contain any point of the slab's affected
    /// subspace — i.e. the whole box is provably on the same side of both
    /// boundaries. Used for R-tree pruning; a `false` answer means the
    /// subtree must be descended, not that it certainly intersects.
    pub fn disjoint_from_slab(&self, slab: &Slab) -> bool {
        let b = self.side_of(slab.before());
        if b == BoxSide::Straddles {
            return false;
        }
        let a = self.side_of(slab.after());
        if a == BoxSide::Straddles {
            return false;
        }
        // Both certain: disjoint iff the sign pattern is identical for every
        // point, i.e. no point can flip.
        matches!(
            (b, a),
            (BoxSide::EntirelyAbove, BoxSide::EntirelyAbove)
                | (BoxSide::EntirelyBelow, BoxSide::EntirelyBelow)
        )
    }

    /// Tolerance-widened variant of [`Self::disjoint_from_slab`]: boxes
    /// within `tol` of either boundary are never pruned, so exact-tie query
    /// points (decided by id tie-breaks) always reach the leaf test.
    pub fn disjoint_from_slab_tol(&self, slab: &Slab, tol: f64) -> bool {
        let hb = slab.before();
        let (bmin, bmax) = self.form_range(hb.normal().as_slice(), hb.offset());
        if bmin <= tol && bmax >= -tol {
            return false; // straddles (or touches) the before-boundary
        }
        let ha = slab.after();
        let (amin, amax) = self.form_range(ha.normal().as_slice(), ha.offset());
        if amin <= tol && amax >= -tol {
            return false;
        }
        // Both certainly on one side: disjoint iff the sides agree.
        (bmin > tol) == (amin > tol)
    }

    /// Classify against a hyperplane, as a `Side` if certain.
    pub fn certain_side(&self, h: &Hyperplane) -> Option<Side> {
        match self.side_of(h) {
            BoxSide::EntirelyAbove => Some(Side::Above),
            BoxSide::EntirelyBelow => Some(Side::Below),
            BoxSide::Straddles => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::Vector;

    fn bb(lo: &[f64], hi: &[f64]) -> BoundingBox {
        BoundingBox::new(lo.to_vec(), hi.to_vec())
    }

    #[test]
    fn point_box_roundtrip() {
        let b = BoundingBox::point(&[1.0, 2.0]);
        assert!(b.contains_point(&[1.0, 2.0]));
        assert!(!b.is_empty());
    }

    #[test]
    #[should_panic]
    fn inverted_box_rejected() {
        let _ = bb(&[1.0], &[0.0]);
    }

    #[test]
    fn empty_box_semantics() {
        let mut e = BoundingBox::empty(2);
        assert!(e.is_empty());
        assert!(!e.intersects(&bb(&[0.0, 0.0], &[1.0, 1.0])));
        e.merge_point(&[0.5, 0.5]);
        assert!(!e.is_empty());
        assert!(e.contains_point(&[0.5, 0.5]));
    }

    #[test]
    fn containment_and_overlap() {
        let outer = bb(&[0.0, 0.0], &[10.0, 10.0]);
        let inner = bb(&[2.0, 2.0], &[3.0, 3.0]);
        let crossing = bb(&[9.0, 9.0], &[11.0, 11.0]);
        let far = bb(&[20.0, 20.0], &[21.0, 21.0]);
        assert!(outer.contains_box(&inner));
        assert!(!inner.contains_box(&outer));
        assert!(outer.intersects(&crossing));
        assert!(!outer.intersects(&far));
        // Touching edges count as intersecting (closed boxes).
        assert!(outer.intersects(&bb(&[10.0, 0.0], &[12.0, 1.0])));
    }

    #[test]
    fn merge_and_center() {
        let mut m = bb(&[0.0, 0.0], &[1.0, 1.0]);
        m.merge(&bb(&[2.0, 0.0], &[3.0, 1.0]));
        assert_eq!(m, bb(&[0.0, 0.0], &[3.0, 1.0]));
        assert_eq!(m.center(), vec![1.5, 0.5]);
    }

    #[test]
    fn min_dist_sq_cases() {
        let b = bb(&[0.0, 0.0], &[1.0, 1.0]);
        assert_eq!(b.min_dist_sq(&[0.5, 0.5]), 0.0); // inside
        assert_eq!(b.min_dist_sq(&[2.0, 0.5]), 1.0); // right of box
        assert_eq!(b.min_dist_sq(&[2.0, 2.0]), 2.0); // corner
    }

    #[test]
    fn form_range_is_tight() {
        let b = bb(&[-1.0, 2.0], &[1.0, 3.0]);
        // form: 2x - y + 1 over the box: x∈[-1,1] contributes [-2,2],
        // -y over y∈[2,3] contributes [-3,-2]; total [-4, 1].
        let (min, max) = b.form_range(&[2.0, -1.0], 1.0);
        assert_eq!(min, -4.0);
        assert_eq!(max, 1.0);
        // Brute-force corners agree.
        let mut bf_min = f64::INFINITY;
        let mut bf_max = f64::NEG_INFINITY;
        for &x in &[-1.0, 1.0] {
            for &y in &[2.0, 3.0] {
                let v: f64 = 2.0 * x - y + 1.0;
                bf_min = bf_min.min(v);
                bf_max = bf_max.max(v);
            }
        }
        assert_eq!((min, max), (bf_min, bf_max));
    }

    #[test]
    fn side_classification() {
        let h = Hyperplane::new(Vector::from([1.0, 0.0]), -5.0); // x = 5
        assert_eq!(
            bb(&[6.0, 0.0], &[7.0, 1.0]).side_of(&h),
            BoxSide::EntirelyAbove
        );
        assert_eq!(
            bb(&[0.0, 0.0], &[1.0, 1.0]).side_of(&h),
            BoxSide::EntirelyBelow
        );
        assert_eq!(bb(&[4.0, 0.0], &[6.0, 1.0]).side_of(&h), BoxSide::Straddles);
        // Touching the plane counts as above (closed form_range min == 0).
        assert_eq!(
            bb(&[5.0, 0.0], &[6.0, 1.0]).side_of(&h),
            BoxSide::EntirelyAbove
        );
    }

    #[test]
    fn slab_pruning_is_sound() {
        let p = Vector::from([2.0, 0.0]);
        let o = Vector::from([0.0, 2.0]);
        let s = Vector::from([-4.0, 0.0]);
        let slab = Slab::affected_subspace(&p, &o, &s).unwrap();
        // Box deep inside "target worse both before and after" region.
        // Δ(q) = 2q1 - 2q2; Δ'(q) = -2q1 - 2q2. For q1 large positive and
        // q2 very negative both are positive.
        let safe = bb(&[0.1, -10.0], &[0.2, -9.0]);
        assert!(safe.disjoint_from_slab(&slab));
        // Box containing a flipping point must not be pruned.
        let flipping_box = bb(&[0.5, 0.0], &[2.0, 1.0]);
        assert!(!flipping_box.disjoint_from_slab(&slab));
    }

    #[test]
    fn certain_side_matches_side_of() {
        let h = Hyperplane::new(Vector::from([0.0, 1.0]), 0.0); // y = 0
        assert_eq!(
            bb(&[0.0, 1.0], &[1.0, 2.0]).certain_side(&h),
            Some(Side::Above)
        );
        assert_eq!(
            bb(&[0.0, -2.0], &[1.0, -1.0]).certain_side(&h),
            Some(Side::Below)
        );
        assert_eq!(bb(&[0.0, -1.0], &[1.0, 1.0]).certain_side(&h), None);
    }
}
