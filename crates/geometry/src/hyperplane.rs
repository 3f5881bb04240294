//! Hyperplanes, half-spaces, and slabs in `R^d`.
//!
//! In the improvement-query setting a hyperplane arises as the intersection
//! of two object functions `f_i(q) = p_i · q` and `f_l(q) = p_l · q`: the set
//! of query points where both objects score equally, `(p_i − p_l) · q = 0`
//! (Eq. 2 of the paper). Applying a strategy `s` to `p_i` tilts that
//! intersection to `(p_i + s − p_l) · q = 0` (Eq. 3); the region between the
//! two is the *affected subspace* (Eqs. 4–5), modelled here by [`Slab`].

use crate::vector::{dot, Vector};

/// Which side of a hyperplane a point lies on.
///
/// Following the paper's convention, points exactly on the hyperplane are
/// treated as [`Side::Above`] ("queries falling on the intersection can be
/// treated as above it", §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// `normal · q + offset ≥ 0`.
    Above,
    /// `normal · q + offset < 0`.
    Below,
}

impl Side {
    /// The opposite side.
    pub fn flip(self) -> Side {
        match self {
            Side::Above => Side::Below,
            Side::Below => Side::Above,
        }
    }
}

/// A hyperplane `{ q : normal · q + offset = 0 }` in `R^d`.
#[derive(Debug, Clone, PartialEq)]
pub struct Hyperplane {
    normal: Vector,
    offset: f64,
}

impl Hyperplane {
    /// Creates a hyperplane from its normal vector and offset.
    ///
    /// # Panics
    /// Panics if the normal is the zero vector (the locus would be either
    /// empty or all of space, neither of which is a hyperplane).
    pub fn new(normal: Vector, offset: f64) -> Self {
        assert!(!normal.is_zero(0.0), "hyperplane normal must be non-zero");
        Hyperplane { normal, offset }
    }

    /// The intersection hyperplane of two object functions: the set of query
    /// points scoring `a` and `b` equally, `{ q : (a − b) · q = 0 }`.
    ///
    /// Returns `None` when the objects are identical (they never intersect
    /// transversally; every query scores them equally).
    pub fn object_intersection(a: &Vector, b: &Vector) -> Option<Self> {
        let n = a - b;
        if n.is_zero(0.0) {
            None
        } else {
            Some(Hyperplane {
                normal: n,
                offset: 0.0,
            })
        }
    }

    /// The hyperplane's normal vector.
    pub fn normal(&self) -> &Vector {
        &self.normal
    }

    /// The hyperplane's offset term.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Dimensionality of the ambient space.
    pub fn dim(&self) -> usize {
        self.normal.dim()
    }

    /// The signed evaluation `normal · q + offset`.
    #[inline]
    pub fn eval(&self, q: &[f64]) -> f64 {
        dot(self.normal.as_slice(), q) + self.offset
    }

    /// Classifies which side `q` lies on (on-plane counts as `Above`).
    #[inline]
    pub fn side(&self, q: &[f64]) -> Side {
        if self.eval(q) >= 0.0 {
            Side::Above
        } else {
            Side::Below
        }
    }

    /// Perpendicular distance from `q` to the hyperplane.
    pub fn distance(&self, q: &[f64]) -> f64 {
        self.eval(q).abs() / self.normal.norm()
    }

    /// Orthogonal projection of `q` onto the hyperplane.
    pub fn project(&self, q: &[f64]) -> Vector {
        let t = self.eval(q) / self.normal.norm_sq();
        Vector::from(q).axpy(-t, &self.normal)
    }

    /// Returns a hyperplane with the normal flipped (same point set, with
    /// `Above`/`Below` exchanged).
    pub fn flipped(&self) -> Hyperplane {
        Hyperplane {
            normal: -&self.normal,
            offset: -self.offset,
        }
    }
}

/// The region between two parallel-or-tilted hyperplane positions where a
/// linear form changes sign: the paper's *affected subspace*.
///
/// Given the pre-improvement form `Δ(q) = (p − o) · q` and post-improvement
/// form `Δ'(q) = (p + s − o) · q`, a query's relative order against opponent
/// `o` flips iff `sign(Δ(q)) ≠ sign(Δ'(q))` (with on-plane counting as
/// non-negative). [`Slab::contains`] tests exactly that.
#[derive(Debug, Clone)]
pub struct Slab {
    before: Hyperplane,
    after: Hyperplane,
}

impl Slab {
    /// Builds the affected subspace for target attributes `p`, opponent
    /// attributes `o`, and strategy `s`.
    ///
    /// Returns `None` when either boundary would degenerate (target equal to
    /// the opponent before or after improvement): a degenerate boundary means
    /// ties everywhere, which the ranking layer resolves by object id rather
    /// than geometry.
    pub fn affected_subspace(p: &Vector, o: &Vector, s: &Vector) -> Option<Slab> {
        let mut buf = None;
        Slab::affected_subspace_in(&mut buf, p.as_slice(), (p + s).as_slice(), o.as_slice())?;
        buf
    }

    /// [`Slab::affected_subspace`] for a known `p_after = p + s`, built in
    /// `buf` so a caller scanning many opponents allocates the normals once.
    /// The normals are `p − o` and `p_after − o`, subtracted in the same
    /// order, so the slab is bit-identical; `None` where that is `None`.
    pub fn affected_subspace_in<'b>(
        buf: &'b mut Option<Slab>,
        p: &[f64],
        p_after: &[f64],
        o: &[f64],
    ) -> Option<&'b Slab> {
        let slab = buf.get_or_insert_with(|| {
            let plane = || Hyperplane {
                normal: Vector::zeros(o.len()),
                offset: 0.0,
            };
            Slab {
                before: plane(),
                after: plane(),
            }
        });
        for (plane, a) in [(&mut slab.before, p), (&mut slab.after, p_after)] {
            for (i, (x, y)) in a.iter().zip(o).enumerate() {
                plane.normal[i] = x - y;
            }
            if plane.normal.is_zero(0.0) {
                return None;
            }
        }
        Some(slab)
    }

    /// Builds a slab directly from two boundary hyperplanes.
    pub fn new(before: Hyperplane, after: Hyperplane) -> Slab {
        assert_eq!(
            before.dim(),
            after.dim(),
            "slab boundary dimension mismatch"
        );
        Slab { before, after }
    }

    /// The boundary corresponding to the pre-improvement intersection.
    pub fn before(&self) -> &Hyperplane {
        &self.before
    }

    /// The boundary corresponding to the post-improvement intersection.
    pub fn after(&self) -> &Hyperplane {
        &self.after
    }

    /// True iff the sign of the form flips across the improvement, i.e. the
    /// query point lies in the affected subspace.
    #[inline]
    pub fn contains(&self, q: &[f64]) -> bool {
        self.before.side(q) != self.after.side(q)
    }

    /// The sign pattern `(before, after)` at `q`; useful to distinguish
    /// queries where the target *gains* rank from where it *loses* rank.
    #[inline]
    pub fn sides(&self, q: &[f64]) -> (Side, Side) {
        (self.before.side(q), self.after.side(q))
    }

    /// Like [`Slab::contains`], but additionally reports queries lying
    /// within `tol` of either boundary as affected. Exact-tie queries (whose
    /// hit status is decided by an id tie-break rather than the sign) are
    /// then re-evaluated instead of skipped.
    #[inline]
    pub fn contains_tol(&self, q: &[f64], tol: f64) -> bool {
        let b = self.before.eval(q);
        let a = self.after.eval(q);
        (b >= 0.0) != (a >= 0.0) || b.abs() <= tol || a.abs() <= tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(n: &[f64], c: f64) -> Hyperplane {
        Hyperplane::new(Vector::from(n), c)
    }

    #[test]
    fn side_classification() {
        // x - y = 0 in 2D.
        let hp = h(&[1.0, -1.0], 0.0);
        assert_eq!(hp.side(&[2.0, 1.0]), Side::Above);
        assert_eq!(hp.side(&[1.0, 2.0]), Side::Below);
        // On-plane counts as Above, per the paper.
        assert_eq!(hp.side(&[1.0, 1.0]), Side::Above);
    }

    #[test]
    #[should_panic]
    fn zero_normal_rejected() {
        let _ = Hyperplane::new(Vector::zeros(2), 1.0);
    }

    #[test]
    fn object_intersection_basic() {
        let a = Vector::from([4.0, 3.0]);
        let b = Vector::from([1.0, -2.0]);
        let hp = Hyperplane::object_intersection(&a, &b).unwrap();
        // On the plane both objects score equally.
        // normal = (3, 5); a point on the plane: (5, -3).
        let q = [5.0, -3.0];
        assert!((hp.eval(&q)).abs() < 1e-12);
        assert!((dot(a.as_slice(), &q) - dot(b.as_slice(), &q)).abs() < 1e-12);
        assert!(Hyperplane::object_intersection(&a, &a).is_none());
    }

    #[test]
    fn distance_and_projection() {
        let hp = h(&[0.0, 1.0], -1.0); // y = 1
        assert!((hp.distance(&[5.0, 4.0]) - 3.0).abs() < 1e-12);
        let p = hp.project(&[5.0, 4.0]);
        assert!((p[0] - 5.0).abs() < 1e-12);
        assert!((p[1] - 1.0).abs() < 1e-12);
        // Projected point is on the plane.
        assert!(hp.eval(p.as_slice()).abs() < 1e-12);
    }

    #[test]
    fn flipped_preserves_point_set() {
        let hp = h(&[2.0, -1.0], 0.5);
        let fp = hp.flipped();
        for q in [[0.0, 0.5], [1.0, 2.5], [3.0, -1.0]] {
            assert!((hp.eval(&q) + fp.eval(&q)).abs() < 1e-12);
        }
        assert_eq!(hp.side(&[10.0, 0.0]), fp.side(&[10.0, 0.0]).flip());
    }

    #[test]
    fn paper_figure2_affected_subspace() {
        // Figure 2 of the paper: f1(q) = 4q1 + 3q2, f2(q) = q1 - 2q2,
        // s = (1, 0). The affected subspace is where f1 vs f2 flips.
        //
        // NOTE: the paper's figure ranks by *lowest* score (Eq. 6), so f2
        // beats f1 wherever f2(q) < f1(q), i.e. everywhere in the positive
        // quadrant; the *rank switch* happens for queries between the two
        // intersection lines. We verify sign-flip containment directly.
        let p1 = Vector::from([4.0, 3.0]);
        let p2 = Vector::from([1.0, -2.0]);
        let s = Vector::from([1.0, 0.0]);
        let slab = Slab::affected_subspace(&p1, &p2, &s).unwrap();
        // Before: Δ(q) = 3q1 + 5q2; after: Δ'(q) = 4q1 + 5q2.
        // A query with 3q1 + 5q2 < 0 ≤ 4q1 + 5q2 flips: e.g. q = (5, -3.5):
        // Δ = 15 - 17.5 = -2.5 < 0, Δ' = 20 - 17.5 = 2.5 ≥ 0.
        assert!(slab.contains(&[5.0, -3.5]));
        // A query far above both: no flip.
        assert!(!slab.contains(&[5.0, 5.0]));
        // A query far below both: no flip.
        assert!(!slab.contains(&[-5.0, -5.0]));
    }

    #[test]
    fn slab_sides_distinguish_direction() {
        let p = Vector::from([2.0]);
        let o = Vector::from([1.0]);
        let s = Vector::from([-2.0]); // target improves past opponent
        let slab = Slab::affected_subspace(&p, &o, &s).unwrap();
        // q = 1: before Δ = 1 ≥ 0 (target worse), after Δ' = -1 < 0 (better).
        assert_eq!(slab.sides(&[1.0]), (Side::Above, Side::Below));
        assert!(slab.contains(&[1.0]));
    }

    #[test]
    fn degenerate_slab_is_none() {
        let p = Vector::from([1.0, 1.0]);
        let o = p.clone();
        let s = Vector::from([1.0, 0.0]);
        assert!(Slab::affected_subspace(&p, &o, &s).is_none());
        // Strategy that lands exactly on the opponent also degenerates.
        let p2 = Vector::from([0.0, 1.0]);
        let s2 = Vector::from([1.0, 0.0]);
        assert!(Slab::affected_subspace(&p2, &Vector::from([1.0, 1.0]), &s2).is_none());
    }
}
