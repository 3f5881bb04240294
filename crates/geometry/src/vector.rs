//! Dense `d`-dimensional vectors over `f64`.
//!
//! The whole library works in a single coordinate space at a time: objects
//! are points in attribute space, top-k queries are points in weight space,
//! and improvement strategies are displacement vectors in attribute space.
//! All three are represented by [`Vector`].
//!
//! Hot paths (scoring a query against every object) operate on `&[f64]`
//! slices via the free functions [`dot`], [`norm`], etc., so callers that
//! store coordinates in flat buffers pay no abstraction cost.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics in debug builds if the lengths differ (callers guarantee equal
/// dimensionality; release builds truncate to the shorter slice via `zip`).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: dimension mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) norm of a slice.
#[inline]
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Squared Euclidean norm (avoids the `sqrt` when only comparisons matter).
#[inline]
pub fn norm_sq(a: &[f64]) -> f64 {
    dot(a, a)
}

/// L1 norm (sum of absolute values) of a slice.
#[inline]
pub fn norm_l1(a: &[f64]) -> f64 {
    a.iter().map(|x| x.abs()).sum()
}

/// Squared Euclidean distance between two points.
#[inline]
pub fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dist_sq: dimension mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean distance between two points.
#[inline]
pub fn dist(a: &[f64], b: &[f64]) -> f64 {
    dist_sq(a, b).sqrt()
}

/// An owned dense vector in `R^d`.
///
/// `Vector` is deliberately a thin wrapper around `Vec<f64>`: it exists to
/// give geometric operations a home and to make signatures self-describing,
/// not to hide the representation. [`Vector::as_slice`] (or deref-style
/// indexing) exposes the raw coordinates for hot loops.
#[derive(Clone, PartialEq)]
pub struct Vector(Vec<f64>);

impl Vector {
    /// Creates a vector from raw coordinates.
    pub fn new(coords: Vec<f64>) -> Self {
        Vector(coords)
    }

    /// The zero vector of dimension `d`.
    pub fn zeros(d: usize) -> Self {
        Vector(vec![0.0; d])
    }

    /// A vector with every coordinate equal to `value`.
    pub fn filled(d: usize, value: f64) -> Self {
        Vector(vec![value; d])
    }

    /// The `i`-th standard basis vector of dimension `d`, scaled by `scale`.
    pub fn basis(d: usize, i: usize, scale: f64) -> Self {
        assert!(i < d, "basis index {i} out of range for dimension {d}");
        let mut v = vec![0.0; d];
        v[i] = scale;
        Vector(v)
    }

    /// Dimensionality of the vector.
    #[inline]
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Whether the vector has no coordinates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Coordinates as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Consumes the vector, returning the raw coordinates.
    pub fn into_inner(self) -> Vec<f64> {
        self.0
    }

    /// Dot product with another vector.
    #[inline]
    pub fn dot(&self, other: &Vector) -> f64 {
        dot(&self.0, &other.0)
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(&self) -> f64 {
        norm(&self.0)
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm_sq(&self) -> f64 {
        norm_sq(&self.0)
    }

    /// L1 norm.
    #[inline]
    pub fn norm_l1(&self) -> f64 {
        norm_l1(&self.0)
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn dist(&self, other: &Vector) -> f64 {
        dist(&self.0, &other.0)
    }

    /// Returns `self * t` without consuming `self`.
    pub fn scaled(&self, t: f64) -> Vector {
        Vector(self.0.iter().map(|x| x * t).collect())
    }

    /// Unit vector in the direction of `self`, or `None` for the zero vector.
    pub fn normalized(&self) -> Option<Vector> {
        let n = self.norm();
        if n <= f64::EPSILON {
            None
        } else {
            Some(self.scaled(1.0 / n))
        }
    }

    /// `self + t * other`, the fused update used by iterative solvers.
    pub fn axpy(&self, t: f64, other: &Vector) -> Vector {
        debug_assert_eq!(self.dim(), other.dim());
        Vector(
            self.0
                .iter()
                .zip(&other.0)
                .map(|(a, b)| a + t * b)
                .collect(),
        )
    }

    /// True when every coordinate is finite (no NaN / infinity).
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|x| x.is_finite())
    }

    /// True when every coordinate's absolute value is at most `eps`.
    pub fn is_zero(&self, eps: f64) -> bool {
        self.0.iter().all(|x| x.abs() <= eps)
    }

    /// Component-wise clamp of each coordinate into `[lo[i], hi[i]]`.
    pub fn clamped(&self, lo: &[f64], hi: &[f64]) -> Vector {
        debug_assert_eq!(self.dim(), lo.len());
        debug_assert_eq!(self.dim(), hi.len());
        Vector(
            self.0
                .iter()
                .enumerate()
                .map(|(i, &x)| x.clamp(lo[i], hi[i]))
                .collect(),
        )
    }

    /// Iterator over coordinates.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.0.iter()
    }
}

impl fmt::Debug for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Vector(")?;
        for (i, x) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.6}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<f64>> for Vector {
    fn from(v: Vec<f64>) -> Self {
        Vector(v)
    }
}

impl From<&[f64]> for Vector {
    fn from(v: &[f64]) -> Self {
        Vector(v.to_vec())
    }
}

impl<const N: usize> From<[f64; N]> for Vector {
    fn from(v: [f64; N]) -> Self {
        Vector(v.to_vec())
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl IndexMut<usize> for Vector {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.0[i]
    }
}

impl Add<&Vector> for &Vector {
    type Output = Vector;
    fn add(self, rhs: &Vector) -> Vector {
        debug_assert_eq!(self.dim(), rhs.dim());
        Vector(self.0.iter().zip(&rhs.0).map(|(a, b)| a + b).collect())
    }
}

impl Sub<&Vector> for &Vector {
    type Output = Vector;
    fn sub(self, rhs: &Vector) -> Vector {
        debug_assert_eq!(self.dim(), rhs.dim());
        Vector(self.0.iter().zip(&rhs.0).map(|(a, b)| a - b).collect())
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;
    fn mul(self, t: f64) -> Vector {
        self.scaled(t)
    }
}

impl Neg for &Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        debug_assert_eq!(self.dim(), rhs.dim());
        for (a, b) in self.0.iter_mut().zip(&rhs.0) {
            *a += b;
        }
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        debug_assert_eq!(self.dim(), rhs.dim());
        for (a, b) in self.0.iter_mut().zip(&rhs.0) {
            *a -= b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn norms() {
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
        assert_eq!(norm_sq(&[3.0, 4.0]), 25.0);
        assert_eq!(norm_l1(&[-3.0, 4.0]), 7.0);
    }

    #[test]
    fn distances() {
        assert_eq!(dist(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(dist_sq(&[1.0], &[4.0]), 9.0);
    }

    #[test]
    fn constructors() {
        assert_eq!(Vector::zeros(3).as_slice(), &[0.0, 0.0, 0.0]);
        assert_eq!(Vector::filled(2, 7.0).as_slice(), &[7.0, 7.0]);
        assert_eq!(Vector::basis(3, 1, 2.5).as_slice(), &[0.0, 2.5, 0.0]);
    }

    #[test]
    #[should_panic]
    fn basis_out_of_range_panics() {
        let _ = Vector::basis(2, 2, 1.0);
    }

    #[test]
    fn arithmetic() {
        let a = Vector::from([1.0, 2.0]);
        let b = Vector::from([3.0, -1.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 1.0]);
        assert_eq!((&a - &b).as_slice(), &[-2.0, 3.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 1.0]);
        c -= &b;
        assert_eq!(c.as_slice(), a.as_slice());
    }

    #[test]
    fn axpy_matches_manual() {
        let a = Vector::from([1.0, 2.0]);
        let b = Vector::from([10.0, 20.0]);
        assert_eq!(a.axpy(0.5, &b).as_slice(), &[6.0, 12.0]);
    }

    #[test]
    fn normalized_unit_length() {
        let v = Vector::from([3.0, 4.0]).normalized().unwrap();
        assert!((v.norm() - 1.0).abs() < 1e-12);
        assert!(Vector::zeros(2).normalized().is_none());
    }

    #[test]
    fn clamp_and_zero_checks() {
        let v = Vector::from([-2.0, 5.0]);
        assert_eq!(v.clamped(&[0.0, 0.0], &[1.0, 1.0]).as_slice(), &[0.0, 1.0]);
        assert!(Vector::from([1e-12, -1e-12]).is_zero(1e-9));
        assert!(!Vector::from([0.1]).is_zero(1e-9));
    }

    #[test]
    fn finite_check() {
        assert!(Vector::from([1.0, 2.0]).is_finite());
        assert!(!Vector::from([f64::NAN]).is_finite());
        assert!(!Vector::from([f64::INFINITY]).is_finite());
    }

    #[test]
    fn indexing_and_debug() {
        let mut v = Vector::from([1.0, 2.0]);
        v[0] = 9.0;
        assert_eq!(v[0], 9.0);
        let s = format!("{v:?}");
        assert!(s.starts_with("Vector("));
    }
}
