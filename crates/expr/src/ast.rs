//! Expression AST for utility and cost functions.
//!
//! A utility function scores an object for a query. Following §5.2 of the
//! paper, expressions mention two kinds of variables: object **attributes**
//! (`Attr`, the coefficients once the object is interpreted as a function)
//! and query **weights** (`Weight`, the function's input). The same AST
//! doubles as the cost-function language, where attributes refer to the
//! components of the improvement strategy.

use std::fmt;

/// A scalar expression over object attributes and query weights.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Const(f64),
    /// Object attribute `p^(i)` (0-based).
    Attr(usize),
    /// Query weight `w_i` (0-based).
    Weight(usize),
    /// Sum of two expressions.
    Add(Box<Expr>, Box<Expr>),
    /// Difference of two expressions.
    Sub(Box<Expr>, Box<Expr>),
    /// Product of two expressions.
    Mul(Box<Expr>, Box<Expr>),
    /// Quotient of two expressions.
    Div(Box<Expr>, Box<Expr>),
    /// Negation.
    Neg(Box<Expr>),
    /// Integer power (`n ≥ 0`).
    Pow(Box<Expr>, u32),
    /// Square root.
    Sqrt(Box<Expr>),
}

impl Expr {
    /// Convenience: literal constant.
    pub fn c(v: f64) -> Expr {
        Expr::Const(v)
    }

    /// Convenience: attribute variable.
    pub fn attr(i: usize) -> Expr {
        Expr::Attr(i)
    }

    /// Convenience: weight variable.
    pub fn weight(i: usize) -> Expr {
        Expr::Weight(i)
    }

    /// `self + rhs`.
    #[expect(
        clippy::should_implement_trait,
        reason = "a by-value builder named after the node it builds"
    )]
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    #[expect(
        clippy::should_implement_trait,
        reason = "a by-value builder named after the node it builds"
    )]
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    #[expect(
        clippy::should_implement_trait,
        reason = "a by-value builder named after the node it builds"
    )]
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }

    /// `self / rhs`.
    #[expect(
        clippy::should_implement_trait,
        reason = "a by-value builder named after the node it builds"
    )]
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Div(Box::new(self), Box::new(rhs))
    }

    /// `self ^ n`.
    pub fn pow(self, n: u32) -> Expr {
        Expr::Pow(Box::new(self), n)
    }

    /// `sqrt(self)`.
    pub fn sqrt(self) -> Expr {
        Expr::Sqrt(Box::new(self))
    }

    /// `-self`.
    #[expect(
        clippy::should_implement_trait,
        reason = "a by-value builder named after the node it builds"
    )]
    pub fn neg(self) -> Expr {
        Expr::Neg(Box::new(self))
    }

    /// Evaluates the expression for concrete attribute and weight vectors.
    ///
    /// # Panics
    /// Panics when a variable index exceeds the supplied slices — callers
    /// validate arity with [`Expr::max_attr`] / [`Expr::max_weight`] first.
    pub fn eval(&self, attrs: &[f64], weights: &[f64]) -> f64 {
        match self {
            Expr::Const(v) => *v,
            Expr::Attr(i) => attrs[*i],
            Expr::Weight(i) => weights[*i],
            Expr::Add(a, b) => a.eval(attrs, weights) + b.eval(attrs, weights),
            Expr::Sub(a, b) => a.eval(attrs, weights) - b.eval(attrs, weights),
            Expr::Mul(a, b) => a.eval(attrs, weights) * b.eval(attrs, weights),
            Expr::Div(a, b) => a.eval(attrs, weights) / b.eval(attrs, weights),
            Expr::Neg(a) => -a.eval(attrs, weights),
            Expr::Pow(a, n) => a.eval(attrs, weights).powi(*n as i32),
            Expr::Sqrt(a) => a.eval(attrs, weights).sqrt(),
        }
    }

    /// Largest attribute index mentioned, or `None` when attribute-free.
    pub fn max_attr(&self) -> Option<usize> {
        self.fold_indices(&mut |attr, _| attr)
    }

    /// Largest weight index mentioned, or `None` when weight-free.
    pub fn max_weight(&self) -> Option<usize> {
        self.fold_indices(&mut |_, weight| weight)
    }

    fn fold_indices(
        &self,
        pick: &mut impl FnMut(Option<usize>, Option<usize>) -> Option<usize>,
    ) -> Option<usize> {
        match self {
            Expr::Const(_) => None,
            Expr::Attr(i) => pick(Some(*i), None),
            Expr::Weight(i) => pick(None, Some(*i)),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                opt_max(a.fold_indices(pick), b.fold_indices(pick))
            }
            Expr::Neg(a) | Expr::Sqrt(a) => a.fold_indices(pick),
            Expr::Pow(a, _) => a.fold_indices(pick),
        }
    }

    /// Whether the expression mentions any attribute.
    pub fn uses_attrs(&self) -> bool {
        self.max_attr().is_some()
    }

    /// Whether the expression mentions any weight.
    pub fn uses_weights(&self) -> bool {
        self.max_weight().is_some()
    }

    /// Whether the expression is a pure constant.
    pub fn is_constant(&self) -> bool {
        !self.uses_attrs() && !self.uses_weights()
    }

    /// Builds the linear utility `Σ w_i · p^(i)` over `d` dimensions — the
    /// common case of §3.2 (Eq. 1).
    pub fn linear(d: usize) -> Expr {
        assert!(d > 0, "linear utility needs at least one dimension");
        let mut e = Expr::weight(0).mul(Expr::attr(0));
        for i in 1..d {
            e = e.add(Expr::weight(i).mul(Expr::attr(i)));
        }
        e
    }
}

fn opt_max(a: Option<usize>, b: Option<usize>) -> Option<usize> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Attr(i) => write!(f, "p{}", i + 1),
            Expr::Weight(i) => write!(f, "w{}", i + 1),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Div(a, b) => write!(f, "({a} / {b})"),
            Expr::Neg(a) => write!(f, "(-{a})"),
            Expr::Pow(a, n) => write!(f, "({a}^{n})"),
            Expr::Sqrt(a) => write!(f, "sqrt({a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_arithmetic() {
        // 2 * p1 + w1 - 3
        let e = Expr::c(2.0)
            .mul(Expr::attr(0))
            .add(Expr::weight(0))
            .sub(Expr::c(3.0));
        assert_eq!(e.eval(&[5.0], &[7.0]), 14.0);
    }

    #[test]
    fn eval_pow_sqrt_div_neg() {
        let e = Expr::attr(0).pow(3);
        assert_eq!(e.eval(&[2.0], &[]), 8.0);
        let e = Expr::attr(0).sqrt();
        assert_eq!(e.eval(&[9.0], &[]), 3.0);
        let e = Expr::attr(0).div(Expr::attr(1));
        assert_eq!(e.eval(&[6.0, 3.0], &[]), 2.0);
        let e = Expr::attr(0).neg();
        assert_eq!(e.eval(&[6.0], &[]), -6.0);
    }

    #[test]
    fn linear_matches_dot_product() {
        let e = Expr::linear(3);
        let attrs = [1.0, 2.0, 3.0];
        let weights = [0.5, 0.25, 0.125];
        let want: f64 = attrs.iter().zip(&weights).map(|(a, w)| a * w).sum();
        assert_eq!(e.eval(&attrs, &weights), want);
    }

    #[test]
    fn index_analysis() {
        let e = Expr::weight(2).mul(Expr::attr(4)).add(Expr::attr(1));
        assert_eq!(e.max_attr(), Some(4));
        assert_eq!(e.max_weight(), Some(2));
        assert!(e.uses_attrs() && e.uses_weights());
        assert!(!Expr::c(1.0).uses_attrs());
        assert!(Expr::c(1.0).is_constant());
    }

    #[test]
    fn display_roundtrip_shape() {
        let e = Expr::weight(0).mul(Expr::attr(0).pow(3)).add(Expr::c(1.0));
        assert_eq!(format!("{e}"), "((w1 * (p1^3)) + 1)");
    }

    #[test]
    fn paper_car_utility_eq19() {
        // u(c) = sqrt(w1 * Price) + w2 * Capacity / MPG   (Eq. 19)
        // Car 1: Price 15000, MPG 30, Capacity 4.
        let u = Expr::weight(0)
            .mul(Expr::attr(0))
            .sqrt()
            .add(Expr::weight(1).mul(Expr::attr(2)).div(Expr::attr(1)));
        let got = u.eval(&[15000.0, 30.0, 4.0], &[1.0, 1.0]);
        let want = 15000f64.sqrt() + 4.0 / 30.0;
        assert!((got - want).abs() < 1e-9);
    }
}
