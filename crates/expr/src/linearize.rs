//! Variable-substitution linearization of complex utility functions (§5.2).
//!
//! A non-linear utility like Eq. 20,
//! `u(p) = w1·(p¹)³ + w2·(p²·p³) + w3·(p⁴)²`, becomes the linear function
//! `u*(p) = w1·p⁵ + w2·p⁶ + w3·p⁷` over *augmented attributes*
//! `p⁵ = (p¹)³`, `p⁶ = p²·p³`, `p⁷ = (p⁴)²` (Eq. 21). The augmented values
//! are never stored — "we simply store the conversion process as math
//! formulas, and compute their values on the fly".
//!
//! The algorithm: expand the expression into a sum of products, split each
//! product into a weights-only part and an attributes-only part, and emit
//! one augmented dimension per distinct attribute part. An outermost
//! `sqrt(·)` is stripped first (it is monotone increasing on the
//! non-negative scores utilities produce, so ranking is preserved — the
//! paper's Eq. 22→25 trick for Euclidean-distance utilities). Mixed factors
//! that cannot be separated, such as `sqrt(w1 + p1)`, are reported as
//! [`LinearizeError::Inseparable`].

use crate::ast::Expr;
use std::fmt;

/// One augmented dimension: the weight-side coefficient expression and the
/// attribute-side value expression.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearTerm {
    /// Expression over query weights only (the augmented query coordinate).
    pub weight_expr: Expr,
    /// Expression over object attributes only (the augmented attribute).
    pub attr_expr: Expr,
}

/// Why an expression could not be linearized.
#[derive(Debug, Clone, PartialEq)]
pub enum LinearizeError {
    /// A multiplicative factor mixes weights and attributes inseparably.
    Inseparable(String),
    /// A denominator was itself a sum; only single-product denominators are
    /// supported.
    SumDenominator(String),
    /// A power of a sum exceeded the expansion limit.
    PowerTooLarge(u32),
}

impl fmt::Display for LinearizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinearizeError::Inseparable(e) => {
                write!(f, "factor `{e}` mixes weights and attributes inseparably")
            }
            LinearizeError::SumDenominator(e) => {
                write!(
                    f,
                    "denominator `{e}` is a sum; divide by a single product instead"
                )
            }
            LinearizeError::PowerTooLarge(n) => {
                write!(f, "refusing to expand a sum raised to the {n}-th power")
            }
        }
    }
}

impl std::error::Error for LinearizeError {}

/// The linearized form of a utility function.
#[derive(Debug, Clone)]
pub struct LinearizedUtility {
    terms: Vec<LinearTerm>,
    monotone_stripped: u32,
    original: Expr,
}

/// Maximum exponent to which a *sum* will be expanded.
const MAX_SUM_POWER: u32 = 6;

impl LinearizedUtility {
    /// Linearizes `expr` by variable substitution.
    pub fn linearize(expr: &Expr) -> Result<Self, LinearizeError> {
        // Strip outermost monotone-increasing sqrt wrappers: ranking by
        // sqrt(u) equals ranking by u on non-negative scores (Eq. 22–25).
        let mut inner = expr;
        let mut stripped = 0;
        while let Expr::Sqrt(e) = inner {
            inner = e;
            stripped += 1;
        }
        let products = expand(inner)?;
        // Split each product and merge terms sharing an attribute part.
        let mut terms: Vec<LinearTerm> = Vec::new();
        let mut keys: Vec<String> = Vec::new();
        for product in products {
            let (w, a) = split_product(product)?;
            let key = format!("{a}");
            if let Some(pos) = keys.iter().position(|k| *k == key) {
                let old = terms[pos].weight_expr.clone();
                terms[pos].weight_expr = old.add(w);
            } else {
                keys.push(key);
                terms.push(LinearTerm {
                    weight_expr: w,
                    attr_expr: a,
                });
            }
        }
        Ok(LinearizedUtility {
            terms,
            monotone_stripped: stripped,
            original: expr.clone(),
        })
    }

    /// The augmented dimensionality (number of substitution terms).
    pub fn dim(&self) -> usize {
        self.terms.len()
    }

    /// The augmented terms.
    pub fn terms(&self) -> &[LinearTerm] {
        &self.terms
    }

    /// How many outermost `sqrt` wrappers were stripped. When non-zero, the
    /// linearized score is a monotone transform (repeated squaring) of the
    /// original — identical ranking, different magnitude.
    pub fn monotone_stripped(&self) -> u32 {
        self.monotone_stripped
    }

    /// The original expression.
    pub fn original(&self) -> &Expr {
        &self.original
    }

    /// Computes the augmented attribute vector of an object on the fly.
    pub fn augmented_object(&self, attrs: &[f64]) -> Vec<f64> {
        self.terms
            .iter()
            .map(|t| t.attr_expr.eval(attrs, &[]))
            .collect()
    }

    /// Computes the augmented weight vector of a query on the fly.
    pub fn augmented_query(&self, weights: &[f64]) -> Vec<f64> {
        self.terms
            .iter()
            .map(|t| t.weight_expr.eval(&[], weights))
            .collect()
    }

    /// The linearized score: the dot product of the augmented vectors.
    /// Equals the original utility raised to `2^monotone_stripped`.
    pub fn score(&self, attrs: &[f64], weights: &[f64]) -> f64 {
        self.terms
            .iter()
            .map(|t| t.weight_expr.eval(&[], weights) * t.attr_expr.eval(attrs, weights))
            .sum()
    }
}

/// A product of leaf factors (each factor is weights-only, attrs-only, or
/// constant once expansion succeeds).
type Product = Vec<Expr>;

/// Expands an expression into a sum of products.
fn expand(expr: &Expr) -> Result<Vec<Product>, LinearizeError> {
    match expr {
        Expr::Const(_) | Expr::Attr(_) | Expr::Weight(_) => Ok(vec![vec![expr.clone()]]),
        Expr::Neg(a) => {
            let mut out = expand(a)?;
            for p in &mut out {
                p.push(Expr::Const(-1.0));
            }
            Ok(out)
        }
        Expr::Add(a, b) => {
            let mut out = expand(a)?;
            out.extend(expand(b)?);
            Ok(out)
        }
        Expr::Sub(a, b) => {
            let mut out = expand(a)?;
            let mut rhs = expand(b)?;
            for p in &mut rhs {
                p.push(Expr::Const(-1.0));
            }
            out.extend(rhs);
            Ok(out)
        }
        Expr::Mul(a, b) => {
            let left = expand(a)?;
            let right = expand(b)?;
            let mut out = Vec::with_capacity(left.len() * right.len());
            for l in &left {
                for r in &right {
                    let mut p = l.clone();
                    p.extend(r.iter().cloned());
                    out.push(p);
                }
            }
            Ok(out)
        }
        Expr::Div(a, b) => {
            let num = expand(a)?;
            let den = expand(b)?;
            if den.len() != 1 {
                return Err(LinearizeError::SumDenominator(format!("{b}")));
            }
            let recip: Vec<Expr> = den[0]
                .iter()
                .map(|f| Expr::Const(1.0).div(f.clone()))
                .collect();
            let mut out = num;
            for p in &mut out {
                p.extend(recip.iter().cloned());
            }
            Ok(out)
        }
        Expr::Pow(a, n) => {
            if *n == 0 {
                return Ok(vec![vec![Expr::Const(1.0)]]);
            }
            let base = expand(a)?;
            if base.len() == 1 {
                // Power of a product distributes over the factors.
                Ok(vec![base[0].iter().map(|f| pow_factor(f, *n)).collect()])
            } else {
                if *n > MAX_SUM_POWER {
                    return Err(LinearizeError::PowerTooLarge(*n));
                }
                // (sum)^n by repeated multiplication.
                let mut acc = base.clone();
                for _ in 1..*n {
                    let mut next = Vec::with_capacity(acc.len() * base.len());
                    for l in &acc {
                        for r in &base {
                            let mut p = l.clone();
                            p.extend(r.iter().cloned());
                            next.push(p);
                        }
                    }
                    acc = next;
                }
                Ok(acc)
            }
        }
        Expr::Sqrt(a) => {
            let base = expand(a)?;
            if base.len() == 1 {
                // sqrt of a product distributes over factors (utilities
                // operate on non-negative attribute/weight domains).
                Ok(vec![base[0].iter().map(|f| f.clone().sqrt()).collect()])
            } else {
                // sqrt of a sum is fine iff the sum is single-sided.
                let sum = a.as_ref().clone();
                if !sum.uses_attrs() || !sum.uses_weights() {
                    Ok(vec![vec![sum.sqrt()]])
                } else {
                    Err(LinearizeError::Inseparable(format!("{expr}")))
                }
            }
        }
    }
}

fn pow_factor(f: &Expr, n: u32) -> Expr {
    match f {
        Expr::Const(v) => Expr::Const(v.powi(n as i32)),
        other => other.clone().pow(n),
    }
}

/// Splits a product's factors into (weights-only expr, attrs-only expr).
fn split_product(product: Product) -> Result<(Expr, Expr), LinearizeError> {
    let mut weight_factors: Vec<Expr> = Vec::new();
    let mut attr_factors: Vec<Expr> = Vec::new();
    let mut constant = 1.0f64;
    for f in product {
        let uses_a = f.uses_attrs();
        let uses_w = f.uses_weights();
        match (uses_a, uses_w) {
            (false, false) => {
                constant *= f.eval(&[], &[]);
            }
            (true, false) => attr_factors.push(f),
            (false, true) => weight_factors.push(f),
            (true, true) => return Err(LinearizeError::Inseparable(format!("{f}"))),
        }
    }
    // Deterministic factor order so structurally equal parts print equally.
    let sort_key = |e: &Expr| format!("{e}");
    weight_factors.sort_by_key(sort_key);
    attr_factors.sort_by_key(sort_key);

    let weight_expr = fold_product(weight_factors, constant);
    let attr_expr = fold_product(attr_factors, 1.0);
    Ok((weight_expr, attr_expr))
}

fn fold_product(factors: Vec<Expr>, constant: f64) -> Expr {
    let mut it = factors.into_iter();
    let mut acc = match it.next() {
        None => return Expr::Const(constant),
        Some(f) => f,
    };
    for f in it {
        acc = acc.mul(f);
    }
    // exact-float: exact multiplicative-identity test on a folded constant
    if constant == 1.0 {
        acc
    } else {
        Expr::Const(constant).mul(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, Schema};

    fn lin(input: &str) -> LinearizedUtility {
        let e = parse(input, &Schema::positional()).unwrap();
        LinearizedUtility::linearize(&e).unwrap()
    }

    fn check_score_equality(u: &LinearizedUtility, attrs: &[f64], weights: &[f64]) {
        let original = u.original().eval(attrs, weights);
        let mut lin_score = u.score(attrs, weights);
        // Undo the stripped monotone transforms.
        for _ in 0..u.monotone_stripped() {
            lin_score = lin_score.sqrt();
        }
        assert!(
            (original - lin_score).abs() < 1e-9 * (1.0 + original.abs()),
            "score mismatch: original {original}, linearized {lin_score}"
        );
        // Also check the augmented dot product equals score().
        let ao = u.augmented_object(attrs);
        let aq = u.augmented_query(weights);
        let dot: f64 = ao.iter().zip(&aq).map(|(a, b)| a * b).sum();
        let raw = u.score(attrs, weights);
        assert!((dot - raw).abs() < 1e-9 * (1.0 + raw.abs()));
    }

    #[test]
    fn plain_linear_is_identity_dimension() {
        let u = lin("w1 * p1 + w2 * p2 + w3 * p3");
        assert_eq!(u.dim(), 3);
        check_score_equality(&u, &[1.0, 2.0, 3.0], &[0.3, 0.5, 0.2]);
    }

    #[test]
    fn paper_eq20_to_eq21() {
        // u(p) = w1(p1)³ + w2(p2·p3) + w3(p4)² → 3 augmented dims.
        let u = lin("w1 * p1^3 + w2 * (p2 * p3) + w3 * p4^2");
        assert_eq!(u.dim(), 3);
        let attrs = [2.0, 3.0, 4.0, 5.0];
        let ao = u.augmented_object(&attrs);
        let mut sorted = ao.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        // p5 = 8, p6 = 12, p7 = 25.
        assert_eq!(sorted, vec![8.0, 12.0, 25.0]);
        check_score_equality(&u, &attrs, &[0.2, 0.5, 0.3]);
    }

    #[test]
    fn paper_eq22_euclidean_distance() {
        // u(p) = sqrt((w1 - p1)² + (w2 - p2)²): outer sqrt stripped, then
        // expansion gives terms {1 (const attr), p1, p2, p1², p2²}.
        let u = lin("sqrt((w1 - p1)^2 + (w2 - p2)^2)");
        assert_eq!(u.monotone_stripped(), 1);
        assert!(u.dim() <= 5, "dim {} unexpectedly large", u.dim());
        for (attrs, weights) in [
            ([1.0, 2.0], [3.0, 4.0]),
            ([0.5, 0.5], [0.25, 0.75]),
            ([2.0, -1.0], [0.0, 1.0]),
        ] {
            check_score_equality(&u, &attrs, &weights);
        }
        // Ranking equivalence: squared distance orders like distance.
        let w = [0.3, 0.6];
        let a1 = [0.1, 0.2];
        let a2 = [0.5, 0.9];
        let d1 = u.original().eval(&a1, &w);
        let d2 = u.original().eval(&a2, &w);
        let s1 = u.score(&a1, &w);
        let s2 = u.score(&a2, &w);
        assert_eq!(d1 < d2, s1 < s2);
    }

    #[test]
    fn sqrt_of_product_splits() {
        // Eq. 19 term: sqrt(w1 * p1) = sqrt(w1) * sqrt(p1).
        let u = lin("sqrt(w1 * p1) + w2 * p3 / p2");
        assert_eq!(u.dim(), 2);
        check_score_equality(&u, &[4.0, 2.0, 6.0], &[9.0, 0.5]);
    }

    #[test]
    fn division_by_attribute() {
        let u = lin("w1 * p1 / p2");
        assert_eq!(u.dim(), 1);
        check_score_equality(&u, &[6.0, 3.0], &[2.0]);
    }

    #[test]
    fn division_by_weight() {
        // v(c) = p2 / (w1 * p1) + w2 * p3²  (Eq. 26 shape).
        let u = lin("p2 / (w1 * p1) + w2 * p3^2");
        assert_eq!(u.dim(), 2);
        check_score_equality(&u, &[2.0, 10.0, 3.0], &[4.0, 0.5]);
    }

    #[test]
    fn pure_weight_terms_get_constant_attr() {
        let u = lin("w1^2 + w1 * p1");
        assert_eq!(u.dim(), 2);
        let ao = u.augmented_object(&[5.0]);
        assert!(
            ao.contains(&1.0),
            "constant attribute dimension missing: {ao:?}"
        );
        check_score_equality(&u, &[5.0], &[3.0]);
    }

    #[test]
    fn duplicate_attr_parts_merge() {
        // w1·p1 + w2·p1 shares the attribute part p1 → one dimension.
        let u = lin("w1 * p1 + w2 * p1");
        assert_eq!(u.dim(), 1);
        check_score_equality(&u, &[7.0], &[0.25, 0.5]);
    }

    #[test]
    fn inseparable_rejected() {
        // A mixed-variable sqrt that is not the outermost node cannot be
        // stripped or split.
        let e = parse("sqrt(w1 + p1) * p2", &Schema::positional()).unwrap();
        assert!(matches!(
            LinearizedUtility::linearize(&e),
            Err(LinearizeError::Inseparable(_))
        ));
    }

    #[test]
    fn outermost_mixed_sqrt_stripped_as_monotone() {
        // sqrt at the very top is monotone-increasing: ranking by sqrt(u)
        // equals ranking by u, so the wrapper is stripped rather than
        // rejected.
        let u = lin("sqrt(w1 + p1)");
        assert_eq!(u.monotone_stripped(), 1);
        check_score_equality(&u, &[2.0], &[7.0]);
    }

    #[test]
    fn sum_denominator_rejected() {
        let e = parse("w1 / (p1 + p2)", &Schema::positional()).unwrap();
        assert!(matches!(
            LinearizedUtility::linearize(&e),
            Err(LinearizeError::SumDenominator(_))
        ));
    }

    #[test]
    fn huge_power_rejected() {
        let e = parse("(w1 + p1)^30", &Schema::positional()).unwrap();
        assert!(matches!(
            LinearizedUtility::linearize(&e),
            Err(LinearizeError::PowerTooLarge(30))
        ));
    }

    #[test]
    fn sqrt_of_weight_only_sum_allowed() {
        let u = lin("sqrt(w1^2 + w2^2) * p1");
        assert_eq!(u.dim(), 1);
        check_score_equality(&u, &[3.0], &[0.6, 0.8]);
    }

    #[test]
    fn polynomial_degree_five() {
        let u = lin("w1 * p1^5 + w2 * p2^4 + w3 * p1 * p2");
        assert_eq!(u.dim(), 3);
        check_score_equality(&u, &[1.5, 0.5], &[1.0, 2.0, 3.0]);
    }
}
