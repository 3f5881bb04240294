//! One-dimensional search primitives for general (user-defined) cost
//! functions: golden-section minimization of a unimodal function and
//! bisection root finding of a monotone function.
//!
//! Improvement queries let the issuer supply an arbitrary cost function
//! (§3.1). When no closed form exists, the per-query min-cost strategy is
//! found by searching along the steepest feasible direction; these
//! primitives perform that search.

/// Minimizes a unimodal function over `[lo, hi]` by golden-section search.
///
/// Returns `(argmin, min_value)` with the argument located to within `tol`.
///
/// # Panics
/// Panics if `lo > hi` or `tol <= 0`.
pub fn golden_section_min(f: impl Fn(f64) -> f64, lo: f64, hi: f64, tol: f64) -> (f64, f64) {
    assert!(lo <= hi, "golden_section_min: inverted interval");
    assert!(tol > 0.0, "golden_section_min: non-positive tolerance");
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    let (mut a, mut b) = (lo, hi);
    let mut c = b - (b - a) * INV_PHI;
    let mut d = a + (b - a) * INV_PHI;
    let mut fc = f(c);
    let mut fd = f(d);
    while (b - a) > tol {
        if fc <= fd {
            b = d;
            d = c;
            fd = fc;
            c = b - (b - a) * INV_PHI;
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + (b - a) * INV_PHI;
            fd = f(d);
        }
    }
    let x = 0.5 * (a + b);
    (x, f(x))
}

/// Finds a root of a continuous function with `f(lo) · f(hi) ≤ 0` by
/// bisection, to within `tol` on the argument.
///
/// Returns `None` when the bracket does not straddle a sign change.
pub fn bisect_root(f: impl Fn(f64) -> f64, lo: f64, hi: f64, tol: f64) -> Option<f64> {
    assert!(lo <= hi, "bisect_root: inverted interval");
    let (mut a, mut b) = (lo, hi);
    let (mut fa, fb) = (f(a), f(b));
    // exact-float: an exact root hit short-circuits the bisection
    if fa == 0.0 {
        return Some(a);
    }
    // exact-float: an exact root hit short-circuits the bisection
    if fb == 0.0 {
        return Some(b);
    }
    if fa.signum() == fb.signum() {
        return None;
    }
    while (b - a) > tol {
        let m = 0.5 * (a + b);
        let fm = f(m);
        // exact-float: an exact root hit short-circuits the bisection
        if fm == 0.0 {
            return Some(m);
        }
        if fm.signum() == fa.signum() {
            a = m;
            fa = fm;
        } else {
            b = m;
        }
    }
    Some(0.5 * (a + b))
}

/// Finds the smallest `t ≥ 0` with `pred(t)` true, assuming `pred` is
/// monotone (false below a threshold, true above). Doubles an upper bracket
/// from `t0` up to `t_max`, then bisects. Returns `None` when even `t_max`
/// fails the predicate.
pub fn monotone_threshold(
    pred: impl Fn(f64) -> bool,
    t0: f64,
    t_max: f64,
    tol: f64,
) -> Option<f64> {
    assert!(t0 > 0.0 && t_max >= t0, "monotone_threshold: bad bracket");
    if pred(0.0) {
        return Some(0.0);
    }
    let mut hi = t0;
    while !pred(hi) {
        hi *= 2.0;
        if hi > t_max {
            return if pred(t_max) { Some(t_max) } else { None };
        }
    }
    let mut lo = 0.0;
    while hi - lo > tol {
        let m = 0.5 * (lo + hi);
        if pred(m) {
            hi = m;
        } else {
            lo = m;
        }
    }
    Some(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_section_quadratic() {
        let (x, v) = golden_section_min(|x| (x - 3.0).powi(2) + 1.0, 0.0, 10.0, 1e-8);
        assert!((x - 3.0).abs() < 1e-6);
        assert!((v - 1.0).abs() < 1e-6);
    }

    #[test]
    fn golden_section_boundary_minimum() {
        let (x, _) = golden_section_min(|x| x, 2.0, 5.0, 1e-8);
        assert!((x - 2.0).abs() < 1e-6);
    }

    #[test]
    fn golden_section_degenerate_interval() {
        let (x, v) = golden_section_min(|x| x * x, 4.0, 4.0, 1e-8);
        assert_eq!(x, 4.0);
        assert_eq!(v, 16.0);
    }

    #[test]
    fn bisect_finds_sqrt2() {
        let r = bisect_root(|x| x * x - 2.0, 0.0, 2.0, 1e-12).unwrap();
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn bisect_rejects_non_bracketing() {
        assert!(bisect_root(|x| x * x + 1.0, -1.0, 1.0, 1e-9).is_none());
    }

    #[test]
    fn bisect_endpoint_roots() {
        assert_eq!(bisect_root(|x| x, 0.0, 1.0, 1e-9), Some(0.0));
        assert_eq!(bisect_root(|x| x - 1.0, 0.0, 1.0, 1e-9), Some(1.0));
    }

    #[test]
    fn threshold_basic() {
        let t = monotone_threshold(|t| t >= 7.3, 1.0, 1e6, 1e-9).unwrap();
        assert!((t - 7.3).abs() < 1e-6);
    }

    #[test]
    fn threshold_at_zero() {
        assert_eq!(monotone_threshold(|_| true, 1.0, 10.0, 1e-9), Some(0.0));
    }

    #[test]
    fn threshold_unreachable() {
        assert_eq!(monotone_threshold(|_| false, 1.0, 100.0, 1e-9), None);
    }
}
