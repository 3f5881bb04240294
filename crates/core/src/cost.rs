//! Cost functions and validity constraints for improvement strategies.
//!
//! The paper lets the query issuer supply an arbitrary cost function
//! `Cost_p(s)` (§3.1) plus *validity* restrictions — per-attribute
//! adjustment ranges and frozen attributes (§4.2.1: "if the user does not
//! allow value of the i-th attribute … add a constraint sᵢ = 0").
//!
//! Every cost function must answer the per-query subproblem of Eqs. 13–14:
//! *the cheapest strategy whose score drop satisfies one linear constraint*
//! `a · s ≤ rhs`. Closed forms exist for the (weighted) Euclidean costs;
//! the L1 and asymmetric-linear costs reduce to LPs over the `iq-solver`
//! simplex; arbitrary expression costs fall back to a direction line
//! search.

use iq_expr::Expr;
use iq_geometry::{vector::dot, Vector};
use iq_solver::line_search::golden_section_min;
use iq_solver::projection::{min_norm_dykstra, min_weighted_norm_single, HalfSpace, QpResult};
use iq_solver::{solve_lp, Constraint, LinearProgram, LpResult, VarBound};

/// Per-attribute adjustment limits for a valid strategy (Definition 1 plus
/// the §4.2.1 validity constraints).
#[derive(Debug, Clone)]
pub struct StrategyBounds {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl StrategyBounds {
    /// Unbounded strategies in `d` dimensions (`p` defined on `R^d`).
    pub fn unbounded(d: usize) -> Self {
        StrategyBounds {
            lo: vec![f64::NEG_INFINITY; d],
            hi: vec![f64::INFINITY; d],
        }
    }

    /// Explicit per-attribute bounds `lo[i] ≤ sᵢ ≤ hi[i]`.
    ///
    /// # Panics
    /// Panics when a bound pair is inverted or excludes zero (the zero
    /// strategy must always be valid — not improving is always allowed).
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "bounds length mismatch");
        for i in 0..lo.len() {
            assert!(lo[i] <= hi[i], "inverted bound in dimension {i}");
            assert!(
                lo[i] <= 0.0 && hi[i] >= 0.0,
                "bounds must include the zero strategy (dimension {i})"
            );
        }
        StrategyBounds { lo, hi }
    }

    /// Bounds derived from allowed *attribute value* ranges — the §6.1 GUI
    /// semantics ("specify which attributes can be adjusted and in what
    /// range"): an object currently at `current[i]` may end up anywhere in
    /// `[value_lo[i], value_hi[i]]`, so the strategy component is bounded
    /// by `[value_lo[i] − current[i], value_hi[i] − current[i]]`.
    ///
    /// # Panics
    /// Panics when a current value lies outside its own allowed range (the
    /// zero strategy must stay valid).
    pub fn from_attribute_range(current: &[f64], value_lo: &[f64], value_hi: &[f64]) -> Self {
        assert_eq!(current.len(), value_lo.len(), "range length mismatch");
        assert_eq!(current.len(), value_hi.len(), "range length mismatch");
        let lo = current.iter().zip(value_lo).map(|(c, l)| l - c).collect();
        let hi = current.iter().zip(value_hi).map(|(c, h)| h - c).collect();
        Self::new(lo, hi)
    }

    /// Freezes attribute `i`: `sᵢ = 0`.
    pub fn freeze(mut self, i: usize) -> Self {
        self.lo[i] = 0.0;
        self.hi[i] = 0.0;
        self
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Lower bounds.
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper bounds.
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Whether a strategy is valid under the bounds (with fp slack).
    pub fn valid(&self, s: &Vector) -> bool {
        s.iter()
            .enumerate()
            .all(|(i, &v)| v >= self.lo[i] - 1e-9 && v <= self.hi[i] + 1e-9)
    }

    /// Whether any attribute is actually constrained.
    pub fn is_unbounded(&self) -> bool {
        self.lo.iter().all(|&l| l == f64::NEG_INFINITY)
            && self.hi.iter().all(|&h| h == f64::INFINITY)
    }

    /// The bounds that remain after a partial strategy `applied` has been
    /// committed: subsequent adjustments must keep the *cumulative* strategy
    /// valid.
    pub fn remaining(&self, applied: &Vector) -> StrategyBounds {
        StrategyBounds {
            lo: self
                .lo
                .iter()
                .zip(applied.iter())
                .map(|(l, a)| (l - a).min(0.0))
                .collect(),
            hi: self
                .hi
                .iter()
                .zip(applied.iter())
                .map(|(h, a)| (h - a).max(0.0))
                .collect(),
        }
    }

    /// The box constraints as half-spaces (skipping infinite sides).
    fn halfspaces(&self) -> Vec<HalfSpace> {
        let d = self.dim();
        let mut out = Vec::new();
        for i in 0..d {
            if self.hi[i].is_finite() {
                out.push(HalfSpace::new(Vector::basis(d, i, 1.0), self.hi[i]));
            }
            if self.lo[i].is_finite() {
                out.push(HalfSpace::new(Vector::basis(d, i, -1.0), -self.lo[i]));
            }
        }
        out
    }
}

/// Snaps a continuous strategy onto discrete attribute grids (§3.1: "each
/// dimension can be continuous or discrete").
///
/// `steps[i] = Some(g)` means attribute `i` only moves in multiples of `g`
/// (resolution in whole megapixels, price in whole dollars, …); `None`
/// leaves the component continuous. Each discrete component is rounded
/// *away from zero* to the next multiple, so any score reduction the
/// continuous solution achieved is preserved or strengthened — the result
/// still satisfies every `a·s ≤ rhs` constraint with `a ≥ 0` component
/// signs matching the push direction, at a bounded cost premium of one
/// grid step per attribute. The result is clamped into `bounds`; `None`
/// is returned when clamping breaks a grid multiple (the bound itself is
/// off-grid), which callers treat as infeasible.
pub fn quantize_strategy(
    s: &Vector,
    steps: &[Option<f64>],
    bounds: &StrategyBounds,
) -> Option<Vector> {
    assert_eq!(s.dim(), steps.len(), "steps length mismatch");
    let mut out = Vec::with_capacity(s.dim());
    for i in 0..s.dim() {
        let v = s[i];
        let q = match steps[i] {
            None => v,
            Some(g) => {
                assert!(g > 0.0, "grid step must be positive");
                let snapped = (v / g).abs().ceil() * g * v.signum();
                if snapped < bounds.lo()[i] - 1e-12 || snapped > bounds.hi()[i] + 1e-12 {
                    // Falling back toward zero stays in bounds (bounds
                    // contain 0) but may no longer satisfy the caller's
                    // constraint; report the clamp.
                    let fallback = (v / g).abs().floor() * g * v.signum();
                    if fallback < bounds.lo()[i] - 1e-12 || fallback > bounds.hi()[i] + 1e-12 {
                        return None;
                    }
                    out.push(fallback);
                    continue;
                }
                snapped
            }
        };
        out.push(q);
    }
    Some(Vector::new(out))
}

/// A user-suppliable cost model for improvement strategies.
pub trait CostFunction: Send + Sync {
    /// The cost of applying strategy `s`.
    fn cost(&self, s: &Vector) -> f64;

    /// Solves the per-query subproblem (Eqs. 13–14): the cheapest valid
    /// strategy with `a · s ≤ rhs`. Returns `None` when unsatisfiable
    /// within the bounds.
    fn min_cost_to_satisfy(
        &self,
        a: &[f64],
        rhs: f64,
        bounds: &StrategyBounds,
    ) -> Option<(Vector, f64)>;

    /// A certified lower bound on the cost of every valid strategy with
    /// `a · s ≤ rhs` under `bounds`: the greedy search prunes candidate
    /// scoring with it, so it must never exceed the true minimum. The
    /// default, `-∞`, bounds nothing and keeps the search exhaustive.
    fn min_cost_lower_bound(&self, _a: &[f64], _rhs: f64, _bounds: &StrategyBounds) -> f64 {
        f64::NEG_INFINITY
    }

    /// A short human-readable name for logs and the DBMS layer.
    fn name(&self) -> &'static str {
        "custom"
    }
}

/// `need / norm`, the least `Cost(s)` that lowers `a · s` by `need` when
/// `|a · s| ≤ norm · Cost(s)` (Cauchy–Schwarz or Hölder for the dual
/// norm); infinite when `a` cannot lower anything.
fn drop_lower_bound(rhs: f64, norm: f64) -> f64 {
    let need = -rhs;
    if need > 0.0 {
        need / norm
    } else {
        0.0
    }
}

/// The Euclidean cost of the paper's evaluation (Eq. 30):
/// `Cost(s) = sqrt(Σ sᵢ²)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct EuclideanCost;

impl CostFunction for EuclideanCost {
    fn cost(&self, s: &Vector) -> f64 {
        s.norm()
    }

    fn min_cost_to_satisfy(
        &self,
        a: &[f64],
        rhs: f64,
        bounds: &StrategyBounds,
    ) -> Option<(Vector, f64)> {
        let av = Vector::from(a);
        if bounds.is_unbounded() {
            let s = iq_solver::min_norm_single(&av, rhs)?;
            let c = s.norm();
            return Some((s, c));
        }
        // Bounded: min-norm point of {a·s ≤ rhs} ∩ box, via Dykstra.
        let mut hs = bounds.halfspaces();
        hs.push(HalfSpace::new(av, rhs));
        match min_norm_dykstra(&hs, 4000, 1e-11) {
            QpResult::Optimal(s) => {
                let c = s.norm();
                Some((s, c))
            }
            QpResult::Infeasible => None,
        }
    }

    /// `max(0, −rhs) / ‖a‖₂`, valid under any box: a box only raises the
    /// minimum.
    fn min_cost_lower_bound(&self, a: &[f64], rhs: f64, _bounds: &StrategyBounds) -> f64 {
        drop_lower_bound(rhs, dot(a, a).sqrt())
    }

    fn name(&self) -> &'static str {
        "euclidean"
    }
}

/// Weighted Euclidean cost `sqrt(Σ wᵢ sᵢ²)`: attribute `i` is `wᵢ`× as
/// expensive to move. All weights must be positive.
#[derive(Debug, Clone)]
pub struct WeightedEuclideanCost {
    weights: Vec<f64>,
}

impl WeightedEuclideanCost {
    /// Creates the cost with per-attribute weights.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(
            weights.iter().all(|&w| w > 0.0),
            "cost weights must be positive"
        );
        WeightedEuclideanCost { weights }
    }
}

impl CostFunction for WeightedEuclideanCost {
    fn cost(&self, s: &Vector) -> f64 {
        s.iter()
            .zip(&self.weights)
            .map(|(v, w)| w * v * v)
            .sum::<f64>()
            .sqrt()
    }

    fn min_cost_to_satisfy(
        &self,
        a: &[f64],
        rhs: f64,
        bounds: &StrategyBounds,
    ) -> Option<(Vector, f64)> {
        let av = Vector::from(a);
        if bounds.is_unbounded() {
            let s = min_weighted_norm_single(&av, rhs, &self.weights)?;
            let c = self.cost(&s);
            return Some((s, c));
        }
        // Bounded: substitute tᵢ = √wᵢ·sᵢ to reduce to plain min-norm over
        // transformed half-spaces, then map back.
        let d = av.dim();
        let scale: Vec<f64> = self.weights.iter().map(|w| w.sqrt()).collect();
        let transform = |v: &Vector| -> Vector {
            Vector::new(v.iter().zip(&scale).map(|(x, s)| x / s).collect())
        };
        let mut hs: Vec<HalfSpace> = vec![HalfSpace::new(transform(&av), rhs)];
        for (i, &si) in scale.iter().enumerate() {
            if bounds.hi()[i].is_finite() {
                hs.push(HalfSpace::new(
                    Vector::basis(d, i, 1.0 / si),
                    bounds.hi()[i],
                ));
            }
            if bounds.lo()[i].is_finite() {
                hs.push(HalfSpace::new(
                    Vector::basis(d, i, -1.0 / si),
                    -bounds.lo()[i],
                ));
            }
        }
        match min_norm_dykstra(&hs, 4000, 1e-11) {
            QpResult::Optimal(t) => {
                let s = Vector::new(t.iter().zip(&scale).map(|(x, sc)| x / sc).collect());
                let c = self.cost(&s);
                Some((s, c))
            }
            QpResult::Infeasible => None,
        }
    }

    /// `max(0, −rhs) / sqrt(Σ aᵢ²/wᵢ)`, by Cauchy–Schwarz on `W^{1/2}s`:
    /// `|a · s| ≤ ‖W^{-1/2}a‖₂ · Cost(s)`. Valid under any box.
    fn min_cost_lower_bound(&self, a: &[f64], rhs: f64, _bounds: &StrategyBounds) -> f64 {
        let norm = a
            .iter()
            .zip(&self.weights)
            .map(|(x, w)| x * x / w)
            .sum::<f64>()
            .sqrt();
        drop_lower_bound(rhs, norm)
    }

    fn name(&self) -> &'static str {
        "weighted-euclidean"
    }
}

/// L1 (Manhattan) cost `Σ |sᵢ|`, solved as an LP with the split
/// `sᵢ = uᵢ − vᵢ`.
#[derive(Debug, Clone, Copy, Default)]
pub struct L1Cost;

impl CostFunction for L1Cost {
    fn cost(&self, s: &Vector) -> f64 {
        s.norm_l1()
    }

    fn min_cost_to_satisfy(
        &self,
        a: &[f64],
        rhs: f64,
        bounds: &StrategyBounds,
    ) -> Option<(Vector, f64)> {
        linear_cost_lp(a, rhs, bounds, &vec![1.0; a.len()], &vec![1.0; a.len()])
    }

    /// `max(0, −rhs) / ‖a‖∞`, valid under any box.
    fn min_cost_lower_bound(&self, a: &[f64], rhs: f64, _bounds: &StrategyBounds) -> f64 {
        drop_lower_bound(rhs, a.iter().fold(0.0, |m, x| m.max(x.abs())))
    }

    fn name(&self) -> &'static str {
        "l1"
    }
}

/// Asymmetric linear cost: increasing attribute `i` by one unit costs
/// `up[i]`, decreasing it costs `down[i]` (both ≥ 0). This models the
/// common "raising quality costs money, cutting price costs margin"
/// situation; the paper's set-cover reduction (Eq. 12) uses the symmetric
/// special case.
#[derive(Debug, Clone)]
pub struct AsymmetricLinearCost {
    up: Vec<f64>,
    down: Vec<f64>,
}

impl AsymmetricLinearCost {
    /// Creates the cost with per-direction unit prices.
    pub fn new(up: Vec<f64>, down: Vec<f64>) -> Self {
        assert_eq!(up.len(), down.len(), "up/down length mismatch");
        assert!(
            up.iter().chain(&down).all(|&c| c >= 0.0),
            "unit costs must be non-negative"
        );
        AsymmetricLinearCost { up, down }
    }
}

impl CostFunction for AsymmetricLinearCost {
    fn cost(&self, s: &Vector) -> f64 {
        s.iter()
            .enumerate()
            .map(|(i, &v)| {
                if v >= 0.0 {
                    self.up[i] * v
                } else {
                    -self.down[i] * v
                }
            })
            .sum()
    }

    fn min_cost_to_satisfy(
        &self,
        a: &[f64],
        rhs: f64,
        bounds: &StrategyBounds,
    ) -> Option<(Vector, f64)> {
        linear_cost_lp(a, rhs, bounds, &self.up, &self.down)
    }

    /// `max(0, −rhs) / maxᵢ(|aᵢ| / pᵢ)`, where `pᵢ` is the unit price of
    /// the direction that lowers `aᵢsᵢ` (`down` for `aᵢ > 0`, `up` for
    /// `aᵢ < 0`; zero coefficients lower nothing and are skipped): each unit
    /// of cost lowers `a · s` by at most that ratio. A free direction makes
    /// the bound 0. Valid under any box.
    fn min_cost_lower_bound(&self, a: &[f64], rhs: f64, _bounds: &StrategyBounds) -> f64 {
        let norm = a
            .iter()
            .enumerate()
            .filter(|&(_, &x)| x.abs() > 0.0)
            .map(|(i, &x)| x.abs() / if x > 0.0 { self.down[i] } else { self.up[i] })
            .fold(0.0, f64::max);
        drop_lower_bound(rhs, norm)
    }

    fn name(&self) -> &'static str {
        "asymmetric-linear"
    }
}

/// Shared LP: minimize `Σ up[i]·uᵢ + down[i]·vᵢ` with `s = u − v`,
/// `a·s ≤ rhs`, `lo ≤ s ≤ hi`, `u, v ≥ 0`.
fn linear_cost_lp(
    a: &[f64],
    rhs: f64,
    bounds: &StrategyBounds,
    up: &[f64],
    down: &[f64],
) -> Option<(Vector, f64)> {
    let d = a.len();
    // Variables: u₀…u_{d−1}, v₀…v_{d−1}.
    let mut objective = Vec::with_capacity(2 * d);
    objective.extend_from_slice(up);
    objective.extend_from_slice(down);
    let mut constraints = Vec::new();
    // a·(u − v) ≤ rhs
    let mut row = Vec::with_capacity(2 * d);
    row.extend_from_slice(a);
    row.extend(a.iter().map(|x| -x));
    constraints.push(Constraint::le(row, rhs));
    // Bounds on s = u − v.
    for i in 0..d {
        if bounds.hi()[i].is_finite() {
            let mut r = vec![0.0; 2 * d];
            r[i] = 1.0;
            r[d + i] = -1.0;
            constraints.push(Constraint::le(r, bounds.hi()[i]));
        }
        if bounds.lo()[i].is_finite() {
            let mut r = vec![0.0; 2 * d];
            r[i] = -1.0;
            r[d + i] = 1.0;
            constraints.push(Constraint::le(r, -bounds.lo()[i]));
        }
    }
    let lp = LinearProgram {
        objective,
        constraints,
        bounds: vec![VarBound::NonNegative; 2 * d],
    };
    match solve_lp(&lp) {
        LpResult::Optimal { x, value } => {
            let s = Vector::new((0..d).map(|i| x[i] - x[d + i]).collect());
            Some((s, value))
        }
        _ => None,
    }
}

/// A cost function defined by a user expression over the strategy
/// components (attributes `p1…pd` denote `s₁…s_d` here). The per-query
/// subproblem is solved by a line search along the constraint normal —
/// exact for costs that are radially monotone along that direction, a
/// documented heuristic otherwise.
pub struct ExprCost {
    expr: Expr,
    dim: usize,
}

impl ExprCost {
    /// Creates the cost from an expression mentioning attributes `1..=dim`.
    pub fn new(expr: Expr, dim: usize) -> Self {
        assert!(
            expr.max_attr().is_none_or(|m| m < dim),
            "cost expression mentions attribute beyond dim"
        );
        assert!(
            expr.max_weight().is_none(),
            "cost expressions may not mention query weights"
        );
        ExprCost { expr, dim }
    }
}

impl CostFunction for ExprCost {
    fn cost(&self, s: &Vector) -> f64 {
        self.expr.eval(s.as_slice(), &[])
    }

    fn min_cost_to_satisfy(
        &self,
        a: &[f64],
        rhs: f64,
        bounds: &StrategyBounds,
    ) -> Option<(Vector, f64)> {
        if rhs >= 0.0 {
            let zero = Vector::zeros(self.dim);
            let c = self.cost(&zero);
            return Some((zero, c));
        }
        // Search along the clipped steepest direction −a: s(t) = clip(−t·â).
        let av = Vector::from(a);
        let unit = av.normalized()?;
        let make = |t: f64| -> Vector { unit.scaled(-t).clamped(bounds.lo(), bounds.hi()) };
        let feasible = |t: f64| dot(a, make(t).as_slice()) <= rhs;
        // Find the smallest feasible scale.
        let t_min =
            iq_solver::line_search::monotone_threshold(feasible, rhs.abs().max(1e-6), 1e9, 1e-9)?;
        // The cost may keep dropping past t_min only for exotic expressions;
        // golden-search the window [t_min, 4·t_min] to be safe.
        let (t_best, _) = golden_section_min(
            |t| {
                let s = make(t);
                if dot(a, s.as_slice()) <= rhs + 1e-12 {
                    self.cost(&s)
                } else {
                    f64::INFINITY
                }
            },
            t_min,
            t_min * 4.0,
            1e-9 * t_min.max(1.0),
        );
        let s = make(t_best);
        if dot(a, s.as_slice()) > rhs + 1e-9 {
            return None;
        }
        let c = self.cost(&s);
        Some((s, c))
    }

    fn name(&self) -> &'static str {
        "expression"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unb(d: usize) -> StrategyBounds {
        StrategyBounds::unbounded(d)
    }

    #[test]
    fn euclidean_closed_form() {
        let c = EuclideanCost;
        let (s, cost) = c.min_cost_to_satisfy(&[3.0, 4.0], -5.0, &unb(2)).unwrap();
        assert!((cost - 1.0).abs() < 1e-9);
        assert!((s[0] + 0.6).abs() < 1e-9 && (s[1] + 0.8).abs() < 1e-9);
        // Already satisfied: zero strategy.
        let (s, cost) = c.min_cost_to_satisfy(&[1.0, 0.0], 2.0, &unb(2)).unwrap();
        assert_eq!(cost, 0.0);
        assert!(s.is_zero(0.0));
    }

    #[test]
    fn euclidean_respects_bounds() {
        let c = EuclideanCost;
        // Need a·s ≤ -2 with a = (1, 1), but s₁ frozen: all change in s₂.
        let b = StrategyBounds::unbounded(2).freeze(0);
        let (s, cost) = c.min_cost_to_satisfy(&[1.0, 1.0], -2.0, &b).unwrap();
        assert!(s[0].abs() < 1e-6, "frozen attribute moved: {s:?}");
        assert!((s[1] + 2.0).abs() < 1e-5);
        assert!((cost - 2.0).abs() < 1e-5);
        assert!(b.valid(&s));
    }

    #[test]
    fn euclidean_infeasible_bounds() {
        let c = EuclideanCost;
        // Need a drop of 10 but every attribute can move at most 1.
        let b = StrategyBounds::new(vec![-1.0, -1.0], vec![1.0, 1.0]);
        assert!(c.min_cost_to_satisfy(&[1.0, 1.0], -10.0, &b).is_none());
    }

    #[test]
    fn weighted_euclidean_prefers_cheap_attributes() {
        let c = WeightedEuclideanCost::new(vec![100.0, 1.0]);
        let (s, _) = c.min_cost_to_satisfy(&[1.0, 1.0], -1.0, &unb(2)).unwrap();
        assert!(s[1].abs() > s[0].abs() * 10.0);
    }

    #[test]
    fn weighted_euclidean_bounded_matches_unbounded_when_loose() {
        let c = WeightedEuclideanCost::new(vec![2.0, 0.5]);
        let (s1, c1) = c.min_cost_to_satisfy(&[0.7, 0.3], -1.0, &unb(2)).unwrap();
        let loose = StrategyBounds::new(vec![-100.0, -100.0], vec![100.0, 100.0]);
        let (s2, c2) = c.min_cost_to_satisfy(&[0.7, 0.3], -1.0, &loose).unwrap();
        assert!((c1 - c2).abs() < 1e-5, "{c1} vs {c2}");
        assert!((&s1 - &s2).norm() < 1e-4);
    }

    #[test]
    fn l1_concentrates_on_heaviest_weight() {
        let c = L1Cost;
        let (s, cost) = c.min_cost_to_satisfy(&[0.6, 0.8], -1.2, &unb(2)).unwrap();
        // Cheapest: all change on attribute 2 (|a| = 0.8): s₂ = −1.5.
        assert!((cost - 1.5).abs() < 1e-6);
        assert!(s[0].abs() < 1e-9);
        assert!((s[1] + 1.5).abs() < 1e-6);
    }

    #[test]
    fn l1_with_bounds_spills_over() {
        let c = L1Cost;
        let b = StrategyBounds::new(vec![-1.0, -1.0], vec![1.0, 1.0]);
        let (s, cost) = c.min_cost_to_satisfy(&[0.6, 0.8], -1.2, &b).unwrap();
        // s₂ hits its bound −1 (drop 0.8), remaining 0.4 via s₁ (−2/3).
        assert!((s[1] + 1.0).abs() < 1e-6, "{s:?}");
        assert!((s[0] + 2.0 / 3.0).abs() < 1e-6, "{s:?}");
        assert!((cost - (1.0 + 2.0 / 3.0)).abs() < 1e-6);
    }

    #[test]
    fn asymmetric_prefers_cheap_direction() {
        // Decreasing attribute 1 is free-ish, increasing expensive.
        let c = AsymmetricLinearCost::new(vec![10.0, 10.0], vec![0.1, 100.0]);
        let (s, _) = c.min_cost_to_satisfy(&[1.0, 1.0], -1.0, &unb(2)).unwrap();
        assert!(s[0] < -0.99, "expected drop in attribute 1: {s:?}");
        assert!(s[1].abs() < 1e-6);
    }

    #[test]
    fn weighted_and_asymmetric_lower_bounds_are_tight_and_certified() {
        // Unbounded, the weighted bound is the exact minimum.
        let w = WeightedEuclideanCost::new(vec![2.0, 0.5, 4.0]);
        let a = [0.7, -0.3, 0.2];
        let (_, exact) = w.min_cost_to_satisfy(&a, -1.0, &unb(3)).unwrap();
        let lb = w.min_cost_lower_bound(&a, -1.0, &unb(3));
        assert!((lb - exact).abs() < 1e-9, "{lb} vs {exact}");
        // Lowering a·s by 1: cheapest is attribute 1 upward at 3/0.3 = 10.
        let asym = AsymmetricLinearCost::new(vec![3.0, 3.0, 3.0], vec![10.0, 1.0, 5.0]);
        let lb = asym.min_cost_lower_bound(&a, -1.0, &unb(3));
        assert!((lb - 10.0).abs() < 1e-9, "{lb}");
        // A box only raises the minimum; the bound stays below it.
        let boxed = StrategyBounds::new(vec![-0.5; 3], vec![0.5; 3]);
        for cost in [&w as &dyn CostFunction, &asym] {
            if let Some((_, c)) = cost.min_cost_to_satisfy(&a, -0.3, &boxed) {
                assert!(cost.min_cost_lower_bound(&a, -0.3, &boxed) <= c + 1e-12);
            }
        }
        // A free direction bounds nothing; a zero weight vector reaches
        // nothing; a satisfied constraint costs nothing.
        let free = AsymmetricLinearCost::new(vec![0.0, 1.0], vec![1.0, 1.0]);
        assert_eq!(free.min_cost_lower_bound(&[-1.0, 0.0], -1.0, &unb(2)), 0.0);
        assert_eq!(
            free.min_cost_lower_bound(&[0.0, 0.0], -1.0, &unb(2)),
            f64::INFINITY
        );
        assert_eq!(w.min_cost_lower_bound(&a, 0.5, &unb(3)), 0.0);
    }

    #[test]
    fn asymmetric_cost_evaluation() {
        let c = AsymmetricLinearCost::new(vec![2.0, 3.0], vec![5.0, 7.0]);
        assert_eq!(c.cost(&Vector::from([1.0, -1.0])), 2.0 + 7.0);
        assert_eq!(c.cost(&Vector::from([-2.0, 2.0])), 10.0 + 6.0);
    }

    #[test]
    fn expr_cost_quadratic_matches_euclidean_direction() {
        // cost = s₁² + s₂² — same minimizer direction as Euclidean.
        let e = Expr::attr(0).pow(2).add(Expr::attr(1).pow(2));
        let c = ExprCost::new(e, 2);
        let (s, _) = c.min_cost_to_satisfy(&[3.0, 4.0], -5.0, &unb(2)).unwrap();
        assert!((s[0] + 0.6).abs() < 1e-4, "{s:?}");
        assert!((s[1] + 0.8).abs() < 1e-4, "{s:?}");
    }

    #[test]
    fn expr_cost_already_satisfied() {
        let e = Expr::attr(0).pow(2);
        let c = ExprCost::new(e, 1);
        let (s, cost) = c.min_cost_to_satisfy(&[1.0], 0.5, &unb(1)).unwrap();
        assert!(s.is_zero(0.0));
        assert_eq!(cost, 0.0);
    }

    #[test]
    fn bounds_remaining_shrinks() {
        let b = StrategyBounds::new(vec![-4.0, -2.0], vec![4.0, 2.0]);
        let rem = b.remaining(&Vector::from([3.0, -1.0]));
        assert_eq!(rem.lo(), &[-7.0, -1.0]);
        assert_eq!(rem.hi(), &[1.0, 3.0]);
        // Cumulative validity: applied + remaining-valid stays valid.
        assert!(rem.valid(&Vector::from([1.0, 3.0])));
        assert!(!rem.valid(&Vector::from([1.5, 0.0])));
    }

    #[test]
    #[should_panic]
    fn bounds_must_include_zero() {
        let _ = StrategyBounds::new(vec![1.0], vec![2.0]);
    }

    #[test]
    fn attribute_value_ranges_map_to_delta_bounds() {
        // A camera at (10 Mpx, $250) may end in [8, 20] Mpx × [$100, $250]:
        // resolution may move ±, price may only drop.
        let b = StrategyBounds::from_attribute_range(&[10.0, 250.0], &[8.0, 100.0], &[20.0, 250.0]);
        assert_eq!(b.lo(), &[-2.0, -150.0]);
        assert_eq!(b.hi(), &[10.0, 0.0]);
        assert!(b.valid(&Vector::from([5.0, -100.0])));
        assert!(!b.valid(&Vector::from([0.0, 1.0]))); // price may not rise
    }

    #[test]
    #[should_panic]
    fn attribute_value_range_must_contain_current() {
        let _ = StrategyBounds::from_attribute_range(&[5.0], &[6.0], &[9.0]);
    }

    #[test]
    fn quantize_rounds_away_from_zero() {
        let b = StrategyBounds::unbounded(3);
        let s = Vector::from([-1.3, 0.0, 2.2]);
        let q = quantize_strategy(&s, &[Some(1.0), Some(0.5), None], &b).unwrap();
        assert_eq!(q.as_slice(), &[-2.0, 0.0, 2.2]);
        // The quantized strategy achieves at least the original reduction
        // along any weight vector signed like the push.
        let a = Vector::from([0.5, 0.3, -0.2]);
        assert!(a.dot(&q) <= a.dot(&s) + 1e-12 || q[2] == s[2]);
    }

    #[test]
    fn quantize_respects_bounds_or_reports_infeasible() {
        let b = StrategyBounds::new(vec![-1.5, -10.0], vec![1.5, 10.0]);
        // Ceiling to -2 would leave bounds; falls back to -1 (in bounds).
        let q = quantize_strategy(&Vector::from([-1.3, 0.0]), &[Some(1.0), None], &b).unwrap();
        assert_eq!(q[0], -1.0);
        // A grid of 4 cannot fit in [-1.5, 1.5] for a nonzero push: ceil(4)
        // leaves bounds and floor(0) stays — reported as 0, not None.
        let q = quantize_strategy(&Vector::from([-0.5, 0.0]), &[Some(4.0), None], &b).unwrap();
        assert_eq!(q[0], 0.0);
    }

    #[test]
    fn quantized_improvement_end_to_end() {
        // The Figure 1 camera with whole-Mpx / whole-GB / whole-$ grids:
        // quantizing the optimizer's continuous answer must still flip the
        // queries it paid for.
        use crate::model::{Instance, TopKQuery};
        use crate::search::{min_cost_iq, SearchOptions};
        use crate::subdomain::QueryIndex;
        let inst = Instance::new(
            vec![vec![10.0, 2.0, 250.0], vec![12.0, 4.0, 340.0]],
            vec![
                TopKQuery::new(vec![-5.0, -3.5, 0.05], 1),
                TopKQuery::new(vec![-2.5, -7.0, 0.08], 1),
            ],
        )
        .unwrap();
        let index = QueryIndex::build(&inst);
        let bounds = StrategyBounds::unbounded(3);
        let r = min_cost_iq(
            &inst,
            &index,
            0,
            2,
            &EuclideanCost,
            &bounds,
            &SearchOptions::default(),
        );
        assert!(r.achieved);
        let grid = [Some(1.0), Some(1.0), Some(1.0)];
        let q = quantize_strategy(&r.strategy, &grid, &bounds).unwrap();
        for v in q.iter() {
            assert!((v - v.round()).abs() < 1e-9, "off-grid component {v}");
        }
        let improved = inst.with_strategy(0, &q);
        assert!(
            improved.hit_count_naive(0) >= r.hits_after,
            "quantization lost hits"
        );
        // Cost premium bounded by one grid step per attribute.
        assert!(q.norm() <= r.cost + 3f64.sqrt() + 1e-9);
    }

    #[test]
    fn frozen_all_attributes_infeasible() {
        let c = EuclideanCost;
        let b = StrategyBounds::unbounded(2).freeze(0).freeze(1);
        assert!(c.min_cost_to_satisfy(&[1.0, 1.0], -1.0, &b).is_none());
        // …but a satisfied constraint still returns the zero strategy.
        assert!(c.min_cost_to_satisfy(&[1.0, 1.0], 1.0, &b).is_some());
    }
}
