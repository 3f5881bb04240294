//! Top-k query workload generation (§6.2): the UN (uniform) and CL
//! (clustered) weight distributions of Vlachou et al., polynomial utility
//! forms with per-term degrees in `[1, 5]`, and `k` drawn from `[1, 50]`.

use iq_core::{Instance, TopKQuery};
use iq_expr::{Expr, LinearizedUtility};
use rand::Rng;

/// The two query-weight distributions of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryDistribution {
    /// Weights uniform and independent in `[0, 1]`.
    Uniform,
    /// Weights clustered around a handful of preference centroids.
    Clustered,
}

impl QueryDistribution {
    /// Short label matching the paper's query-set names.
    pub fn label(self) -> &'static str {
        match self {
            QueryDistribution::Uniform => "UN",
            QueryDistribution::Clustered => "CL",
        }
    }
}

/// The paper's default `k` range (Table 2 text: "randomly selected from
/// `[1, 50]`").
pub const K_RANGE: std::ops::RangeInclusive<usize> = 1..=50;

/// Generates `m` weight vectors of dimension `d` under the distribution.
/// Weights are normalized per query so that each lies in `[0, 1]` (the
/// §3.2 normalization assumption).
pub fn weights<R: Rng>(dist: QueryDistribution, m: usize, d: usize, rng: &mut R) -> Vec<Vec<f64>> {
    match dist {
        QueryDistribution::Uniform => (0..m)
            .map(|_| (0..d).map(|_| rng.gen::<f64>()).collect())
            .collect(),
        QueryDistribution::Clustered => {
            // Vlachou et al.: a few preference clusters with Gaussian
            // spread around each centroid.
            let n_clusters = 5.min(m.max(1));
            let centroids: Vec<Vec<f64>> = (0..n_clusters)
                .map(|_| (0..d).map(|_| rng.gen::<f64>()).collect())
                .collect();
            (0..m)
                .map(|_| {
                    let c = &centroids[rng.gen_range(0..n_clusters)];
                    c.iter()
                        .map(|&v| (v + normal(rng) * 0.05).clamp(0.0, 1.0))
                        .collect()
                })
                .collect()
        }
    }
}

/// Generates `m` top-k queries with `k ∈ k_range`.
pub fn queries<R: Rng>(
    dist: QueryDistribution,
    m: usize,
    d: usize,
    k_range: std::ops::RangeInclusive<usize>,
    rng: &mut R,
) -> Vec<TopKQuery> {
    weights(dist, m, d, rng)
        .into_iter()
        .map(|w| TopKQuery::new(w, rng.gen_range(k_range.clone())))
        .collect()
}

fn normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A random polynomial utility form in the paper's style: one term per
/// dimension, `w_i · (p_{a_i})^{deg_i}`, degree uniform in `[1, 5]`, with
/// an occasional cross-product term `p_a · p_b` (the Eq. 20 shape).
pub fn random_polynomial_form<R: Rng>(d: usize, rng: &mut R) -> Expr {
    assert!(d > 0);
    let mut expr: Option<Expr> = None;
    for i in 0..d {
        let deg = rng.gen_range(1..=5u32);
        let mut mono = Expr::attr(i).pow(deg);
        if d > 1 && rng.gen_bool(0.25) {
            let other = (i + 1 + rng.gen_range(0..d - 1)) % d;
            mono = mono.mul(Expr::attr(other));
        }
        let term = Expr::weight(i).mul(mono);
        expr = Some(match expr {
            None => term,
            Some(acc) => acc.add(term),
        });
    }
    expr.unwrap()
}

/// A complete non-linear workload: a polynomial utility form, its
/// linearization, and the *augmented* linear instance obtained by mapping
/// every object through the substitution attributes and every query's
/// weights through the substitution coefficients (§5.2).
pub struct NonLinearWorkload {
    /// The original utility form.
    pub form: Expr,
    /// Its linearization.
    pub linearized: LinearizedUtility,
    /// The augmented linear instance the IQ machinery runs on.
    pub instance: Instance,
    /// The raw (pre-augmentation) objects.
    pub raw_objects: Vec<Vec<f64>>,
    /// The raw per-query weight vectors.
    pub raw_weights: Vec<Vec<f64>>,
}

/// Builds a non-linear workload over raw objects and query weights.
pub fn build_nonlinear_workload<R: Rng>(
    form: Expr,
    raw_objects: Vec<Vec<f64>>,
    dist: QueryDistribution,
    m: usize,
    k_range: std::ops::RangeInclusive<usize>,
    rng: &mut R,
) -> Result<NonLinearWorkload, iq_expr::LinearizeError> {
    let linearized = LinearizedUtility::linearize(&form)?;
    let n_weights = form.max_weight().map_or(0, |w| w + 1);
    let raw_weights = weights(dist, m, n_weights, rng);
    let objects: Vec<Vec<f64>> = raw_objects
        .iter()
        .map(|o| linearized.augmented_object(o))
        .collect();
    let queries: Vec<TopKQuery> = raw_weights
        .iter()
        .map(|w| {
            TopKQuery::new(
                linearized.augmented_query(w),
                rng.gen_range(k_range.clone()),
            )
        })
        .collect();
    let instance = Instance::new(objects, queries).expect("augmented instance is consistent");
    Ok(NonLinearWorkload {
        form,
        linearized,
        instance,
        raw_objects,
        raw_weights,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{generate, Distribution};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_weights_cover_the_space() {
        let mut rng = StdRng::seed_from_u64(4);
        let ws = weights(QueryDistribution::Uniform, 2000, 3, &mut rng);
        let mean: f64 = ws.iter().map(|w| w[0]).sum::<f64>() / 2000.0;
        assert!((mean - 0.5).abs() < 0.05, "uniform mean off: {mean}");
        for w in &ws {
            for &v in w {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn clustered_weights_concentrate() {
        let mut rng = StdRng::seed_from_u64(5);
        let ws = weights(QueryDistribution::Clustered, 2000, 3, &mut rng);
        // Average pairwise distance must be far below the uniform baseline
        // for points in the same cluster; test via nearest-centroid spread:
        // compute distance of each point to the closest of 5 k-means-ish
        // representatives (first occurrence heuristic).
        let reps: Vec<&Vec<f64>> = ws.iter().take(5).collect();
        let avg_min_dist: f64 = ws
            .iter()
            .map(|w| {
                reps.iter()
                    .map(|r| {
                        w.iter()
                            .zip(r.iter())
                            .map(|(a, b)| (a - b) * (a - b))
                            .sum::<f64>()
                            .sqrt()
                    })
                    .fold(f64::INFINITY, f64::min)
            })
            .sum::<f64>()
            / ws.len() as f64;
        assert!(avg_min_dist < 0.4, "clusters too diffuse: {avg_min_dist}");
    }

    #[test]
    fn k_values_in_range() {
        let mut rng = StdRng::seed_from_u64(6);
        let qs = queries(QueryDistribution::Uniform, 500, 2, K_RANGE, &mut rng);
        assert!(qs.iter().all(|q| (1..=50).contains(&q.k)));
        let distinct: std::collections::BTreeSet<usize> = qs.iter().map(|q| q.k).collect();
        assert!(distinct.len() > 20, "k values suspiciously concentrated");
    }

    #[test]
    fn polynomial_form_degrees_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let form = random_polynomial_form(4, &mut rng);
            // Must linearize cleanly and mention all weights.
            let lin = LinearizedUtility::linearize(&form).unwrap();
            assert!(lin.dim() >= 1 && lin.dim() <= 4);
            assert_eq!(form.max_weight(), Some(3));
        }
    }

    #[test]
    fn nonlinear_workload_preserves_scores() {
        let mut rng = StdRng::seed_from_u64(8);
        let raw = generate(Distribution::Independent, 50, 3, &mut rng);
        let form = random_polynomial_form(3, &mut rng);
        let wl =
            build_nonlinear_workload(form, raw, QueryDistribution::Uniform, 20, 1..=5, &mut rng)
                .unwrap();
        // Augmented linear scores equal the original utility exactly.
        for (qi, w) in wl.raw_weights.iter().enumerate() {
            for (oi, o) in wl.raw_objects.iter().enumerate() {
                let direct = wl.form.eval(o, w);
                let linear = wl.instance.score(oi, qi);
                assert!(
                    (direct - linear).abs() < 1e-9 * (1.0 + direct.abs()),
                    "object {oi}, query {qi}: {direct} vs {linear}"
                );
            }
        }
    }

    #[test]
    fn labels() {
        assert_eq!(QueryDistribution::Uniform.label(), "UN");
        assert_eq!(QueryDistribution::Clustered.label(), "CL");
    }
}
