//! Non-linear and heterogeneous utilities end-to-end (§5.2–§5.3): a
//! polynomial workload is linearized, improved in the augmented space, and
//! the resulting hit counts are verified against the *original* non-linear
//! utility functions — proving the substitution preserves IQ semantics.

use improvement_queries::expr::{parse as parse_expr, GenericFamily, Schema};
use improvement_queries::prelude::*;
use improvement_queries::workload::queries::{
    build_nonlinear_workload, random_polynomial_form, QueryDistribution,
};
use improvement_queries::workload::synthetic::{generate, Distribution};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hit count of `target` evaluated directly with the non-linear form.
fn nonlinear_hits(
    form: &improvement_queries::expr::Expr,
    objects: &[Vec<f64>],
    weights: &[Vec<f64>],
    ks: &[usize],
    target: usize,
) -> usize {
    weights
        .iter()
        .zip(ks)
        .filter(|(w, &k)| {
            // Ascending scores with id tie-break, matching the workspace.
            let ts = form.eval(&objects[target], w);
            let better = objects
                .iter()
                .enumerate()
                .filter(|&(i, o)| {
                    i != target && {
                        let s = form.eval(o, w);
                        s < ts || (s == ts && i < target)
                    }
                })
                .count();
            better < k
        })
        .count()
}

#[test]
fn linearized_iq_hits_verified_against_original_form() {
    let mut rng = StdRng::seed_from_u64(77);
    let raw_objects = generate(Distribution::Independent, 40, 3, &mut rng);
    let form = random_polynomial_form(3, &mut rng);
    let wl = build_nonlinear_workload(
        form,
        raw_objects,
        QueryDistribution::Uniform,
        40,
        1..=4,
        &mut rng,
    )
    .unwrap();

    let ks = wl.instance.ks();
    let target = 5;

    // Baseline hit counts agree between the two spaces.
    let direct = nonlinear_hits(&wl.form, &wl.raw_objects, &wl.raw_weights, ks, target);
    assert_eq!(wl.instance.hit_count_naive(target), direct);

    // Improve in the augmented space.
    let index = QueryIndex::build(&wl.instance);
    let tau = (direct + 5).min(wl.instance.num_queries());
    let r = min_cost_iq(
        &wl.instance,
        &index,
        target,
        tau,
        &EuclideanCost,
        &StrategyBounds::unbounded(wl.instance.dim()),
        &SearchOptions::default(),
    );
    assert!(r.achieved, "{r:?}");

    // The augmented-space hit count is truthful in the augmented space...
    let improved = wl.instance.with_strategy(target, &r.strategy);
    assert_eq!(improved.hit_count_naive(target), r.hits_after);

    // ...and equals a direct non-linear evaluation where the target's
    // *augmented* attributes are replaced by the improved ones (the
    // strategy lives in substitution space; the analyst maps it back to
    // raw attribute changes via the stored formulas).
    let mut aug_objects: Vec<Vec<f64>> = wl
        .raw_objects
        .iter()
        .map(|o| wl.linearized.augmented_object(o))
        .collect();
    for (v, d) in aug_objects[target].iter_mut().zip(r.strategy.iter()) {
        *v += d;
    }
    let aug_queries: Vec<Vec<f64>> = wl
        .raw_weights
        .iter()
        .map(|w| wl.linearized.augmented_query(w))
        .collect();
    let manual: usize = aug_queries
        .iter()
        .zip(ks)
        .filter(|(aq, &k)| {
            let score = |o: &Vec<f64>| -> f64 { o.iter().zip(aq.iter()).map(|(a, b)| a * b).sum() };
            let ts = score(&aug_objects[target]);
            let better = aug_objects
                .iter()
                .enumerate()
                .filter(|&(i, o)| {
                    i != target && {
                        let s = score(o);
                        s < ts || (s == ts && i < target)
                    }
                })
                .count();
            better < k
        })
        .count();
    assert_eq!(manual, r.hits_after);
}

#[test]
fn heterogeneous_family_iq_pipeline() {
    // Two user populations scoring the same cars with different formulas
    // (Eqs. 19 and 26), unified per §5.3 and improved jointly.
    let schema = Schema::new(["Price", "MPG", "Capacity"]);
    let u = parse_expr("sqrt(w1 * Price) + w2 * Capacity / MPG", &schema).unwrap();
    let v = parse_expr("MPG / (w1 * Price) + w2 * Capacity^2", &schema).unwrap();
    let family = GenericFamily::from_exprs(&[u, v]).unwrap();

    let cars = [
        vec![15000.0, 30.0, 4.0],
        vec![20000.0, 28.0, 6.0],
        vec![8000.0, 35.0, 2.0],
        vec![27000.0, 22.0, 7.0],
    ];
    let users = [
        (0usize, vec![1.0e-4, 2.0]),
        (0, vec![5.0e-4, 1.0]),
        (1, vec![1.0e-3, 0.02]),
        (1, vec![5.0e-4, 0.05]),
    ];
    let objects: Vec<Vec<f64>> = cars.iter().map(|c| family.augmented_object(c)).collect();
    let queries: Vec<TopKQuery> = users
        .iter()
        .map(|(m, w)| TopKQuery::new(family.augmented_query(*m, w), 1))
        .collect();
    let instance = Instance::new(objects, queries).unwrap();

    // Union-space hit counts match per-member direct evaluation.
    for car in 0..cars.len() {
        let direct = users
            .iter()
            .filter(|(m, w)| {
                let ts = family.score(*m, &cars[car], w);
                let better = cars
                    .iter()
                    .enumerate()
                    .filter(|&(i, c)| {
                        i != car && {
                            let s = family.score(*m, c, w);
                            s < ts || (s == ts && i < car)
                        }
                    })
                    .count();
                better < 1
            })
            .count();
        assert_eq!(instance.hit_count_naive(car), direct, "car {car}");
    }

    // Improve the worst car to win at least 2 users across BOTH formulas.
    let worst = (0..cars.len())
        .min_by_key(|&c| instance.hit_count_naive(c))
        .unwrap();
    let index = QueryIndex::build(&instance);
    let r = min_cost_iq(
        &instance,
        &index,
        worst,
        2,
        &EuclideanCost,
        &StrategyBounds::unbounded(instance.dim()),
        &SearchOptions::default(),
    );
    assert!(r.achieved);
    assert!(r.hits_after >= 2);
}
