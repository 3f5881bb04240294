//! At-scale consistency: fast ESE against exhaustive ground truth on
//! instances an order of magnitude larger than the property tests use,
//! across every workload distribution. One-shot deterministic runs (no
//! shrinking needed at this size — any failure here reproduces directly).

use iq_core::search::ese_evaluator;
use iq_core::{ExecPolicy, HitEvaluator, QueryIndex};
use iq_geometry::Vector;
use iq_workload::{standard_instance, Distribution, QueryDistribution};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn stress(dist: Distribution, qdist: QueryDistribution, seed: u64) {
    let inst = standard_instance(dist, qdist, 1200, 500, 4, 10, seed);
    let index = QueryIndex::build(&inst);
    index.check_invariants(&inst).unwrap();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);

    for _ in 0..3 {
        let target = rng.gen_range(0..inst.num_objects());
        let mut ev = ese_evaluator(&inst, &index, target, &ExecPolicy::sequential());
        assert_eq!(
            ev.hit_count(),
            inst.hit_count_naive(target),
            "{dist:?}/{qdist:?}: baseline hit count"
        );
        // A chain of strategies of mixed magnitude, committed as we go.
        for step in 0..4 {
            let scale = [0.002, 0.02, 0.2, 1.0][step];
            let s = Vector::new(
                (0..inst.dim())
                    .map(|_| (rng.gen::<f64>() - 0.6) * scale)
                    .collect::<Vec<_>>(),
            );
            let predicted = ev.evaluate(&s);
            let total = {
                let mut t = ev.applied().clone();
                t += &s;
                t
            };
            let truth = inst.with_strategy(target, &total).hit_count_naive(target);
            assert_eq!(
                predicted, truth,
                "{dist:?}/{qdist:?}: ESE diverged at step {step} (target {target})"
            );
            ev.apply(&s);
            assert_eq!(ev.hit_count(), truth);
        }
    }
}

#[test]
fn independent_uniform() {
    stress(Distribution::Independent, QueryDistribution::Uniform, 1);
}

#[test]
fn correlated_clustered() {
    stress(Distribution::Correlated, QueryDistribution::Clustered, 2);
}

#[test]
fn anticorrelated_uniform() {
    stress(Distribution::AntiCorrelated, QueryDistribution::Uniform, 3);
}

#[test]
fn independent_clustered() {
    stress(Distribution::Independent, QueryDistribution::Clustered, 4);
}
