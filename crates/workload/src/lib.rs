//! # iq-workload
//!
//! Workload generation for the `improvement-queries` evaluation (§6.2 of
//! the paper): the IN/CO/AC [synthetic object datasets](synthetic), the
//! simulated [VEHICLE and HOUSE real-world tables](real), and the UN/CL
//! [top-k query generators](queries) with polynomial utility forms.
//!
//! [`standard_instance`] assembles the combinations the evaluation figures
//! sweep over, seeded deterministically so experiments are reproducible.

#![warn(missing_docs)]

pub mod queries;
pub mod real;
pub mod sqlgen;
pub mod synthetic;

pub use queries::{QueryDistribution, K_RANGE};
pub use real::RealDataset;
pub use sqlgen::{seed_statements, SqlStream, StatementMix};
pub use synthetic::Distribution;

use iq_core::Instance;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a ready-to-index instance: `n` objects from the given synthetic
/// distribution, `m` queries from the given query distribution with
/// `k ∈ [1, k_max]`, all derived from `seed`.
pub fn standard_instance(
    dist: Distribution,
    qdist: QueryDistribution,
    n: usize,
    m: usize,
    d: usize,
    k_max: usize,
    seed: u64,
) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let objects = synthetic::generate(dist, n, d, &mut rng);
    let qs = queries::queries(qdist, m, d, 1..=k_max.max(1), &mut rng);
    Instance::new(objects, qs).expect("generated instance is consistent")
}

/// Builds an instance over one of the simulated real-world tables with
/// `m` queries of the given distribution — the paper uses a query set one
/// third of the dataset size (§6.3.2).
pub fn real_instance(
    dataset: &RealDataset,
    qdist: QueryDistribution,
    m: usize,
    k_max: usize,
    seed: u64,
) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let qs = queries::queries(qdist, m, dataset.dim(), 1..=k_max.max(1), &mut rng);
    Instance::new(dataset.rows.clone(), qs).expect("real instance is consistent")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_instance_shape() {
        let inst = standard_instance(
            Distribution::Independent,
            QueryDistribution::Uniform,
            100,
            40,
            3,
            10,
            42,
        );
        assert_eq!(inst.num_objects(), 100);
        assert_eq!(inst.num_queries(), 40);
        assert_eq!(inst.dim(), 3);
        assert!(inst.max_k() <= 10);
    }

    #[test]
    fn deterministic_by_seed() {
        let mk = |seed| {
            standard_instance(
                Distribution::Correlated,
                QueryDistribution::Clustered,
                50,
                20,
                2,
                5,
                seed,
            )
        };
        let a = mk(7);
        let b = mk(7);
        assert_eq!(a.objects_flat(), b.objects_flat());
        let c = mk(8);
        assert_ne!(a.objects_flat(), c.objects_flat());
    }

    #[test]
    fn real_instance_wraps_dataset() {
        let mut rng = StdRng::seed_from_u64(1);
        let ds = real::vehicle_scaled(500, &mut rng);
        let inst = real_instance(&ds, QueryDistribution::Uniform, 100, 8, 3);
        assert_eq!(inst.num_objects(), 500);
        assert_eq!(inst.num_queries(), 100);
        assert_eq!(inst.dim(), 5);
    }
}
