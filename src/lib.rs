//! # improvement-queries
//!
//! A from-scratch Rust reproduction of *"Querying Improvement Strategies"*
//! (Guolei Yang and Ying Cai, EDBT 2017): **Improvement Queries** over
//! top-k workloads, plus every substrate the paper depends on.
//!
//! Given objects (products, candidates, listings…) and a set of top-k
//! queries modelling user preferences, an *improvement strategy* adjusts a
//! target object's attributes so it appears in more query results:
//!
//! * **Min-Cost IQ** — the cheapest strategy reaching at least `τ` hits;
//! * **Max-Hit IQ** — the most hits achievable within a budget `β`.
//!
//! ```
//! use improvement_queries::prelude::*;
//!
//! // Three cameras (resolution-deficit, price) — lower score wins.
//! let instance = Instance::new(
//!     vec![vec![0.8, 0.9], vec![0.3, 0.4], vec![0.5, 0.2]],
//!     vec![
//!         TopKQuery::new(vec![0.7, 0.3], 1),
//!         TopKQuery::new(vec![0.4, 0.6], 1),
//!         TopKQuery::new(vec![0.5, 0.5], 2),
//!     ],
//! ).unwrap();
//! let index = QueryIndex::build(&instance);
//! let report = min_cost_iq(
//!     &instance, &index, /*target=*/0, /*tau=*/2,
//!     &EuclideanCost, &StrategyBounds::unbounded(2), &SearchOptions::default(),
//! );
//! assert!(report.hits_after >= 2);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`core`] (`iq-core`) | the paper's contribution: subdomain index, ESE, Algorithms 3/4, multi-target, exact search, baselines, updates |
//! | [`geometry`] (`iq-geometry`) | vectors, hyperplanes, affected-subspace slabs, BSP (Algorithm 1) |
//! | [`index`] (`iq-index`) | R-tree, bloom filter, grouped query index |
//! | [`solver`] (`iq-solver`) | simplex LP, min-norm projections, branch-and-bound |
//! | [`expr`] (`iq-expr`) | utility-function parser, §5.2 linearization, §5.3 generic families |
//! | [`topk`] (`iq-topk`) | naive top-k, Dominant Graph, RTA, reverse queries |
//! | [`workload`] (`iq-workload`) | IN/CO/AC synthetics, simulated VEHICLE/HOUSE, UN/CL queries |
//! | [`dbms`] (`iq-dbms`) | SQL engine with the `IMPROVE` statement |
//! | [`server`] (`iq-server`) | concurrent TCP serving layer over the SQL engine |

pub use iq_core as core;
pub use iq_dbms as dbms;
pub use iq_expr as expr;
pub use iq_geometry as geometry;
pub use iq_index as index;
pub use iq_server as server;
pub use iq_solver as solver;
pub use iq_topk as topk;
pub use iq_workload as workload;

/// The items most programs need, in one import.
pub mod prelude {
    pub use iq_core::multi::{multi_max_hit_iq, multi_min_cost_iq, TargetSpec};
    pub use iq_core::{
        max_hit_iq, min_cost_iq, CostFunction, EuclideanCost, ImprovementStrategy, Instance,
        IqReport, L1Cost, QueryIndex, SearchOptions, StrategyBounds, TopKQuery,
        WeightedEuclideanCost,
    };
    pub use iq_dbms::{outcome_text, Outcome, Session};
    pub use iq_expr::{parse as parse_expr, Expr, GenericFamily, LinearizedUtility, Schema};
    pub use iq_geometry::Vector;
    pub use iq_workload::{standard_instance, Distribution, QueryDistribution};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let instance = standard_instance(
            Distribution::Independent,
            QueryDistribution::Uniform,
            50,
            30,
            3,
            5,
            1,
        );
        let index = QueryIndex::build(&instance);
        let r = min_cost_iq(
            &instance,
            &index,
            0,
            instance.hit_count_naive(0) + 2,
            &EuclideanCost,
            &StrategyBounds::unbounded(3),
            &SearchOptions::default(),
        );
        assert!(r.hits_after > r.hits_before || r.achieved);
    }
}
