//! # iq-core
//!
//! The primary contribution of *"Querying Improvement Strategies"*
//! (Yang & Cai, EDBT 2017), built from scratch in Rust: **Improvement
//! Queries** over top-k workloads.
//!
//! Given a dataset of objects and a set of top-k queries representing user
//! preferences, an improvement strategy adjusts a target object's
//! attributes so it appears in more query results:
//!
//! * **Min-Cost IQ** ([`search::min_cost_iq`], Algorithm 3) — the cheapest
//!   strategy reaching at least `τ` hits;
//! * **Max-Hit IQ** ([`search::max_hit_iq`], Algorithm 4) — the most hits
//!   achievable within budget `β`.
//!
//! Both are NP-hard (§4.2.1); the greedy searches here lean on the paper's
//! two structural ideas: objects interpreted as functions of the query
//! point, and the [subdomain index](subdomain::QueryIndex) + [Efficient
//! Strategy Evaluation](ese::EvalContext) machinery that re-evaluates
//! only queries inside an improvement's *affected subspace*; the
//! `(EvalContext, EvalCursor)` pair implements [`HitEvaluator`], the
//! interface the greedy searches run against.
//!
//! The extensions of §5 are implemented too: [multi-target combinatorial
//! improvement](multi), exact [branch-and-bound search](exact), the §6.1
//! comparison [baselines] (RTA-IQ, Greedy, Random), and §4.3
//! [incremental index updates](update). Non-linear and heterogeneous
//! utility functions are handled upstream by `iq-expr`'s linearization,
//! which maps them onto the linear instance type used here.

#![warn(missing_docs)]

pub mod baselines;
pub mod cost;
pub mod ese;
pub mod exact;
pub mod exec;
pub mod model;
pub mod multi;
pub mod search;
pub mod subdomain;
pub mod update;

pub use cost::{
    quantize_strategy, AsymmetricLinearCost, CostFunction, EuclideanCost, ExprCost, L1Cost,
    StrategyBounds, WeightedEuclideanCost,
};
pub use ese::{EvalContext, EvalCursor};
pub use exec::ExecPolicy;
pub use model::{ImprovementStrategy, Instance, ModelError, TopKQuery};
pub use search::{max_hit_iq, min_cost_iq, HitEvaluator, IqReport, SearchOptions};
pub use subdomain::QueryIndex;
