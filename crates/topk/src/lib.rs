//! # iq-topk
//!
//! Rank-aware query substrate: the top-k machinery the improvement-query
//! layer builds on, plus every comparator scheme the paper evaluates
//! against.
//!
//! * [`naive`] — exhaustive top-k / ranking, the correctness oracle;
//! * [`dominant_graph`] — the Dominant Graph index (Zou & Chen, ICDE 2008),
//!   the indexing comparator of Figs. 4 and 6;
//! * [`rta`] — the reverse top-k Threshold Algorithm (Vlachou et al., TKDE
//!   2011) behind the `RTA-IQ` baseline;
//! * [`reverse`] — naive reverse top-k and reverse k-ranks reference
//!   queries.
//!
//! Ranking convention everywhere: **ascending score** (Eq. 6 of the paper),
//! ties broken by object id.

#![warn(missing_docs)]

pub mod dominant_graph;
pub mod naive;
pub mod reverse;
pub mod rta;

pub use dominant_graph::DominantGraph;
pub use naive::{score, top_k, TopKQuery};
pub use rta::RtaResult;
