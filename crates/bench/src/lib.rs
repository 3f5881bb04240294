//! # iq-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§6). The [`harness`] module holds the Table 2
//! settings (scaled by `IQ_SCALE`), workload construction, and the
//! per-scheme measurement loops; the `figures` binary prints each figure's
//! series as rows; the Criterion benches under `benches/` give per-figure
//! statistical timings at smoke scale.

#![warn(missing_docs)]

pub mod harness;
pub mod record;

pub use harness::{
    build_instance, measure_index_costs, measure_processing, print_settings, IndexCosts,
    ProcessingMetrics, Scheme, Settings,
};
pub use record::{BenchEntry, Recorder};
