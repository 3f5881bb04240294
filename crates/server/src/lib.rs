//! `iq-server`: a concurrent serving layer over the IQ engine.
//!
//! A std-only (no new dependencies) multi-threaded TCP server speaking a
//! newline-delimited SQL/JSON protocol over the [`iq_dbms`] statement
//! set, with:
//!
//! - a fixed worker pool layered on [`iq_core::exec::ExecPolicy`] so that
//!   per-request parallelism composes with cross-request concurrency
//!   without oversubscription ([`ExecPolicy::share_across`]);
//! - snapshot reads: concurrent `SELECT` / `IMPROVE` readers share an
//!   `RwLock` read guard plus a prepared-index cache, while writes
//!   serialize through the incremental update path ([`engine`]);
//! - bounded admission with backpressure, per-request deadlines, and a
//!   graceful drain on `SHUTDOWN` ([`server`]);
//! - embedded metrics — request counters, per-statement-kind latency
//!   histograms, queue depth — via `SHOW STATS` and a JSON dump
//!   ([`metrics`]).
//!
//! Determinism carries through from the engine: because the same
//! subdomain always yields the identical ordered candidate list, a cached
//! prepared index answers `IMPROVE` byte-identically to a fresh build,
//! and any interleaving of concurrent writes is equivalent to its
//! serialization order (recorded in the WAL when the engine has a data
//! dir).
//!
//! See DESIGN.md §11 for the protocol grammar and lifecycle.

pub mod client;
pub mod engine;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use engine::{DurabilityConfig, Engine};
pub use iq_storage::{FsyncMode, Recovery};
pub use metrics::{Metrics, StatementKind};
pub use server::{start, ServerConfig, ServerHandle};
