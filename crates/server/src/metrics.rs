//! The embedded metrics registry: lock-free atomic counters and
//! log-bucketed latency histograms, readable while the server runs.
//!
//! Everything here is `AtomicU64`-based so the hot path (workers recording
//! request outcomes) never takes a lock and readers (`SHOW STATS`, the
//! `--metrics-json` dump) see a consistent-enough snapshot without
//! stopping the world. Counters are monotonic; `queue_depth` is the one
//! gauge.
//!
//! Latencies use power-of-two microsecond buckets (bucket *i* holds
//! `2^i ≤ µs < 2^(i+1)`), so percentile reads are O(buckets) and the
//! reported value is the bucket's upper bound — at worst 2× the true
//! latency, which is plenty for load shedding and regression bounds.

use iq_dbms::parser::Statement;
use iq_dbms::{QueryResult, Value};
use iq_storage::StorageStats;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// The statement kinds the server accounts separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatementKind {
    /// CREATE TABLE.
    Create,
    /// INSERT.
    Insert,
    /// SELECT.
    Select,
    /// UPDATE.
    Update,
    /// DELETE.
    Delete,
    /// COPY.
    Copy,
    /// DROP TABLE.
    Drop,
    /// Read-only IMPROVE.
    Improve,
    /// IMPROVE … APPLY (a write).
    ImproveApply,
    /// SHOW TABLES.
    ShowTables,
    /// SHOW STATS.
    ShowStats,
    /// SHUTDOWN.
    Shutdown,
    /// CHECKPOINT.
    Checkpoint,
    /// SHOW WAL.
    ShowWal,
    /// A line that failed to parse (no statement to classify).
    Invalid,
}

/// All kinds, in the fixed order used for storage and reporting.
pub const ALL_KINDS: [StatementKind; 15] = [
    StatementKind::Create,
    StatementKind::Insert,
    StatementKind::Select,
    StatementKind::Update,
    StatementKind::Delete,
    StatementKind::Copy,
    StatementKind::Drop,
    StatementKind::Improve,
    StatementKind::ImproveApply,
    StatementKind::ShowTables,
    StatementKind::ShowStats,
    StatementKind::Shutdown,
    StatementKind::Checkpoint,
    StatementKind::ShowWal,
    StatementKind::Invalid,
];

impl StatementKind {
    /// Classifies a parsed statement.
    pub fn of(stmt: &Statement) -> StatementKind {
        match stmt {
            Statement::Create { .. } => StatementKind::Create,
            Statement::Insert { .. } => StatementKind::Insert,
            Statement::Select(_) => StatementKind::Select,
            Statement::Update { .. } => StatementKind::Update,
            Statement::Delete { .. } => StatementKind::Delete,
            Statement::Copy { .. } => StatementKind::Copy,
            Statement::Drop { .. } => StatementKind::Drop,
            Statement::Improve(imp) if imp.apply => StatementKind::ImproveApply,
            Statement::Improve(_) => StatementKind::Improve,
            Statement::ShowTables => StatementKind::ShowTables,
            Statement::ShowStats => StatementKind::ShowStats,
            Statement::Shutdown => StatementKind::Shutdown,
            Statement::Checkpoint => StatementKind::Checkpoint,
            Statement::ShowWal => StatementKind::ShowWal,
        }
    }

    /// The metric-name spelling.
    pub fn name(self) -> &'static str {
        match self {
            StatementKind::Create => "create",
            StatementKind::Insert => "insert",
            StatementKind::Select => "select",
            StatementKind::Update => "update",
            StatementKind::Delete => "delete",
            StatementKind::Copy => "copy",
            StatementKind::Drop => "drop",
            StatementKind::Improve => "improve",
            StatementKind::ImproveApply => "improve_apply",
            StatementKind::ShowTables => "show_tables",
            StatementKind::ShowStats => "show_stats",
            StatementKind::Shutdown => "shutdown",
            StatementKind::Checkpoint => "checkpoint",
            StatementKind::ShowWal => "show_wal",
            StatementKind::Invalid => "invalid",
        }
    }

    fn idx(self) -> usize {
        ALL_KINDS.iter().position(|&k| k == self).unwrap()
    }
}

const BUCKETS: usize = 40;

/// A log2-µs histogram with atomic buckets.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Records one latency observation.
    pub fn record(&self, micros: u64) {
        // floor(log2(µs)), clamped: 0µs and 1µs share bucket 0.
        let b = (64 - micros.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observation count.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The latency below which `p` percent of observations fall, as the
    /// containing bucket's upper bound in µs. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return 1u64 << (i + 1);
            }
        }
        1u64 << BUCKETS
    }
}

#[derive(Debug, Default)]
struct KindStats {
    ok: AtomicU64,
    errors: AtomicU64,
    latency: Histogram,
}

/// The server-wide registry. One instance per [`crate::engine::Engine`],
/// shared by every worker via `Arc`.
#[derive(Debug, Default)]
pub struct Metrics {
    by_kind: [KindStats; ALL_KINDS.len()],
    /// Requests rejected at admission (queue full).
    pub rejected: AtomicU64,
    /// Requests whose deadline expired before a worker picked them up.
    pub timed_out: AtomicU64,
    /// Current admission-queue depth (gauge).
    pub queue_depth: AtomicU64,
    /// Highest queue depth ever observed.
    pub queue_high_water: AtomicU64,
    /// Connections accepted over the server's lifetime.
    pub connections: AtomicU64,
    /// IMPROVE cache hits (prepared index reused, reconciled or not).
    pub cache_hits: AtomicU64,
    /// IMPROVE cache misses (index built).
    pub cache_misses: AtomicU64,
    /// Cache hits that first reconciled the entry with writes to its
    /// tables.
    pub cache_reconciles: AtomicU64,
    /// Cache entries dropped: a reconcile needed a rebuild, a table was
    /// gone, or the write backlog passed the entry's query count.
    pub cache_invalidations: AtomicU64,
    /// Statements replayed during startup recovery (snapshot + WAL tail).
    pub recovered_statements: AtomicU64,
    /// Bytes truncated from a torn WAL tail during recovery.
    pub recovery_truncated_bytes: AtomicU64,
}

impl Metrics {
    /// Fresh, all-zero registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records a completed request: outcome and latency.
    pub fn record(&self, kind: StatementKind, ok: bool, micros: u64) {
        let s = &self.by_kind[kind.idx()];
        if ok {
            s.ok.fetch_add(1, Ordering::Relaxed);
        } else {
            s.errors.fetch_add(1, Ordering::Relaxed);
        }
        s.latency.record(micros);
    }

    /// Successful-request count for one kind.
    pub fn ok_count(&self, kind: StatementKind) -> u64 {
        self.by_kind[kind.idx()].ok.load(Ordering::Relaxed)
    }

    /// Failed-request count for one kind.
    pub fn error_count(&self, kind: StatementKind) -> u64 {
        self.by_kind[kind.idx()].errors.load(Ordering::Relaxed)
    }

    /// Updates the queue-depth gauge and its high-water mark.
    pub fn set_queue_depth(&self, depth: u64) {
        self.queue_depth.store(depth, Ordering::Relaxed);
        self.queue_high_water.fetch_max(depth, Ordering::Relaxed);
    }

    /// The `SHOW STATS` result set: `(metric, value)` rows, integer
    /// values (latencies in µs). Per-kind rows appear only for kinds that
    /// have been observed, so a fresh server reports a compact table. The
    /// WAL rows (`wal_appends`, `wal_fsyncs`, `checkpoints`) come from
    /// `storage`, the storage layer's own counters, and read 0 without it.
    pub fn stats_result(&self, storage: Option<StorageStats>) -> QueryResult {
        let mut rows: Vec<Vec<Value>> = Vec::new();
        let mut push = |name: String, v: u64| {
            rows.push(vec![Value::Text(name), Value::Int(v as i64)]);
        };
        for kind in ALL_KINDS {
            let s = &self.by_kind[kind.idx()];
            let ok = s.ok.load(Ordering::Relaxed);
            let errors = s.errors.load(Ordering::Relaxed);
            if ok == 0 && errors == 0 {
                continue;
            }
            push(format!("{}_ok", kind.name()), ok);
            push(format!("{}_errors", kind.name()), errors);
            push(
                format!("{}_p50_us", kind.name()),
                s.latency.percentile(50.0),
            );
            push(
                format!("{}_p95_us", kind.name()),
                s.latency.percentile(95.0),
            );
            push(
                format!("{}_p99_us", kind.name()),
                s.latency.percentile(99.0),
            );
        }
        push("rejected".into(), self.rejected.load(Ordering::Relaxed));
        push("timed_out".into(), self.timed_out.load(Ordering::Relaxed));
        push(
            "queue_depth".into(),
            self.queue_depth.load(Ordering::Relaxed),
        );
        push(
            "queue_high_water".into(),
            self.queue_high_water.load(Ordering::Relaxed),
        );
        push(
            "connections".into(),
            self.connections.load(Ordering::Relaxed),
        );
        push("cache_hits".into(), self.cache_hits.load(Ordering::Relaxed));
        push(
            "cache_misses".into(),
            self.cache_misses.load(Ordering::Relaxed),
        );
        push(
            "cache_reconciles".into(),
            self.cache_reconciles.load(Ordering::Relaxed),
        );
        push(
            "cache_invalidations".into(),
            self.cache_invalidations.load(Ordering::Relaxed),
        );
        let wal = storage.map_or((0, 0, 0), |s| (s.wal_appends, s.wal_fsyncs, s.checkpoints));
        push("wal_appends".into(), wal.0);
        push("wal_fsyncs".into(), wal.1);
        push("checkpoints".into(), wal.2);
        push(
            "recovered_statements".into(),
            self.recovered_statements.load(Ordering::Relaxed),
        );
        push(
            "recovery_truncated_bytes".into(),
            self.recovery_truncated_bytes.load(Ordering::Relaxed),
        );
        QueryResult {
            columns: vec!["metric".into(), "value".into()],
            rows,
        }
    }
}

/// A `SHOW STATS` result in the repo's BENCH JSON shape
/// (`{"benches":[{"name","value","unit"},…]}`), for `--metrics-json`.
pub fn stats_json(result: &QueryResult) -> String {
    let mut out = String::from("{\n  \"benches\": [\n");
    for (i, row) in result.rows.iter().enumerate() {
        let (Value::Text(name), Value::Int(v)) = (&row[0], &row[1]) else {
            unreachable!("stats_result rows are (Text, Int)");
        };
        let unit = if name.ends_with("_us") { "us" } else { "count" };
        let _ = write!(
            out,
            "    {{\"name\": \"{name}\", \"value\": {v}, \"unit\": \"{unit}\"}}"
        );
        out.push_str(if i + 1 < result.rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iq_dbms::parse;

    #[test]
    fn classification_covers_statements() {
        let of = |sql: &str| StatementKind::of(&parse(sql).unwrap());
        assert_eq!(of("SELECT * FROM t"), StatementKind::Select);
        assert_eq!(of("IMPROVE t USING q MINCOST 1"), StatementKind::Improve);
        assert_eq!(
            of("IMPROVE t USING q MINCOST 1 APPLY"),
            StatementKind::ImproveApply
        );
        assert_eq!(of("SHOW STATS"), StatementKind::ShowStats);
        assert_eq!(of("SHUTDOWN"), StatementKind::Shutdown);
    }

    #[test]
    fn histogram_percentiles_bracket_observations() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.record(100); // bucket ⌊log2 100⌋ = 6, upper bound 128
        }
        for _ in 0..10 {
            h.record(10_000); // bucket 13, upper bound 16384
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(50.0), 128);
        assert_eq!(h.percentile(90.0), 128);
        assert_eq!(h.percentile(99.0), 16_384);
        let empty = Histogram::default();
        assert_eq!(empty.percentile(99.0), 0);
    }

    #[test]
    fn stats_result_reports_only_observed_kinds() {
        let m = Metrics::new();
        m.record(StatementKind::Select, true, 50);
        m.record(StatementKind::Select, false, 10);
        m.set_queue_depth(3);
        m.set_queue_depth(1);
        let r = m.stats_result(None);
        let get = |name: &str| {
            r.rows
                .iter()
                .find(|row| row[0] == Value::Text(name.into()))
                .map(|row| row[1].clone())
        };
        assert_eq!(get("select_ok"), Some(Value::Int(1)));
        assert_eq!(get("select_errors"), Some(Value::Int(1)));
        assert_eq!(get("improve_ok"), None, "unobserved kind must be absent");
        assert_eq!(get("queue_depth"), Some(Value::Int(1)));
        assert_eq!(get("queue_high_water"), Some(Value::Int(3)));
        assert_eq!(m.ok_count(StatementKind::Select), 1);
        assert_eq!(m.error_count(StatementKind::Select), 1);
    }

    #[test]
    fn json_dump_is_bench_shaped() {
        let m = Metrics::new();
        m.record(StatementKind::Improve, true, 1000);
        let json = stats_json(&m.stats_result(None));
        assert!(json.starts_with("{\n  \"benches\": [\n"));
        assert!(json.contains("\"name\": \"improve_ok\", \"value\": 1, \"unit\": \"count\""));
        assert!(json.contains("\"unit\": \"us\""));
    }
}
