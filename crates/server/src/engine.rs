//! The shared engine: one [`iq_dbms::Session`] behind a read-write
//! snapshot discipline, plus a prepared-index cache for IMPROVE.
//!
//! Concurrency model:
//!
//! * **Readers** (`SELECT`, `SHOW TABLES`, read-only `IMPROVE`) run under
//!   the `RwLock`'s shared mode — any number side by side. They see an
//!   immutable snapshot: between writes neither the catalog nor any
//!   cached [`Prepared`] index changes.
//! * **Writers** (everything else) take the exclusive mode, so writes are
//!   totally ordered. With a data dir the WAL records that order, and the
//!   serializability tests replay it against a fresh single-threaded
//!   session to prove the concurrent history equivalent. Without one the
//!   engine keeps no history: nothing at runtime reads it.
//!
//! Cache discipline: writes never touch a cached [`Prepared`]. Every
//! write that succeeds stamps the table it wrote with the next value of an
//! engine-wide counter (a failed write changes no row, so it stamps
//! nothing); a cache entry records the stamps of its object and query
//! tables at which it was last current. An IMPROVE whose entry's
//! stamps match searches it under the shared lock. On a mismatch it takes
//! the exclusive lock and reconciles the entry in place
//! ([`Prepared::reconcile`]: moved and appended objects are spliced into
//! the toplists they reach, appended queries added), or rebuilds it where
//! the tables lost their row identity (DELETE, a changed query row, a new
//! `k ≥ K'`). It then searches under the shared lock again only if the
//! stamps still match, since a writer may slip in between the two locks.
//! IMPROVE … APPLY reconciles under its own exclusive lock before it
//! searches. So a burst of writes is absorbed once, by the next IMPROVE,
//! and a workload that never asks one pays nothing for its writes.
//!
//! Backlog bound: an entry counts the rows written to its two tables since
//! it was last current. A write that pushes the count past the number of
//! queries the entry indexes drops the entry: replaying that backlog would
//! cost about as many full top-`K'` scans as a rebuild, and an entry that
//! long unread is holding memory for nothing.
//!
//! Determinism: a reconciled entry, a cached one and a freshly built one
//! answer IMPROVE byte-identically (bit-equal instance, same toplists ⇒
//! same thresholds ⇒ same candidate list — the repo-wide invariant), so
//! caching shapes latency only. With `--features debug-invariants` every
//! cached search first checks its entry against a fresh extraction.

// panic-in-hot-path (DESIGN.md §13): a request must not panic the
// serving or WAL code; each remaining site carries an `#[expect]`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use crate::metrics::Metrics;
use crate::protocol;
use iq_core::{ExecPolicy, SearchOptions};
use iq_dbms::iqext::{self, Prepared};
use iq_dbms::parser::{is_read_only, ImproveStmt, Statement};
use iq_dbms::{parse, DbError, Outcome, QueryResult, Session, Value};
use iq_storage::{FsyncMode, Recovery, Storage, StorageConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError, RwLock};

/// Cache key: lowercased `(object_table, query_table)`.
type CacheKey = (String, String);

/// Rows per INSERT statement in checkpoint snapshots — large enough to
/// amortize parse overhead on recovery, small enough to keep any single
/// statement's allocation modest.
const SNAPSHOT_ROWS_PER_INSERT: usize = 128;

/// How many times an IMPROVE refreshes its entry before it gives up on
/// the cache, when writers keep slipping in between its two locks.
const REFRESH_ATTEMPTS: usize = 2;

/// A cached prepared index and the table versions it answers for.
struct Entry {
    prepared: Prepared,
    /// Stamps of the `(object, query)` tables when last current.
    stamps: (u64, u64),
    /// Rows written to either table since then.
    backlog: usize,
}

struct EngineState {
    session: Session,
    cache: BTreeMap<CacheKey, Entry>,
    /// Per lowercased table name: the value of `writes` at the table's
    /// last write. A table with no write through this engine (recovered,
    /// or dropped) reads 0.
    stamps: BTreeMap<String, u64>,
    /// Writes committed so far; the source of every stamp.
    writes: u64,
    /// Durable storage, when the engine was opened with a data dir.
    storage: Option<Storage>,
}

impl EngineState {
    fn new(session: Session, storage: Option<Storage>) -> Self {
        EngineState {
            session,
            cache: BTreeMap::new(),
            stamps: BTreeMap::new(),
            writes: 0,
            storage,
        }
    }

    /// The current stamps of a cache key's two tables.
    fn stamps_of(&self, key: &CacheKey) -> (u64, u64) {
        let stamp = |t: &String| self.stamps.get(t).copied().unwrap_or(0);
        (stamp(&key.0), stamp(&key.1))
    }

    /// The entry for `key`, if no write reached its tables since it was
    /// last current.
    fn current(&self, key: &CacheKey) -> Option<&Prepared> {
        self.cache
            .get(key)
            .filter(|e| e.stamps == self.stamps_of(key))
            .map(|e| &e.prepared)
    }

    /// Records a write of `rows` rows to `table`: stamps the
    /// table and ages every entry indexing it, dropping those whose
    /// backlog passes the number of queries they index. A table the write
    /// dropped loses its stamp, so the map holds live tables only; the
    /// next CREATE of the name stamps it afresh.
    fn note_write(&mut self, table: &str, rows: usize, metrics: &Metrics) {
        let table = table.to_ascii_lowercase();
        self.writes += 1;
        if self.session.table(&table).is_some() {
            self.stamps.insert(table.clone(), self.writes);
        } else {
            self.stamps.remove(&table);
        }
        let before = self.cache.len();
        self.cache.retain(|(o, q), e| {
            if *o == table || *q == table {
                e.backlog += rows;
            }
            e.backlog <= e.prepared.instance.num_queries()
        });
        let evicted = (before - self.cache.len()) as u64;
        if evicted > 0 {
            metrics
                .cache_invalidations
                .fetch_add(evicted, Ordering::Relaxed);
        }
    }
}

/// Configuration for [`Engine::with_storage`].
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// The data directory (created if missing).
    pub data_dir: PathBuf,
    /// WAL fsync discipline.
    pub fsync: FsyncMode,
    /// Auto-checkpoint threshold in WAL payload bytes (`None` = only
    /// explicit `CHECKPOINT` statements rotate the log).
    pub checkpoint_bytes: Option<u64>,
}

/// The concurrent engine shared by all server workers.
pub struct Engine {
    state: RwLock<EngineState>,
    metrics: Arc<Metrics>,
    opts: SearchOptions,
}

impl Engine {
    /// An empty engine whose IMPROVE searches use `exec` threads each.
    pub fn new(metrics: Arc<Metrics>, exec: ExecPolicy) -> Self {
        Engine {
            state: RwLock::new(EngineState::new(Session::new(), None)),
            metrics,
            opts: SearchOptions {
                exec,
                ..SearchOptions::default()
            },
        }
    }

    /// A durable engine: opens (or creates) `config.data_dir`, recovers
    /// table state from the latest snapshot plus the WAL tail, and appends
    /// every subsequent committed write to the WAL before acknowledging.
    ///
    /// Recovery replays the recovered statements (snapshot, then WAL tail)
    /// through a fresh session — the same path the determinism tests use —
    /// so the post-recovery state is byte-identical to replaying the
    /// surviving WAL prefix. The returned [`Recovery`] carries those
    /// statements: the committed history up to this open. Prepared indexes
    /// are not persisted; they rebuild lazily on first IMPROVE.
    pub fn with_storage(
        metrics: Arc<Metrics>,
        exec: ExecPolicy,
        config: DurabilityConfig,
    ) -> Result<(Self, Recovery), DbError> {
        let (storage, recovery) = Storage::open(
            &config.data_dir,
            StorageConfig {
                fsync: config.fsync,
                checkpoint_bytes: config.checkpoint_bytes,
            },
        )
        .map_err(storage_err)?;
        let mut session = Session::new();
        for (i, sql) in recovery.statements.iter().enumerate() {
            session.execute(sql).map_err(|e| {
                DbError::Storage(format!(
                    "recovery replay failed at statement {} of {}: {e}",
                    i + 1,
                    recovery.statements.len()
                ))
            })?;
        }
        metrics
            .recovered_statements
            .store(recovery.statements.len() as u64, Ordering::Relaxed);
        metrics
            .recovery_truncated_bytes
            .store(recovery.truncated_bytes, Ordering::Relaxed);
        let engine = Engine {
            state: RwLock::new(EngineState::new(session, Some(storage))),
            metrics,
            opts: SearchOptions {
                exec,
                ..SearchOptions::default()
            },
        };
        Ok((engine, recovery))
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Executes one SQL line and renders the response as one line of JSON
    /// — the wire-facing entry point. `SHOW STATS` is answered from the
    /// metrics registry; `SHUTDOWN` is the *server's* business and is
    /// rejected here (the connection layer intercepts it first).
    pub fn execute_line(&self, sql: &str) -> String {
        protocol::response_line(self.execute_sql(sql))
    }

    /// Parses and executes one SQL statement, returning the outcome.
    /// Records nothing in the metrics histograms — the caller (worker or
    /// test) owns timing.
    pub fn execute_sql(&self, sql: &str) -> Result<Outcome, DbError> {
        let stmt = parse(sql)?;
        self.execute(stmt, sql)
    }

    /// Executes an already parsed statement. `sql` must be the text `stmt`
    /// was parsed from: a committed write appends it to the WAL.
    pub fn execute(&self, stmt: Statement, sql: &str) -> Result<Outcome, DbError> {
        match &stmt {
            Statement::ShowStats => Ok(Outcome::Rows(self.stats())),
            // SHOW WAL is read-only but answered from the storage handle,
            // which a plain Session doesn't have — intercept it here.
            Statement::ShowWal => Ok(Outcome::Rows(self.show_wal())),
            Statement::Shutdown => Err(DbError::Unsupported(
                "SHUTDOWN must be sent over a server connection".into(),
            )),
            Statement::Improve(imp) if !imp.apply => self.improve_read(imp),
            _ if is_read_only(&stmt) => {
                #[expect(
                    clippy::unwrap_used,
                    reason = "a poisoned engine lock must not serve requests"
                )]
                let st = self.state.read().unwrap();
                st.session.execute_read(&stmt)
            }
            _ => self.execute_write(sql, stmt),
        }
    }

    /// The `SHOW STATS` result: the metrics registry plus the storage
    /// layer's WAL counters (0 without a data dir).
    pub fn stats(&self) -> QueryResult {
        // Counters stay readable even behind a poisoned lock.
        let st = self.state.read().unwrap_or_else(PoisonError::into_inner);
        self.metrics
            .stats_result(st.storage.as_ref().map(Storage::stats))
    }

    /// The `SHOW WAL` result: storage-layer counters as `(metric, value)`
    /// rows. Works without `--data-dir` too (`wal_enabled` = 0) so probes
    /// don't have to know how the server was started.
    fn show_wal(&self) -> QueryResult {
        #[expect(
            clippy::unwrap_used,
            reason = "a poisoned engine lock must not serve requests"
        )]
        let st = self.state.read().unwrap();
        let mut rows: Vec<Vec<Value>> = Vec::new();
        let mut push = |name: &str, v: Value| rows.push(vec![Value::Text(name.into()), v]);
        match st.storage.as_ref() {
            Some(storage) => {
                let s = storage.stats();
                push("wal_enabled", Value::Int(1));
                push("fsync_mode", Value::Text(storage.fsync_mode().name()));
                push("wal_generation", Value::Int(s.generation as i64));
                push("wal_entries", Value::Int(s.wal_entries as i64));
                push("wal_bytes", Value::Int(s.wal_bytes as i64));
                push("wal_appends", Value::Int(s.wal_appends as i64));
                push("wal_fsyncs", Value::Int(s.wal_fsyncs as i64));
                push("checkpoints", Value::Int(s.checkpoints as i64));
            }
            None => push("wal_enabled", Value::Int(0)),
        }
        push(
            "recovered_statements",
            Value::Int(self.metrics.recovered_statements.load(Ordering::Relaxed) as i64),
        );
        push(
            "recovery_truncated_bytes",
            Value::Int(
                self.metrics
                    .recovery_truncated_bytes
                    .load(Ordering::Relaxed) as i64,
            ),
        );
        QueryResult {
            columns: vec!["metric".into(), "value".into()],
            rows,
        }
    }

    /// Renders every table as aligned text, in name order — a cheap state
    /// fingerprint for the serializability tests.
    pub fn dump_tables(&self) -> String {
        #[expect(
            clippy::unwrap_used,
            reason = "a poisoned engine lock must not serve requests"
        )]
        let st = self.state.read().unwrap();
        let mut out = String::new();
        for name in st.session.table_names() {
            out.push_str(name);
            out.push('\n');
            #[expect(
                clippy::unwrap_used,
                reason = "the name comes from `table_names` under the same lock"
            )]
            let table = st.session.table(name).unwrap();
            let result = iq_dbms::QueryResult {
                columns: table
                    .schema
                    .columns()
                    .iter()
                    .map(|c| c.name.clone())
                    .collect(),
                rows: table.rows().to_vec(),
            };
            out.push_str(&iq_dbms::result_text(&result));
            out.push('\n');
        }
        out
    }

    /// Read-only IMPROVE: search the table pair's entry under the shared
    /// lock if it is current; otherwise refresh it under the exclusive
    /// lock and look again. Should writers keep slipping in between, the
    /// last look searches without the cache.
    fn improve_read(&self, imp: &ImproveStmt) -> Result<Outcome, DbError> {
        let key = cache_key(imp);
        let mut refreshes = 0;
        let mut gave_up = false;
        loop {
            #[expect(
                clippy::unwrap_used,
                reason = "a poisoned engine lock must not serve requests"
            )]
            let st = self.state.read().unwrap();
            let cached = st.current(&key);
            if cached.is_some() || gave_up {
                if cached.is_some() && refreshes == 0 {
                    self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                }
                return self.search(&st, imp, cached).map(|(r, _)| Outcome::Rows(r));
            }
            drop(st);
            refreshes += 1;
            #[expect(
                clippy::unwrap_used,
                reason = "a poisoned engine lock must not serve requests"
            )]
            let prepared = self.refresh(&mut self.state.write().unwrap(), imp, &key);
            gave_up = !prepared || refreshes == REFRESH_ATTEMPTS;
        }
    }

    /// Runs an IMPROVE's search against the current tables, on `prepared`
    /// or, with `None`, on a fresh extraction. Under `debug-invariants` a
    /// cached entry is first checked against the tables.
    fn search(
        &self,
        st: &EngineState,
        imp: &ImproveStmt,
        prepared: Option<&Prepared>,
    ) -> Result<(QueryResult, iqext::TargetDeltas), DbError> {
        let objects = st
            .session
            .table(&imp.table)
            .ok_or_else(|| DbError::UnknownTable(imp.table.clone()))?;
        let queries = st
            .session
            .table(&imp.query_table)
            .ok_or_else(|| DbError::UnknownTable(imp.query_table.clone()))?;
        #[cfg(feature = "debug-invariants")]
        if let Some(p) = prepared {
            assert!(
                st.current(&cache_key(imp))
                    .is_some_and(|c| std::ptr::eq(c, p)),
                "debug-invariants: searching an entry whose stamps are stale"
            );
            assert_entry_is_current(p, objects, queries);
        }
        iqext::improve_with(objects, queries, imp, prepared, &self.opts)
    }

    /// Makes the entry for `key` current under the exclusive lock:
    /// reconcile it in place, or build it when it is missing or the
    /// reconcile needs a rebuild. Returns false, leaving no entry, when a
    /// table is missing or cannot be extracted; the uncached search then
    /// reports the error with full context.
    fn refresh(&self, st: &mut EngineState, imp: &ImproveStmt, key: &CacheKey) -> bool {
        let stamps = st.stamps_of(key);
        let (Some(objects), Some(queries)) = (
            st.session.table(&imp.table),
            st.session.table(&imp.query_table),
        ) else {
            if st.cache.remove(key).is_some() {
                self.metrics
                    .cache_invalidations
                    .fetch_add(1, Ordering::Relaxed);
            }
            return false;
        };
        if let Some(entry) = st.cache.get_mut(key) {
            if entry.stamps == stamps {
                // Another request refreshed it first.
                self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                return true;
            }
            if entry.prepared.reconcile(objects, queries).is_ok() {
                entry.stamps = stamps;
                entry.backlog = 0;
                self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                self.metrics
                    .cache_reconciles
                    .fetch_add(1, Ordering::Relaxed);
                return true;
            }
            st.cache.remove(key);
            self.metrics
                .cache_invalidations
                .fetch_add(1, Ordering::Relaxed);
        }
        let Ok(prepared) = Prepared::build(objects, queries, &self.opts.exec) else {
            return false;
        };
        self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
        let entry = Entry {
            prepared,
            stamps,
            backlog: 0,
        };
        st.cache.insert(key.clone(), entry);
        true
    }

    /// A write: exclusive lock, execute, maintain the cache, commit.
    fn execute_write(&self, sql: &str, stmt: Statement) -> Result<Outcome, DbError> {
        #[expect(
            clippy::unwrap_used,
            reason = "a poisoned engine lock must not serve requests"
        )]
        let mut st = self.state.write().unwrap();
        let st = &mut *st;

        // CHECKPOINT is a storage operation, not a table write: snapshot
        // the current state and rotate the WAL. It is not WAL-logged — it
        // changes no rows.
        if matches!(stmt, Statement::Checkpoint) {
            if st.storage.is_none() {
                return Err(DbError::Unsupported(
                    "CHECKPOINT requires a server started with --data-dir".into(),
                ));
            }
            let info = self.checkpoint_locked(st)?;
            return Ok(Outcome::Checkpointed {
                generation: info.generation,
                wal_truncated: info.wal_records_truncated,
            });
        }

        // IMPROVE … APPLY searches the refreshed entry, then writes the
        // deltas back; the next IMPROVE reconciles the moved targets.
        if let Statement::Improve(imp) = &stmt {
            let key = cache_key(imp);
            self.refresh(st, imp, &key);
            let (result, deltas) = self.search(st, imp, st.current(&key))?;
            let objects = st
                .session
                .table_mut(&imp.table)
                .ok_or_else(|| DbError::UnknownTable(imp.table.clone()))?;
            iqext::apply_deltas(objects, &deltas)?;
            st.note_write(&imp.table, deltas.len(), &self.metrics);
            self.commit(st, sql)?;
            return Ok(Outcome::Rows(result));
        }

        let touched = written_table(&stmt);
        // A DROP writes away every row of its table.
        let dropped = match &stmt {
            Statement::Drop { name } => st.session.table(name).map_or(0, |t| t.len()),
            _ => 0,
        };
        // A failed write changed no row: it is neither stamped nor logged.
        let outcome = st.session.execute_parsed(stmt)?;
        if let Some(table) = touched {
            let rows = match &outcome {
                Outcome::Inserted(n)
                | Outcome::Copied(n)
                | Outcome::Updated(n)
                | Outcome::Deleted(n) => *n,
                _ => dropped,
            };
            st.note_write(&table, rows, &self.metrics);
        }
        self.commit(st, sql)?;
        Ok(outcome)
    }

    /// Commits an executed write: WAL append first, then a size-triggered
    /// auto-checkpoint. Without a data dir there is nothing to commit to.
    ///
    /// Error policy: the statement already executed, so a WAL append
    /// failure leaves memory ahead of disk. The error is surfaced to the
    /// client (the write may not survive a crash) rather than unwinding
    /// the applied state — same contract as a lost unsynced tail under
    /// `--fsync never`, but loud. Auto-checkpoint failures are swallowed:
    /// the write itself is durable and the next write retries the rotation.
    fn commit(&self, st: &mut EngineState, sql: &str) -> Result<(), DbError> {
        if let Some(storage) = st.storage.as_mut() {
            storage.append(sql).map_err(storage_err)?;
        }
        if st.storage.as_ref().is_some_and(Storage::should_checkpoint) {
            let _ = self.checkpoint_locked(st);
        }
        Ok(())
    }

    /// Takes a checkpoint under the already-held write lock: serialize
    /// table state through the shared `render` encoder and hand it to the
    /// storage layer, which counts the event.
    fn checkpoint_locked(
        &self,
        st: &mut EngineState,
    ) -> Result<iq_storage::CheckpointInfo, DbError> {
        let statements = iq_dbms::snapshot_sql(&st.session, SNAPSHOT_ROWS_PER_INSERT);
        #[expect(
            clippy::expect_used,
            reason = "every caller checks that the engine has storage"
        )]
        let storage = st.storage.as_mut().expect("caller checked storage");
        storage.checkpoint(&statements).map_err(storage_err)
    }
}

/// Maps a storage-layer error into the DBMS error space (wire kind
/// `storage`).
fn storage_err(e: iq_storage::StorageError) -> DbError {
    DbError::Storage(e.to_string())
}

/// The cache key for an IMPROVE statement.
fn cache_key(imp: &ImproveStmt) -> CacheKey {
    (
        imp.table.to_ascii_lowercase(),
        imp.query_table.to_ascii_lowercase(),
    )
}

/// The table a write statement mutates, if any.
fn written_table(stmt: &Statement) -> Option<String> {
    match stmt {
        Statement::Create { name, .. } | Statement::Drop { name } => Some(name.clone()),
        Statement::Insert { table, .. }
        | Statement::Update { table, .. }
        | Statement::Delete { table, .. }
        | Statement::Copy { table, .. } => Some(table.clone()),
        _ => None,
    }
}

/// `debug-invariants`: a cached entry about to be searched must be what a
/// fresh extraction of the tables gives, bit for bit, with an exact index.
#[cfg(feature = "debug-invariants")]
fn assert_entry_is_current(p: &Prepared, objects: &iq_dbms::Table, queries: &iq_dbms::Table) {
    #[expect(
        clippy::expect_used,
        reason = "the debug-invariants sanitizer is opt-in and must abort on a stale entry"
    )]
    let (fresh, attrs) = iqext::build_instance(objects, queries)
        .expect("debug-invariants: a cached entry's tables no longer extract");
    assert_eq!(attrs, p.attrs, "debug-invariants: stale attribute columns");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let same_objects = fresh.num_objects() == p.instance.num_objects()
        && (0..fresh.num_objects()).all(|i| bits(fresh.object(i)) == bits(p.instance.object(i)));
    let same_queries = fresh.num_queries() == p.instance.num_queries()
        && (0..fresh.num_queries()).all(|q| {
            fresh.k(q) == p.instance.k(q) && bits(fresh.weights(q)) == bits(p.instance.weights(q))
        });
    assert!(
        same_objects && same_queries,
        "debug-invariants: cached instance differs from a fresh extraction"
    );
    #[expect(
        clippy::expect_used,
        reason = "the debug-invariants sanitizer is opt-in and must abort on an inexact index"
    )]
    p.index
        .check_invariants(&p.instance)
        .expect("debug-invariants: cached index is not exact");
}

#[cfg(test)]
mod tests {
    use super::*;
    use iq_dbms::outcome_json;

    const SEED: [&str; 4] = [
        "CREATE TABLE objects (id INT, a1 FLOAT, a2 FLOAT)",
        "INSERT INTO objects VALUES (0, 0.9, 0.8), (1, 0.2, 0.3), (2, 0.5, 0.5), \
         (3, 0.7, 0.2), (4, 0.3, 0.9)",
        "CREATE TABLE queries (w1 FLOAT, w2 FLOAT, k INT)",
        "INSERT INTO queries VALUES (0.9, 0.1, 1), (0.5, 0.5, 2), (0.1, 0.9, 1), \
         (0.7, 0.3, 1), (0.3, 0.7, 2), (0.6, 0.4, 1)",
    ];

    fn engine() -> Engine {
        let e = Engine::new(Arc::new(Metrics::new()), ExecPolicy::sequential());
        for sql in SEED {
            e.execute_sql(sql).unwrap();
        }
        e
    }

    const IMPROVE: &str = "IMPROVE objects USING queries WHERE id = 0 MINCOST 3";

    /// A fresh engine (no cache yet) after the seed plus `writes`.
    fn replay(writes: &[&str]) -> Engine {
        let e = engine();
        for sql in writes {
            e.execute_sql(sql).unwrap();
        }
        e
    }

    fn count(e: &Engine, metric: fn(&Metrics) -> &std::sync::atomic::AtomicU64) -> u64 {
        metric(e.metrics()).load(Ordering::Relaxed)
    }

    #[test]
    fn cached_improve_is_byte_identical_to_fresh() {
        // One target, and a broad predicate whose three targets run the
        // combinatorial (§5.1) search on the cached index.
        let multi = "IMPROVE objects USING queries WHERE id >= 2 MINCOST 5";
        for improve in [IMPROVE, multi] {
            let e = engine();
            let first = e.execute_line(improve); // builds the cache
            let second = e.execute_line(improve); // hits it
            assert_eq!(first, second);
            assert!(first.contains("hits_after"), "{first}");
            assert_eq!(e.metrics().cache_misses.load(Ordering::Relaxed), 1);
            assert_eq!(e.metrics().cache_hits.load(Ordering::Relaxed), 1);
            // A fresh engine and a fresh session (no cache at all) agree
            // byte for byte.
            assert_eq!(first, engine().execute_line(improve));
            let mut s = Session::new();
            for sql in SEED {
                s.execute(sql).unwrap();
            }
            let fresh = outcome_json(&s.execute(improve).unwrap());
            assert_eq!(first, fresh);

            // Object 1 heads most lists; this UPDATE moves it behind every
            // other object, so each list it was in refills.
            let update = "UPDATE objects SET a1 = 0.99, a2 = 0.99 WHERE id = 1";
            e.execute_sql(update).unwrap();
            let reconciled = e.execute_line(improve);
            assert_eq!(e.metrics().cache_misses.load(Ordering::Relaxed), 1);
            assert_eq!(e.metrics().cache_reconciles.load(Ordering::Relaxed), 1);
            assert_eq!(reconciled, replay(&[update]).execute_line(improve));
        }
    }

    #[test]
    fn insert_into_cached_pair_absorbs_incrementally() {
        let e = engine();
        e.execute_sql(IMPROVE).unwrap();
        assert_eq!(e.metrics().cache_misses.load(Ordering::Relaxed), 1);
        // Absorbable insert: small k, correct shape.
        let insert = "INSERT INTO queries VALUES (0.4, 0.6, 1)";
        e.execute_sql(insert).unwrap();
        assert_eq!(e.metrics().cache_invalidations.load(Ordering::Relaxed), 0);
        // The cached index must now answer exactly like a fresh build.
        let cached = e.execute_line(IMPROVE);
        assert_eq!(
            e.metrics().cache_misses.load(Ordering::Relaxed),
            1,
            "still cached"
        );
        let fresh_engine = Engine::new(Arc::new(Metrics::new()), ExecPolicy::sequential());
        for sql in SEED.into_iter().chain([insert]) {
            fresh_engine.execute_sql(sql).unwrap();
        }
        assert_eq!(cached, fresh_engine.execute_line(IMPROVE));
    }

    #[test]
    fn object_writes_reconcile_in_place() {
        let e = engine();
        let writes = [
            "INSERT INTO objects VALUES (5, 0.1, 0.1)",
            "UPDATE objects SET a1 = 0.95 WHERE id = 5",
            "IMPROVE objects USING queries WHERE id = 4 MINCOST 2 APPLY",
        ];
        e.execute_sql(IMPROVE).unwrap();
        for (i, sql) in writes.into_iter().enumerate() {
            let answer = e.execute_line(sql);
            assert!(answer.contains("\"ok\":true"), "{answer}");
            // The written rows wait in the tables until the next IMPROVE.
            let cached = e.execute_line(IMPROVE);
            assert_eq!(
                cached,
                replay(&writes[..=i]).execute_line(IMPROVE),
                "after `{sql}`"
            );
        }
        assert_eq!(count(&e, |m| &m.cache_misses), 1);
        assert_eq!(count(&e, |m| &m.cache_reconciles), 3);
        assert_eq!(count(&e, |m| &m.cache_invalidations), 0);
        // APPLY searched the reconciled entry: its answer matches a fresh
        // engine's too.
        assert_eq!(
            e.execute_line(writes[2]),
            replay(&writes).execute_line(writes[2])
        );
    }

    #[test]
    fn failed_write_changes_nothing() {
        let e = engine();
        let before = (e.execute_line(IMPROVE), e.dump_tables());
        // The first row is valid, the second fails its type check: neither
        // lands, the entry stays current, the answer stays the same.
        let partial = "INSERT INTO objects VALUES (5, 0.05, 0.05), (6, 'x', 0.1)";
        assert!(e.execute_sql(partial).is_err());
        assert_eq!((e.execute_line(IMPROVE), e.dump_tables()), before);
        assert_eq!(count(&e, |m| &m.cache_hits), 1);
        assert_eq!(count(&e, |m| &m.cache_reconciles), 0);
    }

    #[test]
    fn oversized_k_invalidates_instead_of_asserting() {
        let e = engine();
        e.execute_sql(IMPROVE).unwrap();
        // K' is derived from max k in the workload; k = 40 is far beyond.
        let insert = "INSERT INTO queries VALUES (0.2, 0.8, 40)";
        e.execute_sql(insert).unwrap();
        assert_eq!(count(&e, |m| &m.cache_invalidations), 0);
        // The reconcile refuses the row; the entry is rebuilt, no panic.
        let rebuilt = e.execute_line(IMPROVE);
        assert!(rebuilt.contains("\"ok\":true"), "{rebuilt}");
        assert_eq!(count(&e, |m| &m.cache_invalidations), 1);
        assert_eq!(count(&e, |m| &m.cache_misses), 2);
        assert_eq!(rebuilt, replay(&[insert]).execute_line(IMPROVE));
    }

    #[test]
    fn delete_forces_a_rebuild() {
        let e = engine();
        e.execute_sql(IMPROVE).unwrap();
        let delete = "DELETE FROM objects WHERE id = 2";
        e.execute_sql(delete).unwrap();
        let rebuilt = e.execute_line(IMPROVE);
        assert_eq!(count(&e, |m| &m.cache_invalidations), 1);
        assert_eq!(count(&e, |m| &m.cache_misses), 2);
        assert_eq!(rebuilt, replay(&[delete]).execute_line(IMPROVE));
    }

    #[test]
    fn drop_and_create_are_seen_by_the_diff() {
        // Enough queries that rewriting the object table stays inside the
        // backlog bound.
        let more_queries = "INSERT INTO queries VALUES (0.2, 0.8, 1), (0.8, 0.2, 2), \
                            (0.45, 0.55, 1), (0.35, 0.65, 2), (0.65, 0.35, 1), (0.15, 0.85, 2)";
        let e = replay(&[more_queries]);
        e.execute_sql(IMPROVE).unwrap();
        let recreate = |rows: &str| {
            e.execute_sql("DROP TABLE objects").unwrap();
            e.execute_sql(SEED[0]).unwrap();
            e.execute_sql(&format!("INSERT INTO objects VALUES {rows}"))
                .unwrap();
        };
        // The same rows again: the entry is still exact and is kept.
        recreate("(0, 0.9, 0.8), (1, 0.2, 0.3), (2, 0.5, 0.5), (3, 0.7, 0.2), (4, 0.3, 0.9)");
        let same = e.execute_line(IMPROVE);
        assert_eq!(same, replay(&[more_queries]).execute_line(IMPROVE));
        assert_eq!(count(&e, |m| &m.cache_misses), 1);
        // Different rows: the diff moves them.
        let rows = "(0, 0.9, 0.8), (1, 0.6, 0.3), (2, 0.1, 0.5), (3, 0.7, 0.2), (4, 0.3, 0.9)";
        recreate(rows);
        let moved = e.execute_line(IMPROVE);
        assert_eq!(count(&e, |m| &m.cache_misses), 1);
        let fresh = replay(&[
            more_queries,
            "DROP TABLE objects",
            SEED[0],
            &format!("INSERT INTO objects VALUES {rows}"),
        ]);
        assert_eq!(moved, fresh.execute_line(IMPROVE));
        // Dropping the query table leaves IMPROVE an unknown table.
        e.execute_sql("DROP TABLE queries").unwrap();
        assert!(e.execute_line(IMPROVE).contains("\"ok\":false"));
    }

    #[test]
    fn write_backlog_past_the_query_count_drops_the_entry() {
        let e = engine();
        e.execute_sql(IMPROVE).unwrap();
        // Six queries indexed: six rows written keep the entry…
        for i in 0..6 {
            e.execute_sql(&format!("UPDATE objects SET a1 = 0.{i}5 WHERE id = 4"))
                .unwrap();
        }
        assert_eq!(count(&e, |m| &m.cache_invalidations), 0);
        // …the seventh passes the bound.
        e.execute_sql("UPDATE objects SET a2 = 0.15 WHERE id = 4")
            .unwrap();
        assert_eq!(count(&e, |m| &m.cache_invalidations), 1);
        let rebuilt = e.execute_line(IMPROVE);
        assert_eq!(count(&e, |m| &m.cache_misses), 2);
        assert_eq!(count(&e, |m| &m.cache_reconciles), 0);
        assert!(rebuilt.contains("\"ok\":true"), "{rebuilt}");
    }

    #[test]
    fn show_stats_and_shutdown_routing() {
        let e = engine();
        match e.execute_sql("SHOW STATS").unwrap() {
            Outcome::Rows(r) => assert_eq!(r.columns, vec!["metric", "value"]),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            e.execute_sql("SHUTDOWN"),
            Err(DbError::Unsupported(_))
        ));
    }

    #[test]
    fn checkpoint_without_data_dir_is_unsupported() {
        let e = engine();
        assert!(matches!(
            e.execute_sql("CHECKPOINT"),
            Err(DbError::Unsupported(_))
        ));
    }

    #[test]
    fn show_wal_reports_disabled_without_data_dir() {
        let e = engine();
        match e.execute_sql("SHOW WAL").unwrap() {
            Outcome::Rows(r) => {
                assert_eq!(r.columns, vec!["metric", "value"]);
                assert_eq!(
                    r.rows[0],
                    vec![Value::Text("wal_enabled".into()), Value::Int(0)]
                );
            }
            other => panic!("{other:?}"),
        }
    }
}
