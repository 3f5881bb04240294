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
//! Cache discipline: a write that INSERTs into a cached pair's query or
//! object table goes through the *incremental* update path
//! (`iq_core::update::{add_query, add_object}`); the query R-tree takes
//! the insert into its pending run and re-packs itself under its own
//! compaction rule. Any other shape of write (UPDATE/DELETE/DROP/CREATE/
//! COPY on a cached table, or an INSERT the incremental path cannot
//! absorb, e.g. `k ≥ K'`) drops the cache entry instead; correctness never
//! depends on the incremental path applying.
//!
//! Determinism: a cached index and a freshly built one answer IMPROVE
//! byte-identically (same toplists ⇒ same subdomains ⇒ same candidate
//! list — the repo-wide invariant), so caching shapes latency only.

use crate::metrics::Metrics;
use crate::protocol;
use iq_core::update::{self, UpdateStats};
use iq_core::{ExecPolicy, SearchOptions, TopKQuery};
use iq_dbms::iqext::{self, Prepared};
use iq_dbms::parser::{is_read_only, ImproveStmt, Statement};
use iq_dbms::{parse, DbError, Outcome, QueryResult, Session, Value};
use iq_storage::{FsyncMode, Recovery, Storage, StorageConfig};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, RwLock};

/// Cache key: lowercased `(object_table, query_table)`.
type CacheKey = (String, String);

/// Rows per INSERT statement in checkpoint snapshots — large enough to
/// amortize parse overhead on recovery, small enough to keep any single
/// statement's allocation modest.
const SNAPSHOT_ROWS_PER_INSERT: usize = 128;

struct EngineState {
    session: Session,
    cache: HashMap<CacheKey, Prepared>,
    /// Durable storage, when the engine was opened with a data dir.
    storage: Option<Storage>,
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
            state: RwLock::new(EngineState {
                session: Session::new(),
                cache: HashMap::new(),
                storage: None,
            }),
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
            state: RwLock::new(EngineState {
                session,
                cache: HashMap::new(),
                storage: Some(storage),
            }),
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
            Statement::ShowStats => Ok(Outcome::Rows(self.metrics.stats_result())),
            // SHOW WAL is read-only but answered from the storage handle,
            // which a plain Session doesn't have — intercept it here.
            Statement::ShowWal => Ok(Outcome::Rows(self.show_wal())),
            Statement::Shutdown => Err(DbError::Unsupported(
                "SHUTDOWN must be sent over a server connection".into(),
            )),
            Statement::Improve(imp) if !imp.apply => self.improve_read(imp),
            _ if is_read_only(&stmt) => {
                let st = self.state.read().unwrap();
                st.session.execute_read(&stmt)
            }
            _ => self.execute_write(sql, stmt),
        }
    }

    /// The `SHOW WAL` result: storage-layer counters as `(metric, value)`
    /// rows. Works without `--data-dir` too (`wal_enabled` = 0) so probes
    /// don't have to know how the server was started.
    fn show_wal(&self) -> QueryResult {
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
        let st = self.state.read().unwrap();
        let mut out = String::new();
        for name in st.session.table_names() {
            out.push_str(name);
            out.push('\n');
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

    /// Read-only IMPROVE: ensure a prepared index exists (write lock only
    /// on a cache miss), then search under the shared lock.
    fn improve_read(&self, imp: &ImproveStmt) -> Result<Outcome, DbError> {
        let key = cache_key(imp);
        self.ensure_prepared(imp, &key);
        let st = self.state.read().unwrap();
        let objects = st
            .session
            .table(&imp.table)
            .ok_or_else(|| DbError::UnknownTable(imp.table.clone()))?;
        let queries = st
            .session
            .table(&imp.query_table)
            .ok_or_else(|| DbError::UnknownTable(imp.query_table.clone()))?;
        let prepared = st.cache.get(&key);
        let (result, _deltas) = iqext::improve_with(objects, queries, imp, prepared, &self.opts)?;
        Ok(Outcome::Rows(result))
    }

    /// Builds and caches the prepared index for an IMPROVE's table pair if
    /// it is missing. Build failures are not cached — the subsequent
    /// uncached execution reports the error with full context.
    fn ensure_prepared(&self, imp: &ImproveStmt, key: &CacheKey) {
        {
            let st = self.state.read().unwrap();
            if st.cache.contains_key(key) {
                self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        let mut st = self.state.write().unwrap();
        if st.cache.contains_key(key) {
            // Raced with another builder; theirs is as good as ours.
            self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let (Some(objects), Some(queries)) = (
            st.session.table(&imp.table),
            st.session.table(&imp.query_table),
        ) else {
            return;
        };
        if let Ok(prepared) = Prepared::build(objects, queries, &self.opts.exec) {
            self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
            st.cache.insert(key.clone(), prepared);
        }
    }

    /// A write: exclusive lock, execute, maintain the cache, commit.
    fn execute_write(&self, sql: &str, stmt: Statement) -> Result<Outcome, DbError> {
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

        // IMPROVE … APPLY reuses the cache for the search, then applies
        // deltas and invalidates entries that index the mutated table.
        if let Statement::Improve(imp) = &stmt {
            let key = cache_key(imp);
            let objects = st
                .session
                .table(&imp.table)
                .ok_or_else(|| DbError::UnknownTable(imp.table.clone()))?;
            let queries = st
                .session
                .table(&imp.query_table)
                .ok_or_else(|| DbError::UnknownTable(imp.query_table.clone()))?;
            let (result, deltas) =
                iqext::improve_with(objects, queries, imp, st.cache.get(&key), &self.opts)?;
            let objects_mut = st.session.table_mut(&imp.table).expect("checked above");
            iqext::apply_deltas(objects_mut, &deltas)?;
            invalidate_touching(&mut st.cache, &self.metrics, &imp.table);
            self.commit(st, sql)?;
            return Ok(Outcome::Rows(result));
        }

        let touched = written_table(&stmt);
        let insert_rows = match &stmt {
            Statement::Insert { rows, .. } => Some(rows.clone()),
            _ => None,
        };
        let outcome = st.session.execute_parsed(stmt)?;

        if let Some(table) = touched {
            match insert_rows {
                Some(rows) => self.absorb_insert(st, &table, &rows),
                None => invalidate_touching(&mut st.cache, &self.metrics, &table),
            }
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
            let synced = storage.append(sql).map_err(storage_err)?;
            self.metrics.wal_appends.fetch_add(1, Ordering::Relaxed);
            if synced {
                self.metrics.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
            }
        }
        if st.storage.as_ref().is_some_and(Storage::should_checkpoint) {
            let _ = self.checkpoint_locked(st);
        }
        Ok(())
    }

    /// Takes a checkpoint under the already-held write lock: serialize
    /// table state through the shared `render` encoder, hand it to the
    /// storage layer, count the event.
    fn checkpoint_locked(
        &self,
        st: &mut EngineState,
    ) -> Result<iq_storage::CheckpointInfo, DbError> {
        let statements = iq_dbms::snapshot_sql(&st.session, SNAPSHOT_ROWS_PER_INSERT);
        let storage = st.storage.as_mut().expect("caller checked storage");
        let info = storage.checkpoint(&statements).map_err(storage_err)?;
        self.metrics.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(info)
    }

    /// Feeds freshly inserted rows through the incremental update path for
    /// every cache entry indexing `table`; entries the path cannot absorb
    /// are dropped instead.
    fn absorb_insert(&self, st: &mut EngineState, table: &str, rows: &[Vec<Value>]) {
        let table_lc = table.to_ascii_lowercase();
        let keys: Vec<CacheKey> = st
            .cache
            .keys()
            .filter(|(o, q)| *o == table_lc || *q == table_lc)
            .cloned()
            .collect();
        for key in keys {
            let mut prepared = st.cache.remove(&key).unwrap();
            let as_queries = key.1 == table_lc;
            let absorbed = if as_queries {
                let Some(qt) = st.session.table(&key.1) else {
                    continue;
                };
                absorb_query_rows(&mut prepared, qt, rows)
            } else {
                absorb_object_rows(&mut prepared, rows)
            };
            if absorbed {
                st.cache.insert(key, prepared);
            } else {
                self.metrics
                    .cache_invalidations
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
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

/// Drops every cache entry whose object or query table is `table`.
fn invalidate_touching(cache: &mut HashMap<CacheKey, Prepared>, metrics: &Metrics, table: &str) {
    let table_lc = table.to_ascii_lowercase();
    let before = cache.len();
    cache.retain(|(o, q), _| *o != table_lc && *q != table_lc);
    let dropped = (before - cache.len()) as u64;
    if dropped > 0 {
        metrics
            .cache_invalidations
            .fetch_add(dropped, Ordering::Relaxed);
    }
}

/// Incrementally adds inserted query rows to a prepared index. Returns
/// false (entry must be invalidated) if any row cannot be absorbed — bad
/// shape, non-positive k, or `k ≥ K'` (the index cannot widen toplists).
fn absorb_query_rows(prepared: &mut Prepared, qt: &iq_dbms::Table, rows: &[Vec<Value>]) -> bool {
    let d = prepared.instance.dim();
    let mut wcols = Vec::with_capacity(d);
    for j in 0..d {
        match qt.schema.index_of(&format!("w{}", j + 1)) {
            Some(idx) => wcols.push(idx),
            None => return false,
        }
    }
    let Some(kcol) = qt.schema.index_of("k") else {
        return false;
    };
    let mut stats = UpdateStats::default();
    for row in rows {
        let mut weights = Vec::with_capacity(d);
        for &c in &wcols {
            match row.get(c).and_then(Value::as_f64) {
                Some(w) => weights.push(w),
                None => return false,
            }
        }
        let k = match row.get(kcol) {
            Some(Value::Int(k)) if *k >= 1 => *k as usize,
            _ => return false,
        };
        if k >= prepared.index.kprime() {
            return false;
        }
        if update::add_query(
            &mut prepared.instance,
            &mut prepared.index,
            TopKQuery::new(weights, k),
            &mut stats,
        )
        .is_err()
        {
            return false;
        }
    }
    true
}

/// Incrementally adds inserted object rows to a prepared index. The
/// attribute layout must match the prepared extraction exactly.
fn absorb_object_rows(prepared: &mut Prepared, rows: &[Vec<Value>]) -> bool {
    let mut stats = UpdateStats::default();
    for row in rows {
        let mut attrs = Vec::with_capacity(prepared.attrs.len());
        for &c in &prepared.attrs {
            match row.get(c).and_then(Value::as_f64) {
                Some(v) => attrs.push(v),
                None => return false,
            }
        }
        if update::add_object(
            &mut prepared.instance,
            &mut prepared.index,
            attrs,
            &mut stats,
        )
        .is_err()
        {
            return false;
        }
    }
    true
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
    fn object_insert_absorbs_and_update_invalidates() {
        let e = engine();
        let writes = [
            "INSERT INTO objects VALUES (5, 0.1, 0.1)",
            "UPDATE objects SET a1 = 0.95 WHERE id = 5",
        ];
        e.execute_sql(IMPROVE).unwrap();
        e.execute_sql(writes[0]).unwrap();
        assert_eq!(e.metrics().cache_invalidations.load(Ordering::Relaxed), 0);
        let cached = e.execute_line(IMPROVE);
        // UPDATE cannot be absorbed: the entry is dropped, then rebuilt.
        e.execute_sql(writes[1]).unwrap();
        assert_eq!(e.metrics().cache_invalidations.load(Ordering::Relaxed), 1);
        let rebuilt = e.execute_line(IMPROVE);
        assert_eq!(e.metrics().cache_misses.load(Ordering::Relaxed), 2);
        // Different data ⇒ possibly different answer; both must equal a
        // from-scratch replay at their point in history.
        let replay = Engine::new(Arc::new(Metrics::new()), ExecPolicy::sequential());
        for sql in SEED.into_iter().chain(writes) {
            replay.execute_sql(sql).unwrap();
        }
        assert_eq!(rebuilt, replay.execute_line(IMPROVE));
        drop(cached);
    }

    #[test]
    fn oversized_k_invalidates_instead_of_asserting() {
        let e = engine();
        e.execute_sql(IMPROVE).unwrap();
        // K' is derived from max k in the workload; k = 40 is far beyond.
        e.execute_sql("INSERT INTO queries VALUES (0.2, 0.8, 40)")
            .unwrap();
        assert_eq!(e.metrics().cache_invalidations.load(Ordering::Relaxed), 1);
        // Still answers correctly (rebuilds), no panic.
        let rebuilt = e.execute_line(IMPROVE);
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
