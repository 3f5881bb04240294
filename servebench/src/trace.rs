//! The traced run: per-layer metrics measured from outside the program.
//!
//! One fixed stream of the workload (its set-up plus `trace_rounds`
//! rounds) is replayed four ways:
//!
//! 1. over the wire, untraced, for client latencies and `SHOW STATS`;
//! 2. in process through `Engine::execute_sql`, untraced, configured like
//!    the workload — the baseline for the server overhead and the
//!    tracing overhead;
//! 3. in process through the same engine with the other durability, for
//!    the storage layer's commit cost (durable minus in-memory);
//! 4. traced: the statement path rebuilt from the layers' public
//!    functions with a span around each call. IMPROVE's greedy search is
//!    re-enacted step by step and must equal the `IqReport` of
//!    `min_cost_iq`; every rendered answer must equal the engine's byte for
//!    byte.
//!
//! Layers the stream never calls (SELECT on the IMPROVE workloads, for
//! instance) are timed on a probe of a few extra statements run on the
//! workload's final tables after the stream. A scale ladder then times
//! one index build and one MINCOST IMPROVE at two more table sizes.

use crate::serve::{self, clip, Client, Server, TempDir};
use crate::stats::{median, Metric, Report};
use crate::workload::{eligible_targets, Kind, Role, Spec, Stmt, Workload, DIM, TAU};
use iq_core::update::{self, UpdateStats};
use iq_core::{
    min_cost_iq, CostFunction, EuclideanCost, EvalContext, ExecPolicy, ImprovementStrategy,
    Instance, IqReport, QueryIndex, SearchOptions, StrategyBounds, TopKQuery,
};
use iq_dbms::exec::matching_rows;
use iq_dbms::iqext::{self, Prepared};
use iq_dbms::parser::{CostKind, ImproveGoal};
use iq_dbms::{
    error_json, outcome_json, parse, snapshot_sql, DbError, Outcome, QueryResult, Session,
    Statement, Value,
};
use iq_server::{protocol, Engine, Metrics};
use iq_storage::{FsyncMode, Storage, StorageConfig};
use iq_workload::{standard_instance, Distribution, QueryDistribution};
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Rows per INSERT in checkpoint snapshots, as the engine writes them.
const SNAPSHOT_ROWS_PER_INSERT: usize = 128;
/// Statements per layer probe.
const PROBES: usize = 20;
/// The traced run fails below this share of lead time in named spans.
const MIN_ATTRIBUTED: f64 = 0.9;

/// Which end-to-end metric each per-layer metric should move, and on
/// which workload. On the other workloads the prediction is no change.
const PREDICTIONS: [(&str, &str); 30] = [
    (
        "server.overhead_ms",
        "ops_per_s, side_p90_ms on point_durable",
    ),
    (
        "server.cache_hit_ratio",
        "lead_p90_ms, ops_per_s on churn_mixed",
    ),
    ("dbms.parse_us", "ops_per_s on point_durable"),
    ("dbms.select_ms", "side_p90_ms, ops_per_s on point_durable"),
    ("dbms.write_ms", "lead_p90_ms, ops_per_s on point_durable"),
    (
        "dbms.extract_ms",
        "setup_s on all; lead_p90_ms on churn_mixed",
    ),
    ("dbms.render_us", "side_p90_ms, ops_per_s on point_durable"),
    (
        "core.subdomain.build_ms",
        "setup_s on all; lead_p90_ms on churn_mixed",
    ),
    ("core.subdomain.count", "rss_peak_mb on all"),
    ("core.subdomain.bytes", "rss_peak_mb on all"),
    (
        "core.ese.context_ms",
        "ops_per_s, lead_p90_ms on churn_mixed",
    ),
    (
        "core.search.solve_ms",
        "ops_per_s, lead_p90_ms on churn_mixed",
    ),
    (
        "core.search.candidates",
        "ops_per_s, lead_p90_ms on churn_mixed",
    ),
    ("core.ese.eval_ms", "ops_per_s, lead_p90_ms on churn_mixed"),
    (
        "core.search.iterations",
        "ops_per_s, lead_p90_ms on churn_mixed",
    ),
    (
        "core.search.evaluated",
        "ops_per_s, lead_p90_ms on churn_mixed",
    ),
    (
        "core.update.add_query_us",
        "side_p90_ms, ops_per_s on churn_mixed",
    ),
    (
        "core.update.fast_path_ratio",
        "side_p90_ms, ops_per_s on churn_mixed",
    ),
    (
        "storage.commit_ms",
        "lead_p90_ms, ops_per_s on point_durable",
    ),
    (
        "storage.fsyncs_per_write",
        "lead_p90_ms, ops_per_s on point_durable",
    ),
    (
        "storage.bytes_per_user_byte",
        "lead_p90_ms, ops_per_s on point_durable",
    ),
    ("storage.checkpoint_ms", "ops_per_s on point_durable"),
    ("storage.checkpoints", "ops_per_s on point_durable"),
    (
        "storage.recover_ms",
        "restart time (not end-to-end) on point_durable",
    ),
    ("trace.overhead_frac", "none"),
    ("trace.attributed_frac", "none"),
    ("ladder.s.build_ms", "none (scale ladder, 2k x 200)"),
    ("ladder.s.improve_ms", "none (scale ladder, 2k x 200)"),
    ("ladder.l.build_ms", "none (scale ladder, 50k x 5k)"),
    ("ladder.l.improve_ms", "none (scale ladder, 50k x 5k)"),
];

/// Which part of the stream a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Loading the seed tables.
    Load,
    /// The first IMPROVE, which builds the prepared index.
    Setup,
    /// The workload's rounds.
    Round(Role),
    /// Statements timing layers the stream never calls.
    Probe,
}

impl Class {
    fn label(self) -> &'static str {
        match self {
            Class::Load => "load",
            Class::Setup => "setup",
            Class::Round(Role::Lead) => "lead",
            Class::Round(Role::Side) => "side",
            Class::Probe => "probe",
        }
    }
}

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: usize,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span recorder: name, start, end, parent, request id.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: usize,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the open span.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now();
        out
    }

    /// Each span's self time in ms: its duration minus the time its child
    /// spans cover (children nest and never overlap on one thread).
    fn self_ms(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.ms();
            }
        }
        out
    }

    /// Writes every span as one JSON line.
    fn write(&self, path: &Path, classes: &[Class]) -> Result<(), String> {
        let io = |e: std::io::Error| format!("writing {}: {e}", path.display());
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(io)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(io)?);
        for ((id, s), self_ms) in self.spans.iter().enumerate().zip(self.self_ms()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ms\":{self_ms},\"parent\":{parent},\"request\":{},\"class\":\"{}\"}}",
                s.name, s.start_ns, s.end_ns, s.request, classes[s.request].label()
            )
            .map_err(io)?;
        }
        out.flush().map_err(io)
    }
}

/// Work counters of one re-enacted IMPROVE.
struct ImproveWork {
    request: usize,
    solves: usize,
    report: IqReport,
}

/// The traced statement path: a session, the prepared-index cache the
/// engine would hold, and the WAL when the workload is durable.
struct Traced {
    session: Session,
    cache: Option<Prepared>,
    storage: Option<Storage>,
    opts: SearchOptions,
    improves: Vec<ImproveWork>,
    add_queries: usize,
    fast_assignments: usize,
    /// `(num_subdomains, size_bytes)` of the last index built.
    index_shape: Option<(usize, usize)>,
}

impl Traced {
    fn new(storage: Option<Storage>) -> Traced {
        Traced {
            session: Session::new(),
            cache: None,
            storage,
            opts: SearchOptions {
                exec: ExecPolicy::sequential(),
                ..SearchOptions::default()
            },
            improves: Vec::new(),
            add_queries: 0,
            fast_assignments: 0,
            index_shape: None,
        }
    }

    /// Executes one statement under a root span and returns its rendered
    /// answer. A re-enacted IMPROVE is then checked against the library's
    /// search, outside the span.
    fn execute(&mut self, tr: &mut Tracer, sql: &str) -> Result<String, String> {
        let (rendered, check) = tr.span("stmt", |tr| self.statement(tr, sql));
        if let Some((target, tau)) = check {
            let work = self.improves.last().expect("re-enactment recorded");
            let p = self.cache.as_ref().expect("IMPROVE left an index");
            let bounds = StrategyBounds::unbounded(p.instance.dim());
            let expected = min_cost_iq(
                &p.instance,
                &p.index,
                target,
                tau,
                &EuclideanCost,
                &bounds,
                &self.opts,
            );
            if !same_report(&work.report, &expected) {
                return Err(format!(
                    "re-enacted `{sql}` gives {:?}, the library {expected:?}",
                    work.report
                ));
            }
        }
        Ok(rendered)
    }

    fn statement(&mut self, tr: &mut Tracer, sql: &str) -> (String, Option<(usize, usize)>) {
        let stmt = match tr.span("dbms.parse", |_| parse(sql)) {
            Ok(s) => s,
            Err(e) => return (tr.span("dbms.render", |_| error_json(&e)), None),
        };
        let mut check = None;
        let outcome = match stmt {
            Statement::Improve(imp) if !imp.apply && imp.freeze.is_empty() => {
                self.improve(tr, &imp).map(|(target, tau, result)| {
                    check = Some((target, tau));
                    Outcome::Rows(result)
                })
            }
            Statement::Select(_) => tr.span("dbms.select", |_| self.session.execute_read(&stmt)),
            Statement::Insert { .. } | Statement::Update { .. } | Statement::Create { .. } => {
                self.write(tr, sql, stmt)
            }
            other => Err(DbError::Unsupported(format!(
                "the traced replay does not cover {other:?}"
            ))),
        };
        let rendered = tr.span("dbms.render", |_| match &outcome {
            Ok(o) => outcome_json(o),
            Err(e) => error_json(e),
        });
        (rendered, check)
    }

    fn improve(
        &mut self,
        tr: &mut Tracer,
        imp: &iq_dbms::parser::ImproveStmt,
    ) -> Result<(usize, usize, QueryResult), DbError> {
        let (ImproveGoal::MinCost(tau), CostKind::Euclidean) = (&imp.goal, &imp.cost) else {
            return Err(DbError::Unsupported(
                "only MINCOST with COST EUCLIDEAN is traced".into(),
            ));
        };
        let tau = *tau;
        let objects = self
            .session
            .table(&imp.table)
            .ok_or_else(|| DbError::UnknownTable(imp.table.clone()))?;
        let queries = self
            .session
            .table(&imp.query_table)
            .ok_or_else(|| DbError::UnknownTable(imp.query_table.clone()))?;
        if self.cache.is_none() {
            let (instance, attrs) =
                tr.span("dbms.extract", |_| iqext::build_instance(objects, queries))?;
            let index = tr.span("core.subdomain.build", |_| {
                QueryIndex::build_with(&instance, &self.opts.exec)
            });
            self.index_shape = Some((index.num_subdomains(), index.size_bytes()));
            self.cache = Some(Prepared {
                instance,
                attrs,
                index,
            });
        }
        let p = self.cache.as_ref().expect("built above");
        let targets = tr.span("dbms.target", |_| {
            matching_rows(objects, imp.predicate.as_ref())
        })?;
        let [target] = targets[..] else {
            return Err(DbError::Unsupported(
                "only single-target IMPROVE is traced".into(),
            ));
        };
        let (report, solves) = reenact(tr, &p.instance, &p.index, target, tau, &self.opts);
        let mut columns = vec!["row".to_string()];
        for &c in &p.attrs {
            columns.push(format!("delta_{}", objects.schema.columns()[c].name));
        }
        columns.extend(["cost", "hits_before", "hits_after", "achieved"].map(String::from));
        let mut row = vec![Value::Int(target as i64)];
        row.extend(report.strategy.iter().map(|&v| Value::Float(v)));
        row.extend([
            Value::Float(report.cost),
            Value::Int(report.hits_before as i64),
            Value::Int(report.hits_after as i64),
            Value::Bool(report.achieved),
        ]);
        self.improves.push(ImproveWork {
            request: tr.request,
            solves,
            report,
        });
        Ok((
            target,
            tau,
            QueryResult {
                columns,
                rows: vec![row],
            },
        ))
    }

    /// A write as the engine commits it: execute, keep the prepared index
    /// current (absorb query INSERTs, drop it on anything else), append to
    /// the WAL, checkpoint when the WAL is over its threshold.
    fn write(&mut self, tr: &mut Tracer, sql: &str, stmt: Statement) -> Result<Outcome, DbError> {
        let inserted = match &stmt {
            Statement::Insert { table, rows } if table.eq_ignore_ascii_case("queries") => {
                Some(rows.clone())
            }
            _ => None,
        };
        let outcome = tr.span("dbms.write", |_| self.session.execute_parsed(stmt))?;
        match inserted {
            Some(rows) if self.cache.is_some() => self.absorb(tr, &rows),
            _ => self.cache = None,
        }
        if let Some(storage) = self.storage.as_mut() {
            let storage_err = |e: iq_storage::StorageError| DbError::Storage(e.to_string());
            tr.span("storage.append", |_| storage.append(sql))
                .map_err(storage_err)?;
            if storage.should_checkpoint() {
                let session = &self.session;
                tr.span("storage.checkpoint", |_| {
                    storage.checkpoint(&snapshot_sql(session, SNAPSHOT_ROWS_PER_INSERT))
                })
                .map_err(storage_err)?;
            }
        }
        Ok(outcome)
    }

    /// Feeds inserted query rows `(w1, …, wd, k)` through
    /// `update::add_query`, then re-seals the index, as the engine does.
    fn absorb(&mut self, tr: &mut Tracer, rows: &[Vec<Value>]) {
        let p = self.cache.as_mut().expect("caller checked");
        for row in rows {
            let weights: Option<Vec<f64>> = row[..DIM].iter().map(Value::as_f64).collect();
            let k = match row.get(DIM) {
                Some(Value::Int(k)) if *k >= 1 => *k as usize,
                _ => 0,
            };
            let Some(weights) = weights.filter(|_| k >= 1 && k < p.index.kprime()) else {
                self.cache = None;
                return;
            };
            let mut stats = UpdateStats::default();
            let added = tr.span("core.update.add_query", |_| {
                update::add_query(
                    &mut p.instance,
                    &mut p.index,
                    TopKQuery::new(weights, k),
                    &mut stats,
                )
            });
            if added.is_err() {
                self.cache = None;
                return;
            }
            self.add_queries += 1;
            self.fast_assignments += stats.fast_assignments;
        }
        if !p.index.is_sealed() {
            tr.span("core.subdomain.seal", |_| p.index.seal());
        }
    }
}

/// Algorithm 3 rebuilt from its public parts, one span per phase: the
/// ESE context, then per greedy step one solve per unhit query, one ESE
/// evaluation per candidate, and the commit. Returns the report and the
/// number of per-query solves.
fn reenact(
    tr: &mut Tracer,
    instance: &Instance,
    index: &QueryIndex,
    target: usize,
    tau: usize,
    opts: &SearchOptions,
) -> (IqReport, usize) {
    let cost_fn = EuclideanCost;
    let bounds = StrategyBounds::unbounded(instance.dim());
    let (ctx, mut cursor) = tr.span("core.ese.context", |_| {
        let ctx = EvalContext::new_with(instance, index, target, &opts.exec);
        let cursor = ctx.new_cursor();
        (ctx, cursor)
    });
    let hits_before = cursor.hit_count();
    let (mut iterations, mut evaluated, mut solves, mut stalls) = (0, 0, 0, 0);
    while cursor.hit_count() < tau && iterations < opts.max_iterations {
        iterations += 1;
        let rem = bounds.remaining(cursor.applied());
        let solved: Vec<(ImprovementStrategy, f64)> = tr.span("core.search.solve", |_| {
            let mut out = Vec::new();
            for (q, query) in instance.queries().iter().enumerate() {
                if cursor.is_hit(q) {
                    continue;
                }
                let Some(rhs) = ctx.required_rhs(&cursor, q) else {
                    continue;
                };
                solves += 1;
                out.extend(cost_fn.min_cost_to_satisfy(&query.weights, rhs, &rem));
            }
            out
        });
        evaluated += solved.len();
        let hits: Vec<usize> = tr.span("core.ese.eval", |_| {
            solved
                .iter()
                .map(|(s, _)| ctx.evaluate(&cursor, s))
                .collect()
        });
        // The first strictly best cost-per-hit ratio, as the search picks.
        let mut best: Option<(usize, f64)> = None;
        for (i, ((_, c), &h)) in solved.iter().zip(&hits).enumerate() {
            let ratio = if h == 0 { f64::INFINITY } else { c / h as f64 };
            if best.is_none_or(|(_, b)| ratio < b) {
                best = Some((i, ratio));
            }
        }
        let Some((best, _)) = best else {
            break;
        };
        if hits[best] > tau {
            // Overshoot: the cheapest candidate reaching τ, then stop.
            let (winner, _) = solved
                .iter()
                .zip(&hits)
                .filter(|(_, &h)| h >= tau)
                .map(|(candidate, _)| candidate)
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("the best candidate exceeds tau");
            tr.span("core.ese.apply", |_| ctx.apply(&mut cursor, winner));
            break;
        }
        let before = cursor.hit_count();
        tr.span("core.ese.apply", |_| {
            ctx.apply(&mut cursor, &solved[best].0)
        });
        if cursor.hit_count() <= before {
            stalls += 1;
            if stalls >= opts.max_stalls {
                break;
            }
        } else {
            stalls = 0;
        }
    }
    let strategy = cursor.applied().clone();
    let hits_after = cursor.hit_count();
    let report = IqReport {
        cost: cost_fn.cost(&strategy),
        hits_before,
        hits_after,
        iterations,
        candidates_evaluated: evaluated,
        achieved: hits_after >= tau,
        strategy,
    };
    (report, solves)
}

fn same_report(a: &IqReport, b: &IqReport) -> bool {
    let bits = |s: &ImprovementStrategy| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    bits(&a.strategy) == bits(&b.strategy)
        && a.cost.to_bits() == b.cost.to_bits()
        && (a.hits_before, a.hits_after, a.iterations)
            == (b.hits_before, b.hits_after, b.iterations)
        && a.candidates_evaluated == b.candidates_evaluated
        && a.achieved == b.achieved
}

/// One statement of the replayed stream.
struct Entry {
    sql: String,
    kind: Option<Kind>,
    class: Class,
}

/// The fixed stream: load, the set-up IMPROVE, then the rounds.
fn stream(wl: &mut Workload) -> Vec<Entry> {
    let mut out: Vec<Entry> = wl
        .load
        .iter()
        .map(|sql| Entry {
            sql: sql.clone(),
            kind: None,
            class: Class::Load,
        })
        .collect();
    out.push(Entry {
        sql: wl.mincost(),
        kind: Some(Kind::Improve),
        class: Class::Setup,
    });
    for _ in 0..wl.spec.trace_rounds {
        out.extend(wl.round().into_iter().map(|s: Stmt| Entry {
            sql: s.sql,
            kind: Some(s.kind),
            class: Class::Round(s.role),
        }));
    }
    out
}

fn is_write(e: &Entry) -> bool {
    e.kind.is_none_or(Kind::is_write)
}

/// `Engine::execute_sql` and, timed apart, rendering its answer:
/// `(execute ms, render ms, answer)`.
fn execute_timed(engine: &Engine, sql: &str) -> (f64, f64, String) {
    let started = Instant::now();
    let outcome = engine.execute_sql(sql);
    let exec_ms = started.elapsed().as_secs_f64() * 1e3;
    let started = Instant::now();
    let answer = match &outcome {
        Ok(o) => outcome_json(o),
        Err(e) => error_json(e),
    };
    (exec_ms, started.elapsed().as_secs_f64() * 1e3, answer)
}

/// A `(metric, value)` row of a `SHOW STATS` / `SHOW WAL` answer.
fn stat(engine: &Engine, statement: &str, name: &str) -> Result<f64, String> {
    match engine.execute_sql(statement) {
        Ok(Outcome::Rows(r)) => r
            .rows
            .iter()
            .find(|row| row[0] == Value::Text(name.into()))
            .and_then(|row| row[1].as_f64())
            .ok_or(format!("`{statement}` has no {name}")),
        other => Err(format!("`{statement}` answered {other:?}")),
    }
}

/// Storage-layer numbers from the durable replay.
struct StorageNumbers {
    fsyncs_per_write: f64,
    bytes_per_user_byte: f64,
    checkpoints: f64,
    checkpoint_ms: f64,
    recover_ms: f64,
}

fn storage_numbers(
    engine: Engine,
    dir: &Path,
    user_bytes: usize,
) -> Result<StorageNumbers, String> {
    let appends = stat(&engine, "SHOW STATS", "wal_appends")?;
    let fsyncs = stat(&engine, "SHOW STATS", "wal_fsyncs")?;
    let checkpoints = stat(&engine, "SHOW WAL", "checkpoints")?;
    let bytes = serve::dir_bytes(dir)? as f64;
    let mut checkpoint_ms = Vec::new();
    for _ in 0..3 {
        let started = Instant::now();
        engine
            .execute_sql("CHECKPOINT")
            .map_err(|e| format!("CHECKPOINT: {e}"))?;
        checkpoint_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let before = engine.dump_tables();
    drop(engine);
    let (reopened, took) = serve::durable_engine(dir)?;
    if reopened.dump_tables() != before {
        return Err("the reopened data dir differs from the engine that wrote it".into());
    }
    Ok(StorageNumbers {
        fsyncs_per_write: fsyncs / appends,
        bytes_per_user_byte: bytes / user_bytes as f64,
        checkpoints,
        checkpoint_ms: median(&checkpoint_ms).expect("three checkpoints"),
        recover_ms: took.as_secs_f64() * 1e3,
    })
}

/// Index build and one MINCOST IMPROVE on IN/UN tables of one size.
fn ladder_step(objects: usize, queries: usize, seed: u64, reps: usize) -> (f64, f64) {
    let instance = standard_instance(
        Distribution::Independent,
        QueryDistribution::Uniform,
        objects,
        queries,
        DIM,
        50,
        seed,
    );
    let opts = SearchOptions {
        exec: ExecPolicy::sequential(),
        ..SearchOptions::default()
    };
    let bounds = StrategyBounds::unbounded(DIM);
    let targets = eligible_targets(instance.objects());
    let (mut build_ms, mut improve_ms) = (Vec::new(), Vec::new());
    for rep in 0..reps {
        let started = Instant::now();
        let index = std::hint::black_box(QueryIndex::build_with(&instance, &opts.exec));
        build_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let target = targets[(seed as usize).wrapping_add(rep * 7919) % targets.len()];
        let started = Instant::now();
        std::hint::black_box(min_cost_iq(
            &instance,
            &index,
            target,
            TAU,
            &EuclideanCost,
            &bounds,
            &opts,
        ));
        improve_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    (
        median(&build_ms).expect("reps > 0"),
        median(&improve_ms).expect("reps > 0"),
    )
}

pub fn run(spec: Spec, seed: u64) -> Result<Report, String> {
    let tmp = TempDir::new(&format!("{}-trace", spec.name))?;
    let mut wl = Workload::new(spec, seed);
    let stream = stream(&mut wl);
    let in_rounds = |i: &usize| matches!(stream[*i].class, Class::Round(_));
    let rounds: Vec<usize> = (0..stream.len()).filter(in_rounds).collect();
    let mut attempted = 0u64;

    // Every statement runs four ways back to back, so that host load
    // falls on all four alike: over the wire; in process through an
    // engine configured like the workload; through one with the other
    // durability; and traced.
    let server = Server::start(serve::engine(&spec, &tmp.sub("wire"))?)?;
    let mut client = Client::connect(server.addr())?;
    let durable_dir = tmp.sub("durable");
    let memory = Engine::new(Arc::new(Metrics::new()), ExecPolicy::sequential());
    let (durable, _) = serve::durable_engine(&durable_dir)?;
    let (inproc, other) = if spec.durable {
        (&durable, &memory)
    } else {
        (&memory, &durable)
    };
    let mut tr = Tracer::new();
    let mut traced = Traced::new(if spec.durable {
        let config = StorageConfig {
            fsync: FsyncMode::Always,
            checkpoint_bytes: Some(serve::CHECKPOINT_BYTES),
        };
        let (storage, _) = Storage::open(&tmp.sub("traced"), config)
            .map_err(|e| format!("opening the traced WAL: {e}"))?;
        Some(storage)
    } else {
        None
    });
    let mut classes = Vec::new();
    let mut roots = Vec::with_capacity(stream.len());
    let mut client_ms = Vec::with_capacity(stream.len());
    let mut inproc_ms = Vec::with_capacity(stream.len());
    let mut commit_ms = Vec::new();
    let mut user_bytes = 0;
    for e in &stream {
        let started = Instant::now();
        let wire = client.request_ok(&e.sql)?;
        client_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let (exec_ms, render_ms, answer) = execute_timed(inproc, &e.sql);
        let (other_ms, _, other_answer) = execute_timed(other, &e.sql);
        tr.request = classes.len();
        classes.push(e.class);
        roots.push(tr.spans.len());
        let traced_answer = traced.execute(&mut tr, &e.sql)?;
        if [&answer, &other_answer, &traced_answer]
            .iter()
            .any(|a| **a != wire)
        {
            return Err(format!(
                "`{}` answers differ: wire {wire}, in process {answer}, \
                 other durability {other_answer}, traced {traced_answer}",
                clip(&e.sql)
            ));
        }
        inproc_ms.push((exec_ms, render_ms));
        if is_write(e) {
            let (durable_ms, memory_ms) = if spec.durable {
                (exec_ms, other_ms)
            } else {
                (other_ms, exec_ms)
            };
            commit_ms.push(durable_ms - memory_ms);
            user_bytes += e.sql.len();
        }
        attempted += 4;
    }
    let hits = stat(server.engine(), "SHOW STATS", "cache_hits")?;
    let misses = stat(server.engine(), "SHOW STATS", "cache_misses")?;
    let cache_hit_ratio = hits / (hits + misses).max(1.0);
    drop(client);
    server.stop();
    drop(memory);
    let storage = storage_numbers(durable, &durable_dir, user_bytes)?;

    // Probes of the layers the stream never called.
    let mut probes: Vec<String> = (0..PROBES).map(|_| wl.select()).collect();
    probes.extend(wl.inserts(PROBES, Role::Side).into_iter().map(|s| s.sql));
    for sql in &probes {
        tr.request = classes.len();
        classes.push(Class::Probe);
        let answer = traced.execute(&mut tr, sql)?;
        if !protocol::is_ok(&answer) {
            return Err(format!("probe `{sql}` answered {answer}"));
        }
        attempted += 1;
    }
    let trace_path = Path::new(".bench_trace").join(format!("{}-seed{seed}.jsonl", spec.name));
    tr.write(&trace_path, &classes)?;

    // Lead-statement attribution: the share of the statements' time not
    // left as the root span's self time. Then the tracing overhead.
    let self_ms = tr.self_ms();
    let lead_roots: Vec<usize> = rounds
        .iter()
        .filter(|&&i| stream[i].class == Class::Round(Role::Lead))
        .map(|&i| roots[i])
        .collect();
    let lead_ms: f64 = lead_roots.iter().map(|&r| tr.spans[r].ms()).sum();
    let unnamed_ms: f64 = lead_roots.iter().map(|&r| self_ms[r]).sum();
    let attributed = 1.0 - unnamed_ms / lead_ms;
    let traced_ms: f64 = rounds.iter().map(|&i| tr.spans[roots[i]].ms()).sum();
    let untraced_ms: f64 = rounds
        .iter()
        .map(|&i| inproc_ms[i].0 + inproc_ms[i].1)
        .sum();
    let overhead: Vec<f64> = rounds
        .iter()
        .map(|&i| client_ms[i] - inproc_ms[i].0)
        .collect();

    // Span durations per layer: set-up and rounds, else the probes.
    let layer = |name: &str, scale: f64| -> f64 {
        let pick = |probe: bool| -> Vec<f64> {
            tr.spans
                .iter()
                .filter(|s| s.name == name)
                .filter(|s| match classes[s.request] {
                    Class::Load => false,
                    Class::Probe => probe,
                    _ => !probe,
                })
                .map(|s| s.ms() * scale)
                .collect()
        };
        let seen = pick(false);
        let events = if seen.is_empty() { pick(true) } else { seen };
        median(&events).unwrap_or(0.0)
    };
    let per_improve = |f: &dyn Fn(&ImproveWork) -> f64| -> f64 {
        let v: Vec<f64> = traced
            .improves
            .iter()
            .filter(|w| classes[w.request] != Class::Probe)
            .map(f)
            .collect();
        median(&v).unwrap_or(0.0)
    };
    let improve_span_ms = |w: &ImproveWork, name: &str| -> f64 {
        tr.spans
            .iter()
            .filter(|s| s.request == w.request && s.name == name)
            .map(Span::ms)
            .sum()
    };
    let (subdomains, index_bytes) = traced.index_shape.ok_or("no index was built")?;

    // Scale ladder: the ROADMAP probe's S and L sizes.
    let (s_build, s_improve) = ladder_step(2_000, 200, seed, 5);
    let (l_build, l_improve) = ladder_step(50_000, 5_000, seed, 1);

    let m = |name, value, unit| Metric {
        name,
        value,
        unit,
        note: PREDICTIONS
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("", |(_, p)| p),
    };
    let metrics = vec![
        m(
            "server.overhead_ms",
            median(&overhead).expect("rounds > 0"),
            "ms",
        ),
        m("server.cache_hit_ratio", cache_hit_ratio, "ratio"),
        m("dbms.parse_us", layer("dbms.parse", 1e3), "us"),
        m("dbms.select_ms", layer("dbms.select", 1.0), "ms"),
        m("dbms.write_ms", layer("dbms.write", 1.0), "ms"),
        m("dbms.extract_ms", layer("dbms.extract", 1.0), "ms"),
        m("dbms.render_us", layer("dbms.render", 1e3), "us"),
        m(
            "core.subdomain.build_ms",
            layer("core.subdomain.build", 1.0),
            "ms",
        ),
        m("core.subdomain.count", subdomains as f64, "count"),
        m("core.subdomain.bytes", index_bytes as f64, "B"),
        m("core.ese.context_ms", layer("core.ese.context", 1.0), "ms"),
        m(
            "core.search.solve_ms",
            per_improve(&|w| improve_span_ms(w, "core.search.solve")),
            "ms",
        ),
        m(
            "core.search.candidates",
            per_improve(&|w| w.solves as f64),
            "count",
        ),
        m(
            "core.ese.eval_ms",
            per_improve(&|w| improve_span_ms(w, "core.ese.eval")),
            "ms",
        ),
        m(
            "core.search.iterations",
            per_improve(&|w| w.report.iterations as f64),
            "count",
        ),
        m(
            "core.search.evaluated",
            per_improve(&|w| w.report.candidates_evaluated as f64),
            "count",
        ),
        m(
            "core.update.add_query_us",
            layer("core.update.add_query", 1e3),
            "us",
        ),
        m(
            "core.update.fast_path_ratio",
            traced.fast_assignments as f64 / traced.add_queries.max(1) as f64,
            "ratio",
        ),
        m(
            "storage.commit_ms",
            median(&commit_ms).ok_or("the stream has no writes")?,
            "ms",
        ),
        m(
            "storage.fsyncs_per_write",
            storage.fsyncs_per_write,
            "ratio",
        ),
        m(
            "storage.bytes_per_user_byte",
            storage.bytes_per_user_byte,
            "ratio",
        ),
        m("storage.checkpoint_ms", storage.checkpoint_ms, "ms"),
        m("storage.checkpoints", storage.checkpoints, "count"),
        m("storage.recover_ms", storage.recover_ms, "ms"),
        m(
            "trace.overhead_frac",
            (traced_ms - untraced_ms) / untraced_ms,
            "ratio",
        ),
        m("trace.attributed_frac", attributed, "ratio"),
        m("ladder.s.build_ms", s_build, "ms"),
        m("ladder.s.improve_ms", s_improve, "ms"),
        m("ladder.l.build_ms", l_build, "ms"),
        m("ladder.l.improve_ms", l_improve, "ms"),
    ];
    let mut meta = crate::run_meta(&spec, seed);
    meta.extend([
        ("trace_rounds", spec.trace_rounds.to_string()),
        ("spans", tr.spans.len().to_string()),
        ("span_file", trace_path.display().to_string()),
        (
            "ladder",
            "S 2000x200, L 50000x5000, IN/UN, d=3, k in [1,50]".into(),
        ),
    ]);
    let correct = attributed >= MIN_ATTRIBUTED;
    if !correct {
        eprintln!(
            "only {:.1}% of lead-statement time is in named spans (need {:.0}%)",
            attributed * 100.0,
            MIN_ATTRIBUTED * 100.0
        );
    }
    Ok(Report {
        correct,
        attempted,
        failed: 0,
        metrics,
        meta,
    })
}
