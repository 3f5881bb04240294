//! The `IMPROVE` statement: the bridge between the SQL engine and the
//! improvement-query machinery — the paper's "analytic tool integrated
//! with the DBMS" (§6.1).
//!
//! Conventions:
//!
//! * The object table's **numeric** columns are the improvable attributes,
//!   except a column named `id` (any case), which is treated as a key.
//! * The query table must have one weight column per attribute, named
//!   `w1, w2, …` in attribute order, plus an INT column `k`.
//! * One matching target row runs a single-target IQ (Algorithms 3/4);
//!   several run the combinatorial §5.1 search with a shared cost kind.
//! * `APPLY` writes the improved attribute values back into the table.

use crate::exec::{matching_rows, QueryResult};
use crate::parser::{CostKind, ImproveGoal, ImproveStmt};
use crate::table::Table;
use crate::value::{ColumnType, Value};
use crate::DbError;
use iq_core::multi::{multi_max_hit_iq, multi_min_cost_iq, TargetSpec};
use iq_core::update::{self, UpdateStats};
use iq_core::{
    max_hit_iq, min_cost_iq, CostFunction, EuclideanCost, Instance, L1Cost, QueryIndex,
    SearchOptions, StrategyBounds, TopKQuery,
};
use iq_geometry::{FlatMatrix, Vector};

/// The improvable attribute columns of an object table.
pub fn attribute_columns(table: &Table) -> Vec<usize> {
    table
        .schema
        .numeric_columns()
        .into_iter()
        .filter(|&i| !table.schema.columns()[i].name.eq_ignore_ascii_case("id"))
        .collect()
}

fn numeric(v: &Value, what: &str) -> Result<f64, DbError> {
    v.as_f64()
        .ok_or_else(|| DbError::Improve(format!("{what} must be numeric, got {v}")))
}

/// Builds the IQ instance from the object and query tables. Returns the
/// instance plus the attribute column indices.
pub fn build_instance(objects: &Table, queries: &Table) -> Result<(Instance, Vec<usize>), DbError> {
    let attrs = attribute_columns(objects);
    if attrs.is_empty() {
        return Err(DbError::Improve(
            "object table has no numeric attribute columns".into(),
        ));
    }
    let d = attrs.len();

    let (wcols, kcol) = query_columns(queries, d)?;
    let mut cells = Vec::with_capacity(d);
    let mut object_rows = FlatMatrix::with_capacity(d, objects.len());
    for row in objects.rows() {
        numeric_cells(row, &attrs, "attribute", &mut cells)?;
        object_rows.push_row(&cells);
    }
    let mut weights = FlatMatrix::with_capacity(d, queries.len());
    let mut ks = Vec::with_capacity(queries.len());
    for row in queries.rows() {
        ks.push(query_row(row, &wcols, kcol, &mut cells)?);
        weights.push_row(&cells);
    }
    let instance = Instance::from_rows(object_rows, weights, ks)
        .map_err(|e| DbError::Improve(e.to_string()))?;
    Ok((instance, attrs))
}

/// `row`'s cells in `cols` as numbers, into `out`.
fn numeric_cells(
    row: &[Value],
    cols: &[usize],
    what: &str,
    out: &mut Vec<f64>,
) -> Result<(), DbError> {
    out.clear();
    for &c in cols {
        out.push(numeric(&row[c], what)?);
    }
    Ok(())
}

/// The weight columns `w1..wd` and the INT column `k` of a query table.
fn query_columns(queries: &Table, d: usize) -> Result<(Vec<usize>, usize), DbError> {
    let mut wcols = Vec::with_capacity(d);
    for j in 0..d {
        let name = format!("w{}", j + 1);
        let idx = queries.schema.index_of(&name).ok_or_else(|| {
            DbError::Improve(format!(
                "query table missing weight column `{name}` ({d} attributes require w1..w{d})"
            ))
        })?;
        wcols.push(idx);
    }
    let kcol = queries
        .schema
        .index_of("k")
        .ok_or_else(|| DbError::Improve("query table missing column `k`".into()))?;
    if queries.schema.columns()[kcol].ty != ColumnType::Int {
        return Err(DbError::Improve("column `k` must be INT".into()));
    }
    Ok((wcols, kcol))
}

/// One query-table row: its weights into `weights`, and its `k`.
fn query_row(
    row: &[Value],
    wcols: &[usize],
    kcol: usize,
    weights: &mut Vec<f64>,
) -> Result<usize, DbError> {
    numeric_cells(row, wcols, "weight", weights)?;
    match &row[kcol] {
        Value::Int(k) if *k >= 1 => Ok(*k as usize),
        other => Err(DbError::Improve(format!(
            "k must be a positive INT, got {other}"
        ))),
    }
}

/// Whether `row`'s cells in `cols` hold exactly `values`, bit for bit.
fn same_bits(row: &[Value], cols: &[usize], values: &[f64]) -> bool {
    cols.iter()
        .zip(values)
        .all(|(&c, v)| row[c].as_f64().is_some_and(|x| x.to_bits() == v.to_bits()))
}

/// `row`'s cells in `cols` as finite numbers, or the reason a fresh build
/// must judge the row instead.
fn finite_cells(row: &[Value], cols: &[usize]) -> Result<Vec<f64>, NeedsRebuild> {
    cols.iter()
        .map(|&c| {
            row[c]
                .as_f64()
                .filter(|x| x.is_finite())
                .ok_or(NeedsRebuild("a cell is not a finite number"))
        })
        .collect()
}

fn bounds_for(
    stmt: &ImproveStmt,
    objects: &Table,
    attrs: &[usize],
) -> Result<StrategyBounds, DbError> {
    let mut bounds = StrategyBounds::unbounded(attrs.len());
    for col in &stmt.freeze {
        let idx = objects
            .schema
            .index_of(col)
            .ok_or_else(|| DbError::UnknownColumn(col.clone()))?;
        let pos = attrs.iter().position(|&a| a == idx).ok_or_else(|| {
            DbError::Improve(format!(
                "FREEZE column `{col}` is not an improvable attribute"
            ))
        })?;
        bounds = bounds.freeze(pos);
    }
    Ok(bounds)
}

/// Per-target write-back deltas: `(object row, per-attribute delta)`
/// pairs, the second half of every IMPROVE search result.
pub type TargetDeltas = Vec<(usize, Vec<f64>)>;

/// A prebuilt IQ evaluation context for one `(objects, queries)` table
/// pair: the extracted instance plus its subdomain index.
///
/// Building the index dominates IMPROVE latency, so the serving layer
/// caches a `Prepared` per table pair and hands it to [`improve_with`].
/// A `Prepared` records no version of the tables it came from: before
/// searching with one, the holder must know that no write reached either
/// table since it was built or last [reconciled](Prepared::reconcile).
/// Reconciling brings it level with the tables' current rows in place.
/// Determinism note: a reconciled or cached index and a freshly built one
/// yield byte-identical strategies, because the search depends only on
/// the instance's exact coordinates and toplists/thresholds ("same
/// subdomain ⇒ identical candidate list") — which is what makes caching
/// safe for the server's replay tests.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The extracted IQ instance.
    pub instance: Instance,
    /// Object-table column index of each instance attribute.
    pub attrs: Vec<usize>,
    /// The subdomain index over `instance`.
    pub index: QueryIndex,
}

/// What one [`Prepared::reconcile`] applied.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReconcileStats {
    /// Indexed object rows whose attributes changed, moved in place.
    pub moved_objects: usize,
    /// Object rows appended since the last reconcile.
    pub added_objects: usize,
    /// Query rows appended since the last reconcile.
    pub added_queries: usize,
    /// The index work those updates did.
    pub update: UpdateStats,
}

/// Why [`Prepared::reconcile`] gave up: the tables no longer line up row
/// for row with the indexed instance, or hold a row a build would reject.
/// Build afresh; the build reports any error in the tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeedsRebuild(pub &'static str);

impl Prepared {
    /// Extracts the instance and builds the subdomain index with the given
    /// execution policy.
    pub fn build(
        objects: &Table,
        queries: &Table,
        exec: &iq_core::ExecPolicy,
    ) -> Result<Prepared, DbError> {
        let (instance, attrs) = build_instance(objects, queries)?;
        let index = QueryIndex::build_with(&instance, exec);
        Ok(Prepared {
            instance,
            attrs,
            index,
        })
    }

    /// Brings the entry level with the tables' current rows, in place.
    /// Row `i` of a table is object (or query) `i`, so one pass compares
    /// every row with the instance by `f64::to_bits`:
    ///
    /// * a changed object row moves the object ([`update::move_object`]);
    /// * an appended object row adds it ([`update::add_object`]);
    /// * an appended query row adds it ([`update::add_query`]).
    ///
    /// Returns [`NeedsRebuild`] — before mutating anything — when either
    /// table has fewer rows than the instance, an indexed query row
    /// changed, the attribute or weight columns moved, a new query has
    /// `k ≥ K'`, or a cell is not a finite number. Afterwards the entry
    /// answers exactly as [`Prepared::build`] over the same tables would.
    /// The diff costs `O((|D| + |Q|)·d)`; the updates cost what they
    /// touch.
    pub fn reconcile(
        &mut self,
        objects: &Table,
        queries: &Table,
    ) -> Result<ReconcileStats, NeedsRebuild> {
        let inst = &self.instance;
        let (n, m) = (inst.num_objects(), inst.num_queries());
        if objects.len() < n || queries.len() < m {
            return Err(NeedsRebuild("a table lost rows"));
        }
        if attribute_columns(objects) != self.attrs {
            return Err(NeedsRebuild("the attribute columns moved"));
        }
        let (wcols, kcol) = query_columns(queries, inst.dim())
            .map_err(|_| NeedsRebuild("the weight columns moved"))?;

        let mut moved = Vec::new();
        let mut appended = Vec::new();
        for (i, row) in objects.rows().iter().enumerate() {
            if i < n && same_bits(row, &self.attrs, inst.object(i)) {
                continue;
            }
            let attrs = finite_cells(row, &self.attrs)?;
            if i < n {
                moved.push((i, attrs));
            } else {
                appended.push(attrs);
            }
        }
        let mut new_queries = Vec::new();
        for (q, row) in queries.rows().iter().enumerate() {
            if q < m {
                let same_k = matches!(row[kcol], Value::Int(k) if k == inst.k(q) as i64);
                if !same_k || !same_bits(row, &wcols, inst.weights(q)) {
                    return Err(NeedsRebuild("an indexed query row changed"));
                }
                continue;
            }
            let mut weights = finite_cells(row, &wcols)?;
            let k = query_row(row, &wcols, kcol, &mut weights)
                .map_err(|_| NeedsRebuild("a new query row is malformed"))?;
            if k >= self.index.kprime() {
                return Err(NeedsRebuild("a new query's k reaches K'"));
            }
            new_queries.push(TopKQuery::new(weights, k));
        }

        // Every row passed the checks the updates repeat, so they succeed.
        let mut stats = ReconcileStats::default();
        let rejected = |_| NeedsRebuild("an update rejected a row");
        let (instance, index) = (&mut self.instance, &mut self.index);
        for (oid, attrs) in moved {
            update::move_object(instance, index, oid, &attrs, &mut stats.update)
                .map_err(rejected)?;
            stats.moved_objects += 1;
        }
        for attrs in appended {
            update::add_object(instance, index, &attrs, &mut stats.update).map_err(rejected)?;
            stats.added_objects += 1;
        }
        for query in new_queries {
            update::add_query(instance, index, query, &mut stats.update).map_err(rejected)?;
            stats.added_queries += 1;
        }
        Ok(stats)
    }
}

/// Writes per-target attribute deltas back into the object table —
/// `APPLY`'s mutation, split out so the serving layer can run the search
/// under a read lock and the write-back under the write lock. Every new
/// cell is computed and checked before the first one is written, so a
/// failed write-back leaves the table as it was.
pub fn apply_deltas(objects: &mut Table, deltas: &[(usize, Vec<f64>)]) -> Result<(), DbError> {
    let attrs = attribute_columns(objects);
    let mut cells = Vec::with_capacity(deltas.len() * attrs.len());
    for (row, strategy) in deltas {
        for (pos, &col) in attrs.iter().enumerate() {
            let old = numeric(&objects.row(*row)[col], "attribute")?;
            let cell = Value::Float(old + strategy[pos]);
            objects.check_cell(col, &cell)?;
            cells.push((*row, col, cell));
        }
    }
    for (row, col, cell) in cells {
        objects.update_cell(row, col, cell)?;
    }
    Ok(())
}

/// The IMPROVE search core, shared by every entry point. Reads the tables
/// only; never mutates. `prepared` supplies a cached instance/index (the
/// server's fast path) — pass `None` to extract and build fresh. Returns
/// the result set and the `(target row, per-attribute delta)` pairs.
pub fn improve_with(
    objects: &Table,
    queries: &Table,
    stmt: &ImproveStmt,
    prepared: Option<&Prepared>,
    opts: &SearchOptions,
) -> Result<(QueryResult, TargetDeltas), DbError> {
    let built;
    let (instance, attrs, index) = match prepared {
        Some(p) => (&p.instance, &p.attrs, &p.index),
        None => {
            built = Prepared::build(objects, queries, &opts.exec)?;
            (&built.instance, &built.attrs, &built.index)
        }
    };
    let targets = matching_rows(objects, stmt.predicate.as_ref())?;
    if targets.is_empty() {
        return Err(DbError::Improve(
            "no rows match the target predicate".into(),
        ));
    }
    let bounds = bounds_for(stmt, objects, attrs)?;
    let cost_fn: &dyn CostFunction = match stmt.cost {
        CostKind::Euclidean => &EuclideanCost,
        CostKind::L1 => &L1Cost,
    };

    // Run the appropriate search.
    let (strategies, costs, hits_before, hits_after, achieved) = if targets.len() == 1 {
        let t = targets[0];
        let r = match stmt.goal {
            ImproveGoal::MinCost(tau) => {
                min_cost_iq(instance, index, t, tau, cost_fn, &bounds, opts)
            }
            ImproveGoal::MaxHit(beta) => {
                max_hit_iq(instance, index, t, beta, cost_fn, &bounds, opts)
            }
        };
        (
            vec![r.strategy],
            vec![r.cost],
            r.hits_before,
            r.hits_after,
            r.achieved,
        )
    } else {
        let specs: Vec<TargetSpec<'_>> = targets
            .iter()
            .map(|&t| TargetSpec {
                target: t,
                cost_fn,
                bounds: bounds.clone(),
            })
            .collect();
        let r = match stmt.goal {
            ImproveGoal::MinCost(tau) => multi_min_cost_iq(instance, index, &specs, tau, opts),
            ImproveGoal::MaxHit(beta) => multi_max_hit_iq(instance, index, &specs, beta, opts),
        };
        (
            r.strategies,
            r.costs,
            r.hits_before,
            r.hits_after,
            r.achieved,
        )
    };

    // Build the result set.
    let mut columns = vec!["row".to_string()];
    for &c in attrs {
        columns.push(format!("delta_{}", objects.schema.columns()[c].name));
    }
    columns.extend([
        "cost".to_string(),
        "hits_before".to_string(),
        "hits_after".to_string(),
        "achieved".to_string(),
    ]);
    let rows = targets
        .iter()
        .zip(strategies.iter().zip(&costs))
        .map(|(&row, (strategy, &cost))| {
            let mut out = vec![Value::Int(row as i64)];
            out.extend(strategy.iter().map(|&v| Value::Float(v)));
            out.push(Value::Float(cost));
            out.push(Value::Int(hits_before as i64));
            out.push(Value::Int(hits_after as i64));
            out.push(Value::Bool(achieved));
            out
        })
        .collect();
    let deltas = targets
        .into_iter()
        .zip(strategies.into_iter().map(Vector::into_inner))
        .collect();
    Ok((QueryResult { columns, rows }, deltas))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, Statement};
    use crate::table::{Column, Schema};

    fn object_table() -> Table {
        let schema = Schema::new(vec![
            Column {
                name: "id".into(),
                ty: ColumnType::Int,
            },
            Column {
                name: "price".into(),
                ty: ColumnType::Float,
            },
            Column {
                name: "weight".into(),
                ty: ColumnType::Float,
            },
            Column {
                name: "label".into(),
                ty: ColumnType::Text,
            },
        ])
        .unwrap();
        let mut t = Table::new(schema);
        let data = [
            (1, 0.9, 0.8),
            (2, 0.2, 0.3),
            (3, 0.5, 0.5),
            (4, 0.7, 0.2),
            (5, 0.3, 0.9),
        ];
        for (id, p, w) in data {
            t.insert(vec![
                Value::Int(id),
                Value::Float(p),
                Value::Float(w),
                Value::Text(format!("obj{id}")),
            ])
            .unwrap();
        }
        t
    }

    fn query_table() -> Table {
        let schema = Schema::new(vec![
            Column {
                name: "w1".into(),
                ty: ColumnType::Float,
            },
            Column {
                name: "w2".into(),
                ty: ColumnType::Float,
            },
            Column {
                name: "k".into(),
                ty: ColumnType::Int,
            },
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for (w1, w2, k) in [
            (0.9, 0.1, 1),
            (0.5, 0.5, 2),
            (0.1, 0.9, 1),
            (0.7, 0.3, 1),
            (0.3, 0.7, 2),
            (0.6, 0.4, 1),
        ] {
            t.insert(vec![Value::Float(w1), Value::Float(w2), Value::Int(k)])
                .unwrap();
        }
        t
    }

    /// An uncached search with default options.
    fn search(
        objs: &Table,
        qt: &Table,
        stmt: &ImproveStmt,
    ) -> Result<(QueryResult, TargetDeltas), DbError> {
        improve_with(objs, qt, stmt, None, &SearchOptions::default())
    }

    fn improve_stmt(sql: &str) -> ImproveStmt {
        match parse(sql).unwrap() {
            Statement::Improve(s) => s,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn attribute_columns_skip_id_and_text() {
        let t = object_table();
        assert_eq!(attribute_columns(&t), vec![1, 2]);
    }

    #[test]
    fn instance_built_correctly() {
        let (inst, attrs) = build_instance(&object_table(), &query_table()).unwrap();
        assert_eq!(attrs, vec![1, 2]);
        assert_eq!(inst.num_objects(), 5);
        assert_eq!(inst.num_queries(), 6);
        assert_eq!(inst.object(0), &[0.9, 0.8]);
    }

    #[test]
    fn mincost_improve_single_target() {
        let objs = object_table();
        let qt = query_table();
        // Object 1 (row 0) is the worst; improve it to hit 3 queries.
        let stmt = improve_stmt("IMPROVE objs USING prefs WHERE id = 1 MINCOST 3");
        let (r, _) = search(&objs, &qt, &stmt).unwrap();
        assert_eq!(r.rows.len(), 1);
        let hits_after = match r.rows[0][r.columns.iter().position(|c| c == "hits_after").unwrap()]
        {
            Value::Int(h) => h,
            ref other => panic!("{other:?}"),
        };
        assert!(hits_after >= 3, "hits_after = {hits_after}");
        // No APPLY: table untouched.
        assert_eq!(objs.row(0)[1], Value::Float(0.9));
    }

    #[test]
    fn apply_round_trips_rows_bit_for_bit() {
        let mut objs = object_table();
        let qt = query_table();
        let stmt = improve_stmt("IMPROVE objs USING prefs WHERE id = 1 MINCOST 2 APPLY");
        let (before, _) = build_instance(&objs, &qt).unwrap();
        let (_, deltas) = search(&objs, &qt, &stmt).unwrap();
        apply_deltas(&mut objs, &deltas).unwrap();
        // Rebuilt from the written-back table, the target's row is `p + s`
        // to the bit: the round-trip through SQL `Value`s perturbs nothing.
        let (after, _) = build_instance(&objs, &qt).unwrap();
        let (target, s) = &deltas[0];
        let want: Vec<u64> = before
            .object(*target)
            .iter()
            .zip(s)
            .map(|(p, d)| (p + d).to_bits())
            .collect();
        let got: Vec<u64> = after.object(*target).iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
        // The batched kernel scores the rows exactly as the scalar dot.
        for q in 0..after.num_queries() {
            for i in 0..after.num_objects() {
                let scalar = iq_geometry::vector::dot(after.weights(q), after.object(i));
                let flat = after.weights_flat().dot_row(q, after.object(i));
                assert_eq!(scalar.to_bits(), flat.to_bits(), "score q{q}/o{i}");
            }
        }
    }

    /// Asserts `p` equals a fresh [`Prepared::build`] over the tables:
    /// bit-equal instance, same per-query toplists.
    fn assert_matches_fresh_build(p: &Prepared, objs: &Table, qt: &Table) {
        let fresh = Prepared::build(objs, qt, &iq_core::ExecPolicy::sequential()).unwrap();
        assert_eq!(p.attrs, fresh.attrs);
        let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let bits = |inst: &Instance| {
            let objects: Vec<Vec<u64>> = inst.objects_flat().iter_rows().map(bits).collect();
            let queries: Vec<(Vec<u64>, usize)> = (0..inst.num_queries())
                .map(|q| (bits(inst.weights(q)), inst.k(q)))
                .collect();
            (objects, queries)
        };
        assert_eq!(bits(&p.instance), bits(&fresh.instance));
        p.index.check_invariants(&p.instance).unwrap();
        for q in 0..p.instance.num_queries() {
            assert_eq!(
                p.index.toplist_of(q),
                fresh.index.toplist_of(q),
                "query {q}"
            );
        }
    }

    #[test]
    fn reconcile_absorbs_moves_and_appends() {
        let mut objs = object_table();
        let mut qt = query_table();
        let exec = iq_core::ExecPolicy::sequential();
        let mut p = Prepared::build(&objs, &qt, &exec).unwrap();
        // Move the best object to the back, another to the front, append
        // an object and a query.
        objs.update_cell(1, 1, Value::Float(0.95)).unwrap();
        objs.update_cell(0, 2, Value::Int(0)).unwrap();
        objs.insert(vec![
            Value::Int(6),
            Value::Float(0.25),
            Value::Float(0.25),
            Value::Text("obj6".into()),
        ])
        .unwrap();
        qt.insert(vec![Value::Float(0.4), Value::Float(0.6), Value::Int(2)])
            .unwrap();
        let stats = p.reconcile(&objs, &qt).unwrap();
        assert_eq!(
            (
                stats.moved_objects,
                stats.added_objects,
                stats.added_queries
            ),
            (2, 1, 1)
        );
        assert_matches_fresh_build(&p, &objs, &qt);
        let stmt = improve_stmt("IMPROVE objs USING prefs WHERE id = 1 MINCOST 3");
        let opts = SearchOptions::default();
        assert_eq!(
            improve_with(&objs, &qt, &stmt, Some(&p), &opts).unwrap(),
            improve_with(&objs, &qt, &stmt, None, &opts).unwrap()
        );
        // Nothing written since: a second pass changes nothing.
        assert_eq!(p.reconcile(&objs, &qt).unwrap(), ReconcileStats::default());
    }

    #[test]
    fn reconcile_refuses_what_lost_row_identity() {
        let exec = iq_core::ExecPolicy::sequential();
        let needs_rebuild = |objs: &Table, qt: &Table| {
            let mut p = Prepared::build(&object_table(), &query_table(), &exec).unwrap();
            p.reconcile(objs, qt).unwrap_err()
        };
        let mut fewer = object_table();
        fewer.remove_rows(&[2]);
        assert_eq!(
            needs_rebuild(&fewer, &query_table()),
            NeedsRebuild("a table lost rows")
        );
        let mut changed_query = query_table();
        changed_query.update_cell(0, 2, Value::Int(2)).unwrap();
        assert_eq!(
            needs_rebuild(&object_table(), &changed_query),
            NeedsRebuild("an indexed query row changed")
        );
        let mut big_k = query_table();
        big_k
            .insert(vec![Value::Float(0.5), Value::Float(0.5), Value::Int(3)])
            .unwrap();
        assert_eq!(
            needs_rebuild(&object_table(), &big_k),
            NeedsRebuild("a new query's k reaches K'")
        );
        let empty = |t: Table| Table::new(t.schema);
        let mut p = Prepared::build(&empty(object_table()), &empty(query_table()), &exec).unwrap();
        assert_eq!(
            p.reconcile(&object_table(), &query_table()).unwrap_err(),
            NeedsRebuild("a new query's k reaches K'")
        );
        let mut null_cell = object_table();
        null_cell.update_cell(3, 1, Value::Null).unwrap();
        assert_eq!(
            needs_rebuild(&null_cell, &query_table()),
            NeedsRebuild("a cell is not a finite number")
        );
    }

    #[test]
    fn apply_writes_back() {
        let mut objs = object_table();
        let qt = query_table();
        let stmt = improve_stmt("IMPROVE objs USING prefs WHERE id = 1 MINCOST 2 APPLY");
        let before = objs.row(0)[1].clone();
        let (_, deltas) = search(&objs, &qt, &stmt).unwrap();
        apply_deltas(&mut objs, &deltas).unwrap();
        assert_ne!(objs.row(0)[1], before, "APPLY did not change the row");
    }

    #[test]
    fn freeze_keeps_attribute_fixed() {
        let objs = object_table();
        let qt = query_table();
        let stmt = improve_stmt("IMPROVE objs USING prefs WHERE id = 1 MINCOST 2 FREEZE weight");
        let (r, _) = search(&objs, &qt, &stmt).unwrap();
        let dw = match r.rows[0][2] {
            Value::Float(v) => v,
            ref other => panic!("{other:?}"),
        };
        assert!(dw.abs() < 1e-9, "frozen attribute moved: {dw}");
    }

    #[test]
    fn multi_target_combinatorial() {
        let objs = object_table();
        let qt = query_table();
        let stmt = improve_stmt("IMPROVE objs USING prefs WHERE id >= 4 MAXHIT 0.5");
        let (r, _) = search(&objs, &qt, &stmt).unwrap();
        assert_eq!(r.rows.len(), 2);
        // Total cost within budget.
        let cost_col = r.columns.iter().position(|c| c == "cost").unwrap();
        let total: f64 = r
            .rows
            .iter()
            .map(|row| row[cost_col].as_f64().unwrap())
            .sum();
        assert!(total <= 0.5 + 1e-6);
    }

    #[test]
    fn errors_surface() {
        let objs = object_table();
        let qt = query_table();
        let stmt = improve_stmt("IMPROVE objs USING prefs WHERE id = 99 MINCOST 1");
        assert!(matches!(
            search(&objs, &qt, &stmt),
            Err(DbError::Improve(_))
        ));
        let stmt = improve_stmt("IMPROVE objs USING prefs MINCOST 1 FREEZE label");
        assert!(search(&objs, &qt, &stmt).is_err());
        // Query table missing k.
        let bad = Table::new(
            Schema::new(vec![
                Column {
                    name: "w1".into(),
                    ty: ColumnType::Float,
                },
                Column {
                    name: "w2".into(),
                    ty: ColumnType::Float,
                },
            ])
            .unwrap(),
        );
        let stmt = improve_stmt("IMPROVE objs USING bad MINCOST 1");
        assert!(matches!(
            search(&objs, &bad, &stmt),
            Err(DbError::Improve(_))
        ));
    }
}
