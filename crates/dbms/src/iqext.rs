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
use iq_core::{
    max_hit_iq, min_cost_iq, CostFunction, EuclideanCost, Instance, L1Cost, QueryIndex,
    SearchOptions, StrategyBounds, TopKQuery,
};
use iq_geometry::Vector;

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

    // Weight columns w1..wd and the k column.
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

    let mut object_rows = Vec::with_capacity(objects.len());
    for row in objects.rows() {
        let mut o = Vec::with_capacity(d);
        for &c in &attrs {
            o.push(numeric(&row[c], "attribute")?);
        }
        object_rows.push(o);
    }
    let mut query_rows = Vec::with_capacity(queries.len());
    for row in queries.rows() {
        let mut w = Vec::with_capacity(d);
        for &c in &wcols {
            w.push(numeric(&row[c], "weight")?);
        }
        let k = match &row[kcol] {
            Value::Int(k) if *k >= 1 => *k as usize,
            other => {
                return Err(DbError::Improve(format!(
                    "k must be a positive INT, got {other}"
                )))
            }
        };
        query_rows.push(TopKQuery::new(w, k));
    }
    let instance =
        Instance::new(object_rows, query_rows).map_err(|e| DbError::Improve(e.to_string()))?;
    Ok((instance, attrs))
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

/// A prebuilt IQ evaluation context for one `(objects, queries)` table
/// pair: the extracted instance plus its subdomain index.
///
/// Per-target write-back deltas: `(object row, per-attribute delta)`
/// pairs, the second half of every IMPROVE search result.
pub type TargetDeltas = Vec<(usize, Vec<f64>)>;

/// Building the index dominates IMPROVE latency, so the serving layer
/// caches a `Prepared` per table pair and hands it to [`improve_with`];
/// any mutation of either table must drop (or incrementally update) the
/// cache — index staleness is the *caller's* responsibility, nothing here
/// re-checks the tables. Determinism note: a cached index and a freshly
/// built one yield byte-identical strategies, because the search depends
/// only on the instance's exact toplists/thresholds ("same subdomain ⇒
/// identical candidate list") — which is what makes caching safe for the
/// server's replay tests.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The extracted IQ instance.
    pub instance: Instance,
    /// Object-table column index of each instance attribute.
    pub attrs: Vec<usize>,
    /// The subdomain index over `instance`.
    pub index: QueryIndex,
}

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
}

/// Executes an IMPROVE statement against the object table in place (for
/// `APPLY`) and returns a result set: one row per target with the
/// per-attribute deltas, cost, and hit counts.
pub fn improve(
    objects: &mut Table,
    queries: &Table,
    stmt: &ImproveStmt,
) -> Result<QueryResult, DbError> {
    let (result, deltas) = improve_with(objects, queries, stmt, None, &SearchOptions::default())?;
    if stmt.apply {
        apply_deltas(objects, &deltas)?;
    }
    Ok(result)
}

/// Read-only IMPROVE (no `APPLY` write-back even if requested): the
/// concurrent-reader entry point. Returns the result set plus the deltas
/// the caller may later apply under a write lock.
pub fn improve_readonly(
    objects: &Table,
    queries: &Table,
    stmt: &ImproveStmt,
) -> Result<(QueryResult, TargetDeltas), DbError> {
    improve_with(objects, queries, stmt, None, &SearchOptions::default())
}

/// Writes per-target attribute deltas back into the object table —
/// `APPLY`'s mutation, split out so the serving layer can run the search
/// under a read lock and the write-back under the write lock.
pub fn apply_deltas(objects: &mut Table, deltas: &[(usize, Vec<f64>)]) -> Result<(), DbError> {
    let attrs = attribute_columns(objects);
    for (row, strategy) in deltas {
        for (pos, &col) in attrs.iter().enumerate() {
            let old = numeric(&objects.row(*row)[col], "attribute")?;
            objects.update_cell(*row, col, Value::Float(old + strategy[pos]))?;
        }
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
        let mut objs = object_table();
        let qt = query_table();
        // Object 1 (row 0) is the worst; improve it to hit 3 queries.
        let stmt = improve_stmt("IMPROVE objs USING prefs WHERE id = 1 MINCOST 3");
        let r = improve(&mut objs, &qt, &stmt).unwrap();
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
    fn apply_keeps_flat_mirrors_coherent_with_table() {
        let mut objs = object_table();
        let qt = query_table();
        let stmt = improve_stmt("IMPROVE objs USING prefs WHERE id = 1 MINCOST 2 APPLY");
        improve(&mut objs, &qt, &stmt).unwrap();
        // Rebuild an instance from the written-back table: the SoA mirrors
        // must agree bitwise with the nested rows, and scoring through
        // either layout must give identical results (the IMPROVE path
        // evaluated candidates through the flat kernels; the round-trip
        // through SQL `Value`s must not perturb a single bit).
        let (inst, _) = build_instance(&objs, &qt).unwrap();
        for i in 0..inst.num_objects() {
            assert_eq!(inst.objects_flat().row(i), inst.object(i), "object {i}");
        }
        for (qi, q) in inst.queries().iter().enumerate() {
            assert_eq!(
                inst.weights_flat().row(qi),
                q.weights.as_slice(),
                "query {qi}"
            );
            for i in 0..inst.num_objects() {
                let nested = iq_geometry::vector::dot(&q.weights, inst.object(i));
                let flat = inst.weights_flat().dot_row(qi, inst.object(i));
                assert_eq!(nested.to_bits(), flat.to_bits(), "score q{qi}/o{i}");
            }
        }
    }

    #[test]
    fn apply_writes_back() {
        let mut objs = object_table();
        let qt = query_table();
        let stmt = improve_stmt("IMPROVE objs USING prefs WHERE id = 1 MINCOST 2 APPLY");
        let before = objs.row(0)[1].clone();
        improve(&mut objs, &qt, &stmt).unwrap();
        assert_ne!(objs.row(0)[1], before, "APPLY did not change the row");
    }

    #[test]
    fn freeze_keeps_attribute_fixed() {
        let mut objs = object_table();
        let qt = query_table();
        let stmt = improve_stmt("IMPROVE objs USING prefs WHERE id = 1 MINCOST 2 FREEZE weight");
        let r = improve(&mut objs, &qt, &stmt).unwrap();
        let dw = match r.rows[0][2] {
            Value::Float(v) => v,
            ref other => panic!("{other:?}"),
        };
        assert!(dw.abs() < 1e-9, "frozen attribute moved: {dw}");
    }

    #[test]
    fn multi_target_combinatorial() {
        let mut objs = object_table();
        let qt = query_table();
        let stmt = improve_stmt("IMPROVE objs USING prefs WHERE id >= 4 MAXHIT 0.5");
        let r = improve(&mut objs, &qt, &stmt).unwrap();
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
        let mut objs = object_table();
        let qt = query_table();
        let stmt = improve_stmt("IMPROVE objs USING prefs WHERE id = 99 MINCOST 1");
        assert!(matches!(
            improve(&mut objs, &qt, &stmt),
            Err(DbError::Improve(_))
        ));
        let stmt = improve_stmt("IMPROVE objs USING prefs MINCOST 1 FREEZE label");
        assert!(improve(&mut objs, &qt, &stmt).is_err());
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
            improve(&mut objs, &bad, &stmt),
            Err(DbError::Improve(_))
        ));
    }
}
