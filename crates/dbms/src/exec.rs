//! Query execution: predicate evaluation and SELECT.

use crate::parser::{Aggregate, CompareOp, Predicate, SelectItem, SelectStmt};
use crate::table::{Schema, Table};
use crate::value::Value;
use crate::DbError;
use std::cmp::Ordering;

/// A materialized result set.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Vec<Value>>,
}

impl QueryResult {
    /// Renders the result as an aligned ASCII table (for examples/REPL).
    /// Thin alias for [`crate::render::result_text`], the shared encoder.
    pub fn to_ascii(&self) -> String {
        crate::render::result_text(self)
    }
}

/// Evaluates a predicate against one row. Comparisons involving NULL are
/// false (SQL three-valued logic collapsed to two, documented behaviour).
pub fn eval_predicate(pred: &Predicate, table: &Table, row: &[Value]) -> Result<bool, DbError> {
    Bound::new(pred, &table.schema).eval(row)
}

/// Row indices matching a predicate (all rows when `None`), ascending.
///
/// A predicate that is a `column = literal` comparison, or an AND chain
/// holding one, over columns that all resolve, reads its candidate rows
/// from that column's equality index ([`Table::eq_candidates`]) and
/// re-checks each; any other predicate scans every row. Both paths answer
/// alike: rows, order and errors.
pub fn matching_rows(table: &Table, pred: Option<&Predicate>) -> Result<Vec<usize>, DbError> {
    let Some(pred) = pred else {
        return Ok((0..table.len()).collect());
    };
    let bound = Bound::new(pred, &table.schema);
    let mut out = Vec::new();
    let mut keep = |r: usize| -> Result<(), DbError> {
        if bound.eval(table.row(r))? {
            out.push(r);
        }
        Ok(())
    };
    // Resolved columns make every evaluation infallible, so skipping the
    // rows the index rules out cannot skip an error.
    match bound.eq_conjunct().filter(|_| bound.resolved()) {
        Some((col, value)) => table.eq_candidates(col, value).try_for_each(&mut keep)?,
        None => (0..table.len()).try_for_each(&mut keep)?,
    }
    Ok(out)
}

/// A predicate with its columns looked up once per statement. A column the
/// schema lacks is `None` and errors only when an evaluation reaches it, as
/// a per-row lookup would: on an empty table, or behind a short-circuited
/// AND/OR, it never does.
enum Bound<'p> {
    Compare {
        col: Option<usize>,
        name: &'p str,
        op: CompareOp,
        value: &'p Value,
    },
    And(Box<Bound<'p>>, Box<Bound<'p>>),
    Or(Box<Bound<'p>>, Box<Bound<'p>>),
    Not(Box<Bound<'p>>),
}

impl<'p> Bound<'p> {
    fn new(pred: &'p Predicate, schema: &Schema) -> Self {
        let bind = |p: &'p Predicate| Box::new(Bound::new(p, schema));
        match pred {
            Predicate::Compare { column, op, value } => Bound::Compare {
                col: schema.index_of(column),
                name: column,
                op: *op,
                value,
            },
            Predicate::And(a, b) => Bound::And(bind(a), bind(b)),
            Predicate::Or(a, b) => Bound::Or(bind(a), bind(b)),
            Predicate::Not(a) => Bound::Not(bind(a)),
        }
    }

    fn eval(&self, row: &[Value]) -> Result<bool, DbError> {
        match self {
            Bound::Compare {
                col,
                name,
                op,
                value,
            } => {
                let idx = col.ok_or_else(|| DbError::UnknownColumn(name.to_string()))?;
                let Some(ord) = row[idx].compare(value) else {
                    return Ok(false);
                };
                Ok(match op {
                    CompareOp::Eq => ord == Ordering::Equal,
                    CompareOp::Ne => ord != Ordering::Equal,
                    CompareOp::Lt => ord == Ordering::Less,
                    CompareOp::Le => ord != Ordering::Greater,
                    CompareOp::Gt => ord == Ordering::Greater,
                    CompareOp::Ge => ord != Ordering::Less,
                })
            }
            Bound::And(a, b) => Ok(a.eval(row)? && b.eval(row)?),
            Bound::Or(a, b) => Ok(a.eval(row)? || b.eval(row)?),
            Bound::Not(a) => Ok(!a.eval(row)?),
        }
    }

    /// True when every column resolves.
    fn resolved(&self) -> bool {
        match self {
            Bound::Compare { col, .. } => col.is_some(),
            Bound::And(a, b) | Bound::Or(a, b) => a.resolved() && b.resolved(),
            Bound::Not(a) => a.resolved(),
        }
    }

    /// The first `column = literal` comparison reached through ANDs alone:
    /// every row the predicate accepts satisfies it.
    fn eq_conjunct(&self) -> Option<(usize, &'p Value)> {
        match self {
            Bound::Compare {
                col: Some(col),
                op: CompareOp::Eq,
                value,
                ..
            } => Some((*col, *value)),
            Bound::And(a, b) => a.eq_conjunct().or_else(|| b.eq_conjunct()),
            _ => None,
        }
    }
}

/// Executes a SELECT against a table.
pub fn select(table: &Table, stmt: &SelectStmt) -> Result<QueryResult, DbError> {
    // Aggregate projections collapse to one row; mixing with plain columns
    // is rejected (no GROUP BY in this engine).
    let has_agg = stmt
        .columns
        .iter()
        .any(|c| matches!(c, SelectItem::Agg(_, _)));
    if has_agg {
        if stmt
            .columns
            .iter()
            .any(|c| matches!(c, SelectItem::Column(_)))
        {
            return Err(DbError::Parse(
                "cannot mix aggregates and plain columns (no GROUP BY)".into(),
            ));
        }
        if stmt.order_by.is_some() {
            return Err(DbError::Parse(
                "ORDER BY is meaningless with aggregates".into(),
            ));
        }
        let rows = matching_rows(table, stmt.predicate.as_ref())?;
        let mut columns = Vec::new();
        let mut out = Vec::new();
        for item in &stmt.columns {
            let SelectItem::Agg(agg, arg) = item else {
                unreachable!()
            };
            let (label, value) = eval_aggregate(table, &rows, *agg, arg.as_deref())?;
            columns.push(label);
            out.push(value);
        }
        return Ok(QueryResult {
            columns,
            rows: vec![out],
        });
    }

    // Resolve projection.
    let proj: Vec<usize> = if stmt.columns.is_empty() {
        (0..table.schema.len()).collect()
    } else {
        stmt.columns
            .iter()
            .map(|c| {
                let SelectItem::Column(name) = c else {
                    unreachable!()
                };
                table
                    .schema
                    .index_of(name)
                    .ok_or_else(|| DbError::UnknownColumn(name.clone()))
            })
            .collect::<Result<_, _>>()?
    };

    let mut rows = matching_rows(table, stmt.predicate.as_ref())?;

    if let Some((col, asc)) = &stmt.order_by {
        let idx = table
            .schema
            .index_of(col)
            .ok_or_else(|| DbError::UnknownColumn(col.clone()))?;
        rows.sort_by(|&a, &b| {
            let ord = table.row(a)[idx]
                .compare(&table.row(b)[idx])
                .unwrap_or(Ordering::Equal);
            if *asc {
                ord
            } else {
                ord.reverse()
            }
        });
    }
    if let Some(limit) = stmt.limit {
        rows.truncate(limit);
    }

    let columns = proj
        .iter()
        .map(|&i| table.schema.columns()[i].name.clone())
        .collect();
    let out_rows = rows
        .into_iter()
        .map(|r| proj.iter().map(|&c| table.row(r)[c].clone()).collect())
        .collect();
    Ok(QueryResult {
        columns,
        rows: out_rows,
    })
}

/// Evaluates one aggregate over the selected rows. NULLs are skipped for
/// column aggregates (SQL semantics); empty inputs yield NULL (except
/// COUNT, which yields 0).
fn eval_aggregate(
    table: &Table,
    rows: &[usize],
    agg: Aggregate,
    arg: Option<&str>,
) -> Result<(String, Value), DbError> {
    let col = match arg {
        None => None,
        Some(name) => Some(
            table
                .schema
                .index_of(name)
                .ok_or_else(|| DbError::UnknownColumn(name.to_string()))?,
        ),
    };
    let label = match arg {
        None => format!("{}(*)", agg.name()),
        Some(name) => format!("{}({name})", agg.name()),
    };
    let non_null = |c: usize| {
        rows.iter()
            .map(move |&r| &table.row(r)[c])
            .filter(|v| !matches!(v, Value::Null))
    };
    let value = match (agg, col) {
        (Aggregate::Count, None) => Value::Int(rows.len() as i64),
        (Aggregate::Count, Some(c)) => Value::Int(non_null(c).count() as i64),
        (agg, Some(c)) => {
            let vals: Vec<&Value> = non_null(c).collect();
            if vals.is_empty() {
                Value::Null
            } else {
                match agg {
                    Aggregate::Sum | Aggregate::Avg => {
                        let mut total = 0.0;
                        for v in &vals {
                            total += v.as_f64().ok_or_else(|| {
                                DbError::Parse(format!("{}: column is not numeric", agg.name()))
                            })?;
                        }
                        if agg == Aggregate::Avg {
                            Value::Float(total / vals.len() as f64)
                        } else {
                            Value::Float(total)
                        }
                    }
                    Aggregate::Min | Aggregate::Max => {
                        let mut best = vals[0].clone();
                        for v in &vals[1..] {
                            let ord = v.compare(&best).ok_or_else(|| {
                                DbError::Parse(format!("{}: incomparable values", agg.name()))
                            })?;
                            let take = if agg == Aggregate::Min {
                                ord == Ordering::Less
                            } else {
                                ord == Ordering::Greater
                            };
                            if take {
                                best = (*v).clone();
                            }
                        }
                        best
                    }
                    Aggregate::Count => unreachable!(),
                }
            }
        }
        (_, None) => unreachable!("only COUNT accepts *"),
    };
    Ok((label, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::table::{Column, Schema};
    use crate::value::ColumnType;

    fn cams() -> Table {
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
                name: "name".into(),
                ty: ColumnType::Text,
            },
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for (id, price, name) in [(1, 250.0, "a"), (2, 340.0, "b"), (3, 199.0, "c")] {
            t.insert(vec![
                Value::Int(id),
                Value::Float(price),
                Value::Text(name.into()),
            ])
            .unwrap();
        }
        t
    }

    fn run(table: &Table, sql: &str) -> QueryResult {
        match parse(sql).unwrap() {
            crate::parser::Statement::Select(s) => select(table, &s).unwrap(),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn select_star_all_rows() {
        let r = run(&cams(), "SELECT * FROM cams");
        assert_eq!(r.columns, vec!["id", "price", "name"]);
        assert_eq!(r.rows.len(), 3);
    }

    #[test]
    fn where_and_projection() {
        let r = run(&cams(), "SELECT name FROM cams WHERE price < 300");
        assert_eq!(r.columns, vec!["name"]);
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn order_and_limit() {
        let r = run(&cams(), "SELECT id FROM cams ORDER BY price DESC LIMIT 2");
        assert_eq!(r.rows, vec![vec![Value::Int(2)], vec![Value::Int(1)]]);
        let r = run(&cams(), "SELECT id FROM cams ORDER BY price ASC LIMIT 1");
        assert_eq!(r.rows, vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn complex_predicate() {
        let r = run(
            &cams(),
            "SELECT id FROM cams WHERE (price >= 200 AND price <= 300) OR name = 'c'",
        );
        let ids: Vec<&Value> = r.rows.iter().map(|row| &row[0]).collect();
        assert_eq!(ids, vec![&Value::Int(1), &Value::Int(3)]);
    }

    #[test]
    fn not_and_ne() {
        let r = run(
            &cams(),
            "SELECT id FROM cams WHERE NOT id = 2 AND name <> 'c'",
        );
        assert_eq!(r.rows, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn unknown_column_errors() {
        let t = cams();
        match parse("SELECT nope FROM cams").unwrap() {
            crate::parser::Statement::Select(s) => {
                assert!(matches!(select(&t, &s), Err(DbError::UnknownColumn(_))));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn null_comparisons_false() {
        let schema = Schema::new(vec![Column {
            name: "x".into(),
            ty: ColumnType::Int,
        }])
        .unwrap();
        let mut t = Table::new(schema);
        t.insert(vec![Value::Null]).unwrap();
        t.insert(vec![Value::Int(1)]).unwrap();
        match parse("SELECT * FROM t WHERE x = 1").unwrap() {
            crate::parser::Statement::Select(s) => {
                let r = select(&t, &s).unwrap();
                assert_eq!(r.rows.len(), 1);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn aggregates_over_rows() {
        let t = cams();
        let r = run(
            &t,
            "SELECT COUNT(*), AVG(price), MIN(price), MAX(price), SUM(id) FROM cams",
        );
        assert_eq!(r.columns[0], "COUNT(*)");
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(3));
        assert!((r.rows[0][1].as_f64().unwrap() - (250.0 + 340.0 + 199.0) / 3.0).abs() < 1e-9);
        assert_eq!(r.rows[0][2], Value::Float(199.0));
        assert_eq!(r.rows[0][3], Value::Float(340.0));
        assert_eq!(r.rows[0][4].as_f64().unwrap(), 6.0);
    }

    #[test]
    fn aggregates_respect_where_and_nulls() {
        let schema = Schema::new(vec![Column {
            name: "x".into(),
            ty: ColumnType::Int,
        }])
        .unwrap();
        let mut t = Table::new(schema);
        t.insert(vec![Value::Int(5)]).unwrap();
        t.insert(vec![Value::Null]).unwrap();
        t.insert(vec![Value::Int(15)]).unwrap();
        let r = run(&t, "SELECT COUNT(*), COUNT(x), AVG(x) FROM t WHERE x > 0");
        // NULL fails the predicate → 2 rows; COUNT(x) counts non-NULLs.
        assert_eq!(r.rows[0][0], Value::Int(2));
        assert_eq!(r.rows[0][1], Value::Int(2));
        assert_eq!(r.rows[0][2], Value::Float(10.0));
        // Aggregates over an empty selection.
        let r = run(&t, "SELECT COUNT(*), MIN(x) FROM t WHERE x > 100");
        assert_eq!(r.rows[0][0], Value::Int(0));
        assert_eq!(r.rows[0][1], Value::Null);
    }

    #[test]
    fn aggregate_errors() {
        let t = cams();
        match parse("SELECT id, COUNT(*) FROM cams").unwrap() {
            crate::parser::Statement::Select(s) => {
                assert!(select(&t, &s).is_err(), "mixing must fail");
            }
            _ => unreachable!(),
        }
        match parse("SELECT AVG(name) FROM cams").unwrap() {
            crate::parser::Statement::Select(s) => {
                assert!(select(&t, &s).is_err(), "AVG over TEXT must fail");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn ascii_rendering() {
        let r = run(&cams(), "SELECT id, price FROM cams LIMIT 1");
        let text = r.to_ascii();
        assert!(text.contains("id"));
        assert!(text.contains("250.0000"));
        assert!(text.lines().count() >= 3);
    }
}
