//! Property tests for the SQL engine: generated data round-trips through
//! INSERT/SELECT/UPDATE/DELETE exactly like a model table, and predicate
//! evaluation matches a direct interpretation.

use iq_dbms::{Outcome, Session, Value};
use proptest::prelude::*;

fn small_int() -> impl Strategy<Value = i64> {
    -20i64..20
}

fn float_val() -> impl Strategy<Value = f64> {
    (-40i32..40).prop_map(|x| x as f64 * 0.5)
}

fn fresh_session(rows: &[(i64, f64)]) -> Session {
    let mut s = Session::new();
    s.execute("CREATE TABLE t (id INT, x FLOAT)").unwrap();
    for &(id, x) in rows {
        s.execute(&format!("INSERT INTO t VALUES ({id}, {x:.6})"))
            .unwrap();
    }
    s
}

fn select_ids(s: &mut Session, sql: &str) -> Vec<i64> {
    match s.execute(sql).unwrap() {
        Outcome::Rows(r) => r
            .rows
            .iter()
            .map(|row| match row[0] {
                Value::Int(i) => i,
                ref other => panic!("{other:?}"),
            })
            .collect(),
        other => panic!("{other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn where_comparisons_match_model(
        rows in prop::collection::vec((small_int(), float_val()), 0..30),
        bound in float_val(),
    ) {
        let mut s = fresh_session(&rows);
        let got = select_ids(&mut s, &format!("SELECT id FROM t WHERE x < {bound:.6}"));
        let want: Vec<i64> = rows
            .iter()
            .filter(|&&(_, x)| x < bound)
            .map(|&(id, _)| id)
            .collect();
        prop_assert_eq!(got, want);
        let got = select_ids(&mut s, &format!("SELECT id FROM t WHERE x >= {bound:.6}"));
        let want: Vec<i64> = rows
            .iter()
            .filter(|&&(_, x)| x >= bound)
            .map(|&(id, _)| id)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn order_by_sorts_and_limit_truncates(
        xs in prop::collection::vec(float_val(), 1..30),
        limit in 1usize..10,
    ) {
        // Unique ids (the row position) make the expected order exact: the
        // engine's sort is stable over insertion order.
        let rows: Vec<(i64, f64)> = xs.iter().enumerate().map(|(i, &x)| (i as i64, x)).collect();
        let mut s = fresh_session(&rows);
        let got = select_ids(&mut s, &format!("SELECT id FROM t ORDER BY x ASC LIMIT {limit}"));
        let mut want: Vec<(f64, i64)> = rows.iter().map(|&(id, x)| (x, id)).collect();
        want.sort_by(|a, b| a.0.total_cmp(&b.0));
        let want: Vec<i64> = want.into_iter().map(|(_, id)| id).take(limit).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn update_then_select_roundtrip(
        rows in prop::collection::vec((small_int(), float_val()), 1..20),
        pivot in small_int(),
        newval in float_val(),
    ) {
        let mut s = fresh_session(&rows);
        let updated = match s
            .execute(&format!("UPDATE t SET x = {newval:.6} WHERE id = {pivot}"))
            .unwrap()
        {
            Outcome::Updated(n) => n,
            other => panic!("{other:?}"),
        };
        let expect = rows.iter().filter(|&&(id, _)| id == pivot).count();
        prop_assert_eq!(updated, expect);
        // Every pivot row now carries newval.
        match s.execute(&format!("SELECT x FROM t WHERE id = {pivot}")).unwrap() {
            Outcome::Rows(r) => {
                for row in r.rows {
                    let x = row[0].as_f64().unwrap();
                    prop_assert!((x - newval).abs() < 1e-9);
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn delete_removes_exactly_the_matches(
        rows in prop::collection::vec((small_int(), float_val()), 0..25),
        bound in float_val(),
    ) {
        let mut s = fresh_session(&rows);
        let deleted = match s
            .execute(&format!("DELETE FROM t WHERE x > {bound:.6}"))
            .unwrap()
        {
            Outcome::Deleted(n) => n,
            other => panic!("{other:?}"),
        };
        let expect_deleted = rows.iter().filter(|&&(_, x)| x > bound).count();
        prop_assert_eq!(deleted, expect_deleted);
        let left = select_ids(&mut s, "SELECT id FROM t");
        let want: Vec<i64> = rows
            .iter()
            .filter(|&&(_, x)| x <= bound)
            .map(|&(id, _)| id)
            .collect();
        prop_assert_eq!(left, want);
    }
}

/// A splitmix64 stream: the equality-index property below draws its
/// tables, writes and predicates from one proptest seed.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())].clone()
    }
}

const TWO_53: i64 = 1 << 53;

/// Cells for column `col` of `(i INT, f FLOAT, t TEXT, b BOOL)`: few
/// distinct values so equalities hit, with NULL, `-0.0`/`0.0`, INTs past
/// 2^53 (equal as FLOATs), a NaN, and INTs bound for the FLOAT column.
fn cell(d: &mut Draw, col: usize) -> Value {
    match col {
        0 => d.pick(&[
            Value::Int(0),
            Value::Int(1),
            Value::Int(-1),
            Value::Int(TWO_53),
            Value::Int(TWO_53 + 1),
            Value::Null,
        ]),
        1 => d.pick(&[
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(1.0),
            Value::Float(f64::NAN),
            Value::Float(TWO_53 as f64),
            Value::Int(-1),
            Value::Int(TWO_53 + 1),
            Value::Null,
        ]),
        2 => d.pick(&[
            Value::Text("a".into()),
            Value::Text("b".into()),
            Value::Text(String::new()),
            Value::Null,
        ]),
        _ => d.pick(&[Value::Bool(true), Value::Bool(false), Value::Null]),
    }
}

fn literal(d: &mut Draw) -> Value {
    let col = d.below(4);
    match cell(d, col) {
        // Literals also try the values no cell holds.
        Value::Null if d.below(2) == 0 => d.pick(&[Value::Int(2), Value::Float(0.5)]),
        v => v,
    }
}

fn predicate(d: &mut Draw, depth: usize) -> iq_dbms::parser::Predicate {
    use iq_dbms::parser::{CompareOp, Predicate};
    let node = if depth == 0 { 0 } else { d.below(6) };
    let sub = |d: &mut Draw| Box::new(predicate(d, depth - 1));
    match node {
        0 | 1 => Predicate::Compare {
            column: d.pick(&["i", "F", "t", "b", "nope"]).to_string(),
            op: if d.below(3) == 0 {
                d.pick(&[
                    CompareOp::Ne,
                    CompareOp::Lt,
                    CompareOp::Le,
                    CompareOp::Gt,
                    CompareOp::Ge,
                ])
            } else {
                CompareOp::Eq
            },
            value: literal(d),
        },
        2 | 3 => Predicate::And(sub(d), sub(d)),
        4 => Predicate::Or(sub(d), sub(d)),
        _ => Predicate::Not(sub(d)),
    }
}

/// Bitwise cell equality, so a NaN cell equals itself.
fn same_cells(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => x == y,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_lookup_equals_scan(seed in any::<u64>()) {
        use iq_dbms::exec::{eval_predicate, matching_rows};
        use iq_dbms::{Column, ColumnType, Schema, Table};
        let mut d = Draw(seed);
        let schema = Schema::new(
            [("i", ColumnType::Int), ("f", ColumnType::Float), ("t", ColumnType::Text), ("b", ColumnType::Bool)]
                .into_iter()
                .map(|(name, ty)| Column { name: name.into(), ty })
                .collect(),
        )
        .unwrap();
        let mut table = Table::new(schema);
        // The model applies the table's one coercion: an INT in FLOAT `f`.
        let mut model: Vec<Vec<Value>> = Vec::new();
        let row = |d: &mut Draw| (0..4).map(|c| cell(d, c)).collect::<Vec<_>>();
        let coerce = |mut r: Vec<Value>| {
            if let Value::Int(i) = r[1] {
                r[1] = Value::Float(i as f64);
            }
            r
        };
        for step in 0..30 {
            match d.below(5) {
                0 => {
                    let r = row(&mut d);
                    table.insert(r.clone()).unwrap();
                    model.push(coerce(r));
                }
                1 => {
                    let rows: Vec<_> = (0..2 + d.below(4)).map(|_| row(&mut d)).collect();
                    table.insert_all(rows.clone()).unwrap();
                    model.extend(rows.into_iter().map(coerce));
                }
                2 | 3 if !model.is_empty() => {
                    let (r, c) = (d.below(model.len()), d.below(4));
                    let v = cell(&mut d, c);
                    table.update_cell(r, c, v.clone()).unwrap();
                    model[r] = coerce({
                        let mut m = model[r].clone();
                        m[c] = v;
                        m
                    });
                }
                _ => {
                    // Unsorted, repeated and out-of-range victims.
                    let victims: Vec<usize> =
                        (0..d.below(4)).map(|_| d.below(model.len() + 2)).collect();
                    let mut keep = vec![true; model.len()];
                    for &v in &victims {
                        if let Some(k) = keep.get_mut(v) {
                            *k = false;
                        }
                    }
                    let gone = keep.iter().filter(|k| !**k).count();
                    prop_assert_eq!(table.remove_rows(&victims), gone);
                    let mut k = keep.into_iter();
                    model.retain(|_| k.next().unwrap());
                }
            }
            prop_assert_eq!(table.len(), model.len());
            for (r, m) in table.rows().iter().zip(&model) {
                prop_assert!(same_cells(r, m), "step {step}: {r:?} != {m:?}");
            }
            for _ in 0..6 {
                let p = predicate(&mut d, 3);
                let scan: Result<Vec<usize>, _> = (0..table.len())
                    .filter_map(|r| match eval_predicate(&p, &table, table.row(r)) {
                        Ok(true) => Some(Ok(r)),
                        Ok(false) => None,
                        Err(e) => Some(Err(e)),
                    })
                    .collect();
                prop_assert_eq!(matching_rows(&table, Some(&p)), scan, "step {step}: {p:?}");
            }
        }
    }
}
