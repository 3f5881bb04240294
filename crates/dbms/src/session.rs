//! Session layer: a catalog of tables plus a one-call `execute` entry
//! point — the REPL-able surface of the analytic tool.

use crate::exec::{select, QueryResult};
use crate::iqext::{apply_deltas, improve_with, TargetDeltas};
use crate::parser::{parse, ImproveStmt, Statement};
use crate::table::{Column, Schema, Table};
use crate::DbError;
use iq_core::SearchOptions;
use std::collections::BTreeMap;

/// The outcome of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Table created.
    Created(String),
    /// Rows inserted.
    Inserted(usize),
    /// Rows loaded from a CSV file.
    Copied(usize),
    /// Rows updated.
    Updated(usize),
    /// Rows deleted.
    Deleted(usize),
    /// Table dropped.
    Dropped(String),
    /// A result set (SELECT or IMPROVE).
    Rows(QueryResult),
    /// A storage checkpoint completed (server-side; a plain session has
    /// no storage layer and never produces this).
    Checkpointed {
        /// The new storage generation.
        generation: u64,
        /// WAL records made redundant by the snapshot.
        wal_truncated: u64,
    },
}

/// An in-memory database session.
#[derive(Debug, Default)]
pub struct Session {
    tables: BTreeMap<String, Table>,
}

impl Session {
    /// Creates an empty session.
    pub fn new() -> Self {
        Session::default()
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// A table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(&name.to_ascii_lowercase())
    }

    /// A table by name, mutably — the serving layer's `APPLY` write-back
    /// hook (search under a read lock, apply under the write lock).
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(&name.to_ascii_lowercase())
    }

    /// Registers a prebuilt table (used by examples/benches to bulk-load).
    pub fn register(&mut self, name: &str, table: Table) {
        self.tables.insert(name.to_ascii_lowercase(), table);
    }

    /// Parses and executes one statement.
    pub fn execute(&mut self, sql: &str) -> Result<Outcome, DbError> {
        let stmt = parse(sql)?;
        self.execute_parsed(stmt)
    }

    /// Executes a read-only statement against `&self` — the serving
    /// layer's concurrent-reader entry point (many of these may run in
    /// parallel under a shared lock), and the one read path of
    /// [`Self::execute_parsed`]. Statements that are not read-only per
    /// [`crate::parser::is_read_only`] are rejected, including
    /// `IMPROVE … APPLY`.
    pub fn execute_read(&self, stmt: &Statement) -> Result<Outcome, DbError> {
        match stmt {
            Statement::Select(sel) => Ok(Outcome::Rows(select(self.get(&sel.table)?, sel)?)),
            Statement::ShowTables => Ok(Outcome::Rows(self.show_tables())),
            Statement::ShowWal => Err(DbError::Unsupported(
                "SHOW WAL requires an iq-server connection with --data-dir".into(),
            )),
            Statement::Improve(imp) if !imp.apply => Ok(Outcome::Rows(self.improve(imp)?.0)),
            other => Err(DbError::Unsupported(format!(
                "statement is not read-only: {other:?}"
            ))),
        }
    }

    /// A table by name, or the error naming it.
    fn get(&self, name: &str) -> Result<&Table, DbError> {
        self.table(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// A table by name, mutably, or the error naming it.
    fn get_mut(&mut self, name: String) -> Result<&mut Table, DbError> {
        self.tables
            .get_mut(&name.to_ascii_lowercase())
            .ok_or(DbError::UnknownTable(name))
    }

    /// An IMPROVE's search over the current tables: the result set and
    /// the deltas `APPLY` writes back.
    fn improve(&self, imp: &ImproveStmt) -> Result<(QueryResult, TargetDeltas), DbError> {
        let queries = self.get(&imp.query_table)?;
        let objects = self.get(&imp.table)?;
        improve_with(objects, queries, imp, None, &SearchOptions::default())
    }

    /// Executes an already-parsed statement.
    pub fn execute_parsed(&mut self, stmt: Statement) -> Result<Outcome, DbError> {
        match stmt {
            Statement::Create { name, columns } => {
                let key = name.to_ascii_lowercase();
                if self.tables.contains_key(&key) {
                    return Err(DbError::TableExists(name));
                }
                let schema = Schema::new(
                    columns
                        .into_iter()
                        .map(|(name, ty)| Column { name, ty })
                        .collect(),
                )?;
                self.tables.insert(key, Table::new(schema));
                Ok(Outcome::Created(name))
            }
            Statement::Insert { table, rows } => {
                Ok(Outcome::Inserted(self.get_mut(table)?.insert_all(rows)?))
            }
            Statement::Update {
                table,
                sets,
                predicate,
            } => {
                let t = self.get_mut(table)?;
                // Resolve and type-check every assignment up front, so a
                // failed UPDATE changes nothing.
                let cols: Vec<usize> = sets
                    .iter()
                    .map(|(c, v)| {
                        let col = t
                            .schema
                            .index_of(c)
                            .ok_or_else(|| DbError::UnknownColumn(c.clone()))?;
                        t.check_cell(col, v)?;
                        Ok(col)
                    })
                    .collect::<Result<_, DbError>>()?;
                let rows = crate::exec::matching_rows(t, predicate.as_ref())?;
                for &r in &rows {
                    for (&col, (_, v)) in cols.iter().zip(&sets) {
                        t.update_cell(r, col, v.clone())?;
                    }
                }
                Ok(Outcome::Updated(rows.len()))
            }
            Statement::Delete { table, predicate } => {
                let t = self.get_mut(table)?;
                let rows = crate::exec::matching_rows(t, predicate.as_ref())?;
                Ok(Outcome::Deleted(t.remove_rows(&rows)))
            }
            Statement::Copy {
                table,
                path,
                has_header,
            } => {
                let key = table.to_ascii_lowercase();
                if self.tables.contains_key(&key) {
                    return Err(DbError::TableExists(table));
                }
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| DbError::Parse(format!("cannot read `{path}`: {e}")))?;
                let t = crate::csv::table_from_csv(&text, has_header)?;
                let n = t.len();
                self.tables.insert(key, t);
                Ok(Outcome::Copied(n))
            }
            Statement::Drop { name } => {
                let key = name.to_ascii_lowercase();
                if self.tables.remove(&key).is_none() {
                    return Err(DbError::UnknownTable(name));
                }
                Ok(Outcome::Dropped(name))
            }
            Statement::Improve(imp) if imp.apply => {
                let (result, deltas) = self.improve(&imp)?;
                apply_deltas(self.get_mut(imp.table)?, &deltas)?;
                Ok(Outcome::Rows(result))
            }
            Statement::ShowStats => Err(DbError::Unsupported(
                "SHOW STATS requires an iq-server connection".into(),
            )),
            Statement::Shutdown => Err(DbError::Unsupported(
                "SHUTDOWN requires an iq-server connection".into(),
            )),
            Statement::Checkpoint => Err(DbError::Unsupported(
                "CHECKPOINT requires an iq-server connection with --data-dir".into(),
            )),
            read => self.execute_read(&read),
        }
    }

    /// `SHOW TABLES` result: `(table, rows)` pairs in sorted name order.
    fn show_tables(&self) -> QueryResult {
        QueryResult {
            columns: vec!["table".into(), "rows".into()],
            rows: self
                .table_names()
                .into_iter()
                .map(|name| {
                    let rows = self.tables[name].len();
                    vec![
                        crate::value::Value::Text(name.to_string()),
                        crate::value::Value::Int(rows as i64),
                    ]
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn session_with_data() -> Session {
        let mut s = Session::new();
        s.execute("CREATE TABLE cams (id INT, res FLOAT, price FLOAT)")
            .unwrap();
        s.execute(
            "INSERT INTO cams VALUES (1, 0.4, 0.9), (2, 0.6, 0.4), (3, 0.2, 0.2), (4, 0.8, 0.7)",
        )
        .unwrap();
        s.execute("CREATE TABLE prefs (w1 FLOAT, w2 FLOAT, k INT)")
            .unwrap();
        s.execute(
            "INSERT INTO prefs VALUES (0.8, 0.2, 1), (0.5, 0.5, 1), (0.2, 0.8, 2), (0.6, 0.4, 1)",
        )
        .unwrap();
        s
    }

    #[test]
    fn end_to_end_select() {
        let mut s = session_with_data();
        match s
            .execute("SELECT id FROM cams WHERE price < 0.5 ORDER BY id")
            .unwrap()
        {
            Outcome::Rows(r) => {
                assert_eq!(r.rows, vec![vec![Value::Int(2)], vec![Value::Int(3)]]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn end_to_end_improve() {
        let mut s = session_with_data();
        match s
            .execute("IMPROVE cams USING prefs WHERE id = 1 MINCOST 2 FREEZE id APPLY")
            .unwrap_err()
        {
            // `id` is not an improvable attribute (auto-excluded), so the
            // FREEZE is rejected — documents the convention.
            DbError::Improve(msg) => assert!(msg.contains("FREEZE")),
            other => panic!("{other:?}"),
        }
        match s
            .execute("IMPROVE cams USING prefs WHERE id = 1 MINCOST 2 APPLY")
            .unwrap()
        {
            Outcome::Rows(r) => {
                assert!(r.columns.contains(&"delta_res".to_string()));
                assert_eq!(r.rows.len(), 1);
            }
            other => panic!("{other:?}"),
        }
        // The APPLY persisted: the row changed.
        match s
            .execute("SELECT res, price FROM cams WHERE id = 1")
            .unwrap()
        {
            Outcome::Rows(r) => {
                assert_ne!(r.rows[0], vec![Value::Float(0.4), Value::Float(0.9)]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn catalog_operations() {
        let mut s = Session::new();
        s.execute("CREATE TABLE t (a INT)").unwrap();
        assert!(matches!(
            s.execute("CREATE TABLE t (a INT)"),
            Err(DbError::TableExists(_))
        ));
        assert_eq!(s.table_names(), vec!["t"]);
        s.execute("DROP TABLE t").unwrap();
        assert!(s.table_names().is_empty());
        assert!(matches!(
            s.execute("DROP TABLE t"),
            Err(DbError::UnknownTable(_))
        ));
        assert!(matches!(
            s.execute("SELECT * FROM nope"),
            Err(DbError::UnknownTable(_))
        ));
        assert!(matches!(
            s.execute("INSERT INTO nope VALUES (1)"),
            Err(DbError::UnknownTable(_))
        ));
    }

    #[test]
    fn update_and_delete() {
        let mut s = session_with_data();
        assert_eq!(
            s.execute("UPDATE cams SET price = 0.99 WHERE id <= 2")
                .unwrap(),
            Outcome::Updated(2)
        );
        match s.execute("SELECT price FROM cams WHERE id = 1").unwrap() {
            Outcome::Rows(r) => assert_eq!(r.rows[0][0], Value::Float(0.99)),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            s.execute("DELETE FROM cams WHERE res < 0.5").unwrap(),
            Outcome::Deleted(2)
        );
        match s.execute("SELECT id FROM cams ORDER BY id").unwrap() {
            Outcome::Rows(r) => {
                assert_eq!(r.rows, vec![vec![Value::Int(2)], vec![Value::Int(4)]]);
            }
            other => panic!("{other:?}"),
        }
        // Type errors surface before mutation.
        assert!(s.execute("UPDATE cams SET res = 'nope'").is_err());
        assert!(s.execute("UPDATE cams SET missing = 1").is_err());
        // DELETE with no predicate empties the table.
        assert_eq!(s.execute("DELETE FROM cams").unwrap(), Outcome::Deleted(2));
    }

    /// The tables as text, to compare before and after a failed write.
    fn dump(s: &Session) -> String {
        s.table_names()
            .into_iter()
            .map(|name| format!("{name}: {:?}\n", s.table(name).unwrap().rows()))
            .collect()
    }

    #[test]
    fn failed_insert_changes_nothing() {
        let mut s = session_with_data();
        let before = dump(&s);
        // The first row is valid; the second fails its type check.
        assert!(matches!(
            s.execute("INSERT INTO prefs VALUES (0.5, 0.4, 1), ('x', 2, 1)"),
            Err(DbError::TypeMismatch { .. })
        ));
        assert!(s
            .execute("INSERT INTO prefs VALUES (0.5, 0.4, 1), (0.1)")
            .is_err());
        assert_eq!(dump(&s), before);
    }

    #[test]
    fn failed_update_changes_nothing() {
        let mut s = session_with_data();
        let before = dump(&s);
        // `res` would take 0.5 before `price` fails its type check.
        assert!(matches!(
            s.execute("UPDATE cams SET res = 0.5, price = 'x'"),
            Err(DbError::TypeMismatch { .. })
        ));
        assert_eq!(dump(&s), before);
    }

    #[test]
    fn failed_improve_apply_changes_nothing() {
        let mut s = Session::new();
        // Two attributes: a FLOAT one the write-back can store, then an
        // INT one it cannot.
        s.execute("CREATE TABLE cams (id INT, res FLOAT, stock INT)")
            .unwrap();
        s.execute("INSERT INTO cams VALUES (1, 0.9, 9), (2, 0.6, 4), (3, 0.2, 2), (4, 0.8, 7)")
            .unwrap();
        s.execute("CREATE TABLE prefs (w1 FLOAT, w2 FLOAT, k INT)")
            .unwrap();
        s.execute("INSERT INTO prefs VALUES (0.8, 0.2, 1), (0.5, 0.5, 1), (0.2, 0.8, 2)")
            .unwrap();
        let before = dump(&s);
        let err = s
            .execute("IMPROVE cams USING prefs WHERE id = 1 MINCOST 3 APPLY")
            .unwrap_err();
        assert!(matches!(err, DbError::TypeMismatch { .. }), "{err:?}");
        assert_eq!(dump(&s), before);
    }

    #[test]
    fn register_prebuilt_table() {
        use crate::table::{Column, Schema, Table};
        use crate::value::ColumnType;
        let mut s = Session::new();
        let mut t = Table::new(
            Schema::new(vec![Column {
                name: "x".into(),
                ty: ColumnType::Int,
            }])
            .unwrap(),
        );
        t.insert(vec![Value::Int(7)]).unwrap();
        s.register("Bulk", t);
        match s.execute("SELECT * FROM bulk").unwrap() {
            Outcome::Rows(r) => assert_eq!(r.rows, vec![vec![Value::Int(7)]]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_result_renders() {
        let mut s = session_with_data();
        match s.execute("SELECT id FROM cams WHERE id > 100").unwrap() {
            Outcome::Rows(r) => {
                assert!(r.rows.is_empty());
                let text = r.to_ascii();
                assert!(text.contains("id"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn copy_from_csv_file() {
        let dir = std::env::temp_dir().join("iq_dbms_copy_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cams.csv");
        std::fs::write(&path, "id,res,price\n1,0.4,0.9\n2,0.6,0.4\n").unwrap();
        let mut s = Session::new();
        let outcome = s
            .execute(&format!("COPY cams FROM '{}'", path.display()))
            .unwrap();
        assert_eq!(outcome, Outcome::Copied(2));
        match s.execute("SELECT COUNT(*), MAX(price) FROM cams").unwrap() {
            Outcome::Rows(r) => {
                assert_eq!(r.rows[0][0], Value::Int(2));
                assert_eq!(r.rows[0][1], Value::Float(0.9));
            }
            other => panic!("{other:?}"),
        }
        // Re-copying into an existing table fails.
        assert!(matches!(
            s.execute(&format!("COPY cams FROM '{}'", path.display())),
            Err(DbError::TableExists(_))
        ));
        // Missing file surfaces cleanly.
        assert!(s
            .execute("COPY nope FROM '/definitely/missing.csv'")
            .is_err());
    }

    #[test]
    fn show_tables_lists_catalog() {
        let mut s = session_with_data();
        match s.execute("SHOW TABLES").unwrap() {
            Outcome::Rows(r) => {
                assert_eq!(r.columns, vec!["table", "rows"]);
                assert_eq!(
                    r.rows,
                    vec![
                        vec![Value::Text("cams".into()), Value::Int(4)],
                        vec![Value::Text("prefs".into()), Value::Int(4)],
                    ]
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn server_only_statements_are_unsupported_locally() {
        let mut s = Session::new();
        assert!(matches!(
            s.execute("SHOW STATS"),
            Err(DbError::Unsupported(_))
        ));
        assert!(matches!(
            s.execute("SHUTDOWN"),
            Err(DbError::Unsupported(_))
        ));
        assert!(matches!(
            s.execute("CHECKPOINT"),
            Err(DbError::Unsupported(_))
        ));
        assert!(matches!(
            s.execute("SHOW WAL"),
            Err(DbError::Unsupported(_))
        ));
    }

    #[test]
    fn execute_read_matches_execute_for_readonly_statements() {
        let mut s = session_with_data();
        for sql in [
            "SELECT id FROM cams WHERE price < 0.5 ORDER BY id",
            "SHOW TABLES",
            "IMPROVE cams USING prefs WHERE id = 1 MINCOST 2",
        ] {
            let stmt = crate::parser::parse(sql).unwrap();
            assert!(crate::parser::is_read_only(&stmt));
            let via_read = s.execute_read(&stmt).unwrap();
            let via_write = s.execute(sql).unwrap();
            assert_eq!(via_read, via_write, "{sql}");
        }
        // Writes are rejected on the read path.
        let stmt = crate::parser::parse("INSERT INTO cams VALUES (9, 0.1, 0.1)").unwrap();
        assert!(matches!(
            s.execute_read(&stmt),
            Err(DbError::Unsupported(_))
        ));
        // IMPROVE … APPLY mutates → not read-only.
        let stmt =
            crate::parser::parse("IMPROVE cams USING prefs WHERE id = 1 MINCOST 2 APPLY").unwrap();
        assert!(matches!(
            s.execute_read(&stmt),
            Err(DbError::Unsupported(_))
        ));
    }

    #[test]
    fn created_outcome_echoes_parsed_name() {
        let mut s = Session::new();
        assert_eq!(
            s.execute("CREATE TABLE Wide (a INT)").unwrap(),
            Outcome::Created("Wide".into())
        );
    }

    #[test]
    fn table_names_case_insensitive() {
        let mut s = Session::new();
        s.execute("CREATE TABLE Cams (a INT)").unwrap();
        s.execute("INSERT INTO CAMS VALUES (1)").unwrap();
        match s.execute("SELECT * FROM cams").unwrap() {
            Outcome::Rows(r) => assert_eq!(r.rows.len(), 1),
            other => panic!("{other:?}"),
        }
    }
}
