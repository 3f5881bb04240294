//! Schemas and in-memory tables.

use crate::value::{ColumnType, Value};
use crate::DbError;

/// A column definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Column name (matched case-insensitively).
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Creates a schema, rejecting duplicate column names.
    pub fn new(columns: Vec<Column>) -> Result<Self, DbError> {
        for i in 0..columns.len() {
            for j in (i + 1)..columns.len() {
                if columns[i].name.eq_ignore_ascii_case(&columns[j].name) {
                    return Err(DbError::DuplicateColumn(columns[i].name.clone()));
                }
            }
        }
        Ok(Schema { columns })
    }

    /// The columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True for a zero-column schema.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of a column by (case-insensitive) name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Indices of every numeric (INT/FLOAT) column — the attribute columns
    /// the IMPROVE statement operates on.
    pub fn numeric_columns(&self) -> Vec<usize> {
        self.columns
            .iter()
            .enumerate()
            .filter(|(_, c)| matches!(c.ty, ColumnType::Int | ColumnType::Float))
            .map(|(i, _)| i)
            .collect()
    }
}

/// An in-memory row-store table.
#[derive(Debug, Clone)]
pub struct Table {
    /// The table schema.
    pub schema: Schema,
    rows: Vec<Vec<Value>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(schema: Schema) -> Self {
        Table {
            schema,
            rows: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// One row.
    pub fn row(&self, i: usize) -> &[Value] {
        &self.rows[i]
    }

    /// Checks that `value` fits column `col` — what [`Self::update_cell`]
    /// requires.
    pub fn check_cell(&self, col: usize, value: &Value) -> Result<(), DbError> {
        let c = &self.schema.columns()[col];
        if value.fits(c.ty) {
            Ok(())
        } else {
            Err(DbError::TypeMismatch {
                column: c.name.clone(),
                expected: c.ty,
                found: value.clone(),
            })
        }
    }

    /// Checks a row's arity and every cell's type — what [`Self::insert`]
    /// requires.
    pub fn check_row(&self, row: &[Value]) -> Result<(), DbError> {
        if row.len() != self.schema.len() {
            return Err(DbError::ArityMismatch {
                expected: self.schema.len(),
                found: row.len(),
            });
        }
        row.iter()
            .enumerate()
            .try_for_each(|(col, v)| self.check_cell(col, v))
    }

    /// Inserts a row after arity and type checks.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<(), DbError> {
        self.check_row(&row)?;
        self.push(row);
        Ok(())
    }

    /// Inserts rows all or none: every row is checked before the first
    /// lands. Returns how many were inserted.
    pub fn insert_all(&mut self, rows: Vec<Vec<Value>>) -> Result<usize, DbError> {
        for row in &rows {
            self.check_row(row)?;
        }
        let n = rows.len();
        for row in rows {
            self.push(row);
        }
        Ok(n)
    }

    /// Appends a checked row, storing INTs written to FLOAT columns as
    /// FLOATs.
    fn push(&mut self, row: Vec<Value>) {
        let row = row
            .into_iter()
            .zip(self.schema.columns())
            .map(|(v, c)| coerce(v, c.ty))
            .collect();
        self.rows.push(row);
    }

    /// Removes every row whose index is in `victims` (sorted or not),
    /// preserving the order of the remaining rows. Returns how many were
    /// removed.
    pub fn remove_rows(&mut self, victims: &[usize]) -> usize {
        if victims.is_empty() {
            return 0;
        }
        let dead: std::collections::HashSet<usize> = victims.iter().copied().collect();
        let before = self.rows.len();
        let mut i = 0;
        self.rows.retain(|_| {
            let keep = !dead.contains(&i);
            i += 1;
            keep
        });
        before - self.rows.len()
    }

    /// Overwrites one cell (used by UPDATE and IMPROVE's APPLY mode).
    pub fn update_cell(&mut self, row: usize, col: usize, value: Value) -> Result<(), DbError> {
        self.check_cell(col, &value)?;
        self.rows[row][col] = coerce(value, self.schema.columns()[col].ty);
        Ok(())
    }
}

/// Stores an INT written to a FLOAT column as a FLOAT.
fn coerce(value: Value, ty: ColumnType) -> Value {
    match (value, ty) {
        (Value::Int(i), ColumnType::Float) => Value::Float(i as f64),
        (v, _) => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
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
        .unwrap()
    }

    #[test]
    fn duplicate_columns_rejected() {
        let r = Schema::new(vec![
            Column {
                name: "a".into(),
                ty: ColumnType::Int,
            },
            Column {
                name: "A".into(),
                ty: ColumnType::Float,
            },
        ]);
        assert!(matches!(r, Err(DbError::DuplicateColumn(_))));
    }

    #[test]
    fn insert_and_coerce() {
        let mut t = Table::new(schema());
        t.insert(vec![
            Value::Int(1),
            Value::Int(100),
            Value::Text("cam".into()),
        ])
        .unwrap();
        assert_eq!(t.row(0)[1], Value::Float(100.0)); // INT coerced
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn arity_and_type_errors() {
        let mut t = Table::new(schema());
        assert!(matches!(
            t.insert(vec![Value::Int(1)]),
            Err(DbError::ArityMismatch { .. })
        ));
        assert!(matches!(
            t.insert(vec![
                Value::Text("x".into()),
                Value::Float(1.0),
                Value::Null
            ]),
            Err(DbError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn lookup_case_insensitive() {
        let s = schema();
        assert_eq!(s.index_of("PRICE"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.numeric_columns(), vec![0, 1]);
    }

    #[test]
    fn update_cell_typechecks() {
        let mut t = Table::new(schema());
        t.insert(vec![Value::Int(1), Value::Float(2.0), Value::Null])
            .unwrap();
        t.update_cell(0, 1, Value::Float(9.0)).unwrap();
        assert_eq!(t.row(0)[1], Value::Float(9.0));
        assert!(t.update_cell(0, 0, Value::Text("no".into())).is_err());
    }
}
