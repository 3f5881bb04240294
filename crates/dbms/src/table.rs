//! Schemas and in-memory tables.

use crate::value::{ColumnType, Value};
use crate::DbError;
use std::sync::OnceLock;

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
    /// One equality index per column: the row numbers of the cells that
    /// have an [`eq_key`], sorted by `(key, row)` (see [`order`]); 4 B per
    /// row, as the keys are read from the cells. A column's index is built
    /// the first time a predicate probes it (through `&self`, so concurrent
    /// readers may build it), and every writer keeps a built one current.
    eq_index: Vec<OnceLock<Vec<u32>>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(schema: Schema) -> Self {
        let eq_index = (0..schema.len()).map(|_| OnceLock::new()).collect();
        Table {
            schema,
            rows: Vec::new(),
            eq_index,
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
        self.insert_all(vec![row]).map(|_| ())
    }

    /// Inserts rows all or none: every row is checked before the first
    /// lands. Returns how many were inserted.
    pub fn insert_all(&mut self, rows: Vec<Vec<Value>>) -> Result<usize, DbError> {
        for row in &rows {
            self.check_row(row)?;
        }
        let (from, n) = (self.rows.len(), rows.len());
        for row in rows {
            // Store INTs written to FLOAT columns as FLOATs.
            let row = row
                .into_iter()
                .zip(self.schema.columns())
                .map(|(v, c)| coerce(v, c.ty))
                .collect();
            self.rows.push(row);
        }
        let rows = &self.rows;
        for (col, index) in self.eq_index.iter_mut().enumerate() {
            let Some(index) = index.get_mut() else {
                continue;
            };
            let fresh = keyed(rows, col, from);
            if n == 1 {
                fresh.for_each(|r| index_insert(index, rows, col, r));
            } else {
                index.extend(fresh);
                index.sort_unstable_by_key(|&r| order(rows, col, r));
            }
        }
        Ok(n)
    }

    /// Removes every row whose index is in `victims` (sorted or not,
    /// repeats and out-of-range indices ignored), preserving the order of
    /// the remaining rows. Returns how many were removed.
    pub fn remove_rows(&mut self, victims: &[usize]) -> usize {
        if victims.is_empty() {
            return 0;
        }
        let mut dead = victims.to_vec();
        dead.sort_unstable();
        dead.dedup();
        let before = self.rows.len();
        // One merge pass: the next victim is the only one to compare with.
        let mut next = dead.iter().copied().peekable();
        let mut i = 0;
        self.rows.retain(|_| {
            let kill = next.next_if_eq(&i).is_some();
            i += 1;
            !kill
        });
        // Survivors keep their cells and their order, so renumbering them
        // keeps each built index sorted.
        for index in self.eq_index.iter_mut().filter_map(OnceLock::get_mut) {
            index.retain_mut(|r| {
                let row = *r as usize;
                let below = dead.partition_point(|&v| v < row);
                if dead.get(below) == Some(&row) {
                    return false;
                }
                *r = row_id(row - below);
                true
            });
        }
        before - self.rows.len()
    }

    /// Overwrites one cell (used by UPDATE and IMPROVE's APPLY mode).
    pub fn update_cell(&mut self, row: usize, col: usize, value: Value) -> Result<(), DbError> {
        self.check_cell(col, &value)?;
        let value = coerce(value, self.schema.columns()[col].ty);
        let (r, rekey) = (row_id(row), eq_key(&self.rows[row][col]) != eq_key(&value));
        let mut index = self.eq_index[col].get_mut().filter(|_| rekey);
        if let Some(index) = &mut index {
            // The row leaves while its old cell still places it.
            let at = index
                .binary_search_by(|&x| order(&self.rows, col, x).cmp(&order(&self.rows, col, r)));
            if let Ok(at) = at {
                index.remove(at);
            }
        }
        self.rows[row][col] = value;
        if let Some(index) = index.filter(|_| eq_key(&self.rows[row][col]).is_some()) {
            index_insert(index, &self.rows, col, r);
        }
        Ok(())
    }

    /// The rows, ascending, whose cell in column `col` may equal `value`
    /// under [`Value::compare`]: a superset of the equal ones, which the
    /// caller re-checks. Builds the column's equality index on first use.
    pub fn eq_candidates(&self, col: usize, value: &Value) -> impl Iterator<Item = usize> + '_ {
        let rows = &self.rows;
        let index = self.eq_index[col].get_or_init(|| {
            let mut index = Vec::with_capacity(rows.len());
            index.extend(keyed(rows, col, 0));
            index.sort_unstable_by_key(|&r| order(rows, col, r));
            index
        });
        let hits: &[u32] = match eq_key(value) {
            Some(k) => {
                let lo = index.partition_point(|&r| order(rows, col, r).0 < k);
                let len = index[lo..].partition_point(|&r| order(rows, col, r).0 == k);
                &index[lo..lo + len]
            }
            None => &[],
        };
        hits.iter().map(|&r| r as usize)
    }
}

/// The equality-index key of a cell or literal: values that
/// [`Value::compare`] calls equal share a key. Numerics key on their `f64`
/// bits after `+ 0.0`, so `-0.0` meets `0.0` and an INT meets the FLOAT it
/// converts to; TEXT keys on an FNV-1a hash. NULL and NaN equal nothing
/// and get no key. Unequal values may share a key: the index only
/// nominates rows.
fn eq_key(value: &Value) -> Option<u64> {
    match value {
        Value::Null => None,
        Value::Bool(b) => Some(u64::from(*b)),
        Value::Text(s) => Some(s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })),
        Value::Int(_) | Value::Float(_) => {
            let x = value.as_f64()?;
            (!x.is_nan()).then(|| (x + 0.0).to_bits())
        }
    }
}

/// A row number as the equality index stores it.
fn row_id(row: usize) -> u32 {
    u32::try_from(row).expect("a table holds fewer than 2^32 rows")
}

/// Rows `from..` whose cell in column `col` has a key: the ones it indexes.
fn keyed(rows: &[Vec<Value>], col: usize, from: usize) -> impl Iterator<Item = u32> + '_ {
    (from..rows.len())
        .filter(move |&r| eq_key(&rows[r][col]).is_some())
        .map(row_id)
}

/// Where row `r` sorts in column `col`'s equality index: by its cell's
/// key, then by row number. Every indexed row has a key.
fn order(rows: &[Vec<Value>], col: usize, r: u32) -> (u64, u32) {
    (eq_key(&rows[r as usize][col]).unwrap_or(0), r)
}

/// Inserts row `r`, whose cell has a key, into column `col`'s index.
fn index_insert(index: &mut Vec<u32>, rows: &[Vec<Value>], col: usize, r: u32) {
    let at = index.partition_point(|&x| order(rows, col, x) < order(rows, col, r));
    index.insert(at, r);
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
