//! Typed values and column types for the in-memory DBMS substrate.

use std::cmp::Ordering;
use std::fmt;

/// The column types the engine supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Text,
    /// Boolean.
    Bool,
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnType::Int => write!(f, "INT"),
            ColumnType::Float => write!(f, "FLOAT"),
            ColumnType::Text => write!(f, "TEXT"),
            ColumnType::Bool => write!(f, "BOOL"),
        }
    }
}

/// A single cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer value.
    Int(i64),
    /// Float value.
    Float(f64),
    /// Text value.
    Text(String),
    /// Boolean value.
    Bool(bool),
    /// SQL NULL.
    Null,
}

impl Value {
    /// The value's type, or `None` for NULL.
    pub fn column_type(&self) -> Option<ColumnType> {
        match self {
            Value::Int(_) => Some(ColumnType::Int),
            Value::Float(_) => Some(ColumnType::Float),
            Value::Text(_) => Some(ColumnType::Text),
            Value::Bool(_) => Some(ColumnType::Bool),
            Value::Null => None,
        }
    }

    /// Whether the value can be stored in a column of type `ty`
    /// (NULL fits everywhere; INT coerces into FLOAT).
    pub fn fits(&self, ty: ColumnType) -> bool {
        match (self, ty) {
            (Value::Null, _) => true,
            (Value::Int(_), ColumnType::Float) => true,
            (v, t) => v.column_type() == Some(t),
        }
    }

    /// Numeric view (INT and FLOAT only).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// SQL comparison: NULL compares with nothing (returns `None`);
    /// numerics compare across INT/FLOAT; other types compare within kind.
    #[expect(
        clippy::disallowed_methods,
        reason = "SQL semantics: NULL (and NaN) are incomparable, so the Option from \
                  partial_cmp is the contract here, not a hazard to unwrap"
    )]
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_fitting() {
        assert!(Value::Int(3).fits(ColumnType::Int));
        assert!(Value::Int(3).fits(ColumnType::Float)); // coercion
        assert!(!Value::Float(3.0).fits(ColumnType::Int));
        assert!(Value::Null.fits(ColumnType::Text));
        assert!(!Value::Text("x".into()).fits(ColumnType::Bool));
    }

    #[test]
    fn numeric_cross_comparison() {
        assert_eq!(
            Value::Int(2).compare(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(1).compare(&Value::Float(1.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Float(2.5).compare(&Value::Int(2)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn null_compares_with_nothing() {
        assert_eq!(Value::Null.compare(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).compare(&Value::Null), None);
    }

    #[test]
    fn text_and_bool_comparison() {
        assert_eq!(
            Value::Text("a".into()).compare(&Value::Text("b".into())),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Bool(false).compare(&Value::Bool(true)),
            Some(Ordering::Less)
        );
        // Cross-kind non-numeric comparison is undefined.
        assert_eq!(Value::Text("1".into()).compare(&Value::Int(1)), None);
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(ColumnType::Float.to_string(), "FLOAT");
    }
}
