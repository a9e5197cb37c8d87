//! Column and relation schemas with declared on-disk widths.
//!
//! A [`Schema`] records, for each column, its [`DataType`] and whether it is
//! **updatable** — the distinction at the heart of the paper's §3.1: only
//! updatable attributes get pre-update copies when a relation is extended for
//! 2VNL, which is why summary tables (whose group-by attributes never change)
//! pay so little storage overhead.

use crate::error::{TypeError, TypeResult};
use crate::value::Value;
use std::fmt;

/// Storable column types with fixed on-disk widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 1-byte unsigned integer (used for the `operation` flag column).
    UInt8,
    /// 4-byte signed integer.
    Int32,
    /// 8-byte signed integer.
    Int64,
    /// 8-byte IEEE-754 float.
    Float64,
    /// Fixed-width character string of `n` bytes, space-padded on disk.
    Char(usize),
    /// 4-byte calendar date.
    Date,
}

impl DataType {
    /// Bytes this type occupies in a stored tuple (Figure 3's column widths).
    pub fn byte_width(&self) -> usize {
        match self {
            DataType::UInt8 => 1,
            DataType::Int32 => 4,
            DataType::Int64 => 8,
            DataType::Float64 => 8,
            DataType::Char(n) => *n,
            DataType::Date => 4,
        }
    }

    /// Whether `value` is storable in a column of this type (`Null` always is;
    /// nullability is tracked by a side bitmap, not the type).
    pub fn admits(&self, value: &Value) -> bool {
        match (self, value) {
            (_, Value::Null) => true,
            (DataType::UInt8, Value::Int(i)) => (0..=255).contains(i),
            (DataType::Int32, Value::Int(i)) => *i >= i32::MIN as i64 && *i <= i32::MAX as i64,
            (DataType::Int64, Value::Int(_)) => true,
            (DataType::Float64, Value::Float(f)) => !f.is_nan(),
            (DataType::Float64, Value::Int(_)) => true,
            (DataType::Char(n), Value::Str(s)) => s.len() <= *n,
            (DataType::Date, Value::Date(_)) => true,
            _ => false,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::UInt8 => write!(f, "TINYINT"),
            DataType::Int32 => write!(f, "INT"),
            DataType::Int64 => write!(f, "BIGINT"),
            DataType::Float64 => write!(f, "DOUBLE"),
            DataType::Char(n) => write!(f, "CHAR({n})"),
            DataType::Date => write!(f, "DATE"),
        }
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (case-sensitive).
    pub name: String,
    /// Declared type.
    pub ty: DataType,
    /// Whether maintenance transactions may UPDATE this column (§3.1's
    /// *updatable attribute* set `A'`). Group-by attributes of summary tables
    /// are not updatable; aggregate result attributes are.
    pub updatable: bool,
}

impl Column {
    /// A non-updatable column (the common case for warehouse dimensions).
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        Column {
            name: name.into(),
            ty,
            updatable: false,
        }
    }

    /// An updatable column (aggregate results in summary tables).
    pub fn updatable(name: impl Into<String>, ty: DataType) -> Self {
        Column {
            name: name.into(),
            ty,
            updatable: true,
        }
    }

    /// Check that this column can store `val` (type, CHAR width, and no NaN:
    /// keys must order totally).
    #[inline]
    pub fn check(&self, val: &Value) -> TypeResult<()> {
        if self.ty.admits(val) {
            Ok(())
        } else {
            Err(self.rejection(val))
        }
    }

    /// Why this column cannot store `val`.
    #[cold]
    fn rejection(&self, val: &Value) -> TypeError {
        if let (DataType::Char(n), Value::Str(s)) = (self.ty, val) {
            return TypeError::StringTooLong {
                column: self.name.clone(),
                width: n,
                len: s.len(),
            };
        }
        TypeError::ColumnType {
            column: self.name.clone(),
            expected: self.ty.to_string(),
            got: format!("{} ({})", val, val.type_name()),
        }
    }
}

/// A relation schema: ordered columns plus an optional unique key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
    /// Indexes (into `columns`) of the unique-key attributes, empty when the
    /// relation has no unique key. For summary tables this is the set of
    /// group-by attributes (§3.3, Example 3.3).
    key: Vec<usize>,
}

impl Schema {
    /// Build a schema without a unique key. Fails on duplicate column names.
    pub fn new(columns: Vec<Column>) -> TypeResult<Self> {
        Self::with_key(columns, Vec::new())
    }

    /// Build a schema with a unique key given by column indexes.
    pub fn with_key(columns: Vec<Column>, key: Vec<usize>) -> TypeResult<Self> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|o| o.name == c.name) {
                return Err(TypeError::DuplicateColumn(c.name.clone()));
            }
        }
        for &k in &key {
            if k >= columns.len() {
                return Err(TypeError::NoSuchColumn(format!("key index {k}")));
            }
        }
        Ok(Schema { columns, key })
    }

    /// Build a schema with a unique key given by column names.
    pub fn with_key_names(columns: Vec<Column>, key_names: &[&str]) -> TypeResult<Self> {
        let mut key = Vec::with_capacity(key_names.len());
        for name in key_names {
            let idx = columns
                .iter()
                .position(|c| c.name == *name)
                .ok_or_else(|| TypeError::NoSuchColumn((*name).into()))?;
            key.push(idx);
        }
        Self::with_key(columns, key)
    }

    /// All columns, in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Indexes of the unique-key columns (empty = no unique key).
    pub fn key(&self) -> &[usize] {
        &self.key
    }

    /// Whether this relation declares a unique key.
    pub fn has_key(&self) -> bool {
        !self.key.is_empty()
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> TypeResult<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| TypeError::NoSuchColumn(name.into()))
    }

    /// Column metadata by name.
    pub fn column(&self, name: &str) -> TypeResult<&Column> {
        Ok(&self.columns[self.column_index(name)?])
    }

    /// Indexes of updatable columns, in declaration order (§3.1's `A'`).
    pub fn updatable_indexes(&self) -> Vec<usize> {
        self.columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.updatable)
            .map(|(i, _)| i)
            .collect()
    }

    /// Fixed per-tuple payload width in bytes: the sum of the column widths.
    ///
    /// This is the quantity the paper sums in Figure 3 (42 bytes for the base
    /// `DailySales` schema). The stored tuple adds a null bitmap on top; see
    /// [`crate::row::RowCodec`].
    pub fn payload_width(&self) -> usize {
        self.columns.iter().map(|c| c.ty.byte_width()).sum()
    }

    /// Validate a row against this schema (arity, types, CHAR widths).
    pub fn validate(&self, row: &[Value]) -> TypeResult<()> {
        if row.len() != self.columns.len() {
            return Err(TypeError::Arity {
                expected: self.columns.len(),
                got: row.len(),
            });
        }
        self.columns
            .iter()
            .zip(row)
            .try_for_each(|(col, val)| col.check(val))
    }

    /// Extract the key values of a row (empty when no key is declared).
    pub fn key_of(&self, row: &[Value]) -> Vec<Value> {
        self.key.iter().map(|&i| row[i].clone()).collect()
    }
}

/// The paper's running-example schema (Example 2.1 / Figure 3):
/// `DailySales(city, state, product_line, date, total_sales)` with the
/// group-by attributes as unique key and only `total_sales` updatable.
#[expect(clippy::expect_used, reason = "static schema literal")]
pub fn daily_sales_schema() -> Schema {
    Schema::with_key_names(
        vec![
            Column::new("city", DataType::Char(20)),
            Column::new("state", DataType::Char(2)),
            Column::new("product_line", DataType::Char(12)),
            Column::new("date", DataType::Date),
            Column::updatable("total_sales", DataType::Int32),
        ],
        &["city", "state", "product_line", "date"],
    )
    .expect("DailySales schema is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::date::Date;

    #[test]
    fn a_double_column_refuses_nan() {
        let c = Column::new("x", DataType::Float64);
        assert!(c.check(&Value::Float(1.5)).is_ok());
        let err = c.check(&Value::Float(f64::NAN)).unwrap_err();
        assert!(matches!(err, TypeError::ColumnType { .. }), "{err:?}");
    }

    #[test]
    fn widths_match_figure_3_base_schema() {
        // Figure 3: city 20, state 2, product_line 12, date 4, total_sales 4
        // => 42 bytes per tuple before the 2VNL extension.
        let s = daily_sales_schema();
        assert_eq!(s.payload_width(), 42);
    }

    #[test]
    fn duplicate_column_rejected() {
        let err = Schema::new(vec![
            Column::new("a", DataType::Int32),
            Column::new("a", DataType::Int32),
        ])
        .unwrap_err();
        assert_eq!(err, TypeError::DuplicateColumn("a".into()));
    }

    #[test]
    fn key_by_names() {
        let s = daily_sales_schema();
        assert_eq!(s.key(), &[0, 1, 2, 3]);
        assert!(s.has_key());
        let row = vec![
            Value::from("San Jose"),
            Value::from("CA"),
            Value::from("golf equip"),
            Value::from(Date::ymd(1996, 10, 14)),
            Value::from(10_000),
        ];
        assert_eq!(
            s.key_of(&row),
            vec![
                Value::from("San Jose"),
                Value::from("CA"),
                Value::from("golf equip"),
                Value::from(Date::ymd(1996, 10, 14)),
            ]
        );
    }

    #[test]
    fn key_with_unknown_name_fails() {
        let cols = vec![Column::new("a", DataType::Int32)];
        assert!(Schema::with_key_names(cols, &["b"]).is_err());
    }

    #[test]
    fn updatable_indexes() {
        let s = daily_sales_schema();
        assert_eq!(s.updatable_indexes(), vec![4]);
    }

    #[test]
    fn validate_accepts_good_row() {
        let s = daily_sales_schema();
        s.validate(&[
            Value::from("San Jose"),
            Value::from("CA"),
            Value::from("golf equip"),
            Value::from(Date::ymd(1996, 10, 14)),
            Value::from(10_000),
        ])
        .unwrap();
    }

    #[test]
    fn validate_rejects_arity_and_types() {
        let s = daily_sales_schema();
        assert!(matches!(
            s.validate(&[Value::Int(1)]),
            Err(TypeError::Arity { .. })
        ));
        let bad_type = s.validate(&[
            Value::from(1),
            Value::from("CA"),
            Value::from("golf"),
            Value::from(Date::ymd(1996, 10, 14)),
            Value::from(1),
        ]);
        assert!(matches!(bad_type, Err(TypeError::ColumnType { .. })));
    }

    #[test]
    fn validate_rejects_long_strings() {
        let s = daily_sales_schema();
        let err = s
            .validate(&[
                Value::from("A city name far longer than twenty bytes"),
                Value::from("CA"),
                Value::from("golf"),
                Value::from(Date::ymd(1996, 10, 14)),
                Value::from(1),
            ])
            .unwrap_err();
        assert!(matches!(err, TypeError::StringTooLong { width: 20, .. }));
    }

    #[test]
    fn null_admitted_everywhere() {
        let s = daily_sales_schema();
        s.validate(&[
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
        ])
        .unwrap();
    }

    #[test]
    fn uint8_range() {
        assert!(DataType::UInt8.admits(&Value::Int(0)));
        assert!(DataType::UInt8.admits(&Value::Int(255)));
        assert!(!DataType::UInt8.admits(&Value::Int(256)));
        assert!(!DataType::UInt8.admits(&Value::Int(-1)));
    }

    #[test]
    fn int32_range() {
        assert!(DataType::Int32.admits(&Value::Int(i32::MAX as i64)));
        assert!(!DataType::Int32.admits(&Value::Int(i32::MAX as i64 + 1)));
    }

    #[test]
    fn display() {
        assert_eq!(DataType::Char(20).to_string(), "CHAR(20)");
        assert_eq!(DataType::Int32.to_string(), "INT");
    }
}
