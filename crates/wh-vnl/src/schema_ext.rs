//! Schema extension (§3.1, §5) and the storage-overhead model (Figure 3).
//!
//! For 2VNL, a relation `R(A1..An)` with updatable subset `A'` becomes
//! `{tupleVN, operation, A1..An, Ap1..Apk}` — exactly Figure 3's layout. For
//! nVNL there are `n − 1` `(tupleVN_j, operation_j)` pairs and `n − 1`
//! pre-update sets (§5). [`ExtLayout`] owns the index bookkeeping between
//! base and extended schemas; everything else in the crate goes through it.

use crate::error::VnlResult;
use crate::version::{Operation, VersionNo};
use wh_storage::{Rid, StorageError};
use wh_types::{Column, DataType, Row, RowCodec, Schema, TypeResult, Value};

/// One version slot: `(tupleVN, operation, pre-values)`, the pre-values
/// parallel to [`ExtLayout::updatable`].
pub(crate) type Slot = (VersionNo, Operation, Vec<Value>);

/// Layout of an nVNL-extended schema over a base schema.
#[derive(Debug, Clone)]
pub struct ExtLayout {
    n: usize,
    base: Schema,
    ext: Schema,
    /// Base indexes of updatable columns, in declaration order.
    updatable: Vec<usize>,
    /// Extended index of `tupleVN_j`, j = 0-based slot (0 = newest).
    vn_cols: Vec<usize>,
    /// Extended index of `operation_j`.
    op_cols: Vec<usize>,
    /// Extended index of base column `i`.
    base_cols: Vec<usize>,
    /// `pre_cols[j][u]` = extended index of the j-th pre-update copy of the
    /// u-th updatable column.
    pre_cols: Vec<Vec<usize>>,
}

impl ExtLayout {
    /// Build the extended layout for `base` with `n ≥ 2` versions.
    ///
    /// Column names follow the paper: for `n = 2` they are `tupleVN`,
    /// `operation`, and `pre_<attr>`; for `n > 2` they carry 1-based slot
    /// suffixes (`tupleVN1` is the most recent, as in Figure 7).
    pub fn new(base: Schema, n: usize) -> VnlResult<Self> {
        assert!(n >= 2, "nVNL requires n >= 2");
        let slots = n - 1;
        let updatable = base.updatable_indexes();
        let mut columns = Vec::new();
        let mut vn_cols = Vec::new();
        let mut op_cols = Vec::new();
        let suffix = |j: usize| {
            if n == 2 {
                String::new()
            } else {
                format!("{}", j + 1)
            }
        };
        for j in 0..slots {
            vn_cols.push(columns.len());
            columns.push(Column::updatable(
                format!("tupleVN{}", suffix(j)),
                DataType::Int32,
            ));
            op_cols.push(columns.len());
            columns.push(Column::updatable(
                format!("operation{}", suffix(j)),
                DataType::Char(1),
            ));
        }
        let mut base_cols = Vec::new();
        for c in base.columns() {
            base_cols.push(columns.len());
            columns.push(c.clone());
        }
        let mut pre_cols = Vec::new();
        for j in 0..slots {
            let mut set = Vec::new();
            for &u in &updatable {
                set.push(columns.len());
                columns.push(Column::updatable(
                    format!("pre_{}{}", base.columns()[u].name, suffix(j)),
                    base.columns()[u].ty,
                ));
            }
            pre_cols.push(set);
        }
        // The unique key carries over, re-indexed into the extended schema.
        let key: Vec<usize> = base.key().iter().map(|&k| base_cols[k]).collect();
        let ext = Schema::with_key(columns, key)?;
        Ok(ExtLayout {
            n,
            base,
            ext,
            updatable,
            vn_cols,
            op_cols,
            base_cols,
            pre_cols,
        })
    }

    /// Number of versions (`n`).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of version slots (`n − 1`).
    pub fn slots(&self) -> usize {
        self.n - 1
    }

    /// The base (logical) schema.
    pub fn base_schema(&self) -> &Schema {
        &self.base
    }

    /// The extended (physical) schema.
    pub fn ext_schema(&self) -> &Schema {
        &self.ext
    }

    /// Base indexes of the updatable columns.
    pub fn updatable(&self) -> &[usize] {
        &self.updatable
    }

    /// Extended index of `tupleVN_j` (0-based slot; 0 = most recent).
    pub fn vn_col(&self, j: usize) -> usize {
        self.vn_cols[j]
    }

    /// Extended index of `operation_j`.
    pub fn op_col(&self, j: usize) -> usize {
        self.op_cols[j]
    }

    /// Extended index of base column `i`.
    pub fn base_col(&self, i: usize) -> usize {
        self.base_cols[i]
    }

    /// Extended indexes of the j-th pre-update set (parallel to
    /// [`ExtLayout::updatable`]).
    pub fn pre_set(&self, j: usize) -> &[usize] {
        &self.pre_cols[j]
    }

    /// Read slot `j`'s `(tupleVN, operation)` from an extended row; `None`
    /// when the slot is empty (NULL).
    pub fn slot(&self, ext_row: &[Value], j: usize) -> Option<(VersionNo, Operation)> {
        let vn = ext_row[self.vn_cols[j]].as_int()?;
        let op = Operation::from_value(&ext_row[self.op_cols[j]])?;
        Some((vn as VersionNo, op))
    }

    /// Slot 0's `(tupleVN, operation)` of the stored tuple at `rid`. Every
    /// stored tuple carries one, so an empty slot 0 is reported as
    /// [`StorageError::Corrupt`], as the relation walk reports it.
    pub(crate) fn stamp(&self, ext_row: &[Value], rid: Rid) -> VnlResult<(VersionNo, Operation)> {
        self.slot(ext_row, 0)
            .ok_or_else(|| StorageError::Corrupt(format!("{rid}: no slot-0 stamp")).into())
    }

    /// Slot `j`'s pre-update values (parallel to [`ExtLayout::updatable`]).
    pub(crate) fn pre_image(&self, ext_row: &[Value], j: usize) -> Vec<Value> {
        self.pre_cols[j]
            .iter()
            .map(|&i| ext_row[i].clone())
            .collect()
    }

    /// Slot `j` whole — `(tupleVN, operation, pre-values)` — when occupied.
    pub(crate) fn saved(&self, ext_row: &[Value], j: usize) -> Option<Slot> {
        let (vn, op) = self.slot(ext_row, j)?;
        Some((vn, op, self.pre_image(ext_row, j)))
    }

    /// Overwrite slot `j` with `(vn, op, pre)`.
    pub(crate) fn set_slot(&self, ext_row: &mut Row, j: usize, (vn, op, pre): &Slot) {
        ext_row[self.vn_cols[j]] = Value::from(*vn as i64);
        ext_row[self.op_cols[j]] = op.value();
        for (&i, v) in self.pre_cols[j].iter().zip(pre) {
            ext_row[i] = v.clone();
        }
    }

    /// Overwrite the current values of the updatable columns.
    pub(crate) fn set_current(&self, ext_row: &mut Row, updatable: &[Value]) {
        for (&u, v) in self.updatable.iter().zip(updatable) {
            ext_row[self.base_cols[u]] = v.clone();
        }
    }

    /// Project the current (base-schema) values out of an extended row.
    pub fn current_values(&self, ext_row: &[Value]) -> Row {
        self.base_cols.iter().map(|&i| ext_row[i].clone()).collect()
    }

    /// Project the pre-update version stored in slot `j`: pre-update values
    /// for updatable columns, current values for the rest (Table 1's note).
    pub fn pre_values(&self, ext_row: &[Value], j: usize) -> Row {
        let mut row = self.current_values(ext_row);
        for (u_pos, &u) in self.updatable.iter().enumerate() {
            row[u] = ext_row[self.pre_cols[j][u_pos]].clone();
        }
        row
    }

    /// Assemble a brand-new extended row for a physically inserted tuple:
    /// slot 0 = `(vn, insert)`, all pre-update sets NULL (Table 2 row 3).
    pub fn new_insert_row(&self, base_row: &[Value], vn: VersionNo) -> Row {
        let mut ext = vec![Value::Null; self.ext.arity()];
        ext[self.vn_cols[0]] = Value::from(vn as i64);
        ext[self.op_cols[0]] = Operation::Insert.value();
        for (i, v) in base_row.iter().enumerate() {
            ext[self.base_cols[i]] = self.as_decoded(i, v);
        }
        ext
    }

    /// Base column `i`'s `v` as a page decode returns it (a DOUBLE integer
    /// as a float, a CHAR value unpadded): what maintenance stamps, records
    /// and probes by, so a rescan reads the same.
    pub(crate) fn as_decoded(&self, i: usize, v: &Value) -> Value {
        self.decoded(i, v).unwrap_or_else(|| v.clone())
    }

    /// [`ExtLayout::as_decoded`] when it differs from `v`, `None` when `v`
    /// already reads as a decode returns it.
    pub(crate) fn decoded(&self, i: usize, v: &Value) -> Option<Value> {
        match (self.base.columns()[i].ty, v) {
            (DataType::Float64, Value::Int(x)) => Some(Value::Float(*x as f64)),
            (DataType::Char(n), Value::Str(s)) if s.len() <= n && s.ends_with(' ') => {
                Some(Value::from(s.trim_end_matches(' ')))
            }
            _ => None,
        }
    }

    /// Shift version slots back by one in the encoded tuple image `rec`
    /// (`set_{j+1} ← set_j`, §5's "push back"), dropping the oldest when all
    /// `n − 1` slots are full: fixed-width moves that carry each field's
    /// null bit. Slot 0 is left for the caller to overwrite.
    pub fn push_back(&self, codec: &RowCodec, rec: &mut [u8]) -> TypeResult<()> {
        for j in (1..self.slots()).rev() {
            codec.move_col(rec, self.vn_cols[j - 1], self.vn_cols[j])?;
            codec.move_col(rec, self.op_cols[j - 1], self.op_cols[j])?;
            for (&from, &to) in self.pre_cols[j - 1].iter().zip(&self.pre_cols[j]) {
                codec.move_col(rec, from, to)?;
            }
        }
        Ok(())
    }

    /// Inverse of [`ExtLayout::push_back`] (`set_j ← set_{j+1}`), used by the
    /// nVNL same-transaction delete-of-resurrected-tuple case and by log-free
    /// rollback. The last slot becomes NULL.
    pub fn shift_forward(&self, ext_row: &mut Row) {
        for j in 0..self.slots() - 1 {
            ext_row[self.vn_cols[j]] = ext_row[self.vn_cols[j + 1]].clone();
            ext_row[self.op_cols[j]] = ext_row[self.op_cols[j + 1]].clone();
            for u in 0..self.updatable.len() {
                ext_row[self.pre_cols[j][u]] = ext_row[self.pre_cols[j + 1][u]].clone();
            }
        }
        let last = self.slots() - 1;
        ext_row[self.vn_cols[last]] = Value::Null;
        ext_row[self.op_cols[last]] = Value::Null;
        for u in 0..self.updatable.len() {
            ext_row[self.pre_cols[last][u]] = Value::Null;
        }
    }

    /// Storage-overhead accounting (Figure 3 and §3.1's worst-case claim).
    pub fn overhead(&self) -> StorageOverhead {
        let base_bytes = self.base.payload_width();
        let ext_bytes = self.ext.payload_width();
        StorageOverhead {
            n: self.n,
            base_tuple_bytes: base_bytes,
            ext_tuple_bytes: ext_bytes,
            updatable_columns: self.updatable.len(),
            total_columns: self.base.arity(),
        }
    }
}

/// Per-tuple storage cost of the extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageOverhead {
    /// Number of versions.
    pub n: usize,
    /// Bytes per tuple in the base schema (Figure 3: 42 for DailySales).
    pub base_tuple_bytes: usize,
    /// Bytes per tuple in the extended schema (Figure 3: 51).
    pub ext_tuple_bytes: usize,
    /// How many columns are updatable.
    pub updatable_columns: usize,
    /// Total base columns.
    pub total_columns: usize,
}

impl StorageOverhead {
    /// Relative growth, e.g. `0.214...` for DailySales (§3.1's "approximately
    /// 20%").
    pub fn ratio(&self) -> f64 {
        (self.ext_tuple_bytes - self.base_tuple_bytes) as f64 / self.base_tuple_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wh_types::schema::daily_sales_schema;

    fn layout2() -> ExtLayout {
        ExtLayout::new(daily_sales_schema(), 2).unwrap()
    }

    #[test]
    fn figure_3_schema_shape() {
        // Figure 3: {tupleVN, operation, city, state, product_line, date,
        // total_sales, pre_total_sales} with widths 4,1,20,2,12,4,4,4.
        let l = layout2();
        let names: Vec<&str> = l
            .ext_schema()
            .columns()
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(
            names,
            vec![
                "tupleVN",
                "operation",
                "city",
                "state",
                "product_line",
                "date",
                "total_sales",
                "pre_total_sales"
            ]
        );
        let widths: Vec<usize> = l
            .ext_schema()
            .columns()
            .iter()
            .map(|c| c.ty.byte_width())
            .collect();
        assert_eq!(widths, vec![4, 1, 20, 2, 12, 4, 4, 4]);
    }

    #[test]
    fn figure_3_byte_counts() {
        // "Before modification, the DailySales relation required 42 bytes
        // per tuple. After modification it requires 51 bytes, an increase of
        // approximately 20%."
        let o = layout2().overhead();
        assert_eq!(o.base_tuple_bytes, 42);
        assert_eq!(o.ext_tuple_bytes, 51);
        assert!((o.ratio() - 0.214).abs() < 0.01);
    }

    #[test]
    fn worst_case_doubles_storage() {
        // §3.1: "when every attribute is updatable, representing two versions
        // requires approximately doubling the storage space".
        let all_updatable = Schema::new(vec![
            Column::updatable("a", DataType::Int64),
            Column::updatable("b", DataType::Float64),
            Column::updatable("c", DataType::Char(16)),
        ])
        .unwrap();
        let o = ExtLayout::new(all_updatable, 2).unwrap().overhead();
        let growth = o.ext_tuple_bytes as f64 / o.base_tuple_bytes as f64;
        assert!(growth > 1.9 && growth < 2.3, "growth was {growth}");
    }

    #[test]
    fn key_carries_over() {
        let l = layout2();
        // Base key columns 0..=3 map to extended positions 2..=5.
        assert_eq!(l.ext_schema().key(), &[2, 3, 4, 5]);
    }

    #[test]
    fn nvnl_naming_matches_figure_7() {
        let l = ExtLayout::new(daily_sales_schema(), 4).unwrap();
        let names: Vec<&str> = l
            .ext_schema()
            .columns()
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert!(names.contains(&"tupleVN1"));
        assert!(names.contains(&"tupleVN3"));
        assert!(names.contains(&"operation2"));
        assert!(names.contains(&"pre_total_sales1"));
        assert!(names.contains(&"pre_total_sales3"));
        assert_eq!(l.slots(), 3);
    }

    #[test]
    fn new_insert_row_shape() {
        let l = layout2();
        let base = vec![
            Value::from("San Jose"),
            Value::from("CA"),
            Value::from("golf equip"),
            Value::from(wh_types::Date::ymd(1996, 10, 14)),
            Value::from(10_000),
        ];
        let ext = l.new_insert_row(&base, 3);
        assert_eq!(ext[l.vn_col(0)], Value::from(3));
        assert_eq!(ext[l.op_col(0)], Operation::Insert.value());
        assert_eq!(l.current_values(&ext), base);
        assert_eq!(ext[l.pre_set(0)[0]], Value::Null);
        assert_eq!(l.slot(&ext, 0), Some((3, Operation::Insert)));
    }

    #[test]
    fn pre_values_merge_current_non_updatable() {
        let l = layout2();
        let base = vec![
            Value::from("Berkeley"),
            Value::from("CA"),
            Value::from("racquetball"),
            Value::from(wh_types::Date::ymd(1996, 10, 14)),
            Value::from(12_000),
        ];
        let mut ext = l.new_insert_row(&base, 4);
        ext[l.op_col(0)] = Operation::Update.value();
        ext[l.pre_set(0)[0]] = Value::from(10_000);
        let pre = l.pre_values(&ext, 0);
        assert_eq!(pre[0], Value::from("Berkeley")); // non-updatable: current
        assert_eq!(pre[4], Value::from(10_000)); // updatable: pre-update
    }

    #[test]
    fn push_back_and_shift_forward_are_inverse() {
        let l = ExtLayout::new(daily_sales_schema(), 4).unwrap();
        let codec = RowCodec::new(l.ext_schema().clone());
        let base = vec![
            Value::from("San Jose"),
            Value::from("CA"),
            Value::from("golf equip"),
            Value::from(wh_types::Date::ymd(1996, 10, 14)),
            Value::from(10_000),
        ];
        let original = l.new_insert_row(&base, 3);
        let mut rec = codec.encode(&original).unwrap();
        l.push_back(&codec, &mut rec).unwrap();
        let mut ext = codec.decode(&rec).unwrap();
        // Slot 1 now holds the old slot 0.
        assert_eq!(l.slot(&ext, 1), Some((3, Operation::Insert)));
        l.shift_forward(&mut ext);
        assert_eq!(ext, original);
    }

    #[test]
    fn push_back_drops_oldest_when_full() {
        let l = ExtLayout::new(daily_sales_schema(), 3).unwrap(); // 2 slots
        let codec = RowCodec::new(l.ext_schema().clone());
        let base = vec![
            Value::from("X"),
            Value::from("CA"),
            Value::from("p"),
            Value::from(wh_types::Date::ymd(1996, 1, 1)),
            Value::from(1),
        ];
        let mut rec = codec.encode(&l.new_insert_row(&base, 3)).unwrap();
        // Fill slot 1 artificially.
        l.push_back(&codec, &mut rec).unwrap();
        codec
            .encode_col(&mut rec, l.vn_col(0), &Value::from(5))
            .unwrap();
        codec
            .encode_col(&mut rec, l.op_col(0), &Operation::Update.value())
            .unwrap();
        // Push again: slot-1 content (vn 3) moves out of existence.
        l.push_back(&codec, &mut rec).unwrap();
        let ext = codec.decode(&rec).unwrap();
        assert_eq!(l.slot(&ext, 1), Some((5, Operation::Update)));
    }

    #[test]
    fn slot_empty_when_null() {
        let l = ExtLayout::new(daily_sales_schema(), 4).unwrap();
        let base = vec![
            Value::from("X"),
            Value::from("CA"),
            Value::from("p"),
            Value::from(wh_types::Date::ymd(1996, 1, 1)),
            Value::from(1),
        ];
        let ext = l.new_insert_row(&base, 3);
        assert!(l.slot(&ext, 0).is_some());
        assert!(l.slot(&ext, 1).is_none());
        assert!(l.slot(&ext, 2).is_none());
    }
}
