//! Applying group deltas to a 2VNL-maintained summary table: each batch is
//! one page-ordered [`MaintenanceTxn::apply_batch`] that reads every group's
//! sum and count in place and writes its new ones, or deletes it.

use crate::delta::{summarize, GroupDelta, SourceDelta};
use wh_types::{Column, DataType, Row, Schema, TypeResult, Value};
use wh_vnl::{MaintenanceTxn, VnlResult, VnlTable, Write};

/// Definition of a summary view:
/// `SELECT G₁..Gₖ, SUM(measure), COUNT(*) FROM source GROUP BY G₁..Gₖ`.
#[derive(Debug, Clone)]
pub struct SummaryViewDef {
    /// Source relation schema (individual fact rows).
    pub source_schema: Schema,
    /// Indexes (into the source schema) of the group-by attributes.
    pub group_cols: Vec<usize>,
    /// Index of the summed measure.
    pub measure_col: usize,
    /// Name for the SUM output column.
    pub sum_name: String,
    /// Name for the support-count column.
    pub count_name: String,
}

impl SummaryViewDef {
    /// Build a view definition; group columns are named after their source
    /// columns.
    pub fn new(
        source_schema: Schema,
        group_names: &[&str],
        measure_name: &str,
        sum_name: &str,
    ) -> TypeResult<Self> {
        let mut group_cols = Vec::with_capacity(group_names.len());
        for g in group_names {
            group_cols.push(source_schema.column_index(g)?);
        }
        let measure_col = source_schema.column_index(measure_name)?;
        Ok(SummaryViewDef {
            source_schema,
            group_cols,
            measure_col,
            sum_name: sum_name.to_string(),
            count_name: "support_count".to_string(),
        })
    }

    /// The summary table's base schema: group-by columns (key,
    /// non-updatable), then the SUM and COUNT columns (updatable) — the
    /// §3.1 sweet spot for 2VNL storage overhead.
    #[expect(clippy::expect_used, reason = "static schema literal")]
    pub fn summary_schema(&self) -> Schema {
        let mut columns: Vec<Column> = self
            .group_cols
            .iter()
            .map(|&g| {
                Column::new(
                    self.source_schema.columns()[g].name.clone(),
                    self.source_schema.columns()[g].ty,
                )
            })
            .collect();
        columns.push(Column::updatable(self.sum_name.clone(), DataType::Int64));
        columns.push(Column::updatable(self.count_name.clone(), DataType::Int64));
        let key: Vec<usize> = (0..self.group_cols.len()).collect();
        Schema::with_key(columns, key).expect("summary schema is valid")
    }

    /// Create an empty 2VNL (or nVNL) table for this view.
    pub fn create_table(&self, name: &str, n: usize) -> VnlResult<VnlTable> {
        VnlTable::create_named(name, self.summary_schema(), n)
    }

    /// Compute the full summary rows for an initial load of `source_rows`.
    pub fn initial_rows(&self, source_rows: &[Row]) -> Vec<Row> {
        let deltas: Vec<SourceDelta> = source_rows
            .iter()
            .cloned()
            .map(SourceDelta::Insert)
            .collect();
        summarize(&deltas, &self.group_cols, self.measure_col)
            .into_iter()
            .map(|d| self.summary_row(&d.key, d.sum_delta, d.count_delta))
            .collect()
    }

    fn summary_row(&self, key: &[Value], sum: i64, count: i64) -> Row {
        let mut row = Row::with_capacity(key.len() + 2);
        row.extend_from_slice(key);
        row.push(Value::from(sum));
        row.push(Value::from(count));
        row
    }
}

/// Propagates source-change batches into a summary table through 2VNL
/// maintenance transactions.
pub struct ViewMaintainer {
    def: SummaryViewDef,
}

/// Counts of logical operations one propagation produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PropagationReport {
    /// Groups newly inserted.
    pub inserts: u64,
    /// Groups updated in place.
    pub updates: u64,
    /// Groups that emptied and were logically deleted.
    pub deletes: u64,
}

impl ViewMaintainer {
    /// Build a maintainer for `def`.
    pub fn new(def: SummaryViewDef) -> Self {
        ViewMaintainer { def }
    }

    /// The view definition.
    pub fn def(&self) -> &SummaryViewDef {
        &self.def
    }

    /// Apply a batch of source deltas inside the given maintenance
    /// transaction: per group, insert / update / delete the summary tuple
    /// (classic incremental aggregate-view maintenance \[GL95\]).
    pub fn propagate(
        &self,
        txn: &MaintenanceTxn<'_>,
        batch: &[SourceDelta],
    ) -> VnlResult<PropagationReport> {
        let deltas = summarize(batch, &self.def.group_cols, self.def.measure_col);
        self.propagate_deltas(txn, &deltas)
    }

    /// Apply pre-summarized group deltas as one page-ordered batch
    /// ([`MaintenanceTxn::apply_batch`]): each group's key is probed once,
    /// its sum and count are read in place from the record's current
    /// image, and a summary row is built only for a group it writes. Deltas
    /// naming one group twice are refused with `VnlError::RepeatedKey`
    /// before any write; [`summarize`] yields one delta per group.
    pub fn propagate_deltas(
        &self,
        txn: &MaintenanceTxn<'_>,
        deltas: &[GroupDelta],
    ) -> VnlResult<PropagationReport> {
        let batch_timer = wh_obs::Timer::start();
        let sum_idx = self.def.group_cols.len();
        let count_idx = sum_idx + 1;
        let mut report = PropagationReport::default();
        let keys: Vec<&[Value]> = deltas.iter().map(|d| d.key.as_slice()).collect();
        txn.apply_batch(&keys, |i, current| {
            let d = &deltas[i];
            Ok(match current {
                // A pure-negative delta on a missing group is a stale source
                // deletion; incremental maintenance drops it.
                None if d.count_delta <= 0 => None,
                None => {
                    report.inserts += 1;
                    let row = self.def.summary_row(&d.key, d.sum_delta, d.count_delta);
                    Some(Write::Insert(row))
                }
                Some(current) => {
                    let sum = current.int(sum_idx).unwrap_or(0) + d.sum_delta;
                    let count = current.int(count_idx).unwrap_or(0) + d.count_delta;
                    if count <= 0 {
                        report.deletes += 1;
                        Some(Write::Delete)
                    } else {
                        report.updates += 1;
                        Some(Write::Update(self.def.summary_row(&d.key, sum, count)))
                    }
                }
            })
        })?;
        wh_obs::histogram!("view.maintainer.batch_ns").record(batch_timer.elapsed_ns());
        wh_obs::counter!("view.maintainer.deltas_applied").add(deltas.len() as u64);
        wh_obs::counter!("view.maintainer.inserts").add(report.inserts);
        wh_obs::counter!("view.maintainer.updates").add(report.updates);
        wh_obs::counter!("view.maintainer.deletes").add(report.deletes);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wh_types::Date;

    /// Source: individual sales (city, state, product_line, date, amount).
    fn source_schema() -> Schema {
        Schema::new(vec![
            Column::new("city", DataType::Char(20)),
            Column::new("state", DataType::Char(2)),
            Column::new("product_line", DataType::Char(12)),
            Column::new("date", DataType::Date),
            Column::new("amount", DataType::Int32),
        ])
        .unwrap()
    }

    fn def() -> SummaryViewDef {
        SummaryViewDef::new(
            source_schema(),
            &["city", "state", "product_line", "date"],
            "amount",
            "total_sales",
        )
        .unwrap()
    }

    fn sale(city: &str, day: u8, amount: i64) -> Row {
        vec![
            Value::from(city),
            Value::from("CA"),
            Value::from("golf equip"),
            Value::from(Date::ymd(1996, 10, day)),
            Value::from(amount),
        ]
    }

    #[test]
    fn summary_schema_matches_daily_sales_shape() {
        let s = def().summary_schema();
        let names: Vec<&str> = s.columns().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "city",
                "state",
                "product_line",
                "date",
                "total_sales",
                "support_count"
            ]
        );
        assert_eq!(s.key(), &[0, 1, 2, 3]);
        assert_eq!(s.updatable_indexes(), vec![4, 5]);
    }

    #[test]
    fn initial_rows_aggregate() {
        let rows =
            def().initial_rows(&[sale("SJ", 14, 100), sale("SJ", 14, 50), sale("B", 14, 10)]);
        assert_eq!(rows.len(), 2);
        let sj = rows.iter().find(|r| r[0] == Value::from("SJ")).unwrap();
        assert_eq!(sj[4], Value::from(150));
        assert_eq!(sj[5], Value::from(2));
    }

    #[test]
    fn propagate_inserts_updates_deletes() {
        let d = def();
        let table = d.create_table("DailySales", 2).unwrap();
        table
            .load_initial(&d.initial_rows(&[sale("SJ", 14, 100), sale("B", 14, 10)]))
            .unwrap();
        let m = ViewMaintainer::new(d);

        let txn = table.begin_maintenance().unwrap();
        let report = m
            .propagate(
                &txn,
                &[
                    SourceDelta::Insert(sale("SJ", 14, 25)),  // update group
                    SourceDelta::Insert(sale("SJ", 15, 400)), // new group
                    SourceDelta::Delete(sale("B", 14, 10)),   // empties group
                ],
            )
            .unwrap();
        assert_eq!(
            report,
            PropagationReport {
                inserts: 1,
                updates: 1,
                deletes: 1
            }
        );
        txn.commit().unwrap();

        let s = table.begin_session();
        let rows = s.scan().unwrap();
        assert_eq!(rows.len(), 2);
        let sj14 = rows
            .iter()
            .find(|r| r[0] == Value::from("SJ") && r[3] == Value::from(Date::ymd(1996, 10, 14)))
            .unwrap();
        assert_eq!(sj14[4], Value::from(125));
        assert_eq!(sj14[5], Value::from(2));
        s.finish();
    }

    #[test]
    fn two_batches_in_one_txn_compose() {
        let d = def();
        let table = d.create_table("DailySales", 2).unwrap();
        table
            .load_initial(&d.initial_rows(&[sale("SJ", 14, 100)]))
            .unwrap();
        let m = ViewMaintainer::new(d);
        let txn = table.begin_maintenance().unwrap();
        m.propagate(&txn, &[SourceDelta::Insert(sale("SJ", 14, 10))])
            .unwrap();
        m.propagate(&txn, &[SourceDelta::Insert(sale("SJ", 14, 5))])
            .unwrap();
        txn.commit().unwrap();
        let s = table.begin_session();
        assert_eq!(s.scan().unwrap()[0][4], Value::from(115));
        s.finish();
    }

    #[test]
    fn group_reborn_after_emptying_resurrects() {
        let d = def();
        let table = d.create_table("DailySales", 2).unwrap();
        table
            .load_initial(&d.initial_rows(&[sale("SJ", 14, 100)]))
            .unwrap();
        let m = ViewMaintainer::new(d);
        // Batch 1: empty the group.
        let txn = table.begin_maintenance().unwrap();
        m.propagate(&txn, &[SourceDelta::Delete(sale("SJ", 14, 100))])
            .unwrap();
        txn.commit().unwrap();
        // Batch 2: the group comes back — a Table 2 row 1 resurrection.
        let txn = table.begin_maintenance().unwrap();
        let report = m
            .propagate(&txn, &[SourceDelta::Insert(sale("SJ", 14, 77))])
            .unwrap();
        assert_eq!(report.inserts, 1);
        txn.commit().unwrap();
        let s = table.begin_session();
        assert_eq!(s.scan().unwrap()[0][4], Value::from(77));
        s.finish();
    }

    #[test]
    fn stale_deletion_of_missing_group_is_ignored() {
        let d = def();
        let table = d.create_table("DailySales", 2).unwrap();
        let m = ViewMaintainer::new(d);
        let txn = table.begin_maintenance().unwrap();
        let report = m
            .propagate(&txn, &[SourceDelta::Delete(sale("Ghost", 14, 5))])
            .unwrap();
        assert_eq!(report, PropagationReport::default());
        txn.commit().unwrap();
    }

    #[test]
    fn incremental_equals_recompute_from_scratch() {
        // Property-flavored check: applying two batches incrementally gives
        // the same summary as recomputing over all source rows.
        let d = def();
        let batch1: Vec<Row> = (0..20).map(|i| sale("SJ", 14, i * 3 + 1)).collect();
        let batch2: Vec<Row> = (0..10).map(|i| sale("B", 15, i + 100)).collect();
        let table = d.create_table("DailySales", 2).unwrap();
        table.load_initial(&d.initial_rows(&batch1)).unwrap();
        let m = ViewMaintainer::new(d.clone());
        let txn = table.begin_maintenance().unwrap();
        let deltas: Vec<SourceDelta> = batch2.iter().cloned().map(SourceDelta::Insert).collect();
        m.propagate(&txn, &deltas).unwrap();
        txn.commit().unwrap();

        let mut all = batch1;
        all.extend(batch2);
        let mut expected = d.initial_rows(&all);
        expected.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        let s = table.begin_session();
        let mut got = s.scan().unwrap();
        got.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        assert_eq!(got, expected);
        s.finish();
    }
}
