//! A warehouse: many materialized views under **one** global version.
//!
//! The paper's setting is a warehouse containing "many materialized views"
//! (§1), all refreshed by the *same* periodic maintenance transaction and
//! all read by the *same* analyst sessions — so `currentVN` /
//! `maintenanceActive` are warehouse-wide, not per-relation. [`Warehouse`]
//! assembles multiple [`VnlTable`]s over one shared [`VersionState`]:
//! a [`WarehouseTxn`] stamps every table with the same `maintenanceVN` and
//! publishes the commit once; a [`WarehouseSession`] pins every table at the
//! same `sessionVN`, so queries spanning views stay mutually consistent.

use crate::error::{VnlError, VnlResult};
use crate::gc::{self, GcReport};
use crate::maintenance::MaintenanceTxn;
use crate::reader::ReaderSession;
use crate::table::VnlTable;
use crate::version::{VersionNo, VersionState};
use std::sync::Arc;
use wh_storage::IoStats;
use wh_types::Schema;

/// Builder for a fixed set of warehouse views.
pub struct WarehouseBuilder {
    version: Arc<VersionState>,
    io: Arc<IoStats>,
    tables: Vec<Arc<VnlTable>>,
}

impl WarehouseBuilder {
    /// Start a new warehouse definition.
    pub fn new() -> VnlResult<Self> {
        let io = Arc::new(IoStats::new());
        let version = Arc::new(VersionState::new(Arc::clone(&io))?);
        Ok(WarehouseBuilder {
            version,
            io,
            tables: Vec::new(),
        })
    }

    /// Add a view with `n` versions (tables in one warehouse may use
    /// different `n`; the session-liveness check uses each table's own).
    pub fn table(mut self, name: &str, schema: Schema, n: usize) -> VnlResult<Self> {
        if self.tables.iter().any(|t| t.name() == name) {
            return Err(VnlError::Sql(wh_sql::SqlError::TableExists(name.into())));
        }
        let table = VnlTable::create_shared(
            name,
            schema,
            n,
            Arc::clone(&self.version),
            Arc::clone(&self.io),
        )?;
        self.tables.push(Arc::new(table));
        Ok(self)
    }

    /// Finalize the warehouse.
    pub fn build(self) -> Warehouse {
        Warehouse {
            version: self.version,
            io: self.io,
            tables: self.tables,
        }
    }
}

impl std::fmt::Debug for WarehouseBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarehouseBuilder")
            .field("tables", &self.tables.len())
            .finish()
    }
}

/// A set of 2VNL/nVNL views sharing one global version state.
pub struct Warehouse {
    version: Arc<VersionState>,
    io: Arc<IoStats>,
    tables: Vec<Arc<VnlTable>>,
}

impl Warehouse {
    /// Look up a view by name.
    pub fn table(&self, name: &str) -> VnlResult<&VnlTable> {
        self.tables
            .iter()
            .find(|t| t.name() == name)
            .map(Arc::as_ref)
            .ok_or_else(|| VnlError::Sql(wh_sql::SqlError::NoSuchTable(name.into())))
    }

    /// All views.
    pub fn tables(&self) -> impl Iterator<Item = &VnlTable> {
        self.tables.iter().map(Arc::as_ref)
    }

    /// The shared global version state.
    pub fn version(&self) -> &VersionState {
        &self.version
    }

    /// Shared logical-I/O counters.
    pub fn io(&self) -> &Arc<IoStats> {
        &self.io
    }

    /// Begin the warehouse-wide maintenance transaction: one
    /// `maintenanceVN` stamped on every view.
    pub fn begin_maintenance(&self) -> VnlResult<WarehouseTxn<'_>> {
        let vn = self.version.begin_maintenance()?;
        let txns = self
            .tables
            .iter()
            .map(|t| t.begin_maintenance_at(vn))
            .collect();
        Ok(WarehouseTxn {
            warehouse: self,
            vn,
            txns,
            finished: false,
        })
    }

    /// Begin a warehouse-wide reader session: every view pinned at the same
    /// `sessionVN`, so cross-view queries are mutually consistent.
    pub fn begin_session(&self) -> WarehouseSession<'_> {
        let vn = self.version.snapshot().current_vn;
        let sessions = self.tables.iter().map(|t| t.begin_session_at(vn)).collect();
        WarehouseSession {
            warehouse: self,
            vn,
            sessions,
        }
    }

    /// Garbage-collect every view (§7).
    pub fn collect_garbage(&self) -> VnlResult<GcReport> {
        let mut total = GcReport::default();
        for t in &self.tables {
            let r = gc::collect(t)?;
            total.scanned += r.scanned;
            total.reclaimed += r.reclaimed;
            total.bytes_reclaimed += r.bytes_reclaimed;
            total.released += r.released;
        }
        Ok(total)
    }
}

impl std::fmt::Debug for Warehouse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Warehouse")
            .field("tables", &self.tables.len())
            .field("current_vn", &self.version.snapshot().current_vn)
            .finish()
    }
}

/// The warehouse-wide maintenance transaction.
pub struct WarehouseTxn<'w> {
    warehouse: &'w Warehouse,
    vn: VersionNo,
    txns: Vec<MaintenanceTxn<'w>>,
    finished: bool,
}

impl<'w> WarehouseTxn<'w> {
    /// This transaction's `maintenanceVN`.
    pub fn maintenance_vn(&self) -> VersionNo {
        self.vn
    }

    /// The per-view maintenance handle for `name`.
    pub fn on(&self, name: &str) -> VnlResult<&MaintenanceTxn<'w>> {
        let idx = self
            .warehouse
            .tables
            .iter()
            .position(|t| t.name() == name)
            .ok_or_else(|| VnlError::Sql(wh_sql::SqlError::NoSuchTable(name.into())))?;
        Ok(&self.txns[idx])
    }

    /// Commit the whole warehouse transaction: all per-view changes become
    /// visible atomically with the single `currentVN` flip (§4), retaining
    /// one net-effect batch for session repair with each view's rows under
    /// its own name.
    pub fn commit(mut self) -> VnlResult<()> {
        // Capture before any txn flips to finished: a fault mid-capture
        // leaves every per-view txn open, so Drop rolls the whole
        // warehouse transaction back and nothing is published.
        let mut batch = crate::delta::DeltaBatch::empty(self.vn);
        for txn in &self.txns {
            txn.capture_net_effect(&mut batch)?;
        }
        for txn in &self.txns {
            txn.commit_local()?;
        }
        self.finished = true;
        self.warehouse.version.publish_commit(self.vn, batch)?;
        Ok(())
    }

    /// Abort the whole warehouse transaction (log-free rollback on every
    /// view, one flag flip).
    pub fn abort(mut self) -> VnlResult<()> {
        for txn in &self.txns {
            txn.abort_local()?;
        }
        self.finished = true;
        self.warehouse.version.publish_abort()?;
        Ok(())
    }
}

impl std::fmt::Debug for WarehouseTxn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarehouseTxn")
            .field("vn", &self.vn)
            .field("tables", &self.txns.len())
            .finish()
    }
}

impl Drop for WarehouseTxn<'_> {
    fn drop(&mut self) {
        if !self.finished {
            for txn in &self.txns {
                let _ = txn.abort_local();
            }
            let _ = self.warehouse.version.publish_abort();
        }
    }
}

/// A warehouse-wide reader session.
pub struct WarehouseSession<'w> {
    warehouse: &'w Warehouse,
    vn: VersionNo,
    sessions: Vec<ReaderSession<'w>>,
}

impl<'w> WarehouseSession<'w> {
    /// The session's pinned version.
    pub fn session_vn(&self) -> VersionNo {
        self.vn
    }

    /// The per-view session for `name`.
    pub fn on(&self, name: &str) -> VnlResult<&ReaderSession<'w>> {
        let idx = self
            .warehouse
            .tables
            .iter()
            .position(|t| t.name() == name)
            .ok_or_else(|| VnlError::Sql(wh_sql::SqlError::NoSuchTable(name.into())))?;
        Ok(&self.sessions[idx])
    }

    /// Run a SELECT against whichever view its FROM clause names.
    pub fn query(&self, sql: &str) -> VnlResult<wh_sql::QueryResult> {
        let stmt = wh_sql::parse_statement(sql)?;
        let wh_sql::Statement::Select(select) = stmt else {
            return Err(VnlError::Sql(wh_sql::SqlError::Unsupported(
                "warehouse sessions are read-only".into(),
            )));
        };
        self.on(&select.from)?.query_stmt(&select)
    }

    /// End the session on every view.
    pub fn finish(self) {
        for s in self.sessions {
            s.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wh_types::{Column, DataType, Value};

    fn daily_schema() -> Schema {
        Schema::with_key_names(
            vec![
                Column::new("city", DataType::Char(16)),
                Column::updatable("total", DataType::Int64),
            ],
            &["city"],
        )
        .unwrap()
    }

    fn monthly_schema() -> Schema {
        Schema::with_key_names(
            vec![
                Column::new("product", DataType::Char(16)),
                Column::updatable("total", DataType::Int64),
            ],
            &["product"],
        )
        .unwrap()
    }

    fn warehouse() -> Warehouse {
        let w = WarehouseBuilder::new()
            .unwrap()
            .table("CitySales", daily_schema(), 2)
            .unwrap()
            .table("ProductSales", monthly_schema(), 2)
            .unwrap()
            .build();
        w.table("CitySales")
            .unwrap()
            .load_initial(&[vec![Value::from("SJ"), Value::from(100)]])
            .unwrap();
        w.table("ProductSales")
            .unwrap()
            .load_initial(&[vec![Value::from("golf"), Value::from(100)]])
            .unwrap();
        w
    }

    #[test]
    fn duplicate_table_rejected() {
        let err = WarehouseBuilder::new()
            .unwrap()
            .table("A", daily_schema(), 2)
            .unwrap()
            .table("A", monthly_schema(), 2)
            .unwrap_err();
        assert!(matches!(
            err,
            VnlError::Sql(wh_sql::SqlError::TableExists(_))
        ));
    }

    #[test]
    fn cross_view_atomic_commit() {
        let w = warehouse();
        let session = w.begin_session(); // sees (100, 100)
        let txn = w.begin_maintenance().unwrap();
        txn.on("CitySales")
            .unwrap()
            .update_row(&vec![Value::from("SJ"), Value::from(150)])
            .unwrap();
        txn.on("ProductSales")
            .unwrap()
            .update_row(&vec![Value::from("golf"), Value::from(150)])
            .unwrap();
        // Mid-transaction: the session reads old values from BOTH views.
        let a = session.query("SELECT total FROM CitySales").unwrap();
        let b = session.query("SELECT total FROM ProductSales").unwrap();
        assert_eq!(a.rows[0][0], Value::from(100));
        assert_eq!(b.rows[0][0], Value::from(100));
        txn.commit().unwrap();
        // Post-commit: STILL both old (same session) — never one-old-one-new.
        let a = session.query("SELECT total FROM CitySales").unwrap();
        let b = session.query("SELECT total FROM ProductSales").unwrap();
        assert_eq!(a.rows[0][0], Value::from(100));
        assert_eq!(b.rows[0][0], Value::from(100));
        session.finish();
        // The retained batch keeps each view's rows under its own name.
        let window = w.version().delta_window(1, 2).unwrap();
        for (view, key) in [("CitySales", "SJ"), ("ProductSales", "golf")] {
            let rows: Vec<_> = window[0].rows_for(view).collect();
            assert_eq!(rows.len(), 1, "{view}");
            assert_eq!(rows[0].key, [Value::from(key)], "{view}");
            assert_eq!(rows[0].post.as_ref().unwrap()[1], Value::from(150));
        }
        // A new session sees both new.
        let s2 = w.begin_session();
        let a = s2.query("SELECT total FROM CitySales").unwrap();
        let b = s2.query("SELECT total FROM ProductSales").unwrap();
        assert_eq!(a.rows[0][0], Value::from(150));
        assert_eq!(b.rows[0][0], Value::from(150));
        s2.finish();
    }

    #[test]
    fn warehouse_abort_rolls_back_every_view() {
        let w = warehouse();
        let txn = w.begin_maintenance().unwrap();
        txn.on("CitySales")
            .unwrap()
            .update_row(&vec![Value::from("SJ"), Value::from(999)])
            .unwrap();
        txn.on("ProductSales")
            .unwrap()
            .insert(vec![Value::from("tennis"), Value::from(5)])
            .unwrap();
        txn.abort().unwrap();
        let s = w.begin_session();
        assert_eq!(
            s.query("SELECT total FROM CitySales").unwrap().rows[0][0],
            Value::from(100)
        );
        assert_eq!(
            s.query("SELECT COUNT(*) FROM ProductSales").unwrap().rows[0][0],
            Value::from(1)
        );
        s.finish();
        // Version number unchanged; next txn reuses it.
        assert_eq!(w.begin_maintenance().unwrap().maintenance_vn(), 2);
    }

    #[test]
    fn single_global_version_across_views() {
        let w = warehouse();
        let txn = w.begin_maintenance().unwrap();
        assert_eq!(txn.maintenance_vn(), 2);
        txn.commit().unwrap();
        // Both tables observe the same currentVN through the shared state.
        assert_eq!(
            w.table("CitySales")
                .unwrap()
                .version()
                .snapshot()
                .current_vn,
            2
        );
        assert_eq!(
            w.table("ProductSales")
                .unwrap()
                .version()
                .snapshot()
                .current_vn,
            2
        );
        // One maintenance at a time, warehouse-wide.
        let t1 = w.begin_maintenance().unwrap();
        assert!(matches!(
            w.begin_maintenance().unwrap_err(),
            VnlError::MaintenanceAlreadyActive
        ));
        // Even directly on a member table.
        assert!(matches!(
            w.table("CitySales")
                .unwrap()
                .begin_maintenance()
                .unwrap_err(),
            VnlError::MaintenanceAlreadyActive
        ));
        t1.commit().unwrap();
    }

    #[test]
    fn dropped_warehouse_txn_auto_aborts() {
        let w = warehouse();
        {
            let txn = w.begin_maintenance().unwrap();
            txn.on("CitySales")
                .unwrap()
                .update_row(&vec![Value::from("SJ"), Value::from(1)])
                .unwrap();
        }
        assert!(!w.version().snapshot().maintenance_active);
        let s = w.begin_session();
        assert_eq!(
            s.query("SELECT total FROM CitySales").unwrap().rows[0][0],
            Value::from(100)
        );
        s.finish();
    }

    #[test]
    fn warehouse_gc_sweeps_all_views() {
        let w = warehouse();
        let txn = w.begin_maintenance().unwrap();
        txn.on("CitySales")
            .unwrap()
            .delete_row(&vec![Value::from("SJ"), Value::Null])
            .unwrap();
        txn.on("ProductSales")
            .unwrap()
            .delete_row(&vec![Value::from("golf"), Value::Null])
            .unwrap();
        txn.commit().unwrap();
        let report = w.collect_garbage().unwrap();
        assert_eq!(report.reclaimed, 2);
        // No reader holds an epoch pin, so each table's pass releases the
        // slot it retired: the warehouse total is the per-table sum.
        assert_eq!(report.released, 2);
    }

    #[test]
    fn unknown_table_errors() {
        let w = warehouse();
        assert!(w.table("Nope").is_err());
        let s = w.begin_session();
        assert!(s.query("SELECT * FROM Nope").is_err());
        s.finish();
        let txn = w.begin_maintenance().unwrap();
        assert!(txn.on("Nope").is_err());
        txn.commit().unwrap();
    }
}
