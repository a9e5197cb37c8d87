//! [`VnlTable`] — a relation maintained under 2VNL/nVNL.

use crate::error::{VnlError, VnlResult};
use crate::maintenance::{locked, MaintenanceTxn};
use crate::reader::ReaderSession;
use crate::rewrite::QueryRewriter;
use crate::scan::{stamp_at, BatchClasses, BatchScanner, Classified, StrPool};
use crate::schema_ext::ExtLayout;
use crate::version::{Operation, VersionNo, VersionState};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, RwLock};
use wh_index::{IndexKey, KeyDirectory, OrderedIndex};
use wh_storage::batch::RecordBatch;
use wh_storage::{IoStats, Rid, StorageError, Table};
use wh_types::{Row, Schema, Value};

/// A named secondary index over non-updatable base attributes (§4.3).
pub struct SecondaryIndex {
    name: String,
    /// Base-schema positions of the indexed columns.
    base_cols: Vec<usize>,
    /// Extended-schema positions (what the stored rows are keyed by).
    ext_cols: Vec<usize>,
    index: OrderedIndex,
}

impl SecondaryIndex {
    /// Index name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Indexed base-column positions.
    pub fn base_cols(&self) -> &[usize] {
        &self.base_cols
    }

    /// Drop the entry for (`ext_row`, `rid`); missing entries are ignored.
    /// For callers working from an [`VnlTable::indexes_snapshot`] while
    /// holding a page latch.
    pub(crate) fn remove_entry(&self, ext_row: &[Value], rid: Rid) {
        let _ = self.index.remove(ext_row, rid);
    }
}

/// A warehouse relation stored under the nVNL scheme (`n = 2` gives the
/// paper's 2VNL).
///
/// The physical table uses the §3.1-extended schema; maintenance
/// transactions ([`VnlTable::begin_maintenance`]) and reader sessions
/// ([`VnlTable::begin_session`]) coordinate purely through version numbers —
/// no locks beyond the storage layer's per-page latches.
pub struct VnlTable {
    name: String,
    layout: ExtLayout,
    storage: Table,
    /// The full-row scanner with no filter, built once; its specs are
    /// exactly the version stamps [`VnlTable::walk_stamps`] gathers.
    rows: BatchScanner,
    /// Physical unique-key directory over the extended rows (logical deletes
    /// keep their key registered — exactly why Table 2's conflict rows
    /// exist).
    key_dir: Option<KeyDirectory>,
    /// Shared with every other table of the same warehouse: §3's global
    /// `currentVN` / `maintenanceActive` pair is warehouse-wide, not
    /// per-relation.
    version: Arc<VersionState>,
    io: Arc<IoStats>,
    rewriter: QueryRewriter,
    /// Active sessions: id → sessionVN. Feeds GC and commit policies.
    sessions: Mutex<HashMap<u64, VersionNo>>,
    next_session: AtomicU64,
    /// Sessions that expired and were notified (statistics).
    expired_notifications: AtomicU64,
    /// §4.3 secondary indexes (non-updatable attributes only).
    indexes: RwLock<Vec<Arc<SecondaryIndex>>>,
    /// The *effective* version window `n_eff ∈ [2, layout.n()]` consulted
    /// by the §4.1 global check and the maintenance pacer. The physical
    /// slot mechanics (Table 1 extraction, `push_back`, rollback) always
    /// use the provisioned `layout.n()`, so `n_eff` is strictly a
    /// conservative admission bound — see [`crate::resilience::adaptive`].
    /// The cell is a verified kernel (`wh_kernel::adaptive`), explored
    /// exhaustively against the global check by the wh-kernel model suite.
    effective_n: wh_kernel::adaptive::EffectiveWindow,
    /// Epoch-based reclamation domain: read operations pin an epoch while
    /// they follow RIDs into the heap; GC retires victims' RIDs and
    /// releases their slots only after the grace period. See
    /// [`crate::epoch::EpochDomain`].
    epochs: crate::epoch::EpochDomain,
    /// Durable-reclamation ceiling: GC may physically reclaim a
    /// logically-deleted tuple only when its delete VN is `≤` this value.
    /// In-memory tables keep it at `u64::MAX` (no constraint); durable
    /// tables hold it at the VN of the last *completed* checkpoint, because
    /// the §7 recovery pass reconstructs state from checkpoint + slots
    /// alone — a tuple physically gone from a dirty page but still present
    /// in the checkpoint image would resurrect with no slot history to
    /// roll it forward. See [`crate::durable::checkpoint`].
    gc_ceiling: AtomicU64,
    /// Committed logical deletes not yet reclaimed, as `(deleteVN, RID)`:
    /// what [`crate::gc::collect`] visits instead of the relation. In memory
    /// only, and bounded by the deleted tuples the heap already stores.
    deletes: Mutex<BTreeSet<(VersionNo, Rid)>>,
}

impl VnlTable {
    /// Create an empty nVNL table over `base_schema` with `n ≥ 2` versions,
    /// named "R" by default (see [`VnlTable::create_named`]).
    pub fn create(base_schema: Schema, n: usize) -> VnlResult<Self> {
        Self::create_named("R", base_schema, n)
    }

    /// Create an empty nVNL table with an explicit relation name (used to
    /// resolve SQL statements against it).
    pub fn create_named(name: impl Into<String>, base_schema: Schema, n: usize) -> VnlResult<Self> {
        let io = Arc::new(IoStats::new());
        let version = Arc::new(VersionState::new(Arc::clone(&io))?);
        Self::create_shared(name, base_schema, n, version, io)
    }

    /// Create a table from a `CREATE TABLE` statement (our dialect's
    /// `UPDATABLE` column flag marks §3.1's updatable attributes):
    ///
    /// ```
    /// use wh_vnl::VnlTable;
    /// let t = VnlTable::create_from_sql(
    ///     "CREATE TABLE DailySales (
    ///        city CHAR(20), state CHAR(2), product_line CHAR(12), date DATE,
    ///        total_sales INT UPDATABLE,
    ///        PRIMARY KEY (city, state, product_line, date))",
    ///     2,
    /// ).unwrap();
    /// assert_eq!(t.name(), "DailySales");
    /// assert_eq!(t.layout().base_schema().payload_width(), 42); // Figure 3
    /// ```
    pub fn create_from_sql(sql: &str, n: usize) -> VnlResult<Self> {
        let stmt = wh_sql::parse_statement(sql)?;
        let wh_sql::Statement::CreateTable(ct) = stmt else {
            return Err(VnlError::Sql(wh_sql::SqlError::Unsupported(
                "expected a CREATE TABLE statement".into(),
            )));
        };
        let columns: Vec<wh_types::Column> = ct
            .columns
            .iter()
            .map(|c| wh_types::Column {
                name: c.name.clone(),
                ty: c.ty,
                updatable: c.updatable,
            })
            .collect();
        let key_refs: Vec<&str> = ct.key.iter().map(String::as_str).collect();
        let schema = Schema::with_key_names(columns, &key_refs)?;
        Self::create_named(ct.name, schema, n)
    }

    /// Create a table that shares a warehouse-wide [`VersionState`] and I/O
    /// counters with other tables (see [`crate::warehouse::Warehouse`]).
    pub fn create_shared(
        name: impl Into<String>,
        base_schema: Schema,
        n: usize,
        version: Arc<VersionState>,
        io: Arc<IoStats>,
    ) -> VnlResult<Self> {
        let layout = ExtLayout::new(base_schema, n)?;
        let storage = Table::create("ext", layout.ext_schema().clone(), Arc::clone(&io))?;
        Self::from_parts(name, layout, storage, version, io)
    }

    /// Assemble a table around an existing physical [`Table`] (freshly
    /// created, or reopened from disk by [`crate::durable`]). The key
    /// directory is an in-memory structure — it is *not* persisted — so it
    /// is rebuilt here by scanning every physical tuple, logical deletes
    /// included (their keys stay registered; that is exactly why Table 2's
    /// conflict rows exist).
    pub(crate) fn from_parts(
        name: impl Into<String>,
        layout: ExtLayout,
        storage: Table,
        version: Arc<VersionState>,
        io: Arc<IoStats>,
    ) -> VnlResult<Self> {
        let n = layout.n();
        let key_dir = KeyDirectory::for_schema(layout.ext_schema());
        let rewriter = QueryRewriter::new(layout.clone());
        let table = VnlTable {
            name: name.into(),
            rows: BatchScanner::new(&layout, storage.codec(), None),
            layout,
            storage,
            key_dir,
            version,
            io,
            rewriter,
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            expired_notifications: AtomicU64::new(0),
            indexes: RwLock::new(Vec::new()),
            effective_n: wh_kernel::adaptive::EffectiveWindow::new(n),
            epochs: crate::epoch::EpochDomain::new(),
            gc_ceiling: AtomicU64::new(u64::MAX),
            deletes: Mutex::new(BTreeSet::new()),
        };
        table.rebuild_key_dir()?;
        Ok(table)
    }

    /// Re-register every physical tuple in the key directory and storage
    /// gauges, and every logical delete in GC's record — a no-op on a freshly
    /// created (empty) table, the directory recovery step on a reopened one.
    fn rebuild_key_dir(&self) -> VnlResult<()> {
        // lint: allow(epoch-discipline) — runs inside from_parts, before the table is shared: no GC pass or reader can reclaim or reuse a RID until it returns
        self.walk_stamps(|t| {
            if t.op == Operation::Delete {
                self.note_deletes([(t.vn, t.rid)]);
            }
            let ext = t.decode()?;
            if let Some(dir) = &self.key_dir {
                dir.register(&ext, t.rid).map_err(|_| {
                    VnlError::Storage(StorageError::Corrupt(format!(
                        "duplicate key on reopen: {:?}",
                        self.layout.ext_schema().key_of(&ext)
                    )))
                })?;
            }
            self.on_physical_insert(&ext, t.rid);
            Ok(())
        })
    }

    /// The durable-reclamation ceiling consulted by [`crate::gc::collect`]:
    /// the newest delete VN GC may physically reclaim. `u64::MAX` for
    /// in-memory tables.
    pub fn gc_reclaim_ceiling(&self) -> VersionNo {
        self.gc_ceiling.load(Ordering::Acquire) // ordering: gc-ceiling Acquire — pairs with the checkpoint’s Release publish of the new ceiling
    }

    /// Set the durable-reclamation ceiling (called by [`crate::durable`]
    /// at table creation, after every completed checkpoint, and after
    /// recovery).
    pub(crate) fn set_gc_reclaim_ceiling(&self, vn: VersionNo) {
        self.gc_ceiling.store(vn, Ordering::Release); // ordering: gc-ceiling Release — publishes the checkpoint VN the GC gate Acquires
    }

    /// Record logical deletes for GC. Commit capture, a rollback that puts
    /// a delete back into slot 0, and the reopen walk call this; an entry
    /// whose tuple has since changed is harmless, as GC re-verifies slot 0.
    pub(crate) fn note_deletes(&self, deletes: impl IntoIterator<Item = (VersionNo, Rid)>) {
        locked(&self.deletes).extend(deletes);
    }

    /// Take the recorded deletes stamped `≤ bound`, oldest first.
    pub(crate) fn take_deletes(&self, bound: VersionNo) -> BTreeSet<(VersionNo, Rid)> {
        let mut deletes = locked(&self.deletes);
        let newer = deletes.split_off(&(bound.saturating_add(1), Rid::new(0, 0)));
        std::mem::replace(&mut *deletes, newer)
    }

    /// Whether this table's heap is disk-backed (created or reopened
    /// through [`crate::durable`]).
    pub fn is_durable(&self) -> bool {
        self.storage.heap().is_durable()
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The extension layout (schemas and column mappings).
    pub fn layout(&self) -> &ExtLayout {
        &self.layout
    }

    /// The physical storage table (extended schema).
    pub fn storage(&self) -> &Table {
        &self.storage
    }

    /// The physical key directory, when the base schema declares a key.
    pub(crate) fn key_dir(&self) -> Option<&KeyDirectory> {
        self.key_dir.as_ref()
    }

    /// Global version state.
    pub fn version(&self) -> &VersionState {
        self.version.as_ref()
    }

    /// Shared logical-I/O counters.
    pub fn io(&self) -> &Arc<IoStats> {
        &self.io
    }

    /// The query rewriter configured for this table's layout (§4).
    pub fn rewriter(&self) -> &QueryRewriter {
        &self.rewriter
    }

    /// The table's epoch-reclamation domain (pins, retires, releases).
    pub(crate) fn epochs(&self) -> &crate::epoch::EpochDomain {
        &self.epochs
    }

    /// Retired tuples still waiting out their epoch grace period before
    /// their slots can be reused (GC telemetry).
    pub fn retired_backlog(&self) -> usize {
        self.epochs.backlog()
    }

    /// Bulk-load rows before the warehouse goes live: tuples are stamped
    /// `(currentVN, insert)`. Only allowed while no maintenance transaction
    /// and no reader sessions exist.
    pub fn load_initial(&self, rows: &[Row]) -> VnlResult<()> {
        let snap = self.version.snapshot();
        if snap.maintenance_active {
            return Err(VnlError::MaintenanceAlreadyActive);
        }
        if !locked(&self.sessions).is_empty() {
            return Err(VnlError::KeyRequired(
                "load_initial requires no active sessions",
            ));
        }
        for row in rows {
            let ext = self.layout.new_insert_row(row, snap.current_vn);
            let rid = self.storage.insert(&ext)?;
            if let Some(dir) = &self.key_dir {
                dir.register(&ext, rid).map_err(|_| {
                    // Roll the physical insert back so the table stays clean.
                    let _ = self.storage.delete(rid);
                    VnlError::NoSuchTuple(format!(
                        "duplicate key in initial load: {:?}",
                        self.layout.ext_schema().key_of(&ext)
                    ))
                })?;
            }
            self.on_physical_insert(&ext, rid);
        }
        Ok(())
    }

    /// Begin the (single) maintenance transaction.
    pub fn begin_maintenance(&self) -> VnlResult<MaintenanceTxn<'_>> {
        let vn = self.version.begin_maintenance()?;
        Ok(MaintenanceTxn::new(self, vn))
    }

    /// Begin a per-table maintenance handle at an externally-assigned
    /// `maintenanceVN` — used by [`crate::warehouse::WarehouseTxn`], which
    /// owns the global begin/commit protocol across many tables. The handle
    /// must be finished through the warehouse transaction, not directly.
    pub(crate) fn begin_maintenance_at(&self, vn: VersionNo) -> MaintenanceTxn<'_> {
        MaintenanceTxn::new(self, vn)
    }

    /// The effective version window consulted by the §4.1 global check and
    /// the maintenance pacer. Equals [`ExtLayout::n`] unless an
    /// [`crate::resilience::AdaptiveN`] controller (or a direct
    /// [`VnlTable::set_effective_n`]) narrowed or re-widened it.
    pub fn effective_n(&self) -> usize {
        self.effective_n.get()
    }

    /// Set the effective window, clamped to `[2, layout.n()]`. Narrowing
    /// expires trailing sessions earlier than the physical slots strictly
    /// require (bounding staleness); widening readmits sessions the slots
    /// still support. Neither direction affects Table 1 extraction.
    pub fn set_effective_n(&self, n: usize) -> usize {
        let clamped = self.effective_n.set(n);
        wh_obs::gauge!("vnl.resilience.effective_n").set(clamped as i64);
        clamped
    }

    /// Begin a reader session at the current database version.
    pub fn begin_session(&self) -> ReaderSession<'_> {
        let vn = self.version.snapshot().current_vn;
        self.begin_session_at(vn)
    }

    /// Begin a *leased* reader session declaring about `hint` of expected
    /// remaining work. The lease registers this session's VN with the
    /// warehouse-wide [`VersionState`] so a
    /// [`crate::resilience::MaintenancePacer`] can hold the version flip
    /// (or revoke the lease) instead of expiring the reader blindly. Renew
    /// through [`ReaderSession::renew_lease`] as work progresses.
    pub fn begin_leased_session(&self, hint: std::time::Duration) -> ReaderSession<'_> {
        let vn = self.version.snapshot().current_vn;
        let mut session = self.begin_session_at(vn);
        session.set_lease(self.version.leases().register(vn, hint));
        session
    }

    /// Begin a reader session pinned at an externally-chosen version (used
    /// by warehouse-wide sessions so every table reads the same `sessionVN`).
    pub(crate) fn begin_session_at(&self, vn: VersionNo) -> ReaderSession<'_> {
        let id = self.next_session.fetch_add(1, Ordering::Relaxed); // ordering: id-alloc Relaxed — unique-ID allocation; only atomicity of the increment matters
        let active = {
            let mut sessions = locked(&self.sessions);
            sessions.insert(id, vn);
            sessions.len()
        };
        wh_obs::counter!("vnl.reader.sessions").inc();
        wh_obs::gauge!("vnl.reader.active_sessions").set(active as i64);
        ReaderSession::new(self, id, vn)
    }

    pub(crate) fn end_session(&self, id: u64) {
        let active = {
            let mut sessions = locked(&self.sessions);
            sessions.remove(&id);
            sessions.len()
        };
        wh_obs::gauge!("vnl.reader.active_sessions").set(active as i64);
    }

    pub(crate) fn note_expiration(&self) {
        self.expired_notifications.fetch_add(1, Ordering::Relaxed); // ordering: stat-counter Relaxed — independent event counter; read only for reporting
        wh_obs::counter!("vnl.reader.expirations").inc();
        // §4.1 verdict feeds the sliding-window SLO, which doubles as the
        // expire-storm flight-recorder trigger, and leaves a causal event
        // in whatever trace the failing read is running under.
        wh_obs::slo::note_expiration();
        wh_obs::trace_event!("vnl.session.expired");
    }

    /// Build the enriched [`VnlError::SessionExpired`] for a session of
    /// this table: every raise site reports how far `currentVN` had moved
    /// and which relation detected it.
    pub(crate) fn expired_error(&self, session_vn: VersionNo) -> VnlError {
        VnlError::SessionExpired {
            session_vn,
            current_vn: self.version.current_vn_relaxed(),
            table: Some(self.name.clone()),
        }
    }

    /// The recovery-fence check, applied when a read *completes*: a crash
    /// recovery that reconstructed slots this session cannot be served from
    /// exactly raised [`VersionState::recovery_floor`] before mutating, so
    /// a scan in flight across the recovery expires here instead of
    /// returning reconstructed values. (See [`crate::recover`].)
    pub(crate) fn fence_check(&self, session_vn: VersionNo) -> VnlResult<()> {
        if session_vn < self.version.recovery_floor() {
            self.note_expiration();
            return Err(self.expired_error(session_vn));
        }
        Ok(())
    }

    /// How many sessions have been notified of expiration so far.
    pub fn expired_session_count(&self) -> u64 {
        self.expired_notifications.load(Ordering::Relaxed) // ordering: stat-counter Relaxed — statistical read; tearing across cells is acceptable
    }

    /// Number of currently active reader sessions.
    pub fn active_session_count(&self) -> usize {
        locked(&self.sessions).len()
    }

    /// The smallest `sessionVN` among active sessions, if any.
    pub fn min_active_session_vn(&self) -> Option<VersionNo> {
        locked(&self.sessions).values().copied().min()
    }

    /// Read one tuple as seen by `session_vn` (point lookup via the key
    /// directory). `Ok(None)` when the tuple is logically absent.
    pub(crate) fn read_visible_by_key(
        &self,
        key_row: &[Value],
        session_vn: VersionNo,
    ) -> VnlResult<Option<Row>> {
        if self.key_dir.is_none() {
            return Err(VnlError::KeyRequired("point lookup"));
        }
        // The pin spans probe → fetch: GC may retire the tuple between the
        // two, but cannot release (reuse) its slot while we hold the epoch.
        let _pin = self.epochs.pin();
        let resolved = match self.find_physical(key_row) {
            Some(rid) => self.read_visible(rid, session_vn)?,
            None => None,
        };
        // Checked when absent too: a recovery may have physically removed
        // a tuple whose pre-values this session should still see.
        self.fence_check(session_vn)?;
        Ok(resolved)
    }

    /// The tuple at `rid` as `session_vn` sees it, classified by the scan
    /// kernel on its encoded record and decoded only if visible; `Ok(None)`
    /// when absent or reclaimed by GC since the caller's probe. An expired
    /// tuple is counted and raised. The caller pins across probe and fetch
    /// and runs [`VnlTable::fence_check`] when its read completes.
    pub(crate) fn read_visible(&self, rid: Rid, session_vn: VersionNo) -> VnlResult<Option<Row>> {
        let rec = match self.storage.heap().read(rid) {
            Ok(rec) => rec,
            Err(StorageError::NoSuchSlot { .. }) => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        // One record: the empty pool decodes its strings without interning.
        let mut pool = StrPool::default();
        match self.rows.classify_record(&rec, session_vn)? {
            Classified::Ignore => Ok(None),
            Classified::Expired => {
                self.note_expiration();
                Err(self.expired_error(session_vn))
            }
            visible => Ok(Some(self.rows.decode_visible(&rec, visible, &mut pool)?)),
        }
    }

    /// The cached full-row scanner with no filter.
    pub(crate) fn rows(&self) -> &BatchScanner {
        &self.rows
    }

    /// One partition of a scan — the only scan loop there is. Under its own
    /// epoch pin, the heap copies each page of `pages` out under a short
    /// latch hold and gathers the version fields into column-strided arrays,
    /// `scanner` classifies the whole page branch-free into a selection
    /// bitmap (Table 1, including the per-tuple expiration detector of
    /// §3.2), and `on_batch` consumes the classified page: row delivery
    /// ([`BatchScanner::visit_selected`]) or a bare count of the bitmap.
    /// Classification state and the string pool are the partition's own.
    ///
    /// A partition stops at the first expired tuple or `on_batch` error and
    /// raises `halt` so its peers stop at their next page; a partition that
    /// stops for a peer reports `Ok`, because the peer reports the error.
    fn scan_partition<F>(
        &self,
        scanner: &BatchScanner,
        session_vn: VersionNo,
        pages: std::ops::Range<u32>,
        halt: &AtomicBool,
        mut on_batch: F,
    ) -> VnlResult<()>
    where
        F: FnMut(&RecordBatch, &BatchClasses, &mut StrPool) -> VnlResult<()>,
    {
        let _pin = self.epochs.pin();
        let mut classes = BatchClasses::default();
        let mut pool = scanner.new_pool();
        let mut failure: Option<VnlError> = None;
        let heap = self.storage.heap();
        let res = heap.scan_batches(pages, scanner.specs(), |batch| {
            // ordering: scan-halt Relaxed — a hint to stop early; the failing partition's error reaches the coordinator through its own return value
            if halt.load(Ordering::Relaxed) {
                return Err(StorageError::ScanAborted);
            }
            scanner.classify_batch(batch, session_vn, &mut classes);
            note_batch_metrics(batch.len(), classes.selected());
            let outcome = if classes.codes().contains(&Classified::Expired) {
                Err(self.expired_error(session_vn))
            } else {
                on_batch(batch, &classes, &mut pool)
            };
            outcome.map_err(|e| {
                failure = Some(e);
                halt.store(true, Ordering::Relaxed); // ordering: scan-halt Relaxed — see the load above
                StorageError::ScanAborted
            })
        });
        match (res, failure) {
            (_, Some(e)) => Err(e),
            (Ok(()) | Err(StorageError::ScanAborted), None) => Ok(()),
            (Err(e), None) => Err(e.into()),
        }
    }

    /// What every scan ends with, once per scan whatever its partition
    /// count: an expiration is counted, and a scan that did complete is
    /// held to the recovery fence.
    fn settle_scan<T>(&self, session_vn: VersionNo, res: VnlResult<T>) -> VnlResult<T> {
        if matches!(res, Err(VnlError::SessionExpired { .. })) {
            self.note_expiration();
        }
        let out = res?;
        self.fence_check(session_vn)?;
        Ok(out)
    }

    /// Scan the tuples visible to `session_vn` as one partition on the
    /// calling thread. This is [`VnlTable::scan_partitioned`] at one
    /// partition, for consumers whose `on_batch` may not cross threads.
    pub(crate) fn scan_serial<F>(
        &self,
        scanner: &BatchScanner,
        session_vn: VersionNo,
        on_batch: F,
    ) -> VnlResult<()>
    where
        F: FnMut(&RecordBatch, &BatchClasses, &mut StrPool) -> VnlResult<()>,
    {
        let pages = 0..self.storage.heap().page_count();
        let halt = AtomicBool::new(false);
        let res = self.scan_partition(scanner, session_vn, pages, &halt, on_batch);
        self.settle_scan(session_vn, res)
    }

    /// Scan the tuples visible to `session_vn` as at most `threads`
    /// contiguous page partitions, each folding its classified pages into
    /// its own `S` through `on_batch(partition, state, …)`; the states come
    /// back in partition (= heap) order. One partition runs inline on the
    /// calling thread, so a serial read is not a separate path. The first
    /// failure in partition order is the scan's.
    pub(crate) fn scan_partitioned<S, F>(
        &self,
        scanner: &BatchScanner,
        session_vn: VersionNo,
        threads: usize,
        on_batch: F,
    ) -> VnlResult<Vec<S>>
    where
        S: Default + Send,
        F: Fn(usize, &mut S, &RecordBatch, &BatchClasses, &mut StrPool) -> VnlResult<()> + Sync,
    {
        let halt = AtomicBool::new(false);
        let parts = self.storage.heap().scan_parallel(threads, |p, pages| {
            let mut state = S::default();
            self.scan_partition(scanner, session_vn, pages, &halt, |batch, classes, pool| {
                on_batch(p, &mut state, batch, classes, pool)
            })
            .map(|()| state)
        });
        self.settle_scan(session_vn, parts.into_iter().collect())
    }

    /// Raw extended rows with their RIDs (reports, tests).
    pub fn scan_raw(&self) -> VnlResult<Vec<(Rid, Row)>> {
        // Pin: callers correlate the returned RIDs with later point reads;
        // hold the epoch so GC cannot recycle them mid-collection.
        let _pin = self.epochs.pin();
        let mut out = Vec::new();
        self.walk_stamps(|t| {
            out.push((t.rid, t.decode()?));
            Ok(())
        })?;
        Ok(out)
    }

    /// The one whole-relation walk (DESIGN §6) behind crash-recovery
    /// discovery, the maintenance cursor and every other internal pass:
    /// the heap's page loop with the version stamps
    /// gathered, handing `visit` each physical tuple's RID and slot-0
    /// `(tupleVN, operation)`. A walk costs a page copy and two gathered
    /// integers per tuple; `visit` decodes ([`Stamped::decode`]) only what
    /// it keeps, never under a page latch.
    ///
    /// The walk does **not** pin an epoch: callers that follow the RIDs hold
    /// their own pin across walk and use.
    pub(crate) fn walk_stamps<F>(&self, mut visit: F) -> VnlResult<()>
    where
        F: FnMut(&Stamped<'_>) -> VnlResult<()>,
    {
        // A visitor failure travels out of the storage scan as
        // `ScanAborted`, with the real error stashed beside it.
        let mut failure: Option<VnlError> = None;
        let heap = self.storage.heap();
        let res = heap.scan_batches(0..heap.page_count(), self.rows.specs(), |batch| {
            (0..batch.len()).try_for_each(|i| {
                let rid = batch.rid(i);
                let Some((vn, op)) = stamp_at(batch, i, 0) else {
                    return Err(StorageError::Corrupt(format!("{rid}: no slot-0 stamp")));
                };
                let tuple = Stamped {
                    rid,
                    vn,
                    op,
                    table: self,
                    batch,
                    i,
                };
                visit(&tuple).map_err(|e| {
                    failure = Some(e);
                    StorageError::ScanAborted
                })
            })
        });
        match failure {
            Some(e) => Err(e),
            None => Ok(res?),
        }
    }

    // ------------------------------------------------------------------
    // §4.3: secondary indexes
    // ------------------------------------------------------------------

    /// Create a secondary index over non-updatable base columns. §4.3:
    /// "indexes on non-updatable attributes are not affected by the
    /// algorithm" — updatable attributes are rejected because the rewrite
    /// buries them in CASE expressions no stock optimizer can index.
    /// Backfills from existing tuples; usable immediately.
    pub fn create_index(&self, name: &str, column_names: &[&str]) -> VnlResult<()> {
        let base_schema = self.layout.base_schema();
        let mut base_cols = Vec::with_capacity(column_names.len());
        for c in column_names {
            let idx = base_schema.column_index(c)?;
            if base_schema.columns()[idx].updatable {
                return Err(VnlError::IndexOnUpdatable((*c).to_string()));
            }
            base_cols.push(idx);
        }
        let ext_cols: Vec<usize> = base_cols.iter().map(|&b| self.layout.base_col(b)).collect();
        let mut indexes = self
            .indexes
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if indexes.iter().any(|i| i.name == name) {
            return Err(VnlError::DuplicateIndex(name.to_string()));
        }
        let sec = SecondaryIndex {
            name: name.to_string(),
            base_cols,
            ext_cols: ext_cols.clone(),
            index: OrderedIndex::new(ext_cols),
        };
        // Backfill while holding the registry lock so concurrent physical
        // inserts cannot slip between backfill and registration. Pinned:
        // the index stores RIDs, so GC must not recycle them mid-backfill.
        let _pin = self.epochs.pin();
        self.walk_stamps(|t| {
            sec.index.insert(&t.decode()?, t.rid);
            Ok(())
        })?;
        indexes.push(Arc::new(sec));
        Ok(())
    }

    /// Look up an index by name.
    pub fn index(&self, name: &str) -> VnlResult<Arc<SecondaryIndex>> {
        self.indexes
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .find(|i| i.name == name)
            .cloned()
            .ok_or_else(|| VnlError::NoSuchIndex(name.to_string()))
    }

    /// RIDs whose indexed columns equal `key` (base-column values in index
    /// order). Visibility filtering is the caller's job.
    pub(crate) fn index_lookup_eq(&self, name: &str, key: &[Value]) -> VnlResult<Vec<Rid>> {
        let idx = self.index(name)?;
        Ok(idx.index.lookup(&IndexKey(key.to_vec())))
    }

    /// RIDs whose indexed columns fall within `[lo, hi]` (inclusive,
    /// `None` = unbounded).
    pub(crate) fn index_lookup_range(
        &self,
        name: &str,
        lo: Option<&[Value]>,
        hi: Option<&[Value]>,
    ) -> VnlResult<Vec<Rid>> {
        let idx = self.index(name)?;
        let lo = lo.map(|v| IndexKey(v.to_vec()));
        let hi = hi.map(|v| IndexKey(v.to_vec()));
        Ok(idx.index.range(lo.as_ref(), hi.as_ref()))
    }

    /// Hook: a tuple was physically inserted.
    pub(crate) fn on_physical_insert(&self, ext_row: &[Value], rid: Rid) {
        // §5's storage-cost measure: extra bytes each physical tuple carries
        // for its version slots, accumulated across the live heap.
        let growth = self.layout.overhead();
        wh_obs::gauge!("vnl.storage.tuple_growth_bytes")
            .add(growth.ext_tuple_bytes as i64 - growth.base_tuple_bytes as i64);
        for idx in self
            .indexes
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
        {
            idx.index.insert(ext_row, rid);
        }
    }

    /// Hook: a tuple was physically deleted.
    pub(crate) fn on_physical_delete(&self, ext_row: &[Value], rid: Rid) {
        self.note_physical_delete();
        for idx in self.indexes_snapshot() {
            idx.remove_entry(ext_row, rid);
        }
    }

    /// Gauge bookkeeping for a physical delete, for callers that retire
    /// index entries themselves from an [`VnlTable::indexes_snapshot`].
    pub(crate) fn note_physical_delete(&self) {
        let growth = self.layout.overhead();
        wh_obs::gauge!("vnl.storage.tuple_growth_bytes")
            .add(growth.base_tuple_bytes as i64 - growth.ext_tuple_bytes as i64);
    }

    /// `Arc` snapshot of the secondary-index registry. Code that must touch
    /// indexes while holding a page latch works from this snapshot: the
    /// registry lock itself may not be acquired under a page latch, because
    /// index backfill holds the registry lock across a full storage scan
    /// (page latches inside) and the inverted order would deadlock.
    pub(crate) fn indexes_snapshot(&self) -> Vec<Arc<SecondaryIndex>> {
        self.indexes
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .to_vec()
    }

    /// Hook: the tuple at `rid` was modified in place from the encoded image
    /// `old` to `new`; re-key any index whose columns changed (only possible
    /// through the resurrection path's `CV ← MV` on non-key, non-updatable
    /// attributes). The images are decoded only when an index exists.
    pub(crate) fn on_physical_update(&self, old: &[u8], new: &[u8], rid: Rid) -> VnlResult<()> {
        let indexes = self
            .indexes
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if indexes.is_empty() {
            return Ok(());
        }
        let codec = self.storage.codec();
        let (old_ext, new_ext) = (codec.decode(old)?, codec.decode(new)?);
        for idx in indexes.iter() {
            let changed = idx.ext_cols.iter().any(|&c| old_ext[c] != new_ext[c]);
            if changed {
                let _ = idx.index.remove(&old_ext, rid);
                idx.index.insert(&new_ext, rid);
            }
        }
        Ok(())
    }

    /// Drop `ext_row`'s key registration for `rid`, if the relation is
    /// keyed; a registration already gone is ignored.
    pub(crate) fn unregister_key(&self, ext_row: &[Value], rid: Rid) {
        if let Some(dir) = &self.key_dir {
            let _ = dir.unregister(ext_row, rid);
        }
    }

    /// Find the physical tuple holding the key of the base-schema row
    /// `key_row` (visible or not).
    pub(crate) fn find_physical(&self, key_row: &[Value]) -> Option<Rid> {
        let dir = self.key_dir.as_ref()?;
        dir.find_key(&self.key_probe(&self.key_values(key_row)))
    }

    /// The key columns' values of the base-schema row `row`, in key order;
    /// a column past the row's end reads as NULL.
    pub(crate) fn key_values(&self, row: &[Value]) -> Row {
        let cols = self.layout.base_schema().key().iter();
        cols.map(|&k| row.get(k).cloned().unwrap_or(Value::Null))
            .collect()
    }

    /// The key-directory probe for the key columns' values `key`, in key
    /// order, each as a page decode returns it: `key` itself unless a value
    /// reads otherwise.
    pub(crate) fn key_probe<'k>(&self, key: &'k [Value]) -> Cow<'k, [Value]> {
        let cols = self.layout.base_schema().key();
        if key
            .iter()
            .zip(cols)
            .all(|(v, &k)| self.layout.decoded(k, v).is_none())
        {
            return Cow::Borrowed(key);
        }
        let decoded = key
            .iter()
            .zip(cols)
            .map(|(v, &k)| self.layout.as_decoded(k, v));
        Cow::Owned(decoded.collect())
    }

    /// Map a base-schema row to an extended-schema row that carries only the
    /// base values as a decode returns them (used by key lookups: key
    /// columns land in the right positions, everything else is NULL).
    pub(crate) fn base_to_ext_positions(&self, base_row: &[Value]) -> Row {
        let mut ext = vec![Value::Null; self.layout.ext_schema().arity()];
        for (i, v) in base_row.iter().enumerate() {
            ext[self.layout.base_col(i)] = self.layout.as_decoded(i, v);
        }
        ext
    }
}

/// One physical tuple as [`VnlTable::walk_stamps`] sees it: its RID, slot
/// 0's `(tupleVN, operation)`, and the copied-out record behind accessors.
pub(crate) struct Stamped<'a> {
    pub rid: Rid,
    pub vn: VersionNo,
    pub op: Operation,
    table: &'a VnlTable,
    batch: &'a RecordBatch,
    i: usize,
}

impl Stamped<'_> {
    /// The copied-out encoded record.
    pub fn record(&self) -> &[u8] {
        self.batch.record(self.i)
    }

    /// Decode the full extended row from the copied-out record.
    pub fn decode(&self) -> VnlResult<Row> {
        Ok(self.table.storage.codec().decode(self.record())?)
    }
}

/// Per-page batch telemetry: batch-size distribution and selection-bitmap
/// density. Recorded once per *page* (never per row), so the E20
/// observability-overhead gate is unaffected.
fn note_batch_metrics(rows: usize, selected: usize) {
    if !wh_obs::is_enabled() || rows == 0 {
        return;
    }
    wh_obs::histogram!("vnl.scan.batch_rows").record(rows as u64);
    wh_obs::histogram!("vnl.scan.batch_selectivity_pct").record((selected * 100 / rows) as u64);
}

impl std::fmt::Debug for VnlTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VnlTable")
            .field("name", &self.name)
            .field("n", &self.layout.n())
            .field("tuples", &self.storage.len())
            .field("current_vn", &self.version.snapshot().current_vn)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wh_types::schema::daily_sales_schema;
    use wh_types::Date;

    fn sales_row(city: &str, pl: &str, day: u8, sales: i64) -> Row {
        vec![
            Value::from(city),
            Value::from(pl.to_string()),
            Value::from("CA"),
            Value::from(Date::ymd(1996, 10, day)),
            Value::from(sales),
        ]
    }

    // NOTE: daily_sales_schema order is (city, state, product_line, date,
    // total_sales); build rows accordingly.
    fn row(city: &str, pl: &str, day: u8, sales: i64) -> Row {
        vec![
            Value::from(city),
            Value::from("CA"),
            Value::from(pl),
            Value::from(Date::ymd(1996, 10, day)),
            Value::from(sales),
        ]
    }

    #[test]
    fn create_and_load_initial() {
        let t = VnlTable::create(daily_sales_schema(), 2).unwrap();
        t.load_initial(&[row("San Jose", "golf equip", 14, 10_000)])
            .unwrap();
        let s = t.begin_session();
        let rows = s.scan().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][4], Value::from(10_000));
        let _ = sales_row("x", "y", 1, 0); // silence helper
    }

    #[test]
    fn load_initial_rejects_duplicates() {
        let t = VnlTable::create(daily_sales_schema(), 2).unwrap();
        let r = row("San Jose", "golf equip", 14, 10_000);
        let err = t.load_initial(&[r.clone(), r]).unwrap_err();
        assert!(matches!(err, VnlError::NoSuchTuple(_)));
        // The first copy survived; the failed duplicate was rolled back.
        assert_eq!(t.storage().len(), 1);
    }

    #[test]
    fn load_initial_blocked_during_maintenance() {
        let t = VnlTable::create(daily_sales_schema(), 2).unwrap();
        let txn = t.begin_maintenance().unwrap();
        assert_eq!(
            t.load_initial(&[row("X", "p", 1, 1)]).unwrap_err(),
            VnlError::MaintenanceAlreadyActive
        );
        txn.commit().unwrap();
    }

    /// Logical I/O a maintenance transaction that touched keys 7 and 150
    /// spends on commit capture and on abort, over a table of `rows` rows:
    /// `(capture page reads, capture tuple reads, capture page writes,
    /// abort tuple reads, abort page writes)`.
    fn capture_and_abort_io(rows: i64) -> (u64, u64, u64, u64, u64) {
        let t = VnlTable::create(daily_sales_schema(), 2).unwrap();
        let all: Vec<Row> = (0..rows)
            .map(|i| row(&format!("city{i}"), "golf equip", 14, i))
            .collect();
        t.load_initial(&all).unwrap();
        let txn = t.begin_maintenance().unwrap();
        txn.update_row(&row("city7", "golf equip", 14, -1)).unwrap();
        txn.delete_row(&row("city150", "golf equip", 14, 0))
            .unwrap();
        let before = t.io().snapshot();
        let mut batch = crate::delta::DeltaBatch::empty(txn.maintenance_vn());
        txn.capture_net_effect(&mut batch).unwrap();
        let captured = t.io().snapshot();
        assert_eq!(batch.rows_for(t.name()).count(), 2);
        txn.abort().unwrap();
        let aborted = t.io().snapshot();
        (
            captured.page_reads - before.page_reads,
            captured.tuple_reads - before.tuple_reads,
            captured.page_writes - before.page_writes,
            aborted.tuple_reads - captured.tuple_reads,
            aborted.page_writes - captured.page_writes,
        )
    }

    #[test]
    fn capture_and_abort_read_touched_pages_only() {
        // Both follow the transaction's own undo map, not the relation:
        // ten times the rows costs not one more read. Capture reads and
        // writes nothing, as each write recorded its net effect; abort reads
        // the two touched tuples and writes them back along with the
        // Version relation's flag tuple.
        let small = capture_and_abort_io(300);
        assert_eq!(small, (0, 0, 0, 2, 3));
        assert_eq!(capture_and_abort_io(3_000), small);
    }

    #[test]
    fn session_registry_tracks_lifecycle() {
        let t = VnlTable::create(daily_sales_schema(), 2).unwrap();
        assert_eq!(t.active_session_count(), 0);
        let s1 = t.begin_session();
        let s2 = t.begin_session();
        assert_eq!(t.active_session_count(), 2);
        assert_eq!(t.min_active_session_vn(), Some(1));
        drop(s1);
        assert_eq!(t.active_session_count(), 1);
        s2.finish();
        assert_eq!(t.active_session_count(), 0);
        assert_eq!(t.min_active_session_vn(), None);
    }

    #[test]
    fn one_maintenance_at_a_time() {
        let t = VnlTable::create(daily_sales_schema(), 2).unwrap();
        let txn = t.begin_maintenance().unwrap();
        assert!(matches!(
            t.begin_maintenance().unwrap_err(),
            VnlError::MaintenanceAlreadyActive
        ));
        txn.commit().unwrap();
        let txn2 = t.begin_maintenance().unwrap();
        txn2.commit().unwrap();
        assert_eq!(t.version().snapshot().current_vn, 3);
    }
}
