//! Reader sessions: consistent reads without locks (§3.2, §4.1).

use crate::error::{VnlError, VnlResult};
use crate::resilience::LeaseId;
use crate::scan::BatchScanner;
use crate::table::VnlTable;
use crate::version::VersionNo;
use std::sync::Mutex;
use std::time::Duration;
use wh_sql::{
    execute_select, parse_statement, Params, QueryResult, RowSource, RowView, SelectStmt, SqlError,
    SqlResult, Statement,
};
use wh_types::{Row, Schema, Value};

/// Liveness of a session per the §4.1 global check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The session is still guaranteed a consistent view.
    Live,
    /// The session has expired; the reader should begin a new session.
    Expired,
}

/// A reader session pinned to one database version.
///
/// Throughout its life the session sees the state current as of its
/// `sessionVN` — across any number of queries, while maintenance
/// transactions run concurrently, without acquiring a single lock.
pub struct ReaderSession<'t> {
    table: &'t VnlTable,
    id: u64,
    session_vn: VersionNo,
    finished: bool,
    /// Set when the session was begun through
    /// [`VnlTable::begin_leased_session`]; released with the session.
    lease: Option<LeaseId>,
    /// Rolling call count behind [`ReaderSession::note_staleness_sampled`].
    staleness_probe: std::sync::atomic::AtomicU32,
    /// Root trace span covering the session; each read operation's span
    /// parents under it so a session's whole read history shares one
    /// trace id. Closed when the session is released.
    span_ctx: wh_obs::TraceCtx,
}

impl<'t> ReaderSession<'t> {
    pub(crate) fn new(table: &'t VnlTable, id: u64, session_vn: VersionNo) -> Self {
        ReaderSession {
            table,
            id,
            session_vn,
            finished: false,
            lease: None,
            staleness_probe: std::sync::atomic::AtomicU32::new(0),
            span_ctx: wh_obs::trace::open_ctx(wh_obs::trace_name!("vnl.session"), 0, session_vn),
        }
    }

    /// The version this session reads.
    pub fn session_vn(&self) -> VersionNo {
        self.session_vn
    }

    pub(crate) fn set_lease(&mut self, lease: LeaseId) {
        self.lease = Some(lease);
    }

    /// The session's lease, when begun through
    /// [`VnlTable::begin_leased_session`].
    pub fn lease(&self) -> Option<LeaseId> {
        self.lease
    }

    /// Renew the session's lease, declaring about `hint` of remaining
    /// work. Fails with [`VnlError::SessionExpired`] when the session
    /// already failed the §4.1 global check or a pacer revoked the lease
    /// (`ExpireOldest`) — either way the holder should finish and restart
    /// at a fresh VN (see [`crate::resilience::RetryPolicy`]). On an
    /// unleased session this is just the liveness check.
    pub fn renew_lease(&self, hint: Duration) -> VnlResult<()> {
        self.assert_live()?;
        match self.lease {
            Some(id) if !self.table.version().leases().renew(id, hint) => {
                self.table.note_expiration();
                Err(self.table.expired_error(self.session_vn))
            }
            _ => Ok(()),
        }
    }

    /// Whether a pacer revoked this session's lease. The session may still
    /// pass the global check for a moment; a cooperative reader treats
    /// revocation as "wrap up and restart".
    pub fn lease_revoked(&self) -> bool {
        self.lease
            .is_some_and(|id| self.table.version().leases().is_revoked(id))
    }

    /// Publish this session's staleness (`currentVN − sessionVN`, the §3.2
    /// "how far behind the warehouse is this reader" measure) into the
    /// registry. Called at every scan/query entry point; reads the
    /// version's relaxed mirror so telemetry takes no latch and never
    /// charges the experiments' mirrored-I/O counters.
    fn note_staleness(&self) {
        if !wh_obs::is_enabled() {
            return;
        }
        let current = self.table.version().current_vn_relaxed();
        let lag = current.saturating_sub(self.session_vn);
        wh_obs::gauge!("vnl.reader.staleness").set(lag as i64);
        wh_obs::histogram!("vnl.reader.staleness_vns").record(lag);
        wh_obs::slo::note_staleness(lag);
    }

    /// Sampled [`ReaderSession::note_staleness`] for point-read entry
    /// points: a key lookup finishes in well under a microsecond, where
    /// even the lock-free staleness note is a measurable fraction of the
    /// operation, so only every 16th call records (the first always does).
    fn note_staleness_sampled(&self) {
        if !wh_obs::is_enabled() {
            return;
        }
        if self
            .staleness_probe
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed) // ordering: stat-counter Relaxed — independent event counter; read only for reporting
            .is_multiple_of(16)
        {
            self.note_staleness();
        }
    }

    /// The §4.1 global (pessimistic) expiration check against the Version
    /// relation: `(sessionVN = currentVN) ∨ (sessionVN = currentVN − 1 ∧
    /// ¬maintenanceActive)`, generalized for nVNL.
    pub fn status(&self) -> ReadOutcome {
        if self
            .table
            .version()
            .session_live(self.session_vn, self.table.effective_n())
        {
            ReadOutcome::Live
        } else {
            ReadOutcome::Expired
        }
    }

    /// Err variant of [`ReaderSession::status`], for `?`-chaining.
    pub fn assert_live(&self) -> VnlResult<()> {
        match self.status() {
            ReadOutcome::Live => Ok(()),
            ReadOutcome::Expired => {
                self.table.note_expiration();
                Err(self.table.expired_error(self.session_vn))
            }
        }
    }

    /// Open one read operation's instrumentation — its trace span under the
    /// session's, whose duration is the read-latency SLO observation, and
    /// its staleness note — and run it. Every scan-shaped entry point goes
    /// through here exactly once.
    fn observed<T>(&self, span: u32, read: impl FnOnce() -> VnlResult<T>) -> VnlResult<T> {
        let _ts =
            wh_obs::trace::enter_under_timed(span, self.span_ctx, wh_obs::slo::note_read_latency);
        self.note_staleness();
        read()
    }

    /// The scan driver behind every row-visiting entry point: one partition
    /// on the calling thread, each row decoded through `scanner`'s plan.
    fn scan_rows<F>(&self, span: u32, scanner: &BatchScanner, mut visit: F) -> VnlResult<()>
    where
        F: FnMut(Row) -> VnlResult<()>,
    {
        self.observed(span, || {
            self.table
                .scan_serial(scanner, self.session_vn, |batch, classes, pool| {
                    scanner.visit_selected(batch, classes, pool, &mut visit)
                })
        })
    }

    /// Scan the relation as of this session's version. Uses the per-tuple
    /// expiration detector: a tuple modified out from under the session
    /// raises [`VnlError::SessionExpired`].
    pub fn scan(&self) -> VnlResult<Vec<Row>> {
        let mut out = Vec::new();
        self.scan_with(|row| {
            out.push(row);
            Ok(())
        })?;
        Ok(out)
    }

    /// Streaming twin of [`ReaderSession::scan`]: `visit` receives each
    /// visible row in heap order without the session materializing the
    /// relation. Invisible tuples are rejected on their encoded bytes
    /// before any row decode.
    pub fn scan_with<F>(&self, visit: F) -> VnlResult<()>
    where
        F: FnMut(Row) -> VnlResult<()>,
    {
        let span = wh_obs::trace_name!("vnl.read.scan");
        self.scan_rows(span, self.table.rows(), visit)
    }

    /// [`ReaderSession::scan_with`] with projection pushdown: rows carry
    /// only the base-schema columns listed in `cols`, in that order, and no
    /// other column is ever decoded.
    pub fn scan_projected_with<F>(&self, cols: &[usize], visit: F) -> VnlResult<()>
    where
        F: FnMut(Row) -> VnlResult<()>,
    {
        let span = wh_obs::trace_name!("vnl.read.scan_projected");
        let codec = self.table.storage().codec();
        let scanner = BatchScanner::new(self.table.layout(), codec, Some(cols));
        self.scan_rows(span, &scanner, visit)
    }

    /// Count the rows visible to this session without decoding any of them:
    /// the scan with a popcount of each page's selection bitmap in place of
    /// row delivery. Expiration detection is identical to a full scan.
    pub fn count(&self) -> VnlResult<u64> {
        let mut count = 0u64;
        self.observed(wh_obs::trace_name!("vnl.read.count"), || {
            self.table
                .scan_serial(self.table.rows(), self.session_vn, |_, classes, _| {
                    count += classes.selected() as u64;
                    Ok(())
                })
        })?;
        Ok(count)
    }

    /// Point lookup by key (base-schema row whose key columns are set).
    /// `Ok(None)` when the tuple is logically absent at this version.
    pub fn read_by_key(&self, key_row: &[Value]) -> VnlResult<Option<Row>> {
        self.note_staleness_sampled();
        self.table.read_visible_by_key(key_row, self.session_vn)
    }

    /// Equality lookup through a §4.3 secondary index: all *visible* rows
    /// whose indexed columns equal `key` (values in index-column order).
    pub fn lookup_eq(&self, index: &str, key: &[Value]) -> VnlResult<Vec<Row>> {
        self.note_staleness_sampled();
        // The pin spans probe → resolve: GC may retire a probed tuple in
        // between, but cannot release (reuse) its slot while we hold the
        // epoch — the fetch then sees a clean miss, never foreign bytes.
        let _pin = self.table.epochs().pin();
        let rids = self.table.index_lookup_eq(index, key)?;
        self.resolve_rids(rids)
    }

    /// Range lookup through a secondary index: all visible rows whose
    /// indexed columns fall in `[lo, hi]` (inclusive; `None` = unbounded).
    pub fn lookup_range(
        &self,
        index: &str,
        lo: Option<&[Value]>,
        hi: Option<&[Value]>,
    ) -> VnlResult<Vec<Row>> {
        self.note_staleness_sampled();
        // Pin across probe → resolve; see `lookup_eq`.
        let _pin = self.table.epochs().pin();
        let rids = self.table.index_lookup_range(index, lo, hi)?;
        self.resolve_rids(rids)
    }

    /// Fetch and classify a set of RIDs with the scan kernel, with
    /// per-tuple expiration detection (Table 1 applies at the index leaf
    /// exactly as in a scan). A tuple GC reclaimed between index probe and
    /// fetch is skipped.
    fn resolve_rids(&self, rids: Vec<wh_storage::Rid>) -> VnlResult<Vec<Row>> {
        let mut out = Vec::with_capacity(rids.len());
        for rid in rids {
            out.extend(self.table.read_visible(rid, self.session_vn)?);
        }
        // Re-check the recovery fence after the resolves: a crash recovery
        // concurrent with this lookup may have reconstructed the slots the
        // resolves read from.
        self.table.fence_check(self.session_vn)?;
        Ok(out)
    }

    /// Run a SELECT over the session's consistent view using programmatic
    /// version extraction (always correct, including per-tuple expiration
    /// detection). The statement references base-schema columns.
    pub fn query(&self, sql: &str) -> VnlResult<QueryResult> {
        self.query_parallel(sql, 1)
    }

    /// Like [`ReaderSession::query`] with a pre-parsed statement. The
    /// executor streams straight off the scan — pushable WHERE conjuncts
    /// run inside the page classify kernel, before any column is read, and
    /// the rest is applied per row on its in-place view, never against a
    /// materialized snapshot.
    pub fn query_stmt(&self, select: &SelectStmt) -> VnlResult<QueryResult> {
        self.run_select(select, 1)
    }

    /// [`ReaderSession::query`] over up to `threads` scan partitions, each
    /// folding its rows into its own partial result; the partials are
    /// combined in partition order. Results are identical at every thread
    /// count (partitions are contiguous heap ranges) up to floating-point
    /// reassociation in SUM/AVG.
    pub fn query_parallel(&self, sql: &str, threads: usize) -> VnlResult<QueryResult> {
        match parse_statement(sql)? {
            Statement::Select(select) => self.run_select(&select, threads),
            _ => Err(VnlError::Sql(SqlError::Unsupported(
                "reader sessions are read-only".into(),
            ))),
        }
    }

    /// The one native SELECT path: plan the statement against this session
    /// and run the executor over its scan at `threads` partitions.
    fn run_select(&self, select: &SelectStmt, threads: usize) -> VnlResult<QueryResult> {
        self.observed(wh_obs::trace_name!("vnl.read.query"), || {
            let (source, exec_stmt) = self.source_for(select)?;
            source.settle(execute_select(&source, &exec_stmt, &Params::new(), threads))
        })
    }

    /// Plan a statement against this session: build the scan source and the
    /// statement the executor should actually run. The two are planned
    /// together — pushable WHERE conjuncts move into the scanner's filter
    /// kernel (and out of the executor statement), and the *residual*
    /// statement's referenced columns drive projection pushdown, so a
    /// column referenced only by pushed filters is never decoded at all.
    fn source_for(&self, select: &SelectStmt) -> VnlResult<(SessionSource<'_>, SelectStmt)> {
        if select.from != self.table.name() {
            return Err(VnlError::Sql(SqlError::NoSuchTable(select.from.clone())));
        }
        let layout = self.table.layout();
        let mut exec_stmt = select.clone();
        let filters = match &select.where_clause {
            Some(pred) => {
                let (pushed, residual) = wh_sql::extract_scan_filters(pred, layout.base_schema());
                exec_stmt.where_clause = residual;
                pushed
            }
            None => Vec::new(),
        };
        // Rows keep full base arity (the executor addresses columns by
        // index) but only the residual statement's referenced columns
        // decode.
        let needed = needed_base_cols(&exec_stmt, layout.base_schema())
            .unwrap_or_else(|| (0..layout.base_schema().arity()).collect());
        let codec = self.table.storage().codec();
        Ok((
            SessionSource {
                table: self.table,
                session_vn: self.session_vn,
                scanner: BatchScanner::new_sparse_filtered(layout, codec, &needed, &filters),
                failure: Mutex::new(None),
            },
            exec_stmt,
        ))
    }

    /// Run a SELECT the way §4 deploys 2VNL on a stock DBMS: **rewrite** the
    /// query (CASE expressions + WHERE guard, Example 4.1), execute it
    /// directly against the extended physical table with `:sessionVN` bound,
    /// then apply the §4.1 global expiration check — rewritten SQL cannot
    /// detect expiration per tuple, so the check validates the result.
    pub fn query_via_rewrite(&self, sql: &str) -> VnlResult<QueryResult> {
        let stmt = parse_statement(sql)?;
        let Statement::Select(select) = stmt else {
            return Err(VnlError::Sql(SqlError::Unsupported(
                "reader sessions are read-only".into(),
            )));
        };
        if select.from != self.table.name() {
            return Err(VnlError::Sql(SqlError::NoSuchTable(select.from)));
        }
        self.observed(wh_obs::trace_name!("vnl.read.query_rewrite"), || {
            let rewritten = self.table.rewriter().rewrite_select(&select)?;
            let mut params = Params::new();
            params.insert("sessionVN".into(), Value::from(self.session_vn as i64));
            let result = execute_select(self.table.storage(), &rewritten, &params, 1)?;
            self.assert_live()?;
            Ok(result)
        })
    }

    /// End the session, deregistering it (and releasing its lease).
    pub fn finish(mut self) {
        self.release();
        self.finished = true;
    }

    fn release(&mut self) {
        if let Some(lease) = self.lease.take() {
            self.table.version().leases().release(lease);
        }
        self.table.end_session(self.id);
        wh_obs::trace::close_ctx(self.span_ctx, self.session_vn);
    }
}

impl Drop for ReaderSession<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.release();
        }
    }
}

/// Streaming row source over one session's consistent view: the SQL
/// executor folds each visible record straight off the classified page of
/// [`VnlTable::scan_partitioned`], viewed in place
/// ([`crate::scan::BatchRow`]) — no row is decoded unless the statement
/// needs its values.
///
/// The executor speaks [`SqlError`], but the scan can fail with
/// session-level errors (expiration, storage faults) that must surface as
/// [`VnlError`]. Those are stashed in `failure` and transported out of the
/// executor as [`wh_storage::StorageError::ScanAborted`]; [`Self::settle`]
/// unwraps the stash on the way back to the caller.
struct SessionSource<'a> {
    table: &'a VnlTable,
    session_vn: VersionNo,
    /// The statement-specific sparse, filtering scanner.
    scanner: BatchScanner,
    failure: Mutex<Option<VnlError>>,
}

impl SessionSource<'_> {
    /// Convert a scan-level [`VnlError`] into the [`SqlError`] the executor
    /// expects, stashing anything that has no SQL representation.
    fn smuggle(&self, e: VnlError) -> SqlError {
        match e {
            VnlError::Sql(sql) => sql,
            other => {
                let mut slot = self
                    .failure
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                if slot.is_none() {
                    *slot = Some(other);
                }
                SqlError::Storage(wh_storage::StorageError::ScanAborted)
            }
        }
    }

    /// Resolve an executor result against the stash: the stashed
    /// [`VnlError`] wins (its paired `ScanAborted` was only the transport).
    fn settle(&self, res: SqlResult<QueryResult>) -> VnlResult<QueryResult> {
        let stashed = self
            .failure
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        match (res, stashed) {
            (_, Some(e)) => Err(e),
            (Err(e), None) => Err(VnlError::Sql(e)),
            (Ok(r), None) => Ok(r),
        }
    }
}

impl RowSource for SessionSource<'_> {
    fn schema(&self) -> &Schema {
        self.table.layout().base_schema()
    }

    fn fold<S: Default + Send>(
        &self,
        threads: usize,
        visit: &(dyn Fn(&mut S, &dyn RowView) -> SqlResult<()> + Sync),
    ) -> SqlResult<Vec<S>> {
        let deliver = |_, state: &mut S, batch: &_, classes: &_, pool: &mut _| {
            self.scanner.view_selected(batch, classes, pool, |row| {
                visit(state, row).map_err(VnlError::Sql)
            })
        };
        self.table
            .scan_partitioned(&self.scanner, self.session_vn, threads, deliver)
            .map_err(|e| self.smuggle(e))
    }
}

/// The base-schema columns a SELECT references, for projection pushdown
/// into the batch decoder. `None` means "decode everything": `SELECT *`
/// (empty item list), or any name that does not resolve against the base
/// schema (the executor will fail it with a proper error — the scan must
/// not mask that by handing back a NULL column).
fn needed_base_cols(select: &SelectStmt, schema: &Schema) -> Option<Vec<usize>> {
    if select.items.is_empty() {
        return None;
    }
    let mut names = Vec::new();
    for item in &select.items {
        item.expr.referenced_columns(&mut names);
    }
    if let Some(w) = &select.where_clause {
        w.referenced_columns(&mut names);
    }
    for g in &select.group_by {
        g.referenced_columns(&mut names);
    }
    if let Some(h) = &select.having {
        h.referenced_columns(&mut names);
    }
    for k in &select.order_by {
        k.expr.referenced_columns(&mut names);
    }
    let mut cols = Vec::with_capacity(names.len());
    for name in &names {
        match schema.column_index(name) {
            Ok(i) => {
                if !cols.contains(&i) {
                    cols.push(i);
                }
            }
            Err(_) => return None,
        }
    }
    cols.sort_unstable();
    Some(cols)
}
