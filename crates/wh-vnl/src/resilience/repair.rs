//! Session repair: answer an expired reader from the maintenance delta
//! instead of restarting its operation.
//!
//! The paper's answer to expiration (§4.1) is restart-and-rescan: throw the
//! partial result away, begin a new session, and re-run the operation at a
//! fresh VN. But the session's view is wrong by *exactly* the keys the
//! overlapping maintenance transactions touched — and each commit retained
//! its net effect as a [`DeltaBatch`] in the version state's bounded delta
//! log. [`RepairEngine`] replays the window `(sessionVN, currentVN]` against
//! the session's view and hands back the answer as of `currentVN`.
//!
//! What that costs and saves: a scan or query repair reads the whole
//! relation once (every tuple, classified at `sessionVN`) plus the window —
//! the same order of work as the rescan a restart would do. What it saves
//! is everything *around* that read: the caller's operation is not re-run,
//! the retry loop's backoff is not slept, and the rows already read are not
//! counted as wasted. Only a lookup repair is cheaper than its restart in
//! rows touched (the window plus at most one point read).
//!
//! Every entry point returns `Ok(None)` — **decline** — whenever repair
//! cannot be proven equivalent to a rescan: the window was evicted, a batch
//! is unrepairable (keyless table), the session predates the recovery
//! floor, a tuple expired past the fetched window, or the current VN kept
//! advancing faster than the engine could chase it. Callers (the
//! [`super::RetryPolicy`] repair-first path) treat a decline as "fall back
//! to restart", never as an answer — the fail-closed discipline the
//! wh-kernel `delta_repair_equals_rescan` model underwrites.
//!
//! Three answers over one window fetch, one reconstruct and one roll:
//!
//! * **Scans** ([`RepairEngine::scan_at_current`]) — rebuild the visible
//!   row set at `sessionVN` keyed by primary key (tuples whose slots were
//!   overwritten are *reconstructed* from the window's first pre-image),
//!   then roll the key map forward through the deltas.
//! * **Point lookups** ([`RepairEngine::read_key_at_current`]) — if the
//!   window touched the key, the latest post-image is the answer; otherwise
//!   a point read at `currentVN` sees exactly what the session saw.
//! * **Queries** ([`RepairEngine::query_at_current`]) — the repaired scan's
//!   rows, in primary-key order, through [`wh_sql::execute_select`]: the
//!   one executor every other SELECT runs on, whatever the statement shape.

use crate::delta::DeltaBatch;
use crate::error::{VnlError, VnlResult};
use crate::scan::Classified;
use crate::table::VnlTable;
use crate::version::{Operation, VersionNo};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use wh_index::IndexKey;
use wh_sql::{execute_select, Params, QueryResult, RowSource, SelectStmt};
use wh_types::fail_point;
use wh_types::{Row, Schema, Value};

/// How many times [`RepairEngine`] re-fetches an extension window when
/// maintenance commits land while it is rolling forward. A warehouse that
/// outruns eight chase rounds is expiring sessions faster than repair can
/// help; restart is the right call.
const MAX_EXTEND_ROUNDS: usize = 8;

/// A successfully repaired row set.
#[derive(Debug, Clone, PartialEq)]
pub struct Repaired {
    /// The visible rows at [`Repaired::vn`], in **primary-key order** (the
    /// repair map is keyed; heap scan order is not reconstructible).
    pub rows: Vec<Row>,
    /// The VN the rows are consistent at — re-lease the session here.
    pub vn: VersionNo,
    /// Delta rows replayed.
    pub patched: u64,
    /// Tuples whose physical slots had been overwritten (or GC-reclaimed)
    /// and were rebuilt from the window's first pre-image.
    pub reconstructed: u64,
}

/// A complete, repairable delta window `(from, upto]`.
struct Window {
    batches: Vec<Arc<DeltaBatch>>,
    upto: VersionNo,
}

/// Repairs expired reader sessions of one table from the delta log.
pub struct RepairEngine<'t> {
    table: &'t VnlTable,
}

/// Count a decline and hand the caller the restart-fallback signal.
fn decline<T>() -> VnlResult<Option<T>> {
    wh_obs::counter!("vnl.resilience.repair.fallback").add(1);
    Ok(None)
}

/// The single admission gate every repair entry point passes through.
fn repair_admitted() -> bool {
    wh_obs::trace_event!("vnl.repair.apply");
    // trace: repair admission instant; an injected fault at this point
    // forces the restart fallback, which the crash matrix proves safe.
    fail_point!("vnl.repair.apply", false);
    true
}

impl<'t> RepairEngine<'t> {
    /// A repair engine over `table`'s delta log.
    pub fn new(table: &'t VnlTable) -> Self {
        RepairEngine { table }
    }

    /// The table this engine repairs sessions of.
    pub fn table(&self) -> &'t VnlTable {
        self.table
    }

    /// The admission preamble every answer (and every chase round) starts
    /// from: the complete, repairable delta window `(from, currentVN]`.
    /// `Ok(None)` declines to the restart fallback.
    fn window_after(&self, from: VersionNo) -> VnlResult<Option<Window>> {
        if !self.table.layout().base_schema().has_key() {
            return decline();
        }
        let version = self.table.version();
        // Recovery wipes the delta log (repair state never survives a
        // restart); a floor above `from` proves one happened since.
        if from < version.recovery_floor() {
            return decline();
        }
        // Latched read: a batch for every VN this peek observes is already
        // retained (publish_commit retains inside the same latch hold).
        let upto = version.peek().current_vn;
        let Some(batches) = version.delta_window(from, upto) else {
            return decline();
        };
        if batches.iter().any(|b| !b.repairable) {
            return decline();
        }
        Ok(Some(Window { batches, upto }))
    }

    /// Rebuild the full visible row set of a session at `session_vn`, keyed
    /// by primary key, from the heap and the `window` that follows it.
    /// Returns the map and how many tuples were reconstructed; `Ok(None)`
    /// declines to the restart fallback.
    fn complete_at(
        &self,
        session_vn: VersionNo,
        window: &Window,
    ) -> VnlResult<Option<(BTreeMap<IndexKey, Row>, u64)>> {
        let base = self.table.layout().base_schema();
        // The earliest pre-image per key in the window is that key's value
        // at `session_vn`: the first commit to touch a key after the
        // session began saved what the session was seeing.
        let mut first_pre: HashMap<IndexKey, Option<Row>> = HashMap::new();
        for b in &window.batches {
            for r in b.rows_for(self.table.name()) {
                first_pre
                    .entry(IndexKey(r.key.clone()))
                    .or_insert_with(|| r.pre.clone());
            }
        }
        let mut map: BTreeMap<IndexKey, Row> = BTreeMap::new();
        let mut reconstructed: u64 = 0;
        let mut raced = false;
        let rows = self.table.rows();
        let mut pool = rows.new_pool();
        // Pinned like every walk that is not GC's own.
        let _pin = self.table.epochs().pin();
        self.table.walk_stamps(|t| {
            match rows.classify_record(t.record(), session_vn)? {
                Classified::Ignore => {}
                Classified::Expired => {
                    // Key attributes are never updatable, so the overwritten
                    // tuple's current values still carry its key.
                    let ext = t.decode()?;
                    let key = IndexKey(base.key_of(&self.table.layout().current_values(&ext)));
                    match first_pre.get(&key) {
                        Some(Some(pre)) => {
                            map.insert(key, pre.clone());
                            reconstructed += 1;
                        }
                        // Net-inserted within the window: absent at
                        // `session_vn`, and the roll-forward re-adds it.
                        Some(None) => reconstructed += 1,
                        // Overwritten by a commit outside the fetched
                        // window (it raced this repair): not provably
                        // reconstructible.
                        None => raced = true,
                    }
                }
                visible => {
                    let row = rows.decode_visible(t.record(), visible, &mut pool)?;
                    map.insert(IndexKey(base.key_of(&row)), row);
                }
            }
            Ok(())
        })?;
        if raced {
            return decline();
        }
        // Tuples GC physically reclaimed leave no record to classify;
        // their value at `session_vn` is the window's first pre-image.
        for (key, pre) in first_pre {
            if let Some(pre) = pre {
                if let std::collections::btree_map::Entry::Vacant(e) = map.entry(key) {
                    e.insert(pre);
                    reconstructed += 1;
                }
            }
        }
        Ok(Some((map, reconstructed)))
    }

    /// Replay `window` (and any extension windows that commit while we
    /// work) against `map`. Returns the delta rows replayed and the VN the
    /// map is now consistent at.
    fn roll_forward(
        &self,
        map: &mut BTreeMap<IndexKey, Row>,
        mut window: Window,
    ) -> VnlResult<Option<(u64, VersionNo)>> {
        let mut patched: u64 = 0;
        for _ in 0..MAX_EXTEND_ROUNDS {
            for b in &window.batches {
                for r in b.rows_for(self.table.name()) {
                    patched += 1;
                    match r.op {
                        Operation::Delete => {
                            map.remove(&IndexKey(r.key.clone()));
                        }
                        _ => {
                            // A net insert/update always carries its
                            // post-image; a batch that lost it cannot
                            // drive repair.
                            let Some(post) = r.post.clone() else {
                                return decline();
                            };
                            map.insert(IndexKey(r.key.clone()), post);
                        }
                    }
                }
            }
            // Commits that landed while we replayed: chase them.
            let Some(next) = self.window_after(window.upto)? else {
                return Ok(None);
            };
            if next.upto == window.upto {
                wh_obs::counter!("vnl.resilience.repair.patched_rows").add(patched);
                return Ok(Some((patched, window.upto)));
            }
            window = next;
        }
        decline()
    }

    /// Window fetch, reconstruct at `session_vn`, roll to `currentVN`: the
    /// row set both [`Self::scan_at_current`] and
    /// [`Self::query_at_current`] answer from.
    fn rows_at_current(&self, session_vn: VersionNo) -> VnlResult<Option<Repaired>> {
        if !repair_admitted() {
            return decline();
        }
        let Some(window) = self.window_after(session_vn)? else {
            return Ok(None);
        };
        let Some((mut map, reconstructed)) = self.complete_at(session_vn, &window)? else {
            return Ok(None);
        };
        let Some((patched, vn)) = self.roll_forward(&mut map, window)? else {
            return Ok(None);
        };
        Ok(Some(Repaired {
            rows: map.into_values().collect(),
            vn,
            patched,
            reconstructed,
        }))
    }

    /// Repair a full-scan session that expired at `session_vn`: the rows it
    /// *would* read if restarted at `currentVN`, without re-running the
    /// caller's scan. `Ok(None)` declines to the restart fallback.
    pub fn scan_at_current(&self, session_vn: VersionNo) -> VnlResult<Option<Repaired>> {
        let _span = wh_obs::trace_span!("vnl.repair.scan");
        self.rows_at_current(session_vn)
    }

    /// Repair an expired point lookup. Returns the row (or its absence) as
    /// of the returned VN. `Ok(None)` declines to the restart fallback.
    #[allow(clippy::type_complexity)]
    pub fn read_key_at_current(
        &self,
        session_vn: VersionNo,
        key_row: &[Value],
    ) -> VnlResult<Option<(Option<Row>, VersionNo)>> {
        let _span = wh_obs::trace_span!("vnl.repair.lookup");
        if !repair_admitted() {
            return decline();
        }
        let Some(window) = self.window_after(session_vn)? else {
            return Ok(None);
        };
        // Touched in the window: the latest post-image is the answer.
        let mut touched = None;
        for b in &window.batches {
            for r in b.rows_for(self.table.name()) {
                if r.key.as_slice() == key_row {
                    touched = Some(r.post.clone());
                }
            }
        }
        if let Some(post) = touched {
            wh_obs::counter!("vnl.resilience.repair.patched_rows").add(1);
            return Ok(Some((post, window.upto)));
        }
        // Untouched by any commit in the window: a point read at
        // `currentVN` sees exactly what the session was seeing.
        match self.table.read_visible_by_key(key_row, window.upto) {
            Ok(row) => Ok(Some((row, window.upto))),
            Err(VnlError::SessionExpired { .. }) => decline(),
            Err(e) => Err(e),
        }
    }

    /// Repair an expired SELECT: re-answer `stmt` as of the returned VN by
    /// running the one executor over the repaired rows (primary-key order),
    /// whatever the statement's shape. `Ok(None)` declines to the restart
    /// fallback.
    pub fn query_at_current(
        &self,
        session_vn: VersionNo,
        stmt: &SelectStmt,
        params: &Params,
    ) -> VnlResult<Option<(QueryResult, VersionNo)>> {
        let _span = wh_obs::trace_span!("vnl.repair.query");
        if stmt.from != self.table.name() {
            return decline();
        }
        let Some(repaired) = self.rows_at_current(session_vn)? else {
            return Ok(None);
        };
        let source = MemSource {
            schema: self.table.layout().base_schema(),
            rows: &repaired.rows,
        };
        match execute_select(&source, stmt, params, 1) {
            Ok(result) => Ok(Some((result, repaired.vn))),
            // A restart would surface the same statement error; let it.
            Err(_) => decline(),
        }
    }
}

/// In-memory [`RowSource`] over repaired rows.
struct MemSource<'a> {
    schema: &'a Schema,
    rows: &'a [Row],
}

impl RowSource for MemSource<'_> {
    fn schema(&self) -> &Schema {
        self.schema
    }

    fn fold<S: Default + Send>(
        &self,
        _threads: usize,
        visit: &(dyn Fn(&mut S, &dyn wh_sql::RowView) -> wh_sql::SqlResult<()> + Sync),
    ) -> wh_sql::SqlResult<Vec<S>> {
        let mut state = S::default();
        for row in self.rows {
            visit(&mut state, row)?;
        }
        Ok(vec![state])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wh_types::{Column, DataType, Schema};

    fn kv(n: usize) -> VnlTable {
        let schema = Schema::with_key(
            vec![
                Column::new("k", DataType::Int64),
                Column::updatable("v", DataType::Int64),
            ],
            vec![0],
        )
        .unwrap();
        let t = VnlTable::create_named("t", schema, n).unwrap();
        t.load_initial(
            &(0..8)
                .map(|i| vec![Value::from(i), Value::from(i * 10)])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        t
    }

    fn commit_update(t: &VnlTable, k: i64, v: i64) {
        let txn = t.begin_maintenance().unwrap();
        txn.update_row(&vec![Value::from(k), Value::from(v)])
            .unwrap();
        txn.commit().unwrap();
    }

    fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort_by_key(|a| IndexKey(a.clone()));
        rows
    }

    #[test]
    fn scan_repair_equals_rescan() {
        let t = kv(2);
        let stale = t.begin_session();
        let svn = stale.session_vn();
        stale.finish();
        // Three commits: update, insert, delete.
        commit_update(&t, 3, 999);
        {
            let txn = t.begin_maintenance().unwrap();
            txn.insert(vec![Value::from(100), Value::from(1)]).unwrap();
            txn.commit().unwrap();
        }
        {
            let txn = t.begin_maintenance().unwrap();
            txn.delete_row(&vec![Value::from(0), Value::from(0)])
                .unwrap();
            txn.commit().unwrap();
        }
        let engine = RepairEngine::new(&t);
        let repaired = engine.scan_at_current(svn).unwrap().expect("repairable");
        let fresh = t.begin_session();
        assert_eq!(repaired.vn, fresh.session_vn());
        assert_eq!(sorted(repaired.rows.clone()), sorted(fresh.scan().unwrap()));
        assert!(repaired.patched >= 3);
        fresh.finish();
    }

    #[test]
    fn evicted_window_declines_to_restart() {
        let t = kv(2);
        let stale = t.begin_session();
        let svn = stale.session_vn();
        stale.finish();
        commit_update(&t, 1, 111);
        t.version().clear_deltas();
        let engine = RepairEngine::new(&t);
        assert!(engine.scan_at_current(svn).unwrap().is_none());
    }

    #[test]
    fn lookup_repair_touched_and_untouched() {
        let t = kv(2);
        let svn = {
            let s = t.begin_session();
            let vn = s.session_vn();
            s.finish();
            vn
        };
        commit_update(&t, 5, 555);
        let engine = RepairEngine::new(&t);
        // Touched key: answered from the delta alone.
        let (row, vn) = engine
            .read_key_at_current(svn, &[Value::from(5)])
            .unwrap()
            .expect("repairable");
        assert_eq!(row, Some(vec![Value::from(5), Value::from(555)]));
        // Untouched key: answered by a point read at the new VN.
        let (row, vn2) = engine
            .read_key_at_current(svn, &[Value::from(2)])
            .unwrap()
            .expect("repairable");
        assert_eq!(row, Some(vec![Value::from(2), Value::from(20)]));
        assert_eq!(vn, vn2);
    }

    #[test]
    fn aggregate_query_repair_matches_fresh_execution() {
        let t = kv(2);
        let svn = {
            let s = t.begin_session();
            let vn = s.session_vn();
            s.finish();
            vn
        };
        commit_update(&t, 3, 999);
        commit_update(&t, 4, 1);
        let sql = "SELECT SUM(v), COUNT(*), MIN(v), MAX(v) FROM t";
        let wh_sql::Statement::Select(stmt) = wh_sql::parse_statement(sql).unwrap() else {
            panic!("not a select");
        };
        let engine = RepairEngine::new(&t);
        let (repaired, _) = engine
            .query_at_current(svn, &stmt, &Params::new())
            .unwrap()
            .expect("repairable");
        let fresh = t.begin_session();
        assert_eq!(repaired, fresh.query_stmt(&stmt).unwrap());
        fresh.finish();
    }

    #[test]
    fn expired_tuple_is_reconstructed_from_first_pre_image() {
        // n = 2: two commits to the same key overwrite both version slots,
        // expiring the stale session's view of it — the repair must fall
        // back to the delta's first pre-image.
        let t = kv(2);
        let svn = {
            let s = t.begin_session();
            let vn = s.session_vn();
            s.finish();
            vn
        };
        commit_update(&t, 2, 201);
        commit_update(&t, 2, 202);
        let engine = RepairEngine::new(&t);
        let repaired = engine.scan_at_current(svn).unwrap().expect("repairable");
        assert!(
            repaired.reconstructed >= 1,
            "slot overwrite must reconstruct"
        );
        let fresh = t.begin_session();
        assert_eq!(sorted(repaired.rows.clone()), sorted(fresh.scan().unwrap()));
        fresh.finish();
    }
}
