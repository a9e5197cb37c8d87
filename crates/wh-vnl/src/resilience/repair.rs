//! Session repair: fix up an expired reader from the maintenance delta
//! instead of restarting it.
//!
//! The paper's answer to expiration (§4.1) is restart-and-rescan: throw the
//! partial result away and re-read everything at a fresh VN. But the
//! session's result is wrong by *exactly* the keys the overlapping
//! maintenance transactions touched — and each commit retained its net
//! effect as a [`DeltaBatch`] in the version state's bounded delta log.
//! [`RepairEngine`] replays the window `(sessionVN, currentVN]` against the
//! session's view and re-admits it at `currentVN` under the §4.1 global
//! check, turning an O(relation) restart into an O(delta) patch.
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
//! Three repair shapes:
//!
//! * **Scans** ([`RepairEngine::scan_at_current`]) — rebuild the visible
//!   row set at `sessionVN` keyed by primary key (tuples whose slots were
//!   overwritten are *reconstructed* from the window's first pre-image),
//!   then roll the key map forward through the deltas.
//! * **Point lookups** ([`RepairEngine::read_key_at_current`]) — if the
//!   window touched the key, the latest post-image is the answer; otherwise
//!   a point read at `currentVN` sees exactly what the session saw.
//! * **Queries** ([`RepairEngine::query_at_current`]) — aggregate
//!   statements patch a streaming per-group partial-aggregate state
//!   ([`wh_sql::AggPatcher`]): SUM/COUNT/AVG retract in place, MIN/MAX fall
//!   back to a per-affected-group rescan of the repaired rows. Anything
//!   else re-executes over the repaired row set.

use crate::delta::DeltaBatch;
use crate::error::{VnlError, VnlResult};
use crate::reader::ReaderSession;
use crate::table::VnlTable;
use crate::version::{Operation, VersionNo};
use crate::visibility::{self, Visible};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use wh_index::IndexKey;
use wh_sql::{execute_select, AggPatcher, Params, QueryResult, RowSource, SelectStmt};
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

/// Outcome of rolling a key map forward through the delta window(s).
struct Roll {
    patched: u64,
    vn: VersionNo,
    /// Every batch applied, in order (initial window plus chase rounds) —
    /// the aggregate path replays these against its per-group state.
    batches: Vec<Arc<DeltaBatch>>,
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

    /// Rebuild the full visible row set of a session at `session_vn`, keyed
    /// by primary key, plus the delta window to `currentVN`. `Ok(None)`
    /// declines to the restart fallback.
    #[allow(clippy::type_complexity)]
    fn complete_at(
        &self,
        session_vn: VersionNo,
    ) -> VnlResult<
        Option<(
            BTreeMap<IndexKey, Row>,
            Vec<Arc<DeltaBatch>>,
            VersionNo,
            u64,
        )>,
    > {
        let base = self.table.layout().base_schema();
        if !base.has_key() {
            return decline();
        }
        let version = self.table.version();
        if session_vn < version.recovery_floor() {
            return decline();
        }
        // Latched read: a batch for every VN this peek observes is already
        // retained (publish_commit_with retains inside the same latch hold).
        let current_vn = version.peek().current_vn;
        let Some(window) = version.delta_window(session_vn, current_vn) else {
            return decline();
        };
        if window.iter().any(|b| !b.repairable) {
            return decline();
        }
        // The earliest pre-image per key in the window is that key's value
        // at `session_vn`: the first commit to touch a key after the
        // session began saved what the session was seeing.
        let mut first_pre: HashMap<IndexKey, Option<Row>> = HashMap::new();
        for b in &window {
            for r in b.rows_for(self.table.name()) {
                first_pre
                    .entry(IndexKey(r.key.clone()))
                    .or_insert_with(|| r.pre.clone());
            }
        }
        let mut map: BTreeMap<IndexKey, Row> = BTreeMap::new();
        let mut reconstructed: u64 = 0;
        for (_rid, ext) in self.table.scan_raw()? {
            match visibility::extract(self.table.layout(), &ext, session_vn) {
                Visible::Row(row) => {
                    map.insert(IndexKey(base.key_of(&row)), row);
                }
                Visible::Ignore => {}
                Visible::Expired => {
                    // Key attributes are never updatable, so the overwritten
                    // tuple's current values still carry its key.
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
                        None => return decline(),
                    }
                }
            }
        }
        // Tuples GC physically reclaimed leave no extended row to extract;
        // their value at `session_vn` is the window's first pre-image.
        for (key, pre) in first_pre {
            if let Some(pre) = pre {
                if let std::collections::btree_map::Entry::Vacant(e) = map.entry(key) {
                    e.insert(pre);
                    reconstructed += 1;
                }
            }
        }
        Ok(Some((map, window, current_vn, reconstructed)))
    }

    /// Replay `window` (and any extension windows that commit while we
    /// work) against `map`, producing the VN the map is now consistent at.
    fn roll_forward(
        &self,
        map: &mut BTreeMap<IndexKey, Row>,
        mut window: Vec<Arc<DeltaBatch>>,
        mut upto: VersionNo,
    ) -> VnlResult<Option<Roll>> {
        let version = self.table.version();
        let mut applied: Vec<Arc<DeltaBatch>> = Vec::new();
        let mut patched: u64 = 0;
        for _ in 0..MAX_EXTEND_ROUNDS {
            for b in &window {
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
            applied.append(&mut window);
            // Recovery wipes the delta log (repair state never survives a
            // restart); a raised floor proves one happened mid-repair.
            if upto < version.recovery_floor() {
                return decline();
            }
            let now = version.peek().current_vn;
            if now == upto {
                wh_obs::counter!("vnl.resilience.repair.patched_rows").add(patched);
                return Ok(Some(Roll {
                    patched,
                    vn: upto,
                    batches: applied,
                }));
            }
            // Commits landed while we replayed: chase them.
            let Some(ext) = version.delta_window(upto, now) else {
                return decline();
            };
            if ext.iter().any(|b| !b.repairable) {
                return decline();
            }
            window = ext;
            upto = now;
        }
        decline()
    }

    /// Repair a full-scan session that expired at `session_vn`: the rows it
    /// *would* read if restarted at `currentVN`, without rescanning
    /// unaffected tuples. `Ok(None)` declines to the restart fallback.
    pub fn scan_at_current(&self, session_vn: VersionNo) -> VnlResult<Option<Repaired>> {
        let _span = wh_obs::trace_span!("vnl.repair.scan");
        if !repair_admitted() {
            return decline();
        }
        let Some((mut map, window, current_vn, reconstructed)) = self.complete_at(session_vn)?
        else {
            return Ok(None);
        };
        let Some(roll) = self.roll_forward(&mut map, window, current_vn)? else {
            return Ok(None);
        };
        Ok(Some(Repaired {
            rows: map.into_values().collect(),
            vn: roll.vn,
            patched: roll.patched,
            reconstructed,
        }))
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
        let base = self.table.layout().base_schema();
        if !base.has_key() {
            return decline();
        }
        let version = self.table.version();
        if session_vn < version.recovery_floor() {
            return decline();
        }
        let current_vn = version.peek().current_vn;
        let Some(window) = version.delta_window(session_vn, current_vn) else {
            return decline();
        };
        if window.iter().any(|b| !b.repairable) {
            return decline();
        }
        // Touched in the window: the latest post-image is the answer.
        let mut touched = None;
        for b in &window {
            for r in b.rows_for(self.table.name()) {
                if r.key.as_slice() == key_row {
                    touched = Some(r.post.clone());
                }
            }
        }
        if let Some(post) = touched {
            wh_obs::counter!("vnl.resilience.repair.patched_rows").add(1);
            return Ok(Some((post, current_vn)));
        }
        // Untouched by any commit in the window: a point read at
        // `currentVN` sees exactly what the session was seeing.
        match self.table.read_visible_by_key(key_row, current_vn) {
            Ok(row) => Ok(Some((row, current_vn))),
            Err(VnlError::SessionExpired { .. }) => decline(),
            Err(e) => Err(e),
        }
    }

    /// Repair an expired SELECT: re-answer `stmt` as of the returned VN
    /// without a full rescan. Aggregate statements patch per-group partial
    /// aggregates in place (MIN/MAX per-affected-group rescan fallback);
    /// everything else re-executes over the repaired row set. `Ok(None)`
    /// declines to the restart fallback.
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
        if !repair_admitted() {
            return decline();
        }
        let Some((mut map, window, current_vn, _)) = self.complete_at(session_vn)? else {
            return Ok(None);
        };
        let base = self.table.layout().base_schema();
        // Aggregate path: fold the session's base rows into per-group
        // accumulators, then patch each delta against them. `Unsupported`
        // (non-aggregate, or a shape patching cannot mirror exactly) falls
        // through to plain re-execution over the repaired rows.
        if let Ok(mut patcher) = AggPatcher::new(base, stmt, params) {
            for row in map.values() {
                if patcher.fold(row).is_err() {
                    return decline();
                }
            }
            let Some(roll) = self.roll_forward(&mut map, window, current_vn)? else {
                return Ok(None);
            };
            for b in &roll.batches {
                for r in b.rows_for(self.table.name()) {
                    if patcher.apply(r.pre.as_ref(), r.post.as_ref()).is_err() {
                        return decline();
                    }
                }
            }
            if patcher.has_dirty() {
                // MIN/MAX retracted an extremum: rebuild just those groups
                // from the repaired (current-VN) rows.
                if patcher.rescan_dirty(map.values()).is_err() {
                    return decline();
                }
            }
            return match patcher.finish() {
                Ok(result) => Ok(Some((result, roll.vn))),
                // A restart would surface the same statement error; let it.
                Err(_) => decline(),
            };
        }
        let Some(roll) = self.roll_forward(&mut map, window, current_vn)? else {
            return Ok(None);
        };
        let rows: Vec<Row> = map.into_values().collect();
        let source = MemSource {
            schema: base,
            rows: &rows,
        };
        match execute_select(&source, stmt, params, 1) {
            Ok(result) => Ok(Some((result, roll.vn))),
            // A restart would surface the same statement error; let it.
            Err(_) => decline(),
        }
    }

    /// Roll an already-complete (but stale) row set forward to `currentVN`.
    /// This is the repair primitive for callers that buffered a finished
    /// read at `stale_vn` and only later learned the warehouse moved on.
    pub fn repair_rows(&self, stale_vn: VersionNo, rows: Vec<Row>) -> VnlResult<Option<Repaired>> {
        let _span = wh_obs::trace_span!("vnl.repair.rows");
        if !repair_admitted() {
            return decline();
        }
        let base = self.table.layout().base_schema();
        if !base.has_key() {
            return decline();
        }
        let version = self.table.version();
        if stale_vn < version.recovery_floor() {
            return decline();
        }
        let current_vn = version.peek().current_vn;
        let Some(window) = version.delta_window(stale_vn, current_vn) else {
            return decline();
        };
        if window.iter().any(|b| !b.repairable) {
            return decline();
        }
        let mut map: BTreeMap<IndexKey, Row> = rows
            .into_iter()
            .map(|r| (IndexKey(base.key_of(&r)), r))
            .collect();
        let Some(roll) = self.roll_forward(&mut map, window, current_vn)? else {
            return Ok(None);
        };
        Ok(Some(Repaired {
            rows: map.into_values().collect(),
            vn: roll.vn,
            patched: roll.patched,
            reconstructed: 0,
        }))
    }

    /// Re-admit a repaired session at `vn` under the §4.1 global check.
    /// `None` means the window moved again before the session could
    /// register — the caller should restart after all.
    pub fn resume_session(&self, vn: VersionNo) -> Option<ReaderSession<'t>> {
        let version = self.table.version();
        let n = self.table.effective_n();
        if !version.session_live(vn, n) {
            return None;
        }
        let session = self.table.begin_session_at(vn);
        // Re-check under registration: a flip between the check and the
        // begin could have invalidated `vn`.
        if version.session_live(vn, n) {
            Some(session)
        } else {
            session.finish();
            None
        }
    }
}

/// In-memory [`RowSource`] over repaired rows for plain-path re-execution.
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
        visit: &(dyn Fn(&mut S, Row) -> wh_sql::SqlResult<()> + Sync),
    ) -> wh_sql::SqlResult<Vec<S>> {
        let mut state = S::default();
        for row in self.rows {
            visit(&mut state, row.clone())?;
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
    fn repair_rows_rolls_a_stale_buffer_forward() {
        let t = kv(2);
        let s = t.begin_session();
        let svn = s.session_vn();
        let stale_rows = s.scan().unwrap();
        s.finish();
        commit_update(&t, 7, 777);
        let engine = RepairEngine::new(&t);
        let repaired = engine
            .repair_rows(svn, stale_rows)
            .unwrap()
            .expect("repairable");
        let fresh = t.begin_session();
        assert_eq!(sorted(repaired.rows.clone()), sorted(fresh.scan().unwrap()));
        fresh.finish();
    }

    #[test]
    fn resume_session_re_admits_at_current_vn() {
        let t = kv(2);
        commit_update(&t, 1, 11);
        let engine = RepairEngine::new(&t);
        let vn = t.version().peek().current_vn;
        let session = engine.resume_session(vn).expect("current VN is live");
        assert_eq!(session.session_vn(), vn);
        session.finish();
        // A long-dead VN is refused.
        assert!(engine.resume_session(0).is_none() || vn == 0);
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
