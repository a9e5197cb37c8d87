//! The maintenance transaction: decision Tables 2–4, net effects, commit,
//! and log-free rollback.
//!
//! Every logical insert/update/delete consults the tuple's `(tupleVN,
//! operation)` slot and translates into the physical action the tables
//! prescribe — preserving both tuple versions and recording the **net
//! effect** of multiple operations on one tuple within the transaction
//! (\[SP89\]): insert∘update = insert, delete∘insert = update, insert∘delete =
//! nothing, update∘delete = delete.
//!
//! The tables are stated once. `decide` maps the attempted operation, the
//! tuple's slot-0 operation and whether this transaction stamped it to one
//! [`PhysicalAction`], or to [`VnlError::InvalidTransition`] for an
//! impossible cell. [`MaintenanceTxn::apply_batch`] is the one path every
//! logical write takes. It probes each key once, sorts the tuples found by
//! RID, and takes each page's write latch once. Under it, the caller names
//! each tuple's write from a view of the record's current image, `decide`
//! picks the arm, and the arm is applied as a byte patch: fixed-width slot
//! moves and per-column encodes, with no row decoded or encoded. `insert`,
//! `update_row` and `delete_row` are the one-element batch; the §4.2
//! cursors hand it the RIDs they found.
//!
//! **Rollback without logging** (§7 future work): because a touched tuple
//! still carries its pre-update version, an aborting maintenance transaction
//! restores tuples from their own version slots, through the reversal crash
//! recovery uses ([`crate::recovery`]). What a tuple cannot remember — that
//! the transaction inserted it, the oldest slot `push_back` dropped, the
//! current values a resurrection overwrote — is kept in a transaction-private
//! in-memory undo map whose RIDs are exactly the pending tuples, so abort
//! never walks the relation; no before-image log of data pages is ever
//! written.
//!
//! **Commit publishes what the writes recorded.** Each write that lands also
//! records its tuple's net effect in the undo map — slot 0's operation and,
//! for a keyed relation, the [`DeltaRow`] session repair replays. Once a
//! page's latch drops, the batch decodes the base and PV(0) columns of a
//! copy of each patched record, so the row is the one a page decode returns.
//! Commit takes those in heap order into its [`DeltaBatch`] and GC's record
//! of deletes, and reads no page.

use crate::delta::{DeltaBatch, DeltaRow};
use crate::error::{VnlError, VnlResult};
use crate::recovery::{undo_tuple, Lost, Plan};
use crate::scan::{Classified, StrPool};
use crate::table::VnlTable;
use crate::version::{Operation, VersionNo};
use std::cell::RefCell;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashSet};
use std::sync::Mutex;
use wh_sql::{parse_statement, EvalContext, Expr, Params, RowView, Statement};
use wh_storage::{Rid, StorageError};
use wh_types::fail_point;
use wh_types::{Row, RowCodec, TypeError, TypeResult, Value};

/// What a logical maintenance operation physically did to a tuple — one
/// variant per non-impossible cell of Tables 2–4. The per-transaction trace
/// of these reproduces Examples 4.2–4.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhysicalAction {
    /// Table 2 row 3: no conflicting tuple — physical insert.
    InsertTuple,
    /// Table 2 row 1 (previous = delete): resurrect a logically-deleted
    /// tuple in place (`PV ← nulls, CV ← MV, op ← insert`).
    ResurrectTuple,
    /// Table 2 row 2 (previous = delete, same txn): delete∘insert = update
    /// (`CV ← MV, op ← update`).
    UpdateAfterOwnDelete,
    /// Table 3 row 1: first update by this txn (`PV ← CV, CV ← MV`).
    UpdateSavingPre,
    /// Table 3 row 2: repeat update in the same txn (`CV ← MV` only).
    UpdateInPlace,
    /// Table 4 row 1: logical delete (`PV ← CV, op ← delete`).
    MarkDeleted,
    /// Table 4 row 2 (previous = insert): insert∘delete = nothing —
    /// physical delete of the txn's own insert.
    RemoveOwnInsert,
    /// Table 4 row 2 (previous = insert that resurrected an old tuple):
    /// restore the pre-resurrection tuple instead of physically deleting.
    RestoreResurrected,
    /// Table 4 row 2 (previous = update): update∘delete = delete
    /// (`op ← delete` only).
    MarkOwnUpdateDeleted,
}

impl PhysicalAction {
    /// Cached `vnl.maintenance.arm.<suffix>` counter for this arm. Each
    /// variant resolves through its own `counter!` call site, so after the
    /// first hit this is a single static load — no registry lock.
    fn arm_counter(&self) -> &'static wh_obs::Counter {
        match self {
            PhysicalAction::InsertTuple => wh_obs::counter!("vnl.maintenance.arm.insert_tuple"),
            PhysicalAction::ResurrectTuple => {
                wh_obs::counter!("vnl.maintenance.arm.resurrect_tuple")
            }
            PhysicalAction::UpdateAfterOwnDelete => {
                wh_obs::counter!("vnl.maintenance.arm.update_after_own_delete")
            }
            PhysicalAction::UpdateSavingPre => {
                wh_obs::counter!("vnl.maintenance.arm.update_saving_pre")
            }
            PhysicalAction::UpdateInPlace => {
                wh_obs::counter!("vnl.maintenance.arm.update_in_place")
            }
            PhysicalAction::MarkDeleted => wh_obs::counter!("vnl.maintenance.arm.mark_deleted"),
            PhysicalAction::RemoveOwnInsert => {
                wh_obs::counter!("vnl.maintenance.arm.remove_own_insert")
            }
            PhysicalAction::RestoreResurrected => {
                wh_obs::counter!("vnl.maintenance.arm.restore_resurrected")
            }
            PhysicalAction::MarkOwnUpdateDeleted => {
                wh_obs::counter!("vnl.maintenance.arm.mark_own_update_deleted")
            }
        }
    }
}

impl std::fmt::Display for PhysicalAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PhysicalAction::InsertTuple => "insert tuple (PV<-nulls, CV<-MV)",
            PhysicalAction::ResurrectTuple => "update tuple (PV<-nulls, CV<-MV, op<-insert)",
            PhysicalAction::UpdateAfterOwnDelete => "update tuple (CV<-MV, op<-update)",
            PhysicalAction::UpdateSavingPre => "update tuple (PV<-CV, CV<-MV, op<-update)",
            PhysicalAction::UpdateInPlace => "update tuple (CV<-MV)",
            PhysicalAction::MarkDeleted => "update tuple (PV<-CV, op<-delete)",
            PhysicalAction::RemoveOwnInsert => "delete tuple",
            PhysicalAction::RestoreResurrected => "restore pre-resurrection tuple",
            PhysicalAction::MarkOwnUpdateDeleted => "update tuple (op<-delete)",
        };
        write!(f, "{s}")
    }
}

/// Tables 2–4 (§3.3), cell by cell: what `attempted` physically does to a
/// tuple whose slot 0 holds `previous`, stamped by this transaction
/// (`own`) or by an earlier one. Insert∘delete is one cell here; whether
/// it removes a fresh insert or restores a resurrected tuple is the undo
/// map's to say.
fn decide(attempted: Operation, own: bool, previous: Operation) -> VnlResult<PhysicalAction> {
    use Operation::{Delete, Insert, Update};
    use PhysicalAction as A;
    Ok(match (attempted, own, previous) {
        // Table 2: an insert can only meet a logically deleted tuple.
        (Insert, false, Delete) => A::ResurrectTuple,
        (Insert, true, Delete) => A::UpdateAfterOwnDelete,
        // Table 3.
        (Update, false, Insert | Update) => A::UpdateSavingPre,
        (Update, true, Insert | Update) => A::UpdateInPlace,
        // Table 4.
        (Delete, false, Insert | Update) => A::MarkDeleted,
        (Delete, true, Insert) => A::RemoveOwnInsert,
        (Delete, true, Update) => A::MarkOwnUpdateDeleted,
        // Insert over a live tuple; update or delete of a deleted one.
        (Insert, _, Insert | Update) | (Update | Delete, _, Delete) => {
            return Err(VnlError::InvalidTransition {
                attempted,
                previous,
                same_txn: own,
            })
        }
    })
}

/// Lock one of the crate's private mutexes. Poisoning is recovered: every
/// update under them is an insert, remove, set extend or split, or flag
/// store, so a thread that panicked mid-hold left consistent data behind.
pub(crate) fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A tuple's net effect (\[SP89\]) as its slot 0 records it: the
/// operation and, for a keyed relation, the row commit publishes.
type Net = (Operation, Option<DeltaRow>);

/// The undo map's entry for one pending tuple.
#[derive(Debug)]
struct Pending {
    /// What the tuple's slots cannot tell.
    lost: Lost,
    /// The net effect the last write that landed stamped; `None` while no
    /// write has landed.
    net: Option<Net>,
}

/// One logical write [`MaintenanceTxn::apply_batch`] makes: the operation
/// Tables 2–4 are consulted for, with the base row an insert writes whole
/// and an update writes the updatable columns of.
#[derive(Debug, Clone, PartialEq)]
pub enum Write {
    /// Insert the row (Table 2).
    Insert(Row),
    /// Set the tuple's updatable columns to the row's (Table 3).
    Update(Row),
    /// Delete the tuple (Table 4).
    Delete,
}

impl Write {
    fn op(&self) -> Operation {
        match self {
            Write::Insert(_) => Operation::Insert,
            Write::Update(_) => Operation::Update,
            Write::Delete => Operation::Delete,
        }
    }
}

/// A write that landed in a page patch, recorded once the latch drops.
struct Landed {
    rid: Rid,
    action: PhysicalAction,
    /// Slot 0's operation after the write: the tuple's net effect.
    op: Operation,
    /// Where the record's image before the patch sits in the page's arena;
    /// the image after it follows.
    at: usize,
}

/// An insert that met no tuple: its key's index in the batch, its row, and
/// the RID its key still named when GC reclaimed the tuple after the probe.
type Fresh = (usize, Row, Option<Rid>);

/// The values of columns `cols` of the encoded tuple image `rec`.
fn decode_cols(
    codec: &RowCodec,
    rec: &[u8],
    cols: impl IntoIterator<Item = usize>,
) -> TypeResult<Row> {
    cols.into_iter().map(|c| codec.decode_col(rec, c)).collect()
}

/// `NoSuchTuple` naming `key`, a tuple's key columns' values.
fn no_such_key(key: &[Value]) -> VnlError {
    VnlError::NoSuchTuple(format!("{key:?}"))
}

/// The single active maintenance transaction on a [`VnlTable`].
pub struct MaintenanceTxn<'t> {
    table: &'t VnlTable,
    vn: VersionNo,
    finished: Mutex<bool>,
    /// Each touched tuple's undo information and net effect, keyed by RID:
    /// the transaction's record of its pending tuples, in heap order.
    undo: Mutex<BTreeMap<Rid, Pending>>,
    trace: Mutex<Vec<(PhysicalAction, Row)>>,
    tracing: std::sync::atomic::AtomicBool,
    /// Root trace span covering the whole transaction; per-phase spans
    /// parent under it so one trace id is the txn's causal story. Closed
    /// by `Drop` — a forgotten txn (crash) leaves it open, which is
    /// exactly what the flight recorder should show at recovery time.
    span_ctx: wh_obs::TraceCtx,
}

impl<'t> MaintenanceTxn<'t> {
    pub(crate) fn new(table: &'t VnlTable, vn: VersionNo) -> Self {
        MaintenanceTxn {
            table,
            vn,
            finished: Mutex::new(false),
            undo: Mutex::new(BTreeMap::new()),
            trace: Mutex::new(Vec::new()),
            tracing: std::sync::atomic::AtomicBool::new(false),
            span_ctx: wh_obs::trace::open_ctx(wh_obs::trace_name!("vnl.txn"), 0, vn),
        }
    }

    /// This transaction's `maintenanceVN` (= `currentVN + 1`).
    pub fn maintenance_vn(&self) -> VersionNo {
        self.vn
    }

    /// The table this transaction maintains (the pacer consults its leases
    /// and effective window right before commit).
    pub(crate) fn table(&self) -> &VnlTable {
        self.table
    }

    /// Enable recording of per-tuple physical actions (Examples 4.2–4.4
    /// traces). Off by default.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, std::sync::atomic::Ordering::Relaxed); // ordering: trace-toggle Relaxed — advisory trace toggle; no data is published through it
    }

    /// Drain the recorded `(action, key-values)` trace.
    pub fn take_trace(&self) -> Vec<(PhysicalAction, Row)> {
        std::mem::take(&mut *locked(&self.trace))
    }

    /// Whether per-tuple actions are being recorded.
    fn tracing(&self) -> bool {
        self.tracing.load(std::sync::atomic::Ordering::Relaxed) // ordering: trace-toggle Relaxed — advisory trace toggle; no data is published through it
    }

    /// Count `action` and, when tracing, record it with its tuple's `key`.
    fn record(&self, action: PhysicalAction, key: impl FnOnce() -> Row) {
        // Decision-table arm counters fire regardless of the tracing flag:
        // they are one relaxed atomic add each, and the arm distribution is
        // exactly what E20's snapshot wants from a production-shaped run.
        action.arm_counter().inc();
        if self.tracing() {
            locked(&self.trace).push((action, key()));
        }
    }

    /// The span of one applied tuple, timed into its operation's histogram.
    fn span(&self, op: Operation) -> wh_obs::TraceGuard {
        match op {
            Operation::Insert => wh_obs::timed_span_under!(
                "vnl.txn.insert",
                "vnl.maintenance.insert_ns",
                self.span_ctx
            ),
            Operation::Update => wh_obs::timed_span_under!(
                "vnl.txn.update",
                "vnl.maintenance.update_ns",
                self.span_ctx
            ),
            Operation::Delete => wh_obs::timed_span_under!(
                "vnl.txn.delete",
                "vnl.maintenance.delete_ns",
                self.span_ctx
            ),
        }
    }

    fn check_open(&self) -> VnlResult<()> {
        if *locked(&self.finished) {
            Err(VnlError::TxnFinished)
        } else {
            Ok(())
        }
    }

    /// What a slot push loses, read from the tuple's image `before` the
    /// patch: the oldest slot, and under a `resurrection` the current values
    /// it overwrites.
    fn lost(&self, before: &[u8], resurrection: bool) -> VnlResult<Lost> {
        let layout = self.table.layout();
        let codec = self.table.storage().codec();
        let last = layout.slots() - 1;
        let dropped = match self.table.rows().slot_of(before, last) {
            Some((vn, op)) => {
                let pre = decode_cols(codec, before, layout.pre_set(last).iter().copied())?;
                Some((vn, op, pre))
            }
            None => None,
        };
        let current = layout.updatable().iter().map(|&u| layout.base_col(u));
        let overwritten = if resurrection {
            Some(decode_cols(codec, before, current)?)
        } else {
            None
        };
        Ok(Lost::Pushed {
            dropped,
            overwritten,
        })
    }

    /// The net effect of a tuple whose slot 0 holds `(maintenanceVN, op)`,
    /// from its `current` values and the `pre`-image slot 0 stashed (`None`
    /// for a net insert).
    fn net_row(&self, op: Operation, current: Row, pre: Option<Row>) -> Net {
        let base = self.table.layout().base_schema();
        let row = DeltaRow {
            key: base.key_of(pre.as_ref().unwrap_or(&current)),
            op,
            pre,
            post: (op != Operation::Delete).then_some(current),
        };
        (op, Some(row))
    }

    /// The net effect the encoded tuple image `rec` records once its slot 0
    /// holds `(maintenanceVN, op)`. Table 4's discipline makes that slot the
    /// net effect of every write so far: an insert-then-update tuple carries
    /// `(vn, insert)`. Only the base columns and PV(0) are decoded.
    fn net_effect(&self, op: Operation, rec: &[u8]) -> VnlResult<Net> {
        let layout = self.table.layout();
        // No primary key → rows cannot be addressed for patching.
        if layout.base_schema().key().is_empty() {
            return Ok((op, None));
        }
        let mut pool = StrPool::default();
        let current = self
            .table
            .rows()
            .decode_visible(rec, Classified::Current, &mut pool)?;
        // Slot 0 stashed the pre-image of an update or a delete (a delete
        // leaves the current values as its pre-image); a net insert,
        // resurrections included, has no prior version.
        let pre = match op {
            Operation::Insert => None,
            _ => {
                let codec = self.table.storage().codec();
                let pv0 = decode_cols(codec, rec, layout.pre_set(0).iter().copied())?;
                let mut pre = current.clone();
                for (&u, v) in layout.updatable().iter().zip(pv0) {
                    pre[u] = v;
                }
                Some(pre)
            }
        };
        Ok(self.net_row(op, current, pre))
    }

    /// Read the maintenance transaction's own view: always the current
    /// version of every live tuple (Table 1 row 1, §3.3).
    pub fn scan_current(&self) -> VnlResult<Vec<Row>> {
        self.check_open()?;
        // Pin: the scan walks RIDs; a concurrent GC pass must not recycle
        // slots mid-walk.
        let _pin = self.table.epochs().pin();
        let cursor = self.visible_cursor(None, &Params::new())?;
        Ok(cursor.into_iter().map(|(_, row)| row).collect())
    }

    /// Point-read the current version of the tuple keyed by `key_row`
    /// (`None` when logically absent). The maintenance transaction's own
    /// uncommitted changes are visible to itself. A keyless relation has no
    /// tuple to find.
    pub fn read_current(&self, key_row: &[Value]) -> VnlResult<Option<Row>> {
        self.check_open()?;
        if self.table.key_dir().is_none() {
            return Ok(None);
        }
        // Table 1 at sessionVN = maintenanceVN: no stamp exceeds it, so
        // case 1 holds — the current values, unless slot 0 is a delete.
        self.table.read_visible_by_key(key_row, self.vn)
    }

    // ------------------------------------------------------------------
    // Logical writes: Tables 2–4
    // ------------------------------------------------------------------

    /// Logically insert `base_row` (Table 2): the one-element batch.
    pub fn insert(&self, base_row: Row) -> VnlResult<()> {
        self.check_open()?;
        self.table.layout().base_schema().validate(&base_row)?;
        let key = self.table.key_values(&base_row);
        let mut row = Some(base_row);
        self.apply_batch(&[key], |_, _| Ok(row.take().map(Write::Insert)))
    }

    /// Table 2 row 3: no conflicting tuple — a physical insert.
    fn insert_fresh(&self, base_row: &[Value]) -> VnlResult<()> {
        // trace: under the caller's vnl.txn.insert span.
        fail_point!("vnl.txn.insert.fresh");
        let layout = self.table.layout();
        let ext = layout.new_insert_row(base_row, self.vn);
        let rid = self.table.storage().insert(&ext)?;
        // Recorded at once: every stamped tuple is in the map, which is
        // how rollback finds it.
        let net = if layout.base_schema().key().is_empty() {
            (Operation::Insert, None)
        } else {
            self.net_row(Operation::Insert, layout.current_values(&ext), None)
        };
        let pending = Pending {
            lost: Lost::Fresh,
            net: Some(net),
        };
        locked(&self.undo).insert(rid, pending);
        // Crash window: the tuple exists but is not yet key-registered
        // (an orphan until rollback or recovery reclaims it).
        // trace: under the caller's vnl.txn.insert span.
        fail_point!("vnl.txn.insert.register");
        if let Some(dir) = self.table.key_dir() {
            #[expect(clippy::expect_used, reason = "invariant in the expect message")]
            dir.register(&ext, rid)
                .expect("the key probe found no registration");
        }
        self.table.on_physical_insert(&ext, rid);
        self.record(PhysicalAction::InsertTuple, || {
            layout.ext_schema().key_of(&ext)
        });
        Ok(())
    }

    /// Logically update every visible tuple matching `predicate` (over base
    /// columns), applying `assignments` to **updatable** columns (Table 3,
    /// cursor approach of §4.2.2). Returns the number of tuples updated.
    pub fn update_where(
        &self,
        predicate: Option<&Expr>,
        assignments: &[(String, Expr)],
        params: &Params,
    ) -> VnlResult<u64> {
        self.check_open()?;
        let base_schema = self.table.layout().base_schema();
        // Resolve assignment targets: must be updatable columns.
        let mut targets: Vec<usize> = Vec::with_capacity(assignments.len());
        for (name, _) in assignments {
            let idx = base_schema.column_index(name)?;
            if !base_schema.columns()[idx].updatable {
                return Err(VnlError::KeyRequired(
                    "maintenance UPDATE may only assign updatable columns",
                ));
            }
            targets.push(idx);
        }
        let ctx = EvalContext::new(base_schema, params);
        let mut hits = Vec::new();
        let mut rows = Vec::new();
        for (i, (rid, current)) in self
            .visible_cursor(predicate, params)?
            .into_iter()
            .enumerate()
        {
            let mut new_row = current.clone();
            for (t, (_, expr)) in targets.iter().zip(assignments) {
                new_row[*t] = ctx.eval(expr, &current)?;
            }
            hits.push((rid, i));
            rows.push(Some(new_row));
        }
        let no_keys: &[Row] = &[];
        self.apply_hits(&hits, no_keys, &mut |i, _| {
            Ok(rows[i].take().map(Write::Update))
        })?;
        Ok(hits.len() as u64)
    }

    /// Logically update the tuple whose key matches `key_row` (a base-schema
    /// row whose key columns are set), replacing its updatable columns with
    /// those of `key_row`: the one-element batch.
    pub fn update_row(&self, base_row: &Row) -> VnlResult<()> {
        let key = self.table.key_values(base_row);
        self.apply_batch(&[key], |_, _| Ok(Some(Write::Update(base_row.clone()))))
    }

    /// Logically delete every visible tuple matching `predicate` (Table 4,
    /// §4.2.3 cursor approach). Returns the number of tuples deleted.
    pub fn delete_where(&self, predicate: Option<&Expr>, params: &Params) -> VnlResult<u64> {
        self.check_open()?;
        let hits: Vec<(Rid, usize)> = self
            .visible_cursor(predicate, params)?
            .into_iter()
            .enumerate()
            .map(|(i, (rid, _))| (rid, i))
            .collect();
        let no_keys: &[Row] = &[];
        self.apply_hits(&hits, no_keys, &mut |_, _| Ok(Some(Write::Delete)))?;
        Ok(hits.len() as u64)
    }

    /// Logically delete the tuple whose key matches `base_row`: the
    /// one-element batch.
    pub fn delete_row(&self, base_row: &Row) -> VnlResult<()> {
        let key = self.table.key_values(base_row);
        self.apply_batch(&[key], |_, _| Ok(Some(Write::Delete)))
    }

    /// Apply one logical write per key, a page at a time (Tables 2–4).
    /// `keys[i]` holds a tuple's key columns' values, in key order.
    /// `choose(i, current)` names the write for that key, or `None` to skip
    /// it; `current` views the tuple's current values, or is `None` when the
    /// tuple is absent or logically deleted.
    ///
    /// Every key is probed once and the tuples found are sorted by RID.
    /// Each page is then patched under one write latch hold: `choose` runs
    /// on the record in place, Tables 2–4 pick the arm, and the arm is
    /// applied as a byte patch, so no row is decoded or encoded. Once the
    /// latch drops, each landed write's undo entry and net effect are
    /// recorded, and the arms that take their own latch run: insert∘delete
    /// per page, then the inserts of absent keys, in batch order.
    ///
    /// A batch naming one key twice is refused with
    /// [`VnlError::RepeatedKey`] before any write, and an insert whose row
    /// carries another key with [`VnlError::KeyMismatch`] before that tuple
    /// is written. The first error stops the
    /// batch, and what landed before it is recorded, so an abort rolls it
    /// back. `choose` runs under a page latch: it must not call back into
    /// the table.
    pub fn apply_batch<K, C>(&self, keys: &[K], mut choose: C) -> VnlResult<()>
    where
        K: AsRef<[Value]>,
        C: FnMut(usize, Option<&dyn RowView>) -> VnlResult<Option<Write>>,
    {
        self.check_open()?;
        // An insert's row carries the key it was probed by, so its tuple is
        // registered under the key that found it or found nothing.
        let mut choose = |i: usize, current: Option<&dyn RowView>| {
            let write = choose(i, current)?;
            if let Some(Write::Insert(row)) = &write {
                let key = keys[i].as_ref();
                let carried = self.table.key_values(row);
                if self.table.key_probe(&carried) != self.table.key_probe(key) {
                    return Err(VnlError::KeyMismatch(format!("{key:?}")));
                }
            }
            Ok(write)
        };
        // Pin: the probes, the patches and a stale key's fresh insert follow
        // RIDs a concurrent GC pass could otherwise recycle.
        let _pin = self.table.epochs().pin();
        let dir = self.table.key_dir();
        let mut hits = Vec::with_capacity(keys.len());
        let mut absent = HashSet::new();
        let mut fresh = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let key = key.as_ref();
            if let Some(dir) = dir {
                let probe = self.table.key_probe(key);
                if let Some(rid) = dir.find_key(&probe) {
                    hits.push((rid, i));
                    continue;
                }
                if !absent.insert(probe) {
                    return Err(VnlError::RepeatedKey(format!("{key:?}")));
                }
            }
            match choose(i, None)? {
                Some(Write::Insert(row)) => {
                    self.table.layout().base_schema().validate(&row)?;
                    fresh.push((i, row, None));
                }
                Some(_) => return Err(no_such_key(key)),
                None => {}
            }
        }
        hits.sort_by_key(|&(rid, _)| rid);
        if let Some(w) = hits.windows(2).find(|w| w[0].0 == w[1].0) {
            let key = keys[w[1].1].as_ref();
            return Err(VnlError::RepeatedKey(format!("{key:?}")));
        }
        fresh.extend(self.apply_hits(&hits, keys, &mut choose)?);
        // In batch order, whether the probe or the patch found no tuple.
        fresh.sort_unstable_by_key(|&(i, ..)| i);
        for (_, row, stale) in fresh {
            let _ts = self.span(Operation::Insert);
            if let Some(rid) = stale {
                // GC unregisters a reclaimed tuple's key only after its
                // physical delete; clear the stale registration first.
                self.table
                    .unregister_key(&self.table.base_to_ext_positions(&row), rid);
            }
            self.insert_fresh(&row)?;
        }
        Ok(())
    }

    /// Tables 2–4 over the tuples `hits`, `(RID, index)` pairs in RID
    /// order, a page at a time. Returns the inserts whose tuple GC reclaimed
    /// after it was found; they meet no conflict and insert fresh.
    fn apply_hits<K, C>(
        &self,
        hits: &[(Rid, usize)],
        keys: &[K],
        choose: &mut C,
    ) -> VnlResult<Vec<Fresh>>
    where
        K: AsRef<[Value]>,
        C: FnMut(usize, Option<&dyn RowView>) -> VnlResult<Option<Write>>,
    {
        let mut fresh = Vec::new();
        for page in hits.chunk_by(|a, b| a.0.page == b.0.page) {
            self.apply_page(page, keys, choose, &mut fresh)?;
        }
        Ok(fresh)
    }

    /// One page's tuples `hits`: decided and patched under one write latch
    /// hold, then, with the latch dropped, recorded, and the page's
    /// insert∘delete arms run.
    fn apply_page<K, C>(
        &self,
        hits: &[(Rid, usize)],
        keys: &[K],
        choose: &mut C,
        fresh: &mut Vec<Fresh>,
    ) -> VnlResult<()>
    where
        K: AsRef<[Value]>,
        C: FnMut(usize, Option<&dyn RowView>) -> VnlResult<Option<Write>>,
    {
        use PhysicalAction as A;
        let rows = self.table.rows();
        let len = self.table.storage().codec().encoded_len();
        let slots: Vec<u16> = hits.iter().map(|(rid, _)| rid.slot).collect();
        // Each decided tuple's image before its patch, then after it.
        let mut arena = Vec::new();
        let mut landed = Vec::new();
        let mut removals = Vec::new();
        let mut pool = StrPool::default();
        let pool = RefCell::new(&mut pool);
        let heap = self.table.storage().heap();
        let (n, res) = heap.patch_page(hits[0].0.page, &slots, |k, current, out| {
            let (rid, i) = hits[k];
            let Some(current) = current else {
                // GC reclaimed the tuple since it was found: an insert meets
                // no conflict, an update or a delete no tuple.
                match choose(i, None)? {
                    Some(Write::Insert(row)) => fresh.push((i, row, Some(rid))),
                    Some(_) => return Err(VnlError::NoSuchTuple(format!("{rid}"))),
                    None => {}
                }
                return Ok(false);
            };
            let (tuple_vn, previous) = rows.stamp_of(current)?;
            let view = match previous {
                Operation::Delete => None,
                _ => Some(rows.current_row(current, &pool)?),
            };
            let Some(write) = choose(i, view.as_ref().map(|v| v as &dyn RowView))? else {
                return Ok(false);
            };
            let _ts = self.span(write.op());
            let action = match decide(write.op(), tuple_vn == self.vn, previous) {
                // A key whose tuple an earlier transaction deleted is "not
                // there" for deletion purposes.
                Err(VnlError::InvalidTransition {
                    attempted: Operation::Delete,
                    same_txn: false,
                    ..
                }) if i < keys.len() => return Err(no_such_key(keys[i].as_ref())),
                decided => decided?,
            };
            let at = arena.len();
            arena.extend_from_slice(current);
            match action {
                // trace: under this tuple's vnl.txn.insert span.
                A::ResurrectTuple => fail_point!("vnl.txn.insert.resurrect"),
                // trace: under this tuple's vnl.txn.update span.
                A::UpdateSavingPre => fail_point!("vnl.txn.update.save_pre"),
                // trace: under this tuple's vnl.txn.update span.
                A::UpdateInPlace => fail_point!("vnl.txn.update.in_place"),
                // trace: under this tuple's vnl.txn.delete span.
                A::MarkDeleted => fail_point!("vnl.txn.delete.mark"),
                // trace: under this tuple's vnl.txn.delete span.
                A::MarkOwnUpdateDeleted => fail_point!("vnl.txn.delete.mark_own_update"),
                // insert∘delete takes its own latch once this one drops.
                A::RemoveOwnInsert => {
                    removals.push((rid, at));
                    return Ok(false);
                }
                _ => {}
            }
            // Slot 0 carries the net effect: delete∘insert = update and
            // insert∘update = insert.
            let op = match action {
                A::UpdateAfterOwnDelete => Operation::Update,
                A::UpdateInPlace => previous,
                _ => write.op(),
            };
            out.copy_from_slice(current);
            // A rejected value fails the write as a row encode failed it.
            self.patch(out, action, &write, op)
                .map_err(StorageError::from)?;
            arena.extend_from_slice(out);
            landed.push(Landed {
                rid,
                action,
                op,
                at,
            });
            Ok(true)
        });
        // A write the closure made that failed to land is not recorded.
        landed.truncate(n);
        self.record_landed(&landed, &arena, len)?;
        res?;
        for (rid, at) in removals {
            self.remove_own(rid, &arena[at..at + len])?;
        }
        // Crash window between pages: this page's writes landed and are
        // recorded, the next page's are not yet made.
        // trace: under the transaction's root span.
        fail_point!("vnl.txn.batch.page");
        Ok(())
    }

    /// The arm `action` applied to the tuple image `rec` as a byte patch: the
    /// slot push-back as fixed-width moves that carry their null bits, PV(0),
    /// CV ← MV through the per-column encoder, which rejects what a row
    /// encode rejects, then slot 0's stamp `(maintenanceVN, op)`.
    fn patch(
        &self,
        rec: &mut [u8],
        action: PhysicalAction,
        write: &Write,
        op: Operation,
    ) -> TypeResult<()> {
        use PhysicalAction as A;
        let layout = self.table.layout();
        let codec = self.table.storage().codec();
        if let Write::Insert(row) | Write::Update(row) = write {
            let expected = layout.base_schema().arity();
            if row.len() != expected {
                let got = row.len();
                return Err(TypeError::Arity { expected, got });
            }
        }
        if matches!(
            action,
            A::ResurrectTuple | A::UpdateSavingPre | A::MarkDeleted
        ) {
            // An earlier transaction's tuple is pushed back to open slot 0
            // for this one.
            layout.push_back(codec, rec)?;
            // PV(0): NULL under a resurrection, else the current values
            // being updated or deleted.
            for (&pre, &u) in layout.pre_set(0).iter().zip(layout.updatable()) {
                match write {
                    Write::Insert(_) => codec.encode_col(rec, pre, &Value::Null)?,
                    _ => codec.move_col(rec, layout.base_col(u), pre)?,
                }
            }
        }
        // CV ← MV: every base column for an insert, the updatable ones for
        // an update. A delete keeps CV (Figure 6's Berkeley row).
        match write {
            Write::Insert(row) => {
                for (i, v) in row.iter().enumerate() {
                    codec.encode_col(rec, layout.base_col(i), v)?;
                }
            }
            Write::Update(row) => {
                for &u in layout.updatable() {
                    codec.encode_col(rec, layout.base_col(u), &row[u])?;
                }
            }
            Write::Delete => {}
        }
        codec.encode_col(rec, layout.vn_col(0), &Value::from(self.vn as i64))?;
        codec.encode_col(rec, layout.op_col(0), &op.value())
    }

    /// Record the writes that landed on one page, from copies of their
    /// images: a first touch's undo entry, each tuple's net effect, index
    /// upkeep and the arm counters.
    fn record_landed(&self, landed: &[Landed], arena: &[u8], len: usize) -> VnlResult<()> {
        use PhysicalAction as A;
        for l in landed {
            let before = &arena[l.at..l.at + len];
            let after = &arena[l.at + len..l.at + 2 * len];
            let net = self.net_effect(l.op, after)?;
            let key = match (&net.1, self.tracing()) {
                (Some(row), true) => row.key.clone(),
                _ => Row::new(),
            };
            // A first touch pushed a slot back: its entry records what the
            // push lost.
            match locked(&self.undo).entry(l.rid) {
                Entry::Occupied(e) => e.into_mut().net = Some(net),
                Entry::Vacant(e) => {
                    if matches!(
                        l.action,
                        A::ResurrectTuple | A::UpdateSavingPre | A::MarkDeleted
                    ) {
                        let lost = self.lost(before, l.action == A::ResurrectTuple)?;
                        e.insert(Pending {
                            lost,
                            net: Some(net),
                        });
                    }
                }
            }
            if matches!(l.action, A::ResurrectTuple | A::UpdateAfterOwnDelete) {
                // CV ← MV may have moved non-updatable indexed attributes.
                self.table.on_physical_update(before, after, l.rid)?;
            }
            self.record(l.action, || key);
        }
        Ok(())
    }

    /// Table 4's insert∘delete = nothing on `rid`, whose image the page
    /// latch read as `rec`: the tuple was created (or resurrected) by this
    /// very transaction, so the delete is that one tuple's rollback — a
    /// physical delete of a fresh insert, or the pre-resurrection tuple
    /// restored rather than its still-needed pre-delete version destroyed.
    fn remove_own(&self, rid: Rid, rec: &[u8]) -> VnlResult<()> {
        let _ts = self.span(Operation::Delete);
        let ext = self.table.storage().codec().decode(rec)?;
        let lost = locked(&self.undo)
            .get(&rid)
            .map_or(Lost::Unknown, |p| p.lost.clone());
        if matches!(lost, Lost::Fresh) {
            self.table.unregister_key(&ext, rid);
            // Crash window: key unregistered, tuple still stored.
            // trace: under this tuple's vnl.txn.delete span.
            fail_point!("vnl.txn.delete.remove_own");
        }
        let action = match undo_tuple(self.table, rid, &ext, &lost)? {
            Plan::Remove { .. } => PhysicalAction::RemoveOwnInsert,
            Plan::Restore { .. } => PhysicalAction::RestoreResurrected,
        };
        locked(&self.undo).remove(&rid);
        self.record(action, || self.table.layout().ext_schema().key_of(&ext));
        Ok(())
    }

    /// Stable cursor over tuples this transaction can see (current versions,
    /// excluding logically-deleted), filtered by an optional base-schema
    /// predicate — the §4.2 cursor.
    fn visible_cursor(
        &self,
        predicate: Option<&Expr>,
        params: &Params,
    ) -> VnlResult<Vec<(Rid, Row)>> {
        let layout = self.table.layout();
        let ctx = EvalContext::new(layout.base_schema(), params);
        let mut matches = Vec::new();
        // lint: allow(epoch-discipline) — the cursor keeps only live tuples whose slot 0 is not a delete; GC reclaims only committed deletes and only this single maintenance writer deletes or inserts, so no kept RID is reclaimed or reused before update_where/delete_where applies it
        self.table.walk_stamps(|t| {
            if t.op == Operation::Delete {
                return Ok(());
            }
            let current = layout.current_values(&t.decode()?);
            if match predicate {
                Some(p) => ctx.eval_predicate(p, &current)?,
                None => true,
            } {
                matches.push((t.rid, current));
            }
            Ok(())
        })?;
        Ok(matches)
    }

    // ------------------------------------------------------------------
    // SQL front door (§4.2): the rewrite executed as cursor logic.
    // ------------------------------------------------------------------

    /// Execute a base-schema DML statement (`INSERT`/`UPDATE`/`DELETE` on
    /// this relation) through the decision tables — the runtime counterpart
    /// of the §4.2 statement rewrite. Returns affected-row count.
    pub fn execute_sql(&self, sql: &str, params: &Params) -> VnlResult<u64> {
        self.check_open()?;
        let stmt = parse_statement(sql)?;
        match stmt {
            Statement::Insert(ins) => {
                if ins.table != self.table.name() {
                    return Err(VnlError::Sql(wh_sql::SqlError::NoSuchTable(ins.table)));
                }
                let base_schema = self.table.layout().base_schema().clone();
                let empty = wh_types::Schema::new(vec![])?;
                let ctx = EvalContext::new(&empty, params);
                let mut n = 0;
                for row_exprs in &ins.rows {
                    let values: Vec<Value> = row_exprs
                        .iter()
                        .map(|e| ctx.eval(e, &[]))
                        .collect::<Result<_, _>>()?;
                    let row = if ins.columns.is_empty() {
                        values
                    } else {
                        let mut row = vec![Value::Null; base_schema.arity()];
                        for (name, v) in ins.columns.iter().zip(values) {
                            row[base_schema.column_index(name)?] = v;
                        }
                        row
                    };
                    self.insert(row)?;
                    n += 1;
                }
                Ok(n)
            }
            Statement::Update(upd) => {
                if upd.table != self.table.name() {
                    return Err(VnlError::Sql(wh_sql::SqlError::NoSuchTable(upd.table)));
                }
                self.update_where(upd.where_clause.as_ref(), &upd.assignments, params)
            }
            Statement::Delete(del) => {
                if del.table != self.table.name() {
                    return Err(VnlError::Sql(wh_sql::SqlError::NoSuchTable(del.table)));
                }
                self.delete_where(del.where_clause.as_ref(), params)
            }
            Statement::Select(_) => Err(VnlError::Sql(wh_sql::SqlError::Unsupported(
                "maintenance transactions read via scan_current()".into(),
            ))),
            Statement::CreateTable(_) | Statement::DropTable(_) => {
                Err(VnlError::Sql(wh_sql::SqlError::Unsupported(
                    "DDL is not part of a maintenance transaction".into(),
                )))
            }
        }
    }

    // ------------------------------------------------------------------
    // Commit / abort
    // ------------------------------------------------------------------

    /// Commit: data changes are already in place; publishing the new
    /// `currentVN` happens as its own latched step (§4's abort-safe order),
    /// retaining the transaction's net-effect batch for session repair in
    /// the same latched step.
    pub fn commit(self) -> VnlResult<()> {
        let _ts =
            wh_obs::timed_span_under!("vnl.txn.commit", "vnl.maintenance.commit_ns", self.span_ctx);
        self.check_open()?;
        // Capture before `finished` flips: a fault here leaves the txn
        // open, so Drop rolls everything back and nothing — data or delta —
        // is published.
        let mut batch = DeltaBatch::empty(self.vn);
        self.capture_net_effect(&mut batch)?;
        *locked(&self.finished) = true;
        self.table.version().publish_commit(self.vn, batch)?;
        wh_obs::slo::note_commit();
        Ok(())
    }

    /// Add the net effects the writes recorded to `batch` under the table's
    /// name in RID (heap) order, and the net deletes to GC's record, reading
    /// no page. A removed own insert or restored resurrection left no entry
    /// and a write that never landed no net effect, so each touched key
    /// yields exactly its net effect.
    pub(crate) fn capture_net_effect(&self, batch: &mut DeltaBatch) -> VnlResult<()> {
        wh_obs::trace_event!("vnl.delta.capture", self.vn);
        // trace: capture sits inside the commit span's causal story.
        fail_point!("vnl.delta.capture");
        let mut rows = Vec::new();
        let mut deletes = Vec::new();
        for (&rid, pending) in locked(&self.undo).iter_mut() {
            if let Some((op, row)) = pending.net.take() {
                if op == Operation::Delete {
                    deletes.push((self.vn, rid));
                }
                rows.extend(row);
            }
        }
        self.table.note_deletes(deletes);
        // A keyless table's batch is retained without rows so the repair
        // window fails closed to restart.
        if self.table.layout().base_schema().key().is_empty() {
            batch.repairable = false;
        } else {
            batch.rows.insert(self.table.name().to_string(), rows);
        }
        Ok(())
    }

    /// Commit only once no reader sessions are active — the §2.1 alternative
    /// policy that trades possible writer starvation for sessions that never
    /// expire. Polls the session registry; returns the number of polls.
    pub fn commit_when_quiescent(self, poll: std::time::Duration) -> VnlResult<u64> {
        self.check_open()?;
        let mut polls = 0;
        while self.table.active_session_count() > 0 {
            polls += 1;
            std::thread::sleep(poll);
        }
        self.commit()?;
        Ok(polls)
    }

    /// Abort by reverting every touched tuple from its own version slots
    /// (§7's log-free rollback), then clearing the maintenance flag.
    pub fn abort(self) -> VnlResult<()> {
        let _ts =
            wh_obs::timed_span_under!("vnl.txn.abort", "vnl.maintenance.abort_ns", self.span_ctx);
        self.check_open()?;
        *locked(&self.finished) = true;
        self.rollback_changes()?;
        self.table.version().publish_abort()?;
        Ok(())
    }

    /// Mark finished without publishing — the warehouse-wide transaction
    /// publishes once for all tables.
    pub(crate) fn commit_local(&self) -> VnlResult<()> {
        self.check_open()?;
        *locked(&self.finished) = true;
        Ok(())
    }

    /// Roll back and mark finished without publishing (warehouse abort).
    pub(crate) fn abort_local(&self) -> VnlResult<()> {
        self.check_open()?;
        *locked(&self.finished) = true;
        self.rollback_changes()?;
        Ok(())
    }

    fn rollback_changes(&self) -> VnlResult<()> {
        let _ts = wh_obs::timed_span_under!(
            "vnl.txn.rollback",
            "vnl.maintenance.rollback_ns",
            self.span_ctx
        );
        // Pin: the RIDs come from the undo map and are mutated below; GC
        // must not recycle them in between.
        let _pin = self.table.epochs().pin();
        let undo = std::mem::take(&mut *locked(&self.undo));
        for (&rid, pending) in &undo {
            // Per-tuple crash window: a fault mid-rollback leaves some
            // tuples restored and others still carrying maintenanceVN.
            fail_point!("vnl.txn.rollback.step");
            let ext = match self.table.storage().read(rid) {
                Ok(ext) => ext,
                Err(StorageError::NoSuchSlot { .. }) => continue,
                Err(e) => return Err(e.into()),
            };
            // A fault between recording the entry and the write leaves an
            // entry on a tuple without `maintenanceVN`: nothing to undo.
            if self.table.layout().stamp(&ext, rid)?.0 != self.vn {
                continue;
            }
            let plan = undo_tuple(self.table, rid, &ext, &pending.lost)?;
            debug_assert_eq!(plan.horizon(), 1, "a live abort is exact: no fence");
        }
        Ok(())
    }
}

impl std::fmt::Debug for MaintenanceTxn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaintenanceTxn")
            .field("vn", &self.vn)
            .field("finished", &*locked(&self.finished))
            .finish()
    }
}

impl Drop for MaintenanceTxn<'_> {
    fn drop(&mut self) {
        let mut finished = locked(&self.finished);
        if !*finished {
            *finished = true;
            // Best-effort auto-abort so a dropped transaction cannot wedge
            // the one-writer protocol.
            let _ = self.rollback_changes();
            let _ = self.table.version().publish_abort();
        }
        // Close the txn's root trace span only here: a transaction that is
        // `mem::forget`-ten (the crash-matrix fault model) never reaches
        // this Drop, so its span stays open and the flight recorder shows
        // the interrupted causal chain at recovery time.
        wh_obs::trace::close_ctx(self.span_ctx, self.vn);
    }
}

#[cfg(test)]
mod tests {
    //! The touched set, capture, abort and recovery, held against each
    //! other over seeded scripts that reach all nine Tables 2–4 arms.

    use super::*;
    use crate::visibility::{extract, Visible};
    use std::collections::BTreeSet;
    use wh_types::{Column, DataType, Schema};

    struct SplitMix64(u64);

    impl SplitMix64 {
        fn below(&mut self, bound: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        }
    }

    fn row(k: i64, v: i64) -> Row {
        vec![Value::from(k), Value::from(v)]
    }

    /// One random valid operation on one of six keys, chosen by what the
    /// transaction sees: a live key is updated or deleted, an absent one
    /// inserted — a fresh insert, a resurrection, or delete∘insert.
    fn random_op(txn: &MaintenanceTxn<'_>, rng: &mut SplitMix64) {
        let k = rng.below(6) as i64;
        let v = rng.below(1000) as i64;
        if txn.read_current(&row(k, 0)).unwrap().is_none() {
            txn.insert(row(k, v)).unwrap();
        } else if rng.below(3) == 0 {
            txn.delete_row(&row(k, 0)).unwrap();
        } else {
            txn.update_row(&row(k, v)).unwrap();
        }
    }

    /// A table with a seeded committed history; `rng` continues from it.
    fn history(n: usize, rng: &mut SplitMix64, arms: &mut BTreeSet<String>) -> VnlTable {
        let schema = Schema::with_key_names(
            vec![
                Column::new("k", DataType::Int64),
                Column::updatable("v", DataType::Int64),
            ],
            &["k"],
        )
        .unwrap();
        let table = VnlTable::create_named("T", schema, n).unwrap();
        table
            .load_initial(&(0..4).map(|k| row(k, k)).collect::<Vec<_>>())
            .unwrap();
        for _ in 0..1 + rng.below(4) {
            let txn = table.begin_maintenance().unwrap();
            txn.set_tracing(true);
            for _ in 0..1 + rng.below(6) {
                random_op(&txn, rng);
            }
            arms.extend(txn.take_trace().iter().map(|(a, _)| format!("{a:?}")));
            txn.commit().unwrap();
        }
        table
    }

    /// The reference capture: a walk of the relation for slot-0 stamps
    /// equal to `maintenanceVN`, each tuple's net effect decoded from its
    /// page.
    fn walk_capture(txn: &MaintenanceTxn<'_>) -> Vec<DeltaRow> {
        let layout = txn.table.layout();
        let mut rows = Vec::new();
        txn.table
            .walk_stamps(|t| {
                if t.vn == txn.vn {
                    let ext = t.decode()?;
                    let current = layout.current_values(&ext);
                    let pre = (t.op != Operation::Insert).then(|| layout.pre_values(&ext, 0));
                    rows.push(DeltaRow {
                        key: layout
                            .base_schema()
                            .key_of(pre.as_ref().unwrap_or(&current)),
                        op: t.op,
                        pre,
                        post: (t.op != Operation::Delete).then_some(current),
                    });
                }
                Ok(())
            })
            .unwrap();
        rows
    }

    /// (a) the undo map's RIDs and recorded operations are the walk's
    /// `slot0 == maintenanceVN` tuples and their slot-0 operations, and (b)
    /// the rows the writes recorded equal the walk-driven oracle.
    fn assert_map_matches_walk(txn: &MaintenanceTxn<'_>) {
        let undo = locked(&txn.undo);
        let map: Vec<_> = undo
            .iter()
            .map(|(&rid, p)| (rid, p.net.as_ref().map(|n| n.0)))
            .collect();
        let recorded: Vec<DeltaRow> = undo.values().filter_map(|p| p.net.clone()?.1).collect();
        drop(undo);
        let mut walk = Vec::new();
        txn.table
            .walk_stamps(|t| {
                if t.vn == txn.vn {
                    walk.push((t.rid, Some(t.op)));
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(map, walk, "touched set");
        assert_eq!(recorded, walk_capture(txn), "recorded net effects");
    }

    /// What the commit at `vn` published for table `T`.
    fn published(table: &VnlTable, vn: VersionNo) -> Vec<DeltaRow> {
        let window = table.version().delta_window(vn - 1, vn).unwrap();
        window[0].rows_for("T").cloned().collect()
    }

    /// Every committed slot-0 delete the walk finds has an entry in the
    /// table's record of deletes, which GC visits instead of the relation.
    fn assert_deletes_recorded(table: &VnlTable, at: &str) {
        let current = table.version().snapshot().current_vn;
        let recorded = table.take_deletes(current);
        table.note_deletes(recorded.iter().copied());
        table
            .walk_stamps(|t| {
                if t.op == Operation::Delete && t.vn <= current {
                    assert!(
                        recorded.contains(&(t.vn, t.rid)),
                        "{} unrecorded, {at}",
                        t.rid
                    );
                }
                Ok(())
            })
            .unwrap();
    }

    fn physical(table: &VnlTable) -> Vec<String> {
        let rows = table.scan_raw().unwrap();
        rows.iter()
            .map(|(rid, ext)| format!("{rid}:{ext:?}"))
            .collect()
    }

    /// Every tuple's Table 1 verdict at `svn`, expirations included.
    fn reads(table: &VnlTable, svn: VersionNo) -> Vec<String> {
        let layout = table.layout();
        let mut out: Vec<String> = table
            .scan_raw()
            .unwrap()
            .iter()
            .filter_map(|(_, ext)| match extract(layout, ext, svn) {
                Visible::Row(r) => Some(format!("{r:?}")),
                Visible::Ignore => None,
                Visible::Expired => Some(format!("expired {:?}", layout.current_values(ext))),
            })
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn touched_set_capture_abort_and_recovery_agree() {
        for n in [2usize, 3, 4] {
            let mut arms = BTreeSet::new();
            for seed in 0..40u64 {
                let seed = seed ^ ((n as u64) << 32);
                let steps = 1 + SplitMix64(seed).below(8) as usize;
                // (a) and (b) after every step of the whole script.
                let mut rng = SplitMix64(seed);
                rng.below(8);
                let table = history(n, &mut rng, &mut arms);
                let txn = table.begin_maintenance().unwrap();
                txn.set_tracing(true);
                for _ in 0..steps {
                    random_op(&txn, &mut rng);
                    assert_map_matches_walk(&txn);
                    // GC on odd seeds only: a reclaimed tuple cannot be
                    // resurrected, and the even seeds keep every arm reached.
                    if seed % 2 == 1 {
                        crate::gc::collect(&table).unwrap();
                    }
                }
                arms.extend(txn.take_trace().iter().map(|(a, _)| format!("{a:?}")));
                let oracle = walk_capture(&txn);
                let vn = txn.maintenance_vn();
                txn.commit().unwrap();
                assert_eq!(published(&table, vn), oracle, "n={n} seed={seed}");
                assert_deletes_recorded(&table, &format!("commit, n={n} seed={seed}"));

                // (c) and (d) at every prefix of the script, on twin tables;
                // with GC between the steps, abort and recovery keep the
                // record of deletes whole.
                for prefix in 0..=steps {
                    let twin = |gc: bool, end: &dyn Fn(MaintenanceTxn<'_>)| {
                        let mut rng = SplitMix64(seed);
                        rng.below(8);
                        let table = history(n, &mut rng, &mut BTreeSet::new());
                        let before = physical(&table);
                        let txn = table.begin_maintenance().unwrap();
                        for _ in 0..prefix {
                            random_op(&txn, &mut rng);
                            if gc {
                                crate::gc::collect(&table).unwrap();
                            }
                        }
                        end(txn);
                        (table, before)
                    };
                    let at = format!("n={n} seed={seed} prefix={prefix}");
                    let abort = |txn: MaintenanceTxn<'_>| txn.abort().unwrap();
                    let crash = |txn: MaintenanceTxn<'_>| {
                        let table = txn.table;
                        std::mem::forget(txn);
                        crate::recover(table).unwrap();
                    };
                    assert_deletes_recorded(&twin(true, &abort).0, &format!("abort, {at}"));
                    assert_deletes_recorded(&twin(true, &crash).0, &format!("recover, {at}"));
                    let (aborted, before) = twin(false, &abort);
                    assert_eq!(physical(&aborted), before, "abort, {at}");
                    let (recovered, _) = twin(false, &|txn| std::mem::forget(txn));
                    let report = crate::recover(&recovered).unwrap();
                    let current = report.current_vn;
                    // A duplicated oldest slot that serves every session
                    // (`w − 1 ≤ 1`) is the one byte recovery may differ by.
                    if report.exact_horizon == 1 && report.duplicated_oldest_slots == 0 {
                        assert_eq!(physical(&recovered), before, "recover, {at}");
                    } else if report.exact_horizon == 1 {
                        let rids = |t: &VnlTable| -> Vec<Rid> {
                            t.scan_raw().unwrap().iter().map(|(rid, _)| *rid).collect()
                        };
                        assert_eq!(rids(&recovered), rids(&aborted), "tuples, {at}");
                    }
                    for svn in report.exact_horizon..=current {
                        assert_eq!(
                            reads(&recovered, svn),
                            reads(&aborted, svn),
                            "reads at {svn}, {at}"
                        );
                    }
                }
            }
            assert_eq!(arms.len(), 9, "n={n}: every Tables 2–4 arm, got {arms:?}");
        }
    }

    /// The keys a batch script touches: loaded keys spread over the pages of
    /// a 300-tuple table, and keys never loaded.
    const SCRIPTED: [i64; 14] = [
        3, 40, 77, 114, 151, 188, 225, 262, 299, 1001, 1002, 1003, 1004, 1005,
    ];

    /// The write a script makes to key `k` with draws `(r, v)`, by whether
    /// the transaction sees the key: a live key is updated or deleted, an
    /// absent one inserted.
    fn scripted(visible: bool, (k, r, v): (i64, u64, i64)) -> Write {
        match (visible, r % 3) {
            (false, _) => Write::Insert(row(k, v)),
            (true, 0) => Write::Delete,
            (true, _) => Write::Update(row(k, v)),
        }
    }

    /// One batch of distinct scripted keys, in shuffled order.
    fn batch_script(rng: &mut SplitMix64) -> Vec<(i64, u64, i64)> {
        let mut keys = SCRIPTED.to_vec();
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let len = 2 + rng.below(8) as usize;
        keys[..len]
            .iter()
            .map(|&k| (k, rng.below(3), rng.below(1000) as i64))
            .collect()
    }

    /// The script as one-element calls, in the order a batch applies it:
    /// the tuples the key directory holds in RID order, then the absent
    /// keys in batch order. With `gc`, a GC pass runs first, under a pin
    /// held across the calls, as the batch's own pin is held across it.
    fn one_at_a_time(txn: &MaintenanceTxn<'_>, script: &[(i64, u64, i64)], gc: bool) {
        let table = txn.table;
        let _pin = gc.then(|| table.epochs().pin());
        if gc {
            crate::gc::collect(table).unwrap();
        }
        let mut order: Vec<(Option<Rid>, usize)> = script
            .iter()
            .enumerate()
            .map(|(i, &(k, ..))| (table.find_physical(&row(k, 0)), i))
            .collect();
        order.sort_by_key(|&(rid, i)| (rid.is_none(), rid, i));
        for (_, i) in order {
            let (k, ..) = script[i];
            let visible = txn.read_current(&row(k, 0)).unwrap().is_some();
            match scripted(visible, script[i]) {
                Write::Insert(r) => txn.insert(r),
                Write::Update(r) => txn.update_row(&r),
                Write::Delete => txn.delete_row(&row(k, 0)),
            }
            .unwrap();
        }
    }

    /// The script as one batch. `gc_at` names the key whose decision runs
    /// a GC pass: an absent key's, made after the earlier keys were probed
    /// and before any page is patched.
    fn as_batch(txn: &MaintenanceTxn<'_>, script: &[(i64, u64, i64)], mut gc_at: Option<usize>) {
        let keys: Vec<Row> = script.iter().map(|&(k, ..)| vec![Value::from(k)]).collect();
        txn.apply_batch(&keys, |i, current| {
            if gc_at == Some(i) {
                gc_at = None;
                crate::gc::collect(txn.table).unwrap();
            }
            Ok(Some(scripted(current.is_some(), script[i])))
        })
        .unwrap();
    }

    /// A 300-tuple `(k, v)` table over several pages with a seeded committed
    /// history of one-element calls on the scripted keys; `rng` continues
    /// from it.
    fn paged_history(n: usize, rng: &mut SplitMix64) -> VnlTable {
        let schema = Schema::with_key_names(
            vec![
                Column::new("k", DataType::Int64),
                Column::updatable("v", DataType::Int64),
            ],
            &["k"],
        )
        .unwrap();
        let table = VnlTable::create_named("T", schema, n).unwrap();
        table
            .load_initial(&(0..300).map(|k| row(k, k)).collect::<Vec<_>>())
            .unwrap();
        assert!(table.storage().heap().page_count() > 1);
        for _ in 0..1 + rng.below(3) {
            let txn = table.begin_maintenance().unwrap();
            one_at_a_time(&txn, &batch_script(rng), false);
            txn.commit().unwrap();
        }
        table
    }

    /// Where a batch's GC pass goes: the first absent key after a key whose
    /// tuple GC can reclaim, with the number of such keys probed before it.
    fn gc_point(table: &VnlTable, script: &[(i64, u64, i64)]) -> Option<(usize, usize)> {
        let mut reclaimable = 0;
        for (i, &(k, ..)) in script.iter().enumerate() {
            let Some(rid) = table.find_physical(&row(k, 0)) else {
                return (reclaimable > 0).then_some((i, reclaimable));
            };
            let ext = table.storage().read(rid).unwrap();
            let slot0 = table.layout().slot(&ext, 0).unwrap();
            let committed = table.version().snapshot().current_vn;
            reclaimable += usize::from(slot0.1 == Operation::Delete && slot0.0 <= committed);
        }
        None
    }

    #[test]
    fn a_batch_is_its_calls_made_one_at_a_time() {
        for n in [2usize, 3, 4] {
            let mut arms = BTreeSet::new();
            let mut reclaimed_mid_batch = 0;
            for seed in 0..24u64 {
                let seed = seed ^ ((n as u64) << 40);
                for commit in [true, false] {
                    let at = format!("n={n} seed={seed} commit={commit}");
                    let twin = || {
                        let mut rng = SplitMix64(seed);
                        let table = paged_history(n, &mut rng);
                        (table, rng)
                    };
                    let ((batched, mut rng), (single, _)) = (twin(), twin());
                    let before = physical(&batched);
                    assert_eq!(physical(&single), before);
                    let (a, b) = (
                        batched.begin_maintenance().unwrap(),
                        single.begin_maintenance().unwrap(),
                    );
                    a.set_tracing(true);
                    b.set_tracing(true);
                    let mut collected = false;
                    for step in 0..2 + rng.below(3) {
                        let script = batch_script(&mut rng);
                        let gc = (step == 0 && seed.is_multiple_of(3))
                            .then(|| gc_point(&batched, &script))
                            .flatten();
                        reclaimed_mid_batch += gc.map_or(0, |(_, r)| r);
                        collected |= gc.is_some();
                        as_batch(&a, &script, gc.map(|(i, _)| i));
                        one_at_a_time(&b, &script, gc.is_some());
                        let at = format!("{at} step={step}");
                        assert_eq!(physical(&batched), physical(&single), "images, {at}");
                        let actions = |t: &MaintenanceTxn<'_>| {
                            let mut acts: Vec<String> =
                                t.take_trace().iter().map(|a| format!("{a:?}")).collect();
                            acts.sort_unstable();
                            acts
                        };
                        let acts = actions(&a);
                        assert_eq!(acts, actions(&b), "actions, {at}");
                        arms.extend(acts.iter().map(|a| a[1..a.find(',').unwrap()].to_string()));
                        let undo = |t: &MaintenanceTxn<'_>| format!("{:?}", *locked(&t.undo));
                        assert_eq!(undo(&a), undo(&b), "undo map, {at}");
                        assert_map_matches_walk(&a);
                    }
                    // A repeated key is refused before anything is written.
                    let hit = vec![Value::from(SCRIPTED[0])];
                    let absent = vec![Value::from(-1)];
                    for keys in [[hit.clone(), hit.clone()], [absent.clone(), absent.clone()]] {
                        let image = physical(&batched);
                        let refused =
                            a.apply_batch(&keys, |_, _| Ok(Some(Write::Insert(row(-1, 0)))));
                        assert!(matches!(refused, Err(VnlError::RepeatedKey(_))), "{at}");
                        assert_eq!(physical(&batched), image, "{at}");
                    }
                    // An insert whose row carries another key than the one
                    // it was probed by is refused before it is written,
                    // whether its key found a tuple or found none.
                    for key in [hit, absent] {
                        let image = physical(&batched);
                        let refused =
                            a.apply_batch(&[key], |_, _| Ok(Some(Write::Insert(row(-2, 0)))));
                        assert!(matches!(refused, Err(VnlError::KeyMismatch(_))), "{at}");
                        assert_eq!(physical(&batched), image, "{at}");
                    }
                    if commit {
                        let vn = a.maintenance_vn();
                        a.commit().unwrap();
                        b.commit().unwrap();
                        let (pa, pb) = (published(&batched, vn), published(&single, vn));
                        assert_eq!(format!("{pa:?}"), format!("{pb:?}"), "published, {at}");
                    } else {
                        a.abort().unwrap();
                        b.abort().unwrap();
                        assert_eq!(physical(&batched), physical(&single), "abort, {at}");
                        // A GC pass reclaims committed deletes for good.
                        if !collected {
                            assert_eq!(physical(&batched), before, "abort, {at}");
                        }
                    }
                }
            }
            assert_eq!(arms.len(), 9, "n={n}: every Tables 2–4 arm, got {arms:?}");
            assert!(
                reclaimed_mid_batch > 0,
                "n={n}: no tuple reclaimed between probe and patch"
            );
        }
    }

    /// The byte patch rejects what a row encode rejected, with the same
    /// error, and leaves the page bytes as they were: an update with a
    /// wrong-typed value or an over-wide CHAR, and a resurrecting insert
    /// with the same values.
    #[test]
    fn the_byte_patch_rejects_what_encode_rejected() {
        let schema = Schema::with_key_names(
            vec![
                Column::new("k", DataType::Int64),
                Column::updatable("c", DataType::Char(3)),
                Column::updatable("v", DataType::Int64),
            ],
            &["k"],
        )
        .unwrap();
        let r = |k: i64, c: Value, v: Value| vec![Value::from(k), c, v];
        let table = VnlTable::create_named("T", schema, 2).unwrap();
        table
            .load_initial(&[r(1, "a".into(), 1.into()), r(2, "b".into(), 2.into())])
            .unwrap();
        let txn = table.begin_maintenance().unwrap();
        txn.delete_row(&r(2, Value::Null, Value::Null)).unwrap();
        txn.commit().unwrap();
        let layout = table.layout();
        let codec = table.storage().codec();
        let rid = |k: i64| table.find_physical(&[Value::from(k)]).unwrap();
        let bytes = |k: i64| table.storage().heap().read(rid(k)).unwrap();
        let txn = table.begin_maintenance().unwrap();
        for (c, v) in [
            (Value::from("x"), Value::from("wrong")),
            (Value::from("long"), Value::from(1)),
        ] {
            let before = bytes(1);
            let mut ext = table.storage().read(rid(1)).unwrap();
            ext[layout.base_col(1)] = c.clone();
            ext[layout.base_col(2)] = v.clone();
            let encoded = VnlError::from(StorageError::from(codec.encode(&ext).unwrap_err()));
            assert_eq!(txn.update_row(&r(1, c.clone(), v.clone())), Err(encoded));
            assert_eq!(bytes(1), before, "update");
            let before = bytes(2);
            let resurrect = r(2, c, v);
            let validated = VnlError::from(layout.base_schema().validate(&resurrect).unwrap_err());
            assert_eq!(txn.insert(resurrect.clone()), Err(validated));
            assert_eq!(bytes(2), before, "resurrecting insert");
            // A batch's resurrecting insert is not validated up front: the
            // per-column encoder refuses it.
            let mut write = Some(Write::Insert(resurrect));
            let failed = txn.apply_batch(&[[Value::from(2)]], |_, _| Ok(write.take()));
            assert!(matches!(
                failed,
                Err(VnlError::Storage(StorageError::Type(_)))
            ));
            assert_eq!(bytes(2), before, "batch resurrection");
        }
        txn.abort().unwrap();
    }

    /// A write stamps a value as a page decode returns it, an integer in a
    /// DOUBLE column as a float and a CHAR value without trailing blanks,
    /// so the published rows are the rescan's. `Value`'s equality holds
    /// `Int(100)` equal to `Float(100.0)`; the check compares `Debug` forms.
    #[test]
    fn published_values_are_what_a_decode_returns() {
        let schema = Schema::with_key_names(
            vec![
                Column::new("k", DataType::Char(4)),
                Column::updatable("c", DataType::Char(6)),
                Column::updatable("v", DataType::Float64),
            ],
            &["k"],
        )
        .unwrap();
        let r = |k: &str, c: &str, v: i64| vec![Value::from(k), Value::from(c), Value::from(v)];
        let table = VnlTable::create_named("T", schema, 2).unwrap();
        table
            .load_initial(&[r("a ", "x", 1), r("b", "y", 2), r("d", "y", 5)])
            .unwrap();
        let txn = table.begin_maintenance().unwrap();
        txn.delete_row(&r("d", "", 0)).unwrap();
        txn.commit().unwrap();
        let txn = table.begin_maintenance().unwrap();
        txn.insert(r("c  ", "z  ", 3)).unwrap();
        // Patched records: an update and a resurrection.
        txn.update_row(&r("a", "w ", 4)).unwrap();
        txn.insert(r("d ", "q  ", 7)).unwrap();
        let sql = "UPDATE T SET v = 100, c = 'u  ' WHERE k = 'b'";
        assert_eq!(txn.execute_sql(sql, &Params::new()).unwrap(), 1);
        assert!(txn.read_current(&r("c", "", 0)).unwrap().is_some());
        let oracle = walk_capture(&txn);
        let vn = txn.maintenance_vn();
        txn.commit().unwrap();
        let published = published(&table, vn);
        assert_eq!(format!("{published:?}"), format!("{oracle:?}"));
        let post = |k: &str, c: &str, v: f64| {
            format!(
                "{:?}",
                Some(vec![Value::from(k), Value::from(c), Value::Float(v)])
            )
        };
        let posts: Vec<String> = published.iter().map(|d| format!("{:?}", d.post)).collect();
        assert_eq!(
            posts,
            [
                post("a", "w", 4.0),
                post("b", "u", 100.0),
                post("d", "q", 7.0),
                post("c", "z", 3.0)
            ]
        );
        // Every stored image is the encoding of what it decodes to.
        let codec = table.storage().codec();
        table
            .storage()
            .heap()
            .scan(|rid, rec| {
                assert_eq!(codec.encode(&codec.decode(rec)?)?, rec, "{rid}");
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn decide_is_tables_2_to_4_cell_by_cell() {
        use Operation::{Delete as D, Insert as I, Update as U};
        use PhysicalAction as A;
        // (attempted, stamped by this txn, slot-0 operation) → arm; `None`
        // is an impossible cell.
        let cells = [
            // Table 2: insert.
            (I, false, I, None),
            (I, false, U, None),
            (I, false, D, Some(A::ResurrectTuple)),
            (I, true, I, None),
            (I, true, U, None),
            (I, true, D, Some(A::UpdateAfterOwnDelete)),
            // Table 3: update.
            (U, false, I, Some(A::UpdateSavingPre)),
            (U, false, U, Some(A::UpdateSavingPre)),
            (U, false, D, None),
            (U, true, I, Some(A::UpdateInPlace)),
            (U, true, U, Some(A::UpdateInPlace)),
            (U, true, D, None),
            // Table 4: delete.
            (D, false, I, Some(A::MarkDeleted)),
            (D, false, U, Some(A::MarkDeleted)),
            (D, false, D, None),
            (D, true, I, Some(A::RemoveOwnInsert)),
            (D, true, U, Some(A::MarkOwnUpdateDeleted)),
            (D, true, D, None),
        ];
        let distinct: BTreeSet<String> = cells
            .iter()
            .map(|(a, own, p, _)| format!("{a:?} {own} {p:?}"))
            .collect();
        assert_eq!(distinct.len(), 18, "every cell exactly once");
        assert_eq!(cells.iter().filter(|c| c.3.is_some()).count(), 10);
        for (attempted, own, previous, arm) in cells {
            let expected = arm.ok_or(VnlError::InvalidTransition {
                attempted,
                previous,
                same_txn: own,
            });
            assert_eq!(
                decide(attempted, own, previous),
                expected,
                "{attempted:?} over {previous:?}, own={own}"
            );
        }
    }
}
