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
//! impossible cell. `write` is the one path every logical write takes: it
//! reads the tuple once, asks `decide`, records undo for a slot push, and
//! applies the arm in a single read-modify-write under the page latch. The
//! decision is made before the latch is taken. `insert` (after its key
//! probe), `update_row`, `delete_row` and the §4.2 cursors are thin callers.
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
//! for a keyed relation, the [`DeltaRow`] session repair replays — computed
//! from the very row it stamps, as a page decode returns it, outside the
//! page latch. Commit takes those in heap order into its
//! [`DeltaBatch`] and GC's record of deletes, and reads no page.

use crate::delta::{DeltaBatch, DeltaRow};
use crate::error::{VnlError, VnlResult};
use crate::recovery::{undo_tuple, Lost, Plan};
use crate::table::VnlTable;
use crate::version::{Operation, VersionNo};
use std::collections::BTreeMap;
use std::sync::Mutex;
use wh_sql::{parse_statement, EvalContext, Expr, Params, Statement};
use wh_storage::{Rid, StorageError};
use wh_types::fail_point;
use wh_types::{Row, Value};

/// What a logical maintenance operation physically did to a tuple — one
/// variant per non-impossible cell of Tables 2–4. The per-transaction trace
/// of these reproduces Examples 4.2–4.4.
#[derive(Debug, Clone, PartialEq, Eq)]
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

    fn record(&self, action: PhysicalAction, ext_row: &[Value]) {
        // Decision-table arm counters fire regardless of the tracing flag:
        // they are one relaxed atomic add each, and the arm distribution is
        // exactly what E20's snapshot wants from a production-shaped run.
        action.arm_counter().inc();
        // ordering: trace-toggle Relaxed — advisory trace toggle; no data is published through it
        if self.tracing.load(std::sync::atomic::Ordering::Relaxed) {
            let key = self.table.layout().ext_schema().key_of(ext_row);
            locked(&self.trace).push((action, key));
        }
    }

    fn check_open(&self) -> VnlResult<()> {
        if *locked(&self.finished) {
            Err(VnlError::TxnFinished)
        } else {
            Ok(())
        }
    }

    /// Save undo info for the first touch of an existing tuple, *before* its
    /// slots are pushed back. A `resurrection` overwrites current values
    /// that no slot keeps.
    fn save_undo_existing(&self, rid: Rid, ext_row: &[Value], resurrection: bool) {
        let layout = self.table.layout();
        let current = |&u: &usize| ext_row[layout.base_col(u)].clone();
        locked(&self.undo).entry(rid).or_insert_with(|| Pending {
            lost: Lost::Pushed {
                // Oldest slot occupied: push_back will drop it — save it.
                dropped: layout.saved(ext_row, layout.slots() - 1),
                overwritten: resurrection.then(|| layout.updatable().iter().map(current).collect()),
            },
            net: None,
        });
    }

    /// The net effect `ext` records once its slot 0 holds `(maintenanceVN,
    /// op)`. Table 4's discipline makes that slot the net effect of every
    /// write so far: an insert-then-update tuple carries `(vn, insert)`.
    fn net_effect(&self, op: Operation, ext: &[Value]) -> Net {
        let layout = self.table.layout();
        let base = layout.base_schema();
        // No primary key → rows cannot be addressed for patching.
        if base.key().is_empty() {
            return (op, None);
        }
        let current = layout.current_values(ext);
        // Slot 0 stashed the pre-image of an update or a delete (a delete
        // leaves the current values as its pre-image); a net insert,
        // resurrections included, has no prior version.
        let pre = (op != Operation::Insert).then(|| layout.pre_values(ext, 0));
        let row = DeltaRow {
            key: base.key_of(pre.as_ref().unwrap_or(&current)),
            op,
            pre,
            post: (op != Operation::Delete).then_some(current),
        };
        (op, Some(row))
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

    /// Logically insert `base_row` (Table 2).
    pub fn insert(&self, base_row: Row) -> VnlResult<()> {
        // Phase span under the txn's root; `?` exits are timed like successes.
        let _ts =
            wh_obs::timed_span_under!("vnl.txn.insert", "vnl.maintenance.insert_ns", self.span_ctx);
        self.check_open()?;
        self.table.layout().base_schema().validate(&base_row)?;
        // Pin: the conflict probe and the write below touch RIDs a
        // concurrent GC pass could otherwise recycle.
        let _pin = self.table.epochs().pin();
        // Key conflict detection (rows 1–2 of Table 2) — only for keyed
        // relations; keyless relations always take row 3.
        match self.table.find_physical(&base_row) {
            Some(rid) => self.write(rid, Operation::Insert, &base_row),
            None => self.insert_fresh(&base_row),
        }
    }

    /// Table 2 row 3: no conflicting tuple — a physical insert.
    fn insert_fresh(&self, base_row: &[Value]) -> VnlResult<()> {
        // trace: under the caller's vnl.txn.insert span.
        fail_point!("vnl.txn.insert.fresh");
        let ext = self.table.layout().new_insert_row(base_row, self.vn);
        let rid = self.table.storage().insert(&ext)?;
        // Recorded at once: every stamped tuple is in the map, which is
        // how rollback finds it.
        let pending = Pending {
            lost: Lost::Fresh,
            net: Some(self.net_effect(Operation::Insert, &ext)),
        };
        locked(&self.undo).insert(rid, pending);
        // Crash window: the tuple exists but is not yet key-registered
        // (an orphan until rollback or recovery reclaims it).
        // trace: under the caller's vnl.txn.insert span.
        fail_point!("vnl.txn.insert.register");
        if let Some(dir) = self.table.key_dir() {
            dir.register(&ext, rid)
                .expect("the key probe found no registration"); // lint: allow(no-panic) — invariant documented in the expect message
        }
        self.table.on_physical_insert(&ext, rid);
        self.record(PhysicalAction::InsertTuple, &ext);
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
        let mut count = 0;
        for (rid, current) in self.visible_cursor(predicate, params)? {
            let mut new_row = current.clone();
            for (t, (_, expr)) in targets.iter().zip(assignments) {
                new_row[*t] = ctx.eval(expr, &current)?;
            }
            self.write(rid, Operation::Update, &new_row)?;
            count += 1;
        }
        Ok(count)
    }

    /// Logically update the tuple whose key matches `key_row` (a base-schema
    /// row whose key columns are set), replacing its updatable columns with
    /// those of `key_row`.
    pub fn update_row(&self, base_row: &Row) -> VnlResult<()> {
        self.check_open()?;
        // Pin: find_physical probes RIDs; hold the epoch across probe +
        // in-place shift.
        let _pin = self.table.epochs().pin();
        let rid = self
            .table
            .find_physical(base_row)
            .ok_or_else(|| self.no_such_key(base_row))?;
        self.write(rid, Operation::Update, base_row)
    }

    /// Logically delete every visible tuple matching `predicate` (Table 4,
    /// §4.2.3 cursor approach). Returns the number of tuples deleted.
    pub fn delete_where(&self, predicate: Option<&Expr>, params: &Params) -> VnlResult<u64> {
        self.check_open()?;
        let mut count = 0;
        for (rid, _) in self.visible_cursor(predicate, params)? {
            self.write(rid, Operation::Delete, &[])?;
            count += 1;
        }
        Ok(count)
    }

    /// Logically delete the tuple whose key matches `base_row`.
    pub fn delete_row(&self, base_row: &Row) -> VnlResult<()> {
        self.check_open()?;
        // Pin: find_physical probes RIDs; hold the epoch across probe +
        // delete marking.
        let _pin = self.table.epochs().pin();
        let rid = self
            .table
            .find_physical(base_row)
            .ok_or_else(|| self.no_such_key(base_row))?;
        match self.write(rid, Operation::Delete, &[]) {
            // A key pointing at a tuple already logically deleted by an
            // earlier transaction is "not there" for deletion purposes.
            Err(VnlError::InvalidTransition {
                same_txn: false, ..
            }) => Err(self.no_such_key(base_row)),
            done => done,
        }
    }

    /// `NoSuchTuple` naming the key of `base_row`.
    fn no_such_key(&self, base_row: &[Value]) -> VnlError {
        let key = self.table.layout().base_schema().key_of(base_row);
        VnlError::NoSuchTuple(format!("{key:?}"))
    }

    /// Tables 2–4 applied to the tuple at `rid` — the one path every
    /// logical write of an existing tuple takes. It reads the tuple once,
    /// lets [`decide`] pick the arm, records undo for a slot push, and
    /// applies the arm in one read-modify-write. `row` is the base row an
    /// insert or update writes; a delete writes none.
    fn write(&self, rid: Rid, attempted: Operation, row: &[Value]) -> VnlResult<()> {
        use PhysicalAction as A;
        // `insert` times itself: its span also covers the key probe and a
        // fresh insert.
        let _ts = match attempted {
            Operation::Insert => None,
            Operation::Update => Some(wh_obs::timed_span_under!(
                "vnl.txn.update",
                "vnl.maintenance.update_ns",
                self.span_ctx
            )),
            Operation::Delete => Some(wh_obs::timed_span_under!(
                "vnl.txn.delete",
                "vnl.maintenance.delete_ns",
                self.span_ctx
            )),
        };
        // A concurrent GC pass may reclaim a committed-deleted tuple after
        // the caller found it. An insert then meets no conflict: it clears
        // the stale key registration (GC unregisters after its physical
        // delete) and inserts fresh. An update or delete finds no tuple.
        let vanished = || {
            if attempted != Operation::Insert {
                return Err(VnlError::NoSuchTuple(format!("{rid}")));
            }
            self.table
                .unregister_key(&self.table.base_to_ext_positions(row), rid);
            self.insert_fresh(row)
        };
        let layout = self.table.layout();
        let ext = match self.table.storage().read(rid) {
            Ok(ext) => ext,
            Err(StorageError::NoSuchSlot { .. }) => return vanished(),
            Err(e) => return Err(e.into()),
        };
        let (tuple_vn, previous) = layout.stamp(&ext, rid)?;
        let action = decide(attempted, tuple_vn == self.vn, previous)?;

        if action == A::RemoveOwnInsert {
            // insert∘delete = nothing: the tuple was created (or
            // resurrected) by this very transaction, so the delete is that
            // one tuple's rollback — a physical delete of a fresh insert, or
            // the pre-resurrection tuple restored rather than its
            // still-needed pre-delete version destroyed.
            let lost = locked(&self.undo)
                .get(&rid)
                .map_or(Lost::Unknown, |p| p.lost.clone());
            if matches!(lost, Lost::Fresh) {
                self.table.unregister_key(&ext, rid);
                // Crash window: key unregistered, tuple still stored.
                fail_point!("vnl.txn.delete.remove_own");
            }
            let action = match undo_tuple(self.table, rid, &ext, &lost)? {
                Plan::Remove { .. } => A::RemoveOwnInsert,
                Plan::Restore { .. } => A::RestoreResurrected,
            };
            locked(&self.undo).remove(&rid);
            self.record(action, &ext);
            return Ok(());
        }

        // An earlier transaction's tuple is pushed back to open slot 0 for
        // this one; the undo entry goes in before the write.
        let pushes = matches!(
            action,
            A::ResurrectTuple | A::UpdateSavingPre | A::MarkDeleted
        );
        if pushes {
            self.save_undo_existing(rid, &ext, attempted == Operation::Insert);
        }
        match action {
            A::ResurrectTuple => fail_point!("vnl.txn.insert.resurrect"),
            A::UpdateSavingPre => fail_point!("vnl.txn.update.save_pre"),
            A::UpdateInPlace => fail_point!("vnl.txn.update.in_place"),
            A::MarkDeleted => fail_point!("vnl.txn.delete.mark"),
            A::MarkOwnUpdateDeleted => fail_point!("vnl.txn.delete.mark_own_update"),
            _ => {}
        }
        // Slot 0 carries the net effect: delete∘insert = update and
        // insert∘update = insert.
        let op = match action {
            A::UpdateAfterOwnDelete => Operation::Update,
            A::UpdateInPlace => previous,
            _ => attempted,
        };
        // The stamped row, copied out to build its net effect unlatched.
        let mut written = Row::new();
        let modified = self.table.storage().modify(rid, |mut ext| {
            if pushes {
                layout.push_back(&mut ext);
                // PV(0): NULL under a resurrection, else the current values
                // being updated or deleted.
                for (&pre, &u) in layout.pre_set(0).iter().zip(layout.updatable()) {
                    ext[pre] = match attempted {
                        Operation::Insert => Value::Null,
                        _ => ext[layout.base_col(u)].clone(),
                    };
                }
            }
            // CV ← MV: every base column for an insert, the updatable ones
            // for an update. A delete keeps CV (Figure 6's Berkeley row).
            match attempted {
                Operation::Insert => {
                    for (i, v) in row.iter().enumerate() {
                        ext[layout.base_col(i)] = layout.as_decoded(i, v);
                    }
                }
                Operation::Update => {
                    for &u in layout.updatable() {
                        ext[layout.base_col(u)] = layout.as_decoded(u, &row[u]);
                    }
                }
                Operation::Delete => {}
            }
            ext[layout.vn_col(0)] = Value::from(self.vn as i64);
            ext[layout.op_col(0)] = op.value();
            written.clone_from(&ext);
            Ok(ext)
        });
        match modified {
            // The write landed: its tuple's entry now records the net effect.
            Ok(()) => {
                let net = self.net_effect(op, &written);
                if let Some(pending) = locked(&self.undo).get_mut(&rid) {
                    pending.net = Some(net);
                }
            }
            // The same race one step later, between the read and a
            // resurrecting write; the undo entry just recorded is stale.
            Err(StorageError::NoSuchSlot { .. }) => {
                locked(&self.undo).remove(&rid);
                return vanished();
            }
            Err(e) => return Err(e.into()),
        }
        if attempted == Operation::Insert {
            // CV ← MV may have moved non-updatable indexed attributes.
            self.table.on_physical_update(&ext, &written, rid);
        }
        self.record(action, &ext);
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
            .load_initial(&[r("a ", "x", 1), r("b", "y", 2)])
            .unwrap();
        let txn = table.begin_maintenance().unwrap();
        txn.insert(r("c  ", "z  ", 3)).unwrap();
        txn.update_row(&r("a", "w ", 4)).unwrap();
        let sql = "UPDATE T SET v = 100, c = 'u  ' WHERE k = 'b'";
        assert_eq!(txn.execute_sql(sql, &Params::new()).unwrap(), 1);
        assert!(txn.read_current(&r("c", "", 0)).unwrap().is_some());
        let oracle = walk_capture(&txn);
        let vn = txn.maintenance_vn();
        txn.commit().unwrap();
        let published = published(&table, vn);
        assert_eq!(format!("{published:?}"), format!("{oracle:?}"));
        assert_eq!(
            format!("{:?}", published[1].post),
            format!(
                "{:?}",
                Some(vec![
                    Value::from("b"),
                    Value::from("u"),
                    Value::Float(100.0)
                ])
            )
        );
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
