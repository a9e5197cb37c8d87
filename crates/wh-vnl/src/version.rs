//! Global version state: `currentVN`, `maintenanceActive`, and the
//! single-tuple `Version` relation.
//!
//! §3 keeps two globals — the current database version number and a flag
//! saying whether a maintenance transaction is running — guarded by "a
//! simple latching mechanism", and §4 shows how to host them in a
//! single-tuple relation read by readers and written by maintenance
//! transactions. [`VersionState`] does both: a `parking_lot` mutex is the
//! latch, and every read/write also touches a real one-tuple heap table so
//! the I/O cost of the global checks shows up in the experiment counters.
//!
//! §4 also flags an abort hazard: if `currentVN` were advanced *inside* the
//! maintenance transaction and the transaction then aborted, readers could
//! observe an inconsistent state while it backs out. The fix — publishing
//! `currentVN` "in a separate transaction that runs just after the
//! maintenance transaction commits" — is how [`VersionState::publish_commit`]
//! behaves: the in-place data changes are complete before the version flip
//! happens, atomically, under the latch.

use crate::delta::{DeltaBatch, DELTA_LOG_CAPACITY};
use crate::error::{VnlError, VnlResult};
use crate::resilience::LeaseRegistry;
use std::fmt;
use std::sync::Arc;
// The latched/lock-free cores are verified kernels: `wh_kernel::version`
// and `wh_kernel::delta` are the same source the wh-kernel model suite
// explores exhaustively.
use wh_kernel::delta::DeltaLogCore;
use wh_kernel::version::{BeginError, VersionCore};
use wh_storage::{IoStats, Rid, Table};
use wh_types::fail_point;
use wh_types::{Column, DataType, Schema, Value};

/// Database / maintenance-transaction version numbers.
pub type VersionNo = u64;

/// The logical operation recorded in a tuple's `operation` column.
///
/// Stored as a 1-byte `CHAR(1)` (`'i'`/`'u'`/`'d'`) so the extended schema
/// matches Figure 3's 1-byte `operation` column exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operation {
    /// Logical insert.
    Insert,
    /// Logical update.
    Update,
    /// Logical delete.
    Delete,
}

impl Operation {
    /// The stored `CHAR(1)` code.
    pub const fn code(&self) -> &'static str {
        match self {
            Operation::Insert => "i",
            Operation::Update => "u",
            Operation::Delete => "d",
        }
    }

    /// The stored code as a [`Value`].
    pub fn value(&self) -> Value {
        Value::Str(self.code().into())
    }

    /// Decode a stored code.
    pub fn from_value(v: &Value) -> Option<Operation> {
        match v.as_str()? {
            "i" => Some(Operation::Insert),
            "u" => Some(Operation::Update),
            "d" => Some(Operation::Delete),
            _ => None,
        }
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operation::Insert => write!(f, "insert"),
            Operation::Update => write!(f, "update"),
            Operation::Delete => write!(f, "delete"),
        }
    }
}

/// Global version state, latched in memory and mirrored in a one-tuple
/// `Version` relation.
///
/// The latch, the relaxed `currentVN` mirror, and the recovery fence all
/// live in [`wh_kernel::version::VersionCore`]; this wrapper adds the §4
/// relation I/O, the failpoints (passed back in as `under_latch` closures
/// so their position relative to the state mutations is exactly the
/// kernel-verified one), and telemetry.
pub struct VersionState {
    core: VersionCore,
    /// The single-tuple Version relation of §4.
    relation: Table,
    relation_rid: Rid,
    /// Reader-session leases ([`crate::resilience`]): warehouse-wide, like
    /// the version globals they protect, so a multi-table pacer sees every
    /// load-bearing VN in one place.
    leases: LeaseRegistry,
    /// The session-repair delta log ([`crate::delta`]): net-effect batches
    /// keyed by committing VN, bounded and front-evicted. Warehouse-wide
    /// for the same reason the leases are — a commit's batch spans tables.
    deltas: DeltaLogCore<Arc<DeltaBatch>>,
}

/// Point-in-time copy of the version globals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionSnapshot {
    /// The current database version number.
    pub current_vn: VersionNo,
    /// Whether a maintenance transaction is active.
    pub maintenance_active: bool,
}

#[expect(clippy::expect_used, reason = "static schema literal")]
fn version_relation_schema() -> Schema {
    Schema::new(vec![
        Column::updatable("currentVN", DataType::Int64),
        Column::updatable("maintenanceActive", DataType::UInt8),
    ])
    .expect("version relation schema is valid")
}

impl VersionState {
    /// Fresh state: `currentVN = 1`, no maintenance active (§3: "Variable
    /// currentVN is 1 initially").
    pub fn new(io: Arc<IoStats>) -> VnlResult<Self> {
        let relation = Table::create("Version", version_relation_schema(), io)?;
        let relation_rid = relation.insert(&[Value::from(1), Value::from(0)])?;
        Ok(VersionState {
            core: VersionCore::new(),
            relation,
            relation_rid,
            leases: LeaseRegistry::new(),
            deltas: DeltaLogCore::new(DELTA_LOG_CAPACITY),
        })
    }

    /// Rebuild the version state from a checkpoint record: the checkpoint
    /// meta *is* the durable form of the one-tuple `Version` relation (it
    /// is not persisted as a table), so recovery reconstructs both the
    /// kernel state and the mirror tuple from those fields. A stuck
    /// `maintenance_active` flag is restored as-is — the §7 recovery pass
    /// clears it through [`VersionState::publish_abort`], exactly as it
    /// would after an in-memory crash.
    pub(crate) fn restore(
        io: Arc<IoStats>,
        current_vn: VersionNo,
        maintenance_active: bool,
        recovery_floor: VersionNo,
    ) -> VnlResult<Self> {
        let relation = Table::create("Version", version_relation_schema(), io)?;
        let relation_rid = relation.insert(&[
            Value::from(current_vn as i64),
            Value::from(i64::from(maintenance_active)),
        ])?;
        Ok(VersionState {
            core: VersionCore::resume(current_vn, maintenance_active, recovery_floor),
            relation,
            relation_rid,
            leases: LeaseRegistry::new(),
            // Fresh and empty: repair state never survives a restart —
            // post-crash sessions restart from durable slots, never from a
            // delta log whose tail the crash may have cut.
            deltas: DeltaLogCore::new(DELTA_LOG_CAPACITY),
        })
    }

    /// The warehouse-wide lease registry.
    pub fn leases(&self) -> &LeaseRegistry {
        &self.leases
    }

    /// The current recovery fence: sessions with `sessionVN` below this
    /// fail the global check (and the per-scan fence), because a crash
    /// recovery reconstructed version slots it cannot serve exactly.
    pub fn recovery_floor(&self) -> VersionNo {
        self.core.recovery_floor()
    }

    /// Raise the recovery fence to `floor` (monotone; lowering is a no-op).
    /// Called by [`crate::recover`] *before* it mutates any tuple, so a
    /// scan in flight across the recovery re-checks the fence when it
    /// completes and expires instead of returning reconstructed values.
    /// (The wh-kernel model suite proves this ordering sound and the
    /// reverse one unsound.)
    pub(crate) fn raise_recovery_floor(&self, floor: VersionNo) {
        self.core.raise_recovery_floor(floor);
    }

    /// Read both globals under the latch (also reads the Version relation,
    /// charging the reader one page read, as the §4.1 global check would).
    pub fn snapshot(&self) -> VersionSnapshot {
        let view = self.core.snapshot_with(|_| {
            // Mirror read — the I/O a query-rewrite reader would pay.
            let _ = self.relation.read(self.relation_rid);
        });
        VersionSnapshot {
            current_vn: view.current_vn,
            maintenance_active: view.maintenance_active,
        }
    }

    /// Read both globals under the latch *without* the mirror-relation
    /// read. This is the instrumentation form: telemetry (e.g. the
    /// per-reader staleness gauge) must not charge the experiment's I/O
    /// counters, whose exact values the paper claims are about.
    pub fn peek(&self) -> VersionSnapshot {
        // (Latched form; see `current_vn_relaxed` for the lock-free read.)
        let view = self.core.peek();
        VersionSnapshot {
            current_vn: view.current_vn,
            maintenance_active: view.maintenance_active,
        }
    }

    /// Lock-free read of `currentVN` alone — the telemetry form: no latch,
    /// no mirror-relation I/O charge. May trail the latched value by an
    /// instant, never leads it (model-verified).
    pub fn current_vn_relaxed(&self) -> VersionNo {
        self.core.current_vn_relaxed()
    }

    /// Begin a maintenance transaction: returns `maintenanceVN =
    /// currentVN + 1` and sets the active flag. Enforces the one-at-a-time
    /// external protocol.
    pub fn begin_maintenance(&self) -> VnlResult<VersionNo> {
        self.core
            .begin_maintenance(|current_vn| {
                // Placed after the flag flip: a crash here leaves
                // maintenanceActive stuck on, exactly the state recovery
                // must be able to clear.
                wh_obs::trace_event!("vnl.version.begin", current_vn);
                // trace: the flip instant lands in the ambient txn span.
                fail_point!("vnl.version.begin");
                self.relation.update(
                    self.relation_rid,
                    &[Value::from(current_vn as i64), Value::from(1)],
                )?;
                Ok(())
            })
            .map_err(|e| match e {
                BeginError::AlreadyActive => VnlError::MaintenanceAlreadyActive,
                BeginError::Effect(effect) => effect,
            })
    }

    /// Publish a maintenance commit: `currentVN ← maintenanceVN`, flag off.
    /// Runs as its own latched step *after* all data changes are in place,
    /// per the §4 abort-safety note. The commit's net-effect batch is
    /// retained in the delta log *inside the same latch hold* that flips
    /// `currentVN`, so a latched snapshot that observes the new VN is
    /// guaranteed to find its batch retained (the ordering the wh-kernel
    /// repair-≡-rescan model verifies). A commit that touched nothing
    /// retains [`DeltaBatch::empty`], keeping the log contiguous per
    /// committed VN.
    pub fn publish_commit(&self, maintenance_vn: VersionNo, batch: DeltaBatch) -> VnlResult<()> {
        self.core.publish_commit(
            maintenance_vn,
            || {
                // Before any mutation: a crash here commits nothing —
                // readers keep the old currentVN and never see a
                // half-published flip.
                wh_obs::trace_event!("vnl.version.publish_commit", maintenance_vn);
                // trace: the flip instant lands in the ambient txn span.
                fail_point!("vnl.version.publish_commit");
                Ok(())
            },
            |vn| {
                let spilled = self.deltas.retain(vn, Arc::new(batch));
                if !spilled.is_empty() {
                    wh_obs::counter!("vnl.delta.evicted").add(spilled.len() as u64);
                }
                self.relation
                    .update(self.relation_rid, &[Value::from(vn as i64), Value::from(0)])?;
                wh_obs::gauge!("vnl.version.current_vn").set(vn as i64);
                wh_obs::gauge!("vnl.delta.retained").set(self.deltas.len() as i64);
                Ok(())
            },
        )
    }

    /// The complete repair window `(from_exclusive, to_inclusive]`, or
    /// `None` when any VN in it has been evicted — the caller must fall
    /// back to restart (all-or-nothing serving, model-verified).
    pub fn delta_window(
        &self,
        from_exclusive: VersionNo,
        to_inclusive: VersionNo,
    ) -> Option<Vec<Arc<DeltaBatch>>> {
        self.deltas.window(from_exclusive, to_inclusive)
    }

    /// Evict batches no live session can still need (`vn < keep_from`,
    /// driven by the GC horizon). Returns how many were dropped.
    pub(crate) fn evict_deltas_below(&self, keep_from: VersionNo) -> usize {
        let dropped = self.deltas.evict_below(keep_from).len();
        if dropped > 0 {
            wh_obs::counter!("vnl.delta.evicted").add(dropped as u64);
            wh_obs::gauge!("vnl.delta.retained").set(self.deltas.len() as i64);
        }
        dropped
    }

    /// Forget all retained deltas. Crash recovery calls this so repair
    /// state never survives into a recovered process: the slots are the
    /// only durable truth, and a log built before the crash may describe
    /// commits the rollback pass has since undone.
    pub(crate) fn clear_deltas(&self) -> usize {
        let dropped = self.deltas.clear().len();
        wh_obs::gauge!("vnl.delta.retained").set(0);
        dropped
    }

    /// Retained delta-batch count (introspection/tests).
    pub fn delta_log_len(&self) -> usize {
        self.deltas.len()
    }

    /// Record a maintenance abort: flag off, `currentVN` unchanged.
    pub fn publish_abort(&self) -> VnlResult<()> {
        self.core.publish_abort(
            || {
                // Before any mutation, mirroring `publish_commit`.
                wh_obs::trace_event!("vnl.version.publish_abort");
                // trace: the flip instant lands in the ambient txn span.
                fail_point!("vnl.version.publish_abort");
                Ok(())
            },
            |current_vn| {
                self.relation.update(
                    self.relation_rid,
                    &[Value::from(current_vn as i64), Value::from(0)],
                )?;
                Ok(())
            },
        )
    }

    /// The §4.1 global (pessimistic) session-liveness check:
    /// `(sessionVN = currentVN) ∨ (sessionVN = currentVN − 1 ∧ ¬maintenanceActive)`,
    /// generalized for nVNL to `sessionVN ≥ currentVN − (n − 1)` plus the
    /// boundary case, fenced by the recovery floor. Returns `true` when
    /// the session is still guaranteed consistent.
    pub fn session_live(&self, session_vn: VersionNo, n: usize) -> bool {
        self.core.session_live_with(session_vn, n, |_| {
            // The snapshot's mirror read — the I/O the global check pays.
            let _ = self.relation.read(self.relation_rid);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> VersionState {
        VersionState::new(Arc::new(IoStats::new())).unwrap()
    }

    #[test]
    fn initial_state() {
        let s = state();
        let snap = s.snapshot();
        assert_eq!(snap.current_vn, 1);
        assert!(!snap.maintenance_active);
    }

    #[test]
    fn maintenance_lifecycle() {
        let s = state();
        let vn = s.begin_maintenance().unwrap();
        assert_eq!(vn, 2);
        assert!(s.snapshot().maintenance_active);
        // One at a time.
        assert_eq!(
            s.begin_maintenance().unwrap_err(),
            VnlError::MaintenanceAlreadyActive
        );
        s.publish_commit(vn, DeltaBatch::empty(vn)).unwrap();
        let snap = s.snapshot();
        assert_eq!(snap.current_vn, 2);
        assert!(!snap.maintenance_active);
        // Next maintenance gets the next VN.
        assert_eq!(s.begin_maintenance().unwrap(), 3);
    }

    #[test]
    fn abort_keeps_current_vn() {
        let s = state();
        let _vn = s.begin_maintenance().unwrap();
        s.publish_abort().unwrap();
        let snap = s.snapshot();
        assert_eq!(snap.current_vn, 1);
        assert!(!snap.maintenance_active);
        // The same VN is handed out again.
        assert_eq!(s.begin_maintenance().unwrap(), 2);
    }

    #[test]
    fn paper_global_check_for_2vnl() {
        // §4.1: live iff sessionVN = currentVN, or sessionVN = currentVN-1
        // and no maintenance is active.
        let s = state();
        assert!(s.session_live(1, 2)); // session at current version
        let vn = s.begin_maintenance().unwrap();
        assert!(s.session_live(1, 2)); // overlapping its first maintenance txn
        s.publish_commit(vn, DeltaBatch::empty(vn)).unwrap();
        assert!(s.session_live(1, 2)); // sessionVN = currentVN - 1, idle
        assert!(s.session_live(2, 2));
        let vn = s.begin_maintenance().unwrap();
        assert!(!s.session_live(1, 2)); // second overlap: expired
        assert!(s.session_live(2, 2));
        s.publish_commit(vn, DeltaBatch::empty(vn)).unwrap();
        assert!(!s.session_live(1, 2));
        assert!(s.session_live(2, 2)); // currentVN - 1, idle
    }

    #[test]
    fn global_check_generalizes_to_nvnl() {
        let s = state();
        // Run three maintenance transactions; a session from VN 1 stays live
        // under 4VNL (overlaps 3) but expires under 3VNL when the third runs.
        for expected in [2, 3] {
            let vn = s.begin_maintenance().unwrap();
            assert_eq!(vn, expected);
            s.publish_commit(vn, DeltaBatch::empty(vn)).unwrap();
        }
        assert!(s.session_live(1, 3)); // overlapped 2 = n-1
        assert!(s.session_live(1, 4));
        let _vn = s.begin_maintenance().unwrap(); // third overlap begins
        assert!(!s.session_live(1, 3));
        assert!(s.session_live(1, 4));
    }

    #[test]
    fn peek_matches_snapshot_without_io_charge() {
        let io = Arc::new(IoStats::new());
        let s = VersionState::new(Arc::clone(&io)).unwrap();
        let before = io.snapshot();
        let peeked = s.peek();
        assert_eq!(io.snapshot(), before, "peek must not charge any I/O");
        let snapped = s.snapshot();
        assert!(io.snapshot().page_reads > before.page_reads);
        assert_eq!(peeked, snapped);
    }

    #[test]
    fn version_relation_mirrors_state() {
        let s = state();
        let vn = s.begin_maintenance().unwrap();
        let row = s.relation.read(s.relation_rid).unwrap();
        assert_eq!(row[0], Value::from(1)); // currentVN still old during txn
        assert_eq!(row[1], Value::from(1)); // maintenanceActive
        s.publish_commit(vn, DeltaBatch::empty(vn)).unwrap();
        let row = s.relation.read(s.relation_rid).unwrap();
        assert_eq!(row[0], Value::from(2));
        assert_eq!(row[1], Value::from(0));
    }

    #[test]
    fn operation_codes_round_trip() {
        for op in [Operation::Insert, Operation::Update, Operation::Delete] {
            assert_eq!(Operation::from_value(&op.value()), Some(op));
        }
        assert_eq!(Operation::from_value(&Value::from("x")), None);
        assert_eq!(Operation::from_value(&Value::Null), None);
        assert_eq!(Operation::Delete.to_string(), "delete");
    }
}
