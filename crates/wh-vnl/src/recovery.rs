//! Log-free crash recovery: the scavenger behind the paper's no-log claim.
//!
//! §7 observes that because every touched tuple still carries its
//! pre-update version in its own slots, a maintenance transaction can roll
//! back "without requiring an undo log". [`MaintenanceTxn::abort`] exercises
//! that claim for a *live* abort, helped by a transaction-private in-memory
//! undo map. This module proves the stronger form: after a **crash** — the
//! transaction object gone, its undo map lost, `maintenanceActive` stuck on —
//! [`recover`] reconstructs a consistent pre-transaction state from nothing
//! but the durable tuple `(tupleVN, operation, pre-values)` slots. Zero log
//! records are read because zero were ever written.
//!
//! # Algorithm
//!
//! Let `V = currentVN` (the crash never advanced it: the version flip is the
//! last, latched step of commit). Every tuple whose newest slot carries
//! `tupleVN > V` belongs to the crashed transaction and is rolled back from
//! its own slots:
//!
//! * **Pending insert, nVNL slot 1 = delete** — the insert resurrected a
//!   logically-deleted tuple: shift the slots forward (slot 0 becomes the old
//!   delete slot again) and restore the current values from the delete's
//!   saved pre-values.
//! * **Pending insert, otherwise** — a fresh insert: physically delete the
//!   orphan and drop its key/index registrations.
//! * **Pending update/delete** — restore the current values from the newest
//!   slot's pre-values (an update saved them there; a logical delete saved
//!   them too), then undo the `push_back`: for nVNL, shift the slots forward;
//!   for 2VNL — whose single slot held the pre-transaction `(tupleVN,
//!   operation, pre-values)` that the crash destroyed along with the undo
//!   map — write a reconstructed slot `(V, update, PV ← CV)` instead.
//!
//! Finally the stuck `maintenanceActive` flag is cleared. Running [`recover`]
//! again is a no-op: nothing carries `tupleVN > V` anymore.
//!
//! # Exactness
//!
//! Perfect reconstruction is information-theoretically impossible in two
//! places, and the report says so instead of pretending:
//!
//! * **2VNL** destroys the single pre-transaction slot. The reconstructed
//!   `(V, update)` slot serves sessions at `sessionVN ≥ V` exactly; a
//!   session at `V − 1` may read current values where the true
//!   pre-transaction slot would have served distinct pre-values (and a 2VNL
//!   resurrection is indistinguishable from a fresh insert outright).
//! * **nVNL with every slot occupied**: `push_back` dropped the oldest slot
//!   into the (lost) undo map. After the shift the emptied oldest slot is
//!   filled with a *duplicate* of its newer neighbour `(w, op, PV)`: sessions
//!   at `sessionVN ≥ w − 1` still read exactly, while older sessions get
//!   `Expired` — the recovery *expires rather than lies*.
//!
//! [`RecoveryReport::exact_horizon`] is the smallest `sessionVN` for which
//! reads of the recovered table are guaranteed to equal the
//! pre-transaction state; `1` means the recovery was fully exact.
//!
//! The horizon is not only reported but **enforced**: before mutating
//! anything, [`recover`] raises the warehouse-wide *recovery fence*
//! ([`crate::VersionState::recovery_floor`]) to it. Every live session
//! below the fence fails its next §4.1 global check — and every scan or
//! lookup re-checks the fence on completion, so even a read in flight
//! across the recovery raises `SessionExpired` instead of returning
//! reconstructed values. Inexact recovery expires rather than lies,
//! uniformly for 2VNL and nVNL. As with
//! live aborts, restoration covers updatable columns (non-updatable columns
//! are never changed by updates; a reversed resurrection keeps the
//! resurrector's non-updatable non-key values, matching
//! `MaintenanceTxn::abort`).
//!
//! [`MaintenanceTxn::abort`]: crate::maintenance::MaintenanceTxn::abort

use crate::error::VnlResult;
use crate::schema_ext::ExtLayout;
use crate::table::VnlTable;
use crate::version::{Operation, VersionNo};
use wh_storage::StorageError;
use wh_types::{Row, Value};

/// What one [`recover`] pass found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// `currentVN` at recovery time (the version rolled back *to*).
    pub current_vn: VersionNo,
    /// Tuples examined.
    pub scanned: u64,
    /// Tuples carrying the crashed transaction's `tupleVN`.
    pub pending_found: u64,
    /// Fresh inserts physically removed.
    pub orphans_removed: u64,
    /// Resurrections reversed back to their logically-deleted state.
    pub resurrections_reversed: u64,
    /// Updates/deletes rolled back from their own slots.
    pub slots_restored: u64,
    /// nVNL tuples whose lost oldest slot was filled with a duplicate of
    /// its neighbour (sessions older than the duplicate expire).
    pub duplicated_oldest_slots: u64,
    /// 2VNL tuples whose destroyed single slot was reconstructed as
    /// `(currentVN, update, PV ← CV)`.
    pub reconstructed_slots: u64,
    /// Smallest `sessionVN` whose reads are guaranteed to equal the
    /// pre-transaction state (1 = fully exact).
    pub exact_horizon: VersionNo,
    /// Whether a stuck `maintenanceActive` flag was found (it is cleared
    /// either way).
    pub cleared_maintenance_flag: bool,
    /// Log records written — always zero; the field exists so tests assert
    /// the paper's claim rather than assume it.
    pub log_writes: u64,
}

/// Reconstruct a consistent pre-transaction state after a crashed
/// maintenance transaction, using only the tuples' own version slots.
///
/// Safe (and a no-op) on a cleanly committed or aborted table; idempotent —
/// a second pass finds nothing pending. See the module docs for the
/// algorithm and its exactness bounds.
pub fn recover(table: &VnlTable) -> VnlResult<RecoveryReport> {
    // trace: recovery is a fresh root trace; the crashed transaction's
    // still-open span (it never reached its Drop) sits in the same ring,
    // so the dump below carries both the crash and the repair.
    let _ts = wh_obs::trace_span!("vnl.recovery");
    // Entering recovery IS the anomaly — dump the flight recorder first so
    // the ring still holds the events leading up to the crash, not the
    // recovery scan's own traffic.
    wh_obs::recorder::trigger("recovery_entry", "vnl recovery scan starting");
    let layout = table.layout().clone();
    let snap = table.version().snapshot();
    let v = snap.current_vn;
    let mut report = RecoveryReport {
        current_vn: v,
        scanned: 0,
        pending_found: 0,
        orphans_removed: 0,
        resurrections_reversed: 0,
        slots_restored: 0,
        duplicated_oldest_slots: 0,
        reconstructed_slots: 0,
        exact_horizon: 1,
        cleared_maintenance_flag: snap.maintenance_active,
        log_writes: 0,
    };

    // Pass 1 (read-only): find the crashed transaction's tuples and compute
    // the exactness horizon *before* touching anything.
    let mut pending = Vec::new();
    {
        // Pinned for the walk only: pass 2 tolerates a RID that a
        // concurrent GC pass reclaimed in between (`NoSuchSlot` below).
        let _pin = table.epochs().pin();
        table.walk_stamps(|t| {
            report.scanned += 1;
            if t.vn <= v {
                return Ok(());
            }
            let ext = t.decode()?;
            report.pending_found += 1;
            report.exact_horizon = report
                .exact_horizon
                .max(prospective_horizon(&layout, &ext, v, t.op));
            pending.push((t.rid, ext, t.op));
            Ok(())
        })?;
    }

    // Raise the session fence before the first mutation: sessions the
    // reconstruction cannot serve exactly must expire rather than read a
    // reconstructed guess — including scans already in flight, which
    // re-check the fence when they complete. (Until `publish_abort` below,
    // the stuck `maintenanceActive` flag keeps the *global* check strict;
    // the fence is what outlives it.)
    if report.exact_horizon > 1 {
        table.version().raise_recovery_floor(report.exact_horizon);
    }

    // Pass 2: roll the pending tuples back from their own slots.
    for (rid, ext, op0) in pending {
        match op0 {
            Operation::Insert => {
                let resurrected = layout.slots() > 1
                    && matches!(layout.slot(&ext, 1), Some((_, Operation::Delete)));
                if resurrected {
                    let mut duplicated = None;
                    table.storage().modify(rid, |mut row| {
                        duplicated = Some(reverse_push_back(&layout, &mut row));
                        // CV ← the delete's saved pre-values, now back in
                        // the newest slot's pre-set.
                        for (u_pos, &u) in layout.updatable().iter().enumerate() {
                            row[layout.base_col(u)] = row[layout.pre_set(0)[u_pos]].clone();
                        }
                        Ok(row)
                    })?;
                    report.resurrections_reversed += 1;
                    if let Some(Some(_)) = duplicated {
                        report.duplicated_oldest_slots += 1;
                    }
                } else {
                    // Fresh insert: remove the orphan. A missing slot means
                    // a concurrent GC pass beat us to the physical delete —
                    // nothing left to do.
                    if let Some(dir) = table.key_dir() {
                        let _ = dir.unregister(&ext, rid);
                    }
                    match table.storage().delete(rid) {
                        Ok(()) => table.on_physical_delete(&ext, rid),
                        Err(StorageError::NoSuchSlot { .. }) => {}
                        Err(e) => return Err(e.into()),
                    }
                    report.orphans_removed += 1;
                }
            }
            Operation::Update | Operation::Delete => {
                let mut duplicated = None;
                table.storage().modify(rid, |mut row| {
                    // CV ← pre-values of the newest slot: an update saved
                    // the pre-transaction values there, and a logical
                    // delete copied CV there (so this is a no-op for it).
                    for (u_pos, &u) in layout.updatable().iter().enumerate() {
                        row[layout.base_col(u)] = row[layout.pre_set(0)[u_pos]].clone();
                    }
                    if layout.slots() == 1 {
                        // The single slot's pre-transaction content is
                        // gone; reconstruct `(V, update, PV ← CV)`.
                        row[layout.vn_col(0)] = Value::from(v as i64);
                        row[layout.op_col(0)] = Operation::Update.value();
                        for (u_pos, &i) in layout.pre_set(0).iter().enumerate() {
                            row[i] = row[layout.base_col(layout.updatable()[u_pos])].clone();
                        }
                        duplicated = Some(None);
                    } else {
                        duplicated = Some(reverse_push_back(&layout, &mut row));
                    }
                    Ok(row)
                })?;
                report.slots_restored += 1;
                match duplicated {
                    Some(Some(_)) => {
                        report.duplicated_oldest_slots += 1;
                    }
                    Some(None) if layout.slots() == 1 => {
                        report.reconstructed_slots += 1;
                    }
                    _ => {}
                }
            }
        }
    }

    // Repair state never survives into a recovered process: the delta log
    // was built against the pre-crash commit history, and the rollback
    // above may have undone exactly the tuples its newest batches
    // describe. Sessions that were mid-repair fall back to restart.
    table.version().clear_deltas();

    // Clear the stuck maintenanceActive flag (and its mirror tuple in the
    // Version relation) — harmless when it was never stuck.
    table.version().publish_abort()?;
    Ok(report)
}

/// The exactness horizon one pending tuple will contribute once pass 2
/// rolls it back — computed read-only so [`recover`] can raise the session
/// fence before the first mutation. Mirrors pass 2's case analysis: a full
/// nVNL tuple loses its true oldest slot (exact from the duplicate's VN − 1
/// on), and 2VNL loses its only slot outright (exact from `v` on).
fn prospective_horizon(layout: &ExtLayout, ext: &Row, v: VersionNo, op0: Operation) -> VersionNo {
    let last = layout.slots() - 1;
    let full_shift_horizon = || match layout.slot(ext, last) {
        // `reverse_push_back` will duplicate this slot's `(w, op, PV)`.
        Some((w, _)) => w.saturating_sub(1),
        None => 1,
    };
    match op0 {
        Operation::Insert => {
            let resurrected =
                layout.slots() > 1 && matches!(layout.slot(ext, 1), Some((_, Operation::Delete)));
            if resurrected {
                full_shift_horizon()
            } else if layout.slots() == 1 {
                // A 2VNL resurrection is indistinguishable from a fresh
                // insert; only sessions at `v` are guaranteed exact.
                v
            } else {
                1
            }
        }
        Operation::Update | Operation::Delete => {
            if layout.slots() == 1 {
                // The single slot's pre-transaction content is destroyed;
                // its reconstruction serves only sessions at `v`.
                v
            } else {
                full_shift_horizon()
            }
        }
    }
}

/// Undo a crashed `push_back` on an nVNL tuple: shift the slots forward so
/// the newest slot is the pre-transaction one again. If every slot was
/// occupied — meaning the `push_back` dropped the true oldest slot into the
/// lost undo map — fill the emptied oldest slot with a duplicate of its
/// newer neighbour `(w, op, PV)` and return `Some(w)`: sessions at
/// `sessionVN ≥ w − 1` still read exactly, older ones expire rather than
/// read a guess. Returns `None` when the shift alone is exact.
fn reverse_push_back(layout: &ExtLayout, row: &mut Row) -> Option<VersionNo> {
    let last = layout.slots() - 1;
    let was_full = layout.slot(row, last).is_some();
    layout.shift_forward(row);
    if !was_full {
        return None;
    }
    let (w, _) = layout
        .slot(row, last - 1)
        .expect("a full tuple keeps its second-oldest slot through the shift"); // lint: allow(no-panic) — invariant documented in the expect message
    row[layout.vn_col(last)] = row[layout.vn_col(last - 1)].clone();
    row[layout.op_col(last)] = row[layout.op_col(last - 1)].clone();
    for u_pos in 0..layout.pre_set(last).len() {
        row[layout.pre_set(last)[u_pos]] = row[layout.pre_set(last - 1)[u_pos]].clone();
    }
    Some(w)
}
