//! Log-free rollback: the scavenger behind the paper's no-log claim.
//!
//! §7 observes that because every touched tuple still carries its
//! pre-update version in its own slots, a maintenance transaction can roll
//! back "without requiring an undo log". One function, `undo_tuple`,
//! reverses one pending tuple; a live [`MaintenanceTxn::abort`], Table 4's
//! delete of an own insert (insert∘delete rolls that one tuple back) and
//! [`recover`] after a **crash** all call it. Its one input besides the
//! tuple is `Lost`, what the slots cannot tell. A live transaction keeps it
//! in its in-memory undo map, which also lists its pending tuples. A crash
//! loses the map and leaves `maintenanceActive` stuck on; [`recover`] then
//! walks the relation for the pending tuples and reverses them from nothing
//! but their durable `(tupleVN, operation, pre-values)` slots. Zero log
//! records are read because zero were ever written.
//!
//! # Algorithm
//!
//! Let `V = currentVN` (the crash never advanced it: the version flip is
//! the last, latched step of commit); a pending tuple's slot 0 carries
//! `tupleVN > V`. A fresh insert is physically deleted with its key and
//! index registrations. Otherwise the current values are restored — from
//! the newest slot's pre-values for an update or delete; for a resurrection
//! (after a crash, recognisable in nVNL by slot 1 = delete) from the values
//! it overwrote, or else the delete's pre-values — and the `push_back` is
//! undone by shifting the slots forward. A live abort writes the slot its
//! `push_back` dropped back into the emptied oldest slot, so it is exact.
//! Finally [`recover`] clears the stuck flag; running it again is a no-op.
//!
//! # Exactness
//!
//! After a crash, perfect reconstruction is information-theoretically
//! impossible in two places, and the report says so instead of pretending:
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
//! uniformly for 2VNL and nVNL. Live or not, restoration covers updatable
//! columns (non-updatable columns are never changed by updates; a reversed
//! resurrection keeps the resurrector's non-updatable non-key values).
//!
//! [`MaintenanceTxn::abort`]: crate::maintenance::MaintenanceTxn::abort

use crate::error::VnlResult;
use crate::schema_ext::{ExtLayout, Slot};
use crate::table::VnlTable;
use crate::version::{Operation, VersionNo};
use wh_storage::{Rid, StorageError};
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
    let layout = table.layout();
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
    // the exactness horizon *before* touching anything. The walk is the
    // only discovery left: the transaction's undo map died with it.
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
            let horizon = plan(layout, &ext, t.rid, &Lost::Unknown)?.horizon();
            report.exact_horizon = report.exact_horizon.max(horizon);
            pending.push((t.rid, ext));
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
    for (rid, ext) in pending {
        let Plan::Restore {
            resurrection,
            refill,
            ..
        } = undo_tuple(table, rid, &ext, &Lost::Unknown)?
        else {
            report.orphans_removed += 1;
            continue;
        };
        if resurrection {
            report.resurrections_reversed += 1;
        } else {
            report.slots_restored += 1;
        }
        match refill {
            Refill::Duplicate(_) => report.duplicated_oldest_slots += 1,
            Refill::Reconstruct(_) => report.reconstructed_slots += 1,
            Refill::Spare | Refill::Exact(_) => {}
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

/// What a pending tuple's own slots cannot tell about its pre-transaction
/// state: the one input [`undo_tuple`] takes besides the tuple. A live
/// transaction's undo map holds it per touched tuple.
#[derive(Debug, Clone)]
pub(crate) enum Lost {
    /// After a crash: the transaction's record died with it.
    Unknown,
    /// The transaction physically inserted the tuple.
    Fresh,
    /// The transaction pushed an existing tuple's slots back.
    Pushed {
        /// The oldest slot the push dropped; `None` when it was spare.
        dropped: Option<Slot>,
        /// The updatable current values a resurrection overwrote; `None`
        /// for an update or delete, which save them in slot 0's pre-set.
        overwritten: Option<Vec<Value>>,
    },
}

/// What [`undo_tuple`] writes into the oldest slot, which shifting the
/// slots forward leaves empty.
#[derive(Debug)]
pub(crate) enum Refill {
    /// Nothing: the slot was empty before the transaction.
    Spare,
    /// The slot the transaction's `push_back` dropped.
    Exact(Slot),
    /// nVNL after a crash: a duplicate of the newer neighbour `(w, …)`,
    /// exact for sessions from `w − 1` on.
    Duplicate(Slot),
    /// 2VNL after a crash: the reconstruction `(V, update, PV ← CV)`, exact
    /// for sessions from `V` on.
    Reconstruct(Slot),
}

/// How one pending tuple is reversed: the single case analysis behind both
/// [`undo_tuple`] and the exactness horizon recovery fences with.
#[derive(Debug)]
pub(crate) enum Plan {
    /// Physically remove a fresh insert — exact from `horizon` on, because
    /// after a crash a 2VNL resurrection looks like a fresh insert.
    Remove { horizon: VersionNo },
    /// Restore an existing tuple: its updatable current values become
    /// `current`, its slots shift forward, and `refill` fills the oldest.
    /// `resurrection` when the transaction's slot 0 revived a
    /// logically-deleted tuple.
    Restore {
        resurrection: bool,
        current: Vec<Value>,
        refill: Refill,
    },
}

impl Plan {
    /// The smallest `sessionVN` the reversed tuple serves exactly.
    pub(crate) fn horizon(&self) -> VersionNo {
        match self {
            Plan::Remove { horizon } => *horizon,
            Plan::Restore { refill, .. } => match refill {
                Refill::Duplicate((w, ..)) => w.saturating_sub(1),
                Refill::Reconstruct((v, ..)) => *v,
                Refill::Spare | Refill::Exact(_) => 1,
            },
        }
    }
}

/// Decide how to reverse the pending tuple `ext` at `rid`, given `lost`.
/// The version rolled back to, `V`, is slot 0's `maintenanceVN − 1`.
fn plan(layout: &ExtLayout, ext: &Row, rid: Rid, lost: &Lost) -> VnlResult<Plan> {
    let (vn0, op0) = layout.stamp(ext, rid)?;
    let v = vn0.saturating_sub(1);
    let last = layout.slots() - 1;
    let resurrection = op0 == Operation::Insert;
    let refill = match lost {
        Lost::Fresh => return Ok(Plan::Remove { horizon: 1 }),
        Lost::Pushed { dropped, .. } => dropped.clone().map_or(Refill::Spare, Refill::Exact),
        Lost::Unknown if last == 0 && resurrection => return Ok(Plan::Remove { horizon: v }),
        // The restored CV is PV(0), so that is the reconstructed PV too.
        Lost::Unknown if last == 0 => {
            Refill::Reconstruct((v, Operation::Update, layout.pre_image(ext, 0)))
        }
        // nVNL: a resurrection pushed its delete slot to slot 1.
        Lost::Unknown
            if resurrection && !matches!(layout.slot(ext, 1), Some((_, Operation::Delete))) =>
        {
            return Ok(Plan::Remove { horizon: 1 })
        }
        // The shift moves the oldest slot one newer; duplicate it back.
        Lost::Unknown => layout
            .saved(ext, last)
            .map_or(Refill::Spare, Refill::Duplicate),
    };
    let current = match lost {
        // CV ← PV(0): an update saved the pre-transaction values there, and
        // a logical delete copied them there (update∘delete included).
        _ if !resurrection => layout.pre_image(ext, 0),
        // A resurrection overwrote CV: put it back, or after a crash take
        // the delete's pre-values, which the push moved to slot 1.
        Lost::Pushed {
            overwritten: Some(cv),
            ..
        } => cv.clone(),
        _ => layout.pre_image(ext, 1.min(last)),
    };
    Ok(Plan::Restore {
        resurrection,
        current,
        refill,
    })
}

/// Reverse one pending tuple — slot 0 newer than `currentVN` — to its
/// pre-transaction state from its own slots plus `lost`, and return the
/// plan it carried out. The one reversal there is: live abort, Table 4's
/// delete of an own insert and [`recover`] all call it.
pub(crate) fn undo_tuple(table: &VnlTable, rid: Rid, ext: &Row, lost: &Lost) -> VnlResult<Plan> {
    let layout = table.layout();
    let plan = plan(layout, ext, rid, lost)?;
    let Plan::Restore {
        current, refill, ..
    } = &plan
    else {
        // A fresh insert: remove it. A missing slot means a concurrent GC
        // pass beat us to the physical delete — nothing left to do.
        table.unregister_key(ext, rid);
        match table.storage().delete(rid) {
            Ok(()) => table.on_physical_delete(ext, rid),
            Err(StorageError::NoSuchSlot { .. }) => {}
            Err(e) => return Err(e.into()),
        }
        return Ok(plan);
    };
    let mut restored = None;
    table.storage().modify(rid, |mut row| {
        layout.set_current(&mut row, current);
        // Undo the push_back.
        layout.shift_forward(&mut row);
        if let Refill::Exact(slot) | Refill::Duplicate(slot) | Refill::Reconstruct(slot) = refill {
            layout.set_slot(&mut row, layout.slots() - 1, slot);
        }
        restored = layout.slot(&row, 0);
        Ok(row)
    })?;
    // A reversed resurrection puts its delete back into slot 0, which GC
    // may have dropped from its record while the tuple was live.
    if let Some((vn, Operation::Delete)) = restored {
        table.note_deletes([(vn, rid)]);
    }
    Ok(plan)
}
