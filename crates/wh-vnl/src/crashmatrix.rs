//! Deterministic crash-matrix driver (compiled only under `failpoints`).
//!
//! Sweeps **every registered failpoint × every maintenance operation type**:
//! each cell builds a fresh table with a scripted committed history, arms
//! one failpoint, runs one operation script, "crashes" (the transaction is
//! forgotten — its in-memory undo map is lost, exactly what a process crash
//! loses), disarms, runs [`recover`], and asserts that every session version
//! inside the exactness window reads exactly the reference state. Each cell
//! also re-runs recovery to prove idempotence and asserts that zero log
//! records were written.
//!
//! The driver is a library module (not test-only code) so both the
//! `crash_recovery` integration test and the `report_fault` bench binary
//! share it. Cells panic on divergence; a completed sweep *is* the proof.
//!
//! The fault registry is process-global: callers running cells from
//! multiple tests in one binary must serialize them.
//!
//! [`recover`]: crate::recovery::recover

// The crash matrix is a test driver compiled only under the failpoints
// feature: cells panic on oracle divergence (a completed sweep is the proof)
// and scripted setup uses unwrap freely.
#![expect(clippy::unwrap_used, reason = "a test driver")]
#![expect(clippy::panic, reason = "a test driver")]
#![expect(clippy::unreachable, reason = "a test driver")]
use crate::durable::{self, DiskRecoveryReport};
use crate::gc;
use crate::recovery::{self, RecoveryReport};
use crate::table::VnlTable;
use crate::version::Operation;
use crate::visibility;
use crate::Visible;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use wh_types::fault::{self, FaultAction, PointStats};
use wh_types::{Column, DataType, Schema, Value};

/// Every failpoint compiled into the workspace: storage, vnl, and lock
/// manager catalogs.
pub fn catalog() -> Vec<&'static str> {
    let mut all = Vec::new();
    all.extend_from_slice(wh_storage::FAILPOINTS);
    all.extend_from_slice(crate::FAILPOINTS);
    all.extend_from_slice(wh_cc::FAILPOINTS);
    all
}

/// The maintenance operation type a cell crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Fresh insert plus a resurrecting insert.
    Insert,
    /// First-touch updates plus a same-transaction repeat update.
    Update,
    /// Logical delete, update∘delete, and insert∘delete chains.
    Delete,
    /// A garbage-collection pass (physical expiry of deleted tuples).
    Expire,
    /// A mixed batch followed by `commit()`.
    Commit,
    /// A mixed batch followed by `abort()`.
    Abort,
}

impl OpKind {
    /// All operation types, in sweep order.
    pub const ALL: [OpKind; 6] = [
        OpKind::Insert,
        OpKind::Update,
        OpKind::Delete,
        OpKind::Expire,
        OpKind::Commit,
        OpKind::Abort,
    ];
}

/// What one `(failpoint, op)` cell observed.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// The armed failpoint.
    pub point: &'static str,
    /// The operation script.
    pub op: OpKind,
    /// The table's nVNL `n`.
    pub n: usize,
    /// Whether the armed point actually fired during the script (points off
    /// the script's path yield a plain end-of-script crash instead).
    pub injected: bool,
    /// Commit cells only: whether the version flip happened before the
    /// crash (decides which reference state applies).
    pub committed: bool,
    /// The (first) recovery pass report.
    pub recovery: RecoveryReport,
}

/// Aggregate result of a sweep.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    /// One entry per cell, in sweep order.
    pub cells: Vec<CellReport>,
    /// One entry per durability cell (disk-backed tables; see
    /// [`run_durability_cells`]), in sweep order.
    pub durability_cells: Vec<DurabilityCellReport>,
    /// Per-point hit/fired counters accumulated over the whole sweep.
    pub coverage: Vec<PointStats>,
}

fn schema() -> Schema {
    Schema::with_key_names(
        vec![
            Column::new("k", DataType::Int64),
            Column::updatable("v", DataType::Int64),
        ],
        &["k"],
    )
    .unwrap()
}

fn row(k: i64, v: i64) -> Vec<Value> {
    vec![Value::from(k), Value::from(v)]
}

/// Scripted history every cell starts from:
/// VN 1 — load k0=0, k1=100, k2=200;
/// VN 2 (committed) — k0←1000, delete k1, insert k3=300.
fn build_table(n: usize) -> VnlTable {
    let table = VnlTable::create_named("T", schema(), n).unwrap();
    for k in 0..3i64 {
        table.load_initial(&[row(k, k * 100)]).unwrap();
    }
    let txn = table.begin_maintenance().unwrap();
    txn.update_row(&row(0, 1000)).unwrap();
    txn.delete_row(&row(1, 0)).unwrap();
    txn.insert(row(3, 300)).unwrap();
    txn.commit().unwrap();
    table
}

/// The reference (model) state at `svn`. `svn = 3` is only reachable from
/// Commit cells whose version flip happened.
fn expected_live(svn: u64) -> Vec<(i64, i64)> {
    match svn {
        0 | 1 => vec![(0, 0), (1, 100), (2, 200)],
        2 => vec![(0, 1000), (2, 200), (3, 300)],
        _ => vec![(0, 1001), (3, 300), (4, 400)],
    }
}

/// Reader-visible `(k, v)` set at `svn`, via the real visibility function.
fn visible_state(table: &VnlTable, svn: u64) -> Vec<(i64, i64)> {
    let mut rows: Vec<(i64, i64)> = table
        .scan_raw()
        .unwrap()
        .iter()
        .filter_map(
            |(_, ext)| match visibility::extract(table.layout(), ext, svn) {
                Visible::Row(r) => Some((r[0].as_int().unwrap(), r[1].as_int().unwrap())),
                Visible::Ignore => None,
                Visible::Expired => panic!("unexpected expiry at sessionVN {svn}"),
            },
        )
        .collect();
    rows.sort_unstable();
    rows
}

/// A stable fingerprint of the physical table state (idempotence checks).
fn fingerprint(table: &VnlTable) -> String {
    let mut rows: Vec<String> = table
        .scan_raw()
        .unwrap()
        .iter()
        .map(|(rid, ext)| format!("{rid}:{ext:?}"))
        .collect();
    rows.sort_unstable();
    rows.join("\n")
}

/// Run one cell: arm `point`, crash `op` against a fresh scripted table,
/// recover, and model-check. Panics on any divergence.
///
/// Counters are *not* cleared, so a sweep accumulates coverage; callers
/// wanting isolated counts should call [`fault::clear_all`] first.
/// Flight-recorder hook for matrix cells: if the cell panics (oracle
/// divergence or a violated recovery invariant), dump the ring while it
/// still holds the injected fault's causal chain.
struct CellFlightGuard {
    point: &'static str,
    n: usize,
}

impl Drop for CellFlightGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            wh_obs::recorder::trigger(
                "crash_matrix_cell",
                &format!("cell failed: point={} n={}", self.point, self.n),
            );
        }
    }
}

pub fn run_cell(n: usize, point: &'static str, op: OpKind) -> CellReport {
    let _flight = CellFlightGuard { point, n };
    let table = build_table(n);
    let fired_before = fault::fired(point);
    fault::configure(point, FaultAction::Error);
    let mut committed = false;

    match op {
        OpKind::Expire => {
            // GC runs outside any maintenance transaction; a fault mid-pass
            // puts the remaining victims back into the record.
            let _ = gc::collect(&table);
        }
        _ => {
            // A fault inside begin_maintenance leaves the maintenanceActive
            // flag stuck with no transaction to clean it up.
            if let Ok(txn) = table.begin_maintenance() {
                let mut ok = true;
                match op {
                    OpKind::Insert => {
                        ok &= txn.insert(row(4, 400)).is_ok();
                        ok &= txn.insert(row(1, 111)).is_ok(); // resurrects k1
                        let _ = ok;
                        std::mem::forget(txn); // crash: undo map lost
                    }
                    OpKind::Update => {
                        ok &= txn.update_row(&row(0, 1001)).is_ok();
                        ok &= txn.update_row(&row(0, 1002)).is_ok(); // same-txn repeat
                        ok &= txn.update_row(&row(2, 222)).is_ok();
                        let _ = ok;
                        std::mem::forget(txn);
                    }
                    OpKind::Delete => {
                        ok &= txn.delete_row(&row(0, 0)).is_ok();
                        ok &= txn.update_row(&row(2, 222)).is_ok();
                        ok &= txn.delete_row(&row(2, 0)).is_ok(); // update∘delete
                        ok &= txn.insert(row(4, 400)).is_ok();
                        ok &= txn.delete_row(&row(4, 0)).is_ok(); // insert∘delete
                        let _ = ok;
                        std::mem::forget(txn);
                    }
                    OpKind::Commit => {
                        ok &= txn.update_row(&row(0, 1001)).is_ok();
                        ok &= txn.insert(row(4, 400)).is_ok();
                        ok &= txn.delete_row(&row(2, 0)).is_ok();
                        if ok {
                            committed = txn.commit().is_ok();
                        } else {
                            std::mem::forget(txn); // crash mid-batch
                        }
                    }
                    OpKind::Abort => {
                        let _ = txn.update_row(&row(0, 1001));
                        let _ = txn.insert(row(4, 400));
                        let _ = txn.delete_row(&row(2, 0));
                        // A fault mid-rollback leaves a *partial* abort; the
                        // txn is consumed either way, with its undo map.
                        let _ = txn.abort();
                    }
                    OpKind::Expire => unreachable!("handled above"),
                }
            }
        }
    }

    fault::disarm_all(); // keep counters: the sweep's coverage proof
    let injected = fault::fired(point) > fired_before;

    let report = recovery::recover(&table).unwrap();
    assert_eq!(report.log_writes, 0, "recovery must not write a log");

    let snap = table.version().snapshot();
    assert!(
        !snap.maintenance_active,
        "recovery must clear maintenanceActive ({point} × {op:?}, n={n})"
    );
    assert_eq!(snap.current_vn, if committed { 3 } else { 2 });

    // Model-check every session version that recovery guarantees exact.
    // Expire cells additionally bound the window at currentVN: with no
    // registered sessions, GC's horizon is currentVN, so older versions are
    // legitimately reclaimed.
    let window_start = snap.current_vn.saturating_sub(n as u64 - 1).max(1);
    let mut check_from = window_start.max(report.exact_horizon);
    if op == OpKind::Expire {
        check_from = check_from.max(snap.current_vn);
    }
    for svn in check_from..=snap.current_vn {
        assert_eq!(
            visible_state(&table, svn),
            expected_live(svn),
            "divergence at sessionVN {svn} ({point} × {op:?}, n={n}, injected={injected})"
        );
    }

    // Idempotence: a second pass finds nothing and changes nothing.
    let before = fingerprint(&table);
    let again = recovery::recover(&table).unwrap();
    assert_eq!(
        again.pending_found, 0,
        "second recovery must find nothing pending ({point} × {op:?}, n={n})"
    );
    assert_eq!(
        fingerprint(&table),
        before,
        "second recovery must be a no-op ({point} × {op:?}, n={n})"
    );

    // Nothing leaks: whatever the fault did to GC's record of deletes, one
    // fault-free pass leaves no tuple that GC could reclaim.
    gc::collect(&table).unwrap();
    let bound = snap.current_vn.min(table.gc_reclaim_ceiling());
    for (rid, ext) in table.scan_raw().unwrap() {
        let slot0 = table.layout().slot(&ext, 0);
        let dead = matches!(slot0, Some((w, Operation::Delete)) if w <= bound);
        assert!(!dead, "{rid} leaked ({point} × {op:?}, n={n})");
    }

    CellReport {
        point,
        op,
        n,
        injected,
        committed,
        recovery: report,
    }
}

/// The durable-tier failpoints the durability cells sweep: the in-memory
/// cells above arm them too (harmlessly — an in-memory table never reaches
/// the disk paths), but only a disk-backed table drives them through
/// flush, eviction, checkpoint, and restart recovery.
pub const DURABILITY_POINTS: &[&str] = &[
    "storage.disk.read",
    "storage.disk.write",
    "storage.pool.evict",
    "storage.pool.flush",
    "storage.ckpt.begin",
    "storage.ckpt.meta",
];

/// The durable-tier operation a durability cell crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurableOpKind {
    /// `flush_all` mid-maintenance: the steal policy pushes a live
    /// transaction's dirty pages to disk, then the process dies.
    Flush,
    /// `evict_all` mid-maintenance: eviction forces flush-before-drop,
    /// then the process dies with the transaction's pages non-resident.
    Evict,
    /// A committed transaction's checkpoint crashes partway: the previous
    /// checkpoint must stay intact (the commit is lost — durability lag).
    Checkpoint,
    /// The fault fires during restart recovery itself; the retry must
    /// succeed because §7 recovery is idempotent.
    Restart,
}

impl DurableOpKind {
    /// All durable operation types, in sweep order.
    pub const ALL: [DurableOpKind; 4] = [
        DurableOpKind::Flush,
        DurableOpKind::Evict,
        DurableOpKind::Checkpoint,
        DurableOpKind::Restart,
    ];
}

/// What one durability `(failpoint, op)` cell observed.
#[derive(Debug, Clone)]
pub struct DurabilityCellReport {
    /// The armed failpoint.
    pub point: &'static str,
    /// The durable operation script.
    pub op: DurableOpKind,
    /// The table's nVNL `n`.
    pub n: usize,
    /// Whether the armed point actually fired during the cell.
    pub injected: bool,
    /// Checkpoint cells only: whether the armed checkpoint completed
    /// (decides whether VN 3 survives the restart or is lost).
    pub checkpointed: bool,
    /// `currentVN` after restart recovery.
    pub recovered_vn: u64,
    /// The restart-recovery report.
    pub recovery: DiskRecoveryReport,
}

/// A fresh scratch directory for one durability cell.
fn matrix_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed); // ordering: id-alloc Relaxed — unique-name counter only
    let dir = std::env::temp_dir().join(format!("wh-crashmatrix-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// [`build_table`]'s scripted history on a disk-backed table (pool capacity
/// 2, so the history itself runs under eviction pressure), ending with a
/// clean checkpoint at VN 2 — the durable baseline every cell recovers
/// relative to.
fn build_durable_table(n: usize, dir: &Path) -> VnlTable {
    let table = durable::create_durable("T", schema(), n, dir, 2).unwrap();
    for k in 0..3i64 {
        table.load_initial(&[row(k, k * 100)]).unwrap();
    }
    let txn = table.begin_maintenance().unwrap();
    txn.update_row(&row(0, 1000)).unwrap();
    txn.delete_row(&row(1, 0)).unwrap();
    txn.insert(row(3, 300)).unwrap();
    txn.commit().unwrap();
    durable::checkpoint(&table).unwrap();
    table
}

/// Run one durability cell: build a checkpointed disk-backed table, arm
/// `point`, crash `op`, "restart" (drop every in-memory structure), recover
/// from the disk artifacts alone, and model-check what the recovered table
/// serves. Panics on any divergence.
pub fn run_durability_cell(
    n: usize,
    point: &'static str,
    op: DurableOpKind,
) -> DurabilityCellReport {
    let _flight = CellFlightGuard { point, n };
    let dir = matrix_dir();
    let table = build_durable_table(n, &dir);
    let fired_before = fault::fired(point);
    let mut checkpointed = false;

    match op {
        DurableOpKind::Flush | DurableOpKind::Evict => {
            // VN 3 work in flight when the pool steals it to disk. The ops
            // mirror `expected_live`'s post-VN-2 arm, so a checkpoint that
            // *did* capture them would also model-check.
            let txn = table.begin_maintenance().unwrap();
            let _ = txn.update_row(&row(0, 1001));
            let _ = txn.delete_row(&row(2, 0));
            let _ = txn.insert(row(4, 400));
            fault::configure(point, FaultAction::Error);
            let _ = if op == DurableOpKind::Flush {
                table.storage().heap().flush_all()
            } else {
                table.storage().heap().evict_all()
            };
            std::mem::forget(txn); // crash: undo map lost
        }
        DurableOpKind::Checkpoint => {
            // VN 3 commits in memory; the checkpoint that would make it
            // durable crashes partway. Whatever half-state it flushed, the
            // *previous* checkpoint's meta must still govern recovery.
            let txn = table.begin_maintenance().unwrap();
            txn.update_row(&row(0, 1001)).unwrap();
            txn.delete_row(&row(2, 0)).unwrap();
            txn.insert(row(4, 400)).unwrap();
            txn.commit().unwrap();
            fault::configure(point, FaultAction::Error);
            checkpointed = durable::checkpoint(&table).is_ok();
        }
        DurableOpKind::Restart => {
            // VN 3 commits but is never checkpointed (bounded durability
            // lag); the fault then fires during recovery itself. One shot:
            // the retry below must succeed.
            let txn = table.begin_maintenance().unwrap();
            txn.update_row(&row(0, 1001)).unwrap();
            txn.delete_row(&row(2, 0)).unwrap();
            txn.insert(row(4, 400)).unwrap();
            txn.commit().unwrap();
            fault::configure(point, FaultAction::ErrorTimes(1));
        }
    }

    let injected_mid = fault::fired(point) > fired_before;
    if op != DurableOpKind::Restart {
        fault::disarm_all(); // keep counters: the sweep's coverage proof
    }
    drop(table); // process "restart": every in-memory structure is gone

    // Recover from the disk artifacts alone. A Restart cell's first attempt
    // may fail (the armed fault fires inside recovery); §7 recovery is
    // idempotent, so the retry is safe — and must succeed.
    let (table, report) = match durable::recover_from_disk("T", schema(), n, &dir, 2) {
        Ok(ok) => ok,
        Err(_) => {
            assert_eq!(
                op,
                DurableOpKind::Restart,
                "only a Restart cell may fail its first recovery ({point} × {op:?}, n={n})"
            );
            fault::disarm_all();
            durable::recover_from_disk("T", schema(), n, &dir, 2).unwrap()
        }
    };
    fault::disarm_all();
    let injected = injected_mid || fault::fired(point) > fired_before;

    assert_eq!(
        report.recovery.log_writes, 0,
        "restart recovery must not write a log ({point} × {op:?}, n={n})"
    );
    let snap = table.version().snapshot();
    assert!(
        !snap.maintenance_active,
        "recovery must clear maintenanceActive ({point} × {op:?}, n={n})"
    );
    // Everything up to the last *completed* checkpoint survives; later
    // commits are lost (durability lag), never half-applied.
    let expect_vn = if checkpointed { 3 } else { 2 };
    assert_eq!(
        snap.current_vn, expect_vn,
        "recovered VN ({point} × {op:?}, n={n}, injected={injected})"
    );
    assert_eq!(report.checkpoint_vn, expect_vn);
    assert_eq!(
        table.gc_reclaim_ceiling(),
        expect_vn,
        "recovery must restore the GC ceiling ({point} × {op:?}, n={n})"
    );

    // Model-check every session version recovery guarantees exact.
    let window_start = snap.current_vn.saturating_sub(n as u64 - 1).max(1);
    let check_from = window_start.max(report.recovery.exact_horizon);
    for svn in check_from..=snap.current_vn {
        assert_eq!(
            visible_state(&table, svn),
            expected_live(svn),
            "divergence at sessionVN {svn} ({point} × {op:?}, n={n}, injected={injected})"
        );
    }

    // Idempotence across the durable tier: a second in-process pass finds
    // nothing pending.
    let again = recovery::recover(&table).unwrap();
    assert_eq!(
        again.pending_found, 0,
        "second recovery must find nothing pending ({point} × {op:?}, n={n})"
    );

    drop(table);
    std::fs::remove_dir_all(&dir).ok();
    DurabilityCellReport {
        point,
        op,
        n,
        injected,
        checkpointed,
        recovered_vn: snap.current_vn,
        recovery: report,
    }
}

/// Sweep [`DURABILITY_POINTS`] × [`DurableOpKind::ALL`] for each `n`.
pub fn run_durability_cells(ns: &[usize]) -> Vec<DurabilityCellReport> {
    let mut cells = Vec::new();
    for &n in ns {
        for point in DURABILITY_POINTS {
            for op in DurableOpKind::ALL {
                cells.push(run_durability_cell(n, point, op));
            }
        }
    }
    cells
}

/// Exercise the lock-manager failpoints (they sit outside the maintenance
/// path, so the table cells never reach them): a refused grant surfaces as a
/// timeout, and a swallowed release leaves the crashed client's locks held.
pub fn run_cc_cells() {
    use wh_cc::{LockManager, LockMode, LockRequestOutcome};
    let lm = LockManager::strict(std::time::Duration::from_millis(10));

    fault::configure("cc.lock.grant", FaultAction::Error);
    assert_eq!(
        lm.acquire(1, 1, LockMode::Shared),
        LockRequestOutcome::TimedOut
    );
    fault::disarm_all();

    assert!(lm.acquire(1, 1, LockMode::Shared).granted());
    fault::configure("cc.lock.release", FaultAction::Error);
    lm.release_all(1); // swallowed: the "crashed" client keeps its locks
    fault::disarm_all();
    assert_eq!(lm.locked_keys(), 1);
    lm.release_all(1);
    assert_eq!(lm.locked_keys(), 0);
}

/// The session-repair failpoints swept by [`run_repair_cells`]. The main
/// cells arm these too (Commit cells drive `vnl.delta.capture`, Expire
/// cells drive `vnl.delta.evict`), but only these cells reach the repair
/// admission gate, and only they prove the repair-specific invariants: an
/// injected fault forces the restart fallback — never a wrong answer — and
/// repair state (the retained delta window) never survives recovery.
pub const REPAIR_POINTS: &[&str] = &["vnl.delta.capture", "vnl.delta.evict", "vnl.repair.apply"];

/// One committed single-row update in its own maintenance transaction.
fn commit_update(table: &VnlTable, k: i64, v: i64) {
    let txn = table.begin_maintenance().unwrap();
    txn.update_row(&row(k, v)).unwrap();
    txn.commit().unwrap();
}

/// A repaired row set as sorted `(k, v)` pairs (the repaired path yields
/// primary-key order already; sorting makes the oracle order-blind).
fn repaired_kv(rep: &crate::resilience::Repaired) -> Vec<(i64, i64)> {
    let mut kv: Vec<(i64, i64)> = rep
        .rows
        .iter()
        .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
        .collect();
    kv.sort_unstable();
    kv
}

/// Sweep [`REPAIR_POINTS`] for each `n`: arm each point on its own path,
/// crash, recover, and assert the repair layer fails *closed* — an injected
/// fault may only cost work (decline → restart), never correctness, and no
/// retained delta window outlives a recovery pass. Panics on divergence.
pub fn run_repair_cells(ns: &[usize]) {
    use crate::resilience::{RepairEngine, RetryPolicy};

    for &n in ns {
        // --- vnl.repair.apply: a fault at the admission gate declines every
        // repair; the retry layer's restart fallback still answers exactly.
        {
            let point = "vnl.repair.apply";
            let _flight = CellFlightGuard { point, n };
            let table = build_table(n);
            let svn = table.version().peek().current_vn;
            for i in 0..n as i64 {
                commit_update(&table, 0, 2000 + i); // svn expires under §4.1
            }
            let engine = RepairEngine::new(&table);
            fault::configure(point, FaultAction::Error);
            assert!(
                engine.scan_at_current(svn).unwrap().is_none(),
                "an injected repair fault must decline, not answer ({point}, n={n})"
            );
            let policy = RetryPolicy::default()
                .with_backoff(std::time::Duration::ZERO, std::time::Duration::ZERO);
            let expired = std::cell::Cell::new(false);
            let (res, stats) = policy.run_repaired(
                &table,
                |s| {
                    if !expired.replace(true) {
                        return Err(table.expired_error(svn));
                    }
                    s.scan()
                },
                |vn| engine.scan_at_current(vn).ok().flatten().map(|r| r.rows),
            );
            fault::disarm_all();
            let mut got: Vec<(i64, i64)> = res
                .unwrap()
                .iter()
                .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
                .collect();
            got.sort_unstable();
            let vn_now = table.version().peek().current_vn;
            assert_eq!(
                got,
                visible_state(&table, vn_now),
                "the restart fallback must answer exactly ({point}, n={n})"
            );
            assert_eq!(
                (stats.repaired, stats.restarted),
                (0, 1),
                "an armed admission gate must route to restart ({point}, n={n})"
            );
            // Disarmed, the identical repair succeeds and matches a rescan.
            let rep = engine
                .scan_at_current(svn)
                .unwrap()
                .unwrap_or_else(|| panic!("disarmed repair must succeed ({point}, n={n})"));
            assert_eq!(rep.vn, vn_now);
            assert_eq!(
                repaired_kv(&rep),
                visible_state(&table, vn_now),
                "repair ≡ rescan ({point}, n={n})"
            );
            // Crash-and-recover: repair state never survives restart.
            recovery::recover(&table).unwrap();
            assert_eq!(
                table.version().delta_log_len(),
                0,
                "the delta log must not survive recovery ({point}, n={n})"
            );
            assert!(
                engine.scan_at_current(svn).unwrap().is_none(),
                "post-recovery repair of a pre-crash session must decline ({point}, n={n})"
            );
        }

        // --- vnl.delta.capture: a fault during net-effect capture fails the
        // whole commit (rolled back wholesale) — no VN flip, no half-retained
        // batch — and the window stays contiguous across recovery.
        {
            let point = "vnl.delta.capture";
            let _flight = CellFlightGuard { point, n };
            let table = build_table(n);
            let svn = table.version().peek().current_vn;
            fault::configure(point, FaultAction::Error);
            let txn = table.begin_maintenance().unwrap();
            txn.update_row(&row(0, 5000)).unwrap();
            assert!(
                txn.commit().is_err(),
                "a capture fault must fail the commit ({point}, n={n})"
            );
            fault::disarm_all();
            recovery::recover(&table).unwrap(); // crash after the failed commit
            let snap = table.version().snapshot();
            assert_eq!(
                snap.current_vn, svn,
                "a failed capture must not flip the VN ({point}, n={n})"
            );
            assert_eq!(
                visible_state(&table, svn),
                expected_live(svn),
                "the failed commit must roll back wholesale ({point}, n={n})"
            );
            // The log re-arms: the next commit's window repairs cleanly.
            commit_update(&table, 0, 6000);
            let engine = RepairEngine::new(&table);
            let rep = engine
                .scan_at_current(svn)
                .unwrap()
                .unwrap_or_else(|| panic!("the post-recovery window must repair ({point}, n={n})"));
            let vn_now = table.version().peek().current_vn;
            assert_eq!(
                repaired_kv(&rep),
                visible_state(&table, vn_now),
                "repair ≡ rescan after a capture crash ({point}, n={n})"
            );
        }

        // --- vnl.delta.evict: a fault during eviction skips the pass (the
        // log stays capacity-bounded regardless); the un-evicted window is
        // still exact, and recovery still clears it.
        {
            let point = "vnl.delta.evict";
            let _flight = CellFlightGuard { point, n };
            let table = build_table(n);
            let svn = table.version().peek().current_vn;
            commit_update(&table, 0, 7000);
            let log_before = table.version().delta_log_len();
            fault::configure(point, FaultAction::Error);
            let _ = gc::collect(&table);
            fault::disarm_all();
            assert!(
                table.version().delta_log_len() >= log_before,
                "a skipped eviction must not lose batches ({point}, n={n})"
            );
            let engine = RepairEngine::new(&table);
            let rep = engine
                .scan_at_current(svn)
                .unwrap()
                .unwrap_or_else(|| panic!("the un-evicted window must repair ({point}, n={n})"));
            let vn_now = table.version().peek().current_vn;
            assert_eq!(
                repaired_kv(&rep),
                visible_state(&table, vn_now),
                "repair ≡ rescan under a skipped eviction ({point}, n={n})"
            );
            recovery::recover(&table).unwrap();
            assert_eq!(
                table.version().delta_log_len(),
                0,
                "repair state must never survive recovery ({point}, n={n})"
            );
        }
    }
}

/// Run the full sweep — every cataloged failpoint × every [`OpKind`], for
/// each `n` in `ns` — plus the lock-manager and session-repair cells, then
/// assert that every registered failpoint fired at least once. Panics on
/// any cell divergence or coverage hole.
pub fn run_matrix(ns: &[usize]) -> MatrixReport {
    fault::clear_all();
    let mut cells = Vec::new();
    for &n in ns {
        assert!(n >= 2, "nVNL requires n >= 2");
        for point in catalog() {
            for op in OpKind::ALL {
                cells.push(run_cell(n, point, op));
            }
        }
    }
    run_cc_cells();
    // The session-repair cells: the only cells that reach the repair
    // admission gate (`vnl.repair.apply`), and the proof that injected
    // repair faults fail closed to restart.
    run_repair_cells(ns);
    // The durable tier's cells: the in-memory cells arm the disk failpoints
    // but never reach them, so these are what make the coverage assertion
    // below hold for `storage.{disk,pool,ckpt}.*`.
    let durability_cells = run_durability_cells(ns);
    // The paper's no-WAL claim, asserted structurally: there is no log
    // failpoint because there is no log write path to instrument.
    assert!(
        catalog().iter().all(|p| !p.contains("log")),
        "a log-write failpoint appeared — the no-WAL invariant is gone"
    );
    for point in catalog() {
        assert!(
            fault::fired(point) > 0,
            "failpoint {point} never fired during the sweep — coverage hole"
        );
    }
    MatrixReport {
        cells,
        durability_cells,
        coverage: fault::snapshot(),
    }
}
