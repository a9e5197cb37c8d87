//! Tier-1 recovery tests — no `failpoints` feature required. Crashes are
//! simulated by forgetting a live `MaintenanceTxn` at an operation boundary:
//! exactly what a real crash leaves behind (pending tuple slots, a stuck
//! `maintenanceActive` flag, and no undo map). The failpoint-driven crash
//! matrix in `crash_recovery.rs` covers mid-operation crashes.
#![allow(clippy::unwrap_used, clippy::panic)]

use std::collections::HashMap;

use wh_types::{Column, DataType, Schema, Value};
use wh_vnl::visibility;
use wh_vnl::{recover, Visible, VnlTable, WarehouseBuilder};

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

fn build(n: usize) -> VnlTable {
    let table = VnlTable::create_named("T", schema(), n).unwrap();
    table
        .load_initial(&[row(0, 10), row(1, 11), row(2, 12)])
        .unwrap();
    table
}

#[test]
fn recovery_is_a_noop_on_a_cleanly_committed_table() {
    for n in [2, 3, 4] {
        let table = build(n);
        let txn = table.begin_maintenance().unwrap();
        txn.update_row(&row(0, 100)).unwrap();
        txn.delete_row(&row(1, 0)).unwrap();
        txn.insert(row(3, 13)).unwrap();
        txn.commit().unwrap();

        let before = fingerprint(&table);
        let report = recover(&table).unwrap();
        assert_eq!(report.pending_found, 0);
        assert_eq!(report.exact_horizon, 1, "a no-op recovery is fully exact");
        assert!(!report.cleared_maintenance_flag);
        assert_eq!(report.log_writes, 0);
        assert_eq!(fingerprint(&table), before, "clean table must not change");
    }
}

#[test]
fn recovery_is_a_noop_after_a_clean_abort() {
    for n in [2, 3] {
        let table = build(n);
        let txn = table.begin_maintenance().unwrap();
        txn.update_row(&row(0, 100)).unwrap();
        txn.delete_row(&row(1, 0)).unwrap();
        txn.insert(row(3, 13)).unwrap();
        txn.abort().unwrap();

        let before = fingerprint(&table);
        let report = recover(&table).unwrap();
        assert_eq!(report.pending_found, 0);
        assert!(!report.cleared_maintenance_flag);
        assert_eq!(fingerprint(&table), before);
        assert_eq!(visible_state(&table, 1), vec![(0, 10), (1, 11), (2, 12)]);
    }
}

/// Crash (forget) after a complete batch: recovery must roll every pending
/// tuple back and clear the stuck flag, twice-recovering identically.
#[test]
fn recovery_rolls_back_a_forgotten_transaction() {
    for n in [2, 3, 4] {
        let table = build(n);
        let txn = table.begin_maintenance().unwrap();
        txn.update_row(&row(0, 100)).unwrap();
        txn.delete_row(&row(1, 0)).unwrap();
        txn.insert(row(3, 13)).unwrap();
        std::mem::forget(txn); // crash: undo map lost, flag stuck

        assert!(table.version().snapshot().maintenance_active);
        let report = recover(&table).unwrap();
        assert!(report.cleared_maintenance_flag);
        assert_eq!(report.pending_found, 3);
        assert_eq!(report.orphans_removed, 1);
        assert_eq!(report.slots_restored, 2);
        assert_eq!(report.log_writes, 0);

        let snap = table.version().snapshot();
        assert!(!snap.maintenance_active);
        assert_eq!(snap.current_vn, 1);
        for svn in report.exact_horizon..=snap.current_vn {
            assert_eq!(visible_state(&table, svn), vec![(0, 10), (1, 11), (2, 12)]);
        }
        // nVNL restores from surviving slots exactly; no tuple ever carried
        // more than one version here, so even 2VNL is exact.
        assert_eq!(report.exact_horizon, 1, "n={n}");

        let before = fingerprint(&table);
        let again = recover(&table).unwrap();
        assert_eq!(again.pending_found, 0);
        assert_eq!(fingerprint(&table), before, "recover twice ≡ recover once");
    }
}

/// The recovery fence: 2VNL reconstruction destroys the pre-transaction
/// slot, so a live session at `currentVN − 1` — perfectly legal in 2VNL —
/// would read the *current* values where the true slot held distinct
/// pre-values. `recover` must raise the fence to its exactness horizon and
/// the session must expire on its next read instead of being lied to.
#[test]
fn two_vnl_recovery_fences_sessions_it_cannot_serve_exactly() {
    let table = build(2);
    let t = table.begin_maintenance().unwrap();
    t.update_row(&row(0, 100)).unwrap();
    t.commit().unwrap(); // VN 2

    let session = table.begin_session(); // pinned to VN 2
    let t = table.begin_maintenance().unwrap();
    t.update_row(&row(0, 200)).unwrap();
    t.commit().unwrap(); // VN 3; the session legally spans this commit
    assert_eq!(
        session.read_by_key(&row(0, 0)).unwrap().unwrap()[1],
        Value::from(100),
        "2VNL serves the spanned session from the saved pre-image"
    );

    // Crash a third transaction after it overwrote the only version slot:
    // the slot's true content `(3, update, 100)` is destroyed.
    let t = table.begin_maintenance().unwrap();
    t.update_row(&row(0, 300)).unwrap();
    std::mem::forget(t);
    let report = recover(&table).unwrap();
    assert_eq!(report.reconstructed_slots, 1);
    assert_eq!(
        report.exact_horizon, 3,
        "the reconstructed slot serves only sessions at currentVN"
    );
    assert_eq!(table.version().recovery_floor(), 3);

    // Without the fence the session would now read the reconstructed
    // pre-values — 200 where its consistent view says 100.
    assert!(matches!(
        session.read_by_key(&row(0, 0)),
        Err(wh_vnl::VnlError::SessionExpired { session_vn: 2, .. })
    ));
    assert!(matches!(
        session.scan(),
        Err(wh_vnl::VnlError::SessionExpired { .. })
    ));

    // A fresh session sees exactly the rolled-back committed state.
    let fresh = table.begin_session();
    assert_eq!(
        fresh.read_by_key(&row(0, 0)).unwrap().unwrap()[1],
        Value::from(200)
    );
    assert_eq!(fresh.scan().unwrap().len(), 3);
}

/// A deterministic PRNG so the property test is reproducible.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// Reference model: per-key version history, mirroring the table's
/// committed state only (crashed work must vanish).
#[derive(Default)]
struct Model {
    history: HashMap<i64, Vec<(u64, Option<i64>)>>,
}

impl Model {
    fn record(&mut self, vn: u64, k: i64, v: Option<i64>) {
        self.history.entry(k).or_default().push((vn, v));
    }

    fn live_at(&self, svn: u64) -> Vec<(i64, i64)> {
        let mut out: Vec<(i64, i64)> = self
            .history
            .iter()
            .filter_map(|(&k, h)| {
                h.iter()
                    .rev()
                    .find(|(vn, _)| *vn <= svn)
                    .and_then(|(_, v)| v.map(|v| (k, v)))
            })
            .collect();
        out.sort_unstable();
        out
    }

    fn live_keys(&self, svn: u64) -> Vec<i64> {
        self.live_at(svn).into_iter().map(|(k, _)| k).collect()
    }
}

/// Property: across random committed histories followed by a crashed batch
/// forgotten at a random operation boundary, recovery restores exactly the
/// last committed state over its exactness window, is idempotent, and never
/// writes a log record.
#[test]
fn recovery_property_random_histories() {
    for seed in 0..8u64 {
        for n in [2usize, 3, 5] {
            let mut rng = SplitMix64(0xc0ffee ^ seed.wrapping_mul(0x1234_5678_9abc_def1));
            let table = VnlTable::create_named("T", schema(), n).unwrap();
            let mut model = Model::default();

            let init: Vec<Vec<Value>> = (0..6i64).map(|k| row(k, k)).collect();
            table.load_initial(&init).unwrap();
            for k in 0..6i64 {
                model.record(1, k, Some(k));
            }
            let mut vn = 1u64;

            // Random committed batches.
            for _ in 0..rng.below(4) {
                vn += 1;
                let txn = table.begin_maintenance().unwrap();
                for _ in 0..1 + rng.below(5) {
                    let k = rng.below(8) as i64;
                    let live = model.live_keys(vn - 1);
                    let pending = model.live_keys(vn);
                    if pending.contains(&k) {
                        let v = rng.below(1000) as i64;
                        txn.update_row(&row(k, v)).unwrap();
                        model.record(vn, k, Some(v));
                    } else if rng.below(2) == 0 || live.contains(&k) {
                        // Absent key: insert (possibly a resurrection).
                        let v = rng.below(1000) as i64;
                        txn.insert(row(k, v)).unwrap();
                        model.record(vn, k, Some(v));
                    }
                }
                // Delete one pending-live key half the time.
                let pending = model.live_keys(vn);
                if !pending.is_empty() && rng.below(2) == 0 {
                    let k = pending[rng.below(pending.len() as u64) as usize];
                    txn.delete_row(&row(k, 0)).unwrap();
                    model.record(vn, k, None);
                }
                txn.commit().unwrap();
            }

            // One crashed batch, forgotten at a random op boundary. The
            // model records nothing: recovery must erase all of it.
            let crash_vn = vn + 1;
            let txn = table.begin_maintenance().unwrap();
            let ops = rng.below(5);
            for _ in 0..ops {
                let k = rng.below(8) as i64;
                let pending: Vec<i64> = visible_state(&table, crash_vn)
                    .into_iter()
                    .map(|(k, _)| k)
                    .collect();
                if pending.contains(&k) {
                    if rng.below(3) == 0 {
                        txn.delete_row(&row(k, 0)).unwrap();
                    } else {
                        txn.update_row(&row(k, rng.below(1000) as i64)).unwrap();
                    }
                } else {
                    txn.insert(row(k, rng.below(1000) as i64)).unwrap();
                }
            }
            std::mem::forget(txn);

            let report = recover(&table).unwrap();
            assert_eq!(report.log_writes, 0);
            let snap = table.version().snapshot();
            assert!(!snap.maintenance_active);
            assert_eq!(snap.current_vn, vn);

            let window_start = snap.current_vn.saturating_sub(n as u64 - 1).max(1);
            for svn in window_start.max(report.exact_horizon)..=snap.current_vn {
                assert_eq!(
                    visible_state(&table, svn),
                    model.live_at(svn),
                    "seed={seed} n={n} svn={svn}"
                );
            }

            let before = fingerprint(&table);
            let again = recover(&table).unwrap();
            assert_eq!(again.pending_found, 0, "seed={seed} n={n}");
            assert_eq!(fingerprint(&table), before, "seed={seed} n={n}");
        }
    }
}

/// `WarehouseTxn::abort` must finish every table's `abort_local` rollback
/// *before* `publish_abort` flips `maintenanceActive` off — so a reader that
/// observes the flag down and reads at the snapshot's `currentVN` always
/// sees the committed state, never a half-rolled-back one.
#[test]
fn warehouse_abort_never_exposes_half_published_state() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let wh = WarehouseBuilder::new()
        .unwrap()
        .table("A", schema(), 3)
        .unwrap()
        .table("B", schema(), 3)
        .unwrap()
        .build();
    for name in ["A", "B"] {
        wh.table(name)
            .unwrap()
            .load_initial(&[row(0, 10), row(1, 11)])
            .unwrap();
    }
    let committed = vec![(0i64, 10i64), (1, 11)];

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for i in 0..200i64 {
                let txn = wh.begin_maintenance().unwrap();
                txn.on("A").unwrap().update_row(&row(0, 1000 + i)).unwrap();
                txn.on("B").unwrap().delete_row(&row(1, 0)).unwrap();
                txn.on("B").unwrap().insert(row(2, i)).unwrap();
                txn.abort().unwrap();
            }
            stop.store(true, Ordering::Release);
        });

        // Reader: whenever the flag reads down, the snapshot's currentVN
        // must serve exactly the committed state on every table.
        while !stop.load(Ordering::Acquire) {
            let snap = wh.version().snapshot();
            if snap.maintenance_active {
                continue;
            }
            assert_eq!(snap.current_vn, 1, "aborts must never advance currentVN");
            for name in ["A", "B"] {
                let table = wh.table(name).unwrap();
                assert_eq!(
                    visible_state(table, snap.current_vn),
                    committed,
                    "reader saw a half-published abort on {name}"
                );
            }
        }
        writer.join().unwrap();
    });

    // Post-abort steady state: flag down, no tuple carries a pending VN.
    let snap = wh.version().snapshot();
    assert!(!snap.maintenance_active);
    for name in ["A", "B"] {
        let table = wh.table(name).unwrap();
        for (_, ext) in table.scan_raw().unwrap() {
            if let Some((vn0, _)) = table.layout().slot(&ext, 0) {
                assert!(
                    vn0 <= snap.current_vn,
                    "tuple left carrying a half-published VN {vn0}"
                );
            }
        }
        assert_eq!(visible_state(table, snap.current_vn), committed);
    }
}
