//! The resilience layer end to end: leases racing GC, retried queries
//! matching an unexpired single-version run (property tested), pacer
//! policies under live maintenance, and the adaptive window interacting
//! with real sessions.
#![allow(clippy::unwrap_used)]

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use wh_types::{Column, DataType, Row, Schema, SplitMix64, Value};
use wh_vnl::{gc::Collector, MaintenancePacer, PacerPolicy, RetryPolicy, VnlError, VnlTable};

fn kv_schema() -> Schema {
    Schema::with_key_names(
        vec![
            Column::new("key", DataType::Int64),
            Column::updatable("value", DataType::Int64),
        ],
        &["key"],
    )
    .unwrap()
}

fn kv_table(keys: i64, n: usize) -> VnlTable {
    let t = VnlTable::create_named("kv", kv_schema(), n).unwrap();
    let rows: Vec<Row> = (0..keys)
        .map(|k| vec![Value::from(k), Value::from(0)])
        .collect();
    t.load_initial(&rows).unwrap();
    t
}

#[test]
fn enriched_expiration_error_reports_current_vn_and_table() {
    let t = kv_table(4, 2);
    let session = t.begin_session(); // VN 1
    for v in [1, 2] {
        let txn = t.begin_maintenance().unwrap();
        txn.execute_sql(
            &format!("UPDATE kv SET value = {v}"),
            &wh_sql::Params::new(),
        )
        .unwrap();
        txn.commit().unwrap();
    }
    let err = session.scan().unwrap_err();
    match err {
        VnlError::SessionExpired {
            session_vn,
            current_vn,
            table,
        } => {
            assert_eq!(session_vn, 1);
            assert_eq!(current_vn, 3);
            assert_eq!(table.as_deref(), Some("kv"));
        }
        other => panic!("expected SessionExpired, got {other}"),
    }
    session.finish();
}

/// The GC-race satellite: a lease renewed at the same instant the collector
/// advances the horizon must either succeed or expire cleanly — never read
/// a reclaimed slot (which would surface as a wrong row count or a storage
/// error, not `SessionExpired`).
#[test]
fn lease_renewal_races_gc_horizon_advance() {
    let keys = 16i64;
    let t = Arc::new(kv_table(keys, 2));
    // Aggressive GC so horizon advances constantly while readers renew.
    let collector = Collector::spawn(Arc::clone(&t), Duration::from_micros(200));

    std::thread::scope(|s| {
        // Maintenance churn: a delete committed in one txn and the
        // re-insert in the next, so each pair leaves a logically-deleted
        // tuple for the collector to reclaim in between. (Delete+insert in
        // one txn would net to an update — no GC victim.)
        s.spawn(|| {
            for round in 0..60i64 {
                let txn = t.begin_maintenance().unwrap();
                let key = (round / 2) % keys;
                if round % 2 == 0 {
                    txn.delete_row(&vec![Value::from(key), Value::Null])
                        .unwrap();
                } else {
                    txn.insert(vec![Value::from(key), Value::from(round)])
                        .unwrap();
                }
                txn.commit().unwrap();
                std::thread::sleep(Duration::from_micros(300));
            }
        });
        // Renewing leased readers racing the collector. Fixed iteration
        // counts on every thread: no thread waits on another's progress, so
        // the test terminates even when parallel test binaries contend for
        // cores.
        for seed in 0..3u64 {
            let t = Arc::clone(&t);
            s.spawn(move || {
                let mut rng = SplitMix64::seed_from_u64(seed);
                for _ in 0..40 {
                    let session = t.begin_leased_session(Duration::from_millis(2));
                    // Interleave reads and renewals; every outcome must be
                    // either a clean result or a clean expiration.
                    for _ in 0..4 {
                        match session.scan() {
                            // At any committed VN either every key is live
                            // or exactly one delete awaits its re-insert.
                            Ok(rows) => assert!(
                                rows.len() == keys as usize || rows.len() == keys as usize - 1,
                                "impossible visible count {} at a pinned VN",
                                rows.len()
                            ),
                            Err(VnlError::SessionExpired { .. }) => break,
                            Err(e) => panic!("reader hit a non-expiration error: {e}"),
                        }
                        match session.renew_lease(Duration::from_millis(2)) {
                            Ok(()) => {}
                            Err(VnlError::SessionExpired { .. }) => break,
                            Err(e) => panic!("renewal hit a non-expiration error: {e}"),
                        }
                        if rng.chance(1, 4) {
                            std::thread::sleep(Duration::from_micros(100));
                        }
                    }
                    session.finish();
                }
            });
        }
    });
    let reclaimed = collector.stop();
    assert!(reclaimed > 0, "the race never materialized: GC idle");
    // Ground truth after the dust settles: all keys present.
    let session = t.begin_session();
    assert_eq!(session.scan().unwrap().len(), keys as usize);
    session.finish();
}

/// The property-test satellite: under concurrent maintenance, a retried
/// query must return a result identical to some unexpired single-version
/// run — every committed version's expected aggregate is precomputable
/// here because each maintenance txn `g` sets all values to `g`.
#[test]
fn retried_queries_match_an_unexpired_single_version_run() {
    let keys = 24i64;
    for seed in 0..4u64 {
        let t = Arc::new(kv_table(keys, 2));
        let committed: Arc<Mutex<BTreeSet<i64>>> = Arc::new(Mutex::new(BTreeSet::from([0])));
        std::thread::scope(|s| {
            s.spawn(|| {
                for g in 1..=8i64 {
                    let txn = t.begin_maintenance().unwrap();
                    txn.execute_sql(
                        &format!("UPDATE kv SET value = {g}"),
                        &wh_sql::Params::new(),
                    )
                    .unwrap();
                    // Published value set grows before readers can see `g`.
                    committed.lock().unwrap().insert(g);
                    txn.commit().unwrap();
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
            // Fixed query counts so no reader waits on maintenance progress
            // (a sibling-driven `done` flag can livelock the whole test
            // binary when parallel tests oversubscribe the cores).
            for reader in 0..3u64 {
                let t = Arc::clone(&t);
                let committed = Arc::clone(&committed);
                s.spawn(move || {
                    let retry = RetryPolicy::default()
                        .with_max_attempts(32)
                        .with_seed(seed * 101 + reader);
                    for _ in 0..16 {
                        let res = retry
                            .query(&t, "SELECT COUNT(*), MIN(value), MAX(value) FROM kv")
                            .expect("32 attempts cover an 8-commit run");
                        let row = &res.rows[0];
                        assert_eq!(row[0], Value::from(keys), "row count off");
                        assert_eq!(row[1], row[2], "mixed-version rows in one result");
                        let v = row[1].as_int().unwrap();
                        assert!(
                            committed.lock().unwrap().contains(&v),
                            "value {v} was never a committed version's state"
                        );
                    }
                });
            }
        });
    }
}

/// Statement-level retry through the SQL path: a query that would die with
/// the session recovers transparently at a fresh VN.
#[test]
fn sql_query_retries_after_forced_expiration() {
    let t = kv_table(8, 2);
    // Use a raw session to verify the premise (it expires)...
    let stale = t.begin_session();
    for v in [5, 6] {
        let txn = t.begin_maintenance().unwrap();
        txn.execute_sql(
            &format!("UPDATE kv SET value = {v}"),
            &wh_sql::Params::new(),
        )
        .unwrap();
        txn.commit().unwrap();
    }
    assert!(matches!(
        stale.query("SELECT SUM(value) FROM kv"),
        Err(VnlError::SessionExpired { .. })
    ));
    stale.finish();
    // ...then the policy reads the settled state.
    let res = RetryPolicy::default()
        .query(&t, "SELECT SUM(value) FROM kv")
        .unwrap();
    assert_eq!(res.rows[0][0], Value::from(48));
}

/// Pacing + adaptive window cooperating with real leased readers: a
/// `BoundedDelay` pacer lets a short-lived lease finish, and widening the
/// effective window (within physical slots) readmits a trailing session.
#[test]
fn pacer_and_adaptive_window_cooperate_with_leased_readers() {
    let t = kv_table(8, 4);
    t.set_effective_n(2);
    let leased = t.begin_leased_session(Duration::from_millis(500)); // VN 1
    let txn = t.begin_maintenance().unwrap();
    txn.commit().unwrap(); // VN 2

    // VN 3 would strand the lease under n_eff = 2; the pacer waits while a
    // helper thread finishes the reader's work and releases the lease.
    let txn = t.begin_maintenance().unwrap();
    std::thread::scope(|s| {
        s.spawn(|| {
            std::thread::sleep(Duration::from_millis(2));
            assert_eq!(leased.scan().unwrap().len(), 8);
            leased.finish();
        });
        let report = MaintenancePacer::new(PacerPolicy::Never)
            .with_poll(Duration::from_micros(200))
            .commit(txn)
            .unwrap();
        assert_eq!(report.at_risk_before, 1);
        assert_eq!(report.expired_through, 0);
    });
    // A session left behind by two commits is readmitted when the window
    // grows — the physical slots (n = 4) still hold its versions.
    let trailing = t.begin_session(); // VN 3
    for _ in 0..2 {
        let txn = t.begin_maintenance().unwrap();
        txn.commit().unwrap();
    }
    assert!(trailing.assert_live().is_err(), "n_eff = 2 expires it");
    t.set_effective_n(4);
    assert!(trailing.assert_live().is_ok(), "n_eff = 4 readmits it");
    assert_eq!(trailing.scan().unwrap().len(), 8);
    trailing.finish();
}

/// `ExpireOldest` is observable from the reader side: the revoked session
/// fails its next renewal with the enriched expiration error.
#[test]
fn revoked_lease_surfaces_on_renewal() {
    let t = kv_table(4, 2);
    let leased = t.begin_leased_session(Duration::from_secs(5)); // VN 1
    let txn = t.begin_maintenance().unwrap();
    txn.commit().unwrap(); // VN 2
    let txn = t.begin_maintenance().unwrap(); // publishing VN 3 strands it
    let report = MaintenancePacer::new(PacerPolicy::ExpireOldest)
        .commit(txn)
        .unwrap();
    assert_eq!(report.revoked, 1);
    assert!(leased.lease_revoked());
    assert!(matches!(
        leased.renew_lease(Duration::from_secs(5)),
        Err(VnlError::SessionExpired { .. })
    ));
    leased.finish();
}
