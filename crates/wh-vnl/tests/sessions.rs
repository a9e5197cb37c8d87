//! Reader-session semantics end to end: the Example 2.1 analyst scenario,
//! Example 3.2 extraction, rewrite-vs-extraction equivalence (property
//! tested), expiration (both detectors), and a multithreaded
//! serializability stress test.
#![allow(clippy::unwrap_used)]

use std::sync::Arc;
use wh_types::schema::daily_sales_schema;
use wh_types::{Date, Row, SplitMix64, Value};
use wh_vnl::{ReadOutcome, VnlError, VnlTable};

fn row(city: &str, pl: &str, day: u8, sales: i64) -> Row {
    vec![
        Value::from(city),
        Value::from("CA"),
        Value::from(pl),
        Value::from(Date::ymd(1996, 10, day)),
        Value::from(sales),
    ]
}

fn seeded() -> VnlTable {
    let t = VnlTable::create_named("DailySales", daily_sales_schema(), 2).unwrap();
    t.load_initial(&[
        row("San Jose", "golf equip", 14, 10_000),
        row("San Jose", "racquetball", 14, 2_000),
        row("Berkeley", "racquetball", 14, 12_000),
        row("Novato", "rollerblades", 13, 8_000),
    ])
    .unwrap();
    t
}

#[test]
fn example_2_1_analyst_drilldown_is_consistent() {
    // The motivating scenario: roll-up, then drill-down, with a maintenance
    // transaction committing in between. The drill-down must add up to the
    // roll-up.
    let t = seeded();
    let session = t.begin_session();
    let rollup = session
        .query("SELECT city, state, SUM(total_sales) FROM DailySales GROUP BY city, state ORDER BY city")
        .unwrap();
    let san_jose_total = rollup
        .rows
        .iter()
        .find(|r| r[0] == Value::from("San Jose"))
        .unwrap()[2]
        .clone();

    // Maintenance lands between the analyst's two queries.
    let txn = t.begin_maintenance().unwrap();
    txn.update_row(&row("San Jose", "golf equip", 14, 99_999))
        .unwrap();
    txn.insert(row("San Jose", "swimming", 14, 5)).unwrap();
    txn.commit().unwrap();

    let drilldown = session
        .query(
            "SELECT product_line, SUM(total_sales) FROM DailySales \
             WHERE city = 'San Jose' AND state = 'CA' GROUP BY product_line",
        )
        .unwrap();
    let drilldown_total: i64 = drilldown.rows.iter().map(|r| r[1].as_int().unwrap()).sum();
    assert_eq!(Value::from(drilldown_total), san_jose_total);
    session.finish();

    // A fresh session sees the new state, where the sums also agree.
    let s2 = t.begin_session();
    let drill2 = s2
        .query("SELECT SUM(total_sales) FROM DailySales WHERE city = 'San Jose'")
        .unwrap();
    assert_eq!(drill2.rows[0][0], Value::from(99_999 + 2_000 + 5));
    s2.finish();
}

#[test]
fn example_4_1_rewritten_query_end_to_end() {
    // Run the paper's Example 4.1 query through the actual rewrite path
    // against the extended physical table.
    let t = seeded();
    let session = t.begin_session();
    let txn = t.begin_maintenance().unwrap();
    txn.update_row(&row("Berkeley", "racquetball", 14, 50_000))
        .unwrap();
    txn.commit().unwrap();
    let via_rewrite = session
        .query_via_rewrite(
            "SELECT city, state, SUM(total_sales) FROM DailySales GROUP BY city, state ORDER BY city",
        )
        .unwrap();
    let via_extraction = session
        .query(
            "SELECT city, state, SUM(total_sales) FROM DailySales GROUP BY city, state ORDER BY city",
        )
        .unwrap();
    assert_eq!(via_rewrite.rows, via_extraction.rows);
    // And the session still sees the OLD Berkeley value.
    let berkeley = via_rewrite
        .rows
        .iter()
        .find(|r| r[0] == Value::from("Berkeley"))
        .unwrap();
    assert_eq!(berkeley[2], Value::from(12_000));
    session.finish();
}

#[test]
fn global_expiration_check_detects_second_overlap() {
    let t = seeded();
    let session = t.begin_session(); // VN 1
    assert_eq!(session.status(), ReadOutcome::Live);
    // First overlapping maintenance txn: still live.
    let txn = t.begin_maintenance().unwrap();
    txn.update_row(&row("Novato", "rollerblades", 13, 1))
        .unwrap();
    assert_eq!(session.status(), ReadOutcome::Live);
    txn.commit().unwrap();
    assert_eq!(session.status(), ReadOutcome::Live);
    // Second maintenance txn begins: the pessimistic check expires the
    // session even before any tuple is touched twice.
    let txn = t.begin_maintenance().unwrap();
    assert_eq!(session.status(), ReadOutcome::Expired);
    assert!(matches!(
        session.assert_live(),
        Err(VnlError::SessionExpired { session_vn: 1, .. })
    ));
    txn.abort().unwrap();
    session.finish();
}

#[test]
fn per_tuple_expiration_detector_fires_on_double_touch() {
    let t = seeded();
    let session = t.begin_session(); // VN 1
    for sales in [1, 2] {
        let txn = t.begin_maintenance().unwrap();
        txn.update_row(&row("Novato", "rollerblades", 13, sales))
            .unwrap();
        txn.commit().unwrap();
    }
    // Novato has now been modified by two maintenance txns since VN 1:
    // scanning hits the per-tuple detector (Table 1 case 3).
    assert!(matches!(
        session.scan(),
        Err(VnlError::SessionExpired { .. })
    ));
    assert!(t.expired_session_count() > 0);
    session.finish();
}

#[test]
fn untouched_tuples_remain_readable_even_when_technically_expired() {
    // The per-tuple detector is optimistic: if the session's tuples were
    // never touched twice, reads still succeed (the global check would be
    // pessimistic about this).
    let t = seeded();
    let session = t.begin_session(); // VN 1
    for sales in [1, 2] {
        let txn = t.begin_maintenance().unwrap();
        txn.update_row(&row("Novato", "rollerblades", 13, sales))
            .unwrap();
        txn.commit().unwrap();
    }
    // Point lookups of untouched keys still work...
    let r = session
        .read_by_key(&row("San Jose", "golf equip", 14, 0))
        .unwrap();
    assert_eq!(r.unwrap()[4], Value::from(10_000));
    // ...but the global check says expired (pessimism).
    assert_eq!(session.status(), ReadOutcome::Expired);
    session.finish();
}

#[test]
fn rewrite_equals_extraction_on_random_histories() {
    // Property: for any batch history and any live session, the §4 SQL
    // rewrite path and the programmatic Table-1 extraction agree.
    let cities = ["San Jose", "Berkeley", "Novato", "Oakland"];
    let mut rng = SplitMix64::seed_from_u64(0x5E55_0001);
    for _ in 0..64 {
        let ops: Vec<(usize, usize, i64)> = (0..rng.range_inclusive_u64(1, 39))
            .map(|_| (rng.index(4), rng.index(3), rng.range_i64(0, 10_000)))
            .collect();
        let batches = rng.range_inclusive_u64(1, 3) as usize;
        let t = VnlTable::create_named("DailySales", daily_sales_schema(), 2).unwrap();
        t.load_initial(&[
            row("San Jose", "golf equip", 14, 100),
            row("Berkeley", "golf equip", 14, 200),
        ])
        .unwrap();
        let per_batch = ops.len().div_ceil(batches);
        for chunk in ops.chunks(per_batch.max(1)) {
            let txn = t.begin_maintenance().unwrap();
            for &(c, op, v) in chunk {
                let r = row(cities[c], "golf equip", 14, v);
                match op {
                    0 => {
                        let _ = txn.insert(r);
                    }
                    1 => {
                        let _ = txn.update_row(&r);
                    }
                    _ => {
                        let _ = txn.delete_row(&r);
                    }
                }
            }
            txn.commit().unwrap();
        }
        let session = t.begin_session();
        let sql = "SELECT city, SUM(total_sales) FROM DailySales GROUP BY city ORDER BY city";
        let a = session.query(sql).unwrap();
        let b = session.query_via_rewrite(sql).unwrap();
        assert_eq!(a.rows, b.rows);
        session.finish();
    }
}

#[test]
fn concurrent_readers_see_consistent_generations() {
    // Serializability stress (E11): a maintenance thread bumps every city's
    // sales to a new generation while reader threads continuously check the
    // roll-up / drill-down invariant. Readers renew their session when told
    // they expired.
    let t = Arc::new({
        let t = VnlTable::create_named("DailySales", daily_sales_schema(), 2).unwrap();
        let rows: Vec<Row> = (0..8)
            .flat_map(|c| {
                (0..4).map(move |p| {
                    vec![
                        Value::from(format!("city{c}")),
                        Value::from("CA"),
                        Value::from(format!("pl{p}")),
                        Value::from(Date::ymd(1996, 10, 14)),
                        Value::from(0),
                    ]
                })
            })
            .collect();
        t.load_initial(&rows).unwrap();
        t
    });

    std::thread::scope(|s| {
        // Maintenance thread: 6 generations; generation g sets every tuple
        // to exactly g (so any consistent snapshot is uniform).
        {
            let t = Arc::clone(&t);
            s.spawn(move || {
                for g in 1..=6i64 {
                    let txn = t.begin_maintenance().unwrap();
                    txn.execute_sql(
                        &format!("UPDATE DailySales SET total_sales = {g}"),
                        &wh_sql::Params::new(),
                    )
                    .unwrap();
                    txn.commit().unwrap();
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
            });
        }
        // Reader threads: the retry policy owns the renew-on-expiration
        // loop (each attempt is a fresh session at the then-current VN).
        for seed in 0..4u64 {
            let t = Arc::clone(&t);
            s.spawn(move || {
                let retry = wh_vnl::RetryPolicy::default()
                    .with_max_attempts(64)
                    .with_seed(seed);
                for _ in 0..30 {
                    let rows = retry.scan(&t).expect("retry budget covers this workload");
                    // Consistency: all 32 tuples carry one value.
                    let first = rows[0][4].as_int().unwrap();
                    for r in &rows {
                        assert_eq!(r[4].as_int().unwrap(), first, "torn snapshot across tuples");
                    }
                }
            });
        }
    });
    // Final state: generation 6 everywhere.
    let s = t.begin_session();
    let rows = s.scan().unwrap();
    assert!(rows.iter().all(|r| r[4] == Value::from(6)));
    s.finish();
}

#[test]
fn between_and_in_work_through_the_rewrite() {
    // Typical warehouse filters: date ranges and dimension lists. The
    // rewrite must transform updatable references inside them and leave the
    // rest alone.
    let t = seeded();
    let txn = t.begin_maintenance().unwrap();
    txn.update_row(&row("San Jose", "golf equip", 14, 50_000))
        .unwrap();
    txn.commit().unwrap();
    let session = t.begin_session();
    for sql in [
        "SELECT city, SUM(total_sales) FROM DailySales \
         WHERE date BETWEEN DATE '1996-10-13' AND DATE '1996-10-14' \
         GROUP BY city ORDER BY city",
        "SELECT SUM(total_sales) FROM DailySales WHERE city IN ('San Jose', 'Novato')",
        "SELECT COUNT(*) FROM DailySales WHERE total_sales BETWEEN 1000 AND 20000",
        "SELECT city FROM DailySales WHERE total_sales IN (12000, 8000) ORDER BY city",
    ] {
        let a = session.query(sql).unwrap();
        let b = session.query_via_rewrite(sql).unwrap();
        assert_eq!(a.rows, b.rows, "diverged for {sql}");
    }
    session.finish();
}

#[test]
fn point_lookup_respects_session_version() {
    let t = seeded();
    let s1 = t.begin_session();
    let txn = t.begin_maintenance().unwrap();
    txn.delete_row(&row("Novato", "rollerblades", 13, 0))
        .unwrap();
    txn.insert(row("Fresno", "golf equip", 14, 7)).unwrap();
    txn.commit().unwrap();
    // Old session: Novato exists, Fresno does not.
    assert!(s1
        .read_by_key(&row("Novato", "rollerblades", 13, 0))
        .unwrap()
        .is_some());
    assert!(s1
        .read_by_key(&row("Fresno", "golf equip", 14, 0))
        .unwrap()
        .is_none());
    // New session: the reverse.
    let s2 = t.begin_session();
    assert!(s2
        .read_by_key(&row("Novato", "rollerblades", 13, 0))
        .unwrap()
        .is_none());
    assert!(s2
        .read_by_key(&row("Fresno", "golf equip", 14, 0))
        .unwrap()
        .is_some());
    s1.finish();
    s2.finish();
}

#[test]
fn reader_sessions_are_read_only() {
    let t = seeded();
    let s = t.begin_session();
    assert!(matches!(
        s.query("DELETE FROM DailySales"),
        Err(VnlError::Sql(_))
    ));
    assert!(matches!(
        s.query("SELECT * FROM OtherTable"),
        Err(VnlError::Sql(wh_sql::SqlError::NoSuchTable(_)))
    ));
    s.finish();
}

#[test]
fn commit_when_quiescent_waits_for_readers() {
    let t = Arc::new(seeded());
    let session = t.begin_session();
    let t2 = Arc::clone(&t);
    let handle = std::thread::spawn(move || {
        let txn = t2.begin_maintenance().unwrap();
        txn.update_row(&row("San Jose", "golf equip", 14, 1))
            .unwrap();
        txn.commit_when_quiescent(std::time::Duration::from_millis(5))
            .unwrap()
    });
    std::thread::sleep(std::time::Duration::from_millis(50));
    // Still uncommitted: the session is holding it back.
    assert!(t.version().snapshot().maintenance_active);
    session.finish();
    let polls = handle.join().unwrap();
    assert!(polls > 0, "the writer should have waited");
    assert_eq!(t.version().snapshot().current_vn, 2);
}
