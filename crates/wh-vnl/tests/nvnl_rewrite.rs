//! §5 × §4: the generalized nVNL query rewrite must agree with programmatic
//! slot extraction for sessions overlapping up to n − 1 maintenance
//! transactions, on arbitrary histories.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use wh_types::schema::daily_sales_schema;
use wh_types::{Date, Row, SplitMix64, Value};
use wh_vnl::VnlTable;

fn row(city: &str, v: i64) -> Row {
    vec![
        Value::from(city),
        Value::from("CA"),
        Value::from("golf equip"),
        Value::from(Date::ymd(1996, 10, 14)),
        Value::from(v),
    ]
}

const CITIES: [&str; 5] = ["A", "B", "C", "D", "E"];

/// Apply one batch of (city, op, value) tuples, ignoring invalid
/// transitions (proptest generates arbitrary op sequences).
fn apply_batch(table: &VnlTable, batch: &[(usize, usize, i64)]) {
    let txn = table.begin_maintenance().unwrap();
    for &(c, op, v) in batch {
        let r = row(CITIES[c], v);
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

fn check_equivalence(n: usize, batches: Vec<Vec<(usize, usize, i64)>>) {
    let table = VnlTable::create_named("DailySales", daily_sales_schema(), n).unwrap();
    table.load_initial(&[row("A", 10), row("B", 20)]).unwrap();
    // First batch commits before the session begins.
    let mut iter = batches.into_iter();
    if let Some(first) = iter.next() {
        apply_batch(&table, &first);
    }
    let session = table.begin_session();
    // Up to n - 1 further batches: the session stays live throughout.
    for batch in iter.take(n - 1) {
        apply_batch(&table, &batch);
        let sql =
            "SELECT city, SUM(total_sales), COUNT(*) FROM DailySales GROUP BY city ORDER BY city";
        let a = session.query(sql).expect("extraction path");
        let b = session.query_via_rewrite(sql).expect("rewrite path");
        assert_eq!(a.rows, b.rows, "paths diverged (n={n})");
    }
    session.finish();
}

fn random_batches(rng: &mut SplitMix64, max_batches: u64) -> Vec<Vec<(usize, usize, i64)>> {
    (0..rng.range_inclusive_u64(1, max_batches))
        .map(|_| {
            (0..rng.range_inclusive_u64(1, 11))
                .map(|_| (rng.index(5), rng.index(3), rng.range_i64(0, 1000)))
                .collect()
        })
        .collect()
}

#[test]
fn rewrite_matches_extraction_3vnl() {
    let mut rng = SplitMix64::seed_from_u64(0x3711_0001);
    for _ in 0..48 {
        check_equivalence(3, random_batches(&mut rng, 2));
    }
}

#[test]
fn rewrite_matches_extraction_4vnl() {
    let mut rng = SplitMix64::seed_from_u64(0x3711_0002);
    for _ in 0..48 {
        check_equivalence(4, random_batches(&mut rng, 3));
    }
}

#[test]
fn deterministic_4vnl_multi_overlap() {
    // A hand-built worst case: one tuple touched by every overlapping
    // transaction, exercising every CASE branch of the 4VNL rewrite.
    let table = VnlTable::create_named("DailySales", daily_sales_schema(), 4).unwrap();
    table.load_initial(&[row("A", 100), row("B", 7)]).unwrap();
    let session = table.begin_session(); // VN 1
    for v in [200, 300, 400] {
        let txn = table.begin_maintenance().unwrap();
        txn.update_row(&row("A", v)).unwrap();
        txn.commit().unwrap();
        let sql = "SELECT city, SUM(total_sales) FROM DailySales GROUP BY city ORDER BY city";
        let a = session.query(sql).unwrap();
        let b = session.query_via_rewrite(sql).unwrap();
        assert_eq!(a.rows, b.rows);
        // The pinned session always answers with the VN-1 value.
        assert_eq!(a.rows[0][1], Value::from(100));
    }
    session.finish();
    // Freshest state visible to a new session.
    let s2 = table.begin_session();
    let r = s2
        .query_via_rewrite("SELECT SUM(total_sales) FROM DailySales WHERE city = 'A'")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::from(400));
    s2.finish();
}

#[test]
fn rewrite_detects_expiration_via_global_check() {
    // 3VNL session overlapping 3 maintenance txns: the rewrite path must
    // refuse to hand back (possibly wrong) results.
    let table = VnlTable::create_named("DailySales", daily_sales_schema(), 3).unwrap();
    table.load_initial(&[row("A", 1)]).unwrap();
    let session = table.begin_session();
    for v in [2, 3, 4] {
        let txn = table.begin_maintenance().unwrap();
        txn.update_row(&row("A", v)).unwrap();
        txn.commit().unwrap();
    }
    assert!(matches!(
        session.query_via_rewrite("SELECT SUM(total_sales) FROM DailySales"),
        Err(wh_vnl::VnlError::SessionExpired { .. })
    ));
    session.finish();
}
