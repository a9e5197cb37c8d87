//! §4.3: secondary indexes under 2VNL. Indexes on non-updatable attributes
//! (the common warehouse case: group-by/dimension columns) must keep
//! working unchanged through maintenance, GC, resurrection, and rollback —
//! and must reject updatable attributes.
#![allow(clippy::unwrap_used)]

use wh_sql::Params;
use wh_storage::StorageError;
use wh_types::schema::daily_sales_schema;
use wh_types::{Date, Row, Value};
use wh_vnl::{gc, VnlError, VnlTable};

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
fn index_on_updatable_attribute_rejected() {
    let t = seeded();
    assert_eq!(
        t.create_index("bad", &["total_sales"]).unwrap_err(),
        VnlError::IndexOnUpdatable("total_sales".into())
    );
    // Mixed lists are rejected too.
    assert!(matches!(
        t.create_index("bad", &["city", "total_sales"]),
        Err(VnlError::IndexOnUpdatable(_))
    ));
}

#[test]
fn duplicate_and_missing_index_names() {
    let t = seeded();
    t.create_index("by_city", &["city"]).unwrap();
    assert_eq!(
        t.create_index("by_city", &["state"]).unwrap_err(),
        VnlError::DuplicateIndex("by_city".into())
    );
    let s = t.begin_session();
    assert!(matches!(
        s.lookup_eq("nope", &[Value::from("x")]),
        Err(VnlError::NoSuchIndex(_))
    ));
    s.finish();
}

#[test]
fn backfilled_index_agrees_with_scan() {
    let t = seeded();
    t.create_index("by_city", &["city"]).unwrap();
    let s = t.begin_session();
    let via_index = s.lookup_eq("by_city", &[Value::from("San Jose")]).unwrap();
    assert_eq!(via_index.len(), 2);
    let via_scan: Vec<Row> = s
        .scan()
        .unwrap()
        .into_iter()
        .filter(|r| r[0] == Value::from("San Jose"))
        .collect();
    let norm = |mut v: Vec<Row>| {
        v.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        v
    };
    assert_eq!(norm(via_index), norm(via_scan));
    s.finish();
}

#[test]
fn range_lookup_on_date() {
    let t = seeded();
    t.create_index("by_date", &["date"]).unwrap();
    let s = t.begin_session();
    let day13 = s
        .lookup_range(
            "by_date",
            None,
            Some(&[Value::from(Date::ymd(1996, 10, 13))]),
        )
        .unwrap();
    assert_eq!(day13.len(), 1);
    assert_eq!(day13[0][0], Value::from("Novato"));
    let all = s.lookup_range("by_date", None, None).unwrap();
    assert_eq!(all.len(), 4);
    s.finish();
}

#[test]
fn inverted_range_lookup_is_empty() {
    let t = seeded();
    t.create_index("by_date", &["date"]).unwrap();
    let s = t.begin_session();
    let (d13, d14) = (
        [Value::from(Date::ymd(1996, 10, 13))],
        [Value::from(Date::ymd(1996, 10, 14))],
    );
    assert_eq!(
        s.lookup_range("by_date", Some(&d14), Some(&d13)).unwrap(),
        Vec::<Row>::new()
    );
    assert_eq!(
        s.lookup_range("by_date", Some(&d13), Some(&d14))
            .unwrap()
            .len(),
        4
    );
    s.finish();
}

#[test]
fn a_corrupt_slot_0_stamp_fails_point_reads_with_a_storage_error() {
    // A live tuple whose newest version number is NULL has no Table 1
    // answer: a key read and an index lookup that reach it report the
    // heap as corrupt instead of guessing.
    let t = seeded();
    t.create_index("by_city", &["city"]).unwrap();
    let l = t.layout();
    let (rid, mut ext) = t
        .scan_raw()
        .unwrap()
        .into_iter()
        .find(|(_, ext)| ext[l.base_col(0)] == Value::from("Novato"))
        .unwrap();
    ext[l.vn_col(0)] = Value::Null;
    let record = t.storage().codec().encode(&ext).unwrap();
    t.storage().heap().update_in_place(rid, &record).unwrap();
    let s = t.begin_session();
    let corrupt = |e: VnlError| matches!(e, VnlError::Storage(StorageError::Corrupt(_)));
    let novato = row("Novato", "rollerblades", 13, 0);
    assert!(corrupt(s.read_by_key(&novato).unwrap_err()));
    assert!(corrupt(
        s.lookup_eq("by_city", &[Value::from("Novato")])
            .unwrap_err()
    ));
    // The tuples around it still read.
    let berkeley = row("Berkeley", "racquetball", 14, 0);
    assert!(s.read_by_key(&berkeley).unwrap().is_some());
    assert_eq!(
        s.lookup_eq("by_city", &[Value::from("Berkeley")])
            .unwrap()
            .len(),
        1
    );
    s.finish();
}

#[test]
fn index_respects_session_versions() {
    let t = seeded();
    t.create_index("by_city", &["city"]).unwrap();
    let old = t.begin_session(); // VN 1
    let txn = t.begin_maintenance().unwrap();
    txn.insert(row("San Jose", "swimming", 15, 500)).unwrap();
    txn.delete_row(&row("San Jose", "racquetball", 14, 0))
        .unwrap();
    txn.update_row(&row("San Jose", "golf equip", 14, 99_999))
        .unwrap();
    txn.commit().unwrap();
    // Old session: still the two original San Jose rows, old values.
    let rows = old
        .lookup_eq("by_city", &[Value::from("San Jose")])
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert!(rows.iter().any(|r| r[4] == Value::from(10_000)));
    assert!(rows.iter().any(|r| r[4] == Value::from(2_000)));
    old.finish();
    // New session: swimming appeared, racquetball gone, golf updated.
    let new = t.begin_session();
    let rows = new
        .lookup_eq("by_city", &[Value::from("San Jose")])
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert!(rows.iter().any(|r| r[4] == Value::from(99_999)));
    assert!(rows.iter().any(|r| r[2] == Value::from("swimming")));
    new.finish();
}

#[test]
fn index_tracks_physical_insert_delete_and_gc() {
    let t = seeded();
    t.create_index("by_city", &["city"]).unwrap();
    // Physical insert shows up immediately for the maintenance txn's future
    // readers; logical delete keeps the entry (the tuple is physically
    // there) until GC removes both.
    let txn = t.begin_maintenance().unwrap();
    txn.insert(row("Fresno", "camping", 15, 42)).unwrap();
    txn.delete_row(&row("Novato", "rollerblades", 13, 0))
        .unwrap();
    txn.commit().unwrap();
    let s = t.begin_session();
    assert_eq!(
        s.lookup_eq("by_city", &[Value::from("Fresno")])
            .unwrap()
            .len(),
        1
    );
    // Deleted tuple: index still holds the RID, but visibility filters it.
    assert_eq!(
        s.lookup_eq("by_city", &[Value::from("Novato")])
            .unwrap()
            .len(),
        0
    );
    s.finish();
    gc::collect(&t).unwrap();
    let s = t.begin_session();
    assert_eq!(
        s.lookup_eq("by_city", &[Value::from("Novato")])
            .unwrap()
            .len(),
        0
    );
    s.finish();
}

#[test]
fn index_survives_insert_then_delete_same_txn() {
    let t = seeded();
    t.create_index("by_city", &["city"]).unwrap();
    let txn = t.begin_maintenance().unwrap();
    txn.insert(row("Fresno", "camping", 15, 42)).unwrap();
    txn.delete_row(&row("Fresno", "camping", 15, 0)).unwrap(); // physical delete
    txn.commit().unwrap();
    let s = t.begin_session();
    assert_eq!(
        s.lookup_eq("by_city", &[Value::from("Fresno")])
            .unwrap()
            .len(),
        0
    );
    s.finish();
}

#[test]
fn index_survives_rollback() {
    let t = seeded();
    t.create_index("by_city", &["city"]).unwrap();
    let txn = t.begin_maintenance().unwrap();
    txn.insert(row("Fresno", "camping", 15, 42)).unwrap();
    txn.update_row(&row("San Jose", "golf equip", 14, 1))
        .unwrap();
    txn.abort().unwrap();
    let s = t.begin_session();
    assert_eq!(
        s.lookup_eq("by_city", &[Value::from("Fresno")])
            .unwrap()
            .len(),
        0
    );
    let sj = s.lookup_eq("by_city", &[Value::from("San Jose")]).unwrap();
    assert!(sj.iter().any(|r| r[4] == Value::from(10_000)));
    s.finish();
}

#[test]
fn index_consistent_with_scan_through_busy_history() {
    // Churn the table through several maintenance rounds, checking index
    // results equal scan-filter results for every city each round.
    let t = seeded();
    t.create_index("by_city", &["city"]).unwrap();
    let cities = ["San Jose", "Berkeley", "Novato", "Fresno"];
    for round in 0..5i64 {
        let txn = t.begin_maintenance().unwrap();
        txn.execute_sql(
            &format!("UPDATE DailySales SET total_sales = total_sales + {round}"),
            &Params::new(),
        )
        .unwrap();
        if round % 2 == 0 {
            let _ = txn.insert(row("Fresno", "camping", (10 + round) as u8, round));
        }
        txn.commit().unwrap();
        gc::collect(&t).unwrap();
        let s = t.begin_session();
        for city in cities {
            let via_index = s.lookup_eq("by_city", &[Value::from(city)]).unwrap().len();
            let via_scan = s
                .scan()
                .unwrap()
                .iter()
                .filter(|r| r[0] == Value::from(city))
                .count();
            assert_eq!(via_index, via_scan, "round {round}, city {city}");
        }
        s.finish();
    }
}

#[test]
fn composite_index() {
    let t = seeded();
    t.create_index("by_city_pl", &["city", "product_line"])
        .unwrap();
    let s = t.begin_session();
    let hit = s
        .lookup_eq(
            "by_city_pl",
            &[Value::from("San Jose"), Value::from("racquetball")],
        )
        .unwrap();
    assert_eq!(hit.len(), 1);
    assert_eq!(hit[0][4], Value::from(2_000));
    s.finish();
}
