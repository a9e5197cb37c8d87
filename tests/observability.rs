//! Cross-crate observability: after an E18-shaped reader/maintenance
//! workload, one `Registry::snapshot()` must report every layer — latch
//! waits from storage, reader staleness and decision-table arms from the
//! 2VNL layer, GC reclaim latency, and the per-scheme lock-wait histograms
//! from the §6 baselines. This is the PR's acceptance gate for the metric
//! plumbing: each assertion fails if the corresponding instrumentation site
//! stops reporting.
#![allow(clippy::unwrap_used)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use warehouse_2vnl::cc::{ConcurrencyScheme, S2plStore};
use warehouse_2vnl::obs;
use warehouse_2vnl::storage::HeapFile;
use warehouse_2vnl::types::schema::daily_sales_schema;
use warehouse_2vnl::types::{Date, Value};
use warehouse_2vnl::vnl::{gc, VnlTable};

fn sales_row(city: &str, sales: i64) -> Vec<Value> {
    vec![
        Value::from(city),
        Value::from("CA"),
        Value::from("golf equip"),
        Value::from(Date::ymd(1996, 10, 14)),
        Value::from(sales),
    ]
}

/// Force a measured latch wait: one thread parks inside `HeapFile::modify`
/// (holding the page's write latch) until a reader has been seen blocking
/// on `read`, which must then land in `storage.latch.read_wait_ns`.
fn force_latch_contention() {
    let heap =
        Arc::new(HeapFile::new(16, Arc::new(warehouse_2vnl::storage::IoStats::new())).unwrap());
    let rid = heap.insert(&[7u8; 16]).unwrap();
    let holding = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        let writer = {
            let heap = Arc::clone(&heap);
            let holding = Arc::clone(&holding);
            let release = Arc::clone(&release);
            s.spawn(move || {
                heap.modify(rid, |current| {
                    holding.store(true, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Ok(current.to_vec())
                })
                .unwrap();
            })
        };
        while !holding.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let reader = {
            let heap = Arc::clone(&heap);
            s.spawn(move || {
                // Blocks on the page latch until the writer releases.
                heap.read(rid).unwrap();
            })
        };
        // Keep the latch held long enough that the reader is certainly
        // parked on it, then let everyone go.
        std::thread::sleep(Duration::from_millis(20));
        release.store(true, Ordering::SeqCst);
        writer.join().unwrap();
        reader.join().unwrap();
    });
}

#[test]
fn registry_reports_every_layer_after_workload() {
    // --- 2VNL: maintenance arms, GC reclaim, reader staleness ---
    let table = VnlTable::create(daily_sales_schema(), 2).unwrap();
    let cities: Vec<String> = (0..8).map(|i| format!("city-{i}")).collect();
    table
        .load_initial(&cities.iter().map(|c| sales_row(c, 100)).collect::<Vec<_>>())
        .unwrap();

    // A pinned session reads across a committing maintenance transaction,
    // so its staleness (currentVN − sessionVN) becomes nonzero.
    let pinned = table.begin_session();
    let txn = table.begin_maintenance().unwrap();
    for c in &cities[1..] {
        txn.update_row(&sales_row(c, 200)).unwrap(); // Table 3 row 1 arm
    }
    // cities[0] is untouched by this txn, so its delete takes Table 4 row 1.
    txn.delete_row(&sales_row(&cities[0], 0)).unwrap();
    txn.commit().unwrap();
    let rows = pinned.scan().unwrap(); // staleness = 1, still live (n = 2)
    assert_eq!(rows.len(), cities.len(), "pinned session sees its version");
    let staleness_gauge = obs::registry::global()
        .snapshot()
        .gauge("vnl.reader.staleness");
    pinned.finish();

    // With no session pinning the pre-delete version, GC reclaims.
    let report = gc::collect(&table).unwrap();
    assert_eq!(report.reclaimed, 1);

    // --- storage: a deterministic latch wait ---
    force_latch_contention();

    // --- cc baseline: a writer blocking behind a pinned S lock ---
    let store = S2plStore::populate(4, Duration::from_millis(5)).unwrap();
    let mut pin = store.begin_reader();
    pin.read(0).unwrap();
    let mut w = store.begin_writer();
    let _ = w.update(0, 1); // times out against the S lock → recorded wait
    let _ = w.abort();
    pin.finish();

    if !obs::is_enabled() {
        return; // disabled builds compile every site to a no-op
    }

    let snap = obs::registry::global().snapshot();

    // Latch-wait histogram saw the forced contention.
    assert!(
        snap.histogram("storage.latch.read_wait_ns").count() >= 1,
        "latch read-wait histogram empty"
    );
    // The pinned reader observed staleness 1 while it was live.
    assert_eq!(staleness_gauge, 1, "reader staleness gauge");
    assert!(
        snap.histogram("vnl.reader.staleness_vns").count() >= 1,
        "staleness histogram empty"
    );
    // Maintenance decision-table arms fired.
    assert!(
        snap.counter("vnl.maintenance.arm.update_saving_pre") >= (cities.len() - 1) as u64,
        "update arm counter"
    );
    assert!(
        snap.counter("vnl.maintenance.arm.mark_deleted") >= 1,
        "delete arm counter"
    );
    // GC reclaim latency recorded.
    assert!(
        snap.histogram("vnl.gc.reclaim_ns").count() >= 1,
        "gc reclaim histogram empty"
    );
    assert!(snap.counter("vnl.gc.reclaimed") >= 1);
    // Per-scheme lock waits from the S2PL baseline.
    assert!(
        snap.histogram("cc.s2pl.writer_wait_ns").count() >= 1
            || snap.counter("cc.s2pl.aborts") >= 1,
        "s2pl scheme reported neither waits nor aborts"
    );

    // The encoders cover everything the workload produced.
    let json = snap.to_json();
    assert!(json.contains("vnl.maintenance.arm.update_saving_pre"));
    let prom = snap.to_prometheus();
    assert!(prom.contains("vnl_gc_reclaimed_total"));
}
