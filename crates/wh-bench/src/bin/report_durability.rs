//! Experiment E23 — the cost of durability: fuzzy checkpoints, buffer-pool
//! hit rates under capacity pressure, restart-recovery time, and the gate
//! that matters for every other experiment — a fully-resident durable
//! table must scan at in-memory speed.
//!
//! The paper's §7 recovery argument makes the durable tier log-free:
//! checkpoint cost is *only* dirty-page writes (no log force on the commit
//! path at all), and recovery cost is one slot-reconstruction scan. Both
//! are measured here as a function of table size; the pool sweep shows the
//! hit rate degrading gracefully as capacity drops below the working set.
//!
//! Writes `BENCH_durability.json` (override with `WH_BENCH_OUT`). Exits
//! non-zero when any gate fails. None needs a committed baseline: the two
//! timings are within-run ratios, in which machine speed cancels, and the
//! third is a count:
//!
//! * resident scan: `durable_resident_scan / in_memory_scan` — a breach
//!   means the buffer-pool indirection itself got slower;
//! * miss path: `cold_scan / resident_scan` on one durable table, cold
//!   meaning every page evicted first — a breach means a page fault (read,
//!   shadow-block choice, checksum, frame install) got slower;
//! * scan resistance: the pool sweep's hit rate at a quarter of the heap —
//!   a breach means repeated scans flush the pool again (a clock pool that
//!   size hits almost nothing under a cyclic scan).
#![allow(clippy::unwrap_used)]

use std::path::PathBuf;
use std::time::Instant;
use wh_bench::json::{self, Json};
use wh_bench::print_table;
use wh_types::{Column, DataType, Row, Schema, Value};
use wh_vnl::{checkpoint, create_durable, recover_from_disk, VnlTable};

/// The resident durable scan may cost at most this multiple of the pure
/// in-memory scan (generous: the pin path is an Arc clone + latch).
const MAX_RESIDENT_SCAN_RATIO: f64 = 1.5;

/// A scan that faults every page in may cost at most this multiple of the
/// same scan fully resident. Measured 9.1–9.5 when a fault checksummed
/// both shadow blocks byte by byte, 2.1–3.6 once it checksums one block a
/// word at a time, and 2.1–3.0 once a fault that knows its `seq` reads
/// that one block only (368 pages, 2 vCPUs).
const MAX_COLD_SCAN_RATIO: f64 = 5.0;

/// The pool sweep's hit rate with a quarter of the heap resident must be at
/// least this. The scan ring keeps the resident quarter across repeated
/// scans, so it reads ≈ 0.25; the clock it replaced read ≈ 0.
const MIN_QUARTER_POOL_HIT_RATE: f64 = 0.2;

/// Tuples in the miss-path gate's table, quick mode included: enough pages
/// (368) that per-fault cost dominates the scan's fixed cost.
const MISS_GATE_TUPLES: i64 = 50_000;

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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wh-bench-durable-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn initial_rows(n_tuples: i64) -> Vec<Row> {
    (0..n_tuples)
        .map(|k| vec![Value::from(k), Value::from(k)])
        .collect()
}

/// Median of `runs` timed executions of `f`, in milliseconds; `setup`
/// runs before each and is not timed.
fn median_ms_after(runs: usize, mut setup: impl FnMut(), mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            setup();
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median of `runs` timed executions of `f`, in milliseconds.
fn median_ms(runs: usize, f: impl FnMut()) -> f64 {
    median_ms_after(runs, || {}, f)
}

fn count_rows(table: &VnlTable) -> u64 {
    let s = table.begin_session();
    let n = s.count().unwrap();
    s.finish();
    n
}

fn main() {
    let quick = std::env::var_os("WH_BENCH_QUICK").is_some();
    let sizes: &[i64] = if quick {
        &[1_000, 5_000]
    } else {
        &[1_000, 10_000, 50_000]
    };
    let runs = if quick { 3 } else { 5 };
    println!("E23: durability — checkpoint, pool, and restart-recovery cost\n");

    // --- checkpoint cost vs table size (and dirty fraction) ---------------
    println!("-- fuzzy checkpoint: cost tracks dirty pages, not table size --");
    let mut ckpt_rows = Vec::new();
    let mut ckpt_json = Vec::new();
    for &size in sizes {
        let dir = temp_dir(&format!("ckpt-{size}"));
        let table = create_durable("kv", kv_schema(), 2, &dir, usize::MAX).unwrap();
        table.load_initial(&initial_rows(size)).unwrap();
        // First checkpoint: every page dirty.
        let t0 = Instant::now();
        let full = checkpoint(&table).unwrap();
        let full_ms = t0.elapsed().as_secs_f64() * 1e3;
        // Touch 1% of tuples, checkpoint again: cost is the dirty subset.
        let txn = table.begin_maintenance().unwrap();
        for k in (0..size).step_by(100) {
            txn.update_row(&vec![Value::from(k), Value::from(k + 1)])
                .unwrap();
        }
        txn.commit().unwrap();
        let t0 = Instant::now();
        let incr = checkpoint(&table).unwrap();
        let incr_ms = t0.elapsed().as_secs_f64() * 1e3;
        ckpt_rows.push(vec![
            size.to_string(),
            full.pages_flushed.to_string(),
            format!("{full_ms:.2}"),
            incr.pages_flushed.to_string(),
            format!("{incr_ms:.2}"),
        ]);
        ckpt_json.push(Json::obj([
            ("tuples", (size as usize).into()),
            ("full_pages_flushed", (full.pages_flushed as usize).into()),
            ("full_ms", Json::Fixed(full_ms, 3)),
            ("incr_pages_flushed", (incr.pages_flushed as usize).into()),
            ("incr_ms", Json::Fixed(incr_ms, 3)),
        ]));
        drop(table);
        let _ = std::fs::remove_dir_all(&dir);
    }
    print_table(
        &["tuples", "full pages", "full ms", "1% dirty pages", "1% ms"],
        &ckpt_rows,
    );

    // --- pool hit rate vs capacity ----------------------------------------
    println!("\n-- buffer pool: hit rate vs capacity (10,000-tuple scan workload) --");
    let scan_size: i64 = if quick { 2_000 } else { 10_000 };
    let mut pool_rows = Vec::new();
    let mut pool_json = Vec::new();
    let mut quarter_hit_rate = 0.0;
    for capacity_pct in [100usize, 50, 25, 10] {
        let dir = temp_dir(&format!("pool-{capacity_pct}"));
        let table = create_durable("kv", kv_schema(), 2, &dir, usize::MAX).unwrap();
        table.load_initial(&initial_rows(scan_size)).unwrap();
        let pages = table.storage().heap().page_count() as usize;
        checkpoint(&table).unwrap();
        drop(table);
        let capacity = (pages * capacity_pct / 100).max(1);
        let (table, _) = recover_from_disk("kv", kv_schema(), 2, &dir, capacity).unwrap();
        let before = wh_obs::registry::global().snapshot();
        let scan_ms = median_ms(runs, || {
            assert_eq!(count_rows(&table), scan_size as u64);
        });
        let delta = wh_obs::registry::global().snapshot().since(&before);
        let hits = delta.counter("storage.pool.hits");
        let misses = delta.counter("storage.pool.misses");
        let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
        if capacity_pct == 25 {
            quarter_hit_rate = hit_rate;
        }
        pool_rows.push(vec![
            format!("{capacity_pct}% ({capacity} pages)"),
            format!("{hit_rate:.3}"),
            delta.counter("storage.pool.evictions").to_string(),
            format!("{scan_ms:.2}"),
        ]);
        pool_json.push(Json::obj([
            ("capacity_pct", capacity_pct.into()),
            ("capacity_pages", capacity.into()),
            ("hit_rate", Json::Fixed(hit_rate, 4)),
            (
                "evictions",
                (delta.counter("storage.pool.evictions") as usize).into(),
            ),
            ("scan_ms", Json::Fixed(scan_ms, 3)),
        ]));
        drop(table);
        let _ = std::fs::remove_dir_all(&dir);
    }
    print_table(
        &["capacity", "hit rate", "evictions", "scan ms"],
        &pool_rows,
    );
    println!(
        "gate: scan resistance — hit rate at 25% capacity {quarter_hit_rate:.3}   bound ≥ {MIN_QUARTER_POOL_HIT_RATE}"
    );

    // --- restart recovery time vs table size -------------------------------
    println!("\n-- restart recovery: one §7 scan, no log replay --");
    let mut rec_rows = Vec::new();
    let mut rec_json = Vec::new();
    for &size in sizes {
        let dir = temp_dir(&format!("rec-{size}"));
        // Crash mid-maintenance so recovery has real rollback work.
        let table = create_durable("kv", kv_schema(), 2, &dir, usize::MAX).unwrap();
        table.load_initial(&initial_rows(size)).unwrap();
        checkpoint(&table).unwrap();
        let txn = table.begin_maintenance().unwrap();
        for k in (0..size).step_by(10) {
            txn.update_row(&vec![Value::from(k), Value::from(-k)])
                .unwrap();
        }
        table.storage().heap().flush_all().unwrap();
        std::mem::forget(txn);
        drop(table);

        let t0 = Instant::now();
        let (table, report) = recover_from_disk("kv", kv_schema(), 2, &dir, usize::MAX).unwrap();
        let rec_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(report.recovery.log_writes, 0);
        assert_eq!(count_rows(&table), size as u64);
        rec_rows.push(vec![
            size.to_string(),
            report.recovery.pending_found.to_string(),
            format!("{rec_ms:.2}"),
        ]);
        rec_json.push(Json::obj([
            ("tuples", (size as usize).into()),
            (
                "pending_rolled_back",
                (report.recovery.pending_found as usize).into(),
            ),
            ("recovery_ms", Json::Fixed(rec_ms, 3)),
        ]));
        drop(table);
        let _ = std::fs::remove_dir_all(&dir);
    }
    print_table(&["tuples", "rolled back", "recovery ms"], &rec_rows);

    // --- the resident-scan gate --------------------------------------------
    // A durable table whose working set fits the pool must scan at
    // in-memory speed: the within-run ratio is machine-independent, so it
    // gates CI without a committed baseline.
    println!("\n-- gate: fully-resident durable scan vs pure in-memory scan --");
    let mem_table = VnlTable::create_named("kv", kv_schema(), 2).unwrap();
    mem_table.load_initial(&initial_rows(scan_size)).unwrap();
    let mem_ms = median_ms(runs * 3, || {
        assert_eq!(count_rows(&mem_table), scan_size as u64);
    });
    let dir = temp_dir("gate");
    let dur_table = create_durable("kv", kv_schema(), 2, &dir, usize::MAX).unwrap();
    dur_table.load_initial(&initial_rows(scan_size)).unwrap();
    checkpoint(&dur_table).unwrap();
    let dur_ms = median_ms(runs * 3, || {
        assert_eq!(count_rows(&dur_table), scan_size as u64);
    });
    drop(dur_table);
    let _ = std::fs::remove_dir_all(&dir);
    let ratio = dur_ms / mem_ms;
    println!(
        "in-memory {mem_ms:.3} ms   durable(resident) {dur_ms:.3} ms   ratio {ratio:.3}   bound {MAX_RESIDENT_SCAN_RATIO}"
    );

    // --- the miss-path gate ------------------------------------------------
    // The same durable table scanned resident and after `evict_all`, so the
    // difference is page faults alone (the file stays in the OS cache: this
    // is the fault's CPU cost, not the device's).
    println!("\n-- gate: every page a miss vs fully resident ({MISS_GATE_TUPLES} tuples) --");
    let dir = temp_dir("miss");
    let table = create_durable("kv", kv_schema(), 2, &dir, usize::MAX).unwrap();
    table.load_initial(&initial_rows(MISS_GATE_TUPLES)).unwrap();
    checkpoint(&table).unwrap();
    let heap = table.storage().heap();
    let pages = heap.page_count();
    let scan = || assert_eq!(count_rows(&table), MISS_GATE_TUPLES as u64);
    let warm_ms = median_ms(runs * 3, scan);
    let evict = || {
        assert_eq!(
            heap.evict_all().unwrap(),
            u64::from(pages),
            "every page a miss"
        );
    };
    let cold_ms = median_ms_after(runs * 3, evict, scan);
    drop(table);
    let _ = std::fs::remove_dir_all(&dir);
    let cold_ratio = cold_ms / warm_ms;
    let miss_us = (cold_ms - warm_ms) * 1e3 / f64::from(pages);
    println!(
        "{pages} pages   resident {warm_ms:.3} ms   cold {cold_ms:.3} ms   ({miss_us:.2} µs per miss)   ratio {cold_ratio:.3}   bound {MAX_COLD_SCAN_RATIO}"
    );

    let doc = Json::obj([
        ("experiment", "E23".into()),
        ("quick", quick.into()),
        ("checkpoint", Json::Array(ckpt_json)),
        ("pool", Json::Array(pool_json)),
        ("recovery", Json::Array(rec_json)),
        (
            "resident_scan_gate",
            Json::obj([
                ("in_memory_ms", Json::Fixed(mem_ms, 3)),
                ("durable_resident_ms", Json::Fixed(dur_ms, 3)),
                ("ratio", Json::Fixed(ratio, 4)),
                ("bound", Json::Fixed(MAX_RESIDENT_SCAN_RATIO, 2)),
            ]),
        ),
        (
            "miss_path_gate",
            Json::obj([
                ("tuples", (MISS_GATE_TUPLES as usize).into()),
                ("pages", (pages as usize).into()),
                ("resident_ms", Json::Fixed(warm_ms, 3)),
                ("cold_ms", Json::Fixed(cold_ms, 3)),
                ("miss_us", Json::Fixed(miss_us, 3)),
                ("ratio", Json::Fixed(cold_ratio, 4)),
                ("bound", Json::Fixed(MAX_COLD_SCAN_RATIO, 2)),
            ]),
        ),
        (
            "scan_resistance_gate",
            Json::obj([
                ("capacity_pct", 25usize.into()),
                ("hit_rate", Json::Fixed(quarter_hit_rate, 4)),
                ("bound", Json::Fixed(MIN_QUARTER_POOL_HIT_RATE, 2)),
            ]),
        ),
    ]);
    json::write_report("BENCH_durability.json", &doc);

    let mut failed = false;
    if ratio > MAX_RESIDENT_SCAN_RATIO {
        eprintln!(
            "FAIL: resident durable scan is {ratio:.2}x the in-memory scan \
             (bound {MAX_RESIDENT_SCAN_RATIO}) — the pool indirection regressed"
        );
        failed = true;
    }
    if cold_ratio > MAX_COLD_SCAN_RATIO {
        eprintln!(
            "FAIL: a scan faulting every page is {cold_ratio:.2}x the resident scan \
             (bound {MAX_COLD_SCAN_RATIO}) — the page-fault path regressed"
        );
        failed = true;
    }
    // The hit rate comes from the pool's counters, which a build without
    // observability compiles out.
    if wh_obs::is_enabled() && quarter_hit_rate < MIN_QUARTER_POOL_HIT_RATE {
        eprintln!(
            "FAIL: repeated scans hit {quarter_hit_rate:.3} of their pages with a quarter of \
             the heap resident (bound {MIN_QUARTER_POOL_HIT_RATE}) — scans flush the pool again"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("gates passed");
}
