//! Causal-trace well-formedness under real concurrency, plus a smoke
//! test of the introspection server and flight recorder — the CI `trace`
//! job's correctness half (the other half is the E24 overhead gate).
//!
//! The property: replaying every collected trace event in global `seq`
//! order, span nesting is well formed — each `SpanStart`'s parent is an
//! open span on the same trace, each `Instant` is attributed to an open
//! span, each `SpanEnd` matches an open span, and when the workload has
//! drained, only roots (forgotten-transaction crash simulations) may
//! remain open. This holds across threads: parallel-scan partition spans
//! open on worker threads under a context captured on the issuing thread.
#![allow(clippy::expect_used, clippy::panic)]

use std::collections::BTreeMap;
use std::sync::Mutex;
use warehouse_2vnl::obs;
use warehouse_2vnl::obs::trace::{self, EventKind};
use warehouse_2vnl::sql::Params;
use warehouse_2vnl::types::schema::daily_sales_schema;
use warehouse_2vnl::types::{Date, Value};
use warehouse_2vnl::vnl::{recovery, VnlTable};

/// Serializes the two tests: both read the process-global trace rings and
/// the recorder's armed state, and the replay's end-state assertion would
/// otherwise race against the smoke test's in-flight spans.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn sales_row(city: &str, line: &str, day: u8, sales: i64) -> Vec<Value> {
    vec![
        Value::from(city),
        Value::from("CA"),
        Value::from(line),
        Value::from(Date::ymd(1996, 10, day)),
        Value::from(sales),
    ]
}

/// Sized to span several heap pages: a partitioned read only spawns worker
/// threads (and their partition spans) when the heap has more pages than
/// workers.
fn build_table(cities: usize) -> VnlTable {
    let table =
        VnlTable::create_named("DailySales", daily_sales_schema(), 2).expect("create table");
    let rows: Vec<Vec<Value>> = (0..cities)
        .flat_map(|c| {
            (1..=28u8).map(move |d| sales_row(&format!("city-{c:02}"), "line-00", d, 100))
        })
        .collect();
    table.load_initial(&rows).expect("load");
    table
}

/// Readers hammering `query_parallel` while the main thread runs
/// maintenance rounds — the exact shape that exercises cross-thread span
/// parenting (issuing thread captures the context, worker threads open
/// partition spans under it).
fn concurrent_workload(table: &VnlTable, cities: usize) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use warehouse_2vnl::vnl::VnlError;
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(|| {
                // Bounded above (each iteration costs ring events and the
                // replay needs the rings not to wrap) and below (the
                // maintenance rounds may drain before the readers warm up,
                // and the replay wants a known minimum of sessions).
                for i in 0..40 {
                    if i >= 4 && stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let session = table.begin_session();
                    let scanned = session.query_parallel("SELECT * FROM DailySales", 4);
                    session.finish();
                    match scanned {
                        // Expiration is the §4.1 outcome this workload is
                        // *supposed* to provoke: n=2 versions, maintenance
                        // committing under the scan.
                        Ok(_) | Err(VnlError::SessionExpired { .. }) => {}
                        Err(e) => panic!("query_parallel: {e:?}"),
                    }
                }
            });
        }
        // `stop` is set even if a round fails, so a maintenance failure
        // cannot strand the reader threads in their loops.
        let rounds = || -> Result<(), VnlError> {
            for round in 0..6 {
                let txn = table.begin_maintenance()?;
                for c in 0..cities {
                    txn.update_row(&sales_row(&format!("city-{c:02}"), "line-00", 1, round))?;
                }
                txn.commit()?;
            }
            Ok(())
        }();
        stop.store(true, Ordering::Relaxed);
        rounds.expect("maintenance rounds");
    });
}

#[test]
fn span_nesting_is_well_formed_under_parallel_scan_and_maintenance() {
    let _guard = TEST_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if !obs::is_enabled() {
        return; // disabled builds compile every trace site to a no-op
    }

    let table = build_table(8);
    concurrent_workload(&table, 8);

    // The replay below assumes no events were lost; keep the workload
    // sized well under THREAD_RING_CAPACITY per thread.
    assert!(
        !trace::any_ring_wrapped(),
        "workload overflowed a per-thread ring; shrink it or grow the ring"
    );

    let mut events = trace::collect();
    events.sort_by_key(|e| e.seq);
    assert!(!events.is_empty(), "workload produced no trace events");

    // span_id → (trace_id, parent_id, name) for every currently-open span.
    let mut open: BTreeMap<u64, (u64, u64, &str)> = BTreeMap::new();
    let mut saw_cross_thread_partition = false;
    let mut session_traces: std::collections::BTreeSet<u64> = Default::default();

    for e in &events {
        if e.trace_id == 0 {
            continue; // unattributed events carry no nesting obligations
        }
        match e.kind {
            EventKind::SpanStart => {
                if e.parent_id != 0 {
                    let parent = open.get(&e.parent_id).unwrap_or_else(|| {
                        panic!(
                            "span {} ({}) started under closed/unknown parent {}",
                            e.span_id, e.name, e.parent_id
                        )
                    });
                    assert_eq!(
                        parent.0, e.trace_id,
                        "span {} ({}) crosses traces: parent {} is on trace {}",
                        e.span_id, e.name, e.parent_id, parent.0
                    );
                    // The executor's stage span may sit between the read
                    // and its partitions: look for the read among the
                    // ancestors.
                    if e.name == "storage.scan.partition" {
                        let mut up = Some(parent);
                        while let Some(&(_, grand, name)) = up {
                            if name == "vnl.read.query" {
                                saw_cross_thread_partition = true;
                                break;
                            }
                            up = open.get(&grand);
                        }
                    }
                } else if e.name == "vnl.session" {
                    session_traces.insert(e.trace_id);
                }
                open.insert(e.span_id, (e.trace_id, e.parent_id, e.name));
            }
            EventKind::SpanEnd => {
                let (trace_id, _, _) = open.remove(&e.span_id).unwrap_or_else(|| {
                    panic!("span {} ({}) ended but was never open", e.span_id, e.name)
                });
                assert_eq!(
                    trace_id, e.trace_id,
                    "span {} ended on the wrong trace",
                    e.span_id
                );
            }
            EventKind::Instant => {
                if e.span_id != 0 {
                    let (trace_id, _, _) = open.get(&e.span_id).unwrap_or_else(|| {
                        panic!("instant {} attributed to closed span {}", e.name, e.span_id)
                    });
                    assert_eq!(
                        *trace_id, e.trace_id,
                        "instant {} on the wrong trace",
                        e.name
                    );
                }
            }
        }
    }

    // Everything non-root balanced. Roots may outlive the replay window:
    // a `mem::forget`-ten transaction (the crash model, exercised by the
    // smoke test below when it runs first) deliberately never closes.
    for (span, (_, parent, name)) in &open {
        assert_eq!(
            *parent, 0,
            "non-root span {span} ({name}) still open after the workload drained"
        );
    }

    assert!(
        saw_cross_thread_partition,
        "no storage.scan.partition span had vnl.read.query as an ancestor — \
         cross-thread context propagation is broken"
    );
    assert!(
        session_traces.len() >= 12,
        "expected one distinct trace per reader session (3 threads × ≥4 sessions), saw {}",
        session_traces.len()
    );
}

/// The one `SpanEnd` named `name` emitted after event number `after`.
fn span_end_after(after: u64, name: &str) -> trace::TraceEvent {
    let ends: Vec<trace::TraceEvent> = trace::collect()
        .into_iter()
        .filter(|e| e.seq > after && e.name == name && e.kind == EventKind::SpanEnd)
        .collect();
    assert_eq!(ends.len(), 1, "{name}: {ends:#?}");
    ends[0]
}

/// A timed span and the histogram (or SLO window) fed from it are one
/// measurement: a committed transaction adds exactly one observation to
/// `vnl.maintenance.commit_ns`, equal to its `vnl.txn.commit` span's
/// duration, and a `query()` adds exactly one read-latency SLO observation,
/// equal to its `vnl.read.query` span's.
#[test]
fn a_timed_span_and_its_histogram_are_one_measurement() {
    let _guard = TEST_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if !obs::is_enabled() {
        return;
    }
    let table = build_table(2);

    let before = obs::registry::global().snapshot();
    let mark = trace::events_recorded();
    let txn = table.begin_maintenance().expect("begin");
    txn.update_row(&sales_row("city-00", "line-00", 1, 7))
        .expect("update");
    txn.commit().expect("commit");
    let commit = obs::registry::global()
        .snapshot()
        .since(&before)
        .histogram("vnl.maintenance.commit_ns");
    assert_eq!(commit.count(), 1);
    assert_eq!(commit.sum, span_end_after(mark, "vnl.txn.commit").arg);

    let window = obs::slo::WINDOW_BUCKETS as u64;
    let (count_before, sum_before) = obs::slo::read_latency_ns().totals(window);
    let mark = trace::events_recorded();
    let session = table.begin_session();
    session
        .query("SELECT COUNT(*) FROM DailySales")
        .expect("query");
    session.finish();
    let (count, sum) = obs::slo::read_latency_ns().totals(window);
    assert_eq!(count - count_before, 1);
    assert_eq!(sum - sum_before, span_end_after(mark, "vnl.read.query").arg);
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect introspection server");
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response.lines().next().unwrap_or("").to_string();
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn introspection_server_and_flight_recorder_smoke() {
    let _guard = TEST_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if !obs::is_enabled() {
        return;
    }

    // --- live introspection over a real workload ---
    let table = build_table(4);
    concurrent_workload(&table, 4);

    let server = obs::IntrospectionServer::start("127.0.0.1:0").expect("start server");
    let addr = server.addr();
    let (status, metrics) = http_get(addr, "/metrics");
    assert!(status.contains("200"), "/metrics: {status}");
    assert!(
        metrics.contains("vnl_maintenance_arm_update_saving_pre"),
        "/metrics missing maintenance counters"
    );
    let (status, health) = http_get(addr, "/health");
    assert!(status.contains("200"), "/health: {status}");
    assert!(health.contains("\"status\""), "/health not JSON: {health}");
    let (status, _) = http_get(addr, "/snapshot");
    assert!(status.contains("200"), "/snapshot: {status}");

    // A live trace id from the rings must be servable.
    let trace_id = trace::collect()
        .iter()
        .map(|e| e.trace_id)
        .find(|&t| t != 0)
        .expect("workload produced traced events");
    let (status, body) = http_get(addr, &format!("/traces/{trace_id}"));
    assert!(status.contains("200"), "/traces/{trace_id}: {status}");
    assert!(body.contains("\"trace\""), "trace body: {body}");
    server.stop();

    // --- flight recorder: a forgotten txn leaves its causal chain open,
    // and recovery dumps it ---
    let dir = std::env::temp_dir().join(format!("wh-trace-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create flight dir");
    obs::recorder::arm(&dir);

    let txn = table.begin_maintenance().expect("begin");
    txn.execute_sql(
        "UPDATE DailySales SET total_sales = 0 WHERE product_line = 'line-00'",
        &Params::new(),
    )
    .expect("update");
    std::mem::forget(txn); // simulated crash: the txn root span stays open
    let report = recovery::recover(&table).expect("recover");
    obs::recorder::disarm();
    assert!(report.pending_found > 0, "recovery saw no pending tuples");

    let dumps: Vec<String> = std::fs::read_dir(&dir)
        .expect("read flight dir")
        .filter_map(|e| std::fs::read_to_string(e.ok()?.path()).ok())
        .filter(|text| text.starts_with("{\"schema\":\"wh-flight-1\""))
        .collect();
    assert!(
        !dumps.is_empty(),
        "recovery produced no flight-recorder dump"
    );
    let dump = &dumps[0];
    assert!(
        dump.contains("\"reason\":\"recovery_entry\""),
        "dump missing trigger reason"
    );
    // The causal chain: the forgotten txn's root span and its phase spans
    // must be visible in the dump.
    assert!(
        dump.contains("vnl.txn"),
        "dump missing the open txn root span"
    );
    assert!(
        dump.contains("vnl.recovery"),
        "dump missing the recovery span"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
