//! Experiments E20/E24 — the observability layer under load, and the one
//! gate on what it costs.
//!
//! `wh-obs` has one `enabled` feature covering metrics and tracing alike,
//! so there is one report: it runs the E18 reader/maintenance workload
//! with every metric, span and causal event live and shows what the
//! telemetry surface sees.
//!
//! * **Registry under load** — one `Registry::snapshot()`: reader staleness
//!   (`currentVN − sessionVN`) while maintenance commits under the readers,
//!   decision-table arm counters, maintenance phase timings, GC reclaim
//!   latencies, latch waits, and the per-scheme `cc.*` lock-wait
//!   histograms from a short §6 mixed run.
//! * **Ring fill** — the same load interleaves serial scans and
//!   partitioned queries with maintenance, so the per-thread trace rings hold multi-thread
//!   traces; the report counts events and recent traces.
//! * **Introspection server** — `/metrics`, `/health`, `/snapshot` and
//!   `/traces/<id>` scraped over plain HTTP/1.0.
//! * **Flight recorder** — a provoked recovery must leave a dump on disk.
//!
//! It also measures the numbers the CI overhead gate rides on: seven
//! independent hot-loop probes (full scan, projected scan, partitioned
//! `SELECT *`, point lookups, an aggregate query, a maintenance update round, a raw
//! heap scan). Build once with default features and once with
//! `--no-default-features` (all instrumentation compiled out), run both,
//! and compare the geometric mean of the probe ratios:
//!
//! ```text
//! report_obs                              # writes BENCH_obs.json
//! report_obs --check-overhead base.json   # exits 1 if >5% slower than base
//! ```
//!
//! Best-of-N inside one process converges, but the process itself is a
//! sample: address-space layout shifts cache/TLB aliasing enough to move a
//! hot loop several percent between invocations of the *same* binary. The
//! gate therefore runs each build a few times and takes the per-probe
//! minimum across processes: `--probes-only` skips the workload phases so
//! the extra invocations stay cheap, and `--merge-probes` folds the
//! existing output file's probe numbers in (per-probe min) before writing.
//!
//! `WH_BENCH_QUICK=1` shrinks the relation and repeat counts for CI;
//! `WH_BENCH_OUT` overrides the output path; `WH_OBS_OVERHEAD_PCT`
//! overrides the 5% gate.
#![allow(clippy::expect_used, clippy::panic)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use wh_bench::json::{self, Json};
use wh_bench::{all_schemes, mixed_run, print_table};
use wh_sql::Params;
use wh_types::schema::daily_sales_schema;
use wh_types::{Date, Value};
use wh_vnl::VnlTable;

struct Config {
    cities: usize,
    lines: usize,
    days: usize,
    scan_repeats: usize,
    maintenance_rounds: usize,
    reader_threads: usize,
    quick: bool,
}

impl Config {
    fn from_env() -> Config {
        let quick = std::env::var("WH_BENCH_QUICK").is_ok();
        if quick {
            Config {
                cities: 25,
                lines: 8,
                days: 50,
                scan_repeats: 15,
                maintenance_rounds: 4,
                reader_threads: 2,
                quick,
            }
        } else {
            Config {
                cities: 125,
                lines: 16,
                days: 50,
                scan_repeats: 15,
                maintenance_rounds: 8,
                reader_threads: 4,
                quick,
            }
        }
    }

    fn rows(&self) -> usize {
        self.cities * self.lines * self.days
    }
}

fn dates(days: usize) -> Vec<Date> {
    (0..days)
        .map(|d| {
            if d < 25 {
                Date::ymd(1996, 10, (d + 1) as u8)
            } else {
                Date::ymd(1996, 11, (d - 25 + 1) as u8)
            }
        })
        .collect()
}

fn build_table(cities: usize, lines: usize, days: usize) -> VnlTable {
    let t =
        VnlTable::create_named("DailySales", daily_sales_schema(), 2).expect("create DailySales");
    let dates = dates(days);
    let mut rows = Vec::with_capacity(cities * lines * days);
    for c in 0..cities {
        for l in 0..lines {
            for d in &dates {
                rows.push(vec![
                    Value::from(format!("City-{c:03}").as_str()),
                    Value::from("CA"),
                    Value::from(format!("line-{l:02}").as_str()),
                    Value::from(*d),
                    Value::from(((c * 7 + l * 13) % 100) as i64 * 100),
                ]);
            }
        }
    }
    t.load_initial(&rows).expect("load DailySales");
    t
}

/// Best (minimum) wall-clock milliseconds of `repeats` runs of `f`, after
/// two discarded warmup runs. The overhead gate compares two separate
/// process invocations on a possibly noisy CI box; the minimum is the
/// standard noise-robust estimator for "how fast can this code go", where a
/// median still jitters by several percent run to run.
fn best_ms(repeats: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..2 {
        f();
    }
    (0..repeats)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// The overhead-gate probes: seven independent hot loops over the quiescent
/// relation, each reported as its best-of-N wall clock.
///
/// Comparing a *single* loop across two binaries measures that binary's
/// code layout as much as the instrumentation — the same monomorphized
/// scan loop shifting across an icache-line boundary between builds moves
/// its time by ~5% on this workload, dwarfing the real cost of the
/// compiled-in metrics (measured in-process at well under 1%). Each
/// probe's alignment luck is independent, so the gate compares the
/// geometric mean of the per-probe ratios, which converges on the true
/// instrumentation overhead instead of one loop's placement.
fn overhead_probes(table: &VnlTable, cfg: &Config) -> Vec<(&'static str, f64)> {
    let rows = cfg.rows();
    let session = table.begin_session();

    // The E18 serial hot path: full-relation streaming scan.
    let scan = best_ms(cfg.scan_repeats, || {
        let n = AtomicU64::new(0);
        session
            .scan_with(|_| {
                n.fetch_add(1, Ordering::Relaxed);
                Ok(())
            })
            .expect("serial scan");
        assert_eq!(n.load(Ordering::Relaxed) as usize, rows);
    });

    // Projection pushdown: only city and total_sales are decoded.
    let projected = best_ms(cfg.scan_repeats, || {
        let n = AtomicU64::new(0);
        session
            .scan_projected_with(&[0, 4], |_| {
                n.fetch_add(1, Ordering::Relaxed);
                Ok(())
            })
            .expect("projected scan");
        assert_eq!(n.load(Ordering::Relaxed) as usize, rows);
    });

    // The partitioned path: the coordinator's span is propagated into
    // every worker (storage.scan.partition spans).
    let query_parallel = best_ms(cfg.scan_repeats, || {
        let res = session
            .query_parallel("SELECT * FROM DailySales", 4)
            .expect("parallel query");
        assert_eq!(res.rows.len(), rows);
    });

    // Point reads: the first day of one product line in every city.
    // Deliberately span- and timer-free — this probe verifies the hot path
    // stayed untouched.
    let first_day = dates(cfg.days)[0];
    let keys: Vec<Vec<Value>> = (0..cfg.cities)
        .map(|c| {
            vec![
                Value::from(format!("City-{c:03}").as_str()),
                Value::from("CA"),
                Value::from("line-00"),
                Value::from(first_day),
                Value::from(0i64),
            ]
        })
        .collect();
    let lookup = best_ms(cfg.scan_repeats, || {
        for key in &keys {
            assert!(
                session.read_by_key(key).expect("read_by_key").is_some(),
                "probe key must resolve"
            );
        }
    });

    // The executor path: parse + grouped aggregate over the relation.
    let sql = best_ms(cfg.scan_repeats, || {
        let res = session
            .query("SELECT city, SUM(total_sales) FROM DailySales GROUP BY city")
            .expect("aggregate query");
        assert_eq!(res.rows.len(), cfg.cities);
    });
    session.finish();

    // The maintenance mutation path: each rep runs one decision-table
    // round — update every day of one product line in one city — and
    // commits, exercising modify/update latching and the arm counters.
    let update = best_ms(cfg.scan_repeats, || {
        let txn = table.begin_maintenance().expect("probe begin");
        txn.execute_sql(
            "UPDATE DailySales SET total_sales = total_sales + 1 \
             WHERE city = 'City-000' AND product_line = 'line-00'",
            &Params::new(),
        )
        .expect("probe update");
        txn.commit().expect("probe commit");
    });

    // Raw storage below the 2VNL layer: latch + page iteration only.
    let heap = wh_storage::HeapFile::new(128, std::sync::Arc::new(wh_storage::IoStats::new()))
        .expect("probe heap");
    for i in 0..10_000u64 {
        heap.insert(&[(i % 251) as u8; 128]).expect("probe insert");
    }
    let heap_ms = best_ms(cfg.scan_repeats, || {
        let n = AtomicU64::new(0);
        heap.scan(|_, _| {
            n.fetch_add(1, Ordering::Relaxed);
            Ok(())
        })
        .expect("heap scan");
        assert_eq!(n.load(Ordering::Relaxed), 10_000);
    });

    vec![
        ("probe_scan_ms", scan),
        ("probe_scan_projected_ms", projected),
        ("probe_query_parallel_ms", query_parallel),
        ("probe_lookup_ms", lookup),
        ("probe_sql_agg_ms", sql),
        ("probe_update_txn_ms", update),
        ("probe_heap_scan_ms", heap_ms),
    ]
}

/// The concurrency phase: readers scanning in sessions (restarting on
/// expiration) while maintenance commits `rounds` of updates plus a
/// delete/re-insert churn that leaves logically-deleted tuples for the GC
/// collector sweeping alongside. Each session ends in a partitioned query, so
/// the trace rings fill with interleaved multi-thread traces under the
/// same load the registry is snapshotted after. Returns (reads_ok,
/// sessions, commits).
fn reader_maintenance_phase(table: &std::sync::Arc<VnlTable>, cfg: &Config) -> (u64, u64, u64) {
    let reads_ok = AtomicU64::new(0);
    let sessions = AtomicU64::new(0);
    let commits = AtomicU64::new(0);
    let done = std::sync::atomic::AtomicBool::new(false);
    let collector = wh_vnl::gc::Collector::spawn(
        std::sync::Arc::clone(table),
        std::time::Duration::from_millis(2),
    );
    std::thread::scope(|s| {
        // Maintenance: each round bumps one city-in-5's sales and churns one
        // city through delete + re-insert (Table 4 row 1 then Table 2 row 3
        // or a resurrection, feeding the GC).
        s.spawn(|| {
            for round in 0..cfg.maintenance_rounds {
                let txn = table.begin_maintenance().expect("begin maintenance");
                for c in (round % 5..cfg.cities).step_by(5) {
                    txn.execute_sql(
                        &format!(
                            "UPDATE DailySales SET total_sales = total_sales + 1 \
                             WHERE city = 'City-{c:03}'"
                        ),
                        &Params::new(),
                    )
                    .expect("maintenance update");
                }
                let churn_city = format!("City-{:03}", round % cfg.cities);
                txn.execute_sql(
                    &format!("DELETE FROM DailySales WHERE city = '{churn_city}'"),
                    &Params::new(),
                )
                .expect("maintenance delete");
                txn.commit().expect("commit");
                commits.fetch_add(1, Ordering::Relaxed);
                // Give GC a window where the deleted tuples are collectable,
                // then restore the city so the next rounds see full size.
                std::thread::sleep(std::time::Duration::from_millis(5));
                let txn = table.begin_maintenance().expect("begin maintenance");
                let dates = dates(cfg.days);
                for l in 0..cfg.lines {
                    for d in &dates {
                        txn.insert(vec![
                            Value::from(churn_city.as_str()),
                            Value::from("CA"),
                            Value::from(format!("line-{l:02}").as_str()),
                            Value::from(*d),
                            Value::from(((round * 7 + l * 13) % 100) as i64 * 100),
                        ])
                        .expect("maintenance re-insert");
                    }
                }
                txn.commit().expect("commit");
                commits.fetch_add(1, Ordering::Relaxed);
            }
            done.store(true, Ordering::SeqCst);
        });
        // Readers: sessions of scans, expiration handled by the shared
        // retry discipline (§4.1's "begin a new session", with bounded
        // attempts and jittered backoff) instead of a hand-rolled restart.
        for seed in 0..cfg.reader_threads as u64 {
            let (reads_ok, sessions, done) = (&reads_ok, &sessions, &done);
            s.spawn(move || {
                let retry = wh_vnl::RetryPolicy::default()
                    .with_max_attempts(64)
                    .with_seed(seed);
                while !done.load(Ordering::SeqCst) {
                    let (res, stats) = retry.run_with_stats(table, |session| {
                        for _ in 0..3 {
                            session.scan_with(|_| Ok(()))?;
                        }
                        session.query_parallel("SELECT * FROM DailySales", 4)
                    });
                    sessions.fetch_add(u64::from(stats.attempts), Ordering::Relaxed);
                    match res {
                        Ok(_) => {
                            reads_ok.fetch_add(4, Ordering::Relaxed);
                        }
                        Err(e) => panic!("reader error: {e}"),
                    }
                }
            });
        }
    });
    collector.stop();
    (
        reads_ok.load(Ordering::Relaxed),
        sessions.load(Ordering::Relaxed),
        commits.load(Ordering::Relaxed),
    )
}

/// One probe's milliseconds out of a `BENCH_obs.json` document.
fn probe_ms(doc: &Json, name: &str) -> Option<f64> {
    doc.get("overhead_probes")?.get(name)?.as_f64()
}

fn hist_row(snap: &wh_obs::registry::Snapshot, name: &str) -> Vec<String> {
    let h = snap.histogram(name);
    vec![
        name.to_string(),
        h.count().to_string(),
        format!("{:.0}", h.mean()),
        h.quantile(0.5).to_string(),
        h.quantile(0.99).to_string(),
        h.max.to_string(),
    ]
}

/// One blocking HTTP/1.0 GET against the introspection server; returns
/// (status_line, body).
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

/// Scrape every endpoint once; returns whether all answered 200.
fn server_phase(trace_id: u64) -> bool {
    let server = match wh_obs::IntrospectionServer::start("127.0.0.1:0") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("introspection server failed to start: {e}");
            return false;
        }
    };
    let addr = server.addr();
    let (metrics_status, metrics_body) = http_get(addr, "/metrics");
    let (health_status, health_body) = http_get(addr, "/health");
    let (snapshot_status, _) = http_get(addr, "/snapshot");
    let (trace_status, trace_body) = http_get(addr, &format!("/traces/{trace_id}"));
    println!("introspection server on {addr}:");
    println!(
        "  /metrics      {metrics_status} ({} bytes)",
        metrics_body.len()
    );
    println!(
        "  /health       {health_status} ({})",
        health_body.trim().len()
    );
    println!("  /snapshot     {snapshot_status}");
    println!(
        "  /traces/{trace_id}  {trace_status} ({} bytes)",
        trace_body.len()
    );
    let ok = [&metrics_status, &health_status, &snapshot_status]
        .iter()
        .all(|s| s.contains("200"))
        && (trace_status.contains("200") || !wh_obs::is_enabled());
    server.stop();
    ok
}

/// Provoke the flight recorder: arm it at a temp dir, crash a maintenance
/// transaction (`mem::forget` — its root span never closes), and recover.
/// The `recovery_entry` trigger must produce a dump whose events include
/// the crashed txn's still-open span. Returns (dumped, dump_events).
fn flight_phase() -> (bool, u64) {
    let dir = std::env::temp_dir().join(format!("wh-obs-flight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create flight dir");
    wh_obs::recorder::arm(&dir);

    let table = build_table(5, 4, 10);
    let txn = table.begin_maintenance().expect("begin");
    txn.execute_sql(
        "UPDATE DailySales SET total_sales = 0 WHERE product_line = 'line-00'",
        &Params::new(),
    )
    .expect("update");
    std::mem::forget(txn); // crash: the txn span stays open
    let report = wh_vnl::recovery::recover(&table).expect("recover");
    println!(
        "provoked recovery: {} pending tuples rolled back, {} flight dumps on disk",
        report.pending_found,
        wh_obs::recorder::dumps_written()
    );
    wh_obs::recorder::disarm();

    let mut dump_events = 0u64;
    let mut dumped = false;
    if let Ok(entries) = std::fs::read_dir(&dir) {
        for entry in entries.flatten() {
            let content = std::fs::read_to_string(entry.path()).unwrap_or_default();
            if content.starts_with("{\"schema\":\"wh-flight-1\"") {
                dumped = true;
                dump_events = dump_events.max(content.lines().count().saturating_sub(2) as u64);
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    (dumped, dump_events)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let baseline = args
        .iter()
        .position(|a| a == "--check-overhead")
        .map(|i| args.get(i + 1).cloned().expect("--check-overhead PATH"));
    let probes_only = args.iter().any(|a| a == "--probes-only");
    let merge_probes = args.iter().any(|a| a == "--merge-probes");

    let cfg = Config::from_env();
    println!(
        "E20/E24: observability under the E18 workload ({} rows{}; metrics and tracing {})\n",
        cfg.rows(),
        if cfg.quick { ", quick mode" } else { "" },
        if wh_obs::is_enabled() {
            "enabled"
        } else {
            "disabled"
        }
    );

    let table = std::sync::Arc::new(build_table(cfg.cities, cfg.lines, cfg.days));

    // Phase 1: the overhead-gate probes on the quiescent relation.
    let mut probes = overhead_probes(&table, &cfg);
    if merge_probes {
        let prev = std::fs::read_to_string(json::out_path("BENCH_obs.json"))
            .ok()
            .and_then(|text| json::parse(&text).ok());
        if let Some(prev) = prev {
            for (name, ms) in &mut probes {
                if let Some(old) = probe_ms(&prev, name) {
                    *ms = ms.min(old);
                }
            }
        }
    }
    println!(
        "overhead probes (best of {} runs{}):",
        cfg.scan_repeats,
        if merge_probes {
            ", merged with prior invocations"
        } else {
            ""
        }
    );
    for (name, ms) in &probes {
        println!("  {name:24} {ms:8.3} ms");
    }
    let mut doc = vec![
        ("experiment", "E20".into()),
        ("rows", cfg.rows().into()),
        ("quick", cfg.quick.into()),
        ("obs_enabled", wh_obs::is_enabled().into()),
        (
            "overhead_probes",
            Json::Object(
                probes
                    .iter()
                    .map(|(name, ms)| ((*name).to_string(), Json::Fixed(*ms, 3)))
                    .collect(),
            ),
        ),
    ];

    if probes_only {
        json::write_report("BENCH_obs.json", &Json::obj(doc));
        check_overhead(baseline.as_deref(), &probes);
        return;
    }

    // Phase 2: readers against live maintenance + GC, filling the registry
    // and the trace rings alike.
    let (reads_ok, sessions, commits) = reader_maintenance_phase(&table, &cfg);
    let recent = wh_obs::trace::recent_traces();
    println!(
        "concurrency phase: {reads_ok} scans ok across {sessions} sessions, {commits} commits; \
         {} trace events recorded across {} recent traces (ring wrapped: {})",
        wh_obs::trace::events_recorded(),
        recent.len(),
        wh_obs::trace::any_ring_wrapped()
    );
    // A trace whose root start is still in the rings ("?" marks one the
    // wrap has already overwritten).
    let sample_trace = recent
        .iter()
        .filter(|(_, root, _)| *root != "?")
        .max_by_key(|(_, _, n)| *n);
    if let Some((id, name, n)) = sample_trace {
        println!("  largest recent trace: id={id} root={name} events={n}");
    }

    // Phase 2b: a final delete followed by a quiescent collection pass, so
    // GC reclaim latency is always populated even when the concurrent
    // collector's passes kept missing the churn windows above.
    let txn = table.begin_maintenance().expect("begin maintenance");
    txn.execute_sql(
        "DELETE FROM DailySales WHERE city = 'City-001'",
        &Params::new(),
    )
    .expect("final delete");
    txn.commit().expect("commit");
    let gc_report = wh_vnl::gc::collect(&table).expect("gc pass");
    println!("final GC pass: {} reclaimed", gc_report.reclaimed);

    // Phase 3: a short §6 scheme comparison to populate the per-scheme
    // cc.* wait histograms.
    let keys = if cfg.quick { 64 } else { 256 };
    for scheme in all_schemes(keys) {
        let r = mixed_run(scheme.as_ref(), keys, 2, 32, 3);
        println!(
            "scheme {}: {} reads ok, {} blocks",
            r.scheme,
            r.reads_ok,
            r.cc.total_blocks()
        );
    }

    // Phase 4: scrape the introspection server.
    let server_ok = server_phase(sample_trace.map_or(0, |&(id, _, _)| id));

    // Phase 5: provoke a flight-recorder dump through a crashed txn.
    let (flight_dumped, flight_events) = flight_phase();

    if wh_obs::is_enabled() {
        assert!(server_ok, "introspection endpoints must answer 200");
        assert!(flight_dumped, "recovery must produce a flight dump");
    }

    let snap = wh_obs::registry::global().snapshot();

    if wh_obs::is_enabled() {
        println!("\n-- key distributions (ns unless noted) --");
        let rows = vec![
            hist_row(&snap, "vnl.reader.staleness_vns"),
            hist_row(&snap, "storage.latch.read_wait_ns"),
            hist_row(&snap, "storage.latch.write_wait_ns"),
            hist_row(&snap, "vnl.maintenance.update_ns"),
            hist_row(&snap, "vnl.maintenance.commit_ns"),
            hist_row(&snap, "vnl.gc.reclaim_ns"),
            hist_row(&snap, "cc.s2pl.reader_wait_ns"),
        ];
        print_table(&["metric", "count", "mean", "p50", "p99", "max"], &rows);
        println!(
            "\nreader staleness now {} (high water {}), GC reclaimed {} tuples, \
             decision arms: insert={} update_saving_pre={} mark_deleted={}",
            snap.gauge("vnl.reader.staleness"),
            snap.gauge_high_water("vnl.reader.staleness"),
            snap.counter("vnl.gc.reclaimed"),
            snap.counter("vnl.maintenance.arm.insert_tuple"),
            snap.counter("vnl.maintenance.arm.update_saving_pre"),
            snap.counter("vnl.maintenance.arm.mark_deleted"),
        );
    }

    let staleness = snap.histogram("vnl.reader.staleness_vns");
    doc.extend([
        ("reads_ok", reads_ok.into()),
        ("reader_sessions", sessions.into()),
        ("maintenance_commits", commits.into()),
        (
            "staleness",
            Json::obj([
                ("count", staleness.count().into()),
                ("mean", Json::Fixed(staleness.mean(), 3)),
                ("p50", staleness.quantile(0.5).into()),
                ("p99", staleness.quantile(0.99).into()),
                ("max", staleness.max.into()),
            ]),
        ),
        ("trace_events", wh_obs::trace::events_recorded().into()),
        ("recent_traces", (recent.len() as u64).into()),
        ("ring_wrapped", wh_obs::trace::any_ring_wrapped().into()),
        ("server_ok", server_ok.into()),
        ("flight_dumped", flight_dumped.into()),
        ("flight_dump_events", flight_events.into()),
        ("snapshot", Json::Raw(snap.to_json())),
    ]);
    json::write_report("BENCH_obs.json", &Json::obj(doc));

    check_overhead(baseline.as_deref(), &probes);
}

/// Compare this run's probe numbers against a compiled-out baseline JSON
/// and exit nonzero if the geometric-mean overhead exceeds the gate
/// (`WH_OBS_OVERHEAD_PCT`, default 5%). No-op without a baseline path.
fn check_overhead(baseline: Option<&str>, probes: &[(&'static str, f64)]) {
    let Some(path) = baseline else { return };
    let base_doc = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| json::parse(&text))
        .unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
    let gate_pct: f64 = std::env::var("WH_OBS_OVERHEAD_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5.0);
    println!("\noverhead check (geomean across probes, gate {gate_pct:.1}%):");
    let mut log_ratio_sum = 0.0;
    for (name, ms) in probes {
        let base =
            probe_ms(&base_doc, name).unwrap_or_else(|| panic!("baseline {path} missing {name}"));
        let ratio = ms / base;
        log_ratio_sum += ratio.ln();
        println!(
            "  {name:24} {ms:8.3} ms vs {base:8.3} ms ({:+.2}%)",
            (ratio - 1.0) * 100.0
        );
    }
    let geomean = (log_ratio_sum / probes.len() as f64).exp();
    let overhead_pct = (geomean - 1.0) * 100.0;
    println!("  geomean overhead {overhead_pct:+.2}%");
    if overhead_pct > gate_pct {
        eprintln!("FAIL: enabled-observability overhead exceeds the {gate_pct:.1}% gate");
        std::process::exit(1);
    }
    println!("overhead within gate");
}
