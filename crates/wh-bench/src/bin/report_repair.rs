//! Experiment E25 — session repair vs cursor restart under an expire storm.
//!
//! A long-running reader scan on bare 2VNL (`n = 2`, no pacer, no adaptive
//! window) holds its session across several maintenance commits, so most
//! attempts expire mid-scan. The two arms absorb those expirations
//! differently:
//!
//! * **restart-only** — the cursor-restart protocol: discard the partial
//!   buffer and rescan from scratch at a fresh VN, attempt after attempt,
//!   until one scan completes inside a maintenance gap.
//! * **repair** — repair-first: the expired attempt's result is rebuilt
//!   from the maintenance commits' retained net-effect deltas
//!   ([`wh_vnl::RepairEngine`]) and re-admitted at `currentVN`; restart
//!   remains only as the fallback when repair declines.
//!
//! Both arms run the same seeds, table, commit cadence, and mid-scan hold,
//! and both are held to the soak oracle: every answer must be one uniform
//! committed stamp — zero wrong answers, repaired or rescanned. The E25
//! acceptance criteria (process exits nonzero on failure): the repair arm
//! must actually repair, must discard strictly fewer buffered rows
//! (wasted work), and must show a strictly lower p99 read latency.
//!
//! `WH_BENCH_QUICK=1` shrinks seeds and volumes for CI.
#![allow(clippy::expect_used)]

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use wh_bench::json::{self, Json};
use wh_bench::print_table;
use wh_types::{Column, DataType, Row, Schema, Value};
use wh_vnl::{RepairEngine, RetryPolicy, VnlTable};

struct Config {
    seeds: Vec<u64>,
    keys: i64,
    commits: u32,
    readers: usize,
    reads_per_reader: u32,
    maintenance_gap: Duration,
}

impl Config {
    fn from_env() -> Config {
        let quick = std::env::var("WH_BENCH_QUICK").is_ok();
        Config {
            seeds: if quick {
                vec![11, 42, 1997]
            } else {
                vec![11, 42, 1997, 7, 23]
            },
            keys: if quick { 24 } else { 64 },
            commits: if quick { 300 } else { 600 },
            readers: 3,
            reads_per_reader: if quick { 20 } else { 40 },
            maintenance_gap: Duration::from_micros(200),
        }
    }
}

/// What one arm observed across every seed.
#[derive(Default)]
struct ArmTotals {
    reads_ok: u64,
    wrong_answers: u64,
    unexpected_errors: u64,
    retry_exhausted: u64,
    attempts: u64,
    expirations: u64,
    repaired: u64,
    restarted: u64,
    wasted_rows: u64,
    latencies_ns: Vec<u64>,
}

fn kv_schema() -> Schema {
    Schema::with_key_names(
        vec![
            Column::new("key", DataType::Int64),
            Column::updatable("value", DataType::Int64),
        ],
        &["key"],
    )
    .expect("static schema literal")
}

fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn percentile_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One arm on one seed: a stamping writer against timed, oracle-checked
/// reader scans that hold the session mid-scan to provoke expiration.
fn run_arm(cfg: &Config, seed: u64, repair: bool, totals: &mut ArmTotals) {
    let table = Arc::new(VnlTable::create_named("kv", kv_schema(), 2).expect("create table"));
    let rows: Vec<Row> = (0..cfg.keys)
        .map(|k| vec![Value::from(k), Value::from(0)])
        .collect();
    table.load_initial(&rows).expect("load");
    let committed: Arc<Mutex<BTreeSet<i64>>> = Arc::new(Mutex::new(BTreeSet::from([0])));

    let reads_ok = AtomicU64::new(0);
    let wrong = AtomicU64::new(0);
    let unexpected = AtomicU64::new(0);
    let exhausted = AtomicU64::new(0);
    let attempts = AtomicU64::new(0);
    let expirations = AtomicU64::new(0);
    let repaired = AtomicU64::new(0);
    let restarted = AtomicU64::new(0);
    let wasted_rows = AtomicU64::new(0);
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        // The single writer: stamp every value with the generation number.
        {
            let table = Arc::clone(&table);
            let committed = Arc::clone(&committed);
            let (commits, gap) = (cfg.commits, cfg.maintenance_gap);
            s.spawn(move || {
                for g in 1..=i64::from(commits) {
                    let txn = table.begin_maintenance().expect("begin maintenance");
                    txn.execute_sql(
                        &format!("UPDATE kv SET value = {g}"),
                        &wh_sql::Params::new(),
                    )
                    .expect("stamp update");
                    locked(&committed).insert(g);
                    txn.commit().expect("commit");
                    std::thread::sleep(gap);
                }
            });
        }

        for reader in 0..cfg.readers as u64 {
            let table = Arc::clone(&table);
            let committed = Arc::clone(&committed);
            let retry = RetryPolicy::default()
                .with_max_attempts(32)
                .with_backoff(Duration::from_micros(50), Duration::from_millis(2))
                .with_seed(seed ^ reader.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let (ok_c, wrong_c, unx_c, exh_c, att_c, exp_c, rep_c, rst_c, wst_c, lat) = (
                &reads_ok,
                &wrong,
                &unexpected,
                &exhausted,
                &attempts,
                &expirations,
                &repaired,
                &restarted,
                &wasted_rows,
                &latencies,
            );
            let keys = cfg.keys;
            s.spawn(move || {
                let engine = RepairEngine::new(&table);
                let rng = std::cell::RefCell::new(wh_types::SplitMix64::seed_from_u64(
                    seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ reader,
                ));
                for _ in 0..cfg.reads_per_reader {
                    let wasted = std::cell::Cell::new(0u64);
                    let started = Instant::now();
                    // A "long" read: scan, then on half the attempts dwell
                    // until three commits overtake the session — guaranteed
                    // expiry at n = 2 regardless of scheduler jitter — then
                    // scan again inside the same session. The restart arm's
                    // attempt count therefore goes geometric (a real
                    // latency tail) while repair resolves every expiration
                    // in one patch. The boolean is the serializability
                    // verdict (both scans identical); the repaired single
                    // row set is vacuously serial.
                    let op = |session: &wh_vnl::ReaderSession<'_>| {
                        let first = session.scan()?;
                        if rng.borrow_mut().chance(1, 2) {
                            let target = table.version().snapshot().current_vn + 3;
                            let deadline = Instant::now() + Duration::from_millis(100);
                            while table.version().snapshot().current_vn < target
                                && Instant::now() < deadline
                            {
                                std::thread::sleep(Duration::from_micros(50));
                            }
                        }
                        match session.scan() {
                            Ok(second) => {
                                let serial = second == first;
                                Ok((second, serial))
                            }
                            Err(e) => {
                                // The cursor-restart protocol discards the
                                // completed first pass; count what that cost.
                                wasted.set(wasted.get() + first.len() as u64);
                                Err(e)
                            }
                        }
                    };
                    let (res, stats) = if repair {
                        retry.run_repaired(&table, op, |svn| {
                            engine
                                .scan_at_current(svn)
                                .ok()
                                .flatten()
                                .map(|r| (r.rows, true))
                        })
                    } else {
                        retry.run_repaired(&table, op, |_| None)
                    };
                    let elapsed = started.elapsed().as_nanos() as u64;
                    att_c.fetch_add(u64::from(stats.attempts), Ordering::Relaxed);
                    exp_c.fetch_add(u64::from(stats.expirations), Ordering::Relaxed);
                    rep_c.fetch_add(u64::from(stats.repaired), Ordering::Relaxed);
                    rst_c.fetch_add(u64::from(stats.restarted), Ordering::Relaxed);
                    wst_c.fetch_add(wasted.get(), Ordering::Relaxed);
                    match res {
                        Ok((rows, serial)) => {
                            let uniform = rows.len() == keys as usize
                                && rows.windows(2).all(|w| w[0][1] == w[1][1]);
                            let stamp_ok = rows.first().is_some_and(|row| {
                                row[1]
                                    .as_int()
                                    .is_some_and(|v| locked(&committed).contains(&v))
                            });
                            if serial && uniform && stamp_ok {
                                ok_c.fetch_add(1, Ordering::Relaxed);
                                locked(lat).push(elapsed);
                            } else {
                                wrong_c.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(wh_vnl::VnlError::RetryExhausted { .. }) => {
                            exh_c.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            unx_c.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    totals.reads_ok += reads_ok.into_inner();
    totals.wrong_answers += wrong.into_inner();
    totals.unexpected_errors += unexpected.into_inner();
    totals.retry_exhausted += exhausted.into_inner();
    totals.attempts += attempts.into_inner();
    totals.expirations += expirations.into_inner();
    totals.repaired += repaired.into_inner();
    totals.restarted += restarted.into_inner();
    totals.wasted_rows += wasted_rows.into_inner();
    totals.latencies_ns.extend(
        latencies
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner),
    );
}

fn arm_json(t: &ArmTotals, p50: u64, p99: u64) -> Json {
    Json::obj([
        ("reads_ok", Json::UInt(t.reads_ok)),
        ("wrong_answers", Json::UInt(t.wrong_answers)),
        ("unexpected_errors", Json::UInt(t.unexpected_errors)),
        ("retry_exhausted", Json::UInt(t.retry_exhausted)),
        ("attempts", Json::UInt(t.attempts)),
        ("expirations", Json::UInt(t.expirations)),
        ("repaired", Json::UInt(t.repaired)),
        ("restarted", Json::UInt(t.restarted)),
        ("wasted_rows", Json::UInt(t.wasted_rows)),
        ("p50_read_us", Json::Fixed(p50 as f64 / 1_000.0, 1)),
        ("p99_read_us", Json::Fixed(p99 as f64 / 1_000.0, 1)),
    ])
}

fn main() {
    let cfg = Config::from_env();
    println!(
        "E25: session repair vs cursor restart under an expire storm\n\
         ({} seeds, {} keys, {} commits @ {:?} gap, {}×{} reads dwelling 3 commits \
         mid-scan on half the attempts, n = 2)\n",
        cfg.seeds.len(),
        cfg.keys,
        cfg.commits,
        cfg.maintenance_gap,
        cfg.readers,
        cfg.reads_per_reader,
    );

    let mut restart_only = ArmTotals::default();
    let mut repair = ArmTotals::default();
    for &seed in &cfg.seeds {
        run_arm(&cfg, seed, false, &mut restart_only);
        run_arm(&cfg, seed, true, &mut repair);
    }
    restart_only.latencies_ns.sort_unstable();
    repair.latencies_ns.sort_unstable();
    let (restart_p50, restart_p99) = (
        percentile_ns(&restart_only.latencies_ns, 0.50),
        percentile_ns(&restart_only.latencies_ns, 0.99),
    );
    let (repair_p50, repair_p99) = (
        percentile_ns(&repair.latencies_ns, 0.50),
        percentile_ns(&repair.latencies_ns, 0.99),
    );

    let fmt_arm = |name: &str, t: &ArmTotals, p50: u64, p99: u64| {
        vec![
            name.to_string(),
            t.reads_ok.to_string(),
            t.wrong_answers.to_string(),
            t.expirations.to_string(),
            t.repaired.to_string(),
            t.restarted.to_string(),
            t.wasted_rows.to_string(),
            format!("{:.1}", p50 as f64 / 1_000.0),
            format!("{:.1}", p99 as f64 / 1_000.0),
        ]
    };
    print_table(
        &[
            "arm",
            "reads_ok",
            "wrong",
            "expired",
            "repaired",
            "restarted",
            "wasted rows",
            "p50 µs",
            "p99 µs",
        ],
        &[
            fmt_arm("restart-only", &restart_only, restart_p50, restart_p99),
            fmt_arm("repair", &repair, repair_p50, repair_p99),
        ],
    );

    let wasted_reduction_pct = if restart_only.wasted_rows > 0 {
        (1.0 - repair.wasted_rows as f64 / restart_only.wasted_rows as f64) * 100.0
    } else {
        0.0
    };
    let p99_reduction_pct = if restart_p99 > 0 {
        (1.0 - repair_p99 as f64 / restart_p99 as f64) * 100.0
    } else {
        0.0
    };
    let correct = restart_only.wrong_answers == 0
        && restart_only.unexpected_errors == 0
        && repair.wrong_answers == 0
        && repair.unexpected_errors == 0;
    let engaged = repair.repaired > 0 && restart_only.repaired == 0;
    let less_waste = repair.wasted_rows < restart_only.wasted_rows;
    let faster_tail = repair_p99 < restart_p99;
    println!(
        "\nwasted rows: restart {} vs repair {} ({wasted_reduction_pct:.0}% reduction); \
         p99 read: {:.1}µs vs {:.1}µs ({p99_reduction_pct:.0}% reduction)",
        restart_only.wasted_rows,
        repair.wasted_rows,
        restart_p99 as f64 / 1_000.0,
        repair_p99 as f64 / 1_000.0,
    );
    println!(
        "verdict: {}",
        if correct && engaged && less_waste && faster_tail {
            "PASS — repair answers exactly with less wasted work and a shorter tail"
        } else {
            "FAIL — see gates below"
        }
    );

    let doc = Json::obj([
        ("experiment", Json::Str("E25-repair".into())),
        ("keys", Json::Int(cfg.keys)),
        ("commits", Json::UInt(u64::from(cfg.commits))),
        ("readers", Json::UInt(cfg.readers as u64)),
        ("seeds", Json::UInt(cfg.seeds.len() as u64)),
        (
            "restart_only",
            arm_json(&restart_only, restart_p50, restart_p99),
        ),
        ("repair", arm_json(&repair, repair_p50, repair_p99)),
        ("wasted_reduction_pct", Json::Fixed(wasted_reduction_pct, 1)),
        ("p99_reduction_pct", Json::Fixed(p99_reduction_pct, 1)),
        ("zero_wrong_answers", Json::Bool(correct)),
        ("repair_engaged", Json::Bool(engaged)),
        ("less_wasted_work", Json::Bool(less_waste)),
        ("faster_p99", Json::Bool(faster_tail)),
    ]);
    json::write_report("BENCH_repair.json", &doc);

    // E25 acceptance gates — a nonzero exit fails the CI job.
    assert!(
        correct,
        "E25 acceptance: zero wrong answers in both arms \
         (restart {restart_only:?} repair {repair:?} wrong/unexpected)",
        restart_only = (restart_only.wrong_answers, restart_only.unexpected_errors),
        repair = (repair.wrong_answers, repair.unexpected_errors),
    );
    assert!(
        engaged,
        "E25 acceptance: the repair arm must repair (repaired {} / restart-arm repaired {})",
        repair.repaired, restart_only.repaired
    );
    assert!(
        less_waste,
        "E25 acceptance: repair must discard fewer buffered rows ({} vs {})",
        repair.wasted_rows, restart_only.wasted_rows
    );
    assert!(
        faster_tail,
        "E25 acceptance: repair must shorten the p99 read tail ({repair_p99}ns vs {restart_p99}ns)"
    );
}
