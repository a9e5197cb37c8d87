//! Experiment E18 — parallel partitioned scan scaling.
//!
//! The §6 experiments argue 2VNL adds almost nothing to *reader* cost; this
//! report measures the other half of that bargain: how fast the reader hot
//! path goes when the heap scan is partitioned across threads, with Table 1
//! visibility evaluated on encoded bytes and projection pushdown. Three
//! workloads over a DailySales relation (paper Example 2.1), each at
//! 1/2/4/8 threads, each with and without an active maintenance
//! transaction (which double-slots a share of the tuples, so version
//! extraction really runs):
//!
//! * `scan` — full-relation visitor scan, all columns.
//! * `filter` — `WHERE total_sales >= :cutoff` with a 2-column projection,
//!   streamed through the SQL executor.
//! * `aggregate` — `GROUP BY product_line` SUM, folded into per-partition
//!   partial aggregate maps merged at the end.
//!
//! There is one reader pipeline (gather + branch-free classify + selective
//! decode), and one thread is its one-partition case, so the only
//! dimensions are workload × maintenance × threads. The E22 scalar-pipeline
//! column is historical (EXPERIMENTS.md); regressions are judged end to end
//! by `benchmark/`.
//!
//! Writes machine-readable results to `BENCH_scan.json` (override with
//! `WH_BENCH_OUT`). `WH_BENCH_QUICK=1` shrinks the relation and repeat
//! count for CI smoke runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use wh_bench::json::{self, Json};
use wh_bench::print_table;
use wh_sql::Params;
use wh_types::schema::daily_sales_schema;
use wh_types::{Date, Value};
use wh_vnl::VnlTable;

struct Config {
    cities: usize,
    lines: usize,
    days: usize,
    repeats: usize,
    quick: bool,
}

impl Config {
    fn from_env() -> Config {
        let quick = std::env::var("WH_BENCH_QUICK").is_ok();
        if quick {
            // 25 x 8 x 50 = 10k rows: enough pages to partition, fast in CI.
            Config {
                cities: 25,
                lines: 8,
                days: 50,
                repeats: 3,
                quick,
            }
        } else {
            // 125 x 16 x 50 = 100k rows, the ISSUE target size.
            Config {
                cities: 125,
                lines: 16,
                days: 50,
                repeats: 5,
                quick,
            }
        }
    }

    fn rows(&self) -> usize {
        self.cities * self.lines * self.days
    }
}

/// The 50 sale dates: Oct 1–25 and Nov 1–25, 1996 (paper's running window).
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

fn build_table(cfg: &Config) -> VnlTable {
    let t =
        VnlTable::create_named("DailySales", daily_sales_schema(), 2).expect("create DailySales");
    let dates = dates(cfg.days);
    let mut rows = Vec::with_capacity(cfg.rows());
    for c in 0..cfg.cities {
        for l in 0..cfg.lines {
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

/// Median wall-clock milliseconds of `repeats` runs of `f`.
fn median_ms(repeats: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

struct Measurement {
    workload: &'static str,
    maintenance_active: bool,
    threads: usize,
    median_ms: f64,
}

fn run_workloads(
    table: &VnlTable,
    cfg: &Config,
    maintenance_active: bool,
    expected_rows: usize,
    out: &mut Vec<Measurement>,
) {
    let session = table.begin_session();
    let filter_sql = "SELECT city, total_sales FROM DailySales WHERE total_sales >= 5000";
    let agg_sql = "SELECT product_line, SUM(total_sales) FROM DailySales GROUP BY product_line";

    for &threads in &[1usize, 2, 4, 8] {
        // Full scan: count rows through the visitor API.
        let ms = median_ms(cfg.repeats, || {
            let n = AtomicU64::new(0);
            session
                .scan_parallel(threads, |_, _| {
                    n.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                })
                .expect("scan");
            assert_eq!(n.load(Ordering::Relaxed) as usize, expected_rows);
        });
        out.push(Measurement {
            workload: "scan",
            maintenance_active,
            threads,
            median_ms: ms,
        });

        // Filtered scan through the streaming executor.
        let ms = median_ms(cfg.repeats, || {
            let r = session
                .query_parallel(filter_sql, threads)
                .expect("filter query");
            assert!(!r.rows.is_empty());
        });
        out.push(Measurement {
            workload: "filter",
            maintenance_active,
            threads,
            median_ms: ms,
        });

        // Grouped aggregate with per-partition partial maps.
        let ms = median_ms(cfg.repeats, || {
            let r = session
                .query_parallel(agg_sql, threads)
                .expect("aggregate query");
            assert_eq!(r.rows.len(), cfg.lines);
        });
        out.push(Measurement {
            workload: "aggregate",
            maintenance_active,
            threads,
            median_ms: ms,
        });
    }
    session.finish();
}

fn lookup_ms(results: &[Measurement], workload: &str, active: bool, threads: usize) -> f64 {
    results
        .iter()
        .find(|m| m.workload == workload && m.maintenance_active == active && m.threads == threads)
        .map_or(f64::NAN, |m| m.median_ms)
}

fn main() {
    let cfg = Config::from_env();
    println!(
        "E18: scan scaling ({} rows{})\n",
        cfg.rows(),
        if cfg.quick { ", quick mode" } else { "" }
    );

    let table = build_table(&cfg);
    let mut results: Vec<Measurement> = Vec::new();

    // Phase 1: quiescent relation, every tuple single-slotted.
    run_workloads(&table, &cfg, false, cfg.rows(), &mut results);

    // Phase 2: an active maintenance transaction has updated every tuple of
    // one city per 5 (20% of the relation double-slotted). The session is
    // pinned before the transaction began, so Table 1 routes it to the
    // pre-update slots — version extraction does real work.
    let txn = table.begin_maintenance().expect("begin maintenance");
    let mut touched = 0;
    for c in (0..cfg.cities).step_by(5) {
        touched += txn
            .execute_sql(
                &format!(
                    "UPDATE DailySales SET total_sales = total_sales + 1 \
                     WHERE city = 'City-{c:03}'"
                ),
                &Params::new(),
            )
            .expect("maintenance update");
    }
    println!("maintenance transaction active: {touched} tuples double-slotted\n");
    run_workloads(&table, &cfg, true, cfg.rows(), &mut results);
    txn.abort().expect("abort maintenance");

    // `speedup` scales against the same probe's 1-thread run.
    let speedup =
        |m: &Measurement| lookup_ms(&results, m.workload, m.maintenance_active, 1) / m.median_ms;
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|m| {
            vec![
                m.workload.to_string(),
                if m.maintenance_active { "yes" } else { "no" }.to_string(),
                m.threads.to_string(),
                format!("{:.2}", m.median_ms),
                format!("{:.2}x", speedup(m)),
            ]
        })
        .collect();
    print_table(
        &["workload", "maintenance", "threads", "median ms", "speedup"],
        &rows,
    );

    // Machine-readable JSON.
    let doc = Json::obj([
        ("experiment", "E18".into()),
        ("rows", cfg.rows().into()),
        ("quick", cfg.quick.into()),
        ("repeats", cfg.repeats.into()),
        (
            "results",
            Json::Array(
                results
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("workload", m.workload.into()),
                            ("maintenance_active", m.maintenance_active.into()),
                            ("threads", m.threads.into()),
                            ("median_ms", Json::Fixed(m.median_ms, 3)),
                            ("speedup_vs_1", Json::Fixed(speedup(m), 3)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    json::write_report("BENCH_scan.json", &doc);

    // The acceptance bar, reported (not asserted, so the binary stays
    // usable on small CI machines): >= 2x thread scaling at 4 threads on
    // the grouped aggregate, with and without active maintenance.
    for active in [false, true] {
        let phase = if active {
            "maintenance active"
        } else {
            "quiescent"
        };
        let base = lookup_ms(&results, "aggregate", active, 1);
        let at4 = lookup_ms(&results, "aggregate", active, 4);
        println!(
            "aggregate speedup at 4 threads ({phase}): {:.2}x",
            base / at4
        );
    }
}
