//! The four workloads. Names are fixed; later issues cite them.

pub mod durable_pressure;
pub mod maint_heavy;
pub mod mixed_online;
pub mod scan_quiet;

use crate::run::{Cfg, Outcome};
use wh_types::{Row, Value};
use wh_view::SummaryViewDef;
use wh_vnl::VnlResult;
use wh_workload::SalesGenerator;

/// What the harness knows about a workload beyond `BENCHMARK.json`: how each
/// side is driven (for the fingerprint) and where it starts.
pub struct Entry {
    pub name: &'static str,
    pub read_loop: &'static str,
    pub maint_loop: &'static str,
    pub run: fn(&Cfg) -> VnlResult<Outcome>,
}

pub const ENTRIES: [Entry; 4] = [
    Entry {
        name: "scan_quiet",
        read_loop:
            "closed, 1 analyst, leased sessions of 5 statements, alone for 3/4 of the window",
        maint_loop: "closed, back-to-back fixed batches, alone for 1/4 of the window",
        run: scan_quiet::run,
    },
    Entry {
        name: "mixed_online",
        read_loop: "closed, 1 analyst, warehouse sessions of 3 statements over two views",
        maint_loop:
            "open, fixed period, transaction held open for a stated share of it, GC every 4 commits",
        run: mixed_online::run,
    },
    Entry {
        name: "durable_pressure",
        read_loop: "closed, 1 analyst, one leased repair-first session per statement",
        maint_loop: "open, fixed period, checkpoint every 8 commits, GC after each checkpoint",
        run: durable_pressure::run,
    },
    Entry {
        name: "maint_heavy",
        read_loop: "closed, 1 analyst, one leased repair-first session per point read",
        maint_loop:
            "closed, back-to-back large batches over all nine Tables 2-4 arms, GC every 4 commits",
        run: maint_heavy::run,
    },
];

pub fn entry(name: &str) -> Option<&'static Entry> {
    ENTRIES.iter().find(|e| e.name == name)
}

/// Dimensions of a `RollGen`-fed `DailySales` view.
pub struct Sizes {
    pub cities: usize,
    pub lines: usize,
    pub days: usize,
    /// New-day groups and long-lived-group updates per batch.
    pub ins: usize,
    pub upd: usize,
}

impl Sizes {
    /// `scan_quiet`: 20 000 groups, so one statement takes 5–15 ms here;
    /// 300 source rows per batch.
    pub fn scan(quick: bool) -> Self {
        if quick {
            Sizes {
                cities: 10,
                lines: 4,
                days: 10,
                ins: 20,
                upd: 20,
            }
        } else {
            Sizes {
                cities: 40,
                lines: 10,
                days: 50,
                ins: 100,
                upd: 100,
            }
        }
    }

    /// `durable_pressure`: a smaller view (every scan faults most of its
    /// pages in) and small batches of 90 source rows.
    pub fn durable(quick: bool) -> Self {
        if quick {
            Sizes {
                cities: 10,
                lines: 4,
                days: 10,
                ins: 10,
                upd: 10,
            }
        } else {
            Sizes {
                cities: 40,
                lines: 10,
                days: 24,
                ins: 30,
                upd: 30,
            }
        }
    }
}

/// The `DailySales` view: sales grouped by city, state, product line, date.
pub fn daily_def() -> SummaryViewDef {
    SummaryViewDef::new(
        SalesGenerator::source_schema(),
        &["city", "state", "product_line", "date"],
        "amount",
        "total_sales",
    )
    .expect("static view definition")
}

/// Key-only probe rows for up to `n` of `view_rows`, spread evenly.
pub fn view_keys(view_rows: &[Row], n: usize) -> Vec<Row> {
    let step = (view_rows.len() / n.max(1)).max(1);
    view_rows
        .iter()
        .step_by(step)
        .map(|r| {
            let mut key = r.clone();
            let k = key.len() - 2;
            key[k] = Value::Null;
            key[k + 1] = Value::Null;
            key
        })
        .collect()
}
