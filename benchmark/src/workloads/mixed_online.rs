//! `mixed_online`: the paper's scenario.
//!
//! An in-memory `Warehouse` holds a fine view (city × product line × date)
//! and a coarse view (state × month) under one `VersionState`, n = 2. The
//! driver is an open loop: every `PERIOD_MS` it opens a warehouse
//! transaction, feeds one `SalesGenerator` day (plus the retirement of the
//! oldest day, so the views keep their size) through the view maintainer
//! in `CHUNKS` paced slices, holds the transaction open until `HOLD` of the
//! period has passed, and commits; every `GC_EVERY` commits it collects
//! garbage. The analyst runs warehouse sessions of three statements that
//! span both views. Warehouse sessions carry no lease or retry policy, so
//! the harness restarts an expired session itself and charges the time to
//! the statement that hit the expiration.

use crate::gen::{apply_to_shadow, check_view, Shadow, Totals};
use crate::ladder;
use crate::run::{
    run_concurrent, space_amp, timed_setup, Background, Cfg, Check, Expect, Outcome, Side, Stmt,
    Window,
};
use crate::stats::Clock;
use std::collections::VecDeque;
use wh_types::{Column, DataType, Date, Row, Schema, Value};
use wh_view::{summarize, SourceDelta, SummaryViewDef, ViewMaintainer};
use wh_vnl::{VnlError, VnlResult, VnlTable, Warehouse, WarehouseBuilder};
use wh_workload::{SalesConfig, SalesGenerator};

const FINE: &str = "FineSales";
const COARSE: &str = "CoarseSales";
pub const PERIOD_MS: f64 = 250.0;
/// Share of the period the maintenance transaction stays open.
pub const HOLD: f64 = 0.9;
const CHUNKS: usize = 8;
const GC_EVERY: u64 = 4;
/// Restarts allowed per statement before it counts as failed.
const MAX_RESTARTS: usize = 4;

/// The sales source widened by the month the coarse view groups on.
fn wide_schema() -> Schema {
    let mut cols = SalesGenerator::source_schema().columns().to_vec();
    cols.push(Column::new("month", DataType::Int32));
    Schema::new(cols).expect("static schema")
}

fn widen(mut row: Row) -> Row {
    let d = row[3].as_date().expect("sale date");
    row.push(Value::from(
        i64::from(d.year()) * 100 + i64::from(d.month()),
    ));
    row
}

fn fine_def() -> SummaryViewDef {
    SummaryViewDef::new(
        wide_schema(),
        &["city", "product_line", "date"],
        "amount",
        "total_sales",
    )
    .expect("static view definition")
}

fn coarse_def() -> SummaryViewDef {
    SummaryViewDef::new(wide_schema(), &["state", "month"], "amount", "total_sales")
        .expect("static view definition")
}

/// The generator plus the sales still inside the rolling window of days.
struct Feed {
    gen: SalesGenerator,
    live: VecDeque<(Date, Vec<Row>)>,
}

impl Feed {
    fn new(seed: u64, sales_per_day: usize) -> Self {
        Feed {
            gen: SalesGenerator::new(
                SalesConfig {
                    sales_per_day,
                    seed,
                    ..SalesConfig::default()
                },
                Date::ymd(1996, 1, 1),
            ),
            live: VecDeque::new(),
        }
    }

    /// The next day's deltas. A correction whose sale has already left the
    /// window is dropped: its group is gone from the fine view, and
    /// applying it to the coarse view alone would pull the two apart.
    fn next_day(&mut self) -> Vec<SourceDelta> {
        let mut out = Vec::new();
        let mut today = Vec::new();
        let date = self.gen.current_day();
        for delta in self.gen.next_day() {
            match delta {
                SourceDelta::Insert(r) => {
                    let w = widen(r);
                    today.push(w.clone());
                    out.push(SourceDelta::Insert(w));
                }
                SourceDelta::Delete(r) => {
                    let w = widen(r);
                    let day = w[3].as_date().expect("sale date");
                    let rows = if day == date {
                        Some(&mut today)
                    } else {
                        self.live
                            .iter_mut()
                            .find(|(d, _)| *d == day)
                            .map(|(_, rows)| rows)
                    };
                    if let Some(i) = rows.as_ref().and_then(|rs| rs.iter().position(|x| *x == w)) {
                        rows.expect("found above").swap_remove(i);
                        out.push(SourceDelta::Delete(w));
                    }
                }
            }
        }
        self.live.push_back((date, today));
        out
    }

    /// Retract every sale of the oldest day in the window.
    fn retire_oldest(&mut self) -> impl Iterator<Item = SourceDelta> {
        let (_, rows) = self.live.pop_front().expect("window is never empty");
        rows.into_iter().map(SourceDelta::Delete)
    }
}

/// The feed and the model of both views, kept in step batch by batch.
struct Model {
    feed: Feed,
    fine: Shadow,
    coarse: Shadow,
}

/// One transaction's input and its net effect on the views' totals.
#[derive(Default)]
struct Prepared {
    batch: Vec<SourceDelta>,
    d_sum: i64,
    d_fine: i64,
    d_coarse: i64,
}

impl Model {
    /// The next batch — a new day in, the oldest day out — applied to the
    /// model ahead of the transaction that will carry it.
    fn prepare(&mut self) -> Prepared {
        let mut batch = self.feed.next_day();
        batch.extend(self.feed.retire_oldest());
        let (f0, c0) = (self.fine.len() as i64, self.coarse.len() as i64);
        let (fine, coarse) = (fine_def(), coarse_def());
        apply_to_shadow(&mut self.fine, &batch, &fine.group_cols, fine.measure_col);
        apply_to_shadow(
            &mut self.coarse,
            &batch,
            &coarse.group_cols,
            coarse.measure_col,
        );
        let d_sum = batch
            .iter()
            .map(|d| match d {
                SourceDelta::Insert(r) => r[4].as_int().expect("amount"),
                SourceDelta::Delete(r) => -r[4].as_int().expect("amount"),
            })
            .sum();
        Prepared {
            d_sum,
            d_fine: self.fine.len() as i64 - f0,
            d_coarse: self.coarse.len() as i64 - c0,
            batch,
        }
    }

    /// Undo [`Model::prepare`] for a batch that was never applied.
    fn unprepare(&mut self, p: &Prepared) {
        let inverse: Vec<SourceDelta> = p
            .batch
            .iter()
            .rev()
            .map(|d| match d {
                SourceDelta::Insert(r) => SourceDelta::Delete(r.clone()),
                SourceDelta::Delete(r) => SourceDelta::Insert(r.clone()),
            })
            .collect();
        let (fine, coarse) = (fine_def(), coarse_def());
        apply_to_shadow(&mut self.fine, &inverse, &fine.group_cols, fine.measure_col);
        apply_to_shadow(
            &mut self.coarse,
            &inverse,
            &coarse.group_cols,
            coarse.measure_col,
        );
    }
}

struct Sizes {
    days: usize,
    sales_per_day: usize,
    period_ms: f64,
}

impl Sizes {
    /// 100 days of 500 sales: about 24 000 fine groups, sized like
    /// `scan_quiet` so the two can be compared.
    fn pick(quick: bool) -> Self {
        if quick {
            Sizes {
                days: 10,
                sales_per_day: 100,
                period_ms: 50.0,
            }
        } else {
            Sizes {
                days: 100,
                sales_per_day: 500,
                period_ms: PERIOD_MS,
            }
        }
    }
}

struct State {
    model: Model,
    warehouse: Warehouse,
    fine_rows: Vec<Row>,
    fine_totals: Totals,
    coarse_totals: Totals,
    /// Two statement triplets; sessions alternate between them. The coarse
    /// view comes last: every transaction rewrites its few groups, so a
    /// session that began under the previous version finds them moved on.
    mix: [Vec<Stmt>; 2],
}

fn shadow_sum(s: &Shadow) -> i64 {
    s.values().map(|v| v.0).sum()
}

fn setup(cfg: &Cfg, sizes: &Sizes) -> VnlResult<State> {
    let mut feed = Feed::new(cfg.seed, sizes.sales_per_day);
    for _ in 0..sizes.days {
        feed.next_day();
    }
    let source: Vec<Row> = feed
        .live
        .iter()
        .flat_map(|(_, rows)| rows.iter().cloned())
        .collect();
    let (fine, coarse) = (fine_def(), coarse_def());
    let warehouse = WarehouseBuilder::new()?
        .table(FINE, fine.summary_schema(), 2)?
        .table(COARSE, coarse.summary_schema(), 2)?
        .build();
    let fine_rows = fine.initial_rows(&source);
    warehouse.table(FINE)?.load_initial(&fine_rows)?;
    warehouse
        .table(COARSE)?
        .load_initial(&coarse.initial_rows(&source))?;

    let loaded: Vec<SourceDelta> = source.into_iter().map(SourceDelta::Insert).collect();
    let (mut fine_shadow, mut coarse_shadow) = (Shadow::new(), Shadow::new());
    apply_to_shadow(
        &mut fine_shadow,
        &loaded,
        &fine.group_cols,
        fine.measure_col,
    );
    apply_to_shadow(
        &mut coarse_shadow,
        &loaded,
        &coarse.group_cols,
        coarse.measure_col,
    );
    let vn = warehouse.version().peek().current_vn;
    let fine_totals = Totals::new(vn, shadow_sum(&fine_shadow), fine_shadow.len() as i64);
    let coarse_totals = Totals::new(vn, shadow_sum(&coarse_shadow), coarse_shadow.len() as i64);

    let mid = feed.live[feed.live.len() / 2].0;
    let mid = format!("{:04}-{:02}-{:02}", mid.year(), mid.month(), mid.day());
    let s = |name, table, sql: String, cols: &[usize], expect| Stmt {
        name,
        sql,
        table,
        cols: cols.to_vec(),
        expect,
    };
    let mix = [
        vec![
            s(
                "q_rollup",
                FINE,
                format!("SELECT product_line, SUM(total_sales) FROM {FINE} GROUP BY product_line"),
                &[1, 3],
                Expect::RollupSum,
            ),
            s(
                "q_count",
                FINE,
                format!("SELECT COUNT(*) FROM {FINE}"),
                &[],
                Expect::Count,
            ),
            s(
                "q_total_coarse",
                COARSE,
                format!("SELECT SUM(total_sales) FROM {COARSE}"),
                &[2],
                Expect::Sum,
            ),
        ],
        vec![
            s(
                "q_filter_push",
                FINE,
                format!("SELECT COUNT(*), SUM(total_sales) FROM {FINE} WHERE date >= DATE '{mid}'"),
                &[2, 3],
                Expect::Unchecked,
            ),
            s(
                "q_total",
                FINE,
                format!("SELECT SUM(total_sales) FROM {FINE}"),
                &[3],
                Expect::Sum,
            ),
            s(
                "q_rollup_coarse",
                COARSE,
                format!("SELECT state, SUM(total_sales) FROM {COARSE} GROUP BY state"),
                &[0, 2],
                Expect::RollupSum,
            ),
        ],
    ];
    // Warm: every statement once.
    let ws = warehouse.begin_session();
    for stmt in mix.iter().flatten() {
        ws.on(stmt.table)?.query_stmt(&stmt.parse()?)?;
    }
    ws.finish();
    Ok(State {
        model: Model {
            feed,
            fine: fine_shadow,
            coarse: coarse_shadow,
        },
        warehouse,
        fine_rows,
        fine_totals,
        coarse_totals,
        mix,
    })
}

fn analyst(
    warehouse: &Warehouse,
    mix: &[Vec<Stmt>; 2],
    totals: (&Totals, &Totals),
    clock: &Clock,
    win: Window,
    mut side: Side,
) -> Side {
    for round in 0usize.. {
        let Some(measured) = side.boundary(clock, win) else {
            break;
        };
        let mut session = None;
        for stmt in &mix[round % 2] {
            side.between(clock);
            let t0 = clock.now();
            let opened = session.is_none();
            let mut ws = session.take().unwrap_or_else(|| warehouse.begin_session());
            let m_begin = if opened { side.tracer.mark(clock) } else { 0 };
            let parsed = stmt.parse();
            let m_parse = side.tracer.mark(clock);
            let mut answer = parsed.and_then(|select| {
                let mut restarts = 0;
                loop {
                    match ws.on(stmt.table)?.query_stmt(&select) {
                        Err(VnlError::SessionExpired { .. }) if restarts < MAX_RESTARTS => {
                            restarts += 1;
                            let fresh = warehouse.begin_session();
                            std::mem::replace(&mut ws, fresh).finish();
                        }
                        other => return other,
                    }
                }
            });
            let t1 = clock.now();
            if measured {
                let of = if stmt.table == FINE {
                    totals.0
                } else {
                    totals.1
                };
                let verdict = answer
                    .as_mut()
                    .map_err(|e| format!("{}: {e}", stmt.name))
                    .and_then(|r| stmt.verify_at(r, of, ws.session_vn()));
                side.done(
                    "op.read",
                    t0,
                    t1,
                    1,
                    verdict,
                    &[
                        ("vnl.session_begin", m_begin),
                        ("sql.parse", m_parse),
                        ("vnl.query", t1),
                    ],
                );
            }
            session = Some(ws);
        }
        if let Some(ws) = session {
            ws.finish();
        }
    }
    side
}

struct DriverOut {
    side: Side,
    bg: Background,
    model: Model,
}

fn driver(
    warehouse: &Warehouse,
    mut model: Model,
    totals: (&Totals, &Totals),
    period_ms: f64,
    clock: &Clock,
    win: Window,
    mut side: Side,
) -> DriverOut {
    let (fine, coarse) = (fine_def(), coarse_def());
    let (fine_m, coarse_m) = (
        ViewMaintainer::new(fine.clone()),
        ViewMaintainer::new(coarse.clone()),
    );
    let period = (period_ms * 1e6) as u64;
    let hold = (period_ms * HOLD * 1e6) as u64;
    let mut bg = Background::default();
    let origin = clock.now();
    let mut phases: Vec<(&'static str, u64)> = Vec::with_capacity(8 + 3 * CHUNKS);
    let mut next = model.prepare();
    for k in 0u64.. {
        let due = origin + k * period;
        if due >= win.end {
            break;
        }
        let mut waited = clock.wait_until(due);
        let Some(measured) = side.boundary(clock, win) else {
            break;
        };
        let start = clock.now();
        let tr = &side.tracer;
        phases.clear();
        phases.push(("client.late", start));
        let rows = next.batch.len() as u64;
        let outcome = (|| -> VnlResult<()> {
            let txn = warehouse.begin_maintenance()?;
            phases.push(("vnl.maint.begin", tr.mark(clock)));
            let cur = std::mem::take(&mut next);
            let chunk = cur.batch.len().div_ceil(CHUNKS);
            for (i, slice) in cur.batch.chunks(chunk).enumerate() {
                waited += clock.wait_until(due + hold * i as u64 / CHUNKS as u64);
                phases.push(("client.hold", tr.mark(clock)));
                let fine_groups = summarize(slice, &fine.group_cols, fine.measure_col);
                let coarse_groups = summarize(slice, &coarse.group_cols, coarse.measure_col);
                phases.push(("view.summarize", tr.mark(clock)));
                fine_m.propagate_deltas(txn.on(FINE)?, &fine_groups)?;
                coarse_m.propagate_deltas(txn.on(COARSE)?, &coarse_groups)?;
                phases.push(("view.propagate", tr.mark(clock)));
                if i > 0 {
                    continue;
                }
                // The rest of the hold is idle: collect garbage and get the
                // next batch ready here, so neither makes the next
                // transaction late.
                if k > 0 && k % GC_EVERY == 0 {
                    let r = warehouse.collect_garbage()?;
                    bg.note_gc(&r, warehouse.tables().map(VnlTable::retired_backlog).sum());
                    phases.push(("vnl.gc", tr.mark(clock)));
                }
                next = model.prepare();
                phases.push(("client.prepare", tr.mark(clock)));
            }
            waited += clock.wait_until(due + hold);
            phases.push(("client.hold", tr.mark(clock)));
            totals.0.push_delta(cur.d_sum, cur.d_fine);
            totals.1.push_delta(cur.d_sum, cur.d_coarse);
            txn.commit()
        })();
        let end = clock.now();
        phases.push(("vnl.commit", end));
        let outcome = outcome.map_err(|e| format!("transaction {k}: {e}"));
        if !side.record_maint(measured, due, end, rows, outcome, &phases) {
            break;
        }
        if measured {
            side.late.record(start - due);
            side.waited_ns += waited;
        }
    }
    side.pause(clock);
    // The batch prepared last was never applied: take it back out of the model.
    model.unprepare(&next);
    DriverOut { side, bg, model }
}

pub fn run(cfg: &Cfg) -> VnlResult<Outcome> {
    let sizes = Sizes::pick(cfg.quick);
    let (st, setup_s) = timed_setup(cfg.quick, || setup(cfg, &sizes))?;
    let State {
        model,
        warehouse,
        fine_rows,
        fine_totals,
        coarse_totals,
        mix,
    } = st;
    let clock = Clock::start();
    let win = Window::after(clock.now(), cfg.warmup_s, cfg.seconds);
    let totals = (&fine_totals, &coarse_totals);
    let read = Side::new(cfg.trace, "analyst", 1);
    let maint = Side::new(cfg.trace, "driver", 1);
    let both = run_concurrent(
        &clock,
        win,
        || analyst(&warehouse, &mix, totals, &clock, win, read),
        || {
            driver(
                &warehouse,
                model,
                totals,
                sizes.period_ms,
                &clock,
                win,
                maint,
            )
        },
    );
    let DriverOut {
        side: maint,
        mut bg,
        model,
    } = both.driver;
    let (fine_shadow, coarse_shadow) = (&model.fine, &model.coarse);

    let r = warehouse.collect_garbage()?;
    bg.note_gc(&r, warehouse.tables().map(|t| t.retired_backlog()).sum());
    let ws = warehouse.begin_session();
    let fine_scan = ws.on(FINE)?.scan()?;
    let coarse_scan = ws.on(COARSE)?.scan()?;
    ws.finish();
    let checks = vec![
        Check {
            name: "final_scan_equals_model",
            outcome: check_view(&fine_scan, fine_shadow, FINE)
                .and_then(|()| check_view(&coarse_scan, coarse_shadow, COARSE)),
        },
        Check {
            name: "views_agree_on_total",
            outcome: (shadow_sum(fine_shadow) == shadow_sum(coarse_shadow))
                .then_some(())
                .ok_or_else(|| "fine and coarse models disagree".to_string()),
        },
    ];

    let fine_table = warehouse.table(FINE)?;
    let mut ladder = None;
    if cfg.trace {
        let stmts: Vec<Stmt> = mix
            .into_iter()
            .flatten()
            .filter(|s| s.table == FINE)
            .collect();
        let keys = super::view_keys(&fine_rows, 2000);
        let mut l = ladder::read_rungs(fine_table, &stmts, &keys, None)?;
        // Scratch copies start from the loaded state, so replay the feed
        // from the same seed for batches that fit it.
        let mut fresh = Feed::new(cfg.seed, sizes.sales_per_day);
        for _ in 0..sizes.days {
            fresh.next_day();
        }
        let batches: Vec<Vec<SourceDelta>> = (0..3)
            .map(|_| {
                let mut b = fresh.next_day();
                b.extend(fresh.retire_oldest());
                b
            })
            .collect();
        ladder::view_rungs(&mut l, &fine_def(), 2, &fine_rows, &batches)?;
        ladder = Some(l);
    }
    let space_amp = space_amp(&[fine_table, warehouse.table(COARSE)?])?;
    let base_row_bytes = fine_table.layout().base_schema().payload_width();
    Ok(Outcome {
        setup_s,
        read: both.reader,
        maint,
        reg_read: both.registry.clone(),
        reg_maint: both.registry,
        cpu_s: both.cpu_s,
        wall_s: both.wall_s,
        bg,
        space_amp,
        checks,
        ladder,
        period_ms: Some(sizes.period_ms),
        base_row_bytes,
    })
}
