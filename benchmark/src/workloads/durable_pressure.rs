//! `durable_pressure`: the disk tier with a pool smaller than the heap.
//!
//! One `durable::create_durable` table, n = 3, buffer pool a quarter of the
//! heap's pages, so every scan faults most pages in from the page file.
//! The driver is an open loop of small batches every `PERIOD_MS`, a fuzzy
//! checkpoint every `CKPT_EVERY` commits and a GC pass after each
//! checkpoint. The analyst sends each statement of the five-statement mix
//! through `RetryPolicy::query_repaired` (one leased session per
//! statement). After the window everything is dropped without a final
//! checkpoint and the table is recovered from disk: it must come back at
//! the last checkpoint's version, log-free.

use super::{daily_def, view_keys, Sizes};
use crate::gen::{check_view, RollGen, Totals};
use crate::ladder;
use crate::run::{
    daily_sales_mix, final_gc, run_concurrent, space_amp, timed_setup, Background, Cfg, Check,
    Outcome, Side, Stmt, Window,
};
use crate::stats::Clock;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use wh_types::{Row, RowCodec};
use wh_view::{summarize, ViewMaintainer};
use wh_vnl::{durable, ExtLayout, RetryPolicy, VnlResult, VnlTable};

const TABLE: &str = "DailySales";
const N: usize = 3;
pub const PERIOD_MS: f64 = 50.0;
const CKPT_EVERY: u64 = 8;

struct State {
    gen: RollGen,
    table: VnlTable,
    dir: PathBuf,
    capacity: usize,
    view_rows: Vec<Row>,
    totals: Totals,
    mix: Vec<Stmt>,
}

/// Pool capacity: a quarter of the pages `rows` rows will fill.
fn quarter_of_heap(rows: usize) -> VnlResult<usize> {
    let layout = ExtLayout::new(daily_def().summary_schema(), N)?;
    let record = RowCodec::new(layout.ext_schema().clone()).encoded_len();
    let pages = rows.div_ceil(wh_storage::PAGE_SIZE / record);
    Ok((pages / 4).max(2))
}

fn setup(cfg: &Cfg, sizes: &Sizes, dir: &Path) -> VnlResult<State> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| io_error(dir, &e))?;
    let gen = RollGen::new(
        cfg.seed,
        sizes.cities,
        sizes.lines,
        sizes.days,
        sizes.ins,
        sizes.upd,
    );
    let def = daily_def();
    let view_rows = def.initial_rows(&gen.initial_rows());
    let capacity = quarter_of_heap(view_rows.len())?;
    let table = durable::create_durable(TABLE, def.summary_schema(), N, dir, capacity)?;
    table.load_initial(&view_rows)?;
    durable::checkpoint(&table)?;
    let sum = view_rows.iter().map(|r| r[4].as_int().expect("sum")).sum();
    let totals = Totals::new(
        table.version().peek().current_vn,
        sum,
        view_rows.len() as i64,
    );
    let mix = daily_sales_mix(TABLE, gen.mid_date());
    let s = table.begin_session();
    for stmt in &mix {
        s.query_stmt(&stmt.parse()?)?;
    }
    s.finish();
    Ok(State {
        gen,
        table,
        dir: dir.to_path_buf(),
        capacity,
        view_rows,
        totals,
        mix,
    })
}

fn io_error(path: &Path, e: &std::io::Error) -> wh_vnl::VnlError {
    wh_vnl::VnlError::Storage(wh_storage::StorageError::Io(format!(
        "{}: {e}",
        path.display()
    )))
}

fn analyst(st: &State, policy: &RetryPolicy, clock: &Clock, win: Window, mut side: Side) -> Side {
    let version = st.table.version();
    for stmt in st.mix.iter().cycle() {
        let Some(measured) = side.boundary(clock, win) else {
            break;
        };
        // The helper opens its own session and does not report the
        // version it answered at: bracket the call instead.
        let vn_lo = version.peek().current_vn;
        let t0 = clock.now();
        let (answer, _stats) = policy.query_repaired(&st.table, &stmt.sql);
        let t1 = clock.now();
        if measured {
            let vn_hi = version.peek().current_vn;
            let verdict = answer
                .map_err(|e| format!("{}: {e}", stmt.name))
                .and_then(|r| stmt.verify_in(&r, &st.totals, vn_lo, vn_hi));
            side.done("op.read", t0, t1, 1, verdict, &[("vnl.query", t1)]);
        }
    }
    side
}

struct DriverOut {
    side: Side,
    bg: Background,
    committed: u64,
    /// Batches committed when the last checkpoint was taken.
    at_checkpoint: u64,
}

fn driver(st: &State, period_ms: f64, clock: &Clock, win: Window, mut side: Side) -> DriverOut {
    let maintainer = ViewMaintainer::new(daily_def());
    let def = maintainer.def().clone();
    let period = (period_ms * 1e6) as u64;
    let mut bg = Background::default();
    let origin = clock.now();
    let (mut committed, mut at_checkpoint) = (0u64, 0u64);
    for k in 0u64.. {
        let due = origin + k * period;
        if due >= win.end {
            break;
        }
        let batch = st.gen.batch(k + 1);
        let waited = clock.wait_until(due);
        let Some(measured) = side.boundary(clock, win) else {
            break;
        };
        let start = clock.now();
        let tr = &side.tracer;
        let mut phases = [
            ("client.late", start),
            ("vnl.maint.begin", 0),
            ("view.summarize", 0),
            ("view.propagate", 0),
            ("vnl.commit", 0),
        ];
        let outcome = (|| -> VnlResult<()> {
            let txn = st.table.begin_maintenance()?;
            phases[1].1 = tr.mark(clock);
            let groups = summarize(&batch.deltas, &def.group_cols, def.measure_col);
            phases[2].1 = tr.mark(clock);
            maintainer.propagate_deltas(&txn, &groups)?;
            phases[3].1 = tr.mark(clock);
            st.totals.push_delta(batch.d_sum, batch.d_groups);
            txn.commit()
        })();
        let end = clock.now();
        phases[4].1 = end;
        let outcome = outcome.map_err(|e| format!("batch {}: {e}", k + 1));
        if !side.record_maint(
            measured,
            due,
            end,
            batch.deltas.len() as u64,
            outcome,
            &phases,
        ) {
            break;
        }
        if measured {
            side.late.record(start - due);
            side.waited_ns += waited;
        }
        committed = k + 1;
        if committed % CKPT_EVERY == 0 {
            let t = Instant::now();
            let t_ckpt = clock.now();
            match durable::checkpoint(&st.table) {
                Ok(stats) => {
                    bg.note_ckpt(t.elapsed().as_nanos() as u64, stats.pages_flushed);
                    at_checkpoint = committed;
                }
                Err(e) => side.fail(format!("checkpoint after batch {committed}: {e}")),
            }
            let t_gc = clock.now();
            side.tracer.root("vnl.checkpoint", t_ckpt, t_gc);
            match wh_vnl::gc::collect(&st.table) {
                Ok(r) => bg.note_gc(&r, st.table.retired_backlog()),
                Err(e) => side.fail(format!("gc after batch {committed}: {e}")),
            }
            side.tracer.root("vnl.gc", t_gc, clock.now());
        }
    }
    side.pause(clock);
    DriverOut {
        side,
        bg,
        committed,
        at_checkpoint,
    }
}

pub fn run(cfg: &Cfg) -> VnlResult<Outcome> {
    let dir = cfg
        .out_dir
        .join(format!("durable_pressure.{}", std::process::id()));
    let outcome = run_in(cfg, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

fn run_in(cfg: &Cfg, dir: &Path) -> VnlResult<Outcome> {
    let sizes = Sizes::durable(cfg.quick);
    let period_ms = if cfg.quick { 25.0 } else { PERIOD_MS };
    let (st, setup_s) = timed_setup(cfg.quick, || setup(cfg, &sizes, dir))?;
    let policy = RetryPolicy::default()
        .with_lease_hint(Duration::from_millis(50))
        .with_seed(cfg.seed);
    let clock = Clock::start();
    let win = Window::after(clock.now(), cfg.warmup_s, cfg.seconds);
    let read = Side::new(cfg.trace, "analyst", 1);
    let maint = Side::new(cfg.trace, "driver", 1);
    let both = run_concurrent(
        &clock,
        win,
        || analyst(&st, &policy, &clock, win, read),
        || driver(&st, period_ms, &clock, win, maint),
    );
    let DriverOut {
        side: maint,
        mut bg,
        committed,
        at_checkpoint,
    } = both.driver;

    // Reclamation on a durable table stops at the last checkpoint's
    // version, so this final pass reclaims what that checkpoint allows.
    final_gc(&st.table, &mut bg)?;
    let space = space_amp(&[&st.table])?;
    let s = st.table.begin_session();
    let rows = s.scan()?;
    s.finish();
    let mut checks = vec![Check {
        name: "final_scan_equals_model",
        outcome: check_view(&rows, &st.gen.model_after(committed), TABLE),
    }];

    let mut ladder = None;
    if cfg.trace {
        let keys = view_keys(&st.view_rows, 2000);
        let mut l = ladder::read_rungs(&st.table, &st.mix, &keys, None)?;
        let batches: Vec<_> = (1..=st.gen.lag + 3)
            .map(|k| st.gen.batch(k).deltas)
            .collect();
        ladder::view_rungs(&mut l, &daily_def(), N, &st.view_rows, &batches)?;
        ladder = Some(l);
    }

    // Restart: no final checkpoint, no flush — whatever the steal policy
    // let reach the page file is all recovery gets.
    let State {
        gen,
        table,
        dir,
        capacity,
        ..
    } = st;
    let base_row_bytes = table.layout().base_schema().payload_width();
    let vn_at_checkpoint = table.version().peek().current_vn - (committed - at_checkpoint);
    drop(table);
    let t = Instant::now();
    let (reopened, report) =
        durable::recover_from_disk(TABLE, daily_def().summary_schema(), N, &dir, capacity)?;
    bg.recover_ms = t.elapsed().as_secs_f64() * 1e3;
    let s = reopened.begin_session();
    let rows = s.scan()?;
    s.finish();
    checks.push(Check {
        name: "restart_equals_last_checkpoint",
        outcome: if report.checkpoint_vn != vn_at_checkpoint {
            Err(format!(
                "recovered at version {}, last checkpoint was {vn_at_checkpoint}",
                report.checkpoint_vn
            ))
        } else {
            check_view(
                &rows,
                &gen.model_after(at_checkpoint),
                "recovered DailySales",
            )
        },
    });
    checks.push(Check {
        name: "restart_wrote_no_log",
        outcome: (report.recovery.log_writes == 0)
            .then_some(())
            .ok_or_else(|| format!("{} log writes", report.recovery.log_writes)),
    });

    Ok(Outcome {
        setup_s,
        read: both.reader,
        maint,
        reg_read: both.registry.clone(),
        reg_maint: both.registry,
        cpu_s: both.cpu_s,
        wall_s: both.wall_s,
        bg,
        space_amp: space,
        checks,
        ladder,
        period_ms: Some(period_ms),
        base_row_bytes,
    })
}
