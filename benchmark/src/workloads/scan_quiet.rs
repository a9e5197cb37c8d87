//! `scan_quiet`: the analyst alone and the maintenance driver alone.
//!
//! Nothing contends. The window is cut into `CYCLES` cycles; in each, the
//! analyst runs leased sessions of the five-statement mix for three
//! quarters of the cycle (phase A) and then the driver commits fixed
//! batches back to back through the view maintainer for the last quarter
//! (phase B), collecting garbage every `GC_EVERY` commits. Reader metrics
//! come from A, `maint_*` from B. The two phases work on two copies of the
//! same in-memory 2VNL `DailySales` view, so the analyst always reads a
//! table nothing has touched since the load and its counts repeat exactly
//! from run to run. Alternating, rather than one long A and one short B,
//! lets both phases sample the whole window: the sandbox's slow blocks last
//! seconds, and a five-second phase can fall entirely inside one.

use super::{daily_def, view_keys, Sizes};
use crate::gen::{check_view, RollGen, Totals};
use crate::ladder;
use crate::run::{
    daily_sales_mix, final_gc, space_amp, timed_setup, Background, Cfg, Check, Outcome, Side, Stmt,
    Window,
};
use crate::stats::{cpu_seconds, Clock};
use std::time::Duration;
use wh_types::Row;
use wh_view::{summarize, SummaryViewDef, ViewMaintainer};
use wh_vnl::{VnlResult, VnlTable};

const TABLE: &str = "DailySales";
const GC_EVERY: u64 = 4;
const CYCLES: u64 = 20;

struct State {
    gen: RollGen,
    /// Read by the analyst, never maintained.
    read_table: VnlTable,
    /// Maintained by the driver, never read inside the window.
    maint_table: VnlTable,
    view_rows: Vec<Row>,
    /// Totals of the one version the analyst ever sees.
    read_totals: Totals,
    mix: Vec<Stmt>,
}

fn setup(cfg: &Cfg, sizes: &Sizes) -> VnlResult<State> {
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
    let load = || -> VnlResult<VnlTable> {
        let table = def.create_table(TABLE, 2)?;
        table.load_initial(&view_rows)?;
        Ok(table)
    };
    let (read_table, maint_table) = (load()?, load()?);
    let sum = view_rows.iter().map(|r| r[4].as_int().expect("sum")).sum();
    let read_totals = Totals::new(
        read_table.version().peek().current_vn,
        sum,
        view_rows.len() as i64,
    );
    let mix = daily_sales_mix(TABLE, gen.mid_date());
    // Warm: every statement once.
    let s = read_table.begin_session();
    for stmt in &mix {
        s.query_stmt(&stmt.parse()?)?;
    }
    s.finish();
    Ok(State {
        gen,
        read_table,
        maint_table,
        view_rows,
        read_totals,
        mix,
    })
}

/// Phase A: leased sessions of the mix until `win` closes.
fn analyst(st: &State, clock: &Clock, win: Window, side: &mut Side) {
    let hint = Duration::from_millis(100);
    while let Some(measured) = side.boundary(clock, win) {
        let mut session = None;
        for stmt in &st.mix {
            side.between(clock);
            let t0 = clock.now();
            let opened = session.is_none();
            let s = session.get_or_insert_with(|| st.read_table.begin_leased_session(hint));
            let m_begin = if opened { side.tracer.mark(clock) } else { 0 };
            let parsed = stmt.parse();
            let m_parse = side.tracer.mark(clock);
            let answer = parsed.and_then(|select| s.query_stmt(&select));
            let t1 = clock.now();
            if measured {
                let verdict = answer
                    .map_err(|e| format!("{}: {e}", stmt.name))
                    .and_then(|r| stmt.verify_at(&r, &st.read_totals, s.session_vn()));
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
        }
        if let Some(s) = session {
            s.finish();
        }
    }
}

/// The driver's state between its phase-B blocks.
struct Driver<'a> {
    st: &'a State,
    def: SummaryViewDef,
    maintainer: ViewMaintainer,
    committed: u64,
    bg: Background,
}

impl Driver<'_> {
    /// Phase B: back-to-back batches until `win` closes. Returns false
    /// when a transaction failed (the model and the table have parted ways).
    fn run(&mut self, clock: &Clock, win: Window, side: &mut Side) -> bool {
        while let Some(measured) = side.boundary(clock, win) {
            let batch = self.st.gen.batch(self.committed + 1);
            let due = clock.now();
            let tr = &side.tracer;
            let mut phases = [
                ("vnl.gc", 0),
                ("vnl.maint.begin", 0),
                ("view.summarize", 0),
                ("view.propagate", 0),
                ("vnl.commit", 0),
            ];
            let outcome = (|| -> VnlResult<()> {
                // GC runs inline, so it delays the transaction behind it.
                if self.committed > 0 && self.committed.is_multiple_of(GC_EVERY) {
                    let r = wh_vnl::gc::collect(&self.st.maint_table)?;
                    self.bg.note_gc(&r, self.st.maint_table.retired_backlog());
                    phases[0].1 = tr.mark(clock);
                }
                let txn = self.st.maint_table.begin_maintenance()?;
                phases[1].1 = tr.mark(clock);
                let groups = summarize(&batch.deltas, &self.def.group_cols, self.def.measure_col);
                phases[2].1 = tr.mark(clock);
                self.maintainer.propagate_deltas(&txn, &groups)?;
                phases[3].1 = tr.mark(clock);
                txn.commit()
            })();
            let end = clock.now();
            phases[4].1 = end;
            let outcome = outcome.map_err(|e| format!("batch {}: {e}", self.committed + 1));
            if !side.record_maint(
                measured,
                due,
                end,
                batch.deltas.len() as u64,
                outcome,
                &phases,
            ) {
                return false;
            }
            self.committed += 1;
        }
        true
    }
}

pub fn run(cfg: &Cfg) -> VnlResult<Outcome> {
    let sizes = Sizes::scan(cfg.quick);
    let (st, setup_s) = timed_setup(cfg.quick, || setup(cfg, &sizes))?;
    let clock = Clock::start();
    let mut read = Side::new(cfg.trace, "analyst", 1);
    let mut maint = Side::new(cfg.trace, "driver", 1);
    let mut driver = Driver {
        st: &st,
        def: daily_def(),
        maintainer: ViewMaintainer::new(daily_def()),
        committed: 0,
        bg: Background::default(),
    };

    // The phases take turns on this thread.
    let win = Window::after(clock.now(), cfg.warmup_s, cfg.seconds);
    // Warm-up: both phases once, unmeasured, in the window's 3:1 split.
    let warm_split = clock.now() + (win.warm_end - clock.now()) * 3 / 4;
    analyst(&st, &clock, win.warmup_until(warm_split), &mut read);
    let mut healthy = driver.run(&clock, win.warmup_until(win.warm_end), &mut maint);

    let registry = wh_obs::registry::global();
    let opened = clock.now();
    let cycle = (win.end - opened) / CYCLES;
    let registry_before = registry.snapshot();
    let cpu0 = cpu_seconds();
    for c in 0..CYCLES {
        let phase_a = win.until(opened + c * cycle + cycle * 3 / 4);
        analyst(&st, &clock, phase_a, &mut read);
        if healthy {
            healthy = driver.run(&clock, win.until(opened + (c + 1) * cycle), &mut maint);
        }
    }
    let (cpu_s, wall_s) = (cpu_seconds() - cpu0, (clock.now() - opened) as f64 / 1e9);
    let registry_delta = registry.snapshot().since(&registry_before);
    let Driver {
        committed, mut bg, ..
    } = driver;

    // After the window: final GC, storage cost, and the full-scan check.
    final_gc(&st.maint_table, &mut bg)?;
    let untouched = st.read_table.begin_session();
    let read_rows = untouched.scan()?;
    untouched.finish();
    let s = st.maint_table.begin_session();
    let rows = s.scan()?;
    s.finish();
    let checks = vec![
        Check {
            name: "read_copy_untouched",
            outcome: check_view(&read_rows, &st.gen.model_after(0), "the analyst's copy"),
        },
        Check {
            name: "final_scan_equals_model",
            outcome: check_view(&rows, &st.gen.model_after(committed), "the driver's copy"),
        },
    ];

    let mut ladder = None;
    if cfg.trace {
        let keys = view_keys(&st.view_rows, 2000);
        let mut l = ladder::read_rungs(&st.read_table, &st.mix, &keys, None)?;
        let batches: Vec<_> = (1..=st.gen.lag + 3)
            .map(|k| st.gen.batch(k).deltas)
            .collect();
        ladder::view_rungs(&mut l, &daily_def(), 2, &st.view_rows, &batches)?;
        ladder = Some(l);
    }
    // The storage cost is the maintained copy's: the other never changes.
    let space_amp = space_amp(&[&st.maint_table])?;
    let base_row_bytes = st.maint_table.layout().base_schema().payload_width();
    Ok(Outcome {
        setup_s,
        read,
        maint,
        reg_read: registry_delta.clone(),
        reg_maint: registry_delta,
        cpu_s,
        wall_s,
        bg,
        space_amp,
        checks,
        ladder,
        period_ms: None,
        base_row_bytes,
    })
}
