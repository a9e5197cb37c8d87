//! What every workload shares: run configuration, the measured window, the
//! per-side recorders, the two-thread scaffold, and the statement mix with
//! its answer checks.

use crate::gen::Totals;
use crate::ladder::Ladder;
use crate::stats::{self, Clock, LatHist, Reference};
use crate::trace::Tracer;
use std::path::PathBuf;
use wh_obs::Snapshot;
use wh_sql::{parse_statement, QueryResult, SelectStmt, Statement};
use wh_types::Date;
use wh_vnl::{VnlResult, VnlTable};

pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub warmup_s: f64,
    pub trace: bool,
    pub quick: bool,
    pub out_dir: PathBuf,
}

/// The measured window on the run clock. Each side starts and stops on its
/// own operation boundary at or after these instants and reports the span
/// it actually observed.
#[derive(Clone, Copy)]
pub struct Window {
    pub warm_end: u64,
    pub end: u64,
    /// Recorder on/off slices of the traced run: short, so both kinds see
    /// the same machine, and a 97th of the window each, so they drift
    /// against the drivers' periods instead of always hiding the same
    /// transactions (every fourth one collects garbage).
    trace_slice_ns: u64,
}

impl Window {
    pub fn after(start_ns: u64, warmup_s: f64, seconds: f64) -> Self {
        let warm_end = start_ns + (warmup_s * 1e9) as u64;
        let span = (seconds * 1e9) as u64;
        Window {
            warm_end,
            end: warm_end + span,
            trace_slice_ns: span / 97,
        }
    }

    /// The part of this window that ends at `end` (a phase of it).
    pub fn until(self, end: u64) -> Self {
        Window { end, ..self }
    }

    /// An unmeasured stretch of work that ends at `end`.
    pub fn warmup_until(self, end: u64) -> Self {
        Window {
            warm_end: u64::MAX,
            end,
            ..self
        }
    }
}

/// A side probes the machine between operations when its last probe is at
/// least this old: every operation on the scan workloads, every thousand or
/// so point reads on `maint_heavy` (2–3 % of the side's time).
const PROBE_EVERY_NS: u64 = 2_000_000;

/// What a side did over some part of its window.
#[derive(Default)]
pub struct Tally {
    /// Latency of the successful operations.
    pub lat: LatHist,
    /// Reader: successful operations. Driver: source rows committed.
    pub units: u64,
    /// Wall time the side spent to get `units` done, harness glue between
    /// operations included, probes excluded.
    pub interval_ns: u64,
}

impl Tally {
    fn add(&mut self, latency_ns: u64, units: u64) {
        self.lat.record(latency_ns);
        self.units += units;
    }

    pub fn per_s(&self) -> f64 {
        if self.interval_ns == 0 {
            0.0
        } else {
            self.units as f64 * 1e9 / self.interval_ns as f64
        }
    }
}

/// The operations since the last probe, waiting for the next one.
struct Stretch {
    start_ns: u64,
    opening_probe_ns: u64,
}

/// One side (analyst or maintenance driver) of a run.
///
/// The side's window is a chain of stretches, each between two probes of
/// the reference loop (`stats::Reference`). A stretch counts when both probes
/// ran at full speed; otherwise a neighbour had the core and the stretch is
/// unresolved: it would measure the neighbour. The probe knows nothing of
/// the operations between, so a slow operation on a free core always counts.
pub struct Side {
    /// The stretches that passed the environment check.
    pub resolved: Tally,
    /// Every stretch, whatever the check said.
    pub whole: Tally,
    reference: Reference,
    stretch: Option<Stretch>,
    /// `(latency, units)` of the open stretch's successful operations.
    pending: Vec<(u64, u64)>,
    opened: bool,
    /// Open-loop lateness: operation start minus due time.
    pub late: LatHist,
    /// Time an open-loop driver spent waiting for its due times.
    pub waited_ns: u64,
    pub attempts: u64,
    pub failed: u64,
    pub tracer: Tracer,
    pub errors: Vec<String>,
}

impl Side {
    pub fn new(traced: bool, thread: &'static str, sample_every: u64) -> Self {
        Side {
            resolved: Tally::default(),
            whole: Tally::default(),
            reference: Reference::calibrated(),
            stretch: None,
            pending: Vec::new(),
            opened: false,
            late: LatHist::default(),
            waited_ns: 0,
            attempts: 0,
            failed: 0,
            tracer: Tracer::new(traced, thread, sample_every),
            errors: Vec::new(),
        }
    }

    /// Call between sessions or transactions. Opens the window once the
    /// warm-up is over, probes the machine when the last probe is old
    /// enough, and moves the span recorder to the current slice. `None` when
    /// `win` has closed, otherwise whether the next operation is measured.
    pub fn boundary(&mut self, clock: &Clock, win: Window) -> Option<bool> {
        let now = clock.now();
        if now >= win.end {
            self.pause(clock);
            return None;
        }
        if now >= win.warm_end && !self.opened {
            self.opened = true;
            // Both sides count recorder slices from the same instant.
            self.tracer.begin_window(win.warm_end, win.trace_slice_ns);
        }
        self.between(clock);
        self.tracer.tick(now);
        Some(self.opened)
    }

    /// Call between the statements of one session, which runs to its end
    /// whatever the clock says: probes the machine when the last probe is
    /// old enough, closing one stretch and opening the next.
    pub fn between(&mut self, clock: &Clock) {
        let now = clock.now();
        if self.opened
            && self
                .stretch
                .as_ref()
                .is_none_or(|s| now - s.start_ns >= PROBE_EVERY_NS)
        {
            let probe_ns = self.reference.probe();
            self.close(now, probe_ns);
            self.stretch = Some(Stretch {
                start_ns: clock.now(),
                opening_probe_ns: probe_ns,
            });
        }
    }

    /// The side stops working for a while (its phase or its window ends):
    /// judge what it did since the last probe.
    pub fn pause(&mut self, clock: &Clock) {
        if self.stretch.is_some() {
            let now = clock.now();
            let probe_ns = self.reference.probe();
            self.close(now, probe_ns);
        }
    }

    fn close(&mut self, now: u64, closing_probe_ns: u64) {
        let Some(stretch) = self.stretch.take() else {
            return;
        };
        let span = now.saturating_sub(stretch.start_ns);
        let alone = self.reference.ran_alone(stretch.opening_probe_ns)
            && self.reference.ran_alone(closing_probe_ns);
        for (latency, units) in self.pending.drain(..) {
            self.whole.add(latency, units);
            if alone {
                self.resolved.add(latency, units);
            }
        }
        self.whole.interval_ns += span;
        if alone {
            self.resolved.interval_ns += span;
        }
    }

    /// Share of the side's window that failed the environment check.
    pub fn unresolved_share(&self) -> f64 {
        if self.whole.interval_ns == 0 {
            0.0
        } else {
            1.0 - self.resolved.interval_ns as f64 / self.whole.interval_ns as f64
        }
    }

    /// What the side's timings are taken from: the resolved part of its
    /// window, or all of it when under a tenth resolved (the run then fails
    /// its environment check, but its numbers stay defined).
    pub fn judged(&self) -> &Tally {
        if self.unresolved_share() > 0.9 {
            &self.whole
        } else {
            &self.resolved
        }
    }

    /// A measured operation `name` that started (or was due) at `start`
    /// and was answered at `done`. A good `outcome` counts for `units` and
    /// enters the latency figures; a bad one is a failed operation. Either
    /// way the operation goes to the trace with its `phases`. Returns
    /// whether it succeeded.
    pub fn done(
        &mut self,
        name: &'static str,
        start: u64,
        done: u64,
        units: u64,
        outcome: Result<(), String>,
        phases: &[(&'static str, u64)],
    ) -> bool {
        let ok = outcome.is_ok();
        match outcome {
            Ok(()) => {
                self.attempts += 1;
                self.pending.push((done - start, units));
            }
            Err(why) => self.fail(why),
        }
        self.tracer.tally(1, done - start);
        self.tracer.op(name, start, done, phases);
        ok
    }

    /// A maintenance transaction that was due at `due` and whose commit
    /// returned at `end`, with `rows` source rows. Returns whether it
    /// succeeded: the driver stops at a failure, so one counts even when
    /// the transaction was warm-up.
    pub fn record_maint(
        &mut self,
        measured: bool,
        due: u64,
        end: u64,
        rows: u64,
        outcome: Result<(), String>,
        phases: &[(&'static str, u64)],
    ) -> bool {
        match outcome {
            Err(why) if !measured => {
                self.fail(why);
                false
            }
            outcome => !measured || self.done("op.maint", due, end, rows, outcome, phases),
        }
    }

    /// A failed operation: counted against attempts, no latency recorded.
    pub fn fail(&mut self, why: String) {
        self.attempts += 1;
        self.failed += 1;
        if self.errors.len() < 5 {
            eprintln!(
                "whbench: failed operation on {}: {why}",
                self.tracer.thread()
            );
            self.errors.push(why);
        }
    }
}

/// Build a workload's state and time it, over and over (each result
/// dropped before the next build) until five builds have run between two
/// full-speed probes, fifteen times at most, once in quick mode. Returns
/// the last state and `setup_s`: the median of those resolved builds, or of
/// all of them when there were none.
pub fn timed_setup<S>(quick: bool, mut build: impl FnMut() -> VnlResult<S>) -> VnlResult<(S, f64)> {
    let (wanted, at_most) = if quick { (1, 1) } else { (5, 15) };
    let (mut resolved, mut all) = (Vec::new(), Vec::new());
    let mut reference = Reference::calibrated();
    let mut before = reference.probe();
    loop {
        let t = std::time::Instant::now();
        let state = build()?;
        let seconds = t.elapsed().as_secs_f64();
        let after = reference.probe();
        all.push(seconds);
        if reference.ran_alone(before) && reference.ran_alone(after) {
            resolved.push(seconds);
        }
        before = after;
        if resolved.len() == wanted || all.len() == at_most {
            let judged = if resolved.is_empty() {
                &mut all
            } else {
                &mut resolved
            };
            return Ok((state, stats::median(judged)));
        }
    }
}

/// What the main thread gathers around the two working threads.
pub struct Concurrent<R, M> {
    pub reader: R,
    pub driver: M,
    /// Registry activity over the nominal window.
    pub registry: Snapshot,
    /// Process CPU seconds and wall seconds over the nominal window.
    pub cpu_s: f64,
    pub wall_s: f64,
}

/// Run the analyst and the driver on their own threads for one window; the
/// main thread only sleeps, snapshots the product's registry at the window
/// edges, and joins.
pub fn run_concurrent<R: Send, M: Send>(
    clock: &Clock,
    win: Window,
    reader: impl FnOnce() -> R + Send,
    driver: impl FnOnce() -> M + Send,
) -> Concurrent<R, M> {
    std::thread::scope(|s| {
        let r = s.spawn(reader);
        let m = s.spawn(driver);
        clock.sleep_until(win.warm_end);
        let before = wh_obs::registry::global().snapshot();
        let (cpu0, t0) = (crate::stats::cpu_seconds(), clock.now());
        clock.sleep_until(win.end);
        let (cpu1, t1) = (crate::stats::cpu_seconds(), clock.now());
        let after = wh_obs::registry::global().snapshot();
        Concurrent {
            reader: r.join().expect("analyst thread panicked"),
            driver: m.join().expect("driver thread panicked"),
            registry: after.since(&before),
            cpu_s: cpu1 - cpu0,
            wall_s: (t1 - t0) as f64 / 1e9,
        }
    })
}

/// Background work the driver ran inline.
#[derive(Default)]
pub struct Background {
    pub gc_passes: u64,
    pub gc_scanned: u64,
    pub gc_reclaimed: u64,
    pub gc_backlog_max: u64,
    pub ckpts: u64,
    pub ckpt_ns: u64,
    pub ckpt_max_ns: u64,
    pub ckpt_pages: u64,
    pub recover_ms: f64,
}

impl Background {
    pub fn note_gc(&mut self, report: &wh_vnl::gc::GcReport, backlog: usize) {
        self.gc_passes += 1;
        self.gc_scanned += report.scanned;
        self.gc_reclaimed += report.reclaimed;
        self.gc_backlog_max = self.gc_backlog_max.max(backlog as u64);
    }

    pub fn note_ckpt(&mut self, ns: u64, pages: u64) {
        self.ckpts += 1;
        self.ckpt_ns += ns;
        self.ckpt_max_ns = self.ckpt_max_ns.max(ns);
        self.ckpt_pages += pages;
    }
}

/// Collect garbage until a pass finds nothing left to reclaim or release.
pub fn final_gc(table: &VnlTable, bg: &mut Background) -> VnlResult<()> {
    for _ in 0..4 {
        let r = wh_vnl::gc::collect(table)?;
        bg.note_gc(&r, table.retired_backlog());
        if r.reclaimed == 0 && r.released == 0 {
            break;
        }
    }
    Ok(())
}

/// Heap bytes over the bytes of the visible rows at their base width: the
/// §3.1 storage cost, after the final GC.
pub fn space_amp(tables: &[&VnlTable]) -> VnlResult<f64> {
    let (mut heap, mut user) = (0f64, 0f64);
    for t in tables {
        heap += f64::from(t.storage().heap().page_count()) * wh_storage::PAGE_SIZE as f64;
        let s = t.begin_session();
        let visible = s.count()?;
        s.finish();
        user += visible as f64 * t.layout().base_schema().payload_width() as f64;
    }
    Ok(heap / user)
}

/// A named oracle check and its verdict.
pub struct Check {
    pub name: &'static str,
    pub outcome: Result<(), String>,
}

/// Everything one run produced; `metrics.rs` turns it into numbers.
pub struct Outcome {
    pub setup_s: f64,
    pub read: Side,
    pub maint: Side,
    /// Registry activity while the analyst measured, and while the driver
    /// did (the same snapshot on the concurrent workloads).
    pub reg_read: Snapshot,
    pub reg_maint: Snapshot,
    /// Process CPU seconds and wall seconds over the window.
    pub cpu_s: f64,
    pub wall_s: f64,
    pub bg: Background,
    pub space_amp: f64,
    pub checks: Vec<Check>,
    pub ladder: Option<Ladder>,
    /// Open-loop period, when the driver has one.
    pub period_ms: Option<f64>,
    /// Width of one row at the base schema (user bytes per changed row).
    pub base_row_bytes: usize,
}

impl Outcome {
    /// Share of the two sides' windows that failed the environment check.
    pub fn unresolved_share(&self) -> f64 {
        let whole = self.read.whole.interval_ns + self.maint.whole.interval_ns;
        let resolved = self.read.resolved.interval_ns + self.maint.resolved.interval_ns;
        if whole == 0 {
            0.0
        } else {
            1.0 - resolved as f64 / whole as f64
        }
    }
}

/// How an answer is checked against the totals of its version.
#[derive(Clone, Copy, PartialEq)]
pub enum Expect {
    /// Not checked per answer (covered by the final full-scan check).
    Unchecked,
    /// One row, first column = `SUM(total_sales)` of the view.
    Sum,
    /// One row, first column = `COUNT(*)` of the view.
    Count,
    /// Grouped sums in the second column that add up to the view's sum.
    RollupSum,
}

/// One statement of a workload's mix.
pub struct Stmt {
    pub name: &'static str,
    pub sql: String,
    pub table: &'static str,
    /// Base-schema columns the statement reads (the ladder's projection).
    pub cols: Vec<usize>,
    pub expect: Expect,
}

impl Stmt {
    pub fn parse(&self) -> VnlResult<SelectStmt> {
        match parse_statement(&self.sql)? {
            Statement::Select(s) => Ok(s),
            _ => unreachable!("the mix holds SELECT statements only"),
        }
    }

    /// Check `result` against `(sum, count)` of the version it was read at.
    pub fn verify(&self, result: &QueryResult, want: (i64, i64)) -> Result<(), String> {
        let first = || result.rows.first().and_then(|r| r[0].as_int());
        let got = match self.expect {
            Expect::Unchecked => return Ok(()),
            Expect::Sum => (first(), want.0),
            Expect::Count => (first(), want.1),
            Expect::RollupSum => (
                Some(result.rows.iter().filter_map(|r| r[1].as_int()).sum()),
                want.0,
            ),
        };
        if got.0 == Some(got.1) {
            Ok(())
        } else {
            Err(format!("{}: got {:?}, want {}", self.name, got.0, got.1))
        }
    }

    /// Check against the totals at `vn`.
    pub fn verify_at(&self, result: &QueryResult, totals: &Totals, vn: u64) -> Result<(), String> {
        if self.expect == Expect::Unchecked {
            return Ok(());
        }
        let want = totals
            .at(vn)
            .ok_or_else(|| format!("{}: no totals recorded for version {vn}", self.name))?;
        self.verify(result, want)
            .map_err(|e| format!("{e} at version {vn}"))
    }

    /// Check against the totals of any version in `lo..=hi` (for calls that
    /// do not report the version they answered at).
    pub fn verify_in(
        &self,
        result: &QueryResult,
        totals: &Totals,
        lo: u64,
        hi: u64,
    ) -> Result<(), String> {
        let mut last = Ok(());
        for vn in lo..=hi {
            last = self.verify_at(result, totals, vn);
            if last.is_ok() {
                break;
            }
        }
        last.map_err(|e| format!("{e} (versions {lo}..={hi})"))
    }
}

/// The five-statement analyst mix over a `DailySales`-shaped view
/// `(city, state, product_line, date, total_sales, support_count)`.
pub fn daily_sales_mix(table: &'static str, mid: Date) -> Vec<Stmt> {
    let date = format!("{:04}-{:02}-{:02}", mid.year(), mid.month(), mid.day());
    let s = |name, sql: String, cols: &[usize], expect| Stmt {
        name,
        sql,
        table,
        cols: cols.to_vec(),
        expect,
    };
    vec![
        s(
            "q_rollup",
            format!("SELECT state, SUM(total_sales) FROM {table} GROUP BY state"),
            &[1, 4],
            Expect::RollupSum,
        ),
        // Date against a literal: eligible for pushdown into the scan kernel.
        s(
            "q_filter_push",
            format!("SELECT COUNT(*), SUM(total_sales) FROM {table} WHERE date >= DATE '{date}'"),
            &[3, 4],
            Expect::Unchecked,
        ),
        // Char and Int64 predicates: the executor evaluates both per row.
        s(
            "q_filter_resid",
            format!(
                "SELECT COUNT(*) FROM {table} WHERE product_line = 'golf equip' AND total_sales > 250"
            ),
            &[2, 4],
            Expect::Unchecked,
        ),
        s(
            "q_total",
            format!("SELECT SUM(total_sales) FROM {table}"),
            &[4],
            Expect::Sum,
        ),
        s("q_count", format!("SELECT COUNT(*) FROM {table}"), &[], Expect::Count),
    ]
}
