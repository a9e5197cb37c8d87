//! `maint_heavy`: point reads beside a write-dominated stream.
//!
//! An in-memory keyed table with a secondary index, n = 2. The driver is a
//! closed loop committing large batches that fire all nine Tables 2–4 arms
//! (see [`ArmsGen`]) and collecting garbage every `GC_EVERY` commits. The
//! analyst does point reads: seven `RetryPolicy::read_by_key_repaired` for
//! every `lookup_eq` through the secondary index. The retry helpers open
//! one leased session per call, so each point read is its own short
//! session and session begin is a fixed cost of every operation.

use crate::gen::{ArmsGen, GRP};
use crate::ladder::{self, apply_dml, Ladder};
use crate::run::{
    final_gc, run_concurrent, space_amp, timed_setup, Background, Cfg, Check, Expect, Outcome,
    Side, Stmt, Window,
};
use crate::stats::Clock;
use std::time::Duration;
use wh_types::{Row, SplitMix64, Value};
use wh_vnl::{RetryPolicy, VnlResult, VnlTable};

const TABLE: &str = "Keyed";
const INDEX: &str = "by_grp";
const GC_EVERY: u64 = 4;
/// Point reads between two slice checks; also the share of index lookups.
const BURST: u64 = 8;
/// One point read in this many is written to the trace.
const TRACE_SAMPLE: u64 = 64;

struct State {
    gen: ArmsGen,
    table: VnlTable,
    first_vn: u64,
}

fn setup(cfg: &Cfg) -> VnlResult<State> {
    // 40 960 stable keys rewritten in stripes of 1/40, plus a ring of
    // 16 × 256 keys that are deleted and brought back: about 1 560 DML
    // calls per batch.
    let gen = if cfg.quick {
        ArmsGen::new(cfg.seed, 2048, 16, 4, 32)
    } else {
        ArmsGen::new(cfg.seed, 40_960, 40, 16, 256)
    };
    let table = VnlTable::create_named(TABLE, ArmsGen::schema(), 2)?;
    table.load_initial(&gen.initial_rows())?;
    table.create_index(INDEX, &["grp"])?;
    let s = table.begin_session();
    for id in (0..gen.key_space()).step_by(97) {
        s.read_by_key(&ArmsGen::key_row(id))?;
    }
    s.finish();
    let first_vn = table.version().peek().current_vn;
    Ok(State {
        gen,
        table,
        first_vn,
    })
}

fn as_pair(row: &Row) -> (i64, i64) {
    (
        row[2].as_int().expect("val"),
        row[3].as_int().expect("hits"),
    )
}

/// Whether `got` is what key `id` shows at some version in `lo..=hi`.
fn key_matches(st: &State, id: u64, got: Option<(i64, i64)>, lo: u64, hi: u64) -> bool {
    (lo..=hi).any(|vn| st.gen.expected(id, vn - st.first_vn) == got)
}

/// Whether `rows` are exactly the visible keys of group `grp` at some
/// version in `lo..=hi`.
fn group_matches(st: &State, grp: u64, rows: &[Row], lo: u64, hi: u64) -> bool {
    let mut got: Vec<(u64, (i64, i64))> = rows
        .iter()
        .map(|r| (r[0].as_int().expect("id") as u64, as_pair(r)))
        .collect();
    got.sort_unstable();
    (lo..=hi).any(|vn| {
        let want = (grp * GRP..(grp + 1) * GRP)
            .filter_map(|id| st.gen.expected(id, vn - st.first_vn).map(|p| (id, p)));
        want.eq(got.iter().copied())
    })
}

fn analyst(
    st: &State,
    policy: &RetryPolicy,
    seed: u64,
    clock: &Clock,
    win: Window,
    mut side: Side,
) -> Side {
    let version = st.table.version();
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x0061_6e61_6c79_7374);
    // Probe rows are reused: at a microsecond per read, building them
    // would be a visible share of the loop.
    let mut key = ArmsGen::key_row(0);
    let mut grp_key = [Value::Null];
    while let Some(measured) = side.boundary(clock, win) {
        for i in 0..BURST {
            let id = rng.next_below(st.gen.key_space());
            let by_index = i == BURST - 1;
            key[0] = Value::from(id as i64);
            grp_key[0] = Value::from((id / GRP) as i64);
            // The relaxed read may trail the true version, never lead it:
            // good for a lower bound.
            let vn_lo = version.current_vn_relaxed();
            let t0 = clock.now();
            let answer = if by_index {
                policy.run(&st.table, |s| s.lookup_eq(INDEX, &grp_key))
            } else {
                policy
                    .read_by_key_repaired(&st.table, &key)
                    .0
                    .map(|row| row.into_iter().collect())
            };
            let t1 = clock.now();
            if !measured {
                continue;
            }
            let verdict =
                answer
                    .map_err(|e| format!("key {id}: {e}"))
                    .and_then(|rows: Vec<Row>| {
                        let check = |hi| {
                            if by_index {
                                group_matches(st, id / GRP, &rows, vn_lo, hi)
                            } else {
                                key_matches(st, id, rows.first().map(as_pair), vn_lo, hi)
                            }
                        };
                        // Cheap upper bound first; the latched one settles a miss.
                        if check(version.current_vn_relaxed()) || check(version.peek().current_vn) {
                            Ok(())
                        } else {
                            Err(format!(
                            "key {id} (index {by_index}): {rows:?} matches no version from {vn_lo}"
                        ))
                        }
                    });
            side.done("op.read", t0, t1, 1, verdict, &[("vnl.lookup", t1)]);
        }
    }
    side
}

struct DriverOut {
    side: Side,
    bg: Background,
    committed: u64,
}

fn driver(st: &State, clock: &Clock, win: Window, mut side: Side) -> DriverOut {
    let mut bg = Background::default();
    let mut committed = 0u64;
    while let Some(measured) = side.boundary(clock, win) {
        let batch = st.gen.batch(committed + 1);
        let due = clock.now();
        let tr = &side.tracer;
        let mut phases = [
            ("vnl.gc", 0),
            ("vnl.maint.begin", 0),
            ("vnl.dml", 0),
            ("vnl.commit", 0),
        ];
        let outcome = (|| -> VnlResult<()> {
            // GC runs inline, so it delays the transaction behind it.
            if committed > 0 && committed.is_multiple_of(GC_EVERY) {
                let r = wh_vnl::gc::collect(&st.table)?;
                bg.note_gc(&r, st.table.retired_backlog());
                phases[0].1 = tr.mark(clock);
            }
            let txn = st.table.begin_maintenance()?;
            phases[1].1 = tr.mark(clock);
            for dml in &batch {
                apply_dml(&txn, dml)?;
            }
            phases[2].1 = tr.mark(clock);
            txn.commit()
        })();
        let end = clock.now();
        phases[3].1 = end;
        let outcome = outcome.map_err(|e| format!("batch {}: {e}", committed + 1));
        if !side.record_maint(measured, due, end, batch.len() as u64, outcome, &phases) {
            break;
        }
        committed += 1;
    }
    side.pause(clock);
    DriverOut {
        side,
        bg,
        committed,
    }
}

/// Every key of the table against the closed form after `done` batches.
fn check_all(st: &State, done: u64) -> VnlResult<Result<(), String>> {
    let s = st.table.begin_session();
    let rows = s.scan()?;
    s.finish();
    let want = (0..st.gen.key_space())
        .filter(|&id| st.gen.expected(id, done).is_some())
        .count();
    if rows.len() != want {
        return Ok(Err(format!(
            "scan has {} rows, model has {want}",
            rows.len()
        )));
    }
    for row in &rows {
        let id = row[0].as_int().expect("id") as u64;
        let model = if id < st.gen.key_space() {
            st.gen.expected(id, done)
        } else {
            None
        };
        if model != Some(as_pair(row)) {
            return Ok(Err(format!(
                "key {id} is {:?}, model has {model:?}",
                as_pair(row)
            )));
        }
    }
    Ok(Ok(()))
}

fn ladder(st: &State) -> VnlResult<Ladder> {
    // The analyst never scans this table; one total gives the scan rungs
    // something to measure so the layer costs stay comparable.
    let stmts = [Stmt {
        name: "q_total",
        sql: format!("SELECT SUM(val), COUNT(*) FROM {TABLE}"),
        table: TABLE,
        cols: vec![2],
        expect: Expect::Unchecked,
    }];
    let keys: Vec<Row> = (0..st.gen.stable)
        .step_by(20)
        .map(ArmsGen::key_row)
        .collect();
    let groups: Vec<Vec<Value>> = (0..st.gen.stable / GRP)
        .step_by(4)
        .map(|g| vec![Value::from(g as i64)])
        .collect();
    ladder::read_rungs(&st.table, &stmts, &keys, Some((INDEX, &groups)))
}

pub fn run(cfg: &Cfg) -> VnlResult<Outcome> {
    let (st, setup_s) = timed_setup(cfg.quick, || setup(cfg))?;
    let policy = RetryPolicy::default()
        .with_lease_hint(Duration::from_millis(1))
        .with_seed(cfg.seed);
    let clock = Clock::start();
    let win = Window::after(clock.now(), cfg.warmup_s, cfg.seconds);
    let read = Side::new(cfg.trace, "analyst", TRACE_SAMPLE);
    let maint = Side::new(cfg.trace, "driver", 1);
    let both = run_concurrent(
        &clock,
        win,
        || analyst(&st, &policy, cfg.seed, &clock, win, read),
        || driver(&st, &clock, win, maint),
    );
    let DriverOut {
        side: maint,
        mut bg,
        committed,
    } = both.driver;

    final_gc(&st.table, &mut bg)?;
    let checks = vec![Check {
        name: "final_scan_equals_model",
        outcome: check_all(&st, committed)?,
    }];
    let ladder = if cfg.trace { Some(ladder(&st)?) } else { None };
    let space_amp = space_amp(&[&st.table])?;
    let base_row_bytes = st.table.layout().base_schema().payload_width();
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
        period_ms: None,
        base_row_bytes,
    })
}
