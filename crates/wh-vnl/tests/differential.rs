//! Differential test (ROADMAP 7d): one SELECT, three ways, at every live
//! sessionVN of random maintenance histories.
//!
//! Histories run at n ∈ {2, 3, 4}: inserts, updates, deletes and
//! resurrections in transactions that commit or abort, with GC passes in
//! between. After every transaction each still-live session (one is begun
//! per transaction, so several VNs are live at once) answers random
//! aggregate and plain statements
//!
//! * natively, `query_parallel` at 1, 2 and 4 partitions (pushed conjuncts
//!   in the classify kernel, the residual in the executor);
//! * through the paper's §4 rewrite, `query_via_rewrite` (CASE extraction
//!   over the extended table, no pushdown);
//! * as `execute_select` over a plain storage table holding the session's
//!   `scan()` rows in scan order (every conjunct evaluated on `Value`s).
//!
//! All three fold in heap order, so at one partition they must agree bit
//! for bit, floats included; 2 and 4 partitions may only reassociate float
//! SUM/AVG. The data holds the edges the pushed kernel has to get right: a
//! stored `i64::MIN` (the gather's NULL sentinel), NULL `Int64` and `Char`
//! values, `Char` values that are prefixes and extensions of the pushed
//! literal, and updates whose pre-image fails a conjunct the current value
//! passes (and the reverse).
#![allow(clippy::unwrap_used, clippy::panic)]

use std::sync::Arc;
use wh_sql::{execute_select, parse_statement, Params, QueryResult, SelectStmt, Statement};
use wh_storage::{IoStats, Table};
use wh_types::{Column, DataType, Date, Row, Schema, SplitMix64, Value};
use wh_vnl::{ReadOutcome, ReaderSession, VnlTable};

fn schema() -> Schema {
    Schema::with_key_names(
        vec![
            Column::new("k", DataType::Int32),
            Column::new("d", DataType::Date),
            Column::updatable("tag", DataType::Char(6)),
            Column::updatable("i", DataType::Int32),
            Column::updatable("big", DataType::Int64),
            Column::updatable("f", DataType::Float64),
        ],
        &["k"],
    )
    .unwrap()
}

/// Prefixes (`gol`, `g`, ``) and an extension (`golfer`) of the pushed
/// literal `'golf'`, plus NULL.
const TAGS: [Option<&str>; 7] = [
    Some("golf"),
    Some("gol"),
    Some("golfer"),
    Some(""),
    Some("g"),
    Some("zz"),
    None,
];

fn pick_big(rng: &mut SplitMix64) -> Value {
    match rng.index(9) {
        0 | 1 => Value::from(i64::MIN),
        2 => Value::Null,
        3 => Value::from(i64::MIN + 1),
        4 => Value::from(i64::MAX),
        5 => Value::from(7),
        _ => Value::from(rng.range_i64(-1_000_000, 1_000_000)),
    }
}

/// The updatable attributes `(tag, i, big, f)` drawn afresh.
fn attrs(rng: &mut SplitMix64) -> [Value; 4] {
    let tag = TAGS[rng.index(TAGS.len())].map_or(Value::Null, Value::from);
    let i = match rng.index(8) {
        0 => Value::Null,
        _ => Value::from(rng.range_i64(-20, 20)),
    };
    let big = pick_big(rng);
    // Seventeen decimal magnitudes, never zero (so never -0.0).
    let f = match rng.index(8) {
        0 => Value::Null,
        _ => {
            let v = rng.range_i64(-50, 50) as f64 + 0.1;
            Value::from(v * 10f64.powi(rng.range_i64(-8, 9) as i32))
        }
    };
    [tag, i, big, f]
}

fn row(k: i64, a: [Value; 4]) -> Row {
    let [tag, i, big, f] = a;
    let d = Value::from(Date::ymd(1996, 10, 1 + (k % 28) as u8));
    vec![Value::from(k), d, tag, i, big, f]
}

/// Conjuncts the kernel takes (integer, `Int64` incl. near the sentinel,
/// `Char` `=`/`<>`, `Date`) …
const PUSHED: &[&str] = &[
    "i > 3",
    "i <= 0",
    "big <= 0",
    "big > -5",
    "big <> 7",
    "big = -9223372036854775807",
    "tag = 'golf'",
    "tag <> 'golf'",
    "'gol' = tag",
    "tag = ''",
    "d >= DATE '1996-10-10'",
    "k < 60",
];

/// … and conjuncts the executor keeps: a trailing-space and an overlong
/// `Char` literal, a `Char` ordering, floats, and non-comparison shapes.
const RESIDUAL: &[&str] = &[
    "f > 0.5",
    "tag = 'golf '",
    "tag <> 'golfers'",
    "tag < 'h'",
    "i + 1 > 2",
    "big IS NULL",
    "tag IS NOT NULL",
    "(i > 5 OR big < 0)",
    "NOT i = 3",
    "i BETWEEN -5 AND 5",
    "tag IN ('golf', 'gol')",
];

const AGGS: &[&str] = &[
    "COUNT(*)",
    "COUNT(tag)",
    "COUNT(big)",
    "COUNT(f)",
    "SUM(i)",
    "SUM(big)",
    "SUM(f)",
    "MIN(i)",
    "MAX(big)",
    "MIN(big)",
    "MIN(f)",
    "MAX(f)",
    "AVG(i)",
    "AVG(big)",
    "AVG(f)",
    "MIN(tag)",
];

fn random_where(rng: &mut SplitMix64) -> String {
    let conjuncts: Vec<&str> = (0..rng.index(4))
        .map(|_| {
            let pool = if rng.index(2) == 0 { PUSHED } else { RESIDUAL };
            pool[rng.index(pool.len())]
        })
        .collect();
    if conjuncts.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", conjuncts.join(" AND "))
    }
}

fn random_stmt(rng: &mut SplitMix64) -> String {
    let filter = random_where(rng);
    let limit = match rng.index(4) {
        0 => format!(" LIMIT {}", rng.index(6)),
        _ => String::new(),
    };
    if rng.index(4) == 0 {
        let items = ["*", "k, tag, big", "tag, f, i", "k, big + 1"][rng.index(4)];
        let order = [
            "",
            " ORDER BY big DESC, k",
            " ORDER BY tag, k",
            " ORDER BY f",
        ][rng.index(4)];
        return format!("SELECT {items} FROM t{filter}{order}{limit}");
    }
    let group = [None, Some("tag"), Some("d"), Some("i")][rng.index(4)];
    let aggs: Vec<&str> = (0..1 + rng.index(3))
        .map(|_| AGGS[rng.index(AGGS.len())])
        .collect();
    let items = match group {
        Some(g) => format!("{g}, {}", aggs.join(", ")),
        None => aggs.join(", "),
    };
    let group_by = group.map_or(String::new(), |g| format!(" GROUP BY {g}"));
    let having = match rng.index(3) {
        0 => " HAVING COUNT(*) > 1",
        _ => "",
    };
    let order = match (group, rng.index(3)) {
        (Some(g), 0) => format!(" ORDER BY {g} DESC"),
        (_, 1) => format!(" ORDER BY {} DESC", aggs[0]),
        _ => String::new(),
    };
    format!("SELECT {items} FROM t{filter}{group_by}{having}{order}{limit}")
}

fn select(sql: &str) -> SelectStmt {
    match parse_statement(sql).unwrap() {
        Statement::Select(s) => s,
        other => panic!("expected SELECT, parsed {other:?}"),
    }
}

/// Rows with every float as its bit pattern, so equality is bit equality.
fn bits(rows: &[Row]) -> Vec<Vec<Result<u64, Value>>> {
    let cell = |v: &Value| match v {
        Value::Float(f) => Ok(f.to_bits()),
        other => Err(other.clone()),
    };
    rows.iter().map(|r| r.iter().map(cell).collect()).collect()
}

/// Equal up to float reassociation: integers and strings exactly, floats
/// within the error a reordered sum of ≤ 200 values of magnitude ≤ 5e9 can
/// pick up.
fn close(a: &QueryResult, b: &QueryResult) -> bool {
    let cell = |x: &Value, y: &Value| match (x, y) {
        (Value::Float(x), Value::Float(y)) => (x - y).abs() <= 0.1 + 1e-12 * x.abs().max(y.abs()),
        _ => x == y,
    };
    a.columns == b.columns
        && a.rows.len() == b.rows.len()
        && a.rows
            .iter()
            .zip(&b.rows)
            .all(|(r, s)| r.len() == s.len() && r.iter().zip(s).all(|(x, y)| cell(x, y)))
}

/// Answer `sql` three ways at `session`'s VN and hold them together.
fn check(session: &ReaderSession<'_>, plain: &Table, sql: &str, ctx: &str) {
    let one = session.query_parallel(sql, 1).unwrap();
    for threads in [2, 4] {
        let many = session.query_parallel(sql, threads).unwrap();
        assert!(
            close(&one, &many),
            "{ctx}: {sql}\n  1 partition:  {:?}\n  {threads} partitions: {:?}",
            one.rows,
            many.rows
        );
    }
    let rewritten = session.query_via_rewrite(sql).unwrap();
    assert_eq!(
        bits(&one.rows),
        bits(&rewritten.rows),
        "{ctx}: native vs §4 rewrite: {sql}"
    );
    let over_rows = execute_select(plain, &select(sql), &Params::new(), 1).unwrap();
    assert_eq!(one.columns, over_rows.columns, "{ctx}: {sql}");
    assert_eq!(
        bits(&one.rows),
        bits(&over_rows.rows),
        "{ctx}: native vs executor over scan rows: {sql}"
    );
}

/// The session's rows as a plain storage table, in scan order.
fn plain_table(session: &ReaderSession<'_>) -> (Table, Vec<Row>) {
    let rows = session.scan().unwrap();
    let t = Table::create("t", schema(), Arc::new(IoStats::new())).unwrap();
    for r in &rows {
        t.insert(r).unwrap();
    }
    (t, rows)
}

/// One random history; returns how many (session, step) states read at
/// least one row that differs from the current version.
fn run_history(n: usize, seed: u64) -> usize {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let table = VnlTable::create_named("t", schema(), n).unwrap();
    let mut live: Vec<Option<[Value; 4]>> = (0..150).map(|_| Some(attrs(&mut rng))).collect();
    let initial: Vec<Row> = (0..)
        .zip(&live)
        .map(|(k, a)| row(k, a.clone().unwrap()))
        .collect();
    table.load_initial(&initial).unwrap();
    let pages = table.storage().heap().page_count();
    assert!(pages >= 3, "n={n}: {pages} pages is too few to partition");

    let stmts: Vec<String> = (0..14).map(|_| random_stmt(&mut rng)).collect();
    let mut sessions: Vec<ReaderSession<'_>> = vec![table.begin_session()];
    let mut stale_reads = 0;
    for step in 0..12 {
        let before = live.clone();
        let txn = table.begin_maintenance().unwrap();
        for _ in 0..1 + rng.index(12) {
            // Now and then a key never seen before.
            let mut k = rng.index(live.len() + 4);
            if k >= live.len() {
                k = live.len();
                live.push(None);
            }
            match (&live[k], rng.index(3)) {
                // Fresh insert, or resurrection of a deleted key.
                (None, _) => {
                    let a = attrs(&mut rng);
                    txn.insert(row(k as i64, a.clone())).unwrap();
                    live[k] = Some(a);
                }
                (Some(_), 0) => {
                    let a = live[k].take().unwrap();
                    txn.delete_row(&row(k as i64, a)).unwrap();
                }
                (Some(_), _) => {
                    let a = attrs(&mut rng);
                    txn.update_row(&row(k as i64, a.clone())).unwrap();
                    live[k] = Some(a);
                }
            }
        }
        if rng.index(5) == 0 {
            txn.abort().unwrap();
            live = before;
        } else {
            txn.commit().unwrap();
        }
        if step % 3 == 2 {
            wh_vnl::gc::collect(&table).unwrap();
        }
        sessions.retain(|s| s.status() == ReadOutcome::Live);
        sessions.push(table.begin_session());

        let current = sessions.last().unwrap().scan().unwrap();
        for session in &sessions {
            let (plain, rows) = plain_table(session);
            stale_reads += usize::from(rows != current);
            let ctx = format!(
                "n={n} seed={seed} step={step} sessionVN={}",
                session.session_vn()
            );
            for sql in &stmts {
                check(session, &plain, sql, &ctx);
            }
        }
    }
    stale_reads
}

#[test]
fn native_rewrite_and_row_executor_agree_on_random_histories() {
    let mut stale_reads = 0;
    for n in [2, 3, 4] {
        for seed in 0..2 {
            stale_reads += run_history(n, 0xD1FF + 10 * n as u64 + seed);
        }
    }
    // Older live sessions must actually have read pre-update images.
    assert!(
        stale_reads > 0,
        "no live session ever lagged the current version"
    );
}

#[test]
fn generated_data_covers_the_pushdown_edges() {
    // The edges this test exists for must occur in what the histories draw.
    let mut rng = SplitMix64::seed_from_u64(0xD1FF);
    let drawn: Vec<[Value; 4]> = (0..200).map(|_| attrs(&mut rng)).collect();
    assert!(drawn
        .iter()
        .any(|[_, _, big, _]| *big == Value::from(i64::MIN)));
    assert!(drawn.iter().any(|[_, _, big, _]| big.is_null()));
    assert!(drawn.iter().any(|[tag, _, _, _]| tag.is_null()));
    for prefix in ["gol", "golfer", ""] {
        assert!(drawn.iter().any(|[tag, ..]| *tag == Value::from(prefix)));
    }
}
