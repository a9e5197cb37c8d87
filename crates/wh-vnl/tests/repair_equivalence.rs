//! Property test for session repair: over randomized maintenance
//! histories, **repair-then-read ≡ restart-then-rescan**.
//!
//! Each case builds a keyed table, commits a random prefix, records a
//! session VN, then commits a random suffix of inserts / updates / deletes /
//! resurrections. A [`RepairEngine`] then answers *for the recorded
//! (expired-by-now) session VN* three ways — full scan, per-key lookup, and
//! SQL queries — and every answer must equal what a fresh session (the
//! restart path) computes from scratch.
//!
//! Query repair is the one executor over the repaired rows in primary-key
//! order, so the integer queries are held to the fresh session's own answer
//! and the float ones — whose SUM/AVG depend on fold order — to
//! `execute_select` over the fresh session's rows sorted by primary key,
//! compared bit for bit. The float column spans seventeen decimal orders
//! of magnitude: any shortcut that retracts a value from a running sum
//! instead of re-folding loses low-order bits here and fails.
//!
//! The histories deliberately run on small `n`, so many tuples are
//! physically past the session's version (`Visible::Expired`) and repair
//! must reconstruct them from the delta window's first pre-images — the
//! test asserts that path actually fired across the sweep.
#![allow(clippy::unwrap_used, clippy::panic)]

use std::collections::BTreeMap;

use wh_sql::{
    execute_select, parse_statement, Params, QueryResult, RowSource, RowView, SelectStmt,
    SqlResult, Statement,
};
use wh_types::{Column, DataType, Row, Schema, SplitMix64, Value};
use wh_vnl::{MaintenanceTxn, RepairEngine, VersionNo, VnlTable};

fn schema() -> Schema {
    Schema::with_key_names(
        vec![
            Column::new("k", DataType::Int64),
            Column::updatable("v", DataType::Int64),
            Column::updatable("g", DataType::Int64),
            Column::updatable("f", DataType::Float64),
        ],
        &["k"],
    )
    .unwrap()
}

/// The float attribute of row `(k, v, g)`: a mantissa that is never a
/// short binary fraction, scaled to one of seventeen decimal magnitudes
/// (1e-8 ..= 1e8). It is a function of the other attributes so the model
/// stays `(v, g)`, and it changes whenever an update changes them.
fn float_of(k: i64, v: i64, g: i64) -> f64 {
    let exp = (k * 7 + v * 3 + g * 5).rem_euclid(17) - 8;
    (v as f64 + 0.1) * 10f64.powi(exp as i32)
}

fn row(k: i64, v: i64, g: i64) -> Row {
    vec![
        Value::from(k),
        Value::from(v),
        Value::from(g),
        Value::from(float_of(k, v, g)),
    ]
}

/// The in-test model of the live table: key → (v, g).
type Model = BTreeMap<i64, (i64, i64)>;

/// One random maintenance transaction: 1–3 inserts / updates / deletes /
/// resurrections, applied to both the table and the model.
fn random_txn(table: &VnlTable, rng: &mut SplitMix64, live: &mut Model, dead: &mut Vec<i64>) {
    let txn = table.begin_maintenance().unwrap();
    for _ in 0..=rng.index(3) {
        match rng.index(4) {
            // Fresh insert (keys grow monotonically past everything seen).
            0 => {
                let k = live.keys().max().copied().unwrap_or(0) + 1 + rng.range_i64(0, 3);
                if live.contains_key(&k) {
                    continue;
                }
                let (v, g) = (rng.range_i64(-50, 50), rng.range_i64(0, 3));
                txn.insert(row(k, v, g)).unwrap();
                live.insert(k, (v, g));
            }
            // Update a live key (same-transaction repeats included).
            1 => {
                let Some(&k) = live.keys().nth(rng.index(live.len().max(1))) else {
                    continue;
                };
                let (v, g) = (rng.range_i64(-50, 50), rng.range_i64(0, 3));
                txn.update_row(&row(k, v, g)).unwrap();
                live.insert(k, (v, g));
            }
            // Delete a live key.
            2 => {
                let Some(&k) = live.keys().nth(rng.index(live.len().max(1))) else {
                    continue;
                };
                let (v, g) = live.remove(&k).unwrap();
                txn.delete_row(&row(k, v, g)).unwrap();
                dead.push(k);
            }
            // Resurrect a previously deleted key.
            _ => {
                if dead.is_empty() {
                    continue;
                }
                let k = dead.swap_remove(rng.index(dead.len()));
                if live.contains_key(&k) {
                    continue;
                }
                let (v, g) = (rng.range_i64(-50, 50), rng.range_i64(0, 3));
                txn.insert(row(k, v, g)).unwrap();
                live.insert(k, (v, g));
            }
        }
    }
    txn.commit().unwrap();
}

fn select(sql: &str) -> SelectStmt {
    match parse_statement(sql).unwrap() {
        Statement::Select(s) => s,
        other => panic!("expected SELECT, parsed {other:?}"),
    }
}

/// Sorted `(k, v, g)` triples from a set of full rows.
fn triples(rows: &[Row]) -> Vec<(i64, i64, i64)> {
    let mut out: Vec<(i64, i64, i64)> = rows
        .iter()
        .map(|r| {
            (
                r[0].as_int().unwrap(),
                r[1].as_int().unwrap(),
                r[2].as_int().unwrap(),
            )
        })
        .collect();
    out.sort_unstable();
    out
}

/// Integer queries covering every aggregate kind, grouped and ungrouped
/// shapes, WHERE/HAVING/ORDER BY, and a non-aggregate projection; held to
/// the fresh session's own answer.
const QUERIES: &[&str] = &[
    "SELECT COUNT(*) FROM t",
    "SELECT SUM(v), COUNT(v), AVG(v), MIN(v), MAX(v) FROM t",
    "SELECT g, COUNT(*), SUM(v) FROM t GROUP BY g ORDER BY g",
    "SELECT g, MIN(v), MAX(v), AVG(v) FROM t GROUP BY g ORDER BY g",
    "SELECT g, SUM(v) FROM t WHERE v >= 0 GROUP BY g HAVING COUNT(*) >= 1 ORDER BY g",
    "SELECT k, v FROM t WHERE g = 1 ORDER BY k",
];

/// Queries held bit for bit to the executor over the fresh session's rows
/// in primary-key order: float SUM/AVG/MIN/MAX, ORDER BY on an aggregate
/// with LIMIT (ties fall in first-seen group order), and a GROUP BY key
/// that is not a plain column.
const ORDERED_QUERIES: &[&str] = &[
    "SELECT SUM(f), AVG(f), MIN(f), MAX(f) FROM t",
    "SELECT g, SUM(f), AVG(f), MIN(f), MAX(f) FROM t GROUP BY g ORDER BY g",
    "SELECT g, SUM(f) FROM t WHERE f > 0 GROUP BY g HAVING COUNT(*) >= 1",
    "SELECT g, SUM(v) FROM t GROUP BY g ORDER BY SUM(v) DESC LIMIT 2",
    "SELECT g + 1, COUNT(*), SUM(v), SUM(f) FROM t GROUP BY g + 1",
];

/// Rows in primary-key order — the order repair documents for its rows.
struct KeyOrdered {
    schema: Schema,
    rows: Vec<Row>,
}

impl KeyOrdered {
    fn new(mut rows: Vec<Row>) -> KeyOrdered {
        rows.sort_by_key(|r| r[0].as_int().unwrap());
        KeyOrdered {
            schema: schema(),
            rows,
        }
    }
}

impl RowSource for KeyOrdered {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn fold<S: Default + Send>(
        &self,
        _threads: usize,
        visit: &(dyn Fn(&mut S, &dyn RowView) -> SqlResult<()> + Sync),
    ) -> SqlResult<Vec<S>> {
        let mut state = S::default();
        for row in &self.rows {
            visit(&mut state, row)?;
        }
        Ok(vec![state])
    }
}

/// A result with every float replaced by its bit pattern, so equality is
/// bit equality (`Value`'s own would let `0.0 == -0.0` through).
fn bitwise(result: &QueryResult) -> (Vec<String>, Vec<Vec<Result<u64, Value>>>) {
    let cell = |v: &Value| match v {
        Value::Float(f) => Ok(f.to_bits()),
        other => Err(other.clone()),
    };
    let rows = result.rows.iter().map(|r| r.iter().map(cell).collect());
    (result.columns.clone(), rows.collect())
}

/// Assert that repairing `svn` answers `sql` exactly as the one executor
/// does over `fresh` rows in primary-key order; returns the answer.
fn assert_repair_matches_executor(
    engine: &RepairEngine<'_>,
    svn: VersionNo,
    fresh: &KeyOrdered,
    sql: &str,
    context: &str,
) -> QueryResult {
    let stmt = select(sql);
    let params = Params::new();
    let (got, _) = engine
        .query_at_current(svn, &stmt, &params)
        .unwrap()
        .unwrap_or_else(|| panic!("{context}: query repair declined: {sql}"));
    let want = execute_select(fresh, &stmt, &params, 1).unwrap();
    assert_eq!(bitwise(&got), bitwise(&want), "{context}: {sql}");
    got
}

/// One randomized history; returns how many expired tuples the repaired
/// scan had to reconstruct from delta pre-images.
fn run_case(seed: u64) -> u64 {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let n = 2 + rng.index(3); // 2..=4
    let table = VnlTable::create_named("t", schema(), n).unwrap();

    let mut live = Model::new();
    let mut dead = Vec::new();
    let base: Vec<Row> = (0..4 + rng.range_i64(0, 8))
        .map(|k| {
            let (v, g) = (rng.range_i64(-50, 50), rng.range_i64(0, 3));
            live.insert(k, (v, g));
            row(k, v, g)
        })
        .collect();
    table.load_initial(&base).unwrap();

    // Random prefix, then record the session the repair must answer for.
    for _ in 0..rng.index(5) {
        random_txn(&table, &mut rng, &mut live, &mut dead);
    }
    let session = table.begin_session();
    let svn = session.session_vn();
    session.finish();

    // Random suffix: the history the repair replays (delta capacity is 64;
    // stay well under it so the window is always complete).
    for _ in 0..5 + rng.index(30) {
        random_txn(&table, &mut rng, &mut live, &mut dead);
    }

    let engine = RepairEngine::new(&table);
    let rescan = table.begin_session();
    let current = rescan.session_vn();

    // --- Scan: repaired row set ≡ restarted rescan (as multisets). -------
    let repaired = engine
        .scan_at_current(svn)
        .unwrap()
        .unwrap_or_else(|| panic!("seed {seed}: complete window must repair"));
    assert_eq!(repaired.vn, current, "seed {seed}");
    assert_eq!(
        triples(&repaired.rows),
        triples(&rescan.scan().unwrap()),
        "seed {seed}: repaired scan diverged from rescan"
    );
    // The model agrees with both (belt and braces on the harness itself).
    let model: Vec<(i64, i64, i64)> = live.iter().map(|(&k, &(v, g))| (k, v, g)).collect();
    assert_eq!(triples(&repaired.rows), model, "seed {seed}: model drift");

    // --- Lookups: every key ever seen, present or deleted. ---------------
    let universe = live.keys().max().copied().unwrap_or(0) + 4;
    for k in 0..universe {
        let key = vec![Value::from(k)];
        let (got, vn) = engine
            .read_key_at_current(svn, &key)
            .unwrap()
            .unwrap_or_else(|| panic!("seed {seed}: lookup repair declined for k={k}"));
        assert_eq!(vn, current, "seed {seed}");
        assert_eq!(
            got,
            rescan.read_by_key(&key).unwrap(),
            "seed {seed}: repaired lookup diverged for k={k}"
        );
    }

    // --- Queries: aggregate patching (and its fallbacks) ≡ re-execution. -
    let params = Params::new();
    for sql in QUERIES {
        let stmt = select(sql);
        let (got, vn) = engine
            .query_at_current(svn, &stmt, &params)
            .unwrap()
            .unwrap_or_else(|| panic!("seed {seed}: query repair declined: {sql}"));
        assert_eq!(vn, current, "seed {seed}");
        let want = rescan.query_stmt(&stmt).unwrap();
        if stmt.order_by.is_empty() {
            assert_eq!(got.columns, want.columns, "seed {seed}: {sql}");
            let mut g = got.rows.clone();
            let mut w = want.rows.clone();
            g.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            w.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            assert_eq!(g, w, "seed {seed}: {sql}");
        } else {
            assert_eq!(got, want, "seed {seed}: repaired query diverged: {sql}");
        }
    }

    // --- Order-sensitive queries ≡ the executor over key-ordered rows. ---
    let fresh = KeyOrdered::new(rescan.scan().unwrap());
    for sql in ORDERED_QUERIES {
        assert_repair_matches_executor(&engine, svn, &fresh, sql, &format!("seed {seed}"));
    }
    rescan.finish();
    repaired.reconstructed
}

#[test]
fn repair_equals_restart_over_random_histories() {
    let mut reconstructed = 0;
    for seed in 0..24 {
        reconstructed += run_case(seed);
    }
    // The sweep must have exercised the hard path: sessions whose tuples
    // were physically overwritten (expired) and had to be rebuilt from the
    // delta window's first pre-images.
    assert!(
        reconstructed > 0,
        "no case ever reconstructed an expired tuple — histories too tame"
    );
}

#[test]
fn float_column_spans_sixteen_orders_of_magnitude() {
    let magnitudes = (0..40).flat_map(|k| (-50..50).map(move |v| float_of(k, v, 1).abs()));
    let (lo, hi) = magnitudes.fold((f64::MAX, 0.0_f64), |(lo, hi), m| (lo.min(m), hi.max(m)));
    assert!(hi / lo >= 1e16, "float column spans only {lo:e}..{hi:e}");
}

/// Row `k` of the pinned cases: `(k, v = k, g = k % 2, f)`.
fn float_row(k: i64, f: f64) -> Row {
    let mut r = row(k, k, k % 2);
    r[3] = Value::from(f);
    r
}

/// A table holding `float_row(k, values[k])` plus the VN of a session that
/// saw exactly those rows.
fn float_table(values: &[f64]) -> (VnlTable, VersionNo) {
    let table = VnlTable::create_named("t", schema(), 2).unwrap();
    let rows: Vec<Row> = (0..).zip(values).map(|(k, &f)| float_row(k, f)).collect();
    table.load_initial(&rows).unwrap();
    let session = table.begin_session();
    let svn = session.session_vn();
    session.finish();
    (table, svn)
}

fn commit(table: &VnlTable, body: impl FnOnce(&MaintenanceTxn<'_>)) {
    let txn = table.begin_maintenance().unwrap();
    body(&txn);
    txn.commit().unwrap();
}

#[test]
fn float_sum_survives_retracting_a_huge_value() {
    // 1e16 absorbs every small addend folded after it; an answer patched by
    // subtracting it back out reads 4.45 / 0.7416…, a re-fold 5.05 / 0.8416….
    let (table, svn) = float_table(&[0.1, 0.2, 0.3, 1e16, 0.7, 3.3]);
    commit(&table, |txn| txn.update_row(&float_row(3, 0.4)).unwrap());
    commit(&table, |txn| txn.update_row(&float_row(1, 0.25)).unwrap());

    let engine = RepairEngine::new(&table);
    let rescan = table.begin_session();
    let fresh = KeyOrdered::new(rescan.scan().unwrap());
    let sql = "SELECT SUM(f), AVG(f) FROM t";
    let got = assert_repair_matches_executor(&engine, svn, &fresh, sql, "pinned");
    assert_eq!(
        bitwise(&got),
        bitwise(&rescan.query_stmt(&select(sql)).unwrap())
    );
    let (sum, avg) = (
        got.rows[0][0].as_f64().unwrap(),
        got.rows[0][1].as_f64().unwrap(),
    );
    assert!((sum - 5.05).abs() < 1e-12, "SUM(f) = {sum}");
    assert!((avg - 5.05 / 6.0).abs() < 1e-12, "AVG(f) = {avg}");
    rescan.finish();
}

#[test]
fn groups_vanish_appear_and_reorder_inside_the_window() {
    // g = 0: {0, 2, 4} (v sums to 6), g = 1: {1, 3, 5} (v sums to 9).
    let (table, svn) = float_table(&[1.0; 6]);
    // Group 1 vanishes, group 7 appears, group 0 shrinks.
    commit(&table, |txn| {
        for k in [1, 3, 5] {
            txn.delete_row(&row(k, k, 1)).unwrap();
        }
        txn.insert(row(10, 40, 7)).unwrap();
    });
    commit(&table, |txn| {
        txn.insert(row(11, 2, 7)).unwrap();
        txn.insert(row(12, 5, 3)).unwrap();
        txn.update_row(&row(4, -3, 0)).unwrap();
    });

    let engine = RepairEngine::new(&table);
    let rescan = table.begin_session();
    let fresh = KeyOrdered::new(rescan.scan().unwrap());
    let ints = |rows: &[&[i64]]| -> Vec<Row> {
        rows.iter()
            .map(|r| r.iter().copied().map(Value::from).collect())
            .collect()
    };
    let by_group = "SELECT g, COUNT(*), SUM(v) FROM t GROUP BY g ORDER BY g";
    let got = assert_repair_matches_executor(&engine, svn, &fresh, by_group, "groups");
    assert_eq!(got.rows, ints(&[&[0, 3, -1], &[3, 1, 5], &[7, 2, 42]]));
    assert_eq!(got, rescan.query_stmt(&select(by_group)).unwrap());

    let top = "SELECT g, SUM(v) FROM t GROUP BY g ORDER BY SUM(v) DESC LIMIT 2";
    let got = assert_repair_matches_executor(&engine, svn, &fresh, top, "groups");
    assert_eq!(got.rows, ints(&[&[7, 42], &[3, 5]]));

    let shifted = "SELECT g + 1, SUM(v) FROM t GROUP BY g + 1";
    let got = assert_repair_matches_executor(&engine, svn, &fresh, shifted, "groups");
    assert_eq!(got.rows, ints(&[&[1, -1], &[8, 42], &[4, 5]]));
    rescan.finish();
}

#[test]
fn ungrouped_aggregate_over_a_relation_emptied_inside_the_window() {
    let (table, svn) = float_table(&[1.5, 2.5, 3.5]);
    commit(&table, |txn| {
        txn.delete_row(&row(0, 0, 0)).unwrap();
        txn.delete_row(&row(2, 2, 0)).unwrap();
    });
    commit(&table, |txn| txn.delete_row(&row(1, 1, 1)).unwrap());

    let engine = RepairEngine::new(&table);
    let rescan = table.begin_session();
    let fresh = KeyOrdered::new(rescan.scan().unwrap());
    assert!(fresh.rows.is_empty());
    let sql = "SELECT COUNT(*), SUM(v) FROM t";
    let got = assert_repair_matches_executor(&engine, svn, &fresh, sql, "emptied");
    assert_eq!(got.rows, vec![vec![Value::from(0), Value::Null]]);
    assert_eq!(got, rescan.query_stmt(&select(sql)).unwrap());
    // With GROUP BY an empty relation has no groups at all.
    let grouped = "SELECT g, COUNT(*) FROM t GROUP BY g";
    let got = assert_repair_matches_executor(&engine, svn, &fresh, grouped, "emptied");
    assert!(got.rows.is_empty());
    rescan.finish();
}
