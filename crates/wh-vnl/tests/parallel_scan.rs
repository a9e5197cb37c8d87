//! There is one scan path, and its partition count must be
//! *unobservable*: at every live sessionVN, one partition and several give
//! the same rows, counts, SQL answers, and expiration behavior, and all of
//! them equal what the reference `visibility::extract` says about the raw
//! heap — under random histories and under concurrent maintenance and GC.
//! Point reads and index lookups classify with the same kernel, and are
//! held to the same oracle tuple by tuple.
#![allow(clippy::unwrap_used)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use wh_sql::Params;
use wh_types::rng::SplitMix64;
use wh_types::{Column, DataType, Row, Schema, Value};
use wh_vnl::visibility::{extract, Visible};
use wh_vnl::{gc, ReaderSession, VnlError, VnlTable};

fn kv_schema() -> Schema {
    Schema::with_key_names(
        vec![
            Column::new("k", DataType::Int32),
            Column::updatable("v", DataType::Int32),
        ],
        &["k"],
    )
    .unwrap()
}

fn kv(k: i64, v: i64) -> Row {
    vec![Value::from(k), Value::from(v)]
}

fn ints(vals: &[i64]) -> Row {
    vals.iter().copied().map(Value::from).collect()
}

/// A partitioned `SELECT *`'s rows: the partitions' rows concatenated in
/// partition order, which is heap order.
fn collect_parallel(s: &ReaderSession<'_>, threads: usize) -> Result<Vec<Row>, VnlError> {
    Ok(s.query_parallel("SELECT * FROM kv", threads)?.rows)
}

fn collect_with(s: &ReaderSession<'_>) -> Result<Vec<Row>, VnlError> {
    let mut rows = Vec::new();
    s.scan_with(|row| {
        rows.push(row);
        Ok(())
    })?;
    Ok(rows)
}

fn collect_projected(s: &ReaderSession<'_>, cols: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    s.scan_projected_with(cols, |row| {
        rows.push(row);
        Ok(())
    })
    .unwrap();
    rows
}

/// What a session at `vn` must see, decided by the reference extractor
/// over the raw heap, in heap order; `None` when any tuple proves the
/// session expired.
fn oracle(t: &VnlTable, vn: u64) -> Option<Vec<Row>> {
    let mut rows = Vec::new();
    for (_, ext) in t.scan_raw().unwrap() {
        match extract(t.layout(), &ext, vn) {
            Visible::Row(r) => rows.push(r),
            Visible::Ignore => {}
            Visible::Expired => return None,
        }
    }
    Some(rows)
}

fn v_of(row: &Row) -> i64 {
    row[1].as_int().unwrap()
}

/// Every way of reading `s` — one partition or several, rows or counts,
/// scans or SQL — against the oracle's `want`.
fn assert_session_matches(s: &ReaderSession<'_>, want: Option<&[Row]>, ctx: &str) {
    let Some(want) = want else {
        // Expired for the oracle must expire everywhere.
        assert!(matches!(s.scan(), Err(VnlError::SessionExpired { .. })));
        assert!(matches!(s.count(), Err(VnlError::SessionExpired { .. })));
        for threads in [1, 2, 4] {
            assert!(
                matches!(
                    collect_parallel(s, threads),
                    Err(VnlError::SessionExpired { .. })
                ),
                "{ctx} threads={threads}"
            );
        }
        return;
    };
    // One partition delivers heap order; so does the oracle.
    assert_eq!(s.scan().unwrap(), want, "scan diverged: {ctx}");
    assert_eq!(collect_with(s).unwrap(), want, "scan_with diverged: {ctx}");
    assert_eq!(
        s.count().unwrap() as usize,
        want.len(),
        "classify-only count diverged: {ctx}"
    );
    for threads in [1, 2, 4, 7] {
        let got = collect_parallel(s, threads).unwrap();
        assert_eq!(got, want, "{ctx} threads={threads}");
    }
    // Projection pushdown: v-only, and reordered (v, k).
    assert_eq!(
        collect_projected(s, &[1]),
        want.iter().map(|r| vec![r[1].clone()]).collect::<Vec<_>>()
    );
    assert_eq!(
        collect_projected(s, &[1, 0]),
        want.iter()
            .map(|r| vec![r[1].clone(), r[0].clone()])
            .collect::<Vec<_>>()
    );
    // SQL at one partition and at several, against closed forms over the
    // oracle's rows.
    let vs = || want.iter().map(v_of);
    let extreme = |v: Option<i64>| v.map_or(Value::Null, Value::from);
    let sum = if want.is_empty() {
        Value::Null
    } else {
        Value::from(vs().sum::<i64>())
    };
    let aggregates = vec![
        Value::from(want.len() as i64),
        sum,
        extreme(vs().min()),
        extreme(vs().max()),
    ];
    // WHERE pushdown: both conjuncts run inside the classify kernel (v is
    // updatable, so Pre(j) records test their pre-update image). Row sets
    // must match the predicate applied to the oracle's rows exactly.
    let filtered: Vec<Row> = want
        .iter()
        .filter(|r| v_of(r) >= 3 && r[0].as_int().unwrap() < 300)
        .cloned()
        .collect();
    for threads in [1, 2, 4] {
        let q = "SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM kv";
        let got = s.query_parallel(q, threads).unwrap();
        assert_eq!(
            got.rows,
            vec![aggregates.clone()],
            "{ctx} threads={threads}"
        );
        let q = "SELECT k, v FROM kv WHERE v >= 3 AND k < 300";
        let got = s.query_parallel(q, threads).unwrap();
        assert_eq!(
            got.rows, filtered,
            "pushdown diverged: {ctx} threads={threads}"
        );
    }
    assert_eq!(
        s.query("SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM kv")
            .unwrap()
            .rows,
        vec![aggregates]
    );
}

/// Enough keys that the heap spans several pages, so `threads > 1` really
/// partitions.
const KEYS: i64 = 900;

/// Point reads against the oracle, tuple by tuple: `read_by_key` and
/// `lookup_eq` for every key ever inserted (`0..KEYS`) plus one never
/// inserted (`KEYS`), and `lookup_range` with both bounds, one and none,
/// must each answer what `extract` says about the keys' raw tuples — a
/// row, absent, or expired. The detector is per tuple, so in an expired
/// session a key whose tuple still holds the needed version answers.
fn assert_point_reads_match(t: &VnlTable, s: &ReaderSession<'_>, ctx: &str) {
    let l = t.layout();
    // Key → the session's view of its one physical tuple: `None` when the
    // tuple is expired, `Some(None)` when it is absent.
    let raw: BTreeMap<i64, Option<Option<Row>>> = t
        .scan_raw()
        .unwrap()
        .into_iter()
        .map(|(_, ext)| {
            let view = match extract(l, &ext, s.session_vn()) {
                Visible::Row(r) => Some(Some(r)),
                Visible::Ignore => Some(None),
                Visible::Expired => None,
            };
            (ext[l.base_col(0)].as_int().unwrap(), view)
        })
        .collect();
    let expired = |e: VnlError| matches!(e, VnlError::SessionExpired { .. });
    for k in 0..=KEYS {
        let ctx = format!("{ctx} k={k}");
        match raw.get(&k).cloned().unwrap_or(Some(None)) {
            None => {
                assert!(expired(s.read_by_key(&kv(k, 0)).unwrap_err()), "{ctx}");
                let got = s.lookup_eq("by_k", &[Value::from(k)]);
                assert!(expired(got.unwrap_err()), "{ctx}");
            }
            Some(want) => {
                assert_eq!(s.read_by_key(&kv(k, 0)).unwrap(), want, "{ctx}");
                let got = s.lookup_eq("by_k", &[Value::from(k)]).unwrap();
                assert_eq!(got, Vec::from_iter(want), "{ctx}");
            }
        }
    }
    let third = KEYS / 3;
    for (lo, hi) in [
        (Some(third), Some(2 * third)),
        (Some(2 * third), None),
        (None, Some(third)),
        (None, None),
    ] {
        let ctx = format!("{ctx} range {lo:?}..={hi:?}");
        let bound = |k: Option<i64>| k.map(|k| vec![Value::from(k)]);
        let got = s.lookup_range("by_k", bound(lo).as_deref(), bound(hi).as_deref());
        let span = lo.unwrap_or(i64::MIN)..=hi.unwrap_or(i64::MAX);
        // In key order; any expired tuple in the range expires the lookup.
        let want: Option<Vec<Row>> = raw
            .range(span)
            .map(|(_, view)| view.clone())
            .collect::<Option<Vec<_>>>()
            .map(|rows| rows.into_iter().flatten().collect());
        match want {
            None => assert!(expired(got.unwrap_err()), "{ctx}"),
            Some(want) => assert_eq!(got.unwrap(), want, "{ctx}"),
        }
    }
}

/// Drive `generations` random maintenance transactions over an nVNL table,
/// pinning a session at every version along the way, then hold every
/// session — live or expired — to the oracle.
fn random_history_agrees(seed: u64, n: usize, generations: usize) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let t = VnlTable::create_named("kv", kv_schema(), n).unwrap();
    t.load_initial(&(0..KEYS).map(|k| kv(k, 0)).collect::<Vec<_>>())
        .unwrap();
    assert!(t.storage().heap().page_count() >= 4);
    t.create_index("by_k", &["k"]).unwrap();

    let mut sessions = vec![t.begin_session()];
    for g in 1..=generations {
        let txn = t.begin_maintenance().unwrap();
        for _ in 0..rng.range_i64(1, 120) {
            let k = rng.range_i64(0, KEYS);
            let alive = txn.read_current(&kv(k, 0)).unwrap().is_some();
            match (alive, rng.range_i64(0, 3)) {
                (true, 0) => txn.delete_row(&kv(k, 0)).unwrap(),
                (true, _) => txn.update_row(&kv(k, g as i64)).unwrap(),
                (false, _) => txn.insert(kv(k, g as i64)).unwrap(),
            }
        }
        txn.commit().unwrap();
        sessions.push(t.begin_session());
    }

    for s in sessions {
        let vn = s.session_vn();
        let want = oracle(&t, vn);
        let ctx = format!("seed={seed} n={n} vn={vn}");
        assert_session_matches(&s, want.as_deref(), &ctx);
        assert_point_reads_match(&t, &s, &ctx);
    }
}

#[test]
fn every_partition_count_equals_the_oracle_on_random_histories_2vnl() {
    for seed in 0..8 {
        random_history_agrees(0xE18_0000 + seed, 2, 12);
    }
}

#[test]
fn every_partition_count_equals_the_oracle_on_random_histories_nvnl() {
    for (seed, n) in [(1u64, 3usize), (2, 4), (3, 3), (4, 4)] {
        random_history_agrees(0xE18_1000 + seed, n, 16);
    }
}

/// An open maintenance transaction leaves uncommitted inserts, updates and
/// deletes in the heap. A session begun before it must read straight
/// through them — and `scan()`, the streaming scan, and the classify-only
/// count are one path, so they cannot disagree about what that means.
#[test]
fn scan_scan_with_and_count_agree_under_an_open_maintenance_txn() {
    let t = VnlTable::create_named("kv", kv_schema(), 2).unwrap();
    t.load_initial(&(0..KEYS).map(|k| kv(k, 0)).collect::<Vec<_>>())
        .unwrap();
    let s = t.begin_session();
    let txn = t.begin_maintenance().unwrap();
    for k in (0..KEYS).step_by(3) {
        txn.update_row(&kv(k, 7)).unwrap();
    }
    for k in (1..KEYS).step_by(50) {
        txn.delete_row(&kv(k, 0)).unwrap();
    }
    for k in KEYS..KEYS + 40 {
        txn.insert(kv(k, 9)).unwrap();
    }
    // Nothing the open transaction did is visible: the session still sees
    // the initial load, in heap order.
    let want: Vec<Row> = (0..KEYS).map(|k| kv(k, 0)).collect();
    assert_eq!(oracle(&t, s.session_vn()).as_deref(), Some(&want[..]));
    assert_session_matches(&s, Some(&want), "open maintenance txn");
    txn.abort().unwrap();
}

/// HAVING, ORDER BY on an aggregate, and LIMIT all run after the
/// partitions' groups are merged. The pushed-down `k` range leaves the
/// middle partitions with no rows at all, and the groups the outer
/// partitions share must still be merged before any of the three applies.
#[test]
fn grouped_having_order_limit_merge_across_empty_partitions() {
    let t = VnlTable::create_named("kv", kv_schema(), 2).unwrap();
    t.load_initial(&(0..KEYS).map(|k| kv(k, k % 5)).collect::<Vec<_>>())
        .unwrap();
    let s = t.begin_session();
    let sql = "SELECT v, COUNT(*), SUM(k) FROM kv WHERE k < 60 OR k >= 840 GROUP BY v \
               HAVING COUNT(*) >= 24 ORDER BY SUM(k) DESC LIMIT 3";
    // The predicate under OR stays in the executor; the same shape with
    // both bounds pushed into the scan kernel is the AND form below.
    let pushed = "SELECT v, COUNT(*), SUM(k) FROM kv WHERE k >= 100 AND k < 160 GROUP BY v \
                  HAVING COUNT(*) >= 12 ORDER BY SUM(k) DESC LIMIT 3";
    let expect = |keep: &dyn Fn(i64) -> bool, min_count: i64| -> Vec<Row> {
        let mut groups: Vec<Row> = (0..5)
            .map(|v| {
                let ks = (0..KEYS).filter(|&k| keep(k) && k % 5 == v);
                ints(&[v, ks.clone().count() as i64, ks.sum()])
            })
            .filter(|g| g[1].as_int().unwrap() >= min_count)
            .collect();
        groups.sort_by_key(|g| std::cmp::Reverse(g[2].as_int().unwrap()));
        groups.truncate(3);
        groups
    };
    for threads in [1, 2, 4, 7] {
        let got = s.query_parallel(sql, threads).unwrap();
        assert_eq!(
            got.rows,
            expect(&|k| !(60..840).contains(&k), 24),
            "{threads}"
        );
        let got = s.query_parallel(pushed, threads).unwrap();
        assert_eq!(
            got.rows,
            expect(&|k| (100..160).contains(&k), 12),
            "{threads}"
        );
    }
}

/// A visitor error stops the scan and comes back as itself, at every
/// partition count.
#[test]
fn visitor_errors_propagate_at_every_partition_count() {
    let t = VnlTable::create_named("kv", kv_schema(), 2).unwrap();
    t.load_initial(&(0..KEYS).map(|k| kv(k, 0)).collect::<Vec<_>>())
        .unwrap();
    let s = t.begin_session();
    let boom = || VnlError::NoSuchIndex("boom".into());
    // Only the last partition's last row fails; the error still wins.
    let last = format!("SELECT k + 'x' FROM kv WHERE k = {}", KEYS - 1);
    for threads in [1, 2, 4] {
        assert!(
            matches!(s.query_parallel(&last, threads), Err(VnlError::Sql(_))),
            "threads={threads}"
        );
    }
    assert_eq!(s.scan_with(|_| Err(boom())).unwrap_err(), boom());
    // An executor-side error (a type error in a projection) too.
    for threads in [1, 4] {
        assert!(matches!(
            s.query_parallel("SELECT k + 'x' FROM kv", threads),
            Err(VnlError::Sql(_))
        ));
    }
}

/// Stress: partitioned scans run while maintenance transactions and GC churn
/// the heap. Every transaction rewrites all keys to one generation value,
/// so any successful scan must observe a *consistent snapshot*: all rows
/// carry the same generation, and the row count equals the key count.
/// The only acceptable failure is honest expiration.
#[test]
fn parallel_scans_stay_consistent_under_maintenance_and_gc() {
    let t = std::sync::Arc::new(VnlTable::create_named("kv", kv_schema(), 2).unwrap());
    let keys = KEYS; // several pages, so the 4-way scans below really partition
    t.load_initial(&(0..keys).map(|k| kv(k, 0)).collect::<Vec<_>>())
        .unwrap();

    let stop = AtomicBool::new(false);
    let scans_ok = std::sync::atomic::AtomicU64::new(0);
    let expirations = std::sync::atomic::AtomicU64::new(0);

    std::thread::scope(|scope| {
        // Writer: each generation updates every key's value to g in one txn.
        let writer = {
            let t = &t;
            let stop = &stop;
            scope.spawn(move || {
                for g in 1..200i64 {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let txn = t.begin_maintenance().unwrap();
                    // Mix deletes/reinserts in so GC has real work.
                    if g % 5 == 0 {
                        txn.delete_row(&kv(g % keys, 0)).unwrap();
                        txn.insert(kv(g % keys, g)).unwrap();
                    }
                    txn.execute_sql(&format!("UPDATE kv SET v = {g}"), &Params::new())
                        .unwrap();
                    txn.commit().unwrap();
                }
            })
        };
        // GC daemon sweeps aggressively the whole time.
        let collector = {
            let t = &t;
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    gc::collect(t).unwrap();
                    std::thread::yield_now();
                }
            })
        };
        // Readers: short sessions running 4-way parallel scans.
        for _ in 0..2 {
            let t = &t;
            let stop = &stop;
            let scans_ok = &scans_ok;
            let expirations = &expirations;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let s = t.begin_session();
                    match collect_parallel(&s, 4) {
                        Ok(rows) => {
                            // Table 1 invariants: a consistent snapshot.
                            assert_eq!(rows.len() as i64, keys, "snapshot lost rows");
                            let gens: BTreeSet<String> =
                                rows.iter().map(|r| format!("{:?}", r[1])).collect();
                            let ks: BTreeSet<String> =
                                rows.iter().map(|r| format!("{:?}", r[0])).collect();
                            assert_eq!(ks.len() as i64, keys, "duplicate keys in snapshot");
                            // Every committed generation writes ALL keys to
                            // one value, so a Table-1-consistent snapshot is
                            // single-generation.
                            assert_eq!(gens.len(), 1, "snapshot mixes generations: {gens:?}");
                            scans_ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(VnlError::SessionExpired { .. }) => {
                            expirations.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("scan failed: {e}"),
                    }
                    s.finish();
                }
            });
        }
        writer.join().unwrap();
        stop.store(true, Ordering::Relaxed);
        collector.join().unwrap();
    });

    assert!(
        scans_ok.load(Ordering::Relaxed) > 0,
        "stress produced no successful scans (expirations: {})",
        expirations.load(Ordering::Relaxed)
    );
}
