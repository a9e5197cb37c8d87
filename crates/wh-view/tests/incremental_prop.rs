//! Randomized test: incrementally maintaining a summary view over any
//! sequence of source batches (each its own maintenance transaction) yields
//! exactly the view a from-scratch recomputation would produce — \[GL95\]'s
//! correctness condition, on top of the 2VNL machinery.
//!
//! Op sequences are generated with the deterministic [`SplitMix64`]
//! generator, so every run exercises the same cases.
#![allow(clippy::unwrap_used)]

use wh_types::{Column, DataType, Row, Schema, SplitMix64, Value};
use wh_view::{SourceDelta, SummaryViewDef, ViewMaintainer};

fn source_schema() -> Schema {
    Schema::new(vec![
        Column::new("city", DataType::Char(8)),
        Column::new("amount", DataType::Int64),
    ])
    .unwrap()
}

fn def() -> SummaryViewDef {
    SummaryViewDef::new(source_schema(), &["city"], "amount", "total").unwrap()
}

const CITIES: [&str; 4] = ["A", "B", "C", "D"];

/// (city, amount, is_delete). Deletes are made valid by tracking live rows.
type Op = (usize, i64, bool);

fn random_ops(rng: &mut SplitMix64, max_len: u64, delete_per_mille: u64) -> Vec<Op> {
    let len = rng.range_inclusive_u64(1, max_len) as usize;
    (0..len)
        .map(|_| {
            (
                rng.index(4),
                rng.next_u64() as i64,
                rng.chance(delete_per_mille, 1000),
            )
        })
        .collect()
}

fn apply_ops(ops: &[Op]) -> (Vec<Vec<SourceDelta>>, Vec<Row>) {
    // Split ops into batches of <= 7 and track surviving source rows so
    // deletions always retract an existing row.
    let mut live: Vec<Row> = Vec::new();
    let mut batches: Vec<Vec<SourceDelta>> = vec![Vec::new()];
    for &(c, amount, is_delete) in ops {
        if batches.last().unwrap().len() >= 7 {
            batches.push(Vec::new());
        }
        if is_delete && !live.is_empty() {
            let victim = live.remove((amount.unsigned_abs() as usize) % live.len());
            batches
                .last_mut()
                .unwrap()
                .push(SourceDelta::Delete(victim));
        } else {
            let row: Row = vec![Value::from(CITIES[c]), Value::from(amount.abs() % 500)];
            live.push(row.clone());
            batches.last_mut().unwrap().push(SourceDelta::Insert(row));
        }
    }
    (batches, live)
}

fn normalized(rows: Vec<Row>) -> Vec<String> {
    let mut out: Vec<String> = rows.into_iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

#[test]
fn incremental_equals_recompute() {
    let mut rng = SplitMix64::seed_from_u64(0x01C7_0001);
    for _ in 0..64 {
        let ops = random_ops(&mut rng, 59, 300);
        let (batches, live) = apply_ops(&ops);
        let d = def();
        // Incremental: one maintenance transaction per batch.
        let table = d.create_table("V", 2).unwrap();
        let maintainer = ViewMaintainer::new(d.clone());
        for batch in &batches {
            let txn = table.begin_maintenance().unwrap();
            maintainer.propagate(&txn, batch).unwrap();
            txn.commit().unwrap();
        }
        let session = table.begin_session();
        let incremental = session.scan().unwrap();
        session.finish();
        // Recompute from the surviving source rows.
        let recomputed = d.initial_rows(&live);
        assert_eq!(normalized(incremental), normalized(recomputed));
    }
}

#[test]
fn abort_then_retry_equals_straight_through() {
    let mut rng = SplitMix64::seed_from_u64(0x01C7_0002);
    for _ in 0..64 {
        let ops = random_ops(&mut rng, 39, 200);
        let (batches, _) = apply_ops(&ops);
        let d = def();
        let maintainer = ViewMaintainer::new(d.clone());
        // Path 1: apply all batches normally.
        let straight = d.create_table("V", 2).unwrap();
        for batch in &batches {
            let txn = straight.begin_maintenance().unwrap();
            maintainer.propagate(&txn, batch).unwrap();
            txn.commit().unwrap();
        }
        // Path 2: before each commit, run the batch once and ABORT, then
        // run it again for real — §7 rollback must make retries exact.
        let retried = d.create_table("V", 2).unwrap();
        for batch in &batches {
            let txn = retried.begin_maintenance().unwrap();
            maintainer.propagate(&txn, batch).unwrap();
            txn.abort().unwrap();
            let txn = retried.begin_maintenance().unwrap();
            maintainer.propagate(&txn, batch).unwrap();
            txn.commit().unwrap();
        }
        let a = straight.begin_session().scan().unwrap();
        let b = retried.begin_session().scan().unwrap();
        assert_eq!(normalized(a), normalized(b));
    }
}
