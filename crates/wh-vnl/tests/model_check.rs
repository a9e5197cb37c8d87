//! Model check: nVNL against a reference MVCC model.
//!
//! A simple in-memory multi-version model (per key, the full list of
//! `(commitVN, state)` changes) is the ground truth. Random batches of
//! valid operations are applied to both the model and a [`VnlTable`]
//! (n ∈ {2, 3, 4}); afterwards, **every session version within the nVNL
//! guarantee window** must see exactly the model's state at that version.
//! This exercises visibility (Table 1/§5), the maintenance decision tables
//! (Tables 2–4), net effects, and slot push-back together.
#![allow(clippy::unwrap_used, clippy::panic)]

use std::collections::HashMap;
use wh_types::{Column, DataType, Row, Schema, SplitMix64, Value};
use wh_vnl::VnlTable;

fn schema() -> Schema {
    Schema::with_key_names(
        vec![
            Column::new("k", DataType::Int64),
            Column::updatable("v", DataType::Int64),
        ],
        &["k"],
    )
    .unwrap()
}

/// Reference model: per key, the committed history of values.
#[derive(Default)]
struct Model {
    /// key -> [(commit_vn, Some(value) | None-for-deleted)]
    history: HashMap<i64, Vec<(u64, Option<i64>)>>,
}

impl Model {
    fn state_at(&self, key: i64, vn: u64) -> Option<i64> {
        let h = self.history.get(&key)?;
        h.iter()
            .rev()
            .find(|&&(cvn, _)| cvn <= vn)
            .and_then(|&(_, v)| v)
    }

    fn live_at(&self, vn: u64) -> Vec<(i64, i64)> {
        let mut out: Vec<(i64, i64)> = self
            .history
            .keys()
            .filter_map(|&k| self.state_at(k, vn).map(|v| (k, v)))
            .collect();
        out.sort_unstable();
        out
    }

    fn record(&mut self, key: i64, vn: u64, state: Option<i64>) {
        let h = self.history.entry(key).or_default();
        // Within one transaction (same vn), later ops replace the entry —
        // the model sees net effects by construction.
        if let Some(last) = h.last_mut() {
            if last.0 == vn {
                last.1 = state;
                return;
            }
        }
        h.push((vn, state));
    }
}

/// One raw op: (key, op-kind, value).
type RawOp = (i64, u8, i64);

fn run_history(n: usize, batches: Vec<Vec<RawOp>>) {
    let table = VnlTable::create_named("T", schema(), n).unwrap();
    let mut model = Model::default();
    // Initial load at VN 1.
    for k in 0..3i64 {
        table
            .load_initial(&[vec![Value::from(k), Value::from(k * 100)]])
            .unwrap();
        model.record(k, 1, Some(k * 100));
    }
    let mut current_vn = 1u64;
    for batch in batches {
        let txn = table.begin_maintenance().unwrap();
        let vn = txn.maintenance_vn();
        // Track this txn's uncommitted view to pre-validate operations
        // (the model plus this transaction's own net effects).
        let mut pending: HashMap<i64, Option<i64>> = HashMap::new();
        let visible = |model: &Model, pending: &HashMap<i64, Option<i64>>, k: i64| {
            pending
                .get(&k)
                .copied()
                .unwrap_or_else(|| model.state_at(k, current_vn))
        };
        for (k, op, v) in batch {
            let row: Row = vec![Value::from(k), Value::from(v)];
            match op % 3 {
                0 => {
                    // insert: valid iff currently absent.
                    if visible(&model, &pending, k).is_none() {
                        txn.insert(row).unwrap();
                        pending.insert(k, Some(v));
                    } else {
                        assert!(txn.insert(row).is_err(), "insert over live key {k}");
                    }
                }
                1 => {
                    // update: valid iff currently present.
                    if visible(&model, &pending, k).is_some() {
                        txn.update_row(&row).unwrap();
                        pending.insert(k, Some(v));
                    } else {
                        assert!(txn.update_row(&row).is_err(), "update of absent key {k}");
                    }
                }
                _ => {
                    // delete: valid iff currently present.
                    if visible(&model, &pending, k).is_some() {
                        txn.delete_row(&row).unwrap();
                        pending.insert(k, None);
                    } else {
                        assert!(txn.delete_row(&row).is_err(), "delete of absent key {k}");
                    }
                }
            }
        }
        txn.commit().unwrap();
        current_vn = vn;
        for (k, state) in pending {
            model.record(k, vn, state);
        }

        // Verify every session version inside the guarantee window.
        let oldest = current_vn.saturating_sub(n as u64 - 1).max(1);
        for svn in oldest..=current_vn {
            let expected = model.live_at(svn);
            let got: Vec<(i64, i64)> = {
                let mut rows: Vec<(i64, i64)> = table
                    .scan_raw()
                    .unwrap()
                    .iter()
                    .filter_map(|(_, ext)| {
                        match wh_vnl::visibility::extract(table.layout(), ext, svn) {
                            wh_vnl::Visible::Row(r) => {
                                Some((r[0].as_int().unwrap(), r[1].as_int().unwrap()))
                            }
                            wh_vnl::Visible::Ignore => None,
                            wh_vnl::Visible::Expired => {
                                panic!("session {svn} inside the window must not expire (currentVN {current_vn}, n {n})")
                            }
                        }
                    })
                    .collect();
                rows.sort_unstable();
                rows
            };
            assert_eq!(
                got, expected,
                "divergence at sessionVN {svn} (currentVN {current_vn}, n {n})"
            );
        }
    }
}

fn random_batches(rng: &mut SplitMix64) -> Vec<Vec<RawOp>> {
    (0..rng.range_inclusive_u64(1, 5))
        .map(|_| {
            (0..rng.range_inclusive_u64(1, 9))
                .map(|_| {
                    (
                        rng.range_i64(0, 6),
                        rng.next_u64() as u8,
                        rng.range_i64(0, 10_000),
                    )
                })
                .collect()
        })
        .collect()
}

#[test]
fn vnl2_matches_model() {
    let mut rng = SplitMix64::seed_from_u64(0x0DE1_0002);
    for _ in 0..48 {
        run_history(2, random_batches(&mut rng));
    }
}

#[test]
fn vnl3_matches_model() {
    let mut rng = SplitMix64::seed_from_u64(0x0DE1_0003);
    for _ in 0..48 {
        run_history(3, random_batches(&mut rng));
    }
}

#[test]
fn vnl4_matches_model() {
    let mut rng = SplitMix64::seed_from_u64(0x0DE1_0004);
    for _ in 0..48 {
        run_history(4, random_batches(&mut rng));
    }
}

#[test]
fn model_check_regression_delete_insert_chains() {
    // Deterministic seed of the trickiest shapes: delete→insert (same and
    // different txns), insert→delete, double update.
    run_history(
        2,
        vec![
            vec![(0, 2, 0), (0, 0, 7), (1, 1, 5), (1, 1, 6)],
            vec![(0, 1, 8), (2, 2, 0)],
            vec![(2, 0, 9), (2, 2, 0), (3, 0, 1)],
            vec![(3, 2, 0), (3, 0, 2)],
        ],
    );
    run_history(
        4,
        vec![
            vec![(0, 2, 0)],
            vec![(0, 0, 7)],
            vec![(0, 1, 8)],
            vec![(0, 2, 0)],
            vec![(0, 0, 9)],
        ],
    );
}
