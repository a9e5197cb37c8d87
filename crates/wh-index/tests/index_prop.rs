//! Model checks for the index structures: the key directory and ordered
//! indexes must agree with a reference map under arbitrary insert/remove
//! interleavings,
//! and range scans must agree with a sorted reference. Interleavings are
//! generated with the deterministic [`SplitMix64`] generator.

use std::collections::{BTreeMap, HashMap};
use wh_index::{IndexKey, KeyDirectory, OrderedIndex};
use wh_storage::Rid;
use wh_types::{Column, DataType, Schema, SplitMix64, Value};

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, u32),
    Remove(usize),
    Lookup(i64),
}

fn random_ops(rng: &mut SplitMix64) -> Vec<Op> {
    let len = rng.range_inclusive_u64(1, 119) as usize;
    (0..len)
        .map(|_| match rng.next_below(3) {
            0 => Op::Insert(rng.range_i64(0, 20), rng.next_below(1000) as u32),
            1 => Op::Remove(rng.next_u64() as usize),
            _ => Op::Lookup(rng.range_i64(0, 20)),
        })
        .collect()
}

#[test]
fn ordered_index_matches_model() {
    let mut rng = SplitMix64::seed_from_u64(0x1DE8_0001);
    for _ in 0..128 {
        let ops = random_ops(&mut rng);
        let idx = OrderedIndex::new(vec![0]);
        let mut model: BTreeMap<i64, Vec<Rid>> = BTreeMap::new();
        let mut entries: Vec<(i64, Rid)> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(k, r) => {
                    let rid = Rid::new(r, 0);
                    idx.insert(&[Value::from(k)], rid);
                    model.entry(k).or_default().push(rid);
                    entries.push((k, rid));
                }
                Op::Remove(i) => {
                    if entries.is_empty() {
                        continue;
                    }
                    let (k, rid) = entries.swap_remove(i % entries.len());
                    idx.remove(&[Value::from(k)], rid).unwrap();
                    // Remove exactly one occurrence from the model.
                    let v = model.get_mut(&k).unwrap();
                    let pos = v.iter().position(|&r| r == rid).unwrap();
                    v.remove(pos);
                    if v.is_empty() {
                        model.remove(&k);
                    }
                }
                Op::Lookup(k) => {
                    let mut got = idx.lookup(&IndexKey(vec![Value::from(k)]));
                    got.sort();
                    let mut want = model.get(&k).cloned().unwrap_or_default();
                    want.sort();
                    assert_eq!(got, want);
                }
            }
        }
        // Full range agrees with the model.
        let mut got = idx.range(None, None);
        got.sort();
        let mut want: Vec<Rid> = model.values().flatten().copied().collect();
        want.sort();
        assert_eq!(got, want);
        // Sub-range agrees.
        let lo = IndexKey(vec![Value::from(5)]);
        let hi = IndexKey(vec![Value::from(12)]);
        let mut got = idx.range(Some(&lo), Some(&hi));
        got.sort();
        let mut want: Vec<Rid> = model
            .range(5..=12)
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        want.sort();
        assert_eq!(got, want);
    }
}

#[test]
fn key_directory_matches_model() {
    let schema = Schema::with_key(vec![Column::new("k", DataType::Int64)], vec![0]).unwrap();
    let mut rng = SplitMix64::seed_from_u64(0x1DE8_0002);
    for _ in 0..128 {
        let len = rng.range_inclusive_u64(1, 79) as usize;
        let keys: Vec<(i64, u32)> = (0..len)
            .map(|_| (rng.range_i64(0, 30), rng.next_u64() as u32))
            .collect();
        let dir = KeyDirectory::for_schema(&schema).unwrap();
        let mut model: HashMap<i64, Rid> = HashMap::new();
        for (k, r) in keys {
            let rid = Rid::new(r % 1000, 0);
            let row = [Value::from(k)];
            match dir.register(&row, rid) {
                Ok(()) => {
                    assert!(!model.contains_key(&k), "accepted duplicate key {k}");
                    model.insert(k, rid);
                }
                Err(wh_index::IndexError::KeyConflict(existing)) => {
                    assert_eq!(Some(&existing), model.get(&k), "wrong incumbent");
                }
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert_eq!(dir.len(), model.len());
        for (k, rid) in &model {
            assert_eq!(dir.find(&[Value::from(*k)]), Some(*rid));
        }
    }
}
