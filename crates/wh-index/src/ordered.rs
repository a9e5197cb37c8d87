//! Ordered index: equality and range lookups over one or more columns.

use crate::key::IndexKey;
use crate::IndexError;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::RwLock;
use wh_storage::Rid;
use wh_types::Value;

/// A BTree-backed index mapping composite keys to RIDs, supporting range
/// scans. Warehouse readers typically filter on dimension attributes (city,
/// date ranges); those attributes are non-updatable, so — per §4.3 — this
/// index works unchanged under 2VNL.
#[derive(Debug)]
pub struct OrderedIndex {
    columns: Vec<usize>,
    map: RwLock<BTreeMap<IndexKey, Vec<Rid>>>,
}

impl OrderedIndex {
    /// An ordered (non-unique) index over the given column positions.
    pub fn new(columns: Vec<usize>) -> Self {
        OrderedIndex {
            columns,
            map: RwLock::new(BTreeMap::new()),
        }
    }

    /// The indexed column positions.
    pub fn columns(&self) -> &[usize] {
        &self.columns
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.map
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Index `row` (stored at `rid`).
    pub fn insert(&self, row: &[Value], rid: Rid) {
        let key = IndexKey::project(row, &self.columns);
        self.map
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entry(key)
            .or_default()
            .push(rid);
        wh_obs::counter!("index.ordered.inserts").inc();
    }

    /// Remove the entry for (`row`, `rid`).
    pub fn remove(&self, row: &[Value], rid: Rid) -> Result<(), IndexError> {
        let key = IndexKey::project(row, &self.columns);
        let mut map = self
            .map
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let Some(entry) = map.get_mut(&key) else {
            return Err(IndexError::MissingEntry);
        };
        let Some(pos) = entry.iter().position(|&r| r == rid) else {
            return Err(IndexError::MissingEntry);
        };
        entry.swap_remove(pos);
        if entry.is_empty() {
            map.remove(&key);
        }
        wh_obs::counter!("index.ordered.removes").inc();
        Ok(())
    }

    /// All RIDs under exactly `key`.
    pub fn lookup(&self, key: &IndexKey) -> Vec<Rid> {
        wh_obs::counter!("index.ordered.lookups").inc();
        self.map
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(key)
            .cloned()
            .unwrap_or_default()
    }

    /// All RIDs with keys in `[lo, hi]` (inclusive bounds; pass `None` for
    /// unbounded ends), in key order. An inverted range (`lo > hi`) is
    /// empty.
    pub fn range(&self, lo: Option<&IndexKey>, hi: Option<&IndexKey>) -> Vec<Rid> {
        wh_obs::counter!("index.ordered.range_lookups").inc();
        if lo.zip(hi).is_some_and(|(lo, hi)| lo > hi) {
            return Vec::new();
        }
        let map = self
            .map
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let lo_bound = lo.map_or(Bound::Unbounded, |k| Bound::Included(k.clone()));
        let hi_bound = hi.map_or(Bound::Unbounded, |k| Bound::Included(k.clone()));
        map.range((lo_bound, hi_bound))
            .flat_map(|(_, rids)| rids.iter().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(n: u32) -> Rid {
        Rid::new(n, 0)
    }

    fn key(i: i64) -> IndexKey {
        IndexKey(vec![Value::from(i)])
    }

    fn populated() -> OrderedIndex {
        let idx = OrderedIndex::new(vec![0]);
        for i in 0..10 {
            idx.insert(&[Value::from(i)], rid(i as u32));
        }
        idx
    }

    #[test]
    fn exact_lookup() {
        let idx = populated();
        assert_eq!(idx.lookup(&key(3)), vec![rid(3)]);
        assert_eq!(idx.lookup(&key(99)), Vec::<Rid>::new());
    }

    /// DOUBLE keys order totally: NaN is a key of its own and never
    /// answers a lookup of a number.
    #[test]
    fn nan_is_a_key_of_its_own() {
        let idx = OrderedIndex::new(vec![0]);
        for (i, x) in [1.0, 2.0, f64::NAN].into_iter().enumerate() {
            idx.insert(&[Value::Float(x)], rid(i as u32));
        }
        assert_eq!(idx.key_count(), 3);
        assert_eq!(idx.lookup(&IndexKey(vec![Value::Float(1.0)])), vec![rid(0)]);
        assert_eq!(
            idx.lookup(&IndexKey(vec![Value::Float(f64::NAN)])),
            vec![rid(2)]
        );
    }

    #[test]
    fn range_inclusive() {
        let idx = populated();
        let got = idx.range(Some(&key(2)), Some(&key(5)));
        assert_eq!(got, vec![rid(2), rid(3), rid(4), rid(5)]);
    }

    #[test]
    fn range_unbounded() {
        let idx = populated();
        assert_eq!(idx.range(None, Some(&key(1))), vec![rid(0), rid(1)]);
        assert_eq!(idx.range(Some(&key(8)), None), vec![rid(8), rid(9)]);
        assert_eq!(idx.range(None, None).len(), 10);
    }

    #[test]
    fn inverted_range_is_empty() {
        let idx = populated();
        assert_eq!(idx.range(Some(&key(5)), Some(&key(2))), Vec::<Rid>::new());
        assert_eq!(idx.range(Some(&key(4)), Some(&key(4))), vec![rid(4)]);
    }

    #[test]
    fn remove_shrinks() {
        let idx = populated();
        idx.remove(&[Value::from(3)], rid(3)).unwrap();
        assert_eq!(idx.lookup(&key(3)), Vec::<Rid>::new());
        assert_eq!(idx.key_count(), 9);
        assert_eq!(
            idx.remove(&[Value::from(3)], rid(3)),
            Err(IndexError::MissingEntry)
        );
    }

    #[test]
    fn duplicate_keys_accumulate() {
        let idx = OrderedIndex::new(vec![0]);
        idx.insert(&[Value::from(1)], rid(1));
        idx.insert(&[Value::from(1)], rid(2));
        let mut got = idx.lookup(&key(1));
        got.sort();
        assert_eq!(got, vec![rid(1), rid(2)]);
    }
}
