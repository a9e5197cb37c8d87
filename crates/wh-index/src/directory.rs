//! Unique-key directory for a keyed relation.
//!
//! 2VNL maintenance translates logical inserts/updates/deletes into physical
//! operations by first asking "is there already a tuple with this key?"
//! (Tables 2–4, Example 4.2). A [`KeyDirectory`] answers that in O(1) and
//! enforces the physical-uniqueness invariant the paper's in-place-update
//! requirement exists to protect: at most one *physical record* per key.

use crate::key::IndexKey;
use crate::IndexError;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::RwLock;
use wh_storage::Rid;
use wh_types::{Schema, Value};

/// Directory over a schema's declared unique key: one RID per key.
///
/// Thread-safe; mutations take a write lock, lookups a read lock. This
/// mirrors index latching in a conventional DBMS — the paper's layer above
/// never holds an index latch across user-visible operations.
#[derive(Debug)]
pub struct KeyDirectory {
    columns: Vec<usize>,
    map: RwLock<HashMap<IndexKey, Rid>>,
}

impl KeyDirectory {
    /// Build a directory for `schema`'s key columns. Returns `None` when the
    /// schema declares no unique key (the paper's "tuples without unique
    /// keys" case, where Table 2's third row is always followed).
    pub fn for_schema(schema: &Schema) -> Option<Self> {
        if !schema.has_key() {
            return None;
        }
        Some(KeyDirectory {
            columns: schema.key().to_vec(),
            map: RwLock::new(HashMap::new()),
        })
    }

    /// The RID physically holding `row`'s key, if any.
    pub fn find(&self, row: &[Value]) -> Option<Rid> {
        self.find_key(IndexKey::project(row, &self.columns).values())
    }

    /// The RID physically holding `key` (the key columns' values, in key
    /// order), if any.
    pub fn find_key(&self, key: &[Value]) -> Option<Rid> {
        self.map
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(key)
            .copied()
    }

    /// Register `row` at `rid`; fails with the incumbent's RID on conflict.
    pub fn register(&self, row: &[Value], rid: Rid) -> Result<(), IndexError> {
        let mut map = self
            .map
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match map.entry(IndexKey::project(row, &self.columns)) {
            Entry::Occupied(e) => Err(IndexError::KeyConflict(*e.get())),
            Entry::Vacant(e) => {
                e.insert(rid);
                wh_obs::counter!("index.hash.inserts").inc();
                Ok(())
            }
        }
    }

    /// Unregister `row` at `rid` (on physical delete). A key registered at
    /// a different RID is left alone and reported as missing: a late
    /// cleanup must never tear down a successor's registration.
    pub fn unregister(&self, row: &[Value], rid: Rid) -> Result<(), IndexError> {
        let mut map = self
            .map
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match map.entry(IndexKey::project(row, &self.columns)) {
            Entry::Occupied(e) if *e.get() == rid => {
                e.remove();
                wh_obs::counter!("index.hash.removes").inc();
                Ok(())
            }
            _ => Err(IndexError::MissingEntry),
        }
    }

    /// Number of registered keys.
    pub fn len(&self) -> usize {
        self.map
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Whether no keys are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wh_types::schema::daily_sales_schema;
    use wh_types::{Column, DataType, Date, Schema};

    fn rid(n: u32) -> Rid {
        Rid::new(n, 0)
    }

    fn sales_row(city: &str) -> Vec<Value> {
        vec![
            Value::from(city),
            Value::from("CA"),
            Value::from("golf equip"),
            Value::from(Date::ymd(1996, 10, 14)),
            Value::from(10_000),
        ]
    }

    #[test]
    fn keyless_schema_has_no_directory() {
        let schema = Schema::new(vec![Column::new("a", DataType::Int32)]).unwrap();
        assert!(KeyDirectory::for_schema(&schema).is_none());
    }

    #[test]
    fn register_find_unregister() {
        let dir = KeyDirectory::for_schema(&daily_sales_schema()).unwrap();
        let row = sales_row("San Jose");
        assert_eq!(dir.find(&row), None);
        dir.register(&row, rid(7)).unwrap();
        assert_eq!(dir.find(&row), Some(rid(7)));
        // Key ignores the non-key total_sales column.
        let mut changed = row.clone();
        changed[4] = Value::from(99);
        assert_eq!(dir.find(&changed), Some(rid(7)));
        dir.unregister(&row, rid(7)).unwrap();
        assert!(dir.is_empty());
    }

    #[test]
    fn conflict_reports_incumbent() {
        let dir = KeyDirectory::for_schema(&daily_sales_schema()).unwrap();
        let row = sales_row("San Jose");
        dir.register(&row, rid(1)).unwrap();
        assert_eq!(
            dir.register(&row, rid(2)),
            Err(IndexError::KeyConflict(rid(1)))
        );
        // Different key registers fine.
        dir.register(&sales_row("Berkeley"), rid(2)).unwrap();
        assert_eq!(dir.len(), 2);
    }

    #[test]
    fn unregister_requires_the_registered_rid() {
        let dir = KeyDirectory::for_schema(&daily_sales_schema()).unwrap();
        let row = sales_row("San Jose");
        assert_eq!(dir.unregister(&row, rid(1)), Err(IndexError::MissingEntry));
        dir.register(&row, rid(1)).unwrap();
        assert_eq!(dir.unregister(&row, rid(9)), Err(IndexError::MissingEntry));
        assert_eq!(dir.find(&row), Some(rid(1)), "successor left alone");
        dir.unregister(&row, rid(1)).unwrap();
        dir.register(&row, rid(2)).unwrap();
        assert_eq!(dir.find(&row), Some(rid(2)));
    }
}
