//! Net-effect computation over batched source changes (\[SP89\]).

use std::collections::HashMap;
use wh_index::IndexKey;
use wh_types::{Row, Value};

/// One change to the source relation. Updates are modeled as
/// delete-then-insert, as in the delta-propagation literature.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceDelta {
    /// A source row was inserted.
    Insert(Row),
    /// A source row was deleted.
    Delete(Row),
}

/// The aggregated net effect of a batch on one group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupDelta {
    /// Group-by key values.
    pub key: Vec<Value>,
    /// Net change to the SUM measure.
    pub sum_delta: i64,
    /// Net change to the support count.
    pub count_delta: i64,
}

/// Collapse a batch of source deltas into one [`GroupDelta`] per group:
/// `group_cols` index the group-by attributes of the source rows,
/// `measure_col` the summed measure. Groups whose batch-net effect is zero
/// (both sum and count) are dropped entirely — the \[SP89\] net-effect rule
/// that keeps maintenance transactions from touching tuples needlessly.
pub fn summarize(
    batch: &[SourceDelta],
    group_cols: &[usize],
    measure_col: usize,
) -> Vec<GroupDelta> {
    // Each group's position in `out`, in first-seen order: a delta builds
    // one key and hashes it once, and each group takes its key from this
    // index at the end, with no second lookup.
    let mut at: HashMap<IndexKey, usize> = HashMap::with_capacity(batch.len());
    let mut out: Vec<GroupDelta> = Vec::with_capacity(batch.len());
    for delta in batch {
        let (row, sign) = match delta {
            SourceDelta::Insert(r) => (r, 1i64),
            SourceDelta::Delete(r) => (r, -1i64),
        };
        let measure = row[measure_col].as_int().unwrap_or(0);
        let i = *at
            .entry(IndexKey::project(row, group_cols))
            .or_insert(out.len());
        if i == out.len() {
            out.push(GroupDelta {
                key: Vec::new(),
                sum_delta: 0,
                count_delta: 0,
            });
        }
        out[i].sum_delta += sign * measure;
        out[i].count_delta += sign;
    }
    for (key, i) in at {
        out[i].key = key.0;
    }
    out.retain(|g| g.sum_delta != 0 || g.count_delta != 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sale(city: &str, amount: i64) -> Row {
        vec![Value::from(city), Value::from(amount)]
    }

    #[test]
    fn aggregates_per_group() {
        let batch = vec![
            SourceDelta::Insert(sale("SJ", 100)),
            SourceDelta::Insert(sale("SJ", 50)),
            SourceDelta::Insert(sale("B", 10)),
        ];
        let out = summarize(&batch, &[0], 1);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].key, vec![Value::from("SJ")]);
        assert_eq!(out[0].sum_delta, 150);
        assert_eq!(out[0].count_delta, 2);
        assert_eq!(out[1].sum_delta, 10);
    }

    #[test]
    fn deletions_subtract() {
        let batch = vec![
            SourceDelta::Insert(sale("SJ", 100)),
            SourceDelta::Delete(sale("SJ", 30)),
        ];
        let out = summarize(&batch, &[0], 1);
        assert_eq!(out[0].sum_delta, 70);
        assert_eq!(out[0].count_delta, 0);
    }

    #[test]
    fn exact_cancellation_drops_the_group() {
        let batch = vec![
            SourceDelta::Insert(sale("SJ", 100)),
            SourceDelta::Delete(sale("SJ", 100)),
            SourceDelta::Insert(sale("B", 5)),
        ];
        let out = summarize(&batch, &[0], 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].key, vec![Value::from("B")]);
    }

    #[test]
    fn empty_batch() {
        assert!(summarize(&[], &[0], 1).is_empty());
    }

    #[test]
    fn preserves_first_seen_order() {
        let batch = vec![
            SourceDelta::Insert(sale("Z", 1)),
            SourceDelta::Insert(sale("A", 1)),
            SourceDelta::Insert(sale("Z", 1)),
        ];
        let out = summarize(&batch, &[0], 1);
        assert_eq!(out[0].key, vec![Value::from("Z")]);
        assert_eq!(out[1].key, vec![Value::from("A")]);
    }
}
