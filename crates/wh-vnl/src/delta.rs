//! Net-effect delta batches: what a maintenance commit retains so expired
//! reader sessions can be *repaired* instead of restarted.
//!
//! The paper's protocol expires a session once its version window moves out
//! from under it, and §4.1's answer is restart-and-rescan. Veldhuizen's
//! transaction-repair observation (PAPERS.md) is that the session's partial
//! result is only wrong by exactly the tuples the overlapping maintenance
//! transactions touched — and the maintenance transaction knows precisely
//! which those are. Each write of a [`crate::MaintenanceTxn`] records its
//! tuple's **net effect** (the same per-tuple net-effect discipline Table 4
//! keeps inside the version slots) as it stamps slot 0; commit publishes what
//! the writes recorded as a [`DeltaBatch`] into the version state's bounded
//! delta log ([`wh_kernel::delta::DeltaLogCore`]), reading no page.
//! The [`crate::resilience::RepairEngine`] later replays the window
//! `(sessionVN, currentVN]` against the stale partial result; the kernel
//! model suite proves replay-of-a-complete-window ≡ rescan.
//!
//! A batch is retained even when it cannot drive repair (`repairable =
//! false`, e.g. a keyless table): retention must stay *contiguous* per VN or
//! every later window containing that VN would be indistinguishable from an
//! evicted one. Unrepairable batches make the window fail closed into the
//! restart fallback instead.

use crate::version::{Operation, VersionNo};
use std::collections::BTreeMap;
use wh_types::{Row, Value};

/// How many net-effect batches the delta log retains before evicting from
/// the front. Sized for the §5 regime the log exists for: a session that
/// falls more than this many maintenance transactions behind is far past
/// any tuned `n` and restarting it is the right call anyway.
pub const DELTA_LOG_CAPACITY: usize = 64;

/// The net effect of one maintenance transaction on one key of one table.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRow {
    /// Primary-key values ([`wh_types::Schema::key_of`]).
    pub key: Vec<Value>,
    /// Net logical operation: what a reader at the pre-commit VN must do to
    /// its copy of this key to reach the post-commit state.
    pub op: Operation,
    /// Base-schema row before the transaction (`None` for a net insert).
    pub pre: Option<Row>,
    /// Base-schema row after the transaction (`None` for a net delete).
    pub post: Option<Row>,
}

/// Everything one maintenance commit changed, keyed by its `maintenanceVN`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaBatch {
    /// The `maintenanceVN` that committed this batch.
    pub vn: VersionNo,
    /// Net-effect rows under the name of each keyed table the commit
    /// touched (a warehouse commit spans tables), each table's in heap order.
    pub rows: BTreeMap<String, Vec<DeltaRow>>,
    /// Whether the batch can drive repair. `false` (e.g. a touched table
    /// has no primary key) forces the restart fallback while keeping the
    /// log contiguous.
    pub repairable: bool,
}

impl DeltaBatch {
    /// An empty, repairable batch for `vn`, to which each table's commit
    /// capture adds its rows.
    pub fn empty(vn: VersionNo) -> Self {
        DeltaBatch {
            vn,
            rows: BTreeMap::new(),
            repairable: true,
        }
    }

    /// The rows touching `table`, in heap order.
    pub fn rows_for<'a>(&'a self, table: &'a str) -> impl Iterator<Item = &'a DeltaRow> {
        self.rows.get(table).into_iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_batch_is_repairable_and_rowless() {
        let b = DeltaBatch::empty(7);
        assert_eq!(b.vn, 7);
        assert!(b.repairable);
        assert_eq!(b.rows_for("t").count(), 0);
    }

    #[test]
    fn rows_for_filters_by_table() {
        let row = |k: i64| DeltaRow {
            key: vec![Value::from(k)],
            op: Operation::Insert,
            pre: None,
            post: Some(vec![Value::from(k)]),
        };
        let b = DeltaBatch {
            vn: 2,
            rows: BTreeMap::from([
                ("a".to_string(), vec![row(1), row(2)]),
                ("b".to_string(), vec![row(1)]),
            ]),
            repairable: true,
        };
        let keys: Vec<_> = b.rows_for("a").map(|r| r.key[0].clone()).collect();
        assert_eq!(keys, [Value::from(1), Value::from(2)]);
        assert_eq!(b.rows_for("b").count(), 1);
        assert_eq!(b.rows_for("c").count(), 0);
    }
}
