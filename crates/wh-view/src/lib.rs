//! Incremental view maintenance for warehouse summary tables.
//!
//! The paper's setting (§1, §2): the warehouse stores **materialized views**
//! — most importantly *summary tables*, i.e. select-from-where-groupby
//! aggregate views \[HRU96\] — and a periodic **maintenance transaction**
//! propagates batched source changes into them incrementally \[GL95\]. This
//! crate supplies that machinery:
//!
//! * [`SummaryViewDef`] — a `SELECT G..., SUM(m), COUNT(*) GROUP BY G...`
//!   view over a source relation. The count column is the standard support
//!   count that tells the maintainer when a group becomes empty and must be
//!   logically deleted.
//! * [`SourceDelta`] / [`summarize`] — net-effect computation over a batch
//!   of source insertions/deletions (\[SP89\]): one aggregated delta per
//!   group, no matter how many source rows touched it.
//! * [`ViewMaintainer`] — translates group deltas into logical
//!   insert/update/delete operations on a 2VNL-maintained summary table,
//!   applied as one page-ordered batch inside one maintenance transaction.

pub mod delta;
pub mod maintainer;

pub use delta::{summarize, GroupDelta, SourceDelta};
pub use maintainer::{SummaryViewDef, ViewMaintainer};
