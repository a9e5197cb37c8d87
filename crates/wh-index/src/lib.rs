//! Secondary indexes for the `warehouse-2vnl` system.
//!
//! §4.3 of the paper observes that under 2VNL, indexes on **non-updatable**
//! attributes are unaffected by versioning — and for warehouse summary tables
//! the key/group-by attributes are exactly the non-updatable ones. The
//! maintenance rewrite also needs a unique-key index to detect the "insert
//! failed due to a unique key conflict" case of Example 4.2 (Table 2 rows
//! 1–2). Both needs are served here:
//!
//! * [`OrderedIndex`] — equality plus range scans (BTree-backed).
//! * [`KeyDirectory`] — the unique-key directory a 2VNL table keeps over its
//!   key attributes.

pub mod directory;
pub mod key;
pub mod ordered;

pub use directory::KeyDirectory;
pub use key::IndexKey;
pub use ordered::OrderedIndex;

use std::fmt;

/// Index-layer errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// A unique index rejected a duplicate key. Carries the conflicting
    /// entry's RID so the maintenance path can fall back to an update
    /// (Example 4.2).
    KeyConflict(wh_storage::Rid),
    /// An entry to remove was not present.
    MissingEntry,
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::KeyConflict(rid) => write!(f, "unique key conflict with record {rid}"),
            IndexError::MissingEntry => write!(f, "index entry not found"),
        }
    }
}

impl std::error::Error for IndexError {}
