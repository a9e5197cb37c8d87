//! Graceful degradation under reader/maintenance contention.
//!
//! The paper's central trade-off (§5) is that 2VNL/nVNL never blocks
//! readers but may *expire* a session whose version gets overwritten. The
//! base layer surfaces that as [`crate::VnlError::SessionExpired`] and
//! leaves recovery to the caller. This module closes the loop, treating
//! version-unavailability as a recoverable condition with admission control
//! and bounded retry rather than an error:
//!
//! * [`lease`] — lease-based reader sessions: a session registers an
//!   expected-remaining-work hint with the warehouse-wide
//!   [`crate::VersionState`], so the system knows which VNs are
//!   load-bearing, and renews the lease as work progresses.
//! * [`retry`] — [`RetryPolicy`]: bounded attempts, jittered exponential
//!   backoff, and a deadline budget, transparently re-executing an expired
//!   read or query at a fresh VN. Each attempt buffers its output and
//!   discards it wholesale on expiration (the cursor-restart protocol), so
//!   partial scans never leak mixed-version rows.
//! * [`pacer`] — [`MaintenancePacer`]: admission control in front of
//!   `publish_commit`. Consults the active leases and the wh-obs staleness
//!   gauge, and — per policy — delays the version flip while it would
//!   expire a leased reader, or revokes the stalest leases and proceeds.
//! * [`adaptive`] — [`AdaptiveN`]: grows/shrinks the *effective* version
//!   window (within the physically provisioned slot count) from the
//!   observed expiration rate, the on-line counterpart of §5's static
//!   [`crate::choose_n`].
//! * [`repair`] — [`RepairEngine`]: answers an expired session's scan,
//!   lookup or SELECT as of `currentVN` from the maintenance commits'
//!   retained net-effect deltas. A scan or query repair reads the relation
//!   once plus the delta window; what it saves is re-running the caller's
//!   operation and the backoff before it. The retry layer tries repair
//!   first and falls back to restart when repair declines.
//!
//! The effective window governs only the §4.1 *global* (pessimistic)
//! liveness check; the physical slot mechanics — `push_back`, rollback,
//! Table 1 extraction — always use the provisioned `n`, so shrinking the
//! window is strictly conservative and can never cause a wrong answer.

pub mod adaptive;
pub mod lease;
pub mod pacer;
pub mod repair;
pub mod retry;

pub use adaptive::AdaptiveN;
pub use lease::{LeaseId, LeaseInfo, LeaseRegistry};
pub use pacer::{MaintenancePacer, PaceReport, PacerPolicy};
pub use repair::{RepairEngine, Repaired};
pub use retry::{RetryPolicy, RetryStats};
