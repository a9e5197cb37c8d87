//! The version-global kernel: `currentVN`, `maintenanceActive`, the
//! lock-free telemetry mirror, and the recovery fence.
//!
//! This is the latched core of `wh_vnl::VersionState` (§3/§4 of the paper):
//! the wrapper owns the one-tuple `Version` relation, failpoints, and
//! telemetry, and passes them back in as `under_latch` closures so their
//! position relative to the state mutations — which the crash matrix
//! depends on — is preserved exactly.

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Mutex, MutexGuard, PoisonError};

/// Database / maintenance-transaction version number.
pub type VersionNo = u64;

/// Point-in-time copy of the version globals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionView {
    /// The current database version number.
    pub current_vn: VersionNo,
    /// Whether a maintenance transaction is active.
    pub maintenance_active: bool,
}

/// Why [`VersionCore::begin_maintenance`] refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeginError<E> {
    /// A maintenance transaction is already active (the one-at-a-time
    /// external protocol).
    AlreadyActive,
    /// The `under_latch` effect failed; `maintenanceActive` stays set, as
    /// in the production wrapper, and recovery must clear it.
    Effect(E),
}

struct Inner {
    current_vn: VersionNo,
    maintenance_active: bool,
}

/// Global version state: a latched pair plus two lock-free atomics.
pub struct VersionCore {
    inner: Mutex<Inner>,
    /// Relaxed mirror of `Inner::current_vn` for telemetry hot paths: read
    /// without the latch, may trail the latched value by an instant, never
    /// torn, and no data is ever dereferenced through it.
    current_vn_relaxed: AtomicU64,
    /// The recovery fence: smallest `sessionVN` post-crash-recovery reads
    /// are guaranteed to serve exactly. Monotone; `1` = no inexact
    /// recovery has ever run.
    recovery_floor: AtomicU64,
}

impl Default for VersionCore {
    fn default() -> Self {
        Self::new()
    }
}

impl VersionCore {
    /// Fresh state: `currentVN = 1`, no maintenance active (§3: "Variable
    /// currentVN is 1 initially").
    pub fn new() -> Self {
        VersionCore {
            inner: Mutex::new(Inner {
                current_vn: 1,
                maintenance_active: false,
            }),
            current_vn_relaxed: AtomicU64::new(1),
            recovery_floor: AtomicU64::new(1),
        }
    }

    /// Resume state persisted by a checkpoint: seed `currentVN`, the
    /// `maintenanceActive` flag, and the recovery fence exactly as the
    /// checkpoint recorded them. The §7 disk-recovery pass starts from
    /// here — a checkpoint taken mid-maintenance resumes with the flag
    /// still set, and the slot-reconstruction pass clears it.
    ///
    /// Lives in this crate (not the wrapper) because `recovery_floor` is a
    /// private field, deliberately unreachable from outside, and a seeded
    /// floor is still a *raise* from the fence's point of view: it is
    /// monotone from the persisted value on.
    pub fn resume(
        current_vn: VersionNo,
        maintenance_active: bool,
        recovery_floor: VersionNo,
    ) -> Self {
        VersionCore {
            inner: Mutex::new(Inner {
                current_vn,
                maintenance_active,
            }),
            current_vn_relaxed: AtomicU64::new(current_vn),
            recovery_floor: AtomicU64::new(recovery_floor.max(1)),
        }
    }

    /// Take the latch, recovering from poison: version mutations are
    /// multi-field but a panic between them leaves values a recovering
    /// process can still read (the crash matrix proves it), so readers must
    /// keep working instead of cascading the panic.
    fn locked(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Read both globals under the latch, running `under_latch` (the
    /// wrapper's mirror-relation read) while it is held.
    pub fn snapshot_with(&self, under_latch: impl FnOnce(&VersionView)) -> VersionView {
        let inner = self.locked();
        let view = VersionView {
            current_vn: inner.current_vn,
            maintenance_active: inner.maintenance_active,
        };
        under_latch(&view);
        view
    }

    /// Read both globals under the latch with no side effects.
    pub fn peek(&self) -> VersionView {
        self.snapshot_with(|_| {})
    }

    /// Lock-free read of `currentVN` alone — the telemetry form.
    pub fn current_vn_relaxed(&self) -> VersionNo {
        // ordering: vn-mirror Relaxed — a monotone staleness probe; callers tolerate
        // a value that trails the latched truth and never dereference
        // through it. The latched snapshot is the consistency anchor.
        self.current_vn_relaxed.load(Ordering::Relaxed)
    }

    /// The current recovery fence.
    pub fn recovery_floor(&self) -> VersionNo {
        // ordering: recovery-floor Acquire — pairs with the AcqRel fetch_max in
        // `raise_recovery_floor`: a session that observes the raised floor
        // also observes everything recovery did before raising it.
        self.recovery_floor.load(Ordering::Acquire)
    }

    /// Raise the recovery fence to `floor` (monotone; lowering is a
    /// no-op). Must be called *before* recovery mutates any tuple, so a
    /// scan in flight re-checks the fence when it completes and expires
    /// instead of returning reconstructed values.
    pub fn raise_recovery_floor(&self, floor: VersionNo) {
        // ordering: recovery-floor AcqRel — Release publishes the pre-raise state to
        // fence readers; Acquire keeps the subsequent slot rebuilding from
        // being reordered before the raise.
        self.recovery_floor.fetch_max(floor, Ordering::AcqRel);
    }

    /// Begin a maintenance transaction: set the active flag and return
    /// `maintenanceVN = currentVN + 1`. `under_latch(current_vn)` runs
    /// after the flag flip (failpoint + mirror write); its error leaves the
    /// flag set, exactly the state crash recovery must clear.
    ///
    /// # Errors
    ///
    /// [`BeginError::AlreadyActive`] under the one-at-a-time protocol;
    /// [`BeginError::Effect`] propagates the closure's error.
    pub fn begin_maintenance<E>(
        &self,
        under_latch: impl FnOnce(VersionNo) -> Result<(), E>,
    ) -> Result<VersionNo, BeginError<E>> {
        let mut inner = self.locked();
        if inner.maintenance_active {
            return Err(BeginError::AlreadyActive);
        }
        inner.maintenance_active = true;
        under_latch(inner.current_vn).map_err(BeginError::Effect)?;
        Ok(inner.current_vn + 1)
    }

    /// Publish a maintenance commit: `currentVN ← maintenance_vn`, flag
    /// off, lock-free mirror updated — all under one latch hold. `pre`
    /// runs before any mutation (the failpoint position: its error commits
    /// nothing); `post(maintenance_vn)` runs after (the mirror write).
    ///
    /// # Errors
    ///
    /// Propagates the first closure error; a `pre` error leaves the
    /// globals untouched.
    pub fn publish_commit<E>(
        &self,
        maintenance_vn: VersionNo,
        pre: impl FnOnce() -> Result<(), E>,
        post: impl FnOnce(VersionNo) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut inner = self.locked();
        pre()?;
        debug_assert_eq!(maintenance_vn, inner.current_vn + 1);
        inner.current_vn = maintenance_vn;
        // ordering: vn-mirror Relaxed — the mirror is advisory (see
        // `current_vn_relaxed`); the store sits inside the latch hold so
        // it can never lead the latched value by more than this critical
        // section.
        self.current_vn_relaxed
            .store(maintenance_vn, Ordering::Relaxed);
        inner.maintenance_active = false;
        post(maintenance_vn)
    }

    /// Record a maintenance abort: flag off, `currentVN` unchanged. `pre`
    /// is the failpoint position; `post(current_vn)` the mirror write.
    ///
    /// # Errors
    ///
    /// Propagates the first closure error; a `pre` error leaves the
    /// globals untouched.
    pub fn publish_abort<E>(
        &self,
        pre: impl FnOnce() -> Result<(), E>,
        post: impl FnOnce(VersionNo) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut inner = self.locked();
        pre()?;
        inner.maintenance_active = false;
        post(inner.current_vn)
    }

    /// The §4.1 global (pessimistic) session-liveness check, generalized
    /// for nVNL, fenced by the recovery floor. `under_latch` is the I/O
    /// charge the wrapper levies for the snapshot read.
    pub fn session_live_with(
        &self,
        session_vn: VersionNo,
        n: usize,
        under_latch: impl FnOnce(&VersionView),
    ) -> bool {
        if session_vn < self.recovery_floor() {
            // A crash recovery reconstructed slots this session's reads
            // would depend on; it must expire rather than read a guess.
            return false;
        }
        let snap = self.snapshot_with(under_latch);
        let n = n as u64;
        // With n versions, a session survives overlapping n-1 maintenance
        // transactions. Sessions at currentVN are always live. A session
        // at currentVN - k (k >= 1) has overlapped k committed maintenance
        // transactions plus possibly the active one.
        let k = snap.current_vn.saturating_sub(session_vn);
        if session_vn > snap.current_vn {
            return false; // cannot happen through the public API
        }
        let overlapped = k + u64::from(snap.maintenance_active);
        overlapped < n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_and_global_check() {
        let c = VersionCore::new();
        assert_eq!(c.peek().current_vn, 1);
        let vn = c
            .begin_maintenance(|cur| {
                assert_eq!(cur, 1);
                Ok::<(), ()>(())
            })
            .unwrap();
        assert_eq!(vn, 2);
        assert!(matches!(
            c.begin_maintenance(|_| Ok::<(), ()>(())),
            Err(BeginError::AlreadyActive)
        ));
        assert!(c.session_live_with(1, 2, |_| {}));
        c.publish_commit(vn, || Ok::<(), ()>(()), |_| Ok(()))
            .unwrap();
        assert_eq!(c.peek().current_vn, 2);
        assert_eq!(c.current_vn_relaxed(), 2);
        assert!(c.session_live_with(1, 2, |_| {}));
        let vn = c.begin_maintenance(|_| Ok::<(), ()>(())).unwrap();
        assert!(!c.session_live_with(1, 2, |_| {}));
        assert!(c.session_live_with(1, 3, |_| {}));
        c.publish_abort(|| Ok::<(), ()>(()), |_| Ok(())).unwrap();
        assert_eq!(c.peek().current_vn, 2);
        assert_eq!(c.begin_maintenance(|_| Ok::<(), ()>(())).unwrap(), vn);
    }

    #[test]
    fn failed_begin_effect_leaves_flag_set() {
        let c = VersionCore::new();
        assert!(matches!(
            c.begin_maintenance(|_| Err("io")),
            Err(BeginError::Effect("io"))
        ));
        assert!(c.peek().maintenance_active, "recovery clears this state");
    }

    #[test]
    fn failed_commit_pre_commits_nothing() {
        let c = VersionCore::new();
        let vn = c.begin_maintenance(|_| Ok::<(), &str>(())).unwrap();
        assert_eq!(
            c.publish_commit(vn, || Err("crash"), |_| Ok(())),
            Err("crash")
        );
        let view = c.peek();
        assert_eq!(view.current_vn, 1);
        assert!(view.maintenance_active);
        assert_eq!(c.current_vn_relaxed(), 1);
    }

    #[test]
    fn recovery_floor_is_monotone_and_fences() {
        let c = VersionCore::new();
        assert!(c.session_live_with(1, 2, |_| {}));
        c.raise_recovery_floor(2);
        c.raise_recovery_floor(1); // lowering is a no-op
        assert_eq!(c.recovery_floor(), 2);
        assert!(!c.session_live_with(1, 8, |_| {}), "fenced regardless of n");
    }
}
