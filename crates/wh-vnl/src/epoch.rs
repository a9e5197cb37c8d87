//! The table's epoch-reclamation domain: the `wh_kernel::epoch` kernel
//! applied to heap RIDs.
//!
//! Readers pin an epoch for the duration of any operation that follows
//! RIDs into the heap (scans, index probes, key lookups); the GC retires a
//! reclaimed tuple's RID instead of freeing its slot, and only releases
//! the slot for reuse once the epoch has advanced [`GRACE`] times past the
//! retire — by which point no pin from before the unlink can still be
//! active. This replaces the old scheme where reclamation raced readers on
//! nothing but the per-page latch: a reader holding a RID across a latch
//! release could have had its slot reused under it. With epochs, no scan
//! or lookup ever blocks reclamation via a lock — it merely holds the
//! epoch, and the collector defers the physical release.

use wh_kernel::epoch::{EpochCore, EpochPin, RetireList, GRACE};
use wh_storage::Rid;

/// Announcement slots available for concurrent pins. A point read or index
/// lookup holds one pin, a scan one per partition (taken on the thread
/// that walks it), so this bounds concurrent read partitions.
const PIN_SLOTS: usize = 128;

/// Per-table epoch state: the kernel core plus the deferred-release queue
/// of retired RIDs.
#[derive(Debug)]
pub(crate) struct EpochDomain {
    core: EpochCore,
    retired: RetireList<Rid>,
}

impl EpochDomain {
    pub(crate) fn new() -> Self {
        EpochDomain {
            core: EpochCore::new(PIN_SLOTS),
            retired: RetireList::new(),
        }
    }

    /// Pin the current epoch, spinning (with yields) while all
    /// announcement slots are taken. The kernel itself never spins — the
    /// backoff lives here so the model checker can still enumerate the
    /// kernel's `try_pin`.
    pub(crate) fn pin(&self) -> EpochPin<'_> {
        loop {
            if let Some(pin) = self.core.try_pin() {
                return pin;
            }
            std::thread::yield_now();
        }
    }

    /// Queue a retired (unlinked, invisible) RID for release after the
    /// grace period. Returns the epoch tag.
    pub(crate) fn retire(&self, rid: Rid) -> u64 {
        let tag = self.retired.retire(&self.core, rid);
        wh_obs::gauge!("vnl.gc.retired_backlog").set(self.retired.len() as i64);
        tag
    }

    /// Try to advance the epoch up to [`GRACE`] times (each attempt fails
    /// harmlessly while a pinned reader lags). Returns how many advances
    /// succeeded.
    pub(crate) fn advance_for_grace(&self) -> u64 {
        let mut advanced = 0;
        for _ in 0..GRACE {
            if self.core.try_advance().is_none() {
                break;
            }
            advanced += 1;
        }
        advanced
    }

    /// RIDs whose grace period has elapsed — safe to physically release.
    pub(crate) fn drain_safe(&self) -> Vec<Rid> {
        let out = self.retired.drain_safe(&self.core);
        wh_obs::gauge!("vnl.gc.retired_backlog").set(self.retired.len() as i64);
        out
    }

    /// Retired RIDs still waiting out their grace period.
    pub(crate) fn backlog(&self) -> usize {
        self.retired.len()
    }

    /// Current global epoch (telemetry/tests).
    pub(crate) fn epoch(&self) -> u64 {
        self.core.epoch()
    }

    /// Number of currently pinned readers (telemetry/tests — racy).
    pub(crate) fn pinned(&self) -> usize {
        self.core.pinned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retire_release_cycle_is_synchronous_when_unpinned() {
        let d = EpochDomain::new();
        let rid = Rid { page: 0, slot: 3 };
        d.retire(rid);
        assert_eq!(d.backlog(), 1);
        assert_eq!(d.advance_for_grace(), GRACE);
        assert_eq!(d.drain_safe(), vec![rid]);
        assert_eq!(d.backlog(), 0);
    }

    #[test]
    fn pinned_reader_defers_release() {
        let d = EpochDomain::new();
        let pin = d.pin();
        d.retire(Rid { page: 0, slot: 0 });
        // One advance can slip past the pin, the second cannot.
        assert_eq!(d.advance_for_grace(), 1);
        assert!(d.drain_safe().is_empty(), "grace period not yet elapsed");
        assert_eq!(d.pinned(), 1);
        drop(pin);
        assert_eq!(d.advance_for_grace(), GRACE);
        assert_eq!(d.drain_safe().len(), 1);
        assert!(d.epoch() >= GRACE);
    }
}
