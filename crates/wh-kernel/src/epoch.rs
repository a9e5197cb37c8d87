//! Epoch-based reclamation — the GC grace-period kernel.
//!
//! Readers *pin* an epoch before following any pointer (rid) into shared
//! storage and *unpin* when done. The collector *retires* an unlinked
//! object (tagging it with the epoch observed after the unlink), then
//! *advances* the global epoch when every pinned reader has caught up, and
//! finally *releases* retired objects whose tag is two advances old. The
//! two-epoch grace margin is the classic EBR argument: a reader pinned at
//! epoch `a` can still hold rids gathered at `a`, and one advance may slip
//! past it (the check races its announcement), but a second advance cannot
//! — so a retire tagged `e ≥ a` only drains once `G ≥ e + 2 > a + 1`, by
//! which point that reader has unpinned or re-pinned at a newer epoch.
//!
//! The kernel is effect-free: it decides *when* reclamation is safe, never
//! performs it. `wh-vnl`'s GC drains the retire list and does the actual
//! slot release. Compiled onto [`crate::sync`], so the same code runs under
//! std and under `wh-model`'s exhaustive schedule checker.

use std::collections::VecDeque;

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Mutex, PoisonError};

/// Announcement value meaning "this slot's reader is not in a critical
/// section". Epochs are small integers; `u64::MAX` can never be reached.
const IDLE: u64 = u64::MAX;

/// Number of epoch advances a retired object must survive before release.
pub const GRACE: u64 = 2;

/// The shared epoch state: one global epoch counter plus a fixed array of
/// per-reader announcement slots.
#[derive(Debug)]
pub struct EpochCore {
    global: AtomicU64,
    slots: Box<[AtomicU64]>,
}

/// RAII pin: the slot is re-announced as idle on drop.
#[derive(Debug)]
pub struct EpochPin<'a> {
    core: &'a EpochCore,
    slot: usize,
}

impl EpochPin<'_> {
    /// The announcement slot index held by this pin (telemetry/tests).
    pub fn slot(&self) -> usize {
        self.slot
    }
}

impl Drop for EpochPin<'_> {
    fn drop(&mut self) {
        self.core.unpin(self.slot);
    }
}

impl EpochCore {
    /// A core with `capacity` announcement slots (max concurrent pins).
    pub fn new(capacity: usize) -> Self {
        EpochCore {
            global: AtomicU64::new(0),
            slots: (0..capacity).map(|_| AtomicU64::new(IDLE)).collect(),
        }
    }

    /// Current global epoch.
    pub fn epoch(&self) -> u64 {
        // ordering: epoch SeqCst — the epoch read must not move before preceding
        // slot stores or after subsequent retire-list reads; the whole
        // protocol runs sequentially consistent (one load per scan/pass,
        // never per tuple, so the cost is irrelevant).
        self.global.load(Ordering::SeqCst)
    }

    /// Number of announcement slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The epoch announced in `slot`, `None` when idle (model tests and
    /// telemetry).
    pub fn announced(&self, slot: usize) -> Option<u64> {
        // ordering: epoch SeqCst — uniform with the rest of the protocol.
        let a = self.slots[slot].load(Ordering::SeqCst);
        (a != IDLE).then_some(a)
    }

    /// Number of currently pinned slots (telemetry only — racy by nature).
    pub fn pinned(&self) -> usize {
        self.slots
            .iter()
            // ordering: epoch SeqCst — uniform with the rest of the protocol;
            // the count is advisory either way.
            .filter(|s| s.load(Ordering::SeqCst) != IDLE)
            .count()
    }

    /// Try to pin the current epoch: claim a free announcement slot and
    /// publish the global epoch into it, re-reading until the announcement
    /// is *stable* (global unchanged across the store). `None` when all
    /// slots are taken — callers back off and retry; the kernel never
    /// spins so the model checker can enumerate it.
    ///
    /// The re-announce loop is load-bearing: without it, a reader that is
    /// preempted between reading `global` and storing its announcement
    /// could publish an epoch arbitrarily older than `global`, and
    /// [`Self::try_advance`] (which only compares against the *current*
    /// global) could have advanced twice already — voiding the grace
    /// margin. Re-reading after the store guarantees the announced epoch
    /// is at most one behind any concurrent advance.
    pub fn try_pin(&self) -> Option<EpochPin<'_>> {
        let slot = self.claim_slot()?;
        // ordering: epoch SeqCst — the initial epoch read; the loop below makes
        // any staleness here harmless.
        let mut e = self.global.load(Ordering::SeqCst);
        loop {
            // ordering: epoch SeqCst — publish the announcement before re-checking
            // global; must not reorder after the load below, or a concurrent
            // try_advance could miss this pin and advance past it twice.
            self.slots[slot].store(e, Ordering::SeqCst);
            // ordering: epoch SeqCst — see the store above; this load validates
            // that the published announcement equals the current epoch.
            let now = self.global.load(Ordering::SeqCst);
            if now == e {
                return Some(EpochPin { core: self, slot });
            }
            e = now;
        }
    }

    /// Claim an IDLE slot via CAS; `None` if every slot is pinned.
    fn claim_slot(&self) -> Option<usize> {
        for (i, s) in self.slots.iter().enumerate() {
            // ordering: epoch SeqCst/SeqCst — slot ownership handoff; success
            // makes the claim visible to other claimants and to
            // try_advance's sweep.
            if s.compare_exchange(IDLE, 0, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Some(i);
            }
        }
        None
    }

    /// Release a pinned slot (done by [`EpochPin::drop`]).
    fn unpin(&self, slot: usize) {
        // ordering: epoch SeqCst — the idle store must not reorder before the
        // reader's final shared-memory reads, or the collector could
        // release an object the reader is still dereferencing.
        self.slots[slot].store(IDLE, Ordering::SeqCst);
    }

    /// Try to advance the global epoch. Succeeds (returning the new epoch)
    /// only when every announcement slot is idle or already at the current
    /// epoch; otherwise returns `None` and the epoch is unchanged. At most
    /// one advance can slip past a reader whose announcement store races
    /// this sweep — the `GRACE = 2` margin absorbs exactly that.
    pub fn try_advance(&self) -> Option<u64> {
        // ordering: epoch SeqCst — snapshot the epoch the sweep compares against.
        let e = self.global.load(Ordering::SeqCst);
        for s in &self.slots {
            // ordering: epoch SeqCst — each announcement must be read no earlier
            // than the epoch snapshot above; a stale read here could treat
            // a just-pinned reader as idle.
            let a = s.load(Ordering::SeqCst);
            if a != IDLE && a != e {
                return None;
            }
        }
        // ordering: epoch SeqCst/SeqCst — the advance itself; failure means a
        // concurrent advancer won, which is just as good for our caller.
        match self
            .global
            .compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => Some(e + 1),
            Err(now) => Some(now),
        }
    }
}

/// A deferred-reclamation queue: unlinked objects tagged with the epoch at
/// which they were retired, drained once the grace period has elapsed.
///
/// Tags are monotone in queue order (the tag is read under the queue lock
/// from a monotone counter), so draining pops from the front only.
#[derive(Debug)]
pub struct RetireList<T> {
    items: Mutex<VecDeque<(u64, T)>>,
}

impl<T> Default for RetireList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RetireList<T> {
    pub fn new() -> Self {
        RetireList {
            items: Mutex::new(VecDeque::new()),
        }
    }

    fn locked(&self) -> crate::sync::MutexGuard<'_, VecDeque<(u64, T)>> {
        self.items.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Retire an object, tagging it with the epoch observed *now*. The
    /// caller must have already unlinked the object from every shared
    /// structure: the tag is deliberately read at insert time (not passed
    /// in), so it is ≥ the epoch any still-pinned reader announced before
    /// the unlink — which is exactly what the grace argument needs.
    pub fn retire(&self, core: &EpochCore, item: T) -> u64 {
        let mut q = self.locked();
        let e = core.epoch();
        q.push_back((e, item));
        e
    }

    /// Pop every object whose tag is at least [`GRACE`] epochs old. These
    /// are safe to physically reclaim: no pin from before the unlink can
    /// still be active.
    pub fn drain_safe(&self, core: &EpochCore) -> Vec<T> {
        let now = core.epoch();
        let mut q = self.locked();
        let ready = q.iter().take_while(|&&(tag, _)| tag + GRACE <= now).count();
        q.drain(..ready).map(|(_, item)| item).collect()
    }

    /// Objects still waiting for their grace period (telemetry).
    pub fn len(&self) -> usize {
        self.locked().len()
    }

    pub fn is_empty(&self) -> bool {
        self.locked().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_blocks_advance_until_dropped() {
        let core = EpochCore::new(2);
        assert_eq!(core.epoch(), 0);
        let pin = core.try_pin().expect("slot free");
        assert_eq!(core.pinned(), 1);
        // The pinned reader announced epoch 0, which equals global — one
        // advance is allowed (the reader entered *at* 0, objects retired
        // at 0 were unlinked before its probe or are still reachable).
        assert_eq!(core.try_advance(), Some(1));
        // Now the announcement (0) lags global (1): no further advance.
        assert_eq!(core.try_advance(), None);
        drop(pin);
        assert_eq!(core.pinned(), 0);
        assert_eq!(core.try_advance(), Some(2));
    }

    #[test]
    fn retire_drains_only_after_grace() {
        let core = EpochCore::new(1);
        let list = RetireList::new();
        assert_eq!(list.retire(&core, "a"), 0);
        assert!(list.drain_safe(&core).is_empty(), "no grace yet");
        core.try_advance().unwrap();
        assert!(
            list.drain_safe(&core).is_empty(),
            "one advance is not enough"
        );
        core.try_advance().unwrap();
        assert_eq!(list.drain_safe(&core), vec!["a"]);
        assert!(list.is_empty());
    }

    #[test]
    fn slot_exhaustion_returns_none_and_recovers() {
        let core = EpochCore::new(2);
        let p1 = core.try_pin().unwrap();
        let p2 = core.try_pin().unwrap();
        assert_ne!(p1.slot(), p2.slot());
        assert!(core.try_pin().is_none(), "all slots pinned");
        drop(p1);
        let p3 = core.try_pin().expect("slot freed by drop");
        drop((p2, p3));
        assert_eq!(core.pinned(), 0);
    }

    #[test]
    fn repin_announces_current_epoch() {
        let core = EpochCore::new(1);
        for _ in 0..5 {
            core.try_advance().unwrap();
        }
        let pin = core.try_pin().unwrap();
        // The announcement equals the current epoch, so one advance works.
        assert_eq!(core.try_advance(), Some(6));
        assert_eq!(core.try_advance(), None);
        drop(pin);
    }

    #[test]
    fn drain_order_is_fifo_per_tag() {
        let core = EpochCore::new(1);
        let list = RetireList::new();
        list.retire(&core, 1);
        core.try_advance().unwrap();
        list.retire(&core, 2);
        core.try_advance().unwrap();
        // Epoch is 2: only the tag-0 retire has aged out.
        assert_eq!(list.drain_safe(&core), vec![1]);
        assert_eq!(list.len(), 1);
        core.try_advance().unwrap();
        assert_eq!(list.drain_safe(&core), vec![2]);
    }
}
