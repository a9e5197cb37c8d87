//! The buffer-pool frame kernel: per-frame dirty/referenced bits and the
//! clock-eviction verdict.
//!
//! This is the concurrency-bearing core of `wh_storage`'s buffer pool,
//! stripped of the I/O it gates (page serialization, `write_at`, metrics).
//! The production pool's protocol, which the model tests explore
//! exhaustively:
//!
//! * A frame's **pin count** is the number of outstanding page handles
//!   beyond the frame's own (in production: `Arc::strong_count − 1`, read
//!   under the frame's state write latch, which excludes the handle-cloning
//!   fast path that runs under the state read latch).
//! * [`FrameCore::evict_verdict`] is consulted only under that latch; a
//!   verdict of [`EvictVerdict::MustFlush`] obliges the caller to write the
//!   page image *before* dropping it, and a pinned frame is never dropped.
//! * The dirty bit is set while holding the page's own write latch;
//!   flushers [`FrameCore::clear_dirty`] (an atomic swap) *before* reading
//!   the page bytes under the page read latch — a writer racing the flush
//!   either lands its bytes before the flusher's read, or re-marks the
//!   frame dirty after it, so no update is ever silently clean.
//! * A fault [`FrameCore::install`]s the page clean. A point fetch installs
//!   it referenced. A scan installs it unreferenced and, once it has copied
//!   the page out and unpinned it, takes the frame back itself (the
//!   **ring step**): one [`FrameCore::ring_verdict`] on that frame alone,
//!   acted on as the clock acts on its verdict. So the step evicts only a
//!   frame the scan faulted in and nobody has referenced since, never one
//!   another handle still pins, and a dirty one only after its flush.
//!   Every other fetch of the page sets the bit, and the step then leaves
//!   the frame, bit and all, to the clock.

use crate::sync::atomic::{AtomicBool, Ordering};

/// What the clock hand should do with a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictVerdict {
    /// Outstanding page handles exist: skip, never evict.
    Pinned,
    /// The reference bit was set: skip. The clock's verdict has cleared it
    /// (the second chance); the ring step's leaves it for the clock.
    SecondChance,
    /// Unpinned, unreferenced, clean: safe to drop without I/O.
    Clean,
    /// Unpinned, unreferenced, dirty: the caller must write the page image
    /// out before dropping it.
    MustFlush,
}

/// Per-frame eviction state: a dirty bit and a clock reference bit.
#[derive(Debug, Default)]
pub struct FrameCore {
    dirty: AtomicBool,
    referenced: AtomicBool,
}

impl FrameCore {
    /// A clean, unreferenced frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that the frame's page has unwritten modifications. Called
    /// while the caller holds the page write latch, so it can never race a
    /// flusher's bytes-read of the same modification.
    pub fn mark_dirty(&self) {
        // ordering: pool-frame SeqCst — uniform with the rest of the frame protocol;
        // the page latch is the real publication edge for the bytes, this
        // bit only schedules I/O.
        self.dirty.store(true, Ordering::SeqCst);
    }

    /// Whether the frame's page has unwritten modifications.
    pub fn is_dirty(&self) -> bool {
        // ordering: pool-frame SeqCst — uniform with the rest of the frame protocol.
        self.dirty.load(Ordering::SeqCst)
    }

    /// Claim the dirty bit for a flush: atomically clear it and report
    /// whether it was set. The swap (rather than load-then-store) closes
    /// the lost-update window between two racing flushers — exactly one
    /// observes `true` and performs the write.
    pub fn clear_dirty(&self) -> bool {
        // ordering: pool-frame SeqCst — the claim must not reorder after the flusher's
        // subsequent page-bytes read; a writer blocked on the page latch
        // re-marks after that read completes.
        self.dirty.swap(false, Ordering::SeqCst)
    }

    /// Install a page just read from disk, under the frame's state write
    /// latch: clean, and referenced or not. A point fetch passes `true`, so
    /// the clock gives the page its second chance. A scan passes `false`:
    /// until some other fetch references the page, its own ring step (see
    /// the module docs) may evict it at once.
    pub fn install(&self, referenced: bool) {
        self.clear_dirty();
        // ordering: pool-frame SeqCst — uniform with the rest of the frame protocol.
        self.referenced.store(referenced, Ordering::SeqCst);
    }

    /// Record a page access (fetch hit or miss) for clock second-chance.
    pub fn mark_referenced(&self) {
        // ordering: pool-frame SeqCst — uniform; the bit is a heuristic, but keeping
        // one ordering across the protocol keeps the model and production
        // identical.
        self.referenced.store(true, Ordering::SeqCst);
    }

    /// The clock-hand decision for a frame whose state latch the caller
    /// holds. `pins` is the number of outstanding page handles beyond the
    /// frame's own; the latch guarantees no new handle appears while the
    /// verdict is acted on.
    pub fn evict_verdict(&self, pins: usize) -> EvictVerdict {
        self.verdict(pins, true)
    }

    /// The ring step's decision (module docs) on the frame the caller's own
    /// scan fault installed, under its state latch: the clock's, except
    /// that a frame referenced since the fault keeps its reference bit, so
    /// the clock still owes it its second chance.
    pub fn ring_verdict(&self, pins: usize) -> EvictVerdict {
        self.verdict(pins, false)
    }

    fn verdict(&self, pins: usize, spend_reference: bool) -> EvictVerdict {
        if pins > 0 {
            return EvictVerdict::Pinned;
        }
        let referenced = if spend_reference {
            // ordering: pool-frame SeqCst — clearing the reference bit is the second
            // chance itself; a concurrent fetch re-sets it and the next sweep
            // sees the frame referenced again.
            self.referenced.swap(false, Ordering::SeqCst)
        } else {
            // ordering: pool-frame SeqCst — a fetch that hit the page set the bit
            // before it unpinned, and a fetch still pinning it is counted in `pins`.
            self.referenced.load(Ordering::SeqCst)
        };
        if referenced {
            return EvictVerdict::SecondChance;
        }
        if self.is_dirty() {
            EvictVerdict::MustFlush
        } else {
            EvictVerdict::Clean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_frames_are_never_evictable() {
        let c = FrameCore::new();
        c.mark_dirty();
        c.mark_referenced();
        assert_eq!(c.evict_verdict(1), EvictVerdict::Pinned);
        assert_eq!(c.evict_verdict(3), EvictVerdict::Pinned);
        // The pinned verdict consumed no state: the reference bit is still
        // set for the unpinned sweep.
        assert_eq!(c.evict_verdict(0), EvictVerdict::SecondChance);
    }

    #[test]
    fn second_chance_then_flush_then_clean() {
        let c = FrameCore::new();
        c.mark_dirty();
        c.mark_referenced();
        assert_eq!(c.evict_verdict(0), EvictVerdict::SecondChance);
        assert_eq!(c.evict_verdict(0), EvictVerdict::MustFlush);
        assert!(c.clear_dirty(), "the flusher claims the dirty bit");
        assert_eq!(c.evict_verdict(0), EvictVerdict::Clean);
    }

    #[test]
    fn a_scan_install_leaves_the_frame_to_the_ring_step() {
        let c = FrameCore::new();
        c.mark_dirty();
        c.install(false);
        assert!(!c.is_dirty());
        assert_eq!(c.ring_verdict(1), EvictVerdict::Pinned);
        assert_eq!(c.ring_verdict(0), EvictVerdict::Clean, "no second chance");
        c.mark_dirty();
        assert_eq!(c.ring_verdict(0), EvictVerdict::MustFlush);
        c.mark_referenced(); // another fetch hit the page
        assert_eq!(c.ring_verdict(0), EvictVerdict::SecondChance);
        // The ring step left the bit: the clock still owes the second chance.
        assert_eq!(c.ring_verdict(0), EvictVerdict::SecondChance);
        assert_eq!(c.evict_verdict(0), EvictVerdict::SecondChance);
        assert_eq!(c.evict_verdict(0), EvictVerdict::MustFlush);
        c.install(true);
        assert_eq!(c.evict_verdict(0), EvictVerdict::SecondChance);
    }

    #[test]
    fn clear_dirty_claims_exactly_once() {
        let c = FrameCore::new();
        assert!(!c.clear_dirty(), "clean frame: nothing to claim");
        c.mark_dirty();
        assert!(c.clear_dirty());
        assert!(!c.clear_dirty(), "second claimant sees clean");
        c.mark_dirty();
        assert!(c.is_dirty(), "re-dirty after flush is a fresh claim");
    }
}
