//! Logical I/O accounting.
//!
//! §6 of the paper argues that 2VNL "additional I/O's for reading and
//! modifying tuples are never required", while MV2PL's version pool can cost
//! readers extra I/Os per tuple and writers an extra I/O to copy the old
//! version out. Those are claims about *counts of page accesses*, so the
//! substrate counts every logical page read and write at the point where a
//! page latch is taken. Experiment E10 (`examples/scheme_comparison.rs`) reads
//! these counters.
//!
//! Every `IoStats` instance additionally forwards its counts into the
//! process-global `wh-obs` registry (`storage.io.*`), so one
//! `Registry::snapshot()` sees total I/O traffic across all storage areas
//! without plumbing. The per-instance counters stay authoritative for the
//! paper experiments, which compare areas against each other; this struct
//! is now a thin per-area view over the same recording points.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters of logical I/O and tuple traffic, shared by reference
/// across everything operating on one storage area.
#[derive(Debug, Default)]
pub struct IoStats {
    page_reads: AtomicU64,
    page_writes: AtomicU64,
    tuple_reads: AtomicU64,
    tuple_writes: AtomicU64,
}

/// A point-in-time copy of the counters, with subtraction for intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// Logical page reads.
    pub page_reads: u64,
    /// Logical page writes.
    pub page_writes: u64,
    /// Tuples returned to callers.
    pub tuple_reads: u64,
    /// Tuples inserted/updated/deleted.
    pub tuple_writes: u64,
}

impl IoSnapshot {
    /// Counter deltas since `earlier` (saturating).
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            page_reads: self.page_reads.saturating_sub(earlier.page_reads),
            page_writes: self.page_writes.saturating_sub(earlier.page_writes),
            tuple_reads: self.tuple_reads.saturating_sub(earlier.tuple_reads),
            tuple_writes: self.tuple_writes.saturating_sub(earlier.tuple_writes),
        }
    }

    /// Total logical page I/Os (reads + writes).
    pub fn total_pages(&self) -> u64 {
        self.page_reads + self.page_writes
    }
}

impl IoStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` logical page reads.
    pub fn count_page_reads(&self, n: u64) {
        self.page_reads.fetch_add(n, Ordering::Relaxed); // ordering: stat-counter Relaxed — independent event counter; read only for reporting
        wh_obs::counter!("storage.io.page_reads").add(n);
    }

    /// Record `n` logical page writes.
    pub fn count_page_writes(&self, n: u64) {
        self.page_writes.fetch_add(n, Ordering::Relaxed); // ordering: stat-counter Relaxed — independent event counter; read only for reporting
        wh_obs::counter!("storage.io.page_writes").add(n);
    }

    /// Record `n` tuples handed to a reader.
    pub fn count_tuple_reads(&self, n: u64) {
        self.tuple_reads.fetch_add(n, Ordering::Relaxed); // ordering: stat-counter Relaxed — independent event counter; read only for reporting
        wh_obs::counter!("storage.io.tuple_reads").add(n);
    }

    /// Record `n` tuple mutations.
    pub fn count_tuple_writes(&self, n: u64) {
        self.tuple_writes.fetch_add(n, Ordering::Relaxed); // ordering: stat-counter Relaxed — independent event counter; read only for reporting
        wh_obs::counter!("storage.io.tuple_writes").add(n);
    }

    /// Read all counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            page_reads: self.page_reads.load(Ordering::Relaxed), // ordering: stat-counter Relaxed — statistical read; tearing across cells is acceptable
            page_writes: self.page_writes.load(Ordering::Relaxed), // ordering: stat-counter Relaxed — statistical read; tearing across cells is acceptable
            tuple_reads: self.tuple_reads.load(Ordering::Relaxed), // ordering: stat-counter Relaxed — statistical read; tearing across cells is acceptable
            tuple_writes: self.tuple_writes.load(Ordering::Relaxed), // ordering: stat-counter Relaxed — statistical read; tearing across cells is acceptable
        }
    }

    /// Zero all counters (between experiment phases).
    pub fn reset(&self) {
        self.page_reads.store(0, Ordering::Relaxed); // ordering: stat-counter Relaxed — reset; callers quiesce writers around snapshots/resets
        self.page_writes.store(0, Ordering::Relaxed); // ordering: stat-counter Relaxed — reset; callers quiesce writers around snapshots/resets
        self.tuple_reads.store(0, Ordering::Relaxed); // ordering: stat-counter Relaxed — reset; callers quiesce writers around snapshots/resets
        self.tuple_writes.store(0, Ordering::Relaxed); // ordering: stat-counter Relaxed — reset; callers quiesce writers around snapshots/resets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
        let s = IoStats::new();
        s.count_page_reads(3);
        s.count_page_writes(2);
        s.count_tuple_reads(10);
        s.count_tuple_writes(4);
        let snap = s.snapshot();
        assert_eq!(snap.page_reads, 3);
        assert_eq!(snap.page_writes, 2);
        assert_eq!(snap.tuple_reads, 10);
        assert_eq!(snap.tuple_writes, 4);
        assert_eq!(snap.total_pages(), 5);
    }

    #[test]
    fn interval_deltas() {
        let s = IoStats::new();
        s.count_page_reads(5);
        let a = s.snapshot();
        s.count_page_reads(7);
        let b = s.snapshot();
        assert_eq!(b.since(&a).page_reads, 7);
        assert_eq!(a.since(&b).page_reads, 0); // saturating
    }

    #[test]
    fn reset_zeroes() {
        let s = IoStats::new();
        s.count_page_writes(9);
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }
}
