//! Heap files: growable collections of latched pages.

use crate::batch::{FieldSpec, RecordBatch};
use crate::bufpool::{BufferPool, PagePin, ScanRing};
use crate::checkpoint::{CheckpointMeta, CheckpointStats, VersionMeta};
use crate::error::{StorageError, StorageResult};
use crate::iostats::IoStats;
use crate::page::Rid;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::sync::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
// Latch acquisition is a verified kernel: `wh_kernel::latch` is the same
// source the `cargo test -p wh-kernel --features model` suite explores
// exhaustively on wh-model's checked sync types.
use wh_kernel::latch::{lock_list, read_latch, try_read_latch, try_write_latch, write_latch};
use wh_types::fail_point;

/// Failpoints compiled into this crate under `--features failpoints`
/// (disarmed and zero-cost otherwise). Names are stable: the crash-matrix
/// driver enumerates this catalog.
pub const FAILPOINTS: &[&str] = &[
    "storage.heap.latch",
    "storage.heap.insert",
    "storage.heap.read",
    "storage.heap.write",
    "storage.heap.modify",
    "storage.heap.delete",
    "storage.heap.free_space",
    "storage.disk.read",
    "storage.disk.write",
    "storage.pool.evict",
    "storage.pool.flush",
    "storage.ckpt.begin",
    "storage.ckpt.meta",
];

/// File name of the page file within a durable heap's directory.
pub const PAGES_FILE: &str = "pages.whd";

/// [`read_latch`] with contention telemetry for page latches: uncontended
/// acquisitions take the `try_read` fast path and never touch the clock;
/// only a blocked acquisition pays for two `Instant` reads, recorded in
/// `storage.latch.read_wait_ns`. The contended path is `#[cold]` and
/// never inlined so the timing machinery stays out of scan-loop codegen —
/// the E20 overhead gate holds the fast path to the bare `try_read`.
fn read_latch_timed<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    match try_read_latch(lock) {
        Some(g) => g,
        None => read_latch_contended(lock),
    }
}

#[cold]
#[inline(never)]
fn read_latch_contended<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    let wait = wh_obs::Timer::start();
    let g = read_latch(lock);
    let ns = wait.elapsed_ns();
    wh_obs::histogram!("storage.latch.read_wait_ns").record(ns);
    // Contended waits are rare enough to afford a causal event each.
    wh_obs::trace_event!("storage.latch.read_contended", ns);
    g
}

/// Write twin of [`read_latch_timed`]; waits land in
/// `storage.latch.write_wait_ns`.
fn write_latch_timed<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    match try_write_latch(lock) {
        Some(g) => g,
        None => write_latch_contended(lock),
    }
}

#[cold]
#[inline(never)]
fn write_latch_contended<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    let wait = wh_obs::Timer::start();
    let g = write_latch(lock);
    let ns = wait.elapsed_ns();
    wh_obs::histogram!("storage.latch.write_wait_ns").record(ns);
    // Contended waits are rare enough to afford a causal event each.
    wh_obs::trace_event!("storage.latch.write_contended", ns);
    g
}

/// Copy page `page_no`'s live records into `batch` under its read latch,
/// which is held for this call only: the scan's ring step and visitor run
/// after it with no latch held.
#[inline]
fn copy_out(page: &PagePin, page_no: u32, batch: &mut RecordBatch) {
    read_latch_timed(page).fill_batch(page_no, batch);
}

/// The fault site of a record read, for the reads a page patch makes.
fn read_point() -> StorageResult<()> {
    // trace: point-op leaf; the enclosing vnl txn/read span is the causal parent.
    fail_point!("storage.heap.read");
    Ok(())
}

/// The fault site of an in-place modification, passed once a patch has
/// decided to write and before the record changes.
fn modify_point() -> StorageResult<()> {
    // trace: point-op leaf; the enclosing vnl txn/read span is the causal parent.
    fail_point!("storage.heap.modify");
    Ok(())
}

/// A heap file of fixed-width records.
///
/// Concurrency model (deliberately matching the paper's §4 substrate
/// requirements):
///
/// * Each page sits behind its own `RwLock` used as a **latch**: held only
///   for the duration of one record operation or one page visit during a
///   scan, never across an operation boundary, and never until commit.
/// * Readers therefore never block on writers beyond a single in-flight
///   tuple modification, and scans read "uncommitted" data by design — the
///   2VNL layer above makes that safe.
/// * Updates are **in place** and width-preserving.
///
/// Every page visit is counted against the shared [`IoStats`].
pub struct HeapFile {
    record_len: usize,
    /// Every page access goes through the pool: an unbounded never-evicting
    /// map in memory, a real pin/evict/fault-in pool when disk-backed.
    pool: BufferPool,
    /// Durable heap's directory (page file + checkpoint record); `None` in
    /// memory.
    dir: Option<PathBuf>,
    /// Pages that may have free slots; checked before allocating a new page.
    free_pages: Mutex<Vec<u32>>,
    stats: Arc<IoStats>,
    /// Rolling op count behind [`HeapFile::sample_op`].
    op_probe: std::sync::atomic::AtomicU32,
}

impl HeapFile {
    /// Create an empty heap file for records of `record_len` bytes.
    pub fn new(record_len: usize, stats: Arc<IoStats>) -> StorageResult<Self> {
        Ok(HeapFile {
            record_len,
            pool: BufferPool::in_memory(record_len)?,
            dir: None,
            free_pages: Mutex::new(Vec::new()),
            stats,
            op_probe: std::sync::atomic::AtomicU32::new(0),
        })
    }

    /// Create an empty disk-backed heap in `dir` (created if absent), with
    /// at most `capacity` pages resident in the buffer pool.
    pub fn create_backed(
        record_len: usize,
        dir: &Path,
        capacity: usize,
        stats: Arc<IoStats>,
    ) -> StorageResult<Self> {
        std::fs::create_dir_all(dir).map_err(StorageError::io)?;
        Ok(HeapFile {
            record_len,
            pool: BufferPool::create_backed(record_len, &dir.join(PAGES_FILE), capacity)?,
            dir: Some(dir.to_path_buf()),
            free_pages: Mutex::new(Vec::new()),
            stats,
            op_probe: std::sync::atomic::AtomicU32::new(0),
        })
    }

    /// Reopen a disk-backed heap from its directory. The heap is sized from
    /// the page-**file** length (not the checkpoint record — pages
    /// allocated after the last checkpoint may have been stolen to disk and
    /// still need the §7 rollback pass). The free list is rebuilt by
    /// faulting every page in once.
    pub fn open_backed(
        record_len: usize,
        dir: &Path,
        capacity: usize,
        stats: Arc<IoStats>,
    ) -> StorageResult<Self> {
        let heap = HeapFile {
            record_len,
            pool: BufferPool::open_backed(record_len, &dir.join(PAGES_FILE), capacity)?,
            dir: Some(dir.to_path_buf()),
            free_pages: Mutex::new(Vec::new()),
            stats,
            op_probe: std::sync::atomic::AtomicU32::new(0),
        };
        let mut free = Vec::new();
        for page_no in 0..heap.pool.page_count() {
            let pin = heap.pool.fetch(page_no)?;
            if read_latch(&pin).has_room() {
                free.push(page_no);
            }
        }
        *lock_list(&heap.free_pages) = free;
        Ok(heap)
    }

    /// Whether this heap persists pages to disk.
    pub fn is_durable(&self) -> bool {
        self.pool.is_backed()
    }

    /// The buffer pool (telemetry/tests: residency, evict-all).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Flush every dirty page to the page file; returns pages written.
    pub fn flush_all(&self) -> StorageResult<u64> {
        self.pool.flush_all()
    }

    /// Evict every unpinned page (flushing dirty ones first) — the full
    /// evict/reload cycle on demand, for tests and the crash matrix.
    pub fn evict_all(&self) -> StorageResult<u64> {
        self.pool.evict_all()
    }

    /// Take a fuzzy checkpoint: flush all dirty pages, fsync the page file,
    /// then atomically publish the checkpoint record carrying `version` —
    /// the version globals the caller captured **before** calling (the
    /// begin snapshot). Any maintenance work that lands on disk during the
    /// flush carries `tupleVN` above that snapshot and is §7-rolled-back on
    /// recovery, so no quiescing is needed.
    pub fn checkpoint(&self, version: VersionMeta) -> StorageResult<CheckpointStats> {
        // trace: nests under `vnl.checkpoint` when driven from the table.
        let _ts = wh_obs::timed_span!("storage.checkpoint", "storage.ckpt.ns");
        fail_point!("storage.ckpt.begin");
        let dir = self.dir.as_ref().ok_or_else(|| {
            StorageError::Corrupt("checkpoint requested on an in-memory heap".into())
        })?;
        let pages_flushed = self.pool.flush_all()?;
        self.pool.sync()?;
        let meta = CheckpointMeta {
            current_vn: version.current_vn,
            maintenance_active: version.maintenance_active,
            recovery_floor: version.recovery_floor,
            gc_horizon: version.gc_horizon,
            page_count: self.pool.page_count(),
            record_len: self.record_len as u32,
        };
        meta.write(dir)?;
        wh_obs::counter!("storage.ckpt.completed").inc();
        wh_obs::histogram!("storage.ckpt.pages_flushed").record(pages_flushed);
        Ok(CheckpointStats {
            pages_flushed,
            checkpoint_vn: version.current_vn,
        })
    }

    /// Load this heap's checkpoint record (durable heaps only).
    pub fn read_checkpoint(&self) -> StorageResult<CheckpointMeta> {
        let dir = self.dir.as_ref().ok_or_else(|| {
            StorageError::Corrupt("no checkpoint record on an in-memory heap".into())
        })?;
        CheckpointMeta::read(dir)
    }

    /// Record width stored by this file.
    pub fn record_len(&self) -> usize {
        self.record_len
    }

    /// The I/O counters this file reports into.
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// Number of allocated pages.
    pub fn page_count(&self) -> u32 {
        self.pool.page_count()
    }

    /// Number of live records. On a disk-backed heap this faults evicted
    /// pages in; I/O errors read as zero live records for that page.
    pub fn len(&self) -> u64 {
        (0..self.pool.page_count())
            .filter_map(|page_no| self.pool.fetch(page_no).ok())
            .map(|pin| u64::from(read_latch(&pin).live()))
            .sum()
    }

    /// Whether the file holds no live records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this operation should pay for latency timing: a point read
    /// finishes in ~0.5µs, where two clock reads per call are a measurable
    /// tax, so the per-op latency histogram samples every 16th call (the
    /// first always records). Counters stay exact; only timing is thinned.
    fn sample_op(&self) -> bool {
        wh_obs::is_enabled()
            && self
                .op_probe
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed) // ordering: stat-counter Relaxed — independent event counter; read only for reporting
                .is_multiple_of(16)
    }

    fn page(&self, page_no: u32) -> StorageResult<PagePin> {
        // trace: point-op leaf; the enclosing vnl txn/read span is the causal parent.
        fail_point!("storage.heap.latch");
        self.pool.fetch(page_no)
    }

    /// Publish the current free-list size to `storage.heap.free_pages`
    /// (free-list pressure: near-zero under append-heavy load means every
    /// insert is allocating, high values mean deletes are outpacing reuse).
    fn note_free_list(free: &[u32]) {
        wh_obs::gauge!("storage.heap.free_pages").set(free.len() as i64);
    }

    /// Return `page` to the free list after one of its slots was freed
    /// (call with the page latch already dropped).
    fn note_page_free(&self, page: u32) -> StorageResult<()> {
        // trace: point-op leaf; the enclosing vnl txn/read span is the causal parent.
        fail_point!("storage.heap.free_space");
        let mut free = lock_list(&self.free_pages);
        if !free.contains(&page) {
            free.push(page);
        }
        Self::note_free_list(&free);
        Ok(())
    }

    /// Insert a record, returning its RID.
    pub fn insert(&self, record: &[u8]) -> StorageResult<Rid> {
        // trace: point-op leaf; the enclosing vnl txn/read span is the causal parent.
        fail_point!("storage.heap.insert");
        let op = self.sample_op().then(wh_obs::Timer::start);
        loop {
            // Try a page believed to have room.
            let candidate = lock_list(&self.free_pages).last().copied();
            if let Some(page_no) = candidate {
                let page = self.page(page_no)?;
                let mut guard = write_latch_timed(&page);
                self.stats.count_page_reads(1);
                if let Some(slot) = guard.insert(record)? {
                    page.mark_dirty();
                    self.stats.count_page_writes(1);
                    self.stats.count_tuple_writes(1);
                    if !guard.has_room() {
                        let mut free = lock_list(&self.free_pages);
                        free.retain(|&p| p != page_no);
                        Self::note_free_list(&free);
                    }
                    if let Some(op) = op {
                        wh_obs::histogram_sampled!("storage.heap.insert_ns", 16)
                            .record(op.elapsed_ns());
                    }
                    return Ok(Rid::new(page_no, slot));
                }
                // Page filled up under us; drop it from the free list and retry.
                lock_list(&self.free_pages).retain(|&p| p != page_no);
                continue;
            }
            // Allocate a new page.
            // lint: allow(latch-order) — the page write latch is scoped to the candidate branch above and is not held on this path; allocate starts with no latch held
            let page_no = self.pool.allocate()?;
            wh_obs::counter!("storage.heap.page_allocs").inc();
            let mut free = lock_list(&self.free_pages);
            free.push(page_no);
            Self::note_free_list(&free);
        }
    }

    /// Read the record at `rid` into an owned buffer.
    pub fn read(&self, rid: Rid) -> StorageResult<Vec<u8>> {
        // trace: point-op leaf; the enclosing vnl txn/read span is the causal parent.
        fail_point!("storage.heap.read");
        let op = self.sample_op().then(wh_obs::Timer::start);
        let page = self.page(rid.page)?;
        let guard = read_latch_timed(&page);
        self.stats.count_page_reads(1);
        let rec = guard.read(rid.page, rid.slot)?;
        self.stats.count_tuple_reads(1);
        let out = rec.to_vec();
        drop(guard);
        if let Some(op) = op {
            wh_obs::histogram_sampled!("storage.heap.read_ns", 16).record(op.elapsed_ns());
        }
        Ok(out)
    }

    /// Overwrite the record at `rid` in place (width-preserving).
    pub fn update_in_place(&self, rid: Rid, record: &[u8]) -> StorageResult<()> {
        // trace: point-op leaf; the enclosing vnl txn/read span is the causal parent.
        fail_point!("storage.heap.write");
        let op = self.sample_op().then(wh_obs::Timer::start);
        let page = self.page(rid.page)?;
        let mut guard = write_latch_timed(&page);
        self.stats.count_page_reads(1);
        guard.update_in_place(rid.page, rid.slot, record)?;
        page.mark_dirty();
        self.stats.count_page_writes(1);
        self.stats.count_tuple_writes(1);
        drop(guard);
        if let Some(op) = op {
            wh_obs::histogram_sampled!("storage.heap.write_ns", 16).record(op.elapsed_ns());
        }
        Ok(())
    }

    /// Read-modify-write the record at `rid` under a single page latch: the
    /// one-slot case of [`HeapFile::patch_page`]. The closure sees the
    /// current image and returns the replacement (same width).
    pub fn modify<F>(&self, rid: Rid, f: F) -> StorageResult<()>
    where
        F: FnOnce(&[u8]) -> StorageResult<Vec<u8>>,
    {
        let mut f = Some(f);
        let (_, res) = self.patch_page(rid.page, &[rid.slot], |_, current, out| {
            let current = current.ok_or(StorageError::NoSuchSlot {
                page: rid.page,
                slot: rid.slot,
            })?;
            let f = f
                .take()
                .ok_or(StorageError::Corrupt("one slot patched twice".into()))?;
            let replacement = f(current)?;
            if replacement.len() != out.len() {
                return Err(StorageError::RecordLength {
                    expected: out.len(),
                    got: replacement.len(),
                });
            }
            out.copy_from_slice(&replacement);
            Ok(true)
        });
        res
    }

    /// Patch records of page `page_no` in place under one write latch — the
    /// primitive the 2VNL maintenance decision tables need: each decision
    /// depends on the tuple's current `tupleVN`/`operation` and must be
    /// applied atomically with respect to concurrent scans.
    ///
    /// For each slot of `slots`, in order, `patch(k, current, out)` sees the
    /// live record's image (`None` when the slot holds no live record, e.g.
    /// GC reclaimed it since the caller found it) and either writes the
    /// replacement into `out` and returns `true`, or returns `false` to leave
    /// the record alone. A replacement lands only after `patch` returns, so
    /// a record is never left half-patched. The first error stops the page:
    /// it comes back beside the number of records that landed before it —
    /// the first that many `true` returns.
    pub fn patch_page<E, F>(
        &self,
        page_no: u32,
        slots: &[u16],
        mut patch: F,
    ) -> (usize, Result<(), E>)
    where
        E: From<StorageError>,
        F: FnMut(usize, Option<&[u8]>, &mut [u8]) -> Result<bool, E>,
    {
        let sampled = self.sample_op();
        let page = match self.page(page_no) {
            Ok(page) => page,
            Err(e) => return (0, Err(e.into())),
        };
        let mut out = vec![0u8; self.record_len];
        let mut guard = write_latch_timed(&page);
        // Hold time matters here: the latch stays down across the caller's
        // decisions, which is exactly where 2VNL maintenance spends its
        // per-tuple time and what concurrent readers wait behind.
        let hold = sampled.then(wh_obs::Timer::start);
        self.stats.count_page_reads(1);
        let mut landed = 0;
        let mut res = Ok(());
        for (k, &slot) in slots.iter().enumerate() {
            let step = read_point()
                .map_err(E::from)
                .and_then(|()| patch(k, guard.read(page_no, slot).ok(), &mut out));
            let written = step.and_then(|write| {
                if write {
                    modify_point()?;
                    guard.update_in_place(page_no, slot, &out)?;
                }
                Ok(write)
            });
            match written {
                Ok(true) => landed += 1,
                Ok(false) => {}
                Err(e) => {
                    res = Err(e);
                    break;
                }
            }
        }
        if landed > 0 {
            page.mark_dirty();
            self.stats.count_page_writes(1);
            self.stats.count_tuple_writes(landed as u64);
        }
        drop(guard);
        if let Some(hold) = hold {
            let ns = hold.elapsed_ns();
            wh_obs::histogram_sampled!("storage.latch.write_hold_ns", 16).record(ns);
            wh_obs::histogram_sampled!("storage.heap.write_ns", 16).record(ns);
        }
        (landed, res)
    }

    /// Retire the record at `rid` only if `pred` approves its current
    /// image — checked and retired under one page latch, so no concurrent
    /// modification can slip between the check and the retire. The `then`
    /// hook runs while the latch is still held: callers retire external
    /// bookkeeping (key directory, secondary indexes) atomically with the
    /// removal, because cleanup done after the latch drops could race a
    /// reuse of the slot — possibly by the same key — and tear down the
    /// new record's entries instead. Unlike a delete, a retired slot is
    /// invisible but **not reusable**: the page is not returned to the free
    /// list and the old bytes stay in place until [`Self::release`] — the
    /// storage half of the GC's epoch grace period.
    pub fn retire_if_then<F, G>(&self, rid: Rid, pred: F, then: G) -> StorageResult<bool>
    where
        F: FnOnce(&[u8]) -> bool,
        G: FnOnce(),
    {
        // trace: point-op leaf; the enclosing vnl txn/read span is the causal parent.
        fail_point!("storage.heap.delete");
        let op = self.sample_op().then(wh_obs::Timer::start);
        let page = self.page(rid.page)?;
        let mut guard = write_latch_timed(&page);
        self.stats.count_page_reads(1);
        let current = guard.read(rid.page, rid.slot)?;
        if !pred(current) {
            return Ok(false);
        }
        guard.retire(rid.page, rid.slot)?;
        page.mark_dirty();
        self.stats.count_page_writes(1);
        self.stats.count_tuple_writes(1);
        then();
        drop(guard);
        if let Some(op) = op {
            wh_obs::histogram_sampled!("storage.heap.delete_ns", 16).record(op.elapsed_ns());
        }
        Ok(true)
    }

    /// Release a retired slot for reuse and return its page to the free
    /// list. Only the GC calls this, after the epoch grace period proves
    /// no reader can still hold the slot's rid.
    pub fn release(&self, rid: Rid) -> StorageResult<()> {
        let page = self.page(rid.page)?;
        let mut guard = write_latch_timed(&page);
        guard.release(rid.page, rid.slot)?;
        page.mark_dirty();
        drop(guard);
        self.note_page_free(rid.page)
    }

    /// Physically delete the record at `rid`; its slot is reusable at once.
    pub fn delete(&self, rid: Rid) -> StorageResult<()> {
        // trace: point-op leaf; the enclosing vnl txn/read span is the causal parent.
        fail_point!("storage.heap.delete");
        let op = self.sample_op().then(wh_obs::Timer::start);
        let page = self.page(rid.page)?;
        let mut guard = write_latch_timed(&page);
        self.stats.count_page_reads(1);
        guard.delete(rid.page, rid.slot)?;
        page.mark_dirty();
        self.stats.count_page_writes(1);
        self.stats.count_tuple_writes(1);
        drop(guard);
        self.note_page_free(rid.page)?;
        if let Some(op) = op {
            wh_obs::histogram_sampled!("storage.heap.delete_ns", 16).record(op.elapsed_ns());
        }
        Ok(())
    }

    /// Scan all live records, invoking `visit` for each `(rid, record)` —
    /// [`Self::scan_batches`] over every page with nothing gathered.
    ///
    /// A concurrent writer can slip between pages — exactly the
    /// read-uncommitted scan behaviour the paper's rewrite approach is
    /// built for. Tuples modified in place mid-scan are seen exactly once,
    /// in either their old or new image, never torn.
    pub fn scan<F>(&self, mut visit: F) -> StorageResult<()>
    where
        F: FnMut(Rid, &[u8]) -> StorageResult<()>,
    {
        self.scan_batches(0..self.page_count(), &[], |batch| {
            (0..batch.len()).try_for_each(|i| visit(batch.rid(i), batch.record(i)))
        })
    }

    /// Split the heap into at most `threads` contiguous page ranges and run
    /// `part(partition, pages)` once per range, returning the outcomes in
    /// partition (= heap) order. `part` does the reading —
    /// [`Self::scan_batches`] over its range — so a serial scan and a
    /// parallel one share a single loop: one range runs
    /// inline on the calling thread, more than one get a scoped worker each,
    /// whose `storage.scan.partition` span parents under the caller's
    /// ambient span.
    pub fn scan_parallel<S, P>(&self, threads: usize, part: P) -> Vec<S>
    where
        S: Send,
        P: Fn(usize, std::ops::Range<u32>) -> S + Sync,
    {
        let pages = self.page_count();
        let workers = threads.max(1).min(pages.max(1) as usize);
        if workers == 1 {
            return vec![part(0, 0..pages)];
        }
        let chunk = (pages as usize).div_ceil(workers) as u32;
        let part = &part;
        let scan_ctx = wh_obs::trace::current();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let start = w as u32 * chunk;
                    let end = (start + chunk).min(pages);
                    s.spawn(move || {
                        let _ts = wh_obs::trace_span_under!("storage.scan.partition", scan_ctx);
                        part(w, start..end)
                    })
                })
                .collect();
            #[expect(clippy::expect_used, reason = "re-raises a scan-worker panic")]
            handles
                .into_iter()
                .map(|h| h.join().expect("scan worker panicked"))
                .collect()
        })
    }

    /// The one page loop: for each page of `range` (clamped to the
    /// allocated page count), the live records are copied out in one pass
    /// under the read latch, then the `specs` fields are gathered into
    /// column-strided arrays **after the latch is released**, and `visit`
    /// runs over the whole page batch — the latch hold is a dense copy, and
    /// no visitor or decoder ever runs under it.
    ///
    /// I/O counters are accumulated locally and merged into the shared
    /// [`IoStats`] once at the end of the range — one atomic add per
    /// counter per partition instead of one per tuple — so partitioned
    /// scans don't serialize on the stats cache line.
    ///
    /// The batch buffer is reused across pages; `visit` must not retain
    /// references into it.
    ///
    /// Pages come through the pool's scan ring (`bufpool` module docs): a
    /// page this scan faults in is handed back to the pool as soon as it
    /// has been copied out, if the pool is over capacity, so one scan does
    /// not flush the pool.
    pub fn scan_batches<F>(
        &self,
        range: std::ops::Range<u32>,
        specs: &[FieldSpec],
        mut visit: F,
    ) -> StorageResult<()>
    where
        F: FnMut(&RecordBatch) -> StorageResult<()>,
    {
        for spec in specs {
            spec.validate(self.record_len)?;
        }
        // Clamp once up front (pages grow-only, so the bound stays valid),
        // then pin each page *lazily* inside the loop: pinning the whole
        // range at once would wedge a bounded buffer pool — a partition
        // larger than pool capacity could never fault its tail in.
        let end = range.end.min(self.pool.page_count());
        let start = range.start.min(end);
        let op = wh_obs::Timer::start();
        let mut page_reads = 0u64;
        let mut tuple_reads = 0u64;
        let mut batch = RecordBatch::default();
        let mut ring = ScanRing::default();
        let mut result = Ok(());
        for page_no in start..end {
            let page = match self.pool.fetch_in_ring(page_no, &mut ring) {
                Ok(page) => page,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            };
            copy_out(&page, page_no, &mut batch); // gather + visit run over the copy
            drop(page); // unpin before the ring step and the visitor
            if let Err(e) = self.pool.ring_step(&mut ring) {
                result = Err(e);
                break;
            }
            page_reads += 1;
            tuple_reads += batch.len() as u64;
            batch.gather(specs);
            if let Err(e) = visit(&batch) {
                result = Err(e);
                break;
            }
        }
        self.stats.count_page_reads(page_reads);
        self.stats.count_tuple_reads(tuple_reads);
        wh_obs::histogram!("storage.heap.scan_partition_ns").record(op.elapsed_ns());
        result
    }
}

impl std::fmt::Debug for HeapFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapFile")
            .field("record_len", &self.record_len)
            .field("pages", &self.page_count())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(record_len: usize) -> HeapFile {
        HeapFile::new(record_len, Arc::new(IoStats::new())).unwrap()
    }

    #[test]
    fn insert_read_delete() {
        let h = file(4);
        let rid = h.insert(&[1, 2, 3, 4]).unwrap();
        assert_eq!(h.read(rid).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(h.len(), 1);
        h.delete(rid).unwrap();
        assert!(h.read(rid).is_err());
        assert!(h.is_empty());
    }

    #[test]
    fn grows_across_pages() {
        let h = file(2048); // 2 records per page
        let rids: Vec<_> = (0..5)
            .map(|i| h.insert(&[i as u8; 2048]).unwrap())
            .collect();
        assert_eq!(h.page_count(), 3);
        assert_eq!(h.len(), 5);
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(h.read(*rid).unwrap()[0], i as u8);
        }
    }

    #[test]
    fn freed_slots_are_reused() {
        let h = file(2048);
        let a = h.insert(&[1u8; 2048]).unwrap();
        let _b = h.insert(&[2u8; 2048]).unwrap();
        h.delete(a).unwrap();
        let c = h.insert(&[3u8; 2048]).unwrap();
        assert_eq!(c, a);
        assert_eq!(h.page_count(), 1);
    }

    #[test]
    fn update_in_place_keeps_rid() {
        let h = file(4);
        let rid = h.insert(&[1, 1, 1, 1]).unwrap();
        h.update_in_place(rid, &[2, 2, 2, 2]).unwrap();
        assert_eq!(h.read(rid).unwrap(), vec![2, 2, 2, 2]);
        assert!(h.update_in_place(rid, &[1]).is_err());
    }

    #[test]
    fn modify_read_modify_write() {
        let h = file(4);
        let rid = h.insert(&[10, 0, 0, 0]).unwrap();
        h.modify(rid, |cur| {
            let mut next = cur.to_vec();
            next[0] += 1;
            Ok(next)
        })
        .unwrap();
        assert_eq!(h.read(rid).unwrap()[0], 11);
    }

    #[test]
    fn scan_visits_everything_once() {
        let h = file(4);
        for i in 0..100u8 {
            h.insert(&[i, 0, 0, 0]).unwrap();
        }
        let mut seen = Vec::new();
        h.scan(|_, rec| {
            seen.push(rec[0]);
            Ok(())
        })
        .unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    /// `(rid, record)` visits over `pages` through the one page loop.
    fn visit_range<F>(h: &HeapFile, pages: std::ops::Range<u32>, mut f: F) -> StorageResult<()>
    where
        F: FnMut(Rid, &[u8]) -> StorageResult<()>,
    {
        h.scan_batches(pages, &[], |b| {
            (0..b.len()).try_for_each(|i| f(b.rid(i), b.record(i)))
        })
    }

    #[test]
    fn scan_batches_partitions_cover_exactly_once() {
        let h = file(512); // 8 records per page
        for i in 0..100u8 {
            h.insert(&[i; 512]).unwrap();
        }
        let pages = h.page_count();
        // Any split point yields the same multiset as a full scan.
        for split in [0, 1, pages / 2, pages] {
            let mut seen = Vec::new();
            for range in [0..split, split..pages] {
                visit_range(&h, range, |_, rec| {
                    seen.push(rec[0]);
                    Ok(())
                })
                .unwrap();
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..100).collect::<Vec<_>>());
        }
        // Out-of-bounds ranges clamp instead of erroring.
        h.scan_batches(pages..pages + 10, &[], |_| panic!("no pages there"))
            .unwrap();
    }

    #[test]
    fn scan_parallel_partitions_concatenate_to_the_serial_scan() {
        let h = file(256);
        for i in 0..500u16 {
            let mut rec = [0u8; 256];
            rec[..2].copy_from_slice(&i.to_le_bytes());
            h.insert(&rec).unwrap();
        }
        let mut serial = Vec::new();
        h.scan(|rid, rec| {
            serial.push((rid, rec.to_vec()));
            Ok(())
        })
        .unwrap();
        for threads in [1, 2, 4, 8, 64] {
            let parts = h.scan_parallel(threads, |_, pages| {
                let mut seen = Vec::new();
                visit_range(&h, pages, |rid, rec| {
                    seen.push((rid, rec.to_vec()));
                    Ok(())
                })
                .unwrap();
                seen
            });
            assert!(parts.len() <= threads);
            // Partition order is heap order: no sort needed.
            assert_eq!(parts.concat(), serial, "threads={threads}");
        }
    }

    #[test]
    fn scan_parallel_returns_each_partitions_outcome() {
        let h = file(512);
        for i in 0..64u8 {
            h.insert(&[i; 512]).unwrap();
        }
        let outcomes = h.scan_parallel(4, |_, pages| {
            visit_range(&h, pages, |_, rec| {
                if rec[0] == 40 {
                    Err(StorageError::NoSuchPage(999))
                } else {
                    Ok(())
                }
            })
        });
        assert_eq!(outcomes.iter().filter(|o| o.is_err()).count(), 1);
        let err = outcomes
            .into_iter()
            .collect::<StorageResult<Vec<()>>>()
            .unwrap_err();
        assert!(matches!(err, StorageError::NoSuchPage(999)));
    }

    #[test]
    fn scan_io_counters_batch_per_partition() {
        // One page read per page and one tuple read per live record,
        // however the heap is partitioned.
        let stats = Arc::new(IoStats::new());
        let h = HeapFile::new(512, stats.clone()).unwrap();
        for i in 0..100u8 {
            h.insert(&[i; 512]).unwrap();
        }
        let before = stats.snapshot();
        h.scan(|_, _| Ok(())).unwrap();
        let after_serial = stats.snapshot();
        assert_eq!(
            after_serial.page_reads - before.page_reads,
            h.page_count() as u64
        );
        assert_eq!(after_serial.tuple_reads - before.tuple_reads, 100);
        for outcome in h.scan_parallel(4, |_, pages| h.scan_batches(pages, &[], |_| Ok(()))) {
            outcome.unwrap();
        }
        let after_parallel = stats.snapshot();
        assert_eq!(
            after_parallel.page_reads - after_serial.page_reads,
            h.page_count() as u64
        );
        assert_eq!(after_parallel.tuple_reads - after_serial.tuple_reads, 100);
    }

    #[test]
    fn durable_scans_keep_the_pool_they_find() {
        use crate::bufpool::tests::is_resident;
        let dir = std::env::temp_dir().join(format!("wh-heap-ring-{}", std::process::id()));
        let capacity = 4;
        let h = HeapFile::create_backed(512, &dir, capacity, Arc::new(IoStats::new())).unwrap();
        for i in 0..192u8 {
            h.insert(&[i; 512]).unwrap(); // 8 records per page: 24 pages
        }
        let pages = h.page_count();
        h.evict_all().unwrap();
        let resident = |h: &HeapFile| -> Vec<u32> {
            (0..pages).filter(|&p| is_resident(h.pool(), p)).collect()
        };
        for round in 0..3 {
            let before = resident(&h);
            let mut seen = 0;
            h.scan_batches(0..pages, &[], |batch| {
                seen += batch.len();
                assert!(h.pool().resident() <= capacity, "ring frame given back");
                Ok(())
            })
            .unwrap();
            assert_eq!(seen, 192);
            let after = resident(&h);
            assert_eq!(after.len(), capacity, "round {round}");
            if round > 0 {
                assert_eq!(after, before, "round {round}: the scan flushed the pool");
            }
        }
        // Two partitions at once hold one ring frame each at most.
        for outcome in h.scan_parallel(2, |_, range| {
            h.scan_batches(range, &[], |_| {
                assert!(
                    h.pool().resident() <= capacity + 1,
                    "the other scan's frame"
                );
                Ok(())
            })
        }) {
            outcome.unwrap();
        }
        assert!(h.pool().resident() <= capacity);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retire_defers_slot_reuse_until_release() {
        let h = file(2048);
        let a = h.insert(&[1u8; 2048]).unwrap();
        let b = h.insert(&[2u8; 2048]).unwrap();
        let mut hooked = false;
        assert!(h
            .retire_if_then(a, |rec| rec[0] == 1, || hooked = true)
            .unwrap());
        assert!(hooked, "then-hook runs on retire");
        assert_eq!(h.len(), 1, "retired records are not live");
        assert!(h.read(a).is_err(), "retired rid reads as gone");
        assert_eq!(h.read(b).unwrap()[0], 2, "neighbours untouched");
        // The retired slot is not reusable: the next insert allocates page 1.
        let c = h.insert(&[3u8; 2048]).unwrap();
        assert_ne!(c.page, a.page);
        h.release(a).unwrap();
        let d = h.insert(&[4u8; 2048]).unwrap();
        assert_eq!(d, a, "released slot is reused");
    }

    #[test]
    fn retire_if_then_respects_predicate() {
        let h = file(4);
        let rid = h.insert(&[7, 0, 0, 0]).unwrap();
        assert!(!h.retire_if_then(rid, |rec| rec[0] == 9, || ()).unwrap());
        assert_eq!(h.read(rid).unwrap()[0], 7, "rejected retire is a no-op");
    }

    fn first_byte_spec() -> FieldSpec {
        // Test records have no null bitmap; treat byte 0 as both the field
        // and a never-set null byte by masking nothing.
        FieldSpec {
            offset: 0,
            width: 1,
            null_byte: 0,
            null_mask: 0,
        }
    }

    #[test]
    fn scan_batches_matches_scan() {
        let h = file(512); // 8 records per page
        for i in 0..100u8 {
            h.insert(&[i; 512]).unwrap();
        }
        // Punch some holes so batches are non-dense.
        for page in [0u32, 3] {
            h.delete(Rid::new(page, 2)).unwrap();
        }
        let mut serial = Vec::new();
        h.scan(|rid, rec| {
            serial.push((rid, rec[0]));
            Ok(())
        })
        .unwrap();
        let mut batched = Vec::new();
        h.scan_batches(0..h.page_count(), &[first_byte_spec()], |batch| {
            for i in 0..batch.len() {
                batched.push((batch.rid(i), batch.record(i)[0]));
                assert_eq!(batch.field(0)[i], i64::from(batch.record(i)[0]));
            }
            Ok(())
        })
        .unwrap();
        serial.sort();
        batched.sort();
        assert_eq!(batched, serial);
    }

    #[test]
    fn scan_batches_rejects_bad_specs() {
        let h = file(8);
        let bad = FieldSpec {
            offset: 6,
            width: 4,
            null_byte: 0,
            null_mask: 0,
        };
        assert!(h.scan_batches(0..1, &[bad], |_| Ok(())).is_err());
    }

    #[test]
    fn io_counters_track_operations() {
        let stats = Arc::new(IoStats::new());
        let h = HeapFile::new(4, stats.clone()).unwrap();
        let rid = h.insert(&[0u8; 4]).unwrap();
        let after_insert = stats.snapshot();
        assert_eq!(after_insert.page_writes, 1);
        assert_eq!(after_insert.tuple_writes, 1);
        h.read(rid).unwrap();
        let after_read = stats.snapshot();
        assert_eq!(after_read.tuple_reads, 1);
        assert!(after_read.page_reads > after_insert.page_reads);
    }

    #[test]
    fn concurrent_inserts_and_scans() {
        let h = Arc::new(file(16));
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..250u16 {
                        let mut rec = [0u8; 16];
                        rec[0] = t as u8;
                        rec[1..3].copy_from_slice(&i.to_le_bytes());
                        h.insert(&rec).unwrap();
                    }
                });
            }
            let h2 = Arc::clone(&h);
            s.spawn(move || {
                for _ in 0..10 {
                    let mut n = 0u32;
                    h2.scan(|_, _| {
                        n += 1;
                        Ok(())
                    })
                    .unwrap();
                    assert!(n <= 1000);
                }
            });
        });
        assert_eq!(h.len(), 1000);
    }
}
