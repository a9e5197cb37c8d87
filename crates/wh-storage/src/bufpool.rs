//! The buffer pool: pinned page frames over an optional [`DiskFile`], with
//! dirty tracking and clock (second-chance) eviction.
//!
//! Design:
//!
//! * **Pin = Arc.** Fetching a page returns a [`PagePin`] holding a clone of
//!   the frame's `Arc<RwLock<Page>>`. A frame is evictable only when
//!   `Arc::strong_count == 1` (no pins), checked under the frame's *state*
//!   write latch — pins are only ever cloned under the state read latch, so
//!   the check cannot race a new pin. No pin counts to maintain, no unpin
//!   calls to forget.
//! * **Steal + no-force.** Dirty pages may be written out at any time
//!   (eviction steals them) and are not forced at commit; only a checkpoint
//!   end syncs the file. §7 slot reconstruction makes both safe: any
//!   above-checkpoint tuple image that reaches disk is rolled back by
//!   recovery, and anything not yet flushed is bounded by the last
//!   checkpoint (durability lag, never corruption).
//! * **In-memory mode.** With no backing file the pool is the old
//!   `Vec<Arc<RwLock<Page>>>` in different clothes: unbounded capacity,
//!   frames never evict, fetch is one map lookup plus an Arc clone. The
//!   heap's hot paths run through the same code either way — the E22 gate
//!   in `report_durability` checks the ratio cost of that unification.
//! * **A scan's one-frame ring.** A point fetch that misses installs the
//!   page referenced and runs the clock. A scan ([`ScanRing`]) installs it
//!   unreferenced and runs nothing. Once the scan has copied the page out
//!   and unpinned it, and if the pool is over capacity, the scan evicts that
//!   one frame itself ([`BufferPool::ring_step`]) under
//!   [`FrameCore::ring_verdict`]: a pinned frame stays, a dirty one is
//!   flushed first, and one that another fetch referenced meanwhile stays
//!   with its reference bit for the clock. Its next fault decodes into the
//!   page it took back. So a scan over more pages than the pool holds stops
//!   flushing the pool: the pages resident when it started stay resident,
//!   and it runs through one frame of its own. Only when its frame cannot
//!   be taken back does the scan run the clock. Residency is therefore at
//!   most `capacity` plus one frame per running scan, except while pins
//!   hold more.
//! * **One fault function, one block read.** Every miss goes through
//!   [`BufferPool::fault_in`], which passes the frame's `seq` to
//!   [`DiskFile::read_page`] once it is known (after a write or an earlier
//!   fault of the page), so the read verifies one block. The invariant that
//!   makes that exact: while a frame is not resident, no block of its page
//!   holds a verified `seq` above the frame's, because a write that fails
//!   leaves its frame resident and dirty and its `seq` unadvanced.
//!
//! The eviction-decision core ([`FrameCore`]) lives in `wh-kernel` and is
//! model-checked exhaustively; this module adds the I/O those verdicts gate.

use crate::disk::DiskFile;
use crate::error::{StorageError, StorageResult};
use crate::page::Page;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use wh_kernel::latch::{read_latch, try_write_latch, write_latch};
use wh_kernel::pool::{EvictVerdict, FrameCore};
use wh_types::fail_point;

/// One page's residency slot in the pool.
#[derive(Debug)]
struct Frame {
    page_no: u32,
    /// `None` = not resident. The inner Arc is the pin handle (see module
    /// docs); this outer lock is the frame's **state latch**, distinct from
    /// the page's own content latch.
    state: RwLock<Option<Arc<RwLock<Page>>>>,
    core: FrameCore,
    /// Shadow-block sequence of the last image successfully written for
    /// this page; only advanced on write success so a failed write never
    /// rotates onto (and tears) the elder valid block.
    seq: AtomicU64,
}

/// A fetched page, pinned for as long as this handle lives. Dereferences to
/// the page's content latch, so heap code latches it exactly as it latched
/// the raw `Arc<RwLock<Page>>` before the pool existed.
pub struct PagePin {
    page: Arc<RwLock<Page>>,
    frame: Arc<Frame>,
}

impl std::ops::Deref for PagePin {
    type Target = RwLock<Page>;
    fn deref(&self) -> &RwLock<Page> {
        &self.page
    }
}

impl PagePin {
    /// Record that the caller modified the page. Must be called while the
    /// page write latch is (or was just) held, before the modification is
    /// depended on — the frame protocol in `wh_kernel::pool` explains why
    /// this can never lose an update to a racing flush.
    pub fn mark_dirty(&self) {
        self.frame.core.mark_dirty();
    }
}

/// One scan's ring of one frame (module docs): the frame its last fault
/// installed, until [`BufferPool::ring_step`] settles it, and the page it
/// last took back, which its next fault decodes into.
#[derive(Default)]
pub(crate) struct ScanRing {
    faulted: Option<Arc<Frame>>,
    spare: Option<Arc<RwLock<Page>>>,
}

/// A pool of page frames, optionally backed by a [`DiskFile`].
pub struct BufferPool {
    record_len: usize,
    frames: RwLock<Vec<Arc<Frame>>>,
    disk: Option<DiskFile>,
    /// Max resident pages when disk-backed; `usize::MAX` in memory.
    capacity: usize,
    resident: AtomicUsize,
    clock: AtomicUsize,
}

impl BufferPool {
    /// An unbounded, unbacked pool — the in-memory tier-1 configuration.
    pub fn in_memory(record_len: usize) -> StorageResult<Self> {
        Page::new(record_len)?; // validate the width eagerly
        Ok(BufferPool {
            record_len,
            frames: RwLock::new(Vec::new()),
            disk: None,
            capacity: usize::MAX,
            resident: AtomicUsize::new(0),
            clock: AtomicUsize::new(0),
        })
    }

    /// A pool over a freshly created page file, holding at most `capacity`
    /// resident pages (min 1).
    pub fn create_backed(record_len: usize, path: &Path, capacity: usize) -> StorageResult<Self> {
        let disk = DiskFile::create(path, record_len)?;
        Ok(Self::backed(record_len, disk, capacity, 0))
    }

    /// A pool over an existing page file; every on-disk page gets a
    /// non-resident frame, faulted in on first fetch.
    pub fn open_backed(record_len: usize, path: &Path, capacity: usize) -> StorageResult<Self> {
        let disk = DiskFile::open(path, record_len)?;
        let pages = disk.page_count()?;
        Ok(Self::backed(record_len, disk, capacity, pages))
    }

    fn backed(record_len: usize, disk: DiskFile, capacity: usize, pages: u32) -> Self {
        let frames = (0..pages)
            .map(|page_no| {
                Arc::new(Frame {
                    page_no,
                    state: RwLock::new(None),
                    core: FrameCore::new(),
                    seq: AtomicU64::new(0),
                })
            })
            .collect();
        BufferPool {
            record_len,
            frames: RwLock::new(frames),
            disk: Some(disk),
            capacity: capacity.max(1),
            clock: AtomicUsize::new(0),
            resident: AtomicUsize::new(0),
        }
    }

    /// Whether this pool writes through to a page file.
    pub fn is_backed(&self) -> bool {
        self.disk.is_some()
    }

    /// Record width of the pooled pages.
    pub fn record_len(&self) -> usize {
        self.record_len
    }

    /// Number of allocated pages (resident or not).
    pub fn page_count(&self) -> u32 {
        read_latch(&self.frames).len() as u32
    }

    /// Number of currently resident pages (telemetry; racy by nature).
    pub fn resident(&self) -> usize {
        // ordering: stat-counter Relaxed — advisory count read for telemetry/tests.
        self.resident.load(Ordering::Relaxed)
    }

    /// Fetch (pinning) page `page_no`, faulting it in from disk if needed.
    #[inline]
    pub fn fetch(&self, page_no: u32) -> StorageResult<PagePin> {
        self.pin(page_no, None)
    }

    /// [`Self::fetch`] for a scan: a miss goes through the scan's `ring`
    /// (module docs), and the scan calls [`Self::ring_step`] once it has
    /// copied the page out and dropped the pin.
    #[inline]
    pub(crate) fn fetch_in_ring(
        &self,
        page_no: u32,
        ring: &mut ScanRing,
    ) -> StorageResult<PagePin> {
        self.pin(page_no, Some(ring))
    }

    #[inline]
    fn pin(&self, page_no: u32, ring: Option<&mut ScanRing>) -> StorageResult<PagePin> {
        let frame = read_latch(&self.frames)
            .get(page_no as usize)
            .cloned()
            .ok_or(StorageError::NoSuchPage(page_no))?;
        {
            let state = read_latch(&frame.state);
            if let Some(page) = state.as_ref() {
                let page = Arc::clone(page);
                drop(state);
                frame.core.mark_referenced();
                wh_obs::counter!("storage.pool.hits").inc();
                return Ok(PagePin { page, frame });
            }
        }
        // lint: allow(latch-order) — the state read latch above is scoped to the hit-check block and already dropped here; fault_in starts from a clean slate
        self.fault_in(frame, ring)
    }

    /// The one miss path (module docs): load the page image from disk under
    /// the frame's state write latch. `#[cold]` keeps the in-memory fast
    /// path (which can never miss) free of this code.
    #[cold]
    #[inline(never)]
    fn fault_in(
        &self,
        frame: Arc<Frame>,
        mut ring: Option<&mut ScanRing>,
    ) -> StorageResult<PagePin> {
        let mut state = write_latch(&frame.state);
        if let Some(page) = state.as_ref() {
            // Lost the race to another faulting fetcher: that's a hit.
            let page = Arc::clone(page);
            drop(state);
            frame.core.mark_referenced();
            wh_obs::counter!("storage.pool.hits").inc();
            return Ok(PagePin { page, frame });
        }
        wh_obs::counter!("storage.pool.misses").inc();
        let disk = self.disk.as_ref().ok_or_else(|| {
            StorageError::Corrupt("non-resident frame in an unbacked pool".into())
        })?;
        let page = match ring.as_mut().and_then(|ring| ring.spare.take()) {
            Some(page) => page,
            None => Arc::new(RwLock::new(Page::new(self.record_len)?)),
        };
        // ordering: pool-frame SeqCst — uniform with the frame protocol; the state
        // write latch serializes this with every flush of the frame.
        let known = frame.seq.load(Ordering::SeqCst);
        let seq = {
            // Nobody else can reach `page` yet: the latch is uncontended.
            let mut image = write_latch(&page);
            match disk.read_page(frame.page_no, (known > 0).then_some(known), &mut image)? {
                Some(seq) => seq,
                // Allocated but never flushed: an empty page, which is exactly
                // what §7 rollback leaves of a page born after the checkpoint.
                None => {
                    *image = Page::new(self.record_len)?;
                    0
                }
            }
        };
        // ordering: pool-frame SeqCst — uniform with the frame protocol; the state
        // write latch is the real publication edge.
        frame.seq.store(seq, Ordering::SeqCst);
        frame.core.install(ring.is_none());
        *state = Some(Arc::clone(&page));
        drop(state);
        // ordering: pool-resident SeqCst — resident accounting pairs with eviction's sub.
        self.resident.fetch_add(1, Ordering::SeqCst);
        wh_obs::gauge!("storage.pool.resident").set(self.resident() as i64);
        match ring {
            Some(ring) => ring.faulted = Some(Arc::clone(&frame)),
            // lint: allow(latch-order) — the frame-state write latch was dropped just above; eviction inside enforce_capacity starts with no latch held
            None => self.enforce_capacity()?,
        }
        Ok(PagePin { page, frame })
    }

    /// The ring step, for a scan that has copied out and unpinned the page
    /// it last fetched. If that fetch faulted and the pool is over
    /// capacity, evict that frame under `FrameCore::ring_verdict` and keep
    /// its page for the scan's next fault; if the frame must stay (pinned,
    /// referenced since, contended), run the clock instead.
    #[inline]
    pub(crate) fn ring_step(&self, ring: &mut ScanRing) -> StorageResult<()> {
        match ring.faulted.take() {
            None => Ok(()),
            Some(frame) => self.take_back(&frame, ring),
        }
    }

    #[cold]
    #[inline(never)]
    fn take_back(&self, frame: &Arc<Frame>, ring: &mut ScanRing) -> StorageResult<()> {
        // ordering: pool-resident SeqCst — pairs with the add/sub sites.
        if self.resident.load(Ordering::SeqCst) <= self.capacity {
            return Ok(());
        }
        match self.try_evict(frame, FrameCore::ring_verdict)? {
            Some(page) => {
                if Arc::strong_count(&page) == 1 {
                    ring.spare = Some(page);
                }
                Ok(())
            }
            None => self.enforce_capacity(),
        }
    }

    /// Append a new (resident, empty) page; returns its page number.
    pub fn allocate(&self) -> StorageResult<u32> {
        let page = Arc::new(RwLock::new(Page::new(self.record_len)?));
        let frame = Frame {
            page_no: 0, // patched below under the frames latch
            state: RwLock::new(Some(page)),
            core: FrameCore::new(),
            seq: AtomicU64::new(0),
        };
        frame.core.mark_referenced();
        let mut frames = write_latch(&self.frames);
        let page_no = frames.len() as u32;
        frames.push(Arc::new(Frame { page_no, ..frame }));
        drop(frames);
        // ordering: pool-resident SeqCst — resident accounting pairs with eviction's sub.
        self.resident.fetch_add(1, Ordering::SeqCst);
        self.enforce_capacity()?;
        Ok(page_no)
    }

    fn enforce_capacity(&self) -> StorageResult<()> {
        // ordering: pool-resident SeqCst — pairs with the add/sub sites.
        if self.resident.load(Ordering::SeqCst) <= self.capacity {
            return Ok(());
        }
        self.evict_down_to(self.capacity)
    }

    /// Clock sweep until at most `target` pages are resident or every frame
    /// has had its second chance. Pinned frames are skipped, so the pool
    /// can legitimately stay over target while scans hold pins.
    fn evict_down_to(&self, target: usize) -> StorageResult<()> {
        if self.disk.is_none() {
            return Ok(());
        }
        // Frames are append-only, so a length read once stays a valid bound.
        // Each visit clones just the one frame it looks at: cloning the whole
        // table per sweep costs a refcount round trip on *every* frame per
        // miss, and concurrent scanners then fight over those cache lines.
        let len = read_latch(&self.frames).len();
        if len == 0 {
            return Ok(());
        }
        // Two passes: one to clear reference bits, one to act on them.
        let budget = len * 2;
        let mut attempts = 0;
        // ordering: pool-resident SeqCst — resident accounting, pairs with add/sub sites.
        while self.resident.load(Ordering::SeqCst) > target && attempts < budget {
            attempts += 1;
            // ordering: clock-hand Relaxed — the hand position is only a rotation cursor.
            let idx = self.clock.fetch_add(1, Ordering::Relaxed) % len;
            let frame = Arc::clone(&read_latch(&self.frames)[idx]);
            self.try_evict(&frame, FrameCore::evict_verdict)?;
        }
        Ok(())
    }

    /// One clock-hand visit (`FrameCore::evict_verdict`) or ring step
    /// (`FrameCore::ring_verdict`): evict the frame if the kernel verdict
    /// allows, flushing first when dirty, and return its page. Contended or
    /// pinned frames are skipped.
    fn try_evict(
        &self,
        frame: &Arc<Frame>,
        verdict: fn(&FrameCore, usize) -> EvictVerdict,
    ) -> StorageResult<Option<Arc<RwLock<Page>>>> {
        let Some(mut state) = try_write_latch(&frame.state) else {
            return Ok(None);
        };
        let Some(page) = state.as_ref().map(Arc::clone) else {
            return Ok(None);
        };
        // Pins beyond the frame's own reference; new pins are excluded by
        // the state write latch we hold.
        let pins = Arc::strong_count(&page) - 2; // minus `state`'s and ours
        match verdict(&frame.core, pins) {
            EvictVerdict::Pinned | EvictVerdict::SecondChance => Ok(None),
            verdict => {
                if verdict == EvictVerdict::MustFlush {
                    self.flush_frame(frame, &page)?;
                }
                wh_obs::trace_event!("storage.pool.evict", u64::from(frame.page_no));
                // trace: leaf under the caller's fetch/flush/checkpoint span.
                fail_point!("storage.pool.evict");
                *state = None;
                drop(state);
                // ordering: pool-resident SeqCst — pairs with the fetch/allocate adds.
                self.resident.fetch_sub(1, Ordering::SeqCst);
                wh_obs::counter!("storage.pool.evictions").inc();
                wh_obs::gauge!("storage.pool.resident").set(self.resident() as i64);
                Ok(Some(page))
            }
        }
    }

    /// Write one frame's image out if dirty. Caller must hold the frame's
    /// state write latch — that is what serializes per-frame flushes and
    /// makes the load-then-store on `seq` safe.
    fn flush_frame(&self, frame: &Frame, page: &Arc<RwLock<Page>>) -> StorageResult<bool> {
        let Some(disk) = self.disk.as_ref() else {
            return Ok(false);
        };
        let guard = read_latch(page);
        if !frame.core.clear_dirty() {
            return Ok(false);
        }
        // ordering: pool-frame SeqCst — uniform with the frame protocol; serialized by
        // the state latch, see above.
        let seq = frame.seq.load(Ordering::SeqCst) + 1;
        // Scope the failpoint's early return so the error path below still
        // re-marks the frame dirty.
        let write = || -> StorageResult<()> {
            // trace: leaf under the caller's flush/checkpoint span.
            fail_point!("storage.pool.flush");
            disk.write_page(frame.page_no, &guard, seq)
        };
        let result = write();
        drop(guard);
        match result {
            Ok(()) => {
                // ordering: pool-frame SeqCst — advanced only on success (shadow-slot
                // rotation must track images actually on disk).
                frame.seq.store(seq, Ordering::SeqCst);
                wh_obs::counter!("storage.pool.flushes").inc();
                Ok(true)
            }
            Err(e) => {
                // The image is still only in memory: re-mark so a later
                // flush (or the next checkpoint attempt) retries it.
                frame.core.mark_dirty();
                wh_obs::counter!("storage.pool.flush_failures").inc();
                // A failed flush is an anomaly worth the recent causal
                // history: which txn dirtied the page and who demanded the
                // write all sit in the ring right now.
                wh_obs::recorder::trigger(
                    "flush_failed",
                    &format!("page {} flush failed: {e}", frame.page_no),
                );
                Err(e)
            }
        }
    }

    /// Flush every dirty page (the checkpoint body). Returns the number of
    /// pages written. Fuzzy by design: pages flush one at a time under
    /// their own latches while readers and the maintenance writer keep
    /// running — above-checkpoint images that slip in are §7-rolled-back on
    /// recovery.
    pub fn flush_all(&self) -> StorageResult<u64> {
        let _ts = wh_obs::trace_span!("storage.pool.flush_all");
        let frames: Vec<Arc<Frame>> = read_latch(&self.frames).clone();
        let mut flushed = 0u64;
        for frame in frames {
            let state = write_latch(&frame.state);
            if let Some(page) = state.as_ref() {
                if self.flush_frame(&frame, page)? {
                    flushed += 1;
                }
            }
        }
        Ok(flushed)
    }

    /// Evict every unpinned page (flushing dirty ones). Test/maintenance
    /// surface: exercises the full evict/reload cycle on demand.
    pub fn evict_all(&self) -> StorageResult<u64> {
        if self.disk.is_none() {
            return Ok(0);
        }
        let _ts = wh_obs::trace_span!("storage.pool.evict_all");
        let frames: Vec<Arc<Frame>> = read_latch(&self.frames).clone();
        let mut evicted = 0u64;
        // Two sweeps so reference bits can't shield everything.
        for _ in 0..2 {
            for frame in &frames {
                if self.try_evict(frame, FrameCore::evict_verdict)?.is_some() {
                    evicted += 1;
                }
            }
        }
        Ok(evicted)
    }

    /// Fsync the backing file (checkpoint end). No-op in memory.
    pub fn sync(&self) -> StorageResult<()> {
        match &self.disk {
            Some(disk) => disk.sync(),
            None => Ok(()),
        }
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("record_len", &self.record_len)
            .field("pages", &self.page_count())
            .field("resident", &self.resident())
            .field("backed", &self.is_backed())
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::path::PathBuf;

    /// Whether page `page_no` is resident (which pages a scan kept).
    pub(crate) fn is_resident(pool: &BufferPool, page_no: u32) -> bool {
        read_latch(&read_latch(&pool.frames)[page_no as usize].state).is_some()
    }

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed); // ordering: id-alloc Relaxed — unique-name counter only
        std::env::temp_dir().join(format!("wh-pool-{tag}-{}-{n}.whd", std::process::id()))
    }

    fn put(pool: &BufferPool, page_no: u32, byte: u8) {
        let pin = pool.fetch(page_no).unwrap();
        let mut page = write_latch(&pin);
        page.insert(&[byte; 64]).unwrap().unwrap();
        drop(page);
        pin.mark_dirty();
    }

    fn first_byte(pool: &BufferPool, page_no: u32) -> u8 {
        let pin = pool.fetch(page_no).unwrap();
        let page = read_latch(&pin);
        let b = page.read(page_no, 0).unwrap()[0];
        b
    }

    #[test]
    fn in_memory_pool_never_evicts() {
        let pool = BufferPool::in_memory(64).unwrap();
        for i in 0..20u8 {
            let p = pool.allocate().unwrap();
            put(&pool, p, i);
        }
        assert_eq!(pool.resident(), 20);
        assert_eq!(pool.evict_all().unwrap(), 0);
        for i in 0..20u8 {
            assert_eq!(first_byte(&pool, u32::from(i)), i);
        }
    }

    #[test]
    fn backed_pool_survives_evict_reload() {
        let path = temp_path("reload");
        let pool = BufferPool::create_backed(64, &path, 8).unwrap();
        for i in 0..8u8 {
            let p = pool.allocate().unwrap();
            put(&pool, p, i);
        }
        let evicted = pool.evict_all().unwrap();
        assert!(evicted >= 8, "all unpinned pages evict, got {evicted}");
        assert_eq!(pool.resident(), 0);
        for i in 0..8u8 {
            assert_eq!(first_byte(&pool, u32::from(i)), i, "reloaded from disk");
        }
        std::fs::remove_file(&path).ok();
    }

    /// A pool of `pages` pages, page `p` holding byte `p` in slot 0, all
    /// flushed and evicted.
    fn cold_pool(tag: &str, pages: u8, capacity: usize) -> (BufferPool, PathBuf) {
        let path = temp_path(tag);
        let pool = BufferPool::create_backed(64, &path, capacity).unwrap();
        for i in 0..pages {
            let p = pool.allocate().unwrap();
            put(&pool, p, i);
        }
        pool.flush_all().unwrap();
        pool.evict_all().unwrap();
        assert_eq!(pool.resident(), 0);
        (pool, path)
    }

    /// `HeapFile::scan_batches`' page protocol over `pages`: fetch through
    /// the ring, copy out, unpin, ring step. Returns the number of hits (pages
    /// resident when fetched).
    fn ring_scan(pool: &BufferPool, pages: std::ops::Range<u32>) -> u32 {
        let mut ring = ScanRing::default();
        let mut hits = 0;
        for p in pages {
            hits += u32::from(is_resident(pool, p));
            let pin = pool.fetch_in_ring(p, &mut ring).unwrap();
            assert_eq!(read_latch(&pin).read(p, 0).unwrap()[0], p as u8);
            drop(pin);
            pool.ring_step(&mut ring).unwrap();
        }
        hits
    }

    /// The residency bound: `capacity`, plus one ring frame per running
    /// scan, unless pins hold more.
    #[test]
    fn capacity_bounds_residency() {
        let path = temp_path("cap");
        let capacity = 4;
        let pool = BufferPool::create_backed(64, &path, capacity).unwrap();
        for i in 0..32u8 {
            let p = pool.allocate().unwrap();
            put(&pool, p, i);
            assert!(pool.resident() <= capacity, "no scan, no pin held");
        }
        // Every page still readable (faulting evicted ones back in).
        for i in 0..32u8 {
            assert_eq!(first_byte(&pool, u32::from(i)), i);
            assert!(pool.resident() <= capacity);
        }
        // Two scans in step, half the heap apart: each adds its ring frame
        // at most, and gives it back on release.
        let (mut a, mut b) = (ScanRing::default(), ScanRing::default());
        for p in 0..32u32 {
            let pin_a = pool.fetch_in_ring(p, &mut a).unwrap();
            let pin_b = pool.fetch_in_ring((p + 16) % 32, &mut b).unwrap();
            assert!(pool.resident() <= capacity + 2, "page {p}: two scans");
            drop(pin_a);
            pool.ring_step(&mut a).unwrap();
            assert!(pool.resident() <= capacity + 1, "page {p}: one scan");
            drop(pin_b);
            pool.ring_step(&mut b).unwrap();
            assert!(pool.resident() <= capacity, "page {p}: scans released");
        }
        // Pins hold more: six pinned pages stay, and a scan adds its one.
        let pins: Vec<PagePin> = (0..6).map(|p| pool.fetch(p).unwrap()).collect();
        assert_eq!(pool.resident(), 6, "pinned pages cannot leave");
        let mut ring = ScanRing::default();
        for p in 6..32u32 {
            drop(pool.fetch_in_ring(p, &mut ring).unwrap());
            assert!(pool.resident() <= 6 + 1);
            pool.ring_step(&mut ring).unwrap();
            assert!(pool.resident() <= 6);
        }
        drop(pins);
        assert_eq!(first_byte(&pool, 31), 31);
        assert!(
            pool.resident() <= capacity,
            "unpinned, the clock catches up"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn repeated_ring_scans_hit_what_the_pool_holds() {
        let capacity = 8;
        let (pool, path) = cold_pool("ring", 32, capacity);
        // Cold: the first faults fill the pool, the rest run through the ring.
        assert_eq!(ring_scan(&pool, 0..32), 0);
        for round in 0..5 {
            let hits = ring_scan(&pool, 0..32);
            assert!(
                hits + 1 >= capacity as u32,
                "round {round}: {hits} hits at capacity {capacity}"
            );
            assert!(pool.resident() <= capacity);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn the_ring_keeps_a_page_another_fetch_referenced() {
        let (pool, path) = cold_pool("refd", 16, 4);
        ring_scan(&pool, 0..16); // the pool holds pages 0..4
        let mut ring = ScanRing::default();
        let scan = pool.fetch_in_ring(9, &mut ring).unwrap();
        drop(pool.fetch(9).unwrap()); // another reader, while the scan holds it
        drop(scan);
        pool.ring_step(&mut ring).unwrap();
        assert!(
            is_resident(&pool, 9),
            "the scan evicted a page another fetch referenced"
        );
        assert!(
            pool.resident() <= 4,
            "the clock evicted another page instead"
        );
        assert!(ring.spare.is_none());

        // Unreferenced, the scan's page goes at once, and its buffer holds
        // the scan's next fault.
        drop(pool.fetch_in_ring(11, &mut ring).unwrap());
        pool.ring_step(&mut ring).unwrap();
        assert!(!is_resident(&pool, 11));
        let spare = Arc::as_ptr(ring.spare.as_ref().unwrap());
        let next = pool.fetch_in_ring(12, &mut ring).unwrap();
        assert!(
            std::ptr::eq(&*next, spare),
            "the next fault reused the page"
        );
        assert_eq!(read_latch(&next).read(12, 0).unwrap()[0], 12);
        drop(next);
        pool.ring_step(&mut ring).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let path = temp_path("pin");
        let pool = BufferPool::create_backed(64, &path, 2).unwrap();
        let p0 = pool.allocate().unwrap();
        put(&pool, p0, 42);
        let pin = pool.fetch(p0).unwrap();
        // Blow well past capacity while holding the pin.
        for i in 1..10u8 {
            let p = pool.allocate().unwrap();
            put(&pool, p, i);
        }
        pool.evict_all().unwrap();
        // The pinned page never left memory: read through the pin without
        // any fetch (which could fault it back in and mask an eviction).
        let page = read_latch(&pin);
        assert_eq!(page.read(p0, 0).unwrap()[0], 42);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_restores_pages() {
        let path = temp_path("reopen");
        {
            let pool = BufferPool::create_backed(64, &path, 64).unwrap();
            for i in 0..5u8 {
                let p = pool.allocate().unwrap();
                put(&pool, p, i);
            }
            pool.flush_all().unwrap();
            pool.sync().unwrap();
        }
        let pool = BufferPool::open_backed(64, &path, 64).unwrap();
        assert_eq!(pool.page_count(), 5);
        assert_eq!(pool.resident(), 0, "reopen starts cold");
        for i in 0..5u8 {
            assert_eq!(first_byte(&pool, u32::from(i)), i);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dirty_pages_flush_once_per_flush_all() {
        let path = temp_path("flush");
        let pool = BufferPool::create_backed(64, &path, 64).unwrap();
        for i in 0..3u8 {
            let p = pool.allocate().unwrap();
            put(&pool, p, i);
        }
        assert_eq!(pool.flush_all().unwrap(), 3);
        assert_eq!(pool.flush_all().unwrap(), 0, "clean pages skip I/O");
        put(&pool, 1, 99);
        assert_eq!(pool.flush_all().unwrap(), 1, "re-dirtied page re-flushes");
        std::fs::remove_file(&path).ok();
    }
}
