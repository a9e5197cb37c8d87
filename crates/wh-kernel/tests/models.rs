//! Exhaustive-interleaving models of the lock-free kernels.
//!
//! Run with `cargo test -p wh-kernel --features model` (the `loom` CI
//! job). Under that feature the kernel's sync shim compiles onto
//! `wh_model`'s checked types, so these tests explore every interleaving
//! (up to the preemption bound) of the *same source* production runs, with
//! vector-clock race detection in which `Relaxed` atomics do not
//! synchronize.
//!
//! Some tests are regression models of historical (or deliberately
//! re-introduced) bugs: they re-implement the pre-fix ordering inline and
//! assert the checker *finds* the bad interleaving, then the production
//! ordering passes exhaustively.

#![cfg(feature = "model")]
#![allow(clippy::panic)]

use std::sync::Arc;
use wh_kernel::adaptive::EffectiveWindow;
use wh_kernel::delta::DeltaLogCore;
use wh_kernel::epoch::{EpochCore, RetireList};
use wh_kernel::latch::{read_latch, write_latch};
use wh_kernel::lease::LeaseCore;
use wh_kernel::pool::{EvictVerdict, FrameCore};
use wh_kernel::sync::atomic::{AtomicU64, Ordering};
use wh_kernel::sync::RwLock;
use wh_kernel::version::VersionCore;
use wh_model::{try_model, Builder};

fn builder() -> Builder {
    Builder {
        max_preemptions: 3,
        max_iterations: 500_000,
    }
}

fn ok(report: Result<wh_model::Report, wh_model::Failure>) -> wh_model::Report {
    match report {
        Ok(r) => r,
        Err(f) => panic!("{f}"),
    }
}

/// The `current_vn_relaxed` mirror may trail the latched `currentVN` but
/// must never lead it: a reader that loads the mirror and then takes the
/// latch must see a latched value at least as new, in every interleaving
/// of a full maintenance begin/commit cycle.
#[test]
fn relaxed_mirror_never_leads_latched_vn() {
    let report = ok(try_model(builder(), || {
        let core = Arc::new(VersionCore::new());
        let c2 = Arc::clone(&core);
        let maint = wh_model::thread::spawn(move || {
            let vn = c2
                .begin_maintenance(|_| Ok::<(), ()>(()))
                .expect("sole maintenance txn");
            c2.publish_commit(vn, || Ok::<(), ()>(()), |_| Ok(()))
                .expect("commit publishes");
        });
        let mirrored = core.current_vn_relaxed();
        let latched = core.peek().current_vn;
        assert!(
            mirrored <= latched,
            "mirror {mirrored} leads latched {latched}"
        );
        maint.join().unwrap();
        assert_eq!(core.current_vn_relaxed(), 2);
        assert_eq!(core.peek().current_vn, 2);
    }));
    assert!(report.iterations > 10, "expected a real interleaving space");
}

/// §4.1 global check vs a maintenance commit: a session the check admits
/// under window `n` can have overlapped at most `n − 1` committed
/// maintenance transactions at snapshot time — so with one maintenance
/// thread and 2VNL, the session at VN 1 is admitted before the commit
/// publishes and (in interleavings where the check runs after) rejected
/// only once `overlapped ≥ n`.
#[test]
fn global_check_is_consistent_with_commit_publication() {
    ok(try_model(builder(), || {
        let core = Arc::new(VersionCore::new());
        let c2 = Arc::clone(&core);
        let maint = wh_model::thread::spawn(move || {
            for _ in 0..2 {
                let vn = c2
                    .begin_maintenance(|_| Ok::<(), ()>(()))
                    .expect("sole maintenance txn");
                c2.publish_commit(vn, || Ok::<(), ()>(()), |_| Ok(()))
                    .expect("commit publishes");
            }
        });
        // The reader's own snapshot logic, reproduced around the check so
        // the assertion can name the k it was admitted against.
        let live = core.session_live_with(1, 2, |_| {});
        let after = core.peek();
        if live {
            // Liveness was decided against a snapshot no older than one
            // commit behind `after` (2VNL admits k + active ≤ 1).
            assert!(
                after.current_vn <= 3,
                "check admitted a session the window never covered"
            );
        } else {
            // Rejection requires the window to actually have moved (or a
            // maintenance txn to be in flight) by snapshot time.
            assert!(
                after.current_vn >= 2 || after.maintenance_active,
                "check rejected a session at the current version"
            );
        }
        maint.join().unwrap();
        assert!(!core.session_live_with(1, 2, |_| {}), "k = 2 expires 2VNL");
        assert!(core.session_live_with(1, 4, |_| {}), "4VNL still covers it");
    }));
}

/// The recovery fence, production ordering: the floor is raised *before*
/// any slot is rebuilt, so a scan that observes reconstructed data always
/// fails its completion-time fence check and never returns a guess.
#[test]
fn recovery_fence_raised_before_rebuild_is_sound() {
    ok(try_model(builder(), || {
        let core = Arc::new(VersionCore::new());
        let page = Arc::new(RwLock::new(10u64)); // exact value at VN 1
        let (c2, p2) = (Arc::clone(&core), Arc::clone(&page));
        let recovery = wh_model::thread::spawn(move || {
            // Production order (wh_vnl::recover): fence first, then rebuild.
            c2.raise_recovery_floor(2);
            *write_latch(&p2) = 99; // reconstructed guess
        });
        let seen = *read_latch(&page);
        // Completion-time fence check (VnlTable::fence_check).
        let live = core.recovery_floor() <= 1;
        assert!(
            !(seen == 99 && live),
            "scan returned reconstructed data without expiring"
        );
        recovery.join().unwrap();
    }));
}

/// Regression model of the historical fence bug: raising the floor *after*
/// mutating lets an in-flight scan read a reconstructed value and still
/// pass its fence check. The checker must find that interleaving.
#[test]
fn recovery_fence_raised_after_rebuild_is_caught() {
    let failure = try_model(builder(), || {
        let core = Arc::new(VersionCore::new());
        let page = Arc::new(RwLock::new(10u64));
        let (c2, p2) = (Arc::clone(&core), Arc::clone(&page));
        let recovery = wh_model::thread::spawn(move || {
            // The pre-fix order: rebuild, then fence.
            *write_latch(&p2) = 99;
            c2.raise_recovery_floor(2);
        });
        let seen = *read_latch(&page);
        let live = core.recovery_floor() <= 1;
        assert!(
            !(seen == 99 && live),
            "scan returned reconstructed data without expiring"
        );
        recovery.join().unwrap();
    })
    .expect_err("the buggy ordering must have a failing interleaving");
    assert!(
        failure.message.contains("reconstructed"),
        "unexpected failure: {failure}"
    );
}

/// Adaptive-n narrowing concurrent with the global check: the window cell
/// stays inside `[2, physical]` in every interleaving, and the liveness
/// verdict always agrees with the `n` the reader actually loaded.
#[test]
fn adaptive_narrowing_vs_global_check() {
    ok(try_model(builder(), || {
        let core = Arc::new(VersionCore::new());
        // Two committed maintenance txns before the race: currentVN = 3.
        for _ in 0..2 {
            let vn = core.begin_maintenance(|_| Ok::<(), ()>(())).expect("begin");
            core.publish_commit(vn, || Ok::<(), ()>(()), |_| Ok(()))
                .expect("commit");
        }
        let window = Arc::new(EffectiveWindow::new(4));
        let w2 = Arc::clone(&window);
        let controller = wh_model::thread::spawn(move || {
            w2.set(2); // narrow under a quiet window
        });
        let n = window.get();
        assert!((2..=4).contains(&n), "effective n escaped its bounds");
        let live = core.session_live_with(1, n, |_| {});
        // currentVN = 3, no active txn: k = 2, so live ⇔ n ≥ 3. Narrowing
        // only ever expires earlier than the physical slots require.
        assert_eq!(live, n >= 3, "verdict disagrees with the loaded window");
        controller.join().unwrap();
        assert_eq!(window.get(), 2);
    }));
}

/// Page-latch kernel: write latches are mutually exclusive (no lost
/// update) and a concurrent read latch never races them.
#[test]
fn latch_mutual_exclusion_and_reader_safety() {
    ok(try_model(builder(), || {
        let page = Arc::new(RwLock::new(0u64));
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let p = Arc::clone(&page);
                wh_model::thread::spawn(move || {
                    let mut g = write_latch(&p);
                    *g += 1;
                })
            })
            .collect();
        let seen = *read_latch(&page);
        assert!(seen <= 2);
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(*read_latch(&page), 2, "a write latch lost an update");
    }));
}

/// Lease kernel: renew racing revoke. Revocation is sticky — whatever the
/// interleaving, once `revoke` has returned the lease reads revoked and
/// every later renewal fails.
#[test]
fn lease_renew_vs_revoke_is_sticky() {
    ok(try_model(builder(), || {
        let reg: Arc<LeaseCore<u64>> = Arc::new(LeaseCore::new());
        let id = reg.register(1, 100);
        let r2 = Arc::clone(&reg);
        let pacer = wh_model::thread::spawn(move || {
            assert!(r2.revoke(id), "sole revoker always wins");
        });
        let renewed = reg.renew(id, 200);
        pacer.join().unwrap();
        assert!(reg.is_revoked(id), "revocation lost");
        assert!(!reg.renew(id, 300), "renewal after revoke must fail");
        if renewed {
            // The renew won the race; its deadline write must still be
            // superseded by the sticky revocation.
            assert!(reg.active(0).is_empty());
        }
    }));
}

/// Epoch kernel, production protocol: a reader that pins an epoch and then
/// follows a rid it found in an index can never land in a slot the GC has
/// already handed out for reuse — in every interleaving of unlink → retire
/// → advance ×2 → drain. This is exactly the rid-reuse scenario the epoch
/// layer exists to close: the GC unlinks the index entry, retires the rid,
/// and only overwrites the slot once `drain_safe` says the grace period
/// has elapsed.
#[test]
fn epoch_pin_blocks_reclaim_of_reachable_slot() {
    ok(try_model(builder(), || {
        let core = Arc::new(EpochCore::new(1));
        let list: Arc<RetireList<()>> = Arc::new(RetireList::new());
        let linked = Arc::new(AtomicU64::new(1)); // index entry → rid
        let page = Arc::new(RwLock::new(10u64)); // slot contents at the rid
        let (c2, l2, k2, p2) = (
            Arc::clone(&core),
            Arc::clone(&list),
            Arc::clone(&linked),
            Arc::clone(&page),
        );
        let gc = wh_model::thread::spawn(move || {
            // Unlink from the index, then retire — the tag is read by
            // RetireList *after* the unlink, which is what makes the grace
            // argument sound.
            k2.store(0, Ordering::SeqCst);
            l2.retire(&c2, ());
            c2.try_advance();
            c2.try_advance();
            for () in l2.drain_safe(&c2) {
                *write_latch(&p2) = 99; // slot released and reused
            }
        });
        // Reader: pin, probe the index, follow the rid.
        let pin = core.try_pin().expect("sole reader");
        if linked.load(Ordering::SeqCst) == 1 {
            let seen = *read_latch(&page);
            assert_eq!(seen, 10, "pinned reader followed a rid into a reused slot");
        }
        drop(pin);
        gc.join().unwrap();
    }));
}

/// Regression model of reclaim-before-grace: a sweep that treats a retired
/// slot as immediately reusable (the pre-epoch behaviour, where the latch
/// was assumed to exclude readers end-to-end) lets a pinned reader follow
/// an already-resolved rid into reused bytes. The checker must find it.
#[test]
fn epoch_reclaim_before_grace_is_caught() {
    let failure = try_model(builder(), || {
        let core = Arc::new(EpochCore::new(1));
        let list: Arc<RetireList<()>> = Arc::new(RetireList::new());
        let linked = Arc::new(AtomicU64::new(1));
        let page = Arc::new(RwLock::new(10u64));
        let (c2, l2, k2, p2) = (
            Arc::clone(&core),
            Arc::clone(&list),
            Arc::clone(&linked),
            Arc::clone(&page),
        );
        let gc = wh_model::thread::spawn(move || {
            k2.store(0, Ordering::SeqCst);
            l2.retire(&c2, ());
            // Pre-fix behaviour: reclaim right away, no grace period.
            *write_latch(&p2) = 99;
        });
        let pin = core.try_pin().expect("sole reader");
        if linked.load(Ordering::SeqCst) == 1 {
            let seen = *read_latch(&page);
            assert_eq!(seen, 10, "pinned reader followed a rid into a reused slot");
        }
        drop(pin);
        gc.join().unwrap();
    })
    .expect_err("graceless reclamation must have a failing interleaving");
    assert!(
        failure.message.contains("reused slot"),
        "unexpected failure: {failure}"
    );
}

/// Epoch kernel, advance vs pin: however the announcement store races the
/// advancer's sweep, at most one advance slips past a pinned reader — the
/// global epoch never exceeds the announcement + 1 while the pin is held,
/// which is the invariant the `GRACE = 2` margin rests on.
#[test]
fn epoch_advance_never_outruns_a_pin_by_two() {
    ok(try_model(builder(), || {
        let core = Arc::new(EpochCore::new(1));
        let c2 = Arc::clone(&core);
        let advancer = wh_model::thread::spawn(move || {
            for _ in 0..2 {
                c2.try_advance();
            }
        });
        let pin = core.try_pin().expect("sole pinner");
        let a = core.announced(pin.slot()).expect("pinned slot announces");
        advancer.join().unwrap();
        assert!(
            core.epoch() <= a + 1,
            "two advances slipped past a pinned reader"
        );
        drop(pin);
        assert!(core.try_advance().is_some(), "idle core advances freely");
    }));
}

/// A model of one buffer-pool frame, mirroring `wh_storage::bufpool`'s
/// protocol exactly: the frame state latch guards an `Option<Arc<page>>`,
/// a pin is an `Arc` clone taken under the state read latch, eviction
/// holds the state write latch and consults [`FrameCore::evict_verdict`]
/// with `pins = strong_count − 2` (the state's copy plus the evictor's
/// local clone), and a dirty frame is flushed — under the same state
/// latch, with the `clear_dirty` swap as the exactly-one-flusher claim —
/// before its page is dropped. A scan's ring step is the same eviction with
/// [`FrameCore::ring_verdict`], as in production.
struct FrameModel {
    state: RwLock<Option<Arc<RwLock<u64>>>>,
    core: FrameCore,
    disk: RwLock<u64>,
}

impl FrameModel {
    fn resident(v: u64) -> Self {
        FrameModel {
            state: RwLock::new(Some(Arc::new(RwLock::new(v)))),
            core: FrameCore::new(),
            disk: RwLock::new(v),
        }
    }

    /// A frame whose page is on "disk" only.
    fn evicted(v: u64) -> Self {
        FrameModel {
            state: RwLock::new(None),
            core: FrameCore::new(),
            disk: RwLock::new(v),
        }
    }

    /// Pin the page, faulting it in from "disk" if evicted — the
    /// production `fetch` path. A scan (`scan`) installs a faulted page
    /// unreferenced. The flag says whether this call faulted, which is what
    /// obliges a scan to its ring step.
    fn fetch(&self, scan: bool) -> (Arc<RwLock<u64>>, bool) {
        if let Some(page) = read_latch(&self.state).as_ref().map(Arc::clone) {
            self.core.mark_referenced();
            return (page, false);
        }
        let mut state = write_latch(&self.state);
        if let Some(page) = state.as_ref().map(Arc::clone) {
            // Lost the fault-in race; the other thread's copy wins.
            self.core.mark_referenced();
            return (page, false);
        }
        let page = Arc::new(RwLock::new(*read_latch(&self.disk)));
        self.core.install(!scan);
        *state = Some(Arc::clone(&page));
        (page, true)
    }

    /// A point fetch's pin.
    fn pin(&self) -> Arc<RwLock<u64>> {
        self.fetch(false).0
    }

    /// Whether `pin` is the frame's resident copy.
    fn holds(&self, pin: &Arc<RwLock<u64>>) -> bool {
        read_latch(&self.state)
            .as_ref()
            .is_some_and(|page| Arc::ptr_eq(page, pin))
    }

    /// Write through a pin — the production heap write sites: mutate under
    /// the page write latch and mark the frame dirty while it is held.
    fn write(&self, pin: &Arc<RwLock<u64>>, v: u64) {
        let mut g = write_latch(pin);
        *g = v;
        self.core.mark_dirty();
    }

    /// Production eviction, a clock-hand visit: verdict under the state
    /// write latch, flush before release.
    fn try_evict(&self) -> bool {
        self.evict_by(FrameCore::evict_verdict)
    }

    /// A scan's ring step on the frame its fault installed: the same
    /// eviction with the ring's verdict.
    fn ring_step(&self) -> bool {
        self.evict_by(FrameCore::ring_verdict)
    }

    fn evict_by(&self, verdict: fn(&FrameCore, usize) -> EvictVerdict) -> bool {
        let mut state = write_latch(&self.state);
        let Some(page) = state.as_ref().map(Arc::clone) else {
            return false;
        };
        let pins = Arc::strong_count(&page) - 2;
        match verdict(&self.core, pins) {
            EvictVerdict::Pinned | EvictVerdict::SecondChance => false,
            EvictVerdict::MustFlush => {
                let v = *read_latch(&page);
                if self.core.clear_dirty() {
                    *write_latch(&self.disk) = v;
                }
                drop(page);
                *state = None;
                true
            }
            EvictVerdict::Clean => {
                drop(page);
                *state = None;
                true
            }
        }
    }

    /// The value an observer would see: the resident page if there is one,
    /// the disk image otherwise.
    fn visible(&self) -> u64 {
        match read_latch(&self.state).as_ref() {
            Some(page) => *read_latch(page),
            None => *read_latch(&self.disk),
        }
    }
}

/// Buffer-pool kernel: a pinned page is never evicted. Whatever the
/// interleaving of a reader's pin against a clock-sweep eviction, the
/// reader's pin stays the frame's one true copy — if the frame is
/// resident while the pin is held, it is the *same* `Arc`, so no
/// fault-in can create a divergent second copy of the page.
#[test]
fn pool_pinned_page_is_never_evicted() {
    let report = ok(try_model(builder(), || {
        let frame = Arc::new(FrameModel::resident(10));
        let f2 = Arc::clone(&frame);
        let evictor = wh_model::thread::spawn(move || {
            // Two sweeps: the first may be refused by the second-chance
            // bit, the second by the pin — never by anything else.
            f2.try_evict();
            f2.try_evict();
        });
        let pin = frame.pin();
        assert_eq!(*read_latch(&pin), 10, "pinned reader saw torn content");
        if let Some(resident) = read_latch(&frame.state).as_ref() {
            assert!(
                Arc::ptr_eq(resident, &pin),
                "a pinned page was evicted and refaulted as a second copy"
            );
        }
        drop(pin);
        evictor.join().unwrap();
        assert_eq!(frame.visible(), 10);
    }));
    assert!(report.iterations > 10, "expected a real interleaving space");
}

/// Buffer-pool kernel: a dirty page is never dropped without a flush. A
/// writer dirties the page through its pin while an evictor sweeps; in
/// every interleaving the acknowledged write survives — resident or
/// flushed — and once the frame is finally evicted the disk image holds
/// it.
#[test]
fn pool_dirty_page_never_dropped_without_flush() {
    ok(try_model(builder(), || {
        let frame = Arc::new(FrameModel::resident(10));
        let f2 = Arc::clone(&frame);
        let evictor = wh_model::thread::spawn(move || {
            f2.try_evict();
            f2.try_evict();
        });
        let pin = frame.pin();
        frame.write(&pin, 20);
        drop(pin);
        evictor.join().unwrap();
        assert_eq!(frame.visible(), 20, "an acknowledged write was lost");
        // Dirty implies resident: the only transition that clears
        // residency flushes first.
        if frame.core.is_dirty() {
            assert!(
                read_latch(&frame.state).is_some(),
                "dirty frame lost its page"
            );
        }
        // Drain the frame (second chance, then flush-evict): the write
        // must now be on disk.
        frame.try_evict();
        frame.try_evict();
        assert!(read_latch(&frame.state).is_none(), "unpinned frame evicts");
        assert_eq!(*read_latch(&frame.disk), 20, "flush-before-release lost");
    }));
}

/// Regression model of drop-without-flush: an eviction sweep that treats
/// "unpinned" as "reclaimable" — skipping the verdict's `MustFlush` arm,
/// the pre-pool behaviour where all state was memory-resident and nothing
/// was lost by dropping — silently discards a committed write. The
/// checker must find that interleaving.
#[test]
fn pool_drop_without_flush_is_caught() {
    let failure = try_model(builder(), || {
        let frame = Arc::new(FrameModel::resident(10));
        let f2 = Arc::clone(&frame);
        let evictor = wh_model::thread::spawn(move || {
            // Pre-fix sweep: anything unpinned is dropped, dirty or not.
            let mut state = write_latch(&f2.state);
            if let Some(page) = state.as_ref().map(Arc::clone) {
                let pins = Arc::strong_count(&page) - 2;
                if f2.core.evict_verdict(pins) != EvictVerdict::Pinned {
                    drop(page);
                    *state = None;
                }
            }
        });
        let pin = frame.pin();
        frame.write(&pin, 20);
        drop(pin);
        evictor.join().unwrap();
        assert_eq!(
            frame.visible(),
            20,
            "a dirty page was dropped without flush"
        );
    })
    .expect_err("drop-without-flush must have a failing interleaving");
    assert!(
        failure.message.contains("dropped without flush"),
        "unexpected failure: {failure}"
    );
}

/// Scan ring, two scans: scan A faults the page in and, done with it,
/// takes the frame back through its ring step, while scan B reads the same
/// page (faulting it itself if A has not, and then owing the step). For as
/// long as B holds its pin the frame stays resident with B's copy: no ring
/// step drops a frame another scan pins.
#[test]
fn pool_ring_never_evicts_a_frame_another_scan_pins() {
    let report = ok(try_model(builder(), || {
        let frame = Arc::new(FrameModel::evicted(10));
        let f2 = Arc::clone(&frame);
        let scan_a = wh_model::thread::spawn(move || {
            let (pin, faulted) = f2.fetch(true);
            assert_eq!(*read_latch(&pin), 10, "scan A read a torn page");
            drop(pin);
            if faulted {
                f2.ring_step();
            }
        });
        let (pin, faulted) = frame.fetch(true);
        assert_eq!(*read_latch(&pin), 10, "scan B read a torn page");
        assert!(frame.holds(&pin), "a ring step evicted a pinned frame");
        drop(pin);
        if faulted {
            frame.ring_step();
        }
        scan_a.join().unwrap();
        assert_eq!(frame.visible(), 10);
    }));
    assert!(report.iterations > 10, "expected a real interleaving space");
}

/// Scan ring against a point fetch: a point fetch that hits the page scan
/// A faulted in keeps it resident. Either it still pins the frame when A's
/// ring step looks, or it set the reference bit before unpinning; both
/// make the step leave the frame to the clock, which still owes it its
/// second chance. If the fetch did not hit, it faulted the page in itself,
/// before A or after A's step.
#[test]
fn pool_ring_keeps_a_frame_a_point_fetch_referenced() {
    ok(try_model(builder(), || {
        let frame = Arc::new(FrameModel::evicted(10));
        let f2 = Arc::clone(&frame);
        let scan_a = wh_model::thread::spawn(move || {
            let (pin, faulted) = f2.fetch(true);
            drop(pin);
            faulted && f2.ring_step()
        });
        let (pin, faulted) = frame.fetch(false);
        assert_eq!(*read_latch(&pin), 10);
        drop(pin);
        let ring_evicted = scan_a.join().unwrap();
        if !faulted {
            assert!(
                !ring_evicted,
                "the ring step evicted a frame a point fetch referenced"
            );
            assert!(read_latch(&frame.state).is_some());
            assert!(
                !frame.try_evict(),
                "the ring step spent the point fetch's second chance"
            );
        }
        assert_eq!(frame.visible(), 10);
    }));
}

/// Regression model of a ring step that skips the reference bit: taking
/// back any unpinned frame the scan faulted in (flushing it first if dirty)
/// throws out the page a point fetch has just referenced. The checker must
/// find that interleaving.
#[test]
fn pool_ring_ignoring_the_reference_bit_is_caught() {
    let failure = try_model(builder(), || {
        let frame = Arc::new(FrameModel::evicted(10));
        let f2 = Arc::clone(&frame);
        let scan_a = wh_model::thread::spawn(move || {
            let (pin, faulted) = f2.fetch(true);
            drop(pin);
            if !faulted {
                return false;
            }
            let mut state = write_latch(&f2.state);
            let Some(page) = state.as_ref().map(Arc::clone) else {
                return false;
            };
            if Arc::strong_count(&page) - 2 > 0 {
                return false;
            }
            if f2.core.clear_dirty() {
                *write_latch(&f2.disk) = *read_latch(&page);
            }
            *state = None;
            true
        });
        let (pin, faulted) = frame.fetch(false);
        drop(pin);
        let ring_evicted = scan_a.join().unwrap();
        if !faulted {
            assert!(
                !ring_evicted,
                "the ring step evicted a frame a point fetch referenced"
            );
        }
    })
    .expect_err("a reference-blind ring step must have a failing interleaving");
    assert!(
        failure.message.contains("point fetch referenced"),
        "unexpected failure: {failure}"
    );
}

/// Scan ring against the writer: the writer dirties the page scan A
/// faulted in, and a clock-hand visit may then spend the writer's
/// reference, so A's ring step can find the frame dirty and unreferenced.
/// In every interleaving the acknowledged write survives (resident, or
/// flushed before the drop), a dirty frame is resident, and once the frame
/// is drained the disk image holds the write.
#[test]
fn pool_ring_flushes_a_frame_the_writer_dirtied() {
    ok(try_model(builder(), || {
        let frame = Arc::new(FrameModel::evicted(10));
        let f2 = Arc::clone(&frame);
        let scan_a = wh_model::thread::spawn(move || {
            let (pin, faulted) = f2.fetch(true);
            drop(pin);
            if faulted {
                f2.ring_step();
            }
        });
        let pin = frame.pin();
        frame.write(&pin, 20);
        drop(pin);
        frame.try_evict(); // one clock-hand visit
        scan_a.join().unwrap();
        assert_eq!(frame.visible(), 20, "an acknowledged write was lost");
        if frame.core.is_dirty() {
            assert!(
                read_latch(&frame.state).is_some(),
                "dirty frame lost its page"
            );
        }
        frame.try_evict();
        frame.try_evict();
        assert!(read_latch(&frame.state).is_none(), "unpinned frame evicts");
        assert_eq!(*read_latch(&frame.disk), 20, "flush-before-release lost");
    }));
}

/// Delta-log kernel: windows are all-or-nothing. Whatever state the
/// concurrent retain/evict stream is in — capacity eviction mid-retain,
/// an explicit `evict_below` between retains — any window the log serves
/// is complete and in ascending VN order; a window that has lost a VN is
/// refused outright.
#[test]
fn delta_window_is_all_or_nothing_under_eviction() {
    let report = ok(try_model(builder(), || {
        let log: Arc<DeltaLogCore<u64>> = Arc::new(DeltaLogCore::new(2));
        let l2 = Arc::clone(&log);
        let writer = wh_model::thread::spawn(move || {
            l2.retain(2, 2);
            l2.retain(3, 3);
            l2.evict_below(3);
            l2.retain(4, 4);
        });
        if let Some(w) = log.window(1, 3) {
            assert_eq!(w, vec![2, 3], "partial or disordered window served");
        }
        if let Some(w) = log.window(2, 4) {
            assert_eq!(w, vec![3, 4], "partial or disordered window served");
        }
        writer.join().unwrap();
        assert_eq!(log.window(2, 4).expect("VNs 3..=4 retained"), vec![3, 4]);
        assert!(
            log.window(1, 4).is_none(),
            "a window missing evicted VN 2 was served"
        );
    }));
    assert!(report.iterations > 10, "expected a real interleaving space");
}

/// Repair ≡ rescan, the equivalence the whole session-repair subsystem
/// rests on: a consistent partial result copied at `sessionVN`, patched
/// with the complete delta window `(sessionVN, currentVN]`, equals a fresh
/// consistent read at `currentVN` — in every interleaving of the reader's
/// snapshot against a stream of maintenance commits. Retention sits inside
/// `publish_commit`'s `post` closure, under the version latch, exactly as
/// `wh_vnl::VersionState::publish_commit` places it.
#[test]
fn delta_repair_equals_rescan() {
    let report = ok(try_model(builder(), || {
        let core = Arc::new(VersionCore::new());
        // A two-key table: slot 0 starts at value 1, slot 1 absent.
        let map = Arc::new(RwLock::new([Some(1u64), None]));
        let log: Arc<DeltaLogCore<(usize, u64)>> = Arc::new(DeltaLogCore::new(4));
        let (c2, m2, l2) = (Arc::clone(&core), Arc::clone(&map), Arc::clone(&log));
        let maint = wh_model::thread::spawn(move || {
            for (idx, val) in [(0_usize, 2_u64), (1, 5)] {
                let vn = c2
                    .begin_maintenance(|_| Ok::<(), ()>(()))
                    .expect("sole maintenance txn");
                c2.publish_commit(
                    vn,
                    || Ok::<(), ()>(()),
                    |vn| {
                        // Production ordering: the table's new state and the
                        // net-effect batch publish under one latch hold.
                        write_latch(&m2)[idx] = Some(val);
                        l2.retain(vn, (idx, val));
                        Ok::<(), ()>(())
                    },
                )
                .expect("commit publishes");
            }
        });
        // The "session": a consistent (partial result, sessionVN) pair.
        let mut repaired = [None, None];
        let mut svn = 0;
        core.snapshot_with(|view| {
            repaired = *read_latch(&map);
            svn = view.current_vn;
        });
        maint.join().unwrap();
        // The "rescan": a fresh consistent read at the final VN.
        let mut rescanned = [None, None];
        let mut vn_now = 0;
        core.snapshot_with(|view| {
            rescanned = *read_latch(&map);
            vn_now = view.current_vn;
        });
        // The repair: replay the complete window over the stale result.
        for (idx, val) in log
            .window(svn, vn_now)
            .expect("capacity 4 never evicts two batches")
        {
            repaired[idx] = Some(val);
        }
        assert_eq!(repaired, rescanned, "repair diverged from rescan");
    }));
    assert!(report.iterations > 10, "expected a real interleaving space");
}

/// Regression model of lossy replay: patching with whatever happens to
/// survive eviction (`entries_in`, no completeness check) instead of the
/// all-or-nothing `window` silently produces a wrong repaired result once
/// the capacity bound has dropped a batch. The checker must find it — and
/// the real `window` API refuses the same range.
#[test]
fn delta_lossy_replay_is_caught() {
    let failure = try_model(builder(), || {
        let core = Arc::new(VersionCore::new());
        let map = Arc::new(RwLock::new([Some(1u64), None]));
        let log: Arc<DeltaLogCore<(usize, u64)>> = Arc::new(DeltaLogCore::new(1));
        // The session snapshots before any maintenance: sessionVN = 1.
        let mut repaired = [None, None];
        let mut svn = 0;
        core.snapshot_with(|view| {
            repaired = *read_latch(&map);
            svn = view.current_vn;
        });
        let (c2, m2, l2) = (Arc::clone(&core), Arc::clone(&map), Arc::clone(&log));
        let maint = wh_model::thread::spawn(move || {
            for (idx, val) in [(0_usize, 2_u64), (1, 5)] {
                let vn = c2
                    .begin_maintenance(|_| Ok::<(), ()>(()))
                    .expect("sole maintenance txn");
                c2.publish_commit(
                    vn,
                    || Ok::<(), ()>(()),
                    |vn| {
                        write_latch(&m2)[idx] = Some(val);
                        l2.retain(vn, (idx, val));
                        Ok::<(), ()>(())
                    },
                )
                .expect("commit publishes");
            }
        });
        maint.join().unwrap();
        let mut rescanned = [None, None];
        let mut vn_now = 0;
        core.snapshot_with(|view| {
            rescanned = *read_latch(&map);
            vn_now = view.current_vn;
        });
        // Capacity 1 dropped VN 2's batch: the honest API refuses ...
        assert!(log.window(svn, vn_now).is_none(), "window must refuse");
        // ... but the pre-fix behaviour replays the survivors anyway.
        for (_, (idx, val)) in log.entries_in(svn, vn_now) {
            repaired[idx] = Some(val);
        }
        assert_eq!(repaired, rescanned, "lossy replay diverged from rescan");
    })
    .expect_err("lossy replay must have a failing interleaving");
    assert!(
        failure.message.contains("diverged"),
        "unexpected failure: {failure}"
    );
}

/// Lease kernel: concurrent registrations never collide on an ID.
#[test]
fn lease_registration_ids_are_unique() {
    ok(try_model(builder(), || {
        let reg: Arc<LeaseCore<u64>> = Arc::new(LeaseCore::new());
        let r2 = Arc::clone(&reg);
        let t = wh_model::thread::spawn(move || r2.register(7, 50));
        let a = reg.register(8, 50);
        let b = t.join().unwrap();
        assert_ne!(a, b, "lease IDs collided");
        assert_eq!(reg.len(), 2);
    }));
}
