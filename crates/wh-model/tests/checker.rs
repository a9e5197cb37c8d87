//! Self-tests for the model checker: known-racy programs must fail, known-
//! correct ones must pass with the interleaving space exhausted.
#![allow(clippy::undocumented_unsafe_blocks)]

use std::sync::Arc;
use wh_model::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use wh_model::sync::Mutex;
use wh_model::{try_model, Builder};

fn builder() -> Builder {
    Builder {
        max_preemptions: 3,
        max_iterations: 500_000,
    }
}

#[test]
fn lost_update_is_caught() {
    let r = try_model(builder(), || {
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::clone(&a);
        let t = wh_model::thread::spawn(move || {
            // ordering: model exercise — a deliberate lost-update race.
            let v = b.load(Ordering::SeqCst);
            b.store(v + 1, Ordering::SeqCst);
        });
        // ordering: model exercise — the racing half of the lost update.
        let v = a.load(Ordering::SeqCst);
        a.store(v + 1, Ordering::SeqCst);
        t.join().unwrap();
        assert_eq!(a.load(Ordering::SeqCst), 2, "lost update");
    });
    let failure = r.expect_err("the lost-update interleaving must be found");
    assert!(failure.message.contains("lost update"), "{failure}");
}

#[test]
fn fetch_add_fixes_lost_update() {
    let r = try_model(builder(), || {
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::clone(&a);
        let t = wh_model::thread::spawn(move || {
            // ordering: model exercise — RMW closes the race window.
            b.fetch_add(1, Ordering::SeqCst);
        });
        // ordering: model exercise — RMW closes the race window.
        a.fetch_add(1, Ordering::SeqCst);
        t.join().unwrap();
        assert_eq!(a.load(Ordering::SeqCst), 2);
    });
    let report = r.expect("fetch_add has no failing interleaving");
    assert!(report.iterations > 1, "expected multiple interleavings");
}

#[test]
fn mutex_guarantees_mutual_exclusion() {
    let r = try_model(builder(), || {
        let a = Arc::new(Mutex::new(0u64));
        let b = Arc::clone(&a);
        let t = wh_model::thread::spawn(move || {
            let mut g = b.lock().unwrap();
            *g += 1;
        });
        {
            let mut g = a.lock().unwrap();
            *g += 1;
        }
        t.join().unwrap();
        assert_eq!(*a.lock().unwrap(), 2);
    });
    r.expect("mutex increments cannot be lost");
}

#[test]
fn deadlock_is_detected() {
    let r = try_model(builder(), || {
        let m1 = Arc::new(Mutex::new(()));
        let m2 = Arc::new(Mutex::new(()));
        let (a1, a2) = (Arc::clone(&m1), Arc::clone(&m2));
        let t = wh_model::thread::spawn(move || {
            let _g2 = a2.lock().unwrap();
            let _g1 = a1.lock().unwrap();
        });
        let _g1 = m1.lock().unwrap();
        let _g2 = m2.lock().unwrap();
        drop((_g1, _g2));
        t.join().unwrap();
    });
    let failure = r.expect_err("opposite lock order must deadlock somewhere");
    assert!(failure.message.contains("deadlock"), "{failure}");
}

#[test]
fn relaxed_publication_race_is_caught() {
    // The shape of the `current_vn_relaxed` concern: initialize data, then
    // publish a flag with Relaxed, consume on the other side with Relaxed.
    // Every SC interleaving reads consistent values, but there is no
    // happens-before edge, so the cell access must be flagged.
    let r = try_model(builder(), || {
        let data = Arc::new(wh_model::cell::UnsafeCell::new(0u64));
        let flag = Arc::new(AtomicUsize::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = wh_model::thread::spawn(move || {
            d2.with_mut(|p| unsafe { *p = 42 });
            // ordering: model exercise — deliberately Relaxed, no hb edge.
            f2.store(1, Ordering::Relaxed);
        });
        // ordering: model exercise — deliberately Relaxed, no hb edge.
        if flag.load(Ordering::Relaxed) == 1 {
            let v = data.with(|p| unsafe { *p });
            assert_eq!(v, 42);
        }
        t.join().unwrap();
    });
    let failure = r.expect_err("Relaxed publication must be flagged as a race");
    assert!(failure.message.contains("data race"), "{failure}");
}

#[test]
fn release_acquire_publication_is_clean() {
    let r = try_model(builder(), || {
        let data = Arc::new(wh_model::cell::UnsafeCell::new(0u64));
        let flag = Arc::new(AtomicUsize::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = wh_model::thread::spawn(move || {
            d2.with_mut(|p| unsafe { *p = 42 });
            // ordering: model exercise — Release publishes the write above.
            f2.store(1, Ordering::Release);
        });
        // ordering: model exercise — Acquire pairs with the Release store.
        if flag.load(Ordering::Acquire) == 1 {
            let v = data.with(|p| unsafe { *p });
            assert_eq!(v, 42);
        }
        t.join().unwrap();
    });
    r.expect("release/acquire publication is race-free");
}

#[test]
fn spawn_and_join_edges_are_hb() {
    // Writes before spawn and after join need no atomics at all.
    let r = try_model(builder(), || {
        let data = Arc::new(wh_model::cell::UnsafeCell::new(0u64));
        data.with_mut(|p| unsafe { *p = 7 });
        let d2 = Arc::clone(&data);
        let t = wh_model::thread::spawn(move || d2.with(|p| unsafe { *p }));
        let seen = t.join().unwrap();
        assert_eq!(seen, 7);
        data.with_mut(|p| unsafe { *p = 8 });
    });
    r.expect("spawn/join give full happens-before edges");
}

#[test]
fn three_thread_interleavings_are_explored() {
    // Two children plus the root: the checker must find the interleaving
    // where both children observe 0 and the final count is 1 short.
    let r = try_model(builder(), || {
        let a = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let c = Arc::clone(&a);
                wh_model::thread::spawn(move || {
                    // ordering: model exercise — racy read-modify-write.
                    let v = c.load(Ordering::SeqCst);
                    c.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.load(Ordering::SeqCst), 2, "lost update");
    });
    let failure = r.expect_err("two racing children must lose an update");
    assert!(failure.message.contains("lost update"), "{failure}");
}

#[test]
fn preemption_bound_zero_misses_the_race_but_reports_exhaustion() {
    // With 0 preemptions only round-robin-free schedules run: each thread
    // executes to completion once started, so the lost update cannot occur
    // and the space is tiny. Documents what the bound trades away.
    let r = try_model(
        Builder {
            max_preemptions: 0,
            max_iterations: 10_000,
        },
        || {
            let a = Arc::new(AtomicU64::new(0));
            let b = Arc::clone(&a);
            let t = wh_model::thread::spawn(move || {
                // ordering: model exercise — racy RMW, invisible at bound 0.
                let v = b.load(Ordering::SeqCst);
                b.store(v + 1, Ordering::SeqCst);
            });
            // ordering: model exercise — racy RMW, invisible at bound 0.
            let v = a.load(Ordering::SeqCst);
            a.store(v + 1, Ordering::SeqCst);
            t.join().unwrap();
        },
    );
    r.expect("bound 0 permits no preemption, so no failing schedule exists");
}

#[test]
fn outside_model_types_fall_back_to_std() {
    assert!(!wh_model::in_model());
    let m = Mutex::new(1u64);
    *m.lock().unwrap() += 1;
    assert_eq!(*m.lock().unwrap(), 2);
    let a = AtomicU64::new(0);
    // ordering: plain std fallback exercised outside any model run.
    a.fetch_add(3, Ordering::SeqCst);
    assert_eq!(a.load(Ordering::SeqCst), 3);
    let t = wh_model::thread::spawn(|| 5u64);
    assert_eq!(t.join().unwrap(), 5);
}
