//! Integration tests for the observability substrate (ISSUE 3 satellite):
//! histogram bucket boundaries and merge associativity, concurrent counter
//! increments, and snapshot-delta arithmetic mirroring
//! `IoStats`/`IoSnapshot` semantics.
//!
//! The registry is process-global and these tests run concurrently in one
//! binary, so every test uses its own metric names and asserts with `>=`
//! or via `since()` deltas rather than absolute totals.

use wh_obs::histogram::{bucket_index, bucket_upper_bound};
use wh_obs::{registry, Histogram, HistogramSnapshot, BUCKETS};

#[test]
fn histogram_bucket_boundaries_are_powers_of_two() {
    // Bucket i (0 < i < BUCKETS-1) holds exactly [2^(i-1), 2^i - 1].
    for i in 1..BUCKETS - 1 {
        let lo = 1u64 << (i - 1);
        let hi = (1u64 << i) - 1;
        assert_eq!(bucket_index(lo), i, "lower edge of bucket {i}");
        assert_eq!(bucket_index(hi), i, "upper edge of bucket {i}");
        assert_eq!(bucket_upper_bound(i), hi);
    }
    // Bucket 0 holds only zero; the last bucket is unbounded.
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_upper_bound(0), 0);
    assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    assert_eq!(bucket_upper_bound(BUCKETS - 1), u64::MAX);
    // Boundaries partition the domain: every value's bucket bound is the
    // smallest bound >= the value.
    for v in [1u64, 2, 3, 4, 7, 8, 1023, 1024, 1 << 40] {
        let i = bucket_index(v);
        assert!(bucket_upper_bound(i) >= v);
        if i > 0 {
            assert!(bucket_upper_bound(i - 1) < v);
        }
    }
}

fn sample(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

#[test]
fn histogram_merge_is_associative_and_commutative() {
    if !wh_obs::is_enabled() {
        return;
    }
    let a = sample(&[1, 5, 9000]);
    let b = sample(&[0, 2, 2, 1 << 30]);
    let c = sample(&[17, 100_000]);

    let left = a.merge(&b).merge(&c);
    let right = a.merge(&b.merge(&c));
    assert_eq!(left, right, "merge must be associative");
    assert_eq!(a.merge(&b), b.merge(&a), "merge must be commutative");

    assert_eq!(left.count(), 9);
    assert_eq!(left.sum, 1 + 5 + 9000 + 2 + 2 + (1u64 << 30) + 17 + 100_000);
    assert_eq!(left.min, 0);
    assert_eq!(left.max, 1 << 30);
}

#[test]
fn concurrent_counter_increments_from_eight_threads() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    let c = registry::counter("obs.itest.concurrent_counter");
    let before = c.get();
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for _ in 0..PER_THREAD {
                    c.inc();
                }
            });
        }
    });
    let expected = if wh_obs::is_enabled() {
        THREADS * PER_THREAD
    } else {
        0
    };
    assert_eq!(c.get() - before, expected, "no lost updates");
}

#[test]
fn concurrent_histogram_records_lose_nothing() {
    if !wh_obs::is_enabled() {
        return;
    }
    let h = Histogram::new();
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let h = &h;
            s.spawn(move || {
                for i in 0..5_000u64 {
                    h.record(t * 1000 + i);
                }
            });
        }
    });
    assert_eq!(h.snapshot().count(), 40_000);
}

#[test]
fn snapshot_since_mirrors_iostats_delta_semantics() {
    if !wh_obs::is_enabled() {
        return;
    }
    let c = registry::counter("obs.itest.delta_counter");
    let h = registry::histogram("obs.itest.delta_hist");
    let g = registry::gauge("obs.itest.delta_gauge");

    c.add(3);
    h.record(10);
    g.set(5);
    let t0 = registry::global().snapshot();

    c.add(4);
    h.record(20);
    h.record(30);
    g.set(2);
    let t1 = registry::global().snapshot();

    let delta = t1.since(&t0);
    // Counters subtract, like IoSnapshot::since.
    assert_eq!(delta.counter("obs.itest.delta_counter"), 4);
    // Histogram buckets subtract element-wise.
    assert_eq!(delta.histogram("obs.itest.delta_hist").count(), 2);
    assert_eq!(delta.histogram("obs.itest.delta_hist").sum, 50);
    // Gauges are instantaneous: newer value wins, no subtraction.
    assert_eq!(delta.gauge("obs.itest.delta_gauge"), 2);
    assert_eq!(delta.gauge_high_water("obs.itest.delta_gauge"), 5);
    // Subtracting a snapshot from itself is the zero delta (saturating,
    // never underflowing).
    let zero = t0.since(&t0);
    assert_eq!(zero.counter("obs.itest.delta_counter"), 0);
    assert_eq!(zero.histogram("obs.itest.delta_hist").count(), 0);
}

#[test]
fn encoders_cover_all_registered_metric_kinds() {
    registry::counter("obs.itest.enc_counter").add(2);
    registry::gauge("obs.itest.enc_gauge").set(7);
    registry::histogram("obs.itest.enc_hist").record(1000);
    let snap = registry::global().snapshot();

    let json = snap.to_json();
    assert!(json.contains("\"obs.itest.enc_counter\""));
    assert!(json.contains("\"obs.itest.enc_gauge\""));
    assert!(json.contains("\"obs.itest.enc_hist\""));

    let prom = snap.to_prometheus();
    assert!(prom.contains("obs_itest_enc_counter_total"));
    assert!(prom.contains("# TYPE obs_itest_enc_hist histogram"));
    if wh_obs::is_enabled() {
        assert!(prom.contains("obs_itest_enc_hist_bucket{le=\"1023\"} 1"));
        assert!(prom.contains("obs_itest_enc_hist_count 1"));
    }
}
