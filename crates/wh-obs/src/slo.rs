//! Sliding-window SLO gauges feeding `/health` and the flight-recorder
//! anomaly triggers.
//!
//! Counters are cumulative-forever; SLOs are about *now*. A
//! [`SlidingWindow`] keeps per-second buckets in a fixed circular array
//! (no allocation, no locks: each bucket is claimed for the current
//! second with a CAS and then accumulated with relaxed adds), so
//! `expirations in the last 10 s` or `mean read latency over the last
//! minute` is one pass over 64 buckets.
//!
//! Four process-global windows track the signals the paper's trade makes
//! interesting: `SessionExpired` verdicts (§4.1), read latency, reader
//! staleness in versions, and maintenance commits. [`note_expiration`]
//! doubles as the *expire storm* anomaly trigger: when the 10-second
//! expiration count crosses `WH_SLO_EXPIRE_STORM` (default 500) it asks
//! the flight recorder to dump.

use std::sync::atomic::AtomicU64;
#[cfg(feature = "enabled")]
use std::sync::atomic::Ordering;

/// Circular per-second buckets retained; windows wider than this clamp.
pub const WINDOW_BUCKETS: usize = 64;

/// Window (seconds) used by the expire-storm trigger and `/health`.
pub const STORM_WINDOW_SECS: u64 = 10;

/// Default `WH_SLO_EXPIRE_STORM` threshold (expirations per 10 s).
pub const DEFAULT_STORM_THRESHOLD: u64 = 500;

// The accumulators are only read with `enabled` on; in disabled builds the
// struct exists solely so the public type is feature-independent.
#[cfg_attr(not(feature = "enabled"), allow(dead_code))]
struct Bucket {
    /// Which absolute second this bucket currently holds (`u64::MAX` =
    /// never used).
    second: AtomicU64,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A lock-free sliding window of per-second `(count, sum)` accumulators.
#[cfg_attr(not(feature = "enabled"), allow(dead_code))]
pub struct SlidingWindow {
    buckets: [Bucket; WINDOW_BUCKETS],
}

impl std::fmt::Debug for SlidingWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlidingWindow").finish_non_exhaustive()
    }
}

impl Default for SlidingWindow {
    fn default() -> SlidingWindow {
        SlidingWindow::new()
    }
}

impl SlidingWindow {
    pub const fn new() -> SlidingWindow {
        SlidingWindow {
            buckets: [const {
                Bucket {
                    second: AtomicU64::new(u64::MAX),
                    count: AtomicU64::new(0),
                    sum: AtomicU64::new(0),
                }
            }; WINDOW_BUCKETS],
        }
    }

    /// Record one observation now. No-op without the `enabled` feature.
    #[inline]
    pub fn record(&self, value: u64) {
        #[cfg(feature = "enabled")]
        {
            let sec = crate::trace::process_epoch_ns() / 1_000_000_000;
            let b = &self.buckets[(sec % WINDOW_BUCKETS as u64) as usize];
            let cur = b.second.load(Ordering::Acquire); // ordering: slo-bucket Acquire — pairs with the CAS below so a reclaimed bucket's zeroed accumulators are seen before new adds land
            if cur != sec {
                // Reclaim the bucket for the current second. The CAS loser
                // skips the reset and just accumulates; a handful of
                // events from the reset race may be dropped, which is fine
                // for an SLO estimate.
                if b.second
                    .compare_exchange(cur, sec, Ordering::AcqRel, Ordering::Relaxed) // ordering: slo-bucket AcqRel/Relaxed — exactly one thread wins the per-second reclaim and resets the accumulators
                    .is_ok()
                {
                    b.count.store(0, Ordering::Relaxed); // ordering: stat-counter Relaxed — reset by the unique CAS winner; approximate loss at the boundary is acceptable
                    b.sum.store(0, Ordering::Relaxed); // ordering: stat-counter Relaxed — reset by the unique CAS winner; approximate loss at the boundary is acceptable
                } else if b.second.load(Ordering::Relaxed) != sec {
                    // ordering: stat-counter Relaxed — statistical read; tearing across cells is acceptable
                    return; // raced with a different second; drop the sample
                }
            }
            b.count.fetch_add(1, Ordering::Relaxed); // ordering: stat-counter Relaxed — independent event counter; read only for reporting
            b.sum.fetch_add(value, Ordering::Relaxed); // ordering: stat-counter Relaxed — independent event counter; read only for reporting
        }
        #[cfg(not(feature = "enabled"))]
        let _ = value;
    }

    /// `(count, sum)` over the trailing `window_secs` seconds (inclusive
    /// of the current second). Always `(0, 0)` when disabled.
    pub fn totals(&self, window_secs: u64) -> (u64, u64) {
        #[cfg(feature = "enabled")]
        {
            let now = crate::trace::process_epoch_ns() / 1_000_000_000;
            let window = window_secs.clamp(1, WINDOW_BUCKETS as u64 - 1);
            let oldest = now.saturating_sub(window - 1);
            let mut count = 0u64;
            let mut sum = 0u64;
            for b in &self.buckets {
                let sec = b.second.load(Ordering::Acquire); // ordering: slo-bucket Acquire — see the bucket’s current second before reading its accumulators
                if sec >= oldest && sec <= now {
                    count += b.count.load(Ordering::Relaxed); // ordering: stat-counter Relaxed — statistical read; tearing across cells is acceptable
                    sum += b.sum.load(Ordering::Relaxed); // ordering: stat-counter Relaxed — statistical read; tearing across cells is acceptable
                }
            }
            (count, sum)
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = window_secs;
            (0, 0)
        }
    }

    /// Events per second over the trailing window.
    pub fn rate_per_sec(&self, window_secs: u64) -> f64 {
        let (count, _) = self.totals(window_secs);
        count as f64 / window_secs.max(1) as f64
    }

    /// Mean observed value over the trailing window (0.0 if empty).
    pub fn mean(&self, window_secs: u64) -> f64 {
        let (count, sum) = self.totals(window_secs);
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }
}

static EXPIRATIONS: SlidingWindow = SlidingWindow::new();
static READ_LATENCY_NS: SlidingWindow = SlidingWindow::new();
static STALENESS_VNS: SlidingWindow = SlidingWindow::new();
static COMMITS: SlidingWindow = SlidingWindow::new();
static REPAIRS: SlidingWindow = SlidingWindow::new();

/// §4.1 `SessionExpired` verdicts, per second.
pub fn expirations() -> &'static SlidingWindow {
    &EXPIRATIONS
}

/// End-to-end reader operation latency (ns).
pub fn read_latency_ns() -> &'static SlidingWindow {
    &READ_LATENCY_NS
}

/// Reader staleness at scan time (currentVN − sessionVN).
pub fn staleness_vns() -> &'static SlidingWindow {
    &STALENESS_VNS
}

/// Maintenance transaction commits, per second.
pub fn commits() -> &'static SlidingWindow {
    &COMMITS
}

/// Expired sessions recovered by delta repair (vs restarted), per second.
pub fn repairs() -> &'static SlidingWindow {
    &REPAIRS
}

fn storm_threshold() -> u64 {
    static THRESHOLD: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *THRESHOLD.get_or_init(|| {
        std::env::var("WH_SLO_EXPIRE_STORM")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_STORM_THRESHOLD)
    })
}

/// Whether the expire-storm condition currently holds.
pub fn expire_storm_active() -> bool {
    EXPIRATIONS.totals(STORM_WINDOW_SECS).0 >= storm_threshold()
}

/// Feed one §4.1 expiration verdict; fires the `expire_storm` flight-
/// recorder trigger when the 10-second rate crosses the threshold.
pub fn note_expiration() {
    EXPIRATIONS.record(1);
    let (count, _) = EXPIRATIONS.totals(STORM_WINDOW_SECS);
    if count >= storm_threshold() {
        crate::recorder::trigger(
            "expire_storm",
            &format!(
                "{count} SessionExpired verdicts in the last {STORM_WINDOW_SECS}s (threshold {})",
                storm_threshold()
            ),
        );
    }
}

/// Feed one completed reader operation's latency.
pub fn note_read_latency(ns: u64) {
    READ_LATENCY_NS.record(ns);
}

/// Feed one reader staleness observation (versions behind current).
pub fn note_staleness(vns: u64) {
    STALENESS_VNS.record(vns);
}

/// Feed one maintenance commit.
pub fn note_commit() {
    COMMITS.record(1);
}

/// Feed one repaired (delta-patched, not restarted) session recovery.
pub fn note_repair() {
    REPAIRS.record(1);
}

/// `/health` payload: `(healthy, json_body)`. Degraded (HTTP 503) while
/// an expire storm is active.
pub fn health() -> (bool, String) {
    let storm = expire_storm_active();
    let (exp_count, _) = EXPIRATIONS.totals(STORM_WINDOW_SECS);
    let (read_count, _) = READ_LATENCY_NS.totals(STORM_WINDOW_SECS);
    let (repair_count, _) = REPAIRS.totals(STORM_WINDOW_SECS);
    let body = format!(
        concat!(
            "{{\n",
            "  \"status\": \"{}\",\n",
            "  \"enabled\": {},\n",
            "  \"window_secs\": {},\n",
            "  \"expirations\": {},\n",
            "  \"expire_storm_threshold\": {},\n",
            "  \"repairs\": {},\n",
            "  \"reads\": {},\n",
            "  \"read_latency_mean_us\": {:.1},\n",
            "  \"staleness_mean_vns\": {:.2},\n",
            "  \"commits_per_sec\": {:.2},\n",
            "  \"trace_events\": {}\n",
            "}}\n"
        ),
        if storm { "degraded" } else { "ok" },
        crate::is_enabled(),
        STORM_WINDOW_SECS,
        exp_count,
        storm_threshold(),
        repair_count,
        read_count,
        READ_LATENCY_NS.mean(STORM_WINDOW_SECS) / 1_000.0,
        STALENESS_VNS.mean(STORM_WINDOW_SECS),
        COMMITS.rate_per_sec(STORM_WINDOW_SECS),
        crate::trace::events_recorded(),
    );
    (!storm, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_accumulates_current_second() {
        let w = SlidingWindow::new();
        w.record(10);
        w.record(20);
        let (count, sum) = w.totals(5);
        if crate::is_enabled() {
            assert_eq!(count, 2);
            assert_eq!(sum, 30);
            assert!((w.mean(5) - 15.0).abs() < 1e-9);
        } else {
            assert_eq!((count, sum), (0, 0));
        }
    }

    #[test]
    fn health_reports_status() {
        let (ok, body) = health();
        assert!(body.contains("\"status\""));
        assert!(body.contains("\"expirations\""));
        // No storm has been provoked in this process.
        let _ = ok;
    }
}
