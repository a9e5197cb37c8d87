//! Observability substrate for the `warehouse-2vnl` system.
//!
//! 2VNL's whole pitch is a quantified trade (Quass & Widom §3, §5): readers
//! never block, but they read data up to one maintenance generation stale,
//! while the warehouse pays extra storage and GC work. This crate is the
//! measurement surface for that trade — the live telemetry a production
//! MVCC engine exposes (cf. the instrumentation-driven evaluations in
//! Larson et al. and Faleiro & Abadi): staleness, version-slot occupancy,
//! latch contention, maintenance-phase latency, GC reclaim lag.
//!
//! Design constraints, in order:
//!
//! 1. **Lock-free hot path.** Counters, gauges, and histogram recording are
//!    single relaxed atomic RMWs. The only lock in the crate guards the
//!    registry's name→metric maps (touched once per call site, cached in a
//!    `OnceLock` by the [`counter!`]/[`gauge!`]/[`histogram!`] macros).
//! 2. **Zero cost when disabled.** Without the `enabled` cargo feature every
//!    recording method compiles to an empty `#[inline]` body — no atomics,
//!    no clock reads — [`Timer::start`] doesn't read the clock and a
//!    [`TraceGuard`] is a ZST. The one CI overhead gate (`report_obs`,
//!    E20/E24) holds the enabled build to within 5% of the disabled build,
//!    geomean over seven hot-loop probes.
//! 3. **No dependencies.** `std` only, like the rest of the workspace.
//!
//! Metric names follow the `layer.object.metric` convention (DESIGN.md §8):
//! `storage.latch.read_wait_ns`, `vnl.reader.staleness`,
//! `cc.s2pl.reader_wait_ns`, `sql.exec.rows_out`, …
//!
//! [`Registry::snapshot`] freezes everything into a [`Snapshot`] with
//! interval arithmetic ([`Snapshot::since`], mirroring
//! `wh_storage::IoSnapshot` semantics), a JSON encoder, and a
//! Prometheus-style text encoder.

pub mod encode;
pub mod histogram;
pub mod metric;
pub mod recorder;
pub mod registry;
pub mod server;
pub mod slo;
pub mod trace;

pub use histogram::{Histogram, HistogramSnapshot, BUCKETS};
pub use metric::{Counter, Gauge};
pub use recorder::DumpInfo;
pub use registry::{counter, gauge, histogram, Registry, Snapshot};
pub use server::IntrospectionServer;
pub use slo::SlidingWindow;
pub use trace::{DurationSink, EventKind, TraceCtx, TraceEvent, TraceGuard};

/// A monotonic stopwatch that is free when observability is disabled: the
/// disabled build neither stores nor reads a clock. For regions that have
/// no trace span (sampled point ops, latch waits, sub-steps of a span); a
/// region with a span is timed by the span itself — [`timed_span!`].
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    #[cfg(feature = "enabled")]
    start: std::time::Instant,
}

impl Timer {
    /// Start timing (a no-op without the `enabled` feature).
    #[inline]
    pub fn start() -> Timer {
        Timer {
            #[cfg(feature = "enabled")]
            start: std::time::Instant::now(),
        }
    }

    /// Nanoseconds since [`Timer::start`] (0 when disabled).
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        #[cfg(feature = "enabled")]
        {
            self.start.elapsed().as_nanos() as u64
        }
        #[cfg(not(feature = "enabled"))]
        {
            0
        }
    }
}

/// Whether the crate was compiled with recording enabled.
#[inline]
pub const fn is_enabled() -> bool {
    cfg!(feature = "enabled")
}

/// Cached-handle lookup for a [`Counter`]: resolves the registry entry once
/// per call site and returns `&'static Counter` thereafter.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __SITE: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *__SITE.get_or_init(|| $crate::registry::counter($name))
    }};
}

/// Cached-handle lookup for a [`Gauge`].
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static __SITE: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *__SITE.get_or_init(|| $crate::registry::gauge($name))
    }};
}

/// Cached-handle lookup for a [`Histogram`].
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __SITE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *__SITE.get_or_init(|| $crate::registry::histogram($name))
    }};
}

/// Cached-handle lookup for a [`Histogram`] whose call site records only
/// one in `$rate` observations. The rate is registered alongside the
/// histogram so the encoders can rescale counts (Prometheus) or label the
/// series (`sample_rate` in JSON) instead of reporting rates `$rate`× low.
#[macro_export]
macro_rules! histogram_sampled {
    ($name:expr, $rate:expr) => {{
        static __SITE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *__SITE.get_or_init(|| $crate::registry::sampled_histogram($name, $rate))
    }};
}

/// Cached interned trace-event name for this call site: resolves the
/// [`trace`] name-table index once and returns the `u32` thereafter.
#[macro_export]
macro_rules! trace_name {
    ($name:expr) => {{
        static __SITE: ::std::sync::OnceLock<u32> = ::std::sync::OnceLock::new();
        *__SITE.get_or_init(|| $crate::trace::intern($name))
    }};
}

/// Open a trace span parented under the ambient open span (a fresh trace
/// if none). Returns a [`TraceGuard`] that closes the span on drop.
#[macro_export]
macro_rules! trace_span {
    ($name:expr) => {
        $crate::trace::enter($crate::trace_name!($name))
    };
}

/// Open a trace span explicitly parented under `$ctx` (a [`TraceCtx`]),
/// regardless of which thread runs it; falls back to ambient parenting if
/// the ctx is inert.
#[macro_export]
macro_rules! trace_span_under {
    ($name:expr, $ctx:expr) => {
        $crate::trace::enter_under($crate::trace_name!($name), $ctx)
    };
}

/// The one way to time a region: [`trace_span!`] whose duration also
/// lands in the histogram called `$hist`. The span's start and end events
/// carry the only two clock reads taken, and the histogram observation is
/// the `SpanEnd` event's `arg` — on normal exit, early `?` return and
/// unwind alike.
#[macro_export]
macro_rules! timed_span {
    ($name:expr, $hist:expr) => {
        $crate::timed_span_under!($name, $hist, $crate::TraceCtx::ZERO)
    };
}

/// [`timed_span!`] explicitly parented under `$ctx`, as
/// [`trace_span_under!`] is to [`trace_span!`] (an inert ctx means ambient
/// parenting).
#[macro_export]
macro_rules! timed_span_under {
    ($name:expr, $hist:expr, $ctx:expr) => {{
        fn __sink(ns: u64) {
            $crate::histogram!($hist).record(ns);
        }
        $crate::trace::enter_under_timed($crate::trace_name!($name), $ctx, __sink)
    }};
}

/// Open a root span on trace `$trace_id` (0 allocates a fresh trace);
/// `$arg` is recorded on the start event.
#[macro_export]
macro_rules! trace_root {
    ($name:expr, $trace_id:expr, $arg:expr) => {
        $crate::trace::enter_root($crate::trace_name!($name), $trace_id, $arg)
    };
}

/// Emit an instant trace event attributed to the ambient open span.
#[macro_export]
macro_rules! trace_event {
    ($name:expr) => {
        $crate::trace::instant($crate::trace_name!($name), 0)
    };
    ($name:expr, $arg:expr) => {
        $crate::trace::instant($crate::trace_name!($name), $arg)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_measures_when_enabled() {
        let t = Timer::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        if is_enabled() {
            assert!(t.elapsed_ns() >= 1_000_000);
        } else {
            assert_eq!(t.elapsed_ns(), 0);
        }
    }

    #[test]
    fn macros_cache_one_handle_per_site() {
        let a = counter!("obs.test.macro_site");
        let b = counter!("obs.test.macro_site");
        // Two sites, one registry entry: both point at the same metric.
        assert!(
            std::ptr::eq(a, b) || !is_enabled() || {
                a.add(1);
                b.get() == a.get()
            }
        );
    }
}
