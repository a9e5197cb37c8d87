//! Causal tracing: lock-free, per-thread ring-buffered structured events
//! with trace/span IDs and parent links.
//!
//! The metric layer ([`crate::counter!`] and friends) answers "how much";
//! this module answers "in what order, caused by what". Every event
//! carries a `trace_id` (one reader session, one maintenance transaction,
//! one GC pass, …), a `span_id`, and a `parent_id` linking it to the
//! enclosing open span — so one `SessionExpired` can be read as the causal
//! story of *this* session racing *that* maintenance commit, which is
//! exactly the visibility the 2VNL staleness trade (Quass & Widom §3, §5)
//! needs at debugging time.
//!
//! Design:
//!
//! - **Per-thread rings, single-writer seqlock slots.** Each thread owns a
//!   fixed ring of 8-word slots ([`THREAD_RING_CAPACITY`]); only the
//!   owning thread ever writes a slot, so the write path is a handful of
//!   relaxed atomic stores guarded by a per-slot version word (odd =
//!   mid-write). Collectors ([`collect`]) read slots optimistically and
//!   discard torn reads — readers never block writers and writers never
//!   wait, mirroring the paper's readers-don't-block-maintenance stance.
//!   A ring whose thread exits is recycled to the next new thread through
//!   a free-list, so total ring memory is bounded by peak thread
//!   concurrency even when short-lived scan workers churn.
//! - **Ambient context.** A thread-local stack of `(trace, span)` pairs
//!   gives new spans their parent implicitly ([`enter`]); long-lived
//!   contexts that cross method calls (a session, a maintenance txn) hold
//!   an explicit [`TraceCtx`] and child spans attach with
//!   [`enter_under`], which also works across threads (parallel scan
//!   workers parent under the coordinating scan span).
//! - **Zero cost when disabled.** Without the `enabled` feature every
//!   function here is an empty inline body and [`TraceGuard`] is a ZST
//!   with no `Drop` impl; the macros still evaluate their arguments'
//!   side-effect-free literals only.
//!
//! Event names are interned to `u32` indices once per call site (the
//! [`crate::trace_name!`] macro caches the index in a per-site
//! `OnceLock`), so the hot path never hashes or compares strings.

use std::fmt;

/// Events retained per thread before the oldest is overwritten. The union
/// of all per-thread rings is the flight recorder's "recent history".
pub const THREAD_RING_CAPACITY: usize = 4096;

/// What a [`TraceEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`parent_id` = enclosing open span, 0 for roots).
    SpanStart,
    /// A span closed (`arg` = duration in nanoseconds).
    SpanEnd,
    /// A point event attributed to the enclosing open span.
    Instant,
}

impl EventKind {
    /// Stable wire label used by the JSONL dump and `/traces/<id>`.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::SpanStart => "start",
            EventKind::SpanEnd => "end",
            EventKind::Instant => "instant",
        }
    }
}

/// One decoded trace event, as returned by [`collect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global allocation order (monotone across threads).
    pub seq: u64,
    /// The causal chain this event belongs to (0 = unattributed).
    pub trace_id: u64,
    /// This event's span (for `Instant`, the enclosing span).
    pub span_id: u64,
    /// The enclosing open span at emission time (0 = root / none).
    pub parent_id: u64,
    /// Interned event name (`layer.object.metric` convention).
    pub name: &'static str,
    pub kind: EventKind,
    /// Compact per-process thread id (shared with the span ring).
    pub thread: u32,
    /// Nanoseconds since the process observability epoch.
    pub ts_ns: u64,
    /// Kind-specific payload: duration for `SpanEnd`, caller data otherwise.
    pub arg: u64,
}

/// An explicit span context for spans that outlive one stack frame (a
/// reader session, a maintenance transaction) or must cross threads
/// (parallel scan workers). A zeroed ctx is inert: [`enter_under`] falls
/// back to ambient parenting and [`close_ctx`] is a no-op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCtx {
    pub trace: u64,
    pub span: u64,
    name_idx: u32,
}

impl TraceCtx {
    /// The inert context: no trace, no parent.
    pub const ZERO: TraceCtx = TraceCtx {
        trace: 0,
        span: 0,
        name_idx: 0,
    };

    /// True if this context carries a live trace.
    pub fn is_live(&self) -> bool {
        self.span != 0
    }
}

/// Receives a timed span's duration (ns) when its guard drops. A plain
/// `fn` so a guard stays `Copy`-sized and capture-free: the
/// [`crate::timed_span!`] macros build one per call site around a cached
/// histogram handle, and the reader path passes
/// [`crate::slo::note_read_latency`] as is.
pub type DurationSink = fn(u64);

/// RAII guard for a span opened with [`enter`] / [`enter_under`] /
/// [`enter_root`] / [`enter_under_timed`]: emits the `SpanEnd` event
/// (duration in `arg`) and pops the ambient stack on drop. A timed guard
/// also hands that same duration to its sink, so a span and the histogram
/// (or SLO window) fed from it can never disagree and the interval costs
/// two clock reads in total: the start event's timestamp is the span's
/// start, the end event's timestamp is its end. A ZST no-op without the
/// `enabled` feature.
#[must_use = "a trace span measures the scope it is held for"]
pub struct TraceGuard {
    #[cfg(feature = "enabled")]
    trace: u64,
    #[cfg(feature = "enabled")]
    span: u64,
    #[cfg(feature = "enabled")]
    parent: u64,
    #[cfg(feature = "enabled")]
    name_idx: u32,
    #[cfg(feature = "enabled")]
    start_ns: u64,
    /// Where the span's duration goes besides its `SpanEnd` event.
    #[cfg(feature = "enabled")]
    sink: Option<DurationSink>,
    /// `!Send` marker (in both enabled and disabled builds, so code that
    /// compiles with tracing off cannot break with it on): a guard pops
    /// the ambient span stack of the thread that opened it, so dropping
    /// it on another thread would leave the origin thread's stack entry
    /// behind and silently re-parent all its later spans. Cross-thread
    /// spans go through [`TraceCtx`] + [`enter_under`] instead.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl fmt::Debug for TraceGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("TraceGuard");
        #[cfg(feature = "enabled")]
        d.field("trace", &self.trace).field("span", &self.span);
        d.finish_non_exhaustive()
    }
}

#[cfg(feature = "enabled")]
mod imp {
    use super::{DurationSink, EventKind, TraceCtx, TraceEvent, TraceGuard, THREAD_RING_CAPACITY};
    use std::cell::RefCell;
    use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, OnceLock, PoisonError};
    use std::time::Instant;

    /// Shared process time base (ns since first observability use), so
    /// trace events and the SLO windows sort on one axis.
    pub(crate) fn process_epoch_ns() -> u64 {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }

    /// Compact per-process thread id (0, 1, 2, …), assigned on a thread's
    /// first event, so encoders can group by thread without OS tids.
    fn process_thread_id() -> u32 {
        static NEXT_THREAD_ID: AtomicU32 = AtomicU32::new(0);
        thread_local! {
            static THREAD_ID: u32 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed); // ordering: trace-seq Relaxed — sequence allocation; the slot/event payload is synchronized separately
        }
        THREAD_ID.with(|id| *id)
    }

    /// Words per slot: version + 7 payload words
    /// (seq, trace, span, parent, meta, ts, arg).
    const WORDS: usize = 8;

    /// Trace/span id allocator. Starts at 1 so 0 means "none".
    static NEXT_ID: AtomicU64 = AtomicU64::new(1);
    /// Global event sequence. Starts at 1 so a zeroed slot is never a
    /// valid event.
    static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);

    /// Interned event names; an index is the position + 1 (0 = unknown).
    static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

    pub fn intern(name: &'static str) -> u32 {
        let mut names = NAMES.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(i) = names.iter().position(|n| *n == name) {
            return (i + 1) as u32;
        }
        names.push(name);
        names.len() as u32
    }

    fn name_of(idx: u32) -> &'static str {
        let names = NAMES.lock().unwrap_or_else(PoisonError::into_inner);
        if idx == 0 {
            return "?";
        }
        names.get(idx as usize - 1).copied().unwrap_or("?")
    }

    fn next_id() -> u64 {
        NEXT_ID.fetch_add(1, Ordering::Relaxed) // ordering: trace-seq Relaxed — sequence allocation; the slot/event payload is synchronized separately
    }

    /// One thread's event ring. Only the owning thread writes slots (and
    /// `head`); collectors on other threads read optimistically through
    /// the per-slot seqlock version word. The writer's compact thread id
    /// is packed into each event's meta word rather than stored here, so
    /// a ring recycled to a new thread (see [`FREE`]) keeps attributing
    /// its retained events to the thread that actually emitted them.
    struct ThreadRing {
        head: AtomicU64,
        slots: Box<[[AtomicU64; WORDS]]>,
    }

    impl ThreadRing {
        fn new() -> ThreadRing {
            ThreadRing {
                head: AtomicU64::new(0),
                slots: (0..THREAD_RING_CAPACITY)
                    .map(|_| [const { AtomicU64::new(0) }; WORDS])
                    .collect(),
            }
        }

        /// Owner-thread-only append (seqlock write protocol).
        fn write(&self, payload: [u64; WORDS - 1]) {
            let h = self.head.load(Ordering::Relaxed); // ordering: trace-ring-owner Relaxed — head is written only by this (owning) thread; collectors tolerate staleness
            let slot = &self.slots[(h % THREAD_RING_CAPACITY as u64) as usize];
            let v = slot[0].load(Ordering::Relaxed); // ordering: trace-ring-owner Relaxed — version word is written only by this thread; always even here
            slot[0].store(v + 1, Ordering::Relaxed); // ordering: trace-ring-owner Relaxed — odd marks mid-write; the release fence below orders it before the payload stores
            fence(Ordering::Release); // ordering: trace-ring Release fence — the odd version store above becomes visible before any payload store below
            for (w, val) in slot[1..].iter().zip(payload) {
                w.store(val, Ordering::Relaxed); // ordering: trace-ring-payload Relaxed — payload words; torn logical reads are rejected by the version re-check
            }
            slot[0].store(v + 2, Ordering::Release); // ordering: trace-ring Release — publishes the payload; a reader that acquires this even version sees all payload stores
            self.head.store(h + 1, Ordering::Relaxed); // ordering: trace-ring-owner Relaxed — owner-only bookkeeping; collectors only use it for wrap statistics
        }

        /// Optimistic cross-thread slot read; `None` for empty/torn slots.
        fn read_slot(&self, i: usize) -> Option<[u64; WORDS - 1]> {
            let slot = &self.slots[i];
            let v1 = slot[0].load(Ordering::Acquire); // ordering: trace-ring Acquire — payload loads below must not be reordered before this version check
            if v1 == 0 || v1 % 2 == 1 {
                return None;
            }
            let mut out = [0u64; WORDS - 1];
            for (o, w) in out.iter_mut().zip(&slot[1..]) {
                *o = w.load(Ordering::Relaxed); // ordering: trace-ring-payload Relaxed — payload loads; consistency is validated by the version re-check below
            }
            fence(Ordering::Acquire); // ordering: trace-ring Acquire fence — payload loads above complete before the version re-check below
            let v2 = slot[0].load(Ordering::Relaxed); // ordering: trace-ring-owner Relaxed — the fence above orders this re-check after the payload loads
            if v1 == v2 {
                Some(out)
            } else {
                None
            }
        }
    }

    /// Every live thread ring plus any awaiting reuse in [`FREE`]. A ring
    /// outlives its thread (so the flight recorder can still dump a
    /// finished worker's events, until a new thread recycles the ring),
    /// but the vector is bounded by the peak number of *concurrent*
    /// tracing threads — exited workers return their ring through the
    /// free-list instead of leaking a fresh ~256KB ring per short-lived
    /// scan worker.
    static RINGS: Mutex<Vec<Arc<ThreadRing>>> = Mutex::new(Vec::new());

    /// Rings whose owning thread has exited, ready to be adopted by the
    /// next new tracing thread. Retained events stay readable via
    /// [`RINGS`] while a ring waits here.
    static FREE: Mutex<Vec<Arc<ThreadRing>>> = Mutex::new(Vec::new());

    /// Thread-local handle that returns the ring to [`FREE`] when the
    /// thread exits (TLS destructor), closing the reuse loop.
    struct RingHolder(Arc<ThreadRing>);

    impl Drop for RingHolder {
        fn drop(&mut self) {
            FREE.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(Arc::clone(&self.0));
        }
    }

    thread_local! {
        static RING: RingHolder = {
            let recycled = FREE
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop();
            let ring = recycled.unwrap_or_else(|| {
                let ring = Arc::new(ThreadRing::new());
                RINGS
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(Arc::clone(&ring));
                ring
            });
            RingHolder(ring)
        };
        /// Ambient (trace, span) stack: innermost open span last.
        static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    }

    /// Meta word layout: name index in bits 0..32, event kind in bits
    /// 32..40, compact thread id in bits 40..64 (24 bits — ids are
    /// assigned densely from 0, so even a thread-churny soak stays far
    /// below the mask).
    const THREAD_SHIFT: u32 = 40;
    const THREAD_MASK: u64 = 0xff_ffff;

    fn emit(kind: EventKind, name_idx: u32, trace: u64, span: u64, parent: u64, arg: u64) {
        emit_at(process_epoch_ns(), kind, name_idx, trace, span, parent, arg);
    }

    /// Append one event stamped `ts`: a span's start and end events carry
    /// the very clock reads its duration is computed from.
    fn emit_at(
        ts: u64,
        kind: EventKind,
        name_idx: u32,
        trace: u64,
        span: u64,
        parent: u64,
        arg: u64,
    ) {
        let seq = NEXT_SEQ.fetch_add(1, Ordering::Relaxed); // ordering: trace-seq Relaxed — sequence allocation; the slot/event payload is synchronized separately
        let thread = u64::from(process_thread_id()) & THREAD_MASK;
        let meta = u64::from(name_idx) | ((kind as u64) << 32) | (thread << THREAD_SHIFT);
        // try_with: events emitted while this thread's TLS is being torn
        // down (after the RingHolder destructor ran) are dropped rather
        // than reviving the ring or panicking.
        let _ = RING.try_with(|ring| ring.0.write([seq, trace, span, parent, meta, ts, arg]));
    }

    fn ambient() -> Option<(u64, u64)> {
        STACK.with(|s| s.borrow().last().copied())
    }

    pub fn current() -> TraceCtx {
        ambient().map_or(TraceCtx::ZERO, |(trace, span)| TraceCtx {
            trace,
            span,
            name_idx: 0,
        })
    }

    fn open_span(
        name_idx: u32,
        trace: u64,
        parent: u64,
        arg: u64,
        sink: Option<DurationSink>,
    ) -> TraceGuard {
        let span = next_id();
        let start_ns = process_epoch_ns();
        emit_at(
            start_ns,
            EventKind::SpanStart,
            name_idx,
            trace,
            span,
            parent,
            arg,
        );
        STACK.with(|s| s.borrow_mut().push((trace, span)));
        TraceGuard {
            trace,
            span,
            parent,
            name_idx,
            start_ns,
            sink,
            _not_send: std::marker::PhantomData,
        }
    }

    /// Open under `ctx` when it is live, else under the ambient span (a
    /// fresh trace if there is none).
    fn open_under(name_idx: u32, ctx: TraceCtx, sink: Option<DurationSink>) -> TraceGuard {
        let (trace, parent) = if ctx.is_live() {
            (ctx.trace, ctx.span)
        } else {
            ambient().unwrap_or_else(|| (next_id(), 0))
        };
        open_span(name_idx, trace, parent, 0, sink)
    }

    pub fn enter(name_idx: u32) -> TraceGuard {
        open_under(name_idx, TraceCtx::ZERO, None)
    }

    pub fn enter_root(name_idx: u32, trace_id: u64, arg: u64) -> TraceGuard {
        let trace = if trace_id == 0 { next_id() } else { trace_id };
        open_span(name_idx, trace, 0, arg, None)
    }

    pub fn enter_under(name_idx: u32, ctx: TraceCtx) -> TraceGuard {
        open_under(name_idx, ctx, None)
    }

    pub fn enter_under_timed(name_idx: u32, ctx: TraceCtx, sink: DurationSink) -> TraceGuard {
        open_under(name_idx, ctx, Some(sink))
    }

    pub fn instant(name_idx: u32, arg: u64) {
        let (trace, parent) = ambient().unwrap_or((0, 0));
        emit(EventKind::Instant, name_idx, trace, parent, parent, arg);
    }

    pub fn open_ctx(name_idx: u32, trace_id: u64, arg: u64) -> TraceCtx {
        let trace = if trace_id == 0 { next_id() } else { trace_id };
        let span = next_id();
        emit(EventKind::SpanStart, name_idx, trace, span, 0, arg);
        TraceCtx {
            trace,
            span,
            name_idx,
        }
    }

    pub fn close_ctx(ctx: TraceCtx, arg: u64) {
        if ctx.is_live() {
            emit(
                EventKind::SpanEnd,
                ctx.name_idx,
                ctx.trace,
                ctx.span,
                0,
                arg,
            );
        }
    }

    pub fn drop_guard(g: &TraceGuard) {
        let end = process_epoch_ns();
        let elapsed = end.saturating_sub(g.start_ns);
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&(_, sp)| sp == g.span) {
                stack.truncate(pos);
            }
        });
        emit_at(
            end,
            EventKind::SpanEnd,
            g.name_idx,
            g.trace,
            g.span,
            g.parent,
            elapsed,
        );
        if let Some(sink) = g.sink {
            sink(elapsed);
        }
    }

    fn decode(w: [u64; WORDS - 1]) -> TraceEvent {
        let [seq, trace_id, span_id, parent_id, meta, ts_ns, arg] = w;
        let kind = match (meta >> 32) & 0xff {
            0 => EventKind::SpanStart,
            1 => EventKind::SpanEnd,
            _ => EventKind::Instant,
        };
        TraceEvent {
            seq,
            trace_id,
            span_id,
            parent_id,
            name: name_of((meta & 0xffff_ffff) as u32),
            kind,
            thread: ((meta >> THREAD_SHIFT) & THREAD_MASK) as u32,
            ts_ns,
            arg,
        }
    }

    pub fn collect() -> Vec<TraceEvent> {
        let rings: Vec<Arc<ThreadRing>> = RINGS
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(Arc::clone)
            .collect();
        let mut out = Vec::new();
        for ring in rings {
            for i in 0..THREAD_RING_CAPACITY {
                if let Some(w) = ring.read_slot(i) {
                    out.push(decode(w));
                }
            }
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Rings allocated so far — bounded by the peak number of concurrent
    /// tracing threads, not by how many threads have ever traced.
    pub fn ring_count() -> usize {
        RINGS.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    pub fn events_recorded() -> u64 {
        NEXT_SEQ.load(Ordering::Relaxed) - 1 // ordering: stat-counter Relaxed — statistical read; tearing across cells is acceptable
    }

    pub fn any_ring_wrapped() -> bool {
        // ordering: stat-counter Relaxed — statistical read; tearing across cells is acceptable
        RINGS
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .any(|r| r.head.load(Ordering::Relaxed) > THREAD_RING_CAPACITY as u64)
    }

    /// Clear every ring. Quiescent-use only: callers must ensure no thread
    /// is concurrently emitting events.
    pub fn reset() {
        let rings = RINGS.lock().unwrap_or_else(PoisonError::into_inner);
        for ring in rings.iter() {
            for slot in &*ring.slots {
                for w in slot {
                    w.store(0, Ordering::Relaxed); // ordering: stat-counter Relaxed — reset; callers quiesce writers around snapshots/resets
                }
            }
            ring.head.store(0, Ordering::Relaxed); // ordering: stat-counter Relaxed — reset; callers quiesce writers around snapshots/resets
        }
    }
}

#[cfg(feature = "enabled")]
pub(crate) use imp::process_epoch_ns;
#[cfg(feature = "enabled")]
pub use imp::{
    any_ring_wrapped, close_ctx, collect, current, enter, enter_root, enter_under,
    enter_under_timed, events_recorded, instant, intern, open_ctx, reset, ring_count,
};

#[cfg(feature = "enabled")]
impl Drop for TraceGuard {
    fn drop(&mut self) {
        imp::drop_guard(self);
    }
}

#[cfg(not(feature = "enabled"))]
mod noop {
    use super::{DurationSink, TraceCtx, TraceEvent, TraceGuard};

    const INERT: TraceGuard = TraceGuard {
        _not_send: std::marker::PhantomData,
    };

    #[inline]
    pub fn intern(_name: &'static str) -> u32 {
        0
    }
    #[inline]
    pub fn enter(_name_idx: u32) -> TraceGuard {
        INERT
    }
    #[inline]
    pub fn enter_root(_name_idx: u32, _trace_id: u64, _arg: u64) -> TraceGuard {
        INERT
    }
    #[inline]
    pub fn enter_under(_name_idx: u32, _ctx: TraceCtx) -> TraceGuard {
        INERT
    }
    #[inline]
    pub fn enter_under_timed(_name_idx: u32, _ctx: TraceCtx, _sink: DurationSink) -> TraceGuard {
        INERT
    }
    #[inline]
    pub fn instant(_name_idx: u32, _arg: u64) {}
    #[inline]
    pub fn open_ctx(_name_idx: u32, _trace_id: u64, _arg: u64) -> TraceCtx {
        TraceCtx::ZERO
    }
    #[inline]
    pub fn close_ctx(_ctx: TraceCtx, _arg: u64) {}
    #[inline]
    pub fn current() -> TraceCtx {
        TraceCtx::ZERO
    }
    #[inline]
    pub fn collect() -> Vec<TraceEvent> {
        Vec::new()
    }
    #[inline]
    pub fn events_recorded() -> u64 {
        0
    }
    #[inline]
    pub fn any_ring_wrapped() -> bool {
        false
    }
    #[inline]
    pub fn ring_count() -> usize {
        0
    }
    #[inline]
    pub fn reset() {}
}

#[cfg(not(feature = "enabled"))]
pub use noop::{
    any_ring_wrapped, close_ctx, collect, current, enter, enter_root, enter_under,
    enter_under_timed, events_recorded, instant, intern, open_ctx, reset, ring_count,
};

/// Events belonging to one trace, in `seq` order.
pub fn trace_events(trace_id: u64) -> Vec<TraceEvent> {
    collect()
        .into_iter()
        .filter(|e| e.trace_id == trace_id)
        .collect()
}

/// Recent trace ids with their root span name and event count, newest
/// last. Drives the `/traces` index endpoint.
pub fn recent_traces() -> Vec<(u64, &'static str, usize)> {
    let mut order: Vec<u64> = Vec::new();
    let mut roots: std::collections::BTreeMap<u64, (&'static str, usize)> =
        std::collections::BTreeMap::new();
    for e in collect() {
        if e.trace_id == 0 {
            continue;
        }
        let entry = roots.entry(e.trace_id).or_insert_with(|| {
            order.push(e.trace_id);
            ("?", 0)
        });
        entry.1 += 1;
        if e.parent_id == 0 && matches!(e.kind, EventKind::SpanStart) {
            entry.0 = e.name;
        }
    }
    order
        .into_iter()
        .filter_map(|id| roots.get(&id).map(|&(name, n)| (id, name, n)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_build_is_inert() {
        if crate::is_enabled() {
            return;
        }
        let g = enter(intern("obs.test.noop"));
        drop(g);
        assert!(collect().is_empty());
        assert_eq!(events_recorded(), 0);
    }

    #[test]
    fn spans_nest_and_parent_links_resolve() {
        if !crate::is_enabled() {
            return;
        }
        let outer = enter_root(intern("obs.test.outer"), 0, 7);
        let outer_ctx = current();
        {
            let _inner = enter(intern("obs.test.inner"));
            instant(intern("obs.test.tick"), 42);
        }
        drop(outer);
        let events: Vec<TraceEvent> = collect()
            .into_iter()
            .filter(|e| e.trace_id == outer_ctx.trace)
            .collect();
        assert_eq!(events.len(), 5, "{events:#?}");
        let starts: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.kind == EventKind::SpanStart)
            .collect();
        assert_eq!(starts.len(), 2);
        assert_eq!(starts[0].name, "obs.test.outer");
        assert_eq!(starts[0].parent_id, 0);
        assert_eq!(starts[0].arg, 7);
        assert_eq!(starts[1].name, "obs.test.inner");
        assert_eq!(starts[1].parent_id, starts[0].span_id);
        let tick = events.iter().find(|e| e.name == "obs.test.tick").unwrap();
        assert_eq!(tick.kind, EventKind::Instant);
        assert_eq!(tick.parent_id, starts[1].span_id);
        assert_eq!(tick.arg, 42);
    }

    #[test]
    fn explicit_ctx_crosses_threads() {
        if !crate::is_enabled() {
            return;
        }
        let ctx = open_ctx(intern("obs.test.session"), 0, 0);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _g = enter_under(intern("obs.test.worker"), ctx);
            });
        });
        close_ctx(ctx, 0);
        let events = trace_events(ctx.trace);
        let worker = events
            .iter()
            .find(|e| e.name == "obs.test.worker" && e.kind == EventKind::SpanStart)
            .unwrap();
        assert_eq!(worker.parent_id, ctx.span);
        assert!(events
            .iter()
            .any(|e| e.name == "obs.test.session" && e.kind == EventKind::SpanEnd));
    }

    thread_local! {
        /// What this test thread's timed spans handed their sink (a guard
        /// drops on the thread that opened it, so tests don't interfere).
        static SUNK: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
    }

    fn sink(ns: u64) {
        SUNK.with(|s| s.borrow_mut().push(ns));
    }

    /// One duration per timed span: the `SpanEnd` event's `arg` is the
    /// difference of the two event timestamps (no third clock read) and the
    /// sink gets exactly that value exactly once — on normal exit, on
    /// early return through `?`, and on unwind.
    #[test]
    fn timed_span_feeds_its_sink_the_span_end_arg_once() {
        if !crate::is_enabled() {
            return;
        }
        #[expect(clippy::unreachable, reason = "a test helper: `?` returned above")]
        fn early_return(name: u32) -> Result<(), ()> {
            let _g = enter_under_timed(name, TraceCtx::ZERO, sink);
            Err(())?;
            unreachable!("`?` returned above");
        }
        let name = intern("obs.test.timed");
        let root = open_ctx(intern("obs.test.timed_root"), 0, 0);
        {
            let _g = enter_under_timed(name, root, sink);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        {
            let _outer = enter_under(intern("obs.test.timed_outer"), root);
            assert_eq!(early_return(name), Err(()));
            let unwound = std::panic::catch_unwind(|| {
                let _g = enter_under_timed(name, TraceCtx::ZERO, sink);
                panic!("unwind through a timed span");
            });
            assert!(unwound.is_err());
        }
        close_ctx(root, 0);

        let events = trace_events(root.trace);
        let durations: Vec<u64> = events
            .iter()
            .filter(|e| e.name == "obs.test.timed" && e.kind == EventKind::SpanEnd)
            .map(|end| {
                let start = events
                    .iter()
                    .find(|e| e.span_id == end.span_id && e.kind == EventKind::SpanStart)
                    .expect("span start");
                assert_eq!(end.arg, end.ts_ns - start.ts_ns, "{start:?} {end:?}");
                end.arg
            })
            .collect();
        assert_eq!(durations.len(), 3, "{events:#?}");
        assert!(durations[0] >= 1_000_000);
        assert_eq!(SUNK.with(|s| s.borrow().clone()), durations);
    }

    /// Compiled out, a timed span is the same nothing an untimed one is.
    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_timed_span_is_a_zst_and_records_nothing() {
        assert_eq!(std::mem::size_of::<TraceGuard>(), 0);
        drop(enter_under_timed(
            intern("obs.test.noop_timed"),
            TraceCtx::ZERO,
            sink,
        ));
        drop(crate::timed_span!(
            "obs.test.noop_timed",
            "obs.test.noop_timed_ns"
        ));
        assert!(SUNK.with(|s| s.borrow().is_empty()));
        assert_eq!(events_recorded(), 0);
        let snap = crate::registry::global().snapshot();
        assert!(!snap.histograms.contains_key("obs.test.noop_timed_ns"));
    }

    #[test]
    fn interning_is_idempotent() {
        let a = intern("obs.test.intern");
        let b = intern("obs.test.intern");
        assert_eq!(a, b);
    }

    /// Short-lived threads must recycle rings through the free-list, not
    /// allocate a fresh ~256KB ring each (the per-call scan workers in
    /// `wh-storage` would otherwise leak one per parallel scan), and a
    /// recycled ring must keep attributing events to the thread that
    /// actually emitted them.
    #[test]
    fn exited_threads_recycle_rings() {
        if !crate::is_enabled() {
            return;
        }
        let name = intern("obs.test.recycle");
        // Warm up: ensure this thread's ring (and any test-harness
        // siblings') are already counted.
        instant(name, 0);
        let before = ring_count();
        let rounds = 32;
        for i in 0..rounds {
            std::thread::spawn(move || instant(name, 1000 + i))
                .join()
                .expect("recycle worker panicked");
        }
        let after = ring_count();
        // Sequential spawn+join: each worker's TLS destructor returns its
        // ring before the next spawns, so the loop itself needs at most
        // one new ring. Concurrent harness tests may claim a few more;
        // without recycling the growth would be the full `rounds`.
        assert!(
            after <= before + rounds as usize / 4,
            "rings grew {before} -> {after} over {rounds} sequential threads"
        );
        // Per-event thread ids survive recycling: every worker's event is
        // attributed to a distinct thread even when they shared one ring.
        let args: std::collections::BTreeMap<u64, u32> = collect()
            .into_iter()
            .filter(|e| e.name == "obs.test.recycle" && e.arg >= 1000)
            .map(|e| (e.arg, e.thread))
            .collect();
        let threads: std::collections::BTreeSet<u32> = args.values().copied().collect();
        assert_eq!(args.len(), rounds as usize);
        assert_eq!(threads.len(), rounds as usize, "{args:?}");
    }
}
