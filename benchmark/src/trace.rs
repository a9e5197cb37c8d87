//! The harness's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around each call into a
//! product layer; the product's `wh-obs` trace rings are not read. Each
//! working thread owns one [`Tracer`], so recording takes no lock. An
//! operation (`op.read`, `op.maint`) is a sequence of contiguous phases:
//! the harness reads the clock once at every phase boundary and hands the
//! boundaries to [`Tracer::op`], so a phase's end is the next one's start
//! and the phases cover the operation exactly.

use crate::stats::Clock;
use std::io::Write;

/// One recorded span. `parent` is the index of the parent span in the same
/// thread's list plus one (0 = root).
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op_id: u64,
}

/// Recorder-on and recorder-off time and work, for `obs.trace_overhead_pct`.
#[derive(Default, Clone, Copy)]
pub struct SliceTally {
    pub on_ops: u64,
    pub on_ns: u64,
    pub off_ops: u64,
    pub off_ns: u64,
}

impl SliceTally {
    /// `1 − traced ÷ untraced` operation rate, in percent (0 when either
    /// side saw no work).
    pub fn overhead_pct(&self) -> f64 {
        if self.on_ops == 0 || self.off_ops == 0 || self.on_ns == 0 || self.off_ns == 0 {
            return 0.0;
        }
        let on = self.on_ops as f64 / self.on_ns as f64;
        let off = self.off_ops as f64 / self.off_ns as f64;
        (1.0 - on / off) * 100.0
    }
}

pub struct Tracer {
    /// This run is a traced run.
    traced: bool,
    /// The recorder is on in the current time slice.
    on: bool,
    thread: &'static str,
    /// Record one operation in `sample_every` (point reads are sampled; a
    /// run holds millions of them).
    sample_every: u64,
    seen: u64,
    next_op: u64,
    pub spans: Vec<Span>,
    pub tally: SliceTally,
    /// Wall time this thread spent in recorder-on slices, tick to tick.
    pub on_wall_ns: u64,
    last_tick_ns: u64,
    slice_ns: u64,
    origin_ns: u64,
}

/// Hard bound on spans kept per thread (about 50 MB of JSONL).
const MAX_SPANS: usize = 600_000;

impl Tracer {
    pub fn new(traced: bool, thread: &'static str, sample_every: u64) -> Self {
        Tracer {
            traced,
            on: false,
            thread,
            sample_every: sample_every.max(1),
            seen: 0,
            next_op: 0,
            spans: Vec::new(),
            tally: SliceTally::default(),
            on_wall_ns: 0,
            last_tick_ns: 0,
            slice_ns: u64::MAX,
            origin_ns: 0,
        }
    }

    /// Start slicing the measured window: of every five consecutive slices
    /// of `slice_ns`, the first runs with the recorder off and the other
    /// four with it on, so traced and untraced rates come from the same
    /// process, table state and machine.
    pub fn begin_window(&mut self, origin_ns: u64, slice_ns: u64) {
        self.origin_ns = origin_ns;
        self.slice_ns = slice_ns.max(1);
    }

    /// Re-evaluate the slice at an operation boundary; returns whether the
    /// recorder is on.
    pub fn tick(&mut self, now_ns: u64) -> bool {
        if self.on {
            self.on_wall_ns += now_ns - self.last_tick_ns;
        }
        self.last_tick_ns = now_ns;
        let slice = now_ns.saturating_sub(self.origin_ns) / self.slice_ns;
        self.on = self.traced && !slice.is_multiple_of(5);
        self.on
    }

    /// A phase-boundary timestamp: the clock when the recorder is on,
    /// otherwise 0 without reading it.
    #[inline]
    pub fn mark(&self, clock: &Clock) -> u64 {
        if self.on {
            clock.now()
        } else {
            0
        }
    }

    /// Account `ops` operations that took `ns` to the current slice kind.
    pub fn tally(&mut self, ops: u64, ns: u64) {
        if self.on {
            self.tally.on_ops += ops;
            self.tally.on_ns += ns;
        } else {
            self.tally.off_ops += ops;
            self.tally.off_ns += ns;
        }
    }

    /// Record operation `name` over `[start, end]` with contiguous phases
    /// `(phase name, phase end)`; phases with a zero end (boundary not
    /// taken) are skipped.
    pub fn op(&mut self, name: &'static str, start: u64, end: u64, phases: &[(&'static str, u64)]) {
        if !self.on {
            return;
        }
        self.seen += 1;
        if !(self.seen - 1).is_multiple_of(self.sample_every) || self.spans.len() + 8 > MAX_SPANS {
            return;
        }
        let op_id = self.next_op;
        self.next_op += 1;
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            parent: 0,
            op_id,
        });
        let parent = self.spans.len() as u32;
        let mut at = start;
        for &(phase, phase_end) in phases {
            if phase_end == 0 {
                continue;
            }
            self.spans.push(Span {
                name: phase,
                start_ns: at,
                end_ns: phase_end,
                parent,
                op_id,
            });
            at = phase_end;
        }
    }

    /// A root span outside any operation (background GC, checkpoints).
    pub fn root(&mut self, name: &'static str, start: u64, end: u64) {
        self.op(name, start, end, &[]);
    }

    pub fn thread(&self) -> &'static str {
        self.thread
    }
}

/// Per-name totals of a thread's spans: `(name, spans, total ns, self ns)`
/// where self time is a span's duration minus what its children cover.
pub fn self_times(t: &Tracer) -> Vec<(&'static str, u64, u64, u64)> {
    let mut child_ns = vec![0u64; t.spans.len()];
    for s in &t.spans {
        if s.parent != 0 {
            child_ns[s.parent as usize - 1] += s.end_ns - s.start_ns;
        }
    }
    let mut acc: std::collections::BTreeMap<&'static str, (u64, u64, u64)> = Default::default();
    for (s, covered) in t.spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let e = acc.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur.saturating_sub(covered);
    }
    acc.into_iter().map(|(n, (c, t, s))| (n, c, t, s)).collect()
}

/// Write every span as one JSON object per line, then the ladder rungs as
/// `"kind":"rung"` lines, so a trace file alone explains an operation's
/// time down to the layer.
pub fn write_jsonl(
    path: &std::path::Path,
    tracers: &[&Tracer],
    rungs: &[(String, f64, &'static str)],
) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for t in tracers {
        // Span ids are per thread; the thread name makes them unique.
        for (i, s) in t.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"kind\":\"span\",\"thread\":\"{}\",\"id\":{},\"parent\":{},\"op_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                t.thread,
                i + 1,
                s.parent,
                s.op_id,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    for (name, value, unit) in rungs {
        writeln!(
            w,
            "{{\"kind\":\"rung\",\"name\":\"{name}\",\"value\":{value},\"unit\":\"{unit}\"}}"
        )?;
    }
    w.flush()
}
