//! Small numeric helpers: the run clock, the reference probe that tells a
//! shared core from a free one, a log-bucketed latency histogram, medians,
//! and the process's own CPU time and peak memory.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nanoseconds since the run's start. One clock for both working threads,
/// so spans from either side line up in the trace file.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Sleep until `at_ns` on this clock (returns at once when it is past).
    /// For the main thread, which does no measured work.
    pub fn sleep_until(&self, at_ns: u64) {
        let now = self.now();
        if at_ns > now {
            std::thread::sleep(Duration::from_nanos(at_ns - now));
        }
    }

    /// How a working thread waits for its next due time: busy, returning
    /// the nanoseconds it waited. This sandbox's host slows a virtual CPU
    /// that has been idle: after a 5 ms or a 90 ms sleep the reference loop
    /// runs 1.3–2 times slower for over a millisecond, by an amount that
    /// changes from minute to minute, so a driver that slept between
    /// batches would time the host's wake-up, not its transaction. Each
    /// working thread has a core of its own, so the wait takes nothing from
    /// the other; `client.cpu_busy_share` leaves it out.
    pub fn wait_until(&self, at_ns: u64) -> u64 {
        let from = self.now();
        while self.now() < at_ns {
            std::hint::spin_loop();
        }
        self.now() - from
    }
}

/// Iterations of the reference loop: about 45 µs at this sandbox's speed.
const REFERENCE_ITERS: u64 = 30_000;
/// A probe this much over full speed ran on a shared core. The loop's own
/// speed moves by a few percent with the clock the host grants; a neighbour
/// costs it 30 % or more.
const SHARED_OVER: f64 = 1.2;

/// Six independent integer chains in registers: bound by how many
/// instructions the core issues per cycle, so it touches no cache the
/// program uses and slows exactly when something else shares the core.
#[inline(never)]
fn reference_work(n: u64) -> u64 {
    let (mut a, mut b, mut c, mut d, mut e, mut f) =
        (black_box(1u64), 2u64, 3u64, 4u64, 5u64, 6u64);
    for i in 0..n {
        a = a.wrapping_add(i ^ b);
        b = b.wrapping_add(i ^ c).rotate_left(3);
        c = c.wrapping_add(i | d);
        d = d.wrapping_add(i ^ e).rotate_left(5);
        e = e.wrapping_add(i & f);
        f = f.wrapping_add(i ^ a).rotate_left(7);
    }
    a ^ b ^ c ^ d ^ e ^ f
}

/// The environment check: a fixed loop timed between operations.
///
/// This sandbox's cores run at two speeds a factor 1.3–2 apart, for
/// seconds to minutes at a time: a neighbour on the same physical core (a
/// latency-bound loop keeps its speed; this issue-bound one, a loop over
/// 16 KB and a walk over 8 MB slow together). Whole-window timings of
/// identical runs differ by 10–40 % in such hours. The loop knows nothing of
/// the program under test, so what it says about the core does not depend
/// on how fast or slow the program is.
pub struct Reference {
    probes: LatHist,
    /// Full speed: the first decile of the probes so far.
    full_speed_ns: f64,
}

impl Reference {
    /// A reference that has learnt the loop's full speed from 25 ms of it.
    pub fn calibrated() -> Self {
        let mut r = Reference {
            probes: LatHist::default(),
            full_speed_ns: 0.0,
        };
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(25) {
            r.probe();
        }
        r
    }

    /// Time the loop once, in nanoseconds.
    pub fn probe(&mut self) -> u64 {
        let t = Instant::now();
        black_box(reference_work(black_box(REFERENCE_ITERS)));
        let ns = t.elapsed().as_nanos() as u64;
        self.probes.record(ns);
        if self.probes.count().is_multiple_of(64) || self.full_speed_ns == 0.0 {
            self.full_speed_ns = self.probes.quantile_ns(0.10);
        }
        ns
    }

    /// Whether a probe that took `ns` had its core to itself.
    pub fn ran_alone(&self, ns: u64) -> bool {
        ns as f64 <= self.full_speed_ns * SHARED_OVER
    }
}

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;

/// Latency histogram with 128 buckets per power of two (< 0.8 % relative
/// width). A run may hold millions of sub-microsecond point reads, so raw
/// samples are not kept; quantiles interpolate inside a bucket by rank,
/// which keeps them continuous from run to run.
#[derive(Clone)]
pub struct LatHist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for LatHist {
    fn default() -> Self {
        LatHist {
            counts: vec![0; (64 - SUB_BITS as usize + 1) * SUB],
            n: 0,
        }
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let top = 63 - ns.leading_zeros(); // >= SUB_BITS
    let shift = top - SUB_BITS;
    let sub = ((ns >> shift) as usize) & (SUB - 1);
    ((shift as usize + 1) << SUB_BITS) + sub
}

/// Lower bound and width of bucket `b`.
fn bucket_range(b: usize) -> (u64, u64) {
    if b < SUB {
        return (b as u64, 1);
    }
    let shift = (b >> SUB_BITS) as u32 - 1;
    let sub = (b & (SUB - 1)) as u64;
    (((SUB as u64) + sub) << shift, 1u64 << shift)
}

impl LatHist {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Quantile `q` in nanoseconds (0 when empty).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.n - 1) as f64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank < (seen + c) as f64 {
                let (lo, width) = bucket_range(b);
                let frac = (rank - seen as f64 + 0.5) / c as f64;
                return lo as f64 + frac * width as f64;
            }
            seen += c;
        }
        unreachable!("rank below the sample count always lands in a bucket")
    }

    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e6
    }
}

/// Quantile `q` of `values` by linear interpolation between order
/// statistics (0 when empty).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Run `f` `reps` times and return the median duration in nanoseconds.
pub fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&mut times)
}

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process in MiB (`VmHWM`; 0 off Linux).
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// User + system CPU seconds this process has used, from
/// `/proc/self/stat` fields 14 and 15 in clock ticks (100 per second on
/// Linux; 0 elsewhere).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_line() {
        for ns in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1000,
            123_456_789,
            u64::MAX / 2,
        ] {
            let (lo, w) = bucket_range(bucket_of(ns));
            assert!(lo <= ns && ns < lo + w, "{ns} not in [{lo}, {lo}+{w})");
            assert!(w as f64 <= (lo.max(1) as f64) / 100.0 || w == 1);
        }
    }

    #[test]
    fn quantiles_track_a_uniform_ramp() {
        let mut h = LatHist::default();
        for i in 1..=10_000u64 {
            h.record(i * 1000);
        }
        let p50 = h.quantile_ns(0.5);
        let p99 = h.quantile_ns(0.99);
        assert!((p50 / 5_000_000.0 - 1.0).abs() < 0.01, "p50 {p50}");
        assert!((p99 / 9_900_000.0 - 1.0).abs() < 0.01, "p99 {p99}");
    }
}
