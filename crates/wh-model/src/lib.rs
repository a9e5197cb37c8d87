//! Exhaustive-interleaving model checker for the repo's lock-free kernels.
//!
//! The container this repo builds in has no network and no vendored crates,
//! so [loom] itself cannot be added as a dependency. `wh-model` implements
//! the same core idea from scratch, dependency-free: run a closure's threads
//! under a cooperative scheduler that serializes them, insert a scheduling
//! point before every synchronization operation, and drive a depth-first
//! search over every scheduling decision (bounded by a preemption budget,
//! like loom's `LOOM_MAX_PREEMPTIONS`) until the whole interleaving space is
//! explored. An assertion failure, panic, deadlock, or detected data race in
//! *any* interleaving fails the model with the schedule that triggered it.
//!
//! What it checks:
//!
//! * **All interleavings** of [`sync::Mutex`], [`sync::RwLock`],
//!   [`sync::atomic`] operations and [`thread`] spawn/join edges, under
//!   sequential consistency, up to the preemption bound.
//! * **Happens-before data races**: [`cell::UnsafeCell`] accesses are
//!   checked against a vector-clock happens-before relation in which
//!   `Relaxed` atomics do **not** synchronize — publishing a pointer with a
//!   `Relaxed` store and dereferencing after a `Relaxed` load is reported
//!   as a race even though the SC interleaving itself looks fine.
//! * **Deadlocks**: a state where no runnable thread remains fails the run.
//!
//! What it deliberately does not model: weak-memory *value* speculation
//! (loads always observe the globally latest store, as under SC). The CI
//! ThreadSanitizer and Miri jobs cover the weak-memory and UB angles; this
//! checker covers atomicity, lock-order, and publication-ordering logic
//! exhaustively. The kernels verified with it live in `wh-kernel` and are
//! the exact code production compiles, swapped onto these types by the
//! `model` feature's `sync` shim.
//!
//! ```
//! let found = wh_model::try_model(wh_model::Builder::default(), || {
//!     use std::sync::Arc;
//!     use wh_model::sync::atomic::{AtomicU64, Ordering};
//!     let a = Arc::new(AtomicU64::new(0));
//!     let b = Arc::clone(&a);
//!     let t = wh_model::thread::spawn(move || {
//!         // ordering: model exercise only — a deliberate lost-update race.
//!         let v = b.load(Ordering::SeqCst);
//!         b.store(v + 1, Ordering::SeqCst);
//!     });
//!     // ordering: model exercise only — the racing half of the lost update.
//!     let v = a.load(Ordering::SeqCst);
//!     a.store(v + 1, Ordering::SeqCst);
//!     t.join().unwrap();
//!     // Fails: an interleaving loses one increment.
//!     assert_eq!(a.load(Ordering::SeqCst), 2);
//! });
//! assert!(found.is_err());
//! ```

pub mod cell;
mod exec;
pub mod sync;
pub mod thread;

mod clock;

use exec::Execution;
use std::sync::Arc;

/// Exploration limits. `Default` reads `LOOM_MAX_PREEMPTIONS` (default 3)
/// and `WH_MODEL_MAX_ITERATIONS` (default 1,000,000) from the environment,
/// mirroring the loom workflow the CI job pins.
#[derive(Debug, Clone)]
pub struct Builder {
    /// Maximum context switches away from a still-runnable thread along one
    /// execution. 2–3 catches almost all real bugs (loom's observation) and
    /// keeps the search space polynomial.
    pub max_preemptions: usize,
    /// Hard cap on explored executions; exceeding it fails loudly rather
    /// than silently under-exploring.
    pub max_iterations: u64,
}

impl Default for Builder {
    fn default() -> Self {
        fn env_num(key: &str, default: u64) -> u64 {
            std::env::var(key)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        }
        Builder {
            max_preemptions: env_num("LOOM_MAX_PREEMPTIONS", 3) as usize,
            max_iterations: env_num("WH_MODEL_MAX_ITERATIONS", 1_000_000),
        }
    }
}

/// Outcome of a successful exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Report {
    /// Executions explored before the space was exhausted.
    pub iterations: u64,
    /// Longest schedule (scheduling decisions) seen.
    pub max_depth: usize,
}

/// A failing interleaving.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Panic message, deadlock report, or race description.
    pub message: String,
    /// The schedule that triggered it: thread ids in the order they were
    /// granted execution at each scheduling point.
    pub schedule: Vec<usize>,
    /// Which execution (0-based) failed.
    pub iteration: u64,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "model failed at iteration {}: {}\nschedule: {:?}",
            self.iteration, self.message, self.schedule
        )
    }
}

/// Exhaustively explore `f` under the default [`Builder`], panicking with
/// the failing schedule if any interleaving fails.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    model_with(Builder::default(), f);
}

/// [`model`] with explicit limits.
pub fn model_with<F>(builder: Builder, f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    #[expect(clippy::panic, reason = "the checker reports failure by panicking")]
    if let Err(failure) = try_model(builder, f) {
        panic!("{failure}");
    }
}

/// Explore `f`, returning the failing interleaving instead of panicking —
/// the form the "checker catches the historical bug" regression tests use.
///
/// # Errors
///
/// Returns the [`Failure`] (message plus schedule) of the first
/// interleaving that panics, deadlocks, or trips the race detector.
pub fn try_model<F>(builder: Builder, f: F) -> Result<Report, Failure>
where
    F: Fn() + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let mut prefix: Vec<usize> = Vec::new();
    let mut iterations: u64 = 0;
    let mut max_depth = 0;
    loop {
        assert!(
            iterations < builder.max_iterations,
            "wh-model: exceeded {} executions without exhausting the \
             interleaving space; shrink the model or raise \
             WH_MODEL_MAX_ITERATIONS",
            builder.max_iterations
        );
        let exec = Execution::new(prefix.clone());
        Execution::run(&exec, Arc::clone(&f));
        iterations += 1;
        let (trace, failure) = exec.into_outcome();
        max_depth = max_depth.max(trace.len());
        if let Some(message) = failure {
            return Err(Failure {
                message,
                schedule: trace.iter().map(exec::Choice::chosen).collect(),
                iteration: iterations - 1,
            });
        }
        match exec::next_prefix(&trace, builder.max_preemptions) {
            Some(p) => prefix = p,
            None => {
                return Ok(Report {
                    iterations,
                    max_depth,
                })
            }
        }
    }
}

/// Whether the calling thread is currently executing inside a model run.
/// The sync/cell/thread types fall back to plain `std` behavior when this
/// is false, so code compiled against the shim still works outside
/// exploration (e.g. under accidental feature unification).
pub fn in_model() -> bool {
    exec::current().is_some()
}
