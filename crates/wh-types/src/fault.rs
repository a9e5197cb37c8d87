//! Failpoint registry for deterministic fault injection.
//!
//! The paper's strongest robustness claim (§7) is that 2VNL maintenance
//! needs **no log** to survive a crash: tuple `tupleVN`/`operation` fields
//! alone carry enough state to reconstruct a consistent pre-transaction
//! database. Exercising that claim requires crashing *between* latched
//! steps of the write path — which is what this module enables.
//!
//! A **failpoint** is a named site in the code, marked with the
//! [`fail_point!`] macro. By default every failpoint is `Off` and the macro
//! compiles to **nothing** unless the expanding crate enables its
//! `failpoints` cargo feature — tier-1 builds carry zero overhead, not even
//! a branch. With the feature on, a test configures a [`FaultAction`] for a
//! point by name and the next evaluation injects an error, a delay, or a
//! panic at exactly that site.
//!
//! The registry is process-global (failpoints are a test-only facility and
//! tests that use them serialize on their own mutex); hit counters let a
//! crash-matrix driver prove that every registered point actually fired.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// The central catalog of every failpoint name in the workspace.
///
/// Three places must agree, and two enforcers prove they do:
///
/// * each defining crate's `FAILPOINTS` const (what the crash matrix
///   sweeps) — the `failpoints_meta` meta-test asserts their union is
///   exactly this list;
/// * every `fail_point!` call site — `cargo run -p wh-analyze` scans the
///   source tree and rejects any site whose name is missing here (or any
///   entry here with no call site).
///
/// Keep the list sorted; the meta-test checks that too, so merge conflicts
/// stay textual.
pub const REGISTRY: &[&str] = &[
    "cc.lock.grant",
    "cc.lock.release",
    "storage.ckpt.begin",
    "storage.ckpt.meta",
    "storage.disk.read",
    "storage.disk.write",
    "storage.heap.delete",
    "storage.heap.free_space",
    "storage.heap.insert",
    "storage.heap.latch",
    "storage.heap.modify",
    "storage.heap.read",
    "storage.heap.write",
    "storage.pool.evict",
    "storage.pool.flush",
    "vnl.delta.capture",
    "vnl.delta.evict",
    "vnl.gc.reclaim",
    "vnl.gc.unregister",
    "vnl.repair.apply",
    "vnl.txn.batch.page",
    "vnl.txn.delete.mark",
    "vnl.txn.delete.mark_own_update",
    "vnl.txn.delete.remove_own",
    "vnl.txn.insert.fresh",
    "vnl.txn.insert.register",
    "vnl.txn.insert.resurrect",
    "vnl.txn.rollback.step",
    "vnl.txn.update.in_place",
    "vnl.txn.update.save_pre",
    "vnl.version.begin",
    "vnl.version.publish_abort",
    "vnl.version.publish_commit",
];

/// What an armed failpoint does when evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultAction {
    /// Disarmed: evaluation is a no-op (the default for every point).
    #[default]
    Off,
    /// Return a [`FaultError`] on every evaluation until disarmed.
    Error,
    /// Return a [`FaultError`] for the next `n` evaluations, then pass.
    ErrorTimes(u64),
    /// Sleep for the duration, then pass (latch-hold / slow-I/O simulation).
    Delay(Duration),
    /// Panic (poisons any latch held across the point; exercises
    /// poison-recovery on the read paths).
    Panic,
}

/// The typed error an armed failpoint injects. Callers convert it into
/// their own error type via a `From` impl so injected faults propagate like
/// any genuine failure instead of aborting the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultError {
    /// Name of the failpoint that fired.
    pub point: &'static str,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at failpoint '{}'", self.point)
    }
}

impl std::error::Error for FaultError {}

#[derive(Debug, Default)]
struct PointState {
    action: FaultAction,
    /// Times the point was evaluated (reached in code).
    hits: u64,
    /// Times the point actually injected a fault.
    fired: u64,
}

fn registry() -> &'static Mutex<HashMap<&'static str, PointState>> {
    static REGISTRY: OnceLock<Mutex<HashMap<&'static str, PointState>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock() -> std::sync::MutexGuard<'static, HashMap<&'static str, PointState>> {
    // A panic-action failpoint poisons this mutex by design; the map is
    // never left mid-mutation, so recovering the guard is sound.
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arm (or disarm, with [`FaultAction::Off`]) the named failpoint.
pub fn configure(point: &'static str, action: FaultAction) {
    lock().entry(point).or_default().action = action;
}

/// Disarm every failpoint and zero all counters.
pub fn clear_all() {
    lock().clear();
}

/// Disarm every failpoint but keep hit/fired counters (so a crash-matrix
/// run can disarm before recovery yet still report coverage).
pub fn disarm_all() {
    for state in lock().values_mut() {
        state.action = FaultAction::Off;
    }
}

/// How many times the named point has been evaluated.
pub fn hits(point: &str) -> u64 {
    lock().get(point).map_or(0, |s| s.hits)
}

/// How many times the named point has injected a fault.
pub fn fired(point: &str) -> u64 {
    lock().get(point).map_or(0, |s| s.fired)
}

/// Per-point counters at one moment in time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointStats {
    /// Failpoint name.
    pub point: &'static str,
    /// Evaluations.
    pub hits: u64,
    /// Injections.
    pub fired: u64,
    /// Whether the point is currently armed.
    pub armed: bool,
}

/// Snapshot of every point the registry has seen (configured or evaluated),
/// sorted by name.
pub fn snapshot() -> Vec<PointStats> {
    let mut out: Vec<PointStats> = lock()
        .iter()
        .map(|(&point, s)| PointStats {
            point,
            hits: s.hits,
            fired: s.fired,
            armed: s.action != FaultAction::Off,
        })
        .collect();
    out.sort_by_key(|s| s.point);
    out
}

/// Evaluate the named failpoint: count the hit and perform the configured
/// action. Called via [`fail_point!`], never directly from production code.
pub fn fire(point: &'static str) -> Result<(), FaultError> {
    let mut map = lock();
    let state = map.entry(point).or_default();
    state.hits += 1;
    match state.action {
        FaultAction::Off | FaultAction::ErrorTimes(0) => Ok(()),
        FaultAction::Error => {
            state.fired += 1;
            Err(FaultError { point })
        }
        FaultAction::ErrorTimes(n) => {
            state.action = FaultAction::ErrorTimes(n - 1);
            state.fired += 1;
            Err(FaultError { point })
        }
        FaultAction::Delay(d) => {
            state.fired += 1;
            drop(map);
            std::thread::sleep(d);
            Ok(())
        }
        #[expect(clippy::panic, reason = "the configured Panic fault action")]
        FaultAction::Panic => {
            state.fired += 1;
            drop(map);
            panic!("failpoint '{point}' fired with Panic action");
        }
    }
}

/// Mark a failpoint.
///
/// Compiles to nothing unless the **expanding** crate enables its
/// `failpoints` cargo feature (each crate forwards it to
/// `wh-types/failpoints`), so disabled builds pay zero cost — the claim the
/// tier-1 CI job proves by building without the feature.
///
/// Two forms:
///
/// * `fail_point!("name")` — inside a function returning `Result<_, E>`
///   where `E: From<FaultError>`: an injected fault propagates via `?`.
/// * `fail_point!("name", expr)` — inside any function: an injected fault
///   makes the function `return expr` (for non-`Result` paths such as lock
///   acquisition outcomes).
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {{
        #[cfg(feature = "failpoints")]
        $crate::fault::fire($name)?;
    }};
    ($name:expr, $on_fault:expr) => {{
        #[cfg(feature = "failpoints")]
        if $crate::fault::fire($name).is_err() {
            // `$on_fault` may be `()` for early-return-from-unit paths.
            #[allow(clippy::unused_unit)]
            return $on_fault;
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; tests in this module serialize.
    fn serialized() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn off_points_pass_and_count() {
        let _g = serialized();
        clear_all();
        assert!(fire("t.off").is_ok());
        assert!(fire("t.off").is_ok());
        assert_eq!(hits("t.off"), 2);
        assert_eq!(fired("t.off"), 0);
    }

    #[test]
    fn error_action_injects_until_disarmed() {
        let _g = serialized();
        clear_all();
        configure("t.err", FaultAction::Error);
        assert_eq!(fire("t.err"), Err(FaultError { point: "t.err" }));
        assert_eq!(fire("t.err"), Err(FaultError { point: "t.err" }));
        configure("t.err", FaultAction::Off);
        assert!(fire("t.err").is_ok());
        assert_eq!(hits("t.err"), 3);
        assert_eq!(fired("t.err"), 2);
    }

    #[test]
    fn error_times_counts_down() {
        let _g = serialized();
        clear_all();
        configure("t.twice", FaultAction::ErrorTimes(2));
        assert!(fire("t.twice").is_err());
        assert!(fire("t.twice").is_err());
        assert!(fire("t.twice").is_ok());
        assert_eq!(fired("t.twice"), 2);
    }

    #[test]
    fn disarm_all_keeps_counters() {
        let _g = serialized();
        clear_all();
        configure("t.keep", FaultAction::Error);
        let _ = fire("t.keep");
        disarm_all();
        assert!(fire("t.keep").is_ok());
        assert_eq!(hits("t.keep"), 2);
        assert_eq!(fired("t.keep"), 1);
        let snap = snapshot();
        let s = snap.iter().find(|s| s.point == "t.keep").unwrap();
        assert!(!s.armed);
    }

    #[test]
    fn delay_action_sleeps_then_passes() {
        let _g = serialized();
        clear_all();
        configure("t.delay", FaultAction::Delay(Duration::from_millis(15)));
        let start = std::time::Instant::now();
        assert!(fire("t.delay").is_ok());
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn panic_action_panics_and_registry_survives() {
        let _g = serialized();
        clear_all();
        configure("t.panic", FaultAction::Panic);
        let r = std::panic::catch_unwind(|| fire("t.panic"));
        assert!(r.is_err());
        // The poisoned registry still works.
        configure("t.panic", FaultAction::Off);
        assert!(fire("t.panic").is_ok());
        assert_eq!(fired("t.panic"), 1);
    }
}
