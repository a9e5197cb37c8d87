//! Chaos soak: concurrent readers, maintenance, GC, and injected faults
//! against one nVNL table, with a ground-truth oracle.
//!
//! The harness drives the full resilience stack end to end — leased,
//! retry-wrapped readers ([`wh_vnl::RetryPolicy`]) against a maintenance
//! loop that optionally commits through a [`wh_vnl::MaintenancePacer`] and
//! feeds an [`wh_vnl::AdaptiveN`] controller, while a GC collector sweeps
//! and failpoints (when the `failpoints` feature is compiled in) knock over
//! updates and commits.
//!
//! **The oracle.** Every maintenance transaction `g` sets *every* value to
//! the stamp `g`, so any single-version read must return `keys` rows all
//! carrying one stamp from the committed set. Each reader additionally
//! scans twice inside one session and requires identical results —
//! serializability made directly observable. Any deviation is counted as a
//! wrong answer; a soak passes only with zero.
//!
//! Every thread runs a *fixed* iteration count: no thread gates on a
//! sibling's progress, so the soak terminates even on heavily
//! oversubscribed CI runners.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;
use wh_types::fault::{self, FaultAction};
use wh_types::{Column, DataType, Row, Schema, SplitMix64, Value};
use wh_vnl::{
    gc::Collector, recover, AdaptiveN, MaintenancePacer, PacerPolicy, RetryPolicy, VnlError,
    VnlTable,
};

/// Failpoint armed before a doomed UPDATE (exercises the abort path).
const UPDATE_FAULT: &str = "vnl.txn.update.save_pre";
/// Failpoint armed before a doomed commit (exercises log-free recovery).
const COMMIT_FAULT: &str = "vnl.version.publish_commit";

/// Everything one soak run needs to be reproducible.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Seed for reader jitter and retry backoff (same seed → same run).
    pub seed: u64,
    /// Rows in the `kv` table.
    pub keys: i64,
    /// Physical version slots provisioned (`n` of nVNL).
    pub n_physical: usize,
    /// Effective window at start (clamped to `[2, n_physical]`).
    pub initial_n: usize,
    /// Run the [`AdaptiveN`] controller over the maintenance loop.
    pub adaptive: bool,
    /// Commit through a [`MaintenancePacer`] with this policy (`None` =
    /// plain `commit()`).
    pub pacer: Option<PacerPolicy>,
    /// Concurrent reader threads.
    pub readers: usize,
    /// Read operations per reader thread (each = one retried double-scan).
    pub reads_per_reader: u32,
    /// How long a reader holds its session between the two scans — spanning
    /// several maintenance gaps makes expiration pressure real.
    pub reader_hold: Duration,
    /// Maintenance transactions to commit.
    pub commits: u32,
    /// Sleep between maintenance transactions (§5's gap `i`).
    pub maintenance_gap: Duration,
    /// Retry discipline for every reader operation.
    pub retry: RetryPolicy,
    /// Repair-first readers: an expired scan is patched from the retained
    /// maintenance deltas ([`wh_vnl::RepairEngine`]) and only falls back to
    /// a restart when repair declines. The oracle still applies in full to
    /// repaired results — a soak passes only with zero wrong answers.
    pub repair: bool,
    /// Spawn a GC collector sweeping at this interval.
    pub gc_interval: Option<Duration>,
    /// Arm [`COMMIT_FAULT`] before every k-th commit (fires only when the
    /// `failpoints` feature is compiled in).
    pub fault_every: Option<u32>,
    /// Arm [`UPDATE_FAULT`] before every k-th update.
    pub abort_every: Option<u32>,
}

impl Default for SoakConfig {
    /// A short, tier-1-safe soak: no faults armed, small table, ~50ms.
    fn default() -> Self {
        SoakConfig {
            seed: 0x50a4_2e76,
            keys: 16,
            n_physical: 2,
            initial_n: 2,
            adaptive: false,
            pacer: None,
            readers: 2,
            reads_per_reader: 8,
            reader_hold: Duration::from_micros(800),
            commits: 24,
            maintenance_gap: Duration::from_micros(400),
            retry: RetryPolicy::default().with_max_attempts(16),
            repair: false,
            gc_interval: None,
            fault_every: None,
            abort_every: None,
        }
    }
}

/// What a soak run observed. A correct run has `wrong_answers == 0` and
/// `unexpected_errors == 0`; everything else is degradation accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SoakReport {
    /// Maintenance transactions committed.
    pub commits: u64,
    /// Maintenance transactions aborted by an injected update fault.
    pub aborts: u64,
    /// Faults actually injected (0 unless built with `failpoints`).
    pub injected_faults: u64,
    /// Commit-time faults repaired via log-free [`recover`].
    pub recoveries: u64,
    /// Reader operations that returned a verified-correct result.
    pub reads_ok: u64,
    /// Reader operations whose result violated the oracle. Must be zero.
    pub wrong_answers: u64,
    /// Reader operations that failed with anything other than the typed
    /// expiration/exhaustion errors. Must be zero.
    pub unexpected_errors: u64,
    /// Reader operations that exhausted their retry budget (typed,
    /// surfaced as [`VnlError::RetryExhausted`]).
    pub retry_exhausted: u64,
    /// Total attempts across all reader operations (≥ one per operation).
    pub attempts: u64,
    /// Session expirations readers observed (and retried through).
    pub expirations: u64,
    /// Expired reader operations fixed up from the retained deltas instead
    /// of restarting (0 unless the repair arm is on).
    pub repaired: u64,
    /// Expired reader operations that fell back to a restart (repair off or
    /// declined).
    pub restarted: u64,
    /// Rows buffered by attempts that then expired — work the cursor-restart
    /// protocol discarded. Repair exists to shrink this.
    pub wasted_rows: u64,
    /// Commits the pacer delayed.
    pub paced_commits: u64,
    /// Leases the pacer revoked (`ExpireOldest`).
    pub leases_revoked: u64,
    /// At-risk leases that commits proceeded through anyway.
    pub expired_through: u64,
    /// Effective-window transitions the adaptive controller made.
    pub adaptive_transitions: u64,
    /// The table's effective `n` when the soak ended.
    pub final_effective_n: usize,
    /// Tuples the GC collector reclaimed (0 without `gc_interval`).
    pub gc_reclaimed: u64,
}

impl SoakReport {
    /// Expirations per reader operation — the headline degradation metric
    /// E21 compares across configurations.
    pub fn expiration_rate(&self) -> f64 {
        let ops =
            self.reads_ok + self.wrong_answers + self.unexpected_errors + self.retry_exhausted;
        if ops == 0 {
            0.0
        } else {
            self.expirations as f64 / ops as f64
        }
    }

    /// Zero incorrect results and no untyped failures.
    pub fn is_correct(&self) -> bool {
        self.wrong_answers == 0 && self.unexpected_errors == 0
    }
}

#[expect(clippy::expect_used, reason = "static schema literal")]
fn kv_schema() -> Schema {
    Schema::with_key_names(
        vec![
            Column::new("key", DataType::Int64),
            Column::updatable("value", DataType::Int64),
        ],
        &["key"],
    )
    .expect("kv schema is valid")
}

fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Run one soak. Deterministic given the config (modulo thread scheduling,
/// which the oracle is immune to by construction).
pub fn run_soak(cfg: &SoakConfig) -> Result<SoakReport, VnlError> {
    let table = Arc::new(VnlTable::create_named("kv", kv_schema(), cfg.n_physical)?);
    let rows: Vec<Row> = (0..cfg.keys)
        .map(|k| vec![Value::from(k), Value::from(0)])
        .collect();
    table.load_initial(&rows)?;
    table.set_effective_n(cfg.initial_n);

    // Ground truth: stamps that *may* be visible. A stamp enters before its
    // commit publishes (readers can never see it earlier) and leaves only
    // if the commit faulted and recovery rolled it back (readers can never
    // have seen it at all — the fault fires before `currentVN` flips).
    let committed: Arc<Mutex<BTreeSet<i64>>> = Arc::new(Mutex::new(BTreeSet::from([0])));

    let fault_fired_before = fault::fired(UPDATE_FAULT) + fault::fired(COMMIT_FAULT);
    let collector = cfg
        .gc_interval
        .map(|iv| Collector::spawn(Arc::clone(&table), iv));

    let reads_ok = AtomicU64::new(0);
    let wrong_answers = AtomicU64::new(0);
    let unexpected_errors = AtomicU64::new(0);
    let retry_exhausted = AtomicU64::new(0);
    let attempts = AtomicU64::new(0);
    let expirations = AtomicU64::new(0);
    let repaired = AtomicU64::new(0);
    let restarted = AtomicU64::new(0);
    let wasted_rows = AtomicU64::new(0);

    let mut report = SoakReport::default();

    std::thread::scope(|s| {
        // ---- maintenance: the single writer ------------------------------
        let maintenance = {
            let table = Arc::clone(&table);
            let committed = Arc::clone(&committed);
            let pacer = cfg.pacer.map(MaintenancePacer::new);
            let mut adaptive = cfg
                .adaptive
                .then(|| AdaptiveN::new(2, cfg.n_physical).with_window(4));
            let cfg = cfg.clone();
            s.spawn(move || {
                let mut r = SoakReport::default();
                for g in 1..=i64::from(cfg.commits) {
                    let armed_abort = cfg
                        .abort_every
                        .is_some_and(|k| k > 0 && g % i64::from(k) == 0);
                    if armed_abort {
                        fault::configure(UPDATE_FAULT, FaultAction::ErrorTimes(1));
                    }
                    let Ok(txn) = table.begin_maintenance() else {
                        // A prior fault left the flag stuck: repair and
                        // move on to the next transaction.
                        if recover(&table).is_ok() {
                            r.recoveries += 1;
                        }
                        continue;
                    };
                    let update = format!("UPDATE kv SET value = {g}");
                    if txn.execute_sql(&update, &wh_sql::Params::new()).is_err() {
                        let _ = txn.abort();
                        r.aborts += 1;
                        continue;
                    }
                    if armed_abort {
                        // The armed fault did not fire (feature off): the
                        // update went through and will commit below.
                        fault::configure(UPDATE_FAULT, FaultAction::Off);
                    }
                    if cfg
                        .fault_every
                        .is_some_and(|k| k > 0 && g % i64::from(k) == 0)
                    {
                        fault::configure(COMMIT_FAULT, FaultAction::ErrorTimes(1));
                    }
                    locked(&committed).insert(g);
                    let outcome = match &pacer {
                        Some(p) => p.commit(txn).map(Some),
                        None => txn.commit().map(|()| None),
                    };
                    match outcome {
                        Ok(pace) => {
                            r.commits += 1;
                            if let Some(pace) = pace {
                                if !pace.waited.is_zero() {
                                    r.paced_commits += 1;
                                }
                                r.leases_revoked += pace.revoked as u64;
                                r.expired_through += pace.expired_through as u64;
                            }
                            if let Some(ctl) = adaptive.as_mut() {
                                ctl.observe_commit(&table);
                                r.adaptive_transitions = ctl.transitions();
                            }
                        }
                        Err(_) => {
                            // The stamp never became visible; retract it
                            // and rebuild the consistent pre-txn state.
                            locked(&committed).remove(&g);
                            if recover(&table).is_ok() {
                                r.recoveries += 1;
                            }
                        }
                    }
                    std::thread::sleep(cfg.maintenance_gap);
                }
                r
            })
        };

        // ---- readers: leased, retried, oracle-checked --------------------
        for reader in 0..cfg.readers as u64 {
            let table = Arc::clone(&table);
            let committed = Arc::clone(&committed);
            let retry = cfg
                .retry
                .clone()
                .with_seed(cfg.seed ^ (reader.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
            let (reads_ok, wrong, unexpected, exhausted, att, exp, rep, rst, wst) = (
                &reads_ok,
                &wrong_answers,
                &unexpected_errors,
                &retry_exhausted,
                &attempts,
                &expirations,
                &repaired,
                &restarted,
                &wasted_rows,
            );
            let cfg = cfg.clone();
            s.spawn(move || {
                let mut rng = SplitMix64::seed_from_u64(cfg.seed ^ reader);
                let engine = wh_vnl::RepairEngine::new(&table);
                for _ in 0..cfg.reads_per_reader {
                    // Two scans in one session, held apart long enough to
                    // span maintenance commits. The repaired fallback yields
                    // one row set (`second: None`): the serializability pair
                    // never existed, but the uniform-stamp oracle applies in
                    // full.
                    let wasted = std::cell::Cell::new(0u64);
                    let double_scan = |session: &wh_vnl::ReaderSession<'_>| {
                        let mut first = Vec::with_capacity(cfg.keys as usize);
                        if let Err(e) = session.scan_with(|row| {
                            first.push(row);
                            Ok(())
                        }) {
                            wasted.set(wasted.get() + first.len() as u64);
                            return Err(e);
                        }
                        std::thread::sleep(cfg.reader_hold);
                        match session.scan() {
                            Ok(second) => Ok((first, Some(second))),
                            Err(e) => {
                                wasted.set(wasted.get() + first.len() as u64);
                                Err(e)
                            }
                        }
                    };
                    let (res, mut stats) = if cfg.repair {
                        retry.run_repaired(&table, double_scan, |svn| {
                            engine
                                .scan_at_current(svn)
                                .ok()
                                .flatten()
                                .map(|r| (r.rows, None))
                        })
                    } else {
                        retry.run_with_stats(&table, double_scan)
                    };
                    stats.wasted_rows += wasted.get();
                    att.fetch_add(u64::from(stats.attempts), Ordering::Relaxed); // ordering: stat-counter Relaxed — independent event counter; read only for reporting
                    exp.fetch_add(u64::from(stats.expirations), Ordering::Relaxed); // ordering: stat-counter Relaxed — independent event counter; read only for reporting
                    rep.fetch_add(u64::from(stats.repaired), Ordering::Relaxed); // ordering: stat-counter Relaxed — independent event counter; read only for reporting
                    rst.fetch_add(u64::from(stats.restarted), Ordering::Relaxed); // ordering: stat-counter Relaxed — independent event counter; read only for reporting
                    wst.fetch_add(stats.wasted_rows, Ordering::Relaxed); // ordering: stat-counter Relaxed — independent event counter; read only for reporting
                    match res {
                        Ok((first, second)) => {
                            let uniform = first.len() == cfg.keys as usize
                                && first.windows(2).all(|w| w[0][1] == w[1][1]);
                            let stamp_ok = first.first().is_some_and(|row| {
                                row[1]
                                    .as_int()
                                    .is_some_and(|v| locked(&committed).contains(&v))
                            });
                            let serial_ok = match &second {
                                Some(s) => *s == first,
                                None => true,
                            };
                            if uniform && stamp_ok && serial_ok {
                                reads_ok.fetch_add(1, Ordering::Relaxed); // ordering: stat-counter Relaxed — independent event counter; read only for reporting
                            } else {
                                wrong.fetch_add(1, Ordering::Relaxed); // ordering: stat-counter Relaxed — independent event counter; read only for reporting
                                                                       // A wrong answer is the worst anomaly this
                                                                       // harness can see — dump the ring while the
                                                                       // guilty interleaving is still in it.
                                wh_obs::recorder::trigger(
                                    "oracle_violation",
                                    &format!(
                                        "soak reader {reader} saw a non-uniform or torn \
                                         snapshot (uniform={uniform}, stamp_ok={stamp_ok})"
                                    ),
                                );
                            }
                        }
                        Err(VnlError::RetryExhausted { .. }) => {
                            exhausted.fetch_add(1, Ordering::Relaxed); // ordering: stat-counter Relaxed — independent event counter; read only for reporting
                        }
                        Err(_) => {
                            unexpected.fetch_add(1, Ordering::Relaxed); // ordering: stat-counter Relaxed — independent event counter; read only for reporting
                        }
                    }
                    if rng.chance(1, 3) {
                        std::thread::sleep(cfg.maintenance_gap / 2);
                    }
                }
            });
        }

        #[expect(clippy::expect_used, reason = "re-raises a maintenance-thread panic")]
        let joined = maintenance.join().expect("maintenance thread");
        report = joined;
    });

    fault::configure(UPDATE_FAULT, FaultAction::Off);
    fault::configure(COMMIT_FAULT, FaultAction::Off);

    report.injected_faults = (fault::fired(UPDATE_FAULT) + fault::fired(COMMIT_FAULT))
        .saturating_sub(fault_fired_before);
    report.reads_ok = reads_ok.into_inner();
    report.wrong_answers = wrong_answers.into_inner();
    report.unexpected_errors = unexpected_errors.into_inner();
    report.retry_exhausted = retry_exhausted.into_inner();
    report.attempts = attempts.into_inner();
    report.expirations = expirations.into_inner();
    report.repaired = repaired.into_inner();
    report.restarted = restarted.into_inner();
    report.wasted_rows = wasted_rows.into_inner();
    report.final_effective_n = table.effective_n();
    if let Some(c) = collector {
        report.gc_reclaimed = c.stop();
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_soak_is_clean() {
        let report = run_soak(&SoakConfig::default()).unwrap();
        assert!(report.is_correct(), "oracle violated: {report:?}");
        assert_eq!(report.commits, 24);
        assert!(report.reads_ok > 0);
        assert!(report.attempts >= report.reads_ok);
    }

    #[test]
    fn adaptive_pacer_soak_is_clean_and_reduces_expirations() {
        let fixed = run_soak(&SoakConfig {
            seed: 7,
            ..SoakConfig::default()
        })
        .unwrap();
        let resilient = run_soak(&SoakConfig {
            seed: 7,
            n_physical: 4,
            adaptive: true,
            pacer: Some(PacerPolicy::BoundedDelay(Duration::from_millis(2))),
            ..SoakConfig::default()
        })
        .unwrap();
        assert!(fixed.is_correct(), "{fixed:?}");
        assert!(resilient.is_correct(), "{resilient:?}");
        // The resilient configuration must never expire *more*; under this
        // contention profile it reliably expires less or equal.
        assert!(
            resilient.expiration_rate() <= fixed.expiration_rate(),
            "adaptive+paced rate {} vs fixed {}",
            resilient.expiration_rate(),
            fixed.expiration_rate()
        );
    }

    #[test]
    fn repair_arm_soak_is_clean() {
        let report = run_soak(&SoakConfig {
            repair: true,
            ..SoakConfig::default()
        })
        .unwrap();
        assert!(report.is_correct(), "oracle violated: {report:?}");
        // Every expiration was either repaired or restarted — the
        // repair-first path never swallows one (exhaustion aside).
        if report.retry_exhausted == 0 {
            assert_eq!(
                report.repaired + report.restarted,
                report.expirations,
                "{report:?}"
            );
        }
    }

    #[test]
    fn gc_collector_runs_inside_the_soak() {
        let report = run_soak(&SoakConfig {
            gc_interval: Some(Duration::from_micros(500)),
            ..SoakConfig::default()
        })
        .unwrap();
        assert!(report.is_correct(), "{report:?}");
    }
}
