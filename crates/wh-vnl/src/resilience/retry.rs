//! Expiration-aware retry: re-execute an expired read at a fresh VN.
//!
//! §4.1 prescribes what a reader does when its session expires — "begin a
//! new session" — but leaves the *how* to the application, and every caller
//! in the repo used to hand-roll its own renew loop. [`RetryPolicy`]
//! centralizes the discipline: bounded attempts, jittered exponential
//! backoff (so a herd of expired readers does not re-expire in lockstep
//! with the maintenance cadence), and an optional wall-clock deadline.
//!
//! **Cursor-restart protocol.** An expiration can surface mid-scan, after
//! some rows were already produced at the old version. Re-executing at a
//! fresh VN and *continuing* to emit would interleave rows from two
//! versions — a silent wrong answer. Every retried operation therefore
//! buffers its output per attempt and discards the buffer with the failed
//! attempt; only a fully consistent result ever reaches the caller (see
//! [`RetryPolicy::scan_repaired`]).

use crate::error::{VnlError, VnlResult};
use crate::reader::ReaderSession;
use crate::resilience::repair::RepairEngine;
use crate::table::VnlTable;
use crate::version::VersionNo;
use std::cell::Cell;
use std::time::{Duration, Instant};
use wh_sql::{parse_statement, Params, QueryResult, SqlError, Statement};
use wh_types::{Row, SplitMix64, Value};

/// Bounded, backed-off re-execution of expired reads.
///
/// A policy is a plain value — cheap to clone, safe to share per thread.
/// The same seed replays the same jitter sequence, keeping seeded
/// experiments reproducible.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    max_attempts: u32,
    base_backoff: Duration,
    max_backoff: Duration,
    deadline: Option<Duration>,
    lease_hint: Option<Duration>,
    seed: u64,
}

/// What one [`RetryPolicy::run_with_stats`] call did, for harnesses that
/// assert retry counts stay within policy bounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Attempts made (≥ 1; the first execution counts).
    pub attempts: u32,
    /// Expirations observed (= retries + 1 on exhaustion, = attempts − 1 on
    /// eventual success).
    pub expirations: u32,
    /// Expirations recovered by session repair (delta replay) instead of a
    /// restart; every repaired expiration ends the call successfully.
    pub repaired: u32,
    /// Expirations that fell back to restart-and-rescan (repair declined,
    /// or the operation ran without a repair path).
    pub restarted: u32,
    /// Rows produced by expired attempts and thrown away by the
    /// cursor-restart protocol — the work repair exists to avoid. Only the
    /// buffering helpers ([`RetryPolicy::scan_repaired`]) can count this;
    /// plain [`RetryPolicy::run_with_stats`] leaves it 0.
    pub wasted_rows: u64,
}

impl Default for RetryPolicy {
    /// Four attempts, 50µs–5ms backoff, no deadline, no lease.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_millis(5),
            deadline: None,
            lease_hint: None,
            seed: 0x2e76_4e4c_0004_0001, // arbitrary fixed default
        }
    }
}

impl RetryPolicy {
    /// Cap on attempts, including the first execution (min 1).
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Backoff range: attempt `k` sleeps ~`base · 2^(k−1)` capped at `max`,
    /// jittered to 50–100% of that.
    pub fn with_backoff(mut self, base: Duration, max: Duration) -> Self {
        self.base_backoff = base;
        self.max_backoff = max.max(base);
        self
    }

    /// Total wall-clock budget: once elapsed, no further attempt starts.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Run every attempt under a leased session declaring `hint` of
    /// expected work ([`VnlTable::begin_leased_session`]), making the
    /// retried reader visible to the [`super::MaintenancePacer`].
    pub fn with_lease_hint(mut self, hint: Duration) -> Self {
        self.lease_hint = Some(hint);
        self
    }

    /// Seed for the backoff jitter.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Configured attempt cap.
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// Execute `op` against a fresh session, retrying on expiration within
    /// the policy's bounds.
    ///
    /// Each attempt gets its own session at the then-current VN; `op` must
    /// produce its full result from that one session (buffer, don't leak —
    /// the cursor-restart protocol). Only
    /// [`VnlError::SessionExpired`] retries; any other error is returned
    /// as-is. Exhaustion returns the typed terminal
    /// [`VnlError::RetryExhausted`].
    pub fn run<T>(
        &self,
        table: &VnlTable,
        op: impl FnMut(&ReaderSession<'_>) -> VnlResult<T>,
    ) -> VnlResult<T> {
        self.run_with_stats(table, op).0
    }

    /// [`RetryPolicy::run`] plus a [`RetryStats`] record of what it took.
    /// Every expiration restarts (no repair path); see
    /// [`RetryPolicy::run_repaired`] for the repair-first loop.
    pub fn run_with_stats<T>(
        &self,
        table: &VnlTable,
        op: impl FnMut(&ReaderSession<'_>) -> VnlResult<T>,
    ) -> (VnlResult<T>, RetryStats) {
        self.run_repaired(table, op, |_| None)
    }

    /// The repair-first retry loop. On expiration, `repair(session_vn)` is
    /// consulted **before** any restart: `Some(result)` means the session's
    /// work was fixed up from the maintenance deltas and the call returns
    /// immediately (no extra attempt, no backoff); `None` means repair
    /// declined — evicted window, unrepairable batch, unsupported shape —
    /// and the loop falls back to the paper's restart-and-rescan within the
    /// policy's usual bounds.
    ///
    /// The repair closure must produce a result consistent at the VN it
    /// re-leases (see [`RepairEngine`]); the typed helpers wire this up
    /// correctly.
    pub fn run_repaired<T>(
        &self,
        table: &VnlTable,
        mut op: impl FnMut(&ReaderSession<'_>) -> VnlResult<T>,
        mut repair: impl FnMut(VersionNo) -> Option<T>,
    ) -> (VnlResult<T>, RetryStats) {
        let start = Instant::now();
        let mut rng = SplitMix64::seed_from_u64(self.seed);
        let mut stats = RetryStats::default();
        loop {
            let session = match self.lease_hint {
                Some(hint) => table.begin_leased_session(hint),
                None => table.begin_session(),
            };
            stats.attempts += 1;
            match op(&session) {
                Ok(v) => {
                    session.finish();
                    wh_obs::histogram!("vnl.resilience.retry.attempts")
                        .record(u64::from(stats.attempts));
                    return (Ok(v), stats);
                }
                Err(VnlError::SessionExpired {
                    session_vn,
                    current_vn,
                    ..
                }) => {
                    session.finish();
                    stats.expirations += 1;
                    if let Some(v) = repair(session_vn) {
                        stats.repaired += 1;
                        wh_obs::counter!("vnl.resilience.repair.repaired").inc();
                        wh_obs::slo::note_repair();
                        wh_obs::histogram!("vnl.resilience.retry.attempts")
                            .record(u64::from(stats.attempts));
                        return (Ok(v), stats);
                    }
                    let out_of_attempts = stats.attempts >= self.max_attempts;
                    let out_of_time = self.deadline.is_some_and(|d| start.elapsed() >= d);
                    if out_of_attempts || out_of_time {
                        wh_obs::counter!("vnl.resilience.retry.exhausted").inc();
                        return (
                            Err(VnlError::RetryExhausted {
                                attempts: stats.attempts,
                                session_vn,
                                current_vn,
                            }),
                            stats,
                        );
                    }
                    stats.restarted += 1;
                    wh_obs::counter!("vnl.resilience.repair.restarted").inc();
                    wh_obs::counter!("vnl.resilience.retries").inc();
                    self.back_off(stats.attempts, start, &mut rng);
                }
                Err(other) => {
                    session.finish();
                    return (Err(other), stats);
                }
            }
        }
    }

    /// Sleep before attempt `attempts + 1`: exponential from the base,
    /// capped, jittered to 50–100%, and clipped to the remaining deadline.
    fn back_off(&self, attempts: u32, start: Instant, rng: &mut SplitMix64) {
        let exp = attempts.saturating_sub(1).min(20);
        let scaled = self
            .base_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff);
        let jittered = scaled.mul_f64(0.5 + rng.next_f64() / 2.0);
        let clipped = match self.deadline {
            Some(d) => jittered.min(d.saturating_sub(start.elapsed())),
            None => jittered,
        };
        if !clipped.is_zero() {
            wh_obs::histogram!("vnl.resilience.retry.backoff_ns").record(clipped.as_nanos() as u64);
            std::thread::sleep(clipped);
        }
    }

    /// Retried [`ReaderSession::scan`]: the whole relation at one
    /// consistent version.
    // The bare method path fails the `for<'a>` bound the closure satisfies.
    #[allow(clippy::redundant_closure_for_method_calls)]
    pub fn scan(&self, table: &VnlTable) -> VnlResult<Vec<Row>> {
        self.run(table, |s| s.scan())
    }

    /// Retried [`ReaderSession::query`]: parses once, re-executes the
    /// statement per attempt against a fresh session.
    pub fn query(&self, table: &VnlTable, sql: &str) -> VnlResult<QueryResult> {
        let stmt = parse_statement(sql).map_err(VnlError::Sql)?;
        let Statement::Select(select) = stmt else {
            return Err(VnlError::Sql(SqlError::Unsupported(
                "reader sessions are read-only".into(),
            )));
        };
        self.run(table, |s| s.query_stmt(&select))
    }

    /// Repair-first retried scan. An expired attempt is answered from the
    /// maintenance deltas ([`RepairEngine::scan_at_current`]) instead of
    /// backing off and re-running; only when repair declines does the
    /// restart fallback run.
    ///
    /// The repaired path returns rows in **primary-key order** (the repair
    /// map is keyed); the first-attempt/restart path returns heap scan
    /// order. Consumers needing order-independence should compare as
    /// multisets — the soak oracle does.
    pub fn scan_repaired(&self, table: &VnlTable) -> (VnlResult<Vec<Row>>, RetryStats) {
        let engine = RepairEngine::new(table);
        let wasted = Cell::new(0u64);
        let (res, mut stats) = self.run_repaired(
            table,
            |s| {
                let mut buf = Vec::new();
                match s.scan_with(|row| {
                    buf.push(row);
                    Ok(())
                }) {
                    Ok(()) => Ok(buf),
                    Err(e) => {
                        // The cursor-restart protocol discards this buffer;
                        // count what the discard cost.
                        wasted.set(wasted.get() + buf.len() as u64);
                        Err(e)
                    }
                }
            },
            |session_vn| {
                engine
                    .scan_at_current(session_vn)
                    .ok()
                    .flatten()
                    .map(|r| r.rows)
            },
        );
        stats.wasted_rows = wasted.get();
        if stats.wasted_rows > 0 {
            wh_obs::counter!("vnl.resilience.repair.wasted_rows").add(stats.wasted_rows);
        }
        (res, stats)
    }

    /// Repair-first retried SELECT: parses once; an expired attempt is
    /// answered by the executor over the repaired rows
    /// ([`RepairEngine::query_at_current`]) before any restart. Uses empty
    /// [`Params`], matching [`ReaderSession::query_stmt`].
    pub fn query_repaired(
        &self,
        table: &VnlTable,
        sql: &str,
    ) -> (VnlResult<QueryResult>, RetryStats) {
        let select = match parse_statement(sql).map_err(VnlError::Sql) {
            Ok(Statement::Select(select)) => select,
            Ok(_) => {
                return (
                    Err(VnlError::Sql(SqlError::Unsupported(
                        "reader sessions are read-only".into(),
                    ))),
                    RetryStats::default(),
                )
            }
            Err(e) => return (Err(e), RetryStats::default()),
        };
        let engine = RepairEngine::new(table);
        let params = Params::new();
        self.run_repaired(
            table,
            |s| s.query_stmt(&select),
            |session_vn| {
                engine
                    .query_at_current(session_vn, &select, &params)
                    .ok()
                    .flatten()
                    .map(|(result, _vn)| result)
            },
        )
    }

    /// Repair-first retried point lookup: a key the delta window touched is
    /// answered from the deltas alone; an untouched key re-reads at the
    /// current VN ([`RepairEngine::read_key_at_current`]).
    pub fn read_by_key_repaired(
        &self,
        table: &VnlTable,
        key_row: &[Value],
    ) -> (VnlResult<Option<Row>>, RetryStats) {
        let engine = RepairEngine::new(table);
        self.run_repaired(
            table,
            |s| s.read_by_key(key_row),
            |session_vn| {
                engine
                    .read_key_at_current(session_vn, key_row)
                    .ok()
                    .flatten()
                    .map(|(row, _vn)| row)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv_table(n: usize) -> VnlTable {
        let schema = wh_types::Schema::with_key_names(
            vec![
                wh_types::Column::new("key", wh_types::DataType::Int64),
                wh_types::Column::updatable("value", wh_types::DataType::Int64),
            ],
            &["key"],
        )
        .unwrap();
        let t = VnlTable::create_named("kv", schema, n).unwrap();
        let rows: Vec<Row> = (0..8)
            .map(|k| vec![Value::from(k), Value::from(0)])
            .collect();
        t.load_initial(&rows).unwrap();
        t
    }

    fn bump_all(t: &VnlTable, value: i64) {
        let txn = t.begin_maintenance().unwrap();
        txn.execute_sql(
            &format!("UPDATE kv SET value = {value}"),
            &wh_sql::Params::new(),
        )
        .unwrap();
        txn.commit().unwrap();
    }

    #[test]
    fn first_attempt_success_needs_no_retry() {
        let t = kv_table(2);
        let policy = RetryPolicy::default();
        #[allow(clippy::redundant_closure_for_method_calls)]
        let (res, stats) = policy.run_with_stats(&t, |s| s.scan());
        assert_eq!(res.unwrap().len(), 8);
        assert_eq!(
            stats,
            RetryStats {
                attempts: 1,
                expirations: 0,
                ..RetryStats::default()
            }
        );
    }

    #[test]
    fn retries_through_injected_expirations_then_succeeds() {
        let t = kv_table(2);
        let policy = RetryPolicy::default().with_backoff(Duration::ZERO, Duration::ZERO);
        let mut failures_left = 2;
        let (res, stats) = policy.run_with_stats(&t, |s| {
            if failures_left > 0 {
                failures_left -= 1;
                return Err(t.expired_error(s.session_vn()));
            }
            s.scan()
        });
        assert_eq!(res.unwrap().len(), 8);
        assert_eq!(stats.attempts, 3);
        assert_eq!(stats.expirations, 2);
    }

    #[test]
    fn exhaustion_returns_typed_terminal_error() {
        let t = kv_table(2);
        let policy = RetryPolicy::default()
            .with_max_attempts(2)
            .with_backoff(Duration::ZERO, Duration::ZERO);
        let (res, stats) = policy.run_with_stats(&t, |s| -> VnlResult<()> {
            Err(t.expired_error(s.session_vn()))
        });
        assert!(matches!(
            res,
            Err(VnlError::RetryExhausted { attempts: 2, .. })
        ));
        assert_eq!(stats.attempts, 2);
    }

    #[test]
    fn non_expiration_errors_pass_through_unretried() {
        let t = kv_table(2);
        let policy = RetryPolicy::default();
        let (res, stats) = policy.run_with_stats(&t, |_| -> VnlResult<()> {
            Err(VnlError::NoSuchIndex("missing".into()))
        });
        assert!(matches!(res, Err(VnlError::NoSuchIndex(_))));
        assert_eq!(stats.attempts, 1, "only SessionExpired retries");
    }

    #[test]
    fn genuinely_expired_session_recovers_at_fresh_vn() {
        let t = kv_table(2);
        // Expire a raw session to prove the workload *would* fail, then show
        // the policy reads the post-maintenance state cleanly.
        let stale = t.begin_session();
        bump_all(&t, 10);
        bump_all(&t, 20);
        assert!(matches!(stale.scan(), Err(VnlError::SessionExpired { .. })));
        stale.finish();
        let rows = RetryPolicy::default().scan(&t).unwrap();
        assert!(rows.iter().all(|r| r[1] == Value::from(20)));
    }

    #[test]
    fn deadline_stops_retrying() {
        let t = kv_table(2);
        let policy = RetryPolicy::default()
            .with_max_attempts(u32::MAX)
            .with_deadline(Duration::ZERO)
            .with_backoff(Duration::ZERO, Duration::ZERO);
        let (res, stats) = policy.run_with_stats(&t, |s| -> VnlResult<()> {
            Err(t.expired_error(s.session_vn()))
        });
        assert!(matches!(res, Err(VnlError::RetryExhausted { .. })));
        assert_eq!(stats.attempts, 1, "zero deadline stops after attempt one");
    }

    #[test]
    fn scan_with_never_delivers_partial_attempts() {
        let t = kv_table(2);
        let policy = RetryPolicy::default().with_backoff(Duration::ZERO, Duration::ZERO);
        let mut poisoned_attempt = true;
        let mut seen = Vec::new();
        policy
            .run(&t, |s| {
                let mut buf = Vec::new();
                s.scan_with(|row| {
                    buf.push(row);
                    // Mid-scan expiration on the first attempt, after rows
                    // were already produced.
                    if poisoned_attempt && buf.len() == 4 {
                        poisoned_attempt = false;
                        return Err(t.expired_error(s.session_vn()));
                    }
                    Ok(())
                })?;
                Ok(buf)
            })
            .map(|rows| seen = rows)
            .unwrap();
        assert_eq!(seen.len(), 8, "only the complete attempt is delivered");
    }

    #[test]
    fn scan_repaired_fixes_expired_session_without_restart() {
        let t = kv_table(2);
        // A stale session whose next scan is guaranteed to expire.
        let stale = t.begin_session();
        let stale_vn = stale.session_vn();
        bump_all(&t, 10);
        bump_all(&t, 20);
        assert!(matches!(stale.scan(), Err(VnlError::SessionExpired { .. })));
        stale.finish();
        // Repair-first: the expiring attempt is answered from the deltas.
        let policy = RetryPolicy::default().with_backoff(Duration::ZERO, Duration::ZERO);
        let expire_once = Cell::new(true);
        let engine = RepairEngine::new(&t);
        let (res, stats) = policy.run_repaired(
            &t,
            |s| {
                if expire_once.replace(false) {
                    // Simulate the stale session's fate deterministically.
                    return Err(t.expired_error(stale_vn));
                }
                s.scan()
            },
            |svn| engine.scan_at_current(svn).ok().flatten().map(|r| r.rows),
        );
        let rows = res.unwrap();
        assert_eq!(rows.len(), 8);
        assert!(rows.iter().all(|r| r[1] == Value::from(20)));
        assert_eq!(stats.repaired, 1);
        assert_eq!(stats.restarted, 0);
        assert_eq!(stats.attempts, 1, "repair replaces the restart attempt");
    }

    #[test]
    fn repair_decline_falls_back_to_restart() {
        let t = kv_table(2);
        bump_all(&t, 10);
        t.version().clear_deltas(); // evict the window: repair must decline
        let policy = RetryPolicy::default().with_backoff(Duration::ZERO, Duration::ZERO);
        let expire_once = Cell::new(true);
        let engine = RepairEngine::new(&t);
        let (res, stats) = policy.run_repaired(
            &t,
            |s| {
                if expire_once.replace(false) {
                    return Err(t.expired_error(0));
                }
                s.scan()
            },
            |svn| engine.scan_at_current(svn).ok().flatten().map(|r| r.rows),
        );
        assert_eq!(res.unwrap().len(), 8);
        assert_eq!(stats.repaired, 0);
        assert_eq!(stats.restarted, 1);
        assert_eq!(stats.attempts, 2, "decline costs a full restart attempt");
    }

    #[test]
    fn scan_repaired_counts_wasted_rows() {
        let t = kv_table(2);
        bump_all(&t, 5);
        let (res, stats) = RetryPolicy::default()
            .with_backoff(Duration::ZERO, Duration::ZERO)
            .scan_repaired(&t);
        // No expiration: clean first attempt, nothing wasted.
        assert_eq!(res.unwrap().len(), 8);
        assert_eq!(stats.wasted_rows, 0);
        assert_eq!(stats.repaired, 0);
    }

    #[test]
    fn query_repaired_answers_after_expiration() {
        let t = kv_table(2);
        let policy = RetryPolicy::default().with_backoff(Duration::ZERO, Duration::ZERO);
        let (res, _) = policy.query_repaired(&t, "SELECT SUM(value) FROM kv");
        assert_eq!(res.unwrap().rows[0][0], Value::from(0));
        bump_all(&t, 3);
        let (res, _) = policy.query_repaired(&t, "SELECT SUM(value) FROM kv");
        assert_eq!(res.unwrap().rows[0][0], Value::from(24));
        // Writes rejected up front.
        let (res, stats) = policy.query_repaired(&t, "CREATE TABLE x (a INT)");
        assert!(res.is_err());
        assert_eq!(stats.attempts, 0);
    }

    #[test]
    fn read_by_key_repaired_round_trips() {
        let t = kv_table(2);
        bump_all(&t, 9);
        let (res, _) = RetryPolicy::default().read_by_key_repaired(&t, &[Value::from(3)]);
        assert_eq!(res.unwrap(), Some(vec![Value::from(3), Value::from(9)]));
        let (res, _) = RetryPolicy::default().read_by_key_repaired(&t, &[Value::from(99)]);
        assert_eq!(res.unwrap(), None);
    }

    #[test]
    fn query_helper_retries_statement() {
        let t = kv_table(2);
        let res = RetryPolicy::default()
            .query(&t, "SELECT COUNT(*) FROM kv")
            .unwrap();
        assert_eq!(res.rows[0][0], Value::from(8));
        // Writes are rejected up front, not retried.
        assert!(RetryPolicy::default()
            .query(&t, "CREATE TABLE x (a INT)")
            .is_err());
    }
}
