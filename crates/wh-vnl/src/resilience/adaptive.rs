//! Adaptive nVNL: tune the effective version window on line.
//!
//! §5 tunes `n` statically — [`crate::choose_n`] picks the smallest window
//! covering the expected session length given the maintenance cadence.
//! [`AdaptiveN`] is the on-line counterpart: the table provisions physical
//! slots for some `n_max` up front (slot count is baked into the extended
//! schema and cannot change under live readers), and the controller moves
//! an *effective* window `n_eff ∈ [2, n_max]` from the observed expiration
//! rate.
//!
//! Only the §4.1 global (pessimistic) check and the pacer's at-risk
//! computation read `n_eff` ([`crate::VnlTable::effective_n`]); Table 1
//! extraction, `push_back`, and rollback always use the physical slot
//! count. Growing the window therefore *admits* older sessions the slots
//! already support, and shrinking it merely expires sessions earlier than
//! the slots strictly require — bounding reader staleness — so neither
//! direction can produce a wrong answer.
//!
//! The controller is deliberately simple: count expirations per committed
//! maintenance transaction over a decision window; grow on a high rate,
//! shrink after a quiet window. Hysteresis comes from the window length.

use crate::table::VnlTable;

/// Window-based controller for a table's effective `n`.
#[derive(Debug, Clone)]
pub struct AdaptiveN {
    /// Smallest window the controller will shrink to (≥ 2).
    min_n: usize,
    /// Largest window the controller will grow to (≤ physical `n`).
    max_n: usize,
    /// Commits per decision.
    window: u32,
    /// Expirations-per-commit rate at or above which the window grows.
    grow_at: f64,
    /// Rate at or below which the window shrinks.
    shrink_at: f64,
    commits_in_window: u32,
    expirations_at_window_start: u64,
    transitions: u64,
}

impl AdaptiveN {
    /// Controller spanning `[2, physical n]` for `table`, deciding every 4
    /// commits: grow at ≥ 0.5 expirations/commit, shrink at 0.
    pub fn for_table(table: &VnlTable) -> Self {
        Self::new(2, table.layout().n()).primed(table)
    }

    /// Controller with explicit bounds (clamped to `min ≥ 2`, `max ≥ min`).
    pub fn new(min_n: usize, max_n: usize) -> Self {
        let min_n = min_n.max(2);
        AdaptiveN {
            min_n,
            max_n: max_n.max(min_n),
            window: 4,
            grow_at: 0.5,
            shrink_at: 0.0,
            commits_in_window: 0,
            expirations_at_window_start: 0,
            transitions: 0,
        }
    }

    /// Override the decision window (min 1 commit).
    pub fn with_window(mut self, commits: u32) -> Self {
        self.window = commits.max(1);
        self
    }

    /// Align the expiration baseline with the table's current counter so
    /// pre-controller expirations don't count against the first window.
    fn primed(mut self, table: &VnlTable) -> Self {
        self.expirations_at_window_start = table.expired_session_count();
        self
    }

    /// Window transitions decided so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Record one committed maintenance transaction and, at each window
    /// boundary, re-decide the table's effective `n`. Returns the new
    /// window when this commit changed it.
    pub fn observe_commit(&mut self, table: &VnlTable) -> Option<usize> {
        self.commits_in_window += 1;
        if self.commits_in_window < self.window {
            return None;
        }
        let expired = table.expired_session_count();
        let rate = expired.saturating_sub(self.expirations_at_window_start) as f64
            / f64::from(self.commits_in_window);
        self.commits_in_window = 0;
        self.expirations_at_window_start = expired;

        // The decision rule itself is a verified kernel (pure, but kept
        // next to the EffectiveWindow cell it drives).
        let target = wh_kernel::adaptive::decide(
            rate,
            table.effective_n(),
            self.min_n,
            self.max_n,
            self.grow_at,
            self.shrink_at,
        );
        if target == table.effective_n() {
            return None;
        }
        table.set_effective_n(target);
        self.transitions += 1;
        wh_obs::counter!("vnl.resilience.adaptive.transitions").inc();
        Some(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wh_types::{Column, DataType, Schema, Value};

    fn kv_table(n: usize) -> VnlTable {
        let schema = Schema::with_key_names(
            vec![
                Column::new("key", DataType::Int64),
                Column::updatable("value", DataType::Int64),
            ],
            &["key"],
        )
        .unwrap();
        let t = VnlTable::create_named("kv", schema, n).unwrap();
        t.load_initial(&[vec![Value::from(1), Value::from(0)]])
            .unwrap();
        t
    }

    fn commit_once(t: &VnlTable) {
        let txn = t.begin_maintenance().unwrap();
        txn.update_row(&vec![Value::from(1), Value::from(7)])
            .unwrap();
        txn.commit().unwrap();
    }

    #[test]
    fn grows_under_expirations_and_shrinks_when_quiet() {
        let t = kv_table(4);
        t.set_effective_n(2);
        let mut ctl = AdaptiveN::for_table(&t).with_window(1);
        // A noisy window: expirations per commit ≥ grow threshold.
        t.note_expiration();
        commit_once(&t);
        assert_eq!(ctl.observe_commit(&t), Some(3));
        t.note_expiration();
        commit_once(&t);
        assert_eq!(ctl.observe_commit(&t), Some(4));
        // At the physical cap, a noisy window cannot grow further.
        t.note_expiration();
        commit_once(&t);
        assert_eq!(ctl.observe_commit(&t), None);
        assert_eq!(t.effective_n(), 4);
        // Quiet windows walk it back down to the floor.
        commit_once(&t);
        assert_eq!(ctl.observe_commit(&t), Some(3));
        commit_once(&t);
        assert_eq!(ctl.observe_commit(&t), Some(2));
        commit_once(&t);
        assert_eq!(ctl.observe_commit(&t), None);
        assert_eq!(t.effective_n(), 2);
        assert_eq!(ctl.transitions(), 4);
    }

    #[test]
    fn no_decision_before_window_fills() {
        let t = kv_table(4);
        t.set_effective_n(2);
        let mut ctl = AdaptiveN::for_table(&t).with_window(3);
        for _ in 0..2 {
            t.note_expiration();
            commit_once(&t);
            assert_eq!(ctl.observe_commit(&t), None);
        }
        t.note_expiration();
        commit_once(&t);
        assert_eq!(ctl.observe_commit(&t), Some(3));
    }

    #[test]
    fn widened_window_keeps_sessions_alive_within_physical_slots() {
        let t = kv_table(4);
        t.set_effective_n(2);
        let s = t.begin_session(); // VN 1
        commit_once(&t); // VN 2
        commit_once(&t); // VN 3: 2 overlaps ≥ n_eff = 2 → globally expired
        assert!(s.assert_live().is_err());
        // Growing the window readmits the session — sound, because the
        // physical slots (n = 4) still hold its versions.
        t.set_effective_n(4);
        assert!(s.assert_live().is_ok());
        assert!(s.scan().is_ok(), "per-tuple extraction agrees");
        s.finish();
    }
}
