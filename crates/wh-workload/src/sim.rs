//! Discrete-event timeline simulation (virtual minutes).
//!
//! Substitution note (recorded in DESIGN.md): the paper's Figures 1–2 span
//! days of wall-clock time. We simulate the same schedules in virtual time,
//! which preserves every quantity of interest — availability fractions,
//! session-expiration counts, and the §5 guarantee `(n−1)(i+m) − m` — while
//! running in microseconds.

use wh_types::SplitMix64;

/// A periodic maintenance schedule: transaction `k` runs over
/// `[start + k·(m+i), start + k·(m+i) + m)`, so consecutive transactions are
/// separated by a gap of exactly `i` (the paper's `i` and `m`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeriodicSchedule {
    /// Start of the first maintenance transaction (virtual minutes).
    pub first_start: u64,
    /// Maintenance duration `m`.
    pub duration: u64,
    /// Gap `i` between commit and the next start.
    pub gap: u64,
}

impl PeriodicSchedule {
    /// Figure 2's policy: start 9am, commit 8am next day (23h maintenance,
    /// 1h gap), in minutes.
    pub fn figure_2() -> Self {
        PeriodicSchedule {
            first_start: 9 * 60,
            duration: 23 * 60,
            gap: 60,
        }
    }

    fn period(&self) -> u64 {
        self.duration + self.gap
    }

    /// Start time of maintenance transaction `k` (0-based).
    pub fn start_of(&self, k: u64) -> u64 {
        self.first_start + k * self.period()
    }

    /// Commit time of maintenance transaction `k`.
    pub fn commit_of(&self, k: u64) -> u64 {
        self.start_of(k) + self.duration
    }

    /// Whether a maintenance transaction is running at time `t`.
    pub fn active_at(&self, t: u64) -> bool {
        if t < self.first_start {
            return false;
        }
        (t - self.first_start) % self.period() < self.duration
    }

    /// Number of maintenance transactions committed by time `t` (inclusive).
    pub fn committed_by(&self, t: u64) -> u64 {
        if t < self.commit_of(0) {
            return 0;
        }
        (t - self.commit_of(0)) / self.period() + 1
    }

    /// The virtual time at which a session starting at `t` **expires** under
    /// nVNL with `n` versions, or `None` if it never does (n unbounded can't
    /// happen with a periodic schedule, so this always returns a time).
    ///
    /// A session expires at the first maintenance *start* by which `n − 1`
    /// maintenance transactions have committed since the session began
    /// (§2.2's version-lifecycle rule generalized by §5).
    pub fn expiry_time(&self, session_start: u64, n: u64) -> u64 {
        assert!(n >= 2);
        let base = self.committed_by(session_start);
        // The (base + n - 1)-th commit is the one that pushes the session's
        // version out; the session dies when the *next* transaction starts.
        let fatal_commit_index = base + (n - 1) - 1; // 0-based txn index
        let k = fatal_commit_index;
        // Next start after commit_of(k) is start_of(k + 1).
        self.start_of(k + 1).max(session_start)
    }

    /// Longest session length guaranteed never to expire, found empirically
    /// by minimizing `expiry(t) − t` over all start times in one period.
    #[expect(clippy::expect_used, reason = "invariant in the expect message")]
    pub fn empirical_guaranteed(&self, n: u64) -> u64 {
        let lo = self.first_start + self.period(); // steady state
        let hi = lo + self.period();
        (lo..hi)
            .map(|t| self.expiry_time(t, n) - t)
            .min()
            .expect("non-empty period")
    }
}

/// Longest never-expiring session length for a `(gap, duration)` schedule
/// under `n` versions, via exhaustive simulation over start times.
pub fn empirical_guaranteed_length(gap: u64, duration: u64, n: u64) -> u64 {
    PeriodicSchedule {
        first_start: 0,
        duration,
        gap,
    }
    .empirical_guaranteed(n)
}

/// Outcome of simulating a population of reader sessions against a
/// maintenance schedule, under the two regimes of Figures 1 and 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvailabilityReport {
    /// Total simulated horizon (minutes).
    pub horizon: u64,
    /// Minutes during which maintenance ran.
    pub maintenance_minutes: u64,
    /// Sessions attempted.
    pub sessions: u64,
    /// Figure 1 regime: sessions rejected/delayed because the warehouse was
    /// closed for maintenance at their arrival, or cut short by the window.
    pub nightly_blocked: u64,
    /// Figure 1 regime: fraction of the horizon the warehouse was readable.
    pub nightly_availability: f64,
    /// Figure 2 regime (2VNL/nVNL): sessions that expired before finishing
    /// and had to be restarted.
    pub vnl_expired: u64,
    /// Figure 2 regime: warehouse readability (always 1.0 — the point).
    pub vnl_availability: f64,
}

/// Simulate `sessions` reader sessions with random arrivals and durations
/// against `schedule`, comparing the nightly-maintenance regime (Figure 1:
/// the warehouse is unreadable while maintenance runs) with the 2VNL/nVNL
/// regime (Figure 2: reads run through maintenance; sessions can expire).
pub fn availability_comparison(
    schedule: PeriodicSchedule,
    n: u64,
    horizon: u64,
    sessions: u64,
    max_session_len: u64,
    seed: u64,
) -> AvailabilityReport {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut nightly_blocked = 0;
    let mut vnl_expired = 0;
    for _ in 0..sessions {
        let start = rng.next_below(horizon);
        let len = rng.range_inclusive_u64(1, max_session_len);
        let end = start + len;
        // Figure 1 regime: blocked if any overlap with a maintenance window.
        let overlaps_window = (start..=end).any(|t| schedule.active_at(t));
        if overlaps_window {
            nightly_blocked += 1;
        }
        // Figure 2 regime: expired if the session outlives its guarantee.
        if schedule.expiry_time(start, n) < end {
            vnl_expired += 1;
        }
    }
    let maintenance_minutes = (0..horizon).filter(|&t| schedule.active_at(t)).count() as u64;
    AvailabilityReport {
        horizon,
        maintenance_minutes,
        sessions,
        nightly_blocked,
        nightly_availability: 1.0 - maintenance_minutes as f64 / horizon as f64,
        vnl_expired,
        vnl_availability: 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_arithmetic() {
        let s = PeriodicSchedule {
            first_start: 10,
            duration: 5,
            gap: 3,
        };
        assert_eq!(s.start_of(0), 10);
        assert_eq!(s.commit_of(0), 15);
        assert_eq!(s.start_of(1), 18);
        assert!(!s.active_at(9));
        assert!(s.active_at(10));
        assert!(s.active_at(14));
        assert!(!s.active_at(15)); // gap
        assert!(s.active_at(18));
        assert_eq!(s.committed_by(14), 0);
        assert_eq!(s.committed_by(15), 1);
        assert_eq!(s.committed_by(22), 1);
        assert_eq!(s.committed_by(23), 2);
    }

    #[test]
    fn two_vnl_guarantee_matches_formula() {
        // §5: 2VNL guarantees sessions of length up to i never expire.
        for (i, m) in [(3u64, 5u64), (10, 7), (60, 1380)] {
            let guaranteed = empirical_guaranteed_length(i, m, 2);
            let formula = i; // (n-1)(i+m) - m with n=2
            assert!(
                guaranteed >= formula && guaranteed <= formula + 1,
                "i={i} m={m}: empirical {guaranteed} vs formula {formula}"
            );
        }
    }

    #[test]
    fn n_vnl_guarantee_matches_formula() {
        for n in 2..=5u64 {
            for (i, m) in [(4u64, 6u64), (10, 3)] {
                let guaranteed = empirical_guaranteed_length(i, m, n);
                let formula = (n - 1) * (i + m) - m;
                assert!(
                    guaranteed >= formula && guaranteed <= formula + 1,
                    "n={n} i={i} m={m}: empirical {guaranteed} vs formula {formula}"
                );
            }
        }
    }

    #[test]
    fn worst_case_start_is_just_before_commit() {
        // A session starting right before a commit expires soonest (§2.1's
        // "sessions beginning just before 8am expire very quickly").
        let s = PeriodicSchedule {
            first_start: 0,
            duration: 23 * 60,
            gap: 60,
        };
        let commit = s.commit_of(2);
        let worst = s.expiry_time(commit - 1, 2) - (commit - 1);
        let best = s.expiry_time(commit + 1, 2) - (commit + 1);
        assert!(worst < best);
        // Figure 2's numbers: worst ≈ 1 hour (the gap), best ≈ a full cycle.
        assert!(worst <= 61);
        assert!(best >= 23 * 60);
    }

    #[test]
    fn increasing_n_extends_guarantees() {
        let g2 = empirical_guaranteed_length(10, 30, 2);
        let g3 = empirical_guaranteed_length(10, 30, 3);
        let g4 = empirical_guaranteed_length(10, 30, 4);
        assert!(g2 < g3 && g3 < g4);
    }

    #[test]
    fn availability_comparison_shapes() {
        // Figure 2's 23h-maintenance / 1h-gap policy over a simulated month.
        let report = availability_comparison(
            PeriodicSchedule::figure_2(),
            2,
            30 * 1440,
            2_000,
            4 * 60, // sessions up to 4 hours
            7,
        );
        // Nightly regime: maintenance occupies ~96% of the clock, so nearly
        // every session overlaps a window.
        assert!(report.nightly_availability < 0.1);
        assert!(report.nightly_blocked > report.sessions * 9 / 10);
        // 2VNL regime: warehouse always readable; only sessions that
        // straddle a commit+next-start expire.
        assert_eq!(report.vnl_availability, 1.0);
        assert!(report.vnl_expired < report.sessions / 2);
        // And strictly better than blocking.
        assert!(report.vnl_expired < report.nightly_blocked);
    }

    #[test]
    fn availability_deterministic_per_seed() {
        let a = availability_comparison(PeriodicSchedule::figure_2(), 2, 1440, 100, 60, 1);
        let b = availability_comparison(PeriodicSchedule::figure_2(), 2, 1440, 100, 60, 1);
        assert_eq!(a, b);
    }
}
