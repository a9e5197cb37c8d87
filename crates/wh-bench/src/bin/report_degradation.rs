//! Experiment E21 — graceful degradation under reader/maintenance
//! contention: the fixed-window 2VNL baseline vs the resilience stack
//! (adaptive effective-`n` + paced commits + leased, retried readers),
//! driven through the `wh_workload::soak` chaos harness.
//!
//! Both arms run the *same* seeds, table size, commit cadence, and reader
//! pressure; only the degradation machinery differs:
//!
//! * **fixed-2vnl** — `n = 2` physical, no pacer, no adaptive controller:
//!   the paper's baseline behavior, expirations land on readers at full
//!   force and are absorbed by retry alone.
//! * **adaptive-paced** — 4 physical slots with the effective window
//!   starting at 2, the [`wh_vnl::AdaptiveN`] controller widening it under
//!   observed expirations, and a `BoundedDelay` [`wh_vnl::MaintenancePacer`]
//!   yielding briefly to at-risk leases before each commit.
//!
//! The report's verdict is the E21 acceptance criterion: the resilient arm
//! must show a strictly lower mean expiration rate, with both arms
//! returning zero incorrect results. Built with `--features failpoints`
//! (as in the CI soak job), faults also fire through both arms.
//!
//! `WH_BENCH_QUICK=1` shrinks seeds and volumes for CI.
#![allow(clippy::expect_used)]

use std::time::Duration;
use wh_bench::json::{self, Json};
use wh_bench::print_table;
use wh_vnl::{PacerPolicy, RetryPolicy};
use wh_workload::{run_soak, SoakConfig, SoakReport};

struct Config {
    seeds: Vec<u64>,
    keys: i64,
    commits: u32,
    readers: usize,
    reads_per_reader: u32,
    fault_every: Option<u32>,
    abort_every: Option<u32>,
}

impl Config {
    fn from_env() -> Config {
        let quick = std::env::var("WH_BENCH_QUICK").is_ok();
        // Faults only fire when the failpoints feature is compiled in; the
        // config arms them unconditionally so one binary serves both the
        // plain bench run and the CI chaos job.
        Config {
            seeds: if quick {
                vec![11, 42, 1997]
            } else {
                vec![11, 42, 1997, 7, 23]
            },
            keys: if quick { 16 } else { 48 },
            commits: if quick { 30 } else { 60 },
            readers: 3,
            reads_per_reader: if quick { 10 } else { 20 },
            fault_every: Some(7),
            abort_every: Some(5),
        }
    }

    fn arm(&self, seed: u64, resilient: bool) -> SoakConfig {
        SoakConfig {
            seed,
            keys: self.keys,
            n_physical: if resilient { 4 } else { 2 },
            initial_n: 2,
            adaptive: resilient,
            pacer: resilient.then_some(PacerPolicy::BoundedDelay(Duration::from_millis(2))),
            readers: self.readers,
            reads_per_reader: self.reads_per_reader,
            reader_hold: Duration::from_millis(1),
            commits: self.commits,
            maintenance_gap: Duration::from_micros(500),
            retry: RetryPolicy::default()
                .with_max_attempts(32)
                .with_backoff(Duration::from_micros(50), Duration::from_millis(2))
                .with_lease_hint(Duration::from_millis(3)),
            repair: false,
            gc_interval: Some(Duration::from_micros(500)),
            fault_every: self.fault_every,
            abort_every: self.abort_every,
        }
    }
}

fn mean_rate(reports: &[SoakReport]) -> f64 {
    if reports.is_empty() {
        return 0.0;
    }
    reports.iter().map(SoakReport::expiration_rate).sum::<f64>() / reports.len() as f64
}

fn arm_json(reports: &[(u64, SoakReport)]) -> Json {
    Json::Array(
        reports
            .iter()
            .map(|(seed, r)| {
                Json::obj([
                    ("seed", Json::UInt(*seed)),
                    ("commits", Json::UInt(r.commits)),
                    ("aborts", Json::UInt(r.aborts)),
                    ("injected_faults", Json::UInt(r.injected_faults)),
                    ("recoveries", Json::UInt(r.recoveries)),
                    ("reads_ok", Json::UInt(r.reads_ok)),
                    ("wrong_answers", Json::UInt(r.wrong_answers)),
                    ("unexpected_errors", Json::UInt(r.unexpected_errors)),
                    ("retry_exhausted", Json::UInt(r.retry_exhausted)),
                    ("attempts", Json::UInt(r.attempts)),
                    ("expirations", Json::UInt(r.expirations)),
                    ("expiration_rate", Json::Fixed(r.expiration_rate(), 4)),
                    ("paced_commits", Json::UInt(r.paced_commits)),
                    ("expired_through", Json::UInt(r.expired_through)),
                    ("adaptive_transitions", Json::UInt(r.adaptive_transitions)),
                    ("final_effective_n", Json::UInt(r.final_effective_n as u64)),
                    ("gc_reclaimed", Json::UInt(r.gc_reclaimed)),
                ])
            })
            .collect(),
    )
}

fn main() {
    let cfg = Config::from_env();
    println!(
        "E21: graceful degradation — fixed 2VNL vs adaptive n + paced commits\n\
         ({} seeds, {} keys, {} commits, {}×{} reads, faults {})\n",
        cfg.seeds.len(),
        cfg.keys,
        cfg.commits,
        cfg.readers,
        cfg.reads_per_reader,
        if cfg!(feature = "failpoints") {
            "armed"
        } else {
            "compiled out"
        },
    );

    let mut fixed = Vec::new();
    let mut resilient = Vec::new();
    let mut rows = Vec::new();
    for &seed in &cfg.seeds {
        wh_types::fault::clear_all();
        let f = run_soak(&cfg.arm(seed, false)).expect("fixed arm");
        wh_types::fault::clear_all();
        let r = run_soak(&cfg.arm(seed, true)).expect("resilient arm");
        wh_types::fault::clear_all();
        assert!(f.is_correct(), "fixed arm seed {seed}: {f:?}");
        assert!(r.is_correct(), "resilient arm seed {seed}: {r:?}");
        rows.push(vec![
            seed.to_string(),
            format!("{:.3}", f.expiration_rate()),
            format!("{:.3}", r.expiration_rate()),
            r.paced_commits.to_string(),
            r.adaptive_transitions.to_string(),
            r.final_effective_n.to_string(),
            (f.injected_faults + r.injected_faults).to_string(),
        ]);
        fixed.push((seed, f));
        resilient.push((seed, r));
    }

    print_table(
        &[
            "seed",
            "fixed exp/op",
            "resilient exp/op",
            "paced",
            "n moves",
            "final n_eff",
            "faults",
        ],
        &rows,
    );

    let fixed_reports: Vec<SoakReport> = fixed.iter().map(|(_, r)| r.clone()).collect();
    let resilient_reports: Vec<SoakReport> = resilient.iter().map(|(_, r)| r.clone()).collect();
    let fixed_rate = mean_rate(&fixed_reports);
    let resilient_rate = mean_rate(&resilient_reports);
    let reduced = resilient_rate < fixed_rate || (fixed_rate == 0.0 && resilient_rate == 0.0);
    let reduction_pct = if fixed_rate > 0.0 {
        (1.0 - resilient_rate / fixed_rate) * 100.0
    } else {
        0.0
    };

    println!(
        "\nmean expiration rate: fixed {fixed_rate:.4} vs adaptive+paced \
         {resilient_rate:.4} ({reduction_pct:.0}% reduction)"
    );
    println!(
        "verdict: {}",
        if reduced {
            "PASS — pacing + adaptive n reduce reader expirations at equal correctness"
        } else {
            "FAIL — resilient arm did not reduce the expiration rate"
        }
    );

    let doc = Json::obj([
        ("experiment", Json::Str("E21-degradation".into())),
        (
            "failpoints_compiled",
            Json::Bool(cfg!(feature = "failpoints")),
        ),
        ("keys", Json::Int(cfg.keys)),
        ("commits", Json::UInt(u64::from(cfg.commits))),
        ("readers", Json::UInt(cfg.readers as u64)),
        ("fixed", arm_json(&fixed)),
        ("resilient", arm_json(&resilient)),
        ("fixed_mean_expiration_rate", Json::Fixed(fixed_rate, 4)),
        (
            "resilient_mean_expiration_rate",
            Json::Fixed(resilient_rate, 4),
        ),
        ("reduction_pct", Json::Fixed(reduction_pct, 1)),
        ("reduced", Json::Bool(reduced)),
    ]);
    json::write_report("BENCH_degrade.json", &doc);
    assert!(
        reduced,
        "E21 acceptance: resilient arm must not expire more"
    );
}
