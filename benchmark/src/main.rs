//! `whbench`: the end-to-end warehouse benchmark. See `README.md`.
//!
//! ```text
//! whbench --workload W --seed N --seconds S --trace 0|1   one run of one workload
//! whbench [--seed N] [--quick]                            every workload, untraced then traced
//! whbench compare A.json B.json                           two result files, metric by metric
//! ```

mod gen;
mod ladder;
mod metrics;
mod report;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use run::{Cfg, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;
use wh_bench::json::Json;

pub struct Args {
    workload: Option<&'static workloads::Entry>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out_dir: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: whbench [--workload <{}>] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]\n       whbench compare A.json B.json",
        workloads::ENTRIES.map(|w| w.name).join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(workloads::entry(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Measured window and warm-up in seconds: `BENCHMARK.json`'s window with a
/// 2 s warm-up, or a sub-second pair in quick mode.
pub fn window_seconds(args: &Args) -> (f64, f64) {
    let seconds = args.seconds.unwrap_or(if args.quick {
        0.7
    } else {
        spec::spec().run_seconds
    });
    (seconds, if args.quick { 0.15 } else { 2.0 })
}

fn metrics_json(values: &[metrics::Metric]) -> Json {
    Json::Object(
        values
            .iter()
            .map(|&(name, v, unit)| {
                (
                    name.to_string(),
                    Json::obj([("value", Json::Float(v)), ("unit", unit.into())]),
                )
            })
            .collect(),
    )
}

/// One line of JSON: the renderer pretty-prints, and no string it escapes
/// can hold a raw newline, so joining the trimmed lines is lossless.
fn one_line(doc: &Json) -> String {
    doc.render().lines().map(str::trim_start).collect()
}

/// Why this machine cannot resolve the workload's timings, if it cannot.
fn environment_trouble(o: &Outcome) -> Option<String> {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if cores < 2 {
        return Some(format!("{cores} core: analyst and driver share it"));
    }
    let late = o.maint.late.quantile_ms(0.90);
    if o.period_ms.is_some_and(|p| late > p / 2.0) {
        return Some(format!(
            "open-loop driver ran {late:.1} ms late at p90, over half its period"
        ));
    }
    let lost = o.unresolved_share();
    (lost > 0.5).then(|| {
        format!(
            "a neighbour shared the cores for {:.0} % of the window",
            lost * 100.0
        )
    })
}

fn run_one(args: &Args, entry: &workloads::Entry) -> ExitCode {
    let workload = entry.name;
    let (seconds, warmup_s) = window_seconds(args);
    let cfg = Cfg {
        seed: args.seed,
        seconds,
        warmup_s,
        trace: args.trace,
        quick: args.quick,
        out_dir: args.out_dir.clone(),
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("whbench: cannot create {}: {e}", cfg.out_dir.display());
        return ExitCode::from(1);
    }
    let o = match (entry.run)(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("whbench: {workload} could not run: {e}");
            return ExitCode::from(1);
        }
    };

    let failed_checks: Vec<&run::Check> = o.checks.iter().filter(|c| c.outcome.is_err()).collect();
    for c in &failed_checks {
        eprintln!(
            "whbench: check {} failed: {}",
            c.name,
            c.outcome.as_ref().unwrap_err()
        );
    }
    let correct = o.read.failed == 0 && o.maint.failed == 0 && failed_checks.is_empty();
    let e2e = metrics::end_to_end(&o);
    let layers = if cfg.trace {
        metrics::per_layer(&o)
    } else {
        Vec::new()
    };
    let trouble = environment_trouble(&o);

    println!(
        "# {workload} seed={} window={seconds}s warmup={warmup_s}s trace={}",
        cfg.seed,
        u8::from(cfg.trace)
    );
    for &(name, value, unit) in if cfg.trace { &layers } else { &e2e } {
        println!("{name:<40} {value:>16.4} {unit}");
    }
    println!(
        "# reads {} (failed {}), maintenance transactions {} (failed {}), checks {}/{} ok{}",
        o.read.attempts,
        o.read.failed,
        o.maint.attempts,
        o.maint.failed,
        o.checks.len() - failed_checks.len(),
        o.checks.len(),
        trouble
            .as_ref()
            .map(|t| format!(", environment: {t}"))
            .unwrap_or_default()
    );

    // The full record of this run, for `result.json`.
    let kind = if cfg.trace { "traced" } else { "untraced" };
    let record = Json::obj([
        ("workload", workload.into()),
        ("seed", cfg.seed.into()),
        ("window_s", Json::Float(seconds)),
        ("warmup_s", Json::Float(warmup_s)),
        ("traced", cfg.trace.into()),
        ("correct", correct.into()),
        ("end_to_end", metrics_json(&e2e)),
        ("per_layer", metrics_json(&layers)),
        ("read_ops", o.read.attempts.into()),
        ("read_failed", o.read.failed.into()),
        ("read_samples", o.read.judged().lat.count().into()),
        ("maint_txns", o.maint.attempts.into()),
        ("maint_failed", o.maint.failed.into()),
        ("maint_samples", o.maint.judged().lat.count().into()),
        ("unresolved_share", Json::Float(o.unresolved_share())),
        (
            "maint_late_p90_ms",
            Json::Float(o.maint.late.quantile_ms(0.90)),
        ),
        ("period_ms", o.period_ms.map_or(Json::Null, Json::Float)),
        ("environment_ok", trouble.is_none().into()),
        ("environment_reason", trouble.map_or(Json::Null, Json::from)),
        (
            "checks",
            Json::Array(
                o.checks
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("name", c.name.into()),
                            ("ok", c.outcome.is_ok().into()),
                            (
                                "detail",
                                c.outcome
                                    .as_ref()
                                    .err()
                                    .map_or(Json::Null, |e| e.as_str().into()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "errors",
            Json::Array(
                o.read
                    .errors
                    .iter()
                    .chain(&o.maint.errors)
                    .map(|e| e.as_str().into())
                    .collect(),
            ),
        ),
    ]);
    let record_path = cfg.out_dir.join(format!("{workload}.{kind}.json"));
    if let Err(e) = std::fs::write(&record_path, record.render()) {
        eprintln!("whbench: cannot write {}: {e}", record_path.display());
        return ExitCode::from(1);
    }
    if cfg.trace {
        let path = cfg.out_dir.join(format!("{workload}.trace.jsonl"));
        let rungs = o
            .ladder
            .as_ref()
            .map(ladder::Ladder::rungs)
            .unwrap_or_default();
        if let Err(e) = trace::write_jsonl(&path, &[&o.read.tracer, &o.maint.tracer], &rungs) {
            eprintln!("whbench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }

    let line = Json::obj([
        ("correct", correct.into()),
        (
            "attempted",
            (o.read.attempts + o.maint.attempts).max(1).into(),
        ),
        ("failed", (o.read.failed + o.maint.failed).into()),
        (
            "metrics",
            if cfg.trace {
                metrics_json(&layers)
            } else {
                metrics_json(&e2e)
            },
        ),
    ]);
    println!("{}", one_line(&line));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, a, b] => report::compare(a.as_ref(), b.as_ref()),
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(64)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("whbench: {e}\n{}", usage());
            return ExitCode::from(64);
        }
    };
    match args.workload {
        Some(w) => run_one(&args, w),
        None => report::run_all(&args),
    }
}
