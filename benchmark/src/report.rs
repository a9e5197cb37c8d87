//! The one-command run over every workload, `result.json`, and `compare`.

use crate::spec::spec;
use crate::workloads::ENTRIES;
use crate::{window_seconds, Args};
use std::path::Path;
use std::process::{Command, ExitCode};
use wh_bench::json::{parse, Json};

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// What a later reader needs to judge whether two result files compare.
fn fingerprint(args: &Args) -> Json {
    let (seconds, warmup_s) = window_seconds(args);
    Json::obj([
        ("git_rev", command_line("git", &["rev-parse", "HEAD"]).into()),
        ("rustc", command_line("rustc", &["--version"]).into()),
        ("nproc", std::thread::available_parallelism().map_or(1, usize::from).into()),
        (
            "product_features",
            format!(
                "default (observability {}, failpoints off), --release",
                if wh_obs::is_enabled() { "on" } else { "off" }
            )
            .into(),
        ),
        ("seed", args.seed.into()),
        ("window_s", Json::Float(seconds)),
        ("warmup_s", Json::Float(warmup_s)),
        ("quick", args.quick.into()),
        ("working_threads", "2: one analyst, one maintenance driver (GC and checkpoints inline on the driver)".into()),
        ("flush_policy", "the product's own: page file fsync at checkpoint only".into()),
        (
            "caveat",
            "durable-tier latencies are this sandbox's page cache, not a device; a 2-core container bounds what the concurrent workloads can show".into(),
        ),
        (
            "loops",
            Json::Object(
                ENTRIES
                    .iter()
                    .map(|w| {
                        (
                            w.name.to_string(),
                            Json::obj([("read", w.read_loop.into()), ("maintenance", w.maint_loop.into())]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Run one workload in a process of its own and load the record it wrote.
fn child_run(args: &Args, workload: &str, traced: bool) -> Result<Json, String> {
    let (seconds, _) = window_seconds(args);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(&args.out_dir);
    if args.quick {
        cmd.arg("--quick");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let kind = if traced { "traced" } else { "untraced" };
    let path = args.out_dir.join(format!("{workload}.{kind}.json"));
    let record = std::fs::read_to_string(&path)
        .map_err(|e| format!("{workload} ({kind}) exited with {status} and left no record: {e}"))
        .and_then(|text| parse(&text).map_err(|e| format!("{}: {e}", path.display())))?;
    let _ = std::fs::remove_file(&path);
    Ok(record)
}

fn field<'a>(doc: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(doc, |d, key| d.get(key))
}

pub fn run_all(args: &Args) -> ExitCode {
    let mut workloads = Vec::new();
    let mut all_correct = true;
    let mut reasons = Vec::new();
    for w in &spec().workloads {
        let (untraced, traced) = match (
            child_run(args, &w.name, false),
            child_run(args, &w.name, true),
        ) {
            (Ok(u), Ok(t)) => (u, t),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("whbench: {e}");
                return ExitCode::from(1);
            }
        };
        let ok = |r: &Json, key| field(r, &[key]).and_then(Json::as_bool).unwrap_or(false);
        all_correct &= ok(&untraced, "correct") && ok(&traced, "correct");
        let environment_ok = ok(&untraced, "environment_ok");
        if let Some(reason) = field(&untraced, &["environment_reason"]).and_then(Json::as_str) {
            reasons.push(Json::from(format!("{}: {reason}", w.name)));
        }
        let take = |r: &Json, key: &str| field(r, &[key]).cloned().unwrap_or(Json::Null);
        workloads.push((
            w.name.clone(),
            Json::obj([
                ("why", w.why.as_str().into()),
                ("environment_ok", environment_ok.into()),
                (
                    "correct",
                    (ok(&untraced, "correct") && ok(&traced, "correct")).into(),
                ),
                ("end_to_end", take(&untraced, "end_to_end")),
                ("per_layer", take(&traced, "per_layer")),
                ("read_ops", take(&untraced, "read_ops")),
                ("read_failed", take(&untraced, "read_failed")),
                ("read_samples", take(&untraced, "read_samples")),
                ("maint_txns", take(&untraced, "maint_txns")),
                ("maint_failed", take(&untraced, "maint_failed")),
                ("maint_samples", take(&untraced, "maint_samples")),
                ("unresolved_share", take(&untraced, "unresolved_share")),
                ("maint_late_p90_ms", take(&untraced, "maint_late_p90_ms")),
                ("period_ms", take(&untraced, "period_ms")),
                ("checks_untraced", take(&untraced, "checks")),
                ("checks_traced", take(&traced, "checks")),
                ("errors", take(&untraced, "errors")),
                ("trace_file", format!("{}.trace.jsonl", w.name).into()),
            ]),
        ));
    }
    let result = Json::obj([
        ("schema", 1u64.into()),
        ("fingerprint", fingerprint(args)),
        (
            "checks",
            Json::obj([
                ("environment_ok", reasons.is_empty().into()),
                ("environment_reasons", Json::Array(reasons)),
                ("all_correct", all_correct.into()),
            ]),
        ),
        ("workloads", Json::Object(workloads)),
    ]);
    let path = args.out_dir.join("result.json");
    if let Err(e) = std::fs::write(&path, result.render()) {
        eprintln!("whbench: cannot write {}: {e}", path.display());
        return ExitCode::from(1);
    }
    println!(
        "# wrote {} (all answers correct: {all_correct})",
        path.display()
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Per (workload, end-to-end metric): both values, the relative change of
/// B against A in the metric's bad direction, the bound, and a verdict.
/// `unresolved` marks workloads whose environment check failed in either
/// file: those numbers measure the scheduler, not the program.
pub fn compare(a: &Path, b: &Path) -> ExitCode {
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("whbench: {e}");
            return ExitCode::from(1);
        }
    };
    for (key, what) in [
        ("seed", "seeds"),
        ("window_s", "windows"),
        ("git_rev", "commits"),
    ] {
        let (x, y) = (
            field(&a, &["fingerprint", key]),
            field(&b, &["fingerprint", key]),
        );
        if x != y {
            println!("# note: {what} differ: {x:?} vs {y:?}");
        }
    }
    let mut worse = 0;
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for w in &spec().workloads {
        let env_ok = [&a, &b].iter().all(|r| {
            field(r, &["workloads", &w.name, "environment_ok"]).and_then(Json::as_bool)
                == Some(true)
        });
        for m in &spec().end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let get = |r: &Json| {
                field(r, &["workloads", &w.name, "end_to_end", &m.name, "value"])
                    .and_then(Json::as_f64)
            };
            let (Some(va), Some(vb)) = (get(&a), get(&b)) else {
                println!("{:<18} {:<18} missing in one file", w.name, m.name);
                worse += 1;
                continue;
            };
            // Positive = B is worse than A.
            let change = if va == 0.0 {
                0.0
            } else if m.better == "lower" {
                (vb - va) / va
            } else {
                (va - vb) / va
            };
            let verdict = if !env_ok {
                "unresolved"
            } else if change > bound {
                worse += 1;
                "worse"
            } else {
                "ok"
            };
            println!(
                "{:<18} {:<18} {:>14.4} {:>14.4} {:>+8.1}% {:>6.0}%  {verdict}",
                w.name,
                m.name,
                va,
                vb,
                change * 100.0,
                bound * 100.0
            );
        }
        for (r, tag) in [(&a, "A"), (&b, "B")] {
            let n = |key| {
                field(r, &["workloads", &w.name, key])
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            println!(
                "{:<18} failed in {tag}: reads {}/{}, maintenance {}/{}",
                w.name,
                n("read_failed"),
                n("read_ops"),
                n("maint_failed"),
                n("maint_txns")
            );
        }
    }
    if worse == 0 {
        ExitCode::SUCCESS
    } else {
        println!("# {worse} metric(s) worse than the bound");
        ExitCode::from(3)
    }
}
