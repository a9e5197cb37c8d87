//! The benchmark's contract with `BENCHMARK.json`: every declared workload
//! runs and emits every declared metric, names and counts stay inside the
//! driver's limits, and `scan_quiet`'s counts repeat exactly at one seed.

use std::path::{Path, PathBuf};
use std::process::Command;
use wh_bench::json::{parse, Json};

fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// One quick run of every workload into its own directory.
fn quick_run(tag: &str, workloads: &[&str]) -> Json {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("contract_{tag}"));
    let _ = std::fs::remove_dir_all(&out);
    let status = Command::new(env!("CARGO_BIN_EXE_whbench"))
        .args(["--seed", "7", "--quick", "--out"])
        .arg(&out)
        .status()
        .expect("whbench starts");
    assert!(status.success(), "quick run {tag} exited with {status}");
    let result = load(&out.join("result.json"));
    for w in workloads {
        assert!(
            out.join(format!("{w}.trace.jsonl")).is_file(),
            "no trace file for {w}"
        );
    }
    let _ = std::fs::remove_dir_all(&out);
    result
}

fn names(list: &Json) -> Vec<&str> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("a name"))
        .collect()
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

fn value<'a>(result: &'a Json, workload: &str, kind: &str, metric: &str) -> &'a Json {
    result
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(kind))
        .and_then(|k| k.get(metric))
        .and_then(|m| m.get("value"))
        .unwrap_or_else(|| panic!("{workload} does not emit {kind} metric {metric}"))
}

#[test]
fn quick_mode_honours_benchmark_json() {
    let declared = load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"));
    let workloads = names(declared.get("workloads").expect("workloads"));
    let end_to_end = names(declared.get("end_to_end").expect("end_to_end"));
    let per_layer = names(declared.get("per_layer").expect("per_layer"));

    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    assert!(end_to_end.contains(&"setup_s"));
    let mut all: Vec<&str> = workloads
        .iter()
        .chain(&end_to_end)
        .chain(&per_layer)
        .copied()
        .collect();
    for name in &all {
        assert!(well_formed(name), "malformed name {name:?}");
    }
    all.sort_unstable();
    all.dedup();
    assert_eq!(
        all.len(),
        workloads.len() + end_to_end.len() + per_layer.len(),
        "a name is used twice"
    );

    let (first, second) = (quick_run("a", &workloads), quick_run("b", &workloads));
    for result in [&first, &second] {
        for w in &workloads {
            for m in &end_to_end {
                let v = value(result, w, "end_to_end", m)
                    .as_f64()
                    .expect("a number");
                assert!(v.is_finite() && v != 0.0, "{w}.{m} = {v}");
            }
            for m in &per_layer {
                assert!(value(result, w, "per_layer", m)
                    .as_f64()
                    .expect("a number")
                    .is_finite());
            }
        }
        let all_correct = result
            .get("checks")
            .and_then(|c| c.get("all_correct"))
            .and_then(Json::as_bool);
        assert_eq!(all_correct, Some(true), "an answer check failed");
    }

    // Phase A of scan_quiet reads a table nothing has touched: its counts
    // are a function of the seed alone.
    for m in [
        "storage.pages_per_read_op",
        "vnl.scan_visible_share",
        "sql.rows_in_per_row_out",
    ] {
        let (a, b) = (
            value(&first, "scan_quiet", "per_layer", m),
            value(&second, "scan_quiet", "per_layer", m),
        );
        assert_eq!(a, b, "scan_quiet {m} differs between two runs at one seed");
    }
}
