//! The benchmark's fixed vocabulary, read from `BENCHMARK.json` at the
//! repository root: the workload names with their reasons, every metric's
//! name, unit and direction, the end-to-end regression bounds and the
//! window length. That file is the only place they are written down; it is
//! compiled in, so the binary and the file cannot disagree.

use std::sync::OnceLock;
use wh_bench::json::{parse, Json};

pub struct Workload {
    pub name: String,
    pub why: String,
}

pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Share of the baseline by which an end-to-end metric may get worse;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn text(entry: &Json, key: &str) -> String {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: an entry lacks the string {key:?}"))
        .to_string()
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no list {key:?}"))
}

fn metrics(doc: &Json, key: &str) -> Vec<Metric> {
    list(doc, key)
        .iter()
        .map(|m| Metric {
            name: text(m, "name"),
            unit: text(m, "unit"),
            better: text(m, "better"),
            bound: m.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

/// The parsed file. It is this repository's own, so a malformed one is a
/// bug in the benchmark and panics.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: run_seconds"),
            workloads: list(&doc, "workloads")
                .iter()
                .map(|w| Workload {
                    name: text(w, "name"),
                    why: text(w, "why"),
                })
                .collect(),
            end_to_end: metrics(&doc, "end_to_end"),
            per_layer: metrics(&doc, "per_layer"),
        }
    })
}
