//! `wh-analyze`: repo-specific static analysis for the 2VNL workspace.
//!
//! Generic lints (clippy, the `[workspace.lints]` table) cannot see the
//! repo's own invariants — the latch order that keeps index backfill from
//! deadlocking, the failpoint registry the crash matrix sweeps, the
//! memory-ordering discipline the wh-kernel model suite verifies. This
//! crate enforces those as source-level rules over a hand-rolled lexer
//! (no `syn`: the workspace is dependency-free by policy).
//!
//! Run it from the workspace root:
//!
//! ```text
//! cargo run -p wh-analyze            # analyze the enclosing workspace
//! cargo run -p wh-analyze -- <root>  # analyze another tree (fixtures)
//! ```
//!
//! Exit status is non-zero iff any rule fires; diagnostics are
//! `file:line: [rule] message`, one per line, deterministic order. See
//! [`rules`] for the rule list and the `lint: allow(...)` pragma syntax.

pub mod callgraph;
pub mod interproc;
pub mod lexer;
pub mod output;
pub mod parser;
pub mod protocol;
pub mod rules;
pub mod walker;

pub use protocol::ProtocolEntry;
pub use rules::{analyze, analyze_report, Diagnostic, Report, SourceFile, RULES};

use std::path::{Path, PathBuf};

/// Collect and analyze every library source file under `root`: `src/` of
/// the root package and of each `crates/*` member. `tests/`, `benches/`,
/// and `examples/` are out of scope by construction (the rules govern
/// library code; in-file `#[cfg(test)]` modules are excluded per rule).
///
/// I/O errors surface as diagnostics rather than panics — the analyzer is
/// itself subject to the workspace's panic lints.
pub fn analyze_tree(root: &Path) -> Vec<Diagnostic> {
    analyze_tree_report(root).diagnostics
}

/// Like [`analyze_tree`], but returns the full [`Report`] (protocol table
/// and call-graph statistics included) for `--protocols` and the stats
/// summary line.
pub fn analyze_tree_report(root: &Path) -> Report {
    let mut files = Vec::new();
    let mut errors = Vec::new();
    let mut src_roots = vec![root.join("src")];
    match std::fs::read_dir(root.join("crates")) {
        Ok(entries) => {
            let mut members: Vec<PathBuf> = entries
                .filter_map(|e| e.ok().map(|e| e.path().join("src")))
                .collect();
            members.sort();
            src_roots.extend(members);
        }
        Err(e) => errors.push(Diagnostic {
            file: root.join("crates"),
            line: 0,
            rule: "io-error",
            function: None,
            message: format!("cannot read crates/ directory: {e}"),
        }),
    }
    for src_root in src_roots {
        collect_rs_files(root, &src_root, &mut files, &mut errors);
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    let mut report = analyze_report(&files);
    report.diagnostics.extend(errors);
    report
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    files: &mut Vec<SourceFile>,
    errors: &mut Vec<Diagnostic>,
) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        // A member without src/ (or the root package without one) is fine.
        return;
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(root, &path, files, errors);
        } else if path.extension().is_some_and(|e| e == "rs") {
            match std::fs::read_to_string(&path) {
                Ok(text) => {
                    let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
                    files.push(SourceFile { path: rel, text });
                }
                Err(e) => errors.push(Diagnostic {
                    file: path,
                    line: 0,
                    rule: "io-error",
                    function: None,
                    message: format!("cannot read file: {e}"),
                }),
            }
        }
    }
}
