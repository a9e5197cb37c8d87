//! The analyzer against a seeded fixture tree (must flag every planted
//! violation at the right file:line, and nothing else) and against the
//! real workspace (must be clean — the CI `analyze` job's contract).

use std::path::{Path, PathBuf};
use wh_analyze::analyze_tree;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tree")
}

/// Diagnostics for the fixture tree under `tests/fixtures/<name>`, with
/// the reverse failpoint-registry findings (attributed to the real
/// registry in `crates/wh-types`, and fired for every registered name
/// when the analyzed tree has no failpoint sites) filtered out.
fn tree_findings(name: &str) -> Vec<(String, u32, &'static str)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/fixtures/{name}"));
    analyze_tree(&root)
        .iter()
        .filter(|d| !d.file.starts_with("crates/wh-types"))
        .map(|d| (d.file.display().to_string(), d.line, d.rule))
        .collect()
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn fixture_tree_flags_each_seeded_violation() {
    let diagnostics = analyze_tree(&fixture_root());
    let found: Vec<(String, u32, &str)> = diagnostics
        .iter()
        // The reverse registry check fires for every registered-but-unused
        // name when analyzing a tree this small; asserted separately.
        .filter(|d| !d.file.starts_with("crates/wh-types"))
        .map(|d| (d.file.display().to_string(), d.line, d.rule))
        .collect();
    let bad = "crates/badcrate/src/lib.rs".to_string();
    let root = "src/lib.rs".to_string();
    let expected = vec![
        (bad.clone(), 6, "atomic-protocol"),
        (bad.clone(), 15, "failpoint-registry"),
        (bad.clone(), 15, "failpoint-trace"),
        (bad.clone(), 16, "failpoint-trace"),
        (bad, 43, "atomic-protocol"),
        (root.clone(), 6, "latch-order"),
        // A pragma naming no rule, and one that suppresses nothing.
        (root.clone(), 14, "pragma"),
        (root, 15, "pragma"),
    ];
    assert_eq!(found, expected, "full diagnostics: {diagnostics:#?}");
}

#[test]
fn fixture_reverse_check_reports_unused_registered_names() {
    let diagnostics = analyze_tree(&fixture_root());
    let unused: Vec<&str> = diagnostics
        .iter()
        .filter(|d| d.file.starts_with("crates/wh-types"))
        .map(|d| d.rule)
        .collect();
    // The fixture marks exactly one registered name (vnl.version.begin);
    // every other registry entry is reported as site-less.
    assert_eq!(unused.len(), wh_types::fault::REGISTRY.len() - 1);
    assert!(unused.iter().all(|r| *r == "failpoint-registry"));
    assert!(!diagnostics
        .iter()
        .any(|d| d.message.contains("'vnl.version.begin'")));
}

#[test]
fn diagnostics_are_file_line_anchored_and_ordered() {
    let diagnostics = analyze_tree(&fixture_root());
    for d in &diagnostics {
        let line = d.to_string();
        let mut parts = line.splitn(3, ':');
        assert!(parts.next().is_some_and(|p| p.ends_with(".rs")), "{line}");
        assert!(
            parts.next().is_some_and(|p| p.parse::<u32>().is_ok()),
            "{line}"
        );
    }
    let mut sorted = diagnostics.clone();
    sorted.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    assert_eq!(diagnostics, sorted, "output must be deterministic");
}

#[test]
fn latch_tree_flags_transitive_inversions_only() {
    let f = "crates/latchcase/src/lib.rs".to_string();
    assert_eq!(
        tree_findings("latch"),
        vec![
            // Direct inversion: frames acquired while state is held.
            (f.clone(), 9, "latch-order"),
            // Transitive inversion: the callee acquires pool-frames.
            (f, 14, "latch-order"),
            // declared_order_is_fine and the pragma-suppressed
            // scope-blind case must NOT fire.
        ]
    );
}

#[test]
fn epoch_tree_flags_the_pr4_fence_bug_shape() {
    assert_eq!(
        tree_findings("epoch"),
        vec![
            // audit → collect_rows → HeapFile::scan with no pin/latch on
            // the path — the PR-4 regression shape. The pinned, latched,
            // and pragma-suppressed entries must NOT fire.
            (
                "crates/epochcase/src/lib.rs".to_string(),
                23,
                "epoch-discipline"
            ),
            // An unpinned call of the whole-relation walker; the pinned
            // twin below it must NOT fire.
            (
                "crates/epochcase/src/lib.rs".to_string(),
                53,
                "epoch-discipline"
            ),
            // The same call behind a callee whose signature has a generic
            // comma and a trailing one: found only if the call resolves.
            (
                "crates/epochcase/src/lib.rs".to_string(),
                73,
                "epoch-discipline"
            ),
        ]
    );
}

#[test]
fn protocol_tree_flags_tag_and_pairing_violations() {
    let f = "crates/protocase/src/lib.rs".to_string();
    assert_eq!(
        tree_findings("protocol"),
        vec![
            (f.clone(), 7, "atomic-protocol"),  // malformed tag
            (f.clone(), 12, "atomic-protocol"), // tag/code order mismatch
            (f.clone(), 17, "atomic-protocol"), // Acquire side never closes
            (f.clone(), 32, "atomic-protocol"), // Relaxed on a paired field
            (f, 42, "atomic-protocol"),         // fence missing `fence` tag
        ]
    );
}

#[test]
fn protocol_tree_table_reports_closure() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/protocol");
    let report = wh_analyze::analyze_tree_report(&root);
    let by_name = |n: &str| {
        report
            .protocols
            .iter()
            .find(|p| p.name == n)
            .unwrap_or_else(|| panic!("protocol {n} missing from table"))
    };
    assert!(by_name("flag").closed(), "acq/rel pair closes");
    assert!(by_name("tick").closed(), "pure-Relaxed is trivially closed");
    assert!(by_name("seal").closed(), "fence pair closes");
    assert!(!by_name("lost-acq").closed(), "unpaired Acquire stays open");
}

/// Clean includes the pragma check: each of the workspace's `lint:`
/// pragmas names a rule and still suppresses a live diagnostic.
#[test]
fn real_workspace_is_clean() {
    let diagnostics = analyze_tree(&workspace_root());
    assert!(
        diagnostics.is_empty(),
        "wh-analyze found {} violation(s) in the workspace:\n{}",
        diagnostics.len(),
        diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
