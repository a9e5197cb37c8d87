//! The lint rules: repo-specific invariants enforced as token patterns.
//!
//! Each rule has a stable kebab-case name, usable in suppression pragmas:
//!
//! * `// lint: allow(rule-name) — why` suppresses that rule on the pragma's
//!   line and the line after it (so the pragma can sit above the flagged
//!   statement);
//! * `// lint: allow-file(rule-name) — why` suppresses the rule for the
//!   whole file (reserved for files whose *purpose* conflicts with a rule,
//!   e.g. the model checker's instrumented atomics, whose `Ordering`
//!   idents classify the caller's argument).
//!
//! A pragma is a comment that starts with `lint:`. One that names no rule
//! in [`RULES`], or that suppresses no diagnostic, is itself reported (as
//! `pragma`, which no pragma can suppress) — the check `#[expect]` gives
//! the clippy lints.
//!
//! The rules:
//!
//! | name | invariant |
//! |------|-----------|
//! | `failpoint-registry` | every `fail_point!("name")` is in `wh_types::fault::REGISTRY`, and every registry entry has a call site |
//! | `failpoint-trace` | every `fail_point!` site is covered by a trace span opened earlier in the same function, or carries a `// trace:` marker naming the ambient span |
//!
//! The call-graph rules live beside them: `latch-order` and
//! `epoch-discipline` in [`crate::interproc`], and `atomic-protocol` (every
//! atomic `Ordering::…` use carries a structured `// ordering:` tag, and the
//! tags pair up) in [`crate::protocol`].
//!
//! What the compiler can check is left to it: panic paths in library code
//! and `unsafe` without a `// SAFETY:` comment are clippy lints (the
//! `[workspace.lints.clippy]` table), and the version kernel's atomics are
//! private fields of `wh-kernel`.

use crate::lexer::{Kind, Tok};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// All rule names, for pragma validation and docs.
pub const RULES: &[&str] = &[
    "failpoint-registry",
    "failpoint-trace",
    "latch-order",
    "epoch-discipline",
    "atomic-protocol",
];

/// One finding, anchored to a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path as given to the analyzer (relative to the scanned root).
    pub file: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// Which rule fired: one of [`RULES`], or `pragma` / `io-error`.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// Qualified path of the enclosing function
    /// (`wh_vnl::table::VnlTable::scan_serial`), when the line falls
    /// inside one. Filled in by a post-pass over the function tables.
    pub function: Option<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )?;
        if let Some(func) = &self.function {
            write!(f, " (in {func})")?;
        }
        Ok(())
    }
}

/// One source file queued for analysis.
pub struct SourceFile {
    /// Root-relative path (used in diagnostics and scope decisions).
    pub path: PathBuf,
    /// Full file contents.
    pub text: String,
}

/// Per-file context shared by the rules.
pub(crate) struct FileCtx<'a> {
    pub(crate) path: &'a Path,
    pub(crate) toks: Vec<Tok>,
    pub(crate) lines: Vec<String>,
    /// Token-index ranges inside `#[cfg(test)]` items.
    pub(crate) test_ranges: Vec<(usize, usize)>,
    /// The file's `lint: allow(...)` / `lint: allow-file(...)` pragmas.
    pragmas: Vec<Pragma>,
    /// Whether this file is a binary target (`src/bin/…` or `main.rs`).
    pub(crate) is_bin: bool,
}

impl FileCtx<'_> {
    pub(crate) fn in_test(&self, tok_idx: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(lo, hi)| tok_idx >= lo && tok_idx < hi)
    }

    /// Does a pragma cover `rule` at `line`? Marks every covering pragma
    /// as used.
    fn suppressed(&self, rule: &str, line: u32) -> bool {
        let mut hit = false;
        for p in &self.pragmas {
            if p.rule == rule && (p.file_wide || line == p.line || line == p.line + 1) {
                p.used.set(true);
                hit = true;
            }
        }
        hit
    }

    pub(crate) fn emit(
        &self,
        out: &mut Vec<Diagnostic>,
        rule: &'static str,
        line: u32,
        message: String,
    ) {
        if !self.suppressed(rule, line) {
            out.push(Diagnostic {
                file: self.path.to_path_buf(),
                line,
                rule,
                message,
                function: None,
            });
        }
    }
}

/// One suppression pragma: `allow(rule)` covers its own line and the next,
/// `allow-file(rule)` the whole file.
struct Pragma {
    rule: String,
    line: u32,
    file_wide: bool,
    /// Set once the pragma suppresses a diagnostic.
    used: Cell<bool>,
}

/// Everything the interprocedural rules see: per-file contexts, the
/// parsed function tables (same index), and the workspace call graph.
pub(crate) struct Workspace<'a> {
    pub(crate) ctxs: &'a [FileCtx<'a>],
    pub(crate) tables: &'a [crate::parser::FnTable],
    pub(crate) graph: &'a crate::callgraph::Graph,
}

impl Workspace<'_> {
    /// Resolve a global fn id to its file context and parsed info.
    pub(crate) fn fn_info(&self, gid: usize) -> (&FileCtx<'_>, &crate::parser::FnInfo) {
        let g = self.graph.fns[gid];
        (&self.ctxs[g.file], &self.tables[g.file].fns[g.local])
    }
}

/// Analyze a set of files as one unit (the cross-file failpoint check
/// needs the whole set). Paths should be root-relative; scope decisions
/// (bin targets, the `wh-kernel` exemption) look at path components.
pub fn analyze(files: &[SourceFile]) -> Vec<Diagnostic> {
    analyze_report(files).diagnostics
}

/// Workspace-level analysis artifacts beyond the diagnostics: the atomic
/// protocol table (`--protocols`) and self-run statistics (E26).
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    pub protocols: Vec<crate::protocol::ProtocolEntry>,
    /// Parsed functions across the workspace.
    pub functions: usize,
    /// Resolved call-graph edges (call site → candidate callee pairs).
    pub edges: usize,
}

/// [`analyze`], plus the protocol table and stats.
pub fn analyze_report(files: &[SourceFile]) -> Report {
    let mut out = Vec::new();
    // name → call-site lines, for the registry cross-check.
    let mut failpoint_sites: BTreeMap<String, Vec<(PathBuf, u32)>> = BTreeMap::new();
    // Where each registry entry's string literal lives in fault.rs, so the
    // "registered but never marked" diagnostic can anchor somewhere real.
    let mut registry_entry_lines: BTreeMap<String, u32> = BTreeMap::new();

    let ctxs: Vec<FileCtx<'_>> = files.iter().map(build_ctx).collect();
    let tables: Vec<crate::parser::FnTable> = ctxs
        .iter()
        .map(|c| crate::parser::parse(c.path, &c.toks, &c.test_ranges))
        .collect();
    let tok_slices: Vec<&[Tok]> = ctxs.iter().map(|c| c.toks.as_slice()).collect();
    let graph = crate::callgraph::build(&tables, &tok_slices);

    for (ctx, table) in ctxs.iter().zip(&tables) {
        failpoint_trace(ctx, table, &mut out);
        collect_failpoints(
            ctx,
            &mut failpoint_sites,
            &mut registry_entry_lines,
            &mut out,
        );
    }

    let ws = Workspace {
        ctxs: &ctxs,
        tables: &tables,
        graph: &graph,
    };
    crate::interproc::latch_order(&ws, &mut out);
    crate::interproc::epoch_discipline(&ws, &mut out);
    let protocols = crate::protocol::check(&ws, &mut out);
    for ctx in &ctxs {
        check_pragmas(ctx, &mut out);
    }

    // Reverse direction: a registered name nothing marks is dead weight in
    // the crash matrix (the sweep would "cover" a point that cannot fire).
    for &name in wh_types::fault::REGISTRY {
        if !failpoint_sites.contains_key(name) {
            let (file, line) = registry_entry_lines.get(name).map_or_else(
                || (PathBuf::from("crates/wh-types/src/fault.rs"), 1),
                |&l| (PathBuf::from("crates/wh-types/src/fault.rs"), l),
            );
            out.push(Diagnostic {
                file,
                line,
                rule: "failpoint-registry",
                message: format!("registered failpoint '{name}' has no fail_point! call site"),
                function: None,
            });
        }
    }

    // Attribute every finding to its enclosing function.
    let by_path: BTreeMap<&Path, usize> =
        ctxs.iter().enumerate().map(|(i, c)| (c.path, i)).collect();
    for d in &mut out {
        if d.function.is_none() {
            if let Some(&fi) = by_path.get(d.file.as_path()) {
                d.function = tables[fi].enclosing(d.line).map(|f| f.qual.clone());
            }
        }
    }

    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    let edges = graph.calls.iter().flatten().map(|c| c.callees.len()).sum();
    Report {
        diagnostics: out,
        protocols,
        functions: graph.fns.len(),
        edges,
    }
}

fn build_ctx(file: &SourceFile) -> FileCtx<'_> {
    let toks = crate::lexer::lex(&file.text);
    let lines: Vec<String> = file.text.lines().map(str::to_string).collect();
    let pragmas = toks
        .iter()
        .filter(|t| t.kind == Kind::LineComment || t.kind == Kind::BlockComment)
        .filter_map(|t| {
            let (rule, file_wide) = parse_pragma(&t.text)?;
            Some(Pragma {
                rule,
                line: t.line,
                file_wide,
                used: Cell::new(false),
            })
        })
        .collect();
    let is_bin = file.path.components().any(|c| c.as_os_str() == "bin")
        || file.path.file_name().is_some_and(|f| f == "main.rs");
    FileCtx {
        path: &file.path,
        test_ranges: test_ranges(&toks),
        toks,
        lines,
        pragmas,
        is_bin,
    }
}

/// The `(rule, file_wide)` of a comment that starts with
/// `lint: allow(rule)` or `lint: allow-file(rule)`. Doc comments (`///`,
/// `//!`) never start with `lint:`, so they may quote the syntax.
fn parse_pragma(comment: &str) -> Option<(String, bool)> {
    let rest = comment.trim_start().strip_prefix("lint:")?.trim_start();
    let (body, file_wide) = match rest.strip_prefix("allow-file(") {
        Some(body) => (body, true),
        None => (rest.strip_prefix("allow(")?, false),
    };
    let end = body.find(')')?;
    Some((body[..end].trim().to_string(), file_wide))
}

/// Report every pragma that names no rule in [`RULES`] or suppressed no
/// diagnostic: a stale suppression fails the run, as an unfulfilled
/// `#[expect]` fails the build. Runs after every rule has emitted.
fn check_pragmas(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for p in &ctx.pragmas {
        let message = if !RULES.contains(&p.rule.as_str()) {
            format!("pragma names no rule: '{}'", p.rule)
        } else if !p.used.get() {
            format!("pragma for '{}' suppresses nothing", p.rule)
        } else {
            continue;
        };
        out.push(Diagnostic {
            file: ctx.path.to_path_buf(),
            line: p.line,
            rule: "pragma",
            message,
            function: None,
        });
    }
}

/// Token-index ranges covered by `#[cfg(test)]` items: from the attribute
/// to the close of the following brace-delimited body.
pub(crate) fn test_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let code = |t: &Tok| t.kind != Kind::LineComment && t.kind != Kind::BlockComment;
    let mut i = 0;
    while i < toks.len() {
        // Match `# [ cfg ( test ) ]`.
        let is_attr = toks[i].is_punct('#')
            && matches!(toks.get(i + 1), Some(t) if t.is_punct('['))
            && matches!(toks.get(i + 2), Some(t) if t.is_ident("cfg"))
            && matches!(toks.get(i + 3), Some(t) if t.is_punct('('))
            && matches!(toks.get(i + 4), Some(t) if t.is_ident("test"))
            && matches!(toks.get(i + 5), Some(t) if t.is_punct(')'))
            && matches!(toks.get(i + 6), Some(t) if t.is_punct(']'));
        if !is_attr {
            i += 1;
            continue;
        }
        // Find the item's body: the first `{` at depth 0 after the
        // attribute, skipping any `(...)`/`[...]` groups on the way (other
        // attributes, generics are fine — `<` isn't tracked but never
        // contains `{`).
        let start = i;
        let mut j = i + 7;
        let mut depth = 0i32;
        let mut end = None;
        while j < toks.len() {
            let t = &toks[j];
            if code(t) {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        end = Some(close_of_brace(toks, j));
                        break;
                    }
                    ";" if depth == 0 => {
                        // `#[cfg(test)] use …;` — covers through the `;`.
                        end = Some(j + 1);
                        break;
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        let end = end.unwrap_or(toks.len());
        ranges.push((start, end));
        i = end;
    }
    ranges
}

/// Index one past the `}` matching the `{` at `open`.
fn close_of_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
    }
    toks.len()
}

fn prev_code(toks: &[Tok], i: usize) -> Option<&Tok> {
    toks[..i]
        .iter()
        .rev()
        .find(|t| t.kind != Kind::LineComment && t.kind != Kind::BlockComment)
}

fn next_code(toks: &[Tok], i: usize) -> Option<&Tok> {
    toks[i + 1..]
        .iter()
        .find(|t| t.kind != Kind::LineComment && t.kind != Kind::BlockComment)
}

/// The text of the `marker` comment covering `line` (from the marker to
/// the end of that comment line), if any: on the same line, or in the
/// comment block directly above the statement (walking up through
/// comment/attribute lines and multiline-expression continuations until
/// the previous statement's terminator). Shared by the `failpoint-trace`
/// rule (the `// trace:` marker) and the `atomic-protocol` rule (which
/// also parses the tag's content).
pub(crate) fn marker_text(ctx: &FileCtx<'_>, line: u32, marker: &str) -> Option<String> {
    let idx = (line as usize).saturating_sub(1);
    let tail = |s: &str| s.find(marker).map(|at| s[at..].trim_end().to_string());
    if let Some(found) = ctx
        .lines
        .get(idx)
        .and_then(|s| comment_part(s).and_then(&tail))
    {
        return Some(found);
    }
    let mut up = idx;
    for _ in 0..16 {
        if up == 0 {
            return None;
        }
        up -= 1;
        let raw = ctx.lines.get(up)?;
        let s = raw.trim();
        if s.starts_with("//") || s.starts_with("/*") || s.starts_with('*') {
            if let Some(found) = tail(s) {
                return Some(found);
            }
            continue;
        }
        if s.is_empty() || s.starts_with("#[") {
            continue;
        }
        // A code line: if it terminates a statement/item, the walk is out
        // of this statement's range; otherwise it's a continuation line of
        // the same expression (method chains split across lines).
        if let Some(found) = comment_part(raw).and_then(&tail) {
            return Some(found);
        }
        if s.ends_with(';') || s.ends_with('{') || s.ends_with('}') {
            return None;
        }
    }
    None
}

/// The `// …` tail of a line, if any (good enough here: the rules' own
/// marker never appears inside string literals on the same line as an
/// atomic access).
fn comment_part(line: &str) -> Option<&str> {
    line.find("//").map(|i| &line[i..])
}

/// `failpoint-registry` (forward direction): every call site's name must
/// be registered. The meta-test pins the per-crate `FAILPOINTS` consts to
/// the registry; this rule pins the *call sites*, closing the loop — a
/// typo'd name would otherwise compile fine and silently never fire.
fn collect_failpoints(
    ctx: &FileCtx<'_>,
    sites: &mut BTreeMap<String, Vec<(PathBuf, u32)>>,
    registry_lines: &mut BTreeMap<String, u32>,
    out: &mut Vec<Diagnostic>,
) {
    if ctx.path.ends_with("crates/wh-types/src/fault.rs") || ctx.path.ends_with("fault.rs") {
        for t in &ctx.toks {
            if t.kind == Kind::Str && wh_types::fault::REGISTRY.contains(&t.text.as_str()) {
                registry_lines.entry(t.text.clone()).or_insert(t.line);
            }
        }
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if !t.is_ident("fail_point") {
            continue;
        }
        let is_call = matches!(ctx.toks.get(i + 1), Some(t) if t.is_punct('!'))
            && matches!(ctx.toks.get(i + 2), Some(t) if t.is_punct('('));
        let Some(name_tok) = ctx.toks.get(i + 3) else {
            continue;
        };
        if !is_call || name_tok.kind != Kind::Str {
            continue;
        }
        let name = name_tok.text.clone();
        if !wh_types::fault::REGISTRY.contains(&name.as_str()) {
            ctx.emit(
                out,
                "failpoint-registry",
                name_tok.line,
                format!("fail_point!(\"{name}\") is not in wh_types::fault::REGISTRY"),
            );
        }
        sites
            .entry(name)
            .or_default()
            .push((ctx.path.to_path_buf(), name_tok.line));
    }
}

pub(crate) const LATCH_CALLS: &[&str] = &[
    "read_latch",
    "write_latch",
    "try_read_latch",
    "try_write_latch",
    "lock_list",
];

/// Is the token at `i` a latch-acquiring call (`read_latch(…)` etc.)?
/// Walker-based callers never see `fn read_latch(` definitions (function
/// signatures are outside every body walk), but the guard is kept for
/// defense in depth.
pub(crate) fn latch_call_at(ctx: &FileCtx<'_>, i: usize, names: &[&str]) -> bool {
    let t = &ctx.toks[i];
    t.kind == Kind::Ident
        && names.contains(&t.text.as_str())
        && next_code(&ctx.toks, i).is_some_and(|n| n.is_punct('('))
        && !prev_code(&ctx.toks, i).is_some_and(|p| p.is_ident("fn"))
}

/// Is the token at `i` an index-registry acquisition (`indexes.read(` /
/// `indexes.write(` / `indexes_snapshot(`)?
pub(crate) fn registry_hit_at(ctx: &FileCtx<'_>, i: usize) -> bool {
    let toks = &ctx.toks;
    let t = &toks[i];
    (t.is_ident("indexes")
        && matches!(toks.get(i + 1), Some(t) if t.is_punct('.'))
        && matches!(toks.get(i + 2), Some(t) if t.is_ident("read") || t.is_ident("write"))
        && matches!(toks.get(i + 3), Some(t) if t.is_punct('(')))
        || (t.is_ident("indexes_snapshot")
            && next_code(toks, i).is_some_and(|n| n.is_punct('('))
            && !prev_code(toks, i).is_some_and(|p| p.is_ident("fn")))
}

/// Calls that open a trace span (the RAII macros plus the explicit
/// cross-call constructor). `trace_event!` is deliberately absent: an
/// instant event carries no extent, so it cannot *cover* a failpoint —
/// a site whose causal parent is an event would show an orphaned blip
/// in the flight recorder instead of an enclosing span.
const SPAN_CALLS: &[&str] = &[
    "trace_span",
    "trace_span_under",
    "timed_span",
    "timed_span_under",
    "trace_root",
    "open_ctx",
];

/// `failpoint-trace`: every `fail_point!` site must be causally visible
/// in the flight recorder. Satisfied when a span-family call
/// (`trace_span!`, `trace_span_under!`, their `timed_span!` forms,
/// `trace_root!`, or `trace::open_ctx`) appears lexically earlier in the same function, or
/// when the site carries an adjacent `// trace:` marker naming the
/// ambient span that covers it (point-op leaves whose span lives in the
/// caller). The scan is lexical and function-granular: a span opened in a
/// closed sibling block still counts as "earlier in the same fn" (the
/// walker's per-function grain), and nested fns don't inherit the parent's
/// spans.
fn failpoint_trace(ctx: &FileCtx<'_>, table: &crate::parser::FnTable, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.toks;
    for f in &table.fns {
        let mut has_span = false;
        for (i, t) in crate::walker::body_tokens(toks, table, f) {
            if ctx.in_test(i) {
                continue;
            }
            if t.kind == Kind::Ident
                && SPAN_CALLS.contains(&t.text.as_str())
                && !prev_code(toks, i).is_some_and(|p| p.is_ident("fn"))
            {
                has_span = true;
                continue;
            }
            if t.is_ident("fail_point")
                && matches!(toks.get(i + 1), Some(n) if n.is_punct('!'))
                && matches!(toks.get(i + 2), Some(n) if n.is_punct('('))
            {
                let covered = has_span || marker_text(ctx, t.line, "trace:").is_some();
                if !covered {
                    ctx.emit(
                        out,
                        "failpoint-trace",
                        t.line,
                        "fail_point! site has no enclosing trace span opened earlier in this \
                         function and no `// trace:` marker naming its ambient span"
                            .to_string(),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_one(path: &str, text: &str) -> Vec<Diagnostic> {
        analyze(&[SourceFile {
            path: PathBuf::from(path),
            text: text.to_string(),
        }])
        .into_iter()
        // The registry reverse-check needs the whole tree; single-file
        // unit tests only look at forward diagnostics.
        .filter(|d| d.file != Path::new("crates/wh-types/src/fault.rs"))
        .collect()
    }

    const LATCH_THEN_REGISTRY: &str =
        "fn f(&self) {\n    let g = write_latch(&page);\n    let snap = self.indexes_snapshot();\n}\n";

    #[test]
    fn pragma_suppresses_same_and_next_line() {
        let above = LATCH_THEN_REGISTRY.replace(
            "    let snap",
            "    // lint: allow(latch-order) — the latch is dropped above\n    let snap",
        );
        assert!(run_one("crates/a/src/lib.rs", &above).is_empty());
        let same_line = LATCH_THEN_REGISTRY.replace(
            "snapshot();",
            "snapshot(); // lint: allow(latch-order) — the latch is dropped above",
        );
        assert!(run_one("crates/a/src/lib.rs", &same_line).is_empty());
    }

    #[test]
    fn allow_file_pragma_covers_everything() {
        let src = "// lint: allow-file(atomic-protocol) — classifies the caller's ordering\n\
                   fn f(o: Ordering) -> bool { matches!(o, Ordering::Acquire) }\n\
                   fn g(o: Ordering) -> bool { matches!(o, Ordering::Release) }\n";
        assert!(run_one("crates/a/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unknown_or_unused_pragmas_are_reported() {
        let unknown = "// lint: allow(no-such-rule) — a typo or a retired rule\nfn f() {}\n";
        let d = run_one("crates/a/src/lib.rs", unknown);
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].rule, d[0].line), ("pragma", 1));
        assert!(d[0].message.contains("names no rule"), "{}", d[0]);

        let clean = "fn f(&self) {\n    // lint: allow(latch-order) — nothing to allow\n    \
                     let snap = self.indexes_snapshot();\n}\n";
        let d = run_one("crates/a/src/lib.rs", clean);
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].rule, d[0].line), ("pragma", 2));
        assert!(d[0].message.contains("suppresses nothing"), "{}", d[0]);

        let file_wide = "// lint: allow-file(atomic-protocol) — nothing to allow\nfn f() {}\n";
        let d = run_one("crates/a/src/lib.rs", file_wide);
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].rule, d[0].line), ("pragma", 1));

        // Doc comments may quote the syntax without being pragmas.
        let doc = "//! Suppress with `// lint: allow(rule-name)`.\nfn f() {}\n";
        assert!(run_one("crates/a/src/lib.rs", doc).is_empty());
    }

    #[test]
    fn ordering_needs_adjacent_comment() {
        let bad = "fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n";
        let d = run_one("crates/a/src/lib.rs", bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "atomic-protocol");

        let same_line =
            "fn f(a: &AtomicU64) { a.load(Ordering::Relaxed) } // ordering: stat-counter Relaxed — hint only\n";
        assert!(run_one("crates/a/src/lib.rs", same_line).is_empty());

        let above = "fn f(a: &AtomicU64) {\n    // ordering: stat-counter Relaxed — monotone counter, no data guarded\n    a.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(run_one("crates/a/src/lib.rs", above).is_empty());

        let chained = "fn f(s: &S) {\n    // ordering: pub-sub Acquire — pairs with the Release store in publish\n    let v = s\n        .inner\n        .load(Ordering::Acquire);\n    let _ = v;\n}\n\
             fn publish(s: &S, v: u64) {\n    // ordering: pub-sub Release — publishes v to readers\n    s.inner.store(v, Ordering::Release);\n}\n";
        assert!(run_one("crates/a/src/lib.rs", chained).is_empty());
    }

    #[test]
    fn cmp_ordering_is_ignored() {
        let src = "fn f(a: i32, b: i32) -> Ordering { if a < b { Ordering::Less } else { Ordering::Greater } }\n";
        assert!(run_one("crates/a/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unknown_failpoint_name_is_flagged() {
        let d = run_one(
            "crates/a/src/lib.rs",
            "fn f() -> Result<(), E> {\n    let _ts = wh_obs::trace_span!(\"a.f\");\n    \
             fail_point!(\"no.such.point\");\n    Ok(())\n}\n",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "failpoint-registry");
        assert!(d[0].message.contains("no.such.point"));
    }

    #[test]
    fn failpoint_without_span_or_marker_is_flagged() {
        let bare = "fn f() -> Result<(), E> { fail_point!(\"vnl.version.begin\"); Ok(()) }\n";
        let d = run_one("crates/a/src/lib.rs", bare);
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].rule, d[0].line), ("failpoint-trace", 1));

        // A span-family call earlier in the same fn covers the site, even
        // from a sibling block that has since closed.
        let spanned = "fn f() -> Result<(), E> {\n    \
             { let _ts = wh_obs::trace_span_under!(\"a.f\", ctx); }\n    \
             fail_point!(\"vnl.version.begin\");\n    Ok(())\n}\n";
        assert!(run_one("crates/a/src/lib.rs", spanned).is_empty());

        // The timed forms open the same span, so they cover it too.
        let timed = "fn f() -> Result<(), E> {\n    \
             let _ts = wh_obs::timed_span!(\"a.f\", \"a.f_ns\");\n    \
             fail_point!(\"vnl.version.begin\");\n    Ok(())\n}\n";
        assert!(run_one("crates/a/src/lib.rs", timed).is_empty());

        // An adjacent `// trace:` marker names the ambient span instead.
        let marked = "fn f() -> Result<(), E> {\n    \
             // trace: covered by the caller's vnl.txn span.\n    \
             fail_point!(\"vnl.version.begin\");\n    Ok(())\n}\n";
        assert!(run_one("crates/a/src/lib.rs", marked).is_empty());

        // trace_event! is an instant, not an extent — it does not count.
        let event_only = "fn f() -> Result<(), E> {\n    \
             wh_obs::trace_event!(\"a.f\");\n    \
             fail_point!(\"vnl.version.begin\");\n    Ok(())\n}\n";
        let d = run_one("crates/a/src/lib.rs", event_only);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "failpoint-trace");

        // A span in an *earlier* fn does not leak into the next one.
        let split = "fn a() { let _ts = wh_obs::trace_span!(\"a\"); }\n\
             fn b() -> Result<(), E> { fail_point!(\"vnl.version.begin\"); Ok(()) }\n";
        let d = run_one("crates/a/src/lib.rs", split);
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].rule, d[0].line), ("failpoint-trace", 2));
    }

    #[test]
    fn latch_then_registry_is_flagged_registry_then_latch_is_not() {
        let d = run_one("crates/a/src/lib.rs", LATCH_THEN_REGISTRY);
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].rule, d[0].line), ("latch-order", 3));

        let good = "fn f(&self) {\n    let snap = self.indexes_snapshot();\n    let g = write_latch(&page);\n}\n";
        assert!(run_one("crates/a/src/lib.rs", good).is_empty());

        // Separate functions don't contaminate each other.
        let split =
            "fn a(&self) { let g = write_latch(&p); }\nfn b(&self) { self.indexes.read(); }\n";
        assert!(run_one("crates/a/src/lib.rs", split).is_empty());
    }

    #[test]
    fn diagnostics_render_with_file_and_line() {
        let d = run_one("crates/a/src/lib.rs", LATCH_THEN_REGISTRY);
        let rendered = d[0].to_string();
        assert!(
            rendered.starts_with("crates/a/src/lib.rs:3: [latch-order]"),
            "{rendered}"
        );
    }
}
