//! Item-level parsing: from the token stream to a per-file function table.
//!
//! The lexer ([`crate::lexer`]) knows nothing about structure; this module
//! adds just enough — module nesting, `impl`/`trait` blocks, `fn` items
//! with their body token ranges — for the interprocedural rules to name
//! every function (`crate::module::Type::fn`), attach diagnostics to the
//! enclosing function, and build the workspace call graph
//! ([`crate::callgraph`]). It is still a hand-rolled single pass (no
//! `syn`, per the dependency policy): a scope stack driven by `{`/`}`
//! with a small pending-item state machine, the same shape the legacy
//! per-rule scanners used, now shared.
//!
//! Deliberate simplifications, documented because the rules inherit them:
//!
//! * closures are part of the enclosing function (they get no entry);
//! * nested `fn` items get their own entry, and their body tokens are
//!   *excluded* from the parent's walk (see [`crate::walker`]);
//! * `impl Trait for Type` attributes functions to `Type`; a bare
//!   `trait Name { fn … }` default body is attributed to `Name`;
//! * generic parameters and `where` clauses are skipped, not understood.

use crate::lexer::{Kind, Tok};
use std::path::Path;

/// One `fn` item: identity, location, and body extent.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Simple name (`scan_serial`).
    pub name: String,
    /// Fully qualified path (`wh_vnl::table::VnlTable::scan_serial`).
    pub qual: String,
    /// Enclosing `impl`/`trait` type name, if any (`VnlTable`).
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub sig_line: u32,
    /// Token index of the `fn` keyword.
    pub sig_start: usize,
    /// Last line of the body (the closing `}`); equals `sig_line` for
    /// bodiless declarations.
    pub end_line: u32,
    /// Token-index range of the body *interior* (between the braces),
    /// empty for bodiless trait-method declarations.
    pub body: std::ops::Range<usize>,
    /// Number of parameters, `self` excluded.
    pub arity: usize,
    /// `pub` with no restriction — a workspace-external entry point.
    pub is_pub: bool,
    /// Inside a `#[cfg(test)]` item.
    pub is_test: bool,
    /// Indices (into the same table) of `fn` items nested in this body.
    pub nested: Vec<usize>,
}

/// All functions of one file, in source order.
#[derive(Debug, Default)]
pub struct FnTable {
    pub fns: Vec<FnInfo>,
}

impl FnTable {
    /// The function whose body (or signature line) contains `line`,
    /// preferring the innermost (latest-starting) match. Used to attach
    /// diagnostics to their enclosing function.
    pub fn enclosing(&self, line: u32) -> Option<&FnInfo> {
        self.fns
            .iter()
            .filter(|f| f.sig_line <= line && line <= f.end_line)
            .max_by_key(|f| f.sig_line)
    }
}

/// Crate name for a root-relative path: `crates/wh-vnl/src/…` → `wh_vnl`,
/// the root package's `src/…` → `warehouse_2vnl`.
pub fn crate_name(path: &Path) -> String {
    let mut comps = path.components().map(|c| c.as_os_str().to_string_lossy());
    match comps.next().as_deref() {
        Some("crates") => comps
            .next()
            .map_or_else(|| "unknown".into(), |c| c.replace('-', "_")),
        Some("src") => "warehouse_2vnl".into(),
        _ => "unknown".into(),
    }
}

/// Module path segments implied by the file's location under `src/`:
/// `src/lib.rs` → `[]`, `src/scan.rs` → `["scan"]`,
/// `src/resilience/mod.rs` → `["resilience"]`,
/// `src/resilience/retry.rs` → `["resilience", "retry"]`.
fn file_modules(path: &Path) -> Vec<String> {
    let mut segs: Vec<String> = Vec::new();
    let mut after_src = false;
    for c in path.components() {
        let c = c.as_os_str().to_string_lossy();
        if !after_src {
            after_src = c == "src";
            continue;
        }
        segs.push(c.into_owned());
    }
    if let Some(last) = segs.last_mut() {
        if let Some(stem) = last.strip_suffix(".rs") {
            *last = stem.to_string();
        }
    }
    if let Some("lib" | "main" | "mod") = segs.last().map(String::as_str) {
        segs.pop();
    }
    // Binary targets under src/bin get their file stem as the "module".
    segs
}

/// Keywords that can precede `fn` in an item header.
const FN_QUALIFIERS: &[&str] = &["const", "async", "unsafe", "extern"];

enum Scope {
    Mod(String),
    Impl(String),
    /// A `fn` body: index into the output table.
    Fn(usize),
    Other,
}

enum Pending {
    None,
    /// `mod name` seen, `{` not yet.
    Mod(String),
    /// `impl` seen; header tokens collected until `{`.
    Impl(Vec<Tok>),
    /// `trait Name` seen.
    Trait(String),
    /// `fn name` seen; signature tokens collected until `{` or `;`.
    Fn {
        name: String,
        line: u32,
        start: usize,
        is_pub: bool,
        sig: Vec<Tok>,
    },
}

/// Parse one file's tokens into a function table. `test_ranges` are the
/// `#[cfg(test)]` token ranges already computed by the rule context.
pub fn parse(path: &Path, toks: &[Tok], test_ranges: &[(usize, usize)]) -> FnTable {
    let krate = crate_name(path);
    let mut mods = file_modules(path);
    mods.insert(0, krate);
    let in_test = |i: usize| -> bool { test_ranges.iter().any(|&(lo, hi)| i >= lo && i < hi) };

    let mut table = FnTable::default();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending = Pending::None;
    // Current module / impl-type context, updated as scopes push and pop.
    let code = |t: &Tok| t.kind != Kind::LineComment && t.kind != Kind::BlockComment;

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if !code(t) {
            i += 1;
            continue;
        }
        // `macro_rules!` definitions are opaque: their template tokens
        // (`pub mod $name { … }`, `fn store(…)`) are not items and must
        // not enter the table — wh-model's `model_atomic!` shims would
        // otherwise pollute call resolution workspace-wide.
        if t.is_ident("macro_rules") && matches!(next_code(toks, i), Some(n) if n.is_punct('!')) {
            i = skip_macro_def(toks, i);
            continue;
        }
        match (&mut pending, t.kind, t.text.as_str()) {
            // --- pending-item starters -------------------------------------
            (Pending::None, Kind::Ident, "mod") => {
                if let Some(n) = next_code(toks, i).filter(|n| n.kind == Kind::Ident) {
                    pending = Pending::Mod(n.text.clone());
                    i += 2;
                    continue;
                }
            }
            (Pending::None, Kind::Ident, "trait") => {
                if let Some(n) = next_code(toks, i).filter(|n| n.kind == Kind::Ident) {
                    pending = Pending::Trait(n.text.clone());
                    i += 2;
                    continue;
                }
            }
            (Pending::None, Kind::Ident, "impl") => {
                pending = Pending::Impl(Vec::new());
            }
            (Pending::None | Pending::Impl(_) | Pending::Trait(_), Kind::Ident, "fn") => {
                // `fn` inside an impl/trait header never happens; a `fn`
                // while Impl/Trait is pending would mean `impl Fn(..)`
                // bounds — those are `Fn`/`FnMut` idents, not `fn`. A real
                // `fn` item must be followed by its name.
                if let Some(n) = next_code(toks, i).filter(|n| n.kind == Kind::Ident) {
                    let is_pub = vis_is_pub(toks, i);
                    pending = Pending::Fn {
                        name: n.text.clone(),
                        line: t.line,
                        start: i,
                        is_pub,
                        sig: Vec::new(),
                    };
                    i += 2;
                    continue;
                }
            }
            // --- collect header/signature tokens ---------------------------
            (Pending::Impl(hdr), _, _) if !t.is_punct('{') => {
                hdr.push(t.clone());
            }
            (Pending::Fn { sig, .. }, _, _) if !t.is_punct('{') && !t.is_punct(';') => {
                sig.push(t.clone());
            }
            _ => {}
        }

        if t.is_punct('{') {
            let scope = match std::mem::replace(&mut pending, Pending::None) {
                Pending::Mod(name) => Scope::Mod(name),
                Pending::Impl(hdr) => Scope::Impl(impl_type_name(&hdr)),
                Pending::Trait(name) => Scope::Impl(name),
                Pending::Fn {
                    name,
                    line,
                    start,
                    is_pub,
                    sig,
                } => {
                    let idx = push_fn(
                        &mut table,
                        &mods,
                        &scopes,
                        name,
                        line,
                        start,
                        is_pub,
                        &sig,
                        in_test(i),
                    );
                    table.fns[idx].body = i + 1..i + 1; // end patched on close
                    Scope::Fn(idx)
                }
                Pending::None => Scope::Other,
            };
            scopes.push(scope);
        } else if t.is_punct('}') {
            if let Some(Scope::Fn(idx)) = scopes.pop() {
                table.fns[idx].body.end = i;
                table.fns[idx].end_line = t.line;
                // Link into the nearest enclosing fn, if any.
                if let Some(parent) = scopes.iter().rev().find_map(|s| match s {
                    Scope::Fn(p) => Some(*p),
                    _ => None,
                }) {
                    table.fns[parent].nested.push(idx);
                }
            }
        } else if t.is_punct(';') {
            // Terminates `mod m;`, `impl … for …;` (never), or a bodiless
            // `fn f(…);` trait-method declaration — drop any pending item.
            pending = Pending::None;
        }
        i += 1;
        // Silence "unused" on the module prefix vector reborrow.
        let _ = &mods;
    }
    table
}

/// Skip a `macro_rules! name { … }` definition starting at the
/// `macro_rules` token; returns the index just past its closing
/// delimiter (or `toks.len()` on malformed input).
fn skip_macro_def(toks: &[Tok], i: usize) -> usize {
    let mut j = i + 1;
    // Find the rules group opener: the first (, [ or { after the name.
    let (open, close) = loop {
        match toks.get(j) {
            Some(t) if t.is_punct('(') => break ('(', ')'),
            Some(t) if t.is_punct('[') => break ('[', ']'),
            Some(t) if t.is_punct('{') => break ('{', '}'),
            Some(_) => j += 1,
            None => return toks.len(),
        }
    };
    let mut depth = 0i32;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    toks.len()
}

fn next_code(toks: &[Tok], i: usize) -> Option<&Tok> {
    toks[i + 1..]
        .iter()
        .find(|t| t.kind != Kind::LineComment && t.kind != Kind::BlockComment)
}

/// Whether the `fn` at token `i` is `pub` with no `(…)` restriction:
/// scan backwards over qualifier keywords to the optional visibility.
fn vis_is_pub(toks: &[Tok], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        if t.kind == Kind::LineComment || t.kind == Kind::BlockComment {
            continue;
        }
        match t.kind {
            Kind::Ident if FN_QUALIFIERS.contains(&t.text.as_str()) => continue,
            Kind::Str => continue, // `extern "C"`
            Kind::Punct if t.is_punct(')') => {
                // Could be the close of `pub(crate)` — restricted, so not
                // public regardless; stop either way.
                return false;
            }
            Kind::Ident if t.text == "pub" => return true,
            _ => return false,
        }
    }
    false
}

/// The `Self`-type name of an impl header: the first plain identifier at
/// angle-depth 0 after `for` when present (`impl Tr for Type`), otherwise
/// the first such identifier (`impl Type<…>`). Built-in generics and
/// references are skipped; an unnameable target (e.g. `impl … for &[T]`)
/// yields `"_"`.
fn impl_type_name(hdr: &[Tok]) -> String {
    let name_after = |toks: &[Tok]| -> Option<String> {
        let mut angle = 0i32;
        for t in toks {
            match t.kind {
                Kind::Punct if t.is_punct('<') => angle += 1,
                Kind::Punct if t.is_punct('>') => angle = (angle - 1).max(0),
                Kind::Ident
                    if angle == 0 && t.text != "dyn" && t.text != "mut" && t.text != "where" =>
                {
                    return Some(t.text.clone());
                }
                _ => {}
            }
        }
        None
    };
    let mut angle = 0i32;
    for (i, t) in hdr.iter().enumerate() {
        match t.kind {
            Kind::Punct if t.is_punct('<') => angle += 1,
            Kind::Punct if t.is_punct('>') => angle = (angle - 1).max(0),
            Kind::Ident if angle == 0 && t.text == "for" => {
                return name_after(&hdr[i + 1..]).unwrap_or_else(|| "_".into());
            }
            _ => {}
        }
    }
    name_after(hdr).unwrap_or_else(|| "_".into())
}

/// Parameter count of a signature token list (everything between the fn
/// name and the body), `self` excluded. Closure parameter lists inside
/// default-argument expressions do not occur in this codebase.
fn sig_arity(sig: &[Tok]) -> usize {
    // Find the parameter group: first `(` at angle-depth 0.
    let mut angle = 0i32;
    let mut start = None;
    for (i, t) in sig.iter().enumerate() {
        match t.kind {
            Kind::Punct if t.is_punct('<') => angle += 1,
            Kind::Punct if t.is_punct('>') => angle = (angle - 1).max(0),
            Kind::Punct if t.is_punct('(') && angle == 0 => {
                start = Some(i);
                break;
            }
            _ => {}
        }
    }
    let Some(start) = start else { return 0 };
    // A comma separates parameters only at paren depth 1 outside `<…>`
    // (`m: HashMap<K, V>`), and only after a parameter token — as in
    // `callgraph::call_arity` — so rustfmt's trailing comma adds nothing.
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut args = 0usize;
    let mut saw_arg = false;
    let mut first_arg: Vec<&Tok> = Vec::new();
    let mut prev_arrow_dash = false;
    for t in &sig[start..] {
        let after_dash = std::mem::replace(&mut prev_arrow_dash, t.is_punct('-'));
        match t.kind {
            Kind::LineComment | Kind::BlockComment => continue,
            Kind::Punct if t.is_punct(',') && depth == 1 && angle == 0 => {
                args += usize::from(saw_arg);
                saw_arg = false;
                continue;
            }
            Kind::Punct if ")]".contains(&t.text) => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Kind::Punct if "([".contains(&t.text) => {
                depth += 1;
                if depth == 1 {
                    continue; // the parameter group's own `(`
                }
            }
            Kind::Punct if t.is_punct('<') => angle += 1,
            // `->` in a fn-pointer or closure type closes no generic.
            Kind::Punct if t.is_punct('>') && !after_dash => angle = (angle - 1).max(0),
            _ => {}
        }
        if args == 0 {
            first_arg.push(t);
        }
        saw_arg = true;
    }
    let mut n = args + usize::from(saw_arg);
    if n == 0 {
        return 0;
    }
    // `self`, `&self`, `&mut self`, `mut self`, `self: Arc<Self>`.
    if first_arg
        .iter()
        .find(|t| t.kind == Kind::Ident && t.text != "mut")
        .is_some_and(|t| t.text == "self")
    {
        n -= 1;
    }
    n
}

#[allow(clippy::too_many_arguments)]
fn push_fn(
    table: &mut FnTable,
    mods: &[String],
    scopes: &[Scope],
    name: String,
    line: u32,
    sig_start: usize,
    is_pub: bool,
    sig: &[Tok],
    is_test: bool,
) -> usize {
    let mut qual: Vec<&str> = mods.iter().map(String::as_str).collect();
    let mut impl_type = None;
    for s in scopes {
        match s {
            Scope::Mod(m) => qual.push(m),
            Scope::Impl(ty) => {
                impl_type = Some(ty.clone());
            }
            _ => {}
        }
    }
    if let Some(ty) = &impl_type {
        qual.push(ty);
    }
    qual.push(&name);
    let info = FnInfo {
        qual: qual.join("::"),
        impl_type,
        sig_line: line,
        sig_start,
        end_line: line,
        body: 0..0,
        arity: sig_arity(sig),
        is_pub,
        is_test,
        nested: Vec::new(),
        name,
    };
    table.fns.push(info);
    table.fns.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn parse_src(path: &str, src: &str) -> FnTable {
        let toks = crate::lexer::lex(src);
        let ranges = crate::rules::test_ranges(&toks);
        parse(&PathBuf::from(path), &toks, &ranges)
    }

    #[test]
    fn free_fns_and_methods_get_qualified_names() {
        let t = parse_src(
            "crates/wh-vnl/src/table.rs",
            "pub fn free(a: u32, b: u32) -> u32 { a + b }\n\
             struct VnlTable;\n\
             impl VnlTable {\n    pub(crate) fn scan(&self, vn: u64) -> u64 { vn }\n}\n\
             impl Drop for VnlTable { fn drop(&mut self) {} }\n",
        );
        let quals: Vec<(&str, usize, bool)> = t
            .fns
            .iter()
            .map(|f| (f.qual.as_str(), f.arity, f.is_pub))
            .collect();
        assert_eq!(
            quals,
            vec![
                ("wh_vnl::table::free", 2, true),
                ("wh_vnl::table::VnlTable::scan", 1, false),
                ("wh_vnl::table::VnlTable::drop", 0, false),
            ]
        );
    }

    #[test]
    fn nested_fns_and_modules() {
        let t = parse_src(
            "crates/a/src/lib.rs",
            "mod inner {\n    pub fn outer() {\n        fn helper(x: u8) -> u8 { x }\n        helper(1);\n    }\n}\n",
        );
        assert_eq!(t.fns.len(), 2);
        assert_eq!(t.fns[0].qual, "a::inner::outer");
        assert_eq!(t.fns[1].qual, "a::inner::helper");
        assert_eq!(t.fns[0].nested, vec![1]);
        // The helper's body tokens are inside the outer body range.
        assert!(t.fns[0].body.start < t.fns[1].body.start);
        assert!(t.fns[1].body.end <= t.fns[0].body.end);
    }

    #[test]
    fn bodiless_trait_methods_are_skipped_defaults_are_kept() {
        let t = parse_src(
            "crates/a/src/lib.rs",
            "trait Tr {\n    fn required(&self, x: u8);\n    fn provided(&self) -> u8 { 1 }\n}\n",
        );
        assert_eq!(t.fns.len(), 1);
        assert_eq!(t.fns[0].qual, "a::Tr::provided");
    }

    #[test]
    fn generic_impls_resolve_the_self_type() {
        let t = parse_src(
            "crates/a/src/lib.rs",
            "impl<T: Clone> RetireList<T> {\n    fn locked(&self) {}\n}\n\
             impl<'a> Drop for EpochPin<'a> { fn drop(&mut self) {} }\n",
        );
        assert_eq!(t.fns[0].qual, "a::RetireList::locked");
        assert_eq!(t.fns[1].qual, "a::EpochPin::drop");
    }

    #[test]
    fn fn_pointer_types_and_closures_are_not_items() {
        let t = parse_src(
            "crates/a/src/lib.rs",
            "fn f(cb: fn(u8) -> u8) -> u8 {\n    let g = |x: u8| cb(x);\n    g(1)\n}\n",
        );
        assert_eq!(t.fns.len(), 1);
        assert_eq!(t.fns[0].name, "f");
        assert_eq!(t.fns[0].arity, 1);
    }

    #[test]
    fn trailing_commas_add_no_parameter() {
        let t = parse_src(
            "crates/a/src/lib.rs",
            "fn wide(\n    a: u8,\n    b: u8,\n) -> u8 {\n    a + b\n}\n\
             impl T {\n    fn m(\n        &self,\n        x: u8,\n    ) {}\n}\n\
             fn none() {}\nfn trailing_only(a: u8,) {}\n",
        );
        let arities: Vec<(&str, usize)> =
            t.fns.iter().map(|f| (f.name.as_str(), f.arity)).collect();
        assert_eq!(
            arities,
            vec![("wide", 2), ("m", 1), ("none", 0), ("trailing_only", 1)]
        );
    }

    #[test]
    fn commas_inside_generics_and_nested_groups_are_not_separators() {
        let t = parse_src(
            "crates/a/src/lib.rs",
            "fn g(m: HashMap<K, Vec<(u8, u8)>>, f: Box<dyn Fn(u8, u8) -> u8>, t: (u8, u8)) {}\n\
             fn h<K, V>(m: &HashMap<K, V>, cb: fn(u8) -> Result<u8, E>, n: &[u8],) {}\n",
        );
        assert_eq!(t.fns[0].arity, 3);
        assert_eq!(t.fns[1].arity, 3);
    }

    #[test]
    fn test_fns_are_marked() {
        let t = parse_src(
            "crates/a/src/lib.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn dead() {}\n}\n",
        );
        assert!(!t.fns[0].is_test);
        assert!(t.fns[1].is_test);
    }

    #[test]
    fn enclosing_prefers_innermost() {
        let t = parse_src(
            "crates/a/src/lib.rs",
            "fn outer() {\n    fn inner() {\n        let _x = 1;\n    }\n}\n",
        );
        assert_eq!(t.enclosing(3).map(|f| f.name.as_str()), Some("inner"));
        assert_eq!(t.enclosing(1).map(|f| f.name.as_str()), Some("outer"));
        assert!(t.enclosing(40).is_none());
    }

    #[test]
    fn file_module_paths() {
        for (p, want) in [
            ("crates/wh-vnl/src/lib.rs", "wh_vnl"),
            ("crates/wh-vnl/src/resilience/mod.rs", "wh_vnl::resilience"),
            (
                "crates/wh-vnl/src/resilience/retry.rs",
                "wh_vnl::resilience::retry",
            ),
            ("src/lib.rs", "warehouse_2vnl"),
        ] {
            let t = parse_src(p, "fn probe() {}\n");
            assert_eq!(t.fns[0].qual, format!("{want}::probe"), "{p}");
        }
    }
}
