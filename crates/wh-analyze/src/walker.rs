//! Shared function-body walker.
//!
//! Before the item parser existed, each function-scoped per-file rule
//! carried its own brace-tracking `pending_fn` scanner to answer "which
//! function does this token belong to?". `failpoint_trace` now walks the
//! bodies the parser produced instead; the interprocedural rules
//! ([`crate::interproc`], [`crate::protocol`]) use the same walk.
//!
//! The walk preserves the legacy scanners' semantics exactly:
//!
//! * closures and inner blocks belong to the enclosing function;
//! * nested `fn` items do **not** — their tokens (signature included,
//!   so `helper(` in `fn helper(…)` never looks like a call) are skipped
//!   in the parent's walk and visited in their own;
//! * comments are skipped.

use crate::lexer::{Kind, Tok};
use crate::parser::{FnInfo, FnTable};

/// Token-index ranges of `f`'s own body: the body interior minus each
/// nested `fn` item (from its `fn` keyword through its closing brace).
pub fn own_ranges(table: &FnTable, f: &FnInfo) -> Vec<std::ops::Range<usize>> {
    let mut ranges = Vec::new();
    let mut pos = f.body.start;
    for &n in &f.nested {
        let nested = &table.fns[n];
        let hole_start = nested.sig_start;
        // `body.end` is the index *of* the closing brace; skip past it.
        let hole_end = nested.body.end + 1;
        if hole_start > pos {
            ranges.push(pos..hole_start.min(f.body.end));
        }
        pos = pos.max(hole_end);
    }
    if pos < f.body.end {
        ranges.push(pos..f.body.end);
    }
    ranges
}

/// Iterate `f`'s own body tokens (nested fns and comments excluded),
/// yielding `(token_index, token)` in source order.
pub fn body_tokens<'a>(
    toks: &'a [Tok],
    table: &'a FnTable,
    f: &'a FnInfo,
) -> impl Iterator<Item = (usize, &'a Tok)> + 'a {
    own_ranges(table, f).into_iter().flat_map(move |r| {
        toks[r.clone()]
            .iter()
            .enumerate()
            .map(move |(off, t)| (r.start + off, t))
            .filter(|(_, t)| t.kind != Kind::LineComment && t.kind != Kind::BlockComment)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn nested_fn_tokens_are_excluded_from_parent_walk() {
        let src = "fn outer() {\n    before();\n    fn helper(x: u8) -> u8 { inner(x) }\n    after();\n}\n";
        let toks = crate::lexer::lex(src);
        let table = crate::parser::parse(&PathBuf::from("crates/a/src/lib.rs"), &toks, &[]);
        assert_eq!(table.fns.len(), 2);
        let outer = &table.fns[0];
        let idents: Vec<&str> = body_tokens(&toks, &table, outer)
            .filter(|(_, t)| t.kind == crate::lexer::Kind::Ident)
            .map(|(_, t)| t.text.as_str())
            .collect();
        assert_eq!(idents, vec!["before", "after"]);
        let helper = &table.fns[1];
        let idents: Vec<&str> = body_tokens(&toks, &table, helper)
            .filter(|(_, t)| t.kind == crate::lexer::Kind::Ident)
            .map(|(_, t)| t.text.as_str())
            .collect();
        assert_eq!(idents, vec!["inner", "x"]);
    }

    #[test]
    fn closures_stay_in_the_enclosing_body() {
        let src = "fn f() {\n    run(|x| handle(x));\n}\n";
        let toks = crate::lexer::lex(src);
        let table = crate::parser::parse(&PathBuf::from("crates/a/src/lib.rs"), &toks, &[]);
        let idents: Vec<&str> = body_tokens(&toks, &table, &table.fns[0])
            .filter(|(_, t)| t.kind == crate::lexer::Kind::Ident)
            .map(|(_, t)| t.text.as_str())
            .collect();
        assert_eq!(idents, vec!["run", "x", "handle", "x"]);
    }
}
