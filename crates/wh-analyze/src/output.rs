//! Diagnostic renderers for `--format json|github`.
//!
//! Both are hand-rolled (the workspace is dependency-free by policy):
//! JSON strings escape the control set plus `"`/`\`; GitHub workflow
//! commands percent-escape `%`, CR, and LF per the workflow-command
//! grammar so multi-line messages survive annotation rendering.

use crate::rules::Diagnostic;

/// `::error file=F,line=N,title=RULE::MSG` — one GitHub annotation per
/// diagnostic.
pub fn render_github(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diagnostics {
        let mut msg = d.message.clone();
        if let Some(f) = &d.function {
            msg.push_str(&format!(" (in {f})"));
        }
        out.push_str(&format!(
            "::error file={},line={},title={}::{}\n",
            gh_escape(&d.file.display().to_string()),
            d.line,
            gh_escape(d.rule),
            gh_escape(&msg)
        ));
    }
    out
}

fn gh_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// A JSON array of `{file, line, rule, function, message}` objects, one
/// per diagnostic, stable order, trailing newline.
pub fn render_json(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {");
        out.push_str(&format!(
            "\"file\": {}, \"line\": {}, \"rule\": {}, \"function\": {}, \"message\": {}",
            json_string(&d.file.display().to_string()),
            d.line,
            json_string(d.rule),
            d.function
                .as_deref()
                .map_or_else(|| "null".to_string(), json_string),
            json_string(&d.message)
        ));
        out.push('}');
    }
    if !diagnostics.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn diag(msg: &str) -> Diagnostic {
        Diagnostic {
            file: PathBuf::from("crates/a/src/lib.rs"),
            line: 7,
            rule: "latch-order",
            function: Some("a::f".to_string()),
            message: msg.to_string(),
        }
    }

    #[test]
    fn github_escapes_workflow_metacharacters() {
        let out = render_github(&[diag("50% done\nnext line")]);
        assert_eq!(
            out,
            "::error file=crates/a/src/lib.rs,line=7,title=latch-order::50%25 done%0Anext line (in a::f)\n"
        );
    }

    #[test]
    fn json_is_wellformed_and_escaped() {
        let out = render_json(&[diag("quote \" and \\ backslash")]);
        assert!(out.contains("\"rule\": \"latch-order\""));
        assert!(out.contains("\\\" and \\\\ backslash"));
        assert!(out.contains("\"function\": \"a::f\""));
        let mut d = diag("x");
        d.function = None;
        assert!(render_json(&[d]).contains("\"function\": null"));
        assert_eq!(render_json(&[]), "[]\n");
    }
}
