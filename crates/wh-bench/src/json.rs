//! Minimal JSON document builder shared by the `report_*` bins.
//!
//! Every experiment report writes a machine-readable `BENCH_*.json` next to
//! its human-readable table. The repo takes no external dependencies, so
//! this is the one hand-rolled JSON writer — the bins build a [`Json`] tree
//! and hand it to [`write_report`], which honors the `WH_BENCH_OUT` override
//! the CI jobs use to redirect artifacts.

// Report-writer support: a failed write aborts the bench run; there is no
// caller to propagate to.
#![expect(clippy::panic, reason = "a failed report write aborts the run")]
use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order (reports read better when
/// fields appear in the order the experiment produced them).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    UInt(u64),
    /// Rendered with `{}` (shortest roundtrip form).
    Float(f64),
    /// Rendered with fixed precision — `Fixed(1.23456, 3)` → `1.235`.
    Fixed(f64, u8),
    Str(String),
    /// Pre-rendered JSON spliced in verbatim (e.g. a
    /// `wh_obs::registry::Snapshot::to_json()` document).
    Raw(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: an object from `(key, value)` pairs.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Render as pretty-printed JSON (2-space indent, trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(f) => render_float(out, *f),
            Json::Fixed(f, prec) => {
                if f.is_finite() {
                    let _ = write!(out, "{f:.prec$}", prec = *prec as usize);
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_string(out, s),
            Json::Raw(r) => out.push_str(r.trim_end()),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.render_into(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    render_string(out, key);
                    out.push_str(": ");
                    value.render_into(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

impl Json {
    /// Object field lookup (first match; reports never duplicate keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value as `f64` (any numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::UInt(n) => Some(*n as f64),
            Json::Float(f) | Json::Fixed(f, _) => Some(*f),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse a JSON document (the counterpart of [`Json::render`]; `benchmark/`
/// reads `BENCHMARK.json` and its own result files back through it).
/// Numbers parse to [`Json::Float`]; `Raw` never round-trips (it re-parses
/// as whatever it spliced).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_string())?;
        s.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("bad number '{s}' at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u{hex}"))?;
                            self.pos += 4;
                            // Reports only emit BMP scalars; surrogates
                            // degrade to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        c => return Err(format!("bad escape '\\{}'", c as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through verbatim).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "non-utf8 string".to_string())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::UInt(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::UInt(n as u64)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(n)
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn render_float(out: &mut String, f: f64) {
    if f.is_finite() {
        let _ = write!(out, "{f}");
    } else {
        // NaN/inf have no JSON form; null keeps the document parseable.
        out.push_str("null");
    }
}

fn render_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Resolve the output path for a report: `WH_BENCH_OUT` when set, else
/// `default_name` in the working directory.
pub fn out_path(default_name: &str) -> String {
    std::env::var("WH_BENCH_OUT").unwrap_or_else(|_| default_name.to_string())
}

/// The commit the report was built from: `git rev-parse --short=12 HEAD`,
/// or `"unknown"` outside a git checkout.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `YYYY-MM-DDTHH:MM:SSZ` from a unix timestamp (days-from-civil inverse,
/// Gregorian; no external time crate per the dependency policy).
fn utc_from_unix(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    // Howard Hinnant's civil_from_days.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        (rem % 3600) / 60,
        rem % 60
    )
}

/// Cargo features this report binary was compiled with (the ones that
/// change what a benchmark measures).
fn enabled_features() -> Vec<Json> {
    let mut features = Vec::new();
    if wh_obs::is_enabled() {
        features.push(Json::from("obs"));
    }
    if cfg!(feature = "failpoints") {
        features.push(Json::from("failpoints"));
    }
    features
}

/// Provenance block stamped onto every `BENCH_*.json`: git SHA, wall-clock
/// timestamp, and the compiled feature set, so the committed perf
/// trajectory stays attributable across PRs.
pub fn provenance() -> Json {
    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    Json::obj([
        ("git_sha", Json::Str(git_sha())),
        ("unix_secs", Json::UInt(unix_secs)),
        ("utc", Json::Str(utc_from_unix(unix_secs))),
        ("features", Json::Array(enabled_features())),
        ("profile", {
            if cfg!(debug_assertions) {
                "debug".into()
            } else {
                "release".into()
            }
        }),
    ])
}

fn with_provenance(doc: &Json) -> Json {
    match doc {
        Json::Object(fields) if doc.get("provenance").is_none() => {
            let mut fields = fields.clone();
            fields.push(("provenance".to_string(), provenance()));
            Json::Object(fields)
        }
        other => other.clone(),
    }
}

/// Write `doc` to [`out_path`]`(default_name)` and announce the path on
/// stdout, as every report bin does. Object documents are stamped with a
/// [`provenance`] block unless they already carry one.
pub fn write_report(default_name: &str, doc: &Json) -> String {
    let path = out_path(default_name);
    std::fs::write(&path, with_provenance(doc).render())
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote {path}");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_documents() {
        let doc = Json::obj([
            ("experiment", "E18".into()),
            ("rows", 100usize.into()),
            ("quick", false.into()),
            (
                "results",
                Json::Array(vec![Json::obj([
                    ("threads", 4usize.into()),
                    ("median_ms", Json::Fixed(1.23456, 3)),
                ])]),
            ),
        ]);
        let text = doc.render();
        assert!(text.contains("\"experiment\": \"E18\""));
        assert!(text.contains("\"median_ms\": 1.235"));
        assert!(text.ends_with("}\n"));
        // Brackets balance — cheap well-formedness check.
        let opens = text.matches(['{', '[']).count();
        let closes = text.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn escapes_strings_and_handles_non_finite() {
        let doc = Json::Object(vec![
            ("quote\"\\".to_string(), Json::Str("line\nbreak".into())),
            ("nan".to_string(), Json::Float(f64::NAN)),
            ("inf".to_string(), Json::Fixed(f64::INFINITY, 2)),
        ]);
        let text = doc.render();
        assert!(text.contains("\"quote\\\"\\\\\""));
        assert!(text.contains("\\nbreak"));
        assert!(text.contains("\"nan\": null"));
        assert!(text.contains("\"inf\": null"));
    }

    #[test]
    fn raw_splices_verbatim() {
        let doc = Json::obj([("snapshot", Json::Raw("{\"a\": 1}\n".into()))]);
        assert!(doc.render().contains("\"snapshot\": {\"a\": 1}"));
    }

    #[test]
    fn empty_containers_render_compact() {
        assert_eq!(Json::Array(vec![]).render(), "[]\n");
        assert_eq!(Json::Object(vec![]).render(), "{}\n");
    }

    #[test]
    fn parse_roundtrips_a_report_document() {
        let doc = Json::obj([
            ("experiment", "E18/E22".into()),
            ("quick", false.into()),
            ("nothing", Json::Null),
            (
                "results",
                Json::Array(vec![Json::obj([
                    ("pipeline", "batched".into()),
                    ("threads", 4usize.into()),
                    ("median_ms", Json::Fixed(1.25, 3)),
                    ("note", Json::Str("a\"b\\c\nd".into())),
                ])]),
            ),
        ]);
        let parsed = parse(&doc.render()).expect("parse rendered report");
        assert_eq!(parsed.get("experiment").unwrap().as_str(), Some("E18/E22"));
        assert_eq!(parsed.get("quick").unwrap().as_bool(), Some(false));
        assert_eq!(parsed.get("nothing"), Some(&Json::Null));
        let r = &parsed.get("results").unwrap().as_array().unwrap()[0];
        assert_eq!(r.get("pipeline").unwrap().as_str(), Some("batched"));
        assert_eq!(r.get("threads").unwrap().as_f64(), Some(4.0));
        assert_eq!(r.get("median_ms").unwrap().as_f64(), Some(1.25));
        assert_eq!(r.get("note").unwrap().as_str(), Some("a\"b\\c\nd"));
    }

    #[test]
    fn parse_numbers_and_escapes() {
        let v = parse("[-1.5e2, 0, 42, \"\\u0041\\t\"]").unwrap();
        let a = v.as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(-150.0));
        assert_eq!(a[1].as_f64(), Some(0.0));
        assert_eq!(a[2].as_f64(), Some(42.0));
        assert_eq!(a[3].as_str(), Some("A\t"));
    }

    #[test]
    fn write_report_stamps_provenance() {
        let dir = std::env::temp_dir().join(format!("wh-bench-prov-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        // out_path honors WH_BENCH_OUT, but mutating the environment races
        // with parallel tests — write through the internals instead.
        let doc = Json::obj([("experiment", "E0".into())]);
        std::fs::write(&path, super::with_provenance(&doc).render()).unwrap();
        let parsed = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let prov = parsed.get("provenance").expect("provenance block");
        assert!(prov.get("git_sha").unwrap().as_str().is_some());
        assert!(prov.get("unix_secs").unwrap().as_f64().is_some());
        let utc = prov.get("utc").unwrap().as_str().unwrap();
        assert_eq!(utc.len(), "1970-01-01T00:00:00Z".len(), "{utc}");
        assert!(utc.ends_with('Z'));
        assert!(prov.get("features").unwrap().as_array().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn utc_formatting_matches_known_dates() {
        assert_eq!(super::utc_from_unix(0), "1970-01-01T00:00:00Z");
        assert_eq!(super::utc_from_unix(1_786_492_800), "2026-08-12T00:00:00Z");
        // A leap-day timestamp.
        assert_eq!(super::utc_from_unix(1_709_209_696), "2024-02-29T12:28:16Z");
    }

    #[test]
    fn existing_provenance_is_not_duplicated() {
        let doc = Json::obj([("provenance", Json::obj([("git_sha", "abc".into())]))]);
        let stamped = super::with_provenance(&doc);
        if let Json::Object(fields) = &stamped {
            assert_eq!(fields.iter().filter(|(k, _)| k == "provenance").count(), 1);
        } else {
            panic!("object expected");
        }
        assert_eq!(
            stamped
                .get("provenance")
                .unwrap()
                .get("git_sha")
                .unwrap()
                .as_str(),
            Some("abc")
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "nulll",
            "[1] trailing",
            "\"open",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }
}
