//! `atomic-protocol`: every atomic `Ordering::…` use carries a structured
//! `// ordering:` tag, and the tags pair up workspace-wide.
//!
//! The memory model is the one part of the 2VNL hot path the type system
//! cannot check; the wh-kernel model suite proves the kernels, and these
//! tags keep every production site honest about which proof (or reasoning)
//! covers it. A use with no adjacent tag is a finding at its line, whether
//! or not an atomic method encloses it. The tag has a grammar and its
//! claims are checked:
//!
//! ```text
//! // ordering: <proto> <Order>[/<Order>][ fence] — why
//! ```
//!
//! * `<proto>` is a kebab-case protocol name (`gc-ceiling`, `epoch`,
//!   `stat-counter`, …). All accesses that synchronize with each other
//!   share one name; unrelated uses of the same field take different
//!   names.
//! * `<Order>` is the access's actual `Ordering::` variant
//!   (`Acquire/Relaxed` for the two-order CAS/`fetch_update` forms);
//!   a mismatch against the code is flagged.
//! * `fence` marks `atomic::fence` sites (no field of their own; they
//!   close a protocol side for fields published with Relaxed stores,
//!   e.g. the trace ring's seqlock payload).
//!
//! Checks, per `(protocol, field)` across the whole workspace:
//!
//! * an Acquire-side read requires a Release-side write somewhere (or a
//!   release fence in the protocol), and vice versa — "pairs with the
//!   Release publish" must have an actual partner;
//! * a fully-`Relaxed` access on a *paired* field is flagged: if it is
//!   genuinely unsynchronized it belongs to a different protocol name.
//!
//! Sites where no atomic method can be found (match arms over `Ordering`
//! in wh-model's simulator, pass-through parameters) are not accesses: they
//! need a tag comment but take part in no pairing. Bin targets and
//! `#[cfg(test)]` code are out of scope. `std::cmp::Ordering` never
//! collides: its variants are Less/Equal/Greater.

use crate::lexer::{Kind, Tok};
use crate::rules::{marker_text, Diagnostic, Workspace};
use std::collections::BTreeMap;

const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

const READ_METHODS: &[&str] = &["load"];
const WRITE_METHODS: &[&str] = &["store"];
const RMW_METHODS: &[&str] = &[
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_nand",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];
const FENCE_METHODS: &[&str] = &["fence", "compiler_fence"];

/// One atomic access site (possibly several `Ordering::` tokens, e.g. a
/// CAS with success and failure orders).
struct Access {
    file: usize,
    line: u32,
    method: String,
    /// Receiver field (`self.global.load(…)` → `global`); `None` for
    /// fences and expression receivers.
    field: Option<String>,
    /// `Ordering::` variants at the site, source order.
    orders: Vec<String>,
}

/// Parsed structured tag.
struct Tag {
    proto: String,
    orders: Vec<String>,
    fence: bool,
}

/// Summary of one `(protocol, field)` for the `--protocols` table.
#[derive(Debug, Clone)]
pub struct FieldSummary {
    pub field: String,
    pub reads: usize,
    pub writes: usize,
    /// Field has an Acquire-side read.
    pub acq: bool,
    /// Field has a Release-side write.
    pub rel: bool,
    /// Both directions close (directly or via protocol fences), or the
    /// field never uses acquire/release at all (pure-Relaxed protocols
    /// are trivially closed).
    pub closed: bool,
}

/// One named protocol for the `--protocols` table.
#[derive(Debug, Clone)]
pub struct ProtocolEntry {
    pub name: String,
    pub fields: Vec<FieldSummary>,
    pub fences: usize,
    pub sites: usize,
    pub files: Vec<String>,
}

impl ProtocolEntry {
    pub fn closed(&self) -> bool {
        self.fields.iter().all(|f| f.closed)
    }
}

/// Render the protocol table, one protocol per line.
pub fn render_table(protocols: &[ProtocolEntry]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "atomic protocols: {} named, {} closed\n",
        protocols.len(),
        protocols.iter().filter(|p| p.closed()).count()
    ));
    for p in protocols {
        let fields: Vec<String> = p
            .fields
            .iter()
            .map(|f| {
                let dir = match (f.acq, f.rel) {
                    (true, true) => "acq/rel",
                    (true, false) => "acq",
                    (false, true) => "rel",
                    (false, false) => "relaxed",
                };
                format!(
                    "{}({}r/{}w {} {})",
                    f.field,
                    f.reads,
                    f.writes,
                    dir,
                    if f.closed { "closed" } else { "OPEN" }
                )
            })
            .collect();
        let fence = if p.fences > 0 {
            format!(", {} fence(s)", p.fences)
        } else {
            String::new()
        };
        out.push_str(&format!(
            "  {:<16} {} sites in {} file(s){}: {}\n",
            p.name,
            p.sites,
            p.files.len(),
            fence,
            fields.join(", ")
        ));
    }
    out
}

/// Run the rule; returns the protocol table for `--protocols`/stats.
pub(crate) fn check(ws: &Workspace<'_>, out: &mut Vec<Diagnostic>) -> Vec<ProtocolEntry> {
    // --- collect accesses and their tags ---------------------------------
    let mut accesses: Vec<(Access, Option<Tag>)> = Vec::new();
    for (fi, ctx) in ws.ctxs.iter().enumerate() {
        if ctx.is_bin {
            continue;
        }
        // site key: method token index → orders.
        let mut sites: BTreeMap<usize, (u32, Vec<String>)> = BTreeMap::new();
        let mut untagged = Vec::new();
        for (i, t) in ctx.toks.iter().enumerate() {
            if !t.is_ident("Ordering") || ctx.in_test(i) {
                continue;
            }
            let path_sep = matches!(ctx.toks.get(i + 1), Some(t) if t.is_punct(':'))
                && matches!(ctx.toks.get(i + 2), Some(t) if t.is_punct(':'));
            let Some(variant) = ctx.toks.get(i + 3) else {
                continue;
            };
            if !path_sep || !ATOMIC_ORDERINGS.contains(&variant.text.as_str()) {
                continue;
            }
            if !untagged.contains(&t.line) && marker_text(ctx, t.line, "ordering:").is_none() {
                untagged.push(t.line);
                ctx.emit(
                    out,
                    "atomic-protocol",
                    t.line,
                    format!(
                        "Ordering::{} without an adjacent `// ordering:` tag",
                        variant.text
                    ),
                );
            }
            let Some(m) = enclosing_atomic_method(&ctx.toks, i) else {
                continue;
            };
            let entry = sites.entry(m).or_insert_with(|| (t.line, Vec::new()));
            entry.0 = entry.0.min(t.line);
            entry.1.push(variant.text.clone());
        }
        for (m, (line, orders)) in sites {
            let method = ctx.toks[m].text.clone();
            let field = receiver_field(&ctx.toks, m);
            let tag = marker_text(ctx, line, "ordering:").map(|text| {
                parse_tag(&text).map_err(|why| {
                    ctx.emit(
                        out,
                        "atomic-protocol",
                        line,
                        format!(
                            "ordering comment is not a structured protocol tag ({why}); \
                             use `// ordering: <proto> <Order>[/<Order>][ fence] — why`"
                        ),
                    );
                })
            });
            // A missing or malformed tag was already reported above.
            let tag = tag.and_then(Result::ok);
            if let Some(tag) = &tag {
                let mut declared = tag.orders.clone();
                let mut actual = orders.clone();
                declared.sort();
                actual.sort();
                if declared != actual {
                    ctx.emit(
                        out,
                        "atomic-protocol",
                        line,
                        format!(
                            "tag declares {} but the access uses {}",
                            tag.orders.join("/"),
                            orders.join("/")
                        ),
                    );
                }
                let is_fence = FENCE_METHODS.contains(&method.as_str());
                if tag.fence != is_fence {
                    ctx.emit(
                        out,
                        "atomic-protocol",
                        line,
                        if is_fence {
                            "fence site must carry the `fence` keyword in its tag".to_string()
                        } else {
                            "`fence` keyword on a non-fence access".to_string()
                        },
                    );
                }
            }
            accesses.push((
                Access {
                    file: fi,
                    line,
                    method,
                    field,
                    orders,
                },
                tag,
            ));
        }
    }

    // --- pairing per (protocol, field) -----------------------------------
    let acq = |orders: &[String]| {
        orders
            .iter()
            .any(|o| matches!(o.as_str(), "Acquire" | "AcqRel" | "SeqCst"))
    };
    let rel = |orders: &[String]| {
        orders
            .iter()
            .any(|o| matches!(o.as_str(), "Release" | "AcqRel" | "SeqCst"))
    };

    struct FieldAccum {
        reads: usize,
        writes: usize,
        acq_read: bool,
        rel_write: bool,
        first_acq: Option<(usize, u32)>,
        first_rel: Option<(usize, u32)>,
        relaxed_sites: Vec<(usize, u32)>,
    }
    struct ProtoAccum {
        fields: BTreeMap<String, FieldAccum>,
        fences: usize,
        acq_fence: bool,
        rel_fence: bool,
        sites: usize,
        files: std::collections::BTreeSet<String>,
    }
    let mut protos: BTreeMap<String, ProtoAccum> = BTreeMap::new();
    for (a, tag) in &accesses {
        let Some(tag) = tag else { continue };
        let p = protos
            .entry(tag.proto.clone())
            .or_insert_with(|| ProtoAccum {
                fields: BTreeMap::new(),
                fences: 0,
                acq_fence: false,
                rel_fence: false,
                sites: 0,
                files: std::collections::BTreeSet::new(),
            });
        p.sites += 1;
        p.files.insert(ws.ctxs[a.file].path.display().to_string());
        if FENCE_METHODS.contains(&a.method.as_str()) {
            p.fences += 1;
            p.acq_fence |= acq(&a.orders);
            p.rel_fence |= rel(&a.orders);
            continue;
        }
        let Some(field) = &a.field else { continue };
        let is_read =
            READ_METHODS.contains(&a.method.as_str()) || RMW_METHODS.contains(&a.method.as_str());
        let is_write =
            WRITE_METHODS.contains(&a.method.as_str()) || RMW_METHODS.contains(&a.method.as_str());
        let f = p.fields.entry(field.clone()).or_insert_with(|| FieldAccum {
            reads: 0,
            writes: 0,
            acq_read: false,
            rel_write: false,
            first_acq: None,
            first_rel: None,
            relaxed_sites: Vec::new(),
        });
        f.reads += usize::from(is_read);
        f.writes += usize::from(is_write);
        if is_read && acq(&a.orders) {
            f.acq_read = true;
            f.first_acq.get_or_insert((a.file, a.line));
        }
        if is_write && rel(&a.orders) {
            f.rel_write = true;
            f.first_rel.get_or_insert((a.file, a.line));
        }
        if a.orders.iter().all(|o| o == "Relaxed") {
            f.relaxed_sites.push((a.file, a.line));
        }
    }

    let mut table = Vec::new();
    for (name, p) in &protos {
        let mut fields = Vec::new();
        for (fname, f) in &p.fields {
            let acq_closed = !f.acq_read || f.rel_write || p.rel_fence;
            let rel_closed = !f.rel_write || f.acq_read || p.acq_fence;
            if !acq_closed {
                let (fi, line) = f.first_acq.unwrap_or((0, 0));
                ws.ctxs[fi].emit(
                    out,
                    "atomic-protocol",
                    line,
                    format!(
                        "protocol '{name}': Acquire-side read of field '{fname}' has no \
                         Release-or-stronger store (or release fence) anywhere in the \
                         workspace"
                    ),
                );
            }
            if !rel_closed {
                let (fi, line) = f.first_rel.unwrap_or((0, 0));
                ws.ctxs[fi].emit(
                    out,
                    "atomic-protocol",
                    line,
                    format!(
                        "protocol '{name}': Release-side store of field '{fname}' has no \
                         Acquire-or-stronger load (or acquire fence) anywhere in the \
                         workspace"
                    ),
                );
            }
            if f.acq_read && f.rel_write {
                for &(fi, line) in &f.relaxed_sites {
                    ws.ctxs[fi].emit(
                        out,
                        "atomic-protocol",
                        line,
                        format!(
                            "Relaxed access on paired protocol '{name}' field '{fname}' — \
                             if this access is genuinely unsynchronized, give it its own \
                             protocol name"
                        ),
                    );
                }
            }
            fields.push(FieldSummary {
                field: fname.clone(),
                reads: f.reads,
                writes: f.writes,
                acq: f.acq_read,
                rel: f.rel_write,
                closed: acq_closed && rel_closed,
            });
        }
        table.push(ProtocolEntry {
            name: name.clone(),
            fields,
            fences: p.fences,
            sites: p.sites,
            files: p.files.iter().cloned().collect(),
        });
    }
    table
}

/// The atomic method whose argument list contains the `Ordering` token at
/// `i`, walking back over balanced groups: for
/// `a.store(b.load(Ordering::Acquire), Ordering::Release)` the second
/// token maps to `store`, the first to `load`. Returns the method's token
/// index, or `None` when the token is not inside an atomic call (match
/// arms, `use` lists, parameter pass-through).
fn enclosing_atomic_method(toks: &[Tok], i: usize) -> Option<usize> {
    let code = |t: &Tok| t.kind != Kind::LineComment && t.kind != Kind::BlockComment;
    let mut depth = 0i32;
    let mut j = i;
    let mut steps = 0;
    while j > 0 && steps < 400 {
        j -= 1;
        steps += 1;
        let t = &toks[j];
        if !code(t) {
            continue;
        }
        if t.is_punct(')') {
            depth += 1;
        } else if t.is_punct('(') {
            if depth > 0 {
                depth -= 1;
                continue;
            }
            // The unclosed `(` enclosing our token: the call's method is
            // the identifier just before it.
            let m = toks[..j]
                .iter()
                .rposition(&code)
                .filter(|&k| toks[k].kind == Kind::Ident)?;
            let name = toks[m].text.as_str();
            if READ_METHODS.contains(&name)
                || WRITE_METHODS.contains(&name)
                || RMW_METHODS.contains(&name)
                || FENCE_METHODS.contains(&name)
            {
                return Some(m);
            }
            // A non-atomic enclosing call (or a plain group); keep
            // walking outward from just before the `(`.
            j = m + 1;
            continue;
        } else if depth == 0 && (t.is_punct(';') || t.is_punct('{') || t.is_punct('}')) {
            return None;
        }
    }
    None
}

/// The receiver field of the method at `m`: the identifier before the
/// `.`, skipping one `[…]` index group (`self.slots[i].load` → `slots`).
fn receiver_field(toks: &[Tok], m: usize) -> Option<String> {
    let code_before = |j: usize| {
        toks[..j]
            .iter()
            .rposition(|t| t.kind != Kind::LineComment && t.kind != Kind::BlockComment)
    };
    let dot = code_before(m)?;
    if !toks[dot].is_punct('.') {
        return None;
    }
    let mut j = code_before(dot)?;
    if toks[j].is_punct(']') {
        let mut depth = 0i32;
        loop {
            if toks[j].is_punct(']') {
                depth += 1;
            } else if toks[j].is_punct('[') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j = code_before(j)?;
        }
        j = code_before(j)?;
    }
    (toks[j].kind == Kind::Ident).then(|| toks[j].text.clone())
}

/// Parse `ordering: <proto> <Order>[/<Order>][ fence] — why`.
fn parse_tag(text: &str) -> Result<Tag, &'static str> {
    let rest = text.strip_prefix("ordering:").unwrap_or(text).trim_start();
    let mut words = rest.split_whitespace();
    let proto = words.next().ok_or("missing protocol name")?;
    let valid_proto = proto
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
        && proto.starts_with(|c: char| c.is_ascii_lowercase());
    if !valid_proto {
        return Err("protocol name must be kebab-case");
    }
    let orders_word = words.next().ok_or("missing Ordering variant")?;
    let orders: Vec<String> = orders_word.split('/').map(str::to_string).collect();
    if !orders
        .iter()
        .all(|o| ATOMIC_ORDERINGS.contains(&o.as_str()))
    {
        return Err("unknown Ordering variant");
    }
    let mut fence = false;
    let mut next = words.next();
    if next == Some("fence") {
        fence = true;
        next = words.next();
    }
    match next {
        Some(w) if w.starts_with('—') || w.starts_with('-') => Ok(Tag {
            proto: proto.to_string(),
            orders,
            fence,
        }),
        _ => Err("missing `— why` rationale"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_grammar() {
        let t = parse_tag("ordering: gc-ceiling Acquire — pairs with the checkpoint publish")
            .expect("valid");
        assert_eq!(t.proto, "gc-ceiling");
        assert_eq!(t.orders, vec!["Acquire"]);
        assert!(!t.fence);

        let t = parse_tag("ordering: cas-slot AcqRel/Relaxed — slot claim").expect("valid");
        assert_eq!(t.orders, vec!["AcqRel", "Relaxed"]);

        let t =
            parse_tag("ordering: trace-ring Release fence — publishes the payload").expect("valid");
        assert!(t.fence);

        assert!(parse_tag("ordering: Relaxed — legacy free text").is_err());
        assert!(parse_tag("ordering: CamelCase Acquire — bad name").is_err());
        assert!(parse_tag("ordering: p Acquire").is_err(), "missing why");
        assert!(parse_tag("ordering: p Sequential — typo order").is_err());
    }

    #[test]
    fn enclosing_method_handles_nesting() {
        let toks = crate::lexer::lex(
            "fn f(a: &A, b: &A) { a.store(b.load(Ordering::Acquire), Ordering::Release); }",
        );
        let sites: Vec<(usize, String)> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("Ordering"))
            .filter_map(|(i, _)| {
                enclosing_atomic_method(&toks, i).map(|m| (i, toks[m].text.clone()))
            })
            .collect();
        let methods: Vec<&str> = sites.iter().map(|(_, m)| m.as_str()).collect();
        assert_eq!(methods, vec!["load", "store"]);
    }

    #[test]
    fn match_arms_have_no_enclosing_method() {
        let toks =
            crate::lexer::lex("fn f(o: Ordering) -> bool { matches!(o, Ordering::Acquire) }");
        let i = toks
            .iter()
            .enumerate()
            .rev()
            .find(|(_, t)| t.is_ident("Ordering"))
            .map(|(i, _)| i)
            .expect("token");
        assert_eq!(enclosing_atomic_method(&toks, i), None);
    }

    #[test]
    fn receiver_fields() {
        let toks = crate::lexer::lex("fn f(&self) { self.slots[i].load(Ordering::SeqCst); }");
        let m = toks
            .iter()
            .enumerate()
            .find(|(_, t)| t.is_ident("load"))
            .map(|(i, _)| i)
            .expect("load");
        assert_eq!(receiver_field(&toks, m).as_deref(), Some("slots"));

        let toks = crate::lexer::lex("fn f(&self) { self.global.store(1, Ordering::SeqCst); }");
        let m = toks
            .iter()
            .enumerate()
            .find(|(_, t)| t.is_ident("store"))
            .map(|(i, _)| i)
            .expect("store");
        assert_eq!(receiver_field(&toks, m).as_deref(), Some("global"));
    }
}
