//! Interprocedural rules over the workspace call graph.
//!
//! * `latch-order` — a declared latch hierarchy checked along call-graph
//!   paths, with a witness path per inversion;
//! * `epoch-discipline` — raw page/RID access sinks must be dominated by
//!   an `EpochPin` or latch on every call-graph path from a public entry
//!   point.
//!
//! Both rules over-approximate (lexical "earlier in the function", name +
//! arity call resolution) and route false positives through
//! `lint: allow(...)` pragmas with written justifications, same as the
//! per-file rules.

use crate::callgraph::Call;
use crate::lexer::Kind;
use crate::rules::{latch_call_at, registry_hit_at, Diagnostic, Workspace, LATCH_CALLS};
use crate::walker;
use std::collections::BTreeMap;

/// The declared latch hierarchy, low level acquired first. An inversion
/// is acquiring a *lower* level while a higher one has already been
/// acquired in the same function (directly, or transitively through a
/// callee).
///
/// | level | name | acquisition pattern |
/// |-------|------|---------------------|
/// | 0 | index-registry | `indexes.read(` / `indexes.write(` / `indexes_snapshot(` |
/// | 1 | lease-registry | `slots.lock(` in a `lease` source file |
/// | 2 | pool-frames-latch | latch call whose argument names `frames` |
/// | 3 | frame-state-latch | latch call whose argument names `state` |
/// | 4 | page-latch | any other latch call |
///
/// `lock_list` (the heap free-list) is deliberately outside the
/// hierarchy: the free-list guard is always dropped within a statement
/// (see `HeapFile::append`), and `wh-storage`, its only caller, sits
/// below the index registry and cannot name it.
const LEVEL_NAMES: &[&str] = &[
    "index-registry",
    "lease-registry",
    "pool-frames-latch",
    "frame-state-latch",
    "page-latch",
];

/// Latch calls that participate in the hierarchy (the kernel latches plus
/// the heap's timed wrappers; `lock_list` excluded, see [`LEVEL_NAMES`]).
const HIER_LATCHES: &[&str] = &[
    "read_latch",
    "write_latch",
    "try_read_latch",
    "try_write_latch",
    "read_latch_timed",
    "write_latch_timed",
];

/// Direct latch acquisitions in one function: (token index, line, level).
fn direct_acquisitions(ws: &Workspace<'_>, gid: usize) -> Vec<(usize, u32, u8)> {
    let (ctx, f) = ws.fn_info(gid);
    let g = ws.graph.fns[gid];
    let table = &ws.tables[g.file];
    let toks = &ctx.toks;
    let in_lease_file = ctx
        .path
        .file_name()
        .is_some_and(|n| n.to_string_lossy().contains("lease"));
    let mut out = Vec::new();
    for (i, t) in walker::body_tokens(toks, table, f) {
        if ctx.in_test(i) {
            continue;
        }
        if registry_hit_at(ctx, i) {
            out.push((i, t.line, 0));
            continue;
        }
        if in_lease_file
            && t.is_ident("slots")
            && matches!(toks.get(i + 1), Some(n) if n.is_punct('.'))
            && matches!(toks.get(i + 2), Some(n) if n.is_ident("lock"))
            && matches!(toks.get(i + 3), Some(n) if n.is_punct('('))
        {
            out.push((i, t.line, 1));
            continue;
        }
        if latch_call_at(ctx, i, HIER_LATCHES) {
            out.push((i, t.line, latch_level(ctx, i)));
        }
    }
    out
}

/// Classify a latch call by its argument tokens: the buffer pool's
/// frames-map latch and per-frame state latch sit below the page-content
/// latch in the hierarchy.
fn latch_level(ctx: &crate::rules::FileCtx<'_>, call_idx: usize) -> u8 {
    let toks = &ctx.toks;
    // Find the opening paren, then scan the argument group.
    let mut j = call_idx + 1;
    while j < toks.len() && !toks[j].is_punct('(') {
        j += 1;
    }
    let mut depth = 0i32;
    let mut level = 4u8;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == Kind::Ident {
            if t.text == "frames" {
                return 2;
            }
            if t.text == "state" {
                level = 3;
            }
        }
        j += 1;
    }
    level
}

/// Per-function minimum level reachable (own directs or via any callee),
/// as a fixpoint over the call graph.
fn transitive_min(ws: &Workspace<'_>, directs: &[Vec<(usize, u32, u8)>]) -> Vec<Option<u8>> {
    let n = ws.graph.fns.len();
    let mut trans: Vec<Option<u8>> = directs
        .iter()
        .map(|d| d.iter().map(|&(_, _, l)| l).min())
        .collect();
    loop {
        let mut changed = false;
        for gid in 0..n {
            for call in &ws.graph.calls[gid] {
                for &c in &call.callees {
                    if let Some(t) = trans[c] {
                        if trans[gid].is_none_or(|cur| t < cur) {
                            trans[gid] = Some(t);
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            return trans;
        }
    }
}

/// Shortest call chain from one of `starts` to a function that *directly*
/// acquires `level`, following only edges that preserve reachability of
/// `level`. Returns the chain of global ids plus the terminal acquisition
/// line.
fn witness_chain(
    ws: &Workspace<'_>,
    directs: &[Vec<(usize, u32, u8)>],
    trans: &[Option<u8>],
    starts: &[usize],
    level: u8,
) -> (Vec<usize>, u32) {
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue: Vec<usize> = Vec::new();
    for &s in starts {
        if trans[s] == Some(level) && !parent.contains_key(&s) {
            parent.insert(s, usize::MAX);
            queue.push(s);
        }
    }
    let mut qi = 0;
    while qi < queue.len() {
        let gid = queue[qi];
        qi += 1;
        if let Some(&(_, line, _)) = directs[gid].iter().find(|&&(_, _, l)| l == level) {
            // Reconstruct.
            let mut chain = vec![gid];
            let mut cur = gid;
            while let Some(&p) = parent.get(&cur) {
                if p == usize::MAX {
                    break;
                }
                chain.push(p);
                cur = p;
            }
            chain.reverse();
            return (chain, line);
        }
        for call in &ws.graph.calls[gid] {
            for &c in &call.callees {
                if trans[c] == Some(level) && !parent.contains_key(&c) {
                    parent.insert(c, gid);
                    queue.push(c);
                }
            }
        }
    }
    (starts.first().map(|&s| vec![s]).unwrap_or_default(), 0)
}

/// `latch-order`: check the declared hierarchy along call-graph paths.
/// The grain is lexical and function-granular: once a function has
/// acquired a level (even if the guard since dropped), any later
/// acquisition of a strictly lower level — directly or anywhere inside a
/// callee — is an inversion. The motivating case is the index registry
/// under a page latch: index backfill holds the registry lock across a
/// full storage scan (page latches inside), so the inverted order
/// deadlocks — take an `indexes_snapshot()` before latching.
pub(crate) fn latch_order(ws: &Workspace<'_>, out: &mut Vec<Diagnostic>) {
    let n = ws.graph.fns.len();
    let directs: Vec<Vec<(usize, u32, u8)>> =
        (0..n).map(|gid| direct_acquisitions(ws, gid)).collect();
    let trans = transitive_min(ws, &directs);

    for gid in 0..n {
        let (ctx, f) = ws.fn_info(gid);
        if f.is_test {
            continue;
        }
        // Merge direct acquisitions and call sites in token order; calls
        // that *are* direct acquisitions (e.g. `indexes_snapshot()`)
        // count once, as direct.
        let direct_toks: Vec<usize> = directs[gid].iter().map(|&(i, _, _)| i).collect();
        enum Ev<'c> {
            Direct(u32, u8),
            Call(&'c Call),
        }
        let mut events: Vec<(usize, Ev<'_>)> = directs[gid]
            .iter()
            .map(|&(i, line, l)| (i, Ev::Direct(line, l)))
            .collect();
        for call in &ws.graph.calls[gid] {
            if !call.callees.is_empty() && !direct_toks.contains(&call.tok) {
                events.push((call.tok, Ev::Call(call)));
            }
        }
        events.sort_by_key(|&(i, _)| i);

        let mut held: Option<(u8, u32)> = None;
        for (_, ev) in events {
            match ev {
                Ev::Direct(line, level) => {
                    if let Some((h, hline)) = held {
                        if level < h {
                            ctx.emit(
                                out,
                                "latch-order",
                                line,
                                format!(
                                    "latch-order inversion: {} acquired while {} is held \
                                     (acquired at line {hline}); declared order is {}",
                                    LEVEL_NAMES[level as usize],
                                    LEVEL_NAMES[h as usize],
                                    LEVEL_NAMES.join(" < "),
                                ),
                            );
                        }
                    }
                    if held.is_none_or(|(h, _)| level > h) {
                        held = Some((level, line));
                    }
                }
                Ev::Call(call) => {
                    let Some((h, hline)) = held else { continue };
                    let m = call.callees.iter().filter_map(|&c| trans[c]).min();
                    let Some(m) = m else { continue };
                    if m >= h {
                        continue;
                    }
                    let (chain, term_line) = witness_chain(ws, &directs, &trans, &call.callees, m);
                    let mut path = vec![f.qual.clone()];
                    let mut term_file = String::new();
                    for &c in &chain {
                        let (cctx, cf) = ws.fn_info(c);
                        path.push(cf.qual.clone());
                        term_file = cctx.path.display().to_string();
                    }
                    ctx.emit(
                        out,
                        "latch-order",
                        call.line,
                        format!(
                            "latch-order inversion: call to {} acquires {} while {} is \
                             held (acquired at line {hline}); witness: {} ({} at {}:{})",
                            call.name,
                            LEVEL_NAMES[m as usize],
                            LEVEL_NAMES[h as usize],
                            path.join(" → "),
                            LEVEL_NAMES[m as usize],
                            term_file,
                            term_line,
                        ),
                    );
                }
            }
        }
    }
}

/// Functions whose bodies read raw page memory or resolve RIDs against
/// reclaimable storage: calling one requires an `EpochPin` or page latch
/// already held in the caller (the sink's own internal latching protects
/// its access, not the caller's RID, which may be reclaimed and reused
/// between probe and fetch — the PR-4 fence-bug shape). `*` matches any
/// impl type. The scanner's decoders (`decode_planned` and the row view
/// over it) are not sinks: they read a `RecordBatch`'s private copy of a
/// record, never page memory or a RID.
const SINKS: &[(&str, &str)] = &[
    ("HeapFile", "read"),
    ("HeapFile", "scan"),
    ("HeapFile", "scan_batches"),
    ("RecordBatch", "gather"),
    ("VnlTable", "find_physical"),
    ("VnlTable", "walk_stamps"),
    ("BatchScanner", "classify_batch"),
];

fn is_sink(f: &crate::parser::FnInfo) -> bool {
    SINKS
        .iter()
        .any(|&(ty, name)| name == f.name && (ty == "*" || f.impl_type.as_deref() == Some(ty)))
}

/// Calls that establish protection for everything lexically after them in
/// the same function: a zero-argument epoch pin, or any latch
/// acquisition.
fn is_protector(call: &Call) -> bool {
    (call.arity == 0 && matches!(call.name.as_str(), "pin" | "try_pin"))
        || HIER_LATCHES.contains(&call.name.as_str())
        || LATCH_CALLS.contains(&call.name.as_str())
}

/// `epoch-discipline`: every call-graph path from a public entry point to
/// a sink must pass a protector before reaching the sink call. Sinks'
/// own bodies are exempt (they compose: `VnlTable::walk_stamps` delegating
/// to `HeapFile::scan_batches` moves the obligation to the walker's callers);
/// `#[cfg(test)]` code and bin targets (single-threaded report
/// harnesses) are out of scope, as for the workspace's panic lints.
pub(crate) fn epoch_discipline(ws: &Workspace<'_>, out: &mut Vec<Diagnostic>) {
    let n = ws.graph.fns.len();
    let scanned = |gid: usize| -> bool {
        let (ctx, f) = ws.fn_info(gid);
        !f.is_test && !ctx.is_bin && !is_sink(f)
    };
    // Per scanned fn: call sites not preceded by a protector.
    let uncovered: Vec<Vec<&Call>> = (0..n)
        .map(|gid| {
            if !scanned(gid) {
                return Vec::new();
            }
            let first_protector = ws.graph.calls[gid]
                .iter()
                .find(|c| is_protector(c))
                .map(|c| c.tok);
            ws.graph.calls[gid]
                .iter()
                .filter(|c| first_protector.is_none_or(|p| c.tok < p))
                .collect()
        })
        .collect();

    // Exposure BFS from public entries through uncovered call edges.
    let mut parent: BTreeMap<usize, (usize, u32)> = BTreeMap::new();
    let mut exposed: Vec<bool> = vec![false; n];
    let mut queue: Vec<usize> = Vec::new();
    for (gid, e) in exposed.iter_mut().enumerate() {
        let (ctx, f) = ws.fn_info(gid);
        if f.is_pub && !f.is_test && !ctx.is_bin {
            *e = true;
            queue.push(gid);
        }
    }
    let mut qi = 0;
    while qi < queue.len() {
        let gid = queue[qi];
        qi += 1;
        if !scanned(gid) {
            continue; // sinks/bins don't forward exposure
        }
        for call in &uncovered[gid] {
            for &c in &call.callees {
                if !exposed[c] {
                    exposed[c] = true;
                    parent.insert(c, (gid, call.line));
                    queue.push(c);
                }
            }
        }
    }

    for gid in 0..n {
        if !exposed[gid] || !scanned(gid) {
            continue;
        }
        let (ctx, f) = ws.fn_info(gid);
        for call in &uncovered[gid] {
            let sink = call
                .callees
                .iter()
                .copied()
                .find(|&c| is_sink(ws.fn_info(c).1));
            let Some(sink) = sink else { continue };
            let sink_qual = ws.fn_info(sink).1.qual.clone();
            // Reconstruct the exposure path: entry → … → this fn.
            let mut path = vec![f.qual.clone()];
            let mut cur = gid;
            while let Some(&(p, _)) = parent.get(&cur) {
                path.push(ws.fn_info(p).1.qual.clone());
                cur = p;
            }
            path.reverse();
            ctx.emit(
                out,
                "epoch-discipline",
                call.line,
                format!(
                    "call to raw-access sink `{sink_qual}` with no EpochPin or latch \
                     acquired earlier in this function; unprotected path from public \
                     entry: {} → {sink_qual} — pin (`let _pin = epochs().pin()`) or \
                     latch before probing RIDs/page memory",
                    path.join(" → "),
                ),
            );
        }
    }
}
