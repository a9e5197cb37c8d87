//! The probe ladder: timed public calls, run single-threaded after the
//! traced window on the state the readers last read.
//!
//! `query_stmt` is one opaque call, so its split by layer comes from three
//! rungs over the same statement: rung 1 gathers the statement's columns
//! from the heap (`wh-storage` alone), rung 2 adds Table-1 classification
//! and decode (`wh-vnl` scan), rung 3 is the statement itself (`wh-sql`
//! executor on top). The write side is probed on scratch copies of the
//! view built from the same seed.

use crate::gen::{Dml, Shadow};
use crate::run::Stmt;
use crate::stats::median_ns;
use std::hint::black_box;
use std::time::Instant;
use wh_sql::extract_scan_filters;
use wh_types::{Row, Value};
use wh_view::{summarize, SourceDelta, SummaryViewDef, ViewMaintainer};
use wh_vnl::{BatchScanner, MaintenanceTxn, VnlResult, VnlTable};

const REPS: usize = 5;

#[derive(Default)]
pub struct Ladder {
    /// Nanoseconds for one pass over the statement mix, per rung.
    pub rung1_ns: f64,
    pub rung2_ns: f64,
    pub rung3_ns: f64,
    pub stmts: usize,
    /// Physical tuples gathered (rung 1) and rows visited (rung 2) per pass.
    pub physical: u64,
    pub visible: u64,
    pub pages_per_op: f64,
    pub parse_us: f64,
    pub pushdown_us: f64,
    pub pushed_conjunct_share: f64,
    pub session_begin_us: f64,
    pub lookup_us: f64,
    pub lookup_eq_us: f64,
    pub probes_per_lookup: f64,
    pub decode_ns_per_row: f64,
    pub encode_ns_per_row: f64,
    pub miss_fetch_us: f64,
    pub summarize_ns_per_delta: f64,
    pub propagate_self_us_per_group: f64,
    pub source_deltas_per_group: f64,
}

impl Ladder {
    /// The rungs as trace-file lines.
    pub fn rungs(&self) -> Vec<(String, f64, &'static str)> {
        let per_stmt = |ns: f64| ns / self.stmts.max(1) as f64 / 1e6;
        vec![
            (
                "rung1.storage_gather_ms_per_stmt".into(),
                per_stmt(self.rung1_ns),
                "ms",
            ),
            (
                "rung2.vnl_scan_ms_per_stmt".into(),
                per_stmt(self.rung2_ns),
                "ms",
            ),
            (
                "rung3.sql_query_ms_per_stmt".into(),
                per_stmt(self.rung3_ns),
                "ms",
            ),
            ("probe.sql_parse_us".into(), self.parse_us, "us"),
            ("probe.session_begin_us".into(), self.session_begin_us, "us"),
            ("probe.lookup_us".into(), self.lookup_us, "us"),
            ("probe.lookup_eq_us".into(), self.lookup_eq_us, "us"),
            ("probe.pool_miss_fetch_us".into(), self.miss_fetch_us, "us"),
        ]
    }
}

fn index_probes() -> u64 {
    wh_obs::counter("index.hash.lookups").get() + wh_obs::counter("index.ordered.lookups").get()
}

/// The read-side rungs over `table` for the statement mix `stmts`, plus
/// point-lookup probes over `keys` (key-only rows) and, when the table has
/// a secondary index, equality lookups `(index name, keys)`.
pub fn read_rungs(
    table: &VnlTable,
    stmts: &[Stmt],
    keys: &[Row],
    index: Option<(&str, &[Vec<Value>])>,
) -> VnlResult<Ladder> {
    let mut l = Ladder {
        stmts: stmts.len(),
        ..Ladder::default()
    };
    let heap = table.storage().heap();
    let layout = table.layout();
    let codec = table.storage().codec();
    let session = table.begin_session();
    let (mut conjuncts, mut pushed) = (0usize, 0usize);

    for stmt in stmts {
        let select = stmt.parse()?;
        l.parse_us += median_ns(REPS * 4, || {
            black_box(wh_sql::parse_statement(black_box(&stmt.sql)).is_ok());
        }) / 1e3;
        if let Some(pred) = &select.where_clause {
            let (push, residual) = extract_scan_filters(pred, layout.base_schema());
            pushed += push.len();
            conjuncts += push.len() + residual.as_ref().map_or(0, count_conjuncts);
            l.pushdown_us += median_ns(REPS * 4, || {
                black_box(extract_scan_filters(black_box(pred), layout.base_schema()));
            }) / 1e3;
        }

        // Rung 1: gather this statement's columns, nothing else.
        let scanner = BatchScanner::new(layout, codec, Some(&stmt.cols));
        let mut physical = 0u64;
        l.rung1_ns += median_ns(REPS, || {
            physical = 0;
            heap.scan_batches(0..heap.page_count(), scanner.specs(), |batch| {
                physical += batch.len() as u64;
                black_box(batch);
                Ok(())
            })
            .expect("heap scan");
        });
        l.physical += physical;

        // Rung 2: + Table-1 classification and decode, rows dropped.
        let mut visible = 0u64;
        l.rung2_ns += median_ns(REPS, || {
            visible = 0;
            session
                .scan_projected_with(&stmt.cols, |row| {
                    visible += 1;
                    black_box(row);
                    Ok(())
                })
                .expect("projected scan");
        });
        l.visible += visible;

        // Rung 3: + the SQL executor; page reads counted on the first pass.
        let io0 = table.io().snapshot();
        black_box(session.query_stmt(&select)?);
        l.pages_per_op += table.io().snapshot().since(&io0).page_reads as f64;
        l.rung3_ns += median_ns(REPS, || {
            black_box(session.query_stmt(&select).expect("query"));
        });
    }
    l.parse_us /= stmts.len().max(1) as f64;
    l.pushdown_us /= stmts.len().max(1) as f64;
    l.pages_per_op /= stmts.len().max(1) as f64;
    l.pushed_conjunct_share = if conjuncts == 0 {
        0.0
    } else {
        pushed as f64 / conjuncts as f64
    };

    // Point probes.
    l.session_begin_us = {
        let n = 2000;
        let t = Instant::now();
        for _ in 0..n {
            let s = table.begin_leased_session(std::time::Duration::from_millis(1));
            black_box(s.session_vn());
            s.finish();
        }
        t.elapsed().as_nanos() as f64 / n as f64 / 1e3
    };
    if !keys.is_empty() {
        let t = Instant::now();
        for key in keys {
            black_box(session.read_by_key(key)?);
        }
        l.lookup_us = t.elapsed().as_nanos() as f64 / keys.len() as f64 / 1e3;
    }
    if let Some((name, eq_keys)) = index {
        // The product counts secondary-index probes, not key-directory
        // gets, so probes per lookup is taken over this loop alone.
        let probes0 = index_probes();
        let t = Instant::now();
        for key in eq_keys {
            black_box(session.lookup_eq(name, key)?);
        }
        l.lookup_eq_us = t.elapsed().as_nanos() as f64 / eq_keys.len().max(1) as f64 / 1e3;
        l.probes_per_lookup = (index_probes() - probes0) as f64 / eq_keys.len().max(1) as f64;
    }
    session.finish();

    // Row codec over the heap's own records.
    let mut records: Vec<Vec<u8>> = Vec::new();
    heap.scan(|_, rec| {
        if records.len() < 20_000 {
            records.push(rec.to_vec());
        }
        Ok(())
    })?;
    if !records.is_empty() {
        let mut rows: Vec<Row> = Vec::with_capacity(records.len());
        l.decode_ns_per_row = median_ns(REPS, || {
            rows.clear();
            rows.extend(records.iter().map(|r| codec.decode(r).expect("decode")));
        }) / records.len() as f64;
        l.encode_ns_per_row = median_ns(REPS, || {
            for row in &rows {
                black_box(codec.encode(row).expect("encode"));
            }
        }) / rows.len() as f64;
    }

    // Buffer-pool miss path: evict everything, then fault pages back in.
    if table.is_durable() {
        heap.evict_all()?;
        let pages = heap.page_count().min(256);
        let t = Instant::now();
        for p in 0..pages {
            black_box(heap.pool().fetch(p)?);
        }
        l.miss_fetch_us = t.elapsed().as_nanos() as f64 / f64::from(pages.max(1)) / 1e3;
    }
    Ok(l)
}

fn count_conjuncts(e: &wh_sql::Expr) -> usize {
    match e {
        wh_sql::Expr::Binary {
            op: wh_sql::BinOp::And,
            left,
            right,
        } => count_conjuncts(left) + count_conjuncts(right),
        _ => 1,
    }
}

/// Issue one DML call.
pub fn apply_dml(txn: &MaintenanceTxn<'_>, dml: &Dml) -> VnlResult<()> {
    match dml {
        Dml::Insert(row) => txn.insert(row.clone()),
        Dml::Update(row) => txn.update_row(row),
        Dml::Delete(row) => txn.delete_row(row),
    }
}

/// The write-side rungs for a summary view: `summarize` alone, then
/// `propagate_deltas` on one scratch copy against the same DML issued
/// directly on another; the difference is the view layer's own cost.
pub fn view_rungs(
    l: &mut Ladder,
    def: &SummaryViewDef,
    n: usize,
    view_rows: &[Row],
    batches: &[Vec<SourceDelta>],
) -> VnlResult<()> {
    let maintainer = ViewMaintainer::new(def.clone());
    let via_view = def.create_table("ScratchA", n)?;
    let direct = def.create_table("ScratchB", n)?;
    via_view.load_initial(view_rows)?;
    direct.load_initial(view_rows)?;
    let arity = def.group_cols.len() + 2;
    let k = def.group_cols.len();
    let mut shadow: Shadow = view_rows
        .iter()
        .map(|r| {
            (
                r[..k].to_vec(),
                (
                    r[k].as_int().expect("sum"),
                    r[k + 1].as_int().expect("count"),
                ),
            )
        })
        .collect();

    let (mut deltas_n, mut groups_n) = (0usize, 0usize);
    let (mut summarize_ns, mut view_ns, mut direct_ns) = (0f64, 0f64, 0f64);
    for batch in batches {
        summarize_ns += median_ns(REPS, || {
            black_box(summarize(
                black_box(batch),
                &def.group_cols,
                def.measure_col,
            ));
        });
        let groups = summarize(batch, &def.group_cols, def.measure_col);
        deltas_n += batch.len();
        groups_n += groups.len();

        let txn = via_view.begin_maintenance()?;
        let t = Instant::now();
        maintainer.propagate_deltas(&txn, &groups)?;
        view_ns += t.elapsed().as_nanos() as f64;
        txn.commit()?;

        // The same decisions the maintainer takes, made ahead of the clock.
        let dml: Vec<Dml> = groups
            .iter()
            .filter_map(|g| {
                let mut row = g.key.clone();
                match shadow.get(&g.key).copied() {
                    None if g.count_delta > 0 => {
                        shadow.insert(g.key.clone(), (g.sum_delta, g.count_delta));
                        row.extend([Value::from(g.sum_delta), Value::from(g.count_delta)]);
                        Some(Dml::Insert(row))
                    }
                    None => None,
                    Some((_, c)) if c + g.count_delta <= 0 => {
                        shadow.remove(&g.key);
                        row.resize(arity, Value::Null);
                        Some(Dml::Delete(row))
                    }
                    Some((s, c)) => {
                        let new = (s + g.sum_delta, c + g.count_delta);
                        shadow.insert(g.key.clone(), new);
                        row.extend([Value::from(new.0), Value::from(new.1)]);
                        Some(Dml::Update(row))
                    }
                }
            })
            .collect();
        let txn = direct.begin_maintenance()?;
        let t = Instant::now();
        for d in &dml {
            apply_dml(&txn, d)?;
        }
        direct_ns += t.elapsed().as_nanos() as f64;
        txn.commit()?;
    }
    l.summarize_ns_per_delta = summarize_ns / deltas_n.max(1) as f64;
    l.propagate_self_us_per_group = (view_ns - direct_ns) / groups_n.max(1) as f64 / 1e3;
    l.source_deltas_per_group = deltas_n as f64 / groups_n.max(1) as f64;
    Ok(())
}
