//! Query execution: scan → filter → group/aggregate → project → sort.
//!
//! There is one executor. A [`RowSource`] scans itself as at most `threads`
//! contiguous partitions and folds each partition's rows into that
//! partition's own state; [`execute_select`] applies WHERE, projection or
//! aggregate folding inside that visitor — so nothing but the result is ever
//! buffered — and then combines the partition states *in partition order*.
//! Partitions are contiguous ranges in scan order, which makes plain row
//! order and first-seen group order independent of the partition count; a
//! serial query is simply the one-partition case, folded on the calling
//! thread.
//!
//! Rows arrive as borrowed [`RowView`]s, and the statement is bound to the
//! source's schema once, before the scan. Per row, WHERE and every other
//! expression read columns by index; `COUNT` and the integer-column
//! aggregates fold the view's `i64` images without building a `Value`; and a
//! row finds its group by comparing key images with the previous row's
//! group, hashing only when the run breaks. A row is materialized only as a
//! new group's representative or as a plain query's output.

use crate::ast::{AggFunc, Expr, SelectItem, SelectStmt};
use crate::error::{SqlError, SqlResult};
use crate::eval::{Bound, EvalContext, Params, RowView};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use wh_index::IndexKey;
use wh_storage::{StorageError, Table};
use wh_types::{DataType, Row, Schema, Value};

/// Anything that can supply a schema and a partitioned row scan. Implemented
/// by storage tables; the 2VNL layer implements it for version-filtered
/// views.
pub trait RowSource {
    /// Schema of produced rows.
    fn schema(&self) -> &Schema;

    /// Scan the relation as at most `threads` contiguous partitions, handing
    /// a view of each row to `visit` together with its partition's state (a
    /// fresh `S::default()` per partition), and return the states in
    /// partition — that is, scan — order. The view is only valid for the
    /// call: sources should stream, lending each row where it lies without
    /// materializing the relation. One partition is folded on the calling
    /// thread; a source that cannot partition may always answer with one.
    fn fold<S: Default + Send>(
        &self,
        threads: usize,
        visit: &(dyn Fn(&mut S, &dyn RowView) -> SqlResult<()> + Sync),
    ) -> SqlResult<Vec<S>>;
}

impl RowSource for Table {
    fn schema(&self) -> &Schema {
        Table::schema(self)
    }

    fn fold<S: Default + Send>(
        &self,
        threads: usize,
        visit: &(dyn Fn(&mut S, &dyn RowView) -> SqlResult<()> + Sync),
    ) -> SqlResult<Vec<S>> {
        let heap = self.heap();
        let parts = heap.scan_parallel(threads, |_, pages| {
            let mut state = S::default();
            // A visitor failure travels out of the storage scan as
            // `ScanAborted`, with the real error stashed beside it.
            let mut stash: Option<SqlError> = None;
            // lint: allow(epoch-discipline) — a plain `Table` has no reclamation domain: scan_batches copies each page out under its own latch and the visitor sees owned rows decoded from the copy; no RID or page memory outlives the batch
            let res = heap.scan_batches(pages, &[], |batch| {
                (0..batch.len()).try_for_each(|i| {
                    let row = self.codec().decode(batch.record(i))?;
                    visit(&mut state, &row).map_err(|e| {
                        stash = Some(e);
                        StorageError::ScanAborted
                    })
                })
            });
            match (res, stash) {
                (_, Some(e)) => Err(e),
                (Err(e), None) => Err(e.into()),
                (Ok(()), None) => Ok(state),
            }
        });
        parts.into_iter().collect()
    }
}

/// Result of a SELECT: labeled columns and materialized rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column labels.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Row>,
}

impl QueryResult {
    /// Render as an aligned text table (for examples and reports).
    pub fn to_table_string(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(std::string::String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(std::string::ToString::to_string).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        out.push('\n');
        for (i, _) in self.columns.iter().enumerate() {
            out.push_str(&"-".repeat(widths[i]));
            out.push_str("  ");
        }
        out.push('\n');
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

/// Execute a SELECT against `source` with `params` bound, scanning it as at
/// most `threads` partitions.
///
/// Plain queries project each surviving row where it is scanned and
/// concatenate the partitions' rows; aggregate queries fold rows into one
/// accumulator per aggregate call site per group and merge the partitions'
/// groups. Either way the result is the same for every `threads`, except
/// that floating-point SUM/AVG reassociate across partitions (so they are
/// bit-stable only for a fixed partition count).
pub fn execute_select<R: RowSource + ?Sized>(
    source: &R,
    stmt: &SelectStmt,
    params: &Params,
    threads: usize,
) -> SqlResult<QueryResult> {
    let schema = source.schema();
    let ctx = EvalContext::new(schema, params);

    if let Some(w) = &stmt.where_clause {
        if w.contains_aggregate() {
            return Err(SqlError::MisplacedAggregate);
        }
    }
    let filter = stmt.where_clause.as_ref().map(|w| ctx.bind(w));

    let aggregate = is_aggregate_query(stmt);
    let (columns, out_rows, order_keys) = if aggregate {
        validate_grouping(schema, stmt)?;
        let specs = aggregate_specs(stmt);
        let plan = GroupPlan::new(&ctx, schema, stmt, &specs);
        let parts = scan_filter(source, filter.as_ref(), threads, |part, row| {
            plan.fold_row(part, row)
        })?;
        let _stage = wh_obs::timed_span!("sql.exec.stage", "sql.exec.aggregate_ns");
        let groups = merge_groups(parts, &specs, stmt.group_by.is_empty())?;
        project_groups(&ctx, schema.arity(), stmt, &specs, groups)?
    } else {
        let items: Vec<Bound> = stmt.items.iter().map(|it| ctx.bind(&it.expr)).collect();
        let order: Vec<Bound> = stmt.order_by.iter().map(|k| ctx.bind(&k.expr)).collect();
        let parts = scan_filter(source, filter.as_ref(), threads, |part, row| {
            project_row(&items, &order, part, row)
        })?;
        let _stage = wh_obs::timed_span!("sql.exec.stage", "sql.exec.project_ns");
        let columns: Vec<String> = if stmt.items.is_empty() {
            schema.columns().iter().map(|c| c.name.clone()).collect()
        } else {
            stmt.items.iter().map(SelectItem::label).collect()
        };
        let mut parts = parts.into_iter();
        let mut all: PlainPart = parts.next().unwrap_or_default();
        for part in parts {
            all.out_rows.extend(part.out_rows);
            all.order_keys.extend(part.order_keys);
        }
        (columns, all.out_rows, all.order_keys)
    };

    let sort_timer = wh_obs::Timer::start();
    let result = sort_and_limit(stmt, columns, out_rows, order_keys);
    wh_obs::histogram!("sql.exec.sort_limit_ns").record(sort_timer.elapsed_ns());
    wh_obs::counter!("sql.exec.rows_out").add(result.rows.len() as u64);
    Ok(result)
}

/// One partition's share of the scan stage: its row counts and whatever the
/// query shape accumulates (`T`).
#[derive(Default)]
struct Partition<T> {
    scanned: u64,
    kept: u64,
    state: T,
}

/// The scan stage, shared by both query shapes: stream the source, apply
/// the bound WHERE as each row arrives, and hand survivors to `fold_row`
/// with their partition's state. Row counters are summed over the
/// partitions and published once per query.
fn scan_filter<R, T>(
    source: &R,
    filter: Option<&Bound>,
    threads: usize,
    fold_row: impl Fn(&mut T, &dyn RowView) -> SqlResult<()> + Sync,
) -> SqlResult<Vec<T>>
where
    R: RowSource + ?Sized,
    T: Default + Send,
{
    let _scan = wh_obs::timed_span!("sql.exec.scan_filter", "sql.exec.scan_filter_ns");
    let parts = source.fold(threads, &|part: &mut Partition<T>, row: &dyn RowView| {
        part.scanned += 1;
        if let Some(pred) = filter {
            if !pred.eval_predicate(row)? {
                return Ok(());
            }
        }
        part.kept += 1;
        fold_row(&mut part.state, row)
    })?;
    wh_obs::counter!("sql.exec.scan.rows_in").add(parts.iter().map(|p| p.scanned).sum());
    wh_obs::counter!("sql.exec.filter.rows_out").add(parts.iter().map(|p| p.kept).sum());
    Ok(parts.into_iter().map(|p| p.state).collect())
}

fn is_aggregate_query(stmt: &SelectStmt) -> bool {
    !stmt.group_by.is_empty()
        || stmt.having.is_some()
        || stmt.items.iter().any(|it| it.expr.contains_aggregate())
}

/// The shared tail of SELECT execution: ORDER BY on precomputed keys, LIMIT.
fn sort_and_limit(
    stmt: &SelectStmt,
    columns: Vec<String>,
    mut out_rows: Vec<Row>,
    order_keys: Vec<Vec<Value>>,
) -> QueryResult {
    if !stmt.order_by.is_empty() {
        let mut indexed: Vec<(Vec<Value>, Row)> = order_keys.into_iter().zip(out_rows).collect();
        indexed.sort_by(|(ka, _), (kb, _)| {
            for (ok, (a, b)) in stmt.order_by.iter().zip(ka.iter().zip(kb.iter())) {
                let ord = a.grouping_cmp(b);
                let ord = if ok.asc { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        out_rows = indexed.into_iter().map(|(_, r)| r).collect();
    }

    if let Some(limit) = stmt.limit {
        out_rows.truncate(limit as usize);
    }

    QueryResult {
        columns,
        rows: out_rows,
    }
}

/// Output columns, rows, and per-row ORDER BY keys, before sort and limit.
type ProjectedRows = (Vec<String>, Vec<Row>, Vec<Vec<Value>>);

/// A plain query's partition state: projected rows and their ORDER BY keys,
/// in scan order.
#[derive(Default)]
struct PlainPart {
    out_rows: Vec<Row>,
    order_keys: Vec<Vec<Value>>,
}

/// Evaluate each of `exprs` against `row`. A plain loop rather than
/// `collect::<SqlResult<_>>()`: this runs once per row, and the adaptor
/// shuttles the wide `SqlResult` through every step.
fn eval_each<V: RowView + ?Sized>(exprs: &[Bound], row: &V) -> SqlResult<Row> {
    let mut out = Vec::with_capacity(exprs.len());
    for e in exprs {
        out.push(e.eval(row)?);
    }
    Ok(out)
}

/// The plain evaluation routine: project one surviving row (and its sort
/// keys) into its partition; an empty select list (`SELECT *`) keeps the
/// whole row.
fn project_row(
    items: &[Bound],
    order: &[Bound],
    part: &mut PlainPart,
    row: &dyn RowView,
) -> SqlResult<()> {
    let projected = if items.is_empty() {
        row.to_row()?
    } else {
        eval_each(items, row)?
    };
    if !order.is_empty() {
        part.order_keys.push(eval_each(order, row)?);
    }
    part.out_rows.push(projected);
    Ok(())
}

/// One aggregate call site: function and argument expression.
type AggSpec = (AggFunc, Option<Expr>);

/// Collect the distinct aggregate call sites of `expr` into `out`.
fn collect_aggregates(expr: &Expr, out: &mut Vec<AggSpec>) {
    match expr {
        Expr::Aggregate { func, arg } => {
            let spec = (*func, arg.as_deref().cloned());
            if !out.contains(&spec) {
                out.push(spec);
            }
        }
        Expr::Literal(_) | Expr::Param(_) | Expr::Column(_) => {}
        Expr::Binary { left, right, .. } => {
            collect_aggregates(left, out);
            collect_aggregates(right, out);
        }
        Expr::Not(e) | Expr::Neg(e) => collect_aggregates(e, out),
        Expr::IsNull { expr, .. } => collect_aggregates(expr, out),
        Expr::Between {
            expr, low, high, ..
        } => {
            collect_aggregates(expr, out);
            collect_aggregates(low, out);
            collect_aggregates(high, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_aggregates(expr, out);
            for e in list {
                collect_aggregates(e, out);
            }
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (c, v) in branches {
                collect_aggregates(c, out);
                collect_aggregates(v, out);
            }
            if let Some(e) = else_expr {
                collect_aggregates(e, out);
            }
        }
    }
}

/// A mergeable partial state for one aggregate call site over one group.
#[derive(Debug, Clone)]
enum AggAcc {
    /// COUNT: rows (or non-null argument evaluations) seen.
    Count(i64),
    /// SUM / MIN / MAX: the running value, `None` until a non-null input.
    Value(Option<Value>),
    /// AVG: running sum and non-null count.
    Avg { acc: Option<Value>, n: i64 },
}

impl AggAcc {
    fn new(func: AggFunc) -> AggAcc {
        match func {
            AggFunc::Count => AggAcc::Count(0),
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => AggAcc::Value(None),
            AggFunc::Avg => AggAcc::Avg { acc: None, n: 0 },
        }
    }

    /// Fold one input value (`None` = COUNT(*), which counts every row).
    #[inline]
    fn fold(&mut self, func: AggFunc, value: Option<Value>) -> SqlResult<()> {
        match self {
            AggAcc::Count(n) => {
                if value.as_ref().is_none_or(|v| !v.is_null()) {
                    *n += 1;
                }
            }
            AggAcc::Value(slot) => {
                let v = value.ok_or(SqlError::MisplacedAggregate)?;
                if v.is_null() {
                    return Ok(());
                }
                *slot = Some(match slot.take() {
                    None => v,
                    Some(prev) => combine(func, prev, v)?,
                });
            }
            AggAcc::Avg { acc, n } => {
                let v = value.ok_or(SqlError::MisplacedAggregate)?;
                if v.is_null() {
                    return Ok(());
                }
                *n += 1;
                *acc = Some(match acc.take() {
                    None => v,
                    Some(prev) => prev.add(&v)?,
                });
            }
        }
        Ok(())
    }

    /// Fold one integer input (`None` = NULL, skipped) in place — the same
    /// result as [`AggAcc::fold`] of `Value::Int`, whose addition wraps too,
    /// without building the value. Only the first input of a call site
    /// takes the `Value` path.
    #[inline]
    fn fold_int(&mut self, func: AggFunc, value: Option<i64>) -> SqlResult<()> {
        let Some(x) = value else {
            return Ok(());
        };
        match self {
            AggAcc::Count(n) => *n += 1,
            AggAcc::Value(Some(Value::Int(prev))) => {
                *prev = match func {
                    AggFunc::Min => (*prev).min(x),
                    AggFunc::Max => (*prev).max(x),
                    _ => prev.wrapping_add(x),
                };
            }
            AggAcc::Avg {
                acc: Some(Value::Int(prev)),
                n,
            } => {
                *prev = prev.wrapping_add(x);
                *n += 1;
            }
            first => first.fold(func, Some(Value::Int(x)))?,
        }
        Ok(())
    }

    /// Merge another partial state for the same call site into this one.
    fn merge(&mut self, func: AggFunc, other: AggAcc) -> SqlResult<()> {
        match (self, other) {
            (AggAcc::Count(a), AggAcc::Count(b)) => *a += b,
            (AggAcc::Value(a), AggAcc::Value(b)) => {
                if let Some(v) = b {
                    *a = Some(match a.take() {
                        None => v,
                        Some(prev) => combine(func, prev, v)?,
                    });
                }
            }
            (AggAcc::Avg { acc, n }, AggAcc::Avg { acc: b_acc, n: b_n }) => {
                *n += b_n;
                if let Some(v) = b_acc {
                    *acc = Some(match acc.take() {
                        None => v,
                        Some(prev) => prev.add(&v)?,
                    });
                }
            }
            _ => {
                return Err(SqlError::Unsupported(
                    "mismatched accumulator shapes for one aggregate call site".into(),
                ))
            }
        }
        Ok(())
    }

    /// The final aggregate value (over empty input COUNT is 0 and
    /// everything else NULL).
    fn finish(&self) -> SqlResult<Value> {
        match self {
            AggAcc::Count(n) => Ok(Value::Int(*n)),
            AggAcc::Value(v) => Ok(v.clone().unwrap_or(Value::Null)),
            AggAcc::Avg { acc: None, .. } => Ok(Value::Null),
            AggAcc::Avg {
                acc: Some(total),
                n,
            } => {
                let t = total
                    .as_f64()
                    .ok_or(SqlError::Type(wh_types::TypeError::Mismatch {
                        op: "AVG",
                        left: "non-numeric".into(),
                        right: "numeric".into(),
                    }))?;
                Ok(Value::Float(t / *n as f64))
            }
        }
    }
}

/// SUM/MIN/MAX two-value combiner.
#[inline]
fn combine(func: AggFunc, prev: Value, next: Value) -> SqlResult<Value> {
    match func {
        AggFunc::Sum => Ok(prev.add(&next)?),
        AggFunc::Min | AggFunc::Max => {
            let keep_next = match next.sql_cmp(&prev)? {
                Some(ord) => {
                    (func == AggFunc::Min && ord == std::cmp::Ordering::Less)
                        || (func == AggFunc::Max && ord == std::cmp::Ordering::Greater)
                }
                None => false,
            };
            Ok(if keep_next { next } else { prev })
        }
        _ => Err(SqlError::Unsupported(
            "combine only serves SUM/MIN/MAX".into(),
        )),
    }
}

/// Partial aggregation state for one group.
struct GroupAcc {
    key: Vec<Value>,
    /// First row of the group, in scan order: the row bare (grouped) column
    /// references evaluate against. `None` only for the single group of an
    /// ungrouped aggregate over empty input.
    rep: Option<Row>,
    accs: Vec<AggAcc>,
}

/// An aggregate query's partition state: its groups in first-seen order.
#[derive(Default)]
struct GroupPart {
    groups: Vec<GroupAcc>,
    /// Groups by key image (a [`KeyPlan::Images`] plan).
    by_image: HashMap<Vec<u8>, usize, BuildHasherDefault<ImageHasher>>,
    /// Groups by evaluated key (a [`KeyPlan::Values`] plan).
    by_value: HashMap<IndexKey, usize>,
    /// The group the previous row fell in, and its key image or evaluated
    /// key. Scan order often clusters equal keys (and an ungrouped
    /// aggregate has only the empty key), so such rows find their group by
    /// a comparison here and never hash.
    last: usize,
    run: Vec<u8>,
    run_key: Vec<Value>,
    /// The current row's key image, kept to reuse its buffer.
    image: Vec<u8>,
}

/// FNV-1a over key images, with a final mix so the table's high control
/// bits vary too. Fixed rather than `RandomState`: the images come from
/// the source, not from a client, and a fixed hash keeps one process's
/// probe sequences the next one's.
struct ImageHasher(u64);

impl Default for ImageHasher {
    fn default() -> Self {
        ImageHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for ImageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// A slice's length prefix, in one step rather than eight.
    fn write_usize(&mut self, n: usize) {
        self.0 = (self.0 ^ n as u64).wrapping_mul(0x0100_0000_01b3);
    }

    fn finish(&self) -> u64 {
        let h = self.0 ^ (self.0 >> 29);
        h.wrapping_mul(0xbf58_476d_1ce4_e5b9) ^ (h >> 32)
    }
}

/// Every aggregate call site across projections, HAVING, and ORDER BY; each
/// gets one accumulator slot per group.
fn aggregate_specs(stmt: &SelectStmt) -> Vec<AggSpec> {
    let mut specs = Vec::new();
    for it in &stmt.items {
        collect_aggregates(&it.expr, &mut specs);
    }
    if let Some(h) = &stmt.having {
        collect_aggregates(h, &mut specs);
    }
    for k in &stmt.order_by {
        collect_aggregates(&k.expr, &mut specs);
    }
    specs
}

/// How a row's GROUP BY key is read.
enum KeyPlan {
    /// Every key is an integer or `Char` column: the row's key is the
    /// concatenation of the columns' images, compared and hashed as bytes.
    /// Images from one source are equal iff the values are, so grouping by
    /// image is grouping by value.
    Images(Vec<ImageCol>),
    /// Some key is an expression: every key is evaluated.
    Values(Vec<Bound>),
}

/// A GROUP BY column read by its image.
enum ImageCol {
    /// An integer column, by its `i64` image.
    Int(usize),
    /// A `Char` column, by its raw image.
    Raw(usize),
}

impl ImageCol {
    /// Append this column's image of `row` to `out`: a NULL tag, then
    /// (length-prefixed, for raw images) the bytes.
    #[inline]
    fn append(&self, row: &dyn RowView, out: &mut Vec<u8>) {
        match self {
            ImageCol::Int(c) => match row.int(*c) {
                None => out.push(0),
                Some(v) => {
                    out.push(1);
                    out.extend_from_slice(&v.to_le_bytes());
                }
            },
            ImageCol::Raw(c) => match row.raw(*c) {
                None => out.push(0),
                Some(b) => {
                    out.push(1);
                    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
                    out.extend_from_slice(b);
                }
            },
        }
    }

    /// This column's key value for `row`.
    fn value(&self, row: &dyn RowView) -> SqlResult<Value> {
        match self {
            ImageCol::Int(c) => Ok(row.int(*c).map_or(Value::Null, Value::Int)),
            ImageCol::Raw(c) => row.value(*c),
        }
    }
}

/// Where one aggregate call site's input comes from.
enum AggArg {
    /// `COUNT(*)`.
    Star,
    /// An integer column, folded as `i64`.
    Int(usize),
    /// `COUNT` of a `Char` column: only its image's presence matters.
    CountRaw(usize),
    /// Anything else, evaluated and folded as a `Value`.
    Eval(Bound),
}

/// An aggregate statement bound to its source: how to read each group key
/// and each aggregate input from a row.
struct GroupPlan {
    keys: KeyPlan,
    args: Vec<(AggFunc, AggArg)>,
}

impl GroupPlan {
    fn new(ctx: &EvalContext<'_>, schema: &Schema, stmt: &SelectStmt, specs: &[AggSpec]) -> Self {
        let column_type = |e: &Expr| match e {
            Expr::Column(name) => ctx.column(name).map(|i| (i, schema.columns()[i].ty)),
            _ => None,
        };
        let is_int = |ty| matches!(ty, DataType::UInt8 | DataType::Int32 | DataType::Int64);
        let images: Option<Vec<ImageCol>> = stmt
            .group_by
            .iter()
            .map(|e| match column_type(e) {
                Some((i, ty)) if is_int(ty) => Some(ImageCol::Int(i)),
                Some((i, DataType::Char(_))) => Some(ImageCol::Raw(i)),
                _ => None,
            })
            .collect();
        let keys = match images {
            Some(cols) => KeyPlan::Images(cols),
            None => KeyPlan::Values(stmt.group_by.iter().map(|e| ctx.bind(e)).collect()),
        };
        let args = specs
            .iter()
            .map(|(func, arg)| {
                let input = match arg {
                    None => AggArg::Star,
                    Some(e) => match column_type(e) {
                        Some((i, ty)) if is_int(ty) => AggArg::Int(i),
                        Some((i, DataType::Char(_))) if *func == AggFunc::Count => {
                            AggArg::CountRaw(i)
                        }
                        _ => AggArg::Eval(ctx.bind(e)),
                    },
                };
                (*func, input)
            })
            .collect();
        GroupPlan { keys, args }
    }

    /// The grouped evaluation routine: fold one surviving row into its
    /// group's accumulators, finding (or opening) the group first.
    fn fold_row(&self, part: &mut GroupPart, row: &dyn RowView) -> SqlResult<()> {
        match &self.keys {
            KeyPlan::Images(cols) => self.find_by_image(cols, part, row)?,
            KeyPlan::Values(exprs) => self.find_by_value(exprs, part, row)?,
        }
        let group = &mut part.groups[part.last];
        for (slot, (func, arg)) in group.accs.iter_mut().zip(&self.args) {
            match arg {
                AggArg::Star => slot.fold(*func, None)?,
                AggArg::Int(c) => slot.fold_int(*func, row.int(*c))?,
                AggArg::CountRaw(c) => {
                    if row.raw(*c).is_some() {
                        slot.fold(*func, None)?;
                    }
                }
                AggArg::Eval(e) => slot.fold(*func, Some(e.eval(row)?))?,
            }
        }
        Ok(())
    }

    /// Point `part.last` at `row`'s group under an image plan: the run's
    /// group when the image repeats, else by hashing the image, else a new
    /// group. Allocates only to open a group.
    fn find_by_image(
        &self,
        cols: &[ImageCol],
        part: &mut GroupPart,
        row: &dyn RowView,
    ) -> SqlResult<()> {
        // An ungrouped aggregate's one group is always the run. (Its empty
        // image is not compared: an empty Vec's dangling pointer sends
        // memcmp down a ~150 ns path here.)
        if cols.is_empty() && !part.groups.is_empty() {
            return Ok(());
        }
        part.image.clear();
        for c in cols {
            c.append(row, &mut part.image);
        }
        if part.groups.is_empty() || part.image != part.run {
            part.last = match part.by_image.get(part.image.as_slice()) {
                Some(&i) => i,
                None => {
                    let key = cols
                        .iter()
                        .map(|c| c.value(row))
                        .collect::<SqlResult<_>>()?;
                    let i = self.open(part, key, row)?;
                    part.by_image.insert(part.image.clone(), i);
                    i
                }
            };
            std::mem::swap(&mut part.run, &mut part.image);
        }
        Ok(())
    }

    /// Point `part.last` at `row`'s group under a value plan: the run's
    /// group when every key evaluates to the run's, else by hashing the
    /// key, else a new group.
    fn find_by_value(
        &self,
        exprs: &[Bound],
        part: &mut GroupPart,
        row: &dyn RowView,
    ) -> SqlResult<()> {
        if !part.groups.is_empty() {
            let mut same = true;
            for (e, v) in exprs.iter().zip(&part.run_key) {
                if e.eval(row)? != *v {
                    same = false;
                    break;
                }
            }
            if same {
                return Ok(());
            }
        }
        let key = IndexKey(eval_each(exprs, row)?);
        part.last = match part.by_value.get(&key) {
            Some(&i) => i,
            None => {
                let i = self.open(part, key.0.clone(), row)?;
                part.by_value.insert(key.clone(), i);
                i
            }
        };
        part.run_key = key.0;
        Ok(())
    }

    /// Open a group for `key` with `row` as its representative.
    fn open(&self, part: &mut GroupPart, key: Vec<Value>, row: &dyn RowView) -> SqlResult<usize> {
        part.groups.push(GroupAcc {
            key,
            rep: Some(row.to_row()?),
            accs: self.args.iter().map(|(f, _)| AggAcc::new(*f)).collect(),
        });
        Ok(part.groups.len() - 1)
    }
}

/// Merge the partitions' groups in partition order — so first-seen group
/// order is scan order — into the first partition's groups, matching them
/// by key value. An ungrouped aggregate is one group over the whole input,
/// even when that is empty.
fn merge_groups(
    parts: Vec<GroupPart>,
    specs: &[AggSpec],
    ungrouped: bool,
) -> SqlResult<Vec<GroupAcc>> {
    let mut parts = parts.into_iter();
    let mut all = parts.next().map(|p| p.groups).unwrap_or_default();
    let mut lookup: HashMap<IndexKey, usize> = HashMap::new();
    for part in parts {
        if lookup.is_empty() {
            lookup = (all.iter().enumerate())
                .map(|(i, g)| (IndexKey(g.key.clone()), i))
                .collect();
        }
        for group in part.groups {
            let key = IndexKey(group.key.clone());
            match lookup.get(&key) {
                Some(&i) => {
                    for (slot, ((func, _), partial)) in
                        all[i].accs.iter_mut().zip(specs.iter().zip(group.accs))
                    {
                        slot.merge(*func, partial)?;
                    }
                }
                None => {
                    lookup.insert(key, all.len());
                    all.push(group);
                }
            }
        }
    }
    if all.is_empty() && ungrouped {
        all.push(GroupAcc {
            key: Vec::new(),
            rep: None,
            accs: specs.iter().map(|(f, _)| AggAcc::new(*f)).collect(),
        });
    }
    Ok(all)
}

/// HAVING, projection, and ORDER BY keys over the merged groups. Each is
/// bound once with aggregate call site `i` as column `arity + i`, and
/// evaluated against the group's representative row (all NULL for the
/// empty input of an ungrouped aggregate) with the group's aggregate
/// values appended.
fn project_groups(
    ctx: &EvalContext<'_>,
    arity: usize,
    stmt: &SelectStmt,
    specs: &[AggSpec],
    groups: Vec<GroupAcc>,
) -> SqlResult<ProjectedRows> {
    let bind = |e: &Expr| ctx.bind_grouped(e, specs, arity);
    let having = stmt.having.as_ref().map(bind);
    let items: Vec<Bound> = stmt.items.iter().map(|it| bind(&it.expr)).collect();
    let order: Vec<Bound> = stmt.order_by.iter().map(|k| bind(&k.expr)).collect();
    let columns: Vec<String> = stmt.items.iter().map(SelectItem::label).collect();
    let mut out_rows = Vec::new();
    let mut order_keys = Vec::new();
    for group in groups {
        let mut row = group.rep.unwrap_or_else(|| vec![Value::Null; arity]);
        debug_assert_eq!(row.len(), arity, "a source row has its schema's arity");
        for acc in &group.accs {
            row.push(acc.finish()?);
        }
        if let Some(h) = &having {
            if !h.eval_predicate(&row)? {
                continue;
            }
        }
        let projected = eval_each(&items, &row)?;
        if !order.is_empty() {
            order_keys.push(eval_each(&order, &row)?);
        }
        out_rows.push(projected);
    }
    Ok((columns, out_rows, order_keys))
}

/// Reject non-grouped bare column references in projections of aggregate
/// queries (only plain-column GROUP BY expressions are recognized as
/// grouping columns, which covers the paper's queries).
fn validate_grouping(schema: &Schema, stmt: &SelectStmt) -> SqlResult<()> {
    let grouped: Vec<&str> = stmt
        .group_by
        .iter()
        .filter_map(|e| match e {
            Expr::Column(c) => Some(c.as_str()),
            _ => None,
        })
        .collect();
    // Only enforceable when every GROUP BY expr is a plain column.
    if grouped.len() != stmt.group_by.len() {
        return Ok(());
    }
    let mut checked: Vec<&Expr> = stmt.items.iter().map(|it| &it.expr).collect();
    if let Some(h) = &stmt.having {
        checked.push(h);
    }
    for expr in checked {
        let mut cols = Vec::new();
        collect_columns_outside_aggregates(expr, &mut cols);
        for c in cols {
            if !grouped.contains(&c.as_str()) {
                // Unknown columns surface as NoSuchColumn during eval;
                // only flag real, ungrouped columns here.
                if schema.column_index(&c).is_ok() {
                    return Err(SqlError::NotGrouped(c));
                }
            }
        }
    }
    Ok(())
}

fn collect_columns_outside_aggregates(expr: &Expr, out: &mut Vec<String>) {
    match expr {
        Expr::Column(c) => {
            if !out.contains(c) {
                out.push(c.clone());
            }
        }
        Expr::Aggregate { .. } => {} // inside an aggregate is fine
        Expr::Literal(_) | Expr::Param(_) => {}
        Expr::Binary { left, right, .. } => {
            collect_columns_outside_aggregates(left, out);
            collect_columns_outside_aggregates(right, out);
        }
        Expr::Not(e) | Expr::Neg(e) => collect_columns_outside_aggregates(e, out),
        Expr::IsNull { expr, .. } => collect_columns_outside_aggregates(expr, out),
        Expr::Between {
            expr, low, high, ..
        } => {
            collect_columns_outside_aggregates(expr, out);
            collect_columns_outside_aggregates(low, out);
            collect_columns_outside_aggregates(high, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_columns_outside_aggregates(expr, out);
            for e in list {
                collect_columns_outside_aggregates(e, out);
            }
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (c, v) in branches {
                collect_columns_outside_aggregates(c, out);
                collect_columns_outside_aggregates(v, out);
            }
            if let Some(e) = else_expr {
                collect_columns_outside_aggregates(e, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;
    use crate::Statement;
    use std::sync::Arc;
    use wh_storage::IoStats;
    use wh_types::schema::daily_sales_schema;
    use wh_types::Date;

    fn sales_table() -> Table {
        let t =
            Table::create("DailySales", daily_sales_schema(), Arc::new(IoStats::new())).unwrap();
        type SaleSpec = (&'static str, &'static str, &'static str, (u16, u8, u8), i64);
        let rows: Vec<SaleSpec> = vec![
            ("San Jose", "CA", "golf equip", (1996, 10, 14), 10_000),
            ("San Jose", "CA", "golf equip", (1996, 10, 15), 1_500),
            ("San Jose", "CA", "racquetball", (1996, 10, 14), 2_000),
            ("Berkeley", "CA", "racquetball", (1996, 10, 14), 12_000),
            ("Novato", "CA", "rollerblades", (1996, 10, 13), 8_000),
        ];
        for (city, state, pl, (y, m, d), sales) in rows {
            t.insert(&[
                Value::from(city),
                Value::from(state),
                Value::from(pl),
                Value::from(Date::ymd(y, m, d)),
                Value::from(sales),
            ])
            .unwrap();
        }
        t
    }

    fn select(table: &Table, sql: &str) -> QueryResult {
        let Statement::Select(s) = parse_statement(sql).unwrap() else {
            panic!("not a select")
        };
        execute_select(table, &s, &Params::new(), 1).unwrap()
    }

    #[test]
    fn select_star() {
        let t = sales_table();
        let r = select(&t, "SELECT * FROM DailySales");
        assert_eq!(r.rows.len(), 5);
        assert_eq!(r.columns[0], "city");
    }

    #[test]
    fn group_by_double_puts_both_zeros_in_one_group() {
        let schema = wh_types::Schema::new(vec![wh_types::Column::new(
            "x",
            wh_types::DataType::Float64,
        )])
        .unwrap();
        let t = Table::create("T", schema, Arc::new(IoStats::new())).unwrap();
        // Alternate the groups, so that each zero is found by its hash
        // rather than by comparison with the row before it.
        for x in [0.0, 1.5, -0.0, 1.5, 0.0, -0.0] {
            t.insert(&[Value::Float(x)]).unwrap();
        }
        let r = select(&t, "SELECT x, COUNT(*) FROM T GROUP BY x ORDER BY x");
        assert_eq!(r.rows.len(), 2, "{:?}", r.rows);
        assert_eq!(r.rows[0][1], Value::Int(4));
    }

    #[test]
    fn filter_and_project() {
        let t = sales_table();
        let r = select(
            &t,
            "SELECT product_line, total_sales FROM DailySales WHERE city = 'San Jose' ORDER BY total_sales DESC",
        );
        assert_eq!(
            r.rows,
            vec![
                vec![Value::from("golf equip"), Value::from(10_000)],
                vec![Value::from("racquetball"), Value::from(2_000)],
                vec![Value::from("golf equip"), Value::from(1_500)],
            ]
        );
    }

    #[test]
    fn paper_rollup_query() {
        // Example 2.1: total sales by city.
        let t = sales_table();
        let r = select(
            &t,
            "SELECT city, state, SUM(total_sales) FROM DailySales GROUP BY city, state ORDER BY city",
        );
        assert_eq!(
            r.rows,
            vec![
                vec![
                    Value::from("Berkeley"),
                    Value::from("CA"),
                    Value::from(12_000)
                ],
                vec![Value::from("Novato"), Value::from("CA"), Value::from(8_000)],
                vec![
                    Value::from("San Jose"),
                    Value::from("CA"),
                    Value::from(13_500)
                ],
            ]
        );
    }

    #[test]
    fn paper_drilldown_query() {
        let t = sales_table();
        let r = select(
            &t,
            "SELECT product_line, SUM(total_sales) FROM DailySales \
             WHERE city = 'San Jose' AND state = 'CA' GROUP BY product_line ORDER BY product_line",
        );
        assert_eq!(
            r.rows,
            vec![
                vec![Value::from("golf equip"), Value::from(11_500)],
                vec![Value::from("racquetball"), Value::from(2_000)],
            ]
        );
    }

    #[test]
    fn aggregates_without_group_by() {
        let t = sales_table();
        let r = select(
            &t,
            "SELECT COUNT(*), SUM(total_sales), MIN(total_sales), MAX(total_sales), AVG(total_sales) FROM DailySales",
        );
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(5));
        assert_eq!(r.rows[0][1], Value::Int(33_500));
        assert_eq!(r.rows[0][2], Value::Int(1_500));
        assert_eq!(r.rows[0][3], Value::Int(12_000));
        assert_eq!(r.rows[0][4], Value::Float(6_700.0));
    }

    #[test]
    fn sum_skips_nulls_and_empty_is_null() {
        let t = sales_table();
        let r = select(
            &t,
            "SELECT SUM(total_sales) FROM DailySales WHERE city = 'Nowhere'",
        );
        assert_eq!(r.rows[0][0], Value::Null);
        let r = select(&t, "SELECT COUNT(*) FROM DailySales WHERE city = 'Nowhere'");
        assert_eq!(r.rows[0][0], Value::Int(0));
    }

    #[test]
    fn ungrouped_column_rejected() {
        let t = sales_table();
        let Statement::Select(s) =
            parse_statement("SELECT city, SUM(total_sales) FROM DailySales GROUP BY state")
                .unwrap()
        else {
            panic!()
        };
        assert_eq!(
            execute_select(&t, &s, &Params::new(), 1),
            Err(SqlError::NotGrouped("city".into()))
        );
    }

    #[test]
    fn aggregate_in_where_rejected() {
        let t = sales_table();
        let Statement::Select(s) =
            parse_statement("SELECT city FROM DailySales WHERE SUM(total_sales) > 1").unwrap()
        else {
            panic!()
        };
        assert_eq!(
            execute_select(&t, &s, &Params::new(), 1),
            Err(SqlError::MisplacedAggregate)
        );
    }

    #[test]
    fn arithmetic_over_aggregates() {
        let t = sales_table();
        let r = select(&t, "SELECT SUM(total_sales) / COUNT(*) FROM DailySales");
        assert_eq!(r.rows[0][0], Value::Int(6_700));
    }

    #[test]
    fn case_inside_aggregate() {
        // The exact shape the 2VNL rewrite produces (Example 4.1).
        let t = sales_table();
        let Statement::Select(s) = parse_statement(
            "SELECT city, SUM(CASE WHEN :flag >= 1 THEN total_sales ELSE 0 END) \
             FROM DailySales GROUP BY city ORDER BY city",
        )
        .unwrap() else {
            panic!()
        };
        let mut params = Params::new();
        params.insert("flag".into(), Value::Int(1));
        let r = execute_select(&t, &s, &params, 1).unwrap();
        assert_eq!(
            r.rows[0],
            vec![Value::from("Berkeley"), Value::from(12_000)]
        );
    }

    #[test]
    fn order_by_date_ascending() {
        let t = sales_table();
        let r = select(&t, "SELECT date FROM DailySales ORDER BY date");
        let dates: Vec<&Value> = r.rows.iter().map(|r| &r[0]).collect();
        assert_eq!(*dates[0], Value::from(Date::ymd(1996, 10, 13)));
        assert_eq!(*dates[4], Value::from(Date::ymd(1996, 10, 15)));
    }

    #[test]
    fn having_filters_groups() {
        let t = sales_table();
        let r = select(
            &t,
            "SELECT city, SUM(total_sales) FROM DailySales GROUP BY city \
             HAVING SUM(total_sales) > 10000 ORDER BY city",
        );
        assert_eq!(
            r.rows,
            vec![
                vec![Value::from("Berkeley"), Value::from(12_000)],
                vec![Value::from("San Jose"), Value::from(13_500)],
            ]
        );
    }

    #[test]
    fn having_may_reference_group_columns() {
        let t = sales_table();
        let r = select(
            &t,
            "SELECT city, COUNT(*) FROM DailySales GROUP BY city \
             HAVING city <> 'Novato' AND COUNT(*) >= 1 ORDER BY city",
        );
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn having_without_group_by_is_whole_table_filter() {
        let t = sales_table();
        let r = select(
            &t,
            "SELECT SUM(total_sales) FROM DailySales HAVING COUNT(*) > 100",
        );
        assert!(r.rows.is_empty());
        let r = select(
            &t,
            "SELECT SUM(total_sales) FROM DailySales HAVING COUNT(*) = 5",
        );
        assert_eq!(r.rows, vec![vec![Value::from(33_500)]]);
    }

    #[test]
    fn having_with_ungrouped_column_rejected() {
        let t = sales_table();
        let Statement::Select(s) = parse_statement(
            "SELECT state, SUM(total_sales) FROM DailySales GROUP BY state HAVING city = 'x'",
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(
            execute_select(&t, &s, &Params::new(), 1),
            Err(SqlError::NotGrouped("city".into()))
        );
    }

    #[test]
    fn limit_truncates_after_sort() {
        let t = sales_table();
        let r = select(
            &t,
            "SELECT total_sales FROM DailySales ORDER BY total_sales DESC LIMIT 2",
        );
        assert_eq!(
            r.rows,
            vec![vec![Value::from(12_000)], vec![Value::from(10_000)]]
        );
        let r = select(&t, "SELECT city FROM DailySales LIMIT 0");
        assert!(r.rows.is_empty());
        // LIMIT larger than the result is harmless.
        let r = select(&t, "SELECT city FROM DailySales LIMIT 99");
        assert_eq!(r.rows.len(), 5);
    }

    #[test]
    fn limit_applies_to_grouped_queries() {
        let t = sales_table();
        let r = select(
            &t,
            "SELECT city, SUM(total_sales) FROM DailySales GROUP BY city ORDER BY SUM(total_sales) DESC LIMIT 1",
        );
        assert_eq!(
            r.rows,
            vec![vec![Value::from("San Jose"), Value::from(13_500)]]
        );
    }

    #[test]
    fn to_table_string_renders() {
        let t = sales_table();
        let r = select(&t, "SELECT city FROM DailySales WHERE city = 'Novato'");
        let s = r.to_table_string();
        assert!(s.contains("city"));
        assert!(s.contains("Novato"));
    }

    const CITIES: [&str; 4] = ["San Jose", "Berkeley", "Novato", "Palo Alto"];
    const LINES: [&str; 3] = ["golf equip", "racquetball", "rollerblades"];

    /// A table big enough that a partitioned scan spans several pages. Row
    /// `i` is `(CITIES[i % 4], "CA", LINES[i % 3], 1996-10-(1 + i % 28), i)`,
    /// so every expectation below has a closed form over `0..rows`.
    fn big_table(rows: i64) -> Table {
        let t =
            Table::create("DailySales", daily_sales_schema(), Arc::new(IoStats::new())).unwrap();
        for i in 0..rows {
            t.insert(&[
                Value::from(CITIES[(i % 4) as usize]),
                Value::from("CA"),
                Value::from(LINES[(i % 3) as usize]),
                Value::from(Date::ymd(1996, 10, (1 + i % 28) as u8)),
                Value::from(i),
            ])
            .unwrap();
        }
        assert!(t.heap().page_count() >= 4, "partitions need pages to split");
        t
    }

    fn select_at(table: &Table, sql: &str, threads: usize) -> SqlResult<QueryResult> {
        let Statement::Select(s) = parse_statement(sql).unwrap() else {
            panic!("not a select")
        };
        execute_select(table, &s, &Params::new(), threads)
    }

    /// Run `sql` at one partition and at several; every partition count
    /// must give the one-partition answer, which is returned so the caller
    /// can hold it to an expectation computed without the executor.
    fn same_at_every_thread_count(table: &Table, sql: &str) -> QueryResult {
        let one = select_at(table, sql, 1).unwrap();
        for threads in [2, 4, 7] {
            let many = select_at(table, sql, threads).unwrap();
            assert_eq!(many, one, "{sql} with {threads} threads");
        }
        one
    }

    #[test]
    fn plain_select_is_the_same_at_every_thread_count() {
        let t = big_table(500);
        let all = same_at_every_thread_count(&t, "SELECT * FROM DailySales");
        let sales: Vec<Value> = all.rows.iter().map(|r| r[4].clone()).collect();
        assert_eq!(sales, (0..500).map(Value::from).collect::<Vec<_>>());

        let filtered = same_at_every_thread_count(
            &t,
            "SELECT city, total_sales FROM DailySales WHERE total_sales >= 250",
        );
        let want: Vec<Row> = (250..500)
            .map(|i| vec![Value::from(CITIES[(i % 4) as usize]), Value::from(i)])
            .collect();
        assert_eq!(filtered.rows, want);

        let top = same_at_every_thread_count(
            &t,
            "SELECT city, total_sales FROM DailySales WHERE city = 'Novato' \
             ORDER BY total_sales DESC LIMIT 10",
        );
        let want: Vec<Row> = (0..500)
            .rev()
            .filter(|i| i % 4 == 2)
            .take(10)
            .map(|i| vec![Value::from("Novato"), Value::from(i)])
            .collect();
        assert_eq!(top.rows, want);
    }

    #[test]
    fn grouped_select_is_the_same_at_every_thread_count() {
        let t = big_table(500);
        let global = same_at_every_thread_count(
            &t,
            "SELECT COUNT(*), SUM(total_sales), MIN(total_sales), MAX(total_sales) FROM DailySales",
        );
        let ints = |v: [i64; 4]| v.map(Value::from).to_vec();
        assert_eq!(global.rows, vec![ints([500, 124_750, 0, 499])]);

        // First-seen group order is scan order: LINES[0], LINES[1], LINES[2].
        let by_line = same_at_every_thread_count(
            &t,
            "SELECT product_line, SUM(total_sales) FROM DailySales GROUP BY product_line",
        );
        let want: Vec<Row> = (0..3)
            .map(|l| {
                let sum: i64 = (0..500).filter(|i| i % 3 == l).sum();
                vec![Value::from(LINES[l as usize]), Value::from(sum)]
            })
            .collect();
        assert_eq!(by_line.rows, want);

        let having = same_at_every_thread_count(
            &t,
            "SELECT city, COUNT(*), SUM(total_sales) FROM DailySales \
             WHERE total_sales >= 100 GROUP BY city \
             HAVING SUM(total_sales) > 1000 ORDER BY SUM(total_sales) DESC",
        );
        let mut want: Vec<(i64, Row)> = (0..4)
            .map(|c| {
                let members = (100..500).filter(move |i| i % 4 == c);
                let (n, sum) = (members.clone().count() as i64, members.sum::<i64>());
                let row = vec![Value::from(CITIES[c as usize]), n.into(), sum.into()];
                (sum, row)
            })
            .collect();
        want.sort_by_key(|(sum, _)| std::cmp::Reverse(*sum));
        let want: Vec<Row> = want.into_iter().map(|(_, row)| row).collect();
        assert_eq!(having.rows, want);

        let arithmetic = same_at_every_thread_count(
            &t,
            "SELECT city, SUM(total_sales) * 2 + COUNT(*) FROM DailySales GROUP BY city LIMIT 2",
        );
        let want: Vec<Row> = (0..2)
            .map(|c| {
                let sum: i64 = (0..500).filter(|i| i % 4 == c).sum();
                vec![Value::from(CITIES[c as usize]), Value::from(sum * 2 + 125)]
            })
            .collect();
        assert_eq!(arithmetic.rows, want);
    }

    #[test]
    fn avg_is_the_same_at_every_thread_count_on_ints() {
        let t = big_table(300);
        let avg = same_at_every_thread_count(
            &t,
            "SELECT city, AVG(total_sales) FROM DailySales GROUP BY city",
        );
        // Integer sums are exact, so partitioning cannot perturb the quotient.
        let want: Vec<Row> = (0..4)
            .map(|c| {
                let sum: i64 = (0..300).filter(|i| i % 4 == c).sum();
                vec![
                    Value::from(CITIES[c as usize]),
                    Value::Float(sum as f64 / 75.0),
                ]
            })
            .collect();
        assert_eq!(avg.rows, want);
    }

    #[test]
    fn aggregate_over_empty_input_is_the_same_at_every_thread_count() {
        let t =
            Table::create("DailySales", daily_sales_schema(), Arc::new(IoStats::new())).unwrap();
        let global = same_at_every_thread_count(
            &t,
            "SELECT COUNT(*), SUM(total_sales), MIN(city) FROM DailySales",
        );
        assert_eq!(
            global.rows,
            vec![vec![Value::from(0), Value::Null, Value::Null]]
        );
        // Empty input with GROUP BY yields no groups at all.
        let grouped =
            same_at_every_thread_count(&t, "SELECT city, COUNT(*) FROM DailySales GROUP BY city");
        assert!(grouped.rows.is_empty());
    }

    #[test]
    fn groups_merge_across_partitions_that_contribute_nothing() {
        // Only the first and last stretch of the heap survive WHERE, so the
        // middle partitions hand back no groups at all, and the groups the
        // outer ones share must still merge before HAVING, ORDER BY on an
        // aggregate, and LIMIT see them.
        let t = big_table(500);
        let sql = "SELECT city, COUNT(*), SUM(total_sales) FROM DailySales \
                   WHERE total_sales < 40 OR total_sales >= 480 GROUP BY city \
                   HAVING COUNT(*) >= 15 ORDER BY SUM(total_sales) DESC, city LIMIT 3";
        let got = same_at_every_thread_count(&t, sql);
        let mut want: Vec<(i64, Row)> = (0..4)
            .map(|c| {
                let members = (0..500).filter(move |i| (*i < 40 || *i >= 480) && i % 4 == c);
                let (n, sum) = (members.clone().count() as i64, members.sum::<i64>());
                let row = vec![Value::from(CITIES[c as usize]), n.into(), sum.into()];
                (sum, row)
            })
            .collect();
        want.sort_by_key(|(sum, _)| std::cmp::Reverse(*sum));
        let want: Vec<Row> = want.into_iter().take(3).map(|(_, row)| row).collect();
        assert_eq!(got.rows, want);
    }

    #[test]
    fn concatenated_key_images_keep_groups_apart() {
        // An in-memory row's `Char` image is its string, of any length, so
        // without the length prefix ("a\u{1}", "b") and ("a", "\u{1}b")
        // would share the bytes [1, a, 1, 1, b]; NULL and the empty string
        // must not collide either.
        let t =
            Table::create("DailySales", daily_sales_schema(), Arc::new(IoStats::new())).unwrap();
        for (city, state) in [
            (Value::from("a\u{1}"), Value::from("b")),
            (Value::from("a"), Value::from("\u{1}b")),
            (Value::from("a\u{1}"), Value::from("b")),
            (Value::Null, Value::from("")),
            (Value::from(""), Value::Null),
        ] {
            let date = Value::from(Date::ymd(1996, 10, 14));
            t.insert(&[city, state, Value::from("x"), date, Value::from(1)])
                .unwrap();
        }
        let r = select(
            &t,
            "SELECT city, state, COUNT(*) FROM DailySales GROUP BY city, state",
        );
        assert_eq!(
            r.rows,
            vec![
                vec![Value::from("a\u{1}"), Value::from("b"), Value::from(2)],
                vec![Value::from("a"), Value::from("\u{1}b"), Value::from(1)],
                vec![Value::Null, Value::from(""), Value::from(1)],
                vec![Value::from(""), Value::Null, Value::from(1)],
            ]
        );
    }

    #[test]
    fn visitor_error_propagates_at_every_thread_count() {
        let t = big_table(300);
        for threads in [1, 4] {
            let err = select_at(&t, "SELECT city + 1 FROM DailySales", threads);
            assert!(matches!(err, Err(SqlError::Type(_))), "{threads} threads");
        }
    }
}
