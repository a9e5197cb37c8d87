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

use crate::ast::{AggFunc, Expr, SelectItem, SelectStmt};
use crate::error::{SqlError, SqlResult};
use crate::eval::{EvalContext, Params};
use std::collections::HashMap;
use wh_index::IndexKey;
use wh_storage::{StorageError, Table};
use wh_types::{Row, Schema, Value};

/// Anything that can supply a schema and a partitioned row scan. Implemented
/// by storage tables; the 2VNL layer implements it for version-filtered
/// views.
pub trait RowSource {
    /// Schema of produced rows.
    fn schema(&self) -> &Schema;

    /// Scan the relation as at most `threads` contiguous partitions, handing
    /// each row to `visit` together with its partition's state (a fresh
    /// `S::default()` per partition), and return the states in partition —
    /// that is, scan — order. Sources should stream: produce each row and
    /// hand it over without materializing the relation. One partition is
    /// folded on the calling thread; a source that cannot partition may
    /// always answer with one.
    fn fold<S: Default + Send>(
        &self,
        threads: usize,
        visit: &(dyn Fn(&mut S, Row) -> SqlResult<()> + Sync),
    ) -> SqlResult<Vec<S>>;
}

impl RowSource for Table {
    fn schema(&self) -> &Schema {
        Table::schema(self)
    }

    fn fold<S: Default + Send>(
        &self,
        threads: usize,
        visit: &(dyn Fn(&mut S, Row) -> SqlResult<()> + Sync),
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
                    visit(&mut state, self.codec().decode(batch.record(i))?).map_err(|e| {
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

    let aggregate = is_aggregate_query(stmt);
    let (columns, out_rows, order_keys) = if aggregate {
        validate_grouping(schema, stmt)?;
        let specs = aggregate_specs(stmt);
        let parts = scan_filter(source, &ctx, stmt, threads, |part, row| {
            fold_group_row(&ctx, stmt, &specs, part, row)
        })?;
        let _stage = wh_obs::timed_span!("sql.exec.stage", "sql.exec.aggregate_ns");
        let groups = merge_groups(parts, &specs, stmt.group_by.is_empty())?;
        project_groups(&ctx, stmt, &specs, &groups)?
    } else {
        let parts = scan_filter(source, &ctx, stmt, threads, |part, row| {
            project_row(&ctx, stmt, part, row)
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
/// WHERE as each row arrives, and hand survivors to `fold_row` with their
/// partition's state. Row counters are summed over the partitions and
/// published once per query.
fn scan_filter<R, T>(
    source: &R,
    ctx: &EvalContext<'_>,
    stmt: &SelectStmt,
    threads: usize,
    fold_row: impl Fn(&mut T, Row) -> SqlResult<()> + Sync,
) -> SqlResult<Vec<T>>
where
    R: RowSource + ?Sized,
    T: Default + Send,
{
    let _scan = wh_obs::timed_span!("sql.exec.scan_filter", "sql.exec.scan_filter_ns");
    let parts = source.fold(threads, &|part: &mut Partition<T>, row| {
        part.scanned += 1;
        let keep = match &stmt.where_clause {
            Some(pred) => ctx.eval_predicate(pred, &row)?,
            None => true,
        };
        if keep {
            part.kept += 1;
            fold_row(&mut part.state, row)?;
        }
        Ok(())
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

/// The plain evaluation routine: project one surviving row (and its sort
/// keys) into its partition.
fn project_row(
    ctx: &EvalContext<'_>,
    stmt: &SelectStmt,
    part: &mut PlainPart,
    row: Row,
) -> SqlResult<()> {
    let projected = if stmt.items.is_empty() {
        None
    } else {
        let items = stmt.items.iter().map(|it| ctx.eval(&it.expr, &row));
        Some(items.collect::<SqlResult<Row>>()?)
    };
    if !stmt.order_by.is_empty() {
        let keys = stmt.order_by.iter().map(|k| ctx.eval(&k.expr, &row));
        part.order_keys.push(keys.collect::<SqlResult<_>>()?);
    }
    part.out_rows.push(projected.unwrap_or(row));
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
    lookup: HashMap<IndexKey, usize>,
    /// The group the previous row fell in. Scan order clusters equal keys
    /// (and an ungrouped aggregate has only the empty key), so most rows
    /// find their group here and never hash.
    last: usize,
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

/// The grouped evaluation routine: fold one surviving row into its group's
/// accumulators, opening the group if this partition has not seen it.
fn fold_group_row(
    ctx: &EvalContext<'_>,
    stmt: &SelectStmt,
    specs: &[AggSpec],
    part: &mut GroupPart,
    row: Row,
) -> SqlResult<()> {
    // Plain loops rather than `collect::<SqlResult<_>>()`/`transpose()`: this
    // runs once per row, and the adaptors measurably slow it (they shuttle
    // the wide `SqlResult` through every step).
    let mut key: Vec<Value> = Vec::with_capacity(stmt.group_by.len());
    for e in &stmt.group_by {
        key.push(ctx.eval(e, &row)?);
    }
    let mut opened = false;
    if part.groups.get(part.last).is_none_or(|g| g.key != key) {
        let key = IndexKey(key);
        part.last = match part.lookup.get(&key) {
            Some(&i) => i,
            None => {
                opened = true;
                let i = part.groups.len();
                part.groups.push(GroupAcc {
                    key: key.0.clone(),
                    rep: None,
                    accs: specs.iter().map(|(f, _)| AggAcc::new(*f)).collect(),
                });
                part.lookup.insert(key, i);
                i
            }
        };
    }
    let group = &mut part.groups[part.last];
    for (slot, (func, arg)) in group.accs.iter_mut().zip(specs) {
        let input = match arg {
            Some(e) => Some(ctx.eval(e, &row)?),
            None => None,
        };
        slot.fold(*func, input)?;
    }
    if opened {
        group.rep = Some(row);
    }
    Ok(())
}

/// Merge the partitions' groups in partition order — so first-seen group
/// order is scan order — into the first partition's state. An ungrouped
/// aggregate is one group over the whole input, even when that is empty.
fn merge_groups(
    parts: Vec<GroupPart>,
    specs: &[AggSpec],
    ungrouped: bool,
) -> SqlResult<Vec<GroupAcc>> {
    let mut parts = parts.into_iter();
    let mut all = parts.next().unwrap_or_default();
    for part in parts {
        for group in part.groups {
            let key = IndexKey(group.key.clone());
            match all.lookup.get(&key) {
                Some(&i) => {
                    for (slot, ((func, _), partial)) in all.groups[i]
                        .accs
                        .iter_mut()
                        .zip(specs.iter().zip(group.accs))
                    {
                        slot.merge(*func, partial)?;
                    }
                }
                None => {
                    all.lookup.insert(key, all.groups.len());
                    all.groups.push(group);
                }
            }
        }
    }
    if all.groups.is_empty() && ungrouped {
        all.groups.push(GroupAcc {
            key: Vec::new(),
            rep: None,
            accs: specs.iter().map(|(f, _)| AggAcc::new(*f)).collect(),
        });
    }
    Ok(all.groups)
}

/// HAVING, projection, and ORDER BY keys over the merged groups.
fn project_groups(
    ctx: &EvalContext<'_>,
    stmt: &SelectStmt,
    specs: &[AggSpec],
    groups: &[GroupAcc],
) -> SqlResult<ProjectedRows> {
    let columns: Vec<String> = stmt.items.iter().map(SelectItem::label).collect();
    let mut out_rows = Vec::new();
    let mut order_keys = Vec::new();
    for group in groups {
        let values: Vec<Value> = group
            .accs
            .iter()
            .map(AggAcc::finish)
            .collect::<SqlResult<_>>()?;
        let eval = |expr: &Expr| eval_computed(ctx, expr, group.rep.as_ref(), specs, &values);
        if let Some(h) = &stmt.having {
            if eval(h)? != Value::Bool(true) {
                continue;
            }
        }
        let projected = stmt.items.iter().map(|it| eval(&it.expr));
        let projected = projected.collect::<SqlResult<Row>>()?;
        if !stmt.order_by.is_empty() {
            let keys = stmt.order_by.iter().map(|k| eval(&k.expr));
            order_keys.push(keys.collect::<SqlResult<_>>()?);
        }
        out_rows.push(projected);
    }
    Ok((columns, out_rows, order_keys))
}

/// Evaluate an expression over a finished group: aggregate call sites take
/// their merged value, everything else evaluates against the group's
/// representative row (NULL when the group is empty).
fn eval_computed(
    ctx: &EvalContext<'_>,
    expr: &Expr,
    rep: Option<&Row>,
    specs: &[AggSpec],
    values: &[Value],
) -> SqlResult<Value> {
    match expr {
        Expr::Aggregate { func, arg } => {
            let i = specs
                .iter()
                .position(|(f, a)| f == func && a.as_ref() == arg.as_deref())
                .ok_or(SqlError::MisplacedAggregate)?;
            Ok(values[i].clone())
        }
        Expr::Binary { op, left, right } => {
            let l = eval_computed(ctx, left, rep, specs, values)?;
            let r = eval_computed(ctx, right, rep, specs, values)?;
            let rebuilt = Expr::binary(*op, Expr::Literal(l), Expr::Literal(r));
            ctx.eval(&rebuilt, &[])
        }
        Expr::Not(e) => {
            let v = eval_computed(ctx, e, rep, specs, values)?;
            ctx.eval(&Expr::Not(Box::new(Expr::Literal(v))), &[])
        }
        Expr::Neg(e) => {
            let v = eval_computed(ctx, e, rep, specs, values)?;
            ctx.eval(&Expr::Neg(Box::new(Expr::Literal(v))), &[])
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_computed(ctx, expr, rep, specs, values)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval_computed(ctx, expr, rep, specs, values)?;
            let lo = eval_computed(ctx, low, rep, specs, values)?;
            let hi = eval_computed(ctx, high, rep, specs, values)?;
            let rebuilt = Expr::Between {
                expr: Box::new(Expr::Literal(v)),
                low: Box::new(Expr::Literal(lo)),
                high: Box::new(Expr::Literal(hi)),
                negated: *negated,
            };
            ctx.eval(&rebuilt, &[])
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_computed(ctx, expr, rep, specs, values)?;
            let lits = list
                .iter()
                .map(|e| eval_computed(ctx, e, rep, specs, values).map(Expr::Literal))
                .collect::<SqlResult<Vec<_>>>()?;
            let rebuilt = Expr::InList {
                expr: Box::new(Expr::Literal(v)),
                list: lits,
                negated: *negated,
            };
            ctx.eval(&rebuilt, &[])
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (cond, val) in branches {
                if eval_computed(ctx, cond, rep, specs, values)? == Value::Bool(true) {
                    return eval_computed(ctx, val, rep, specs, values);
                }
            }
            match else_expr {
                Some(e) => eval_computed(ctx, e, rep, specs, values),
                None => Ok(Value::Null),
            }
        }
        scalar => match rep {
            Some(row) => ctx.eval(scalar, row),
            None => Ok(Value::Null),
        },
    }
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
    fn visitor_error_propagates_at_every_thread_count() {
        let t = big_table(300);
        for threads in [1, 4] {
            let err = select_at(&t, "SELECT city + 1 FROM DailySales", threads);
            assert!(matches!(err, Err(SqlError::Type(_))), "{threads} threads");
        }
    }
}
