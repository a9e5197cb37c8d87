//! Per-group patching of GROUP BY aggregate state from net-effect deltas.
//!
//! The 2VNL session-repair path (`wh-vnl`'s `RepairEngine`) fixes up an
//! expired reader from the maintenance transaction's net effect instead of
//! restarting it. For aggregate queries that means the repaired artifact is
//! not a row set but a **partial-aggregate map**: one accumulator per
//! aggregate call site per group, the same state the streaming executor
//! folds ([`crate::exec`]). [`AggPatcher`] holds that state in a form that
//! can be *patched*: each delta `(pre, post)` retracts the pre-image from
//! its group and folds the post-image into its — possibly different — group.
//!
//! Retraction is exact for the invertible aggregates — SUM, COUNT, and AVG
//! subtract in place — while MIN/MAX are not invertible (retracting the
//! current extremum loses the runner-up), so retracting a row that *could*
//! carry a group's extremum marks the group **dirty**. Dirty groups are
//! rebuilt from the repaired base rows ([`AggPatcher::rescan_dirty`]) —
//! the per-affected-group rescan fallback — and [`AggPatcher::finish`]
//! refuses to produce a result while any group is still dirty, so an
//! un-rescanned patch can never leak a wrong extremum.
//!
//! Only shapes whose patch semantics are exactly the executor's are
//! accepted ([`AggPatcher::new`] returns `Unsupported` otherwise); callers
//! treat that as "fall back to restart-and-rescan", never as an answer.

use crate::ast::{AggFunc, BinOp, Expr, SelectStmt};
use crate::error::{SqlError, SqlResult};
use crate::eval::{EvalContext, Params};
use crate::exec::{
    aggregate_specs, is_aggregate_query, project_groups, sort_and_limit, validate_grouping, AggAcc,
    AggSpec, QueryResult,
};
use std::collections::HashMap;
use wh_index::IndexKey;
use wh_types::{Row, Schema, Value};

/// One aggregate call site's accumulator plus the non-null input count that
/// lets retraction restore the "no inputs yet" state exactly.
#[derive(Debug, Clone)]
struct SiteAcc {
    acc: AggAcc,
    nonnull: i64,
}

/// Patchable per-group aggregate state.
#[derive(Debug, Clone)]
struct GroupState {
    key: Vec<Value>,
    /// A representative row for bare grouped-column references; any member
    /// row works because [`validate_grouping`] restricts bare references to
    /// grouping columns, on which all member rows agree.
    rep: Option<Row>,
    sites: Vec<SiteAcc>,
    /// Rows folded minus rows retracted; 0 ⇒ the group vanishes.
    rows: i64,
    /// A MIN/MAX retraction could not be answered in place; the group must
    /// be rebuilt from base rows before `finish`.
    dirty: bool,
}

/// Streaming GROUP BY aggregate state that accepts net-effect patches.
///
/// Build with [`AggPatcher::new`], fold the base rows of the stale snapshot
/// with [`AggPatcher::fold`], patch each delta with [`AggPatcher::apply`],
/// rebuild any dirty groups with [`AggPatcher::rescan_dirty`], and read the
/// final [`QueryResult`] — HAVING, projection, ORDER BY, LIMIT included —
/// with [`AggPatcher::finish`].
pub struct AggPatcher<'q> {
    schema: &'q Schema,
    stmt: &'q SelectStmt,
    params: &'q Params,
    specs: Vec<AggSpec>,
    /// Dead (emptied) groups become `None`; indices stay stable for `lookup`.
    groups: Vec<Option<GroupState>>,
    lookup: HashMap<IndexKey, usize>,
    patched: u64,
    rescanned: u64,
}

impl<'q> AggPatcher<'q> {
    /// Plan patchable aggregate state for `stmt` over `schema` rows.
    ///
    /// `Err(SqlError::Unsupported)` marks a statement whose patch semantics
    /// would not exactly match the executor (not an aggregate query, or a
    /// GROUP BY expression that is not a plain column); the caller must
    /// fall back to re-executing the statement.
    pub fn new(schema: &'q Schema, stmt: &'q SelectStmt, params: &'q Params) -> SqlResult<Self> {
        if !is_aggregate_query(stmt) {
            return Err(SqlError::Unsupported(
                "aggregate patching serves aggregate queries only".into(),
            ));
        }
        if let Some(w) = &stmt.where_clause {
            if w.contains_aggregate() {
                return Err(SqlError::MisplacedAggregate);
            }
        }
        validate_grouping(schema, stmt)?;
        // Non-column GROUP BY keys defeat `validate_grouping`'s bare-column
        // check, so a retracted representative row could change the group's
        // projected scalars — refuse rather than risk divergence.
        if !stmt.group_by.iter().all(|e| matches!(e, Expr::Column(_))) {
            return Err(SqlError::Unsupported(
                "aggregate patching requires plain-column GROUP BY keys".into(),
            ));
        }
        Ok(AggPatcher {
            schema,
            stmt,
            params,
            specs: aggregate_specs(stmt),
            groups: Vec::new(),
            lookup: HashMap::new(),
            patched: 0,
            rescanned: 0,
        })
    }

    fn ctx(&self) -> EvalContext<'q> {
        EvalContext::new(self.schema, self.params)
    }

    fn group_key(&self, ctx: &EvalContext<'_>, row: &Row) -> SqlResult<Vec<Value>> {
        self.stmt
            .group_by
            .iter()
            .map(|e| ctx.eval(e, row))
            .collect()
    }

    fn passes_where(&self, ctx: &EvalContext<'_>, row: &Row) -> SqlResult<bool> {
        match &self.stmt.where_clause {
            Some(pred) => ctx.eval_predicate(pred, row),
            None => Ok(true),
        }
    }

    /// Evaluate every aggregate argument against `row` (`None` = COUNT(*)).
    fn inputs(&self, ctx: &EvalContext<'_>, row: &Row) -> SqlResult<Vec<Option<Value>>> {
        self.specs
            .iter()
            .map(|(_, arg)| match arg {
                Some(e) => ctx.eval(e, row).map(Some),
                None => Ok(None),
            })
            .collect()
    }

    /// Fold one base row of the snapshot being repaired (WHERE applies; a
    /// filtered-out row is a no-op).
    pub fn fold(&mut self, row: &Row) -> SqlResult<()> {
        let ctx = self.ctx();
        if !self.passes_where(&ctx, row)? {
            return Ok(());
        }
        let key = self.group_key(&ctx, row)?;
        let inputs = self.inputs(&ctx, row)?;
        let idx_key = IndexKey(key.clone());
        let i = match self.lookup.get(&idx_key) {
            Some(&i) => i,
            None => {
                let i = self.groups.len();
                self.lookup.insert(idx_key, i);
                self.groups.push(Some(GroupState {
                    key,
                    rep: Some(row.clone()),
                    sites: self
                        .specs
                        .iter()
                        .map(|(f, _)| SiteAcc {
                            acc: AggAcc::new(*f),
                            nonnull: 0,
                        })
                        .collect(),
                    rows: 0,
                    dirty: false,
                }));
                i
            }
        };
        let group = self.groups[i].as_mut().ok_or_else(dead_group)?;
        group.rows += 1;
        if group.rep.is_none() {
            group.rep = Some(row.clone());
        }
        for (site, ((func, _), input)) in group.sites.iter_mut().zip(self.specs.iter().zip(inputs))
        {
            if input.as_ref().is_none_or(|v| !v.is_null()) {
                site.nonnull += 1;
            }
            site.acc.fold(*func, input)?;
        }
        Ok(())
    }

    /// Retract one previously-folded row. `Err` means the state cannot be
    /// proven consistent (retraction from a group never folded) — the
    /// caller must fall back to a full re-execution.
    fn retract(&mut self, row: &Row) -> SqlResult<()> {
        let ctx = self.ctx();
        if !self.passes_where(&ctx, row)? {
            return Ok(());
        }
        let key = self.group_key(&ctx, row)?;
        let inputs = self.inputs(&ctx, row)?;
        let idx_key = IndexKey(key);
        let &i = self.lookup.get(&idx_key).ok_or_else(unseen_group)?;
        let group = self.groups[i].as_mut().ok_or_else(unseen_group)?;
        if group.rows == 0 {
            return Err(unseen_group());
        }
        group.rows -= 1;
        for (site, ((func, _), input)) in group.sites.iter_mut().zip(self.specs.iter().zip(inputs))
        {
            retract_site(site, *func, input, &ctx, &mut group.dirty)?;
        }
        // An emptied group vanishes from the result — except the global
        // group of an ungrouped aggregate, which the executor keeps (its
        // COUNT is 0 and the other aggregates go NULL, which the retracted
        // accumulators now encode).
        if group.rows == 0 && !self.stmt.group_by.is_empty() {
            self.groups[i] = None;
            self.lookup.remove(&idx_key);
        }
        Ok(())
    }

    /// Patch one net-effect delta: retract the pre-image, fold the
    /// post-image. Either side may be absent (pure insert / pure delete).
    pub fn apply(&mut self, pre: Option<&Row>, post: Option<&Row>) -> SqlResult<()> {
        if let Some(p) = pre {
            self.retract(p)?;
        }
        if let Some(p) = post {
            self.fold(p)?;
        }
        self.patched += 1;
        Ok(())
    }

    /// Whether any group still needs a [`AggPatcher::rescan_dirty`] pass.
    pub fn has_dirty(&self) -> bool {
        self.groups.iter().flatten().any(|g| g.dirty)
    }

    /// Rebuild every dirty group from `rows` — the repaired base relation
    /// at the target version. Rows of clean groups are skipped without
    /// touching their accumulators. Returns the number of groups rebuilt.
    pub fn rescan_dirty<I>(&mut self, rows: I) -> SqlResult<u64>
    where
        I: IntoIterator,
        I::Item: AsRef<Row>,
    {
        let dirty_keys: Vec<IndexKey> = self
            .groups
            .iter()
            .flatten()
            .filter(|g| g.dirty)
            .map(|g| IndexKey(g.key.clone()))
            .collect();
        if dirty_keys.is_empty() {
            return Ok(0);
        }
        // Reset dirty groups to empty, then refold only their rows.
        for key in &dirty_keys {
            let &i = self.lookup.get(key).ok_or_else(dead_group)?;
            let group = self.groups[i].as_mut().ok_or_else(dead_group)?;
            group.rep = None;
            group.rows = 0;
            group.dirty = false;
            for (site, (f, _)) in group.sites.iter_mut().zip(&self.specs) {
                *site = SiteAcc {
                    acc: AggAcc::new(*f),
                    nonnull: 0,
                };
            }
        }
        let ctx = self.ctx();
        for row in rows {
            let row = row.as_ref();
            if !self.passes_where(&ctx, row)? {
                continue;
            }
            let key = IndexKey(self.group_key(&ctx, row)?);
            if !dirty_keys.contains(&key) {
                continue;
            }
            self.fold(row)?;
        }
        // A dirty group with no surviving rows vanishes like any other.
        for key in &dirty_keys {
            if let Some(&i) = self.lookup.get(key) {
                let empty = self.groups[i].as_ref().is_some_and(|g| g.rows == 0);
                if empty && !self.stmt.group_by.is_empty() {
                    self.groups[i] = None;
                    self.lookup.remove(key);
                }
            }
        }
        self.rescanned += dirty_keys.len() as u64;
        Ok(dirty_keys.len() as u64)
    }

    /// Deltas applied so far.
    pub fn patched(&self) -> u64 {
        self.patched
    }

    /// Groups rebuilt by the MIN/MAX rescan fallback so far.
    pub fn rescanned(&self) -> u64 {
        self.rescanned
    }

    /// Produce the final query result: HAVING, projection, ORDER BY, and
    /// LIMIT applied exactly as the executor would. Refuses while any group
    /// is still dirty.
    pub fn finish(&self) -> SqlResult<QueryResult> {
        if self.has_dirty() {
            return Err(SqlError::Unsupported(
                "dirty MIN/MAX groups must be rescanned before finish".into(),
            ));
        }
        let ctx = self.ctx();
        let specs = &self.specs;
        let mut live: Vec<&GroupState> = self.groups.iter().flatten().collect();
        // The executor synthesizes one empty global group for ungrouped
        // aggregates over an empty input.
        let empty_global = GroupState {
            key: Vec::new(),
            rep: None,
            sites: specs
                .iter()
                .map(|(f, _)| SiteAcc {
                    acc: AggAcc::new(*f),
                    nonnull: 0,
                })
                .collect(),
            rows: 0,
            dirty: false,
        };
        if live.is_empty() && self.stmt.group_by.is_empty() {
            live.push(&empty_global);
        }
        let groups = live
            .into_iter()
            .map(|g| (g.rep.as_ref(), g.sites.iter().map(|s| &s.acc)));
        let (columns, out_rows, order_keys) = project_groups(&ctx, self.stmt, specs, groups)?;
        Ok(sort_and_limit(self.stmt, columns, out_rows, order_keys))
    }
}

fn unseen_group() -> SqlError {
    SqlError::Unsupported("retraction from a group the snapshot never produced".into())
}

fn dead_group() -> SqlError {
    SqlError::Unsupported("patch state lost a group it still references".into())
}

/// Retract one input from one call site's accumulator; sets `dirty` when
/// the site cannot answer the retraction in place (MIN/MAX extremum).
fn retract_site(
    site: &mut SiteAcc,
    func: AggFunc,
    input: Option<Value>,
    ctx: &EvalContext<'_>,
    dirty: &mut bool,
) -> SqlResult<()> {
    let nonnull = input.as_ref().is_none_or(|v| !v.is_null());
    if nonnull {
        site.nonnull -= 1;
    }
    match (&mut site.acc, func) {
        (AggAcc::Count(n), _) => {
            if nonnull {
                *n -= 1;
            }
        }
        (AggAcc::Value(slot), AggFunc::Sum) => {
            let v = input.ok_or(SqlError::MisplacedAggregate)?;
            if v.is_null() {
                return Ok(());
            }
            let prev = slot.take().ok_or_else(unseen_group)?;
            *slot = if site.nonnull == 0 {
                None
            } else {
                Some(subtract(ctx, prev, v)?)
            };
        }
        (AggAcc::Value(slot), AggFunc::Min | AggFunc::Max) => {
            let v = input.ok_or(SqlError::MisplacedAggregate)?;
            if v.is_null() {
                return Ok(());
            }
            let Some(prev) = slot.as_ref() else {
                return Err(unseen_group());
            };
            // Safe in place only when the retracted value is strictly on
            // the losing side of the extremum; ties (duplicates) and the
            // extremum itself need the rescan fallback.
            let safe = match v.sql_cmp(prev)? {
                Some(std::cmp::Ordering::Greater) => func == AggFunc::Min,
                Some(std::cmp::Ordering::Less) => func == AggFunc::Max,
                _ => false,
            };
            if !safe {
                *dirty = true;
            } else if site.nonnull == 0 {
                *slot = None;
            }
        }
        (AggAcc::Avg { acc, n }, _) => {
            let v = input.ok_or(SqlError::MisplacedAggregate)?;
            if v.is_null() {
                return Ok(());
            }
            *n -= 1;
            let prev = acc.take().ok_or_else(unseen_group)?;
            *acc = if *n == 0 {
                None
            } else {
                Some(subtract(ctx, prev, v)?)
            };
        }
        _ => {
            return Err(SqlError::Unsupported(
                "mismatched accumulator shape under retraction".into(),
            ))
        }
    }
    Ok(())
}

/// `a − b` under the executor's own arithmetic (types, NULLs, overflow all
/// behave exactly as a SQL `a - b` would).
fn subtract(ctx: &EvalContext<'_>, a: Value, b: Value) -> SqlResult<Value> {
    ctx.eval(
        &Expr::binary(BinOp::Sub, Expr::Literal(a), Expr::Literal(b)),
        &[],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::exec::{execute_select, RowSource};
    use crate::parser::parse_statement;
    use wh_types::{Column, DataType, Schema};

    struct MemSource<'a> {
        schema: &'a Schema,
        rows: &'a [Row],
    }

    impl RowSource for MemSource<'_> {
        fn schema(&self) -> &Schema {
            self.schema
        }

        fn fold<S: Default + Send>(
            &self,
            _threads: usize,
            visit: &(dyn Fn(&mut S, Row) -> SqlResult<()> + Sync),
        ) -> SqlResult<Vec<S>> {
            let mut state = S::default();
            for row in self.rows {
                visit(&mut state, row.clone())?;
            }
            Ok(vec![state])
        }
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("city", DataType::Char(8)),
            Column::updatable("sales", DataType::Int64),
        ])
        .unwrap()
    }

    fn select(sql: &str) -> SelectStmt {
        let Statement::Select(s) = parse_statement(sql).unwrap() else {
            panic!("expected SELECT: {sql}")
        };
        s
    }

    fn row(city: &str, sales: i64) -> Row {
        vec![Value::from(city), Value::from(sales)]
    }

    /// Reference: execute the statement over `rows` directly.
    fn rescan(schema: &Schema, stmt: &SelectStmt, rows: &[Row]) -> QueryResult {
        execute_select(&MemSource { schema, rows }, stmt, &Params::new(), 1).unwrap()
    }

    fn sorted(mut r: QueryResult) -> QueryResult {
        r.rows.sort_by_key(|a| IndexKey(a.clone()));
        r
    }

    /// Build state from `base`, apply `deltas`, rescan dirty groups against
    /// `target`, and assert the finished result equals a fresh execution
    /// over `target`.
    fn check(sql: &str, base: &[Row], deltas: &[(Option<Row>, Option<Row>)], target: &[Row]) {
        let schema = schema();
        let stmt = select(sql);
        let params = Params::new();
        let mut patcher = AggPatcher::new(&schema, &stmt, &params).unwrap();
        for r in base {
            patcher.fold(r).unwrap();
        }
        for (pre, post) in deltas {
            patcher.apply(pre.as_ref(), post.as_ref()).unwrap();
        }
        if patcher.has_dirty() {
            patcher.rescan_dirty(target.iter()).unwrap();
        }
        assert_eq!(
            sorted(patcher.finish().unwrap()),
            sorted(rescan(&schema, &stmt, target)),
            "patched result diverged from rescan for {sql}"
        );
    }

    #[test]
    fn sum_count_avg_patch_in_place() {
        let base = vec![row("SJ", 10), row("SJ", 20), row("SF", 5)];
        let target = vec![row("SJ", 10), row("SJ", 25), row("SF", 5), row("LA", 7)];
        let deltas = vec![
            (Some(row("SJ", 20)), Some(row("SJ", 25))), // update
            (None, Some(row("LA", 7))),                 // insert
        ];
        for sql in [
            "SELECT city, SUM(sales) FROM t GROUP BY city",
            "SELECT city, COUNT(*) FROM t GROUP BY city",
            "SELECT city, AVG(sales) FROM t GROUP BY city",
            "SELECT city, SUM(sales) + COUNT(*) FROM t GROUP BY city",
        ] {
            let schema = schema();
            let stmt = select(sql);
            let params = Params::new();
            let mut p = AggPatcher::new(&schema, &stmt, &params).unwrap();
            for r in &base {
                p.fold(r).unwrap();
            }
            for (pre, post) in &deltas {
                p.apply(pre.as_ref(), post.as_ref()).unwrap();
            }
            assert!(!p.has_dirty(), "{sql} should patch in place");
            assert_eq!(
                sorted(p.finish().unwrap()),
                sorted(rescan(&schema, &stmt, &target))
            );
        }
    }

    #[test]
    fn min_max_retraction_of_extremum_goes_dirty_and_rescans() {
        let base = vec![row("SJ", 10), row("SJ", 20)];
        // Retract the MAX; the in-place path cannot know the runner-up.
        let target = vec![row("SJ", 10), row("SJ", 15)];
        check(
            "SELECT city, MAX(sales) FROM t GROUP BY city",
            &base,
            &[(Some(row("SJ", 20)), Some(row("SJ", 15)))],
            &target,
        );
        check(
            "SELECT city, MIN(sales) FROM t GROUP BY city",
            &base,
            &[(Some(row("SJ", 10)), Some(row("SJ", 15)))],
            &target,
        );
    }

    #[test]
    fn min_max_safe_retraction_stays_clean() {
        let schema = schema();
        let stmt = select("SELECT city, MAX(sales) FROM t GROUP BY city");
        let params = Params::new();
        let mut p = AggPatcher::new(&schema, &stmt, &params).unwrap();
        for r in [row("SJ", 10), row("SJ", 20)] {
            p.fold(&r).unwrap();
        }
        // Retracting a non-extremum is answerable in place.
        p.apply(Some(&row("SJ", 10)), None).unwrap();
        assert!(!p.has_dirty());
        assert_eq!(
            p.finish().unwrap().rows,
            vec![vec![Value::from("SJ"), Value::from(20)]]
        );
    }

    #[test]
    fn group_deletion_and_creation() {
        let base = vec![row("SJ", 10), row("SF", 5)];
        let target = vec![row("SF", 5), row("LA", 3)];
        check(
            "SELECT city, SUM(sales) FROM t GROUP BY city",
            &base,
            &[
                (Some(row("SJ", 10)), None), // SJ group vanishes
                (None, Some(row("LA", 3))),  // LA group appears
            ],
            &target,
        );
    }

    #[test]
    fn where_having_order_limit_survive_patching() {
        let base = vec![row("SJ", 10), row("SJ", 2), row("SF", 50), row("LA", 9)];
        let target = vec![row("SJ", 10), row("SJ", 40), row("SF", 50), row("LA", 9)];
        check(
            "SELECT city, SUM(sales) FROM t WHERE sales > 5 \
             GROUP BY city HAVING SUM(sales) > 9 \
             ORDER BY SUM(sales) DESC LIMIT 2",
            &base,
            &[(Some(row("SJ", 2)), Some(row("SJ", 40)))],
            &target,
        );
    }

    #[test]
    fn ungrouped_aggregate_keeps_global_group_when_emptied() {
        let base = vec![row("SJ", 10)];
        let target: Vec<Row> = vec![];
        check(
            "SELECT COUNT(*), SUM(sales) FROM t",
            &base,
            &[(Some(row("SJ", 10)), None)],
            &target,
        );
    }

    #[test]
    fn retraction_from_unseen_group_is_refused() {
        let schema = schema();
        let stmt = select("SELECT city, SUM(sales) FROM t GROUP BY city");
        let params = Params::new();
        let mut p = AggPatcher::new(&schema, &stmt, &params).unwrap();
        p.fold(&row("SJ", 10)).unwrap();
        assert!(p.apply(Some(&row("LA", 1)), None).is_err());
    }

    #[test]
    fn unpatchable_shapes_are_refused_up_front() {
        let schema = schema();
        let params = Params::new();
        let plain = select("SELECT city FROM t");
        assert!(AggPatcher::new(&schema, &plain, &params).is_err());
        let exprs = select("SELECT SUM(sales) FROM t GROUP BY sales + 1");
        assert!(AggPatcher::new(&schema, &exprs, &params).is_err());
    }
}
