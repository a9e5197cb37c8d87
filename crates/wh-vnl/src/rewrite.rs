//! Query rewrite (§4): 2VNL on top of a stock DBMS.
//!
//! Reader queries over the base schema are mechanically rewritten to run
//! against the extended schema (Example 4.1):
//!
//! * every reference to an **updatable** attribute becomes a `CASE`
//!   expression choosing the current or pre-update copy by comparing
//!   `:sessionVN` with `tupleVN`;
//! * a guard is added to the `WHERE` clause so logically-absent tuples
//!   (deleted at the session's version, or not yet inserted) drop out.
//!
//! For `n = 2` the output is exactly the paper's shape. The same machinery
//! generalizes to nVNL: the `CASE` walks the version slots newest-to-oldest
//! and the guard enumerates which slot is decisive for the session
//! (`tupleVNⱼ > :sessionVN` and slot `j+1` is empty or `≤ :sessionVN`).
//!
//! Expiration is *not* expressible in the rewritten SQL — an expired row
//! would silently produce its oldest pre-update values — which is why §4.1
//! pairs rewritten queries with the global Version-relation check
//! (`ReaderSession::query_via_rewrite` does this automatically).
//!
//! Operation codes are stored as 1-byte `CHAR(1)` values (`'i'`/`'u'`/`'d'`)
//! to keep Figure 3's byte counts; the paper's `operation <> 'delete'`
//! renders here as `operation <> 'd'`.

use crate::error::VnlResult;
use crate::schema_ext::ExtLayout;
use crate::version::Operation;
use wh_sql::{BinOp, Expr, SelectStmt};

/// Rewrites base-schema SELECTs into extended-schema SELECTs.
#[derive(Debug, Clone)]
pub struct QueryRewriter {
    layout: ExtLayout,
}

impl QueryRewriter {
    /// Build a rewriter for `layout`.
    pub fn new(layout: ExtLayout) -> Self {
        QueryRewriter { layout }
    }

    fn session_param() -> Expr {
        Expr::param("sessionVN")
    }

    fn vn_name(&self, j: usize) -> String {
        self.layout.ext_schema().columns()[self.layout.vn_col(j)]
            .name
            .clone()
    }

    fn op_name(&self, j: usize) -> String {
        self.layout.ext_schema().columns()[self.layout.op_col(j)]
            .name
            .clone()
    }

    fn pre_name(&self, j: usize, updatable_pos: usize) -> String {
        self.layout.ext_schema().columns()[self.layout.pre_set(j)[updatable_pos]]
            .name
            .clone()
    }

    /// The CASE expression substituted for updatable column `name`
    /// (Example 4.1's `CASE WHEN :sessionVN >= tupleVN THEN total_sales ELSE
    /// pre_total_sales END`, generalized over slots).
    pub fn value_case(&self, name: &str) -> VnlResult<Expr> {
        let base_idx = self.layout.base_schema().column_index(name)?;
        #[expect(clippy::expect_used, reason = "invariant in the expect message")]
        let u_pos = self
            .layout
            .updatable()
            .iter()
            .position(|&u| u == base_idx)
            .expect("value_case called for an updatable column");
        let slots = self.layout.slots();
        let mut branches = Vec::new();
        // Slot-0 current branch.
        branches.push((
            Expr::binary(
                BinOp::GtEq,
                Self::session_param(),
                Expr::col(self.vn_name(0)),
            ),
            Expr::col(name),
        ));
        // Pre branches: slot j decisive when vn_{j+1} is empty or <= :s;
        // the oldest slot is the ELSE arm.
        let oldest = slots.saturating_sub(1);
        for j in 0..oldest {
            let pre = Expr::col(self.pre_name(j, u_pos));
            let next_empty_or_le = Expr::IsNull {
                expr: Box::new(Expr::col(self.vn_name(j + 1))),
                negated: false,
            }
            .or(Expr::binary(
                BinOp::GtEq,
                Self::session_param(),
                Expr::col(self.vn_name(j + 1)),
            ));
            branches.push((next_empty_or_le, pre));
        }
        Ok(Expr::Case {
            branches,
            else_expr: Some(Box::new(Expr::col(self.pre_name(oldest, u_pos)))),
        })
    }

    /// The WHERE guard selecting visible tuples (Example 4.1's
    /// `(:sessionVN >= tupleVN AND operation <> 'd') OR
    /// (:sessionVN < tupleVN AND operation <> 'i')`, generalized).
    pub fn visibility_guard(&self) -> Expr {
        let slots = self.layout.slots();
        let not_op = |j: usize, op: Operation| {
            Expr::binary(
                BinOp::NotEq,
                Expr::col(self.op_name(j)),
                Expr::lit(op.code()),
            )
        };
        // Current-version term.
        let mut guard = Expr::binary(
            BinOp::GtEq,
            Self::session_param(),
            Expr::col(self.vn_name(0)),
        )
        .and(not_op(0, Operation::Delete));
        // Pre-version terms, one per slot.
        for j in 0..slots {
            let mut term =
                Expr::binary(BinOp::Lt, Self::session_param(), Expr::col(self.vn_name(j)));
            if j + 1 < slots {
                term = term.and(
                    Expr::IsNull {
                        expr: Box::new(Expr::col(self.vn_name(j + 1))),
                        negated: false,
                    }
                    .or(Expr::binary(
                        BinOp::GtEq,
                        Self::session_param(),
                        Expr::col(self.vn_name(j + 1)),
                    )),
                );
            }
            term = term.and(not_op(j, Operation::Insert));
            guard = guard.or(term);
        }
        guard
    }

    /// Rewrite a base-schema SELECT into its extended-schema form.
    pub fn rewrite_select(&self, stmt: &SelectStmt) -> VnlResult<SelectStmt> {
        let mut out = stmt.clone();
        // SELECT * expands to the base columns explicitly (the physical
        // table has more columns than the reader should see).
        if out.items.is_empty() {
            out.items = self
                .layout
                .base_schema()
                .columns()
                .iter()
                .map(|c| wh_sql::SelectItem {
                    expr: Expr::col(c.name.clone()),
                    alias: Some(c.name.clone()),
                })
                .collect();
        }
        for item in &mut out.items {
            item.expr = self.rewrite_expr(item.expr.clone())?;
        }
        for g in &mut out.group_by {
            *g = self.rewrite_expr(g.clone())?;
        }
        if let Some(h) = out.having.take() {
            out.having = Some(self.rewrite_expr(h)?);
        }
        for k in &mut out.order_by {
            k.expr = self.rewrite_expr(k.expr.clone())?;
        }
        let guard = self.visibility_guard();
        out.where_clause = Some(match out.where_clause.take() {
            Some(w) => {
                // Guard first (paper's rendering), then the original
                // predicate with its column references rewritten.
                let rewritten = self.rewrite_expr(w)?;
                guard.and(rewritten)
            }
            None => guard,
        });
        Ok(out)
    }

    /// Rewrite one expression: swap updatable column references for their
    /// CASE extraction.
    pub fn rewrite_expr(&self, expr: Expr) -> VnlResult<Expr> {
        let updatable_names: Vec<String> = self
            .layout
            .updatable()
            .iter()
            .map(|&u| self.layout.base_schema().columns()[u].name.clone())
            .collect();
        let mut failure = None;
        let out = expr.transform(&mut |node| match node {
            Expr::Column(ref name) if updatable_names.contains(name) => {
                match self.value_case(name) {
                    Ok(case) => case,
                    Err(e) => {
                        failure = Some(e);
                        node
                    }
                }
            }
            other => other,
        });
        match failure {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wh_sql::parse_statement;
    use wh_types::schema::daily_sales_schema;

    fn rewriter(n: usize) -> QueryRewriter {
        QueryRewriter::new(ExtLayout::new(daily_sales_schema(), n).unwrap())
    }

    #[test]
    fn example_4_1_rewrite_text() {
        // The paper's Example 4.1, with our 1-byte operation codes.
        let r = rewriter(2);
        let wh_sql::Statement::Select(q) = parse_statement(
            "SELECT city, state, SUM(total_sales) FROM DailySales GROUP BY city, state",
        )
        .unwrap() else {
            panic!()
        };
        let rewritten = r.rewrite_select(&q).unwrap();
        assert_eq!(
            rewritten.to_string(),
            "SELECT city, state, \
             SUM(CASE WHEN :sessionVN >= tupleVN THEN total_sales ELSE pre_total_sales END) \
             FROM DailySales \
             WHERE :sessionVN >= tupleVN AND operation <> 'd' \
             OR :sessionVN < tupleVN AND operation <> 'i' \
             GROUP BY city, state"
        );
    }

    #[test]
    fn non_updatable_columns_untouched() {
        let r = rewriter(2);
        let e = r.rewrite_expr(Expr::col("city")).unwrap();
        assert_eq!(e, Expr::col("city"));
    }

    #[test]
    fn updatable_column_in_predicate_rewritten() {
        let r = rewriter(2);
        let wh_sql::Statement::Select(q) =
            parse_statement("SELECT city FROM DailySales WHERE total_sales > 5000").unwrap()
        else {
            panic!()
        };
        let rewritten = r.rewrite_select(&q).unwrap();
        let w = rewritten.where_clause.unwrap().to_string();
        assert!(
            w.contains(
                "CASE WHEN :sessionVN >= tupleVN THEN total_sales ELSE pre_total_sales END > 5000"
            ),
            "got: {w}"
        );
        // The guard is parenthesized as the left operand of the AND.
        assert!(
            w.starts_with("(:sessionVN >= tupleVN AND operation <> 'd'"),
            "got: {w}"
        );
    }

    #[test]
    fn select_star_expands_to_base_columns() {
        let r = rewriter(2);
        let wh_sql::Statement::Select(q) = parse_statement("SELECT * FROM DailySales").unwrap()
        else {
            panic!()
        };
        let rewritten = r.rewrite_select(&q).unwrap();
        assert_eq!(rewritten.items.len(), 5);
        assert_eq!(rewritten.items[0].label(), "city");
        // total_sales expands to its CASE but keeps its alias.
        assert_eq!(rewritten.items[4].label(), "total_sales");
        assert!(matches!(rewritten.items[4].expr, Expr::Case { .. }));
    }

    #[test]
    fn nvnl_case_walks_slots() {
        let r = rewriter(4);
        let case = r.value_case("total_sales").unwrap();
        let text = case.to_string();
        assert!(text.contains(":sessionVN >= tupleVN1 THEN total_sales"));
        assert!(text.contains("tupleVN2 IS NULL OR :sessionVN >= tupleVN2 THEN pre_total_sales1"));
        assert!(text.contains("tupleVN3 IS NULL OR :sessionVN >= tupleVN3 THEN pre_total_sales2"));
        assert!(text.contains("ELSE pre_total_sales3"));
    }

    #[test]
    fn nvnl_guard_enumerates_slots() {
        let r = rewriter(3);
        let g = r.visibility_guard().to_string();
        assert!(g.contains(":sessionVN >= tupleVN1 AND operation1 <> 'd'"));
        assert!(g.contains(":sessionVN < tupleVN1"));
        assert!(g.contains("operation1 <> 'i'"));
        assert!(g.contains(":sessionVN < tupleVN2 AND operation2 <> 'i'"));
    }

    #[test]
    fn group_by_and_order_by_rewritten() {
        let r = rewriter(2);
        let wh_sql::Statement::Select(q) = parse_statement(
            "SELECT city, SUM(total_sales) FROM DailySales GROUP BY city ORDER BY SUM(total_sales) DESC",
        )
        .unwrap() else {
            panic!()
        };
        let rewritten = r.rewrite_select(&q).unwrap();
        let order = rewritten.order_by[0].expr.to_string();
        assert!(order.contains("CASE WHEN"));
    }
}
