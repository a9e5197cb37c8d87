//! Abstract syntax tree for the supported SQL subset, with SQL-text
//! rendering.
//!
//! Rendering matters as much as parsing here: the 2VNL rewriter (`wh-vnl`)
//! transforms reader queries by *injecting* CASE expressions and WHERE
//! guards (paper §4.1), and the reproduction of Example 4.1 compares the
//! rendered text of the rewritten AST against the paper's published SQL.

use std::fmt;
use wh_types::Value;

/// Binary operators, in SQL spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinOp {
    /// Parser precedence (higher binds tighter).
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => 3,
            BinOp::Add | BinOp::Sub => 4,
            BinOp::Mul | BinOp::Div => 5,
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        };
        write!(f, "{s}")
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `SUM`
    Sum,
    /// `COUNT`
    Count,
    /// `AVG`
    Avg,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Sum => "SUM",
            AggFunc::Count => "COUNT",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        };
        write!(f, "{s}")
    }
}

/// Scalar and aggregate expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference by name.
    Column(String),
    /// Literal value.
    Literal(Value),
    /// Named placeholder, written `:name`. The paper's rewrites use
    /// `:sessionVN` and `:maintenanceVN` placeholders (§4.1–4.2).
    Param(String),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical negation: `NOT e`.
    Not(Box<Expr>),
    /// Arithmetic negation: `-e`.
    Neg(Box<Expr>),
    /// `e IS NULL` / `e IS NOT NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `e [NOT] BETWEEN lo AND hi` (inclusive bounds).
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound.
        low: Box<Expr>,
        /// Upper bound.
        high: Box<Expr>,
        /// True for `NOT BETWEEN`.
        negated: bool,
    },
    /// `e [NOT] IN (v1, v2, ...)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// Searched CASE: `CASE WHEN c THEN v [WHEN ...] [ELSE e] END`.
    Case {
        /// `(condition, result)` pairs in order.
        branches: Vec<(Expr, Expr)>,
        /// `ELSE` result (NULL when absent).
        else_expr: Option<Box<Expr>>,
    },
    /// Aggregate call. `arg = None` encodes `COUNT(*)`.
    Aggregate {
        /// The function.
        func: AggFunc,
        /// Argument expression; `None` only for `COUNT(*)`.
        arg: Option<Box<Expr>>,
    },
}

impl Expr {
    /// Convenience: column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(name.into())
    }

    /// Convenience: literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Convenience: named parameter.
    pub fn param(name: impl Into<String>) -> Expr {
        Expr::Param(name.into())
    }

    /// Convenience: binary operation.
    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::binary(BinOp::And, self, other)
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::binary(BinOp::Or, self, other)
    }

    /// Whether this expression contains an aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Aggregate { .. } => true,
            Expr::Column(_) | Expr::Literal(_) | Expr::Param(_) => false,
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::Not(e) | Expr::Neg(e) => e.contains_aggregate(),
            Expr::IsNull { expr, .. } => expr.contains_aggregate(),
            Expr::Between {
                expr, low, high, ..
            } => expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate(),
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(Expr::contains_aggregate)
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                branches
                    .iter()
                    .any(|(c, v)| c.contains_aggregate() || v.contains_aggregate())
                    || else_expr.as_ref().is_some_and(|e| e.contains_aggregate())
            }
        }
    }

    /// Collect the names of all referenced columns (outside aggregates too).
    pub fn referenced_columns(&self, out: &mut Vec<String>) {
        match self {
            Expr::Column(name) => {
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
            Expr::Literal(_) | Expr::Param(_) => {}
            Expr::Binary { left, right, .. } => {
                left.referenced_columns(out);
                right.referenced_columns(out);
            }
            Expr::Not(e) | Expr::Neg(e) => e.referenced_columns(out),
            Expr::IsNull { expr, .. } => expr.referenced_columns(out),
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.referenced_columns(out);
                low.referenced_columns(out);
                high.referenced_columns(out);
            }
            Expr::InList { expr, list, .. } => {
                expr.referenced_columns(out);
                for e in list {
                    e.referenced_columns(out);
                }
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                for (c, v) in branches {
                    c.referenced_columns(out);
                    v.referenced_columns(out);
                }
                if let Some(e) = else_expr {
                    e.referenced_columns(out);
                }
            }
            Expr::Aggregate { arg, .. } => {
                if let Some(a) = arg {
                    a.referenced_columns(out);
                }
            }
        }
    }

    /// Apply `f` to every node bottom-up, replacing the tree. Used by the
    /// 2VNL rewriter to swap updatable-column references for CASE
    /// expressions.
    pub fn transform(self, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
        let rebuilt = match self {
            Expr::Binary { op, left, right } => Expr::Binary {
                op,
                left: Box::new(left.transform(f)),
                right: Box::new(right.transform(f)),
            },
            Expr::Not(e) => Expr::Not(Box::new(e.transform(f))),
            Expr::Neg(e) => Expr::Neg(Box::new(e.transform(f))),
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.transform(f)),
                negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: Box::new(expr.transform(f)),
                low: Box::new(low.transform(f)),
                high: Box::new(high.transform(f)),
                negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(expr.transform(f)),
                list: list.into_iter().map(|e| e.transform(f)).collect(),
                negated,
            },
            Expr::Case {
                branches,
                else_expr,
            } => Expr::Case {
                branches: branches
                    .into_iter()
                    .map(|(c, v)| (c.transform(f), v.transform(f)))
                    .collect(),
                else_expr: else_expr.map(|e| Box::new(e.transform(f))),
            },
            Expr::Aggregate { func, arg } => Expr::Aggregate {
                func,
                arg: arg.map(|a| Box::new(a.transform(f))),
            },
            leaf => leaf,
        };
        f(rebuilt)
    }
}

fn fmt_operand(e: &Expr, parent: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let needs_parens = match e {
        Expr::Binary { op, .. } => op.precedence() < parent,
        // BETWEEN/IN/IS NULL parse at comparison level.
        Expr::Between { .. } | Expr::InList { .. } | Expr::IsNull { .. } => {
            BinOp::Eq.precedence() < parent
        }
        // NOT binds looser than any binary operator; inside one it must be
        // parenthesized or re-parsing would swallow the binary's operand.
        Expr::Not(_) => true,
        _ => false,
    };
    if needs_parens {
        write!(f, "({e})")
    } else {
        write!(f, "{e}")
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(name) => write!(f, "{name}"),
            Expr::Literal(Value::Str(s)) => write!(f, "'{}'", s.replace('\'', "''")),
            Expr::Literal(Value::Date(d)) => write!(f, "DATE '{d}'"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Param(name) => write!(f, ":{name}"),
            Expr::Binary { op, left, right } => {
                fmt_operand(left, op.precedence(), f)?;
                write!(f, " {op} ")?;
                // Right operand parenthesized at equal precedence too, to
                // preserve left associativity on round trips.
                let needs = match right.as_ref() {
                    Expr::Binary { op: r, .. } => r.precedence() <= op.precedence(),
                    Expr::Between { .. } | Expr::InList { .. } | Expr::IsNull { .. } => {
                        BinOp::Eq.precedence() <= op.precedence()
                    }
                    Expr::Not(_) => true,
                    _ => false,
                };
                if needs {
                    write!(f, "({right})")
                } else {
                    write!(f, "{right}")
                }
            }
            Expr::Not(e) => write!(f, "NOT ({e})"),
            Expr::Neg(e) => write!(f, "-({e})"),
            Expr::IsNull { expr, negated } => {
                // IS NULL binds tighter than every binary operator and NOT;
                // such operands must be parenthesized to re-parse correctly.
                let neg = if *negated { "NOT " } else { "" };
                match expr.as_ref() {
                    Expr::Binary { .. } | Expr::Not(_) => {
                        write!(f, "({expr}) IS {neg}NULL")
                    }
                    _ => write!(f, "{expr} IS {neg}NULL"),
                }
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                // BETWEEN's operands re-parse at arithmetic level;
                // parenthesize anything that binds looser.
                let wrap = |e: &Expr, f: &mut fmt::Formatter<'_>| -> fmt::Result {
                    match e {
                        Expr::Binary { op, .. } if op.precedence() < BinOp::Add.precedence() => {
                            write!(f, "({e})")
                        }
                        Expr::Not(_)
                        | Expr::IsNull { .. }
                        | Expr::Between { .. }
                        | Expr::InList { .. } => write!(f, "({e})"),
                        _ => write!(f, "{e}"),
                    }
                };
                wrap(expr, f)?;
                write!(f, " {}BETWEEN ", if *negated { "NOT " } else { "" })?;
                wrap(low, f)?;
                write!(f, " AND ")?;
                wrap(high, f)
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                match expr.as_ref() {
                    Expr::Binary { .. } | Expr::Not(_) => write!(f, "({expr})")?,
                    _ => write!(f, "{expr}")?,
                }
                write!(f, " {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                write!(f, "CASE")?;
                for (c, v) in branches {
                    write!(f, " WHEN {c} THEN {v}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            Expr::Aggregate { func, arg } => match arg {
                Some(a) => write!(f, "{func}({a})"),
                None => write!(f, "{func}(*)"),
            },
        }
    }
}

/// One item of a SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The projected expression.
    pub expr: Expr,
    /// Optional `AS` alias.
    pub alias: Option<String>,
}

impl SelectItem {
    /// Item without an alias.
    pub fn new(expr: Expr) -> Self {
        SelectItem { expr, alias: None }
    }

    /// Output column label: the alias if present, else the rendered
    /// expression.
    pub fn label(&self) -> String {
        self.alias.clone().unwrap_or_else(|| self.expr.to_string())
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.alias {
            Some(a) => write!(f, "{} AS {a}", self.expr),
            None => write!(f, "{}", self.expr),
        }
    }
}

/// An ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Sort expression.
    pub expr: Expr,
    /// Ascending (`true`) or descending.
    pub asc: bool,
}

/// `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// Projection list; empty means `SELECT *`.
    pub items: Vec<SelectItem>,
    /// Source table.
    pub from: String,
    /// Optional WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// Optional HAVING predicate (may contain aggregates).
    pub having: Option<Expr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
    /// Optional LIMIT row count.
    pub limit: Option<u64>,
}

impl fmt::Display for SelectStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.items.is_empty() {
            write!(f, "*")?;
        } else {
            for (i, item) in self.items.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{item}")?;
            }
        }
        write!(f, " FROM {}", self.from)?;
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, k) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}{}", k.expr, if k.asc { "" } else { " DESC" })?;
            }
        }
        if let Some(n) = self.limit {
            write!(f, " LIMIT {n}")?;
        }
        Ok(())
    }
}

/// `INSERT` statement (literal VALUES rows).
#[derive(Debug, Clone, PartialEq)]
pub struct InsertStmt {
    /// Target table.
    pub table: String,
    /// Optional explicit column list.
    pub columns: Vec<String>,
    /// One expression list per row.
    pub rows: Vec<Vec<Expr>>,
}

impl fmt::Display for InsertStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "INSERT INTO {}", self.table)?;
        if !self.columns.is_empty() {
            write!(f, " ({})", self.columns.join(", "))?;
        }
        write!(f, " VALUES ")?;
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "(")?;
            for (j, e) in row.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{e}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// `UPDATE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStmt {
    /// Target table.
    pub table: String,
    /// `SET column = expr` assignments, in order.
    pub assignments: Vec<(String, Expr)>,
    /// Optional WHERE predicate.
    pub where_clause: Option<Expr>,
}

impl fmt::Display for UpdateStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UPDATE {} SET ", self.table)?;
        for (i, (col, e)) in self.assignments.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{col} = {e}")?;
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        Ok(())
    }
}

/// `DELETE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteStmt {
    /// Target table.
    pub table: String,
    /// Optional WHERE predicate.
    pub where_clause: Option<Expr>,
}

impl fmt::Display for DeleteStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DELETE FROM {}", self.table)?;
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        Ok(())
    }
}

/// One column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub ty: wh_types::DataType,
    /// Our extension flag: whether maintenance transactions may UPDATE this
    /// column (drives the 2VNL schema extension's pre-update copies).
    pub updatable: bool,
}

/// `CREATE TABLE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTableStmt {
    /// Table name.
    pub name: String,
    /// Column definitions, in order.
    pub columns: Vec<ColumnDef>,
    /// PRIMARY KEY column names (empty = no unique key).
    pub key: Vec<String>,
}

impl fmt::Display for CreateTableStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CREATE TABLE {} (", self.name)?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", c.name, c.ty)?;
            if c.updatable {
                write!(f, " UPDATABLE")?;
            }
        }
        if !self.key.is_empty() {
            write!(f, ", PRIMARY KEY ({})", self.key.join(", "))?;
        }
        write!(f, ")")
    }
}

/// `DROP TABLE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct DropTableStmt {
    /// Table name.
    pub name: String,
}

impl fmt::Display for DropTableStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DROP TABLE {}", self.name)
    }
}

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// SELECT.
    Select(SelectStmt),
    /// INSERT.
    Insert(InsertStmt),
    /// UPDATE.
    Update(UpdateStmt),
    /// DELETE.
    Delete(DeleteStmt),
    /// CREATE TABLE.
    CreateTable(CreateTableStmt),
    /// DROP TABLE.
    DropTable(DropTableStmt),
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Select(s) => write!(f, "{s}"),
            Statement::Insert(s) => write!(f, "{s}"),
            Statement::Update(s) => write!(f, "{s}"),
            Statement::Delete(s) => write!(f, "{s}"),
            Statement::CreateTable(s) => write!(f, "{s}"),
            Statement::DropTable(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_display_precedence() {
        // (a + b) * c must keep its parentheses.
        let e = Expr::binary(
            BinOp::Mul,
            Expr::binary(BinOp::Add, Expr::col("a"), Expr::col("b")),
            Expr::col("c"),
        );
        assert_eq!(e.to_string(), "(a + b) * c");
        // a + b * c must not gain parentheses.
        let e = Expr::binary(
            BinOp::Add,
            Expr::col("a"),
            Expr::binary(BinOp::Mul, Expr::col("b"), Expr::col("c")),
        );
        assert_eq!(e.to_string(), "a + b * c");
    }

    #[test]
    fn case_display() {
        let e = Expr::Case {
            branches: vec![(
                Expr::binary(BinOp::GtEq, Expr::param("sessionVN"), Expr::col("tupleVN")),
                Expr::col("total_sales"),
            )],
            else_expr: Some(Box::new(Expr::col("pre_total_sales"))),
        };
        assert_eq!(
            e.to_string(),
            "CASE WHEN :sessionVN >= tupleVN THEN total_sales ELSE pre_total_sales END"
        );
    }

    #[test]
    fn string_literal_escaped() {
        assert_eq!(Expr::lit("O'Brien").to_string(), "'O''Brien'");
    }

    #[test]
    fn contains_aggregate() {
        let agg = Expr::Aggregate {
            func: AggFunc::Sum,
            arg: Some(Box::new(Expr::col("x"))),
        };
        assert!(agg.contains_aggregate());
        assert!(Expr::binary(BinOp::Add, agg.clone(), Expr::lit(1)).contains_aggregate());
        assert!(!Expr::col("x").contains_aggregate());
    }

    #[test]
    fn referenced_columns_dedup() {
        let e = Expr::binary(
            BinOp::Add,
            Expr::col("a"),
            Expr::binary(BinOp::Add, Expr::col("a"), Expr::col("b")),
        );
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        assert_eq!(cols, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn transform_replaces_columns() {
        let e = Expr::binary(BinOp::Add, Expr::col("a"), Expr::col("b"));
        let out = e.transform(&mut |node| match node {
            Expr::Column(c) if c == "a" => Expr::lit(1),
            other => other,
        });
        assert_eq!(out.to_string(), "1 + b");
    }

    #[test]
    fn select_display_full() {
        let s = SelectStmt {
            items: vec![
                SelectItem::new(Expr::col("city")),
                SelectItem::new(Expr::Aggregate {
                    func: AggFunc::Sum,
                    arg: Some(Box::new(Expr::col("total_sales"))),
                }),
            ],
            from: "DailySales".into(),
            where_clause: Some(Expr::binary(BinOp::Eq, Expr::col("state"), Expr::lit("CA"))),
            group_by: vec![Expr::col("city")],
            having: None,
            order_by: vec![OrderKey {
                expr: Expr::col("city"),
                asc: false,
            }],
            limit: None,
        };
        assert_eq!(
            s.to_string(),
            "SELECT city, SUM(total_sales) FROM DailySales WHERE state = 'CA' \
             GROUP BY city ORDER BY city DESC"
        );
    }

    #[test]
    fn dml_display() {
        let ins = InsertStmt {
            table: "t".into(),
            columns: vec!["a".into(), "b".into()],
            rows: vec![vec![Expr::lit(1), Expr::lit("x")]],
        };
        assert_eq!(ins.to_string(), "INSERT INTO t (a, b) VALUES (1, 'x')");
        let upd = UpdateStmt {
            table: "t".into(),
            assignments: vec![(
                "a".into(),
                Expr::binary(BinOp::Add, Expr::col("a"), Expr::lit(1)),
            )],
            where_clause: Some(Expr::binary(BinOp::Eq, Expr::col("b"), Expr::lit("x"))),
        };
        assert_eq!(upd.to_string(), "UPDATE t SET a = a + 1 WHERE b = 'x'");
        let del = DeleteStmt {
            table: "t".into(),
            where_clause: None,
        };
        assert_eq!(del.to_string(), "DELETE FROM t");
    }

    #[test]
    fn create_table_statement_round_trips() {
        let sql = "CREATE TABLE t (a INT, b CHAR(8) UPDATABLE, c DATE, PRIMARY KEY (a, c))";
        let stmt = crate::parser::parse_statement(sql).unwrap();
        let Statement::CreateTable(ct) = &stmt else {
            panic!("not a CREATE TABLE")
        };
        assert_eq!((ct.columns.len(), ct.columns[1].updatable), (3, true));
        assert_eq!(ct.key, vec!["a".to_string(), "c".to_string()]);
        assert_eq!(
            crate::parser::parse_statement(&stmt.to_string()).unwrap(),
            stmt
        );
    }
}
