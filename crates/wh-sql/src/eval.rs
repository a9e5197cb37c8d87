//! Scalar expression evaluation with SQL three-valued logic.
//!
//! An [`Expr`] is evaluated in two steps: [`EvalContext`] *binds* it once
//! per statement — column names resolve to schema indices, parameters to
//! their values, aggregate call sites (in a grouped context) to slots — and
//! the resulting [`Bound`] tree is evaluated per row over any [`RowView`].
//! Nothing on the per-row path looks a name up.

use crate::ast::{AggFunc, BinOp, Expr};
use crate::error::{SqlError, SqlResult};
use std::cmp::Ordering;
use std::collections::HashMap;
use wh_types::{Row, Schema, Value};

/// Named parameter bindings (`:sessionVN` → value). The paper's rewrites
/// leave `:sessionVN` / `:maintenanceVN` placeholders in the SQL; execution
/// supplies them here.
pub type Params = HashMap<String, Value>;

/// A borrowed view of one row, addressed by schema column index: what the
/// executor reads a scanned row through, so a source can hand over a row
/// without materializing it. A 2VNL session views the gathered page record
/// in place; in-memory sources view their `[Value]`s.
///
/// `int` and `raw` are the typed fast paths and are only asked of columns
/// whose schema type fits them; `None` from either means NULL.
pub trait RowView {
    /// Column `col` as an owned value.
    fn value(&self, col: usize) -> SqlResult<Value>;
    /// Column `col` of an integer column (`UInt8`, `Int32`, `Int64`).
    fn int(&self, col: usize) -> Option<i64>;
    /// Column `col` of a fixed-width `Char` column, as its stored bytes.
    /// Two non-NULL images from one source are equal iff the strings are.
    fn raw(&self, col: usize) -> Option<&[u8]>;
    /// The whole row, owned.
    fn to_row(&self) -> SqlResult<Row>;
}

impl RowView for [Value] {
    fn value(&self, col: usize) -> SqlResult<Value> {
        Ok(self[col].clone())
    }

    fn int(&self, col: usize) -> Option<i64> {
        self[col].as_int()
    }

    fn raw(&self, col: usize) -> Option<&[u8]> {
        self[col].as_str().map(str::as_bytes)
    }

    fn to_row(&self) -> SqlResult<Row> {
        Ok(self.to_vec())
    }
}

/// Owned rows view as their slice (so `&Row` coerces to `&dyn RowView`).
impl RowView for Row {
    fn value(&self, col: usize) -> SqlResult<Value> {
        self.as_slice().value(col)
    }

    fn int(&self, col: usize) -> Option<i64> {
        self.as_slice().int(col)
    }

    fn raw(&self, col: usize) -> Option<&[u8]> {
        self.as_slice().raw(col)
    }

    fn to_row(&self) -> SqlResult<Row> {
        Ok(self.clone())
    }
}

/// Evaluation context: resolves column names against a schema and parameters
/// against a binding map.
pub struct EvalContext<'a> {
    /// Column-name → index, built once per statement. The map borrows the
    /// names from the schema, so building it allocates nothing per column.
    cols: HashMap<&'a str, usize>,
    params: &'a Params,
}

impl<'a> EvalContext<'a> {
    /// Build a context for `schema` with `params` bound.
    pub fn new(schema: &'a Schema, params: &'a Params) -> Self {
        let cols = schema
            .columns()
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.as_str(), i))
            .collect();
        EvalContext { cols, params }
    }

    /// Evaluate `expr` against `row`. Aggregates are not allowed here — the
    /// executor evaluates them over groups; encountering one is
    /// [`SqlError::MisplacedAggregate`].
    pub fn eval(&self, expr: &Expr, row: &[Value]) -> SqlResult<Value> {
        self.bind(expr).eval(row)
    }

    /// Evaluate a predicate: true only when the expression is exactly TRUE
    /// (NULL/unknown filters the row out, per SQL semantics).
    pub fn eval_predicate(&self, expr: &Expr, row: &[Value]) -> SqlResult<bool> {
        self.bind(expr).eval_predicate(row)
    }

    /// Schema index of column `name`.
    pub(crate) fn column(&self, name: &str) -> Option<usize> {
        self.cols.get(name).copied()
    }

    /// Bind `expr` for per-row evaluation; an aggregate inside it fails
    /// when evaluated.
    pub(crate) fn bind(&self, expr: &Expr) -> Bound {
        self.bind_grouped(expr, &[], 0)
    }

    /// Bind `expr` over a finished group: aggregate call site `aggs[i]`
    /// reads column `base + i` of the row it is evaluated against (the
    /// executor appends the group's aggregate values to its representative
    /// row).
    pub(crate) fn bind_grouped(
        &self,
        expr: &Expr,
        aggs: &[(AggFunc, Option<Expr>)],
        base: usize,
    ) -> Bound {
        let bind = |e: &Expr| Box::new(self.bind_grouped(e, aggs, base));
        match expr {
            // Resolution failures are raised only when evaluated: a
            // statement that never reaches them (an empty scan, an untaken
            // CASE arm) stays valid.
            Expr::Column(name) => match self.column(name) {
                Some(i) => Bound::Col(i),
                None => Bound::Fail(SqlError::NoSuchColumn(name.clone())),
            },
            Expr::Literal(v) => Bound::Lit(v.clone()),
            Expr::Param(name) => match self.params.get(name) {
                Some(v) => Bound::Lit(v.clone()),
                None => Bound::Fail(SqlError::UnboundParam(name.clone())),
            },
            Expr::Aggregate { func, arg } => {
                let site = aggs
                    .iter()
                    .position(|(f, a)| f == func && a.as_ref() == arg.as_deref());
                match site {
                    Some(i) => Bound::Col(base + i),
                    None => Bound::Fail(SqlError::MisplacedAggregate),
                }
            }
            Expr::Binary { op, left, right } => Bound::Binary {
                op: *op,
                left: bind(left),
                right: bind(right),
            },
            Expr::Not(e) => Bound::Not(bind(e)),
            Expr::Neg(e) => Bound::Neg(bind(e)),
            Expr::IsNull { expr, negated } => Bound::IsNull {
                expr: bind(expr),
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Bound::Between {
                expr: bind(expr),
                low: bind(low),
                high: bind(high),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Bound::InList {
                expr: bind(expr),
                list: list
                    .iter()
                    .map(|e| self.bind_grouped(e, aggs, base))
                    .collect(),
                negated: *negated,
            },
            Expr::Case {
                branches,
                else_expr,
            } => Bound::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| {
                        (
                            self.bind_grouped(c, aggs, base),
                            self.bind_grouped(v, aggs, base),
                        )
                    })
                    .collect(),
                else_expr: else_expr.as_deref().map(bind),
            },
        }
    }
}

/// An expression bound to one schema and one set of parameters
/// ([`EvalContext::bind`]): the shape of [`Expr`] with columns as indices.
#[derive(Debug, Clone)]
pub(crate) enum Bound {
    Col(usize),
    Lit(Value),
    /// An unknown column, unbound parameter or misplaced aggregate.
    Fail(SqlError),
    Binary {
        op: BinOp,
        left: Box<Bound>,
        right: Box<Bound>,
    },
    Not(Box<Bound>),
    Neg(Box<Bound>),
    IsNull {
        expr: Box<Bound>,
        negated: bool,
    },
    Between {
        expr: Box<Bound>,
        low: Box<Bound>,
        high: Box<Bound>,
        negated: bool,
    },
    InList {
        expr: Box<Bound>,
        list: Vec<Bound>,
        negated: bool,
    },
    Case {
        branches: Vec<(Bound, Bound)>,
        else_expr: Option<Box<Bound>>,
    },
}

impl Bound {
    /// Evaluate against `row`.
    pub(crate) fn eval<V: RowView + ?Sized>(&self, row: &V) -> SqlResult<Value> {
        match self {
            Bound::Col(i) => row.value(*i),
            Bound::Lit(v) => Ok(v.clone()),
            Bound::Fail(e) => Err(e.clone()),
            Bound::Binary { op, left, right } => {
                let l = left.eval(row)?;
                // Short-circuit AND/OR with three-valued logic.
                match op {
                    BinOp::And => {
                        return eval_and(&l, right, row);
                    }
                    BinOp::Or => {
                        return eval_or(&l, right, row);
                    }
                    _ => {}
                }
                let r = right.eval(row)?;
                apply_binop(*op, &l, &r)
            }
            Bound::Not(e) => match e.eval(row)? {
                Value::Null => Ok(Value::Null),
                Value::Bool(b) => Ok(Value::Bool(!b)),
                other => Err(SqlError::Type(wh_types::TypeError::Mismatch {
                    op: "NOT",
                    left: other.type_name().into(),
                    right: "BOOL".into(),
                })),
            },
            Bound::Neg(e) => match e.eval(row)? {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(-i)),
                Value::Float(x) => Ok(Value::Float(-x)),
                other => Err(SqlError::Type(wh_types::TypeError::Mismatch {
                    op: "negate",
                    left: other.type_name().into(),
                    right: "numeric".into(),
                })),
            },
            Bound::IsNull { expr, negated } => {
                let v = expr.eval(row)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            Bound::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.eval(row)?;
                let lo = low.eval(row)?;
                let hi = high.eval(row)?;
                let ge_lo = v.sql_cmp(&lo)?.map(|o| o != Ordering::Less);
                let le_hi = v.sql_cmp(&hi)?.map(|o| o != Ordering::Greater);
                Ok(match (ge_lo, le_hi) {
                    // Three-valued AND over the two bound checks.
                    (Some(false), _) | (_, Some(false)) => Value::Bool(*negated),
                    (Some(true), Some(true)) => Value::Bool(!*negated),
                    _ => Value::Null,
                })
            }
            Bound::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval(row)?;
                let mut saw_unknown = false;
                for candidate in list {
                    let c = candidate.eval(row)?;
                    match v.sql_cmp(&c)? {
                        Some(Ordering::Equal) => return Ok(Value::Bool(!*negated)),
                        None => saw_unknown = true,
                        _ => {}
                    }
                }
                Ok(if saw_unknown {
                    Value::Null
                } else {
                    Value::Bool(*negated)
                })
            }
            Bound::Case {
                branches,
                else_expr,
            } => {
                for (cond, val) in branches {
                    if cond.eval(row)? == Value::Bool(true) {
                        return val.eval(row);
                    }
                }
                match else_expr {
                    Some(e) => e.eval(row),
                    None => Ok(Value::Null),
                }
            }
        }
    }

    /// Evaluate as a predicate: true only when the expression is exactly
    /// TRUE (NULL/unknown filters the row out, per SQL semantics).
    pub(crate) fn eval_predicate<V: RowView + ?Sized>(&self, row: &V) -> SqlResult<bool> {
        Ok(self.eval(row)? == Value::Bool(true))
    }
}

fn eval_and<V: RowView + ?Sized>(left: &Value, right: &Bound, row: &V) -> SqlResult<Value> {
    // FALSE AND x = FALSE without evaluating x (short circuit).
    if *left == Value::Bool(false) {
        return Ok(Value::Bool(false));
    }
    let r = right.eval(row)?;
    match (truth(left)?, truth(&r)?) {
        (Some(true), Some(true)) => Ok(Value::Bool(true)),
        (Some(false), _) | (_, Some(false)) => Ok(Value::Bool(false)),
        _ => Ok(Value::Null),
    }
}

fn eval_or<V: RowView + ?Sized>(left: &Value, right: &Bound, row: &V) -> SqlResult<Value> {
    if *left == Value::Bool(true) {
        return Ok(Value::Bool(true));
    }
    let r = right.eval(row)?;
    match (truth(left)?, truth(&r)?) {
        (Some(false), Some(false)) => Ok(Value::Bool(false)),
        (Some(true), _) | (_, Some(true)) => Ok(Value::Bool(true)),
        _ => Ok(Value::Null),
    }
}

fn apply_binop(op: BinOp, l: &Value, r: &Value) -> SqlResult<Value> {
    match op {
        BinOp::Add => Ok(l.add(r)?),
        BinOp::Sub => Ok(l.sub(r)?),
        BinOp::Mul => Ok(l.mul(r)?),
        BinOp::Div => Ok(l.div(r)?),
        BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
            let cmp = l.sql_cmp(r)?;
            Ok(match cmp {
                None => Value::Null,
                Some(ord) => Value::Bool(match op {
                    BinOp::Eq => ord == Ordering::Equal,
                    BinOp::NotEq => ord != Ordering::Equal,
                    BinOp::Lt => ord == Ordering::Less,
                    BinOp::LtEq => ord != Ordering::Greater,
                    BinOp::Gt => ord == Ordering::Greater,
                    BinOp::GtEq => ord != Ordering::Less,
                    #[expect(clippy::unreachable, reason = "the outer arm admits comparisons only")]
                    _ => unreachable!(),
                }),
            })
        }
        #[expect(clippy::unreachable, reason = "unreachable by construction")]
        BinOp::And | BinOp::Or => unreachable!("handled by short-circuit paths"),
    }
}

fn truth(v: &Value) -> SqlResult<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
        other => Err(SqlError::Type(wh_types::TypeError::Mismatch {
            op: "boolean",
            left: other.type_name().into(),
            right: "BOOL".into(),
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expression;
    use wh_types::{Column, DataType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("a", DataType::Int64),
            Column::new("b", DataType::Int64),
            Column::new("s", DataType::Char(8)),
        ])
        .unwrap()
    }

    fn eval(expr: &str, row: &[Value]) -> SqlResult<Value> {
        let schema = schema();
        let params = Params::new();
        let ctx = EvalContext::new(&schema, &params);
        ctx.eval(&parse_expression(expr).unwrap(), row)
    }

    fn row(a: i64, b: i64, s: &str) -> Vec<Value> {
        vec![Value::from(a), Value::from(b), Value::from(s)]
    }

    #[test]
    fn arithmetic_and_comparison() {
        let r = row(2, 3, "x");
        assert_eq!(eval("a + b * 2", &r).unwrap(), Value::Int(8));
        assert_eq!(eval("a < b", &r).unwrap(), Value::Bool(true));
        assert_eq!(eval("a = 2 AND b = 3", &r).unwrap(), Value::Bool(true));
        assert_eq!(eval("a = 9 OR b = 3", &r).unwrap(), Value::Bool(true));
        assert_eq!(eval("NOT a = 9", &r).unwrap(), Value::Bool(true));
    }

    #[test]
    fn three_valued_logic() {
        let r = vec![Value::Null, Value::Int(3), Value::from("x")];
        // NULL comparisons are unknown.
        assert_eq!(eval("a = 1", &r).unwrap(), Value::Null);
        // unknown AND false = false; unknown AND true = unknown.
        assert_eq!(eval("a = 1 AND b = 9", &r).unwrap(), Value::Bool(false));
        assert_eq!(eval("a = 1 AND b = 3", &r).unwrap(), Value::Null);
        // unknown OR true = true; unknown OR false = unknown.
        assert_eq!(eval("a = 1 OR b = 3", &r).unwrap(), Value::Bool(true));
        assert_eq!(eval("a = 1 OR b = 9", &r).unwrap(), Value::Null);
        // NOT unknown = unknown.
        assert_eq!(eval("NOT a = 1", &r).unwrap(), Value::Null);
        // IS NULL is never unknown.
        assert_eq!(eval("a IS NULL", &r).unwrap(), Value::Bool(true));
        assert_eq!(eval("a IS NOT NULL", &r).unwrap(), Value::Bool(false));
    }

    #[test]
    fn case_expression() {
        let r = row(2, 0, "x");
        assert_eq!(
            eval("CASE WHEN a = 1 THEN 'one' WHEN a = 2 THEN 'two' END", &r).unwrap(),
            Value::from("two")
        );
        assert_eq!(
            eval("CASE WHEN a = 9 THEN 'nine' END", &r).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval("CASE WHEN a = 9 THEN 'nine' ELSE 'other' END", &r).unwrap(),
            Value::from("other")
        );
    }

    #[test]
    fn between_three_valued() {
        let r = row(5, 3, "x");
        assert_eq!(eval("a BETWEEN 1 AND 10", &r).unwrap(), Value::Bool(true));
        assert_eq!(eval("a BETWEEN 6 AND 10", &r).unwrap(), Value::Bool(false));
        assert_eq!(
            eval("a NOT BETWEEN 6 AND 10", &r).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval("a BETWEEN b AND b + 4", &r).unwrap(),
            Value::Bool(true)
        );
        // NULL operand -> unknown, unless a bound already disproves it.
        let null_row = vec![Value::Null, Value::Int(3), Value::from("x")];
        assert_eq!(eval("a BETWEEN 1 AND 10", &null_row).unwrap(), Value::Null);
        assert_eq!(
            eval("5 BETWEEN a AND 4", &null_row).unwrap(),
            Value::Bool(false)
        );
        // Arithmetic binds tighter than BETWEEN.
        assert_eq!(
            eval("a + 1 BETWEEN 6 AND 6", &r).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn in_list_three_valued() {
        let r = row(5, 3, "x");
        assert_eq!(eval("a IN (1, 5, 9)", &r).unwrap(), Value::Bool(true));
        assert_eq!(eval("a IN (1, 2)", &r).unwrap(), Value::Bool(false));
        assert_eq!(eval("a NOT IN (1, 2)", &r).unwrap(), Value::Bool(true));
        assert_eq!(eval("s IN ('x', 'y')", &r).unwrap(), Value::Bool(true));
        // NULL in the list: match still wins; otherwise unknown.
        assert_eq!(eval("a IN (5, NULL)", &r).unwrap(), Value::Bool(true));
        assert_eq!(eval("a IN (1, NULL)", &r).unwrap(), Value::Null);
        assert_eq!(eval("a NOT IN (1, NULL)", &r).unwrap(), Value::Null);
        // Type mismatches error rather than silently failing.
        assert!(eval("a IN ('x')", &r).is_err());
    }

    #[test]
    fn params_resolve() {
        let schema = schema();
        let mut params = Params::new();
        params.insert("sessionVN".into(), Value::Int(3));
        let ctx = EvalContext::new(&schema, &params);
        let e = parse_expression(":sessionVN >= a").unwrap();
        assert_eq!(ctx.eval(&e, &row(2, 0, "x")).unwrap(), Value::Bool(true));
        let unbound = parse_expression(":nope").unwrap();
        assert_eq!(
            ctx.eval(&unbound, &row(2, 0, "x")),
            Err(SqlError::UnboundParam("nope".into()))
        );
    }

    #[test]
    fn unknown_column_errors() {
        assert_eq!(
            eval("zzz", &row(1, 2, "x")),
            Err(SqlError::NoSuchColumn("zzz".into()))
        );
    }

    #[test]
    fn aggregates_rejected_in_scalar_context() {
        assert_eq!(
            eval("SUM(a)", &row(1, 2, "x")),
            Err(SqlError::MisplacedAggregate)
        );
    }

    #[test]
    fn predicate_null_is_false() {
        let schema = schema();
        let params = Params::new();
        let ctx = EvalContext::new(&schema, &params);
        let e = parse_expression("a = 1").unwrap();
        let r = vec![Value::Null, Value::Int(0), Value::from("")];
        assert!(!ctx.eval_predicate(&e, &r).unwrap());
    }
}
