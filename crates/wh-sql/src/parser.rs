//! Recursive-descent parser for the supported SQL subset.

use crate::ast::{
    AggFunc, BinOp, DeleteStmt, Expr, InsertStmt, OrderKey, SelectItem, SelectStmt, Statement,
    UpdateStmt,
};
use crate::error::{SqlError, SqlResult};
use crate::lexer::{tokenize, Token, TokenKind};
use wh_types::{Date, Value};

/// Parse a full SQL statement (optionally `;`-terminated).
pub fn parse_statement(input: &str) -> SqlResult<Statement> {
    let _ts = wh_obs::trace_span!("sql.parse");
    let mut p = Parser::new(input)?;
    let stmt = p.statement()?;
    p.eat_punct(";");
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse a standalone expression (useful in tests and the rewriter).
pub fn parse_expression(input: &str) -> SqlResult<Expr> {
    let mut p = Parser::new(input)?;
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn new(input: &str) -> SqlResult<Self> {
        Ok(Parser {
            tokens: tokenize(input)?,
            pos: 0,
        })
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn advance(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: impl Into<String>) -> SqlError {
        SqlError::Parse {
            message: message.into(),
            offset: self.offset(),
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), TokenKind::Keyword(k) if k == kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> SqlResult<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected {kw}")))
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), TokenKind::Punct(q) if *q == p) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> SqlResult<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.error(format!("expected '{p}'")))
        }
    }

    fn expect_eof(&mut self) -> SqlResult<()> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.error(format!("unexpected trailing input: {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> SqlResult<String> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.advance();
                Ok(name)
            }
            // Allow aggregate-named and date-named columns in non-call position?
            // Keep strict: keywords are not identifiers.
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
        }
    }

    fn statement(&mut self) -> SqlResult<Statement> {
        match self.peek().clone() {
            TokenKind::Keyword(k) if k == "SELECT" => Ok(Statement::Select(self.select()?)),
            TokenKind::Keyword(k) if k == "INSERT" => Ok(Statement::Insert(self.insert()?)),
            TokenKind::Keyword(k) if k == "UPDATE" => Ok(Statement::Update(self.update()?)),
            TokenKind::Keyword(k) if k == "DELETE" => Ok(Statement::Delete(self.delete()?)),
            TokenKind::Keyword(k) if k == "CREATE" => {
                Ok(Statement::CreateTable(self.create_table()?))
            }
            TokenKind::Keyword(k) if k == "DROP" => {
                self.advance();
                self.expect_keyword("TABLE")?;
                Ok(Statement::DropTable(crate::ast::DropTableStmt {
                    name: self.ident()?,
                }))
            }
            other => Err(self.error(format!("expected a statement, found {other:?}"))),
        }
    }

    fn data_type(&mut self) -> SqlResult<wh_types::DataType> {
        // Type names are soft keywords: plain identifiers matched here.
        let name = self.ident()?;
        let upper = name.to_ascii_uppercase();
        match upper.as_str() {
            "TINYINT" => Ok(wh_types::DataType::UInt8),
            "INT" | "INTEGER" => Ok(wh_types::DataType::Int32),
            "BIGINT" => Ok(wh_types::DataType::Int64),
            "DOUBLE" | "FLOAT" => Ok(wh_types::DataType::Float64),
            "DATE" => Ok(wh_types::DataType::Date),
            "CHAR" => {
                self.expect_punct("(")?;
                let n = match self.advance() {
                    TokenKind::Int(n) if n > 0 => n as usize,
                    other => {
                        return Err(
                            self.error(format!("CHAR expects a positive width, found {other:?}"))
                        )
                    }
                };
                self.expect_punct(")")?;
                Ok(wh_types::DataType::Char(n))
            }
            _ => Err(self.error(format!("unknown type {name}"))),
        }
    }

    fn create_table(&mut self) -> SqlResult<crate::ast::CreateTableStmt> {
        self.expect_keyword("CREATE")?;
        self.expect_keyword("TABLE")?;
        let name = self.ident()?;
        self.expect_punct("(")?;
        let mut columns = Vec::new();
        let mut key = Vec::new();
        loop {
            if self.eat_keyword("PRIMARY") {
                self.expect_keyword("KEY")?;
                self.expect_punct("(")?;
                loop {
                    key.push(self.ident()?);
                    if !self.eat_punct(",") {
                        break;
                    }
                }
                self.expect_punct(")")?;
            } else {
                let col = self.ident()?;
                let ty = self.data_type()?;
                let updatable = self.eat_keyword("UPDATABLE");
                columns.push(crate::ast::ColumnDef {
                    name: col,
                    ty,
                    updatable,
                });
            }
            if !self.eat_punct(",") {
                break;
            }
        }
        self.expect_punct(")")?;
        if columns.is_empty() {
            return Err(self.error("CREATE TABLE requires at least one column"));
        }
        Ok(crate::ast::CreateTableStmt { name, columns, key })
    }

    fn select(&mut self) -> SqlResult<SelectStmt> {
        self.expect_keyword("SELECT")?;
        let mut items = Vec::new();
        if self.eat_punct("*") {
            // SELECT * — empty projection list.
        } else {
            loop {
                let expr = self.expr()?;
                let alias = if self.eat_keyword("AS") {
                    Some(self.ident()?)
                } else {
                    None
                };
                items.push(SelectItem { expr, alias });
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        self.expect_keyword("FROM")?;
        let from = self.ident()?;
        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        let having = if self.eat_keyword("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let expr = self.expr()?;
                let asc = if self.eat_keyword("DESC") {
                    false
                } else {
                    self.eat_keyword("ASC");
                    true
                };
                order_by.push(OrderKey { expr, asc });
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword("LIMIT") {
            match self.advance() {
                TokenKind::Int(n) if n >= 0 => Some(n as u64),
                other => {
                    return Err(self.error(format!(
                        "LIMIT expects a non-negative integer, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };
        Ok(SelectStmt {
            items,
            from,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn insert(&mut self) -> SqlResult<InsertStmt> {
        self.expect_keyword("INSERT")?;
        self.expect_keyword("INTO")?;
        let table = self.ident()?;
        let mut columns = Vec::new();
        if self.eat_punct("(") {
            loop {
                columns.push(self.ident()?);
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        self.expect_keyword("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_punct("(")?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
            rows.push(row);
            if !self.eat_punct(",") {
                break;
            }
        }
        Ok(InsertStmt {
            table,
            columns,
            rows,
        })
    }

    fn update(&mut self) -> SqlResult<UpdateStmt> {
        self.expect_keyword("UPDATE")?;
        let table = self.ident()?;
        self.expect_keyword("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_punct("=")?;
            let e = self.expr()?;
            assignments.push((col, e));
            if !self.eat_punct(",") {
                break;
            }
        }
        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(UpdateStmt {
            table,
            assignments,
            where_clause,
        })
    }

    fn delete(&mut self) -> SqlResult<DeleteStmt> {
        self.expect_keyword("DELETE")?;
        self.expect_keyword("FROM")?;
        let table = self.ident()?;
        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(DeleteStmt {
            table,
            where_clause,
        })
    }

    /// Pratt-style expression parser over [`BinOp::precedence`].
    fn expr(&mut self) -> SqlResult<Expr> {
        self.expr_bp(0)
    }

    fn expr_bp(&mut self, min_bp: u8) -> SqlResult<Expr> {
        let mut lhs = self.prefix()?;
        loop {
            // Postfix predicates (IS NULL / BETWEEN / IN) bind at comparison
            // level; only consume them when this level may.
            if min_bp <= BinOp::Eq.precedence() {
                if matches!(self.peek(), TokenKind::Keyword(k) if k == "IS") {
                    self.advance();
                    let negated = self.eat_keyword("NOT");
                    self.expect_keyword("NULL")?;
                    lhs = Expr::IsNull {
                        expr: Box::new(lhs),
                        negated,
                    };
                    continue;
                }
                // [NOT] BETWEEN / [NOT] IN — peek past an optional NOT.
                let next_kind = self.tokens.get(self.pos + 1).map(|t| &t.kind);
                let (negated, postfix_kw) = match (self.peek(), next_kind) {
                    (TokenKind::Keyword(k), Some(TokenKind::Keyword(k2)))
                        if k == "NOT" && (k2 == "BETWEEN" || k2 == "IN") =>
                    {
                        (true, Some(k2.clone()))
                    }
                    (TokenKind::Keyword(k), _) if k == "BETWEEN" || k == "IN" => {
                        (false, Some(k.clone()))
                    }
                    _ => (false, None),
                };
                match postfix_kw.as_deref() {
                    Some("BETWEEN") => {
                        if negated {
                            self.advance();
                        }
                        self.advance();
                        // Bounds parse above AND so the separator survives.
                        let low = self.expr_bp(BinOp::Add.precedence())?;
                        self.expect_keyword("AND")?;
                        let high = self.expr_bp(BinOp::Add.precedence())?;
                        lhs = Expr::Between {
                            expr: Box::new(lhs),
                            low: Box::new(low),
                            high: Box::new(high),
                            negated,
                        };
                        continue;
                    }
                    Some("IN") => {
                        if negated {
                            self.advance();
                        }
                        self.advance();
                        self.expect_punct("(")?;
                        let mut list = Vec::new();
                        loop {
                            list.push(self.expr()?);
                            if !self.eat_punct(",") {
                                break;
                            }
                        }
                        self.expect_punct(")")?;
                        lhs = Expr::InList {
                            expr: Box::new(lhs),
                            list,
                            negated,
                        };
                        continue;
                    }
                    _ => {}
                }
            }
            let op = match self.peek() {
                TokenKind::Punct("+") => BinOp::Add,
                TokenKind::Punct("-") => BinOp::Sub,
                TokenKind::Punct("*") => BinOp::Mul,
                TokenKind::Punct("/") => BinOp::Div,
                TokenKind::Punct("=") => BinOp::Eq,
                TokenKind::Punct("<>") => BinOp::NotEq,
                TokenKind::Punct("<") => BinOp::Lt,
                TokenKind::Punct("<=") => BinOp::LtEq,
                TokenKind::Punct(">") => BinOp::Gt,
                TokenKind::Punct(">=") => BinOp::GtEq,
                TokenKind::Keyword(k) if k == "AND" => BinOp::And,
                TokenKind::Keyword(k) if k == "OR" => BinOp::Or,
                _ => break,
            };
            let bp = op.precedence();
            if bp < min_bp {
                break;
            }
            self.advance();
            let rhs = self.expr_bp(bp + 1)?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn prefix(&mut self) -> SqlResult<Expr> {
        match self.peek().clone() {
            TokenKind::Keyword(k) if k == "NOT" => {
                self.advance();
                // NOT binds looser than comparisons: parse at AND level.
                let inner = self.expr_bp(BinOp::And.precedence() + 1)?;
                Ok(Expr::Not(Box::new(inner)))
            }
            TokenKind::Punct("-") => {
                self.advance();
                // A numeric literal directly after the sign is a negative
                // literal — consumed here so postfix operators (IS NULL)
                // attach to the literal, not to a Neg wrapper.
                match self.peek().clone() {
                    TokenKind::Int(i) => {
                        self.advance();
                        return Ok(Expr::lit(-i));
                    }
                    TokenKind::Float(x) => {
                        self.advance();
                        return Ok(Expr::lit(-x));
                    }
                    _ => {}
                }
                let inner = self.expr_bp(BinOp::Mul.precedence() + 1)?;
                Ok(Expr::Neg(Box::new(inner)))
            }
            TokenKind::Punct("(") => {
                self.advance();
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            TokenKind::Int(i) => {
                self.advance();
                Ok(Expr::lit(i))
            }
            TokenKind::Float(x) => {
                self.advance();
                Ok(Expr::lit(x))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Expr::lit(s))
            }
            TokenKind::Param(name) => {
                self.advance();
                Ok(Expr::param(name))
            }
            TokenKind::Keyword(k) if k == "NULL" => {
                self.advance();
                Ok(Expr::Literal(Value::Null))
            }
            TokenKind::Keyword(k) if k == "TRUE" => {
                self.advance();
                Ok(Expr::Literal(Value::Bool(true)))
            }
            TokenKind::Keyword(k) if k == "FALSE" => {
                self.advance();
                Ok(Expr::Literal(Value::Bool(false)))
            }
            // DATE is a soft keyword: `DATE '<string>'` is a date literal,
            // while a bare `date` identifier stays a column reference (the
            // paper's DailySales relation has a `date` column).
            TokenKind::Ident(name)
                if name.eq_ignore_ascii_case("DATE")
                    && matches!(self.tokens[self.pos + 1].kind, TokenKind::Str(_)) =>
            {
                self.advance();
                let TokenKind::Str(s) = self.advance() else {
                    return Err(self.error("expected a date string"));
                };
                let d = Date::parse(&s)
                    .ok_or_else(|| self.error(format!("invalid date literal '{s}'")))?;
                Ok(Expr::lit(d))
            }
            TokenKind::Keyword(k) if k == "CASE" => {
                self.advance();
                let mut branches = Vec::new();
                while self.eat_keyword("WHEN") {
                    let cond = self.expr()?;
                    self.expect_keyword("THEN")?;
                    let val = self.expr()?;
                    branches.push((cond, val));
                }
                if branches.is_empty() {
                    return Err(self.error("CASE requires at least one WHEN branch"));
                }
                let else_expr = if self.eat_keyword("ELSE") {
                    Some(Box::new(self.expr()?))
                } else {
                    None
                };
                self.expect_keyword("END")?;
                Ok(Expr::Case {
                    branches,
                    else_expr,
                })
            }
            TokenKind::Keyword(k)
                if matches!(k.as_str(), "SUM" | "COUNT" | "AVG" | "MIN" | "MAX") =>
            {
                self.advance();
                let func = match k.as_str() {
                    "SUM" => AggFunc::Sum,
                    "COUNT" => AggFunc::Count,
                    "AVG" => AggFunc::Avg,
                    "MIN" => AggFunc::Min,
                    _ => AggFunc::Max,
                };
                self.expect_punct("(")?;
                let arg = if self.eat_punct("*") {
                    if func != AggFunc::Count {
                        return Err(self.error("only COUNT may take *"));
                    }
                    None
                } else {
                    Some(Box::new(self.expr()?))
                };
                self.expect_punct(")")?;
                Ok(Expr::Aggregate { func, arg })
            }
            TokenKind::Ident(name) => {
                self.advance();
                Ok(Expr::col(name))
            }
            other => Err(self.error(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_rollup_query() {
        // Example 2.1, first analyst query.
        let stmt = parse_statement(
            "SELECT city, state, SUM(total_sales) FROM DailySales GROUP BY city, state",
        )
        .unwrap();
        let Statement::Select(s) = stmt else {
            panic!("not a select")
        };
        assert_eq!(s.from, "DailySales");
        assert_eq!(s.items.len(), 3);
        assert_eq!(s.group_by.len(), 2);
        assert!(s.items[2].expr.contains_aggregate());
    }

    #[test]
    fn parses_paper_drilldown_query() {
        // Example 2.1, second analyst query.
        let stmt = parse_statement(
            "SELECT product_line, SUM(total_sales) FROM DailySales \
             WHERE city = 'San Jose' AND state = 'CA' GROUP BY product_line",
        )
        .unwrap();
        let Statement::Select(s) = stmt else {
            panic!("not a select")
        };
        let w = s.where_clause.unwrap();
        assert_eq!(w.to_string(), "city = 'San Jose' AND state = 'CA'");
    }

    #[test]
    fn parses_rewritten_query_shape() {
        // The shape produced by the 2VNL rewrite in Example 4.1.
        let sql = "SELECT city, state, \
            SUM(CASE WHEN :sessionVN >= tupleVN THEN total_sales ELSE pre_total_sales END) \
            FROM DailySales \
            WHERE (:sessionVN >= tupleVN AND operation <> 'delete') \
               OR (:sessionVN < tupleVN AND operation <> 'insert') \
            GROUP BY city, state";
        let stmt = parse_statement(sql).unwrap();
        let Statement::Select(s) = stmt else {
            panic!("not a select")
        };
        assert!(s.items[2].expr.contains_aggregate());
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn round_trips_via_display() {
        let inputs = [
            "SELECT city, SUM(total_sales) AS s FROM DailySales WHERE state = 'CA' GROUP BY city ORDER BY city",
            "SELECT * FROM t",
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')",
            "UPDATE DailySales SET total_sales = total_sales + 1000 WHERE city = 'San Jose' AND date = DATE '1996-10-13'",
            "DELETE FROM DailySales WHERE city = 'San Jose'",
            "SELECT a FROM t WHERE a IS NOT NULL AND b IS NULL",
            "SELECT COUNT(*) FROM t",
            "SELECT CASE WHEN a = 1 THEN 'one' WHEN a = 2 THEN 'two' ELSE 'many' END FROM t",
            "SELECT city, SUM(s) FROM t GROUP BY city HAVING SUM(s) > 10 ORDER BY city LIMIT 5",
            "SELECT a FROM t LIMIT 3",
            "SELECT a FROM t WHERE a BETWEEN 1 AND 10 AND b NOT BETWEEN 2 AND 3",
            "SELECT a FROM t WHERE city IN ('SJ', 'SF') OR a NOT IN (1, 2, 3)",
            "SELECT a FROM t WHERE a + 1 BETWEEN b - 1 AND b + 1",
        ];
        for sql in inputs {
            let once = parse_statement(sql).unwrap();
            let rendered = once.to_string();
            let twice = parse_statement(&rendered).unwrap();
            assert_eq!(once, twice, "round trip failed for {sql}");
        }
    }

    #[test]
    fn precedence_and_parens() {
        let e = parse_expression("1 + 2 * 3").unwrap();
        assert_eq!(e.to_string(), "1 + 2 * 3");
        let e = parse_expression("(1 + 2) * 3").unwrap();
        assert_eq!(e.to_string(), "(1 + 2) * 3");
        let e = parse_expression("a = 1 OR b = 2 AND c = 3").unwrap();
        // AND binds tighter than OR.
        assert_eq!(e, parse_expression("a = 1 OR (b = 2 AND c = 3)").unwrap());
    }

    #[test]
    fn not_and_negation() {
        let e = parse_expression("NOT a = 1").unwrap();
        assert_eq!(e, Expr::Not(Box::new(parse_expression("a = 1").unwrap())));
        let e = parse_expression("-5").unwrap();
        assert_eq!(e, Expr::lit(-5));
        let e = parse_expression("-x").unwrap();
        assert!(matches!(e, Expr::Neg(_)));
    }

    #[test]
    fn date_literals() {
        let e = parse_expression("DATE '1996-10-14'").unwrap();
        assert_eq!(e, Expr::lit(Date::ymd(1996, 10, 14)));
        assert!(parse_expression("DATE '99-99-99'").is_err());
    }

    #[test]
    fn count_star_only() {
        assert!(parse_expression("COUNT(*)").is_ok());
        assert!(parse_expression("SUM(*)").is_err());
    }

    #[test]
    fn errors_carry_offsets() {
        let err = parse_statement("SELECT FROM t").unwrap_err();
        assert!(matches!(err, SqlError::Parse { .. }));
        let err = parse_statement("SELECT a FROM t WHERE").unwrap_err();
        assert!(matches!(err, SqlError::Parse { .. }));
        let err = parse_statement("SELECT a FROM t extra garbage").unwrap_err();
        assert!(matches!(err, SqlError::Parse { .. }));
    }

    #[test]
    fn trailing_semicolon_ok() {
        assert!(parse_statement("SELECT * FROM t;").is_ok());
    }

    #[test]
    fn case_without_when_rejected() {
        assert!(parse_expression("CASE ELSE 1 END").is_err());
    }

    #[test]
    fn between_binds_below_arithmetic_above_and() {
        let e = parse_expression("a + 1 BETWEEN 2 AND 3 AND b = 1").unwrap();
        // Parses as (a+1 BETWEEN 2 AND 3) AND (b = 1).
        let Expr::Binary {
            op: BinOp::And,
            left,
            ..
        } = e
        else {
            panic!("AND should be outermost: {e:?}")
        };
        assert!(matches!(*left, Expr::Between { .. }));
        let Expr::Between { expr, .. } = *left else {
            panic!("BETWEEN should be the left conjunct")
        };
        assert!(matches!(*expr, Expr::Binary { op: BinOp::Add, .. }));
    }

    #[test]
    fn in_list_requires_parens_and_items() {
        assert!(parse_expression("a IN ()").is_err());
        assert!(parse_expression("a IN 1, 2").is_err());
        let e = parse_expression("a IN (1)").unwrap();
        assert!(matches!(e, Expr::InList { ref list, .. } if list.len() == 1));
    }

    #[test]
    fn create_table_rejects_bad_definitions() {
        assert!(parse_statement("CREATE TABLE t ()").is_err());
        assert!(parse_statement("CREATE TABLE t (a WIBBLE)").is_err());
        assert!(parse_statement("CREATE TABLE t (a CHAR(0))").is_err());
    }
}
