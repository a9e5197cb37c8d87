//! SQL subset for the `warehouse-2vnl` system.
//!
//! The paper's central implementation claim (§4) is that 2VNL "can be
//! implemented entirely outside of an existing DBMS by automatically
//! modifying the relation schema ... and rewriting the maintenance and query
//! operations". A rewrite approach needs something to rewrite: this crate is
//! the SQL surface — a hand-written lexer and recursive-descent parser for
//! the subset the paper uses (SELECT with WHERE / GROUP BY / ORDER BY,
//! aggregates, **CASE WHEN** expressions, named `:parameters`, INSERT /
//! UPDATE / DELETE), an AST that renders back to SQL text (the rewrite golden
//! tests in `wh-vnl` compare rendered SQL against the paper's Example 4.1),
//! and an executor that runs statements against `wh-storage` tables.
//!
//! ```
//! use wh_sql::{parse_statement, Database};
//! use wh_types::{Column, DataType, Schema, Value};
//!
//! let db = Database::new();
//! db.create_table(
//!     "t",
//!     Schema::new(vec![
//!         Column::new("city", DataType::Char(16)),
//!         Column::updatable("sales", DataType::Int32),
//!     ])
//!     .unwrap(),
//! )
//! .unwrap();
//! db.run("INSERT INTO t VALUES ('San Jose', 10)").unwrap();
//! db.run("INSERT INTO t VALUES ('San Jose', 5)").unwrap();
//! let result = db.run("SELECT city, SUM(sales) FROM t GROUP BY city").unwrap();
//! assert_eq!(result.rows, vec![vec![Value::from("San Jose"), Value::from(15)]]);
//! ```

pub mod ast;
pub mod cursor;
pub mod database;
pub mod error;
pub mod eval;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod pushdown;

pub use ast::{
    AggFunc, BinOp, ColumnDef, CreateTableStmt, DeleteStmt, DropTableStmt, Expr, InsertStmt,
    OrderKey, SelectItem, SelectStmt, Statement, UpdateStmt,
};
pub use cursor::Cursor;
pub use database::Database;
pub use error::{SqlError, SqlResult};
pub use eval::{EvalContext, Params};
pub use exec::{execute_select, QueryResult, RowSource};
pub use parser::{parse_expression, parse_statement};
pub use pushdown::{extract_scan_filters, FilterOp, ScanFilter};
