//! A catalog of tables plus a statement-level entry point.
//!
//! [`Database`] is the "conventional relational DBMS" role in the paper's
//! architecture: it parses and executes SQL against heap tables, enforces
//! unique keys through a [`KeyDirectory`], and exposes cursors. It knows
//! nothing about versions — the `wh-vnl` crate layers 2VNL *on top of* this,
//! exactly as §4 prescribes.

use crate::ast::{DeleteStmt, InsertStmt, SelectStmt, Statement, UpdateStmt};
use crate::cursor::Cursor;
use crate::error::{SqlError, SqlResult};
use crate::eval::{EvalContext, Params};
use crate::exec::{execute_select, QueryResult};
use crate::parser::parse_statement;
use std::collections::HashMap;
use std::sync::Arc;
use std::sync::RwLock;
use wh_index::KeyDirectory;
use wh_storage::{IoStats, Rid, Table};
use wh_types::{Row, Schema, Value};

/// A table plus its unique-key directory (when the schema declares a key).
pub struct TableEntry {
    table: Table,
    key_dir: Option<KeyDirectory>,
}

impl TableEntry {
    /// The underlying storage table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The unique-key directory, if the schema has a key.
    pub fn key_dir(&self) -> Option<&KeyDirectory> {
        self.key_dir.as_ref()
    }

    /// Insert a row, enforcing the unique key.
    pub fn insert(&self, row: &[Value]) -> SqlResult<Rid> {
        if let Some(dir) = &self.key_dir {
            if dir.find(row).is_some() {
                return Err(SqlError::KeyConflict(format!(
                    "{:?}",
                    self.table.schema().key_of(row)
                )));
            }
        }
        let rid = self.table.insert(row)?;
        if let Some(dir) = &self.key_dir {
            dir.register(row, rid)
                .expect("key checked free immediately above"); // lint: allow(no-panic) — invariant documented in the expect message
        }
        Ok(rid)
    }

    /// Update the row at `rid` to `new_row`, keeping the key directory
    /// consistent. A key-changing update that collides fails without
    /// modifying the table.
    pub fn update(&self, rid: Rid, new_row: &[Value]) -> SqlResult<()> {
        let old_row = self.table.read(rid)?;
        if let Some(dir) = &self.key_dir {
            let schema = self.table.schema();
            if schema.key_of(&old_row) != schema.key_of(new_row) {
                if let Some(existing) = dir.find(new_row) {
                    if existing != rid {
                        return Err(SqlError::KeyConflict(format!(
                            "{:?}",
                            schema.key_of(new_row)
                        )));
                    }
                }
                dir.unregister(&old_row, rid)
                    .expect("old row was registered"); // lint: allow(no-panic) — invariant documented in the expect message
                dir.register(new_row, rid).expect("checked free above"); // lint: allow(no-panic) — invariant documented in the expect message
            }
        }
        self.table.update(rid, new_row)?;
        Ok(())
    }

    /// Delete the row at `rid`.
    pub fn delete(&self, rid: Rid) -> SqlResult<()> {
        let old_row = self.table.read(rid)?;
        self.table.delete(rid)?;
        if let Some(dir) = &self.key_dir {
            dir.unregister(&old_row, rid)
                .expect("deleted row was registered"); // lint: allow(no-panic) — invariant documented in the expect message
        }
        Ok(())
    }
}

/// An in-memory multi-table database.
pub struct Database {
    tables: RwLock<HashMap<String, Arc<TableEntry>>>,
    stats: Arc<IoStats>,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// An empty database with fresh I/O counters.
    pub fn new() -> Self {
        Database {
            tables: RwLock::new(HashMap::new()),
            stats: Arc::new(IoStats::new()),
        }
    }

    /// The I/O counters shared by all tables in this database.
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// Create a table.
    pub fn create_table(&self, name: &str, schema: Schema) -> SqlResult<Arc<TableEntry>> {
        let mut tables = self
            .tables
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if tables.contains_key(name) {
            return Err(SqlError::TableExists(name.into()));
        }
        let table = Table::create(name, schema.clone(), Arc::clone(&self.stats))?;
        let key_dir = KeyDirectory::for_schema(&schema);
        let entry = Arc::new(TableEntry { table, key_dir });
        tables.insert(name.to_string(), Arc::clone(&entry));
        Ok(entry)
    }

    /// Drop a table. Returns whether it existed.
    pub fn drop_table(&self, name: &str) -> bool {
        self.tables
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(name)
            .is_some()
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> SqlResult<Arc<TableEntry>> {
        self.tables
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(name)
            .cloned()
            .ok_or_else(|| SqlError::NoSuchTable(name.into()))
    }

    /// Parse and execute one statement with no parameters.
    pub fn run(&self, sql: &str) -> SqlResult<QueryResult> {
        self.run_with_params(sql, &Params::new())
    }

    /// Parse and execute one statement with `params` bound.
    ///
    /// DML statements return an empty-column result whose single row/cell
    /// count is the number of affected rows.
    pub fn run_with_params(&self, sql: &str, params: &Params) -> SqlResult<QueryResult> {
        let stmt = parse_statement(sql)?;
        self.execute(&stmt, params)
    }

    /// Execute a pre-parsed statement.
    pub fn execute(&self, stmt: &Statement, params: &Params) -> SqlResult<QueryResult> {
        match stmt {
            Statement::Select(s) => self.execute_select(s, params),
            Statement::Insert(s) => self.execute_insert(s, params),
            Statement::Update(s) => self.execute_update(s, params),
            Statement::Delete(s) => self.execute_delete(s, params),
            Statement::CreateTable(s) => {
                let columns: Vec<wh_types::Column> = s
                    .columns
                    .iter()
                    .map(|c| wh_types::Column {
                        name: c.name.clone(),
                        ty: c.ty,
                        updatable: c.updatable,
                    })
                    .collect();
                let key_refs: Vec<&str> = s.key.iter().map(String::as_str).collect();
                let schema = Schema::with_key_names(columns, &key_refs)?;
                self.create_table(&s.name, schema)?;
                Ok(dml_result(0))
            }
            Statement::DropTable(s) => {
                if !self.drop_table(&s.name) {
                    return Err(SqlError::NoSuchTable(s.name.clone()));
                }
                Ok(dml_result(0))
            }
        }
    }

    fn execute_select(&self, stmt: &SelectStmt, params: &Params) -> SqlResult<QueryResult> {
        let entry = self.table(&stmt.from)?;
        execute_select(entry.table(), stmt, params, 1)
    }

    fn execute_insert(&self, stmt: &InsertStmt, params: &Params) -> SqlResult<QueryResult> {
        let entry = self.table(&stmt.table)?;
        let schema = entry.table().schema().clone();
        // VALUES expressions may not reference columns; evaluate against an
        // empty row with an empty schema so column references fail cleanly.
        let empty_schema = Schema::new(vec![]).expect("empty schema"); // lint: allow(no-panic) — static schema literal, valid by construction
        let ctx = EvalContext::new(&empty_schema, params);
        let mut affected = 0i64;
        for row_exprs in &stmt.rows {
            let values: Vec<Value> = row_exprs
                .iter()
                .map(|e| ctx.eval(e, &[]))
                .collect::<SqlResult<_>>()?;
            let row = if stmt.columns.is_empty() {
                values
            } else {
                if stmt.columns.len() != values.len() {
                    return Err(SqlError::Parse {
                        message: "column list and VALUES arity differ".into(),
                        offset: 0,
                    });
                }
                let mut row = vec![Value::Null; schema.arity()];
                for (name, v) in stmt.columns.iter().zip(values) {
                    let idx = schema
                        .column_index(name)
                        .map_err(|_| SqlError::NoSuchColumn(name.clone()))?;
                    row[idx] = v;
                }
                row
            };
            entry.insert(&row)?;
            affected += 1;
        }
        Ok(dml_result(affected))
    }

    fn execute_update(&self, stmt: &UpdateStmt, params: &Params) -> SqlResult<QueryResult> {
        let entry = self.table(&stmt.table)?;
        let schema = entry.table().schema().clone();
        let ctx = EvalContext::new(&schema, params);
        // Resolve assignment targets once.
        let mut targets = Vec::with_capacity(stmt.assignments.len());
        for (name, _) in &stmt.assignments {
            targets.push(
                schema
                    .column_index(name)
                    .map_err(|_| SqlError::NoSuchColumn(name.clone()))?,
            );
        }
        let mut cursor = Cursor::open(entry.table(), stmt.where_clause.as_ref(), params)?;
        let mut affected = 0i64;
        while let Some((rid, row)) = cursor.next_row()? {
            let mut new_row: Row = row.clone();
            for (idx, (_, expr)) in targets.iter().zip(&stmt.assignments) {
                new_row[*idx] = ctx.eval(expr, &row)?;
            }
            entry.update(rid, &new_row)?;
            affected += 1;
        }
        Ok(dml_result(affected))
    }

    fn execute_delete(&self, stmt: &DeleteStmt, params: &Params) -> SqlResult<QueryResult> {
        let entry = self.table(&stmt.table)?;
        let mut cursor = Cursor::open(entry.table(), stmt.where_clause.as_ref(), params)?;
        let mut affected = 0i64;
        while let Some((rid, _)) = cursor.next_row()? {
            entry.delete(rid)?;
            affected += 1;
        }
        Ok(dml_result(affected))
    }
}

fn dml_result(affected: i64) -> QueryResult {
    QueryResult {
        columns: vec!["affected".into()],
        rows: vec![vec![Value::Int(affected)]],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wh_types::schema::daily_sales_schema;
    use wh_types::{Column, DataType, Date};

    fn db_with_sales() -> Database {
        let db = Database::new();
        db.create_table("DailySales", daily_sales_schema()).unwrap();
        db.run(
            "INSERT INTO DailySales VALUES \
             ('San Jose', 'CA', 'golf equip', DATE '1996-10-14', 10000), \
             ('Berkeley', 'CA', 'racquetball', DATE '1996-10-14', 12000), \
             ('Novato', 'CA', 'rollerblades', DATE '1996-10-13', 8000)",
        )
        .unwrap();
        db
    }

    #[test]
    fn end_to_end_select() {
        let db = db_with_sales();
        let r = db
            .run("SELECT city, state, SUM(total_sales) FROM DailySales GROUP BY city, state ORDER BY city")
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[2][2], Value::from(10_000));
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let db = Database::new();
        db.create_table(
            "t",
            Schema::new(vec![
                Column::new("a", DataType::Int32),
                Column::new("b", DataType::Int32),
            ])
            .unwrap(),
        )
        .unwrap();
        db.run("INSERT INTO t (b) VALUES (7)").unwrap();
        let r = db.run("SELECT * FROM t").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Null, Value::from(7)]]);
    }

    #[test]
    fn update_statement_paper_example() {
        // Example 4.3's logical statement, against the plain (unrewritten) DB.
        let db = db_with_sales();
        db.run(
            "UPDATE DailySales SET total_sales = total_sales + 1000 \
             WHERE city = 'San Jose' AND date = DATE '1996-10-14'",
        )
        .unwrap();
        let r = db
            .run("SELECT total_sales FROM DailySales WHERE city = 'San Jose'")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::from(11_000)]]);
    }

    #[test]
    fn delete_statement() {
        let db = db_with_sales();
        let r = db
            .run("DELETE FROM DailySales WHERE city = 'Novato'")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(1));
        let r = db.run("SELECT COUNT(*) FROM DailySales").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(2));
    }

    #[test]
    fn unique_key_enforced() {
        let db = db_with_sales();
        let err = db
            .run(
                "INSERT INTO DailySales VALUES \
                 ('San Jose', 'CA', 'golf equip', DATE '1996-10-14', 999)",
            )
            .unwrap_err();
        assert!(matches!(err, SqlError::KeyConflict(_)));
    }

    #[test]
    fn key_directory_follows_updates_and_deletes() {
        let db = db_with_sales();
        // Move a key; the old key becomes free, the new key conflicts.
        db.run("UPDATE DailySales SET city = 'Oakland' WHERE city = 'Novato'")
            .unwrap();
        db.run(
            "INSERT INTO DailySales VALUES \
             ('Novato', 'CA', 'rollerblades', DATE '1996-10-13', 1)",
        )
        .unwrap();
        let err = db
            .run(
                "INSERT INTO DailySales VALUES \
                 ('Oakland', 'CA', 'rollerblades', DATE '1996-10-13', 1)",
            )
            .unwrap_err();
        assert!(matches!(err, SqlError::KeyConflict(_)));
        db.run("DELETE FROM DailySales WHERE city = 'Oakland'")
            .unwrap();
        db.run(
            "INSERT INTO DailySales VALUES \
             ('Oakland', 'CA', 'rollerblades', DATE '1996-10-13', 2)",
        )
        .unwrap();
    }

    #[test]
    fn key_changing_update_conflict_leaves_row_untouched() {
        let db = db_with_sales();
        db.run(
            "INSERT INTO DailySales VALUES \
             ('Novato', 'CA', 'racquetball', DATE '1996-10-14', 5)",
        )
        .unwrap();
        let err = db
            .run("UPDATE DailySales SET city = 'Berkeley' WHERE city = 'Novato' AND product_line = 'racquetball'")
            .unwrap_err();
        assert!(matches!(err, SqlError::KeyConflict(_)));
        // Original row still present and unchanged.
        let r = db
            .run("SELECT COUNT(*) FROM DailySales WHERE city = 'Novato'")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(2));
    }

    #[test]
    fn missing_table_and_duplicate_create() {
        let db = Database::new();
        assert!(matches!(
            db.run("SELECT * FROM nope"),
            Err(SqlError::NoSuchTable(_))
        ));
        db.create_table(
            "t",
            Schema::new(vec![Column::new("a", DataType::Int32)]).unwrap(),
        )
        .unwrap();
        assert!(matches!(
            db.create_table(
                "t",
                Schema::new(vec![Column::new("a", DataType::Int32)]).unwrap()
            ),
            Err(SqlError::TableExists(_))
        ));
        assert!(db.drop_table("t"));
        assert!(!db.drop_table("t"));
    }

    #[test]
    fn create_table_via_sql() {
        let db = Database::new();
        db.run(
            "CREATE TABLE DailySales (\
               city CHAR(20), state CHAR(2), product_line CHAR(12), date DATE, \
               total_sales INT UPDATABLE, \
               PRIMARY KEY (city, state, product_line, date))",
        )
        .unwrap();
        let entry = db.table("DailySales").unwrap();
        // The schema matches the paper's running example exactly.
        assert_eq!(entry.table().schema(), &daily_sales_schema());
        db.run(
            "INSERT INTO DailySales VALUES ('San Jose', 'CA', 'golf equip', DATE '1996-10-14', 10000)",
        )
        .unwrap();
        let r = db.run("SELECT total_sales FROM DailySales").unwrap();
        assert_eq!(r.rows[0][0], Value::from(10_000));
        // Duplicate CREATE fails; DROP then recreate succeeds.
        assert!(matches!(
            db.run("CREATE TABLE DailySales (x INT)"),
            Err(SqlError::TableExists(_))
        ));
        db.run("DROP TABLE DailySales").unwrap();
        assert!(matches!(
            db.run("DROP TABLE DailySales"),
            Err(SqlError::NoSuchTable(_))
        ));
        db.run("CREATE TABLE DailySales (x INT)").unwrap();
    }

    #[test]
    fn create_table_rejects_bad_definitions() {
        let db = Database::new();
        assert!(db.run("CREATE TABLE t ()").is_err());
        assert!(db.run("CREATE TABLE t (a WIBBLE)").is_err());
        assert!(db.run("CREATE TABLE t (a CHAR(0))").is_err());
        // Unknown key column surfaces as a type error.
        assert!(db.run("CREATE TABLE t (a INT, PRIMARY KEY (zzz))").is_err());
    }

    #[test]
    fn create_table_statement_round_trips() {
        let sql = "CREATE TABLE t (a INT, b CHAR(8) UPDATABLE, c DATE, PRIMARY KEY (a, c))";
        let stmt = parse_statement(sql).unwrap();
        assert_eq!(parse_statement(&stmt.to_string()).unwrap(), stmt);
    }

    #[test]
    fn params_flow_through_run() {
        let db = db_with_sales();
        let mut params = Params::new();
        params.insert("c".into(), Value::from("Berkeley"));
        let r = db
            .run_with_params(
                "SELECT total_sales FROM DailySales WHERE city = :c",
                &params,
            )
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::from(12_000)]]);
    }

    #[test]
    fn insert_values_may_not_reference_columns() {
        let db = db_with_sales();
        let err = db
            .run("INSERT INTO DailySales VALUES (city, 'CA', 'x', DATE '1996-01-01', 1)")
            .unwrap_err();
        assert!(matches!(err, SqlError::NoSuchColumn(_)));
    }

    #[test]
    fn update_sees_pre_update_values_on_rhs() {
        let db = Database::new();
        db.create_table(
            "t",
            Schema::new(vec![
                Column::new("a", DataType::Int32),
                Column::new("b", DataType::Int32),
            ])
            .unwrap(),
        )
        .unwrap();
        db.run("INSERT INTO t VALUES (1, 2)").unwrap();
        // Simultaneous swap semantics: both RHS evaluate against the old row.
        db.run("UPDATE t SET a = b, b = a").unwrap();
        let r = db.run("SELECT * FROM t").unwrap();
        assert_eq!(r.rows, vec![vec![Value::from(2), Value::from(1)]]);
    }

    #[test]
    fn date_parsing_in_dates() {
        let db = db_with_sales();
        let r = db
            .run("SELECT city FROM DailySales WHERE date = DATE '1996-10-13'")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::from("Novato")]]);
        // Date ordering works in predicates.
        let r = db
            .run("SELECT COUNT(*) FROM DailySales WHERE date > DATE '1996-10-13'")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(2));
        let _ = Date::ymd(1996, 10, 13);
    }
}
