//! The §4 query-rewrite layer, shown on real queries: what a stock DBMS
//! would actually execute on behalf of a 2VNL (and 4VNL) reader.
//!
//! ```sh
//! cargo run --example rewrite_demo
//! ```
#![allow(clippy::unwrap_used, clippy::panic)]

use warehouse_2vnl::sql::{parse_statement, Statement};
use warehouse_2vnl::types::schema::daily_sales_schema;
use warehouse_2vnl::vnl::{ExtLayout, QueryRewriter};

fn show(rewriter: &QueryRewriter, sql: &str) {
    let Statement::Select(stmt) = parse_statement(sql).unwrap() else {
        panic!("demo queries are SELECTs")
    };
    println!("  reader writes : {sql}");
    println!(
        "  DBMS executes : {}\n",
        rewriter.rewrite_select(&stmt).unwrap()
    );
}

fn main() {
    println!("=== 2VNL rewrite (Example 4.1 and friends) ===\n");
    let r2 = QueryRewriter::new(ExtLayout::new(daily_sales_schema(), 2).unwrap());
    show(
        &r2,
        "SELECT city, state, SUM(total_sales) FROM DailySales GROUP BY city, state",
    );
    show(
        &r2,
        "SELECT product_line, SUM(total_sales) FROM DailySales \
         WHERE city = 'San Jose' AND state = 'CA' GROUP BY product_line",
    );
    show(&r2, "SELECT * FROM DailySales WHERE total_sales > 5000");
    show(
        &r2,
        "SELECT city, MAX(total_sales) FROM DailySales GROUP BY city ORDER BY MAX(total_sales) DESC",
    );

    println!("=== 4VNL rewrite (§5: the CASE walks three version slots) ===\n");
    let r4 = QueryRewriter::new(ExtLayout::new(daily_sales_schema(), 4).unwrap());
    show(
        &r4,
        "SELECT city, SUM(total_sales) FROM DailySales GROUP BY city",
    );

    println!(
        "(the :sessionVN placeholder is bound by the session at execution time;\n\
         non-updatable attributes — here the group-by key — pass through untouched,\n\
         so indexes on them keep working, §4.3)"
    );
}
