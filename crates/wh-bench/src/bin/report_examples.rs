//! Experiments E4–E8 — the paper's worked examples, regenerated live:
//! Figure 4 extraction (Example 3.2), Figures 5→6 (Example 3.3), the
//! Example 4.1 rewrite text, and the Figure 7 / Example 5.1 4VNL tuple.
#![allow(clippy::unwrap_used, clippy::unreachable)]

use wh_bench::print_table;
use wh_sql::{parse_statement, Statement};
use wh_types::schema::daily_sales_schema;
use wh_types::{Date, Row, Value};
use wh_vnl::VnlTable;

fn row(city: &str, pl: &str, day: u8, sales: i64) -> Row {
    vec![
        Value::from(city),
        Value::from("CA"),
        Value::from(pl),
        Value::from(Date::ymd(1996, 10, day)),
        Value::from(sales),
    ]
}

fn dump_physical(t: &VnlTable, title: &str) {
    println!("{title}");
    let l = t.layout();
    let mut rows: Vec<Vec<String>> = t
        .scan_raw()
        .unwrap()
        .into_iter()
        .map(|(_, ext)| {
            let (vn, op) = l.slot(&ext, 0).unwrap();
            vec![
                vn.to_string(),
                op.to_string(),
                ext[l.base_col(0)].to_string(),
                ext[l.base_col(2)].to_string(),
                ext[l.base_col(3)].to_string(),
                ext[l.base_col(4)].to_string(),
                ext[l.pre_set(0)[0]].to_string(),
            ]
        })
        .collect();
    rows.sort();
    print_table(
        &[
            "tupleVN",
            "operation",
            "city",
            "product_line",
            "date",
            "total_sales",
            "pre_total_sales",
        ],
        &rows,
    );
    println!();
}

fn main() {
    // Build the Figure 4 state.
    let t = VnlTable::create_named("DailySales", daily_sales_schema(), 2).unwrap();
    let txn = t.begin_maintenance().unwrap(); // VN 2
    txn.insert(row("Berkeley", "racquetball", 14, 10_000))
        .unwrap();
    txn.insert(row("Novato", "rollerblades", 13, 8_000))
        .unwrap();
    txn.commit().unwrap();
    let txn = t.begin_maintenance().unwrap(); // VN 3
    txn.insert(row("San Jose", "golf equip", 14, 10_000))
        .unwrap();
    txn.commit().unwrap();
    let session3 = t.begin_session(); // sessionVN = 3 (Example 3.2's reader)
    let txn = t.begin_maintenance().unwrap(); // VN 4
    txn.insert(row("San Jose", "golf equip", 15, 1_500))
        .unwrap();
    txn.update_row(&row("Berkeley", "racquetball", 14, 12_000))
        .unwrap();
    txn.delete_row(&row("Novato", "rollerblades", 13, 0))
        .unwrap();
    txn.commit().unwrap();

    dump_physical(&t, "Figure 4 — extended DailySales relation:");

    println!("Example 3.2 — tuples returned to a reader with sessionVN = 3:");
    let rows: Vec<Vec<String>> = session3
        .scan()
        .unwrap()
        .into_iter()
        .map(|r| r.iter().map(std::string::ToString::to_string).collect())
        .collect();
    print_table(
        &["city", "state", "product_line", "date", "total_sales"],
        &rows,
    );
    println!();
    session3.finish();

    // Figure 5's maintenance transaction (VN 5).
    let txn = t.begin_maintenance().unwrap();
    txn.insert(row("San Jose", "golf equip", 16, 11_000))
        .unwrap();
    txn.insert(row("Novato", "rollerblades", 13, 6_000))
        .unwrap();
    txn.update_row(&row("San Jose", "golf equip", 14, 10_200))
        .unwrap();
    txn.delete_row(&row("Berkeley", "racquetball", 14, 0))
        .unwrap();
    txn.commit().unwrap();
    dump_physical(
        &t,
        "Figure 6 — DailySales after the Figure 5 maintenance transaction (VN 5):",
    );

    // Example 4.1 — the rewrite, verbatim.
    println!("Example 4.1 — reader query rewrite:");
    let original = "SELECT city, state, SUM(total_sales) FROM DailySales GROUP BY city, state";
    println!("  original : {original}");
    let Statement::Select(q) = parse_statement(original).unwrap() else {
        unreachable!()
    };
    let rewriter = t.rewriter();
    println!("  rewritten: {}", rewriter.rewrite_select(&q).unwrap());
    println!();

    // Figure 7 / Example 5.1 — the 4VNL tuple.
    println!("Figure 7 — 4VNL tuple after insert(VN3), update(VN5), delete(VN6):");
    let t4 = VnlTable::create_named("DailySales", daily_sales_schema(), 4).unwrap();
    let txn = t4.begin_maintenance().unwrap(); // VN 2: no-op, advance
    txn.commit().unwrap();
    let txn = t4.begin_maintenance().unwrap(); // VN 3
    txn.insert(row("San Jose", "golf equip", 14, 10_000))
        .unwrap();
    txn.commit().unwrap();
    let txn = t4.begin_maintenance().unwrap(); // VN 4: unrelated
    txn.commit().unwrap();
    let txn = t4.begin_maintenance().unwrap(); // VN 5
    txn.update_row(&row("San Jose", "golf equip", 14, 10_200))
        .unwrap();
    txn.commit().unwrap();
    let txn = t4.begin_maintenance().unwrap(); // VN 6
    txn.delete_row(&row("San Jose", "golf equip", 14, 0))
        .unwrap();
    txn.commit().unwrap();
    let l = t4.layout();
    let (_, ext) = &t4.scan_raw().unwrap()[0];
    let mut cells = vec![
        ext[l.base_col(0)].to_string(),
        ext[l.base_col(4)].to_string(),
    ];
    let mut headers = vec!["city".to_string(), "total_sales".to_string()];
    for j in 0..l.slots() {
        headers.push(format!("tupleVN{}", j + 1));
        headers.push(format!("operation{}", j + 1));
        headers.push(format!("pre_total_sales{}", j + 1));
        cells.push(ext[l.vn_col(j)].to_string());
        cells.push(ext[l.op_col(j)].to_string());
        cells.push(ext[l.pre_set(j)[0]].to_string());
    }
    let headers_ref: Vec<&str> = headers.iter().map(std::string::String::as_str).collect();
    print_table(&headers_ref, &[cells]);

    println!("\nExample 5.1 — per-session visibility of that tuple:");
    let mut rows = Vec::new();
    for s in 0..=7u64 {
        let visible = wh_vnl::visibility::extract(l, ext, s);
        rows.push(vec![
            s.to_string(),
            match visible {
                wh_vnl::Visible::Row(r) => format!("total_sales = {}", r[4]),
                wh_vnl::Visible::Ignore => "ignore (not visible)".into(),
                wh_vnl::Visible::Expired => "EXPIRED".into(),
            },
        ]);
    }
    print_table(&["sessionVN", "outcome"], &rows);
}
