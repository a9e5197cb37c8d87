//! Version visibility: Table 1 (§3.2) and its nVNL generalization (§5).
//!
//! A reader at `sessionVN` must see the tuple state that was current in
//! database version `sessionVN` — the effects of all maintenance
//! transactions with `maintenanceVN ≤ sessionVN` and no others. Given a
//! tuple's recorded version slots (newest first), the rules are:
//!
//! 1. `sessionVN ≥ tupleVN₁`: read the **current** attribute values, unless
//!    `operation₁ = delete` (then the tuple is logically absent).
//! 2. otherwise, find the least recorded `tupleVNⱼ > sessionVN` (the
//!    *oldest* slot still newer than the session): read that slot's
//!    **pre-update** values, unless `operationⱼ = insert` (the tuple did not
//!    exist yet).
//! 3. if every slot is occupied and `sessionVN < tupleVN₍ₙ₋₁₎ − 1`, the
//!    session has **expired** — the needed state was pushed out of the tuple.
//!
//! When the oldest slot is empty the tuple's full history is present
//! (tuples are born by insert), so case 3 can only fire on a full tuple.
//!
//! [`extract`] states the rule over a decoded extended row and is the
//! **oracle**: every production read decides Table 1 with the scan kernel
//! on encoded records (`crate::scan`), which the tests hold to this
//! function; only the crash matrix and `report_examples` call it.

use crate::schema_ext::ExtLayout;
use crate::version::{Operation, VersionNo};
use wh_types::{Row, Value};

/// What a reader session sees of one stored tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum Visible {
    /// The tuple is visible with these (base-schema) values.
    Row(Row),
    /// The tuple is logically absent at the session's version.
    Ignore,
    /// The session has expired (case 3): the needed version is gone.
    Expired,
}

impl Visible {
    /// Unwrap a visible row, `None` otherwise.
    pub fn into_row(self) -> Option<Row> {
        match self {
            Visible::Row(r) => Some(r),
            _ => None,
        }
    }
}

/// Apply Table 1 / §5 to one extended row.
pub fn extract(layout: &ExtLayout, ext_row: &[Value], session_vn: VersionNo) -> Visible {
    #[expect(clippy::expect_used, reason = "invariant in the expect message")]
    let (vn1, op1) = layout
        .slot(ext_row, 0)
        .expect("slot 0 is always populated for live tuples");
    // Case 1: the session is at or past the tuple's newest modification.
    if session_vn >= vn1 {
        return match op1 {
            Operation::Delete => Visible::Ignore,
            _ => Visible::Row(layout.current_values(ext_row)),
        };
    }
    // Case 2: find j* = the oldest recorded slot with tupleVN_j > sessionVN.
    let mut j_star = 0;
    let mut oldest_recorded = 0;
    for j in 1..layout.slots() {
        match layout.slot(ext_row, j) {
            Some((vn_j, _)) => {
                oldest_recorded = j;
                if vn_j > session_vn {
                    j_star = j;
                }
            }
            None => break,
        }
    }
    // Case 3: expired — all slots full, and the session predates even the
    // oldest recorded pre-update version's validity window.
    let slots_full = oldest_recorded == layout.slots() - 1;
    if slots_full && j_star == oldest_recorded {
        #[expect(clippy::expect_used, reason = "invariant in the expect message")]
        let (vn_oldest, _) = layout.slot(ext_row, oldest_recorded).expect("recorded");
        if session_vn + 1 < vn_oldest {
            return Visible::Expired;
        }
    }
    #[expect(clippy::expect_used, reason = "invariant in the expect message")]
    let (_, op_j) = layout.slot(ext_row, j_star).expect("j* is recorded");
    match op_j {
        Operation::Insert => Visible::Ignore,
        _ => Visible::Row(layout.pre_values(ext_row, j_star)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wh_types::schema::daily_sales_schema;
    use wh_types::Date;

    fn layout(n: usize) -> ExtLayout {
        ExtLayout::new(daily_sales_schema(), n).unwrap()
    }

    /// Build an extended DailySales row directly (column order per Fig. 3).
    fn row2(vn: i64, op: &str, city: &str, pl: &str, day: u8, sales: Value, pre: Value) -> Row {
        vec![
            Value::from(vn),
            Value::from(op),
            Value::from(city),
            Value::from("CA"),
            Value::from(pl),
            Value::from(Date::ymd(1996, 10, day)),
            sales,
            pre,
        ]
    }

    /// The Figure 4 relation.
    fn figure_4() -> Vec<Row> {
        vec![
            row2(
                3,
                "i",
                "San Jose",
                "golf equip",
                14,
                Value::from(10_000),
                Value::Null,
            ),
            row2(
                4,
                "i",
                "San Jose",
                "golf equip",
                15,
                Value::from(1_500),
                Value::Null,
            ),
            row2(
                4,
                "u",
                "Berkeley",
                "racquetball",
                14,
                Value::from(12_000),
                Value::from(10_000),
            ),
            row2(
                4,
                "d",
                "Novato",
                "rollerblades",
                13,
                Value::from(8_000),
                Value::from(8_000),
            ),
        ]
    }

    #[test]
    fn example_3_2_session_vn_3() {
        // Example 3.2: a reader with sessionVN = 3 sees exactly these rows.
        let l = layout(2);
        let visible: Vec<Row> = figure_4()
            .iter()
            .filter_map(|r| extract(&l, r, 3).into_row())
            .collect();
        assert_eq!(
            visible,
            vec![
                vec![
                    Value::from("San Jose"),
                    Value::from("CA"),
                    Value::from("golf equip"),
                    Value::from(Date::ymd(1996, 10, 14)),
                    Value::from(10_000),
                ],
                vec![
                    Value::from("Berkeley"),
                    Value::from("CA"),
                    Value::from("racquetball"),
                    Value::from(Date::ymd(1996, 10, 14)),
                    Value::from(10_000), // pre-update value
                ],
                vec![
                    Value::from("Novato"),
                    Value::from("CA"),
                    Value::from("rollerblades"),
                    Value::from(Date::ymd(1996, 10, 13)),
                    Value::from(8_000), // pre-delete value
                ],
            ]
        );
    }

    #[test]
    fn session_vn_4_sees_current_state() {
        let l = layout(2);
        let rows = figure_4();
        // Insert at 4: visible with current values.
        assert_eq!(
            extract(&l, &rows[1], 4),
            Visible::Row(vec![
                Value::from("San Jose"),
                Value::from("CA"),
                Value::from("golf equip"),
                Value::from(Date::ymd(1996, 10, 15)),
                Value::from(1_500),
            ])
        );
        // Update at 4: current values.
        assert!(
            matches!(extract(&l, &rows[2], 4), Visible::Row(ref r) if r[4] == Value::from(12_000))
        );
        // Delete at 4: logically absent.
        assert_eq!(extract(&l, &rows[3], 4), Visible::Ignore);
    }

    #[test]
    fn table_1_all_cells_2vnl() {
        let l = layout(2);
        let mk = |op: &str| row2(5, op, "X", "p", 1, Value::from(2), Value::from(1));
        // Current version row of Table 1.
        assert!(matches!(extract(&l, &mk("i"), 5), Visible::Row(_)));
        assert!(matches!(extract(&l, &mk("u"), 5), Visible::Row(_)));
        assert_eq!(extract(&l, &mk("d"), 5), Visible::Ignore);
        // Pre-update version row (sessionVN = tupleVN - 1).
        assert_eq!(extract(&l, &mk("i"), 4), Visible::Ignore);
        let pre_u = extract(&l, &mk("u"), 4).into_row().unwrap();
        assert_eq!(pre_u[4], Value::from(1));
        let pre_d = extract(&l, &mk("d"), 4).into_row().unwrap();
        assert_eq!(pre_d[4], Value::from(1));
        // Case 3: expired.
        assert_eq!(extract(&l, &mk("u"), 3), Visible::Expired);
        assert_eq!(extract(&l, &mk("i"), 3), Visible::Expired);
        assert_eq!(extract(&l, &mk("d"), 3), Visible::Expired);
    }

    /// The Figure 7 tuple: insert at VN 3 (10,000), update at VN 5 (10,200),
    /// delete at VN 6, under 4VNL.
    fn figure_7(l: &ExtLayout) -> Row {
        let mut ext = vec![Value::Null; l.ext_schema().arity()];
        for (i, v) in [
            Value::from("San Jose"),
            Value::from("CA"),
            Value::from("golf equip"),
            Value::from(Date::ymd(1996, 10, 14)),
            Value::from(10_200),
        ]
        .into_iter()
        .enumerate()
        {
            ext[l.base_col(i)] = v;
        }
        let slots = [
            (6i64, "d", Value::from(10_200)),
            (5, "u", Value::from(10_000)),
            (3, "i", Value::Null),
        ];
        for (j, (vn, op, pre)) in slots.into_iter().enumerate() {
            ext[l.vn_col(j)] = Value::from(vn);
            ext[l.op_col(j)] = Value::from(op);
            ext[l.pre_set(j)[0]] = pre;
        }
        ext
    }

    #[test]
    fn example_5_1_4vnl_visibility() {
        // Example 5.1's complete case analysis.
        let l = layout(4);
        let ext = figure_7(&l);
        // sessionVN >= 6: ignore (deleted).
        assert_eq!(extract(&l, &ext, 6), Visible::Ignore);
        assert_eq!(extract(&l, &ext, 9), Visible::Ignore);
        // sessionVN = 5: pre-update of the delete = 10,200.
        let r5 = extract(&l, &ext, 5).into_row().unwrap();
        assert_eq!(r5[4], Value::from(10_200));
        // sessionVN in {3, 4}: logical tuple with total_sales = 10,000.
        for s in [3, 4] {
            let r = extract(&l, &ext, s).into_row().unwrap();
            assert_eq!(r[4], Value::from(10_000), "sessionVN {s}");
        }
        // sessionVN = 2: ignore (pre-insert).
        assert_eq!(extract(&l, &ext, 2), Visible::Ignore);
        // sessionVN < 2: expired.
        assert_eq!(extract(&l, &ext, 1), Visible::Expired);
        assert_eq!(extract(&l, &ext, 0), Visible::Expired);
    }

    #[test]
    fn partial_history_never_expires() {
        // Only 2 of 3 slots used: full history known, so any old session
        // resolves to Ignore (pre-insert), never Expired.
        let l = layout(4);
        let mut ext = vec![Value::Null; l.ext_schema().arity()];
        for (i, v) in [
            Value::from("X"),
            Value::from("CA"),
            Value::from("p"),
            Value::from(Date::ymd(1996, 1, 1)),
            Value::from(200),
        ]
        .into_iter()
        .enumerate()
        {
            ext[l.base_col(i)] = v;
        }
        ext[l.vn_col(0)] = Value::from(9);
        ext[l.op_col(0)] = Value::from("u");
        ext[l.pre_set(0)[0]] = Value::from(100);
        ext[l.vn_col(1)] = Value::from(7);
        ext[l.op_col(1)] = Value::from("i");
        assert_eq!(extract(&l, &ext, 0), Visible::Ignore);
        assert_eq!(extract(&l, &ext, 6), Visible::Ignore);
        // Sessions between insert and update see the pre-update value.
        let r = extract(&l, &ext, 7).into_row().unwrap();
        assert_eq!(r[4], Value::from(100));
        let r = extract(&l, &ext, 8).into_row().unwrap();
        assert_eq!(r[4], Value::from(100));
        // Sessions at/after the update see current.
        let r = extract(&l, &ext, 9).into_row().unwrap();
        assert_eq!(r[4], Value::from(200));
    }

    #[test]
    fn boundary_of_expiration_is_exact() {
        // With a full 4VNL tuple whose oldest slot is VN v, sessions at
        // v - 1 are fine and v - 2 are expired.
        let l = layout(4);
        let ext = figure_7(&l); // oldest slot VN 3
        assert_ne!(extract(&l, &ext, 2), Visible::Expired); // 3 - 1
        assert_eq!(extract(&l, &ext, 1), Visible::Expired); // 3 - 2
    }
}
