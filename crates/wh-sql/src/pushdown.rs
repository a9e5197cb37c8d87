//! WHERE-clause pushdown analysis for batch scan kernels.
//!
//! The batched reader pipeline (see `wh_vnl::scan::BatchScanner`) classifies
//! whole pages before any row is decoded. A WHERE conjunct of the shape
//! `column <cmp> literal` over a fixed-width column can be decided on the
//! column's *stored image* in that same pass — rows that fail it are never
//! decoded and never reach the executor. This module is the planning half:
//! split a predicate into the pushable conjuncts and the residual
//! expression the executor still has to evaluate per row.
//!
//! Eligibility is deliberately narrow:
//!
//! * Only top-level `AND` conjuncts split — anything under `OR`/`NOT`
//!   stays residual.
//! * `UInt8`, `Int32`, `Int64` and `Date` columns compare against a literal
//!   of matching type (`Int`, or `Date`) on the gathered `i64` image, which
//!   all four widen to losslessly and order-preservingly (`Date` packs as
//!   decimal `yyyymmdd`, monotone in the calendar). A gathered NULL is the
//!   sentinel `i64::MIN`; an `Int64` column can also *store* `i64::MIN`,
//!   so the kernel settles a sentinel image by the record's own null bit
//!   rather than by the image alone — one NULL channel, the bitmap.
//! * `=`/`<>` between a `Char(n)` column and a string literal compares the
//!   stored, space-padded bytes with the literal padded the same way. The
//!   codec trims trailing spaces on decode, so that byte test agrees with
//!   the executor's string test only when the literal fits in `n` bytes and
//!   has no trailing space of its own; any other `Char` conjunct (and every
//!   ordering on `Char`) stays residual.
//! * Parameters are not pushable — they are bound after planning.
//!
//! Three-valued logic is preserved: a pushed conjunct keeps a row iff the
//! column is non-NULL and the comparison holds, which is exactly "the
//! conjunct evaluates to TRUE" — and an `AND` of conjuncts is TRUE iff
//! every conjunct is, so filtering on the pushed set and the residual
//! independently reproduces the original predicate's keep-set.

use crate::ast::{BinOp, Expr};
use wh_types::{DataType, Schema, Value};

/// Comparison operator of a pushable conjunct, in column-on-the-left form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterOp {
    Lt,
    LtEq,
    Gt,
    GtEq,
    Eq,
    NotEq,
}

impl FilterOp {
    /// Evaluate `value <op> literal` on gathered images.
    pub fn eval(self, value: i64, literal: i64) -> bool {
        match self {
            FilterOp::Lt => value < literal,
            FilterOp::LtEq => value <= literal,
            FilterOp::Gt => value > literal,
            FilterOp::GtEq => value >= literal,
            FilterOp::Eq => value == literal,
            FilterOp::NotEq => value != literal,
        }
    }

    /// The operator with its operands swapped (`lit <op> col` →
    /// `col <mirror> lit`).
    fn mirrored(self) -> FilterOp {
        match self {
            FilterOp::Lt => FilterOp::Gt,
            FilterOp::LtEq => FilterOp::GtEq,
            FilterOp::Gt => FilterOp::Lt,
            FilterOp::GtEq => FilterOp::LtEq,
            FilterOp::Eq => FilterOp::Eq,
            FilterOp::NotEq => FilterOp::NotEq,
        }
    }
}

/// The literal of a pushed conjunct, already in the column's stored-image
/// domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterLiteral {
    /// Gathered `i64` image (`Date` → packed `yyyymmdd`).
    Int(i64),
    /// A `Char(n)` literal space-padded to `n` bytes; the op is `=`/`<>`.
    Padded(Box<[u8]>),
}

/// One pushable conjunct: `schema column <op> literal`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanFilter {
    /// Base-schema column index.
    pub column: usize,
    pub op: FilterOp,
    pub literal: FilterLiteral,
}

/// Split `pred` into pushable scan filters and the residual predicate the
/// executor must still evaluate (`None` when everything pushed). The row
/// set selected by "all filters TRUE ∧ residual TRUE" is identical to the
/// one selected by `pred` being TRUE.
pub fn extract_scan_filters(pred: &Expr, schema: &Schema) -> (Vec<ScanFilter>, Option<Expr>) {
    let mut filters = Vec::new();
    let mut residual: Vec<Expr> = Vec::new();
    split(pred, schema, &mut filters, &mut residual);
    let residual = residual.into_iter().reduce(|acc, e| Expr::Binary {
        op: BinOp::And,
        left: Box::new(acc),
        right: Box::new(e),
    });
    (filters, residual)
}

fn split(e: &Expr, schema: &Schema, filters: &mut Vec<ScanFilter>, residual: &mut Vec<Expr>) {
    if let Expr::Binary {
        op: BinOp::And,
        left,
        right,
    } = e
    {
        split(left, schema, filters, residual);
        split(right, schema, filters, residual);
        return;
    }
    match as_filter(e, schema) {
        Some(f) => filters.push(f),
        None => residual.push(e.clone()),
    }
}

fn as_filter(e: &Expr, schema: &Schema) -> Option<ScanFilter> {
    let Expr::Binary { op, left, right } = e else {
        return None;
    };
    let op = match op {
        BinOp::Lt => FilterOp::Lt,
        BinOp::LtEq => FilterOp::LtEq,
        BinOp::Gt => FilterOp::Gt,
        BinOp::GtEq => FilterOp::GtEq,
        BinOp::Eq => FilterOp::Eq,
        BinOp::NotEq => FilterOp::NotEq,
        _ => return None,
    };
    match (left.as_ref(), right.as_ref()) {
        (Expr::Column(name), Expr::Literal(lit)) => bind(name, op, lit, schema),
        (Expr::Literal(lit), Expr::Column(name)) => bind(name, op.mirrored(), lit, schema),
        _ => None,
    }
}

/// Resolve the column and translate the literal into the stored-image
/// domain; `None` when the column/literal pair is not eligible.
fn bind(name: &str, op: FilterOp, lit: &Value, schema: &Schema) -> Option<ScanFilter> {
    let column = schema.column_index(name).ok()?;
    let literal = match (schema.columns()[column].ty, lit) {
        (DataType::UInt8 | DataType::Int32 | DataType::Int64, Value::Int(v)) => {
            FilterLiteral::Int(*v)
        }
        (DataType::Date, Value::Date(d)) => FilterLiteral::Int(i64::from(d.to_packed())),
        (DataType::Char(n), Value::Str(s))
            if matches!(op, FilterOp::Eq | FilterOp::NotEq)
                && s.len() <= n
                && !s.ends_with(' ') =>
        {
            let mut padded = vec![b' '; n];
            padded[..s.len()].copy_from_slice(s.as_bytes());
            FilterLiteral::Padded(padded.into())
        }
        _ => return None,
    };
    Some(ScanFilter {
        column,
        op,
        literal,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expression;
    use wh_types::{Column, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("city", DataType::Char(8)),
            Column::new("day", DataType::Date),
            Column::new("sales", DataType::Int32),
            Column::new("big", DataType::Int64),
        ])
        .unwrap()
    }

    fn extract(pred: &str) -> (Vec<ScanFilter>, Option<Expr>) {
        extract_scan_filters(&parse_expression(pred).unwrap(), &schema())
    }

    #[test]
    fn simple_comparison_pushes_fully() {
        let (filters, residual) = extract("sales >= 5000");
        assert_eq!(
            filters,
            vec![ScanFilter {
                column: 2,
                op: FilterOp::GtEq,
                literal: FilterLiteral::Int(5000)
            }]
        );
        assert!(residual.is_none());
    }

    #[test]
    fn reversed_operands_mirror_the_operator() {
        let (filters, residual) = extract("5000 < sales");
        assert_eq!(
            filters,
            vec![ScanFilter {
                column: 2,
                op: FilterOp::Gt,
                literal: FilterLiteral::Int(5000)
            }]
        );
        assert!(residual.is_none());
    }

    #[test]
    fn and_splits_mixed_conjuncts() {
        let (filters, residual) = extract("sales >= 5000 AND city < 'SF' AND sales < 9000");
        assert_eq!(filters.len(), 2);
        assert_eq!(filters[0].op, FilterOp::GtEq);
        assert_eq!(filters[1].op, FilterOp::Lt);
        // An ordering on Char stays residual.
        assert_eq!(residual, Some(parse_expression("city < 'SF'").unwrap()));
    }

    #[test]
    fn or_and_not_are_not_split() {
        let (filters, residual) = extract("sales >= 5000 OR sales < 100");
        assert!(filters.is_empty());
        assert!(residual.is_some());
        let (filters, _) = extract("NOT sales >= 5000");
        assert!(filters.is_empty());
    }

    #[test]
    fn int64_pushes_and_params_stay_residual() {
        // Int64 pushes: the kernel settles a gathered i64::MIN by the null
        // bit, so a stored i64::MIN is not mistaken for NULL.
        let (filters, residual) = extract("big = 7 AND big > -9223372036854775807");
        assert_eq!(
            filters,
            vec![
                ScanFilter {
                    column: 3,
                    op: FilterOp::Eq,
                    literal: FilterLiteral::Int(7)
                },
                ScanFilter {
                    column: 3,
                    op: FilterOp::Gt,
                    literal: FilterLiteral::Int(-i64::MAX)
                }
            ]
        );
        assert!(residual.is_none());
        let (filters, residual) = extract("sales >= :cutoff AND big <= :cap");
        assert!(filters.is_empty());
        assert_eq!(
            residual,
            Some(parse_expression("sales >= :cutoff AND big <= :cap").unwrap())
        );
    }

    #[test]
    fn char_equality_pushes_as_padded_bytes() {
        let padded = |s: &str| FilterLiteral::Padded(format!("{s:<8}").into_bytes().into());
        let (filters, residual) = extract("city = 'SF' AND 'golf eq' <> city AND city = ''");
        assert_eq!(
            filters,
            vec![
                ScanFilter {
                    column: 0,
                    op: FilterOp::Eq,
                    literal: padded("SF")
                },
                ScanFilter {
                    column: 0,
                    op: FilterOp::NotEq,
                    literal: padded("golf eq")
                },
                ScanFilter {
                    column: 0,
                    op: FilterOp::Eq,
                    literal: padded("")
                }
            ]
        );
        assert!(residual.is_none());
        // Exactly the column width still fits.
        let (filters, _) = extract("city = 'abcdefgh'");
        assert_eq!(filters[0].literal, padded("abcdefgh"));
    }

    #[test]
    fn char_literals_the_padded_test_would_misjudge_stay_residual() {
        // A trailing space: the executor compares 'SF ' with the trimmed
        // stored 'SF' (unequal), the padded bytes would call them equal.
        // An overlong literal: no stored value can equal it. An ordering:
        // padding and byte order disagree with string order.
        for pred in [
            "city = 'SF '",
            "city <> ' '",
            "city = 'abcdefghi'",
            "city < 'SF'",
            "city >= 'SF'",
        ] {
            let (filters, residual) = extract(pred);
            assert!(filters.is_empty(), "{pred} pushed");
            assert_eq!(residual, Some(parse_expression(pred).unwrap()), "{pred}");
        }
    }

    #[test]
    fn unknown_column_or_type_mismatch_stays_residual() {
        let (filters, residual) = extract("zzz = 1");
        assert!(filters.is_empty());
        assert!(residual.is_some());
        let (filters, _) = extract("city = 1");
        assert!(filters.is_empty());
    }

    #[test]
    fn residual_preserves_and_semantics() {
        let (filters, residual) = extract("city < 'SF' AND day IS NULL");
        assert!(filters.is_empty());
        assert_eq!(
            residual,
            Some(parse_expression("city < 'SF' AND day IS NULL").unwrap())
        );
    }
}
