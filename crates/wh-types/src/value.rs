//! Dynamically-typed column values.

use crate::date::Date;
use crate::error::{TypeError, TypeResult};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single column value.
///
/// `Null` follows SQL three-valued-logic conventions where it matters to the
/// algorithms in this system: comparisons involving `Null` return `None`
/// (unknown) from [`Value::sql_cmp`], and aggregates skip `Null` inputs. The
/// paper relies on `NULL` pre-update attributes to mark freshly inserted
/// tuples (Table 1 / Figure 4), so faithful null handling is load-bearing.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer (also used for 32-bit and 8-bit columns).
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Character string. `Arc<str>` rather than `String`: scans and the
    /// SQL executor clone string values far more often than they create
    /// them (projection, group keys, query results), and warehouse string
    /// columns are low-cardinality — a clone must be a refcount bump, not
    /// an allocation. Construction goes through `From`, so call sites are
    /// agnostic.
    Str(Arc<str>),
    /// Calendar date.
    Date(Date),
    /// Boolean (used by expression evaluation; not a storable column type).
    Bool(bool),
}

impl Value {
    /// Human-readable type name, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::Int(_) => "INT",
            Value::Float(_) => "FLOAT",
            Value::Str(_) => "STRING",
            Value::Date(_) => "DATE",
            Value::Bool(_) => "BOOL",
        }
    }

    /// True iff this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extract an integer, coercing from float when lossless is not required.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Extract a float, coercing integers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Extract a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extract a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Extract a date.
    pub fn as_date(&self) -> Option<Date> {
        match self {
            Value::Date(d) => Some(*d),
            _ => None,
        }
    }

    /// SQL comparison: `None` when either side is NULL (unknown), error on
    /// incomparable types. Int/Float compare numerically.
    pub fn sql_cmp(&self, other: &Value) -> TypeResult<Option<Ordering>> {
        use Value::*;
        let ord = match (self, other) {
            (Null, _) | (_, Null) => return Ok(None),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b).unwrap_or(Ordering::Equal),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Equal),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            _ => {
                return Err(TypeError::Mismatch {
                    op: "compare",
                    left: self.type_name().into(),
                    right: other.type_name().into(),
                })
            }
        };
        Ok(Some(ord))
    }

    /// Total order used for GROUP BY / ORDER BY / index keys: NULLs sort
    /// first, then by type, then by value. Unlike [`Value::sql_cmp`] this is
    /// total and never errors, which grouping requires. Floats follow
    /// `f64::total_cmp` with −0.0 equal to 0.0 (NaN above every number, or
    /// below if negative), and an Int compares against a Float exactly.
    pub fn grouping_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Str(_) => 3,
                Date(_) => 4,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            // Adding 0.0 turns −0.0 into 0.0 and leaves every other value.
            (Float(a), Float(b)) => (a + 0.0).total_cmp(&(b + 0.0)),
            (Int(a), Float(b)) => int_float_cmp(*a, *b),
            (Float(a), Int(b)) => int_float_cmp(*b, *a).reverse(),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            _ => rank(self).cmp(&rank(other)),
        }
    }

    fn numeric_binop(
        &self,
        other: &Value,
        op: &'static str,
        fi: impl Fn(i64, i64) -> TypeResult<i64>,
        ff: impl Fn(f64, f64) -> TypeResult<f64>,
    ) -> TypeResult<Value> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => Ok(Null),
            (Int(a), Int(b)) => Ok(Int(fi(*a, *b)?)),
            (Float(a), Float(b)) => Ok(Float(ff(*a, *b)?)),
            (Int(a), Float(b)) => Ok(Float(ff(*a as f64, *b)?)),
            (Float(a), Int(b)) => Ok(Float(ff(*a, *b as f64)?)),
            _ => Err(TypeError::Mismatch {
                op,
                left: self.type_name().into(),
                right: other.type_name().into(),
            }),
        }
    }

    /// SQL `+`. NULL-propagating.
    pub fn add(&self, other: &Value) -> TypeResult<Value> {
        self.numeric_binop(other, "add", |a, b| Ok(a.wrapping_add(b)), |a, b| Ok(a + b))
    }

    /// SQL `-`. NULL-propagating.
    pub fn sub(&self, other: &Value) -> TypeResult<Value> {
        self.numeric_binop(other, "sub", |a, b| Ok(a.wrapping_sub(b)), |a, b| Ok(a - b))
    }

    /// SQL `*`. NULL-propagating.
    pub fn mul(&self, other: &Value) -> TypeResult<Value> {
        self.numeric_binop(other, "mul", |a, b| Ok(a.wrapping_mul(b)), |a, b| Ok(a * b))
    }

    /// SQL `/`. NULL-propagating; integer division by zero is an error.
    pub fn div(&self, other: &Value) -> TypeResult<Value> {
        self.numeric_binop(
            other,
            "div",
            |a, b| {
                if b == 0 {
                    Err(TypeError::Arithmetic("division by zero"))
                } else {
                    Ok(a / b)
                }
            },
            |a, b| {
                if b == 0.0 {
                    Err(TypeError::Arithmetic("division by zero"))
                } else {
                    Ok(a / b)
                }
            },
        )
    }
}

/// `i` against `f`, exactly: neither is rounded to the other's type. A NaN
/// sits where `total_cmp` puts it, beyond every number.
fn int_float_cmp(i: i64, f: f64) -> Ordering {
    if f.is_nan() {
        return 0f64.total_cmp(&f);
    }
    // `as i128` truncates `f` exactly (saturating far beyond every i64);
    // the fraction breaks a tie.
    i128::from(i)
        .cmp(&(f as i128))
        .then(f.trunc().total_cmp(&f))
}

/// Equality matching [`Value::grouping_cmp`]: total, NULL == NULL, numeric
/// cross-type equality. This is the equality used for group keys and unique
/// keys, not SQL predicate equality (which treats NULL as unknown).
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.grouping_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Ints and floats must hash identically when numerically equal,
            // because grouping_cmp treats Int(2) == Float(2.0). An Int equal
            // to a Float is exactly representable, so `as f64` is that
            // Float; the zeros hash as one.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                (f + 0.0).to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Date(d) => {
                4u8.hash(state);
                d.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "{d}"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v))
    }
}

impl From<Arc<str>> for Value {
    fn from(v: Arc<str>) -> Self {
        Value::Str(v)
    }
}

impl From<Date> for Value {
    fn from(v: Date) -> Self {
        Value::Date(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)).unwrap(), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null).unwrap(), None);
    }

    #[test]
    fn sql_cmp_numeric_coercion() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)).unwrap(),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(1.5).sql_cmp(&Value::Int(2)).unwrap(),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn sql_cmp_type_mismatch_errors() {
        assert!(Value::Int(1).sql_cmp(&Value::Str("a".into())).is_err());
        assert!(Value::Date(Date::ymd(1996, 1, 1))
            .sql_cmp(&Value::Int(1))
            .is_err());
    }

    #[test]
    fn grouping_cmp_total_order() {
        assert_eq!(Value::Null.grouping_cmp(&Value::Null), Ordering::Equal);
        assert_eq!(Value::Null.grouping_cmp(&Value::Int(0)), Ordering::Less);
        assert_eq!(
            Value::Str("a".into()).grouping_cmp(&Value::Int(9)),
            Ordering::Greater
        );
    }

    fn h(v: &Value) -> u64 {
        let mut s = std::collections::hash_map::DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn grouping_eq_and_hash_agree_across_numeric_types() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_eq!(h(&Value::Int(2)), h(&Value::Float(2.0)));
    }

    #[test]
    fn the_zeros_are_one_value_and_hash_alike() {
        let zeros = [Value::Float(-0.0), Value::Float(0.0), Value::Int(0)];
        for a in &zeros {
            for b in &zeros {
                assert_eq!(a, b);
                assert_eq!(h(a), h(b), "{a:?} and {b:?} hash apart");
            }
        }
    }

    #[test]
    fn int_against_float_is_exact_and_transitive() {
        let two_53 = 1i64 << 53;
        let (above, float, at) = (
            Value::Int(two_53 + 1),
            Value::Float(two_53 as f64),
            Value::Int(two_53),
        );
        assert_eq!(float, at);
        assert_eq!(above.grouping_cmp(&float), Ordering::Greater);
        assert_eq!(float.grouping_cmp(&above), Ordering::Less);
        assert_eq!(above.grouping_cmp(&at), Ordering::Greater);
        // Fractions, the i64 limits and NaN.
        assert_eq!(
            Value::Int(2).grouping_cmp(&Value::Float(2.5)),
            Ordering::Less
        );
        assert_eq!(
            Value::Int(-2).grouping_cmp(&Value::Float(-2.5)),
            Ordering::Greater
        );
        assert_eq!(Value::Int(i64::MIN), Value::Float(i64::MIN as f64));
        let top = Value::Float(9_223_372_036_854_775_808.0);
        assert_eq!(Value::Int(i64::MAX).grouping_cmp(&top), Ordering::Less);
        let nan = Value::Float(f64::NAN);
        assert_eq!(
            Value::Float(f64::INFINITY).grouping_cmp(&nan),
            Ordering::Less
        );
        assert_eq!(Value::Int(i64::MAX).grouping_cmp(&nan), Ordering::Less);
        assert_eq!(
            Value::Int(i64::MIN).grouping_cmp(&Value::Float(-f64::NAN)),
            Ordering::Greater
        );
        assert_eq!(nan, Value::Float(f64::NAN));
        assert_ne!(nan, Value::Float(1.0));
    }

    #[test]
    fn arithmetic() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)).unwrap(), Value::Int(5));
        assert_eq!(
            Value::Int(2).add(&Value::Float(0.5)).unwrap(),
            Value::Float(2.5)
        );
        assert_eq!(Value::Int(7).sub(&Value::Int(2)).unwrap(), Value::Int(5));
        assert_eq!(Value::Int(4).mul(&Value::Int(3)).unwrap(), Value::Int(12));
        assert_eq!(Value::Int(9).div(&Value::Int(2)).unwrap(), Value::Int(4));
        assert!(Value::Int(1).div(&Value::Int(0)).is_err());
        assert_eq!(Value::Null.add(&Value::Int(1)).unwrap(), Value::Null);
        assert!(Value::Str("x".into()).add(&Value::Int(1)).is_err());
    }

    #[test]
    fn display_rendering() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Str("San Jose".into()).to_string(), "San Jose");
        assert_eq!(Value::Bool(true).to_string(), "TRUE");
    }
}
