//! Composite index keys with a total order.

use std::cmp::Ordering;
use wh_types::Value;

/// A composite key: the values of the indexed columns, in index-column order.
///
/// Ordering and equality come from [`Value::grouping_cmp`], which is total
/// (NULLs sort first, numeric types compare numerically), so keys are safe in
/// both hash maps and B-trees.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IndexKey(pub Vec<Value>);

impl IndexKey {
    /// Build a key by projecting `columns` out of `row`.
    pub fn project(row: &[Value], columns: &[usize]) -> Self {
        IndexKey(columns.iter().map(|&i| row[i].clone()).collect())
    }

    /// The key's values.
    pub fn values(&self) -> &[Value] {
        &self.0
    }
}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> Ordering {
        for (a, b) in self.0.iter().zip(&other.0) {
            match a.grouping_cmp(b) {
                Ordering::Equal => continue,
                non_eq => return non_eq,
            }
        }
        self.0.len().cmp(&other.0.len())
    }
}

/// A key is looked up by its values: `Hash` and `Eq` on the `Vec` are the
/// slice's.
impl std::borrow::Borrow<[Value]> for IndexKey {
    fn borrow(&self) -> &[Value] {
        &self.0
    }
}

impl From<Vec<Value>> for IndexKey {
    fn from(v: Vec<Value>) -> Self {
        IndexKey(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn project_extracts_columns() {
        let row = vec![Value::from("a"), Value::from(1), Value::from("b")];
        let k = IndexKey::project(&row, &[2, 0]);
        assert_eq!(k.values(), &[Value::from("b"), Value::from("a")]);
    }

    #[test]
    fn lexicographic_order() {
        let a = IndexKey(vec![Value::from("CA"), Value::from(1)]);
        let b = IndexKey(vec![Value::from("CA"), Value::from(2)]);
        let c = IndexKey(vec![Value::from("NY"), Value::from(0)]);
        assert!(a < b && b < c);
    }

    #[test]
    fn shorter_prefix_sorts_first() {
        let a = IndexKey(vec![Value::from(1)]);
        let b = IndexKey(vec![Value::from(1), Value::from(1)]);
        assert!(a < b);
    }

    #[test]
    fn nulls_sort_first_and_equal() {
        let a = IndexKey(vec![Value::Null]);
        let b = IndexKey(vec![Value::from(0)]);
        assert!(a < b);
        assert_eq!(a, IndexKey(vec![Value::Null]));
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(
            IndexKey(vec![Value::Int(2)]),
            IndexKey(vec![Value::Float(2.0)])
        );
    }
}
