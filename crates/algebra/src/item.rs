//! The XQuery item model.
//!
//! The engine manipulates sequences of *items*: nodes or atomic values.
//! Atomic typing is deliberately lightweight — annotation workloads use
//! untyped documents, so node atomization yields untyped values that the
//! comparison rules coerce per XPath general-comparison conventions.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use standoff_xml::{Corrupt, NodeRef, Store};

/// One XQuery item.
#[derive(Clone, Debug)]
pub enum Item {
    /// A node reference into the engine's document store.
    Node(NodeRef),
    /// `xs:integer` — also the paper's default region position type.
    Integer(i64),
    /// `xs:double` (covers decimals; the engine does not track the
    /// distinction, which the workloads never observe).
    Double(f64),
    /// `xs:string`; reference-counted so sequence copies stay cheap
    /// (atomically, so results can cross executor worker threads).
    String(Arc<str>),
    /// `xs:boolean`.
    Boolean(bool),
    /// Untyped atomic (the result of atomizing a node).
    Untyped(Arc<str>),
}

impl Item {
    pub fn str(s: impl AsRef<str>) -> Item {
        Item::String(Arc::from(s.as_ref()))
    }

    pub fn untyped(s: impl AsRef<str>) -> Item {
        Item::Untyped(Arc::from(s.as_ref()))
    }

    #[inline]
    pub fn as_node(&self) -> Option<NodeRef> {
        match self {
            Item::Node(n) => Some(*n),
            _ => None,
        }
    }

    /// Atomize: nodes become untyped atomics carrying their string value;
    /// atomic values pass through. A node's string value is read from its
    /// document's tree columns or attribute table, either of which can
    /// fail its verification.
    pub fn atomize(&self, store: &Store) -> Result<Item, Corrupt> {
        Ok(match self {
            Item::Node(n) => Item::Untyped(Arc::from(store.string_value(*n)?.as_str())),
            other => other.clone(),
        })
    }

    /// String value per `fn:string`.
    pub fn string_value(&self, store: &Store) -> Result<String, Corrupt> {
        Ok(match self {
            Item::Node(n) => store.string_value(*n)?,
            Item::Integer(i) => i.to_string(),
            Item::Double(d) => format_double(*d),
            Item::String(s) | Item::Untyped(s) => s.to_string(),
            Item::Boolean(b) => b.to_string(),
        })
    }

    /// Numeric value if this item is a number or a string/untyped that
    /// parses as one.
    pub fn as_number(&self, store: &Store) -> Result<Option<f64>, Corrupt> {
        Ok(match self {
            Item::Integer(i) => Some(*i as f64),
            Item::Double(d) => Some(*d),
            Item::String(s) | Item::Untyped(s) => s.trim().parse().ok(),
            Item::Boolean(b) => Some(if *b { 1.0 } else { 0.0 }),
            Item::Node(_) => self.atomize(store)?.as_number(store)?,
        })
    }

    /// Effective boolean value of a *single* item (sequence-level EBV is in
    /// [`crate::LlSeq::effective_boolean`]).
    pub fn effective_boolean(&self) -> bool {
        match self {
            Item::Node(_) => true,
            Item::Boolean(b) => *b,
            Item::Integer(i) => *i != 0,
            Item::Double(d) => *d != 0.0 && !d.is_nan(),
            Item::String(s) | Item::Untyped(s) => !s.is_empty(),
        }
    }

    /// XPath *general comparison* between two atomized items, with the
    /// untyped coercion rules: untyped vs numeric compares numerically;
    /// untyped vs untyped compares numerically when **both** parse as
    /// numbers (the XPath 1.0 heritage that annotation queries like the
    /// paper's Figure 2 UDF — `@end <= @end` on integer positions — rely
    /// on), as strings otherwise.
    pub fn general_compare(
        &self,
        other: &Item,
        store: &Store,
    ) -> Result<Option<Ordering>, Corrupt> {
        let a = self.atomize(store)?;
        let b = other.atomize(store)?;
        use Item::*;
        Ok(match (&a, &b) {
            (Integer(x), Integer(y)) => Some(x.cmp(y)),
            (Boolean(x), Boolean(y)) => Some(x.cmp(y)),
            (Untyped(x), Untyped(y)) => {
                match (x.trim().parse::<f64>().ok(), y.trim().parse::<f64>().ok()) {
                    (Some(nx), Some(ny)) => nx.partial_cmp(&ny),
                    _ => Some(x.as_ref().cmp(y.as_ref())),
                }
            }
            (String(x), String(y)) | (String(x), Untyped(y)) | (Untyped(x), String(y)) => {
                Some(x.as_ref().cmp(y.as_ref()))
            }
            // Numeric if either side is numeric.
            (Integer(_) | Double(_), _) | (_, Integer(_) | Double(_)) => {
                match (a.as_number(store)?, b.as_number(store)?) {
                    (Some(x), Some(y)) => x.partial_cmp(&y),
                    _ => None,
                }
            }
            (Boolean(_), _) | (_, Boolean(_)) => {
                Some(a.effective_boolean().cmp(&b.effective_boolean()))
            }
            (Node(_), _) | (_, Node(_)) => unreachable!("atomize removed nodes"),
        })
    }
}

/// Format a double the way XQuery serializes it (integers print without a
/// decimal point).
pub fn format_double(d: f64) -> String {
    if d.fract() == 0.0 && d.abs() < 1e15 {
        format!("{}", d as i64)
    } else {
        format!("{d}")
    }
}

impl fmt::Display for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Item::Node(n) => write!(f, "node({:?}/{:?})", n.doc, n.id),
            Item::Integer(i) => write!(f, "{i}"),
            Item::Double(d) => write!(f, "{}", format_double(*d)),
            Item::String(s) | Item::Untyped(s) => write!(f, "{s}"),
            Item::Boolean(b) => write!(f, "{b}"),
        }
    }
}

impl PartialEq for Item {
    /// Structural equality (used by tests and dedup of atomic values) —
    /// *not* XQuery `eq`; use [`Item::general_compare`] for that.
    fn eq(&self, other: &Self) -> bool {
        use Item::*;
        match (self, other) {
            (Node(a), Node(b)) => a == b,
            (Integer(a), Integer(b)) => a == b,
            (Double(a), Double(b)) => a == b,
            (String(a), String(b)) | (Untyped(a), Untyped(b)) => a == b,
            (Boolean(a), Boolean(b)) => a == b,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_store() -> Store {
        Store::new()
    }

    #[test]
    fn effective_boolean_values() {
        assert!(!Item::Integer(0).effective_boolean());
        assert!(Item::Integer(-3).effective_boolean());
        assert!(!Item::Double(f64::NAN).effective_boolean());
        assert!(!Item::str("").effective_boolean());
        assert!(Item::str("false").effective_boolean()); // non-empty string!
        assert!(!Item::Boolean(false).effective_boolean());
    }

    #[test]
    fn general_compare_numeric_coercion() {
        let s = empty_store();
        // untyped "10" vs integer 9 compares numerically, not lexically
        assert_eq!(
            Item::untyped("10")
                .general_compare(&Item::Integer(9), &s)
                .unwrap(),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Item::untyped("10")
                .general_compare(&Item::untyped("9"), &s)
                .unwrap(),
            Some(Ordering::Greater) // both numeric-looking: numeric compare
        );
        assert_eq!(
            Item::untyped("abc")
                .general_compare(&Item::untyped("abd"), &s)
                .unwrap(),
            Some(Ordering::Less) // non-numeric untyped pair: string compare
        );
    }

    #[test]
    fn general_compare_strings() {
        let s = empty_store();
        assert_eq!(
            Item::str("abc")
                .general_compare(&Item::untyped("abc"), &s)
                .unwrap(),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn non_numeric_untyped_vs_number_is_incomparable() {
        let s = empty_store();
        assert_eq!(
            Item::untyped("hello")
                .general_compare(&Item::Integer(1), &s)
                .unwrap(),
            None
        );
    }

    #[test]
    fn node_atomization_uses_string_value() {
        let mut store = Store::new();
        store.load("d", "<a>42</a>").unwrap();
        let node = Item::Node(NodeRef::tree(store.by_uri("d").unwrap(), 1));
        assert_eq!(node.as_number(&store).unwrap(), Some(42.0));
        assert_eq!(
            node.general_compare(&Item::Integer(42), &store).unwrap(),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn double_formatting() {
        assert_eq!(format_double(3.0), "3");
        assert_eq!(format_double(3.5), "3.5");
        assert_eq!(
            Item::Double(12.0).string_value(&empty_store()).unwrap(),
            "12"
        );
    }
}
