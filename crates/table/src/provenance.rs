//! Tuple provenance.
//!
//! Every base tuple is identified by a [`TupleId`] — the owning table's name
//! plus the tuple's position in it.  Integrated (Full Disjunction) tuples
//! carry a [`ProvenanceSet`]: the set of base tuples merged to produce them.
//! This is the `TIDs` column of the paper's Figure 1 and is what the
//! downstream entity-matching experiment evaluates against.

use std::collections::BTreeSet;
use std::fmt;

/// Identity of a base tuple: `(table name, row index)`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TupleId {
    /// Name of the source table.
    pub table: String,
    /// 0-based row index within the source table.
    pub row: usize,
}

impl TupleId {
    /// Creates a tuple id.
    pub fn new(table: impl Into<String>, row: usize) -> Self {
        TupleId { table: table.into(), row }
    }
}

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.table, self.row)
    }
}

/// A sorted, duplicate-free set of base tuple ids.
///
/// Ordered so that provenance renders deterministically and can be used as a
/// dedup key for integrated tuples.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProvenanceSet {
    ids: BTreeSet<TupleId>,
}

impl ProvenanceSet {
    /// Empty provenance (used for padding tuples before they are attributed).
    pub fn empty() -> Self {
        ProvenanceSet::default()
    }

    /// Provenance of a single base tuple.
    pub fn single(id: TupleId) -> Self {
        let mut ids = BTreeSet::new();
        ids.insert(id);
        ProvenanceSet { ids }
    }

    /// Number of contributing base tuples.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` if no base tuple contributed.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether `id` contributed to this tuple.
    pub fn contains(&self, id: &TupleId) -> bool {
        self.ids.contains(id)
    }

    /// Whether every id of `other` is contained in `self`.
    pub fn is_superset(&self, other: &ProvenanceSet) -> bool {
        other.ids.is_subset(&self.ids)
    }

    /// Adds a contributing tuple.
    pub fn insert(&mut self, id: TupleId) {
        self.ids.insert(id);
    }

    /// Union of two provenance sets (the provenance of a merged tuple).
    pub fn union(&self, other: &ProvenanceSet) -> ProvenanceSet {
        ProvenanceSet { ids: self.ids.union(&other.ids).cloned().collect() }
    }

    /// Iterates the contributing tuple ids in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &TupleId> {
        self.ids.iter()
    }

    /// Tables that contributed at least one tuple.
    pub fn tables(&self) -> BTreeSet<&str> {
        self.ids.iter().map(|id| id.table.as_str()).collect()
    }
}

impl fmt::Display for ProvenanceSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, id) in self.ids.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", id)?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<TupleId> for ProvenanceSet {
    fn from_iter<T: IntoIterator<Item = TupleId>>(iter: T) -> Self {
        ProvenanceSet { ids: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_and_union() {
        let a = ProvenanceSet::single(TupleId::new("T1", 0));
        let b = ProvenanceSet::single(TupleId::new("T2", 4));
        let u = a.union(&b);
        assert_eq!(u.len(), 2);
        assert!(u.contains(&TupleId::new("T1", 0)));
        assert!(u.contains(&TupleId::new("T2", 4)));
        assert!(u.is_superset(&a));
        assert!(u.is_superset(&b));
        assert!(!a.is_superset(&u));
    }

    #[test]
    fn union_deduplicates() {
        let a = ProvenanceSet::single(TupleId::new("T1", 0));
        let u = a.union(&a);
        assert_eq!(u.len(), 1);
    }

    #[test]
    fn display_is_sorted_and_braced() {
        let p: ProvenanceSet = [TupleId::new("T2", 1), TupleId::new("T1", 3)].into_iter().collect();
        assert_eq!(p.to_string(), "{T1#3, T2#1}");
    }

    #[test]
    fn tables_lists_contributing_sources() {
        let p: ProvenanceSet =
            [TupleId::new("T1", 0), TupleId::new("T1", 9), TupleId::new("T3", 2)]
                .into_iter()
                .collect();
        let tables: Vec<&str> = p.tables().into_iter().collect();
        assert_eq!(tables, vec!["T1", "T3"]);
    }

    #[test]
    fn empty_provenance() {
        let p = ProvenanceSet::empty();
        assert!(p.is_empty());
        assert_eq!(p.to_string(), "{}");
    }
}
