//! # lake-schema-match
//!
//! Column alignment (holistic schema matching) for integration sets.
//!
//! Before values can be matched and tuples integrated, the system has to
//! decide which columns of the input tables line up (ALITE's first step).
//! Data lake tables cannot be aligned by headers alone — headers are missing
//! or unreliable — so columns are represented by *signatures* built from the
//! embeddings of their values and clustered holistically under the constraint
//! that a cluster never contains two columns of the same table.
//!
//! The output type, [`Alignment`], is exactly what the Fuzzy Full Disjunction
//! pipeline (`fuzzy-fd-core`) consumes; a header-equality baseline
//! ([`align_by_headers`]) is provided for benchmark data whose headers are
//! trustworthy by construction.

pub mod cluster;
pub mod signature;

pub use cluster::{align_columns, AlignmentOptions};
pub use signature::ColumnSignature;

use std::borrow::Borrow;

use lake_table::{ColumnRef, Table};

/// A set of aligned column groups.  Each group holds at most one column per
/// table; columns absent from every group are treated as unaligned
/// (they become singleton columns of the integrated schema).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Alignment {
    groups: Vec<Vec<ColumnRef>>,
}

impl Alignment {
    /// Creates an alignment from explicit groups.
    ///
    /// # Panics
    /// Panics if a group contains two columns of the same table.
    pub fn new(groups: Vec<Vec<ColumnRef>>) -> Self {
        for group in &groups {
            let mut tables: Vec<usize> = group.iter().map(|c| c.table).collect();
            tables.sort_unstable();
            let before = tables.len();
            tables.dedup();
            assert_eq!(before, tables.len(), "alignment group contains two columns of one table");
        }
        Alignment { groups }
    }

    /// The aligned groups.
    pub fn groups(&self) -> &[Vec<ColumnRef>] {
        &self.groups
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// `true` when no columns are aligned.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Groups that span more than one table (the ones that actually drive
    /// integration).
    pub fn multi_table_groups(&self) -> impl Iterator<Item = &Vec<ColumnRef>> {
        self.groups.iter().filter(|g| g.len() > 1)
    }
}

/// Aligns columns by case-insensitive header equality.  Reliable only when
/// headers are consistent (e.g. generated benchmarks, the Figure 1 example).
pub fn align_by_headers<T: Borrow<Table>>(tables: &[T]) -> Alignment {
    let mut groups: Vec<(String, Vec<ColumnRef>)> = Vec::new();
    for (t_idx, table) in tables.iter().enumerate() {
        for (c_idx, col) in table.borrow().schema().columns().iter().enumerate() {
            let key = col.name.trim().to_lowercase();
            if key.is_empty() {
                continue;
            }
            let slot = groups
                .iter_mut()
                .find(|(k, refs)| *k == key && !refs.iter().any(|r| r.table == t_idx));
            match slot {
                Some((_, refs)) => refs.push(ColumnRef::new(t_idx, c_idx)),
                None => groups.push((key, vec![ColumnRef::new(t_idx, c_idx)])),
            }
        }
    }
    Alignment::new(groups.into_iter().map(|(_, refs)| refs).filter(|refs| refs.len() > 1).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_table::TableBuilder;

    #[test]
    fn header_alignment_groups_matching_names() {
        let tables = vec![
            TableBuilder::new("T1", ["City", "Country"]).row(["a", "b"]).build().unwrap(),
            TableBuilder::new("T2", ["country", "city", "Rate"])
                .row(["c", "d", "e"])
                .build()
                .unwrap(),
        ];
        let alignment = align_by_headers(&tables);
        assert_eq!(alignment.len(), 2);
        assert_eq!(alignment.multi_table_groups().count(), 2);
    }

    #[test]
    fn unique_headers_produce_no_groups() {
        let tables = vec![
            TableBuilder::new("T1", ["a"]).row(["1"]).build().unwrap(),
            TableBuilder::new("T2", ["b"]).row(["2"]).build().unwrap(),
        ];
        assert!(align_by_headers(&tables).is_empty());
    }

    #[test]
    #[should_panic(expected = "two columns of one table")]
    fn invalid_group_rejected() {
        Alignment::new(vec![vec![ColumnRef::new(0, 0), ColumnRef::new(0, 1)]]);
    }
}
