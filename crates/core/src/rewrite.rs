//! Rewriting matched values to their representatives.
//!
//! After the Match Values component has produced value groups for one set of
//! aligned columns, every occurrence of a member value in its column is
//! replaced by the group's representative.  Once all aligned sets are
//! rewritten, the tables are value-consistent and the ordinary equi-join Full
//! Disjunction integrates them (paper §2.2, last paragraph).

use std::borrow::Borrow;
use std::collections::HashMap;

use lake_table::{ColumnRef, Table, TableResult, Value};

use crate::value_match::ValueGroup;

/// Builds, for every source column of an aligned set, the substitution map
/// `old value → representative`.
///
/// `aligned_columns[i]` is the source column that position `i` of the value
/// groups refers to (the same order that was used to extract the column
/// values before matching).
pub fn build_substitutions(
    aligned_columns: &[ColumnRef],
    groups: &[ValueGroup],
) -> HashMap<ColumnRef, HashMap<Value, Value>> {
    let mut substitutions: HashMap<ColumnRef, HashMap<Value, Value>> = HashMap::new();
    for group in groups {
        // Empty or singleton groups have no cross-column match to rewrite.
        if group.len() < 2 {
            continue;
        }
        for (position, value) in &group.members {
            if *value == group.representative {
                continue;
            }
            let column = aligned_columns[*position];
            substitutions
                .entry(column)
                .or_default()
                .insert(value.clone(), group.representative.clone());
        }
    }
    substitutions
}

/// Applies substitution maps to (clones of) the input tables and returns the
/// rewritten tables together with the number of rewritten cells.
pub fn apply_substitutions(
    tables: &[Table],
    substitutions: &HashMap<ColumnRef, HashMap<Value, Value>>,
) -> TableResult<(Vec<Table>, usize)> {
    let (mut rewritten, mut replaced) = (Vec::new(), Vec::new());
    refresh_rewritten(tables, substitutions, &[], &mut rewritten, &mut replaced)?;
    Ok((rewritten, replaced.iter().sum()))
}

/// Brings `rewritten` — the rewritten tables of an earlier call with, beside
/// each, its count of rewritten cells — up to `tables`: a table that is new
/// (beyond `rewritten`) or marked in `stale` is cloned from its base table
/// and rewritten under `substitutions`; every other one is kept as it is.
pub(crate) fn refresh_rewritten<'a, T: Borrow<Table>>(
    tables: &[T],
    substitutions: impl IntoIterator<Item = (&'a ColumnRef, &'a HashMap<Value, Value>)>,
    stale: &[bool],
    rewritten: &mut Vec<Table>,
    replaced: &mut Vec<usize>,
) -> TableResult<()> {
    let kept = rewritten.len();
    let redo = |table: usize| table >= kept || stale[table];
    for (index, table) in tables.iter().enumerate().filter(|(index, _)| redo(*index)) {
        if index < kept {
            rewritten[index] = table.borrow().clone();
            replaced[index] = 0;
        } else {
            rewritten.push(table.borrow().clone());
            replaced.push(0);
        }
    }
    for (column, mapping) in substitutions {
        if redo(column.table) {
            replaced[column.table] +=
                rewritten[column.table].substitute_column(column.column, mapping)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_table::TableBuilder;

    fn groups() -> Vec<ValueGroup> {
        vec![
            ValueGroup {
                members: vec![(0, Value::text("Berlinn")), (1, Value::text("Berlin"))],
                representative: Value::text("Berlin"),
            },
            ValueGroup {
                members: vec![(0, Value::text("Toronto"))],
                representative: Value::text("Toronto"),
            },
        ]
    }

    #[test]
    fn substitutions_cover_only_non_representative_members() {
        let aligned = vec![ColumnRef::new(0, 0), ColumnRef::new(1, 0)];
        let subs = build_substitutions(&aligned, &groups());
        // Only T1's "Berlinn" needs rewriting; the singleton and the
        // representative itself do not.
        assert_eq!(subs.len(), 1);
        let t1_map = &subs[&ColumnRef::new(0, 0)];
        assert_eq!(t1_map[&Value::text("Berlinn")], Value::text("Berlin"));
    }

    #[test]
    fn apply_rewrites_cells_and_counts_them() {
        let tables = vec![
            TableBuilder::new("T1", ["City"]).row(["Berlinn"]).row(["Toronto"]).build().unwrap(),
            TableBuilder::new("T2", ["City"]).row(["Berlin"]).build().unwrap(),
        ];
        let aligned = vec![ColumnRef::new(0, 0), ColumnRef::new(1, 0)];
        let subs = build_substitutions(&aligned, &groups());
        let (rewritten, replaced) = apply_substitutions(&tables, &subs).unwrap();
        assert_eq!(replaced, 1);
        assert_eq!(rewritten[0].cell(0, 0), Some(&Value::text("Berlin")));
        assert_eq!(rewritten[0].cell(1, 0), Some(&Value::text("Toronto")));
        // Originals untouched.
        assert_eq!(tables[0].cell(0, 0), Some(&Value::text("Berlinn")));
    }

    #[test]
    fn empty_groups_produce_no_substitutions() {
        let aligned = vec![ColumnRef::new(0, 0)];
        assert!(build_substitutions(&aligned, &[]).is_empty());
    }
}
