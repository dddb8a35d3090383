//! The integrated (universal) schema and the source-column mapping.

use std::collections::BTreeMap;

use lake_table::{ColumnRef, Table};

/// Maps every column of every input table to a column of the integrated
/// schema.
///
/// An *aligned column set* (one per integrated column) contains at most one
/// column per table — columns of the same table never align with each other,
/// matching the assumption of the paper's §2.1.  Columns that align are given
/// one shared integrated column; columns that align with nothing get their
/// own integrated column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrationSchema {
    /// Names of the integrated columns (for display; derived from the first
    /// source column of each aligned set).
    column_names: Vec<String>,
    /// `mapping[table_idx][source_col_idx]` = integrated column index.
    mapping: Vec<Vec<usize>>,
}

impl IntegrationSchema {
    /// Builds an integration schema from explicit aligned column sets.
    ///
    /// `aligned_sets[k]` lists the source columns that map to integrated
    /// column `k`.  Source columns not mentioned in any set are appended as
    /// their own singleton integrated columns.
    ///
    /// # Panics
    /// Panics if a set contains two columns of the same table, if a column
    /// reference is out of range, or if a column appears in two sets.
    pub fn from_aligned_sets(tables: &[Table], aligned_sets: &[Vec<ColumnRef>]) -> Self {
        let mut mapping: Vec<Vec<Option<usize>>> =
            tables.iter().map(|t| vec![None; t.num_columns()]).collect();
        let mut column_names = Vec::new();

        for set in aligned_sets {
            assert!(!set.is_empty(), "aligned column set must not be empty");
            let integrated_idx = column_names.len();
            let mut tables_seen = BTreeMap::new();
            let mut name: Option<String> = None;
            for cref in set {
                assert!(cref.table < tables.len(), "table index {} out of range", cref.table);
                let table = &tables[cref.table];
                assert!(
                    cref.column < table.num_columns(),
                    "column index {} out of range for table `{}`",
                    cref.column,
                    table.name()
                );
                assert!(
                    tables_seen.insert(cref.table, cref.column).is_none(),
                    "aligned set contains two columns of table `{}`",
                    table.name()
                );
                assert!(
                    mapping[cref.table][cref.column].is_none(),
                    "column {:?} appears in more than one aligned set",
                    cref
                );
                mapping[cref.table][cref.column] = Some(integrated_idx);
                if name.is_none() {
                    let header = &table.schema().columns()[cref.column].name;
                    if !header.is_empty() {
                        name = Some(header.clone());
                    }
                }
            }
            column_names.push(name.unwrap_or_else(|| format!("col_{integrated_idx}")));
        }

        // Unaligned source columns become their own integrated columns.
        for (t_idx, table) in tables.iter().enumerate() {
            for (c_idx, slot) in mapping[t_idx].iter_mut().enumerate() {
                if slot.is_none() {
                    let integrated_idx = column_names.len();
                    let header = &table.schema().columns()[c_idx].name;
                    let name = if header.is_empty() {
                        format!("{}_{}", table.name(), c_idx)
                    } else {
                        header.to_string()
                    };
                    // Disambiguate duplicate display names.
                    let name = if column_names.contains(&name) {
                        format!("{}.{}", table.name(), name)
                    } else {
                        name
                    };
                    column_names.push(name);
                    *slot = Some(integrated_idx);
                }
            }
        }

        let mapping = mapping
            .into_iter()
            .map(|cols| cols.into_iter().map(|c| c.expect("mapped")).collect())
            .collect();
        IntegrationSchema { column_names, mapping }
    }

    /// Aligns columns purely by (case-insensitive) header equality — the
    /// baseline used when tables are known to share headers, e.g. the
    /// benchmark generators and the paper's Figure 1 example.
    pub fn from_matching_headers(tables: &[Table]) -> Self {
        // Group columns by normalised header; a header group contributes one
        // aligned set, but never two columns of the same table (later
        // duplicates start new sets).
        let mut sets: Vec<(String, Vec<ColumnRef>)> = Vec::new();
        for (t_idx, table) in tables.iter().enumerate() {
            for (c_idx, col) in table.schema().columns().iter().enumerate() {
                let key = col.name.trim().to_lowercase();
                if key.is_empty() {
                    continue;
                }
                let slot = sets
                    .iter_mut()
                    .find(|(k, refs)| *k == key && !refs.iter().any(|r| r.table == t_idx));
                match slot {
                    Some((_, refs)) => refs.push(ColumnRef::new(t_idx, c_idx)),
                    None => sets.push((key, vec![ColumnRef::new(t_idx, c_idx)])),
                }
            }
        }
        let aligned: Vec<Vec<ColumnRef>> =
            sets.into_iter().map(|(_, refs)| refs).filter(|refs| refs.len() > 1).collect();
        IntegrationSchema::from_aligned_sets(tables, &aligned)
    }

    /// Number of integrated columns.
    pub fn num_columns(&self) -> usize {
        self.column_names.len()
    }

    /// Names of the integrated columns.
    pub fn column_names(&self) -> &[String] {
        &self.column_names
    }

    /// Number of input tables the schema was built for.
    pub fn num_tables(&self) -> usize {
        self.mapping.len()
    }

    /// The integrated column that source column `column` of table `table`
    /// maps to.
    pub fn integrated_column(&self, table: usize, column: usize) -> usize {
        self.mapping[table][column]
    }

    /// The aligned source columns for every integrated column.
    pub fn aligned_sets(&self) -> Vec<Vec<ColumnRef>> {
        let mut sets = vec![Vec::new(); self.num_columns()];
        for (t, cols) in self.mapping.iter().enumerate() {
            for (c, &icol) in cols.iter().enumerate() {
                sets[icol].push(ColumnRef::new(t, c));
            }
        }
        sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_table::TableBuilder;

    fn tables() -> Vec<Table> {
        vec![
            TableBuilder::new("T1", ["City", "Country"])
                .row(["Berlin", "Germany"])
                .build()
                .unwrap(),
            TableBuilder::new("T2", ["Country", "City", "Rate"])
                .row(["CA", "Toronto", "83%"])
                .build()
                .unwrap(),
            TableBuilder::new("T3", ["City", "Cases"]).row(["Berlin", "1.4M"]).build().unwrap(),
        ]
    }

    #[test]
    fn header_based_alignment() {
        let tables = tables();
        let schema = IntegrationSchema::from_matching_headers(&tables);
        // Integrated columns: City, Country, Rate, Cases.
        assert_eq!(schema.num_columns(), 4);
        assert_eq!(schema.num_tables(), 3);
        // City of T1, T2, T3 all map to the same integrated column.
        let city = schema.integrated_column(0, 0);
        assert_eq!(schema.integrated_column(1, 1), city);
        assert_eq!(schema.integrated_column(2, 0), city);
        // Country of T1 and T2 share a column distinct from City.
        let country = schema.integrated_column(0, 1);
        assert_eq!(schema.integrated_column(1, 0), country);
        assert_ne!(country, city);
        // Rate and Cases are singletons.
        assert_ne!(schema.integrated_column(1, 2), schema.integrated_column(2, 1));
    }

    #[test]
    fn explicit_aligned_sets() {
        let tables = tables();
        let sets = vec![
            vec![ColumnRef::new(0, 0), ColumnRef::new(1, 1), ColumnRef::new(2, 0)],
            vec![ColumnRef::new(0, 1), ColumnRef::new(1, 0)],
        ];
        let schema = IntegrationSchema::from_aligned_sets(&tables, &sets);
        assert_eq!(schema.num_columns(), 4);
        assert_eq!(schema.column_names()[0], "City");
        assert_eq!(schema.column_names()[1], "Country");
        let aligned = schema.aligned_sets();
        assert_eq!(aligned[0].len(), 3);
        assert_eq!(aligned[1].len(), 2);
        assert_eq!(aligned[2].len(), 1);
    }

    #[test]
    #[should_panic(expected = "two columns of table")]
    fn same_table_twice_in_a_set_panics() {
        let tables = tables();
        let sets = vec![vec![ColumnRef::new(0, 0), ColumnRef::new(0, 1)]];
        IntegrationSchema::from_aligned_sets(&tables, &sets);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_column_panics() {
        let tables = tables();
        let sets = vec![vec![ColumnRef::new(0, 7)]];
        IntegrationSchema::from_aligned_sets(&tables, &sets);
    }

    #[test]
    fn duplicate_unaligned_names_are_disambiguated() {
        let ts = vec![
            TableBuilder::new("A", ["id", "x"]).row(["1", "2"]).build().unwrap(),
            TableBuilder::new("B", ["id", "x"]).row(["1", "2"]).build().unwrap(),
        ];
        // Align only `id`; both `x` columns stay separate and must not end up
        // with colliding display names.
        let sets = vec![vec![ColumnRef::new(0, 0), ColumnRef::new(1, 0)]];
        let schema = IntegrationSchema::from_aligned_sets(&ts, &sets);
        assert_eq!(schema.num_columns(), 3);
        let names = schema.column_names();
        assert_eq!(names.len(), 3);
        let unique: std::collections::HashSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), 3, "column names must be unique: {names:?}");
    }

    #[test]
    fn header_alignment_is_case_insensitive() {
        let ts = vec![
            TableBuilder::new("A", ["city"]).row(["x"]).build().unwrap(),
            TableBuilder::new("B", ["CITY"]).row(["y"]).build().unwrap(),
        ];
        let schema = IntegrationSchema::from_matching_headers(&ts);
        assert_eq!(schema.num_columns(), 1);
    }
}
