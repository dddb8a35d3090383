//! The [`Table`] type: a named, schema-carrying collection of rows.

use std::collections::{HashMap, HashSet};

use crate::error::{TableError, TableResult};
use crate::provenance::TupleId;
use crate::schema::{DataType, Schema};
use crate::value::Value;

/// A row is simply an ordered list of cells matching the table's schema.
pub type Row = Vec<Value>;

/// Reference to one column of one table inside an *integration set*
/// (an ordered `&[Table]` slice).  Used by column alignment and by the fuzzy
/// value matcher to name "the j-th column of the i-th table" without copying
/// data around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ColumnRef {
    /// Index of the table within the integration set.
    pub table: usize,
    /// Index of the column within that table's schema.
    pub column: usize,
}

impl ColumnRef {
    /// Creates a column reference.
    pub fn new(table: usize, column: usize) -> Self {
        ColumnRef { table, column }
    }
}

/// A named, row-oriented table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Vec<Row>,
}

impl Table {
    /// Creates an empty table with the given name and schema.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table { name: name.into(), schema, rows: Vec::new() }
    }

    /// Table name (usually the source file stem).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Replaces the table name, returning the modified table.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.schema.len()
    }

    /// `true` when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows, in insertion order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Appends a row after validating its arity against the schema.
    pub fn push_row(&mut self, row: Row) -> TableResult<()> {
        if row.len() != self.schema.len() {
            return Err(TableError::ArityMismatch {
                expected: self.schema.len(),
                actual: row.len(),
            });
        }
        self.rows.push(row);
        Ok(())
    }

    /// Appends many rows, stopping at the first arity error.
    pub fn extend_rows<I: IntoIterator<Item = Row>>(&mut self, rows: I) -> TableResult<()> {
        for row in rows {
            self.push_row(row)?;
        }
        Ok(())
    }

    /// The cell at `(row, column)`, if both indices are in range.
    pub fn cell(&self, row: usize, column: usize) -> Option<&Value> {
        self.rows.get(row).and_then(|r| r.get(column))
    }

    /// Provenance id of the tuple at `row`.
    pub fn tuple_id(&self, row: usize) -> TupleId {
        TupleId::new(self.name.clone(), row)
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> TableResult<usize> {
        self.schema.index_of(name).ok_or_else(|| TableError::UnknownColumn(name.into()))
    }

    /// All values of the column at `column` (including nulls), in row order.
    pub fn column_values(&self, column: usize) -> TableResult<Vec<&Value>> {
        if column >= self.schema.len() {
            return Err(TableError::ColumnIndexOutOfBounds {
                index: column,
                len: self.schema.len(),
            });
        }
        Ok(self.rows.iter().map(|r| &r[column]).collect())
    }

    /// Distinct non-null values of the column at `column`, in first-seen order.
    pub fn distinct_values(&self, column: usize) -> TableResult<Vec<Value>> {
        if column >= self.schema.len() {
            return Err(TableError::ColumnIndexOutOfBounds {
                index: column,
                len: self.schema.len(),
            });
        }
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for row in &self.rows {
            let v = &row[column];
            if v.is_present() && seen.insert(v.clone()) {
                out.push(v.clone());
            }
        }
        Ok(out)
    }

    /// Occurrence counts of non-null values in the column at `column`.
    pub fn value_counts(&self, column: usize) -> TableResult<HashMap<Value, usize>> {
        if column >= self.schema.len() {
            return Err(TableError::ColumnIndexOutOfBounds {
                index: column,
                len: self.schema.len(),
            });
        }
        let mut counts = HashMap::new();
        for row in &self.rows {
            let v = &row[column];
            if v.is_present() {
                *counts.entry(v.clone()).or_insert(0) += 1;
            }
        }
        Ok(counts)
    }

    /// Fraction of null cells in the column at `column` (0.0 for empty tables).
    pub fn null_fraction(&self, column: usize) -> TableResult<f64> {
        let values = self.column_values(column)?;
        if values.is_empty() {
            return Ok(0.0);
        }
        let nulls = values.iter().filter(|v| v.is_null()).count();
        Ok(nulls as f64 / values.len() as f64)
    }

    /// Re-infers all column data types from the current rows and stores them
    /// in the schema.
    pub fn infer_column_types(&mut self) {
        for col in 0..self.schema.len() {
            let ty = DataType::infer(self.rows.iter().map(|r| &r[col]));
            // index is in range by construction
            let _ = self.schema.set_data_type(col, ty);
        }
    }

    /// Returns a new table containing only the listed columns (in the listed
    /// order).  Provenance is positional, so row indices are preserved.
    pub fn project(&self, columns: &[usize]) -> TableResult<Table> {
        let mut metas = Vec::with_capacity(columns.len());
        for &c in columns {
            metas.push(self.schema.column(c)?.clone());
        }
        let schema = Schema::new(metas)?;
        let mut out = Table::new(self.name.clone(), schema);
        for row in &self.rows {
            let projected: Row = columns.iter().map(|&c| row[c].clone()).collect();
            out.push_row(projected)?;
        }
        Ok(out)
    }

    /// Applies a value substitution map to one column, replacing every cell
    /// whose value appears as a key with the mapped value.  This is how the
    /// fuzzy matcher rewrites matched values to their representative before
    /// running the equi-join Full Disjunction.
    pub fn substitute_column(
        &mut self,
        column: usize,
        mapping: &HashMap<Value, Value>,
    ) -> TableResult<usize> {
        if column >= self.schema.len() {
            return Err(TableError::ColumnIndexOutOfBounds {
                index: column,
                len: self.schema.len(),
            });
        }
        let mut replaced = 0;
        for row in &mut self.rows {
            if let Some(new) = mapping.get(&row[column]) {
                if &row[column] != new {
                    row[column] = new.clone();
                    replaced += 1;
                }
            }
        }
        Ok(replaced)
    }

    /// Iterates `(TupleId, &Row)` pairs.
    pub fn iter_with_ids(&self) -> impl Iterator<Item = (TupleId, &Row)> + '_ {
        self.rows.iter().enumerate().map(move |(i, r)| (TupleId::new(self.name.clone(), i), r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TableBuilder;

    fn sample() -> Table {
        TableBuilder::new("T1", ["City", "Country"])
            .row(["Berlinn", "Germany"])
            .row(["Toronto", "Canada"])
            .row(["Barcelona", "Spain"])
            .row(["New Delhi", "India"])
            .build()
            .unwrap()
    }

    #[test]
    fn basic_accessors() {
        let t = sample();
        assert_eq!(t.name(), "T1");
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.num_columns(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.cell(0, 0), Some(&Value::text("Berlinn")));
        assert_eq!(t.cell(9, 0), None);
        assert_eq!(t.column_index("Country").unwrap(), 1);
        assert!(t.column_index("Nope").is_err());
    }

    #[test]
    fn arity_is_enforced() {
        let mut t = sample();
        let err = t.push_row(vec![Value::text("x")]).unwrap_err();
        assert!(matches!(err, TableError::ArityMismatch { expected: 2, actual: 1 }));
    }

    #[test]
    fn distinct_values_skip_nulls_and_duplicates() {
        let t = TableBuilder::new("T", ["c"])
            .row(["a"])
            .row([""])
            .row(["b"])
            .row(["a"])
            .build()
            .unwrap();
        let distinct = t.distinct_values(0).unwrap();
        assert_eq!(distinct, vec![Value::text("a"), Value::text("b")]);
    }

    #[test]
    fn value_counts_and_null_fraction() {
        let t = TableBuilder::new("T", ["c"])
            .row(["a"])
            .row([""])
            .row(["a"])
            .row(["b"])
            .build()
            .unwrap();
        let counts = t.value_counts(0).unwrap();
        assert_eq!(counts[&Value::text("a")], 2);
        assert_eq!(counts[&Value::text("b")], 1);
        assert!((t.null_fraction(0).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn projection_preserves_rows() {
        let t = sample();
        let p = t.project(&[1]).unwrap();
        assert_eq!(p.num_columns(), 1);
        assert_eq!(p.num_rows(), 4);
        assert_eq!(p.cell(1, 0), Some(&Value::text("Canada")));
        assert!(t.project(&[7]).is_err());
    }

    #[test]
    fn substitution_rewrites_matching_cells() {
        let mut t = sample();
        let mut mapping = HashMap::new();
        mapping.insert(Value::text("Berlinn"), Value::text("Berlin"));
        mapping.insert(Value::text("Toronto"), Value::text("Toronto")); // no-op
        let replaced = t.substitute_column(0, &mapping).unwrap();
        assert_eq!(replaced, 1);
        assert_eq!(t.cell(0, 0), Some(&Value::text("Berlin")));
        assert_eq!(t.cell(1, 0), Some(&Value::text("Toronto")));
    }

    #[test]
    fn tuple_ids_follow_row_order() {
        let t = sample();
        assert_eq!(t.tuple_id(2), TupleId::new("T1", 2));
        let ids: Vec<TupleId> = t.iter_with_ids().map(|(id, _)| id).collect();
        assert_eq!(ids.len(), 4);
        assert_eq!(ids[0].row, 0);
        assert_eq!(ids[3].row, 3);
    }

    #[test]
    fn type_inference_updates_schema() {
        let mut t =
            TableBuilder::new("T", ["n", "s"]).row(["1", "x"]).row(["2", "y"]).build().unwrap();
        t.infer_column_types();
        assert_eq!(t.schema().column(0).unwrap().data_type, DataType::Int);
        assert_eq!(t.schema().column(1).unwrap().data_type, DataType::Text);
    }

    #[test]
    fn column_values_out_of_bounds() {
        let t = sample();
        assert!(t.column_values(5).is_err());
        assert!(t.distinct_values(5).is_err());
        assert!(t.value_counts(5).is_err());
    }
}
