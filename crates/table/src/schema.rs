//! Schemas and column metadata.
//!
//! A [`Schema`] is an ordered list of [`ColumnMeta`].  Column names are kept
//! for display and for the header-based alignment baseline, but the
//! integration pipeline never assumes they are trustworthy — data lake tables
//! routinely have missing or misleading headers.

use std::collections::HashMap;

use crate::error::{TableError, TableResult};
use crate::value::Value;

/// Coarse data type of a column, inferred from its values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// All present values are text (or the column is empty).
    Text,
    /// All present values are integers.
    Int,
    /// Present values are integers and/or floats.
    Float,
    /// All present values are booleans.
    Bool,
    /// Values of several incompatible types appear.
    Mixed,
}

impl DataType {
    /// The data type of a single value; `None` for nulls, which carry no type
    /// evidence.
    pub fn of(value: &Value) -> Option<DataType> {
        match value {
            Value::Null => None,
            Value::Text(_) => Some(DataType::Text),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// Merges the type observed so far with the type of one more value.
    pub fn merge(self, value: &Value) -> DataType {
        let Some(observed) = DataType::of(value) else { return self };
        match (self, observed) {
            (a, b) if a == b => a,
            (DataType::Int, DataType::Float) | (DataType::Float, DataType::Int) => DataType::Float,
            _ => DataType::Mixed,
        }
    }

    /// Infers the type of a whole column.  Columns with no present values
    /// default to [`DataType::Text`].
    pub fn infer<'a>(values: impl IntoIterator<Item = &'a Value>) -> DataType {
        let mut ty: Option<DataType> = None;
        for v in values {
            match (ty, DataType::of(v)) {
                (_, None) => {}
                (None, Some(observed)) => ty = Some(observed),
                (Some(current), Some(_)) => ty = Some(current.merge(v)),
            }
        }
        ty.unwrap_or(DataType::Text)
    }
}

/// Metadata for a single column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnMeta {
    /// Column header.  May be empty or unreliable in data lake tables.
    pub name: String,
    /// Inferred coarse type.
    pub data_type: DataType,
}

impl ColumnMeta {
    /// Creates a text column with the given header.
    pub fn new(name: impl Into<String>) -> Self {
        ColumnMeta { name: name.into(), data_type: DataType::Text }
    }

    /// Creates a column with an explicit type.
    pub fn typed(name: impl Into<String>, data_type: DataType) -> Self {
        ColumnMeta { name: name.into(), data_type }
    }
}

/// An ordered collection of column metadata with unique names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<ColumnMeta>,
    by_name: HashMap<String, usize>,
}

impl Schema {
    /// Builds a schema from column metadata, rejecting duplicates and empty
    /// schemas.
    pub fn new(columns: Vec<ColumnMeta>) -> TableResult<Self> {
        if columns.is_empty() {
            return Err(TableError::EmptySchema);
        }
        let mut by_name = HashMap::with_capacity(columns.len());
        for (idx, col) in columns.iter().enumerate() {
            if by_name.insert(col.name.clone(), idx).is_some() {
                return Err(TableError::DuplicateColumn(col.name.clone()));
            }
        }
        Ok(Schema { columns, by_name })
    }

    /// Convenience constructor from header names only.
    pub fn from_names<I, S>(names: I) -> TableResult<Self>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Schema::new(names.into_iter().map(|n| ColumnMeta::new(n)).collect())
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// `true` when the schema has no columns (cannot happen for constructed
    /// schemas, but kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Column metadata in declaration order.
    pub fn columns(&self) -> &[ColumnMeta] {
        &self.columns
    }

    /// Column names in declaration order.
    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Metadata of the column at `idx`.
    pub fn column(&self, idx: usize) -> TableResult<&ColumnMeta> {
        self.columns
            .get(idx)
            .ok_or(TableError::ColumnIndexOutOfBounds { index: idx, len: self.columns.len() })
    }

    /// Updates the inferred data type of the column at `idx`.
    pub fn set_data_type(&mut self, idx: usize, data_type: DataType) -> TableResult<()> {
        let len = self.columns.len();
        let col = self
            .columns
            .get_mut(idx)
            .ok_or(TableError::ColumnIndexOutOfBounds { index: idx, len })?;
        col.data_type = data_type;
        Ok(())
    }

    /// Renames the column at `idx`, keeping the name-index map consistent.
    pub fn rename(&mut self, idx: usize, new_name: impl Into<String>) -> TableResult<()> {
        let new_name = new_name.into();
        let len = self.columns.len();
        if idx >= len {
            return Err(TableError::ColumnIndexOutOfBounds { index: idx, len });
        }
        if let Some(&existing) = self.by_name.get(&new_name) {
            if existing != idx {
                return Err(TableError::DuplicateColumn(new_name));
            }
        }
        let old = self.columns[idx].name.clone();
        self.by_name.remove(&old);
        self.by_name.insert(new_name.clone(), idx);
        self.columns[idx].name = new_name;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_rejects_duplicates_and_empty() {
        assert!(matches!(Schema::from_names(Vec::<String>::new()), Err(TableError::EmptySchema)));
        assert!(matches!(Schema::from_names(["a", "b", "a"]), Err(TableError::DuplicateColumn(_))));
    }

    #[test]
    fn index_lookup_by_name() {
        let schema = Schema::from_names(["City", "Country", "Vac. Rate"]).unwrap();
        assert_eq!(schema.len(), 3);
        assert_eq!(schema.index_of("Country"), Some(1));
        assert_eq!(schema.index_of("Missing"), None);
    }

    #[test]
    fn column_index_bounds_checked() {
        let schema = Schema::from_names(["a"]).unwrap();
        assert!(schema.column(0).is_ok());
        assert!(matches!(
            schema.column(5),
            Err(TableError::ColumnIndexOutOfBounds { index: 5, len: 1 })
        ));
    }

    #[test]
    fn rename_updates_lookup() {
        let mut schema = Schema::from_names(["a", "b"]).unwrap();
        schema.rename(0, "alpha").unwrap();
        assert_eq!(schema.index_of("alpha"), Some(0));
        assert_eq!(schema.index_of("a"), None);
        // renaming to an existing other name fails
        assert!(schema.rename(1, "alpha").is_err());
        // renaming to itself is fine
        assert!(schema.rename(1, "b").is_ok());
    }

    #[test]
    fn data_type_inference() {
        let ints = [Value::Int(1), Value::Null, Value::Int(3)];
        assert_eq!(DataType::infer(ints.iter()), DataType::Int);

        let floats = [Value::Int(1), Value::Float(2.5)];
        assert_eq!(DataType::infer(floats.iter()), DataType::Float);

        let text = [Value::text("x"), Value::Null];
        assert_eq!(DataType::infer(text.iter()), DataType::Text);

        let mixed = [Value::text("x"), Value::Int(2)];
        assert_eq!(DataType::infer(mixed.iter()), DataType::Mixed);

        let empty: [Value; 0] = [];
        assert_eq!(DataType::infer(empty.iter()), DataType::Text);

        let bools = [Value::Bool(true), Value::Bool(false)];
        assert_eq!(DataType::infer(bools.iter()), DataType::Bool);
    }

    #[test]
    fn merge_is_monotone_toward_mixed() {
        let ty = DataType::Int.merge(&Value::text("x"));
        assert_eq!(ty, DataType::Mixed);
        assert_eq!(DataType::Mixed.merge(&Value::Int(3)), DataType::Mixed);
        assert_eq!(DataType::Int.merge(&Value::Null), DataType::Int);
    }
}
