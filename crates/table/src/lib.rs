//! # lake-table
//!
//! In-memory table model used throughout the Fuzzy Full Disjunction system.
//!
//! Data lake tables (typically CSV files) are modelled as row-oriented
//! [`Table`]s with a named [`Schema`], typed [`Value`] cells, explicit nulls
//! and per-tuple provenance ([`TupleId`]).  The crate also provides a small,
//! dependency-free CSV reader/writer so benchmark data can be exported and
//! re-imported, the workspace's one JSON encoder ([`JsonWriter`]), plus
//! pretty-printing helpers used by the examples and the experiment harness.
//!
//! The model intentionally mirrors the assumptions of the paper
//! *Fuzzy Integration of Data Lake Tables*:
//!
//! * column headers may be missing or unreliable — the schema stores them but
//!   nothing downstream relies on their correctness;
//! * cells are primarily short strings; numeric cells are typed when they
//!   parse cleanly;
//! * every tuple carries a provenance id so integrated tuples can report the
//!   set of base tuples they merged (the `TIDs` column of Figure 1).

pub mod builder;
pub mod csv;
pub mod error;
pub mod json;
pub mod print;
pub mod provenance;
pub mod schema;
pub mod table;
pub mod value;

pub use builder::TableBuilder;
pub use error::{TableError, TableResult};
pub use json::JsonWriter;
pub use provenance::{ProvenanceSet, TupleId};
pub use schema::{ColumnMeta, DataType, Schema};
pub use table::{ColumnRef, Row, Table};
pub use value::Value;
