//! # datalake-fuzzy-fd
//!
//! Umbrella crate for the **Fuzzy Full Disjunction** system — a from-scratch
//! Rust reproduction of *Fuzzy Integration of Data Lake Tables* (Khatiwada,
//! Shraga, Miller).  It re-exports every workspace crate under one roof so
//! applications can depend on a single crate:
//!
//! * [`core`] — the Fuzzy Full Disjunction operator itself;
//! * [`table`] — the in-memory table model and CSV I/O;
//! * [`text`] — string normalisation and similarity;
//! * [`embed`] — cell-value embedders (hashing n-gram + simulated
//!   pre-trained-LM tiers);
//! * [`assign`] — linear sum assignment solvers;
//! * [`schema_match`] — the column alignment the operator takes from its
//!   caller, and header-equality alignment;
//! * [`fd`] — Full Disjunction algorithms;
//! * [`em`] — downstream entity matching;
//! * [`benchdata`] — benchmark generators;
//! * [`metrics`] — evaluation metrics and reports;
//! * [`runtime`] — the shared scoped executor every parallel site routes
//!   through;
//! * [`serve`] — the sharded concurrent integration server (hand-rolled
//!   HTTP/1.1 over `std::net`; see `docs/PROTOCOL.md`);
//! * [`store`] — the durable lake store (one write-ahead log per store,
//!   session snapshot/restore by replay).
//!
//! ## Quickstart
//!
//! ```
//! use datalake_fuzzy_fd::core::{FuzzyFdConfig, FuzzyFullDisjunction};
//! use datalake_fuzzy_fd::table::TableBuilder;
//!
//! let cases = TableBuilder::new("cases", ["City", "Total Cases"])
//!     .row(["Berlin", "1.4M"])
//!     .row(["barcelona", "2.68M"])
//!     .build()
//!     .unwrap();
//! let rates = TableBuilder::new("rates", ["City", "Vaccination Rate"])
//!     .row(["Berlinn", "63%"])
//!     .row(["Barcelona", "82%"])
//!     .build()
//!     .unwrap();
//!
//! let fuzzy = FuzzyFullDisjunction::new(FuzzyFdConfig::default());
//! let outcome = fuzzy.integrate_by_headers(&[cases, rates]).unwrap();
//! assert_eq!(outcome.table.len(), 2); // Berlin and Barcelona, fully merged
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench` for
//! the experiment harness that regenerates the paper's tables and figures.

pub use fuzzy_fd_core as core;
pub use lake_assign as assign;
pub use lake_benchdata as benchdata;
pub use lake_em as em;
pub use lake_embed as embed;
pub use lake_fd as fd;
pub use lake_metrics as metrics;
pub use lake_runtime as runtime;
pub use lake_schema_match as schema_match;
pub use lake_serve as serve;
pub use lake_store as store;
pub use lake_table as table;
pub use lake_text as text;
