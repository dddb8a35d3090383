//! # fuzzy-fd-core
//!
//! **Fuzzy Full Disjunction** — the contribution of *Fuzzy Integration of
//! Data Lake Tables* (Khatiwada, Shraga, Miller).
//!
//! Full Disjunction (FD) integrates a set of tables maximally, but classic FD
//! joins tuples only on *equal* values.  Data lake tables disagree on surface
//! forms — typos, abbreviations, codes, case — so equi-join FD leaves tuples
//! about the same real-world entity un-merged.  Fuzzy FD fixes this in three
//! steps:
//!
//! 1. **Align columns** across the tables (given, header-based, or via
//!    `lake-schema-match`).
//! 2. **Match values** within every set of aligned columns (the *Fuzzy Value
//!    Match* problem, Definition 2 of the paper): embed every distinct value,
//!    repeatedly bipartite-match the current *combined column* against the
//!    next column with a linear sum assignment under a distance threshold θ,
//!    and pick the most frequent member of each match group as its
//!    representative.
//! 3. **Rewrite** matched values to their representative and run the ordinary
//!    equi-join Full Disjunction (`lake-fd`).
//!
//! ```
//! use fuzzy_fd_core::{FuzzyFdConfig, FuzzyFullDisjunction};
//! use lake_table::TableBuilder;
//!
//! let t1 = TableBuilder::new("T1", ["City", "Country"])
//!     .row(["Berlinn", "Germany"])
//!     .row(["Toronto", "Canada"])
//!     .build()
//!     .unwrap();
//! let t2 = TableBuilder::new("T2", ["City", "Vaccination"])
//!     .row(["Berlin", "63%"])
//!     .row(["Boston", "62%"])
//!     .build()
//!     .unwrap();
//!
//! let fuzzy = FuzzyFullDisjunction::new(FuzzyFdConfig::default());
//! let result = fuzzy.integrate_by_headers(&[t1, t2]).unwrap();
//! // The typo "Berlinn" no longer prevents integration: Berlin appears once.
//! assert_eq!(result.table.len(), 3);
//! ```

pub mod blocking;
pub mod config;
pub mod pipeline;
pub mod rewrite;
pub mod session;
pub mod value_match;

pub use blocking::{
    hashed_value_block_keys, plan_blocks, plan_cartesian, Block, BlockPlan, BlockingStats,
    CandidateEdge, FoldInputs,
};
pub use config::{AssignmentStrategy, BlockingPolicy, FuzzyFdConfig, IncrementalPolicy};
pub use lake_embed::KernelStats;
pub use lake_metrics::PhaseTimings;
pub use lake_runtime::{ParallelPolicy, RuntimeStats};
pub use pipeline::{
    regular_full_disjunction, FuzzyFdReport, FuzzyFullDisjunction, IntegrationOutcome,
};
pub use rewrite::build_substitutions;
pub use session::{IncrementalOutcome, IncrementalStats, IntegrationSession};
pub use value_match::{
    match_column_values, match_column_values_with_stats, ColumnPosition, MatcherState, ValueGroup,
    ValueMatcher,
};
