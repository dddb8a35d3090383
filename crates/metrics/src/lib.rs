//! # lake-metrics
//!
//! Evaluation and reporting substrate: precision/recall/F1 over match pairs,
//! pairwise clustering metrics, wall-clock timing and plain-text report
//! tables.  Every experiment harness in `lake-bench` builds its output from
//! these primitives so that the reported numbers have a single, tested
//! source.

pub mod confusion;
pub mod matching;
pub mod report;
pub mod timing;

pub use confusion::{ConfusionCounts, PrecisionRecall};
pub use matching::{pair_key, PairSet};
pub use report::{format_table, ReportRow};
pub use timing::{format_duration, PhaseTimings, Stopwatch};
