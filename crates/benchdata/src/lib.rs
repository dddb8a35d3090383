//! # lake-benchdata
//!
//! Synthetic benchmark generators standing in for the paper's datasets
//! (each module's docs state what it substitutes for):
//!
//! * [`autojoin`] — an Auto-Join-style fuzzy value-matching benchmark:
//!   31 integration sets over 17 topics, each a set of aligned columns whose
//!   values are fuzzy variants of shared entities, with gold match pairs.
//!   Drives the Table 1 experiment.
//! * [`alite_em`] — an ALITE-style entity-matching benchmark: entities
//!   scattered over several source tables with planted inconsistencies and
//!   gold entity labels.  Drives the §3.2 downstream-task experiment.
//! * [`imdb`] — an IMDB-schema-shaped efficiency benchmark: six key-joinable
//!   tables sampled to a requested total tuple count (5K–30K).  Drives the
//!   Figure 3 runtime experiment.
//! * [`append`] — a lake-append workload (initial lake + later-arriving
//!   tables over a shared entity pool) driving `lakebench`'s `lake_growth`
//!   workload and the `IntegrationSession` equivalence harness.
//! * [`escalation`] — a lake-scale fold (1k+ distinctive values plus surface
//!   variants) driving `lakebench`'s `escalation_fold` workload and the
//!   escalated-tier equivalence tests.
//! * [`serving`] — a multi-tenant arrival trace (interleaved per-tenant
//!   append workloads) driving `lakebench`'s `serve_mixed` workload and the
//!   server integration tests.
//! * [`skew`] — a skewed-components FD fold (one giant join neighbourhood,
//!   a stride of mediums, a tail of smalls) driving the scheduler
//!   invariance tests (`tests/runtime_scheduling.rs`).
//! * [`lexicon`] — topic vocabularies (cities, songs, movies, people, …) and
//!   alias groups shared by the generators.
//! * [`noise`] — the deterministic fuzzy transformations (typos, case
//!   changes, abbreviations, aliases, token reordering) the generators plant
//!   and the matcher is later asked to undo.
//!
//! All generators are seeded and fully deterministic.

pub mod alite_em;
pub mod append;
pub mod autojoin;
pub mod escalation;
pub mod imdb;
pub mod lexicon;
pub mod noise;
pub mod serving;
pub mod skew;

pub use alite_em::{generate_em_benchmark, EmBenchmark, EmBenchmarkConfig};
pub use append::{generate_append_workload, AppendWorkload, AppendWorkloadConfig};
pub use autojoin::{generate_autojoin_benchmark, AutoJoinConfig, ValueMatchingSet};
pub use escalation::{
    generate_escalation_fold, generate_kernel_fold_columns, EscalationFold, EscalationFoldConfig,
};
pub use imdb::{generate_imdb_benchmark, ImdbConfig};
pub use lexicon::{topic_values, Topic, ALL_TOPICS};
pub use noise::{apply_transformation, Transformation};
pub use serving::{generate_serving_trace, Arrival, ServingTrace, ServingTraceConfig};
pub use skew::{generate_skewed_components, SkewedComponents, SkewedComponentsConfig};
