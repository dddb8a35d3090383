//! # lake-fd
//!
//! Full Disjunction (FD) algorithms over data lake tables.
//!
//! Full Disjunction (Galindo-Legaria 1994) is the associative extension of
//! the full outer join: it integrates a set of tables such that every base
//! tuple is represented, joinable tuples are combined *maximally*, and no
//! redundant (subsumed) tuple remains.  The paper builds its fuzzy
//! integration on top of the equi-join FD implementation of ALITE
//! (Khatiwada et al., VLDB 2022); this crate provides that substrate:
//!
//! * [`schema::IntegrationSchema`] — the integrated (universal) schema and
//!   the mapping from each source column to an integrated column;
//! * [`tuple::IntegratedTuple`] — tuples over the integrated schema with
//!   labeled nulls and provenance;
//! * [`mod@outer_union`] — padding every base tuple into the integrated schema;
//! * [`components`] — union–find partitioning of tuples into join-connected
//!   components (tuples in different components can never join), the trick
//!   that makes FD scale to the IMDB-style benchmark;
//! * [`complement`] — the complementation closure + subsumption removal that
//!   computes the exact FD inside one component;
//! * [`alite`] — the one end-to-end FD operator ([`full_disjunction`] and
//!   its threaded and delta-aware spellings): component closures run on the
//!   shared scoped executor (`lake-runtime`), inline when one worker
//!   is asked for;
//! * [`incremental`] — the operator's optional live partition, the
//!   [`ComponentCache`]: handed to [`incremental_full_disjunction_with`], it
//!   retains the lake's rows, cell index and one closure per component, so
//!   an appended table pays only for the components it touches;
//! * [`spec`] — a brute-force specification oracle used by property tests;
//! * [`stats`] — result statistics used by the experiment harness.

pub mod alite;
pub mod complement;
pub mod components;
pub mod incremental;
pub mod outer_union;
pub mod schema;
pub mod spec;
pub mod stats;
pub mod subsume;
pub mod tuple;

pub use alite::{
    full_disjunction, incremental_full_disjunction_with, parallel_full_disjunction,
    parallel_full_disjunction_with,
};
pub use incremental::ComponentCache;
pub use lake_runtime::RuntimeStats;
pub use outer_union::outer_union;
pub use schema::IntegrationSchema;
pub use spec::specification_full_disjunction;
pub use stats::FdStats;
pub use tuple::{IntegratedTable, IntegratedTuple};
