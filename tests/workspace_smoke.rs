//! Workspace smoke test: the umbrella crate's re-exports resolve, and the
//! `src/lib.rs` quickstart runs end to end.  This is the cheapest signal that
//! the workspace wiring (all thirteen crates plus the facade) is intact, so
//! it is deliberately free of any fixtures or generators.

use datalake_fuzzy_fd::core::{FuzzyFdConfig, FuzzyFullDisjunction};
use datalake_fuzzy_fd::table::TableBuilder;

/// Every facade module path must resolve to its crate.  Referencing one item
/// per re-export makes a missing workspace dependency a compile error here
/// rather than a latent hole for downstream users.
#[test]
fn facade_reexports_resolve() {
    let _core: fn(FuzzyFdConfig) -> FuzzyFullDisjunction = FuzzyFullDisjunction::new;
    let _table = datalake_fuzzy_fd::table::Value::Null;
    let _text = datalake_fuzzy_fd::text::normalize("X");
    let _embed = datalake_fuzzy_fd::embed::EmbeddingModel::Mistral;
    let _assign = datalake_fuzzy_fd::assign::CostMatrix::from_rows(vec![vec![0.0]]);
    let _schema_match: fn(
        &[datalake_fuzzy_fd::table::Table],
    ) -> datalake_fuzzy_fd::schema_match::Alignment =
        datalake_fuzzy_fd::schema_match::align_by_headers;
    let _fd = datalake_fuzzy_fd::fd::ComponentCache::default();
    let _em = datalake_fuzzy_fd::em::EmOptions::default();
    let _benchdata = datalake_fuzzy_fd::benchdata::AutoJoinConfig::default();
    let _metrics = datalake_fuzzy_fd::metrics::PairSet::<u32>::default();
    let _runtime = datalake_fuzzy_fd::runtime::ParallelPolicy::default();
    let _serve = datalake_fuzzy_fd::serve::ServePolicy::default();
}

/// The quickstart from the crate-level docs, as a plain test: two noisy city
/// tables integrate into one row per real-world city.
#[test]
fn quickstart_integrates_by_headers() {
    let cases = TableBuilder::new("cases", ["City", "Total Cases"])
        .row(["Berlin", "1.4M"])
        .row(["barcelona", "2.68M"])
        .build()
        .unwrap();
    let rates = TableBuilder::new("rates", ["City", "Vaccination Rate"])
        .row(["Berlinn", "63%"])
        .row(["Barcelona", "82%"])
        .build()
        .unwrap();

    let fuzzy = FuzzyFullDisjunction::new(FuzzyFdConfig::default());
    let outcome = fuzzy.integrate_by_headers(&[cases, rates]).unwrap();
    assert_eq!(outcome.table.len(), 2, "Berlin and Barcelona should fully merge");
}
