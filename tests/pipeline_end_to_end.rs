//! Cross-crate integration tests: CSV ingestion → column alignment (by
//! headers, or stated by the caller) → fuzzy value matching → Full
//! Disjunction → downstream entity matching.

use datalake_fuzzy_fd::benchdata::{generate_em_benchmark, EmBenchmarkConfig};
use datalake_fuzzy_fd::core::{regular_full_disjunction, FuzzyFdConfig, FuzzyFullDisjunction};
use datalake_fuzzy_fd::em::{match_entities, EmOptions};
use datalake_fuzzy_fd::embed::EmbeddingModel;
use datalake_fuzzy_fd::schema_match::{align_by_headers, Alignment};
use datalake_fuzzy_fd::table::{csv, ColumnRef, TupleId, Value};

#[test]
fn csv_round_trip_through_the_full_pipeline() {
    // Two "CSV files" from different portals about the same restaurants.
    let inspections = csv::parse_csv(
        "inspections",
        "name,city,score\n\
         Golden Dragon Bistro,San Francisco,92\n\
         The Blue Door Cafe,Portland,88\n\
         Marios Trattoria,Boston,95\n",
    )
    .expect("inspections csv");
    let reviews = csv::parse_csv(
        "reviews",
        "name,rating,reviews\n\
         Golden Dragon Bistro,4.5,812\n\
         Marios Trattoria,4.2,391\n\
         The Blue Door Caffe,4.7,97\n",
    )
    .expect("reviews csv");

    let tables = vec![inspections, reviews];
    let alignment = align_by_headers(&tables);

    // Equi-join FD cannot bridge the "Cafe" / "Caffe" typo.
    let regular = regular_full_disjunction(&tables, &alignment);
    assert_eq!(regular.len(), 4);

    // Fuzzy FD does.
    let outcome = FuzzyFullDisjunction::new(FuzzyFdConfig::default())
        .integrate(&tables, &alignment)
        .expect("fuzzy integration");
    assert_eq!(outcome.table.len(), 3, "{:#?}", outcome.table.tuples());
    for tuple in outcome.table.tuples() {
        assert_eq!(tuple.provenance().len(), 2, "every restaurant appears in both sources");
    }

    // The integrated result exports back to CSV.
    let exported = outcome.table.to_table("integrated", true).expect("to_table");
    let text = csv::to_csv(&exported);
    let reparsed = csv::parse_csv("integrated", &text).expect("re-parse");
    assert_eq!(reparsed.num_rows(), 3);
}

/// Headers carry no meaning and the columns are cross-ordered, so the
/// caller states the alignment: `c1 ↔ f2` (university), `c2 ↔ f1` (city).
#[test]
fn explicit_alignment_handles_meaningless_headers() {
    let portal_a = csv::parse_csv(
        "portal_a",
        "c1,c2\nUniversity of Toronto,Toronto\nNortheastern University,Boston\nETH Zurich,Zurich\n",
    )
    .unwrap();
    let portal_b = csv::parse_csv(
        "portal_b",
        "f1,f2\nBoston,Northeastern University\nToronto,University of Toronto\nZurich,ETH Zurich\n",
    )
    .unwrap();

    let alignment = Alignment::new(vec![
        vec![ColumnRef::new(0, 0), ColumnRef::new(1, 1)],
        vec![ColumnRef::new(0, 1), ColumnRef::new(1, 0)],
    ]);

    let fuzzy = FuzzyFullDisjunction::new(FuzzyFdConfig::with_model(EmbeddingModel::Mistral));
    let outcome = fuzzy.integrate(&[portal_a, portal_b], &alignment).expect("explicit integration");
    assert_eq!(outcome.table.len(), 3, "{:#?}", outcome.table.tuples());
    for tuple in outcome.table.tuples() {
        assert_eq!(tuple.provenance().len(), 2);
    }
}

#[test]
fn downstream_entity_matching_benefits_from_fuzzy_integration() {
    let benchmark = generate_em_benchmark(EmBenchmarkConfig {
        num_entities: 80,
        ..EmBenchmarkConfig::default()
    });
    let alignment = align_by_headers(&benchmark.tables);

    let regular = regular_full_disjunction(&benchmark.tables, &alignment);
    let fuzzy = FuzzyFullDisjunction::new(FuzzyFdConfig::default())
        .integrate(&benchmark.tables, &alignment)
        .expect("fuzzy FD");

    let regular_scores =
        match_entities(&regular, EmOptions::default()).evaluate(&regular, &benchmark.gold);
    let fuzzy_scores =
        match_entities(&fuzzy.table, EmOptions::default()).evaluate(&fuzzy.table, &benchmark.gold);

    assert!(
        fuzzy_scores.f1 >= regular_scores.f1,
        "fuzzy {fuzzy_scores:?} must not be worse than regular {regular_scores:?}"
    );
    assert!(fuzzy.table.len() <= regular.len());
}

#[test]
fn provenance_always_references_real_input_rows() {
    let benchmark = generate_em_benchmark(EmBenchmarkConfig {
        num_entities: 40,
        ..EmBenchmarkConfig::default()
    });
    let alignment = align_by_headers(&benchmark.tables);
    let outcome = FuzzyFullDisjunction::new(FuzzyFdConfig::default())
        .integrate(&benchmark.tables, &alignment)
        .expect("fuzzy FD");

    let lookup = |id: &TupleId| -> Option<&datalake_fuzzy_fd::table::Table> {
        benchmark.tables.iter().find(|t| t.name() == id.table)
    };
    let mut covered = std::collections::BTreeSet::new();
    for tuple in outcome.table.tuples() {
        for id in tuple.provenance().iter() {
            let table = lookup(id).expect("provenance references a known table");
            assert!(id.row < table.num_rows());
            covered.insert(id.clone());
            // Every non-null value of the base row must be reflected in the
            // integrated tuple, either verbatim or as a rewritten
            // representative (a present value never becomes null).
            let base_row = &table.rows()[id.row];
            let non_null_base = base_row.iter().filter(|v| v.is_present()).count();
            assert!(tuple.non_null_count() >= non_null_base);
        }
    }
    let total: usize = benchmark.tables.iter().map(|t| t.num_rows()).sum();
    assert_eq!(covered.len(), total, "every base tuple appears in the integrated table");
    // Values in the output are never the bottom symbol rendered as text.
    for tuple in outcome.table.tuples() {
        for value in tuple.values() {
            if let Value::Text(s) = value {
                assert!(!s.is_empty());
            }
        }
    }
}
