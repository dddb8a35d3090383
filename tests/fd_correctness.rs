//! Property-based correctness tests for the Full Disjunction substrate:
//! the scalable ALITE-style algorithm — at any thread count, with or without
//! a closure memo in any state — and the brute-force specification oracle
//! must agree on arbitrary small inputs.

use datalake_fuzzy_fd::fd::{
    full_disjunction, incremental_full_disjunction_with, parallel_full_disjunction,
    specification_full_disjunction, ComponentCache, IntegrationSchema,
};
use datalake_fuzzy_fd::table::{Table, TableBuilder, Value};
use proptest::prelude::*;

/// Strategy: up to three tables over a tiny shared attribute universe with a
/// tiny value domain, so joins, conflicts and subsumption all occur often.
fn tables_strategy() -> impl Strategy<Value = Vec<Table>> {
    // Each table: 1..=3 columns drawn from {a, b, c, d}, 1..=4 rows with
    // values from a domain of 4 symbols plus null.
    let column_sets = prop::sample::subsequence(vec!["a", "b", "c", "d"], 1..=3);
    let table = (column_sets, 1usize..=4, 0u64..1000).prop_map(|(cols, rows, seed)| {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        (cols, rows, {
            let mut data = Vec::new();
            for _ in 0..rows {
                let row: Vec<Option<usize>> = (0..3)
                    .map(|_| {
                        let v = next() % 6;
                        if v < 4 {
                            Some(v)
                        } else {
                            None
                        }
                    })
                    .collect();
                data.push(row);
            }
            data
        })
    });
    prop::collection::vec(table, 1..=3).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(t_idx, (cols, rows, data))| {
                let names: Vec<String> = cols.iter().map(|c| c.to_string()).collect();
                let mut builder = TableBuilder::new(format!("T{t_idx}"), names.clone());
                for cells in data.iter().take(rows) {
                    let row: Vec<Value> = (0..names.len())
                        .map(|c| match cells[c] {
                            Some(v) => Value::text(format!("v{v}")),
                            None => Value::Null,
                        })
                        .collect();
                    builder = builder.row_values(row);
                }
                builder.build().expect("valid random table")
            })
            .collect()
    })
}

fn value_multiset(result: &datalake_fuzzy_fd::fd::IntegratedTable) -> Vec<Vec<Value>> {
    let mut values: Vec<Vec<Value>> = result.tuples().iter().map(|t| t.values().to_vec()).collect();
    values.sort();
    values
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The scalable algorithm computes exactly the Full Disjunction defined
    /// by the brute-force specification — and a closure memo never changes
    /// that: cold, warm and storing nothing (capacity 0).
    #[test]
    fn alite_fd_matches_specification(tables in tables_strategy()) {
        let total: usize = tables.iter().map(|t| t.num_rows()).sum();
        prop_assume!(total <= 10);
        let schema = IntegrationSchema::from_matching_headers(&tables);
        let fast = full_disjunction(&schema, &tables);
        let spec = value_multiset(&specification_full_disjunction(&schema, &tables));
        prop_assert_eq!(&value_multiset(&fast), &spec);

        let mut cache = ComponentCache::default();
        let mut storing_nothing = ComponentCache::with_capacity(0);
        for run in ["cold", "warm"] {
            let (memoised, stats) = incremental_full_disjunction_with(&schema, &tables, &mut cache);
            prop_assert_eq!(&value_multiset(&memoised), &spec, "{} cache", run);
            let reusable = if run == "warm" { stats.components } else { 0 };
            prop_assert_eq!(stats.reused_components, reusable, "{} cache", run);

            let (unmemoised, stats) =
                incremental_full_disjunction_with(&schema, &tables, &mut storing_nothing);
            prop_assert_eq!(&value_multiset(&unmemoised), &spec);
            prop_assert_eq!(stats.reused_components, 0);
        }
    }

    /// The parallel variant agrees with the sequential one.
    #[test]
    fn parallel_fd_matches_sequential(tables in tables_strategy()) {
        let schema = IntegrationSchema::from_matching_headers(&tables);
        let sequential = full_disjunction(&schema, &tables);
        let parallel = parallel_full_disjunction(&schema, &tables, 3);
        prop_assert_eq!(value_multiset(&sequential), value_multiset(&parallel));
    }

    /// FD never loses a base tuple: every input tuple is subsumed by some
    /// output tuple, and no output tuple is subsumed by another.
    #[test]
    fn fd_covers_all_base_tuples_and_is_subsumption_free(tables in tables_strategy()) {
        let schema = IntegrationSchema::from_matching_headers(&tables);
        let fd = full_disjunction(&schema, &tables);
        prop_assert!(fd.unrepresented_base_tuples(&schema, &tables).is_empty());
        let tuples = fd.tuples();
        for (i, a) in tuples.iter().enumerate() {
            for (j, b) in tuples.iter().enumerate() {
                if i != j {
                    prop_assert!(
                        !(a.subsumes(b) && a.non_null_count() > b.non_null_count()),
                        "tuple {j} is subsumed by tuple {i}"
                    );
                }
            }
        }
    }
}
