//! The delta path of [`incremental_full_disjunction_with`] under a generator:
//! a small random lake evolves step by step — tables are appended (joining
//! old components, bridging two of them, aligning a column that stood alone
//! so integrated columns move), cells of *old* rows are rewritten (splitting
//! components), a row goes all-null and comes back, the lake is swapped for
//! an unrelated one of equal table count — and after every step the cache
//! that has seen the whole history must answer exactly like
//! [`full_disjunction`] from scratch.

use lake_fd::{
    full_disjunction, incremental_full_disjunction_with, ComponentCache, IntegrationSchema,
};
use lake_table::{Table, TableBuilder, Value};
use proptest::prelude::*;

const COLUMNS: [&str; 5] = ["a", "b", "c", "d", "e"];
const VALUES: usize = 5;

struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize % n
    }

    /// A value of the domain, or null two times in seven.
    fn cell(&mut self) -> Option<usize> {
        Some(self.below(VALUES + 2)).filter(|&v| v < VALUES)
    }
}

#[derive(Clone)]
struct Spec {
    columns: Vec<&'static str>,
    rows: Vec<Vec<Option<usize>>>,
}

impl Spec {
    /// One to three distinct columns of the universe, one to three rows.
    fn random(rng: &mut Lcg) -> Spec {
        let mut columns: Vec<&'static str> =
            COLUMNS.iter().copied().filter(|_| rng.below(2) == 0).take(3).collect();
        if columns.is_empty() {
            columns.push(COLUMNS[rng.below(COLUMNS.len())]);
        }
        let rows = (0..1 + rng.below(3))
            .map(|_| (0..columns.len()).map(|_| rng.cell()).collect())
            .collect();
        Spec { columns, rows }
    }

    fn table(&self, index: usize) -> Table {
        let mut builder = TableBuilder::new(format!("T{index}"), self.columns.clone());
        for row in &self.rows {
            builder = builder.row_values(
                row.iter().map(|cell| cell.map_or(Value::Null, |v| Value::text(format!("v{v}")))),
            );
        }
        builder.build().expect("valid random table")
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn every_step_of_an_evolving_lake_matches_a_run_from_scratch(seed in 0u64..1_000_000) {
        let mut rng = Lcg(seed);
        let mut lake: Vec<Spec> = (0..1 + rng.below(2)).map(|_| Spec::random(&mut rng)).collect();
        // The row nulled out by the last "null" step, to be restored.
        let mut nulled: Option<(usize, usize, Vec<Option<usize>>)> = None;
        let mut cache = ComponentCache::default();

        for step in 0..8 {
            match rng.below(6) {
                _ if step == 0 => {}
                // An arrival: joins, bridges, widens or re-aligns, as it falls.
                0 | 1 if lake.len() < 6 => lake.push(Spec::random(&mut rng)),
                // Old rows change under the partition (a re-election).
                2 | 3 => {
                    for _ in 0..1 + rng.below(3) {
                        let t = rng.below(lake.len());
                        let r = rng.below(lake[t].rows.len());
                        let c = rng.below(lake[t].columns.len());
                        lake[t].rows[r][c] = rng.cell();
                    }
                }
                4 => match nulled.take() {
                    // Restore it, unless a foreign lake took its place.
                    Some((t, r, row))
                        if lake[t].rows.get(r).is_some_and(|now| now.len() == row.len()) =>
                    {
                        lake[t].rows[r] = row;
                    }
                    _ => {
                        let t = rng.below(lake.len());
                        let r = rng.below(lake[t].rows.len());
                        let nulls = vec![None; lake[t].columns.len()];
                        nulled = Some((t, r, std::mem::replace(&mut lake[t].rows[r], nulls)));
                    }
                },
                // An unrelated lake of equal table count, same table names.
                _ => lake = lake.iter().map(|_| Spec::random(&mut rng)).collect(),
            }

            let tables: Vec<Table> =
                lake.iter().enumerate().map(|(i, spec)| spec.table(i)).collect();
            let schema = IntegrationSchema::from_matching_headers(&tables);
            let scratch = full_disjunction(&schema, &tables);
            let (live, stats) = incremental_full_disjunction_with(&schema, &tables, &mut cache);
            prop_assert_eq!(&live, &scratch, "step {}", step);
            prop_assert_eq!(
                stats.reused_components + stats.runtime.tasks as usize,
                stats.components
            );
            prop_assert_eq!(cache.len(), stats.components);
        }
    }
}
