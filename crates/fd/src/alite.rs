//! The scalable, ALITE-style Full Disjunction operator.
//!
//! Pipeline: outer union → join-connectivity partitioning → per-component
//! complementation closure → subsumption removal (done inside the closure).
//! This mirrors the structure of the ALITE implementation the paper uses as
//! its equi-join FD engine, adapted to an in-memory Rust representation.
//!
//! There is one driver; every public entry point is a call into it.
//! Join-connected components are independent, so the components that need
//! closing are scheduled on the workspace's shared work-stealing executor
//! ([`lake_runtime::run_scope`], Paganelli et al. 2019 parallelise FD along
//! the same lines): seeded largest-first by a quadratic cost hint, with
//! stealing correcting any skew the hint missed, and run inline on the
//! calling thread when one worker is asked for.  Closures come back in
//! component order and are concatenated and sorted, so the result is
//! byte-identical across worker counts.
//!
//! An optional [`ComponentCache`] keeps the partition alive for lake-append
//! workloads: an [`IntegrationSession`](../fuzzy_fd_core) appends tables
//! against an already-integrated lake, so successive runs see mostly the
//! *same* components — appended tuples touch only the components they join
//! into, and every other component's closure, a pure function of its
//! members, is unchanged.  With a cache the driver pads, partitions and
//! closes only the rows of the touched components; every retained row is
//! compared with the current one before its component is kept (see
//! [`crate::incremental`]), so the output does not depend on the cache's
//! state.

use lake_runtime::ParallelPolicy;
use lake_table::Table;

use crate::complement::component_closure;
use crate::components::join_components;
use crate::incremental::ComponentCache;
use crate::outer_union::outer_union;
use crate::schema::IntegrationSchema;
use crate::stats::FdStats;
use crate::tuple::{IntegratedTable, IntegratedTuple};

/// Auto-gate floor for `threads == 0`, in cost-hint units (squared component
/// tuple counts): below the equivalent of one 64-tuple component the scoped
/// workers cost more than the closures they would run.
const MIN_AUTO_CLOSURE_COST: u64 = 4_096;

/// Cost hint for one component: closure work (join attempts + subsumption)
/// grows quadratically with the component's tuple count, and a quadratic
/// hint also ranks the giants first for LPT seeding.
fn component_cost(component: &[IntegratedTuple]) -> u64 {
    let len = component.len() as u64;
    len.saturating_mul(len)
}

/// Computes the Full Disjunction of `tables` under `schema` on the calling
/// thread.
pub fn full_disjunction(schema: &IntegrationSchema, tables: &[Table]) -> IntegratedTable {
    run(schema, tables, 1, None).0
}

/// Computes the Full Disjunction using `threads` worker threads: `1` closes
/// every component inline, an explicit count ≥ 2 is a command, and `0`
/// auto-gates on the components' total closure cost (the semantics of
/// [`ParallelPolicy`]).
pub fn parallel_full_disjunction(
    schema: &IntegrationSchema,
    tables: &[Table],
    threads: usize,
) -> IntegratedTable {
    run(schema, tables, threads, None).0
}

/// As [`parallel_full_disjunction`], also returning execution statistics
/// (including [`lake_runtime::RuntimeStats`] describing how the closures
/// were scheduled).
pub fn parallel_full_disjunction_with(
    schema: &IntegrationSchema,
    tables: &[Table],
    threads: usize,
) -> (IntegratedTable, FdStats) {
    run(schema, tables, threads, None)
}

/// As [`parallel_full_disjunction_with`], but keeping in `cache` the
/// components the last run left untouched and closing only those a changed
/// or new row reaches.
///
/// The result is byte-identical for any cache state;
/// [`FdStats::reused_components`] reports how many components were kept as
/// they were, and `stats.runtime` covers only the components that actually
/// ran.
pub fn incremental_full_disjunction_with(
    schema: &IntegrationSchema,
    tables: &[Table],
    threads: usize,
    cache: &mut ComponentCache,
) -> (IntegratedTable, FdStats) {
    run(schema, tables, threads, Some(cache))
}

/// The one FD driver: pad the rows to close — the whole outer union, or what
/// `cache` (if any) does not already hold — partition them into
/// join-connected components, close those on the executor, concatenate with
/// what the cache kept and sort.
fn run(
    schema: &IntegrationSchema,
    tables: &[Table],
    threads: usize,
    mut cache: Option<&mut ComponentCache>,
) -> (IntegratedTable, FdStats) {
    let base = match cache.as_deref_mut() {
        Some(cache) => cache.stage(schema, tables),
        None => outer_union(schema, tables),
    };
    let input_tuples = base.len();
    let components = join_components(&base);

    // Move tuples into per-component member lists (outer-union order within
    // each component) without cloning; the closure consumes its members.
    let mut slots: Vec<Option<IntegratedTuple>> = base.into_iter().map(Some).collect();
    let pending: Vec<Vec<IntegratedTuple>> = components
        .iter()
        .map(|component| {
            component.iter().map(|&i| slots[i].take().expect("tuple moved twice")).collect()
        })
        .collect();
    let policy = ParallelPolicy { threads, min_auto_cost: MIN_AUTO_CLOSURE_COST };
    let (closures, runtime) = lake_runtime::run_scope(
        &policy,
        pending,
        |members| component_cost(members),
        component_closure,
    );

    let (tuples, stats) = match cache {
        Some(cache) => cache.commit(components, closures, runtime),
        None => {
            let mut tuples: Vec<IntegratedTuple> =
                Vec::with_capacity(closures.iter().map(Vec::len).sum());
            for closure in closures {
                tuples.extend(closure);
            }
            let stats = FdStats {
                input_tuples,
                output_tuples: tuples.len(),
                components: components.len(),
                largest_component: components.iter().map(|c| c.len()).max().unwrap_or(0),
                reused_components: 0,
                runtime,
            };
            (tuples, stats)
        }
    };
    let result = IntegratedTable::new(schema.column_names().to_vec(), tuples).sorted();
    (result, stats)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::spec::specification_full_disjunction;
    use lake_table::{TableBuilder, Value};

    /// The three COVID tables of the paper's Figure 1 (equi-join values).
    fn figure1_tables() -> Vec<Table> {
        vec![
            TableBuilder::new("T1", ["City", "Country"])
                .row(["Berlinn", "Germany"])
                .row(["Toronto", "Canada"])
                .row(["Barcelona", "Spain"])
                .row(["New Delhi", "India"])
                .build()
                .unwrap(),
            TableBuilder::new("T2", ["Country", "City", "Vac. Rate (1+ dose)"])
                .row(["CA", "Toronto", "83%"])
                .row(["US", "Boston", "62%"])
                .row(["DE", "Berlin", "63%"])
                .row(["ES", "Barcelona", "82%"])
                .build()
                .unwrap(),
            TableBuilder::new("T3", ["City", "Total Cases", "Death Rate (per 100k)"])
                .row(["Berlin", "1.4M", "147"])
                .row(["barcelona", "2.68M", "275"])
                .row(["Boston", "263K", "335"])
                .build()
                .unwrap(),
        ]
    }

    #[test]
    fn equi_join_fd_reproduces_figure1_left_table() {
        // With literal (inconsistent) values, equi-join FD produces the nine
        // tuples f1..f9 of Figure 1.
        let tables = figure1_tables();
        let schema = IntegrationSchema::from_matching_headers(&tables);
        let fd = full_disjunction(&schema, &tables);
        assert_eq!(fd.len(), 9, "{:#?}", fd.tuples());
        assert!(fd.unrepresented_base_tuples(&schema, &tables).is_empty());

        // t6 (Boston, US, 62%) and t11 (Boston, 263K, 335) merge into f6.
        let boston = fd
            .tuples()
            .iter()
            .find(|t| t.values().contains(&Value::text("Boston")) && t.non_null_count() >= 5)
            .expect("merged Boston tuple");
        assert_eq!(boston.provenance().len(), 2);

        // The typo tuple "Berlinn" stays un-merged (that is the paper's point).
        let berlinn = fd
            .tuples()
            .iter()
            .find(|t| t.values().contains(&Value::text("Berlinn")))
            .expect("Berlinn tuple present");
        assert_eq!(berlinn.provenance().len(), 1);
    }

    #[test]
    fn matches_specification_on_small_inputs() {
        let tables = figure1_tables();
        let schema = IntegrationSchema::from_matching_headers(&tables);
        let fast = full_disjunction(&schema, &tables);
        let spec = specification_full_disjunction(&schema, &tables);
        // Compare value sets (provenance bookkeeping may differ in ordering).
        let fast_values: Vec<&[Value]> = fast.tuples().iter().map(|t| t.values()).collect();
        let spec_values: Vec<&[Value]> = spec.tuples().iter().map(|t| t.values()).collect();
        assert_eq!(fast_values, spec_values);
    }

    #[test]
    fn partitioning_does_not_change_the_result() {
        // Closing the whole outer union as one component is the unpartitioned
        // operator; partitioning only skips join attempts that cannot succeed.
        let tables = figure1_tables();
        let schema = IntegrationSchema::from_matching_headers(&tables);
        let (with, stats) = parallel_full_disjunction_with(&schema, &tables, 1);
        let without = IntegratedTable::new(
            schema.column_names().to_vec(),
            component_closure(outer_union(&schema, &tables)),
        )
        .sorted();
        assert_eq!(with, without);
        assert!(stats.components > 1);
        assert_eq!(stats.input_tuples, 11);
        assert_eq!(stats.output_tuples, 9);
    }

    #[test]
    fn empty_input_tables() {
        let tables = vec![
            TableBuilder::new("A", ["x"]).build().unwrap(),
            TableBuilder::new("B", ["x"]).build().unwrap(),
        ];
        let schema = IntegrationSchema::from_matching_headers(&tables);
        let fd = full_disjunction(&schema, &tables);
        assert!(fd.is_empty());
    }

    #[test]
    fn single_table_fd_is_the_table_itself_modulo_subsumption() {
        let tables = vec![TableBuilder::new("A", ["x", "y"])
            .row(["1", "2"])
            .row(["1", "2"]) // duplicate collapses
            .row(["3", "4"])
            .build()
            .unwrap()];
        let schema = IntegrationSchema::from_matching_headers(&tables);
        let fd = full_disjunction(&schema, &tables);
        assert_eq!(fd.len(), 2);
    }

    /// `rows` key components, every second one joining two tables.
    pub(crate) fn keyed_lake(rows: usize) -> Vec<Table> {
        let mut a = TableBuilder::new("A", ["id", "x"]);
        let mut b = TableBuilder::new("B", ["id", "y"]);
        for i in 0..rows {
            a = a.row([format!("k{i}"), format!("x{i}")]);
            if i % 2 == 0 {
                b = b.row([format!("k{i}"), format!("y{i}")]);
            }
        }
        vec![a.build().unwrap(), b.build().unwrap()]
    }

    #[test]
    fn parallel_matches_sequential() {
        let tables = keyed_lake(40);
        let schema = IntegrationSchema::from_matching_headers(&tables);
        let sequential = full_disjunction(&schema, &tables);
        for threads in [0, 2, 3, 4] {
            let parallel = parallel_full_disjunction(&schema, &tables, threads);
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn one_and_two_threads_agree_and_schedule_every_component() {
        let tables = keyed_lake(40);
        let schema = IntegrationSchema::from_matching_headers(&tables);
        let (one, stats_one) = parallel_full_disjunction_with(&schema, &tables, 1);
        let (two, stats_two) = parallel_full_disjunction_with(&schema, &tables, 2);
        assert_eq!(one, two);
        assert_eq!(one, full_disjunction(&schema, &tables));
        // Only how the closures were scheduled may differ.
        let without_runtime =
            |stats: &FdStats| FdStats { runtime: Default::default(), ..stats.clone() };
        assert_eq!(without_runtime(&stats_one), without_runtime(&stats_two));
        assert_eq!(stats_one.input_tuples, 60);
        assert_eq!(stats_one.runtime.tasks, stats_one.components as u64);
        assert_eq!(stats_two.runtime.tasks, stats_two.components as u64);
        assert_eq!(stats_one.runtime.workers(), 1);
    }

    #[test]
    fn stats_are_reported() {
        let tables = keyed_lake(40);
        let schema = IntegrationSchema::from_matching_headers(&tables);
        let (_, stats) = parallel_full_disjunction_with(&schema, &tables, 2);
        assert_eq!(stats.input_tuples, 60);
        assert_eq!(stats.components, 40);
        assert_eq!(stats.output_tuples, 40);
        assert_eq!(stats.largest_component, 2);
        // Every component closure went through the executor on two workers.
        assert_eq!(stats.runtime.tasks, 40);
        assert_eq!(stats.runtime.workers(), 2);
    }

    #[test]
    fn auto_mode_gates_tiny_inputs_to_one_worker() {
        let tables = keyed_lake(40);
        let schema = IntegrationSchema::from_matching_headers(&tables);
        // 40 components of ≤ 2 tuples: total closure cost ≈ 140 units, far
        // below the floor, so auto mode stays inline (but still schedules).
        let (result, stats) = parallel_full_disjunction_with(&schema, &tables, 0);
        assert_eq!(result, full_disjunction(&schema, &tables));
        assert_eq!(stats.runtime.tasks, 40);
        assert_eq!(stats.runtime.workers(), 1, "tiny batches must not spawn workers");
    }
}
