//! Equivalence harness for incremental integration sessions.
//!
//! An [`IntegrationSession`] must be a faithful optimisation of batch
//! re-integration: after any sequence of `add_table` calls, the integrated
//! table and the value groups must be byte-identical to one
//! [`FuzzyFullDisjunction::integrate_by_headers`] call over all tables —
//! while re-planning strictly fewer folds, hitting the warmed embedding
//! cache, and reusing unchanged FD component closures.

use datalake_fuzzy_fd::benchdata::{
    generate_append_workload, generate_autojoin_benchmark, AppendWorkloadConfig, AutoJoinConfig,
};
use datalake_fuzzy_fd::core::{
    FuzzyFdConfig, FuzzyFullDisjunction, IncrementalPolicy, IntegrationSession,
};
use datalake_fuzzy_fd::table::Table;

fn batch(config: FuzzyFdConfig, tables: &[Table]) -> datalake_fuzzy_fd::core::IntegrationOutcome {
    FuzzyFullDisjunction::new(config).integrate_by_headers(tables).expect("batch integration")
}

/// Acceptance: on the Auto-Join 150-value set, appending the last column's
/// table to a warm session produces output byte-identical to batch
/// re-integration, while re-planning strictly fewer folds (asserted via
/// `BlockingStats.folds`).
#[test]
fn autojoin_150_session_append_is_byte_identical_to_batch() {
    // Set 1 of the generator has three aligned columns — two to open the
    // session with, one to append.
    let config =
        AutoJoinConfig { num_sets: 2, values_per_column: 150, ..AutoJoinConfig::default() };
    let set = generate_autojoin_benchmark(config).remove(1);
    let tables = set.tables();
    assert_eq!(tables.len(), 3, "the harness needs a three-column set");

    let fd_config = FuzzyFdConfig::default();
    let reference = batch(fd_config, &tables);

    let mut session = IntegrationSession::begin(fd_config, &tables[..2]).expect("session open");
    let initial_folds = session.current().report.blocking.folds;
    let outcome = session.add_table(&tables[2]).expect("append");

    // Byte-identical output: the integrated table (values, provenance and
    // order) and every value group.
    assert_eq!(outcome.table, reference.table, "session output diverged from batch");
    assert_eq!(outcome.value_groups, reference.value_groups);

    // Strictly fewer folds: the append plans only the new column's fold,
    // batch re-plans the whole chain.
    assert!(
        outcome.report.blocking.folds < reference.report.blocking.folds,
        "append planned {} folds, batch planned {}",
        outcome.report.blocking.folds,
        reference.report.blocking.folds
    );
    assert_eq!(outcome.report.blocking.folds, 1, "one appended column = one fold");
    assert_eq!(initial_folds + outcome.report.blocking.folds, reference.report.blocking.folds);

    // The appended fold ran against the warmed cache: the combined column's
    // 150 values were all embedded in the initial call.
    assert!(
        outcome.incremental.embed_hits > 0,
        "appending must hit the warm cache: {:?}",
        outcome.incremental
    );
    assert_eq!(outcome.incremental.refolded_sets, 1);
    assert_eq!(outcome.incremental.rebuilt_sets, 0);
}

/// The same equivalence, one table at a time over the append workload (which
/// widens the integration schema on every append — the FD cache must remap,
/// not reset), checked against batch at every prefix.
#[test]
fn append_workload_stays_equivalent_at_every_step() {
    let workload = generate_append_workload(AppendWorkloadConfig {
        entities: 60,
        initial_tables: 2,
        appended_tables: 2,
        ..AppendWorkloadConfig::default()
    });
    // Two workers: the appended columns' warm-up batches run on the shared
    // executor, where already-cached values surface as cache hits.
    let fd_config = FuzzyFdConfig { matching_threads: 2, ..FuzzyFdConfig::default() };

    let mut session = IntegrationSession::begin(fd_config, &workload.initial).expect("open");
    let mut integrated: Vec<Table> = workload.initial.clone();
    assert_eq!(session.current().table, batch(fd_config, &integrated).table);

    let mut fast_path_steps = 0usize;
    for table in &workload.appends {
        let outcome = session.add_table(table).expect("append");
        integrated.push(table.clone());
        let reference = batch(fd_config, &integrated);
        assert_eq!(outcome.table, reference.table, "diverged after {}", table.name());
        assert_eq!(outcome.value_groups, reference.value_groups);
        // A step never plans more folds than batch; a coinciding typo across
        // tables can trip the representative drift guard into a full
        // re-match of the set (folds equal to batch — path coverage the
        // workload deliberately keeps), but the extend fast path must be
        // exercised too.
        assert!(outcome.report.blocking.folds <= reference.report.blocking.folds);
        if outcome.report.blocking.folds < reference.report.blocking.folds {
            fast_path_steps += 1;
            assert!(outcome.incremental.refolded_sets > 0, "{:?}", outcome.incremental);
        }
        // The private attribute columns widen the schema every time; the
        // remapped FD cache must still reuse the untouched components.
        assert!(
            outcome.report.fd_stats.reused_components > 0,
            "no FD reuse after {}: {:?}",
            table.name(),
            outcome.report.fd_stats
        );
        assert!(outcome.incremental.embed_hits > 0);
    }
    assert!(fast_path_steps > 0, "no append took the strictly-fewer-folds fast path");

    let (embed_hits, embed_misses) = session.embedding_stats();
    assert!(embed_hits > 0 && embed_misses > 0);
    let (fd_hits, _) = session.fd_cache_stats();
    assert!(fd_hits > 0);
}

/// Reuse must not depend on the worker-thread count, and every
/// `IncrementalPolicy` switch must land on the same bytes.
#[test]
fn sessions_are_policy_and_thread_count_invariant() {
    let workload = generate_append_workload(AppendWorkloadConfig {
        entities: 40,
        initial_tables: 2,
        appended_tables: 1,
        ..AppendWorkloadConfig::default()
    });
    let reference = batch(FuzzyFdConfig::default(), &workload.all_tables());

    for threads in [1usize, 0, 3] {
        for policy in [IncrementalPolicy::default(), IncrementalPolicy::full_recompute()] {
            let config = FuzzyFdConfig { matching_threads: threads, ..FuzzyFdConfig::default() };
            let mut session =
                IntegrationSession::begin_with_policy(config, policy, &workload.initial)
                    .expect("open");
            let outcome = session.add_table(&workload.appends[0]).expect("append");
            assert_eq!(outcome.table, reference.table, "threads = {threads}, policy = {policy:?}");
            assert_eq!(outcome.value_groups, reference.value_groups);
        }
    }
}

/// Representative-flip counterexample: an appended duplicate re-elects a
/// group representative, the known mechanism by which blind state extension
/// could diverge from batch.  The session's drift guard must rebuild the
/// set and stay byte-identical at every prefix.
#[test]
fn representative_flips_stay_batch_identical() {
    use datalake_fuzzy_fd::table::TableBuilder;

    let column_table =
        |name: &str, value: &str| TableBuilder::new(name, ["c"]).row([value]).build().unwrap();
    // Two shapes of the same attack: the flip is consumed by the fold the
    // flipping value arrives in (first sequence), and by a retained fold
    // that ran *after* the group's last member joined (second sequence —
    // "coloy" must match against the re-elected "colou", not the stale
    // "colour").
    let sequences =
        [["colour", "colou", "colouur", "colou"], ["colour", "colou", "coloy", "colou"]];
    for values in sequences {
        let tables: Vec<_> = values
            .iter()
            .enumerate()
            .map(|(i, value)| column_table(&format!("S{i}"), value))
            .collect();
        let mut session =
            IntegrationSession::begin(FuzzyFdConfig::default(), &tables[..2]).expect("open");
        for (idx, table) in tables.iter().enumerate().skip(2) {
            let outcome = session.add_table(table).expect("append");
            let reference = batch(FuzzyFdConfig::default(), &tables[..=idx]);
            assert_eq!(outcome.table, reference.table, "{values:?} diverged at prefix {}", idx + 1);
            assert_eq!(outcome.value_groups, reference.value_groups);
        }
        assert!(
            session.current().incremental.rebuilt_sets > 0,
            "{values:?}: the duplicate must trip the drift guard: {:?}",
            session.current().incremental
        );
    }
}

/// Batched appends (`add_tables`) equal one-at-a-time appends and batch
/// re-integration.
#[test]
fn batched_appends_match_single_appends() {
    let workload = generate_append_workload(AppendWorkloadConfig {
        entities: 40,
        initial_tables: 1,
        appended_tables: 3,
        ..AppendWorkloadConfig::default()
    });
    let fd_config = FuzzyFdConfig::default();
    let reference = batch(fd_config, &workload.all_tables());

    let mut one_shot = IntegrationSession::begin(fd_config, &workload.initial).expect("open");
    let batched = one_shot.add_tables(&workload.appends).expect("batched append");
    assert_eq!(batched.table, reference.table);
    assert_eq!(batched.incremental.appended_tables, 3);

    let mut stepwise = IntegrationSession::begin(fd_config, &workload.initial).expect("open");
    let mut last = None;
    for table in &workload.appends {
        last = Some(stepwise.add_table(table).expect("append"));
    }
    let last = last.unwrap();
    assert_eq!(last.table, reference.table);
    assert_eq!(last.value_groups, batched.value_groups);
}

/// The embedding cache counts one lookup per value the matcher embeds, so
/// batching the embeddings must leave every hit and miss where it was: on
/// Auto-Join set 1, opened on two tables and appended the third, at one
/// worker (no warm-up: the matcher's own lookups) and at two (a parallel
/// warm-up first, then the matcher hits it).
#[test]
fn autojoin_session_embed_counters_are_pinned() {
    let config = AutoJoinConfig { num_sets: 3, ..AutoJoinConfig::default() };
    let set = generate_autojoin_benchmark(config).remove(1);
    let tables = set.tables();
    assert_eq!(tables.len(), 3);
    // (threads, begin (hits, misses), append (hits, misses)).
    let pinned = [(1, (0, 265), (15, 94)), (2, (265, 265), (146, 94))];
    for (threads, begin, append) in pinned {
        let fd_config = FuzzyFdConfig { matching_threads: threads, ..FuzzyFdConfig::default() };
        let mut session = IntegrationSession::begin(fd_config, &tables[..2]).expect("open");
        let opened = &session.current().incremental;
        assert_eq!((opened.embed_hits, opened.embed_misses), begin, "begin at {threads} threads");
        let appended = &session.add_table(&tables[2]).expect("append").incremental;
        assert_eq!(
            (appended.embed_hits, appended.embed_misses),
            append,
            "append at {threads} threads"
        );
    }
}
