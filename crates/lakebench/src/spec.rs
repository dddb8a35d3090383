//! The names the benchmark fixes: workloads, end-to-end metrics and
//! per-layer metrics.  `BENCHMARK.json` at the repository root is
//! [`manifest_json`] verbatim (a test holds the two together); every later
//! change refers to these names.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    /// The metric's name (letters, digits, `_`, `.`, `-`).
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// For end-to-end metrics, the share of the parent's median by which
    /// it may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec { name, unit, better, bound }
}

const fn low(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better: Better::Lower, bound: 0.0 }
}

const fn high(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better: Better::Higher, bound: 0.0 }
}

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// The paper's Fig. 3 lake: six key-joinable IMDB-shaped tables.
    ImdbEqui,
    /// The paper's Table 1 lake: 31 Auto-Join sets of fuzzy columns.
    AutojoinFuzzy,
    /// One lake-scale fold on the escalated-ANN tier.
    EscalationFold,
    /// A session lifecycle on a deepening lake.
    LakeGrowth,
    /// A durable multi-tenant server under paced and burst load.
    ServeMixed,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::ImdbEqui,
        Workload::AutojoinFuzzy,
        Workload::EscalationFold,
        Workload::LakeGrowth,
        Workload::ServeMixed,
    ];

    /// The workload's name in `BENCHMARK.json` and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ImdbEqui => "imdb_equi",
            Workload::AutojoinFuzzy => "autojoin_fuzzy",
            Workload::EscalationFold => "escalation_fold",
            Workload::LakeGrowth => "lake_growth",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// One line on why the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ImdbEqui => {
                "paper Fig. 3: eight lakes of six key-joinable tables, 2000 tuples in all; FD closure is ~98% of the time and matching ~1%, so an fd change shows here and an embed or core change must not"
            }
            Workload::AutojoinFuzzy => {
                "paper Table 1: 31 sets x 150 fuzzy values, many small exact-sweep folds; embedding dominates, then the matcher, FD is small; carries the paper's match F1"
            }
            Workload::EscalationFold => {
                "one 4200-entity fold on the escalated-ANN tier: the same matcher as autojoin_fuzzy used the other way (one huge fold), so a planner change that helps one and costs the other shows"
            }
            Workload::LakeGrowth => {
                "session begin + 5 add_table on six lakes of deepening join components: the fd layer through the incremental path and its cache, where per-append cost grows ~4x per table"
            }
            Workload::ServeMixed => {
                "16 namespaced tenants x 4 tables into a durable 2-shard server over loopback, paced open-loop writes beside reads, then burst and restart: the only workload where serve and store work"
            }
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Seconds one run measures for (the contract's `run_seconds`).
pub const RUN_SECONDS: u64 = 22;

/// The end-to-end metrics.  Every workload reports every one of them (the
/// contract's result line has no room for "not applicable"); the crate
/// README says what the served ones fall back to on a library workload.
pub const END_TO_END: [MetricSpec; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("integrate_s", "s", Better::Lower, 0.25),
    e2e("fuzzy_overhead", "ratio", Better::Lower, 0.25),
    e2e("match_f1", "ratio", Better::Higher, 0.04),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25),
    e2e("ack_p50_ms", "ms", Better::Lower, 0.25),
    e2e("query_p50_ms", "ms", Better::Lower, 0.25),
    e2e("recover_s", "s", Better::Lower, 0.25),
];

/// The per-layer metrics of the traced mode; the prefix before the first
/// `.` is the crate the time or count belongs to (`lakebench` for what the
/// benchmark observes about itself and the end-to-end tails).
pub const PER_LAYER: [MetricSpec; 86] = [
    // table
    low("table.csv_parse_ms", "ms"),
    high("table.csv_mb_per_s", "MB/s"),
    low("table.project_ms", "ms"),
    // schema-match
    low("schema-match.align_ms", "ms"),
    // text (probe: the largest fold's distinct values)
    low("text.block_keys_ms", "ms"),
    low("text.keys_per_value", "count"),
    // embed
    low("embed.embed_ms", "ms"),
    low("embed.values", "count"),
    low("embed.us_per_value", "us"),
    high("embed.cache_hit_ratio", "ratio"),
    low("embed.kernel_sweep_ms", "ms"),
    high("embed.kernel_mpairs_per_s", "Mpairs/s"),
    high("embed.kernel_skipped_share", "share"),
    low("embed.kernel_rescored_share", "share"),
    low("embed.ann_build_ms", "ms"),
    low("embed.ann_probe_ms", "ms"),
    low("embed.ann_candidates_per_query", "count"),
    // core
    low("core.match_ms", "ms"),
    low("core.plan_ms", "ms"),
    low("core.folds", "count"),
    low("core.escalated_folds", "count"),
    low("core.blocks", "count"),
    low("core.candidate_pairs", "count"),
    low("core.scored_pairs", "count"),
    high("core.pruned_share", "share"),
    low("core.max_block_size", "count"),
    low("core.rewrite_ms", "ms"),
    low("core.rewritten_cells", "count"),
    low("core.session_begin_ms", "ms"),
    low("core.session_first_append_ms", "ms"),
    low("core.session_last_append_ms", "ms"),
    low("core.session_growth_ratio", "ratio"),
    low("core.session_replay_ms", "ms"),
    low("core.session_fd_share", "share"),
    low("core.session_refolded_sets", "count"),
    high("core.session_reused_sets", "count"),
    high("core.session_embed_hit_ratio", "ratio"),
    // assign (probe: a distance matrix of the largest fold, dense vs sparse)
    low("assign.sap_dense_ms", "ms"),
    low("assign.sap_sparse_ms", "ms"),
    low("assign.cells", "count"),
    // fd
    low("fd.schema_ms", "ms"),
    low("fd.closure_ms", "ms"),
    low("fd.regular_ms", "ms"),
    low("fd.input_tuples", "count"),
    low("fd.output_tuples", "count"),
    low("fd.components", "count"),
    low("fd.largest_component", "count"),
    low("fd.us_per_input_tuple", "us"),
    high("fd.reused_share", "share"),
    // runtime
    high("runtime.fd_parallel_speedup", "ratio"),
    low("runtime.tasks", "count"),
    low("runtime.steals", "count"),
    low("runtime.imbalance", "ratio"),
    // store (probes on the workload's own tables)
    low("store.append_p50_us", "us"),
    low("store.append_nofsync_p50_us", "us"),
    low("store.fsyncs_per_append", "ratio"),
    low("store.wal_bytes_per_user_byte", "ratio"),
    low("store.checkpoint_ms", "ms"),
    low("store.open_ms", "ms"),
    low("store.restore_ms", "ms"),
    high("store.pool_hit_ratio", "ratio"),
    // serve (probes on the workload's own tables and final lake)
    low("serve.http_parse_us", "us"),
    low("serve.parse_ingest_us", "us"),
    low("serve.snapshot_build_us", "us"),
    low("serve.render_query_us", "us"),
    low("serve.query_bytes", "count"),
    low("serve.connect_us", "us"),
    // serve (observed on serve_mixed; 0 where nothing is served)
    low("serve.ack_over_10ms_share", "share"),
    low("serve.query_over_20ms_share", "share"),
    low("serve.gen_late_share", "share"),
    low("serve.paced_backlog", "count"),
    low("serve.rejected", "count"),
    low("serve.acks", "count"),
    low("serve.queries", "count"),
    // lakebench: the benchmark about itself, and the end-to-end tails
    low("lakebench.ack_p90_ms", "ms"),
    low("lakebench.query_p90_ms", "ms"),
    low("lakebench.unit_ms", "ms"),
    low("lakebench.untraced_ms", "ms"),
    low("lakebench.traced_ms", "ms"),
    low("lakebench.trace_overhead_ms", "ms"),
    low("lakebench.span_sum_ms", "ms"),
    high("lakebench.span_coverage", "ratio"),
    low("lakebench.samples", "count"),
    low("lakebench.spans", "count"),
    low("lakebench.output_digest", "count"),
    low("lakebench.output_tuples", "count"),
];

/// The contents of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"-p\", \"lakebench\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"crates/lakebench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why()))
        .collect();
    out.push_str(&workloads.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    out.push_str(&end_to_end.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    out.push_str(&per_layer.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal_name(name: &str) -> bool {
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(legal_name(metric.name), "{}", metric.name);
            assert!(seen.insert(metric.name), "duplicate name {}", metric.name);
            assert!(metric.unit.len() <= 16, "{}", metric.unit);
            assert!(
                metric.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                metric.unit
            );
            assert!((0.0..=0.25).contains(&metric.bound), "{}", metric.name);
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        for workload in Workload::ALL {
            assert!(legal_name(workload.name()) && seen.insert(workload.name()));
            assert!(workload.why().len() <= 200 && !workload.why().contains('\n'));
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn manifest_is_valid_json_with_exactly_the_contract_keys() {
        let manifest = serde_json::from_str(&manifest_json()).unwrap();
        let keys: Vec<&str> =
            manifest.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert_eq!(manifest.get("workloads").unwrap().as_array().unwrap().len(), 5);
        assert!(manifest_json().len() < 64 * 1024);
    }
}
