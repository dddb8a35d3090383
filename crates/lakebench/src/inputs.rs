//! Seeded inputs of the five workloads.
//!
//! Everything a workload consumes is generated here from the benchmark
//! seed and handed over as *rendered* input — CSV text for the library
//! workloads, `POST /ingest` bodies for the served one — so the program
//! under test receives only what a user would give it.

use std::collections::BTreeMap;

use lake_benchdata::{
    generate_append_workload, generate_autojoin_benchmark, generate_escalation_fold,
    generate_imdb_benchmark, generate_serving_trace, AppendWorkloadConfig, Arrival, AutoJoinConfig,
    EscalationFoldConfig, ImdbConfig, ServingTraceConfig,
};
use lake_metrics::PairSet;
use lake_serve::{route_group, wire};
use lake_table::{csv::to_csv, Table, TableBuilder};

use crate::spec::Workload;

/// Most tenants a served trace may have: the lexicon has 17 topics and two
/// tenants sharing a topic header would join through it.
pub const MAX_TENANTS: usize = 16;

/// Shards of the served workload (the `ServePolicy` default).
pub const SHARDS: usize = 2;

/// Input sizes: the recorded benchmark sizes, or a miniature of each
/// workload for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` was recorded at.
    Full,
    /// Seconds-scale miniatures (smoke test only; numbers mean nothing).
    Tiny,
}

/// One input table as the user holds it: a name and CSV text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceTable {
    /// Table name (provenance ids derive from it).
    pub name: String,
    /// The table rendered as CSV (header row first).
    pub csv: String,
}

/// Gold cross-column value pairs of one aligned column set, keyed like
/// `lake_bench::table1`: `(column position within the set, value)`.
pub type GoldPairs = PairSet<(usize, String)>;

/// One lake: tables that are integrated together.
#[derive(Debug, Clone)]
pub struct LakeSet {
    /// The tables, in arrival order.
    pub sources: Vec<SourceTable>,
    /// How the workload hands the tables over: sizes of the initial
    /// `begin` batch and of every later `add_tables` call.  A single entry
    /// is one batch integration.
    pub batches: Vec<usize>,
    /// Gold value pairs per aligned header (lower-cased).
    pub gold: BTreeMap<String, GoldPairs>,
    /// The lake's *clean twin*: the same tables with every value replaced
    /// by its gold cluster's canonical form, so that the regular equi-join
    /// FD integrates the twin as completely as a perfect matcher would
    /// integrate the lake.  The baseline of `fuzzy_overhead`.
    pub clean: Vec<SourceTable>,
}

/// One arrival of the served workload.
#[derive(Debug, Clone)]
pub struct ServedArrival {
    /// Tenant name (the wire `group`).
    pub tenant: String,
    /// Shard the tenant routes to.
    pub shard: usize,
    /// The rendered `POST /ingest` body.
    pub body: String,
}

/// The generated inputs of one workload.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The lakes.  For `serve_mixed`: one per shard, holding that shard's
    /// arrivals in arrival order.
    pub sets: Vec<LakeSet>,
    /// The arrival trace (`serve_mixed` only, empty otherwise).
    pub arrivals: Vec<ServedArrival>,
}

/// Mixes the benchmark seed into a generator's stock seed, so seed 0 is
/// not the stock data and nearby seeds are unrelated.
pub fn mix_seed(stock: u64, seed: u64) -> u64 {
    stock ^ seed.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Generates the inputs of `workload` from `seed`.
pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Inputs {
    let tiny = scale == Scale::Tiny;
    match workload {
        Workload::ImdbEqui => {
            // Eight lakes of 250 tuples, not one of 2000: integration is
            // linear in the tuples, so the work is the same, and a piece
            // of 80 ms finds an undisturbed window on a shared box far
            // more often than one of 650 ms (see `stats::fastest`).
            let stock = ImdbConfig::default();
            let (lakes, tuples) = if tiny { (1, 13) } else { (8, 250) };
            let lakes = (0..lakes).map(|lake| {
                let tables = generate_imdb_benchmark(ImdbConfig {
                    total_tuples: tuples,
                    seed: mix_seed(stock.seed, seed).wrapping_add(lake),
                });
                let gold = equality_gold(&tables, &["tconst", "nconst"]);
                lake_set(&tables, vec![tables.len()], gold)
            });
            library_inputs(lakes.collect())
        }
        Workload::AutojoinFuzzy => {
            let stock = AutoJoinConfig::default();
            let config = if tiny {
                AutoJoinConfig { num_sets: 2, values_per_column: 12, ..stock }
            } else {
                stock
            };
            let sets = generate_autojoin_benchmark(AutoJoinConfig {
                seed: mix_seed(stock.seed, seed),
                ..config
            });
            library_inputs(
                sets.iter()
                    .map(|set| {
                        let tables = set.tables();
                        let gold =
                            BTreeMap::from([(set.topic.name().to_string(), set.gold.clone())]);
                        lake_set(&tables, vec![tables.len()], gold)
                    })
                    .collect(),
            )
        }
        Workload::EscalationFold => {
            let stock = EscalationFoldConfig::default();
            let fold = generate_escalation_fold(EscalationFoldConfig {
                entities: if tiny { 40 } else { 4_200 },
                seed: mix_seed(stock.seed, seed),
                ..stock
            });
            let tables: Vec<Table> = fold
                .columns
                .iter()
                .enumerate()
                .map(|(i, values)| {
                    let mut builder = TableBuilder::new(format!("E{i}"), ["entity"]);
                    for value in values {
                        builder = builder.row([value.as_str()]);
                    }
                    builder.build().expect("escalation table construction cannot fail")
                })
                .collect();
            let mut pairs = GoldPairs::new();
            for (canonical, variant) in &fold.gold {
                pairs.insert((0, canonical.clone()), (1, variant.clone()));
            }
            let gold = BTreeMap::from([("entity".to_string(), pairs)]);
            library_inputs(vec![lake_set(&tables, vec![2], gold)])
        }
        Workload::LakeGrowth => {
            // Six lakes of 10 entities, not one of 60, for the same reason:
            // a lifecycle is linear in the entities (and steep in the
            // depth, which stays).
            let stock = AppendWorkloadConfig::default();
            let (lakes, entities, appended) = if tiny { (1, 8, 2) } else { (6, 10, 5) };
            let lakes = (0..lakes).map(|lake| {
                let workload = generate_append_workload(AppendWorkloadConfig {
                    entities,
                    initial_tables: 2,
                    appended_tables: appended,
                    seed: mix_seed(stock.seed, seed).wrapping_add(lake),
                    ..stock
                });
                let tables = workload.all_tables();
                let mut batches = vec![2];
                batches.extend(std::iter::repeat_n(1, appended));
                let gold = entity_gold(&tables);
                lake_set(&tables, batches, gold)
            });
            library_inputs(lakes.collect())
        }
        Workload::ServeMixed => {
            let (tenants, tables_per_tenant, entities) = if tiny { (3, 2, 6) } else { (16, 4, 60) };
            let trace = namespaced_serving_trace(tenants, tables_per_tenant, entities, seed);
            let mut shard_tables: Vec<Vec<Table>> = vec![Vec::new(); SHARDS];
            let arrivals = trace
                .iter()
                .map(|arrival| {
                    let shard = route_group(&arrival.tenant, SHARDS);
                    shard_tables[shard].push(arrival.table.clone());
                    ServedArrival {
                        tenant: arrival.tenant.clone(),
                        shard,
                        body: wire::ingest_body(&arrival.tenant, &arrival.table),
                    }
                })
                .collect();
            let sets = shard_tables
                .iter()
                .map(|tables| {
                    // The server's session starts empty and takes one
                    // `add_table` per acknowledged ingest.
                    let mut batches = vec![0];
                    batches.extend(std::iter::repeat_n(1, tables.len()));
                    lake_set(tables, batches, entity_gold(tables))
                })
                .collect();
            Inputs { sets, arrivals }
        }
    }
}

fn library_inputs(sets: Vec<LakeSet>) -> Inputs {
    Inputs { sets, arrivals: Vec::new() }
}

fn lake_set(tables: &[Table], batches: Vec<usize>, gold: BTreeMap<String, GoldPairs>) -> LakeSet {
    debug_assert_eq!(batches.iter().sum::<usize>(), tables.len());
    let render = |tables: &[Table]| -> Vec<SourceTable> {
        tables
            .iter()
            .map(|table| SourceTable { name: table.name().to_string(), csv: to_csv(table) })
            .collect()
    };
    LakeSet { sources: render(tables), batches, clean: render(&clean_twin(tables, &gold)), gold }
}

/// Rewrites every gold-linked value to its cluster's canonical form (the
/// member of the earliest column, then the smallest string).
fn clean_twin(tables: &[Table], gold: &BTreeMap<String, GoldPairs>) -> Vec<Table> {
    let mut twin = tables.to_vec();
    for (header, pairs) in gold {
        // Union-find over the (position, value) nodes the gold pairs link.
        let mut ids: BTreeMap<&(usize, String), usize> = BTreeMap::new();
        for (a, b) in pairs.iter() {
            for node in [a, b] {
                let next = ids.len();
                ids.entry(node).or_insert(next);
            }
        }
        let mut parent: Vec<usize> = (0..ids.len()).collect();
        fn find(parent: &mut [usize], mut node: usize) -> usize {
            while parent[node] != node {
                parent[node] = parent[parent[node]];
                node = parent[node];
            }
            node
        }
        for (a, b) in pairs.iter() {
            let (ra, rb) = (find(&mut parent, ids[a]), find(&mut parent, ids[b]));
            parent[ra] = rb;
        }
        // `ids` iterates in (position, value) order, so the first node seen
        // for a root is the cluster's canonical member.
        let mut canonical: BTreeMap<usize, &str> = BTreeMap::new();
        for (node, id) in &ids {
            canonical.entry(find(&mut parent, *id)).or_insert(node.1.as_str());
        }
        let holds = |name: &&str| name.trim().to_lowercase() == *header;
        let holders: Vec<(usize, usize)> = (0..twin.len())
            .filter_map(|t| twin[t].schema().names().iter().position(holds).map(|c| (t, c)))
            .collect();
        for (position, (table, column)) in holders.into_iter().enumerate() {
            let mut mapping = std::collections::HashMap::new();
            for value in twin[table].distinct_values(column).expect("column index from the schema")
            {
                let node = (position, value.render().into_owned());
                if let Some(id) = ids.get(&node) {
                    let clean = canonical[&find(&mut parent, *id)];
                    if clean != node.1 {
                        mapping.insert(value, lake_table::Value::text(clean));
                    }
                }
            }
            twin[table].substitute_column(column, &mapping).expect("column index from the schema");
        }
    }
    twin
}

/// The multi-tenant arrival trace with every tenant-private header and
/// cell prefixed by the tenant.
///
/// The stock `generate_serving_trace` reuses the `attrN` headers and
/// `aN-M` cells across tenants, so header alignment joins every tenant of
/// a shard into one Full Disjunction component and the drain time explodes
/// with the tenant count.  Namespaced, tenants only share a shard, not
/// tuples.  `tenants` is capped at [`MAX_TENANTS`].
pub fn namespaced_serving_trace(
    tenants: usize,
    tables_per_tenant: usize,
    entities: usize,
    seed: u64,
) -> Vec<Arrival> {
    let stock = ServingTraceConfig::default();
    let trace = generate_serving_trace(ServingTraceConfig {
        tenants: tenants.min(MAX_TENANTS),
        tables_per_tenant,
        entities,
        seed: mix_seed(stock.seed, seed),
    });
    trace
        .arrivals
        .into_iter()
        .map(|arrival| {
            let tenant = arrival.tenant;
            let names = arrival.table.schema().names();
            let headers: Vec<String> = names
                .iter()
                .enumerate()
                .map(|(i, name)| if i == 0 { name.to_string() } else { format!("{tenant}.{name}") })
                .collect();
            let mut builder = TableBuilder::new(arrival.table.name(), headers);
            for row in arrival.table.rows() {
                builder = builder.row(row.iter().enumerate().map(|(i, cell)| {
                    if i == 0 {
                        cell.render().into_owned()
                    } else {
                        format!("{tenant}.{}", cell.render())
                    }
                }));
            }
            let table = builder.build().expect("namespaced table keeps the stock shape");
            Arrival { tenant, table }
        })
        .collect()
}

/// `(position, value)` members by cluster key.
type Clusters = BTreeMap<String, Vec<(usize, String)>>;

/// Gold for equi-join lakes: under each of `headers`, equal strings in
/// different tables denote the same thing and nothing else does.
fn equality_gold(tables: &[Table], headers: &[&str]) -> BTreeMap<String, GoldPairs> {
    headers
        .iter()
        .map(|header| {
            let mut clusters = Clusters::new();
            let holders = tables.iter().filter_map(|t| t.schema().index_of(header).map(|c| (t, c)));
            for (position, (table, column)) in holders.enumerate() {
                for value in table.distinct_values(column).expect("column index from the schema") {
                    let text = value.render().into_owned();
                    clusters.entry(text.clone()).or_default().push((position, text));
                }
            }
            (header.to_lowercase(), gold_from_clusters(clusters.into_values()))
        })
        .collect()
}

/// Gold for append-workload tables (`<topic>`, `attrN` columns): the
/// attribute cell `aN-<entity>` names the entity its row's value denotes.
fn entity_gold(tables: &[Table]) -> BTreeMap<String, GoldPairs> {
    let mut by_header: BTreeMap<String, (usize, Clusters)> = BTreeMap::new();
    for table in tables {
        let header = table.schema().names()[0].to_lowercase();
        let (position, clusters) = by_header.entry(header).or_default();
        for row in table.rows() {
            let attr = row[1].render();
            let entity = attr.rsplit('-').next().unwrap_or_default().to_string();
            clusters.entry(entity).or_default().push((*position, row[0].render().into_owned()));
        }
        *position += 1;
    }
    by_header
        .into_iter()
        .map(|(header, (_, clusters))| (header, gold_from_clusters(clusters.into_values())))
        .collect()
}

fn gold_from_clusters(clusters: impl Iterator<Item = Vec<(usize, String)>>) -> GoldPairs {
    let mut gold = GoldPairs::new();
    for members in clusters {
        for (i, a) in members.iter().enumerate() {
            for b in &members[i + 1..] {
                if a.0 != b.0 {
                    gold.insert(a.clone(), b.clone());
                }
            }
        }
    }
    gold
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for workload in Workload::ALL {
            let a = generate(workload, 7, Scale::Tiny);
            let b = generate(workload, 7, Scale::Tiny);
            let c = generate(workload, 8, Scale::Tiny);
            let csv = |inputs: &Inputs| -> Vec<String> {
                inputs.sets.iter().flat_map(|s| s.sources.iter().map(|t| t.csv.clone())).collect()
            };
            assert_eq!(csv(&a), csv(&b), "{workload:?}");
            assert_ne!(csv(&a), csv(&c), "{workload:?}");
            assert!(a.sets.iter().all(|s| s.batches.iter().sum::<usize>() == s.sources.len()));
            assert!(a.sets.iter().any(|s| s.gold.values().any(|g| !g.is_empty())), "{workload:?}");
        }
    }

    #[test]
    fn namespacing_prefixes_private_headers_and_cells_only() {
        let trace = namespaced_serving_trace(40, 2, 5, 1);
        let tenants: std::collections::BTreeSet<&str> =
            trace.iter().map(|a| a.tenant.as_str()).collect();
        assert_eq!(tenants.len(), MAX_TENANTS, "tenant count is capped");
        for arrival in &trace {
            let names = arrival.table.schema().names();
            assert!(!names[0].contains('.'), "the topic column stays shared: {names:?}");
            assert!(names[1].starts_with(&format!("{}.attr", arrival.tenant)), "{names:?}");
            for row in arrival.table.rows() {
                assert!(row[1].render().starts_with(&format!("{}.a", arrival.tenant)));
            }
        }
        // Topic headers are distinct across tenants, so no column is shared.
        let topics: std::collections::BTreeSet<String> =
            trace.iter().map(|a| a.table.schema().names()[0].to_string()).collect();
        assert_eq!(topics.len(), MAX_TENANTS);
    }

    #[test]
    fn entity_gold_links_the_same_entity_across_tables() {
        let inputs = generate(Workload::LakeGrowth, 3, Scale::Tiny);
        let gold = &inputs.sets[0].gold["cities"];
        // 8 entities in 4 tables: up to C(4,2) pairs each.
        assert!(gold.len() > 8 && gold.len() <= 8 * 6, "{}", gold.len());
        for ((pa, _), (pb, _)) in gold.iter() {
            assert_ne!(pa, pb, "gold pairs are cross-column");
        }
    }
}
