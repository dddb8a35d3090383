//! The JSON wire format: request parsing and response rendering.
//!
//! Every body the server emits is produced by a function in this module,
//! and the functions are public on purpose: `tests/serve_integration.rs`
//! replays the same tables through a direct
//! [`IntegrationSession`](fuzzy_fd_core::IntegrationSession) and asserts
//! the rendered bytes are identical to what came over the socket.  That
//! byte-for-byte check only works because rendering is deterministic —
//! object keys are emitted in a fixed order, floats use round-trippable
//! formatting, and nothing timing-dependent (durations, busy-nanos)
//! appears in `/query` bodies.  Timing-dependent counters are confined to
//! `/stats`, which is observability, not data.
//!
//! Every body is streamed through [`JsonWriter`], the workspace's one JSON
//! encoder (`lake_table::json`).  The full schema of every body is
//! documented in `docs/PROTOCOL.md`.

// A panic here kills a reader thread: degrade to a `500` (docs/LINTS.md).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::HashMap;

use serde_json::Value as Json;

use lake_fd::IntegratedTuple;
use lake_table::{JsonWriter, Schema, Table, Value};

use crate::shard::{ShardSnapshot, ShardStatus};
use crate::ServePolicy;

/// A decoded `POST /ingest` body.
#[derive(Debug)]
pub struct IngestRequest {
    /// Routing key: tables of one group land on one shard.
    pub group: String,
    /// The decoded table.
    pub table: Table,
}

/// Parses a `POST /ingest` body.
///
/// Expected shape (see `docs/PROTOCOL.md`):
/// `{"group": "...", "table": {"name": "...", "columns": ["..."], "rows": [[cell, ...], ...]}}`
/// where a cell is a JSON string, integer, float, bool or null (mapping to
/// the workspace [`Value`] variants).  Every failure is reported as a
/// human-readable message the server returns in a `400` body.
pub fn parse_ingest(body: &[u8]) -> Result<IngestRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = serde_json::from_str(text).map_err(|err| format!("invalid JSON: {err}"))?;
    let group =
        doc.get("group").and_then(Json::as_str).ok_or("missing string field `group`")?.to_string();
    if group.is_empty() {
        return Err("`group` must not be empty".to_string());
    }
    let spec = doc.get("table").ok_or("missing object field `table`")?;
    let name =
        spec.get("name").and_then(Json::as_str).ok_or("missing string field `table.name`")?;
    if name.is_empty() {
        return Err("`table.name` must not be empty".to_string());
    }
    let columns = spec
        .get("columns")
        .and_then(Json::as_array)
        .ok_or("missing array field `table.columns`")?;
    if columns.is_empty() {
        return Err("`table.columns` must not be empty".to_string());
    }
    let names: Vec<&str> = columns
        .iter()
        .map(|c| c.as_str().ok_or("`table.columns` entries must be strings"))
        .collect::<Result<_, _>>()?;
    let schema = Schema::from_names(names).map_err(|err| format!("invalid schema: {err}"))?;
    let mut table = Table::new(name, schema);
    let rows =
        spec.get("rows").and_then(Json::as_array).ok_or("missing array field `table.rows`")?;
    for (i, row) in rows.iter().enumerate() {
        let cells = row.as_array().ok_or_else(|| format!("`table.rows[{i}]` must be an array"))?;
        let values = cells
            .iter()
            .map(|cell| {
                decode_cell(cell).ok_or_else(|| format!("unsupported cell in `table.rows[{i}]`"))
            })
            .collect::<Result<Vec<Value>, String>>()?;
        table.push_row(values).map_err(|err| format!("`table.rows[{i}]`: {err}"))?;
    }
    table.infer_column_types();
    Ok(IngestRequest { group, table })
}

/// Maps a JSON cell to a workspace [`Value`] (objects/arrays are rejected).
fn decode_cell(cell: &Json) -> Option<Value> {
    Some(match cell {
        Json::Null => Value::Null,
        Json::Bool(b) => Value::Bool(*b),
        Json::String(s) => Value::Text(s.clone()),
        Json::Number(n) => match n.as_i64() {
            Some(i) => Value::Int(i),
            None => Value::Float(n.as_f64()),
        },
        Json::Array(_) | Json::Object(_) => return None,
    })
}

/// Bytes a rendered cell is guessed to take (`null,` is five).
const CELL_BYTES_GUESS: usize = 8;
/// Bytes a cell with its `{"value":…,"sources":[…]}` wrapper is guessed to take.
const SOURCED_CELL_BYTES_GUESS: usize = 48;
/// Bytes a tuple's `{"tids":[…],"cells":[…]}` frame and ids are guessed to take.
const TUPLE_BYTES_GUESS: usize = 48;

/// Renders the `POST /ingest` body for `table` (the client-side inverse of
/// [`parse_ingest`]).
pub fn ingest_body(group: &str, table: &Table) -> String {
    let cells = table.rows().len() * table.num_columns();
    let mut w = JsonWriter::object(128 + cells * CELL_BYTES_GUESS);
    w.text("group", group);
    w.key("table");
    w.open('{');
    w.text("name", table.name());
    w.key("columns");
    w.open('[');
    for name in table.schema().names() {
        w.string(name);
    }
    w.close(']');
    w.key("rows");
    w.open('[');
    for row in table.rows() {
        w.open('[');
        for cell in row {
            w.cell(cell);
        }
        w.close(']');
    }
    w.close(']');
    w.close('}');
    w.finish()
}

/// The three `GET /query` projections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryView {
    /// The integrated table with per-tuple provenance ids.
    Table,
    /// The deterministic counters of the latest integration report.
    Report,
    /// The integrated table with per-cell source attribution.
    Provenance,
}

impl QueryView {
    /// Parses the `view` query parameter (`None` defaults to `table`).
    pub fn parse(raw: Option<&str>) -> Result<Self, String> {
        match raw {
            None | Some("table") => Ok(QueryView::Table),
            Some("report") => Ok(QueryView::Report),
            Some("provenance") => Ok(QueryView::Provenance),
            Some(other) => {
                Err(format!("unknown view `{other}` (expected table, report or provenance)"))
            }
        }
    }

    /// The wire name of the view.
    pub fn name(&self) -> &'static str {
        match self {
            QueryView::Table => "table",
            QueryView::Report => "report",
            QueryView::Provenance => "provenance",
        }
    }
}

/// Renders a `GET /query` response body for one shard snapshot.
///
/// Fully deterministic in the snapshot: the integration tests compare
/// these bytes against a server round-trip.  The server calls this at most
/// once per published version and view (see
/// [`Shard::query_body`](crate::Shard::query_body)).
pub fn query_body(view: QueryView, shard: usize, snapshot: &ShardSnapshot) -> String {
    let table = &snapshot.outcome.table;
    let cells = table.len() * table.columns().len();
    // A guess that saves most of the regrowth, not a bound.
    let capacity = match view {
        QueryView::Report => 1024,
        QueryView::Table => 256 + table.len() * TUPLE_BYTES_GUESS + cells * CELL_BYTES_GUESS,
        QueryView::Provenance => {
            256 + table.len() * TUPLE_BYTES_GUESS + cells * SOURCED_CELL_BYTES_GUESS
        }
    };
    let mut w = JsonWriter::object(capacity);
    w.field("shard", shard as u64);
    w.field("version", snapshot.version);
    w.text("view", view.name());
    w.key("lake_tables");
    w.open('[');
    for table in snapshot.tables.iter() {
        w.string(table.name());
    }
    w.close(']');
    match view {
        QueryView::Report => {
            w.key("report");
            write_report(&mut w, snapshot);
        }
        QueryView::Table | QueryView::Provenance => {
            w.key("table");
            write_table(&mut w, snapshot, view == QueryView::Provenance);
        }
    }
    w.finish()
}

/// The integrated table as `{"columns": [...], "tuples": [...]}`, each
/// tuple carrying its provenance ids and cells.
///
/// With `sources`, every cell becomes `{"value": …, "sources": [...]}`:
/// which base tuples contributed a value to it, derived from the
/// integration schema's source-column mapping.  A source is attributed
/// when its base table has a non-null cell in a column that maps to the
/// integrated column — the base value itself may since have been rewritten
/// to a group representative.
fn write_table(w: &mut JsonWriter, snapshot: &ShardSnapshot, sources: bool) {
    let table = &snapshot.outcome.table;
    let index: HashMap<&str, usize> = if sources {
        snapshot.tables.iter().enumerate().map(|(i, t)| (t.name(), i)).collect()
    } else {
        HashMap::new()
    };
    w.open('{');
    w.key("columns");
    w.open('[');
    for column in table.columns() {
        w.string(column);
    }
    w.close(']');
    w.key("tuples");
    w.open('[');
    for tuple in table.tuples() {
        w.open('{');
        w.key("tids");
        w.open('[');
        // Already sorted — provenance is a `BTreeSet`.
        for tid in tuple.provenance().iter() {
            w.display(tid);
        }
        w.close(']');
        w.key("cells");
        w.open('[');
        if sources {
            for col in 0..table.columns().len() {
                w.open('{');
                w.key("value");
                w.cell(tuple.value(col));
                w.key("sources");
                w.open('[');
                write_sources(w, snapshot, &index, tuple, col);
                w.close(']');
                w.close('}');
            }
        } else {
            for cell in tuple.values() {
                w.cell(cell);
            }
        }
        w.close(']');
        w.close('}');
    }
    w.close(']');
    w.close('}');
}

/// The ids of `tuple`'s base tuples that have a non-null cell in a column
/// mapped to integrated column `col`.
fn write_sources(
    w: &mut JsonWriter,
    snapshot: &ShardSnapshot,
    index: &HashMap<&str, usize>,
    tuple: &IntegratedTuple,
    col: usize,
) {
    let Some(schema) = &snapshot.schema else { return };
    for tid in tuple.provenance().iter() {
        let Some(&t) = index.get(tid.table.as_str()) else { continue };
        let base = &snapshot.tables[t];
        let attributed = (0..base.num_columns()).any(|c| {
            schema.integrated_column(t, c) == col && !matches!(base.rows()[tid.row][c], Value::Null)
        });
        if attributed {
            w.display(tid);
        }
    }
}

/// The deterministic counters of the latest integration, grouped by
/// pipeline stage.  Durations and scheduler busy-nanos are deliberately
/// absent (see the module docs); they live in `/stats`.
fn write_report(w: &mut JsonWriter, snapshot: &ShardSnapshot) {
    let report = &snapshot.outcome.report;
    let blocking = &report.blocking;
    let fd = &report.fd_stats;
    let inc = &snapshot.outcome.incremental;
    w.open('{');
    w.field("tables", snapshot.tables.len() as u64);
    w.field("tuples", snapshot.outcome.table.len() as u64);
    w.key("pipeline");
    w.open('{');
    w.field("aligned_sets", report.aligned_sets as u64);
    w.field("value_groups", report.value_groups as u64);
    w.field("matched_groups", report.matched_groups as u64);
    w.field("rewritten_cells", report.rewritten_cells as u64);
    w.close('}');
    w.key("blocking");
    w.open('{');
    w.field("folds", blocking.folds as u64);
    w.field("escalated_folds", blocking.escalated_folds as u64);
    w.field("blocks", blocking.blocks as u64);
    w.field("candidate_pairs", blocking.candidate_pairs as u64);
    w.field("scored_pairs", blocking.scored_pairs as u64);
    w.field("pruned_pairs", blocking.pruned_pairs as u64);
    w.field("split_components", blocking.split_components as u64);
    w.field("severed_pairs", blocking.severed_pairs as u64);
    w.field("max_block_size", blocking.max_block_size as u64);
    w.close('}');
    w.key("fd");
    w.open('{');
    w.field("input_tuples", fd.input_tuples as u64);
    w.field("output_tuples", fd.output_tuples as u64);
    w.field("components", fd.components as u64);
    w.field("largest_component", fd.largest_component as u64);
    w.field("reused_components", fd.reused_components as u64);
    w.close('}');
    w.key("incremental");
    w.open('{');
    w.field("appended_tables", inc.appended_tables as u64);
    w.field("refolded_sets", inc.refolded_sets as u64);
    w.field("rebuilt_sets", inc.rebuilt_sets as u64);
    w.field("reused_sets", inc.reused_sets as u64);
    w.field("embed_hits", inc.embed_hits);
    w.field("embed_misses", inc.embed_misses);
    w.close('}');
    write_caches(w, snapshot);
    w.close('}');
}

/// The session's cumulative cache counters, in `/query`'s report and in
/// `/stats` alike.
fn write_caches(w: &mut JsonWriter, snapshot: &ShardSnapshot) {
    w.key("caches");
    w.open('{');
    w.field("embed_hits", snapshot.embed_cache.0);
    w.field("embed_misses", snapshot.embed_cache.1);
    w.field("fd_hits", snapshot.fd_cache.0);
    w.field("fd_misses", snapshot.fd_cache.1);
    w.close('}');
}

/// Renders the `GET /health` body.
pub fn health_body(shards: usize) -> String {
    let mut w = JsonWriter::object(32);
    w.text("status", "ok");
    w.field("shards", shards as u64);
    w.finish()
}

/// Renders the `202 Accepted` ingest acknowledgement.
pub fn ingest_ack_body(group: &str, shard: usize, queued: usize) -> String {
    let mut w = JsonWriter::object(64 + group.len());
    w.text("status", "accepted");
    w.text("group", group);
    w.field("shard", shard as u64);
    w.field("queued", queued as u64);
    w.finish()
}

/// Renders the `429 Too Many Requests` backpressure body.
pub fn reject_body(group: &str, shard: usize, queued: usize, retry_after_secs: u32) -> String {
    let mut w = JsonWriter::object(96 + group.len());
    w.text("error", "shard queue full");
    w.text("group", group);
    w.field("shard", shard as u64);
    w.field("queued", queued as u64);
    w.field("retry_after_secs", u64::from(retry_after_secs));
    w.finish()
}

/// Renders a generic error body (`400`, `404`, `405`, `413`).
pub fn error_body(message: &str) -> String {
    let mut w = JsonWriter::object(16 + message.len());
    w.text("error", message);
    w.finish()
}

/// Renders the `GET /stats` body from per-shard statuses.
///
/// Unlike `/query`, this body includes the FD closure's scheduler counters
/// ([`RuntimeStats`](lake_runtime::RuntimeStats) tasks and busy-nanos from
/// the latest integration per shard: one task per join component that step
/// closed), which are timing-dependent — it is an observability surface,
/// not a data surface.
pub fn stats_body(policy: &ServePolicy, statuses: &[ShardStatus]) -> String {
    let mut total_queued = 0u64;
    let mut total_accepted = 0u64;
    let mut total_rejected = 0u64;
    let mut total_applied = 0u64;
    let mut total_failed = 0u64;
    let mut total_tables = 0u64;
    let mut total_tuples = 0u64;
    let mut runtime = lake_runtime::RuntimeStats::default();
    let mut phases = fuzzy_fd_core::PhaseTimings::default();
    let mut durable = lake_store::StoreStatus::default();
    let mut durable_shards = 0u64;
    let mut w = JsonWriter::object(512 + statuses.len() * 1024);
    w.key("policy");
    w.open('{');
    w.field("shards", policy.shards as u64);
    w.field("queue_depth", policy.queue_depth as u64);
    w.field("readers", policy.readers as u64);
    w.field("retry_after_secs", u64::from(policy.retry_after_secs));
    w.close('}');
    w.key("shards");
    w.open('[');
    for status in statuses {
        total_queued += status.queued as u64;
        total_accepted += status.accepted;
        total_rejected += status.rejected;
        total_applied += status.applied;
        total_failed += status.failed;
        total_tables += status.snapshot.tables.len() as u64;
        total_tuples += status.snapshot.outcome.table.len() as u64;
        let last_runtime = &status.snapshot.outcome.report.fd_stats.runtime;
        runtime.merge(last_runtime);
        let last_phases = &status.snapshot.outcome.report.blocking.phase;
        phases.merge(last_phases);
        if let Some(store) = &status.durability {
            durable_shards += 1;
            durable.appends += store.appends;
            durable.wal_records += store.wal_records;
            durable.wal_bytes += store.wal_bytes;
            durable.fsyncs += store.fsyncs;
            durable.recovery.wal_records += store.recovery.wal_records;
            durable.recovery.torn_bytes += store.recovery.torn_bytes;
        }
        let inc = &status.snapshot.outcome.incremental;
        w.open('{');
        w.field("id", status.id as u64);
        w.field("queued", status.queued as u64);
        w.key("busy");
        w.literal(if status.busy { "true" } else { "false" });
        w.field("accepted", status.accepted);
        w.field("rejected", status.rejected);
        w.field("applied", status.applied);
        w.field("failed", status.failed);
        w.field("version", status.snapshot.version);
        w.field("lake_tables", status.snapshot.tables.len() as u64);
        w.field("tuples", status.snapshot.outcome.table.len() as u64);
        w.key("incremental");
        w.open('{');
        w.field("appended_tables", inc.appended_tables as u64);
        w.field("refolded_sets", inc.refolded_sets as u64);
        w.field("rebuilt_sets", inc.rebuilt_sets as u64);
        w.field("reused_sets", inc.reused_sets as u64);
        w.close('}');
        write_runtime(&mut w, last_runtime);
        write_phases(&mut w, last_phases);
        write_caches(&mut w, &status.snapshot);
        if let Some(store) = &status.durability {
            write_durability(&mut w, store);
        }
        w.close('}');
    }
    w.close(']');
    w.key("totals");
    w.open('{');
    w.field("queued", total_queued);
    w.field("accepted", total_accepted);
    w.field("rejected", total_rejected);
    w.field("applied", total_applied);
    w.field("failed", total_failed);
    w.field("lake_tables", total_tables);
    w.field("tuples", total_tuples);
    write_runtime(&mut w, &runtime);
    write_phases(&mut w, &phases);
    if durable_shards > 0 {
        w.field("durable_shards", durable_shards);
        write_durability(&mut w, &durable);
    }
    w.close('}');
    w.finish()
}

/// The `"runtime"` member of a `/stats` shard or of its totals.
fn write_runtime(w: &mut JsonWriter, runtime: &lake_runtime::RuntimeStats) {
    w.key("runtime");
    w.open('{');
    w.field("tasks", runtime.tasks);
    w.field("busy_nanos", runtime.busy_nanos());
    w.field("sequential_batches", runtime.sequential_batches);
    w.close('}');
}

/// Planner phase-timing attribution as the `/stats` `"planner_phases"`
/// member: one `<phase>_nanos` entry per phase (hash/probe/pairs/dedup/
/// score/fallback/assign/total), so operators can see where the planning
/// wall clock of the latest integration went (see docs/OPERATIONS.md).
fn write_phases(w: &mut JsonWriter, phase: &fuzzy_fd_core::PhaseTimings) {
    w.key("planner_phases");
    w.open('{');
    for (name, duration) in phase.named() {
        w.field(&format!("{name}_nanos"), duration.as_nanos() as u64);
    }
    w.close('}');
}

/// One store's durability counters as the `/stats` `"durability"` member.
fn write_durability(w: &mut JsonWriter, store: &lake_store::StoreStatus) {
    w.key("durability");
    w.open('{');
    w.field("appends", store.appends);
    w.field("wal_records", store.wal_records);
    w.field("wal_bytes", store.wal_bytes);
    w.field("fsyncs", store.fsyncs);
    w.key("recovery");
    w.open('{');
    w.field("wal_records", store.recovery.wal_records);
    w.field("torn_bytes", store.recovery.torn_bytes);
    w.close('}');
    w.close('}');
}

#[cfg(test)]
mod tests {
    use fuzzy_fd_core::{FuzzyFdConfig, IntegrationSession};
    use lake_table::TableBuilder;

    use super::*;

    /// A shard snapshot after one `add_table` per table, as a writer makes it.
    fn snapshot_of(tables: &[Table]) -> ShardSnapshot {
        let mut session = IntegrationSession::begin(FuzzyFdConfig::default(), &[]).unwrap();
        for table in tables {
            session.add_table(table).unwrap();
        }
        ShardSnapshot::from_session(tables.len() as u64, &session)
    }

    /// The `cases` / `rates` lake of `docs/PROTOCOL.md`.
    fn protocol_lake() -> Vec<Table> {
        let cases = TableBuilder::new("cases", ["City", "Total Cases"])
            .row(["Berlin", "1.4M"])
            .row(["barcelona", "2.68M"])
            .build()
            .unwrap();
        let rates = TableBuilder::new("rates", ["City", "Vaccination Rate"])
            .row(["Berlin", "63%"])
            .row(["Barcelona", "82%"])
            .build()
            .unwrap();
        vec![cases, rates]
    }

    /// Everything the escaper and the number rules have to get right, in
    /// table names, headers and cells.
    const HOSTILE: &str = "a\"b\\c\nd\te\u{1}f\u{2028}g\u{1F600}";

    fn hostile_lake() -> Vec<Table> {
        let text = |s: &str| Value::Text(s.to_string());
        let first = TableBuilder::new(format!("t1 {HOSTILE}"), ["ke\"y\\", "v\t\u{1}al", "n"])
            .row_values([text(HOSTILE), Value::Int(i64::MIN), Value::Float(-0.0)])
            .row_values([text("plain"), Value::Float(1e21), Value::Float(f64::NAN)])
            .row_values([text("z"), Value::Bool(true), Value::Null])
            .build()
            .unwrap();
        let second = TableBuilder::new("t2\u{2028}#", ["ke\"y\\", HOSTILE])
            .row_values([text(HOSTILE), Value::Float(f64::INFINITY)])
            .row_values([text("other"), text("\u{1F600}")])
            .build()
            .unwrap();
        vec![first, second]
    }

    /// A golden split into lines, with `$H` for [`HOSTILE`] as it is
    /// escaped, `$T2` for the second hostile table's name and `$E` for the
    /// astral character.
    fn golden(lines: &[&str]) -> String {
        lines
            .concat()
            .replace("$H", "a\\\"b\\\\c\\nd\\te\\u0001f\u{2028}g\u{1F600}")
            .replace("$T2", "t2\u{2028}#")
            .replace("$E", "\u{1F600}")
    }

    /// Every view of the hostile and the empty lake and the hostile
    /// `/ingest` bodies, byte for byte.
    #[test]
    fn hostile_and_empty_bodies_are_pinned() {
        let lake = hostile_lake();
        let hostile = snapshot_of(&lake);
        let empty = snapshot_of(&[]);
        let pinned = [
            (
                query_body(QueryView::Table, 3, &hostile),
                golden(&[
                    r#"{"shard":3,"version":2,"view":"table","lake_tables":["t1 $H","$T2"],"#,
                    r#""table":{"columns":["ke\"y\\","v\t\u0001al","n","$H"],"tuples":[{"tids":["t1 $H#0","#,
                    r#""$T2#0"],"cells":["$H",-9223372036854775808,-0.0,null]},{"tids":["$T2#1"],"#,
                    r#""cells":["other",null,null,"$E"]},{"tids":["t1 $H#1"],"cells":["plain",1e21,null,"#,
                    r#"null]},{"tids":["t1 $H#2"],"cells":["z",true,null,null]}]}}"#,
                ]),
            ),
            (
                query_body(QueryView::Report, 3, &hostile),
                golden(&[
                    r#"{"shard":3,"version":2,"view":"report","lake_tables":["t1 $H","$T2"],"#,
                    r#""report":{"tables":2,"tuples":4,"pipeline":{"aligned_sets":1,"value_groups":4,"#,
                    r#""matched_groups":1,"rewritten_cells":0},"blocking":{"folds":1,"escalated_folds":0,"#,
                    r#""blocks":1,"candidate_pairs":2,"scored_pairs":2,"pruned_pairs":0,"#,
                    r#""split_components":0,"severed_pairs":0,"max_block_size":3},"fd":{"input_tuples":5,"#,
                    r#""output_tuples":4,"components":4,"largest_component":2,"reused_components":2},"#,
                    r#""incremental":{"appended_tables":1,"refolded_sets":0,"rebuilt_sets":1,"#,
                    r#""reused_sets":0,"embed_hits":0,"embed_misses":4},"caches":{"embed_hits":0,"#,
                    r#""embed_misses":4,"fd_hits":2,"fd_misses":5}}}"#,
                ]),
            ),
            (
                query_body(QueryView::Provenance, 3, &hostile),
                golden(&[
                    r#"{"shard":3,"version":2,"view":"provenance","lake_tables":["t1 $H","$T2"],"#,
                    r#""table":{"columns":["ke\"y\\","v\t\u0001al","n","$H"],"tuples":[{"tids":["t1 $H#0","#,
                    r#""$T2#0"],"cells":[{"value":"$H","sources":["t1 $H#0","$T2#0"]},"#,
                    r#"{"value":-9223372036854775808,"sources":["t1 $H#0"]},{"value":-0.0,"#,
                    r#""sources":["t1 $H#0"]},{"value":null,"sources":["$T2#0"]}]},{"tids":["$T2#1"],"#,
                    r#""cells":[{"value":"other","sources":["$T2#1"]},{"value":null,"sources":[]},"#,
                    r#"{"value":null,"sources":[]},{"value":"$E","sources":["$T2#1"]}]},"#,
                    r#"{"tids":["t1 $H#1"],"cells":[{"value":"plain","sources":["t1 $H#1"]},{"value":1e21,"#,
                    r#""sources":["t1 $H#1"]},{"value":null,"sources":["t1 $H#1"]},{"value":null,"#,
                    r#""sources":[]}]},{"tids":["t1 $H#2"],"cells":[{"value":"z","sources":["t1 $H#2"]},"#,
                    r#"{"value":true,"sources":["t1 $H#2"]},{"value":null,"sources":[]},{"value":null,"#,
                    r#""sources":[]}]}]}}"#,
                ]),
            ),
            (
                ingest_body(HOSTILE, &lake[0]),
                golden(&[
                    r#"{"group":"$H","table":{"name":"t1 $H","columns":["ke\"y\\","v\t\u0001al","n"],"#,
                    r#""rows":[["$H",-9223372036854775808,-0.0],["plain",1e21,null],["z",true,null]]}}"#,
                ]),
            ),
            (
                ingest_body(HOSTILE, &lake[1]),
                golden(&[
                    r#"{"group":"$H","table":{"name":"$T2","columns":["ke\"y\\","$H"],"rows":[["$H",null],"#,
                    r#"["other","$E"]]}}"#,
                ]),
            ),
            (
                query_body(QueryView::Table, 3, &empty),
                golden(&[
                    r#"{"shard":3,"version":0,"view":"table","lake_tables":[],"table":{"columns":[],"#,
                    r#""tuples":[]}}"#,
                ]),
            ),
            (
                query_body(QueryView::Report, 3, &empty),
                golden(&[
                    r#"{"shard":3,"version":0,"view":"report","lake_tables":[],"report":{"tables":0,"#,
                    r#""tuples":0,"pipeline":{"aligned_sets":0,"value_groups":0,"matched_groups":0,"#,
                    r#""rewritten_cells":0},"blocking":{"folds":0,"escalated_folds":0,"blocks":0,"#,
                    r#""candidate_pairs":0,"scored_pairs":0,"pruned_pairs":0,"split_components":0,"#,
                    r#""severed_pairs":0,"max_block_size":0},"fd":{"input_tuples":0,"output_tuples":0,"#,
                    r#""components":0,"largest_component":0,"reused_components":0},"#,
                    r#""incremental":{"appended_tables":0,"refolded_sets":0,"rebuilt_sets":0,"#,
                    r#""reused_sets":0,"embed_hits":0,"embed_misses":0},"caches":{"embed_hits":0,"#,
                    r#""embed_misses":0,"fd_hits":0,"fd_misses":0}}}"#,
                ]),
            ),
            (
                query_body(QueryView::Provenance, 3, &empty),
                golden(&[
                    r#"{"shard":3,"version":0,"view":"provenance","lake_tables":[],"table":{"columns":[],"#,
                    r#""tuples":[]}}"#,
                ]),
            ),
        ];
        for (body, golden) in pinned {
            assert_eq!(body, golden);
            assert!(serde_json::from_str(&body).is_ok(), "unparseable: {body}");
        }
    }

    #[test]
    fn protocol_example_bodies_are_pinned() {
        let snapshot = snapshot_of(&protocol_lake());
        let envelope = |view: &str| {
            format!(r#"{{"shard":0,"version":2,"view":"{view}","lake_tables":["cases","rates"],"#)
        };
        assert_eq!(
            query_body(QueryView::Table, 0, &snapshot),
            envelope("table")
                + r#""table":{"columns":["City","Total Cases","Vaccination Rate"],"tuples":["#
                + r#"{"tids":["cases#0","rates#0"],"cells":["Berlin","1.4M","63%"]},"#
                + r#"{"tids":["cases#1","rates#1"],"cells":["barcelona","2.68M","82%"]}]}}"#
        );
        assert_eq!(
            query_body(QueryView::Provenance, 0, &snapshot),
            envelope("provenance")
                + r#""table":{"columns":["City","Total Cases","Vaccination Rate"],"tuples":["#
                + r#"{"tids":["cases#0","rates#0"],"cells":["#
                + r#"{"value":"Berlin","sources":["cases#0","rates#0"]},"#
                + r#"{"value":"1.4M","sources":["cases#0"]},"#
                + r#"{"value":"63%","sources":["rates#0"]}]},"#
                + r#"{"tids":["cases#1","rates#1"],"cells":["#
                + r#"{"value":"barcelona","sources":["cases#1","rates#1"]},"#
                + r#"{"value":"2.68M","sources":["cases#1"]},"#
                + r#"{"value":"82%","sources":["rates#1"]}]}]}}"#
        );
        assert_eq!(
            query_body(QueryView::Report, 0, &snapshot),
            envelope("report")
                + r#""report":{"tables":2,"tuples":2,"#
                + r#""pipeline":{"aligned_sets":1,"value_groups":2,"matched_groups":2,"rewritten_cells":1},"#
                + r#""blocking":{"folds":1,"escalated_folds":0,"blocks":1,"candidate_pairs":1,"scored_pairs":1,"#
                + r#""pruned_pairs":0,"split_components":0,"severed_pairs":0,"max_block_size":2},"#
                + r#""fd":{"input_tuples":4,"output_tuples":2,"components":2,"largest_component":2,"reused_components":0},"#
                + r#""incremental":{"appended_tables":1,"refolded_sets":0,"rebuilt_sets":1,"reused_sets":0,"#
                + r#""embed_hits":0,"embed_misses":3},"#
                + r#""caches":{"embed_hits":0,"embed_misses":3,"fd_hits":0,"fd_misses":4}}}"#
        );
    }

    /// The escapes themselves, pinned as literals.
    #[test]
    fn hostile_strings_and_numbers_are_pinned() {
        let body = query_body(QueryView::Table, 0, &snapshot_of(&hostile_lake()));
        let hostile = "a\\\"b\\\\c\\nd\\te\\u0001f\u{2028}g\u{1F600}";
        let second = "t2\u{2028}#";
        let first_tuple = format!(
            r#"{{"tids":["t1 {hostile}#0","{second}#0"],"cells":["{hostile}",-9223372036854775808,-0.0,null]}}"#
        );
        assert!(body.contains(&first_tuple), "{body}");
        assert!(body.contains(r#""cells":["plain",1e21,null,null]"#), "{body}");
        assert!(body.contains(r#""cells":["z",true,null,null]"#), "{body}");
        assert!(body.contains(r#""columns":["ke\"y\\","v\t\u0001al","n","#), "{body}");
    }

    #[test]
    fn ingest_body_round_trips() {
        let table = TableBuilder::new("T1", ["City", "Cases"])
            .row(["Berlin", "1.4M"])
            .row(["Paris", "2.1M"])
            .build()
            .unwrap();
        let body = ingest_body("covid", &table);
        let parsed = parse_ingest(body.as_bytes()).unwrap();
        assert_eq!(parsed.group, "covid");
        assert_eq!(parsed.table.name(), "T1");
        assert_eq!(parsed.table.schema().names(), table.schema().names());
        assert_eq!(parsed.table.rows(), table.rows());
    }

    #[test]
    fn ingest_cells_decode_typed_values() {
        let body = r#"{"group":"g","table":{"name":"T","columns":["a","b","c","d"],
            "rows":[[1,2.5,true,null],["x",-3,false,"y"]]}}"#;
        let parsed = parse_ingest(body.as_bytes()).unwrap();
        assert_eq!(parsed.table.rows()[0][0], Value::Int(1));
        assert_eq!(parsed.table.rows()[0][1], Value::Float(2.5));
        assert_eq!(parsed.table.rows()[0][2], Value::Bool(true));
        assert_eq!(parsed.table.rows()[0][3], Value::Null);
        assert_eq!(parsed.table.rows()[1][0], Value::Text("x".into()));
        assert_eq!(parsed.table.rows()[1][1], Value::Int(-3));
    }

    #[test]
    fn ingest_rejections_name_the_problem() {
        for (body, needle) in [
            (&b"not json"[..], "invalid JSON"),
            (br#"{"table":{}}"#, "`group`"),
            (br#"{"group":"g"}"#, "`table`"),
            (br#"{"group":"g","table":{"name":"T","columns":[],"rows":[]}}"#, "columns"),
            (br#"{"group":"g","table":{"name":"T","columns":["a"],"rows":[[1,2]]}}"#, "rows[0]"),
            (br#"{"group":"g","table":{"name":"T","columns":["a"],"rows":[[{"x":1}]]}}"#, "cell"),
        ] {
            let err = parse_ingest(body).unwrap_err();
            assert!(err.contains(needle), "error {err:?} does not mention {needle:?}");
        }
    }

    #[test]
    fn view_parsing_defaults_to_table() {
        assert_eq!(QueryView::parse(None).unwrap(), QueryView::Table);
        assert_eq!(QueryView::parse(Some("report")).unwrap(), QueryView::Report);
        assert_eq!(QueryView::parse(Some("provenance")).unwrap(), QueryView::Provenance);
        assert!(QueryView::parse(Some("nope")).is_err());
    }

    /// The small bodies, byte for byte; the `/health`, `202` and `429`
    /// examples of `docs/PROTOCOL.md` are these strings.
    #[test]
    fn bodies_are_reparseable_json() {
        let pinned = [
            (health_body(2), r#"{"status":"ok","shards":2}"#),
            (
                ingest_ack_body("covid", 0, 1),
                r#"{"status":"accepted","group":"covid","shard":0,"queued":1}"#,
            ),
            (
                reject_body("covid", 0, 64, 1),
                r#"{"error":"shard queue full","group":"covid","shard":0,"queued":64,"retry_after_secs":1}"#,
            ),
            (error_body("say \"no\" \\ twice\nnow"), r#"{"error":"say \"no\" \\ twice\nnow"}"#),
        ];
        for (body, golden) in pinned {
            assert_eq!(body, golden);
            assert!(serde_json::from_str(&body).is_ok(), "unparseable: {body}");
        }
    }

    /// `/stats` reports the FD closure's scheduling and nothing else: after
    /// a one-table step that also solved matching blocks, `runtime.tasks`
    /// is the number of join components that step closed.
    #[test]
    fn stats_runtime_counts_the_components_a_step_closed() {
        let snapshot = snapshot_of(&protocol_lake());
        let report = &snapshot.outcome.report;
        assert!(report.blocking.blocks > 0, "{:?}", report.blocking);
        let closed = (report.fd_stats.components - report.fd_stats.reused_components) as u64;
        assert!(closed > 0, "{:?}", report.fd_stats);
        let status = crate::Shard::new(0, 64, snapshot).status();
        let body = serde_json::from_str(&stats_body(&ServePolicy::default(), &[status])).unwrap();
        let tasks = |scope: &serde_json::Value| {
            scope.get("runtime").and_then(|runtime| runtime.get("tasks")).and_then(|t| t.as_u64())
        };
        let shard = &body.get("shards").and_then(|shards| shards.as_array()).unwrap()[0];
        assert_eq!(tasks(shard), Some(closed));
        assert_eq!(tasks(body.get("totals").unwrap()), Some(closed));
    }

    /// `/stats` over one in-memory and one durable shard, both over empty
    /// sessions: no integration has run, so every timing field is 0 and the
    /// body is deterministic.  The queue and store counters are set to
    /// distinct values so a swapped or dropped field shows.
    #[test]
    fn stats_body_is_pinned() {
        let dir = std::env::temp_dir().join(format!("lake-serve-stats-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = lake_store::LakeStore::open(&dir, lake_store::StorePolicy::default()).unwrap();
        let mut statuses = [
            crate::Shard::new(0, 64, snapshot_of(&[])).status(),
            crate::Shard::new_durable(1, 64, snapshot_of(&[]), store).status(),
        ];
        std::fs::remove_dir_all(&dir).ok();
        for (status, base) in statuses.iter_mut().zip([0, 5]) {
            status.queued = base as usize + 1;
            status.accepted = base + 2;
            status.rejected = base + 3;
            status.applied = base + 4;
            status.failed = base + 5;
        }
        statuses[0].busy = true;
        let durable = statuses[1].durability.as_mut().unwrap();
        durable.appends = 11;
        durable.wal_records = 12;
        durable.wal_bytes = 13;
        durable.fsyncs = 14;
        durable.recovery.wal_records = 15;
        durable.recovery.torn_bytes = 16;

        let zero_runtime = r#""runtime":{"tasks":0,"busy_nanos":0,"sequential_batches":0},"#;
        let zero_phases =
            r#""planner_phases":{"hash_nanos":0,"probe_nanos":0,"pairs_nanos":0,"dedup_nanos":0,"#
                .to_string()
                + r#""score_nanos":0,"fallback_nanos":0,"assign_nanos":0,"total_nanos":0}"#;
        let empty_lake = r#""lake_tables":0,"tuples":0,"#;
        let shard_tail = r#""version":0,"#.to_string()
            + empty_lake
            + r#""incremental":{"appended_tables":0,"refolded_sets":0,"rebuilt_sets":0,"reused_sets":0},"#
            + zero_runtime
            + &zero_phases
            + r#","caches":{"embed_hits":0,"embed_misses":0,"fd_hits":0,"fd_misses":0}"#;
        // One durable shard: the totals equal its counters.
        let durability = r#"{"appends":11,"wal_records":12,"wal_bytes":13,"fsyncs":14,"#
            .to_string()
            + r#""recovery":{"wal_records":15,"torn_bytes":16}}"#;
        let golden = r#"{"policy":{"shards":2,"queue_depth":64,"readers":2,"retry_after_secs":1},"#
            .to_string()
            + r#""shards":[{"id":0,"queued":1,"busy":true,"accepted":2,"rejected":3,"applied":4,"failed":5,"#
            + &shard_tail
            + r#"},{"id":1,"queued":6,"busy":false,"accepted":7,"rejected":8,"applied":9,"failed":10,"#
            + &shard_tail
            + r#","durability":"#
            + &durability
            + r#"}],"totals":{"queued":7,"accepted":9,"rejected":11,"applied":13,"failed":15,"#
            + empty_lake
            + zero_runtime
            + &zero_phases
            + r#","durable_shards":1,"durability":"#
            + &durability
            + "}}";
        let body = stats_body(&ServePolicy::default(), &statuses);
        assert_eq!(body, golden);
        assert!(serde_json::from_str(&body).is_ok(), "unparseable: {body}");
    }
}
