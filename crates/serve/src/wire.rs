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
//! The full schema of every body is documented in `docs/PROTOCOL.md`.

// A panic here kills a reader thread: degrade to a `500` (docs/LINTS.md).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::HashMap;
use std::fmt::{Display, Write as _};

use serde_json::Value as Json;

use lake_fd::IntegratedTuple;
use lake_table::{Schema, Table, Value};

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
/// Unlike `/query`, this body includes scheduler aggregates
/// ([`RuntimeStats`](lake_runtime::RuntimeStats) busy-nanos and steals from
/// the latest integration per shard), which are timing-dependent — it is
/// an observability surface, not a data surface.
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
        let last_runtime = status.snapshot.outcome.report.runtime();
        runtime.merge(&last_runtime);
        let last_phases = &status.snapshot.outcome.report.blocking.phase;
        phases.merge(last_phases);
        if let Some(store) = &status.durability {
            durable_shards += 1;
            durable.appends += store.appends;
            durable.wal_records += store.wal_records;
            durable.wal_bytes += store.wal_bytes;
            durable.fsyncs += store.fsyncs;
            durable.checkpoints += store.checkpoints;
            durable.checkpointed_records += store.checkpointed_records;
            durable.segment_blocks += store.segment_blocks;
            durable.recovery.manifest_records += store.recovery.manifest_records;
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
        write_runtime(&mut w, &last_runtime);
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
    w.field("steals", runtime.steals);
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
    w.field("checkpoints", store.checkpoints);
    w.field("checkpointed_records", store.checkpointed_records);
    w.field("segment_blocks", store.segment_blocks);
    w.key("pool");
    w.open('{');
    w.field("hits", store.pool.hits);
    w.field("misses", store.pool.misses);
    w.field("evictions", store.pool.evictions);
    w.close('}');
    w.key("recovery");
    w.open('{');
    w.field("manifest_records", store.recovery.manifest_records);
    w.field("wal_records", store.recovery.wal_records);
    w.field("torn_bytes", store.recovery.torn_bytes);
    w.close('}');
    w.close('}');
}

/// Compact JSON streamed into one `String`: the bytes the vendored tree
/// encoder (`serde_json::content_to_string`) would produce, without the
/// tree.  Every body in this module is written through it.
///
/// The only state is whether the next key or element needs a comma: a
/// value or a closed container is followed by one, a key or an opened
/// container is not.  Nothing checks that containers balance or that keys
/// alternate with values — the callers are the few fixed shapes above, and
/// the tests parse every body they produce.
struct JsonWriter {
    out: String,
    comma: bool,
    /// Reused by [`display`](Self::display), so formatting an id allocates
    /// nothing once the buffer has grown to the longest one.
    scratch: String,
}

impl JsonWriter {
    /// Opens a body, sized for `bytes`: every body is one JSON object.
    fn object(bytes: usize) -> Self {
        let mut out = String::with_capacity(bytes);
        out.push('{');
        JsonWriter { out, comma: false, scratch: String::new() }
    }

    /// Closes the body's object and hands over its bytes.
    fn finish(mut self) -> String {
        self.close('}');
        self.out
    }

    fn separate(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    /// Opens an object (`'{'`) or an array (`'['`).
    fn open(&mut self, bracket: char) {
        self.separate();
        self.out.push(bracket);
        self.comma = false;
    }

    /// Closes the innermost container with its `'}'` or `']'`.
    fn close(&mut self, bracket: char) {
        self.out.push(bracket);
        self.comma = true;
    }

    fn key(&mut self, name: &str) {
        self.separate();
        serde_json::write_escaped(name, &mut self.out);
        self.out.push(':');
        self.comma = false;
    }

    fn string(&mut self, value: &str) {
        self.separate();
        serde_json::write_escaped(value, &mut self.out);
    }

    /// A string value from its `Display` form, through the same escaper —
    /// a [`TupleId`](lake_table::TupleId) renders as `table#row`, and table
    /// names are user input.
    fn display(&mut self, value: &impl Display) {
        self.separate();
        self.scratch.clear();
        // Writing into a `String` cannot fail.
        let _ = write!(self.scratch, "{value}");
        serde_json::write_escaped(&self.scratch, &mut self.out);
    }

    /// An integer value (`u64` or `i64`), in decimal.
    fn integer(&mut self, value: impl Display) {
        self.separate();
        let _ = write!(self.out, "{value}");
    }

    /// `"name":value` for an unsigned counter.
    fn field(&mut self, name: &str, value: u64) {
        self.key(name);
        self.integer(value);
    }

    /// `"name":"value"` for a string.
    fn text(&mut self, name: &str, value: &str) {
        self.key(name);
        self.string(value);
    }

    /// `null`, `true` or `false`.
    fn literal(&mut self, text: &str) {
        self.separate();
        self.out.push_str(text);
    }

    /// A workspace [`Value`] as a JSON cell.  Non-finite floats (which JSON
    /// cannot represent and the workspace never produces from parsed input)
    /// degrade to `null` rather than poisoning a whole response.
    fn cell(&mut self, value: &Value) {
        match value {
            Value::Null => self.literal("null"),
            Value::Text(s) => self.string(s),
            Value::Int(i) => self.integer(*i),
            Value::Float(f) => {
                self.separate();
                if serde_json::write_f64(*f, &mut self.out).is_err() {
                    self.out.push_str("null");
                }
            }
            Value::Bool(b) => self.literal(if *b { "true" } else { "false" }),
        }
    }
}

/// The renderer this module had before it streamed: every `/query` view and
/// the `/ingest` body as a tree handed to the vendored encoder.
/// Kept as the reference the streamed bytes are held equal to.
#[cfg(test)]
mod oracle {
    use std::collections::HashMap;

    use lake_fd::{IntegratedTable, IntegratedTuple};
    use lake_table::{Table, Value};
    use serde::Content;

    use super::QueryView;
    use crate::shard::ShardSnapshot;

    /// Renders a [`Content`] tree compactly (the oracle never builds a
    /// non-finite float, the encoder's only error).
    fn render(content: Content) -> String {
        serde_json::content_to_string(&content).expect("oracle trees hold finite floats only")
    }

    /// Renders the `POST /ingest` body for `table` (the client-side inverse of
    /// [`parse_ingest`]).
    pub(super) fn ingest_body(group: &str, table: &Table) -> String {
        let columns: Vec<Content> =
            table.schema().names().iter().map(|n| Content::Str((*n).to_string())).collect();
        let rows: Vec<Content> = table
            .rows()
            .iter()
            .map(|row| Content::Seq(row.iter().map(cell_content).collect()))
            .collect();
        let table_obj = Content::Map(vec![
            ("name".into(), Content::Str(table.name().to_string())),
            ("columns".into(), Content::Seq(columns)),
            ("rows".into(), Content::Seq(rows)),
        ]);
        render(Content::Map(vec![
            ("group".into(), Content::Str(group.to_string())),
            ("table".into(), table_obj),
        ]))
    }

    /// Renders a `GET /query` response body for one shard snapshot.
    ///
    /// Fully deterministic in the snapshot: the integration tests compare
    /// these bytes against a server round-trip.
    pub(super) fn query_body(view: QueryView, shard: usize, snapshot: &ShardSnapshot) -> String {
        let mut fields = vec![
            ("shard".into(), Content::U64(shard as u64)),
            ("version".into(), Content::U64(snapshot.version)),
            ("view".into(), Content::Str(view.name().to_string())),
            (
                "lake_tables".into(),
                Content::Seq(
                    snapshot.tables.iter().map(|t| Content::Str(t.name().to_string())).collect(),
                ),
            ),
        ];
        match view {
            QueryView::Table => {
                fields.push(("table".into(), table_content(&snapshot.outcome.table)));
            }
            QueryView::Report => {
                fields.push(("report".into(), report_content(snapshot)));
            }
            QueryView::Provenance => {
                fields.push(("table".into(), provenance_content(snapshot)));
            }
        }
        render(Content::Map(fields))
    }

    /// The integrated table as `{"columns": [...], "tuples": [...]}` with each
    /// tuple carrying its provenance ids and cells.
    fn table_content(table: &IntegratedTable) -> Content {
        let columns: Vec<Content> =
            table.columns().iter().map(|c| Content::Str(c.clone())).collect();
        let tuples: Vec<Content> = table
            .tuples()
            .iter()
            .map(|tuple| {
                Content::Map(vec![
                    ("tids".into(), tids_content(tuple)),
                    (
                        "cells".into(),
                        Content::Seq(tuple.values().iter().map(cell_content).collect()),
                    ),
                ])
            })
            .collect();
        Content::Map(vec![
            ("columns".into(), Content::Seq(columns)),
            ("tuples".into(), Content::Seq(tuples)),
        ])
    }

    /// Per-cell source attribution: which base tuples contributed a value to
    /// each integrated cell, derived from the integration schema's
    /// source-column mapping.  A source is attributed when its base table has a
    /// non-null cell in a column that maps to the integrated column — the base
    /// value itself may since have been rewritten to a group representative.
    fn provenance_content(snapshot: &ShardSnapshot) -> Content {
        let table = &snapshot.outcome.table;
        let index: HashMap<&str, usize> =
            snapshot.tables.iter().enumerate().map(|(i, t)| (t.name(), i)).collect();
        let columns: Vec<Content> =
            table.columns().iter().map(|c| Content::Str(c.clone())).collect();
        let tuples: Vec<Content> = table
            .tuples()
            .iter()
            .map(|tuple| {
                let cells: Vec<Content> = (0..table.columns().len())
                    .map(|col| {
                        let mut sources = Vec::new();
                        if let Some(schema) = &snapshot.schema {
                            for tid in tuple.provenance().iter() {
                                let Some(&t) = index.get(tid.table.as_str()) else { continue };
                                let base = &snapshot.tables[t];
                                for c in 0..base.num_columns() {
                                    if schema.integrated_column(t, c) == col
                                        && !matches!(base.rows()[tid.row][c], Value::Null)
                                    {
                                        sources.push(Content::Str(tid.to_string()));
                                        break;
                                    }
                                }
                            }
                        }
                        Content::Map(vec![
                            ("value".into(), cell_content(tuple.value(col))),
                            ("sources".into(), Content::Seq(sources)),
                        ])
                    })
                    .collect();
                Content::Map(vec![
                    ("tids".into(), tids_content(tuple)),
                    ("cells".into(), Content::Seq(cells)),
                ])
            })
            .collect();
        Content::Map(vec![
            ("columns".into(), Content::Seq(columns)),
            ("tuples".into(), Content::Seq(tuples)),
        ])
    }

    /// The deterministic counters of the latest integration, grouped by
    /// pipeline stage.  Durations and scheduler busy-nanos are deliberately
    /// absent (see the module docs); they live in `/stats`.
    fn report_content(snapshot: &ShardSnapshot) -> Content {
        let report = &snapshot.outcome.report;
        let blocking = &report.blocking;
        let fd = &report.fd_stats;
        let inc = &snapshot.outcome.incremental;
        Content::Map(vec![
            ("tables".into(), Content::U64(snapshot.tables.len() as u64)),
            ("tuples".into(), Content::U64(snapshot.outcome.table.len() as u64)),
            (
                "pipeline".into(),
                Content::Map(vec![
                    ("aligned_sets".into(), Content::U64(report.aligned_sets as u64)),
                    ("value_groups".into(), Content::U64(report.value_groups as u64)),
                    ("matched_groups".into(), Content::U64(report.matched_groups as u64)),
                    ("rewritten_cells".into(), Content::U64(report.rewritten_cells as u64)),
                ]),
            ),
            (
                "blocking".into(),
                Content::Map(vec![
                    ("folds".into(), Content::U64(blocking.folds as u64)),
                    ("escalated_folds".into(), Content::U64(blocking.escalated_folds as u64)),
                    ("blocks".into(), Content::U64(blocking.blocks as u64)),
                    ("candidate_pairs".into(), Content::U64(blocking.candidate_pairs as u64)),
                    ("scored_pairs".into(), Content::U64(blocking.scored_pairs as u64)),
                    ("pruned_pairs".into(), Content::U64(blocking.pruned_pairs as u64)),
                    ("split_components".into(), Content::U64(blocking.split_components as u64)),
                    ("severed_pairs".into(), Content::U64(blocking.severed_pairs as u64)),
                    ("max_block_size".into(), Content::U64(blocking.max_block_size as u64)),
                ]),
            ),
            (
                "fd".into(),
                Content::Map(vec![
                    ("input_tuples".into(), Content::U64(fd.input_tuples as u64)),
                    ("output_tuples".into(), Content::U64(fd.output_tuples as u64)),
                    ("components".into(), Content::U64(fd.components as u64)),
                    ("largest_component".into(), Content::U64(fd.largest_component as u64)),
                    ("reused_components".into(), Content::U64(fd.reused_components as u64)),
                ]),
            ),
            (
                "incremental".into(),
                Content::Map(vec![
                    ("appended_tables".into(), Content::U64(inc.appended_tables as u64)),
                    ("refolded_sets".into(), Content::U64(inc.refolded_sets as u64)),
                    ("rebuilt_sets".into(), Content::U64(inc.rebuilt_sets as u64)),
                    ("reused_sets".into(), Content::U64(inc.reused_sets as u64)),
                    ("embed_hits".into(), Content::U64(inc.embed_hits)),
                    ("embed_misses".into(), Content::U64(inc.embed_misses)),
                ]),
            ),
            (
                "caches".into(),
                Content::Map(vec![
                    ("embed_hits".into(), Content::U64(snapshot.embed_cache.0)),
                    ("embed_misses".into(), Content::U64(snapshot.embed_cache.1)),
                    ("fd_hits".into(), Content::U64(snapshot.fd_cache.0)),
                    ("fd_misses".into(), Content::U64(snapshot.fd_cache.1)),
                ]),
            ),
        ])
    }

    /// The tuple's provenance ids as a JSON array of `"table#row"` strings
    /// (already sorted — provenance is a `BTreeSet`).
    fn tids_content(tuple: &IntegratedTuple) -> Content {
        Content::Seq(tuple.provenance().iter().map(|tid| Content::Str(tid.to_string())).collect())
    }

    /// A workspace [`Value`] as a JSON cell.  Non-finite floats (which JSON
    /// cannot represent and the workspace never produces from parsed input)
    /// degrade to `null` rather than poisoning a whole response.
    fn cell_content(value: &Value) -> Content {
        match value {
            Value::Null => Content::Null,
            Value::Text(s) => Content::Str(s.clone()),
            Value::Int(i) => Content::I64(*i),
            Value::Float(f) if f.is_finite() => Content::F64(*f),
            Value::Float(_) => Content::Null,
            Value::Bool(b) => Content::Bool(*b),
        }
    }
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

    #[test]
    fn streamed_bodies_equal_the_tree_encoder_byte_for_byte() {
        for lake in [protocol_lake(), hostile_lake(), Vec::new()] {
            let snapshot = snapshot_of(&lake);
            for view in [QueryView::Table, QueryView::Report, QueryView::Provenance] {
                let streamed = query_body(view, 3, &snapshot);
                assert_eq!(streamed, oracle::query_body(view, 3, &snapshot), "{}", view.name());
                assert!(serde_json::from_str(&streamed).is_ok(), "unparseable: {streamed}");
            }
            for table in &lake {
                let streamed = ingest_body(HOSTILE, table);
                assert_eq!(streamed, oracle::ingest_body(HOSTILE, table));
                assert!(serde_json::from_str(&streamed).is_ok(), "unparseable: {streamed}");
            }
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

    /// The oracle shares the escaper with the streamed writer, so the
    /// escapes themselves are pinned as literals.
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
        durable.checkpoints = 15;
        durable.checkpointed_records = 16;
        durable.segment_blocks = 17;
        durable.pool.hits = 18;
        durable.pool.misses = 19;
        durable.pool.evictions = 20;
        durable.recovery.manifest_records = 21;
        durable.recovery.wal_records = 22;
        durable.recovery.torn_bytes = 23;

        let zero_runtime =
            r#""runtime":{"tasks":0,"steals":0,"busy_nanos":0,"sequential_batches":0},"#;
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
        // The totals sum every store counter but the pool's.
        let durability = |pool: &str| {
            r#"{"appends":11,"wal_records":12,"wal_bytes":13,"fsyncs":14,"#.to_string()
                + r#""checkpoints":15,"checkpointed_records":16,"segment_blocks":17,"#
                + r#""pool":"#
                + pool
                + r#","recovery":{"manifest_records":21,"wal_records":22,"torn_bytes":23}}"#
        };
        let golden = r#"{"policy":{"shards":2,"queue_depth":64,"readers":2,"retry_after_secs":1},"#
            .to_string()
            + r#""shards":[{"id":0,"queued":1,"busy":true,"accepted":2,"rejected":3,"applied":4,"failed":5,"#
            + &shard_tail
            + r#"},{"id":1,"queued":6,"busy":false,"accepted":7,"rejected":8,"applied":9,"failed":10,"#
            + &shard_tail
            + r#","durability":"#
            + &durability(r#"{"hits":18,"misses":19,"evictions":20}"#)
            + r#"}],"totals":{"queued":7,"accepted":9,"rejected":11,"applied":13,"failed":15,"#
            + empty_lake
            + zero_runtime
            + &zero_phases
            + r#","durable_shards":1,"durability":"#
            + &durability(r#"{"hits":0,"misses":0,"evictions":0}"#)
            + "}}";
        let body = stats_body(&ServePolicy::default(), &statuses);
        assert_eq!(body, golden);
        assert!(serde_json::from_str(&body).is_ok(), "unparseable: {body}");
    }
}
