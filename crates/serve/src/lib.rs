//! # lake-serve
//!
//! A sharded, concurrent serving layer over
//! [`IntegrationSession`](fuzzy_fd_core::IntegrationSession): the paper's
//! fuzzy-FD integration pipeline as a long-running service instead of a
//! library call.
//!
//! ## Architecture
//!
//! The lake is split into `shards` independent shards; a table *group*
//! (the client-chosen routing key, e.g. a tenant) maps to a shard by name
//! hash ([`route_group`]).  Each shard owns one `IntegrationSession`
//! confined to a dedicated writer thread, fed by a **bounded admission
//! queue**: `POST /ingest` returns `202` once the table is queued, or
//! `429` + `Retry-After` when the queue is full — backpressure is part of
//! the protocol, not an accident of buffering.
//!
//! Reads never touch a session.  After every applied append the writer
//! publishes an immutable [`ShardSnapshot`] behind an
//! `RwLock<Arc<_>>`; readers clone the `Arc` under a momentary lock and
//! work entirely from their own handle.  A query issued during a
//! multi-second integration therefore returns immediately — with the
//! *previous* snapshot — and appends are never blocked by readers.  A
//! `/query` body is rendered at most once per published version and view:
//! the first reader to ask streams it ([`wire::query_body`]), later readers
//! share those bytes ([`Shard::query_body`]), and the next publish drops
//! them with the version they belong to.
//!
//! The server speaks hand-rolled HTTP/1.1 over `std::net` (the build
//! environment has no registry access, so no tokio/hyper): one request per
//! connection, `Content-Length` framing, `Connection: close`.  All service
//! threads come from [`lake_runtime::spawn_service`]; none of them polls —
//! each reader blocks in `accept()` on the shared listener, and
//! [`ServerHandle::shutdown`] wakes the readers with connections to the
//! server's own port (thread layout and shutdown order in [`server`]).
//!
//! ## Durability
//!
//! [`LakeServer::start_durable`] gives every shard a
//! [`LakeStore`](lake_store::LakeStore) under `dir/shard-<i>`: an ingest
//! is write-ahead logged *before* the `202` is written, so an
//! acknowledged table survives `kill -9` (under the default
//! fsync-per-append policy).  On restart each shard writer replays its
//! log before draining new work — integration is deterministic, so the
//! recovered `/query` bodies are byte-identical to an uninterrupted run.
//! The log is the shard's only file.  `/stats` grows a per-shard
//! `durability` section (log size, fsyncs, what recovery found); see
//! `docs/OPERATIONS.md` for the recovery runbook.
//!
//! ## Routes
//!
//! | Route | Purpose |
//! |---|---|
//! | `POST /ingest` | Append a table to its group's shard (`202`/`429`) |
//! | `GET /query`  | Snapshot reads: `table`, `report`, `provenance` views |
//! | `GET /health` | Liveness |
//! | `GET /stats`  | Queue depths, shard versions, runtime/incremental aggregates |
//!
//! The full wire protocol is specified in `docs/PROTOCOL.md`; operational
//! guidance (sizing [`ServePolicy`], reading `/stats`) in
//! `docs/OPERATIONS.md`.
//!
//! ## Determinism
//!
//! Every `/query` body is rendered by the public [`wire`] module from a
//! [`ShardSnapshot`] alone, with fixed key order and no timing-dependent
//! fields — so integrating the same tables through a direct
//! `IntegrationSession` and rendering with the same functions reproduces
//! the server's bytes exactly (asserted in `tests/serve_integration.rs`).
//!
//! ## Example
//!
//! ```
//! use lake_serve::{LakeServer, QueryTarget, ServeClient, ServePolicy};
//! use lake_table::TableBuilder;
//!
//! let server = LakeServer::start(ServePolicy::default()).unwrap();
//! let client = ServeClient::new(server.addr());
//!
//! let table = TableBuilder::new("S0", ["City", "Cases"]).row(["Berlin", "1.4M"]).build().unwrap();
//! assert_eq!(client.ingest("covid", &table).unwrap().status, 202);
//! assert!(client.wait_idle(std::time::Duration::from_secs(10)).unwrap());
//!
//! let reply = client.query(QueryTarget::Group("covid"), "table").unwrap();
//! assert_eq!(reply.status, 200);
//! assert!(reply.body.contains("\"Berlin\""));
//! server.shutdown();
//! ```

pub mod client;
pub mod http;
pub mod policy;
pub mod server;
pub mod shard;
pub mod wire;

pub use client::{ClientError, QueryTarget, Reply, ServeClient};
pub use policy::ServePolicy;
pub use server::{DurabilityPolicy, LakeServer, ServeError, ServerHandle};
pub use shard::{route_group, IngestJob, IngestReject, Shard, ShardSnapshot, ShardStatus};
pub use wire::QueryView;
