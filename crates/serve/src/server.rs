//! The server: reader pool, shard writer loops, routing.
//!
//! Thread layout for a [`ServePolicy`] with `S` shards and `R` readers
//! (all threads come from [`lake_runtime::spawn_service`] — the workspace
//! bans raw thread primitives outside the runtime crate):
//!
//! * `R` × `serve-reader-i` — accept a connection on the shared listener,
//!   read one request, route it, write the response, close.  At most `R`
//!   connections are in flight; the rest wait in the listen backlog.
//!   Readers touch shards only through
//!   [`Shard::try_ingest`] (queue admission), [`Shard::query_body`] and
//!   [`Shard::status`] (an `Arc` clone of what the writer published), so
//!   no request ever waits on an in-flight integration.  A `/query` body
//!   is rendered by the first reader to ask for that view of a published
//!   version and shared by every later one; writers never render.
//! * `S` × `serve-writer-i` — own the shard's
//!   [`IntegrationSession`] (sessions
//!   never cross threads), drain the admission queue, publish a fresh
//!   [`ShardSnapshot`] after every applied append.
//!
//! Shutdown drains: [`ServerHandle::shutdown`] flips the stop flag and
//! connects to the server's own port until every reader, woken from
//! `accept()` or done with its connection, has exited and been joined;
//! then the batched-fsync flusher (if any) stops, and each writer finishes
//! its remaining queue before it is joined — every acknowledged ingest is
//! applied before `shutdown` returns.

// A panic here kills a reader thread: degrade to a `500` (docs/LINTS.md).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::io::{self, Read};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fuzzy_fd_core::IntegrationSession;
use lake_runtime::{pause, spawn_periodic, spawn_service, PeriodicHandle, ServiceHandle};
use lake_store::{DurableOp, FsyncPolicy, LakeStore, StoreError, StorePolicy};

use crate::http::{read_request, HttpError, Request, Response};
use crate::shard::{IngestJob, IngestReject, Shard, ShardSnapshot, ShardStatus};
use crate::wire::{self, QueryView};
use crate::ServePolicy;

/// How long a client has to send its whole request, from the accept; also
/// how long one write of the response may block.
const CLIENT_IO_TIMEOUT: Duration = Duration::from_secs(10);
/// How often a reader blocked on a silent client looks at the stop flag,
/// which bounds what such a client can add to a shutdown.
const STOP_CHECK: Duration = Duration::from_millis(100);
/// Pause after a failed `accept()`.  Descriptor exhaustion (`EMFILE`) fails
/// every call until a connection closes; retrying at once would spin.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(5);
/// First and longest pause between two attempts to wake the readers.
const WAKE_BACKOFF_MIN: Duration = Duration::from_micros(100);
const WAKE_BACKOFF_MAX: Duration = Duration::from_millis(20);
/// How long one wake-up connection attempt may take.
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// Errors starting a [`LakeServer`].
#[derive(Debug)]
pub enum ServeError {
    /// The [`ServePolicy`] failed validation.
    InvalidPolicy(String),
    /// Binding or configuring the listener failed.
    Io(std::io::Error),
    /// Opening or recovering a shard's durable store failed.
    Store(StoreError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::InvalidPolicy(msg) => write!(f, "invalid serve policy: {msg}"),
            ServeError::Io(err) => write!(f, "server I/O error: {err}"),
            ServeError::Store(err) => write!(f, "durable store error: {err}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(err: std::io::Error) -> Self {
        ServeError::Io(err)
    }
}

impl From<StoreError> for ServeError {
    fn from(err: StoreError) -> Self {
        ServeError::Store(err)
    }
}

/// Durability configuration for [`LakeServer::start_durable`].
///
/// Each shard gets its own [`LakeStore`] in `dir/shard-<i>`; an ingest is
/// appended to the shard's write-ahead log *before* it is acknowledged
/// with `202`, so under [`FsyncPolicy::Always`] (the default) every
/// acknowledged table survives `kill -9`.  On restart each shard writer
/// replays its log before draining new work, reproducing the
/// pre-crash `/query` bodies byte for byte.
#[derive(Debug, Clone, PartialEq)]
pub struct DurabilityPolicy {
    /// Root directory; shard `i` stores under `dir/shard-<i>`.
    pub dir: PathBuf,
    /// Per-shard store policy (fsync cadence).
    pub store: StorePolicy,
    /// How often the background flusher syncs the logs under
    /// [`FsyncPolicy::Batched`] (ignored for `Always`/`Never`, which
    /// need no flusher).
    pub flush_interval: Duration,
}

impl DurabilityPolicy {
    /// A durability policy rooted at `dir` with default store settings
    /// (fsync on every append) and a 25 ms batched-flush interval.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        DurabilityPolicy {
            dir: dir.into(),
            store: StorePolicy::default(),
            flush_interval: Duration::from_millis(25),
        }
    }

    /// Validates the policy (same contract as [`ServePolicy::validate`]).
    pub fn validate(&self) -> Result<(), String> {
        if self.store.fsync == FsyncPolicy::Batched && self.flush_interval.is_zero() {
            return Err("flush_interval must be positive under batched fsync".to_string());
        }
        Ok(())
    }
}

/// The sharded integration server.  See the [crate docs](crate) for the
/// protocol and [`ServePolicy`] for sizing.
pub struct LakeServer;

impl LakeServer {
    /// Starts a server on an OS-assigned loopback port.
    pub fn start(policy: ServePolicy) -> Result<ServerHandle, ServeError> {
        LakeServer::start_on(policy, SocketAddr::from(([127, 0, 0, 1], 0)))
    }

    /// Starts a server bound to `addr`.
    pub fn start_on(policy: ServePolicy, addr: SocketAddr) -> Result<ServerHandle, ServeError> {
        LakeServer::start_inner(policy, addr, None)
    }

    /// Starts a durable server on an OS-assigned loopback port: every
    /// acknowledged ingest is write-ahead logged under `durability.dir`
    /// and replayed on restart.
    pub fn start_durable(
        policy: ServePolicy,
        durability: DurabilityPolicy,
    ) -> Result<ServerHandle, ServeError> {
        LakeServer::start_durable_on(policy, durability, SocketAddr::from(([127, 0, 0, 1], 0)))
    }

    /// Starts a durable server bound to `addr`.
    pub fn start_durable_on(
        policy: ServePolicy,
        durability: DurabilityPolicy,
        addr: SocketAddr,
    ) -> Result<ServerHandle, ServeError> {
        durability.validate().map_err(ServeError::InvalidPolicy)?;
        LakeServer::start_inner(policy, addr, Some(durability))
    }

    fn start_inner(
        policy: ServePolicy,
        addr: SocketAddr,
        durability: Option<DurabilityPolicy>,
    ) -> Result<ServerHandle, ServeError> {
        policy.validate().map_err(ServeError::InvalidPolicy)?;
        // Every reader accepts on it; the last one to exit closes it.
        let listener = Arc::new(TcpListener::bind(addr)?);
        let local_addr = listener.local_addr()?;

        let shards: Arc<Vec<Arc<Shard>>> = Arc::new(
            (0..policy.shards)
                .map(|id| {
                    let empty = IntegrationSession::begin(policy.integration, &[])
                        .map_err(|err| ServeError::InvalidPolicy(err.to_string()))?;
                    let initial = ShardSnapshot::from_session(0, &empty);
                    let shard = match &durability {
                        Some(durability) => {
                            let store = LakeStore::open(
                                &durability.dir.join(format!("shard-{id}")),
                                durability.store,
                            )?;
                            Shard::new_durable(id, policy.queue_depth, initial, store)
                        }
                        None => Shard::new(id, policy.queue_depth, initial),
                    };
                    Ok(Arc::new(shard))
                })
                .collect::<Result<_, ServeError>>()?,
        );

        let stop = Arc::new(AtomicBool::new(false));
        let readers = (0..policy.readers)
            .map(|i| {
                let listener = Arc::clone(&listener);
                let shards = Arc::clone(&shards);
                let stop = Arc::clone(&stop);
                spawn_service(format!("serve-reader-{i}"), move || {
                    reader_loop(&listener, &shards, &policy, &stop)
                })
            })
            .collect();

        let writers = shards
            .iter()
            .map(|shard| {
                let shard = Arc::clone(shard);
                spawn_service(format!("serve-writer-{}", shard.id()), move || {
                    writer_loop(shard, policy)
                })
            })
            .collect();

        // Batched fsync trades per-append syncs for a periodic group
        // flush; `Always` and `Never` need no service thread.
        let flusher = durability
            .filter(|durability| durability.store.fsync == FsyncPolicy::Batched)
            .map(|durability| {
                let shards = Arc::clone(&shards);
                spawn_periodic("serve-flush", durability.flush_interval, move || {
                    for shard in shards.iter() {
                        // A failed flush keeps the records in the log
                        // buffer; the next tick (or writer exit) retries.
                        let _ = shard.with_store(|store| store.flush().is_ok());
                    }
                })
            });

        Ok(ServerHandle { addr: local_addr, shards, stop, readers, writers, flusher })
    }
}

/// A running server.  Dropping the handle without calling
/// [`shutdown`](Self::shutdown) detaches the service threads (the process
/// keeps serving until exit).
pub struct ServerHandle {
    addr: SocketAddr,
    shards: Arc<Vec<Arc<Shard>>>,
    stop: Arc<AtomicBool>,
    readers: Vec<ServiceHandle>,
    writers: Vec<ServiceHandle>,
    flusher: Option<PeriodicHandle>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("shards", &self.shards.len())
            .field("readers", &self.readers.len())
            .finish()
    }
}

impl ServerHandle {
    /// The bound address (useful with an OS-assigned port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Per-shard statuses, as `/stats` reports them.
    pub fn statuses(&self) -> Vec<ShardStatus> {
        self.shards.iter().map(|s| s.status()).collect()
    }

    /// Deliberately poisons shard `id`'s queue mutex.  Test-only hook for
    /// the degraded-shard regression tests (see
    /// [`Shard::poison_queue_for_test`]); panics on an out-of-range id.
    #[doc(hidden)]
    pub fn poison_shard_for_test(&self, id: usize) {
        self.shards[id].poison_queue_for_test();
    }

    /// Stops the server: no new connections, readers joined once they
    /// have served the connection each already accepted, every shard queue
    /// drained and applied, writers joined.  Propagates a panic from any
    /// service thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        wake_readers(self.addr, &self.readers);
        self.readers.drain(..).for_each(ServiceHandle::join);
        if let Some(flusher) = self.flusher.take() {
            flusher.stop();
        }
        for shard in self.shards.iter() {
            shard.stop();
        }
        // Each durable writer flushes its log on exit, so after `shutdown`
        // every acknowledged ingest is applied and on stable storage.
        for writer in self.writers.drain(..) {
            writer.join();
        }
    }

    /// Blocks the calling thread until the readers exit — forever in a
    /// long-running process such as `examples/serve.rs`, since only
    /// [`shutdown`](Self::shutdown) stops them and this call consumes the
    /// handle.
    pub fn wait(self) {
        self.readers.into_iter().for_each(ServiceHandle::join);
    }
}

/// Makes the readers notice the stop flag, which the caller has already
/// set: connects to the listener (on loopback when it is bound to an
/// unspecified address) until every reader has exited.
///
/// A reader parked in `accept()` takes one call and returns; a busy one
/// sees the flag when its connection is done, or at its next [`STOP_CHECK`]
/// if the client is silent.  The pause between attempts is bounded.
fn wake_readers(addr: SocketAddr, readers: &[ServiceHandle]) {
    let target = match addr {
        SocketAddr::V4(v4) if v4.ip().is_unspecified() => {
            SocketAddr::from((Ipv4Addr::LOCALHOST, addr.port()))
        }
        SocketAddr::V6(v6) if v6.ip().is_unspecified() => {
            SocketAddr::from((Ipv6Addr::LOCALHOST, addr.port()))
        }
        bound => bound,
    };
    let mut backoff = WAKE_BACKOFF_MIN;
    while !readers.iter().all(ServiceHandle::is_finished) {
        // Success or failure, the answer that counts is the readers' exit.
        let _ = TcpStream::connect_timeout(&target, WAKE_CONNECT_TIMEOUT);
        pause(backoff);
        backoff = (backoff * 2).min(WAKE_BACKOFF_MAX);
    }
}

/// A client connection as a reader reads it: a read blocks while the
/// client is silent, up to `deadline` (fixed at the accept, so trickled
/// bytes do not extend it) — or, once the server is stopping, up to the
/// next [`STOP_CHECK`] tick.  Bytes that have already arrived are
/// delivered, so a request sent before a shutdown is still served.
struct ClientStream<'a> {
    stream: &'a TcpStream,
    stop: &'a AtomicBool,
    deadline: Instant,
}

impl Read for ClientStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if Instant::now() >= self.deadline {
                return Err(io::ErrorKind::TimedOut.into());
            }
            let outcome = self.stream.read(buf);
            // The socket's read timeout is `STOP_CHECK`; which of the two
            // kinds reports it depends on the platform.
            let timed_out = outcome.as_ref().is_err_and(|err| {
                matches!(err.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
            });
            if !timed_out || self.stop.load(Ordering::SeqCst) {
                return outcome;
            }
        }
    }
}

/// Reader loop: accept a connection and serve its one request, until stopped.
fn reader_loop(
    listener: &TcpListener,
    shards: &[Arc<Shard>],
    policy: &ServePolicy,
    stop: &AtomicBool,
) {
    while !stop.load(Ordering::SeqCst) {
        let accepted = listener.accept();
        // A wake-up call of [`wake_readers`], or a client that raced it:
        // either way it was never promised service.
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok((mut stream, _)) = accepted else {
            // A connection reset before it was accepted is not fatal to the
            // server, and neither is running out of descriptors.
            pause(ACCEPT_ERROR_BACKOFF);
            continue;
        };
        let deadline = Instant::now() + CLIENT_IO_TIMEOUT;
        let _ = stream.set_read_timeout(Some(STOP_CHECK));
        let _ = stream.set_write_timeout(Some(CLIENT_IO_TIMEOUT));
        let response = match read_request(&mut ClientStream { stream: &stream, stop, deadline }) {
            Ok(request) => handle_request(&request, shards, policy),
            Err(HttpError::BadRequest(msg)) => Response::json(400, wire::error_body(&msg)),
            Err(HttpError::TooLarge(what)) => {
                let status = if what == "request body" { 413 } else { 431 };
                Response::json(status, wire::error_body(&format!("{what} too large")))
            }
            // Nothing sensible can be written on a broken socket.
            Err(HttpError::Io(_)) => continue,
        };
        // A client gone before the response is its problem, not ours.
        let _ = response.write_to(&mut stream);
    }
}

/// Routes one parsed request.  Pure except for shard queue admission.
fn handle_request(request: &Request, shards: &[Arc<Shard>], policy: &ServePolicy) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/ingest") => handle_ingest(request, shards, policy),
        ("GET", "/query") => handle_query(request, shards),
        ("GET", "/health") => Response::json(200, wire::health_body(shards.len())),
        ("GET", "/stats") => {
            let statuses: Vec<ShardStatus> = shards.iter().map(|s| s.status()).collect();
            Response::json(200, wire::stats_body(policy, &statuses))
        }
        ("POST", "/query" | "/health" | "/stats") | ("GET", "/ingest") => {
            Response::json(405, wire::error_body("method not allowed for this route"))
        }
        _ => Response::json(404, wire::error_body("no such route")),
    }
}

/// `POST /ingest`: parse, route by group hash, admit or reject.
fn handle_ingest(request: &Request, shards: &[Arc<Shard>], policy: &ServePolicy) -> Response {
    let parsed = match wire::parse_ingest(&request.body) {
        Ok(parsed) => parsed,
        Err(msg) => return Response::json(400, wire::error_body(&msg)),
    };
    let shard_id = crate::route_group(&parsed.group, shards.len());
    let job = IngestJob { group: parsed.group.clone(), table: parsed.table };
    match shards[shard_id].try_ingest(job) {
        Ok(queued) => Response::json(202, wire::ingest_ack_body(&parsed.group, shard_id, queued)),
        Err(IngestReject::QueueFull(queued)) => Response::json(
            429,
            wire::reject_body(&parsed.group, shard_id, queued, policy.retry_after_secs),
        )
        .with_retry_after(policy.retry_after_secs),
        // The table could not be made durable, so it must not be
        // acknowledged (a 202 is a durability promise on durable shards).
        Err(IngestReject::Wal(msg)) => {
            Response::json(500, wire::error_body(&format!("durable log append failed: {msg}")))
        }
        // A thread panicked while holding this shard's queue lock.  Reads
        // keep serving the last published snapshot, but new appends are
        // refused rather than promised by a wounded shard.
        Err(IngestReject::Poisoned) => Response::json(
            500,
            wire::error_body("shard queue poisoned by an earlier panic; ingest refused"),
        ),
    }
}

/// `GET /query`: resolve the shard (by `shard` index or `group` hash) and
/// answer with its published version's body for the requested view —
/// rendered now if this is the first request for it, shared otherwise.
fn handle_query(request: &Request, shards: &[Arc<Shard>]) -> Response {
    let view = match QueryView::parse(request.query_param("view")) {
        Ok(view) => view,
        Err(msg) => return Response::json(400, wire::error_body(&msg)),
    };
    let shard_id = match (request.query_param("shard"), request.query_param("group")) {
        (Some(raw), _) => match raw.parse::<usize>() {
            Ok(id) if id < shards.len() => id,
            Ok(id) => {
                let msg = format!("shard {id} out of range (server has {})", shards.len());
                return Response::json(400, wire::error_body(&msg));
            }
            Err(_) => return Response::json(400, wire::error_body("unparseable shard index")),
        },
        (None, Some(group)) => crate::route_group(group, shards.len()),
        (None, None) => {
            return Response::json(400, wire::error_body("pass either `shard` or `group`"))
        }
    };
    Response::json(200, shards[shard_id].query_body(view))
}

/// Shard writer loop: owns the session, drains the queue, publishes
/// snapshots.  Exits once stopped *and* drained.
///
/// On a durable shard the loop first replays the records the store
/// recovered at open — the session is confined to this thread, so replay
/// cannot happen in `start_inner`.  New ingests admitted during replay
/// simply queue behind it; log order stays apply order.
fn writer_loop(shard: Arc<Shard>, policy: ServePolicy) {
    let session = IntegrationSession::begin(policy.integration, &[]);
    #[expect(
        clippy::expect_used,
        reason = "unreachable — start_inner already built a session from this exact policy and \
                  surfaced any error as ServeError before spawning this writer"
    )]
    let mut session = session.expect("policy validated in start_inner");
    let mut version = 0u64;

    if shard.is_durable() {
        let recovered = shard.with_store(LakeStore::take_recovered).unwrap_or_default();
        let (mut applied, mut failed) = (0u64, 0u64);
        for record in &recovered {
            // The serving layer logs one Append per ingest; EmptyBatch
            // records only appear in library-made snapshots.
            if let DurableOp::Append { table, .. } = &record.op {
                match session.add_table(table) {
                    Ok(_) => {
                        version += 1;
                        applied += 1;
                    }
                    // Mirrors the live path below: an append that failed
                    // integration before the crash fails identically on
                    // replay (integration is deterministic).
                    Err(_) => failed += 1,
                }
            }
        }
        shard.record_recovery(applied, failed);
        // Publish even when nothing was recovered: a version-0 snapshot
        // with durability counters signals recovery is complete.
        shard.publish(ShardSnapshot::from_session(version, &session));
    }

    while let Some(job) = shard.next_job() {
        let applied = match session.add_table(&job.table) {
            Ok(_) => {
                version += 1;
                shard.publish(ShardSnapshot::from_session(version, &session));
                true
            }
            // The ingest was acknowledged with 202 but cannot be applied
            // (e.g. a table-level error surfaced during integration); the
            // failure is visible in `/stats` as `failed`.  Its log record
            // stays — replay reproduces the same failure, keeping
            // recovered state identical to live state.
            Err(_) => false,
        };
        shard.finish_job(applied);
    }

    // Drained and stopping: sync whatever a batched policy still holds.
    let _ = shard.with_store(LakeStore::flush);
}

#[cfg(test)]
mod tests {
    use lake_table::TableBuilder;

    use super::*;
    use crate::ServeClient;

    /// Shuts `server` down, holding the call to a second and the port free
    /// for the next bind.
    fn shutdown_promptly(server: ServerHandle) {
        let addr = server.addr();
        let started = Instant::now();
        server.shutdown();
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
        TcpListener::bind(addr).expect("the port is free again after shutdown");
    }

    #[test]
    fn an_idle_server_shuts_down_promptly_fifty_times_over() {
        for _ in 0..50 {
            shutdown_promptly(LakeServer::start(ServePolicy::default()).unwrap());
        }
    }

    #[test]
    fn a_wildcard_listener_is_woken_over_loopback() {
        let any = SocketAddr::from((Ipv4Addr::UNSPECIFIED, 0));
        shutdown_promptly(LakeServer::start_on(ServePolicy::default(), any).unwrap());
    }

    #[test]
    fn a_connected_but_silent_client_does_not_hold_up_shutdown() {
        let server = LakeServer::start(ServePolicy::default()).unwrap();
        let silent = TcpStream::connect(server.addr()).unwrap();
        // Connections are accepted in order, so once this answer is back a
        // reader holds the silent one.
        assert_eq!(ServeClient::new(server.addr()).health().unwrap().status, 200);
        shutdown_promptly(server);
        drop(silent);
    }

    /// A client that sends one byte per 50 ms never lets a read time out;
    /// only a deadline fixed at the accept cuts it off.
    #[test]
    fn a_trickling_client_is_cut_off_at_the_request_deadline() {
        let listener = TcpListener::bind(SocketAddr::from(([127, 0, 0, 1], 0))).unwrap();
        let addr = listener.local_addr().unwrap();
        let client = spawn_service("trickle-client", move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            // Two seconds of trickle at most, or until the server hangs up.
            for _ in 0..40 {
                if io::Write::write_all(&mut stream, b"G").is_err() {
                    return;
                }
                pause(Duration::from_millis(50));
            }
        });
        let (stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(STOP_CHECK)).unwrap();
        let stop = AtomicBool::new(false);
        let started = Instant::now();
        let deadline = started + Duration::from_millis(300);
        let outcome = read_request(&mut ClientStream { stream: &stream, stop: &stop, deadline });
        let took = started.elapsed();
        assert!(matches!(outcome, Err(HttpError::Io(_))), "{outcome:?}");
        assert!(took < Duration::from_secs(1), "read_request took {took:?}");
        drop(stream);
        client.join();
    }

    #[test]
    fn an_ingest_acknowledged_just_before_shutdown_is_applied() {
        let policy = ServePolicy { shards: 1, ..ServePolicy::default() };
        let server = LakeServer::start(policy).unwrap();
        let shards = Arc::clone(&server.shards);
        let client = ServeClient::new(server.addr());
        for name in ["a", "b", "c"] {
            let table = TableBuilder::new(name, ["City"]).row(["Berlin"]).build().unwrap();
            assert_eq!(client.ingest("g", &table).unwrap().status, 202);
        }
        server.shutdown();
        let status = shards[0].status();
        assert_eq!((status.accepted, status.applied, status.queued), (3, 3, 0));
        assert_eq!(status.snapshot.version, 3);
    }
}
