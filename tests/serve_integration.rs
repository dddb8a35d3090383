//! End-to-end tests of the `lake-serve` wire protocol over a loopback
//! socket, covering every documented route (`docs/PROTOCOL.md`):
//!
//! * sharded ingest-then-query equals a direct [`IntegrationSession`]
//!   replay **byte-for-byte**, for all three query views;
//! * concurrent readers during a slow ingest see only the prior snapshot
//!   (and are not blocked by the in-flight integration);
//! * a full admission queue returns `429` with `Retry-After`;
//! * malformed requests return `400` without killing the worker.

use std::time::{Duration, Instant};

use datalake_fuzzy_fd::benchdata::append::{generate_append_workload, AppendWorkloadConfig};
use datalake_fuzzy_fd::benchdata::serving::{generate_serving_trace, ServingTraceConfig};
use datalake_fuzzy_fd::core::IntegrationSession;
use datalake_fuzzy_fd::serve::{
    route_group, wire, LakeServer, QueryTarget, QueryView, ServeClient, ServePolicy, ShardSnapshot,
};
use datalake_fuzzy_fd::table::Table;

const IDLE_TIMEOUT: Duration = Duration::from_secs(120);

fn small_trace() -> ServingTraceConfig {
    ServingTraceConfig { tenants: 3, tables_per_tenant: 3, entities: 25, seed: 0xBEEF }
}

/// Tables that take long enough to integrate that the writer is observably
/// busy while the test queries and floods the admission queue.
fn slow_tables(count: usize) -> Vec<Table> {
    let workload = generate_append_workload(AppendWorkloadConfig {
        entities: 300,
        initial_tables: 1,
        appended_tables: count.saturating_sub(1),
        seed: 0xD0_5E,
        ..AppendWorkloadConfig::default()
    });
    workload.all_tables()
}

/// Replays `tables` through a direct session exactly as a shard writer
/// does: begin empty, one `add_table` per arrival.
fn replay_snapshot(policy: &ServePolicy, tables: &[&Table]) -> ShardSnapshot {
    let mut session = IntegrationSession::begin(policy.integration, &[]).expect("config validates");
    for table in tables {
        session.add_table(table).expect("replay append");
    }
    ShardSnapshot::from_session(tables.len() as u64, &session)
}

#[test]
fn sharded_queries_match_direct_integration_byte_for_byte() {
    let policy = ServePolicy { shards: 2, ..ServePolicy::default() };
    let server = LakeServer::start(policy).expect("server starts");
    let client = ServeClient::new(server.addr());
    let trace = generate_serving_trace(small_trace());

    for arrival in &trace.arrivals {
        let ack = client.ingest(&arrival.tenant, &arrival.table).expect("ingest");
        assert_eq!(ack.status, 202, "unexpected ack: {}", ack.body);
        let ack_json = ack.json().expect("ack is JSON");
        assert_eq!(
            ack_json.get("shard").and_then(serde_json::Value::as_u64),
            Some(route_group(&arrival.tenant, policy.shards) as u64),
            "server must route by the documented group hash"
        );
    }
    assert!(client.wait_idle(IDLE_TIMEOUT).expect("stats"), "queues did not drain");

    for shard in 0..policy.shards {
        let routed: Vec<&Table> = trace
            .arrivals
            .iter()
            .filter(|a| route_group(&a.tenant, policy.shards) == shard)
            .map(|a| &a.table)
            .collect();
        let expected = replay_snapshot(&policy, &routed);
        for view in [QueryView::Table, QueryView::Report, QueryView::Provenance] {
            let reply = client.query(QueryTarget::Shard(shard), view.name()).expect("query");
            assert_eq!(reply.status, 200, "query failed: {}", reply.body);
            let direct = wire::query_body(view, shard, &expected);
            assert_eq!(
                reply.body,
                direct,
                "shard {shard} view {} diverges from direct integration",
                view.name()
            );
        }
    }

    // Querying by group must resolve to the same shard (and bytes) as
    // querying the shard index directly.
    for tenant in trace.tenants() {
        let shard = route_group(tenant, policy.shards);
        let by_group = client.query(QueryTarget::Group(tenant), "table").expect("query");
        let by_shard = client.query(QueryTarget::Shard(shard), "table").expect("query");
        assert_eq!(by_group.body, by_shard.body);
    }
    server.shutdown();
}

#[test]
fn concurrent_readers_see_only_the_prior_snapshot() {
    let policy = ServePolicy { shards: 1, queue_depth: 16, ..ServePolicy::default() };
    let server = LakeServer::start(policy).expect("server starts");
    let client = ServeClient::new(server.addr());
    let tables = slow_tables(3);

    for table in &tables {
        let ack = client.ingest("heavy", table).expect("ingest");
        assert_eq!(ack.status, 202, "unexpected ack: {}", ack.body);
    }

    // While the writer grinds through the queue, queries must return
    // immediately with a *previous* snapshot.  Each observed version v is
    // verified byte-for-byte against a direct replay of the first v
    // arrivals — whatever instant the query caught, the snapshot it saw is
    // a consistent prior state, never a torn or blocking read.
    let mut observed = Vec::new();
    loop {
        let started = Instant::now();
        let reply = client.query(QueryTarget::Group("heavy"), "table").expect("query");
        let elapsed = started.elapsed();
        assert_eq!(reply.status, 200);
        assert!(
            elapsed < Duration::from_secs(5),
            "snapshot read took {elapsed:?} — readers must not wait on the writer"
        );
        let version = reply
            .json()
            .expect("query body is JSON")
            .get("version")
            .and_then(serde_json::Value::as_u64)
            .expect("query body carries a version");
        observed.push((version, reply.body));
        if version == tables.len() as u64 {
            break;
        }
    }
    // The loop necessarily caught at least one pre-final snapshot: three
    // multi-hundred-ms integrations cannot all complete inside the first
    // millisecond-scale query round-trip.
    assert!(
        observed.first().expect("at least one query ran").0 < tables.len() as u64,
        "every query saw the final snapshot — the reads were blocked on the writer"
    );
    for (version, body) in &observed {
        let routed: Vec<&Table> = tables.iter().take(*version as usize).collect();
        let expected = wire::query_body(QueryView::Table, 0, &replay_snapshot(&policy, &routed));
        assert_eq!(body, &expected, "snapshot at version {version} is not a prior state");
    }
    // A reader never goes back in time: a memoised body is dropped with its
    // version, so a later read cannot be answered from an earlier one.
    assert!(
        observed.windows(2).all(|pair| pair[0].0 <= pair[1].0),
        "versions went backwards: {:?}",
        observed.iter().map(|(version, _)| version).collect::<Vec<_>>()
    );
    assert!(client.wait_idle(IDLE_TIMEOUT).expect("stats"));
    let settled = client.query(QueryTarget::Group("heavy"), "table").expect("query");
    assert_eq!(
        settled.body,
        observed.last().expect("at least one query ran").1,
        "an idle server must keep serving its last version"
    );
    server.shutdown();
}

#[test]
fn full_admission_queue_returns_429_with_retry_after() {
    let policy =
        ServePolicy { shards: 1, queue_depth: 1, retry_after_secs: 2, ..ServePolicy::default() };
    let server = LakeServer::start(policy).expect("server starts");
    let client = ServeClient::new(server.addr());
    let tables = slow_tables(4);

    let mut accepted = 0;
    let mut rejected = 0;
    for table in &tables {
        let reply = client.ingest("burst", table).expect("ingest");
        match reply.status {
            202 => accepted += 1,
            429 => {
                rejected += 1;
                assert_eq!(reply.retry_after, Some(2), "429 must carry Retry-After");
                let body = reply.json().expect("429 body is JSON");
                assert_eq!(
                    body.get("error").and_then(serde_json::Value::as_str),
                    Some("shard queue full")
                );
                assert_eq!(
                    body.get("retry_after_secs").and_then(serde_json::Value::as_u64),
                    Some(2)
                );
            }
            other => panic!("unexpected ingest status {other}: {}", reply.body),
        }
    }
    // The writer needs hundreds of milliseconds per table while the whole
    // burst arrives within a few; a depth-1 queue cannot absorb all four.
    assert!(accepted >= 1, "the first table must be admitted");
    assert!(rejected >= 1, "a depth-1 queue must reject part of the burst");

    assert!(client.wait_idle(IDLE_TIMEOUT).expect("stats"));
    let stats = client.stats().expect("stats").json().expect("stats JSON");
    let shard = &stats.get("shards").and_then(serde_json::Value::as_array).expect("shards")[0];
    assert_eq!(shard.get("rejected").and_then(serde_json::Value::as_u64), Some(rejected as u64));
    assert_eq!(
        shard.get("applied").and_then(serde_json::Value::as_u64),
        Some(accepted as u64),
        "every acknowledged ingest must be applied after drain"
    );
    // Rejected tables can be retried after the queue drains.
    assert_eq!(client.ingest("burst", tables.last().unwrap()).expect("retry").status, 202);
    assert!(client.wait_idle(IDLE_TIMEOUT).expect("stats"));
    server.shutdown();
}

#[test]
fn malformed_requests_return_4xx_without_killing_the_worker() {
    // One reader thread: if any malformed request killed it, every
    // follow-up request would hang or fail.
    let policy = ServePolicy { shards: 1, readers: 1, ..ServePolicy::default() };
    let server = LakeServer::start(policy).expect("server starts");
    let client = ServeClient::new(server.addr());

    // A well-formed ingest around one cell literal.
    let ingest_cell = |cell: &str| {
        let body =
            format!(r#"{{"group":"g","table":{{"name":"T","columns":["a"],"rows":[[{cell}]]}}}}"#);
        raw_request(&client, "POST", "/ingest", Some(&body))
    };
    let cases: Vec<(u16, datalake_fuzzy_fd::serve::Reply)> = vec![
        // Bad JSON body.
        (400, raw_request(&client, "POST", "/ingest", Some("{not json"))),
        // Literals RFC 8259 forbids: a leading zero, a bare decimal point, a
        // signed `\u` escape.
        (400, ingest_cell("01")),
        (400, ingest_cell("1.")),
        (400, ingest_cell(r#""\u+041""#)),
        // Valid JSON, invalid ingest shape.
        (400, raw_request(&client, "POST", "/ingest", Some("{\"group\":\"g\"}"))),
        // Arity mismatch inside rows.
        (
            400,
            raw_request(
                &client,
                "POST",
                "/ingest",
                Some(r#"{"group":"g","table":{"name":"T","columns":["a"],"rows":[[1,2]]}}"#),
            ),
        ),
        // Unknown view / missing target / bad shard index.
        (400, raw_request(&client, "GET", "/query?shard=0&view=nope", None)),
        (400, raw_request(&client, "GET", "/query", None)),
        (400, raw_request(&client, "GET", "/query?shard=99&view=table", None)),
        // Unknown route and wrong method.
        (404, raw_request(&client, "GET", "/nope", None)),
        (405, raw_request(&client, "POST", "/health", None)),
        (405, raw_request(&client, "GET", "/ingest", None)),
    ];
    for (expected, reply) in cases {
        assert_eq!(reply.status, expected, "body: {}", reply.body);
        assert!(
            reply.json().expect("error body is JSON").get("error").is_some(),
            "error bodies carry an `error` field: {}",
            reply.body
        );
        // The worker survived: the next request on a fresh connection works.
        let health = client.health().expect("health after error");
        assert_eq!(health.status, 200);
    }

    // Raw garbage that is not even an HTTP request line.
    {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
        stream.write_all(b"\x00\x01garbage\r\n\r\n").expect("write");
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 400"), "got: {out:?}");
    }
    assert_eq!(client.health().expect("health").status, 200);

    // /health and /stats body shapes (the remaining documented routes).
    let health = client.health().expect("health").json().expect("health JSON");
    assert_eq!(health.get("status").and_then(serde_json::Value::as_str), Some("ok"));
    assert_eq!(health.get("shards").and_then(serde_json::Value::as_u64), Some(1));
    let stats = client.stats().expect("stats").json().expect("stats JSON");
    for field in ["policy", "shards", "totals"] {
        assert!(stats.get(field).is_some(), "stats body misses `{field}`");
    }
    server.shutdown();
}

#[test]
fn plus_signs_and_duplicate_content_lengths_over_a_raw_socket() {
    let policy = ServePolicy { shards: 4, readers: 1, ..ServePolicy::default() };
    let server = LakeServer::start(policy).expect("server starts");
    let addr = server.addr();

    // RFC 3986: `+` is a literal in paths.  An unknown route containing a
    // plus parses cleanly and 404s — it is not a 400 and not `/c  /docs`.
    let reply = raw_socket(addr, b"GET /c++/docs HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.1 404"), "got: {reply}");

    // In the query string `+` *is* a space, so a group literally named
    // "a+b" must travel as `a%2Bb`; a raw `a+b` resolves group "a b".
    // The `shard` field of the query body exposes which group routed.
    let plus = raw_socket(
        addr,
        b"GET /query?group=a%2Bb&view=report HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
    );
    let space =
        raw_socket(addr, b"GET /query?group=a+b&view=report HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    assert_eq!(shard_of(&plus), route_group("a+b", 4), "a%2Bb routes the group `a+b`");
    assert_eq!(shard_of(&space), route_group("a b", 4), "a+b routes the group `a b`");

    // A table ingested under the group "a+b" (the JSON body needs no
    // escaping) is visible when queried with `a%2Bb`.
    let body = r#"{"group":"a+b","table":{"name":"PlusT","columns":["c"],"rows":[["v"]]}}"#;
    let ack = raw_socket(
        addr,
        format!("POST /ingest HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len()).as_bytes(),
    );
    assert!(ack.starts_with("HTTP/1.1 202"), "got: {ack}");
    let client = ServeClient::new(addr);
    assert!(client.wait_idle(IDLE_TIMEOUT).expect("stats"));
    let view = raw_socket(
        addr,
        b"GET /query?group=a%2Bb&view=table HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
    );
    assert!(view.contains("PlusT"), "got: {view}");

    // Conflicting duplicate Content-Length headers: 400, not first-wins.
    let reply = raw_socket(
        addr,
        b"POST /ingest HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\nabcde",
    );
    assert!(reply.starts_with("HTTP/1.1 400"), "got: {reply}");
    assert!(reply.contains("content-length"), "got: {reply}");

    // Identical duplicates are tolerated.
    let reply =
        raw_socket(addr, b"GET /health HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 0\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.1 200"), "got: {reply}");

    // A signed length and a signed percent escape are malformed: `+5` must
    // not frame a five-byte body, `%+f` must not decode to 0x0f.
    let reply = raw_socket(addr, b"POST /ingest HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello");
    assert!(reply.starts_with("HTTP/1.1 400"), "got: {reply}");
    let reply = raw_socket(addr, b"GET /query?group=%+f HTTP/1.1\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.1 400"), "got: {reply}");

    // The reader survived the whole sweep.
    assert_eq!(client.health().expect("health").status, 200);
    server.shutdown();
}

/// Sends raw bytes over a fresh socket and returns the full response text.
fn raw_socket(addr: std::net::SocketAddr, request: &[u8]) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    stream.write_all(request).expect("write request");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read response");
    out
}

/// Extracts the `shard` field from a raw `/query` response.
fn shard_of(response: &str) -> usize {
    let body = response.split("\r\n\r\n").nth(1).expect("response has a body");
    let doc: serde_json::Value = serde_json::from_str(body).expect("JSON body");
    doc.get("shard").and_then(serde_json::Value::as_u64).expect("shard field") as usize
}

/// Issues a request with an arbitrary method/target through the client's
/// transport (the typed helpers only cover well-formed calls).
fn raw_request(
    client: &ServeClient,
    method: &str,
    target: &str,
    body: Option<&str>,
) -> datalake_fuzzy_fd::serve::Reply {
    client.raw(method, target, body).expect("raw request")
}

/// Regression: a poisoned shard must degrade, not panic the reader pool.
///
/// Before the panic-path triage, a thread that panicked while holding a
/// shard's queue lock left every later request to that shard hitting
/// `.lock().expect(..)` inside a reader thread: the reader died, the
/// connection closed with *no response bytes*, and the pool shrank by one
/// reader per request.  Now ingest answers `500` on the wire
/// (`IngestReject::Poisoned` — no durability promise from a wounded
/// shard), while reads recover the plain-data locks and keep serving.
#[test]
fn poisoned_shard_returns_500_on_the_wire_and_readers_survive() {
    let policy = ServePolicy { shards: 1, ..ServePolicy::default() };
    let server = LakeServer::start(policy).expect("server starts");
    let client = ServeClient::new(server.addr());

    // A healthy ingest first, so the snapshot has real content to keep
    // serving after the shard is wounded.
    let trace = generate_serving_trace(small_trace());
    let arrival = &trace.arrivals[0];
    assert_eq!(client.ingest(&arrival.tenant, &arrival.table).expect("ingest").status, 202);
    assert!(client.wait_idle(IDLE_TIMEOUT).expect("stats"), "queue did not drain");

    server.poison_shard_for_test(0);

    // The wounded shard refuses ingest with a real HTTP response — over a
    // raw socket, so a panicked-and-dropped connection (the old failure
    // mode: zero response bytes) cannot masquerade as a pass.
    let body = wire::ingest_body(&arrival.tenant, &arrival.table);
    let request = format!(
        "POST /ingest HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let response = raw_socket(server.addr(), request.as_bytes());
    assert!(response.starts_with("HTTP/1.1 500"), "expected a 500 status line, got: {response:?}");
    assert!(response.contains("poisoned"), "the body should say why: {response:?}");

    // The reader pool survived: health, stats and queries still serve
    // (each on a fresh connection — readers handle one request per
    // connection, so these would hang or reset if readers had died).
    for _ in 0..3 {
        assert_eq!(client.health().expect("health").status, 200);
    }
    let reply = client.query(QueryTarget::Shard(0), "table").expect("query");
    assert_eq!(reply.status, 200, "reads must keep serving: {}", reply.body);
    assert_eq!(client.stats().expect("stats").status, 200);

    server.shutdown();
}
