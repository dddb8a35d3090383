//! Restart/recovery tests for the durable serving path
//! ([`LakeServer::start_durable`]): a restarted server must replay its
//! write-ahead logs and serve `/query` bodies **byte-identical** to the
//! uninterrupted run over every acknowledged ingest — and an un-acked torn
//! log tail must be cleanly absent, never partially applied.

use std::path::PathBuf;
use std::time::Duration;

use datalake_fuzzy_fd::benchdata::serving::{generate_serving_trace, ServingTraceConfig};
use datalake_fuzzy_fd::serve::{
    route_group, DurabilityPolicy, LakeServer, QueryTarget, ServeClient, ServePolicy,
};
use datalake_fuzzy_fd::store::{FsyncPolicy, StorePolicy};

const IDLE_TIMEOUT: Duration = Duration::from_secs(120);

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serve-durability-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn small_trace() -> ServingTraceConfig {
    ServingTraceConfig { tenants: 3, tables_per_tenant: 2, entities: 20, seed: 0xD07A }
}

/// Polls `/stats` until `totals.applied` reaches `expected` (recovery
/// replay included) and the queues are idle.
fn wait_applied(client: &ServeClient, expected: u64) {
    let deadline = std::time::Instant::now() + IDLE_TIMEOUT;
    loop {
        let stats = client.stats().expect("stats").json().expect("stats JSON");
        let applied = stats
            .get("totals")
            .and_then(|t| t.get("applied"))
            .and_then(serde_json::Value::as_u64)
            .unwrap_or(0);
        if applied >= expected && client.wait_idle(IDLE_TIMEOUT).expect("stats") {
            return;
        }
        assert!(std::time::Instant::now() < deadline, "recovery stalled at applied={applied}");
        datalake_fuzzy_fd::runtime::pause(Duration::from_millis(5));
    }
}

/// Captures every `/query` body for every tenant and view.
fn capture_views(client: &ServeClient, tenants: &[&str]) -> Vec<(String, String, String)> {
    let mut views = Vec::new();
    for tenant in tenants {
        for view in ["table", "report", "provenance"] {
            let reply = client.query(QueryTarget::Group(tenant), view).expect("query");
            assert_eq!(reply.status, 200, "query failed: {}", reply.body);
            views.push(((*tenant).to_string(), view.to_string(), reply.body));
        }
    }
    views
}

#[test]
fn restarted_server_serves_byte_identical_views() {
    let dir = test_dir("restart");
    let policy = ServePolicy { shards: 2, ..ServePolicy::default() };
    let durability = DurabilityPolicy::at(&dir);
    let trace = generate_serving_trace(small_trace());
    let tenants: Vec<&str> = trace.tenants();

    // Uninterrupted run: ingest the whole trace, record every view body.
    let server = LakeServer::start_durable(policy, durability.clone()).expect("server starts");
    let client = ServeClient::new(server.addr());
    for arrival in &trace.arrivals {
        let ack = client.ingest(&arrival.tenant, &arrival.table).expect("ingest");
        assert_eq!(ack.status, 202, "unexpected ack: {}", ack.body);
    }
    assert!(client.wait_idle(IDLE_TIMEOUT).expect("stats"), "queues did not drain");
    let before = capture_views(&client, &tenants);

    // Durability counters are live on the uninterrupted run too.
    let stats = client.stats().expect("stats").json().expect("stats JSON");
    let durability_totals = stats
        .get("totals")
        .and_then(|t| t.get("durability"))
        .expect("durable servers report totals.durability");
    assert_eq!(
        durability_totals.get("appends").and_then(serde_json::Value::as_u64),
        Some(trace.arrivals.len() as u64),
        "every acknowledged ingest is logged: {stats:?}"
    );
    assert!(
        durability_totals.get("fsyncs").and_then(serde_json::Value::as_u64).unwrap_or(0)
            >= trace.arrivals.len() as u64,
        "fsync-per-append is the default policy: {stats:?}"
    );
    server.shutdown();

    // Restart over the same directory: replay, then compare bytes.
    let server = LakeServer::start_durable(policy, durability.clone()).expect("server restarts");
    let client = ServeClient::new(server.addr());
    wait_applied(&client, trace.arrivals.len() as u64);
    let after = capture_views(&client, &tenants);
    assert_eq!(before.len(), after.len());
    for ((tenant, view, before), (_, _, after)) in before.iter().zip(&after) {
        assert_eq!(before, after, "tenant {tenant} view {view} diverged across restart");
    }

    // Recovery provenance is visible: every replayed record came from the
    // log.
    let stats = client.stats().expect("stats").json().expect("stats JSON");
    let recovered = stats
        .get("totals")
        .and_then(|t| t.get("durability"))
        .and_then(|d| d.get("recovery"))
        .and_then(|r| r.get("wal_records"))
        .and_then(serde_json::Value::as_u64);
    assert_eq!(recovered, Some(trace.arrivals.len() as u64), "recovery covers the whole trace");

    // The restarted server keeps serving: a fresh ingest applies on top of
    // the recovered state.
    let arrival = &trace.arrivals[0];
    let ack = client.ingest(&arrival.tenant, &arrival.table).expect("post-restart ingest");
    assert_eq!(ack.status, 202);
    wait_applied(&client, trace.arrivals.len() as u64 + 1);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_log_tail_is_cleanly_absent_after_restart() {
    let dir = test_dir("torn");
    let policy = ServePolicy { shards: 1, ..ServePolicy::default() };
    let durability = DurabilityPolicy::at(&dir);
    let trace = generate_serving_trace(ServingTraceConfig {
        tenants: 1,
        tables_per_tenant: 2,
        entities: 15,
        seed: 0x70A1,
    });

    let server = LakeServer::start_durable(policy, durability.clone()).expect("server starts");
    let client = ServeClient::new(server.addr());
    for arrival in &trace.arrivals {
        assert_eq!(client.ingest(&arrival.tenant, &arrival.table).expect("ingest").status, 202);
    }
    assert!(client.wait_idle(IDLE_TIMEOUT).expect("stats"));
    let tenants: Vec<&str> = trace.tenants();
    let before = capture_views(&client, &tenants);
    server.shutdown();

    // A crash tore an in-flight (never acknowledged) record: fake the
    // half-written frame at the log tail of the tenant's shard.
    let shard = route_group(tenants[0], 1);
    let wal = dir.join(format!("shard-{shard}")).join("wal");
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(&[99, 0, 0, 0, 1, 2, 3]); // claims 99 payload bytes, has 3
    std::fs::write(&wal, &bytes).unwrap();

    // The restarted server drops the tear: same bytes as before the
    // crash, nothing partially applied, and the tear is accounted for.
    let server = LakeServer::start_durable(policy, durability).expect("server restarts");
    let client = ServeClient::new(server.addr());
    wait_applied(&client, trace.arrivals.len() as u64);
    let after = capture_views(&client, &tenants);
    for ((tenant, view, before), (_, _, after)) in before.iter().zip(&after) {
        assert_eq!(before, after, "tenant {tenant} view {view} diverged across the torn tail");
    }
    let stats = client.stats().expect("stats").json().expect("stats JSON");
    let torn = stats
        .get("totals")
        .and_then(|t| t.get("durability"))
        .and_then(|d| d.get("recovery"))
        .and_then(|r| r.get("torn_bytes"))
        .and_then(serde_json::Value::as_u64);
    assert_eq!(torn, Some(7), "the dropped tail is reported in /stats: {stats:?}");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batched_fsync_flusher_persists_acknowledged_ingests() {
    let dir = test_dir("batched");
    let policy = ServePolicy { shards: 1, ..ServePolicy::default() };
    let durability = DurabilityPolicy {
        store: StorePolicy { fsync: FsyncPolicy::Batched, ..StorePolicy::default() },
        flush_interval: Duration::from_millis(5),
        ..DurabilityPolicy::at(&dir)
    };
    let trace = generate_serving_trace(ServingTraceConfig {
        tenants: 1,
        tables_per_tenant: 2,
        entities: 15,
        seed: 0xBA7C,
    });

    let server = LakeServer::start_durable(policy, durability.clone()).expect("server starts");
    let client = ServeClient::new(server.addr());
    for arrival in &trace.arrivals {
        assert_eq!(client.ingest(&arrival.tenant, &arrival.table).expect("ingest").status, 202);
    }
    assert!(client.wait_idle(IDLE_TIMEOUT).expect("stats"));
    let tenants: Vec<&str> = trace.tenants();
    let before = capture_views(&client, &tenants);
    server.shutdown();

    let server = LakeServer::start_durable(policy, durability).expect("server restarts");
    let client = ServeClient::new(server.addr());
    wait_applied(&client, trace.arrivals.len() as u64);
    let after = capture_views(&client, &tenants);
    for ((tenant, view, before), (_, _, after)) in before.iter().zip(&after) {
        assert_eq!(before, after, "tenant {tenant} view {view} diverged under batched fsync");
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_shard_directory_holds_only_its_log_across_shutdown_and_restart() {
    let dir = test_dir("only-wal");
    let policy = ServePolicy { shards: 1, ..ServePolicy::default() };
    let trace = generate_serving_trace(ServingTraceConfig {
        tenants: 1,
        tables_per_tenant: 2,
        entities: 10,
        seed: 0x0A1F,
    });
    for _ in 0..2 {
        let server =
            LakeServer::start_durable(policy, DurabilityPolicy::at(&dir)).expect("server starts");
        let client = ServeClient::new(server.addr());
        for arrival in &trace.arrivals {
            assert_eq!(client.ingest(&arrival.tenant, &arrival.table).expect("ingest").status, 202);
        }
        assert!(client.wait_idle(IDLE_TIMEOUT).expect("stats"));
        server.shutdown();
    }
    let mut files: Vec<String> = std::fs::read_dir(dir.join("shard-0"))
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert_eq!(files, ["wal"]);
    std::fs::remove_dir_all(&dir).ok();
}
