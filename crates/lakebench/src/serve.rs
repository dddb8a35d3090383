//! The served workload: a durable two-shard `lake-serve` instance in this
//! process, driven over loopback.
//!
//! * **paced** (open loop): one ingest thread and one query thread, each on
//!   its own seeded exponential inter-arrival schedule; every latency is
//!   timed from the moment the request was *due*, so a stall is charged to
//!   the requests queued behind it, and the generators' own lateness is
//!   reported.
//! * **burst** (closed loop): every ingest back to back, then wait until
//!   every shard has applied its share.
//! * **restart**: shut the burst server down, start a new one on the same
//!   directory and time until everything acknowledged is applied again.
//!
//! Load-generator threads come from `lake_runtime::spawn_service`, two of
//! them (one per core of the reference sandbox).

use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fuzzy_fd_core::{FuzzyFdConfig, IncrementalOutcome, IntegrationSession};
use lake_runtime::{pause, spawn_service};
use lake_serve::{
    wire, DurabilityPolicy, LakeServer, QueryTarget, QueryView, ServeClient, ServePolicy,
    ServerHandle, ShardSnapshot,
};
use lake_table::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::inputs::{self, Inputs, LakeSet, Scale, ServedArrival, SHARDS};
use crate::library::{match_f1, regular_unit, MatchedLake};
use crate::outcome::{peak_rss_mb, Outcome, RunConfig, ScratchDir};
use crate::stats::{fastest, fnv1a, median, FNV_OFFSET};

/// How long a drain or a recovery may take before the run gives up.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(120);
/// Share of `--seconds` after which no further paced lifecycle starts.
const PACED_SHARE: f64 = 0.55;
/// Burst lifecycles a run measures at least.
const MIN_BURSTS: usize = 2;

/// Paced arrival rates, per second.
#[derive(Debug, Clone, Copy)]
pub struct Rates {
    /// Ingests per second.
    pub ingest: f64,
    /// Queries per second.
    pub query: f64,
}

impl Rates {
    /// 24 ingests/s (about a fifth of the measured burst capacity) beside
    /// 60 queries/s at full size; the miniature runs faster to stay short.
    pub fn for_scale(scale: Scale) -> Rates {
        match scale {
            Scale::Full => Rates { ingest: 24.0, query: 60.0 },
            Scale::Tiny => Rates { ingest: 100.0, query: 200.0 },
        }
    }
}

/// What the served workload prepares before its first timed request.
#[derive(Debug)]
pub struct Prepared {
    /// The generated trace and the per-shard lakes.
    pub inputs: Inputs,
    /// Tenant names in first-arrival order.
    pub tenants: Vec<String>,
}

/// Generates the trace, renders the wire bodies and boots a first server.
pub fn prepare(config: &RunConfig) -> Result<Prepared, String> {
    let inputs = inputs::generate(config.workload, config.seed, config.scale);
    let mut tenants: Vec<String> = Vec::new();
    for arrival in &inputs.arrivals {
        if !tenants.contains(&arrival.tenant) {
            tenants.push(arrival.tenant.clone());
        }
    }
    let dir = ScratchDir::create(&config.scratch, "serve-boot").map_err(|e| e.to_string())?;
    let server = boot(dir.path())?;
    let health = ServeClient::new(server.addr()).health().map_err(|e| e.to_string());
    server.shutdown();
    if health?.status != 200 {
        return Err("the freshly booted server is not healthy".into());
    }
    Ok(Prepared { inputs, tenants })
}

fn boot(dir: &Path) -> Result<ServerHandle, String> {
    LakeServer::start_durable(ServePolicy::default(), DurabilityPolicy::at(dir))
        .map_err(|e| e.to_string())
}

/// Waits until the shards have applied `expected` tables between them and
/// published the snapshot of the last one.
///
/// `ServeClient::wait_idle` is not enough after a restart: a writer still
/// replaying its log has an empty queue and is not `busy`, so "idle" is
/// reached with an empty lake.  The applied count and the snapshot
/// versions (the counters `/stats` renders) say when replay is complete.
fn wait_applied(server: &ServerHandle, expected: u64) -> bool {
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    loop {
        let statuses = server.statuses();
        let settled: u64 = statuses.iter().map(|s| s.applied + s.failed).sum();
        let published: u64 = statuses.iter().map(|s| s.snapshot.version).sum();
        let idle = statuses.iter().all(|s| s.queued == 0 && !s.busy);
        if settled >= expected && published >= expected && idle {
            return statuses.iter().all(|s| s.failed == 0);
        }
        if Instant::now() >= deadline {
            return false;
        }
        pause(Duration::from_millis(5));
    }
}

/// The served `view=table` body of every shard.
fn fetch_bodies(client: &ServeClient) -> Result<Vec<String>, String> {
    (0..SHARDS)
        .map(|shard| {
            let reply =
                client.query(QueryTarget::Shard(shard), "table").map_err(|e| e.to_string())?;
            if reply.status == 200 {
                Ok(reply.body)
            } else {
                Err(format!("query of shard {shard} answered {}", reply.status))
            }
        })
        .collect()
}

/// The tables each shard receives, as the server parses them.
pub fn shard_tables(arrivals: &[ServedArrival]) -> Result<Vec<Vec<Table>>, String> {
    let mut tables: Vec<Vec<Table>> = vec![Vec::new(); SHARDS];
    for arrival in arrivals {
        tables[arrival.shard].push(wire::parse_ingest(arrival.body.as_bytes())?.table);
    }
    Ok(tables)
}

/// A library replay of one shard's arrivals: its tables, final outcome and
/// the body the server must answer `view=table` with.
#[derive(Debug)]
pub struct ShardReplay {
    /// The shard's tables, in arrival order.
    pub tables: Vec<Table>,
    /// The session's final outcome.
    pub outcome: Arc<IncrementalOutcome>,
    /// `wire::query_body` over the session's final snapshot.
    pub body: String,
}

/// Replays every shard's arrivals through a direct `IntegrationSession`.
pub fn replay_shards(arrivals: &[ServedArrival]) -> Result<Vec<ShardReplay>, String> {
    shard_tables(arrivals)?
        .into_iter()
        .enumerate()
        .map(|(shard, tables)| {
            let mut session = IntegrationSession::begin(FuzzyFdConfig::default(), &[])
                .map_err(|e| e.to_string())?;
            for table in &tables {
                session.add_table(table).map_err(|e| e.to_string())?;
            }
            let snapshot = ShardSnapshot::from_session(tables.len() as u64, &session);
            let body = wire::query_body(QueryView::Table, shard, &snapshot);
            Ok(ShardReplay { tables, outcome: session.snapshot(), body })
        })
        .collect()
}

/// One request of a paced schedule, as its generator thread saw it.
#[derive(Debug, Clone, Copy)]
pub struct Paced {
    /// When the request was due.
    pub due: Instant,
    /// When the generator actually started sending it.
    pub sent: Instant,
    /// When the full response had arrived.
    pub done: Instant,
    /// Whether the answer was the expected status.
    pub ok: bool,
}

impl Paced {
    /// Milliseconds from the due time to the full response.
    pub fn latency_ms(&self) -> f64 {
        self.done.duration_since(self.due).as_secs_f64() * 1e3
    }

    /// Milliseconds the generator started late.
    pub fn late_ms(&self) -> f64 {
        self.sent.duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// What one paced lifecycle observed.
#[derive(Debug, Default)]
pub struct PacedObs {
    /// Ingest requests (`202` expected).
    pub acks: Vec<Paced>,
    /// Query requests (`200` expected).
    pub queries: Vec<Paced>,
    /// Tables still queued or being integrated when the schedule ended.
    pub backlog: usize,
    /// Ingests the server refused (`429`).
    pub rejected: u64,
    /// Served bodies per shard once drained.
    pub bodies: Vec<String>,
}

/// Cumulative exponential arrival offsets (seconds) at `rate` per second:
/// `count` of them, or as many as fit before `horizon`.
fn schedule(rng: &mut StdRng, rate: f64, count: Option<usize>, horizon: f64) -> Vec<f64> {
    let mut offsets = Vec::new();
    let mut at = 0.0;
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        at += -(1.0 - u).ln() / rate;
        let full = count.map_or(at > horizon, |count| offsets.len() >= count);
        if full {
            return offsets;
        }
        offsets.push(at);
    }
}

/// Sends one request per offset, sleeping until each is due.
fn drive(start: Instant, offsets: &[f64], mut send: impl FnMut(usize) -> bool) -> Vec<Paced> {
    offsets
        .iter()
        .enumerate()
        .map(|(i, offset)| {
            let due = start + Duration::from_secs_f64(*offset);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                pause(wait);
            }
            let sent = Instant::now();
            let ok = send(i);
            Paced { due, sent: sent.max(due), done: Instant::now(), ok }
        })
        .collect()
}

/// One paced lifecycle on a fresh durable server.
pub fn paced_lifecycle(
    prepared: &Prepared,
    scratch: &Path,
    seed: u64,
    rates: Rates,
) -> Result<PacedObs, String> {
    let arrivals = &prepared.inputs.arrivals;
    let dir = ScratchDir::create(scratch, "serve-paced").map_err(|e| e.to_string())?;
    let server = boot(dir.path())?;
    let client = ServeClient::new(server.addr());

    let mut rng = StdRng::seed_from_u64(inputs::mix_seed(0x9ACE_D000, seed));
    let ingest_offsets = schedule(&mut rng, rates.ingest, Some(arrivals.len()), 0.0);
    let horizon = ingest_offsets.last().copied().unwrap_or(0.0);
    let query_offsets = schedule(&mut rng, rates.query, None, horizon);
    let start = Instant::now() + Duration::from_millis(20);

    let (ack_tx, ack_rx) = mpsc::channel();
    let ingest = {
        let client = client.clone();
        let bodies: Vec<String> = arrivals.iter().map(|a| a.body.clone()).collect();
        spawn_service("lakebench-ingest", move || {
            let mut rejected = 0u64;
            let acks = drive(start, &ingest_offsets, |i| {
                let status = client.raw("POST", "/ingest", Some(&bodies[i])).map(|r| r.status);
                rejected += u64::from(status.as_ref().is_ok_and(|s| *s == 429));
                status.is_ok_and(|s| s == 202)
            });
            // The receiver outlives this thread; a failed send means the
            // run is already being torn down.
            let _ = ack_tx.send((acks, rejected));
        })
    };
    let (query_tx, query_rx) = mpsc::channel();
    let query = {
        let client = client.clone();
        let tenants = prepared.tenants.clone();
        spawn_service("lakebench-query", move || {
            let queries = drive(start, &query_offsets, |i| {
                let target = QueryTarget::Group(&tenants[i % tenants.len()]);
                client.query(target, "table").is_ok_and(|r| r.status == 200)
            });
            let _ = query_tx.send(queries);
        })
    };
    ingest.join();
    query.join();
    let (acks, rejected) = ack_rx.recv().map_err(|e| e.to_string())?;
    let queries = query_rx.recv().map_err(|e| e.to_string())?;

    let backlog = server.statuses().iter().map(|s| s.queued + usize::from(s.busy)).sum::<usize>();
    let accepted = acks.iter().filter(|a| a.ok).count() as u64;
    let drained = wait_applied(&server, accepted);
    let bodies = fetch_bodies(&client);
    server.shutdown();
    if !drained {
        return Err("the paced server did not drain".into());
    }
    Ok(PacedObs { acks, queries, backlog, rejected, bodies: bodies? })
}

/// What one burst-and-restart lifecycle observed.
#[derive(Debug)]
pub struct BurstObs {
    /// First send until every shard had applied its share, in seconds.
    pub drain_s: f64,
    /// Restart until everything acknowledged was applied again, in seconds.
    pub recover_s: f64,
    /// Ingests not answered `202`.
    pub refused: u64,
    /// Served bodies per shard before the shutdown.
    pub before: Vec<String>,
    /// Served bodies per shard after the restart.
    pub after: Vec<String>,
}

/// One burst lifecycle: every ingest back to back, drain, restart.
pub fn burst_lifecycle(prepared: &Prepared, scratch: &Path) -> Result<BurstObs, String> {
    let arrivals = &prepared.inputs.arrivals;
    let dir = ScratchDir::create(scratch, "serve-burst").map_err(|e| e.to_string())?;
    let server = boot(dir.path())?;
    let client = ServeClient::new(server.addr());

    let start = Instant::now();
    let mut refused = 0u64;
    for arrival in arrivals {
        let status = client.raw("POST", "/ingest", Some(&arrival.body)).map(|r| r.status);
        refused += u64::from(!status.is_ok_and(|s| s == 202));
    }
    let accepted = arrivals.len() as u64 - refused;
    let drained = wait_applied(&server, accepted);
    let drain_s = start.elapsed().as_secs_f64();
    let before = fetch_bodies(&client);
    server.shutdown();
    if !drained {
        return Err("the burst server did not drain".into());
    }

    let start = Instant::now();
    let server = boot(dir.path())?;
    let recovered = wait_applied(&server, accepted);
    let recover_s = start.elapsed().as_secs_f64();
    let after = fetch_bodies(&ServeClient::new(server.addr()));
    server.shutdown();
    if !recovered {
        return Err("the restarted server did not recover every acknowledged table".into());
    }
    Ok(BurstObs { drain_s, recover_s, refused, before: before?, after: after? })
}

/// Everything one run of the served workload observed.
#[derive(Debug, Default)]
pub struct Observed {
    /// Paced lifecycles.
    pub paced: Vec<PacedObs>,
    /// Burst lifecycles after the warm-up one.
    pub bursts: Vec<BurstObs>,
    /// Regular-FD seconds, one per burst.
    pub regular_s: Vec<f64>,
    /// Operations attempted (requests, lifecycles, checks).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// What went wrong.
    pub problems: Vec<String>,
    /// Digest of the bodies every shard must serve (and did, when no
    /// problem is reported).
    pub digest: u64,
    /// Macro-F1 of the replayed value groups against gold.
    pub match_f1: f64,
    /// Tuples in the shards' final tables.
    pub output_tuples: usize,
}

impl Observed {
    /// Paced ack latencies in milliseconds, lifecycles pooled.
    pub fn ack_ms(&self) -> Vec<f64> {
        self.paced.iter().flat_map(|p| p.acks.iter().map(Paced::latency_ms)).collect()
    }

    /// Paced query latencies in milliseconds, lifecycles pooled.
    pub fn query_ms(&self) -> Vec<f64> {
        self.paced.iter().flat_map(|p| p.queries.iter().map(Paced::latency_ms)).collect()
    }

    /// Generator lateness in milliseconds, both threads and all lifecycles.
    pub fn late_ms(&self) -> Vec<f64> {
        self.paced
            .iter()
            .flat_map(|p| p.acks.iter().chain(&p.queries).map(Paced::late_ms))
            .collect()
    }
}

/// Regular-FD seconds over every shard lake's clean twin.
fn regular_units(sets: &[LakeSet]) -> Result<f64, String> {
    sets.iter().map(regular_unit).sum()
}

/// Runs the paced and burst phases for `config.seconds` and checks every
/// served body against a library replay made beforehand.
pub fn measure(config: &RunConfig, prepared: &Prepared) -> Observed {
    let mut seen = Observed { attempted: 1, ..Observed::default() };
    let arrivals = &prepared.inputs.arrivals;
    let replays = match replay_shards(arrivals) {
        Ok(replays) => replays,
        Err(problem) => {
            seen.problems.push(format!("library replay: {problem}"));
            seen.failed = seen.attempted;
            return seen;
        }
    };
    let lakes: Vec<_> = prepared
        .inputs
        .sets
        .iter()
        .zip(&replays)
        .map(|(set, replay)| MatchedLake {
            gold: &set.gold,
            tables: &replay.tables,
            value_groups: &replay.outcome.value_groups,
        })
        .collect();
    seen.match_f1 = match_f1(&lakes);
    seen.output_tuples = replays.iter().map(|r| r.outcome.table.len()).sum();
    seen.digest = replays.iter().fold(FNV_OFFSET, |h, r| fnv1a(h, r.body.as_bytes()));
    let as_replayed = |bodies: &[String]| bodies.iter().eq(replays.iter().map(|r| &r.body));
    let differs = "a served body differs from the library replay";

    let rates = Rates::for_scale(config.scale);
    let started = Instant::now();
    let elapsed = || started.elapsed().as_secs_f64();

    // Warm-up: first lifecycle, timings discarded, bodies still checked.
    seen.attempted += 1;
    match burst_lifecycle(prepared, &config.scratch) {
        Ok(burst) if as_replayed(&burst.before) && as_replayed(&burst.after) => {}
        Ok(_) => seen.problems.push(format!("warm-up: {differs}")),
        Err(problem) => seen.problems.push(format!("warm-up: {problem}")),
    }

    while seen.problems.is_empty()
        && (seen.paced.is_empty() || elapsed() < PACED_SHARE * config.seconds)
    {
        let lifecycle = seen.paced.len() as u64;
        match paced_lifecycle(prepared, &config.scratch, config.seed.wrapping_add(lifecycle), rates)
        {
            Ok(paced) => {
                seen.attempted += (paced.acks.len() + paced.queries.len()) as u64;
                seen.failed +=
                    paced.acks.iter().chain(&paced.queries).filter(|r| !r.ok).count() as u64;
                if !as_replayed(&paced.bodies) {
                    seen.problems.push(differs.into());
                }
                seen.paced.push(paced);
            }
            Err(problem) => seen.problems.push(problem),
        }
    }
    while seen.problems.is_empty() && (seen.bursts.len() < MIN_BURSTS || elapsed() < config.seconds)
    {
        let lifecycle = burst_lifecycle(prepared, &config.scratch)
            .and_then(|burst| Ok((burst, regular_units(&prepared.inputs.sets)?)));
        match lifecycle {
            Ok((burst, regular_s)) => {
                seen.attempted += arrivals.len() as u64 + 2; // + restart, regular FD
                seen.failed += burst.refused;
                if burst.before != burst.after {
                    seen.problems.push("bodies changed across the restart".into());
                }
                if !as_replayed(&burst.before) {
                    seen.problems.push(differs.into());
                }
                seen.bursts.push(burst);
                seen.regular_s.push(regular_s);
            }
            Err(problem) => seen.problems.push(problem),
        }
    }

    if seen.failed > 0 {
        seen.problems.push(format!("{} requests were refused or failed", seen.failed));
    }
    if !seen.problems.is_empty() {
        seen.failed = seen.attempted;
    }
    seen
}

/// Runs the served workload with tracing off and reports the end-to-end
/// metrics: the fastest burst drain, restart and regular FD (see
/// [`fastest`]), and the median latencies of the paced lifecycles pooled.
pub fn run(config: &RunConfig, prepared: &Prepared, setup_s: f64) -> Outcome {
    let seen = measure(config, prepared);
    let over_bursts = |pick: fn(&BurstObs) -> f64| -> f64 {
        fastest(&seen.bursts.iter().map(pick).collect::<Vec<_>>())
    };
    let drain_s = over_bursts(|b| b.drain_s);
    let metrics = vec![
        ("setup_s", setup_s),
        ("integrate_s", drain_s),
        ("fuzzy_overhead", drain_s / fastest(&seen.regular_s)),
        ("match_f1", seen.match_f1),
        ("peak_rss_mb", peak_rss_mb()),
        ("ack_p50_ms", median(&seen.ack_ms())),
        ("query_p50_ms", median(&seen.query_ms())),
        ("recover_s", over_bursts(|b| b.recover_s)),
    ];
    Outcome {
        correct: seen.problems.is_empty(),
        attempted: seen.attempted,
        failed: seen.failed,
        metrics,
        digest: seen.digest,
        problems: seen.problems,
    }
}
