//! Fleet-tier acceptance suite — the controller + worker-pool behaviours
//! that the `swlb-fleet` crate promises, exercised over real sockets with
//! in-process controller and worker instances:
//!
//! * a mixed multi-tenant workload placed across two workers runs every job
//!   to completion with fleet ids stable and stats breakdowns consistent;
//! * per-tenant quotas cap *concurrent placements* at the fleet level, and
//!   priority aging lets a waiting Batch job overtake Interactive work
//!   submitted after it (the starvation-bound regression);
//! * the migration envelope round-trips a v3 chunked checkpoint bit-exact
//!   from a 2-rank distributed run into a case solver at the API level, and
//!   between workers over the real handoff → push HTTP path;
//! * `submit_with_retry` rides through a journal-full degraded window;
//! * the worker-side `/v1/stats` exposes per-priority queue depth and
//!   per-tenant running/queued counts;
//! * a terminal reaches the controller when it happens (a wake, not the next
//!   heartbeat), and wakes that are lost, stale, duplicated or forged cost a
//!   heartbeat of delay or an idle sync — never a second terminal record, a
//!   quota breach or a slow shutdown.
//!
//! The 100k-job soak stays `--ignored`; `just fleet-check` runs the 1k CI
//! variant of the same binary.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use swlb_fleet::{Controller, FleetConfig, PolicyConfig};
use swlb_obs::Recorder;
use swlb_serve::json::Json;
use swlb_serve::{
    http, CaseKind, CaseSpec, JobSpec, LatticeKind, Priority, PushEnvelope, ServeClient,
    ServeConfig, Server, StorageScheme,
};

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swlb-fleet-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cavity(nx: usize, ny: usize) -> CaseSpec {
    CaseSpec {
        case: CaseKind::Cavity,
        lattice: LatticeKind::D2Q9,
        nx,
        ny,
        nz: 1,
        tau: 0.8,
        u_lattice: 0.05,
        storage: StorageScheme::Ab,
        time_block: 1,
    }
}

fn job(name: &str, steps: u64, priority: Priority, tenant: &str) -> JobSpec {
    JobSpec {
        name: name.into(),
        case: cavity(10, 10),
        steps,
        priority,
        deadline_ms: None,
        outputs: vec![],
        chaos_nan_at_step: None,
        width: 1,
        tenant: tenant.into(),
    }
}

/// Spawn an in-process worker-mode serve instance and register it with the
/// controller at `controller_addr`.
fn spawn_worker(dir: &Path, name: &str, controller_addr: &str, slice_steps: u64) -> Server {
    spawn_worker_with(dir, name, controller_addr, slice_steps, Recorder::disabled())
}

/// [`spawn_worker`] with the worker's own counters (`serve.wakes_*`) exposed.
fn spawn_worker_with(
    dir: &Path,
    name: &str,
    controller_addr: &str,
    slice_steps: u64,
    recorder: Recorder,
) -> Server {
    let worker_dir = dir.join(name);
    let mut cfg = ServeConfig::new(&worker_dir);
    cfg.worker_routes = true;
    cfg.slice_steps = slice_steps;
    cfg.threads = 2;
    cfg.capacity = 16;
    cfg.recorder = recorder;
    let server = Server::spawn(cfg).expect("spawn worker");
    let body = Json::obj([
        ("name", Json::str(name)),
        ("addr", Json::str(server.addr().to_string())),
        (
            "dir",
            Json::str(
                worker_dir
                    .canonicalize()
                    .unwrap_or(worker_dir)
                    .display()
                    .to_string(),
            ),
        ),
    ])
    .to_text();
    let (status, _) = http::roundtrip(
        controller_addr,
        "POST",
        "/v1/fleet/register",
        body.as_bytes(),
    )
    .expect("register worker");
    assert_eq!(status, 200, "worker registration refused");
    server
}

fn field_u64(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn field_str<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key).and_then(Json::as_str).unwrap_or("")
}

/// Poll the fleet job list until `pred` holds; panic with state on timeout.
fn wait_fleet(
    client: &ServeClient,
    timeout: Duration,
    what: &str,
    pred: impl Fn(&[Json]) -> bool,
) -> Vec<Json> {
    let start = Instant::now();
    loop {
        if let Ok(items) = client.list() {
            if pred(&items) {
                return items;
            }
            if start.elapsed() > timeout {
                let states: Vec<String> = items
                    .iter()
                    .map(|j| {
                        format!(
                            "#{} {} {}",
                            field_u64(j, "id"),
                            field_str(j, "state"),
                            field_str(j, "tenant"),
                        )
                    })
                    .collect();
                panic!("timed out waiting for {what}; fleet jobs: {states:?}");
            }
        } else if start.elapsed() > timeout {
            panic!("timed out waiting for {what}; controller unreachable");
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn fleet_places_and_completes_a_mixed_workload() {
    let dir = unique_dir("mixed");
    let mut cfg = FleetConfig::new(dir.join("controller"));
    cfg.heartbeat = Duration::from_millis(40);
    let controller = Controller::spawn(cfg).unwrap();
    let caddr = controller.addr().to_string();
    let w1 = spawn_worker(&dir, "w1", &caddr, 16);
    let w2 = spawn_worker(&dir, "w2", &caddr, 16);

    let client = ServeClient::new(caddr);
    let mut ids = Vec::new();
    for (i, (tenant, priority)) in [
        ("alpha", Priority::Interactive),
        ("alpha", Priority::Batch),
        ("beta", Priority::Batch),
        ("beta", Priority::Interactive),
        ("alpha", Priority::Batch),
        ("beta", Priority::Batch),
    ]
    .iter()
    .enumerate()
    {
        ids.push(
            client
                .submit(&job(&format!("mix-{i}"), 32, *priority, tenant))
                .unwrap(),
        );
    }
    // Fleet ids are controller-assigned and dense from 1.
    assert_eq!(ids, vec![1, 2, 3, 4, 5, 6]);

    let finished = wait_fleet(&client, Duration::from_secs(60), "mixed workload", |jobs| {
        jobs.len() == 6 && jobs.iter().all(|j| field_str(j, "state") == "completed")
    });
    // Both workers took part (the placer spreads by load).
    let stats = client.stats().unwrap();
    assert_eq!(field_u64(&stats, "completed"), 6);
    assert_eq!(field_u64(&stats, "pending"), 0);
    let workers = stats.get("workers").and_then(Json::as_arr).unwrap();
    assert_eq!(workers.len(), 2);
    assert!(workers
        .iter()
        .all(|w| w.get("alive") == Some(&Json::Bool(true))));
    // Tenant breakdown drops tenants once their jobs are all terminal.
    for j in &finished {
        assert!(["alpha", "beta"].contains(&field_str(j, "tenant")));
    }
    w1.shutdown();
    w2.shutdown();
    controller.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_quota_caps_concurrent_placements() {
    let dir = unique_dir("quota");
    let mut cfg = FleetConfig::new(dir.join("controller"));
    cfg.heartbeat = Duration::from_millis(30);
    cfg.policy = PolicyConfig {
        quotas: vec![("capped".into(), 1)],
        ..PolicyConfig::default()
    };
    let controller = Controller::spawn(cfg).unwrap();
    let caddr = controller.addr().to_string();
    let worker = spawn_worker(&dir, "w1", &caddr, 8);

    let client = ServeClient::new(caddr);
    for i in 0..3 {
        client
            .submit(&job(&format!("capped-{i}"), 64, Priority::Batch, "capped"))
            .unwrap();
    }
    // While any job is still pending, the tenant must never have more than
    // its quota of placements.
    let start = Instant::now();
    loop {
        let jobs = client.list().unwrap();
        let placed = jobs
            .iter()
            .filter(|j| field_str(j, "state") == "placed")
            .count();
        let done = jobs
            .iter()
            .filter(|j| field_str(j, "state") == "completed")
            .count();
        assert!(placed <= 1, "quota violated: {placed} concurrent placements");
        if done == 3 {
            break;
        }
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "quota workload never finished"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    worker.shutdown();
    controller.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_aging_lets_batch_overtake_later_interactive() {
    let dir = unique_dir("aging");
    let mut cfg = FleetConfig::new(dir.join("controller"));
    cfg.heartbeat = Duration::from_millis(30);
    cfg.per_worker_cap = 1; // one placement at a time: ordering is visible
    cfg.policy.aging_ticks = 3;
    cfg.rebalance = false;
    let controller = Controller::spawn(cfg).unwrap();
    let caddr = controller.addr().to_string();
    let worker = spawn_worker(&dir, "w1", &caddr, 8);

    let client = ServeClient::new(caddr);
    // The runner occupies the single slot long enough for aging to act; the
    // batch job waits behind it.
    let mut runner_spec = job("runner", 3000, Priority::Interactive, "t");
    runner_spec.case = cavity(40, 40);
    let runner = client.submit(&runner_spec).unwrap();
    let batch = client.submit(&job("batch", 16, Priority::Batch, "t")).unwrap();
    // Let the batch job age past the Interactive base weight (4): with
    // aging_ticks = 3 that is 9 ticks ≈ 270 ms of heartbeats.
    std::thread::sleep(Duration::from_millis(600));
    let late = client
        .submit(&job("late", 16, Priority::Interactive, "t"))
        .unwrap();

    wait_fleet(&client, Duration::from_secs(60), "aging workload", |jobs| {
        jobs.iter().all(|j| field_str(j, "state") == "completed")
    });
    // The aged batch job must have been placed before the younger
    // interactive one — otherwise a steady interactive stream starves Batch
    // forever. Placement order is observable in the journal: Placed records
    // appear in decision order.
    let (lines, _) = swlb_io::Journal::replay(&dir.join("controller").join("journal")).unwrap();
    let placed_order: Vec<u64> = lines
        .iter()
        .filter_map(|l| swlb_serve::json::parse(l).ok())
        .filter(|v| field_str(v, "rec") == "placed")
        .map(|v| field_u64(&v, "id"))
        .collect();
    let pos = |id: u64| {
        placed_order
            .iter()
            .position(|x| *x == id)
            .unwrap_or_else(|| panic!("job {id} never placed; order {placed_order:?}"))
    };
    assert!(pos(runner) < pos(batch));
    assert!(
        pos(batch) < pos(late),
        "aged batch job was starved: placement order {placed_order:?}"
    );
    worker.shutdown();
    controller.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn migration_envelope_roundtrips_bit_exact_across_widths() {
    use swlb_comm::World;
    use swlb_core::collision::{BgkParams, CollisionKind};
    use swlb_core::lattice::D2Q9;
    use swlb_core::parallel::ThreadPool;
    use swlb_io::{CheckpointStore, ChunkedCheckpoint};
    use swlb_sim::DistributedSolver;

    let dir = unique_dir("bitexact");
    // Source: a 2-rank distributed run of the job's case, advanced far
    // enough that the state is nontrivial, captured one chunk per rank.
    let spec = cavity(14, 12);
    let mut flags = swlb_core::flags::FlagField::new(spec.dims());
    spec.paint_flags(&mut flags);
    let coll = CollisionKind::Bgk(BgkParams::try_from_tau(spec.tau).unwrap());
    let ck = World::new(2)
        .run(|comm| {
            let mut s = DistributedSolver::<D2Q9>::builder(&comm, spec.dims(), &flags, coll)
                .try_build()
                .unwrap();
            s.initialize_with(|x, y, z| spec.initial_state(x, y, z));
            s.run(24).unwrap();
            s.capture_chunked().unwrap()
        })
        .into_iter()
        .flatten()
        .next()
        .expect("rank 0 captures");
    assert_eq!(ck.chunks.len(), 2, "one chunk per source rank");
    let reference = ck.to_soa().unwrap();

    // Sender half: persist through the store, then lift the exact on-disk
    // bytes into an envelope — the controller's migration path.
    let store_a = CheckpointStore::new(dir.join("a"), 2).unwrap();
    store_a.save_chunked(&ck).unwrap();
    let (step, bytes) = store_a.latest_valid_bytes().unwrap().unwrap();
    assert_eq!(step, 24);
    let env = PushEnvelope {
        spec: job("mig", 96, Priority::Batch, "acme"),
        fleet_id: 7,
        step,
        width: 2,
        ckpt: bytes.clone(),
    };
    let env2 = PushEnvelope::decode(&env.encode()).unwrap();
    assert_eq!(env, env2, "envelope encode/decode must be lossless");

    // Receiver half: seed the wire bytes into a fresh store. The installed
    // file is byte-identical to the source store's newest checkpoint.
    let store_b = CheckpointStore::new(dir.join("b"), 2).unwrap();
    store_b.seed_bytes(env2.step, &env2.ckpt).unwrap();
    let (step_b, bytes_b) = store_b.latest_valid_bytes().unwrap().unwrap();
    assert_eq!(step_b, 24);
    assert_eq!(bytes_b, bytes, "migration altered the checkpoint bytes");

    // Restore the two rank chunks into one case solver: its state matches
    // the 2-rank capture exactly.
    let (restored, _) = store_b.load_latest_valid_any().unwrap().unwrap();
    assert_eq!(restored, ck, "the chunks survive the wire as captured");
    assert_eq!(restored.to_soa().unwrap(), reference);
    let mut dst = spec
        .build(ThreadPool::new(1), Recorder::disabled())
        .unwrap();
    dst.restore_chunked_state(&restored).unwrap();
    assert_eq!(dst.step_count(), 24);
    assert_eq!(
        dst.capture_chunked().to_soa().unwrap(),
        reference,
        "2 ranks → case solver restore is not bit-exact"
    );
    // Sanity on the raw parse path the receiver uses to verify transit.
    assert_eq!(ChunkedCheckpoint::read(&mut bytes.as_slice()).unwrap(), ck);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn handoff_then_push_migrates_between_workers_at_new_width() {
    let dir = unique_dir("handoff");
    // Two bare workers, no controller: this drives the worker-side HTTP
    // surface (handoff → envelope → push) directly.
    let mut cfg_a = ServeConfig::new(dir.join("a"));
    cfg_a.worker_routes = true;
    cfg_a.slice_steps = 8;
    let a = Server::spawn(cfg_a).unwrap();
    let mut cfg_b = ServeConfig::new(dir.join("b"));
    cfg_b.worker_routes = true;
    cfg_b.slice_steps = 8;
    let b = Server::spawn(cfg_b).unwrap();
    let client_a = ServeClient::new(a.addr().to_string());
    let client_b = ServeClient::new(b.addr().to_string());

    // A width-2 job on worker A; wait until it has checkpointed progress.
    // Its step count is far beyond what any build finishes before the
    // handoff below, so the handoff never finds it already completed; the
    // push lowers it to a bounded target.
    let mut spec = job("mover", u64::from(u32::MAX), Priority::Batch, "acme");
    spec.width = 2;
    let local_a = client_a.submit(&spec).unwrap();
    let start = Instant::now();
    loop {
        let st = client_a.status(local_a).unwrap();
        if field_u64(&st, "steps_done") >= 24 {
            break;
        }
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "job never progressed on worker A"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Handoff: worker A parks the job at a slice boundary and ships the
    // envelope with its newest checkpoint.
    let (status, body) = http::roundtrip(
        &a.addr().to_string(),
        "POST",
        &format!("/v1/jobs/{local_a}/handoff"),
        b"",
    )
    .unwrap();
    assert_eq!(status, 200, "handoff refused");
    let mut env = PushEnvelope::decode(&body).unwrap();
    assert!(env.step >= 8, "envelope carries no progress: step {}", env.step);
    assert!(!env.ckpt.is_empty(), "envelope carries no checkpoint");
    let st = client_a.status(local_a).unwrap();
    assert_eq!(field_str(&st, "state"), "checkpointed");

    // The controller would stamp the fleet id and may re-shard: resume on
    // worker B at width 3. Width lives in the spec (the scheduler derives
    // each slice's effective width from it); `env.width` seeds the
    // last-ran-at bookkeeping.
    env.fleet_id = 42;
    env.spec.steps = env.step + 512;
    env.spec.width = 3;
    env.width = 3;
    let (status, body) = http::roundtrip(
        &b.addr().to_string(),
        "POST",
        "/v1/fleet/push",
        &env.encode(),
    )
    .unwrap();
    assert_eq!(status, 202, "push refused");
    let resp = swlb_serve::json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let local_b = field_u64(&resp, "id");
    assert_eq!(field_u64(&resp, "fleet_id"), 42);

    // Worker B runs it to completion from the migrated checkpoint — never
    // from step 0 — at the new width.
    let start = Instant::now();
    loop {
        let st = client_b.status(local_b).unwrap();
        if field_str(&st, "state") == "completed" {
            assert_eq!(field_u64(&st, "steps_done"), env.spec.steps);
            assert_eq!(field_u64(&st, "width"), 3);
            break;
        }
        assert!(
            start.elapsed() < Duration::from_secs(120),
            "migrated job never completed on worker B"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let events = client_b.watch(local_b, 0).unwrap();
    let resumed_at = events
        .iter()
        .filter_map(|e| swlb_serve::json::parse(e).ok())
        .find(|e| field_str(e, "event") == "resumed")
        .map(|e| field_u64(&e, "at_step"))
        .expect("pushed job should resume from the migrated checkpoint");
    assert_eq!(
        resumed_at, env.step,
        "worker B resumed at {resumed_at}, envelope carried step {}",
        env.step
    );
    a.shutdown();
    b.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn submit_with_retry_rides_through_degraded_admission() {
    let dir = unique_dir("retry");
    let mut cfg = ServeConfig::new(&dir);
    cfg.chaos_routes = true;
    let server = Server::spawn(cfg).unwrap();
    let addr = server.addr().to_string();
    let client = ServeClient::new(addr.clone());

    // Journal disk "full": plain submit gets 503/Unavailable.
    let (status, _) =
        http::roundtrip(&addr, "POST", "/v1/chaos/journal-full?mode=on", b"").unwrap();
    assert_eq!(status, 200);
    assert!(matches!(
        client.submit(&job("plain", 16, Priority::Batch, "acme")),
        Err(swlb_obs::SwlbError::Unavailable(_))
    ));

    // Recovery lands mid-retry-loop; the retrying submit succeeds and
    // reports how many attempts the degraded window cost.
    let flipper = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            let (status, _) =
                http::roundtrip(&addr, "POST", "/v1/chaos/journal-full?mode=off", b"").unwrap();
            assert_eq!(status, 200);
        })
    };
    let (id, retries) = client
        .submit_with_retry(
            &job("retried", 16, Priority::Batch, "acme"),
            8,
            Duration::from_millis(50),
        )
        .expect("retry loop should outlast the degraded window");
    flipper.join().unwrap();
    assert!(retries > 0, "admission succeeded without retrying");
    let events = client.watch(id, 0).unwrap();
    assert!(events.iter().any(|e| e.contains("completed")));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_stats_break_down_queue_and_tenants() {
    let dir = unique_dir("stats");
    let mut cfg = ServeConfig::new(&dir);
    cfg.threads = 1; // one runner at a time; everything else queues
    cfg.slice_steps = 8;
    let server = Server::spawn(cfg).unwrap();
    let client = ServeClient::new(server.addr().to_string());

    // Three long jobs on one scheduler thread: always 1 running + 2 queued
    // (modulo slice boundaries), with the runner rotating under fair share.
    let slow = |name: &str, priority, tenant: &str| {
        let mut s = job(name, 30_000, priority, tenant);
        s.case = cavity(32, 32);
        s
    };
    let ids = vec![
        client.submit(&slow("a-batch-1", Priority::Batch, "acme")).unwrap(),
        client.submit(&slow("a-batch-2", Priority::Batch, "acme")).unwrap(),
        client
            .submit(&slow("g-inter", Priority::Interactive, "globex"))
            .unwrap(),
    ];

    // Poll for the snapshot where an acme batch job holds the slot: the
    // breakdown must then show the interactive job and the other batch job
    // waiting, attributed to the right tenants.
    let start = Instant::now();
    let stats = loop {
        let s = client.stats().unwrap();
        let acme_running = s
            .get("tenants")
            .and_then(|t| t.get("acme"))
            .map(|a| field_u64(a, "running"))
            .unwrap_or(0);
        // live = running + waiting; 3 live with 2 waiting = exactly 1 slice
        // in flight.
        if field_u64(&s, "live") == 3 && field_u64(&s, "queue_depth") == 2 && acme_running == 1 {
            break s;
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "never observed an acme job running with 2 queued: {}",
            s.to_text()
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(field_u64(&stats, "queue_depth_interactive"), 1);
    assert_eq!(field_u64(&stats, "queue_depth_batch"), 1);
    let tenants = stats.get("tenants").expect("tenants breakdown");
    let acme = tenants.get("acme").expect("acme tenant entry");
    assert_eq!(field_u64(acme, "running"), 1);
    assert_eq!(field_u64(acme, "queued"), 1);
    let globex = tenants.get("globex").expect("globex tenant entry");
    assert_eq!(field_u64(globex, "running"), 0);
    assert_eq!(field_u64(globex, "queued"), 1);

    for id in ids {
        client.cancel(id).unwrap();
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Poll `what()` until it holds.
fn wait_until(timeout: Duration, msg: &str, what: impl Fn() -> bool) {
    let start = Instant::now();
    while !what() {
        assert!(start.elapsed() < timeout, "timed out waiting for {msg}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A port on this host that refuses connections.
fn dead_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

/// Push `env` to a worker by hand, as a controller listening on `notify_port`
/// would (or one that names no port at all); returns the worker-local id.
fn push_by_hand(worker: &Server, env: &PushEnvelope, notify_port: Option<u16>) -> u64 {
    let target = match notify_port {
        Some(port) => format!("/v1/fleet/push?notify_port={port}"),
        None => "/v1/fleet/push".to_string(),
    };
    let (status, body) =
        http::roundtrip(&worker.addr().to_string(), "POST", &target, &env.encode()).unwrap();
    assert_eq!(status, 202, "push refused");
    let resp = swlb_serve::json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    field_u64(&resp, "id")
}

fn fresh_envelope(name: &str, steps: u64) -> PushEnvelope {
    PushEnvelope {
        spec: job(name, steps, Priority::Batch, "acme"),
        fleet_id: 0,
        step: 0,
        width: 1,
        ckpt: Vec::new(),
    }
}

/// A "black hole" worker accepts TCP (the kernel completes the handshake
/// from the listen backlog) and never answers: a SIGSTOPped process looks
/// like this. Every probe and push the controller sends it ends at
/// `io_timeout`, so the fleet keeps its clock: a job still completes on the
/// healthy worker, and the hole is reported dead within 10 s.
#[test]
fn a_worker_that_never_answers_is_reaped_and_stalls_nothing() {
    let dir = unique_dir("blackhole");
    let mut cfg = FleetConfig::new(dir.join("controller"));
    cfg.heartbeat = Duration::from_millis(50);
    cfg.io_timeout = Some(Duration::from_millis(200));
    let controller = Controller::spawn(cfg).unwrap();
    let caddr = controller.addr().to_string();
    // Declared after the controller so that it drops first: closing it
    // resets any exchange still waiting on it, and a failed assertion below
    // then ends the test instead of hanging the controller's shutdown.
    let hole = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let body = Json::obj([
        ("name", Json::str("hole")),
        ("addr", Json::str(hole.local_addr().unwrap().to_string())),
        ("dir", Json::str(dir.join("hole").display().to_string())),
    ])
    .to_text();
    let (status, _) =
        http::roundtrip(&caddr, "POST", "/v1/fleet/register", body.as_bytes()).unwrap();
    assert_eq!(status, 200);
    let worker = spawn_worker(&dir, "w1", &caddr, 16);
    let client = ServeClient::new(caddr);

    let submitted = Instant::now();
    let id = client
        .submit(&job("survivor", 16, Priority::Interactive, "t"))
        .unwrap();
    let hole_dead = || {
        let stats = client.stats().unwrap();
        let workers = stats.get("workers").and_then(Json::as_arr).unwrap();
        workers.iter().any(|w| {
            field_str(w, "name") == "hole" && w.get("alive") == Some(&Json::Bool(false))
        })
    };
    wait_until(Duration::from_secs(10), "the job done and the hole dead", || {
        field_str(&client.status(id).unwrap(), "state") == "completed" && hole_dead()
    });
    assert!(submitted.elapsed() < Duration::from_secs(10));
    worker.shutdown();
    controller.shutdown();
    drop(hole);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cancel the controller relays to a worker that accepts and never answers
/// ends at `io_timeout`: the caller hears back, and no handler thread is held
/// for good. The job's worker is re-registered at a silent address once the
/// job is placed there.
#[test]
fn a_cancel_relayed_to_a_silent_worker_ends_at_the_deadline() {
    let dir = unique_dir("silent-cancel");
    let io_timeout = Duration::from_millis(200);
    let mut cfg = FleetConfig::new(dir.join("controller"));
    cfg.io_timeout = Some(io_timeout);
    // No beat in the window: the silent worker is not reaped under the cancel.
    cfg.heartbeat = Duration::from_secs(5);
    let controller = Controller::spawn(cfg).unwrap();
    let caddr = controller.addr().to_string();
    let worker = spawn_worker(&dir, "w1", &caddr, 16);
    // Declared after the controller so that it drops first, resetting any
    // exchange still waiting on it (see the black-hole test above).
    let hole = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let client = ServeClient::new(caddr.clone());
    let id = client
        .submit(&job("long", 1_000_000, Priority::Batch, "t"))
        .unwrap();
    wait_fleet(&client, Duration::from_secs(10), "the placement", |jobs| {
        jobs.iter().any(|j| field_str(j, "worker") == "w1")
    });
    let body = Json::obj([
        ("name", Json::str("w1")),
        ("addr", Json::str(hole.local_addr().unwrap().to_string())),
        ("dir", Json::str(dir.join("w1").display().to_string())),
    ])
    .to_text();
    let (status, _) =
        http::roundtrip(&caddr, "POST", "/v1/fleet/register", body.as_bytes()).unwrap();
    assert_eq!(status, 200);

    let (done, ended) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(ServeClient::new(caddr).cancel(id));
    });
    let patience = io_timeout + Duration::from_secs(1);
    let status = ended
        .recv_timeout(patience)
        .unwrap_or_else(|_| panic!("the relayed cancel outlived {patience:?}"))
        .unwrap();
    assert_eq!(field_str(&status, "state"), "placed", "{}", status.to_text());
    worker.shutdown();
    controller.shutdown();
    drop(hole);
    let _ = std::fs::remove_dir_all(&dir);
}

/// With a heartbeat of five seconds a job can only finish inside one second
/// if the admission wakes the placement and the worker's terminal notice
/// wakes the settle — ticking cannot pass this.
#[test]
fn fleet_hears_a_terminal_when_it_happens() {
    let dir = unique_dir("wake");
    let mut cfg = FleetConfig::new(dir.join("controller"));
    cfg.heartbeat = Duration::from_secs(5);
    let controller = Controller::spawn(cfg).unwrap();
    let caddr = controller.addr().to_string();
    let sent = Recorder::enabled();
    let worker = spawn_worker_with(&dir, "w1", &caddr, 16, sent.clone());
    let client = ServeClient::new(caddr);

    let submitted = Instant::now();
    let id = client
        .submit(&job("quick", 16, Priority::Interactive, "t"))
        .unwrap();
    wait_until(Duration::from_secs(1), "a completion inside one second", || {
        field_str(&client.status(id).unwrap(), "state") == "completed"
    });
    assert!(submitted.elapsed() < Duration::from_secs(1));
    let stats = client.stats().unwrap();
    assert!(
        field_u64(&stats, "reconciles") >= 2 && field_u64(&stats, "wakes") >= 2,
        "one pass to place, one to settle: {}",
        stats.to_text()
    );
    assert!(field_u64(&stats, "beats") <= 1, "{}", stats.to_text());
    assert!(sent.counter("serve.wakes_sent").get() >= 1);
    assert_eq!(sent.counter("serve.wakes_failed").get(), 0);
    worker.shutdown();
    controller.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Eight jobs on two slots: while jobs are queued the wake-triggered passes
/// are half a heartbeat apart, so the queue drains on that clock — four
/// placement rounds cannot fit inside one heartbeat — where an idle fleet
/// (the test above) answers every wake at once.
#[test]
fn a_queue_drains_on_the_clock_not_on_every_wake() {
    let dir = unique_dir("queued");
    let mut cfg = FleetConfig::new(dir.join("controller"));
    let heartbeat = Duration::from_millis(600);
    cfg.heartbeat = heartbeat;
    cfg.per_worker_cap = 2;
    let controller = Controller::spawn(cfg).unwrap();
    let caddr = controller.addr().to_string();
    let worker = spawn_worker(&dir, "w1", &caddr, 16);
    let client = ServeClient::new(caddr);
    std::thread::sleep(Duration::from_millis(50)); // past the first beat

    let submitted = Instant::now();
    for i in 0..8 {
        client
            .submit(&job(&format!("q-{i}"), 16, Priority::Batch, "t"))
            .unwrap();
    }
    wait_until(Duration::from_secs(30), "the queue to drain", || {
        let jobs = client.list().unwrap();
        assert!(
            jobs.iter().filter(|j| field_str(j, "state") == "placed").count() <= 2,
            "more placed than the pool has slots"
        );
        jobs.iter().all(|j| field_str(j, "state") == "completed")
    });
    // Passes that can place: the first reconcile, then one per half
    // heartbeat, plus the beats — the fourth round is at least 0.9 heartbeats
    // in. Answering every terminal's wake, it drains in tens of ms.
    assert!(
        submitted.elapsed() >= heartbeat * 9 / 10,
        "{:?}",
        submitted.elapsed()
    );
    let stats = client.stats().unwrap();
    assert!(field_u64(&stats, "reconciles") >= 2, "{}", stats.to_text());
    worker.shutdown();
    controller.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every wake lost: the worker was last told to knock on a port nobody
/// listens on. The fleet job still settles — by heartbeat, as it always did —
/// the failures are counted, and the worker still stops promptly.
#[test]
fn lost_wakes_cost_a_heartbeat_not_a_job() {
    let dir = unique_dir("lost-wake");
    let mut cfg = FleetConfig::new(dir.join("controller"));
    cfg.heartbeat = Duration::from_millis(30);
    let controller = Controller::spawn(cfg).unwrap();
    let caddr = controller.addr().to_string();
    let counters = Recorder::enabled();
    let worker = spawn_worker_with(&dir, "w1", &caddr, 8, counters.clone());
    let client = ServeClient::new(caddr);

    // A job long enough to still be running when the hand push below repoints
    // the worker's notifier at a dead port (the latest push wins).
    let mut long = job("long", 3000, Priority::Batch, "t");
    long.case = cavity(40, 40);
    let id = client.submit(&long).unwrap();
    wait_until(Duration::from_secs(10), "placement", || {
        field_str(&client.status(id).unwrap(), "state") == "placed"
    });
    let stray = push_by_hand(&worker, &fresh_envelope("stray", 16), Some(dead_port()));
    let local = ServeClient::new(worker.addr().to_string());
    wait_fleet(&client, Duration::from_secs(60), "the long job", |jobs| {
        jobs.iter().all(|j| field_str(j, "state") == "completed")
    });
    wait_until(Duration::from_secs(20), "the stray job", || {
        field_str(&local.status(stray).unwrap(), "state") == "completed"
    });
    wait_until(Duration::from_secs(5), "a failed wake", || {
        counters.counter("serve.wakes_failed").get() >= 1
    });
    let stopping = Instant::now();
    worker.shutdown();
    assert!(
        stopping.elapsed() < Duration::from_secs(5),
        "a dead wake target delayed worker shutdown by {:?}",
        stopping.elapsed()
    );
    controller.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An envelope pushed without `notify_port` behaves as it always did: the job
/// runs, and the worker knocks nowhere.
#[test]
fn push_without_notify_port_sends_no_wake() {
    let dir = unique_dir("no-notify");
    let mut cfg = ServeConfig::new(dir.join("w"));
    cfg.worker_routes = true;
    cfg.recorder = Recorder::enabled();
    let counters = cfg.recorder.clone();
    let worker = Server::spawn(cfg).unwrap();
    let local = push_by_hand(&worker, &fresh_envelope("plain", 16), None);
    let client = ServeClient::new(worker.addr().to_string());
    wait_until(Duration::from_secs(20), "the pushed job", || {
        field_str(&client.status(local).unwrap(), "state") == "completed"
    });
    worker.shutdown();
    assert_eq!(counters.counter("serve.wakes_sent").get(), 0);
    assert_eq!(counters.counter("serve.wakes_failed").get(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Duplicate and forged wakes: a thread hammers `POST /v1/fleet/wake` while a
/// mixed workload runs. Every job still has exactly one terminal record, the
/// placement counter matches the journal, and the tenant quota holds at every
/// observation.
#[test]
fn wake_spam_changes_nothing_but_the_pass_count() {
    const JOBS: u64 = 50;
    const QUOTA: usize = 2;
    let dir = unique_dir("wake-spam");
    let mut cfg = FleetConfig::new(dir.join("controller"));
    cfg.heartbeat = Duration::from_millis(40);
    cfg.policy = PolicyConfig {
        quotas: vec![("capped".into(), QUOTA)],
        ..PolicyConfig::default()
    };
    cfg.recorder = Recorder::enabled();
    let counters = cfg.recorder.clone();
    let controller = Controller::spawn(cfg).unwrap();
    let caddr = controller.addr().to_string();
    let w1 = spawn_worker(&dir, "w1", &caddr, 8);
    let w2 = spawn_worker(&dir, "w2", &caddr, 8);
    let client = ServeClient::new(caddr.clone());

    let spammer = {
        let caddr = caddr.clone();
        std::thread::spawn(move || {
            for _ in 0..1500 {
                let (status, _) = http::roundtrip(&caddr, "POST", "/v1/fleet/wake", b"").unwrap();
                assert_eq!(status, 200);
            }
        })
    };
    for i in 0..JOBS {
        let (tenant, priority) = match i % 3 {
            0 => ("capped", Priority::Batch),
            1 => ("alpha", Priority::Interactive),
            _ => ("beta", Priority::Batch),
        };
        let steps = if i % 10 == 0 { 96 } else { 16 };
        client
            .submit(&job(&format!("spam-{i}"), steps, priority, tenant))
            .unwrap();
    }
    let start = Instant::now();
    loop {
        let jobs = client.list().unwrap();
        let capped_placed = jobs
            .iter()
            .filter(|j| field_str(j, "tenant") == "capped" && field_str(j, "state") == "placed")
            .count();
        assert!(capped_placed <= QUOTA, "quota violated: {capped_placed} placed");
        if jobs.iter().all(|j| field_str(j, "state") == "completed") {
            break;
        }
        assert!(start.elapsed() < Duration::from_secs(120), "workload stalled");
        std::thread::sleep(Duration::from_millis(5));
    }
    spammer.join().unwrap();
    let stats = client.stats().unwrap();
    assert!(field_u64(&stats, "wakes") >= 1500 + JOBS, "{}", stats.to_text());
    assert_eq!(field_u64(&stats, "completed"), JOBS);
    w1.shutdown();
    w2.shutdown();
    controller.shutdown();

    let (lines, _) = swlb_io::Journal::replay(&dir.join("controller").join("journal")).unwrap();
    let records: Vec<Json> = lines
        .iter()
        .filter_map(|l| swlb_serve::json::parse(l).ok())
        .collect();
    let count = |id: u64, recs: &[&str]| {
        records
            .iter()
            .filter(|v| field_u64(v, "id") == id && recs.contains(&field_str(v, "rec")))
            .count()
    };
    for id in 1..=JOBS {
        assert_eq!(
            count(id, &["completed", "cancelled", "failed"]),
            1,
            "job {id}: terminal records"
        );
        assert!(count(id, &["placed"]) >= 1, "job {id} was never placed");
    }
    let placed = records
        .iter()
        .filter(|v| field_str(v, "rec") == "placed")
        .count() as u64;
    assert_eq!(counters.counter("fleet.placements").get(), placed);
    assert_eq!(counters.counter("fleet.wakes").get(), field_u64(&stats, "wakes"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The controller comes back on a new port while a job is placed: the worker
/// still knocks on the old one (a lost wake), the job settles by heartbeat,
/// and the next push teaches the worker the new port.
#[test]
fn restarted_controller_on_a_new_port_is_relearned_from_the_next_push() {
    let dir = unique_dir("new-port");
    let spawn = || {
        let mut cfg = FleetConfig::new(dir.join("controller"));
        cfg.heartbeat = Duration::from_millis(50);
        Controller::spawn(cfg).unwrap()
    };
    let first = spawn();
    let counters = Recorder::enabled();
    let worker = spawn_worker_with(&dir, "w1", &first.addr().to_string(), 8, counters.clone());
    let mut long = job("long", 3000, Priority::Batch, "t");
    long.case = cavity(40, 40);
    let client = ServeClient::new(first.addr().to_string());
    let id = client.submit(&long).unwrap();
    wait_until(Duration::from_secs(10), "placement", || {
        field_str(&client.status(id).unwrap(), "state") == "placed"
    });
    let old_port = first.addr().port();
    first.shutdown();

    let second = spawn();
    assert_ne!(second.addr().port(), old_port, "the premise: a new port");
    let client = ServeClient::new(second.addr().to_string());
    wait_until(Duration::from_secs(60), "the replayed job to settle", || {
        field_str(&client.status(id).unwrap(), "state") == "completed"
    });
    assert!(counters.counter("serve.wakes_failed").get() >= 1);
    let sent_before = counters.counter("serve.wakes_sent").get();

    let next = client
        .submit(&job("next", 16, Priority::Batch, "t"))
        .unwrap();
    wait_until(Duration::from_secs(20), "the next job", || {
        field_str(&client.status(next).unwrap(), "state") == "completed"
    });
    wait_until(Duration::from_secs(5), "a wake on the new port", || {
        counters.counter("serve.wakes_sent").get() > sent_before
    });
    worker.shutdown();
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The full-scale soak from the issue: 100k jobs through admit / preempt /
/// migrate / worker-kill cycles. CI runs the 1k variant via `just
/// fleet-check`; this stays opt-in.
#[test]
#[ignore = "100k-job soak; run explicitly with --ignored"]
fn fleet_soak_100k_jobs() {
    let dir = unique_dir("soak-100k");
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_fleet_soak"))
        .args([
            "--jobs",
            "100000",
            "--workers",
            "4",
            "--churn-every",
            "5000",
            "--dir",
            dir.to_str().unwrap(),
            "--out",
            dir.join("soak.jsonl").to_str().unwrap(),
        ])
        .status()
        .expect("run fleet_soak");
    assert!(status.success(), "soak reported lost or failed jobs");
    let _ = std::fs::remove_dir_all(&dir);
}
