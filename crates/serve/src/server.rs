//! The resident service: TCP acceptor, HTTP routing, and lifecycle control.
//!
//! ```text
//! POST /v1/jobs               submit a JobSpec          202 {"id":N} | 429 | 503
//! GET  /v1/jobs               list job statuses         200 [status...] (?ids=3,7,9)
//! GET  /v1/jobs/<id>          one job's status          200 | 404
//! GET  /v1/jobs/<id>/events   NDJSON event stream       200 (?from=N)
//! POST /v1/jobs/<id>/cancel   cancel at next boundary   200 | 404
//! POST /v1/drain              checkpoint all, stop sched 200 {"drained":true}
//! GET  /v1/stats              service counters          200
//! POST /v1/chaos/panic        (chaos_routes) panic a handler under the lock
//! POST /v1/chaos/journal-full (chaos_routes) ?mode=on|off: fail journal writes
//! POST /v1/fleet/ping         (worker_routes) sealed-frame heartbeat echo
//! POST /v1/fleet/push         (worker_routes) receive a migrated job  202 | 429 | 503
//!                             (?notify_port=N: where the pusher hears terminals)
//! POST /v1/jobs/<id>/handoff  (worker_routes) park + ship the job     200 (envelope)
//! ```
//!
//! One request per connection; every framed body carries an `x-swlb-crc32`
//! integrity header. Connections are handled on short-lived threads; the
//! scheduler owns the compute pool.
//!
//! ## Crash safety
//!
//! Every job lifecycle transition is journaled write-ahead (see
//! [`crate::journal`]); `Server::spawn` replays the journal from `base_dir`
//! before accepting traffic, so a `kill -9` loses no acknowledged job:
//! queued jobs come back with their original ids and arrival order, running
//! jobs rebind to their latest valid checkpoint, terminal jobs stay terminal.
//! After replay the journal is compacted to one admission plus one state
//! record per job.
//!
//! ## Failure domains
//!
//! A connection handler panic poisons nothing permanently (poison-recovering
//! locks, counted in `lock_recoveries`); a hung client hits per-connection
//! read/write deadlines plus a watch-stream heartbeat, so drain cannot wait
//! on a dead socket; a full or failing journal disk degrades admission to
//! 503 ([`SwlbError::Unavailable`]) while already-admitted jobs keep
//! running and their records buffer in memory (bounded) until the disk
//! recovers.

use crate::http::{self, Listener, Request, MAX_BODY};
use crate::journal::{JobTable, Outcome};
use crate::json::Json;
use crate::scheduler::{self, SchedConfig};
use crate::spec::{JobSpec, JobState, Priority};
use crate::state::{Exit, Shared};
use crate::wire::PushEnvelope;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use swlb_core::parallel::ThreadPool;
use swlb_io::{CheckpointStore, Wal};
use swlb_obs::{JsonlSink, Recorder, SwlbError};
use swlb_sim::RecoveryPolicy;

/// Solver steps per scheduler slice unless configured otherwise; also the
/// divergence-check cadence of an in-process `swlb run`.
pub const DEFAULT_SLICE_STEPS: u64 = 32;

/// Service configuration.
pub struct ServeConfig {
    /// Bind address; use `127.0.0.1:0` to pick a free loopback port.
    pub addr: String,
    /// Admission bound on live (queued + running + preempted) jobs.
    pub capacity: usize,
    /// Solver steps per scheduler slice.
    pub slice_steps: u64,
    /// Worker threads in the shared compute pool.
    pub threads: usize,
    /// Root of the service's on-disk state (`jobs/`, `checkpoints/`,
    /// `journal/`).
    pub base_dir: PathBuf,
    /// Rollback-retry supervision for faulted jobs.
    pub policy: RecoveryPolicy,
    /// Checkpoints kept per job.
    pub retain: usize,
    /// Server-level recorder (queue depth, slice/wait histograms, admission
    /// counters). Per-job recorders are created internally.
    pub recorder: Recorder,
    /// Per-connection read/write deadline; `None` disables socket timeouts.
    pub io_timeout: Option<Duration>,
    /// Lifecycle records buffered in memory while the journal disk is
    /// unavailable; beyond this the oldest non-durable records are dropped
    /// (counted in `journal.dropped`).
    pub journal_buffer: usize,
    /// Expose `POST /v1/chaos/*` fault-injection routes (tests only).
    pub chaos_routes: bool,
    /// Worker mode: expose the fleet data-plane routes (`/v1/fleet/ping`,
    /// `/v1/fleet/push`, `/v1/jobs/<id>/handoff`) and accept data-plane-sized
    /// bodies, so a controller can place, probe and migrate jobs here.
    pub worker_routes: bool,
}

impl ServeConfig {
    /// Loopback defaults rooted at `base_dir`.
    pub fn new(base_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            capacity: 16,
            slice_steps: DEFAULT_SLICE_STEPS,
            threads: 2,
            base_dir: base_dir.into(),
            policy: RecoveryPolicy::default(),
            retain: 2,
            recorder: Recorder::disabled(),
            io_timeout: Some(Duration::from_secs(10)),
            journal_buffer: 1024,
            chaos_routes: false,
            worker_routes: false,
        }
    }
}

/// Per-connection context shared by handler threads.
struct ConnCtx {
    jobs_dir: PathBuf,
    recorder: Recorder,
    slice_steps: u64,
    chaos_routes: bool,
    worker_routes: bool,
    /// Parent checkpoint store (same root the scheduler namespaces into) —
    /// the handoff/push handlers read and seed checkpoint bytes through it.
    store: CheckpointStore,
}

/// A running service instance.
pub struct Server {
    shared: Arc<Shared>,
    listener: Listener,
    scheduler: Option<JoinHandle<()>>,
    /// The terminal-wake notifier (worker mode only).
    notifier: Option<JoinHandle<()>>,
    jobs_dir: PathBuf,
}

impl Server {
    /// Replay the journal, bind, spawn the scheduler and acceptor threads,
    /// and return the handle.
    pub fn spawn(cfg: ServeConfig) -> Result<Server, SwlbError> {
        let mut listener = Listener::bind(&cfg.addr)?;
        let jobs_dir = cfg.base_dir.join("jobs");
        std::fs::create_dir_all(&jobs_dir)?;
        let store = CheckpointStore::new(cfg.base_dir.join("checkpoints"), cfg.retain)?;
        let shared = Arc::new(Shared::new(cfg.capacity));
        let pool = ThreadPool::new(cfg.threads);

        // ---- crash recovery: replay, compact, restore ------------------
        let (journal, replayed, _): (_, JobTable, _) = Wal::recover(
            &cfg.base_dir.join("journal"),
            cfg.journal_buffer,
            cfg.recorder.clone(),
            "journal",
        )?;
        if !replayed.jobs.is_empty() {
            cfg.recorder
                .counter("journal.replayed_jobs")
                .add(replayed.jobs.len() as u64);
        }
        {
            let mut st = shared.lock_state();
            st.journal = journal;
            for job in replayed.jobs {
                let id = job.id;
                let live = !job.outcome.is_terminal();
                // Live jobs get a fresh metrics stream; terminal jobs are
                // history and never record again.
                let recorder = if live {
                    job_recorder(&jobs_dir, id, cfg.slice_steps)
                } else {
                    Recorder::disabled()
                };
                if st.restore(job, recorder) {
                    let state_name = st.job(id).map(|j| j.state.name()).unwrap_or("?");
                    shared.push_event(
                        &mut st,
                        id,
                        "recovered",
                        vec![("state", Json::str(state_name))],
                    );
                }
            }
        }

        let sched_cfg = SchedConfig {
            slice_steps: cfg.slice_steps,
            pool,
            store,
            jobs_dir: jobs_dir.clone(),
            policy: cfg.policy,
            recorder: cfg.recorder.clone(),
        };
        let sched_shared = shared.clone();
        let scheduler =
            std::thread::spawn(move || scheduler::run(sched_shared, sched_cfg));

        let notifier = cfg.worker_routes.then(|| {
            let (shared, recorder, timeout) =
                (shared.clone(), cfg.recorder.clone(), cfg.io_timeout);
            std::thread::Builder::new()
                .name("swlb-serve-notify".into())
                .spawn(move || notify_loop(&shared, &recorder, timeout))
                .expect("spawn the wake notifier")
        });

        let ctx = ConnCtx {
            jobs_dir: jobs_dir.clone(),
            recorder: cfg.recorder.clone(),
            slice_steps: cfg.slice_steps,
            chaos_routes: cfg.chaos_routes,
            worker_routes: cfg.worker_routes,
            // A second handle on the same checkpoint root; the scheduler owns
            // the first. Namespacing keeps their file sets disjoint per job.
            store: CheckpointStore::new(cfg.base_dir.join("checkpoints"), cfg.retain)?,
        };
        let conn_shared = shared.clone();
        listener.start(cfg.io_timeout, move |stream| {
            handle_connection(stream, &conn_shared, &ctx)
        });

        Ok(Server {
            shared,
            listener,
            scheduler: Some(scheduler),
            notifier,
            jobs_dir,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.listener.addr()
    }

    /// Directory per-job artifacts land in.
    pub fn jobs_dir(&self) -> &std::path::Path {
        &self.jobs_dir
    }

    /// Times the state mutex was recovered from poison (handler panics the
    /// process absorbed).
    pub fn lock_recoveries(&self) -> u64 {
        self.shared.lock_recoveries.load(Ordering::Relaxed)
    }

    /// Graceful drain: refuse new work, checkpoint every live job, and block
    /// until the job table is fully terminal.
    pub fn drain(&self) {
        let mut st = self.shared.lock_state();
        st.draining = true;
        self.shared.sched_wake.notify_all();
        while !st.drained && !st.stopping {
            st = self
                .shared
                .wait_event_timeout(st, Duration::from_millis(100));
            self.shared.sched_wake.notify_all();
        }
    }

    /// Drain, then stop every thread and join them.
    pub fn shutdown(mut self) {
        self.drain();
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        {
            let mut st = self.shared.lock_state();
            st.stopping = true;
        }
        self.shared.sched_wake.notify_all();
        self.shared.event_wake.notify_all();
        self.listener.stop_accepting();
        for h in [self.scheduler.take(), self.notifier.take()].into_iter().flatten() {
            let _ = h.join();
        }
        self.listener.join_handlers();
        // Scheduler has exited; push any batched journal tail to disk.
        self.shared.lock_state().journal.sync();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let stopping = self.shared.lock_state().stopping;
        if !stopping {
            self.stop_threads();
        }
    }
}

/// Build a job's JSONL metrics recorder (admission and crash-recovery paths
/// share this so the streams look identical).
fn job_recorder(jobs_dir: &std::path::Path, id: u64, slice_steps: u64) -> Recorder {
    let dir = jobs_dir.join(format!("job-{id}"));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| JsonlSink::create(dir.join("metrics.jsonl")))
    {
        Ok(sink) => {
            let r = Recorder::enabled();
            r.add_sink(Box::new(sink));
            r.set_flush_every(slice_steps);
            r
        }
        Err(_) => Recorder::disabled(),
    }
}

/// The worker-mode `swlb-serve-notify` thread: parked on `event_wake`, and
/// whenever the terminal counter has moved, one `POST /v1/fleet/wake` to the
/// address the latest push taught. The wake carries no state — the controller
/// re-reads this worker's table — so any number of terminals coalesce into
/// one post, and a failed post is only counted: the controller's next beat
/// finds the terminal anyway.
fn notify_loop(shared: &Shared, recorder: &Recorder, timeout: Option<Duration>) {
    let sent = recorder.counter("serve.wakes_sent");
    let failed = recorder.counter("serve.wakes_failed");
    let mut seen = 0;
    let mut st = shared.lock_state();
    while !st.stopping {
        if st.terminals == seen {
            st = shared.wait_event_timeout(st, Duration::from_secs(1));
            continue;
        }
        seen = st.terminals;
        let Some(addr) = st.notify else { continue };
        drop(st);
        let wake = http::roundtrip_timeout(&addr, "POST", "/v1/fleet/wake", b"", MAX_BODY, timeout);
        match wake {
            Ok((200, _)) => sent.inc(),
            _ => failed.inc(),
        }
        st = shared.lock_state();
    }
}

/// Slices a watcher waits between event polls.
const WATCH_POLL: Duration = Duration::from_millis(50);
/// Idle interval after which a watch stream emits an empty NDJSON line, so
/// writes to a dead client fail fast instead of pinning the handler forever.
const WATCH_HEARTBEAT: Duration = Duration::from_millis(500);

fn handle_connection(mut stream: TcpStream, shared: &Shared, ctx: &ConnCtx) {
    // Worker mode accepts data-plane-sized bodies (migration pushes carry
    // whole checkpoints); plain serving keeps the tight control-plane bound.
    let max_body = if ctx.worker_routes {
        http::MAX_DATA_BODY
    } else {
        http::MAX_BODY
    };
    let req = match http::read_request_with_limit(&mut stream, max_body) {
        Ok(r) => r,
        Err(e) => {
            let body = error_json(&e);
            let _ = http::write_response(&mut stream, 400, "application/json", body.as_bytes());
            return;
        }
    };
    let path = req.path().to_string();
    let segs: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let out = match (req.method.as_str(), segs.as_slice()) {
        ("POST", ["v1", "jobs"]) => submit(shared, &req, ctx),
        ("GET", ["v1", "jobs"]) => list(shared, req.query("ids")),
        ("GET", ["v1", "jobs", id]) => status(shared, id),
        ("GET", ["v1", "jobs", id, "events"]) => {
            // Streaming path: takes over the connection entirely.
            watch(&mut stream, shared, id, &req);
            return;
        }
        ("POST", ["v1", "fleet", "ping"]) if ctx.worker_routes => {
            // Binary frame echo: takes over the connection entirely.
            heartbeat(&mut stream, shared, &req);
            return;
        }
        ("POST", ["v1", "fleet", "push"]) if ctx.worker_routes => {
            push(shared, &req, ctx, stream.peer_addr().ok())
        }
        ("POST", ["v1", "jobs", id, "handoff"]) if ctx.worker_routes => {
            // Binary envelope response: takes over the connection entirely.
            handoff(&mut stream, shared, id, ctx);
            return;
        }
        ("POST", ["v1", "jobs", id, "cancel"]) => cancel(shared, id),
        ("POST", ["v1", "drain"]) => drain(shared),
        ("GET", ["v1", "stats"]) => stats(shared, ctx),
        ("POST", ["v1", "chaos", "panic"]) if ctx.chaos_routes => {
            // Answer first — the panic below kills this handler thread while
            // it holds the state lock, exercising poison recovery for real.
            let _ = http::write_response(
                &mut stream,
                200,
                "application/json",
                b"{\"panicking\":true}",
            );
            let _guard = shared.lock_state();
            panic!("injected chaos panic while holding the state lock");
        }
        ("POST", ["v1", "chaos", "journal-full"]) if ctx.chaos_routes => {
            let on = req.query("mode").map(|m| m != "off").unwrap_or(true);
            let mut st = shared.lock_state();
            st.journal.set_fail_writes(on);
            (
                200,
                Json::obj([
                    ("journal_fail_writes", Json::Bool(on)),
                    ("degraded", Json::Bool(st.journal.degraded())),
                ]),
            )
        }
        ("GET" | "POST", _) => (404, Json::obj([("error", Json::str("no such route"))])),
        _ => (405, Json::obj([("error", Json::str("method not allowed"))])),
    };
    let (status, body) = out;
    let _ = http::write_response(
        &mut stream,
        status,
        "application/json",
        body.to_text().as_bytes(),
    );
}

fn error_json(e: &SwlbError) -> String {
    Json::obj([("error", Json::str(e.to_string()))]).to_text()
}

fn submit(shared: &Shared, req: &Request, ctx: &ConnCtx) -> (u16, Json) {
    let spec = match JobSpec::from_body(&req.body) {
        Ok(s) => s,
        Err(e) => return (400, Json::obj([("error", Json::str(e.to_string()))])),
    };
    let mut st = shared.lock_state();
    match st.admit(spec, Recorder::disabled()) {
        Ok(id) => {
            // Attach the job's JSONL recorder now that the id is known. The
            // recorder lives in the JobRecord so preempt/resume cycles keep
            // appending to one metrics stream instead of truncating it.
            let recorder = job_recorder(&ctx.jobs_dir, id, ctx.slice_steps);
            let job = st.job_mut(id).unwrap();
            job.recorder = recorder;
            ctx.recorder.counter("serve.submitted").inc();
            shared.push_event(&mut st, id, "queued", vec![]);
            shared.sched_wake.notify_all();
            (202, Json::obj([("id", Json::num(id as f64))]))
        }
        Err(SwlbError::Rejected { capacity }) => {
            ctx.recorder.counter("serve.rejected").inc();
            let e = SwlbError::Rejected { capacity };
            (
                429,
                Json::obj([
                    ("error", Json::str(e.to_string())),
                    ("capacity", Json::num(capacity as f64)),
                ]),
            )
        }
        Err(e @ SwlbError::Unavailable(_)) => {
            // Journal cannot persist the admission: refusing is the safe
            // degraded mode — never acknowledge work we could lose.
            ctx.recorder.counter("serve.unavailable").inc();
            (503, Json::obj([("error", Json::str(e.to_string()))]))
        }
        Err(e) => (500, Json::obj([("error", Json::str(e.to_string()))])),
    }
}

/// The whole table, or with `?ids=3,7,9` only those jobs (unknown ids are
/// omitted) — what a fleet sync asks for, so its cost follows the jobs placed
/// here rather than every job this worker ever ran.
fn list(shared: &Shared, ids: Option<&str>) -> (u16, Json) {
    let st = shared.lock_state();
    let jobs: Vec<&crate::state::JobRecord> = match ids {
        None => st.jobs.iter().collect(),
        Some(ids) => {
            let ids = ids.split(',').filter(|s| !s.is_empty()).map(str::parse::<u64>);
            let Ok(ids) = ids.collect::<Result<Vec<_>, _>>() else {
                return (400, Json::obj([("error", Json::str("bad ids list"))]));
            };
            ids.iter().filter_map(|id| st.job(*id)).collect()
        }
    };
    (200, Json::Arr(jobs.iter().map(|j| j.status_json()).collect()))
}

fn parse_id(seg: &str) -> Option<u64> {
    seg.parse().ok().filter(|id| *id >= 1)
}

fn status(shared: &Shared, id_seg: &str) -> (u16, Json) {
    let Some(id) = parse_id(id_seg) else {
        return (400, Json::obj([("error", Json::str("bad job id"))]));
    };
    let st = shared.lock_state();
    match st.job(id) {
        Some(j) => (200, j.status_json()),
        None => (404, Json::obj([("error", Json::str("no such job"))])),
    }
}

fn cancel(shared: &Shared, id_seg: &str) -> (u16, Json) {
    let Some(id) = parse_id(id_seg) else {
        return (400, Json::obj([("error", Json::str("bad job id"))]));
    };
    let mut st = shared.lock_state();
    let Some(job) = st.job_mut(id) else {
        return (404, Json::obj([("error", Json::str("no such job"))]));
    };
    match job.state {
        // Off the pool (including parked-for-handoff/drain): cancel
        // immediately. Cancelling a checkpointed job is how the fleet
        // controller releases the source-side copy once a migration has
        // landed elsewhere — the checkpoint files stay on disk.
        JobState::Queued | JobState::Preempted | JobState::Checkpointed => {
            shared.settle(&mut st, id, Exit::Cancelled { error: None });
        }
        // On the pool: honoured at the next slice boundary.
        JobState::Running => {
            job.cancel_requested = true;
        }
        // Terminal states are left alone (idempotent cancel).
        _ => {}
    }
    shared.sched_wake.notify_all();
    let body = st.job(id).unwrap().status_json();
    (200, body)
}

/// How long a handoff handler waits for the scheduler to park a running job
/// at its next slice boundary before reporting the worker busy.
const HANDOFF_TIMEOUT: Duration = Duration::from_secs(20);

/// `POST /v1/fleet/ping` — heartbeat echo. The controller sends a sealed
/// `[epoch, seq, crc]` f64 frame; the worker validates it, re-seals the same
/// epoch/seq over a load-report payload `[live, queued, capacity,
/// queue_interactive, queue_batch]`, and answers. Echoing means the worker
/// keeps no per-controller epoch state — a worker restarted in place answers
/// the very next probe correctly.
fn heartbeat(stream: &mut TcpStream, shared: &Shared, req: &Request) {
    use swlb_comm::frame::{
        check_frame, frame_from_bytes, frame_to_bytes, seal_frame, FrameCheck, FRAME_HEADER,
    };
    let verdict = frame_from_bytes(&req.body)
        .map(|probe| {
            let (epoch, seq) = (probe[0] as u64, probe[1] as u64);
            (check_frame(&probe, epoch, seq), epoch, seq)
        })
        .filter(|(check, _, _)| *check == FrameCheck::Valid);
    let Some((_, epoch, seq)) = verdict else {
        let _ = http::write_response(
            stream,
            400,
            "application/json",
            b"{\"error\":\"corrupt heartbeat frame\"}",
        );
        return;
    };
    let load = {
        let st = shared.lock_state();
        [
            st.live_count() as f64,
            st.queue_depth() as f64,
            st.capacity as f64,
            st.queue_depth_for(Priority::Interactive) as f64,
            st.queue_depth_for(Priority::Batch) as f64,
        ]
    };
    let mut resp = vec![0.0; FRAME_HEADER];
    resp.extend_from_slice(&load);
    seal_frame(&mut resp, epoch, seq);
    let _ = http::write_response(
        stream,
        200,
        "application/octet-stream",
        &frame_to_bytes(&resp),
    );
}

/// `POST /v1/fleet/push` — receive a migrated (or freshly placed) job. The
/// job is admitted *held* so the scheduler cannot start it from scratch,
/// then the envelope's checkpoint bytes are installed into the job's
/// namespaced store, and only then is the hold released. A seed failure
/// cancels the held job — the controller retries on another worker.
/// `?notify_port=N` names where the pusher hears terminals: the port is paired
/// with this connection's `peer` IP — never a full address, so a pusher can
/// only make the worker knock on the pusher's own host — and becomes the wake
/// notifier's target; a push that names none leaves the previous one in place.
fn push(shared: &Shared, req: &Request, ctx: &ConnCtx, peer: Option<SocketAddr>) -> (u16, Json) {
    let port = req.query("notify_port").and_then(|p| p.parse().ok());
    let notify = port.zip(peer).map(|(port, peer)| SocketAddr::new(peer.ip(), port));
    let env = match PushEnvelope::decode(&req.body) {
        Ok(e) => e,
        Err(e) => return (400, Json::obj([("error", Json::str(e.to_string()))])),
    };
    let id = {
        let mut st = shared.lock_state();
        match st.admit(env.spec.clone(), Recorder::disabled()) {
            Ok(id) => {
                st.notify = notify.or(st.notify);
                let recorder = job_recorder(&ctx.jobs_dir, id, ctx.slice_steps);
                let job = st.job_mut(id).unwrap();
                job.recorder = recorder;
                job.held = !env.ckpt.is_empty();
                job.steps_done = env.step;
                ctx.recorder.counter("serve.pushed").inc();
                shared.push_event(
                    &mut st,
                    id,
                    "pushed",
                    vec![
                        ("fleet_id", Json::num(env.fleet_id as f64)),
                        ("at_step", Json::num(env.step as f64)),
                    ],
                );
                id
            }
            Err(SwlbError::Rejected { capacity }) => {
                ctx.recorder.counter("serve.rejected").inc();
                return (
                    429,
                    Json::obj([
                        ("error", Json::str("worker at capacity")),
                        ("capacity", Json::num(capacity as f64)),
                    ]),
                );
            }
            Err(e @ SwlbError::Unavailable(_)) => {
                ctx.recorder.counter("serve.unavailable").inc();
                return (503, Json::obj([("error", Json::str(e.to_string()))]));
            }
            Err(e) => return (500, Json::obj([("error", Json::str(e.to_string()))])),
        }
    };
    if !env.ckpt.is_empty() {
        // Disk I/O outside the lock; the hold keeps the scheduler away.
        let seeded = ctx
            .store
            .namespaced(&format!("job-{id}"))
            .map_err(swlb_io::CheckpointError::Io)
            .and_then(|s| s.seed_bytes(env.step, &env.ckpt));
        if let Err(e) = seeded {
            let error = Some(e.to_string());
            shared.settle(&mut shared.lock_state(), id, Exit::Cancelled { error });
            return (500, Json::obj([("error", Json::str(e.to_string()))]));
        }
    }
    let mut st = shared.lock_state();
    if let Some(job) = st.job_mut(id) {
        job.held = false;
    }
    shared.sched_wake.notify_all();
    (
        202,
        Json::obj([
            ("id", Json::num(id as f64)),
            ("fleet_id", Json::num(env.fleet_id as f64)),
        ]),
    )
}

/// `POST /v1/jobs/<id>/handoff?fleet_id=N` — park the job at a checkpointed
/// boundary and ship its spec + newest valid checkpoint bytes back as a
/// [`PushEnvelope`]. Queued/preempted jobs park immediately; a running job
/// is flagged and the handler waits (bounded) for the scheduler to honour
/// the handoff at its next slice boundary. The local record stays
/// `Checkpointed` — terminal here, resumable wherever the envelope lands.
fn handoff(stream: &mut TcpStream, shared: &Shared, id_seg: &str, ctx: &ConnCtx) {
    let Some(id) = parse_id(id_seg) else {
        let _ = http::write_response(stream, 400, "application/json", b"{\"error\":\"bad job id\"}");
        return;
    };
    enum Park {
        Ready,
        NotFound,
        Terminal(&'static str),
        TimedOut,
    }
    let parked = {
        let mut st = shared.lock_state();
        match st.job(id).map(|j| (j.state, j.steps_done)) {
            None => Park::NotFound,
            // Off the pool: any existing checkpoint (from preemption) is
            // already on disk, so park directly.
            Some((JobState::Queued | JobState::Preempted, step)) => {
                shared.park(&mut st, id, step, "handed_off");
                Park::Ready
            }
            // Drained already — nothing to do, just ship.
            Some((JobState::Checkpointed, _)) => Park::Ready,
            Some((JobState::Running, _)) => {
                st.job_mut(id).unwrap().handoff_requested = true;
                shared.sched_wake.notify_all();
                let deadline = Instant::now() + HANDOFF_TIMEOUT;
                loop {
                    st = shared.wait_event_timeout(st, Duration::from_millis(50));
                    match st.job(id).map(|j| j.state) {
                        Some(JobState::Checkpointed) => break Park::Ready,
                        Some(JobState::Running) if Instant::now() < deadline => continue,
                        Some(JobState::Running) => {
                            // Withdraw the request so the job keeps running.
                            st.job_mut(id).unwrap().handoff_requested = false;
                            break Park::TimedOut;
                        }
                        // The job reached a different terminal state first
                        // (completed/failed/cancelled won the boundary).
                        _ => break Park::Terminal("job became terminal before handoff"),
                    }
                }
            }
            Some(_) => Park::Terminal("job is terminal"),
        }
    };
    match parked {
        Park::NotFound => {
            let _ =
                http::write_response(stream, 404, "application/json", b"{\"error\":\"no such job\"}");
            return;
        }
        Park::Terminal(msg) => {
            let body = Json::obj([("error", Json::str(msg))]).to_text();
            let _ = http::write_response(stream, 409, "application/json", body.as_bytes());
            return;
        }
        Park::TimedOut => {
            let _ = http::write_response(
                stream,
                503,
                "application/json",
                b"{\"error\":\"handoff timed out waiting for a slice boundary\"}",
            );
            return;
        }
        Park::Ready => {}
    }
    let spec = shared.lock_state().job(id).unwrap().spec.clone();
    // Newest valid bytes (outside the lock); a job parked before its first
    // checkpoint ships an empty payload — the receiver starts from scratch.
    let bytes = ctx
        .store
        .namespaced(&format!("job-{id}"))
        .ok()
        .and_then(|s| s.latest_valid_bytes().ok().flatten());
    let (step, ckpt) = bytes.unwrap_or((0, Vec::new()));
    let env = PushEnvelope {
        width: spec.width,
        spec,
        fleet_id: 0, // stamped by the controller when it relays the envelope
        step,
        ckpt,
    };
    ctx.recorder.counter("serve.handoffs").inc();
    let _ = http::write_response(stream, 200, "application/octet-stream", &env.encode());
}

fn drain(shared: &Shared) -> (u16, Json) {
    let mut st = shared.lock_state();
    st.draining = true;
    shared.sched_wake.notify_all();
    while !st.drained && !st.stopping {
        st = shared.wait_event_timeout(st, Duration::from_millis(100));
        shared.sched_wake.notify_all();
    }
    (
        200,
        Json::obj([
            ("drained", Json::Bool(st.drained)),
            ("jobs", Json::num(st.jobs.len() as f64)),
        ]),
    )
}

fn stats(shared: &Shared, ctx: &ConnCtx) -> (u16, Json) {
    let st = shared.lock_state();
    // Journal durability cost, amortized per admitted job (fsync batching
    // plus the always-durable admission/terminal records).
    let fsync_ns = ctx.recorder.counter("journal.fsync_ns").get();
    let fsyncs = ctx.recorder.counter("journal.fsyncs").get();
    let submitted = ctx.recorder.counter("serve.submitted").get();
    let fsync_us_per_job = if submitted > 0 {
        fsync_ns as f64 / 1e3 / submitted as f64
    } else {
        0.0
    };
    (
        200,
        Json::obj([
            ("jobs", Json::num(st.jobs.len() as f64)),
            ("live", Json::num(st.live_count() as f64)),
            ("queue_depth", Json::num(st.queue_depth() as f64)),
            (
                "queue_depth_interactive",
                Json::num(st.queue_depth_for(Priority::Interactive) as f64),
            ),
            (
                "queue_depth_batch",
                Json::num(st.queue_depth_for(Priority::Batch) as f64),
            ),
            (
                "tenants",
                Json::Obj(
                    st.tenant_counts()
                        .into_iter()
                        .map(|(tenant, running, queued)| {
                            (
                                tenant,
                                Json::obj([
                                    ("running", Json::num(running as f64)),
                                    ("queued", Json::num(queued as f64)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            ("capacity", Json::num(st.capacity as f64)),
            ("rejected", Json::num(st.rejected as f64)),
            ("slices", Json::num(st.slice_seq as f64)),
            ("draining", Json::Bool(st.draining)),
            ("drained", Json::Bool(st.drained)),
            ("journal_degraded", Json::Bool(st.journal.degraded())),
            ("journal_buffered", Json::num(st.journal.buffered() as f64)),
            (
                "journal_corrupt",
                Json::num(ctx.recorder.counter("journal.corrupt").get() as f64),
            ),
            ("journal_fsyncs", Json::num(fsyncs as f64)),
            ("journal_fsync_us_per_job", Json::num(fsync_us_per_job)),
            (
                "lock_recoveries",
                Json::num(shared.lock_recoveries.load(Ordering::Relaxed) as f64),
            ),
        ]),
    )
}

/// Stream a job's events as NDJSON from `?from=N` (default 0) until the job
/// reaches a terminal state (or the server stops / the client disconnects).
/// Idle periods emit an empty-line heartbeat so a dead client is detected
/// within the write deadline instead of pinning this thread until drain.
fn watch(stream: &mut TcpStream, shared: &Shared, id_seg: &str, req: &Request) {
    let Some(id) = parse_id(id_seg) else {
        let _ = http::write_response(
            stream,
            400,
            "application/json",
            b"{\"error\":\"bad job id\"}",
        );
        return;
    };
    let mut from: usize = req
        .query("from")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    {
        let st = shared.lock_state();
        if st.job(id).is_none() {
            let _ = http::write_response(
                stream,
                404,
                "application/json",
                b"{\"error\":\"no such job\"}",
            );
            return;
        }
    }
    if http::write_stream_head(stream).is_err() {
        return;
    }
    use std::io::Write;
    loop {
        let (lines, done) = {
            let mut st = shared.lock_state();
            let mut idle = Duration::from_millis(0);
            loop {
                let job = match st.job(id) {
                    Some(j) => j,
                    None => return,
                };
                let fresh: Vec<String> = job.events.get(from..).unwrap_or_default().to_vec();
                let terminal = job.state.is_terminal();
                if !fresh.is_empty() || terminal || st.stopping {
                    break (fresh, terminal || st.stopping);
                }
                if idle >= WATCH_HEARTBEAT {
                    break (Vec::new(), false);
                }
                st = shared.wait_event_timeout(st, WATCH_POLL);
                idle += WATCH_POLL;
            }
        };
        from += lines.len();
        if lines.is_empty() && !done {
            // Heartbeat: an empty NDJSON line (clients skip blank lines).
            if stream
                .write_all(b"\n")
                .and_then(|()| stream.flush())
                .is_err()
            {
                return; // client went away
            }
            continue;
        }
        for line in &lines {
            if stream
                .write_all(line.as_bytes())
                .and_then(|()| stream.write_all(b"\n"))
                .is_err()
            {
                return; // client went away
            }
        }
        if stream.flush().is_err() {
            return;
        }
        if done {
            return;
        }
    }
}
