//! The fleet controller: admission, write-ahead placement journaling,
//! heartbeat-driven liveness, quota/aging placement, and checkpoint-carried
//! migration.
//!
//! ```text
//! POST /v1/jobs               admit (journaled durably before the 202)
//! GET  /v1/jobs               all fleet jobs
//! GET  /v1/jobs/<id>          one fleet job
//! POST /v1/jobs/<id>/cancel   cancel (relayed to the owning worker)
//! POST /v1/fleet/register     worker announcement {name, addr, dir}
//! POST /v1/drain              block until every job is terminal
//! GET  /v1/stats              fleet counters, worker table, tenant breakdown
//! ```
//!
//! The controller holds the *authoritative* job table: every admission and
//! terminal is fsynced to the [`swlb_io::journal`] WAL before it is
//! acknowledged, and placement/migration records ride the same log, so a
//! `kill -9` of the controller replays to exactly the acknowledged state —
//! placed jobs re-sync from their workers' live tables, each terminal is
//! reported exactly once (from the fold, never from a second observation).
//!
//! One tick thread drives the data plane every `heartbeat` period:
//!
//! 1. **Probe** — sealed `[epoch, seq, crc]` frames to each worker due per
//!    its backoff; a valid echo carries the worker's load report, a miss
//!    advances the [`registry`](crate::registry) retry state.
//! 2. **Reap** — a worker crossing `max_missed` is dead: every tick, every
//!    job still placed on a dead worker (death can also be declared by a
//!    failed placement push, outside the probe phase) is replayed onto the
//!    least-loaded survivor from its newest valid
//!    checkpoint (read from the dead worker's state directory — the fleet
//!    assumes a shared filesystem, see `docs/SERVING.md`), preserving the
//!    fleet id. With no survivor the job returns to pending.
//! 3. **Sync** — poll each live worker's job table; progress updates step
//!    counts, worker-side terminals become journaled fleet terminals.
//! 4. **Place** — [`policy::pick_next`] chooses among pending jobs under
//!    tenant quotas and priority aging; the job is pushed (empty checkpoint)
//!    to the least-loaded worker with room.
//! 5. **Rebalance** — when the pool is imbalanced by ≥ 2 jobs and nothing is
//!    pending, one job is migrated from the most- to the least-loaded worker
//!    through the handoff/push pair: the source parks it at a slice boundary
//!    and ships spec + checkpoint bytes; the destination resumes it — at
//!    whatever width its own elastic scheduler grants — bit-exact through
//!    the rank-count-independent chunked format.

use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use swlb_comm::frame::{
    check_frame, frame_from_bytes, frame_to_bytes, seal_frame, FrameCheck, FRAME_HEADER,
};
use swlb_io::{CheckpointStore, Wal};
use swlb_obs::{Recorder, SwlbError};
use swlb_serve::http::{self, Listener, Request};
use swlb_serve::{json, JobSpec, Json, Priority, PushEnvelope, ServeClient};

use crate::policy::{self, PendingJob, PolicyConfig, TenantAccount};
use crate::record::{FleetEvent, FleetFold, FleetOutcome};
use crate::registry::{Worker, WorkerLoad};

/// Controller configuration.
pub struct FleetConfig {
    /// Bind address; `127.0.0.1:0` picks a free loopback port.
    pub addr: String,
    /// Root of the controller's on-disk state (`journal/`).
    pub base_dir: PathBuf,
    /// Tick period: heartbeat probes, sync polls, placement rounds.
    pub heartbeat: Duration,
    /// Consecutive missed heartbeats before a worker is declared dead.
    pub max_missed: u32,
    /// Max fleet jobs placed on one worker at a time.
    pub per_worker_cap: usize,
    /// Tenant quotas and priority aging.
    pub policy: PolicyConfig,
    /// Migrate jobs from loaded to idle workers when imbalance ≥ 2.
    pub rebalance: bool,
    /// Per-connection socket deadline for the control plane.
    pub io_timeout: Option<Duration>,
    /// Records buffered in memory while the journal disk is unavailable.
    pub journal_buffer: usize,
    /// Controller-level counters (`fleet.*`).
    pub recorder: Recorder,
}

impl FleetConfig {
    /// Loopback defaults rooted at `base_dir`.
    pub fn new(base_dir: impl Into<PathBuf>) -> Self {
        FleetConfig {
            addr: "127.0.0.1:0".into(),
            base_dir: base_dir.into(),
            heartbeat: Duration::from_millis(200),
            max_missed: 3,
            per_worker_cap: 4,
            policy: PolicyConfig::default(),
            rebalance: true,
            io_timeout: Some(Duration::from_secs(10)),
            journal_buffer: 1024,
            recorder: Recorder::disabled(),
        }
    }
}

/// Where a fleet job currently lives.
#[derive(Debug, Clone, PartialEq)]
enum Binding {
    /// Waiting for placement; `wait_ticks` feeds priority aging.
    Pending { wait_ticks: u64 },
    /// Running (or queued) on `worker` under worker-local id `local`.
    Placed {
        worker: String,
        local: u64,
        step: u64,
    },
    Completed,
    Cancelled,
    Failed(String),
}

impl Binding {
    fn is_terminal(&self) -> bool {
        matches!(
            self,
            Binding::Completed | Binding::Cancelled | Binding::Failed(_)
        )
    }

    fn name(&self) -> &'static str {
        match self {
            Binding::Pending { .. } => "pending",
            Binding::Placed { .. } => "placed",
            Binding::Completed => "completed",
            Binding::Cancelled => "cancelled",
            Binding::Failed(_) => "failed",
        }
    }
}

/// One fleet job.
struct FleetJob {
    id: u64,
    seq: u64,
    spec: JobSpec,
    binding: Binding,
    /// Width last reported by the owning worker (elastic resume may differ
    /// from the requested width); seeds the next migration envelope.
    width: u32,
    migrations: u32,
}

impl FleetJob {
    fn status_json(&self) -> Json {
        let mut fields = vec![
            ("id", Json::num(self.id as f64)),
            ("name", Json::str(self.spec.name.clone())),
            ("state", Json::str(self.binding.name())),
            ("tenant", Json::str(self.spec.tenant.clone())),
            ("priority", Json::str(self.spec.priority.name())),
            ("steps", Json::num(self.spec.steps as f64)),
            ("width", Json::num(self.width as f64)),
            ("migrations", Json::num(self.migrations as f64)),
        ];
        match &self.binding {
            Binding::Placed {
                worker,
                local,
                step,
            } => {
                fields.push(("worker", Json::str(worker.clone())));
                fields.push(("local", Json::num(*local as f64)));
                fields.push(("step", Json::num(*step as f64)));
            }
            Binding::Failed(e) => fields.push(("error", Json::str(e.clone()))),
            _ => {}
        }
        Json::obj(fields)
    }
}

/// The controller's mutable world, behind one mutex.
struct FleetState {
    jobs: Vec<FleetJob>,
    workers: Vec<Worker>,
    accounts: Vec<TenantAccount>,
    journal: Wal<FleetEvent>,
    next_id: u64,
    next_seq: u64,
    tick: u64,
    migrations: u64,
    stopping: bool,
}

impl FleetState {
    /// The controller's world as the journal left it.
    fn restore(journal: Wal<FleetEvent>, replayed: FleetFold) -> FleetState {
        let mut accounts: Vec<TenantAccount> = Vec::new();
        let mut jobs = Vec::new();
        let mut next_id = 1;
        let mut next_seq = 0;
        for j in replayed.fold.jobs {
            next_id = next_id.max(j.id + 1);
            next_seq = next_seq.max(j.seq + 1);
            let binding = match j.outcome {
                FleetOutcome::Pending => Binding::Pending { wait_ticks: 0 },
                FleetOutcome::Placed {
                    worker,
                    local,
                    step,
                } => Binding::Placed {
                    worker,
                    local,
                    step,
                },
                FleetOutcome::Completed => Binding::Completed,
                FleetOutcome::Cancelled => Binding::Cancelled,
                FleetOutcome::Failed(e) => Binding::Failed(e),
            };
            // Any job that ever got placed was charged; rebuild the accounts
            // so fair-share history survives the restart.
            if !matches!(binding, Binding::Pending { .. }) {
                policy::charge(&mut accounts, &j.spec.tenant, j.spec.priority);
            }
            jobs.push(FleetJob {
                id: j.id,
                seq: j.seq,
                width: j.spec.width.max(1),
                spec: j.spec,
                binding,
                migrations: 0,
            });
        }
        let workers = replayed
            .workers
            .into_iter()
            .map(|w| Worker::new(w.name, w.addr, w.dir, 1))
            .collect();
        FleetState {
            jobs,
            workers,
            accounts,
            journal,
            next_id,
            next_seq,
            tick: 0,
            migrations: 0,
            stopping: false,
        }
    }

    fn job(&self, id: u64) -> Option<&FleetJob> {
        self.jobs.iter().find(|j| j.id == id)
    }

    fn job_mut(&mut self, id: u64) -> Option<&mut FleetJob> {
        self.jobs.iter_mut().find(|j| j.id == id)
    }

    fn worker_mut(&mut self, name: &str) -> Option<&mut Worker> {
        self.workers.iter_mut().find(|w| w.name == name)
    }

    /// Fleet jobs currently placed on `worker` (the controller's own count —
    /// independent of the worker's heartbeat-reported load, which may lag).
    fn placed_on(&self, worker: &str) -> usize {
        self.jobs
            .iter()
            .filter(|j| matches!(&j.binding, Binding::Placed { worker: w, .. } if w == worker))
            .count()
    }

    fn placed_of_tenant(&self, tenant: &str) -> usize {
        self.jobs
            .iter()
            .filter(|j| {
                j.spec.tenant == tenant && matches!(j.binding, Binding::Placed { .. })
            })
            .count()
    }

    /// Least-loaded live worker with placement room, excluding `not`.
    fn best_target(&self, cap: usize, not: Option<&str>) -> Option<String> {
        self.workers
            .iter()
            .filter(|w| !w.dead && Some(w.name.as_str()) != not)
            .map(|w| (self.placed_on(&w.name), w.name.clone()))
            .filter(|(n, _)| *n < cap)
            .min()
            .map(|(_, name)| name)
    }

    /// Journal a terminal exactly once: a job already terminal is left
    /// untouched (replayed terminals must not be re-recorded).
    fn settle(&mut self, id: u64, outcome: Binding) {
        let Some(idx) = self.jobs.iter().position(|j| j.id == id) else {
            return;
        };
        if self.jobs[idx].binding.is_terminal() {
            return;
        }
        let ev = match &outcome {
            Binding::Completed => FleetEvent::Completed { id },
            Binding::Cancelled => FleetEvent::Cancelled { id },
            Binding::Failed(e) => FleetEvent::Failed {
                id,
                error: e.clone(),
            },
            _ => return,
        };
        self.journal.append(&ev);
        self.jobs[idx].binding = outcome;
    }

    /// Journal and apply a re-binding of job `id`: onto `(worker, local)`
    /// resuming from `step`, or back to pending when no worker took it.
    /// `migration` says whether a landed re-binding counts as one (a re-push
    /// onto the worker the job came from does not). Returns whether it landed.
    fn rebind(&mut self, id: u64, placed: Option<(String, u64, u64)>, migration: bool) -> bool {
        let landed = placed.is_some();
        let moved = landed && migration;
        let (ev, binding) = match placed {
            Some((worker, local, step)) => (
                FleetEvent::Migrated {
                    id,
                    worker: worker.clone(),
                    local,
                    step,
                },
                Binding::Placed {
                    worker,
                    local,
                    step,
                },
            ),
            None => (
                FleetEvent::Unplaced { id },
                Binding::Pending { wait_ticks: 0 },
            ),
        };
        self.journal.append(&ev);
        self.migrations += moved as u64;
        if let Some(job) = self.job_mut(id) {
            job.binding = binding;
            job.migrations += moved as u32;
        }
        landed
    }
}

/// A running controller instance.
pub struct Controller {
    shared: Arc<Mutex<FleetState>>,
    listener: Listener,
    ticker: Option<JoinHandle<()>>,
}

fn lock(shared: &Mutex<FleetState>) -> MutexGuard<'_, FleetState> {
    shared.lock().unwrap_or_else(|p| p.into_inner())
}

impl Controller {
    /// Replay the journal, bind, spawn the tick and acceptor threads.
    pub fn spawn(cfg: FleetConfig) -> Result<Controller, SwlbError> {
        let mut listener = Listener::bind(&cfg.addr)?;
        std::fs::create_dir_all(&cfg.base_dir)?;

        // ---- crash recovery: replay, compact, restore ------------------
        let (journal, replayed, _): (_, FleetFold, _) = Wal::recover(
            &cfg.base_dir.join("journal"),
            cfg.journal_buffer,
            cfg.recorder.clone(),
            "fleet.journal",
        )?;
        if !replayed.fold.jobs.is_empty() {
            cfg.recorder
                .counter("fleet.replayed_jobs")
                .add(replayed.fold.jobs.len() as u64);
        }
        let shared = Arc::new(Mutex::new(FleetState::restore(journal, replayed)));

        let tick_cfg = TickCfg {
            max_missed: cfg.max_missed,
            per_worker_cap: cfg.per_worker_cap,
            policy: cfg.policy.clone(),
            rebalance: cfg.rebalance,
            recorder: cfg.recorder.clone(),
        };
        let ticker = {
            let shared = shared.clone();
            let period = cfg.heartbeat;
            std::thread::spawn(move || loop {
                if lock(&shared).stopping {
                    break;
                }
                tick(&shared, &tick_cfg);
                std::thread::sleep(period);
            })
        };

        let conn_shared = shared.clone();
        listener.start(cfg.io_timeout, move |stream| {
            handle_connection(stream, &conn_shared)
        });

        Ok(Controller {
            shared,
            listener,
            ticker: Some(ticker),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.listener.addr()
    }

    /// Stop every thread, flush the journal, and join.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        lock(&self.shared).stopping = true;
        self.listener.stop_accepting();
        if let Some(h) = self.ticker.take() {
            let _ = h.join();
        }
        self.listener.join_handlers();
        lock(&self.shared).journal.sync();
    }
}

impl Drop for Controller {
    fn drop(&mut self) {
        if !lock(&self.shared).stopping {
            self.stop_threads();
        }
    }
}

// ---------------------------------------------------------------------------
// Tick loop
// ---------------------------------------------------------------------------

struct TickCfg {
    max_missed: u32,
    per_worker_cap: usize,
    policy: PolicyConfig,
    rebalance: bool,
    recorder: Recorder,
}

/// One controller tick. All network I/O happens with the state lock
/// released; decisions are re-validated when the lock is retaken.
fn tick(shared: &Arc<Mutex<FleetState>>, cfg: &TickCfg) {
    // ---- 1. probe ------------------------------------------------------
    let probes: Vec<(String, String, u64, u64)> = {
        let mut st = lock(shared);
        st.tick += 1;
        let tick_now = st.tick;
        st.workers
            .iter_mut()
            .filter(|w| w.probe_due(tick_now))
            .map(|w| {
                w.seq += 1;
                (w.name.clone(), w.addr.clone(), w.epoch, w.seq)
            })
            .collect()
    };
    let mut results = Vec::new();
    for (name, addr, epoch, seq) in probes {
        results.push((name, probe(&addr, epoch, seq)));
    }

    // ---- 2. reap: collect dead workers' jobs for replay ----------------
    let mut replays: Vec<(u64, String, u64, JobSpec, u32)> = Vec::new(); // (id, dir, local, spec, width)
    {
        let mut st = lock(shared);
        let tick_now = st.tick;
        let max_missed = cfg.max_missed;
        for (name, outcome) in results {
            let Some(w) = st.worker_mut(&name) else {
                continue;
            };
            match outcome {
                Some(load) => w.record_success(tick_now, load),
                None => {
                    if w.record_failure(tick_now, max_missed) {
                        cfg.recorder.counter("fleet.worker_deaths").inc();
                    }
                }
            }
        }
        // Replay is keyed off the `dead` *state*, not the death transition:
        // a worker can cross `max_missed` outside the probe phase (a failed
        // placement push also records a failure), and an edge-triggered reap
        // would strand any job bound to it at that moment.
        let dead: Vec<(String, String)> = st
            .workers
            .iter()
            .filter(|w| w.dead)
            .map(|w| (w.name.clone(), w.dir.clone()))
            .collect();
        for (dead_name, dead_dir) in dead {
            for job in &st.jobs {
                if let Binding::Placed { worker, local, .. } = &job.binding {
                    if *worker == dead_name {
                        replays.push((
                            job.id,
                            dead_dir.clone(),
                            *local,
                            job.spec.clone(),
                            job.width,
                        ));
                    }
                }
            }
        }
    }
    // Death replay: read the newest valid checkpoint from the dead worker's
    // state directory and push it to a survivor (I/O, lock released).
    for (id, dir, local, spec, width) in replays {
        let target = lock(shared).best_target(cfg.per_worker_cap, None);
        let (step, ckpt) = dead_checkpoint(&dir, local);
        let placed = target.and_then(|tname| {
            let taddr = lock(shared)
                .workers
                .iter()
                .find(|w| w.name == tname)
                .map(|w| w.addr.clone())?;
            let env = PushEnvelope {
                spec: spec.clone(),
                fleet_id: id,
                step,
                width,
                ckpt,
            };
            push_envelope(&taddr, &env).map(|new_local| (tname, new_local, step))
        });
        let mut st = lock(shared);
        if st.job(id).is_none_or(|j| j.binding.is_terminal()) {
            continue; // settled while the replay push was in flight
        }
        if st.rebind(id, placed, true) {
            cfg.recorder.counter("fleet.migrations").inc();
        }
    }

    // ---- 3. sync: poll live workers' job tables ------------------------
    let live: Vec<(String, String)> = lock(shared)
        .workers
        .iter()
        .filter(|w| !w.dead)
        .map(|w| (w.name.clone(), w.addr.clone()))
        .collect();
    // Jobs found parked (`checkpointed`) on their worker while the
    // controller still counts them as placed: an interrupted handoff left
    // them orphaned — nothing on that worker will ever resume them.
    let mut orphans: Vec<(u64, u64, String)> = Vec::new();
    for (name, addr) in live {
        let Ok(items) = ServeClient::new(addr.clone()).list() else {
            continue;
        };
        let mut st = lock(shared);
        let ids: Vec<u64> = st.jobs.iter().map(|j| j.id).collect();
        for id in ids {
            let Some(job) = st.job(id) else { continue };
            let Binding::Placed { worker, local, .. } = &job.binding else {
                continue;
            };
            if *worker != name {
                continue;
            }
            let local = *local;
            let Some(item) = items
                .iter()
                .find(|v| v.get("id").and_then(Json::as_u64) == Some(local))
            else {
                continue;
            };
            let step = item.get("steps_done").and_then(Json::as_u64).unwrap_or(0);
            let width = item.get("width").and_then(Json::as_u64).unwrap_or(1) as u32;
            match item.get("state").and_then(Json::as_str) {
                Some("completed") => st.settle(id, Binding::Completed),
                Some("cancelled") => st.settle(id, Binding::Cancelled),
                Some("failed") => {
                    let err = item
                        .get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("worker reported failure")
                        .to_string();
                    st.settle(id, Binding::Failed(err));
                }
                Some("checkpointed") => orphans.push((id, local, addr.clone())),
                _ => {
                    if let Some(job) = st.job_mut(id) {
                        job.width = width;
                        if let Binding::Placed { step: s, .. } = &mut job.binding {
                            *s = step;
                        }
                    }
                }
            }
        }
    }

    // Rescue orphaned handoffs: the park means the handoff endpoint returns
    // the envelope immediately; ship it to the least-loaded worker (possibly
    // the same one — a fresh push un-parks it) and release the husk.
    for (id, local, src_addr) in orphans {
        let Some(mut env) = pull_handoff(&src_addr, local) else {
            continue;
        };
        env.fleet_id = id;
        let step = env.step;
        let target = {
            let st = lock(shared);
            if !st.job(id).is_some_and(|j| {
                matches!(&j.binding, Binding::Placed { local: l, .. } if *l == local)
            }) {
                continue; // re-bound or settled since the sync pass
            }
            st.best_target(cfg.per_worker_cap, None)
        };
        let _ = ServeClient::new(src_addr.clone()).cancel(local);
        let pushed = target.and_then(|t| {
            let addr = lock(shared)
                .workers
                .iter()
                .find(|w| w.name == t)
                .map(|w| w.addr.clone())?;
            push_envelope(&addr, &env).map(|new_local| (t, new_local, step))
        });
        if lock(shared).rebind(id, pushed, true) {
            cfg.recorder.counter("fleet.rescues").inc();
        }
    }

    // ---- 4. place pending jobs under quota + aging ---------------------
    {
        let mut st = lock(shared);
        for job in &mut st.jobs {
            if let Binding::Pending { wait_ticks } = &mut job.binding {
                *wait_ticks += 1;
            }
        }
    }
    for _ in 0..16 {
        if !place_once(shared, cfg) {
            break;
        }
    }

    // ---- 5. rebalance --------------------------------------------------
    if cfg.rebalance {
        rebalance_once(shared, cfg);
    }
}

/// Send one sealed heartbeat probe; `Some(load)` on a valid echo.
fn probe(addr: &str, epoch: u64, seq: u64) -> Option<WorkerLoad> {
    let mut frame = vec![0.0; FRAME_HEADER];
    seal_frame(&mut frame, epoch, seq);
    let (status, body) =
        http::roundtrip(addr, "POST", "/v1/fleet/ping", &frame_to_bytes(&frame)).ok()?;
    if status != 200 {
        return None;
    }
    let echo = frame_from_bytes(&body)?;
    if check_frame(&echo, epoch, seq) != FrameCheck::Valid {
        return None;
    }
    WorkerLoad::from_payload(&echo[FRAME_HEADER..])
}

/// Newest valid checkpoint bytes for a dead worker's local job, read from
/// its state directory (shared-filesystem assumption). `(0, empty)` when the
/// job never checkpointed or the directory is gone — the job restarts from
/// scratch on the survivor rather than being lost.
fn dead_checkpoint(dir: &str, local: u64) -> (u64, Vec<u8>) {
    let read = || -> Option<(u64, Vec<u8>)> {
        let store = CheckpointStore::new(PathBuf::from(dir).join("checkpoints"), 2).ok()?;
        let ns = store.namespaced(&format!("job-{local}")).ok()?;
        ns.latest_valid_bytes().ok().flatten()
    };
    read().unwrap_or((0, Vec::new()))
}

/// Push an envelope to a worker; `Some(local_id)` on 202.
fn push_envelope(addr: &str, env: &PushEnvelope) -> Option<u64> {
    let (status, body) =
        http::roundtrip(addr, "POST", "/v1/fleet/push", &env.encode()).ok()?;
    if status != 202 {
        return None;
    }
    let v = json::parse(std::str::from_utf8(&body).ok()?).ok()?;
    v.get("id").and_then(Json::as_u64)
}

/// Ask a worker to park `local` at a slice boundary and ship its envelope.
fn pull_handoff(addr: &str, local: u64) -> Option<PushEnvelope> {
    let (status, body) = http::roundtrip_with_limit(
        addr,
        "POST",
        &format!("/v1/jobs/{local}/handoff"),
        b"",
        http::MAX_DATA_BODY,
    )
    .ok()?;
    if status != 200 {
        return None;
    }
    PushEnvelope::decode(&body).ok()
}

/// Decide → push → apply one placement. Returns whether one happened.
fn place_once(shared: &Arc<Mutex<FleetState>>, cfg: &TickCfg) -> bool {
    let decision = {
        let st = lock(shared);
        let pending: Vec<PendingJob> = st
            .jobs
            .iter()
            .filter_map(|j| match &j.binding {
                Binding::Pending { wait_ticks } => Some(PendingJob {
                    id: j.id,
                    seq: j.seq,
                    tenant: j.spec.tenant.clone(),
                    priority: j.spec.priority,
                    wait_ticks: *wait_ticks,
                }),
                _ => None,
            })
            .collect();
        if pending.is_empty() {
            return false;
        }
        let picked = policy::pick_next(
            &pending,
            &cfg.policy,
            |t| st.placed_of_tenant(t),
            |t| {
                st.accounts
                    .iter()
                    .find(|a| a.tenant == t)
                    .map(|a| a.vruntime)
                    .unwrap_or(0.0)
            },
        );
        let Some(id) = picked else { return false };
        let Some(target) = st.best_target(cfg.per_worker_cap, None) else {
            return false;
        };
        let addr = st
            .workers
            .iter()
            .find(|w| w.name == target)
            .map(|w| w.addr.clone());
        let job = st.job(id).unwrap();
        addr.map(|a| (id, job.spec.clone(), target, a))
    };
    let Some((id, spec, target, addr)) = decision else {
        return false;
    };
    let env = PushEnvelope {
        fleet_id: id,
        step: 0,
        width: spec.width.max(1),
        ckpt: Vec::new(),
        spec,
    };
    let local = push_envelope(&addr, &env);
    let mut st = lock(shared);
    match local {
        Some(local) => {
            // The job may have been cancelled while the push was in flight;
            // settle() protects terminals, so only re-bind live jobs.
            if st.job(id).is_some_and(|j| !j.binding.is_terminal()) {
                st.journal.append(&FleetEvent::Placed {
                    id,
                    worker: target.clone(),
                    local,
                });
                let (tenant, priority) = {
                    let job = st.job(id).unwrap();
                    (job.spec.tenant.clone(), job.spec.priority)
                };
                policy::charge(&mut st.accounts, &tenant, priority);
                st.job_mut(id).unwrap().binding = Binding::Placed {
                    worker: target,
                    local,
                    step: 0,
                };
                cfg.recorder.counter("fleet.placements").inc();
                return true;
            }
            false
        }
        None => {
            // Push failed: treat like a missed heartbeat so a wedged worker
            // backs off and eventually dies rather than absorbing retries.
            let tick_now = st.tick;
            let max_missed = cfg.max_missed;
            if let Some(w) = st.worker_mut(&target) {
                w.record_failure(tick_now, max_missed);
            }
            false
        }
    }
}

/// Migrate one job from the most- to the least-loaded worker when the pool
/// is imbalanced by ≥ 2 — elastic re-sharding in anger: the source parks the
/// job at a preemption boundary, the chunked checkpoint travels, and the
/// destination resumes it at whatever width its scheduler grants.
fn rebalance_once(shared: &Arc<Mutex<FleetState>>, cfg: &TickCfg) {
    let plan = {
        let st = lock(shared);
        let mut loads: Vec<(usize, &Worker)> = st
            .workers
            .iter()
            .filter(|w| !w.dead)
            .map(|w| (st.placed_on(&w.name), w))
            .collect();
        if loads.len() < 2 {
            return;
        }
        loads.sort_by_key(|(n, _)| *n);
        let &(min_n, idle) = loads.first().unwrap();
        let &(max_n, loaded) = loads.last().unwrap();
        if max_n < min_n + 2 || min_n >= cfg.per_worker_cap {
            return;
        }
        let job = st.jobs.iter().find(|j| {
            matches!(&j.binding, Binding::Placed { worker, .. } if *worker == loaded.name)
        });
        job.map(|j| {
            let Binding::Placed { local, .. } = &j.binding else {
                unreachable!()
            };
            (
                j.id,
                *local,
                loaded.addr.clone(),
                idle.name.clone(),
                idle.addr.clone(),
            )
        })
    };
    let Some((id, local, src_addr, dst_name, dst_addr)) = plan else {
        return;
    };
    let Some(mut env) = pull_handoff(&src_addr, local) else {
        return;
    };
    env.fleet_id = id;
    let step = env.step;
    match push_envelope(&dst_addr, &env) {
        Some(new_local) => {
            // Release the parked source-side copy so its slot frees up —
            // a leaked `checkpointed` husk would count against the source's
            // admission capacity forever. Best-effort: if the source is
            // dying anyway, the husk dies with it.
            let _ = ServeClient::new(src_addr.clone()).cancel(local);
            lock(shared).rebind(id, Some((dst_name, new_local, step)), true);
            cfg.recorder.counter("fleet.migrations").inc();
        }
        None => {
            // The destination refused: the job is already parked on the
            // source (state `checkpointed` there), so re-push the envelope
            // we hold back onto the source — the job keeps its progress and
            // the pool stays imbalanced until the next attempt. The re-push
            // admits a fresh local copy, so release the parked one first.
            let _ = ServeClient::new(src_addr.clone()).cancel(local);
            if let Some(new_local) = push_envelope(&src_addr, &env) {
                let mut st = lock(shared);
                let src_name = st
                    .workers
                    .iter()
                    .find(|w| w.addr == src_addr)
                    .map(|w| w.name.clone());
                if let Some(worker) = src_name {
                    st.rebind(id, Some((worker, new_local, step)), false);
                }
            } else {
                lock(shared).rebind(id, None, false);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// HTTP plane
// ---------------------------------------------------------------------------

fn handle_connection(mut stream: TcpStream, shared: &Arc<Mutex<FleetState>>) {
    let req = match http::read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            let body = Json::obj([("error", Json::str(e.to_string()))]).to_text();
            let _ = http::write_response(&mut stream, 400, "application/json", body.as_bytes());
            return;
        }
    };
    let path = req.path().to_string();
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let (status, body) = match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["v1", "jobs"]) => submit(shared, &req),
        ("GET", ["v1", "jobs"]) => {
            let st = lock(shared);
            (
                200,
                Json::Arr(st.jobs.iter().map(FleetJob::status_json).collect()),
            )
        }
        ("GET", ["v1", "jobs", id]) => match parse_id(id) {
            Some(id) => match lock(shared).job(id) {
                Some(j) => (200, j.status_json()),
                None => (404, err_json("no such job")),
            },
            None => (400, err_json("bad job id")),
        },
        ("POST", ["v1", "jobs", id, "cancel"]) => match parse_id(id) {
            Some(id) => cancel(shared, id),
            None => (400, err_json("bad job id")),
        },
        ("POST", ["v1", "fleet", "register"]) => register(shared, &req),
        ("POST", ["v1", "drain"]) => drain(shared),
        ("GET", ["v1", "stats"]) => stats(shared),
        _ => (404, err_json("no such route")),
    };
    let text = body.to_text();
    let _ = http::write_response(&mut stream, status, "application/json", text.as_bytes());
}

fn parse_id(seg: &str) -> Option<u64> {
    seg.parse().ok()
}

fn err_json(msg: &str) -> Json {
    Json::obj([("error", Json::str(msg))])
}

/// Admit a job: validate, journal durably, acknowledge. While the journal is
/// degraded the controller answers 503 — it will not accept work it cannot
/// make crash-safe (same contract as the single-worker serve tier).
fn submit(shared: &Arc<Mutex<FleetState>>, req: &Request) -> (u16, Json) {
    let spec = match JobSpec::from_body(&req.body) {
        Ok(s) => s,
        Err(e) => return (400, err_json(&e.to_string())),
    };
    let mut st = lock(shared);
    if st.journal.degraded() {
        return (
            503,
            err_json("fleet journal degraded; submissions refused until it recovers"),
        );
    }
    let id = st.next_id;
    let seq = st.next_seq;
    let ev = FleetEvent::Admitted {
        id,
        seq,
        spec: spec.clone(),
    };
    if !st.journal.append(&ev) {
        st.journal.retract_last(&ev);
        return (
            503,
            err_json("fleet journal degraded; submission not recorded"),
        );
    }
    st.next_id += 1;
    st.next_seq += 1;
    st.jobs.push(FleetJob {
        id,
        seq,
        width: spec.width.max(1),
        spec,
        binding: Binding::Pending { wait_ticks: 0 },
        migrations: 0,
    });
    (202, Json::obj([("id", Json::num(id as f64))]))
}

/// Cancel: pending jobs settle immediately; placed jobs relay to the owning
/// worker and the sync pass journals the terminal when the worker confirms.
fn cancel(shared: &Arc<Mutex<FleetState>>, id: u64) -> (u16, Json) {
    let relay = {
        let mut st = lock(shared);
        let Some(job) = st.job(id) else {
            return (404, err_json("no such job"));
        };
        match job.binding.clone() {
            Binding::Pending { .. } => {
                st.settle(id, Binding::Cancelled);
                None
            }
            Binding::Placed { worker, local, .. } => st
                .workers
                .iter()
                .find(|w| w.name == worker)
                .map(|w| (w.addr.clone(), local)),
            _ => None, // already terminal: idempotent
        }
    };
    if let Some((addr, local)) = relay {
        let _ = ServeClient::new(addr).cancel(local);
    }
    let st = lock(shared);
    match st.job(id) {
        Some(j) => (200, j.status_json()),
        None => (404, err_json("no such job")),
    }
}

/// Worker announcement: journaled durably (the registry must survive a
/// controller crash so dead-worker recovery can find checkpoint dirs).
fn register(shared: &Arc<Mutex<FleetState>>, req: &Request) -> (u16, Json) {
    let parsed = std::str::from_utf8(&req.body)
        .ok()
        .and_then(|t| json::parse(t).ok());
    let Some(v) = parsed else {
        return (400, err_json("bad registration body"));
    };
    let field = |k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);
    let (Some(name), Some(addr), Some(dir)) = (field("name"), field("addr"), field("dir"))
    else {
        return (400, err_json("registration needs name, addr, dir"));
    };
    let mut st = lock(shared);
    if st.journal.degraded() {
        return (503, err_json("fleet journal degraded"));
    }
    let ev = FleetEvent::Worker {
        name: name.clone(),
        addr: addr.clone(),
        dir: dir.clone(),
    };
    if !st.journal.append(&ev) {
        // Same contract as admission: a registration that is not on disk is
        // refused, and must not linger in the retry buffer.
        st.journal.retract_last(&ev);
        return (503, err_json("fleet journal degraded"));
    }
    match st.worker_mut(&name) {
        Some(w) => w.reregister(addr, dir),
        None => st.workers.push(Worker::new(name.clone(), addr, dir, 1)),
    }
    (200, Json::obj([("registered", Json::str(name))]))
}

/// Block until every fleet job is terminal (or the controller stops).
fn drain(shared: &Arc<Mutex<FleetState>>) -> (u16, Json) {
    loop {
        {
            let st = lock(shared);
            if st.stopping {
                return (503, err_json("controller stopping"));
            }
            if st.jobs.iter().all(|j| j.binding.is_terminal()) {
                return (
                    200,
                    Json::obj([
                        ("drained", Json::Bool(true)),
                        ("jobs", Json::num(st.jobs.len() as f64)),
                    ]),
                );
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn stats(shared: &Arc<Mutex<FleetState>>) -> (u16, Json) {
    let st = lock(shared);
    let count = |f: &dyn Fn(&Binding) -> bool| {
        Json::num(st.jobs.iter().filter(|j| f(&j.binding)).count() as f64)
    };
    let pending_by = |p: Priority| {
        st.jobs
            .iter()
            .filter(|j| {
                j.spec.priority == p && matches!(j.binding, Binding::Pending { .. })
            })
            .count() as f64
    };
    let mut tenants: Vec<(String, usize, usize)> = Vec::new();
    for j in &st.jobs {
        if j.binding.is_terminal() {
            continue;
        }
        let placed = matches!(j.binding, Binding::Placed { .. });
        match tenants.iter_mut().find(|(t, _, _)| *t == j.spec.tenant) {
            Some(entry) => {
                if placed {
                    entry.1 += 1;
                } else {
                    entry.2 += 1;
                }
            }
            None => tenants.push((
                j.spec.tenant.clone(),
                placed as usize,
                !placed as usize,
            )),
        }
    }
    tenants.sort();
    let workers = Json::Arr(
        st.workers
            .iter()
            .map(|w| {
                Json::obj([
                    ("name", Json::str(w.name.clone())),
                    ("addr", Json::str(w.addr.clone())),
                    ("alive", Json::Bool(!w.dead)),
                    ("missed", Json::num(w.missed as f64)),
                    ("placed", Json::num(st.placed_on(&w.name) as f64)),
                    ("live", Json::num(w.load.live as f64)),
                    ("capacity", Json::num(w.load.capacity as f64)),
                ])
            })
            .collect(),
    );
    (
        200,
        Json::obj([
            ("jobs", Json::num(st.jobs.len() as f64)),
            ("pending", count(&|b| matches!(b, Binding::Pending { .. }))),
            ("placed", count(&|b| matches!(b, Binding::Placed { .. }))),
            ("completed", count(&|b| matches!(b, Binding::Completed))),
            ("cancelled", count(&|b| matches!(b, Binding::Cancelled))),
            ("failed", count(&|b| matches!(b, Binding::Failed(_)))),
            (
                "queue_depth_interactive",
                Json::num(pending_by(Priority::Interactive)),
            ),
            ("queue_depth_batch", Json::num(pending_by(Priority::Batch))),
            (
                "tenants",
                Json::Obj(
                    tenants
                        .into_iter()
                        .map(|(t, placed, pending)| {
                            (
                                t,
                                Json::obj([
                                    ("running", Json::num(placed as f64)),
                                    ("queued", Json::num(pending as f64)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            ("migrations", Json::num(st.migrations as f64)),
            ("workers", workers),
            ("journal_degraded", Json::Bool(st.journal.degraded())),
        ]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recover(dir: &std::path::Path) -> (Wal<FleetEvent>, FleetFold, u64) {
        Wal::recover(dir, 8, Recorder::disabled(), "fleet.journal").unwrap()
    }

    fn post(body: &str) -> Request {
        Request {
            method: "POST".into(),
            target: "/".into(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    /// The failure-matrix row "journal disk loss / full": 503, and nothing
    /// acknowledged that cannot be replayed.
    #[test]
    fn degraded_journal_refuses_admission_and_registration_and_leaves_no_ghost() {
        let dir = std::env::temp_dir().join(format!("swlb-fleet-degraded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (journal, replayed, _) = recover(&dir);
        let shared = Arc::new(Mutex::new(FleetState::restore(journal, replayed)));
        let job = post(
            r#"{"name":"j","case":"cavity","lattice":"d2q9","nx":8,"ny":8,"nz":1,"tau":0.8,
                "u":0.05,"steps":32,"priority":"batch","tenant":"acme"}"#,
        );
        let worker = post(r#"{"name":"w0","addr":"127.0.0.1:9","dir":"/tmp/w0"}"#);

        // The disk fails. The first write discovers it: refused and retracted.
        lock(&shared).journal.set_fail_writes(true);
        assert_eq!(submit(&shared, &job).0, 503);
        assert_eq!(lock(&shared).journal.buffered(), 0);
        // Now known degraded: refused before any write is attempted.
        assert_eq!(register(&shared, &worker).0, 503);
        assert_eq!(submit(&shared, &job).0, 503);
        assert!(lock(&shared).jobs.is_empty() && lock(&shared).workers.is_empty());

        // The disk recovers: admission resumes with the next id, not a gap.
        lock(&shared).journal.set_fail_writes(false);
        let (status, body) = submit(&shared, &job);
        assert_eq!(
            (status, body.get("id").and_then(Json::as_u64)),
            (202, Some(1))
        );

        // A registration that discovers the failure itself is refused too.
        lock(&shared).journal.set_fail_writes(true);
        assert_eq!(register(&shared, &worker).0, 503);
        assert_eq!(lock(&shared).journal.buffered(), 0);
        lock(&shared).journal.set_fail_writes(false);
        lock(&shared).journal.sync();

        // Replay yields exactly the one acknowledged job: no ghost admission,
        // no ghost worker.
        drop(shared);
        let (_, replayed, corrupt) = recover(&dir);
        assert_eq!(corrupt, 0);
        let ids: Vec<u64> = replayed.fold.jobs.iter().map(|j| j.id).collect();
        assert_eq!(ids, [1]);
        assert_eq!(replayed.fold.jobs[0].outcome, FleetOutcome::Pending);
        assert!(replayed.workers.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
