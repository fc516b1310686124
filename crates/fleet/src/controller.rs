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
//! POST /v1/fleet/wake         stateless "something changed, reconcile now"
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
//! One tick thread drives the data plane. It waits on a condvar until the
//! next `heartbeat` is due *or* it is woken, and runs one of two passes of the
//! same `tick` body:
//!
//! * a **beat** (the heartbeat elapsed) runs all five phases below and is the
//!   only thing that advances the tick counter, probes, reaps, ages pending
//!   jobs or rebalances — liveness back-off, `max_missed`, priority aging and
//!   quotas keep the heartbeat as their clock;
//! * a **reconcile** (woken early) runs only sync → orphan rescue → place —
//!   at once when the last pass left nothing queued, else half a heartbeat
//!   after that pass began: a queued job is not waiting for *this* terminal,
//!   so a saturated pool's wakes coalesce into one round per interval and the
//!   queue drains on the clock instead of at the host's momentary speed.
//!
//! Two things raise the wake: an admission (after its durable journal
//! append) and `POST /v1/fleet/wake`, which a worker posts when one of its
//! jobs turns terminal (it learns the port from `?notify_port=` on every
//! push and pairs it with the push connection's peer IP). The wake carries no
//! state: the reconcile re-reads the worker's table and `FleetState::settle`
//! journals each terminal exactly once, so a lost, duplicated, forged or late
//! wake costs at most one idle sync or one heartbeat of delay.
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
//! 3. **Sync** — ask each live worker that has jobs placed on it for exactly
//!    those jobs; progress updates step counts, worker-side terminals become
//!    journaled fleet terminals.
//! 4. **Place** — [`policy::pick_next`] chooses among pending jobs under
//!    tenant quotas and priority aging; the job is pushed (empty checkpoint)
//!    to the least-loaded worker with room.
//! 5. **Rebalance** — when the pool is imbalanced by ≥ 2 jobs and nothing is
//!    pending, one job is migrated from the most- to the least-loaded worker
//!    through the handoff/push pair: the source parks it at a slice boundary
//!    and ships spec + checkpoint bytes; the destination resumes it on its
//!    own pool, bit-exact through the partition-independent chunked format.

use std::net::{TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use swlb_comm::frame::{frame_to_bytes, seal_frame, FRAME_HEADER};
use swlb_io::{CheckpointStore, Wal};
use swlb_obs::{Counter, Recorder, SwlbError};
use swlb_serve::http::{self, Listener, Request};
use swlb_serve::{json, JobSpec, Json, Priority, PushEnvelope};

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
            ("width", Json::num(self.spec.width as f64)),
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
    /// Beats so far — the clock of probe back-off and priority aging.
    tick: u64,
    migrations: u64,
    /// Wake requests so far (admissions and `/v1/fleet/wake`); the ticker
    /// reconciles whenever this has moved since its last pass.
    wakes: u64,
    beats: u64,
    reconciles: u64,
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
            wakes: 0,
            beats: 0,
            reconciles: 0,
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
    shared: Arc<Shared>,
    listener: Listener,
    ticker: Option<JoinHandle<()>>,
}

/// The state mutex and the condvar the ticker waits on between passes.
struct Shared {
    state: Mutex<FleetState>,
    ticker_wake: Condvar,
    /// `fleet.wakes`, mirroring `FleetState::wakes`.
    wakes: Counter,
}

impl Shared {
    fn new(state: FleetState, recorder: &Recorder) -> Arc<Shared> {
        Arc::new(Shared {
            state: Mutex::new(state),
            ticker_wake: Condvar::new(),
            wakes: recorder.counter("fleet.wakes"),
        })
    }

    /// Ask the ticker for a reconcile pass now instead of at the next beat.
    fn wake(&self) {
        lock(self).wakes += 1;
        self.wakes.inc();
        self.ticker_wake.notify_one();
    }
}

fn lock(shared: &Shared) -> MutexGuard<'_, FleetState> {
    shared.state.lock().unwrap_or_else(|p| p.into_inner())
}

/// The ticker between passes: sleep until the next beat is due (`true`), or
/// `wakes` has moved past `seen` and `hold` — the spacing of reconciles while
/// jobs are queued, see the module docs — is over (`false`); `None` once the
/// controller stops.
fn next_pass(shared: &Shared, next_beat: Instant, hold: Instant, seen: &mut u64) -> Option<bool> {
    let mut st = lock(shared);
    let beat = loop {
        if st.stopping {
            return None;
        }
        let now = Instant::now();
        let due = if st.wakes != *seen { hold.min(next_beat) } else { next_beat };
        if due <= now {
            break next_beat <= now;
        }
        let woken = shared.ticker_wake.wait_timeout(st, due - now);
        st = woken.unwrap_or_else(|p| p.into_inner()).0;
    };
    // A beat does everything a reconcile does, so either pass answers every
    // wake raised so far; one raised from here on gets a pass of its own.
    *seen = st.wakes;
    Some(beat)
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
        let shared = Shared::new(FleetState::restore(journal, replayed), &cfg.recorder);

        let tick_cfg = TickCfg {
            notify_port: listener.addr().port(),
            max_missed: cfg.max_missed,
            per_worker_cap: cfg.per_worker_cap,
            policy: cfg.policy.clone(),
            rebalance: cfg.rebalance,
            io_timeout: cfg.io_timeout,
            recorder: cfg.recorder.clone(),
        };
        let ticker = {
            let shared = shared.clone();
            let period = cfg.heartbeat;
            std::thread::spawn(move || {
                let (mut next_beat, mut seen) = (Instant::now(), 0);
                let mut hold = next_beat;
                while let Some(beat) = next_pass(&shared, next_beat, hold, &mut seen) {
                    // Start to start: no cadence stretches with a pass's work.
                    let started = Instant::now();
                    let queued = tick(&shared, &tick_cfg, beat);
                    hold = started + if queued { period / 2 } else { Duration::ZERO };
                    if beat {
                        next_beat = (next_beat + period).max(Instant::now());
                    }
                }
            })
        };

        let (conn_shared, io_timeout) = (shared.clone(), cfg.io_timeout);
        listener.start(io_timeout, move |stream| {
            handle_connection(stream, &conn_shared, io_timeout)
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
        self.shared.ticker_wake.notify_one();
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
    /// This controller's own port: every push names it so the worker knows
    /// where to post its terminal wakes.
    notify_port: u16,
    max_missed: u32,
    per_worker_cap: usize,
    policy: PolicyConfig,
    rebalance: bool,
    /// [`FleetConfig::io_timeout`]: bounds every call to a worker, so one
    /// that accepts and never answers costs one deadline, not the ticker.
    io_timeout: Option<Duration>,
    recorder: Recorder,
}

/// One controller pass: a **beat** runs every phase, a wake-triggered
/// **reconcile** (`beat == false`) only sync → rescue → place, and leaves
/// everything that counts heartbeats alone; returns whether jobs stay queued.
/// Network I/O happens with the state lock released; decisions are
/// re-validated when the lock is retaken.
fn tick(shared: &Shared, cfg: &TickCfg, beat: bool) -> bool {
    if beat {
        lock(shared).beats += 1;
        cfg.recorder.counter("fleet.beats").inc();
        probe_and_reap(shared, cfg);
    } else {
        lock(shared).reconciles += 1;
        cfg.recorder.counter("fleet.reconciles").inc();
    }
    sync_and_rescue(shared, cfg);

    // ---- 4. place pending jobs under quota + aging ---------------------
    if beat {
        let mut st = lock(shared);
        for job in &mut st.jobs {
            if let Binding::Pending { wait_ticks } = &mut job.binding {
                *wait_ticks += 1;
            }
        }
    }
    let _ = (0..16).all(|_| place_once(shared, cfg, beat)); // until one does not land

    // ---- 5. rebalance --------------------------------------------------
    if beat && cfg.rebalance {
        rebalance_once(shared, cfg);
    }
    let queued = |j: &FleetJob| matches!(j.binding, Binding::Pending { .. });
    lock(shared).jobs.iter().any(queued)
}

/// Phases 1–2, beats only: the heartbeat clock advances here and nowhere else.
fn probe_and_reap(shared: &Shared, cfg: &TickCfg) {
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
        results.push((name, probe(&addr, epoch, seq, cfg)));
    }

    // ---- 2. reap: collect dead workers' jobs for replay ----------------
    let mut replays: Vec<(u64, String, u64, JobSpec)> = Vec::new(); // (id, dir, local, spec)
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
                        replays.push((job.id, dead_dir.clone(), *local, job.spec.clone()));
                    }
                }
            }
        }
    }
    // Death replay: read the newest valid checkpoint from the dead worker's
    // state directory and push it to a survivor (I/O, lock released).
    for (id, dir, local, spec) in replays {
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
                width: spec.width,
                ckpt,
            };
            push_envelope(&taddr, &env, cfg).map(|new_local| (tname, new_local, step))
        });
        let mut st = lock(shared);
        if st.job(id).is_none_or(|j| j.binding.is_terminal()) {
            continue; // settled while the replay push was in flight
        }
        if st.rebind(id, placed, true) {
            cfg.recorder.counter("fleet.migrations").inc();
        }
    }
}

/// Phase 3 and the orphan rescue it feeds, on every pass. A worker with
/// nothing placed on it is not contacted, so a wake that finds nothing placed
/// does no I/O.
fn sync_and_rescue(shared: &Shared, cfg: &TickCfg) {
    // ---- 3. sync: ask live workers about the jobs placed on them -------
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
        let on_worker = |j: &FleetJob| match &j.binding {
            Binding::Placed { worker, local, .. } if *worker == name => Some((j.id, *local)),
            _ => None,
        };
        let placed: Vec<(u64, u64)> = lock(shared).jobs.iter().filter_map(on_worker).collect();
        if placed.is_empty() {
            continue;
        }
        let ids: Vec<String> = placed.iter().map(|(_, local)| local.to_string()).collect();
        let target = format!("/v1/jobs?ids={}", ids.join(","));
        let listed = call_worker(&addr, "GET", &target, b"", http::MAX_BODY, cfg.io_timeout);
        let Some(Json::Arr(items)) = listed.and_then(|(status, body)| {
            let text = String::from_utf8(body).ok().filter(|_| status == 200)?;
            json::parse(&text).ok()
        }) else {
            continue;
        };
        let mut st = lock(shared);
        for (id, local) in placed {
            // Re-bound or settled while the request was in flight?
            if st.job(id).and_then(on_worker) != Some((id, local)) {
                continue;
            }
            let Some(item) = items
                .iter()
                .find(|v| v.get("id").and_then(Json::as_u64) == Some(local))
            else {
                continue;
            };
            let step = item.get("steps_done").and_then(Json::as_u64).unwrap_or(0);
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
                    if let Some(Binding::Placed { step: s, .. }) =
                        st.job_mut(id).map(|job| &mut job.binding)
                    {
                        *s = step;
                    }
                }
            }
        }
    }

    // Rescue orphaned handoffs: the park means the handoff endpoint returns
    // the envelope immediately; ship it to the least-loaded worker (possibly
    // the same one — a fresh push un-parks it) and release the husk.
    for (id, local, src_addr) in orphans {
        let Some(mut env) = pull_handoff(&src_addr, local, cfg) else {
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
        cancel_on_worker(&src_addr, local, cfg.io_timeout);
        let pushed = target.and_then(|t| {
            let addr = lock(shared)
                .workers
                .iter()
                .find(|w| w.name == t)
                .map(|w| w.addr.clone())?;
            push_envelope(&addr, &env, cfg).map(|new_local| (t, new_local, step))
        });
        if lock(shared).rebind(id, pushed, true) {
            cfg.recorder.counter("fleet.rescues").inc();
        }
    }
}

/// One request to a worker, bounded by `timeout` ([`FleetConfig::io_timeout`])
/// from connect to the last byte of a reply of at most `max_body` bytes.
/// Every call the controller makes to a worker goes through here.
fn call_worker(
    addr: &str,
    method: &str,
    target: &str,
    body: &[u8],
    max_body: usize,
    timeout: Option<Duration>,
) -> Option<(u16, Vec<u8>)> {
    let addr = addr.to_socket_addrs().ok()?.next()?;
    http::roundtrip_timeout(&addr, method, target, body, max_body, timeout).ok()
}

/// Cancel `local` on a worker, best effort: a refusal or a silence costs at
/// most `timeout`, and the sync pass sees what happened.
fn cancel_on_worker(addr: &str, local: u64, timeout: Option<Duration>) {
    let target = format!("/v1/jobs/{local}/cancel");
    let _ = call_worker(addr, "POST", &target, b"", http::MAX_BODY, timeout);
}

/// Send one sealed heartbeat probe; `Some(load)` on a valid echo.
fn probe(addr: &str, epoch: u64, seq: u64, cfg: &TickCfg) -> Option<WorkerLoad> {
    let mut frame = vec![0.0; FRAME_HEADER];
    seal_frame(&mut frame, epoch, seq);
    let ping = frame_to_bytes(&frame);
    let (status, body) =
        call_worker(addr, "POST", "/v1/fleet/ping", &ping, http::MAX_BODY, cfg.io_timeout)?;
    if status != 200 {
        return None;
    }
    WorkerLoad::from_echo(&body, epoch, seq)
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

/// Push an envelope to a worker; `Some(local_id)` on 202. The query names
/// this controller's port — the worker pairs it with the connection's peer IP
/// and posts its terminal wakes there; the envelope bytes do not change.
fn push_envelope(addr: &str, env: &PushEnvelope, cfg: &TickCfg) -> Option<u64> {
    let target = format!("/v1/fleet/push?notify_port={}", cfg.notify_port);
    let (status, body) =
        call_worker(addr, "POST", &target, &env.encode(), http::MAX_BODY, cfg.io_timeout)?;
    if status != 202 {
        return None;
    }
    let v = json::parse(std::str::from_utf8(&body).ok()?).ok()?;
    v.get("id").and_then(Json::as_u64)
}

/// Ask a worker to park `local` at a slice boundary and ship its envelope.
fn pull_handoff(addr: &str, local: u64, cfg: &TickCfg) -> Option<PushEnvelope> {
    let target = format!("/v1/jobs/{local}/handoff");
    let (status, body) =
        call_worker(addr, "POST", &target, b"", http::MAX_DATA_BODY, cfg.io_timeout)?;
    if status != 200 {
        return None;
    }
    PushEnvelope::decode(&body).ok()
}

/// Decide → push → apply one placement. Returns whether one happened. Only a
/// `beat` counts a refused push as a missed heartbeat.
fn place_once(shared: &Shared, cfg: &TickCfg, beat: bool) -> bool {
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
        width: spec.width,
        ckpt: Vec::new(),
        spec,
    };
    let local = push_envelope(&addr, &env, cfg);
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
            // backs off and eventually dies rather than absorbing retries —
            // at most once per beat, so wakes cannot hurry a death.
            let tick_now = st.tick;
            let max_missed = cfg.max_missed;
            if let Some(w) = st.worker_mut(&target).filter(|_| beat) {
                w.record_failure(tick_now, max_missed);
            }
            false
        }
    }
}

/// Migrate one job from the most- to the least-loaded worker when the pool
/// is imbalanced by ≥ 2: the source parks the job at a preemption boundary,
/// the chunked checkpoint travels, and the destination resumes it.
fn rebalance_once(shared: &Shared, cfg: &TickCfg) {
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
    let Some(mut env) = pull_handoff(&src_addr, local, cfg) else {
        return;
    };
    env.fleet_id = id;
    let step = env.step;
    match push_envelope(&dst_addr, &env, cfg) {
        Some(new_local) => {
            // Release the parked source-side copy so its slot frees up —
            // a leaked `checkpointed` husk would count against the source's
            // admission capacity forever. Best-effort: if the source is
            // dying anyway, the husk dies with it.
            cancel_on_worker(&src_addr, local, cfg.io_timeout);
            lock(shared).rebind(id, Some((dst_name, new_local, step)), true);
            cfg.recorder.counter("fleet.migrations").inc();
        }
        None => {
            // The destination refused: the job is already parked on the
            // source (state `checkpointed` there), so re-push the envelope
            // we hold back onto the source — the job keeps its progress and
            // the pool stays imbalanced until the next attempt. The re-push
            // admits a fresh local copy, so release the parked one first.
            cancel_on_worker(&src_addr, local, cfg.io_timeout);
            if let Some(new_local) = push_envelope(&src_addr, &env, cfg) {
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

/// `io_timeout` bounds the one call a handler makes to a worker: a relayed
/// cancel.
fn handle_connection(mut stream: TcpStream, shared: &Shared, io_timeout: Option<Duration>) {
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
            Some(id) => cancel(shared, id, io_timeout),
            None => (400, err_json("bad job id")),
        },
        ("POST", ["v1", "fleet", "register"]) => register(shared, &req),
        ("POST", ["v1", "fleet", "wake"]) => {
            shared.wake();
            (200, Json::obj([("woken", Json::Bool(true))]))
        }
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
fn submit(shared: &Shared, req: &Request) -> (u16, Json) {
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
        spec,
        binding: Binding::Pending { wait_ticks: 0 },
        migrations: 0,
    });
    drop(st);
    shared.wake(); // place it now, not at the next beat
    (202, Json::obj([("id", Json::num(id as f64))]))
}

/// Cancel: pending jobs settle immediately; placed jobs relay to the owning
/// worker and the sync pass journals the terminal when the worker confirms.
fn cancel(shared: &Shared, id: u64, io_timeout: Option<Duration>) -> (u16, Json) {
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
        cancel_on_worker(&addr, local, io_timeout);
    }
    let st = lock(shared);
    match st.job(id) {
        Some(j) => (200, j.status_json()),
        None => (404, err_json("no such job")),
    }
}

/// Worker announcement: journaled durably (the registry must survive a
/// controller crash so dead-worker recovery can find checkpoint dirs).
fn register(shared: &Shared, req: &Request) -> (u16, Json) {
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
fn drain(shared: &Shared) -> (u16, Json) {
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

fn stats(shared: &Shared) -> (u16, Json) {
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
            ("wakes", Json::num(st.wakes as f64)),
            ("reconciles", Json::num(st.reconciles as f64)),
            ("beats", Json::num(st.beats as f64)),
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

    const JOB: &str = r#"{"name":"j","case":"cavity","lattice":"d2q9","nx":8,"ny":8,"nz":1,
        "tau":0.8,"u":0.05,"steps":32,"priority":"batch","tenant":"acme"}"#;

    /// A reconcile is sync → rescue → place and nothing else: the heartbeat
    /// clock, priority aging and the liveness state machine do not move, and
    /// no probe leaves — even though the one worker refuses the placement.
    #[test]
    fn reconcile_leaves_everything_that_counts_heartbeats_alone() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let dir = std::env::temp_dir().join(format!("swlb-fleet-reconcile-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A worker stub that counts heartbeat probes and refuses everything.
        let pings = Arc::new(AtomicU64::new(0));
        let mut stub = Listener::bind("127.0.0.1:0").unwrap();
        let counted = pings.clone();
        stub.start(Some(Duration::from_secs(5)), move |mut s| {
            if let Ok(req) = http::read_request(&mut s) {
                counted.fetch_add((req.path() == "/v1/fleet/ping") as u64, Ordering::SeqCst);
                let _ = http::write_response(&mut s, 404, "application/json", b"{}");
            }
        });
        let (journal, replayed, _) = recover(&dir);
        let shared = Shared::new(FleetState::restore(journal, replayed), &Recorder::disabled());
        let worker = format!(r#"{{"name":"w0","addr":"{}","dir":"/tmp/w0"}}"#, stub.addr());
        assert_eq!(register(&shared, &post(&worker)).0, 200);
        assert_eq!(submit(&shared, &post(JOB)).0, 202);
        assert_eq!(submit(&shared, &post(JOB)).0, 202);
        let cfg = TickCfg {
            notify_port: 9,
            max_missed: 3,
            per_worker_cap: 4,
            policy: PolicyConfig::default(),
            rebalance: true,
            io_timeout: Some(Duration::from_secs(5)),
            recorder: Recorder::disabled(),
        };
        let clock = |st: &FleetState| {
            let w = &st.workers[0];
            let bindings: Vec<Binding> = st.jobs.iter().map(|j| j.binding.clone()).collect();
            (st.tick, bindings, w.seq, w.missed, w.next_probe, w.dead)
        };

        let before = clock(&lock(&shared));
        for _ in 0..3 {
            tick(&shared, &cfg, false);
        }
        let st = lock(&shared);
        assert_eq!(clock(&st), before);
        assert_eq!(pings.load(Ordering::SeqCst), 0, "a reconcile probed");
        assert_eq!((st.reconciles, st.beats), (3, 0));
        drop(st);

        // The same body as a beat moves all of it.
        tick(&shared, &cfg, true);
        let st = lock(&shared);
        assert_eq!((st.tick, st.beats, pings.load(Ordering::SeqCst)), (1, 1, 1));
        assert!(st.workers[0].seq == 1 && st.workers[0].missed >= 1);
        assert!(st
            .jobs
            .iter()
            .all(|j| j.binding == Binding::Pending { wait_ticks: 1 }));
        drop(st);
        stub.stop_accepting();
        stub.join_handlers();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A worker that accepts and never answers: the kernel completes the
    /// handshake from the listen backlog, and nothing ever reads or writes.
    fn silent_worker(shared: &Shared, name: &str) -> std::net::TcpListener {
        let hole = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = hole.local_addr().unwrap();
        let body = format!(r#"{{"name":"{name}","addr":"{addr}","dir":"/tmp/{name}"}}"#);
        assert_eq!(register(shared, &post(&body)).0, 200);
        hole
    }

    /// Admit a job and bind it to `worker` as if a push had landed there.
    fn placed_on(shared: &Shared, worker: &str) -> u64 {
        let (status, body) = submit(shared, &post(JOB));
        assert_eq!(status, 202);
        let id = body.get("id").and_then(Json::as_u64).unwrap();
        lock(shared).job_mut(id).unwrap().binding = Binding::Placed {
            worker: worker.into(),
            local: id,
            step: 0,
        };
        id
    }

    /// Run `pass` on its own thread and fail unless it ends within one second
    /// past `io_timeout`: a call with no deadline fails here, not by hanging.
    fn ends_by_the_deadline(shared: &Arc<Shared>, pass: fn(&Shared, &TickCfg)) {
        let io_timeout = Duration::from_millis(200);
        let cfg = TickCfg {
            notify_port: 9,
            max_missed: 3,
            per_worker_cap: 4,
            policy: PolicyConfig::default(),
            rebalance: true,
            io_timeout: Some(io_timeout),
            recorder: Recorder::disabled(),
        };
        let (done, ended) = std::sync::mpsc::channel();
        let shared = shared.clone();
        std::thread::spawn(move || {
            pass(&shared, &cfg);
            let _ = done.send(());
        });
        let patience = io_timeout + Duration::from_secs(1);
        assert!(ended.recv_timeout(patience).is_ok(), "the pass outlived {patience:?}");
    }

    /// The sync pass asks a silent worker for its jobs and gives up at the
    /// deadline: the ticker moves on, the job stays where it was.
    #[test]
    fn a_sync_with_a_silent_worker_ends_at_the_deadline() {
        let dir =
            std::env::temp_dir().join(format!("swlb-fleet-silent-list-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (journal, replayed, _) = recover(&dir);
        let shared = Shared::new(FleetState::restore(journal, replayed), &Recorder::disabled());
        let _hole = silent_worker(&shared, "hole");
        let id = placed_on(&shared, "hole");
        ends_by_the_deadline(&shared, sync_and_rescue);
        assert!(matches!(lock(&shared).job(id).unwrap().binding, Binding::Placed { .. }));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A rebalance pulls a job from a silent worker and gives up at the
    /// deadline, leaving the job placed where it was.
    #[test]
    fn a_handoff_pull_from_a_silent_worker_ends_at_the_deadline() {
        let dir =
            std::env::temp_dir().join(format!("swlb-fleet-silent-pull-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (journal, replayed, _) = recover(&dir);
        let shared = Shared::new(FleetState::restore(journal, replayed), &Recorder::disabled());
        let _hole = silent_worker(&shared, "hole");
        let _idle = silent_worker(&shared, "idle");
        let ids = [placed_on(&shared, "hole"), placed_on(&shared, "hole")];
        ends_by_the_deadline(&shared, rebalance_once);
        let st = lock(&shared);
        for id in ids {
            let binding = &st.job(id).unwrap().binding;
            assert!(matches!(binding, Binding::Placed { worker, .. } if worker == "hole"));
        }
        drop(st);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The ticker's wait: a wake is answered at once when no hold is set,
    /// waits out a hold that is, and never delays a beat that falls due first.
    #[test]
    fn a_wake_waits_out_the_hold_and_a_due_beat_does_not() {
        let dir = std::env::temp_dir().join(format!("swlb-fleet-hold-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (journal, replayed, _) = recover(&dir);
        let shared = Shared::new(FleetState::restore(journal, replayed), &Recorder::disabled());
        let (ms, far) = (Duration::from_millis, Duration::from_secs(60));
        let mut seen = 0;

        shared.wake();
        let t0 = Instant::now();
        assert_eq!(next_pass(&shared, t0 + far, t0, &mut seen), Some(false));
        assert!(t0.elapsed() < ms(50), "{:?}", t0.elapsed());
        assert_eq!(seen, 1);

        shared.wake();
        let t0 = Instant::now();
        assert_eq!(next_pass(&shared, t0 + far, t0 + ms(80), &mut seen), Some(false));
        assert!(t0.elapsed() >= ms(80), "{:?}", t0.elapsed());

        shared.wake();
        let t0 = Instant::now();
        assert_eq!(next_pass(&shared, t0 + ms(30), t0 + far, &mut seen), Some(true));
        assert!(t0.elapsed() >= ms(30) && t0.elapsed() < far / 2);
        assert_eq!(seen, 3, "the beat answered the wake");

        // No wake: only the beat ends the wait, whatever the hold says.
        let t0 = Instant::now();
        assert_eq!(next_pass(&shared, t0 + ms(30), t0, &mut seen), Some(true));
        assert!(t0.elapsed() >= ms(30));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Stopping raises the wake: it does not wait out the heartbeat sleep.
    #[test]
    fn shutdown_does_not_wait_for_the_next_beat() {
        let dir = std::env::temp_dir().join(format!("swlb-fleet-stop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let heartbeat = Duration::from_secs(2);
        let stops: [fn(Controller); 2] = [Controller::shutdown, |c| drop(c)];
        for stop in stops {
            let mut cfg = FleetConfig::new(&dir);
            cfg.heartbeat = heartbeat;
            let controller = Controller::spawn(cfg).unwrap();
            std::thread::sleep(Duration::from_millis(100)); // into the wait
            let t0 = Instant::now();
            stop(controller);
            assert!(t0.elapsed() < heartbeat / 2, "{:?}", t0.elapsed());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The failure-matrix row "journal disk loss / full": 503, and nothing
    /// acknowledged that cannot be replayed.
    #[test]
    fn degraded_journal_refuses_admission_and_registration_and_leaves_no_ghost() {
        let dir = std::env::temp_dir().join(format!("swlb-fleet-degraded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (journal, replayed, _) = recover(&dir);
        let shared = Shared::new(FleetState::restore(journal, replayed), &Recorder::disabled());
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
