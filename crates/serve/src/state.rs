//! Shared service state: the job table, admission control and the fair-share
//! ready queue.
//!
//! Everything the acceptor threads and the scheduler thread agree on lives
//! behind one mutex in [`Shared`]; two condvars fan out wake-ups — one for
//! the scheduler (new work, cancels, drain), one for event watchers
//! (progress lines to stream). The durability journal also lives inside
//! [`State`], so admitting a job and journaling the admission are one
//! atomic step: there is no window where a client holds a 202 for a job the
//! journal does not know about.
//!
//! A job leaves the pool for good through [`Shared::settle`] and is parked
//! resumable through [`Shared::park`]: each sets the state, appends the one
//! journal record and pushes the one event, as the transition table in
//! `docs/SERVING.md` ("Lifecycle transitions") lays out.
//!
//! Scheduling is CFS-flavoured fair share: each job carries a virtual
//! runtime charged `slice_steps / weight` per slice, the ready job with the
//! smallest vruntime runs next, and a newly admitted job starts at the
//! current virtual clock (the minimum vruntime over live jobs) — so a fresh
//! interactive job outranks a long-running batch job at the very next slice
//! boundary, bounding its queue wait to one slice.
//!
//! Locking is poison-recovering throughout: [`Shared::lock_state`] and the
//! condvar wait helpers take the inner guard out of a poisoned mutex instead
//! of propagating the panic, so one crashed connection handler degrades that
//! connection only — the job table is made of plain values that are valid at
//! every instruction boundary, never of half-applied multi-step invariants.

use crate::journal::{JobEvent, ReplayOutcome, ReplayedJob};
use crate::json::Json;
use crate::spec::{JobSpec, JobState};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;
use swlb_io::Wal;
use swlb_obs::{Recorder, SwlbError};

/// One job's full service-side record.
#[derive(Debug)]
pub struct JobRecord {
    /// Service-assigned id (unique, increasing; gaps possible after crash
    /// recovery drops a corrupt admission record).
    pub id: u64,
    /// The submission.
    pub spec: JobSpec,
    /// Lifecycle state.
    pub state: JobState,
    /// Fair-share virtual runtime (steps / weight).
    pub vruntime: f64,
    /// Admission order (FIFO tie-break).
    pub seq: u64,
    /// Global slice counter value at admission.
    pub submit_slice: u64,
    /// Global slice counter value when the first slice started.
    pub first_run_slice: Option<u64>,
    /// Completed solver steps.
    pub steps_done: u64,
    /// Rollback-restarts consumed.
    pub restarts: u32,
    /// Times this job was sliced off the pool (checkpoint written).
    pub preemptions: u64,
    /// Times this job was rebuilt from its checkpoint.
    pub resumes: u64,
    /// Times this job rolled back after a fault.
    pub rollbacks: u64,
    /// Whether the chaos fault (if configured) has fired already.
    pub chaos_fired: bool,
    /// Client asked for cancellation; honoured at the next slice boundary.
    pub cancel_requested: bool,
    /// Admitted via a fleet push but its migrated checkpoint has not landed
    /// yet: the scheduler must not start it (it would rebuild from step 0
    /// and race the seed). Cleared once the checkpoint bytes are installed.
    pub held: bool,
    /// Fleet controller asked for a migration handoff: at the next slice
    /// boundary the scheduler checkpoints the job and parks it
    /// `Checkpointed` so the handoff handler can ship the bytes.
    pub handoff_requested: bool,
    /// Accumulated wall-clock seconds actually computing.
    pub run_s: f64,
    /// Kernel class that served the job's latest slice.
    pub kernel: Option<&'static str>,
    /// Terminal error message, if the job failed.
    pub error: Option<String>,
    /// Per-job observability recorder (JSONL sink attached at admission).
    pub recorder: Recorder,
    /// Serialized JSONL event lines, appended in order.
    pub events: Vec<String>,
    /// Job was rebuilt from the journal after a restart.
    pub recovered: bool,
}

impl JobRecord {
    /// Queue wait measured in slices (admission → first slice).
    pub fn wait_slices(&self) -> Option<u64> {
        self.first_run_slice
            .map(|f| f.saturating_sub(self.submit_slice + 1))
    }

    /// The status object served by `GET /v1/jobs/<id>` and embedded in
    /// terminal events.
    pub fn status_json(&self) -> Json {
        let mlups = if self.run_s > 0.0 {
            let cells = self.spec.case.dims().cells() as f64;
            cells * self.steps_done as f64 / self.run_s / 1e6
        } else {
            0.0
        };
        Json::obj([
            ("id", Json::num(self.id as f64)),
            ("name", Json::str(self.spec.name.clone())),
            ("state", Json::str(self.state.name())),
            ("priority", Json::str(self.spec.priority.name())),
            ("tenant", Json::str(self.spec.tenant.clone())),
            ("steps", Json::num(self.spec.steps as f64)),
            ("steps_done", Json::num(self.steps_done as f64)),
            (
                "wait_slices",
                self.wait_slices()
                    .map_or(Json::Null, |w| Json::num(w as f64)),
            ),
            ("preemptions", Json::num(self.preemptions as f64)),
            ("resumes", Json::num(self.resumes as f64)),
            ("rollbacks", Json::num(self.rollbacks as f64)),
            ("width", Json::num(self.spec.width as f64)),
            ("restarts", Json::num(self.restarts as f64)),
            ("recovered", Json::Bool(self.recovered)),
            ("mlups", Json::num(mlups)),
            ("kernel", self.kernel.map_or(Json::Null, Json::str)),
            (
                "deadline_ms",
                self.spec
                    .deadline_ms
                    .map_or(Json::Null, |d| Json::num(d as f64)),
            ),
            ("error", self.error.as_deref().map_or(Json::Null, Json::str)),
        ])
    }
}

/// A blank record for `id`/`seq` in the given spec — shared by admission and
/// journal-replay restore so the two paths cannot drift.
fn blank_record(
    id: u64,
    seq: u64,
    spec: JobSpec,
    submit_slice: u64,
    recorder: Recorder,
) -> JobRecord {
    JobRecord {
        id,
        spec,
        state: JobState::Queued,
        vruntime: 0.0,
        seq,
        submit_slice,
        first_run_slice: None,
        steps_done: 0,
        restarts: 0,
        preemptions: 0,
        resumes: 0,
        rollbacks: 0,
        chaos_fired: false,
        cancel_requested: false,
        held: false,
        handoff_requested: false,
        run_s: 0.0,
        kernel: None,
        error: None,
        recorder,
        events: Vec::new(),
        recovered: false,
    }
}

/// The mutex-guarded service state.
#[derive(Debug)]
pub struct State {
    /// All jobs ever admitted, kept sorted by `id`.
    pub jobs: Vec<JobRecord>,
    /// Live-job bound for admission control.
    pub capacity: usize,
    /// The id the next admission will receive.
    pub next_id: u64,
    /// Monotone admission counter.
    pub next_seq: u64,
    /// Global slice counter (incremented when a slice starts).
    pub slice_seq: u64,
    /// Graceful drain requested: stop scheduling, checkpoint everything.
    pub draining: bool,
    /// Drain finished: every job is terminal.
    pub drained: bool,
    /// Hard stop: scheduler and acceptor exit.
    pub stopping: bool,
    /// Submissions bounced by admission control.
    pub rejected: u64,
    /// Jobs settled since start-up (see [`Shared::settle`]); the worker's
    /// wake notifier posts whenever this has moved.
    pub terminals: u64,
    /// Where that notifier knocks: the peer of the latest fleet push paired
    /// with the `notify_port` it named. Not journaled — the next push
    /// re-teaches it.
    pub notify: Option<SocketAddr>,
    /// The write-ahead lifecycle journal. Living behind the same mutex as
    /// the job table makes admit+journal one atomic step.
    pub journal: Wal<JobEvent>,
}

impl State {
    /// Live (non-terminal) job count — the quantity admission bounds.
    pub fn live_count(&self) -> usize {
        self.jobs.iter().filter(|j| j.state.is_live()).count()
    }

    /// Jobs waiting for a slice (queued or preempted).
    pub fn queue_depth(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| matches!(j.state, JobState::Queued | JobState::Preempted))
            .count()
    }

    /// Queue depth restricted to one scheduling class — the per-priority
    /// breakdown `/v1/stats` reports so fleet placement can see class skew.
    pub fn queue_depth_for(&self, priority: crate::spec::Priority) -> usize {
        self.jobs
            .iter()
            .filter(|j| {
                matches!(j.state, JobState::Queued | JobState::Preempted)
                    && j.spec.priority == priority
            })
            .count()
    }

    /// Per-tenant `(running, queued)` counts over live jobs, sorted by
    /// tenant name. Queued here means waiting for a slice (queued or
    /// preempted), mirroring [`State::queue_depth`].
    pub fn tenant_counts(&self) -> Vec<(String, usize, usize)> {
        let mut out: Vec<(String, usize, usize)> = Vec::new();
        for j in &self.jobs {
            if !j.state.is_live() {
                continue;
            }
            let slot = match out.iter_mut().find(|(t, _, _)| *t == j.spec.tenant) {
                Some(s) => s,
                None => {
                    out.push((j.spec.tenant.clone(), 0, 0));
                    out.last_mut().unwrap()
                }
            };
            match j.state {
                JobState::Running => slot.1 += 1,
                JobState::Queued | JobState::Preempted => slot.2 += 1,
                _ => {}
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The virtual clock: minimum vruntime over live jobs, or 0 with none.
    /// New admissions start here so they never owe historical runtime.
    pub fn vclock(&self) -> f64 {
        let m = self
            .jobs
            .iter()
            .filter(|j| j.state.is_live())
            .map(|j| j.vruntime)
            .fold(f64::INFINITY, f64::min);
        if m.is_finite() {
            m
        } else {
            0.0
        }
    }

    /// Pick the next job to run: smallest vruntime among ready jobs, ties
    /// broken by higher weight (interactive first), then admission order.
    /// Returns the index into `jobs`.
    pub fn pick_ready(&self) -> Option<usize> {
        self.jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| {
                matches!(j.state, JobState::Queued | JobState::Preempted) && !j.held
            })
            .min_by(|(_, a), (_, b)| {
                a.vruntime
                    .partial_cmp(&b.vruntime)
                    .unwrap()
                    .then(b.spec.priority.weight().cmp(&a.spec.priority.weight()))
                    .then(a.seq.cmp(&b.seq))
            })
            .map(|(i, _)| i)
    }

    /// Would `candidate_idx`'s record beat the currently running job `cur_idx`
    /// at this boundary? Strict vruntime comparison: equal shares keep the
    /// running job on the pool (avoids checkpoint thrash).
    pub fn should_preempt(&self, cur_idx: usize) -> bool {
        match self.pick_ready() {
            Some(i) => self.jobs[i].vruntime < self.jobs[cur_idx].vruntime,
            None => false,
        }
    }

    /// Admit a job, journaling the admission durably *before* the record
    /// enters the table; bounce with [`SwlbError::Rejected`] at capacity, or
    /// [`SwlbError::Unavailable`] while the journal cannot persist records.
    pub fn admit(&mut self, spec: JobSpec, recorder: Recorder) -> Result<u64, SwlbError> {
        if self.draining || self.stopping {
            return Err(SwlbError::Rejected {
                capacity: self.capacity,
            });
        }
        if self.journal.degraded() {
            return Err(SwlbError::Unavailable(
                "job journal cannot persist records; admission paused".into(),
            ));
        }
        if self.live_count() >= self.capacity {
            self.rejected += 1;
            return Err(SwlbError::Rejected {
                capacity: self.capacity,
            });
        }
        let id = self.next_id;
        let seq = self.next_seq;
        // Write-ahead: the admission record must be durable before the job
        // exists (and before the caller's 202). If the disk refuses, the job
        // is never admitted — nothing to roll back.
        let admitted = JobEvent::Admitted {
            id,
            seq,
            spec: spec.clone(),
        };
        if !self.journal.append(&admitted) {
            // The client gets a refusal, so the unwritten record must not
            // stay buffered: it would replay as a never-acknowledged job.
            self.journal.retract_last(&admitted);
            return Err(SwlbError::Unavailable(
                "job journal write failed; admission paused".into(),
            ));
        }
        self.next_id += 1;
        self.next_seq += 1;
        let vruntime = self.vclock();
        let mut rec = blank_record(id, seq, spec, self.slice_seq, recorder);
        rec.vruntime = vruntime;
        self.jobs.push(rec);
        Ok(id)
    }

    /// Restore one replayed job after a crash, preserving its original id
    /// and arrival order. Returns `false` if the id already exists
    /// (duplicate replay — ignored, exactly-once).
    pub fn restore(&mut self, job: ReplayedJob, recorder: Recorder) -> bool {
        let pos = match self.jobs.binary_search_by_key(&job.id, |j| j.id) {
            Ok(_) => return false,
            Err(p) => p,
        };
        self.next_id = self.next_id.max(job.id + 1);
        self.next_seq = self.next_seq.max(job.seq + 1);
        let steps_total = job.spec.steps;
        let mut rec = blank_record(job.id, job.seq, job.spec, self.slice_seq, recorder);
        rec.recovered = true;
        match job.outcome {
            ReplayOutcome::Queued => {}
            ReplayOutcome::Resumable { last_step } => {
                // Re-queued; the scheduler's build_or_resume rebinds to the
                // latest *valid* on-disk checkpoint (which may be a
                // generation older than this journaled step).
                rec.steps_done = last_step;
            }
            ReplayOutcome::Completed => {
                rec.state = JobState::Completed;
                rec.steps_done = steps_total;
            }
            ReplayOutcome::Cancelled => rec.state = JobState::Cancelled,
            ReplayOutcome::Faulted(e) => {
                rec.state = JobState::Failed;
                rec.error = Some(e);
            }
        }
        self.jobs.insert(pos, rec);
        true
    }

    /// Index of a job record by id (the table is sorted by id).
    pub fn idx_of(&self, id: u64) -> Option<usize> {
        self.jobs.binary_search_by_key(&id, |j| j.id).ok()
    }

    /// Job record by id.
    pub fn job(&self, id: u64) -> Option<&JobRecord> {
        self.idx_of(id).map(|i| &self.jobs[i])
    }

    /// Mutable job record by id.
    pub fn job_mut(&mut self, id: u64) -> Option<&mut JobRecord> {
        match self.idx_of(id) {
            Some(i) => self.jobs.get_mut(i),
            None => None,
        }
    }
}

/// How a job ends: the argument of [`Shared::settle`].
#[derive(Debug)]
pub enum Exit {
    /// Every step ran; `outputs` lists the artifacts written, if writing
    /// them succeeded.
    Completed {
        /// Paths of the written artifacts.
        outputs: Option<Vec<String>>,
    },
    /// Withdrawn before the end; `error` says why when no one asked for it.
    Cancelled {
        /// Why the service cancelled the job itself.
        error: Option<String>,
    },
    /// Faulted beyond recovery.
    Failed(String),
}

/// The shared handle every service thread holds.
pub struct Shared {
    /// The guarded state.
    pub state: Mutex<State>,
    /// Wakes the scheduler (new job, cancel, drain, stop).
    pub sched_wake: Condvar,
    /// Wakes event-stream watchers and drain waiters.
    pub event_wake: Condvar,
    /// Times a poisoned state mutex was recovered (a handler panicked while
    /// holding the lock and the next taker carried on). Surfaced in
    /// `/v1/stats` so operators see panics that the process absorbed.
    pub lock_recoveries: AtomicU64,
}

impl Shared {
    /// Fresh state with the given admission capacity (journal disabled until
    /// the server installs one).
    pub fn new(capacity: usize) -> Self {
        Shared {
            state: Mutex::new(State {
                jobs: Vec::new(),
                capacity,
                next_id: 1,
                next_seq: 0,
                slice_seq: 0,
                draining: false,
                drained: false,
                stopping: false,
                rejected: 0,
                terminals: 0,
                notify: None,
                journal: Wal::disabled(),
            }),
            sched_wake: Condvar::new(),
            event_wake: Condvar::new(),
            lock_recoveries: AtomicU64::new(0),
        }
    }

    /// Lock the state, recovering from poison: a connection handler that
    /// panicked while holding the lock must cost one connection, not the
    /// process. Safe because `State` is plain data — every field is valid at
    /// every instruction boundary; there are no multi-field invariants a
    /// panic can leave half-applied mid-critical-section that later code
    /// cannot tolerate.
    pub fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|poisoned| {
            self.lock_recoveries.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        })
    }

    /// Scheduler wait, poison-recovering like [`Shared::lock_state`].
    pub fn wait_sched<'a>(&self, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.sched_wake.wait(guard).unwrap_or_else(|poisoned| {
            self.lock_recoveries.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        })
    }

    /// Bounded event wait, poison-recovering like [`Shared::lock_state`].
    pub fn wait_event_timeout<'a>(
        &self,
        guard: MutexGuard<'a, State>,
        dur: Duration,
    ) -> MutexGuard<'a, State> {
        match self.event_wake.wait_timeout(guard, dur) {
            Ok((g, _)) => g,
            Err(poisoned) => {
                self.lock_recoveries.fetch_add(1, Ordering::Relaxed);
                poisoned.into_inner().0
            }
        }
    }

    /// End job `id`: set its state (and error), journal its one terminal
    /// record, count it in `terminals` for the fleet's wake and push its one
    /// terminal event. A finished job writes its final metrics line and lets
    /// go of its recorder (sink, buffer and the open `metrics.jsonl`
    /// descriptor) — terminal jobs are history and never record again, as
    /// after crash recovery.
    pub fn settle(&self, st: &mut State, id: u64, exit: Exit) {
        let Some(job) = st.job_mut(id) else { return };
        let (record, event, extra) = match exit {
            Exit::Completed { outputs } => {
                job.state = JobState::Completed;
                let mut extra = vec![("status", job.status_json())];
                if let Some(files) = outputs {
                    extra.push((
                        "outputs",
                        Json::Arr(files.into_iter().map(Json::str).collect()),
                    ));
                }
                (JobEvent::Completed { id }, "completed", extra)
            }
            Exit::Cancelled { error } => {
                job.state = JobState::Cancelled;
                let extra = error
                    .iter()
                    .map(|e| ("error", Json::str(e.clone())))
                    .collect();
                job.error = error;
                (JobEvent::Cancelled { id }, "cancelled", extra)
            }
            Exit::Failed(error) => {
                job.state = JobState::Failed;
                job.error = Some(error.clone());
                let extra = vec![("error", Json::str(error.clone()))];
                (JobEvent::Faulted { id, error }, "failed", extra)
            }
        };
        let recorder = std::mem::replace(&mut job.recorder, Recorder::disabled());
        let step = job.steps_done;
        st.journal.append(&record);
        recorder.flush(step);
        st.terminals += 1;
        self.push_event(st, id, event, extra);
    }

    /// Park job `id` `Checkpointed` at `step`, resumable here or wherever its
    /// checkpoint lands: journal `Drained { step }` and push `event`
    /// (`handed_off` or `checkpointed`) with `at_step`. A park keeps the
    /// recorder and is not a terminal for the fleet, so it sends no wake.
    pub fn park(&self, st: &mut State, id: u64, step: u64, event: &str) {
        let Some(job) = st.job_mut(id) else { return };
        job.state = JobState::Checkpointed;
        job.handoff_requested = false;
        job.recorder.flush(job.steps_done);
        st.journal.append(&JobEvent::Drained { id, step });
        self.push_event(st, id, event, vec![("at_step", Json::num(step as f64))]);
    }

    /// Append a serialized event line to a job and wake watchers. `extra`
    /// fields are appended after the standard `event`/`id`/`step` triple.
    pub fn push_event(
        &self,
        st: &mut State,
        id: u64,
        event: &str,
        extra: Vec<(&'static str, Json)>,
    ) {
        let Some(job) = st.job_mut(id) else { return };
        let mut fields = vec![
            ("event", Json::str(event)),
            ("id", Json::num(id as f64)),
            ("step", Json::num(job.steps_done as f64)),
        ];
        fields.extend(extra);
        let line = Json::obj(fields).to_text();
        job.events.push(line);
        self.event_wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{OutputKind, Priority};
    use swlb_sim::cases::{CaseKind, CaseSpec, LatticeKind};

    fn spec(priority: Priority) -> JobSpec {
        JobSpec {
            name: "j".into(),
            case: CaseSpec {
                case: CaseKind::Cavity,
                lattice: LatticeKind::D2Q9,
                nx: 8,
                ny: 8,
                nz: 1,
                tau: 0.8,
                u_lattice: 0.05,
                storage: swlb_core::layout::StorageScheme::Ab,
                time_block: 1,
            },
            steps: 100,
            priority,
            deadline_ms: None,
            outputs: vec![OutputKind::Ppm],
            chaos_nan_at_step: None,
            width: 1,
            tenant: crate::spec::DEFAULT_TENANT.to_string(),
        }
    }

    #[test]
    fn admission_bounces_at_capacity() {
        let shared = Shared::new(2);
        let mut st = shared.lock_state();
        st.admit(spec(Priority::Batch), Recorder::disabled())
            .unwrap();
        st.admit(spec(Priority::Batch), Recorder::disabled())
            .unwrap();
        match st.admit(spec(Priority::Batch), Recorder::disabled()) {
            Err(SwlbError::Rejected { capacity: 2 }) => {}
            other => panic!("expected Rejected, got {other:?}"),
        }
        assert_eq!(st.rejected, 1);
        // A terminal job frees a slot.
        st.jobs[0].state = JobState::Completed;
        assert!(st
            .admit(spec(Priority::Batch), Recorder::disabled())
            .is_ok());
    }

    #[test]
    fn fresh_interactive_job_wins_next_slice() {
        let shared = Shared::new(8);
        let mut st = shared.lock_state();
        let batch = st
            .admit(spec(Priority::Batch), Recorder::disabled())
            .unwrap();
        // The batch job has been running a while: charged runtime.
        st.job_mut(batch).unwrap().vruntime = 48.0;
        let short = st
            .admit(spec(Priority::Interactive), Recorder::disabled())
            .unwrap();
        // New arrival starts at the vclock (48.0 is the only live vruntime).
        assert_eq!(st.job(short).unwrap().vruntime, 48.0);
        // Equal vruntime: interactive weight breaks the tie.
        assert_eq!(st.pick_ready(), st.idx_of(short));
        // After the batch job is charged one more slice, preemption triggers.
        st.job_mut(batch).unwrap().vruntime = 64.0;
        assert!(st.should_preempt(st.idx_of(batch).unwrap()));
    }

    #[test]
    fn wait_accounting_counts_slices_between_submit_and_first_run() {
        let shared = Shared::new(8);
        let mut st = shared.lock_state();
        let id = st
            .admit(spec(Priority::Interactive), Recorder::disabled())
            .unwrap();
        assert_eq!(st.job(id).unwrap().wait_slices(), None);
        // One slice of someone else starts, then ours.
        st.slice_seq += 1;
        st.slice_seq += 1;
        st.job_mut(id).unwrap().first_run_slice = Some(2);
        assert_eq!(st.job(id).unwrap().wait_slices(), Some(1));
    }

    #[test]
    fn events_append_and_carry_standard_fields() {
        let shared = Shared::new(2);
        let mut st = shared.lock_state();
        let id = st
            .admit(spec(Priority::Batch), Recorder::disabled())
            .unwrap();
        shared.push_event(&mut st, id, "queued", vec![]);
        shared.push_event(&mut st, id, "started", vec![("slice", Json::num(1.0))]);
        let ev = &st.job(id).unwrap().events;
        assert_eq!(ev.len(), 2);
        let parsed = crate::json::parse(&ev[1]).unwrap();
        assert_eq!(parsed.get("event").and_then(Json::as_str), Some("started"));
        assert_eq!(parsed.get("id").and_then(Json::as_u64), Some(id));
        assert_eq!(parsed.get("slice").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn settle_counts_a_terminal_and_park_does_not() {
        let shared = Shared::new(4);
        let mut st = shared.lock_state();
        let failed = st
            .admit(spec(Priority::Batch), Recorder::disabled())
            .unwrap();
        let parked = st
            .admit(spec(Priority::Batch), Recorder::disabled())
            .unwrap();
        shared.settle(&mut st, failed, Exit::Failed("boom".into()));
        shared.park(&mut st, parked, 5, "checkpointed");
        assert_eq!(st.terminals, 1);
        let last = |id| crate::json::parse(st.job(id).unwrap().events.last().unwrap()).unwrap();
        let (f, p) = (last(failed), last(parked));
        assert_eq!(f.get("event").and_then(Json::as_str), Some("failed"));
        assert_eq!(f.get("error").and_then(Json::as_str), Some("boom"));
        assert_eq!(p.get("event").and_then(Json::as_str), Some("checkpointed"));
        assert_eq!(p.get("at_step").and_then(Json::as_u64), Some(5));
        assert_eq!(st.job(failed).unwrap().state, JobState::Failed);
        assert_eq!(st.job(failed).unwrap().error.as_deref(), Some("boom"));
        assert_eq!(st.job(parked).unwrap().state, JobState::Checkpointed);
    }

    #[test]
    fn restore_preserves_ids_and_tolerates_gaps() {
        let shared = Shared::new(8);
        let mut st = shared.lock_state();
        // Replay with an id gap (id 2's admission record was corrupt).
        assert!(st.restore(
            ReplayedJob {
                id: 3,
                seq: 2,
                spec: spec(Priority::Batch),
                outcome: ReplayOutcome::Resumable { last_step: 50 },
            },
            Recorder::disabled(),
        ));
        assert!(st.restore(
            ReplayedJob {
                id: 1,
                seq: 0,
                spec: spec(Priority::Batch),
                outcome: ReplayOutcome::Completed,
            },
            Recorder::disabled(),
        ));
        // Duplicate replay of an existing id is ignored (exactly-once).
        assert!(!st.restore(
            ReplayedJob {
                id: 1,
                seq: 0,
                spec: spec(Priority::Batch),
                outcome: ReplayOutcome::Queued,
            },
            Recorder::disabled(),
        ));
        // Table is sorted by id, id-keyed lookup works across the gap.
        assert_eq!(st.jobs.len(), 2);
        assert_eq!(st.jobs[0].id, 1);
        assert_eq!(st.jobs[1].id, 3);
        assert!(st.job(2).is_none());
        assert_eq!(st.job(3).unwrap().steps_done, 50);
        assert_eq!(st.job(3).unwrap().state, JobState::Queued);
        assert!(st.job(3).unwrap().recovered);
        assert_eq!(st.job(1).unwrap().state, JobState::Completed);
        // The next fresh admission continues past the replayed ids.
        let id = st
            .admit(spec(Priority::Batch), Recorder::disabled())
            .unwrap();
        assert_eq!(id, 4);
        assert_eq!(st.job(4).unwrap().seq, 3);
    }

    #[test]
    fn held_jobs_are_invisible_to_the_scheduler() {
        let shared = Shared::new(4);
        let mut st = shared.lock_state();
        let id = st
            .admit(spec(Priority::Batch), Recorder::disabled())
            .unwrap();
        st.job_mut(id).unwrap().held = true;
        // Held jobs count toward live/queue accounting but never get picked.
        assert_eq!(st.queue_depth(), 1);
        assert_eq!(st.pick_ready(), None);
        st.job_mut(id).unwrap().held = false;
        assert_eq!(st.pick_ready(), st.idx_of(id));
    }

    #[test]
    fn priority_and_tenant_breakdowns() {
        let shared = Shared::new(8);
        let mut st = shared.lock_state();
        let b1 = st
            .admit(spec(Priority::Batch), Recorder::disabled())
            .unwrap();
        let mut tenant_spec = spec(Priority::Interactive);
        tenant_spec.tenant = "acme".into();
        let i1 = st.admit(tenant_spec, Recorder::disabled()).unwrap();
        st.admit(spec(Priority::Interactive), Recorder::disabled())
            .unwrap();
        st.job_mut(b1).unwrap().state = JobState::Running;
        st.job_mut(i1).unwrap().state = JobState::Preempted;
        assert_eq!(st.queue_depth_for(Priority::Batch), 0);
        assert_eq!(st.queue_depth_for(Priority::Interactive), 2);
        let tenants = st.tenant_counts();
        assert_eq!(
            tenants,
            vec![
                ("acme".to_string(), 0, 1),
                ("default".to_string(), 1, 1),
            ]
        );
    }

    #[test]
    fn poisoned_state_lock_recovers() {
        use std::sync::Arc;
        let shared = Arc::new(Shared::new(2));
        let s2 = shared.clone();
        let _ = std::thread::spawn(move || {
            let _g = s2.lock_state();
            panic!("injected panic while holding the state lock");
        })
        .join();
        // The next taker recovers the guard instead of propagating.
        let mut st = shared.lock_state();
        assert_eq!(shared.lock_recoveries.load(Ordering::Relaxed), 1);
        assert!(st
            .admit(spec(Priority::Batch), Recorder::disabled())
            .is_ok());
    }

    #[test]
    fn admission_refuses_while_journal_degraded() {
        let dir = std::env::temp_dir().join(format!("swlb-state-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let shared = Shared::new(4);
        let mut st = shared.lock_state();
        st.journal =
            Wal::recover::<crate::journal::JobTable>(&dir, 16, Recorder::disabled(), "journal")
                .unwrap()
                .0;
        st.admit(spec(Priority::Batch), Recorder::disabled())
            .unwrap();
        st.journal.set_fail_writes(true);
        match st.admit(spec(Priority::Batch), Recorder::disabled()) {
            Err(SwlbError::Unavailable(_)) => {}
            other => panic!("expected Unavailable, got {other:?}"),
        }
        // The refused admission left no trace: no job, no id consumed.
        assert_eq!(st.jobs.len(), 1);
        assert_eq!(st.next_id, 2);
        st.journal.set_fail_writes(false);
        assert!(st
            .admit(spec(Priority::Batch), Recorder::disabled())
            .is_ok());
        drop(st);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
