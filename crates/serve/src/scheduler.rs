//! The cooperative fair-share scheduler.
//!
//! One scheduler thread owns the shared [`ThreadPool`] and time-slices jobs
//! over it in units of `slice_steps` solver steps. Preemption is cooperative
//! and happens only at slice boundaries: the running job's populations are
//! captured into its namespaced [`CheckpointStore`], the solver is dropped,
//! and the job re-enters the ready queue as `Preempted`; resuming rebuilds
//! the solver from the job's [`CaseSpec`](swlb_sim::cases::CaseSpec) and
//! restores the checkpoint. Faults (NaN/Inf at a slice boundary, including
//! injected chaos faults) roll the job back to its last valid checkpoint
//! under the [`RecoveryPolicy`] restart budget — a faulted job fails alone;
//! the server keeps serving.
//!
//! Every way off the pool for good goes through [`Shared::settle`], every
//! park (handoff, drain) through [`Shared::park`]; `docs/SERVING.md`
//! ("Lifecycle transitions") tables what each journals and emits.

use crate::journal::JobEvent;
use crate::json::Json;
use crate::spec::{JobState, OutputKind};
use crate::state::{Exit, Shared};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use swlb_core::parallel::ThreadPool;
use swlb_core::post::vorticity_z;
use swlb_io::{colormap_viridis_like, write_ppm, write_vtk_scalars, CheckpointStore, PpmImage};
use swlb_obs::{Recorder, SwlbError};
use swlb_sim::cases::CaseSolver;
use swlb_sim::RecoveryPolicy;

/// Scheduler knobs (a subset of `ServeConfig` the loop needs).
pub struct SchedConfig {
    /// Steps per time slice.
    pub slice_steps: u64,
    /// The shared pool every job's solver runs on.
    pub pool: ThreadPool,
    /// Parent checkpoint store; jobs get `job-<id>` namespaces.
    pub store: CheckpointStore,
    /// Directory job outputs land in (`jobs/job-<id>/...`).
    pub jobs_dir: std::path::PathBuf,
    /// Rollback-retry supervision budget.
    pub policy: RecoveryPolicy,
    /// Server-level recorder (queue depth, slice/wait histograms).
    pub recorder: Recorder,
}

/// The solver currently on the pool, with its bookkeeping.
struct Running {
    id: u64,
    solver: CaseSolver,
    /// Step at which the last checkpoint was written (u64::MAX = none yet).
    last_ckpt: u64,
}

/// What to do with the running job after a slice, decided under the lock.
enum Boundary {
    /// Keep the pool: run the next slice immediately.
    Continue,
    /// Drain or stop was requested: leave the job `Running` and return to
    /// the pick phase, which checkpoints it.
    Yield,
    Preempt,
    Complete,
    Cancel,
    /// Fleet migration handoff: checkpoint, park `Checkpointed` (journaled
    /// as a drain) and wake the handoff handler waiting to ship the bytes.
    Handoff,
    Rollback,
    Fail(String),
}

/// Run the scheduler until `stopping` is set. Call on a dedicated thread.
pub fn run(shared: Arc<Shared>, cfg: SchedConfig) {
    let obs_depth = cfg.recorder.gauge("serve.queue_depth");
    let obs_slices = cfg.recorder.counter("serve.slices");
    let obs_preempts = cfg.recorder.counter("serve.preemptions");
    let obs_wait = cfg.recorder.histogram(
        "serve.wait_slices",
        &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0],
    );
    let obs_slice_ms = cfg.recorder.histogram(
        "serve.slice_ms",
        &swlb_obs::exponential_buckets(1.0, 4.0, 8),
    );
    let mut cur: Option<Running> = None;

    loop {
        // ---- pick phase (under the lock) ------------------------------
        let picked = {
            let mut st = shared.lock_state();
            loop {
                if st.stopping {
                    if let Some(r) = cur.take() {
                        // Belt and braces: stop without drain still persists
                        // the in-flight job before dropping it.
                        let _ = checkpoint(&cfg, &r);
                    }
                    st.journal.sync();
                    return;
                }
                if st.draining {
                    drain_all(&shared, &mut st, &cfg, &mut cur);
                    // Everything is checkpointed; sleep until `stopping`.
                    st = shared.wait_sched(st);
                    continue;
                }
                obs_depth.set(st.queue_depth() as f64);
                // Prefer the job whose solver we already hold when shares tie.
                let next = match (st.pick_ready(), &cur) {
                    (Some(i), Some(r)) => match st.idx_of(r.id) {
                        Some(ridx) => {
                            if st.jobs[i].vruntime < st.jobs[ridx].vruntime
                                || !st.jobs[ridx].state.is_live()
                            {
                                Some(i)
                            } else if st.jobs[ridx].state == JobState::Preempted {
                                // Our cached job is still the best choice.
                                Some(ridx)
                            } else {
                                Some(i)
                            }
                        }
                        None => Some(i),
                    },
                    (found, _) => found,
                };
                if let Some(i) = next {
                    st.slice_seq += 1;
                    let slice_no = st.slice_seq;
                    let job = &mut st.jobs[i];
                    let id = job.id;
                    job.state = JobState::Running;
                    if job.first_run_slice.is_none() {
                        job.first_run_slice = Some(slice_no);
                        let wait = job.wait_slices().unwrap_or(0);
                        obs_wait.record(wait as f64);
                        st.journal.append(&JobEvent::Started { id });
                        shared.push_event(
                            &mut st,
                            id,
                            "started",
                            vec![("slice", Json::num(slice_no as f64))],
                        );
                    }
                    break id;
                }
                st = shared.wait_sched(st);
            }
        };

        // ---- build/resume phase (no lock held: solver work is slow) ---
        if cur.as_ref().map(|r| r.id) != Some(picked) {
            if let Some(prev) = cur.take() {
                // A different job was cached: it must already be checkpointed
                // (preemption saves before requeueing), so just drop it.
                drop(prev);
            }
            match build_or_resume(&shared, &cfg, picked) {
                Ok(r) => cur = Some(r),
                Err(e) => {
                    let exit = Exit::Failed(e.to_string());
                    shared.settle(&mut shared.lock_state(), picked, exit);
                    continue;
                }
            }
        }
        // ---- slice loop: keep the pool until a boundary event ---------
        // A job that leaves the pool for good takes its solver with it.
        {
            loop {
                let r = cur.as_mut().expect("a picked job has its solver built");
                let (steps_total, chaos_at, chaos_fired) = {
                    let st = shared.lock_state();
                    let job = st.job(picked).unwrap();
                    (job.spec.steps, job.spec.chaos_nan_at_step, job.chaos_fired)
                };
                let remaining = steps_total.saturating_sub(r.solver.step_count());
                let slice = cfg.slice_steps.min(remaining).max(1);
                let t0 = Instant::now();
                let slice_result = r.solver.run_checked(slice, slice);
                let wall = t0.elapsed().as_secs_f64();
                obs_slices.inc();
                obs_slice_ms.record(wall * 1e3);

                // Periodic checkpoint inside long runs (the rollback target).
                // Must happen before chaos injection below: a checkpoint taken
                // at this boundary has to capture the still-healthy state, or
                // every rollback would replay the fault.
                let done = r.solver.step_count();
                let mut ckpt_this_slice = None;
                if slice_result.is_ok()
                    && (r.last_ckpt == u64::MAX
                        || done - r.last_ckpt >= cfg.policy.checkpoint_every)
                    && done < steps_total
                    && checkpoint(&cfg, r).is_ok()
                {
                    r.last_ckpt = done;
                    ckpt_this_slice = Some(done);
                }

                // Chaos injection fires after the slice that crosses its
                // threshold, so the *next* boundary check trips —
                // deterministic, once per job. While the poison is live the
                // job must keep the pool: preempting (or draining) now would
                // checkpoint the poisoned state and make rollback futile.
                let mut just_poisoned = false;
                if slice_result.is_ok() && !chaos_fired {
                    if let Some(at) = chaos_at {
                        if r.solver.step_count() >= at {
                            just_poisoned = true;
                            r.solver.poison_with_nan();
                            let mut st = shared.lock_state();
                            if let Some(job) = st.job_mut(picked) {
                                job.chaos_fired = true;
                            }
                            shared.push_event(&mut st, picked, "chaos_injected", vec![]);
                        }
                    }
                }

                // ---- boundary decision (under the lock) ---------------
                let decision = {
                    let mut st = shared.lock_state();
                    let kernel = r.solver.last_kernel_class().name();
                    let idx = st.idx_of(picked).expect("running job stays in the table");
                    if let Some(step) = ckpt_this_slice {
                        st.journal.append(&JobEvent::Checkpointed { id: picked, step });
                    }
                    {
                        let job = &mut st.jobs[idx];
                        job.kernel = Some(kernel);
                        job.run_s += wall;
                        job.vruntime += slice as f64 / job.spec.priority.weight() as f64;
                    }
                    match &slice_result {
                        Err(e) => {
                            let job = &mut st.jobs[idx];
                            job.restarts += 1;
                            if job.restarts > cfg.policy.max_restarts {
                                Boundary::Fail(format!(
                                    "restart budget exhausted after {} restart(s); last fault: {e}",
                                    job.restarts - 1
                                ))
                            } else {
                                Boundary::Rollback
                            }
                        }
                        Ok(()) => {
                            st.jobs[idx].steps_done = done;
                            shared.push_event(
                                &mut st,
                                picked,
                                "progress",
                                vec![
                                    ("steps", Json::num(done as f64)),
                                    ("of", Json::num(steps_total as f64)),
                                ],
                            );
                            if done >= steps_total {
                                Boundary::Complete
                            } else if st.jobs[idx].cancel_requested {
                                Boundary::Cancel
                            } else if st.jobs[idx].handoff_requested && !just_poisoned {
                                Boundary::Handoff
                            } else if (st.draining || st.stopping) && !just_poisoned {
                                Boundary::Yield
                            } else if st.should_preempt(idx) && !just_poisoned {
                                Boundary::Preempt
                            } else {
                                Boundary::Continue
                            }
                        }
                    }
                };

                // ---- act (I/O outside the lock where possible) --------
                match decision {
                    Boundary::Continue => continue,
                    Boundary::Yield => break,
                    Boundary::Preempt => {
                        let ck = checkpoint(&cfg, r);
                        let mut st = shared.lock_state();
                        match ck {
                            Ok(step) => {
                                let job = st.job_mut(picked).unwrap();
                                job.state = JobState::Preempted;
                                job.preemptions += 1;
                                job.recorder.counter("job.preemptions").inc();
                                obs_preempts.inc();
                                st.journal.append(&JobEvent::Preempted { id: picked, step });
                                shared.push_event(
                                    &mut st,
                                    picked,
                                    "preempted",
                                    vec![("at_step", Json::num(step as f64))],
                                );
                                // Keep the solver cached: if no one else wins
                                // the next slice we resume without touching
                                // disk. The cache is dropped when a different
                                // job is picked.
                                r.last_ckpt = step;
                                drop(st);
                                break;
                            }
                            Err(e) => {
                                // Can't persist: keep running rather than
                                // lose state.
                                shared.push_event(
                                    &mut st,
                                    picked,
                                    "checkpoint_error",
                                    vec![("error", Json::str(e.to_string()))],
                                );
                                continue;
                            }
                        }
                    }
                    Boundary::Complete => {
                        let outputs = write_outputs(&shared, &cfg, picked, &r.solver).ok();
                        let exit = Exit::Completed { outputs };
                        shared.settle(&mut shared.lock_state(), picked, exit);
                        cur = None;
                        break;
                    }
                    Boundary::Cancel => {
                        let exit = Exit::Cancelled { error: None };
                        shared.settle(&mut shared.lock_state(), picked, exit);
                        cur = None;
                        break;
                    }
                    Boundary::Handoff => {
                        let ck = checkpoint(&cfg, r);
                        let mut st = shared.lock_state();
                        match ck {
                            Ok(step) => {
                                // Parked like a drain: resumable from this
                                // checkpoint, on this worker or another.
                                shared.park(&mut st, picked, step, "handed_off");
                                drop(st);
                                cur = None;
                                break;
                            }
                            Err(e) => {
                                // Can't persist: withdraw the handoff and
                                // keep computing rather than lose state. The
                                // waiting handler times out and reports 503.
                                if let Some(job) = st.job_mut(picked) {
                                    job.handoff_requested = false;
                                }
                                shared.push_event(
                                    &mut st,
                                    picked,
                                    "checkpoint_error",
                                    vec![("error", Json::str(e.to_string()))],
                                );
                                continue;
                            }
                        }
                    }
                    Boundary::Rollback => {
                        // Drop the faulted solver first, so its state never
                        // coexists with the replacement's, then resume from
                        // the last valid checkpoint (or from scratch — step 0
                        // is always recoverable because the spec is
                        // deterministic) and retry with backoff.
                        cur = None;
                        match build_or_resume(&shared, &cfg, picked) {
                            Ok(fresh) => {
                                let to_step = fresh.solver.step_count();
                                cur = Some(fresh);
                                let mut st = shared.lock_state();
                                let job = st.job_mut(picked).unwrap();
                                job.rollbacks += 1;
                                job.recorder.counter("job.rollbacks").inc();
                                let restarts = job.restarts;
                                shared.push_event(
                                    &mut st,
                                    picked,
                                    "rollback",
                                    vec![
                                        ("to_step", Json::num(to_step as f64)),
                                        ("restarts", Json::num(restarts as f64)),
                                    ],
                                );
                                drop(st);
                                std::thread::sleep(cfg.policy.backoff);
                                continue;
                            }
                            Err(e) => {
                                let exit = Exit::Failed(e.to_string());
                                shared.settle(&mut shared.lock_state(), picked, exit);
                                break;
                            }
                        }
                    }
                    Boundary::Fail(msg) => {
                        shared.settle(&mut shared.lock_state(), picked, Exit::Failed(msg));
                        cur = None;
                        break;
                    }
                }
            }
        }
    }
}

/// Save the running job's populations into its namespaced store. Returns the
/// checkpointed step.
fn checkpoint(cfg: &SchedConfig, r: &Running) -> Result<u64, SwlbError> {
    let store = cfg.store.namespaced(&format!("job-{}", r.id))?;
    let ck = r.solver.capture_chunked();
    store.save_chunked(&ck)?;
    Ok(ck.step)
}

/// Build the job's solver on the shared pool; restore its latest valid
/// checkpoint if one exists (resume after preemption or rollback).
fn build_or_resume(
    shared: &Shared,
    cfg: &SchedConfig,
    id: u64,
) -> Result<Running, SwlbError> {
    let (case, job_recorder, had_run) = {
        let st = shared.lock_state();
        let job = st.job(id).ok_or(SwlbError::NoValidCheckpoint)?;
        (
            job.spec.case.clone(),
            job.recorder.clone(),
            job.steps_done > 0,
        )
    };
    let mut solver = case.build(cfg.pool.clone(), job_recorder)?;
    let store = cfg.store.namespaced(&format!("job-{id}"))?;
    let mut last_ckpt = u64::MAX;
    // Progress recorded but no checkpoint survived restarts from 0, and
    // counts as a resume so the exactly-once accounting stays whole.
    let mut resume_at = had_run.then_some(0);
    if let Some((ck, _skipped)) = store.load_latest_valid_any()? {
        solver.restore_chunked_state(&ck)?;
        last_ckpt = ck.step;
        resume_at = Some(ck.step);
    }
    if let Some(at) = resume_at {
        let mut st = shared.lock_state();
        if let Some(job) = st.job_mut(id) {
            job.resumes += 1;
            // After crash recovery the journaled step can be newer than the
            // newest *valid* checkpoint; converge on where the solver starts.
            job.steps_done = at;
            job.recorder.counter("job.resumes").inc();
            shared.push_event(
                &mut st,
                id,
                "resumed",
                vec![("at_step", Json::num(at as f64))],
            );
        }
    }
    Ok(Running {
        id,
        solver,
        last_ckpt,
    })
}

/// Drain: checkpoint the in-flight job, park every live job, flag the drain
/// complete. Runs with the state lock held.
fn drain_all(
    shared: &Shared,
    st: &mut crate::state::State,
    cfg: &SchedConfig,
    cur: &mut Option<Running>,
) {
    if st.drained {
        return;
    }
    // A cached solver whose job has since ended has nothing left to park.
    if let Some(r) = cur
        .take()
        .filter(|r| st.job(r.id).is_some_and(|j| j.state.is_live()))
    {
        let step = checkpoint(cfg, &r).unwrap_or(0);
        shared.park(st, r.id, step, "checkpointed");
    }
    let live: Vec<(u64, u64)> = st
        .jobs
        .iter()
        .filter(|j| j.state.is_live())
        .map(|j| (j.id, j.steps_done))
        .collect();
    for (id, step) in live {
        shared.park(st, id, step, "checkpointed");
    }
    st.drained = true;
    st.journal.sync();
    // Drain waiters watch `drained`, which no event announces.
    shared.event_wake.notify_all();
}

/// Write the artifacts a completed job requested into its job directory.
fn write_outputs(
    shared: &Shared,
    cfg: &SchedConfig,
    id: u64,
    solver: &CaseSolver,
) -> std::io::Result<Vec<String>> {
    let (name, outputs) = {
        let st = shared.lock_state();
        match st.job(id) {
            Some(j) => (j.spec.name.clone(), j.spec.outputs.clone()),
            None => return Ok(Vec::new()),
        }
    };
    write_artifacts(
        &cfg.jobs_dir.join(format!("job-{id}")),
        &name,
        solver,
        &outputs,
    )
}

/// Write `outputs` of `solver` into `dir` (created if any are asked for) and
/// return the paths written: `speed.ppm`, the z=0 speed slice, and
/// `fields.vtk`, density and z-vorticity titled `name`. Both come from one
/// macroscopic pass. The scheduler writes a completed job's artifacts with
/// this, and `swlb run` writes its own with it too.
pub fn write_artifacts(
    dir: &Path,
    name: &str,
    solver: &CaseSolver,
    outputs: &[OutputKind],
) -> std::io::Result<Vec<String>> {
    if outputs.is_empty() {
        return Ok(Vec::new());
    }
    std::fs::create_dir_all(dir)?;
    let dims = solver.dims();
    let m = solver.macroscopic();
    let mut written = Vec::new();
    for kind in outputs {
        let path = match kind {
            OutputKind::Ppm => {
                let speed = m.slice_xy_speed(0);
                let img = PpmImage::from_scalar(dims.nx, dims.ny, &speed, colormap_viridis_like);
                let path = dir.join("speed.ppm");
                write_ppm(&mut std::fs::File::create(&path)?, &img)?;
                path
            }
            OutputKind::Vtk => {
                let fields = [("rho", &m.rho[..]), ("vorticity", &vorticity_z(&m)[..])];
                let path = dir.join("fields.vtk");
                write_vtk_scalars(&mut std::fs::File::create(&path)?, name, dims, &fields)?;
                path
            }
        };
        written.push(path.display().to_string());
    }
    Ok(written)
}
