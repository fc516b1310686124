//! Checkpoint-rollback recovery for distributed runs.
//!
//! [`run_with_recovery`] drives a [`DistributedSolver`] to a target step count
//! while surviving transient faults: dropped, delayed, duplicated or corrupted
//! halo messages and numerical divergence (NaN/Inf or global-mass drift). The
//! protocol per step:
//!
//! 1. attempt the step (the engine's halo retry heals delays in place);
//! 2. every rank contributes `[fail_flag, local_mass]` to one status
//!    allreduce. The reduced pair is simultaneously the *failure agreement*
//!    (any rank's failure makes the sum positive) and the *divergence guard*
//!    (a NaN or Inf anywhere poisons the mass sum; drift beyond tolerance is
//!    visible in the reduced value). Because every rank sees the same reduced
//!    values, every rank reaches the same verdict — no extra voting round.
//! 3. on a clean verdict, periodically checkpoint (gather → atomic write on
//!    rank 0 via [`CheckpointStore`]);
//! 4. on a failed verdict, roll back: rank 0 loads the newest *valid*
//!    checkpoint (skipping corrupt files), broadcasts its step, every rank
//!    bumps the halo epoch (so pre-rollback frames in flight are discarded as
//!    stale) and re-scatters the state, then the run resumes.
//!
//! Restarts are capped by [`RecoveryPolicy::max_restarts`]; exhaustion returns
//! the typed [`SwlbError::RestartsExhausted`] instead of looping. Rank death is
//! not recoverable by rollback: the dead rank's operations return
//! [`SwlbError::Disconnected`] immediately, and the survivors' status
//! reduction times out (the run sets a communicator-wide op deadline), so
//! every rank fails fast with a typed error instead of hanging — the paper's
//! month-long-run requirement (§IV-B) is "never wedge a 160,000-core job".
//!
//! No step of this protocol uses a barrier: barriers cannot time out, and a
//! dead rank would wedge every survivor in one.
//!
//! All fallible entry points return the workspace-wide [`SwlbError`] (see
//! `swlb-obs`), so callers mix checkpoint, communication and numerical
//! failures under one `?`. If the solver carries an enabled
//! [`Recorder`](swlb_obs::Recorder), the recovery loop reports
//! `recovery.rollbacks` / `recovery.wasted_steps` counters and times the
//! `checkpoint` / `rollback` phases.

use crate::engine::DistributedSolver;
use std::time::Duration;
use swlb_comm::Communicator;
use swlb_core::lattice::Lattice;
use swlb_io::checkpoint::CheckpointStore;
use swlb_obs::{Phase, SwlbError};

/// When to checkpoint, how often to retry, how long to wait.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Checkpoint every this many completed steps (≥ 1). A checkpoint is also
    /// written at entry so a rollback target always exists.
    pub checkpoint_every: u64,
    /// Rollback-restarts allowed before giving up. `0` = fail fast on the
    /// first fault.
    pub max_restarts: u32,
    /// Base pause before a restart; doubled per consecutive restart, capped at
    /// 8× (gives in-flight stragglers time to drain before the replay).
    pub backoff: Duration,
    /// Relative global-mass drift (vs. the mass at entry) treated as
    /// divergence. `INFINITY` disables the drift guard (inflow/outflow cases
    /// legitimately change mass); NaN/Inf detection is always active.
    pub mass_drift_tol: f64,
    /// Deadline for the status reduction and rollback collectives. Must
    /// comfortably exceed one step's compute plus the halo retry budget;
    /// expiry means a peer is dead or wedged and the run fails fast.
    pub status_timeout: Duration,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            checkpoint_every: 50,
            max_restarts: 3,
            backoff: Duration::from_millis(10),
            mass_drift_tol: f64::INFINITY,
            status_timeout: Duration::from_secs(60),
        }
    }
}

impl RecoveryPolicy {
    fn backoff_for(&self, restart: u32) -> Duration {
        let mult = 1u32
            .checked_shl(restart.saturating_sub(1))
            .unwrap_or(u32::MAX)
            .min(8);
        self.backoff.saturating_mul(mult)
    }
}

/// What a recovered run went through to finish.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Completed steps at exit (the target, on success).
    pub steps_completed: u64,
    /// Rollback-restarts performed.
    pub restarts: u32,
    /// Steps recomputed because of rollbacks.
    pub wasted_steps: u64,
    /// Checkpoints written by this rank (only rank 0 writes).
    pub checkpoints_written: u64,
    /// Human-readable description of each fault that forced a rollback.
    pub faults_recovered: Vec<String>,
    /// Global mass at exit.
    pub final_mass: f64,
}

/// Roll every rank back to the newest valid checkpoint (collective), through
/// the re-sharding [`DistributedSolver::restore_chunked`] path — so a rollback
/// works even when the checkpoint was written under a different rank count.
fn rollback<L: Lattice, C: Communicator>(
    solver: &mut DistributedSolver<'_, L, C>,
    store: &CheckpointStore,
) -> Result<u64, SwlbError> {
    // Rank 0 passes a missing checkpoint through to the restore, which fails
    // it on every rank; a store it cannot read releases the peers the same
    // way before failing with the I/O error.
    let ck = if solver.rank() == 0 {
        match store.load_latest_valid_any() {
            Ok(found) => found.map(|(ck, skipped)| {
                for path in skipped {
                    eprintln!("[recovery] skipping corrupt checkpoint {}", path.display());
                }
                ck
            }),
            Err(e) => {
                let _ = solver.restore_chunked(None);
                return Err(e.into());
            }
        }
    } else {
        None
    };
    // New halo epoch first: frames sent before the rollback must read as stale.
    solver.bump_epoch();
    // Every rank learns the rollback step inside the restore's broadcast; a
    // dead rank 0 makes this time out (op deadline is set), never hang.
    solver.restore_chunked(ck.as_ref())?;
    Ok(solver.step_count())
}

/// Drive `solver` to `total_steps` completed steps under `policy`, writing
/// checkpoints into `store` and rolling back on faults. Collective: every rank
/// calls it with the same arguments (each rank may point `store` at its own
/// directory; only rank 0 writes).
pub fn run_with_recovery<L: Lattice, C: Communicator>(
    solver: &mut DistributedSolver<'_, L, C>,
    total_steps: u64,
    policy: &RecoveryPolicy,
    store: &CheckpointStore,
) -> Result<RecoveryReport, SwlbError> {
    run_with_recovery_instrumented(solver, total_steps, policy, store, |_| {})
}

/// [`run_with_recovery`] with a per-step instrumentation hook, called after
/// every locally successful step *before* the health check. Production code
/// passes a no-op; fault-injection tests use it to poison state (e.g. write a
/// NaN) at a chosen step and watch the guard catch it.
pub fn run_with_recovery_instrumented<L: Lattice, C: Communicator>(
    solver: &mut DistributedSolver<'_, L, C>,
    total_steps: u64,
    policy: &RecoveryPolicy,
    store: &CheckpointStore,
    mut on_step: impl FnMut(&mut DistributedSolver<'_, L, C>),
) -> Result<RecoveryReport, SwlbError> {
    assert!(
        policy.checkpoint_every >= 1,
        "checkpoint_every must be at least 1"
    );
    let comm = solver.comm();
    let prev_timeout = comm.op_timeout();
    comm.set_op_timeout(Some(policy.status_timeout));
    let result = run_inner(solver, total_steps, policy, store, &mut on_step);
    solver.comm().set_op_timeout(prev_timeout);
    result
}

fn run_inner<L: Lattice, C: Communicator>(
    solver: &mut DistributedSolver<'_, L, C>,
    total_steps: u64,
    policy: &RecoveryPolicy,
    store: &CheckpointStore,
    on_step: &mut impl FnMut(&mut DistributedSolver<'_, L, C>),
) -> Result<RecoveryReport, SwlbError> {
    let mut report = RecoveryReport::default();
    let recorder = solver.recorder().clone();
    let obs_rollbacks = recorder.counter("recovery.rollbacks");
    let obs_wasted = recorder.counter("recovery.wasted_steps");

    // Reference mass for the drift guard, agreed once at entry.
    let mass0 = solver.comm().allreduce_sum(&[solver.local_mass()])?[0];
    if !mass0.is_finite() {
        return Err(SwlbError::Diverged {
            step: solver.step_count(),
        });
    }

    // Entry checkpoint: a rollback target must exist before the first fault.
    save_checkpoint(solver, store, &mut report)?;

    let mut mass = mass0;
    while solver.step_count() < total_steps {
        let attempted = solver.step_count();
        let local_err: Option<SwlbError> = match solver.step() {
            Ok(()) => {
                on_step(solver);
                None
            }
            // A dead transport cannot reach the status reduction either;
            // fail fast instead of voting.
            Err(SwlbError::Disconnected) => return Err(SwlbError::Disconnected),
            Err(e) => Some(e),
        };

        // Status agreement + divergence guard in one reduction.
        let local_mass = if local_err.is_some() {
            0.0
        } else {
            solver.local_mass()
        };
        let fail_flag = if local_err.is_some() { 1.0 } else { 0.0 };
        let status = solver.comm().allreduce_sum(&[fail_flag, local_mass])?;
        let (fail_sum, mass_sum) = (status[0], status[1]);

        let diverged =
            !mass_sum.is_finite() || (mass_sum - mass0).abs() > policy.mass_drift_tol * mass0.abs();
        if fail_sum == 0.0 && !diverged {
            mass = mass_sum;
            // Under temporal blocking, checkpoints land on block boundaries
            // only. A mid-block capture is valid, but a restore resets the
            // intra-block phase — resuming from a mid-block step would shift
            // the exchange cadence against an uninterrupted run; boundary
            // checkpoints keep the recovered trajectory step-for-step
            // identical to the fault-free one.
            if solver.step_count().is_multiple_of(policy.checkpoint_every)
                && solver.block_phase() == 0
            {
                save_checkpoint(solver, store, &mut report)?;
            }
            continue;
        }

        // Unanimous verdict: something failed this step. Identify the fault
        // (for the report / the final error) and roll back.
        let fault: SwlbError = match local_err {
            Some(e) => e,
            None if diverged => SwlbError::Diverged { step: attempted },
            None => SwlbError::PeerFault { step: attempted },
        };
        if report.restarts >= policy.max_restarts {
            return Err(SwlbError::RestartsExhausted {
                restarts: report.restarts,
                last: Box::new(fault),
            });
        }
        report.restarts += 1;
        report
            .faults_recovered
            .push(format!("step {attempted}: {fault}"));
        std::thread::sleep(policy.backoff_for(report.restarts));
        // Every step completed past the checkpoint — including the one whose
        // result the verdict just discarded — is recomputed.
        let reached = solver.step_count();
        let resumed_at = {
            let _g = recorder.phase(Phase::Rollback);
            rollback(solver, store)?
        };
        obs_rollbacks.inc();
        report.wasted_steps += reached - resumed_at;
        obs_wasted.add(reached - resumed_at);
    }

    report.steps_completed = solver.step_count();
    report.final_mass = mass;
    Ok(report)
}

fn save_checkpoint<L: Lattice, C: Communicator>(
    solver: &DistributedSolver<'_, L, C>,
    store: &CheckpointStore,
    report: &mut RecoveryReport,
) -> Result<(), SwlbError> {
    let _g = solver.recorder().phase(Phase::Checkpoint);
    if let Some(ck) = solver.capture_chunked()? {
        store.save_chunked(&ck)?;
        report.checkpoints_written += 1;
        solver.recorder().counter("recovery.checkpoints").inc();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DistributedSolver, ExchangeMode, HaloRetry};
    use swlb_comm::World;
    use swlb_core::boundary::NodeKind;
    use swlb_core::collision::{BgkParams, CollisionKind};
    use swlb_core::flags::FlagField;
    use swlb_core::geometry::GridDims;
    use swlb_core::lattice::D2Q9;
    use swlb_core::layout::PopField;

    fn temp_store(tag: &str) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("swlb-recovery-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::new(dir, 3).unwrap()
    }

    fn case() -> (GridDims, FlagField, CollisionKind) {
        let global = GridDims::new2d(12, 12);
        let mut flags = FlagField::new(global);
        flags.set_box_walls();
        flags.paint_lid([0.05, 0.0, 0.0]);
        (global, flags, CollisionKind::Bgk(BgkParams::from_tau(0.8)))
    }

    #[test]
    fn fault_free_recovered_run_matches_plain_run() {
        let (global, flags, coll) = case();
        let flags_ref = &flags;
        let plain = World::new(4).run(|comm| {
            let mut s = DistributedSolver::<D2Q9>::builder(&comm, global, flags_ref, coll)
                .exchange(ExchangeMode::OnTheFly)
                .build();
            s.initialize_uniform(1.0, [0.0; 3]);
            s.run(20).unwrap();
            s.gather_populations().unwrap()
        });
        let store = temp_store("clean");
        let store_ref = &store;
        let recovered = World::new(4).run(|comm| {
            let mut s = DistributedSolver::<D2Q9>::builder(&comm, global, flags_ref, coll)
                .exchange(ExchangeMode::OnTheFly)
                .build();
            s.initialize_uniform(1.0, [0.0; 3]);
            let policy = RecoveryPolicy {
                checkpoint_every: 5,
                ..Default::default()
            };
            let report = run_with_recovery(&mut s, 20, &policy, store_ref).unwrap();
            assert_eq!(report.steps_completed, 20);
            assert_eq!(report.restarts, 0);
            assert_eq!(report.wasted_steps, 0);
            if comm.rank() == 0 {
                // Entry + steps 5, 10, 15, 20.
                assert_eq!(report.checkpoints_written, 5);
            }
            s.gather_populations().unwrap()
        });
        let (a, b) = (plain[0].as_ref().unwrap(), recovered[0].as_ref().unwrap());
        for cell in 0..global.cells() {
            for q in 0..9 {
                assert_eq!(a.get(cell, q), b.get(cell, q), "cell {cell} q {q}");
            }
        }
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn injected_divergence_rolls_back_and_still_matches() {
        let (global, flags, coll) = case();
        let flags_ref = &flags;
        let plain = World::new(2).run(|comm| {
            let mut s = DistributedSolver::<D2Q9>::builder(&comm, global, flags_ref, coll)
                .exchange(ExchangeMode::Sequential)
                .build();
            s.initialize_uniform(1.0, [0.0; 3]);
            s.run(12).unwrap();
            s.gather_populations().unwrap()
        });
        let store = temp_store("nan");
        let store_ref = &store;
        let out = World::new(2).run(|comm| {
            let mut s = DistributedSolver::<D2Q9>::builder(&comm, global, flags_ref, coll)
                .exchange(ExchangeMode::Sequential)
                .halo_retry(HaloRetry::snappy())
                .build();
            s.initialize_uniform(1.0, [0.0; 3]);
            let policy = RecoveryPolicy {
                checkpoint_every: 4,
                status_timeout: Duration::from_secs(10),
                ..Default::default()
            };
            // Poison one population on rank 1 after step 7 completes — once.
            let mut injected = false;
            let report = run_with_recovery_instrumented(&mut s, 12, &policy, store_ref, |s| {
                if !injected && s.rank() == 1 && s.step_count() == 7 {
                    injected = true;
                    let dims = s.local_flags().dims();
                    let cell = dims.idx(2, 2, 0);
                    s.local_populations_mut().set(cell, 0, f64::NAN);
                }
            })
            .unwrap();
            assert_eq!(report.steps_completed, 12);
            assert_eq!(report.restarts, 1, "exactly one rollback expected");
            // Rolled back from the failed step-7 attempt to the step-4 ckpt.
            assert_eq!(report.wasted_steps, 3);
            assert!(
                report.faults_recovered[0].contains("diverged"),
                "fault description: {:?}",
                report.faults_recovered
            );
            s.gather_populations().unwrap()
        });
        let (a, b) = (plain[0].as_ref().unwrap(), out[0].as_ref().unwrap());
        for cell in 0..global.cells() {
            for q in 0..9 {
                assert_eq!(a.get(cell, q), b.get(cell, q), "cell {cell} q {q}");
            }
        }
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn poison_in_an_inflow_cell_rolls_back() {
        // An inflow cell is reset to its equilibrium every step and nothing
        // streams its rest population anywhere, so a NaN (or +Inf) parked
        // there never reaches a fluid cell. The mass guard reads every owned
        // non-solid cell, so it still trips on the step that left it there.
        let global = GridDims::new2d(12, 8);
        let mut flags = FlagField::new(global);
        flags.paint_channel_walls_y();
        flags.paint_inflow_outflow_x(1.0, [0.03, 0.0, 0.0]);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        let flags_ref = &flags;
        for (tag, poison) in [("inflow-nan", f64::NAN), ("inflow-inf", f64::INFINITY)] {
            let store = temp_store(tag);
            let store_ref = &store;
            World::new(2).run(|comm| {
                let mut s = DistributedSolver::<D2Q9>::builder(&comm, global, flags_ref, coll)
                    .halo_retry(HaloRetry::snappy())
                    .build();
                s.initialize_uniform(1.0, [0.03, 0.0, 0.0]);
                let policy = RecoveryPolicy {
                    checkpoint_every: 4,
                    status_timeout: Duration::from_secs(10),
                    ..Default::default()
                };
                let mut injected = false;
                let report = run_with_recovery_instrumented(&mut s, 8, &policy, store_ref, |s| {
                    if !injected && s.rank() == 0 && s.step_count() == 6 {
                        injected = true;
                        // Rank 0 owns the inflow column, one ghost cell in.
                        let cell = s.local_flags().dims().idx(1, 3, 0);
                        let inlet = s.local_flags().kind(cell);
                        assert!(matches!(inlet, NodeKind::Inlet { .. }), "{inlet:?}");
                        s.local_populations_mut().set(cell, 0, poison);
                    }
                })
                .unwrap();
                assert_eq!(report.restarts, 1, "{tag}: exactly one rollback expected");
                assert_eq!(
                    report.wasted_steps, 2,
                    "{tag}: rolled back from step 6 to 4"
                );
                let faults = &report.faults_recovered;
                assert!(faults[0].contains("diverged"), "{tag}: {faults:?}");
            });
            std::fs::remove_dir_all(store.dir()).unwrap();
        }
    }

    #[test]
    fn aa_storage_rollback_from_mid_parity_checkpoint_matches_plain_run() {
        // checkpoint_every = 5 captures at Streamed parity; the rollback
        // restores the canonical payload on the odd flavor — which must be
        // exactly the same trajectory (canonical restart equivalence).
        let (global, flags, coll) = case();
        let flags_ref = &flags;
        let plain = World::new(2).run(|comm| {
            let mut s = DistributedSolver::<D2Q9>::builder(&comm, global, flags_ref, coll)
                .exchange(ExchangeMode::Sequential)
                .storage(swlb_core::layout::StorageScheme::Aa)
                .build();
            s.initialize_uniform(1.0, [0.0; 3]);
            s.run(12).unwrap();
            s.gather_populations().unwrap()
        });
        let store = temp_store("aa-nan");
        let store_ref = &store;
        let out = World::new(2).run(|comm| {
            let mut s = DistributedSolver::<D2Q9>::builder(&comm, global, flags_ref, coll)
                .exchange(ExchangeMode::Sequential)
                .storage(swlb_core::layout::StorageScheme::Aa)
                .halo_retry(HaloRetry::snappy())
                .build();
            s.initialize_uniform(1.0, [0.0; 3]);
            let policy = RecoveryPolicy {
                checkpoint_every: 5,
                status_timeout: Duration::from_secs(10),
                ..Default::default()
            };
            let mut injected = false;
            let report = run_with_recovery_instrumented(&mut s, 12, &policy, store_ref, |s| {
                if !injected && s.rank() == 1 && s.step_count() == 7 {
                    injected = true;
                    let dims = s.local_flags().dims();
                    let cell = dims.idx(2, 2, 0);
                    s.local_populations_mut().set(cell, 0, f64::NAN);
                }
            })
            .unwrap();
            assert_eq!(report.steps_completed, 12);
            assert_eq!(report.restarts, 1, "exactly one rollback expected");
            // Rolled back from the failed step-7 attempt to the step-5 ckpt.
            assert_eq!(report.wasted_steps, 2);
            s.gather_populations().unwrap()
        });
        let (a, b) = (plain[0].as_ref().unwrap(), out[0].as_ref().unwrap());
        let tol = 1e-14_f64.max(swlb_core::simd::dispatch_tolerance() * 100.0);
        for cell in 0..global.cells() {
            if !flags.kind(cell).is_fluid() {
                continue;
            }
            for q in 0..9 {
                let (x, y) = (a.get(cell, q), b.get(cell, q));
                assert!((x - y).abs() < tol, "cell {cell} q {q}: {x} vs {y}");
            }
        }
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn rollback_across_a_reshard_restores_a_4_rank_checkpoint_into_6_ranks() {
        // The N ↔ M resume contract at the resilience layer: a checkpoint
        // written by a 4-rank world must be a valid rollback target for a
        // 6-rank world (different `px × py`), and the resumed trajectory must
        // match the uninterrupted one.
        let (global, flags, coll) = case();
        let flags_ref = &flags;
        let store = temp_store("reshard");
        let store_ref = &store;

        let plain = World::new(1).run(|comm| {
            let mut s = DistributedSolver::<D2Q9>::builder(&comm, global, flags_ref, coll)
                .exchange(ExchangeMode::Sequential)
                .build();
            s.initialize_uniform(1.0, [0.0; 3]);
            s.run(12).unwrap();
            s.gather_populations().unwrap()
        });

        // A 4-rank world checkpoints at step 8.
        World::new(4).run(|comm| {
            let mut s = DistributedSolver::<D2Q9>::builder(&comm, global, flags_ref, coll)
                .exchange(ExchangeMode::OnTheFly)
                .build();
            s.initialize_uniform(1.0, [0.0; 3]);
            s.run(8).unwrap();
            if let Some(ck) = s.capture_chunked().unwrap() {
                store_ref.save_chunked(&ck).unwrap();
            }
        });

        // A 6-rank world rolls back from that file and finishes the run.
        let out = World::new(6).run(|comm| {
            let mut s = DistributedSolver::<D2Q9>::builder(&comm, global, flags_ref, coll)
                .exchange(ExchangeMode::Sequential)
                .build();
            s.initialize_uniform(1.0, [0.0; 3]);
            let step = rollback(&mut s, store_ref).unwrap();
            assert_eq!(step, 8);
            assert_eq!(s.step_count(), 8);
            s.run(4).unwrap();
            s.gather_populations().unwrap()
        });

        let (a, b) = (plain[0].as_ref().unwrap(), out[0].as_ref().unwrap());
        let tol = 1e-14_f64.max(swlb_core::simd::dispatch_tolerance() * 100.0);
        for cell in 0..global.cells() {
            for q in 0..9 {
                let (x, y) = (a.get(cell, q), b.get(cell, q));
                assert!((x - y).abs() < tol, "cell {cell} q {q}: {x} vs {y}");
            }
        }
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn rollback_without_a_checkpoint_fails_on_every_rank() {
        // Rank 0 finds nothing to load, then cannot read the store at all;
        // its peer must hear that inside the restore, not wait out the op
        // deadline and report a timeout.
        let (global, flags, coll) = case();
        let flags_ref = &flags;
        let store = temp_store("none");
        let store_ref = &store;
        let roll = || {
            World::new(2).run(|comm| {
                comm.set_op_timeout(Some(Duration::from_secs(5)));
                let mut s =
                    DistributedSolver::<D2Q9>::builder(&comm, global, flags_ref, coll).build();
                s.initialize_uniform(1.0, [0.0; 3]);
                rollback(&mut s, store_ref).unwrap_err()
            })
        };
        assert_eq!(roll(), vec![SwlbError::NoValidCheckpoint; 2]);
        std::fs::remove_dir_all(store.dir()).unwrap();
        let errs = roll();
        assert!(matches!(errs[0], SwlbError::Io(_)), "rank 0: {:?}", errs[0]);
        assert_eq!(errs[1], SwlbError::NoValidCheckpoint);
    }

    #[test]
    fn zero_restart_budget_fails_fast_with_typed_error() {
        let (global, flags, coll) = case();
        let flags_ref = &flags;
        let store = temp_store("budget");
        let store_ref = &store;
        let errs = World::new(2).run(|comm| {
            let mut s = DistributedSolver::<D2Q9>::builder(&comm, global, flags_ref, coll)
                .exchange(ExchangeMode::Sequential)
                .build();
            s.initialize_uniform(1.0, [0.0; 3]);
            let policy = RecoveryPolicy {
                checkpoint_every: 4,
                max_restarts: 0,
                status_timeout: Duration::from_secs(10),
                ..Default::default()
            };
            let mut injected = false;
            let err = run_with_recovery_instrumented(&mut s, 12, &policy, store_ref, |s| {
                if !injected && s.rank() == 0 && s.step_count() == 3 {
                    injected = true;
                    let dims = s.local_flags().dims();
                    // (2, 2) is interior fluid on every rank (never a wall or
                    // halo cell), so the poison is visible to the mass guard.
                    let cell = dims.idx(2, 2, 0);
                    s.local_populations_mut().set(cell, 0, f64::INFINITY);
                }
            })
            .unwrap_err();
            matches!(err, SwlbError::RestartsExhausted { restarts: 0, .. })
        });
        assert!(
            errs.iter().all(|&ok| ok),
            "both ranks must fail fast with the typed error"
        );
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn recovery_counters_match_report() {
        let (global, flags, coll) = case();
        let flags_ref = &flags;
        let store = temp_store("obs");
        let store_ref = &store;
        let out = World::new(2).run(|comm| {
            let rec = swlb_obs::Recorder::enabled();
            let mut s = DistributedSolver::<D2Q9>::builder(&comm, global, flags_ref, coll)
                .exchange(ExchangeMode::Sequential)
                .recorder(rec.clone())
                .build();
            s.initialize_uniform(1.0, [0.0; 3]);
            let policy = RecoveryPolicy {
                checkpoint_every: 4,
                status_timeout: Duration::from_secs(10),
                ..Default::default()
            };
            let mut injected = false;
            let report = run_with_recovery_instrumented(&mut s, 10, &policy, store_ref, |s| {
                if !injected && s.rank() == 0 && s.step_count() == 6 {
                    injected = true;
                    let dims = s.local_flags().dims();
                    let cell = dims.idx(2, 2, 0);
                    s.local_populations_mut().set(cell, 0, f64::NAN);
                }
            })
            .unwrap();
            let snap = rec.snapshot(report.steps_completed).unwrap();
            (report, snap)
        });
        for (report, snap) in out {
            assert_eq!(
                snap.counter("recovery.rollbacks"),
                Some(report.restarts as u64)
            );
            assert_eq!(
                snap.counter("recovery.wasted_steps"),
                Some(report.wasted_steps)
            );
            assert_eq!(
                snap.counter("recovery.checkpoints").unwrap_or(0),
                report.checkpoints_written
            );
            assert!(
                report.restarts >= 1,
                "the injected NaN must force a rollback"
            );
        }
        std::fs::remove_dir_all(store.dir()).unwrap();
    }
}
