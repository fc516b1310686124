//! Checkpoint/restart integration: solver state survives the round trip
//! exactly, restarts continue bit-identically, and corruption is detected.

use swlb_core::parallel::ThreadPool;
use swlb_core::prelude::*;
use swlb_io::{CheckpointError, ChunkedCheckpoint};
use swlb_obs::Recorder;
use swlb_sim::{CaseKind, CaseSolver, CaseSpec, LatticeKind};

/// A 2-D lid-driven cavity (tau 0.7, lid 0.06) on one thread.
fn cavity(nx: usize, ny: usize, storage: StorageScheme, time_block: usize) -> CaseSolver {
    CaseSpec {
        case: CaseKind::Cavity,
        lattice: LatticeKind::D2Q9,
        nx,
        ny,
        nz: 1,
        tau: 0.7,
        u_lattice: 0.06,
        storage,
        time_block,
    }
    .build(ThreadPool::new(1), Recorder::disabled())
    .unwrap()
}

fn make_solver() -> CaseSolver {
    cavity(24, 24, StorageScheme::Ab, 1)
}

fn run(s: &mut CaseSolver, steps: u64) {
    s.run_checked(steps, steps).unwrap();
}

fn to_bytes(ck: &ChunkedCheckpoint) -> Vec<u8> {
    let mut bytes = Vec::new();
    ck.write(&mut bytes).unwrap();
    bytes
}

/// Through the binary codec and back.
fn through_codec(ck: &ChunkedCheckpoint) -> ChunkedCheckpoint {
    ChunkedCheckpoint::read(&mut to_bytes(ck).as_slice()).unwrap()
}

/// Fluid-cell populations of `b` within `tol` of `a`'s (solid cells hold
/// scheme-dependent leftovers).
fn assert_fluid_close(a: &CaseSolver, b: &CaseSolver, tol: f64, what: &str) {
    let cells = a.dims().cells();
    let (pa, pb) = (a.capture().data, b.capture().data);
    for cell in (0..cells).filter(|&c| a.flags().kind(c) == NodeKind::Fluid) {
        for q in 0..9 {
            let (va, vb) = (pa[q * cells + cell], pb[q * cells + cell]);
            assert!(
                (va - vb).abs() <= tol,
                "{what}: cell {cell} q {q}: {va} vs {vb}"
            );
        }
    }
}

#[test]
fn restart_continues_bit_identically() {
    // Run 40 steps straight through.
    let mut straight = make_solver();
    run(&mut straight, 40);

    // Run 15, checkpoint through the binary codec, restore, run 25 more.
    let mut first = make_solver();
    run(&mut first, 15);
    let restored_ck = through_codec(&first.capture_chunked());
    assert_eq!(restored_ck.step, 15);

    let mut resumed = make_solver();
    resumed.restore_chunked_state(&restored_ck).unwrap();
    run(&mut resumed, 25);

    assert_eq!(straight.capture(), resumed.capture());
}

#[test]
fn checkpoint_through_a_file_on_disk() {
    let mut s = make_solver();
    run(&mut s, 7);
    let ck = s.capture_chunked();

    let dir = std::env::temp_dir().join("swlb_ckpt_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("state.swlb");
    {
        let mut f = std::fs::File::create(&path).unwrap();
        ck.write(&mut f).unwrap();
    }
    let mut f = std::fs::File::open(&path).unwrap();
    let back = ChunkedCheckpoint::read(&mut f).unwrap();
    assert_eq!(back, ck);
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupted_checkpoint_refuses_to_restore() {
    let mut s = make_solver();
    run(&mut s, 3);
    let mut bytes = to_bytes(&s.capture_chunked());
    // Flip one population bit in the middle of the payload.
    let mid = bytes.len() / 2;
    bytes[mid] ^= 1;
    match ChunkedCheckpoint::read(&mut bytes.as_slice()) {
        Err(CheckpointError::Corrupt(_)) => {}
        other => panic!("corruption not detected: {other:?}"),
    }
}

#[test]
fn distributed_checkpoint_restart_continues_bit_identically() {
    // The paper's checkpoint/restart controller operates on multi-process
    // runs: capture → write → (crash) → read → restore → continue. The
    // resumed trajectory must equal the uninterrupted one bit-for-bit.
    use swlb_comm::World;
    use swlb_core::collision::CollisionKind;
    use swlb_core::layout::PopField;
    use swlb_sim::{DistributedSolver, ExchangeMode};

    let global = GridDims::new2d(16, 12);
    let mut flags = FlagField::new(global);
    flags.set_box_walls();
    flags.paint_lid([0.05, 0.0, 0.0]);
    let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
    let flags_ref = &flags;

    // Uninterrupted 20-step run.
    let straight = World::new(4).run(|comm| {
        let mut s = DistributedSolver::<D2Q9>::builder(&comm, global, flags_ref, coll)
            .exchange(ExchangeMode::OnTheFly)
            .build();
        s.initialize_uniform(1.0, [0.0; 3]);
        s.run(20).unwrap();
        s.gather_populations().unwrap()
    });

    // First 8 steps, checkpoint through the binary codec on rank 0.
    let ckpt_bytes = World::new(4).run(|comm| {
        let mut s = DistributedSolver::<D2Q9>::builder(&comm, global, flags_ref, coll)
            .exchange(ExchangeMode::OnTheFly)
            .build();
        s.initialize_uniform(1.0, [0.0; 3]);
        s.run(8).unwrap();
        s.capture_chunked().unwrap().map(|ck| to_bytes(&ck))
    });
    let bytes = ckpt_bytes[0].clone().expect("rank 0 wrote the checkpoint");

    // Fresh world: restore and run the remaining 12 steps.
    let bytes_ref = &bytes;
    let resumed = World::new(4).run(|comm| {
        let mut s = DistributedSolver::<D2Q9>::builder(&comm, global, flags_ref, coll)
            .exchange(ExchangeMode::OnTheFly)
            .build();
        s.initialize_uniform(1.0, [0.0; 3]);
        let ck = (comm.rank() == 0)
            .then(|| ChunkedCheckpoint::read(&mut bytes_ref.as_slice()).unwrap());
        s.restore_chunked(ck.as_ref()).unwrap();
        assert_eq!(s.step_count(), 8);
        s.run(12).unwrap();
        s.gather_populations().unwrap()
    });

    let (a, b) = (straight[0].as_ref().unwrap(), resumed[0].as_ref().unwrap());
    for cell in 0..global.cells() {
        for q in 0..9 {
            assert_eq!(a.get(cell, q), b.get(cell, q), "cell {cell} q {q}");
        }
    }
}

#[test]
fn restart_from_store_skips_corrupted_newest_checkpoint() {
    // The recovery controller's restart path: a run checkpoints periodically
    // into a store, crashes, and the newest checkpoint file turns out damaged
    // (torn write, bad disk). The store must fall back to the newest
    // checkpoint that passes its CRC, and the resumed trajectory from there
    // must still match the uninterrupted one bit-for-bit.
    use swlb_io::CheckpointStore;

    let mut straight = make_solver();
    run(&mut straight, 30);

    let dir = std::env::temp_dir().join(format!("swlb_ckpt_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir, 4).unwrap();
    let mut s = make_solver();
    for _ in 0..3 {
        run(&mut s, 10);
        store.save_chunked(&s.capture_chunked()).unwrap();
    }

    // Damage the newest checkpoint (step 30): flip a payload bit on disk.
    let (newest_step, newest) = store.latest().unwrap().expect("store has checkpoints");
    assert_eq!(newest_step, 30);
    assert_eq!(newest, store.path_for(30));
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 1;
    std::fs::write(&newest, &bytes).unwrap();
    match ChunkedCheckpoint::read(&mut bytes.as_slice()) {
        Err(CheckpointError::Corrupt(_)) => {}
        other => panic!("damaged file not flagged: {other:?}"),
    }

    // Restart: fall back to step 20 and replay the last 10 steps.
    let (ck, skipped) = store
        .load_latest_valid_any()
        .unwrap()
        .expect("a valid checkpoint survives");
    assert_eq!(ck.step, 20);
    assert_eq!(skipped, vec![store.path_for(30)]);
    let mut resumed = make_solver();
    resumed.restore_chunked_state(&ck).unwrap();
    run(&mut resumed, 10);

    assert_eq!(straight.capture(), resumed.capture());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_of_3d_solver_roundtrips() {
    let spec = CaseSpec {
        case: CaseKind::Cavity,
        lattice: LatticeKind::D3Q19,
        nx: 8,
        ny: 8,
        nz: 8,
        tau: 0.8,
        u_lattice: 0.01,
        storage: StorageScheme::Ab,
        time_block: 1,
    };
    let mut s = spec.build(ThreadPool::new(1), Recorder::disabled()).unwrap();
    run(&mut s, 5);
    let ck = s.capture_chunked();
    let back = through_codec(&ck);
    assert_eq!(back.chunks[0].data.len(), 8 * 8 * 8 * 19);
    assert_eq!(back, ck);
    // The codec's chunk order and the solver's SoA order describe one state.
    let mut fresh = spec.build(ThreadPool::new(1), Recorder::disabled()).unwrap();
    fresh.restore_chunked_state(&back).unwrap();
    assert_eq!(fresh.capture(), s.capture());
}

/// Reshard equivalence matrix: a chunked (v3) checkpoint taken on N ranks
/// resumes on M ranks for every (N, M) in {1,2,4} × {1,2,6}, and the resumed
/// trajectory matches the uninterrupted one within dispatch tolerance — for
/// AB storage and for AA captured mid-cycle (odd step, the parity that must
/// reshard through the canonical form).
#[test]
fn reshard_matrix_resumes_on_any_rank_count() {
    use swlb_comm::World;
    use swlb_core::collision::CollisionKind;
    use swlb_sim::{DistributedSolver, ExchangeMode};

    let global = GridDims::new2d(20, 16);
    let mut flags = FlagField::new(global);
    flags.set_box_walls();
    flags.paint_lid([0.05, 0.0, 0.0]);
    let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
    let flags_ref = &flags;
    let tol = 1e-14_f64.max(swlb_core::simd::dispatch_tolerance() * 100.0);

    let run_world = |ranks: usize,
                     scheme: StorageScheme,
                     resume_from: Option<&swlb_io::chunked::ChunkedCheckpoint>,
                     steps: u64| {
        World::new(ranks)
            .run(|comm| {
                let mut s = DistributedSolver::<D2Q9>::builder(&comm, global, flags_ref, coll)
                    .exchange(ExchangeMode::OnTheFly)
                    .storage(scheme)
                    .try_build()
                    .unwrap();
                s.initialize_uniform(1.0, [0.0; 3]);
                if let Some(ck) = resume_from {
                    s.restore_chunked(if comm.rank() == 0 { Some(ck) } else { None })
                        .unwrap();
                    assert_eq!(s.step_count(), ck.step);
                }
                s.run(steps).unwrap();
                s.capture_chunked().unwrap()
            })
            .into_iter()
            .flatten()
            .next()
            .expect("rank 0 captures")
    };

    for scheme in [StorageScheme::Ab, StorageScheme::Aa] {
        // Uninterrupted 24-step reference, exported canonically.
        let want = run_world(1, scheme, None, 24).to_soa().unwrap();

        for n in [1usize, 2, 4] {
            // Checkpoint at step 9: odd, so an AA producer is mid-cycle.
            let ck = run_world(n, scheme, None, 9);
            assert_eq!(ck.chunks.len(), n, "one chunk per source rank");

            for m in [1usize, 2, 6] {
                let got = run_world(m, scheme, Some(&ck), 15)
                    .to_soa()
                    .unwrap();
                assert_eq!(got.len(), want.len());
                for (i, (a, b)) in want.iter().zip(&got).enumerate() {
                    assert!(
                        (a - b).abs() <= tol,
                        "{scheme:?} {n}->{m} ranks: element {i}: {a} vs {b}"
                    );
                }
            }
        }
    }
}

/// Degenerate source subdomains: a 5-column domain over a 2x2 rank grid
/// produces chunks only 2–3 cells wide; resuming on 6 ranks slices them
/// narrower still (lnx = 1). The reassembly must stay exact.
#[test]
fn reshard_handles_degenerate_narrow_source_subdomains() {
    use swlb_comm::World;
    use swlb_core::collision::CollisionKind;
    use swlb_sim::{DistributedSolver, ExchangeMode};

    let global = GridDims::new2d(5, 12);
    let mut flags = FlagField::new(global);
    flags.set_box_walls();
    flags.paint_lid([0.05, 0.0, 0.0]);
    let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
    let flags_ref = &flags;
    let tol = 1e-14_f64.max(swlb_core::simd::dispatch_tolerance() * 100.0);

    let run_world =
        |ranks: usize, resume_from: Option<&swlb_io::chunked::ChunkedCheckpoint>, steps: u64| {
            World::new(ranks)
                .run(|comm| {
                    let mut s = DistributedSolver::<D2Q9>::builder(&comm, global, flags_ref, coll)
                        .exchange(ExchangeMode::OnTheFly)
                        .try_build()
                        .unwrap();
                    s.initialize_uniform(1.0, [0.0; 3]);
                    if let Some(ck) = resume_from {
                        s.restore_chunked(if comm.rank() == 0 { Some(ck) } else { None })
                            .unwrap();
                    }
                    s.run(steps).unwrap();
                    s.capture_chunked().unwrap()
                })
                .into_iter()
                .flatten()
                .next()
                .expect("rank 0 captures")
        };

    let want = run_world(1, None, 20).to_soa().unwrap();
    let ck = run_world(4, None, 8);
    assert!(
        ck.chunks.iter().any(|c| c.meta.lnx <= 2),
        "expected a degenerate narrow source chunk: {:?}",
        ck.chunks.iter().map(|c| c.meta).collect::<Vec<_>>()
    );

    for m in [1usize, 6] {
        let got = run_world(m, Some(&ck), 12).to_soa().unwrap();
        for (i, (a, b)) in want.iter().zip(&got).enumerate() {
            assert!(
                (a - b).abs() <= tol,
                "4->{m} ranks: element {i}: {a} vs {b}"
            );
        }
    }
}

/// A depth-2 run checkpointed at a block boundary (step 6 = three complete
/// sweeps) must resume into either scheme and either compatible depth and
/// continue the uninterrupted trajectory: the canonical payload carries no
/// trace of the producer's blocking depth.
#[test]
fn blocked_checkpoint_at_block_boundary_restores_across_schemes_and_depths() {
    let make = |scheme: StorageScheme, k: usize| cavity(20, 16, scheme, k);

    let mut straight = make(StorageScheme::Ab, 2);
    run(&mut straight, 24);

    let mut first = make(StorageScheme::Ab, 2);
    run(&mut first, 6);
    let back = through_codec(&first.capture_chunked());
    assert_eq!(back.step, 6);

    let tol = 1e-14_f64.max(swlb_core::simd::dispatch_tolerance() * 100.0);
    for (scheme, k) in [
        (StorageScheme::Ab, 2usize),
        (StorageScheme::Ab, 4),
        (StorageScheme::Aa, 2),
    ] {
        let mut resumed = make(scheme, k);
        resumed.restore_chunked_state(&back).unwrap();
        run(&mut resumed, 18);
        assert_eq!(resumed.step_count(), 24);
        assert_fluid_close(&straight, &resumed, tol, &format!("resume into {scheme:?} k={k}"));
    }
}

/// The reshard matrix under temporal blocking: depth-2 producers checkpoint
/// at a block boundary (step 10) and depth-2 consumers of any rank count
/// resume the trajectory. Restore resets the intra-block phase, so the first
/// resumed step re-pays the deep exchange before reading any ghost.
#[test]
fn reshard_matrix_resumes_blocked_runs_on_any_rank_count() {
    use swlb_comm::World;
    use swlb_core::collision::CollisionKind;
    use swlb_sim::{DistributedSolver, ExchangeMode};

    let global = GridDims::new2d(20, 16);
    let mut flags = FlagField::new(global);
    flags.set_box_walls();
    flags.paint_lid([0.05, 0.0, 0.0]);
    let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
    let flags_ref = &flags;
    let tol = 1e-14_f64.max(swlb_core::simd::dispatch_tolerance() * 100.0);

    let run_world = |ranks: usize,
                     scheme: StorageScheme,
                     resume_from: Option<&swlb_io::chunked::ChunkedCheckpoint>,
                     steps: u64| {
        World::new(ranks)
            .run(|comm| {
                let mut s = DistributedSolver::<D2Q9>::builder(&comm, global, flags_ref, coll)
                    .exchange(ExchangeMode::OnTheFly)
                    .storage(scheme)
                    .time_block(2)
                    .try_build()
                    .unwrap();
                s.initialize_uniform(1.0, [0.0; 3]);
                if let Some(ck) = resume_from {
                    s.restore_chunked(if comm.rank() == 0 { Some(ck) } else { None })
                        .unwrap();
                    assert_eq!(s.step_count(), ck.step);
                }
                s.run(steps).unwrap();
                s.capture_chunked().unwrap()
            })
            .into_iter()
            .flatten()
            .next()
            .expect("rank 0 captures")
    };

    for scheme in [StorageScheme::Ab, StorageScheme::Aa] {
        let want = run_world(1, scheme, None, 24).to_soa().unwrap();
        for n in [1usize, 2, 4] {
            let ck = run_world(n, scheme, None, 10);
            assert_eq!(ck.chunks.len(), n, "one chunk per source rank");
            for m in [1usize, 2, 6] {
                let got = run_world(m, scheme, Some(&ck), 14)
                    .to_soa()
                    .unwrap();
                for (i, (a, b)) in want.iter().zip(&got).enumerate() {
                    assert!(
                        (a - b).abs() <= tol,
                        "blocked {scheme:?} {n}->{m} ranks: element {i}: {a} vs {b}"
                    );
                }
            }
        }
    }
}

#[test]
fn aa_mid_parity_checkpoint_restores_across_schemes() {
    // Capture an AA solver at odd step count (Streamed parity, the "hard"
    // half of the AA cycle). The canonical payload must restore into a fresh
    // solver of EITHER scheme and continue the same trajectory.
    use swlb_io::checkpoint::SCHEME_AA;

    let make = |scheme: StorageScheme| cavity(20, 16, scheme, 1);

    let mut straight = make(StorageScheme::Aa);
    run(&mut straight, 24);

    let mut first = make(StorageScheme::Aa);
    run(&mut first, 9);
    let CaseSolver::D2(serial) = &first else {
        panic!("a width-1 D2Q9 case is a serial solver");
    };
    assert_eq!(serial.parity(), Some(AaParity::Streamed));
    let back = through_codec(&first.capture_chunked());
    assert_eq!((back.scheme, back.step), (SCHEME_AA, 9));

    let tol = swlb_core::simd::dispatch_tolerance() * 100.0;
    for scheme in [StorageScheme::Aa, StorageScheme::Ab] {
        let mut resumed = make(scheme);
        resumed.restore_chunked_state(&back).unwrap();
        run(&mut resumed, 15);
        assert_eq!(resumed.step_count(), 24);
        assert_fluid_close(&straight, &resumed, tol, &format!("resume into {scheme:?}"));
    }
}
