//! Observability acceptance suite: the three end-to-end guarantees the
//! `swlb-obs` facade makes.
//!
//! 1. **Disabled is free**: a solver built without a recorder performs zero
//!    heap allocations per step (asserted with a counting global allocator),
//!    and a checkpoint moves between the solver's storage and its chunk
//!    without staging a copy of the lattice.
//! 2. **Exports are well-formed**: an instrumented run emits structurally
//!    valid JSONL with the documented keys (`docs/OBSERVABILITY.md`).
//! 3. **Counters tell the truth**: a live run's step counter and
//!    `kernel_class` gauge agree with the solver; after a chaos run with
//!    injected faults, the recovery counters agree with the
//!    [`RecoveryReport`] the recovery driver returns, and the halo retry
//!    counter reflects the healed fault.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use swlb_comm::{ChaosComm, Communicator, FaultPlan, World};
use swlb_core::collision::{BgkParams, CollisionKind};
use swlb_core::flags::FlagField;
use swlb_core::geometry::GridDims;
use swlb_core::lattice::D2Q9;
use swlb_core::layout::PopField;
use swlb_core::prelude::Solver;
use swlb_io::CheckpointStore;
use swlb_sim::prelude::{JsonlSink, Recorder};
use swlb_sim::{
    run_with_recovery_instrumented, CaseKind, CaseSpec, DistributedSolver, ExchangeMode,
    HaloRetry, LatticeKind, RecoveryPolicy,
};

// ---------------------------------------------------------------------------
// Counting allocator. Per-thread counters keep the zero-allocation assertion
// immune to the other tests in this binary running on sibling threads; each
// thread also keeps the bytes it has allocated (a `realloc` counts its whole
// new block) and the largest single allocation it has made. The `const`
// initializers matter: they make the TLS slots allocation-free, so the hook
// cannot recurse into itself.
// ---------------------------------------------------------------------------

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
    static THREAD_LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count(size: usize) {
    THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
    THREAD_BYTES.with(|c| c.set(c.get() + size as u64));
    THREAD_LARGEST.with(|c| c.set(c.get().max(size)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

/// Run `f` and return its result and the bytes it allocated on this thread.
fn bytes_allocated<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = THREAD_BYTES.with(|c| c.get());
    let out = f();
    (out, THREAD_BYTES.with(|c| c.get()) - before)
}

/// Run `f` and return its result, the allocations it made on this thread and
/// the size in bytes of the largest of them.
fn measured<T>(f: impl FnOnce() -> T) -> (T, u64, usize) {
    THREAD_LARGEST.with(|c| c.set(0));
    let before = thread_allocs();
    let out = f();
    (out, thread_allocs() - before, THREAD_LARGEST.with(|c| c.get()))
}

/// Guarantee 1: with the default (disabled) recorder, the instrumented
/// `Solver::step` allocates nothing — observability off costs nothing.
#[test]
fn disabled_recorder_step_makes_no_allocations() {
    let dims = GridDims::new2d(24, 24);
    let mut s = Solver::<D2Q9>::builder(dims, BgkParams::from_tau(0.8)).build();
    s.flags_mut().set_box_walls();
    s.flags_mut().paint_lid([0.05, 0.0, 0.0]);
    s.initialize_uniform(1.0, [0.0; 3]);
    assert!(!s.recorder().is_enabled());

    // Warm up: the first step builds the cached row mask and active-cell count.
    s.run(3);

    let before = thread_allocs();
    s.run(32);
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state step with a disabled recorder must not allocate"
    );
    assert_eq!(s.step_count(), 35);
}

/// Guarantee 1, for the divergence check: on a 2-thread pool,
/// `Solver::run_checked` allocates nothing in steady state — under AB, and
/// under AA with and without temporal blocking — and `Solver::macroscopic`
/// under AA allocates its two output vectors and nothing else, at either
/// parity.
#[test]
fn run_checked_allocates_nothing_and_macroscopic_only_its_output() {
    use swlb_core::lattice::D3Q19;
    use swlb_core::layout::StorageScheme;
    use swlb_core::parallel::ThreadPool;

    for (scheme, k) in [
        (StorageScheme::Ab, 1),
        (StorageScheme::Aa, 1),
        (StorageScheme::Aa, 2),
    ] {
        let dims = GridDims::new(12, 10, 8);
        let mut s = Solver::<D3Q19>::builder(dims, BgkParams::from_tau(0.8))
            .storage(scheme)
            .time_block(k)
            .pool(ThreadPool::new(2))
            .build();
        s.flags_mut().set_box_walls();
        s.flags_mut().paint_lid([0.05, 0.0, 0.0]);
        s.initialize_uniform(1.0, [0.0; 3]);
        // Warm up: the first step builds the interior index.
        s.run_checked(4, 1).unwrap();

        let before = thread_allocs();
        s.run_checked(8, 2).unwrap();
        let allocs = thread_allocs() - before;
        assert_eq!(allocs, 0, "{scheme:?} k={k}: run_checked allocated");

        if scheme == StorageScheme::Aa {
            for steps in [0, 1] {
                s.run(steps);
                let before = thread_allocs();
                let m = s.macroscopic();
                let allocs = thread_allocs() - before;
                assert!(!m.has_non_finite());
                assert_eq!(allocs, 2, "{scheme:?} k={k} at {:?}", s.parity());
            }
        }
    }
}

/// Guarantee 1, distributed: with metrics off, the steady-state
/// `DistributedSolver::step` — halo pack, framing, buffered send/receive,
/// pooled inner-rectangle dispatch, boundary ring — performs zero heap
/// allocations on the rank thread, for both storage schemes and for blocked
/// (k = 2) as well as per-step (k = 1) exchange. The warm-up steps let every
/// reusable buffer (frame buffers, the world's payload freelist, channel
/// queues, the unexpected-message stash) reach its steady capacity.
#[test]
fn distributed_steady_state_step_makes_no_allocations() {
    use swlb_core::lattice::D3Q19;
    use swlb_core::layout::StorageScheme;
    use swlb_core::parallel::ThreadPool;

    let global = GridDims::new(8, 4, 4);
    let mut flags = FlagField::new(global);
    flags.set_box_walls();
    flags.paint_lid([0.04, 0.0, 0.0]);
    let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));

    let flags_ref = &flags;
    for (scheme, k) in [
        (StorageScheme::Ab, 1),
        (StorageScheme::Ab, 2),
        (StorageScheme::Aa, 1),
        (StorageScheme::Aa, 2),
    ] {
        // Shown only when an assertion below fails: names the failing input.
        println!("input: {scheme:?}, time_block {k}");
        let out = World::new(2).run(|comm| {
            let mut s = DistributedSolver::<D3Q19>::builder(&comm, global, flags_ref, coll)
                .exchange(ExchangeMode::OnTheFly)
                .storage(scheme)
                .time_block(k)
                .pool(ThreadPool::new(2).with_tile_z(2))
                .build();
            assert!(!s.recorder().is_enabled());
            s.initialize_uniform(1.0, [0.0; 3]);
            s.run(30).unwrap();

            // Every remaining allocation is a one-time capacity growth (a
            // freelist or queue hitting a new concurrency high-water mark),
            // monotone toward a finite ceiling — so keep warming until a full
            // window is clean on EVERY rank. The break must be collective
            // (allreduce over the window counts): a rank that stopped
            // stepping alone would starve its neighbor's halo receives. The
            // reduction itself allocates, but sits outside the measured
            // window.
            let mut allocs = u64::MAX;
            for _ in 0..10 {
                let before = thread_allocs();
                s.run(20).unwrap();
                allocs = thread_allocs() - before;
                let worst = comm.allreduce_max(&[allocs as f64]).unwrap()[0];
                if worst == 0.0 {
                    break;
                }
            }
            allocs
        });
        for (rank, allocs) in out.iter().enumerate() {
            assert_eq!(
                *allocs, 0,
                "rank {rank}: distributed stepping with metrics off must reach a \
                 zero-allocation steady state (20 consecutive allocation-free steps)"
            );
        }
    }
}

/// A rank is one `Solver` over its halo-padded local grid: building one
/// allocates its population grids (two under AB, one under AA), two flag
/// fields (the solver's all-fluid default and the rank's cut that replaces
/// it, a byte per padded cell and a kind table each) and at most 4 KiB
/// besides — no third flag field, no interior index, no second grid.
/// Bytes are counted on each rank's own thread, 64³ D3Q19 on 2 ranks, with
/// 1- and 2-deep rings.
#[test]
fn building_a_rank_allocates_its_grids_and_little_else() {
    use swlb_core::lattice::D3Q19;
    use swlb_core::layout::StorageScheme;

    let table = std::mem::size_of::<[swlb_core::boundary::NodeKind; 256]>() as u64;
    let global = GridDims::new(64, 64, 64);
    let mut flags = FlagField::new(global);
    flags.set_box_walls();
    flags.paint_lid([0.04, 0.0, 0.0]);
    let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
    let flags_ref = &flags;
    for (scheme, grids) in [(StorageScheme::Ab, 2u64), (StorageScheme::Aa, 1)] {
        for k in [1, 2] {
            let out = World::new(2).run(|comm| {
                let (s, bytes) = bytes_allocated(|| {
                    DistributedSolver::<D3Q19>::builder(&comm, global, flags_ref, coll)
                        .storage(scheme)
                        .time_block(k)
                        .build()
                });
                (s.local_flags().dims().cells() as u64, bytes)
            });
            for (rank, (cells, bytes)) in out.iter().enumerate() {
                let bound = (grids * 19 * 8 + 2) * cells + 2 * table + 4096;
                assert!(
                    *bytes <= bound,
                    "{scheme:?} k={k} rank {rank}: building allocated {bytes} B, \
                     bound {bound} B for {cells} padded cells"
                );
            }
        }
    }
}

/// A rank's recorder carries the metric names it has always carried, and
/// nothing of the solver inside it: after 4 steps on 2 ranks with 2-thread
/// pools, `steps` reads 4 (the step is counted once, not once per layer) and
/// there is no `pool.busy_share`.
#[test]
fn rank_recorder_keeps_its_metric_names_and_counts_each_step_once() {
    use swlb_core::lattice::D3Q19;
    use swlb_core::parallel::ThreadPool;

    let global = GridDims::new(12, 8, 6);
    let mut flags = FlagField::new(global);
    flags.set_box_walls();
    flags.paint_lid([0.04, 0.0, 0.0]);
    let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
    let flags_ref = &flags;
    let snaps = World::new(2).run(|comm| {
        let rec = Recorder::enabled();
        let mut s = DistributedSolver::<D3Q19>::builder(&comm, global, flags_ref, coll)
            .pool(ThreadPool::new(2))
            .recorder(rec.clone())
            .build();
        s.initialize_uniform(1.0, [0.0; 3]);
        s.run(4).unwrap();
        rec.snapshot(s.step_count()).expect("recorder is enabled")
    });
    for (rank, snap) in snaps.iter().enumerate() {
        // A snapshot lists each kind of metric name-sorted.
        let counters: Vec<&str> = snap.counters.iter().map(|(k, _)| k.as_str()).collect();
        let gauges: Vec<&str> = snap.gauges.iter().map(|(k, _)| k.as_str()).collect();
        let histograms: Vec<&str> = snap.histograms.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            counters,
            [
                "halo.bytes",
                "halo.corrupt",
                "halo.messages",
                "halo.retries",
                "halo.timeouts",
                "steps"
            ],
            "rank {rank}"
        );
        assert_eq!(gauges, ["kernel_class", "mlups"], "rank {rank}");
        assert_eq!(histograms, ["halo.latency_us"], "rank {rank}");
        assert_eq!(snap.counter("steps"), Some(4), "rank {rank}");
        assert_eq!(snap.gauge("pool.busy_share"), None, "rank {rank}");
        assert!(snap.gauge("mlups").is_some_and(|v| v > 0.0), "rank {rank}");
    }
}

/// A 12×10×8 D3Q19 lid-driven cavity case on a 2-thread pool.
fn cavity_case(storage: swlb_core::layout::StorageScheme) -> swlb_sim::CaseSolver {
    let spec = CaseSpec {
        case: CaseKind::Cavity,
        lattice: LatticeKind::D3Q19,
        nx: 12,
        ny: 10,
        nz: 8,
        tau: 0.8,
        u_lattice: 0.05,
        storage,
        time_block: 1,
    };
    let pool = swlb_core::parallel::ThreadPool::new(2);
    spec.build(pool, Recorder::disabled()).unwrap()
}

/// Guarantee 1, for checkpoint capture: `CaseSolver::capture_chunked` packs
/// the chunk straight from the storage's runs, so under AA, at either parity,
/// it makes exactly the allocations it makes under AB — no canonical copy of
/// the lattice.
#[test]
fn case_capture_allocates_the_same_under_aa_as_under_ab() {
    use swlb_core::layout::StorageScheme;

    let mut ab = cavity_case(StorageScheme::Ab);
    ab.run_checked(3, 3).unwrap();
    let (_, want, _) = measured(|| ab.capture_chunked());
    let mut aa = cavity_case(StorageScheme::Aa);
    // 3 steps end at the Streamed parity, 4 at Reversed.
    for steps in [3, 1] {
        aa.run_checked(steps, steps).unwrap();
        let (_, allocs, _) = measured(|| aa.capture_chunked());
        assert_eq!(allocs, want, "AA after {} steps", aa.step_count());
    }
}

/// Guarantee 1, for checkpoint restore: `CaseSolver::restore_chunked_state`
/// lands the chunks straight into the raw grid, so no single allocation it
/// makes is as large as one lattice — under AB and under AA.
#[test]
fn case_restore_stages_no_lattice_sized_copy() {
    use swlb_core::layout::StorageScheme;

    for scheme in [StorageScheme::Ab, StorageScheme::Aa] {
        let mut s = cavity_case(scheme);
        s.run_checked(3, 3).unwrap();
        let ck = s.capture_chunked();
        s.run_checked(2, 2).unwrap();
        let lattice = s.dims().cells() * s.q() as usize * std::mem::size_of::<f64>();
        let (restored, _, largest) = measured(|| s.restore_chunked_state(&ck));
        restored.unwrap();
        assert!(
            largest < lattice,
            "{scheme:?}: restore made a {largest} B allocation, one lattice is {lattice} B"
        );
        assert_eq!(s.step_count(), 3);
        assert_eq!(s.capture_chunked(), ck, "{scheme:?}: restore lands the checkpoint");
    }
}

/// A checkpoint load holds the lattice twice: the file's bytes and the
/// chunks decoded straight from them. Loading a saved 64³ D3Q19 checkpoint
/// allocates less than 2.5× the file's size, so no member is copied out of
/// the file before it is decoded.
#[test]
fn checkpoint_load_decodes_each_chunk_once_from_the_file() {
    use swlb_core::layout::StorageScheme;

    let spec = CaseSpec {
        case: CaseKind::Cavity,
        lattice: LatticeKind::D3Q19,
        nx: 64,
        ny: 64,
        nz: 64,
        tau: 0.8,
        u_lattice: 0.05,
        storage: StorageScheme::Ab,
        time_block: 1,
    };
    let pool = swlb_core::parallel::ThreadPool::new(2);
    let mut s = spec.build(pool, Recorder::disabled()).unwrap();
    s.run_checked(2, 2).unwrap();
    let ck = s.capture_chunked();
    drop(s);
    let dir = std::env::temp_dir().join(format!("swlb-obs-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir, 1).unwrap();
    let file = std::fs::metadata(store.save_chunked(&ck).unwrap()).unwrap().len();

    let (loaded, bytes) = bytes_allocated(|| store.load_latest_valid_any());
    let (back, skipped) = loaded.unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(skipped.is_empty());
    assert_eq!(back, ck);
    let ratio = bytes as f64 / file as f64;
    assert!(ratio < 2.5, "loading a {file} B checkpoint allocated {bytes} B ({ratio:.2}×)");
}

/// A distributed capture moves each rank's packed chunk to rank 0 without
/// copying it: on 2 ranks no rank allocates 1.5× its own chunk's bytes.
#[test]
fn distributed_capture_packs_each_chunk_once() {
    use swlb_core::lattice::D3Q19;

    let global = GridDims::new(32, 16, 16);
    let mut flags = FlagField::new(global);
    flags.set_box_walls();
    flags.paint_lid([0.04, 0.0, 0.0]);
    let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
    let flags_ref = &flags;
    let out = World::new(2).run(|comm| {
        let mut s = DistributedSolver::<D3Q19>::builder(&comm, global, flags_ref, coll).build();
        s.initialize_uniform(1.0, [0.0; 3]);
        s.run(2).unwrap();
        let (ck, bytes) = bytes_allocated(|| s.capture_chunked().unwrap());
        let meta = s.partition().chunk_meta(comm.rank());
        let own = (meta.lnx * meta.lny) as u64 * global.nz as u64 * 19 * 8;
        (ck, bytes, own)
    });
    let ck = out[0].0.as_ref().expect("rank 0 holds the capture");
    assert_eq!(ck.chunks.len(), 2);
    for (rank, (_, bytes, own)) in out.iter().enumerate() {
        assert_eq!(ck.chunks[rank].data.len() as u64 * 8, *own, "rank {rank}");
        let ratio = *bytes as f64 / *own as f64;
        assert!(ratio < 1.5, "rank {rank}: capture allocated {bytes} B for a {own} B chunk");
    }
}

/// A flag costs one byte per cell: painting a 64³ cavity's flags for its
/// solver, and cutting a rank's halo-padded field from them, make no
/// allocation larger than one byte per cell of the field built.
#[test]
fn flag_fields_cost_a_byte_per_cell() {
    use swlb_core::lattice::D3Q19;
    use swlb_sim::Partition2d;

    let dims = GridDims::new(64, 64, 64);
    let (flags, _, largest) = measured(|| {
        let mut f = FlagField::new(dims);
        f.set_box_walls();
        f.paint_lid([0.05, 0.0, 0.0]);
        f
    });
    assert!(largest <= dims.cells(), "painting allocated {largest} B");
    let mut s = Solver::<D3Q19>::builder(dims, BgkParams::from_tau(0.8)).build();
    *s.flags_mut() = flags.clone();
    s.initialize_uniform(1.0, [0.0; 3]);
    s.try_step().unwrap();
    assert_eq!(s.active_cells(), 62 * 62 * 62);

    let p = Partition2d::new(dims, 2).unwrap();
    for h in [1, 2] {
        let (local, _, largest) = measured(|| p.local_flags_h(1, &flags, h));
        let cells = local.dims().cells();
        assert!(largest <= cells, "h={h}: {largest} B for {cells} cells");
    }
}

// ---------------------------------------------------------------------------
// JSONL structural validation (no JSON parser in the dependency tree — a
// brace/bracket balance walk that honors string escapes is enough to reject
// any malformed line).
// ---------------------------------------------------------------------------

fn assert_structurally_valid_json(line: &str) {
    let mut depth_obj = 0i64;
    let mut depth_arr = 0i64;
    let mut in_str = false;
    let mut escaped = false;
    for c in line.chars() {
        if in_str {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => depth_obj += 1,
            '}' => depth_obj -= 1,
            '[' => depth_arr += 1,
            ']' => depth_arr -= 1,
            _ => {}
        }
        assert!(
            depth_obj >= 0 && depth_arr >= 0,
            "unbalanced close in {line}"
        );
    }
    assert!(!in_str, "unterminated string in {line}");
    assert_eq!(depth_obj, 0, "unbalanced braces in {line}");
    assert_eq!(depth_arr, 0, "unbalanced brackets in {line}");
    assert!(line.starts_with('{') && line.ends_with('}'));
}

/// Guarantee 2: an instrumented shared-memory run exports one well-formed
/// JSONL record per flush period, carrying the documented keys.
#[test]
fn enabled_recorder_exports_valid_jsonl() {
    let path = std::env::temp_dir().join(format!("swlb-obs-int-{}.jsonl", std::process::id()));
    let rec = Recorder::enabled();
    rec.add_sink(Box::new(JsonlSink::create(&path).unwrap()));
    rec.set_flush_every(8);

    let dims = GridDims::new2d(16, 16);
    let mut s = Solver::<D2Q9>::builder(dims, BgkParams::from_tau(0.8))
        .recorder(rec.clone())
        .build();
    s.flags_mut().set_box_walls();
    s.flags_mut().paint_lid([0.05, 0.0, 0.0]);
    s.initialize_uniform(1.0, [0.0; 3]);
    s.run(24);

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "24 steps / flush_every 8");
    for line in &lines {
        assert_structurally_valid_json(line);
        assert!(line.contains("\"phases\""), "{line}");
        assert!(line.contains("\"collide_stream\""), "{line}");
        assert!(line.contains("\"counters\""), "{line}");
        assert!(line.contains("\"gauges\""), "{line}");
        assert!(line.contains("\"mlups\""), "{line}");
    }
    assert!(lines[0].starts_with("{\"step\":8,"));
    assert!(lines[2].starts_with("{\"step\":24,"));
    assert!(
        lines[2].contains("\"steps\":24"),
        "step counter reaches the run length"
    );
    std::fs::remove_file(&path).unwrap();
}

/// Guarantee 3, shared memory: after a live D3Q19 run the recorder's step
/// counter equals the run length, and its `kernel_class` gauge names the
/// kernel the solver reports.
#[test]
fn recorder_step_counter_and_kernel_class_agree_with_the_solver() {
    use swlb_core::lattice::D3Q19;

    let rec = Recorder::enabled();
    let mut s = Solver::<D3Q19>::builder(GridDims::new(16, 16, 16), BgkParams::from_tau(0.8))
        .recorder(rec.clone())
        .build();
    s.flags_mut().set_box_walls();
    s.flags_mut().paint_lid([0.05, 0.0, 0.0]);
    s.initialize_uniform(1.0, [0.0; 3]);
    s.run(5);
    s.run(12);
    let snap = rec.snapshot(s.step_count()).expect("recorder is enabled");
    assert_eq!(snap.counter("steps"), Some(17), "step counter vs run length");
    assert_eq!(
        snap.gauge("kernel_class"),
        Some(s.last_kernel_class().as_gauge()),
        "kernel_class gauge vs the dispatch"
    );
}

/// Guarantee 3: after a 2-rank chaos run — one delayed halo message (healed
/// in place by the retry loop) plus one injected divergence (forces a
/// rollback) — every rank's counters agree with its `RecoveryReport`, and the
/// retry counter saw the delay.
#[test]
fn chaos_run_counters_match_recovery_report() {
    let global = GridDims::new2d(12, 12);
    let mut flags = FlagField::new(global);
    flags.set_box_walls();
    flags.paint_lid([0.05, 0.0, 0.0]);
    let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));

    let plan = Arc::new(FaultPlan::new(0xAB5).delay_message(0, 1, 3, Duration::from_millis(80)));
    let dir = std::env::temp_dir().join(format!("swlb-obs-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir, 3).unwrap();

    let (flags_ref, store_ref) = (&flags, &store);
    let out = World::new(2).run_chaos(&plan, |comm| {
        let rec = Recorder::enabled();
        let mut s = DistributedSolver::<D2Q9, ChaosComm>::builder(&comm, global, flags_ref, coll)
            .exchange(ExchangeMode::Sequential)
            .recorder(rec.clone())
            .build();
        s.initialize_uniform(1.0, [0.0; 3]);
        s.set_halo_retry(HaloRetry::snappy());
        let policy = RecoveryPolicy {
            checkpoint_every: 4,
            backoff: Duration::from_millis(1),
            status_timeout: Duration::from_secs(10),
            ..Default::default()
        };
        let mut injected = false;
        let report = run_with_recovery_instrumented(&mut s, 12, &policy, store_ref, |s| {
            if !injected && s.rank() == 0 && s.step_count() == 6 {
                injected = true;
                let dims = s.local_flags().dims();
                let cell = dims.idx(2, 2, 0);
                s.local_populations_mut().set(cell, 0, f64::NAN);
            }
        })
        .unwrap();
        let snap = rec.snapshot(report.steps_completed).unwrap();
        (comm.rank(), report, snap)
    });

    let mut total_retries = 0u64;
    for (rank, report, snap) in &out {
        assert_eq!(report.steps_completed, 12, "rank {rank}");
        assert!(report.restarts >= 1, "the NaN injection forces a rollback");
        assert_eq!(
            snap.counter("recovery.rollbacks"),
            Some(report.restarts as u64),
            "rank {rank}"
        );
        assert_eq!(
            snap.counter("recovery.wasted_steps"),
            Some(report.wasted_steps),
            "rank {rank}"
        );
        if *rank == 0 {
            assert_eq!(
                snap.counter("recovery.checkpoints"),
                Some(report.checkpoints_written),
                "rank 0 writes the checkpoints"
            );
            assert!(report.checkpoints_written >= 1);
        }
        total_retries += snap.counter("halo.retries").unwrap_or(0);
    }
    assert!(
        total_retries >= 1,
        "the delayed halo message must show up in the retry counter"
    );
    std::fs::remove_dir_all(store.dir()).unwrap();
}
