//! SIMD vs scalar vs generic kernel equivalence — the correctness contract of
//! the vectorized D3Q19 dispatch (paper Fig. 8's vectorization rung).
//!
//! Three kernel classes serve interior BGK cells: the generic per-cell
//! reference, the hand-optimized scalar cell update, and the lane update
//! (portable `[f64; 4]` or AVX2+FMA) — the latter two through the one
//! interior loop nest. The contract:
//!
//! * portable lane ↔ scalar ↔ generic: **bit-exact** (the portable lane uses
//!   unfused multiply-add, so its expression tree rounds identically), for
//!   every tile size, obstacle layout, and rank topology;
//! * AVX2+FMA lane ↔ scalar: within `1e-12` per step (fused multiply-adds
//!   round once where the scalar kernel rounds twice).
//!
//! The lane policy is a process-global knob, so every test that touches it
//! serializes on a mutex and restores `Auto` before releasing it.

use std::sync::Mutex;

use swlb_comm::World;
use swlb_core::collision::{BgkParams, CollisionKind};
use swlb_core::flags::FlagField;
use swlb_core::geometry::GridDims;
use swlb_core::kernels::{fused_step, InteriorIndex};
use swlb_core::lattice::{Lattice, D3Q19};
use swlb_core::layout::{PopField, SoaField};
use swlb_core::parallel::ThreadPool;
use swlb_core::simd::{
    selected_kernel_class, set_lane_policy, simd_available, KernelClass, LanePolicy,
};
use swlb_core::Scalar;
use swlb_sim::engine::{DistributedSolver, ExchangeMode};

/// Serializes lane-policy mutation across this binary's test threads.
static POLICY_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with the process-global lane policy pinned, restoring `Auto`.
fn with_policy<T>(policy: LanePolicy, f: impl FnOnce() -> T) -> T {
    let _guard = POLICY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_lane_policy(policy);
    let out = f();
    set_lane_policy(LanePolicy::Auto);
    out
}

fn init_state(x: usize, y: usize, z: usize) -> (Scalar, [Scalar; 3]) {
    let v = 0.01 * ((x * 7 + y * 3 + z) % 11) as Scalar;
    (1.0 + v, [v * 0.1, -v * 0.05, 0.02 * v])
}

/// A cavity with an off-center obstacle: interior runs of full lane width,
/// sub-lane tails, and a split pencil.
fn obstacle_flags(dims: GridDims) -> FlagField {
    let mut flags = FlagField::new(dims);
    flags.set_box_walls();
    flags.paint_lid([0.05, 0.0, 0.0]);
    flags.set(
        dims.nx / 2,
        dims.ny / 2,
        dims.nz / 2,
        swlb_core::boundary::NodeKind::Wall,
    );
    flags
}

fn serial_step(flags: &FlagField, src: &SoaField<D3Q19>, coll: &CollisionKind) -> SoaField<D3Q19> {
    let mut dst = SoaField::<D3Q19>::new(src.dims());
    fused_step(flags, src, &mut dst, coll);
    dst
}

fn optimized_step(
    flags: &FlagField,
    src: &SoaField<D3Q19>,
    coll: &CollisionKind,
    interior: &InteriorIndex,
    tile_z: usize,
) -> (SoaField<D3Q19>, KernelClass) {
    let dims = src.dims();
    let mut dst = SoaField::<D3Q19>::new(dims);
    let class = ThreadPool::new(1).with_tile_z(tile_z).fused_step(
        flags,
        src,
        &mut dst,
        coll,
        Some(interior),
    );
    (dst, class)
}

fn assert_fields_close(a: &SoaField<D3Q19>, b: &SoaField<D3Q19>, tol: f64, what: &str) {
    for cell in 0..a.dims().cells() {
        for q in 0..D3Q19::Q {
            let (x, y) = (a.get(cell, q), b.get(cell, q));
            assert!(
                (x - y).abs() <= tol,
                "{what}: cell {cell} q {q}: {x} vs {y}"
            );
        }
    }
}

/// Portable lane, per-cell scalar walk, and generic reference agree bit-for-bit
/// for every tile size exercised elsewhere in the suite.
#[test]
fn portable_lane_is_bit_exact_against_scalar_and_generic() {
    let dims = GridDims::new(10, 8, 14);
    let flags = obstacle_flags(dims);
    let mut src = SoaField::<D3Q19>::new(dims);
    swlb_core::kernels::initialize_with::<D3Q19, _>(
        &ThreadPool::new(1),
        &flags,
        &mut src,
        init_state,
    );
    let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
    let interior = InteriorIndex::build::<D3Q19>(&flags);
    let reference = serial_step(&flags, &src, &coll);

    for tile_z in [0usize, 1, 2, 70] {
        let (scalar, sc) = with_policy(LanePolicy::ForceScalar, || {
            optimized_step(&flags, &src, &coll, &interior, tile_z)
        });
        let (portable, pc) = with_policy(LanePolicy::ForcePortable, || {
            optimized_step(&flags, &src, &coll, &interior, tile_z)
        });
        assert_eq!(sc, KernelClass::Scalar);
        assert_eq!(pc, KernelClass::Scalar);
        assert_fields_close(&reference, &scalar, 0.0, &format!("scalar tile_z={tile_z}"));
        assert_fields_close(
            &reference,
            &portable,
            0.0,
            &format!("portable tile_z={tile_z}"),
        );
    }
}

/// The auto-selected native lane stays within the dispatch tolerance of the
/// generic reference — and is bit-exact whenever the host (or `SWLB_NO_SIMD`)
/// leaves it on scalar semantics.
#[test]
fn native_lane_stays_within_dispatch_tolerance() {
    let dims = GridDims::new(9, 9, 16);
    let flags = obstacle_flags(dims);
    let mut src = SoaField::<D3Q19>::new(dims);
    swlb_core::kernels::initialize_with::<D3Q19, _>(
        &ThreadPool::new(1),
        &flags,
        &mut src,
        init_state,
    );
    let coll = CollisionKind::Bgk(BgkParams::from_tau(0.7));
    let interior = InteriorIndex::build::<D3Q19>(&flags);
    let reference = serial_step(&flags, &src, &coll);

    let (native, class) = with_policy(LanePolicy::Auto, || {
        optimized_step(&flags, &src, &coll, &interior, 0)
    });
    let tol = match class {
        KernelClass::Simd => 1e-12,
        _ => 0.0,
    };
    assert_fields_close(&reference, &native, tol, "auto lane vs generic");
    // The reported class must be consistent with what the host offers.
    if class == KernelClass::Simd {
        assert!(simd_available());
    }
}

/// `SWLB_NO_SIMD=1` (how CI pins the fallback) must never select the SIMD
/// class, and in that environment the whole suite runs bit-exact.
#[test]
fn no_simd_env_never_selects_simd_class() {
    if std::env::var("SWLB_NO_SIMD").as_deref() == Ok("1") {
        let _guard = POLICY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert_ne!(selected_kernel_class(), KernelClass::Simd);
    }
}

/// AA-pattern storage must agree with AB under every pinned lane policy —
/// the portable lanes (4- and 8-wide), the per-cell scalar walk, the AVX2+FMA
/// lane, and the 8-wide AVX-512F lane where the host detects `avx512f`
/// (`ForceAvx512` falls back to the bit-identical portable 8-wide lane
/// elsewhere, so the matrix is runnable on any host). Odd step counts end at
/// Streamed parity, even ones Reversed; both are canonicalized for the
/// comparison, fluid cells only (AA wall slots are scatter mailboxes).
#[test]
fn aa_matches_ab_under_every_lane_policy() {
    use swlb_core::layout::StorageScheme;
    use swlb_core::solver::Solver;

    let dims = GridDims::new(12, 10, 14);
    let tol = swlb_core::simd::dispatch_tolerance() * 100.0;
    let flags = obstacle_flags(dims);

    let run = |scheme: StorageScheme, steps: u64| {
        let mut s = Solver::<D3Q19>::builder(dims, BgkParams::from_tau(0.8))
            .storage(scheme)
            .build();
        s.flags_mut().set_box_walls();
        s.flags_mut().paint_lid([0.05, 0.0, 0.0]);
        s.flags_mut().set(
            dims.nx / 2,
            dims.ny / 2,
            dims.nz / 2,
            swlb_core::boundary::NodeKind::Wall,
        );
        s.initialize_field(init_state);
        s.run(steps);
        s.canonical_populations().into_owned()
    };

    for policy in [
        LanePolicy::ForcePortable,
        LanePolicy::ForceScalar,
        LanePolicy::ForceAvx2,
        LanePolicy::ForceAvx512,
        LanePolicy::Auto,
    ] {
        with_policy(policy, || {
            for steps in [4u64, 5] {
                let ab = run(StorageScheme::Ab, steps);
                let aa = run(StorageScheme::Aa, steps);
                for cell in 0..dims.cells() {
                    if flags.kind(cell) != swlb_core::boundary::NodeKind::Fluid {
                        continue;
                    }
                    for q in 0..D3Q19::Q {
                        let (x, y) = (ab.get(cell, q), aa.get(cell, q));
                        assert!(
                            (x - y).abs() <= tol,
                            "{policy:?} steps={steps}: cell {cell} q {q}: {x} vs {y}"
                        );
                    }
                }
            }
        });
    }
}

/// Distributed matrix on the portable lane: bit-exact against the serial
/// generic reference across ranks, schedules, and degenerate subdomains.
#[test]
fn distributed_portable_lane_matches_reference_exactly() {
    with_policy(LanePolicy::ForcePortable, || {
        // Deep z so interior runs reach full lane width; 6 ranks on the small
        // grid produce degenerate subdomains whose inner rectangle is empty.
        for (global, ranks) in [
            (GridDims::new(12, 10, 12), 4usize),
            (GridDims::new(5, 4, 8), 6),
        ] {
            let flags = obstacle_flags(global);
            let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
            let steps = 4u64;
            let mut src = SoaField::<D3Q19>::new(global);
            swlb_core::kernels::initialize_with::<D3Q19, _>(
                &ThreadPool::new(1),
                &flags,
                &mut src,
                init_state,
            );
            let mut dst = SoaField::<D3Q19>::new(global);
            for _ in 0..steps {
                fused_step(&flags, &src, &mut dst, &coll);
                std::mem::swap(&mut src, &mut dst);
            }
            let reference = src;

            for mode in [ExchangeMode::Sequential, ExchangeMode::OnTheFly] {
                let flags_ref = &flags;
                let out = World::new(ranks).run(|comm| {
                    let mut s = DistributedSolver::<D3Q19>::builder(&comm, global, flags_ref, coll)
                        .exchange(mode)
                        .pool(ThreadPool::new(2).with_tile_z(3))
                        .build();
                    s.initialize_with(init_state);
                    s.run(steps).unwrap();
                    s.gather_populations().unwrap()
                });
                let got = out.into_iter().next().unwrap().expect("rank 0 gathers");
                assert_fields_close(
                    &reference,
                    &got,
                    0.0,
                    &format!("portable distributed {mode:?} ranks={ranks}"),
                );
            }
        }
    });
}
