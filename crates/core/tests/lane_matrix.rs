//! The core-level lane × tile × scheme matrix of the one interior loop nest.
//!
//! Every lane policy, every z-tile extent (none, sub-lane, odd, the default,
//! larger than the grid) and every sweep flavor (AB, AA odd, AA even) must
//! reproduce the generic reference kernel on two geometries — one whose
//! interior obstacles split runs mid-pencil, one whose plates cut every
//! pencil into runs of every length 1..=9, so a full lane is followed by
//! every possible width-1 remainder (0..=7 cells) — bit-for-bit under the
//! scalar-semantics policies, within `dispatch_tolerance()` under the FMA
//! lanes.
//!
//! The lane policy is process-global, so this matrix is the only test of its
//! binary.

use swlb_core::boundary::NodeKind;
use swlb_core::collision::{BgkParams, CollisionKind};
use swlb_core::flags::FlagField;
use swlb_core::geometry::GridDims;
use swlb_core::kernels::{fused_step, initialize_with, reverse_planes, InteriorIndex};
use swlb_core::lattice::{Lattice, D3Q19};
use swlb_core::layout::{AaParity, PopField, SoaField, Storage};
use swlb_core::parallel::ThreadPool;
use swlb_core::simd::{dispatch_tolerance, set_lane_policy, KernelClass, LanePolicy};

type Field = SoaField<D3Q19>;

fn assert_close(
    flags: &FlagField,
    want: &Field,
    got: &Field,
    fluid_only: bool,
    tol: f64,
    what: &str,
) {
    for cell in 0..want.cells() {
        if fluid_only && !flags.kind(cell).is_fluid() {
            continue; // AA solid slots are bounce-back mailboxes
        }
        for q in 0..D3Q19::Q {
            let (w, g) = (want.get(cell, q), got.get(cell, q));
            assert!(
                (w - g).abs() <= tol,
                "{what}: cell {cell} q {q}: generic {w} vs {g} (tol {tol:e})"
            );
        }
    }
}

/// nz − 2 = 19 interior cells per pencil: full 8- and 4-wide lanes plus
/// remainders, re-cut by every tile extent; two obstacles split runs.
fn split_run_cavity() -> FlagField {
    let mut flags = FlagField::new(GridDims::new(9, 7, 21));
    flags.set_box_walls();
    flags.paint_lid([0.05, 0.0, 0.0]);
    flags.set(4, 3, 10, NodeKind::Wall);
    flags.set(3, 2, 5, NodeKind::Wall);
    flags.set(3, 2, 6, NodeKind::Wall);
    flags
}

/// A cavity cut by z-plates so that every pencil holds interior runs of
/// length 1, 2, …, 9 (a plate and the two cell layers that pull from it lie
/// between consecutive runs).
fn every_run_length_cavity() -> FlagField {
    let lengths = 1..=9usize;
    let nz = lengths.clone().sum::<usize>() + 3 * (lengths.clone().count() - 1) + 4;
    let dims = GridDims::new(9, 7, nz);
    let mut flags = FlagField::new(dims);
    flags.set_box_walls();
    flags.paint_lid([0.05, 0.0, 0.0]);
    let mut z = 2; // first interior layer above the z = 0 wall
    for len in lengths {
        z += len + 1; // the run, then the layer that pulls from the plate
        if z < nz - 1 {
            for (x, y) in (0..dims.nx).flat_map(|x| (0..dims.ny).map(move |y| (x, y))) {
                flags.set(x, y, z, NodeKind::Wall);
            }
        }
        z += 2;
    }
    let interior = InteriorIndex::build::<D3Q19>(&flags);
    let mut seen = [false; 10];
    for p in 0..dims.nx * dims.ny {
        for &(a, b) in interior.runs().pencil(p) {
            seen[(b - a) as usize] = true;
        }
    }
    assert_eq!(
        seen,
        [false, true, true, true, true, true, true, true, true, true]
    );
    flags
}

#[test]
fn every_lane_tile_and_scheme_matches_the_generic_kernel() {
    for flags in [split_run_cavity(), every_run_length_cavity()] {
        matrix_matches_the_generic_kernel(&flags);
    }
    set_lane_policy(LanePolicy::Auto);
}

fn matrix_matches_the_generic_kernel(flags: &FlagField) {
    let dims = flags.dims();
    let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
    let interior = InteriorIndex::build::<D3Q19>(flags);

    // Canonical states after 0, 1 and 2 steps of the generic kernel.
    let mut step0 = Field::new(dims);
    initialize_with::<D3Q19, _>(&ThreadPool::new(1), flags, &mut step0, |x, y, z| {
        let v = 0.01 * ((x * 7 + y * 3 + z) % 11) as f64;
        (1.0 + v, [v * 0.1, -v * 0.05, 0.02 * v])
    });
    let mut step1 = Field::new(dims);
    fused_step(flags, &step0, &mut step1, &coll);
    let mut step2 = Field::new(dims);
    fused_step(flags, &step1, &mut step2, &coll);

    // The AA inputs: step 0 in the Reversed state, step 1 in the Streamed
    // state (one odd half-step of the generic AA body — no lane involved).
    let mut reversed = step0.clone();
    reverse_planes::<D3Q19>(&mut reversed);
    let mut streamed = reversed.clone();
    let one = ThreadPool::new(1);
    one.aa_fused_step::<D3Q19>(flags, &mut streamed, &coll, AaParity::Reversed, None);

    for policy in [
        LanePolicy::ForceScalar,
        LanePolicy::ForcePortable,
        LanePolicy::ForceAvx2,
        LanePolicy::ForceAvx512,
        LanePolicy::Auto,
    ] {
        set_lane_policy(policy);
        let tol = dispatch_tolerance();
        if matches!(policy, LanePolicy::ForceScalar | LanePolicy::ForcePortable) {
            assert_eq!(tol, 0.0, "{policy:?} has scalar semantics");
        }
        for tile_z in [0, 1, 3, 70, dims.nz + 5] {
            for threads in [1, 3] {
                let pool = ThreadPool::new(threads).with_tile_z(tile_z);
                let what =
                    |scheme: &str| format!("{scheme} {policy:?} tile_z={tile_z} T={threads}");

                let mut ab = Field::new(dims);
                let class = pool.fused_step(flags, &step0, &mut ab, &coll, Some(&interior));
                assert_ne!(class, KernelClass::Generic);
                assert_close(flags, &step1, &ab, false, tol, &what("AB"));

                let mut odd = reversed.clone();
                let class = pool.aa_fused_step::<D3Q19>(
                    flags,
                    &mut odd,
                    &coll,
                    AaParity::Reversed,
                    Some(&interior),
                );
                assert_ne!(class, KernelClass::Generic);
                let odd = Storage::Aa {
                    field: odd,
                    parity: AaParity::Streamed,
                };
                let odd = odd.canonical(&one);
                assert_close(flags, &step1, &odd, true, tol, &what("AA-odd"));

                let mut even = streamed.clone();
                pool.aa_fused_step::<D3Q19>(
                    flags,
                    &mut even,
                    &coll,
                    AaParity::Streamed,
                    Some(&interior),
                );
                let even = Storage::Aa {
                    field: even,
                    parity: AaParity::Reversed,
                };
                let even = even.canonical(&one);
                assert_close(flags, &step2, &even, true, tol, &what("AA-even"));
            }
        }
    }
}
