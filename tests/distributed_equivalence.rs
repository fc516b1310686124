//! Cross-crate equivalence: the distributed engine (swlb-sim over swlb-comm)
//! must reproduce the single-domain reference solver (swlb-core) bit-for-bit,
//! for any rank count, exchange schedule, and geometry — including meshes
//! produced by the pre-processing crate (swlb-mesh).

use swlb_comm::World;
use swlb_core::collision::{BgkParams, CollisionKind};
use swlb_core::flags::FlagField;
use swlb_core::geometry::GridDims;
use swlb_core::lattice::{D2Q9, D3Q19, Lattice};
use swlb_core::layout::{PopField, SoaField};
use swlb_core::prelude::Solver;
use swlb_core::Scalar;
use swlb_mesh::{cylinder_z_mask, sphere_mask};
use swlb_sim::{DistributedSolver, ExchangeMode};

fn reference<L: Lattice>(
    global: GridDims,
    flags: &FlagField,
    coll: CollisionKind,
    steps: u64,
    init: impl Fn(usize, usize, usize) -> (Scalar, [Scalar; 3]) + Copy + Sync,
) -> SoaField<L> {
    let mut s = Solver::<L>::builder(global, BgkParams::from_tau(0.8))
        .collision(coll)
        .build();
    *s.flags_mut() = flags.clone();
    s.initialize_field(init);
    s.run(steps);
    s.state().clone()
}

fn compare<L: Lattice>(
    global: GridDims,
    flags: FlagField,
    ranks: usize,
    mode: ExchangeMode,
    steps: u64,
) {
    let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
    let init = |x: usize, y: usize, z: usize| {
        let v = 0.008 * ((x * 5 + y * 11 + z * 3) % 13) as Scalar;
        (1.0 + v, [0.02 + v * 0.1, -v * 0.08, 0.01])
    };
    let want = reference::<L>(global, &flags, coll, steps, init);
    let flags_ref = &flags;
    let got = World::new(ranks).run(|comm| {
        let mut s = DistributedSolver::<L>::builder(&comm, global, flags_ref, coll)
            .exchange(mode)
            .build();
        s.initialize_with(init);
        s.run(steps).unwrap();
        s.gather_populations().unwrap()
    });
    let got = got[0].as_ref().expect("root gathers");
    for cell in 0..global.cells() {
        for q in 0..L::Q {
            let (w, g) = (want.get(cell, q), got.get(cell, q));
            assert!(
                (w - g).abs() < 1e-14,
                "{} ranks={ranks} {mode:?}: cell {cell} q {q}: {w} vs {g}",
                L::NAME
            );
        }
    }
}

#[test]
fn cylinder_mesh_distributed_over_4_ranks() {
    let global = GridDims::new(20, 12, 3);
    let mut flags = FlagField::new(global);
    flags.paint_channel_walls_y();
    flags.paint_inflow_outflow_x(1.0, [0.04, 0.0, 0.0]);
    let mask = cylinder_z_mask(global, 6.0, 6.0, 2.0);
    flags.apply_mask(&mask).unwrap();
    compare::<D3Q19>(global, flags, 4, ExchangeMode::OnTheFly, 6);
}

#[test]
fn sphere_mesh_distributed_over_6_ranks_sequential() {
    let global = GridDims::new(18, 12, 6);
    let mut flags = FlagField::new(global);
    flags.set_box_walls();
    let mask = sphere_mask(global, [9.0, 6.0, 3.0], 2.5);
    flags.apply_mask(&mask).unwrap();
    compare::<D3Q19>(global, flags, 6, ExchangeMode::Sequential, 5);
}

#[test]
fn periodic_2d_many_rank_counts() {
    for ranks in [1usize, 2, 3, 4, 8] {
        let global = GridDims::new2d(16, 12);
        let flags = FlagField::new(global);
        compare::<D2Q9>(global, flags, ranks, ExchangeMode::OnTheFly, 5);
    }
}

#[test]
fn moving_lid_cavity_distributed() {
    let global = GridDims::new2d(14, 14);
    let mut flags = FlagField::new(global);
    flags.set_box_walls();
    flags.paint_lid([0.07, 0.0, 0.0]);
    compare::<D2Q9>(global, flags, 4, ExchangeMode::Sequential, 8);
}

#[test]
fn nebb_boundaries_distributed_match_reference() {
    // Sharp NEBB inlet/outlet across a 4-rank decomposition must stay
    // bit-identical to the single-domain run.
    let global = GridDims::new(16, 10, 3);
    let mut flags = FlagField::new(global);
    flags.paint_channel_walls_y();
    flags.paint_nebb_inflow_outflow_x([0.03, 0.0, 0.0], 1.0);
    compare::<D3Q19>(global, flags, 4, ExchangeMode::OnTheFly, 6);
}

#[test]
fn long_run_stays_in_lockstep() {
    // 30 steps across ranks: any off-by-one in the halo protocol would
    // desynchronize and show up as divergence.
    let global = GridDims::new(12, 10, 4);
    let mut flags = FlagField::new(global);
    flags.set_box_walls();
    compare::<D3Q19>(global, flags, 4, ExchangeMode::OnTheFly, 30);
}

#[test]
fn macroscopic_gather_matches_local_sums() {
    // Global mass from allreduce must equal the mass of the gathered field.
    let global = GridDims::new2d(12, 8);
    let mut flags = FlagField::new(global);
    flags.set_box_walls();
    let coll = CollisionKind::Bgk(BgkParams::from_tau(0.9));
    let flags_ref = &flags;
    let out = World::new(4).run(|comm| {
        let mut s = DistributedSolver::<D2Q9>::builder(&comm, global, flags_ref, coll)
            .exchange(ExchangeMode::Sequential)
            .build();
        s.initialize_uniform(1.0, [0.01, 0.0, 0.0]);
        s.run(5).unwrap();
        let mass = s.global_mass().unwrap();
        (mass, s.gather_populations().unwrap())
    });
    let (mass, field) = (&out[0].0, out[0].1.as_ref().unwrap());
    let m = swlb_core::macroscopic::MacroFields::compute::<D2Q9, _>(&flags, field);
    let gathered_mass = m.total_mass(&flags);
    assert!((mass - gathered_mass).abs() < 1e-9, "{mass} vs {gathered_mass}");
    // Every rank reports the same reduced value.
    for (other, _) in &out {
        assert!((other - mass).abs() < 1e-12);
    }
}
