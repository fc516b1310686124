//! Split (unfused) streaming and collision kernels, and the push-scheme variant.
//!
//! These are the *baselines* of the paper's kernel-fusion study (§IV-C.3, Fig. 8):
//! the original SunwayLB implementation ran propagation and collision as two
//! separate passes over memory, doubling the population traffic (12 + 2 DMA
//! operations per step vs. 10 after fusion). We keep them:
//!
//! * to measure the fusion gain on real hardware (`bench/benches/kernels.rs`),
//! * to drive the DMA-count accounting in `swlb-arch`,
//! * and as an independent implementation that property tests compare against the
//!   fused kernel (two-pass ≡ fused, push ≡ pull).

use crate::boundary::NodeKind;
use crate::collision::{collide, CollisionKind};
use crate::flags::FlagField;
use crate::kernels::{apply_non_fluid, gather_pull, MAX_Q};
use crate::lattice::Lattice;
use crate::layout::PopField;
use crate::Scalar;

/// Pure propagation pass (pull): `dst` receives each cell's incoming populations,
/// with bounce-back and inlet/outlet rules applied, but **no collision**.
pub fn propagate_step<L: Lattice, F: PopField<L>>(flags: &FlagField, src: &F, dst: &mut F) {
    let dims = flags.dims();
    let mut f = [0.0; MAX_Q];
    for [x, y, z] in dims.iter() {
        let this = dims.idx(x, y, z);
        let kind = flags.kind(this);
        if kind.is_fluid() || kind.is_nebb() {
            gather_pull::<L, F>(flags, src, x, y, z, &mut f[..L::Q]);
            crate::kernels::reconstruct_nebb::<L>(&mut f[..L::Q], kind);
            dst.store_cell(this, &f[..L::Q]);
        } else {
            apply_non_fluid::<L, F>(flags, src, dst, x, y, z, kind);
        }
    }
}

/// Pure collision pass: relax every fluid cell of `field` in place.
pub fn collide_step<L: Lattice, F: PopField<L>>(
    flags: &FlagField,
    field: &mut F,
    collision: &CollisionKind,
) {
    let mut f = [0.0; MAX_Q];
    for cell in 0..field.cells() {
        let kind = flags.kind(cell);
        if kind.is_fluid() || kind.is_nebb() {
            field.load_cell(cell, &mut f[..L::Q]);
            collide::<L>(&mut f[..L::Q], collision);
            field.store_cell(cell, &f[..L::Q]);
        }
    }
}

/// Two-pass (unfused) time step: propagate into `dst`, then collide `dst` in place.
/// Bit-for-bit equivalent to the fused kernel; costs one extra sweep over memory.
pub fn split_step<L: Lattice, F: PopField<L>>(
    flags: &FlagField,
    src: &F,
    dst: &mut F,
    collision: &CollisionKind,
) {
    propagate_step::<L, F>(flags, src, dst);
    collide_step::<L, F>(flags, dst, collision);
}

/// Push-scheme fused step: every cell collides its own populations, then scatters
/// them to its neighbors (write distribution instead of read distribution).
///
/// Note the operator ordering: push computes `stream(collide(src))` while the pull
/// kernel computes `collide(stream(src))` — the trajectories coincide but the
/// stored states are offset by half a step. The exact algebraic identity (verified
/// by tests) is `push_step(src) == propagate_step(collide_step(src))`.
///
/// Restrictions: supports `Fluid`, `Wall` and `MovingWall` nodes plus periodic
/// wrap. Inlet/outlet nodes require a pre/post fix-up pass in the push picture and
/// are rejected by a debug assertion — the production code path is pull (the
/// paper's choice, §IV-A, precisely because push needs that extra handling).
pub fn push_step<L: Lattice, F: PopField<L>>(
    flags: &FlagField,
    src: &F,
    dst: &mut F,
    collision: &CollisionKind,
) {
    let dims = flags.dims();
    let mut f = [0.0; MAX_Q];
    for [x, y, z] in dims.iter() {
        let this = dims.idx(x, y, z);
        let kind = flags.kind(this);
        match kind {
            NodeKind::Fluid => {
                src.load_cell(this, &mut f[..L::Q]);
                collide::<L>(&mut f[..L::Q], collision);
                for q in 0..L::Q {
                    let c = L::C[q];
                    let [nx, ny, nz] = dims.neighbor_periodic(x, y, z, c);
                    let n = dims.idx(nx, ny, nz);
                    match flags.kind(n) {
                        NodeKind::Wall => {
                            // Particle headed into the wall returns to this cell
                            // with reversed velocity next step.
                            dst.set(this, L::OPP[q], f[q]);
                        }
                        NodeKind::MovingWall { u } => {
                            let cq = L::C[L::OPP[q]];
                            let cu = cq[0] as Scalar * u[0]
                                + cq[1] as Scalar * u[1]
                                + cq[2] as Scalar * u[2];
                            dst.set(this, L::OPP[q], f[q] + 6.0 * L::W[L::OPP[q]] * cu);
                        }
                        NodeKind::Fluid => dst.set(n, q, f[q]),
                        other => {
                            debug_assert!(
                                false,
                                "push_step does not support {:?} nodes",
                                other.tag()
                            );
                            dst.set(n, q, f[q]);
                        }
                    }
                }
            }
            NodeKind::Wall | NodeKind::MovingWall { .. } => {
                // Inert copy-through, matching the pull kernel's convention.
                for q in 0..L::Q {
                    dst.set(this, q, src.get(this, q));
                }
            }
            other => {
                debug_assert!(false, "push_step does not support {:?} nodes", other.tag());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collision::BgkParams;
    use crate::geometry::GridDims;
    use crate::kernels::{fused_step, initialize_with};
    use crate::lattice::{D2Q9, D3Q19};
    use crate::layout::SoaField;
    use crate::parallel::ThreadPool;

    /// A D2Q9 field at rest at unit density.
    fn at_rest(flags: &FlagField) -> SoaField<D2Q9> {
        let mut field = SoaField::<D2Q9>::new(flags.dims());
        initialize_with::<D2Q9, _>(&ThreadPool::new(1), flags, &mut field, |_, _, _| {
            (1.0, [0.0; 3])
        });
        field
    }

    fn random_field<L: Lattice>(dims: GridDims, seed: u64) -> SoaField<L> {
        let mut field = SoaField::<L>::new(dims);
        let mut s = seed.max(1);
        for cell in 0..field.cells() {
            for q in 0..L::Q {
                s ^= s >> 12;
                s ^= s << 25;
                s ^= s >> 27;
                let r = (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as Scalar
                    / (1u64 << 53) as Scalar;
                field.set(cell, q, 0.02 + 0.05 * r);
            }
        }
        field
    }

    #[test]
    fn split_equals_fused_with_walls_and_io() {
        let dims = GridDims::new(6, 5, 4);
        let mut flags = FlagField::new(dims);
        flags.paint_channel_walls_y();
        flags.paint_inflow_outflow_x(1.0, [0.04, 0.0, 0.0]);
        let src = random_field::<D3Q19>(dims, 1234);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));

        let mut a = SoaField::<D3Q19>::new(dims);
        let mut b = SoaField::<D3Q19>::new(dims);
        fused_step(&flags, &src, &mut a, &coll);
        split_step(&flags, &src, &mut b, &coll);
        for c in 0..dims.cells() {
            for q in 0..19 {
                assert!(
                    (a.get(c, q) - b.get(c, q)).abs() < 1e-15,
                    "cell {c} q {q}: fused {} split {}",
                    a.get(c, q),
                    b.get(c, q)
                );
            }
        }
    }

    #[test]
    fn push_equals_collide_then_propagate_on_periodic_domain() {
        let dims = GridDims::new(5, 4, 3);
        let flags = FlagField::new(dims);
        let src = random_field::<D3Q19>(dims, 77);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.9));

        // Reference: explicit collide-then-stream with the split kernels.
        let mut collided = src.clone();
        collide_step(&flags, &mut collided, &coll);
        let mut reference = SoaField::<D3Q19>::new(dims);
        propagate_step(&flags, &collided, &mut reference);

        let mut push = SoaField::<D3Q19>::new(dims);
        push_step(&flags, &src, &mut push, &coll);
        for c in 0..dims.cells() {
            for q in 0..19 {
                assert!(
                    (reference.get(c, q) - push.get(c, q)).abs() < 1e-15,
                    "cell {c} q {q}"
                );
            }
        }
    }

    #[test]
    fn push_equals_collide_then_propagate_in_cavity_with_lid() {
        let dims = GridDims::new2d(8, 8);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        flags.paint_lid([0.08, 0.0, 0.0]);
        let src = at_rest(&flags);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.7));

        // Evolve a few steps with push; mirror with the split collide→stream pair.
        let mut p_src = src.clone();
        let mut p_dst = SoaField::<D2Q9>::new(dims);
        let mut s_src = src.clone();
        let mut s_dst = SoaField::<D2Q9>::new(dims);
        for _ in 0..6 {
            push_step(&flags, &p_src, &mut p_dst, &coll);
            std::mem::swap(&mut p_src, &mut p_dst);

            collide_step(&flags, &mut s_src, &coll);
            propagate_step(&flags, &s_src, &mut s_dst);
            std::mem::swap(&mut s_src, &mut s_dst);
        }
        for c in 0..dims.cells() {
            for q in 0..9 {
                assert!(
                    (p_src.get(c, q) - s_src.get(c, q)).abs() < 1e-13,
                    "cell {c} q {q} diverged between push and collide→stream"
                );
            }
        }
    }

    #[test]
    fn push_conserves_mass_in_sealed_cavity() {
        let dims = GridDims::new2d(10, 10);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        let mut src = at_rest(&flags);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        let mass = |f: &SoaField<D2Q9>| -> Scalar {
            let mut m = 0.0;
            for c in 0..f.cells() {
                if flags.kind(c).is_fluid() {
                    for q in 0..9 {
                        m += f.get(c, q);
                    }
                }
            }
            m
        };
        let m0 = mass(&src);
        let mut dst = SoaField::<D2Q9>::new(dims);
        for _ in 0..20 {
            push_step(&flags, &src, &mut dst, &coll);
            std::mem::swap(&mut src, &mut dst);
        }
        assert!((mass(&src) - m0).abs() < 1e-10);
    }

    #[test]
    fn propagate_only_moves_populations_without_changing_their_values() {
        // On a periodic all-fluid domain, propagation is a pure permutation:
        // the multiset of values per direction plane is preserved.
        let dims = GridDims::new(4, 3, 2);
        let flags = FlagField::new(dims);
        let src = random_field::<D3Q19>(dims, 5);
        let mut dst = SoaField::<D3Q19>::new(dims);
        propagate_step(&flags, &src, &mut dst);

        for q in 0..19 {
            let mut a: Vec<Scalar> = (0..dims.cells()).map(|c| src.get(c, q)).collect();
            let mut b: Vec<Scalar> = (0..dims.cells()).map(|c| dst.get(c, q)).collect();
            a.sort_by(|x, y| x.partial_cmp(y).unwrap());
            b.sort_by(|x, y| x.partial_cmp(y).unwrap());
            assert_eq!(a, b, "direction {q} not a permutation");
        }
    }

    #[test]
    fn propagation_shifts_by_the_velocity_vector() {
        // Put a marker in one cell's direction-q population; after propagation it
        // must appear exactly at (x + c_q).
        let dims = GridDims::new(5, 5, 5);
        let flags = FlagField::new(dims);
        let mut src = SoaField::<D3Q19>::new(dims);
        let q = 7; // c = (1, 1, 0)
        src.set(dims.idx(2, 2, 2), q, 1.0);
        let mut dst = SoaField::<D3Q19>::new(dims);
        propagate_step(&flags, &src, &mut dst);
        assert_eq!(dst.get(dims.idx(3, 3, 2), q), 1.0);
        assert_eq!(dst.get(dims.idx(2, 2, 2), q), 0.0);
    }

    #[test]
    fn collide_step_skips_non_fluid_cells() {
        let dims = GridDims::new2d(4, 4);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        let mut field = random_field::<D2Q9>(dims, 8);
        let wall_cell = dims.idx(0, 0, 0);
        let before: Vec<Scalar> = (0..9).map(|q| field.get(wall_cell, q)).collect();
        collide_step(&flags, &mut field, &CollisionKind::Bgk(BgkParams::from_tau(0.8)));
        let after: Vec<Scalar> = (0..9).map(|q| field.get(wall_cell, q)).collect();
        assert_eq!(before, after);
    }
}
