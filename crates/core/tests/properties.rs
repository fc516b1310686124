//! Property-based tests of the core invariants (proptest).
//!
//! These are the machine-checked versions of the claims the rest of the
//! workspace builds on: conservation laws of the collision operators,
//! permutation property of streaming, layout- and schedule-independence of the
//! fused kernel, and exactness of the parallel driver.

use proptest::prelude::*;
use swlb_core::collision::{
    collide_bgk, collide_smagorinsky, BgkParams, CollisionKind, SmagorinskyParams,
};
use swlb_core::equilibrium::{equilibrium, moments};
use swlb_core::flags::{FlagCensus, FlagField};
use swlb_core::geometry::GridDims;
use swlb_core::kernels::{fused_step, InteriorIndex};
use swlb_core::lattice::{Lattice, D2Q9, D3Q19};
use swlb_core::layout::{AosField, PopField, SoaField, StorageScheme};
use swlb_core::parallel::ThreadPool;
use swlb_core::prelude::NodeKind;
use swlb_core::solver::Solver;
use swlb_core::stream::{collide_step, propagate_step, split_step};
use swlb_core::Scalar;

/// Strategy: a physically plausible population vector (positive, O(w_q)).
fn pops<L: Lattice>() -> impl Strategy<Value = Vec<Scalar>> {
    prop::collection::vec(0.001f64..0.5, L::Q)
}

/// Strategy: small grid dims.
fn small_dims_3d() -> impl Strategy<Value = GridDims> {
    (2usize..6, 2usize..6, 2usize..6).prop_map(|(x, y, z)| GridDims::new(x, y, z))
}

/// Build a field from a flat vector of per-(cell, q) values.
fn field_from<L: Lattice, F: PopField<L>>(dims: GridDims, vals: &[Scalar]) -> F {
    let mut f = F::new(dims);
    for cell in 0..dims.cells() {
        for q in 0..L::Q {
            f.set(cell, q, vals[(cell * L::Q + q) % vals.len()] + 0.01);
        }
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bgk_conserves_mass_momentum_d3q19(f in pops::<D3Q19>(), tau in 0.51f64..2.0) {
        let mut g = f.clone();
        collide_bgk::<D3Q19>(&mut g, 1.0 / tau);
        let (r0, j0) = moments::<D3Q19>(&f);
        let (r1, j1) = moments::<D3Q19>(&g);
        prop_assert!((r0 - r1).abs() < 1e-11 * r0.abs().max(1.0));
        for a in 0..3 {
            prop_assert!((j0[a] - j1[a]).abs() < 1e-11);
        }
    }

    #[test]
    fn bgk_conserves_mass_momentum_d2q9(f in pops::<D2Q9>(), tau in 0.51f64..2.0) {
        let mut g = f.clone();
        collide_bgk::<D2Q9>(&mut g, 1.0 / tau);
        let (r0, j0) = moments::<D2Q9>(&f);
        let (r1, j1) = moments::<D2Q9>(&g);
        prop_assert!((r0 - r1).abs() < 1e-11 * r0.abs().max(1.0));
        for a in 0..2 {
            prop_assert!((j0[a] - j1[a]).abs() < 1e-11);
        }
    }

    #[test]
    fn smagorinsky_conserves_mass_momentum(
        f in pops::<D3Q19>(),
        tau in 0.55f64..2.0,
        cs in 0.05f64..0.3,
    ) {
        let p = SmagorinskyParams::new(BgkParams::from_tau(tau), cs).unwrap();
        let mut g = f.clone();
        collide_smagorinsky::<D3Q19>(&mut g, &p);
        let (r0, j0) = moments::<D3Q19>(&f);
        let (r1, j1) = moments::<D3Q19>(&g);
        prop_assert!((r0 - r1).abs() < 1e-10 * r0.abs().max(1.0));
        for a in 0..3 {
            prop_assert!((j0[a] - j1[a]).abs() < 1e-10);
        }
    }

    #[test]
    fn equilibrium_moments_roundtrip(
        rho in 0.5f64..2.0,
        ux in -0.15f64..0.15,
        uy in -0.15f64..0.15,
        uz in -0.15f64..0.15,
    ) {
        let mut feq = vec![0.0; D3Q19::Q];
        equilibrium::<D3Q19>(rho, [ux, uy, uz], &mut feq);
        let (r, j) = moments::<D3Q19>(&feq);
        prop_assert!((r - rho).abs() < 1e-12);
        prop_assert!((j[0] - rho * ux).abs() < 1e-12);
        prop_assert!((j[1] - rho * uy).abs() < 1e-12);
        prop_assert!((j[2] - rho * uz).abs() < 1e-12);
    }

    #[test]
    fn streaming_is_a_permutation_per_direction(
        dims in small_dims_3d(),
        vals in prop::collection::vec(0.0f64..1.0, 64),
    ) {
        let flags = FlagField::new(dims);
        let src: SoaField<D3Q19> = field_from(dims, &vals);
        let mut dst = SoaField::<D3Q19>::new(dims);
        propagate_step(&flags, &src, &mut dst);
        for q in 0..D3Q19::Q {
            let mut a: Vec<Scalar> = (0..dims.cells()).map(|c| src.get(c, q)).collect();
            let mut b: Vec<Scalar> = (0..dims.cells()).map(|c| dst.get(c, q)).collect();
            a.sort_by(|x, y| x.partial_cmp(y).unwrap());
            b.sort_by(|x, y| x.partial_cmp(y).unwrap());
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn fused_equals_split_with_random_obstacles(
        dims in small_dims_3d(),
        vals in prop::collection::vec(0.0f64..1.0, 64),
        obstacle_bits in prop::collection::vec(prop::bool::weighted(0.2), 216),
        tau in 0.55f64..1.6,
    ) {
        let mut flags = FlagField::new(dims);
        // Scatter obstacles (never fully solid: keep cell 0 fluid).
        for c in 1..dims.cells() {
            if obstacle_bits[c % obstacle_bits.len()] {
                let [x, y, z] = dims.coords(c);
                flags.set(x, y, z, NodeKind::Wall);
            }
        }
        let src: SoaField<D3Q19> = field_from(dims, &vals);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(tau));
        let mut a = SoaField::<D3Q19>::new(dims);
        let mut b = SoaField::<D3Q19>::new(dims);
        fused_step(&flags, &src, &mut a, &coll);
        split_step(&flags, &src, &mut b, &coll);
        for c in 0..dims.cells() {
            for q in 0..D3Q19::Q {
                prop_assert!((a.get(c, q) - b.get(c, q)).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn soa_equals_aos(
        dims in small_dims_3d(),
        vals in prop::collection::vec(0.0f64..1.0, 64),
        tau in 0.55f64..1.6,
    ) {
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        let soa: SoaField<D3Q19> = field_from(dims, &vals);
        let aos: AosField<D3Q19> = field_from(dims, &vals);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(tau));
        let mut da = SoaField::<D3Q19>::new(dims);
        let mut db = AosField::<D3Q19>::new(dims);
        fused_step(&flags, &soa, &mut da, &coll);
        fused_step(&flags, &aos, &mut db, &coll);
        for c in 0..dims.cells() {
            for q in 0..D3Q19::Q {
                prop_assert_eq!(da.get(c, q), db.get(c, q));
            }
        }
    }

    #[test]
    fn parallel_equals_serial_for_any_thread_count(
        dims in small_dims_3d(),
        vals in prop::collection::vec(0.0f64..1.0, 64),
        threads in 1usize..9,
        tau in 0.55f64..1.6,
    ) {
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        let src: SoaField<D3Q19> = field_from(dims, &vals);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(tau));
        let mut serial = SoaField::<D3Q19>::new(dims);
        fused_step(&flags, &src, &mut serial, &coll);
        let mut par = SoaField::<D3Q19>::new(dims);
        ThreadPool::new(threads).fused_step(&flags, &src, &mut par, &coll, None);
        for c in 0..dims.cells() {
            for q in 0..D3Q19::Q {
                prop_assert_eq!(serial.get(c, q), par.get(c, q));
            }
        }
    }

    #[test]
    fn optimized_equals_generic_on_random_geometry(
        vals in prop::collection::vec(0.0f64..1.0, 64),
        obstacle_bits in prop::collection::vec(prop::bool::weighted(0.15), 125),
        tau in 0.55f64..1.6,
        tile_z in 0usize..5,
        threads in 1usize..5,
    ) {
        let dims = GridDims::new(6, 6, 6);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        for c in 0..dims.cells() {
            let [x, y, z] = dims.coords(c);
            if !dims.on_boundary(x, y, z) && obstacle_bits[c % obstacle_bits.len()] {
                flags.set(x, y, z, NodeKind::Wall);
            }
        }
        let src: SoaField<D3Q19> = field_from(dims, &vals);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(tau));
        let interior = InteriorIndex::build::<D3Q19>(&flags);

        let mut reference = SoaField::<D3Q19>::new(dims);
        fused_step(&flags, &src, &mut reference, &coll);

        // The collision kind is threaded through (no ω→τ→ω round-trip), so
        // 1-thread optimized dispatch is bit-exact against the reference on
        // scalar-semantics lanes; under auto-selected AVX2 the fused
        // multiply-adds differ from the reference by rounding only.
        let tol = swlb_core::simd::dispatch_tolerance();
        let mut optimized = SoaField::<D3Q19>::new(dims);
        ThreadPool::new(1)
            .with_tile_z(tile_z)
            .fused_step(&flags, &src, &mut optimized, &coll, Some(&interior));
        for c in 0..dims.cells() {
            for q in 0..D3Q19::Q {
                let (r, o) = (reference.get(c, q), optimized.get(c, q));
                prop_assert!((r - o).abs() <= tol, "cell {} q {}: {} vs {}", c, q, r, o);
            }
        }

        // ...and so does the pooled + z-blocked dispatch, for any thread count.
        let mut pooled = SoaField::<D3Q19>::new(dims);
        ThreadPool::new(threads)
            .with_tile_z(tile_z)
            .fused_step(&flags, &src, &mut pooled, &coll, Some(&interior));
        for c in 0..dims.cells() {
            for q in 0..D3Q19::Q {
                let (r, p) = (reference.get(c, q), pooled.get(c, q));
                prop_assert!((r - p).abs() <= tol, "cell {} q {}: {} vs {}", c, q, r, p);
            }
        }
    }

    #[test]
    fn vector_dispatch_conserves_mass_and_momentum(
        vals in prop::collection::vec(0.0f64..1.0, 64),
        tau in 0.55f64..1.6,
    ) {
        // Periodic box, no walls: one fused step is a permutation (streaming)
        // composed with a per-cell conservative collision, so total mass and
        // momentum are invariant. The interior cells take whatever lane path
        // the host auto-selects (AVX-512, AVX2, or portable under
        // SWLB_NO_SIMD=1), so this pins conservation on the vector kernel.
        let dims = GridDims::new(7, 6, 9);
        let flags = FlagField::new(dims);
        let src: SoaField<D3Q19> = field_from(dims, &vals);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(tau));
        let interior = InteriorIndex::build::<D3Q19>(&flags);
        let mut dst = SoaField::<D3Q19>::new(dims);
        ThreadPool::new(1)
            .with_tile_z(0)
            .fused_step(&flags, &src, &mut dst, &coll, Some(&interior));
        let sums = |f: &SoaField<D3Q19>| {
            let mut m = 0.0;
            let mut j = [0.0; 3];
            for c in 0..dims.cells() {
                for q in 0..D3Q19::Q {
                    let v = f.get(c, q);
                    m += v;
                    for (a, ja) in j.iter_mut().enumerate() {
                        *ja += v * D3Q19::C[q][a] as Scalar;
                    }
                }
            }
            (m, j)
        };
        let (m0, j0) = sums(&src);
        let (m1, j1) = sums(&dst);
        prop_assert!((m0 - m1).abs() <= 1e-10 * m0.max(1.0), "mass {} -> {}", m0, m1);
        for a in 0..3 {
            prop_assert!(
                (j0[a] - j1[a]).abs() <= 1e-10 * (1.0 + j0[a].abs()),
                "momentum[{}] {} -> {}", a, j0[a], j1[a]
            );
        }
    }

    #[test]
    fn temporal_blocking_conserves_mass_and_momentum(
        dims in (3usize..7, 3usize..7, 3usize..7).prop_map(|(x, y, z)| GridDims::new(x, y, z)),
        tau in 0.55f64..1.6,
        k in 1usize..5,
        seed in 0.0f64..1.0,
    ) {
        // Fully periodic box: every step is a permutation (streaming) composed
        // with a per-cell conservative collision, so a depth-k blocked sweep
        // must preserve global mass and momentum exactly like per-step
        // execution — whatever the wavefront schedule does to the tile order.
        let sums = |f: &SoaField<D3Q19>| {
            let mut m = 0.0;
            let mut j = [0.0; 3];
            for c in 0..dims.cells() {
                for q in 0..D3Q19::Q {
                    let v = f.get(c, q);
                    m += v;
                    for (a, ja) in j.iter_mut().enumerate() {
                        *ja += v * D3Q19::C[q][a] as Scalar;
                    }
                }
            }
            (m, j)
        };
        for scheme in [StorageScheme::Ab, StorageScheme::Aa] {
            // AA blocks must end on a completed odd/even pair.
            let k = if scheme == StorageScheme::Aa { k + k % 2 } else { k };
            let mut s = Solver::<D3Q19>::builder(dims, BgkParams::from_tau(tau))
                .storage(scheme)
                .time_block(k)
                .try_build()
                .unwrap();
            s.initialize_field(|x, y, z| {
                let v = 0.02 * (((x * 5 + y * 3 + z) % 7) as Scalar + seed);
                (1.0 + v, [0.05 * v, -0.03 * v, 0.02 * v])
            });
            let (m0, j0) = sums(s.canonical_populations().as_ref());
            s.run(2 * k as u64);
            let (m1, j1) = sums(s.canonical_populations().as_ref());
            prop_assert!(
                (m0 - m1).abs() <= 1e-10 * m0.max(1.0),
                "{:?} k={}: mass {} -> {}", scheme, k, m0, m1
            );
            for a in 0..3 {
                prop_assert!(
                    (j0[a] - j1[a]).abs() <= 1e-10 * (1.0 + j0[a].abs()),
                    "{:?} k={}: momentum[{}] {} -> {}", scheme, k, a, j0[a], j1[a]
                );
            }
        }
    }

    #[test]
    fn collide_step_is_idempotent_at_tau_one(
        dims in small_dims_3d(),
        vals in prop::collection::vec(0.0f64..1.0, 64),
    ) {
        // ω = 1 projects onto equilibrium; a second collision is then a no-op.
        let flags = FlagField::new(dims);
        let mut f: SoaField<D3Q19> = field_from(dims, &vals);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(1.0));
        collide_step(&flags, &mut f, &coll);
        let once = f.clone();
        collide_step(&flags, &mut f, &coll);
        for c in 0..dims.cells() {
            for q in 0..D3Q19::Q {
                prop_assert!((once.get(c, q) - f.get(c, q)).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn grid_idx_coords_roundtrip(
        nx in 1usize..20, ny in 1usize..20, nz in 1usize..20,
    ) {
        let d = GridDims::new(nx, ny, nz);
        // Sample a handful of linear indices.
        for i in [0, d.cells() / 3, d.cells() / 2, d.cells() - 1] {
            let [x, y, z] = d.coords(i);
            prop_assert_eq!(d.idx(x, y, z), i);
        }
    }

    #[test]
    fn flag_field_matches_a_per_cell_model(
        nx in 1usize..6, ny in 1usize..6, nz in 1usize..5,
        ops in prop::collection::vec((0usize..9, 0usize..1000, 0usize..PALETTE), 0..24),
        mask_bits in prop::collection::vec(prop::bool::weighted(0.3), 1..40),
    ) {
        let d = GridDims::new(nx, ny, nz);
        let mut flags = FlagField::new(d);
        let mut model = vec![NodeKind::Fluid; d.cells()];
        // Wall velocities never painted before: enough of them overflow the
        // 256-entry table, which must then drop the entries no cell uses.
        let mut fresh = 0u32;
        for &(op, cell, p) in &ops {
            let kind = palette(p);
            let u = match kind {
                NodeKind::MovingWall { u } | NodeKind::Inlet { u, .. } => u,
                _ => [0.01, -0.0, 0.0],
            };
            let rho = if p % 2 == 0 { 1.0 } else { Scalar::NAN };
            let mask: Vec<bool> = (0..d.cells()).map(|i| mask_bits[i % mask_bits.len()]).collect();
            let [x, y, z] = d.coords(cell % d.cells());
            let (last_x, last_y) = (d.nx - 1, d.ny - 1);
            let paint = |model: &mut Vec<NodeKind>, k: NodeKind, on: &dyn Fn([usize; 3]) -> bool| {
                for (i, c) in d.iter().enumerate() {
                    if on(c) {
                        model[i] = k;
                    }
                }
            };
            match op {
                0 => {
                    flags.set(x, y, z, kind);
                    model[d.idx(x, y, z)] = kind;
                }
                1 => {
                    flags.set_box_walls();
                    paint(&mut model, NodeKind::Wall, &|[x, y, z]| d.on_boundary(x, y, z));
                }
                2 => {
                    flags.paint_lid(u);
                    paint(&mut model, NodeKind::MovingWall { u }, &|c| c[1] == last_y);
                }
                3 => {
                    flags.paint_inflow_outflow_x(rho, u);
                    paint(&mut model, NodeKind::Inlet { rho, u }, &|c| c[0] == 0);
                    let outlet = NodeKind::Outlet { normal: [1, 0, 0] };
                    paint(&mut model, outlet, &|c| c[0] == last_x);
                }
                4 => {
                    flags.paint_nebb_inflow_outflow_x(u, rho);
                    let inlet = NodeKind::VelocityNebb { u, normal: [-1, 0, 0] };
                    paint(&mut model, inlet, &|c| c[0] == 0);
                    let outlet = NodeKind::PressureNebb { rho, normal: [1, 0, 0] };
                    paint(&mut model, outlet, &|c| c[0] == last_x);
                }
                5 => {
                    flags.paint_channel_walls_y();
                    paint(&mut model, NodeKind::Wall, &|c| c[1] == 0 || c[1] == last_y);
                }
                6 => {
                    flags.paint_ground_z();
                    paint(&mut model, NodeKind::Wall, &|c| c[2] == 0);
                }
                7 => {
                    flags.apply_mask(&mask).unwrap();
                    paint(&mut model, NodeKind::Wall, &|[x, y, z]| mask[d.idx(x, y, z)]);
                }
                _ => {
                    // One cell repainted `cell % 600` times: every other cell
                    // keeps its kind while the table drops the dead entries.
                    for _ in 0..cell % 600 {
                        fresh += 1;
                        let kind = NodeKind::MovingWall { u: [Scalar::from(fresh) * 1e-3, 0.0, 0.0] };
                        flags.set(x, y, z, kind);
                        model[d.idx(x, y, z)] = kind;
                    }
                }
            }
        }
        let mut census = FlagCensus::default();
        for (i, k) in model.iter().enumerate() {
            let [x, y, z] = d.coords(i);
            prop_assert_eq!(bits_text(flags.kind(i)), bits_text(*k), "cell {}", i);
            prop_assert_eq!(bits_text(flags.kind_at(x, y, z)), bits_text(*k));
            match k {
                NodeKind::Fluid => census.fluid += 1,
                NodeKind::Wall | NodeKind::MovingWall { .. } => census.solid += 1,
                NodeKind::Inlet { .. } | NodeKind::VelocityNebb { .. } => census.inlet += 1,
                NodeKind::Outlet { .. } | NodeKind::PressureNebb { .. } => census.outlet += 1,
            }
        }
        prop_assert_eq!(flags.census(), census);
        prop_assert!(flags.check_kinds().is_ok());
    }
}

/// Kinds the flag-field model paints: signed zeros and a NaN among them, so
/// the comparison sees any interning that is not bit-exact.
const PALETTE: usize = 8;

fn palette(p: usize) -> NodeKind {
    match p {
        0 => NodeKind::Fluid,
        1 => NodeKind::Wall,
        2 => NodeKind::MovingWall {
            u: [0.05, 0.0, 0.0],
        },
        3 => NodeKind::MovingWall {
            u: [-0.0, 0.0, 0.0],
        },
        4 => NodeKind::MovingWall { u: [0.0, 0.0, 0.0] },
        5 => NodeKind::Inlet {
            rho: 1.0,
            u: [Scalar::NAN, 0.0, 0.0],
        },
        6 => NodeKind::Outlet { normal: [1, 0, 0] },
        _ => NodeKind::PressureNebb {
            rho: -0.0,
            normal: [-1, 0, 0],
        },
    }
}

/// A kind's `Debug` text: `f64`'s shortest round-trip form keeps `-0.0` and
/// `0.0` apart, and the palette has one NaN, so equal text is equal bits.
fn bits_text(k: NodeKind) -> String {
    format!("{k:?}")
}
