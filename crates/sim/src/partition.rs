//! 2-D domain partitioning with full-z pencils (paper §IV-C.1).
//!
//! The paper rejects 1-D decomposition (not enough parallelism for 160,000
//! processes when x/y are ~10³) and 3-D decomposition (more complex
//! communication), settling on 2-D over (x, y) with each subdomain keeping the
//! whole z axis. [`Partition2d`] maps ranks to subdomains and builds each
//! rank's local flag field (interior + an `h`-deep ghost ring) from the
//! global one.

use swlb_comm::Cart2d;
use swlb_core::flags::FlagField;
use swlb_core::geometry::GridDims;
use swlb_obs::SwlbError;

/// A 2-D block partition of a global grid over a cartesian rank layout.
#[derive(Debug, Clone, Copy)]
pub struct Partition2d {
    /// Rank topology (always periodic: the global domain edge uses the same
    /// wrap convention as the single-domain reference kernel).
    pub cart: Cart2d,
    /// Global grid.
    pub global: GridDims,
}

impl Partition2d {
    /// Partition `global` over `nranks` ranks in a balanced near-square
    /// layout, refusing with [`SwlbError::InvalidConfig`] a layout that would
    /// leave some rank an empty subdomain. The answer depends only on the
    /// arguments, so every rank of a world reaches the same one.
    pub fn new(global: GridDims, nranks: usize) -> Result<Self, SwlbError> {
        let cart = Cart2d::balanced(nranks, true);
        if cart.px > global.nx || cart.py > global.ny {
            return Err(SwlbError::InvalidConfig(format!(
                "{nranks} ranks ({}x{}) cannot tile a {}x{} xy footprint",
                cart.px, cart.py, global.nx, global.ny
            )));
        }
        Ok(Self { cart, global })
    }

    /// Global (offset, extent) of `rank`'s interior along x and y:
    /// `((x0, lnx), (y0, lny))`.
    pub fn owned(&self, rank: usize) -> ((usize, usize), (usize, usize)) {
        let (cx, cy) = self.cart.coords(rank);
        (
            Cart2d::block_range(self.global.nx, self.cart.px, cx),
            Cart2d::block_range(self.global.ny, self.cart.py, cy),
        )
    }

    /// `rank`'s owned rectangle as the metadata of its checkpoint chunk.
    pub fn chunk_meta(&self, rank: usize) -> swlb_io::ChunkMeta {
        let ((x0, lnx), (y0, lny)) = self.owned(rank);
        swlb_io::ChunkMeta {
            x0: x0 as u32,
            y0: y0 as u32,
            lnx: lnx as u32,
            lny: lny as u32,
        }
    }

    /// Local grid dims of `rank` with an `h`-cell-deep xy ghost ring, as used
    /// by depth-`h` temporal blocking.
    pub fn local_dims_h(&self, rank: usize, h: usize) -> GridDims {
        let ((_, lnx), (_, lny)) = self.owned(rank);
        GridDims::new(lnx + 2 * h, lny + 2 * h, self.global.nz)
    }

    /// Build `rank`'s local flag field behind an `h`-deep ghost ring (local
    /// interior cell `(h, h)` is global `(x0, y0)`): interior cells copy the
    /// global flags; the ring copies the (periodically wrapped) global
    /// neighbors' flags, so boundary rules at subdomain edges match the
    /// single-domain reference exactly, as id z-pencils ([`FlagField::columns`]).
    pub fn local_flags_h(&self, rank: usize, global_flags: &FlagField, h: usize) -> FlagField {
        assert_eq!(global_flags.dims(), self.global);
        let (((x0, _), (y0, _)), g) = (self.owned(rank), self.global);
        let wrap = |o: usize, l: usize, n: usize| (o + l + n * h - h) % n;
        let col = |lx, ly| (wrap(x0, lx, g.nx), wrap(y0, ly, g.ny));
        global_flags.columns(self.local_dims_h(rank, h), col)
    }

    /// Translate a local interior coordinate to the global coordinate.
    pub fn to_global(&self, rank: usize, lx: usize, ly: usize) -> (usize, usize) {
        let ((x0, lnx), (y0, lny)) = self.owned(rank);
        debug_assert!((1..=lnx).contains(&lx) && (1..=lny).contains(&ly));
        (x0 + lx - 1, y0 + ly - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swlb_core::boundary::NodeKind;

    #[test]
    fn owned_ranges_tile_the_domain() {
        let p = Partition2d::new(GridDims::new(10, 9, 4), 6).unwrap(); // 3x2 layout
        let mut covered = [false; 10 * 9];
        for rank in 0..6 {
            let ((x0, lnx), (y0, lny)) = p.owned(rank);
            for y in y0..y0 + lny {
                for x in x0..x0 + lnx {
                    assert!(!covered[y * 10 + x], "cell ({x},{y}) covered twice");
                    covered[y * 10 + x] = true;
                }
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn local_dims_add_halo_ring() {
        let p = Partition2d::new(GridDims::new(8, 8, 5), 4).unwrap();
        let d = p.local_dims_h(0, 1);
        assert_eq!((d.nx, d.ny, d.nz), (6, 6, 5));
    }

    #[test]
    fn too_many_ranks_is_a_typed_error() {
        let err = Partition2d::new(GridDims::new(2, 2, 4), 16).unwrap_err();
        assert!(matches!(&err, SwlbError::InvalidConfig(m) if m.contains("cannot tile")), "{err}");
    }

    #[test]
    fn local_flags_sample_global_with_wrap() {
        let global = GridDims::new(6, 6, 2);
        let mut gf = FlagField::new(global);
        gf.set(0, 0, 0, NodeKind::Wall);
        gf.set(5, 5, 1, NodeKind::Wall);
        let p = Partition2d::new(global, 4).unwrap(); // 2x2, each 3x3
        // Rank 0 owns x 0..3, y 0..3; its west halo column wraps to gx = 5.
        let lf = p.local_flags_h(0, &gf, 1);
        assert!(lf.kind_at(1, 1, 0).is_solid()); // global (0,0,0)
        assert!(lf.kind_at(0, 0, 1).is_solid()); // halo corner wraps to (5,5,1)
        assert!(lf.kind_at(2, 2, 0).is_fluid());
    }

    #[test]
    fn deep_halo_flags_wrap_like_shallow_ones() {
        let global = GridDims::new(6, 6, 2);
        let mut gf = FlagField::new(global);
        gf.set(0, 0, 0, NodeKind::Wall);
        gf.set(4, 5, 1, NodeKind::Wall);
        let p = Partition2d::new(global, 4).unwrap(); // 2x2, each 3x3
        assert_eq!(
            p.local_dims_h(0, 2),
            GridDims::new(7, 7, 2),
            "3x3 owned + 2-deep ring"
        );
        let lf = p.local_flags_h(0, &gf, 2);
        assert!(lf.kind_at(2, 2, 0).is_solid()); // interior origin = global (0,0,0)
        assert!(lf.kind_at(0, 1, 1).is_solid()); // ghost (-2,-1) wraps to (4,5,1)
        assert!(lf.kind_at(3, 3, 0).is_fluid());
    }

    #[test]
    fn to_global_roundtrip() {
        let p = Partition2d::new(GridDims::new(10, 10, 1), 4).unwrap();
        for rank in 0..4 {
            let ((x0, lnx), (y0, lny)) = p.owned(rank);
            assert_eq!(p.to_global(rank, 1, 1), (x0, y0));
            assert_eq!(p.to_global(rank, lnx, lny), (x0 + lnx - 1, y0 + lny - 1));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        #[test]
        fn local_flags_sample_a_per_cell_model(
            nx in 3usize..9, ny in 3usize..9, nz in 1usize..4, ranks in 1usize..5,
            sets in proptest::prop::collection::vec((0usize..1000, 0usize..4), 0..30),
            lid in proptest::prop::bool::weighted(0.5),
        ) {
            let global = GridDims::new(nx, ny, nz);
            let p = Partition2d::new(global, ranks).unwrap();
            let kinds = [
                NodeKind::Wall,
                NodeKind::MovingWall { u: [-0.0, 0.0, 0.0] },
                NodeKind::MovingWall { u: [0.0, 0.0, 0.0] },
                NodeKind::Inlet { rho: f64::NAN, u: [0.02, 0.0, 0.0] },
            ];
            let mut gf = FlagField::new(global);
            let mut model = vec![NodeKind::Fluid; global.cells()];
            if lid {
                gf.paint_lid([0.05, 0.0, 0.0]);
                for (i, [_, y, _]) in global.iter().enumerate() {
                    if y == ny - 1 {
                        model[i] = NodeKind::MovingWall { u: [0.05, 0.0, 0.0] };
                    }
                }
            }
            for &(cell, k) in &sets {
                let [x, y, z] = global.coords(cell % global.cells());
                gf.set(x, y, z, kinds[k]);
                model[global.idx(x, y, z)] = kinds[k];
            }
            for h in [1, 2] {
                for rank in 0..ranks {
                    let ((x0, _), (y0, _)) = p.owned(rank);
                    let lf = p.local_flags_h(rank, &gf, h);
                    let local = lf.dims();
                    assert_eq!(local, p.local_dims_h(rank, h));
                    for [lx, ly, z] in local.iter() {
                        let gx = (x0 + nx * h + lx - h) % nx;
                        let gy = (y0 + ny * h + ly - h) % ny;
                        let want = model[global.idx(gx, gy, z)];
                        assert_eq!(
                            format!("{:?}", lf.kind_at(lx, ly, z)),
                            format!("{want:?}"),
                            "rank {rank} h {h} local ({lx},{ly},{z})"
                        );
                    }
                }
            }
        }
    }
}
