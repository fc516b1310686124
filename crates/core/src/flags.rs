//! Per-node boundary flags and painting helpers.
//!
//! The [`FlagField`] is the output of the pre-processing stage: one [`NodeKind`]
//! per lattice node. Painting helpers cover the cases the paper runs (box walls,
//! moving lids, inflow/outflow planes, voxelized obstacle masks from the mesh
//! generator).
//!
//! A cell stores a one-byte id into a table of at most 256 kinds in use,
//! interned bit for bit (`f64::to_bits`): a read returns the bits painted. A
//! full table drops the kinds no cell uses; a write that would put a 257th in
//! use changes no cell, and `check_flags` refuses the field ([`FlagField::check_kinds`]).

use crate::boundary::NodeKind;
use crate::error::{Result, SwlbError};
use crate::geometry::GridDims;
use crate::Scalar;

/// Dense per-node boundary classification: one id byte per cell.
#[derive(Debug, Clone)]
pub struct FlagField {
    dims: GridDims,
    ids: Vec<u8>,
    table: Box<[NodeKind; 256]>,
    /// Entries of `table` that ids may name (`new` starts with id 0 = `Fluid`).
    kinds: usize,
    /// The first kind refused because the table was full.
    refused: Option<NodeKind>,
}

/// `kind`'s variant and fields as bits: equal exactly when the kinds are bit-equal.
fn bits(kind: NodeKind) -> (u8, u64, [u64; 3], [i32; 3]) {
    let v = |u: [Scalar; 3]| u.map(f64::to_bits);
    match kind {
        NodeKind::Fluid => (0, 0, [0; 3], [0; 3]),
        NodeKind::Wall => (1, 0, [0; 3], [0; 3]),
        NodeKind::MovingWall { u } => (2, 0, v(u), [0; 3]),
        NodeKind::Inlet { rho, u } => (3, rho.to_bits(), v(u), [0; 3]),
        NodeKind::Outlet { normal } => (4, 0, [0; 3], normal),
        NodeKind::VelocityNebb { u, normal } => (5, 0, v(u), normal),
        NodeKind::PressureNebb { rho, normal } => (6, rho.to_bits(), [0; 3], normal),
    }
}

impl FlagField {
    /// All-fluid field (periodic domain).
    pub fn new(dims: GridDims) -> Self {
        Self {
            dims,
            ids: vec![0; dims.cells()],
            table: Box::new([NodeKind::Fluid; 256]),
            kinds: 1,
            refused: None,
        }
    }

    /// Grid dimensions.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// Node kind at a linear cell index.
    #[inline(always)]
    pub fn kind(&self, cell: usize) -> NodeKind {
        self.table[self.ids[cell] as usize]
    }

    /// Node kind at `(x, y, z)`.
    #[inline(always)]
    pub fn kind_at(&self, x: usize, y: usize, z: usize) -> NodeKind {
        self.kind(self.dims.idx(x, y, z))
    }

    /// The id of `kind`, added to the table on first use. A full table drops the
    /// entries no cell uses and renumbers the ids; with 256 kinds still in use
    /// (or a kind refused before) the write is refused: `None`, kind recorded.
    fn intern(&mut self, kind: NodeKind) -> Option<u8> {
        if let Some(id) = self.table[..self.kinds].iter().position(|k| bits(*k) == bits(kind)) {
            return Some(id as u8);
        }
        if self.kinds == self.table.len() && self.refused.is_none() {
            let mut used = [false; 256];
            self.ids.iter().for_each(|&id| used[id as usize] = true);
            let mut renumber = [0u8; 256];
            self.kinds = 0;
            for id in (0..used.len()).filter(|&id| used[id]) {
                (renumber[id], self.table[self.kinds]) = (self.kinds as u8, self.table[id]);
                self.kinds += 1;
            }
            self.ids.iter_mut().for_each(|id| *id = renumber[*id as usize]);
        }
        if self.kinds == self.table.len() {
            self.refused.get_or_insert(kind);
            return None;
        }
        (self.table[self.kinds], self.kinds) = (kind, self.kinds + 1);
        Some((self.kinds - 1) as u8)
    }

    /// Refuse a field that a write would have given more than 256 distinct kinds.
    pub fn check_kinds(&self) -> Result<()> {
        self.refused.map_or(Ok(()), |kind| {
            Err(SwlbError::InvalidConfig(format!(
                "a flag field holds at most 256 distinct node kinds; painting {kind:?} was refused"
            )))
        })
    }

    /// Set the node kind at `(x, y, z)`.
    pub fn set(&mut self, x: usize, y: usize, z: usize, kind: NodeKind) {
        let i = self.dims.idx(x, y, z);
        let Some(id) = self.intern(kind) else { return };
        self.ids[i] = id;
    }

    /// A field of `dims` (this field's `nz`) whose column `(x, y)` is this
    /// field's column `col(x, y)`, copied as an id z-pencil over this table.
    pub fn columns(&self, dims: GridDims, col: impl Fn(usize, usize) -> (usize, usize)) -> Self {
        assert_eq!(dims.nz, self.dims.nz, "columns keep the z extent");
        let mut ids = Vec::with_capacity(dims.cells());
        for [x, y, _] in GridDims::new2d(dims.nx, dims.ny).iter() {
            let (gx, gy) = col(x, y);
            ids.extend_from_slice(&self.ids[self.dims.idx(gx, gy, 0)..][..dims.nz]);
        }
        Self {
            dims,
            ids,
            table: self.table.clone(),
            ..*self
        }
    }

    /// Paint `kind` on every cell whose `[x, y, z]` passes `on` (none if refused).
    fn paint(&mut self, kind: NodeKind, on: impl Fn([usize; 3]) -> bool) {
        let Some(id) = self.intern(kind) else { return };
        let cells = self.dims.iter().zip(self.ids.iter_mut());
        cells.filter(|(c, _)| on(*c)).for_each(|(_, cell)| *cell = id);
    }

    /// Mark every outer-surface node as a solid wall.
    ///
    /// For 2-D grids (`nz == 1`) only the x/y borders are painted, leaving the
    /// z direction conceptually periodic.
    pub fn set_box_walls(&mut self) {
        let d = self.dims;
        self.paint(NodeKind::Wall, |[x, y, z]| d.on_boundary(x, y, z));
    }

    /// Paint the top row/plane (`y = ny − 1`) as a moving wall with velocity `u` —
    /// the lid of the classic lid-driven cavity.
    pub fn paint_lid(&mut self, u: [Scalar; 3]) {
        let ny = self.dims.ny;
        self.paint(NodeKind::MovingWall { u }, |[_, y, _]| y + 1 == ny);
    }

    /// Paint the `x = 0` plane as a velocity inlet and `x = nx − 1` as an outlet —
    /// the standard external-flow channel setup (cylinder, Suboff, urban wind).
    pub fn paint_inflow_outflow_x(&mut self, rho: Scalar, u: [Scalar; 3]) {
        let last = self.dims.nx - 1;
        self.paint(NodeKind::Inlet { rho, u }, |[x, _, _]| x == 0);
        self.paint(NodeKind::Outlet { normal: [1, 0, 0] }, |c| c[0] == last);
    }

    /// Paint the `x = 0` plane as a sharp NEBB velocity inlet and `x = nx − 1`
    /// as a sharp NEBB pressure outlet — the high-accuracy variant of
    /// [`FlagField::paint_inflow_outflow_x`] (see [`crate::nebb`]).
    pub fn paint_nebb_inflow_outflow_x(&mut self, u: [Scalar; 3], rho_out: Scalar) {
        let (last, rho, normal) = (self.dims.nx - 1, rho_out, [-1, 0, 0]);
        self.paint(NodeKind::VelocityNebb { u, normal }, |[x, _, _]| x == 0);
        let normal = [1, 0, 0];
        self.paint(NodeKind::PressureNebb { rho, normal }, |c| c[0] == last);
    }

    /// Paint `y = 0` and `y = ny − 1` planes as solid walls (channel side walls).
    pub fn paint_channel_walls_y(&mut self) {
        let ny = self.dims.ny;
        self.paint(NodeKind::Wall, |[_, y, _]| y == 0 || y + 1 == ny);
    }

    /// Paint `z = 0` as a solid ground plane (urban wind, terrain cases).
    pub fn paint_ground_z(&mut self) {
        self.paint(NodeKind::Wall, |[_, _, z]| z == 0);
    }

    /// Apply an obstacle mask (`true` = solid), e.g. from the voxelizer.
    ///
    /// Existing non-fluid paint is preserved where the mask is `false`. A
    /// field that has refused a kind ([`FlagField::check_kinds`]) is an error.
    pub fn apply_mask(&mut self, mask: &[bool]) -> Result<()> {
        let d = self.dims;
        d.check_len(mask)?;
        self.paint(NodeKind::Wall, |[x, y, z]| mask[d.idx(x, y, z)]);
        self.check_kinds()
    }

    /// Number of nodes of each coarse class `(fluid, solid, inlet, outlet)`.
    pub fn census(&self) -> FlagCensus {
        let mut per_id = [0usize; 256];
        self.ids.iter().for_each(|&id| per_id[id as usize] += 1);
        let mut c = FlagCensus::default();
        for (k, n) in self.table.iter().zip(per_id) {
            match k {
                NodeKind::Fluid => c.fluid += n,
                NodeKind::Wall | NodeKind::MovingWall { .. } => c.solid += n,
                NodeKind::Inlet { .. } | NodeKind::VelocityNebb { .. } => c.inlet += n,
                NodeKind::Outlet { .. } | NodeKind::PressureNebb { .. } => c.outlet += n,
            }
        }
        c
    }
}

/// Node counts by class; see [`FlagField::census`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlagCensus {
    /// Bulk fluid nodes.
    pub fluid: usize,
    /// Solid nodes (static and moving walls).
    pub solid: usize,
    /// Inlet nodes.
    pub inlet: usize,
    /// Outlet nodes.
    pub outlet: usize,
}

impl FlagCensus {
    /// Total nodes accounted for.
    pub fn total(&self) -> usize {
        self.fluid + self.solid + self.inlet + self.outlet
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_field_is_all_fluid() {
        let f = FlagField::new(GridDims::new(3, 3, 3));
        let c = f.census();
        assert_eq!(c.fluid, 27);
        assert_eq!(c.total(), 27);
    }

    #[test]
    fn box_walls_2d_paint_only_xy_border() {
        let mut f = FlagField::new(GridDims::new2d(4, 4));
        f.set_box_walls();
        let c = f.census();
        // 4x4 grid: 12 border cells, 4 interior.
        assert_eq!(c.solid, 12);
        assert_eq!(c.fluid, 4);
        assert!(f.kind_at(1, 1, 0).is_fluid());
        assert!(f.kind_at(0, 2, 0).is_solid());
    }

    #[test]
    fn box_walls_3d_paint_all_faces() {
        let mut f = FlagField::new(GridDims::new(4, 4, 4));
        f.set_box_walls();
        let c = f.census();
        // 4³ = 64 cells, interior 2³ = 8.
        assert_eq!(c.fluid, 8);
        assert_eq!(c.solid, 56);
        assert!(f.kind_at(2, 2, 0).is_solid());
        assert!(f.kind_at(2, 2, 3).is_solid());
    }

    #[test]
    fn lid_overrides_top_wall() {
        let mut f = FlagField::new(GridDims::new2d(4, 4));
        f.set_box_walls();
        f.paint_lid([0.1, 0.0, 0.0]);
        match f.kind_at(2, 3, 0) {
            NodeKind::MovingWall { u } => assert_eq!(u, [0.1, 0.0, 0.0]),
            other => panic!("expected moving wall, got {other:?}"),
        }
        // Bottom wall untouched.
        assert_eq!(f.kind_at(2, 0, 0), NodeKind::Wall);
    }

    #[test]
    fn inflow_outflow_painting() {
        let mut f = FlagField::new(GridDims::new(5, 3, 2));
        f.paint_inflow_outflow_x(1.0, [0.05, 0.0, 0.0]);
        let c = f.census();
        assert_eq!(c.inlet, 3 * 2);
        assert_eq!(c.outlet, 3 * 2);
        match f.kind_at(4, 1, 1) {
            NodeKind::Outlet { normal } => assert_eq!(normal, [1, 0, 0]),
            other => panic!("expected outlet, got {other:?}"),
        }
    }

    #[test]
    fn mask_application_and_length_check() {
        let dims = GridDims::new2d(3, 3);
        let mut f = FlagField::new(dims);
        let mut mask = vec![false; 9];
        mask[dims.idx(1, 1, 0)] = true;
        f.apply_mask(&mask).unwrap();
        assert!(f.kind_at(1, 1, 0).is_solid());
        assert!(f.kind_at(0, 0, 0).is_fluid());
        assert!(f.apply_mask(&[false; 8]).is_err());
    }

    #[test]
    fn ground_and_channel_walls() {
        let mut f = FlagField::new(GridDims::new(3, 3, 3));
        f.paint_ground_z();
        assert!(f.kind_at(1, 1, 0).is_solid());
        assert!(f.kind_at(1, 1, 1).is_fluid());

        let mut g = FlagField::new(GridDims::new(3, 4, 2));
        g.paint_channel_walls_y();
        assert!(g.kind_at(1, 0, 1).is_solid());
        assert!(g.kind_at(1, 3, 0).is_solid());
        assert!(g.kind_at(1, 1, 0).is_fluid());
    }

    /// A field whose table is full: `Fluid` plus 255 distinct lids, each set
    /// on its own cell.
    fn full_table(dims: GridDims) -> FlagField {
        let mut f = FlagField::new(dims);
        for i in 1..256 {
            let [x, y, z] = dims.coords(i);
            f.set(
                x,
                y,
                z,
                NodeKind::MovingWall {
                    u: [i as Scalar * 1e-4, 0.0, 0.0],
                },
            );
        }
        f
    }

    #[test]
    fn a_257th_kind_is_refused_and_changes_no_cell() {
        use crate::layout::StorageScheme;
        let dims = GridDims::new(8, 8, 5);
        let mut f = full_table(dims);
        assert!(f.check_kinds().is_ok());
        let before: Vec<NodeKind> = (0..dims.cells()).map(|i| f.kind(i)).collect();
        // Kinds already in the table still paint.
        f.set(7, 7, 4, NodeKind::Fluid);
        f.set(7, 7, 4, before[dims.idx(7, 7, 4)]);

        f.set(7, 7, 4, NodeKind::MovingWall { u: [1.0, 0.0, 0.0] });
        f.set_box_walls();
        f.paint_inflow_outflow_x(1.0, [0.01, 0.0, 0.0]);
        assert!(matches!(
            f.apply_mask(&vec![true; dims.cells()]),
            Err(SwlbError::InvalidConfig(_))
        ));
        for (i, k) in before.iter().enumerate() {
            assert_eq!(bits(f.kind(i)), bits(*k), "cell {i} moved");
        }
        // The first refusal is the one named.
        for scheme in [StorageScheme::Ab, StorageScheme::Aa] {
            match scheme.check_flags(&f) {
                Err(SwlbError::InvalidConfig(m)) => {
                    assert!(m.contains("MovingWall") && m.contains("256"), "{m}")
                }
                other => panic!("{scheme:?}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_solver_whose_flags_refused_a_kind_refuses_to_step() {
        use crate::collision::BgkParams;
        use crate::lattice::D3Q19;
        use crate::layout::StorageScheme;
        use crate::solver::Solver;
        let dims = GridDims::new(8, 8, 5);
        for scheme in [StorageScheme::Ab, StorageScheme::Aa] {
            let mut s = Solver::<D3Q19>::builder(dims, BgkParams::from_tau(0.8))
                .storage(scheme)
                .build();
            *s.flags_mut() = full_table(dims);
            s.initialize_uniform(1.0, [0.0; 3]);
            s.try_step().unwrap();
            s.flags_mut()
                .set(1, 1, 1, NodeKind::MovingWall { u: [0.5; 3] });
            let e = s.try_step().unwrap_err();
            assert!(matches!(e, SwlbError::InvalidConfig(_)), "{scheme:?}: {e}");
            assert_eq!(s.step_count(), 1);
        }
    }

    #[test]
    fn repainting_a_lid_reuses_the_entries_no_cell_uses() {
        let dims = GridDims::new(6, 6, 3);
        let mut f = FlagField::new(dims);
        f.set_box_walls();
        let lid = |i: usize| [i as Scalar * 1e-4, -0.0, 0.0];
        // A kind painted late, so that dropping the lids before it moves its id.
        let marker = NodeKind::Inlet {
            rho: 1.0,
            u: [0.0, 0.0, -0.0],
        };
        for i in 0..1000 {
            f.paint_lid(lid(i));
            if i == 200 {
                f.set(2, 2, 1, marker);
            }
            assert!(f.check_kinds().is_ok(), "repaint {i} was refused");
        }
        let mut live: Vec<_> = (0..dims.cells()).map(|i| bits(f.kind(i))).collect();
        live.sort();
        live.dedup();
        assert_eq!(live.len(), 4, "fluid, wall, the marker and the last lid");
        assert!(f.kinds < 256, "the table was compacted");
        assert_eq!(bits(f.kind_at(2, 5, 1)), bits(NodeKind::MovingWall { u: lid(999) }));
        assert_eq!(bits(f.kind_at(2, 2, 1)), bits(marker));
        assert_eq!(f.kind_at(0, 0, 0), NodeKind::Wall);
        assert_eq!(f.census().fluid, 4 * 4 - 1);
    }

    #[test]
    fn kinds_intern_bit_for_bit() {
        let dims = GridDims::new(4, 4, 3);
        let mut f = FlagField::new(dims);
        f.paint_lid([-0.0, 0.0, 0.0]);
        f.set(1, 3, 1, NodeKind::MovingWall { u: [0.0; 3] });
        let lid_bits = |x, y, z| match f.kind_at(x, y, z) {
            NodeKind::MovingWall { u } => u.map(Scalar::to_bits),
            other => panic!("expected a lid, got {other:?}"),
        };
        assert_eq!(lid_bits(0, 3, 0), [(-0.0f64).to_bits(), 0, 0]);
        assert_eq!(lid_bits(1, 3, 1), [0; 3]);
        assert_eq!(f.kinds, 3, "-0.0 and 0.0 lids are two entries");

        // A NaN field is one entry however many cells it paints.
        let nan = NodeKind::Inlet {
            rho: Scalar::NAN,
            u: [0.0; 3],
        };
        for y in 0..dims.ny {
            for z in 0..dims.nz {
                f.set(0, y, z, nan);
            }
        }
        f.paint_inflow_outflow_x(Scalar::NAN, [0.0; 3]);
        assert_eq!(f.kinds, 5, "NaN inlet + outlet");
        assert_eq!(bits(f.kind_at(0, 2, 1)), bits(nan));
        assert_eq!(f.census().inlet, dims.ny * dims.nz);
    }
}
