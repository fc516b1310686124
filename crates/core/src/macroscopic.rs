//! Macroscopic (hydrodynamic) field extraction.
//!
//! LBM stores mesoscopic populations; the physics of interest — density, velocity,
//! pressure — are their low-order moments. [`MacroFields`] is the post-processing
//! snapshot handed to the I/O layer (PPM slices, VTK volumes) and to observables
//! (forces, probes).

use crate::equilibrium::{moments, velocity};
use crate::flags::FlagField;
use crate::geometry::GridDims;
use crate::lattice::Lattice;
use crate::layout::CanonicalRuns;
use crate::{Scalar, CS2};

/// Dense snapshot of density and velocity, one entry per cell.
#[derive(Debug, Clone)]
pub struct MacroFields {
    dims: GridDims,
    /// Density per cell (memory order). Solid cells hold the reference density.
    pub rho: Vec<Scalar>,
    /// Velocity per cell (memory order). Solid cells hold zero.
    pub u: Vec<[Scalar; 3]>,
}

impl MacroFields {
    /// Extract moments from the canonical populations of `field` — a plain
    /// canonical [`crate::layout::SoaField`], or a [`crate::layout::Storage`]
    /// under any scheme and parity, read in place through its
    /// [`CanonicalRuns`] (nothing the size of the lattice is copied). Solid
    /// cells get `(1, 0)`.
    pub fn compute<L: Lattice, F: CanonicalRuns<L>>(flags: &FlagField, field: &F) -> Self {
        let dims = flags.dims();
        let n = dims.cells();
        let mut rho = vec![1.0; n];
        let mut u = vec![[0.0; 3]; n];
        field.for_each_cell(flags, 0..dims.nx, 0..dims.ny, |cell, kind, f| {
            if !kind.is_solid() {
                let (r, j) = moments::<L>(f);
                rho[cell] = r;
                u[cell] = velocity(r, j);
            }
        });
        Self { dims, rho, u }
    }

    /// Grid dimensions of the snapshot.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// Velocity magnitude per cell.
    pub fn velocity_magnitude(&self) -> Vec<Scalar> {
        self.u
            .iter()
            .map(|v| (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt())
            .collect()
    }

    /// Lattice pressure `p = c_s² ρ` per cell.
    pub fn pressure(&self) -> Vec<Scalar> {
        self.rho.iter().map(|&r| CS2 * r).collect()
    }

    /// Total mass (sum of densities over fluid cells).
    pub fn total_mass(&self, flags: &FlagField) -> Scalar {
        self.rho
            .iter()
            .enumerate()
            .filter(|(c, _)| flags.kind(*c).is_fluid())
            .map(|(_, r)| *r)
            .sum()
    }

    /// Total momentum over fluid cells.
    pub fn total_momentum(&self, flags: &FlagField) -> [Scalar; 3] {
        let mut m = [0.0; 3];
        for cell in 0..self.dims.cells() {
            if flags.kind(cell).is_fluid() {
                for a in 0..3 {
                    m[a] += self.rho[cell] * self.u[cell][a];
                }
            }
        }
        m
    }

    /// Maximum velocity magnitude (the Mach-number / stability monitor).
    pub fn max_velocity(&self) -> Scalar {
        self.u
            .iter()
            .map(|v| v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
            .fold(0.0, Scalar::max)
            .sqrt()
    }

    /// Kinetic energy `½ Σ ρ |u|²` over fluid cells.
    pub fn kinetic_energy(&self, flags: &FlagField) -> Scalar {
        let mut e = 0.0;
        for cell in 0..self.dims.cells() {
            if flags.kind(cell).is_fluid() {
                let v = self.u[cell];
                e += 0.5 * self.rho[cell] * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
            }
        }
        e
    }

    /// True if any field value is non-finite (divergence detector).
    pub fn has_non_finite(&self) -> bool {
        self.rho.iter().any(|r| !r.is_finite())
            || self.u.iter().any(|v| v.iter().any(|c| !c.is_finite()))
    }

    /// Extract an x-y slice (fixed `z`) of the velocity magnitude, row-major with
    /// `y` as rows — the shape image writers expect.
    pub fn slice_xy_speed(&self, z: usize) -> Vec<Scalar> {
        let d = self.dims;
        assert!(z < d.nz, "slice z={z} out of range (nz={})", d.nz);
        let mut out = Vec::with_capacity(d.nx * d.ny);
        for y in 0..d.ny {
            for x in 0..d.nx {
                let v = self.u[d.idx(x, y, z)];
                out.push((v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::initialize_with;
    use crate::lattice::D3Q19;
    use crate::layout::{PopField, SoaField};
    use crate::parallel::ThreadPool;

    /// A field at equilibrium `(rho, u)` everywhere.
    fn uniform<L: Lattice>(flags: &FlagField, rho: Scalar, u: [Scalar; 3]) -> SoaField<L> {
        let mut field = SoaField::<L>::new(flags.dims());
        initialize_with::<L, _>(&ThreadPool::new(1), flags, &mut field, |_, _, _| (rho, u));
        field
    }

    #[test]
    fn uniform_state_reports_uniform_moments() {
        let dims = GridDims::new(4, 4, 4);
        let flags = FlagField::new(dims);
        let field = uniform::<D3Q19>(&flags, 1.25, [0.02, 0.01, -0.01]);
        let m = MacroFields::compute::<D3Q19, _>(&flags, &field);
        for c in 0..dims.cells() {
            assert!((m.rho[c] - 1.25).abs() < 1e-12);
            assert!((m.u[c][0] - 0.02).abs() < 1e-12);
        }
        assert!((m.total_mass(&flags) - 1.25 * 64.0).abs() < 1e-9);
        assert!(!m.has_non_finite());
        assert!((m.max_velocity() - (0.02f64.powi(2) + 0.01 * 0.01 + 0.01 * 0.01).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn pressure_is_cs2_rho() {
        let dims = GridDims::new2d(2, 2);
        let flags = FlagField::new(dims);
        let field = uniform::<crate::lattice::D2Q9>(&flags, 3.0, [0.0; 3]);
        let m = MacroFields::compute::<crate::lattice::D2Q9, _>(&flags, &field);
        for p in m.pressure() {
            assert!((p - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn solid_cells_are_masked_out() {
        let dims = GridDims::new2d(3, 3);
        let mut flags = FlagField::new(dims);
        flags.set(1, 1, 0, crate::boundary::NodeKind::Wall);
        let field = uniform::<crate::lattice::D2Q9>(&flags, 2.0, [0.1, 0.0, 0.0]);
        let m = MacroFields::compute::<crate::lattice::D2Q9, _>(&flags, &field);
        let solid = dims.idx(1, 1, 0);
        assert_eq!(m.rho[solid], 1.0);
        assert_eq!(m.u[solid], [0.0; 3]);
        // Mass counts only the 8 fluid cells.
        assert!((m.total_mass(&flags) - 16.0).abs() < 1e-12);
    }

    #[test]
    fn kinetic_energy_and_momentum_match_hand_computation() {
        let dims = GridDims::new2d(2, 1);
        let flags = FlagField::new(dims);
        let field = uniform::<crate::lattice::D2Q9>(&flags, 1.0, [0.1, 0.0, 0.0]);
        let m = MacroFields::compute::<crate::lattice::D2Q9, _>(&flags, &field);
        assert!((m.kinetic_energy(&flags) - 2.0 * 0.5 * 0.01).abs() < 1e-12);
        let mom = m.total_momentum(&flags);
        assert!((mom[0] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn slice_extraction_has_row_major_shape() {
        let dims = GridDims::new(3, 2, 2);
        let flags = FlagField::new(dims);
        let field = uniform::<D3Q19>(&flags, 1.0, [0.3, 0.0, 0.0]);
        let m = MacroFields::compute::<D3Q19, _>(&flags, &field);
        let s = m.slice_xy_speed(1);
        assert_eq!(s.len(), 6);
        assert!(s.iter().all(|&v| (v - 0.3).abs() < 1e-12));
    }
}
