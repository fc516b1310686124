//! Derived (post-processed) flow quantities: velocity gradients, vorticity and the
//! Q-criterion.
//!
//! The paper's qualitative figures (Figs. 12, 18, 19) visualize instantaneous
//! **Q-criterion isosurfaces** — `Q = ½(‖Ω‖² − ‖S‖²)` with `S`/`Ω` the symmetric /
//! antisymmetric parts of the velocity gradient — the standard vortex-core
//! identifier. We compute it with centered differences (one-sided at walls and
//! domain edges).

use crate::macroscopic::MacroFields;
use crate::Scalar;

/// Velocity-gradient tensor `∂u_a/∂x_b` at one cell, row `a`, column `b`.
pub type Grad = [[Scalar; 3]; 3];

/// Compute the velocity gradient at `(x, y, z)` with centered differences,
/// degrading to one-sided at the domain boundary.
pub fn velocity_gradient(m: &MacroFields, x: usize, y: usize, z: usize) -> Grad {
    let d = m.dims();
    let mut g = [[0.0; 3]; 3];
    let dims = [d.nx, d.ny, d.nz];
    let pos = [x, y, z];
    for b in 0..3 {
        if dims[b] < 2 {
            continue; // flat axis (2-D grids): gradient is zero
        }
        let mut lo = pos;
        let mut hi = pos;
        let mut h = 2.0;
        if pos[b] == 0 {
            hi[b] = pos[b] + 1;
            h = 1.0;
        } else if pos[b] + 1 == dims[b] {
            lo[b] = pos[b] - 1;
            h = 1.0;
        } else {
            lo[b] = pos[b] - 1;
            hi[b] = pos[b] + 1;
        }
        let ulo = m.u[d.idx(lo[0], lo[1], lo[2])];
        let uhi = m.u[d.idx(hi[0], hi[1], hi[2])];
        for a in 0..3 {
            g[a][b] = (uhi[a] - ulo[a]) / h;
        }
    }
    g
}

/// Q-criterion at one cell: `Q = ½(‖Ω‖² − ‖S‖²)`.
pub fn q_criterion_at(m: &MacroFields, x: usize, y: usize, z: usize) -> Scalar {
    let g = velocity_gradient(m, x, y, z);
    let mut s2 = 0.0;
    let mut o2 = 0.0;
    for a in 0..3 {
        for b in 0..3 {
            let s = 0.5 * (g[a][b] + g[b][a]);
            let o = 0.5 * (g[a][b] - g[b][a]);
            s2 += s * s;
            o2 += o * o;
        }
    }
    0.5 * (o2 - s2)
}

/// Dense Q-criterion field (memory order).
pub fn q_criterion(m: &MacroFields) -> Vec<Scalar> {
    let d = m.dims();
    let mut out = vec![0.0; d.cells()];
    for [x, y, z] in d.iter() {
        out[d.idx(x, y, z)] = q_criterion_at(m, x, y, z);
    }
    out
}

/// Vorticity vector `ω = ∇ × u` at one cell.
pub fn vorticity_at(m: &MacroFields, x: usize, y: usize, z: usize) -> [Scalar; 3] {
    let g = velocity_gradient(m, x, y, z);
    [
        g[2][1] - g[1][2],
        g[0][2] - g[2][0],
        g[1][0] - g[0][1],
    ]
}

/// Dense z-vorticity field — the scalar vorticity of 2-D flows.
pub fn vorticity_z(m: &MacroFields) -> Vec<Scalar> {
    let d = m.dims();
    let mut out = vec![0.0; d.cells()];
    for [x, y, z] in d.iter() {
        out[d.idx(x, y, z)] = vorticity_at(m, x, y, z)[2];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::FlagField;
    use crate::geometry::GridDims;
    use crate::kernels::initialize_with;
    use crate::lattice::D3Q19;
    use crate::layout::{PopField, SoaField};
    use crate::macroscopic::MacroFields;

    fn fields_from(
        dims: GridDims,
        f: impl Fn(usize, usize, usize) -> [Scalar; 3] + Sync,
    ) -> MacroFields {
        let flags = FlagField::new(dims);
        let mut field = SoaField::<D3Q19>::new(dims);
        let pool = crate::parallel::ThreadPool::new(1);
        initialize_with::<D3Q19, _>(&pool, &flags, &mut field, |x, y, z| (1.0, f(x, y, z)));
        MacroFields::compute::<D3Q19, _>(&flags, &field)
    }

    #[test]
    fn linear_shear_has_constant_gradient() {
        // u_x = 0.01 * y ⇒ ∂u_x/∂y = 0.01 everywhere (interior).
        let dims = GridDims::new(5, 8, 5);
        let m = fields_from(dims, |_, y, _| [0.01 * y as Scalar, 0.0, 0.0]);
        let g = velocity_gradient(&m, 2, 4, 2);
        assert!((g[0][1] - 0.01).abs() < 1e-10);
        assert!(g[0][0].abs() < 1e-12);
        assert!(g[1][1].abs() < 1e-12);
        // One-sided at the edge gives the same slope for a linear field.
        let ge = velocity_gradient(&m, 2, 0, 2);
        assert!((ge[0][1] - 0.01).abs() < 1e-10);
    }

    #[test]
    fn extensional_strain_has_negative_q_and_simple_shear_zero() {
        // Incompressible extensional flow u = (a·x, −a·y, 0): pure strain, Q < 0.
        let a = 0.004;
        let dims = GridDims::new(9, 9, 3);
        let m = fields_from(dims, |x, y, _| {
            [a * (x as Scalar - 4.0), -a * (y as Scalar - 4.0), 0.0]
        });
        let q = q_criterion_at(&m, 4, 4, 1);
        assert!(q < 0.0, "expected Q < 0 under pure strain, got {q}");

        // Simple shear u_x = c·y sits exactly on the Q = 0 borderline
        // (‖S‖ = ‖Ω‖): a classical property of the Q-criterion.
        let dims = GridDims::new(5, 8, 5);
        let m = fields_from(dims, |_, y, _| [0.01 * y as Scalar, 0.0, 0.0]);
        let q = q_criterion_at(&m, 2, 4, 2);
        assert!(q.abs() < 1e-12, "expected Q ≈ 0 under simple shear, got {q}");
    }

    #[test]
    fn solid_body_rotation_has_positive_q_and_correct_vorticity() {
        // u = Ω × r with Ω = (0, 0, w): u_x = -w·y, u_y = w·x ⇒ vorticity_z = 2w,
        // and rotation-dominated flow has Q > 0.
        let w = 0.005;
        let dims = GridDims::new(9, 9, 3);
        let m = fields_from(dims, |x, y, _| {
            let (xf, yf) = (x as Scalar - 4.0, y as Scalar - 4.0);
            [-w * yf, w * xf, 0.0]
        });
        let vz = vorticity_at(&m, 4, 4, 1)[2];
        assert!((vz - 2.0 * w).abs() < 1e-10, "vorticity {vz} vs {}", 2.0 * w);
        let q = q_criterion_at(&m, 4, 4, 1);
        assert!(q > 0.0, "expected Q > 0 in a vortex core, got {q}");
    }

    #[test]
    fn uniform_flow_has_zero_q_and_vorticity() {
        let dims = GridDims::new(5, 5, 5);
        let m = fields_from(dims, |_, _, _| [0.04, -0.01, 0.02]);
        let q = q_criterion(&m);
        assert!(q.iter().all(|&v| v.abs() < 1e-12));
        let vz = vorticity_z(&m);
        assert!(vz.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn flat_axis_of_2d_grid_contributes_nothing() {
        let dims = GridDims::new2d(6, 6);
        let m = fields_from(dims, |x, _, _| [0.0, 0.002 * x as Scalar, 0.0]);
        let g = velocity_gradient(&m, 3, 3, 0);
        assert!((g[1][0] - 0.002).abs() < 1e-10);
        // No z-derivatives on a 2-D grid.
        for a in 0..3 {
            assert_eq!(g[a][2], 0.0);
        }
    }
}
