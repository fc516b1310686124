//! Grid geometry: dimensions, linear indexing and neighbor arithmetic.
//!
//! SunwayLB stores the domain as a dense Cartesian grid. Following the paper
//! (§IV-C.2: "the data is consecutive along the z axis"), the **z coordinate is the
//! fastest-varying index**, then x, then y:
//!
//! ```text
//! linear(x, y, z) = (y · nx + x) · nz + z
//! ```
//!
//! so a fixed `(x, y)` pencil of `nz` cells is contiguous in memory — exactly the
//! unit the Sunway port DMA-transfers into a CPE's LDM. 2-D grids are the `nz = 1`
//! special case, which keeps every kernel dimension-agnostic.

use crate::error::{CoreError, Result};

/// A 3-component integer cell coordinate.
pub type Idx3 = [usize; 3];

/// Grid dimensions with the paper's (y, x, z) memory ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridDims {
    /// Cells along x.
    pub nx: usize,
    /// Cells along y.
    pub ny: usize,
    /// Cells along z (1 for 2-D grids).
    pub nz: usize,
}

impl GridDims {
    /// Create a 3-D grid. All dimensions must be nonzero.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "grid dimensions must be nonzero");
        Self { nx, ny, nz }
    }

    /// Create a 2-D grid (`nz = 1`).
    pub fn new2d(nx: usize, ny: usize) -> Self {
        Self::new(nx, ny, 1)
    }

    /// Fallible constructor for configuration code paths.
    pub fn try_new(nx: usize, ny: usize, nz: usize) -> Result<Self> {
        if nx == 0 || ny == 0 || nz == 0 {
            return Err(CoreError::InvalidDims(format!(
                "dimensions must be nonzero, got {nx}x{ny}x{nz}"
            )));
        }
        Ok(Self { nx, ny, nz })
    }

    /// Total number of cells.
    #[inline]
    pub fn cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Linear index of cell `(x, y, z)`; z fastest, then x, then y.
    #[inline(always)]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        (y * self.nx + x) * self.nz + z
    }

    /// Inverse of [`GridDims::idx`].
    #[inline]
    pub fn coords(&self, idx: usize) -> Idx3 {
        debug_assert!(idx < self.cells());
        let z = idx % self.nz;
        let rest = idx / self.nz;
        let x = rest % self.nx;
        let y = rest / self.nx;
        [x, y, z]
    }

    /// Neighbor coordinate with **periodic wrap** in all directions.
    ///
    /// `c` is a lattice velocity (components in {-1, 0, 1}).
    #[inline(always)]
    pub fn neighbor_periodic(&self, x: usize, y: usize, z: usize, c: [i32; 3]) -> Idx3 {
        [
            wrap(x, c[0], self.nx),
            wrap(y, c[1], self.ny),
            wrap(z, c[2], self.nz),
        ]
    }

    /// Neighbor coordinate without wrapping; `None` when it would leave the grid.
    #[inline(always)]
    pub fn neighbor_checked(&self, x: usize, y: usize, z: usize, c: [i32; 3]) -> Option<Idx3> {
        let nx = x as i64 + c[0] as i64;
        let ny = y as i64 + c[1] as i64;
        let nz = z as i64 + c[2] as i64;
        if nx < 0
            || ny < 0
            || nz < 0
            || nx >= self.nx as i64
            || ny >= self.ny as i64
            || nz >= self.nz as i64
        {
            None
        } else {
            Some([nx as usize, ny as usize, nz as usize])
        }
    }

    /// Whether `(x, y, z)` lies on the outer surface of the grid.
    #[inline]
    pub fn on_boundary(&self, x: usize, y: usize, z: usize) -> bool {
        x == 0
            || y == 0
            || x + 1 == self.nx
            || y + 1 == self.ny
            || (self.nz > 1 && (z == 0 || z + 1 == self.nz))
    }

    /// Iterate over every cell coordinate in memory order (y → x → z).
    pub fn iter(&self) -> impl Iterator<Item = Idx3> + '_ {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        (0..ny).flat_map(move |y| (0..nx).flat_map(move |x| (0..nz).map(move |z| [x, y, z])))
    }

    /// Validate that a per-cell field has exactly one entry per cell.
    pub fn check_len<T>(&self, field: &[T]) -> Result<()> {
        if field.len() != self.cells() {
            Err(CoreError::LengthMismatch {
                got: field.len(),
                expected: self.cells(),
            })
        } else {
            Ok(())
        }
    }
}

/// Wrap `x + dx` into `[0, n)`.
#[inline(always)]
fn wrap(x: usize, dx: i32, n: usize) -> usize {
    // n is a grid dimension (≥ 1) and |dx| ≤ 1, so one conditional add suffices
    // and avoids a div in the hot path.
    let v = x as i64 + dx as i64;
    if v < 0 {
        (v + n as i64) as usize
    } else if v >= n as i64 {
        (v - n as i64) as usize
    } else {
        v as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_is_fastest_axis() {
        let d = GridDims::new(4, 3, 5);
        assert_eq!(d.idx(0, 0, 0), 0);
        assert_eq!(d.idx(0, 0, 1), 1);
        assert_eq!(d.idx(1, 0, 0), 5);
        assert_eq!(d.idx(0, 1, 0), 20);
        assert_eq!(d.idx(3, 2, 4), d.cells() - 1);
    }

    #[test]
    fn coords_inverts_idx() {
        let d = GridDims::new(7, 5, 3);
        for i in 0..d.cells() {
            let [x, y, z] = d.coords(i);
            assert_eq!(d.idx(x, y, z), i);
        }
    }

    #[test]
    fn iter_visits_all_cells_in_memory_order() {
        let d = GridDims::new(3, 2, 4);
        let visited: Vec<usize> = d.iter().map(|[x, y, z]| d.idx(x, y, z)).collect();
        let expect: Vec<usize> = (0..d.cells()).collect();
        assert_eq!(visited, expect);
    }

    #[test]
    fn periodic_wrap_both_directions() {
        let d = GridDims::new(4, 4, 4);
        assert_eq!(d.neighbor_periodic(0, 0, 0, [-1, -1, -1]), [3, 3, 3]);
        assert_eq!(d.neighbor_periodic(3, 3, 3, [1, 1, 1]), [0, 0, 0]);
        assert_eq!(d.neighbor_periodic(2, 1, 0, [0, 1, 0]), [2, 2, 0]);
    }

    #[test]
    fn checked_neighbor_rejects_out_of_grid() {
        let d = GridDims::new(2, 2, 2);
        assert_eq!(d.neighbor_checked(0, 0, 0, [-1, 0, 0]), None);
        assert_eq!(d.neighbor_checked(1, 1, 1, [1, 0, 0]), None);
        assert_eq!(d.neighbor_checked(0, 0, 0, [1, 1, 1]), Some([1, 1, 1]));
    }

    #[test]
    fn boundary_detection_2d_ignores_z() {
        let d = GridDims::new2d(4, 4);
        // In 2-D every cell has z = 0 but that must not mark it as boundary.
        assert!(!d.on_boundary(2, 2, 0));
        assert!(d.on_boundary(0, 2, 0));
        assert!(d.on_boundary(2, 3, 0));
    }

    #[test]
    fn boundary_detection_3d() {
        let d = GridDims::new(4, 4, 4);
        assert!(!d.on_boundary(2, 2, 2));
        assert!(d.on_boundary(2, 2, 0));
        assert!(d.on_boundary(2, 2, 3));
    }

    #[test]
    fn try_new_rejects_zero() {
        assert!(GridDims::try_new(0, 1, 1).is_err());
        assert!(GridDims::try_new(1, 0, 1).is_err());
        assert!(GridDims::try_new(1, 1, 0).is_err());
        assert!(GridDims::try_new(1, 1, 1).is_ok());
    }

    #[test]
    fn check_len_reports_mismatch() {
        let d = GridDims::new(2, 2, 2);
        assert!(d.check_len(&[0u8; 8]).is_ok());
        let err = d.check_len(&[0u8; 7]).unwrap_err();
        assert_eq!(
            err,
            crate::error::CoreError::LengthMismatch { got: 7, expected: 8 }
        );
    }
}
