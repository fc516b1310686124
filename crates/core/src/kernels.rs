//! The fused streaming+collision kernel (the paper's production kernel).
//!
//! SunwayLB uses the **pull scheme** (Wellein et al., ref. \[40\]): one loop over the
//! domain in which every cell gathers its incoming populations from the previous
//! time level (`src`), applies boundary rules inline, collides, and stores the
//! post-collision state to the next time level (`dst`). With the A-B buffer pair
//! this is race-free and needs no synchronization between streaming and collision
//! — the property the paper exploits to fuse the memory-bound propagation with the
//! compute-bound collision (§IV-C.3, ~30 % gain on Sunway).
//!
//! This module holds the generic cell bodies, valid for every lattice, layout
//! and collision operator, and the interior index:
//!
//! * [`fused_step`] / [`fused_step_rect`] — the generic reference kernel, every
//!   boundary condition included: one cell body, written through a shared
//!   writer so the thread pool in [`crate::parallel`] runs the very same code
//!   per y-slab. All other execution paths in the workspace (split kernels,
//!   push scheme, the CPE-cluster emulator in `swlb-arch`, the distributed
//!   engine in `swlb-sim`) are tested for exact agreement with it.
//! * `aa_generic_rect` — its single-grid (AA-pattern) counterpart.
//! * [`InteriorIndex`] — the cells whose whole neighborhood is fluid, as a
//!   mask and as run-length z-runs. Those cells take the hand-specialized
//!   D3Q19 update of [`crate::simd`] (hoisted neighbor offsets, a fully
//!   unrolled direction loop — the portable analog of the paper's
//!   assembly-level optimization stage — at lane width 8, 4 or 1), reached
//!   through [`crate::parallel::ThreadPool`]; the generic bodies here finish
//!   the boundary shell, skipping the cells of the mask.
//! * [`initialize_with`] — the one initializer, a column walk on the pool.

use crate::boundary::NodeKind;
use crate::collision::{collide, CollisionKind};
use crate::equilibrium::equilibrium;
use crate::flags::FlagField;
use crate::lattice::Lattice;
use crate::layout::{for_each_column, AaParity, PopField, SoaField};
use crate::parallel::ThreadPool;
use crate::Scalar;
use std::ops::Range;

/// Largest `Q` across the supported lattices; sizes the per-cell stack buffer.
pub const MAX_Q: usize = 32;

/// Gather the incoming populations of cell `(x, y, z)` from `src` into `f`,
/// applying bounce-back rules against solid neighbors. Periodic wrap is the
/// default at domain edges.
#[inline(always)]
pub fn gather_pull<L: Lattice, F: PopField<L>>(
    flags: &FlagField,
    src: &F,
    x: usize,
    y: usize,
    z: usize,
    f: &mut [Scalar],
) {
    let dims = flags.dims();
    let this = dims.idx(x, y, z);
    for q in 0..L::Q {
        let c = L::C[q];
        let [nx, ny, nz] = dims.neighbor_periodic(x, y, z, [-c[0], -c[1], -c[2]]);
        let n = dims.idx(nx, ny, nz);
        f[q] = match flags.kind(n) {
            NodeKind::Wall => src.get(this, L::OPP[q]),
            NodeKind::MovingWall { u } => {
                // Halfway bounce-back with wall-momentum correction
                // (Ladd): f_q = f*_opp(q) + 6 w_q ρ₀ (c_q · u_w), ρ₀ = 1.
                let cu = c[0] as Scalar * u[0] + c[1] as Scalar * u[1] + c[2] as Scalar * u[2];
                src.get(this, L::OPP[q]) + 6.0 * L::W[q] * cu
            }
            _ => src.get(n, q),
        };
    }
}

/// Write the post-step state of a non-fluid cell directly into `dst`.
///
/// * solid cells copy through (their populations are inert but kept deterministic
///   so that checkpoints and equivalence tests are exact),
/// * inlets are reset to their imposed equilibrium,
/// * outlets copy the full population vector of their interior neighbor
///   (zero-gradient closure).
#[inline]
pub fn apply_non_fluid<L: Lattice, F: PopField<L>>(
    flags: &FlagField,
    src: &F,
    dst: &mut F,
    x: usize,
    y: usize,
    z: usize,
    kind: NodeKind,
) {
    let dims = flags.dims();
    let this = dims.idx(x, y, z);
    match kind {
        NodeKind::Wall | NodeKind::MovingWall { .. } => {
            for q in 0..L::Q {
                dst.set(this, q, src.get(this, q));
            }
        }
        NodeKind::Inlet { rho, u } => {
            let mut feq = [0.0; MAX_Q];
            equilibrium::<L>(rho, u, &mut feq[..L::Q]);
            dst.store_cell(this, &feq[..L::Q]);
        }
        NodeKind::Outlet { normal } => {
            let m = dims
                .neighbor_checked(x, y, z, [-normal[0], -normal[1], -normal[2]])
                .map(|[a, b, c]| dims.idx(a, b, c))
                .unwrap_or(this);
            for q in 0..L::Q {
                dst.set(this, q, src.get(m, q));
            }
        }
        NodeKind::Fluid | NodeKind::VelocityNebb { .. } | NodeKind::PressureNebb { .. } => {
            unreachable!("apply_non_fluid called on a streaming cell")
        }
    }
}

/// Reconstruct the unknown populations of a NEBB boundary cell in place (no-op
/// for other kinds). Called between gather and collision.
#[inline(always)]
pub fn reconstruct_nebb<L: Lattice>(f: &mut [Scalar], kind: NodeKind) {
    match kind {
        NodeKind::VelocityNebb { u, normal } => {
            crate::nebb::reconstruct_velocity::<L>(f, u, normal);
        }
        NodeKind::PressureNebb { rho, normal } => {
            crate::nebb::reconstruct_pressure::<L>(f, rho, normal);
        }
        _ => {}
    }
}

/// A `Send + Sync` writer over a population field's raw storage.
///
/// # Safety contract
/// Constructed from a uniquely-borrowed field; concurrent users must write
/// disjoint `(cell, q)` index sets. The pool in [`crate::parallel`] guarantees
/// this by handing every thread disjoint y-slabs.
pub(crate) struct SharedWriter {
    ptr: *mut Scalar,
    len: usize,
}

// SAFETY: the pointer refers to a buffer whose unique borrow is held (and not
// otherwise used) for as long as the writer lives; disjointness of writes is
// the users' contract above.
unsafe impl Send for SharedWriter {}
unsafe impl Sync for SharedWriter {}

impl SharedWriter {
    /// Wrap the uniquely borrowed raw storage of a field.
    pub(crate) fn new(raw: &mut [Scalar]) -> Self {
        SharedWriter {
            ptr: raw.as_mut_ptr(),
            len: raw.len(),
        }
    }

    /// The raw destination pointer (for the interior kernels, which index
    /// the SoA planes themselves).
    #[inline(always)]
    pub(crate) fn ptr(&self) -> *mut Scalar {
        self.ptr
    }

    /// The `len` scalars from `index` on, as one mutable run.
    ///
    /// # Safety
    /// In bounds, and no other thread touches them while the run lives.
    #[allow(clippy::mut_from_ref)]
    #[inline(always)]
    pub(crate) unsafe fn slice_mut(&self, index: usize, len: usize) -> &mut [Scalar] {
        debug_assert!(index + len <= self.len);
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(index), len) }
    }

    /// # Safety
    /// `index < len` and no other thread writes the same index concurrently.
    #[inline(always)]
    unsafe fn write(&self, index: usize, v: Scalar) {
        debug_assert!(index < self.len);
        unsafe { *self.ptr.add(index) = v };
    }
}

/// The generic cell body: one fused stream+collide step over the rectangle
/// `xr × ys` (full z depth), written through `writer`. Cells flagged in
/// `skip_mask` were already produced by the interior kernels and are skipped.
///
/// `src` must hold the complete post-collision state of the previous step.
/// Rectangles with disjoint `ys` touch disjoint destination cells, which is
/// what makes the multithreaded driver in [`crate::parallel`] sound.
///
/// # Safety
/// `writer` must target a field of `src`'s layout and dimensions, and no
/// other thread may write any cell of `xr × ys` concurrently.
pub(crate) unsafe fn generic_rect<L: Lattice, F: PopField<L>>(
    flags: &FlagField,
    src: &F,
    writer: &SharedWriter,
    collision: &CollisionKind,
    xr: Range<usize>,
    ys: Range<usize>,
    skip_mask: Option<&[bool]>,
) {
    let dims = flags.dims();
    debug_assert!(ys.end <= dims.ny && xr.end <= dims.nx);
    let mut f = [0.0; MAX_Q];
    for y in ys {
        for x in xr.clone() {
            for z in 0..dims.nz {
                let this = dims.idx(x, y, z);
                if skip_mask.is_some_and(|m| m[this]) {
                    continue;
                }
                let kind = flags.kind(this);
                // SAFETY (every write below): (this, q) lies inside the
                // caller's rectangle.
                match kind {
                    NodeKind::Fluid
                    | NodeKind::VelocityNebb { .. }
                    | NodeKind::PressureNebb { .. } => {
                        gather_pull::<L, F>(flags, src, x, y, z, &mut f[..L::Q]);
                        reconstruct_nebb::<L>(&mut f[..L::Q], kind);
                        collide::<L>(&mut f[..L::Q], collision);
                        for q in 0..L::Q {
                            unsafe { writer.write(src.index_of(this, q), f[q]) };
                        }
                    }
                    NodeKind::Wall | NodeKind::MovingWall { .. } => {
                        for q in 0..L::Q {
                            unsafe { writer.write(src.index_of(this, q), src.get(this, q)) };
                        }
                    }
                    NodeKind::Inlet { rho, u } => {
                        equilibrium::<L>(rho, u, &mut f[..L::Q]);
                        for q in 0..L::Q {
                            unsafe { writer.write(src.index_of(this, q), f[q]) };
                        }
                    }
                    NodeKind::Outlet { normal } => {
                        let m = dims
                            .neighbor_checked(x, y, z, [-normal[0], -normal[1], -normal[2]])
                            .map(|[a, b, c]| dims.idx(a, b, c))
                            .unwrap_or(this);
                        for q in 0..L::Q {
                            unsafe { writer.write(src.index_of(this, q), src.get(m, q)) };
                        }
                    }
                }
            }
        }
    }
}

/// One fused stream+collide step over the rectangle `xr × ys` (full z depth)
/// — the generic reference kernel. It is the safe face of the one generic
/// cell body (`generic_rect`): a 1-thread pool runs inline, and without an
/// interior index every cell takes that body.
pub fn fused_step_rect<L: Lattice, F: PopField<L>>(
    flags: &FlagField,
    src: &F,
    dst: &mut F,
    collision: &CollisionKind,
    xr: Range<usize>,
    ys: Range<usize>,
) {
    // Through the pool rather than straight into `generic_rect`, so the body
    // keeps a single call site and is compiled into the slab job: out of
    // line it spills more and measured ~12 % slower (taylor-green2d, and the
    // boundary shell of every D3Q19 workload).
    ThreadPool::new(1).step_rect::<L, F>(flags, src, dst, collision, xr, ys, None);
}

/// The generic reference kernel over the whole domain.
pub fn fused_step<L: Lattice, F: PopField<L>>(
    flags: &FlagField,
    src: &F,
    dst: &mut F,
    collision: &CollisionKind,
) {
    let dims = flags.dims();
    fused_step_rect::<L, F>(flags, src, dst, collision, 0..dims.nx, 0..dims.ny);
}

/// Precompute the interior-fast-path mask: `true` where the cell is fluid, geometrically interior, and all 18 pull
/// sources are fluid too.
pub fn interior_mask<L: Lattice>(flags: &FlagField) -> Vec<bool> {
    let dims = flags.dims();
    let mut mask = vec![false; dims.cells()];
    if dims.nx < 3 || dims.ny < 3 || dims.nz < 3 {
        return mask;
    }
    for y in 1..dims.ny - 1 {
        for x in 1..dims.nx - 1 {
            for z in 1..dims.nz - 1 {
                let this = dims.idx(x, y, z);
                if !flags.kind(this).is_fluid() {
                    continue;
                }
                let mut ok = true;
                for q in 1..L::Q {
                    let c = L::C[q];
                    let [a, b, d] = dims.neighbor_periodic(x, y, z, [-c[0], -c[1], -c[2]]);
                    if !flags.kind(dims.idx(a, b, d)).is_fluid() {
                        ok = false;
                        break;
                    }
                }
                mask[this] = ok;
            }
        }
    }
    mask
}

/// Run-length encoding of an interior mask: per z-pencil `p = y·nx + x`, the
/// maximal spans `(z0, z1)` of consecutive mask-true cells, CSR-packed.
///
/// The SoA layout is z-innermost, so a span is a contiguous stretch of linear
/// indices — exactly what the interior loop nest in [`crate::simd`] needs to
/// issue whole-lane loads with no per-cell mask test. Built once per flag
/// generation (cached on `Solver` / `DistributedSolver`), not per step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InteriorRuns {
    /// CSR row pointers: pencil `p` owns `spans[starts[p]..starts[p+1]]`.
    starts: Vec<u32>,
    /// Half-open z spans of interior cells, in ascending z order per pencil.
    spans: Vec<(u32, u32)>,
}

impl InteriorRuns {
    /// Encode `mask` (one bool per cell of `dims`, z-innermost) into runs.
    pub fn from_mask(dims: crate::geometry::GridDims, mask: &[bool]) -> Self {
        debug_assert_eq!(mask.len(), dims.cells());
        let pencils = dims.nx * dims.ny;
        let mut starts = Vec::with_capacity(pencils + 1);
        let mut spans = Vec::new();
        starts.push(0u32);
        for p in 0..pencils {
            let line = &mask[p * dims.nz..(p + 1) * dims.nz];
            let mut z = 0;
            while z < dims.nz {
                if line[z] {
                    let run_start = z;
                    while z < dims.nz && line[z] {
                        z += 1;
                    }
                    spans.push((run_start as u32, z as u32));
                } else {
                    z += 1;
                }
            }
            starts.push(spans.len() as u32);
        }
        InteriorRuns { starts, spans }
    }

    /// The interior spans of z-pencil `p = y·nx + x`.
    #[inline(always)]
    pub fn pencil(&self, p: usize) -> &[(u32, u32)] {
        &self.spans[self.starts[p] as usize..self.starts[p + 1] as usize]
    }

    /// Total number of cells covered by all runs.
    pub fn cell_count(&self) -> usize {
        self.spans.iter().map(|&(a, b)| (b - a) as usize).sum()
    }

    /// Total number of runs (diagnostics).
    pub fn run_count(&self) -> usize {
        self.spans.len()
    }
}

/// The interior fast-path index: the per-cell mask (the skip set of the
/// generic-remainder sweep) plus its run-length encoding (what the interior
/// loop nest walks). Both views describe the same cell set;
/// build it once per flag generation with [`InteriorIndex::build`].
#[derive(Debug, Clone)]
pub struct InteriorIndex {
    /// The grid the index was built for; the pool refuses any other, which is
    /// what keeps its safe entry points memory-safe.
    pub(crate) dims: crate::geometry::GridDims,
    mask: Vec<bool>,
    runs: InteriorRuns,
}

impl InteriorIndex {
    /// Compute mask + runs for the current flags (see [`interior_mask`]).
    pub fn build<L: Lattice>(flags: &FlagField) -> Self {
        let mask = interior_mask::<L>(flags);
        let dims = flags.dims();
        let runs = InteriorRuns::from_mask(dims, &mask);
        InteriorIndex { dims, mask, runs }
    }

    /// Per-cell interior mask (z-innermost linear indexing).
    #[inline(always)]
    pub fn mask(&self) -> &[bool] {
        &self.mask
    }

    /// Run-length-encoded view of the same interior set.
    #[inline(always)]
    pub fn runs(&self) -> &InteriorRuns {
        &self.runs
    }
}

/// Generic AA-pattern sweep over the rectangle `xr × ys` (full z depth) — the
/// single-grid counterpart of [`fused_step_rect`], valid for every lattice and
/// collision operator but only for Fluid/Wall/MovingWall node kinds (open
/// boundaries need the two-grid AB scheme; builders reject the combination).
///
/// `parity` names the *current* state of the grid: `Reversed` runs the odd
/// step (pull reversed neighbor slots, collide, scatter to neighbors — grid
/// becomes `Streamed`); `Streamed` runs the even step (gather own slots /
/// wall mailboxes, collide, store locally reversed — grid becomes
/// `Reversed`). Cells where `skip_mask` is `true` are left untouched, which
/// is how the pool runs only the boundary-shell remainder after the interior
/// kernels.
///
/// Solid cells are never processed; their slots serve as bounce-back
/// mailboxes and hold scheme-dependent (but always finite) values.
///
/// # Safety
/// `raw` must point at `L::Q * cells` writable scalars laid out SoA
/// (plane-major). Concurrent callers must cover disjoint cell sets; the AA
/// slot-ownership discipline (each slot is read and written only by the one
/// cell that owns it, gather-before-scatter) makes cross-slab odd-step
/// scatters race-free under any partition or pass order.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn aa_generic_rect<L: Lattice>(
    flags: &FlagField,
    raw: *mut Scalar,
    collision: &CollisionKind,
    parity: AaParity,
    xr: Range<usize>,
    ys: Range<usize>,
    skip_mask: Option<&[bool]>,
) {
    let dims = flags.dims();
    debug_assert!(ys.end <= dims.ny && xr.end <= dims.nx);
    let cells = dims.cells();
    let mut f = [0.0; MAX_Q];
    for y in ys {
        for x in xr.clone() {
            for z in 0..dims.nz {
                let this = dims.idx(x, y, z);
                if let Some(mask) = skip_mask {
                    if mask[this] {
                        continue;
                    }
                }
                let kind = flags.kind(this);
                match kind {
                    NodeKind::Fluid => {}
                    NodeKind::Wall | NodeKind::MovingWall { .. } => continue,
                    other => panic!(
                        "AA-pattern streaming supports Fluid/Wall/MovingWall only, \
                         found {other:?} at ({x},{y},{z}); use StorageScheme::Ab \
                         for open/NEBB boundaries"
                    ),
                }
                match parity {
                    AaParity::Reversed => {
                        // Odd step: the reversed slot (x, q) holds f*_opp(q)(x),
                        // so direction q's incoming population sits in plane
                        // opp(q) of the upwind neighbor — or, against a wall,
                        // bounced back in our own plane q.
                        for q in 0..L::Q {
                            let c = L::C[q];
                            let [a, b, d] =
                                dims.neighbor_periodic(x, y, z, [-c[0], -c[1], -c[2]]);
                            let n = dims.idx(a, b, d);
                            f[q] = match flags.kind(n) {
                                NodeKind::Wall => *raw.add(q * cells + this),
                                NodeKind::MovingWall { u } => {
                                    let cu = c[0] as Scalar * u[0]
                                        + c[1] as Scalar * u[1]
                                        + c[2] as Scalar * u[2];
                                    *raw.add(q * cells + this) + 6.0 * L::W[q] * cu
                                }
                                _ => *raw.add(L::OPP[q] * cells + n),
                            };
                        }
                        collide::<L>(&mut f[..L::Q], collision);
                        // Scatter unconditionally — writes into solid neighbors
                        // are the bounce-back mailboxes the even step reads.
                        for q in 0..L::Q {
                            let c = L::C[q];
                            let [a, b, d] = dims.neighbor_periodic(x, y, z, [c[0], c[1], c[2]]);
                            let m = dims.idx(a, b, d);
                            *raw.add(q * cells + m) = f[q];
                        }
                    }
                    AaParity::Streamed => {
                        // Even step: the odd scatter already streamed, so slot
                        // (y, q) holds f_q(y) — except where the writer cell is
                        // solid, in which case our own odd scatter parked
                        // f*_opp(q)(y) in the wall's mailbox (n, opp(q)).
                        for q in 0..L::Q {
                            let c = L::C[q];
                            let [a, b, d] =
                                dims.neighbor_periodic(x, y, z, [-c[0], -c[1], -c[2]]);
                            let n = dims.idx(a, b, d);
                            f[q] = match flags.kind(n) {
                                NodeKind::Wall => *raw.add(L::OPP[q] * cells + n),
                                NodeKind::MovingWall { u } => {
                                    let cu = c[0] as Scalar * u[0]
                                        + c[1] as Scalar * u[1]
                                        + c[2] as Scalar * u[2];
                                    *raw.add(L::OPP[q] * cells + n) + 6.0 * L::W[q] * cu
                                }
                                _ => *raw.add(q * cells + this),
                            };
                        }
                        collide::<L>(&mut f[..L::Q], collision);
                        // Store locally reversed, returning to the Reversed state.
                        for q in 0..L::Q {
                            *raw.add(L::OPP[q] * cells + this) = f[q];
                        }
                    }
                }
            }
        }
    }
}

/// Swap each direction plane `q` with its opposite `opp(q)` in place — the
/// whole-grid slot reversal that converts between the canonical (AB-ordered)
/// post-collision state and the AA `Reversed` state. An involution.
pub fn reverse_planes<L: Lattice>(field: &mut SoaField<L>) {
    let cells = field.dims().cells();
    let raw = field.raw_mut();
    for q in 0..L::Q {
        let o = L::OPP[q];
        if q < o {
            let (lo, hi) = raw.split_at_mut(o * cells);
            lo[q * cells..(q + 1) * cells].swap_with_slice(&mut hi[..cells]);
        }
    }
}

/// Initialize every cell of `field` from `state(x, y, z) = (rho, u)`:
/// non-solid cells to `f_eq(rho, u)`, solid cells to the inert, deterministic
/// `w_q · rho`. The one initializer, a column walk on `pool`: initialising
/// also gives first touch to the thread that will sweep the slab. Every cell
/// is written once from its own state, so the result does not depend on the
/// thread count.
pub fn initialize_with<L: Lattice, F: PopField<L>>(
    pool: &ThreadPool,
    flags: &FlagField,
    field: &mut F,
    state: impl Fn(usize, usize, usize) -> (Scalar, [Scalar; 3]) + Sync,
) {
    let dims = flags.dims();
    assert_eq!(field.dims(), dims, "field does not fit the flag grid");
    let writer = SharedWriter::new(field.raw_mut());
    // From here on only the field's index arithmetic is read; its storage is
    // written through `writer`.
    let field = &*field;
    for_each_column(pool, dims, |x, y| {
        let mut feq = [0.0; MAX_Q];
        for z in 0..dims.nz {
            let cell = dims.idx(x, y, z);
            let (rho, u) = state(x, y, z);
            if flags.kind(cell).is_solid() {
                for (v, w) in feq.iter_mut().zip(L::W) {
                    *v = w * rho;
                }
            } else {
                equilibrium::<L>(rho, u, &mut feq[..L::Q]);
            }
            for q in 0..L::Q {
                // SAFETY: `(cell, q)` lies in this column, which the walk
                // hands to exactly one thread; `&mut field` is held
                // throughout.
                unsafe { writer.write(field.index_of(cell, q), feq[q]) };
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collision::BgkParams;
    use crate::equilibrium::moments;
    use crate::geometry::GridDims;
    use crate::lattice::{D2Q9, D3Q19};
    use crate::layout::AosField;
    use crate::macroscopic::MacroFields;
    use crate::simd::{ab_interior_sweep, FastPath, KernelClass};

    /// A field at equilibrium `(rho, u)` everywhere.
    fn uniform<L: Lattice>(flags: &FlagField, rho: Scalar, u: [Scalar; 3]) -> SoaField<L> {
        let mut field = SoaField::<L>::new(flags.dims());
        initialize_with::<L, _>(&ThreadPool::new(1), flags, &mut field, |_, _, _| (rho, u));
        field
    }

    fn setup_random_field<L: Lattice, F: PopField<L>>(dims: GridDims, seed: u64) -> F {
        let mut field = F::new(dims);
        let mut s = seed;
        let mut next = move || {
            // xorshift64*
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as Scalar / (1u64 << 53) as Scalar
        };
        for cell in 0..field.cells() {
            for q in 0..L::Q {
                field.set(cell, q, 0.02 + 0.05 * next());
            }
        }
        field
    }

    #[test]
    fn fused_step_preserves_mass_on_periodic_domain() {
        let dims = GridDims::new(6, 5, 4);
        let flags = FlagField::new(dims);
        let src: SoaField<D3Q19> = setup_random_field(dims, 7);
        let mut dst = SoaField::<D3Q19>::new(dims);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        fused_step(&flags, &src, &mut dst, &coll);

        let total =
            |f: &SoaField<D3Q19>| MacroFields::compute::<D3Q19, _>(&flags, f).total_mass(&flags);
        assert!((total(&src) - total(&dst)).abs() < 1e-10);
    }

    #[test]
    fn fused_step_preserves_momentum_on_periodic_domain() {
        let dims = GridDims::new(4, 4, 4);
        let flags = FlagField::new(dims);
        let src: SoaField<D3Q19> = setup_random_field(dims, 99);
        let mut dst = SoaField::<D3Q19>::new(dims);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.7));
        fused_step(&flags, &src, &mut dst, &coll);

        let mom = |f: &SoaField<D3Q19>| -> [Scalar; 3] {
            let mut m = [0.0; 3];
            let mut buf = [0.0; MAX_Q];
            for c in 0..f.cells() {
                f.load_cell(c, &mut buf[..19]);
                let (_, j) = moments::<D3Q19>(&buf[..19]);
                for a in 0..3 {
                    m[a] += j[a];
                }
            }
            m
        };
        let (m0, m1) = (mom(&src), mom(&dst));
        for a in 0..3 {
            assert!(
                (m0[a] - m1[a]).abs() < 1e-10,
                "axis {a}: {} vs {}",
                m0[a],
                m1[a]
            );
        }
    }

    #[test]
    fn soa_and_aos_produce_identical_states() {
        let dims = GridDims::new(5, 4, 3);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.9));

        let soa_src: SoaField<D3Q19> = setup_random_field(dims, 5);
        let mut aos_src = AosField::<D3Q19>::new(dims);
        for c in 0..dims.cells() {
            for q in 0..19 {
                aos_src.set(c, q, soa_src.get(c, q));
            }
        }
        let mut soa_dst = SoaField::<D3Q19>::new(dims);
        let mut aos_dst = AosField::<D3Q19>::new(dims);
        fused_step(&flags, &soa_src, &mut soa_dst, &coll);
        fused_step(&flags, &aos_src, &mut aos_dst, &coll);
        for c in 0..dims.cells() {
            for q in 0..19 {
                assert_eq!(soa_dst.get(c, q), aos_dst.get(c, q), "cell {c} q {q}");
            }
        }
    }

    #[test]
    fn optimized_kernel_matches_generic() {
        let dims = GridDims::new(8, 7, 6);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        // Add an off-center obstacle to exercise the mask boundary.
        flags.set(3, 3, 3, NodeKind::Wall);
        flags.set(4, 3, 3, NodeKind::Wall);

        let tau = 0.85;
        let coll = CollisionKind::Bgk(BgkParams::from_tau(tau));
        let src: SoaField<D3Q19> = setup_random_field(dims, 21);
        let interior = InteriorIndex::build::<D3Q19>(&flags);

        let mut ref_dst = SoaField::<D3Q19>::new(dims);
        fused_step(&flags, &src, &mut ref_dst, &coll);

        // Every tile size must agree: bit-for-bit on the scalar-semantics
        // paths (the collision kind is threaded through with no ω→τ→ω
        // round-trip and tiling only permutes independent per-cell updates),
        // within 1e-12 when the AVX2+FMA lane is auto-selected.
        let tol = crate::simd::dispatch_tolerance();
        for tile_z in [0, 1, 2, 3, 70] {
            let mut opt_dst = SoaField::<D3Q19>::new(dims);
            let class = ThreadPool::new(1).with_tile_z(tile_z).fused_step(
                &flags,
                &src,
                &mut opt_dst,
                &coll,
                Some(&interior),
            );
            assert_ne!(class, KernelClass::Generic, "BGK must take a fast path");

            for c in 0..dims.cells() {
                for q in 0..19 {
                    let (r, o) = (ref_dst.get(c, q), opt_dst.get(c, q));
                    assert!(
                        (r - o).abs() <= tol,
                        "tile_z {tile_z} cell {c} q {q}: generic {r} vs optimized {o} (tol {tol:e})"
                    );
                }
            }
        }
    }

    #[test]
    fn optimized_dispatch_falls_back_for_non_bgk_operators() {
        let dims = GridDims::new(6, 6, 6);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        let src: SoaField<D3Q19> = setup_random_field(dims, 41);
        let interior = InteriorIndex::build::<D3Q19>(&flags);
        let coll = CollisionKind::SmagorinskyLes(
            crate::collision::SmagorinskyParams::new(BgkParams::from_tau(0.8), 0.12).unwrap(),
        );

        let mut ref_dst = SoaField::<D3Q19>::new(dims);
        fused_step(&flags, &src, &mut ref_dst, &coll);
        let mut opt_dst = SoaField::<D3Q19>::new(dims);
        let class = ThreadPool::new(1).with_tile_z(2).fused_step(
            &flags,
            &src,
            &mut opt_dst,
            &coll,
            Some(&interior),
        );
        assert_eq!(class, KernelClass::Generic);
        for c in 0..dims.cells() {
            for q in 0..19 {
                assert_eq!(ref_dst.get(c, q), opt_dst.get(c, q), "cell {c} q {q}");
            }
        }
    }

    #[test]
    fn interior_runs_cover_exactly_the_mask() {
        let dims = GridDims::new(9, 6, 12);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        // Mid-pencil obstacle: its 1-neighborhood leaves interior cells on
        // both sides in z, so the pencil splits into two runs.
        flags.set(4, 3, 5, NodeKind::Wall);
        flags.set(4, 3, 6, NodeKind::Wall);
        let mask = interior_mask::<D3Q19>(&flags);
        let runs = InteriorRuns::from_mask(dims, &mask);

        // Reconstruct a mask from the runs; it must match the original.
        let mut rebuilt = vec![false; dims.cells()];
        for p in 0..dims.nx * dims.ny {
            for &(a, b) in runs.pencil(p) {
                assert!(a < b, "empty span emitted");
                for z in a..b {
                    rebuilt[p * dims.nz + z as usize] = true;
                }
            }
        }
        assert_eq!(mask, rebuilt);
        assert_eq!(runs.cell_count(), mask.iter().filter(|&&m| m).count());
        // The obstacle splits at least one pencil into two runs, so there are
        // strictly more runs than pencils holding any.
        let pencils_with_runs = (0..dims.nx * dims.ny)
            .filter(|&p| !runs.pencil(p).is_empty())
            .count();
        assert!(pencils_with_runs > 0);
        assert!(runs.run_count() > pencils_with_runs);
    }

    #[test]
    fn simd_interior_kernel_matches_scalar_on_runs() {
        // Direct kernel-level check of the one interior nest: every portable
        // width (1 = the scalar kernel) bit-exact vs the generic reference
        // kernel on the interior cells; AVX2 lane (when present) within 1e-12.
        let dims = GridDims::new(8, 6, 13); // nz−2 = 11: full lanes + remainder
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        flags.set(3, 2, 6, NodeKind::Wall); // split runs mid-pencil
        let src: SoaField<D3Q19> = setup_random_field(dims, 77);
        let interior = InteriorIndex::build::<D3Q19>(&flags);
        let params = BgkParams::from_tau(0.85);
        let omega = params.omega;
        // Interior cells only; the remainder of `dst` stays zero.
        let sweep = |tile_z: usize, path: FastPath| {
            let mut dst = SoaField::<D3Q19>::new(dims);
            // SAFETY: `dst` is exclusively ours; the runs came from `flags`;
            // hardware lanes are only requested after detection.
            unsafe {
                ab_interior_sweep(
                    &flags,
                    src.raw(),
                    dst.raw_mut().as_mut_ptr(),
                    omega,
                    0..dims.nx,
                    0..dims.ny,
                    tile_z,
                    interior.runs(),
                    path,
                )
            };
            dst
        };

        // The scalar reference: the generic kernel, kept on interior cells.
        let mut scalar_dst = SoaField::<D3Q19>::new(dims);
        fused_step(&flags, &src, &mut scalar_dst, &CollisionKind::Bgk(params));
        for (c, &inside) in interior.mask().iter().enumerate() {
            if !inside {
                scalar_dst.store_cell(c, &[0.0; 19]);
            }
        }

        for tile_z in [0, 1, 3, 70] {
            for path in [FastPath::Cells, FastPath::Portable, FastPath::Portable8] {
                let simd_dst = sweep(tile_z, path); // must be bit-exact
                for c in 0..dims.cells() {
                    for q in 0..19 {
                        assert_eq!(
                            scalar_dst.get(c, q),
                            simd_dst.get(c, q),
                            "{path:?} lane diverged: tile_z {tile_z} cell {c} q {q}"
                        );
                    }
                }
            }

            if crate::simd::simd_available() {
                let path = if crate::simd::avx512_available() {
                    FastPath::Avx512
                } else {
                    FastPath::Avx2
                };
                let avx_dst = sweep(tile_z, path);
                for c in 0..dims.cells() {
                    for q in 0..19 {
                        let (s, v) = (scalar_dst.get(c, q), avx_dst.get(c, q));
                        assert!(
                            (s - v).abs() <= 1e-12,
                            "avx2 lane out of tolerance: tile_z {tile_z} cell {c} q {q}: {s} vs {v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn interior_mask_excludes_obstacle_neighbors() {
        let dims = GridDims::new(7, 7, 7);
        let mut flags = FlagField::new(dims);
        flags.set(3, 3, 3, NodeKind::Wall);
        let mask = interior_mask::<D3Q19>(&flags);
        // The wall itself and any cell that pulls from it are excluded.
        assert!(!mask[dims.idx(3, 3, 3)]);
        assert!(!mask[dims.idx(4, 3, 3)]);
        assert!(!mask[dims.idx(3, 4, 3)]);
        // A far-away interior cell is included.
        assert!(mask[dims.idx(1, 1, 1)]);
        // Geometric boundary is excluded even on an all-fluid grid.
        assert!(!mask[dims.idx(0, 3, 3)]);
    }

    #[test]
    fn inlet_cells_hold_imposed_equilibrium_after_step() {
        let dims = GridDims::new(6, 4, 3);
        let mut flags = FlagField::new(dims);
        let u_in = [0.07, 0.0, 0.0];
        flags.paint_inflow_outflow_x(1.0, u_in);
        let src: SoaField<D3Q19> = setup_random_field(dims, 3);
        let mut dst = SoaField::<D3Q19>::new(dims);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        fused_step(&flags, &src, &mut dst, &coll);

        let (m, inlet) = (
            MacroFields::compute::<D3Q19, _>(&flags, &dst),
            dims.idx(0, 2, 1),
        );
        let (rho, u) = (m.rho[inlet], m.u[inlet]);
        assert!((rho - 1.0).abs() < 1e-12);
        assert!((u[0] - 0.07).abs() < 1e-12);
        assert!(u[1].abs() < 1e-12);
    }

    #[test]
    fn outlet_cells_copy_interior_neighbor() {
        let dims = GridDims::new(6, 4, 3);
        let mut flags = FlagField::new(dims);
        flags.paint_inflow_outflow_x(1.0, [0.05, 0.0, 0.0]);
        let src: SoaField<D3Q19> = setup_random_field(dims, 11);
        let mut dst = SoaField::<D3Q19>::new(dims);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        fused_step(&flags, &src, &mut dst, &coll);

        let out = dims.idx(5, 1, 1);
        let nb = dims.idx(4, 1, 1);
        for q in 0..19 {
            assert_eq!(dst.get(out, q), src.get(nb, q));
        }
    }

    #[test]
    fn moving_wall_injects_momentum() {
        // A sealed 2-D cavity with a moving lid must develop net x-momentum.
        let dims = GridDims::new2d(8, 8);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        flags.paint_lid([0.1, 0.0, 0.0]);
        let mut src = uniform::<D2Q9>(&flags, 1.0, [0.0; 3]);
        let mut dst = SoaField::<D2Q9>::new(dims);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        for _ in 0..10 {
            fused_step(&flags, &src, &mut dst, &coll);
            std::mem::swap(&mut src, &mut dst);
        }
        let jx = MacroFields::compute::<D2Q9, _>(&flags, &src).total_momentum(&flags)[0];
        assert!(jx > 1e-6, "lid failed to drag fluid: jx = {jx}");
    }

    #[test]
    fn static_walls_keep_fluid_at_rest() {
        // Equilibrium fluid at rest in a sealed box stays exactly at rest.
        let dims = GridDims::new(6, 6, 6);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        let mut src = uniform::<D3Q19>(&flags, 1.0, [0.0; 3]);
        let mut dst = SoaField::<D3Q19>::new(dims);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.6));
        for _ in 0..5 {
            fused_step(&flags, &src, &mut dst, &coll);
            std::mem::swap(&mut src, &mut dst);
        }
        let m = MacroFields::compute::<D3Q19, _>(&flags, &src);
        for c in 0..dims.cells() {
            if flags.kind(c).is_fluid() {
                let (rho, u) = (m.rho[c], m.u[c]);
                assert!((rho - 1.0).abs() < 1e-12);
                for a in 0..3 {
                    assert!(u[a].abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn slab_union_equals_full_step() {
        let dims = GridDims::new(5, 6, 4);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        let src: SoaField<D3Q19> = setup_random_field(dims, 17);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.75));

        let mut whole = SoaField::<D3Q19>::new(dims);
        fused_step(&flags, &src, &mut whole, &coll);

        let mut pieces = SoaField::<D3Q19>::new(dims);
        fused_step_rect(&flags, &src, &mut pieces, &coll, 0..dims.nx, 0..2);
        fused_step_rect(&flags, &src, &mut pieces, &coll, 0..dims.nx, 2..5);
        fused_step_rect(&flags, &src, &mut pieces, &coll, 0..dims.nx, 5..6);

        for c in 0..dims.cells() {
            for q in 0..19 {
                assert_eq!(whole.get(c, q), pieces.get(c, q));
            }
        }
    }
}
