//! Functional emulation of one core group executing the paper's blocking plan.
//!
//! This module is the heart of the substitution for Sunway silicon: it runs one
//! LBM time step for a core-group subdomain **through the REG–LDM–MEM hierarchy**
//! — every population a CPE touches is staged into its capacity-checked LDM by a
//! counted DMA transaction or arrives from a neighboring CPE through the counted
//! register-communication / RMA fabric — and the result is verified bit-equal to
//! the reference kernel in `swlb-core`.
//!
//! ## The schedule (paper §IV-C.2, Fig. 5)
//!
//! * The 64 CPEs split the subdomain's **y rows** between them (the paper's
//!   "divide into 64 parts for 64 CPE").
//! * Each CPE sweeps the **x axis with a 3-plane sliding window**: advancing by
//!   one x only DMAs the new leading plane — the "data reuse inside one CPE"
//!   of Fig. 5(3).
//! * The rows just outside a CPE's y range are owned by its neighbor CPEs; with
//!   sharing enabled they arrive over the **register-communication / RMA fabric**
//!   instead of extra DMA — Fig. 5(4) / Fig. 10(1).
//! * The **z axis is tiled** so the window fits the 64 KB (or 256 KB) LDM; the
//!   planner maximizes the tile because DMA efficiency grows with run length.
//! * With [`FusionMode::Fused`] the collision happens in LDM right after the
//!   gather (the A-B / ping-pong execution of Fig. 7); with
//!   [`FusionMode::Split`] a second DMA round trip re-reads and re-writes every
//!   cell — the traffic the paper's kernel-fusion optimization removes.

use crate::dma::{DmaCounters, DmaEngine};
use crate::ldm::{Ldm, LdmBuf, LdmOverflow};
use crate::machine::MachineSpec;
use crate::regcomm::{Fabric, ShareCounters, ShareFabric};
use swlb_core::boundary::NodeKind;
use swlb_core::collision::collide_bgk;
use swlb_core::equilibrium::equilibrium;
use swlb_core::flags::FlagField;
use swlb_core::lattice::{Lattice, D3Q19};
use swlb_core::layout::{PopField, SoaField};
use swlb_core::Scalar;

/// Whether streaming and collision run as one LDM pass or two DMA round trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusionMode {
    /// Fused stream+collide in LDM (the paper's optimized kernel).
    Fused,
    /// Separate propagate and collide passes (the pre-fusion baseline).
    Split,
}

/// How y-halo rows reach a CPE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingMode {
    /// From the neighboring CPE's LDM over register communication / RMA.
    NeighborFabric,
    /// Every CPE re-fetches halo rows from main memory via DMA.
    DmaOnly,
}

/// Aggregated execution counters of one emulated step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// DMA traffic summed over all CPEs.
    pub dma: DmaCounters,
    /// Fabric traffic summed over all CPEs.
    pub share: ShareCounters,
    /// Peak LDM bytes used by any CPE (must be ≤ the machine's LDM).
    pub ldm_high_water: usize,
    /// z-tiles processed.
    pub tiles: u64,
}

const Q: usize = 19;
const NCPE_DEFAULT: usize = 64;

/// Emulated core group executing D3Q19 steps through the LDM hierarchy.
#[derive(Debug, Clone)]
pub struct CoreGroupExecutor {
    machine: MachineSpec,
    fusion: FusionMode,
    sharing: SharingMode,
    ncpe: usize,
}

/// Per-CPE emulation state for one z-tile sweep.
struct Cpe {
    ldm: Ldm,
    dma: DmaEngine,
    /// Input window: `[3 planes][Q][h+2 rows][tzp]`.
    win: LdmBuf,
    /// Output tile: `[Q][h rows][tz]`.
    out: LdmBuf,
    /// First owned y row.
    y0: usize,
    /// Owned row count (0 ⇒ idle CPE).
    h: usize,
    /// Global x of each window slot (`usize::MAX` = not yet loaded).
    plane_x: [usize; 3],
}

impl Cpe {
    #[inline]
    fn win_idx(&self, tzp: usize, slot: usize, q: usize, yl: usize, zl: usize) -> usize {
        ((slot * Q + q) * (self.h + 2) + yl) * tzp + zl
    }

    #[inline]
    fn out_idx(&self, tz: usize, q: usize, yl: usize, zl: usize) -> usize {
        (q * self.h + yl) * tz + zl
    }

    /// Window slot holding global plane `gx`.
    #[inline]
    fn slot_of(&self, gx: usize) -> usize {
        self.plane_x
            .iter()
            .position(|&p| p == gx)
            .expect("plane not resident in window")
    }
}

impl CoreGroupExecutor {
    /// Executor for `machine` with the production configuration (fused kernel,
    /// neighbor sharing).
    pub fn new(machine: MachineSpec) -> Self {
        Self {
            machine,
            fusion: FusionMode::Fused,
            sharing: SharingMode::NeighborFabric,
            ncpe: NCPE_DEFAULT,
        }
    }

    /// Select the fusion mode.
    pub fn with_fusion(mut self, fusion: FusionMode) -> Self {
        self.fusion = fusion;
        self
    }

    /// Select the sharing mode.
    pub fn with_sharing(mut self, sharing: SharingMode) -> Self {
        self.sharing = sharing;
        self
    }

    /// Override the CPE count (tests use fewer to keep grids small).
    pub fn with_cpes(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.ncpe = n;
        self
    }

    /// Largest z-tile that fits the LDM for the worst-case row count `h`.
    ///
    /// Budget (in f64 slots): window `3·Q·(h+2)·(tz+2)` + output `Q·h·tz`.
    pub fn plan_tz(&self, h: usize, nz: usize) -> Result<usize, LdmOverflow> {
        let slots = self.machine.cg.ldm_bytes / 8;
        let mut tz = nz;
        while tz >= 1 {
            let need = 3 * Q * (h + 2) * (tz + 2) + Q * h * tz;
            if need <= slots {
                return Ok(tz);
            }
            tz -= 1;
        }
        Err(LdmOverflow {
            requested: 3 * Q * (h + 2) * 3 * 8 + Q * h * 8,
            in_use: 0,
            capacity: self.machine.cg.ldm_bytes,
        })
    }

    /// Execute one fused (or split) D3Q19 step for the whole subdomain through
    /// the emulated hierarchy. `src` and `dst` play the A/B buffer roles.
    ///
    /// The result is bit-identical to `swlb_core::kernels::fused_step` (resp.
    /// `split_step`); counters describe the data movement that produced it.
    pub fn step(
        &self,
        flags: &FlagField,
        src: &SoaField<D3Q19>,
        dst: &mut SoaField<D3Q19>,
        omega: Scalar,
    ) -> Result<ExecCounters, LdmOverflow> {
        let dims = flags.dims();
        let (ny, nz) = (dims.ny, dims.nz);
        let ncpe = self.ncpe.min(ny);
        let hmax = ny.div_ceil(ncpe);
        let tz = self.plan_tz(hmax, nz)?;

        let fabric_kind = if self.machine.cg.has_rma {
            Fabric::Rma
        } else {
            Fabric::RegisterComm
        };
        let mut fabric = ShareFabric::new(fabric_kind);

        // Build CPE states (row partition).
        let mut cpes: Vec<Cpe> = (0..ncpe)
            .map(|i| {
                let (y0, h) = swlb_comm_block(ny, ncpe, i);
                Cpe {
                    ldm: Ldm::new(self.machine.cg.ldm_bytes),
                    dma: DmaEngine::new(),
                    win: LdmBuf::default(),
                    out: LdmBuf::default(),
                    y0,
                    h,
                    plane_x: [usize::MAX; 3],
                }
            })
            .collect();

        let mut counters = ExecCounters::default();

        let mut z0 = 0;
        while z0 < nz {
            let tz_cur = tz.min(nz - z0);
            self.run_tile(
                flags, src, dst, omega, &mut cpes, &mut fabric, z0, tz_cur, &mut counters,
            )?;
            counters.tiles += 1;
            z0 += tz_cur;
        }

        if self.fusion == FusionMode::Split {
            self.collide_pass(flags, dst, omega, &mut cpes, tz, &mut counters)?;
        }

        for c in &cpes {
            counters.dma.merge(&c.dma.counters());
            counters.ldm_high_water = counters.ldm_high_water.max(c.ldm.high_water());
        }
        counters.share = fabric.counters();
        Ok(counters)
    }

    /// Stream(+collide) one z-tile across all CPEs with the sliding x window.
    #[allow(clippy::too_many_arguments)]
    fn run_tile(
        &self,
        flags: &FlagField,
        src: &SoaField<D3Q19>,
        dst: &mut SoaField<D3Q19>,
        omega: Scalar,
        cpes: &mut [Cpe],
        fabric: &mut ShareFabric,
        z0: usize,
        tz: usize,
        counters: &mut ExecCounters,
    ) -> Result<(), LdmOverflow> {
        let dims = flags.dims();
        let (nx, ny) = (dims.nx, dims.ny);
        let tzp = tz + 2;
        let ncpe = cpes.len();

        // (Re)allocate LDM buffers for this tile.
        for c in cpes.iter_mut() {
            c.ldm.reset();
            c.win = c.ldm.alloc(3 * Q * (c.h + 2) * tzp)?;
            c.out = c.ldm.alloc(Q * c.h * tz)?;
            c.plane_x = [usize::MAX; 3];
        }
        let _ = counters; // counters are merged at the end of `step`

        // Preload planes wrap(nx-1) and 0 into window slots 0 and 1.
        for (slot, gx) in [( 0usize, (nx + nx - 1) % nx), (1usize, 0usize)] {
            self.load_plane(flags, src, cpes, fabric, slot, gx, z0, tz)?;
        }

        let sraw_len = src.raw().len();
        debug_assert_eq!(sraw_len, dst.raw().len());

        for x in 0..nx {
            let xp1 = (x + 1) % nx;
            let slot = (x + 2) % 3; // slots rotate: x-1 → (x)%3 ... leading plane.
            // Skip reloading if already resident (happens when nx < 3 and the
            // wrap aliases a loaded plane).
            let resident = cpes
                .first()
                .map(|c| c.plane_x.contains(&xp1))
                .unwrap_or(false);
            if !resident {
                self.load_plane(flags, src, cpes, fabric, slot, xp1, z0, tz)?;
            }

            // Compute output plane x on every CPE, then DMA it to dst.
            for i in 0..ncpe {
                let c = &mut cpes[i];
                if c.h == 0 {
                    continue;
                }
                compute_plane(flags, c, omega, x, z0, tz, self.fusion);
                // Store: one put per (q, owned row) of tz slots.
                for q in 0..Q {
                    for yl in 0..c.h {
                        let gy = c.y0 + yl;
                        let mem_off = q * dims.cells() + (gy * nx + x) * dims.nz + z0;
                        let loc = c.out_idx(tz, q, yl, 0);
                        c.dma.put(&c.ldm, c.out, loc, tz, dst.raw_mut(), mem_off);
                    }
                }
            }
        }
        let _ = ny;
        Ok(())
    }

    /// Load global plane `gx` (rows + halos) of the z-tile into window `slot`
    /// on every CPE: own rows by DMA, halo rows by fabric or DMA per the
    /// sharing mode.
    #[allow(clippy::too_many_arguments)]
    fn load_plane(
        &self,
        flags: &FlagField,
        src: &SoaField<D3Q19>,
        cpes: &mut [Cpe],
        fabric: &mut ShareFabric,
        slot: usize,
        gx: usize,
        z0: usize,
        tz: usize,
    ) -> Result<(), LdmOverflow> {
        let dims = flags.dims();
        let (nx, ny, nz) = (dims.nx, dims.ny, dims.nz);
        let tzp = tz + 2;
        let ncpe = cpes.len();

        // Phase A: every CPE DMAs its own rows (local yl = 1..=h).
        for c in cpes.iter_mut() {
            for yl in 1..=c.h {
                let gy = c.y0 + yl - 1;
                for q in 0..Q {
                    let dst_off = c.win_idx(tzp, slot, q, yl, 0);
                    load_z_run(
                        &mut c.dma,
                        &mut c.ldm,
                        c.win,
                        dst_off,
                        src.raw(),
                        q * dims.cells() + (gy * nx + gx) * nz,
                        z0,
                        tzp,
                        nz,
                    );
                }
            }
            c.plane_x[slot] = gx;
        }

        // Phase B: halo rows (yl = 0 and h+1), wrapped.
        for i in 0..ncpe {
            let (y0, h) = (cpes[i].y0, cpes[i].h);
            if h == 0 {
                continue;
            }
            for (yl, gy) in [
                (0usize, (y0 + ny - 1) % ny),
                (h + 1, (y0 + h) % ny),
            ] {
                let owner = owner_of_row(cpes, gy);
                let use_fabric = self.sharing == SharingMode::NeighborFabric && owner != i;
                if use_fabric {
                    // Copy from the owner's freshly loaded window rows.
                    let src_yl = gy - cpes[owner].y0 + 1;
                    for q in 0..Q {
                        let src_off = cpes[owner].win_idx(tzp, slot, q, src_yl, 0);
                        let dst_off = cpes[i].win_idx(tzp, slot, q, yl, 0);
                        let (a, b) = split_two(cpes, owner, i);
                        fabric.transfer(&a.ldm, a.win, src_off, tzp, &mut b.ldm, b.win, dst_off);
                    }
                } else if owner == i {
                    // Wrapped onto an own row: a register-local copy, no traffic.
                    let src_yl = gy - y0 + 1;
                    for q in 0..Q {
                        let c = &mut cpes[i];
                        let from = c.win_idx(tzp, slot, q, src_yl, 0);
                        let to = c.win_idx(tzp, slot, q, yl, 0);
                        let row: Vec<f64> =
                            c.ldm.slice(c.win)[from..from + tzp].to_vec();
                        c.ldm.slice_mut(c.win)[to..to + tzp].copy_from_slice(&row);
                    }
                } else {
                    // DMA-only mode: re-fetch the halo row from main memory.
                    let c = &mut cpes[i];
                    for q in 0..Q {
                        let dst_off = c.win_idx(tzp, slot, q, yl, 0);
                        load_z_run(
                            &mut c.dma,
                            &mut c.ldm,
                            c.win,
                            dst_off,
                            src.raw(),
                            q * dims.cells() + (gy * nx + gx) * nz,
                            z0,
                            tzp,
                            nz,
                        );
                    }
                }
            }
        }
        Ok(())
    }

    /// Second (collide) pass of the split mode: round-trip every cell of `dst`
    /// through LDM once more.
    fn collide_pass(
        &self,
        flags: &FlagField,
        dst: &mut SoaField<D3Q19>,
        omega: Scalar,
        cpes: &mut [Cpe],
        tz: usize,
        counters: &mut ExecCounters,
    ) -> Result<(), LdmOverflow> {
        let dims = flags.dims();
        let (nx, nz) = (dims.nx, dims.nz);
        let _ = counters;
        let mut z0 = 0;
        while z0 < nz {
            let tz_cur = tz.min(nz - z0);
            for c in cpes.iter_mut() {
                if c.h == 0 {
                    continue;
                }
                c.ldm.reset();
                let buf = c.ldm.alloc(Q * c.h * tz_cur)?;
                for x in 0..nx {
                    // Get the tile.
                    for q in 0..Q {
                        for yl in 0..c.h {
                            let gy = c.y0 + yl;
                            let off = q * dims.cells() + (gy * nx + x) * nz + z0;
                            let loc = (q * c.h + yl) * tz_cur;
                            c.dma.get(dst.raw(), off, tz_cur, &mut c.ldm, buf, loc);
                        }
                    }
                    // Collide fluid cells in LDM.
                    let mut f = [0.0; Q];
                    for yl in 0..c.h {
                        let gy = c.y0 + yl;
                        for zl in 0..tz_cur {
                            let gz = z0 + zl;
                            let cell = dims.idx(x, gy, gz);
                            let kind = flags.kind(cell);
                            if !(kind.is_fluid() || kind.is_nebb()) {
                                continue;
                            }
                            for q in 0..Q {
                                f[q] = c.ldm.slice(buf)[(q * c.h + yl) * tz_cur + zl];
                            }
                            collide_bgk::<D3Q19>(&mut f, omega);
                            for q in 0..Q {
                                c.ldm.slice_mut(buf)[(q * c.h + yl) * tz_cur + zl] = f[q];
                            }
                        }
                    }
                    // Put the tile back.
                    for q in 0..Q {
                        for yl in 0..c.h {
                            let gy = c.y0 + yl;
                            let off = q * dims.cells() + (gy * nx + x) * nz + z0;
                            let loc = (q * c.h + yl) * tz_cur;
                            c.dma.put(&c.ldm, buf, loc, tz_cur, dst.raw_mut(), off);
                        }
                    }
                }
            }
            z0 += tz_cur;
        }
        Ok(())
    }
}

/// Compute output plane `x` for one CPE from its resident window.
///
/// Window locality invariant: for the output cell at local row `yl+1` / local z
/// `zl+1`, the value of the pull source displaced by `(dx, dy, dz)` (each in
/// {−1, 0, 1}) lives at window slot `slot_of(wrap(x+dx))`, local row
/// `yl+1+dy`, local z `zl+1+dz` — the halo rows/ends hold the *wrapped* global
/// rows, so no further wrap logic is needed at read time.
fn compute_plane(
    flags: &FlagField,
    c: &mut Cpe,
    omega: Scalar,
    x: usize,
    z0: usize,
    tz: usize,
    fusion: FusionMode,
) {
    let dims = flags.dims();
    let (nx, ny, nz) = (dims.nx, dims.ny, dims.nz);
    let tzp = tz + 2;
    let slot_c = c.slot_of(x);
    let slot_m = c.slot_of((x + nx - 1) % nx);
    let slot_p = c.slot_of((x + 1) % nx);
    let slot_for = |dx: i32| match dx {
        -1 => slot_m,
        0 => slot_c,
        _ => slot_p,
    };
    let mut f = [0.0; Q];
    let mut feq = [0.0; Q];
    for yl in 0..c.h {
        let gy = c.y0 + yl;
        let ylw = yl + 1; // center row in window coordinates
        for zl in 0..tz {
            let gz = z0 + zl;
            let zlw = zl + 1;
            let cell = dims.idx(x, gy, gz);
            let kind = flags.kind(cell);
            // Displacement-indexed window read.
            let read = |c: &Cpe, dx: i32, dy: i32, dz: i32, q: usize| -> f64 {
                let slot = slot_for(dx);
                let yy = (ylw as i32 + dy) as usize;
                let zz = (zlw as i32 + dz) as usize;
                c.ldm.slice(c.win)[c.win_idx(tzp, slot, q, yy, zz)]
            };
            match kind {
                NodeKind::Fluid
                | NodeKind::VelocityNebb { .. }
                | NodeKind::PressureNebb { .. } => {
                    for q in 0..Q {
                        let cv = D3Q19::C[q];
                        // Pull source (wrapped) for the flag lookup.
                        let sx = wrap(x as i64 - cv[0] as i64, nx);
                        let sy = wrap(gy as i64 - cv[1] as i64, ny);
                        let sz = wrap(gz as i64 - cv[2] as i64, nz);
                        let nkind = flags.kind(dims.idx(sx, sy, sz));
                        f[q] = match nkind {
                            NodeKind::Wall => read(c, 0, 0, 0, D3Q19::OPP[q]),
                            NodeKind::MovingWall { u } => {
                                let cu = cv[0] as Scalar * u[0]
                                    + cv[1] as Scalar * u[1]
                                    + cv[2] as Scalar * u[2];
                                read(c, 0, 0, 0, D3Q19::OPP[q]) + 6.0 * D3Q19::W[q] * cu
                            }
                            _ => read(c, -cv[0], -cv[1], -cv[2], q),
                        };
                    }
                    swlb_core::kernels::reconstruct_nebb::<D3Q19>(&mut f, kind);
                    if fusion == FusionMode::Fused {
                        collide_bgk::<D3Q19>(&mut f, omega);
                    }
                    for q in 0..Q {
                        let o = c.out_idx(tz, q, yl, zl);
                        c.ldm.slice_mut(c.out)[o] = f[q];
                    }
                }
                NodeKind::Wall | NodeKind::MovingWall { .. } => {
                    for q in 0..Q {
                        let v = read(c, 0, 0, 0, q);
                        let o = c.out_idx(tz, q, yl, zl);
                        c.ldm.slice_mut(c.out)[o] = v;
                    }
                }
                NodeKind::Inlet { rho, u } => {
                    equilibrium::<D3Q19>(rho, u, &mut feq);
                    for q in 0..Q {
                        let o = c.out_idx(tz, q, yl, zl);
                        c.ldm.slice_mut(c.out)[o] = feq[q];
                    }
                }
                NodeKind::Outlet { normal } => {
                    // Interior neighbor at x − normal, clamped like the core
                    // kernel (checked, falling back to self).
                    let d = if dims
                        .neighbor_checked(x, gy, gz, [-normal[0], -normal[1], -normal[2]])
                        .is_some()
                    {
                        [-normal[0], -normal[1], -normal[2]]
                    } else {
                        [0, 0, 0]
                    };
                    for q in 0..Q {
                        let v = read(c, d[0], d[1], d[2], q);
                        let o = c.out_idx(tz, q, yl, zl);
                        c.ldm.slice_mut(c.out)[o] = v;
                    }
                }
            }
        }
    }
}

#[inline]
fn wrap(v: i64, n: usize) -> usize {
    v.rem_euclid(n as i64) as usize
}

/// Which CPE owns global row `gy`.
fn owner_of_row(cpes: &[Cpe], gy: usize) -> usize {
    cpes.iter()
        .position(|c| gy >= c.y0 && gy < c.y0 + c.h)
        .expect("row has no owner")
}

/// Disjoint mutable access to two CPEs.
fn split_two(cpes: &mut [Cpe], a: usize, b: usize) -> (&Cpe, &mut Cpe) {
    assert_ne!(a, b);
    if a < b {
        let (lo, hi) = cpes.split_at_mut(b);
        (&lo[a], &mut hi[0])
    } else {
        let (lo, hi) = cpes.split_at_mut(a);
        (&hi[0] as &Cpe, &mut lo[b])
    }
}

/// Block distribution helper (duplicated from `swlb_comm::Cart2d::block_range`
/// to keep this crate free of the comm dependency).
fn swlb_comm_block(total: usize, parts: usize, i: usize) -> (usize, usize) {
    let base = total / parts;
    let extra = total % parts;
    let len = base + usize::from(i < extra);
    let offset = i * base + i.min(extra);
    (offset, len)
}

/// Load `tzp` z slots starting at global z (z0 − 1), wrapped, from the SoA row
/// starting at `row_off` (which points at z = 0 of that row).
#[allow(clippy::too_many_arguments)]
fn load_z_run(
    dma: &mut DmaEngine,
    ldm: &mut Ldm,
    buf: LdmBuf,
    dst_off: usize,
    mem: &[f64],
    row_off: usize,
    z0: usize,
    tzp: usize,
    nz: usize,
) {
    // The run covers global z = z0-1 .. z0+tzp-2 (wrapped). Split into at most
    // three contiguous pieces.
    let mut k = 0;
    while k < tzp {
        let gz = wrap(z0 as i64 - 1 + k as i64, nz);
        // Longest contiguous run from gz.
        let run = (nz - gz).min(tzp - k);
        dma.get(mem, row_off + gz, run, ldm, buf, dst_off + k);
        k += run;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swlb_core::collision::{BgkParams, CollisionKind};
    use swlb_core::geometry::GridDims;
    use swlb_core::kernels::fused_step;
    use swlb_core::stream::split_step;

    fn random_field(dims: GridDims, seed: u64) -> SoaField<D3Q19> {
        let mut field = SoaField::<D3Q19>::new(dims);
        let mut s = seed.max(1);
        for cell in 0..field.cells() {
            for q in 0..Q {
                s ^= s >> 12;
                s ^= s << 25;
                s ^= s >> 27;
                let r =
                    (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64;
                field.set(cell, q, 0.02 + 0.05 * r);
            }
        }
        field
    }

    fn assert_fields_equal(a: &SoaField<D3Q19>, b: &SoaField<D3Q19>, tol: f64) {
        for cell in 0..a.cells() {
            for q in 0..Q {
                let (va, vb) = (a.get(cell, q), b.get(cell, q));
                assert!(
                    (va - vb).abs() <= tol,
                    "cell {cell} q {q}: emulator {vb} vs reference {va}"
                );
            }
        }
    }

    fn exec(machine: MachineSpec) -> CoreGroupExecutor {
        CoreGroupExecutor::new(machine).with_cpes(8)
    }

    #[test]
    fn emulator_matches_reference_on_periodic_domain() {
        let dims = GridDims::new(7, 9, 6);
        let flags = FlagField::new(dims);
        let src = random_field(dims, 11);
        let tau = 0.8;

        let mut reference = SoaField::<D3Q19>::new(dims);
        fused_step(&flags, &src, &mut reference, &CollisionKind::Bgk(BgkParams::from_tau(tau)));

        let mut emulated = SoaField::<D3Q19>::new(dims);
        let counters = exec(MachineSpec::taihulight())
            .step(&flags, &src, &mut emulated, 1.0 / tau)
            .unwrap();
        assert_fields_equal(&reference, &emulated, 0.0);
        assert!(counters.dma.transactions() > 0);
        assert!(counters.ldm_high_water <= MachineSpec::taihulight().cg.ldm_bytes);
    }

    #[test]
    fn emulator_matches_reference_with_walls_and_obstacle() {
        let dims = GridDims::new(8, 10, 5);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        flags.set(3, 4, 2, NodeKind::Wall);
        flags.set(4, 4, 2, NodeKind::Wall);
        let src = random_field(dims, 5);
        let tau = 0.7;

        let mut reference = SoaField::<D3Q19>::new(dims);
        fused_step(&flags, &src, &mut reference, &CollisionKind::Bgk(BgkParams::from_tau(tau)));

        let mut emulated = SoaField::<D3Q19>::new(dims);
        exec(MachineSpec::taihulight())
            .step(&flags, &src, &mut emulated, 1.0 / tau)
            .unwrap();
        assert_fields_equal(&reference, &emulated, 0.0);
    }

    #[test]
    fn emulator_matches_reference_with_inlet_outlet_and_moving_wall() {
        let dims = GridDims::new(9, 6, 4);
        let mut flags = FlagField::new(dims);
        flags.paint_channel_walls_y();
        flags.paint_inflow_outflow_x(1.0, [0.04, 0.0, 0.0]);
        flags.set(4, 3, 2, NodeKind::MovingWall { u: [0.02, 0.0, 0.0] });
        let src = random_field(dims, 21);
        let tau = 0.9;

        let mut reference = SoaField::<D3Q19>::new(dims);
        fused_step(&flags, &src, &mut reference, &CollisionKind::Bgk(BgkParams::from_tau(tau)));

        let mut emulated = SoaField::<D3Q19>::new(dims);
        exec(MachineSpec::taihulight())
            .step(&flags, &src, &mut emulated, 1.0 / tau)
            .unwrap();
        assert_fields_equal(&reference, &emulated, 0.0);
    }

    #[test]
    fn split_mode_matches_split_kernel() {
        let dims = GridDims::new(6, 8, 5);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        let src = random_field(dims, 33);
        let tau = 0.75;

        let mut reference = SoaField::<D3Q19>::new(dims);
        split_step(&flags, &src, &mut reference, &CollisionKind::Bgk(BgkParams::from_tau(tau)));

        let mut emulated = SoaField::<D3Q19>::new(dims);
        exec(MachineSpec::taihulight())
            .with_fusion(FusionMode::Split)
            .step(&flags, &src, &mut emulated, 1.0 / tau)
            .unwrap();
        // Split reference and split emulator agree bitwise up to the collide
        // arithmetic order, which is identical.
        assert_fields_equal(&reference, &emulated, 1e-15);
    }

    #[test]
    fn fusion_removes_dma_traffic() {
        // The headline claim of §IV-C.3: fusing collision into the streaming
        // pass eliminates one full read+write round trip of the lattice.
        let dims = GridDims::new(6, 8, 8);
        let flags = FlagField::new(dims);
        let src = random_field(dims, 9);
        let tau = 0.8;

        let mut d1 = SoaField::<D3Q19>::new(dims);
        let fused = exec(MachineSpec::taihulight())
            .step(&flags, &src, &mut d1, 1.0 / tau)
            .unwrap();
        let mut d2 = SoaField::<D3Q19>::new(dims);
        let split = exec(MachineSpec::taihulight())
            .with_fusion(FusionMode::Split)
            .step(&flags, &src, &mut d2, 1.0 / tau)
            .unwrap();

        assert!(split.dma.bytes() > fused.dma.bytes());
        assert!(split.dma.transactions() > fused.dma.transactions());
        // The extra traffic is exactly two more lattice sweeps (get + put of
        // every population): split = fused + 2 · cells · Q · 8.
        let extra = (dims.cells() * Q * 8 * 2) as u64;
        assert_eq!(split.dma.bytes(), fused.dma.bytes() + extra);
    }

    #[test]
    fn neighbor_sharing_replaces_dma_with_fabric_traffic() {
        // §IV-C.2 / Fig. 5(4): y-halo rows come from neighboring CPEs' LDM
        // instead of main memory.
        let dims = GridDims::new(6, 16, 8);
        let flags = FlagField::new(dims);
        let src = random_field(dims, 17);
        let tau = 0.8;

        let mut d1 = SoaField::<D3Q19>::new(dims);
        let shared = exec(MachineSpec::taihulight())
            .step(&flags, &src, &mut d1, 1.0 / tau)
            .unwrap();
        let mut d2 = SoaField::<D3Q19>::new(dims);
        let dma_only = exec(MachineSpec::taihulight())
            .with_sharing(SharingMode::DmaOnly)
            .step(&flags, &src, &mut d2, 1.0 / tau)
            .unwrap();

        // Identical results...
        assert_fields_equal(&d1, &d2, 0.0);
        // ... but sharing moves halo bytes off the memory bus.
        assert!(shared.dma.bytes() < dma_only.dma.bytes());
        assert!(shared.share.bytes > 0);
        assert_eq!(dma_only.share.bytes, 0);
        // Conservation: every halo byte saved from DMA flows over the fabric.
        assert_eq!(dma_only.dma.bytes() - shared.dma.bytes(), shared.share.bytes);
    }

    #[test]
    fn rma_fabric_is_selected_on_the_pro() {
        let dims = GridDims::new(4, 8, 4);
        let flags = FlagField::new(dims);
        let src = random_field(dims, 3);
        let mut dst = SoaField::<D3Q19>::new(dims);
        let c = exec(MachineSpec::new_sunway())
            .step(&flags, &src, &mut dst, 1.0 / 0.8)
            .unwrap();
        // RMA issues block ops: far fewer "packets" than 4-slot register comm.
        let d = {
            let mut dst2 = SoaField::<D3Q19>::new(dims);
            exec(MachineSpec::taihulight())
                .step(&flags, &src, &mut dst2, 1.0 / 0.8)
                .unwrap()
        };
        assert!(c.share.packets < d.share.packets);
        assert_eq!(c.share.bytes, d.share.bytes);
    }

    #[test]
    fn bigger_ldm_means_bigger_tiles() {
        let old = CoreGroupExecutor::new(MachineSpec::taihulight());
        let new = CoreGroupExecutor::new(MachineSpec::new_sunway());
        let tz_old = old.plan_tz(1, 10_000).unwrap();
        let tz_new = new.plan_tz(1, 10_000).unwrap();
        assert!(tz_new > 3 * tz_old, "tz {tz_old} → {tz_new}");
    }

    #[test]
    fn ldm_overflow_is_detected() {
        let mut m = MachineSpec::taihulight();
        m.cg.ldm_bytes = 1024; // absurdly small scratchpad
        let e = CoreGroupExecutor::new(m).plan_tz(1, 100);
        assert!(e.is_err());
    }

    #[test]
    fn multi_step_trajectory_stays_bit_equal() {
        let dims = GridDims::new(5, 8, 4);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        flags.paint_lid([0.05, 0.0, 0.0]);
        let tau = 0.8;
        let coll = CollisionKind::Bgk(BgkParams::from_tau(tau));

        let mut ref_src = random_field(dims, 8);
        swlb_core::kernels::initialize_with::<D3Q19, _>(
            &swlb_core::parallel::ThreadPool::new(1),
            &flags,
            &mut ref_src,
            |_, _, _| (1.0, [0.0; 3]),
        );
        let mut emu_src = ref_src.clone();
        let mut ref_dst = SoaField::<D3Q19>::new(dims);
        let mut emu_dst = SoaField::<D3Q19>::new(dims);
        let ex = exec(MachineSpec::taihulight());
        for _ in 0..5 {
            fused_step(&flags, &ref_src, &mut ref_dst, &coll);
            std::mem::swap(&mut ref_src, &mut ref_dst);
            ex.step(&flags, &emu_src, &mut emu_dst, 1.0 / tau).unwrap();
            std::mem::swap(&mut emu_src, &mut emu_dst);
        }
        assert_fields_equal(&ref_src, &emu_src, 0.0);
    }
}
