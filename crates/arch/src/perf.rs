//! The calibrated performance model for the Sunway platforms.
//!
//! This module turns the machine descriptions ([`crate::machine`]), the DMA
//! efficiency curve, the dual-pipeline compute model ([`crate::pipeline`]) and
//! the interconnect model (`swlb_comm::netmodel`) into per-step times for each
//! of the paper's optimization stages (Fig. 8) and into weak/strong scaling
//! series (Figs. 13–16).
//!
//! ## Model mechanics
//!
//! One time step of a rank owning an `nx × ny × nz` subdomain costs:
//!
//! ```text
//! t_dma   = cells · B_LUP / (bw · eff(s))      eff(s) = s / (s + s_half)
//! t_comp  = pipeline model (scalar-unoptimized or vector-optimized)
//! t_comm  = halo exchange over the supernode/fat-tree model
//! t_jit   = per-step synchronization jitter  ∝ log2(P)
//! ```
//!
//! composed per stage:
//!
//! | stage | composition |
//! |---|---|
//! | `MpeOnly`       | `cells·flops / mpe_rate + t_comm` |
//! | `CpeParallel`   | `t_comm + max(t_dma, t_prop) + max(t_dma, t_coll)` (split kernels) |
//! | `KernelFusion`  | `t_comm + max(t_dma, t_fused)` |
//! | `OnTheFlyHalo`  | `max(t_comm, inner) + boundary` |
//! | `AssemblyOpt`   | like `OnTheFlyHalo` with vectorized compute |
//!
//! with `t_jit` added at every stage. `B_LUP = 380` B for D3Q19 (the paper's
//! count); the DMA transaction size is the z-pencil the LDM plan permits
//! (~70 cells on SW26010, ~4× that on the Pro).

use crate::machine::MachineSpec;
use crate::pipeline::{cg_compute_time, mpe_compute_time, InstructionMix};
use swlb_comm::netmodel::NetworkModel;
use swlb_comm::Cart2d;

/// Bytes per lattice update for D3Q19 in double precision (paper §IV-C.3).
pub const BYTES_PER_LUP: f64 = 380.0;

/// Bytes per LUP when streaming and collision run as separate passes: the
/// collision pass re-reads and re-writes every population (+ write allocate).
pub const BYTES_PER_LUP_SPLIT: f64 = 760.0;

/// Populations crossing one face of a D3Q19 subdomain per boundary cell.
pub const FACE_POPS: usize = 5;

/// The optimization stages of the paper's Fig. 8 ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptStage {
    /// Everything on the management core (the 73.6 s baseline).
    MpeOnly,
    /// CPE data blocking + sharing, split kernels, sequential halo exchange.
    CpeParallel,
    /// Propagation and collision fused into one LDM pass.
    KernelFusion,
    /// On-the-fly (overlapped) halo exchange.
    OnTheFlyHalo,
    /// Manual unroll / instruction reordering / vectorization.
    AssemblyOpt,
}

impl OptStage {
    /// All stages in ladder order.
    pub const LADDER: [OptStage; 5] = [
        OptStage::MpeOnly,
        OptStage::CpeParallel,
        OptStage::KernelFusion,
        OptStage::OnTheFlyHalo,
        OptStage::AssemblyOpt,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            OptStage::MpeOnly => "MPE baseline",
            OptStage::CpeParallel => "+CPE blocking/sharing",
            OptStage::KernelFusion => "+kernel fusion",
            OptStage::OnTheFlyHalo => "+on-the-fly halo",
            OptStage::AssemblyOpt => "+assembly opt",
        }
    }
}

/// A per-rank workload: the subdomain one core group owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Subdomain cells along x.
    pub nx: usize,
    /// Subdomain cells along y.
    pub ny: usize,
    /// Subdomain cells along z (the full global z: 2-D decomposition).
    pub nz: usize,
}

impl Workload {
    /// Construct a workload.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        Self { nx, ny, nz }
    }

    /// The paper's weak-scaling block on TaihuLight: 500 × 700 × 100 per CG.
    pub fn taihulight_weak_block() -> Self {
        Self::new(500, 700, 100)
    }

    /// The paper's weak-scaling block on the new Sunway: 1000 × 700 × 100.
    pub fn new_sunway_weak_block() -> Self {
        Self::new(1000, 700, 100)
    }

    /// Total cells.
    pub fn cells(&self) -> u64 {
        (self.nx * self.ny * self.nz) as u64
    }

    /// Cells in the single-layer xy boundary ring (full z): the part the MPE
    /// helps compute in the collaborative scheme.
    pub fn boundary_cells(&self) -> u64 {
        if self.nx < 2 || self.ny < 2 {
            return self.cells();
        }
        ((2 * self.nx + 2 * self.ny - 4) * self.nz) as u64
    }

    /// Bytes of the largest single halo message (an x-face: `ny·nz` cells ×
    /// 5 populations × 8 B).
    pub fn max_face_bytes(&self) -> u64 {
        let face = self.ny.max(self.nx) * self.nz;
        (face * FACE_POPS * 8) as u64
    }
}

/// One point of a scaling series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalePoint {
    /// MPI processes (core groups).
    pub procs: usize,
    /// Hardware cores (65 per CG, as the paper counts).
    pub cores: usize,
    /// Modeled step time \[s\].
    pub step_time: f64,
    /// Aggregate performance \[GLUPS\].
    pub glups: f64,
    /// Parallel efficiency relative to the series' first point.
    pub efficiency: f64,
    /// Sustained performance \[PFlops\] at the kernel's flop count.
    pub pflops: f64,
    /// Memory-bandwidth utilization (fraction of the roofline bound).
    pub bw_util: f64,
}

/// The calibrated performance model of one Sunway platform.
#[derive(Debug, Clone, Copy)]
pub struct PerfModel {
    /// Machine description + calibrations.
    pub machine: MachineSpec,
    /// Interconnect model.
    pub net: NetworkModel,
    /// Flops per lattice update charged to the sustained-Flops accounting.
    pub flops_per_lup: f64,
}

impl PerfModel {
    /// Model of Sunway TaihuLight.
    pub fn taihulight() -> Self {
        Self {
            machine: MachineSpec::taihulight(),
            net: NetworkModel::taihulight(),
            flops_per_lup: swlb_core::collision::flops_per_update(19) as f64,
        }
    }

    /// Model of the new Sunway supercomputer.
    pub fn new_sunway() -> Self {
        Self {
            machine: MachineSpec::new_sunway(),
            net: NetworkModel::new_sunway(),
            flops_per_lup: swlb_core::collision::flops_per_update(19) as f64,
        }
    }

    /// The DMA pencil (transaction) size for a subdomain with `nz` cells of z:
    /// bounded by the LDM plan (~70 cells on SW26010, scaled by the LDM ratio).
    pub fn pencil_bytes(&self, nz: usize) -> f64 {
        let cap = 70 * self.machine.cg.ldm_bytes / (64 * 1024);
        (nz.min(cap) * 8) as f64
    }

    /// Effective DMA bandwidth at transaction size `s` bytes.
    pub fn effective_dma_bw(&self, s: f64) -> f64 {
        self.machine.cg.dma_bw * s / (s + self.machine.cal.dma_s_half)
    }

    /// DMA time to move `bytes_per_lup · cells` at the workload's pencil size.
    pub fn dma_time(&self, w: &Workload, bytes_per_lup: f64) -> f64 {
        let bw = self.effective_dma_bw(self.pencil_bytes(w.nz));
        w.cells() as f64 * bytes_per_lup / bw
    }

    /// Halo-exchange time for one rank at scale `p` (2-D process grid).
    pub fn comm_time(&self, w: &Workload, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let cart = Cart2d::balanced(p, true);
        let frac = self.net.inter_neighbor_fraction(cart.px, cart.py);
        self.net.halo_exchange_time(w.max_face_bytes(), 8, frac)
    }

    /// Roofline bound in MLUPS per core group (the paper's 90.4 on TaihuLight).
    pub fn roofline_mlups(&self) -> f64 {
        self.machine.cg.dma_bw / BYTES_PER_LUP / 1e6
    }

    /// Per-step time of one rank at the given optimization stage and scale.
    pub fn stage_time(&self, stage: OptStage, w: &Workload, p: usize) -> f64 {
        let m = &self.machine;
        let cells = w.cells();
        let fused = InstructionMix::d3q19_fused();
        let prop = InstructionMix::d3q19_propagate_only();
        let coll = InstructionMix::d3q19_collide_only();
        let t_comm = self.comm_time(w, p);
        let t_jit = self.net.jitter(p);
        let t_dma_fused = self.dma_time(w, BYTES_PER_LUP);
        let t_dma_half = self.dma_time(w, BYTES_PER_LUP_SPLIT / 2.0);

        let body = match stage {
            OptStage::MpeOnly => t_comm + mpe_compute_time(m, &fused, cells),
            OptStage::CpeParallel => {
                let t_prop = t_dma_half.max(cg_compute_time(m, &prop, cells, false));
                let t_coll = t_dma_half.max(cg_compute_time(m, &coll, cells, false));
                t_comm + t_prop + t_coll
            }
            OptStage::KernelFusion => {
                t_comm + t_dma_fused.max(cg_compute_time(m, &fused, cells, false))
            }
            OptStage::OnTheFlyHalo | OptStage::AssemblyOpt => {
                let optimized = stage == OptStage::AssemblyOpt;
                let t_kernel = t_dma_fused.max(cg_compute_time(m, &fused, cells, optimized));
                let fb = w.boundary_cells() as f64 / cells as f64;
                let inner = t_kernel * (1.0 - fb);
                let boundary = t_kernel * fb;
                t_comm.max(inner) + boundary
            }
        };
        body + t_jit
    }

    /// Production step time (full optimization ladder applied).
    pub fn step_time(&self, w: &Workload, p: usize) -> f64 {
        self.stage_time(OptStage::AssemblyOpt, w, p)
    }

    /// Build one scaling point at `p` ranks each owning `w`.
    fn point(&self, w: &Workload, p: usize, t_ref: f64, weak: bool, p_ref: usize) -> ScalePoint {
        let t = self.step_time(w, p);
        let glups = p as f64 * w.cells() as f64 / t / 1e9;
        let efficiency = if weak {
            t_ref / t
        } else {
            (t_ref * p_ref as f64) / (t * p as f64)
        };
        let mlups_per_cg = w.cells() as f64 / t / 1e6;
        ScalePoint {
            procs: p,
            cores: p * self.machine.cores_per_cg(),
            step_time: t,
            glups,
            efficiency,
            pflops: glups * 1e9 * self.flops_per_lup / 1e15,
            bw_util: mlups_per_cg / self.roofline_mlups(),
        }
    }

    /// Weak scaling: every rank owns a copy of `w`; `ps` is the process-count
    /// series. Efficiency is relative to the first entry.
    pub fn weak_scaling(&self, w: &Workload, ps: &[usize]) -> Vec<ScalePoint> {
        assert!(!ps.is_empty());
        let t0 = self.step_time(w, ps[0]);
        ps.iter().map(|&p| self.point(w, p, t0, true, ps[0])).collect()
    }

    /// Strong scaling of a fixed global mesh `(gx, gy, gz)` over `ps` ranks.
    pub fn strong_scaling(
        &self,
        global: (usize, usize, usize),
        ps: &[usize],
    ) -> Vec<ScalePoint> {
        assert!(!ps.is_empty());
        let sub = |p: usize| {
            let cart = Cart2d::balanced(p, true);
            Workload::new(
                (global.0 / cart.px).max(1),
                (global.1 / cart.py).max(1),
                global.2,
            )
        };
        let w0 = sub(ps[0]);
        let t0 = self.step_time(&w0, ps[0]);
        ps.iter()
            .map(|&p| self.point(&sub(p), p, t0, false, ps[0]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CELLS_PER_CG: u64 = 35_000_000; // 500 × 700 × 100

    #[test]
    fn roofline_bound_matches_paper_90_4_mlups() {
        // §V-A.2: 32 GiB/s ÷ 380 B/LUP = 90.4 MLUPS per core group.
        let m = PerfModel::taihulight();
        let bound = m.roofline_mlups();
        assert!((bound - 90.4).abs() < 0.5, "bound = {bound}");
    }

    #[test]
    fn fig8_endpoints_match_paper() {
        // Fig. 8: 73.6 s (MPE baseline) → 0.426 s (fully optimized), 172x.
        let m = PerfModel::taihulight();
        let w = Workload::taihulight_weak_block();
        assert_eq!(w.cells(), CELLS_PER_CG);

        let t0 = m.stage_time(OptStage::MpeOnly, &w, 1);
        assert!((t0 - 73.6).abs() / 73.6 < 0.05, "MPE baseline = {t0}");

        let t4 = m.stage_time(OptStage::AssemblyOpt, &w, 1);
        assert!((t4 - 0.426).abs() / 0.426 < 0.07, "optimized = {t4}");

        let speedup = t0 / t4;
        assert!(
            (speedup - 172.0).abs() / 172.0 < 0.12,
            "total speedup = {speedup}"
        );
    }

    #[test]
    fn fig8_ladder_is_monotonically_decreasing() {
        let m = PerfModel::taihulight();
        let w = Workload::taihulight_weak_block();
        let times: Vec<f64> = OptStage::LADDER
            .iter()
            .map(|&s| m.stage_time(s, &w, 1))
            .collect();
        for pair in times.windows(2) {
            assert!(
                pair[1] <= pair[0] * 1.0001,
                "ladder not monotone: {times:?}"
            );
        }
    }

    #[test]
    fn cpe_parallelization_gives_order_of_magnitude_tens() {
        // Paper §IV-C.2: "more than 75 times speedup" from blocking+sharing.
        // Our mechanistic model lands in the same decade (tens of x).
        let m = PerfModel::taihulight();
        let w = Workload::taihulight_weak_block();
        let s = m.stage_time(OptStage::MpeOnly, &w, 1)
            / m.stage_time(OptStage::CpeParallel, &w, 1);
        assert!(s > 40.0 && s < 120.0, "CPE speedup = {s}");
    }

    #[test]
    fn weak_scaling_reproduces_fig13_shape() {
        // Fig. 13: 1 CG → 160000 CGs, ~94 % efficiency, 11245 GLUPS,
        // 4.7 PFlops, 77 % bandwidth utilization at the top end.
        let m = PerfModel::taihulight();
        let w = Workload::taihulight_weak_block();
        let ps = [1usize, 64, 1024, 16384, 65536, 160000];
        let series = m.weak_scaling(&w, &ps);

        let last = series.last().unwrap();
        assert_eq!(last.cores, 10_400_000);
        // Efficiency stays near-linear (paper: 94 %); allow the band.
        assert!(
            last.efficiency > 0.85 && last.efficiency <= 1.0,
            "efficiency = {}",
            last.efficiency
        );
        // GLUPS lands within 25 % of the paper's 11245.
        assert!(
            (last.glups - 11245.0).abs() / 11245.0 < 0.25,
            "GLUPS = {}",
            last.glups
        );
        // Sustained PFlops within 25 % of 4.7.
        assert!((last.pflops - 4.7).abs() / 4.7 < 0.25, "PFlops = {}", last.pflops);
        // Bandwidth utilization in the 70–92 % band around the paper's 77 %.
        assert!(last.bw_util > 0.70 && last.bw_util < 0.92, "util = {}", last.bw_util);
        // Efficiency is monotone non-increasing along the series.
        for pair in series.windows(2) {
            assert!(pair[1].efficiency <= pair[0].efficiency + 1e-9);
        }
    }

    #[test]
    fn strong_scaling_reproduces_fig14_shape() {
        // Fig. 14 cylinder case: 10000×10000×5000 from 16384 to 160000 CGs,
        // 71.48 % efficiency at the top.
        let m = PerfModel::taihulight();
        let ps = [16384usize, 32768, 65536, 131072, 160000];
        let series = m.strong_scaling((10000, 10000, 5000), &ps);
        let last = series.last().unwrap();
        assert!(
            last.efficiency > 0.55 && last.efficiency < 0.90,
            "strong efficiency = {}",
            last.efficiency
        );
        // Throughput still increases with scale (the curve bends but rises).
        assert!(last.glups > series[0].glups);
    }

    #[test]
    fn new_sunway_weak_scaling_reproduces_fig15_shape() {
        // Fig. 15: 6000 → 60000 CGs, 4.2T cells, 6583 GLUPS, 81.4 % BW util,
        // 2.76 PFlops.
        let m = PerfModel::new_sunway();
        let w = Workload::new_sunway_weak_block();
        let ps = [6000usize, 12000, 24000, 48000, 60000];
        let series = m.weak_scaling(&w, &ps);
        let last = series.last().unwrap();
        assert_eq!(last.procs as u64 * w.cells(), 4_200_000_000_000);
        assert!(
            (last.glups - 6583.0).abs() / 6583.0 < 0.25,
            "GLUPS = {}",
            last.glups
        );
        // Paper computes utilization against 51.2 GB/s (decimal): 81.4 %.
        assert!(last.bw_util > 0.70 && last.bw_util < 0.95, "util = {}", last.bw_util);
        assert!((last.pflops - 2.76).abs() / 2.76 < 0.30, "PFlops = {}", last.pflops);
        assert!(last.efficiency > 0.85);
    }

    #[test]
    fn pro_outperforms_taihulight_per_cg() {
        let t = PerfModel::taihulight();
        let s = PerfModel::new_sunway();
        // Same workload: the Pro's higher bandwidth must win.
        let w = Workload::taihulight_weak_block();
        assert!(s.step_time(&w, 1) < t.step_time(&w, 1));
        assert!(s.roofline_mlups() > t.roofline_mlups());
    }

    #[test]
    fn dma_efficiency_curve_is_monotone_and_bounded() {
        let m = PerfModel::taihulight();
        let mut prev = 0.0;
        for s in [8.0, 64.0, 560.0, 4096.0, 1e6] {
            let bw = m.effective_dma_bw(s);
            assert!(bw > prev);
            assert!(bw < m.machine.cg.dma_bw);
            prev = bw;
        }
    }

    #[test]
    fn pencil_is_ldm_limited_on_sw26010_but_not_pro() {
        let t = PerfModel::taihulight();
        let p = PerfModel::new_sunway();
        // z = 100: SW26010 caps at 70 cells (560 B), the Pro fits all 100.
        assert_eq!(t.pencil_bytes(100), 560.0);
        assert_eq!(p.pencil_bytes(100), 800.0);
    }

    #[test]
    fn comm_time_zero_for_single_rank() {
        let m = PerfModel::taihulight();
        let w = Workload::taihulight_weak_block();
        assert_eq!(m.comm_time(&w, 1), 0.0);
        assert!(m.comm_time(&w, 1024) > 0.0);
    }

    #[test]
    fn boundary_cells_counts_ring() {
        let w = Workload::new(10, 8, 3);
        // (2·10 + 2·8 − 4) · 3 = 96.
        assert_eq!(w.boundary_cells(), 96);
        let degenerate = Workload::new(1, 5, 2);
        assert_eq!(degenerate.boundary_cells(), degenerate.cells());
    }
}
