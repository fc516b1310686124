//! Cross-checks between the performance model, the functional emulator and the
//! paper's published numbers — the glue that makes the scaling figures
//! (Figs. 8, 11, 13–17) trustworthy reproductions rather than curve fits.

use swlb_arch::cpe::{CoreGroupExecutor, FusionMode};
use swlb_arch::gpu::{GpuModel, GpuStage};
use swlb_arch::machine::MachineSpec;
use swlb_arch::perf::{OptStage, PerfModel, Workload, BYTES_PER_LUP};
use swlb_comm::netmodel::NetworkModel;
use swlb_core::flags::FlagField;
use swlb_core::geometry::GridDims;
use swlb_core::lattice::D3Q19;
use swlb_core::layout::{PopField, SoaField};

/// The emulator's *measured* fusion saving must agree with the model's
/// traffic accounting: split mode adds exactly one read+write sweep.
#[test]
fn emulator_fusion_saving_matches_model_accounting() {
    let dims = GridDims::new(10, 12, 12);
    let flags = FlagField::new(dims);
    let mut src = SoaField::<D3Q19>::new(dims);
    let pool = swlb_core::parallel::ThreadPool::new(1);
    swlb_core::kernels::initialize_with::<D3Q19, _>(&pool, &flags, &mut src, |_, _, _| {
        (1.0, [0.01, 0.0, 0.0])
    });

    let fused = CoreGroupExecutor::new(MachineSpec::taihulight()).with_cpes(6);
    let split = CoreGroupExecutor::new(MachineSpec::taihulight())
        .with_cpes(6)
        .with_fusion(FusionMode::Split);

    let mut d1 = SoaField::<D3Q19>::new(dims);
    let c_fused = fused.step(&flags, &src, &mut d1, 1.25).unwrap();
    let mut d2 = SoaField::<D3Q19>::new(dims);
    let c_split = split.step(&flags, &src, &mut d2, 1.25).unwrap();

    let extra = (c_split.dma.bytes() - c_fused.dma.bytes()) as f64;
    let model_extra = dims.cells() as f64 * 19.0 * 8.0 * 2.0;
    assert!(
        (extra - model_extra).abs() < 1e-9,
        "measured extra {extra} vs model {model_extra}"
    );
}

/// The model's roofline bound equals the paper's formula exactly:
/// `32 GiB/s ÷ 380 B = 90.4 MLUPS`, and scaled by 160,000 CGs ≈ 14,464 GLUPS.
#[test]
fn roofline_aggregates_match_paper() {
    let m = PerfModel::taihulight();
    let per_cg = m.roofline_mlups();
    assert!((per_cg - 90.4).abs() < 0.5);
    let total_glups = per_cg * 160_000.0 / 1000.0;
    assert!((total_glups - 14_464.0).abs() / 14_464.0 < 0.01, "{total_glups}");
}

/// The paper's bandwidth-utilization arithmetic (§V-A.2): 11245 GLUPS at
/// 380 B/LUP over 160,000 CGs of 32 GiB/s = 77 %.
#[test]
fn papers_utilization_formula_reproduces_77_percent() {
    let numer = 11_245e9 * BYTES_PER_LUP;
    let denom = 32.0 * (1u64 << 30) as f64 * 160_000.0;
    let util = numer / denom;
    assert!((util - 0.77).abs() < 0.01, "util = {util}");
}

/// And the Pro's (§V-A.3, decimal GB): 6583 GLUPS × 380 B / (51.2 GB/s × 60,000)
/// = 81.4 %.
#[test]
fn papers_pro_utilization_formula_reproduces_81_percent() {
    let util = 6_583e9 * BYTES_PER_LUP / (51.2e9 * 60_000.0);
    assert!((util - 0.814).abs() < 0.01, "util = {util}");
}

/// Weak-scaling GLUPS grows ~linearly in P; strong-scaling step time shrinks
/// with P but efficiency decays — the qualitative shapes of Figs. 13/14.
#[test]
fn scaling_series_shapes() {
    let m = PerfModel::taihulight();
    let w = Workload::taihulight_weak_block();
    let weak = m.weak_scaling(&w, &[1, 16, 256, 4096, 65536]);
    for pair in weak.windows(2) {
        assert!(pair[1].glups > pair[0].glups * 10.0); // 16x procs, ≥10x GLUPS
    }
    let strong = m.strong_scaling((10000, 10000, 5000), &[16384, 65536, 160000]);
    for pair in strong.windows(2) {
        assert!(pair[1].step_time < pair[0].step_time);
        assert!(pair[1].efficiency <= pair[0].efficiency + 1e-12);
    }
}

/// The Fig. 8 ladder and the Fig. 11 GPU ladder both end within the paper's
/// headline speedups.
#[test]
fn headline_speedups() {
    let m = PerfModel::taihulight();
    let w = Workload::taihulight_weak_block();
    let sunway = m.stage_time(OptStage::MpeOnly, &w, 1)
        / m.stage_time(OptStage::AssemblyOpt, &w, 1);
    assert!((sunway - 172.0).abs() / 172.0 < 0.12, "Sunway ladder: {sunway}x");

    let g = GpuModel::rtx3090_cluster();
    let wind = (1400, 2800, 100);
    let cells = 392_000_000;
    let gpu = g.stage_time(GpuStage::CpuBaseline, cells, wind)
        / g.stage_time(GpuStage::CommunicationOpt, cells, wind);
    assert!(gpu > 150.0 && gpu < 230.0, "GPU ladder: {gpu}x (paper 191x)");
}

/// Network model consistency: the halo exchange of the weak-scaling block is
/// well under the optimized step time (the premise of the on-the-fly scheme),
/// while at extreme strong scaling it no longer is negligible.
#[test]
fn halo_exchange_is_hidden_at_weak_scaling() {
    let m = PerfModel::taihulight();
    let w = Workload::taihulight_weak_block();
    let t_comm = m.comm_time(&w, 160_000);
    let t_step = m.step_time(&w, 1);
    assert!(
        t_comm < 0.1 * t_step,
        "weak-scaling halo {t_comm} vs step {t_step}"
    );

    // Strong-scaled pencil: 25×25×5000 per rank — comm fraction grows.
    let w_small = Workload::new(25, 25, 5000);
    let t_comm_small = m.comm_time(&w_small, 160_000);
    let t_dma_small = m.dma_time(&w_small, BYTES_PER_LUP);
    assert!(t_comm_small / t_dma_small > t_comm / t_step);
}

/// Jitter model: monotone in P and in the right order of magnitude to explain
/// the paper's ~94 % weak-scaling efficiency at 160,000 processes.
#[test]
fn jitter_scale_matches_efficiency_loss() {
    let net = NetworkModel::taihulight();
    let m = PerfModel::taihulight();
    let w = Workload::taihulight_weak_block();
    let t_step1 = m.step_time(&w, 1);
    let j = net.jitter(160_000);
    let implied_eff = t_step1 / (t_step1 + j);
    assert!(
        implied_eff > 0.88 && implied_eff < 0.99,
        "implied weak efficiency {implied_eff} (paper: ~94 %)"
    );
}

/// GPU utilization bookkeeping: the final stage is pinned to the paper's
/// measured 83.8 % HBM efficiency.
#[test]
fn gpu_final_stage_uses_papers_utilization() {
    let g = GpuModel::rtx3090_cluster();
    assert!((g.hbm_eff_final - 0.838).abs() < 1e-12);
    // Memory-bound throughput per GPU at that efficiency:
    let mlups = g.machine.cg.dma_bw * g.hbm_eff_final / BYTES_PER_LUP / 1e6;
    // RTX 3090: 936 GB/s × 0.838 / 380 B ≈ 2064 MLUPS.
    assert!((mlups - 2064.0).abs() / 2064.0 < 0.02, "{mlups}");
}
