//! Fig. 8 — kernel speedup ladder on Sunway TaihuLight.
//!
//! The paper reports the elapsed time per step of the largest cylinder DNS
//! (35 M cells per core group) as each optimization lands: 73.6 s on the MPE
//! alone down to 0.426 s fully optimized (172×). This harness regenerates the
//! ladder from the calibrated performance model and prints it next to the
//! paper's values, plus the emulator-measured DMA accounting that drives the
//! fusion/sharing stages.

use swlb_arch::cpe::{CoreGroupExecutor, FusionMode, SharingMode};
use swlb_arch::machine::MachineSpec;
use swlb_arch::perf::{OptStage, PerfModel, Workload};
use swlb_bench::{header, row, vs_paper};
use swlb_core::flags::FlagField;
use swlb_core::geometry::GridDims;
use swlb_core::lattice::D3Q19;
use swlb_core::layout::{PopField, SoaField};

/// Paper values read off Fig. 8 / §IV-C: per-step seconds at each stage.
/// Intermediate stages follow the multiplicative narrative (>75x, +30 %, +10 %).
const PAPER_SECONDS: [f64; 5] = [73.6, 0.981, 0.754, 0.686, 0.426];

fn main() {
    header(
        "Fig. 8 — optimization ladder, one SW26010 core group, 500x700x100 cells",
        "Liu et al., IPDPS'19/TPDS'23, Fig. 8 (73.6 s -> 0.426 s, 172x)",
    );
    let model = PerfModel::taihulight();
    let w = Workload::taihulight_weak_block();

    row(&[
        "stage".into(),
        "model [s]".into(),
        "paper [s]".into(),
        "deviation".into(),
        "speedup".into(),
    ]);
    let t0 = model.stage_time(OptStage::MpeOnly, &w, 1);
    for (stage, paper) in OptStage::LADDER.iter().zip(PAPER_SECONDS) {
        let t = model.stage_time(*stage, &w, 1);
        row(&[
            stage.label().into(),
            format!("{t:.3}"),
            format!("{paper:.3}"),
            vs_paper(t, paper),
            format!("{:.1}x", t0 / t),
        ]);
    }
    let total = t0 / model.stage_time(OptStage::AssemblyOpt, &w, 1);
    println!("\ntotal model speedup: {total:.0}x (paper: 172x, {})", vs_paper(total, 172.0));

    // Emulator-measured traffic behind the fusion and sharing stages, on a
    // scaled-down core group (same schedule, laptop-sized block).
    println!("\nEmulated core-group DMA accounting (16x32x32 block, 8 CPEs):");
    let dims = GridDims::new(16, 32, 32);
    let flags = FlagField::new(dims);
    let mut src = SoaField::<D3Q19>::new(dims);
    let pool = swlb_core::parallel::ThreadPool::new(1);
    swlb_core::kernels::initialize_with::<D3Q19, _>(&pool, &flags, &mut src, |_, _, _| {
        (1.0, [0.01, 0.0, 0.0])
    });
    let configs: [(&str, FusionMode, SharingMode); 3] = [
        ("split kernels + DMA halos", FusionMode::Split, SharingMode::DmaOnly),
        ("fused + DMA halos", FusionMode::Fused, SharingMode::DmaOnly),
        ("fused + register-comm sharing", FusionMode::Fused, SharingMode::NeighborFabric),
    ];
    row(&[
        "configuration".into(),
        "DMA MB".into(),
        "DMA ops".into(),
        "fabric MB".into(),
        "B per LUP".into(),
    ]);
    for (label, fusion, sharing) in configs {
        let exec = CoreGroupExecutor::new(MachineSpec::taihulight())
            .with_cpes(8)
            .with_fusion(fusion)
            .with_sharing(sharing);
        let mut dst = SoaField::<D3Q19>::new(dims);
        let c = exec.step(&flags, &src, &mut dst, 1.25).unwrap();
        row(&[
            label.into(),
            format!("{:.2}", c.dma.bytes() as f64 / 1e6),
            format!("{}", c.dma.transactions()),
            format!("{:.2}", c.share.bytes as f64 / 1e6),
            format!("{:.0}", c.dma.bytes() as f64 / dims.cells() as f64),
        ]);
    }
    println!("\n(the paper's §IV-C.3: fusion removes 4 of 14 DMA operations per step, ~30 %;");
    println!(" §IV-C.2: register communication replaces y-halo DMA — both visible above)");
}
