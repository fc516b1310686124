//! Ablation — LDM blocking granularity and CPE data sharing.
//!
//! The paper's §IV-C.2 design choices, quantified: (a) how the z-pencil
//! (DMA transaction) length bought by LDM capacity drives effective bandwidth
//! — the mechanism that separates SW26010 from SW26010-Pro; (b) how much DMA
//! traffic the register-communication/RMA sharing of y-halo rows removes as
//! the per-CPE row count shrinks (measured on the emulator).

use swlb_arch::cpe::{CoreGroupExecutor, SharingMode};
use swlb_arch::machine::MachineSpec;
use swlb_arch::perf::{PerfModel, BYTES_PER_LUP};
use swlb_bench::{header, row};
use swlb_core::flags::FlagField;
use swlb_core::geometry::GridDims;
use swlb_core::lattice::D3Q19;
use swlb_core::layout::{PopField, SoaField};

fn main() {
    header(
        "Ablation — blocking granularity (pencil length) and CPE sharing",
        "Liu et al., §IV-C.2 (Fig. 5) and §IV-D.2 (Fig. 10)",
    );

    println!("(a) effective DMA bandwidth vs transaction length (model):\n");
    row(&[
        "pencil cells".into(),
        "txn bytes".into(),
        "SW26010 GB/s".into(),
        "Pro GB/s".into(),
        "SW26010 MLUPS".into(),
    ]);
    let t = PerfModel::taihulight();
    let p = PerfModel::new_sunway();
    for cells in [4usize, 8, 16, 35, 70, 140, 280, 560] {
        let s = (cells * 8) as f64;
        let bw_t = t.effective_dma_bw(s);
        let bw_p = p.effective_dma_bw(s);
        row(&[
            format!("{cells}"),
            format!("{:.0}", s),
            format!("{:.1}", bw_t / 1e9),
            format!("{:.1}", bw_p / 1e9),
            format!("{:.1}", bw_t / BYTES_PER_LUP / 1e6),
        ]);
    }
    println!(
        "\nSW26010's 64 KB LDM caps the pencil near 70 cells; the Pro's 256 KB\n\
         lifts the cap 4x — the mechanism behind its 81.4% vs 77% utilization.\n"
    );

    println!("(b) DMA bytes per cell vs per-CPE row count, sharing on/off (measured):\n");
    row(&[
        "rows/CPE".into(),
        "B/LUP shared".into(),
        "B/LUP dma-only".into(),
        "saved".into(),
        "fabric B/LUP".into(),
    ]);
    for h in [1usize, 2, 4, 8] {
        let ncpe = 8;
        let dims = GridDims::new(10, h * ncpe, 24);
        let flags = FlagField::new(dims);
        let mut src = SoaField::<D3Q19>::new(dims);
        let pool = swlb_core::parallel::ThreadPool::new(1);
        swlb_core::kernels::initialize_with::<D3Q19, _>(&pool, &flags, &mut src, |_, _, _| {
            (1.0, [0.01, 0.0, 0.0])
        });
        let run = |sharing: SharingMode| {
            let exec = CoreGroupExecutor::new(MachineSpec::taihulight())
                .with_cpes(ncpe)
                .with_sharing(sharing);
            let mut dst = SoaField::<D3Q19>::new(dims);
            exec.step(&flags, &src, &mut dst, 1.25).unwrap()
        };
        let shared = run(SharingMode::NeighborFabric);
        let dma_only = run(SharingMode::DmaOnly);
        let cells = dims.cells() as f64;
        row(&[
            format!("{h}"),
            format!("{:.0}", shared.dma.bytes() as f64 / cells),
            format!("{:.0}", dma_only.dma.bytes() as f64 / cells),
            format!(
                "{:.0}%",
                (1.0 - shared.dma.bytes() as f64 / dma_only.dma.bytes() as f64) * 100.0
            ),
            format!("{:.0}", shared.share.bytes as f64 / cells),
        ]);
    }
    println!(
        "\nthe thinner each CPE's slice, the larger the halo fraction and the more\n\
         the register-communication sharing matters — the paper's motivation for\n\
         pairing fine-grained blocking with on-chip data sharing."
    );
}
