//! §IV-C.3 — kernel fusion's DMA accounting, measured on the emulator.
//!
//! The paper: "a total of 12 and 2 DMA operations for data transfer between
//! main memory and LDM in one time step have to be initiated for propagation
//! and collision respectively. With the strategy of fusion, we can reuse data
//! between kernels and reduce 4 DMA operations in one time step." This harness
//! measures the actual transaction and byte counts of the emulated core group
//! in both modes, for both Sunway generations.

use swlb_arch::cpe::{CoreGroupExecutor, FusionMode};
use swlb_arch::machine::MachineSpec;
use swlb_bench::{header, row};
use swlb_core::flags::FlagField;
use swlb_core::geometry::GridDims;
use swlb_core::lattice::D3Q19;
use swlb_core::layout::{PopField, SoaField};

fn main() {
    header(
        "Kernel-fusion DMA accounting (emulated core group, 12x24x48 block)",
        "Liu et al., §IV-C.3 (fusion removes one full lattice read+write round trip)",
    );
    let dims = GridDims::new(12, 24, 48);
    let flags = FlagField::new(dims);
    let mut src = SoaField::<D3Q19>::new(dims);
    let pool = swlb_core::parallel::ThreadPool::new(1);
    swlb_core::kernels::initialize_with::<D3Q19, _>(&pool, &flags, &mut src, |_, _, _| {
        (1.0, [0.01, 0.0, 0.0])
    });

    for machine in [MachineSpec::taihulight(), MachineSpec::new_sunway()] {
        println!("\nplatform: {}", machine.kind.name());
        row(&[
            "mode".into(),
            "DMA ops".into(),
            "DMA MB".into(),
            "B/LUP".into(),
            "mean txn B".into(),
        ]);
        let mut results = Vec::new();
        for (label, fusion) in [("split", FusionMode::Split), ("fused", FusionMode::Fused)] {
            let exec = CoreGroupExecutor::new(machine)
                .with_cpes(8)
                .with_fusion(fusion);
            let mut dst = SoaField::<D3Q19>::new(dims);
            let c = exec.step(&flags, &src, &mut dst, 1.25).unwrap();
            row(&[
                label.into(),
                format!("{}", c.dma.transactions()),
                format!("{:.2}", c.dma.bytes() as f64 / 1e6),
                format!("{:.0}", c.dma.bytes() as f64 / dims.cells() as f64),
                format!("{:.0}", c.dma.mean_transaction_bytes()),
            ]);
            results.push(c);
        }
        let saved_bytes = results[0].dma.bytes() - results[1].dma.bytes();
        let saved_ops = results[0].dma.transactions() - results[1].dma.transactions();
        println!(
            "  fusion saves {saved_ops} DMA ops and {:.2} MB — exactly one read+write \
             sweep of the lattice ({} cells x 19 x 8 B x 2 = {:.2} MB)",
            saved_bytes as f64 / 1e6,
            dims.cells(),
            (dims.cells() * 19 * 8 * 2) as f64 / 1e6,
        );
        println!(
            "  larger LDM -> longer pencils: mean transaction {:.0} B",
            results[1].dma.mean_transaction_bytes()
        );
    }
}
