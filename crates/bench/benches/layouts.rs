//! SoA vs AoS layout benchmark — the paper's §IV-A/IV-C data-layout argument,
//! measured on a cache-based host — plus the lattice-family cost scaling.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use swlb_core::collision::{BgkParams, CollisionKind};
use swlb_core::flags::FlagField;
use swlb_core::geometry::GridDims;
use swlb_core::kernels::fused_step;
use swlb_core::lattice::{D2Q9, D3Q19, D3Q27};
use swlb_core::layout::{AosField, PopField, SoaField};

fn init<L: swlb_core::lattice::Lattice, F: PopField<L>>(dims: GridDims) -> F {
    let flags = FlagField::new(dims);
    let mut f = F::new(dims);
    let pool = swlb_core::parallel::ThreadPool::new(1);
    swlb_core::kernels::initialize_with::<L, _>(&pool, &flags, &mut f, |x, y, z| {
        (1.0 + 0.001 * ((x + y + z) % 5) as f64, [0.01, 0.0, 0.0])
    });
    f
}

fn bench_layouts(c: &mut Criterion) {
    let dims = GridDims::new(48, 48, 48);
    let flags = FlagField::new(dims);
    let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));

    let mut group = c.benchmark_group("layout_d3q19_48cubed");
    group.throughput(Throughput::Elements(dims.cells() as u64));
    group.sample_size(10);
    {
        let src: SoaField<D3Q19> = init(dims);
        let mut dst = SoaField::<D3Q19>::new(dims);
        group.bench_function("soa", |b| b.iter(|| fused_step(&flags, &src, &mut dst, &coll)));
    }
    {
        let src: AosField<D3Q19> = init(dims);
        let mut dst = AosField::<D3Q19>::new(dims);
        group.bench_function("aos", |b| b.iter(|| fused_step(&flags, &src, &mut dst, &coll)));
    }
    group.finish();
}

fn bench_lattices(c: &mut Criterion) {
    // Cost per cell grows with Q: D2Q9 < D3Q19 < D3Q27 (the B/LUP scaling the
    // roofline model assumes).
    let mut group = c.benchmark_group("lattice_family_soa");
    group.sample_size(10);
    let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
    {
        let dims = GridDims::new2d(256, 256);
        let flags = FlagField::new(dims);
        let src: SoaField<D2Q9> = init(dims);
        let mut dst = SoaField::<D2Q9>::new(dims);
        group.throughput(Throughput::Elements(dims.cells() as u64));
        group.bench_function("d2q9_256sq", |b| {
            b.iter(|| fused_step(&flags, &src, &mut dst, &coll))
        });
    }
    {
        let dims = GridDims::new(40, 40, 40);
        let flags = FlagField::new(dims);
        group.throughput(Throughput::Elements(dims.cells() as u64));
        let src: SoaField<D3Q19> = init(dims);
        let mut dst = SoaField::<D3Q19>::new(dims);
        group.bench_function("d3q19_40cubed", |b| {
            b.iter(|| fused_step(&flags, &src, &mut dst, &coll))
        });
        let src: SoaField<D3Q27> = init(dims);
        let mut dst = SoaField::<D3Q27>::new(dims);
        group.bench_function("d3q27_40cubed", |b| {
            b.iter(|| fused_step(&flags, &src, &mut dst, &coll))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_layouts, bench_lattices);
criterion_main!(benches);
