//! Momentum-exchange force evaluation on immersed obstacles.
//!
//! The paper's engineering cases report resistance/drag on bodies (Suboff §V-B,
//! cylinder §V-A). The standard LBM observable is the **momentum-exchange
//! method** over bounce-back links: for every fluid cell `x` with a solid
//! neighbor at `x + c_q`, the outgoing packet `f_q(x)` (momentum `c_q f_q`)
//! bounces back with reversed velocity (momentum `−c_q f_q`, plus the
//! moving-wall correction), so the wall gains
//!
//! ```text
//! ΔP = c_q · ( 2 f_q(x) − 6 w_q ρ₀ (c_q · u_w) )
//! ```
//!
//! per link and step, evaluated on the post-collision state — exactly what the
//! A-B buffers hold between steps. (Note it is `2 f_q`, *not* `f_q + f_opp`:
//! the same-time opposite population is not the bounced packet, and using it
//! systematically under-predicts drag on the upstream face.)

use swlb_core::flags::FlagField;
use swlb_core::geometry::GridDims;
use swlb_core::kernels::MAX_Q;
use swlb_core::lattice::Lattice;
use swlb_core::layout::PopField;
use swlb_core::Scalar;

/// Total momentum-exchange force on all solid nodes inside `region` (local
/// coordinates, half-open ranges; pass the full grid to integrate everything).
///
/// Returns the force vector in lattice units (mass · cells / step²).
pub fn momentum_exchange_force_region<L: Lattice, F: PopField<L>>(
    flags: &FlagField,
    field: &F,
    xr: std::ops::Range<usize>,
    yr: std::ops::Range<usize>,
) -> [Scalar; 3] {
    let dims = flags.dims();
    let mut force = [0.0; 3];
    let mut f = [0.0; MAX_Q];
    for y in yr {
        for x in xr.clone() {
            for z in 0..dims.nz {
                let cell = dims.idx(x, y, z);
                if !flags.kind(cell).is_fluid() {
                    continue;
                }
                field.load_cell(cell, &mut f[..L::Q]);
                for q in 1..L::Q {
                    let c = L::C[q];
                    let [nx, ny, nz] = dims.neighbor_periodic(x, y, z, c);
                    let nkind = flags.kind(dims.idx(nx, ny, nz));
                    if nkind.is_solid() {
                        let mut transfer = 2.0 * f[q];
                        if let swlb_core::boundary::NodeKind::MovingWall { u } = nkind {
                            let cu = c[0] as Scalar * u[0]
                                + c[1] as Scalar * u[1]
                                + c[2] as Scalar * u[2];
                            transfer -= 6.0 * L::W[q] * cu;
                        }
                        force[0] += c[0] as Scalar * transfer;
                        force[1] += c[1] as Scalar * transfer;
                        force[2] += c[2] as Scalar * transfer;
                    }
                }
            }
        }
    }
    force
}

/// Momentum-exchange force over the whole grid.
pub fn momentum_exchange_force<L: Lattice, F: PopField<L>>(
    flags: &FlagField,
    field: &F,
) -> [Scalar; 3] {
    let dims = flags.dims();
    momentum_exchange_force_region::<L, F>(flags, field, 0..dims.nx, 0..dims.ny)
}

/// Drag coefficient from a force component: `C_d = 2 F / (ρ U² A)`.
pub fn drag_coefficient(force: Scalar, rho: Scalar, u: Scalar, frontal_area: Scalar) -> Scalar {
    if rho <= 0.0 || u.abs() < 1e-300 || frontal_area <= 0.0 {
        return 0.0;
    }
    2.0 * force / (rho * u * u * frontal_area)
}

/// Dimensionless vortex-shedding frequency: `St = f · D / U`.
pub fn strouhal_number(shedding_freq: Scalar, diameter: Scalar, u: Scalar) -> Scalar {
    if u.abs() < 1e-300 {
        return 0.0;
    }
    shedding_freq * diameter / u
}

/// Estimate the dominant oscillation frequency of a signal sampled once per
/// step, by counting mean crossings (robust for the near-sinusoidal lift
/// signal of vortex shedding). Returns cycles per step.
pub fn dominant_frequency(signal: &[Scalar]) -> Scalar {
    if signal.len() < 4 {
        return 0.0;
    }
    let mean = signal.iter().sum::<Scalar>() / signal.len() as Scalar;
    let mut crossings = 0usize;
    let mut first = None;
    let mut last = 0usize;
    for i in 1..signal.len() {
        if (signal[i - 1] - mean) <= 0.0 && (signal[i] - mean) > 0.0 {
            crossings += 1;
            if first.is_none() {
                first = Some(i);
            }
            last = i;
        }
    }
    match (first, crossings) {
        (Some(f), c) if c >= 2 => (c - 1) as Scalar / (last - f) as Scalar,
        _ => 0.0,
    }
}

/// Strongest spectral peak of a signal within a frequency band (cycles per
/// sample), via direct DFT.
///
/// Confined LBM channels are acoustic cavities: the transverse standing wave
/// at `f = c_s / (2 H)` rings for ~1e5 steps and can dominate the raw lift
/// signal. Since that resonance frequency is known *a priori*, restricting the
/// search band below it isolates the physical vortex-shedding peak. Returns
/// `None` when the signal is too short or the band is empty.
pub fn spectral_peak_frequency(signal: &[Scalar], f_min: Scalar, f_max: Scalar) -> Option<Scalar> {
    let n = signal.len();
    if n < 16 {
        return None;
    }
    let mean = signal.iter().sum::<Scalar>() / n as Scalar;
    let k_min = ((f_min * n as Scalar).ceil() as usize).max(1);
    let k_max = ((f_max * n as Scalar).floor() as usize).min(n / 2);
    if k_min > k_max {
        return None;
    }
    let mut best: Option<(Scalar, usize)> = None;
    for k in k_min..=k_max {
        let (mut re, mut im) = (0.0, 0.0);
        for (i, &v) in signal.iter().enumerate() {
            let phase = std::f64::consts::TAU * k as Scalar * i as Scalar / n as Scalar;
            re += (v - mean) * phase.cos();
            im += (v - mean) * phase.sin();
        }
        let amp = re.hypot(im);
        if best.map(|(a, _)| amp > a).unwrap_or(true) {
            best = Some((amp, k));
        }
    }
    best.map(|(_, k)| k as Scalar / n as Scalar)
}

/// Frontal area of a cylinder of diameter `d` spanning `nz` cells.
pub fn cylinder_frontal_area(d: Scalar, dims: GridDims) -> Scalar {
    d * dims.nz as Scalar
}

#[cfg(test)]
mod tests {
    use super::*;
    use swlb_core::collision::{BgkParams, CollisionKind};
    use swlb_core::kernels::{fused_step, initialize_with};
    use swlb_core::lattice::D2Q9;
    use swlb_core::layout::SoaField;
    use swlb_core::parallel::ThreadPool;
    use swlb_core::prelude::NodeKind;

    /// A D2Q9 field at unit density moving with `u` everywhere.
    fn uniform(flags: &FlagField, u: [Scalar; 3]) -> SoaField<D2Q9> {
        let mut field = SoaField::<D2Q9>::new(flags.dims());
        initialize_with::<D2Q9, _>(&ThreadPool::new(1), flags, &mut field, |_, _, _| (1.0, u));
        field
    }

    #[test]
    fn fluid_at_rest_exerts_no_net_force() {
        let dims = GridDims::new2d(10, 10);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        flags.set(5, 5, 0, NodeKind::Wall);
        let field = uniform(&flags, [0.0; 3]);
        let f = momentum_exchange_force::<D2Q9, _>(&flags, &field);
        for a in 0..3 {
            assert!(f[a].abs() < 1e-12, "axis {a}: {}", f[a]);
        }
    }

    #[test]
    fn uniform_flow_pushes_obstacle_downstream() {
        // A plate in a uniform +x stream must feel +x force.
        let dims = GridDims::new2d(16, 12);
        let mut flags = FlagField::new(dims);
        for y in 3..9 {
            flags.set(8, y, 0, NodeKind::Wall);
        }
        let mut src = uniform(&flags, [0.08, 0.0, 0.0]);
        let mut dst = SoaField::<D2Q9>::new(dims);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        for _ in 0..10 {
            fused_step(&flags, &src, &mut dst, &coll);
            std::mem::swap(&mut src, &mut dst);
        }
        let f = momentum_exchange_force::<D2Q9, _>(&flags, &src);
        assert!(f[0] > 1e-6, "drag = {}", f[0]);
        // Symmetric plate: negligible lift.
        assert!(f[1].abs() < f[0] * 0.2, "lift = {} vs drag {}", f[1], f[0]);
    }

    #[test]
    fn region_split_sums_to_total() {
        let dims = GridDims::new2d(12, 12);
        let mut flags = FlagField::new(dims);
        flags.set(6, 6, 0, NodeKind::Wall);
        flags.set(6, 7, 0, NodeKind::Wall);
        let src = uniform(&flags, [0.05, 0.02, 0.0]);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.9));
        let mut dst = SoaField::<D2Q9>::new(dims);
        fused_step(&flags, &src, &mut dst, &coll);

        let total = momentum_exchange_force::<D2Q9, _>(&flags, &dst);
        let left = momentum_exchange_force_region::<D2Q9, _>(&flags, &dst, 0..6, 0..12);
        let right = momentum_exchange_force_region::<D2Q9, _>(&flags, &dst, 6..12, 0..12);
        for a in 0..3 {
            assert!((total[a] - left[a] - right[a]).abs() < 1e-13);
        }
    }

    #[test]
    fn drag_coefficient_normalization() {
        assert!((drag_coefficient(1.0, 1.0, 1.0, 2.0) - 1.0).abs() < 1e-15);
        assert!((drag_coefficient(0.5, 1.0, 0.5, 4.0) - 1.0).abs() < 1e-15);
        assert_eq!(drag_coefficient(1.0, 1.0, 0.0, 1.0), 0.0);
    }

    #[test]
    fn strouhal_normalization() {
        assert!((strouhal_number(0.02, 10.0, 1.0) - 0.2).abs() < 1e-15);
        assert_eq!(strouhal_number(1.0, 1.0, 0.0), 0.0);
    }

    #[test]
    fn spectral_peak_finds_the_slow_mode_under_a_fast_one() {
        // Slow physical mode at f = 0.01 buried under a strong fast resonance
        // at f = 0.06: the band-limited search must recover the slow one.
        let n = 600;
        let signal: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64;
                0.3 * (std::f64::consts::TAU * 0.01 * t).sin()
                    + 1.5 * (std::f64::consts::TAU * 0.06 * t).sin()
            })
            .collect();
        // Unrestricted: finds the strong fast mode.
        let f_all = spectral_peak_frequency(&signal, 0.0, 0.5).unwrap();
        assert!((f_all - 0.06).abs() < 0.005, "f_all = {f_all}");
        // Band-limited below the resonance: finds the physical mode.
        let f_phys = spectral_peak_frequency(&signal, 0.0, 0.04).unwrap();
        assert!((f_phys - 0.01).abs() < 0.003, "f_phys = {f_phys}");
        // Degenerate inputs.
        assert_eq!(spectral_peak_frequency(&signal[..8], 0.0, 0.5), None);
        assert_eq!(spectral_peak_frequency(&signal, 0.4, 0.1), None);
    }

    #[test]
    fn dominant_frequency_of_a_sine() {
        // Period 50 steps over 400 samples.
        let signal: Vec<f64> = (0..400)
            .map(|i| (i as f64 * std::f64::consts::TAU / 50.0).sin())
            .collect();
        let f = dominant_frequency(&signal);
        assert!((f - 0.02).abs() < 0.002, "f = {f}");
        // Constant signal has no frequency.
        assert_eq!(dominant_frequency(&vec![1.0; 100]), 0.0);
        assert_eq!(dominant_frequency(&[1.0, 2.0]), 0.0);
    }
}
