//! Result checks: the serial generic reference every configuration must
//! match before it is timed, and the per-window finite-and-mass check.

use crate::surface::{
    dispatch_tolerance, fused_step, AaParity, BgkParams, CollisionKind, FlagField, Lattice,
    NodeKind, PopField, SoaField, Solver,
};

/// Grid edge and step count of the pre-timing reference run.
pub const REFERENCE_N: usize = 32;
pub const REFERENCE_STEPS: u64 = 8;

/// Relative mass drift a timed window may show.
pub const MASS_TOLERANCE: f64 = 1e-6;

/// Largest deviation on fluid cells between `got` and the AB, k = 1, serial
/// *generic* kernel run for `steps` steps from `init`. Both slices are
/// canonical SoA populations.
pub fn reference_deviation<L: Lattice>(
    flags: &FlagField,
    tau: f64,
    init: &[f64],
    got: &[f64],
    steps: u64,
) -> f64 {
    let coll = CollisionKind::Bgk(BgkParams::from_tau(tau));
    let mut src = SoaField::<L>::new(flags.dims());
    src.raw_mut().copy_from_slice(init);
    let mut dst = src.clone();
    for _ in 0..steps {
        fused_step::<L, _>(flags, &src, &mut dst, &coll);
        std::mem::swap(&mut src, &mut dst);
    }
    let cells = flags.dims().cells();
    let mut worst = 0.0f64;
    for cell in (0..cells).filter(|&c| flags.kind(c) == NodeKind::Fluid) {
        for q in 0..L::Q {
            let d = (src.raw()[q * cells + cell] - got[q * cells + cell]).abs();
            // A NaN must fail the check, and `max` would drop it.
            worst = if d.is_nan() {
                f64::INFINITY
            } else {
                worst.max(d)
            };
        }
    }
    worst
}

/// `dispatch_tolerance()` per step; the 1e-14 floor absorbs the different
/// summation order of blocked and in-place sweeps on scalar lanes.
pub fn reference_tolerance(steps: u64) -> f64 {
    (dispatch_tolerance() * steps as f64).max(1e-14)
}

/// Fail with a message naming `what` when `got` strays from the reference.
pub fn require_reference<L: Lattice>(
    what: &str,
    flags: &FlagField,
    tau: f64,
    init: &[f64],
    got: &[f64],
) -> Result<(), String> {
    let dev = reference_deviation::<L>(flags, tau, init, got, REFERENCE_STEPS);
    let tol = reference_tolerance(REFERENCE_STEPS);
    if dev <= tol {
        Ok(())
    } else {
        Err(format!(
            "{what}: deviates from the serial generic reference by {dev:e} (> {tol:e}) \
             after {REFERENCE_STEPS} steps at {REFERENCE_N}^d"
        ))
    }
}

/// Whether a state is all finite with its mass within [`MASS_TOLERANCE`] of
/// `mass0`.
pub fn state_ok(non_finite: bool, mass: f64, mass0: f64) -> bool {
    !non_finite && ((mass - mass0) / mass0).abs() <= MASS_TOLERANCE
}

/// Total fluid mass of a solver's current state, and whether any population
/// is non-finite.
///
/// Sums the raw grid instead of calling `macroscopic()`, which under AA would
/// first materialise a canonical copy of the whole grid and so double the
/// peak RSS the AA workloads exist to show. The per-cell sum over `q` is the
/// same in AB order and in AA `Reversed` order (the slots are permuted within
/// a cell), and a NaN or infinity in any slot survives the sum.
///
/// # Panics
/// Panics at AA `Streamed` parity, where a cell's populations sit in its
/// neighbours: every caller checks after an even step count.
pub fn mass_of<L: Lattice>(s: &Solver<L>) -> (bool, f64) {
    assert_ne!(
        s.parity(),
        Some(AaParity::Streamed),
        "mass check at odd AA parity"
    );
    let cells = s.dims().cells();
    let mut rho = vec![0.0f64; cells];
    for q in 0..L::Q {
        for (r, f) in rho.iter_mut().zip(s.state().plane(q)) {
            *r += f;
        }
    }
    let non_finite = !rho.iter().sum::<f64>().is_finite();
    let flags = s.flags();
    let mass = (0..cells)
        .filter(|&c| flags.kind(c) == NodeKind::Fluid)
        .map(|c| rho[c])
        .sum();
    (non_finite, mass)
}

/// Serialises the tests that set the process-wide lane policy or depend on
/// the tolerance it implies.
#[cfg(test)]
pub static LANE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
