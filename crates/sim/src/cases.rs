//! Reusable case construction: one validated description of "a simulation"
//! that front-ends can build solvers from.
//!
//! This is the one case catalogue: `swlb run`, the serving layer
//! (`swlb-serve`), the fleet and the benchmark all build their solvers here —
//! build a solver from a job's spec, slice it, drop it on preemption, and
//! rebuild it later from a checkpoint. [`CaseSpec`] is that description, its
//! [`validate`](CaseSpec::validate) the one pre-flight gate, and
//! [`CaseSolver`] the lattice-erased solver it builds: the enum closes over
//! the lattice type parameter so a scheduler can hold jobs of mixed lattices
//! in one queue.
//!
//! A case solver is one shared-memory [`Solver`] sweeping on the pool it is
//! given, whatever width its job asked for: ranks are for crossing an address
//! space ([`DistributedSolver`](crate::engine::DistributedSolver)), threads
//! for filling one. Its checkpoint is one whole-domain chunk packed straight
//! from the solver's storage runs, and a restore lands a checkpoint of any
//! number of chunks straight into the raw grid ([`ChunkedCheckpoint::land`]):
//! the chunk order lives in `swlb_io::chunked`, not here.

use crate::engine::scheme_byte;
use std::f64::consts::TAU;
use swlb_core::collision::BgkParams;
use swlb_core::flags::FlagField;
use swlb_core::geometry::GridDims;
use swlb_core::lattice::{Lattice, D2Q9, D3Q19};
use swlb_core::layout::{CanonicalRuns, PopField, StorageScheme};
use swlb_core::macroscopic::MacroFields;
use swlb_core::parallel::ThreadPool;
use swlb_core::simd::KernelClass;
use swlb_core::solver::{Solver, StepStats};
use swlb_core::stability::{self, Severity};
use swlb_core::Scalar;
use swlb_io::{Checkpoint, ChunkMeta, ChunkedCheckpoint};
use swlb_mesh::cylinder_z_mask;
use swlb_obs::{Recorder, SwlbError};

/// Lattice family a case runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatticeKind {
    /// 2-D, 9 discrete velocities.
    D2Q9,
    /// 3-D, 19 discrete velocities (the paper's production lattice).
    D3Q19,
}

impl LatticeKind {
    /// Populations per cell.
    pub fn q(self) -> u32 {
        match self {
            LatticeKind::D2Q9 => 9,
            LatticeKind::D3Q19 => 19,
        }
    }

    /// Canonical lowercase name (wire format).
    pub fn name(self) -> &'static str {
        match self {
            LatticeKind::D2Q9 => "d2q9",
            LatticeKind::D3Q19 => "d3q19",
        }
    }

    /// Parse the wire name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "d2q9" => Some(LatticeKind::D2Q9),
            "d3q19" => Some(LatticeKind::D3Q19),
            _ => None,
        }
    }
}

/// Built-in case families (the boundary/initialization recipes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseKind {
    /// Lid-driven cavity: sealed box, moving lid.
    Cavity,
    /// Channel: y-walls, density inflow/outflow in x.
    Channel,
    /// Flow past a cylinder: the channel with a z-aligned solid cylinder of
    /// diameter `ny / 6` a quarter of the way downstream.
    Cylinder,
    /// Taylor–Green vortex: fully periodic decaying vortices.
    TaylorGreen,
}

impl CaseKind {
    /// Canonical lowercase name (wire format).
    pub fn name(self) -> &'static str {
        match self {
            CaseKind::Cavity => "cavity",
            CaseKind::Channel => "channel",
            CaseKind::Cylinder => "cylinder",
            CaseKind::TaylorGreen => "taylor-green",
        }
    }

    /// Parse the wire name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "cavity" => Some(CaseKind::Cavity),
            "channel" => Some(CaseKind::Channel),
            "cylinder" => Some(CaseKind::Cylinder),
            "taylor-green" => Some(CaseKind::TaylorGreen),
            _ => None,
        }
    }
}

/// Everything needed to (re)build a case solver, independent of any front-end.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseSpec {
    /// Boundary/initialization recipe.
    pub case: CaseKind,
    /// Lattice family.
    pub lattice: LatticeKind,
    /// Grid extent (nz is forced to 1 for 2-D lattices).
    pub nx: usize,
    /// Grid extent in y.
    pub ny: usize,
    /// Grid extent in z.
    pub nz: usize,
    /// BGK relaxation time.
    pub tau: Scalar,
    /// Driving velocity magnitude (lattice units).
    pub u_lattice: Scalar,
    /// Population storage scheme (two-grid AB or single-grid AA). AA halves
    /// the job's resident footprint but supports closed boundaries only, so
    /// [`CaseKind::Channel`] and [`CaseKind::Cylinder`] (inflow/outflow) must
    /// run under AB.
    pub storage: StorageScheme,
    /// Temporal-blocking depth `k` (1 disables blocking). Each sweep advances
    /// the grid `k` steps; distributed slices exchange `k`-deep halos once per
    /// block. AA storage requires an even depth.
    pub time_block: usize,
}

/// Cell-count admission cap: a service must bound the memory one job can
/// demand (a 256³ D3Q19 job is ~2.5 GiB of population storage per buffer).
pub const MAX_CELLS: usize = 4 << 20;

impl CaseSpec {
    /// Effective grid dims (z collapsed for 2-D lattices).
    pub fn dims(&self) -> GridDims {
        match self.lattice {
            LatticeKind::D2Q9 => GridDims::new2d(self.nx, self.ny),
            LatticeKind::D3Q19 => GridDims::new(self.nx, self.ny, self.nz),
        }
    }

    /// Validate physics and admission bounds without building anything, and
    /// vet the case before burning cycles on it (§IV-B pre-processing): a
    /// Critical pre-flight finding is `InvalidConfig` carrying its message.
    /// A launchable case returns its Warning findings for a front-end to
    /// show.
    pub fn validate(&self) -> Result<Vec<String>, SwlbError> {
        let report = stability::analyze(BgkParams::try_from_tau(self.tau)?, self.u_lattice);
        let of = |severity| {
            report
                .findings
                .iter()
                .filter(move |f| f.severity == severity)
        };
        if let Some(critical) = of(Severity::Critical).next() {
            return Err(SwlbError::InvalidConfig(format!(
                "pre-flight: {}",
                critical.message
            )));
        }
        let need_z = matches!(self.lattice, LatticeKind::D3Q19);
        if self.nx < 3 || self.ny < 3 || (need_z && self.nz < 3) {
            return Err(SwlbError::InvalidDims(format!(
                "case grid {}x{}x{} too small (each extent must be >= 3)",
                self.nx, self.ny, self.nz
            )));
        }
        let cells = self.dims().cells();
        if cells > MAX_CELLS {
            return Err(SwlbError::InvalidConfig(format!(
                "case has {cells} cells, above the admission cap of {MAX_CELLS}"
            )));
        }
        if !(0.0..0.3).contains(&self.u_lattice.abs()) {
            return Err(SwlbError::InvalidConfig(format!(
                "u_lattice {} outside the low-Mach range |u| < 0.3",
                self.u_lattice
            )));
        }
        // Which node kinds a recipe paints does not depend on the extent, so
        // the smallest grid answers for any without allocating the case's.
        let mut probe = FlagField::new(match self.lattice {
            LatticeKind::D2Q9 => GridDims::new2d(3, 3),
            LatticeKind::D3Q19 => GridDims::new(3, 3, 3),
        });
        self.paint_flags(&mut probe);
        self.storage.check_flags(&probe)?;
        self.storage.check_depth(self.time_block)?;
        Ok(of(Severity::Warning).map(|f| f.message.clone()).collect())
    }

    /// Build a painted, initialized solver running on `pool` and reporting
    /// into `recorder`.
    pub fn build(&self, pool: ThreadPool, recorder: Recorder) -> Result<CaseSolver, SwlbError> {
        Ok(match self.lattice {
            LatticeKind::D2Q9 => CaseSolver::D2(self.build_serial(pool, recorder)?),
            LatticeKind::D3Q19 => CaseSolver::D3(self.build_serial(pool, recorder)?),
        })
    }

    fn build_serial<L: Lattice>(
        &self,
        pool: ThreadPool,
        recorder: Recorder,
    ) -> Result<Solver<L>, SwlbError> {
        self.validate()?;
        let mut s = Solver::<L>::builder(self.dims(), BgkParams::try_from_tau(self.tau)?)
            .pool(pool)
            .recorder(recorder)
            .storage(self.storage)
            .time_block(self.time_block)
            .try_build()?;
        self.paint_flags(s.flags_mut());
        s.initialize_field(|x, y, z| self.initial_state(x, y, z));
        Ok(s)
    }

    /// [`CaseSpec::build`] for a job that requested `width`: the width takes
    /// nothing from the solver, which sweeps on every thread of `pool`.
    pub fn build_with_width(
        &self,
        pool: ThreadPool,
        recorder: Recorder,
        _width: u32,
    ) -> Result<CaseSolver, SwlbError> {
        self.build(pool, recorder)
    }

    /// Paint this case's boundary recipe onto a global flag field: the serial
    /// solver's own, or the one a distributed run carves its local flags out
    /// of.
    pub fn paint_flags(&self, flags: &mut FlagField) {
        let u = self.u_lattice;
        match self.case {
            CaseKind::Cavity => {
                flags.set_box_walls();
                flags.paint_lid([u, 0.0, 0.0]);
            }
            CaseKind::Channel | CaseKind::Cylinder => {
                flags.paint_channel_walls_y();
                flags.paint_inflow_outflow_x(1.0, [u, 0.0, 0.0]);
                if self.case == CaseKind::Cylinder {
                    let d = flags.dims();
                    let (nx, ny) = (d.nx as Scalar, d.ny as Scalar);
                    let mask = cylinder_z_mask(d, nx / 4.0, ny / 2.0 + 0.5, ny / 12.0);
                    flags
                        .apply_mask(&mask)
                        .expect("a mask of the field's own dims fits it");
                }
            }
            CaseKind::TaylorGreen => {} // fully periodic
        }
    }

    /// This case's initial `(rho, u)` at a *global* cell: what the serial
    /// solver and every rank of a distributed run initialize from, so both
    /// start from the same field whatever the partition.
    pub fn initial_state(&self, x: usize, y: usize, _z: usize) -> (Scalar, [Scalar; 3]) {
        let u = self.u_lattice;
        match self.case {
            CaseKind::Cavity => (1.0, [0.0; 3]),
            CaseKind::Channel | CaseKind::Cylinder => (1.0, [u, 0.0, 0.0]),
            CaseKind::TaylorGreen => {
                // One period per axis, so the field wraps smoothly on a
                // non-square grid too.
                let (kx, ky) = (TAU / self.nx as Scalar, TAU / self.ny as Scalar);
                let (xs, ys) = (x as Scalar * kx, y as Scalar * ky);
                (
                    1.0 - 0.75 * u * u * ((2.0 * xs).cos() + (2.0 * ys).cos()),
                    [u * xs.sin() * ys.cos(), -u * xs.cos() * ys.sin(), 0.0],
                )
            }
        }
    }
}

/// Grid dims as checkpoints record them.
fn extent(dims: GridDims) -> (u32, u32, u32) {
    (dims.nx as u32, dims.ny as u32, dims.nz as u32)
}

/// `s`'s checkpoint: one whole-domain chunk packed straight from the
/// canonical runs of its storage.
fn capture_solver<L: Lattice>(s: &Solver<L>) -> ChunkedCheckpoint {
    let (dims, q, scheme) = (extent(s.dims()), L::Q as u32, scheme_byte(s.scheme()));
    ChunkedCheckpoint::single_chunk(s.step_count(), dims, q, scheme, |qi, x, y| {
        s.storage().run(qi, x, y)
    })
}

/// Land a checkpoint that fits `s` straight into its raw grid and adopt it
/// as the canonical state at the checkpoint's step.
fn restore_solver<L: Lattice>(s: &mut Solver<L>, ck: &ChunkedCheckpoint) -> Result<(), SwlbError> {
    let (dims, whole) = (s.dims(), ChunkMeta::whole(ck.dims));
    ck.check_fits(extent(dims), L::Q as u32)?;
    ck.land(whole, s.state_mut().raw_mut(), dims, (0, 0))?;
    s.adopt_canonical(ck.step);
    Ok(())
}

/// A lattice-erased case solver: the unit a job scheduler slices, checkpoints,
/// drops, and rebuilds.
pub enum CaseSolver {
    /// 2-D solver.
    D2(Solver<D2Q9>),
    /// 3-D solver.
    D3(Solver<D3Q19>),
}

impl CaseSolver {
    /// Completed step count.
    pub fn step_count(&self) -> u64 {
        match self {
            CaseSolver::D2(s) => s.step_count(),
            CaseSolver::D3(s) => s.step_count(),
        }
    }

    /// Grid dims.
    pub fn dims(&self) -> GridDims {
        match self {
            CaseSolver::D2(s) => s.dims(),
            CaseSolver::D3(s) => s.dims(),
        }
    }

    /// Fluid-cell count (MLUPS accounting).
    pub fn active_cells(&self) -> usize {
        match self {
            CaseSolver::D2(s) => s.active_cells(),
            CaseSolver::D3(s) => s.active_cells(),
        }
    }

    /// Kernel class that served the latest step.
    pub fn last_kernel_class(&self) -> KernelClass {
        match self {
            CaseSolver::D2(s) => s.last_kernel_class(),
            CaseSolver::D3(s) => s.last_kernel_class(),
        }
    }

    /// Summary statistics of the current state.
    pub fn stats(&self) -> StepStats {
        match self {
            CaseSolver::D2(s) => s.stats(),
            CaseSolver::D3(s) => s.stats(),
        }
    }

    /// The flag field (e.g. for force evaluation).
    pub fn flags(&self) -> &FlagField {
        match self {
            CaseSolver::D2(s) => s.flags(),
            CaseSolver::D3(s) => s.flags(),
        }
    }

    /// Advance `n` steps with a divergence check every `check_every` steps
    /// and one at the end; under temporal blocking each check is rounded up
    /// to its block boundary.
    pub fn run_checked(&mut self, n: u64, check_every: u64) -> Result<(), SwlbError> {
        match self {
            CaseSolver::D2(s) => s.run_checked(n, check_every),
            CaseSolver::D3(s) => s.run_checked(n, check_every),
        }
    }

    /// Density and velocity of every cell: one whole-lattice pass, which
    /// every output of a job is derived from.
    pub fn macroscopic(&self) -> MacroFields {
        match self {
            CaseSolver::D2(s) => s.macroscopic(),
            CaseSolver::D3(s) => s.macroscopic(),
        }
    }

    /// Speed magnitude of the z=0 plane (slice outputs).
    pub fn slice_speed(&self) -> Vec<Scalar> {
        self.macroscopic().slice_xy_speed(0)
    }

    /// Storage scheme of the underlying solver.
    pub fn scheme(&self) -> StorageScheme {
        match self {
            CaseSolver::D2(s) => s.scheme(),
            CaseSolver::D3(s) => s.scheme(),
        }
    }

    /// Populations-per-cell of the underlying lattice.
    pub fn q(&self) -> u32 {
        match self {
            CaseSolver::D2(_) => 9,
            CaseSolver::D3(_) => 19,
        }
    }

    /// Accepts a job's width at a slice boundary and changes nothing: a case
    /// solver always sweeps on its whole pool. Returns 1.
    pub fn set_width(&mut self, _width: u32) -> u32 {
        1
    }

    /// The full population state as one whole-domain SoA snapshot, for
    /// comparing states in memory. What is saved, shipped and restored is
    /// [`CaseSolver::capture_chunked`].
    ///
    /// The payload is always the canonical (AB-convention, post-collision)
    /// state regardless of the solver's storage scheme; the `scheme` byte
    /// records the producer for provenance.
    pub fn capture(&self) -> Checkpoint {
        let data = match self {
            CaseSolver::D2(s) => s.canonical_populations().raw().to_vec(),
            CaseSolver::D3(s) => s.canonical_populations().raw().to_vec(),
        };
        Checkpoint {
            step: self.step_count(),
            dims: extent(self.dims()),
            q: self.q(),
            scheme: scheme_byte(self.scheme()),
            data,
        }
    }

    /// Capture the state as a checkpoint of one whole-domain chunk — the
    /// preemption primitive: save this, drop the solver, rebuild later from
    /// the same [`CaseSpec`] and [`CaseSolver::restore_chunked_state`].
    ///
    /// Chunk payloads are canonical, so checkpoints are portable across
    /// schemes: an AA job's checkpoint restores into an AB solver and vice
    /// versa.
    pub fn capture_chunked(&self) -> ChunkedCheckpoint {
        match self {
            CaseSolver::D2(s) => capture_solver(s),
            CaseSolver::D3(s) => capture_solver(s),
        }
    }

    /// Restore population state and step count from a checkpoint of the same
    /// grid and lattice, written by whatever source partition: one chunk per
    /// rank of a [`DistributedSolver`](crate::engine::DistributedSolver) lands
    /// as well as a case solver's single chunk.
    pub fn restore_chunked_state(&mut self, ck: &ChunkedCheckpoint) -> Result<(), SwlbError> {
        match self {
            CaseSolver::D2(s) => restore_solver(s, ck),
            CaseSolver::D3(s) => restore_solver(s, ck),
        }
    }

    /// Fault-injection hook: poison one interior population with NaN so the
    /// next divergence check trips — the job-level analogue of ChaosComm's
    /// corrupt-in-flight faults, used by chaos tests to exercise
    /// rollback-retry supervision.
    pub fn poison_with_nan(&mut self) {
        let d = self.dims();
        // Center cell: interior fluid for every case family (walls occupy the
        // outermost shell; the cylinder, of radius ny/12 centred at nx/4,
        // stays clear of it whenever nx > ny/3).
        let cell = d.idx(d.nx / 2, d.ny / 2, d.nz / 2);
        // Slot q=0 is the rest population: under every scheme and parity it
        // is stored at (and read back from) the cell itself, so the poison is
        // visible to the very next macroscopic evaluation.
        match self {
            CaseSolver::D2(s) => s.state_mut().set(cell, 0, Scalar::NAN),
            CaseSolver::D3(s) => s.state_mut().set(cell, 0, Scalar::NAN),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CaseSpec {
        CaseSpec {
            case: CaseKind::Cavity,
            lattice: LatticeKind::D3Q19,
            nx: 8,
            ny: 8,
            nz: 8,
            tau: 0.8,
            u_lattice: 0.05,
            storage: StorageScheme::Ab,
            time_block: 1,
        }
    }

    #[test]
    fn wire_names_roundtrip() {
        for c in [
            CaseKind::Cavity,
            CaseKind::Channel,
            CaseKind::Cylinder,
            CaseKind::TaylorGreen,
        ] {
            assert_eq!(CaseKind::parse(c.name()), Some(c));
        }
        for l in [LatticeKind::D2Q9, LatticeKind::D3Q19] {
            assert_eq!(LatticeKind::parse(l.name()), Some(l));
        }
        assert_eq!(CaseKind::parse("vortex-street"), None);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut s = spec();
        s.tau = 0.4; // below the linear-stability bound
        assert!(s.validate().is_err());
        let mut s = spec();
        s.nx = 2;
        assert!(matches!(s.validate(), Err(SwlbError::InvalidDims(_))));
        let mut s = spec();
        s.u_lattice = 0.5;
        assert!(matches!(s.validate(), Err(SwlbError::InvalidConfig(_))));
        let mut s = spec();
        (s.nx, s.ny, s.nz) = (1 << 12, 1 << 12, 4);
        assert!(matches!(s.validate(), Err(SwlbError::InvalidConfig(_))));
    }

    #[test]
    fn preflight_gates_critical_and_returns_warnings() {
        assert_eq!(spec().validate().unwrap(), Vec::<String>::new());
        let mut s = spec();
        s.tau = 0.502; // a positive viscosity, but inside the BGK margin
        match s.validate() {
            Err(SwlbError::InvalidConfig(msg)) => assert!(msg.contains("within 0.005"), "{msg}"),
            other => panic!("expected a Critical pre-flight finding, got {other:?}"),
        }
        s.tau = 0.51;
        let warnings = s.validate().unwrap();
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("thin stability margin"));
    }

    #[test]
    fn non_square_taylor_green_is_periodic_in_both_axes() {
        let s = CaseSpec {
            case: CaseKind::TaylorGreen,
            lattice: LatticeKind::D2Q9,
            nx: 24,
            ny: 16,
            nz: 1,
            ..spec()
        };
        for x in 0..s.nx {
            let (wrap_y, row0) = (s.initial_state(x, s.ny, 0), s.initial_state(x, 0, 0));
            assert!((wrap_y.0 - row0.0).abs() < 1e-12, "rho at x={x}");
            for a in 0..3 {
                assert!((wrap_y.1[a] - row0.1[a]).abs() < 1e-12, "u[{a}] at x={x}");
            }
        }
        for y in 0..s.ny {
            let (wrap_x, col0) = (s.initial_state(s.nx, y, 0), s.initial_state(0, y, 0));
            for a in 0..3 {
                assert!((wrap_x.1[a] - col0.1[a]).abs() < 1e-12, "u[{a}] at y={y}");
            }
        }
    }

    #[test]
    fn every_case_family_builds_and_steps() {
        for case in [
            CaseKind::Cavity,
            CaseKind::Channel,
            CaseKind::Cylinder,
            CaseKind::TaylorGreen,
        ] {
            for lattice in [LatticeKind::D2Q9, LatticeKind::D3Q19] {
                for storage in [StorageScheme::Ab, StorageScheme::Aa] {
                    let s = CaseSpec {
                        case,
                        lattice,
                        nx: 8,
                        ny: 8,
                        nz: 6,
                        tau: 0.8,
                        u_lattice: 0.05,
                        storage,
                        time_block: 1,
                    };
                    let open = matches!(case, CaseKind::Channel | CaseKind::Cylinder);
                    if open && storage == StorageScheme::Aa {
                        // Open boundaries are AB-only; validated below.
                        assert!(matches!(s.validate(), Err(SwlbError::InvalidConfig(_))));
                        continue;
                    }
                    let mut solver = s
                        .build(ThreadPool::new(1), Recorder::disabled())
                        .unwrap_or_else(|e| panic!("{case:?}/{lattice:?}/{storage:?}: {e}"));
                    solver.run_checked(4, 2).unwrap();
                    assert_eq!(solver.step_count(), 4);
                    assert!(!solver.macroscopic().has_non_finite());
                }
            }
        }
    }

    /// The per-cell initializer: `f_eq` of the case's state at every
    /// non-solid cell and `w_q · rho` at every solid one, in SoA order.
    fn per_cell_initial_state<L: Lattice>(spec: &CaseSpec) -> Vec<Scalar> {
        let dims = spec.dims();
        let mut flags = FlagField::new(dims);
        spec.paint_flags(&mut flags);
        let (cells, mut feq) = (dims.cells(), [0.0; swlb_core::kernels::MAX_Q]);
        let mut want = vec![0.0; L::Q * cells];
        for [x, y, z] in dims.iter() {
            let cell = dims.idx(x, y, z);
            let (rho, u) = spec.initial_state(x, y, z);
            swlb_core::equilibrium::equilibrium::<L>(rho, u, &mut feq[..L::Q]);
            for q in 0..L::Q {
                let solid = flags.kind(cell).is_solid();
                want[q * cells + cell] = if solid { L::W[q] * rho } else { feq[q] };
            }
        }
        want
    }

    #[test]
    fn every_catalogue_case_starts_where_the_per_cell_initializer_does() {
        for case in [
            CaseKind::Cavity,
            CaseKind::Channel,
            CaseKind::Cylinder,
            CaseKind::TaylorGreen,
        ] {
            for lattice in [LatticeKind::D2Q9, LatticeKind::D3Q19] {
                for storage in [StorageScheme::Ab, StorageScheme::Aa] {
                    let spec = CaseSpec {
                        case,
                        lattice,
                        nx: 12,
                        ny: 9,
                        nz: 5,
                        storage,
                        ..spec()
                    };
                    if spec.validate().is_err() {
                        continue; // open boundaries are AB-only
                    }
                    let want = match lattice {
                        LatticeKind::D2Q9 => per_cell_initial_state::<D2Q9>(&spec),
                        LatticeKind::D3Q19 => per_cell_initial_state::<D3Q19>(&spec),
                    };
                    for threads in [1, 3] {
                        let solver = spec.build(ThreadPool::new(threads), Recorder::disabled());
                        let got = solver.unwrap().capture().data;
                        assert!(
                            got.iter()
                                .map(|v| v.to_bits())
                                .eq(want.iter().map(|v| v.to_bits())),
                            "{case:?}/{lattice:?}/{storage:?} on {threads} threads"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn aa_case_tracks_ab_case_and_checkpoints_are_cross_scheme() {
        let pool = ThreadPool::new(1);
        let ab = spec();
        let mut aa = spec();
        aa.storage = StorageScheme::Aa;

        let mut sa = ab.build(pool.clone(), Recorder::disabled()).unwrap();
        let mut sb = aa.build(pool.clone(), Recorder::disabled()).unwrap();
        sa.run_checked(5, 5).unwrap();
        sb.run_checked(5, 5).unwrap();

        // Mid-parity capture (odd step count => AA state is Streamed): the
        // payload must still be canonical and restore into an *AB* solver.
        let ck = sb.capture_chunked();
        assert_eq!(ck.scheme, swlb_io::checkpoint::SCHEME_AA);
        let mut sc = ab.build(pool, Recorder::disabled()).unwrap();
        sc.restore_chunked_state(&ck).unwrap();
        sa.run_checked(3, 3).unwrap();
        sb.run_checked(3, 3).unwrap();
        sc.run_checked(3, 3).unwrap();

        // Compare fluid cells only: AA wall slots are scatter mailboxes, so
        // macroscopic values over solid cells are not meaningful.
        let tol = swlb_core::simd::dispatch_tolerance() * 100.0;
        let [ra, rb, rc] = [&sa, &sb, &sc].map(|s| s.macroscopic().rho);
        for i in 0..ra.len() {
            if sa.flags().kind(i) != swlb_core::boundary::NodeKind::Fluid {
                continue;
            }
            assert!((ra[i] - rb[i]).abs() <= tol, "AA vs AB rho mismatch at {i}");
            assert!(
                (rb[i] - rc[i]).abs() <= tol,
                "restored vs AA rho mismatch at {i}"
            );
        }
    }

    #[test]
    fn capture_restore_resumes_bit_exact() {
        let pool = ThreadPool::new(1);
        let mut a = spec().build(pool.clone(), Recorder::disabled()).unwrap();
        a.run_checked(6, 6).unwrap();
        let ck = a.capture_chunked();
        assert_eq!(ck.step, 6);
        // Keep running the original to step 10.
        a.run_checked(4, 4).unwrap();

        // Fresh solver, restored at step 6, run the same 4 steps.
        let mut b = spec().build(pool, Recorder::disabled()).unwrap();
        b.restore_chunked_state(&ck).unwrap();
        assert_eq!(b.step_count(), 6);
        b.run_checked(4, 4).unwrap();

        let (CaseSolver::D3(sa), CaseSolver::D3(sb)) = (&a, &b) else {
            panic!("expected D3 solvers");
        };
        assert_eq!(sa.state().raw(), sb.state().raw());
    }

    #[test]
    fn capture_chunked_is_the_cell_major_order_of_the_canonical_state() {
        for storage in [StorageScheme::Ab, StorageScheme::Aa] {
            let mut s = CaseSpec { storage, ..spec() }
                .build(ThreadPool::new(1), Recorder::disabled())
                .unwrap();
            s.run_checked(5, 5).unwrap();
            let (ck, snap, dims) = (s.capture_chunked(), s.capture(), s.dims());
            let mut want = Vec::new();
            for y in 0..dims.ny {
                for x in 0..dims.nx {
                    for z in 0..dims.nz {
                        for q in 0..19 {
                            want.push(snap.data[q * dims.cells() + dims.idx(x, y, z)]);
                        }
                    }
                }
            }
            assert_eq!(ck.chunks.len(), 1);
            assert!(ck.chunks[0].data == want, "{storage:?}");
        }
    }

    #[test]
    fn restore_rejects_mismatched_checkpoint() {
        let pool = ThreadPool::new(1);
        let mut solver = spec().build(pool.clone(), Recorder::disabled()).unwrap();
        let mut other = spec();
        other.nx = 10;
        let foreign = other
            .build(pool, Recorder::disabled())
            .unwrap()
            .capture_chunked();
        assert!(matches!(
            solver.restore_chunked_state(&foreign),
            Err(SwlbError::CorruptData(_))
        ));
    }

    #[test]
    fn elastic_width_2_matches_serial_run() {
        // A wide job sweeps on a wider pool; a thread count changes no bit.
        let mut serial = spec()
            .build(ThreadPool::new(1), Recorder::disabled())
            .unwrap();
        serial.run_checked(10, 5).unwrap();

        let mut wide = spec()
            .build_with_width(ThreadPool::new(2), Recorder::disabled(), 2)
            .unwrap();
        wide.run_checked(10, 5).unwrap();
        assert_eq!(wide.step_count(), 10);
        assert_eq!(serial.capture(), wide.capture());
    }

    #[test]
    fn elastic_width_change_mid_run_reshards_transparently() {
        let mut serial = spec()
            .build(ThreadPool::new(1), Recorder::disabled())
            .unwrap();
        serial.run_checked(12, 6).unwrap();

        // Width changes between slices take nothing from the trajectory.
        let mut wide = spec()
            .build_with_width(ThreadPool::new(2), Recorder::disabled(), 3)
            .unwrap();
        wide.run_checked(4, 4).unwrap();
        assert_eq!(wide.set_width(2), 1);
        wide.run_checked(4, 4).unwrap();
        assert_eq!(wide.set_width(1), 1);
        wide.run_checked(4, 4).unwrap();
        assert_eq!(wide.step_count(), 12);
        assert_eq!(serial.capture(), wide.capture());
    }

    #[test]
    fn elastic_poison_trips_divergence_at_slice_boundary() {
        // The fault is reported within `check_every` steps of where it
        // happened, not at the end of the 8-step slice.
        for check_every in [1u64, 3, 8] {
            let mut wide = spec()
                .build_with_width(ThreadPool::new(2), Recorder::disabled(), 2)
                .unwrap();
            wide.run_checked(2, 2).unwrap();
            wide.poison_with_nan();
            assert!(wide.macroscopic().has_non_finite());
            match wide.run_checked(8, check_every) {
                Err(SwlbError::Diverged { step }) => assert_eq!(step, 2 + check_every),
                other => panic!("check_every {check_every}: expected Diverged, got {other:?}"),
            }
            assert_eq!(wide.step_count(), 2 + check_every);
        }
    }

    #[test]
    fn elastic_gathered_views_match_the_serial_solver() {
        let tol = 1e-14_f64.max(swlb_core::simd::dispatch_tolerance() * 100.0);
        for storage in [StorageScheme::Ab, StorageScheme::Aa] {
            // Slices of 3 + 2 steps: the first ends mid-block at depth 2, and
            // the odd total leaves AA at Streamed parity.
            for time_block in [1, 2] {
                let case = CaseSpec {
                    storage,
                    time_block,
                    ..spec()
                };
                let what = format!("{storage:?} k={time_block}");
                let mut serial = case
                    .build(ThreadPool::new(1), Recorder::disabled())
                    .unwrap();
                serial.run_checked(5, 5).unwrap();
                let mut wide = case
                    .build_with_width(ThreadPool::new(2), Recorder::disabled(), 2)
                    .unwrap();
                wide.run_checked(3, 3).unwrap();
                wide.run_checked(2, 2).unwrap();
                let close = |a: &[Scalar], b: &[Scalar], view: &str| {
                    assert_eq!(a.len(), b.len(), "{what}: {view} length");
                    for i in 0..a.len() {
                        assert!(
                            (a[i] - b[i]).abs() <= tol,
                            "{what}: {view}[{i}] serial {} vs wide {}",
                            a[i],
                            b[i]
                        );
                    }
                };
                close(&serial.slice_speed(), &wide.slice_speed(), "slice_speed");
                close(&serial.macroscopic().rho, &wide.macroscopic().rho, "rho");
                // Solid cells hold scheme-dependent leftovers: compare the
                // populations of fluid cells only.
                let (pops, got) = (serial.capture(), wide.capture());
                assert_eq!((got.step, got.dims, got.q), (pops.step, pops.dims, pops.q));
                let cells = serial.dims().cells();
                for cell in (0..cells).filter(|&c| serial.flags().kind(c).is_fluid()) {
                    for q in 0..19 {
                        let (a, b) = (pops.data[q * cells + cell], got.data[q * cells + cell]);
                        assert!((a - b).abs() <= tol, "{what}: capture cell {cell} q {q}");
                    }
                }
            }
        }
    }

    #[test]
    fn poison_trips_divergence_check() {
        let mut solver = spec()
            .build(ThreadPool::new(1), Recorder::disabled())
            .unwrap();
        solver.run_checked(2, 2).unwrap();
        solver.poison_with_nan();
        assert!(solver.macroscopic().has_non_finite());
        assert!(matches!(
            solver.run_checked(2, 1),
            Err(SwlbError::Diverged { .. })
        ));
    }
}
