//! Single-domain solver driver.
//!
//! [`Solver`] owns the population [`Storage`] (an A-B buffer pair or a single
//! AA-pattern grid, per [`StorageScheme`]), the flag field and the collision
//! parameters, and advances the lattice in time through **one unified
//! execution pipeline**: every step is a [`Storage::sweep`] through the
//! [`ThreadPool`], which dispatches the hand-optimized D3Q19 interior kernel
//! per y-slab whenever the field/collision combination supports it and the
//! generic reference kernel everywhere else. What the scheme means — which
//! buffer or step flavor a sweep runs, how the raw grid maps to the canonical
//! state, which depths and flags it admits — is asked of [`Storage`] and
//! [`StorageScheme`]; nothing here matches on the scheme. Thread count and the opt-in z-tile are the pool's
//! configuration ([`ThreadPool::new`], [`ThreadPool::with_tile_z`]), not
//! modes — a 1-thread pool runs inline with no worker threads and identical
//! (bit-exact) results. It is the reference implementation the architecture
//! emulator (`swlb-arch`) is validated against.
//!
//! A distributed rank (`swlb-sim`'s engine) is a `Solver` plus a halo: one
//! over its halo-padded grid, stepped through [`Solver::sweep_rect`] and
//! [`Solver::finish_step`], the body of a depth-1 step here, with the
//! exchange around the sweeps.
//!
//! Construction goes through [`SolverBuilder`] — the single path for dims,
//! collision, storage scheme, thread pool, temporal-blocking depth and
//! observability recorder. The historical `Solver::new` + `with_*` chain and
//! the `ExecMode` selector were removed after every in-tree caller migrated;
//! contradictory settings (e.g. an odd `time_block` under AA storage) are
//! rejected by [`SolverBuilder::try_build`].
//!
//! The scheme-agnostic state surface is [`Solver::state`]/[`Solver::state_mut`]
//! (the raw current grid, whose slot interpretation depends on the scheme and
//! [`Solver::parity`]), [`Solver::storage`] (where each canonical run lives,
//! [`crate::layout::CanonicalRuns`]) and [`Solver::adopt_canonical`] (what was
//! just written into `state_mut` is the canonical state at a step).
//! Checkpoints, [`Solver::macroscopic`] and the divergence check of
//! [`Solver::run_checked`] read the runs in place: only
//! [`Solver::canonical_populations`], for diagnostics and equivalence tests,
//! copies the lattice (under AA, on the solver's pool), and the divergence
//! check allocates nothing.

use crate::collision::{BgkParams, CollisionKind};
use crate::flags::FlagField;
use crate::geometry::GridDims;
use crate::kernels::{initialize_with, InteriorIndex};
use crate::lattice::Lattice;
use crate::layout::{AaParity, PopField, SoaField, Storage, StorageScheme};
use crate::macroscopic::MacroFields;
use crate::parallel::ThreadPool;
use crate::simd::KernelClass;
use crate::Scalar;
use std::borrow::Cow;
use std::marker::PhantomData;
use std::ops::Range;
use swlb_obs::{Counter, Gauge, Phase, Recorder, SwlbError};

/// Summary statistics of one (or the latest) time step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepStats {
    /// Completed time steps since construction.
    pub step: u64,
    /// Total fluid mass.
    pub mass: Scalar,
    /// Maximum velocity magnitude (lattice units) — the Mach monitor.
    pub max_velocity: Scalar,
    /// Total kinetic energy.
    pub kinetic_energy: Scalar,
}

/// The single construction path for [`Solver`]: dims and BGK parameters up
/// front, everything else optional with sensible defaults.
///
/// ```
/// use swlb_core::prelude::*;
///
/// let solver = Solver::<D2Q9>::builder(GridDims::new2d(16, 16), BgkParams::from_tau(0.8))
///     .pool(ThreadPool::new(4))
///     .build();
/// assert_eq!(solver.step_count(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct SolverBuilder<L: Lattice> {
    dims: GridDims,
    collision: CollisionKind,
    storage: StorageScheme,
    pool: Option<ThreadPool>,
    time_block: usize,
    recorder: Recorder,
    _lattice: PhantomData<L>,
}

impl<L: Lattice> SolverBuilder<L> {
    /// Start a builder for a `dims` grid with BGK collision `params`.
    pub fn new(dims: GridDims, params: BgkParams) -> Self {
        SolverBuilder {
            dims,
            collision: CollisionKind::Bgk(params),
            storage: StorageScheme::default(),
            pool: None,
            time_block: 1,
            recorder: Recorder::disabled(),
            _lattice: PhantomData,
        }
    }

    /// Population storage scheme (default [`StorageScheme::Ab`]). `Aa` keeps a
    /// single grid and streams in place — half the distribution-storage
    /// footprint and bytes/LUP — but supports only Fluid/Wall/MovingWall node
    /// kinds (flags are painted after build, so the boundary check happens
    /// lazily: [`Solver::try_step`]/[`Solver::run_checked`] return a typed
    /// error, [`Solver::step`] panics).
    pub fn storage(mut self, scheme: StorageScheme) -> Self {
        self.storage = scheme;
        self
    }

    /// Replace the collision operator (overrides the BGK params given to
    /// [`SolverBuilder::new`]).
    pub fn collision(mut self, collision: CollisionKind) -> Self {
        self.collision = collision;
        self
    }

    /// Thread pool for the unified execution pipeline (default: one thread,
    /// which runs inline with no worker threads). The interior sweep streams
    /// the whole z extent by default; z-tiling is the pool's explicit opt-in
    /// ([`ThreadPool::with_tile_z`]), not a solver setting.
    pub fn pool(mut self, pool: ThreadPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Attach an observability recorder (default: disabled — the instrumented
    /// step path then costs nothing).
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Temporal-blocking depth `k` (default 1 = no blocking): [`Solver::run`]
    /// and [`Solver::run_checked`] then advance `k` steps per cache-resident
    /// wavefront sweep (see [`crate::temporal`]), bit-identical to `k` plain
    /// steps. Under [`StorageScheme::Aa`] the depth must be even so a block
    /// ends at the canonical `Reversed` parity.
    pub fn time_block(mut self, k: usize) -> Self {
        self.time_block = k;
        self
    }

    /// Build the solver, rejecting contradictory settings: a `time_block`
    /// the storage scheme cannot run ([`StorageScheme::check_depth`]).
    pub fn try_build(self) -> Result<Solver<L>, SwlbError> {
        self.storage.check_depth(self.time_block)?;
        let pool = self.pool.unwrap_or_else(|| ThreadPool::new(1));
        let obs_mlups = self.recorder.gauge("mlups");
        let obs_steps = self.recorder.counter("steps");
        let obs_kernel_class = self.recorder.gauge("kernel_class");
        // A 1-thread pool runs inline and keeps no busy clock.
        let obs_pool_busy = if pool.threads() > 1 {
            self.recorder.gauge("pool.busy_share")
        } else {
            Gauge::noop()
        };
        let dims = self.dims;
        Ok(Solver {
            dims,
            flags: FlagField::new(dims),
            storage: Storage::with_scheme(self.storage, || SoaField::new(dims)),
            collision: self.collision,
            pool,
            step: 0,
            time_block: self.time_block,
            interior: None,
            mask_dirty: true,
            active: 0,
            last_class: KernelClass::Generic,
            recorder: self.recorder,
            obs_mlups,
            obs_steps,
            obs_kernel_class,
            obs_pool_busy,
        })
    }

    /// Build the solver (all-fluid periodic flag field; paint boundaries via
    /// [`Solver::flags_mut`] afterwards).
    ///
    /// # Panics
    /// Panics on the configuration contradictions [`SolverBuilder::try_build`]
    /// reports as errors.
    pub fn build(self) -> Solver<L> {
        self.try_build()
            .unwrap_or_else(|e| panic!("invalid solver configuration: {e}"))
    }
}

/// A single-box LBM solver with SoA storage, double-buffered (AB) or
/// single-grid AA-pattern per the builder's [`StorageScheme`].
#[derive(Debug, Clone)]
pub struct Solver<L: Lattice> {
    dims: GridDims,
    flags: FlagField,
    storage: Storage<SoaField<L>>,
    collision: CollisionKind,
    pool: ThreadPool,
    step: u64,
    /// Temporal-blocking depth: [`Solver::run`] advances this many steps per
    /// wavefront sweep (1 = plain per-step execution).
    time_block: usize,
    /// Interior fast-path index (mask + run-length runs), rebuilt lazily when
    /// the flags change.
    interior: Option<InteriorIndex>,
    mask_dirty: bool,
    /// Fluid-cell count, cached alongside the index (MLUPS accounting).
    active: usize,
    /// Which kernel class served the most recent step.
    last_class: KernelClass,
    recorder: Recorder,
    obs_mlups: Gauge,
    obs_steps: Counter,
    obs_kernel_class: Gauge,
    obs_pool_busy: Gauge,
}

impl<L: Lattice> Solver<L> {
    /// Start a [`SolverBuilder`] — the single construction path.
    pub fn builder(dims: GridDims, params: BgkParams) -> SolverBuilder<L> {
        SolverBuilder::new(dims, params)
    }

    /// Grid dimensions.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// Collision configuration.
    pub fn collision(&self) -> &CollisionKind {
        &self.collision
    }

    /// The observability recorder this solver reports into (disabled unless
    /// one was attached at construction).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Completed step count.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// The storage scheme this solver was built with.
    pub fn scheme(&self) -> StorageScheme {
        self.storage.scheme()
    }

    /// AA parity of the current state (`None` under the AB scheme).
    pub fn parity(&self) -> Option<AaParity> {
        self.storage.parity()
    }

    /// Immutable flag field.
    pub fn flags(&self) -> &FlagField {
        &self.flags
    }

    /// Mutable flag field (pre-processing). Invalidates the interior fast-path
    /// mask, which is rebuilt lazily on the next step.
    pub fn flags_mut(&mut self) -> &mut FlagField {
        self.mask_dirty = true;
        &mut self.flags
    }

    /// The raw grid holding the current state. Under AB this is the readable
    /// `src` buffer (canonical post-collision populations); under AA the slot
    /// interpretation depends on [`Solver::parity`] — use
    /// [`Solver::canonical_populations`] for a scheme-portable view.
    pub fn state(&self) -> &SoaField<L> {
        self.storage.state()
    }

    /// Mutable access to the raw current-state grid. Under AA the caller is
    /// responsible for honoring the current [`Solver::parity`] slot
    /// interpretation, or for writing a canonical state and then calling
    /// [`Solver::adopt_canonical`].
    pub fn state_mut(&mut self) -> &mut SoaField<L> {
        self.storage.state_mut()
    }

    /// The population storage, read-only: [`crate::layout::CanonicalRuns::run`]
    /// on it locates any canonical run without a copy.
    pub fn storage(&self) -> &Storage<SoaField<L>> {
        &self.storage
    }

    /// The canonical (AB-ordered) post-collision populations of the current
    /// state: borrowed zero-copy under AB, materialized under AA on the
    /// solver's pool by undoing the slot reversal (`Reversed`) or the
    /// in-place streaming (`Streamed`) — [`Storage::canonical`].
    /// This is the scheme-portable payload checkpoints and diagnostics use.
    /// Solid cells hold scheme-dependent (finite) values.
    pub fn canonical_populations(&self) -> Cow<'_, SoaField<L>> {
        self.storage.canonical(&self.pool)
    }

    /// Adopt what was just written into [`Solver::state_mut`] as the
    /// canonical (AB-ordered) post-collision state at `step` — an
    /// initializer's at 0, a checkpoint's at its step. Under AA the grid is
    /// reversed in place and the parity reset to `Reversed`
    /// ([`Storage::adopt_canonical`]); stats, obs and slice budgets continue
    /// from `step`.
    pub fn adopt_canonical(&mut self, step: u64) {
        self.storage.adopt_canonical();
        self.step = step;
    }

    /// Initialize every non-solid cell to `f_eq(rho, u)` and reset the step count.
    pub fn initialize_uniform(&mut self, rho: Scalar, u: [Scalar; 3]) {
        self.initialize_field(|_, _, _| (rho, u));
    }

    /// Initialize with a position-dependent state on the solver's pool
    /// ([`initialize_with`]) and reset the step count.
    pub fn initialize_field(
        &mut self,
        state: impl Fn(usize, usize, usize) -> (Scalar, [Scalar; 3]) + Sync,
    ) {
        initialize_with::<L, _>(&self.pool, &self.flags, self.storage.state_mut(), state);
        self.adopt_canonical(0);
    }

    fn ensure_interior(&mut self) -> Result<(), SwlbError> {
        if self.mask_dirty {
            self.storage.scheme().check_flags(&self.flags)?;
            self.interior = Some(InteriorIndex::build::<L>(&self.flags));
            self.active = self.flags.census().fluid;
            self.mask_dirty = false;
        }
        Ok(())
    }

    /// The [`KernelClass`] (simd / scalar / generic) that served the interior
    /// cells of the most recent step — also exported as the `kernel_class`
    /// observability gauge.
    pub fn last_kernel_class(&self) -> KernelClass {
        self.last_class
    }

    /// Advance one time step.
    ///
    /// # Panics
    /// Panics when the flag field is incompatible with the storage scheme
    /// (AA + open boundaries) or refused a kind ([`FlagField::check_kinds`])
    /// — use [`Solver::try_step`] or [`Solver::run_checked`] for the typed error.
    pub fn step(&mut self) {
        self.try_step()
            .unwrap_or_else(|e| panic!("solver step failed: {e}"));
    }

    /// Advance one time step, reporting scheme/boundary incompatibilities as a
    /// typed error instead of panicking.
    pub fn try_step(&mut self) -> Result<(), SwlbError> {
        self.sweep(1)
    }

    /// Advance `k` steps through the one execution pipeline — the body under
    /// [`Solver::try_step`] (`k = 1`) and [`Solver::try_block`].
    ///
    /// The pool dispatches the interior loop nest per y-slab where the
    /// field/collision combination allows (SoA + D3Q19 + plain BGK, via the
    /// cached interior index — vectorized when the CPU supports it) and the
    /// generic kernel everywhere else; a 1-thread pool runs inline. Depth 1 is
    /// one whole-grid [`Solver::sweep_rect`], the step body a distributed rank
    /// runs over its rectangles too; a depth-`k` wavefront is `k · ny / by`
    /// narrow ones (`by` = [`crate::temporal::slab_rows`], sized by the cells
    /// in a row), which is a different schedule, so `k = 1` does not go
    /// through [`crate::temporal`].
    fn sweep(&mut self, k: usize) -> Result<(), SwlbError> {
        self.ensure_interior()?;
        if k > 1 && !self.block_ready() {
            return Err(SwlbError::InvalidConfig(
                "an AA temporal block must start at Reversed parity \
                 (even completed step count)"
                    .into(),
            ));
        }
        // `now()` is `None` for a disabled recorder: the instrumented path
        // then takes no clock reading and touches no atomic.
        let t0 = self.recorder.now().map(|t| (t, self.pool.busy_wall_ns()));
        if k == 1 {
            self.sweep_rect(0..self.dims.nx, 0..self.dims.ny)?;
            self.finish_step();
        } else {
            let (pool, flags, interior) = (&self.pool, &self.flags, self.interior.as_ref());
            let storage = &mut self.storage;
            self.last_class =
                crate::temporal::block(pool, flags, storage, &self.collision, interior, k);
            self.step += k as u64;
        }
        if let Some((t0, (busy0, wall0))) = t0 {
            let ns = (t0.elapsed().as_nanos() as u64).max(1);
            self.recorder.record_phase_ns(Phase::CollideStream, ns);
            self.obs_steps.add(k as u64);
            // MLUPS = cells · steps / seconds / 1e6 = cells · steps · 1000 / ns.
            self.obs_mlups
                .set(self.active as f64 * k as f64 * 1e3 / ns as f64);
            self.obs_kernel_class.set(self.last_class.as_gauge());
            // Σ busy / (threads · dispatch wall) over this sweep's dispatches.
            let (busy, wall) = self.pool.busy_wall_ns();
            if wall > wall0 {
                let slots = self.pool.threads() as u64 * (wall - wall0);
                self.obs_pool_busy.set((busy - busy0) as f64 / slots as f64);
            }
        }
        self.recorder.maybe_flush(self.step);
        Ok(())
    }

    /// Sweep the rectangle `xr × yr` (full z) as level 1 of a step through the
    /// pool and the cached interior index, rebuilt first if the flags changed
    /// (refusing flags the scheme cannot stream over; an empty rectangle does
    /// only that). A step is such sweeps over the cells it updates, cut into
    /// rectangles at no cost in bits, then [`Solver::finish_step`]. Records
    /// nothing: the caller times its own phases.
    pub fn sweep_rect(&mut self, xr: Range<usize>, yr: Range<usize>) -> Result<(), SwlbError> {
        self.ensure_interior()?;
        let interior = self.interior.as_ref();
        self.last_class =
            self.storage
                .sweep(&self.pool, &self.flags, &self.collision, interior, 1, xr, yr);
        Ok(())
    }

    /// Complete a step swept by [`Solver::sweep_rect`]: make its output the
    /// current state and count it.
    pub fn finish_step(&mut self) {
        self.storage.advance(1);
        self.step += 1;
    }

    /// The temporal-blocking depth this solver was built with (1 = no
    /// blocking).
    pub fn time_block(&self) -> usize {
        self.time_block
    }

    /// Whether a depth-`time_block` wavefront sweep may start now: always
    /// under AB, and only from the canonical `Reversed` parity under AA (an
    /// even completed step count — blocks both start and end there).
    fn block_ready(&self) -> bool {
        self.time_block > 1 && self.storage.parity() != Some(AaParity::Streamed)
    }

    /// Advance `time_block` steps in one cache-resident wavefront sweep —
    /// bit-identical to that many [`Solver::try_step`] calls, but touching
    /// DRAM roughly once instead of `time_block` times. A plain step when
    /// blocking is disabled.
    pub fn try_block(&mut self) -> Result<(), SwlbError> {
        self.sweep(self.time_block)
    }

    /// Advance by one depth-`time_block` wavefront sweep when a whole block
    /// fits in `remaining` and may start here, else by one plain step;
    /// returns the steps taken. The one block-or-step policy behind
    /// [`Solver::run`] and [`Solver::run_checked`].
    fn advance(&mut self, remaining: u64) -> Result<u64, SwlbError> {
        let k = self.time_block as u64;
        if remaining >= k && self.block_ready() {
            self.try_block()?;
            Ok(k)
        } else {
            self.try_step()?;
            Ok(1)
        }
    }

    /// Advance `n` steps — in depth-`time_block` wavefront sweeps where the
    /// depth divides the remaining count (any remainder runs per-step, with
    /// identical results).
    pub fn run(&mut self, n: u64) {
        let mut done = 0;
        while done < n {
            done += self
                .advance(n - done)
                .unwrap_or_else(|e| panic!("solver step failed: {e}"));
        }
    }

    /// Advance `n` steps, checking for divergence every `check_every` steps
    /// (rounded up to temporal-block boundaries when blocking is on). A check
    /// is [`Storage::fluid_mass`] of the whole grid: NaN as soon as any
    /// non-solid cell holds a non-finite population, read in place with no
    /// allocation.
    pub fn run_checked(&mut self, n: u64, check_every: u64) -> Result<(), SwlbError> {
        let every = check_every.max(1);
        let mut done = 0;
        let mut next_check = every;
        let (xr, yr) = (0..self.dims.nx, 0..self.dims.ny);
        while done < n {
            done += self.advance(n - done)?;
            if done >= next_check || done == n {
                let mass = self.storage.fluid_mass(&self.flags, xr.clone(), yr.clone());
                if !mass.is_finite() {
                    return Err(SwlbError::Diverged { step: self.step });
                }
                while next_check <= done {
                    next_check += every;
                }
            }
        }
        Ok(())
    }

    /// Extract the macroscopic fields of the current state, read in place
    /// from the storage's canonical runs (so AA parity never leaks into
    /// diagnostics, and nothing the size of the lattice is copied).
    pub fn macroscopic(&self) -> MacroFields {
        MacroFields::compute::<L, _>(&self.flags, &self.storage)
    }

    /// Summary statistics of the current state.
    pub fn stats(&self) -> StepStats {
        let m = self.macroscopic();
        StepStats {
            step: self.step,
            mass: m.total_mass(&self.flags),
            max_velocity: m.max_velocity(),
            kinetic_energy: m.kinetic_energy(&self.flags),
        }
    }

    /// Number of fluid cells — the "lattice updates" of GLUPS accounting.
    pub fn active_cells(&self) -> usize {
        self.flags.census().fluid
    }

    /// Million lattice updates per second for a measured wall time per step.
    pub fn mlups(&self, seconds_per_step: f64) -> f64 {
        if seconds_per_step <= 0.0 {
            return 0.0;
        }
        self.active_cells() as f64 / seconds_per_step / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::{D2Q9, D3Q19};
    use swlb_obs::MemorySink;

    #[test]
    fn solver_runs_and_counts_steps() {
        let mut s =
            Solver::<D2Q9>::builder(GridDims::new2d(8, 8), BgkParams::from_tau(0.8)).build();
        s.initialize_uniform(1.0, [0.0; 3]);
        s.run(5);
        assert_eq!(s.step_count(), 5);
        assert!(!s.macroscopic().has_non_finite());
    }

    #[test]
    fn adopt_canonical_resumes_accounting() {
        let mut s =
            Solver::<D2Q9>::builder(GridDims::new2d(8, 8), BgkParams::from_tau(0.8)).build();
        s.initialize_uniform(1.0, [0.0; 3]);
        s.run(3);
        s.adopt_canonical(120);
        s.step();
        assert_eq!(s.step_count(), 121);
        assert_eq!(s.stats().step, 121);
    }

    #[test]
    fn unified_dispatch_agrees_across_pool_configs() {
        // The unified pipeline must agree across thread counts and tile sizes
        // (formerly Serial vs Parallel vs Optimized modes): bit-exact across
        // thread counts (slabs never split a z-pencil), and across tile sizes
        // on the scalar-semantics paths; under the AVX2+FMA lane a tile-size
        // change reshuffles the vector/scalar chunk split, so those
        // comparisons carry the documented 1e-12-per-step tolerance.
        let dims = GridDims::new(8, 8, 8);
        let tau = 0.7;
        let make = |pool: Option<ThreadPool>| {
            let mut b = Solver::<D3Q19>::builder(dims, BgkParams::from_tau(tau));
            if let Some(p) = pool {
                b = b.pool(p);
            }
            let mut s = b.build();
            s.flags_mut().set_box_walls();
            s.flags_mut().paint_lid([0.05, 0.0, 0.0]);
            s.initialize_uniform(1.0, [0.0; 3]);
            s.run(8);
            s
        };
        let a = make(None);
        let b = make(Some(ThreadPool::new(4)));
        let c = make(Some(ThreadPool::new(3).with_tile_z(2)));
        let tol = crate::simd::dispatch_tolerance() * 100.0;
        for cell in 0..dims.cells() {
            for q in 0..19 {
                let va = a.state().get(cell, q);
                assert_eq!(
                    va,
                    b.state().get(cell, q),
                    "4-thread mismatch at cell {cell} q {q}"
                );
                let vc = c.state().get(cell, q);
                assert!(
                    (va - vc).abs() <= tol,
                    "tiled mismatch at cell {cell} q {q}: {va} vs {vc}"
                );
            }
        }
    }

    #[test]
    fn solver_reports_kernel_class() {
        // D3Q19 + BGK takes a fast path (scalar or simd, per host/env);
        // D2Q9 has no fast path and must report Generic.
        let mut s3 =
            Solver::<D3Q19>::builder(GridDims::new(6, 6, 6), BgkParams::from_tau(0.8)).build();
        s3.flags_mut().set_box_walls();
        s3.initialize_uniform(1.0, [0.0; 3]);
        s3.step();
        assert_eq!(s3.last_kernel_class(), crate::simd::selected_kernel_class());
        assert_ne!(s3.last_kernel_class(), KernelClass::Generic);

        let mut s2 =
            Solver::<D2Q9>::builder(GridDims::new2d(8, 8), BgkParams::from_tau(0.8)).build();
        s2.initialize_uniform(1.0, [0.0; 3]);
        s2.step();
        assert_eq!(s2.last_kernel_class(), KernelClass::Generic);

        // The gauge mirrors the accessor when a recorder is attached.
        let rec = Recorder::enabled();
        let mut s = Solver::<D3Q19>::builder(GridDims::new(6, 6, 6), BgkParams::from_tau(0.8))
            .recorder(rec.clone())
            .build();
        s.flags_mut().set_box_walls();
        s.initialize_uniform(1.0, [0.0; 3]);
        s.run(2);
        let snap = rec.snapshot(2).unwrap();
        assert_eq!(
            snap.gauge("kernel_class"),
            Some(s.last_kernel_class().as_gauge())
        );
        // A 1-thread pool keeps no busy clock, so it publishes no share.
        assert_eq!(snap.gauge("pool.busy_share"), None);
    }

    #[test]
    fn pool_busy_share_is_published_per_sweep() {
        for k in [1usize, 2] {
            let rec = Recorder::enabled();
            let mut s = Solver::<D3Q19>::builder(GridDims::new(8, 8, 8), BgkParams::from_tau(0.8))
                .pool(ThreadPool::new(2))
                .time_block(k)
                .recorder(rec.clone())
                .build();
            s.flags_mut().set_box_walls();
            s.initialize_uniform(1.0, [0.0; 3]);
            s.run(4);
            let share = rec.snapshot(4).unwrap().gauge("pool.busy_share");
            assert!(
                share.is_some_and(|v| 0.0 < v && v <= 1.0),
                "k={k}: {share:?}"
            );
        }
    }

    #[test]
    fn temporal_block_is_bit_identical_to_plain_steps() {
        // The wavefront sweep is a pure reordering of the same per-cell
        // updates: depth-k runs must equal the per-step run bit-for-bit, on
        // every lane, for both storage schemes, across thread counts — and
        // for step counts that are not multiples of k (remainder per-step).
        let dims = GridDims::new(9, 11, 8);
        let run = |scheme: StorageScheme, k: usize, threads: usize, steps: u64| {
            let mut s = Solver::<D3Q19>::builder(dims, BgkParams::from_tau(0.7))
                .storage(scheme)
                .time_block(k)
                .pool(ThreadPool::new(threads))
                .build();
            s.flags_mut().set_box_walls();
            s.flags_mut().paint_lid([0.05, 0.0, 0.0]);
            s.initialize_uniform(1.0, [0.0; 3]);
            s.run(steps);
            assert_eq!(s.step_count(), steps);
            s
        };
        for steps in [8u64, 7] {
            let ab_ref = run(StorageScheme::Ab, 1, 1, steps);
            for k in [2usize, 3, 4] {
                for threads in [1usize, 3] {
                    let blocked = run(StorageScheme::Ab, k, threads, steps);
                    assert_canonical_match(&ab_ref, &blocked, 0.0, "ab-blocked");
                }
            }
            let aa_ref = run(StorageScheme::Aa, 1, 1, steps);
            for k in [2usize, 4] {
                for threads in [1usize, 3] {
                    let blocked = run(StorageScheme::Aa, k, threads, steps);
                    assert_canonical_match(&aa_ref, &blocked, 0.0, "aa-blocked");
                }
            }
        }
    }

    #[test]
    fn pooled_wavefront_of_tall_dispatches_is_bit_identical_to_plain_steps() {
        // On the small grids above a pool's wavefront is one slab, i.e. plain
        // steps in sequence. Rows of 16384 cells make `slab_rows` 16 (two
        // threads) and 24 (three): several slabs in flight, each dispatch
        // taller than the thread count and cut into one-row slabs to steal.
        let dims = GridDims::new2d(16384, 96);
        let run = |scheme: StorageScheme, k: usize, threads: usize, steps: u64| {
            let pool = ThreadPool::new(threads);
            let by = crate::temporal::slab_rows(&pool, dims);
            assert!(threads == 1 || (by > threads && dims.ny.div_ceil(by) >= 4));
            let mut s = Solver::<D2Q9>::builder(dims, BgkParams::from_tau(0.8))
                .storage(scheme)
                .time_block(k)
                .pool(pool)
                .build();
            s.flags_mut().set_box_walls();
            s.flags_mut().paint_lid([0.05, 0.0, 0.0]);
            s.initialize_field(|x, y, _| {
                let v = 0.01 * ((x * 5 + y * 3) % 7) as Scalar;
                (1.0 + v, [v, -v, 0.0])
            });
            s.run(steps);
            s.canonical_populations().into_owned()
        };
        for (scheme, ks, steps) in [
            (StorageScheme::Ab, &[3usize][..], 3u64),
            (StorageScheme::Aa, &[2, 4][..], 4),
        ] {
            let plain = run(scheme, 1, 1, steps);
            for (&k, threads) in ks.iter().flat_map(|k| [(k, 2usize), (k, 3)]) {
                let blocked = run(scheme, k, threads, steps);
                assert!(
                    plain.raw() == blocked.raw(),
                    "{scheme:?} k={k} threads={threads} diverged from plain steps"
                );
            }
        }
    }

    #[test]
    fn temporal_block_handles_periodic_and_generic_paths() {
        // Fully periodic box (wavefront wrap in y) and a D2Q9 generic-path
        // lattice: both must stay bit-identical to per-step runs.
        let dims3 = GridDims::new(6, 7, 5);
        let run3 = |k: usize| {
            let mut s = Solver::<D3Q19>::builder(dims3, BgkParams::from_tau(0.8))
                .time_block(k)
                .build();
            s.initialize_field(|x, y, z| {
                let v = 0.01 * ((x * 5 + y * 3 + z) % 7) as Scalar;
                (1.0 + v, [v, -v, 0.5 * v])
            });
            s.run(6);
            s
        };
        let (a, b) = (run3(1), run3(3));
        assert_canonical_match(&a, &b, 0.0, "periodic-3d");

        let dims2 = GridDims::new2d(12, 9);
        let run2 = |k: usize| {
            let mut s = Solver::<D2Q9>::builder(dims2, BgkParams::from_tau(0.9))
                .time_block(k)
                .build();
            s.flags_mut().set_box_walls();
            s.flags_mut().paint_lid([0.04, 0.0, 0.0]);
            s.initialize_uniform(1.0, [0.0; 3]);
            s.run(4);
            assert_eq!(s.last_kernel_class(), KernelClass::Generic);
            s
        };
        let (a, b) = (run2(1), run2(4));
        assert_canonical_match(&a, &b, 0.0, "generic-d2q9");
    }

    #[test]
    fn builder_rejects_bad_time_block() {
        let dims = GridDims::new2d(8, 8);
        let err = Solver::<D2Q9>::builder(dims, BgkParams::from_tau(0.8))
            .time_block(0)
            .try_build()
            .unwrap_err();
        assert!(matches!(err, SwlbError::InvalidConfig(_)), "{err}");
        // AA needs an even depth (a block must end at Reversed parity).
        let err = Solver::<D2Q9>::builder(dims, BgkParams::from_tau(0.8))
            .storage(StorageScheme::Aa)
            .time_block(3)
            .try_build()
            .unwrap_err();
        assert!(matches!(err, SwlbError::InvalidConfig(_)), "{err}");
        // Even AA depths and any AB depth are fine.
        assert!(Solver::<D2Q9>::builder(dims, BgkParams::from_tau(0.8))
            .storage(StorageScheme::Aa)
            .time_block(4)
            .try_build()
            .is_ok());
        assert!(Solver::<D2Q9>::builder(dims, BgkParams::from_tau(0.8))
            .time_block(5)
            .try_build()
            .is_ok());
    }

    #[test]
    fn mass_is_conserved_in_sealed_cavity() {
        let mut s =
            Solver::<D2Q9>::builder(GridDims::new2d(12, 12), BgkParams::from_tau(0.9)).build();
        s.flags_mut().set_box_walls();
        s.flags_mut().paint_lid([0.08, 0.0, 0.0]);
        s.initialize_uniform(1.0, [0.0; 3]);
        let m0 = s.stats().mass;
        s.run(50);
        let m1 = s.stats().mass;
        assert!((m0 - m1).abs() / m0 < 1e-12, "mass drift: {m0} → {m1}");
    }

    #[test]
    fn run_checked_reports_divergence() {
        // Force instability: tau barely above 0.5 with a violent lid.
        let mut s =
            Solver::<D2Q9>::builder(GridDims::new2d(16, 16), BgkParams::from_tau(0.501)).build();
        s.flags_mut().set_box_walls();
        s.flags_mut().paint_lid([0.8, 0.0, 0.0]); // wildly super-stable limit
        s.initialize_uniform(1.0, [0.0; 3]);
        let r = s.run_checked(2000, 10);
        match r {
            Err(SwlbError::Diverged { step }) => assert!(step > 0),
            Ok(()) => {
                // Some parameter sets survive; the stats must then be finite.
                assert!(!s.macroscopic().has_non_finite());
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn run_checked_trips_on_a_planted_non_finite_at_the_next_check() {
        // NaN, then +Inf, in a fluid cell under AB and under AA at both
        // parities, and in an inflow cell of an AB channel: the first check
        // after the plant reports it, two steps on.
        for poison in [Scalar::NAN, Scalar::INFINITY] {
            for (scheme, before, channel) in [
                (StorageScheme::Ab, 2, false),
                (StorageScheme::Aa, 2, false),
                (StorageScheme::Aa, 3, false),
                (StorageScheme::Ab, 2, true),
            ] {
                let mut s =
                    Solver::<D3Q19>::builder(GridDims::new(10, 8, 6), BgkParams::from_tau(0.8))
                        .storage(scheme)
                        .build();
                let at = if channel {
                    s.flags_mut().paint_channel_walls_y();
                    s.flags_mut().paint_inflow_outflow_x(1.0, [0.03, 0.0, 0.0]);
                    [0, 3, 2]
                } else {
                    s.flags_mut().set_box_walls();
                    s.flags_mut().paint_lid([0.05, 0.0, 0.0]);
                    [4, 3, 2]
                };
                s.initialize_uniform(1.0, [0.0; 3]);
                s.run(before);
                let cell = s.dims().idx(at[0], at[1], at[2]);
                for q in 0..19 {
                    s.state_mut().set(cell, q, poison);
                }
                let what = format!("{poison} at {at:?}, {scheme:?} after {before} steps");
                match s.run_checked(6, 2) {
                    Err(SwlbError::Diverged { step }) => assert_eq!(step, before + 2, "{what}"),
                    other => panic!("{what}: expected Diverged, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn flags_mut_invalidates_fast_path_mask() {
        let dims = GridDims::new(8, 8, 8);
        let build = || Solver::<D3Q19>::builder(dims, BgkParams::from_tau(0.8)).build();
        let mut s = build();
        s.flags_mut().set_box_walls();
        // Off rest everywhere: at rest a wall streamed as fluid leaves the
        // bits as they are.
        s.initialize_field(|x, y, z| {
            let rho = 1.0 + 1e-3 * ((7 * x + 3 * y + z) % 5) as f64;
            (rho, [0.02 * (y as f64 - 3.5) / 3.5, 0.01 * ((x + z) % 3) as f64, -0.01])
        });
        s.run(2);
        // Drop an obstacle into the interior and keep running: the run must
        // match a solver built with the obstacle and handed the same state,
        // which a stale mask would stream as fluid.
        s.flags_mut().set(3, 3, 3, crate::boundary::NodeKind::Wall);
        let mut fresh = build();
        *fresh.flags_mut() = s.flags().clone();
        *fresh.state_mut() = s.state().clone();
        s.run(2);
        fresh.run(2);
        for c in 0..dims.cells() {
            for q in 0..D3Q19::Q {
                let (a, b) = (s.state().get(c, q), fresh.state().get(c, q));
                assert_eq!(a.to_bits(), b.to_bits(), "cell {c} q {q}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn solver_runs_mrt_and_matches_bgk_limit() {
        // Through the full Solver driver: MRT with equal rates equals BGK.
        let dims = GridDims::new(6, 6, 6);
        let tau = 0.8;
        let run = |coll: CollisionKind| {
            let mut s = Solver::<D3Q19>::builder(dims, BgkParams::from_tau(tau))
                .collision(coll)
                .build();
            s.flags_mut().set_box_walls();
            s.flags_mut().paint_lid([0.04, 0.0, 0.0]);
            s.initialize_uniform(1.0, [0.0; 3]);
            s.run(6);
            s.state().clone()
        };
        let bgk = run(CollisionKind::Bgk(BgkParams::from_tau(tau)));
        let mrt = run(CollisionKind::MrtD3Q19(crate::mrt::MrtParams::bgk_limit(
            tau,
        )));
        for c in 0..dims.cells() {
            for q in 0..19 {
                assert!(
                    (bgk.get(c, q) - mrt.get(c, q)).abs() < 1e-12,
                    "cell {c} q {q}"
                );
            }
        }
    }

    #[test]
    fn parallel_solver_handles_nebb_boundaries() {
        let dims = GridDims::new(10, 8, 3);
        let make = |pool: ThreadPool| {
            let mut s = Solver::<D3Q19>::builder(dims, BgkParams::from_tau(0.9))
                .pool(pool)
                .build();
            s.flags_mut().paint_channel_walls_y();
            s.flags_mut()
                .paint_nebb_inflow_outflow_x([0.03, 0.0, 0.0], 1.0);
            s.initialize_uniform(1.0, [0.03, 0.0, 0.0]);
            s.run(5);
            s.state().clone()
        };
        let serial = make(ThreadPool::new(1));
        let pooled = make(ThreadPool::new(3));
        let tiled = make(ThreadPool::new(3).with_tile_z(1));
        // serial vs pooled share the default tile ⇒ bit-exact on every path;
        // the tiled run differs under the AVX2 lane's chunk reshuffle only.
        let tol = crate::simd::dispatch_tolerance() * 100.0;
        for c in 0..dims.cells() {
            for q in 0..19 {
                assert_eq!(serial.get(c, q), pooled.get(c, q), "pooled c{c} q{q}");
                let (s, t) = (serial.get(c, q), tiled.get(c, q));
                assert!((s - t).abs() <= tol, "tiled c{c} q{q}: {s} vs {t}");
            }
        }
    }

    #[test]
    fn forced_collision_through_solver_accelerates_periodic_flow() {
        // A periodic box under constant force gains momentum every step
        // (F per fluid cell), visible through the Solver stats.
        let dims = GridDims::new2d(6, 6);
        let params = BgkParams::from_tau(0.8);
        let fx = 1e-4;
        let mut s = Solver::<D2Q9>::builder(dims, params)
            .collision(CollisionKind::BgkForced {
                params,
                force: [fx, 0.0, 0.0],
            })
            .build();
        s.initialize_uniform(1.0, [0.0; 3]);
        let flags = s.flags().clone();
        s.run(10);
        let m = s.macroscopic().total_momentum(&flags);
        let expect = fx * dims.cells() as Scalar * 10.0;
        assert!(
            (m[0] - expect).abs() / expect < 1e-9,
            "momentum {} vs forced impulse {expect}",
            m[0]
        );
    }

    #[test]
    fn mlups_accounting() {
        let mut s =
            Solver::<D2Q9>::builder(GridDims::new2d(10, 10), BgkParams::from_tau(0.8)).build();
        s.flags_mut().set_box_walls();
        let fluid = s.active_cells();
        assert_eq!(fluid, 8 * 8);
        assert!((s.mlups(1.0) - fluid as f64 / 1e6).abs() < 1e-12);
        assert_eq!(s.mlups(0.0), 0.0);
    }

    #[test]
    fn recorder_observes_steps_phases_and_mlups() {
        let rec = Recorder::enabled();
        let (sink, log) = MemorySink::new();
        rec.add_sink(Box::new(sink));
        rec.set_flush_every(4);
        let mut s = Solver::<D2Q9>::builder(GridDims::new2d(16, 16), BgkParams::from_tau(0.8))
            .recorder(rec.clone())
            .build();
        s.flags_mut().set_box_walls();
        s.flags_mut().paint_lid([0.05, 0.0, 0.0]);
        s.initialize_uniform(1.0, [0.0; 3]);
        s.run(8);
        let snap = rec.snapshot(8).unwrap();
        assert_eq!(snap.counter("steps"), Some(8));
        assert!(
            snap.phase_ns(Phase::CollideStream) > 0,
            "phase timer must accumulate"
        );
        assert!(
            snap.gauge("mlups").unwrap() > 0.0,
            "MLUPS gauge must be set"
        );
        // Auto-flush fired at steps 4 and 8.
        assert_eq!(log.lock().unwrap().len(), 2);
    }

    /// Lid-driven cavity under AA storage must match AB — the canonical view
    /// is compared on non-solid cells only (solid slots are AA mailboxes).
    fn assert_canonical_match<L: Lattice>(a: &Solver<L>, b: &Solver<L>, tol: f64, what: &str) {
        let ca = a.canonical_populations();
        let cb = b.canonical_populations();
        let dims = a.dims();
        for cell in 0..dims.cells() {
            if !a.flags().kind(cell).is_fluid() {
                continue;
            }
            for q in 0..L::Q {
                let (va, vb) = (ca.get(cell, q), cb.get(cell, q));
                assert!(
                    (va - vb).abs() <= tol,
                    "{what}: cell {cell} q {q}: {va} vs {vb}"
                );
            }
        }
    }

    #[test]
    fn aa_matches_ab_in_lid_driven_cavity() {
        let dims = GridDims::new(10, 9, 8);
        let make = |scheme: StorageScheme, threads: usize, steps: u64| {
            let mut s = Solver::<D3Q19>::builder(dims, BgkParams::from_tau(0.7))
                .storage(scheme)
                .pool(ThreadPool::new(threads))
                .build();
            s.flags_mut().set_box_walls();
            s.flags_mut().paint_lid([0.05, 0.0, 0.0]);
            s.initialize_uniform(1.0, [0.0; 3]);
            s.run(steps);
            s
        };
        // Odd and even step counts exercise both mid-parity canonicalizations.
        for steps in [5u64, 6] {
            let ab = make(StorageScheme::Ab, 1, steps);
            let aa = make(StorageScheme::Aa, 1, steps);
            assert_eq!(aa.scheme(), StorageScheme::Aa);
            let want = if steps % 2 == 1 {
                AaParity::Streamed
            } else {
                AaParity::Reversed
            };
            assert_eq!(aa.parity(), Some(want));
            assert_canonical_match(&ab, &aa, crate::simd::dispatch_tolerance() * 100.0, "1T");
            // Thread count must not change AA results (slot ownership).
            let aa4 = make(StorageScheme::Aa, 4, steps);
            assert_canonical_match(&aa, &aa4, 0.0, "4T");
        }
    }

    #[test]
    fn aa_rejects_open_boundaries_with_typed_error() {
        let mut s = Solver::<D3Q19>::builder(GridDims::new(10, 8, 6), BgkParams::from_tau(0.9))
            .storage(StorageScheme::Aa)
            .build();
        s.flags_mut().paint_channel_walls_y();
        s.flags_mut()
            .paint_nebb_inflow_outflow_x([0.03, 0.0, 0.0], 1.0);
        s.initialize_uniform(1.0, [0.0; 3]);
        let err = s.try_step().unwrap_err();
        assert!(matches!(err, SwlbError::InvalidConfig(_)), "{err}");
        // run_checked surfaces the same typed error.
        let err = s.run_checked(3, 1).unwrap_err();
        assert!(matches!(err, SwlbError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn aa_canonical_roundtrip_mid_parity() {
        // Save the canonical state mid-AA-parity (after an odd step), restore
        // into a fresh AA solver, continue, and compare against the
        // uninterrupted run — and against AB restored from the same payload.
        let dims = GridDims::new(8, 8, 8);
        let build = |scheme| {
            let mut s = Solver::<D3Q19>::builder(dims, BgkParams::from_tau(0.8))
                .storage(scheme)
                .build();
            s.flags_mut().set_box_walls();
            s.flags_mut().paint_lid([0.04, 0.0, 0.0]);
            s
        };
        let mut full = build(StorageScheme::Aa);
        full.initialize_uniform(1.0, [0.0; 3]);
        full.run(3); // odd count ⇒ Streamed parity at save time
        let saved = full.canonical_populations().into_owned();
        let saved_step = full.step_count();
        full.run(4);

        let restore = |s: &mut Solver<D3Q19>| {
            s.state_mut().raw_mut().copy_from_slice(saved.raw());
            s.adopt_canonical(saved_step);
        };
        let mut resumed = build(StorageScheme::Aa);
        restore(&mut resumed);
        assert_eq!(resumed.parity(), Some(AaParity::Reversed));
        assert_eq!(resumed.step_count(), 3);
        resumed.run(4);
        assert_canonical_match(&full, &resumed, 0.0, "aa-resume");

        let mut ab = build(StorageScheme::Ab);
        restore(&mut ab);
        ab.run(4);
        assert_canonical_match(
            &ab,
            &resumed,
            crate::simd::dispatch_tolerance() * 100.0,
            "ab-resume",
        );
    }

    #[test]
    fn aa_generic_lattice_and_collision_fall_back() {
        // D2Q9 (no fast path) and MRT (generic collision) both run under AA
        // and agree with their AB twins.
        let dims = GridDims::new2d(10, 10);
        let run = |scheme| {
            let mut s = Solver::<D2Q9>::builder(dims, BgkParams::from_tau(0.8))
                .storage(scheme)
                .build();
            s.flags_mut().set_box_walls();
            s.flags_mut().paint_lid([0.05, 0.0, 0.0]);
            s.initialize_uniform(1.0, [0.0; 3]);
            s.run(7);
            assert_eq!(s.last_kernel_class(), KernelClass::Generic);
            s
        };
        let ab = run(StorageScheme::Ab);
        let aa = run(StorageScheme::Aa);
        assert_canonical_match(&ab, &aa, 0.0, "d2q9");
    }
}
