//! Reusable case construction: one validated description of "a simulation"
//! that front-ends can build solvers from.
//!
//! The `swlb` CLI historically inlined its case setup (paint walls, paint lid,
//! initialize, run); the serving layer (`swlb-serve`) needs the same setups
//! driven programmatically — build a solver from a job's spec, slice it, drop
//! it on preemption, and rebuild it later from a checkpoint. [`CaseSpec`] is
//! that description and [`CaseSolver`] the lattice-erased solver it builds:
//! the enum closes over the lattice type parameter so a scheduler can hold
//! jobs of mixed lattices in one queue.

use crate::engine::{scheme_byte, soa_from_chunked, DistributedSolver, ExchangeMode};
use crate::partition::Partition2d;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::cell::Cell;
use std::sync::Arc;
use std::thread::JoinHandle;
use swlb_comm::{Comm, World};
use swlb_core::collision::{BgkParams, CollisionKind};
use swlb_core::flags::FlagField;
use swlb_core::geometry::GridDims;
use swlb_core::lattice::{Lattice, D2Q9, D3Q19};
use swlb_core::layout::{PopField, StorageScheme};
use swlb_core::parallel::ThreadPool;
use swlb_core::simd::KernelClass;
use swlb_core::solver::{Solver, StepStats};
use swlb_core::Scalar;
use swlb_io::chunked::wire_from_soa;
use swlb_io::{Checkpoint, CheckpointChunk, ChunkedCheckpoint};
use swlb_obs::{Counter, Recorder, SwlbError};

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
    /// Taylor–Green vortex: fully periodic decaying vortices.
    TaylorGreen,
}

impl CaseKind {
    /// Canonical lowercase name (wire format).
    pub fn name(self) -> &'static str {
        match self {
            CaseKind::Cavity => "cavity",
            CaseKind::Channel => "channel",
            CaseKind::TaylorGreen => "taylor-green",
        }
    }

    /// Parse the wire name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "cavity" => Some(CaseKind::Cavity),
            "channel" => Some(CaseKind::Channel),
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
    /// [`CaseKind::Channel`] (inflow/outflow) must run under AB.
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

    /// Validate physics and admission bounds without building anything.
    pub fn validate(&self) -> Result<(), SwlbError> {
        BgkParams::try_from_tau(self.tau)?;
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
        Ok(())
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

    /// Build like [`CaseSpec::build`], but as an [`ElasticSolver`] when
    /// `width > 1`: the state lives on a resident `width`-rank in-process
    /// world. Jobs built with `width <= 1` stay plain serial solvers (and
    /// ignore later width changes).
    pub fn build_with_width(
        &self,
        pool: ThreadPool,
        recorder: Recorder,
        width: u32,
    ) -> Result<CaseSolver, SwlbError> {
        if width <= 1 {
            return self.build(pool, recorder);
        }
        let elastic = ElasticSolver::new(self.clone(), pool, recorder, width)?;
        Ok(CaseSolver::Elastic(Box::new(elastic)))
    }

    /// Paint this case's boundary recipe onto a global flag field: the serial
    /// solver's own, or the one a rank world carves its local flags out of.
    pub fn paint_flags(&self, flags: &mut FlagField) {
        let u = self.u_lattice;
        match self.case {
            CaseKind::Cavity => {
                flags.set_box_walls();
                flags.paint_lid([u, 0.0, 0.0]);
            }
            CaseKind::Channel => {
                flags.paint_channel_walls_y();
                flags.paint_inflow_outflow_x(1.0, [u, 0.0, 0.0]);
            }
            CaseKind::TaylorGreen => {} // fully periodic
        }
    }

    /// This case's initial `(rho, u)` at a *global* cell: what the serial
    /// solver and every rank of a world initialize from, so both start from
    /// the same field whatever the partition.
    pub fn initial_state(&self, x: usize, y: usize, _z: usize) -> (Scalar, [Scalar; 3]) {
        let u = self.u_lattice;
        match self.case {
            CaseKind::Cavity => (1.0, [0.0; 3]),
            CaseKind::Channel => (1.0, [u, 0.0, 0.0]),
            CaseKind::TaylorGreen => {
                let k = std::f64::consts::TAU / self.nx as Scalar;
                let (xs, ys) = (x as Scalar * k, y as Scalar * k);
                (
                    1.0 - 0.75 * u * u * ((2.0 * xs).cos() + (2.0 * ys).cos()),
                    [u * xs.sin() * ys.cos(), -u * xs.cos() * ys.sin(), 0.0],
                )
            }
        }
    }
}

/// A case solver whose state lives on a **resident rank world**: `width`
/// rank threads spawned once per (job, width), each owning its `Comm` and its
/// [`DistributedSolver`] for as long as the width lasts. Consecutive slices
/// at one width touch no whole-lattice buffer. The rank-count-independent
/// chunked form of the state exists only when somebody asks for it (preempt,
/// periodic checkpoint, handoff) and while the width changes; macroscopics
/// and outputs are gathered from the ranks, never assembled from
/// populations.
pub struct ElasticSolver {
    setup: RankSetup,
    /// Fluid cells of the global flag field (MLUPS accounting).
    active: usize,
    /// The requested width. `world` catches up lazily: at the next slice
    /// (carrying the state across) or the next restore (which replaces it).
    width: u32,
    world: RankWorld,
    step: u64,
    last_class: KernelClass,
    obs_world_builds: Counter,
    obs_captures: Counter,
}

impl ElasticSolver {
    /// Spawn a `width`-rank world (clamped to ≥ 1) whose ranks initialize
    /// their own share of `spec`'s initial state: the global lattice is never
    /// built in one place.
    pub fn new(
        spec: CaseSpec,
        pool: ThreadPool,
        recorder: Recorder,
        width: u32,
    ) -> Result<Self, SwlbError> {
        spec.validate()?;
        let mut flags = FlagField::new(spec.dims());
        spec.paint_flags(&mut flags);
        let width = width.max(1);
        let obs_world_builds = recorder.counter("elastic.world_builds");
        let obs_captures = recorder.counter("elastic.captures");
        let active = flags.census().fluid;
        let setup = RankSetup {
            spec,
            flags: Arc::new(flags),
            recorder,
            pool,
        };
        let world = RankWorld::spawn(&setup, width as usize)?;
        obs_world_builds.inc();
        let mut elastic = ElasticSolver {
            setup,
            active,
            width,
            world,
            step: 0,
            last_class: KernelClass::Generic,
            obs_world_builds,
            obs_captures,
        };
        elastic.advance(|_| Ok(Cmd::Initialize))?;
        Ok(elastic)
    }

    /// Current execution width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Change the execution width (the re-shard); returns the previous
    /// width. Lazy: the resident world is rebuilt at the next slice or the
    /// next restore, whichever comes first.
    pub fn set_width(&mut self, width: u32) -> u32 {
        std::mem::replace(&mut self.width, width.max(1))
    }

    fn width_pending(&self) -> bool {
        self.width as usize != self.world.links.len()
    }

    /// Join the current world, then spawn one at the requested width. The old
    /// world goes first so two copies of the state never coexist.
    fn rebuild_world(&mut self) -> Result<(), SwlbError> {
        self.world.stop();
        self.world = RankWorld::spawn(&self.setup, self.width as usize)?;
        self.obs_world_builds.inc();
        Ok(())
    }

    /// One state-changing round; every rank ends on the same step.
    fn advance(
        &mut self,
        cmd: impl FnMut(usize) -> Result<Cmd, SwlbError>,
    ) -> Result<(), SwlbError> {
        match self.world.call(cmd)?.swap_remove(0) {
            Reply::At { step, class } => {
                (self.step, self.last_class) = (step, class);
                Ok(())
            }
            _ => unreachable!("ranks answer a state change with their position"),
        }
    }

    /// Run `n` steps in pieces of `check_every`, each followed by the per-rank
    /// finite check, so a fault is reported within `check_every` steps of
    /// where it happened — the serial solver's contract.
    fn run_checked(&mut self, n: u64, check_every: u64) -> Result<(), SwlbError> {
        if self.width_pending() {
            let state = self.try_capture_chunked()?;
            self.rebuild_world()?;
            self.restore_chunked(&state)?;
        }
        let every = check_every.max(1);
        let mut left = n;
        while left > 0 {
            let piece = left.min(every);
            self.advance(|_| Ok(Cmd::Run(piece)))?;
            if self.try_has_non_finite()? {
                return Err(SwlbError::Diverged { step: self.step });
            }
            left -= piece;
        }
        Ok(())
    }

    /// Re-shard `ck` onto the world: the driver cuts each rank's owned
    /// rectangle out of whichever chunks overlap it, the ranks unpack in
    /// parallel. A pending width is applied first, *without* capturing the
    /// state about to be overwritten.
    fn restore_chunked(&mut self, ck: &ChunkedCheckpoint) -> Result<(), SwlbError> {
        if self.width_pending() {
            self.rebuild_world()?;
        }
        let part = self.world.part;
        self.advance(|rank| {
            let ((x0, lnx), (y0, lny)) = part.owned(rank);
            Ok(Cmd::Restore {
                payload: ck.extract_rect(x0, y0, lnx, lny)?,
                step: ck.step,
            })
        })
    }

    /// One chunk per rank, tagged with its global rectangle.
    fn try_capture_chunked(&self) -> Result<ChunkedCheckpoint, SwlbError> {
        self.obs_captures.inc();
        let part = self.world.part;
        let chunks = self
            .world
            .gather(|| Cmd::PackOwned)?
            .into_iter()
            .enumerate()
            .map(|(rank, data)| CheckpointChunk {
                meta: part.chunk_meta(rank),
                data,
            })
            .collect();
        Ok(ChunkedCheckpoint {
            step: self.step,
            dims: extent(self.setup.spec.dims()),
            q: self.setup.spec.lattice.q(),
            scheme: scheme_byte(self.setup.spec.storage),
            chunks,
        })
    }

    /// One flag per rank, OR-reduced.
    fn try_has_non_finite(&self) -> Result<bool, SwlbError> {
        let flags = self.world.gather(|| Cmd::NonFinite)?;
        Ok(flags.iter().any(|f| f[0] != 0.0))
    }

    /// Scatter per-rank blocks of `nz`-deep columns (wire order y → x → z)
    /// into one global y → x → z array.
    fn assemble(&self, blocks: Vec<Vec<Scalar>>, nz: usize) -> Vec<Scalar> {
        let nx = self.setup.spec.dims().nx;
        let mut out = vec![0.0; nx * self.setup.spec.dims().ny * nz];
        for (rank, block) in blocks.iter().enumerate() {
            let ((x0, lnx), (y0, lny)) = self.world.part.owned(rank);
            let mut columns = block.chunks_exact(nz);
            for y in y0..y0 + lny {
                for x in x0..x0 + lnx {
                    let at = (y * nx + x) * nz;
                    out[at..at + nz]
                        .copy_from_slice(columns.next().expect("one column per owned cell"));
                }
            }
        }
        out
    }

    /// The `&self` views of [`CaseSolver`] have no error channel. A gather
    /// can only fail once a rank has died — which the fallible call that was
    /// in flight has already reported — so failing here is a caller bug.
    fn view<T>(&self, what: &str, got: Result<T, SwlbError>) -> T {
        got.unwrap_or_else(|e| panic!("elastic {what} on a failed rank world: {e}"))
    }
}

/// Grid dims as checkpoints record them.
fn extent(dims: GridDims) -> (u32, u32, u32) {
    (dims.nx as u32, dims.ny as u32, dims.nz as u32)
}

/// What every rank of a job's worlds is built from.
#[derive(Clone)]
struct RankSetup {
    spec: CaseSpec,
    /// The global painted flag field every world is carved from.
    flags: Arc<FlagField>,
    /// The job's recorder, shared by every rank so the `halo.messages` /
    /// `halo.bytes` counters accumulate job-wide totals.
    recorder: Recorder,
    /// The job's shared pool: a world of one sweeps on it, wider worlds run
    /// one thread per rank.
    pool: ThreadPool,
}

/// The collective commands of a world: the driver sends one to every rank
/// and every rank answers.
enum Cmd {
    /// Initialize from [`CaseSpec::initial_state`].
    Initialize,
    /// Advance `n` steps (the only command that communicates).
    Run(u64),
    /// Land this rank's owned rectangle of a checkpoint and resume at `step`.
    Restore { payload: Vec<Scalar>, step: u64 },
    /// Set one population of the global cell `(x, y, z)` to NaN.
    Poison([usize; 3]),
    /// `[1.0]` if any owned density or velocity is NaN/Inf, else `[0.0]`.
    NonFinite,
    /// Speed magnitude of the owned z = 0 plane.
    SpeedPlane,
    /// Density of the owned block.
    Rho,
    /// `[mass, max |u|², kinetic energy]` of the owned block.
    Stats,
    /// Canonical populations of the owned block (one checkpoint chunk).
    PackOwned,
}

enum Reply {
    /// Where the rank stands after a state change.
    At { step: u64, class: KernelClass },
    /// The values a read-only command asked for, in chunk wire order.
    Values(Vec<Scalar>),
}

type RankResult = Result<Reply, SwlbError>;

/// The driver's end of one rank.
struct RankLink {
    cmds: Sender<Cmd>,
    replies: Receiver<RankResult>,
}

/// A set of resident rank threads and the channels that drive them.
struct RankWorld {
    links: Vec<RankLink>,
    handles: Vec<JoinHandle<()>>,
    part: Partition2d,
    /// A rank failed: the ranks no longer agree on anything, every further
    /// round is refused. A `Cell` also keeps the world `!Sync`: rounds go
    /// through `&self`, and two threads interleaving them would cross the
    /// replies.
    dead: Cell<bool>,
}

impl RankWorld {
    /// Spawn `size` rank threads; each builds its own [`DistributedSolver`]
    /// and then serves commands until its command channel closes. A rank
    /// whose build fails leaves the error as its first reply.
    fn spawn(setup: &RankSetup, size: usize) -> Result<Self, SwlbError> {
        let mut world = RankWorld {
            links: Vec::with_capacity(size),
            handles: Vec::with_capacity(size),
            part: Partition2d::new(setup.spec.dims(), size),
            dead: Cell::new(false),
        };
        let links = &mut world.links;
        let rank_body = || {
            let (cmd_tx, cmds) = unbounded();
            let (replies, reply_rx) = unbounded();
            links.push(RankLink {
                cmds: cmd_tx,
                replies: reply_rx,
            });
            let setup = setup.clone();
            move |comm: Comm| match setup.spec.lattice {
                LatticeKind::D2Q9 => rank_main::<D2Q9>(&comm, &setup, &cmds, &replies),
                LatticeKind::D3Q19 => rank_main::<D3Q19>(&comm, &setup, &cmds, &replies),
            }
        };
        // On an OS refusal `world` drops here, which releases and joins the
        // ranks that did start.
        World::new(size)
            .spawn_resident(rank_body, &mut world.handles)
            .map_err(|e| SwlbError::Io(format!("spawn rank thread: {e}")))?;
        Ok(world)
    }

    /// One collective round: every rank gets `cmd(rank)`, every rank answers.
    /// A rank that returned `Err` or panicked (its reply channel disconnects)
    /// fails the round and marks the world dead; its peers leave any halo
    /// wait through their `HaloRetry` deadline.
    fn call(
        &self,
        mut cmd: impl FnMut(usize) -> Result<Cmd, SwlbError>,
    ) -> Result<Vec<Reply>, SwlbError> {
        if self.dead.get() {
            return Err(SwlbError::Disconnected);
        }
        let mut round = || -> Result<Vec<Reply>, SwlbError> {
            for (rank, link) in self.links.iter().enumerate() {
                // A rank that is gone has left its reason on its reply channel.
                let _ = link.cmds.send(cmd(rank)?);
            }
            self.links
                .iter()
                .map(|link| link.replies.recv().unwrap_or(Err(SwlbError::Disconnected)))
                .collect()
        };
        let replies = round();
        if replies.is_err() {
            self.dead.set(true);
        }
        replies
    }

    /// A read-only round: each rank's values, in rank order.
    fn gather(&self, mut cmd: impl FnMut() -> Cmd) -> Result<Vec<Vec<Scalar>>, SwlbError> {
        let replies = self.call(|_| Ok(cmd()))?;
        Ok(replies
            .into_iter()
            .map(|reply| match reply {
                Reply::Values(v) => v,
                Reply::At { .. } => unreachable!("ranks answer a read with values"),
            })
            .collect())
    }

    /// Close every command channel and join the ranks.
    fn stop(&mut self) {
        self.dead.set(true);
        self.links.clear();
        for handle in self.handles.drain(..) {
            // A rank's panic was already reported by the round it broke.
            let _ = handle.join();
        }
    }
}

impl Drop for RankWorld {
    fn drop(&mut self) {
        self.stop();
    }
}

/// This rank's share of the job, built on its own thread.
fn rank_solver<'c, L: Lattice>(
    comm: &'c Comm,
    setup: &RankSetup,
) -> Result<DistributedSolver<'c, L>, SwlbError> {
    let spec = &setup.spec;
    let collision = CollisionKind::Bgk(BgkParams::try_from_tau(spec.tau)?);
    let mut builder = DistributedSolver::<L>::builder(comm, spec.dims(), &setup.flags, collision)
        .exchange(ExchangeMode::OnTheFly)
        .storage(spec.storage)
        .time_block(spec.time_block)
        .recorder(setup.recorder.clone());
    if comm.size() == 1 {
        builder = builder.pool(setup.pool.clone());
    }
    builder.try_build()
}

/// The life of one rank thread: build, then serve commands until the driver
/// closes the channel or a command fails.
fn rank_main<L: Lattice>(
    comm: &Comm,
    setup: &RankSetup,
    cmds: &Receiver<Cmd>,
    replies: &Sender<RankResult>,
) {
    let mut solver = match rank_solver::<L>(comm, setup) {
        Ok(solver) => solver,
        Err(e) => {
            let _ = replies.send(Err(e));
            return;
        }
    };
    while let Ok(cmd) = cmds.recv() {
        let reply = rank_serve(&mut solver, &setup.spec, cmd);
        let failed = reply.is_err();
        if replies.send(reply).is_err() || failed {
            return;
        }
    }
}

fn rank_serve<L: Lattice>(
    s: &mut DistributedSolver<'_, L>,
    spec: &CaseSpec,
    cmd: Cmd,
) -> RankResult {
    let nz = spec.dims().nz;
    let speed2 = |u: [Scalar; 3]| u[0] * u[0] + u[1] * u[1] + u[2] * u[2];
    let values = match cmd {
        Cmd::Initialize => {
            s.initialize_with(|x, y, z| spec.initial_state(x, y, z));
            None
        }
        Cmd::Run(n) => {
            s.run(n)?;
            None
        }
        Cmd::Restore { payload, step } => {
            s.restore_owned(&payload, step);
            None
        }
        Cmd::Poison([x, y, z]) => {
            let ((x0, lnx), (y0, lny)) = s.partition().owned(s.rank());
            if (x0..x0 + lnx).contains(&x) && (y0..y0 + lny).contains(&y) {
                let h = s.halo_width();
                let cell = s.local_flags().dims().idx(x - x0 + h, y - y0 + h, z);
                // Slot q = 0 is the rest population: under every scheme and
                // parity it is stored at (and read back from) the cell itself.
                s.local_populations_mut().set(cell, 0, Scalar::NAN);
            }
            None
        }
        Cmd::NonFinite => {
            let mut bad = false;
            s.for_each_owned_moment(0..nz, |_, rho, u| {
                bad |= !(rho.is_finite() && u.iter().all(|c| c.is_finite()));
            });
            Some(vec![Scalar::from(u8::from(bad))])
        }
        Cmd::SpeedPlane => {
            let mut plane = Vec::new();
            s.for_each_owned_moment(0..1, |_, _, u| plane.push(speed2(u).sqrt()));
            Some(plane)
        }
        Cmd::Rho => {
            let mut rho = Vec::new();
            s.for_each_owned_moment(0..nz, |_, r, _| rho.push(r));
            Some(rho)
        }
        Cmd::Stats => {
            let (mut mass, mut max_u2, mut energy) = (0.0, 0.0, 0.0);
            s.for_each_owned_moment(0..nz, |kind, rho, u| {
                max_u2 = Scalar::max(max_u2, speed2(u));
                if kind.is_fluid() {
                    mass += rho;
                    energy += 0.5 * rho * speed2(u);
                }
            });
            Some(vec![mass, max_u2, energy])
        }
        Cmd::PackOwned => Some(s.pack_owned_canonical()),
    };
    Ok(values.map_or_else(
        || Reply::At {
            step: s.step_count(),
            class: s.last_kernel_class(),
        },
        Reply::Values,
    ))
}

/// A lattice-erased case solver: the unit a job scheduler slices, checkpoints,
/// drops, and rebuilds.
pub enum CaseSolver {
    /// 2-D solver.
    D2(Solver<D2Q9>),
    /// 3-D solver.
    D3(Solver<D3Q19>),
    /// Width-elastic solver: slices run on an in-process multi-rank world.
    Elastic(Box<ElasticSolver>),
}

impl CaseSolver {
    /// Completed step count.
    pub fn step_count(&self) -> u64 {
        match self {
            CaseSolver::D2(s) => s.step_count(),
            CaseSolver::D3(s) => s.step_count(),
            CaseSolver::Elastic(e) => e.step,
        }
    }

    /// Grid dims.
    pub fn dims(&self) -> GridDims {
        match self {
            CaseSolver::D2(s) => s.dims(),
            CaseSolver::D3(s) => s.dims(),
            CaseSolver::Elastic(e) => e.setup.spec.dims(),
        }
    }

    /// Fluid-cell count (MLUPS accounting).
    pub fn active_cells(&self) -> usize {
        match self {
            CaseSolver::D2(s) => s.active_cells(),
            CaseSolver::D3(s) => s.active_cells(),
            CaseSolver::Elastic(e) => e.active,
        }
    }

    /// Kernel class that served the latest step.
    pub fn last_kernel_class(&self) -> KernelClass {
        match self {
            CaseSolver::D2(s) => s.last_kernel_class(),
            CaseSolver::D3(s) => s.last_kernel_class(),
            CaseSolver::Elastic(e) => e.last_class,
        }
    }

    /// Summary statistics of the current state.
    pub fn stats(&self) -> StepStats {
        match self {
            CaseSolver::D2(s) => s.stats(),
            CaseSolver::D3(s) => s.stats(),
            CaseSolver::Elastic(e) => {
                // Three partials per rank, folded in rank order.
                let parts = e.view("stats", e.world.gather(|| Cmd::Stats));
                StepStats {
                    step: e.step,
                    mass: parts.iter().map(|p| p[0]).sum(),
                    max_velocity: parts.iter().map(|p| p[1]).fold(0.0, Scalar::max).sqrt(),
                    kinetic_energy: parts.iter().map(|p| p[2]).sum(),
                }
            }
        }
    }

    /// The flag field (e.g. for force evaluation).
    pub fn flags(&self) -> &FlagField {
        match self {
            CaseSolver::D2(s) => s.flags(),
            CaseSolver::D3(s) => s.flags(),
            CaseSolver::Elastic(e) => &e.setup.flags,
        }
    }

    /// Advance `n` steps with a divergence check every `check_every` steps
    /// and one at the end; a serial solver under temporal blocking rounds
    /// each check up to its block boundary.
    pub fn run_checked(&mut self, n: u64, check_every: u64) -> Result<(), SwlbError> {
        match self {
            CaseSolver::D2(s) => s.run_checked(n, check_every),
            CaseSolver::D3(s) => s.run_checked(n, check_every),
            CaseSolver::Elastic(e) => e.run_checked(n, check_every),
        }
    }

    /// Whether the current state contains NaN/Inf.
    pub fn has_non_finite(&self) -> bool {
        match self {
            CaseSolver::D2(s) => s.macroscopic().has_non_finite(),
            CaseSolver::D3(s) => s.macroscopic().has_non_finite(),
            CaseSolver::Elastic(e) => e.view("has_non_finite", e.try_has_non_finite()),
        }
    }

    /// Speed magnitude of the z=0 plane (slice outputs).
    pub fn slice_speed(&self) -> Vec<Scalar> {
        match self {
            CaseSolver::D2(s) => s.macroscopic().slice_xy_speed(0),
            CaseSolver::D3(s) => s.macroscopic().slice_xy_speed(0),
            CaseSolver::Elastic(e) => {
                let planes = e.view("slice_speed", e.world.gather(|| Cmd::SpeedPlane));
                e.assemble(planes, 1)
            }
        }
    }

    /// Density field (volume outputs).
    pub fn rho(&self) -> Vec<Scalar> {
        match self {
            CaseSolver::D2(s) => s.macroscopic().rho.clone(),
            CaseSolver::D3(s) => s.macroscopic().rho.clone(),
            CaseSolver::Elastic(e) => {
                let blocks = e.view("rho", e.world.gather(|| Cmd::Rho));
                e.assemble(blocks, e.setup.spec.dims().nz)
            }
        }
    }

    /// Storage scheme of the underlying solver.
    pub fn scheme(&self) -> StorageScheme {
        match self {
            CaseSolver::D2(s) => s.scheme(),
            CaseSolver::D3(s) => s.scheme(),
            CaseSolver::Elastic(e) => e.setup.spec.storage,
        }
    }

    /// Populations-per-cell of the underlying lattice.
    pub fn q(&self) -> u32 {
        match self {
            CaseSolver::D2(_) => 9,
            CaseSolver::D3(_) => 19,
            CaseSolver::Elastic(e) => e.setup.spec.lattice.q(),
        }
    }

    /// Execution width (1 unless elastic).
    pub fn width(&self) -> u32 {
        match self {
            CaseSolver::Elastic(e) => e.width(),
            _ => 1,
        }
    }

    /// Change the execution width at a slice boundary; returns the previous
    /// width. No-op (returns 1) on non-elastic solvers.
    pub fn set_width(&mut self, width: u32) -> u32 {
        match self {
            CaseSolver::Elastic(e) => e.set_width(width),
            _ => 1,
        }
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
            CaseSolver::Elastic(e) => {
                let ck = self.capture_chunked();
                let soa = match e.setup.spec.lattice {
                    LatticeKind::D2Q9 => soa_from_chunked::<D2Q9>(&ck),
                    LatticeKind::D3Q19 => soa_from_chunked::<D3Q19>(&ck),
                };
                soa.expect("a self-capture tiles the domain")
            }
        };
        Checkpoint {
            step: self.step_count(),
            dims: extent(self.dims()),
            q: self.q(),
            scheme: scheme_byte(self.scheme()),
            data,
        }
    }

    /// Capture the state as a checkpoint — the preemption primitive: save
    /// this, drop the solver, rebuild later from the same [`CaseSpec`] and
    /// [`CaseSolver::restore_chunked_state`]. One chunk per rank of an
    /// elastic solver's world, a single whole-domain chunk otherwise.
    ///
    /// Chunk payloads are canonical, so checkpoints are portable across
    /// schemes: an AA job's checkpoint restores into an AB solver and vice
    /// versa.
    pub fn capture_chunked(&self) -> ChunkedCheckpoint {
        let data = match self {
            CaseSolver::Elastic(e) => return e.view("capture", e.try_capture_chunked()),
            CaseSolver::D2(s) => wire_from_soa(s.canonical_populations().raw(), D2Q9::Q),
            CaseSolver::D3(s) => wire_from_soa(s.canonical_populations().raw(), D3Q19::Q),
        };
        ChunkedCheckpoint::single_chunk(
            self.step_count(),
            extent(self.dims()),
            self.q(),
            scheme_byte(self.scheme()),
            data,
        )
    }

    /// Restore population state and step count from a checkpoint of the same
    /// grid and lattice, written by whatever source partition — this is what
    /// lets a job checkpointed at one width resume at another. An elastic
    /// solver lands at its requested width.
    pub fn restore_chunked_state(&mut self, ck: &ChunkedCheckpoint) -> Result<(), SwlbError> {
        let want = extent(self.dims());
        if ck.dims != want || ck.q != self.q() {
            return Err(SwlbError::CorruptData(format!(
                "checkpoint is {}x{}x{} q{}, solver wants {}x{}x{} q{}",
                ck.dims.0,
                ck.dims.1,
                ck.dims.2,
                ck.q,
                want.0,
                want.1,
                want.2,
                self.q()
            )));
        }
        match self {
            CaseSolver::D2(s) => s.restore_canonical(&soa_from_chunked::<D2Q9>(ck)?, ck.step),
            CaseSolver::D3(s) => s.restore_canonical(&soa_from_chunked::<D3Q19>(ck)?, ck.step),
            CaseSolver::Elastic(e) => e.restore_chunked(ck),
        }
    }

    /// Fault-injection hook: poison one interior population with NaN so the
    /// next divergence check trips — the job-level analogue of ChaosComm's
    /// corrupt-in-flight faults, used by chaos tests to exercise
    /// rollback-retry supervision.
    pub fn poison_with_nan(&mut self) {
        let d = self.dims();
        // Center cell: guaranteed interior fluid for every case family (walls
        // only ever occupy the outermost shell).
        let center = [d.nx / 2, d.ny / 2, d.nz / 2];
        let cell = d.idx(center[0], center[1], center[2]);
        // Slot q=0 is the rest population: under every scheme and parity it
        // is stored at (and read back from) the cell itself, so the poison is
        // visible to the very next macroscopic evaluation.
        match self {
            CaseSolver::D2(s) => s.state_mut().set(cell, 0, Scalar::NAN),
            CaseSolver::D3(s) => s.state_mut().set(cell, 0, Scalar::NAN),
            CaseSolver::Elastic(e) => {
                let poisoned = e.advance(|_| Ok(Cmd::Poison(center)));
                e.view("poison", poisoned);
            }
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
        for c in [CaseKind::Cavity, CaseKind::Channel, CaseKind::TaylorGreen] {
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
    fn every_case_family_builds_and_steps() {
        for case in [CaseKind::Cavity, CaseKind::Channel, CaseKind::TaylorGreen] {
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
                    if case == CaseKind::Channel && storage == StorageScheme::Aa {
                        // Open boundaries are AB-only; validated below.
                        assert!(matches!(s.validate(), Err(SwlbError::InvalidConfig(_))));
                        continue;
                    }
                    let mut solver = s
                        .build(ThreadPool::new(1), Recorder::disabled())
                        .unwrap_or_else(|e| panic!("{case:?}/{lattice:?}/{storage:?}: {e}"));
                    solver.run_checked(4, 2).unwrap();
                    assert_eq!(solver.step_count(), 4);
                    assert!(!solver.has_non_finite());
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
        let (ra, rb, rc) = (sa.rho(), sb.rho(), sc.rho());
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
        let pool = ThreadPool::new(1);
        let mut serial = spec().build(pool.clone(), Recorder::disabled()).unwrap();
        serial.run_checked(10, 5).unwrap();

        let mut elastic = spec()
            .build_with_width(pool, Recorder::disabled(), 2)
            .unwrap();
        assert_eq!(elastic.width(), 2);
        elastic.run_checked(10, 5).unwrap();
        assert_eq!(elastic.step_count(), 10);

        let tol = 1e-14_f64.max(swlb_core::simd::dispatch_tolerance() * 100.0);
        let (rs, re) = (serial.rho(), elastic.rho());
        for i in 0..rs.len() {
            assert!(
                (rs[i] - re[i]).abs() <= tol,
                "serial vs elastic rho mismatch at {i}: {} vs {}",
                rs[i],
                re[i]
            );
        }
    }

    #[test]
    fn elastic_width_change_mid_run_reshards_transparently() {
        let pool = ThreadPool::new(1);
        let mut serial = spec().build(pool.clone(), Recorder::disabled()).unwrap();
        serial.run_checked(12, 6).unwrap();

        // Run 4 steps at width 3, re-shard to width 2 for 4 steps, then
        // finish serial (width 1): three partitions of the same trajectory.
        let mut elastic = spec()
            .build_with_width(pool, Recorder::disabled(), 3)
            .unwrap();
        elastic.run_checked(4, 4).unwrap();
        assert_eq!(elastic.set_width(2), 3);
        elastic.run_checked(4, 4).unwrap();
        assert_eq!(elastic.set_width(1), 2);
        elastic.run_checked(4, 4).unwrap();
        assert_eq!(elastic.step_count(), 12);

        let tol = 1e-14_f64.max(swlb_core::simd::dispatch_tolerance() * 100.0);
        let (rs, re) = (serial.rho(), elastic.rho());
        for i in 0..rs.len() {
            assert!(
                (rs[i] - re[i]).abs() <= tol,
                "width-elastic rho mismatch at {i}: {} vs {}",
                rs[i],
                re[i]
            );
        }
    }

    #[test]
    fn elastic_capture_is_multi_chunk_and_restores_into_serial() {
        let pool = ThreadPool::new(1);
        let mut elastic = spec()
            .build_with_width(pool.clone(), Recorder::disabled(), 4)
            .unwrap();
        elastic.run_checked(6, 6).unwrap();
        let ck = elastic.capture_chunked();
        assert_eq!(ck.step, 6);
        assert_eq!(ck.chunks.len(), 4, "one chunk per slice rank");

        let mut serial = spec().build(pool, Recorder::disabled()).unwrap();
        serial.restore_chunked_state(&ck).unwrap();
        assert_eq!(serial.step_count(), 6);
        serial.run_checked(4, 4).unwrap();
        elastic.run_checked(4, 4).unwrap();

        let tol = 1e-14_f64.max(swlb_core::simd::dispatch_tolerance() * 100.0);
        let (rs, re) = (serial.rho(), elastic.rho());
        for i in 0..rs.len() {
            assert!((rs[i] - re[i]).abs() <= tol, "rho mismatch at {i}");
        }
    }

    #[test]
    fn elastic_poison_trips_divergence_at_slice_boundary() {
        // The fault is reported within `check_every` steps of where it
        // happened, not at the end of the 8-step slice.
        for check_every in [1u64, 3, 8] {
            let mut elastic = spec()
                .build_with_width(ThreadPool::new(1), Recorder::disabled(), 2)
                .unwrap();
            elastic.run_checked(2, 2).unwrap();
            elastic.poison_with_nan();
            assert!(elastic.has_non_finite());
            match elastic.run_checked(8, check_every) {
                Err(SwlbError::Diverged { step }) => assert_eq!(step, 2 + check_every),
                other => panic!("check_every {check_every}: expected Diverged, got {other:?}"),
            }
            assert_eq!(elastic.step_count(), 2 + check_every);
        }
    }

    fn elastic_counters(rec: &Recorder) -> (u64, u64) {
        (
            rec.counter("elastic.world_builds").get(),
            rec.counter("elastic.captures").get(),
        )
    }

    #[test]
    fn elastic_world_is_resident_across_slices_and_captures_only_to_reshard() {
        let rec = Recorder::enabled();
        let mut elastic = spec()
            .build_with_width(ThreadPool::new(1), rec.clone(), 2)
            .unwrap();
        for _ in 0..3 {
            elastic.run_checked(4, 4).unwrap();
        }
        assert_eq!(elastic_counters(&rec), (1, 0), "(world builds, captures)");
        elastic.set_width(3);
        elastic.run_checked(4, 4).unwrap();
        assert_eq!(elastic_counters(&rec), (2, 1), "(world builds, captures)");
        assert_eq!(elastic.step_count(), 16);
    }

    #[test]
    fn elastic_gathered_views_match_the_serial_solver() {
        let pool = ThreadPool::new(1);
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
                let mut serial = case.build(pool.clone(), Recorder::disabled()).unwrap();
                serial.run_checked(5, 5).unwrap();
                let (speed, rho, pops) = (serial.slice_speed(), serial.rho(), serial.capture());
                for width in [2, 3, 4] {
                    let what = format!("{storage:?} k={time_block} width {width}");
                    let mut elastic = case
                        .build_with_width(pool.clone(), Recorder::disabled(), width)
                        .unwrap();
                    elastic.run_checked(3, 3).unwrap();
                    elastic.run_checked(2, 2).unwrap();
                    let close = |a: &[Scalar], b: &[Scalar], view: &str| {
                        assert_eq!(a.len(), b.len(), "{what}: {view} length");
                        for i in 0..a.len() {
                            assert!(
                                (a[i] - b[i]).abs() <= tol,
                                "{what}: {view}[{i}] serial {} vs elastic {}",
                                a[i],
                                b[i]
                            );
                        }
                    };
                    close(&speed, &elastic.slice_speed(), "slice_speed");
                    close(&rho, &elastic.rho(), "rho");
                    // Solid cells hold scheme-dependent leftovers: compare
                    // the populations of fluid cells only.
                    let got = elastic.capture();
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
    }

    #[test]
    fn elastic_restore_at_a_pending_width_does_not_capture_the_overwritten_state() {
        let rec = Recorder::enabled();
        let mut elastic = spec()
            .build_with_width(ThreadPool::new(1), rec.clone(), 2)
            .unwrap();
        elastic.run_checked(4, 4).unwrap();
        let ck = elastic.capture_chunked();
        elastic.run_checked(2, 2).unwrap();

        let (builds, captures) = elastic_counters(&rec);
        assert_eq!(elastic.set_width(3), 2);
        elastic.restore_chunked_state(&ck).unwrap();
        assert_eq!(
            elastic_counters(&rec),
            (builds + 1, captures),
            "(world builds, captures)"
        );
        assert_eq!(elastic.step_count(), 4);
        assert_eq!(elastic.width(), 3);
        let landed = elastic.capture_chunked();
        assert_eq!(
            landed.chunks.len(),
            3,
            "one chunk per rank of the new world"
        );
        assert_eq!(
            landed.assemble_global().unwrap(),
            ck.assemble_global().unwrap()
        );
    }

    #[test]
    fn elastic_drop_joins_the_rank_threads() {
        let mut elastic =
            ElasticSolver::new(spec(), ThreadPool::new(1), Recorder::disabled(), 3).unwrap();
        elastic.run_checked(2, 2).unwrap();
        // Every rank thread holds the global flag field for as long as it
        // lives, so the field being freed means every thread has exited.
        let flags = Arc::downgrade(&elastic.setup.flags);
        drop(elastic);
        assert!(
            flags.upgrade().is_none(),
            "a rank thread outlived its solver"
        );
    }

    #[test]
    fn poison_trips_divergence_check() {
        let mut solver = spec()
            .build(ThreadPool::new(1), Recorder::disabled())
            .unwrap();
        solver.run_checked(2, 2).unwrap();
        solver.poison_with_nan();
        assert!(solver.has_non_finite());
        assert!(matches!(
            solver.run_checked(2, 1),
            Err(SwlbError::Diverged { .. })
        ));
    }
}
