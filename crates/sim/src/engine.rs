//! The distributed solver: a rank is a [`Solver`] plus a halo.
//!
//! Each rank holds one [`Solver`] over its owned block plus a `k`-cell ghost
//! ring in x/y, `(lnx + 2k) × (lny + 2k) × nz`, where `k = time_block`
//! (default 1) is the number of steps advanced per halo exchange. The solver
//! keeps the flags, interior index, storage, pool, initializer and step count,
//! and sweeps any rectangle with [`Solver::sweep_rect`], its own depth-1 step
//! body. This module adds what is distributed, the paper's MPE around the
//! core group's kernel (Fig. 6(2)): partition, strips and frames, rounds,
//! phase, epoch, retry, halo counters and the checkpoint protocol.
//!
//! There is **one** schedule. A *block* is `k` consecutive steps, `k = 1` is
//! a block of one, and intra-block step `s` (1-based) computes the owned
//! block expanded by `e = k − s` ghost layers:
//!
//! 1. (`s = 1`) send the 8 boundary strips of the current state to the
//!    neighbors,
//! 2. (`s = 1`) sweep the inner rectangle, the owned cells that touch no
//!    ghost cell,
//! 3. (`s = 1`) receive the 8 strips into the ghost ring,
//! 4. (`s = 1`) sweep the frame: the rest of the expansion-`e` rectangle,
//!    as four strips around the inner rectangle,
//! 5. (`s > 1`) sweep the whole expansion-`e` rectangle, with no
//!    communication,
//! 6. finish the step ([`Solver::finish_step`]): flip the A-B buffers, or the
//!    AA parity, and count it.
//!
//! [`ExchangeMode::Sequential`] runs 3 before 2; [`ExchangeMode::OnTheFly`]
//! runs them as listed, so the inner rectangle is computed while the strips
//! fly. Sends are buffered (never block) and receives match
//! `(source, direction)` tags, so both orders are deadlock-free, and they
//! cut the region into the same rectangles, so they are *bit-identical*:
//! overlap changes only when work happens, not what is computed. This is the
//! property the paper relies on when pipelining the MPE (communication)
//! against the CPE cluster (inner-domain computation), Fig. 6(2)/Fig. 9(2).
//!
//! The stepper never matches the storage scheme (the solver's
//! `swlb_core::layout::Storage` and [`StorageScheme`] answer for it); it reads
//! the AA parity only to decide *when* to communicate (below).
//! [`DistributedSolver::local_mass`], [`DistributedSolver::local_macroscopic`]
//! and checkpoint capture read the canonical runs in place
//! (`swlb_core::layout::CanonicalRuns`).
//!
//! ## What AA (single-grid) storage adds at `k = 1`
//!
//! With [`StorageScheme::Aa`] each rank holds ONE grid and alternates two step
//! flavors (see `swlb_core::layout`):
//!
//! - **Odd steps** (parity `Reversed`) gather from the upwind neighborhood and
//!   scatter downwind — including *into the ghost ring*, whose cells stand in
//!   for the neighbor's boundary cells. They run steps 1–4 above (tags `0..8`,
//!   populating the ghosts so gathers see the neighbor's state) and then the
//!   one scheme-specific hook, a **post-exchange** (tags `8..16`) on the same
//!   send/receive loops: each rank ships its ghost strips — now holding
//!   scatters that belong to the neighbor — back across, and the receiver
//!   merges exactly those slots `(cell, q)` whose *writer* `cell − c_q` lies
//!   in the sender's region. Slot ownership (each slot has a unique writer,
//!   which is also its unique reader) makes the merge predicates disjoint
//!   across the 8 senders, wraparound self-sends included, and makes the
//!   order of inner rectangle and frame irrelevant.
//! - **Even steps** (parity `Streamed`) read and write only the cell's own
//!   slots and the mailbox slots of adjacent walls, all of which the rank's
//!   own odd step wrote locally. They need **no communication at all**, so an
//!   even step is step 5 with `e = 0` — the "`s = 2`" of a two-step block
//!   whose ghosts are only one cell deep. The AA scheme halves both the
//!   resident set and the halo traffic.
//!
//! ## What `k > 1` adds (deep halos)
//!
//! With `time_block(k)` the ghost ring is `k` cells deep and the exchange
//! runs **once per k steps**. The expanded region redundantly recomputes
//! ghost cells with exactly the data the owning neighbor uses (the flags
//! there sample the same global field), so owned cells after every
//! intra-block step are identical to a per-step exchange — results stay
//! bit-identical to `k = 1` on scalar-semantics lanes and within the usual
//! dispatch tolerance otherwise. Validity accounting per scheme:
//!
//! - **AB** pulls from distance 1, so validity shrinks by one layer per step:
//!   step `s` may compute to depth `k − s` because depth `k − s + 1 ≤ k` was
//!   valid before it.
//! - **AA** alternates the odd (gather + scatter, shrinks validity by two
//!   layers) and even (cell-local, shrinks by zero) flavors; the same
//!   `e = k − s` schedule is exactly tight for even `k`, which is why the
//!   builder requires it. The odd-step scatters that `k = 1` returns with the
//!   post-exchange are instead *recomputed* by the neighbor inside its own
//!   ghost ring, so blocked AA has no post-exchange.
//!
//! Unlike the solver's wavefront (`swlb_core::temporal::block`), each level
//! sweeps the whole shrinking rectangle once: depth `k` saves `k×` halo
//! messages, not DRAM traffic, and recomputes the ghost ring on top.
//!
//! When a subdomain is shallower than the ring (`ln < k`) one exchange cannot
//! fill it, so step 3 becomes `R = ceil(k / min_ln)` rounds, each past round 0
//! a send and a receive (tags `64 + 16·(round−1) + d`): a round forwards what
//! the previous round made valid, advancing the valid front by at least
//! `min_ln` layers. AA updates in place, so with `R > 1` it always receives
//! before it sweeps: a later round re-packs strips that the inner sweep's
//! scatters would already have changed. Checkpoint capture stays valid
//! mid-block (owned cells are always current); restore lands on a block
//! *boundary* — it resets the intra-block phase so the next step re-exchanges
//! before anything reads the (then stale) ghosts.
//!
//! ## Checkpoints
//!
//! Capture packs each owned block with [`CheckpointChunk::pack`] straight
//! from the storage's canonical runs, at any scheme, parity and block phase
//! (under AA `Streamed` an owned cell's runs may sit in the ghost ring, where
//! its odd step scattered them). Restore lands each owned rectangle with
//! [`ChunkedCheckpoint::land`] on rank 0: its own straight into the raw grid,
//! the others' into frames that their ranks land with the halo `unpack`; every
//! rank then adopts the canonical block at the checkpoint's step. The chunk
//! order is `swlb_io::chunked`'s alone. A refused restore fails on every rank.

use crate::partition::Partition2d;
use std::ops::Range;
use std::time::Duration;
use swlb_comm::cart::NEIGHBOR_OFFSETS;
use swlb_comm::frame::{check_frame, seal_frame, FrameCheck, FRAME_HEADER};
use swlb_comm::{Comm, CommError, Communicator, Tag};
use swlb_core::collision::CollisionKind;
use swlb_core::flags::FlagField;
use swlb_core::geometry::GridDims;
use swlb_core::lattice::Lattice;
use swlb_core::layout::{AaParity, CanonicalRuns, PopField, SoaField, StorageScheme};
use swlb_core::macroscopic::MacroFields;
use swlb_core::parallel::ThreadPool;
use swlb_core::simd::KernelClass;
use swlb_core::solver::{Solver, SolverBuilder};
use swlb_core::Scalar;
use swlb_io::{CheckpointChunk, ChunkMeta, ChunkedCheckpoint};
use swlb_obs::{exponential_buckets, Counter, Gauge, Histogram, Phase, Recorder, SwlbError};

/// Halo-exchange schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeMode {
    /// Exchange first, then compute everything (paper Fig. 6(1)).
    Sequential,
    /// Overlap communication with inner-domain computation (paper Fig. 6(2)).
    OnTheFly,
}

/// An `x × y` rectangle of local cells (full z), the unit of every sweep.
type Rect = (Range<usize>, Range<usize>);

/// The two halo exchanges of the schedule. They share the send and receive
/// loops and differ in three things only: which strips are packed, the tag
/// block, and how an arrived strip lands.
#[derive(Clone, Copy)]
enum Exchange {
    /// Round `r` of the pre-exchange that fills the ghost ring before a
    /// block: owned boundary strips land in the neighbor's ghosts.
    Pre(usize),
    /// The post-exchange of an AA `k = 1` odd step: ghost strips, holding
    /// scatters that belong to the neighbor, are merged into its owned
    /// boundary strips.
    AaPost,
}

impl Exchange {
    /// The tag of halo direction `d`. Pre-exchange round 0 uses `0..8`, the
    /// post-exchange `8..16`, and pre-exchange round `r ≥ 1` uses
    /// `64 + 16·(r−1) + d`, so every exchange's 8 strips stay distinguishable
    /// from each other and from [`CAPTURE_TAG`] and [`RESHARD_TAG`].
    fn tag(self, d: usize) -> u64 {
        match self {
            Exchange::Pre(0) => d as u64,
            Exchange::AaPost => 8 + d as u64,
            Exchange::Pre(r) => 64 + 16 * (r as u64 - 1) + d as u64,
        }
    }
}

/// Tag of the chunks a capture sends to rank 0. It and [`RESHARD_TAG`] lie
/// outside every [`Exchange::tag`] block.
const CAPTURE_TAG: u64 = 40;
/// Tag of the rectangles a restore sends out from rank 0.
const RESHARD_TAG: u64 = 41;

/// Retry/backoff policy for halo receives.
///
/// Each halo receive waits up to `timeout_for(attempt)` — the base timeout
/// doubled per attempt and capped — and is retried until `max_attempts`, at
/// which point the failure escalates as [`CommError::Timeout`] (message never
/// arrived) or [`CommError::Corrupt`] (every copy that arrived failed its
/// checksum). Retrying heals delayed and duplicated messages in place; dropped
/// or corrupted ones escalate to the recovery layer, which rolls back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HaloRetry {
    /// Deadline for the first attempt.
    pub base_timeout: Duration,
    /// Upper bound on any single attempt's deadline.
    pub max_backoff: Duration,
    /// Attempts before escalating (≥ 1).
    pub max_attempts: u32,
}

impl Default for HaloRetry {
    /// Patient defaults for production runs: ~30 s of total waiting before a
    /// halo failure escalates.
    fn default() -> Self {
        HaloRetry {
            base_timeout: Duration::from_secs(1),
            max_backoff: Duration::from_secs(8),
            max_attempts: 6,
        }
    }
}

impl HaloRetry {
    /// Tight deadlines for fault-injection tests (milliseconds, not seconds).
    pub fn snappy() -> Self {
        HaloRetry {
            base_timeout: Duration::from_millis(50),
            max_backoff: Duration::from_millis(400),
            max_attempts: 4,
        }
    }

    /// `self`; panics when `max_attempts` is 0.
    fn checked(self) -> Self {
        assert!(self.max_attempts >= 1, "halo retry needs at least one attempt");
        self
    }

    fn timeout_for(&self, attempt: u32) -> Duration {
        let mult = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.base_timeout
            .checked_mul(mult)
            .map_or(self.max_backoff, |d| d.min(self.max_backoff))
    }
}

/// One rank's share of a distributed LBM simulation.
///
/// Generic over the [`Communicator`] so the identical solver code runs on the
/// production transport ([`Comm`], the default) and under fault injection
/// ([`ChaosComm`](swlb_comm::ChaosComm)).
pub struct DistributedSolver<'c, L: Lattice, C: Communicator = Comm> {
    comm: &'c C,
    part: Partition2d,
    /// The rank's box over the halo-padded local grid. It has no recorder:
    /// the rank's own recorder times the step around it.
    solver: Solver<L>,
    mode: ExchangeMode,
    lnx: usize,
    lny: usize,
    /// Ghost-ring width (= the solver's `time_block`). The owned block is
    /// `halo..halo+lnx × halo..halo+lny` in local coordinates.
    halo: usize,
    /// Exchange rounds per deep-halo fill: 1 unless some subdomain is
    /// shallower than the ring (see the module docs).
    rounds: usize,
    /// Intra-block phase `0..time_block`; 0 means the next step starts a
    /// block (exchanges halos). Reset by initialize/restore so a resumed run
    /// never reads stale ghosts.
    phase: usize,
    /// Reusable halo frame buffers: once capacities stabilize, the
    /// steady-state step performs no heap allocation.
    send_buf: Vec<f64>,
    recv_buf: Vec<f64>,
    /// Restart generation: bumped on rollback so in-flight pre-rollback halo
    /// frames are recognized as stale and discarded.
    epoch: u64,
    retry: HaloRetry,
    /// Fluid cells of the owned block (the MLUPS numerator), counted on the
    /// first instrumented step after build or [`Self::local_flags_mut`].
    owned_fluid: Option<usize>,
    recorder: Recorder,
    obs_mlups: Gauge,
    obs_steps: Counter,
    obs_retries: Counter,
    obs_timeouts: Counter,
    obs_corrupt: Counter,
    obs_halo_us: Histogram,
    obs_halo_msgs: Counter,
    obs_halo_bytes: Counter,
    obs_kernel_class: Gauge,
}

/// The single construction path for [`DistributedSolver`]: communicator,
/// global problem and collision up front; exchange schedule, halo retry policy
/// and observability recorder optional.
///
/// The default exchange mode is [`ExchangeMode::OnTheFly`] — the
/// communication/computation overlap the paper's pipelined schedule uses
/// (Fig. 6(2)); pick [`ExchangeMode::Sequential`] explicitly for the
/// exchange-first baseline.
pub struct DistributedSolverBuilder<'c, 'f, L: Lattice, C: Communicator = Comm> {
    comm: &'c C,
    global: GridDims,
    global_flags: &'f FlagField,
    collision: CollisionKind,
    mode: ExchangeMode,
    storage: StorageScheme,
    retry: HaloRetry,
    recorder: Recorder,
    pool: ThreadPool,
    time_block: usize,
    _lattice: std::marker::PhantomData<L>,
}

impl<'c, 'f, L: Lattice, C: Communicator> DistributedSolverBuilder<'c, 'f, L, C> {
    /// Start a builder for this rank's share of the global problem.
    pub fn new(
        comm: &'c C,
        global: GridDims,
        global_flags: &'f FlagField,
        collision: CollisionKind,
    ) -> Self {
        DistributedSolverBuilder {
            comm,
            global,
            global_flags,
            collision,
            mode: ExchangeMode::OnTheFly,
            storage: StorageScheme::Ab,
            retry: HaloRetry::default(),
            recorder: Recorder::disabled(),
            pool: ThreadPool::new(1),
            time_block: 1,
            _lattice: std::marker::PhantomData,
        }
    }

    /// Advance `k` steps per halo exchange with a `k`-deep ghost ring
    /// (default 1 — exchange every step). AA storage requires an even `k` so
    /// a block ends at the canonical `Reversed` parity.
    pub fn time_block(mut self, k: usize) -> Self {
        self.time_block = k;
        self
    }

    /// Run this rank's sweeps on the given thread pool (default: a
    /// single-threaded pool). This is the second level of the paper's two-level
    /// parallelism: ranks partition the domain, the pool's threads partition
    /// each swept rectangle into work-stolen y-slabs.
    pub fn pool(mut self, pool: ThreadPool) -> Self {
        self.pool = pool;
        self
    }

    /// Select the halo-exchange schedule (default [`ExchangeMode::OnTheFly`]).
    pub fn exchange(mut self, mode: ExchangeMode) -> Self {
        self.mode = mode;
        self
    }

    /// Select the population storage scheme (default [`StorageScheme::Ab`]).
    /// [`StorageScheme::Aa`] halves each rank's resident set and makes every
    /// second step communication-free, but supports only
    /// Fluid/Wall/MovingWall flags — [`DistributedSolverBuilder::try_build`]
    /// rejects the combination with open/NEBB boundaries.
    pub fn storage(mut self, scheme: StorageScheme) -> Self {
        self.storage = scheme;
        self
    }

    /// Replace the halo retry/backoff policy (default [`HaloRetry::default`];
    /// panics when `retry.max_attempts` is 0).
    pub fn halo_retry(mut self, retry: HaloRetry) -> Self {
        self.retry = retry.checked();
        self
    }

    /// Attach an observability recorder (default: disabled).
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Build this rank's solver, panicking on an invalid configuration.
    pub fn build(self) -> DistributedSolver<'c, L, C> {
        self.try_build()
            .unwrap_or_else(|e| panic!("distributed solver build failed: {e}"))
    }

    /// Build this rank's solver, rejecting with a typed error the flag fields
    /// ([`StorageScheme::check_flags`]) and depths
    /// ([`StorageScheme::check_depth`], through [`SolverBuilder::try_build`])
    /// the storage scheme cannot run. The flags are checked on the global
    /// field, so every rank refuses the same problem.
    pub fn try_build(self) -> Result<DistributedSolver<'c, L, C>, SwlbError> {
        self.storage.check_flags(self.global_flags)?;
        let (comm, h) = (self.comm, self.time_block);
        let part = Partition2d::new(self.global, comm.size())?;
        let ((_, lnx), (_, lny)) = part.owned(comm.rank());
        let local = part.local_dims_h(comm.rank(), h);
        let mut solver = SolverBuilder::new(local, self.collision.base())
            .collision(self.collision)
            .storage(self.storage)
            .pool(self.pool)
            .time_block(h)
            .try_build()?;
        *solver.flags_mut() = part.local_flags_h(comm.rank(), self.global_flags, h);
        // Rounds to fill an h-deep ring: each advances the valid front by the
        // shallowest owned extent along an axis. Every rank must agree, so the
        // minima run over the whole layout, not this rank.
        let rounds_for = |n, p| {
            let ln = (0..p).map(|c| swlb_comm::Cart2d::block_range(n, p, c).1).min();
            h.div_ceil(ln.expect("a partition has a block on each axis"))
        };
        let (nx, ny, cart) = (self.global.nx, self.global.ny, part.cart);
        let rounds = rounds_for(nx, cart.px).max(rounds_for(ny, cart.py)).max(1);
        let recorder = self.recorder;
        Ok(DistributedSolver {
            comm,
            part,
            solver,
            mode: self.mode,
            lnx,
            lny,
            halo: h,
            rounds,
            phase: 0,
            send_buf: Vec::new(),
            recv_buf: Vec::new(),
            epoch: 0,
            retry: self.retry,
            owned_fluid: None,
            obs_mlups: recorder.gauge("mlups"),
            obs_steps: recorder.counter("steps"),
            obs_retries: recorder.counter("halo.retries"),
            obs_timeouts: recorder.counter("halo.timeouts"),
            obs_corrupt: recorder.counter("halo.corrupt"),
            obs_halo_us: recorder.histogram("halo.latency_us", &exponential_buckets(10.0, 4.0, 8)),
            obs_halo_msgs: recorder.counter("halo.messages"),
            obs_halo_bytes: recorder.counter("halo.bytes"),
            obs_kernel_class: recorder.gauge("kernel_class"),
            recorder,
        })
    }
}

impl<'c, L: Lattice, C: Communicator> DistributedSolver<'c, L, C> {
    /// Start a [`DistributedSolverBuilder`] — the single construction path.
    pub fn builder<'f>(
        comm: &'c C,
        global: GridDims,
        global_flags: &'f FlagField,
        collision: CollisionKind,
    ) -> DistributedSolverBuilder<'c, 'f, L, C> {
        DistributedSolverBuilder::new(comm, global, global_flags, collision)
    }

    /// The observability recorder this rank reports into.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Replace the halo retry/backoff policy.
    ///
    /// # Panics
    /// Panics when `retry.max_attempts` is 0.
    pub fn set_halo_retry(&mut self, retry: HaloRetry) {
        self.retry = retry.checked();
    }

    /// Enter the next restart generation. Called by the recovery layer after a
    /// rollback, on every rank, so halo frames sent before the rollback are
    /// discarded as stale rather than consumed as fresh data.
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Rank id.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// The communicator this rank runs on (used by the recovery layer for its
    /// status reductions and rollback collectives).
    pub fn comm(&self) -> &'c C {
        self.comm
    }

    /// Completed steps.
    pub fn step_count(&self) -> u64 {
        self.solver.step_count()
    }

    /// Temporal-blocking depth (steps per halo exchange; 1 = unblocked).
    pub fn time_block(&self) -> usize {
        self.solver.time_block()
    }

    /// Intra-block phase `0..time_block`; 0 means the next step starts a new
    /// block (and pays the halo exchange). Checkpoint capture is valid at any
    /// phase, but a *restore* always resumes at phase 0.
    pub fn block_phase(&self) -> usize {
        self.phase
    }

    /// The partition (for output assembly).
    pub fn partition(&self) -> Partition2d {
        self.part
    }

    /// Local flags (with halo ring).
    pub fn local_flags(&self) -> &FlagField {
        self.solver.flags()
    }

    /// Mutable access to the local flags (with halo ring): the next step
    /// rebuilds the solver's interior index ([`Solver::flags_mut`]) first.
    pub fn local_flags_mut(&mut self) -> &mut FlagField {
        self.owned_fluid = None;
        self.solver.flags_mut()
    }

    /// Which kernel class served the most recent step's last sweep
    /// ([`KernelClass::Generic`] before the first step).
    pub fn last_kernel_class(&self) -> KernelClass {
        self.solver.last_kernel_class()
    }

    /// Which storage scheme this rank runs.
    pub fn scheme(&self) -> StorageScheme {
        self.solver.scheme()
    }

    /// AA step-flavor parity (`None` under AB storage). `Reversed` means the
    /// next step is the odd (communicating) flavor.
    pub fn parity(&self) -> Option<AaParity> {
        self.solver.parity()
    }

    /// Initialize all local cells from a *global-coordinate* state function
    /// ([`Solver::initialize_field`]) and resume at step 0.
    pub fn initialize_with(
        &mut self,
        state: impl Fn(usize, usize, usize) -> (Scalar, [Scalar; 3]) + Sync,
    ) {
        let global = self.part.global;
        let ((x0, _), (y0, _)) = self.part.owned(self.comm.rank());
        let h = self.halo;
        self.solver.initialize_field(|lx, ly, z| {
            let gx = (x0 as isize + lx as isize - h as isize).rem_euclid(global.nx as isize);
            let gy = (y0 as isize + ly as isize - h as isize).rem_euclid(global.ny as isize);
            state(gx as usize, gy as usize, z)
        });
        self.phase = 0;
    }

    /// Initialize to a uniform equilibrium.
    pub fn initialize_uniform(&mut self, rho: Scalar, u: [Scalar; 3]) {
        self.initialize_with(|_, _, _| (rho, u));
    }

    /// Send ranges for direction component `d ∈ {−1, 0, +1}` along an axis
    /// with `ln` owned cells and an `h`-deep ghost ring: the `h` cells
    /// adjacent to that neighbor. When `ln < h` the strip dips into this
    /// rank's own ghost ring — valid in multi-round exchanges, where earlier
    /// rounds filled it (see the module docs).
    fn send_range(d: i32, ln: usize, h: usize) -> Range<usize> {
        match d {
            1 => ln..ln + h,
            -1 => h..2 * h,
            _ => h..ln + h,
        }
    }

    /// Receive (ghost) ranges for direction component `d`.
    fn recv_range(d: i32, ln: usize, h: usize) -> Range<usize> {
        match d {
            1 => ln + h..ln + 2 * h,
            -1 => 0..h,
            _ => h..ln + h,
        }
    }

    /// Append the strip `xr × yr` (full z) of `field` to `out` in halo frame
    /// order: plane-major (q → y → x → z). A row's `x` pencils are adjacent in
    /// a plane, so each `(q, y)` is one contiguous copy. Both ends of a frame
    /// run this code, so the order is no contract beyond [`Self::unpack`].
    fn pack_strip(field: &SoaField<L>, xr: Range<usize>, yr: Range<usize>, out: &mut Vec<f64>) {
        let dims = field.dims();
        let run = xr.len() * dims.nz;
        out.reserve(run * yr.len() * L::Q);
        for q in 0..L::Q {
            let plane = field.plane(q);
            for y in yr.clone() {
                let at = dims.idx(xr.start, y, 0);
                out.extend_from_slice(&plane[at..at + run]);
            }
        }
    }

    /// Land a strip packed by [`Self::pack_strip`] at `xr × yr`.
    fn unpack(&mut self, xr: Range<usize>, yr: Range<usize>, data: &[f64]) {
        let dims = self.solver.dims();
        let run = xr.len() * dims.nz;
        assert_eq!(data.len(), run * yr.len() * L::Q, "halo message length");
        let dst = self.solver.state_mut();
        let mut rows = data.chunks_exact(run);
        for q in 0..L::Q {
            let plane = dst.plane_mut(q);
            for y in yr.clone() {
                let at = dims.idx(xr.start, y, 0);
                plane[at..at + run].copy_from_slice(rows.next().expect("length checked"));
            }
        }
    }

    /// The rank in direction `(dx, dy)` of the periodic layout.
    fn neighbor(&self, dx: i32, dy: i32) -> usize {
        let cart = self.part.cart;
        cart.neighbor(self.comm.rank(), dx, dy).expect("periodic topology always has neighbors")
    }

    /// Post the 8 halo sends of exchange `ex`, timed as [`Phase::HaloPack`].
    /// Each frame is built in place in the reusable send buffer:
    /// `[epoch, step, crc]` header, then the packed strip, then the checksum
    /// filled into its slot.
    fn send_strips(&mut self, ex: Exchange) -> Result<(), CommError> {
        let rec = self.recorder.clone();
        let _pack = rec.phase(Phase::HaloPack);
        // The pre-exchange ships what the neighbor's ghosts mirror; the
        // post-exchange ships the ghosts themselves.
        let strip = match ex {
            Exchange::Pre(_) => Self::send_range,
            Exchange::AaPost => Self::recv_range,
        };
        let mut buf = std::mem::take(&mut self.send_buf);
        let result = (|| {
            for (d, (dx, dy)) in NEIGHBOR_OFFSETS.iter().enumerate() {
                let dst = self.neighbor(*dx, *dy);
                buf.clear();
                buf.resize(FRAME_HEADER, 0.0);
                Self::pack_strip(
                    self.solver.state(),
                    strip(*dx, self.lnx, self.halo),
                    strip(*dy, self.lny, self.halo),
                    &mut buf,
                );
                seal_frame(&mut buf, self.epoch, self.solver.step_count());
                self.obs_halo_msgs.inc();
                self.obs_halo_bytes
                    .add((buf.len() * std::mem::size_of::<f64>()) as u64);
                self.comm.send_buffered(dst, ex.tag(d), &buf)?;
            }
            Ok(())
        })();
        self.send_buf = buf;
        result
    }

    /// Receive one halo frame for the current `(epoch, step)`, retrying with
    /// capped exponential backoff. Delayed messages are healed by waiting
    /// longer; duplicates and pre-rollback stragglers are discarded; dropped
    /// or corrupted messages exhaust the attempts and escalate as
    /// [`CommError::Timeout`] / [`CommError::Corrupt`] for the recovery layer.
    /// On success the full frame (header included) is left in `buf`; the
    /// payload is `buf[FRAME_HEADER..]`.
    fn recv_framed_into(&self, src: usize, tag: Tag, buf: &mut Vec<f64>) -> Result<(), CommError> {
        let retry = self.retry;
        let mut attempts: u32 = 0;
        let mut saw_corrupt = false;
        loop {
            match self.comm.recv_deadline_buffered(src, tag, retry.timeout_for(attempts), buf) {
                Ok(()) => match check_frame(buf, self.epoch, self.solver.step_count()) {
                    FrameCheck::Valid => return Ok(()),
                    // Stale frames are bounded by what was actually in flight,
                    // so discarding them without charging an attempt cannot loop.
                    FrameCheck::Stale => continue,
                    FrameCheck::Corrupt => saw_corrupt = true,
                    FrameCheck::Gap => {
                        self.obs_timeouts.inc();
                        let attempts = attempts + 1;
                        return Err(CommError::Timeout { rank: src, tag, attempts });
                    }
                },
                Err(CommError::Timeout { .. }) => {}
                Err(e) => return Err(e),
            }
            // A timeout or a corrupt copy: charge an attempt.
            attempts += 1;
            self.obs_retries.inc();
            if attempts >= retry.max_attempts {
                return if saw_corrupt {
                    self.obs_corrupt.inc();
                    Err(CommError::Corrupt { rank: src, tag })
                } else {
                    self.obs_timeouts.inc();
                    Err(CommError::Timeout { rank: src, tag, attempts })
                };
            }
        }
    }

    /// Receive the 8 halo strips of exchange `ex`; each wait is timed as
    /// [`Phase::HaloExchange`] and each landing as [`Phase::HaloUnpack`].
    fn recv_strips(&mut self, ex: Exchange) -> Result<(), CommError> {
        let rec = self.recorder.clone();
        let mut buf = std::mem::take(&mut self.recv_buf);
        let result = (|| {
            for (d, (dx, dy)) in NEIGHBOR_OFFSETS.iter().enumerate() {
                let src_rank = self.neighbor(*dx, *dy);
                let t_recv = rec.now();
                // The sender's direction is the opposite one in
                // [`NEIGHBOR_OFFSETS`] order: E↔W, N↔S, NE↔SW, SE↔NW.
                self.recv_framed_into(src_rank, ex.tag(d ^ 1), &mut buf)?;
                if let Some(t) = t_recv {
                    let ns = t.elapsed().as_nanos() as u64;
                    rec.record_phase_ns(Phase::HaloExchange, ns);
                    self.obs_halo_us.record(ns as f64 / 1e3);
                }
                let _unpack = rec.phase(Phase::HaloUnpack);
                let data = &buf[FRAME_HEADER..];
                match ex {
                    Exchange::Pre(_) => self.unpack(
                        Self::recv_range(*dx, self.lnx, self.halo),
                        Self::recv_range(*dy, self.lny, self.halo),
                        data,
                    ),
                    Exchange::AaPost => self.aa_merge_strip(*dx, *dy, data),
                }
            }
            Ok(())
        })();
        self.recv_buf = buf;
        result
    }

    /// Complete a pre-exchange whose round-0 sends are already posted:
    /// receive round 0, then run any further rounds needed to fill a ring
    /// deeper than the shallowest subdomain.
    fn finish_exchange(&mut self) -> Result<(), CommError> {
        self.recv_strips(Exchange::Pre(0))?;
        for round in 1..self.rounds {
            self.send_strips(Exchange::Pre(round))?;
            self.recv_strips(Exchange::Pre(round))?;
        }
        Ok(())
    }

    /// Merge one post-exchange strip from the neighbor in direction
    /// `(dx, dy)`. The payload mirrors my owned boundary strip
    /// `send_range(dx) × send_range(dy)` in halo frame order; a slot is taken
    /// iff its writer cell lies in the sender's region (beyond my owned block
    /// in exactly the directions the sender sits, in unwrapped local coords).
    /// The writer's column does not depend on z, so each `(q, x, y)` pencil
    /// is taken or left whole.
    fn aa_merge_strip(&mut self, dx: i32, dy: i32, data: &[f64]) {
        fn writer_in_sender(w: isize, d: i32, ln: usize, h: usize) -> bool {
            match d {
                1 => w >= (ln + h) as isize,
                -1 => w < h as isize,
                _ => w >= h as isize && w < (ln + h) as isize,
            }
        }
        let dims = self.solver.dims();
        let (lnx, lny, h) = (self.lnx, self.lny, self.halo);
        let (xs, ys) = (Self::send_range(dx, lnx, h), Self::send_range(dy, lny, h));
        let nz = dims.nz;
        assert_eq!(data.len(), xs.len() * ys.len() * nz * L::Q, "post-exchange message length");
        let dst = self.solver.state_mut();
        let mut pencils = data.chunks_exact(nz);
        for q in 0..L::Q {
            let c = L::C[q];
            let plane = dst.plane_mut(q);
            for y in ys.clone() {
                let take_y = writer_in_sender(y as isize - c[1] as isize, dy, lny, h);
                for x in xs.clone() {
                    let pencil = pencils.next().expect("length checked");
                    if take_y && writer_in_sender(x as isize - c[0] as isize, dx, lnx, h) {
                        let at = dims.idx(x, y, 0);
                        plane[at..at + nz].copy_from_slice(pencil);
                    }
                }
            }
        }
    }

    /// The inner rectangle: owned cells whose step-1 pulls and scatters touch
    /// no ghost cell (empty for degenerate subdomains, `lnx ≤ 2` or `lny ≤ 2`).
    fn inner_ranges(&self) -> Rect {
        let h = self.halo;
        (h + 1..h + self.lnx - 1, h + 1..h + self.lny - 1)
    }

    /// The owned block expanded by `e` ghost layers on every side.
    fn expanded_ranges(&self, e: usize) -> Rect {
        let h = self.halo;
        debug_assert!(e < h, "expansion exceeds the ring");
        (h - e..h + self.lnx + e, h - e..h + self.lny + e)
    }

    /// The frame of the expansion-`e` rectangle left after the inner
    /// rectangle: four strips, corners included exactly once (or the whole
    /// rectangle when the inner one is empty), as a fixed array plus its
    /// length so a block start allocates nothing. With `e = 0` these are the
    /// four 1-cell strips of the owned boundary ring. Per-cell results are
    /// independent of how the region is cut into dispatch rectangles: z-runs
    /// are never split by an x/y cut, so this decomposition is exactly as
    /// bit-stable as one big dispatch.
    fn frame_rects(&self, e: usize) -> ([Rect; 4], usize) {
        let (xo, yo) = self.expanded_ranges(e);
        if self.lnx <= 2 || self.lny <= 2 {
            const UNUSED: Rect = (0..0, 0..0);
            return ([(xo, yo), UNUSED, UNUSED, UNUSED], 1);
        }
        let (xi, yi) = self.inner_ranges();
        let rects = [
            (xo.clone(), yo.start..yi.start), // south strip
            (xo.clone(), yi.end..yo.end),     // north strip
            (xo.start..xi.start, yi.clone()), // west strip
            (xi.end..xo.end, yi),             // east strip
        ];
        (rects, 4)
    }

    /// One time step of the single schedule (see the module docs): intra-block
    /// step `s = phase + 1` sweeps the owned block expanded by
    /// `e = time_block − s` ghost layers. An AA even step (`Streamed`) never
    /// starts a block: it is communication-free whatever the ghost depth.
    fn step_block(&mut self, rec: &Recorder) -> Result<(), SwlbError> {
        let e = self.halo - (self.phase + 1);
        let parity = self.solver.parity();
        if self.phase == 0 && parity != Some(AaParity::Streamed) {
            self.send_strips(Exchange::Pre(0))?;
            // Both modes sweep the same inner rectangle and frame strips (so
            // they stay bit-identical); OnTheFly just runs the inner
            // rectangle, which touches no ghost, while the strips fly. AA
            // updates in place, so that is sound only for a single-round
            // exchange: with `rounds > 1` the round-1 re-pack reads strips
            // (`send_range` spans ghost layers when `h > ln`) that the inner
            // sweep's odd-flavor scatters have already mutated, and the deep
            // ring would carry post-step values.
            let overlap =
                self.mode == ExchangeMode::OnTheFly && (parity.is_none() || self.rounds == 1);
            if !overlap {
                self.finish_exchange()?;
            }
            {
                let _cs = rec.phase(Phase::CollideStream);
                let (xr, yr) = self.inner_ranges();
                self.solver.sweep_rect(xr, yr)?;
            }
            if overlap {
                self.finish_exchange()?;
            }
            {
                let _bd = rec.phase(Phase::Boundary);
                let (rects, n) = self.frame_rects(e);
                for (xr, yr) in rects.into_iter().take(n) {
                    self.solver.sweep_rect(xr, yr)?;
                }
            }
            // 1-deep ghosts cannot recompute the neighbor's share of an AA
            // odd step, so its scatters into the ghost ring go back across.
            if parity.is_some() && self.halo == 1 {
                self.send_strips(Exchange::AaPost)?;
                self.recv_strips(Exchange::AaPost)?;
            }
        } else {
            let _cs = rec.phase(Phase::CollideStream);
            let (xr, yr) = self.expanded_ranges(e);
            self.solver.sweep_rect(xr, yr)?;
        }
        self.solver.finish_step();
        Ok(())
    }

    /// Advance one time step. A halo failure keeps its structure through the
    /// lossless `CommError → SwlbError` conversion (`CommTimeout`,
    /// `CommCorrupt`, `Disconnected`); local flags the storage scheme cannot
    /// stream over, or that refused a kind, are an `InvalidConfig` before any send.
    pub fn step(&mut self) -> Result<(), SwlbError> {
        // Cheap handle clone so phase guards don't hold a borrow of `self`.
        let rec = self.recorder.clone();
        let t_step = rec.now();
        self.solver.sweep_rect(0..0, 0..0)?; // only brings the index up to date
        self.comm.notify_step(self.solver.step_count());
        self.step_block(&rec)?;
        self.phase = (self.phase + 1) % self.halo;
        if let Some(t) = t_step {
            let ns = (t.elapsed().as_nanos() as u64).max(1);
            self.obs_steps.inc();
            // Per-rank MLUPS = owned fluid cells · 1000 / step-ns.
            let (flags, h, (lnx, lny)) = (self.solver.flags(), self.halo, (self.lnx, self.lny));
            let fluid = *self.owned_fluid.get_or_insert_with(|| {
                let d = flags.dims();
                let pencil = |(x, y)| (0..d.nz).map(move |z| d.idx(x, y, z));
                let owned = (h..h + lny).flat_map(|y| (h..h + lnx).map(move |x| (x, y)));
                owned.flat_map(pencil).filter(|&c| flags.kind(c).is_fluid()).count()
            });
            self.obs_mlups.set(fluid as f64 * 1e3 / ns as f64);
            self.obs_kernel_class.set(self.solver.last_kernel_class().as_gauge());
        }
        self.recorder.maybe_flush(self.solver.step_count());
        Ok(())
    }

    /// Advance `n` steps, surfacing any halo failure as the workspace error.
    pub fn run(&mut self, n: u64) -> Result<(), SwlbError> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    /// Local macroscopic snapshot (includes the halo ring; the owned block is
    /// `halo..halo+lnx × halo..halo+lny`), read in place from the storage.
    pub fn local_macroscopic(&self) -> MacroFields {
        self.solver.macroscopic()
    }

    /// Current local raw state (with halo ring). Under AB this is the source
    /// buffer; under AA the slot meaning depends on
    /// [`DistributedSolver::parity`] — `swlb_core::layout::CanonicalRuns` says
    /// where each canonical run lives.
    pub fn local_populations(&self) -> &SoaField<L> {
        self.solver.state()
    }

    /// Mutable local raw state (restart, fault injection in tests).
    pub fn local_populations_mut(&mut self) -> &mut SoaField<L> {
        self.solver.state_mut()
    }

    /// This rank's fluid mass over its owned cells, with no communication: the
    /// solver storage's `fluid_mass` of the owned block, a sum of each cell's
    /// *canonical* populations read in place, so it is scheme-invariant. It
    /// is NaN as soon as any owned non-solid cell holds a non-finite
    /// population, which lets the recovery layer detect divergence from one
    /// reduced scalar.
    pub fn local_mass(&self) -> Scalar {
        let h = self.halo;
        let flags = self.solver.flags();
        self.solver.storage().fluid_mass(flags, h..h + self.lnx, h..h + self.lny)
    }

    /// Global fluid mass (allreduce over interior cells).
    pub fn global_mass(&self) -> Result<Scalar, CommError> {
        Ok(self.comm.allreduce_sum(&[self.local_mass()])?[0])
    }

    /// Gather the full global *canonical* population field on rank 0 (`None`
    /// elsewhere): [`DistributedSolver::capture_chunked`], landed into one
    /// whole-domain field.
    pub fn gather_populations(&self) -> Result<Option<SoaField<L>>, CommError> {
        Ok(self.capture_chunked()?.map(|ck| {
            let mut field = SoaField::<L>::new(self.part.global);
            ck.land(ChunkMeta::whole(ck.dims), field.raw_mut(), self.part.global, (0, 0))
                .expect("a self-capture tiles the domain");
            field
        }))
    }

    /// Capture a checkpoint on rank 0 (`None` elsewhere): each rank packs its
    /// owned interior's *canonical* populations as one chunk, read in place
    /// from its storage, and sends the packed vector to rank 0, which tags
    /// each payload with its global rectangle. Nothing is re-assembled into a
    /// whole-domain field — the chunks stay per-source-rank, which is what
    /// lets a later resume re-shard them onto any layout.
    pub fn capture_chunked(&self) -> Result<Option<ChunkedCheckpoint>, CommError> {
        let (h, nz) = (self.halo, self.part.global.nz);
        let mine = self.part.chunk_meta(self.comm.rank());
        let storage = self.solver.storage();
        let run = |q, x, y| storage.run(q, x + h, y + h);
        let chunk = CheckpointChunk::pack(nz, L::Q, mine, run);
        if self.comm.rank() != 0 {
            self.comm.send(0, CAPTURE_TAG, chunk.data)?;
            return Ok(None);
        }
        let mut chunks = vec![chunk];
        // In rank order: capture is no synchronization point for the other
        // ranks, so a fast rank's next chunk may already be queued, and only
        // per-(src, tag) FIFO keeps it from standing in for this one.
        for rank in 1..self.comm.size() {
            let data = self.comm.recv(rank, CAPTURE_TAG)?;
            chunks.push(CheckpointChunk { meta: self.part.chunk_meta(rank), data });
        }
        let global = self.part.global;
        Ok(Some(ChunkedCheckpoint {
            step: self.solver.step_count(),
            dims: (global.nx as u32, global.ny as u32, global.nz as u32),
            q: L::Q as u32,
            scheme: scheme_byte(self.solver.scheme()),
            chunks,
        }))
    }

    /// Restore from a checkpoint — the one restart path. Rank 0 holds the
    /// checkpoint (ranks other than 0 pass `None`) and lands each rank's owned
    /// rectangle from whichever source chunks overlap it, so the producing
    /// partition (its rank count, its `px × py` shape, a serial single-chunk
    /// capture, a whole-domain file upgraded by the reader) never needs to
    /// match the current one. Payloads are canonical; AA ranks convert to
    /// their raw representation after landing.
    ///
    /// Rank 0 vets the checkpoint before anything moves and broadcasts the
    /// verdict with the step, so a refused restore fails on every rank: rank 0
    /// returns the precise error ([`SwlbError::NoValidCheckpoint`] for `None`),
    /// the others `NoValidCheckpoint` or `CorruptData`.
    pub fn restore_chunked(&mut self, ck: Option<&ChunkedCheckpoint>) -> Result<(), SwlbError> {
        // The verdict rank 0 broadcasts with the step: 0 restores, 1 has no
        // checkpoint, 2 refuses the one it has.
        let h = self.halo;
        if self.comm.rank() != 0 {
            let verdict = self.comm.broadcast(&[0.0; 2])?;
            if verdict[0] != 0.0 {
                return Err(if verdict[0] == 1.0 {
                    SwlbError::NoValidCheckpoint
                } else {
                    SwlbError::CorruptData("rank 0 refused the checkpoint".into())
                });
            }
            let frame = self.comm.recv(0, RESHARD_TAG)?;
            self.unpack(h..h + self.lnx, h..h + self.lny, &frame);
            self.resume_at(verdict[1] as u64);
            return Ok(());
        }
        let global = self.part.global;
        let want = (global.nx as u32, global.ny as u32, global.nz as u32);
        let vetted = match ck {
            Some(ck) => ck.check_fits(want, L::Q as u32).map(|()| ck).map_err(SwlbError::from),
            None => Err(SwlbError::NoValidCheckpoint),
        };
        let verdict = match &vetted {
            Ok(_) => 0.0,
            Err(SwlbError::NoValidCheckpoint) => 1.0,
            Err(_) => 2.0,
        };
        self.comm.broadcast(&[verdict, ck.map_or(0.0, |ck| ck.step as f64)])?;
        let ck = vetted?;
        const VETTED: &str = "a vetted checkpoint lands every owned rectangle";
        for rank in 1..self.comm.size() {
            // A rectangle's SoA grid is the halo frame order `unpack` lands.
            let dims = self.part.local_dims_h(rank, 0);
            let mut frame = vec![0.0; dims.cells() * L::Q];
            ck.land(self.part.chunk_meta(rank), &mut frame, dims, (0, 0)).expect(VETTED);
            self.comm.send(rank, RESHARD_TAG, frame)?;
        }
        let (rect, local) = (self.part.chunk_meta(0), self.solver.dims());
        ck.land(rect, self.solver.state_mut().raw_mut(), local, (h, h)).expect(VETTED);
        self.resume_at(ck.step);
        Ok(())
    }

    /// Adopt the canonical state a restore just landed and resume at `step`
    /// on a block boundary: restarting on the odd AA flavor from a canonical
    /// state is exactly the AB continuation, and the stale ghost ring is
    /// overwritten by the pre-exchange before anything reads it.
    fn resume_at(&mut self, step: u64) {
        self.solver.adopt_canonical(step);
        self.phase = 0;
    }
}

/// The checkpoint header's byte for a storage scheme.
pub(crate) fn scheme_byte(scheme: StorageScheme) -> u8 {
    match scheme {
        StorageScheme::Ab => swlb_io::checkpoint::SCHEME_AB,
        StorageScheme::Aa => swlb_io::checkpoint::SCHEME_AA,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swlb_comm::World;
    use swlb_core::boundary::NodeKind;
    use swlb_core::collision::BgkParams;
    use swlb_core::kernels::fused_step;
    use swlb_core::lattice::{D2Q9, D3Q19};
    use swlb_core::layout::Storage;

    fn reference_run<L: Lattice>(
        global: GridDims,
        flags: &FlagField,
        coll: &CollisionKind,
        steps: u64,
        init: impl Fn(usize, usize, usize) -> (Scalar, [Scalar; 3]) + Sync,
    ) -> SoaField<L> {
        let mut src = SoaField::<L>::new(global);
        swlb_core::kernels::initialize_with::<L, _>(&ThreadPool::new(1), flags, &mut src, init);
        let mut dst = SoaField::<L>::new(global);
        for _ in 0..steps {
            fused_step(flags, &src, &mut dst, coll);
            std::mem::swap(&mut src, &mut dst);
        }
        src
    }

    fn check_distributed_matches_reference<L: Lattice>(
        global: GridDims,
        flags: FlagField,
        nranks: usize,
        mode: ExchangeMode,
        steps: u64,
    ) {
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        let init = |x: usize, y: usize, z: usize| {
            let v = 0.01 * ((x * 7 + y * 3 + z) % 11) as Scalar;
            (1.0 + v, [v * 0.1, -v * 0.05, 0.02 * v])
        };
        let reference = reference_run::<L>(global, &flags, &coll, steps, init);

        let flags_ref = &flags;
        let out = World::new(nranks).run(|comm| {
            let mut s = DistributedSolver::<L>::builder(&comm, global, flags_ref, coll)
                .exchange(mode)
                .build();
            s.initialize_with(init);
            s.run(steps).unwrap();
            s.gather_populations().unwrap()
        });
        let gathered = out[0].as_ref().expect("rank 0 gathers");
        // Exact when dispatch has scalar semantics; under auto-selected AVX2
        // the fused multiply-adds differ from the serial reference by rounding.
        let tol = 1e-14_f64.max(swlb_core::simd::dispatch_tolerance() * 100.0);
        for cell in 0..global.cells() {
            for q in 0..L::Q {
                let (r, g) = (reference.get(cell, q), gathered.get(cell, q));
                assert!(
                    (r - g).abs() < tol,
                    "cell {cell} q {q}: reference {r}, distributed {g}"
                );
            }
        }
    }

    /// Run the same problem distributed under AA-pattern storage and compare
    /// the gathered canonical field against the serial AB reference on every
    /// fluid cell (solid cells hold scheme-dependent mailbox leftovers).
    fn check_aa_distributed_matches_reference<L: Lattice>(
        global: GridDims,
        flags: FlagField,
        nranks: usize,
        mode: ExchangeMode,
        steps: u64,
    ) {
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        let init = |x: usize, y: usize, z: usize| {
            let v = 0.01 * ((x * 7 + y * 3 + z) % 11) as Scalar;
            (1.0 + v, [v * 0.1, -v * 0.05, 0.02 * v])
        };
        let reference = reference_run::<L>(global, &flags, &coll, steps, init);

        let flags_ref = &flags;
        let out = World::new(nranks).run(|comm| {
            let mut s = DistributedSolver::<L>::builder(&comm, global, flags_ref, coll)
                .exchange(mode)
                .storage(StorageScheme::Aa)
                .build();
            s.initialize_with(init);
            s.run(steps).unwrap();
            s.gather_populations().unwrap()
        });
        let gathered = out[0].as_ref().expect("rank 0 gathers");
        let tol = 1e-14_f64.max(swlb_core::simd::dispatch_tolerance() * 100.0);
        for cell in 0..global.cells() {
            if !flags.kind(cell).is_fluid() {
                continue;
            }
            for q in 0..L::Q {
                let (r, g) = (reference.get(cell, q), gathered.get(cell, q));
                assert!(
                    (r - g).abs() < tol,
                    "cell {cell} q {q}: reference {r}, AA-distributed {g}"
                );
            }
        }
    }

    #[test]
    fn aa_single_rank_matches_reference_both_parities() {
        // 5 steps end on the Streamed parity (gather canonicalizes in place),
        // 6 on Reversed (gather un-reverses); both must match AB.
        let global = GridDims::new(6, 6, 3);
        for steps in [5, 6] {
            let mut flags = FlagField::new(global);
            flags.set_box_walls();
            check_aa_distributed_matches_reference::<D3Q19>(
                global,
                flags,
                1,
                ExchangeMode::Sequential,
                steps,
            );
        }
    }

    #[test]
    fn aa_four_ranks_matches_reference_3d_both_modes() {
        let global = GridDims::new(8, 8, 4);
        for mode in [ExchangeMode::Sequential, ExchangeMode::OnTheFly] {
            let mut flags = FlagField::new(global);
            flags.set_box_walls();
            flags.set(4, 4, 2, swlb_core::boundary::NodeKind::Wall);
            check_aa_distributed_matches_reference::<D3Q19>(global, flags, 4, mode, 5);
        }
    }

    #[test]
    fn aa_six_ranks_periodic_2d_matches_reference() {
        let global = GridDims::new2d(12, 9);
        let flags = FlagField::new(global);
        check_aa_distributed_matches_reference::<D2Q9>(global, flags, 6, ExchangeMode::OnTheFly, 5);
    }

    #[test]
    fn aa_two_ranks_wraparound_neighbors() {
        // px = 2: the post-exchange self-send must route wrapped ghost
        // scatters back into the correct owned strips.
        let global = GridDims::new2d(8, 4);
        let flags = FlagField::new(global);
        check_aa_distributed_matches_reference::<D2Q9>(
            global,
            flags,
            2,
            ExchangeMode::Sequential,
            5,
        );
    }

    #[test]
    fn aa_degenerate_subdomains_match_reference() {
        // 6 ranks on 6×4 leave subdomains with lnx ≤ 2: the inner rectangle
        // is empty and the whole odd step runs on the ring path.
        let global = GridDims::new2d(6, 4);
        let flags = FlagField::new(global);
        check_aa_distributed_matches_reference::<D2Q9>(global, flags, 6, ExchangeMode::OnTheFly, 6);
    }

    #[test]
    fn aa_uneven_partition_matches_reference() {
        let global = GridDims::new(10, 7, 3);
        let mut flags = FlagField::new(global);
        flags.set_box_walls();
        check_aa_distributed_matches_reference::<D3Q19>(
            global,
            flags,
            3,
            ExchangeMode::Sequential,
            4,
        );
    }

    #[test]
    fn aa_modes_are_bit_identical() {
        let global = GridDims::new(9, 8, 3);
        let mut flags = FlagField::new(global);
        flags.set_box_walls();
        flags.paint_lid([0.06, 0.0, 0.0]);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.7));
        let flags_ref = &flags;
        let run = |mode: ExchangeMode| {
            World::new(4).run(|comm| {
                let mut s = DistributedSolver::<D3Q19>::builder(&comm, global, flags_ref, coll)
                    .exchange(mode)
                    .storage(StorageScheme::Aa)
                    .build();
                s.initialize_uniform(1.0, [0.0; 3]);
                s.run(5).unwrap();
                s.gather_populations().unwrap()
            })
        };
        let a = run(ExchangeMode::Sequential);
        let b = run(ExchangeMode::OnTheFly);
        let (fa, fb) = (a[0].as_ref().unwrap(), b[0].as_ref().unwrap());
        for cell in 0..global.cells() {
            for q in 0..19 {
                assert_eq!(fa.get(cell, q), fb.get(cell, q), "cell {cell} q {q}");
            }
        }
    }

    #[test]
    fn aa_global_mass_conserved_at_both_parities() {
        let global = GridDims::new2d(12, 12);
        let mut flags = FlagField::new(global);
        flags.set_box_walls();
        flags.paint_lid([0.05, 0.0, 0.0]);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.9));
        let flags_ref = &flags;
        let masses = World::new(4).run(|comm| {
            let mut s = DistributedSolver::<D2Q9>::builder(&comm, global, flags_ref, coll)
                .exchange(ExchangeMode::OnTheFly)
                .storage(StorageScheme::Aa)
                .build();
            s.initialize_uniform(1.0, [0.0; 3]);
            let m0 = s.global_mass().unwrap();
            s.run(7).unwrap(); // odd count: mass measured at Streamed parity
            assert_eq!(s.parity(), Some(AaParity::Streamed));
            let m1 = s.global_mass().unwrap();
            s.run(1).unwrap(); // and again at Reversed
            assert_eq!(s.parity(), Some(AaParity::Reversed));
            let m2 = s.global_mass().unwrap();
            (m0, m1, m2)
        });
        for (m0, m1, m2) in masses {
            assert!((m0 - m1).abs() / m0 < 1e-12, "mass drift {m0} → {m1}");
            assert!((m0 - m2).abs() / m0 < 1e-12, "mass drift {m0} → {m2}");
        }
    }

    #[test]
    fn aa_post_exchange_is_timed_as_pack_and_unpack() {
        // An odd AA k = 1 step runs two exchanges of 8 strips each (pre and
        // post): two pack passes and sixteen strip landings. If the
        // post-exchange escaped the phase timers, half of each would be
        // missing. 8 steps = 4 odd steps; even steps exchange nothing.
        let global = GridDims::new(8, 8, 4);
        let mut flags = FlagField::new(global);
        flags.set_box_walls();
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        let flags_ref = &flags;
        let snaps = World::new(2).run(|comm| {
            let rec = Recorder::enabled();
            let mut s = DistributedSolver::<D3Q19>::builder(&comm, global, flags_ref, coll)
                .storage(StorageScheme::Aa)
                .recorder(rec.clone())
                .build();
            s.initialize_uniform(1.0, [0.0; 3]);
            s.run(8).unwrap();
            rec.snapshot(8).expect("recorder is enabled")
        });
        for (rank, snap) in snaps.iter().enumerate() {
            let calls = |phase: Phase| {
                let p = snap.phases.iter().find(|p| p.name == phase.name());
                p.expect("every phase is exported").calls
            };
            assert_eq!(calls(Phase::HaloUnpack), 16 * 4, "rank {rank}");
            assert_eq!(calls(Phase::HaloPack), 2 * 4, "rank {rank}");
        }
    }

    #[test]
    fn aa_rejects_open_boundaries_with_typed_error() {
        let global = GridDims::new(8, 8, 4);
        let mut flags = FlagField::new(global);
        flags.paint_channel_walls_y();
        flags.paint_inflow_outflow_x(1.0, [0.04, 0.0, 0.0]);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        let flags_ref = &flags;
        let errs = World::new(2).run(|comm| {
            DistributedSolver::<D3Q19>::builder(&comm, global, flags_ref, coll)
                .storage(StorageScheme::Aa)
                .try_build()
                .err()
        });
        for e in errs {
            match e {
                Some(SwlbError::InvalidConfig(msg)) => {
                    assert!(msg.contains("AA-pattern"), "unexpected message: {msg}")
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn flags_that_refused_a_257th_kind_fail_the_build_on_every_rank() {
        let global = GridDims::new(8, 8, 5);
        let mut flags = FlagField::new(global);
        for i in 1..=256 {
            let [x, y, z] = global.coords(i);
            let u = [i as Scalar * 1e-4, 0.0, 0.0];
            flags.set(x, y, z, NodeKind::MovingWall { u });
        }
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        let flags_ref = &flags;
        for scheme in [StorageScheme::Ab, StorageScheme::Aa] {
            let errs = World::new(2).run(|comm| {
                DistributedSolver::<D3Q19>::builder(&comm, global, flags_ref, coll)
                    .storage(scheme)
                    .try_build()
                    .err()
            });
            for e in errs {
                match e {
                    Some(SwlbError::InvalidConfig(msg)) => assert!(msg.contains("256"), "{msg}"),
                    other => panic!("{scheme:?}: expected InvalidConfig, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn aa_rank_reports_a_mutated_inlet_as_a_typed_error() {
        // The serial solver reports AA + open boundary as InvalidConfig when
        // flags change under it; a rank used to `assert!` instead. Rank 0
        // paints an inlet into its local flags mid-run: its next step must
        // fail typed (before sending anything), and the peer, which waits for
        // strips that never come, must leave that wait with a halo error.
        let global = GridDims::new(8, 8, 4);
        let mut flags = FlagField::new(global);
        flags.set_box_walls();
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        let flags_ref = &flags;
        let errs = World::new(2).run(|comm| {
            let mut s = DistributedSolver::<D3Q19>::builder(&comm, global, flags_ref, coll)
                .storage(StorageScheme::Aa)
                .halo_retry(HaloRetry::snappy())
                .build();
            s.initialize_uniform(1.0, [0.0; 3]);
            s.run(2).unwrap();
            if comm.rank() == 0 {
                let inlet = NodeKind::Inlet {
                    rho: 1.0,
                    u: [0.02, 0.0, 0.0],
                };
                s.local_flags_mut().set(2, 2, 1, inlet);
            }
            let err = s.run(1).unwrap_err();
            assert_eq!(s.step_count(), 2, "a refused step does not count");
            err
        });
        match &errs[0] {
            SwlbError::InvalidConfig(msg) => {
                assert!(msg.contains("1 inlet"), "unexpected message: {msg}")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        assert!(
            matches!(
                errs[1],
                SwlbError::CommTimeout { .. } | SwlbError::Disconnected
            ),
            "peer: {:?}",
            errs[1]
        );
    }

    #[test]
    fn single_rank_matches_reference() {
        let global = GridDims::new(6, 6, 3);
        let mut flags = FlagField::new(global);
        flags.set_box_walls();
        check_distributed_matches_reference::<D3Q19>(global, flags, 1, ExchangeMode::Sequential, 4);
    }

    #[test]
    fn four_ranks_sequential_matches_reference_3d() {
        let global = GridDims::new(8, 8, 4);
        let mut flags = FlagField::new(global);
        flags.set_box_walls();
        flags.set(4, 4, 2, swlb_core::boundary::NodeKind::Wall);
        check_distributed_matches_reference::<D3Q19>(global, flags, 4, ExchangeMode::Sequential, 5);
    }

    #[test]
    fn four_ranks_on_the_fly_matches_reference_3d() {
        let global = GridDims::new(8, 8, 4);
        let mut flags = FlagField::new(global);
        flags.paint_channel_walls_y();
        flags.paint_inflow_outflow_x(1.0, [0.04, 0.0, 0.0]);
        check_distributed_matches_reference::<D3Q19>(global, flags, 4, ExchangeMode::OnTheFly, 5);
    }

    #[test]
    fn six_ranks_periodic_2d_matches_reference() {
        let global = GridDims::new2d(12, 9);
        let flags = FlagField::new(global);
        check_distributed_matches_reference::<D2Q9>(global, flags, 6, ExchangeMode::OnTheFly, 6);
    }

    #[test]
    fn uneven_partition_matches_reference() {
        // 10 is not divisible by 3: block sizes 4/3/3 exercise the uneven path.
        let global = GridDims::new(10, 7, 3);
        let mut flags = FlagField::new(global);
        flags.set_box_walls();
        check_distributed_matches_reference::<D3Q19>(global, flags, 3, ExchangeMode::Sequential, 4);
    }

    #[test]
    fn two_ranks_with_wraparound_neighbors() {
        // px = 2: east and west neighbor are the same rank; periodic exchange
        // must still route the strips to the correct halos.
        let global = GridDims::new2d(8, 4);
        let flags = FlagField::new(global);
        check_distributed_matches_reference::<D2Q9>(global, flags, 2, ExchangeMode::Sequential, 5);
    }

    #[test]
    fn sequential_and_on_the_fly_are_bit_identical() {
        let global = GridDims::new(9, 8, 3);
        let mut flags = FlagField::new(global);
        flags.set_box_walls();
        flags.paint_lid([0.06, 0.0, 0.0]);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.7));
        let flags_ref = &flags;

        let run = |mode: ExchangeMode| {
            World::new(4).run(|comm| {
                let mut s = DistributedSolver::<D3Q19>::builder(&comm, global, flags_ref, coll)
                    .exchange(mode)
                    .build();
                s.initialize_uniform(1.0, [0.0; 3]);
                s.run(6).unwrap();
                s.gather_populations().unwrap()
            })
        };
        let a = run(ExchangeMode::Sequential);
        let b = run(ExchangeMode::OnTheFly);
        let (fa, fb) = (a[0].as_ref().unwrap(), b[0].as_ref().unwrap());
        for cell in 0..global.cells() {
            for q in 0..19 {
                assert_eq!(fa.get(cell, q), fb.get(cell, q), "cell {cell} q {q}");
            }
        }
    }

    #[test]
    fn global_mass_is_conserved_across_ranks() {
        let global = GridDims::new2d(12, 12);
        let mut flags = FlagField::new(global);
        flags.set_box_walls();
        flags.paint_lid([0.05, 0.0, 0.0]);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.9));
        let flags_ref = &flags;
        let masses = World::new(4).run(|comm| {
            let mut s = DistributedSolver::<D2Q9>::builder(&comm, global, flags_ref, coll)
                .exchange(ExchangeMode::OnTheFly)
                .build();
            s.initialize_uniform(1.0, [0.0; 3]);
            let m0 = s.global_mass().unwrap();
            s.run(20).unwrap();
            let m1 = s.global_mass().unwrap();
            (m0, m1)
        });
        for (m0, m1) in masses {
            assert!((m0 - m1).abs() / m0 < 1e-12, "mass drift {m0} → {m1}");
        }
    }

    #[test]
    fn flag_mutation_rebuilds_interior_index_and_reports_kernel_class() {
        let global = GridDims::new(10, 10, 12);
        let mut flags = FlagField::new(global);
        flags.set_box_walls();
        flags.paint_lid([0.05, 0.0, 0.0]);
        let params = BgkParams::from_tau(0.8);
        let coll = CollisionKind::Bgk(params);
        // A flow off rest everywhere, so a wall streamed as fluid shows in
        // the bits: at rest, bounce-back equals streaming from a fluid cell.
        let init = |x: usize, y: usize, z: usize| {
            let rho = 1.0 + 1e-3 * ((7 * x + 3 * y + z) % 5) as f64;
            (rho, [0.02 * (y as f64 - 4.5) / 4.5, 0.01 * ((x + z) % 3) as f64, -0.01])
        };
        // The same history on plain solvers: a step, a wall at global
        // (4, 4, 5) — local (5, 5, 5) on the 1-deep ring — and a step, taken
        // by a solver built with the wall, whose index is fresh.
        let mut first = Solver::<D3Q19>::builder(global, params).build();
        *first.flags_mut() = flags.clone();
        first.initialize_field(init);
        first.step();
        let mut reference = Solver::<D3Q19>::builder(global, params).build();
        *reference.flags_mut() = flags.clone();
        reference.flags_mut().set(4, 4, 5, NodeKind::Wall);
        *reference.state_mut() = first.state().clone();
        reference.step();
        let flags_ref = &flags;
        let out = World::new(1).run(|comm| {
            let mut s = DistributedSolver::<D3Q19>::builder(&comm, global, flags_ref, coll)
                .exchange(ExchangeMode::OnTheFly)
                .recorder(Recorder::enabled())
                .build();
            s.initialize_with(init);
            s.step().unwrap();
            let class_before = s.last_kernel_class();
            let active_before = s.owned_fluid;
            // Carve an obstacle out of the inner rectangle through the public
            // mutator; the next step must pick it up (the solver's index
            // rebuilt, one fewer owned fluid cell) without an explicit
            // rebuild call. A stale index would stream the wall as fluid.
            s.local_flags_mut().set(5, 5, 5, NodeKind::Wall);
            s.step().unwrap();
            let gathered = s.gather_populations().unwrap().expect("rank 0 gathers");
            (class_before, active_before, s.owned_fluid, s.last_kernel_class(), gathered)
        });
        let (class_before, active_before, active_after, class_after, gathered) = &out[0];
        assert_eq!(*class_before, swlb_core::simd::selected_kernel_class());
        assert_ne!(*class_before, KernelClass::Generic);
        assert_eq!(class_after, class_before);
        assert_eq!(*active_before, Some(8 * 8 * 10));
        assert_eq!(*active_after, Some(8 * 8 * 10 - 1));
        let tol = 1e-14_f64.max(swlb_core::simd::dispatch_tolerance() * 100.0);
        for cell in 0..global.cells() {
            for q in 0..D3Q19::Q {
                let (r, g) = (reference.state().get(cell, q), gathered.get(cell, q));
                assert!((r - g).abs() < tol, "cell {cell} q {q}: {r} vs {g}");
            }
        }
    }

    /// Distributed depth-k run vs the serial per-step reference. Exact on
    /// scalar-semantics lanes; the dispatch tolerance absorbs fast/generic
    /// path differences at the redundantly recomputed ghost borders.
    fn check_blocked_matches_reference<L: Lattice>(
        global: GridDims,
        flags: FlagField,
        nranks: usize,
        mode: ExchangeMode,
        scheme: StorageScheme,
        time_block: usize,
        steps: u64,
    ) {
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        let init = |x: usize, y: usize, z: usize| {
            let v = 0.01 * ((x * 7 + y * 3 + z) % 11) as Scalar;
            (1.0 + v, [v * 0.1, -v * 0.05, 0.02 * v])
        };
        let reference = reference_run::<L>(global, &flags, &coll, steps, init);

        let flags_ref = &flags;
        let out = World::new(nranks).run(|comm| {
            let mut s = DistributedSolver::<L>::builder(&comm, global, flags_ref, coll)
                .exchange(mode)
                .storage(scheme)
                .time_block(time_block)
                .build();
            s.initialize_with(init);
            s.run(steps).unwrap();
            s.gather_populations().unwrap()
        });
        let gathered = out[0].as_ref().expect("rank 0 gathers");
        let tol = 1e-14_f64.max(swlb_core::simd::dispatch_tolerance() * 100.0);
        for cell in 0..global.cells() {
            if scheme == StorageScheme::Aa && !flags.kind(cell).is_fluid() {
                continue;
            }
            for q in 0..L::Q {
                let (r, g) = (reference.get(cell, q), gathered.get(cell, q));
                assert!(
                    (r - g).abs() < tol,
                    "k={time_block} {scheme:?} {mode:?} cell {cell} q {q}: \
                     reference {r}, blocked {g}"
                );
            }
        }
    }

    #[test]
    fn blocked_ab_matches_reference_both_modes() {
        let global = GridDims::new(8, 8, 4);
        for mode in [ExchangeMode::Sequential, ExchangeMode::OnTheFly] {
            for k in [2usize, 4] {
                let mut flags = FlagField::new(global);
                flags.set_box_walls();
                flags.set(4, 4, 2, swlb_core::boundary::NodeKind::Wall);
                check_blocked_matches_reference::<D3Q19>(
                    global,
                    flags,
                    4,
                    mode,
                    StorageScheme::Ab,
                    k,
                    8,
                );
            }
        }
    }

    #[test]
    fn blocked_aa_matches_reference_both_modes() {
        let global = GridDims::new(8, 8, 4);
        for mode in [ExchangeMode::Sequential, ExchangeMode::OnTheFly] {
            for k in [2usize, 4] {
                let mut flags = FlagField::new(global);
                flags.set_box_walls();
                flags.set(4, 4, 2, swlb_core::boundary::NodeKind::Wall);
                check_blocked_matches_reference::<D3Q19>(
                    global,
                    flags,
                    4,
                    mode,
                    StorageScheme::Aa,
                    k,
                    8,
                );
            }
        }
    }

    #[test]
    fn blocked_run_may_end_mid_block() {
        // Owned cells are valid after every intra-block step, so a step count
        // that is not a multiple of k still gathers the exact state.
        let global = GridDims::new(8, 8, 4);
        let mut flags = FlagField::new(global);
        flags.set_box_walls();
        check_blocked_matches_reference::<D3Q19>(
            global,
            flags,
            4,
            ExchangeMode::OnTheFly,
            StorageScheme::Ab,
            4,
            7,
        );
    }

    #[test]
    fn blocked_degenerate_subdomains_use_multiple_rounds() {
        // 6 ranks on 6x4: every subdomain is 2x2, so an h=4 ring needs
        // R = ceil(4/2) = 2 exchange rounds per block.
        let global = GridDims::new(6, 4, 3);
        for scheme in [StorageScheme::Ab, StorageScheme::Aa] {
            let mut flags = FlagField::new(global);
            flags.set_box_walls();
            check_blocked_matches_reference::<D3Q19>(
                global,
                flags,
                6,
                ExchangeMode::Sequential,
                scheme,
                4,
                8,
            );
        }
    }

    #[test]
    fn blocked_2d_periodic_matches_reference() {
        // Fully periodic D2Q9 with wraparound neighbors exercises the
        // deep-ring ghost sampling across the domain edge.
        let global = GridDims::new2d(9, 8);
        check_blocked_matches_reference::<D2Q9>(
            global,
            FlagField::new(global),
            2,
            ExchangeMode::OnTheFly,
            StorageScheme::Ab,
            2,
            6,
        );
    }

    #[test]
    fn blocked_halo_messages_drop_by_exactly_k() {
        // 8 sends per exchange; blocking exchanges once per k steps, so the
        // per-step message count falls by exactly k for both schemes.
        let global = GridDims::new(8, 8, 4);
        let steps = 8u64;
        // (messages, bytes) summed over the 4 ranks.
        let count = |scheme: StorageScheme, k: usize| -> (u64, u64) {
            let mut flags = FlagField::new(global);
            flags.set_box_walls();
            let flags_ref = &flags;
            let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
            let out = World::new(4).run(|comm| {
                let rec = Recorder::enabled();
                let msgs = rec.counter("halo.messages");
                let bytes = rec.counter("halo.bytes");
                let mut s = DistributedSolver::<D3Q19>::builder(&comm, global, flags_ref, coll)
                    .storage(scheme)
                    .time_block(k)
                    .recorder(rec)
                    .build();
                s.initialize_uniform(1.0, [0.0; 3]);
                s.run(steps).unwrap();
                (msgs.get(), bytes.get())
            });
            out.iter().fold((0, 0), |(m, b), (rm, rb)| (m + rm, b + rb))
        };
        // The ratio alone survives a refactor that doubles or drops both of
        // its sides, so the absolute traffic is pinned too: 4 ranks x 8 steps
        // x 8 strips for AB, 4 ranks x 4 odd steps x (8 pre + 8 post) for AA.
        // The byte totals (the same for both schemes) are the values measured
        // before the four step drivers were folded into one.
        for scheme in [StorageScheme::Ab, StorageScheme::Aa] {
            let (base, base_bytes) = count(scheme, 1);
            assert_eq!(base, 256, "{scheme:?}: k=1 message count");
            assert_eq!(base_bytes, 395_264, "{scheme:?}: k=1 bytes");
            for (k, pinned_bytes) in [(2u64, 470_016u64), (4, 624_128)] {
                let (blocked, blocked_bytes) = count(scheme, k as usize);
                assert_eq!(blocked_bytes, pinned_bytes, "{scheme:?}: k={k} bytes");
                assert_eq!(
                    blocked * k,
                    base,
                    "{scheme:?}: k={k} must cut messages by exactly {k}x \
                     ({base} -> {blocked})"
                );
            }
        }
    }

    #[test]
    fn blocked_builder_rejects_odd_aa_depth() {
        let global = GridDims::new(8, 8, 4);
        let flags = FlagField::new(global);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        World::new(1).run(|comm| {
            let err = DistributedSolver::<D3Q19>::builder(&comm, global, &flags, coll)
                .storage(StorageScheme::Aa)
                .time_block(3)
                .try_build()
                .map(|_| ())
                .unwrap_err();
            assert!(matches!(err, SwlbError::InvalidConfig(_)), "{err}");
            let err = DistributedSolver::<D3Q19>::builder(&comm, global, &flags, coll)
                .time_block(0)
                .try_build()
                .map(|_| ())
                .unwrap_err();
            assert!(matches!(err, SwlbError::InvalidConfig(_)), "{err}");
        });
    }

    #[test]
    fn blocked_restore_resumes_at_block_boundary() {
        // Capture mid-run, restore into a blocked solver, continue: the
        // restore resets the intra-block phase, so the continuation
        // re-exchanges before reading ghosts and still matches the reference.
        let global = GridDims::new(8, 8, 4);
        let mut flags = FlagField::new(global);
        flags.set_box_walls();
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        let init = |x: usize, y: usize, z: usize| {
            let v = 0.01 * ((x * 7 + y * 3 + z) % 11) as Scalar;
            (1.0 + v, [v * 0.1, -v * 0.05, 0.02 * v])
        };
        let reference = reference_run::<D3Q19>(global, &flags, &coll, 10, init);
        let flags_ref = &flags;
        let out = World::new(4).run(|comm| {
            let mut s = DistributedSolver::<D3Q19>::builder(&comm, global, flags_ref, coll)
                .time_block(2)
                .build();
            s.initialize_with(init);
            s.run(6).unwrap();
            assert_eq!(s.block_phase(), 0, "6 steps = 3 whole blocks");
            let ck = s.capture_chunked().unwrap();
            // Wreck the live state, then roll back to the checkpoint.
            s.local_populations_mut().raw_mut().fill(7.0);
            s.bump_epoch();
            s.restore_chunked(ck.as_ref()).unwrap();
            s.run(4).unwrap();
            s.gather_populations().unwrap()
        });
        let gathered = out[0].as_ref().expect("rank 0 gathers");
        let tol = 1e-14_f64.max(swlb_core::simd::dispatch_tolerance() * 100.0);
        for cell in 0..global.cells() {
            for q in 0..D3Q19::Q {
                let (r, g) = (reference.get(cell, q), gathered.get(cell, q));
                assert!((r - g).abs() < tol, "cell {cell} q {q}: {r} vs {g}");
            }
        }
    }

    /// The per-cell reference of where a canonical population lives: AB at
    /// the cell, AA `Reversed` at its opposite slots, AA `Streamed` at
    /// `(cell + c_q, q)` with periodic wrap.
    fn canonical_cell<L: Lattice>(
        st: &Storage<SoaField<L>>,
        [x, y, z]: [usize; 3],
        f: &mut [Scalar],
    ) {
        let (src, dims) = (st.state(), st.state().dims());
        for (q, v) in f.iter_mut().enumerate().take(L::Q) {
            *v = match st.parity() {
                None => src.get(dims.idx(x, y, z), q),
                Some(AaParity::Reversed) => src.get(dims.idx(x, y, z), L::OPP[q]),
                Some(AaParity::Streamed) => {
                    let [a, b, d] = dims.neighbor_periodic(x, y, z, L::C[q]);
                    src.get(dims.idx(a, b, d), q)
                }
            };
        }
    }

    #[test]
    fn capture_matches_a_per_cell_canonical_reference() {
        // Each rank's chunk is its owned block read one cell at a time through
        // the per-cell reference, in chunk order, and its `local_mass` is the
        // (y, x, z, q) sum of the same reads over its fluid cells, bit for
        // bit: under AB, and under AA at both parities (5 steps end Streamed,
        // 6 Reversed), with 1- and 2-deep rings (at k = 2, 5 steps stop
        // mid-block, and Streamed runs come out of the 2-deep ring).
        let global = GridDims::new(7, 6, 5);
        let mut flags = FlagField::new(global);
        flags.set_box_walls();
        flags.paint_lid([0.05, 0.0, 0.0]);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        let flags_ref = &flags;
        for (ranks, k) in [(1, 1), (2, 1), (1, 2), (2, 2)] {
            for scheme in [StorageScheme::Ab, StorageScheme::Aa] {
                for steps in [5, 6] {
                    let out = World::new(ranks).run(|comm| {
                        let mut s =
                            DistributedSolver::<D3Q19>::builder(&comm, global, flags_ref, coll)
                                .storage(scheme)
                                .time_block(k)
                                .build();
                        s.initialize_with(|x, y, z| {
                            (1.0 + 0.01 * ((x + 2 * y + 3 * z) % 7) as Scalar, [0.0; 3])
                        });
                        s.run(steps).unwrap();
                        let (dims, h) = (s.local_flags().dims(), s.halo);
                        let mut f = [0.0; D3Q19::Q];
                        let (mut want, mut mass) = (Vec::new(), 0.0);
                        for y in h..h + s.lny {
                            for x in h..h + s.lnx {
                                for z in 0..dims.nz {
                                    canonical_cell(s.solver.storage(), [x, y, z], &mut f);
                                    want.extend_from_slice(&f);
                                    if s.local_flags().kind(dims.idx(x, y, z)).is_fluid() {
                                        f.iter().for_each(|v| mass += v);
                                    }
                                }
                            }
                        }
                        assert_eq!(s.block_phase(), steps as usize % k);
                        let what = format!("k={k} {scheme:?} {steps} steps, rank {}", comm.rank());
                        assert_eq!(s.local_mass().to_bits(), mass.to_bits(), "{what}");
                        (want, s.capture_chunked().unwrap())
                    });
                    let ck = out[0].1.as_ref().expect("rank 0 captures");
                    assert_eq!(ck.chunks.len(), ranks);
                    for (rank, (want, _)) in out.iter().enumerate() {
                        assert!(
                            ck.chunks[rank].data == *want,
                            "{ranks} ranks k={k} {scheme:?} {steps} steps: rank {rank}'s chunk"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_non_finite_owned_cell_makes_local_mass_nan() {
        // NaN, then +Inf, in a fluid cell under AB and under AA at both
        // parities, and in an inflow cell of an AB channel: the owning rank's
        // mass is NaN and its peer's stays finite.
        let global = GridDims::new(8, 6, 4);
        let mut cavity = FlagField::new(global);
        cavity.set_box_walls();
        cavity.paint_lid([0.05, 0.0, 0.0]);
        let mut channel = FlagField::new(global);
        channel.paint_channel_walls_y();
        channel.paint_inflow_outflow_x(1.0, [0.03, 0.0, 0.0]);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        for poison in [Scalar::NAN, Scalar::INFINITY] {
            for (flags, scheme, steps, at) in [
                (&cavity, StorageScheme::Ab, 2, [2, 2, 1]),
                (&cavity, StorageScheme::Aa, 2, [2, 2, 1]),
                (&cavity, StorageScheme::Aa, 3, [2, 2, 1]),
                (&channel, StorageScheme::Ab, 2, [0, 2, 1]),
            ] {
                let masses = World::new(2).run(|comm| {
                    let mut s = DistributedSolver::<D3Q19>::builder(&comm, global, flags, coll)
                        .storage(scheme)
                        .build();
                    s.initialize_uniform(1.0, [0.0; 3]);
                    s.run(steps).unwrap();
                    if comm.rank() == 0 {
                        // Rank 0 owns the global origin, `halo` cells in.
                        let (dims, h) = (s.local_flags().dims(), s.halo);
                        let cell = dims.idx(at[0] + h, at[1] + h, at[2]);
                        assert!(!s.local_flags().kind(cell).is_solid());
                        s.local_populations_mut().set(cell, 0, poison);
                    }
                    s.local_mass()
                });
                let what = format!("{poison} at {at:?}, {scheme:?} after {steps} steps");
                assert!(masses[0].is_nan(), "{what}: rank 0 reads {}", masses[0]);
                assert!(masses[1].is_finite(), "{what}: rank 1 reads {}", masses[1]);
            }
        }
    }

    #[test]
    fn untileable_layout_is_a_typed_error_on_every_rank() {
        // Three ranks balance to 3×1, and a 2-wide footprint has no third
        // column: every rank refuses on its own, none waits on another.
        let global = GridDims::new(2, 8, 4);
        let flags = FlagField::new(global);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        let errs = World::new(3).run(|comm| {
            DistributedSolver::<D3Q19>::builder(&comm, global, &flags, coll)
                .try_build()
                .err()
        });
        for (rank, err) in errs.iter().enumerate() {
            assert!(
                matches!(err, Some(SwlbError::InvalidConfig(m)) if m.contains("cannot tile")),
                "rank {rank}: {err:?}"
            );
        }
    }

    #[test]
    fn refused_restore_fails_on_every_rank() {
        // Rank 0 refuses each of these; its peer must leave the restore with
        // an error too instead of waiting for a broadcast or a payload. The
        // world runs on its own thread so a hang fails the test.
        let global = GridDims::new(8, 8, 4);
        let zeros = [0.0; 4];
        let zero = |_, _, _| (&zeros[..], 0);
        let q = D3Q19::Q as u32;
        let ab = swlb_io::checkpoint::SCHEME_AB;
        let wrong_dims = ChunkedCheckpoint::single_chunk(3, (6, 8, 4), q, ab, zero);
        let wrong_q = ChunkedCheckpoint::single_chunk(3, (8, 8, 4), 9, ab, zero);
        let mut half = ChunkedCheckpoint::single_chunk(3, (8, 8, 4), q, ab, zero);
        let west = swlb_io::ChunkMeta {
            x0: 0,
            y0: 0,
            lnx: 4,
            lny: 8,
        };
        half.chunks[0] = CheckpointChunk::pack(4, D3Q19::Q, west, zero);
        for (what, ck) in [
            ("wrong dims", Some(wrong_dims)),
            ("wrong q", Some(wrong_q)),
            ("half the domain", Some(half)),
            ("no checkpoint", None),
        ] {
            let missing = ck.is_none();
            let (tx, rx) = std::sync::mpsc::channel();
            let world = std::thread::spawn(move || {
                let mut flags = FlagField::new(global);
                flags.set_box_walls();
                let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
                let errs = World::new(2).run(|comm| {
                    let mut s =
                        DistributedSolver::<D3Q19>::builder(&comm, global, &flags, coll).build();
                    s.initialize_uniform(1.0, [0.0; 3]);
                    s.restore_chunked(ck.as_ref().filter(|_| comm.rank() == 0))
                        .err()
                });
                let _ = tx.send(errs);
            });
            let errs = rx
                .recv_timeout(Duration::from_secs(20))
                .unwrap_or_else(|e| panic!("{what}: the world did not return ({e})"));
            world.join().expect("the world thread returned");
            for (rank, err) in errs.iter().enumerate() {
                match (missing, err) {
                    (true, Some(SwlbError::NoValidCheckpoint)) => {}
                    (false, Some(SwlbError::CorruptData(_))) => {}
                    (_, other) => panic!("{what}: rank {rank} returned {other:?}"),
                }
            }
        }
    }

    #[test]
    fn halo_strips_round_trip_bit_identically() {
        // Every corner, edge and face strip of a 2-deep ring, plus the whole
        // owned block: pack from a field of distinct values, land on a zeroed
        // one, and exactly the strip's slots come back, bit for bit.
        type S<'a> = DistributedSolver<'a, D3Q19>;
        let global = GridDims::new(7, 6, 5);
        let flags = FlagField::new(global);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        World::new(1).run(|comm| {
            let mut s = S::builder(&comm, global, &flags, coll).time_block(2).build();
            for (i, v) in s.local_populations_mut().raw_mut().iter_mut().enumerate() {
                *v = i as Scalar + 0.25;
            }
            let src = s.local_populations().clone();
            let (lnx, lny, h) = (s.lnx, s.lny, s.halo);
            let dims = src.dims();
            for &(dx, dy) in NEIGHBOR_OFFSETS.iter().chain(&[(0, 0)]) {
                let (xr, yr) = (S::send_range(dx, lnx, h), S::send_range(dy, lny, h));
                let mut buf = Vec::new();
                S::pack_strip(&src, xr.clone(), yr.clone(), &mut buf);
                // Plane-major: the frame opens with plane 0's first row.
                let (at, run) = (dims.idx(xr.start, yr.start, 0), xr.len() * dims.nz);
                assert_eq!(buf[..run], src.plane(0)[at..at + run]);
                s.local_populations_mut().raw_mut().fill(0.0);
                s.unpack(xr.clone(), yr.clone(), &buf);
                let got = s.local_populations();
                for cell in 0..dims.cells() {
                    let [x, y, _] = dims.coords(cell);
                    let inside = xr.contains(&x) && yr.contains(&y);
                    for q in 0..D3Q19::Q {
                        let want = if inside { src.get(cell, q) } else { 0.0 };
                        assert_eq!(got.get(cell, q).to_bits(), want.to_bits(), "({dx}, {dy})");
                    }
                }
            }
        });
    }

    /// A halo receive escalates after `max_attempts` charged attempts, a
    /// timeout and a corrupt copy alike: as `Corrupt` when any copy was
    /// corrupt, as `Timeout` otherwise. One rank is its own neighbor in every
    /// direction, so nothing but the faulted strip is in flight on its tag.
    #[test]
    fn halo_receive_escalates_after_max_attempts() {
        use swlb_comm::{ChaosComm, FaultPlan};
        let global = GridDims::new(8, 6, 1);
        let flags = FlagField::new(global);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        let retry = HaloRetry {
            base_timeout: Duration::from_millis(5),
            max_backoff: Duration::from_millis(20),
            max_attempts: 3,
        };
        let tag = Exchange::Pre(0).tag(0);
        let corrupt = FaultPlan::new(7).corrupt_message(0, tag, 0);
        let dropped = FaultPlan::new(7).drop_message(0, tag, 0);
        for (plan, want) in [(corrupt, [3, 1, 0]), (dropped, [3, 0, 1])] {
            let flags_ref = &flags;
            let out = World::new(1).run_chaos(&std::sync::Arc::new(plan), |comm| {
                let rec = Recorder::enabled();
                type S<'c> = DistributedSolver<'c, D2Q9, ChaosComm>;
                let mut s = S::builder(&comm, global, flags_ref, coll)
                    .halo_retry(retry)
                    .recorder(rec.clone())
                    .build();
                s.initialize_uniform(1.0, [0.0; 3]);
                let err = s.step().expect_err("a faulted strip is never healed");
                let snap = rec.snapshot(0).expect("recorder is enabled");
                let count = |name| snap.counter(name).unwrap_or(0);
                (err, [count("halo.retries"), count("halo.corrupt"), count("halo.timeouts")])
            });
            let (err, counts) = &out[0];
            match err {
                SwlbError::CommCorrupt { .. } => assert_eq!(want[1], 1, "{err:?}"),
                SwlbError::CommTimeout { attempts: 3, .. } => assert_eq!(want[2], 1, "{err:?}"),
                other => panic!("unexpected halo failure {other:?}"),
            }
            assert_eq!(*counts, want, "retries, corrupt, timeouts after {err:?}");
        }
    }
}
