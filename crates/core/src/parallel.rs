//! Shared-memory parallel execution of the fused kernel.
//!
//! On the Sunway machines fine-grained parallelism belongs to the CPE cluster
//! (emulated in `swlb-arch`); on an ordinary multicore host the natural analog is
//! a thread per y-slab. The pull scheme makes this easy to reason about: a step
//! reads only from `src` and writes only to `dst`, and slabs with disjoint y-ranges
//! write disjoint `dst` cells, so the only unsafe code needed is a `Send + Sync`
//! raw-pointer wrapper around the destination buffer.
//!
//! The pool is **persistent**: `threads − 1` workers are spawned once at
//! construction and parked on a condvar between steps, and a step dispatches a
//! plain `(fn, ctx)` pair — no per-step thread spawn, no boxed closures, no
//! channel traffic — so a steady-state step performs zero heap allocations.
//! Work is distributed by atomic slab stealing over a contiguous, balanced
//! y-partition that is **finer than the thread count** (`slab_count`), so a
//! participant that finishes early takes what is left instead of waiting for
//! the slower one; the caller participates as worker 0. There is **one**
//! dispatch protocol (`ThreadPool::dispatch`) under the AB and the AA step,
//! and it admits one dispatcher at a time: clones of a pool share its workers,
//! so a second concurrent caller waits its turn.
//!
//! Each slab runs the one interior loop nest of [`crate::simd`] over
//! run-length interior runs when the field is SoA/D3Q19, the collision is
//! plain BGK, and the caller supplied an interior index — on the
//! AVX-512/AVX2+FMA lane when the CPU supports it, else the portable lane or
//! per-cell scalar updates. By default the nest streams the whole z extent of
//! every pencil: a fused pull sweep reads each population once per step, so a
//! cache host has nothing for a z-tile to keep resident. The paper's 64×3×70
//! blocking feeds a 64 KB software-managed LDM (reproduced in `swlb-arch`);
//! here it is the explicit opt-in [`ThreadPool::with_tile_z`].
//! Everything else — other lattices, layouts and operators, and the
//! non-interior remainder cells — runs the generic cell body of
//! [`crate::kernels`]. Results are bit-for-bit identical to
//! [`crate::kernels::fused_step`] regardless of thread count or tile size on
//! the scalar-semantics paths (per-cell updates are independent), and within
//! 1e-12 under the FMA lanes.

use crate::collision::CollisionKind;
use crate::flags::FlagField;
use crate::kernels::{aa_generic_rect, generic_rect, InteriorIndex, SharedWriter};
use crate::lattice::{Lattice, D3Q19};
use crate::layout::{AaParity, PopField, SoaField};
use crate::simd::{aa_interior_sweep, ab_interior_sweep, select_fast_path, KernelClass};
use std::any::{Any, TypeId};
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Persistent worker pool.
// ---------------------------------------------------------------------------

/// A type-erased job: workers call `func(ctx)` once per wake-up. The context
/// points into the dispatching caller's stack; the dispatch protocol (the
/// caller blocks until every worker has finished) keeps it alive.
#[derive(Clone, Copy)]
struct Job {
    func: unsafe fn(*const ()),
    ctx: *const (),
}

// SAFETY: `ctx` only ever points at a `SlabJob<F>` with `F: Sync` (see
// `ThreadPool::for_each_slab`), which is therefore shareable across threads.
unsafe impl Send for Job {}

struct PoolState {
    job: Option<Job>,
    /// Bumped once per dispatched job; workers run each generation exactly once.
    generation: u64,
    /// Workers still executing the current generation.
    active: usize,
    shutdown: bool,
    panicked: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// Nanoseconds each participant (0 = the dispatching caller) has spent
    /// inside job bodies, and the dispatches' total wall time. Statistics
    /// only: `Relaxed`, they publish no other data.
    busy_ns: Vec<AtomicU64>,
    wall_ns: AtomicU64,
}

impl PoolShared {
    /// Run the job as participant `who`, adding its duration to `busy_ns`.
    ///
    /// # Safety
    /// The contract of [`ThreadPool::dispatch`].
    unsafe fn timed(&self, who: usize, job: Job) -> std::thread::Result<()> {
        let t0 = Instant::now();
        // The job body only touches per-slab state; a panic is recorded and
        // re-raised on the dispatching thread so the pool stays usable.
        // SAFETY: the caller's contract.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (job.func)(job.ctx) }));
        self.busy_ns[who].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }
}

struct PoolInner {
    shared: Arc<PoolShared>,
    /// Held by the dispatcher for the whole of a dispatch: `state` has one job
    /// slot and one `active` count, so two callers (clones share the workers)
    /// must take turns.
    turn: Mutex<()>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Drop for PoolInner {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.handles.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: Arc<PoolShared>, who: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen {
                    if let Some(job) = st.job {
                        seen = st.generation;
                        break job;
                    }
                }
                st = shared.work_cv.wait(st).unwrap();
            }
        };
        // SAFETY: the dispatcher keeps `job.ctx` alive until `active` is 0.
        let result = unsafe { shared.timed(who, job) };
        let mut st = shared.state.lock().unwrap();
        if result.is_err() {
            st.panicked = true;
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// Thread-count + tile-size configuration and the persistent worker pool that
/// executes fused steps.
///
/// Cloning is cheap and shares the underlying workers; clones may dispatch
/// from different threads, one dispatch at a time. Equality and `Debug` look
/// at the configuration only.
#[derive(Clone)]
pub struct ThreadPool {
    threads: usize,
    tile_z: usize,
    inner: Option<Arc<PoolInner>>,
}

impl fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .field("tile_z", &self.tile_z)
            .finish()
    }
}

impl PartialEq for ThreadPool {
    fn eq(&self, other: &Self) -> bool {
        self.threads == other.threads && self.tile_z == other.tile_z
    }
}

impl Eq for ThreadPool {}

impl ThreadPool {
    /// Use exactly `threads` worker threads (≥ 1). `threads − 1` persistent
    /// workers are spawned immediately; the calling thread participates in
    /// every step as the remaining worker.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let inner = (threads > 1).then(|| {
            let shared = Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    job: None,
                    generation: 0,
                    active: 0,
                    shutdown: false,
                    panicked: false,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
                busy_ns: (0..threads).map(|_| AtomicU64::new(0)).collect(),
                wall_ns: AtomicU64::new(0),
            });
            let handles = (1..threads)
                .map(|who| {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("swlb-pool-{who}"))
                        .spawn(move || worker_loop(shared, who))
                        .expect("spawn pool worker")
                })
                .collect();
            Arc::new(PoolInner {
                shared,
                turn: Mutex::new(()),
                handles: Mutex::new(handles),
            })
        });
        Self {
            threads,
            tile_z: 0,
            inner,
        }
    }

    /// Use the machine's available parallelism.
    pub fn auto() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// Walk the interior loop nest in z-tiles of `tile_z` cells instead of
    /// streaming every pencil's whole z extent (`0`, the default). An explicit
    /// opt-in: no cache host measured so far prefers a tile (the benchmark's
    /// `core.ladder.tiled` rung keeps pricing 70, the paper's LDM blocking).
    pub fn with_tile_z(mut self, tile_z: usize) -> Self {
        self.tile_z = tile_z;
        self
    }

    /// Number of worker threads (including the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// z-tile extent of the interior loop nest (`0` = no blocking).
    pub fn tile_z(&self) -> usize {
        self.tile_z
    }

    /// The fewest rows of `row_cells` cells that one dispatch cuts into its
    /// full slab count — what a caller that dispatches a grid piecewise (the
    /// wavefront of [`crate::temporal`]) should hand over at a time, so each
    /// piece balances as well as a whole-grid dispatch. One row for a 1-thread
    /// pool, which dispatches inline.
    pub(crate) fn balanced_rows(&self, row_cells: usize) -> usize {
        if self.threads == 1 {
            return 1;
        }
        self.threads * SLABS_PER_THREAD * min_slab_rows(row_cells)
    }

    /// `(Σ busy, wall)` nanoseconds since construction: the time all
    /// participants have spent inside job bodies, and the time dispatches have
    /// taken end to end. `Δbusy / (threads · Δwall)` over an interval is the
    /// pool's busy share — what is missing from 1 went to wake-up latency and
    /// to waiting for the last participant. `(0, 0)` for a 1-thread pool,
    /// which runs inline and reads no clock.
    pub fn busy_wall_ns(&self) -> (u64, u64) {
        let Some(inner) = &self.inner else {
            return (0, 0);
        };
        let shared = &inner.shared;
        let busy = shared.busy_ns.iter().map(|a| a.load(Ordering::Relaxed));
        (busy.sum(), shared.wall_ns.load(Ordering::Relaxed))
    }

    /// Run `func(ctx)` once on every pool thread, the caller included, and
    /// return when all of them have finished — the one dispatch protocol:
    /// take the turn, install the job, wake the workers, participate, wait,
    /// clear, re-raise any panic. A 1-thread pool runs `func(ctx)` inline.
    ///
    /// # Safety
    /// `func(ctx)` must be sound to run concurrently on `threads` threads for
    /// as long as this call lasts.
    unsafe fn dispatch(&self, func: unsafe fn(*const ()), ctx: *const ()) {
        let Some(inner) = &self.inner else {
            // SAFETY: the caller's contract, on one thread.
            return unsafe { func(ctx) };
        };
        // The guard protects no data, so a turn poisoned by a dispatcher that
        // re-raised a job panic below is still a valid turn.
        let _turn = inner.turn.lock().unwrap_or_else(|e| e.into_inner());
        let (job, t0) = (Job { func, ctx }, Instant::now());
        {
            let mut st = inner.shared.state.lock().unwrap();
            st.job = Some(job);
            st.generation += 1;
            st.active = self.threads - 1;
        }
        inner.shared.work_cv.notify_all();
        // Participate as worker 0. Even if this panics, we must wait for the
        // workers before unwinding: the job context lives on the caller's
        // stack frame.
        // SAFETY: the caller's contract.
        let mine = unsafe { inner.shared.timed(0, job) };
        let panicked = {
            let mut st = inner.shared.state.lock().unwrap();
            while st.active > 0 {
                st = inner.shared.done_cv.wait(st).unwrap();
            }
            st.job = None;
            std::mem::replace(&mut st.panicked, false)
        };
        let wall = t0.elapsed().as_nanos() as u64;
        inner.shared.wall_ns.fetch_add(wall, Ordering::Relaxed);
        if let Err(payload) = mine {
            resume_unwind(payload);
        }
        if panicked {
            panic!("worker thread panicked");
        }
    }

    /// Run `slab(ys)` for every slab of the balanced partition of `yr` (rows
    /// of `row_cells` cells) into [`slab_count`] contiguous slabs, on all pool
    /// threads at once (atomic slab stealing) — the one dispatch under the
    /// sweeps and under the pencil walks of [`crate::layout`]. `slab` lives
    /// on this stack frame: no allocation.
    pub(crate) fn for_each_slab<F: Fn(Range<usize>) + Sync>(
        &self,
        yr: Range<usize>,
        row_cells: usize,
        slab: F,
    ) {
        let job = SlabJob {
            n_slabs: slab_count(self.threads, yr.len(), row_cells),
            yr,
            next: AtomicUsize::new(0),
            slab,
        };
        // SAFETY: `run_slabs::<F>` only shares `job` (`F: Sync`, the rest is
        // plain data and an atomic), which outlives the dispatch.
        unsafe { self.dispatch(run_slabs::<F>, &job as *const SlabJob<F> as *const ()) };
    }

    /// One fused stream+collide step executed by all worker threads, returning
    /// the [`KernelClass`] that served the interior cells.
    ///
    /// Produces the same `dst` state as [`crate::kernels::fused_step`]
    /// (verified by tests and property tests), independent of thread count and
    /// tile size — bit-for-bit on the scalar-semantics paths, within 1e-12
    /// under the FMA lanes. When `interior` is supplied, the field is
    /// SoA/D3Q19 and the collision is plain BGK, interior cells run the
    /// interior loop nest (on the fastest eligible lane) and only the
    /// remainder takes the generic body; otherwise the whole slab runs the
    /// generic body.
    pub fn fused_step<L: Lattice, F: PopField<L>>(
        &self,
        flags: &FlagField,
        src: &F,
        dst: &mut F,
        collision: &CollisionKind,
        interior: Option<&InteriorIndex>,
    ) -> KernelClass {
        let dims = flags.dims();
        self.step_rect::<L, F>(flags, src, dst, collision, 0..dims.nx, 0..dims.ny, interior)
    }

    /// [`ThreadPool::fused_step`] restricted to the rectangle `xr × yr` (full z
    /// depth) — the entry point the distributed engine uses for every sweep
    /// of a subdomain, inner rectangle and frame strips alike.
    #[allow(clippy::too_many_arguments)]
    pub fn step_rect<L: Lattice, F: PopField<L>>(
        &self,
        flags: &FlagField,
        src: &F,
        dst: &mut F,
        collision: &CollisionKind,
        xr: Range<usize>,
        yr: Range<usize>,
        interior: Option<&InteriorIndex>,
    ) -> KernelClass {
        if yr.is_empty() || xr.is_empty() {
            return KernelClass::Generic;
        }
        let dims = flags.dims();
        assert!(
            yr.end <= dims.ny
                && xr.end <= dims.nx
                && src.dims() == dims
                && dst.dims() == dims
                && interior.is_none_or(|ix| ix.dims == dims),
            "rectangle, fields or interior index do not fit the flag grid"
        );
        // Fast-path eligibility: plain constant-ω BGK on an SoA/D3Q19 field
        // with a caller-provided interior index.
        let fast = match (collision, interior) {
            (CollisionKind::Bgk(p), Some(ix)) => (src as &dyn Any)
                .downcast_ref::<SoaField<D3Q19>>()
                .map(|s| (s.raw(), p.omega, ix)),
            _ => None,
        };
        let (path, class) = select_fast_path();
        let tile_z = self.tile_z;
        let writer = SharedWriter::new(dst.raw_mut());
        self.for_each_slab(yr, xr.len() * dims.nz, |ys| {
            // SAFETY: `&mut dst` is held for the whole dispatch and disjoint
            // y-slabs write disjoint cells; fields and index have the grid of
            // `flags` (asserted above), so every run cell and its 18 pull
            // sources are in bounds. Slabs never split a z-pencil, so the run
            // iteration is identical for every thread count.
            unsafe {
                if let Some((sraw, omega, ix)) = fast {
                    let (draw, xr, ys) = (writer.ptr(), xr.clone(), ys.clone());
                    ab_interior_sweep(flags, sraw, draw, omega, xr, ys, tile_z, ix.runs(), path);
                }
                // The remainder skips fast-path cells only when the interior
                // kernel actually ran; otherwise it covers every cell.
                let skip = fast.map(|(_, _, ix)| ix.mask());
                generic_rect::<L, F>(flags, src, &writer, collision, xr.clone(), ys, skip);
            }
        });
        if fast.is_some() {
            class
        } else {
            KernelClass::Generic
        }
    }

    /// One in-place AA-pattern half-step executed by all worker threads,
    /// returning the [`KernelClass`] that served the interior cells.
    ///
    /// `parity` names the grid's *current* state (the caller flips it after
    /// this returns). The AA slot-ownership discipline — every slot is read
    /// and written only by the single cell that owns it, which gathers before
    /// scattering — makes the odd step's cross-slab scatters race-free for any
    /// slab partition, so the same atomic slab-stealing dispatch as
    /// [`ThreadPool::fused_step`] applies unchanged. Thread count and tile
    /// size never change the result (bit-for-bit on scalar-semantics paths,
    /// within 1e-12 under FMA lanes).
    pub fn aa_fused_step<L: Lattice>(
        &self,
        flags: &FlagField,
        field: &mut SoaField<L>,
        collision: &CollisionKind,
        parity: AaParity,
        interior: Option<&InteriorIndex>,
    ) -> KernelClass {
        let dims = flags.dims();
        self.aa_step_rect::<L>(
            flags,
            field,
            collision,
            parity,
            0..dims.nx,
            0..dims.ny,
            interior,
        )
    }

    /// [`ThreadPool::aa_fused_step`] restricted to the rectangle `xr × yr`
    /// (full z depth) — the entry point the distributed engine uses for every
    /// sweep of a subdomain, inner rectangle and frame strips alike.
    #[allow(clippy::too_many_arguments)]
    pub fn aa_step_rect<L: Lattice>(
        &self,
        flags: &FlagField,
        field: &mut SoaField<L>,
        collision: &CollisionKind,
        parity: AaParity,
        xr: Range<usize>,
        yr: Range<usize>,
        interior: Option<&InteriorIndex>,
    ) -> KernelClass {
        if yr.is_empty() || xr.is_empty() {
            return KernelClass::Generic;
        }
        let dims = flags.dims();
        assert!(
            yr.end <= dims.ny
                && xr.end <= dims.nx
                && field.dims() == dims
                && interior.is_none_or(|ix| ix.dims == dims),
            "rectangle, field or interior index does not fit the flag grid"
        );
        // Fast-path eligibility mirrors `step_rect`: plain constant-ω BGK on a
        // D3Q19 grid with a caller-provided interior index.
        let fast = match (collision, interior) {
            (CollisionKind::Bgk(p), Some(ix)) if TypeId::of::<L>() == TypeId::of::<D3Q19>() => {
                Some((p.omega, ix))
            }
            _ => None,
        };
        let (path, class) = select_fast_path();
        let tile_z = self.tile_z;
        let grid = SharedWriter::new(field.raw_mut());
        self.for_each_slab(yr, xr.len() * dims.nz, |ys| {
            // SAFETY: `&mut field` is held for the whole dispatch; field and
            // index have the grid of `flags` (asserted above); each cell is
            // processed exactly once across all slabs and both passes, and
            // every slot has a single owning cell, so slabs touch disjoint
            // slots even across odd-step scatters. Slabs never split a
            // z-pencil, so the run iteration is identical for every thread
            // count.
            unsafe {
                let raw = grid.ptr();
                if let Some((omega, ix)) = fast {
                    let (xr, ys) = (xr.clone(), ys.clone());
                    aa_interior_sweep(flags, raw, parity, omega, xr, ys, tile_z, ix.runs(), path);
                }
                let skip = fast.map(|(_, ix)| ix.mask());
                aa_generic_rect::<L>(flags, raw, collision, parity, xr.clone(), ys, skip);
            }
        });
        if fast.is_some() {
            class
        } else {
            KernelClass::Generic
        }
    }
}

impl Default for ThreadPool {
    fn default() -> Self {
        Self::auto()
    }
}

/// Slabs a thread should find on the stealing cursor, so the end of a
/// dispatch waits for a fraction of a thread's share, not for all of it.
const SLABS_PER_THREAD: usize = 8;

/// … but no slab below this many cells (one row when a row is larger): every
/// slab costs a hit on the shared cursor and a pass through the nest's set-up.
const MIN_SLAB_CELLS: usize = 1 << 14;

/// Rows of `row_cells` cells in the smallest slab worth stealing.
fn min_slab_rows(row_cells: usize) -> usize {
    MIN_SLAB_CELLS.div_ceil(row_cells.max(1))
}

/// How many slabs to cut `rows` rows of `row_cells` cells into: one for a
/// 1-thread pool (nothing to balance), else as many as [`MIN_SLAB_CELLS`]
/// allows between `min(threads, rows)` and `threads · SLABS_PER_THREAD`.
fn slab_count(threads: usize, rows: usize, row_cells: usize) -> usize {
    if threads == 1 {
        return rows.min(1);
    }
    (rows / min_slab_rows(row_cells)).clamp(threads.min(rows), threads * SLABS_PER_THREAD)
}

/// Contiguous balanced slab `i` of `n` over `yr`.
fn slab_range(yr: &Range<usize>, i: usize, n: usize) -> Range<usize> {
    let ny = yr.end - yr.start;
    let base = ny / n;
    let extra = ny % n;
    let start = yr.start + i * base + i.min(extra);
    start..start + base + usize::from(i < extra)
}

/// The per-dispatch context shared by all participants: the slab partition,
/// the stealing cursor and the slab body. Lives on the dispatching caller's
/// stack for the duration of the step.
struct SlabJob<F> {
    yr: Range<usize>,
    n_slabs: usize,
    next: AtomicUsize,
    slab: F,
}

/// Job body: steal slabs until the partition is exhausted.
///
/// # Safety
/// `ctx` must point at a live `SlabJob<F>`.
unsafe fn run_slabs<F: Fn(Range<usize>) + Sync>(ctx: *const ()) {
    let job = unsafe { &*(ctx as *const SlabJob<F>) };
    loop {
        let i = job.next.fetch_add(1, Ordering::Relaxed);
        if i >= job.n_slabs {
            break;
        }
        (job.slab)(slab_range(&job.yr, i, job.n_slabs));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::NodeKind;
    use crate::collision::BgkParams;
    use crate::geometry::GridDims;
    use crate::kernels::fused_step;
    use crate::lattice::{D2Q9, D3Q19};
    use crate::layout::{AosField, SoaField};
    use crate::Scalar;

    fn random_field<L: Lattice, F: PopField<L>>(dims: GridDims, seed: u64) -> F {
        let mut field = F::new(dims);
        let mut s = seed.max(1);
        for cell in 0..field.cells() {
            for q in 0..L::Q {
                s ^= s >> 12;
                s ^= s << 25;
                s ^= s >> 27;
                let r =
                    (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as Scalar / (1u64 << 53) as Scalar;
                field.set(cell, q, 0.02 + 0.05 * r);
            }
        }
        field
    }

    /// The partition `for_each_slab` walks: slab `i` of `slab_count` over `yr`.
    fn partition(threads: usize, yr: Range<usize>, row_cells: usize) -> Vec<Range<usize>> {
        let n = slab_count(threads, yr.len(), row_cells);
        (0..n).map(|i| slab_range(&yr, i, n)).collect()
    }

    #[test]
    fn slab_partition_is_balanced_and_covers() {
        // 3-D rows of every size class, and the 2-D 512-row case (nz = 1).
        let cases = (0..=40usize)
            .flat_map(|len| [1, 84, 4096, 128 * 128].map(|rc| (7..7 + len, rc)))
            .chain([(0..512, 512), (3..515, 512)]);
        for (yr, row_cells) in cases {
            for threads in 1..=5usize {
                let slabs = partition(threads, yr.clone(), row_cells);
                let what = format!("threads {threads} yr {yr:?} row_cells {row_cells}");
                // Contiguous, disjoint, non-empty, covering `yr` in order.
                let mut at = yr.start;
                for s in &slabs {
                    assert!(s.start == at && s.end > s.start, "{what}: {slabs:?}");
                    at = s.end;
                }
                assert_eq!(at, yr.end, "{what}: {slabs:?}");
                // Balanced: sizes differ by at most one row.
                let sizes = slabs.iter().map(|s| s.len());
                if let (Some(max), Some(min)) = (sizes.clone().max(), sizes.min()) {
                    assert!(max - min <= 1, "{what}: {slabs:?}");
                }
                // Never coarser than one slab per thread; one thread, one slab.
                assert!(slabs.len() >= threads.min(yr.len()), "{what}: {slabs:?}");
                if threads == 1 {
                    assert_eq!(slabs.len(), yr.len().min(1), "{what}");
                }
            }
        }
        // Finer than the thread count where there is work to steal.
        assert_eq!(partition(2, 0..128, 128 * 128).len(), 2 * SLABS_PER_THREAD);
        assert_eq!(partition(4, 0..10, 1).len(), 4);
    }

    #[test]
    fn more_threads_than_rows_degrades_gracefully() {
        let slabs = partition(16, 0..3, 128 * 128);
        assert_eq!(slabs.len(), 3);
        assert!(slabs.iter().all(|r| r.len() == 1));
    }

    /// Spin until `done()`; a broken pool fails the test instead of hanging it.
    fn wait_for(what: &str, done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "{what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_stalled_participant_leaves_the_rest_to_the_other() {
        // Whoever takes the first slab stalls inside it until every other row
        // has been run — which, on a 2-thread pool, only the other participant
        // can do. With one slab per thread that is half of the rows at best;
        // with slabs to steal it is all but the first slab.
        let (rows, pool) = (64usize, ThreadPool::new(2));
        let by_other = AtomicUsize::new(0);
        pool.for_each_slab(0..rows, 128 * 128, |ys| {
            if ys.start == 0 {
                let rest = rows - ys.len();
                wait_for("the other rows never ran", || {
                    by_other.load(Ordering::SeqCst) == rest
                });
            } else {
                by_other.fetch_add(ys.len(), Ordering::SeqCst);
            }
        });
        let by_other = by_other.into_inner();
        assert!(
            2 * by_other > rows,
            "the free participant ran {by_other} of {rows} rows: nothing to steal"
        );
    }

    #[test]
    fn new_pool_streams_z_names_its_workers_and_accounts_busy_time() {
        assert_eq!(ThreadPool::new(3).tile_z(), 0);
        assert_eq!(ThreadPool::new(3).with_tile_z(70).tile_z(), 70);
        // One thread runs inline and reads no clock.
        let one = ThreadPool::new(1);
        one.for_each_slab(0..4, 1, |_| {});
        assert_eq!(one.busy_wall_ns(), (0, 0));
        // Two slabs that each wait for the other to start: one per participant.
        let pool = ThreadPool::new(2);
        let (started, names) = (AtomicUsize::new(0), Mutex::new(Vec::new()));
        pool.for_each_slab(0..2, 1, |_| {
            let me = std::thread::current();
            names.lock().unwrap().push(me.name().map(String::from));
            started.fetch_add(1, Ordering::SeqCst);
            wait_for("second participant never came", || {
                started.load(Ordering::SeqCst) == 2
            });
        });
        let names = names.into_inner().unwrap();
        let workers = names.iter().flatten().filter(|n| *n == "swlb-pool-1");
        assert_eq!(workers.count(), 1, "{names:?}");
        let (busy, wall) = pool.busy_wall_ns();
        assert!(0 < busy && busy <= 2 * wall, "busy {busy} wall {wall}");
    }

    #[test]
    fn parallel_matches_serial_exactly_soa() {
        let dims = GridDims::new(9, 11, 5);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        flags.set(4, 5, 2, NodeKind::Wall);
        let src: SoaField<D3Q19> = random_field(dims, 42);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));

        let mut serial = SoaField::<D3Q19>::new(dims);
        fused_step(&flags, &src, &mut serial, &coll);

        for threads in [1, 2, 3, 8] {
            let mut par = SoaField::<D3Q19>::new(dims);
            ThreadPool::new(threads).fused_step(&flags, &src, &mut par, &coll, None);
            for c in 0..dims.cells() {
                for q in 0..19 {
                    assert_eq!(
                        serial.get(c, q),
                        par.get(c, q),
                        "threads={threads} cell={c} q={q}"
                    );
                }
            }
        }
    }

    #[test]
    fn pooled_optimized_dispatch_matches_serial() {
        let dims = GridDims::new(9, 11, 7);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        flags.set(4, 5, 3, NodeKind::Wall);
        let src: SoaField<D3Q19> = random_field(dims, 99);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.7));
        let interior = InteriorIndex::build::<D3Q19>(&flags);

        let mut serial = SoaField::<D3Q19>::new(dims);
        fused_step(&flags, &src, &mut serial, &coll);

        // Bit-exact on the scalar-semantics paths; 1e-12 under the AVX2 lane
        // (tile clipping changes the vector/scalar chunk split between tile_z
        // values, so FMA contraction shifts which cells see fused roundings).
        let tol = crate::simd::dispatch_tolerance();
        for threads in [1, 2, 4] {
            for tile_z in [0, 1, 3, 70] {
                let mut par = SoaField::<D3Q19>::new(dims);
                let class = ThreadPool::new(threads).with_tile_z(tile_z).fused_step(
                    &flags,
                    &src,
                    &mut par,
                    &coll,
                    Some(&interior),
                );
                assert_ne!(class, KernelClass::Generic);
                for c in 0..dims.cells() {
                    for q in 0..19 {
                        let (s, p) = (serial.get(c, q), par.get(c, q));
                        assert!(
                            (s - p).abs() <= tol,
                            "threads={threads} tile_z={tile_z} cell={c} q={q}: {s} vs {p}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pooled_dispatch_is_thread_count_invariant_bitwise() {
        // Unlike tile_z, the thread count never changes results bitwise even
        // under FMA: y-slabs never split a z-pencil, so the vector/scalar
        // chunking of every run is identical for every slab partition.
        let dims = GridDims::new(9, 11, 7);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        flags.set(4, 5, 3, NodeKind::Wall);
        let src: SoaField<D3Q19> = random_field(dims, 99);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.7));
        let interior = InteriorIndex::build::<D3Q19>(&flags);

        let mut one = SoaField::<D3Q19>::new(dims);
        ThreadPool::new(1).with_tile_z(3).fused_step(
            &flags,
            &src,
            &mut one,
            &coll,
            Some(&interior),
        );
        for threads in [2, 4, 8] {
            let mut par = SoaField::<D3Q19>::new(dims);
            ThreadPool::new(threads).with_tile_z(3).fused_step(
                &flags,
                &src,
                &mut par,
                &coll,
                Some(&interior),
            );
            for c in 0..dims.cells() {
                for q in 0..19 {
                    assert_eq!(one.get(c, q), par.get(c, q), "threads={threads} cell={c}");
                }
            }
        }
    }

    #[test]
    fn rect_dispatch_composes_with_ring() {
        // Computing the inner rectangle (pooled, masked) and the boundary ring
        // (generic) separately must reproduce the full-domain step — the same
        // decomposition the distributed engine uses.
        let dims = GridDims::new(10, 9, 6);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        let src: SoaField<D3Q19> = random_field(dims, 5);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.75));
        let interior = InteriorIndex::build::<D3Q19>(&flags);

        let mut whole = SoaField::<D3Q19>::new(dims);
        fused_step(&flags, &src, &mut whole, &coll);

        let pool = ThreadPool::new(3).with_tile_z(2);
        let mut pieces = SoaField::<D3Q19>::new(dims);
        pool.step_rect::<D3Q19, _>(
            &flags,
            &src,
            &mut pieces,
            &coll,
            2..8,
            2..7,
            Some(&interior),
        );
        // Ring strips (generic path), exactly once per remaining cell.
        use crate::kernels::fused_step_rect;
        fused_step_rect::<D3Q19, _>(&flags, &src, &mut pieces, &coll, 0..10, 0..2);
        fused_step_rect::<D3Q19, _>(&flags, &src, &mut pieces, &coll, 0..10, 7..9);
        fused_step_rect::<D3Q19, _>(&flags, &src, &mut pieces, &coll, 0..2, 2..7);
        fused_step_rect::<D3Q19, _>(&flags, &src, &mut pieces, &coll, 8..10, 2..7);

        let tol = crate::simd::dispatch_tolerance();
        for c in 0..dims.cells() {
            for q in 0..19 {
                let (w, p) = (whole.get(c, q), pieces.get(c, q));
                assert!((w - p).abs() <= tol, "cell {c} q {q}: {w} vs {p}");
            }
        }
    }

    #[test]
    fn parallel_matches_serial_exactly_aos_with_io_boundaries() {
        let dims = GridDims::new(8, 6, 4);
        let mut flags = FlagField::new(dims);
        flags.paint_channel_walls_y();
        flags.paint_inflow_outflow_x(1.0, [0.03, 0.0, 0.0]);
        let src: AosField<D3Q19> = random_field(dims, 7);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.65));

        let mut serial = AosField::<D3Q19>::new(dims);
        fused_step(&flags, &src, &mut serial, &coll);
        let mut par = AosField::<D3Q19>::new(dims);
        ThreadPool::new(4).fused_step(&flags, &src, &mut par, &coll, None);
        for c in 0..dims.cells() {
            for q in 0..19 {
                assert_eq!(serial.get(c, q), par.get(c, q));
            }
        }
    }

    #[test]
    fn parallel_2d_with_moving_lid() {
        let dims = GridDims::new2d(16, 16);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        flags.paint_lid([0.1, 0.0, 0.0]);
        let src: SoaField<D2Q9> = random_field(dims, 3);
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.9));

        let mut serial = SoaField::<D2Q9>::new(dims);
        fused_step(&flags, &src, &mut serial, &coll);
        let mut par = SoaField::<D2Q9>::new(dims);
        ThreadPool::new(3).fused_step(&flags, &src, &mut par, &coll, None);
        for c in 0..dims.cells() {
            for q in 0..9 {
                assert_eq!(serial.get(c, q), par.get(c, q));
            }
        }
    }

    #[test]
    fn pool_is_reusable_across_steps_and_clones() {
        let dims = GridDims::new(6, 8, 5);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        let interior = InteriorIndex::build::<D3Q19>(&flags);

        let pool = ThreadPool::new(4);
        let clone = pool.clone();
        let mut a: SoaField<D3Q19> = random_field(dims, 11);
        let mut b = SoaField::<D3Q19>::new(dims);
        let mut serial_a = a.clone();
        let mut serial_b = SoaField::<D3Q19>::new(dims);
        for step in 0..6 {
            // Alternate pool handle and indexed/unindexed dispatch.
            let p = if step % 2 == 0 { &pool } else { &clone };
            let m = if step % 3 == 0 { Some(&interior) } else { None };
            p.fused_step(&flags, &a, &mut b, &coll, m);
            std::mem::swap(&mut a, &mut b);
            fused_step(&flags, &serial_a, &mut serial_b, &coll);
            std::mem::swap(&mut serial_a, &mut serial_b);
        }
        // Exact on scalar-semantics paths; the AVX2 lane's 1e-12 per-step
        // deviation compounds over the 6 steps, so allow a small multiple.
        let tol = crate::simd::dispatch_tolerance() * 100.0;
        for c in 0..dims.cells() {
            for q in 0..19 {
                let (x, s) = (a.get(c, q), serial_a.get(c, q));
                assert!((x - s).abs() <= tol, "cell {c} q {q}: {x} vs {s}");
            }
        }
    }

    #[test]
    fn second_dispatcher_waits_for_the_job_in_flight() {
        // Forced interleaving: B dispatches on a clone while A's slab bodies
        // are provably still running. B's body must not start before A's
        // dispatch has returned.
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        let pool = ThreadPool::new(2);
        let (a_inside, b_ran, overlap) = (
            AtomicBool::new(false),
            AtomicBool::new(false),
            AtomicBool::new(false),
        );
        let b_pool = pool.clone();
        std::thread::scope(|s| {
            s.spawn(|| {
                while !a_inside.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                b_pool.for_each_slab(0..2, 1, |_| b_ran.store(true, Ordering::SeqCst));
            });
            pool.for_each_slab(0..2, 1, |_| {
                a_inside.store(true, Ordering::SeqCst);
                // Give B ample time to barge in; it never may, so under the
                // turn lock this wait always runs to its deadline.
                let deadline = Instant::now() + Duration::from_millis(200);
                while Instant::now() < deadline {
                    if b_ran.load(Ordering::SeqCst) {
                        overlap.store(true, Ordering::SeqCst);
                        return;
                    }
                    std::thread::yield_now();
                }
            });
        });
        assert!(!overlap.load(Ordering::SeqCst), "B ran inside A's dispatch");
        assert!(b_ran.load(Ordering::SeqCst), "B never ran");
    }

    #[test]
    fn concurrent_dispatchers_on_one_pool_match_the_one_thread_pool() {
        // Clones share the workers and the single job slot. Two threads
        // dispatching at once used to overwrite each other's job and `active`
        // count: the first caller returned while a worker was still inside its
        // (now dangling) context, and the worker's decrement underflowed.
        let dims = GridDims::new(24, 24, 24);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        let coll = CollisionKind::Bgk(BgkParams::from_tau(0.8));
        let interior = InteriorIndex::build::<D3Q19>(&flags);
        let steps = 300;
        let run = |pool: &ThreadPool, seed: u64| {
            let mut a: SoaField<D3Q19> = random_field(dims, seed);
            let mut b = SoaField::<D3Q19>::new(dims);
            for _ in 0..steps {
                pool.fused_step(&flags, &a, &mut b, &coll, Some(&interior));
                std::mem::swap(&mut a, &mut b);
            }
            a
        };
        let one = ThreadPool::new(1);
        let want = [run(&one, 11), run(&one, 12)];

        let pool = ThreadPool::new(2);
        let start = std::sync::Barrier::new(2);
        let got = std::thread::scope(|s| {
            let handles = [11, 12].map(|seed| {
                let (pool, start, run) = (pool.clone(), &start, &run);
                s.spawn(move || {
                    start.wait();
                    run(&pool, seed)
                })
            });
            handles.map(|h| h.join().expect("dispatcher thread"))
        });
        // Thread count never changes a result bitwise, so neither may sharing.
        for (w, g) in want.iter().zip(&got) {
            assert!(
                w.raw() == g.raw(),
                "shared pool diverged from the 1-thread pool"
            );
        }
    }

    #[test]
    fn auto_pool_reports_at_least_one_thread() {
        assert!(ThreadPool::auto().threads() >= 1);
        assert!(ThreadPool::default().threads() >= 1);
        assert_eq!(ThreadPool::new(0).threads(), 1);
    }
}
