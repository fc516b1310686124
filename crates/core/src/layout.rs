//! Population storage layouts: structure-of-arrays (SoA) and array-of-structures
//! (AoS), plus the streaming-scheme storage behind the solver: the classic A-B
//! (ping-pong) double buffer and the single-grid AA-pattern.
//!
//! The paper motivates SoA explicitly (§IV-A/IV-C): with D3Q19, updating one cell
//! touches 19 populations that live far apart under AoS, causing many small DMA
//! transactions; SoA keeps each direction's populations contiguous so that a pencil
//! of cells streams as one large DMA. We implement **both** layouts behind one trait
//! so the claim is benchmarkable (`bench/benches/layouts.rs`) and so property tests
//! can assert layout-independence of the physics.
//!
//! The [`StorageScheme`] selector extends the same argument to the streaming
//! pattern itself: A-B keeps two full copies of the populations and every step
//! streams one into the other, while the AA-pattern (Bailey et al.; see
//! `docs/PERFORMANCE.md`) keeps a *single* grid and alternates two in-place step
//! flavors, roughly halving both bytes moved per lattice update and resident
//! footprint — the decisive lever once the fused kernel is memory-bound.
//!
//! What the two schemes *mean* lives here and nowhere else: which depths and
//! flag fields a scheme admits ([`StorageScheme::check_depth`],
//! [`StorageScheme::check_flags`]), and on `Storage<SoaField<L>>` which kernel
//! one time level of a sweep runs on which buffer (`sweep`), what completing
//! steps does to the storage (`advance`), and how the raw grid maps to and
//! from the canonical, scheme-portable post-collision state (`canonical`,
//! `adopt_canonical`). The serial and the distributed stepper call these and
//! never look inside a [`Storage`].
//!
//! Where a canonical population lives is answered once, by
//! [`CanonicalRuns::run`]; every whole-lattice pass outside the sweep is a
//! pencil walk over its runs: pooled for the writers (`Storage::canonical`,
//! [`crate::kernels::initialize_with`]), serial for the readers
//! ([`Storage::fluid_mass`], [`crate::macroscopic::MacroFields::compute`]).

use crate::boundary::NodeKind;
use crate::collision::CollisionKind;
use crate::flags::FlagField;
use crate::geometry::GridDims;
use crate::kernels::{reverse_planes, InteriorIndex, SharedWriter, MAX_Q};
use crate::lattice::Lattice;
use crate::parallel::ThreadPool;
use crate::simd::KernelClass;
use crate::Scalar;
use std::borrow::Cow;
use std::marker::PhantomData;
use std::ops::Range;
use swlb_obs::SwlbError;

/// Runtime layout selector, used by configuration code and benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Structure of arrays: `data[q · cells + cell]` (the production layout).
    Soa,
    /// Array of structures: `data[cell · Q + q]` (the baseline the paper rejects).
    Aos,
}

impl Layout {
    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Layout::Soa => "SoA",
            Layout::Aos => "AoS",
        }
    }
}

/// A population field: `Q` scalars per cell in some memory layout.
pub trait PopField<L: Lattice>: Clone + Send + Sync + 'static {
    /// Allocate a zero-initialized field for `dims`.
    fn new(dims: GridDims) -> Self;

    /// Grid dimensions this field was allocated for.
    fn dims(&self) -> GridDims;

    /// Number of cells.
    fn cells(&self) -> usize {
        self.dims().cells()
    }

    /// Read population `q` of `cell`.
    fn get(&self, cell: usize, q: usize) -> Scalar;

    /// Write population `q` of `cell`.
    fn set(&mut self, cell: usize, q: usize, v: Scalar);

    /// Copy all `Q` populations of `cell` into `out`.
    #[inline]
    fn load_cell(&self, cell: usize, out: &mut [Scalar]) {
        for q in 0..L::Q {
            out[q] = self.get(cell, q);
        }
    }

    /// Write all `Q` populations of `cell` from `vals`.
    #[inline]
    fn store_cell(&mut self, cell: usize, vals: &[Scalar]) {
        for q in 0..L::Q {
            self.set(cell, q, vals[q]);
        }
    }

    /// Offset of `(cell, q)` within the raw backing storage. Distinct `(cell, q)`
    /// pairs map to distinct offsets — the contract the shared-memory parallel
    /// driver relies on for race freedom.
    fn index_of(&self, cell: usize, q: usize) -> usize;

    /// View of the raw backing storage (layout-specific ordering).
    fn raw(&self) -> &[Scalar];

    /// Mutable view of the raw backing storage (layout-specific ordering).
    fn raw_mut(&mut self) -> &mut [Scalar];

    /// The layout tag of this implementation.
    fn layout() -> Layout;
}

/// Structure-of-arrays storage: direction-major, `data[q · cells + cell]`.
///
/// This is the layout SunwayLB ships: each direction plane is contiguous, so a
/// z-pencil of one direction is a single contiguous run — the DMA-friendly shape.
#[derive(Debug, Clone)]
pub struct SoaField<L: Lattice> {
    dims: GridDims,
    data: Vec<Scalar>,
    _lattice: PhantomData<L>,
}

impl<L: Lattice> SoaField<L> {
    /// Immutable view of one direction plane (all cells' population `q`).
    #[inline]
    pub fn plane(&self, q: usize) -> &[Scalar] {
        let n = self.dims.cells();
        &self.data[q * n..(q + 1) * n]
    }

    /// Mutable view of one direction plane.
    #[inline]
    pub fn plane_mut(&mut self, q: usize) -> &mut [Scalar] {
        let n = self.dims.cells();
        &mut self.data[q * n..(q + 1) * n]
    }
}

impl<L: Lattice> PopField<L> for SoaField<L> {
    fn new(dims: GridDims) -> Self {
        Self {
            dims,
            data: vec![0.0; dims.cells() * L::Q],
            _lattice: PhantomData,
        }
    }

    #[inline]
    fn dims(&self) -> GridDims {
        self.dims
    }

    #[inline(always)]
    fn get(&self, cell: usize, q: usize) -> Scalar {
        debug_assert!(cell < self.dims.cells() && q < L::Q);
        self.data[q * self.dims.cells() + cell]
    }

    #[inline(always)]
    fn set(&mut self, cell: usize, q: usize, v: Scalar) {
        debug_assert!(cell < self.dims.cells() && q < L::Q);
        let n = self.dims.cells();
        self.data[q * n + cell] = v;
    }

    #[inline(always)]
    fn index_of(&self, cell: usize, q: usize) -> usize {
        q * self.dims.cells() + cell
    }

    fn raw(&self) -> &[Scalar] {
        &self.data
    }

    fn raw_mut(&mut self) -> &mut [Scalar] {
        &mut self.data
    }

    fn layout() -> Layout {
        Layout::Soa
    }
}

/// Array-of-structures storage: cell-major, `data[cell · Q + q]`.
///
/// The baseline the paper rejects for Sunway (random DMA per direction); kept as a
/// comparison point and because on cache-based CPUs it is sometimes competitive.
#[derive(Debug, Clone)]
pub struct AosField<L: Lattice> {
    dims: GridDims,
    data: Vec<Scalar>,
    _lattice: PhantomData<L>,
}

impl<L: Lattice> AosField<L> {
    /// All `Q` populations of one cell as a contiguous slice.
    #[inline]
    pub fn cell(&self, cell: usize) -> &[Scalar] {
        &self.data[cell * L::Q..(cell + 1) * L::Q]
    }
}

impl<L: Lattice> PopField<L> for AosField<L> {
    fn new(dims: GridDims) -> Self {
        Self {
            dims,
            data: vec![0.0; dims.cells() * L::Q],
            _lattice: PhantomData,
        }
    }

    #[inline]
    fn dims(&self) -> GridDims {
        self.dims
    }

    #[inline(always)]
    fn get(&self, cell: usize, q: usize) -> Scalar {
        debug_assert!(cell < self.dims.cells() && q < L::Q);
        self.data[cell * L::Q + q]
    }

    #[inline(always)]
    fn set(&mut self, cell: usize, q: usize, v: Scalar) {
        debug_assert!(cell < self.dims.cells() && q < L::Q);
        self.data[cell * L::Q + q] = v;
    }

    #[inline(always)]
    fn index_of(&self, cell: usize, q: usize) -> usize {
        cell * L::Q + q
    }

    fn raw(&self) -> &[Scalar] {
        &self.data
    }

    fn raw_mut(&mut self) -> &mut [Scalar] {
        &mut self.data
    }

    fn layout() -> Layout {
        Layout::Aos
    }
}

/// Streaming/storage scheme of a solver: how population state is laid out
/// across time steps.
///
/// The wire names (`"ab"`/`"aa"`) are used by the serve job spec and CLI flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StorageScheme {
    /// Two full grids, ping-pong per step ([`AbBuffers`]). Supports every
    /// lattice, layout, collision operator and boundary kind.
    #[default]
    Ab,
    /// Single grid, AA-pattern in-place streaming: odd steps read pulled and
    /// write scattered, even steps read and write locally with direction slots
    /// reversed. Halves distribution-storage footprint and bytes/LUP; supports
    /// SoA fields with Fluid/Wall/MovingWall nodes (no inlet/outlet/NEBB yet).
    Aa,
}

impl StorageScheme {
    /// Canonical lowercase name (wire format).
    pub fn name(self) -> &'static str {
        match self {
            StorageScheme::Ab => "ab",
            StorageScheme::Aa => "aa",
        }
    }

    /// Parse the wire name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "ab" => Some(StorageScheme::Ab),
            "aa" => Some(StorageScheme::Aa),
            _ => None,
        }
    }

    /// Whether this scheme can run blocks of `k` steps (temporal-blocking
    /// depth, or steps per halo exchange): `k ≥ 1`, and even under `Aa` unless
    /// it is 1, because a block starts and must end at the `Reversed` parity.
    pub fn check_depth(self, k: usize) -> Result<(), SwlbError> {
        if k == 0 {
            return Err(SwlbError::InvalidConfig(
                "time_block must be >= 1 (1 disables temporal blocking)".into(),
            ));
        }
        if self == StorageScheme::Aa && k > 1 && !k.is_multiple_of(2) {
            return Err(SwlbError::InvalidConfig(format!(
                "AA-pattern storage needs an even time_block so a block ends at the \
                 canonical Reversed parity; got {k}"
            )));
        }
        Ok(())
    }

    /// Whether this scheme can stream over `flags`: none runs a field that refused
    /// a kind ([`FlagField::check_kinds`]); `Aa` has no rule for open boundaries.
    pub fn check_flags(self, flags: &FlagField) -> Result<(), SwlbError> {
        flags.check_kinds()?;
        if self == StorageScheme::Aa {
            let c = flags.census();
            if c.inlet != 0 || c.outlet != 0 {
                return Err(SwlbError::InvalidConfig(format!(
                    "AA-pattern storage supports Fluid/Wall/MovingWall nodes only, but the \
                     flag field has {} inlet and {} outlet nodes; build with \
                     StorageScheme::Ab for open/NEBB boundaries",
                    c.inlet, c.outlet
                )));
            }
        }
        Ok(())
    }
}

/// Which of the AA-pattern's two step flavors applies next, i.e. how the raw
/// single-grid state must currently be interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AaParity {
    /// Post-collision populations stored with direction slots reversed:
    /// `raw[cell][q] = f*_opp(q)(cell)`. This is the state after
    /// initialization, after a restore, and after every even step; the next
    /// step is an *odd* (pull + scatter) step.
    #[default]
    Reversed,
    /// Streamed state: `raw[cell][q] = f*_q(cell − c_q)` — each slot holds the
    /// population that has already streamed *into* this cell. Holds after every
    /// odd step; the next step is an *even* (local permute) step.
    Streamed,
}

impl AaParity {
    /// The parity after one more step.
    #[inline]
    pub fn flip(self) -> Self {
        match self {
            AaParity::Reversed => AaParity::Streamed,
            AaParity::Streamed => AaParity::Reversed,
        }
    }
}

/// Scheme-dispatched population storage: either an A-B pair or a single
/// AA-pattern grid plus its parity. This is what `Solver` holds, and a
/// distributed rank through its `Solver`; it drives the storage through the
/// methods below and never matches on it.
#[derive(Debug, Clone)]
pub enum Storage<F> {
    /// Double-buffered (ping-pong) state.
    Ab(AbBuffers<F>),
    /// Single-grid AA-pattern state.
    Aa {
        /// The one and only population grid.
        field: F,
        /// How `field` must currently be interpreted / which step flavor is next.
        parity: AaParity,
    },
}

impl<F> Storage<F> {
    /// Build storage for `scheme`; `make` allocates one grid (called once for
    /// AA, twice for AB).
    pub fn with_scheme(scheme: StorageScheme, mut make: impl FnMut() -> F) -> Self {
        match scheme {
            StorageScheme::Ab => Storage::Ab(AbBuffers::new(make(), make())),
            StorageScheme::Aa => Storage::Aa {
                field: make(),
                parity: AaParity::Reversed,
            },
        }
    }

    /// Which scheme this storage implements.
    #[inline]
    pub fn scheme(&self) -> StorageScheme {
        match self {
            Storage::Ab(_) => StorageScheme::Ab,
            Storage::Aa { .. } => StorageScheme::Aa,
        }
    }

    /// AA parity, if this is AA storage.
    #[inline]
    pub fn parity(&self) -> Option<AaParity> {
        match self {
            Storage::Ab(_) => None,
            Storage::Aa { parity, .. } => Some(*parity),
        }
    }

    /// The grid holding the current readable state (AB: the `src` buffer; AA:
    /// the single grid, whose raw interpretation depends on [`Self::parity`]).
    #[inline]
    pub fn state(&self) -> &F {
        match self {
            Storage::Ab(b) => b.src(),
            Storage::Aa { field, .. } => field,
        }
    }

    /// Mutable access to the current state grid.
    #[inline]
    pub fn state_mut(&mut self) -> &mut F {
        match self {
            Storage::Ab(b) => b.src_mut(),
            Storage::Aa { field, .. } => field,
        }
    }
}

impl<L: Lattice> Storage<SoaField<L>> {
    /// Run time level `level` (1-based, relative to the current state) of a
    /// sweep over the rectangle `xr × yr` through `pool`, returning the kernel
    /// class that served the interior cells. Level `j` consumes what level
    /// `j − 1` produced: AB reads the buffer `j − 1` flips away from the
    /// current one and writes the other; AA runs, in place, the flavor of the
    /// current parity flipped `j − 1` times. A plain step is level 1;
    /// [`crate::temporal::block`] interleaves levels `1..=k`. Follow the last
    /// level with [`Storage::advance`].
    #[allow(clippy::too_many_arguments)]
    pub fn sweep(
        &mut self,
        pool: &ThreadPool,
        flags: &FlagField,
        collision: &CollisionKind,
        interior: Option<&InteriorIndex>,
        level: usize,
        xr: Range<usize>,
        yr: Range<usize>,
    ) -> KernelClass {
        let odd = level % 2 == 1;
        match self {
            Storage::Ab(bufs) => {
                let (cur, other) = bufs.both_mut();
                let (src, dst) = if odd { (cur, other) } else { (other, cur) };
                pool.step_rect::<L, _>(flags, src, dst, collision, xr, yr, interior)
            }
            Storage::Aa { field, parity } => {
                let parity = if odd { *parity } else { parity.flip() };
                pool.aa_step_rect::<L>(flags, field, collision, parity, xr, yr, interior)
            }
        }
    }

    /// Make the state `k` completed time levels ahead the current one: an odd
    /// `k` flips the A-B buffers, or the AA parity.
    pub fn advance(&mut self, k: usize) {
        if k % 2 == 1 {
            match self {
                Storage::Ab(bufs) => bufs.flip(),
                Storage::Aa { parity, .. } => *parity = parity.flip(),
            }
        }
    }

    /// The canonical (AB-ordered) post-collision populations of the current
    /// state: borrowed under AB; under AA every [`CanonicalRuns::run`] copied
    /// into a fresh field by a column walk on `pool`. Solid cells hold
    /// scheme-dependent (finite) values.
    pub fn canonical(&self, pool: &ThreadPool) -> Cow<'_, SoaField<L>> {
        let Storage::Aa { field, .. } = self else {
            return Cow::Borrowed(self.state());
        };
        let dims = field.dims();
        let (cells, nz) = (dims.cells(), dims.nz);
        let mut out = SoaField::<L>::new(dims);
        let dst = SharedWriter::new(out.raw_mut());
        for_each_column(pool, dims, |x, y| {
            let at = dims.idx(x, y, 0);
            for q in 0..L::Q {
                let (run, rot) = self.run(q, x, y);
                // SAFETY: the run is column `(x, y)` of plane `q` of `out`,
                // and the walk hands each column to exactly one thread.
                let col = unsafe { dst.slice_mut(q * cells + at, nz) };
                col[..nz - rot].copy_from_slice(&run[rot..]);
                col[nz - rot..].copy_from_slice(&run[..rot]);
            }
        });
        Cow::Owned(out)
    }

    /// Canonical mass of the fluid cells of `xr × yr`, summed serially in
    /// (y, x, z, q) order — or NaN once any non-solid cell there holds a
    /// non-finite population: the one, allocation-free divergence question.
    pub fn fluid_mass(&self, flags: &FlagField, xr: Range<usize>, yr: Range<usize>) -> Scalar {
        let (mut mass, mut finite) = (0.0, true);
        self.for_each_cell(flags, xr, yr, |_, kind, f| match kind {
            k if k.is_fluid() => f.iter().for_each(|v| mass += v),
            k if !k.is_solid() => finite &= f.iter().all(|v| v.is_finite()),
            _ => {}
        });
        if finite && mass.is_finite() {
            mass
        } else {
            Scalar::NAN
        }
    }

    /// Adopt what was just written into [`Storage::state_mut`] as a canonical
    /// state (an initializer's, a checkpoint's): under AA, reverse it in place
    /// and restart at the `Reversed` parity — continuing any canonical state
    /// with an odd step is exactly the AB continuation. The inverse of
    /// [`Storage::canonical`].
    pub fn adopt_canonical(&mut self) {
        if let Storage::Aa { field, parity } = self {
            reverse_planes::<L>(field);
            *parity = AaParity::Reversed;
        }
    }
}

/// A grid whose canonical (AB-ordered, post-collision) populations read in
/// place as z-runs: a canonical [`SoaField`], or a [`Storage`] of any parity.
pub trait CanonicalRuns<L: Lattice> {
    /// The raw `nz` run holding canonical `f_q` of column `(x, y)`, and its z
    /// rotation: `f_q(x, y, z) = run[(z + rot) % nz]`. For a [`Storage`]: AB
    /// plane `q` at `(x, y)`, rot 0; AA `Reversed` plane `opp(q)` at `(x, y)`,
    /// rot 0; AA `Streamed` plane `q` at `(x + c_x, y + c_y)`, rot `c_z`, all
    /// wrapped periodically (where the odd step scattered it, mailboxes
    /// included). Exact for every cell, solids and a ghost ring included.
    fn run(&self, q: usize, x: usize, y: usize) -> (&[Scalar], usize);

    /// Visit each cell of `xr × yr` (full z of `flags`' grid) in (y, x, z)
    /// order with its index, kind and canonical populations: the serial
    /// walk of every pass that reads the lattice.
    fn for_each_cell(
        &self,
        flags: &FlagField,
        xr: Range<usize>,
        yr: Range<usize>,
        mut visit: impl FnMut(usize, NodeKind, &[Scalar]),
    ) {
        let (dims, nz) = (flags.dims(), flags.dims().nz);
        let mut runs: [(&[Scalar], usize); MAX_Q] = [(&[], 0); MAX_Q];
        let mut f = [0.0; MAX_Q];
        for y in yr {
            for x in xr.clone() {
                for (q, r) in runs[..L::Q].iter_mut().enumerate() {
                    *r = self.run(q, x, y);
                }
                let (at, rotated) = (dims.idx(x, y, 0), runs.iter().any(|r| r.1 != 0));
                for z in 0..nz {
                    for (v, &(run, rot)) in f.iter_mut().zip(&runs[..L::Q]) {
                        let i = if rotated { z + rot } else { z };
                        *v = run[if i < nz { i } else { i - nz }];
                    }
                    visit(at + z, flags.kind(at + z), &f[..L::Q]);
                }
            }
        }
    }
}

impl<L: Lattice> CanonicalRuns<L> for SoaField<L> {
    fn run(&self, q: usize, x: usize, y: usize) -> (&[Scalar], usize) {
        let at = self.dims.idx(x, y, 0);
        (&self.plane(q)[at..at + self.dims.nz], 0)
    }
}

impl<L: Lattice> CanonicalRuns<L> for Storage<SoaField<L>> {
    fn run(&self, q: usize, x: usize, y: usize) -> (&[Scalar], usize) {
        let (field, plane, [x, y, rot]) = match self {
            Storage::Ab(b) => (b.src(), q, [x, y, 0]),
            Storage::Aa {
                field,
                parity: AaParity::Reversed,
            } => (field, L::OPP[q], [x, y, 0]),
            Storage::Aa {
                field,
                parity: AaParity::Streamed,
            } => (field, q, field.dims.neighbor_periodic(x, y, 0, L::C[q])),
        };
        (CanonicalRuns::<L>::run(field, plane, x, y).0, rot)
    }
}

/// The column walk of every pass that writes a whole lattice: `column(x, y)`
/// for each z-column of `dims`, by y-slab on `pool` (one dispatch), each
/// column on exactly one thread.
pub(crate) fn for_each_column(
    pool: &ThreadPool,
    dims: GridDims,
    column: impl Fn(usize, usize) + Sync,
) {
    pool.for_each_slab(0..dims.ny, dims.nx * dims.nz, |ys| {
        for y in ys {
            for x in 0..dims.nx {
                column(x, y);
            }
        }
    });
}

/// The A-B (ping-pong) buffer pair of the paper's Fig. 7.
///
/// Two full copies of the populations are kept; every time step reads from one and
/// writes to the other, then the roles swap. This is what makes the fused
/// streaming+collision kernel race-free: no cell ever reads a value written in the
/// same step.
#[derive(Debug, Clone)]
pub struct AbBuffers<F> {
    bufs: [F; 2],
    /// Index of the buffer holding the *current* (readable) state.
    cur: usize,
}

impl<F> AbBuffers<F> {
    /// Build from two identically-sized fields; `a` holds the initial state.
    pub fn new(a: F, b: F) -> Self {
        Self {
            bufs: [a, b],
            cur: 0,
        }
    }

    /// The buffer holding the current state (the read side of the next step).
    #[inline]
    pub fn src(&self) -> &F {
        &self.bufs[self.cur]
    }

    /// Mutable access to the current state (for initialization / boundary fixes).
    #[inline]
    pub fn src_mut(&mut self) -> &mut F {
        &mut self.bufs[self.cur]
    }

    /// Borrow both buffers mutably as `(src, dst)` — the shape a multi-step
    /// wavefront sweep wants, since it alternates write targets within one
    /// call.
    #[inline]
    pub fn both_mut(&mut self) -> (&mut F, &mut F) {
        let (lo, hi) = self.bufs.split_at_mut(1);
        if self.cur == 0 {
            (&mut lo[0], &mut hi[0])
        } else {
            (&mut hi[0], &mut lo[0])
        }
    }

    /// Swap roles after a completed step.
    #[inline]
    pub fn flip(&mut self) {
        self.cur = 1 - self.cur;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::{D2Q9, D3Q19};

    fn roundtrip<L: Lattice, F: PopField<L>>() {
        let dims = GridDims::new(3, 4, 5);
        let mut f = F::new(dims);
        assert_eq!(f.cells(), 60);
        // Write a unique value per (cell, q) and read it back.
        for cell in 0..f.cells() {
            for q in 0..L::Q {
                f.set(cell, q, (cell * 100 + q) as Scalar);
            }
        }
        for cell in 0..f.cells() {
            for q in 0..L::Q {
                assert_eq!(f.get(cell, q), (cell * 100 + q) as Scalar);
            }
        }
    }

    #[test]
    fn soa_roundtrip() {
        roundtrip::<D3Q19, SoaField<D3Q19>>();
        roundtrip::<D2Q9, SoaField<D2Q9>>();
    }

    #[test]
    fn aos_roundtrip() {
        roundtrip::<D3Q19, AosField<D3Q19>>();
        roundtrip::<D2Q9, AosField<D2Q9>>();
    }

    #[test]
    fn soa_plane_is_contiguous_per_direction() {
        let dims = GridDims::new(2, 2, 2);
        let mut f = SoaField::<D2Q9>::new(dims);
        for cell in 0..8 {
            f.set(cell, 3, 7.0);
        }
        assert!(f.plane(3).iter().all(|&v| v == 7.0));
        assert!(f.plane(2).iter().all(|&v| v == 0.0));
        // SoA raw ordering: plane q=0 occupies the first `cells` slots.
        f.set(0, 0, 1.5);
        assert_eq!(f.raw()[0], 1.5);
    }

    #[test]
    fn aos_cell_is_contiguous_per_cell() {
        let dims = GridDims::new2d(2, 2);
        let mut f = AosField::<D2Q9>::new(dims);
        for q in 0..9 {
            f.set(1, q, q as Scalar);
        }
        let c = f.cell(1);
        for (q, &v) in c.iter().enumerate() {
            assert_eq!(v, q as Scalar);
        }
        // AoS raw ordering: cell 1's populations start at offset Q.
        assert_eq!(f.raw()[9], 0.0);
    }

    #[test]
    fn load_store_cell_roundtrip() {
        let dims = GridDims::new2d(3, 3);
        let mut f = SoaField::<D2Q9>::new(dims);
        let vals: Vec<Scalar> = (0..9).map(|q| q as Scalar * 0.5).collect();
        f.store_cell(4, &vals);
        let mut out = vec![0.0; 9];
        f.load_cell(4, &mut out);
        assert_eq!(out, vals);
    }

    #[test]
    fn storage_scheme_names_roundtrip() {
        for s in [StorageScheme::Ab, StorageScheme::Aa] {
            assert_eq!(StorageScheme::parse(s.name()), Some(s));
        }
        assert_eq!(StorageScheme::parse("esoteric"), None);
        assert_eq!(StorageScheme::default(), StorageScheme::Ab);
    }

    #[test]
    fn storage_dispatches_state_by_scheme() {
        let dims = GridDims::new2d(2, 2);
        let mut ab = Storage::with_scheme(StorageScheme::Ab, || SoaField::<D2Q9>::new(dims));
        assert_eq!(ab.scheme(), StorageScheme::Ab);
        assert_eq!(ab.parity(), None);
        ab.state_mut().set(0, 0, 9.0);
        assert_eq!(ab.state().get(0, 0), 9.0);

        let mut aa = Storage::with_scheme(StorageScheme::Aa, || SoaField::<D2Q9>::new(dims));
        assert_eq!(aa.scheme(), StorageScheme::Aa);
        assert_eq!(aa.parity(), Some(AaParity::Reversed));
        aa.state_mut().set(1, 2, 3.5);
        assert_eq!(aa.state().get(1, 2), 3.5);
    }

    /// A walled, lid-driven D2Q9 grid with a non-uniform canonical state, as
    /// storage of `scheme` (every path through the generic kernels: exact).
    fn painted(scheme: StorageScheme) -> (FlagField, Storage<SoaField<D2Q9>>) {
        let dims = GridDims::new2d(7, 6);
        let mut flags = FlagField::new(dims);
        flags.set_box_walls();
        flags.paint_lid([0.05, 0.0, 0.0]);
        let mut st = Storage::with_scheme(scheme, || SoaField::<D2Q9>::new(dims));
        crate::kernels::initialize_with::<D2Q9, _>(&one(), &flags, st.state_mut(), |x, y, _| {
            let v = 0.01 * ((x * 7 + y * 3) % 11) as Scalar;
            (1.0 + v, [0.1 * v, -0.05 * v, 0.0])
        });
        st.adopt_canonical();
        (flags, st)
    }

    fn one() -> ThreadPool {
        ThreadPool::new(1)
    }

    /// The per-cell reference of where canonical `f_q(x, y, z)` lives — the
    /// `neighbor_periodic` formula, one cell at a time: AB at the cell, AA
    /// `Reversed` at the cell's opposite slot, AA `Streamed` at
    /// `(cell + c_q, q)`.
    fn canonical_at<L: Lattice>(
        st: &Storage<SoaField<L>>,
        [x, y, z]: [usize; 3],
        q: usize,
    ) -> Scalar {
        let (src, dims) = (st.state(), st.state().dims());
        match st.parity() {
            None => src.get(dims.idx(x, y, z), q),
            Some(AaParity::Reversed) => src.get(dims.idx(x, y, z), L::OPP[q]),
            Some(AaParity::Streamed) => {
                let [a, b, d] = dims.neighbor_periodic(x, y, z, L::C[q]);
                src.get(dims.idx(a, b, d), q)
            }
        }
    }

    fn coll() -> CollisionKind {
        CollisionKind::Bgk(crate::collision::BgkParams::from_tau(0.8))
    }

    /// One plain step: level 1 over the whole grid, then advance by 1.
    fn plain_step(st: &mut Storage<SoaField<D2Q9>>, flags: &FlagField) {
        let d = flags.dims();
        st.sweep(
            &ThreadPool::new(1),
            flags,
            &coll(),
            None,
            1,
            0..d.nx,
            0..d.ny,
        );
        st.advance(1);
    }

    #[test]
    fn canonical_undoes_the_scheme_at_every_parity() {
        // AB: the source buffer itself, borrowed.
        let (flags, ab) = painted(StorageScheme::Ab);
        assert!(matches!(ab.canonical(&one()), Cow::Borrowed(f) if std::ptr::eq(f, ab.state())));
        // AA Reversed: the slot reversal undone.
        let (_, mut aa) = painted(StorageScheme::Aa);
        let mut want = aa.state().clone();
        reverse_planes::<D2Q9>(&mut want);
        assert!(aa.canonical(&one()).raw() == want.raw());
        assert!(
            aa.canonical(&one()).raw() == ab.state().raw(),
            "same canonical start"
        );
        // AA Streamed: the in-place streaming undone, cell by cell.
        plain_step(&mut aa, &flags);
        assert_eq!(aa.parity(), Some(AaParity::Streamed));
        let (got, dims) = (aa.canonical(&one()), flags.dims());
        for at in dims.iter() {
            for q in 0..9 {
                let cell = dims.idx(at[0], at[1], at[2]);
                assert_eq!(got.get(cell, q), canonical_at(&aa, at, q), "{at:?} q{q}");
            }
        }
    }

    /// Every slot of a `dims` grid holding a distinct value, as storage of
    /// each scheme and parity.
    fn distinct_stores<L: Lattice>(dims: GridDims) -> [Storage<SoaField<L>>; 3] {
        let mut raw = SoaField::<L>::new(dims);
        for (i, v) in raw.raw_mut().iter_mut().enumerate() {
            *v = i as Scalar;
        }
        [
            Storage::Ab(AbBuffers::new(raw.clone(), SoaField::new(dims))),
            Storage::Aa {
                field: raw.clone(),
                parity: AaParity::Reversed,
            },
            Storage::Aa {
                field: raw,
                parity: AaParity::Streamed,
            },
        ]
    }

    fn walk_matches_the_per_cell_reference<L: Lattice>() {
        // At nz = 1 and 2, ±c_z wrap onto the same slots.
        for nz in [1, 2, 5] {
            // A 3 × 2 owned block in a 2-deep ghost ring, a solid in each.
            let (h, dims) = (2, GridDims::new(3 + 4, 2 + 4, nz));
            let mut flags = FlagField::new(dims);
            flags.set(0, 1, 0, NodeKind::Wall);
            flags.set(h + 1, h, nz - 1, NodeKind::Wall);
            for st in distinct_stores::<L>(dims) {
                let what = format!("{} nz={nz} {:?}", std::any::type_name::<L>(), st.parity());
                let [serial, pooled] =
                    [1, 3].map(|t| st.canonical(&ThreadPool::new(t)).into_owned());
                assert!(serial.raw() == pooled.raw(), "{what}: thread count");
                for at in dims.iter() {
                    let cell = dims.idx(at[0], at[1], at[2]);
                    for q in 0..L::Q {
                        let want = canonical_at(&st, at, q);
                        assert_eq!(serial.get(cell, q), want, "{what}: {at:?} q{q}");
                    }
                }
                for (xr, yr) in [(0..dims.nx, 0..dims.ny), (h..dims.nx - h, h..dims.ny - h)] {
                    let mut seen = Vec::new();
                    st.for_each_cell(&flags, xr.clone(), yr.clone(), |cell, kind, f| {
                        assert_eq!(kind, flags.kind(cell));
                        let at = dims.coords(cell);
                        for q in 0..L::Q {
                            assert_eq!(f[q], canonical_at(&st, at, q), "{what}: {at:?} q{q}");
                        }
                        seen.push(cell);
                    });
                    let order = yr.flat_map(|y| {
                        xr.clone()
                            .flat_map(move |x| (0..nz).map(move |z| dims.idx(x, y, z)))
                    });
                    assert!(seen.into_iter().eq(order), "{what}: (y, x, z) order");
                }
            }
        }
    }

    #[test]
    fn the_pencil_walk_reads_every_cell_where_the_per_cell_reference_does() {
        walk_matches_the_per_cell_reference::<D2Q9>();
        walk_matches_the_per_cell_reference::<D3Q19>();
    }

    #[test]
    fn adopt_canonical_inverts_canonical() {
        for (scheme, steps) in [
            (StorageScheme::Ab, 1),
            (StorageScheme::Aa, 2),
            (StorageScheme::Aa, 1),
        ] {
            let (flags, mut st) = painted(scheme);
            for _ in 0..steps {
                plain_step(&mut st, &flags);
            }
            let (raw, canonical) = (st.state().clone(), st.canonical(&one()).into_owned());
            st.state_mut().raw_mut().copy_from_slice(canonical.raw());
            st.adopt_canonical();
            assert!(
                st.canonical(&one()).raw() == canonical.raw(),
                "{scheme:?} {steps}"
            );
            // AA restarts at Reversed; from there (and under AB) the raw grid
            // itself comes back.
            assert_ne!(st.parity(), Some(AaParity::Streamed));
            if steps != 1 || scheme == StorageScheme::Ab {
                assert!(st.state().raw() == raw.raw(), "{scheme:?} {steps}");
            }
        }
    }

    #[test]
    fn sweep_levels_and_advance_compose_to_plain_steps() {
        // Levels 1..=3 over the whole grid, then one advance(3), must equal
        // three plain steps — each of which must equal the reference kernel.
        let d = GridDims::new2d(7, 6);
        let (flags, ab0) = painted(StorageScheme::Ab);
        let mut want = [ab0.state().clone(), SoaField::new(d)];
        for _ in 0..3 {
            let (src, dst) = want.split_at_mut(1);
            crate::kernels::fused_step(&flags, &src[0], &mut dst[0], &coll());
            want.swap(0, 1);
        }
        for scheme in [StorageScheme::Ab, StorageScheme::Aa] {
            let (_, mut plain) = painted(scheme);
            let (_, mut levels) = painted(scheme);
            for level in 1..=3 {
                plain_step(&mut plain, &flags);
                levels.sweep(
                    &ThreadPool::new(1),
                    &flags,
                    &coll(),
                    None,
                    level,
                    0..d.nx,
                    0..d.ny,
                );
            }
            levels.advance(3);
            assert_eq!(levels.parity(), plain.parity());
            assert!(levels.state().raw() == plain.state().raw(), "{scheme:?}");
            let got = plain.canonical(&one());
            for cell in (0..d.cells()).filter(|&c| flags.kind(c).is_fluid()) {
                for q in 0..9 {
                    assert_eq!(
                        got.get(cell, q),
                        want[0].get(cell, q),
                        "{scheme:?} {cell} {q}"
                    );
                }
            }
        }
        // An even advance changes nothing that is observable.
        let (_, mut aa) = painted(StorageScheme::Aa);
        aa.advance(2);
        assert_eq!(aa.parity(), Some(AaParity::Reversed));
    }

    #[test]
    fn check_depth_rejects_zero_and_odd_aa_blocks_only() {
        for k in 0..=6usize {
            let ab = StorageScheme::Ab.check_depth(k);
            let aa = StorageScheme::Aa.check_depth(k);
            assert_eq!(ab.is_ok(), k >= 1, "AB k={k}");
            assert_eq!(aa.is_ok(), k == 1 || (k >= 2 && k % 2 == 0), "AA k={k}");
            for e in [ab, aa].into_iter().filter_map(Result::err) {
                assert!(matches!(e, SwlbError::InvalidConfig(_)), "{e}");
            }
        }
    }

    #[test]
    fn check_flags_rejects_open_boundaries_under_aa_only() {
        let dims = GridDims::new(6, 5, 4);
        let mut closed = FlagField::new(dims);
        closed.set_box_walls();
        closed.paint_lid([0.05, 0.0, 0.0]);
        let mut io = FlagField::new(dims);
        io.paint_inflow_outflow_x(1.0, [0.03, 0.0, 0.0]);
        let mut nebb = FlagField::new(dims);
        nebb.paint_nebb_inflow_outflow_x([0.03, 0.0, 0.0], 1.0);
        let mut inlet_only = FlagField::new(dims);
        inlet_only.set(
            0,
            2,
            2,
            crate::boundary::NodeKind::Inlet {
                rho: 1.0,
                u: [0.0; 3],
            },
        );
        for flags in [&closed, &io, &nebb, &inlet_only, &FlagField::new(dims)] {
            assert!(StorageScheme::Ab.check_flags(flags).is_ok());
        }
        assert!(StorageScheme::Aa.check_flags(&closed).is_ok());
        assert!(StorageScheme::Aa.check_flags(&FlagField::new(dims)).is_ok());
        for flags in [&io, &nebb, &inlet_only] {
            let e = StorageScheme::Aa.check_flags(flags).unwrap_err();
            assert!(matches!(e, SwlbError::InvalidConfig(_)), "{e}");
        }
    }

    #[test]
    fn ab_buffers_flip_and_pair() {
        let dims = GridDims::new2d(2, 2);
        let a = SoaField::<D2Q9>::new(dims);
        let b = SoaField::<D2Q9>::new(dims);
        let mut ab = AbBuffers::new(a, b);

        ab.src_mut().set(0, 0, 42.0);
        {
            let (src, dst) = ab.both_mut();
            assert_eq!(src.get(0, 0), 42.0);
            dst.set(0, 0, 43.0);
        }
        ab.flip();
        assert_eq!(ab.src().get(0, 0), 43.0);
        // Flipping back recovers the original buffer.
        ab.flip();
        assert_eq!(ab.src().get(0, 0), 42.0);
    }
}
