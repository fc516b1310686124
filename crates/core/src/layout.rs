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

use crate::geometry::GridDims;
use crate::lattice::Lattice;
use crate::Scalar;
use std::marker::PhantomData;

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

    /// Fill every cell with the same population vector.
    fn fill_with(&mut self, vals: &[Scalar]) {
        for cell in 0..self.cells() {
            self.store_cell(cell, vals);
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

    /// Stable byte encoding for checkpoints (0 = reversed, 1 = streamed).
    pub fn as_u8(self) -> u8 {
        match self {
            AaParity::Reversed => 0,
            AaParity::Streamed => 1,
        }
    }

    /// Decode the checkpoint byte.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(AaParity::Reversed),
            1 => Some(AaParity::Streamed),
            _ => None,
        }
    }
}

/// Scheme-dispatched population storage: either an A-B pair or a single
/// AA-pattern grid plus its parity. This is what `Solver` holds; kernels and
/// drivers match on it once per step.
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

    /// The buffer that the next step will write into.
    #[inline]
    pub fn dst_mut(&mut self) -> &mut F {
        &mut self.bufs[1 - self.cur]
    }

    /// Borrow `(src, dst)` simultaneously — the shape every kernel wants.
    #[inline]
    pub fn pair_mut(&mut self) -> (&F, &mut F) {
        let (lo, hi) = self.bufs.split_at_mut(1);
        if self.cur == 0 {
            (&lo[0], &mut hi[0])
        } else {
            (&hi[0], &mut lo[0])
        }
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

    /// Which physical buffer (0/1) is currently `src` — used by checkpointing.
    #[inline]
    pub fn current_index(&self) -> usize {
        self.cur
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
    fn aa_parity_flips_and_encodes() {
        assert_eq!(AaParity::Reversed.flip(), AaParity::Streamed);
        assert_eq!(AaParity::Streamed.flip(), AaParity::Reversed);
        for p in [AaParity::Reversed, AaParity::Streamed] {
            assert_eq!(AaParity::from_u8(p.as_u8()), Some(p));
        }
        assert_eq!(AaParity::from_u8(7), None);
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

    #[test]
    fn ab_buffers_flip_and_pair() {
        let dims = GridDims::new2d(2, 2);
        let a = SoaField::<D2Q9>::new(dims);
        let b = SoaField::<D2Q9>::new(dims);
        let mut ab = AbBuffers::new(a, b);
        assert_eq!(ab.current_index(), 0);

        ab.src_mut().set(0, 0, 42.0);
        {
            let (src, dst) = ab.pair_mut();
            assert_eq!(src.get(0, 0), 42.0);
            dst.set(0, 0, 43.0);
        }
        ab.flip();
        assert_eq!(ab.current_index(), 1);
        assert_eq!(ab.src().get(0, 0), 43.0);
        // Flipping back recovers the original buffer.
        ab.flip();
        assert_eq!(ab.src().get(0, 0), 42.0);
    }

    #[test]
    fn fill_with_sets_every_cell() {
        let dims = GridDims::new(2, 2, 2);
        let mut f = AosField::<D3Q19>::new(dims);
        let vals: Vec<Scalar> = (0..19).map(|q| 1.0 + q as Scalar).collect();
        f.fill_with(&vals);
        for cell in 0..8 {
            for q in 0..19 {
                assert_eq!(f.get(cell, q), 1.0 + q as Scalar);
            }
        }
    }
}
