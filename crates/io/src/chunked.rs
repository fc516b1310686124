//! The checkpoint format: rank-count-independent chunks (format v3).
//!
//! [`ChunkedCheckpoint`] is the only checkpoint type anything above this
//! crate sees, and this is its only on-disk form. A checkpoint stores
//! **per-source-rank chunks tagged with their global rectangle**: a manifest
//! records the global dims plus each chunk's `(x0, y0, lnx, lny)`, and each
//! chunk carries its owned interior (no halo ring) in a fixed
//! y → x → z → q order. A resume on any rank count lands each
//! destination rectangle from whichever source chunks overlap it
//! ([`ChunkedCheckpoint::land`]), so checkpoint-on-N / resume-on-M is
//! pure coordinate arithmetic — the same block-wise repartitioning
//! waLBerla-style frameworks use for dynamic load balancing. A serial
//! solver's checkpoint is the special case of one chunk covering the domain.
//!
//! Only this module knows the chunk order. Callers cross over through two
//! pencil transposes: [`CheckpointChunk::pack`] reads each `(y, x)` pencil's
//! `nz` runs wherever the caller's grid keeps them (a run and a z rotation
//! per direction), and [`ChunkedCheckpoint::land`] writes them into a SoA
//! grid (`grid[q · cells + cell]`; whole domain: [`ChunkedCheckpoint::to_soa`]),
//! each run to or from the stride-`q` slots of its `nz·q` payload block. The
//! chunks tile the domain exactly once ([`ChunkedCheckpoint::validate`]).
//!
//! [`ChunkedCheckpoint::read`] is the one reader. It dispatches on the file
//! magic: a group container is decoded here; anything else is handed to the
//! upgrade of the retired whole-domain layouts (see [`crate::checkpoint`]),
//! which returns one whole-domain chunk. Callers never learn which it was.
//!
//! On disk a checkpoint is one indexed container (`group`, the paper's group
//! I/O of §IV-B with the whole world as one group): chunk payloads are the
//! members, and the manifest sits under the reserved id [`MANIFEST_ID`]. The
//! reader decodes each member straight from the verified file bytes, so a
//! load holds the lattice twice at most: the file and the decoded chunks.
//!
//! Manifest layout (little-endian), stored as the [`MANIFEST_ID`] chunk:
//!
//! ```text
//! version u32   3
//! step    u64   completed time steps
//! nx,ny,nz u32  GLOBAL grid dims
//! q       u32   populations per cell
//! scheme  u8    producer storage scheme (0 = AB, 1 = AA)
//! parity  u8    always 0: chunks are canonical (the reader rejects others)
//! pad     u16   reserved, zero
//! count   u32   number of chunks
//! count × { x0 u32, y0 u32, lnx u32, lny u32 }   global rectangles
//! ```
//!
//! Chunk `i`'s payload is stored under container id `i`: raw little-endian
//! `f64`s, length `lnx·lny·nz·q`, indexed `((y·lnx + x)·nz + z)·q + q_i`
//! with `(x, y)` local to the chunk.

use crate::checkpoint::{
    check_canonical, checked_payload_len, f64s_from_le, upgrade_legacy, CheckpointError,
    FieldReader, SCHEME_AA,
};
use crate::group::{members, ContainerWriter, GROUP_MAGIC};
use std::io::{self, Read, Write};
use swlb_core::geometry::GridDims;

/// Reserved container id holding the manifest.
pub const MANIFEST_ID: u32 = u32::MAX;
/// Format version recorded in the manifest.
pub const CHUNKED_VERSION: u32 = 3;

/// Global rectangle owned by one chunk (interior cells, no halo).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Global x of the rectangle's first column.
    pub x0: u32,
    /// Global y of the rectangle's first row.
    pub y0: u32,
    /// Columns in the rectangle.
    pub lnx: u32,
    /// Rows in the rectangle.
    pub lny: u32,
}

impl ChunkMeta {
    /// The rectangle covering a whole `dims` domain.
    pub fn whole(dims: (u32, u32, u32)) -> Self {
        ChunkMeta { x0: 0, y0: 0, lnx: dims.0, lny: dims.1 }
    }
}

/// One source rank's owned rectangle plus its canonical populations.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointChunk {
    /// Where the chunk sits in the global domain.
    pub meta: ChunkMeta,
    /// Canonical populations in y → x → z → q order, length `lnx·lny·nz·q`.
    pub data: Vec<f64>,
}

impl CheckpointChunk {
    /// Pack the global rectangle `meta` (`nz` cells deep, `q` populations)
    /// from a run source: `run(q, x, y)` gives the canonical `nz` run of
    /// direction `q` at the rectangle's column `(x, y)` and its z rotation,
    /// `f_q(z) = run[(z + rot) % nz]`. A SoA grid gives its plane slice at
    /// rotation 0; a solver gives its raw storage wherever the scheme put it.
    pub fn pack<'a>(
        nz: usize,
        q: usize,
        meta: ChunkMeta,
        run: impl Fn(usize, usize, usize) -> (&'a [f64], usize),
    ) -> Self {
        let lnx = meta.lnx as usize;
        let mut data = vec![0.0; lnx * meta.lny as usize * nz * q];
        for (p, pencil) in data.chunks_exact_mut(nz * q).enumerate() {
            for qi in 0..q {
                let (run, rot) = run(qi, p % lnx, p / lnx);
                assert_eq!(run.len(), nz, "run length");
                let slots = pencil[qi..].iter_mut().step_by(q);
                for (slot, &v) in slots.zip(run[rot..].iter().chain(&run[..rot])) {
                    *slot = v;
                }
            }
        }
        CheckpointChunk { meta, data }
    }
}

/// A rank-count-independent checkpoint: global metadata plus per-source-rank
/// rectangles that tile the global domain exactly once.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkedCheckpoint {
    /// Completed time steps at capture.
    pub step: u64,
    /// Global grid dims.
    pub dims: (u32, u32, u32),
    /// Populations per cell (`Q`).
    pub q: u32,
    /// Producer storage scheme (metadata only; chunk payloads are canonical).
    pub scheme: u8,
    /// Source rectangles, one per producing rank.
    pub chunks: Vec<CheckpointChunk>,
}

/// Whether `m` is a nonempty rectangle inside the `dims` domain.
fn inside(m: ChunkMeta, dims: (u32, u32, u32)) -> bool {
    let fits = |at: u32, n: u32, extent: u32| n > 0 && at as u64 + n as u64 <= extent as u64;
    fits(m.x0, m.lnx, dims.0) && fits(m.y0, m.lny, dims.1)
}

impl ChunkedCheckpoint {
    /// A serial solver's checkpoint: one chunk covering the `dims` domain,
    /// packed from `run` ([`CheckpointChunk::pack`]).
    pub fn single_chunk<'a>(
        step: u64,
        dims: (u32, u32, u32),
        q: u32,
        scheme: u8,
        run: impl Fn(usize, usize, usize) -> (&'a [f64], usize),
    ) -> Self {
        let chunk = CheckpointChunk::pack(dims.2 as usize, q as usize, ChunkMeta::whole(dims), run);
        ChunkedCheckpoint { step, dims, q, scheme, chunks: vec![chunk] }
    }

    /// Refuse a checkpoint that does not restore into a `dims` grid of `q`
    /// populations: another shape, or chunks that do not tile the domain.
    pub fn check_fits(&self, dims: (u32, u32, u32), q: u32) -> Result<(), CheckpointError> {
        if (self.dims, self.q) != (dims, q) {
            return Err(CheckpointError::Corrupt(format!(
                "checkpoint is {:?} q{}, solver needs {dims:?} q{q}",
                self.dims, self.q
            )));
        }
        self.validate()
    }

    /// Structural validation: sane header fields, every rectangle inside the
    /// global domain, every payload exactly `lnx·lny·nz·q` long, and the
    /// rectangles tiling the domain exactly once (no gap, no overlap).
    pub fn validate(&self) -> Result<(), CheckpointError> {
        if self.scheme > SCHEME_AA {
            return Err(CheckpointError::Corrupt(format!(
                "unknown storage scheme {}",
                self.scheme
            )));
        }
        // Also rejects dims×q products that are zero or overflow.
        checked_payload_len(self.dims, self.q)?;
        let zq = self.dims.2 as usize * self.q as usize;
        let mut area = 0usize;
        for (i, ch) in self.chunks.iter().enumerate() {
            let m = ch.meta;
            if !inside(m, self.dims) {
                return Err(CheckpointError::Corrupt(format!(
                    "chunk {i} rectangle {}x{} at ({}, {}) leaves the {}x{} domain",
                    m.lnx, m.lny, m.x0, m.y0, self.dims.0, self.dims.1
                )));
            }
            let cells = (m.lnx as usize).checked_mul(m.lny as usize);
            let expect = cells.and_then(|c| c.checked_mul(zq));
            if expect != Some(ch.data.len()) {
                return Err(CheckpointError::Corrupt(format!(
                    "chunk {i} payload length {} does not match {}x{}x{}x{}",
                    ch.data.len(),
                    m.lnx,
                    m.lny,
                    self.dims.2,
                    self.q
                )));
            }
            // Bounded by the payload just checked, so this cannot overflow.
            area += m.lnx as usize * m.lny as usize;
        }
        // Areas first: the coverage map below is as large as the domain, and
        // only a domain the payloads actually fill may size an allocation.
        let (nx, ny) = (self.dims.0 as usize, self.dims.1 as usize);
        if area != nx * ny {
            return Err(CheckpointError::Corrupt(format!(
                "chunks cover {area} cell columns of the {nx}x{ny} domain's {}",
                nx * ny
            )));
        }
        let mut covered = vec![false; nx * ny];
        for (i, ch) in self.chunks.iter().enumerate() {
            let m = ch.meta;
            for y in m.y0 as usize..(m.y0 + m.lny) as usize {
                let row = &mut covered[y * nx + m.x0 as usize..][..m.lnx as usize];
                if row.contains(&true) {
                    return Err(CheckpointError::Corrupt(format!("chunk {i} overlaps another")));
                }
                row.fill(true);
            }
        }
        Ok(())
    }

    /// Fill the SoA grid `dst` (`q` planes over `dims`) with the global
    /// rectangle `rect`, taking cells from every chunk that overlaps it; the
    /// rectangle's first column lands at local `origin`. This is the
    /// re-sharding primitive: the caller's partition and the producer's never
    /// need to match. Cells of `dst` outside the rectangle are left alone.
    pub fn land(
        &self,
        rect: ChunkMeta,
        dst: &mut [f64],
        dims: GridDims,
        origin: (usize, usize),
    ) -> Result<(), CheckpointError> {
        self.validate()?;
        if !inside(rect, self.dims) {
            return Err(CheckpointError::Corrupt(format!(
                "requested rectangle {}x{} at ({}, {}) leaves the {}x{} domain",
                rect.lnx, rect.lny, rect.x0, rect.y0, self.dims.0, self.dims.1
            )));
        }
        let (q, nz, cells) = (self.q as usize, dims.nz, dims.cells());
        assert_eq!((nz, dst.len()), (self.dims.2 as usize, cells * q), "grid shape");
        assert!(
            origin.0 + rect.lnx as usize <= dims.nx && origin.1 + rect.lny as usize <= dims.ny,
            "rectangle leaves the grid"
        );
        let (rx, ry) = (rect.x0 as usize, rect.y0 as usize);
        let (rx1, ry1) = (rx + rect.lnx as usize, ry + rect.lny as usize);
        for ch in &self.chunks {
            let m = ch.meta;
            let (cx, cy) = (m.x0 as usize, m.y0 as usize);
            let (x0, x1) = (rx.max(cx), rx1.min(cx + m.lnx as usize));
            let (y0, y1) = (ry.max(cy), ry1.min(cy + m.lny as usize));
            for y in y0..y1 {
                for x in x0..x1 {
                    let p = (y - cy) * m.lnx as usize + (x - cx);
                    let pencil = &ch.data[p * nz * q..][..nz * q];
                    let at = dims.idx(origin.0 + x - rx, origin.1 + y - ry, 0);
                    for qi in 0..q {
                        let run = &mut dst[qi * cells + at..][..nz];
                        for (v, &slot) in run.iter_mut().zip(pencil[qi..].iter().step_by(q)) {
                            *v = slot;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The whole domain as one SoA grid: [`ChunkedCheckpoint::land`] over the
    /// global rectangle.
    pub fn to_soa(&self) -> Result<Vec<f64>, CheckpointError> {
        self.validate()?;
        let (nx, ny, nz) = self.dims;
        let dims = GridDims::new(nx as usize, ny as usize, nz as usize);
        let mut soa = vec![0.0; dims.cells() * self.q as usize];
        self.land(ChunkMeta::whole(self.dims), &mut soa, dims, (0, 0))?;
        Ok(soa)
    }

    /// Serialize as a container (manifest + one member chunk per source
    /// rectangle). Chunk values stream straight to `w`; the file is never
    /// assembled in memory.
    pub fn write(&self, w: &mut impl Write) -> io::Result<()> {
        let mut manifest = Vec::with_capacity(40 + self.chunks.len() * 16);
        manifest.extend_from_slice(&CHUNKED_VERSION.to_le_bytes());
        manifest.extend_from_slice(&self.step.to_le_bytes());
        manifest.extend_from_slice(&self.dims.0.to_le_bytes());
        manifest.extend_from_slice(&self.dims.1.to_le_bytes());
        manifest.extend_from_slice(&self.dims.2.to_le_bytes());
        manifest.extend_from_slice(&self.q.to_le_bytes());
        manifest.push(self.scheme);
        manifest.push(0); // parity: chunks are canonical
        manifest.extend_from_slice(&0u16.to_le_bytes());
        manifest.extend_from_slice(&(self.chunks.len() as u32).to_le_bytes());
        for ch in &self.chunks {
            manifest.extend_from_slice(&ch.meta.x0.to_le_bytes());
            manifest.extend_from_slice(&ch.meta.y0.to_le_bytes());
            manifest.extend_from_slice(&ch.meta.lnx.to_le_bytes());
            manifest.extend_from_slice(&ch.meta.lny.to_le_bytes());
        }
        // Members in ascending id, as the container lays them out: chunk
        // `i` under id `i`, the manifest under the largest id.
        let members: Vec<_> = (0..)
            .zip(self.chunks.iter().map(|ch| ch.data.len() as u64 * 8))
            .chain([(MANIFEST_ID, manifest.len() as u64)])
            .collect();
        let mut out = ContainerWriter::start(w, &members)?;
        let mut buf = Vec::new();
        for block in self.chunks.iter().flat_map(|ch| ch.data.chunks(1 << 15)) {
            buf.clear();
            block.iter().for_each(|v| buf.extend_from_slice(&v.to_le_bytes()));
            out.put(&buf)?;
        }
        out.put(&manifest)?;
        out.finish()
    }

    /// Read and verify a checkpoint — the one reader. Retired whole-domain
    /// files come back upgraded to a single chunk.
    pub fn read(r: &mut impl Read) -> Result<Self, CheckpointError> {
        let mut body = Vec::new();
        r.read_to_end(&mut body)?;
        Self::parse(&body)
    }

    /// [`ChunkedCheckpoint::read`] over bytes already in memory. A container
    /// is decoded here, each chunk once, from the bytes its CRC was checked
    /// over.
    pub(crate) fn parse(body: &[u8]) -> Result<Self, CheckpointError> {
        if !body.starts_with(GROUP_MAGIC) {
            return upgrade_legacy(body);
        }
        let members = members(body)?;
        let manifest = members.get(&MANIFEST_ID).ok_or_else(|| {
            CheckpointError::Corrupt("container has no checkpoint manifest".into())
        })?;
        let mut rd = FieldReader::new(manifest);
        let version = rd.u32("version")?;
        if version != CHUNKED_VERSION {
            return Err(CheckpointError::Corrupt(format!(
                "unsupported chunked version {version}"
            )));
        }
        let step = rd.u64("step")?;
        let dims = (rd.u32("nx")?, rd.u32("ny")?, rd.u32("nz")?);
        let q = rd.u32("q")?;
        let scheme = rd.u8("scheme")?;
        check_canonical(rd.u8("parity")?)?;
        let _pad = rd.u16("pad")?;
        let count = rd.u32("chunk count")?;
        let mut chunks = Vec::new();
        for i in 0..count {
            let meta = ChunkMeta {
                x0: rd.u32("chunk x0")?,
                y0: rd.u32("chunk y0")?,
                lnx: rd.u32("chunk lnx")?,
                lny: rd.u32("chunk lny")?,
            };
            let bytes = members.get(&i).ok_or_else(|| {
                CheckpointError::Corrupt(format!("manifest lists chunk {i} but it is missing"))
            })?;
            if !bytes.len().is_multiple_of(8) {
                return Err(CheckpointError::Corrupt(format!(
                    "chunk {i} byte length {} is not a multiple of 8",
                    bytes.len()
                )));
            }
            chunks.push(CheckpointChunk {
                meta,
                data: f64s_from_le(bytes),
            });
        }
        let ck = ChunkedCheckpoint {
            step,
            dims,
            q,
            scheme,
            chunks,
        };
        ck.validate()?;
        Ok(ck)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{reseal, SCHEME_AB};
    use crate::group::container;
    use std::collections::BTreeMap;

    /// 6×4×1 domain, q = 2, split into two x-halves with distinct values so
    /// misplacement is visible.
    fn sample() -> ChunkedCheckpoint {
        x_strips((6, 4, 1), 2, &[3, 3])
    }

    /// A `dims` domain with `q` populations, cut into x-strips of `widths`,
    /// every value distinct.
    fn x_strips(dims: (u32, u32, u32), q: u32, widths: &[usize]) -> ChunkedCheckpoint {
        let (ny, nz) = (dims.1 as usize, dims.2 as usize);
        let value = |x: usize, y: usize, z: usize, qi: usize| {
            (x * 1000 + y * 100 + z * 10 + qi) as f64
        };
        let chunk = |x0: usize, lnx: usize| {
            let mut data = Vec::new();
            for y in 0..ny {
                for x in 0..lnx {
                    for z in 0..nz {
                        for qi in 0..q as usize {
                            data.push(value(x0 + x, y, z, qi));
                        }
                    }
                }
            }
            CheckpointChunk {
                meta: ChunkMeta {
                    x0: x0 as u32,
                    y0: 0,
                    lnx: lnx as u32,
                    lny: ny as u32,
                },
                data,
            }
        };
        let x0s = widths.iter().scan(0, |x0, w| {
            *x0 += w;
            Some(*x0 - w)
        });
        ChunkedCheckpoint {
            step: 17,
            dims,
            q,
            scheme: SCHEME_AB,
            chunks: x0s.zip(widths).map(|(x0, &w)| chunk(x0, w)).collect(),
        }
    }

    /// The file as the writer used to build it: every chunk copied out to
    /// bytes, the whole body assembled in memory, then checksummed at once.
    fn assembled_bytes(ck: &ChunkedCheckpoint) -> Vec<u8> {
        let mut members: Vec<(u32, Vec<u8>)> = (0..)
            .zip(&ck.chunks)
            .map(|(i, ch)| (i, ch.data.iter().flat_map(|v| v.to_le_bytes()).collect()))
            .collect();
        members.push((MANIFEST_ID, members_of(ck).remove(&MANIFEST_ID).unwrap()));
        let mut body = GROUP_MAGIC.to_vec();
        body.extend_from_slice(&(members.len() as u32).to_le_bytes());
        let mut offset = (12 + 20 * members.len()) as u64;
        for (rank, data) in &members {
            body.extend_from_slice(&rank.to_le_bytes());
            body.extend_from_slice(&offset.to_le_bytes());
            body.extend_from_slice(&(data.len() as u64).to_le_bytes());
            offset += data.len() as u64;
        }
        for (_, data) in &members {
            body.extend_from_slice(data);
        }
        let crc = crate::checkpoint::crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        body
    }

    #[test]
    fn streamed_file_is_byte_identical_to_the_assembled_one() {
        let sample_file = bytes_of(&sample());
        // The CRC a previous build wrote into this file.
        assert_eq!(sample_file[sample_file.len() - 4..], 0xda4a_7ce0u32.to_le_bytes());
        assert_eq!(sample_file, assembled_bytes(&sample()));
        // Chunks larger than one streaming block, in 2- and 3-chunk groups.
        for widths in [&[20, 20][..], &[14, 13, 13]] {
            let ck = x_strips((40, 16, 12), 19, widths);
            assert!(ck.chunks[0].data.len() > 1 << 15);
            assert_eq!(bytes_of(&ck), assembled_bytes(&ck), "widths {widths:?}");
            assert_eq!(read(&bytes_of(&ck)).unwrap(), ck);
        }
    }

    fn bytes_of(ck: &ChunkedCheckpoint) -> Vec<u8> {
        let mut buf = Vec::new();
        ck.write(&mut buf).unwrap();
        buf
    }

    /// `ck`'s file as an editable map of its container members; rebuild a
    /// file from one with `container`.
    fn members_of(ck: &ChunkedCheckpoint) -> BTreeMap<u32, Vec<u8>> {
        let file = bytes_of(ck);
        members(&file).unwrap().into_iter().map(|(id, m)| (id, m.to_vec())).collect()
    }

    fn read(bytes: &[u8]) -> Result<ChunkedCheckpoint, CheckpointError> {
        ChunkedCheckpoint::read(&mut &bytes[..])
    }

    #[track_caller]
    fn assert_corrupt(got: Result<ChunkedCheckpoint, CheckpointError>, what: &str) -> String {
        match got {
            Err(CheckpointError::Corrupt(m)) => m,
            other => panic!("{what}: expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let ck = sample();
        let mut buf = Vec::new();
        ck.write(&mut buf).unwrap();
        let back = ChunkedCheckpoint::read(&mut buf.as_slice()).unwrap();
        assert_eq!(back, ck);
    }

    /// A 4×2 rectangle at global (1, 1), landed at `origin` of a `w × h × 1`
    /// grid of `sample()`'s two planes pre-filled with -1.
    fn land_sample_rect(
        ck: &ChunkedCheckpoint,
        w: usize,
        h: usize,
        origin: (usize, usize),
    ) -> Vec<f64> {
        let dims = GridDims::new(w, h, 1);
        let mut grid = vec![-1.0; dims.cells() * 2];
        let rect = ChunkMeta {
            x0: 1,
            y0: 1,
            lnx: 4,
            lny: 2,
        };
        ck.land(rect, &mut grid, dims, origin).unwrap();
        grid
    }

    #[test]
    fn extract_rect_crosses_chunk_boundaries() {
        // The 4×2 rectangle at (1, 1) straddles both source chunks; landed at
        // (1, 1) of a 5×3 grid, the grid's first row and column stay -1.
        let got = land_sample_rect(&sample(), 5, 3, (1, 1));
        let mut want = Vec::new();
        for qi in 0..2 {
            for y in 0..3 {
                for x in 0..5 {
                    let inside = x >= 1 && y >= 1;
                    want.push(if inside {
                        (x * 1000 + y * 100 + qi) as f64
                    } else {
                        -1.0
                    });
                }
            }
        }
        assert_eq!(got, want);
    }

    /// The run source of a SoA grid of `dims` and `q` planes whose column
    /// `(x, y)` sits at local `origin + (x, y)`.
    fn soa_runs<'a>(
        soa: &'a [f64],
        dims: GridDims,
        q: usize,
        origin: (usize, usize),
    ) -> impl Fn(usize, usize, usize) -> (&'a [f64], usize) {
        assert_eq!(soa.len(), dims.cells() * q);
        move |qi, x, y| {
            let at = qi * dims.cells() + dims.idx(origin.0 + x, origin.1 + y, 0);
            (&soa[at..at + dims.nz], 0)
        }
    }

    #[test]
    fn assemble_global_matches_single_chunk_of_itself() {
        let ck = sample();
        let global = ck.to_soa().unwrap();
        let runs = soa_runs(&global, GridDims::new(6, 4, 1), 2, (0, 0));
        let single = ChunkedCheckpoint::single_chunk(ck.step, ck.dims, ck.q, ck.scheme, runs);
        assert_eq!(single.to_soa().unwrap(), global);
        assert_eq!(
            land_sample_rect(&single, 4, 2, (0, 0)),
            land_sample_rect(&ck, 4, 2, (0, 0))
        );
    }

    #[test]
    fn coverage_gap_is_corrupt_not_zeros() {
        // A missing chunk, and a chunk moved one column onto its neighbour:
        // the same total area, so only the coverage map can see it.
        let mut gap = sample();
        gap.chunks.pop();
        let m = assert_corrupt(read(&bytes_of(&gap)), "gap");
        assert!(m.contains("cover"), "{m}");
        let mut overlap = sample();
        overlap.chunks[1].meta.x0 = 2;
        let m = assert_corrupt(read(&bytes_of(&overlap)), "overlap");
        assert!(m.contains("overlaps"), "{m}");
        // Nothing lands from either.
        let dims = GridDims::new(6, 4, 1);
        let whole_rect = ChunkMeta::whole(gap.dims);
        for ck in [&gap, &overlap] {
            let mut grid = vec![0.0; dims.cells() * 2];
            assert!(ck.land(whole_rect, &mut grid, dims, (0, 0)).is_err());
            assert!(ck.to_soa().is_err());
        }
    }

    #[test]
    fn out_of_domain_rect_is_rejected() {
        let ck = sample();
        let dims = GridDims::new(6, 4, 1);
        let mut grid = vec![0.0; dims.cells() * 2];
        for rect in [
            ChunkMeta {
                x0: 4,
                y0: 0,
                lnx: 3,
                lny: 4,
            },
            ChunkMeta {
                x0: 0,
                y0: 0,
                lnx: 0,
                lny: 4,
            },
            ChunkMeta {
                x0: u32::MAX,
                y0: 0,
                lnx: 2,
                lny: 1,
            },
        ] {
            assert!(matches!(
                ck.land(rect, &mut grid, dims, (0, 0)),
                Err(CheckpointError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn bad_chunk_rectangle_is_rejected() {
        let mut ck = sample();
        ck.chunks[1].meta.lnx = 7; // overruns the 6-wide domain
        assert!(matches!(ck.validate(), Err(CheckpointError::Corrupt(_))));
        let mut ck = sample();
        ck.chunks[0].data.pop(); // payload/rectangle mismatch
        assert!(matches!(ck.validate(), Err(CheckpointError::Corrupt(_))));
    }

    #[test]
    fn from_soa_is_the_cell_major_transpose() {
        // Packed from a SoA grid: a 3×2 rectangle at local (1, 2) of a 5×4×3
        // grid, and at the origin of a 1×1×1 one; q = 3 and the production
        // lattice's 19.
        for (dims, q, origin, (lnx, lny)) in [
            (GridDims::new(5, 4, 3), 3, (1, 2), (3, 2)),
            (GridDims::new(5, 4, 3), 19, (1, 2), (3, 2)),
            (GridDims::new(1, 1, 1), 19, (0, 0), (1, 1)),
        ] {
            let cells = dims.cells();
            let soa: Vec<f64> = (0..cells * q).map(|i| i as f64).collect();
            let meta = ChunkMeta {
                x0: 7,
                y0: 9,
                lnx,
                lny,
            };
            let chunk = CheckpointChunk::pack(dims.nz, q, meta, soa_runs(&soa, dims, q, origin));
            let mut want = Vec::new();
            for y in origin.1..origin.1 + lny as usize {
                for x in origin.0..origin.0 + lnx as usize {
                    for z in 0..dims.nz {
                        for qi in 0..q {
                            want.push(soa[qi * cells + dims.idx(x, y, z)]);
                        }
                    }
                }
            }
            assert_eq!(
                chunk,
                CheckpointChunk { meta, data: want },
                "{dims:?} q {q}"
            );
        }
    }

    // The malformed-file corpus. A v3 file is a container (magic, count,
    // index, payload, crc) whose last member is the manifest; the reader
    // must answer every damaged or hostile variant with a typed `Corrupt`.
    //
    // Layout of `sample()` on disk: magic 0..8, count 8..12, three 20-byte
    // index entries 12..72 (chunk 0, chunk 1, manifest), chunk payloads
    // 72..264 and 264..456, the 68-byte manifest 456..524, crc 524..528.
    const INDEX_END: usize = 72;
    const MANIFEST_AT: usize = 456;
    /// Offsets of the manifest's fields, relative to its start: version,
    /// step, nx, ny, nz, q, scheme, parity, pad, count, then two rectangles.
    const MANIFEST_FIELDS: [usize; 19] =
        [0, 4, 12, 16, 20, 24, 28, 29, 30, 32, 36, 40, 44, 48, 52, 56, 60, 64, 68];

    #[test]
    fn corpus_layout_constants_match_the_writer() {
        let buf = bytes_of(&sample());
        assert_eq!(buf.len(), MANIFEST_AT + 68 + 4);
        let entry = &buf[INDEX_END - 20..INDEX_END];
        assert_eq!(u32::from_le_bytes(entry[..4].try_into().unwrap()), MANIFEST_ID);
        assert_eq!(
            u64::from_le_bytes(entry[4..12].try_into().unwrap()),
            MANIFEST_AT as u64
        );
    }

    #[test]
    fn file_cut_anywhere_is_corrupt() {
        // Every container-index and manifest field boundary, every byte of
        // both regions besides, and a few cuts inside the payloads.
        let buf = bytes_of(&sample());
        let cuts = (0..=INDEX_END)
            .chain(MANIFEST_AT..buf.len())
            .chain([100, buf.len() / 2, 300]);
        for keep in cuts {
            assert_corrupt(read(&buf[..keep]), &format!("cut to {keep} B"));
        }
    }

    #[test]
    fn file_cut_and_resealed_is_corrupt() {
        // The same cuts behind a recomputed CRC: the checksum now passes, so
        // the index and manifest bounds checks are what must refuse.
        let buf = bytes_of(&sample());
        for keep in (12..=INDEX_END).chain(MANIFEST_AT..buf.len() - 4) {
            let mut cut = buf[..keep].to_vec();
            cut.extend_from_slice(&[0; 4]);
            reseal(&mut cut);
            assert_corrupt(read(&cut), &format!("cut to {keep} B and resealed"));
        }
    }

    #[test]
    fn manifest_cut_at_every_field_boundary_is_corrupt() {
        // A well-formed container around a short manifest.
        let group = members_of(&sample());
        let manifest = &group[&MANIFEST_ID];
        assert_eq!(manifest.len(), *MANIFEST_FIELDS.last().unwrap());
        for keep in MANIFEST_FIELDS.iter().copied().filter(|&k| k < manifest.len()) {
            let mut g = group.clone();
            g.insert(MANIFEST_ID, manifest[..keep].to_vec());
            let m = assert_corrupt(read(&container(&g)), &format!("manifest cut to {keep} B"));
            assert!(m.contains("cut short"), "{m}");
        }
    }

    #[test]
    fn every_single_bit_flip_is_caught_by_the_crc() {
        let buf = bytes_of(&sample());
        for byte in (0..INDEX_END).chain(MANIFEST_AT..buf.len()).chain([100, 300]) {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[byte] ^= 1 << bit;
                assert_corrupt(read(&bad), &format!("bit {bit} of byte {byte}"));
            }
        }
    }

    #[test]
    fn resealed_bit_flips_never_panic_and_structural_ones_are_corrupt() {
        // Behind a valid CRC a flipped bit is just a different file: it may
        // decode (a different step, a different scheme), but it must never
        // panic or fail untyped.
        let buf = bytes_of(&sample());
        for byte in (8..INDEX_END).chain(MANIFEST_AT..buf.len() - 4) {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[byte] ^= 1 << bit;
                reseal(&mut bad);
                match read(&bad) {
                    Ok(_) | Err(CheckpointError::Corrupt(_)) => {}
                    Err(e) => panic!("bit {bit} of byte {byte}: untyped failure {e:?}"),
                }
            }
        }
        // Fields nothing can reinterpret: container count, a member's
        // offset, the manifest version, the parity byte, the chunk count, a
        // rectangle's width.
        let m = MANIFEST_AT;
        for (byte, what) in [
            (8, "container count"),
            (16, "chunk 0 offset"),
            (24, "chunk 0 length"),
            (m, "manifest version"),
            (m + 29, "parity"),
            (m + 32, "chunk count"),
            (m + 44, "chunk 0 lnx"),
        ] {
            let mut bad = buf.clone();
            bad[byte] ^= 1;
            reseal(&mut bad);
            assert_corrupt(read(&bad), what);
        }
    }

    #[test]
    fn v3_streamed_parity_byte_is_rejected_behind_a_valid_crc() {
        let mut buf = bytes_of(&sample());
        buf[MANIFEST_AT + 29] = 1;
        reseal(&mut buf);
        let m = assert_corrupt(read(&buf), "parity 1");
        assert!(m.contains("parity"), "{m}");
    }

    /// `sample()`'s file with its manifest patched at `at`.
    fn with_manifest_patch(at: usize, bytes: &[u8]) -> Vec<u8> {
        let mut group = members_of(&sample());
        let manifest = group.get_mut(&MANIFEST_ID).unwrap();
        manifest[at..at + bytes.len()].copy_from_slice(bytes);
        container(&group)
    }

    #[test]
    fn hostile_chunk_count_is_corrupt_without_a_huge_allocation() {
        for count in [3u32, 1 << 20, u32::MAX] {
            let g = with_manifest_patch(32, &count.to_le_bytes());
            assert_corrupt(read(&g), &format!("count {count}"));
        }
        // Fewer chunks than the domain needs is a gap, refused at read.
        let g = with_manifest_patch(32, &1u32.to_le_bytes());
        let m = assert_corrupt(read(&g), "count 1");
        assert!(m.contains("cover"), "{m}");
    }

    #[test]
    fn hostile_domain_with_one_tiny_chunk_is_corrupt_without_a_huge_allocation() {
        // A 2^20 × 2^20 domain claimed by one 1×1 chunk: a coverage map of
        // the claimed domain would be a terabyte.
        let ck = ChunkedCheckpoint {
            step: 1,
            dims: (1 << 20, 1 << 20, 1),
            q: 1,
            scheme: SCHEME_AB,
            chunks: vec![CheckpointChunk {
                meta: ChunkMeta {
                    x0: 0,
                    y0: 0,
                    lnx: 1,
                    lny: 1,
                },
                data: vec![0.5],
            }],
        };
        let m = assert_corrupt(read(&bytes_of(&ck)), "2^40 cells, one chunk");
        assert!(m.contains("cover"), "{m}");
        assert!(ck.to_soa().is_err());
    }

    #[test]
    fn hostile_dims_product_overflow_is_corrupt() {
        // 2^31 · 2^31 · 4 · 1 wraps to 0 mod 2^64.
        let mut dims_q = Vec::new();
        for v in [1u32 << 31, 1 << 31, 4, 1] {
            dims_q.extend_from_slice(&v.to_le_bytes());
        }
        let g = with_manifest_patch(12, &dims_q);
        let m = assert_corrupt(read(&g), "dims overflow");
        assert!(m.contains("overflow"), "{m}");
    }

    #[test]
    fn missing_short_and_duplicate_member_chunks_are_corrupt() {
        let buf = bytes_of(&sample());
        let group = members_of(&sample());

        // No manifest at all.
        let g = BTreeMap::from([(0, vec![0u8; 16])]);
        let m = assert_corrupt(read(&container(&g)), "no manifest");
        assert!(m.contains("manifest"), "{m}");

        // The manifest lists two chunks; the container holds one.
        let mut g = group.clone();
        g.remove(&1);
        let m = assert_corrupt(read(&container(&g)), "missing chunk 1");
        assert!(m.contains("missing"), "{m}");

        // A member one value short, and one cut mid-value.
        for cut in [8, 3] {
            let mut g = group.clone();
            let full = &group[&1];
            g.insert(1, full[..full.len() - cut].to_vec());
            assert_corrupt(read(&container(&g)), &format!("chunk 1 short by {cut} B"));
        }

        // Two index entries naming the same member.
        let mut dup = buf.clone();
        dup[32..36].copy_from_slice(&0u32.to_le_bytes()); // entry 1: rank 1 -> 0
        reseal(&mut dup);
        let m = assert_corrupt(read(&dup), "duplicate member");
        assert!(m.contains("duplicate"), "{m}");
    }
}
