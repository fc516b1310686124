//! The checkpoint format: rank-count-independent chunks (format v3).
//!
//! [`ChunkedCheckpoint`] is the only checkpoint type anything above this
//! crate sees, and this is its only on-disk form. A checkpoint stores
//! **per-source-rank chunks tagged with their global rectangle**: a manifest
//! records the global dims plus each chunk's `(x0, y0, lnx, lny)`, and each
//! chunk carries its owned interior (no halo ring) in a fixed
//! y → x → z → q order — the order the distributed engine captures and
//! restores. A resume on any rank count assembles each
//! destination rectangle from whichever source chunks overlap it
//! ([`ChunkedCheckpoint::extract_rect`]), so checkpoint-on-N / resume-on-M is
//! pure coordinate arithmetic — the same block-wise repartitioning
//! waLBerla-style frameworks use for dynamic load balancing. A serial
//! solver's checkpoint is the special case of one chunk covering the domain.
//!
//! [`ChunkedCheckpoint::read`] is the one reader. It dispatches on the file
//! magic: a group container is decoded here; anything else is handed to the
//! upgrade of the retired whole-domain layouts (see [`crate::checkpoint`]),
//! which returns one whole-domain chunk. Callers never learn which it was.
//!
//! On disk a checkpoint reuses the [`GroupFile`] container (the paper's
//! group-I/O aggregation, §IV-B): chunk payloads are the member chunks, and
//! the manifest sits under the reserved id [`MANIFEST_ID`].
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
use crate::group::{ContainerWriter, GroupFile, GroupFileError, GROUP_MAGIC};
use std::io::{self, Read, Write};

/// Reserved [`GroupFile`] id holding the manifest.
pub const MANIFEST_ID: u32 = u32::MAX;
/// Format version recorded in the manifest.
pub const CHUNKED_VERSION: u32 = 3;

impl From<GroupFileError> for CheckpointError {
    fn from(e: GroupFileError) -> Self {
        match e {
            GroupFileError::Io(e) => CheckpointError::Io(e),
            GroupFileError::Corrupt(m) => CheckpointError::Corrupt(m),
        }
    }
}

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

/// One source rank's owned rectangle plus its canonical populations.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointChunk {
    /// Where the chunk sits in the global domain.
    pub meta: ChunkMeta,
    /// Canonical populations in y → x → z → q order, length `lnx·lny·nz·q`.
    pub data: Vec<f64>,
}

/// A rank-count-independent checkpoint: global metadata plus per-source-rank
/// rectangles. The union of the rectangles must tile the global domain for
/// the extraction paths to succeed.
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

impl ChunkedCheckpoint {
    /// Wrap a whole-domain payload (laid out y → x → z → q over the full
    /// grid, see [`wire_from_soa`]) as a single chunk covering the global
    /// rectangle.
    pub fn single_chunk(
        step: u64,
        dims: (u32, u32, u32),
        q: u32,
        scheme: u8,
        data: Vec<f64>,
    ) -> Self {
        ChunkedCheckpoint {
            step,
            dims,
            q,
            scheme,
            chunks: vec![CheckpointChunk {
                meta: ChunkMeta {
                    x0: 0,
                    y0: 0,
                    lnx: dims.0,
                    lny: dims.1,
                },
                data,
            }],
        }
    }

    /// Structural validation: sane header fields, every rectangle inside the
    /// global domain, every payload exactly `lnx·lny·nz·q` long.
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
        for (i, ch) in self.chunks.iter().enumerate() {
            let m = ch.meta;
            let in_x = (m.x0 as u64 + m.lnx as u64) <= self.dims.0 as u64;
            let in_y = (m.y0 as u64 + m.lny as u64) <= self.dims.1 as u64;
            if m.lnx == 0 || m.lny == 0 || !in_x || !in_y {
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
        }
        Ok(())
    }

    /// Assemble the populations of an arbitrary global rectangle from every
    /// chunk that overlaps it, in the same y → x → z → q order chunks use.
    /// This is the re-sharding primitive: the caller's partition and the
    /// producer's partition never need to match. A cell covered by no chunk
    /// is a coverage gap and yields `Corrupt`.
    pub fn extract_rect(
        &self,
        x0: usize,
        y0: usize,
        lnx: usize,
        lny: usize,
    ) -> Result<Vec<f64>, CheckpointError> {
        self.validate()?;
        let (nx, ny) = (self.dims.0 as usize, self.dims.1 as usize);
        let bad_rect = lnx == 0
            || lny == 0
            || x0.checked_add(lnx).is_none_or(|e| e > nx)
            || y0.checked_add(lny).is_none_or(|e| e > ny);
        if bad_rect {
            return Err(CheckpointError::Corrupt(format!(
                "requested rectangle {lnx}x{lny} at ({x0}, {y0}) leaves the {nx}x{ny} domain"
            )));
        }
        let zq = self.dims.2 as usize * self.q as usize;
        let len = lnx
            .checked_mul(lny)
            .and_then(|c| c.checked_mul(zq))
            .ok_or_else(|| {
                CheckpointError::Corrupt(format!(
                    "requested rectangle {lnx}x{lny} overflows the payload size"
                ))
            })?;
        let mut out = vec![0.0; len];
        let mut filled = vec![false; lnx * lny];
        for ch in &self.chunks {
            let m = ch.meta;
            let (cx0, cy0) = (m.x0 as usize, m.y0 as usize);
            let (clnx, clny) = (m.lnx as usize, m.lny as usize);
            let ix0 = x0.max(cx0);
            let ix1 = (x0 + lnx).min(cx0 + clnx);
            let iy0 = y0.max(cy0);
            let iy1 = (y0 + lny).min(cy0 + clny);
            if ix0 >= ix1 || iy0 >= iy1 {
                continue;
            }
            for gy in iy0..iy1 {
                for gx in ix0..ix1 {
                    let src = ((gy - cy0) * clnx + (gx - cx0)) * zq;
                    let col = (gy - y0) * lnx + (gx - x0);
                    out[col * zq..(col + 1) * zq].copy_from_slice(&ch.data[src..src + zq]);
                    filled[col] = true;
                }
            }
        }
        if let Some(col) = filled.iter().position(|&f| !f) {
            return Err(CheckpointError::Corrupt(format!(
                "coverage gap: no chunk covers global cell column ({}, {})",
                x0 + col % lnx,
                y0 + col / lnx
            )));
        }
        Ok(out)
    }

    /// Assemble the full global domain as one y → x → z → q payload.
    pub fn assemble_global(&self) -> Result<Vec<f64>, CheckpointError> {
        self.extract_rect(0, 0, self.dims.0 as usize, self.dims.1 as usize)
    }

    /// Serialize as a [`GroupFile`] container (manifest + one member chunk
    /// per source rectangle). Chunk values stream straight to `w`; the file
    /// is never assembled in memory.
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

    /// Decode from an already-parsed [`GroupFile`] container.
    pub fn from_group(group: &GroupFile) -> Result<Self, CheckpointError> {
        let manifest = group.chunk(MANIFEST_ID).ok_or_else(|| {
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
            let bytes = group.chunk(i).ok_or_else(|| {
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

    /// Read and verify a checkpoint — the one reader. Retired whole-domain
    /// files come back upgraded to a single chunk.
    pub fn read(r: &mut impl Read) -> Result<Self, CheckpointError> {
        let mut body = Vec::new();
        r.read_to_end(&mut body)?;
        Self::parse(&body)
    }

    /// [`ChunkedCheckpoint::read`] over bytes already in memory.
    pub(crate) fn parse(body: &[u8]) -> Result<Self, CheckpointError> {
        if body.starts_with(GROUP_MAGIC) {
            Self::from_group(&GroupFile::parse(body)?)
        } else {
            upgrade_legacy(body)
        }
    }
}

/// Re-pack a whole-domain SoA payload (`raw[q_i · cells + cell]`, `q ≥ 1`
/// planes) in chunk wire order (y → x → z → q). Cells are indexed y → x → z,
/// so this is a plain `[q][cells]` → `[cells][q]` transpose with no field in
/// between, done in cell blocks small enough that a block of the output stays
/// in cache while the `q` planes stream through it.
pub fn wire_from_soa(raw: &[f64], q: usize) -> Vec<f64> {
    const BLOCK: usize = 512;
    let cells = raw.len() / q;
    let mut wire = vec![0.0; raw.len()];
    for (b, out) in wire.chunks_mut(BLOCK * q).enumerate() {
        let first = b * BLOCK;
        let n = out.len() / q;
        for qi in 0..q {
            let plane = &raw[qi * cells + first..qi * cells + first + n];
            for (i, &v) in plane.iter().enumerate() {
                out[i * q + qi] = v;
            }
        }
    }
    wire
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{reseal, SCHEME_AB};

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
        let streamed = GroupFile::parse(&bytes_of(ck)).unwrap();
        members.push((MANIFEST_ID, streamed.chunk(MANIFEST_ID).unwrap().to_vec()));
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

    #[test]
    fn extract_rect_crosses_chunk_boundaries() {
        let ck = sample();
        // A 4×2 rectangle at (1, 1) straddles both source chunks.
        let got = ck.extract_rect(1, 1, 4, 2).unwrap();
        let mut want = Vec::new();
        for y in 1..3 {
            for x in 1..5 {
                for qi in 0..2 {
                    want.push((x * 1000 + y * 100 + qi) as f64);
                }
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn assemble_global_matches_single_chunk_of_itself() {
        let ck = sample();
        let global = ck.assemble_global().unwrap();
        let single =
            ChunkedCheckpoint::single_chunk(ck.step, ck.dims, ck.q, ck.scheme, global.clone());
        assert_eq!(single.assemble_global().unwrap(), global);
        assert_eq!(single.extract_rect(1, 1, 4, 2).unwrap(), ck.extract_rect(1, 1, 4, 2).unwrap());
    }

    #[test]
    fn coverage_gap_is_corrupt_not_zeros() {
        let mut ck = sample();
        ck.chunks.pop();
        match ck.extract_rect(0, 0, 6, 4) {
            Err(CheckpointError::Corrupt(m)) => assert!(m.contains("coverage gap"), "{m}"),
            other => panic!("expected coverage-gap error, got {other:?}"),
        }
        // A rectangle inside the surviving chunk still extracts fine.
        assert!(ck.extract_rect(0, 0, 3, 4).is_ok());
    }

    #[test]
    fn out_of_domain_rect_is_rejected() {
        let ck = sample();
        assert!(matches!(
            ck.extract_rect(4, 0, 3, 4),
            Err(CheckpointError::Corrupt(_))
        ));
        assert!(matches!(
            ck.extract_rect(0, 0, 0, 4),
            Err(CheckpointError::Corrupt(_))
        ));
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
    fn wire_from_soa_is_the_cell_major_transpose() {
        // 5 cells × 3 planes, and a payload longer than one transpose block.
        for (cells, q) in [(5usize, 3usize), (1300, 2)] {
            let soa: Vec<f64> = (0..cells * q).map(|i| i as f64).collect();
            let wire = wire_from_soa(&soa, q);
            for cell in 0..cells {
                for qi in 0..q {
                    assert_eq!(wire[cell * q + qi], soa[qi * cells + cell]);
                }
            }
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
        let ck = sample();
        let group = GroupFile::parse(&bytes_of(&ck)).unwrap();
        let manifest = group.chunk(MANIFEST_ID).unwrap().to_vec();
        assert_eq!(manifest.len(), *MANIFEST_FIELDS.last().unwrap());
        for keep in MANIFEST_FIELDS.iter().copied().filter(|&k| k < manifest.len()) {
            let mut g = group.clone();
            g.insert(MANIFEST_ID, manifest[..keep].to_vec());
            let m = assert_corrupt(
                ChunkedCheckpoint::from_group(&g),
                &format!("manifest cut to {keep} B"),
            );
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

    /// `sample()`'s container with its manifest patched at `at`.
    fn with_manifest_patch(at: usize, bytes: &[u8]) -> GroupFile {
        let mut group = GroupFile::parse(&bytes_of(&sample())).unwrap();
        let mut manifest = group.chunk(MANIFEST_ID).unwrap().to_vec();
        manifest[at..at + bytes.len()].copy_from_slice(bytes);
        group.insert(MANIFEST_ID, manifest);
        group
    }

    #[test]
    fn hostile_chunk_count_is_corrupt_without_a_huge_allocation() {
        for count in [3u32, 1 << 20, u32::MAX] {
            let g = with_manifest_patch(32, &count.to_le_bytes());
            assert_corrupt(ChunkedCheckpoint::from_group(&g), &format!("count {count}"));
        }
        // Fewer chunks than the domain needs decodes, and is refused where
        // it matters: at extraction, as a coverage gap.
        let g = with_manifest_patch(32, &1u32.to_le_bytes());
        let ck = ChunkedCheckpoint::from_group(&g).unwrap();
        assert!(ck.assemble_global().is_err());
    }

    #[test]
    fn hostile_dims_product_overflow_is_corrupt() {
        // 2^31 · 2^31 · 4 · 1 wraps to 0 mod 2^64.
        let mut dims_q = Vec::new();
        for v in [1u32 << 31, 1 << 31, 4, 1] {
            dims_q.extend_from_slice(&v.to_le_bytes());
        }
        let g = with_manifest_patch(12, &dims_q);
        let m = assert_corrupt(ChunkedCheckpoint::from_group(&g), "dims overflow");
        assert!(m.contains("overflow"), "{m}");
    }

    #[test]
    fn missing_short_and_duplicate_member_chunks_are_corrupt() {
        let buf = bytes_of(&sample());
        let group = GroupFile::parse(&buf).unwrap();

        // No manifest at all.
        let mut g = GroupFile::new();
        g.insert(0, vec![0u8; 16]);
        let m = assert_corrupt(ChunkedCheckpoint::from_group(&g), "no manifest");
        assert!(m.contains("manifest"), "{m}");

        // The manifest lists two chunks; the container holds one.
        let mut g = GroupFile::new();
        g.insert(MANIFEST_ID, group.chunk(MANIFEST_ID).unwrap().to_vec());
        g.insert(0, group.chunk(0).unwrap().to_vec());
        let m = assert_corrupt(ChunkedCheckpoint::from_group(&g), "missing chunk 1");
        assert!(m.contains("missing"), "{m}");

        // A member one value short, and one cut mid-value.
        for cut in [8, 3] {
            let mut g = group.clone();
            let full = group.chunk(1).unwrap();
            g.insert(1, full[..full.len() - cut].to_vec());
            assert_corrupt(ChunkedCheckpoint::from_group(&g), &format!("chunk 1 short by {cut} B"));
        }

        // Two index entries naming the same member.
        let mut dup = buf.clone();
        dup[32..36].copy_from_slice(&0u32.to_le_bytes()); // entry 1: rank 1 -> 0
        reseal(&mut dup);
        let m = assert_corrupt(read(&dup), "duplicate member");
        assert!(m.contains("duplicate"), "{m}");
    }
}
