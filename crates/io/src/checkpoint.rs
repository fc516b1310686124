//! The checkpoint/restart controller: one snapshot type, one format, one
//! upgrade.
//!
//! The paper's I/O layer includes "a checkpoint and restart controller which
//! enables fast recover from system-level or hardware fault" (§IV-B) — on
//! month-long production runs this is a first-class feature, not a convenience.
//!
//! Everything above this crate sees exactly one checkpoint type,
//! [`ChunkedCheckpoint`], and one on-disk format, the chunked container of
//! [`crate::chunked`]. [`CheckpointStore`] writes only that format, and
//! [`ChunkedCheckpoint::read`] is the only reader. What this module adds:
//!
//! * [`CheckpointError`], the typed failure of every read;
//! * [`CheckpointStore`], the atomic, retained, namespaced directory of
//!   checkpoint files;
//! * `upgrade_legacy`, the read-only decoder of the two retired whole-domain
//!   layouts. State directories and in-flight migration payloads written
//!   before the chunked format still resume: the one reader hands a
//!   `SWLBCKPT` body to the upgrade and gets back a single whole-domain chunk.
//!   Nothing writes these layouts any more.
//!
//! Retired layout (all integers little-endian), accepted by the upgrade only:
//!
//! ```text
//! magic   8 B   "SWLBCKPT"
//! version u32   1 or 2
//! step    u64   completed time steps
//! nx,ny,nz u32  grid dims
//! q       u32   populations per cell
//! scheme  u8    producer storage scheme (0 = AB, 1 = AA)        [v2 only]
//! parity  u8    must be 0: the payload is canonical             [v2 only]
//! pad     u16   reserved, zero                                  [v2 only]
//! len     u64   population payload length (f64 count) = cells · q
//! data    len × f64, SoA: `data[q_i · cells + cell]`
//! crc     u32   CRC-32 of everything above
//! ```
//!
//! Every writer this workspace ever had serialized the *canonical*
//! (AB-ordered post-collision) payload regardless of the running scheme, so a
//! nonzero `parity` byte can only come from a damaged or hostile file. No
//! restore path could honour it; the reader rejects it. The `scheme` byte
//! records what the producer ran (the restore itself is scheme-agnostic).
//! Version-1 files decode as `scheme = 0`.

use crate::chunked::ChunkedCheckpoint;
use std::fmt;
use std::io::{self, Write};
use swlb_core::geometry::GridDims;

const LEGACY_MAGIC: &[u8; 8] = b"SWLBCKPT";

/// Scheme byte of AB (double-buffer) producers.
pub const SCHEME_AB: u8 = 0;
/// Scheme byte of AA (single-grid) producers.
pub const SCHEME_AA: u8 = 1;

/// Errors produced by checkpoint reading.
#[derive(Debug)]
pub enum CheckpointError {
    /// I/O failure.
    Io(io::Error),
    /// Bad magic, version, length, or CRC.
    Corrupt(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<CheckpointError> for swlb_obs::SwlbError {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Io(e) => swlb_obs::SwlbError::Io(e.to_string()),
            CheckpointError::Corrupt(m) => swlb_obs::SwlbError::CorruptData(m),
        }
    }
}

/// A whole-domain in-memory snapshot of solver state. It has no file format:
/// what goes to disk or over the wire is a [`ChunkedCheckpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Completed time steps at capture.
    pub step: u64,
    /// Grid dims.
    pub dims: (u32, u32, u32),
    /// Populations per cell (`Q`).
    pub q: u32,
    /// Producer storage scheme ([`SCHEME_AB`] or [`SCHEME_AA`]); metadata
    /// only — the payload is canonical either way.
    pub scheme: u8,
    /// Canonical populations, SoA (`data[q_i · cells + cell]`), length
    /// `cells · q`.
    pub data: Vec<f64>,
}

// The CRC-32 implementation moved to the zero-dependency base crate so
// swlb-comm / swlb-serve can share it; re-exported here so existing
// `swlb_io::checkpoint::{crc32, Crc32}` paths keep resolving.
pub use swlb_obs::{crc32, Crc32};

/// Bounds-checked cursor over a verified payload. Every accessor returns
/// [`CheckpointError::Corrupt`] instead of slicing out of bounds, so a file
/// cut mid-field — or a hostile header behind a recomputed CRC — can never
/// panic the reader.
pub(crate) struct FieldReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FieldReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        FieldReader { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub(crate) fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    pub(crate) fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                CheckpointError::Corrupt(format!(
                    "file cut short reading {what} at offset {}",
                    self.pos
                ))
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, CheckpointError> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn u16(&mut self, what: &str) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().expect("length checked")))
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("length checked")))
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("length checked")))
    }
}

/// `nx·ny·nz·q`, rejecting zero and overflow: a hostile header must not be
/// able to wrap the expected payload length into a false match, drive a huge
/// allocation, or describe a grid with nothing in it.
pub(crate) fn checked_payload_len(
    dims: (u32, u32, u32),
    q: u32,
) -> Result<usize, CheckpointError> {
    (dims.0 as usize)
        .checked_mul(dims.1 as usize)
        .and_then(|v| v.checked_mul(dims.2 as usize))
        .and_then(|v| v.checked_mul(q as usize))
        .filter(|&len| len > 0)
        .ok_or_else(|| {
            CheckpointError::Corrupt(format!(
                "header dims {}x{}x{}x{q} are empty or overflow the addressable payload size",
                dims.0, dims.1, dims.2
            ))
        })
}

/// The parity byte both generations carry. Writers only ever emitted 0 (the
/// canonical payload); no restore path can install anything else.
pub(crate) fn check_canonical(parity: u8) -> Result<(), CheckpointError> {
    if parity != 0 {
        return Err(CheckpointError::Corrupt(format!(
            "payload parity {parity} is not canonical (0)"
        )));
    }
    Ok(())
}

/// Decode little-endian `f64`s; `bytes.len()` must be a multiple of 8.
pub(crate) fn f64s_from_le(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
        .collect()
}

/// Split `body` into (payload, stored CRC) and verify the checksum.
pub(crate) fn split_verified(body: &[u8]) -> Result<&[u8], CheckpointError> {
    if body.len() < 12 {
        return Err(CheckpointError::Corrupt(format!(
            "file too short: {} B",
            body.len()
        )));
    }
    let (payload, crc_bytes) = body.split_at(body.len() - 4);
    let stored_crc = u32::from_le_bytes(crc_bytes.try_into().expect("4-byte split"));
    let computed = crc32(payload);
    if stored_crc != computed {
        return Err(CheckpointError::Corrupt(format!(
            "CRC mismatch: stored {stored_crc:#010x}, computed {computed:#010x}"
        )));
    }
    Ok(payload)
}

/// Decode a retired whole-domain (v1/v2) body and upgrade it to the one
/// checkpoint type: a single chunk covering the global rectangle, packed
/// from its SoA payload. Only [`ChunkedCheckpoint::parse`] calls this.
pub(crate) fn upgrade_legacy(body: &[u8]) -> Result<ChunkedCheckpoint, CheckpointError> {
    let payload = split_verified(body)?;
    let mut rd = FieldReader::new(payload);
    if rd.take(8, "magic")? != LEGACY_MAGIC {
        return Err(CheckpointError::Corrupt("bad magic".into()));
    }
    let version = rd.u32("version")?;
    if version != 1 && version != 2 {
        return Err(CheckpointError::Corrupt(format!(
            "unsupported version {version}"
        )));
    }
    let step = rd.u64("step")?;
    let dims = (rd.u32("nx")?, rd.u32("ny")?, rd.u32("nz")?);
    let q = rd.u32("q")?;
    // Version 1 has no scheme/parity bytes: `len` follows `q` directly.
    let scheme = if version == 1 {
        SCHEME_AB
    } else {
        let scheme = rd.u8("scheme")?;
        check_canonical(rd.u8("parity")?)?;
        let _pad = rd.u16("pad")?;
        scheme
    };
    let len = rd.u64("payload length")?;
    let expected = checked_payload_len(dims, q)?;
    if len != expected as u64 {
        return Err(CheckpointError::Corrupt(format!(
            "payload length {len} does not match {}x{}x{}x{q} = {expected}",
            dims.0, dims.1, dims.2
        )));
    }
    let data_bytes = expected.checked_mul(8).ok_or_else(|| {
        CheckpointError::Corrupt(format!("payload length {len} overflows the file size"))
    })?;
    if payload.len() - rd.pos() != data_bytes {
        return Err(CheckpointError::Corrupt(format!(
            "file length {} does not match header (expect {})",
            payload.len() + 4,
            rd.pos() + data_bytes + 4
        )));
    }
    // `expected` is bounded by the actual file size here, so this allocation
    // cannot be driven past the bytes we were handed.
    let soa = f64s_from_le(rd.rest());
    let grid = GridDims::new(dims.0 as usize, dims.1 as usize, dims.2 as usize);
    let ck = ChunkedCheckpoint::single_chunk(step, dims, q, scheme, |qi, x, y| {
        let at = qi * grid.cells() + grid.idx(x, y, 0);
        (&soa[at..at + grid.nz], 0)
    });
    ck.validate()?;
    Ok(ck)
}

/// An on-disk checkpoint directory with atomic writes and bounded retention.
///
/// Saves are crash-safe: the file is written to a temporary name, fsynced,
/// then renamed into place — a reader (or a restarted run) never observes a
/// half-written checkpoint under a final name. The newest `retain` checkpoints
/// are kept; older ones are pruned after each successful save, so a corrupted
/// latest file still leaves earlier restart candidates on disk.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: std::path::PathBuf,
    retain: usize,
    recorder: swlb_obs::Recorder,
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory keeping the newest
    /// `retain` (≥ 1) checkpoints.
    pub fn new(dir: impl Into<std::path::PathBuf>, retain: usize) -> io::Result<Self> {
        assert!(retain >= 1, "retention must keep at least one checkpoint");
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir, retain, recorder: swlb_obs::Recorder::disabled() })
    }

    /// Report save traffic (`checkpoint.saves`, `checkpoint.bytes_written`,
    /// `checkpoint.fsync_ns`) into `recorder`.
    pub fn with_recorder(mut self, recorder: swlb_obs::Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The directory checkpoints live in.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// A store rooted at the `name` subdirectory of this one, inheriting the
    /// retention window and recorder — per-tenant/per-job namespacing: each
    /// job checkpoints (and prunes) in its own directory, so jobs never race
    /// on file names or evict each other's restart candidates.
    pub fn namespaced(&self, name: &str) -> io::Result<CheckpointStore> {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_'),
            "namespace must be non-empty [A-Za-z0-9_-] (got {name:?})"
        );
        let dir = self.dir.join(name);
        std::fs::create_dir_all(&dir)?;
        Ok(CheckpointStore {
            dir,
            retain: self.retain,
            recorder: self.recorder.clone(),
        })
    }

    /// Final file name for a given step.
    pub fn path_for(&self, step: u64) -> std::path::PathBuf {
        self.dir.join(format!("ckpt-{step:012}.swlb"))
    }

    fn step_of(path: &std::path::Path) -> Option<u64> {
        let name = path.file_name()?.to_str()?;
        let stem = name.strip_prefix("ckpt-")?.strip_suffix(".swlb")?;
        stem.parse().ok()
    }

    /// Atomically persist `ck` as `ckpt-{step}.swlb`: write `*.tmp`, fsync,
    /// rename into place, then prune beyond the retention window. Returns the
    /// final path.
    pub fn save_chunked(
        &self,
        ck: &ChunkedCheckpoint,
    ) -> Result<std::path::PathBuf, CheckpointError> {
        ck.validate()?;
        let payload: u64 = ck.chunks.iter().map(|c| c.data.len() as u64 * 8).sum();
        self.save_with(ck.step, payload, |f| ck.write(f))
    }

    fn save_with(
        &self,
        step: u64,
        bytes_written: u64,
        write: impl FnOnce(&mut std::fs::File) -> io::Result<()>,
    ) -> Result<std::path::PathBuf, CheckpointError> {
        let final_path = self.path_for(step);
        let tmp_path = final_path.with_extension("swlb.tmp");
        {
            let mut f = std::fs::File::create(&tmp_path)?;
            write(&mut f)?;
            let t_sync = self.recorder.now();
            f.sync_all()?;
            if let Some(t) = t_sync {
                self.recorder
                    .counter("checkpoint.fsync_ns")
                    .add(t.elapsed().as_nanos() as u64);
            }
        }
        std::fs::rename(&tmp_path, &final_path)?;
        // Best-effort directory fsync so the rename itself is durable.
        if let Ok(d) = std::fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.prune()?;
        self.recorder
            .counter("checkpoint.bytes_written")
            .add(bytes_written);
        self.recorder.counter("checkpoint.saves").inc();
        Ok(final_path)
    }

    /// All checkpoints on disk, ordered by step ascending.
    pub fn list(&self) -> io::Result<Vec<(u64, std::path::PathBuf)>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if let Some(step) = Self::step_of(&path) {
                out.push((step, path));
            }
        }
        out.sort_by_key(|(step, _)| *step);
        Ok(out)
    }

    /// The newest checkpoint on disk (by step), if any. Existence only — the
    /// file is not validated; use [`CheckpointStore::load_latest_valid_any`]
    /// to also survive corruption.
    pub fn latest(&self) -> io::Result<Option<(u64, std::path::PathBuf)>> {
        Ok(self.list()?.pop())
    }

    /// The newest file that passes verification, with its raw bytes; the
    /// corrupt files passed on the way down are pushed onto `skipped`.
    fn newest_valid(
        &self,
        skipped: &mut Vec<std::path::PathBuf>,
    ) -> Result<Option<(ChunkedCheckpoint, Vec<u8>)>, CheckpointError> {
        for (_, path) in self.list()?.into_iter().rev() {
            let bytes = std::fs::read(&path)?;
            match ChunkedCheckpoint::parse(&bytes) {
                Ok(ck) => return Ok(Some((ck, bytes))),
                Err(CheckpointError::Corrupt(_)) => skipped.push(path),
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// Load the newest checkpoint that passes verification, skipping (and
    /// reporting) corrupt ones; `Ok(None)` if no valid checkpoint exists. A
    /// directory left by an older deployment may hold retired whole-domain
    /// files: the reader upgrades them, so they are restart candidates too.
    pub fn load_latest_valid_any(
        &self,
    ) -> Result<Option<(ChunkedCheckpoint, Vec<std::path::PathBuf>)>, CheckpointError> {
        let mut skipped = Vec::new();
        let newest = self.newest_valid(&mut skipped)?;
        Ok(newest.map(|(ck, _)| (ck, skipped)))
    }

    /// Raw bytes of the newest checkpoint that passes verification — the
    /// migration payload a fleet controller ships between workers without
    /// re-encoding. Returns the checkpointed step alongside the bytes;
    /// `Ok(None)` if no valid checkpoint exists.
    pub fn latest_valid_bytes(&self) -> Result<Option<(u64, Vec<u8>)>, CheckpointError> {
        let newest = self.newest_valid(&mut Vec::new())?;
        Ok(newest.map(|(ck, bytes)| (ck.step, bytes)))
    }

    /// Install pre-encoded checkpoint bytes as this store's checkpoint for
    /// `step` — the receiving half of a migration. The bytes are verified
    /// before the atomic tmp→rename install, so a payload damaged in transit
    /// never lands under a valid name, and bytes whose manifest records
    /// another step are refused: the name is what retention prunes by.
    pub fn seed_bytes(
        &self,
        step: u64,
        bytes: &[u8],
    ) -> Result<std::path::PathBuf, CheckpointError> {
        let ck = ChunkedCheckpoint::parse(bytes)?;
        if ck.step != step {
            return Err(CheckpointError::Corrupt(format!(
                "checkpoint bytes record step {}, not {step}",
                ck.step
            )));
        }
        self.save_with(step, bytes.len() as u64, |f| f.write_all(bytes))
    }

    fn prune(&self) -> io::Result<()> {
        let list = self.list()?;
        if list.len() > self.retain {
            for (_, path) in &list[..list.len() - self.retain] {
                std::fs::remove_file(path)?;
            }
        }
        Ok(())
    }
}

/// Re-seal a tampered buffer with a freshly computed CRC so the structural
/// checks (not the checksum) are what reject it — the hostile-writer case,
/// where CRC validity proves nothing.
#[cfg(test)]
pub(crate) fn reseal(buf: &mut [u8]) {
    let crc_at = buf.len() - 4;
    let crc = crc32(&buf[..crc_at]);
    buf[crc_at..].copy_from_slice(&crc.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunked::{CheckpointChunk, ChunkMeta};

    fn sample() -> Checkpoint {
        Checkpoint {
            step: 1234,
            dims: (3, 2, 2),
            q: 19,
            scheme: SCHEME_AB,
            data: (0..3 * 2 * 2 * 19).map(|i| i as f64 * 0.5).collect(),
        }
    }

    /// Serialize `ck` in a retired whole-domain layout: version 2, or
    /// version 1 (no scheme/parity bytes) — what deployments older than the
    /// chunked format left on disk. Nothing outside tests writes these.
    fn write_legacy(version: u32, ck: &Checkpoint) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(LEGACY_MAGIC);
        body.extend_from_slice(&version.to_le_bytes());
        body.extend_from_slice(&ck.step.to_le_bytes());
        body.extend_from_slice(&ck.dims.0.to_le_bytes());
        body.extend_from_slice(&ck.dims.1.to_le_bytes());
        body.extend_from_slice(&ck.dims.2.to_le_bytes());
        body.extend_from_slice(&ck.q.to_le_bytes());
        if version >= 2 {
            body.extend_from_slice(&[ck.scheme, 0, 0, 0]); // scheme, parity, pad
        }
        body.extend_from_slice(&(ck.data.len() as u64).to_le_bytes());
        for v in &ck.data {
            body.extend_from_slice(&v.to_le_bytes());
        }
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        body
    }

    fn read(bytes: &[u8]) -> Result<ChunkedCheckpoint, CheckpointError> {
        ChunkedCheckpoint::read(&mut &bytes[..])
    }

    /// The whole-domain SoA payload a single-chunk checkpoint stands for:
    /// the inverse of the upgrade's transpose, written out index by index.
    fn soa_of(ck: &ChunkedCheckpoint) -> Vec<f64> {
        assert_eq!(ck.chunks.len(), 1, "an upgraded file is one chunk");
        let ch = &ck.chunks[0];
        let (nx, ny, _) = ck.dims;
        assert_eq!(
            ch.meta,
            ChunkMeta { x0: 0, y0: 0, lnx: nx, lny: ny },
            "the chunk covers the whole domain"
        );
        let q = ck.q as usize;
        let cells = ch.data.len() / q;
        let mut soa = vec![0.0; ch.data.len()];
        for cell in 0..cells {
            for qi in 0..q {
                soa[qi * cells + cell] = ch.data[cell * q + qi];
            }
        }
        soa
    }

    /// What `ck` must upgrade to.
    fn assert_upgrades_to(back: &ChunkedCheckpoint, ck: &Checkpoint) {
        assert_eq!(
            (back.step, back.dims, back.q, back.scheme),
            (ck.step, ck.dims, ck.q, ck.scheme)
        );
        assert_eq!(soa_of(back), ck.data);
    }

    #[test]
    fn version1_files_upgrade_to_one_whole_domain_chunk() {
        let ck = sample();
        // v1 carries no scheme byte: decodes as AB.
        assert_upgrades_to(&read(&write_legacy(1, &ck)).unwrap(), &ck);
    }

    #[test]
    fn version2_files_upgrade_with_their_scheme_byte() {
        let mut ck = sample();
        assert_upgrades_to(&read(&write_legacy(2, &ck)).unwrap(), &ck);
        ck.scheme = SCHEME_AA;
        assert_upgrades_to(&read(&write_legacy(2, &ck)).unwrap(), &ck);
    }

    #[test]
    fn unknown_scheme_byte_is_rejected() {
        let mut buf = write_legacy(2, &sample());
        buf[36] = 7; // invalid scheme
        reseal(&mut buf);
        match read(&buf) {
            Err(CheckpointError::Corrupt(m)) => assert!(m.contains("scheme"), "{m}"),
            other => panic!("expected scheme error, got {other:?}"),
        }
    }

    #[test]
    fn v2_streamed_parity_byte_is_rejected_behind_a_valid_crc() {
        // No restore path reads the parity byte, so a payload claiming the
        // Streamed origin would be installed as canonical: refuse it.
        let mut buf = write_legacy(2, &sample());
        buf[37] = 1;
        reseal(&mut buf);
        match read(&buf) {
            Err(CheckpointError::Corrupt(m)) => assert!(m.contains("parity"), "{m}"),
            other => panic!("expected parity error, got {other:?}"),
        }
    }

    #[test]
    fn bit_flip_is_detected() {
        let mut buf = write_legacy(2, &sample());
        let mid = buf.len() / 2;
        buf[mid] ^= 0x40;
        match read(&buf) {
            Err(CheckpointError::Corrupt(m)) => assert!(m.contains("CRC")),
            other => panic!("expected CRC error, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_detected() {
        let mut buf = write_legacy(2, &sample());
        buf[0] = b'X';
        // CRC catches it first; either way it must fail.
        assert!(read(&buf).is_err());
        reseal(&mut buf);
        match read(&buf) {
            Err(CheckpointError::Corrupt(m)) => assert!(m.contains("magic"), "{m}"),
            other => panic!("expected magic error, got {other:?}"),
        }
    }

    #[test]
    fn header_payload_mismatch_is_detected() {
        // Hand-craft a header whose len disagrees with dims.
        let mut ck = sample();
        ck.data.push(1.0); // one extra value
        match read(&write_legacy(2, &ck)) {
            Err(CheckpointError::Corrupt(m)) => assert!(m.contains("does not match")),
            other => panic!("expected mismatch error, got {other:?}"),
        }
    }

    #[test]
    fn crc32_reexport_still_resolves() {
        // The implementation moved to swlb-obs; the historical
        // `swlb_io::checkpoint::crc32` path must keep working and keep
        // producing the standard check value.
        assert_eq!(crate::checkpoint::crc32(b"123456789"), 0xCBF43926);
    }

    fn temp_store(retain: usize) -> CheckpointStore {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "swlb-ckpt-test-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::new(dir, retain).unwrap()
    }

    /// A 4×2×1, q = 2 checkpoint in two x-halves.
    fn at_step(step: u64) -> ChunkedCheckpoint {
        let half = |x0: u32| CheckpointChunk {
            meta: ChunkMeta { x0, y0: 0, lnx: 2, lny: 2 },
            data: (0..8).map(|i| (x0 * 100 + i) as f64).collect(),
        };
        ChunkedCheckpoint {
            step,
            dims: (4, 2, 1),
            q: 2,
            scheme: SCHEME_AB,
            chunks: vec![half(0), half(2)],
        }
    }

    #[test]
    fn store_saves_atomically_and_reports_latest() {
        let store = temp_store(3);
        assert!(store.latest().unwrap().is_none());
        store.save_chunked(&at_step(10)).unwrap();
        store.save_chunked(&at_step(20)).unwrap();
        let (step, path) = store.latest().unwrap().unwrap();
        assert_eq!(step, 20);
        assert!(path.ends_with("ckpt-000000000020.swlb"));
        let first = std::fs::read(store.path_for(10)).unwrap();
        assert_eq!(read(&first).unwrap(), at_step(10));
        // No temp droppings left behind.
        let stray: Vec<_> = std::fs::read_dir(store.dir())
            .unwrap()
            .filter(|e| {
                e.as_ref().unwrap().path().extension().is_some_and(|x| x == "tmp")
            })
            .collect();
        assert!(stray.is_empty(), "temp files must not survive a save");
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn store_prunes_beyond_retention() {
        let store = temp_store(2);
        for step in [1, 2, 3, 4] {
            store.save_chunked(&at_step(step)).unwrap();
        }
        let steps: Vec<u64> = store.list().unwrap().into_iter().map(|(s, _)| s).collect();
        assert_eq!(steps, vec![3, 4]);
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn load_latest_valid_skips_corrupt_newest() {
        let store = temp_store(3);
        store.save_chunked(&at_step(5)).unwrap();
        let newest = store.save_chunked(&at_step(9)).unwrap();
        // Corrupt the newest file in place.
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&newest, bytes).unwrap();
        let (ck, skipped) = store
            .load_latest_valid_any()
            .unwrap()
            .expect("older file is valid");
        assert_eq!(ck, at_step(5));
        assert_eq!(skipped, vec![newest]);
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn load_latest_valid_is_none_when_all_corrupt() {
        let store = temp_store(2);
        let p = store.save_chunked(&at_step(1)).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&p, bytes).unwrap();
        assert!(store.load_latest_valid_any().unwrap().is_none());
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn a_retired_file_is_a_restart_candidate_behind_a_corrupt_chunked_one() {
        // A directory straddling the format change: the older file is a v2
        // whole-domain checkpoint, the newer chunked one is damaged. The
        // store falls back to the v2 file, upgraded, and reports the skip.
        let store = temp_store(3);
        let old = Checkpoint { step: 5, ..sample() };
        std::fs::write(store.path_for(5), write_legacy(2, &old)).unwrap();
        let newest = store.save_chunked(&at_step(9)).unwrap();
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&newest, bytes).unwrap();
        let (ck, skipped) = store.load_latest_valid_any().unwrap().unwrap();
        assert_upgrades_to(&ck, &old);
        assert_eq!(skipped, vec![newest]);
        // The migration payload is the file as it sits on disk: a receiver
        // runs the same reader, so it needs no re-encode.
        let (step, raw) = store.latest_valid_bytes().unwrap().unwrap();
        assert_eq!((step, raw), (5, write_legacy(2, &old)));
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn namespaced_stores_are_isolated() {
        let store = temp_store(2);
        let a = store.namespaced("job-a").unwrap();
        let b = store.namespaced("job-b").unwrap();
        a.save_chunked(&at_step(5)).unwrap();
        b.save_chunked(&at_step(7)).unwrap();
        // Same step numbers never collide across namespaces.
        a.save_chunked(&at_step(7)).unwrap();
        assert_eq!(
            a.list().unwrap().iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![5, 7]
        );
        assert_eq!(b.latest().unwrap().unwrap().0, 7);
        // Retention is inherited and applied per namespace.
        a.save_chunked(&at_step(9)).unwrap();
        assert_eq!(
            a.list().unwrap().iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![7, 9]
        );
        // The parent store sees no checkpoints of its own.
        assert!(store.latest().unwrap().is_none());
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    #[should_panic(expected = "namespace")]
    fn namespaced_rejects_path_traversal() {
        let store = temp_store(1);
        let _ = store.namespaced("../escape");
    }

    #[test]
    fn malformed_corpus_yields_typed_errors_at_every_field_boundary() {
        // Cut a valid v2 file (and a v1 file) at every header field boundary
        // and at every byte of the header besides: none may panic, none may
        // surface as a raw unexpected-EOF I/O error, all must be Corrupt.
        let ck = sample();
        let v2 = write_legacy(2, &ck);
        let v1 = write_legacy(1, &ck);
        // Field boundaries: magic, version, step, nx, ny, nz, q,
        // scheme/parity/pad (v2), len, first payload word, crc.
        let boundaries = [0, 8, 12, 20, 24, 28, 32, 36, 37, 38, 40, 44, 48, 56];
        for buf in [&v2, &v1] {
            for keep in boundaries
                .iter()
                .copied()
                .chain(0..64.min(buf.len()))
                .chain([buf.len() / 2, buf.len() - 10, buf.len() - 5, buf.len() - 4, buf.len() - 1])
            {
                match read(&buf[..keep]) {
                    Err(CheckpointError::Corrupt(_)) => {}
                    other => panic!("cut to {keep} B: expected Corrupt, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn hostile_dims_product_overflow_is_rejected_not_wrapped() {
        // dims × q chosen so the usize product wraps to a small value that
        // would "match" a tiny payload if the reader multiplied unchecked.
        let ck = Checkpoint {
            step: 1,
            dims: (2, 2, 2),
            q: 2,
            scheme: SCHEME_AB,
            data: vec![0.0; 16],
        };
        let mut buf = write_legacy(2, &ck);
        // 2^31 × 2^31 × 2^2 × 2^0 ≡ 16 (mod 2^64): a wrap-around false match.
        for (off, val) in [(20u32, 1u32 << 31), (24, 1 << 31), (28, 4), (32, 1)] {
            let o = off as usize;
            buf[o..o + 4].copy_from_slice(&val.to_le_bytes());
        }
        reseal(&mut buf);
        match read(&buf) {
            Err(CheckpointError::Corrupt(m)) => assert!(m.contains("overflow"), "{m}"),
            other => panic!("expected overflow rejection, got {other:?}"),
        }
    }

    #[test]
    fn hostile_len_cannot_drive_a_huge_allocation() {
        // A CRC-valid header claiming a multi-exabyte payload must be
        // rejected by arithmetic before any allocation is attempted.
        let mut buf = write_legacy(2, &sample());
        let huge = (u64::MAX / 8).to_le_bytes();
        buf[40..48].copy_from_slice(&huge);
        reseal(&mut buf);
        match read(&buf) {
            Err(CheckpointError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn hostile_empty_grid_is_corrupt_not_a_division_by_zero() {
        // q = 0 (or a zero extent) with a matching zero-length payload is
        // self-consistent; the upgrade's transpose must never see it.
        for zeroed in [20usize, 32] {
            let ck = Checkpoint { data: Vec::new(), ..sample() };
            let mut buf = write_legacy(2, &ck);
            buf[zeroed..zeroed + 4].copy_from_slice(&0u32.to_le_bytes());
            reseal(&mut buf);
            match read(&buf) {
                Err(CheckpointError::Corrupt(m)) => assert!(m.contains("empty"), "{m}"),
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn single_cell_grid_upgrades() {
        let ck = Checkpoint {
            step: 0,
            dims: (1, 1, 1),
            q: 9,
            scheme: SCHEME_AB,
            data: (0..9).map(|i| i as f64 + 0.25).collect(),
        };
        assert_upgrades_to(&read(&write_legacy(2, &ck)).unwrap(), &ck);
    }

    #[test]
    fn seed_bytes_refuses_a_step_its_manifest_contradicts() {
        let dir = std::env::temp_dir().join(format!("swlb-ckpt-seed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir, 2).unwrap();
        let ck = at_step(40);
        let mut bytes = Vec::new();
        ck.write(&mut bytes).unwrap();
        let m = match store.seed_bytes(ck.step + 1, &bytes) {
            Err(CheckpointError::Corrupt(m)) => m,
            other => panic!("expected Corrupt, got {other:?}"),
        };
        assert!(m.contains("step 40"), "{m}");
        assert!(store.list().unwrap().is_empty(), "nothing is installed");
        store.seed_bytes(ck.step, &bytes).unwrap();
        assert_eq!(store.load_latest_valid_any().unwrap().unwrap().0, ck);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn byte_level_migration_roundtrip() {
        let dir = std::env::temp_dir().join(format!("swlb-ckpt-bytes-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let src = CheckpointStore::new(dir.join("src"), 2).unwrap();
        let dst = CheckpointStore::new(dir.join("dst"), 2).unwrap();
        let ck = at_step(1234);
        src.save_chunked(&ck).unwrap();
        let (step, bytes) = src.latest_valid_bytes().unwrap().unwrap();
        assert_eq!(step, ck.step);
        dst.seed_bytes(step, &bytes).unwrap();
        assert_eq!(dst.load_latest_valid_any().unwrap().unwrap().0, ck);
        // Bytes damaged in transit are refused before landing on disk.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xff;
        assert!(dst.seed_bytes(step + 1, &bad).is_err());
        assert!(!dst.path_for(step + 1).exists());
        // An empty store has no bytes to offer.
        let empty = CheckpointStore::new(dir.join("empty"), 2).unwrap();
        assert!(empty.latest_valid_bytes().unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
