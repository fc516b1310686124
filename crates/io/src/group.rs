//! Group-I/O container format.
//!
//! At 160,000 processes, one-file-per-rank output melts the metadata servers
//! and single-file-per-step contended writes melt the OSTs; SunwayLB's I/O
//! layer therefore offers "group I/O" (§IV-B): ranks are organized in groups,
//! each group aggregates its members' chunks at a leader, and the leader
//! writes **one container file per group**. This module implements that
//! container: a self-describing indexed archive of per-rank byte chunks.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic    8 B   "SWLBGRP1"
//! count    u32   number of chunks
//! index    count × { rank u32, offset u64, len u64 }
//! payload  concatenated chunks
//! crc      u32   CRC-32 of everything above
//! ```

use crate::checkpoint::{crc32, Crc32};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read, Write};

pub(crate) const GROUP_MAGIC: &[u8; 8] = b"SWLBGRP1";

/// Errors from group-file parsing.
#[derive(Debug)]
pub enum GroupFileError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural corruption.
    Corrupt(String),
}

impl fmt::Display for GroupFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupFileError::Io(e) => write!(f, "group file I/O error: {e}"),
            GroupFileError::Corrupt(m) => write!(f, "corrupt group file: {m}"),
        }
    }
}

impl std::error::Error for GroupFileError {}

impl From<io::Error> for GroupFileError {
    fn from(e: io::Error) -> Self {
        GroupFileError::Io(e)
    }
}

/// An in-memory group container: per-rank byte chunks, ordered by rank.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroupFile {
    chunks: BTreeMap<u32, Vec<u8>>,
}

impl GroupFile {
    /// Empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) rank `rank`'s chunk.
    pub fn insert(&mut self, rank: u32, data: Vec<u8>) {
        self.chunks.insert(rank, data);
    }

    /// Chunk of `rank`, if present.
    pub fn chunk(&self, rank: u32) -> Option<&[u8]> {
        self.chunks.get(&rank).map(|v| v.as_slice())
    }

    /// Ranks present, ascending.
    pub fn ranks(&self) -> Vec<u32> {
        self.chunks.keys().copied().collect()
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Whether the container is empty.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Serialize the container.
    pub fn write(&self, w: &mut impl Write) -> io::Result<()> {
        let members: Vec<_> = self.chunks.iter().map(|(r, d)| (*r, d.len() as u64)).collect();
        let mut out = ContainerWriter::start(w, &members)?;
        for data in self.chunks.values() {
            out.put(data)?;
        }
        out.finish()
    }

    /// Deserialize and verify a container.
    pub fn read(r: &mut impl Read) -> Result<Self, GroupFileError> {
        let mut body = Vec::new();
        r.read_to_end(&mut body)?;
        Self::parse(&body)
    }

    /// [`GroupFile::read`] over bytes already in memory.
    pub(crate) fn parse(body: &[u8]) -> Result<Self, GroupFileError> {
        if body.len() < 16 {
            return Err(GroupFileError::Corrupt(format!(
                "file too short: {} B",
                body.len()
            )));
        }
        let (payload, crc_bytes) = body.split_at(body.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        let computed = crc32(payload);
        if stored != computed {
            return Err(GroupFileError::Corrupt(format!(
                "CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            )));
        }
        if &payload[..8] != GROUP_MAGIC {
            return Err(GroupFileError::Corrupt("bad magic".into()));
        }
        let count = u32::from_le_bytes(payload[8..12].try_into().unwrap()) as usize;
        // All index arithmetic is checked: a hostile count/offset/len must
        // surface as Corrupt, never as an overflow panic or a wrapped slice.
        let Some(index_end) = count
            .checked_mul(20)
            .and_then(|n| n.checked_add(12))
            .filter(|&end| end <= payload.len())
        else {
            return Err(GroupFileError::Corrupt("truncated index".into()));
        };
        // (start, end, rank) of every entry, all inside the payload region.
        let mut spans = Vec::with_capacity(count);
        for entry in payload[12..index_end].chunks_exact(20) {
            let rank = u32::from_le_bytes(entry[..4].try_into().unwrap());
            let offset = u64::from_le_bytes(entry[4..12].try_into().unwrap());
            let len = u64::from_le_bytes(entry[12..].try_into().unwrap());
            let end = offset
                .checked_add(len)
                .filter(|&e| offset >= index_end as u64 && e <= payload.len() as u64);
            let Some(end) = end else {
                return Err(GroupFileError::Corrupt(format!(
                    "chunk for rank {rank} leaves the payload region"
                )));
            };
            spans.push((offset as usize, end as usize, rank));
        }
        // Entries must not share bytes. Every chunk is copied out below, so
        // aliased ranges would let a small file demand `count` times its own
        // size; disjoint ones bound the copies by the file length.
        spans.sort_unstable();
        if let Some(w) = spans.windows(2).find(|w| w[0].1 > w[1].0) {
            return Err(GroupFileError::Corrupt(format!(
                "chunks for ranks {} and {} overlap",
                w[0].2, w[1].2
            )));
        }
        let mut chunks = BTreeMap::new();
        for (start, end, rank) in spans {
            if chunks.insert(rank, payload[start..end].to_vec()).is_some() {
                return Err(GroupFileError::Corrupt(format!(
                    "duplicate chunk for rank {rank}"
                )));
            }
        }
        Ok(Self { chunks })
    }
}

/// Streams a container: the index, then member bytes as they are put,
/// checksummed on the way; `finish` appends the CRC.
pub(crate) struct ContainerWriter<W: Write> {
    w: W,
    crc: Crc32,
}

impl<W: Write> ContainerWriter<W> {
    /// Write the magic, count and index for `members`, `(rank, byte length)`
    /// in ascending rank — the order their bytes must then be put in.
    pub(crate) fn start(w: W, members: &[(u32, u64)]) -> io::Result<Self> {
        let mut head = [&GROUP_MAGIC[..], &(members.len() as u32).to_le_bytes()].concat();
        let mut offset = (12 + 20 * members.len()) as u64;
        for &(rank, len) in members {
            head.extend_from_slice(&rank.to_le_bytes());
            head.extend_from_slice(&offset.to_le_bytes());
            head.extend_from_slice(&len.to_le_bytes());
            offset += len;
        }
        let mut out = ContainerWriter { w, crc: Crc32::new() };
        out.put(&head)?;
        Ok(out)
    }

    /// Append raw member bytes.
    pub(crate) fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.crc.update(bytes);
        self.w.write_all(bytes)
    }

    /// Append the CRC-32 of everything written.
    pub(crate) fn finish(mut self) -> io::Result<()> {
        self.w.write_all(&self.crc.finish().to_le_bytes())
    }
}

/// Group-membership arithmetic: ranks are divided into contiguous groups of
/// `group_size`; the lowest rank of each group is its **leader** (the writer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoGroups {
    /// Ranks per group (≥ 1).
    pub group_size: usize,
}

impl IoGroups {
    /// Create with the given group size.
    pub fn new(group_size: usize) -> Self {
        assert!(group_size >= 1);
        Self { group_size }
    }

    /// Group index of `rank`.
    pub fn group_of(&self, rank: usize) -> usize {
        rank / self.group_size
    }

    /// Leader rank of `rank`'s group.
    pub fn leader_of(&self, rank: usize) -> usize {
        self.group_of(rank) * self.group_size
    }

    /// Whether `rank` is a leader.
    pub fn is_leader(&self, rank: usize) -> bool {
        rank.is_multiple_of(self.group_size)
    }

    /// Members of `rank`'s group in a world of `size` ranks.
    pub fn members_of(&self, rank: usize, size: usize) -> std::ops::Range<usize> {
        let lo = self.leader_of(rank);
        lo..(lo + self.group_size).min(size)
    }

    /// Number of groups (= files) in a world of `size` ranks.
    pub fn group_count(&self, size: usize) -> usize {
        size.div_ceil(self.group_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_multiple_chunks() {
        let mut g = GroupFile::new();
        g.insert(3, vec![1, 2, 3]);
        g.insert(0, vec![9; 100]);
        g.insert(7, vec![]);
        let mut buf = Vec::new();
        g.write(&mut buf).unwrap();
        let back = GroupFile::read(&mut buf.as_slice()).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.ranks(), vec![0, 3, 7]);
        assert_eq!(back.chunk(3).unwrap(), &[1, 2, 3]);
        assert_eq!(back.chunk(7).unwrap(), &[] as &[u8]);
        assert!(back.chunk(1).is_none());
    }

    #[test]
    fn empty_container_roundtrips() {
        let g = GroupFile::new();
        let mut buf = Vec::new();
        g.write(&mut buf).unwrap();
        let back = GroupFile::read(&mut buf.as_slice()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn corruption_is_detected() {
        let mut g = GroupFile::new();
        g.insert(0, vec![5; 64]);
        let mut buf = Vec::new();
        g.write(&mut buf).unwrap();
        let mid = buf.len() / 2;
        buf[mid] ^= 0x10;
        assert!(matches!(
            GroupFile::read(&mut buf.as_slice()),
            Err(GroupFileError::Corrupt(_))
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let mut g = GroupFile::new();
        g.insert(0, vec![5; 64]);
        let mut buf = Vec::new();
        g.write(&mut buf).unwrap();
        buf.truncate(20);
        assert!(GroupFile::read(&mut buf.as_slice()).is_err());
    }

    /// A hand-built container: `entries` as `(rank, offset, len)` over one
    /// shared `payload`, behind a valid CRC.
    fn forged(entries: &[(u32, u64, u64)], payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(GROUP_MAGIC);
        buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for (rank, offset, len) in entries {
            buf.extend_from_slice(&rank.to_le_bytes());
            buf.extend_from_slice(&offset.to_le_bytes());
            buf.extend_from_slice(&len.to_le_bytes());
        }
        buf.extend_from_slice(payload);
        buf.extend_from_slice(&[0; 4]);
        crate::checkpoint::reseal(&mut buf);
        buf
    }

    fn corrupt_message(buf: &[u8]) -> String {
        match GroupFile::parse(buf) {
            Err(GroupFileError::Corrupt(m)) => m,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn aliased_index_entries_are_rejected_before_any_copy() {
        // 4096 entries all naming the same 64 KiB: a ~150 KiB file asking
        // for 256 MiB of copies. With a body near the service's request cap
        // the same shape asks for terabytes.
        let n = 4096u32;
        let start = 12 + n as u64 * 20;
        let payload = vec![7u8; 64 << 10];
        let entries: Vec<_> = (0..n).map(|r| (r, start, payload.len() as u64)).collect();
        let m = corrupt_message(&forged(&entries, &payload));
        assert!(m.contains("overlap"), "{m}");

        // Partial overlap, and an entry reaching back into the index.
        let m = corrupt_message(&forged(&[(0, 52, 10), (1, 60, 6)], &[0; 16]));
        assert!(m.contains("overlap"), "{m}");
        let m = corrupt_message(&forged(&[(0, 12, 8)], &[0; 16]));
        assert!(m.contains("payload region"), "{m}");

        // Disjoint entries in any index order, empty ones included, load.
        let ok = forged(&[(5, 112, 8), (1, 72, 40), (9, 112, 0)], &[1; 48]);
        let g = GroupFile::parse(&ok).unwrap();
        assert_eq!((g.chunk(1).unwrap().len(), g.chunk(5).unwrap().len()), (40, 8));
        assert_eq!(g.chunk(9).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn group_arithmetic() {
        let g = IoGroups::new(4);
        assert_eq!(g.group_of(0), 0);
        assert_eq!(g.group_of(5), 1);
        assert_eq!(g.leader_of(6), 4);
        assert!(g.is_leader(8));
        assert!(!g.is_leader(9));
        assert_eq!(g.members_of(5, 10), 4..8);
        // Ragged final group.
        assert_eq!(g.members_of(9, 10), 8..10);
        assert_eq!(g.group_count(10), 3);
        assert_eq!(IoGroups::new(1).group_count(7), 7);
    }
}
