//! The checkpoint's container: a self-describing indexed archive of byte
//! members, one per source rank plus the manifest.
//!
//! At 160,000 processes, one-file-per-rank output melts the metadata servers;
//! SunwayLB's I/O layer therefore has ranks ship their chunks to a writer
//! that emits one indexed file (the group I/O of §IV-B). A distributed
//! capture is that write with the whole world as one group: every rank sends
//! its chunk to rank 0 point to point, and rank 0 streams this container.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic    8 B   "SWLBGRP1"
//! count    u32   number of members
//! index    count × { id u32, offset u64, len u64 }
//! payload  concatenated members
//! crc      u32   CRC-32 of everything above
//! ```
//!
//! [`ContainerWriter`] streams one; [`members`] verifies one and lends out its
//! members in place. The checkpoint codec in [`crate::chunked`] is their
//! only user.

use crate::checkpoint::{split_verified, CheckpointError, Crc32, FieldReader};
use std::collections::BTreeMap;
use std::io::{self, Write};

pub(crate) const GROUP_MAGIC: &[u8; 8] = b"SWLBGRP1";

/// Verify a container body and return its members by id, borrowed from
/// `body`. Checked before anything is returned: the CRC, the magic, and an
/// index whose entries lie inside the payload, share no byte and name no id
/// twice.
pub(crate) fn members(body: &[u8]) -> Result<BTreeMap<u32, &[u8]>, CheckpointError> {
    let corrupt = |m: String| Err(CheckpointError::Corrupt(m));
    let payload = split_verified(body)?;
    let mut rd = FieldReader::new(payload);
    if rd.take(8, "magic")? != GROUP_MAGIC {
        return corrupt("bad magic".into());
    }
    let count = rd.u32("member count")? as usize;
    // All index arithmetic is checked: a hostile count/offset/len must
    // surface as Corrupt, never as an overflow panic or a wrapped slice.
    let Some(index_end) = count
        .checked_mul(20)
        .and_then(|n| n.checked_add(12))
        .filter(|&end| end <= payload.len())
    else {
        return corrupt("truncated index".into());
    };
    // (start, end, id) of every entry, all inside the payload region.
    let mut spans = Vec::with_capacity(count);
    for entry in payload[12..index_end].chunks_exact(20) {
        let id = u32::from_le_bytes(entry[..4].try_into().unwrap());
        let offset = u64::from_le_bytes(entry[4..12].try_into().unwrap());
        let len = u64::from_le_bytes(entry[12..].try_into().unwrap());
        let end = offset
            .checked_add(len)
            .filter(|&e| offset >= index_end as u64 && e <= payload.len() as u64);
        let Some(end) = end else {
            return corrupt(format!("member {id} leaves the payload region"));
        };
        spans.push((offset as usize, end as usize, id));
    }
    // Entries must not share bytes. The reader decodes every member, so
    // aliased ranges would let a small file demand `count` times its own
    // size; disjoint ones bound the decode by the file length.
    spans.sort_unstable();
    if let Some(w) = spans.windows(2).find(|w| w[0].1 > w[1].0) {
        return corrupt(format!("members {} and {} overlap", w[0].2, w[1].2));
    }
    let mut members = BTreeMap::new();
    for (start, end, id) in spans {
        if members.insert(id, &payload[start..end]).is_some() {
            return corrupt(format!("duplicate member {id}"));
        }
    }
    Ok(members)
}

/// Streams a container: the index, then member bytes as they are put,
/// checksummed on the way; `finish` appends the CRC.
pub(crate) struct ContainerWriter<W: Write> {
    w: W,
    crc: Crc32,
}

impl<W: Write> ContainerWriter<W> {
    /// Write the magic, count and index for `members`, `(id, byte length)`
    /// in ascending id — the order their bytes must then be put in.
    pub(crate) fn start(w: W, members: &[(u32, u64)]) -> io::Result<Self> {
        let mut head = [&GROUP_MAGIC[..], &(members.len() as u32).to_le_bytes()].concat();
        let mut offset = (12 + 20 * members.len()) as u64;
        for &(id, len) in members {
            head.extend_from_slice(&id.to_le_bytes());
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

/// The container of `members`, as [`ContainerWriter`] lays it out.
#[cfg(test)]
pub(crate) fn container(members: &BTreeMap<u32, Vec<u8>>) -> Vec<u8> {
    let lens: Vec<_> = members.iter().map(|(&id, m)| (id, m.len() as u64)).collect();
    let mut buf = Vec::new();
    let mut out = ContainerWriter::start(&mut buf, &lens).unwrap();
    members.values().try_for_each(|m| out.put(m)).unwrap();
    out.finish().unwrap();
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_multiple_chunks() {
        let sent = BTreeMap::from([(3, vec![1, 2, 3]), (0, vec![9; 100]), (7, vec![])]);
        let buf = container(&sent);
        let back = members(&buf).unwrap();
        assert_eq!(back.keys().copied().collect::<Vec<_>>(), vec![0, 3, 7]);
        assert!(sent.iter().all(|(id, m)| back[id] == &m[..]));
        assert_eq!(back[&7], &[] as &[u8]);
        assert!(!back.contains_key(&1));
    }

    #[test]
    fn empty_container_roundtrips() {
        let buf = container(&BTreeMap::new());
        assert!(members(&buf).unwrap().is_empty());
    }

    #[test]
    fn corruption_is_detected() {
        let mut buf = container(&BTreeMap::from([(0, vec![5; 64])]));
        let mid = buf.len() / 2;
        buf[mid] ^= 0x10;
        assert!(matches!(members(&buf), Err(CheckpointError::Corrupt(_))));
    }

    #[test]
    fn truncation_is_detected() {
        let mut buf = container(&BTreeMap::from([(0, vec![5; 64])]));
        buf.truncate(20);
        assert!(members(&buf).is_err());
    }

    /// A hand-built container: `entries` as `(id, offset, len)` over one
    /// shared `payload`, behind a valid CRC.
    fn forged(entries: &[(u32, u64, u64)], payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(GROUP_MAGIC);
        buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for (id, offset, len) in entries {
            buf.extend_from_slice(&id.to_le_bytes());
            buf.extend_from_slice(&offset.to_le_bytes());
            buf.extend_from_slice(&len.to_le_bytes());
        }
        buf.extend_from_slice(payload);
        buf.extend_from_slice(&[0; 4]);
        crate::checkpoint::reseal(&mut buf);
        buf
    }

    fn corrupt_message(buf: &[u8]) -> String {
        match members(buf) {
            Err(CheckpointError::Corrupt(m)) => m,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn aliased_index_entries_are_rejected_before_any_copy() {
        // 4096 entries all naming the same 64 KiB: a ~150 KiB file asking
        // for 256 MiB of decoded members. With a body near the service's
        // request cap the same shape asks for terabytes.
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
        let g = members(&ok).unwrap();
        assert_eq!((g[&1].len(), g[&5].len()), (40, 8));
        assert_eq!(g[&9], &[] as &[u8]);
    }
}
