//! Append-only, CRC-framed, fsync-batched write-ahead journal.
//!
//! The serve tier needs its job table to survive `kill -9`: the queue itself
//! is in-memory, so every lifecycle transition is first appended here and the
//! table is rebuilt by replay on restart. The design borrows the two
//! conventions already proven elsewhere in the workspace:
//!
//! * **CRC framing** (as in `swlb-comm::frame`): every record is one text
//!   line `J1 <crc32:8-hex> <payload>`, where the checksum covers the payload
//!   bytes. A torn write (power loss mid-line) or a flipped bit is detected
//!   per record, and replay skips exactly the damaged records instead of
//!   abandoning the log.
//! * **Atomic replacement** (as in [`CheckpointStore`](crate::CheckpointStore)):
//!   compaction writes the surviving records to a `*.tmp` segment, fsyncs,
//!   renames it into place, fsyncs the directory, and only then deletes the
//!   older segments — a crash at any point leaves either the old segments or
//!   the complete new one.
//!
//! The payload is an opaque single-line string (the caller's JSON); this
//! crate stays schema-agnostic so the journal is reusable beyond the serve
//! tier.
//!
//! Durability model: `append(.., durable=true)` fsyncs before returning
//! (write-ahead semantics for records that gate an acknowledgement);
//! non-durable appends are batched and fsynced every
//! [`JournalConfig::fsync_every`] records, on rotation, and on [`Journal::sync`].
//!
//! [`Wal`] is the typed state-machine log both control planes run on: a
//! [`WalEvent`] names the record codec, a [`WalState`] the table the records
//! fold into. [`Wal::recover`] owns the crash-recovery sequence (replay, fold,
//! open, compact) and the returned writer owns the failure domain: when the
//! disk is full or slow it buffers records in memory (bounded), flips to
//! degraded — admission then returns 503 — and drains the buffer once writes
//! succeed again. A record is never silently dropped until the bound is hit,
//! and drops are counted.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

use swlb_obs::{crc32, Recorder};

/// Record frame tag; bump if the line format ever changes.
const FRAME_TAG: &str = "J1";

/// Knobs for batching and rotation.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// fsync after this many unsynced non-durable appends (≥ 1).
    pub fsync_every: u64,
    /// Start a new segment after this many records (≥ 1).
    pub segment_max_records: u64,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            fsync_every: 32,
            segment_max_records: 4096,
        }
    }
}

/// What replay found on disk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Valid records recovered.
    pub records: u64,
    /// Damaged records skipped *before* the final line of the final segment.
    pub corrupt: u64,
    /// Damaged or incomplete final line of the final segment (a torn write
    /// from the crash itself) — reported separately because it is expected
    /// after a hard kill, unlike mid-log corruption.
    pub truncated_tail: u64,
    /// Segments read.
    pub segments: u64,
}

impl ReplayReport {
    /// Total records that failed their frame check.
    pub fn skipped(&self) -> u64 {
        self.corrupt + self.truncated_tail
    }
}

/// An open journal directory: one writer, ordered segments.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    file: File,
    seg_index: u64,
    seg_records: u64,
    unsynced: u64,
    cfg: JournalConfig,
    recorder: swlb_obs::Recorder,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("journal-{index:06}.log"))
}

fn segment_index(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    name.strip_prefix("journal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// Segments in `dir`, ordered by index ascending.
fn segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if let Some(idx) = segment_index(&path) {
            out.push((idx, path));
        }
    }
    out.sort_by_key(|(idx, _)| *idx);
    Ok(out)
}

/// Frame one payload as a journal line (without the trailing newline).
fn frame(payload: &str) -> String {
    format!("{FRAME_TAG} {:08x} {payload}", crc32(payload.as_bytes()))
}

/// Check one line's frame; `Some(payload)` if intact.
fn unframe(line: &str) -> Option<&str> {
    let rest = line.strip_prefix(FRAME_TAG)?.strip_prefix(' ')?;
    let crc_hex = rest.get(..8)?;
    let payload = rest.get(8..)?.strip_prefix(' ')?;
    let stated = u32::from_str_radix(crc_hex, 16).ok()?;
    (stated == crc32(payload.as_bytes())).then_some(payload)
}

impl Journal {
    /// Open (creating if needed) the journal at `dir` and position the writer
    /// at the end of the newest segment. Existing records are untouched —
    /// call [`Journal::replay`] first to read them.
    pub fn open(dir: impl Into<PathBuf>, cfg: JournalConfig) -> io::Result<Journal> {
        assert!(cfg.fsync_every >= 1 && cfg.segment_max_records >= 1);
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let seg_index = segments(&dir)?.last().map_or(1, |(idx, _)| *idx);
        let path = segment_path(&dir, seg_index);
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        // Seal a torn tail (no trailing newline — the mark of a crash mid
        // write) so the next append starts a fresh line instead of merging
        // into the damaged one.
        let len = file.metadata()?.len();
        if len > 0 {
            use std::io::{Read, Seek, SeekFrom};
            let mut last = [0u8; 1];
            let mut probe = File::open(&path)?;
            probe.seek(SeekFrom::End(-1))?;
            probe.read_exact(&mut last)?;
            if last[0] != b'\n' {
                file.write_all(b"\n")?;
            }
        }
        // Count the records already in the open segment so rotation keeps its
        // bound across restarts (damaged lines count too: they occupy space).
        let seg_records = BufReader::new(File::open(&path)?).lines().count() as u64;
        Ok(Journal {
            dir,
            file,
            seg_index,
            seg_records,
            unsynced: 0,
            cfg,
            recorder: swlb_obs::Recorder::disabled(),
        })
    }

    /// Report journal traffic (`journal.appends`, `journal.fsyncs`,
    /// `journal.fsync_ns`, `journal.bytes_written`, `journal.rotations`,
    /// `journal.compactions`) into `recorder`.
    pub fn with_recorder(mut self, recorder: swlb_obs::Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The directory segments live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Read every record in `dir` in write order, skipping damaged lines.
    /// A missing directory replays as empty — first boot is not an error.
    pub fn replay(dir: &Path) -> io::Result<(Vec<String>, ReplayReport)> {
        let mut records = Vec::new();
        let mut report = ReplayReport::default();
        let segs = match segments(dir) {
            Ok(s) => s,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((records, report)),
            Err(e) => return Err(e),
        };
        let last_seg = segs.len();
        for (seg_no, (_, path)) in segs.iter().enumerate() {
            report.segments += 1;
            // Split on bytes, not on `str::lines`: a flipped bit that breaks
            // UTF-8 must cost the record it hit, not the whole segment.
            let bytes = std::fs::read(path)?;
            let complete_tail = bytes.last() == Some(&b'\n');
            let mut lines: Vec<&[u8]> = bytes.split(|b| *b == b'\n').collect();
            if lines.last().is_some_and(|l| l.is_empty()) {
                lines.pop(); // the piece after the final newline, not a line
            }
            for (line_no, line) in lines.iter().enumerate() {
                let is_final_line = seg_no + 1 == last_seg && line_no + 1 == lines.len();
                match std::str::from_utf8(line).ok().and_then(unframe) {
                    Some(payload) => {
                        // A valid frame on an incomplete final line can only
                        // happen if the payload itself was cut at a point
                        // that still checksums — the 8-hex CRC makes that
                        // astronomically unlikely, so accept it.
                        records.push(payload.to_string());
                        report.records += 1;
                    }
                    None if is_final_line && !complete_tail => report.truncated_tail += 1,
                    None => report.corrupt += 1,
                }
            }
        }
        Ok((records, report))
    }

    /// Append one single-line payload. With `durable`, the record is fsynced
    /// before returning (write-ahead guarantee); otherwise syncs are batched.
    /// Embedded newlines would break the framing and are replaced by spaces.
    pub fn append(&mut self, payload: &str, durable: bool) -> io::Result<()> {
        let clean;
        let payload = if payload.contains('\n') {
            clean = payload.replace('\n', " ");
            &clean
        } else {
            payload
        };
        let line = frame(payload);
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.seg_records += 1;
        self.unsynced += 1;
        self.recorder.counter("journal.appends").inc();
        self.recorder
            .counter("journal.bytes_written")
            .add(line.len() as u64 + 1);
        if durable || self.unsynced >= self.cfg.fsync_every {
            self.sync()?;
        }
        if self.seg_records >= self.cfg.segment_max_records {
            self.rotate()?;
        }
        Ok(())
    }

    /// Flush batched appends to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.unsynced == 0 {
            return Ok(());
        }
        let t0 = std::time::Instant::now();
        self.file.sync_data()?;
        self.recorder
            .counter("journal.fsync_ns")
            .add(t0.elapsed().as_nanos() as u64);
        self.recorder.counter("journal.fsyncs").inc();
        self.unsynced = 0;
        Ok(())
    }

    /// Close the current segment and start the next one.
    fn rotate(&mut self) -> io::Result<()> {
        self.sync()?;
        self.seg_index += 1;
        let path = segment_path(&self.dir, self.seg_index);
        self.file = OpenOptions::new().create(true).append(true).open(path)?;
        self.seg_records = 0;
        sync_dir(&self.dir);
        self.recorder.counter("journal.rotations").inc();
        Ok(())
    }

    /// Atomically replace the whole journal with `records` (the compacted
    /// live set). Subsequent appends continue in the new segment.
    pub fn compact(&mut self, records: &[String]) -> io::Result<()> {
        let new_index = self.seg_index + 1;
        let final_path = segment_path(&self.dir, new_index);
        let tmp_path = final_path.with_extension("log.tmp");
        {
            let mut f = File::create(&tmp_path)?;
            for rec in records {
                f.write_all(frame(rec).as_bytes())?;
                f.write_all(b"\n")?;
            }
            f.sync_all()?;
        }
        std::fs::rename(&tmp_path, &final_path)?;
        sync_dir(&self.dir);
        // Only now is it safe to drop history.
        for (idx, path) in segments(&self.dir)? {
            if idx < new_index {
                std::fs::remove_file(path)?;
            }
        }
        self.file = OpenOptions::new().append(true).open(&final_path)?;
        self.seg_index = new_index;
        self.seg_records = records.len() as u64;
        self.unsynced = 0;
        self.recorder.counter("journal.compactions").inc();
        Ok(())
    }

    /// Number of on-disk segments (diagnostics / tests).
    pub fn segment_count(&self) -> io::Result<usize> {
        Ok(segments(&self.dir)?.len())
    }
}

/// Best-effort directory fsync so renames/creates are durable.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// One record type of a write-ahead state-machine log.
pub trait WalEvent: Sized {
    /// Encode as the single-line journal payload.
    fn to_line(&self) -> String;
    /// Decode one payload; `None` if unparseable or unknown (skipped by
    /// replay, counted as corrupt at the record layer).
    fn parse(line: &str) -> Option<Self>;
    /// Whether the record gates an acknowledgement and is fsynced before
    /// [`Wal::append`] returns.
    fn is_durable(&self) -> bool;
}

/// The table a log of `E` folds into, one record at a time.
pub trait WalState<E>: Default {
    /// Apply the next record in write order.
    fn apply(&mut self, ev: E);
    /// The minimal record set that folds back to this state (what startup
    /// compaction rewrites the journal to); empty for an empty state.
    fn compacted(&self) -> Vec<E>;
}

/// Fold raw journal payloads into a state. Returns the state plus the count
/// of records that framed correctly but failed to parse (schema damage).
pub fn fold<E: WalEvent, S: WalState<E>>(records: &[String]) -> (S, u64) {
    let mut state = S::default();
    let mut unparseable = 0;
    for line in records {
        match E::parse(line) {
            Some(ev) => state.apply(ev),
            None => unparseable += 1,
        }
    }
    (state, unparseable)
}

/// The typed journal writer a control plane's threads share (behind its
/// state mutex).
///
/// Failure domain: an I/O error on append or sync does not propagate — the
/// record is kept in a bounded in-memory buffer, `degraded()` flips true
/// (admission answers 503 until the disk recovers), and every subsequent
/// append retries the buffered backlog first so the on-disk order matches
/// the logical order.
pub struct Wal<E> {
    inner: Option<Journal>,
    pending: VecDeque<(String, bool)>,
    buffer_max: usize,
    degraded: bool,
    /// Chaos switch: force every disk write to fail (ENOSPC simulation).
    fail_writes: bool,
    recorder: Recorder,
    counter_prefix: &'static str,
    _event: PhantomData<fn(E)>,
}

impl<E> std::fmt::Debug for Wal<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("enabled", &self.inner.is_some())
            .field("pending", &self.pending.len())
            .field("degraded", &self.degraded)
            .finish()
    }
}

impl<E: WalEvent> Wal<E> {
    /// A no-op log (unit tests, ephemeral servers).
    pub fn disabled() -> Self {
        Wal {
            inner: None,
            pending: VecDeque::new(),
            buffer_max: 0,
            degraded: false,
            fail_writes: false,
            recorder: Recorder::disabled(),
            counter_prefix: "",
            _event: PhantomData,
        }
    }

    /// Crash recovery: replay the journal at `dir` and fold it into an `S`
    /// (damage is counted in `<counter_prefix>.corrupt`, never fatal), then
    /// open the journal for appending and — if anything was replayed —
    /// compact it to `S::compacted()`, dropping terminal history and
    /// superseded records atomically. Returns the writer, the folded state
    /// and the number of records lost to frame or schema damage.
    ///
    /// `buffer_max` bounds the in-memory backlog held across disk outages;
    /// `recorder` receives the `journal.*` traffic counters and this log's
    /// `<counter_prefix>.{dropped,degraded,buffered,corrupt}`.
    pub fn recover<S: WalState<E>>(
        dir: &Path,
        buffer_max: usize,
        recorder: Recorder,
        counter_prefix: &'static str,
    ) -> io::Result<(Self, S, u64)> {
        let (records, report) = Journal::replay(dir)?;
        let (state, unparseable) = fold::<E, S>(&records);
        let corrupt = report.skipped() + unparseable;
        let mut journal =
            Journal::open(dir, JournalConfig::default())?.with_recorder(recorder.clone());
        let live: Vec<String> = state.compacted().iter().map(E::to_line).collect();
        let compact_failed = !live.is_empty() && journal.compact(&live).is_err();
        let wal = Wal {
            inner: Some(journal),
            buffer_max: buffer_max.max(1),
            degraded: compact_failed,
            recorder,
            counter_prefix,
            ..Wal::disabled()
        };
        if corrupt > 0 {
            wal.count("corrupt", corrupt);
        }
        if compact_failed {
            wal.count("degraded", 1);
        }
        Ok((wal, state, corrupt))
    }

    fn count(&self, what: &str, n: u64) {
        self.recorder
            .counter(&format!("{}.{what}", self.counter_prefix))
            .add(n);
    }

    /// Whether records currently reach stable storage. Admission refuses
    /// (503) while degraded: the service will not accept work it cannot make
    /// crash-safe.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Records waiting in memory for the disk to recover.
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }

    /// Chaos hook: make every disk write fail (on) / recover (off), then
    /// immediately re-attempt the backlog on recovery.
    pub fn set_fail_writes(&mut self, fail: bool) {
        self.fail_writes = fail;
        if !fail {
            self.drain();
        }
    }

    /// Append a record. Never panics and never blocks admission
    /// correctness: on disk failure the record is buffered and the log
    /// degrades. Returns whether the record (and the whole backlog) reached
    /// the disk.
    pub fn append(&mut self, ev: &E) -> bool {
        if self.inner.is_none() {
            return true;
        }
        self.pending.push_back((ev.to_line(), ev.is_durable()));
        while self.pending.len() > self.buffer_max {
            self.pending.pop_front();
            self.count("dropped", 1);
        }
        self.drain();
        !self.degraded
    }

    /// Withdraw the most recently appended record if it has not reached the
    /// disk. Admission uses this when it answers the failure with a refusal
    /// (503): the client never got an acknowledgement, so the record must
    /// not survive in the retry buffer and replay as a ghost job.
    ///
    /// The retraction is verified against `ev`: only a still-buffered copy of
    /// that exact record is removed. A record that already reached the disk
    /// is no longer in `pending` (the drain pops front-first and a successful
    /// append leaves the buffer empty), so a flushed record can never be
    /// retracted — nor can an unrelated record buffered behind it. Returns
    /// whether a record was withdrawn.
    pub fn retract_last(&mut self, ev: &E) -> bool {
        let matches = self
            .pending
            .back()
            .is_some_and(|(line, _)| *line == ev.to_line());
        if matches {
            self.pending.pop_back();
        }
        matches
    }

    /// Try to push the backlog to disk, preserving order.
    fn drain(&mut self) {
        let Some(journal) = self.inner.as_mut() else {
            return;
        };
        let mut stuck = false;
        while let Some((line, durable)) = self.pending.front() {
            stuck = self.fail_writes || journal.append(line, *durable).is_err();
            if stuck {
                break;
            }
            self.pending.pop_front();
        }
        if stuck {
            if !self.degraded {
                self.count("degraded", 1);
            }
            self.count("buffered", 1);
        }
        self.degraded = stuck;
    }

    /// Flush batched appends (shutdown path). Best-effort while degraded.
    pub fn sync(&mut self) {
        self.drain();
        if let Some(j) = self.inner.as_mut() {
            if !self.fail_writes {
                let _ = j.sync();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("swlb-journal-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn replayed(dir: &Path) -> (Vec<String>, ReplayReport) {
        Journal::replay(dir).unwrap()
    }

    #[test]
    fn append_replay_roundtrip_preserves_order() {
        let dir = temp_dir("roundtrip");
        let mut j = Journal::open(&dir, JournalConfig::default()).unwrap();
        for i in 0..10 {
            j.append(&format!("{{\"n\":{i}}}"), i % 3 == 0).unwrap();
        }
        j.sync().unwrap();
        let (recs, report) = replayed(&dir);
        assert_eq!(recs.len(), 10);
        assert_eq!(recs[7], "{\"n\":7}");
        assert_eq!(report.records, 10);
        assert_eq!(report.skipped(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_replays_empty() {
        let dir = temp_dir("missing");
        let (recs, report) = replayed(&dir);
        assert!(recs.is_empty());
        assert_eq!(report.segments, 0);
    }

    #[test]
    fn truncated_tail_is_skipped_and_counted() {
        let dir = temp_dir("torn");
        let mut j = Journal::open(&dir, JournalConfig::default()).unwrap();
        j.append("alpha", true).unwrap();
        j.append("beta", true).unwrap();
        drop(j);
        // Simulate a torn final write: cut the last line mid-payload.
        let seg = segments(&dir).unwrap().pop().unwrap().1;
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes.truncate(bytes.len() - 3);
        std::fs::write(&seg, bytes).unwrap();
        let (recs, report) = replayed(&dir);
        assert_eq!(recs, vec!["alpha".to_string()]);
        assert_eq!(report.truncated_tail, 1);
        assert_eq!(report.corrupt, 0);
        // Reopening and appending after the torn tail still works; replay
        // then flags the dead line as mid-log corruption, not a tail.
        let mut j = Journal::open(&dir, JournalConfig::default()).unwrap();
        j.append("gamma", true).unwrap();
        let (recs, report) = replayed(&dir);
        assert_eq!(recs, vec!["alpha".to_string(), "gamma".to_string()]);
        assert_eq!(report.corrupt, 1);
        assert_eq!(report.truncated_tail, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_is_skipped_and_counted() {
        let dir = temp_dir("corrupt");
        let mut j = Journal::open(&dir, JournalConfig::default()).unwrap();
        for p in ["one", "two", "three"] {
            j.append(p, true).unwrap();
        }
        drop(j);
        let seg = segments(&dir).unwrap().pop().unwrap().1;
        let text = std::fs::read_to_string(&seg).unwrap();
        // Flip a payload byte of the middle record.
        let damaged = text.replace("two", "twX");
        std::fs::write(&seg, damaged).unwrap();
        let (recs, report) = replayed(&dir);
        assert_eq!(recs, vec!["one".to_string(), "three".to_string()]);
        assert_eq!(report.corrupt, 1);
        assert_eq!(report.truncated_tail, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_splits_segments_and_replay_spans_them() {
        let dir = temp_dir("rotate");
        let cfg = JournalConfig {
            fsync_every: 2,
            segment_max_records: 3,
        };
        let mut j = Journal::open(&dir, cfg).unwrap();
        for i in 0..8 {
            j.append(&format!("r{i}"), false).unwrap();
        }
        j.sync().unwrap();
        assert!(j.segment_count().unwrap() >= 2, "rotation must have happened");
        let (recs, report) = replayed(&dir);
        assert_eq!(recs.len(), 8);
        assert_eq!(recs[0], "r0");
        assert_eq!(recs[7], "r7");
        assert!(report.segments >= 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_replaces_history_atomically() {
        let dir = temp_dir("compact");
        let cfg = JournalConfig {
            fsync_every: 1,
            segment_max_records: 2,
        };
        let mut j = Journal::open(&dir, cfg).unwrap();
        for i in 0..7 {
            j.append(&format!("old{i}"), false).unwrap();
        }
        j.compact(&["live1".to_string(), "live2".to_string()]).unwrap();
        assert_eq!(j.segment_count().unwrap(), 1);
        j.append("new1", true).unwrap();
        let (recs, _) = replayed(&dir);
        assert_eq!(
            recs,
            vec!["live1".to_string(), "live2".to_string(), "new1".to_string()]
        );
        // No temp droppings.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "tmp")
            })
            .collect();
        assert!(stray.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn embedded_newlines_are_sanitized() {
        let dir = temp_dir("newline");
        let mut j = Journal::open(&dir, JournalConfig::default()).unwrap();
        j.append("a\nb", true).unwrap();
        let (recs, report) = replayed(&dir);
        assert_eq!(recs, vec!["a b".to_string()]);
        assert_eq!(report.skipped(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_resumes_in_latest_segment() {
        let dir = temp_dir("reopen");
        let cfg = JournalConfig {
            fsync_every: 1,
            segment_max_records: 100,
        };
        let mut j = Journal::open(&dir, cfg.clone()).unwrap();
        j.append("first", true).unwrap();
        drop(j);
        let mut j = Journal::open(&dir, cfg).unwrap();
        j.append("second", true).unwrap();
        assert_eq!(j.segment_count().unwrap(), 1);
        let (recs, _) = replayed(&dir);
        assert_eq!(recs, vec!["first".to_string(), "second".to_string()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The smallest state machine a `Wal` can carry: records are numbers,
    /// the state is the numbers seen, in order.
    #[derive(Debug, Clone, PartialEq)]
    struct Num(u64);

    impl WalEvent for Num {
        fn to_line(&self) -> String {
            format!("{{\"n\":{}}}", self.0)
        }
        fn parse(line: &str) -> Option<Num> {
            let digits = line.strip_prefix("{\"n\":")?.strip_suffix('}')?;
            digits.parse().ok().map(Num)
        }
        fn is_durable(&self) -> bool {
            true
        }
    }

    #[derive(Default)]
    struct Seen(Vec<u64>);

    impl WalState<Num> for Seen {
        fn apply(&mut self, ev: Num) {
            self.0.push(ev.0);
        }
        fn compacted(&self) -> Vec<Num> {
            self.0.iter().map(|n| Num(*n)).collect()
        }
    }

    fn recover(dir: &Path) -> (Wal<Num>, Vec<u64>, u64) {
        let (wal, seen, corrupt) =
            Wal::recover::<Seen>(dir, 8, Recorder::disabled(), "test.journal").unwrap();
        (wal, seen.0, corrupt)
    }

    /// The `J1` record corpus: every truncation of a three-record segment and
    /// every single-bit flip of its middle record. Recovery never panics,
    /// never invents a record, returns every record the damage did not touch
    /// in order, and counts every damaged line.
    #[test]
    fn damaged_segment_corpus_loses_only_what_the_damage_touched() {
        let dir = temp_dir("corpus");
        let written = [11u64, 22, 33];
        let (mut wal, _, _) = recover(&dir);
        for n in written {
            assert!(wal.append(&Num(n)));
        }
        drop(wal);
        let image = std::fs::read(segment_path(&dir, 1)).unwrap();
        // Offsets of each record's terminating newline.
        let newlines: Vec<usize> = (0..image.len()).filter(|i| image[*i] == b'\n').collect();
        assert_eq!(newlines.len(), 3);
        let recover_image = |damaged: &[u8]| {
            // Recovery compacts into a new segment, so start from scratch.
            std::fs::remove_dir_all(&dir).unwrap();
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(segment_path(&dir, 1), damaged).unwrap();
            let (_, seen, corrupt) = recover(&dir);
            (seen, corrupt)
        };

        for cut in 0..=image.len() {
            let (seen, corrupt) = recover_image(&image[..cut]);
            // A record survives once its payload is whole (the newline may
            // be missing); a line cut anywhere earlier is the torn tail.
            let intact = newlines.iter().filter(|nl| cut >= **nl).count();
            let begun = (cut > 0) as usize + newlines.iter().filter(|nl| cut > **nl + 1).count();
            assert_eq!(seen, written[..intact], "cut at {cut}");
            assert_eq!(corrupt as usize, begun - intact, "cut at {cut}");
        }

        let middle = newlines[0] + 1;
        let crc_field = middle + FRAME_TAG.len() + 1..middle + FRAME_TAG.len() + 9;
        for at in middle..=newlines[1] {
            for bit in 0..8 {
                let mut damaged = image.clone();
                damaged[at] ^= 1 << bit;
                let (seen, corrupt) = recover_image(&damaged);
                if at == newlines[1] {
                    // A flipped newline merges the record into its successor:
                    // one damaged line, both neighbours lost.
                    assert_eq!(seen, [11], "newline bit {bit}");
                    assert_eq!(corrupt, 1, "newline bit {bit}");
                } else if bit == 5 && crc_field.contains(&at) && image[at].is_ascii_alphabetic() {
                    // The one harmless flip: the case of a CRC hex letter.
                    assert_eq!(seen, written, "byte {at} bit {bit}");
                    assert_eq!(corrupt, 0, "byte {at} bit {bit}");
                } else {
                    // A byte flipped *into* a newline splits the record into
                    // two damaged lines.
                    let split = (damaged[at] == b'\n') as u64;
                    assert_eq!(seen, [11, 33], "byte {at} bit {bit}");
                    assert_eq!(corrupt, 1 + split, "byte {at} bit {bit}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
