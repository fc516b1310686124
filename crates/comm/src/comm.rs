//! The rank-per-thread communicator.
//!
//! Semantics mirror the MPI subset SunwayLB uses:
//!
//! * `send` is buffered and never blocks (channels are unbounded) — this matches
//!   the eager protocol of small/medium MPI messages and is what makes the
//!   on-the-fly halo exchange's sends trivially non-blocking: a rank posts its
//!   strips, computes its inner domain, then receives.
//! * `recv(src, tag)` matches on *both* source and tag; out-of-order arrivals are
//!   stashed in a per-rank unexpected-message queue, exactly like an MPI
//!   implementation's unexpected queue. Messages of one `(src, tag)` stay FIFO.
//! * Collectives (`allreduce_sum`, `allreduce_max`, `broadcast`) are built from
//!   point-to-point messages over reserved tags; `barrier` is a shared
//!   `std::sync::Barrier`.

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Message tag. User tags must stay below [`ReservedTags::RESERVED_BASE`].
pub type Tag = u64;

/// Namespace helpers for reserved (internal) tags.
pub struct ReservedTags;

impl ReservedTags {
    /// First reserved tag; user tags must be `< RESERVED_BASE`.
    pub const RESERVED_BASE: Tag = 1 << 60;
    const REDUCE: Tag = Self::RESERVED_BASE;
    const BCAST: Tag = Self::RESERVED_BASE + 1;
}

/// Errors surfaced by communicator misuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// Destination or source rank out of range.
    RankOutOfRange {
        /// Offending rank.
        rank: usize,
        /// Communicator size.
        size: usize,
    },
    /// A user tag collided with the reserved range.
    ReservedTag(Tag),
    /// The peer ranks have all exited and the message can never arrive.
    Disconnected,
    /// A receive deadline expired with no matching message. `attempts` counts
    /// how many times the operation was tried before escalating (the transport
    /// reports 1; retrying layers overwrite it with their final count).
    Timeout {
        /// Peer rank the receive was matching.
        rank: usize,
        /// Tag the receive was matching.
        tag: Tag,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A message arrived but failed its integrity check (payload checksum or
    /// framing). Produced by checksummed protocols layered on the transport.
    Corrupt {
        /// Peer rank the message came from.
        rank: usize,
        /// Tag the message carried.
        tag: Tag,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::RankOutOfRange { rank, size } => {
                write!(
                    f,
                    "rank {rank} out of range for communicator of size {size}"
                )
            }
            CommError::ReservedTag(t) => write!(f, "tag {t} lies in the reserved range"),
            CommError::Disconnected => write!(f, "all peers disconnected"),
            CommError::Timeout {
                rank,
                tag,
                attempts,
            } => write!(
                f,
                "receive from rank {rank} tag {tag} timed out after {attempts} attempt(s)"
            ),
            CommError::Corrupt { rank, tag } => {
                write!(
                    f,
                    "message from rank {rank} tag {tag} failed its integrity check"
                )
            }
        }
    }
}

impl std::error::Error for CommError {}

impl From<CommError> for swlb_obs::SwlbError {
    fn from(e: CommError) -> Self {
        use swlb_obs::SwlbError as E;
        match e {
            CommError::RankOutOfRange { rank, size } => E::RankOutOfRange { rank, size },
            CommError::ReservedTag(t) => E::ReservedTag(t),
            CommError::Disconnected => E::Disconnected,
            CommError::Timeout {
                rank,
                tag,
                attempts,
            } => E::CommTimeout {
                rank,
                tag,
                attempts,
            },
            CommError::Corrupt { rank, tag } => E::CommCorrupt { rank, tag },
        }
    }
}

/// Freelist of payload buffers shared by every rank in a [`World`].
///
/// `send_buffered` takes a recycled `Vec` instead of allocating one per
/// message, and the matching `*_buffered` receives return the delivered
/// vector here once its contents have been copied out. After a warm-up
/// period every buffer in flight has the capacity of the largest payload it
/// ever carried, and the steady-state halo exchange stops touching the heap.
pub(crate) struct BufferPool {
    free: Mutex<Vec<Vec<f64>>>,
}

impl BufferPool {
    /// Retention cap: enough for every (rank, direction) pairing of a modest
    /// world to have a buffer in flight plus slack, while bounding the memory
    /// a burst (e.g. a duplicate-heavy chaos run) can pin.
    const MAX_RETAINED: usize = 64;

    fn new() -> Self {
        BufferPool {
            free: Mutex::new(Vec::new()),
        }
    }

    /// Prefer a buffer that can already hold `min_capacity` elements: halo
    /// traffic mixes payload sizes (edge strips vs corner cells), and reusing
    /// a corner-sized buffer for an edge strip would reallocate every time.
    /// A growth therefore only happens when no free buffer is big enough,
    /// which permanently adds one more large buffer — the population
    /// converges and the steady state stops allocating.
    fn take(&self, min_capacity: usize) -> Vec<f64> {
        let mut free = self.free.lock().unwrap();
        if let Some(i) = free.iter().position(|b| b.capacity() >= min_capacity) {
            return free.swap_remove(i);
        }
        free.pop().unwrap_or_default()
    }

    fn put(&self, mut buf: Vec<f64>) {
        buf.clear();
        let mut free = self.free.lock().unwrap();
        if free.len() < Self::MAX_RETAINED {
            free.push(buf);
        }
    }
}

/// An in-flight message: `f64` payload plus routing metadata.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sending rank.
    pub src: usize,
    /// User or reserved tag.
    pub tag: Tag,
    /// Payload (population values, reduced scalars, …).
    pub data: Vec<f64>,
}

/// Per-rank communicator endpoint. Not `Sync`: each rank thread owns its own.
pub struct Comm {
    rank: usize,
    size: usize,
    senders: Arc<Vec<Sender<Message>>>,
    rx: Receiver<Message>,
    /// MPI-style unexpected-message queue.
    stash: RefCell<Vec<Message>>,
    barrier: Arc<Barrier>,
    /// Deadline applied to every blocking receive, including the receives
    /// inside collectives. `None` blocks forever (the historical behavior).
    op_timeout: Cell<Option<Duration>>,
    /// World-wide payload freelist backing the `*_buffered` operations.
    pool: Arc<BufferPool>,
}

impl Comm {
    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    fn check_rank(&self, rank: usize) -> Result<(), CommError> {
        if rank >= self.size {
            Err(CommError::RankOutOfRange {
                rank,
                size: self.size,
            })
        } else {
            Ok(())
        }
    }

    fn check_tag(tag: Tag) -> Result<(), CommError> {
        if tag >= ReservedTags::RESERVED_BASE {
            Err(CommError::ReservedTag(tag))
        } else {
            Ok(())
        }
    }

    fn send_raw(&self, dst: usize, tag: Tag, data: Vec<f64>) -> Result<(), CommError> {
        self.check_rank(dst)?;
        self.senders[dst]
            .send(Message {
                src: self.rank,
                tag,
                data,
            })
            .map_err(|_| CommError::Disconnected)
    }

    fn take_stashed(&self, src: usize, tag: Tag) -> Option<Vec<f64>> {
        let mut stash = self.stash.borrow_mut();
        // `remove`, not `swap_remove`: same-(src, tag) messages from
        // successive steps must stay FIFO, or a fast neighbor's step
        // t+1 strip could be consumed before its step t strip.
        stash
            .iter()
            .position(|m| m.src == src && m.tag == tag)
            .map(|pos| stash.remove(pos).data)
    }

    fn recv_raw(&self, src: usize, tag: Tag) -> Result<Vec<f64>, CommError> {
        self.check_rank(src)?;
        // First look in the unexpected queue.
        if let Some(data) = self.take_stashed(src, tag) {
            return Ok(data);
        }
        if let Some(timeout) = self.op_timeout.get() {
            return self.recv_until(src, tag, Instant::now() + timeout);
        }
        // Then drain the channel, stashing mismatches.
        loop {
            let msg = self.rx.recv().map_err(|_| CommError::Disconnected)?;
            if msg.src == src && msg.tag == tag {
                return Ok(msg.data);
            }
            self.stash.borrow_mut().push(msg);
        }
    }

    /// Channel-draining receive that gives up at `deadline`.
    fn recv_until(&self, src: usize, tag: Tag, deadline: Instant) -> Result<Vec<f64>, CommError> {
        loop {
            match self.rx.recv_deadline(deadline) {
                Ok(msg) => {
                    if msg.src == src && msg.tag == tag {
                        return Ok(msg.data);
                    }
                    self.stash.borrow_mut().push(msg);
                }
                Err(RecvTimeoutError::Timeout) => {
                    return Err(CommError::Timeout {
                        rank: src,
                        tag,
                        attempts: 1,
                    })
                }
                Err(RecvTimeoutError::Disconnected) => return Err(CommError::Disconnected),
            }
        }
    }

    /// Buffered (non-blocking) send of an `f64` payload.
    pub fn send(&self, dst: usize, tag: Tag, data: Vec<f64>) -> Result<(), CommError> {
        Self::check_tag(tag)?;
        self.send_raw(dst, tag, data)
    }

    /// Blocking receive matching `(src, tag)`.
    pub fn recv(&self, src: usize, tag: Tag) -> Result<Vec<f64>, CommError> {
        Self::check_tag(tag)?;
        self.recv_raw(src, tag)
    }

    /// Blocking receive with an explicit per-call deadline, overriding any
    /// communicator-wide [`Comm::set_op_timeout`]. Returns
    /// [`CommError::Timeout`] if no matching message arrives in time.
    pub fn recv_deadline(
        &self,
        src: usize,
        tag: Tag,
        timeout: Duration,
    ) -> Result<Vec<f64>, CommError> {
        Self::check_tag(tag)?;
        self.check_rank(src)?;
        if let Some(data) = self.take_stashed(src, tag) {
            return Ok(data);
        }
        self.recv_until(src, tag, Instant::now() + timeout)
    }

    /// Buffered send that draws its payload vector from the world's freelist
    /// instead of requiring the caller to allocate one. Together with the
    /// `*_buffered` receives this makes the steady-state halo exchange
    /// allocation-free once buffer capacities have stabilized.
    pub fn send_buffered(&self, dst: usize, tag: Tag, data: &[f64]) -> Result<(), CommError> {
        Self::check_tag(tag)?;
        let mut buf = self.pool.take(data.len());
        buf.extend_from_slice(data);
        self.send_raw(dst, tag, buf)
    }

    /// Blocking receive that copies the payload into `out` (cleared first)
    /// and recycles the delivered vector into the world's freelist.
    pub fn recv_buffered(&self, src: usize, tag: Tag, out: &mut Vec<f64>) -> Result<(), CommError> {
        Self::check_tag(tag)?;
        let data = self.recv_raw(src, tag)?;
        out.clear();
        out.extend_from_slice(&data);
        self.pool.put(data);
        Ok(())
    }

    /// [`Comm::recv_deadline`] into a caller-owned buffer; the delivered
    /// vector is recycled into the world's freelist.
    pub fn recv_deadline_buffered(
        &self,
        src: usize,
        tag: Tag,
        timeout: Duration,
        out: &mut Vec<f64>,
    ) -> Result<(), CommError> {
        Self::check_tag(tag)?;
        self.check_rank(src)?;
        let data = match self.take_stashed(src, tag) {
            Some(d) => d,
            None => self.recv_until(src, tag, Instant::now() + timeout)?,
        };
        out.clear();
        out.extend_from_slice(&data);
        self.pool.put(data);
        Ok(())
    }

    /// Apply (or with `None` clear) a deadline to every subsequent blocking
    /// receive, including the receives inside collectives. A timed-out
    /// operation returns [`CommError::Timeout`] instead of hanging — the knob
    /// that makes collectives survivable when a peer rank has died.
    pub fn set_op_timeout(&self, timeout: Option<Duration>) {
        self.op_timeout.set(timeout);
    }

    /// The currently configured operation deadline, if any.
    pub fn op_timeout(&self) -> Option<Duration> {
        self.op_timeout.get()
    }

    /// Synchronize all ranks.
    pub fn barrier(&self) {
        self.barrier.wait();
    }

    /// Element-wise sum across all ranks; every rank receives the result.
    /// Implemented as reduce-to-root + broadcast (the shape of a small MPI).
    pub fn allreduce_sum(&self, data: &[f64]) -> Result<Vec<f64>, CommError> {
        self.allreduce_with(data, |acc, x| *acc += x)
    }

    /// Element-wise max across all ranks; every rank receives the result.
    pub fn allreduce_max(&self, data: &[f64]) -> Result<Vec<f64>, CommError> {
        self.allreduce_with(data, |acc, x| {
            if x > *acc {
                *acc = x
            }
        })
    }

    fn allreduce_with(
        &self,
        data: &[f64],
        mut op: impl FnMut(&mut f64, f64),
    ) -> Result<Vec<f64>, CommError> {
        if self.size == 1 {
            return Ok(data.to_vec());
        }
        if self.rank == 0 {
            let mut acc = data.to_vec();
            // Fold in rank order, not arrival order: per-(src, tag) FIFO then
            // guarantees successive reduction rounds cannot mix (a fast rank's
            // round-k+1 contribution can never be consumed as round k), and
            // floating-point reductions become bit-reproducible across runs.
            for src in 1..self.size {
                let data = self.recv_raw(src, ReservedTags::REDUCE)?;
                debug_assert_eq!(data.len(), acc.len(), "reduce contribution length mismatch");
                for (a, &x) in acc.iter_mut().zip(data.iter()) {
                    op(a, x);
                }
            }
            for dst in 1..self.size {
                self.send_raw(dst, ReservedTags::BCAST, acc.clone())?;
            }
            Ok(acc)
        } else {
            self.send_raw(0, ReservedTags::REDUCE, data.to_vec())?;
            self.recv_raw(0, ReservedTags::BCAST)
        }
    }

    /// Broadcast rank 0's payload to everyone.
    pub fn broadcast(&self, data: &[f64]) -> Result<Vec<f64>, CommError> {
        if self.size == 1 {
            return Ok(data.to_vec());
        }
        if self.rank == 0 {
            for dst in 1..self.size {
                self.send_raw(dst, ReservedTags::BCAST, data.to_vec())?;
            }
            Ok(data.to_vec())
        } else {
            self.recv_raw(0, ReservedTags::BCAST)
        }
    }
}

/// A world of `size` rank threads.
pub struct World {
    size: usize,
}

impl World {
    /// Create a world with `size` ranks (≥ 1).
    pub fn new(size: usize) -> Self {
        assert!(size >= 1, "world size must be at least 1");
        Self { size }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// One connected endpoint per rank, in rank order: the only place a
    /// [`Comm`] is constructed.
    fn endpoints(&self) -> Vec<Comm> {
        let size = self.size;
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..size).map(|_| unbounded()).unzip();
        let senders = Arc::new(senders);
        let barrier = Arc::new(Barrier::new(size));
        let pool = Arc::new(BufferPool::new());
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, rx)| Comm {
                rank,
                size,
                senders: Arc::clone(&senders),
                rx,
                stash: RefCell::new(Vec::new()),
                barrier: Arc::clone(&barrier),
                op_timeout: Cell::new(None),
                pool: Arc::clone(&pool),
            })
            .collect()
    }

    /// Run `f` on every rank concurrently and return the per-rank results,
    /// ordered by rank. Panics in any rank propagate (fail-fast, like an MPI
    /// abort).
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Comm) -> T + Sync,
    {
        let size = self.size;
        let mut results: Vec<Option<T>> = (0..size).map(|_| None).collect();
        crossbeam::scope(|scope| {
            let mut handles = Vec::with_capacity(size);
            for comm in self.endpoints() {
                let f = &f;
                handles.push(scope.spawn(move |_| f(comm)));
            }
            for (rank, h) in handles.into_iter().enumerate() {
                results[rank] = Some(h.join().expect("rank thread panicked"));
            }
        })
        .expect("world scope failed");
        results
            .into_iter()
            .map(|r| r.expect("missing rank result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_world_runs() {
        let out = World::new(1).run(|c| {
            assert_eq!(c.rank(), 0);
            assert_eq!(c.size(), 1);
            c.allreduce_sum(&[2.0]).unwrap()[0]
        });
        assert_eq!(out, vec![2.0]);
    }

    #[test]
    fn point_to_point_roundtrip() {
        let out = World::new(2).run(|c| {
            if c.rank() == 0 {
                c.send(1, 7, vec![1.0, 2.0, 3.0]).unwrap();
                c.recv(1, 8).unwrap()
            } else {
                let got = c.recv(0, 7).unwrap();
                c.send(0, 8, got.iter().map(|x| x * 10.0).collect())
                    .unwrap();
                vec![]
            }
        });
        assert_eq!(out[0], vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn tag_matching_reorders_messages() {
        // Rank 0 sends tag 2 then tag 1; rank 1 receives tag 1 first. The
        // unexpected-queue must hold the tag-2 message meanwhile.
        let out = World::new(2).run(|c| {
            if c.rank() == 0 {
                c.send(1, 2, vec![222.0]).unwrap();
                c.send(1, 1, vec![111.0]).unwrap();
                vec![]
            } else {
                let first = c.recv(0, 1).unwrap();
                let second = c.recv(0, 2).unwrap();
                vec![first[0], second[0]]
            }
        });
        assert_eq!(out[1], vec![111.0, 222.0]);
    }

    #[test]
    fn source_matching_with_multiple_peers() {
        let out = World::new(3).run(|c| match c.rank() {
            0 => {
                // Receive from rank 2 first even though rank 1's message may
                // arrive earlier.
                let a = c.recv(2, 5).unwrap();
                let b = c.recv(1, 5).unwrap();
                vec![a[0], b[0]]
            }
            r => {
                c.send(0, 5, vec![r as f64]).unwrap();
                vec![]
            }
        });
        assert_eq!(out[0], vec![2.0, 1.0]);
    }

    #[test]
    fn allreduce_sum_and_max() {
        let out = World::new(4).run(|c| {
            let r = c.rank() as f64;
            let sum = c.allreduce_sum(&[r, 1.0]).unwrap();
            let max = c.allreduce_max(&[r]).unwrap();
            (sum, max)
        });
        for (sum, max) in &out {
            assert_eq!(sum, &vec![6.0, 4.0]);
            assert_eq!(max, &vec![3.0]);
        }
    }

    #[test]
    fn broadcast_distributes_root_payload() {
        let out = World::new(3).run(|c| {
            let data = if c.rank() == 0 {
                vec![9.0, 8.0]
            } else {
                vec![]
            };
            c.broadcast(&data).unwrap()
        });
        for d in &out {
            assert_eq!(d, &vec![9.0, 8.0]);
        }
    }

    #[test]
    fn reserved_tags_are_rejected() {
        World::new(1).run(|c| {
            let e = c.send(0, ReservedTags::RESERVED_BASE, vec![]).unwrap_err();
            assert!(matches!(e, CommError::ReservedTag(_)));
            let e = c.recv(0, ReservedTags::RESERVED_BASE + 5).unwrap_err();
            assert!(matches!(e, CommError::ReservedTag(_)));
        });
    }

    #[test]
    fn out_of_range_ranks_are_rejected() {
        World::new(2).run(|c| {
            let e = c.send(5, 1, vec![]).unwrap_err();
            assert_eq!(e, CommError::RankOutOfRange { rank: 5, size: 2 });
            let e = c.recv(9, 1).unwrap_err();
            assert_eq!(e, CommError::RankOutOfRange { rank: 9, size: 2 });
        });
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        World::new(4).run(|c| {
            counter.fetch_add(1, Ordering::SeqCst);
            c.barrier();
            // After the barrier every rank must see all 4 increments.
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn same_key_messages_stay_fifo_through_the_stash() {
        // Regression test: rank 0 sends three messages on tag 9 interleaved
        // with tag-8 traffic; rank 1 first receives tag 8 (stashing the tag-9
        // messages), then drains tag 9 — which must come back in send order.
        // A `swap_remove`-based stash broke this and desynchronized the halo
        // exchange once ranks drifted a step apart.
        let out = World::new(2).run(|c| {
            if c.rank() == 0 {
                c.send(1, 9, vec![1.0]).unwrap();
                c.send(1, 9, vec![2.0]).unwrap();
                c.send(1, 8, vec![0.0]).unwrap();
                c.send(1, 9, vec![3.0]).unwrap();
                vec![]
            } else {
                let _ = c.recv(0, 8).unwrap(); // forces the tag-9s into the stash
                let a = c.recv(0, 9).unwrap()[0];
                let b = c.recv(0, 9).unwrap()[0];
                let d = c.recv(0, 9).unwrap()[0];
                vec![a, b, d]
            }
        });
        assert_eq!(out[1], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn recv_deadline_times_out_with_typed_error() {
        World::new(2).run(|c| {
            if c.rank() == 0 {
                let e = c
                    .recv_deadline(1, 7, Duration::from_millis(10))
                    .unwrap_err();
                assert_eq!(
                    e,
                    CommError::Timeout {
                        rank: 1,
                        tag: 7,
                        attempts: 1
                    }
                );
            }
            c.barrier();
        });
    }

    #[test]
    fn recv_deadline_delivers_delayed_message() {
        let out = World::new(2).run(|c| {
            if c.rank() == 0 {
                c.recv_deadline(1, 3, Duration::from_secs(5)).unwrap()
            } else {
                std::thread::sleep(Duration::from_millis(20));
                c.send(0, 3, vec![7.0]).unwrap();
                vec![]
            }
        });
        assert_eq!(out[0], vec![7.0]);
    }

    #[test]
    fn recv_deadline_finds_stashed_message_instantly() {
        let out = World::new(2).run(|c| {
            if c.rank() == 0 {
                // Force tag 9 into the stash by receiving tag 8 first.
                let _ = c.recv(1, 8).unwrap();
                c.recv_deadline(1, 9, Duration::ZERO).unwrap()
            } else {
                c.send(0, 9, vec![4.0]).unwrap();
                c.send(0, 8, vec![0.0]).unwrap();
                vec![]
            }
        });
        assert_eq!(out[0], vec![4.0]);
    }

    #[test]
    fn op_timeout_unblocks_point_to_point_and_collectives() {
        // Rank 1 exits without participating; with an op timeout set, rank 0's
        // recv and allreduce must surface Timeout instead of hanging forever.
        let out = World::new(2).run(|c| {
            if c.rank() == 0 {
                c.set_op_timeout(Some(Duration::from_millis(10)));
                let p2p = c.recv(1, 5).unwrap_err();
                assert_eq!(
                    p2p,
                    CommError::Timeout {
                        rank: 1,
                        tag: 5,
                        attempts: 1
                    }
                );
                let coll = c.allreduce_sum(&[1.0]).unwrap_err();
                assert!(matches!(coll, CommError::Timeout { rank: 1, .. }));
                c.set_op_timeout(None);
                assert_eq!(c.op_timeout(), None);
                true
            } else {
                true
            }
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn buffered_roundtrip_recycles_payloads() {
        // Exercise send_buffered / recv_buffered / recv_deadline_buffered over
        // several rounds: the same caller-owned `out` buffer is reused, and
        // mixing buffered with unbuffered traffic must not confuse matching.
        let out = World::new(2).run(|c| {
            let mut buf = Vec::new();
            if c.rank() == 0 {
                for round in 0..8 {
                    c.send_buffered(1, 7, &[round as f64, 1.0, 2.0]).unwrap();
                    c.recv_buffered(1, 8, &mut buf).unwrap();
                    assert_eq!(buf, vec![round as f64 * 10.0]);
                }
                c.send(1, 9, vec![99.0]).unwrap();
                buf.clone()
            } else {
                for _ in 0..8 {
                    c.recv_deadline_buffered(0, 7, Duration::from_secs(5), &mut buf)
                        .unwrap();
                    assert_eq!(buf.len(), 3);
                    c.send_buffered(0, 8, &[buf[0] * 10.0]).unwrap();
                }
                // An unbuffered recv still sees buffered-era stash state.
                c.recv(0, 9).unwrap()
            }
        });
        assert_eq!(out[0], vec![70.0]);
        assert_eq!(out[1], vec![99.0]);
    }

    #[test]
    fn heavy_traffic_multi_neighbor_exchange() {
        // Every rank sends to every other rank; all messages must be matched
        // correctly by (src, tag).
        let n = 5;
        let out = World::new(n).run(|c| {
            for dst in 0..n {
                if dst != c.rank() {
                    c.send(dst, 10 + c.rank() as u64, vec![c.rank() as f64; 8])
                        .unwrap();
                }
            }
            let mut sum = 0.0;
            for src in 0..n {
                if src != c.rank() {
                    let d = c.recv(src, 10 + src as u64).unwrap();
                    assert_eq!(d.len(), 8);
                    sum += d[0];
                }
            }
            sum
        });
        let expect: f64 = (0..n).map(|r| r as f64).sum();
        for (rank, s) in out.iter().enumerate() {
            assert_eq!(*s, expect - rank as f64);
        }
    }
}
