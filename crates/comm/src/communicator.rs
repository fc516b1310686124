//! The [`Communicator`] trait: the message-passing surface the distributed
//! engine is written against.
//!
//! [`Comm`] is the real transport; [`ChaosComm`](crate::ChaosComm)
//! wraps it with deterministic fault injection. Making the engine generic over
//! this trait means resilience tests exercise the *production* solver code
//! path — no special-casing, no test-only forks of the halo exchange.

use crate::comm::{Comm, CommError, RecvRequest, Tag};
use std::time::Duration;

/// MPI-flavoured communicator operations used by the distributed solver.
///
/// Semantics match [`Comm`]'s inherent methods; see their docs for the
/// matching rules (FIFO per `(src, tag)`, unexpected-message stash, reserved
/// collective tags).
pub trait Communicator {
    /// This rank's id in `0..size`.
    fn rank(&self) -> usize;
    /// Number of ranks in the world.
    fn size(&self) -> usize;
    /// Buffered (non-blocking) send of an `f64` payload.
    fn send(&self, dst: usize, tag: Tag, data: Vec<f64>) -> Result<(), CommError>;
    /// Blocking receive matching `(src, tag)`.
    fn recv(&self, src: usize, tag: Tag) -> Result<Vec<f64>, CommError>;
    /// Blocking receive with a per-call deadline; [`CommError::Timeout`] on
    /// expiry.
    fn recv_deadline(&self, src: usize, tag: Tag, timeout: Duration)
        -> Result<Vec<f64>, CommError>;
    /// Buffered send from a borrowed slice. The default copies into a fresh
    /// vector and routes through [`Communicator::send`], so wrappers that
    /// intercept `send` (fault injection, tracing) see buffered traffic too;
    /// transports override it to recycle payload buffers.
    fn send_buffered(&self, dst: usize, tag: Tag, data: &[f64]) -> Result<(), CommError> {
        self.send(dst, tag, data.to_vec())
    }
    /// Blocking receive into a caller-owned buffer (cleared first). Default
    /// delegates to [`Communicator::recv`]; transports override it to recycle
    /// the delivered vector.
    fn recv_buffered(&self, src: usize, tag: Tag, out: &mut Vec<f64>) -> Result<(), CommError> {
        let data = self.recv(src, tag)?;
        out.clear();
        out.extend_from_slice(&data);
        Ok(())
    }
    /// [`Communicator::recv_deadline`] into a caller-owned buffer (cleared
    /// first). Default delegates; transports override it to recycle the
    /// delivered vector.
    fn recv_deadline_buffered(
        &self,
        src: usize,
        tag: Tag,
        timeout: Duration,
        out: &mut Vec<f64>,
    ) -> Result<(), CommError> {
        let data = self.recv_deadline(src, tag, timeout)?;
        out.clear();
        out.extend_from_slice(&data);
        Ok(())
    }
    /// Post a non-blocking receive completed by [`Communicator::wait`].
    fn irecv(&self, src: usize, tag: Tag) -> Result<RecvRequest, CommError>;
    /// Complete a posted receive.
    fn wait(&self, req: RecvRequest) -> Result<Vec<f64>, CommError>;
    /// Non-blocking probe for a matching message.
    fn probe(&self, src: usize, tag: Tag) -> Result<bool, CommError>;
    /// Synchronize all ranks. Unsafe to call when a rank may have died; the
    /// resilient paths use deadline-aware collectives instead.
    fn barrier(&self);
    /// Element-wise sum across all ranks; every rank receives the result.
    fn allreduce_sum(&self, data: &[f64]) -> Result<Vec<f64>, CommError>;
    /// Element-wise max across all ranks; every rank receives the result.
    fn allreduce_max(&self, data: &[f64]) -> Result<Vec<f64>, CommError>;
    /// Gather every rank's payload at rank 0 (ordered by rank).
    fn gather_to_root(&self, data: &[f64]) -> Result<Vec<Vec<f64>>, CommError>;
    /// Broadcast rank 0's payload to everyone.
    fn broadcast(&self, data: &[f64]) -> Result<Vec<f64>, CommError>;
    /// Apply (or clear) a deadline to every subsequent blocking receive.
    fn set_op_timeout(&self, timeout: Option<Duration>);
    /// The currently configured operation deadline.
    fn op_timeout(&self) -> Option<Duration>;
    /// Hook invoked by the engine at the start of logical step `step`.
    ///
    /// The production transport ignores it; fault-injecting wrappers use it to
    /// trigger step-scheduled faults (rank kill / stall) without the engine
    /// special-casing them.
    fn notify_step(&self, step: u64) {
        let _ = step;
    }
}

impl Communicator for Comm {
    fn rank(&self) -> usize {
        Comm::rank(self)
    }
    fn size(&self) -> usize {
        Comm::size(self)
    }
    fn send(&self, dst: usize, tag: Tag, data: Vec<f64>) -> Result<(), CommError> {
        Comm::send(self, dst, tag, data)
    }
    fn recv(&self, src: usize, tag: Tag) -> Result<Vec<f64>, CommError> {
        Comm::recv(self, src, tag)
    }
    fn recv_deadline(
        &self,
        src: usize,
        tag: Tag,
        timeout: Duration,
    ) -> Result<Vec<f64>, CommError> {
        Comm::recv_deadline(self, src, tag, timeout)
    }
    fn send_buffered(&self, dst: usize, tag: Tag, data: &[f64]) -> Result<(), CommError> {
        Comm::send_buffered(self, dst, tag, data)
    }
    fn recv_buffered(&self, src: usize, tag: Tag, out: &mut Vec<f64>) -> Result<(), CommError> {
        Comm::recv_buffered(self, src, tag, out)
    }
    fn recv_deadline_buffered(
        &self,
        src: usize,
        tag: Tag,
        timeout: Duration,
        out: &mut Vec<f64>,
    ) -> Result<(), CommError> {
        Comm::recv_deadline_buffered(self, src, tag, timeout, out)
    }
    fn irecv(&self, src: usize, tag: Tag) -> Result<RecvRequest, CommError> {
        Comm::irecv(self, src, tag)
    }
    fn wait(&self, req: RecvRequest) -> Result<Vec<f64>, CommError> {
        Comm::wait(self, req)
    }
    fn probe(&self, src: usize, tag: Tag) -> Result<bool, CommError> {
        Comm::probe(self, src, tag)
    }
    fn barrier(&self) {
        Comm::barrier(self)
    }
    fn allreduce_sum(&self, data: &[f64]) -> Result<Vec<f64>, CommError> {
        Comm::allreduce_sum(self, data)
    }
    fn allreduce_max(&self, data: &[f64]) -> Result<Vec<f64>, CommError> {
        Comm::allreduce_max(self, data)
    }
    fn gather_to_root(&self, data: &[f64]) -> Result<Vec<Vec<f64>>, CommError> {
        Comm::gather_to_root(self, data)
    }
    fn broadcast(&self, data: &[f64]) -> Result<Vec<f64>, CommError> {
        Comm::broadcast(self, data)
    }
    fn set_op_timeout(&self, timeout: Option<Duration>) {
        Comm::set_op_timeout(self, timeout)
    }
    fn op_timeout(&self) -> Option<Duration> {
        Comm::op_timeout(self)
    }
}
