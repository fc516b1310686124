//! The [`Communicator`] trait: the message-passing surface the distributed
//! engine and its recovery layer are written against, and nothing more.
//!
//! [`Comm`] is the real transport; [`ChaosComm`](crate::ChaosComm)
//! wraps it with deterministic fault injection. Making the engine generic over
//! this trait means resilience tests exercise the *production* solver code
//! path — no special-casing, no test-only forks of the halo exchange.
//!
//! The trait has no barrier: a barrier cannot time out, so one dead rank
//! would hang every live one. The recovery protocol synchronizes only through
//! deadline-aware receives and reductions.

use crate::comm::{Comm, CommError, Tag};
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
    /// Buffered send from a borrowed slice. The default copies into a fresh
    /// vector and routes through [`Communicator::send`], so wrappers that
    /// intercept `send` (fault injection, tracing) see buffered traffic too;
    /// transports override it to recycle payload buffers.
    fn send_buffered(&self, dst: usize, tag: Tag, data: &[f64]) -> Result<(), CommError> {
        self.send(dst, tag, data.to_vec())
    }
    /// Blocking receive with a per-call deadline into a caller-owned buffer
    /// (cleared first); [`CommError::Timeout`] on expiry.
    fn recv_deadline_buffered(
        &self,
        src: usize,
        tag: Tag,
        timeout: Duration,
        out: &mut Vec<f64>,
    ) -> Result<(), CommError>;
    /// Element-wise sum across all ranks; every rank receives the result.
    fn allreduce_sum(&self, data: &[f64]) -> Result<Vec<f64>, CommError>;
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
    fn send_buffered(&self, dst: usize, tag: Tag, data: &[f64]) -> Result<(), CommError> {
        Comm::send_buffered(self, dst, tag, data)
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
    fn allreduce_sum(&self, data: &[f64]) -> Result<Vec<f64>, CommError> {
        Comm::allreduce_sum(self, data)
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
