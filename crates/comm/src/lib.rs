//! # swlb-comm — message-passing substrate
//!
//! SunwayLB parallelizes across MPI processes (one per core group, up to 160,000
//! on TaihuLight). This crate provides the equivalent abstraction for the
//! reproduction: an MPI-flavoured communicator where **each rank is a thread** and
//! messages travel over in-process channels. The distributed engine in `swlb-sim`
//! is written against [`Communicator`], which [`Comm`] implements, exactly as
//! the paper's solver is written against MPI: point-to-point send/recv with
//! tags (buffered sends let the on-the-fly halo exchange compute while its
//! strips fly, and carry checkpoint chunks to rank 0 and back), deadline-aware
//! receives, and reductions and a broadcast for diagnostics and recovery.
//!
//! Running ranks as threads keeps the halo-exchange, overlap and decomposition
//! logic *real* (actual concurrency, actual message reordering) while staying on
//! one machine. Scaling beyond the host's cores is handled analytically by
//! [`netmodel`], which models TaihuLight's supernode + fat-tree interconnect.

// Indexed loops mirror the stencil mathematics throughout this workspace and
// are kept deliberately as the clearer idiom for this domain.
#![allow(clippy::needless_range_loop)]

pub mod cart;
pub mod comm;
pub mod communicator;
pub mod fault;
pub mod frame;
pub mod netmodel;

pub use cart::Cart2d;
pub use frame::{
    body_crc, check_frame, frame_crc, frame_from_bytes, frame_to_bytes, seal_frame, FrameCheck,
    FRAME_HEADER,
};
pub use comm::{Comm, CommError, Message, Tag, World};
pub use communicator::Communicator;
pub use fault::{ChaosComm, FaultAction, FaultEvent, FaultPlan, FaultRecord, FaultSpec};
pub use netmodel::{CollectiveKind, NetworkModel};
