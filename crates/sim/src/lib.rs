//! # swlb-sim — the distributed simulation engine
//!
//! This crate assembles the substrates into the paper's solver architecture
//! (§IV-C.1): a 2-D (x, y) domain decomposition with **full-z pencils**, one
//! rank per core group, halo exchange with up to 8 neighbors, and two execution
//! schedules —
//!
//! * [`engine::ExchangeMode::Sequential`]: exchange all halos, then compute
//!   (the paper's original implementation, Fig. 6(1));
//! * [`engine::ExchangeMode::OnTheFly`]: post the exchanges, compute the inner
//!   domain while messages fly, then finish the boundary ring (the paper's
//!   on-the-fly scheme, Fig. 6(2) / Fig. 9(2)).
//!
//! Both schedules are verified bit-identical to each other and to the
//! single-domain reference solver, for any rank count.
//!
//! Checkpoints are rank-count independent: a capture packs each rank's owned
//! interior as one chunk and sends it to rank 0 point to point (the paper's
//! group write, §IV-B, with the world as one group), and a restore lands each
//! rank's rectangle from whatever chunks overlap it and sends it back the
//! same way; [`resilience`] rolls back through that pair.
//!
//! The crate also provides momentum-exchange force evaluation ([`forces`]) for
//! drag/lift observables and the case catalogue ([`cases`]).

// Indexed loops mirror the stencil mathematics throughout this workspace and
// are kept deliberately as the clearer idiom for this domain.
#![allow(clippy::needless_range_loop)]

pub mod cases;
pub mod engine;
pub mod forces;
pub mod partition;
pub mod resilience;

pub use cases::{CaseKind, CaseSolver, CaseSpec, LatticeKind};
pub use engine::{DistributedSolver, DistributedSolverBuilder, ExchangeMode, HaloRetry};
pub use forces::momentum_exchange_force;
pub use partition::Partition2d;
pub use resilience::{
    run_with_recovery, run_with_recovery_instrumented, RecoveryPolicy, RecoveryReport,
};

/// Convenient re-exports for driving a distributed run: both solver builders
/// (shared-memory [`swlb_core::solver::SolverBuilder`] and distributed
/// [`DistributedSolverBuilder`]), the recovery layer, and the observability
/// facade.
pub mod prelude {
    pub use crate::engine::{DistributedSolver, DistributedSolverBuilder, ExchangeMode, HaloRetry};
    pub use crate::partition::Partition2d;
    pub use crate::resilience::{
        run_with_recovery, run_with_recovery_instrumented, RecoveryPolicy, RecoveryReport,
    };
    pub use swlb_core::solver::{Solver, SolverBuilder};
    pub use swlb_obs::{JsonlSink, Phase, Recorder, SummarySink, SwlbError, SwlbResult};
}
