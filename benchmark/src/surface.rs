//! The only file of the benchmark that names a `swlb_*` crate.
//!
//! Everything the harness drives is listed here once, so a later refactor has
//! one short list of names to keep exported and never needs to edit this
//! directory. The first block is restricted to crate-root re-exports and
//! preludes; the second block is the handful of functions the stack exports
//! only through a module path today.

pub use swlb_comm::{Comm, World};
pub use swlb_core::prelude::{
    AaParity, BgkParams, CollisionKind, FlagField, GridDims, LanePolicy, Lattice, NodeKind,
    PopField, SoaField, Solver, SolverBuilder, StorageScheme, ThreadPool, D2Q9, D3Q19,
};
pub use swlb_fleet::{Controller, FleetConfig};
pub use swlb_io::{
    colormap_viridis_like, write_ppm, CheckpointStore, Journal, JournalConfig, PpmImage,
};
pub use swlb_obs::{Phase, Recorder, SwlbError, PHASES};
pub use swlb_serve::{JobSpec, Json, OutputKind, Priority, ServeClient, ServeConfig, Server};
pub use swlb_sim::{CaseKind, CaseSolver, CaseSpec, DistributedSolver, ExchangeMode, LatticeKind};

// Module-path exports: no crate root or prelude carries these yet.
pub use swlb_core::kernels::fused_step;
pub use swlb_core::simd::{cpu_features, dispatch_tolerance, set_lane_policy};
pub use swlb_serve::http::roundtrip as http_roundtrip;
pub use swlb_serve::json::parse as json_parse;
