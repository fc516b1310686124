//! # swlb-core — Lattice Boltzmann core library
//!
//! This crate implements the numerical heart of SunwayLB-RS, a Rust reproduction of
//! the SunwayLB framework (Liu et al., IPDPS 2019 / TPDS 2023): lattice descriptors
//! (D2Q9, D3Q15, D3Q19, D3Q27), the LBGK collision operator with optional
//! Smagorinsky LES closure, structure-of-arrays and array-of-structures population
//! storage, A-B (ping-pong) double buffering, pull- and push-scheme streaming,
//! a fused streaming+collision kernel, boundary conditions (halfway bounce-back,
//! moving walls, velocity inlets, zero-gradient outlets, periodic wrap), macroscopic
//! field evaluation, and a shared-memory parallel solver.
//!
//! The crate is deliberately free of any machine model: it is plain, portable,
//! well-tested CPU code. The Sunway-specific execution schedules (LDM blocking, DMA,
//! register communication) live in `swlb-arch` and are validated against the
//! reference kernels defined here.
//!
//! ## Quick example
//!
//! ```
//! use swlb_core::prelude::*;
//!
//! // 2-D lid-driven cavity on a 32x32 grid.
//! let dims = GridDims::new2d(32, 32);
//! let mut solver = Solver::<D2Q9>::builder(dims, BgkParams::from_tau(0.8)).build();
//! solver.flags_mut().set_box_walls();
//! solver.flags_mut().paint_lid([0.05, 0.0, 0.0]);
//! solver.initialize_uniform(1.0, [0.0; 3]);
//! solver.run(100);
//! let u = solver.macroscopic().velocity_magnitude();
//! assert!(u.iter().all(|v| v.is_finite()));
//! ```

// Indexed loops mirror the stencil mathematics throughout this workspace and
// are kept deliberately as the clearer idiom for this domain.
#![allow(clippy::needless_range_loop)]

pub mod boundary;
pub mod collision;
pub mod equilibrium;
pub mod error;
pub mod flags;
pub mod geometry;
pub mod kernels;
pub mod lattice;
pub mod layout;
pub mod macroscopic;
pub mod mrt;
pub mod nebb;
pub mod parallel;
pub mod post;
pub mod simd;
pub mod solver;
pub mod stability;
pub mod stream;
pub mod temporal;
pub mod units;

/// Floating point scalar used throughout the solver.
///
/// The paper runs in double precision on Sunway (the SW26010 vector unit is
/// 4 x f64); we match that. All kernels are written against this alias so a
/// single edit switches the build to `f32` for experimentation.
pub type Scalar = f64;

/// Lattice speed of sound squared, `c_s^2 = 1/3` in lattice units.
pub const CS2: Scalar = 1.0 / 3.0;

/// Inverse of [`CS2`].
pub const INV_CS2: Scalar = 3.0;

/// Convenient re-exports of the most used items.
pub mod prelude {
    pub use crate::boundary::NodeKind;
    pub use crate::collision::{BgkParams, CollisionKind, SmagorinskyParams};
    pub use crate::equilibrium::equilibrium;
    pub use crate::error::{CoreError, Result};
    pub use crate::flags::FlagField;
    pub use crate::geometry::{GridDims, Idx3};
    pub use crate::lattice::{Lattice, D2Q9, D3Q15, D3Q19, D3Q27};
    pub use crate::layout::{
        AaParity, AosField, Layout, PopField, SoaField, Storage, StorageScheme,
    };
    pub use crate::macroscopic::MacroFields;
    pub use crate::parallel::ThreadPool;
    pub use crate::simd::{KernelClass, LanePolicy};
    pub use crate::solver::{Solver, SolverBuilder, StepStats};
    pub use crate::units::UnitConverter;
    pub use crate::Scalar;
    pub use swlb_obs::{Recorder, SwlbError, SwlbResult};
}
