//! # swlb-fleet — a multi-worker scheduler tier
//!
//! One `swlb serve` instance fair-shares a single machine; a pool of
//! machines wants a tier above it. This crate provides the **controller**:
//! a resident process that admits jobs, places them across a fleet of
//! worker-mode serve instances, watches worker liveness, and migrates work
//! when the pool changes shape — all with the same zero-external-dependency
//! discipline as the rest of the workspace (std::net sockets, the hand-
//! rolled HTTP/1.1 subset and JSON codec from `swlb-serve`).
//!
//! * **Write-ahead placement journal** — every admission and terminal is
//!   fsynced through [`swlb_io::journal`] *before* it is acknowledged;
//!   placements and migrations ride the same log. `kill -9` the controller
//!   and restart it: acknowledged jobs keep their ids and arrival order,
//!   placed jobs re-sync from their workers, each terminal is reported
//!   exactly once ([`record`]).
//! * **Heartbeat liveness** — CRC-framed `[epoch, seq, crc]` probes over
//!   [`swlb_comm::frame`] with a missed-counter, exponential probe backoff,
//!   and an exactly-once death transition ([`registry`]).
//! * **Quotas + priority aging** — per-tenant concurrent-placement quotas
//!   and a CFS-style tenant fair share, with effective weight growing as a
//!   job waits so Batch work cannot be starved by a stream of Interactive
//!   submissions ([`policy`]).
//! * **Migration** — a worker death or pool imbalance moves jobs between
//!   workers through the partition-independent v3 chunked checkpoint
//!   format: the envelope ([`swlb_serve::PushEnvelope`]) carries the exact
//!   on-disk bytes, so a migration round-trips bit-exact ([`controller`]).
//!
//! The `swlb-fleet` binary runs either role (`swlb-fleet serve`,
//! `swlb-fleet worker`); `fleet_soak` drives admit/preempt/migrate/kill
//! cycles for soak testing. See `docs/SERVING.md` ("Fleet").

pub mod controller;
pub mod policy;
pub mod record;
pub mod registry;

pub use controller::{Controller, FleetConfig};
pub use policy::{PendingJob, PolicyConfig, TenantAccount};
pub use record::{FleetEvent, FleetFold, FleetOutcome, ReplayedWorker};
pub use registry::{Worker, WorkerLoad};
