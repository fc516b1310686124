//! # swlb-serve — a multi-tenant simulation service
//!
//! `swlb run` runs one case per process; a shared machine wants one
//! *resident* service that many users submit cases to. This crate provides
//! it, with zero external dependencies — `std::net` sockets, a hand-rolled
//! HTTP/1.1 subset, and a minimal JSON codec:
//!
//! * **Admission control** — a bounded live-job table; submissions beyond
//!   capacity bounce with HTTP 429 / [`SwlbError::Rejected`] instead of
//!   queueing unboundedly.
//! * **Fair-share scheduling** — one scheduler thread time-slices jobs over
//!   the shared compute [`ThreadPool`](swlb_core::parallel::ThreadPool) in
//!   units of `slice_steps` solver steps, CFS-style: each job is charged
//!   virtual runtime `slice / weight`, the smallest vruntime runs next, and
//!   fresh arrivals start at the current virtual clock — so an interactive
//!   job submitted mid-way through a long batch run waits at most one slice.
//! * **Checkpoint-based preemption** — preemption happens only at slice
//!   boundaries, by capturing the solver into the job's namespaced
//!   [`CheckpointStore`](swlb_io::CheckpointStore) and rebuilding it on
//!   resume; a preempted job loses no steps.
//! * **Width** — one job at a time holds the whole pool, so a job's
//!   requested `width` is recorded and echoed but sizes nothing; its state
//!   travels in the partition-independent chunked format (v3), which also
//!   restores checkpoints written by a distributed run. See `docs/SERVING.md`
//!   ("Width").
//! * **Supervised execution** — a faulted job (NaN/Inf, including injected
//!   chaos faults) rolls back to its last valid checkpoint under the
//!   [`RecoveryPolicy`](swlb_sim::RecoveryPolicy) restart budget. The job
//!   fails alone; the service keeps running.
//! * **Graceful drain** — `POST /v1/drain` checkpoints every live job and
//!   refuses new work, leaving the state directory resumable.
//! * **Crash safety** — every job lifecycle transition is journaled
//!   write-ahead ([`journal`], backed by
//!   [`swlb_io::journal`]); on startup the journal is replayed, so a
//!   `kill -9` loses no acknowledged job: queued jobs keep their ids and
//!   arrival order, running jobs rebind to their latest valid checkpoint,
//!   terminal jobs are reported exactly once. When the journal disk fails,
//!   admission degrades to 503 ([`SwlbError::Unavailable`]) instead of
//!   accepting work the service could lose.
//!
//! [`SwlbError::Unavailable`]: swlb_obs::SwlbError::Unavailable
//! * **Per-job observability** — each job gets its own
//!   [`Recorder`](swlb_obs::Recorder) with a JSONL sink
//!   (`jobs/job-<id>/metrics.jsonl`), plus server-level queue-depth,
//!   wait-time and slice-latency metrics.
//!
//! [`SwlbError::Rejected`]: swlb_obs::SwlbError::Rejected
//!
//! ## Quick start
//!
//! ```
//! use swlb_serve::{CaseKind, CaseSpec, JobSpec, LatticeKind, OutputKind,
//!                  Priority, ServeClient, ServeConfig, Server, StorageScheme};
//!
//! let dir = std::env::temp_dir().join("swlb-serve-doc");
//! let server = Server::spawn(ServeConfig::new(&dir)).unwrap();
//! let client = ServeClient::new(server.addr().to_string());
//! let id = client.submit(&JobSpec {
//!     name: "cavity-demo".into(),
//!     case: CaseSpec {
//!         case: CaseKind::Cavity,
//!         lattice: LatticeKind::D2Q9,
//!         nx: 16, ny: 16, nz: 1,
//!         tau: 0.8, u_lattice: 0.05,
//!         storage: StorageScheme::Aa,  // single-grid: half the footprint
//!         time_block: 1,
//!     },
//!     steps: 64,
//!     priority: Priority::Interactive,
//!     deadline_ms: None,
//!     outputs: vec![OutputKind::Ppm],
//!     chaos_nan_at_step: None,
//!     width: 1,
//!     tenant: "default".into(),
//! }).unwrap();
//! let events = client.watch(id, 0).unwrap();           // blocks to terminal
//! assert!(events.iter().any(|e| e.contains("completed")));
//! server.shutdown();
//! ```

pub mod client;
pub mod http;
pub mod journal;
pub mod json;
pub mod scheduler;
pub mod server;
pub mod spec;
pub mod state;
pub mod wire;

pub use client::ServeClient;
pub use journal::{JobEvent, JobTable, ReplayOutcome, ReplayedJob};
pub use json::Json;
pub use scheduler::write_artifacts;
pub use server::{ServeConfig, Server, DEFAULT_SLICE_STEPS};
pub use spec::{JobSpec, JobState, OutputKind, Priority, DEFAULT_TENANT};
pub use wire::PushEnvelope;
// Re-export the pieces a submission is made of, so client code doesn't need
// a direct swlb-sim (or swlb-core) dependency.
pub use swlb_core::layout::StorageScheme;
pub use swlb_sim::cases::{CaseKind, CaseSpec, LatticeKind};
