//! Fleet-sizing table — measured `fleet_soak` costs through the analytic
//! fleet model (`swlb-arch::fleet`) over the calibrated interconnect
//! (`swlb-comm::netmodel`).
//!
//! The constants below are the seed-42 1000-job soak summaries recorded in
//! `EXPERIMENTS.md` ("Fleet soak + sizing"). Re-measure with
//!
//! ```text
//! cargo run --release -p swlb-fleet --bin fleet_soak -- \
//!     --jobs 1000 --workers 2 --churn-every 250
//! ```
//!
//! at two worker counts and substitute the `per_job_ms` / `submit_us_mean`
//! figures; the table regenerates itself.

use swlb_arch::fleet::{FleetCosts, FleetModel};
use swlb_bench::{header, row};
use swlb_comm::NetworkModel;

/// Measured on this VM (seed 42, 1000 jobs, churn every 250 completions;
/// medians of three runs per worker count, EXPERIMENTS.md "PR 19").
const ADMIT_S: f64 = 963e-6; // submit_us_mean averaged over the three counts
const POINT_A: (usize, f64) = (2, 1.972e-3); // per_job_ms at 2 workers
const POINT_B: (usize, f64) = (8, 2.152e-3); // per_job_ms at 8 workers
const HEARTBEAT_S: f64 = 50e-3;
const MAX_MISSED: u32 = 3;

fn main() {
    header(
        "Fleet sizing — measured soak costs through the network model",
        "extension beyond the paper (see ROADMAP: elastic multi-node fleet)",
    );
    let costs = FleetCosts::from_two_points(
        ADMIT_S,
        POINT_A,
        POINT_B,
        FleetCosts::d2q9_ab_ckpt_bytes(8, 8),
        HEARTBEAT_S,
        MAX_MISSED,
    );
    let model = FleetModel::new(NetworkModel::taihulight(), costs);

    println!(
        "cost split      : serial {:.2} ms/job + parallel {:.2} ms/job ÷ W",
        costs.serial_s * 1e3,
        costs.parallel_s * 1e3
    );
    println!(
        "admission ceil  : {:.0} jobs/s (journal fsync, serial on controller)",
        model.controller_ceiling()
    );
    println!(
        "serial ceil     : {:.0} jobs/s (controller work per job; shard to exceed)",
        1.0 / costs.serial_s
    );
    println!(
        "death detection : {:.0} ms ({} missed × {:.0} ms heartbeat + tail probe)",
        model.detection_time() * 1e3,
        MAX_MISSED,
        HEARTBEAT_S * 1e3
    );
    println!(
        "migration       : {:.1} µs per 8×8 D2Q9 job ({} B checkpoint, 2 hops)",
        model.migration_time(true) * 1e6,
        costs.ckpt_bytes
    );
    println!();

    row(&[
        "rate [jobs/s]".into(),
        "workers @ 70% util".into(),
        "utilization".into(),
        "worker-death recovery".into(),
    ]);
    for r in model.sizing_table(&[50.0, 100.0, 200.0, 350.0, 600.0], 0.7) {
        let (workers, util, rec) = match r.workers {
            Some(w) => (
                format!("{w}"),
                format!("{:.0}%", r.utilization * 100.0),
                format!("{:.0} ms", r.recovery_s * 1e3),
            ),
            None => (
                "— (above serial ceiling)".into(),
                "—".into(),
                "—".into(),
            ),
        };
        row(&[format!("{:.0}", r.rate), workers, util, rec]);
    }
}
