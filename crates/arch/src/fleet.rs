//! # Fleet-tier sizing model
//!
//! `swlb-fleet` places jobs across a pool of worker-mode `swlb-serve`
//! processes. This module answers the capacity-planning questions for that
//! tier — *how many workers does a target job-arrival rate need, where is the
//! controller's hard ceiling, and what does a worker death cost* — from two
//! kinds of inputs:
//!
//! * **Measured per-job costs** from the `fleet_soak` harness
//!   ([`FleetCosts`]): the journal-fsync-gated admission cost and the
//!   end-to-end per-job wall cost at two worker counts. Two points let the
//!   model split the per-job cost into a serial (controller) share and a
//!   parallel (worker) share, Amdahl-style: `t(W) = t_serial + t_parallel/W`.
//! * **The interconnect model** ([`NetworkModel`]) already calibrated for the
//!   scaling figures: migration and dead-worker replay move a chunked
//!   checkpoint point-to-point, so their cost is a `ptp_time` plus the
//!   heartbeat-detection window.
//!
//! The measured soak workload is control-plane-heavy by design (8×8 lattices,
//! mostly 16 steps): it bounds the *scheduler tier*, not the solver. For
//! compute-bound production jobs, feed the real per-job cost into
//! [`FleetCosts::from_two_points`] — the controller ceiling and recovery
//! numbers carry over unchanged because admissions and checkpoints do not
//! grow with job compute.

use swlb_comm::NetworkModel;

/// Per-job fleet costs, measured by `fleet_soak` (see `EXPERIMENTS.md`).
#[derive(Debug, Clone, Copy)]
pub struct FleetCosts {
    /// Journal-gated admission cost on the controller \[s\] — the soak's
    /// `submit_us_mean`. Admissions are fsynced before acknowledgement and
    /// serialize on the controller, so `1/admit_s` is a hard throughput
    /// ceiling no worker count can move.
    pub admit_s: f64,
    /// Serial per-job share \[s\]: what the controller spends on one job and
    /// cannot spread over workers — placement decision and push, journal
    /// appends, its share of a sync. Since the controller reconciles on a wake
    /// instead of once per heartbeat this is work, not waiting: up to PR 18
    /// the measured figure (8.69 ms) was mostly a job waiting for the next
    /// tick to be placed and the one after to be noticed finished.
    pub serial_s: f64,
    /// Parallel per-job share \[s\]: worker-side service cost that divides
    /// across the pool.
    pub parallel_s: f64,
    /// Checkpoint payload of one migrating job \[B\] (v3 chunked store bytes).
    pub ckpt_bytes: u64,
    /// Controller heartbeat period \[s\].
    pub heartbeat_s: f64,
    /// Consecutive missed heartbeats before a worker is declared dead.
    pub max_missed: u32,
}

impl FleetCosts {
    /// Recover the serial/parallel split from per-job wall costs measured at
    /// two worker counts, assuming `t(W) = serial + parallel/W`.
    ///
    /// With `(w1, t1)` and `(w2, t2)` (costs in seconds):
    /// `parallel = (t1 - t2) / (1/w1 - 1/w2)`, `serial = t1 - parallel/w1`.
    /// Negative solutions (measurement noise at near-flat scaling) clamp to
    /// zero so the model stays physical.
    pub fn from_two_points(
        admit_s: f64,
        (w1, t1): (usize, f64),
        (w2, t2): (usize, f64),
        ckpt_bytes: u64,
        heartbeat_s: f64,
        max_missed: u32,
    ) -> Self {
        assert!(w1 != w2, "need two distinct worker counts");
        let inv1 = 1.0 / w1 as f64;
        let inv2 = 1.0 / w2 as f64;
        let parallel = ((t1 - t2) / (inv1 - inv2)).max(0.0);
        let serial = (t1 - parallel * inv1).max(0.0);
        Self {
            admit_s,
            serial_s: serial,
            parallel_s: parallel,
            ckpt_bytes,
            heartbeat_s,
            max_missed,
        }
    }

    /// Checkpoint payload for a D2Q9 AB-storage lattice: two copies of
    /// `nx*ny*9` f64 populations plus the chunked-store framing (~1 KiB).
    pub fn d2q9_ab_ckpt_bytes(nx: usize, ny: usize) -> u64 {
        (2 * nx * ny * 9 * 8) as u64 + 1024
    }
}

/// One row of the fleet-sizing table.
#[derive(Debug, Clone, Copy)]
pub struct SizingRow {
    /// Offered load \[jobs/s\].
    pub rate: f64,
    /// Smallest worker count that serves `rate` at ≤ `util` utilization, or
    /// `None` when the rate exceeds the controller's admission ceiling.
    pub workers: Option<usize>,
    /// Pool utilization at that worker count.
    pub utilization: f64,
    /// Wall time to detect a dead worker and replay `jobs_per_worker` of its
    /// jobs onto survivors \[s\].
    pub recovery_s: f64,
}

/// Analytic fleet model: measured costs + interconnect.
#[derive(Debug, Clone)]
pub struct FleetModel {
    pub net: NetworkModel,
    pub costs: FleetCosts,
}

impl FleetModel {
    pub fn new(net: NetworkModel, costs: FleetCosts) -> Self {
        Self { net, costs }
    }

    /// Hard admission ceiling \[jobs/s\]: the journal fsync stream is serial.
    pub fn controller_ceiling(&self) -> f64 {
        1.0 / self.costs.admit_s.max(1e-12)
    }

    /// Steady-state throughput of a `w`-worker pool \[jobs/s\], capped by the
    /// admission ceiling.
    pub fn throughput(&self, w: usize) -> f64 {
        let per_job = self.costs.serial_s + self.costs.parallel_s / w.max(1) as f64;
        (1.0 / per_job.max(1e-12)).min(self.controller_ceiling())
    }

    /// Time to detect a worker death: `max_missed` heartbeat periods plus the
    /// tail probe's backoff (one extra period in the common case).
    pub fn detection_time(&self) -> f64 {
        (self.costs.max_missed as f64 + 1.0) * self.costs.heartbeat_s
    }

    /// Time to migrate one job between workers: the handoff pull and the push
    /// each move the checkpoint once over the control network.
    pub fn migration_time(&self, intra: bool) -> f64 {
        2.0 * self.net.ptp_time(self.costs.ckpt_bytes, intra)
    }

    /// Wall time to recover from one worker death with `jobs` placed on it:
    /// detection, then one checkpoint push per job (reads come from the
    /// shared filesystem; the push serializes on the controller).
    pub fn recovery_time(&self, jobs: usize, intra: bool) -> f64 {
        self.detection_time()
            + jobs as f64 * self.net.ptp_time(self.costs.ckpt_bytes, intra)
    }

    /// Smallest worker count serving `rate` jobs/s at ≤ `util` utilization.
    /// `None` when `rate` exceeds the controller ceiling (more workers cannot
    /// help — shard the controller instead).
    pub fn required_workers(&self, rate: f64, util: f64) -> Option<usize> {
        assert!(util > 0.0 && util <= 1.0);
        if rate >= self.controller_ceiling() * util {
            return None;
        }
        // rate <= util * throughput(w)  ⇔  parallel/w <= util/rate - serial
        let budget = util / rate - self.costs.serial_s;
        if budget <= 0.0 {
            return None; // serial share alone saturates the target
        }
        Some(((self.costs.parallel_s / budget).ceil() as usize).max(1))
    }

    /// Sizing table for a list of offered rates, with recovery cost computed
    /// for the resulting per-worker job share at `rate` over one detection
    /// window.
    pub fn sizing_table(&self, rates: &[f64], util: f64) -> Vec<SizingRow> {
        rates
            .iter()
            .map(|&rate| {
                let workers = self.required_workers(rate, util);
                let (utilization, recovery_s) = match workers {
                    Some(w) => {
                        let in_flight =
                            (rate * (self.costs.serial_s + self.costs.parallel_s)).ceil();
                        let per_worker = (in_flight as usize).div_ceil(w);
                        (rate / self.throughput(w), self.recovery_time(per_worker, true))
                    }
                    None => (f64::INFINITY, f64::INFINITY),
                };
                SizingRow {
                    rate,
                    workers,
                    utilization,
                    recovery_s,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs() -> FleetCosts {
        // Shapes taken from the 1000-job soak: ~0.5 ms admission, ~10 ms/job
        // nearly flat from 2 to 4 workers (control-plane-bound workload).
        FleetCosts::from_two_points(
            500e-6,
            (2, 10.4e-3),
            (4, 9.7e-3),
            FleetCosts::d2q9_ab_ckpt_bytes(8, 8),
            50e-3,
            3,
        )
    }

    #[test]
    fn two_point_split_reconstructs_measurements() {
        let c = costs();
        let t2 = c.serial_s + c.parallel_s / 2.0;
        let t4 = c.serial_s + c.parallel_s / 4.0;
        assert!((t2 - 10.4e-3).abs() < 1e-9);
        assert!((t4 - 9.7e-3).abs() < 1e-9);
    }

    #[test]
    fn flat_scaling_clamps_to_physical_split() {
        // Slightly *worse* at more workers (noise): parallel clamps to 0.
        let c = FleetCosts::from_two_points(500e-6, (2, 9.0e-3), (4, 9.5e-3), 1024, 50e-3, 3);
        assert_eq!(c.parallel_s, 0.0);
        assert!(c.serial_s > 0.0);
    }

    #[test]
    fn throughput_is_monotone_and_capped_by_admission() {
        let m = FleetModel::new(NetworkModel::taihulight(), costs());
        let mut prev = 0.0;
        for w in 1..=64 {
            let t = m.throughput(w);
            assert!(t >= prev, "throughput must not drop with more workers");
            assert!(t <= m.controller_ceiling() + 1e-9);
            prev = t;
        }
    }

    #[test]
    fn required_workers_matches_throughput() {
        let m = FleetModel::new(NetworkModel::taihulight(), costs());
        let util = 0.7;
        for rate in [10.0, 40.0, 60.0] {
            if let Some(w) = m.required_workers(rate, util) {
                assert!(rate <= util * m.throughput(w) + 1e-9);
                if w > 1 {
                    assert!(rate > util * m.throughput(w - 1));
                }
            }
        }
    }

    #[test]
    fn rates_beyond_controller_ceiling_are_rejected() {
        let m = FleetModel::new(NetworkModel::taihulight(), costs());
        let ceiling = m.controller_ceiling();
        assert_eq!(m.required_workers(ceiling * 2.0, 0.9), None);
        let table = m.sizing_table(&[1.0, ceiling * 2.0], 0.9);
        assert!(table[0].workers.is_some());
        assert!(table[1].workers.is_none());
    }

    #[test]
    fn recovery_includes_detection_window() {
        let m = FleetModel::new(NetworkModel::taihulight(), costs());
        assert!(m.recovery_time(0, true) >= m.detection_time());
        assert!(m.recovery_time(8, true) > m.recovery_time(1, true));
        // Inter-supernode replay is slower than intra.
        assert!(m.recovery_time(8, false) > m.recovery_time(8, true));
    }

    #[test]
    fn migration_moves_the_checkpoint_twice() {
        let m = FleetModel::new(NetworkModel::taihulight(), costs());
        let one_hop = m.net.ptp_time(m.costs.ckpt_bytes, true);
        assert!((m.migration_time(true) - 2.0 * one_hop).abs() < 1e-12);
    }
}
