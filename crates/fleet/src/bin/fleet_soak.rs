//! Fleet soak driver: admit/preempt/migrate/worker-kill cycles against an
//! in-process controller + worker pool, with a JSONL progress stream and a
//! machine-parseable summary line.
//!
//! ```text
//! fleet_soak [--jobs N] [--workers W] [--dir PATH] [--churn-every N]
//!            [--heartbeat-ms N] [--seed N] [--out PATH]
//! ```
//!
//! Every `--churn-every` completed jobs one worker is killed (dropped
//! without drain — from the controller's view a crash: heartbeats stop, the
//! missed-counter runs out, its jobs replay onto survivors) and a fresh
//! worker registers in its place. The run ends when every job is terminal.
//!
//! The summary feeds the `swlb-arch` fleet-sizing model (see
//! `EXPERIMENTS.md`): `submit_us_mean` is the journal-gated admission cost,
//! `per_job_ms` the end-to-end cost per job at this worker count. `beats`
//! and `reconciles` say how the controller spent its passes; a run that
//! completed jobs without a single wake-triggered reconcile means terminals
//! are being found by heartbeat polling again, and exits non-zero.

use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use swlb_fleet::{Controller, FleetConfig, PolicyConfig};
use swlb_serve::{
    CaseKind, CaseSpec, JobSpec, Json, LatticeKind, Priority, ServeClient, ServeConfig, Server,
};

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn num(args: &[String], name: &str, default: u64) -> u64 {
    flag(args, name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Spawn one worker-mode serve instance and register it with the controller.
fn spawn_worker(pool_dir: &std::path::Path, idx: u64, controller: &str) -> Server {
    let dir = pool_dir.join(format!("worker-{idx}"));
    let mut cfg = ServeConfig::new(&dir);
    cfg.worker_routes = true;
    cfg.capacity = 16;
    cfg.slice_steps = 16;
    cfg.threads = 2;
    let server = Server::spawn(cfg).expect("spawn worker");
    ServeClient::new(controller)
        .register_worker(&format!("worker-{idx}"), server.addr(), &dir)
        .unwrap_or_else(|e| panic!("worker-{idx} could not register with {controller}: {e}"));
    server
}

fn spec(i: u64) -> JobSpec {
    // Mixed population: three tenants, both priorities, a tail of longer
    // jobs so migration always has a live candidate.
    let tenant = ["alpha", "beta", "gamma"][(i % 3) as usize];
    let priority = if i.is_multiple_of(4) {
        Priority::Interactive
    } else {
        Priority::Batch
    };
    JobSpec {
        name: format!("soak-{i}"),
        case: CaseSpec {
            case: CaseKind::Cavity,
            lattice: LatticeKind::D2Q9,
            nx: 8,
            ny: 8,
            nz: 1,
            tau: 0.8,
            u_lattice: 0.05,
            storage: swlb_core::layout::StorageScheme::Ab,
            time_block: 1,
        },
        steps: if i.is_multiple_of(10) { 96 } else { 16 },
        priority,
        deadline_ms: None,
        outputs: vec![],
        chaos_nan_at_step: None,
        width: 1,
        tenant: tenant.into(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = num(&args, "--jobs", 100);
    let workers = num(&args, "--workers", 3).max(2);
    let churn_every = num(&args, "--churn-every", 25).max(1);
    let heartbeat_ms = num(&args, "--heartbeat-ms", 50).max(10);
    let mut seed = num(&args, "--seed", 42) | 1;
    let dir = flag(&args, "--dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("swlb-fleet-soak-{}", std::process::id()))
        });
    let mut out: Box<dyn std::io::Write> = match flag(&args, "--out") {
        Some(path) => Box::new(std::fs::File::create(path).expect("create --out")),
        None => Box::new(std::io::stdout()),
    };

    std::fs::create_dir_all(&dir).expect("create soak dir");
    let mut cfg = FleetConfig::new(dir.join("controller"));
    cfg.heartbeat = Duration::from_millis(heartbeat_ms);
    cfg.per_worker_cap = 8;
    cfg.policy = PolicyConfig {
        // The batch-heavy tenants get finite quotas so quota/aging paths
        // run hot for the whole soak.
        quotas: vec![("alpha".into(), 6), ("beta".into(), 6)],
        default_quota: usize::MAX,
        aging_ticks: 20,
    };
    let controller = Controller::spawn(cfg).expect("spawn controller");
    let caddr = controller.addr().to_string();
    let client = ServeClient::new(caddr.clone());

    let mut pool: Vec<(u64, Server)> = (0..workers)
        .map(|i| (i, spawn_worker(&dir, i, &caddr)))
        .collect();
    let mut next_worker_idx = workers;

    let t0 = Instant::now();
    let mut submit_us = Vec::with_capacity(jobs as usize);
    for i in 0..jobs {
        let s = Instant::now();
        client
            .submit_with_retry(&spec(i), 5, Duration::from_millis(100))
            .expect("submit");
        submit_us.push(s.elapsed().as_micros() as u64);
    }
    let submitted_s = t0.elapsed().as_secs_f64();

    // Drive to completion, churning workers as the fleet makes progress.
    let mut last_window = Instant::now();
    let mut next_churn = churn_every;
    let mut kills = 0u64;
    let mut last_done = 0u64;
    let mut last_progress = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let stats = client.stats().expect("stats");
        let get = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let done = get("completed") + get("cancelled") + get("failed");
        if done as u64 != last_done {
            last_done = done as u64;
            last_progress = Instant::now();
        } else if last_progress.elapsed() > Duration::from_secs(15) {
            // Stall diagnostics: every non-terminal job and the worker rows.
            last_progress = Instant::now();
            for j in client.list().unwrap_or_default() {
                let state = j.get("state").and_then(Json::as_str).unwrap_or("");
                if state != "completed" && state != "cancelled" && state != "failed" {
                    writeln!(out, "{{\"stalled_job\":{}}}", j.to_text()).ok();
                }
            }
            writeln!(out, "{{\"stalled_stats\":{}}}", stats.to_text()).ok();
        }
        if last_window.elapsed() >= Duration::from_secs(2) {
            last_window = Instant::now();
            let line = Json::obj([
                ("t_s", Json::num(t0.elapsed().as_secs_f64())),
                ("completed", Json::num(get("completed"))),
                ("placed", Json::num(get("placed"))),
                ("pending", Json::num(get("pending"))),
                ("migrations", Json::num(get("migrations"))),
                ("kills", Json::num(kills as f64)),
            ]);
            writeln!(out, "{}", line.to_text()).ok();
        }
        if done as u64 >= jobs {
            break;
        }
        if done as u64 >= next_churn && pool.len() > 1 {
            next_churn += churn_every;
            // xorshift pick of the victim; drop without drain = crash.
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let victim = (seed as usize) % pool.len();
            let (idx, server) = pool.swap_remove(victim);
            drop(server);
            kills += 1;
            writeln!(
                out,
                "{}",
                Json::obj([
                    ("event", Json::str("worker_killed")),
                    ("worker", Json::num(idx as f64)),
                    ("t_s", Json::num(t0.elapsed().as_secs_f64())),
                ])
                .to_text()
            )
            .ok();
            pool.push((next_worker_idx, spawn_worker(&dir, next_worker_idx, &caddr)));
            next_worker_idx += 1;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = client.stats().expect("stats");
    let get = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    submit_us.sort_unstable();
    let mean_us = submit_us.iter().sum::<u64>() as f64 / submit_us.len().max(1) as f64;
    let p99_us = submit_us[(submit_us.len() * 99 / 100).min(submit_us.len() - 1)];
    let summary = Json::obj([
        ("summary", Json::Bool(true)),
        ("jobs", Json::num(jobs as f64)),
        ("workers", Json::num(workers as f64)),
        ("wall_s", Json::num(wall_s)),
        ("submit_s", Json::num(submitted_s)),
        ("jobs_per_sec", Json::num(jobs as f64 / wall_s)),
        ("per_job_ms", Json::num(wall_s * 1e3 / jobs as f64)),
        ("submit_us_mean", Json::num(mean_us)),
        ("submit_us_p99", Json::num(p99_us as f64)),
        ("completed", Json::num(get("completed"))),
        ("failed", Json::num(get("failed"))),
        ("migrations", Json::num(get("migrations"))),
        ("worker_kills", Json::num(kills as f64)),
        ("beats", Json::num(get("beats"))),
        ("reconciles", Json::num(get("reconciles"))),
    ]);
    writeln!(out, "{}", summary.to_text()).ok();
    // Also echo the summary to stdout when --out redirected the stream.
    if flag(&args, "--out").is_some() {
        println!("{}", summary.to_text());
    }
    for (_, server) in pool {
        server.shutdown();
    }
    controller.shutdown();
    if get("completed") > 0.0 && get("reconciles") == 0.0 {
        eprintln!("soak: jobs completed but no wake ever reached the controller");
        ExitCode::FAILURE
    } else if get("completed") as u64 == jobs {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "soak: {} of {jobs} jobs completed ({} failed)",
            get("completed"),
            get("failed")
        );
        ExitCode::FAILURE
    }
}
