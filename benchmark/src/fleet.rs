//! `fleet-stream`: tiny jobs through an in-process fleet controller and two
//! worker-mode servers, everything at `FleetConfig::new` defaults — what an
//! operator gets.

use crate::inputs::{tiny_case, tiny_jobs};
use crate::run::{ctx, Ctx, Layers, Pass, Stop};
use crate::serve::{
    check_case_reference, closed_loop, is_terminal, stream_pass_of, Service, StreamOut, Wait,
    TINY_LUPS,
};
use crate::stats::{median, timing};
use crate::surface::{http_roundtrip, Controller, FleetConfig, JobSpec, Json, ServeClient};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
/// The unloaded phase (closed loop, one client) takes this share of the run's
/// seconds; the backlog phase admits this many jobs at once at the default
/// `--seconds`. Both are paced by the controller's tick, not by the host.
const WARMUP_JOBS: usize = 2;
const UNLOADED_SHARE: f64 = 0.5;
const BACKLOG_JOBS: u64 = 110;
const POLL: Duration = Duration::from_millis(5);

/// Controller and workers; dropping it stops the controller, then drains and
/// joins every worker, on every path.
struct Fleet {
    controller: Option<Controller>,
    workers: Vec<Service>,
    client: ServeClient,
    dir: PathBuf,
    spawn_ms: f64,
    register_ms: f64,
}

impl Fleet {
    fn spawn(dir: PathBuf) -> Result<Fleet, String> {
        let t0 = Instant::now();
        let controller =
            Controller::spawn(FleetConfig::new(&dir)).map_err(ctx("Controller::spawn"))?;
        let spawn_ms = t0.elapsed().as_secs_f64() * 1e3;
        let addr = controller.addr().to_string();
        let mut fleet = Fleet {
            client: ServeClient::new(addr.clone()),
            controller: Some(controller),
            workers: Vec::new(),
            dir: dir.clone(),
            spawn_ms,
            register_ms: 0.0,
        };
        let mut register_ms = Vec::new();
        for i in 0..WORKERS {
            let name = format!("worker-{i}");
            let worker_dir = dir.join(&name);
            let worker = Service::spawn(worker_dir.clone(), |cfg| {
                cfg.worker_routes = true;
                cfg.threads = 1;
            })?;
            let shared_dir = worker_dir
                .canonicalize()
                .map_err(ctx("canonicalize worker dir"))?;
            let body = Json::obj([
                ("name", Json::str(name)),
                ("addr", Json::str(worker.addr())),
                ("dir", Json::str(shared_dir.display().to_string())),
            ])
            .to_text();
            let t0 = Instant::now();
            let (status, _) = http_roundtrip(&addr, "POST", "/v1/fleet/register", body.as_bytes())
                .map_err(ctx("register worker"))?;
            register_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            fleet.workers.push(worker);
            if status != 200 {
                return Err(format!("worker registration refused with HTTP {status}"));
            }
        }
        fleet.register_ms = median(&register_ms);
        Ok(fleet)
    }

    /// Swap the controller for a fresh one replaying the same state
    /// directory; returns the milliseconds `Controller::spawn` took.
    fn restart_controller(&mut self) -> Result<f64, String> {
        if let Some(c) = self.controller.take() {
            c.shutdown();
        }
        let t0 = Instant::now();
        let controller =
            Controller::spawn(FleetConfig::new(&self.dir)).map_err(ctx("Controller::spawn"))?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.client = ServeClient::new(controller.addr().to_string());
        self.controller = Some(controller);
        Ok(ms)
    }

    /// Every job every worker ran must have completed all its steps without
    /// a rollback; returns how many did not.
    fn unclean_worker_jobs(&self) -> Result<u64, String> {
        let mut unclean = 0;
        for w in &self.workers {
            for status in w.client.list().map_err(ctx("list worker jobs"))? {
                let steps = status.get("steps").and_then(Json::as_u64).unwrap_or(0);
                unclean += u64::from(!crate::serve::completed_cleanly(&status, steps));
            }
        }
        Ok(unclean)
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        if let Some(c) = self.controller.take() {
            c.shutdown();
        }
        self.workers.clear();
    }
}

fn state_of(status: &Json) -> &str {
    status.get("state").and_then(Json::as_str).unwrap_or("")
}

/// The controller's status carries no step count; the workers' own tables
/// are checked once the phases are over (`unclean_worker_jobs`).
fn completed(status: &Json, _steps: u64) -> bool {
    state_of(status) == "completed"
}

/// What the backlog phase observed.
struct Backlog {
    submit_ms: Vec<f64>,
    failed: u64,
    /// First submit call to the last job observed terminal.
    wall_s: f64,
    /// Jobs per second from the first completion observed to the last. The
    /// controller completes jobs in per-tick bursts, so the whole-phase rate
    /// moves by a tick with the phase of the first submit; this one does not.
    drain_rate: f64,
}

/// Admit every job at once, then poll the job list until all are terminal.
fn backlog(client: &ServeClient, jobs: &[JobSpec], cx: &Ctx) -> Result<Backlog, String> {
    let span = cx.tracer.open("fleet.backlog", 0, None);
    let t0 = Instant::now();
    let mut submit_ms = Vec::new();
    let mut ids = Vec::new();
    let mut failed = 0;
    for (i, spec) in jobs.iter().enumerate() {
        let (ack, secs) = cx
            .tracer
            .time("fleet.submit", i as u64, span, || client.submit(spec));
        submit_ms.push(secs * 1e3);
        match ack {
            Ok(id) => ids.push(id),
            Err(_) => failed += 1,
        }
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut first_seen = None;
    let done = loop {
        std::thread::sleep(POLL);
        let (list, _) = cx.tracer.time("fleet.list", 0, span, || client.list());
        let list = list.map_err(ctx("list fleet jobs"))?;
        let ours = |s: &&Json| {
            s.get("id")
                .and_then(Json::as_u64)
                .is_some_and(|id| ids.contains(&id))
        };
        let terminal = list.iter().filter(ours).filter(|s| is_terminal(s)).count();
        if terminal > 0 && first_seen.is_none() {
            first_seen = Some((Instant::now(), terminal));
        }
        if terminal == ids.len() {
            break list.into_iter().filter(|s| ours(&s)).collect::<Vec<_>>();
        }
        if Instant::now() > deadline {
            return Err("the backlog did not drain within 120 s".into());
        }
    };
    let wall_s = t0.elapsed().as_secs_f64();
    cx.tracer.close(span);
    failed += done.iter().filter(|s| state_of(s) != "completed").count() as u64;
    let (first_at, first_count) = first_seen.ok_or("the backlog admitted no job")?;
    let drain_s = first_at.elapsed().as_secs_f64();
    Ok(Backlog {
        submit_ms,
        failed,
        wall_s,
        // A backlog that drains in one burst has no interval to rate.
        drain_rate: if done.len() > first_count {
            (done.len() - first_count) as f64 / drain_s
        } else {
            done.len() as f64 / wall_s
        },
    })
}

fn fleet_setup(cx: &Ctx) -> Result<(Fleet, f64), String> {
    let warmup = tiny_jobs(cx.seed ^ 0x5eed, WARMUP_JOBS);
    let off = crate::trace::Tracer::new(false);
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..cx.setups {
        drop(last.take());
        let t0 = Instant::now();
        check_case_reference("fleet-stream", &tiny_case(), 1)?;
        let fleet = Fleet::spawn(cx.state_dir("fleet")?)?;
        let warm = closed_loop(
            &fleet.client,
            &warmup,
            1,
            Stop::LIST_END,
            Wait::Poll(POLL),
            completed,
            &cx.with_tracer(&off),
        );
        if warm.failed > 0 {
            return Err(format!("{} warm-up jobs failed", warm.failed));
        }
        setups.push(t0.elapsed().as_secs_f64());
        last = Some(fleet);
    }
    Ok((last.expect("setups >= 1"), median(&setups)))
}

/// Both phases on one fleet.
struct FleetRun {
    pass: Pass,
    unloaded: StreamOut,
    backlog: Backlog,
    fleet: Fleet,
}

fn fleet_run(cx: &Ctx) -> Result<FleetRun, String> {
    let (fleet, setup_s) = fleet_setup(cx)?;
    let unloaded_jobs = tiny_jobs(cx.seed, 10 * cx.scale.seconds.ceil() as usize);
    let backlog_jobs = tiny_jobs(cx.seed ^ 0xbac, cx.scale.paced(BACKLOG_JOBS));
    let stop = cx.scale.stop(UNLOADED_SHARE, 3);
    let unloaded = closed_loop(
        &fleet.client,
        &unloaded_jobs,
        1,
        stop,
        Wait::Poll(POLL),
        completed,
        cx,
    );
    let drained = backlog(&fleet.client, &backlog_jobs, cx)?;
    let unclean = fleet.unclean_worker_jobs()?;

    let what = "FleetConfig::new defaults, 2 worker-mode servers x 1 thread";
    let mut pass = stream_pass_of(&unloaded, 1, setup_s, what);
    let jobs = backlog_jobs.len() as f64;
    pass.notes.push(format!(
        "job_latency_p50_ms from the unloaded phase (closed loop, 1 client, n={}); jobs_per_s and mlups \
         from the backlog phase ({jobs} jobs admitted at once; rate from the first completion observed to \
         the last; first submit -> last terminal took {:.3} s)",
        unloaded.latency_ms.len(),
        drained.wall_s
    ));
    pass.mlups = drained.drain_rate * TINY_LUPS / 1e6;
    pass.jobs_per_s = drained.drain_rate;
    pass.attempted += backlog_jobs.len() as u64;
    pass.failed += drained.failed + unclean;
    Ok(FleetRun {
        pass,
        unloaded,
        backlog: drained,
        fleet,
    })
}

pub fn measure(cx: &Ctx) -> Result<Pass, String> {
    Ok(fleet_run(cx)?.pass)
}

/// Milliseconds from the submit acknowledgement until the job is first
/// observed placed (or already past it), and until it is observed terminal.
fn placement_probe(client: &ServeClient, spec: &JobSpec) -> Result<(f64, f64), String> {
    let id = client.submit(spec).map_err(ctx("submit"))?;
    let acked = Instant::now();
    let mut placed_ms = None;
    loop {
        std::thread::sleep(Duration::from_millis(1));
        let status = client.status(id).map_err(ctx("status"))?;
        if placed_ms.is_none() && state_of(&status) != "pending" {
            placed_ms = Some(acked.elapsed().as_secs_f64() * 1e3);
        }
        if is_terminal(&status) {
            let placed = placed_ms.expect("a terminal job has left `pending`");
            return Ok((placed, acked.elapsed().as_secs_f64() * 1e3));
        }
    }
}

pub fn layers(cx: &Ctx) -> Result<(Pass, Layers), String> {
    let mut run = fleet_run(cx)?;
    let mut out = Layers::default();
    out.put("fleet.spawn_ms", run.fleet.spawn_ms);
    out.put("fleet.register_ms", run.fleet.register_ms);
    let submits: Vec<f64> = run
        .unloaded
        .submit_ms
        .iter()
        .chain(&run.backlog.submit_ms)
        .copied()
        .collect();
    let submit = timing(&submits, 99.0);
    let note = format!("n={} tail=p{:.1}", submit.n, submit.tail_pct);
    out.put_noted("fleet.submit_ms_p50", submit.p50, note.clone());
    out.put_noted("fleet.submit_ms_p99", submit.tail, note);
    let latency = timing(&run.unloaded.latency_ms, 90.0);
    let heartbeat_ms = FleetConfig::new(cx.tmp).heartbeat.as_secs_f64() * 1e3;
    out.put_noted(
        "fleet.ticks_per_job",
        latency.p50 / heartbeat_ms,
        format!("unloaded median over the {heartbeat_ms} ms heartbeat"),
    );
    out.put_noted(
        "fleet.job_latency_p90_ms",
        latency.tail,
        format!("n={} tail=p{:.1}", latency.n, latency.tail_pct),
    );
    out.put("fleet.per_job_serial_ms", 1000.0 / run.pass.jobs_per_s);

    let probes = tiny_jobs(cx.seed ^ 0xf1ee7, cx.scale.reps(10));
    let observed: Vec<(f64, f64)> = probes
        .iter()
        .map(|spec| placement_probe(&run.fleet.client, spec))
        .collect::<Result<_, _>>()?;
    let placed: Vec<f64> = observed.iter().map(|(p, _)| *p).collect();
    let shares: Vec<f64> = observed.iter().map(|(p, t)| (t - p) / t).collect();
    let n = observed.len();
    out.put_noted(
        "fleet.placement_wait_ms_p50",
        median(&placed),
        format!("n={n}, one job at a time, ack -> first status that is not `pending`, 1 ms poll"),
    );
    out.put_noted(
        "fleet.worker_share",
        median(&shares),
        format!("n={n}, (placed -> terminal) over (ack -> terminal)"),
    );
    let stats_ms: Vec<f64> = (0..cx.scale.reps(100))
        .map(|_| {
            let t0 = Instant::now();
            let stats = run.fleet.client.stats();
            stats.map(|_| t0.elapsed().as_secs_f64() * 1e3)
        })
        .collect::<Result<_, _>>()
        .map_err(ctx("fleet stats"))?;
    out.put_noted(
        "fleet.stats_ms_p50",
        median(&stats_ms),
        format!("n={}", stats_ms.len()),
    );
    let stats = run.fleet.client.stats().map_err(ctx("fleet stats"))?;
    out.put(
        "fleet.migrations",
        stats.get("migrations").and_then(Json::as_u64).unwrap_or(0) as f64,
    );
    let journaled = stats.get("jobs").and_then(Json::as_u64).unwrap_or(0);
    out.put_noted(
        "fleet.restart_replay_ms",
        run.fleet.restart_controller()?,
        format!("Controller::spawn replaying {journaled} journaled jobs"),
    );
    Ok((run.pass, out))
}
