//! `serve-job` and `serve-stream`: the same solvers behind an in-process
//! `swlb-serve`, and the probes of the io, sim (elastic) and serve layers.

use crate::checks::{self, REFERENCE_N, REFERENCE_STEPS};
use crate::inputs::{cavity_case, cavity_job, tiny_case, tiny_jobs, TINY_N, TINY_STEPS};
use crate::ranks;
use crate::run::{ctx, Ctx, Layers, Pass, Stop};
use crate::stats::{median, timing};
use crate::surface::{
    colormap_viridis_like, json_parse, write_ppm, CaseSpec, CheckpointStore, JobSpec, Journal,
    JournalConfig, Json, LatticeKind, PpmImage, Recorder, ServeClient, ServeConfig, Server,
    SwlbError, ThreadPool, D2Q9, D3Q19,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Steps of the one timed `serve-job` job, whatever `--seconds` says: one
/// default scheduler slice. A longer job would checkpoint between slices, and
/// a 300 MB fsync takes anything from 0.2 s to 30 s on a shared disk, which
/// drowns every other cost of the job; the checkpoint is measured on its own
/// as `io.ckpt_*`.
const JOB_STEPS: u64 = 32;
const WARMUP_JOB_STEPS: u64 = 8;
/// Warm-up jobs of `serve-stream`, and the size of the batches its rate is
/// the median of. The stream is one batch per second of `--seconds`: a fixed
/// job count, because the server's resident set grows with every job it has
/// seen and `peak_rss_mib` must not depend on how fast the host is today.
const STREAM_WARMUP: u64 = 100;
const BATCH: usize = 250;
/// Enough clients that the scheduler always has a job waiting. With two, a
/// job either finds the scheduler idle or queues behind the other client's
/// job, the latency distribution has two modes, and its median jumps between
/// them from run to run.
const CLIENTS: usize = 4;

/// A running in-process server and a client for it. Dropping it drains and
/// joins the server, on every path.
pub struct Service {
    server: Option<Server>,
    pub client: ServeClient,
    pub dir: PathBuf,
    pub spawn_ms: f64,
}

impl Service {
    /// `configure` adjusts the default `ServeConfig::new(dir)`.
    pub fn spawn(dir: PathBuf, configure: impl FnOnce(&mut ServeConfig)) -> Result<Self, String> {
        let mut cfg = ServeConfig::new(&dir);
        configure(&mut cfg);
        let t0 = Instant::now();
        let server = Server::spawn(cfg).map_err(ctx("Server::spawn"))?;
        let spawn_ms = t0.elapsed().as_secs_f64() * 1e3;
        Ok(Service {
            client: ServeClient::new(server.addr().to_string()),
            server: Some(server),
            dir,
            spawn_ms,
        })
    }

    pub fn addr(&self) -> String {
        self.server
            .as_ref()
            .expect("live until drop")
            .addr()
            .to_string()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// Hold a case, built exactly as the service builds it (`width` ranks), to
/// the serial generic reference at the reference size.
pub fn check_case_reference(what: &str, case: &CaseSpec, width: u32) -> Result<(), String> {
    let small = CaseSpec {
        nx: REFERENCE_N,
        ny: REFERENCE_N,
        nz: if case.lattice == LatticeKind::D3Q19 {
            REFERENCE_N
        } else {
            1
        },
        ..case.clone()
    };
    let mut s = small
        .build_with_width(ThreadPool::new(1), Recorder::disabled(), width)
        .map_err(ctx("build reference case"))?;
    let init = s.capture().data;
    s.run_checked(REFERENCE_STEPS, REFERENCE_STEPS)
        .map_err(ctx("run reference case"))?;
    let got = s.capture().data;
    match case.lattice {
        LatticeKind::D2Q9 => {
            checks::require_reference::<D2Q9>(what, s.flags(), case.tau, &init, &got)
        }
        LatticeKind::D3Q19 => {
            checks::require_reference::<D3Q19>(what, s.flags(), case.tau, &init, &got)
        }
    }
}

fn field_u64(status: &Json, key: &str) -> u64 {
    status.get(key).and_then(Json::as_u64).unwrap_or(u64::MAX)
}

/// Whether a terminal status is the one a healthy job ends with.
pub fn completed_cleanly(status: &Json, steps: u64) -> bool {
    status.get("state").and_then(Json::as_str) == Some("completed")
        && field_u64(status, "steps_done") == steps
        && field_u64(status, "rollbacks") == 0
}

pub fn is_terminal(status: &Json) -> bool {
    matches!(
        status.get("state").and_then(Json::as_str),
        Some("completed" | "failed" | "cancelled")
    )
}

/// What one job through the service produced.
struct JobRun {
    ok: bool,
    latency_s: f64,
    reported_mlups: f64,
    slices: usize,
    id: u64,
}

/// Submit `spec`, block on its event stream to the terminal event, and check
/// status and output.
fn run_job(service: &Service, spec: &JobSpec, group: u64, cx: &Ctx) -> Result<JobRun, String> {
    let client = &service.client;
    let span = cx.tracer.open("job", group, None);
    let t0 = Instant::now();
    let (id, _) = cx
        .tracer
        .time("client.submit", group, span, || client.submit(spec));
    let id = id.map_err(ctx("submit"))?;
    let (events, _) = cx
        .tracer
        .time("client.watch", group, span, || client.watch(id, 0));
    let latency_s = t0.elapsed().as_secs_f64();
    let events = events.map_err(ctx("watch"))?;
    let (status, _) = cx
        .tracer
        .time("client.status", group, span, || client.status(id));
    let status = status.map_err(ctx("status"))?;
    cx.tracer.close(span);

    let n = spec.case.nx;
    let ppm = service.dir.join(format!("jobs/job-{id}/speed.ppm"));
    let want_len = format!("P6\n{n} {n}\n255\n").len() + 3 * n * n;
    let ppm_ok = std::fs::metadata(&ppm).is_ok_and(|m| m.len() == want_len as u64);
    Ok(JobRun {
        ok: completed_cleanly(&status, spec.steps) && ppm_ok,
        latency_s,
        reported_mlups: status.get("mlups").and_then(Json::as_f64).unwrap_or(0.0),
        slices: events
            .iter()
            .filter(|e| e.contains("\"event\":\"progress\""))
            .count(),
        id,
    })
}

/// Set up `setups` times (reference check, spawn, warm-up job) and keep the
/// last service.
fn job_service(cx: &Ctx, setups: usize) -> Result<(Service, f64, f64), String> {
    let case = cavity_case(cx.scale.n3());
    let off = crate::trace::Tracer::new(false);
    let (mut setup_s, mut spawns) = (Vec::new(), Vec::new());
    let mut last = None;
    for i in 0..setups {
        drop(last.take());
        let t0 = Instant::now();
        check_case_reference("serve-job", &case, 2)?;
        let service = Service::spawn(cx.state_dir("serve-job")?, |_| {})?;
        let warm = cavity_job(&format!("warm-{i}"), case.nx, WARMUP_JOB_STEPS, 2);
        if !run_job(&service, &warm, u64::MAX, &cx.with_tracer(&off))?.ok {
            return Err("warm-up job did not complete cleanly".into());
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        spawns.push(service.spawn_ms);
        last = Some(service);
    }
    Ok((
        last.expect("setups >= 1"),
        median(&setup_s),
        median(&spawns),
    ))
}

fn job_pass_of(run: &JobRun, spec: &JobSpec, setup_s: f64) -> Pass {
    let cells = spec.case.dims().cells();
    Pass {
        setup_s,
        attempted: 1,
        failed: u64::from(!run.ok),
        mlups: cells as f64 * spec.steps as f64 / run.latency_s / 1e6,
        jobs_per_s: 1.0 / run.latency_s,
        latency_p50_ms: run.latency_s * 1e3,
        op_s: run.latency_s,
        notes: vec![format!(
            "ServeConfig::new defaults; one job: {} steps over {cells} cells, width {}, output ppm; \
             delivered MLUPS = cells x steps / (submit -> terminal event), n=1",
            spec.steps, spec.width
        )],
    }
}

pub fn measure_job(cx: &Ctx) -> Result<Pass, String> {
    let (service, setup_s, _) = job_service(cx, cx.setups)?;
    let spec = cavity_job("timed", cx.scale.n3(), JOB_STEPS, 2);
    let run = run_job(&service, &spec, 0, cx)?;
    Ok(job_pass_of(&run, &spec, setup_s))
}

fn ms_of<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

pub fn layers_job(cx: &Ctx) -> Result<(Pass, Layers), String> {
    let n = cx.scale.n3();
    let steps = JOB_STEPS;
    let case = cavity_case(n);
    let cells = case.dims().cells() as f64;
    let mut out = Layers::default();

    let (service, setup_s, spawn_ms) = job_service(cx, 1)?;
    let spec = cavity_job("traced", n, steps, 2);
    let run = run_job(&service, &spec, 0, cx)?;
    let pass = job_pass_of(&run, &spec, setup_s);
    let ckpts = CheckpointStore::new(service.dir.join("checkpoints"), 2)
        .and_then(|s| s.namespaced(&format!("job-{}", run.id)))
        .and_then(|s| s.list())
        .map_err(ctx("list the job's checkpoints"))?;
    let narrow = run_job(&service, &cavity_job("width-1", n, steps, 1), 1, cx)?;
    drop(service);
    if !narrow.ok {
        return Err("the width-1 job did not complete cleanly".into());
    }
    out.put("serve.spawn_ms", spawn_ms);
    out.put_noted(
        "serve.reported_mlups",
        run.reported_mlups,
        "the job's own figure",
    );
    out.put(
        "serve.outside_compute_share",
        1.0 - pass.mlups / run.reported_mlups,
    );
    out.put(
        "serve.delivered_w1_mlups",
        cells * steps as f64 / narrow.latency_s / 1e6,
    );
    out.put_noted(
        "serve.slices",
        run.slices as f64,
        "progress events of the traced job",
    );
    out.put_noted(
        "serve.checkpoints",
        ckpts.len() as f64,
        "exact; files in the job's checkpoint namespace",
    );

    bare_and_checkpoint_probes(cx, &case, pass.mlups, &mut out)?;
    elastic_probes(cx, &case, &mut out)?;
    Ok((pass, out))
}

/// The same case with nothing around it, and what capturing, writing and
/// reading back its state costs.
fn bare_and_checkpoint_probes(
    cx: &Ctx,
    case: &CaseSpec,
    delivered_mlups: f64,
    out: &mut Layers,
) -> Result<(), String> {
    let steps = JOB_STEPS;
    let cells = case.dims().cells() as f64;
    // On the server's thread budget.
    let mut bare = case
        .build(ThreadPool::new(2), Recorder::disabled())
        .map_err(ctx("build bare case"))?;
    let (ran, bare_ms) = ms_of(|| bare.run_checked(steps, steps));
    ran.map_err(ctx("bare run_checked"))?;
    out.put_noted(
        "serve.delivered_over_bare",
        delivered_mlups / (cells * steps as f64 / bare_ms / 1e3),
        "over CaseSpec::build(ThreadPool::new(2)) + run_checked of the same case and steps",
    );

    let (ck, capture_ms) = ms_of(|| bare.capture_chunked());
    let (restored, restore_ms) = ms_of(|| bare.restore_chunked_state(&ck));
    restored.map_err(ctx("restore_chunked_state"))?;
    out.put("sim.capture_chunked_ms", capture_ms);
    out.put("sim.restore_chunked_ms", restore_ms);
    drop(bare);

    let store =
        CheckpointStore::new(cx.state_dir("ckpt")?, 2).map_err(ctx("open checkpoint store"))?;
    let (saved, write_ms) = ms_of(|| store.save_chunked(&ck));
    let path = saved.map_err(ctx("save_chunked"))?;
    let bytes = std::fs::metadata(&path)
        .map_err(ctx("stat checkpoint"))?
        .len();
    let (loaded, read_ms) = ms_of(|| store.load_latest_valid_any());
    if loaded.map_err(ctx("load_latest_valid_any"))?.is_none() {
        return Err("the checkpoint just written does not load".into());
    }
    drop(ck);
    out.put_noted("io.ckpt_bytes", bytes as f64, "exact");
    out.put("io.ckpt_write_ms", write_ms);
    out.put("io.ckpt_write_mb_s", bytes as f64 / 1e3 / write_ms);
    out.put("io.ckpt_read_ms", read_ms);

    Ok(())
}

/// What an elastic slice costs on top of the two ranks it runs on.
fn elastic_probes(cx: &Ctx, case: &CaseSpec, out: &mut Layers) -> Result<(), String> {
    let n = case.nx;
    let cells = case.dims().cells() as f64;
    let mut elastic = case
        .build_with_width(ThreadPool::new(1), Recorder::disabled(), 2)
        .map_err(ctx("build elastic case"))?;
    let slice = ServeConfig::new(cx.tmp).slice_steps;
    let (ran, slice_ms) = ms_of(|| elastic.run_checked(slice, slice));
    ran.map_err(ctx("elastic slice"))?;
    let elastic_mlups = cells * slice as f64 / slice_ms / 1e3;
    out.put_noted(
        "sim.elastic_slice_mlups",
        elastic_mlups,
        format!("build_with_width(2), one {slice}-step slice, n=1"),
    );
    let (resharded, reshard_ms) = ms_of(|| -> Result<(), SwlbError> {
        elastic.set_width(1);
        elastic.run_checked(1, 1)?;
        elastic.set_width(2);
        elastic.run_checked(1, 1)
    });
    resharded.map_err(ctx("reshard"))?;
    out.put_noted(
        "sim.elastic_reshard_ms",
        reshard_ms,
        "set_width 2 -> 1 -> 2 with the one-step slice each width needs to take effect",
    );
    let (ppm, ppm_ms) = ms_of(|| -> std::io::Result<()> {
        let img = PpmImage::from_scalar(n, n, &elastic.slice_speed(), colormap_viridis_like);
        write_ppm(&mut std::fs::File::create(cx.tmp.join("probe.ppm"))?, &img)
    });
    ppm.map_err(ctx("write ppm"))?;
    out.put("io.ppm_write_ms", ppm_ms);
    drop(elastic);
    let off = crate::trace::Tracer::new(false);
    out.put_noted(
        "sim.elastic_overhead_share",
        1.0 - elastic_mlups / ranks::plain_two_rank_mlups(&cx.with_tracer(&off))?,
        "1 - elastic slice / 2 ranks, both AB k=1",
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// serve-stream
// ---------------------------------------------------------------------------

/// What a closed loop of tiny jobs observed, one entry per job.
#[derive(Default)]
pub struct StreamOut {
    pub latency_ms: Vec<f64>,
    /// When each job was observed terminal, in seconds since the loop began.
    pub done_s: Vec<f64>,
    pub submit_ms: Vec<f64>,
    pub status_ms: Vec<f64>,
    pub failed: u64,
    pub rejected: u64,
    pub retries: u64,
    pub wall_s: f64,
}

/// How a client learns that its job is terminal.
#[derive(Clone, Copy)]
pub enum Wait {
    /// Block on the job's event stream, as `swlb watch` does.
    Watch,
    /// Ask for the status at this interval (the fleet has no event stream).
    Poll(Duration),
}

/// Closed loop: `clients` threads, one outstanding job each, taking `jobs` in
/// list order until `stop` (or the list ends) and waiting for each as `wait`
/// says.
pub fn closed_loop(
    client: &ServeClient,
    jobs: &[JobSpec],
    clients: usize,
    stop: Stop,
    wait: Wait,
    clean: fn(&Json, u64) -> bool,
    cx: &Ctx,
) -> StreamOut {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let parts: Vec<StreamOut> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = StreamOut::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = jobs.get(i).filter(|_| !stop.reached(i as u64)) else {
                            break out;
                        };
                        one_tiny_job(client, spec, i as u64, wait, clean, cx, &mut out);
                        out.done_s.push(t0.elapsed().as_secs_f64());
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a client thread panicked"))
            .collect()
    });
    let mut all = StreamOut {
        wall_s: t0.elapsed().as_secs_f64(),
        ..StreamOut::default()
    };
    for p in parts {
        all.latency_ms.extend(p.latency_ms);
        all.done_s.extend(p.done_s);
        all.submit_ms.extend(p.submit_ms);
        all.status_ms.extend(p.status_ms);
        all.failed += p.failed;
        all.rejected += p.rejected;
        all.retries += p.retries;
    }
    all
}

fn one_tiny_job(
    client: &ServeClient,
    spec: &JobSpec,
    group: u64,
    wait: Wait,
    clean: fn(&Json, u64) -> bool,
    cx: &Ctx,
    out: &mut StreamOut,
) {
    let span = cx.tracer.open("job", group, None);
    let t0 = Instant::now();
    let (ack, secs) = cx.tracer.time("client.submit", group, span, || {
        client.submit_with_retry(spec, 3, Duration::from_millis(10))
    });
    out.submit_ms.push(secs * 1e3);
    let ok = match ack {
        Err(e) => {
            out.rejected += u64::from(matches!(e, SwlbError::Rejected { .. }));
            false
        }
        Ok((id, retries)) => {
            out.retries += u64::from(retries);
            // Without a poll interval, block on the job's event stream, which
            // ends at the terminal event, and read the status once.
            let streamed = match wait {
                Wait::Poll(_) => true,
                Wait::Watch => {
                    let watch = || client.watch_with(id, 0, |_| true);
                    cx.tracer.time("client.watch", group, span, watch).0.is_ok()
                }
            };
            streamed
                && loop {
                    if let Wait::Poll(every) = wait {
                        std::thread::sleep(every);
                    }
                    let (status, secs) = cx
                        .tracer
                        .time("client.status", group, span, || client.status(id));
                    out.status_ms.push(secs * 1e3);
                    match status {
                        Ok(s) if is_terminal(&s) => break clean(&s, spec.steps),
                        Ok(_) if matches!(wait, Wait::Poll(_)) => {}
                        _ => break false,
                    }
                }
        }
    };
    out.latency_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    out.failed += u64::from(!ok);
    cx.tracer.close(span);
}

/// Lattice updates in one tiny job.
pub const TINY_LUPS: f64 = (TINY_N * TINY_N) as f64 * TINY_STEPS as f64;

/// Jobs per second of the median batch of `size` jobs, cut by completion
/// order (a trailing partial batch is left out): a stall that hits a few
/// batches does not move it. Also returns how many batches there were.
fn median_batch_rate(done_s: &[f64], size: usize) -> (f64, usize) {
    let mut done = done_s.to_vec();
    done.sort_by(f64::total_cmp);
    let size = size.clamp(1, done.len().max(1));
    let mut start = 0.0;
    let rates: Vec<f64> = done
        .chunks_exact(size)
        .map(|batch| {
            let end = batch[size - 1];
            let rate = size as f64 / (end - start);
            start = end;
            rate
        })
        .collect();
    (median(&rates), rates.len())
}

/// `batch` is the size of the batches the rate is the median of.
pub fn stream_pass_of(run: &StreamOut, batch: usize, setup_s: f64, what: &str) -> Pass {
    let jobs = run.latency_ms.len();
    let (jobs_per_s, batches) = median_batch_rate(&run.done_s, batch);
    Pass {
        setup_s,
        attempted: jobs as u64,
        failed: run.failed,
        mlups: jobs_per_s * TINY_LUPS / 1e6,
        jobs_per_s,
        latency_p50_ms: median(&run.latency_ms),
        op_s: median(&run.latency_ms) / 1e3,
        notes: vec![format!(
            "{what}; tiny job = {:?} x {TINY_STEPS} steps; latency = submit call -> terminal state observed, \
             n={jobs}; jobs_per_s = median of {batches} batches by completion order (whole stream: {:.1}/s)",
            tiny_case(),
            jobs as f64 / run.wall_s
        )],
    }
}

fn stream_service(cx: &Ctx) -> Result<(Service, f64), String> {
    let warmup = tiny_jobs(cx.seed ^ 0x5eed, cx.scale.reps(STREAM_WARMUP));
    let off = crate::trace::Tracer::new(false);
    let plain = cx.with_tracer(&off);
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..cx.setups {
        drop(last.take());
        let t0 = Instant::now();
        check_case_reference("serve-stream", &tiny_case(), 1)?;
        let service = Service::spawn(cx.state_dir("serve-stream")?, |_| {})?;
        let warm = closed_loop(
            &service.client,
            &warmup,
            CLIENTS,
            Stop::LIST_END,
            Wait::Watch,
            completed_cleanly,
            &plain,
        );
        if warm.failed > 0 {
            return Err(format!("{} warm-up jobs failed", warm.failed));
        }
        setups.push(t0.elapsed().as_secs_f64());
        last = Some(service);
    }
    Ok((last.expect("setups >= 1"), median(&setups)))
}

/// The timed stream on a warmed-up service: one batch of jobs per second of
/// `--seconds`, at least three (60 jobs in three batches under smoke).
fn timed_stream(service: &Service, cx: &Ctx) -> (StreamOut, usize) {
    let (batch, batches) = if cx.scale.smoke {
        (20, 3)
    } else {
        (BATCH, (cx.scale.seconds.round() as usize).max(3))
    };
    let jobs = tiny_jobs(cx.seed, batch * batches);
    let run = closed_loop(
        &service.client,
        &jobs,
        CLIENTS,
        Stop::LIST_END,
        Wait::Watch,
        completed_cleanly,
        cx,
    );
    (run, batch)
}

const STREAM_WHAT: &str =
    "ServeConfig::new defaults; closed loop, 4 clients x 1 outstanding job, each blocking on its job's event stream";

pub fn measure_stream(cx: &Ctx) -> Result<Pass, String> {
    let (service, setup_s) = stream_service(cx)?;
    let (run, batch) = timed_stream(&service, cx);
    Ok(stream_pass_of(&run, batch, setup_s, STREAM_WHAT))
}

/// Milliseconds from the submit acknowledgement to the arrival of the job's
/// `started` event on its event stream.
fn queue_wait_ms(client: &ServeClient, spec: &JobSpec) -> Result<f64, String> {
    let id = client.submit(spec).map_err(ctx("submit"))?;
    let acked = Instant::now();
    let mut started = None;
    client
        .watch_with(id, 0, |event| {
            if started.is_none() && event.contains("\"event\":\"started\"") {
                started = Some(acked.elapsed().as_secs_f64() * 1e3);
            }
            true
        })
        .map_err(ctx("watch"))?;
    started.ok_or_else(|| "the job never reported `started`".into())
}

pub fn layers_stream(cx: &Ctx) -> Result<(Pass, Layers), String> {
    let mut out = Layers::default();
    let (service, setup_s) = stream_service(cx)?;
    let (run, batch) = timed_stream(&service, cx);
    let pass = stream_pass_of(&run, batch, setup_s, STREAM_WHAT);

    let submit = timing(&run.submit_ms, 99.0);
    let note = format!("n={} tail=p{:.1}", submit.n, submit.tail_pct);
    out.put_noted("serve.submit_ms_p50", submit.p50, note.clone());
    out.put_noted("serve.submit_ms_p99", submit.tail, note);
    out.put_noted(
        "serve.status_ms_p50",
        median(&run.status_ms),
        format!("n={}", run.status_ms.len()),
    );
    let latency = timing(&run.latency_ms, 99.0);
    out.put_noted(
        "serve.job_latency_p99_ms",
        latency.tail,
        format!("n={} tail=p{:.1}", latency.n, latency.tail_pct),
    );
    out.put("serve.retries", run.retries as f64);
    let stats = service.client.stats().map_err(ctx("stats"))?;
    let rejected = stats.get("rejected").and_then(Json::as_u64).unwrap_or(0);
    out.put("serve.rejected", rejected.max(run.rejected) as f64);

    let probes = tiny_jobs(cx.seed ^ 0xa11, cx.scale.reps(100));
    let waits: Vec<f64> = probes
        .iter()
        .map(|spec| queue_wait_ms(&service.client, spec))
        .collect::<Result<_, _>>()?;
    out.put_noted(
        "serve.queue_wait_ms_p50",
        median(&waits),
        format!(
            "n={}, one job at a time, ack -> `started` event on the watch stream",
            waits.len()
        ),
    );

    // Restart on the state directory the stream left behind.
    let dir = service.dir.clone();
    drop(service);
    let restarted = Service::spawn(dir, |_| {})?;
    out.put_noted(
        "serve.restart_replay_ms",
        restarted.spawn_ms,
        format!(
            "Server::spawn replaying the journal of {} jobs",
            run.latency_ms.len() + probes.len()
        ),
    );
    drop(restarted);

    let specs = tiny_jobs(cx.seed, cx.scale.reps(1000));
    let round_trips = specs.len();
    let t0 = Instant::now();
    for spec in &specs {
        let parsed = json_parse(&spec.to_json().to_text()).and_then(|v| JobSpec::from_json(&v));
        if parsed.map_err(ctx("spec round trip"))? != *spec {
            return Err("a job spec changed on its JSON round trip".into());
        }
    }
    out.put_noted(
        "serve.json_spec_roundtrip_us",
        t0.elapsed().as_secs_f64() * 1e6 / round_trips as f64,
        format!("to_json + to_text + parse + from_json, mean of {round_trips}"),
    );
    journal_probes(cx, &mut out)?;
    Ok((pass, out))
}

fn journal_probes(cx: &Ctx, out: &mut Layers) -> Result<(), String> {
    let record = tiny_jobs(cx.seed, 1)[0].to_json().to_text();
    let append_us = |journal: &mut Journal, durable: bool, n: usize| -> Result<Vec<f64>, String> {
        (0..n)
            .map(|_| {
                let t0 = Instant::now();
                journal
                    .append(&record, durable)
                    .map_err(ctx("journal append"))?;
                Ok(t0.elapsed().as_secs_f64() * 1e6)
            })
            .collect()
    };
    let dir = cx.state_dir("journal")?;
    let mut journal = Journal::open(&dir, JournalConfig::default()).map_err(ctx("open journal"))?;
    let durable = append_us(&mut journal, true, cx.scale.reps(200))?;
    let buffered = append_us(&mut journal, false, cx.scale.reps(5000))?;
    out.put_noted(
        "io.journal_append_durable_us_p50",
        median(&durable),
        format!("n={}, fsync per record", durable.len()),
    );
    out.put_noted(
        "io.journal_append_buffered_us_p50",
        median(&buffered),
        format!("n={}, JournalConfig::default() batching", buffered.len()),
    );
    drop(journal);

    let replay_dir = cx.state_dir("journal-replay")?;
    let records = if cx.scale.smoke { 1000 } else { 10_000 };
    let mut journal =
        Journal::open(&replay_dir, JournalConfig::default()).map_err(ctx("open journal"))?;
    for _ in 0..records {
        journal
            .append(&record, false)
            .map_err(ctx("journal append"))?;
    }
    journal.sync().map_err(ctx("journal sync"))?;
    drop(journal);
    let (replayed, ms) = ms_of(|| Journal::replay(Path::new(&replay_dir)));
    let (lines, _) = replayed.map_err(ctx("journal replay"))?;
    if lines.len() != records {
        return Err(format!(
            "replay returned {} of {records} records",
            lines.len()
        ));
    }
    out.put_noted("io.journal_replay_ms", ms, format!("{records} records"));
    Ok(())
}
