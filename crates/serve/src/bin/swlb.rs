//! `swlb` — the SunwayLB-RS front-end.
//!
//! Two modes. **Batch** mirrors how SunwayLB is driven by input decks: pick a
//! built-in case family, optionally override parameters with a `key = value`
//! config file, run in-process, and drop post-processing artifacts (PPM
//! slice, VTK volume, probe CSV) in the working directory. **Service** talks
//! to a resident `swlb serve` instance over its HTTP/1.1 + JSON API.
//!
//! ```text
//! swlb <cavity|channel|cylinder|taylor-green> [config-file] [flags]
//! swlb serve  [--addr 127.0.0.1:7420] [--dir swlb-serve] [--capacity N]
//!             [--slice-steps N] [--threads N]
//! swlb submit [--addr HOST:PORT] [--name N] [--case cavity] [--lattice d2q9]
//!             [--nx N] [--ny N] [--nz N] [--tau T] [--u U] [--steps N]
//!             [--storage ab|aa] [--time-block K] [--width N]
//!             [--priority interactive|batch]
//!             [--output vtk|ppm] [--deadline-ms N] [--chaos-at STEP]
//! swlb status [--addr HOST:PORT] [job-id]
//! swlb watch  [--addr HOST:PORT] <job-id> [--from N]
//! swlb cancel [--addr HOST:PORT] <job-id>
//! swlb drain  [--addr HOST:PORT]
//! ```
//!
//! Batch flags:
//!
//! * `--metrics <path>` — enable the observability recorder and stream JSONL
//!   snapshots (step, wall time, per-phase ns, MLUPS, fault counters) to
//!   `<path>`; see `docs/OBSERVABILITY.md` for the schema.
//! * `--metrics-every <steps>` — snapshot cadence (default 100).
//! * `--quiet` — suppress progress chatter; the exit summary collapses to a
//!   single machine-parseable JSON line on stdout.

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use swlb_core::post::vorticity_z;
use swlb_core::prelude::*;
use swlb_core::stability;
use swlb_io::{colormap_viridis_like, write_ppm, write_vtk_scalars, PpmImage, ProbeLog};
use swlb_mesh::cylinder_z_mask;
use swlb_obs::{JsonlSink, Recorder, SummarySink};
use swlb_serve::{
    CaseKind, CaseSpec, JobSpec, Json, LatticeKind, OutputKind, Priority, ServeClient, ServeConfig,
    Server,
};
use swlb_sim::forces::momentum_exchange_force;
use swlb_sim::CaseConfig;

const DEFAULT_ADDR: &str = "127.0.0.1:7420";

/// The core prelude exports a one-parameter `Result` alias; CLI plumbing
/// wants string errors.
type CliResult<T> = std::result::Result<T, String>;

fn usage() -> ExitCode {
    eprintln!(
        "usage: swlb <cavity|channel|cylinder|taylor-green> [config-file] \
         [--metrics <path>] [--metrics-every <steps>] [--quiet]\n\
         \x20      swlb serve  [--addr HOST:PORT] [--dir PATH] [--capacity N] \
         [--slice-steps N] [--threads N] [--metrics <path>] \
         [--io-timeout-ms N] [--chaos-routes]\n\
         \x20      swlb submit [--addr HOST:PORT] [--name N] [--case C] [--lattice L] \
         [--nx N] [--ny N] [--nz N] [--tau T] [--u U] [--steps N] [--storage ab|aa] \
         [--time-block K] [--width N] [--priority P] [--output vtk|ppm] \
         [--deadline-ms N] [--chaos-at STEP] [--tenant T] [--retries N]\n\
         \x20      swlb status [--addr HOST:PORT] [job-id]\n\
         \x20      swlb watch  [--addr HOST:PORT] <job-id> [--from N]\n\
         \x20      swlb cancel [--addr HOST:PORT] <job-id>\n\
         \x20      swlb drain  [--addr HOST:PORT]\n\
         \x20      swlb stats  [--addr HOST:PORT]"
    );
    eprintln!("config keys: name nx ny nz tau u_lattice steps output_every ranks");
    ExitCode::FAILURE
}

/// Everything a case run needs besides its physics: the recorder (disabled
/// unless `--metrics` was given) and the chatter switch.
struct RunCtx {
    recorder: Recorder,
    quiet: bool,
}

impl RunCtx {
    fn say(&self, msg: std::fmt::Arguments<'_>) {
        if !self.quiet {
            println!("{msg}");
        }
    }
}

macro_rules! say {
    ($ctx:expr, $($arg:tt)*) => { $ctx.say(format_args!($($arg)*)) };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => return cmd_serve(&args[1..]),
        Some("submit") => return cmd_submit(&args[1..]),
        Some("status") => return cmd_status(&args[1..]),
        Some("watch") => return cmd_watch(&args[1..]),
        Some("cancel") => return cmd_cancel(&args[1..]),
        Some("drain") => return cmd_drain(&args[1..]),
        Some("stats") => return cmd_stats(&args[1..]),
        _ => {}
    }
    batch_main(&args)
}

// ---------------------------------------------------------------------------
// Service subcommands
// ---------------------------------------------------------------------------

/// Pull `--flag value` out of an argument list.
fn flag_value(args: &[String], flag: &str) -> CliResult<Option<String>> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            return match it.next() {
                Some(v) => Ok(Some(v.clone())),
                None => Err(format!("{flag} needs a value")),
            };
        }
    }
    Ok(None)
}

fn addr_of(args: &[String]) -> CliResult<String> {
    Ok(flag_value(args, "--addr")?.unwrap_or_else(|| DEFAULT_ADDR.to_string()))
}

/// First argument that is not a flag or a flag's value.
fn positional(args: &[String]) -> Option<&str> {
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = true; // every service flag takes a value
            continue;
        }
        return Some(a);
    }
    None
}

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let parsed = (|| -> CliResult<ServeConfig> {
        let dir = flag_value(args, "--dir")?.unwrap_or_else(|| "swlb-serve".into());
        let mut cfg = ServeConfig::new(dir);
        cfg.addr = flag_value(args, "--addr")?.unwrap_or_else(|| DEFAULT_ADDR.to_string());
        if let Some(v) = flag_value(args, "--capacity")? {
            cfg.capacity = v.parse().map_err(|_| "--capacity needs an integer")?;
        }
        if let Some(v) = flag_value(args, "--slice-steps")? {
            cfg.slice_steps = v.parse().map_err(|_| "--slice-steps needs an integer")?;
        }
        if let Some(v) = flag_value(args, "--threads")? {
            cfg.threads = v.parse().map_err(|_| "--threads needs an integer")?;
        }
        if let Some(v) = flag_value(args, "--io-timeout-ms")? {
            let ms: u64 = v.parse().map_err(|_| "--io-timeout-ms needs an integer")?;
            cfg.io_timeout = if ms == 0 {
                None
            } else {
                Some(std::time::Duration::from_millis(ms))
            };
        }
        cfg.chaos_routes = args.iter().any(|a| a == "--chaos-routes");
        if let Some(path) = flag_value(args, "--metrics")? {
            let rec = Recorder::enabled();
            let sink = JsonlSink::create(&path).map_err(|e| format!("{path}: {e}"))?;
            rec.add_sink(Box::new(sink));
            rec.set_flush_every(cfg.slice_steps);
            cfg.recorder = rec;
        }
        Ok(cfg)
    })();
    let cfg = match parsed {
        Ok(c) => c,
        Err(e) => return fail(e),
    };
    let base_dir = cfg.base_dir.clone();
    let server = match Server::spawn(cfg) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    println!(
        "swlb-serve listening on {} (state in {})",
        server.addr(),
        base_dir.display()
    );
    // Resident service: run until the process is killed.
    loop {
        std::thread::park();
    }
}

fn cmd_submit(args: &[String]) -> ExitCode {
    let built = (|| -> CliResult<(String, JobSpec)> {
        let addr = addr_of(args)?;
        let case_name = flag_value(args, "--case")?.unwrap_or_else(|| "cavity".into());
        let case = CaseKind::parse(&case_name).ok_or(format!("unknown case {case_name:?}"))?;
        let lattice_name = flag_value(args, "--lattice")?.unwrap_or_else(|| "d2q9".into());
        let lattice =
            LatticeKind::parse(&lattice_name).ok_or(format!("unknown lattice {lattice_name:?}"))?;
        let num = |flag: &str, default: usize| -> CliResult<usize> {
            match flag_value(args, flag)? {
                Some(v) => v.parse().map_err(|_| format!("{flag} needs an integer")),
                None => Ok(default),
            }
        };
        let fnum = |flag: &str, default: f64| -> CliResult<f64> {
            match flag_value(args, flag)? {
                Some(v) => v.parse().map_err(|_| format!("{flag} needs a number")),
                None => Ok(default),
            }
        };
        let priority_name = flag_value(args, "--priority")?.unwrap_or_else(|| "batch".into());
        let priority =
            Priority::parse(&priority_name).ok_or(format!("unknown priority {priority_name:?}"))?;
        let storage_name = flag_value(args, "--storage")?.unwrap_or_else(|| "ab".into());
        let storage = StorageScheme::parse(&storage_name).ok_or(format!(
            "unknown storage scheme {storage_name:?} (want ab|aa)"
        ))?;
        let mut outputs = Vec::new();
        let mut rest: &[String] = args;
        while let Some(pos) = rest.iter().position(|a| a == "--output") {
            let v = rest
                .get(pos + 1)
                .ok_or("--output needs a value".to_string())?;
            outputs.push(OutputKind::parse(v).ok_or(format!("unknown output {v:?}"))?);
            rest = &rest[pos + 2..];
        }
        let spec = JobSpec {
            name: flag_value(args, "--name")?.unwrap_or_else(|| case_name.clone()),
            case: CaseSpec {
                case,
                lattice,
                nx: num("--nx", 64)?,
                ny: num("--ny", 64)?,
                nz: num("--nz", if lattice == LatticeKind::D2Q9 { 1 } else { 64 })?,
                tau: fnum("--tau", 0.8)?,
                u_lattice: fnum("--u", 0.05)?,
                storage,
                time_block: num("--time-block", 1)?,
            },
            steps: num("--steps", 1000)? as u64,
            priority,
            deadline_ms: flag_value(args, "--deadline-ms")?
                .map(|v| v.parse().map_err(|_| "--deadline-ms needs an integer"))
                .transpose()?,
            outputs,
            chaos_nan_at_step: flag_value(args, "--chaos-at")?
                .map(|v| v.parse().map_err(|_| "--chaos-at needs an integer"))
                .transpose()?,
            width: match flag_value(args, "--width")? {
                Some(v) => v.parse().map_err(|_| "--width needs an integer")?,
                None => 1,
            },
            tenant: flag_value(args, "--tenant")?
                .unwrap_or_else(|| swlb_serve::DEFAULT_TENANT.to_string()),
        };
        Ok((addr, spec))
    })();
    let (addr, spec) = match built {
        Ok(v) => v,
        Err(e) => return fail(e),
    };
    let retries: u32 = match flag_value(args, "--retries") {
        Ok(v) => match v.map(|v| v.parse()).transpose() {
            Ok(n) => n.unwrap_or(3),
            Err(_) => return fail("--retries needs an integer"),
        },
        Err(e) => return fail(e),
    };
    match ServeClient::new(addr).submit_with_retry(
        &spec,
        retries,
        std::time::Duration::from_millis(250),
    ) {
        Ok((id, used)) => {
            if used > 0 {
                eprintln!("warning: service degraded, retried {used} times before acceptance");
            }
            println!("{}", Json::obj([("id", Json::num(id as f64))]).to_text());
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

fn cmd_status(args: &[String]) -> ExitCode {
    let addr = match addr_of(args) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let client = ServeClient::new(addr);
    match positional(args).map(str::parse::<u64>) {
        Some(Ok(id)) => match client.status(id) {
            Ok(v) => {
                println!("{}", v.to_text());
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        },
        Some(Err(_)) => fail("job id must be an integer"),
        None => match client.list() {
            Ok(items) => {
                for v in items {
                    println!("{}", v.to_text());
                }
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        },
    }
}

fn cmd_watch(args: &[String]) -> ExitCode {
    let parsed = (|| -> CliResult<(String, u64, usize)> {
        let addr = addr_of(args)?;
        let id = positional(args)
            .ok_or("watch needs a job id")?
            .parse()
            .map_err(|_| "job id must be an integer")?;
        let from = match flag_value(args, "--from")? {
            Some(v) => v.parse().map_err(|_| "--from needs an integer")?,
            None => 0,
        };
        Ok((addr, id, from))
    })();
    let (addr, id, from) = match parsed {
        Ok(v) => v,
        Err(e) => return fail(e),
    };
    match ServeClient::new(addr).watch_with(id, from, |line| {
        println!("{line}");
        true
    }) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => fail(e),
    }
}

fn cmd_cancel(args: &[String]) -> ExitCode {
    let parsed = (|| -> CliResult<(String, u64)> {
        let addr = addr_of(args)?;
        let id = positional(args)
            .ok_or("cancel needs a job id")?
            .parse()
            .map_err(|_| "job id must be an integer")?;
        Ok((addr, id))
    })();
    let (addr, id) = match parsed {
        Ok(v) => v,
        Err(e) => return fail(e),
    };
    match ServeClient::new(addr).cancel(id) {
        Ok(v) => {
            println!("{}", v.to_text());
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

fn cmd_drain(args: &[String]) -> ExitCode {
    let addr = match addr_of(args) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    match ServeClient::new(addr).drain() {
        Ok(v) => {
            println!("{}", v.to_text());
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

fn cmd_stats(args: &[String]) -> ExitCode {
    let addr = match addr_of(args) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    match ServeClient::new(addr).stats() {
        Ok(v) => {
            println!("{}", v.to_text());
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

// ---------------------------------------------------------------------------
// Batch mode (the original case runner)
// ---------------------------------------------------------------------------

fn batch_main(argv: &[String]) -> ExitCode {
    let mut case = None;
    let mut config_path = None;
    let mut metrics_path: Option<String> = None;
    let mut metrics_every: u64 = 100;
    let mut quiet = false;

    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--metrics" => match args.next() {
                Some(p) => metrics_path = Some(p.clone()),
                None => {
                    eprintln!("error: --metrics needs a file path");
                    return usage();
                }
            },
            "--metrics-every" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => metrics_every = n,
                _ => {
                    eprintln!("error: --metrics-every needs a positive integer");
                    return usage();
                }
            },
            "--quiet" => quiet = true,
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown flag {flag}");
                return usage();
            }
            positional if case.is_none() => case = Some(positional.to_string()),
            positional if config_path.is_none() => config_path = Some(positional.to_string()),
            extra => {
                eprintln!("error: unexpected argument {extra}");
                return usage();
            }
        }
    }
    let Some(case) = case else {
        return usage();
    };

    let mut cfg = match config_path {
        Some(path) => match std::fs::read_to_string(&path) {
            Ok(text) => match CaseConfig::parse(&text) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => CaseConfig::default(),
    };
    if cfg.name == "case" {
        cfg.name = case.clone();
    }

    if !preflight(&cfg) {
        return ExitCode::FAILURE;
    }

    let recorder = match &metrics_path {
        Some(path) => {
            let rec = Recorder::enabled();
            match JsonlSink::create(path) {
                Ok(sink) => rec.add_sink(Box::new(sink)),
                Err(e) => {
                    eprintln!("error: cannot open metrics file {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            if !quiet {
                rec.add_sink(Box::new(SummarySink));
            }
            rec.set_flush_every(metrics_every);
            rec
        }
        None => Recorder::disabled(),
    };
    let ctx = RunCtx { recorder, quiet };

    match case.as_str() {
        "cavity" => run_cavity(&cfg, &ctx),
        "channel" => run_channel(&cfg, &ctx),
        "cylinder" => run_cylinder(&cfg, &ctx),
        "taylor-green" => run_taylor_green(&cfg, &ctx),
        _ => return usage(),
    }
    ExitCode::SUCCESS
}

/// Vet the case before burning cycles on it (§IV-B pre-processing): Critical
/// findings abort the launch, Warnings are printed and the run continues.
fn preflight(cfg: &CaseConfig) -> bool {
    let params = match cfg.bgk() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("preflight [CRITICAL]: {e}");
            return false;
        }
    };
    let report = stability::analyze(params, cfg.u_lattice);
    for f in &report.findings {
        match f.severity {
            stability::Severity::Critical => eprintln!("preflight [CRITICAL]: {}", f.message),
            stability::Severity::Warning => eprintln!("preflight [warning]: {}", f.message),
            stability::Severity::Ok => {}
        }
    }
    if report.is_launchable() {
        true
    } else {
        eprintln!("preflight: critical findings — aborting (fix the case parameters above)");
        false
    }
}

/// The always-printed exit line: throughput plus the fault/recovery totals an
/// operator triages a long run by, and the host/kernel metadata that makes a
/// pasted summary self-describing (which kernel class served the run, on what
/// CPU). Under `--quiet` the same fields collapse to one machine-parseable
/// JSON line on stdout.
fn exit_summary(
    ctx: &RunCtx,
    steps: u64,
    active_cells: usize,
    wall_s: f64,
    kernel: swlb_core::simd::KernelClass,
) {
    ctx.recorder.flush(steps);
    let (retries, rollbacks, halo_msgs, halo_bytes) = ctx
        .recorder
        .snapshot(steps)
        .map(|s| {
            (
                s.counter("halo.retries").unwrap_or(0),
                s.counter("recovery.rollbacks").unwrap_or(0),
                s.counter("halo.messages").unwrap_or(0),
                s.counter("halo.bytes").unwrap_or(0),
            )
        })
        .unwrap_or((0, 0, 0, 0));
    let mlups = if wall_s > 0.0 {
        active_cells as f64 * steps as f64 / wall_s / 1e6
    } else {
        0.0
    };
    if ctx.quiet {
        let line = Json::obj([
            ("summary", Json::Bool(true)),
            ("steps", Json::num(steps as f64)),
            ("wall_s", Json::num(wall_s)),
            ("mlups", Json::num(mlups)),
            ("halo_retries", Json::num(retries as f64)),
            ("halo_messages", Json::num(halo_msgs as f64)),
            ("halo_bytes", Json::num(halo_bytes as f64)),
            ("rollbacks", Json::num(rollbacks as f64)),
            ("kernel", Json::str(kernel.name())),
            (
                "physical_cores",
                Json::num(swlb_core::simd::physical_cores() as f64),
            ),
            (
                "logical_cores",
                Json::num(swlb_core::simd::logical_cores() as f64),
            ),
            ("features", Json::str(swlb_core::simd::cpu_features())),
        ]);
        println!("{}", line.to_text());
    } else {
        println!(
            "summary: steps={steps} wall={wall_s:.3}s mlups={mlups:.2} \
             halo_retries={retries} halo_messages={halo_msgs} \
             halo_bytes={halo_bytes} rollbacks={rollbacks} \
             kernel={} cores={}p/{}l features={}",
            kernel.name(),
            swlb_core::simd::physical_cores(),
            swlb_core::simd::logical_cores(),
            swlb_core::simd::cpu_features(),
        );
    }
}

fn write_outputs(ctx: &RunCtx, name: &str, solver: &Solver<D2Q9>, log: Option<&ProbeLog>) {
    let dims = solver.dims();
    let m = solver.macroscopic();
    let speed = m.slice_xy_speed(0);
    let img = PpmImage::from_scalar(dims.nx, dims.ny, &speed, colormap_viridis_like);
    let ppm = format!("{name}_speed.ppm");
    let mut f = std::fs::File::create(&ppm).expect("create ppm");
    write_ppm(&mut f, &img).expect("write ppm");
    f.flush().ok();

    let vtk = format!("{name}_fields.vtk");
    let vort = vorticity_z(&m);
    let rho = m.rho.clone();
    let mut f = std::fs::File::create(&vtk).expect("create vtk");
    write_vtk_scalars(&mut f, name, dims, &[("rho", &rho), ("vorticity", &vort)])
        .expect("write vtk");

    let mut outputs = vec![ppm, vtk];
    if let Some(log) = log {
        let csv = format!("{name}_probes.csv");
        let mut f = std::fs::File::create(&csv).expect("create csv");
        log.write_csv(&mut f).expect("write csv");
        outputs.push(csv);
    }
    say!(ctx, "wrote {}", outputs.join(", "));
}

fn run_cavity(cfg: &CaseConfig, ctx: &RunCtx) {
    say!(
        ctx,
        "case: lid-driven cavity ({}x{}, tau {})",
        cfg.nx,
        cfg.ny,
        cfg.tau
    );
    let mut solver = Solver::<D2Q9>::builder(
        GridDims::new2d(cfg.nx, cfg.ny),
        cfg.bgk().expect("valid tau"),
    )
    .pool(ThreadPool::auto())
    .recorder(ctx.recorder.clone())
    .build();
    solver.flags_mut().set_box_walls();
    solver.flags_mut().paint_lid([cfg.u_lattice, 0.0, 0.0]);
    solver.initialize_uniform(1.0, [0.0; 3]);
    let t0 = Instant::now();
    solver
        .run_checked(cfg.steps, 500)
        .expect("diverged: reduce u_lattice or raise tau");
    let wall = t0.elapsed().as_secs_f64();
    let s = solver.stats();
    say!(
        ctx,
        "step {}: mass {:.4}, max |u| {:.4}",
        s.step,
        s.mass,
        s.max_velocity
    );
    write_outputs(ctx, &cfg.name, &solver, None);
    exit_summary(
        ctx,
        s.step,
        solver.active_cells(),
        wall,
        solver.last_kernel_class(),
    );
}

fn run_channel(cfg: &CaseConfig, ctx: &RunCtx) {
    say!(
        ctx,
        "case: channel flow ({}x{}, tau {})",
        cfg.nx,
        cfg.ny,
        cfg.tau
    );
    let mut solver = Solver::<D2Q9>::builder(
        GridDims::new2d(cfg.nx, cfg.ny),
        cfg.bgk().expect("valid tau"),
    )
    .recorder(ctx.recorder.clone())
    .build();
    solver.flags_mut().paint_channel_walls_y();
    solver
        .flags_mut()
        .paint_inflow_outflow_x(1.0, [cfg.u_lattice, 0.0, 0.0]);
    solver.initialize_uniform(1.0, [cfg.u_lattice, 0.0, 0.0]);
    let t0 = Instant::now();
    solver.run_checked(cfg.steps, 500).expect("diverged");
    let wall = t0.elapsed().as_secs_f64();
    let s = solver.stats();
    say!(ctx, "step {}: max |u| {:.4}", s.step, s.max_velocity);
    write_outputs(ctx, &cfg.name, &solver, None);
    exit_summary(
        ctx,
        s.step,
        solver.active_cells(),
        wall,
        solver.last_kernel_class(),
    );
}

fn run_cylinder(cfg: &CaseConfig, ctx: &RunCtx) {
    let dims = GridDims::new2d(cfg.nx.max(120), cfg.ny.max(60));
    let d = dims.ny as f64 / 6.0;
    say!(
        ctx,
        "case: flow past cylinder ({}x{}, D {:.0}, tau {})",
        dims.nx,
        dims.ny,
        d,
        cfg.tau
    );
    let mut solver = Solver::<D2Q9>::builder(dims, cfg.bgk().expect("valid tau"))
        .recorder(ctx.recorder.clone())
        .build();
    solver.flags_mut().paint_channel_walls_y();
    solver
        .flags_mut()
        .paint_inflow_outflow_x(1.0, [cfg.u_lattice, 0.0, 0.0]);
    let mask = cylinder_z_mask(
        dims,
        dims.nx as f64 / 4.0,
        dims.ny as f64 / 2.0 + 0.5,
        d / 2.0,
    );
    solver.flags_mut().apply_mask(&mask).unwrap();
    solver.initialize_uniform(1.0, [cfg.u_lattice, 0.0, 0.0]);

    let mut log = ProbeLog::new(&["step", "fx", "fy"]);
    let t0 = Instant::now();
    for s in 0..cfg.steps {
        solver.step();
        if s % 20 == 0 {
            let f = momentum_exchange_force::<D2Q9, _>(solver.flags(), solver.state());
            log.push(&[s as f64, f[0], f[1]]);
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    say!(
        ctx,
        "step {}: drag(tail) {:.4e}",
        solver.step_count(),
        log.tail_mean("fx", 20).unwrap_or(0.0)
    );
    write_outputs(ctx, &cfg.name, &solver, Some(&log));
    exit_summary(
        ctx,
        solver.step_count(),
        solver.active_cells(),
        wall,
        solver.last_kernel_class(),
    );
}

fn run_taylor_green(cfg: &CaseConfig, ctx: &RunCtx) {
    let n = cfg.nx;
    say!(ctx, "case: Taylor-Green vortex ({n}x{n}, tau {})", cfg.tau);
    let params = cfg.bgk().expect("valid tau");
    let nu = params.viscosity();
    let k = std::f64::consts::TAU / n as Scalar;
    let u0 = cfg.u_lattice;
    let mut solver = Solver::<D2Q9>::builder(GridDims::new2d(n, n), params)
        .recorder(ctx.recorder.clone())
        .build();
    solver.initialize_field(|x, y, _| {
        let (xs, ys) = (x as Scalar * k, y as Scalar * k);
        (
            1.0 - 0.75 * u0 * u0 * ((2.0 * xs).cos() + (2.0 * ys).cos()),
            [u0 * xs.sin() * ys.cos(), -u0 * xs.cos() * ys.sin(), 0.0],
        )
    });
    let flags = FlagField::new(solver.dims());
    let e0 = solver.macroscopic().kinetic_energy(&flags);
    let t0 = Instant::now();
    solver.run(cfg.steps);
    let wall = t0.elapsed().as_secs_f64();
    let e1 = solver.macroscopic().kinetic_energy(&flags);
    let nu_measured = -(e1 / e0).ln() / (4.0 * k * k * cfg.steps as Scalar);
    say!(
        ctx,
        "viscosity: configured {nu:.6}, measured {nu_measured:.6} ({:+.2}%)",
        (nu_measured - nu) / nu * 100.0
    );
    write_outputs(ctx, &cfg.name, &solver, None);
    exit_summary(
        ctx,
        solver.step_count(),
        solver.active_cells(),
        wall,
        solver.last_kernel_class(),
    );
}
