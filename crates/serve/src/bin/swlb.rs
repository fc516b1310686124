//! `swlb` — the SunwayLB-RS front-end.
//!
//! One case catalogue, two ways to run it. `swlb run` builds a job from the
//! same case flags as `swlb submit` and runs it in-process through the code a
//! served job runs: `JobSpec::validate` (the pre-flight stability gate among
//! its checks), `CaseSpec::build`, `run_checked` and the scheduler's artifact
//! writer, which drops `speed.ppm` / `fields.vtk` into `./<name>/` as a server
//! drops them into `jobs/job-<id>/`. The other subcommands talk to a resident
//! `swlb serve` instance over its HTTP/1.1 + JSON API.
//!
//! ```text
//! swlb run    [case flags] [--metrics PATH] [--metrics-every N] [--quiet]
//! swlb serve  [--addr 127.0.0.1:7420] [--dir swlb-serve] [--capacity N]
//!             [--slice-steps N] [--threads N]
//! swlb submit [--addr HOST:PORT] [case flags] [--width N]
//!             [--priority interactive|batch] [--deadline-ms N]
//!             [--chaos-at STEP] [--tenant T] [--retries N]
//! swlb status [--addr HOST:PORT] [job-id]
//! swlb watch  [--addr HOST:PORT] <job-id> [--from N]
//! swlb cancel [--addr HOST:PORT] <job-id>
//! swlb drain  [--addr HOST:PORT]
//! swlb stats  [--addr HOST:PORT]
//!
//! case flags: [--name N] [--case cavity|channel|cylinder|taylor-green]
//!             [--lattice d2q9|d3q19] [--nx N] [--ny N] [--nz N] [--tau T]
//!             [--u U] [--steps N] [--storage ab|aa] [--time-block K]
//!             [--output vtk|ppm]...
//! ```
//!
//! `run` flags besides the case:
//!
//! * `--metrics <path>` — enable the observability recorder and stream JSONL
//!   snapshots (step, wall time, per-phase ns, MLUPS, fault counters) to
//!   `<path>`; see `docs/OBSERVABILITY.md` for the schema.
//! * `--metrics-every <steps>` — snapshot cadence (default 100).
//! * `--quiet` — suppress progress chatter; the exit summary collapses to a
//!   single machine-parseable JSON line on stdout.
//!
//! `run` refuses the flags that only mean something to a queue (`--addr`,
//! `--retries`, `--priority`, `--deadline-ms`, `--tenant`, `--width`,
//! `--chaos-at`) rather than ignoring them.

use std::process::ExitCode;
use std::time::Instant;
use swlb_core::parallel::ThreadPool;
use swlb_obs::{JsonlSink, Recorder, SummarySink, SwlbError};
use swlb_serve::{
    write_artifacts, CaseKind, CaseSpec, JobSpec, Json, LatticeKind, OutputKind, Priority,
    ServeClient, ServeConfig, Server, StorageScheme, DEFAULT_SLICE_STEPS,
};

const DEFAULT_ADDR: &str = "127.0.0.1:7420";

/// CLI plumbing reports errors as strings.
type CliResult<T> = Result<T, String>;

fn usage() -> ExitCode {
    eprintln!(
        "usage: swlb run    [case flags] [--metrics <path>] [--metrics-every <steps>] [--quiet]\n\
         \x20      swlb serve  [--addr HOST:PORT] [--dir PATH] [--capacity N] \
         [--slice-steps N] [--threads N] [--metrics <path>] \
         [--io-timeout-ms N] [--chaos-routes]\n\
         \x20      swlb submit [--addr HOST:PORT] [case flags] [--width N] [--priority P] \
         [--deadline-ms N] [--chaos-at STEP] [--tenant T] [--retries N]\n\
         \x20      swlb status [--addr HOST:PORT] [job-id]\n\
         \x20      swlb watch  [--addr HOST:PORT] <job-id> [--from N]\n\
         \x20      swlb cancel [--addr HOST:PORT] <job-id>\n\
         \x20      swlb drain  [--addr HOST:PORT]\n\
         \x20      swlb stats  [--addr HOST:PORT]\n\
         case flags: [--name N] [--case cavity|channel|cylinder|taylor-green] \
         [--lattice d2q9|d3q19] [--nx N] [--ny N] [--nz N] [--tau T] [--u U] [--steps N] \
         [--storage ab|aa] [--time-block K] [--output vtk|ppm]..."
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        Some("cancel") => cmd_cancel(&args[1..]),
        Some("drain") => cmd_drain(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some(other) => {
            eprintln!("error: unknown command {other:?}");
            usage()
        }
        None => usage(),
    }
}

// ---------------------------------------------------------------------------
// Subcommands
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

/// `--flag value` parsed as a `T`, if the flag is given.
fn parsed_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> CliResult<Option<T>> {
    flag_value(args, flag)?
        .map(|v| v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}")))
        .transpose()
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

/// Print a service reply as one JSON line.
fn print_reply(reply: Result<Json, SwlbError>) -> ExitCode {
    match reply {
        Ok(v) => {
            println!("{}", v.to_text());
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let parsed = (|| -> CliResult<ServeConfig> {
        let dir = flag_value(args, "--dir")?.unwrap_or_else(|| "swlb-serve".into());
        let mut cfg = ServeConfig::new(dir);
        cfg.addr = flag_value(args, "--addr")?.unwrap_or_else(|| DEFAULT_ADDR.to_string());
        cfg.capacity = parsed_flag(args, "--capacity")?.unwrap_or(cfg.capacity);
        cfg.slice_steps = parsed_flag(args, "--slice-steps")?.unwrap_or(cfg.slice_steps);
        cfg.threads = parsed_flag(args, "--threads")?.unwrap_or(cfg.threads);
        if let Some(ms) = parsed_flag::<u64>(args, "--io-timeout-ms")? {
            cfg.io_timeout = (ms > 0).then(|| std::time::Duration::from_millis(ms));
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

/// The job the case flags (and, for `submit`, the queue flags) describe: the
/// one parser behind `run` and `submit`.
fn job_from_flags(args: &[String]) -> CliResult<JobSpec> {
    let case_name = flag_value(args, "--case")?.unwrap_or_else(|| "cavity".into());
    let case = CaseKind::parse(&case_name).ok_or(format!("unknown case {case_name:?}"))?;
    let lattice_name = flag_value(args, "--lattice")?.unwrap_or_else(|| "d2q9".into());
    let lattice =
        LatticeKind::parse(&lattice_name).ok_or(format!("unknown lattice {lattice_name:?}"))?;
    let default_nz = if lattice == LatticeKind::D2Q9 { 1 } else { 64 };
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
    Ok(JobSpec {
        name: flag_value(args, "--name")?.unwrap_or_else(|| case_name.clone()),
        case: CaseSpec {
            case,
            lattice,
            nx: parsed_flag(args, "--nx")?.unwrap_or(64),
            ny: parsed_flag(args, "--ny")?.unwrap_or(64),
            nz: parsed_flag(args, "--nz")?.unwrap_or(default_nz),
            tau: parsed_flag(args, "--tau")?.unwrap_or(0.8),
            u_lattice: parsed_flag(args, "--u")?.unwrap_or(0.05),
            storage,
            time_block: parsed_flag(args, "--time-block")?.unwrap_or(1),
        },
        steps: parsed_flag(args, "--steps")?.unwrap_or(1000),
        priority,
        deadline_ms: parsed_flag(args, "--deadline-ms")?,
        outputs,
        chaos_nan_at_step: parsed_flag(args, "--chaos-at")?,
        width: parsed_flag(args, "--width")?.unwrap_or(1),
        tenant: flag_value(args, "--tenant")?
            .unwrap_or_else(|| swlb_serve::DEFAULT_TENANT.to_string()),
    })
}

fn cmd_submit(args: &[String]) -> ExitCode {
    let built = (|| -> CliResult<(String, JobSpec, u32)> {
        let retries = parsed_flag(args, "--retries")?.unwrap_or(3);
        Ok((addr_of(args)?, job_from_flags(args)?, retries))
    })();
    let (addr, spec, retries) = match built {
        Ok(v) => v,
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
        Some(Ok(id)) => print_reply(client.status(id)),
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
        let from = parsed_flag(args, "--from")?.unwrap_or(0);
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
    print_reply(ServeClient::new(addr).cancel(id))
}

fn cmd_drain(args: &[String]) -> ExitCode {
    match addr_of(args) {
        Ok(addr) => print_reply(ServeClient::new(addr).drain()),
        Err(e) => fail(e),
    }
}

fn cmd_stats(args: &[String]) -> ExitCode {
    match addr_of(args) {
        Ok(addr) => print_reply(ServeClient::new(addr).stats()),
        Err(e) => fail(e),
    }
}

// ---------------------------------------------------------------------------
// `run`: a served job, run in-process
// ---------------------------------------------------------------------------

/// The value-taking flags `run` reads: the case flags, then its own.
const RUN_FLAGS: [&str; 14] = [
    "--name",
    "--case",
    "--lattice",
    "--nx",
    "--ny",
    "--nz",
    "--tau",
    "--u",
    "--steps",
    "--storage",
    "--time-block",
    "--output",
    "--metrics",
    "--metrics-every",
];

/// Flags that only mean something to a queue.
const QUEUE_ONLY: [&str; 7] = [
    "--addr",
    "--retries",
    "--priority",
    "--deadline-ms",
    "--tenant",
    "--width",
    "--chaos-at",
];

/// What `run` was asked for besides the job.
struct RunOpts {
    metrics: Option<String>,
    metrics_every: u64,
    quiet: bool,
}

fn run_opts(args: &[String]) -> CliResult<RunOpts> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quiet" => {}
            f if QUEUE_ONLY.contains(&f) => {
                return Err(format!(
                    "{f} applies to a queued job; `swlb run` does not take it"
                ))
            }
            f if RUN_FLAGS.contains(&f) => {
                it.next();
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(RunOpts {
        metrics: flag_value(args, "--metrics")?,
        metrics_every: match parsed_flag(args, "--metrics-every")? {
            Some(0) => return Err("--metrics-every needs a positive integer".into()),
            n => n.unwrap_or(100),
        },
        quiet: args.iter().any(|a| a == "--quiet"),
    })
}

/// Run one job in-process exactly as a server runs it, writing its outputs
/// into `./<name>/`.
fn cmd_run(args: &[String]) -> ExitCode {
    let parsed = run_opts(args).and_then(|opts| Ok((opts, job_from_flags(args)?)));
    let (opts, spec) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    match spec.validate() {
        Ok(warnings) => {
            for w in warnings {
                eprintln!("preflight [warning]: {w}");
            }
        }
        Err(e) => return fail(e),
    }
    let recorder = match &opts.metrics {
        Some(path) => {
            let rec = Recorder::enabled();
            match JsonlSink::create(path) {
                Ok(sink) => rec.add_sink(Box::new(sink)),
                Err(e) => return fail(format!("cannot open metrics file {path}: {e}")),
            }
            if !opts.quiet {
                rec.add_sink(Box::new(SummarySink));
            }
            rec.set_flush_every(opts.metrics_every);
            rec
        }
        None => Recorder::disabled(),
    };
    let mut solver = match spec.case.build(ThreadPool::auto(), recorder.clone()) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let t0 = Instant::now();
    if let Err(e) = solver.run_checked(spec.steps, DEFAULT_SLICE_STEPS) {
        return fail(e);
    }
    let wall = t0.elapsed().as_secs_f64();
    if !opts.quiet {
        let s = solver.stats();
        println!(
            "step {}: mass {:.4}, max |u| {:.4}",
            s.step, s.mass, s.max_velocity
        );
    }
    let dir = std::path::Path::new(&spec.name);
    match write_artifacts(dir, &spec.name, &solver, &spec.outputs) {
        Ok(files) => {
            if !opts.quiet && !files.is_empty() {
                println!("wrote {}", files.join(", "));
            }
        }
        Err(e) => return fail(format!("{}: {e}", dir.display())),
    }
    exit_summary(
        &recorder,
        opts.quiet,
        solver.step_count(),
        solver.active_cells(),
        wall,
        solver.last_kernel_class(),
    );
    ExitCode::SUCCESS
}

/// The always-printed exit line: throughput plus the fault/recovery totals an
/// operator triages a long run by, and the host/kernel metadata that makes a
/// pasted summary self-describing (which kernel class served the run, on what
/// CPU). Under `--quiet` the same fields collapse to one machine-parseable
/// JSON line on stdout.
fn exit_summary(
    recorder: &Recorder,
    quiet: bool,
    steps: u64,
    active_cells: usize,
    wall_s: f64,
    kernel: swlb_core::simd::KernelClass,
) {
    recorder.flush(steps);
    let (retries, rollbacks, halo_msgs, halo_bytes) = recorder
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
    if quiet {
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
