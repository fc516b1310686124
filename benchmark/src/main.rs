//! The repo's benchmark: seven workloads over the swlb stack, driven only
//! through public functions. See `README.md` in this directory.
//!
//! ```text
//! swlb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--layers own]
//! swlb-benchmark [--smoke] [--seed <n>] [--seconds <s>]        # the whole suite
//! ```

#![deny(deprecated)]

mod bare;
mod checks;
mod fleet;
mod host;
mod inputs;
mod ranks;
mod run;
mod schema;
mod serve;
mod stats;
mod suite;
mod surface;
mod trace;

use run::{Ctx, Layers, Pass, Scale, REFERENCE_SECONDS};
use schema::{Workload, END_TO_END, EVERY, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use surface::Json;
use trace::Tracer;

/// How often an untraced run repeats its set-up; `setup_s` is the median.
const SETUPS: usize = 3;

/// Exit code of a workload that needs more busy threads than the host has
/// cores: not run, never a measurement.
pub const EXIT_OVERSUBSCRIBED: u8 = 3;

pub struct Args {
    workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    trace: bool,
    pub smoke: bool,
    /// Measure only the named workload's own per-layer metrics (the suite
    /// collects the rest from their owners).
    own_layers: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: REFERENCE_SECONDS,
        trace: false,
        smoke: false,
        own_layers: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--layers" => {
                args.own_layers = match value()?.as_str() {
                    "own" => true,
                    "all" => false,
                    other => return Err(format!("--layers takes own or all, got {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// `benchmark/out`, next to this package's manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// This process's scratch directory, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Result<Self, String> {
        let dir = out_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// 0 only when no operation failed.
pub fn exit_code(pass: &Pass) -> u8 {
    u8::from(pass.failed > 0)
}

fn measure(workload: &str, cx: &Ctx) -> Result<Pass, String> {
    match workload {
        "cavity3d-serial" => bare::measure_cavity(&bare::SERIAL, cx),
        "cavity3d-tuned" => bare::measure_cavity(&bare::TUNED, cx),
        "cavity3d-ranks" => ranks::measure(cx),
        "taylor-green2d" => bare::measure_tg(cx),
        "serve-job" => serve::measure_job(cx),
        "serve-stream" => serve::measure_stream(cx),
        "fleet-stream" => fleet::measure(cx),
        other => Err(format!("no workload called {other}")),
    }
}

/// The traced pass of a workload and the per-layer metrics it owns; `base` is
/// the untraced pass of the same work, for the metrics that are ratios to it.
fn layers(workload: &str, cx: &Ctx, base: &Pass) -> Result<(Pass, Layers), String> {
    match workload {
        "cavity3d-serial" => bare::layers_serial(cx),
        "cavity3d-tuned" => bare::layers_tuned(cx),
        "cavity3d-ranks" => ranks::layers(cx, base),
        "taylor-green2d" => bare::layers_tg(cx),
        "serve-job" => serve::layers_job(cx),
        "serve-stream" => serve::layers_stream(cx),
        "fleet-stream" => fleet::layers(cx),
        other => Err(format!("no workload called {other}")),
    }
}

/// A metric value ready to print: name, value, unit, provenance.
pub type Row = (&'static str, f64, &'static str, String);

fn untraced(
    w: &Workload,
    scale: Scale,
    args: &Args,
    tmp: &Path,
) -> Result<(Pass, Vec<Row>), String> {
    let tracer = Tracer::new(false);
    let cx = Ctx {
        seed: args.seed,
        scale,
        tracer: &tracer,
        setups: SETUPS,
        tmp,
    };
    let pass = measure(w.name, &cx)?;
    let values = [
        pass.mlups,
        pass.jobs_per_s,
        pass.latency_p50_ms,
        host::peak_rss_mib(),
        pass.setup_s,
    ];
    let rows = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, v, m.unit, String::new()))
        .collect();
    Ok((pass, rows))
}

/// Both passes of one workload at one scale: untraced, then traced with its
/// layer probes. Returns the summed operation counts and the layer values.
fn traced_pair(name: &str, cx: &Ctx) -> Result<(Pass, Layers), String> {
    let off = Tracer::new(false);
    let base = measure(name, &cx.with_tracer(&off))?;
    let (traced, mut found) = layers(name, cx, &base)?;
    found.put_noted(
        "trace.overhead_share",
        traced.op_s / base.op_s - 1.0,
        format!(
            "median operation: traced {:.6} s over untraced {:.6} s",
            traced.op_s, base.op_s
        ),
    );
    let mut pass = traced;
    pass.attempted += base.attempted;
    pass.failed += base.failed;
    Ok((pass, found))
}

fn traced(w: &Workload, scale: Scale, args: &Args, tmp: &Path) -> Result<(Pass, Vec<Row>), String> {
    let tracer = Tracer::new(true);
    let cx = Ctx {
        seed: args.seed,
        scale,
        tracer: &tracer,
        setups: 1,
        tmp,
    };
    let (mut pass, mut found) = traced_pair(w.name, &cx)?;
    found.put_noted(
        "host.peak_rss_mib",
        host::peak_rss_mib(),
        "VmHWM of the traced process",
    );
    let trace_file = out_dir().join(format!("{}.trace.jsonl", w.name));
    tracer
        .write_jsonl(&trace_file)
        .map_err(|e| format!("write {}: {e}", trace_file.display()))?;
    let spans = tracer.spans();
    eprintln!("trace: {} spans in {}", spans.len(), trace_file.display());
    for (name, n, total_ms, self_ms) in trace::by_name(&spans) {
        eprintln!("  span {name:<16} n={n:<6} total={total_ms:>12.3} ms  self={self_ms:>12.3} ms");
    }

    // The contract wants every per-layer metric from every traced run, so
    // the other workloads' layers are measured here too, by the same code at
    // smoke size: that makes them present, not comparable.
    let mut sources = vec![(w.name, found)];
    for other in WORKLOADS
        .iter()
        .filter(|o| o.name != w.name && !args.own_layers)
    {
        let spare = Tracer::new(true);
        let small = Ctx {
            scale: Scale {
                smoke: true,
                ..scale
            },
            ..cx.with_tracer(&spare)
        };
        let (ran, layers) = traced_pair(other.name, &small)?;
        pass.attempted += ran.attempted;
        pass.failed += ran.failed;
        sources.push((other.name, layers));
    }
    let mut rows = Vec::new();
    for m in PER_LAYER {
        let owner = if m.owner == EVERY { w.name } else { m.owner };
        let Some((_, source)) = sources.iter().find(|(name, _)| *name == owner) else {
            continue; // `--layers own`: the suite reads this metric from its owner
        };
        let (_, value, note) = source
            .0
            .iter()
            .find(|(n, ..)| *n == m.name)
            .ok_or(format!("harness bug: {owner} did not measure {}", m.name))?;
        let note = if owner == w.name && !scale.smoke {
            note.clone()
        } else {
            format!("SMOKE SIZE, not comparable; {note}")
        };
        rows.push((m.name, *value, m.unit, note));
    }
    Ok((pass, rows))
}

/// The contract's result object.
fn result_line(pass: &Pass, rows: &[Row]) -> String {
    let metrics = rows
        .iter()
        .map(|(name, value, unit, _)| {
            let m = Json::obj([("value", Json::num(*value)), ("unit", Json::str(*unit))]);
            (name.to_string(), m)
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(pass.failed == 0)),
        ("attempted", Json::num(pass.attempted as f64)),
        ("failed", Json::num(pass.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_text()
}

fn run_one(name: &str, args: &Args) -> ExitCode {
    let Some(w) = schema::workload(name) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("error: no workload called {name}; the workloads are {names:?}");
        return ExitCode::from(2);
    };
    if host::cores() < w.busy_threads {
        eprintln!(
            "skipped_oversubscribed: {name} keeps {} threads busy, the host has {} core(s)",
            w.busy_threads,
            host::cores()
        );
        return ExitCode::from(EXIT_OVERSUBSCRIBED);
    }
    let scale = Scale {
        smoke: args.smoke,
        seconds: args.seconds,
    };
    let outcome = Scratch::create().and_then(|scratch| {
        if args.trace {
            traced(w, scale, args, &scratch.0)
        } else {
            untraced(w, scale, args, &scratch.0)
        }
    });
    let (pass, rows) = match outcome {
        Ok(done) => done,
        Err(e) => {
            eprintln!("error: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let names: Vec<&str> = rows.iter().map(|r| r.0).collect();
    let wanted: Vec<&str> = schema::expected_metrics(args.trace)
        .iter()
        .map(|m| m.0)
        .collect();
    if !args.own_layers && names != wanted {
        eprintln!("error: harness bug: measured {names:?}, the contract wants {wanted:?}");
        return ExitCode::FAILURE;
    }

    eprintln!("{}", host::describe());
    eprintln!(
        "run: workload={name} seed={} seconds={} trace={} smoke={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke
    );
    for note in &pass.notes {
        eprintln!("  {note}");
    }
    for (metric, value, unit, note) in &rows {
        let note = if note.is_empty() {
            String::new()
        } else {
            format!("  # {note}")
        };
        eprintln!("  {metric:<42} {value:>16.6} {unit}{note}");
    }
    eprintln!(
        "  operations: attempted={} failed={}",
        pass.attempted, pass.failed
    );
    println!("{}", result_line(&pass, &rows));
    ExitCode::from(exit_code(&pass))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: swlb-benchmark [--workload <name> --trace <0|1> [--layers own|all]] \
                 [--seed <n>] [--seconds <s>] [--smoke]"
            );
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => suite::run(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_args(&argv(
            "--workload serve-job --seed 42 --seconds 8 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve-job"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke, a.own_layers),
            (42, 8.0, true, false, false)
        );
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--frobnicate")).is_err());
    }

    #[test]
    fn a_failed_operation_is_a_non_zero_exit_and_an_incorrect_result() {
        let mut pass = Pass {
            attempted: 5,
            ..Pass::default()
        };
        assert_eq!(exit_code(&pass), 0);
        pass.failed = 1;
        assert_ne!(exit_code(&pass), 0);
        let rows: Vec<Row> = END_TO_END
            .iter()
            .map(|m| (m.name, 1.0, m.unit, String::new()))
            .collect();
        let line = schema::validate_result_line(
            &result_line(&pass, &rows),
            &schema::expected_metrics(false),
        )
        .unwrap();
        assert!(!line.correct);
        assert_eq!((line.attempted, line.failed), (5, 1));
    }
}
