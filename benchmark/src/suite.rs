//! The one command that runs everything: each workload as its own process
//! (so `VmHWM` is per workload), untraced for the end-to-end metrics and
//! traced for the per-layer metrics it owns.

use crate::schema::{self, ResultLine, END_TO_END, EVERY, PER_LAYER, WORKLOADS};
use crate::surface::Json;
use crate::{host, out_dir, Args, EXIT_OVERSUBSCRIBED};
use std::process::{Command, ExitCode, Stdio};

enum Child {
    Ran(ResultLine, bool),
    Oversubscribed,
}

/// Run this executable on one workload and hold its last stdout line to
/// `expected`.
fn child(
    workload: &str,
    traced: bool,
    args: &Args,
    expected: &[(&str, &str)],
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--layers", "own"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    if out.status.code() == Some(i32::from(EXIT_OVERSUBSCRIBED)) {
        return Ok(Child::Oversubscribed);
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{workload} printed no result ({})", out.status))?;
    let line = schema::validate_result_line(last, expected)?;
    Ok(Child::Ran(line, out.status.success()))
}

pub fn run(args: &Args) -> ExitCode {
    let manifest = out_dir().join("../../BENCHMARK.json");
    let declared = std::fs::read_to_string(&manifest)
        .map_err(|e| e.to_string())
        .and_then(|src| schema::validate_benchmark_json(&src));
    if let Err(e) = declared {
        println!("suite: FAILED {}: {e}", manifest.display());
        return ExitCode::FAILURE;
    }
    println!("{}", host::describe());
    println!(
        "suite: seed={} seconds={} smoke={}{}",
        args.seed,
        args.seconds,
        args.smoke,
        if args.smoke {
            "  (SMOKE: numbers are not comparable)"
        } else {
            ""
        }
    );
    let mut report = Vec::new();
    let mut skipped = Vec::new();
    let mut broken = Vec::new();
    for w in &WORKLOADS {
        let owned: Vec<(&str, &str)> = PER_LAYER
            .iter()
            .filter(|m| m.owner == w.name || m.owner == EVERY)
            .map(|m| (m.name, m.unit))
            .collect();
        let e2e: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
        println!("\n== {} — {}", w.name, w.why);
        for (traced, expected) in [(false, &e2e), (true, &owned)] {
            match child(w.name, traced, args, expected) {
                Ok(Child::Oversubscribed) => {
                    println!(
                        "   skipped_oversubscribed (needs {} busy threads)",
                        w.busy_threads
                    );
                    skipped.push(Json::str(w.name));
                    break;
                }
                Ok(Child::Ran(line, clean_exit)) => {
                    for ((name, unit), (_, value)) in expected.iter().zip(&line.metrics) {
                        println!("   {name:<42} {value:>16.6} {unit}");
                    }
                    println!(
                        "   {}: attempted={} failed={} correct={}",
                        if traced { "traced" } else { "untraced" },
                        line.attempted,
                        line.failed,
                        line.correct
                    );
                    if !(clean_exit && line.correct && line.failed == 0) {
                        broken.push(format!(
                            "{} (trace {}): failed operations",
                            w.name,
                            u8::from(traced)
                        ));
                    }
                    let metrics = line
                        .metrics
                        .into_iter()
                        .map(|(n, v)| (n, Json::num(v)))
                        .collect();
                    report.push(Json::obj([
                        ("workload", Json::str(w.name)),
                        ("traced", Json::Bool(traced)),
                        ("attempted", Json::num(line.attempted as f64)),
                        ("failed", Json::num(line.failed as f64)),
                        ("metrics", Json::Obj(metrics)),
                    ]));
                }
                Err(e) => {
                    println!("   FAILED: {e}");
                    broken.push(format!("{} (trace {}): {e}", w.name, u8::from(traced)));
                }
            }
        }
    }
    let report = Json::obj([
        ("host", Json::str(host::describe())),
        ("seed", Json::num(args.seed as f64)),
        ("seconds", Json::num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("skipped_oversubscribed", Json::Arr(skipped)),
        ("runs", Json::Arr(report)),
    ]);
    let path = out_dir().join("report.json");
    match std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, report.to_text()))
    {
        Ok(()) => println!("\nreport: {}", path.display()),
        Err(e) => broken.push(format!("write {}: {e}", path.display())),
    }
    if broken.is_empty() {
        println!("suite: every check passed");
        ExitCode::SUCCESS
    } else {
        for b in &broken {
            println!("suite: FAILED {b}");
        }
        ExitCode::FAILURE
    }
}
