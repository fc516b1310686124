//! The benchmark's names: workloads, end-to-end metrics, per-layer metrics and
//! the workload whose traced run owns each of them — plus the validators that
//! hold `BENCHMARK.json` and every result line to that list.

use crate::surface::{json_parse, Json};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// One line: why the workload is in the benchmark.
    pub why: &'static str,
    /// Threads the workload keeps busy; more than the host has cores means
    /// `skipped_oversubscribed`, never a measurement.
    pub busy_threads: usize,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "cavity3d-serial",
        why: "plain 1-thread AB k=1 baseline: the core kernel and sweep do all the work, every layer above none",
        busy_threads: 1,
    },
    Workload {
        name: "cavity3d-tuned",
        why: "same case with in-place AA, depth-2 wavefront blocks and a 2-thread pool: the same layer used differently",
        busy_threads: 2,
    },
    Workload {
        name: "cavity3d-ranks",
        why: "same case on 2 ranks, AB k=2: sim::engine and comm (deep-halo pack/exchange/unpack) carry the difference",
        busy_threads: 2,
    },
    Workload {
        name: "taylor-green2d",
        why: "D2Q9 512x512 through CaseSpec: the generic kernel, bypassing the D3Q19 SIMD/tiling/AA machinery; physics check",
        busy_threads: 1,
    },
    Workload {
        name: "serve-job",
        why: "the same cavity case as one width-2 job through swlb-serve: what a tenant receives, submit to terminal",
        busy_threads: 2,
    },
    Workload {
        name: "serve-stream",
        why: "closed loop of tiny jobs through swlb-serve: kernel time under 1 %, so http/json/journal/scheduler do the work",
        busy_threads: 2,
    },
    Workload {
        name: "fleet-stream",
        why: "tiny jobs through the fleet controller and 2 workers at default config: tick, placement, sync poll and WAL",
        busy_threads: 2,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening of the median that counts as a regression. Set
    /// from the run-to-run spread measured on a shared 2-vCPU host (README),
    /// not from what one would like to detect.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "mlups",
        unit: "MLUPS",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "jobs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "job_latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Owner of a per-layer metric that every workload measures about itself.
pub const EVERY: &str = "*";

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The workload whose traced run measures this metric at full size, or
    /// [`EVERY`].
    pub owner: &'static str,
}

const fn hi(name: &'static str, unit: &'static str, owner: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        owner,
    }
}

const fn lo(name: &'static str, unit: &'static str, owner: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        owner,
    }
}

const SERIAL: &str = "cavity3d-serial";
const TUNED: &str = "cavity3d-tuned";
const RANKS: &str = "cavity3d-ranks";
const TG: &str = "taylor-green2d";
const JOB: &str = "serve-job";
const STREAM: &str = "serve-stream";
const FLEET: &str = "fleet-stream";

pub const PER_LAYER: &[PerLayer] = &[
    // host (context)
    hi("host.triad_gb_s", "GB/s", SERIAL),
    hi("host.triad_2t_gb_s", "GB/s", SERIAL),
    lo("host.peak_rss_mib", "MiB", EVERY),
    // core
    hi("core.ladder.scalar.mlups", "MLUPS", SERIAL),
    hi("core.ladder.scalar.roofline_fraction", "ratio", SERIAL),
    hi("core.ladder.simd.mlups", "MLUPS", SERIAL),
    hi("core.ladder.simd.roofline_fraction", "ratio", SERIAL),
    hi("core.ladder.tiled.mlups", "MLUPS", SERIAL),
    hi("core.ladder.tiled.roofline_fraction", "ratio", SERIAL),
    hi("core.ladder.aa.mlups", "MLUPS", TUNED),
    hi("core.ladder.aa.roofline_fraction", "ratio", TUNED),
    hi("core.ladder.aa_k2.mlups", "MLUPS", TUNED),
    hi("core.ladder.aa_k2.roofline_fraction", "ratio", TUNED),
    hi("core.ladder.aa_k2_pool2.mlups", "MLUPS", TUNED),
    hi("core.ladder.aa_k2_pool2.roofline_fraction", "ratio", TUNED),
    lo("core.step_ms_p50", "ms", SERIAL),
    lo("core.step_ms_p90", "ms", SERIAL),
    lo("core.generic_step_ms_p50", "ms", TG),
    lo("core.first_step_extra_ms", "ms", SERIAL),
    lo("core.build_ms", "ms", SERIAL),
    lo("core.init_ms", "ms", SERIAL),
    hi("core.kernel_class", "class", SERIAL),
    lo("core.macroscopic_ms", "ms", SERIAL),
    lo("core.canonical_ms", "ms", TUNED),
    hi("core.pool_efficiency", "ratio", TUNED),
    hi("core.lups", "count", SERIAL),
    // comm
    lo("comm.pingpong_small_us", "us", RANKS),
    lo("comm.pingpong_halo_us", "us", RANKS),
    hi("comm.halo_gb_s", "GB/s", RANKS),
    lo("comm.allreduce_us", "us", RANKS),
    lo("comm.world_spawn_us", "us", RANKS),
    // sim
    lo("sim.build_ms", "ms", RANKS),
    lo("sim.halo_messages", "count", RANKS),
    lo("sim.halo_bytes", "B", RANKS),
    lo("sim.halo_pack_share", "ratio", RANKS),
    lo("sim.halo_exchange_share", "ratio", RANKS),
    lo("sim.halo_unpack_share", "ratio", RANKS),
    lo("sim.boundary_share", "ratio", RANKS),
    hi("sim.collide_stream_share", "ratio", RANKS),
    hi("sim.rank_efficiency", "ratio", RANKS),
    hi("sim.ranks_over_pool", "ratio", RANKS),
    lo("sim.capture_chunked_ms", "ms", JOB),
    lo("sim.restore_chunked_ms", "ms", JOB),
    hi("sim.elastic_slice_mlups", "MLUPS", JOB),
    lo("sim.elastic_overhead_share", "ratio", JOB),
    lo("sim.elastic_reshard_ms", "ms", JOB),
    // obs
    lo("obs.enabled_overhead_share", "ratio", RANKS),
    lo("trace.overhead_share", "ratio", EVERY),
    // io
    lo("io.ckpt_bytes", "B", JOB),
    lo("io.ckpt_write_ms", "ms", JOB),
    hi("io.ckpt_write_mb_s", "MB/s", JOB),
    lo("io.ckpt_read_ms", "ms", JOB),
    lo("io.journal_append_durable_us_p50", "us", STREAM),
    lo("io.journal_append_buffered_us_p50", "us", STREAM),
    lo("io.journal_replay_ms", "ms", STREAM),
    lo("io.ppm_write_ms", "ms", JOB),
    // serve
    lo("serve.spawn_ms", "ms", JOB),
    lo("serve.submit_ms_p50", "ms", STREAM),
    lo("serve.submit_ms_p99", "ms", STREAM),
    lo("serve.status_ms_p50", "ms", STREAM),
    lo("serve.json_spec_roundtrip_us", "us", STREAM),
    lo("serve.queue_wait_ms_p50", "ms", STREAM),
    lo("serve.job_latency_p99_ms", "ms", STREAM),
    hi("serve.reported_mlups", "MLUPS", JOB),
    lo("serve.outside_compute_share", "ratio", JOB),
    hi("serve.delivered_over_bare", "ratio", JOB),
    hi("serve.delivered_w1_mlups", "MLUPS", JOB),
    lo("serve.slices", "count", JOB),
    lo("serve.checkpoints", "count", JOB),
    lo("serve.restart_replay_ms", "ms", STREAM),
    lo("serve.rejected", "count", STREAM),
    lo("serve.retries", "count", STREAM),
    // fleet
    lo("fleet.spawn_ms", "ms", FLEET),
    lo("fleet.register_ms", "ms", FLEET),
    lo("fleet.submit_ms_p50", "ms", FLEET),
    lo("fleet.submit_ms_p99", "ms", FLEET),
    lo("fleet.placement_wait_ms_p50", "ms", FLEET),
    lo("fleet.ticks_per_job", "ticks", FLEET),
    lo("fleet.job_latency_p90_ms", "ms", FLEET),
    lo("fleet.per_job_serial_ms", "ms", FLEET),
    hi("fleet.worker_share", "ratio", FLEET),
    lo("fleet.stats_ms_p50", "ms", FLEET),
    lo("fleet.migrations", "count", FLEET),
    lo("fleet.restart_replay_ms", "ms", FLEET),
];

fn name_ok(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn unit_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn path_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 200
        && !s.starts_with('/')
        && s.split('/').all(|seg| seg != "..")
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/'))
}

fn keys_are(v: &Json, want: &[&str], what: &str) -> Result<(), String> {
    let Json::Obj(pairs) = v else {
        return Err(format!("{what} is not an object"));
    };
    let mut have: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    let mut want = want.to_vec();
    have.sort_unstable();
    want.sort_unstable();
    if have == want {
        Ok(())
    } else {
        Err(format!("{what} has keys {have:?}, wants exactly {want:?}"))
    }
}

fn arr<'a>(
    v: &'a Json,
    key: &str,
    range: std::ops::RangeInclusive<usize>,
) -> Result<&'a [Json], String> {
    let items = v
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("`{key}` is not an array"))?;
    if range.contains(&items.len()) {
        Ok(items)
    } else {
        Err(format!(
            "`{key}` has {} entries, allowed {range:?}",
            items.len()
        ))
    }
}

fn text<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("`{key}` is not a string"))
}

/// Check `BENCHMARK.json` against the driver's contract and against the
/// registry in this file, so the two cannot drift.
pub fn validate_benchmark_json(src: &str) -> Result<(), String> {
    if src.len() > 64 * 1024 {
        return Err("file is larger than 64 KiB".into());
    }
    let v = json_parse(src).map_err(|e| e.to_string())?;
    keys_are(
        &v,
        &[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
        "BENCHMARK.json",
    )?;

    let paths = arr(&v, "paths", 1..=16)?;
    let paths: Vec<&str> = paths.iter().filter_map(Json::as_str).collect();
    if paths != ["benchmark"] {
        return Err(format!("paths are {paths:?}, want [\"benchmark\"]"));
    }
    for arg in arr(&v, "command", 1..=32)? {
        let arg = arg.as_str().ok_or("a command word is not a string")?;
        if arg.len() > 200 || arg.starts_with('/') || arg.split('/').any(|s| s == "..") {
            return Err(format!(
                "command word {arg:?} is too long or leaves the repo"
            ));
        }
        if arg.contains('/') && !(path_ok(arg) && arg.starts_with("benchmark/")) {
            return Err(format!("command word {arg:?} names a file outside `paths`"));
        }
    }
    match v.get("run_seconds").and_then(Json::as_u64) {
        Some(s @ 1..=60) if s as f64 == crate::run::REFERENCE_SECONDS => {}
        other => {
            return Err(format!(
            "run_seconds is {other:?}, want the harness default of {} (a whole number in 1..=60)",
            crate::run::REFERENCE_SECONDS
        ))
        }
    }

    let mut names = std::collections::BTreeSet::new();
    let mut fresh = |name: &str| {
        if !name_ok(name) {
            return Err(format!("name {name:?} breaks the naming rule"));
        }
        if !names.insert(name.to_string()) {
            return Err(format!("name {name:?} is used twice"));
        }
        Ok(())
    };

    let workloads = arr(&v, "workloads", 2..=8)?;
    if workloads.len() != WORKLOADS.len() {
        return Err(format!(
            "{} workloads, registry has {}",
            workloads.len(),
            WORKLOADS.len()
        ));
    }
    for (got, want) in workloads.iter().zip(&WORKLOADS) {
        keys_are(got, &["name", "why"], "a workload")?;
        let (name, why) = (text(got, "name")?, text(got, "why")?);
        fresh(name)?;
        if why.len() > 200 || why.contains('\n') {
            return Err(format!(
                "why of {name} is not one line of at most 200 characters"
            ));
        }
        if (name, why) != (want.name, want.why) {
            return Err(format!(
                "workload {name:?} differs from the registry's {:?}",
                want.name
            ));
        }
    }

    let e2e = arr(&v, "end_to_end", 1..=16)?;
    if e2e.len() != END_TO_END.len() {
        return Err(format!(
            "{} end-to-end metrics, registry has {}",
            e2e.len(),
            END_TO_END.len()
        ));
    }
    for (got, want) in e2e.iter().zip(&END_TO_END) {
        keys_are(
            got,
            &["name", "unit", "better", "bound"],
            "an end_to_end metric",
        )?;
        let name = text(got, "name")?;
        fresh(name)?;
        let bound = got
            .get("bound")
            .and_then(Json::as_f64)
            .ok_or("bound is not a number")?;
        if !(bound > 0.0 && bound <= 0.25) {
            return Err(format!("bound of {name} is {bound}, allowed (0, 0.25]"));
        }
        if !unit_ok(text(got, "unit")?) {
            return Err(format!("unit of {name} breaks the unit rule"));
        }
        if (name, text(got, "unit")?, text(got, "better")?, bound)
            != (want.name, want.unit, want.better.name(), want.bound)
        {
            return Err(format!(
                "end_to_end metric {name:?} differs from the registry"
            ));
        }
    }
    if !END_TO_END
        .iter()
        .any(|m| (m.name, m.unit, m.better) == ("setup_s", "s", Better::Lower))
    {
        return Err("no `setup_s` metric in seconds, lower is better".into());
    }

    let layers = arr(&v, "per_layer", 1..=128)?;
    if layers.len() != PER_LAYER.len() {
        return Err(format!(
            "{} per-layer metrics, registry has {}",
            layers.len(),
            PER_LAYER.len()
        ));
    }
    for (got, want) in layers.iter().zip(PER_LAYER) {
        keys_are(got, &["name", "unit", "better"], "a per_layer metric")?;
        let name = text(got, "name")?;
        fresh(name)?;
        if !unit_ok(text(got, "unit")?) {
            return Err(format!("unit of {name} breaks the unit rule"));
        }
        if (name, text(got, "unit")?, text(got, "better")?)
            != (want.name, want.unit, want.better.name())
        {
            return Err(format!(
                "per_layer metric {name:?} differs from the registry"
            ));
        }
    }
    Ok(())
}

/// Names and units the driver expects on a result line for the given trace
/// mode.
pub fn expected_metrics(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// A parsed, validated result line.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

/// Check the last line a workload run prints: exactly the contract's keys,
/// exactly the `expected` metrics with their units, every value a finite
/// number.
pub fn validate_result_line(line: &str, expected: &[(&str, &str)]) -> Result<ResultLine, String> {
    let v = json_parse(line).map_err(|e| e.to_string())?;
    keys_are(
        &v,
        &["correct", "attempted", "failed", "metrics"],
        "the result",
    )?;
    let correct = v
        .get("correct")
        .and_then(Json::as_bool)
        .ok_or("`correct` is not a boolean")?;
    let attempted = v
        .get("attempted")
        .and_then(Json::as_u64)
        .filter(|&n| n >= 1)
        .ok_or("`attempted` is not a whole number >= 1")?;
    let failed = v
        .get("failed")
        .and_then(Json::as_u64)
        .ok_or("`failed` is not a whole number")?;
    let metrics = v.get("metrics").ok_or("no `metrics`")?;
    let names: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    keys_are(metrics, &names, "`metrics`")?;
    let mut out = Vec::with_capacity(expected.len());
    for &(name, unit) in expected {
        let m = metrics.get(name).expect("keys were checked");
        keys_are(m, &["value", "unit"], name)?;
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .filter(|x| x.is_finite())
            .ok_or_else(|| format!("value of {name} is not a finite number"))?;
        if text(m, "unit")? != unit {
            return Err(format!("unit of {name} is not {unit:?}"));
        }
        out.push((name.to_string(), value));
    }
    Ok(ResultLine {
        correct,
        attempted,
        failed,
        metrics: out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(traced: bool, patch: impl Fn(&mut Vec<(String, Json)>)) -> String {
        let mut metrics: Vec<(String, Json)> = expected_metrics(traced)
            .into_iter()
            .map(|(name, unit)| {
                let m = Json::obj([("value", Json::num(1.5)), ("unit", Json::str(unit))]);
                (name.to_string(), m)
            })
            .collect();
        patch(&mut metrics);
        Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::num(3.0)),
            ("failed", Json::num(0.0)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_text()
    }

    #[test]
    fn registry_obeys_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(name_ok(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit_ok(unit), "{unit}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in PER_LAYER {
            assert!(
                m.owner == EVERY || workload(m.owner).is_some(),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn committed_benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let src = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        validate_benchmark_json(&src).unwrap();
    }

    #[test]
    fn benchmark_json_drift_is_caught() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let src = std::fs::read_to_string(path).unwrap();
        for (from, to) in [
            ("\"bound\": 0.05}", "\"bound\": 0.3}"),
            ("\"cavity3d-tuned\"", "\"cavity3d-tuned2\""),
            ("\"core.lups\"", "\"core.steps\""),
            ("\"run_seconds\": ", "\"run_seconds\": 6"),
            ("\"benchmark/Cargo.toml\"", "\"crates/bench/Cargo.toml\""),
        ] {
            assert!(src.contains(from), "{from}");
            assert!(
                validate_benchmark_json(&src.replacen(from, to, 1)).is_err(),
                "{from}"
            );
        }
    }

    #[test]
    fn result_lines_are_held_to_the_schema() {
        for traced in [false, true] {
            let (want, other) = (expected_metrics(traced), expected_metrics(!traced));
            let ok = validate_result_line(&line(traced, |_| {}), &want).unwrap();
            assert_eq!(ok.attempted, 3);
            assert_eq!(ok.metrics.len(), expected_metrics(traced).len());
            // The other mode's metric set is refused.
            assert!(validate_result_line(&line(traced, |_| {}), &other).is_err());
            // A missing metric, an extra one, a wrong unit, a non-number.
            assert!(validate_result_line(&line(traced, |m| drop(m.pop())), &want).is_err());
            let extra = |m: &mut Vec<(String, Json)>| m.push(("bogus".into(), Json::Null));
            assert!(validate_result_line(&line(traced, extra), &want).is_err());
            let unit = |m: &mut Vec<(String, Json)>| {
                m[0].1 = Json::obj([("value", Json::num(1.0)), ("unit", Json::str("furlong"))])
            };
            assert!(validate_result_line(&line(traced, unit), &want).is_err());
            let nan = |m: &mut Vec<(String, Json)>| {
                let u = expected_metrics(traced)[0].1;
                m[0].1 = Json::obj([("value", Json::num(f64::NAN)), ("unit", Json::str(u))])
            };
            assert!(validate_result_line(&line(traced, nan), &want).is_err());
        }
        let e2e = expected_metrics(false);
        assert!(validate_result_line("{\"correct\":true}", &e2e).is_err());
        let zero = line(false, |_| {}).replace("\"attempted\":3", "\"attempted\":0");
        assert!(validate_result_line(&zero, &e2e).is_err());
    }
}
