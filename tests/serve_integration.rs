//! Integration suite for `swlb-serve` — the acceptance criteria of the
//! multi-tenant service, exercised over a real loopback socket:
//!
//! * a mixed workload (long batch + short interactive, one job with an
//!   injected chaos fault) completes with zero lost or duplicated jobs;
//! * every short interactive job's queue wait is bounded by one time slice
//!   while batch jobs are running (preemption proven by the longs'
//!   checkpoint/resume counters);
//! * graceful drain leaves every live job checkpointed and resumable —
//!   verified by restoring a drained job's checkpoint into a fresh solver;
//! * every job's `metrics.jsonl` parses and carries the snapshot schema.
//!
//! Plus admission backpressure (HTTP 429), the pre-flight gate (HTTP 400),
//! cancellation, byte-identical artifacts from `swlb run` and from a served
//! job, and an `--ignored` loopback soak.

use std::path::PathBuf;
use std::time::{Duration, Instant};
use swlb_core::parallel::ThreadPool;
use swlb_io::CheckpointStore;
use swlb_obs::{Recorder, SwlbError};
use swlb_serve::json::{self, Json};
use swlb_serve::{
    CaseKind, CaseSpec, JobSpec, LatticeKind, OutputKind, Priority, PushEnvelope, ServeClient,
    ServeConfig, Server, StorageScheme,
};
use swlb_sim::RecoveryPolicy;

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swlb-serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cavity(nx: usize, ny: usize) -> CaseSpec {
    CaseSpec {
        case: CaseKind::Cavity,
        lattice: LatticeKind::D2Q9,
        nx,
        ny,
        nz: 1,
        tau: 0.8,
        u_lattice: 0.05,
        storage: StorageScheme::Ab,
        time_block: 1,
    }
}

fn job(name: &str, case: CaseSpec, steps: u64, priority: Priority) -> JobSpec {
    JobSpec {
        name: name.into(),
        case,
        steps,
        priority,
        deadline_ms: None,
        outputs: vec![],
        chaos_nan_at_step: None,
        width: 1,
        tenant: swlb_serve::DEFAULT_TENANT.to_string(),
    }
}

fn config(dir: &std::path::Path, capacity: usize, slice_steps: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(dir);
    cfg.capacity = capacity;
    cfg.slice_steps = slice_steps;
    cfg.threads = 2;
    cfg.policy = RecoveryPolicy {
        checkpoint_every: 2 * slice_steps,
        max_restarts: 3,
        backoff: Duration::from_millis(1),
        ..RecoveryPolicy::default()
    };
    cfg
}

/// Poll a job's status until `pred` holds; panics after `timeout`.
fn wait_for(
    client: &ServeClient,
    id: u64,
    timeout: Duration,
    what: &str,
    pred: impl Fn(&Json) -> bool,
) -> Json {
    let start = Instant::now();
    loop {
        let status = client.status(id).unwrap();
        if pred(&status) {
            return status;
        }
        assert!(
            start.elapsed() < timeout,
            "job {id}: timed out waiting for {what}; last status: {}",
            status.to_text()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn state_of(status: &Json) -> String {
    status
        .get("state")
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_string()
}

fn num_of(status: &Json, key: &str) -> u64 {
    status
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("status missing numeric {key:?}: {}", status.to_text()))
}

/// One job's exit as the service records it: the `rec` of each of its
/// journal records in order, and each of its events in order as its name
/// followed by the fields it carries beyond `event`/`id`/`step`. A run of
/// equal entries reads as one, so how many slices, periodic checkpoints and
/// progress lines a path took does not show.
fn exit_trace(dir: &std::path::Path, client: &ServeClient, id: u64) -> (Vec<String>, Vec<String>) {
    let (lines, _) = swlb_io::Journal::replay(&dir.join("journal")).unwrap();
    let mut recs: Vec<String> = lines
        .iter()
        .filter_map(|l| json::parse(l).ok())
        .filter(|r| r.get("id").and_then(Json::as_u64) == Some(id))
        .map(|r| r.get("rec").and_then(Json::as_str).unwrap().to_string())
        .collect();
    recs.dedup();
    let mut events: Vec<String> = client
        .watch(id, 0)
        .unwrap()
        .iter()
        .map(|line| {
            let Ok(Json::Obj(fields)) = json::parse(line) else {
                panic!("event is not an object: {line}")
            };
            let name = fields[0].1.as_str().unwrap();
            let extra: Vec<&str> = fields[3..].iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                fields[..3].iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
                ["event", "id", "step"],
                "{line}"
            );
            if extra.is_empty() {
                name.to_string()
            } else {
                format!("{name}({})", extra.join(","))
            }
        })
        .collect();
    events.dedup();
    (recs, events)
}

/// `exit_trace` of a job whose exit path runs without rivals.
fn assert_exit(
    dir: &std::path::Path,
    client: &ServeClient,
    id: u64,
    recs: &[&str],
    events: &[&str],
) {
    let (got_recs, got_events) = exit_trace(dir, client, id);
    assert_eq!(got_recs, recs, "job {id}: journal records");
    assert_eq!(got_events, events, "job {id}: events");
}

/// A trace of a job that took turns with rivals: how many turns is up to
/// timing, so only where it starts and where it ends are pinned.
fn assert_ends(trace: &[String], head: &[&str], last: &str) {
    assert_eq!(&trace[..head.len()], head, "{trace:?}");
    assert_eq!(trace.last().map(String::as_str), Some(last), "{trace:?}");
    let lasts = trace.iter().filter(|t| *t == last).count();
    assert_eq!(lasts, 1, "{trace:?}");
}

/// Acceptance (a), (b) and (d): mixed workload under chaos on one loopback
/// server — two long batch jobs (one faulted mid-run) plus six short
/// interactive jobs submitted while the longs grind. Everything completes,
/// nothing is lost or duplicated, and no short job waits more than one slice.
#[test]
fn mixed_workload_completes_with_bounded_interactive_wait() {
    let dir = unique_dir("mixed");
    let server = Server::spawn(config(&dir, 16, 8)).unwrap();
    let client = ServeClient::new(server.addr().to_string());

    // Two long batch jobs; the second takes a NaN fault around step 100 and
    // must survive it via rollback-retry.
    let long_a = client
        .submit(&job("long-a", cavity(24, 24), 640, Priority::Batch))
        .unwrap();
    let mut faulted = job("long-chaos", cavity(24, 24), 640, Priority::Batch);
    faulted.chaos_nan_at_step = Some(100);
    let long_b = client.submit(&faulted).unwrap();
    assert_eq!((long_a, long_b), (1, 2), "ids are dense from 1");

    // Let the batch work actually occupy the pool before interactive traffic.
    wait_for(
        &client,
        long_a,
        Duration::from_secs(20),
        "first slice",
        |s| num_of(s, "steps_done") > 0,
    );

    // Six short interactive jobs, one at a time, each watched to completion
    // while the longs are (still) live.
    let mut short_ids = Vec::new();
    for i in 0..6 {
        let id = client
            .submit(&job(
                &format!("short-{i}"),
                cavity(16, 16),
                24,
                Priority::Interactive,
            ))
            .unwrap();
        let events = client.watch(id, 0).unwrap();
        assert!(
            events.iter().any(|e| e.contains("\"event\":\"completed\"")),
            "short job {id} did not complete: {events:?}"
        );
        short_ids.push(id);
    }

    // Wait out the longs.
    for id in [long_a, long_b] {
        let status = wait_for(
            &client,
            id,
            Duration::from_secs(60),
            "terminal state",
            |s| ["completed", "failed", "cancelled"].contains(&state_of(s).as_str()),
        );
        assert_eq!(state_of(&status), "completed", "{}", status.to_text());
    }

    // (a) Zero lost or duplicated jobs: exactly the 8 submissions, dense ids,
    // every one completed with every requested step done.
    let all = client.list().unwrap();
    assert_eq!(all.len(), 8);
    let mut ids: Vec<u64> = all.iter().map(|s| num_of(s, "id")).collect();
    ids.sort_unstable();
    assert_eq!(ids, (1..=8).collect::<Vec<u64>>());
    for status in &all {
        assert_eq!(state_of(status), "completed", "{}", status.to_text());
        assert_eq!(
            num_of(status, "steps_done"),
            num_of(status, "steps"),
            "{}",
            status.to_text()
        );
    }

    // (b) Interactive latency bound: each short job waited at most one slice,
    // even though two 640-step batch jobs were in the system.
    for &id in &short_ids {
        let status = client.status(id).unwrap();
        let wait = num_of(&status, "wait_slices");
        assert!(
            wait <= 1,
            "short job {id} waited {wait} slices: {}",
            status.to_text()
        );
    }

    // Preemption proof: the long jobs were sliced off the pool via checkpoint
    // and later rebuilt from it — the counters that only move on a real
    // checkpoint write / checkpoint read.
    for id in [long_a, long_b] {
        let status = client.status(id).unwrap();
        assert!(
            num_of(&status, "preemptions") >= 1,
            "long job {id} was never preempted: {}",
            status.to_text()
        );
        assert!(
            num_of(&status, "resumes") >= 1,
            "long job {id} never resumed from checkpoint: {}",
            status.to_text()
        );
    }

    // (d) Chaos survival: the faulted job rolled back and retried, and the
    // service as a whole kept running (everything above already completed).
    let status = client.status(long_b).unwrap();
    assert!(num_of(&status, "rollbacks") >= 1, "{}", status.to_text());
    assert!(num_of(&status, "restarts") >= 1, "{}", status.to_text());

    // Per-job observability: every job has a metrics.jsonl whose lines parse
    // and carry the snapshot schema.
    for id in 1..=8u64 {
        assert_metrics_schema(&dir, id);
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every line of `jobs/job-<id>/metrics.jsonl` must parse as a snapshot
/// object: a `step`, non-negative `wall_s`, and the four sections. (`step`
/// is *not* monotone across lines — a rollback legitimately rewinds it.)
fn assert_metrics_schema(base: &std::path::Path, id: u64) {
    let path = base
        .join("jobs")
        .join(format!("job-{id}"))
        .join("metrics.jsonl");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("job {id}: no metrics at {}: {e}", path.display()));
    let mut lines = 0;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = json::parse(line)
            .unwrap_or_else(|e| panic!("job {id}: bad metrics line {line:?}: {e:?}"));
        v.get("step")
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("job {id}: snapshot missing step: {line}"));
        let wall = v.get("wall_s").and_then(Json::as_f64).unwrap();
        assert!(wall >= 0.0);
        for section in ["phases", "counters", "gauges", "histograms"] {
            assert!(
                matches!(v.get(section), Some(Json::Obj(_))),
                "job {id}: snapshot missing {section}: {line}"
            );
        }
        lines += 1;
    }
    assert!(lines > 0, "job {id}: metrics.jsonl is empty");
}

/// Acceptance (c): graceful drain checkpoints every live job, and the
/// checkpoints actually restore into a fresh solver at the recorded step.
#[test]
fn drain_leaves_resumable_checkpoints() {
    let dir = unique_dir("drain");
    let server = Server::spawn(config(&dir, 8, 8)).unwrap();
    let client = ServeClient::new(server.addr().to_string());

    let ids: Vec<u64> = (0..2)
        .map(|i| {
            client
                .submit(&job(
                    &format!("drained-{i}"),
                    cavity(16, 16),
                    100_000,
                    Priority::Batch,
                ))
                .unwrap()
        })
        .collect();
    for &id in &ids {
        wait_for(&client, id, Duration::from_secs(20), "progress", |s| {
            num_of(s, "steps_done") > 0
        });
    }

    let resp = client.drain().unwrap();
    assert_eq!(resp.get("drained").and_then(Json::as_bool), Some(true));
    // The job on the pool and the one waiting park alike.
    for &id in &ids {
        let (recs, events) = exit_trace(&dir, &client, id);
        assert_ends(&recs, &["admitted", "started"], "drained");
        assert_ends(&events, &["queued", "started(slice)"], "checkpointed(at_step)");
    }

    // Both jobs are terminal-but-resumable, and admission is now closed.
    for &id in &ids {
        let status = client.status(id).unwrap();
        assert_eq!(state_of(&status), "checkpointed", "{}", status.to_text());
        assert!(num_of(&status, "steps_done") > 0);
    }
    match client.submit(&job("late", cavity(16, 16), 10, Priority::Interactive)) {
        Err(SwlbError::Rejected { .. }) => {}
        other => panic!("draining server accepted work: {other:?}"),
    }

    // Restore each drained job's latest checkpoint into a fresh solver and
    // confirm it lands exactly where the service said it stopped.
    let store = CheckpointStore::new(dir.join("checkpoints"), 2).unwrap();
    for &id in &ids {
        let steps_done = num_of(&client.status(id).unwrap(), "steps_done");
        let (ck, _) = store
            .namespaced(&format!("job-{id}"))
            .unwrap()
            .load_latest_valid_any()
            .unwrap()
            .unwrap_or_else(|| panic!("job {id}: drain left no valid checkpoint"));
        assert_eq!(ck.step, steps_done, "job {id}: checkpoint lags status");
        let mut solver = cavity(16, 16)
            .build(ThreadPool::new(1), Recorder::disabled())
            .unwrap();
        solver.restore_chunked_state(&ck).unwrap();
        assert_eq!(solver.step_count(), steps_done);
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An AA-storage job runs through submit → preempt → drain, and its canonical
/// checkpoint (scheme byte `SCHEME_AA`) restores into a fresh
/// solver of EITHER storage scheme — the service can resume a drained AA job
/// as AA or migrate it to AB without any conversion tooling.
#[test]
fn aa_job_drains_to_cross_scheme_resumable_checkpoint() {
    let dir = unique_dir("aa-drain");
    let server = Server::spawn(config(&dir, 4, 8)).unwrap();
    let client = ServeClient::new(server.addr().to_string());

    let mut case = cavity(16, 16);
    case.storage = StorageScheme::Aa;
    let id = client
        .submit(&job("aa-cavity", case.clone(), 100_000, Priority::Batch))
        .unwrap();
    wait_for(&client, id, Duration::from_secs(20), "progress", |s| {
        num_of(s, "steps_done") > 0
    });
    client.drain().unwrap();
    let steps_done = num_of(&client.status(id).unwrap(), "steps_done");

    let store = CheckpointStore::new(dir.join("checkpoints"), 2).unwrap();
    let store = store.namespaced(&format!("job-{id}")).unwrap();
    let (ck, _) = store
        .load_latest_valid_any()
        .unwrap()
        .expect("AA job left no valid checkpoint");
    assert_eq!(ck.scheme, swlb_io::checkpoint::SCHEME_AA);
    let (_, newest) = store.latest().unwrap().unwrap();
    assert!(
        std::fs::read(newest).unwrap().starts_with(b"SWLBGRP1"),
        "the service writes the chunked container, nothing else"
    );
    assert_eq!(ck.step, steps_done);

    let mut ab_case = case.clone();
    ab_case.storage = StorageScheme::Ab;
    for spec in [case, ab_case] {
        let mut solver = spec
            .build(ThreadPool::new(1), Recorder::disabled())
            .unwrap();
        solver.restore_chunked_state(&ck).unwrap();
        assert_eq!(solver.step_count(), steps_done);
        solver.run_checked(4, 2).unwrap();
        assert!(!solver.macroscopic().has_non_finite());
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A wide job shares the worker with a serial rival: it is preempted to a
/// checkpoint and resumed from it, its status keeps the requested width, and
/// the state it checkpointed after resuming is the state the same spec
/// reaches run straight through in one solver.
#[test]
fn wide_job_is_preempted_and_resumes_bit_exact() {
    let dir = unique_dir("wide");
    let server = Server::spawn(config(&dir, 8, 8)).unwrap();
    let client = ServeClient::new(server.addr().to_string());

    let mut wide = job("wide", cavity(16, 16), 480, Priority::Batch);
    wide.width = 4;
    let wide_id = client.submit(&wide).unwrap();
    wait_for(
        &client,
        wide_id,
        Duration::from_secs(20),
        "first slice",
        |s| num_of(s, "steps_done") > 0,
    );

    // A rival of equal weight takes turns with the wide job.
    let rival_id = client
        .submit(&job("rival", cavity(16, 16), 120, Priority::Batch))
        .unwrap();
    wait_for(
        &client,
        rival_id,
        Duration::from_secs(60),
        "rival done",
        |s| state_of(s) == "completed",
    );
    let status = wait_for(
        &client,
        wide_id,
        Duration::from_secs(60),
        "wide done",
        |s| state_of(s) == "completed",
    );
    assert_eq!(num_of(&status, "width"), 4, "{}", status.to_text());
    assert_eq!(num_of(&status, "steps_done"), 480, "{}", status.to_text());

    // Preempted and resumed: the counters that only move on a real
    // checkpoint write / checkpoint read both advanced.
    assert!(num_of(&status, "preemptions") >= 1, "{}", status.to_text());
    assert!(num_of(&status, "resumes") >= 1, "{}", status.to_text());

    assert_newest_checkpoint_is_the_straight_run(&client, &dir, wide_id, &wide.case);
    let (recs, events) = exit_trace(&dir, &client, wide_id);
    assert_ends(&recs, &["admitted", "started"], "completed");
    assert_ends(&events, &["queued", "started(slice)"], "completed(status,outputs)");
    let mut kinds = events.clone();
    kinds.sort();
    kinds.dedup();
    assert_eq!(
        kinds,
        [
            "completed(status,outputs)",
            "preempted(at_step)",
            "progress(steps,of)",
            "queued",
            "resumed(at_step)",
            "started(slice)",
        ]
    );
    assert!(recs.iter().any(|r| r == "preempted"), "{recs:?}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A completed job leaves no checkpoint of its last step; its newest one was
/// written after its last resume, and holds the state the same case reaches
/// run straight through in one solver.
fn assert_newest_checkpoint_is_the_straight_run(
    client: &ServeClient,
    dir: &std::path::Path,
    id: u64,
    case: &CaseSpec,
) {
    let resumed_at = client
        .watch(id, 0)
        .unwrap()
        .iter()
        .filter_map(|e| json::parse(e).ok())
        .filter(|e| e.get("event").and_then(Json::as_str) == Some("resumed"))
        .map(|e| num_of(&e, "at_step"))
        .max()
        .expect("the job resumed");
    let store = CheckpointStore::new(dir.join("checkpoints"), 2).unwrap();
    let store = store.namespaced(&format!("job-{id}")).unwrap();
    let (ck, _) = store
        .load_latest_valid_any()
        .unwrap()
        .expect("the job left a checkpoint");
    assert!(
        ck.step > resumed_at,
        "checkpoint {} vs resume {resumed_at}",
        ck.step
    );
    let mut served = case
        .build(ThreadPool::new(1), Recorder::disabled())
        .unwrap();
    served.restore_chunked_state(&ck).unwrap();
    let mut straight = case
        .build(ThreadPool::new(1), Recorder::disabled())
        .unwrap();
    straight.run_checked(ck.step, ck.step).unwrap();
    assert!(
        served.capture() == straight.capture(),
        "served trajectory diverged"
    );
}

/// The D3Q19 flow past a cylinder (open boundaries, an immersed solid) takes
/// turns with a rival: preempted to a checkpoint, resumed from it, and its
/// newest checkpoint is the straight run's state.
#[test]
fn cylinder_job_is_preempted_and_resumes_bit_exact() {
    let dir = unique_dir("cylinder");
    let server = Server::spawn(config(&dir, 8, 8)).unwrap();
    let client = ServeClient::new(server.addr().to_string());

    let case = CaseSpec {
        case: CaseKind::Cylinder,
        lattice: LatticeKind::D3Q19,
        nz: 3,
        ..cavity(24, 12)
    };
    let cyl = job("cylinder", case, 480, Priority::Batch);
    let cyl_id = client.submit(&cyl).unwrap();
    wait_for(
        &client,
        cyl_id,
        Duration::from_secs(20),
        "first slice",
        |s| num_of(s, "steps_done") > 0,
    );
    let rival_id = client
        .submit(&job("rival", cavity(16, 16), 120, Priority::Batch))
        .unwrap();
    for id in [rival_id, cyl_id] {
        wait_for(&client, id, Duration::from_secs(60), "completed", |s| {
            state_of(s) == "completed"
        });
    }
    let status = client.status(cyl_id).unwrap();
    assert!(num_of(&status, "preemptions") >= 1, "{}", status.to_text());
    assert!(num_of(&status, "resumes") >= 1, "{}", status.to_text());
    assert_newest_checkpoint_is_the_straight_run(&client, &dir, cyl_id, &cyl.case);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `swlb run` is a served job run in-process: the same spec, run by the CLI
/// and by a server, writes byte-identical artifacts.
#[test]
fn run_and_a_served_job_write_identical_artifacts() {
    let dir = unique_dir("run-parity");
    let server = Server::spawn(config(&dir, 8, 8)).unwrap();
    let client = ServeClient::new(server.addr().to_string());
    let cwd = dir.join("cli");
    std::fs::create_dir_all(&cwd).unwrap();

    let cavity2d = cavity(24, 20);
    let cylinder3d = CaseSpec {
        case: CaseKind::Cylinder,
        lattice: LatticeKind::D3Q19,
        nz: 3,
        ..cavity(30, 12)
    };
    for (name, case) in [("cavity2d", cavity2d), ("cylinder3d", cylinder3d)] {
        let mut spec = job(name, case, 40, Priority::Interactive);
        spec.outputs = vec![OutputKind::Ppm, OutputKind::Vtk];
        let c = &spec.case;
        let flags = [
            ("--name", spec.name.clone()),
            ("--case", c.case.name().into()),
            ("--lattice", c.lattice.name().into()),
            ("--nx", c.nx.to_string()),
            ("--ny", c.ny.to_string()),
            ("--nz", c.nz.to_string()),
            ("--tau", c.tau.to_string()),
            ("--u", c.u_lattice.to_string()),
            ("--storage", c.storage.name().into()),
            ("--steps", spec.steps.to_string()),
            ("--output", "ppm".into()),
            ("--output", "vtk".into()),
        ];
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_swlb"))
            .arg("run")
            .args(flags.iter().flat_map(|(f, v)| [f.to_string(), v.clone()]))
            .arg("--quiet")
            .current_dir(&cwd)
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{name}: {stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let summary = json::parse(stdout.trim()).expect("one JSON summary line");
        assert_eq!(num_of(&summary, "steps"), spec.steps, "{stdout}");

        let id = client.submit(&spec).unwrap();
        wait_for(&client, id, Duration::from_secs(60), "completed", |s| {
            state_of(s) == "completed"
        });
        for file in ["speed.ppm", "fields.vtk"] {
            let ran = std::fs::read(cwd.join(name).join(file)).unwrap();
            let served = std::fs::read(server.jobs_dir().join(format!("job-{id}/{file}"))).unwrap();
            assert!(
                ran == served,
                "{name}: {file} differs between run and serve"
            );
        }
        assert_exit(
            &dir,
            &client,
            id,
            &["admitted", "started", "checkpointed", "completed"],
            &["queued", "started(slice)", "progress(steps,of)", "completed(status,outputs)"],
        );
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The pre-flight stability gate guards admission: a BGK case inside the
/// checkerboard margin is refused with a 400 that says why.
#[test]
fn critical_preflight_is_a_400() {
    let dir = unique_dir("preflight");
    let server = Server::spawn(config(&dir, 4, 8)).unwrap();
    let mut spec = job("thin-tau", cavity(16, 16), 16, Priority::Batch);
    spec.case.tau = 0.502;
    let (status, body) = swlb_serve::http::roundtrip(
        &server.addr().to_string(),
        "POST",
        "/v1/jobs",
        spec.to_json().to_text().as_bytes(),
    )
    .unwrap();
    let body = String::from_utf8_lossy(&body);
    assert_eq!(status, 400, "{body}");
    assert!(
        body.contains("tau = 0.5020 is within 0.005 of the stability bound"),
        "{body}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job may ask for more width than its grid has cells: the width sizes
/// nothing, so a `width: 16` job on a 3×3 cavity completes and the job
/// queued behind it runs too.
#[test]
fn wide_job_on_a_tiny_grid_completes_and_the_queue_keeps_moving() {
    let dir = unique_dir("wedge");
    let server = Server::spawn(config(&dir, 8, 8)).unwrap();
    let client = ServeClient::new(server.addr().to_string());

    let mut wide = job("wide-tiny", cavity(3, 3), 16, Priority::Batch);
    wide.width = 16;
    let wide_id = client.submit(&wide).unwrap();
    let next_id = client
        .submit(&job("after", cavity(3, 3), 16, Priority::Batch))
        .unwrap();
    for id in [wide_id, next_id] {
        let status = wait_for(&client, id, Duration::from_secs(5), "completed", |s| {
            state_of(s) == "completed"
        });
        assert_eq!(num_of(&status, "steps_done"), 16, "{}", status.to_text());
    }
    assert_eq!(num_of(&client.status(wide_id).unwrap(), "width"), 16);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Admission control: live jobs beyond capacity bounce with 429/Rejected and
/// are counted, without disturbing the admitted jobs.
#[test]
fn admission_backpressure_rejects_beyond_capacity() {
    let dir = unique_dir("admission");
    let server = Server::spawn(config(&dir, 2, 8)).unwrap();
    let client = ServeClient::new(server.addr().to_string());

    for i in 0..2 {
        client
            .submit(&job(
                &format!("occupant-{i}"),
                cavity(16, 16),
                100_000,
                Priority::Batch,
            ))
            .unwrap();
    }
    match client.submit(&job("excess", cavity(16, 16), 10, Priority::Interactive)) {
        Err(SwlbError::Rejected { capacity }) => assert_eq!(capacity, 2),
        other => panic!("expected Rejected, got {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("rejected").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("live").and_then(Json::as_u64), Some(2));

    // A slot frees once an occupant leaves.
    client.cancel(1).unwrap();
    wait_for(&client, 1, Duration::from_secs(20), "cancel", |s| {
        state_of(s) == "cancelled"
    });
    client
        .submit(&job(
            "after-free",
            cavity(16, 16),
            16,
            Priority::Interactive,
        ))
        .unwrap();

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Write `wire` to a fresh connection, leave it open, and return the status
/// of a reply that arrives within `patience`. The writer runs beside the
/// reader: a server that answers before it has taken the whole request must
/// not deadlock the client, and a reset after the answer is not the client's
/// problem.
fn raw_status(addr: std::net::SocketAddr, wire: Vec<u8>, patience: Duration) -> u16 {
    use std::io::{Read, Write};
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(patience)).unwrap();
    let mut tx = conn.try_clone().unwrap();
    let writer = std::thread::spawn(move || {
        let _ = tx.write_all(&wire);
        let _ = tx.flush();
    });
    let mut reply = Vec::new();
    let mut chunk = [0u8; 4096];
    while !reply.windows(4).any(|w| w == b"\r\n\r\n") {
        match conn.read(&mut chunk) {
            Ok(n) if n > 0 => reply.extend_from_slice(&chunk[..n]),
            other => panic!(
                "no reply head: {other:?} after {:?}",
                String::from_utf8_lossy(&reply)
            ),
        }
    }
    drop(conn);
    writer.join().unwrap();
    let head = String::from_utf8_lossy(&reply);
    head.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line")
}

/// One unauthenticated request must not be able to take the process down or
/// make it buffer without bound: a JSON body nested 20 000 deep used to
/// overflow the handler thread's stack (an abort, which no one can reap), and
/// a request head with no newline in it grew a `String` for as long as the
/// peer kept sending and was refused only when the handler's own read
/// deadline fired. Both are now a 400 after a bounded read — the client never
/// closes or finishes, and still hears back well inside that deadline — and
/// the server keeps serving.
#[test]
fn hostile_requests_get_a_400_and_the_server_keeps_serving() {
    let dir = unique_dir("hostile");
    let cfg = config(&dir, 4, 8);
    let patience = cfg.io_timeout.expect("handlers have a deadline") / 2;
    let server = Server::spawn(cfg).unwrap();
    let client = ServeClient::new(server.addr().to_string());
    let status = |wire: Vec<u8>| raw_status(server.addr(), wire, patience);

    let bomb = "[".repeat(20_000);
    let mut wire = Vec::new();
    swlb_serve::http::send_request(&mut wire, "POST", "/v1/jobs", bomb.as_bytes()).unwrap();
    assert_eq!(status(wire), 400, "depth bomb");
    assert!(client.stats().is_ok(), "server survives the depth bomb");

    assert_eq!(status(vec![b'A'; 1 << 20]), 400, "newline-free head");
    let mut headers = b"POST /v1/jobs HTTP/1.1\r\n".to_vec();
    headers.extend(b"x-pad: y\r\n".repeat(1 << 16));
    assert_eq!(status(headers), 400, "endless headers");

    // Still admitting and running jobs.
    let id = client
        .submit(&job("after", cavity(16, 16), 16, Priority::Interactive))
        .unwrap();
    wait_for(&client, id, Duration::from_secs(20), "completion", |s| {
        state_of(s) == "completed"
    });
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cancellation is honoured at the next slice boundary for a running job.
#[test]
fn cancel_stops_a_running_job_at_a_slice_boundary() {
    let dir = unique_dir("cancel");
    let server = Server::spawn(config(&dir, 4, 8)).unwrap();
    let client = ServeClient::new(server.addr().to_string());

    let id = client
        .submit(&job("doomed", cavity(16, 16), 100_000, Priority::Batch))
        .unwrap();
    wait_for(&client, id, Duration::from_secs(20), "progress", |s| {
        num_of(s, "steps_done") > 0
    });
    client.cancel(id).unwrap();
    let status = wait_for(&client, id, Duration::from_secs(20), "cancelled", |s| {
        state_of(s) == "cancelled"
    });
    let done = num_of(&status, "steps_done");
    assert!(done > 0 && done < 100_000);
    // The event stream ends with the cancellation.
    let events = client.watch(id, 0).unwrap();
    assert!(
        events.iter().any(|e| e.contains("\"event\":\"cancelled\"")),
        "{events:?}"
    );
    assert_exit(
        &dir,
        &client,
        id,
        &["admitted", "started", "checkpointed", "cancelled"],
        &["queued", "started(slice)", "progress(steps,of)", "cancelled"],
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A terminal job lets go of its recorder: after hundreds of finished jobs
/// the server holds O(1) open `metrics.jsonl` descriptors, not one per job
/// ever run (which under `ulimit -n 1024` silently cost every later job its
/// metrics), and every stream still ends with the job's final flush.
#[test]
#[cfg(target_os = "linux")]
fn terminal_jobs_release_their_metrics_streams() {
    const JOBS: u64 = 300;
    let dir = unique_dir("fd-release").canonicalize().unwrap();
    let server = Server::spawn(config(&dir, 16, 8)).unwrap();
    let client = ServeClient::new(server.addr().to_string());
    // Other tests share this process, so count only the descriptors that
    // point into this server's own job directory.
    let open_streams = || {
        std::fs::read_dir("/proc/self/fd")
            .unwrap()
            .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
            .filter(|target| target.starts_with(&dir))
            .filter(|target| target.ends_with("metrics.jsonl"))
            .count()
    };
    assert_eq!(open_streams(), 0);

    // One job cancelled mid-run, then the stream of tiny ones, eight at a time.
    let doomed = client
        .submit(&job("doomed", cavity(16, 16), 100_000, Priority::Batch))
        .unwrap();
    wait_for(&client, doomed, Duration::from_secs(20), "progress", |s| {
        num_of(s, "steps_done") > 0
    });
    client.cancel(doomed).unwrap();
    wait_for(&client, doomed, Duration::from_secs(20), "cancelled", |s| {
        state_of(s) == "cancelled"
    });
    let mut ids = Vec::new();
    while (ids.len() as u64) < JOBS {
        let batch: Vec<u64> = (0..8)
            .map(|i| {
                let name = format!("tiny-{}", ids.len() + i);
                client
                    .submit(&job(&name, cavity(8, 8), 16, Priority::Batch))
                    .unwrap()
            })
            .collect();
        for id in &batch {
            wait_for(&client, *id, Duration::from_secs(30), "completion", |s| {
                state_of(s) == "completed"
            });
        }
        ids.extend(batch);
    }

    // The scheduler may still cache the solver (and with it the recorder) of
    // the job it ran last; nothing else is left open.
    let open = open_streams();
    assert!(open <= 2, "{open} metrics streams still open after {JOBS} jobs");
    // Complete streams: every line parses and the last one is the terminal
    // flush at the job's final step.
    for id in ids.iter().copied().chain([doomed]) {
        assert_metrics_schema(&dir, id);
        let path = dir.join(format!("jobs/job-{id}/metrics.jsonl"));
        let text = std::fs::read_to_string(path).unwrap();
        let last = json::parse(text.lines().last().unwrap()).unwrap();
        let done = num_of(&client.status(id).unwrap(), "steps_done");
        assert_eq!(num_of(&last, "step"), done, "job {id}: final flush missing");
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `GET /v1/jobs?ids=…` answers for just those jobs — what a fleet sync asks
/// for — and leaves the bare route as it was.
#[test]
fn list_filters_by_ids() {
    let dir = unique_dir("list-ids");
    let server = Server::spawn(config(&dir, 16, 8)).unwrap();
    let addr = server.addr().to_string();
    let client = ServeClient::new(addr.clone());
    for i in 0..5 {
        client
            .submit(&job(&format!("j{i}"), cavity(8, 8), 16, Priority::Batch))
            .unwrap();
    }
    let ids_of = |items: Vec<Json>| -> Vec<u64> { items.iter().map(|j| num_of(j, "id")).collect() };
    assert_eq!(ids_of(client.list().unwrap()), [1, 2, 3, 4, 5]);
    // Request order is kept; ids the server never saw are omitted.
    assert_eq!(ids_of(client.list_ids(&[4, 99, 2]).unwrap()), [4, 2]);
    assert_eq!(ids_of(client.list_ids(&[]).unwrap()), [0u64; 0]);
    let (status, _) = swlb_serve::http::roundtrip(&addr, "GET", "/v1/jobs?ids=2,x", b"").unwrap();
    assert_eq!(status, 400, "a malformed id list is refused, not ignored");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A rollback reports the step it actually restored: the job's last
/// checkpoint before the fault, not 0. Slices of 8 with a checkpoint every 16
/// steps put checkpoints at 8 and 24; the fault injected at step 24 trips the
/// check after the next slice and the job rolls back to 24.
#[test]
fn rollback_event_reports_the_restored_checkpoint_step() {
    let dir = unique_dir("rollback-step");
    let server = Server::spawn(config(&dir, 4, 8)).unwrap();
    let client = ServeClient::new(server.addr().to_string());

    let mut faulted = job("faulted", cavity(16, 16), 64, Priority::Batch);
    faulted.chaos_nan_at_step = Some(24);
    let id = client.submit(&faulted).unwrap();
    let events = client.watch(id, 0).unwrap();
    assert!(
        events.iter().any(|e| e.contains("\"event\":\"completed\"")),
        "{events:?}"
    );

    let rollbacks: Vec<Json> = events
        .iter()
        .filter(|e| e.contains("\"event\":\"rollback\""))
        .map(|e| json::parse(e).unwrap())
        .collect();
    assert_eq!(rollbacks.len(), 1, "{events:?}");
    assert_eq!(num_of(&rollbacks[0], "to_step"), 24, "{events:?}");
    let status = client.status(id).unwrap();
    assert_eq!(num_of(&status, "rollbacks"), 1, "{}", status.to_text());
    assert_eq!(num_of(&status, "steps_done"), 64, "{}", status.to_text());
    assert_exit(
        &dir,
        &client,
        id,
        &["admitted", "started", "checkpointed", "completed"],
        &[
            "queued",
            "started(slice)",
            "progress(steps,of)",
            "chaos_injected",
            "progress(steps,of)",
            "resumed(at_step)",
            "rollback(to_step,restarts)",
            "progress(steps,of)",
            "completed(status,outputs)",
        ],
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `start`'s state in a retired whole-domain layout (version 1 or 2), as a
/// deployment older than the chunked format left it on disk.
fn retired_layout_bytes(version: u32, start: &swlb_io::Checkpoint) -> Vec<u8> {
    let mut body = b"SWLBCKPT".to_vec();
    body.extend_from_slice(&version.to_le_bytes());
    body.extend_from_slice(&start.step.to_le_bytes());
    for d in [start.dims.0, start.dims.1, start.dims.2, start.q] {
        body.extend_from_slice(&d.to_le_bytes());
    }
    if version >= 2 {
        body.extend_from_slice(&[start.scheme, 0, 0, 0]); // scheme, parity, pad
    }
    body.extend_from_slice(&(start.data.len() as u64).to_le_bytes());
    for v in &start.data {
        body.extend_from_slice(&v.to_le_bytes());
    }
    let crc = swlb_io::crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// A state directory written before the chunked format resumes through the
/// scheduler: the job picks up at the retired file's step and continues the
/// uninterrupted trajectory bit-for-bit. With a damaged chunked file on top,
/// the store reports it skipped and falls back to the retired one. Slice 8,
/// checkpoint every 16: resumed at 8, the service checkpoints again at 24.
#[test]
fn retired_checkpoint_layouts_resume_through_the_scheduler() {
    let case = cavity(16, 16);
    let solver = || {
        case.build(ThreadPool::new(1), Recorder::disabled())
            .unwrap()
    };
    let mut straight = solver();
    straight.run_checked(8, 8).unwrap();
    let start = straight.capture();
    straight.run_checked(4, 4).unwrap();
    let later = straight.capture_chunked();
    straight.run_checked(12, 12).unwrap();
    let want = straight.capture_chunked();
    assert_eq!((start.step, later.step, want.step), (8, 12, 24));

    for (tag, version, damaged_on_top) in
        [("v1", 1, false), ("v2", 2, false), ("v2-under-bad-v3", 2, true)]
    {
        let dir = unique_dir(&format!("retired-{tag}"));
        let store = CheckpointStore::new(dir.join("checkpoints"), 2)
            .unwrap()
            .namespaced("job-1")
            .unwrap();
        std::fs::write(store.path_for(8), retired_layout_bytes(version, &start)).unwrap();
        if damaged_on_top {
            let newer = store.save_chunked(&later).unwrap();
            let mut bytes = std::fs::read(&newer).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x20;
            std::fs::write(&newer, bytes).unwrap();
            let (ck, skipped) = store.load_latest_valid_any().unwrap().unwrap();
            assert_eq!(ck.step, 8, "{tag}");
            assert_eq!(skipped, vec![newer], "{tag}");
        }

        let server = Server::spawn(config(&dir, 4, 8)).unwrap();
        let client = ServeClient::new(server.addr().to_string());
        let id = client
            .submit(&job("old-state", case.clone(), 32, Priority::Batch))
            .unwrap();
        assert_eq!(id, 1, "{tag}: the seeded namespace is job 1's");
        let events = client.watch(id, 0).unwrap();
        let resumed = events
            .iter()
            .find(|e| e.contains("\"event\":\"resumed\""))
            .unwrap_or_else(|| panic!("{tag}: no resumed event in {events:?}"));
        assert_eq!(num_of(&json::parse(resumed).unwrap(), "at_step"), 8, "{tag}");
        assert!(
            events.iter().any(|e| e.contains("\"event\":\"completed\"")),
            "{tag}: {events:?}"
        );
        assert_eq!(num_of(&client.status(id).unwrap(), "steps_done"), 32, "{tag}");
        server.shutdown();

        let (got, _) = store.load_latest_valid_any().unwrap().unwrap();
        assert_eq!(got, want, "{tag}: resumed populations at step 24");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// With no restart budget a fault fails the job alone: one `faulted` record,
/// one `failed` event that says why, and the next job still runs.
#[test]
fn an_exhausted_restart_budget_fails_the_job_alone() {
    let dir = unique_dir("budget");
    let mut cfg = config(&dir, 4, 8);
    cfg.policy.max_restarts = 0;
    let server = Server::spawn(cfg).unwrap();
    let client = ServeClient::new(server.addr().to_string());

    let mut faulted = job("faulted", cavity(16, 16), 64, Priority::Batch);
    faulted.chaos_nan_at_step = Some(24);
    let id = client.submit(&faulted).unwrap();
    let status = wait_for(&client, id, Duration::from_secs(20), "failure", |s| {
        state_of(s) == "failed"
    });
    let error = status.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(error.contains("restart budget exhausted"), "{}", status.to_text());
    assert_exit(
        &dir,
        &client,
        id,
        &["admitted", "started", "checkpointed", "faulted"],
        &[
            "queued",
            "started(slice)",
            "progress(steps,of)",
            "chaos_injected",
            "progress(steps,of)",
            "failed(error)",
        ],
    );
    let next = client
        .submit(&job("next", cavity(16, 16), 16, Priority::Batch))
        .unwrap();
    wait_for(&client, next, Duration::from_secs(20), "completion", |s| {
        state_of(s) == "completed"
    });
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The exits a fleet worker adds, each pinned while one long first slice
/// holds the pool, so the jobs behind it are still queued: a cancel and a
/// handoff of a queued job end it without a slice, a push whose checkpoint
/// cannot be seeded is cancelled with the reason, and a handoff of the
/// running job parks it at its next slice boundary.
#[test]
fn worker_exits_journal_and_emit_one_record_each() {
    let dir = unique_dir("worker-exits");
    let mut cfg = config(&dir, 8, 2048);
    cfg.worker_routes = true;
    let server = Server::spawn(cfg).unwrap();
    let addr = server.addr().to_string();
    let client = ServeClient::new(addr.clone());
    let post = |target: &str, body: &[u8]| {
        swlb_serve::http::roundtrip(&addr, "POST", target, body)
            .unwrap()
            .0
    };

    // A first slice of a second or so in either build: long enough for the
    // requests below to find the pool taken, well inside the 20 s a handoff
    // handler waits for a slice boundary, and a handoff envelope that fits
    // `http::roundtrip`'s 1 MiB reply.
    let n = if cfg!(debug_assertions) { 64 } else { 112 };
    let blocker = client
        .submit(&job("blocker", cavity(n, n), 100_000, Priority::Batch))
        .unwrap();
    wait_for(&client, blocker, Duration::from_secs(20), "the pool", |s| {
        state_of(s) == "running"
    });
    let cancelled = client
        .submit(&job("cancelled", cavity(8, 8), 16, Priority::Batch))
        .unwrap();
    client.cancel(cancelled).unwrap();
    let handed = client
        .submit(&job("handed", cavity(8, 8), 16, Priority::Batch))
        .unwrap();
    assert_eq!(post(&format!("/v1/jobs/{handed}/handoff"), b""), 200);
    let unseeded = PushEnvelope {
        spec: job("unseeded", cavity(8, 8), 16, Priority::Batch),
        fleet_id: 7,
        step: 8,
        width: 1,
        ckpt: b"not a checkpoint".to_vec(),
    };
    assert_eq!(post("/v1/fleet/push", &unseeded.encode()), 500);
    let unseeded = handed + 1;
    // Everything above found the pool taken: the first slice has not ended.
    assert_eq!(num_of(&client.status(blocker).unwrap(), "steps_done"), 0);
    assert_eq!(post(&format!("/v1/jobs/{blocker}/handoff"), b""), 200);

    assert_exit(&dir, &client, cancelled, &["admitted", "cancelled"], &["queued", "cancelled"]);
    assert_exit(
        &dir,
        &client,
        handed,
        &["admitted", "drained"],
        &["queued", "handed_off(at_step)"],
    );
    assert_exit(
        &dir,
        &client,
        unseeded,
        &["admitted", "cancelled"],
        &["pushed(fleet_id,at_step)", "cancelled(error)"],
    );
    assert_exit(
        &dir,
        &client,
        blocker,
        &["admitted", "started", "checkpointed", "drained"],
        &["queued", "started(slice)", "progress(steps,of)", "handed_off(at_step)"],
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job that ran and restarts with every checkpoint gone starts again from
/// step 0, and its `resumed` event says so in both fields: the step the
/// solver starts at, not the step the journal last saw.
#[test]
fn a_job_restarted_without_its_checkpoints_resumes_at_step_zero() {
    let dir = unique_dir("resume-at-zero");
    let server = Server::spawn(config(&dir, 4, 8)).unwrap();
    let client = ServeClient::new(server.addr().to_string());
    let id = client
        .submit(&job("lost", cavity(16, 16), 100_000, Priority::Batch))
        .unwrap();
    wait_for(&client, id, Duration::from_secs(20), "progress", |s| {
        num_of(s, "steps_done") > 0
    });
    server.shutdown();
    std::fs::remove_dir_all(dir.join("checkpoints").join(format!("job-{id}"))).unwrap();

    let server = Server::spawn(config(&dir, 4, 8)).unwrap();
    let client = ServeClient::new(server.addr().to_string());
    wait_for(&client, id, Duration::from_secs(20), "the resume", |s| {
        num_of(s, "resumes") > 0
    });
    client.cancel(id).unwrap();
    let resumed: Vec<Json> = client
        .watch(id, 0)
        .unwrap()
        .iter()
        .map(|e| json::parse(e).unwrap())
        .filter(|e| e.get("event").and_then(Json::as_str) == Some("resumed"))
        .collect();
    assert_eq!(resumed.len(), 1, "{resumed:?}");
    let at = (num_of(&resumed[0], "step"), num_of(&resumed[0], "at_step"));
    assert_eq!(at, (0, 0), "{}", resumed[0].to_text());
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Loopback soak: forty mixed jobs pushed through a capacity-8 table with
/// submit-retry on backpressure. Slow — run with `cargo test -- --ignored`.
#[test]
#[ignore = "soak test; run explicitly with --ignored"]
fn soak_forty_jobs_through_bounded_table() {
    let dir = unique_dir("soak");
    let server = Server::spawn(config(&dir, 8, 8)).unwrap();
    let client = ServeClient::new(server.addr().to_string());

    let mut ids = Vec::new();
    for i in 0..40u64 {
        let (priority, steps) = if i % 3 == 0 {
            (Priority::Batch, 160)
        } else {
            (Priority::Interactive, 24)
        };
        let mut spec = job(&format!("soak-{i}"), cavity(16, 16), steps, priority);
        if i % 10 == 7 {
            spec.chaos_nan_at_step = Some(steps / 2);
        }
        let id = loop {
            match client.submit(&spec) {
                Ok(id) => break id,
                Err(SwlbError::Rejected { .. }) => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => panic!("submit failed: {e:?}"),
            }
        };
        ids.push(id);
    }

    for &id in &ids {
        let status = wait_for(&client, id, Duration::from_secs(120), "completion", |s| {
            state_of(s) == "completed"
        });
        assert_eq!(num_of(&status, "steps_done"), num_of(&status, "steps"));
    }
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), 40, "duplicated or lost job ids: {ids:?}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
