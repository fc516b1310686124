//! Typed job-lifecycle records for the [`swlb_io::journal::Wal`] write-ahead
//! log, and the fold that rebuilds the job table from them after a crash.
//!
//! Record schema (one JSON object per journal line):
//!
//! ```text
//! {"rec":"admitted","id":N,"seq":N,"spec":{...}}   durable before 202
//! {"rec":"started","id":N}
//! {"rec":"checkpointed","id":N,"step":N}
//! {"rec":"preempted","id":N,"step":N}
//! {"rec":"drained","id":N,"step":N}                resumable across restarts
//! {"rec":"completed","id":N}                       durable, terminal
//! {"rec":"cancelled","id":N}                       durable, terminal
//! {"rec":"faulted","id":N,"error":"..."}           durable, terminal
//! ```
//!
//! Replay folds the record stream per job id: a job whose last word is
//! terminal is restored terminal (reported once, never re-run); a job that
//! was admitted but not terminal is re-admitted with its original id, spec
//! and arrival order, and — if it ever ran — rebinds to its latest valid
//! checkpoint on its first slice (corrupt generations are skipped by
//! [`CheckpointStore::load_latest_valid_any`](swlb_io::CheckpointStore::load_latest_valid_any)).
//!
//! The per-job half of that fold — first admission wins, arrival order, a
//! terminal is never demoted — is [`Fold`], which the fleet controller's
//! record fold reuses with its own outcome type. The writer, its degraded
//! mode and the recovery sequence are [`swlb_io::journal::Wal`]'s.

use crate::json::Json;
use crate::spec::JobSpec;
use swlb_io::journal::{WalEvent, WalState};

/// One journaled lifecycle transition.
#[derive(Debug, Clone, PartialEq)]
pub enum JobEvent {
    /// Job accepted into the table. Written durably *before* the 202 reply.
    Admitted {
        /// Service-assigned id.
        id: u64,
        /// Arrival order (FIFO tie-break in the scheduler).
        seq: u64,
        /// The full submission, so replay can rebuild the solver.
        spec: JobSpec,
    },
    /// First slice granted.
    Started {
        /// Job id.
        id: u64,
    },
    /// A checkpoint for `step` is on disk (rollback/restart target).
    Checkpointed {
        /// Job id.
        id: u64,
        /// Completed steps captured by the checkpoint.
        step: u64,
    },
    /// Sliced off the pool (checkpoint written first).
    Preempted {
        /// Job id.
        id: u64,
        /// Completed steps at preemption.
        step: u64,
    },
    /// A width change at a slice boundary. Nothing writes it any more; it
    /// still parses, so a journal that holds one replays clean, and the fold
    /// ignores it.
    Resharded {
        /// Job id.
        id: u64,
        /// Width before the change.
        from: u32,
        /// Width after the change.
        to: u32,
    },
    /// Graceful drain parked the job, resumable after restart.
    Drained {
        /// Job id.
        id: u64,
        /// Completed steps at drain.
        step: u64,
    },
    /// Terminal: all steps done, outputs written.
    Completed {
        /// Job id.
        id: u64,
    },
    /// Terminal: cancelled by the client.
    Cancelled {
        /// Job id.
        id: u64,
    },
    /// Terminal: restart budget exhausted or unrecoverable build failure.
    Faulted {
        /// Job id.
        id: u64,
        /// The final error message.
        error: String,
    },
}

impl WalEvent for JobEvent {
    /// Terminal records (and admissions) are fsynced before acknowledgement.
    fn is_durable(&self) -> bool {
        matches!(
            self,
            JobEvent::Admitted { .. }
                | JobEvent::Completed { .. }
                | JobEvent::Cancelled { .. }
                | JobEvent::Faulted { .. }
                | JobEvent::Drained { .. }
        )
    }

    fn to_line(&self) -> String {
        let v = match self {
            JobEvent::Admitted { id, seq, spec } => Json::obj([
                ("rec", Json::str("admitted")),
                ("id", Json::num(*id as f64)),
                ("seq", Json::num(*seq as f64)),
                ("spec", spec.to_json()),
            ]),
            JobEvent::Started { id } => {
                Json::obj([("rec", Json::str("started")), ("id", Json::num(*id as f64))])
            }
            JobEvent::Checkpointed { id, step } => Json::obj([
                ("rec", Json::str("checkpointed")),
                ("id", Json::num(*id as f64)),
                ("step", Json::num(*step as f64)),
            ]),
            JobEvent::Preempted { id, step } => Json::obj([
                ("rec", Json::str("preempted")),
                ("id", Json::num(*id as f64)),
                ("step", Json::num(*step as f64)),
            ]),
            JobEvent::Resharded { id, from, to } => Json::obj([
                ("rec", Json::str("resharded")),
                ("id", Json::num(*id as f64)),
                ("from", Json::num(*from as f64)),
                ("to", Json::num(*to as f64)),
            ]),
            JobEvent::Drained { id, step } => Json::obj([
                ("rec", Json::str("drained")),
                ("id", Json::num(*id as f64)),
                ("step", Json::num(*step as f64)),
            ]),
            JobEvent::Completed { id } => Json::obj([
                ("rec", Json::str("completed")),
                ("id", Json::num(*id as f64)),
            ]),
            JobEvent::Cancelled { id } => Json::obj([
                ("rec", Json::str("cancelled")),
                ("id", Json::num(*id as f64)),
            ]),
            JobEvent::Faulted { id, error } => Json::obj([
                ("rec", Json::str("faulted")),
                ("id", Json::num(*id as f64)),
                ("error", Json::str(error.clone())),
            ]),
        };
        v.to_text()
    }

    fn parse(line: &str) -> Option<JobEvent> {
        let v = crate::json::parse(line).ok()?;
        let id = v.get("id").and_then(Json::as_u64)?;
        let step = || v.get("step").and_then(Json::as_u64);
        match v.get("rec").and_then(Json::as_str)? {
            "admitted" => Some(JobEvent::Admitted {
                id,
                seq: v.get("seq").and_then(Json::as_u64)?,
                spec: JobSpec::from_json(v.get("spec")?).ok()?,
            }),
            "started" => Some(JobEvent::Started { id }),
            "checkpointed" => Some(JobEvent::Checkpointed { id, step: step()? }),
            "preempted" => Some(JobEvent::Preempted { id, step: step()? }),
            "resharded" => Some(JobEvent::Resharded {
                id,
                from: v.get("from").and_then(Json::as_u64)? as u32,
                to: v.get("to").and_then(Json::as_u64)? as u32,
            }),
            "drained" => Some(JobEvent::Drained { id, step: step()? }),
            "completed" => Some(JobEvent::Completed { id }),
            "cancelled" => Some(JobEvent::Cancelled { id }),
            "faulted" => Some(JobEvent::Faulted {
                id,
                error: v
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
            }),
            _ => None,
        }
    }
}

/// A job's folded fate after replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum ReplayOutcome {
    /// Never ran (or no progress survived): re-queue from step 0.
    #[default]
    Queued,
    /// Ran before the crash: re-queue and rebind to the latest valid
    /// checkpoint (`last_step` is the newest journaled checkpoint step — the
    /// on-disk store is still consulted, and may fall back a generation).
    Resumable {
        /// Newest journaled checkpoint step.
        last_step: u64,
    },
    /// Terminal before the crash — restored as-is, never re-run.
    Completed,
    /// Terminal: cancelled.
    Cancelled,
    /// Terminal: faulted with this error.
    Faulted(String),
}

/// What [`Fold`] asks of a tier's outcome type: `Default` is the fate of a
/// job that was admitted and nothing more.
pub trait Outcome: Default {
    /// Whether the job can never run again.
    fn is_terminal(&self) -> bool;
}

impl Outcome for ReplayOutcome {
    fn is_terminal(&self) -> bool {
        matches!(
            self,
            ReplayOutcome::Completed | ReplayOutcome::Cancelled | ReplayOutcome::Faulted(_)
        )
    }
}

/// One job rebuilt from a journal, with the tier's folded fate `O`.
#[derive(Debug, Clone)]
pub struct Replayed<O> {
    /// Original service-assigned id.
    pub id: u64,
    /// Original arrival order.
    pub seq: u64,
    /// The original submission.
    pub spec: JobSpec,
    /// Folded fate.
    pub outcome: O,
}

/// One job of the serve tier's job table rebuilt from the journal.
pub type ReplayedJob = Replayed<ReplayOutcome>;

/// Per-job outcomes folded from a journal, ordered by original arrival
/// (`seq`). Each tier's [`WalState::apply`] maps its records onto
/// [`Fold::admit`] and [`Fold::set`].
#[derive(Debug, Clone, Default)]
pub struct Fold<O> {
    /// The jobs, in arrival order.
    pub jobs: Vec<Replayed<O>>,
}

impl<O: Outcome> Fold<O> {
    /// Record an admission. Duplicate admission records (e.g.
    /// post-compaction overlap) keep the first occurrence.
    pub fn admit(&mut self, id: u64, seq: u64, spec: JobSpec) {
        if self.jobs.iter().all(|j| j.id != id) {
            let job = Replayed {
                id,
                seq,
                spec,
                outcome: O::default(),
            };
            let at = self.jobs.partition_point(|j| j.seq <= seq);
            self.jobs.insert(at, job);
        }
    }

    /// Move job `id` to `outcome`; a record for a job whose admission was
    /// lost is ignored. Terminal outcomes are never demoted: a progress
    /// record *after* a terminal (out-of-order tail from a duplicated
    /// segment) must not resurrect the job.
    pub fn set(&mut self, id: u64, outcome: O) {
        if let Some(job) = self.jobs.iter_mut().find(|j| j.id == id) {
            if outcome.is_terminal() || !job.outcome.is_terminal() {
                job.outcome = outcome;
            }
        }
    }
}

/// The serve tier's journal fold; the journal itself is a `Wal<JobEvent>`.
pub type JobTable = Fold<ReplayOutcome>;

impl WalState<JobEvent> for JobTable {
    fn apply(&mut self, ev: JobEvent) {
        match ev {
            JobEvent::Admitted { id, seq, spec } => self.admit(id, seq, spec),
            // Started but no checkpoint yet: restart from 0 — still Queued,
            // build_or_resume finds no checkpoint and rebuilds. Resharded is
            // width history, not progress.
            JobEvent::Started { .. } | JobEvent::Resharded { .. } => {}
            JobEvent::Checkpointed { id, step }
            | JobEvent::Preempted { id, step }
            | JobEvent::Drained { id, step } => {
                self.set(id, ReplayOutcome::Resumable { last_step: step })
            }
            JobEvent::Completed { id } => self.set(id, ReplayOutcome::Completed),
            JobEvent::Cancelled { id } => self.set(id, ReplayOutcome::Cancelled),
            JobEvent::Faulted { id, error } => self.set(id, ReplayOutcome::Faulted(error)),
        }
    }

    /// Per job: the admission plus (if any) its latest materialized state.
    fn compacted(&self) -> Vec<JobEvent> {
        let mut out = Vec::new();
        for job in &self.jobs {
            let id = job.id;
            out.push(JobEvent::Admitted {
                id,
                seq: job.seq,
                spec: job.spec.clone(),
            });
            out.extend(match &job.outcome {
                ReplayOutcome::Queued => None,
                ReplayOutcome::Resumable { last_step } => Some(JobEvent::Checkpointed {
                    id,
                    step: *last_step,
                }),
                ReplayOutcome::Completed => Some(JobEvent::Completed { id }),
                ReplayOutcome::Cancelled => Some(JobEvent::Cancelled { id }),
                ReplayOutcome::Faulted(e) => Some(JobEvent::Faulted {
                    id,
                    error: e.clone(),
                }),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{OutputKind, Priority};
    use swlb_io::journal::{fold, Journal, Wal};
    use swlb_obs::Recorder;
    use swlb_sim::cases::{CaseKind, CaseSpec, LatticeKind};

    /// A `Wal<JobEvent>` over a fresh journal at `dir`.
    fn open(dir: &std::path::Path, buffer_max: usize) -> Wal<JobEvent> {
        Wal::recover::<JobTable>(dir, buffer_max, Recorder::disabled(), "journal")
            .unwrap()
            .0
    }

    fn spec(name: &str) -> JobSpec {
        JobSpec {
            name: name.into(),
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
            steps: 100,
            priority: Priority::Batch,
            deadline_ms: None,
            outputs: vec![OutputKind::Ppm],
            chaos_nan_at_step: None,
            width: 1,
            tenant: crate::spec::DEFAULT_TENANT.to_string(),
        }
    }

    #[test]
    fn event_lines_roundtrip() {
        let events = [
            JobEvent::Admitted {
                id: 3,
                seq: 2,
                spec: spec("a"),
            },
            JobEvent::Started { id: 3 },
            JobEvent::Checkpointed { id: 3, step: 64 },
            JobEvent::Preempted { id: 3, step: 64 },
            JobEvent::Resharded {
                id: 3,
                from: 4,
                to: 2,
            },
            JobEvent::Drained { id: 3, step: 96 },
            JobEvent::Completed { id: 3 },
            JobEvent::Cancelled { id: 3 },
            JobEvent::Faulted {
                id: 3,
                error: "restart budget exhausted".into(),
            },
        ];
        // The on-disk schema, byte for byte: a journal written by any earlier
        // build must replay on this one.
        let pinned = [
            r#"{"rec":"admitted","id":3,"seq":2,"spec":{"name":"a","case":"cavity","lattice":"d2q9","nx":8,"ny":8,"nz":1,"tau":0.8,"u":0.05,"storage":"ab","steps":100,"priority":"batch","outputs":["ppm"]}}"#,
            r#"{"rec":"started","id":3}"#,
            r#"{"rec":"checkpointed","id":3,"step":64}"#,
            r#"{"rec":"preempted","id":3,"step":64}"#,
            r#"{"rec":"resharded","id":3,"from":4,"to":2}"#,
            r#"{"rec":"drained","id":3,"step":96}"#,
            r#"{"rec":"completed","id":3}"#,
            r#"{"rec":"cancelled","id":3}"#,
            r#"{"rec":"faulted","id":3,"error":"restart budget exhausted"}"#,
        ];
        for (ev, want) in events.into_iter().zip(pinned) {
            let line = ev.to_line();
            assert_eq!(line, want);
            assert!(!line.contains('\n'));
            assert_eq!(JobEvent::parse(&line), Some(ev));
        }
        // Strings a record must carry through the line codec unharmed.
        let hostile = [
            "say \"hi\"",
            "back\\slash \\n is two characters",
            "two\nlines\r\n\ttabbed",
            "na\u{ef}ve \u{2207}\u{b7}u \u{2260} 0 \u{6d41}\u{4f53}",
            "",
        ];
        for error in hostile {
            let ev = JobEvent::Faulted {
                id: 3,
                error: error.into(),
            };
            let line = ev.to_line();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(JobEvent::parse(&line), Some(ev));
        }
        assert_eq!(JobEvent::parse("{\"rec\":\"warp\",\"id\":1}"), None);
        assert_eq!(JobEvent::parse("not json"), None);
    }

    #[test]
    fn fold_reconstructs_outcomes_in_arrival_order() {
        let lines = vec![
            JobEvent::Admitted {
                id: 1,
                seq: 0,
                spec: spec("first"),
            }
            .to_line(),
            JobEvent::Admitted {
                id: 2,
                seq: 1,
                spec: spec("second"),
            }
            .to_line(),
            JobEvent::Admitted {
                id: 3,
                seq: 2,
                spec: spec("third"),
            }
            .to_line(),
            JobEvent::Started { id: 1 }.to_line(),
            JobEvent::Checkpointed { id: 1, step: 32 }.to_line(),
            JobEvent::Started { id: 2 }.to_line(),
            JobEvent::Completed { id: 2 }.to_line(),
            "garbage that frames fine but is not an event".to_string(),
        ];
        let (JobTable { jobs }, unparseable) = fold::<JobEvent, JobTable>(&lines);
        assert_eq!(unparseable, 1);
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[0].id, 1);
        assert_eq!(jobs[0].outcome, ReplayOutcome::Resumable { last_step: 32 });
        assert_eq!(jobs[1].outcome, ReplayOutcome::Completed);
        assert_eq!(jobs[2].outcome, ReplayOutcome::Queued);
        assert_eq!(jobs[2].spec.name, "third");
    }

    #[test]
    fn journals_with_wide_admissions_and_reshards_replay_clean() {
        // Records as builds that re-sharded wide jobs wrote them.
        let admitted = |id: u64, seq: u64| {
            format!(
                r#"{{"rec":"admitted","id":{id},"seq":{seq},"spec":{{"name":"w","case":"cavity","lattice":"d2q9","nx":8,"ny":8,"nz":1,"tau":0.8,"u":0.05,"storage":"ab","steps":100,"priority":"batch","outputs":["ppm"],"width":4}}}}"#
            )
        };
        let old = [
            admitted(1, 0),
            r#"{"rec":"started","id":1}"#.to_string(),
            r#"{"rec":"resharded","id":1,"from":4,"to":2}"#.to_string(),
            r#"{"rec":"checkpointed","id":1,"step":32}"#.to_string(),
            r#"{"rec":"resharded","id":1,"from":2,"to":4}"#.to_string(),
            admitted(2, 1),
            r#"{"rec":"started","id":2}"#.to_string(),
            r#"{"rec":"completed","id":2}"#.to_string(),
        ];
        let dir = std::env::temp_dir().join(format!("swlb-journal-reshard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut journal = Journal::open(&dir, swlb_io::JournalConfig::default()).unwrap();
        for line in &old {
            journal.append(line, true).unwrap();
        }
        drop(journal);

        let rec = Recorder::enabled();
        let (_, replayed, corrupt) =
            Wal::recover::<JobTable>(&dir, 16, rec.clone(), "journal").unwrap();
        assert_eq!(corrupt, 0);
        assert_eq!(rec.counter("journal.corrupt").get(), 0);
        let fate = |jobs: &[ReplayedJob]| -> Vec<(u64, u64, JobSpec, ReplayOutcome)> {
            jobs.iter()
                .map(|j| (j.id, j.seq, j.spec.clone(), j.outcome.clone()))
                .collect()
        };
        let without: Vec<String> = old
            .into_iter()
            .filter(|l| !l.contains("resharded"))
            .collect();
        let (table, 0) = fold::<JobEvent, JobTable>(&without) else {
            panic!("the records without resharded lines must all parse")
        };
        assert_eq!(fate(&replayed.jobs), fate(&table.jobs));
        assert_eq!(
            replayed.jobs[0].outcome,
            ReplayOutcome::Resumable { last_step: 32 }
        );
        assert_eq!(replayed.jobs[1].outcome, ReplayOutcome::Completed);
        assert!(replayed.jobs.iter().all(|j| j.spec.width == 4));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn terminal_outcomes_survive_late_progress_records() {
        // A checkpointed record *after* completion (out-of-order tail from a
        // duplicated segment) must not resurrect the job.
        let lines = vec![
            JobEvent::Admitted {
                id: 1,
                seq: 0,
                spec: spec("done"),
            }
            .to_line(),
            JobEvent::Completed { id: 1 }.to_line(),
            JobEvent::Checkpointed { id: 1, step: 10 }.to_line(),
        ];
        let jobs = fold::<JobEvent, JobTable>(&lines).0.jobs;
        assert_eq!(jobs[0].outcome, ReplayOutcome::Completed);
    }

    #[test]
    fn compacted_records_cover_every_outcome() {
        let mk = |outcome| ReplayedJob {
            id: 7,
            seq: 4,
            spec: spec("j"),
            outcome,
        };
        for (outcome, want_lines) in [
            (ReplayOutcome::Queued, 1),
            (ReplayOutcome::Resumable { last_step: 9 }, 2),
            (ReplayOutcome::Completed, 2),
            (ReplayOutcome::Cancelled, 2),
            (ReplayOutcome::Faulted("boom".into()), 2),
        ] {
            let table = JobTable {
                jobs: vec![mk(outcome.clone())],
            };
            let recs: Vec<String> = table.compacted().iter().map(JobEvent::to_line).collect();
            assert_eq!(recs.len(), want_lines, "{outcome:?}");
            let (JobTable { jobs: folded }, 0) = fold::<JobEvent, JobTable>(&recs) else {
                panic!("compacted records must all parse")
            };
            assert_eq!(folded.len(), 1);
            assert_eq!(folded[0].outcome, outcome);
        }
    }

    #[test]
    fn handle_buffers_and_degrades_on_disk_failure() {
        let dir = std::env::temp_dir().join(format!("swlb-handle-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut h = open(&dir, 4);
        assert!(h.append(&JobEvent::Started { id: 1 }));
        assert!(!h.degraded());

        h.set_fail_writes(true);
        assert!(!h.append(&JobEvent::Checkpointed { id: 1, step: 8 }));
        assert!(h.degraded());
        assert_eq!(h.buffered(), 1);
        // The bound holds: pushing past buffer_max drops the oldest.
        for step in 9..20 {
            h.append(&JobEvent::Checkpointed { id: 1, step });
        }
        assert_eq!(h.buffered(), 4);

        // Disk recovers: backlog drains, degradation clears, records land.
        h.set_fail_writes(false);
        assert!(!h.degraded());
        assert_eq!(h.buffered(), 0);
        h.sync();
        let (records, report) = Journal::replay(&dir).unwrap();
        assert_eq!(report.skipped(), 0);
        // 1 started + the 4 newest checkpointed records that fit the buffer.
        assert_eq!(records.len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn degraded_backlog_flushes_in_admission_order() {
        let dir = std::env::temp_dir().join(format!("swlb-journal-order-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut h = open(&dir, 8);

        // A lands on disk; B and C buffer while degraded; D arrives after
        // recovery and must drain the backlog first, so the on-disk order is
        // the admission order A, B, C, D — never D before B/C.
        assert!(h.append(&JobEvent::Started { id: 1 }));
        h.set_fail_writes(true);
        assert!(!h.append(&JobEvent::Checkpointed { id: 1, step: 8 }));
        assert!(!h.append(&JobEvent::Preempted { id: 1, step: 8 }));
        assert_eq!(h.buffered(), 2);
        h.set_fail_writes(false);
        assert!(h.append(&JobEvent::Completed { id: 1 }));
        assert_eq!(h.buffered(), 0);
        h.sync();

        let (records, report) = Journal::replay(&dir).unwrap();
        assert_eq!(report.skipped(), 0);
        let kinds: Vec<_> = records
            .iter()
            .map(|l| {
                crate::json::parse(l)
                    .unwrap()
                    .get("rec")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(kinds, ["started", "checkpointed", "preempted", "completed"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retract_never_removes_a_flushed_or_unrelated_record() {
        let dir = std::env::temp_dir().join(format!("swlb-journal-retract-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut h = open(&dir, 8);

        // Flushed record: append succeeded, buffer is empty, so a retract of
        // the same event is refused — the disk already has it.
        let flushed = JobEvent::Started { id: 1 };
        assert!(h.append(&flushed));
        assert!(!h.retract_last(&flushed));

        // Degradation mid-stream: an older record is stuck in the buffer
        // when a refused admission retracts its own record. Only the
        // admission's record goes; the older one stays queued for the disk.
        h.set_fail_writes(true);
        let stuck = JobEvent::Checkpointed { id: 1, step: 8 };
        let refused = JobEvent::Cancelled { id: 2 };
        h.append(&stuck);
        h.append(&refused);
        assert_eq!(h.buffered(), 2);
        // Retracting with the wrong event is a no-op...
        assert!(!h.retract_last(&JobEvent::Completed { id: 9 }));
        assert_eq!(h.buffered(), 2);
        // ...retracting the newest record removes exactly it.
        assert!(h.retract_last(&refused));
        assert_eq!(h.buffered(), 1);
        // The surviving record still reaches the disk on recovery.
        h.set_fail_writes(false);
        h.sync();
        assert!(!h.degraded());
        let (records, _) = Journal::replay(&dir).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(JobEvent::parse(&records[1]), Some(stuck));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disabled_handle_is_a_cheap_noop() {
        let mut h = Wal::disabled();
        assert!(h.append(&JobEvent::Started { id: 1 }));
        assert!(!h.degraded());
        h.sync();
    }
}
