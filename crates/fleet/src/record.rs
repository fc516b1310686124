//! Typed fleet-lifecycle records for the [`swlb_io::journal::Wal`]
//! write-ahead log, and the fold that rebuilds the controller's job table and
//! worker registry from them after a crash. The writer, its degraded mode and
//! the recovery sequence are `Wal`'s — the same ones the serve tier runs on.
//!
//! Record schema (one JSON object per journal line):
//!
//! ```text
//! {"rec":"admitted","id":N,"seq":N,"spec":{...}}          durable before 202
//! {"rec":"worker","name":"w0","addr":"...","dir":"..."}   durable, last wins
//! {"rec":"placed","id":N,"worker":"w0","local":N}
//! {"rec":"migrated","id":N,"worker":"w1","local":N,"step":N}
//! {"rec":"unplaced","id":N}                               back to pending
//! {"rec":"completed","id":N}                              durable, terminal
//! {"rec":"cancelled","id":N}                              durable, terminal
//! {"rec":"failed","id":N,"error":"..."}                   durable, terminal
//! ```
//!
//! Replay folds the stream per fleet id: terminal jobs are restored terminal
//! and never re-placed (each terminal is journaled durably exactly once, the
//! first time the controller observes it — a restarted controller reports it
//! from the fold, not from a second observation); a placed non-terminal job
//! keeps its worker binding and is re-synced from that worker's live table;
//! a pending job keeps its original id and arrival order.

use swlb_io::journal::{WalEvent, WalState};
use swlb_serve::journal::{Fold, Outcome};
use swlb_serve::{json, JobSpec, Json};

/// One journaled fleet transition.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetEvent {
    /// Job accepted by the controller. Written durably *before* the 202.
    Admitted {
        /// Controller-assigned fleet id (stable across migrations).
        id: u64,
        /// Arrival order.
        seq: u64,
        /// The full submission.
        spec: JobSpec,
    },
    /// A worker announced itself (or was re-announced at a new address).
    Worker {
        /// Stable worker name.
        name: String,
        /// `host:port` of the worker's data plane.
        addr: String,
        /// The worker's state directory (checkpoints are read from here when
        /// the worker dies — shared-filesystem assumption, see docs).
        dir: String,
    },
    /// Job pushed to `worker`, which assigned it `local` id.
    Placed {
        /// Fleet id.
        id: u64,
        /// Worker name.
        worker: String,
        /// Worker-local job id.
        local: u64,
    },
    /// Job moved to `worker` (death replay or rebalance) from step `step`.
    Migrated {
        /// Fleet id.
        id: u64,
        /// Destination worker name.
        worker: String,
        /// New worker-local job id.
        local: u64,
        /// Steps completed at the checkpoint that travelled.
        step: u64,
    },
    /// The job's worker died with no survivor able to take it; the job is
    /// pending again and will be re-placed when capacity appears.
    Unplaced {
        /// Fleet id.
        id: u64,
    },
    /// Terminal: the worker reported all steps done.
    Completed {
        /// Fleet id.
        id: u64,
    },
    /// Terminal: cancelled by the client.
    Cancelled {
        /// Fleet id.
        id: u64,
    },
    /// Terminal: the worker reported a fault (or the job was lost beyond
    /// recovery).
    Failed {
        /// Fleet id.
        id: u64,
        /// Final error message.
        error: String,
    },
}

impl WalEvent for FleetEvent {
    /// Admissions, registrations and terminals gate acknowledgements and are
    /// fsynced before the caller proceeds.
    fn is_durable(&self) -> bool {
        matches!(
            self,
            FleetEvent::Admitted { .. }
                | FleetEvent::Worker { .. }
                | FleetEvent::Completed { .. }
                | FleetEvent::Cancelled { .. }
                | FleetEvent::Failed { .. }
        )
    }

    fn to_line(&self) -> String {
        let v = match self {
            FleetEvent::Admitted { id, seq, spec } => Json::obj([
                ("rec", Json::str("admitted")),
                ("id", Json::num(*id as f64)),
                ("seq", Json::num(*seq as f64)),
                ("spec", spec.to_json()),
            ]),
            FleetEvent::Worker { name, addr, dir } => Json::obj([
                ("rec", Json::str("worker")),
                ("name", Json::str(name.clone())),
                ("addr", Json::str(addr.clone())),
                ("dir", Json::str(dir.clone())),
            ]),
            FleetEvent::Placed { id, worker, local } => Json::obj([
                ("rec", Json::str("placed")),
                ("id", Json::num(*id as f64)),
                ("worker", Json::str(worker.clone())),
                ("local", Json::num(*local as f64)),
            ]),
            FleetEvent::Migrated {
                id,
                worker,
                local,
                step,
            } => Json::obj([
                ("rec", Json::str("migrated")),
                ("id", Json::num(*id as f64)),
                ("worker", Json::str(worker.clone())),
                ("local", Json::num(*local as f64)),
                ("step", Json::num(*step as f64)),
            ]),
            FleetEvent::Unplaced { id } => Json::obj([
                ("rec", Json::str("unplaced")),
                ("id", Json::num(*id as f64)),
            ]),
            FleetEvent::Completed { id } => Json::obj([
                ("rec", Json::str("completed")),
                ("id", Json::num(*id as f64)),
            ]),
            FleetEvent::Cancelled { id } => Json::obj([
                ("rec", Json::str("cancelled")),
                ("id", Json::num(*id as f64)),
            ]),
            FleetEvent::Failed { id, error } => Json::obj([
                ("rec", Json::str("failed")),
                ("id", Json::num(*id as f64)),
                ("error", Json::str(error.clone())),
            ]),
        };
        v.to_text()
    }

    fn parse(line: &str) -> Option<FleetEvent> {
        let v = json::parse(line).ok()?;
        let id = || v.get("id").and_then(Json::as_u64);
        let s = |key: &str| v.get(key).and_then(Json::as_str).map(str::to_string);
        match v.get("rec").and_then(Json::as_str)? {
            "admitted" => Some(FleetEvent::Admitted {
                id: id()?,
                seq: v.get("seq").and_then(Json::as_u64)?,
                spec: JobSpec::from_json(v.get("spec")?).ok()?,
            }),
            "worker" => Some(FleetEvent::Worker {
                name: s("name")?,
                addr: s("addr")?,
                dir: s("dir")?,
            }),
            "placed" => Some(FleetEvent::Placed {
                id: id()?,
                worker: s("worker")?,
                local: v.get("local").and_then(Json::as_u64)?,
            }),
            "migrated" => Some(FleetEvent::Migrated {
                id: id()?,
                worker: s("worker")?,
                local: v.get("local").and_then(Json::as_u64)?,
                step: v.get("step").and_then(Json::as_u64)?,
            }),
            "unplaced" => Some(FleetEvent::Unplaced { id: id()? }),
            "completed" => Some(FleetEvent::Completed { id: id()? }),
            "cancelled" => Some(FleetEvent::Cancelled { id: id()? }),
            "failed" => Some(FleetEvent::Failed {
                id: id()?,
                error: s("error").unwrap_or_else(|| "unknown".into()),
            }),
            _ => None,
        }
    }
}

/// A fleet job's folded fate after replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum FleetOutcome {
    /// Waiting for placement (never placed, or unplaced by a worker death).
    #[default]
    Pending,
    /// Bound to `worker` as its `local` job; `step` is the newest journaled
    /// migration step (0 for a first placement).
    Placed {
        /// Worker name.
        worker: String,
        /// Worker-local id.
        local: u64,
        /// Steps at the last journaled migration.
        step: u64,
    },
    /// Terminal before the crash — reported from the fold, never re-run.
    Completed,
    /// Terminal: cancelled.
    Cancelled,
    /// Terminal: failed with this error.
    Failed(String),
}

impl Outcome for FleetOutcome {
    fn is_terminal(&self) -> bool {
        matches!(
            self,
            FleetOutcome::Completed | FleetOutcome::Cancelled | FleetOutcome::Failed(_)
        )
    }
}

/// A worker registration rebuilt from the journal (last record wins).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayedWorker {
    /// Stable worker name.
    pub name: String,
    /// Last announced address.
    pub addr: String,
    /// Last announced state directory.
    pub dir: String,
}

/// The controller's journal fold: per-job outcomes (ordered by arrival) and
/// the worker registry. The journal itself is a `Wal<FleetEvent>`.
#[derive(Debug, Clone, Default)]
pub struct FleetFold {
    /// Job outcomes, folded by the rules the serve tier's table uses.
    pub fold: Fold<FleetOutcome>,
    /// Registered workers, in first-announcement order.
    pub workers: Vec<ReplayedWorker>,
}

impl WalState<FleetEvent> for FleetFold {
    fn apply(&mut self, ev: FleetEvent) {
        let jobs = &mut self.fold;
        match ev {
            FleetEvent::Admitted { id, seq, spec } => jobs.admit(id, seq, spec),
            FleetEvent::Worker { name, addr, dir } => {
                match self.workers.iter_mut().find(|w| w.name == name) {
                    Some(w) => {
                        w.addr = addr;
                        w.dir = dir;
                    }
                    None => self.workers.push(ReplayedWorker { name, addr, dir }),
                }
            }
            FleetEvent::Placed { id, worker, local } => jobs.set(
                id,
                FleetOutcome::Placed {
                    worker,
                    local,
                    step: 0,
                },
            ),
            FleetEvent::Migrated {
                id,
                worker,
                local,
                step,
            } => jobs.set(
                id,
                FleetOutcome::Placed {
                    worker,
                    local,
                    step,
                },
            ),
            FleetEvent::Unplaced { id } => jobs.set(id, FleetOutcome::Pending),
            FleetEvent::Completed { id } => jobs.set(id, FleetOutcome::Completed),
            FleetEvent::Cancelled { id } => jobs.set(id, FleetOutcome::Cancelled),
            FleetEvent::Failed { id, error } => jobs.set(id, FleetOutcome::Failed(error)),
        }
    }

    /// Workers first (placements name them), then per job the admission plus
    /// (if any) its latest binding or terminal.
    fn compacted(&self) -> Vec<FleetEvent> {
        let mut out: Vec<FleetEvent> = self
            .workers
            .iter()
            .map(|w| FleetEvent::Worker {
                name: w.name.clone(),
                addr: w.addr.clone(),
                dir: w.dir.clone(),
            })
            .collect();
        for job in &self.fold.jobs {
            let id = job.id;
            out.push(FleetEvent::Admitted {
                id,
                seq: job.seq,
                spec: job.spec.clone(),
            });
            out.extend(match &job.outcome {
                FleetOutcome::Pending => None,
                FleetOutcome::Placed {
                    worker,
                    local,
                    step,
                } => Some(FleetEvent::Migrated {
                    id,
                    worker: worker.clone(),
                    local: *local,
                    step: *step,
                }),
                FleetOutcome::Completed => Some(FleetEvent::Completed { id }),
                FleetOutcome::Cancelled => Some(FleetEvent::Cancelled { id }),
                FleetOutcome::Failed(e) => Some(FleetEvent::Failed {
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
    use swlb_io::journal::fold;
    use swlb_serve::{CaseKind, CaseSpec, LatticeKind, OutputKind, Priority};

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
            steps: 32,
            priority: Priority::Batch,
            deadline_ms: None,
            outputs: vec![OutputKind::Ppm],
            chaos_nan_at_step: None,
            width: 1,
            tenant: "acme".into(),
        }
    }

    #[test]
    fn events_roundtrip_through_lines() {
        let events = [
            FleetEvent::Admitted {
                id: 1,
                seq: 0,
                spec: spec("a"),
            },
            FleetEvent::Worker {
                name: "w0".into(),
                addr: "127.0.0.1:9".into(),
                dir: "/tmp/w0".into(),
            },
            FleetEvent::Placed {
                id: 1,
                worker: "w0".into(),
                local: 3,
            },
            FleetEvent::Migrated {
                id: 1,
                worker: "w1".into(),
                local: 5,
                step: 96,
            },
            FleetEvent::Unplaced { id: 1 },
            FleetEvent::Completed { id: 1 },
            FleetEvent::Cancelled { id: 2 },
            FleetEvent::Failed {
                id: 3,
                error: "boom".into(),
            },
        ];
        // The on-disk schema, byte for byte: a journal written by any earlier
        // build must replay on this one.
        let pinned = [
            r#"{"rec":"admitted","id":1,"seq":0,"spec":{"name":"a","case":"cavity","lattice":"d2q9","nx":8,"ny":8,"nz":1,"tau":0.8,"u":0.05,"storage":"ab","steps":32,"priority":"batch","outputs":["ppm"],"tenant":"acme"}}"#,
            r#"{"rec":"worker","name":"w0","addr":"127.0.0.1:9","dir":"/tmp/w0"}"#,
            r#"{"rec":"placed","id":1,"worker":"w0","local":3}"#,
            r#"{"rec":"migrated","id":1,"worker":"w1","local":5,"step":96}"#,
            r#"{"rec":"unplaced","id":1}"#,
            r#"{"rec":"completed","id":1}"#,
            r#"{"rec":"cancelled","id":2}"#,
            r#"{"rec":"failed","id":3,"error":"boom"}"#,
        ];
        for (ev, want) in events.iter().zip(pinned) {
            assert_eq!(ev.to_line(), want);
        }
        // Strings a record must carry through the line codec unharmed.
        let hostile = [
            "say \"hi\"",
            "back\\slash \\n is two characters",
            "two\nlines\r\n\ttabbed",
            "na\u{ef}ve \u{2207}\u{b7}u \u{2260} 0 \u{6d41}\u{4f53}",
            "",
        ];
        let hostile_events = hostile.iter().flat_map(|s| {
            [
                FleetEvent::Worker {
                    name: s.to_string(),
                    addr: s.to_string(),
                    dir: s.to_string(),
                },
                FleetEvent::Failed {
                    id: 3,
                    error: s.to_string(),
                },
            ]
        });
        for ev in hostile_events {
            let line = ev.to_line();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(FleetEvent::parse(&line), Some(ev));
        }
        for ev in &events {
            assert_eq!(FleetEvent::parse(&ev.to_line()).as_ref(), Some(ev));
        }
        assert!(FleetEvent::parse("{\"rec\":\"martian\"}").is_none());
        assert!(FleetEvent::parse("not json").is_none());
    }

    #[test]
    fn fold_tracks_bindings_and_keeps_terminals_final() {
        let lines: Vec<String> = [
            FleetEvent::Admitted {
                id: 1,
                seq: 0,
                spec: spec("a"),
            },
            FleetEvent::Admitted {
                id: 2,
                seq: 1,
                spec: spec("b"),
            },
            FleetEvent::Worker {
                name: "w0".into(),
                addr: "old".into(),
                dir: "/w0".into(),
            },
            FleetEvent::Worker {
                name: "w0".into(),
                addr: "new".into(),
                dir: "/w0".into(),
            },
            FleetEvent::Placed {
                id: 1,
                worker: "w0".into(),
                local: 1,
            },
            FleetEvent::Migrated {
                id: 1,
                worker: "w1".into(),
                local: 2,
                step: 64,
            },
            FleetEvent::Completed { id: 1 },
            // Late records after a terminal must not resurrect the job.
            FleetEvent::Placed {
                id: 1,
                worker: "w1".into(),
                local: 9,
            },
            FleetEvent::Placed {
                id: 2,
                worker: "w0".into(),
                local: 2,
            },
            FleetEvent::Unplaced { id: 2 },
        ]
        .iter()
        .map(FleetEvent::to_line)
        .collect();
        let (state, bad) = fold::<FleetEvent, FleetFold>(&lines);
        let (jobs, workers) = (state.fold.jobs.clone(), state.workers.clone());
        assert_eq!(bad, 0);
        assert_eq!(workers, vec![ReplayedWorker {
            name: "w0".into(),
            addr: "new".into(),
            dir: "/w0".into(),
        }]);
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].outcome, FleetOutcome::Completed);
        assert_eq!(jobs[1].outcome, FleetOutcome::Pending);
        // Compaction preserves the fold.
        let compacted: Vec<String> = state.compacted().iter().map(FleetEvent::to_line).collect();
        let again = fold::<FleetEvent, FleetFold>(&compacted).0.fold.jobs;
        assert_eq!(again[0].outcome, FleetOutcome::Completed);
        assert_eq!(again[1].outcome, FleetOutcome::Pending);
    }
}
