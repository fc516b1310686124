//! What every workload is handed and what it hands back.

use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How large a run is. `smoke` shrinks grids and counts (32^3, 64^2, 60 jobs)
/// through the same code paths; its numbers are not comparable.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub smoke: bool,
    /// `--seconds`: how long each timed loop measures.
    pub seconds: f64,
}

/// The default `--seconds`; equals `run_seconds` in `BENCHMARK.json`.
pub const REFERENCE_SECONDS: f64 = 6.0;

/// When a timed loop of operations (windows, jobs) ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After exactly this many operations (smoke runs).
    After(u64),
    /// Once `deadline` has passed, but not before `min` operations: a slow
    /// host then measures fewer operations, not for longer, which keeps a
    /// whole driver session inside its time cap.
    Until { min: u64, deadline: Instant },
}

impl Stop {
    /// Never: the loop ends with its job list.
    pub const LIST_END: Stop = Stop::After(u64::MAX);

    pub fn reached(&self, done: u64) -> bool {
        match *self {
            Stop::After(n) => done >= n,
            Stop::Until { min, deadline } => done >= min && Instant::now() >= deadline,
        }
    }
}

impl Scale {
    /// Edge of the 3-D cavity.
    pub fn n3(&self) -> usize {
        if self.smoke {
            32
        } else {
            128
        }
    }

    /// Edge of the 2-D Taylor-Green box.
    pub fn n2(&self) -> usize {
        if self.smoke {
            64
        } else {
            512
        }
    }

    /// A loop that starts now: `share` of `--seconds` but at least `min`
    /// operations, or exactly `min` operations under smoke.
    pub fn stop(&self, share: f64, min: u64) -> Stop {
        if self.smoke {
            Stop::After(min)
        } else {
            Stop::Until {
                min,
                deadline: Instant::now() + Duration::from_secs_f64(self.seconds * share),
            }
        }
    }

    /// Repetitions of a probe: `full`, or a fiftieth of it (at least 3)
    /// under smoke.
    pub fn reps(&self, full: u64) -> usize {
        if self.smoke {
            full.div_ceil(50).max(3) as usize
        } else {
            full as usize
        }
    }

    /// A count whose duration the host's speed does not set (the fleet's
    /// tick-paced phases): `at_reference` scaled by `--seconds`.
    pub fn paced(&self, at_reference: u64) -> usize {
        if self.smoke {
            self.reps(at_reference)
        } else {
            ((at_reference as f64 * self.seconds / REFERENCE_SECONDS).round() as usize).max(3)
        }
    }
}

pub struct Ctx<'a> {
    pub seed: u64,
    pub scale: Scale,
    pub tracer: &'a Tracer,
    /// How often the set-up is repeated; `setup_s` is the median.
    pub setups: usize,
    /// Scratch directory of this process, removed on exit.
    pub tmp: &'a Path,
}

impl<'a> Ctx<'a> {
    /// The same run with spans going to `tracer` (or nowhere).
    pub fn with_tracer<'b>(&'b self, tracer: &'b Tracer) -> Ctx<'b> {
        Ctx {
            seed: self.seed,
            scale: self.scale,
            tracer,
            setups: self.setups,
            tmp: self.tmp,
        }
    }

    /// A fresh, empty state directory under this run's scratch space.
    pub fn state_dir(&self, tag: &str) -> Result<PathBuf, String> {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = self.tmp.join(format!("{tag}-{n}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// One pass over a workload's timed part: the end-to-end figures.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Median of the repeated set-ups (build, paint, initialise, spawn,
    /// register, warm up), in seconds.
    pub setup_s: f64,
    /// Operations: timed windows or jobs.
    pub attempted: u64,
    pub failed: u64,
    pub mlups: f64,
    pub jobs_per_s: f64,
    pub latency_p50_ms: f64,
    /// Median wall time of one operation, for the overhead ratios: passes
    /// that run for a fixed time differ in how many operations they fit in.
    pub op_s: f64,
    /// Lines for the human-readable report (sample counts, configs used).
    pub notes: Vec<String>,
}

/// Per-layer values measured by one workload's traced run.
#[derive(Debug, Default)]
pub struct Layers(pub Vec<(&'static str, f64, String)>);

impl Layers {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value, String::new()));
    }

    /// A value with its sample count or other provenance.
    pub fn put_noted(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.0.push((name, value, note.into()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, ..)| *n == name).map(|(_, v, _)| *v)
    }
}

/// `err` with context, for `map_err`.
pub fn ctx<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}
