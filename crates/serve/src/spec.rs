//! Job descriptions and lifecycle states — the wire schema of the service.

use crate::json::Json;
use swlb_core::layout::StorageScheme;
use swlb_obs::SwlbError;
use swlb_sim::cases::{CaseKind, CaseSpec, LatticeKind};

/// Scheduling class of a job.
///
/// The fair-share scheduler charges virtual runtime at `slice / weight`, so a
/// 4× weight means interactive jobs accumulate share 4× slower and win ties —
/// they get slices promptly without ever starving batch work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Latency-sensitive: weight 4.
    Interactive,
    /// Throughput work: weight 1.
    Batch,
}

impl Priority {
    /// Fair-share weight.
    pub fn weight(self) -> u64 {
        match self {
            Priority::Interactive => 4,
            Priority::Batch => 1,
        }
    }

    /// Canonical lowercase name (wire format).
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
        }
    }

    /// Parse the wire name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "interactive" => Some(Priority::Interactive),
            "batch" => Some(Priority::Batch),
            _ => None,
        }
    }
}

/// Post-processing artifacts a job can request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputKind {
    /// `fields.vtk` — density and z-vorticity volume, titled with the job
    /// name.
    Vtk,
    /// `speed.ppm` — z=0 speed slice image.
    Ppm,
}

impl OutputKind {
    /// Canonical lowercase name (wire format).
    pub fn name(self) -> &'static str {
        match self {
            OutputKind::Vtk => "vtk",
            OutputKind::Ppm => "ppm",
        }
    }

    /// Parse the wire name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "vtk" => Some(OutputKind::Vtk),
            "ppm" => Some(OutputKind::Ppm),
            _ => None,
        }
    }
}

/// A complete job submission.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Human-readable label (also used in output file names).
    pub name: String,
    /// The physics: case family, lattice, grid, relaxation, driving velocity.
    pub case: CaseSpec,
    /// Total solver steps to run.
    pub steps: u64,
    /// Scheduling class.
    pub priority: Priority,
    /// Soft deadline in milliseconds (advisory; reported, not enforced).
    pub deadline_ms: Option<u64>,
    /// Artifacts to write on completion.
    pub outputs: Vec<OutputKind>,
    /// Fault injection: poison one population with NaN once the job has
    /// completed this many steps (chaos testing of the rollback-retry
    /// supervisor). `None` in production.
    pub chaos_nan_at_step: Option<u64>,
    /// Requested execution width, validated, journaled and echoed in status
    /// and in migration envelopes. A worker runs one job at a time on its
    /// whole thread pool, so nothing computes from it: capping a job's
    /// threads would only idle threads that no other job can use.
    pub width: u32,
    /// Accounting tenant the job is charged to. The fleet controller enforces
    /// per-tenant quotas and fair shares on this label; a single worker
    /// reports per-tenant running/queued counts in `/v1/stats`.
    pub tenant: String,
}

/// The tenant jobs are charged to when the submission names none.
pub const DEFAULT_TENANT: &str = "default";

/// Upper bound on a job's requested execution width.
pub const MAX_WIDTH: u32 = 64;

impl JobSpec {
    /// Validate the submission (physics bounds and the pre-flight gate via
    /// [`CaseSpec::validate`], plus service-level bounds). Returns the case's
    /// pre-flight warnings.
    pub fn validate(&self) -> Result<Vec<String>, SwlbError> {
        if self.name.is_empty() || self.name.len() > 64 {
            return Err(SwlbError::InvalidConfig(
                "job name must be 1..=64 characters".into(),
            ));
        }
        if self.steps == 0 {
            return Err(SwlbError::InvalidConfig("steps must be >= 1".into()));
        }
        if self.width == 0 || self.width > MAX_WIDTH {
            return Err(SwlbError::InvalidConfig(format!(
                "width {} outside 1..={MAX_WIDTH}",
                self.width
            )));
        }
        if self.tenant.is_empty()
            || self.tenant.len() > 32
            || !self
                .tenant
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(SwlbError::InvalidConfig(
                "tenant must be 1..=32 characters of [A-Za-z0-9_-]".into(),
            ));
        }
        self.case.validate()
    }

    /// Encode as a JSON object (the submit body).
    pub fn to_json(&self) -> Json {
        let mut m = vec![
            ("name".to_string(), Json::str(self.name.clone())),
            ("case".to_string(), Json::str(self.case.case.name())),
            ("lattice".to_string(), Json::str(self.case.lattice.name())),
            ("nx".to_string(), Json::num(self.case.nx as f64)),
            ("ny".to_string(), Json::num(self.case.ny as f64)),
            ("nz".to_string(), Json::num(self.case.nz as f64)),
            ("tau".to_string(), Json::num(self.case.tau)),
            ("u".to_string(), Json::num(self.case.u_lattice)),
            ("storage".to_string(), Json::str(self.case.storage.name())),
            ("steps".to_string(), Json::num(self.steps as f64)),
            ("priority".to_string(), Json::str(self.priority.name())),
            (
                "outputs".to_string(),
                Json::Arr(self.outputs.iter().map(|o| Json::str(o.name())).collect()),
            ),
        ];
        if let Some(d) = self.deadline_ms {
            m.push(("deadline_ms".to_string(), Json::num(d as f64)));
        }
        if let Some(c) = self.chaos_nan_at_step {
            m.push(("chaos_nan_at_step".to_string(), Json::num(c as f64)));
        }
        // Optional for backward compatibility, like "storage": width-1 specs
        // (the only kind that existed before elastic resume) omit the key.
        if self.width > 1 {
            m.push(("width".to_string(), Json::num(self.width as f64)));
        }
        // Same convention for temporal blocking: depth-1 specs omit the key.
        if self.case.time_block > 1 {
            m.push((
                "time_block".to_string(),
                Json::num(self.case.time_block as f64),
            ));
        }
        // And for tenancy: pre-fleet specs (and journal records) have no
        // tenant and decode as the default tenant.
        if self.tenant != DEFAULT_TENANT {
            m.push(("tenant".to_string(), Json::str(self.tenant.clone())));
        }
        Json::Obj(m)
    }

    /// Decode the raw bytes of a `POST /v1/jobs` body (UTF-8 JSON).
    pub fn from_body(body: &[u8]) -> Result<Self, SwlbError> {
        let text = std::str::from_utf8(body)
            .map_err(|_| SwlbError::CorruptData("body is not UTF-8".into()))?;
        Self::from_json(&crate::json::parse(text)?)
    }

    /// Decode a submit body. Unknown keys are ignored (forward compatibility);
    /// missing or ill-typed required keys are `CorruptData`.
    pub fn from_json(v: &Json) -> Result<Self, SwlbError> {
        let field = |key: &str| {
            v.get(key)
                .ok_or_else(|| SwlbError::CorruptData(format!("job spec missing {key:?}")))
        };
        let str_field = |key: &str| {
            field(key)?.as_str().map(str::to_string).ok_or_else(|| {
                SwlbError::CorruptData(format!("job spec key {key:?} must be a string"))
            })
        };
        let u64_field = |key: &str| {
            field(key)?.as_u64().ok_or_else(|| {
                SwlbError::CorruptData(format!(
                    "job spec key {key:?} must be a non-negative integer"
                ))
            })
        };
        let f64_field = |key: &str| {
            field(key)?.as_f64().ok_or_else(|| {
                SwlbError::CorruptData(format!("job spec key {key:?} must be a number"))
            })
        };
        let case_name = str_field("case")?;
        let case = CaseKind::parse(&case_name)
            .ok_or_else(|| SwlbError::CorruptData(format!("unknown case {case_name:?}")))?;
        let lattice_name = str_field("lattice")?;
        let lattice = LatticeKind::parse(&lattice_name)
            .ok_or_else(|| SwlbError::CorruptData(format!("unknown lattice {lattice_name:?}")))?;
        let priority_name = str_field("priority")?;
        let priority = Priority::parse(&priority_name)
            .ok_or_else(|| SwlbError::CorruptData(format!("unknown priority {priority_name:?}")))?;
        // Optional for backward compatibility: specs (and journal records)
        // written before the storage scheme existed imply two-grid AB.
        let storage = match v.get("storage") {
            None => StorageScheme::Ab,
            Some(j) => {
                let name = j.as_str().ok_or_else(|| {
                    SwlbError::CorruptData("job spec key \"storage\" must be a string".into())
                })?;
                StorageScheme::parse(name).ok_or_else(|| {
                    SwlbError::CorruptData(format!("unknown storage scheme {name:?}"))
                })?
            }
        };
        let mut outputs = Vec::new();
        if let Some(arr) = v.get("outputs").and_then(Json::as_arr) {
            for o in arr {
                let name = o.as_str().ok_or_else(|| {
                    SwlbError::CorruptData("outputs entries must be strings".into())
                })?;
                outputs.push(OutputKind::parse(name).ok_or_else(|| {
                    SwlbError::CorruptData(format!("unknown output kind {name:?}"))
                })?);
            }
        }
        let spec = JobSpec {
            name: str_field("name")?,
            case: CaseSpec {
                case,
                lattice,
                nx: u64_field("nx")? as usize,
                ny: u64_field("ny")? as usize,
                nz: u64_field("nz")? as usize,
                tau: f64_field("tau")?,
                u_lattice: f64_field("u")?,
                storage,
                // Missing key (pre-temporal-blocking specs) => depth 1.
                time_block: match v.get("time_block") {
                    None => 1,
                    Some(j) => j.as_u64().map(|k| k as usize).ok_or_else(|| {
                        SwlbError::CorruptData(
                            "job spec key \"time_block\" must be a non-negative integer".into(),
                        )
                    })?,
                },
            },
            steps: u64_field("steps")?,
            priority,
            deadline_ms: v.get("deadline_ms").and_then(Json::as_u64),
            outputs,
            chaos_nan_at_step: v.get("chaos_nan_at_step").and_then(Json::as_u64),
            // Missing key (pre-elastic specs and journal records) => serial.
            width: match v.get("width") {
                None => 1,
                Some(j) => j
                    .as_u64()
                    .and_then(|w| u32::try_from(w).ok())
                    .ok_or_else(|| {
                        SwlbError::CorruptData(
                            "job spec key \"width\" must be a non-negative integer".into(),
                        )
                    })?,
            },
            // Missing key (pre-fleet specs and journal records) => default.
            tenant: match v.get("tenant") {
                None => DEFAULT_TENANT.to_string(),
                Some(j) => j
                    .as_str()
                    .map(str::to_string)
                    .ok_or_else(|| {
                        SwlbError::CorruptData("job spec key \"tenant\" must be a string".into())
                    })?,
            },
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// Lifecycle of a job inside the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for its first slice.
    Queued,
    /// Currently holding the thread pool.
    Running,
    /// Time-sliced off the pool; checkpointed, waiting to resume.
    Preempted,
    /// Finished all steps; outputs written.
    Completed,
    /// Exhausted its restart budget (or failed validation mid-run).
    Failed,
    /// Cancelled by the client.
    Cancelled,
    /// Drained: checkpointed (or never started) at shutdown, resumable.
    Checkpointed,
}

impl JobState {
    /// Canonical lowercase name (wire format).
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Preempted => "preempted",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::Checkpointed => "checkpointed",
        }
    }

    /// Whether the job can never run again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Failed | JobState::Cancelled | JobState::Checkpointed
        )
    }

    /// Whether the job is waiting for (or holding) compute.
    pub fn is_live(self) -> bool {
        !self.is_terminal()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn sample_spec() -> JobSpec {
        JobSpec {
            name: "cavity-16".into(),
            case: CaseSpec {
                case: CaseKind::Cavity,
                lattice: LatticeKind::D3Q19,
                nx: 16,
                ny: 16,
                nz: 16,
                tau: 0.8,
                u_lattice: 0.05,
                storage: StorageScheme::Ab,
                time_block: 1,
            },
            steps: 200,
            priority: Priority::Batch,
            deadline_ms: Some(5000),
            outputs: vec![OutputKind::Vtk, OutputKind::Ppm],
            chaos_nan_at_step: None,
            width: 1,
            tenant: DEFAULT_TENANT.to_string(),
        }
    }

    #[test]
    fn spec_json_roundtrip() {
        let spec = sample_spec();
        let back = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, back);

        let mut chaos = sample_spec();
        chaos.chaos_nan_at_step = Some(64);
        chaos.deadline_ms = None;
        let back = JobSpec::from_json(&chaos.to_json()).unwrap();
        assert_eq!(chaos, back);

        let mut aa = sample_spec();
        aa.case.storage = StorageScheme::Aa;
        let back = JobSpec::from_json(&aa.to_json()).unwrap();
        assert_eq!(aa, back);
    }

    #[test]
    fn storage_key_is_optional_and_validated() {
        // Pre-AA submissions (and journal records) have no "storage" key:
        // they must decode as two-grid AB.
        let Json::Obj(mut m) = sample_spec().to_json() else {
            unreachable!()
        };
        m.retain(|(k, _)| k != "storage");
        let back = JobSpec::from_json(&Json::Obj(m)).unwrap();
        assert_eq!(back.case.storage, StorageScheme::Ab);

        // Unknown scheme names are rejected, not defaulted.
        let Json::Obj(mut m) = sample_spec().to_json() else {
            unreachable!()
        };
        for (k, val) in m.iter_mut() {
            if k == "storage" {
                *val = Json::str("esoteric");
            }
        }
        assert!(JobSpec::from_json(&Json::Obj(m)).is_err());

        // AA + open boundaries fails CaseSpec validation at decode time.
        let mut spec = sample_spec();
        spec.case.case = CaseKind::Channel;
        spec.case.storage = StorageScheme::Aa;
        assert!(JobSpec::from_json(&spec.to_json()).is_err());
    }

    #[test]
    fn width_key_is_optional_and_validated() {
        // Pre-elastic submissions (and journal records) have no "width" key:
        // they must decode as serial.
        let Json::Obj(mut m) = sample_spec().to_json() else {
            unreachable!()
        };
        m.retain(|(k, _)| k != "width");
        let back = JobSpec::from_json(&Json::Obj(m)).unwrap();
        assert_eq!(back.width, 1);

        // Width > 1 round-trips through the wire form.
        let mut wide = sample_spec();
        wide.width = 4;
        let back = JobSpec::from_json(&wide.to_json()).unwrap();
        assert_eq!(back, wide);

        // Zero and absurd widths are rejected at decode time.
        for bad in [0u32, MAX_WIDTH + 1] {
            let mut spec = sample_spec();
            spec.width = bad;
            assert!(spec.validate().is_err(), "width {bad} must be rejected");
        }
    }

    #[test]
    fn time_block_key_is_optional_and_validated() {
        // Pre-temporal-blocking submissions have no "time_block" key: they
        // must decode as depth 1 (blocking disabled).
        let Json::Obj(mut m) = sample_spec().to_json() else {
            unreachable!()
        };
        m.retain(|(k, _)| k != "time_block");
        let back = JobSpec::from_json(&Json::Obj(m)).unwrap();
        assert_eq!(back.case.time_block, 1);

        // Depth > 1 round-trips through the wire form.
        let mut blocked = sample_spec();
        blocked.case.time_block = 4;
        let back = JobSpec::from_json(&blocked.to_json()).unwrap();
        assert_eq!(back, blocked);

        // Zero depth and odd AA depth fail CaseSpec validation at decode time.
        let mut zero = sample_spec();
        zero.case.time_block = 0;
        assert!(zero.validate().is_err());
        let mut odd_aa = sample_spec();
        odd_aa.case.storage = StorageScheme::Aa;
        odd_aa.case.time_block = 3;
        assert!(JobSpec::from_json(&odd_aa.to_json()).is_err());
    }

    #[test]
    fn tenant_key_is_optional_and_validated() {
        // Pre-fleet submissions (and journal records) have no "tenant" key:
        // they must decode as the default tenant — and the default is
        // omitted on encode so old readers see an unchanged wire form.
        let spec = sample_spec();
        let Json::Obj(m) = spec.to_json() else {
            unreachable!()
        };
        assert!(m.iter().all(|(k, _)| k != "tenant"));
        let back = JobSpec::from_json(&Json::Obj(m)).unwrap();
        assert_eq!(back.tenant, DEFAULT_TENANT);

        // A named tenant round-trips through the wire form.
        let mut named = sample_spec();
        named.tenant = "team-cfd".into();
        let back = JobSpec::from_json(&named.to_json()).unwrap();
        assert_eq!(back, named);

        // Empty, oversized and ill-charactered tenants are rejected.
        for bad in ["", "a b", &"x".repeat(33)] {
            let mut spec = sample_spec();
            spec.tenant = bad.into();
            assert!(spec.validate().is_err(), "tenant {bad:?} must be rejected");
        }
    }

    #[test]
    fn decode_rejects_bad_specs() {
        let mut v = sample_spec().to_json();
        // Unknown case name.
        if let Json::Obj(m) = &mut v {
            for (k, val) in m.iter_mut() {
                if k == "case" {
                    *val = Json::str("warp-drive");
                }
            }
        }
        assert!(JobSpec::from_json(&v).is_err());
        // Missing required key.
        let Json::Obj(mut m) = sample_spec().to_json() else {
            unreachable!()
        };
        m.retain(|(k, _)| k != "steps");
        assert!(JobSpec::from_json(&Json::Obj(m)).is_err());
        // Physics bounds propagate.
        let mut spec = sample_spec();
        spec.case.tau = 0.3;
        assert!(JobSpec::from_json(&spec.to_json()).is_err());
    }

    #[test]
    fn priorities_and_states() {
        assert!(Priority::Interactive.weight() > Priority::Batch.weight());
        assert_eq!(Priority::parse("interactive"), Some(Priority::Interactive));
        for s in [
            JobState::Completed,
            JobState::Failed,
            JobState::Cancelled,
            JobState::Checkpointed,
        ] {
            assert!(s.is_terminal());
        }
        for s in [JobState::Queued, JobState::Running, JobState::Preempted] {
            assert!(s.is_live());
        }
    }
}
