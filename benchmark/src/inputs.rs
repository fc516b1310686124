//! Inputs made from `--seed`: the same seed gives the same inputs.

use crate::surface::{
    CaseKind, CaseSpec, JobSpec, LatticeKind, OutputKind, Priority, StorageScheme,
};

/// SplitMix64: small, seedable, and good enough to shuffle a job list.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Initial density of the bare cavity workloads at a *global* cell: 1 plus a
/// seed-dependent noise of amplitude 1e-4, so ranks and the serial reference
/// start from the same field.
pub fn noisy_density(seed: u64, x: usize, y: usize, z: usize) -> f64 {
    let cell = ((x as u64) << 42) ^ ((y as u64) << 21) ^ z as u64;
    let unit = (mix(seed ^ mix(cell)) >> 11) as f64 / (1u64 << 53) as f64;
    1.0 + 1e-4 * (2.0 * unit - 1.0)
}

/// Lid speed and relaxation time of the one 3-D case every cavity workload
/// runs, so `mlups` compares down the ladder.
pub const CAVITY_U: f64 = 0.05;
pub const CAVITY_TAU: f64 = 0.6;

/// The D3Q19 lid-driven cavity as the service sees it.
pub fn cavity_case(n: usize) -> CaseSpec {
    CaseSpec {
        case: CaseKind::Cavity,
        lattice: LatticeKind::D3Q19,
        nx: n,
        ny: n,
        nz: n,
        tau: CAVITY_TAU,
        u_lattice: CAVITY_U,
        storage: StorageScheme::Ab,
        time_block: 1,
    }
}

pub fn taylor_green_case(n: usize) -> CaseSpec {
    CaseSpec {
        case: CaseKind::TaylorGreen,
        lattice: LatticeKind::D2Q9,
        nx: n,
        ny: n,
        nz: 1,
        tau: 0.8,
        u_lattice: 0.05,
        storage: StorageScheme::Ab,
        time_block: 1,
    }
}

/// The one big job of `serve-job`.
pub fn cavity_job(name: &str, n: usize, steps: u64, width: u32) -> JobSpec {
    JobSpec {
        name: name.into(),
        case: cavity_case(n),
        steps,
        priority: Priority::Batch,
        deadline_ms: None,
        outputs: vec![OutputKind::Ppm],
        chaos_nan_at_step: None,
        width,
        tenant: "bench".into(),
    }
}

pub const TINY_N: usize = 32;
pub const TINY_STEPS: u64 = 32;
const TENANTS: [&str; 3] = ["ada", "bo", "cy"];

/// The case of the streams' tiny jobs: D2Q9 cavity, 32 x 32.
pub fn tiny_case() -> CaseSpec {
    CaseSpec {
        case: CaseKind::Cavity,
        lattice: LatticeKind::D2Q9,
        nx: TINY_N,
        ny: TINY_N,
        nz: 1,
        tau: 0.8,
        u_lattice: 0.05,
        storage: StorageScheme::Ab,
        time_block: 1,
    }
}

/// `count` tiny jobs: three tenants in turn, every fourth job interactive,
/// then shuffled by the seed, which also names them.
pub fn tiny_jobs(seed: u64, count: usize) -> Vec<JobSpec> {
    let mut jobs: Vec<JobSpec> = (0..count)
        .map(|i| JobSpec {
            name: format!("s{seed}-j{i:05}"),
            case: tiny_case(),
            steps: TINY_STEPS,
            priority: if i % 4 == 3 {
                Priority::Interactive
            } else {
                Priority::Batch
            },
            deadline_ms: None,
            outputs: vec![],
            chaos_nan_at_step: None,
            width: 1,
            tenant: TENANTS[i % TENANTS.len()].into(),
        })
        .collect();
    let mut rng = Rng::new(seed);
    for i in (1..jobs.len()).rev() {
        jobs.swap(i, rng.below(i + 1));
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(jobs: &[JobSpec]) -> String {
        let lines: Vec<String> = jobs.iter().map(|j| j.to_json().to_text()).collect();
        lines.join("\n")
    }

    #[test]
    fn same_seed_gives_a_byte_identical_job_list() {
        assert_eq!(wire(&tiny_jobs(7, 200)), wire(&tiny_jobs(7, 200)));
        assert_ne!(wire(&tiny_jobs(7, 200)), wire(&tiny_jobs(8, 200)));
    }

    #[test]
    fn job_mix_is_three_tenants_and_a_quarter_interactive() {
        let jobs = tiny_jobs(1, 120);
        let interactive = jobs.iter().filter(|j| j.priority == Priority::Interactive);
        assert_eq!(interactive.count(), 30);
        for t in TENANTS {
            assert_eq!(jobs.iter().filter(|j| j.tenant == t).count(), 40);
        }
        for j in &jobs {
            j.validate().expect("generated jobs are admissible");
        }
    }

    #[test]
    fn density_noise_is_seeded_and_small() {
        assert_eq!(noisy_density(3, 1, 2, 3), noisy_density(3, 1, 2, 3));
        assert_ne!(noisy_density(3, 1, 2, 3), noisy_density(4, 1, 2, 3));
        for (x, y, z) in [(0, 0, 0), (127, 5, 99), (64, 64, 64)] {
            assert!((noisy_density(9, x, y, z) - 1.0).abs() <= 1e-4);
        }
    }
}
