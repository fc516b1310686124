//! What the numbers were taken on: core count, CPU features, last-level cache,
//! toolchain, commit — and the measured memory-bandwidth ceiling.

use crate::stats::median;
use crate::surface::cpu_features;
use std::process::Command;
use std::time::Instant;

/// Cores this process may use; the oversubscription rule compares against it.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (`VmHWM`) in MiB, 0 where `/proc` has
/// no such line.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Size in bytes of the largest cache level `cpu0` reports, if any.
pub fn llc_bytes() -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(|e| std::fs::read_to_string(e.ok()?.path().join("size")).ok())
        .filter_map(|s| parse_cache_size(s.trim()))
        .max()
}

fn parse_cache_size(s: &str) -> Option<u64> {
    let (digits, scale) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * scale)
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The host block printed with every result.
pub fn describe() -> String {
    let llc = llc_bytes().map_or("unknown".into(), |b| format!("{} MiB", b >> 20));
    format!(
        "host: available_parallelism={} cpu_features={} llc={llc} rustc=\"{}\" git_commit={}",
        cores(),
        cpu_features(),
        first_line_of("rustc", &["--version"]),
        first_line_of("git", &["rev-parse", "HEAD"]),
    )
}

/// STREAM-triad bandwidth `(1 thread, 2 threads)` in GB/s over three arrays
/// of `bytes_per_array` each, median of `PASSES` passes. Bytes are computed
/// as three arrays per pass (two read, one written; write-allocate traffic is
/// not counted).
pub fn triad_gb_s(bytes_per_array: u64) -> (f64, f64) {
    const PASSES: usize = 5;
    let n = (bytes_per_array / 8) as usize;
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let bytes = 3.0 * 8.0 * n as f64;
    let pass = |a: &mut [f64], b: &[f64], c: &[f64]| {
        for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
            *a = *b + 3.0 * *c;
        }
    };
    let mut gb_s = |threads: usize| {
        let chunk = n.div_ceil(threads);
        let rates: Vec<f64> = (0..=PASSES)
            .map(|_| {
                let t0 = Instant::now();
                std::thread::scope(|s| {
                    for ((a, b), c) in a
                        .chunks_mut(chunk)
                        .zip(b.chunks(chunk))
                        .zip(c.chunks(chunk))
                    {
                        s.spawn(move || pass(a, b, c));
                    }
                });
                bytes / t0.elapsed().as_secs_f64() / 1e9
            })
            .skip(1) // the first pass faults the pages of `a` in
            .collect();
        median(&rates)
    };
    let one = gb_s(1);
    let two = gb_s(2);
    assert_eq!(std::hint::black_box(&a)[n / 2], 7.0);
    (one, two)
}

/// Array size for the triad: 1 GiB, or four times the last-level cache when
/// that is larger; `smoke` runs use 1/16 of it and are not a bandwidth figure.
pub fn triad_array_bytes(smoke: bool) -> u64 {
    let full = (1u64 << 30).max(4 * llc_bytes().unwrap_or(0));
    if smoke {
        full / 16
    } else {
        full
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("48K"), Some(48 << 10));
        assert_eq!(parse_cache_size("266240K"), Some(260 << 20));
        assert_eq!(parse_cache_size("8M"), Some(8 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size(""), None);
    }

    #[test]
    fn host_block_is_honest_about_cores() {
        assert_eq!(cores(), std::thread::available_parallelism().unwrap().get());
        assert!(describe().contains(&format!("available_parallelism={}", cores())));
        assert!(peak_rss_mib() > 0.0);
    }
}
