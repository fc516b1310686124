//! # swlb-bench — the figure/table regeneration harness
//!
//! One binary per evaluation artifact of the paper (see `src/bin/`), plus
//! the Criterion SoA-vs-AoS layout microbenchmark (`benches/layouts.rs`).
//! This library holds the shared table-formatting and measurement helpers.

// Indexed loops mirror the stencil mathematics throughout this workspace and
// are kept deliberately as the clearer idiom for this domain.
#![allow(clippy::needless_range_loop)]

use std::time::Instant;

/// Print a report header with the paper reference.
pub fn header(title: &str, paper_ref: &str) {
    println!("{}", "=".repeat(78));
    println!("{title}");
    println!("reproduces: {paper_ref}");
    println!("{}", "=".repeat(78));
}

/// Print an aligned table row.
pub fn row(cols: &[String]) {
    let widths = [14usize, 14, 14, 14, 14];
    let mut line = String::new();
    for (i, c) in cols.iter().enumerate() {
        let w = widths.get(i).copied().unwrap_or(14);
        line.push_str(&format!("{c:>w$} "));
    }
    println!("{line}");
}

/// Compare a modeled/measured value with the paper's and format the deviation.
pub fn vs_paper(ours: f64, paper: f64) -> String {
    if paper == 0.0 {
        return "n/a".into();
    }
    format!("{:+.1}%", (ours - paper) / paper * 100.0)
}

/// Wall-time one closure over `iters` calls, returning seconds per call after
/// one warmup call.
pub fn time_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64() / iters as f64
}

/// Format a cell count as a human-readable mesh size.
pub fn fmt_cells(cells: u64) -> String {
    if cells >= 1_000_000_000_000 {
        format!("{:.2}T", cells as f64 / 1e12)
    } else if cells >= 1_000_000_000 {
        format!("{:.2}G", cells as f64 / 1e9)
    } else if cells >= 1_000_000 {
        format!("{:.1}M", cells as f64 / 1e6)
    } else {
        format!("{cells}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vs_paper_formats_deviation() {
        assert_eq!(vs_paper(110.0, 100.0), "+10.0%");
        assert_eq!(vs_paper(90.0, 100.0), "-10.0%");
        assert_eq!(vs_paper(1.0, 0.0), "n/a");
    }

    #[test]
    fn fmt_cells_scales() {
        assert_eq!(fmt_cells(500), "500");
        assert_eq!(fmt_cells(35_000_000), "35.0M");
        assert_eq!(fmt_cells(5_600_000_000_000), "5.60T");
    }

    #[test]
    fn time_per_call_is_positive() {
        let t = time_per_call(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(t >= 0.0);
    }
}
