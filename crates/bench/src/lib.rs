//! In-tree micro-benchmark harness.
//!
//! The build environment is offline, so `criterion` is not available;
//! this module provides the small subset the workspace needs: adaptive
//! iteration counts, wall-clock timing around [`std::hint::black_box`],
//! and one-line reports. The bench targets in `benches/` are wired with
//! `harness = false` and call [`run`] directly.
//!
//! Knobs (environment variables):
//!
//! * `HIPE_BENCH_MS` — target measurement time per benchmark in
//!   milliseconds (default 100);
//! * `HIPE_BENCH_ROWS` — table size for the figure sweeps (default
//!   16384, kept small so the targets also double as smoke tests under
//!   `cargo test`);
//! * `HIPE_BENCH_SF` — table size as a TPC-H scale factor (may be
//!   fractional; `1` is the paper's 6M-row setup). Takes precedence
//!   over `HIPE_BENCH_ROWS` when both are set;
//! * `HIPE_WORKERS` — host worker threads for the parallel sweeps and
//!   cluster scatter phases (default 1, fully serial).

// The bench harness is the terminal boundary of the workspace: the
// library-wide print lints stop here.
#![allow(clippy::print_stdout, clippy::print_stderr)]

pub mod perf;

use hipe_db::SF1_ROWS;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Outcome of one benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Iterations of the final measured batch.
    pub iters: u64,
    /// Wall time of the final measured batch.
    pub total: Duration,
}

impl BenchResult {
    /// Nanoseconds per iteration.
    pub fn ns_per_iter(&self) -> f64 {
        self.total.as_nanos() as f64 / self.iters.max(1) as f64
    }
}

impl std::fmt::Display for BenchResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<40} {:>12.1} ns/iter ({} iters)",
            self.name,
            self.ns_per_iter(),
            self.iters
        )
    }
}

/// Target measurement duration (`HIPE_BENCH_MS`, default 100 ms).
pub fn target_duration() -> Duration {
    let ms = std::env::var("HIPE_BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100);
    Duration::from_millis(ms)
}

/// Scale factor requested via `HIPE_BENCH_SF`, if any. Fractional
/// values are allowed (`0.25` is a quarter of SF-1's 6M rows).
pub fn bench_sf() -> Option<f64> {
    std::env::var("HIPE_BENCH_SF")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|sf| sf.is_finite() && *sf > 0.0)
}

/// Table size for the figure sweeps: `HIPE_BENCH_SF` (as a TPC-H scale
/// factor over the 6 001 215-row SF-1 table) when set, else
/// `HIPE_BENCH_ROWS` (default 16384), clamped to at least 1 tuple.
pub fn bench_rows() -> usize {
    if let Some(sf) = bench_sf() {
        return rows_at_sf(sf);
    }
    std::env::var("HIPE_BENCH_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16_384)
        .max(1)
}

/// Rows of a TPC-H lineitem table at scale factor `sf` (≥ 1 tuple).
pub fn rows_at_sf(sf: f64) -> usize {
    ((SF1_ROWS as f64 * sf).round() as usize).max(1)
}

/// Version of the `BENCH_figures.json` layout the `figures` bench
/// writes; `check_figures` rejects a document of any other version.
pub const FIGURES_SCHEMA: u64 = 1;

/// Host worker threads for the parallel sweeps (`HIPE_WORKERS`,
/// default 1 — fully serial, the byte-identical historical path).
pub fn bench_workers() -> usize {
    hipe_sim::env_workers()
}

/// Prints the standard bench header: which target is running and the
/// resolved row count / scale factor / worker width, so every recorded
/// run documents its configuration.
pub fn print_header(target: &str) {
    let rows = bench_rows();
    println!(
        "# {target}: rows={rows} (SF {:.4}), workers={}",
        rows as f64 / SF1_ROWS as f64,
        bench_workers()
    );
}

/// Runs `f` repeatedly for at least `target`, growing the iteration
/// count geometrically, and returns the final batch's timing.
pub fn run_for<R>(name: &str, target: Duration, mut f: impl FnMut() -> R) -> BenchResult {
    black_box(f()); // warm up caches and lazy state
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let total = start.elapsed();
        if total >= target || iters >= 1 << 30 {
            return BenchResult {
                name: name.to_string(),
                iters,
                total,
            };
        }
        // Aim directly for the target with 20 % headroom.
        let per_iter = (total.as_nanos() as u64 / iters).max(1);
        let needed = target.as_nanos() as u64 * 6 / 5 / per_iter;
        iters = needed.max(iters * 2);
    }
}

/// Runs `f` for the configured target duration and prints the result.
pub fn run<R>(name: &str, f: impl FnMut() -> R) -> BenchResult {
    let result = run_for(name, target_duration(), f);
    println!("{result}");
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_for_reaches_target_and_reports() {
        let mut calls = 0u64;
        let result = run_for("spin", Duration::from_millis(2), || {
            calls += 1;
            std::hint::black_box(calls)
        });
        assert!(result.total >= Duration::from_millis(2));
        assert!(result.iters >= 1);
        assert!(calls > result.iters, "warmup call missing");
        assert!(result.ns_per_iter() > 0.0);
        assert!(result.to_string().contains("spin"));
    }

    #[test]
    fn env_defaults() {
        // Not setting the variables yields the documented defaults.
        if std::env::var("HIPE_BENCH_MS").is_err() {
            assert_eq!(target_duration(), Duration::from_millis(100));
        }
        if std::env::var("HIPE_BENCH_ROWS").is_err() && std::env::var("HIPE_BENCH_SF").is_err() {
            assert_eq!(bench_rows(), 16_384);
        }
        if std::env::var("HIPE_BENCH_SF").is_err() {
            assert_eq!(bench_sf(), None);
        }
        assert!(bench_workers() >= 1);
    }

    #[test]
    fn scale_factor_row_counts() {
        assert_eq!(rows_at_sf(1.0), SF1_ROWS);
        assert_eq!(rows_at_sf(10.0), 10 * SF1_ROWS);
        assert_eq!(rows_at_sf(1e-12), 1, "tiny SF clamps to one tuple");
        // A quarter SF rounds to the nearest tuple.
        assert_eq!(rows_at_sf(0.25), (SF1_ROWS as f64 * 0.25).round() as usize);
    }
}
