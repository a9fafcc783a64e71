//! # nanoleak-bench
//!
//! Shared harness utilities for the figure-regeneration binaries
//! (`fig04_device` … `fig12_circuits`) and the performance-baseline
//! bins (`bench_sweep`, `bench_mc`, `bench_opt`), which record
//! `BENCH_*.json` through [`write_baseline`].
//!
//! Each figure binary prints the same series the corresponding paper
//! figure plots (aligned table on stdout) and writes a CSV next to it
//! under `results/`. Run them all with `cargo run --release -p
//! nanoleak-bench --bin all_figures`.

pub mod figures;

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// Nanoamp conversion for display.
pub fn na(x: f64) -> f64 {
    x / 1e-9
}

/// Percent conversion for display.
pub fn pct(x: f64) -> f64 {
    100.0 * x
}

/// `n` evenly spaced values over `[a, b]` inclusive.
///
/// # Panics
/// Panics if `n < 2`.
pub fn linspace(a: f64, b: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "linspace needs at least two points");
    (0..n).map(|i| a + (b - a) * i as f64 / (n - 1) as f64).collect()
}

/// The output directory for CSV artifacts (`results/`, created on
/// demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(std::env::var("NANOLEAK_RESULTS").unwrap_or_else(|_| "results".into()));
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Prints an aligned table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line: Vec<String> =
        headers.iter().enumerate().map(|(i, h)| format!("{h:>w$}", w = widths[i])).collect();
    println!("{}", line.join("  "));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Writes a CSV artifact into [`results_dir`]; prints the path.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let path = results_dir().join(name);
    let mut out = String::new();
    out.push_str(&headers.join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    match fs::File::create(&path).and_then(|mut f| f.write_all(out.as_bytes())) {
        Ok(()) => println!("[csv] {}", path.display()),
        Err(e) => eprintln!("[csv] failed to write {}: {e}", path.display()),
    }
}

/// Simple flag lookup: `--name value` in the binary's argv.
pub fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

/// `true` when `--flag` is present in argv.
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Formats a number with the given decimals.
pub fn fmt(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

/// `x` rounded to `digits` decimals, so a recorded `BENCH_*.json`
/// holds what the measurement resolves rather than every digit of an
/// `f64`.
pub fn round(x: f64, digits: i32) -> f64 {
    let scale = 10f64.powi(digits);
    (x * scale).round() / scale
}

/// Writes a perf baseline to `path` as pretty-printed JSON and echoes
/// it to stdout.
///
/// # Panics
/// Panics if the file cannot be written.
pub fn write_baseline(path: &str, baseline: &impl serde::Serialize) {
    let json = format!("{}\n", serde::json::to_string_pretty(baseline));
    std::fs::write(path, &json).expect("write baseline");
    print!("{json}");
    println!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linspace_endpoints_and_spacing() {
        let v = linspace(0.0, 3.0, 4);
        assert_eq!(v, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn linspace_rejects_single_point() {
        linspace(0.0, 1.0, 1);
    }

    #[test]
    fn unit_helpers() {
        assert_eq!(na(3e-9), 3.0);
        assert_eq!(pct(0.05), 5.0);
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(round(1.23456, 2), 1.23);
        assert_eq!(round(217.3574, 3), 217.357);
    }
}
