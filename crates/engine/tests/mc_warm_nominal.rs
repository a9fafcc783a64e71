//! A fast Monte-Carlo run on a warm cache directory makes no traced
//! solve: it loads the nominal library and its sensitivities from the
//! `.nlc` and its `.nls` sidecar, and its only Newton solves are the
//! deviation probe's. Each fast run reports how it got its nominal.
//!
//! `nanoleak_solver_newton_solves_total` is process-global, so this
//! binary holds a single test: no other test may solve between a
//! reading and the next.

use std::path::{Path, PathBuf};

use nanoleak_cells::CellType;
use nanoleak_device::Technology;
use nanoleak_engine::{
    mc_streaming_mode, CacheOutcome, LibraryCache, McMode, McReport, MemoCacheStats,
    MemoLibraryCache, DEFAULT_DEVIATION_PROBE,
};
use nanoleak_netlist::{Circuit, CircuitBuilder};
use nanoleak_variation::{char_opts_for, run_circuit_mc_range, CircuitMcConfig, SolverProvider};

fn small_circuit() -> Circuit {
    let mut b = CircuitBuilder::new("warm-nominal");
    let a = b.add_input("a");
    let c = b.add_input("b");
    let n = b.add_gate(CellType::Nand2, &[a, c], "n");
    let y = b.add_gate(CellType::Inv, &[n], "y");
    b.mark_output(y);
    b.build().unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("nanoleak-warm-nominal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The converged Newton solves `run` made, read off the global
/// registry (the text `/metrics` serves), and its result.
fn solves<T>(run: impl FnOnce() -> T) -> (u64, T) {
    let read = || {
        nanoleak_obs::global()
            .render()
            .lines()
            .find_map(|l| l.strip_prefix("nanoleak_solver_newton_solves_total "))
            .map_or(0, |n| n.trim().parse().unwrap())
    };
    let before = read();
    let out = run();
    (read() - before, out)
}

/// How the run's cache produced its nominal, as the run reports it.
fn outcome(report: &McReport) -> Option<CacheOutcome> {
    report.telemetry.nominal.as_ref().map(|(_, outcome, _)| *outcome)
}

/// The extensions of the files in `dir`, sorted.
fn extensions(dir: &Path) -> Vec<String> {
    let mut exts: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path().extension().unwrap().to_string_lossy().into_owned())
        .collect();
    exts.sort();
    exts
}

#[test]
fn a_warm_fast_run_loads_its_nominal_and_solves_only_the_probe() {
    let circuit = small_circuit();
    let tech = Technology::d25();
    let config = CircuitMcConfig {
        samples: 6,
        seed: 11,
        vectors: 2,
        threads: 1,
        char_opts: char_opts_for(&circuit, true),
        ..Default::default()
    };
    let fast = |memo: &MemoLibraryCache| -> McReport {
        mc_streaming_mode(&circuit, &tech, memo, &config, McMode::fast(), 0, |_| true)
            .unwrap()
            .unwrap()
    };
    let dir = temp_dir("fast");

    // Cold: the nominal is traced and stored as one `.nlc` and its
    // sidecar; no die leaves a file.
    let cold = MemoLibraryCache::over(LibraryCache::new(&dir));
    let (cold_solves, cold_report) = solves(|| fast(&cold));
    let traced = MemoCacheStats { memory_hits: 0, disk_hits: 0, characterizations: 1 };
    assert_eq!(cold.stats(), traced);
    assert_eq!(extensions(&dir), ["nlc", "nls"]);
    assert_eq!(outcome(&cold_report), Some(CacheOutcome::Miss), "the run reports its trace");

    // Warm: a fresh memo (a new process) loads the pair.
    let warm = MemoLibraryCache::over(LibraryCache::new(&dir));
    let (warm_solves, warm_report) = solves(|| fast(&warm));
    let loaded = MemoCacheStats { memory_hits: 0, disk_hits: 1, characterizations: 0 };
    assert_eq!(warm.stats(), loaded);
    assert_eq!(outcome(&warm_report), Some(CacheOutcome::Hit), "the run reports its load");
    assert_eq!(warm_report.summary, cold_report.summary, "same answer, bit for bit");
    assert_eq!(extensions(&dir), ["nlc", "nls"]);

    // Every die derived without a re-solved entry, so the warm run's
    // only solves are the deviation probe's exact dies.
    let diag = warm_report.summary.fast.expect("fast runs self-report").diag;
    assert_eq!((diag.dies_full, diag.entries_fallback), (0, 0), "{diag:?}");
    let probed = DEFAULT_DEVIATION_PROBE.min(config.samples);
    let (probe_solves, _) = solves(|| {
        run_circuit_mc_range(&circuit, &tech, &SolverProvider, &config, 0, probed).unwrap()
    });
    assert!(probe_solves > 0);
    assert_eq!(warm_solves, probe_solves, "the warm run traced nothing");
    assert!(cold_solves > warm_solves, "the cold run traced the nominal");
    let _ = std::fs::remove_dir_all(&dir);

    // Exact mode never asks the memo, so it writes nothing.
    let dir = temp_dir("exact");
    let exact = MemoLibraryCache::over(LibraryCache::new(&dir));
    let report = mc_streaming_mode(&circuit, &tech, &exact, &config, McMode::Exact, 0, |_| true)
        .unwrap()
        .unwrap();
    assert_eq!(exact.stats().requests(), 0);
    assert_eq!(outcome(&report), None, "exact mode reports no library");
    assert!(!dir.exists(), "exact mode wrote to the disk cache");
}
