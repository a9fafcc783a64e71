//! Records the sweep-throughput baseline (`BENCH_sweep.json`):
//! single-thread patterns/sec of the legacy per-pattern path
//! (`estimate()` + a fresh `Pattern` per index), the compiled scalar
//! plan, and the 64-lane block kernel the engine's sweeps now run on,
//! plus their ratios — and verifies all three paths agree bit-for-bit
//! on every pattern while measuring. The block kernel must clear 4x
//! over the compiled scalar path on the recorded (non-`--coarse`)
//! run; the bin asserts it. The compiled and block passes it compares
//! run interleaved, repeat by repeat, and each side keeps its fastest
//! pass.
//!
//! The library is the production-resolution characterization
//! (`CharacterizeOptions::default()`, 11-point grid) served through
//! the engine's `*.nlc` disk cache, so only the first run pays the
//! solve. `--coarse` switches to the 4-point test grid (used by the
//! CI smoke step, which only checks the bin runs and the paths agree).
//!
//! ```text
//! cargo run --release -p nanoleak-bench --bin bench_sweep -- \
//!     [--circuit s1196] [--vectors 512] [--repeat 3] [--coarse] \
//!     [--out BENCH_sweep.json]
//! ```

use std::time::Instant;

use nanoleak_bench::{round, write_baseline};
use nanoleak_cells::{CellType, CharacterizeOptions};
use nanoleak_core::{estimate, CompiledEstimator, EstimatorMode, LANES};
use nanoleak_device::Technology;
use nanoleak_engine::{pattern_for_index, LibraryCache};
use nanoleak_netlist::generate::iscas_like;
use nanoleak_netlist::normalize::normalize;
use serde::Serialize;

/// The recorded baseline, field for field as `BENCH_sweep.json` holds
/// it.
#[derive(Serialize)]
struct Baseline {
    bench: &'static str,
    circuit: String,
    gates: usize,
    vectors: usize,
    repeat: usize,
    grid_points: usize,
    mode: &'static str,
    seed: u64,
    legacy_patterns_per_sec: f64,
    compiled_patterns_per_sec: f64,
    block_patterns_per_sec: f64,
    speedup: f64,
    block_speedup_vs_compiled: f64,
    timings_ms: StageTimings,
    bit_identical: bool,
}

/// Captured span totals of the run.
#[derive(Serialize)]
struct StageTimings {
    library: f64,
    characterize: f64,
    compile: f64,
    legacy: f64,
    compiled: f64,
    block_prepare: f64,
    block: f64,
}

fn main() {
    let mut circuit_name = "s1196".to_string();
    let mut vectors = 512usize;
    let mut repeat = 3usize;
    let mut coarse = false;
    let mut out = "BENCH_sweep.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match arg.as_str() {
            "--circuit" => circuit_name = value("--circuit"),
            "--vectors" => vectors = value("--vectors").parse().expect("--vectors: integer"),
            "--repeat" => repeat = value("--repeat").parse().expect("--repeat: integer"),
            "--coarse" => coarse = true,
            "--out" => out = value("--out"),
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(vectors > 0 && repeat > 0, "need at least one vector and one repeat");

    let tech = Technology::d25();
    let opts = if coarse {
        CharacterizeOptions::coarse(&CellType::ALL)
    } else {
        CharacterizeOptions::default()
    };
    // Capture the run as spans so the baseline JSON records where the
    // wall time went (library load/solve, compile+warm, each measured
    // path), not just the final throughput numbers.
    nanoleak_obs::begin_capture();
    let (lib, _) = {
        let _span = nanoleak_obs::span!("library");
        LibraryCache::default_location()
            .load_or_characterize(&tech, 300.0, &opts)
            .expect("characterize library")
    };
    let circuit = normalize(&iscas_like(&circuit_name).expect("known circuit")).unwrap();
    let seed = 2005u64;

    // Warm both paths (page in the library, grow the scratch).
    let plan = {
        let _span = nanoleak_obs::span!("compile");
        CompiledEstimator::compile(&circuit, &lib).unwrap()
    };
    let mut scratch = plan.scratch();
    let warm_pattern = pattern_for_index(&circuit, seed, 0);
    let _ = estimate(&circuit, &lib, &warm_pattern, EstimatorMode::Lut).unwrap();
    let _ = plan.estimate_into(&mut scratch, &warm_pattern, EstimatorMode::Lut).unwrap();

    // Best-of-N on each path: scheduler noise only ever slows a pass
    // down, so the minimum time is the fairest single-thread figure
    // (and both paths get the same treatment).
    let mut legacy_secs = f64::INFINITY;
    let mut legacy = Vec::new();
    {
        let _span = nanoleak_obs::span!("legacy", repeat = repeat);
        for _ in 0..repeat {
            let t0 = Instant::now();
            let totals: Vec<f64> = (0..vectors)
                .map(|i| {
                    let p = pattern_for_index(&circuit, seed, i);
                    estimate(&circuit, &lib, &p, EstimatorMode::Lut).unwrap().total.total()
                })
                .collect();
            legacy_secs = legacy_secs.min(t0.elapsed().as_secs_f64());
            legacy = totals;
        }
    }

    // Block kernel tables: charged once to "block_prepare" (amortized
    // over every later sweep through the shared-plan cache), so the
    // measured block passes see only the steady-state kernel.
    {
        let _span = nanoleak_obs::span!("block_prepare");
        plan.prepare_block();
    }
    // Compiled path: plan compile + scratch + index stream, like a
    // single-thread engine sweep shard.
    let compiled_pass = || {
        let plan = CompiledEstimator::compile(&circuit, &lib).unwrap();
        let mut scratch = plan.scratch();
        (0..vectors)
            .map(|i| {
                plan.estimate_index_into(&mut scratch, seed, i, EstimatorMode::Lut).unwrap().total()
            })
            .collect::<Vec<f64>>()
    };
    // Block kernel: the same index stream packed 64 patterns to the
    // word, exactly as a lanes=64 engine sweep shard runs it.
    let block_pass = || {
        let mut scratch = plan.block_scratch();
        let mut totals = Vec::with_capacity(vectors);
        let mut start = 0usize;
        while start < vectors {
            let count = LANES.min(vectors - start);
            plan.estimate_index_block_into(&mut scratch, seed, start, count, EstimatorMode::Lut)
                .unwrap();
            totals.extend(scratch.totals()[..count].iter().map(|t| t.total()));
            start += count;
        }
        totals
    };
    // The two passes the floor compares run interleaved (compiled,
    // block, compiled, block, ...), so the host's drift over the run
    // hits both alike; each keeps its best pass, as above.
    let (mut compiled_secs, mut block_secs) = (f64::INFINITY, f64::INFINITY);
    let (mut compiled, mut block) = (Vec::new(), Vec::new());
    for _ in 0..repeat {
        {
            let _span = nanoleak_obs::span!("compiled");
            let t0 = Instant::now();
            compiled = compiled_pass();
            compiled_secs = compiled_secs.min(t0.elapsed().as_secs_f64());
        }
        {
            let _span = nanoleak_obs::span!("block");
            let t0 = Instant::now();
            block = block_pass();
            block_secs = block_secs.min(t0.elapsed().as_secs_f64());
        }
    }
    let trace = nanoleak_obs::end_capture();
    let stage_ms = |name: &str| trace.total_us(name) as f64 / 1e3;

    let bit_identical = legacy.iter().zip(&compiled).all(|(a, b)| a.to_bits() == b.to_bits())
        && legacy.iter().zip(&block).all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(bit_identical, "compiled/block paths diverged from the reference estimator");

    let legacy_pps = vectors as f64 / legacy_secs.max(1e-9);
    let compiled_pps = vectors as f64 / compiled_secs.max(1e-9);
    let block_pps = vectors as f64 / block_secs.max(1e-9);
    let speedup = compiled_pps / legacy_pps;
    let block_speedup = block_pps / compiled_pps;
    if !coarse {
        // The tentpole acceptance: the word-parallel kernel must beat
        // the compiled scalar baseline 4x on the recorded run.
        assert!(
            block_speedup >= 4.0,
            "block kernel speedup {block_speedup:.2}x is below the 4x floor"
        );
    }
    let baseline = Baseline {
        bench: "sweep_throughput_single_thread",
        circuit: circuit_name,
        gates: circuit.gate_count(),
        vectors,
        repeat,
        grid_points: opts.points,
        mode: "Lut",
        seed,
        legacy_patterns_per_sec: round(legacy_pps, 1),
        compiled_patterns_per_sec: round(compiled_pps, 1),
        block_patterns_per_sec: round(block_pps, 1),
        speedup: round(speedup, 2),
        block_speedup_vs_compiled: round(block_speedup, 2),
        timings_ms: StageTimings {
            library: round(stage_ms("library"), 3),
            characterize: round(stage_ms("characterize"), 3),
            compile: round(stage_ms("compile"), 3),
            legacy: round(stage_ms("legacy"), 3),
            compiled: round(stage_ms("compiled"), 3),
            block_prepare: round(stage_ms("block_prepare"), 3),
            block: round(stage_ms("block"), 3),
        },
        bit_identical,
    };
    write_baseline(&out, &baseline);
}
