//! Records the optimization-workload baseline (`BENCH_opt.json`):
//!
//! * **plan cache** — cold compile vs warm hit latency of the
//!   process-wide structural plan cache
//!   (`nanoleak_engine::plan_cache::shared_plan`) on an ISCAS
//!   circuit, and the resulting speedup factor;
//! * **optimizer** — single-thread rounds/sec of
//!   `nanoleak_opt::optimize` on the same circuit, with the
//!   guaranteed `improved ≤ baseline` objective and the determinism
//!   of a re-run (bit-identical objective, identical structural key)
//!   asserted on the exact configuration being measured.
//!
//! Like the other `BENCH_*` bins the baseline characterizes on the
//! coarse 4-point grid by default (`--full` for the production grid);
//! the JSON carries `grid_points` so numbers are never compared
//! across resolutions.
//!
//! ```text
//! cargo run --release -p nanoleak-bench --bin bench_opt -- \
//!     [--circuit s1196] [--rounds 2] [--full] [--out BENCH_opt.json]
//! ```

use std::time::Instant;

use nanoleak_bench::{round, write_baseline};
use nanoleak_cells::{CellLibrary, CellType, CharacterizeOptions};
use nanoleak_device::Technology;
use nanoleak_engine::{plan_cache, MlvConfig, MlvStrategy};
use nanoleak_netlist::generate::iscas_like;
use nanoleak_netlist::normalize::normalize;
use nanoleak_opt::{optimize, OptimizeConfig};
use serde::Serialize;

/// Warm lookups averaged for the hit-latency figure.
const WARM_LOOKUPS: u32 = 1000;

/// The recorded baseline, field for field as `BENCH_opt.json` holds it.
#[derive(Serialize)]
struct Baseline {
    bench: &'static str,
    circuit: String,
    grid_points: usize,
    plan_cache: PlanCacheFigures,
    optimize: OptimizeFigures,
    seed: u64,
    bit_identical: bool,
}

/// Cold compile vs warm hit of the structural plan cache.
#[derive(Serialize)]
struct PlanCacheFigures {
    cold_compile_ms: f64,
    warm_hit_us: f64,
    hit_speedup: u64,
}

/// One single-thread `optimize` run.
#[derive(Serialize)]
struct OptimizeFigures {
    gates_before: usize,
    gates_after: usize,
    rounds: usize,
    rounds_per_sec: f64,
    baseline_ua: f64,
    improved_ua: f64,
    improvement_percent: f64,
    evaluations: u64,
}

fn main() {
    let mut circuit_name = "s1196".to_string();
    let mut rounds = 2usize;
    let mut full = false;
    let mut out = "BENCH_opt.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match arg.as_str() {
            "--circuit" => circuit_name = value("--circuit"),
            "--rounds" => rounds = value("--rounds").parse().expect("--rounds: integer"),
            "--full" => full = true,
            "--coarse" => full = false,
            "--out" => out = value("--out"),
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(rounds > 0, "need at least one round");

    let circuit = normalize(&iscas_like(&circuit_name).expect("known circuit")).unwrap();
    let options = if full {
        CharacterizeOptions::default()
    } else {
        CharacterizeOptions::coarse(&CellType::ALL)
    };
    let library = CellLibrary::shared_with_options(&Technology::d25(), 300.0, &options);

    // ---- Plan cache: cold compile vs warm hit. ----
    plan_cache::clear();
    let t0 = Instant::now();
    let cold = plan_cache::shared_plan(&circuit, &library).expect("cold compile");
    let cold_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for _ in 0..WARM_LOOKUPS {
        let warm = plan_cache::shared_plan(&circuit, &library).expect("warm hit");
        assert!(std::sync::Arc::ptr_eq(&cold, &warm), "warm lookups must hit the cold plan");
    }
    let warm_secs = t0.elapsed().as_secs_f64() / f64::from(WARM_LOOKUPS);
    let speedup = cold_secs / warm_secs.max(1e-12);

    // ---- Optimizer throughput (single thread). ----
    let config = OptimizeConfig {
        mlv: MlvConfig {
            strategy: MlvStrategy::HillClimb { restarts: 2, max_steps: 16 },
            threads: 1,
            ..Default::default()
        },
        max_rounds: rounds,
        ..Default::default()
    };
    let t0 = Instant::now();
    let result = optimize(&circuit, &library, &config).expect("optimize");
    let opt_secs = t0.elapsed().as_secs_f64();
    assert!(
        result.improved.objective <= result.baseline.objective,
        "optimize must never regress the MLV objective"
    );
    // Re-run: the greedy pass is deterministic, so the rewritten
    // structure and the objective must reproduce exactly.
    let again = optimize(&circuit, &library, &config).expect("optimize rerun");
    assert_eq!(
        result.circuit.structural_key(),
        again.circuit.structural_key(),
        "optimize must reproduce the rewritten structure"
    );
    assert_eq!(
        result.improved.objective.to_bits(),
        again.improved.objective.to_bits(),
        "optimize must reproduce the objective bit-for-bit"
    );
    let rounds_run = result.rounds.len().max(1);
    let rounds_per_sec = rounds_run as f64 / opt_secs.max(1e-9);

    let baseline = Baseline {
        bench: "opt_workload_single_thread",
        circuit: circuit_name,
        grid_points: options.points,
        plan_cache: PlanCacheFigures {
            cold_compile_ms: round(cold_secs * 1e3, 3),
            warm_hit_us: round(warm_secs * 1e6, 3),
            hit_speedup: speedup.round() as u64,
        },
        optimize: OptimizeFigures {
            gates_before: result.gates_before,
            gates_after: result.gates_after,
            rounds: rounds_run,
            rounds_per_sec: round(rounds_per_sec, 3),
            baseline_ua: round(result.baseline.objective * 1e6, 4),
            improved_ua: round(result.improved.objective * 1e6, 4),
            improvement_percent: round(result.improvement_percent(), 2),
            evaluations: result.evaluations,
        },
        seed: 2005,
        bit_identical: true,
    };
    write_baseline(&out, &baseline);
}
