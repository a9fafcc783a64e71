//! Records the Monte-Carlo throughput baseline (`BENCH_mc.json`):
//! single-thread samples/sec of the variation workloads —
//!
//! * the paper's paired **inverter fixture** (`run_inverter_mc`,
//!   transistor-level, per-device intra-die variation),
//! * the **exact circuit-level MC** (`McMode::Exact`: one perturbed
//!   die per sample characterized into a library and estimated on the
//!   compiled plan) on a small ISCAS circuit, and
//! * the **fast circuit-level MC** (`McMode::Fast`: dies derived from
//!   the nominal library's traced sensitivities, both arms through
//!   the 64-lane block kernel), measured against the exact arm —
//!
//! and verifies along the way that a re-run of each seed reproduces
//! the summary bit-for-bit (the determinism the engine tests pin, here
//! checked on the exact configuration being measured). The fast arm
//! must clear a **5x** speedup floor over the exact arm, and its
//! measured max/mean deviation from the exact path (the engine's
//! deviation probe) is recorded in the JSON.
//!
//! The one traced nominal characterization is warmed into the memo
//! before the fast arm is timed — matching the long-lived server,
//! where the sensitivity build is paid once per nominal request, not
//! per job — and its cost is recorded separately (`sens_build`).
//!
//! Circuit samples pay a per-die characterization, so the baseline is
//! recorded on the coarse 4-point grid (like the CI smoke paths); the
//! JSON carries `grid_points` so numbers are never compared across
//! resolutions. `--coarse` is therefore the default — pass `--full`
//! for the production 11-point grid if you have minutes to spare.
//!
//! ```text
//! cargo run --release -p nanoleak-bench --bin bench_mc -- \
//!     [--circuit s838] [--samples 8] [--fast-samples 64] \
//!     [--fixture-samples 64] [--full] [--out BENCH_mc.json]
//! ```

use std::time::Instant;

use nanoleak_device::Technology;
use nanoleak_engine::{mc_streaming_mode, McMode, MemoLibraryCache};
use nanoleak_netlist::generate::iscas_like;
use nanoleak_netlist::normalize::normalize;
use nanoleak_variation::{char_opts_for, run_inverter_mc, CircuitMcConfig, McConfig};

/// Patterns averaged per die — a full block so the fast arm's loaded
/// and unloaded fixtures both exercise the 64-lane kernel.
const VECTORS: usize = 64;

fn main() {
    let mut circuit_name = "s838".to_string();
    let mut samples = 8usize;
    let mut fast_samples = 64usize;
    let mut fixture_samples = 64usize;
    let mut full = false;
    let mut out = "BENCH_mc.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match arg.as_str() {
            "--circuit" => circuit_name = value("--circuit"),
            "--samples" => samples = value("--samples").parse().expect("--samples: integer"),
            "--fast-samples" => {
                fast_samples = value("--fast-samples").parse().expect("--fast-samples: integer");
            }
            "--fixture-samples" => {
                fixture_samples =
                    value("--fixture-samples").parse().expect("--fixture-samples: integer");
            }
            "--full" => full = true,
            "--coarse" => full = false,
            "--out" => out = value("--out"),
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(
        samples > 0 && fast_samples > 0 && fixture_samples > 0,
        "need at least one sample per arm"
    );

    let tech = Technology::d25();

    // Capture the run as spans so the baseline JSON records where the
    // wall time went — the fixture stage plus the engine's own
    // estimate/merge/characterize spans from the cold runs.
    nanoleak_obs::begin_capture();

    // ---- Inverter fixture (transistor level, single thread). ----
    let fixture_cfg =
        McConfig { samples: fixture_samples, seed: 2005, threads: 1, ..Default::default() };
    let t0 = Instant::now();
    let fixture = {
        let _span = nanoleak_obs::span!("fixture", samples = fixture_samples);
        run_inverter_mc(&tech, &fixture_cfg).expect("fixture mc")
    };
    let fixture_secs = t0.elapsed().as_secs_f64();
    let again = run_inverter_mc(&tech, &fixture_cfg).expect("fixture mc rerun");
    assert_eq!(fixture, again, "fixture must reproduce bit-for-bit");
    let fixture_sps = fixture_samples as f64 / fixture_secs.max(1e-9);

    // ---- Circuit-level MC, exact arm (one library per die). ----
    let circuit = normalize(&iscas_like(&circuit_name).expect("known circuit")).unwrap();
    let exact_cfg = CircuitMcConfig {
        samples,
        seed: 2005,
        threads: 1,
        vectors: VECTORS,
        char_opts: char_opts_for(&circuit, !full),
        ..Default::default()
    };
    let cache = MemoLibraryCache::memory_only();
    let exact = mc_streaming_mode(&circuit, &tech, &cache, &exact_cfg, McMode::Exact, 0, |_| true)
        .expect("exact circuit mc")
        .expect("not cancelled");
    let exact_sps = exact.telemetry.samples_per_sec;

    // ---- Sensitivity build (the once-per-nominal traced solve). ----
    let t0 = Instant::now();
    cache
        .get_or_characterize_with_sens(
            &exact_cfg.op.tech(&tech),
            exact_cfg.op.temp,
            &exact_cfg.char_opts,
        )
        .expect("traced nominal characterization");
    let sens_build_secs = t0.elapsed().as_secs_f64();

    // ---- Fast arm (dies derived from nominal sensitivities). ----
    let fast_cfg = CircuitMcConfig { samples: fast_samples, ..exact_cfg.clone() };
    let fast = mc_streaming_mode(&circuit, &tech, &cache, &fast_cfg, McMode::fast(), 0, |_| true)
        .expect("fast circuit mc")
        .expect("not cancelled");
    let fast_sps = fast.telemetry.samples_per_sec;
    let fast_report = fast.summary.fast.expect("fast runs self-report");

    // Only the cold runs are captured: the re-runs below would
    // double-count the estimate/merge stages.
    let trace = nanoleak_obs::end_capture();
    let stage_ms = |name: &str| trace.total_us(name) as f64 / 1e3;

    // Exact re-run: bit-identical.
    let exact_again =
        mc_streaming_mode(&circuit, &tech, &cache, &exact_cfg, McMode::Exact, 0, |_| true)
            .expect("exact mc rerun")
            .expect("not cancelled");
    assert_eq!(exact.summary, exact_again.summary, "exact MC must reproduce bit-for-bit");
    // Fast re-run: derivation is deterministic, deviation probe included.
    let fast_again =
        mc_streaming_mode(&circuit, &tech, &cache, &fast_cfg, McMode::fast(), 0, |_| true)
            .expect("fast mc rerun")
            .expect("not cancelled");
    assert_eq!(fast.summary, fast_again.summary, "fast MC must reproduce bit-for-bit");

    // The tentpole's floor: delta-from-nominal must buy at least 5x
    // (the recorded baselines land well above; see BENCH_mc.json).
    let speedup = fast_sps / exact_sps.max(1e-9);
    assert!(
        speedup >= 5.0,
        "fast arm speedup {speedup:.2}x below the 5x floor \
         (exact {exact_sps:.3} samples/s, fast {fast_sps:.3} samples/s)"
    );
    assert!(
        fast_report.max_deviation.is_finite() && fast_report.max_deviation < 0.15,
        "fast arm drifted from the exact path: {fast_report:?}"
    );

    let json = format!(
        "{{\n  \"bench\": \"mc_throughput_single_thread\",\n  \
         \"fixture\": {{\n    \"samples\": {fixture_samples},\n    \
         \"samples_per_sec\": {:.2},\n    \"mean_shift_pct\": {:.3}\n  }},\n  \
         \"circuit\": {{\n    \"name\": \"{circuit_name}\",\n    \"gates\": {},\n    \
         \"grid_points\": {},\n    \"vectors\": {VECTORS},\n    \
         \"exact\": {{\n      \"samples\": {samples},\n      \
         \"samples_per_sec\": {:.3},\n      \"mean_shift_pct\": {:.3},\n      \
         \"std_shift_pct\": {:.3}\n    }},\n    \
         \"fast\": {{\n      \"samples\": {fast_samples},\n      \
         \"samples_per_sec\": {:.3},\n      \"mean_shift_pct\": {:.3},\n      \
         \"std_shift_pct\": {:.3},\n      \"dies_derived\": {},\n      \
         \"entry_fallbacks\": {},\n      \"max_error_estimate\": {:.5},\n      \
         \"probed\": {},\n      \"max_deviation_pct\": {:.4},\n      \
         \"mean_deviation_pct\": {:.4}\n    }},\n    \
         \"speedup_fast_over_exact\": {:.2}\n  }},\n  \"timings_ms\": {{\n    \
         \"fixture\": {:.3},\n    \"characterize\": {:.3},\n    \
         \"sens_build\": {:.3},\n    \"estimate\": {:.3},\n    \"merge\": {:.3}\n  }},\n  \
         \"seed\": 2005,\n  \"bit_identical\": true\n}}\n",
        fixture_sps,
        fixture.mean_shift() * 100.0,
        circuit.gate_count(),
        exact_cfg.char_opts.points,
        exact_sps,
        exact.summary.mean_shift * 100.0,
        exact.summary.std_shift * 100.0,
        fast_sps,
        fast.summary.mean_shift * 100.0,
        fast.summary.std_shift * 100.0,
        fast_report.diag.dies_derived,
        fast_report.diag.entries_fallback,
        fast_report.diag.max_error_estimate,
        fast_report.probed,
        fast_report.max_deviation * 100.0,
        fast_report.mean_deviation * 100.0,
        speedup,
        fixture_secs * 1e3,
        stage_ms("characterize"),
        sens_build_secs * 1e3,
        stage_ms("estimate"),
        stage_ms("merge"),
    );
    std::fs::write(&out, &json).expect("write baseline");
    print!("{json}");
    println!("wrote {out}");
}
