//! The paper's headline quantitative claims, asserted end-to-end:
//!
//! * loading modifies a single gate's leakage by up to ~8–10%;
//! * in circuits, per-component averages are sub up / gate down /
//!   btbt down, with the net total around +5% (cancellation);
//! * the estimator tracks the full reference within a few percent;
//! * the estimator is orders of magnitude faster than the reference.

use std::time::Instant;

use nanoleak::prelude::*;
use nanoleak_netlist::generate::{random_circuit, RandomCircuitSpec};
use rand::SeedableRng;
use std::sync::Arc;

fn library() -> Arc<CellLibrary> {
    CellLibrary::shared_with_options(
        &Technology::d25(),
        300.0,
        &CharacterizeOptions::coarse(&CellType::ALL),
    )
}

#[test]
fn single_gate_loading_reaches_percent_scale() {
    // Paper conclusion: "loading effect modifies the leakage of a logic
    // gate by 8-10%". With a 3 uA input loading on a '0' input our
    // inverter moves its total by several percent and its subthreshold
    // component by ~10%.
    let tech = Technology::d25();
    let v = InputVector::parse("0").unwrap();
    let nom = eval_loaded(&tech, 300.0, CellType::Inv, v, &[0.0], 0.0).unwrap().breakdown;
    let load = eval_loaded(&tech, 300.0, CellType::Inv, v, &[3e-6], 0.0).unwrap().breakdown;
    let ld_sub = (load.sub - nom.sub) / nom.sub;
    let ld_total = (load.total() - nom.total()) / nom.total();
    assert!(ld_sub > 0.05 && ld_sub < 0.25, "LD(sub) = {}%", ld_sub * 100.0);
    assert!(ld_total > 0.02 && ld_total < 0.15, "LD(total) = {}%", ld_total * 100.0);
}

#[test]
fn circuit_level_cancellation_keeps_net_effect_moderate() {
    // Per-gate effects reach +/- several percent but the circuit total
    // moves only a few percent (paper: ~5%).
    let lib = library();
    let raw = random_circuit(&RandomCircuitSpec::new("claim", 10, 5, 150, 6, 321));
    let circuit = normalize(&raw).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let patterns = Pattern::random_batch(&circuit, &mut rng, 12);
    let loaded = estimate_batch(&circuit, &lib, &patterns, EstimatorMode::Lut).unwrap();
    let unloaded = estimate_batch(&circuit, &lib, &patterns, EstimatorMode::NoLoading).unwrap();
    let pairs: Vec<_> = loaded.iter().zip(&unloaded).map(|(l, u)| (l.total, u.total)).collect();
    let impact = LoadingImpact::from_pairs(&pairs);
    assert!(
        impact.avg_total > 0.0 && impact.avg_total < 0.10,
        "net total change = {}%",
        impact.avg_total * 100.0
    );
    // Components move in the paper's directions.
    assert!(impact.avg.sub > impact.avg_total, "sub exceeds the net change");
    assert!(impact.avg.gate < 0.0 && impact.avg.btbt < 0.0);
}

#[test]
fn estimator_is_orders_of_magnitude_faster_than_reference() {
    // The paper reports ~1000x vs SPICE. Against our reference solver
    // (which shares the cell-solve machinery, so the gap is smaller by
    // construction) we still demand >= 30x per pattern in debug builds;
    // release benches show far larger ratios.
    let tech = Technology::d25();
    let lib = library();
    let raw = random_circuit(&RandomCircuitSpec::new("speed", 10, 5, 200, 4, 55));
    let circuit = normalize(&raw).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let pattern = Pattern::random(&circuit, &mut rng);

    // Warm both paths once.
    let _ = estimate(&circuit, &lib, &pattern, EstimatorMode::Lut).unwrap();
    let t0 = Instant::now();
    for _ in 0..5 {
        let _ = estimate(&circuit, &lib, &pattern, EstimatorMode::Lut).unwrap();
    }
    let est_time = t0.elapsed().as_secs_f64() / 5.0;

    let t0 = Instant::now();
    let _ =
        reference_leakage(&circuit, &tech, 300.0, &pattern, &ReferenceOptions::default()).unwrap();
    let ref_time = t0.elapsed().as_secs_f64();

    let speedup = ref_time / est_time;
    assert!(speedup > 30.0, "speedup only {speedup:.0}x ({est_time:.6}s vs {ref_time:.3}s)");
}

#[test]
fn compiled_sweep_stats_stay_pinned_to_the_reference_estimator() {
    // PR 4 moved the engine's sweeps onto the compiled estimator plan;
    // their statistics must stay pinned to what the seed-era
    // per-pattern path produces: re-derive every pattern with
    // `pattern_for_index`, score it with the reference `estimate()`,
    // run the same sequential reduction — and demand bit-equality on
    // every published statistic, for more than one thread count.
    use nanoleak_engine::pattern_for_index;

    let lib = library();
    let raw = random_circuit(&RandomCircuitSpec::new("pin", 8, 4, 120, 3, 2005));
    let circuit = normalize(&raw).unwrap();
    let base = SweepConfig { vectors: 48, seed: 2005, threads: 1, ..Default::default() };

    let totals: Vec<LeakageBreakdown> = (0..base.vectors)
        .map(|i| {
            let p = pattern_for_index(&circuit, base.seed, i);
            estimate(&circuit, &lib, &p, EstimatorMode::Lut).unwrap().total
        })
        .collect();
    let series = |f: fn(&LeakageBreakdown) -> f64| -> Vec<f64> { totals.iter().map(f).collect() };
    let total_series = series(LeakageBreakdown::total);
    let argbest = |less: bool| -> usize {
        let mut best = 0;
        for (i, &t) in total_series.iter().enumerate().skip(1) {
            if (less && t < total_series[best]) || (!less && t > total_series[best]) {
                best = i;
            }
        }
        best
    };

    for threads in [1, 3] {
        let report = sweep(&circuit, &lib, &SweepConfig { threads, ..base }).unwrap();
        let s = &report.stats;
        assert_eq!(s.total, Stats::population(&total_series), "threads = {threads}");
        assert_eq!(s.sub, Stats::population(&series(|b| b.sub)));
        assert_eq!(s.gate, Stats::population(&series(|b| b.gate)));
        assert_eq!(s.btbt, Stats::population(&series(|b| b.btbt)));
        assert_eq!(s.min.index, argbest(true));
        assert_eq!(s.max.index, argbest(false));
        assert_eq!(s.min.leakage, totals[s.min.index]);
        assert_eq!(s.max.leakage, totals[s.max.index]);
        assert_eq!(s.min.pattern, pattern_for_index(&circuit, base.seed, s.min.index));
    }
}

#[test]
fn reference_voltages_reveal_multi_level_propagation_is_weak() {
    // Paper Section 6's argument for one-level truncation: a
    // second-level neighbor's gate leakage barely moves this gate's
    // nets. Build a 3-stage chain with fanout only at the last stage
    // and check stage-1's output voltage barely changes when the
    // far-away loads are added.
    let tech = Technology::d25();
    let build = |tail_loads: usize| {
        let mut b = CircuitBuilder::new("chain");
        let a = b.add_input("a");
        let s1 = b.add_gate(CellType::Inv, &[a], "s1");
        let s2 = b.add_gate(CellType::Inv, &[s1], "s2");
        for i in 0..tail_loads {
            let y = b.add_gate(CellType::Inv, &[s2], &format!("y{i}"));
            b.mark_output(y);
        }
        b.mark_output(s2);
        b.build().unwrap()
    };
    let pattern = Pattern { pi: vec![false], states: vec![] };
    let bare = build(0);
    let loaded = build(8);
    let v_bare =
        reference_leakage(&bare, &tech, 300.0, &pattern, &ReferenceOptions::default()).unwrap();
    let v_loaded =
        reference_leakage(&loaded, &tech, 300.0, &pattern, &ReferenceOptions::default()).unwrap();
    let s1_bare = v_bare.net_voltages[bare.find_net("s1").unwrap().0];
    let s1_loaded = v_loaded.net_voltages[loaded.find_net("s1").unwrap().0];
    let s2_bare = v_bare.net_voltages[bare.find_net("s2").unwrap().0];
    let s2_loaded = v_loaded.net_voltages[loaded.find_net("s2").unwrap().0];
    // The directly loaded net (s2) moves by mV...
    assert!((s2_loaded - s2_bare).abs() > 2e-4, "s2 moved {}", s2_loaded - s2_bare);
    // ...while the once-removed net (s1) moves by far less.
    assert!(
        (s1_loaded - s1_bare).abs() < 0.1 * (s2_loaded - s2_bare).abs(),
        "s1 moved {} vs s2 {}",
        s1_loaded - s1_bare,
        s2_loaded - s2_bare
    );
}

#[test]
fn temperature_amplifies_loading_on_subthreshold() {
    // Paper Fig. 9's direction, asserted end-to-end against the
    // isolated baseline.
    let tech = Technology::d25();
    let v = InputVector::parse("0").unwrap();
    let ld_sub = |temp: f64| {
        let nom = eval_isolated(&tech, temp, CellType::Inv, v).unwrap().breakdown;
        let load = eval_loaded(&tech, temp, CellType::Inv, v, &[1.5e-6], 1.5e-6).unwrap().breakdown;
        (load.sub - nom.sub) / nom.sub
    };
    let cold = ld_sub(283.0);
    let hot = ld_sub(423.0);
    assert!(hot > 2.0 * cold, "LD(sub): cold {} vs hot {}", cold, hot);
}
