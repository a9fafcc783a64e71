//! Every metric the benchmark reports, with its unit: the single
//! source `--print-spec` renders into `BENCHMARK.json`.
//!
//! End-to-end metrics exist in every workload. Per-layer metrics also
//! exist in every workload's traced run; a layer the workload does not
//! exercise reports `0`, which is itself the prediction for a change
//! aimed elsewhere (e.g. an MC-only change moves nothing in
//! `paper_suite`).

use serde::Value;

/// The paper's Fig. 12 circuit suite, in `paper_suite()` order.
pub const CIRCUITS: [&str; 8] =
    ["s838", "s1196", "s1423", "s5378", "s9234", "s13207", "alu88", "mult88"];

/// The small circuits: hill-climb MLV and reference solves run on
/// these in every round. (s1423's climb alone costs more than the
/// other four together and its length varies most with the seed.)
pub const SMALL: [&str; 4] = ["s838", "s1196", "alu88", "mult88"];

/// Cell types of s838, the Monte-Carlo circuit.
pub const MC_CELLS: [&str; 6] = ["inv", "nand2", "nand3", "nand4", "nor2", "nor3"];

/// `(name, unit, better, bound)` of the end-to-end metrics. The bound
/// is the share of the parent's median a metric may worsen by. In the
/// CPU-bound workloads both times are at the reference host speed
/// (see `crate::speed`).
pub const END_TO_END: [(&str, &str, &str, f64); 3] = [
    // One-time cost before the first answer; work moved out of the
    // measured path into set-up shows here.
    ("setup_s", "s", "lower", 0.25),
    // Wall time of one round of the workload's fixed work.
    ("run_s", "s", "lower", 0.25),
    // Peak resident memory of the measured process(es).
    ("peak_rss_mb", "MB", "lower", 0.2),
];

/// Phases whose Newton work the solver counters are split by.
pub const PHASES: [&str; 5] = ["setup", "sens", "probe", "exact", "reference"];

/// `(name, unit, better)` of every per-layer metric, in report order.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    const LOW: &str = "lower";
    const HIGH: &str = "higher";
    let mut v: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut push =
        |name: String, unit: &'static str, better: &'static str| v.push((name, unit, better));
    for phase in PHASES {
        push(format!("solver.newton_solves.{phase}"), "count", LOW);
        push(format!("solver.newton_iterations.{phase}"), "count", LOW);
    }
    push("cells.characterize_ms".into(), "ms", LOW);
    push("cells.sens_build_ms".into(), "ms", LOW);
    for cell in MC_CELLS {
        push(format!("cells.characterize_ms_per_die.{cell}"), "ms", LOW);
    }
    push("cells.delta_library_ms_per_die".into(), "ms", LOW);
    push("cells.derived_entry_ratio".into(), "ratio", HIGH);
    push("cells.entry_fallbacks".into(), "count", LOW);
    push("variation.dies_full".into(), "count", LOW);
    push("netlist.resolve_ms".into(), "ms", LOW);
    push("netlist.resolve_ms.request".into(), "ms", LOW);
    push("engine.library_load_ms".into(), "ms", LOW);
    for c in CIRCUITS {
        push(format!("core.compile_ms.{c}"), "ms", LOW);
        push(format!("core.block_prepare_ms.{c}"), "ms", LOW);
        push(format!("core.block_patterns_per_s.{c}"), "1/s", HIGH);
        push(format!("engine.sweep_ms.{c}"), "ms", LOW);
    }
    for c in SMALL {
        push(format!("core.scalar_patterns_per_s.{c}"), "1/s", HIGH);
        push(format!("engine.mlv_ms.{c}"), "ms", LOW);
        push(format!("engine.mlv_evaluations.{c}"), "count", LOW);
    }
    for (name, unit, better) in [
        ("core.compile_ms_per_die", "ms", LOW),
        ("core.loaded_arm_ms_per_die", "ms", LOW),
        ("core.unloaded_arm_ms_per_die", "ms", LOW),
        ("core.reference_ms_per_vector", "ms", LOW),
        ("core.estimator_speedup_x", "x", HIGH),
        ("core.estimate_batch_ms.request", "ms", LOW),
        ("engine.sweep_merge_ms", "ms", LOW),
        ("engine.block_lane_waste_ratio", "ratio", LOW),
        ("engine.plan_cache_hit_ratio", "ratio", HIGH),
        ("engine.memo_hit_ratio", "ratio", HIGH),
        ("engine.mc_probe_ms", "ms", LOW),
        ("engine.mc_probe_share", "ratio", LOW),
        ("engine.mc_merge_ms", "ms", LOW),
        ("opt.evaluations", "count", LOW),
        ("opt.rounds", "count", LOW),
        ("opt.evals_per_s", "1/s", HIGH),
        ("opt.improvement_pct", "%", HIGH),
        ("server.connect_ms_p50", "ms", LOW),
        ("server.handler_ms_p50", "ms", LOW),
        ("server.outside_handler_ms_p50", "ms", LOW),
        ("server.queue_wait_ms_p50", "ms", LOW),
        ("server.job_characterize_ms_p50", "ms", LOW),
        ("server.job_estimate_ms_p50", "ms", LOW),
        ("server.job_merge_ms_p50", "ms", LOW),
        ("server.job_serialize_ms_p50", "ms", LOW),
        ("server.polls_per_job", "count", LOW),
    ] {
        push(name.into(), unit, better);
    }
    for class in ["estimate", "job_status", "job_result", "shard_page", "metrics"] {
        push(format!("server.response_bytes.{class}"), "bytes", LOW);
    }
    for name in ["obs.metrics_scrape_ms", "cli.overhead_ms", "bench.unattributed_ms"] {
        push(name.into(), "ms", LOW);
    }
    push("obs.trace_overhead_pct".into(), "%", LOW);
    for layer in crate::ledger::LAYERS {
        push(format!("ledger.{layer}_ms"), "ms", LOW);
    }
    // The workloads' own headline figures, measured in the traced run
    // beside the ledger they decompose.
    for (name, unit, better) in [
        ("sweep_gate_evals_per_s", "1/s", HIGH),
        ("mlv_s", "s", LOW),
        ("optimize_s", "s", LOW),
        ("estimator_err_pct", "%", LOW),
        ("mc_fast_dies_per_s", "1/s", HIGH),
        ("mc_exact_dies_per_s", "1/s", HIGH),
        ("mc_mean_err_pct", "%", LOW),
        ("mc_std_err_pct", "%", LOW),
        ("mc_std_shift_err_pp", "pp", LOW),
        ("http_p50_ms", "ms", LOW),
        ("http_tail_ms", "ms", LOW),
        ("job_turnaround_s", "s", LOW),
    ] {
        push(name.into(), unit, better);
    }
    v
}

/// The metric lists of `BENCHMARK.json`, as JSON.
pub fn render() -> String {
    let rec = |fields: Vec<(&str, Value)>| {
        Value::Record(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    let s = |x: &str| Value::Str(x.to_string());
    let e2e = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            rec(vec![
                ("name", s(name)),
                ("unit", s(unit)),
                ("better", s(better)),
                ("bound", Value::F64(*bound)),
            ])
        })
        .collect();
    let layers = per_layer()
        .into_iter()
        .map(|(name, unit, better)| {
            rec(vec![("name", Value::Str(name)), ("unit", s(unit)), ("better", s(better))])
        })
        .collect();
    serde::json::value_to_string_pretty(&rec(vec![
        ("end_to_end", Value::Seq(e2e)),
        ("per_layer", Value::Seq(layers)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::valid_name;

    #[test]
    fn names_are_valid_unique_and_within_limits() {
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let mut seen = std::collections::BTreeSet::new();
        for name in
            END_TO_END.iter().map(|m| m.0.to_string()).chain(layers.into_iter().map(|m| m.0))
        {
            assert!(valid_name(&name), "{name}");
            assert!(seen.insert(name.clone()), "duplicate {name}");
        }
        assert!(END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.0 == "setup_s").unwrap();
        assert_eq!((setup.1, setup.2), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.3 <= setup.3), "set-up has the largest bound");
    }
}
