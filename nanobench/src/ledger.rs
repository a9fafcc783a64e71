//! The traced run's per-layer ledger.
//!
//! A traced replay runs every public call under the benchmark's own
//! `bench-step` span with an `nanoleak-obs` capture active, and scrapes
//! the process-wide registry around it. Each captured span's self time
//! (its duration minus its children's) is charged to the layer that
//! owns the span, and the rest of the step to the layer whose public
//! function the step called. Whatever the steps do not cover is
//! reported as `bench.unattributed_ms`, so
//! `Σ ledger.<layer>_ms + bench.unattributed_ms` is the traced wall
//! time by construction; [`Ledger::finish`] checks that no span was
//! counted twice.
//!
//! What the tracing itself adds — the registry scrapes, the capture
//! and the span accounting around each step, and any read only a
//! traced run makes — is timed directly and charged to `obs`. It gives
//! `obs.trace_overhead_pct`. A second, untraced replay would not: the
//! difference of two multi-second wall times on a shared host is
//! larger than what tracing costs.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use nanoleak_obs::Trace;

use crate::prom::Scrape;
use crate::report::Report;

/// The layers time is charged to: the workspace crates that do work
/// on a request path. `device` runs only inside Newton and is part of
/// `solver`; the CLI facade's own cost is `cli.overhead_ms`.
pub const LAYERS: [&str; 9] =
    ["solver", "cells", "netlist", "core", "engine", "variation", "opt", "server", "obs"];

/// The layer owning a library span's self time. `estimate` spans are
/// sweep shards (`core` kernels) or Monte-Carlo shards (`variation`
/// per-die work); the caller says which.
fn span_layer(name: &str, estimate: &'static str) -> Option<&'static str> {
    Some(match name {
        "characterize" => "solver",
        "library-sens" => "cells",
        "library" => "engine",
        "compile" => "core",
        "estimate" => estimate,
        "merge" => "engine",
        "deviation-probe" => "variation",
        "optimize" => "opt",
        "serialize" | "job" => "server",
        _ => return None,
    })
}

/// What one traced step observed.
pub struct StepInfo {
    /// The step's own span \[ms\].
    pub ms: f64,
    /// Every library span the step recorded.
    pub trace: Trace,
    /// Registry change across the step.
    pub diff: Scrape,
}

impl StepInfo {
    /// Summed duration of the step's spans named `name` \[ms\].
    pub fn span_ms(&self, name: &str) -> f64 {
        self.trace.total_us(name) as f64 / 1e3
    }
}

/// Per-layer time of a traced replay.
pub struct Ledger {
    start: Instant,
    layer_ms: BTreeMap<&'static str, f64>,
    /// Owner of `estimate` spans: sweep shards run `core` kernels,
    /// Monte-Carlo shards run `variation`'s per-die work.
    estimate: &'static str,
    dropped_spans: u64,
    /// What the tracing itself took \[ms\].
    trace_ms: f64,
}

impl Ledger {
    /// Starts the traced wall clock; `estimate` names the layer that
    /// owns `estimate` spans in this workload.
    pub fn new(estimate: &'static str) -> Self {
        Ledger {
            start: Instant::now(),
            layer_ms: BTreeMap::new(),
            estimate,
            dropped_spans: 0,
            trace_ms: 0.0,
        }
    }

    /// Charges `ms` to `layer` (for work timed outside a step, e.g. an
    /// HTTP call's share).
    pub fn add(&mut self, layer: &'static str, ms: f64) {
        debug_assert!(LAYERS.contains(&layer), "{layer}");
        *self.layer_ms.entry(layer).or_insert(0.0) += ms;
    }

    /// Charges `ms` of work only a traced run does to `obs`, and counts
    /// it as tracing overhead.
    pub fn trace_cost(&mut self, ms: f64) {
        self.add("obs", ms);
        self.trace_ms += ms;
    }

    /// Scrapes the process-wide registry, as tracing overhead.
    pub fn scrape(&mut self) -> Scrape {
        let t = Instant::now();
        let s = crate::prom::global();
        self.trace_cost(t.elapsed().as_secs_f64() * 1e3);
        s
    }

    /// Runs `f` as one step charged to `layer`; the step's scrapes,
    /// capture and accounting are tracing overhead.
    pub fn step<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> (T, StepInfo) {
        let start = Instant::now();
        let before = crate::prom::global();
        nanoleak_obs::begin_capture();
        let out = {
            let _step = nanoleak_obs::span!("bench-step");
            f()
        };
        let trace = nanoleak_obs::end_capture();
        let diff = crate::prom::global().since(&before);
        self.dropped_spans += trace.dropped;
        let mut children_us: HashMap<u32, u64> = HashMap::new();
        for s in &trace.spans {
            if let Some(p) = s.parent {
                *children_us.entry(p).or_insert(0) += s.dur_us;
            }
        }
        let mut ms = 0.0;
        for s in &trace.spans {
            let self_us = s.dur_us.saturating_sub(children_us.get(&s.id).copied().unwrap_or(0));
            let owner = if s.parent.is_none() && s.name == "bench-step" {
                ms = s.dur_us as f64 / 1e3;
                layer
            } else {
                span_layer(s.name, self.estimate).unwrap_or(layer)
            };
            self.add(owner, self_us as f64 / 1e3);
        }
        self.trace_cost((start.elapsed().as_secs_f64() * 1e3 - ms).max(0.0));
        (out, StepInfo { ms, trace, diff })
    }

    /// Stops the wall clock and reports `ledger.<layer>_ms` and
    /// `bench.unattributed_ms` (together the traced wall time), checking
    /// as an operation that nothing was counted twice, and
    /// `obs.trace_overhead_pct`: the tracing overhead against the rest
    /// of the traced wall time. Returns the traced wall time \[ms\].
    pub fn finish(self, report: &mut Report) -> f64 {
        let wall = self.start.elapsed().as_secs_f64() * 1e3;
        let mut sum = 0.0;
        for layer in LAYERS {
            let ms = self.layer_ms.get(layer).copied().unwrap_or(0.0);
            report.set(&format!("ledger.{layer}_ms"), ms, "ms");
            sum += ms;
        }
        let unattributed = wall - sum;
        report.set("bench.unattributed_ms", unattributed, "ms");
        // The remainder closes the sum by construction; a negative one
        // means time was charged twice. Span durations are whole
        // microseconds, hence the rounding slack.
        report.op(
            unattributed >= -0.01,
            &format!("ledger: layers {sum:.3} ms exceed the traced wall {wall:.3} ms"),
        );
        report.set("obs.trace_overhead_pct", self.trace_ms / (wall - self.trace_ms) * 100.0, "%");
        if self.dropped_spans > 0 {
            eprintln!("nanobench: {} spans overflowed the capture ring", self.dropped_spans);
        }
        wall
    }
}

/// Newton solves and iterations in a registry diff.
pub fn newton(diff: &Scrape) -> (f64, f64) {
    (
        diff.get("nanoleak_solver_newton_solves_total"),
        diff.get("nanoleak_solver_newton_iterations_total"),
    )
}

/// Records a phase's Newton counts as `solver.newton_{solves,iterations}.<phase>`.
pub fn set_newton(report: &mut Report, phase: &str, diff: &Scrape) {
    let (solves, iterations) = newton(diff);
    report.set(&format!("solver.newton_solves.{phase}"), solves, "count");
    report.set(&format!("solver.newton_iterations.{phase}"), iterations, "count");
}

/// `hits / (hits + misses)`, `0` when nothing was requested.
pub fn ratio(hits: f64, misses: f64) -> f64 {
    if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    }
}
