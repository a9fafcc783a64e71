//! What every workload shares: the run's arguments, seeded input
//! derivation, per-run directories, and checked CLI calls.

use std::path::{Path, PathBuf};
use std::time::Duration;

use nanoleak_netlist::Circuit;
use serde::Value;

use crate::procs::{run_cli, Finished};
use crate::report::Report;

/// Monte-Carlo seeds are drawn from `1..=MC_SEED_POOL`: the exact path
/// solves the first 16 coarse s838 dies of each (screened once). At
/// this commit `mc --exact` fails to converge on roughly one die in
/// several hundred — `mc s838 --coarse --samples 16 --vectors 64 --seed
/// 6923287883013999 --exact` exits with a Newton non-convergence — so a
/// seed outside the pool could fail a run; inside it every run answers
/// and the failure stays reproducible.
pub const MC_SEED_POOL: u64 = 32;

/// One benchmark run.
pub struct Ctx {
    /// The `nanoleak-cli` binary under test.
    pub cli: PathBuf,
    /// The workload seed every input derives from.
    pub seed: u64,
    /// The requested measuring time; sizes the fixed work of a run.
    pub seconds: u64,
    /// This run's private directory (cache directories live here).
    pub dir: PathBuf,
}

impl Ctx {
    /// An input seed derived from the run seed: SplitMix64 of `(seed,
    /// tag)`, cut to 53 bits so every JSON number carries it exactly.
    pub fn seed_for(&self, tag: u64) -> u64 {
        nanoleak_core::exec::mix(self.seed, tag) >> 11
    }

    /// Step `step` of a walk through the screened Monte-Carlo seed
    /// pool (see [`MC_SEED_POOL`]) that starts where the run seed
    /// picks. Steps below the pool size never repeat a seed: the
    /// service keeps per-die libraries in RAM, so a repeated seed
    /// would skip the solver work a fresh one does.
    pub fn mc_seed(&self, tag: u64, step: u64) -> u64 {
        1 + (nanoleak_core::exec::mix(self.seed, tag) % MC_SEED_POOL + step) % MC_SEED_POOL
    }

    /// A fresh, empty directory under the run directory.
    ///
    /// # Errors
    /// Directory creation failures.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let d = self.dir.join(name);
        if d.exists() {
            std::fs::remove_dir_all(&d).map_err(|e| format!("{}: {e}", d.display()))?;
        }
        std::fs::create_dir_all(&d).map_err(|e| format!("{}: {e}", d.display()))?;
        Ok(d)
    }

    /// Rounds of fixed work that fill about `seconds`, given the cost
    /// of one round; at least `min`, so a median exists.
    pub fn rounds(&self, round_s: f64, min: usize) -> usize {
        ((self.seconds as f64 / round_s).round() as usize).max(min)
    }

    /// Runs one cold CLI call with `--format json` output, counting it
    /// as one operation that succeeds when the process exits 0 and its
    /// stdout parses as JSON.
    pub fn cli_json(&self, report: &mut Report, args: &[String]) -> Option<(Finished, Value)> {
        let what = format!("nanoleak-cli {}", args.join(" "));
        match run_cli(&self.cli, args) {
            Ok(f) => {
                let json = if f.ok() { serde::json::value_from_str(&f.stdout).ok() } else { None };
                if !report.op(json.is_some(), &what) {
                    let last = f.stderr.trim().lines().last().unwrap_or("");
                    eprintln!("nanobench: exit {:?}: {last}", f.code);
                }
                json.map(|j| (f, j))
            }
            Err(e) => {
                report.op(false, &format!("{what}: {e}"));
                None
            }
        }
    }
}

/// The fixed cost a cold CLI call pays beyond the analysis it reports:
/// its wall time minus the `elapsed_ms` of its own JSON output —
/// process start, argument parsing, whatever the command does outside
/// its timed analysis (circuit generation, library load), and output
/// \[ms\]. Both numbers come from the same call, so host drift between
/// runs does not enter. Output without `elapsed_ms` is a failed check.
pub fn cli_overhead_ms(report: &mut Report, f: &Finished) -> f64 {
    let elapsed = serde::json::value_from_str(&f.stdout).ok().and_then(|v| num(&v, "elapsed_ms"));
    report.op(elapsed.is_some(), "CLI JSON output carries no elapsed_ms");
    ms(f.wall) - elapsed.unwrap_or(0.0)
}

/// A built-in circuit by name, generated and normalized the way the
/// CLI and the service resolve a target.
pub fn circuit(name: &str) -> Result<Circuit, String> {
    let raw = match name {
        "alu88" => nanoleak_netlist::generate::alu(8),
        "mult88" => nanoleak_netlist::generate::multiplier(8),
        other => nanoleak_netlist::generate::iscas_like(other)
            .ok_or(format!("unknown circuit {other}"))?,
    };
    nanoleak_netlist::normalize::normalize(&raw).map_err(|e| e.to_string())
}

/// Owned argument list.
pub fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| (*s).to_string()).collect()
}

/// `dir` as a CLI argument.
pub fn path_arg(dir: &Path) -> String {
    dir.display().to_string()
}

/// The value at a dotted path of record fields.
pub fn at<'v>(v: &'v Value, path: &str) -> Option<&'v Value> {
    path.split('.').try_fold(v, |v, key| match v {
        Value::Record(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    })
}

/// A JSON number at a dotted path.
pub fn num(v: &Value, path: &str) -> Option<f64> {
    match at(v, path)? {
        Value::F64(x) => Some(*x),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// A JSON string at a dotted path.
pub fn text<'v>(v: &'v Value, path: &str) -> Option<&'v str> {
    match at(v, path)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Fills the per-layer metrics a workload did not set with `0` (the
/// layer was not exercised) and checks that nothing outside the spec
/// was set.
pub fn finish_per_layer(report: &mut Report) {
    let spec = crate::spec::per_layer();
    let unknown: Vec<String> = report
        .metrics
        .keys()
        .filter(|name| !spec.iter().any(|(n, ..)| n == *name))
        .cloned()
        .collect();
    for name in unknown {
        report.op(false, &format!("metric {name} is not in the per-layer spec"));
    }
    report.metrics = spec
        .into_iter()
        .map(|(name, unit, _)| {
            let value = report.metrics.get(&name).map_or(0.0, |m| m.0);
            (name, (value, unit))
        })
        .collect();
}
