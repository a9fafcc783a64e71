//! The paper's Monte-Carlo experiment (Figs. 10–11): leakage
//! distribution of an inverter with and without loading under process
//! variation.
//!
//! Each sample perturbs every transistor (inter-die deltas shared
//! across the sample, intra-die deltas independent per device) and
//! solves two fixtures at transistor level:
//!
//! * **loaded** — the inverter G with a real driver on its input,
//!   `input_loads` inverters sharing its input net, and `output_loads`
//!   inverters loading its output net (the paper's 6 + 6 setup);
//! * **unloaded** — the same perturbed G alone with ideal rail inputs.
//!
//! The same device samples are used in both arms, so the distributions
//! differ only through the loading effect.

use nanoleak_cells::OperatingPoint;
use nanoleak_core::exec::{mix, par_map};
use nanoleak_core::Stats;
use nanoleak_device::{DeviceDesign, LeakageBreakdown, Technology, Transistor};
use nanoleak_solver::{solve_dc, MosNetlist, NewtonOptions, SolverError};
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::sigmas::VariationSigmas;

/// Monte-Carlo configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct McConfig {
    /// Number of samples (the paper uses 10,000).
    pub samples: usize,
    /// Base RNG seed; per-sample streams are derived deterministically,
    /// so results do not depend on thread count.
    pub seed: u64,
    /// Variation magnitudes.
    pub sigmas: VariationSigmas,
    /// Inverters loading the input net (paper: 6).
    pub input_loads: usize,
    /// Inverters loading the output net (paper: 6).
    pub output_loads: usize,
    /// Operating conditions (temperature and supply scale) the
    /// fixtures are solved at. The supply perturbation `dvdd` is
    /// applied on top of the scaled nominal.
    pub op: OperatingPoint,
    /// Logic level at G's input (paper: '0', output '1').
    pub input_level: bool,
    /// Worker threads (`0` = all cores, capped at 16). Never changes
    /// the result — only how fast it arrives.
    pub threads: usize,
}

impl Default for McConfig {
    fn default() -> Self {
        Self {
            samples: 10_000,
            seed: 2005,
            sigmas: VariationSigmas::paper_nominal(),
            input_loads: 6,
            output_loads: 6,
            op: OperatingPoint::default(),
            input_level: false,
            threads: 0,
        }
    }
}

/// One sample's paired outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct McSample {
    /// G's leakage in the loaded fixture.
    pub loaded: LeakageBreakdown,
    /// G's leakage in isolation.
    pub unloaded: LeakageBreakdown,
}

/// Which series of a sample to extract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Series {
    /// Subthreshold component.
    Sub,
    /// Gate-tunneling component.
    Gate,
    /// Junction BTBT component.
    Btbt,
    /// Total leakage.
    Total,
}

/// Extracts one series over a paired sample set — shared by the
/// inverter fixture ([`McResult`]) and the circuit-level workload
/// (`CircuitMcResult`), so the two analyses can never diverge on what
/// "the loaded subthreshold series" means.
pub fn series_of(samples: &[McSample], which: Series, loaded: bool) -> Vec<f64> {
    samples
        .iter()
        .map(|s| {
            let b = if loaded { &s.loaded } else { &s.unloaded };
            match which {
                Series::Sub => b.sub,
                Series::Gate => b.gate,
                Series::Btbt => b.btbt,
                Series::Total => b.total(),
            }
        })
        .collect()
}

/// Statistics of one series over a paired sample set (see
/// [`series_of`]).
pub fn stats_of(samples: &[McSample], which: Series, loaded: bool) -> Stats {
    Stats::sample(&series_of(samples, which, loaded))
}

/// Fig. 11's loading-induced shifts of total leakage, `(mean, std)`:
/// the loaded statistic minus the unloaded one, as a fraction of the
/// unloaded one. A zero unloaded spread (one sample, say) has no
/// relative shift to report, so its std shift reads 0.
pub(crate) fn shifts(loaded: &Stats, unloaded: &Stats) -> (f64, f64) {
    let std = if unloaded.std == 0.0 { 0.0 } else { (loaded.std - unloaded.std) / unloaded.std };
    ((loaded.mean - unloaded.mean) / unloaded.mean, std)
}

/// Monte-Carlo result set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McResult {
    /// The configuration that produced the samples.
    pub config: McConfig,
    /// Per-sample paired outcomes.
    pub samples: Vec<McSample>,
}

impl McResult {
    /// Extracts a series over samples.
    pub fn series(&self, which: Series, loaded: bool) -> Vec<f64> {
        series_of(&self.samples, which, loaded)
    }

    /// Statistics of a series.
    pub fn stats(&self, which: Series, loaded: bool) -> Stats {
        stats_of(&self.samples, which, loaded)
    }

    /// Fig. 11 (left): loading-induced shift of the mean of total
    /// leakage, as a fraction of the unloaded mean.
    pub fn mean_shift(&self) -> f64 {
        self.total_shifts().0
    }

    /// Fig. 11 (right): loading-induced shift of the standard
    /// deviation of total leakage, as a fraction of the unloaded std
    /// (0 when that std is zero).
    pub fn std_shift(&self) -> f64 {
        self.total_shifts().1
    }

    fn total_shifts(&self) -> (f64, f64) {
        shifts(&self.stats(Series::Total, true), &self.stats(Series::Total, false))
    }
}

/// Runs the paired inverter Monte Carlo, in parallel.
///
/// # Errors
/// Propagates the first solver failure (extreme corners are clamped by
/// the perturbation model, so the default configurations converge).
pub fn run_inverter_mc(tech: &Technology, config: &McConfig) -> Result<McResult, SolverError> {
    // Per-item outputs land in index order and the reduction below is
    // sequential, so the result is thread-count invariant (the
    // workspace-wide `exec` contract).
    let per_sample: Vec<Result<McSample, SolverError>> =
        par_map(config.samples, config.threads, |i| run_sample(tech, config, i));
    let mut samples = Vec::with_capacity(config.samples);
    for r in per_sample {
        samples.push(r?);
    }
    Ok(McResult { config: *config, samples })
}

fn run_sample(tech: &Technology, config: &McConfig, index: usize) -> Result<McSample, SolverError> {
    // Per-sample streams come from the workspace-wide SplitMix64
    // `mix(seed, i)` convention (`nanoleak_core::exec::mix`), the same
    // mixer the engine's sweeps and the circuit-level MC use.
    let mut rng = rand::rngs::StdRng::seed_from_u64(mix(config.seed, index as u64));
    let tech = &config.op.tech(tech);
    let sigmas = &config.sigmas;
    let inter = sigmas.sample_inter(&mut rng);
    let vdd = tech.vdd + inter.dvdd;

    let draw = |design: &DeviceDesign, rng: &mut rand::rngs::StdRng| {
        let p = inter.combined(&sigmas.sample_intra(rng));
        Transistor::new(p.apply(design).derive())
    };

    // Device order is fixed: G first (shared between arms), then the
    // driver, then the loading inverters.
    let g_n = draw(&tech.nmos, &mut rng);
    let g_p = draw(&tech.pmos, &mut rng);
    let d_n = draw(&tech.nmos, &mut rng);
    let d_p = draw(&tech.pmos, &mut rng);
    let loads: Vec<(Transistor, Transistor)> = (0..config.input_loads + config.output_loads)
        .map(|_| {
            let n = draw(&tech.nmos, &mut rng);
            let p = draw(&tech.pmos, &mut rng);
            (n, p)
        })
        .collect();

    // ---- Loaded fixture ----
    let mut nl = MosNetlist::new();
    let vdd_n = nl.add_fixed_node("vdd", vdd);
    let gnd_n = nl.add_fixed_node("gnd", 0.0);
    // Driver input is the complement of G's input level.
    let drv_in = nl.add_fixed_node("drv_in", if config.input_level { 0.0 } else { vdd });
    let node_in = nl.add_node("in");
    let node_out = nl.add_node("out");
    nl.add_mos(d_n, node_in, drv_in, gnd_n, gnd_n);
    nl.add_mos(d_p, node_in, drv_in, vdd_n, vdd_n);
    let g_first = nl.device_count();
    nl.add_mos(g_n, node_out, node_in, gnd_n, gnd_n);
    nl.add_mos(g_p, node_out, node_in, vdd_n, vdd_n);
    let mut load_outs = Vec::new();
    for (k, (n, p)) in loads.into_iter().enumerate() {
        let pin = if k < config.input_loads { node_in } else { node_out };
        let lo = nl.add_node(&format!("lo{k}"));
        nl.add_mos(n, lo, pin, gnd_n, gnd_n);
        nl.add_mos(p, lo, pin, vdd_n, vdd_n);
        load_outs.push((lo, pin));
    }

    let in_rail = if config.input_level { vdd } else { 0.0 };
    let out_rail = if config.input_level { 0.0 } else { vdd };
    let mut guess = vec![0.5 * vdd; nl.node_count()];
    guess[node_in.0] = in_rail;
    guess[node_out.0] = out_rail;
    for &(lo, pin) in &load_outs {
        guess[lo.0] = if pin == node_in { out_rail } else { in_rail };
    }
    let sol = solve_dc(&nl, config.op.temp, Some(&guess), &NewtonOptions::default())?;
    let loaded = sol.device_breakdowns[g_first] + sol.device_breakdowns[g_first + 1];

    // ---- Unloaded fixture: same G, ideal input ----
    let mut nl2 = MosNetlist::new();
    let vdd2 = nl2.add_fixed_node("vdd", vdd);
    let gnd2 = nl2.add_fixed_node("gnd", 0.0);
    let in2 = nl2.add_fixed_node("in", in_rail);
    let out2 = nl2.add_node("out");
    nl2.add_mos(g_n, out2, in2, gnd2, gnd2);
    nl2.add_mos(g_p, out2, in2, vdd2, vdd2);
    let mut guess2 = vec![out_rail; nl2.node_count()];
    guess2[out2.0] = out_rail;
    let sol2 = solve_dc(&nl2, config.op.temp, Some(&guess2), &NewtonOptions::default())?;
    let unloaded = sol2.device_breakdowns[0] + sol2.device_breakdowns[1];

    Ok(McSample { loaded, unloaded })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoleak_device::consts::NA;

    fn small_config() -> McConfig {
        McConfig { samples: 160, ..Default::default() }
    }

    #[test]
    fn deterministic_across_runs() {
        let tech = Technology::d25();
        let a = run_inverter_mc(&tech, &small_config()).unwrap();
        let b = run_inverter_mc(&tech, &small_config()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn loading_shifts_subthreshold_up_and_others_down() {
        // Paper Fig. 10: the loaded subthreshold distribution moves
        // right; gate and junction distributions move slightly left.
        let tech = Technology::d25();
        let r = run_inverter_mc(&tech, &small_config()).unwrap();
        let sub_l = r.stats(Series::Sub, true).mean;
        let sub_u = r.stats(Series::Sub, false).mean;
        assert!(sub_l > sub_u * 1.005, "sub: loaded {} vs unloaded {}", sub_l, sub_u);
        let gate_l = r.stats(Series::Gate, true).mean;
        let gate_u = r.stats(Series::Gate, false).mean;
        assert!(gate_l < gate_u * 1.002, "gate must not increase");
    }

    #[test]
    fn loading_widens_the_total_spread() {
        // Paper Fig. 11 (right): loading increases the standard
        // deviation of total leakage.
        let tech = Technology::d25();
        let cfg = McConfig {
            samples: 240,
            sigmas: VariationSigmas::paper_nominal().with_vt_intra(90e-3).with_vt_inter(50e-3),
            ..Default::default()
        };
        let r = run_inverter_mc(&tech, &cfg).unwrap();
        assert!(r.std_shift() > 0.0, "std shift = {}", r.std_shift());
        assert!(r.mean_shift() > 0.0, "mean shift = {}", r.mean_shift());
    }

    #[test]
    fn magnitudes_match_figure_10_axes() {
        // Fig. 10 histograms: subthreshold up to ~2000 nA, junction
        // 5-20 nA scale.
        let tech = Technology::d25();
        let r = run_inverter_mc(&tech, &small_config()).unwrap();
        let sub = r.stats(Series::Sub, true);
        assert!(sub.mean > 100.0 * NA && sub.mean < 1500.0 * NA, "sub mean = {}", sub.mean / NA);
        let btbt = r.stats(Series::Btbt, true);
        assert!(btbt.mean > 1.0 * NA && btbt.mean < 60.0 * NA, "btbt mean = {}", btbt.mean / NA);
        // Variation makes the subthreshold spread large (log-normal-ish).
        assert!(sub.std / sub.mean > 0.2, "cv = {}", sub.std / sub.mean);
    }
}
