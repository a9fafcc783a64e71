//! Fig. 10 — Monte-Carlo leakage distributions of an inverter
//! (input '0' / output '1') with and without loading (6 + 6 inverters).

use nanoleak_device::Technology;
use nanoleak_variation::{run_inverter_mc, Histogram, McConfig, Series};

use crate::{fmt, na, print_table, write_csv};

/// Options for the Fig. 10 Monte Carlo.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Sample count (the paper uses 10,000).
    pub samples: usize,
    /// Histogram bins.
    pub bins: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Options {
    fn default() -> Self {
        Self { samples: 10_000, bins: 30, seed: 2005 }
    }
}

/// Regenerates the four histograms.
pub fn run(opts: &Options) {
    let tech = Technology::d25();
    let config = McConfig { samples: opts.samples, seed: opts.seed, ..Default::default() };
    let result = run_inverter_mc(&tech, &config).expect("monte carlo");

    let panels = [
        (Series::Sub, "Subthreshold"),
        (Series::Gate, "Gate"),
        (Series::Btbt, "Junction BTBT"),
        (Series::Total, "Total"),
    ];
    for (series, label) in panels {
        let unloaded = result.series(series, false);
        let loaded = result.series(series, true);
        let hi = unloaded.iter().chain(loaded.iter()).copied().fold(0.0_f64, f64::max) * 1.02;
        let h_un = Histogram::of(&unloaded, 0.0, hi, opts.bins);
        let h_lo = Histogram::of(&loaded, 0.0, hi, opts.bins);
        let rows: Vec<Vec<String>> = h_un
            .centers()
            .iter()
            .zip(h_un.counts.iter().zip(&h_lo.counts))
            .map(|(c, (u, l))| vec![fmt(na(*c), 1), u.to_string(), l.to_string()])
            .collect();
        let headers = ["bin-center[nA]", "no-loading", "with-loading"];
        print_table(&format!("Fig 10: {label} leakage distribution"), &headers, &rows);
        write_csv(
            &format!("fig10_{}.csv", label.to_lowercase().replace(' ', "_")),
            &headers,
            &rows,
        );
    }

    // Summary statistics, the quantitative content of the figure.
    let mut rows = Vec::new();
    for (series, label) in panels {
        let u = result.stats(series, false);
        let l = result.stats(series, true);
        rows.push(vec![
            label.to_string(),
            fmt(na(u.mean), 2),
            fmt(na(l.mean), 2),
            fmt(na(u.std), 2),
            fmt(na(l.std), 2),
        ]);
    }
    let headers = ["component", "mean-no[nA]", "mean-load[nA]", "std-no[nA]", "std-load[nA]"];
    print_table("Fig 10 summary: distribution moments", &headers, &rows);
    write_csv("fig10_summary.csv", &headers, &rows);
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoleak_core::Stats;

    #[test]
    fn loading_moves_the_subthreshold_distribution_right() {
        let tech = Technology::d25();
        let config = McConfig { samples: 150, ..Default::default() };
        let result = run_inverter_mc(&tech, &config).unwrap();
        let u = Stats::sample(&result.series(Series::Sub, false));
        let l = Stats::sample(&result.series(Series::Sub, true));
        assert!(l.mean > u.mean, "loaded {} vs unloaded {}", l.mean, u.mean);
    }
}
