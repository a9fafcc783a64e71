//! Fig. 12 — circuit-level validation on the paper's benchmark suite:
//! (a) estimated vs. reference ("SPICE") total leakage, (b) average and
//! (c) maximum per-component leakage change due to loading over random
//! vectors.

use std::time::Instant;

use nanoleak_cells::CellLibrary;
use nanoleak_core::{
    accuracy, estimate_batch, reference_batch, Accuracy, EstimatorMode, ReferenceOptions,
};
use nanoleak_device::Technology;
use nanoleak_netlist::generate::paper_suite;
use nanoleak_netlist::Pattern;
use rand::SeedableRng;

use crate::{fmt, pct, print_table, write_csv};

/// Options for the Fig. 12 experiment.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Random vectors for the estimator statistics (paper: 100).
    pub vectors: usize,
    /// Vectors run through the reference simulator (it is orders of
    /// magnitude slower; 10 gives tight means already).
    pub reference_vectors: usize,
    /// Skip the reference entirely (loading statistics only).
    pub skip_reference: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Options {
    fn default() -> Self {
        Self { vectors: 100, reference_vectors: 10, skip_reference: false, seed: 2005 }
    }
}

/// Regenerates the three panels.
pub fn run(opts: &Options) {
    let tech = Technology::d25();
    println!("characterizing cell library ...");
    let lib = CellLibrary::shared(&tech, 300.0);
    let circuits = paper_suite().expect("paper suite generates");

    let mut rows_a = Vec::new();
    let mut rows_b = Vec::new();
    let mut rows_c = Vec::new();

    for circuit in &circuits {
        let name = circuit.name().to_string();
        println!("running {name} ({} gates) ...", circuit.gate_count());
        let mut rng = rand::rngs::StdRng::seed_from_u64(opts.seed);
        let patterns = Pattern::random_batch(circuit, &mut rng, opts.vectors);

        let t0 = Instant::now();
        let loaded =
            estimate_batch(circuit, &lib, &patterns, EstimatorMode::Lut).expect("estimation");
        let est_time = t0.elapsed();
        let unloaded = estimate_batch(circuit, &lib, &patterns, EstimatorMode::NoLoading)
            .expect("baseline estimation");

        let pairs: Vec<_> = loaded.iter().zip(&unloaded).map(|(l, u)| (l.total, u.total)).collect();
        let impact = nanoleak_core::LoadingImpact::from_pairs(&pairs);

        let est_mean_uw =
            loaded.iter().map(|r| r.power(tech.vdd)).sum::<f64>() / loaded.len() as f64 * 1e6;

        let (ref_mean_uw, acc, ref_time) = if opts.skip_reference {
            (None, None, None)
        } else {
            let n_ref = opts.reference_vectors.min(patterns.len()).max(1);
            let t0 = Instant::now();
            let refs = reference_batch(
                circuit,
                &tech,
                300.0,
                &patterns[..n_ref],
                &ReferenceOptions::default(),
            )
            .expect("reference");
            let ref_time = t0.elapsed();
            let accs: Vec<Accuracy> =
                loaded[..n_ref].iter().zip(&refs).map(|(e, r)| accuracy(e, &r.leakage)).collect();
            let mean_err = accs.iter().map(|a| a.total_rel_err).sum::<f64>() / accs.len() as f64;
            let ref_mean = refs.iter().map(|r| r.leakage.power(tech.vdd)).sum::<f64>()
                / refs.len() as f64
                * 1e6;
            (Some(ref_mean), Some(mean_err), Some((ref_time, n_ref)))
        };

        let speedup = match (&ref_time, est_time.as_secs_f64()) {
            (Some((rt, n_ref)), et) if et > 0.0 => {
                let per_ref = rt.as_secs_f64() / *n_ref as f64;
                let per_est = et / patterns.len() as f64;
                Some(per_ref / per_est)
            }
            _ => None,
        };

        rows_a.push(vec![
            name.clone(),
            circuit.gate_count().to_string(),
            ref_mean_uw.map_or("-".into(), |x| fmt(x, 2)),
            fmt(est_mean_uw, 2),
            acc.map_or("-".into(), |e| fmt(pct(e), 2)),
            speedup.map_or("-".into(), |s| fmt(s, 0)),
        ]);
        rows_b.push(vec![
            name.clone(),
            fmt(pct(impact.avg.sub), 2),
            fmt(pct(impact.avg.gate), 2),
            fmt(pct(impact.avg.btbt), 2),
            fmt(pct(impact.avg_total), 2),
        ]);
        rows_c.push(vec![
            name,
            fmt(pct(impact.max.sub), 2),
            fmt(pct(impact.max.gate), 2),
            fmt(pct(impact.max.btbt), 2),
            fmt(pct(impact.max_total), 2),
        ]);
    }

    let headers_a = ["circuit", "gates", "reference[uW]", "estimated[uW]", "err%", "speedup(x)"];
    print_table("Fig 12a: estimated vs reference leakage", &headers_a, &rows_a);
    write_csv("fig12a_validation.csv", &headers_a, &rows_a);

    let headers_bc = ["circuit", "sub%", "gate%", "btbt%", "total%"];
    print_table("Fig 12b: average leakage variation due to loading", &headers_bc, &rows_b);
    write_csv("fig12b_avg_variation.csv", &headers_bc, &rows_b);
    print_table("Fig 12c: maximum leakage variation due to loading", &headers_bc, &rows_c);
    write_csv("fig12c_max_variation.csv", &headers_bc, &rows_c);
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoleak_cells::{CellType, CharacterizeOptions};
    use nanoleak_netlist::generate::iscas_like;
    use nanoleak_netlist::normalize::normalize;

    #[test]
    fn s838_standin_shows_paper_scale_loading_impact() {
        // The smallest benchmark end-to-end: average subthreshold
        // increase positive, gate/btbt negative, total a few percent
        // (paper Fig. 12b).
        let tech = Technology::d25();
        let lib = CellLibrary::shared_with_options(
            &tech,
            300.0,
            &CharacterizeOptions::coarse(&CellType::ALL),
        );
        let circuit = normalize(&iscas_like("s838").unwrap()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let patterns = Pattern::random_batch(&circuit, &mut rng, 6);
        let loaded = estimate_batch(&circuit, &lib, &patterns, EstimatorMode::Lut).unwrap();
        let unloaded = estimate_batch(&circuit, &lib, &patterns, EstimatorMode::NoLoading).unwrap();
        let pairs: Vec<_> = loaded.iter().zip(&unloaded).map(|(l, u)| (l.total, u.total)).collect();
        let impact = nanoleak_core::LoadingImpact::from_pairs(&pairs);
        assert!(impact.avg.sub > 0.0, "{:?}", impact.avg);
        assert!(impact.avg.gate < 0.0, "{:?}", impact.avg);
        assert!(impact.avg.btbt < 0.0, "{:?}", impact.avg);
        assert!(
            impact.avg_total > 0.0 && impact.avg_total < 0.12,
            "total {}%",
            impact.avg_total * 100.0
        );
    }
}
