//! # nanoleak-variation
//!
//! Monte-Carlo process-variation engine for the *nanoleak*
//! reproduction of the DATE 2005 loading-effect paper (Section 5.3,
//! Figs. 10–11).
//!
//! Random variation of channel length, oxide thickness, threshold
//! voltage and supply voltage is applied to every transistor
//! (inter-die + intra-die split), and the paired loaded/unloaded
//! inverter fixtures are solved at transistor level. Because geometry
//! deltas re-derive *all* electrical parameters
//! ([`nanoleak_device::DeviceDesign::derive`]), subthreshold leakage
//! reacts far more violently than the other components — which is why
//! loading, acting chiefly on subthreshold leakage, widens the total
//! leakage distribution (the paper's >40% std increase at
//! sigma_Vt = 50 mV).
//!
//! Two workloads share the sampling discipline:
//!
//! * [`run_inverter_mc`] — the paper's paired inverter fixture, solved
//!   at transistor level with full per-device intra-die resolution
//!   (Figs. 10–11);
//! * [`run_circuit_mc`] — the same question at circuit scale: each
//!   sample derives a perturbed [`Technology`](nanoleak_device::Technology)
//!   (die-wide draw), obtains its library from a pluggable
//!   [`DeltaProvider`], and estimates the whole circuit with and
//!   without loading on a compiled plan. One driver serves both modes:
//!   [`SolverProvider`] re-solves every die (bit-exact),
//!   [`SensDeltaProvider`] derives dies from nominal sensitivities
//!   (fast). Bit-identical for any thread count or shard split (see
//!   [`circuit`]).
//!
//! ## Example
//!
//! ```no_run
//! use nanoleak_device::Technology;
//! use nanoleak_variation::{run_inverter_mc, McConfig};
//!
//! let tech = Technology::d25();
//! let result = run_inverter_mc(&tech, &McConfig { samples: 1000, ..Default::default() })?;
//! println!("loading shifts the leakage mean by {:.1}% and the spread by {:.1}%",
//!          100.0 * result.mean_shift(), 100.0 * result.std_shift());
//! # Ok::<(), nanoleak_solver::SolverError>(())
//! ```

pub mod circuit;
pub mod mc;
pub mod sigmas;
pub mod stats;

pub use circuit::{
    char_opts_for, run_circuit_mc, run_circuit_mc_range, summarize, CircuitMcConfig,
    CircuitMcResult, DeltaProvider, DieDiag, FastMcDiag, FastMcReport, McError, McSummary,
    SensDeltaProvider, SeriesSummary, SolverProvider, DEFAULT_HIST_BINS, TABLE_AMORTIZE_VECTORS,
};
pub use mc::{run_inverter_mc, series_of, stats_of, McConfig, McResult, McSample, Series};
pub use sigmas::{gaussian, VariationSigmas};
pub use stats::{Histogram, Stats};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Sampled perturbations stay within ~6 sigma and never produce
        /// non-physical derived devices.
        #[test]
        fn perturbations_stay_physical(seed in any::<u64>()) {
            use nanoleak_device::{DeviceDesign, MosKind};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let s = VariationSigmas::paper_nominal();
            let base = DeviceDesign::nano25(MosKind::Nmos);
            for _ in 0..16 {
                let p = s.sample_inter(&mut rng).combined(&s.sample_intra(&mut rng));
                let d = p.apply(&base);
                let params = d.derive();
                prop_assert!(params.vth0.is_finite());
                prop_assert!(params.eta > 0.0 && params.eta < 1.0);
                prop_assert!(d.geometry.l > 0.0 && d.geometry.tox > 0.0);
            }
        }

        /// Histogram bookkeeping never loses samples.
        #[test]
        fn histogram_conserves_mass(xs in proptest::collection::vec(-10.0f64..10.0, 1..200)) {
            let h = Histogram::of(&xs, -5.0, 5.0, 16);
            prop_assert_eq!(h.counts.iter().sum::<usize>() + h.outliers, xs.len());
        }
    }

    /// The workload's determinism contract, property-tested: for any
    /// seed, any thread count, and any shard split, the circuit MC
    /// reproduces the same sample set and summary bit-for-bit.
    mod circuit_determinism {
        use super::*;
        use crate::circuit::{
            char_opts_for, run_circuit_mc, run_circuit_mc_range, summarize, CircuitMcConfig,
            SolverProvider,
        };
        use nanoleak_cells::CellType;
        use nanoleak_device::Technology;
        use nanoleak_netlist::{Circuit, CircuitBuilder};

        fn chain() -> Circuit {
            let mut b = CircuitBuilder::new("prop-chain");
            let a = b.add_input("a");
            let m = b.add_gate(CellType::Inv, &[a], "m");
            let y = b.add_gate(CellType::Inv, &[m], "y");
            b.mark_output(y);
            b.build().unwrap()
        }

        fn config(seed: u64) -> CircuitMcConfig {
            CircuitMcConfig {
                samples: 3,
                seed,
                vectors: 1,
                char_opts: char_opts_for(&chain(), true),
                ..Default::default()
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]

            /// Stats are invariant across thread counts and shard
            /// splits, and the same seed reproduces the same samples.
            #[test]
            fn threads_and_shards_never_move_a_bit(
                seed in any::<u64>(),
                threads in 1usize..5,
                split in 1usize..3,
            ) {
                let circuit = chain();
                let tech = Technology::d25();
                let reference = run_circuit_mc(
                    &circuit,
                    &tech,
                    &SolverProvider,
                    &CircuitMcConfig { threads: 1, ..config(seed) },
                )
                .unwrap();
                // Thread-count invariance.
                let multi = run_circuit_mc(
                    &circuit,
                    &tech,
                    &SolverProvider,
                    &CircuitMcConfig { threads, ..config(seed) },
                )
                .unwrap();
                prop_assert_eq!(&multi.samples, &reference.samples);
                // Shard invariance: split at `split`, concatenate.
                let cfg = config(seed);
                let (mut sharded, _) =
                    run_circuit_mc_range(&circuit, &tech, &SolverProvider, &cfg, 0, split)
                        .unwrap();
                sharded.extend(
                    run_circuit_mc_range(&circuit, &tech, &SolverProvider, &cfg, split, 3 - split)
                        .unwrap()
                        .0,
                );
                prop_assert_eq!(&sharded, &reference.samples);
                prop_assert_eq!(summarize(&sharded, 8), reference.summary(8));
                // Same seed, same set (fresh run, fresh provider).
                let again =
                    run_circuit_mc(&circuit, &tech, &SolverProvider, &config(seed)).unwrap();
                prop_assert_eq!(again.samples, reference.samples);
            }
        }
    }

    /// The delta-from-nominal fast path holds the same determinism
    /// contract as the exact path: for any seed, fast samples are
    /// bit-identical across thread counts, shard splits, and lane
    /// settings (scalar vs 64-lane block kernel) — and they track the
    /// exact path within the linearization tolerance.
    mod fast_determinism {
        use super::*;
        use crate::circuit::{
            char_opts_for, run_circuit_mc_range, CircuitMcConfig, SensDeltaProvider, SolverProvider,
        };
        use nanoleak_cells::{characterize_with_sensitivity, CellType, DEFAULT_DELTA_TOL};
        use nanoleak_core::LANES;
        use nanoleak_device::Technology;
        use nanoleak_netlist::{Circuit, CircuitBuilder};
        use std::sync::{Arc, OnceLock};

        fn chain() -> Circuit {
            let mut b = CircuitBuilder::new("fast-prop-chain");
            let a = b.add_input("a");
            let m = b.add_gate(CellType::Inv, &[a], "m");
            let y = b.add_gate(CellType::Inv, &[m], "y");
            b.mark_output(y);
            b.build().unwrap()
        }

        fn config(seed: u64) -> CircuitMcConfig {
            CircuitMcConfig {
                samples: 3,
                seed,
                vectors: 2,
                char_opts: char_opts_for(&chain(), true),
                ..Default::default()
            }
        }

        /// One traced nominal characterization shared by every case
        /// (the sensitivities depend only on the nominal request, not
        /// on the per-case seed).
        fn provider() -> &'static SensDeltaProvider<'static> {
            static PROVIDER: OnceLock<SensDeltaProvider<'static>> = OnceLock::new();
            PROVIDER.get_or_init(|| {
                let cfg = config(0);
                let nominal_tech = cfg.op.tech(&Technology::d25());
                let (lib, sens) =
                    characterize_with_sensitivity(&nominal_tech, cfg.op.temp, &cfg.char_opts)
                        .unwrap();
                SensDeltaProvider {
                    nominal: Arc::new(lib),
                    sens: Arc::new(sens),
                    tol: DEFAULT_DELTA_TOL,
                    fallback: &SolverProvider,
                }
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(3))]

            #[test]
            fn fast_samples_never_move_a_bit(
                seed in any::<u64>(),
                threads in 1usize..4,
                split in 1usize..3,
            ) {
                let circuit = chain();
                let tech = Technology::d25();
                let cfg = config(seed);
                let p = provider();
                let scalar = CircuitMcConfig { threads: 1, lanes: 1, ..cfg.clone() };
                let (reference, ref_diag) =
                    run_circuit_mc_range(&circuit, &tech, p, &scalar, 0, 3).unwrap();
                // Thread-count and lane invariance (1 = per-pattern
                // scalar path, LANES = 64-lane block kernel).
                for lanes in [1usize, LANES] {
                    let cfg = CircuitMcConfig { threads, lanes, ..cfg.clone() };
                    let (again, diag) =
                        run_circuit_mc_range(&circuit, &tech, p, &cfg, 0, 3).unwrap();
                    prop_assert_eq!(&again, &reference, "lanes = {}", lanes);
                    prop_assert_eq!(diag, ref_diag);
                }
                // Shard invariance: split, concatenate, merge diags.
                let (mut sharded, mut diag) =
                    run_circuit_mc_range(&circuit, &tech, p, &cfg, 0, split).unwrap();
                let (rest, rest_diag) =
                    run_circuit_mc_range(&circuit, &tech, p, &cfg, split, 3 - split).unwrap();
                sharded.extend(rest);
                diag.merge(&rest_diag);
                prop_assert_eq!(&sharded, &reference);
                prop_assert_eq!(diag, ref_diag);
                // Every die derived (paper-nominal draws sit well
                // inside the linearization tolerance)...
                prop_assert_eq!(ref_diag.dies_derived, 3, "{:?}", ref_diag);
                // ...and the exact path — untouched by the fast-path
                // refactor — stays within tolerance of it.
                let (exact, _) =
                    run_circuit_mc_range(&circuit, &tech, &SolverProvider, &cfg, 0, 3).unwrap();
                for (f, e) in reference.iter().zip(&exact) {
                    let (ft, et) = (f.loaded.total(), e.loaded.total());
                    prop_assert!(((ft - et) / et).abs() < 0.25, "fast {ft} vs exact {et}");
                }
            }
        }
    }

    /// The inverter fixture holds the same contract after its port to
    /// the shared exec/OperatingPoint plumbing.
    mod fixture_determinism {
        use super::*;
        use nanoleak_device::Technology;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]

            #[test]
            fn inverter_mc_reproduces_across_threads(seed in any::<u64>()) {
                let tech = Technology::d25();
                let base = McConfig { samples: 6, seed, threads: 1, ..Default::default() };
                let one = run_inverter_mc(&tech, &base).unwrap();
                let multi = run_inverter_mc(
                    &tech,
                    &McConfig { threads: 3, ..base },
                )
                .unwrap();
                prop_assert_eq!(one.samples, multi.samples);
            }
        }
    }
}
