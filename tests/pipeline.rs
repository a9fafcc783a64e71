//! End-to-end integration: generate -> parse -> normalize ->
//! characterize -> estimate -> reference, across all crates.

use nanoleak::prelude::*;
use nanoleak_netlist::generate::{alu, iscas_like, multiplier, random_circuit, RandomCircuitSpec};
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
fn bench_file_to_leakage_report() {
    // A hand-written .bench file through the whole pipeline.
    let text = "\
# toy sequential design
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
q = DFF(n2)
n1 = NAND(a, b)
n2 = XOR(n1, c)
n3 = AND(n2, q)
y = NOT(n3)
";
    let raw = parse_bench("toy", text).expect("parses");
    let circuit = normalize(&raw).expect("normalizes");
    assert_eq!(circuit.dff_count(), 1);

    let lib = library();
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let pattern = Pattern::random(&circuit, &mut rng);
    let report = estimate(&circuit, &lib, &pattern, EstimatorMode::Lut).expect("estimates");
    assert!(report.total.total() > 0.0);
    assert_eq!(report.per_gate.len(), circuit.gate_count());
}

#[test]
fn estimator_matches_reference_on_random_logic() {
    let tech = Technology::d25();
    let lib = library();
    let raw = random_circuit(&RandomCircuitSpec::new("it", 8, 4, 60, 3, 99));
    let circuit = normalize(&raw).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    for _ in 0..3 {
        let pattern = Pattern::random(&circuit, &mut rng);
        let est = estimate(&circuit, &lib, &pattern, EstimatorMode::Lut).unwrap();
        let rf = reference_leakage(&circuit, &tech, 300.0, &pattern, &ReferenceOptions::default())
            .unwrap();
        let acc = accuracy(&est, &rf.leakage);
        assert!(
            acc.total_rel_err.abs() < 0.04,
            "total err {}% on pattern {:?}",
            acc.total_rel_err * 100.0,
            pattern
        );
    }
}

#[test]
fn loading_statistics_have_paper_signs_on_multiplier() {
    // mult88's heavy fanout structure: subthreshold up, gate/btbt down,
    // total up a few percent (paper Fig. 12b shape).
    let lib = library();
    let circuit = normalize(&multiplier(4)).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let patterns = Pattern::random_batch(&circuit, &mut rng, 8);
    let loaded = estimate_batch(&circuit, &lib, &patterns, EstimatorMode::Lut).unwrap();
    let unloaded = estimate_batch(&circuit, &lib, &patterns, EstimatorMode::NoLoading).unwrap();
    let pairs: Vec<_> = loaded.iter().zip(&unloaded).map(|(l, u)| (l.total, u.total)).collect();
    let impact = LoadingImpact::from_pairs(&pairs);
    assert!(impact.avg.sub > 0.0, "{:?}", impact.avg);
    assert!(impact.avg.gate < 0.0, "{:?}", impact.avg);
    assert!(impact.avg.btbt < 0.0, "{:?}", impact.avg);
    assert!(impact.avg_total > 0.0 && impact.avg_total < 0.12, "{}", impact.avg_total);
}

#[test]
fn per_gate_loading_moves_in_both_directions() {
    // Paper Section 6: in a large circuit some gates' leakage rises and
    // some falls — the cancellation that keeps the net effect ~5%.
    let lib = library();
    let circuit = normalize(&alu(4)).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let pattern = Pattern::random(&circuit, &mut rng);
    let loaded = estimate(&circuit, &lib, &pattern, EstimatorMode::Lut).unwrap();
    let unloaded = estimate(&circuit, &lib, &pattern, EstimatorMode::NoLoading).unwrap();
    let mut ups = 0;
    let mut downs = 0;
    for (l, u) in loaded.per_gate.iter().zip(&unloaded.per_gate) {
        let d = l.total() - u.total();
        if d > 1e-12 {
            ups += 1;
        } else if d < -1e-12 {
            downs += 1;
        }
    }
    assert!(ups > 0, "some gates must leak more");
    assert!(downs > 0, "some gates must leak less");
}

#[test]
fn iscas_standin_runs_through_cli_path() {
    // The smallest ISCAS stand-in through the estimator, twice, with
    // identical results (determinism across the full stack).
    let lib = library();
    let circuit = normalize(&iscas_like("s838").unwrap()).unwrap();
    let mut rng1 = rand::rngs::StdRng::seed_from_u64(23);
    let mut rng2 = rand::rngs::StdRng::seed_from_u64(23);
    let p1 = Pattern::random(&circuit, &mut rng1);
    let p2 = Pattern::random(&circuit, &mut rng2);
    let a = estimate(&circuit, &lib, &p1, EstimatorMode::Lut).unwrap();
    let b = estimate(&circuit, &lib, &p2, EstimatorMode::Lut).unwrap();
    assert_eq!(a, b);
}

#[test]
fn direct_solve_mode_refines_lut_mode() {
    // DirectSolve removes interpolation error; both stay within a
    // percent of each other and of the reference on a fanout web.
    let tech = Technology::d25();
    let lib = library();
    let mut b = CircuitBuilder::new("web");
    let a = b.add_input("a");
    let mid = b.add_gate(CellType::Nand2, &[a, a], "mid");
    for i in 0..5 {
        let y = b.add_gate(CellType::Inv, &[mid], &format!("y{i}"));
        b.mark_output(y);
    }
    let circuit = b.build().unwrap();
    let pattern = Pattern { pi: vec![true], states: vec![] };
    let lut = estimate(&circuit, &lib, &pattern, EstimatorMode::Lut).unwrap();
    let direct = estimate(&circuit, &lib, &pattern, EstimatorMode::DirectSolve).unwrap();
    let rf =
        reference_leakage(&circuit, &tech, 300.0, &pattern, &ReferenceOptions::default()).unwrap();
    let lut_vs_direct = (lut.total.total() - direct.total.total()).abs() / direct.total.total();
    assert!(lut_vs_direct < 0.01, "lut vs direct {}", lut_vs_direct);
    let direct_err = accuracy(&direct, &rf.leakage).total_rel_err.abs();
    assert!(direct_err < 0.03, "direct vs reference {}", direct_err);
}
