//! Two-gate driver probes: how far the reference's loading of one
//! inverter exceeds the Fig. 13 estimate, by the class of the gate
//! that drives it.
//!
//! One driver, its inputs fed through inverters, drives one inverter,
//! with the driver's output at the level a series stack holds (a NAND
//! low, a NOR high, an INV low). The load's pin is the net's only load
//! and its output drives nothing, so the `Lut` estimate of the load is
//! its nominal table value on any grid. The reference solves the
//! driver's stack nodes, and a stacked driver leaves the net further
//! off its rail, so the load's subthreshold leakage grows with the
//! driver's stack depth and with temperature. The expected figures are
//! the measured ones; the probes hold every stacked-driver class of the
//! reference's stack solve to them.

use nanoleak_cells::{CellLibrary, CellType, CharacterizeOptions};
use nanoleak_core::{estimate, reference_leakage, EstimatorMode, ReferenceOptions};
use nanoleak_device::Technology;
use nanoleak_netlist::{Circuit, CircuitBuilder, Driver, Pattern};

/// Per driver: the load's subthreshold excess of the reference over
/// `Lut` \[%\], and the driven net's offset from its rail \[mV\], each
/// at 300 K and at 400 K.
const PROBES: [(CellType, [f64; 2], [f64; 2]); 5] = [
    (CellType::Inv, [0.05, 1.11], [1.75, 11.26]),
    (CellType::Nand2, [6.02, 18.50], [4.05, 22.98]),
    (CellType::Nand4, [27.17, 64.84], [11.35, 48.96]),
    (CellType::Nor2, [1.73, 9.89], [1.98, 13.06]),
    (CellType::Nor3, [3.82, 19.53], [2.88, 19.41]),
];

const TEMPS: [f64; 2] = [300.0, 400.0];

/// Whether `driver`'s series stack holds its output high (a NOR) rather
/// than low (a NAND, or an INV).
fn holds_high(driver: CellType) -> bool {
    matches!(driver, CellType::Nor2 | CellType::Nor3)
}

/// The probe circuit for `driver` and the pattern that holds its output
/// at the stacked level.
fn probe(driver: CellType) -> (Circuit, Pattern) {
    let mut b = CircuitBuilder::new("probe");
    let ins: Vec<_> = (0..driver.num_inputs())
        .map(|i| {
            let a = b.add_input(&format!("a{i}"));
            b.add_gate(CellType::Inv, &[a], &format!("i{i}"))
        })
        .collect();
    let net = b.add_gate(driver, &ins, "net");
    let y = b.add_gate(CellType::Inv, &[net], "y");
    b.mark_output(y);
    // The inverters flip the primary inputs: a NOR's output is high
    // when they are high, a NAND's or an INV's low when they are low.
    let pattern = Pattern { pi: vec![holds_high(driver); driver.num_inputs()], states: vec![] };
    (b.build().unwrap(), pattern)
}

#[test]
fn stacked_drivers_load_the_net_beyond_the_estimate() {
    let tech = Technology::d25();
    let cells: Vec<CellType> = PROBES.iter().map(|p| p.0).collect();
    for (t, &temp) in TEMPS.iter().enumerate() {
        let lib =
            CellLibrary::characterize(&tech, temp, &CharacterizeOptions::coarse(&cells)).unwrap();
        for &(driver, excess, offset) in &PROBES {
            let (circuit, pattern) = probe(driver);
            let y = circuit.find_net("y").unwrap();
            let Driver::Gate(load) = circuit.net_driver(y) else { panic!("y has a gate driver") };
            let net = circuit.find_net("net").unwrap();

            let lut = estimate(&circuit, &lib, &pattern, EstimatorMode::Lut).unwrap();
            let reference =
                reference_leakage(&circuit, &tech, temp, &pattern, &ReferenceOptions::default())
                    .unwrap();
            let got =
                100.0 * (reference.leakage.per_gate[load.0].sub / lut.per_gate[load.0].sub - 1.0);
            assert!(
                (got - excess[t]).abs() <= 0.5,
                "{driver} -> INV at {temp} K: load sub {got:+.2}% over Lut, expected \
                 {:+.2}% ± 0.5 pp",
                excess[t]
            );

            let rail = if holds_high(driver) { tech.vdd } else { 0.0 };
            let got_mv = 1e3 * (reference.net_voltages[net.0] - rail).abs();
            assert!(
                (got_mv - offset[t]).abs() <= 0.05 * offset[t],
                "{driver} -> INV at {temp} K: the driven net sits {got_mv:.2} mV off its \
                 rail, expected {:.2} mV ± 5%",
                offset[t]
            );
        }
    }
}
