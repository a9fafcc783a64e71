//! Transistor-level topologies of the standard cells.
//!
//! Cells are *added into* an existing [`MosNetlist`], with their pins
//! mapped onto caller-provided nodes. This composability is what lets
//! the characterization build the paper's Fig. 5 fixture (driver +
//! device-under-test + loading injections) and lets the reference
//! simulator instantiate whole circuits gate by gate.

use nanoleak_device::{Technology, Transistor};
use nanoleak_solver::{MosNetlist, NodeId};

use crate::cell_type::CellType;

/// Node bookkeeping for one instantiated cell.
#[derive(Debug, Clone)]
pub struct CellPins {
    /// Input pin nodes, in pin order.
    pub inputs: Vec<NodeId>,
    /// Output node.
    pub output: NodeId,
    /// Internal (stack) nodes, each with a suggested initial voltage
    /// for the Newton solve: 50 mV inside the rail its stack hangs
    /// from.
    pub internals: Vec<(NodeId, f64)>,
    /// Device index range of this cell inside the netlist.
    pub device_range: std::ops::Range<usize>,
}

/// Instantiates `cell` into `nl` with its pins bound to the given nodes.
///
/// Sizing follows standard-cell practice: series NMOS stacks of a
/// k-input NAND are drawn k-times wider (likewise PMOS stacks of NOR),
/// parallel devices stay at unit width. Input pin 0 always gates the
/// stack transistor nearest the output, which is what makes the paper's
/// NAND vectors `01` and `10` (Fig. 7) inequivalent.
///
/// # Panics
/// Panics if `inputs.len() != cell.num_inputs()`.
#[allow(clippy::too_many_arguments)] // mirrors the netlist fixture: rails + pins + naming
pub fn add_cell(
    nl: &mut MosNetlist,
    tech: &Technology,
    cell: CellType,
    inputs: &[NodeId],
    output: NodeId,
    vdd: NodeId,
    gnd: NodeId,
    prefix: &str,
) -> CellPins {
    assert_eq!(inputs.len(), cell.num_inputs(), "{cell}: wrong pin count");
    let dev_start = nl.device_count();
    let n_unit = Transistor::from_design(&tech.nmos);
    let p_unit = Transistor::from_design(&tech.pmos);
    let k = cell.num_inputs();
    let mut internals = Vec::new();

    match cell {
        CellType::Inv => {
            nl.add_mos(n_unit, output, inputs[0], gnd, gnd);
            nl.add_mos(p_unit, output, inputs[0], vdd, vdd);
        }
        CellType::Nand2 | CellType::Nand3 | CellType::Nand4 => {
            // Series NMOS chain: output -> x1 -> ... -> gnd, pin 0 on top.
            let n_stack = n_unit.scaled_width(k as f64);
            let mut upper = output;
            for (i, &pin) in inputs.iter().enumerate() {
                let lower = if i + 1 == k {
                    gnd
                } else {
                    let node = nl.add_node(&format!("{prefix}.x{}", i + 1));
                    internals.push((node, 0.05));
                    node
                };
                nl.add_mos(n_stack, upper, pin, lower, gnd);
                upper = lower;
            }
            // Parallel PMOS pull-up.
            for &pin in inputs {
                nl.add_mos(p_unit, output, pin, vdd, vdd);
            }
        }
        CellType::Nor2 | CellType::Nor3 | CellType::Nor4 => {
            // Series PMOS chain: vdd -> y1 -> ... -> output, pin 0 at
            // the bottom (nearest the output).
            let p_stack = p_unit.scaled_width(k as f64);
            let vdd_v = tech.vdd;
            let mut lower = output;
            for (i, &pin) in inputs.iter().enumerate() {
                let upper = if i + 1 == k {
                    vdd
                } else {
                    let node = nl.add_node(&format!("{prefix}.y{}", i + 1));
                    internals.push((node, vdd_v - 0.05));
                    node
                };
                nl.add_mos(p_stack, lower, pin, upper, vdd);
                lower = upper;
            }
            // Parallel NMOS pull-down.
            for &pin in inputs {
                nl.add_mos(n_unit, output, pin, gnd, gnd);
            }
        }
        CellType::Aoi21 => {
            // Y = !((A AND B) OR C).
            // PDN: series A-B pair (2x) in parallel with single C (1x).
            let n_stack = n_unit.scaled_width(2.0);
            let x = nl.add_node(&format!("{prefix}.x1"));
            internals.push((x, 0.05));
            nl.add_mos(n_stack, output, inputs[0], x, gnd);
            nl.add_mos(n_stack, x, inputs[1], gnd, gnd);
            nl.add_mos(n_unit, output, inputs[2], gnd, gnd);
            // PUN: (A parallel B) in series with C; the series path has
            // depth 2, so all pull-up devices are drawn 2x.
            let p_stack = p_unit.scaled_width(2.0);
            let y = nl.add_node(&format!("{prefix}.y1"));
            internals.push((y, tech.vdd - 0.05));
            nl.add_mos(p_stack, y, inputs[0], vdd, vdd);
            nl.add_mos(p_stack, y, inputs[1], vdd, vdd);
            nl.add_mos(p_stack, output, inputs[2], y, vdd);
        }
        CellType::Oai21 => {
            // Y = !((A OR B) AND C).
            // PDN: (A parallel B) in series with C, depth-2 path (2x).
            let n_stack = n_unit.scaled_width(2.0);
            let x = nl.add_node(&format!("{prefix}.x1"));
            internals.push((x, 0.05));
            nl.add_mos(n_stack, output, inputs[2], x, gnd);
            nl.add_mos(n_stack, x, inputs[0], gnd, gnd);
            nl.add_mos(n_stack, x, inputs[1], gnd, gnd);
            // PUN: series A-B pair (2x) in parallel with single C (1x).
            let p_stack = p_unit.scaled_width(2.0);
            let y = nl.add_node(&format!("{prefix}.y1"));
            internals.push((y, tech.vdd - 0.05));
            nl.add_mos(p_stack, output, inputs[0], y, vdd);
            nl.add_mos(p_stack, y, inputs[1], vdd, vdd);
            nl.add_mos(p_unit, output, inputs[2], vdd, vdd);
        }
    }

    CellPins {
        inputs: inputs.to_vec(),
        output,
        internals,
        device_range: dev_start..nl.device_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoleak_device::Technology;
    use nanoleak_solver::{solve_dc, NewtonOptions};

    fn fixture(cell: CellType, levels: &[bool]) -> (MosNetlist, CellPins, f64) {
        let tech = Technology::d25();
        let vdd_v = tech.vdd;
        let mut nl = MosNetlist::new();
        let vdd = nl.add_fixed_node("vdd", vdd_v);
        let gnd = nl.add_fixed_node("gnd", 0.0);
        let ins: Vec<NodeId> = levels
            .iter()
            .enumerate()
            .map(|(i, &b)| nl.add_fixed_node(&format!("in{i}"), if b { vdd_v } else { 0.0 }))
            .collect();
        let out = nl.add_node("out");
        let pins = add_cell(&mut nl, &tech, cell, &ins, out, vdd, gnd, "dut");
        (nl, pins, vdd_v)
    }

    fn solved_output(cell: CellType, levels: &[bool]) -> f64 {
        let (nl, pins, _) = fixture(cell, levels);
        let sol = solve_dc(&nl, 300.0, None, &NewtonOptions::default()).unwrap();
        sol.node_voltage(pins.output)
    }

    #[test]
    fn transistor_counts_match() {
        for cell in CellType::ALL {
            let levels = vec![false; cell.num_inputs()];
            let (nl, pins, _) = fixture(cell, &levels);
            assert_eq!(pins.device_range.len(), cell.num_transistors(), "{cell}");
            assert_eq!(nl.device_count(), cell.num_transistors(), "{cell}");
        }
    }

    #[test]
    fn internal_node_counts() {
        let (_, pins, _) = fixture(CellType::Nand4, &[false; 4]);
        assert_eq!(pins.internals.len(), 3);
        let (_, pins, _) = fixture(CellType::Inv, &[false]);
        assert!(pins.internals.is_empty());
    }

    #[test]
    fn every_cell_realizes_its_truth_table() {
        // Solve the transistor network at every input vector and check
        // the output lands at the correct rail (within leakage droop).
        for cell in CellType::ALL {
            for v in crate::InputVector::all(cell.num_inputs()) {
                let levels = v.to_bools();
                let expect = cell.eval_logic(&levels);
                let vout = solved_output(cell, &levels);
                if expect {
                    assert!(vout > 0.8, "{cell} {v}: Vout = {vout}");
                } else {
                    assert!(vout < 0.1, "{cell} {v}: Vout = {vout}");
                }
            }
        }
    }

    #[test]
    fn aoi_stack_effect_on_series_branch() {
        // AOI21 with A=B=0, C=0 (output 1): the A-B series pair shows
        // the stacking effect; the lone C pull-down does not benefit,
        // so it dominates the subthreshold leakage.
        let (nl, pins, _) = fixture(CellType::Aoi21, &[false, false, false]);
        let sol = solve_dc(&nl, 300.0, None, &NewtonOptions::default()).unwrap();
        let (x, _) = pins.internals[0];
        let vx = sol.node_voltage(x);
        assert!(vx > 0.01 && vx < 0.3, "AOI stack node = {vx} V");
    }

    #[test]
    fn oai_complement_structure() {
        // OAI21's pull-up series pair mirrors AOI21's pull-down pair.
        let (nl, pins, vdd) = fixture(CellType::Oai21, &[true, true, true]);
        let sol = solve_dc(&nl, 300.0, None, &NewtonOptions::default()).unwrap();
        let (y, _) = pins.internals.last().copied().unwrap();
        let vy = sol.node_voltage(y);
        assert!(vy < vdd - 0.01 && vy > vdd - 0.3, "OAI pull-up stack node = {vy} V");
    }

    #[test]
    #[should_panic(expected = "wrong pin count")]
    fn pin_count_validated() {
        let tech = Technology::d25();
        let mut nl = MosNetlist::new();
        let vdd = nl.add_fixed_node("vdd", 0.9);
        let gnd = nl.add_fixed_node("gnd", 0.0);
        let a = nl.add_fixed_node("a", 0.0);
        let out = nl.add_node("out");
        add_cell(&mut nl, &tech, CellType::Nand2, &[a], out, vdd, gnd, "x");
    }
}
