//! The static-CMOS standard-cell family.

use std::fmt;

use serde::{Deserialize, Serialize};

/// The cell types with transistor-level topologies in this library.
///
/// Every combinational function in the gate-level flow is normalized to
/// these primitives (plus inverters) by `nanoleak-netlist`, mirroring
/// how the paper's benchmarks map onto a leakage-characterized library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CellType {
    /// Inverter.
    Inv,
    /// 2-input NAND (series NMOS stack, parallel PMOS).
    Nand2,
    /// 3-input NAND.
    Nand3,
    /// 4-input NAND.
    Nand4,
    /// 2-input NOR (parallel NMOS, series PMOS stack).
    Nor2,
    /// 3-input NOR.
    Nor3,
    /// 4-input NOR.
    Nor4,
    /// AND-OR-INVERT: `Y = !((A AND B) OR C)` — series NMOS pair in
    /// parallel with a single pull-down, the dual on the pull-up.
    Aoi21,
    /// OR-AND-INVERT: `Y = !((A OR B) AND C)` — the AOI dual.
    Oai21,
}

impl CellType {
    /// All cell types, smallest first.
    pub const ALL: [CellType; 9] = [
        CellType::Inv,
        CellType::Nand2,
        CellType::Nand3,
        CellType::Nand4,
        CellType::Nor2,
        CellType::Nor3,
        CellType::Nor4,
        CellType::Aoi21,
        CellType::Oai21,
    ];

    /// Number of input pins.
    pub fn num_inputs(self) -> usize {
        match self {
            CellType::Inv => 1,
            CellType::Nand2 | CellType::Nor2 => 2,
            CellType::Nand3 | CellType::Nor3 | CellType::Aoi21 | CellType::Oai21 => 3,
            CellType::Nand4 | CellType::Nor4 => 4,
        }
    }

    /// Number of transistors in the topology.
    pub fn num_transistors(self) -> usize {
        2 * self.num_inputs()
    }

    /// Canonical lowercase name (`"nand2"`, ...).
    pub fn name(self) -> &'static str {
        match self {
            CellType::Inv => "inv",
            CellType::Nand2 => "nand2",
            CellType::Nand3 => "nand3",
            CellType::Nand4 => "nand4",
            CellType::Nor2 => "nor2",
            CellType::Nor3 => "nor3",
            CellType::Nor4 => "nor4",
            CellType::Aoi21 => "aoi21",
            CellType::Oai21 => "oai21",
        }
    }

    /// Parses a canonical name (case-insensitive).
    pub fn from_name(s: &str) -> Option<Self> {
        let lower = s.to_ascii_lowercase();
        Self::ALL.into_iter().find(|c| c.name() == lower)
    }

    /// The NAND cell with `n` inputs (2..=4).
    pub fn nand(n: usize) -> Option<Self> {
        match n {
            2 => Some(CellType::Nand2),
            3 => Some(CellType::Nand3),
            4 => Some(CellType::Nand4),
            _ => None,
        }
    }

    /// The NOR cell with `n` inputs (2..=4).
    pub fn nor(n: usize) -> Option<Self> {
        match n {
            2 => Some(CellType::Nor2),
            3 => Some(CellType::Nor3),
            4 => Some(CellType::Nor4),
            _ => None,
        }
    }

    /// How many leading input pins are logically interchangeable: the
    /// full fanin for the symmetric NAND/NOR families, the two pins of
    /// the inner AND/OR pair for AOI21/OAI21 (pin 2 is the lone
    /// branch), and trivially 1 for the inverter.
    ///
    /// Permuting nets within this prefix never changes the cell's
    /// boolean function — but it *does* change which characterized pin
    /// each net loads, which is exactly the leakage degree of freedom
    /// the loading model exposes (and `nanoleak-opt` exploits).
    pub fn commutative_prefix(self) -> usize {
        match self {
            CellType::Aoi21 | CellType::Oai21 => 2,
            other => other.num_inputs(),
        }
    }

    /// Boolean function of the cell.
    ///
    /// # Panics
    /// Panics if `inputs.len() != self.num_inputs()`.
    pub fn eval_logic(self, inputs: &[bool]) -> bool {
        assert_eq!(inputs.len(), self.num_inputs(), "{self}: wrong input count");
        match self {
            CellType::Inv => !inputs[0],
            CellType::Nand2 | CellType::Nand3 | CellType::Nand4 => !inputs.iter().all(|&b| b),
            CellType::Nor2 | CellType::Nor3 | CellType::Nor4 => !inputs.iter().any(|&b| b),
            CellType::Aoi21 => !((inputs[0] && inputs[1]) || inputs[2]),
            CellType::Oai21 => !((inputs[0] || inputs[1]) && inputs[2]),
        }
    }

    /// Number of distinct input vectors (`2^num_inputs`).
    pub fn num_vectors(self) -> usize {
        1 << self.num_inputs()
    }
}

impl fmt::Display for CellType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for c in CellType::ALL {
            assert_eq!(CellType::from_name(c.name()), Some(c));
            assert_eq!(CellType::from_name(&c.name().to_uppercase()), Some(c));
        }
        assert_eq!(CellType::from_name("xor2"), None);
    }

    #[test]
    fn input_counts() {
        assert_eq!(CellType::Inv.num_inputs(), 1);
        assert_eq!(CellType::Nand3.num_inputs(), 3);
        assert_eq!(CellType::Nor4.num_inputs(), 4);
        assert_eq!(CellType::Nor4.num_transistors(), 8);
    }

    #[test]
    fn nand_truth_table() {
        let c = CellType::Nand2;
        assert!(c.eval_logic(&[false, false]));
        assert!(c.eval_logic(&[false, true]));
        assert!(c.eval_logic(&[true, false]));
        assert!(!c.eval_logic(&[true, true]));
    }

    #[test]
    fn nor_truth_table() {
        let c = CellType::Nor2;
        assert!(c.eval_logic(&[false, false]));
        assert!(!c.eval_logic(&[false, true]));
        assert!(!c.eval_logic(&[true, false]));
        assert!(!c.eval_logic(&[true, true]));
    }

    #[test]
    fn inverter_truth_table() {
        assert!(CellType::Inv.eval_logic(&[false]));
        assert!(!CellType::Inv.eval_logic(&[true]));
    }

    #[test]
    fn commutative_prefix_is_symmetric() {
        // The claimed prefix really is symmetric: permuting any two
        // pins inside it never changes the boolean function.
        for c in CellType::ALL {
            let k = c.num_inputs();
            let p = c.commutative_prefix();
            assert!(p >= 1 && p <= k, "{c}");
            for bits in 0..c.num_vectors() {
                let ins: Vec<bool> = (0..k).map(|i| bits >> i & 1 == 1).collect();
                let base = c.eval_logic(&ins);
                for i in 0..p {
                    for j in i + 1..p {
                        let mut swapped = ins.clone();
                        swapped.swap(i, j);
                        assert_eq!(c.eval_logic(&swapped), base, "{c} pins {i}<->{j}");
                    }
                }
            }
        }
        // AOI/OAI pin 2 is genuinely asymmetric.
        assert_eq!(CellType::Aoi21.commutative_prefix(), 2);
        assert!(
            CellType::Aoi21.eval_logic(&[false, false, true])
                != CellType::Aoi21.eval_logic(&[false, true, false])
        );
    }

    #[test]
    fn builders_by_arity() {
        assert_eq!(CellType::nand(2), Some(CellType::Nand2));
        assert_eq!(CellType::nand(5), None);
        assert_eq!(CellType::nor(4), Some(CellType::Nor4));
        assert_eq!(CellType::nor(1), None);
    }

    #[test]
    #[should_panic(expected = "wrong input count")]
    fn wrong_arity_panics() {
        CellType::Nand2.eval_logic(&[true]);
    }
}
