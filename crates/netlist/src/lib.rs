//! # nanoleak-netlist
//!
//! Gate-level circuits for the *nanoleak* reproduction of the DATE 2005
//! loading-effect paper: ISCAS89 `.bench` parsing, normalization onto
//! the characterized cell family, logic simulation, and generators for
//! the paper's benchmark suite.
//!
//! * [`raw`] / [`bench_format`] / [`yosys`] — arbitrary-fanin boolean
//!   networks, the `.bench` reader/writer, and the Yosys JSON importer;
//! * [`normalize`](crate::normalize::normalize) — technology mapping to
//!   INV/NAND/NOR cells, with the leakage-equivalent DFF expansion;
//! * [`circuit`] — the validated, topologically-sorted cell-level
//!   graph with per-net driver/fanout queries (what the estimator
//!   walks);
//! * [`logic`] — pattern simulation;
//! * [`generate`] — random logic, ISCAS89-sized synthetic stand-ins,
//!   an array multiplier and an ALU (the paper's `mult88`/`alu88`).
//!
//! ## Example
//!
//! ```
//! use nanoleak_netlist::{normalize::normalize, bench_format::parse_bench, logic::simulate};
//!
//! let raw = parse_bench("half_adder", "\
//! INPUT(a)
//! INPUT(b)
//! OUTPUT(s)
//! OUTPUT(c)
//! s = XOR(a, b)
//! c = AND(a, b)
//! ")?;
//! let circuit = normalize(&raw)?;
//! let values = simulate(&circuit, &[true, true], &[]);
//! assert!(!values[circuit.find_net("s").unwrap().0]);
//! assert!(values[circuit.find_net("c").unwrap().0]);
//! # Ok::<(), nanoleak_netlist::CircuitError>(())
//! ```

pub mod bench_format;
pub mod canonical;
pub mod circuit;
pub mod error;
pub mod generate;
pub mod logic;
pub mod normalize;
pub mod raw;
pub mod stats;
pub mod yosys;

pub use canonical::{canonicalize, CanonReport};
pub use circuit::{Circuit, CircuitBuilder, Driver, Gate, GateId, NetId, NetLoad};
pub use error::CircuitError;
pub use logic::{Pattern, PatternBlock, LANES};
pub use raw::{RawCircuit, RawGate, RawOp, SigId};
pub use stats::CircuitStats;
pub use yosys::parse_yosys_json;

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::generate::{random_circuit, RandomCircuitSpec};
    use proptest::prelude::*;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Any random circuit validates, normalizes, and its topological
        /// order puts every gate after its drivers.
        #[test]
        fn random_circuits_normalize_and_sort(
            seed in any::<u64>(),
            gates in 10usize..150,
            inputs in 2usize..12,
            dffs in 0usize..8,
        ) {
            let spec = RandomCircuitSpec::new("prop", inputs, 2, gates, dffs, seed);
            let raw = random_circuit(&spec);
            raw.validate().unwrap();
            let c = normalize::normalize(&raw).unwrap();
            // Topological validity.
            let mut seen = vec![false; c.gate_count()];
            for &gid in c.topo_order() {
                for &inp in &c.gate(gid).inputs {
                    if let Driver::Gate(src) = c.net_driver(inp) {
                        prop_assert!(seen[src.0], "gate order violation");
                    }
                }
                seen[gid.0] = true;
            }
            prop_assert!(seen.iter().all(|&s| s));
        }

        /// `.bench` round trip preserves structure and function for
        /// random circuits.
        #[test]
        fn bench_round_trip_preserves_function(seed in any::<u64>()) {
            let spec = RandomCircuitSpec::new("rt", 5, 3, 40, 2, seed);
            let raw = random_circuit(&spec);
            let text = bench_format::write_bench(&raw);
            let back = bench_format::parse_bench("rt", &text).unwrap();
            let c1 = normalize::normalize(&raw).unwrap();
            let c2 = normalize::normalize(&back).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xabcd);
            for _ in 0..8 {
                let p = Pattern::random(&c1, &mut rng);
                let v1 = logic::simulate(&c1, &p.pi, &p.states);
                let v2 = logic::simulate(&c2, &p.pi, &p.states);
                for (k, &o) in raw.outputs.iter().enumerate() {
                    let name = raw.signal_name(o);
                    let n1 = c1.find_net(name).unwrap();
                    let n2 = c2.find_net(name).unwrap();
                    prop_assert_eq!(v1[n1.0], v2[n2.0], "output {} ({})", k, name);
                }
            }
        }
    }
}
