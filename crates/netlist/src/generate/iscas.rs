//! ISCAS89-sized synthetic benchmarks.
//!
//! The paper evaluates on six ISCAS89 circuits (its Fig. 12 labels two
//! of them with the typos "s5372" and "s9378"; the published suite has
//! s5378 and s9234). The original netlists are not redistributable
//! inside this repository, so we generate seeded stand-ins matching the
//! published size statistics (inputs/outputs/DFF/gate counts) and a
//! synthesized-control-logic operator mix. Real `.bench` files drop
//! into [`crate::bench_format::parse_bench`] unchanged if available.

use nanoleak_cells::fnv1a;

use crate::generate::random::{random_circuit, RandomCircuitSpec};
use crate::raw::RawCircuit;

/// Published size statistics of one ISCAS89 circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IscasProfile {
    /// Canonical name.
    pub name: &'static str,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// D flip-flops.
    pub dffs: usize,
    /// Combinational gates.
    pub gates: usize,
}

/// The six profiles used in the paper's Fig. 12, canonical names.
pub const ISCAS89_PROFILES: [IscasProfile; 6] = [
    IscasProfile { name: "s838", inputs: 34, outputs: 1, dffs: 32, gates: 446 },
    IscasProfile { name: "s1196", inputs: 14, outputs: 14, dffs: 18, gates: 529 },
    IscasProfile { name: "s1423", inputs: 17, outputs: 5, dffs: 74, gates: 657 },
    IscasProfile { name: "s5378", inputs: 35, outputs: 49, dffs: 179, gates: 2779 },
    IscasProfile { name: "s9234", inputs: 36, outputs: 39, dffs: 211, gates: 5597 },
    IscasProfile { name: "s13207", inputs: 62, outputs: 152, dffs: 638, gates: 7951 },
];

/// Generates the synthetic stand-in for a named ISCAS89 circuit
/// (`"s838"`, `"s1196"`, `"s1423"`, `"s5378"`, `"s9234"`, `"s13207"`;
/// the paper's typo'd labels `"s5372"` and `"s9378"` are accepted as
/// aliases).
pub fn iscas_like(name: &str) -> Option<RawCircuit> {
    let canonical = match name {
        "s5372" => "s5378",
        "s9378" => "s9234",
        other => other,
    };
    let profile = ISCAS89_PROFILES.iter().find(|p| p.name == canonical)?;
    Some(from_profile(profile))
}

/// Generates the stand-in for an explicit profile. The seed is derived
/// from the name so every call reproduces the same circuit.
pub fn from_profile(profile: &IscasProfile) -> RawCircuit {
    let seed = fnv1a(profile.name.bytes());
    let spec = RandomCircuitSpec::new(
        profile.name,
        profile.inputs,
        profile.outputs,
        profile.gates,
        profile.dffs,
        seed,
    );
    random_circuit(&spec)
}

/// All six stand-ins, in the paper's Fig. 12 order.
pub fn iscas_suite() -> Vec<RawCircuit> {
    ISCAS89_PROFILES.iter().map(from_profile).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize;

    #[test]
    fn names_and_aliases_resolve() {
        assert!(iscas_like("s838").is_some());
        assert!(iscas_like("s5372").is_some(), "paper typo alias");
        assert!(iscas_like("s9378").is_some(), "paper typo alias");
        assert!(iscas_like("c17").is_none());
    }

    #[test]
    fn sizes_match_published_statistics() {
        for p in &ISCAS89_PROFILES {
            let raw = from_profile(p);
            assert_eq!(raw.inputs.len(), p.inputs, "{}", p.name);
            assert_eq!(raw.outputs.len(), p.outputs, "{}", p.name);
            assert_eq!(raw.dffs.len(), p.dffs, "{}", p.name);
            assert_eq!(raw.gate_count(), p.gates, "{}", p.name);
        }
    }

    #[test]
    fn small_ones_normalize_cleanly() {
        for name in ["s838", "s1196", "s1423"] {
            let raw = iscas_like(name).unwrap();
            let c = normalize(&raw).unwrap();
            assert!(c.gate_count() >= raw.gate_count(), "{name}");
        }
    }

    #[test]
    fn regeneration_is_identical() {
        let a = iscas_like("s1196").unwrap();
        let b = iscas_like("s1196").unwrap();
        assert_eq!(a, b);
    }
}
