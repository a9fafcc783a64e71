//! Canonicalization rewrite rules for mapped circuits.
//!
//! [`canonicalize`] runs on mapped [`Circuit`]s: double-inverter
//! elimination, a dead-gate sweep, and ascending-net sorting of each
//! gate's commutative pin prefix. Two netlists that differ only in
//! such non-structural noise canonicalize to circuits with equal
//! [`Circuit::structural_key`]s, which is what lets the engine's plan
//! cache share one `CompiledEstimator` compile between them.
//!
//! The pass is not leakage-preserving — removing an inverter pair
//! removes real transistors, and pin order *is* the loading-effect
//! degree of freedom — so `nanoleak-opt` applies it score-gated (keep
//! the rewrite only if the estimator agrees it helps). It **is**
//! function-preserving: primary outputs and DFF next-state functions
//! are unchanged (positionally; net names of eliminated gates
//! disappear).
//!
//! The DFF leakage expansion is protected: master- and slave-stage
//! inverters model flip-flop hardware and are never eliminated even
//! though the master's output is unloaded.

use nanoleak_cells::CellType;

use crate::circuit::{Circuit, CircuitBuilder, NetId};

/// What [`canonicalize`] did, for observability and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CanonReport {
    /// Gate count going in.
    pub gates_before: usize,
    /// Gate count coming out.
    pub gates_after: usize,
    /// `Inv(Inv(x))` pairs collapsed to `x` (counts second inverters
    /// aliased away; the first dies too unless shared).
    pub inverter_pairs_removed: usize,
    /// Gates dropped because nothing reachable consumes them.
    pub dead_gates_removed: usize,
    /// Gates whose commutative pin prefix was reordered.
    pub commutative_pins_sorted: usize,
}

/// Canonicalizes a mapped circuit: collapses `Inv(Inv(x))`, sweeps
/// dead gates, and sorts each gate's commutative pin prefix by
/// ascending net id. Function-preserving (see module docs), *not*
/// leakage-preserving.
pub fn canonicalize(c: &Circuit) -> (Circuit, CanonReport) {
    let nets = c.net_count();
    let mut report = CanonReport { gates_before: c.gate_count(), ..CanonReport::default() };

    // DFF hardware is never rewritten: slave inverters read state
    // inputs, master inverters load D nets.
    let mut is_state = vec![false; nets];
    for &s in c.state_inputs() {
        is_state[s.0] = true;
    }
    let mut is_dff_d = vec![false; nets];
    for &d in c.dff_d_nets() {
        is_dff_d[d.0] = true;
    }
    let protected = |g: &crate::circuit::Gate| {
        g.cell == CellType::Inv && (is_state[g.inputs[0].0] || is_dff_d[g.inputs[0].0])
    };

    // Pass 1 — double-inverter elimination. `repl[n]` is the net that
    // canonically carries n's value (a fixed point by construction);
    // `inv_src[n]` is Some(w) when n is driven by an inverter whose
    // effective input is w.
    let mut repl: Vec<NetId> = (0..nets).map(NetId).collect();
    let mut inv_src: Vec<Option<NetId>> = vec![None; nets];
    for &gid in c.topo_order() {
        let g = c.gate(gid);
        if g.cell != CellType::Inv {
            continue;
        }
        let e = repl[g.inputs[0].0];
        if !protected(g) {
            if let Some(w) = inv_src[e.0] {
                repl[g.output.0] = w;
                report.inverter_pairs_removed += 1;
                continue;
            }
        }
        inv_src[g.output.0] = Some(e);
    }

    // Pass 2 — liveness from outputs and DFF D nets, in reverse
    // topological order; protected gates stay regardless.
    let mut needed = vec![false; nets];
    for &o in c.outputs() {
        needed[repl[o.0].0] = true;
    }
    for &d in c.dff_d_nets() {
        needed[repl[d.0].0] = true;
    }
    let mut alive = vec![false; c.gate_count()];
    for &gid in c.topo_order().iter().rev() {
        let g = c.gate(gid);
        if repl[g.output.0] != g.output {
            continue; // aliased away by pass 1
        }
        if needed[g.output.0] || protected(g) {
            alive[gid.0] = true;
            for &i in &g.inputs {
                needed[repl[i.0].0] = true;
            }
        }
    }

    // Pass 3 — rebuild in topological order, sorting commutative pin
    // prefixes by the new (topo-assigned) net ids. The rebuilt graph's
    // *own* topological order can differ from the emission order we
    // just used (Kahn on the filtered graph is a different problem),
    // so relabel until gate storage order is a fixed point of the
    // topological sort — that is what makes `canonicalize` idempotent
    // and its `structural_key` a true canonical identity. One extra
    // relabel always suffices (Kahn's FIFO order is idempotent as a
    // storage order); the loop bound is sheer paranoia.
    for (gi, g) in c.gates().iter().enumerate() {
        if repl[g.output.0] == g.output && !alive[gi] {
            report.dead_gates_removed += 1;
        }
    }
    let mut canon = rebuild(c, &repl, &alive, &mut report.commutative_pins_sorted);
    for _ in 0..8 {
        if canon.topo_order().iter().enumerate().all(|(i, g)| g.0 == i) {
            break;
        }
        let ident: Vec<NetId> = (0..canon.net_count()).map(NetId).collect();
        let all = vec![true; canon.gate_count()];
        canon = rebuild(&canon, &ident, &all, &mut report.commutative_pins_sorted);
    }
    debug_assert!(canon.topo_order().iter().enumerate().all(|(i, g)| g.0 == i));
    report.gates_after = canon.gate_count();
    (canon, report)
}

/// Emits the `alive` subgraph of `c` in topological order with inputs
/// rewired through `repl` and commutative pin prefixes sorted by the
/// freshly assigned net ids.
fn rebuild(c: &Circuit, repl: &[NetId], alive: &[bool], pins_sorted: &mut usize) -> Circuit {
    let mut b = CircuitBuilder::new(c.name());
    let unmapped = NetId(usize::MAX);
    let mut new_net = vec![unmapped; c.net_count()];
    for &i in c.inputs() {
        new_net[i.0] = b.add_input(c.net_name(i));
    }
    for &s in c.state_inputs() {
        new_net[s.0] = b.add_state_input(c.net_name(s));
    }
    for &gid in c.topo_order() {
        if !alive[gid.0] {
            continue;
        }
        let g = c.gate(gid);
        let mut ins: Vec<NetId> = g.inputs.iter().map(|&i| new_net[repl[i.0].0]).collect();
        debug_assert!(ins.iter().all(|&n| n != unmapped));
        let p = g.cell.commutative_prefix();
        if !ins[..p].is_sorted_by_key(|n| n.0) {
            ins[..p].sort_unstable_by_key(|n| n.0);
            *pins_sorted += 1;
        }
        new_net[g.output.0] = b.add_gate(g.cell, &ins, c.net_name(g.output));
    }
    for &o in c.outputs() {
        b.mark_output(new_net[repl[o.0].0]);
    }
    for &d in c.dff_d_nets() {
        b.mark_dff_d(new_net[repl[d.0].0]);
    }
    b.build().expect("canonical rebuild of a valid circuit is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_format::parse_bench;
    use crate::generate::{iscas_like, random_circuit, RandomCircuitSpec};
    use crate::logic::{simulate, Pattern};
    use crate::normalize::normalize;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// Outputs and DFF next-state nets agree, positionally, for every
    /// pattern tried.
    fn assert_same_function(a: &Circuit, b: &Circuit, cases: usize, seed: u64) {
        assert_eq!(a.inputs().len(), b.inputs().len());
        assert_eq!(a.state_inputs().len(), b.state_inputs().len());
        assert_eq!(a.outputs().len(), b.outputs().len());
        assert_eq!(a.dff_d_nets().len(), b.dff_d_nets().len());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..cases {
            let p = Pattern::random(a, &mut rng);
            let va = simulate(a, &p.pi, &p.states);
            let vb = simulate(b, &p.pi, &p.states);
            for (k, (&oa, &ob)) in a.outputs().iter().zip(b.outputs()).enumerate() {
                assert_eq!(va[oa.0], vb[ob.0], "output {k} for {p:?}");
            }
            for (k, (&da, &db)) in a.dff_d_nets().iter().zip(b.dff_d_nets()).enumerate() {
                assert_eq!(va[da.0], vb[db.0], "dff d {k} for {p:?}");
            }
        }
    }

    #[test]
    fn buff_normalization_pairs_are_removed() {
        // normalize() realizes BUFF as two cascaded inverters; the
        // canonical pass must collapse them back out.
        let raw = parse_bench("buffy", "INPUT(a)\nOUTPUT(y)\ny = BUFF(a)\n").unwrap();
        let c = normalize(&raw).unwrap();
        assert_eq!(c.gate_count(), 2, "BUFF maps to two inverters");
        let (canon, report) = canonicalize(&c);
        assert_eq!(report.inverter_pairs_removed, 1);
        assert_eq!(canon.gate_count(), 0, "pure buffer cancels to a wire");
        assert_same_function(&c, &canon, 4, 1);
    }

    #[test]
    fn shared_first_inverter_survives() {
        // y1 = NOT(a) is used directly; y2 = NOT(y1) cancels against
        // it, so y3 = NOT(y2) rewires to NOT(a) and y2 dies. (The pass
        // aliases nets — it does not CSE y3 onto y1.)
        let raw = parse_bench(
            "chain",
            "INPUT(a)\nOUTPUT(y1)\nOUTPUT(y3)\ny1 = NOT(a)\ny2 = NOT(y1)\ny3 = NOT(y2)\n",
        )
        .unwrap();
        let c = normalize(&raw).unwrap();
        assert_eq!(c.gate_count(), 3);
        let (canon, report) = canonicalize(&c);
        assert_eq!(report.inverter_pairs_removed, 1);
        assert_eq!(report.dead_gates_removed, 0, "y2 counts as the pair");
        assert_eq!(canon.gate_count(), 2, "y1 and the rewired y3 remain");
        assert_same_function(&c, &canon, 8, 2);
    }

    #[test]
    fn commutative_pins_sort_to_equal_keys() {
        fn build(swap: bool) -> Circuit {
            let mut b = CircuitBuilder::new("t");
            let a = b.add_input("a");
            let c = b.add_input("b");
            let x = b.add_gate(CellType::Inv, &[c], "x");
            let pins = if swap { [x, a] } else { [a, x] };
            let y = b.add_gate(CellType::Nand2, &pins, "y");
            b.mark_output(y);
            b.build().unwrap()
        }
        let lhs = build(false);
        let rhs = build(true);
        assert_ne!(lhs.structural_key(), rhs.structural_key());
        let (cl, _) = canonicalize(&lhs);
        let (cr, rep) = canonicalize(&rhs);
        assert_eq!(rep.commutative_pins_sorted, 1);
        assert_eq!(cl.structural_key(), cr.structural_key());
        assert_same_function(&lhs, &cr, 8, 3);
    }

    #[test]
    fn dff_hardware_is_protected() {
        let raw =
            parse_bench("seq", "INPUT(a)\nOUTPUT(y)\nq = DFF(n)\nn = NAND(a, q)\ny = NOT(q)\n")
                .unwrap();
        let c = normalize(&raw).unwrap();
        let (canon, _) = canonicalize(&c);
        assert_eq!(canon.dff_count(), 1);
        // The slave Inv, the NAND, and the master Inv must all
        // survive; y = NOT(q) = NOT(NOT(state)) legally aliases to the
        // state net (value-identical in the simulator's encoding).
        assert_eq!(canon.gate_count(), c.gate_count() - 1);
        let d = canon.dff_d_nets()[0];
        assert!(
            canon.net_loads(d).iter().any(|l| canon.gate(l.gate).cell == CellType::Inv),
            "master inverter still loads the D net"
        );
        assert_same_function(&c, &canon, 16, 4);
    }

    #[test]
    fn canonicalize_is_idempotent() {
        let raw = iscas_like("s838").expect("known profile");
        let c = normalize(&raw).unwrap();
        let (c1, _) = canonicalize(&c);
        let (c2, rep2) = canonicalize(&c1);
        assert_eq!(c1.structural_key(), c2.structural_key());
        assert_eq!(rep2.inverter_pairs_removed, 0);
        assert_eq!(rep2.dead_gates_removed, 0);
        assert_eq!(rep2.commutative_pins_sorted, 0);
    }

    #[test]
    fn paper_suite_canonical_gate_counts_are_pinned() {
        // Regression guard: canonicalization results on the paper's
        // fixture suite. Columns: gates after normalize() and after
        // canonicalize(). Any rewrite-rule change that shifts these
        // numbers must be deliberate.
        let pinned = [
            ("s838", 646, 432),
            ("s1196", 741, 498),
            ("s1423", 1011, 751),
            ("s5378", 4040, 2921),
            ("s9234", 7855, 5380),
            ("s13207", 11673, 8490),
            ("alu88", 214, 210),
            ("mult88", 736, 704),
        ];
        for raw in crate::generate::paper_suite_raw() {
            let (_, mapped, canon_n) = pinned
                .iter()
                .find(|(n, ..)| *n == raw.name)
                .unwrap_or_else(|| panic!("unpinned fixture {}", raw.name));
            let c = normalize(&raw).unwrap();
            assert_eq!(c.gate_count(), *mapped, "{} normalize", raw.name);
            let (canon, _) = canonicalize(&c);
            assert_eq!(canon.gate_count(), *canon_n, "{} canonicalize", raw.name);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The canonical pass preserves circuit function on random
        /// sequential circuits.
        #[test]
        fn canonical_passes_preserve_function(
            seed in any::<u64>(),
            gates in 10usize..120,
            inputs in 2usize..10,
            dffs in 0usize..6,
        ) {
            let spec = RandomCircuitSpec::new("prop", inputs, 2, gates, dffs, seed);
            let c = normalize(&random_circuit(&spec)).unwrap();
            let (canon, report) = canonicalize(&c);
            prop_assert_eq!(report.gates_after, canon.gate_count());
            assert_same_function(&c, &canon, 6, seed ^ 0x79b9);
            // Idempotent fixed point.
            let (canon2, _) = canonicalize(&canon);
            prop_assert_eq!(canon.structural_key(), canon2.structural_key());
        }
    }
}
