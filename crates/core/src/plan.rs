//! The compiled estimation pipeline: a per-(circuit, library) plan
//! that runs the Fig. 13 pass with **zero heap allocations per
//! pattern** after warm-up.
//!
//! [`estimate`](crate::estimate) is the readable reference
//! implementation, but it re-pays compilation-class costs on every
//! pattern: per-gate `BTreeMap` lookups of the characterized
//! `VectorChar`, per-gate pin-current clones, per-gate `il_in`
//! buffers, and the library's loading grid rebuilt per call. A
//! 10^6-vector sweep over a 1k-gate circuit performs billions of
//! avoidable allocations and tree walks. [`CompiledEstimator`]
//! hoists all of that work to construction time:
//!
//! * the circuit is flattened into CSR gate-input adjacency
//!   (`in_off`/`in_nets`), per-gate output nets, and per-net
//!   gate-driven flags — no `Gate` pointer chasing in the loop;
//! * every gate's full `2^k` `VectorChar` table is resolved into a
//!   dense index-addressed slab, so the per-pattern lookup is
//!   `vcs[vc_base[gate] + vector_bits]` — no map walks, and
//!   missing-cell errors surface once, at compile time;
//! * every response table is laid out on the library's one loading
//!   grid ([`LoadingGrid`], kept once per plan): its `[sub, gate,
//!   btbt]` ordinates interleaved per knot in one slab, so one
//!   [`LoadingGrid::locate`] — the segment search the reference
//!   `BreakdownLut::eval` runs — serves all three components. Every
//!   table holds `3 × knots` ordinates, so a state's tables are
//!   addressed by index, with no per-table offsets;
//! * one term routine computes a gate term's loading magnitude and
//!   the delta its table adds there, for every kernel: the scalar
//!   pass, the block tables' whole-gate and per-term entries, the
//!   block path's runtime terms and direct-solve's loadings;
//! * all per-pattern state lives in a reusable [`EstimateScratch`]
//!   (net values, net currents, a flat CSR-aligned pin-current
//!   buffer, a reusable `Pattern`), and per-gate input loading uses a
//!   stack-bounded buffer.
//!
//! ## Bit-identity contract
//!
//! [`CompiledEstimator::estimate_into`] is **bit-identical** to
//! [`estimate`](crate::estimate) for every mode: the same segment
//! selection and interpolation fraction (one [`LoadingGrid::locate`]
//! serves both, exact-knot return included),
//! the same interpolation formula evaluated in the same order, the
//! same per-pin/output delta accumulation order, and the same
//! sequential gate-id-order total reduction. The engine's sweeps and
//! MLV searches run on this path, so every determinism guarantee
//! (thread-count and shard-size invariance) carries over unchanged —
//! and is enforced by proptests below plus the engine's cross-path
//! tests.
//!
//! ## The block path: two kernels, [`LANES`] patterns at a time
//!
//! [`CompiledEstimator::estimate_block_into`] evaluates a packed
//! [`PatternBlock`] of up to [`LANES`] (= 64) patterns through two
//! kernels:
//!
//! 1. a **simulate kernel** that holds one `u64` word per net — bit
//!    `l` is lane `l`'s logic value — and walks the topo order once
//!    per block, evaluating each gate as a sum of minterm masks read
//!    off the same `eval_logic` truth-table slab the scalar pass
//!    uses;
//! 2. a **resolve kernel** that turns per-lane net states into
//!    leakage. In `Lut` mode it is table-driven: at (lazy) block-plan
//!    build time, per-gate responses are precomputed for each
//!    combination of their *support nets* — the nets the scalar
//!    arithmetic actually depends on — with exactly the scalar
//!    pass's floating-point operations in exactly the scalar order,
//!    so a lookup is bit-identical to recomputing. Three tiers:
//!    a gate may get one *whole-gate* table over the support of its
//!    whole clamped breakdown (its inputs plus the inputs of every
//!    gate loading its input and output nets; one lookup per lane);
//!    any other gate splits into per-*term* tables (one per pin
//!    response and one for the output response, each over its own
//!    narrower support, summed per lane in the scalar order before
//!    the clamp); and terms wider than the plan's width cap evaluate
//!    at runtime from per-lane net currents, folded in the scalar
//!    loading pass's order. The layout is decided from every gate's
//!    support widths before any entry is built. A gate stays whole
//!    only when its table is no larger than the sum of its term
//!    tables. One width cap per plan — the largest width up to
//!    `min(MAX_SUPPORT_BITS, floor(log2(work)))` at which every table
//!    that narrow or narrower fits the [`MAX_TABLE_ENTRIES`] budget —
//!    decides which tables are built, so the budget buys the
//!    narrowest tables (the most lane lookups per entry) first.
//!    `work` is the lane count the tables are built for: the
//!    auto-tiled call that promotes a plan
//!    ([`lut_lanes`](CompiledEstimator::lut_lanes)) builds for the
//!    per-lane work that paid for them, so no table holds more
//!    entries than those lanes, while
//!    [`prepare_block`](CompiledEstimator::prepare_block) and the lazy
//!    build of [`estimate_block_into`](CompiledEstimator::estimate_block_into)
//!    build at full width ([`MAX_SUPPORT_BITS`] and the budget).
//!
//! Between the two kernels sits one gather: every per-lane index the
//! resolve kernel reads — a table index over support nets, a gate's
//! input-vector bits for its characterization, the runtime-current
//! folds and the `NoLoading` resolve — is built from the packed net
//! words by one bit-matrix transpose. Each net's word splits into
//! 8-lane bytes (4-lane nibbles for indices wider than 8 bits), each
//! byte spreads through a const table into the byte (`u16`) lanes of
//! a `u64`, and the spread words shift to the net's bit position and
//! OR together, so a `w`-bit index costs `w` table reads per lane
//! group instead of `w` shift-and-masks per lane, and a short tail
//! block transposes only the groups it fills. Indices are integers,
//! so the gather cannot move a bit of any answer; a unit test pins it
//! to the per-lane loop it replaced for every width and lane count.
//!
//! **The block path is bit-identical to the scalar path** — and hence
//! to [`estimate`](crate::estimate) — for every mode: per-lane totals
//! accumulate per-gate breakdowns sequentially in gate-id order (the
//! scalar reduction order), and callers consume
//! [`BlockScratch::totals`] in lane order, so any stats reduction
//! stays in strict pattern-index order. `DirectSolve` mode and plans
//! whose pin wiring was changed by
//! [`permute_gate_inputs`](CompiledEstimator::permute_gate_inputs)
//! (the optimizer's probe) serve each lane through the scalar kernel
//! instead — same results, no acceleration — because the response
//! tables are compiled against the original wiring.
//! [`BlockScratch`] carries the same zero-allocation-per-block
//! contract as [`EstimateScratch`] once warm (the first `Lut`-mode
//! block builds the response tables and sizes the runtime-current
//! buffer).
//!
//! [`CompiledEstimator::estimate_block_scalar_into`] is the per-lane
//! kernel behind the same block interface: it unpacks each lane and
//! runs the scalar pass, with no table build. Every workload runs
//! through one block driver, [`par_blocks`](crate::par_blocks),
//! whatever its `lanes` setting: the engine's sweeps, all three MLV
//! strategies (both scans and each hill-climb step's bit-flip
//! neighbourhood) and both arms of every loading comparison
//! ([`loading_totals`](crate::loading_totals), for each Monte-Carlo
//! die and each estimate request) tile their patterns into blocks of
//! [`resolve_lanes`]`(lanes)` lanes (seed-derived streams packed by
//! [`pack_index_block`]), and the tiling width only picks the kernel —
//! the packed kernel for 64-lane blocks, the per-lane one for 1-lane
//! blocks. An auto-tiled (`lanes = 0`) `Lut` sweep or loaded arm asks
//! [`lut_lanes`](CompiledEstimator::lut_lanes) for its width: 1-lane
//! blocks until the plan holds its tables or its per-lane work
//! reaches [`TABLE_AMORTIZE_VECTORS`], 64-lane blocks from then on.
//! The width never picks the path or the result.

use std::collections::BTreeMap;
use std::sync::atomic::{self, AtomicUsize};
use std::sync::OnceLock;
use std::time::Instant;

use nanoleak_cells::{CellLibrary, CellType, InputVector, LoadingGrid, Locus};
use nanoleak_device::LeakageBreakdown;
use nanoleak_netlist::{Circuit, Driver, GateId, NetId, Pattern};
pub use nanoleak_netlist::{PatternBlock, LANES};
use rand::SeedableRng;

use crate::block::TABLE_AMORTIZE_VECTORS;
use crate::error::EstimateError;
use crate::estimator::EstimatorMode;
use crate::exec::mix;
use crate::report::CircuitLeakage;

/// Largest cell fanin the stack-bounded loading buffers support
/// (the cell family tops out at 4 pins; 8 matches `InputVector`).
const MAX_PINS: usize = 8;

/// Largest support-net count a block response table covers
/// (`2^bits` precomputed entries per table), whole-gate and per-term
/// tables alike: the ceiling of every plan's width cap. Terms wider
/// than the cap run on the per-lane runtime path. On the paper suite
/// the cap stays here through s1423 (under 60 runtime terms each:
/// the true high-fanout hubs) and falls to 10, 8 and 7 on s5378,
/// s9234 and s13207, whose budgets leave 307, 1,786 and 3,398 terms
/// (4%, 11% and 14% of their split gates' terms) at runtime.
pub const MAX_SUPPORT_BITS: usize = 12;

/// Budget of precomputed response-table entries per plan (~24 MiB of
/// breakdowns at the cap). Where every table up to
/// [`MAX_SUPPORT_BITS`] would not fit, the plan's width cap drops
/// until the tables it admits do.
pub const MAX_TABLE_ENTRIES: usize = 1 << 20;

/// `tbl_off` sentinel: gate (or term) not served by a table.
const TABLE_FALLBACK: u32 = u32::MAX;

/// Byte `k` of entry `b` is bit `k` of `b`: spreads 8 lanes' bits of
/// one net into the byte lanes of a `u64` ([`CompiledEstimator::gather_block`]).
const SPREAD8: [u64; 256] = spread(8);

/// `u16` lane `k` of entry `n` is bit `k` of `n`: the 4-lane spread
/// for indices wider than a byte.
const SPREAD4: [u64; 16] = spread(16);

/// The spread table whose entry `v` holds bit `k` of `v` at bit
/// `k * lane_bits`, for the `log2(N)` bits of `v`.
const fn spread<const N: usize>(lane_bits: usize) -> [u64; N] {
    let mut table = [0u64; N];
    let mut v = 0;
    while v < N {
        let mut k = 0;
        while 1 << k < N {
            table[v] |= ((v >> k & 1) as u64) << (k * lane_bits);
            k += 1;
        }
        v += 1;
    }
    table
}

/// One additive term of a split (tier-B) gate response: the pin-`pin`
/// input response (or, at `pin == pins`, the output response), either
/// as a precomputed table over its own support nets or as a runtime
/// evaluation against per-lane net currents.
struct BlockTerm {
    /// Offset of the term's `2^sup_len` entries in `tbl`, or
    /// [`TABLE_FALLBACK`] for runtime evaluation.
    tbl: u32,
    /// Support run in `sup_nets` (table terms only).
    sup_start: u32,
    sup_len: u32,
    /// Input pin index, or the gate's pin count for the output term
    /// (also the index of the term's table among its state's tables).
    pin: u32,
    /// The net whose loading current feeds this term.
    net: u32,
}

/// Resolves a requested lane count (`0` = auto) to a concrete one.
///
/// # Panics
/// If `requested` is not `0`, `1`, or [`LANES`] — config validation
/// belongs at the API edge (CLI/server), so the engine treats any
/// other value as a programming error.
pub fn resolve_lanes(requested: usize) -> usize {
    match requested {
        0 => LANES,
        1 | LANES => requested,
        other => panic!("unsupported lane count {other} (expected 1 or {LANES})"),
    }
}

/// Packs the seed-derived sweep patterns `start..start + count`
/// ([`fill_index_pattern`]) into `block`, in lane = index order.
/// `pattern` is the per-lane buffer. A block whose arity does not
/// match `circuit` (a `Default` one, say) is resized first, so one
/// block can serve every plan over the circuit.
///
/// # Panics
/// If `count > LANES`.
pub fn pack_index_block(
    circuit: &Circuit,
    seed: u64,
    start: usize,
    count: usize,
    pattern: &mut Pattern,
    block: &mut PatternBlock,
) {
    assert!(count <= LANES, "{count} patterns exceed the {LANES}-lane block");
    if block.pi_words().len() != circuit.inputs().len()
        || block.state_words().len() != circuit.state_inputs().len()
    {
        *block = PatternBlock::for_circuit(circuit);
    }
    block.clear();
    for i in start..start + count {
        fill_index_pattern(circuit, seed, i, pattern);
        block.push(pattern);
    }
}

/// Refills `pattern` with the seed-derived sweep pattern at `index`:
/// what a `StdRng` seeded with SplitMix64 `mix(seed, index)` draws
/// through [`Pattern::fill_random`]. This is the one definition of the
/// sweep pattern stream: [`pack_index_block`] packs it,
/// [`CompiledEstimator::estimate_index_into`] evaluates it one pattern
/// at a time, and the engine's `pattern_for_index` returns it.
pub fn fill_index_pattern(circuit: &Circuit, seed: u64, index: usize, pattern: &mut Pattern) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(mix(seed, index as u64));
    pattern.fill_random(circuit, &mut rng);
}

/// The lazily built block-resolve plan: whole-gate and per-term
/// response tables as the plan's [`Layout`] decides, plus the
/// runtime-current layout for the terms wider than its width cap.
/// Built once per [`CompiledEstimator`], against its compile-time
/// wiring: at full width by the first `Lut`-mode block estimate or
/// [`CompiledEstimator::prepare_block`], or sized to the work by the
/// auto-tiled call that promotes the plan
/// ([`CompiledEstimator::lut_lanes`]).
struct BlockTables {
    /// Per gate: offset of its whole-gate table's `2^support` entry
    /// run in `tbl`, or [`TABLE_FALLBACK`] for a split gate.
    tbl_off: Vec<u32>,
    /// CSR offsets into `sup_nets`, one per gate plus a tail (a split
    /// gate's run holds its term tables' supports).
    sup_off: Vec<u32>,
    /// Flattened per-gate support nets; bit `j` of a table index is
    /// the value of support net `j`.
    sup_nets: Vec<u32>,
    /// Precomputed breakdowns: whole-gate entries are clamped gate
    /// responses, term entries are unclamped single-LUT deltas.
    tbl: Vec<LeakageBreakdown>,
    /// CSR offsets into `terms`, one per gate plus a tail (whole-gate
    /// table gates own an empty run).
    term_off: Vec<u32>,
    /// Flattened per-gate terms of split gates, pins in order then
    /// the output — the scalar accumulation order.
    terms: Vec<BlockTerm>,
    /// Nets whose runtime per-lane currents the runtime terms read.
    rt_nets: Vec<u32>,
    /// Per net: its slot in `rt_nets`, or `u32::MAX`.
    rt_slot: Vec<u32>,
    /// CSR offsets into `rt_loads`, one per `rt_nets` entry plus a
    /// tail.
    rt_off: Vec<u32>,
    /// Flattened (gate, pin) loads per runtime net, in the scalar
    /// loading pass's accumulation order.
    rt_loads: Vec<(u32, u32)>,
    /// Gates split into per-term service (diagnostics/tests).
    fallback_gates: usize,
    /// Terms evaluated at runtime (diagnostics/tests).
    rt_terms: usize,
}

/// One candidate response table: its support width, and where its
/// support nets start in [`Layout::nets`] (kept only for candidates
/// no wider than the layout's width ceiling, the only ones it can
/// build).
#[derive(Clone, Copy)]
struct Support {
    start: u32,
    width: u32,
}

/// A plan's table layout, decided from support widths alone before
/// any entry is built: every gate's whole-gate and per-term
/// candidates, and the width cap that picks which of them become
/// tables.
struct Layout {
    /// Support nets of the buildable candidates; bit `j` of a table
    /// index is the value of the candidate's `j`-th net.
    nets: Vec<u32>,
    /// Per gate: its whole-gate candidate.
    whole: Vec<Support>,
    /// CSR offsets into `terms`, one per gate plus a tail.
    term_off: Vec<u32>,
    /// Per gate: one candidate per term, pins in order then the
    /// output.
    terms: Vec<Support>,
    /// The widest table the plan builds: the largest width up to
    /// its ceiling, `min(MAX_SUPPORT_BITS, floor(log2(work)))`, at
    /// which all tables that narrow or narrower fit
    /// [`MAX_TABLE_ENTRIES`].
    cap: usize,
}

impl Layout {
    /// Gate `g`'s term candidates, in the scalar accumulation order.
    fn terms(&self, g: usize) -> &[Support] {
        &self.terms[self.term_off[g] as usize..self.term_off[g + 1] as usize]
    }

    /// A buildable candidate's support nets.
    fn nets(&self, s: Support) -> &[u32] {
        &self.nets[s.start as usize..(s.start + s.width) as usize]
    }

    /// Whether gate `g` takes one whole-gate table under width cap
    /// `cap`: the table fits the cap and is no larger than the sum of
    /// the gate's term tables (each no wider than the whole support,
    /// so all of them fit the cap too).
    fn whole_at(&self, g: usize, cap: usize) -> bool {
        let w = self.whole[g].width as usize;
        w <= cap && 1usize << w <= self.terms(g).iter().map(|t| 1usize << t.width).sum::<usize>()
    }

    /// Table entries the layout builds under width cap `cap`.
    fn entries_at(&self, cap: usize) -> usize {
        (0..self.whole.len())
            .map(|g| {
                if self.whole_at(g, cap) {
                    1usize << self.whole[g].width
                } else {
                    let built = self.terms(g).iter().filter(|t| t.width as usize <= cap);
                    built.map(|t| 1usize << t.width).sum()
                }
            })
            .sum()
    }
}

/// Reusable per-worker buffers for the block path
/// ([`CompiledEstimator::estimate_block_into`]). Like
/// [`EstimateScratch`], repeated block estimates perform no heap
/// allocation once the buffers are warm; keep one per worker thread.
///
/// `Default` yields an unsized scratch that warms up on first use, so
/// one scratch can serve many plans over one circuit.
#[derive(Debug, Default)]
pub struct BlockScratch {
    /// One packed word per net: bit `l` is lane `l`'s logic value.
    words: Vec<u64>,
    /// Runtime per-lane net currents for fallback gates,
    /// `rt_slot * LANES + lane`.
    rt_cur: Vec<f64>,
    /// Per-lane totals of the most recent block, lane order.
    totals: Vec<LeakageBreakdown>,
    /// Scalar scratch backing the per-lane fallback kernels.
    inner: EstimateScratch,
    /// Reusable block for index-derived sweep patterns.
    index_block: PatternBlock,
}

impl BlockScratch {
    /// Per-lane totals of the most recent block estimate, in lane
    /// (pattern-index) order; one entry per packed lane.
    pub fn totals(&self) -> &[LeakageBreakdown] {
        &self.totals
    }
}

/// One resolved (cell, vector) characterization in the dense slab.
struct PlanVectorChar {
    nominal: LeakageBreakdown,
    /// The vector itself (needed by direct-solve mode).
    vector: InputVector,
    /// Pin count.
    pins: u32,
    /// Offset of this state's pin currents in the flat slab.
    pin_off: u32,
    /// Offset of this state's tables in `ys_slab`: `pins`
    /// input-response tables followed by the output-response table,
    /// `table_len` ordinates each.
    ys_off: u32,
}

/// A compiled estimation plan for one (circuit, library) pair.
///
/// Construction ([`CompiledEstimator::compile`]) pays every lookup,
/// clone, and validation once; [`CompiledEstimator::estimate_into`]
/// then evaluates patterns with zero heap allocations (LUT and
/// no-loading modes) against a reusable [`EstimateScratch`].
///
/// # Examples
/// ```
/// use nanoleak_cells::{CellLibrary, CellType, CharacterizeOptions};
/// use nanoleak_core::{estimate, CompiledEstimator, EstimatorMode};
/// use nanoleak_device::Technology;
/// use nanoleak_netlist::{CircuitBuilder, Pattern};
///
/// let tech = Technology::d25();
/// let lib = CellLibrary::shared_with_options(
///     &tech, 300.0, &CharacterizeOptions::coarse(&[CellType::Inv]));
/// let mut b = CircuitBuilder::new("pair");
/// let a = b.add_input("a");
/// let x = b.add_gate(CellType::Inv, &[a], "x");
/// let y = b.add_gate(CellType::Inv, &[x], "y");
/// b.mark_output(y);
/// let circuit = b.build()?;
///
/// let plan = CompiledEstimator::compile(&circuit, &lib)?;
/// let mut scratch = plan.scratch();
/// let p = Pattern::zeros(&circuit);
/// let total = plan.estimate_into(&mut scratch, &p, EstimatorMode::Lut)?;
/// // Bit-identical to the reference implementation.
/// let reference = estimate(&circuit, &lib, &p, EstimatorMode::Lut)?;
/// assert_eq!(total, reference.total);
/// assert_eq!(scratch.per_gate(), reference.per_gate.as_slice());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct CompiledEstimator<'a> {
    circuit: &'a Circuit,
    library: &'a CellLibrary,
    /// CSR offsets into `in_nets`, one entry per gate plus a tail.
    in_off: Vec<u32>,
    /// Flattened per-gate input nets, pin order.
    in_nets: Vec<u32>,
    /// Output net per gate.
    out_net: Vec<u32>,
    /// Cell type per gate (direct-solve mode).
    gate_cell: Vec<CellType>,
    /// Base of each gate's `2^k` vector-char block in `vcs`.
    vc_base: Vec<u32>,
    /// Per-net flag: driven by a gate (`true`) or held by an ideal
    /// primary/state input (`false`, no loading shift).
    gate_driven: Vec<bool>,
    /// Gate evaluation order for the simulation and leakage passes
    /// (mirrors `estimate`'s traversal, so direct-solve errors surface
    /// for the same gate).
    topo: Vec<u32>,
    vcs: Vec<PlanVectorChar>,
    /// Output logic level per `vcs` entry, precomputed from
    /// `CellType::eval_logic` — the fused simulation pass is one slab
    /// read per gate.
    logic_slab: Vec<bool>,
    pin_current_slab: Vec<f64>,
    /// The library's loading grid, which every response table is
    /// sampled on.
    grid: LoadingGrid,
    /// Ordinates per response table: `3 × knots`.
    table_len: usize,
    /// Every response table's ordinates, `[sub, gate, btbt]` triples
    /// per knot, tables back to back in state order.
    ys_slab: Vec<f64>,
    /// Snapshot of `in_nets` at compile time, which the block
    /// response tables are built from (as the circuit's `net_loads`
    /// they fold are). They are valid only while the live wiring
    /// still equals this snapshot; `permute_gate_inputs` diverges
    /// from it (and undoing the permutation restores it), and the
    /// block path compares before trusting the tables.
    compiled_wiring: Vec<u32>,
    /// Lazily built block-resolve plan (shared across threads).
    block: OnceLock<BlockTables>,
    /// `Lut` lanes the auto-tiled calls of
    /// [`lut_lanes`](Self::lut_lanes) have run on the per-lane kernel
    /// while the plan held no tables.
    served: AtomicUsize,
}

/// Reusable per-worker buffers for [`CompiledEstimator`]. All vectors
/// are pre-sized by [`CompiledEstimator::scratch`], so repeated
/// estimates never touch the allocator.
#[derive(Debug, Default)]
pub struct EstimateScratch {
    /// Logic value per net.
    values: Vec<bool>,
    /// Summed pin current per net \[A\].
    net_current: Vec<f64>,
    /// Resolved vector-char slab index per gate.
    gate_vc: Vec<u32>,
    /// Leakage breakdown per gate, indexed by `GateId.0`.
    per_gate: Vec<LeakageBreakdown>,
    /// Reusable pattern buffer for index-derived sweep patterns.
    pattern: Pattern,
}

impl EstimateScratch {
    /// Per-gate breakdowns of the most recent estimate, indexed by
    /// `GateId.0`.
    pub fn per_gate(&self) -> &[LeakageBreakdown] {
        &self.per_gate
    }
}

impl<'a> CompiledEstimator<'a> {
    /// Flattens `circuit` against `library` into a compiled plan.
    ///
    /// # Errors
    /// [`EstimateError::MissingCell`] if the library lacks any cell
    /// type the circuit uses (reported for the lowest-id offending
    /// gate, like the reference path).
    pub fn compile(circuit: &'a Circuit, library: &'a CellLibrary) -> Result<Self, EstimateError> {
        let n_gates = circuit.gate_count();
        let n_nets = circuit.net_count();
        let grid = library.grid();

        let mut plan = Self {
            circuit,
            library,
            in_off: Vec::with_capacity(n_gates + 1),
            in_nets: Vec::new(),
            out_net: Vec::with_capacity(n_gates),
            gate_cell: Vec::with_capacity(n_gates),
            vc_base: Vec::with_capacity(n_gates),
            gate_driven: (0..n_nets)
                .map(|n| matches!(circuit.net_driver(nanoleak_netlist::NetId(n)), Driver::Gate(_)))
                .collect(),
            topo: circuit.topo_order().iter().map(|g| g.0 as u32).collect(),
            vcs: Vec::new(),
            logic_slab: Vec::new(),
            pin_current_slab: Vec::new(),
            table_len: 3 * grid.knots().len(),
            grid,
            ys_slab: Vec::new(),
            compiled_wiring: Vec::new(),
            block: OnceLock::new(),
            served: AtomicUsize::new(0),
        };

        let mut cell_blocks: BTreeMap<CellType, u32> = BTreeMap::new();
        plan.in_off.push(0);
        for gid in 0..n_gates {
            let gate = circuit.gate(GateId(gid));
            let base = match cell_blocks.get(&gate.cell) {
                Some(&base) => base,
                None => {
                    let base = plan.compile_cell(gate.cell)?;
                    cell_blocks.insert(gate.cell, base);
                    base
                }
            };
            plan.vc_base.push(base);
            plan.gate_cell.push(gate.cell);
            plan.out_net.push(gate.output.0 as u32);
            plan.in_nets.extend(gate.inputs.iter().map(|n| n.0 as u32));
            plan.in_off.push(plan.in_nets.len() as u32);
        }
        plan.compiled_wiring = plan.in_nets.clone();
        Ok(plan)
    }

    /// Resolves one cell type's full `2^k` vector table into the slab,
    /// returning the block base.
    fn compile_cell(&mut self, cell: CellType) -> Result<u32, EstimateError> {
        assert!(cell.num_inputs() <= MAX_PINS, "{cell}: fanin exceeds {MAX_PINS}");
        let chars = self.library.cell(cell).ok_or(EstimateError::MissingCell(cell))?;
        let base = self.vcs.len() as u32;
        let knots = self.grid.knots().len();
        for (vc, vector) in chars.vectors().iter().zip(InputVector::all(cell.num_inputs())) {
            let pin_off = self.pin_current_slab.len() as u32;
            self.pin_current_slab.extend_from_slice(&vc.pin_currents);
            let ys_off = self.ys_slab.len() as u32;
            for lut in vc.input_resp.iter().chain([&vc.output_resp]) {
                let [sub, gate, btbt] = lut.columns();
                for i in 0..knots {
                    self.ys_slab.extend([sub[i], gate[i], btbt[i]]);
                }
            }
            // The fused simulation pass propagates logic through this
            // table; derive it from `eval_logic`, exactly what the
            // reference `simulate` computes.
            self.logic_slab.push(cell.eval_logic(&vector.to_bools()));
            self.vcs.push(PlanVectorChar {
                nominal: vc.nominal,
                vector,
                pins: vc.pin_currents.len() as u32,
                pin_off,
                ys_off,
            });
        }
        Ok(base)
    }

    /// The circuit this plan was compiled for.
    pub fn circuit(&self) -> &'a Circuit {
        self.circuit
    }

    /// The library this plan was compiled against.
    pub fn library(&self) -> &'a CellLibrary {
        self.library
    }

    /// A scratch pre-sized for this plan, ready for allocation-free
    /// estimates. Keep one per worker thread.
    pub fn scratch(&self) -> EstimateScratch {
        let n_gates = self.gate_cell.len();
        EstimateScratch {
            values: vec![false; self.gate_driven.len()],
            net_current: vec![0.0; self.gate_driven.len()],
            gate_vc: vec![0; n_gates],
            per_gate: vec![LeakageBreakdown::ZERO; n_gates],
            pattern: Pattern {
                pi: Vec::with_capacity(self.circuit.inputs().len()),
                states: Vec::with_capacity(self.circuit.state_inputs().len()),
            },
        }
    }

    /// The nets currently assigned to `gate`'s input pins, in pin
    /// order (raw net indices). Reflects any
    /// [`permute_gate_inputs`](Self::permute_gate_inputs) applied
    /// since compilation.
    pub fn gate_input_nets(&self, gate: GateId) -> &[u32] {
        &self.in_nets[self.in_off[gate.0] as usize..self.in_off[gate.0 + 1] as usize]
    }

    /// Reorders one gate's pin assignment in place: after the call,
    /// pin `k` of `gate` is driven by the net that previously drove
    /// pin `perm[k]`.
    ///
    /// This is *exactly* equivalent to recompiling against a circuit
    /// whose gate has the permuted input list — the fused passes build
    /// the vector-char index from `in_nets` order, deposit pin
    /// currents by the same positions, and the own-pin loading
    /// subtraction reads them back positionally — so `nanoleak-opt`
    /// can score every pin assignment of a gate without a recompile or
    /// an allocation. The caller must keep the permutation inside the
    /// cell's commutative prefix
    /// ([`CellType::commutative_prefix`](nanoleak_cells::CellType::commutative_prefix)):
    /// the simulation pass reads pins positionally, so permuting an
    /// asymmetric pin would change the computed logic function. Note
    /// the plan no longer matches [`circuit`](Self::circuit) pin-level
    /// until permutations are undone or the circuit is rebuilt.
    ///
    /// # Panics
    /// If `perm.len()` differs from the gate's pin count.
    pub fn permute_gate_inputs(&mut self, gate: GateId, perm: &[usize]) {
        let s = self.in_off[gate.0] as usize;
        let e = self.in_off[gate.0 + 1] as usize;
        let n = e - s;
        assert_eq!(perm.len(), n, "permutation arity mismatch");
        let mut tmp = [0u32; MAX_PINS];
        tmp[..n].copy_from_slice(&self.in_nets[s..e]);
        for (k, &p) in perm.iter().enumerate() {
            self.in_nets[s + k] = tmp[p];
        }
    }

    /// Fig. 13 for one pattern on the compiled plan, bit-identical to
    /// [`estimate`](crate::estimate) (same total *and* the same
    /// per-gate breakdowns, readable via
    /// [`EstimateScratch::per_gate`]). Performs no heap allocation in
    /// `Lut`/`NoLoading` modes once `scratch` is warm.
    ///
    /// # Errors
    /// * [`EstimateError::BadPattern`] on arity mismatch;
    /// * [`EstimateError::Solver`] from direct-solve mode.
    pub fn estimate_into(
        &self,
        scratch: &mut EstimateScratch,
        pattern: &Pattern,
        mode: EstimatorMode,
    ) -> Result<LeakageBreakdown, EstimateError> {
        if pattern.pi.len() != self.circuit.inputs().len() {
            return Err(EstimateError::BadPattern(format!(
                "{} primary-input values for {} inputs",
                pattern.pi.len(),
                self.circuit.inputs().len()
            )));
        }
        if pattern.states.len() != self.circuit.state_inputs().len() {
            return Err(EstimateError::BadPattern(format!(
                "{} DFF states for {} flip-flops",
                pattern.states.len(),
                self.circuit.state_inputs().len()
            )));
        }
        self.run(scratch, &pattern.pi, &pattern.states, mode)
    }

    /// Estimates the seed-derived sweep pattern at `index` (the same
    /// stream as the engine's `pattern_for_index`: a `StdRng` seeded
    /// with SplitMix64 `mix(seed, index)`), generating the pattern
    /// straight into the scratch's reusable buffer — no per-index
    /// `Pattern` allocation.
    ///
    /// # Errors
    /// As [`CompiledEstimator::estimate_into`].
    pub fn estimate_index_into(
        &self,
        scratch: &mut EstimateScratch,
        seed: u64,
        index: usize,
        mode: EstimatorMode,
    ) -> Result<LeakageBreakdown, EstimateError> {
        let mut pattern = std::mem::take(&mut scratch.pattern);
        fill_index_pattern(self.circuit, seed, index, &mut pattern);
        let out = self.estimate_into(scratch, &pattern, mode);
        scratch.pattern = pattern;
        out
    }

    /// [`CompiledEstimator::estimate_into`] packaged as an owned
    /// [`CircuitLeakage`] report (allocates the report itself).
    ///
    /// # Errors
    /// As [`CompiledEstimator::estimate_into`].
    pub fn estimate_report(
        &self,
        scratch: &mut EstimateScratch,
        pattern: &Pattern,
        mode: EstimatorMode,
    ) -> Result<CircuitLeakage, EstimateError> {
        let total = self.estimate_into(scratch, pattern, mode)?;
        Ok(CircuitLeakage { per_gate: scratch.per_gate.clone(), total })
    }

    /// A block scratch for this plan, ready for allocation-free block
    /// estimates once warm. Keep one per worker thread.
    pub fn block_scratch(&self) -> BlockScratch {
        BlockScratch {
            words: vec![0; self.gate_driven.len()],
            rt_cur: Vec::new(),
            totals: Vec::with_capacity(LANES),
            inner: self.scratch(),
            index_block: PatternBlock::for_circuit(self.circuit),
        }
    }

    /// Builds the block response tables now, at full width (the
    /// first `Lut`-mode block estimate otherwise builds them lazily,
    /// at full width too), so callers can charge the cost to a
    /// compile stage instead of the first shard. The tables describe
    /// the compiled wiring, whatever permutation is in force.
    pub fn prepare_block(&self) {
        let _ = self.block_tables();
    }

    /// The tiling width of one `Lut`-mode call of `n` patterns at
    /// `lanes`; a call that is to run on response tables the plan does
    /// not hold yet builds them here. `1` and [`LANES`] force their
    /// kernel (a 64-lane call first builds full-width tables, as
    /// [`prepare_block`](Self::prepare_block) does). An auto-tiled call
    /// (`lanes = 0`) runs packed once the plan holds its tables.
    /// Until then it runs per lane, and the plan counts its lanes,
    /// until the per-lane work (the lanes served so far plus `n`)
    /// reaches [`TABLE_AMORTIZE_VECTORS`]: the call that gets there
    /// builds the tables, each no wider than `floor(log2(work))` bits
    /// (and the budget's width cap), so no table holds more entries
    /// than the lanes that paid for it. This is the ski-rental rule:
    /// whatever calls follow, the plan pays at most about twice what
    /// the best choice made in hindsight would have cost. The answer
    /// never depends on it.
    ///
    /// # Panics
    /// If `lanes` is not `0`, `1` or [`LANES`] ([`resolve_lanes`]).
    pub fn lut_lanes(&self, lanes: usize, n: usize) -> usize {
        if lanes != 0 {
            let lanes = resolve_lanes(lanes);
            if lanes == LANES {
                self.prepare_block();
            }
            return lanes;
        }
        if self.block.get().is_none() {
            // Relaxed: the count publishes no data (the tables publish
            // through `block`), and racing calls only move which one
            // builds them, never a bit of an answer.
            let work = self.served.fetch_add(n, atomic::Ordering::Relaxed) + n;
            if work < TABLE_AMORTIZE_VECTORS {
                return 1;
            }
            let _ = self.tables_for(work);
        }
        LANES
    }

    /// Gates the block plan splits into per-term service instead of
    /// one whole-gate table: those whose whole support is wider than
    /// the plan's width cap or whose whole-gate table would be larger
    /// than the sum of their term tables. Most of them are still
    /// served by tables alone;
    /// [`block_runtime_terms`](Self::block_runtime_terms) counts the
    /// terms that are not. Builds full-width tables if the plan holds
    /// none.
    pub fn block_fallback_gates(&self) -> usize {
        self.block_tables().fallback_gates
    }

    /// Terms of split gates the block plan evaluates per lane at
    /// runtime because their support is wider than the plan's width
    /// cap. Builds full-width tables if the plan holds none.
    pub fn block_runtime_terms(&self) -> usize {
        self.block_tables().rt_terms
    }

    /// The block tables the plan holds, or else full-width ones built
    /// now: `usize::MAX` work leaves the width cap to the budget.
    fn block_tables(&self) -> &BlockTables {
        self.tables_for(usize::MAX)
    }

    /// The block tables the plan holds, or else tables built now for
    /// `work` lanes ([`block_layout`](Self::block_layout)). Each build
    /// is timed and its runtime terms counted in
    /// [`block_metrics`](crate::block_metrics).
    fn tables_for(&self, work: usize) -> &BlockTables {
        self.block.get_or_init(|| {
            let start = Instant::now();
            let tables = self.build_block_tables(work);
            let m = crate::block::block_metrics();
            m.table_build_seconds.record_duration(start.elapsed());
            m.runtime_terms.add(tables.rt_terms as u64);
            tables
        })
    }

    /// Evaluates every packed lane of `block`, leaving one total per
    /// lane in [`BlockScratch::totals`] (lane order = pattern-index
    /// order). Bit-identical to calling
    /// [`estimate_into`](Self::estimate_into) per lane, in every
    /// mode; see the module docs for the kernel split. `Lut` mode
    /// builds the response tables on first use; `DirectSolve` mode
    /// and permuted plans run each lane through the scalar kernel.
    ///
    /// # Errors
    /// * [`EstimateError::BadPattern`] on arity mismatch;
    /// * [`EstimateError::Solver`] from direct-solve mode.
    pub fn estimate_block_into(
        &self,
        scratch: &mut BlockScratch,
        block: &PatternBlock,
        mode: EstimatorMode,
    ) -> Result<(), EstimateError> {
        self.check_block(block)?;
        let len = block.len();
        scratch.totals.clear();
        scratch.totals.resize(len, LeakageBreakdown::ZERO);
        if len == 0 {
            return Ok(());
        }
        if mode == EstimatorMode::DirectSolve || self.in_nets != self.compiled_wiring {
            return self.run_block_scalar(scratch, block, mode);
        }
        self.simulate_block(&mut scratch.words, block);
        match mode {
            EstimatorMode::NoLoading => self.resolve_nominal_block(scratch, len),
            EstimatorMode::Lut => {
                let tables = self.block_tables();
                self.resolve_lut_block(tables, scratch, len);
            }
            EstimatorMode::DirectSolve => unreachable!("handled above"),
        }
        Ok(())
    }

    /// The per-lane reference kernel: every lane is unpacked and run
    /// through the scalar pipeline. Same results and totals layout as
    /// [`estimate_block_into`](Self::estimate_block_into), never any
    /// table build — the kernel every 1-lane block runs on (`lanes =
    /// 1`), and the right call when a plan is too short-lived to
    /// amortize the tables (the MC path compiles a fresh plan per
    /// die).
    ///
    /// # Errors
    /// As [`estimate_block_into`](Self::estimate_block_into).
    pub fn estimate_block_scalar_into(
        &self,
        scratch: &mut BlockScratch,
        block: &PatternBlock,
        mode: EstimatorMode,
    ) -> Result<(), EstimateError> {
        self.check_block(block)?;
        scratch.totals.clear();
        scratch.totals.resize(block.len(), LeakageBreakdown::ZERO);
        self.run_block_scalar(scratch, block, mode)
    }

    /// Packs the seed-derived sweep patterns `start..start + count`
    /// ([`pack_index_block`]) into the scratch's reusable block and
    /// evaluates them via
    /// [`estimate_block_into`](Self::estimate_block_into).
    ///
    /// # Panics
    /// If `count > LANES`.
    ///
    /// # Errors
    /// As [`estimate_block_into`](Self::estimate_block_into).
    pub fn estimate_index_block_into(
        &self,
        scratch: &mut BlockScratch,
        seed: u64,
        start: usize,
        count: usize,
        mode: EstimatorMode,
    ) -> Result<(), EstimateError> {
        let mut block = std::mem::take(&mut scratch.index_block);
        let mut pattern = std::mem::take(&mut scratch.inner.pattern);
        pack_index_block(self.circuit, seed, start, count, &mut pattern, &mut block);
        scratch.inner.pattern = pattern;
        let out = self.estimate_block_into(scratch, &block, mode);
        scratch.index_block = block;
        out
    }

    fn check_block(&self, block: &PatternBlock) -> Result<(), EstimateError> {
        if block.pi_words().len() != self.circuit.inputs().len() {
            return Err(EstimateError::BadPattern(format!(
                "{} packed primary-input words for {} inputs",
                block.pi_words().len(),
                self.circuit.inputs().len()
            )));
        }
        if block.state_words().len() != self.circuit.state_inputs().len() {
            return Err(EstimateError::BadPattern(format!(
                "{} packed DFF-state words for {} flip-flops",
                block.state_words().len(),
                self.circuit.state_inputs().len()
            )));
        }
        Ok(())
    }

    /// The word-parallel simulate kernel: one topo pass over packed
    /// `u64` net words. Each gate ORs together the minterm masks of
    /// its true truth-table rows — the same `eval_logic`-derived slab
    /// the scalar pass indexes — so bit `l` of every net word equals
    /// the scalar simulation of lane `l`. Lanes beyond the block's
    /// length compute the all-zeros pattern and are never read.
    fn simulate_block(&self, words: &mut Vec<u64>, block: &PatternBlock) {
        words.clear();
        words.resize(self.gate_driven.len(), 0);
        for (net, &w) in self.circuit.inputs().iter().zip(block.pi_words()) {
            words[net.0] = w;
        }
        // DFF slave inverters reproduce the state on Q, so the state
        // pseudo-input is the complement (as in `simulate_into`).
        for (net, &w) in self.circuit.state_inputs().iter().zip(block.state_words()) {
            words[net.0] = !w;
        }
        for &g in &self.topo {
            let g = g as usize;
            let (s, e) = (self.in_off[g] as usize, self.in_off[g + 1] as usize);
            let k = e - s;
            let mut ins = [0u64; MAX_PINS];
            for (slot, &net) in ins[..k].iter_mut().zip(&self.in_nets[s..e]) {
                *slot = words[net as usize];
            }
            let base = self.vc_base[g] as usize;
            let mut out = 0u64;
            for v in 0..1usize << k {
                if self.logic_slab[base + v] {
                    let mut m = !0u64;
                    for (j, &w) in ins[..k].iter().enumerate() {
                        m &= if v >> j & 1 == 1 { w } else { !w };
                    }
                    out |= m;
                }
            }
            words[self.out_net[g] as usize] = out;
        }
    }

    /// Per-lane indices over `nets` for the block's first `len` lanes:
    /// bit `j` of lane `l`'s index is bit `l` of `nets[j]`'s packed
    /// word. The one gather every per-lane index comes from (see the
    /// module docs): a bit-matrix transpose, one lane group at a time.
    /// Each net's word splits into 8-lane bytes ([`SPREAD8`]), or
    /// 4-lane nibbles ([`SPREAD4`]) for indices wider than 8 bits, and
    /// each spreads into its group's lanes, shifted to the net's bit.
    /// Only the groups the block fills are built; lanes past `len` in
    /// the last group hold what the dead lanes' bits make, and no
    /// reader looks at them.
    #[inline]
    fn gather_block(words: &[u64], nets: &[u32], len: usize) -> [u16; LANES] {
        debug_assert!(nets.len() <= MAX_SUPPORT_BITS, "{} bits exceed a u16 lane", nets.len());
        let mut idx = [0u16; LANES];
        if nets.len() <= 8 {
            let mut acc = [0u64; LANES / 8];
            let acc = &mut acc[..len.div_ceil(8)];
            for (j, &net) in nets.iter().enumerate() {
                for (a, byte) in acc.iter_mut().zip(words[net as usize].to_le_bytes()) {
                    *a |= SPREAD8[byte as usize] << j;
                }
            }
            for (lanes, a) in idx.chunks_exact_mut(8).zip(&*acc) {
                for (i, byte) in lanes.iter_mut().zip(a.to_le_bytes()) {
                    *i = u16::from(byte);
                }
            }
        } else {
            let mut acc = [0u64; LANES / 4];
            let acc = &mut acc[..len.div_ceil(4)];
            for (j, &net) in nets.iter().enumerate() {
                let w = words[net as usize];
                for (group, a) in acc.iter_mut().enumerate() {
                    *a |= SPREAD4[(w >> (4 * group) & 0xF) as usize] << j;
                }
            }
            for (lanes, a) in idx.chunks_exact_mut(4).zip(&*acc) {
                for (k, i) in lanes.iter_mut().enumerate() {
                    *i = (a >> (16 * k)) as u16;
                }
            }
        }
        idx
    }

    /// `NoLoading` block resolve: per-lane totals accumulate each
    /// gate's nominal breakdown in gate-id order — the scalar
    /// reduction order, so every lane total is bit-identical.
    fn resolve_nominal_block(&self, scratch: &mut BlockScratch, len: usize) {
        for g in 0..self.gate_cell.len() {
            let base = self.vc_base[g] as usize;
            let bits = Self::gather_block(&scratch.words, self.gate_input_nets(GateId(g)), len);
            for (lane, total) in scratch.totals[..len].iter_mut().enumerate() {
                *total += self.vcs[base + bits[lane] as usize].nominal;
            }
        }
    }

    /// `Lut` block resolve: whole-gate table gates add their
    /// precomputed clamped breakdown (indexed by packed support-net
    /// state); split gates sum per-term deltas (table lookups, or
    /// runtime evaluations from per-lane net currents for terms wider
    /// than the width cap) and clamp. Both accumulate into the lane totals in gate-id
    /// order, so every lane reproduces the scalar fold bit-for-bit.
    fn resolve_lut_block(&self, t: &BlockTables, scratch: &mut BlockScratch, len: usize) {
        // Per-lane currents for the nets runtime terms read, folded
        // over each net's loads in the scalar loading pass's
        // (gate, pin) order — the load loop is outermost, but each
        // lane's additions still happen in load order, so every
        // per-lane sum replays the scalar accumulation sequence.
        let need = t.rt_nets.len() * LANES;
        if scratch.rt_cur.len() != need {
            scratch.rt_cur.resize(need, 0.0);
        }
        for slot in 0..t.rt_nets.len() {
            let loads = &t.rt_loads[t.rt_off[slot] as usize..t.rt_off[slot + 1] as usize];
            let cur = &mut scratch.rt_cur[slot * LANES..slot * LANES + LANES];
            cur[..len].fill(0.0);
            for &(h, pin) in loads {
                let h = h as usize;
                let bits = Self::gather_block(&scratch.words, self.gate_input_nets(GateId(h)), len);
                let base = self.vc_base[h] as usize;
                for (lane, c) in cur[..len].iter_mut().enumerate() {
                    let vc = &self.vcs[base + bits[lane] as usize];
                    *c += self.pin_current_slab[(vc.pin_off + pin) as usize];
                }
            }
        }
        for g in 0..self.gate_cell.len() {
            let off = t.tbl_off[g];
            if off != TABLE_FALLBACK {
                let sup = &t.sup_nets[t.sup_off[g] as usize..t.sup_off[g + 1] as usize];
                let tbl = &t.tbl[off as usize..off as usize + (1usize << sup.len())];
                let idx = Self::gather_block(&scratch.words, sup, len);
                for (lane, total) in scratch.totals[..len].iter_mut().enumerate() {
                    *total += tbl[idx[lane] as usize];
                }
            } else {
                // Split gate: per lane, sum the per-term deltas in
                // the scalar kernel's order (pin 0..pins, then the
                // output), then clamp the sum — `VectorChar::
                // leakage`'s exact floating-point sequence, with
                // each delta drawn from a term table or computed by
                // the term routine from the per-lane currents.
                let terms = &t.terms[t.term_off[g] as usize..t.term_off[g + 1] as usize];
                let gbits =
                    Self::gather_block(&scratch.words, self.gate_input_nets(GateId(g)), len);
                let base = self.vc_base[g] as usize;
                let mut acc = [LeakageBreakdown::default(); LANES];
                for (lane, a) in acc[..len].iter_mut().enumerate() {
                    *a = self.vcs[base + gbits[lane] as usize].nominal;
                }
                for term in terms {
                    if term.tbl != TABLE_FALLBACK {
                        let sup = &t.sup_nets
                            [term.sup_start as usize..(term.sup_start + term.sup_len) as usize];
                        let idx = Self::gather_block(&scratch.words, sup, len);
                        for (lane, a) in acc[..len].iter_mut().enumerate() {
                            *a += t.tbl[term.tbl as usize + idx[lane] as usize];
                        }
                        continue;
                    }
                    let (net, pin) = (term.net, term.pin as usize);
                    // Non-driven pin nets have no runtime slot: the
                    // term routine pins their loading to zero without
                    // reading a current.
                    let cur: &[f64] = if self.gate_driven[net as usize] {
                        let s = t.rt_slot[net as usize] as usize * LANES;
                        &scratch.rt_cur[s..s + LANES]
                    } else {
                        &[]
                    };
                    for (lane, a) in acc[..len].iter_mut().enumerate() {
                        let vc = &self.vcs[base + gbits[lane] as usize];
                        *a += self.term(vc, pin, net, || cur[lane]).1;
                    }
                }
                for (total, a) in scratch.totals[..len].iter_mut().zip(&acc) {
                    *total += a.clamped();
                }
            }
        }
    }

    /// Per-lane scalar service for block calls that cannot use the
    /// packed kernels (direct-solve mode, permuted wiring, or the
    /// explicit reference entry point).
    fn run_block_scalar(
        &self,
        scratch: &mut BlockScratch,
        block: &PatternBlock,
        mode: EstimatorMode,
    ) -> Result<(), EstimateError> {
        let mut pattern = std::mem::take(&mut scratch.inner.pattern);
        let mut result = Ok(());
        for lane in 0..block.len() {
            block.get_into(lane, &mut pattern);
            match self.run(&mut scratch.inner, &pattern.pi, &pattern.states, mode) {
                Ok(total) => scratch.totals[lane] = total,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        scratch.inner.pattern = pattern;
        result
    }

    /// Builds [`BlockTables`] for `work` lanes against the compiled
    /// wiring, in two passes. The first
    /// ([`block_layout`](Self::block_layout)) computes every gate's
    /// whole-gate and per-term supports and the plan's width cap
    /// without building an entry; the second
    /// reserves `tbl` at its exact size and builds the tables the
    /// layout admits: a gate whose whole-gate table is chosen gets
    /// one entry per support state, a split gate one table per term
    /// no wider than the cap, and every wider term registers its net
    /// for runtime per-lane current folding.
    fn build_block_tables(&self, work: usize) -> BlockTables {
        let n_gates = self.gate_cell.len();
        let n_nets = self.gate_driven.len();
        let layout = self.block_layout(work);
        // Net → bit position of the table under construction
        // (u32::MAX = absent), reset after each table.
        let mut pos_of: Vec<u32> = vec![u32::MAX; n_nets];
        let entries = layout.entries_at(layout.cap);
        let mut t = BlockTables {
            tbl_off: Vec::with_capacity(n_gates),
            sup_off: Vec::with_capacity(n_gates + 1),
            sup_nets: Vec::new(),
            tbl: Vec::with_capacity(entries),
            term_off: Vec::with_capacity(n_gates + 1),
            terms: Vec::new(),
            rt_nets: Vec::new(),
            rt_slot: vec![u32::MAX; n_nets],
            rt_off: Vec::new(),
            rt_loads: Vec::new(),
            fallback_gates: 0,
            rt_terms: 0,
        };
        t.sup_off.push(0);
        t.term_off.push(0);
        for g in 0..n_gates {
            let s = self.in_off[g] as usize;
            if layout.whole_at(g, layout.cap) {
                let sup = layout.nets(layout.whole[g]);
                t.tbl_off.push(t.tbl.len() as u32);
                t.sup_nets.extend_from_slice(sup);
                Self::push_table(&mut t.tbl, sup, &mut pos_of, |idx, pos_of| {
                    self.gate_entry(g, idx, pos_of)
                });
            } else {
                t.tbl_off.push(TABLE_FALLBACK);
                t.fallback_gates += 1;
                let terms = layout.terms(g);
                let pins = terms.len() - 1;
                for (pin, &term) in terms.iter().enumerate() {
                    let net =
                        if pin < pins { self.compiled_wiring[s + pin] } else { self.out_net[g] };
                    if term.width as usize <= layout.cap {
                        let sup = layout.nets(term);
                        t.terms.push(BlockTerm {
                            tbl: t.tbl.len() as u32,
                            sup_start: t.sup_nets.len() as u32,
                            sup_len: term.width,
                            pin: pin as u32,
                            net,
                        });
                        t.sup_nets.extend_from_slice(sup);
                        Self::push_table(&mut t.tbl, sup, &mut pos_of, |idx, pos_of| {
                            self.term_entry(g, pin, net, idx, pos_of)
                        });
                    } else {
                        t.rt_terms += 1;
                        if self.gate_driven[net as usize] && t.rt_slot[net as usize] == u32::MAX {
                            t.rt_slot[net as usize] = t.rt_nets.len() as u32;
                            t.rt_nets.push(net);
                        }
                        t.terms.push(BlockTerm {
                            tbl: TABLE_FALLBACK,
                            sup_start: 0,
                            sup_len: 0,
                            pin: pin as u32,
                            net,
                        });
                    }
                }
            }
            t.sup_off.push(t.sup_nets.len() as u32);
            t.term_off.push(t.terms.len() as u32);
        }
        debug_assert_eq!(t.tbl.len(), entries, "the tables built are the layout's");
        t.rt_off.push(0);
        for &net in &t.rt_nets {
            for load in self.circuit.net_loads(NetId(net as usize)) {
                t.rt_loads.push((load.gate.0 as u32, load.pin as u32));
            }
            t.rt_off.push(t.rt_loads.len() as u32);
        }
        t
    }

    /// The table layout over the compiled wiring. Each gate's
    /// whole-gate support holds its own inputs plus the inputs of
    /// every gate loading its gate-driven input nets and its output
    /// net — exactly the nets its scalar `Lut` arithmetic depends on
    /// (loads on ideal-source nets never matter: the scalar pass pins
    /// their loading to zero). Each term's support holds the gate's
    /// inputs (the term's LUT choice and own-pin subtraction read the
    /// gate's input vector) plus the inputs of the gates loading the
    /// term's net, if gate-driven. The width cap is then the largest
    /// width up to `min(MAX_SUPPORT_BITS, floor(log2(work)))` whose
    /// tables fit [`MAX_TABLE_ENTRIES`]: a plan built for `work` lanes
    /// holds no table with more entries than those lanes, and
    /// `usize::MAX` leaves the cap to the budget alone.
    fn block_layout(&self, work: usize) -> Layout {
        let max_bits = MAX_SUPPORT_BITS.min(work.ilog2() as usize);
        let n_gates = self.gate_cell.len();
        let wiring = &self.compiled_wiring;
        let mut pos_of = vec![u32::MAX; self.gate_driven.len()];
        let mut layout = Layout {
            nets: Vec::new(),
            whole: Vec::with_capacity(n_gates),
            term_off: Vec::with_capacity(n_gates + 1),
            terms: Vec::with_capacity(wiring.len() + n_gates),
            cap: 0,
        };
        // Keeps a candidate's nets only when a table could cover it.
        let keep = |layout: &mut Layout, support: &[u32]| {
            let start = layout.nets.len() as u32;
            if support.len() <= max_bits {
                layout.nets.extend_from_slice(support);
            }
            Support { start, width: support.len() as u32 }
        };
        let mut support: Vec<u32> = Vec::new();
        layout.term_off.push(0);
        for g in 0..n_gates {
            let ins = &wiring[self.in_off[g] as usize..self.in_off[g + 1] as usize];
            let out = self.out_net[g];
            Self::push_support(&mut support, &mut pos_of, ins);
            for &net in ins.iter().chain(std::iter::once(&out)) {
                if self.gate_driven[net as usize] {
                    self.push_load_support(&mut support, &mut pos_of, net);
                }
            }
            let whole = keep(&mut layout, &support);
            layout.whole.push(whole);
            Self::clear_support(&mut support, &mut pos_of);
            for &net in ins.iter().chain(std::iter::once(&out)) {
                Self::push_support(&mut support, &mut pos_of, ins);
                if self.gate_driven[net as usize] {
                    self.push_load_support(&mut support, &mut pos_of, net);
                }
                let term = keep(&mut layout, &support);
                layout.terms.push(term);
                Self::clear_support(&mut support, &mut pos_of);
            }
            layout.term_off.push(layout.terms.len() as u32);
        }
        // Every support holds its gate's inputs, so no table is
        // narrower than one bit and a zero cap builds nothing.
        layout.cap = (1..=max_bits)
            .rev()
            .find(|&cap| layout.entries_at(cap) <= MAX_TABLE_ENTRIES)
            .unwrap_or(0);
        layout
    }

    /// Appends one table to `tbl`: entry `idx` is `entry(idx,
    /// pos_of)` with support net `sup[j]` at bit `j`.
    fn push_table(
        tbl: &mut Vec<LeakageBreakdown>,
        sup: &[u32],
        pos_of: &mut [u32],
        entry: impl Fn(usize, &[u32]) -> LeakageBreakdown,
    ) {
        for (j, &net) in sup.iter().enumerate() {
            pos_of[net as usize] = j as u32;
        }
        let pos: &[u32] = pos_of;
        tbl.extend((0..1usize << sup.len()).map(|idx| entry(idx, pos)));
        for &net in sup {
            pos_of[net as usize] = u32::MAX;
        }
    }

    /// Adds `nets` to the support set under construction (dedup via
    /// `pos_of`).
    fn push_support(support: &mut Vec<u32>, pos_of: &mut [u32], nets: &[u32]) {
        for &net in nets {
            if pos_of[net as usize] == u32::MAX {
                pos_of[net as usize] = support.len() as u32;
                support.push(net);
            }
        }
    }

    /// Adds the inputs of every gate loading `net` to the support
    /// set — the nets `net`'s loading current depends on.
    fn push_load_support(&self, support: &mut Vec<u32>, pos_of: &mut [u32], net: u32) {
        for load in self.circuit.net_loads(NetId(net as usize)) {
            let h = load.gate.0;
            let (hs, he) = (self.in_off[h] as usize, self.in_off[h + 1] as usize);
            Self::push_support(support, pos_of, &self.compiled_wiring[hs..he]);
        }
    }

    fn clear_support(support: &mut Vec<u32>, pos_of: &mut [u32]) {
        for &net in support.iter() {
            pos_of[net as usize] = u32::MAX;
        }
        support.clear();
    }

    /// Gate `h`'s input bits, over the compiled wiring, when the
    /// support nets hold the values packed in `idx` (bit
    /// `pos_of[net]`). Only valid while every input of `h` is in the
    /// support set.
    fn bits_at(&self, h: usize, idx: usize, pos_of: &[u32]) -> usize {
        let (s, e) = (self.in_off[h] as usize, self.in_off[h + 1] as usize);
        let mut bits = 0usize;
        for (k, &net) in self.compiled_wiring[s..e].iter().enumerate() {
            bits |= (idx >> pos_of[net as usize] & 1) << k;
        }
        bits
    }

    /// `net`'s loading current under support state `idx`: the fold
    /// over `net_loads` in the scalar loading pass's per-net
    /// accumulation sequence, so the sum is bit-identical to
    /// `scratch.net_current[net]` whenever the support nets take
    /// these values.
    fn current_at(&self, net: u32, idx: usize, pos_of: &[u32]) -> f64 {
        let mut c = 0.0;
        for load in self.circuit.net_loads(NetId(net as usize)) {
            let h = load.gate.0;
            let vc = &self.vcs[self.vc_base[h] as usize + self.bits_at(h, idx, pos_of)];
            c += self.pin_current_slab[vc.pin_off as usize + load.pin];
        }
        c
    }

    /// One whole-gate response-table entry: gate `g`'s clamped
    /// `Lut`-mode breakdown under support state `idx`. Every
    /// floating-point operation — the per-net current folds, the
    /// per-pin and output deltas, the clamp — replays the scalar
    /// kernel exactly, so the stored entry is bit-identical to what
    /// the scalar path computes whenever the support nets take these
    /// values.
    fn gate_entry(&self, g: usize, idx: usize, pos_of: &[u32]) -> LeakageBreakdown {
        let s = self.in_off[g] as usize;
        let vc = &self.vcs[self.vc_base[g] as usize + self.bits_at(g, idx, pos_of)];
        let pins = vc.pins as usize;
        let mut b = vc.nominal;
        for k in 0..pins {
            let net = self.compiled_wiring[s + k];
            b += self.term(vc, k, net, || self.current_at(net, idx, pos_of)).1;
        }
        let out = self.out_net[g];
        b += self.term(vc, pins, out, || self.current_at(out, idx, pos_of)).1;
        b.clamped()
    }

    /// One per-term table entry: the single delta gate `g`'s scalar
    /// kernel adds for `pin` (or the output response at `pin ==
    /// pins`) under support state `idx` — bit-identical to the scalar
    /// pass's term by the same replay argument as
    /// [`gate_entry`](Self::gate_entry). Unclamped: the clamp applies
    /// to the per-lane sum of terms, in the resolve kernel.
    fn term_entry(
        &self,
        g: usize,
        pin: usize,
        net: u32,
        idx: usize,
        pos_of: &[u32],
    ) -> LeakageBreakdown {
        let vc = &self.vcs[self.vc_base[g] as usize + self.bits_at(g, idx, pos_of)];
        self.term(vc, pin, net, || self.current_at(net, idx, pos_of)).1
    }

    /// The fused simulation + loading + leakage passes.
    fn run(
        &self,
        scratch: &mut EstimateScratch,
        pi: &[bool],
        states: &[bool],
        mode: EstimatorMode,
    ) -> Result<LeakageBreakdown, EstimateError> {
        let n_gates = self.gate_cell.len();
        scratch.values.clear();
        scratch.values.resize(self.gate_driven.len(), false);
        scratch.gate_vc.clear();
        scratch.gate_vc.resize(n_gates, 0);
        scratch.per_gate.clear();
        scratch.per_gate.resize(n_gates, LeakageBreakdown::ZERO);

        // Fused simulation pass (topo order, like `simulate`): collect
        // each gate's input bits once, resolve its vector-char slab
        // index, and propagate its output level from the precomputed
        // `eval_logic` slab.
        for (net, &v) in self.circuit.inputs().iter().zip(pi) {
            scratch.values[net.0] = v;
        }
        for (net, &state) in self.circuit.state_inputs().iter().zip(states) {
            scratch.values[net.0] = !state;
        }
        for &g in &self.topo {
            let g = g as usize;
            let (s, e) = (self.in_off[g] as usize, self.in_off[g + 1] as usize);
            let mut bits = 0u32;
            for (k, &net) in self.in_nets[s..e].iter().enumerate() {
                bits |= (scratch.values[net as usize] as u32) << k;
            }
            let vc_idx = self.vc_base[g] + bits;
            scratch.gate_vc[g] = vc_idx;
            scratch.values[self.out_net[g] as usize] = self.logic_slab[vc_idx as usize];
        }

        // Loading pass, gate-id order — the accumulation order of
        // `LoadingState::build`, so per-net sums are bit-identical.
        if mode != EstimatorMode::NoLoading {
            scratch.net_current.clear();
            scratch.net_current.resize(self.gate_driven.len(), 0.0);
            for g in 0..n_gates {
                let vc = &self.vcs[scratch.gate_vc[g] as usize];
                let s = self.in_off[g] as usize;
                let pins = vc.pins as usize;
                for k in 0..pins {
                    scratch.net_current[self.in_nets[s + k] as usize] +=
                        self.pin_current_slab[vc.pin_off as usize + k];
                }
            }
        }

        // Leakage pass. Gates are independent given the loading state,
        // so traversal order cannot change any value — the Lut and
        // NoLoading passes run in gate-id order (cache-sequential over
        // every per-gate array), while DirectSolve keeps the reference
        // walk's topo order so solver errors surface for the same gate
        // `estimate()` would report.
        match mode {
            EstimatorMode::NoLoading => {
                for g in 0..n_gates {
                    scratch.per_gate[g] = self.vcs[scratch.gate_vc[g] as usize].nominal;
                }
            }
            EstimatorMode::Lut => {
                let current = &scratch.net_current;
                for g in 0..n_gates {
                    let vc = &self.vcs[scratch.gate_vc[g] as usize];
                    let pins = vc.pins as usize;
                    let in_off = self.in_off[g] as usize;
                    // `VectorChar::leakage` verbatim: nominal, plus the
                    // per-pin input deltas in pin order, plus the
                    // output delta, clamped non-negative.
                    let mut b = vc.nominal;
                    for k in 0..pins {
                        let net = self.in_nets[in_off + k];
                        b += self.term(vc, k, net, || current[net as usize]).1;
                    }
                    let out = self.out_net[g];
                    b += self.term(vc, pins, out, || current[out as usize]).1;
                    scratch.per_gate[g] = b.clamped();
                }
            }
            EstimatorMode::DirectSolve => {
                let current = &scratch.net_current;
                for &g in &self.topo {
                    let g = g as usize;
                    let vc = &self.vcs[scratch.gate_vc[g] as usize];
                    let pins = vc.pins as usize;
                    let in_off = self.in_off[g] as usize;
                    let loading =
                        |pin: usize, net: u32| self.term(vc, pin, net, || current[net as usize]).0;
                    let mut il_in = [0.0_f64; MAX_PINS];
                    for (k, slot) in il_in[..pins].iter_mut().enumerate() {
                        *slot = loading(k, self.in_nets[in_off + k]);
                    }
                    let il_out = loading(pins, self.out_net[g]);
                    scratch.per_gate[g] = nanoleak_cells::eval_loaded(
                        &self.library.tech,
                        self.library.temp,
                        self.gate_cell[g],
                        vc.vector,
                        &il_in[..pins],
                        il_out,
                    )?
                    .breakdown;
                }
            }
        }

        // The same sequential gate-id-order reduction as
        // `CircuitLeakage::from_gates`.
        Ok(scratch.per_gate.iter().fold(LeakageBreakdown::ZERO, |acc, b| acc + *b))
    }

    /// Term `pin` of a gate in state `vc` (its input response at `pin
    /// < pins`, its output response at `pin == pins`), loaded through
    /// `net`: the term's loading magnitude, and the delta its table
    /// adds there. An input term's loading is the other gates' summed
    /// pin currents on its net (`LoadingState::input_loading`
    /// verbatim: the gate's own pin current comes off the slab), zero
    /// on an ideal-source net; the output term's is the whole net
    /// current. `current` yields the summed pin current on `net`, and
    /// is called only when the magnitude reads it. Every kernel takes
    /// its terms from here — the scalar pass, the whole-gate and
    /// per-term table entries, the block path's runtime terms and
    /// direct-solve's loadings — so all of them replay
    /// `VectorChar::leakage`'s arithmetic alike.
    #[inline]
    fn term(
        &self,
        vc: &PlanVectorChar,
        pin: usize,
        net: u32,
        current: impl FnOnce() -> f64,
    ) -> (f64, LeakageBreakdown) {
        let il = if pin == vc.pins as usize {
            current().abs()
        } else if self.gate_driven[net as usize] {
            (current() - self.pin_current_slab[vc.pin_off as usize + pin]).abs()
        } else {
            0.0
        };
        (il, self.blut_eval(vc.ys_off as usize + pin * self.table_len, il))
    }

    /// Evaluates the response table whose ordinates start at `ys` in
    /// `ys_slab` at loading magnitude `x`: one [`LoadingGrid::locate`]
    /// shared across the three components, and two adjacent ordinate
    /// triples. The arithmetic is `BreakdownLut::eval`'s, verbatim.
    #[inline]
    fn blut_eval(&self, ys: usize, x: f64) -> LeakageBreakdown {
        match self.grid.locate(x) {
            Locus::Knot(i) => {
                let t = &self.ys_slab[ys + 3 * i..ys + 3 * i + 3];
                LeakageBreakdown { sub: t[0], gate: t[1], btbt: t[2] }
            }
            Locus::Segment(s, d) => {
                let t = &self.ys_slab[ys + 3 * s..ys + 3 * s + 6];
                LeakageBreakdown {
                    sub: t[0] + d * (t[3] - t[0]),
                    gate: t[1] + d * (t[4] - t[1]),
                    btbt: t[2] + d * (t[5] - t[2]),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::estimate;
    use nanoleak_cells::CharacterizeOptions;
    use nanoleak_device::Technology;
    use nanoleak_netlist::generate::{iscas_like, random_circuit, RandomCircuitSpec};
    use nanoleak_netlist::normalize::normalize;
    use nanoleak_netlist::CircuitBuilder;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn library() -> Arc<CellLibrary> {
        CellLibrary::shared_with_options(
            &Technology::d25(),
            300.0,
            &CharacterizeOptions::coarse(&CellType::ALL),
        )
    }

    fn assert_bit_identical(
        circuit: &Circuit,
        lib: &CellLibrary,
        pattern: &Pattern,
        mode: EstimatorMode,
    ) {
        let reference = estimate(circuit, lib, pattern, mode).unwrap();
        let plan = CompiledEstimator::compile(circuit, lib).unwrap();
        let mut scratch = plan.scratch();
        let total = plan.estimate_into(&mut scratch, pattern, mode).unwrap();
        assert_eq!(total.total().to_bits(), reference.total.total().to_bits(), "{mode:?}");
        assert_eq!(total, reference.total);
        assert_eq!(scratch.per_gate(), reference.per_gate.as_slice(), "{mode:?}");
    }

    #[test]
    fn compiled_matches_reference_on_fanout_web() {
        let mut b = CircuitBuilder::new("fanout");
        let a = b.add_input("a");
        let mid = b.add_gate(CellType::Inv, &[a], "mid");
        for i in 0..6 {
            let y = b.add_gate(CellType::Inv, &[mid], &format!("y{i}"));
            b.mark_output(y);
        }
        let circuit = b.build().unwrap();
        let lib = library();
        for pi in [false, true] {
            let p = Pattern { pi: vec![pi], states: vec![] };
            for mode in [EstimatorMode::NoLoading, EstimatorMode::Lut, EstimatorMode::DirectSolve] {
                assert_bit_identical(&circuit, &lib, &p, mode);
            }
        }
    }

    #[test]
    fn compiled_index_stream_matches_reference_pattern_stream() {
        let raw = random_circuit(&RandomCircuitSpec::new("plan-idx", 6, 3, 40, 2, 17));
        let circuit = normalize(&raw).unwrap();
        let lib = library();
        let plan = CompiledEstimator::compile(&circuit, &lib).unwrap();
        let mut scratch = plan.scratch();
        for index in 0..16 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(mix(2005, index as u64));
            let pattern = Pattern::random(&circuit, &mut rng);
            let reference = estimate(&circuit, &lib, &pattern, EstimatorMode::Lut).unwrap();
            let total =
                plan.estimate_index_into(&mut scratch, 2005, index, EstimatorMode::Lut).unwrap();
            assert_eq!(total, reference.total, "index {index}");
        }
    }

    #[test]
    fn permuted_plan_matches_recompiled_permuted_circuit() {
        // In-place pin permutation must be bit-identical to compiling
        // a circuit built with that pin order — totals and per-gate
        // breakdowns — in every estimator mode.
        fn build(swap: bool) -> Circuit {
            let mut b = CircuitBuilder::new("perm");
            let a = b.add_input("a");
            let c = b.add_input("b");
            let x = b.add_gate(CellType::Inv, &[c], "x");
            let pins = if swap { [x, a] } else { [a, x] };
            let y = b.add_gate(CellType::Nand2, &pins, "y");
            b.mark_output(y);
            b.build().unwrap()
        }
        let base = build(false);
        let swapped = build(true);
        let lib = library();
        let mut plan = CompiledEstimator::compile(&base, &lib).unwrap();
        let swapped_plan = CompiledEstimator::compile(&swapped, &lib).unwrap();
        let mut s1 = plan.scratch();
        let mut s2 = swapped_plan.scratch();
        let nand = GateId(1);
        for mode in [EstimatorMode::NoLoading, EstimatorMode::Lut, EstimatorMode::DirectSolve] {
            for bits in 0..4u32 {
                let p = Pattern { pi: vec![bits & 1 == 1, bits & 2 == 2], states: vec![] };
                plan.permute_gate_inputs(nand, &[1, 0]);
                let permuted = plan.estimate_into(&mut s1, &p, mode).unwrap();
                let direct = swapped_plan.estimate_into(&mut s2, &p, mode).unwrap();
                assert_eq!(permuted.total().to_bits(), direct.total().to_bits(), "{mode:?}");
                assert_eq!(s1.per_gate(), s2.per_gate(), "{mode:?} {bits}");
                // Undo restores the original plan exactly.
                plan.permute_gate_inputs(nand, &[1, 0]);
                let restored = plan.estimate_into(&mut s1, &p, mode).unwrap();
                let reference = estimate(&base, &lib, &p, mode).unwrap();
                assert_eq!(restored.total().to_bits(), reference.total.total().to_bits());
            }
        }
    }

    #[test]
    fn scratch_state_never_leaks_across_patterns() {
        // Estimating A, then B, then A again must reproduce A exactly
        // even though the scratch was dirtied in between (different
        // vector, different mode).
        let raw = random_circuit(&RandomCircuitSpec::new("plan-reuse", 5, 3, 30, 1, 3));
        let circuit = normalize(&raw).unwrap();
        let lib = library();
        let plan = CompiledEstimator::compile(&circuit, &lib).unwrap();
        let mut scratch = plan.scratch();
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let a = Pattern::random(&circuit, &mut rng);
        let b = Pattern::random(&circuit, &mut rng);
        let first = plan.estimate_into(&mut scratch, &a, EstimatorMode::Lut).unwrap();
        let _ = plan.estimate_into(&mut scratch, &b, EstimatorMode::NoLoading).unwrap();
        let _ = plan.estimate_into(&mut scratch, &b, EstimatorMode::Lut).unwrap();
        let again = plan.estimate_into(&mut scratch, &a, EstimatorMode::Lut).unwrap();
        assert_eq!(first, again);
    }

    #[test]
    fn compile_reports_missing_cells_up_front() {
        let mut b = CircuitBuilder::new("missing");
        let a = b.add_input("a");
        let x = b.add_gate(CellType::Nor2, &[a, a], "x");
        b.mark_output(x);
        let circuit = b.build().unwrap();
        let lib = CellLibrary::shared_with_options(
            &Technology::d25(),
            300.0,
            &CharacterizeOptions::coarse(&[CellType::Inv]),
        );
        assert!(matches!(
            CompiledEstimator::compile(&circuit, &lib),
            Err(EstimateError::MissingCell(CellType::Nor2))
        ));
    }

    #[test]
    fn bad_pattern_arity_rejected() {
        let mut b = CircuitBuilder::new("arity");
        let a = b.add_input("a");
        let y = b.add_gate(CellType::Inv, &[a], "y");
        b.mark_output(y);
        let circuit = b.build().unwrap();
        let lib = library();
        let plan = CompiledEstimator::compile(&circuit, &lib).unwrap();
        let mut scratch = plan.scratch();
        let p = Pattern { pi: vec![], states: vec![] };
        assert!(matches!(
            plan.estimate_into(&mut scratch, &p, EstimatorMode::Lut),
            Err(EstimateError::BadPattern(_))
        ));
    }

    /// Pack `patterns` and check every block entry point reproduces
    /// the scalar path bit-for-bit, lane by lane.
    fn assert_block_bit_identical(
        plan: &CompiledEstimator,
        patterns: &[Pattern],
        mode: EstimatorMode,
    ) {
        assert!(patterns.len() <= LANES);
        let mut block = PatternBlock::for_circuit(plan.circuit());
        for p in patterns {
            block.push(p);
        }
        let mut bs = plan.block_scratch();
        let mut ss = plan.scratch();
        plan.estimate_block_into(&mut bs, &block, mode).unwrap();
        assert_eq!(bs.totals().len(), patterns.len());
        let want: Vec<LeakageBreakdown> =
            patterns.iter().map(|p| plan.estimate_into(&mut ss, p, mode).unwrap()).collect();
        for (lane, (got, want)) in bs.totals().iter().zip(&want).enumerate() {
            assert_eq!(got.total().to_bits(), want.total().to_bits(), "{mode:?} lane {lane}");
            assert_eq!(got, want, "{mode:?} lane {lane}");
        }
        // The explicit per-lane reference kernel agrees too.
        plan.estimate_block_scalar_into(&mut bs, &block, mode).unwrap();
        assert_eq!(bs.totals(), want.as_slice(), "{mode:?} scalar block kernel");
    }

    #[test]
    fn block_path_matches_scalar_on_random_circuit_all_modes() {
        let raw = random_circuit(&RandomCircuitSpec::new("blk", 6, 3, 40, 2, 99));
        let circuit = normalize(&raw).unwrap();
        let lib = library();
        let plan = CompiledEstimator::compile(&circuit, &lib).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        // A full block, and tails of several lengths (incl. one lane).
        for len in [LANES, 1, 7, 63] {
            let patterns: Vec<Pattern> =
                (0..len).map(|_| Pattern::random(&circuit, &mut rng)).collect();
            for mode in [EstimatorMode::NoLoading, EstimatorMode::Lut] {
                assert_block_bit_identical(&plan, &patterns, mode);
            }
        }
    }

    #[test]
    fn block_direct_solve_matches_scalar() {
        let raw = random_circuit(&RandomCircuitSpec::new("blk-ds", 4, 2, 8, 0, 5));
        let circuit = normalize(&raw).unwrap();
        let lib = library();
        let plan = CompiledEstimator::compile(&circuit, &lib).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let patterns: Vec<Pattern> = (0..5).map(|_| Pattern::random(&circuit, &mut rng)).collect();
        assert_block_bit_identical(&plan, &patterns, EstimatorMode::DirectSolve);
    }

    #[test]
    fn block_fallback_gates_match_scalar_on_wide_fanout_hub() {
        // A hub net loading enough 2-pin gates that every gate on the
        // hub exceeds MAX_SUPPORT_BITS — exercising the runtime
        // fallback kernel against the scalar path.
        let mut b = CircuitBuilder::new("hub");
        let a = b.add_input("a");
        let hub = b.add_gate(CellType::Inv, &[a], "hub");
        let mut side = a;
        for i in 0..(MAX_SUPPORT_BITS + 2) {
            side = b.add_gate(CellType::Nand2, &[hub, side], &format!("y{i}"));
            b.mark_output(side);
        }
        let circuit = b.build().unwrap();
        let lib = library();
        let plan = CompiledEstimator::compile(&circuit, &lib).unwrap();
        assert!(plan.block_fallback_gates() > 0, "hub circuit must exercise the fallback");
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let patterns: Vec<Pattern> =
            (0..LANES).map(|_| Pattern::random(&circuit, &mut rng)).collect();
        for mode in [EstimatorMode::NoLoading, EstimatorMode::Lut] {
            assert_block_bit_identical(&plan, &patterns, mode);
        }
    }

    #[test]
    fn block_index_stream_matches_scalar_index_stream() {
        let raw = random_circuit(&RandomCircuitSpec::new("blk-idx", 6, 3, 40, 2, 21));
        let circuit = normalize(&raw).unwrap();
        let lib = library();
        let plan = CompiledEstimator::compile(&circuit, &lib).unwrap();
        let mut bs = plan.block_scratch();
        let mut ss = plan.scratch();
        // Tail count not divisible by LANES, non-zero start.
        plan.estimate_index_block_into(&mut bs, 2005, 130, 41, EstimatorMode::Lut).unwrap();
        assert_eq!(bs.totals().len(), 41);
        for (i, got) in bs.totals().iter().enumerate() {
            let want =
                plan.estimate_index_into(&mut ss, 2005, 130 + i, EstimatorMode::Lut).unwrap();
            assert_eq!(got.total().to_bits(), want.total().to_bits(), "index {}", 130 + i);
        }
        // A default (unsized) scratch warms itself up to the same bits.
        let mut cold = BlockScratch::default();
        plan.estimate_index_block_into(&mut cold, 2005, 130, 41, EstimatorMode::Lut).unwrap();
        assert_eq!(cold.totals(), bs.totals());
    }

    #[test]
    fn permuted_plan_blocks_fall_back_and_stay_correct() {
        // After permute_gate_inputs the response tables no longer
        // describe the live wiring; the block path must detect the
        // divergence and serve lanes through the scalar kernel — and
        // resume table service once the permutation is undone.
        fn build(swap: bool) -> Circuit {
            let mut b = CircuitBuilder::new("perm-blk");
            let a = b.add_input("a");
            let c = b.add_input("b");
            let x = b.add_gate(CellType::Inv, &[c], "x");
            let pins = if swap { [x, a] } else { [a, x] };
            let y = b.add_gate(CellType::Nand2, &pins, "y");
            b.mark_output(y);
            b.build().unwrap()
        }
        let lib = library();
        let base = build(false);
        let mut plan = CompiledEstimator::compile(&base, &lib).unwrap();
        let swapped = build(true);
        let swapped_plan = CompiledEstimator::compile(&swapped, &lib).unwrap();
        plan.prepare_block(); // tables built against the original wiring
        let mut block = PatternBlock::for_arity(2, 0);
        for bits in 0..4u32 {
            block.push(&Pattern { pi: vec![bits & 1 == 1, bits & 2 == 2], states: vec![] });
        }
        let mut bs = plan.block_scratch();
        let mut want = swapped_plan.block_scratch();
        plan.permute_gate_inputs(GateId(1), &[1, 0]);
        plan.estimate_block_into(&mut bs, &block, EstimatorMode::Lut).unwrap();
        swapped_plan.estimate_block_into(&mut want, &block, EstimatorMode::Lut).unwrap();
        assert_eq!(bs.totals(), want.totals(), "permuted block must match the swapped compile");
        // Undo: the compiled wiring is restored, tables serve again.
        plan.permute_gate_inputs(GateId(1), &[1, 0]);
        let mut ss = plan.scratch();
        plan.estimate_block_into(&mut bs, &block, EstimatorMode::Lut).unwrap();
        let mut p = Pattern::default();
        for lane in 0..block.len() {
            block.get_into(lane, &mut p);
            let want = plan.estimate_into(&mut ss, &p, EstimatorMode::Lut).unwrap();
            assert_eq!(bs.totals()[lane].total().to_bits(), want.total().to_bits());
        }
    }

    #[test]
    fn tables_built_on_a_permuted_plan_describe_the_compiled_wiring() {
        // Building the tables while a permutation is in force must
        // still describe the compiled wiring, which the block path
        // trusts again once the permutation is undone.
        let mut b = CircuitBuilder::new("perm-build");
        let a = b.add_input("a");
        let c = b.add_input("b");
        let x = b.add_gate(CellType::Inv, &[c], "x");
        let y = b.add_gate(CellType::Nand2, &[a, x], "y");
        let z = b.add_gate(CellType::Nand2, &[x, a], "z");
        b.mark_output(y);
        b.mark_output(z);
        let circuit = b.build().unwrap();
        let lib = library();
        let mut plan = CompiledEstimator::compile(&circuit, &lib).unwrap();
        plan.permute_gate_inputs(GateId(1), &[1, 0]);
        let _ = plan.block_fallback_gates();
        plan.permute_gate_inputs(GateId(1), &[1, 0]);
        let patterns: Vec<Pattern> = (0..4u32)
            .map(|bits| Pattern { pi: vec![bits & 1 == 1, bits & 2 == 2], states: vec![] })
            .collect();
        assert_block_bit_identical(&plan, &patterns, EstimatorMode::Lut);
    }

    #[test]
    fn budget_bound_layout_buys_the_narrowest_tables_and_matches_scalar() {
        // s5378's supports would take more than MAX_TABLE_ENTRIES at
        // the full MAX_SUPPORT_BITS (support widths are structural,
        // so on any grid): the width cap binds, all three tiers serve
        // lanes, and every lane still equals the scalar path.
        let circuit = normalize(&iscas_like("s5378").unwrap()).unwrap();
        let lib = library();
        let plan = CompiledEstimator::compile(&circuit, &lib).unwrap();
        let t = plan.block_tables();
        let layout = plan.block_layout(usize::MAX);
        assert!(layout.cap < MAX_SUPPORT_BITS, "the budget must bind on s5378");
        assert!(layout.entries_at(layout.cap + 1) > MAX_TABLE_ENTRIES);
        assert!(t.tbl.len() <= MAX_TABLE_ENTRIES, "{} table entries", t.tbl.len());
        assert!(t.rt_terms > 0 && t.fallback_gates < circuit.gate_count());

        let mut widest = 0;
        let mut runtime = Vec::new();
        for g in 0..circuit.gate_count() {
            let terms = layout.terms(g);
            if t.tbl_off[g] != TABLE_FALLBACK {
                let w = (t.sup_off[g + 1] - t.sup_off[g]) as usize;
                let split: usize = terms.iter().map(|term| 1usize << term.width).sum();
                assert!(1 << w <= split, "gate {g}: whole table 2^{w} > term tables {split}");
                widest = widest.max(w);
                continue;
            }
            let built = &t.terms[t.term_off[g] as usize..t.term_off[g + 1] as usize];
            assert_eq!(built.len(), terms.len());
            for (term, cand) in built.iter().zip(terms) {
                if term.tbl == TABLE_FALLBACK {
                    runtime.push(cand.width as usize);
                } else {
                    assert_eq!(term.sup_len, cand.width);
                    widest = widest.max(term.sup_len as usize);
                }
            }
        }
        assert_eq!(runtime.len(), t.rt_terms);
        let narrowest = runtime.iter().copied().min().unwrap();
        assert!(narrowest > widest, "runtime term of width {narrowest}, table of width {widest}");

        // Two full blocks and a partial tail.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5378);
        for len in [LANES, LANES, 37] {
            let patterns: Vec<Pattern> =
                (0..len).map(|_| Pattern::random(&circuit, &mut rng)).collect();
            for mode in [EstimatorMode::Lut, EstimatorMode::NoLoading] {
                assert_block_bit_identical(&plan, &patterns, mode);
            }
        }
    }

    /// The widest table `t` holds, whole-gate or per-term.
    fn widest_table(t: &BlockTables) -> usize {
        let whole = (0..t.tbl_off.len())
            .filter(|&g| t.tbl_off[g] != TABLE_FALLBACK)
            .map(|g| (t.sup_off[g + 1] - t.sup_off[g]) as usize);
        let terms = t.terms.iter().filter(|term| term.tbl != TABLE_FALLBACK);
        whole.chain(terms.map(|term| term.sup_len as usize)).max().unwrap_or(0)
    }

    #[test]
    fn promoted_tables_are_no_wider_than_the_work_that_paid_for_them() {
        // s838's full-width layout holds tables wider than 8 bits.
        let circuit = normalize(&iscas_like("s838").unwrap()).unwrap();
        let lib = library();
        let plan = CompiledEstimator::compile(&circuit, &lib).unwrap();
        assert_eq!(plan.lut_lanes(0, 400), 1, "400 lanes stay under break-even");
        assert!(plan.block.get().is_none());
        assert_eq!(plan.lut_lanes(0, 100), LANES, "500 lanes promote the plan");
        let promoted = plan.block.get().expect("the promoting call builds the tables");
        assert!(widest_table(promoted) <= 8, "floor(log2(500)) = 8 bits");
        assert_eq!(plan.lut_lanes(0, 1), LANES, "a plan holding its tables runs packed");
        let mut rng = rand::rngs::StdRng::seed_from_u64(838);
        for len in [LANES, 37] {
            let patterns: Vec<Pattern> =
                (0..len).map(|_| Pattern::random(&circuit, &mut rng)).collect();
            assert_block_bit_identical(&plan, &patterns, EstimatorMode::Lut);
        }

        let fresh = CompiledEstimator::compile(&circuit, &lib).unwrap();
        fresh.prepare_block();
        let full = fresh.block.get().unwrap();
        assert_eq!(widest_table(full), fresh.block_layout(usize::MAX).cap);
        assert!(widest_table(full) > 8, "prepare_block builds at full width");
        assert!(full.tbl.len() > promoted.tbl.len());
    }

    /// The per-lane gather the transpose replaced, one shift-and-mask
    /// per net per lane: the yardstick for
    /// [`CompiledEstimator::gather_block`].
    fn gather_per_lane(words: &[u64], nets: &[u32], len: usize) -> [u16; LANES] {
        let mut idx = [0u16; LANES];
        for (j, &net) in nets.iter().enumerate() {
            let w = words[net as usize];
            for (lane, i) in idx[..len].iter_mut().enumerate() {
                *i |= ((w >> lane & 1) as u16) << j;
            }
        }
        idx
    }

    #[test]
    fn transposed_gather_matches_the_per_lane_gather() {
        // Every index width a table or a gate's inputs can take, every
        // live lane count, on seeded words whose dead lanes (past
        // `len`) are random or all set. Nets repeat, as a gate's
        // inputs may.
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x6761_7468);
        let random: Vec<u64> = (0..24).map(|_| rng.gen()).collect();
        for width in 0..=MAX_SUPPORT_BITS {
            for len in 1..=LANES {
                let nets: Vec<u32> =
                    (0..width).map(|_| rng.gen_range(0..random.len() as u32)).collect();
                let dead = u64::MAX.checked_shl(len as u32).unwrap_or(0);
                let set: Vec<u64> = random.iter().map(|w| w | dead).collect();
                for words in [&random, &set] {
                    let got = CompiledEstimator::gather_block(words, &nets, len);
                    let want = gather_per_lane(words, &nets, len);
                    assert_eq!(got[..len], want[..len], "width {width}, {len} lanes, {nets:?}");
                }
            }
        }
    }

    #[test]
    fn block_arity_mismatch_rejected() {
        let mut b = CircuitBuilder::new("blk-arity");
        let a = b.add_input("a");
        let y = b.add_gate(CellType::Inv, &[a], "y");
        b.mark_output(y);
        let circuit = b.build().unwrap();
        let lib = library();
        let plan = CompiledEstimator::compile(&circuit, &lib).unwrap();
        let mut bs = plan.block_scratch();
        let block = PatternBlock::for_arity(3, 0);
        assert!(matches!(
            plan.estimate_block_into(&mut bs, &block, EstimatorMode::Lut),
            Err(EstimateError::BadPattern(_))
        ));
    }

    #[test]
    fn empty_block_yields_no_totals() {
        let raw = random_circuit(&RandomCircuitSpec::new("blk-empty", 4, 2, 10, 0, 1));
        let circuit = normalize(&raw).unwrap();
        let lib = library();
        let plan = CompiledEstimator::compile(&circuit, &lib).unwrap();
        let mut bs = plan.block_scratch();
        let block = PatternBlock::for_circuit(&circuit);
        plan.estimate_block_into(&mut bs, &block, EstimatorMode::Lut).unwrap();
        assert!(bs.totals().is_empty());
    }

    #[test]
    fn resolve_lanes_maps_auto_and_rejects_garbage() {
        assert_eq!(resolve_lanes(0), LANES);
        assert_eq!(resolve_lanes(1), 1);
        assert_eq!(resolve_lanes(LANES), LANES);
        assert!(std::panic::catch_unwind(|| resolve_lanes(2)).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The tentpole contract: on random circuits (with DFF state
        /// bits) and random patterns the compiled plan reproduces the
        /// reference `estimate()` bit-for-bit in every mode.
        #[test]
        fn compiled_path_is_bit_identical_to_estimate(seed in any::<u64>()) {
            let lib = library();
            let raw = random_circuit(&RandomCircuitSpec::new("plan-prop", 6, 2, 35, 2, seed));
            let circuit = normalize(&raw).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x706c616e);
            for _ in 0..3 {
                let p = Pattern::random(&circuit, &mut rng);
                for mode in [EstimatorMode::NoLoading, EstimatorMode::Lut] {
                    assert_bit_identical(&circuit, &lib, &p, mode);
                }
            }
        }

        /// Block-path tentpole: packed evaluation reproduces the
        /// scalar path bit-for-bit on random circuits (with DFF state
        /// bits), random patterns, and random tail sizes.
        #[test]
        fn block_path_is_bit_identical_to_scalar(seed in any::<u64>()) {
            let lib = library();
            let raw = random_circuit(&RandomCircuitSpec::new("blk-prop", 6, 2, 35, 2, seed));
            let circuit = normalize(&raw).unwrap();
            let plan = CompiledEstimator::compile(&circuit, &lib).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x626c6b);
            let len = 1 + (seed % LANES as u64) as usize;
            let patterns: Vec<Pattern> =
                (0..len).map(|_| Pattern::random(&circuit, &mut rng)).collect();
            for mode in [EstimatorMode::NoLoading, EstimatorMode::Lut] {
                assert_block_bit_identical(&plan, &patterns, mode);
            }
        }

        /// Direct-solve mode (slow: per-gate transistor re-solves) on
        /// small circuits.
        #[test]
        fn compiled_direct_solve_is_bit_identical(seed in any::<u64>()) {
            let lib = library();
            let raw = random_circuit(&RandomCircuitSpec::new("plan-ds", 4, 2, 8, 0, seed));
            let circuit = normalize(&raw).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x6473);
            let p = Pattern::random(&circuit, &mut rng);
            assert_bit_identical(&circuit, &lib, &p, EstimatorMode::DirectSolve);
        }
    }
}
