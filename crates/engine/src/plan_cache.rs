//! Process-wide structural plan cache.
//!
//! Compiling a [`CompiledEstimator`](nanoleak_core::CompiledEstimator)
//! flattens the circuit against the characterized library — cheap
//! next to characterization, but pure waste when the same netlist is
//! submitted over and over (a server re-analyzing one design across
//! operating points, a CLI loop, repeated jobs on isomorphic
//! circuits). [`shared_plan`] memoizes compiled plans process-wide,
//! keyed on
//! `(Circuit::structural_key, CellLibrary::request_key)`.
//!
//! ## Why this key is sound
//!
//! A hit hands back a plan compiled for a *different* `Circuit`
//! instance than the one submitted. That is only legitimate because
//! both key halves pin down bit-identical behavior:
//!
//! * [`Circuit::structural_key`] is name-independent but gate-order-
//!   and pin-order-exact, and the estimator's FP reduction runs in
//!   gate-id order — so the cached circuit folds leakage in exactly
//!   the submitted circuit's order;
//! * library contents are a pure deterministic function of the
//!   [`CellLibrary::request_key`] inputs (tech, temperature,
//!   characterization options), so equal keys mean bit-equal LUTs.
//!
//! Sweeps, MLV searches and estimate requests share plans through it.
//! Monte-Carlo paths deliberately bypass this cache: each die
//! perturbs the technology, producing single-use keys that would just
//! churn residency.
//!
//! Residency is bounded at [`MAX_RESIDENT_PLANS`]; past it the least
//! recently used plan is evicted, as in the library memo cache. A
//! victim is recompilable, but it takes its block response tables
//! with it, and those cost far more to rebuild than the compile, so a
//! plan every request asks for stays resident however many one-off
//! plans pass through.
//! Hit/miss/eviction counters and a residency gauge live in
//! [`nanoleak_obs::global`] as `nanoleak_plan_cache_*`, so they show
//! up on every `/metrics` scrape.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nanoleak_cells::CellLibrary;
use nanoleak_core::{EstimateError, SharedEstimator};
use nanoleak_netlist::Circuit;
use nanoleak_obs::{global, Counter, Gauge, Histogram};
use parking_lot::Mutex;

/// Largest number of compiled plans kept resident.
pub const MAX_RESIDENT_PLANS: usize = 64;

struct PlanCacheMetrics {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    resident: Gauge,
    compile_seconds: Histogram,
}

fn plan_cache_metrics() -> &'static PlanCacheMetrics {
    static METRICS: std::sync::OnceLock<PlanCacheMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| PlanCacheMetrics {
        hits: global().counter(
            "nanoleak_plan_cache_hits_total",
            "Plan requests served from the structural plan cache",
        ),
        misses: global().counter(
            "nanoleak_plan_cache_misses_total",
            "Plan requests that compiled a fresh estimator plan",
        ),
        evictions: global().counter(
            "nanoleak_plan_cache_evictions_total",
            "Plans evicted to hold the residency bound",
        ),
        resident: global().gauge(
            "nanoleak_plan_cache_resident",
            "Compiled plans currently resident in the structural cache",
        ),
        compile_seconds: global().histogram(
            "nanoleak_plan_cache_compile_seconds",
            "Wall time of plan compilations (structural cache misses)",
        ),
    })
}

type Key = (u64, u64);

/// Resident plans, each with the [`clock`] stamp of its last use.
type Plans = HashMap<Key, (Arc<SharedEstimator>, u64)>;

fn cache() -> &'static Mutex<Plans> {
    static CACHE: std::sync::OnceLock<Mutex<Plans>> = std::sync::OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The next last-use stamp: one clock for every insert and hit.
fn clock() -> u64 {
    static CLOCK: AtomicU64 = AtomicU64::new(0);
    CLOCK.fetch_add(1, Ordering::Relaxed)
}

/// The cache key for a (circuit, library) pair.
pub fn plan_key(circuit: &Circuit, library: &CellLibrary) -> Key {
    (
        circuit.structural_key(),
        CellLibrary::request_key(&library.tech, library.temp, &library.options),
    )
}

/// Returns the process-wide shared plan for `circuit` × `library`,
/// compiling (and caching) it on first sight of this structural key.
///
/// The returned plan may be backed by clones of earlier, structurally
/// identical arguments; by key construction (see module docs) every
/// estimate through it is bit-identical to a fresh local compile.
///
/// # Errors
/// Propagates compile failures ([`EstimateError::MissingCell`]);
/// nothing is cached on error.
pub fn shared_plan(
    circuit: &Circuit,
    library: &CellLibrary,
) -> Result<Arc<SharedEstimator>, EstimateError> {
    let metrics = plan_cache_metrics();
    let key = plan_key(circuit, library);
    if let Some((hit, used)) = cache().lock().get_mut(&key) {
        *used = clock();
        metrics.hits.inc();
        return Ok(Arc::clone(hit));
    }
    // Compile outside the lock; misses are rare enough that cloning
    // the circuit and library into co-owning Arcs is noise next to
    // the compile itself.
    metrics.misses.inc();
    let start = std::time::Instant::now();
    let fresh =
        Arc::new(SharedEstimator::new(Arc::new(circuit.clone()), Arc::new(library.clone()))?);
    metrics.compile_seconds.record_duration(start.elapsed());
    let mut map = cache().lock();
    if !map.contains_key(&key) && map.len() >= MAX_RESIDENT_PLANS {
        if let Some(victim) = map.iter().min_by_key(|(_, (_, used))| *used).map(|(&k, _)| k) {
            map.remove(&victim);
            metrics.evictions.inc();
        }
    }
    // A racing caller may have inserted first; keep the incumbent so
    // every holder shares one plan.
    let (plan, used) = map.entry(key).or_insert((fresh, 0));
    *used = clock();
    let plan = Arc::clone(plan);
    metrics.resident.set(map.len() as i64);
    Ok(plan)
}

/// Drops every resident plan (benchmarks use this to measure cold
/// compiles; never required for correctness).
pub fn clear() {
    let mut map = cache().lock();
    map.clear();
    plan_cache_metrics().resident.set(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoleak_cells::{CellType, CharacterizeOptions};
    use nanoleak_core::EstimatorMode;
    use nanoleak_device::Technology;
    use nanoleak_netlist::generate::{iscas_like, random_circuit, RandomCircuitSpec};
    use nanoleak_netlist::normalize::normalize;
    use nanoleak_netlist::{CircuitBuilder, Pattern};
    use rand::SeedableRng;

    fn library() -> Arc<CellLibrary> {
        CellLibrary::shared_with_options(
            &Technology::d25(),
            300.0,
            &CharacterizeOptions::coarse(&CellType::ALL),
        )
    }

    #[test]
    fn isomorphic_circuits_share_one_plan() {
        fn build(names: [&str; 3]) -> Circuit {
            let mut b = CircuitBuilder::new(names[0]);
            let a = b.add_input(names[1]);
            let y = b.add_gate(CellType::Inv, &[a], names[2]);
            b.mark_output(y);
            b.build().unwrap()
        }
        let lib = library();
        let c1 = build(["one", "a", "y"]);
        let c2 = build(["two", "p", "q"]);
        let p1 = shared_plan(&c1, &lib).unwrap();
        let p2 = shared_plan(&c2, &lib).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2), "isomorphic circuits hit the same plan");

        // And the shared plan is bit-identical to a local compile for
        // the second circuit.
        let pattern = Pattern { pi: vec![true], states: vec![] };
        let local = nanoleak_core::CompiledEstimator::compile(&c2, &lib).unwrap();
        let mut ls = local.scratch();
        let want = local.estimate_into(&mut ls, &pattern, EstimatorMode::Lut).unwrap();
        let mut ss = p2.plan().scratch();
        let got = p2.plan().estimate_into(&mut ss, &pattern, EstimatorMode::Lut).unwrap();
        assert_eq!(got.total().to_bits(), want.total().to_bits());
    }

    #[test]
    fn distinct_structures_get_distinct_plans() {
        let lib = library();
        let raw1 = random_circuit(&RandomCircuitSpec::new("pc1", 4, 2, 20, 0, 5));
        let raw2 = random_circuit(&RandomCircuitSpec::new("pc2", 4, 2, 21, 0, 6));
        let c1 = normalize(&raw1).unwrap();
        let c2 = normalize(&raw2).unwrap();
        let p1 = shared_plan(&c1, &lib).unwrap();
        let p2 = shared_plan(&c2, &lib).unwrap();
        assert!(!Arc::ptr_eq(&p1, &p2));
        // Same circuit, different operating point: different key too.
        let hot = CellLibrary::shared_with_options(
            &Technology::d25(),
            360.0,
            &CharacterizeOptions::coarse(&CellType::ALL),
        );
        let p3 = shared_plan(&c1, &hot).unwrap();
        assert!(!Arc::ptr_eq(&p1, &p3));
    }

    #[test]
    fn keys_do_not_move() {
        // Both halves of a plan key run through the one FNV-1a, which
        // also names the `.nlc` files and seeds the generated ISCAS
        // stand-ins: pinned values keep file names, plan identities and
        // generated circuits where earlier builds put them.
        let opts = CharacterizeOptions::coarse(&[CellType::Inv]);
        let key = CellLibrary::request_key(&Technology::d25(), 300.0, &opts);
        assert_eq!(key, 0xfc8e_4403_3215_dea7);
        let s838 = normalize(&iscas_like("s838").unwrap()).unwrap();
        assert_eq!(s838.structural_key(), 0x08c6_5f80_fc9e_c7af);
    }

    #[test]
    fn shared_plan_streams_match_compiled_streams() {
        let lib = library();
        let raw = random_circuit(&RandomCircuitSpec::new("pc3", 6, 3, 40, 2, 77));
        let circuit = normalize(&raw).unwrap();
        let shared = shared_plan(&circuit, &lib).unwrap();
        let local = nanoleak_core::CompiledEstimator::compile(&circuit, &lib).unwrap();
        let mut ss = shared.plan().scratch();
        let mut ls = local.scratch();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..8 {
            let p = Pattern::random(&circuit, &mut rng);
            let a = shared.plan().estimate_into(&mut ss, &p, EstimatorMode::Lut).unwrap();
            let b = local.estimate_into(&mut ls, &p, EstimatorMode::Lut).unwrap();
            assert_eq!(a.total().to_bits(), b.total().to_bits());
        }
    }
}
