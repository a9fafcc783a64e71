//! Failpoint behavior of the engine's chaos hooks.
//!
//! Lives in its own test binary (not the engine unit tests): the
//! fault registry is process-global, and arming e.g. `cache-io` here
//! must not bleed into unrelated cache tests running in parallel
//! threads of the lib test binary. Within this binary the tests
//! still serialize on one mutex for the same reason.

use std::sync::{Mutex, MutexGuard, OnceLock};

use nanoleak_cells::{CellType, CharacterizeOptions};
use nanoleak_device::Technology;
use nanoleak_engine::{
    mc_streaming_mode, sweep_streaming, CacheOutcome, EngineError, LibraryCache, McMode,
    MemoLibraryCache, SweepConfig,
};
use nanoleak_fault::{arm, arm_limited, disarm_all, FaultAction};
use nanoleak_netlist::{Circuit, CircuitBuilder};

fn serial() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = GATE
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    disarm_all();
    guard
}

fn opts() -> CharacterizeOptions {
    CharacterizeOptions::coarse(&[CellType::Inv, CellType::Nand2, CellType::Nor2])
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("nanoleak-fault-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn cache_io_fault_fails_the_store_without_litter() {
    let _g = serial();
    let tech = Technology::d25();
    let dir = temp_dir("io");
    let cache = LibraryCache::new(dir.clone());
    arm_limited("cache-io", FaultAction::Error("disk unplugged".into()), Some(1));
    let err = cache.load_or_characterize(&tech, 300.0, &opts()).unwrap_err();
    match err {
        EngineError::Cache(msg) => assert!(msg.contains("disk unplugged"), "{msg}"),
        other => panic!("expected Cache error, got {other:?}"),
    }
    // Self-disarmed after one fire: the retry succeeds and recovers.
    let (_, outcome) = cache.load_or_characterize(&tech, 300.0, &opts()).unwrap();
    assert_eq!(outcome, CacheOutcome::Miss);
    disarm_all();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn cache_corrupt_fault_forces_invalidation_recovery() {
    let _g = serial();
    let tech = Technology::d25();
    let dir = temp_dir("corrupt");
    let cache = LibraryCache::new(dir.clone());
    let (_, outcome) = cache.load_or_characterize(&tech, 300.0, &opts()).unwrap();
    assert_eq!(outcome, CacheOutcome::Miss);
    arm_limited("cache-corrupt", FaultAction::Error("torn read".into()), Some(1));
    let (lib, outcome) = cache.load_or_characterize(&tech, 300.0, &opts()).unwrap();
    assert_eq!(outcome, CacheOutcome::Invalidated, "fault reads as a torn file");
    assert!(lib.cell(CellType::Inv).is_some());
    let (_, outcome) = cache.load_or_characterize(&tech, 300.0, &opts()).unwrap();
    assert_eq!(outcome, CacheOutcome::Hit, "rewritten entry is healthy");
    disarm_all();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn characterize_fault_is_a_solver_error_but_spares_memory_hits() {
    let _g = serial();
    let tech = Technology::d25();
    let memo = MemoLibraryCache::memory_only();
    let (_, outcome) = memo.get_or_characterize(&tech, 300.0, &opts()).unwrap();
    assert_eq!(outcome, CacheOutcome::Miss);
    arm("characterize", FaultAction::Error("injected".into()));
    // Resident request: unaffected (the hook sits on the miss path).
    let (_, outcome) = memo.get_or_characterize(&tech, 300.0, &opts()).unwrap();
    assert_eq!(outcome, CacheOutcome::MemoryHit);
    // Fresh request: injected solver non-convergence.
    let err = memo.get_or_characterize(&tech, 310.0, &opts()).unwrap_err();
    assert!(matches!(err, EngineError::Solver(_)), "{err:?}");
    disarm_all();
}

fn small_circuit() -> Circuit {
    let mut b = CircuitBuilder::new("fault-test");
    let a = b.add_input("a");
    let c = b.add_input("b");
    let n = b.add_gate(CellType::Nand2, &[a, c], "n");
    let y = b.add_gate(CellType::Inv, &[n], "y");
    b.mark_output(y);
    b.build().unwrap()
}

/// Reads one labeled counter value out of the rendered global
/// metrics registry (the same text `/metrics` serves).
fn scrape_counter(rendered: &str, line_prefix: &str) -> u64 {
    rendered
        .lines()
        .find_map(|l| l.strip_prefix(line_prefix))
        .map_or(0, |rest| rest.trim().parse().unwrap_or(0))
}

#[test]
fn char_sensitivity_fault_degrades_fast_mc_to_exact() {
    let _g = serial();
    let tech = Technology::d25();
    let circuit = small_circuit();
    let memo = MemoLibraryCache::memory_only();
    let mc = nanoleak_variation::CircuitMcConfig {
        samples: 2,
        vectors: 2,
        threads: 1,
        char_opts: opts(),
        ..nanoleak_variation::CircuitMcConfig::default()
    };
    let exact = mc_streaming_mode(&circuit, &tech, &memo, &mc, McMode::Exact, 0, |_| true)
        .unwrap()
        .unwrap();

    // The traced nominal characterization fails; the fast run must
    // degrade to the exact path (same summary, no fast report) and
    // count the degradation where operators can see it.
    const PREFIX: &str = "nanoleak_mc_fallback_total{reason=\"sens-build\"} ";
    let before = scrape_counter(&nanoleak_obs::global().render(), PREFIX);
    arm_limited("char-sensitivity", FaultAction::Error("trace lost".into()), Some(1));
    let degraded = mc_streaming_mode(&circuit, &tech, &memo, &mc, McMode::fast(), 0, |_| true)
        .unwrap()
        .unwrap();
    disarm_all();
    assert!(degraded.summary.fast.is_none(), "degraded run took the exact path");
    assert_eq!(degraded.summary, exact.summary, "degradation is bit-exact");
    let after = scrape_counter(&nanoleak_obs::global().render(), PREFIX);
    assert_eq!(after, before + 1, "sens-build fallback counted");

    // Failpoint self-disarmed after one fire: the next fast run
    // derives its dies again.
    let fast = mc_streaming_mode(&circuit, &tech, &memo, &mc, McMode::fast(), 0, |_| true)
        .unwrap()
        .unwrap();
    let report = fast.summary.fast.expect("recovered fast run self-reports");
    assert!(report.diag.dies_derived > 0, "{:?}", report.diag);
}

#[test]
fn slow_shard_error_stops_sweep_and_mc_between_shards() {
    let _g = serial();
    let tech = Technology::d25();
    let memo = MemoLibraryCache::memory_only();
    let (library, _) = memo.get_or_characterize(&tech, 300.0, &opts()).unwrap();
    let circuit = small_circuit();
    let config = SweepConfig { vectors: 8, threads: 1, ..SweepConfig::default() };

    // Arm the fault from inside the first shard's callback: the first
    // shard streams its partial, the second hits the failpoint — the
    // between-shards contract the job layer relies on.
    let mut seen = 0;
    let err = sweep_streaming(&circuit, &library, &config, 4, |_| {
        seen += 1;
        arm("slow-shard", FaultAction::Error("shard gave up".into()));
        true
    })
    .unwrap_err();
    assert!(matches!(err, nanoleak_core::EstimateError::Solver(_)), "{err:?}");
    assert_eq!(seen, 1, "exactly the pre-fault shard completed");
    disarm_all();

    // Same contract for MC.
    let mc = nanoleak_variation::CircuitMcConfig {
        samples: 4,
        vectors: 2,
        threads: 1,
        char_opts: opts(),
        ..nanoleak_variation::CircuitMcConfig::default()
    };
    let mut seen = 0;
    let err = mc_streaming_mode(&circuit, &tech, &memo, &mc, McMode::Exact, 2, |_| {
        seen += 1;
        arm("slow-shard", FaultAction::Error("shard gave up".into()));
        true
    })
    .unwrap_err();
    assert!(matches!(err, EngineError::Solver(_)), "{err:?}");
    assert_eq!(seen, 1);
    disarm_all();
}
