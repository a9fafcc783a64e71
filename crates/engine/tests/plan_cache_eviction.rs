//! The structural plan cache evicts its least recently used plan.
//!
//! The plan cache and its `nanoleak_plan_cache_*` counters are
//! process-global, so this binary holds a single test: no other test
//! may touch the cache between a reading and the next.

use nanoleak_cells::{CellLibrary, CellType, CharacterizeOptions};
use nanoleak_device::Technology;
use nanoleak_engine::{shared_plan, MAX_RESIDENT_PLANS};
use nanoleak_netlist::{Circuit, CircuitBuilder};

/// An inverter chain of `len` gates: every length is its own
/// structural key.
fn chain(len: usize) -> Circuit {
    let mut b = CircuitBuilder::new("chain");
    let mut net = b.add_input("a");
    for i in 0..len {
        net = b.add_gate(CellType::Inv, &[net], &format!("n{i}"));
    }
    b.mark_output(net);
    b.build().unwrap()
}

fn scrape(name: &str) -> u64 {
    let rendered = nanoleak_obs::global().render();
    rendered
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .map_or(0, |v| v.trim().parse().unwrap())
}

/// Fills the cache, then inserts as many new plans while re-touching
/// one old plan before each insert. The residents must be exactly the
/// touched plan plus the newest `MAX_RESIDENT_PLANS - 1` inserts: each
/// of them is a hit, and an untouched old plan is a miss.
#[test]
fn eviction_spares_the_most_recently_used_plan() {
    let lib = CellLibrary::shared_with_options(
        &Technology::d25(),
        300.0,
        &CharacterizeOptions::coarse(&[CellType::Inv]),
    );
    let circuits: Vec<Circuit> = (1..=2 * MAX_RESIDENT_PLANS).map(chain).collect();
    let (old, new) = circuits.split_at(MAX_RESIDENT_PLANS);
    for c in old {
        shared_plan(c, &lib).unwrap();
    }
    for c in new {
        shared_plan(&old[0], &lib).unwrap();
        shared_plan(c, &lib).unwrap();
    }

    let hit = |c: &Circuit| {
        let (hits, misses) =
            (scrape("nanoleak_plan_cache_hits_total"), scrape("nanoleak_plan_cache_misses_total"));
        shared_plan(c, &lib).unwrap();
        let gained = (
            scrape("nanoleak_plan_cache_hits_total") - hits,
            scrape("nanoleak_plan_cache_misses_total") - misses,
        );
        match gained {
            (1, 0) => true,
            (0, 1) => false,
            other => panic!("one request gained (hits, misses) = {other:?}"),
        }
    };
    let residents = std::iter::once(&old[0]).chain(&new[1..]);
    for (i, c) in residents.enumerate() {
        assert!(hit(c), "expected resident #{i} ({} gates) was evicted", c.gate_count());
    }
    assert_eq!(scrape("nanoleak_plan_cache_resident"), MAX_RESIDENT_PLANS as u64);
    assert!(!hit(&old[1]), "an untouched old plan stayed resident");
}
