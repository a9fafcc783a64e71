//! The characterized cell library and its process-wide cache.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use nanoleak_device::Technology;
use nanoleak_solver::SolverError;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::cell_type::CellType;
use crate::characterize::{CellChar, CharacterizeOptions, VectorChar};
use crate::lut::LoadingGrid;
use crate::vector::InputVector;

/// A fully characterized standard-cell library for one technology and
/// temperature — the `f(I_L, O_L)` data the paper's Fig. 13 algorithm
/// takes as input.
///
/// Libraries are serde-serializable so a harness can cache them on disk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellLibrary {
    /// The technology the library was characterized for.
    pub tech: Technology,
    /// Characterization temperature \[K\].
    pub temp: f64,
    /// Options used for the sweeps.
    pub options: CharacterizeOptions,
    cells: BTreeMap<CellType, CellChar>,
}

impl CellLibrary {
    /// Characterizes every cell in `opts.cells`.
    ///
    /// # Errors
    /// Propagates solver failures from the underlying sweeps.
    pub fn characterize(
        tech: &Technology,
        temp: f64,
        opts: &CharacterizeOptions,
    ) -> Result<Self, SolverError> {
        let mut cells = BTreeMap::new();
        for &cell in &opts.cells {
            cells.insert(cell, CellChar::characterize(tech, temp, cell, opts)?);
        }
        Ok(Self { tech: tech.clone(), temp, options: opts.clone(), cells })
    }

    /// Assembles a library from already-characterized cells (the
    /// sensitivity and delta-derivation paths build the map themselves).
    pub(crate) fn from_parts(
        tech: Technology,
        temp: f64,
        options: CharacterizeOptions,
        cells: BTreeMap<CellType, CellChar>,
    ) -> Self {
        Self { tech, temp, options, cells }
    }

    /// The characterization of one cell type, if present.
    pub fn cell(&self, cell: CellType) -> Option<&CellChar> {
        self.cells.get(&cell)
    }

    /// The characterization of one (cell, vector) state, if present.
    pub fn vector_char(&self, cell: CellType, vector: InputVector) -> Option<&VectorChar> {
        self.cells.get(&cell).map(|c| c.vector(vector))
    }

    /// Iterates the characterized cell types.
    pub fn cell_types(&self) -> impl Iterator<Item = CellType> + '_ {
        self.cells.keys().copied()
    }

    /// Number of characterized cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// The loading grid every response table is sampled on, derived
    /// from the options ([`CharacterizeOptions::grid`]), which already
    /// key the library.
    pub fn grid(&self) -> LoadingGrid {
        self.options.grid()
    }

    /// Whether the library holds what a characterization builds: a
    /// strictly increasing finite grid, exactly the cells
    /// `options.cells` names, each [`CellType::num_vectors`] entries in
    /// [`InputVector::index`] order, each entry its cell's pin count of
    /// pin currents and input tables, only finite values, and one value
    /// per knot in every table column. Decoding a serialized library
    /// checks none of this, so readers of stored libraries (the
    /// engine's disk cache) check it before an estimator indexes into a
    /// table.
    pub fn is_well_formed(&self) -> bool {
        let grid = self.grid();
        let requested: BTreeSet<CellType> = self.options.cells.iter().copied().collect();
        grid.is_well_formed()
            && self.cells.keys().eq(&requested)
            && self.cells.iter().all(|(&cell, ch)| {
                let sound =
                    |vc: &VectorChar| vc.is_well_formed(cell.num_inputs(), grid.knots().len());
                ch.vectors().len() == cell.num_vectors() && ch.vectors().iter().all(sound)
            })
    }

    /// A process-wide shared library for `tech` at `temp` with default
    /// options, characterized on first use. Characterizing the full
    /// family takes about 0.32–0.44 s in a release build (2-vCPU VM),
    /// and far longer in a debug one; sharing avoids re-running it in
    /// every test or benchmark.
    pub fn shared(tech: &Technology, temp: f64) -> Arc<CellLibrary> {
        Self::shared_with_options(tech, temp, &CharacterizeOptions::default())
    }

    /// Like [`CellLibrary::shared`], but keyed on explicit options.
    ///
    /// The memo key is [`CellLibrary::request_key`] — a hash of the
    /// *full* serialized `(tech, temp, opts)` request — so two
    /// technologies that share a name but differ in any device
    /// parameter (a scaled `vdd`, a tweaked oxide thickness, ...) are
    /// distinct cache entries, matching the discipline of the engine's
    /// on-disk `*.nlc` cache.
    ///
    /// # Panics
    /// Panics if the characterization fails to converge (the default
    /// technologies are guaranteed to).
    pub fn shared_with_options(
        tech: &Technology,
        temp: f64,
        opts: &CharacterizeOptions,
    ) -> Arc<CellLibrary> {
        static CACHE: Mutex<Vec<(u64, Arc<CellLibrary>)>> = Mutex::new(Vec::new());
        let key = Self::request_key(tech, temp, opts);
        let mut cache = CACHE.lock();
        // The key is a 64-bit hash; re-check the full request on a hit
        // so a hash collision can never hand back the wrong physics.
        let matches =
            |lib: &CellLibrary| lib.tech == *tech && lib.temp == temp && lib.options == *opts;
        if let Some((_, lib)) = cache.iter().find(|(k, lib)| *k == key && matches(lib)) {
            return Arc::clone(lib);
        }
        let lib = Arc::new(
            Self::characterize(tech, temp, opts)
                .expect("shared-library characterization must converge"),
        );
        cache.push((key, Arc::clone(&lib)));
        lib
    }

    /// A stable 64-bit key for one characterization request: FNV-1a
    /// over the serialized `(tech, temp, opts)` triple. Every field of
    /// the technology (device designs included) participates, so e.g.
    /// a supply-voltage tweak yields a different key even when the
    /// technology name is unchanged. The engine's disk and RAM caches
    /// key on this same hash.
    pub fn request_key(tech: &Technology, temp: f64, opts: &CharacterizeOptions) -> u64 {
        fnv1a(serde::to_bytes(&(tech.clone(), temp, opts.clone())))
    }
}

/// 64-bit FNV-1a over `bytes`: the one hash behind nanoleak's stable
/// keys. It names every cache entry ([`CellLibrary::request_key`], and
/// so the `.nlc` file names), checksums the cache files, keys compiled
/// plans by circuit structure and seeds the generated ISCAS stand-ins;
/// a change to it moves all of them.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_opts() -> CharacterizeOptions {
        CharacterizeOptions::coarse(&[CellType::Inv, CellType::Nand2])
    }

    #[test]
    fn characterizes_requested_cells_only() {
        let tech = Technology::d25();
        let lib = CellLibrary::characterize(&tech, 300.0, &small_opts()).unwrap();
        assert_eq!(lib.cell_count(), 2);
        assert!(lib.cell(CellType::Inv).is_some());
        assert!(lib.cell(CellType::Nor2).is_none());
        assert!(lib.vector_char(CellType::Nand2, InputVector::parse("10").unwrap()).is_some());
        assert!(lib.vector_char(CellType::Nor3, InputVector::parse("000").unwrap()).is_none());
    }

    #[test]
    fn library_equality_after_clone() {
        let tech = Technology::d25();
        let lib =
            CellLibrary::characterize(&tech, 300.0, &CharacterizeOptions::coarse(&[CellType::Inv]))
                .unwrap();
        let copy = lib.clone();
        assert_eq!(copy, lib);
    }

    #[test]
    fn shared_cache_returns_same_instance() {
        let tech = Technology::d25();
        let opts = CharacterizeOptions::coarse(&[CellType::Inv]);
        let a = CellLibrary::shared_with_options(&tech, 300.0, &opts);
        let b = CellLibrary::shared_with_options(&tech, 300.0, &opts);
        assert!(Arc::ptr_eq(&a, &b));
        // A different temperature is a different cache entry.
        let c = CellLibrary::shared_with_options(&tech, 310.0, &opts);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn shared_cache_distinguishes_same_named_technologies() {
        // Regression: the memo used to key on tech.name (plus a few
        // scalar options), so a scaled-vdd Technology with the same
        // name collided with the pristine one. The full-request key
        // must separate them *and* characterize genuinely different
        // libraries.
        let tech = Technology::d25();
        let mut scaled = tech.clone();
        scaled.vdd *= 0.9;
        assert_eq!(tech.name, scaled.name, "precondition: same name");
        let opts = CharacterizeOptions::coarse(&[CellType::Inv]);
        let a = CellLibrary::shared_with_options(&tech, 300.0, &opts);
        let b = CellLibrary::shared_with_options(&scaled, 300.0, &opts);
        assert!(!Arc::ptr_eq(&a, &b), "scaled-vdd request must not hit the nominal entry");
        assert_ne!(a.tech.vdd, b.tech.vdd);
        let v = InputVector::parse("0").unwrap();
        assert_ne!(
            a.vector_char(CellType::Inv, v).unwrap().nominal,
            b.vector_char(CellType::Inv, v).unwrap().nominal,
            "different supply, different leakage"
        );
        // And the same scaled request hits its own entry.
        let c = CellLibrary::shared_with_options(&scaled, 300.0, &opts);
        assert!(Arc::ptr_eq(&b, &c));
    }

    #[test]
    fn request_keys_separate_full_tech_state() {
        let tech = Technology::d25();
        let opts = CharacterizeOptions::coarse(&[CellType::Inv]);
        let base = CellLibrary::request_key(&tech, 300.0, &opts);
        assert_ne!(base, CellLibrary::request_key(&tech, 310.0, &opts));
        let mut scaled = tech.clone();
        scaled.vdd *= 0.95;
        assert_ne!(base, CellLibrary::request_key(&scaled, 300.0, &opts));
        let denser = CharacterizeOptions { points: opts.points + 1, ..opts.clone() };
        assert_ne!(base, CellLibrary::request_key(&tech, 300.0, &denser));
        let wider = CharacterizeOptions { max_loading: 9e-6, ..opts.clone() };
        assert_ne!(base, CellLibrary::request_key(&tech, 300.0, &wider));
        // Deterministic across calls.
        assert_eq!(base, CellLibrary::request_key(&tech, 300.0, &opts));
    }
}
