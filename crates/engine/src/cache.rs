//! Persistent characterization cache.
//!
//! Characterizing the full cell family at default resolution costs
//! seconds of solver time per (technology, temperature, options)
//! triple, and every CLI or bench invocation used to pay it again.
//! [`LibraryCache`] serializes the characterized [`CellLibrary`] to
//! disk so later runs (including across processes) skip the solve.
//!
//! ## File format (`*.nlc`)
//!
//! | bytes | content |
//! |---|---|
//! | 4 | magic `NLKC` |
//! | 4 | format version, u32 LE ([`CACHE_FORMAT_VERSION`]) |
//! | 8 | request key, u64 LE — FNV-1a over the serialized (tech, temp, options) |
//! | 8 | payload length, u64 LE |
//! | 8 | payload checksum, u64 LE (FNV-1a) |
//! | n | payload: the `CellLibrary` in vendored-serde binary encoding |
//!
//! Any mismatch — magic, version, key, length, checksum, decode
//! failure, or a decoded library whose (tech, temp, options) differ
//! from the request (a key collision) — is treated as a stale entry:
//! the library is re-characterized and the file overwritten. Changing
//! the characterization options changes the key and therefore the
//! file name, so old entries can never shadow new requests.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nanoleak_cells::{
    characterize_with_sensitivity, CellLibrary, CharacterizeOptions, LibrarySens, OperatingPoint,
};
use nanoleak_device::Technology;
use nanoleak_obs::{global, Counter, Histogram};
use nanoleak_variation::{DeltaProvider, DieDiag, McError, SensDeltaProvider};
use parking_lot::Mutex;

use crate::EngineError;

/// Process-wide cache telemetry aggregated over every
/// [`MemoLibraryCache`] instance (per-instance counts stay on the
/// instance; see [`MemoLibraryCache::stats`]).
struct CacheMetrics {
    memory_hits: Counter,
    disk_hits: Counter,
    characterizations: Counter,
    characterize_seconds: Histogram,
}

fn cache_metrics() -> &'static CacheMetrics {
    static METRICS: std::sync::OnceLock<CacheMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| CacheMetrics {
        memory_hits: global().counter(
            "nanoleak_cache_memory_hits_total",
            "Library requests served from the in-RAM memo layer",
        ),
        disk_hits: global().counter(
            "nanoleak_cache_disk_hits_total",
            "Library requests served from the on-disk cache",
        ),
        characterizations: global().counter(
            "nanoleak_cache_characterizations_total",
            "Library requests that ran a full characterization",
        ),
        characterize_seconds: global().histogram(
            "nanoleak_cache_characterize_seconds",
            "Wall time of full library characterizations (cache misses)",
        ),
    })
}

/// Process-wide telemetry of the delta-from-nominal fast path
/// ([`DeltaLibraryProvider`]): how per-die library requests degraded
/// out of the first-order derivation, and how long derivations take.
pub(crate) struct DeltaMetrics {
    /// `nanoleak_mc_fallback_total{reason="tolerance"}` — individual
    /// `(cell, vector)` entries clamped back to a full solve because
    /// the linearization-error estimate exceeded the tolerance.
    pub(crate) fallback_tolerance: Counter,
    /// `nanoleak_mc_fallback_total{reason="unrecognized"}` — whole
    /// dies fully characterized because their perturbation was not a
    /// recognizable delta of the nominal technology.
    pub(crate) fallback_unrecognized: Counter,
    /// `nanoleak_mc_fallback_total{reason="sens-build"}` — fast runs
    /// degraded to the exact path because the traced nominal
    /// characterization itself failed.
    pub(crate) fallback_sens_build: Counter,
    /// Wall time to derive one per-die library from the sensitivities.
    pub(crate) delta_seconds: Histogram,
}

pub(crate) fn delta_metrics() -> &'static DeltaMetrics {
    static METRICS: std::sync::OnceLock<DeltaMetrics> = std::sync::OnceLock::new();
    const FALLBACKS: &str = "nanoleak_mc_fallback_total";
    const FALLBACKS_HELP: &str =
        "Monte-Carlo fast-path fallbacks to full solves, by reason (tolerance = per-entry \
         linearization clamp, unrecognized = whole-die full characterization, sens-build = run \
         degraded to exact)";
    METRICS.get_or_init(|| DeltaMetrics {
        fallback_tolerance: global().counter_with(
            FALLBACKS,
            FALLBACKS_HELP,
            &[("reason", "tolerance")],
        ),
        fallback_unrecognized: global().counter_with(
            FALLBACKS,
            FALLBACKS_HELP,
            &[("reason", "unrecognized")],
        ),
        fallback_sens_build: global().counter_with(
            FALLBACKS,
            FALLBACKS_HELP,
            &[("reason", "sens-build")],
        ),
        delta_seconds: global().histogram(
            "nanoleak_delta_library_seconds",
            "Wall time to derive one per-die library from nominal sensitivities",
        ),
    })
}

/// Bump when the header layout or the serialized library shape
/// changes; old files then re-characterize instead of mis-decoding.
pub const CACHE_FORMAT_VERSION: u32 = 1;

const MAGIC: &[u8; 4] = b"NLKC";
const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 8;

/// How a characterization request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The request was served from process RAM; neither disk I/O nor
    /// solver work ran ([`MemoLibraryCache`] only).
    MemoryHit,
    /// A valid cache file was loaded; no solver work ran.
    Hit,
    /// No cache file existed; the library was characterized and stored.
    Miss,
    /// A cache file existed but was stale or corrupt; the library was
    /// re-characterized and the file replaced.
    Invalidated,
}

/// An on-disk cache of characterized cell libraries.
#[derive(Debug, Clone)]
pub struct LibraryCache {
    dir: PathBuf,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl LibraryCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The default location: `$NANOLEAK_CACHE_DIR` if set, else
    /// `.nanoleak-cache` under the current directory.
    pub fn default_location() -> Self {
        let dir = std::env::var_os("NANOLEAK_CACHE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(".nanoleak-cache"));
        Self::new(dir)
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The request key: FNV-1a over the serialized (tech, temp,
    /// options) triple. Every field of the technology (device designs
    /// included) participates, so e.g. an oxide-thickness tweak yields
    /// a different key. Delegates to [`CellLibrary::request_key`] —
    /// the same hash keys the cells crate's process-wide memo, so
    /// every cache layer (RAM memo, shared-library memo, `*.nlc`
    /// disk files) agrees on request identity.
    pub fn request_key(tech: &Technology, temp: f64, opts: &CharacterizeOptions) -> u64 {
        CellLibrary::request_key(tech, temp, opts)
    }

    /// The file path backing one request.
    pub fn path_for(&self, tech: &Technology, temp: f64, opts: &CharacterizeOptions) -> PathBuf {
        let key = Self::request_key(tech, temp, opts);
        let name = tech.name.to_lowercase().replace(|c: char| !c.is_alphanumeric(), "-");
        self.dir.join(format!("{name}-v{CACHE_FORMAT_VERSION}-{key:016x}.nlc"))
    }

    /// Loads the cached library for a request, or characterizes and
    /// stores it.
    ///
    /// Returns the library plus how it was obtained; a hit performs no
    /// solver work. Write failures after a successful characterization
    /// surface as [`EngineError::Cache`] (the characterization is not
    /// silently discarded as that would hide a misconfigured cache
    /// directory on every run).
    ///
    /// # Errors
    /// * [`EngineError::Solver`] if characterization fails on a miss;
    /// * [`EngineError::Cache`] if the fresh entry cannot be written.
    pub fn load_or_characterize(
        &self,
        tech: &Technology,
        temp: f64,
        opts: &CharacterizeOptions,
    ) -> Result<(Arc<CellLibrary>, CacheOutcome), EngineError> {
        let path = self.path_for(tech, temp, opts);
        let existed = path.exists();
        if existed {
            if let Some(lib) = self.try_load(&path, tech, temp, opts) {
                return Ok((Arc::new(lib), CacheOutcome::Hit));
            }
        }
        let lib = CellLibrary::characterize(tech, temp, opts)?;
        self.store(&lib)?;
        let outcome = if existed { CacheOutcome::Invalidated } else { CacheOutcome::Miss };
        Ok((Arc::new(lib), outcome))
    }

    /// Writes `lib` into the cache, creating the directory on demand.
    ///
    /// # Errors
    /// [`EngineError::Cache`] on any I/O failure.
    pub fn store(&self, lib: &CellLibrary) -> Result<PathBuf, EngineError> {
        let path = self.path_for(&lib.tech, lib.temp, &lib.options);
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| EngineError::Cache(format!("create {}: {e}", self.dir.display())))?;
        let key = Self::request_key(&lib.tech, lib.temp, &lib.options);
        let payload = serde::to_bytes(lib);

        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&CACHE_FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&key.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);

        // Write-then-rename so a crashed writer never leaves a torn
        // file behind for the next reader. The tmp name carries the
        // pid and a process-unique sequence number: two processes (or
        // two threads racing the same key through MemoLibraryCache)
        // must never interleave writes into one tmp file and rename a
        // spliced payload into place.
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = path.with_extension(format!(
            "nlc.tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if let Some(msg) = nanoleak_fault::inject("cache-io") {
            let _ = std::fs::remove_file(&tmp);
            return Err(EngineError::Cache(format!("write {}: {msg}", tmp.display())));
        }
        std::fs::write(&tmp, &bytes)
            .map_err(|e| EngineError::Cache(format!("write {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| EngineError::Cache(format!("rename to {}: {e}", path.display())))?;
        Ok(path)
    }

    /// Attempts to load and fully validate one cache file; any
    /// problem returns `None` (the caller re-characterizes).
    fn try_load(
        &self,
        path: &Path,
        tech: &Technology,
        temp: f64,
        opts: &CharacterizeOptions,
    ) -> Option<CellLibrary> {
        // Chaos hook: an armed `cache-corrupt` failpoint makes every
        // existing entry read as torn, forcing the invalidation path.
        if nanoleak_fault::inject("cache-corrupt").is_some() {
            return None;
        }
        let bytes = std::fs::read(path).ok()?;
        if bytes.len() < HEADER_LEN || &bytes[..4] != MAGIC {
            return None;
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
        if version != CACHE_FORMAT_VERSION {
            return None;
        }
        let key = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
        if key != Self::request_key(tech, temp, opts) {
            return None;
        }
        let len = u64::from_le_bytes(bytes[16..24].try_into().ok()?) as usize;
        let checksum = u64::from_le_bytes(bytes[24..32].try_into().ok()?);
        let payload = &bytes[HEADER_LEN..];
        if payload.len() != len || fnv1a(payload) != checksum {
            return None;
        }
        let lib: CellLibrary = serde::from_bytes(payload).ok()?;
        // Key collisions are astronomically unlikely but cheap to rule
        // out: the decoded request must match the asked-for request.
        if lib.tech != *tech || lib.temp != temp || lib.options != *opts {
            return None;
        }
        Some(lib)
    }
}

/// Counters describing how a [`MemoLibraryCache`] has served requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoCacheStats {
    /// Requests served from process RAM.
    pub memory_hits: u64,
    /// Requests served from a valid `*.nlc` disk file.
    pub disk_hits: u64,
    /// Requests that ran the characterization solver (disk miss or
    /// stale entry, or the disk layer disabled).
    pub characterizations: u64,
}

impl MemoCacheStats {
    /// Total requests observed.
    pub fn requests(&self) -> u64 {
        self.memory_hits + self.disk_hits + self.characterizations
    }

    /// Fraction of requests that avoided solver work (memory + disk
    /// hits); `0.0` before any request.
    pub fn hit_rate(&self) -> f64 {
        let total = self.requests();
        if total == 0 {
            0.0
        } else {
            (self.memory_hits + self.disk_hits) as f64 / total as f64
        }
    }
}

/// An in-memory memoizing layer over the `*.nlc` disk cache.
///
/// A long-lived process (the `nanoleak-serve` front-end, batch
/// condition-grid jobs) asks for the same `(technology, temperature,
/// options)` characterization over and over; paying even the disk
/// decode per request is wasted work. This layer keeps every library
/// the process has seen as a shared [`Arc`] keyed by
/// [`LibraryCache::request_key`], falling through to the disk cache
/// (and from there to the solver) only on first contact. It is the
/// first step toward the ROADMAP's per-(cell, vector) incremental
/// caching.
///
/// Thread-safe: concurrent requests for *different* keys characterize
/// in parallel; concurrent requests for the *same* key may both run
/// the solve (last write wins — both produce identical libraries, so
/// this trades a rare duplicated solve for never serializing distinct
/// requests behind one lock).
///
/// Residency is bounded at [`MAX_RESIDENT_LIBRARIES`] entries (an
/// arbitrary entry is evicted beyond that), so a long-lived server
/// fed adversarially unique `(temp, Vdd)` requests cannot grow RAM
/// without bound — evicted entries fall back to the disk layer.
#[derive(Debug)]
pub struct MemoLibraryCache {
    disk: Option<LibraryCache>,
    /// Resident libraries by request key, each with the sensitivity
    /// slabs recorded alongside it when it went through
    /// [`MemoLibraryCache::get_or_characterize_with_sens`] (RAM-only:
    /// sensitivities are cheap to re-record relative to their
    /// serialized size).
    entries: Mutex<HashMap<u64, MemoEntry>>,
    max_resident: usize,
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    characterizations: AtomicU64,
}

/// One resident library and its sensitivity slabs, if traced.
type MemoEntry = (Arc<CellLibrary>, Option<Arc<LibrarySens>>);

/// Default bound on libraries held in RAM by a [`MemoLibraryCache`]
/// (a characterized full-family library is several MB).
pub const MAX_RESIDENT_LIBRARIES: usize = 64;

impl Default for MemoLibraryCache {
    fn default() -> Self {
        Self {
            disk: None,
            entries: Mutex::new(HashMap::new()),
            max_resident: MAX_RESIDENT_LIBRARIES,
            memory_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            characterizations: AtomicU64::new(0),
        }
    }
}

impl MemoLibraryCache {
    /// A memo layered over `disk`.
    pub fn over(disk: LibraryCache) -> Self {
        Self { disk: Some(disk), ..Self::default() }
    }

    /// A memo with no disk layer (RAM only; misses go straight to the
    /// solver).
    pub fn memory_only() -> Self {
        Self::default()
    }

    /// Overrides the residency bound (`0` is clamped to 1).
    #[must_use]
    pub fn with_max_resident(mut self, max_resident: usize) -> Self {
        self.max_resident = max_resident.max(1);
        self
    }

    /// The disk layer, if one is attached.
    pub fn disk(&self) -> Option<&LibraryCache> {
        self.disk.as_ref()
    }

    /// Returns the characterized library for a request, from RAM if
    /// this process has seen the request before, else through the
    /// disk cache, else by characterizing.
    ///
    /// # Errors
    /// * [`EngineError::Solver`] if characterization fails;
    /// * [`EngineError::Cache`] if a fresh disk entry cannot be
    ///   written (RAM-only requests never return this).
    pub fn get_or_characterize(
        &self,
        tech: &Technology,
        temp: f64,
        opts: &CharacterizeOptions,
    ) -> Result<(Arc<CellLibrary>, CacheOutcome), EngineError> {
        let key = LibraryCache::request_key(tech, temp, opts);
        if let Some((lib, _)) = self.entries.lock().get(&key) {
            self.memory_hits.fetch_add(1, Ordering::Relaxed);
            cache_metrics().memory_hits.inc();
            return Ok((Arc::clone(lib), CacheOutcome::MemoryHit));
        }
        let started = std::time::Instant::now();
        let _span = nanoleak_obs::span!("library", temp = temp);
        // Chaos hook: `characterize` injects a solver non-convergence
        // on the miss path (memory hits above stay unaffected — an
        // already-resident library cannot fail retroactively).
        if nanoleak_fault::inject("characterize").is_some() {
            return Err(EngineError::Solver(nanoleak_solver::SolverError::NoConvergence {
                iterations: 0,
                residual: f64::INFINITY,
            }));
        }
        let (lib, outcome) = match &self.disk {
            Some(disk) => disk.load_or_characterize(tech, temp, opts)?,
            None => {
                let lib = CellLibrary::characterize(tech, temp, opts)?;
                (Arc::new(lib), CacheOutcome::Miss)
            }
        };
        match outcome {
            CacheOutcome::Hit => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                cache_metrics().disk_hits.inc();
            }
            _ => {
                self.characterizations.fetch_add(1, Ordering::Relaxed);
                cache_metrics().characterizations.inc();
                cache_metrics().characterize_seconds.record_duration(started.elapsed());
            }
        };
        self.insert(key, (Arc::clone(&lib), None));
        Ok((lib, outcome))
    }

    /// Makes `entry` resident under `key`, evicting an arbitrary other
    /// entry only when a new key would exceed the residency bound —
    /// arbitrary eviction keeps the bound without LRU bookkeeping, and
    /// the disk layer (if any) still serves the evicted request
    /// without re-solving.
    fn insert(&self, key: u64, entry: MemoEntry) {
        let mut entries = self.entries.lock();
        if entries.len() >= self.max_resident && !entries.contains_key(&key) {
            if let Some(&evict) = entries.keys().next() {
                entries.remove(&evict);
            }
        }
        entries.insert(key, entry);
    }

    /// [`MemoLibraryCache::get_or_characterize`] at an
    /// [`OperatingPoint`]: derives the scaled technology through the
    /// shared [`OperatingPoint::tech`] path and characterizes at the
    /// point's temperature. This is the one condition-derivation route
    /// the server's grid and Monte-Carlo jobs use — no caller scales
    /// `vdd` by hand anymore.
    ///
    /// # Errors
    /// As [`MemoLibraryCache::get_or_characterize`].
    pub fn get_or_characterize_at(
        &self,
        base: &Technology,
        op: &OperatingPoint,
        opts: &CharacterizeOptions,
    ) -> Result<(Arc<CellLibrary>, CacheOutcome), EngineError> {
        self.get_or_characterize(&op.tech(base), op.temp, opts)
    }

    /// Returns the characterized library for a request *with* its
    /// per-`(cell, vector)` sensitivity slabs, recalled from RAM when
    /// this process has traced the request before.
    ///
    /// Sensitivities only exist on entries that went through this
    /// method: a library memoized by the plain
    /// [`MemoLibraryCache::get_or_characterize`] path (or recalled
    /// from disk) has no recorded slabs, so the request re-runs the
    /// traced characterization — bit-identical library, now with
    /// sensitivities — and replaces the entry. The traced solve counts
    /// as one characterization in [`MemoLibraryCache::stats`] and is
    /// stored to the disk layer (as a plain library) when one is
    /// attached.
    ///
    /// Chaos: the `char-sensitivity` failpoint injects a solver
    /// failure on the trace path (RAM recalls stay unaffected), so
    /// drills can verify that fast Monte-Carlo runs degrade to the
    /// exact path.
    ///
    /// # Errors
    /// * [`EngineError::Solver`] if the traced characterization fails;
    /// * [`EngineError::Cache`] if a fresh disk entry cannot be
    ///   written.
    pub fn get_or_characterize_with_sens(
        &self,
        tech: &Technology,
        temp: f64,
        opts: &CharacterizeOptions,
    ) -> Result<(Arc<CellLibrary>, Arc<LibrarySens>, CacheOutcome), EngineError> {
        let key = LibraryCache::request_key(tech, temp, opts);
        if let Some((lib, Some(sens))) = self.entries.lock().get(&key) {
            self.memory_hits.fetch_add(1, Ordering::Relaxed);
            cache_metrics().memory_hits.inc();
            return Ok((Arc::clone(lib), Arc::clone(sens), CacheOutcome::MemoryHit));
        }
        let started = std::time::Instant::now();
        let _span = nanoleak_obs::span!("library-sens", temp = temp);
        if nanoleak_fault::inject("char-sensitivity").is_some() {
            return Err(EngineError::Solver(nanoleak_solver::SolverError::NoConvergence {
                iterations: 0,
                residual: f64::INFINITY,
            }));
        }
        let (lib, sens) = characterize_with_sensitivity(tech, temp, opts)?;
        let (lib, sens) = (Arc::new(lib), Arc::new(sens));
        self.characterizations.fetch_add(1, Ordering::Relaxed);
        cache_metrics().characterizations.inc();
        cache_metrics().characterize_seconds.record_duration(started.elapsed());
        if let Some(disk) = &self.disk {
            disk.store(&lib)?;
        }
        self.insert(key, (Arc::clone(&lib), Some(Arc::clone(&sens))));
        Ok((lib, sens, CacheOutcome::Miss))
    }

    /// Number of libraries currently held in RAM.
    pub fn resident(&self) -> usize {
        self.entries.lock().len()
    }

    /// Snapshot of the request counters.
    pub fn stats(&self) -> MemoCacheStats {
        MemoCacheStats {
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            characterizations: self.characterizations.load(Ordering::Relaxed),
        }
    }
}

/// The delta-from-nominal library source for fast Monte-Carlo runs,
/// mounted on the RAM memo.
///
/// [`DeltaLibraryProvider::prepare`] characterizes the nominal
/// technology **once** with traced Newton solves (recording
/// per-`(cell, vector)` `∂I/∂Vt`- and `∂I/∂Vdd`-style sensitivity
/// slabs through [`MemoLibraryCache::get_or_characterize_with_sens`]);
/// every perturbed die's library is then *derived* as
/// `nominal + J·Δ` instead of re-solved. A per-entry
/// linearization-error check clamps individual entries back to a full
/// solve when the tolerance is exceeded, and dies whose perturbation
/// is not a recognizable delta of the nominal fall back to the memo's
/// full characterization path.
///
/// Degradations surface in the process-wide metrics registry as
/// `nanoleak_mc_fallback_total{reason="tolerance"|"unrecognized"}`
/// (plus `reason="sens-build"` recorded by
/// [`mc_streaming_mode`](crate::mc_streaming_mode) when `prepare`
/// itself fails), and derivation wall time feeds the
/// `nanoleak_delta_library_seconds` histogram — both visible at the
/// server's `/metrics` endpoint.
pub struct DeltaLibraryProvider<'a> {
    inner: SensDeltaProvider<'a>,
}

impl<'a> DeltaLibraryProvider<'a> {
    /// Characterizes (or recalls from `memo`) the nominal library with
    /// its sensitivity slabs and mounts the per-die deriver over the
    /// memo; `tol` is the per-entry linearization-error tolerance in
    /// log units ([`nanoleak_cells::DEFAULT_DELTA_TOL`] is the
    /// default-tuned bound).
    ///
    /// # Errors
    /// As [`MemoLibraryCache::get_or_characterize_with_sens`]; callers
    /// running a fast MC degrade to the exact path on failure.
    pub fn prepare(
        memo: &'a MemoLibraryCache,
        tech: &Technology,
        temp: f64,
        opts: &CharacterizeOptions,
        tol: f64,
    ) -> Result<Self, EngineError> {
        let (nominal, sens, _) = memo.get_or_characterize_with_sens(tech, temp, opts)?;
        Ok(Self { inner: SensDeltaProvider { nominal, sens, tol, fallback: memo } })
    }

    /// The per-entry linearization-error tolerance (log units).
    pub fn tol(&self) -> f64 {
        self.inner.tol
    }
}

impl DeltaProvider for DeltaLibraryProvider<'_> {
    fn die_library(
        &self,
        tech: &Technology,
        temp: f64,
        opts: &CharacterizeOptions,
    ) -> Result<(Arc<CellLibrary>, DieDiag), McError> {
        let started = std::time::Instant::now();
        let (lib, diag) = self.inner.die_library(tech, temp, opts)?;
        let metrics = delta_metrics();
        if diag.derived {
            metrics.delta_seconds.record_duration(started.elapsed());
            if diag.fallbacks > 0 {
                metrics.fallback_tolerance.add(u64::from(diag.fallbacks));
            }
        } else {
            metrics.fallback_unrecognized.inc();
        }
        Ok((lib, diag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoleak_cells::CellType;

    fn opts() -> CharacterizeOptions {
        CharacterizeOptions::coarse(&[CellType::Inv])
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nanoleak-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn keys_separate_requests() {
        let tech = Technology::d25();
        let base = LibraryCache::request_key(&tech, 300.0, &opts());
        assert_ne!(base, LibraryCache::request_key(&tech, 310.0, &opts()));
        let wider = CharacterizeOptions { max_loading: 9e-6, ..opts() };
        assert_ne!(base, LibraryCache::request_key(&tech, 300.0, &wider));
        let mut other_tech = tech.clone();
        other_tech.vdd += 0.05;
        assert_ne!(base, LibraryCache::request_key(&other_tech, 300.0, &opts()));
    }

    #[test]
    fn miss_then_hit_round_trips_bit_identically() {
        let tech = Technology::d25();
        let cache = LibraryCache::new(temp_dir("roundtrip"));
        let (first, outcome) = cache.load_or_characterize(&tech, 300.0, &opts()).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        let (second, outcome) = cache.load_or_characterize(&tech, 300.0, &opts()).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        assert_eq!(*first, *second, "loaded library equals characterized library");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_payload_invalidates() {
        let tech = Technology::d25();
        let cache = LibraryCache::new(temp_dir("corrupt"));
        let (_, outcome) = cache.load_or_characterize(&tech, 300.0, &opts()).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        // Flip one payload byte behind the header.
        let path = cache.path_for(&tech, 300.0, &opts());
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let (lib, outcome) = cache.load_or_characterize(&tech, 300.0, &opts()).unwrap();
        assert_eq!(outcome, CacheOutcome::Invalidated);
        assert!(lib.cell(CellType::Inv).is_some(), "recovered by re-characterizing");
        // And the replacement file is valid again.
        let (_, outcome) = cache.load_or_characterize(&tech, 300.0, &opts()).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn truncated_header_invalidates() {
        let tech = Technology::d25();
        let cache = LibraryCache::new(temp_dir("truncated"));
        cache.load_or_characterize(&tech, 300.0, &opts()).unwrap();
        let path = cache.path_for(&tech, 300.0, &opts());
        std::fs::write(&path, b"NLKC").unwrap();
        let (_, outcome) = cache.load_or_characterize(&tech, 300.0, &opts()).unwrap();
        assert_eq!(outcome, CacheOutcome::Invalidated);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn memo_layer_hits_ram_before_disk() {
        let tech = Technology::d25();
        let memo = MemoLibraryCache::over(LibraryCache::new(temp_dir("memo")));
        let (first, outcome) = memo.get_or_characterize(&tech, 300.0, &opts()).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        let (second, outcome) = memo.get_or_characterize(&tech, 300.0, &opts()).unwrap();
        assert_eq!(outcome, CacheOutcome::MemoryHit);
        assert!(Arc::ptr_eq(&first, &second), "RAM hit shares one allocation");
        // A different temperature is a distinct entry.
        let (_, outcome) = memo.get_or_characterize(&tech, 310.0, &opts()).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(memo.resident(), 2);
        let stats = memo.stats();
        assert_eq!(
            (stats.memory_hits, stats.disk_hits, stats.characterizations),
            (1, 0, 2),
            "{stats:?}"
        );
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        // A fresh memo over the same directory hits disk, not RAM.
        let cold =
            MemoLibraryCache::over(LibraryCache::new(memo.disk().unwrap().dir().to_path_buf()));
        let (_, outcome) = cold.get_or_characterize(&tech, 300.0, &opts()).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        assert_eq!(cold.stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(memo.disk().unwrap().dir());
    }

    #[test]
    fn residency_is_bounded_with_disk_fallback() {
        let tech = Technology::d25();
        let memo =
            MemoLibraryCache::over(LibraryCache::new(temp_dir("bounded"))).with_max_resident(2);
        for temp in [300.0, 310.0, 320.0] {
            let (_, outcome) = memo.get_or_characterize(&tech, temp, &opts()).unwrap();
            assert_eq!(outcome, CacheOutcome::Miss);
        }
        assert_eq!(memo.resident(), 2, "third insert evicted one entry");
        // Every request still answers correctly; at most one of the
        // three can need the solver again (the evicted one comes back
        // from disk as a Hit).
        for temp in [300.0, 310.0, 320.0] {
            let (lib, outcome) = memo.get_or_characterize(&tech, temp, &opts()).unwrap();
            assert_eq!(lib.temp, temp);
            assert_ne!(outcome, CacheOutcome::Miss, "disk layer serves evictions");
        }
        let _ = std::fs::remove_dir_all(memo.disk().unwrap().dir());
    }

    #[test]
    fn upgrading_a_resident_entry_with_sensitivities_evicts_nothing() {
        // At the residency bound, tracing a key that is already
        // resident replaces its entry in place; only a new key may
        // evict. Map order is random per instance, so repeat on fresh
        // memos to make an arbitrary-victim eviction show.
        let tech = Technology::d25();
        for _ in 0..8 {
            let memo = MemoLibraryCache::memory_only().with_max_resident(2);
            for temp in [300.0, 310.0] {
                memo.get_or_characterize(&tech, temp, &opts()).unwrap();
            }
            let (_, _, outcome) =
                memo.get_or_characterize_with_sens(&tech, 300.0, &opts()).unwrap();
            assert_eq!(outcome, CacheOutcome::Miss, "plain entries carry no sensitivities");
            assert_eq!(memo.resident(), 2);
            let (_, outcome) = memo.get_or_characterize(&tech, 310.0, &opts()).unwrap();
            assert_eq!(outcome, CacheOutcome::MemoryHit, "the other entry stayed resident");
            let (_, _, outcome) =
                memo.get_or_characterize_with_sens(&tech, 300.0, &opts()).unwrap();
            assert_eq!(outcome, CacheOutcome::MemoryHit, "the upgrade kept its sensitivities");
        }
    }

    #[test]
    fn operating_point_requests_share_entries_with_raw_requests() {
        // The same physics asked for two ways — a raw (tech, temp)
        // pair and an OperatingPoint — must name the same memo entry,
        // and distinct points must not collide.
        let base = Technology::d25();
        let memo = MemoLibraryCache::memory_only();
        let op = OperatingPoint::new(300.0, 0.9);
        let (via_op, outcome) = memo.get_or_characterize_at(&base, &op, &opts()).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        let (via_raw, outcome) = memo.get_or_characterize(&op.tech(&base), 300.0, &opts()).unwrap();
        assert_eq!(outcome, CacheOutcome::MemoryHit, "same request, same entry");
        assert!(Arc::ptr_eq(&via_op, &via_raw));
        let hotter = OperatingPoint::new(310.0, 0.9);
        let (_, outcome) = memo.get_or_characterize_at(&base, &hotter, &opts()).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss, "different point, different entry");
    }

    #[test]
    fn memory_only_memo_characterizes_once() {
        let tech = Technology::d25();
        let memo = MemoLibraryCache::memory_only();
        let (_, outcome) = memo.get_or_characterize(&tech, 300.0, &opts()).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        let (_, outcome) = memo.get_or_characterize(&tech, 300.0, &opts()).unwrap();
        assert_eq!(outcome, CacheOutcome::MemoryHit);
        assert_eq!(memo.stats().characterizations, 1);
    }

    #[test]
    fn concurrent_same_key_writers_never_tear_the_entry() {
        // Both writers produce identical bytes, but before tmp names
        // were writer-unique they could interleave into one shared
        // `.nlc.tmp` and rename a spliced file into place. Pin that
        // racing stores always leave a loadable entry behind.
        let tech = Technology::d25();
        let cache = LibraryCache::new(temp_dir("race"));
        let lib = CellLibrary::characterize(&tech, 300.0, &opts()).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..8 {
                        cache.store(&lib).unwrap();
                    }
                });
            }
        });
        let (_, outcome) = cache.load_or_characterize(&tech, 300.0, &opts()).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit, "entry survived racing writers intact");
        // No tmp litter: every writer renamed (or failed loudly).
        let leftovers: Vec<_> = std::fs::read_dir(cache.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_none_or(|ext| ext != "nlc"))
            .collect();
        assert!(leftovers.is_empty(), "stray tmp files: {leftovers:?}");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn option_change_is_a_fresh_miss_not_a_stale_hit() {
        let tech = Technology::d25();
        let cache = LibraryCache::new(temp_dir("options"));
        let (_, outcome) = cache.load_or_characterize(&tech, 300.0, &opts()).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        let denser = CharacterizeOptions { points: 5, ..opts() };
        let (lib, outcome) = cache.load_or_characterize(&tech, 300.0, &denser).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss, "different options, different entry");
        assert_eq!(lib.options.points, 5);
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
