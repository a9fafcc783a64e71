//! Persistent characterization cache.
//!
//! Characterizing the full cell family at default resolution costs
//! about 0.26–0.30 s of solver time per (technology, temperature,
//! options) triple, and the coarse grid about 0.09 s (release build,
//! 2-vCPU VM); every CLI or bench invocation used to pay it again.
//! [`LibraryCache`] serializes the characterized [`CellLibrary`] to
//! disk so later runs (including across processes) skip the solve:
//! with a warm `.nlc` hit, `estimate s838 --vectors 20` runs end to end
//! in 4–5 ms. A traced request (the fast Monte-Carlo nominal,
//! [`DeltaLibraryProvider::prepare`]) also stores its sensitivities
//! beside its library, so a later run loads them in about a
//! millisecond instead of re-tracing (0.8 s on coarse s838).
//!
//! ## One ladder
//!
//! Every request walks one ladder: [`MemoLibraryCache`] looks in RAM,
//! then asks its disk layer, which loads the request's entry or
//! characterizes and stores it. Each layer has one body for both kinds
//! of request, chosen by whether the caller wants sensitivities. A
//! traced request differs in one way per layer: RAM serves it only
//! from an entry that holds sensitivities, and disk also reads and
//! writes the `.nls` sidecar beside the library, whose solve is the
//! traced characterization. Its library is stored the plain way, so
//! plain requests for the key hit it too.
//!
//! ## Files
//!
//! One request key names two files: `<tech>-v3-<key>.nlc`, the
//! library, and `<tech>-v3-<key>.nls`, the sidecar a traced request
//! writes beside it. Both start with the same header:
//!
//! | bytes | content |
//! |---|---|
//! | 4 | magic: `NLKC` (`.nlc`) or `NLKS` (`.nls`) |
//! | 4 | format version, u32 LE ([`CACHE_FORMAT_VERSION`]) |
//! | 8 | request key, u64 LE — FNV-1a over the serialized (tech, temp, options) |
//! | 8 | payload length, u64 LE |
//! | 8 | payload checksum, u64 LE (FNV-1a) |
//! | n | payload: `.nlc` the `CellLibrary` in vendored-serde binary encoding, `.nls` the flat [`LibrarySens`] record ([`LibrarySens::to_bytes`]) |
//!
//! Format version 3 stores each loading-response table as its `sub`,
//! `gate` and `btbt` delta columns only: the grid they are sampled on
//! is the library's ([`CellLibrary::grid`]), derived from the stored
//! options, so no file holds a copy of it. The version is part of the
//! file name, so a cache directory written under another version
//! characterizes once and then hits again. The sidecar's record
//! carries its own version
//! ([`SENS_MODEL_VERSION`](nanoleak_cells::SENS_MODEL_VERSION)), so a
//! change to the sensitivity model re-traces without touching the
//! `.nlc` format.
//!
//! Any mismatch — magic, version, key, length, checksum, decode
//! failure, a decoded library whose (tech, temp, options) differ from
//! the request (a key collision), or one that fails
//! [`CellLibrary::is_well_formed`] (a column whose length is not the
//! grid's knot count, or a missing requested cell, say: decoding
//! bypasses the constructors) — is treated as a stale entry: the
//! library is re-characterized and the file overwritten. So a cache
//! file never reaches the estimator unchecked. A sidecar is read only
//! after its library loads, only if its length is the one that
//! library's shape implies, and only as a record that fits that
//! library ([`LibrarySens::from_bytes`]); a traced request whose pair
//! fails any check re-traces and overwrites both files. Changing the
//! characterization options changes the key and therefore the file
//! names, so old entries can never shadow new requests.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nanoleak_cells::{
    characterize_with_sensitivity, fnv1a, CellLibrary, CharacterizeOptions, LibrarySens,
    OperatingPoint,
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
pub const CACHE_FORMAT_VERSION: u32 = 3;

const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 8;

/// One kind of cache file: the extension its name ends in and the
/// magic its header starts with.
struct FileKind {
    ext: &'static str,
    magic: &'static [u8; 4],
}

/// A characterized library.
const LIBRARY_FILE: FileKind = FileKind { ext: "nlc", magic: b"NLKC" };
/// A traced library's sensitivities, beside its library file.
const SENS_FILE: FileKind = FileKind { ext: "nls", magic: b"NLKS" };

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

/// What one cache layer returns for a request: the library, its
/// sensitivities when the request was traced, and how the layer
/// produced them.
type Served = (Arc<CellLibrary>, Option<Arc<LibrarySens>>, CacheOutcome);

/// Characterizes a request: with traced Newton solves, keeping their
/// sensitivities, when `traced`.
fn solve(
    tech: &Technology,
    temp: f64,
    opts: &CharacterizeOptions,
    traced: bool,
) -> Result<(CellLibrary, Option<LibrarySens>), EngineError> {
    Ok(if traced {
        let (lib, sens) = characterize_with_sensitivity(tech, temp, opts)?;
        (lib, Some(sens))
    } else {
        (CellLibrary::characterize(tech, temp, opts)?, None)
    })
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

    /// The file path backing one request.
    fn path_for(&self, tech: &Technology, temp: f64, opts: &CharacterizeOptions) -> PathBuf {
        self.file_path(&LIBRARY_FILE, tech, CellLibrary::request_key(tech, temp, opts))
    }

    /// The path of the sensitivity sidecar a traced request stores
    /// beside its library ([`LibraryCache::path_for`]), under the same
    /// key.
    fn sens_path_for(&self, tech: &Technology, temp: f64, opts: &CharacterizeOptions) -> PathBuf {
        self.file_path(&SENS_FILE, tech, CellLibrary::request_key(tech, temp, opts))
    }

    fn file_path(&self, kind: &FileKind, tech: &Technology, key: u64) -> PathBuf {
        let name = tech.name.to_lowercase().replace(|c: char| !c.is_alphanumeric(), "-");
        self.dir.join(format!("{name}-v{CACHE_FORMAT_VERSION}-{key:016x}.{}", kind.ext))
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
        let (lib, _, outcome) = self.serve(tech, temp, opts, false)?;
        Ok((lib, outcome))
    }

    /// The disk ladder's one body: loads a request's entry, or
    /// characterizes and stores it. A traced request's entry is its
    /// library plus the sidecar beside it
    /// ([`LibraryCache::sens_path_for`]); its solve is the traced
    /// characterization, and both files are written, the library
    /// through [`LibraryCache::store`]. An entry with any of its files
    /// present that does not load (a sidecar whose library is missing,
    /// say) is [`CacheOutcome::Invalidated`], and its files are
    /// rewritten.
    fn serve(
        &self,
        tech: &Technology,
        temp: f64,
        opts: &CharacterizeOptions,
        traced: bool,
    ) -> Result<Served, EngineError> {
        let sens_path = self.sens_path_for(tech, temp, opts);
        let existed = self.path_for(tech, temp, opts).exists() || (traced && sens_path.exists());
        if existed {
            if let Some((lib, sens)) = self.try_load(tech, temp, opts, traced) {
                return Ok((Arc::new(lib), sens.map(Arc::new), CacheOutcome::Hit));
            }
        }
        let (lib, sens) = solve(tech, temp, opts, traced)?;
        self.store(&lib)?;
        if let Some(sens) = &sens {
            let key = CellLibrary::request_key(tech, temp, opts);
            self.write_sealed(&SENS_FILE, &sens_path, key, &sens.to_bytes())?;
        }
        let outcome = if existed { CacheOutcome::Invalidated } else { CacheOutcome::Miss };
        Ok((Arc::new(lib), sens.map(Arc::new), outcome))
    }

    /// Writes `lib` into the cache, creating the directory on demand.
    ///
    /// # Errors
    /// [`EngineError::Cache`] on any I/O failure.
    pub fn store(&self, lib: &CellLibrary) -> Result<PathBuf, EngineError> {
        let path = self.path_for(&lib.tech, lib.temp, &lib.options);
        let key = CellLibrary::request_key(&lib.tech, lib.temp, &lib.options);
        self.write_sealed(&LIBRARY_FILE, &path, key, &serde::to_bytes(lib))?;
        Ok(path)
    }

    /// Writes `payload` to `path` behind a `kind` header for `key`,
    /// creating the directory on demand.
    fn write_sealed(
        &self,
        kind: &FileKind,
        path: &Path,
        key: u64,
        payload: &[u8],
    ) -> Result<(), EngineError> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| EngineError::Cache(format!("create {}: {e}", self.dir.display())))?;
        let bytes = seal(kind, key, payload);

        // Write-then-rename so a crashed writer never leaves a torn
        // file behind for the next reader. The tmp name carries the
        // pid and a process-unique sequence number: two processes (or
        // two threads racing the same key through MemoLibraryCache)
        // must never interleave writes into one tmp file and rename a
        // spliced payload into place.
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = path.with_extension(format!(
            "{}.tmp.{}.{}",
            kind.ext,
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if let Some(msg) = nanoleak_fault::inject("cache-io") {
            let _ = std::fs::remove_file(&tmp);
            return Err(EngineError::Cache(format!("write {}: {msg}", tmp.display())));
        }
        std::fs::write(&tmp, &bytes)
            .map_err(|e| EngineError::Cache(format!("write {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| EngineError::Cache(format!("rename to {}: {e}", path.display())))
    }

    /// Attempts to load and fully validate a request's entry: its
    /// library file and, for a traced request, the sidecar beside it,
    /// read only once the library loads and only as a record that fits
    /// it. Any problem returns `None` (the caller re-characterizes).
    fn try_load(
        &self,
        tech: &Technology,
        temp: f64,
        opts: &CharacterizeOptions,
        traced: bool,
    ) -> Option<(CellLibrary, Option<LibrarySens>)> {
        let key = CellLibrary::request_key(tech, temp, opts);
        let payload = read_sealed(&LIBRARY_FILE, &self.path_for(tech, temp, opts), key, None)?;
        let lib: CellLibrary = serde::from_bytes(&payload).ok()?;
        // A key collision is astronomically unlikely but cheap to rule
        // out (the decoded request must be the asked-for one), and the
        // checksum only proves the bytes are the ones written: the
        // tables must also be ones the estimator can index.
        if lib.tech != *tech || lib.temp != temp || lib.options != *opts || !lib.is_well_formed() {
            return None;
        }
        if !traced {
            return Some((lib, None));
        }
        let path = self.sens_path_for(tech, temp, opts);
        let payload = read_sealed(&SENS_FILE, &path, key, Some(LibrarySens::encoded_len(&lib)))?;
        let sens = LibrarySens::from_bytes(&lib, &payload)?;
        Some((lib, Some(sens)))
    }
}

/// The bytes of one `kind` file: `payload` behind the header for `key`.
fn seal(kind: &FileKind, key: u64, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
    bytes.extend_from_slice(kind.magic);
    bytes.extend_from_slice(&CACHE_FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&key.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&fnv1a(payload.iter().copied()).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// The payload of the `kind` file `bytes` once its header checks out:
/// magic, version, `key`, length and checksum.
fn unseal(kind: &FileKind, key: u64, mut bytes: Vec<u8>) -> Option<Vec<u8>> {
    if bytes.len() < HEADER_LEN {
        return None;
    }
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    let payload = &bytes[HEADER_LEN..];
    if &bytes[..4] != kind.magic
        || version != CACHE_FORMAT_VERSION
        || word(8) != key
        || word(16) != payload.len() as u64
        || word(24) != fnv1a(payload.iter().copied())
    {
        return None;
    }
    bytes.drain(..HEADER_LEN);
    Some(bytes)
}

/// Reads and [unseals](unseal) the `kind` file at `path`. A known
/// `payload_len` is checked against the file's size before any byte is
/// read. Any problem returns `None`.
fn read_sealed(
    kind: &FileKind,
    path: &Path,
    key: u64,
    payload_len: Option<usize>,
) -> Option<Vec<u8>> {
    // Chaos hook: an armed `cache-corrupt` failpoint makes every
    // existing entry read as torn, forcing the invalidation path.
    if nanoleak_fault::inject("cache-corrupt").is_some() {
        return None;
    }
    if let Some(len) = payload_len {
        if std::fs::metadata(path).ok()?.len() != (HEADER_LEN + len) as u64 {
            return None;
        }
    }
    unseal(kind, key, std::fs::read(path).ok()?)
}

/// Counters describing how a [`MemoLibraryCache`] has served requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoCacheStats {
    /// Requests served from process RAM.
    pub memory_hits: u64,
    /// Requests served from valid disk files (a `*.nlc`, plus its
    /// `*.nls` sidecar for a traced request).
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

/// An in-memory memoizing layer over the disk cache.
///
/// A long-lived process (the `nanoleak-serve` front-end, batch
/// condition-grid jobs) asks for the same `(technology, temperature,
/// options)` characterization over and over; paying even the disk
/// decode per request is wasted work. This layer keeps every library
/// the process has seen as a shared [`Arc`] keyed by
/// [`CellLibrary::request_key`], falling through to the disk cache
/// (and from there to the solver) only on first contact. Plain and
/// traced requests walk this one ladder (see the [module docs](self)):
/// a plain request takes any resident entry, a traced one only an entry
/// that holds sensitivities, and a traced miss replaces the entry in
/// place.
///
/// Thread-safe: concurrent requests for *different* keys characterize
/// in parallel; concurrent requests for the *same* key may both run
/// the solve (last write wins — both produce identical libraries, so
/// this trades a rare duplicated solve for never serializing distinct
/// requests behind one lock).
///
/// Residency is bounded at [`MAX_RESIDENT_LIBRARIES`] entries: beyond
/// that the least recently used entry is evicted, so a long-lived
/// server fed adversarially unique `(temp, Vdd)` requests cannot grow
/// RAM without bound, and a library every job asks for stays resident
/// — evicted entries fall back to the disk layer.
#[derive(Debug)]
pub struct MemoLibraryCache {
    disk: Option<LibraryCache>,
    /// Resident libraries by request key (see [`MemoEntry`]).
    entries: Mutex<HashMap<u64, MemoEntry>>,
    /// The clock that stamps each entry's last use.
    clock: AtomicU64,
    max_resident: usize,
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    characterizations: AtomicU64,
}

/// One resident library, with the sensitivity slabs traced alongside
/// it when a traced request brought it in (the disk layer, if any,
/// holds them too), and the clock stamp of its last use.
#[derive(Debug)]
struct MemoEntry {
    lib: Arc<CellLibrary>,
    sens: Option<Arc<LibrarySens>>,
    used: u64,
}

/// The solver error the `characterize` and `char-sensitivity`
/// failpoints inject.
fn injected_non_convergence() -> EngineError {
    EngineError::Solver(nanoleak_solver::SolverError::NoConvergence {
        iterations: 0,
        residual: f64::INFINITY,
    })
}

/// Default bound on libraries held in RAM by a [`MemoLibraryCache`]
/// (a characterized full-family library is several MB).
pub const MAX_RESIDENT_LIBRARIES: usize = 64;

impl Default for MemoLibraryCache {
    fn default() -> Self {
        Self {
            disk: None,
            entries: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
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
        let (lib, _, outcome) = self.serve(tech, temp, opts, false)?;
        Ok((lib, outcome))
    }

    /// The memo ladder's one body: RAM, then the disk layer
    /// ([`LibraryCache::serve`]), then the solve. A traced request is
    /// served from RAM only by an entry that holds sensitivities; the
    /// flag also picks the span (`library` or `library-sens`) and the
    /// failpoint (`characterize` or `char-sensitivity`), which injects
    /// a solver failure on every request that misses RAM (an
    /// already-resident library cannot fail retroactively). A disk hit
    /// counts on [`MemoCacheStats::disk_hits`], any solve as one
    /// characterization.
    fn serve(
        &self,
        tech: &Technology,
        temp: f64,
        opts: &CharacterizeOptions,
        traced: bool,
    ) -> Result<Served, EngineError> {
        let key = CellLibrary::request_key(tech, temp, opts);
        {
            let mut entries = self.entries.lock();
            if let Some(entry) = entries.get_mut(&key).filter(|e| !traced || e.sens.is_some()) {
                entry.used = self.clock.fetch_add(1, Ordering::Relaxed);
                self.memory_hits.fetch_add(1, Ordering::Relaxed);
                cache_metrics().memory_hits.inc();
                let sens = if traced { entry.sens.clone() } else { None };
                return Ok((Arc::clone(&entry.lib), sens, CacheOutcome::MemoryHit));
            }
        }
        let started = std::time::Instant::now();
        let _span = if traced {
            nanoleak_obs::span!("library-sens", temp = temp)
        } else {
            nanoleak_obs::span!("library", temp = temp)
        };
        let failpoint = if traced { "char-sensitivity" } else { "characterize" };
        if nanoleak_fault::inject(failpoint).is_some() {
            return Err(injected_non_convergence());
        }
        let (lib, sens, outcome) = match &self.disk {
            Some(disk) => disk.serve(tech, temp, opts, traced)?,
            None => {
                let (lib, sens) = solve(tech, temp, opts, traced)?;
                (Arc::new(lib), sens.map(Arc::new), CacheOutcome::Miss)
            }
        };
        if outcome == CacheOutcome::Hit {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            cache_metrics().disk_hits.inc();
        } else {
            self.characterizations.fetch_add(1, Ordering::Relaxed);
            cache_metrics().characterizations.inc();
            cache_metrics().characterize_seconds.record_duration(started.elapsed());
        }
        self.insert(key, Arc::clone(&lib), sens.clone());
        Ok((lib, sens, outcome))
    }

    /// Makes `lib` resident under `key`, evicting the least recently
    /// used other entry only when a new key would exceed the residency
    /// bound; the disk layer (if any) still serves the evicted request
    /// without re-solving.
    fn insert(&self, key: u64, lib: Arc<CellLibrary>, sens: Option<Arc<LibrarySens>>) {
        let mut entries = self.entries.lock();
        if entries.len() >= self.max_resident && !entries.contains_key(&key) {
            if let Some(evict) = entries.iter().min_by_key(|(_, e)| e.used).map(|(&k, _)| k) {
                entries.remove(&evict);
            }
        }
        let used = self.clock.fetch_add(1, Ordering::Relaxed);
        entries.insert(key, MemoEntry { lib, sens, used });
    }

    /// [`MemoLibraryCache::get_or_characterize`] at an
    /// [`OperatingPoint`]: derives the scaled technology through the
    /// shared [`OperatingPoint::tech`] path and characterizes at the
    /// point's temperature. This is the condition-derivation route of
    /// every analysis request (a Monte-Carlo nominal goes through the
    /// same [`OperatingPoint::tech`]) — no caller scales `vdd` by hand
    /// anymore.
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

/// The delta-from-nominal library source for fast Monte-Carlo runs.
///
/// [`DeltaLibraryProvider::prepare`] characterizes the nominal
/// technology **once** per cache directory with traced Newton solves
/// (recording per-`(cell, vector)` `∂I/∂Vt`- and `∂I/∂Vdd`-style
/// sensitivity slabs as the traced request of the memo's one ladder,
/// the run's only memo entry, which a disk layer stores and later runs
/// load); every perturbed die's library is then
/// *derived* as `nominal + J·Δ` instead of re-solved. A per-entry
/// linearization-error check clamps individual entries back to a full
/// solve when the tolerance is exceeded, and dies whose perturbation
/// is not a recognizable delta of the nominal get a fresh full
/// characterization. No die library enters the memo.
///
/// Degradations surface in the process-wide metrics registry as
/// `nanoleak_mc_fallback_total{reason="tolerance"|"unrecognized"}`
/// (plus `reason="sens-build"` recorded by
/// [`mc_streaming_mode`](crate::mc_streaming_mode) when `prepare`
/// itself fails), and derivation wall time feeds the
/// `nanoleak_delta_library_seconds` histogram — both visible at the
/// server's `/metrics` endpoint.
pub struct DeltaLibraryProvider {
    inner: SensDeltaProvider,
    outcome: CacheOutcome,
}

impl DeltaLibraryProvider {
    /// Gets the nominal library with its sensitivity slabs from `memo`
    /// and mounts the per-die deriver on it; `tol` is the per-entry
    /// linearization-error tolerance in log units
    /// ([`nanoleak_cells::DEFAULT_DELTA_TOL`] is the default-tuned
    /// bound). The request walks the memo's one ladder traced: RAM
    /// serves it only from an entry this process traced, a disk layer
    /// loads the `.nlc` and its `.nls` sidecar, and a miss runs the
    /// traced characterization, which the disk layer stores as both
    /// files. A memo without a disk layer keeps the nominal in RAM.
    ///
    /// # Errors
    /// * [`EngineError::Solver`] if the traced characterization fails
    ///   (also injected, on every request that misses RAM, by the
    ///   `char-sensitivity` failpoint); callers running a fast MC
    ///   degrade to the exact path;
    /// * [`EngineError::Cache`] if a fresh disk entry cannot be
    ///   written.
    pub fn prepare(
        memo: &MemoLibraryCache,
        tech: &Technology,
        temp: f64,
        opts: &CharacterizeOptions,
        tol: f64,
    ) -> Result<Self, EngineError> {
        let (nominal, sens, outcome) = memo.serve(tech, temp, opts, true)?;
        let sens = sens.expect("a traced request returns its sensitivities");
        Ok(Self { inner: SensDeltaProvider { nominal, sens, tol }, outcome })
    }

    /// The per-entry linearization-error tolerance (log units).
    pub fn tol(&self) -> f64 {
        self.inner.tol
    }

    /// The nominal library every die derives from.
    pub fn nominal(&self) -> &Arc<CellLibrary> {
        &self.inner.nominal
    }

    /// The nominal's traced sensitivity slabs.
    pub fn sens(&self) -> &Arc<LibrarySens> {
        &self.inner.sens
    }

    /// How `memo` produced the nominal in
    /// [`DeltaLibraryProvider::prepare`].
    pub fn outcome(&self) -> CacheOutcome {
        self.outcome
    }
}

impl DeltaProvider for DeltaLibraryProvider {
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
        let cache = LibraryCache::new(temp_dir("keys"));
        let base = cache.path_for(&tech, 300.0, &opts());
        assert_ne!(base, cache.path_for(&tech, 310.0, &opts()));
        let wider = CharacterizeOptions { max_loading: 9e-6, ..opts() };
        assert_ne!(base, cache.path_for(&tech, 300.0, &wider));
        let mut other_tech = tech.clone();
        other_tech.vdd += 0.05;
        assert_ne!(base, cache.path_for(&other_tech, 300.0, &opts()));
        // A request's sensitivity sidecar shares its key, not its file.
        let sens = cache.sens_path_for(&tech, 300.0, &opts());
        assert_ne!(base, sens);
        assert_eq!(base.file_stem(), sens.file_stem());
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

    /// Both kinds of request, plain and traced: the stale-entry tests
    /// below run each through the one body of every layer.
    const KINDS: [bool; 2] = [false, true];

    #[test]
    fn corrupt_payload_invalidates() {
        let tech = Technology::d25();
        for traced in KINDS {
            let cache = LibraryCache::new(temp_dir(&format!("corrupt-{traced}")));
            let (_, _, outcome) = cache.serve(&tech, 300.0, &opts(), traced).unwrap();
            assert_eq!(outcome, CacheOutcome::Miss);
            // Flip one payload byte behind the header.
            let path = cache.path_for(&tech, 300.0, &opts());
            let mut bytes = std::fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0xff;
            std::fs::write(&path, &bytes).unwrap();
            let (lib, sens, outcome) = cache.serve(&tech, 300.0, &opts(), traced).unwrap();
            assert_eq!(outcome, CacheOutcome::Invalidated);
            assert!(lib.cell(CellType::Inv).is_some(), "recovered by re-characterizing");
            assert_eq!(sens.is_some(), traced, "a traced request re-traced");
            // And the replacement file is valid again.
            let (_, _, outcome) = cache.serve(&tech, 300.0, &opts(), traced).unwrap();
            assert_eq!(outcome, CacheOutcome::Hit);
            let _ = std::fs::remove_dir_all(cache.dir());
        }
    }

    /// Cuts the first response table in `v` (a record whose fields are
    /// `sub`, `gate`, `btbt`) to one knot; `false` if none is found.
    fn cut_first_table(v: &mut serde::Value) -> bool {
        use serde::Value;
        match v {
            Value::Record(fields) if fields.first().is_some_and(|(name, _)| name == "sub") => {
                for (_, column) in fields.iter_mut() {
                    let Value::Seq(items) = column else { return false };
                    items.truncate(1);
                }
                true
            }
            Value::Record(fields) => fields.iter_mut().any(|(_, f)| cut_first_table(f)),
            Value::Seq(items) => items.iter_mut().any(cut_first_table),
            Value::Map(entries) => entries.iter_mut().any(|(_, e)| cut_first_table(e)),
            Value::Variant(_, payload) => cut_first_table(payload),
            _ => false,
        }
    }

    /// Removes every entry of the library's `cells` map in `v`; `false`
    /// if the map is missing or empty.
    fn drop_cells(v: &mut serde::Value) -> bool {
        use serde::Value;
        let Value::Record(fields) = v else { return false };
        let Some((_, Value::Map(cells))) = fields.iter_mut().find(|(name, _)| name == "cells")
        else {
            return false;
        };
        let had = !cells.is_empty();
        cells.clear();
        had
    }

    #[test]
    fn decoded_libraries_are_checked_before_use() {
        // Payloads that decode and carry a valid checksum, but hold a
        // table column cut to one knot (the estimator would index past
        // it) or lack a requested cell (the estimator would report it
        // missing): each entry must read as stale.
        let tech = Technology::d25();
        let cache = LibraryCache::new(temp_dir("tampered"));
        let tampers: [fn(&mut serde::Value) -> bool; 2] = [cut_first_table, drop_cells];
        for tamper in tampers {
            cache.load_or_characterize(&tech, 300.0, &opts()).unwrap();
            let path = cache.path_for(&tech, 300.0, &opts());
            let bytes = std::fs::read(&path).unwrap();
            let mut value = serde::value_from_bytes(&bytes[HEADER_LEN..]).unwrap();
            assert!(tamper(&mut value), "the library holds what the tamper edits");
            let payload = serde::value_to_bytes(&value);
            let decoded: CellLibrary = serde::from_bytes(&payload).unwrap();
            assert!(!decoded.is_well_formed(), "the tampered library decodes but is malformed");
            let mut tampered = bytes[..16].to_vec();
            tampered.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            tampered.extend_from_slice(&fnv1a(payload.iter().copied()).to_le_bytes());
            tampered.extend_from_slice(&payload);
            std::fs::write(&path, &tampered).unwrap();

            let (lib, outcome) = cache.load_or_characterize(&tech, 300.0, &opts()).unwrap();
            assert_eq!(outcome, CacheOutcome::Invalidated);
            assert_eq!(*lib, CellLibrary::characterize(&tech, 300.0, &opts()).unwrap());
            let (_, outcome) = cache.load_or_characterize(&tech, 300.0, &opts()).unwrap();
            assert_eq!(outcome, CacheOutcome::Hit, "the replacement file is valid again");
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn truncated_header_invalidates() {
        let tech = Technology::d25();
        for traced in KINDS {
            let cache = LibraryCache::new(temp_dir(&format!("truncated-{traced}")));
            cache.serve(&tech, 300.0, &opts(), traced).unwrap();
            let path = cache.path_for(&tech, 300.0, &opts());
            std::fs::write(&path, b"NLKC").unwrap();
            let (_, _, outcome) = cache.serve(&tech, 300.0, &opts(), traced).unwrap();
            assert_eq!(outcome, CacheOutcome::Invalidated);
            let _ = std::fs::remove_dir_all(cache.dir());
        }
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
        for traced in KINDS {
            let dir = temp_dir(&format!("bounded-{traced}"));
            let memo = MemoLibraryCache::over(LibraryCache::new(dir)).with_max_resident(2);
            for temp in [300.0, 310.0, 320.0] {
                let (_, _, outcome) = memo.serve(&tech, temp, &opts(), traced).unwrap();
                assert_eq!(outcome, CacheOutcome::Miss);
            }
            assert_eq!(memo.resident(), 2, "third insert evicted one entry");
            // Every request still answers correctly; at most one of the
            // three can need the solver again (the evicted one comes
            // back from disk as a Hit).
            for temp in [300.0, 310.0, 320.0] {
                let (lib, _, outcome) = memo.serve(&tech, temp, &opts(), traced).unwrap();
                assert_eq!(lib.temp, temp);
                assert_ne!(outcome, CacheOutcome::Miss, "disk layer serves evictions");
            }
            let _ = std::fs::remove_dir_all(memo.disk().unwrap().dir());
        }
    }

    #[test]
    fn eviction_spares_the_most_recently_used_entry() {
        // Map order is random per instance, so repeat on fresh memos:
        // a victim picked by map order would show within a few rounds.
        let tech = Technology::d25();
        for _ in 0..8 {
            let memo = MemoLibraryCache::memory_only().with_max_resident(2);
            let (a, b, c) = (300.0, 310.0, 320.0);
            memo.get_or_characterize(&tech, a, &opts()).unwrap();
            memo.get_or_characterize(&tech, b, &opts()).unwrap();
            let (_, outcome) = memo.get_or_characterize(&tech, a, &opts()).unwrap();
            assert_eq!(outcome, CacheOutcome::MemoryHit);
            memo.get_or_characterize(&tech, c, &opts()).unwrap();
            assert_eq!(memo.resident(), 2);
            let (_, outcome) = memo.get_or_characterize(&tech, a, &opts()).unwrap();
            assert_eq!(outcome, CacheOutcome::MemoryHit, "the least recently used entry went");
        }
    }

    #[test]
    fn upgrading_a_resident_entry_with_sensitivities_evicts_nothing() {
        // At the residency bound, tracing a key that is already
        // resident replaces its entry in place; only a new key may
        // evict. Repeat on fresh memos, whose map orders differ.
        let tech = Technology::d25();
        for _ in 0..8 {
            let memo = MemoLibraryCache::memory_only().with_max_resident(2);
            for temp in [300.0, 310.0] {
                memo.get_or_characterize(&tech, temp, &opts()).unwrap();
            }
            let (_, _, outcome) = memo.serve(&tech, 300.0, &opts(), true).unwrap();
            assert_eq!(outcome, CacheOutcome::Miss, "plain entries carry no sensitivities");
            assert_eq!(memo.resident(), 2);
            let (_, outcome) = memo.get_or_characterize(&tech, 310.0, &opts()).unwrap();
            assert_eq!(outcome, CacheOutcome::MemoryHit, "the other entry stayed resident");
            let (_, _, outcome) = memo.serve(&tech, 300.0, &opts(), true).unwrap();
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
        for traced in KINDS {
            let memo = MemoLibraryCache::memory_only();
            let (_, _, outcome) = memo.serve(&tech, 300.0, &opts(), traced).unwrap();
            assert_eq!(outcome, CacheOutcome::Miss);
            let (_, _, outcome) = memo.serve(&tech, 300.0, &opts(), traced).unwrap();
            assert_eq!(outcome, CacheOutcome::MemoryHit);
            assert_eq!(memo.stats().characterizations, 1);
        }
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

    /// The names of the files in `dir`, sorted.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn traced_entries_persist_beside_their_library() {
        let tech = Technology::d25();
        let dir = temp_dir("sidecar");
        let memo = MemoLibraryCache::over(LibraryCache::new(&dir));
        let (lib, sens, outcome) = memo.serve(&tech, 300.0, &opts(), true).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        let disk = memo.disk().unwrap();
        let (path, sens_path) =
            (disk.path_for(&tech, 300.0, &opts()), disk.sens_path_for(&tech, 300.0, &opts()));
        let name = |p: &Path| p.file_name().unwrap().to_string_lossy().into_owned();
        assert_eq!(listing(&dir), [name(&path), name(&sens_path)], "one .nlc, one .nls");
        assert_eq!(sens_path.with_extension("nlc"), path, "the sidecar shares its library's name");

        // A fresh memo over the warm directory loads the pair: no solve.
        let warm = MemoLibraryCache::over(LibraryCache::new(&dir));
        let (loaded, loaded_sens, outcome) = warm.serve(&tech, 300.0, &opts(), true).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        let stats = MemoCacheStats { memory_hits: 0, disk_hits: 1, characterizations: 0 };
        assert_eq!(warm.stats(), stats);
        assert_eq!(*loaded, *lib);
        assert_eq!(*loaded_sens.unwrap(), *sens.unwrap());
        let (_, _, outcome) = warm.serve(&tech, 300.0, &opts(), true).unwrap();
        assert_eq!(outcome, CacheOutcome::MemoryHit);

        // The trace stored its library the plain way: plain requests
        // for the key hit it.
        let plain = LibraryCache::new(&dir);
        let (plain_lib, outcome) = plain.load_or_characterize(&tech, 300.0, &opts()).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        assert_eq!(*plain_lib, *lib);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_sidecars_re_trace() {
        // Each tamper keeps a valid header, length field and checksum,
        // so only the sidecar's own checks can catch it.
        let tech = Technology::d25();
        let cache = LibraryCache::new(temp_dir("sidecar-tamper"));
        let (lib, sens, _) = cache.serve(&tech, 300.0, &opts(), true).unwrap();
        let sens = sens.unwrap();
        let key = CellLibrary::request_key(&tech, 300.0, &opts());
        let (path, sens_path) =
            (cache.path_for(&tech, 300.0, &opts()), cache.sens_path_for(&tech, 300.0, &opts()));
        let library_file = std::fs::read(&path).unwrap();
        let record = sens.to_bytes();
        let cut_short = record[..record.len() - 8].to_vec();
        let mut non_finite = record.clone();
        let last = non_finite.len() - 8;
        non_finite[last..].copy_from_slice(&f64::INFINITY.to_le_bytes());
        let mut other_model = record.clone();
        other_model[..4]
            .copy_from_slice(&(nanoleak_cells::sensitivity::SENS_MODEL_VERSION + 1).to_le_bytes());
        let cases = [
            ("a record cut short", Some(cut_short)),
            ("a non-finite value", Some(non_finite)),
            ("another model version", Some(other_model)),
            ("a sidecar whose library file is missing", None),
        ];
        for (case, tampered) in cases {
            match &tampered {
                Some(payload) => {
                    std::fs::write(&path, &library_file).unwrap();
                    std::fs::write(&sens_path, seal(&SENS_FILE, key, payload)).unwrap();
                }
                None => {
                    std::fs::remove_file(&path).unwrap();
                    std::fs::write(&sens_path, seal(&SENS_FILE, key, &record)).unwrap();
                }
            }
            let (relib, resens, outcome) = cache.serve(&tech, 300.0, &opts(), true).unwrap();
            assert_eq!(outcome, CacheOutcome::Invalidated, "{case}");
            assert_eq!((&*relib, &*resens.unwrap()), (&*lib, &*sens), "{case}: re-traced");
            let (_, _, outcome) = cache.serve(&tech, 300.0, &opts(), true).unwrap();
            assert_eq!(outcome, CacheOutcome::Hit, "{case}: both files rewritten");
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn deeply_nested_payloads_read_as_stale() {
        // 200,000 nested one-element sequences, sealed with the
        // request's own header: the decoder used to recurse once per
        // level and overflow the stack (exit 134) on the first request
        // that missed RAM.
        let tech = Technology::d25();
        let mut payload = Vec::new();
        for _ in 0..200_000 {
            payload.push(5); // the binary codec's sequence tag
            payload.extend_from_slice(&1u64.to_le_bytes());
        }
        payload.push(0); // unit
        assert!(serde::value_from_bytes(&payload).is_err());
        let key = CellLibrary::request_key(&tech, 300.0, &opts());
        for traced in KINDS {
            let cache = LibraryCache::new(temp_dir(&format!("nested-{traced}")));
            std::fs::create_dir_all(cache.dir()).unwrap();
            let path = cache.path_for(&tech, 300.0, &opts());
            std::fs::write(&path, seal(&LIBRARY_FILE, key, &payload)).unwrap();
            let (_, _, outcome) = cache.serve(&tech, 300.0, &opts(), traced).unwrap();
            assert_eq!(outcome, CacheOutcome::Invalidated);
            let _ = std::fs::remove_dir_all(cache.dir());
        }
    }

    /// `bytes` with one seeded mutation: a byte flipped, a word
    /// overwritten (a length, a count or a value), a span deleted,
    /// inserted or duplicated, or the tail cut off.
    fn mutate(bytes: &[u8], rng: &mut rand::rngs::StdRng) -> Vec<u8> {
        use rand::Rng;
        let mut out = bytes.to_vec();
        let at = rng.gen_range(0..out.len());
        let span = rng.gen_range(1..=16usize).min(out.len() - at);
        match rng.gen_range(0..6u32) {
            0 => out[at] ^= rng.gen_range(1..=255u8),
            1 => {
                let end = (at + 8).min(out.len());
                let word = rng.gen::<u64>().to_le_bytes();
                out[at..end].copy_from_slice(&word[..end - at]);
            }
            2 => {
                out.drain(at..at + span);
            }
            3 => {
                let noise: Vec<u8> = (0..span).map(|_| rng.gen()).collect();
                out.splice(at..at, noise);
            }
            4 => {
                let copy = out[at..at + span].to_vec();
                out.splice(at..at, copy);
            }
            _ => out.truncate(at),
        }
        out
    }

    #[test]
    fn mutated_payloads_read_as_stale_or_as_checked_entries() {
        // Seeded mutants of both payloads, each re-sealed behind a valid
        // header and checksum: a mutant either reads as stale or loads
        // as a pair that passes every check. A panic or an abort fails
        // the test; the mutant's index names it.
        use rand::SeedableRng;
        const MUTANTS: u64 = 200;
        let tech = Technology::d25();
        let cache = LibraryCache::new(temp_dir("mutants"));
        let (lib, sens, _) = cache.serve(&tech, 300.0, &opts(), true).unwrap();
        let key = CellLibrary::request_key(&tech, 300.0, &opts());
        let (path, sens_path) =
            (cache.path_for(&tech, 300.0, &opts()), cache.sens_path_for(&tech, 300.0, &opts()));
        let (library, record) = (serde::to_bytes(&*lib), sens.unwrap().to_bytes());
        for (file, payload) in [("library", &library), ("sidecar", &record)] {
            let (mut stale, mut loaded) = (0, 0);
            for i in 0..MUTANTS {
                let mut rng = rand::rngs::StdRng::seed_from_u64(i);
                let mutant = mutate(payload, &mut rng);
                let (lib_payload, sens_payload) =
                    if file == "library" { (&mutant, &record) } else { (&library, &mutant) };
                std::fs::write(&path, seal(&LIBRARY_FILE, key, lib_payload)).unwrap();
                std::fs::write(&sens_path, seal(&SENS_FILE, key, sens_payload)).unwrap();
                match cache.try_load(&tech, 300.0, &opts(), true) {
                    None => stale += 1,
                    Some((l, s)) => {
                        let s = s.expect("a traced load carries its sidecar");
                        assert!(l.is_well_formed(), "{file} mutant {i}");
                        let again = LibrarySens::from_bytes(&l, &s.to_bytes());
                        assert_eq!(again.as_ref(), Some(&s), "{file} mutant {i}");
                        loaded += 1;
                    }
                }
            }
            // Both outcomes occur, so both kinds of checks ran.
            assert!(stale > 0 && loaded > 0, "{file}: {stale} stale, {loaded} loaded");
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
