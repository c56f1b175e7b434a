//! Content-addressed result cache with single-flight deduplication.
//!
//! The sweep engine's determinism contract (same scenario label + config ⇒
//! same report bytes, pinned since PR 1 and re-pinned by every axis PR) means
//! a finished [`ScenarioResult`] is a pure function of its inputs — so it
//! never has to be computed twice. This module turns that guarantee into a
//! cache:
//!
//! * **Content-addressed keys.** [`scenario_cache_key`] hashes the canonical
//!   scenario label *plus the full canonical JSON of the resolved
//!   `SimConfig`* (with the ignored `partitions` field normalized out),
//!   the pinned DVFS level, and the warmup/measure/drain
//!   window budgets. Hashing the whole serialized config — rather than a
//!   hand-picked field list — makes the key complete by construction: any
//!   new behavior-affecting field (e.g. PR 8's `switch_arb` and per-phase
//!   `LengthSpec`s) lands in the hash the moment it lands in serde, with no
//!   audit to forget. The only excluded field is `partitions`, which the
//!   simulator never reads.
//! * **Two tiers.** An in-memory index (everything this process resolved)
//!   over an optional on-disk store `<dir>/<key>.json` shared across
//!   processes and daemon restarts. Disk writes go through a
//!   temp-file-plus-rename so concurrent readers never observe torn JSON.
//! * **Single-flight.** N concurrent requests for one key trigger exactly
//!   one simulation; the rest block on a condvar and reuse the result. If
//!   the computing thread fails, one waiter is promoted to retry.
//!
//! Cache I/O failures are soft everywhere except construction:
//! [`ResultCache::open`] probes writability up front (a daemon with an
//! unwritable cache directory should refuse to start, not panic mid-job),
//! while runtime write/parse failures are counted in [`CacheStats`] and the
//! result is served from the computation — a degraded cache never fails a
//! job.

use crate::sweep::{Scenario, ScenarioResult};
use noc_sim::{SimConfig, SimResult};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Bumped whenever the cached artifact's schema or the key derivation
/// changes; part of the hashed text, so stale on-disk entries from older
/// layouts simply miss instead of deserializing wrongly.
pub const CACHE_SCHEMA_VERSION: u32 = 1;

/// A content-addressed cache key: 128 bits of FNV-1a over the scenario's
/// canonical identity, rendered as 32 hex digits (also the on-disk file
/// stem, so keys never need escaping).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey(String);

impl CacheKey {
    /// The hex digest as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// 128 bits of FNV-1a over `bytes`, as 32 hex digits: two 64-bit FNV-1a
/// lanes with different offset bases, run side by side in one pass. The
/// digest of cache keys and of zoo config hashes.
pub(crate) fn fnv1a128_hex(bytes: &[u8]) -> String {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let (mut a, mut b) = (0xCBF2_9CE4_8422_2325u64, 0x6C62_272E_07BB_0142u64);
    for &byte in bytes {
        a = (a ^ u64::from(byte)).wrapping_mul(PRIME);
        b = (b ^ u64::from(byte)).wrapping_mul(PRIME);
    }
    format!("{a:016x}{b:016x}")
}

/// Derive the content-addressed key of one resolved sweep scenario.
///
/// The hashed text is: schema version, canonical scenario label, canonical
/// JSON of the config with the ignored `partitions` field normalized to 1
/// (so no key changed when the field stopped doing anything), the pinned
/// DVFS level, and the window budgets. Everything that can change the
/// result bytes is inside; nothing that cannot is.
pub fn scenario_cache_key(scenario: &Scenario, warmup: u64, measure: u64, drain: u64) -> CacheKey {
    use std::fmt::Write;
    let config = SimConfig {
        partitions: 1,
        ..scenario.config.clone()
    };
    let mut text = format!("v{CACHE_SCHEMA_VERSION}\n{}\n", scenario.label);
    serde_json::to_string_into(&mut text, &config).expect("SimConfig serializes");
    // `fmt::Write` for `String` cannot fail.
    let _ = write!(
        text,
        "\nlevel={:?}\nw{warmup}/m{measure}/d{drain}",
        scenario.level
    );
    CacheKey(fnv1a128_hex(text.as_bytes()))
}

/// How a [`ResultCache::get_or_compute`] call was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the in-memory index.
    MemoryHit,
    /// Loaded from the on-disk store.
    DiskHit,
    /// Computed fresh (and stored).
    Computed,
    /// Another thread computed it while this one waited (single-flight).
    Coalesced,
}

/// Monotone cache counters, serializable for the daemon's `stats` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct CacheStats {
    /// Hits served from the in-memory index.
    pub memory_hits: u64,
    /// Hits loaded from the on-disk store.
    pub disk_hits: u64,
    /// Requests coalesced onto another thread's in-flight computation.
    pub coalesced: u64,
    /// Fresh computations (each one is exactly one simulation run).
    pub computed: u64,
    /// On-disk entries that failed to write (soft: the result is still
    /// served; the entry is simply not persisted).
    pub write_errors: u64,
    /// On-disk entries that failed to parse (soft: treated as misses and
    /// overwritten).
    pub read_errors: u64,
}

#[derive(Default)]
struct CacheIndex {
    /// Finished results by key.
    done: HashMap<String, ScenarioResult>,
    /// Keys currently being computed by some thread.
    inflight: HashSet<String>,
}

/// The two-tier, single-flight result cache. Cheap to share behind an
/// `Arc`; all methods take `&self`.
pub struct ResultCache {
    dir: Option<PathBuf>,
    index: Mutex<CacheIndex>,
    flight_cv: Condvar,
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    coalesced: AtomicU64,
    computed: AtomicU64,
    write_errors: AtomicU64,
    read_errors: AtomicU64,
    tmp_counter: AtomicU64,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("dir", &self.dir)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ResultCache {
    /// A memory-only cache (no persistence) — what the bench harness and
    /// most tests use.
    pub fn in_memory() -> Self {
        ResultCache {
            dir: None,
            index: Mutex::new(CacheIndex::default()),
            flight_cv: Condvar::new(),
            memory_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            computed: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            read_errors: AtomicU64::new(0),
            tmp_counter: AtomicU64::new(0),
        }
    }

    /// Open (creating if needed) an on-disk cache at `dir`, probing
    /// writability up front.
    ///
    /// # Errors
    /// Returns the underlying I/O error when the directory cannot be
    /// created or written — callers (the daemon, `sweep-grid --cache`)
    /// should refuse to start rather than degrade silently.
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        // Probe: an unwritable directory must fail here, not mid-job.
        let probe = dir.join(".write_probe");
        std::fs::write(&probe, b"probe")?;
        std::fs::remove_file(&probe)?;
        let mut cache = ResultCache::in_memory();
        cache.dir = Some(dir.to_path_buf());
        Ok(cache)
    }

    /// The on-disk store directory, if this cache has one.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            computed: self.computed.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            read_errors: self.read_errors.load(Ordering::Relaxed),
        }
    }

    fn entry_path(&self, key: &CacheKey) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{key}.json")))
    }

    /// Probe the disk tier. Parse failures are counted and treated as
    /// misses (the entry will be rewritten).
    fn load_disk(&self, key: &CacheKey) -> Option<ScenarioResult> {
        let path = self.entry_path(key)?;
        let text = std::fs::read_to_string(path).ok()?;
        match serde_json::from_str::<ScenarioResult>(&text) {
            Ok(result) => Some(result),
            Err(_) => {
                self.read_errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Persist an entry via temp-file + rename so concurrent readers never
    /// observe torn JSON. Failures are soft (counted, result still served).
    fn store_disk(&self, key: &CacheKey, result: &ScenarioResult) {
        let Some(path) = self.entry_path(key) else {
            return;
        };
        let json = serde_json::to_string(result).expect("ScenarioResult serializes");
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        let ok =
            std::fs::write(&tmp, json.as_bytes()).is_ok() && std::fs::rename(&tmp, &path).is_ok();
        if !ok {
            let _ = std::fs::remove_file(&tmp);
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Resolve `key`, computing at most once across all concurrent callers.
    ///
    /// Lookup order: memory index → on-disk store → `compute`. While one
    /// thread computes, other callers of the same key block and reuse its
    /// result ([`CacheOutcome::Coalesced`]); if the computation fails, one
    /// waiter is promoted to retry and the error is returned to the
    /// original caller only.
    ///
    /// # Errors
    /// Propagates `compute`'s error (cache tiers never fail a lookup).
    pub fn get_or_compute<F>(
        &self,
        key: &CacheKey,
        compute: F,
    ) -> SimResult<(ScenarioResult, CacheOutcome)>
    where
        F: FnOnce() -> SimResult<ScenarioResult>,
    {
        let mut waited = false;
        {
            let mut index = self.index.lock().expect("cache index poisoned");
            loop {
                if let Some(result) = index.done.get(key.as_str()) {
                    let (counter, outcome) = if waited {
                        (&self.coalesced, CacheOutcome::Coalesced)
                    } else {
                        (&self.memory_hits, CacheOutcome::MemoryHit)
                    };
                    counter.fetch_add(1, Ordering::Relaxed);
                    return Ok((result.clone(), outcome));
                }
                if index.inflight.insert(key.as_str().to_string()) {
                    break; // this thread owns the computation
                }
                index = self.flight_cv.wait(index).expect("cache index poisoned");
                waited = true;
            }
        }
        // This thread owns the in-flight slot; make sure it is released on
        // every exit path (including compute errors).
        if let Some(result) = self.load_disk(key) {
            self.finish(key, &result);
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((result, CacheOutcome::DiskHit));
        }
        match compute() {
            Ok(result) => {
                self.store_disk(key, &result);
                self.finish(key, &result);
                self.computed.fetch_add(1, Ordering::Relaxed);
                Ok((result, CacheOutcome::Computed))
            }
            Err(e) => {
                // Release the slot so a waiter can retry; wake them all.
                let mut index = self.index.lock().expect("cache index poisoned");
                index.inflight.remove(key.as_str());
                drop(index);
                self.flight_cv.notify_all();
                Err(e)
            }
        }
    }

    /// Publish a finished result and wake single-flight waiters.
    fn finish(&self, key: &CacheKey, result: &ScenarioResult) {
        let mut index = self.index.lock().expect("cache index poisoned");
        index.inflight.remove(key.as_str());
        index.done.insert(key.as_str().to_string(), result.clone());
        drop(index);
        self.flight_cv.notify_all();
    }
}
