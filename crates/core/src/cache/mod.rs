//! Stage cache: one record per campaign-mix ladder rung, holding the rung's
//! result.
//!
//! A mix's wall time is the simulation that produces its streams — graph
//! generation, partitioning, the algorithm and the cluster simulation are
//! ≈ 85–90 % of a mix — and the characterization pipeline behind it is a
//! few milliseconds. What a rung reduces all of that to is one
//! [`MixOutcome`] of about 0.5 KB, or the [`Grade10Error`] it returned. A
//! campaign sets no deadline and no chaos, so that result depends only on
//! the rung's input, and the cache keeps it: `grade10_engines::run_mix`
//! asks for a rung's record before anything else, and a hit answers the
//! rung without simulating, decoding or characterizing anything. A
//! failing rung's stored error sends the mix down the ladder as the
//! recomputed one would, and the next rung is answered by its own record.
//! The collected streams and per-stage results are not kept (see
//! `docs/robustness.md` for the measurements behind that cut): whatever a
//! record does not answer is recomputed.
//!
//! # Record format and identity
//!
//! A record is JSON: the full key, the rung's result (its outcome with the
//! fields a result-store entry has, or its error), and the FNV-1a of that
//! result's JSON, so a bit flip the parser accepts is detected. The key is
//! the mix identity the campaign result store already computes
//! ([`MixSpec::content_string`](crate::campaign::MixSpec::content_string):
//! every spec field plus the code version) plus `;rung=<rung>`, because the
//! same mix ends `strict` in one campaign and `lenient` in a `--lenient`
//! one. File names carry only a 64-bit FNV-1a of the key, which can
//! collide; the full key is therefore stored inside the record and compared
//! byte-for-byte on every lookup — a collision, a tampered record or one in
//! an older format is a miss (and is quarantined), never a silently wrong
//! answer.
//!
//! Writes reuse the atomic pid+seq-qualified temp-file discipline of the
//! campaign store ([`crate::campaign::Store`]): concurrent workers sharing
//! a cache directory can race on the same record and the loser simply
//! overwrites the winner with identical bytes.
//!
//! All counters on a [`StageCache`] are monotonic and thread-safe; the
//! CLI surfaces them after each run and the CI cache smoke leg asserts on
//! them.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::campaign::{atomic_write, quarantine, MixOutcome};
use crate::error::Grade10Error;
use crate::hash::fnv1a;

/// Monotonic counters of one cache's rung records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageCacheStats {
    /// Lookups that returned a verified record.
    pub hits: u64,
    /// Lookups that found nothing usable (absent, corrupt, colliding, or
    /// in an older format).
    pub misses: u64,
    /// Records written.
    pub stores: u64,
}

impl StageCacheStats {
    /// Hit rate in percent, `0.0` when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            100.0 * self.hits as f64 / total as f64
        }
    }
}

/// A rung's result as its record spells it.
#[derive(Clone, Serialize, Deserialize)]
enum RungResult {
    Outcome(MixOutcome),
    Error(Grade10Error),
}

/// What a record holds: its full key, the rung's result, and the FNV-1a
/// of that result's JSON.
#[derive(Serialize, Deserialize)]
struct RungRecord {
    key: String,
    result: RungResult,
    fnv: u64,
}

/// The FNV-1a of a result's JSON, the checksum of its record.
fn result_fnv(result: &RungResult) -> Option<u64> {
    Some(fnv1a(serde_json::to_string(result).ok()?.as_bytes()))
}

/// A directory of rung records. Cheap to clone behind an `Arc`; safe to
/// share across pool workers and campaign peers.
#[derive(Debug)]
pub struct StageCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
}

impl StageCache {
    /// Opens (creating if necessary) a stage cache rooted at `dir`.
    pub fn open(dir: &Path) -> Result<StageCache, Grade10Error> {
        std::fs::create_dir_all(dir).map_err(|e| {
            Grade10Error::Io(format!("create stage cache dir {}: {e}", dir.display()))
        })?;
        Ok(StageCache {
            dir: dir.to_path_buf(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
        })
    }

    /// Where the cache lives.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// `<dir>/outcome-<fnv1a(key)>.json`.
    fn path_for(&self, key: &str) -> PathBuf {
        let hash = fnv1a(key.as_bytes());
        self.dir.join(format!("outcome-{hash:016x}.json"))
    }

    /// Looks up the result a rung stored under `key`. A record that does
    /// not parse, carries another key or fails its checksum is quarantined
    /// aside, so it cannot shadow a future store, and counts as a miss
    /// like an absent one.
    pub fn lookup(&self, key: &str) -> Option<Result<MixOutcome, Grade10Error>> {
        let path = self.path_for(key);
        let found = std::fs::read(&path).ok().and_then(|bytes| {
            match serde_json::from_slice::<RungRecord>(&bytes) {
                Ok(r) if r.key == key && result_fnv(&r.result) == Some(r.fnv) => Some(r.result),
                _ => {
                    quarantine(&path);
                    None
                }
            }
        });
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found.map(|result| match result {
            RungResult::Outcome(outcome) => Ok(outcome),
            RungResult::Error(e) => Err(e),
        })
    }

    /// Persists one rung's result under `key`, atomically. Failures to
    /// write are swallowed — a cache that cannot write degrades to a cache
    /// that never hits, it must never fail the rung whose result it was
    /// storing.
    pub fn store(&self, key: &str, result: &Result<MixOutcome, Grade10Error>) {
        let result = match result {
            Ok(outcome) => RungResult::Outcome(outcome.clone()),
            Err(e) => RungResult::Error(e.clone()),
        };
        let Some(fnv) = result_fnv(&result) else {
            return;
        };
        let record = RungRecord {
            key: key.to_string(),
            result,
            fnv,
        };
        let Ok(json) = serde_json::to_string(&record) else {
            return;
        };
        if atomic_write(&self.path_for(key), json.as_bytes()).is_ok() {
            self.stores.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot of the hit/miss/store counters.
    pub fn stats(&self) -> StageCacheStats {
        StageCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
        }
    }
}
