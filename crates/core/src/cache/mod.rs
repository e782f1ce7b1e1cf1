//! Stage cache: per campaign mix, one record of its collected streams and
//! one record of the outcome of each ladder rung that succeeded on them.
//!
//! A mix's wall time is the simulation that produces its streams — graph
//! generation, partitioning, the algorithm and the cluster simulation are
//! ≈ 85–90 % of a mix — and the characterization pipeline behind it is a
//! few milliseconds. So the first boundary worth persisting is the
//! pipeline's *input*: the collected (post-fault-injection, post-bridge)
//! event stream and `Vec<RawSeries>` that `grade10_engines::run_mix` hands
//! to [`crate::pipeline::characterize_stream`]. A store interns the
//! simulation's `RawEvent`s once, writes that interned form as the record
//! and returns the [`EventStream`] it numbers to, which is the stream the
//! record decodes to; `run_mix` characterizes it, so a simulated mix is
//! interned once. A hit decodes the record into the same stream and hands
//! `run_mix` that, so no path is cloned per event. A streams hit skips the
//! simulation.
//!
//! The second boundary is the pipeline's *output*. Once the simulation is
//! gone, decoding and characterizing are most of a warm mix, and the
//! [`MixOutcome`] they reduce to is about 0.5 KB. So a rung that succeeds
//! under a cache also writes an outcome record, keyed by the mix identity
//! plus the rung, and `run_mix` asks for it before anything else: a hit
//! answers the rung without decoding or characterizing. Per-stage records
//! stay out (see `docs/robustness.md` for the measurements behind both
//! cuts), and a failing rung stores no outcome.
//!
//! # Record format and identity
//!
//! A record is a binary trace ([`crate::trace::binary`]): the `G10TRACE`
//! container with the mix's events and series in the sections
//! [`crate::trace::encode_trace`] writes, plus the key in the optional
//! `KEY` section, so every truncation or bit flip is detected on read and
//! `grade10 analyze --trace` reads a record as it reads any trace. The key
//! is the mix identity the campaign result store already computes
//! ([`MixSpec::content_string`](crate::campaign::MixSpec::content_string):
//! every spec field plus the code version). File names carry only a 64-bit
//! FNV-1a of the key, which can collide; the full key is therefore stored
//! inside the record and compared byte-for-byte on every lookup — a
//! collision, a tampered record or one in an older format is a miss (and
//! is quarantined), never a silently wrong answer.
//!
//! An outcome record is JSON: the full key (the mix key plus
//! `;rung=<rung>`), the outcome with the fields a result-store entry has,
//! and the FNV-1a of that outcome's JSON, so a bit flip the parser accepts
//! is a miss too. It sits beside the streams records, at the top level of
//! the cache directory.
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
use crate::parse::{EventStream, FirstSeen, RawEvent};
use crate::trace::binary::{decode_streams, encode_streams, Streams};
use crate::trace::repair::RawSeries;

/// Monotonic counters of one cache's activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageCacheStats {
    /// Lookups that returned a verified, decodable record, of either kind.
    pub hits: u64,
    /// Streams lookups that found nothing usable (absent, corrupt,
    /// colliding, or in an older format). An outcome miss is not counted:
    /// it falls through to a streams lookup, which counts.
    pub misses: u64,
    /// Streams records written.
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

/// What an outcome record holds: its full key, the rung's outcome, and the
/// FNV-1a of that outcome's JSON.
#[derive(Serialize, Deserialize)]
struct OutcomeRecord {
    key: String,
    outcome: MixOutcome,
    fnv: u64,
}

/// The FNV-1a of an outcome's JSON, the checksum of its record.
fn outcome_fnv(outcome: &MixOutcome) -> Option<u64> {
    Some(fnv1a(serde_json::to_string(outcome).ok()?.as_bytes()))
}

/// A directory of streams and outcome records. Cheap to clone behind an
/// `Arc`; safe to share across pool workers and campaign peers.
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

    /// `<dir>/<kind>-<fnv1a(key)>.<ext>`.
    fn path_for(&self, kind: &str, key: &str, ext: &str) -> PathBuf {
        let hash = fnv1a(key.as_bytes());
        self.dir.join(format!("{kind}-{hash:016x}.{ext}"))
    }

    /// Looks up the outcome a successful rung stored under `key`. A hit
    /// counts as a hit; an absent record counts nothing, since the caller
    /// falls through to [`lookup_streams`](Self::lookup_streams). A record
    /// that does not parse, carries another key or fails its checksum is
    /// quarantined and treated as absent.
    pub fn lookup_outcome(&self, key: &str) -> Option<MixOutcome> {
        let path = self.path_for("outcome", key, "json");
        let bytes = std::fs::read(&path).ok()?;
        match serde_json::from_slice::<OutcomeRecord>(&bytes) {
            Ok(r) if r.key == key && outcome_fnv(&r.outcome) == Some(r.fnv) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(r.outcome)
            }
            _ => {
                quarantine(&path);
                None
            }
        }
    }

    /// Persists one rung's outcome under `key`, atomically. Like
    /// [`store_streams`](Self::store_streams) it swallows failures, and it
    /// counts no store.
    pub fn store_outcome(&self, key: &str, outcome: &MixOutcome) {
        let Some(fnv) = outcome_fnv(outcome) else {
            return;
        };
        let record = OutcomeRecord {
            key: key.to_string(),
            outcome: outcome.clone(),
            fnv,
        };
        if let Ok(json) = serde_json::to_string(&record) {
            let path = self.path_for("outcome", key, "json");
            let _ = atomic_write(&path, json.as_bytes());
        }
    }

    /// Looks up the collected streams stored under `key`, decoded into the
    /// stream ingestion reads and the series as written. Container damage,
    /// a key mismatch (file-name collision) or a decode failure counts as a
    /// miss, and the offending file is quarantined aside so it cannot
    /// shadow a future store.
    pub fn lookup_streams(&self, key: &str) -> Option<(EventStream, Vec<RawSeries>)> {
        let path = self.path_for("streams", key, "g10c");
        let Ok(bytes) = std::fs::read(&path) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        match decode_streams(&bytes) {
            // Another key is a 64-bit file-name collision: a miss, never a
            // silently wrong artifact.
            Ok(Streams {
                events,
                series: Some(series),
                key: Some(stored),
            }) if stored == key.as_bytes() => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some((events, series))
            }
            _ => {
                quarantine(&path);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Persists the collected streams of one mix under `key`, atomically,
    /// and returns the events as the stream ingestion reads: the one the
    /// record decodes to, interned once for both. Failures to write are
    /// swallowed — a cache that cannot write degrades to a cache that never
    /// hits, it must never fail the computation whose input it was storing.
    pub fn store_streams(
        &self,
        key: &str,
        events: &[RawEvent],
        series: &[RawSeries],
    ) -> EventStream {
        let mut stream = FirstSeen::from_events(events);
        let series = series
            .iter()
            .map(|s| (&s.instance, s.measurements.as_slice()));
        let bytes = encode_streams(&mut stream, Some(series), Some(key));
        if atomic_write(&self.path_for("streams", key, "g10c"), &bytes).is_ok() {
            self.stores.fetch_add(1, Ordering::Relaxed);
        }
        stream.finish()
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
