//! Stage cache: one record per campaign mix, holding the mix's collected
//! streams.
//!
//! A mix's wall time is the simulation that produces its streams — graph
//! generation, partitioning, the algorithm and the cluster simulation are
//! ≈ 85–90 % of a mix — and the characterization pipeline behind it is a
//! few milliseconds. So the one boundary worth persisting is the pipeline's
//! *input*: the collected (post-fault-injection, post-bridge) event stream
//! and `Vec<RawSeries>` that `grade10_engines::run_mix` hands to
//! [`crate::pipeline::characterize_stream`]. A store interns the
//! simulation's `RawEvent`s once, writes that interned form as the record
//! and returns the [`EventStream`] it numbers to, which is the stream the
//! record decodes to; `run_mix` characterizes it, so a simulated mix is
//! interned once. A hit decodes the record into the same stream and hands
//! `run_mix` that, so no path is cloned per event. A hit skips the
//! simulation; the pipeline always recomputes (see `docs/robustness.md`
//! for the measurements behind that cut).
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

use crate::campaign::{atomic_write, quarantine};
use crate::error::Grade10Error;
use crate::hash::fnv1a;
use crate::parse::{EventStream, FirstSeen, RawEvent};
use crate::trace::binary::{decode_streams, encode_streams, Streams};
use crate::trace::repair::RawSeries;

/// Monotonic counters of one cache's activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageCacheStats {
    /// Lookups that returned a verified, decodable record.
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

/// A directory of streams records. Cheap to clone behind an `Arc`; safe to
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

    fn path_for(&self, key: &str) -> PathBuf {
        self.dir
            .join(format!("streams-{:016x}.g10c", fnv1a(key.as_bytes())))
    }

    /// Looks up the collected streams stored under `key`, decoded into the
    /// stream ingestion reads and the series as written. Container damage,
    /// a key mismatch (file-name collision) or a decode failure counts as a
    /// miss, and the offending file is quarantined aside so it cannot
    /// shadow a future store.
    pub fn lookup_streams(&self, key: &str) -> Option<(EventStream, Vec<RawSeries>)> {
        let path = self.path_for(key);
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
        if atomic_write(&self.path_for(key), &bytes).is_ok() {
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
