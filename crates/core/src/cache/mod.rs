//! Stage cache: one record per campaign mix, holding the mix's collected
//! streams.
//!
//! A mix's wall time is the simulation that produces its streams — graph
//! generation, partitioning, the algorithm and the cluster simulation are
//! ≈ 85–90 % of a mix — and the characterization pipeline behind it is a
//! few milliseconds. So the one boundary worth persisting is the pipeline's
//! *input*: the collected (post-fault-injection, post-bridge)
//! `Vec<RawEvent>` + `Vec<RawSeries>` that `run_mix` hands to
//! [`crate::pipeline::characterize_events`]. A hit skips the simulation;
//! the pipeline always recomputes (see `docs/robustness.md` for the
//! measurements behind that cut).
//!
//! # Record format and identity
//!
//! Records ride on the same section-table container as the binary trace
//! format ([`crate::trace::binary`]) — an eight-byte magic (`G10CACHE`), a
//! format version, a checksummed section table, per-section FNV-1a
//! checksums — and encode events and series through the very encoders the
//! trace container uses, so every truncation or bit flip is detected on
//! read and the two formats cannot drift apart. The key is the mix
//! identity the campaign result store already computes
//! ([`MixSpec::content_string`](crate::campaign::MixSpec::content_string):
//! every spec field plus the code version). File names carry only a 64-bit
//! FNV-1a of the key, which can collide; the full key is therefore stored
//! inside the record and compared byte-for-byte on every lookup — a
//! collision or a tampered record is a miss (and is quarantined), never a
//! silently wrong answer.
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
use crate::parse::RawEvent;
use crate::trace::binary::{
    build_container, decode_events, decode_paths, decode_series, decode_strings, parse_container,
    ContainerSpec, PoolEncoder,
};
use crate::trace::repair::RawSeries;

/// Magic prefix of a stage-cache record file.
pub const CACHE_MAGIC: [u8; 8] = *b"G10CACHE";

/// Stage-cache record format version. Bump on any layout change; readers
/// accept exactly their own version and treat everything else as a miss.
/// Version 1 was the per-stage `ingest-*` / `profile-*` / `attribute-*`
/// records; their file names differ, so they are never opened.
pub const CACHE_FORMAT_VERSION: u32 = 2;

/// Section id: the full key string, verified byte-for-byte on every hit
/// (the file name carries only a 64-bit hash of it).
const SECTION_KEY: u32 = 1;
/// Section id: deduplicated string pool (binary-trace `STRINGS` layout).
const SECTION_STRINGS: u32 = 2;
/// Section id: deduplicated path pool (binary-trace `PATHS` layout).
const SECTION_PATHS: u32 = 3;
/// Section id: the collected event stream (binary-trace `EVENTS` layout).
const SECTION_EVENTS: u32 = 4;
/// Section id: the collected monitoring series (binary-trace `RESOURCES`
/// layout).
const SECTION_SERIES: u32 = 5;

/// The stage-cache dialect of the section-table container.
const CACHE_CONTAINER: ContainerSpec = ContainerSpec {
    magic: &CACHE_MAGIC,
    version: CACHE_FORMAT_VERSION,
    label: "stage-cache record",
};

/// Monotonic counters of one cache's activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageCacheStats {
    /// Lookups that returned a verified, decodable record.
    pub hits: u64,
    /// Lookups that found nothing usable (absent, corrupt, colliding, or
    /// written by a different format version).
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

    /// Looks up the collected streams stored under `key`. Container damage,
    /// a key mismatch (file-name collision) or a decode failure counts as a
    /// miss, and the offending file is quarantined aside so it cannot
    /// shadow a future store.
    pub fn lookup_streams(&self, key: &str) -> Option<(Vec<RawEvent>, Vec<RawSeries>)> {
        let path = self.path_for(key);
        let Ok(bytes) = std::fs::read(&path) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        match decode_record(&bytes, key) {
            Ok(streams) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(streams)
            }
            Err(_) => {
                quarantine(&path);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Persists the collected streams of one mix under `key`, atomically.
    /// Failures are swallowed — a cache that cannot write degrades to a
    /// cache that never hits, it must never fail the computation whose
    /// input it was storing.
    pub fn store_streams(&self, key: &str, events: &[RawEvent], series: &[RawSeries]) {
        let mut enc = PoolEncoder::default();
        let events_payload = enc.encode_events(events);
        let series_payload = enc.encode_series(
            series
                .iter()
                .map(|s| (&s.instance, s.measurements.as_slice())),
        );
        let bytes = build_container(
            &CACHE_MAGIC,
            CACHE_FORMAT_VERSION,
            &[
                (SECTION_KEY, key.as_bytes().to_vec()),
                (SECTION_STRINGS, enc.strings_payload()),
                (SECTION_PATHS, enc.paths_payload()),
                (SECTION_EVENTS, events_payload),
                (SECTION_SERIES, series_payload),
            ],
        );
        if atomic_write(&self.path_for(key), &bytes).is_ok() {
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

/// Verifies the container and the stored key, then decodes the streams.
fn decode_record(bytes: &[u8], key: &str) -> Result<(Vec<RawEvent>, Vec<RawSeries>), Grade10Error> {
    let sections = parse_container(bytes, &CACHE_CONTAINER)?;
    let section = |id: u32, what: &str| {
        sections
            .iter()
            .find(|s| s.id == id)
            .map(|s| s.payload)
            .ok_or_else(|| {
                Grade10Error::Serialization(format!("stage-cache record: missing {what} section"))
            })
    };
    if section(SECTION_KEY, "key")? != key.as_bytes() {
        // A 64-bit file-name collision: identity mismatch is a miss, never
        // a silently wrong artifact.
        return Err(Grade10Error::Serialization(
            "stage-cache record: key mismatch (hash collision)".into(),
        ));
    }
    let strings = decode_strings(section(SECTION_STRINGS, "strings")?)?;
    let paths = decode_paths(section(SECTION_PATHS, "paths")?, &strings)?;
    let events = decode_events(section(SECTION_EVENTS, "events")?, &strings, &paths)?;
    let series = decode_series(section(SECTION_SERIES, "series")?, &strings)?;
    Ok((events, series))
}
