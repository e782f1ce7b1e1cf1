//! The durable mix-result store: one JSON file per finished mix, keyed by
//! content hash.
//!
//! The store is the campaign's memo table. A mix that finished once never
//! re-runs — not on `--resume` after a crash, not on a re-launch with an
//! edited spec (only the mixes whose content hash changed miss). Files are
//! written atomically (temp sibling + rename, fsync before the rename), so
//! a store entry either exists completely or not at all; a half-written
//! file from a torn `write(2)` cannot exist under the final name. Anything
//! unreadable under the final name — truncated by an unclean filesystem,
//! hand-edited, or hash-mismatched — is quarantined aside and treated as a
//! miss, never trusted and never fatal.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::error::Grade10Error;

use super::spec::MixSpec;

/// The stored result of one characterized mix: everything the campaign
/// report needs, nothing wall-clock-dependent, so a report assembled from
/// cached outcomes is byte-identical to one assembled live.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MixOutcome {
    /// The mix this outcome belongs to (embedded so store files are
    /// self-describing).
    pub mix: MixSpec,
    /// Content hash the outcome is stored under.
    pub hash: u64,
    /// Simulated makespan of the characterized run, ns.
    pub makespan_ns: u64,
    /// Sorted issue-class labels (see
    /// [`Characterization::issue_classes`](crate::pipeline::Characterization::issue_classes)).
    pub classes: Vec<String>,
    /// Supervision incidents recorded *inside* the characterization (0
    /// unless the mix degraded to a partial run).
    pub incidents: u32,
    /// True when the characterization has partial coverage (stages or
    /// machines dropped).
    pub degraded: bool,
    /// Campaign-level attempts it took to produce this outcome (1 = first
    /// try).
    pub attempts: u32,
    /// Degradation-ladder rung that produced the outcome: `strict`,
    /// `lenient`, or `partial`.
    pub mode: String,
}

/// Writes `bytes` to `path` atomically: a temp sibling in the same
/// directory is written, fsync'd, and renamed over the target. Readers
/// see the old contents or the new contents, never a prefix. The temp
/// name carries the writer's pid *and* a per-process sequence number, so
/// concurrent writers — peer processes racing to store the same hash, or
/// two in-process campaign runs rendering one report — never scribble
/// into (or rename away) each other's temp file. Both renames land whole
/// contents, and last-rename-wins is harmless because equal hashes mean
/// equal payloads.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp_name);
    {
        use std::io::Write as _;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Renames an unreadable artifact aside so it stops matching lookups but
/// stays on disk for a post-mortem. Best-effort: if even the rename
/// fails, the caller still treats the artifact as absent.
pub(crate) fn quarantine(path: &Path) {
    let mut q = path.as_os_str().to_os_string();
    q.push(".quarantined");
    let _ = std::fs::rename(path, PathBuf::from(q));
}

/// The on-disk result store under `<campaign dir>/store/`.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
}

impl Store {
    /// Opens (creating if needed) the store directory.
    pub fn open(dir: &Path) -> Result<Store, Grade10Error> {
        std::fs::create_dir_all(dir)
            .map_err(|e| Grade10Error::Io(format!("creating store {}: {e}", dir.display())))?;
        Ok(Store {
            dir: dir.to_path_buf(),
        })
    }

    /// The file a mix with this content hash is stored under.
    pub fn path_for(&self, hash: u64) -> PathBuf {
        self.dir.join(format!("{hash:016x}.json"))
    }

    /// Loads a stored outcome, or `None` on a miss. A file that exists
    /// but does not parse — or parses to an outcome claiming a different
    /// hash — is quarantined and reported as a miss, so the mix simply
    /// re-runs.
    ///
    /// The store is keyed by a bare 64-bit FNV-1a of the mix spec, which is
    /// not collision-proof: two distinct mixes *can* hash alike, and a
    /// wrong outcome served on a collision would silently poison the
    /// ranked report. So a hit must also present the embedded [`MixSpec`]
    /// matching `expect` field-for-field; a spec mismatch means the entry
    /// belongs to some other mix and is quarantined as a miss.
    pub fn load(&self, hash: u64, expect: &MixSpec) -> Option<MixOutcome> {
        let path = self.path_for(hash);
        let bytes = std::fs::read(&path).ok()?;
        match serde_json::from_slice::<MixOutcome>(&bytes) {
            Ok(out) if out.hash == hash && out.mix == *expect => Some(out),
            _ => {
                quarantine(&path);
                None
            }
        }
    }

    /// Stores an outcome atomically under its content hash.
    pub fn put(&self, out: &MixOutcome) -> Result<(), Grade10Error> {
        let path = self.path_for(out.hash);
        let json = serde_json::to_string_pretty(out)?;
        atomic_write(&path, json.as_bytes())
            .map_err(|e| Grade10Error::Io(format!("writing {}: {e}", path.display())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(hash: u64) -> MixOutcome {
        MixOutcome {
            mix: MixSpec {
                algorithm: "pr".into(),
                dataset: "rmat:8".into(),
                engine: "giraph".into(),
                machines: 2,
                seed: 46,
                fault: "none".into(),
            },
            hash,
            makespan_ns: 1_000_000,
            classes: vec!["bottleneck:cpu".into()],
            incidents: 0,
            degraded: false,
            attempts: 1,
            mode: "strict".into(),
        }
    }

    #[test]
    fn roundtrips_and_misses() {
        let dir = std::env::temp_dir().join(format!("g10-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).expect("open");
        let mix = outcome(7).mix;
        assert!(store.load(7, &mix).is_none());
        store.put(&outcome(7)).expect("put");
        assert_eq!(store.load(7, &mix), Some(outcome(7)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_quarantined_not_fatal() {
        let dir = std::env::temp_dir().join(format!("g10-storeq-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).expect("open");
        let mix = outcome(9).mix;
        std::fs::write(store.path_for(9), b"{ torn").expect("write");
        assert!(store.load(9, &mix).is_none());
        assert!(!store.path_for(9).exists(), "corrupt file moved aside");
        // Hash mismatch (file claims a different identity) is also a miss.
        store.put(&outcome(11)).expect("put");
        std::fs::rename(store.path_for(11), store.path_for(12)).expect("rename");
        assert!(store.load(12, &mix).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn colliding_spec_is_quarantined_not_served() {
        // Two different mixes that (by construction here) share a store
        // hash: the entry on disk embeds mix A, but mix B asks for the
        // same hash. Serving A's outcome for B would corrupt the report,
        // so the lookup must treat it as a miss and quarantine the entry.
        let dir = std::env::temp_dir().join(format!("g10-storec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).expect("open");
        store.put(&outcome(21)).expect("put");
        let mut other = outcome(21).mix;
        other.seed = 999;
        assert!(
            store.load(21, &other).is_none(),
            "an entry embedding a different mix spec must not be served"
        );
        assert!(
            !store.path_for(21).exists(),
            "the colliding entry is quarantined aside"
        );
        // The rightful owner re-stores and is served again.
        store.put(&outcome(21)).expect("re-put");
        assert_eq!(store.load(21, &outcome(21).mix), Some(outcome(21)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let dir = std::env::temp_dir().join(format!("g10-aw-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("x.json");
        atomic_write(&path, b"first").expect("write");
        atomic_write(&path, b"second").expect("rewrite");
        assert_eq!(std::fs::read(&path).expect("read"), b"second");
        assert!(
            std::fs::read_dir(&dir).expect("ls").all(|e| !e
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .ends_with(".tmp")),
            "no temp droppings"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
