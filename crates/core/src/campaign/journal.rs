//! The campaign's write-ahead journal — and, since format version 2, the
//! fleet's only coordination layer.
//!
//! Several `grade10 campaign` worker processes drain one mix matrix by
//! appending to one shared `journal.jsonl`: a worker appends a `claimed`
//! record (worker id + lease deadline) before running a mix, `renewed`
//! heartbeats while it runs, and an fsync'd `finished` / `failed` /
//! `quarantined` terminal marker after. Ownership is therefore recoverable
//! state, not in-memory state — a worker that dies mid-mix simply stops
//! renewing, its lease expires, and any peer reclaims the mix by appending
//! a fresh claim. Claim races resolve by file order: the *first* claim
//! over an unexpired lease wins, and every reader agrees because earlier
//! records never arrive later in anyone's view of the file.
//!
//! The format is JSON lines — one self-checking record per line, each
//! carrying an FNV checksum of its own payload. Reload tolerates exactly
//! the damage a SIGKILL can cause: a torn final line (no trailing newline)
//! is truncated away by the resume leader before appending resumes (live
//! joiners and `--status` readers instead just ignore it), and any
//! complete line that fails to parse or checksum is quarantined — counted
//! and skipped, never fatal and never trusted. Version-1 journals (the
//! single-process format: `started` instead of `claimed`, no leases)
//! replay unchanged; journals from a *newer* format version are refused
//! with [`Grade10Error::UnsupportedVersion`].

use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::Path;

use serde::Value;

use crate::error::Grade10Error;

use crate::hash::fnv1a;

/// Version tag in the journal header record. Bump on any change to the
/// record schema. Version 2 added the lease records (`claimed`,
/// `renewed`), the epoch marker (`launch`), and the `quarantined` /
/// `reopened` terminal corrections; version-1 journals stay readable.
pub const JOURNAL_FORMAT_VERSION: u64 = 2;

/// Oldest journal format this build still replays.
pub const MIN_JOURNAL_FORMAT_VERSION: u64 = 1;

/// An open, append-only campaign journal. The handle is opened in append
/// mode, so several processes writing whole small records interleave at
/// record granularity and the file's total order arbitrates claim races.
#[derive(Debug)]
pub struct Journal {
    file: std::fs::File,
}

/// The live lease on one mix, as reconstructed from the journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClaimState {
    /// Worker id holding the lease.
    pub worker: String,
    /// Lease deadline, ms since the Unix epoch (renewals extend it).
    pub deadline_ms: u64,
}

/// One permanently failed mix, as reconstructed from the journal. Carries
/// everything a campaign [`Incident`](crate::supervise::Incident) needs,
/// so any worker renders the same incident table from the journal alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailedMix {
    /// Display string of the classified error.
    pub error: String,
    /// Ladder attempts consumed.
    pub attempts: u32,
    /// [`IncidentKind`](crate::supervise::IncidentKind) name (v1 records
    /// lack it; replay defaults to `"error"`).
    pub kind: String,
}

/// What replaying a journal learned, keyed by mix content hash. Also the
/// incremental view a live worker keeps: [`absorb`](Self::absorb) applies
/// any records appended since the last refresh.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct JournalReplay {
    /// Mixes with a durable `finished` (or store-served `skipped`) marker.
    pub finished: BTreeSet<u64>,
    /// Mixes that failed permanently *this epoch*. A `launch` epoch marker
    /// reopens them — a past failure earns a fresh chance on resume, and a
    /// deterministic failure will simply fail identically.
    pub failed: BTreeMap<u64, FailedMix>,
    /// Mixes quarantined as poisoned: hash → consecutive claimants lost.
    /// Terminal across epochs; resume does not retry a mix that keeps
    /// killing its workers.
    pub poisoned: BTreeMap<u64, u32>,
    /// Live (not yet terminal) leases.
    pub claims: BTreeMap<u64, ClaimState>,
    /// Consecutive claims abandoned without a terminal record, per mix —
    /// the poisoned-mix ladder. Reset by any terminal record.
    pub abandoned: BTreeMap<u64, u32>,
    /// Mixes that were ever claimed or `started` (v1), for
    /// [`interrupted`](Self::interrupted).
    pub started: BTreeSet<u64>,
    /// Records skipped on reload: checksum mismatches, unparseable lines,
    /// unknown record kinds, and (for the truncating resume path) the torn
    /// tail.
    pub quarantined: usize,
    /// Byte offset through which the journal has been absorbed; records
    /// at or past this offset have not been seen yet.
    pub consumed: usize,
}

impl JournalReplay {
    /// Mixes that were in flight when a previous fleet died — claimed or
    /// started, never terminal.
    pub fn interrupted(&self) -> BTreeSet<u64> {
        self.started
            .iter()
            .filter(|h| !self.terminal(**h))
            .copied()
            .collect()
    }

    /// True when the mix has reached a terminal state this epoch:
    /// finished, failed, or quarantined as poisoned.
    pub fn terminal(&self, hash: u64) -> bool {
        self.finished.contains(&hash)
            || self.failed.contains_key(&hash)
            || self.poisoned.contains_key(&hash)
    }

    /// Absorbs every *complete* record in `tail`, the journal's bytes from
    /// offset [`consumed`](Self::consumed) on, and advances the offset past
    /// them. Bytes after the last newline are a possibly-still-growing
    /// record and are left for the next refresh. Only a header from a
    /// future format version is an error; damaged lines are quarantined
    /// and skipped.
    pub fn absorb(&mut self, tail: &[u8], path: &Path) -> Result<(), Grade10Error> {
        let end = tail.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let text = String::from_utf8_lossy(&tail[..end]);
        for line in text.lines() {
            self.apply_line(line, path)?;
        }
        self.consumed += end;
        Ok(())
    }

    fn apply_line(&mut self, line: &str, path: &Path) -> Result<(), Grade10Error> {
        if line.trim().is_empty() {
            return Ok(());
        }
        let Some(entries) = parse_record(line) else {
            self.quarantined += 1;
            return Ok(());
        };
        let kind = match field(&entries, "record") {
            Some(Value::Str(s)) => s.clone(),
            _ => {
                self.quarantined += 1;
                return Ok(());
            }
        };
        match kind.as_str() {
            "header" => {
                let version = uint_field(&entries, "version").unwrap_or(0);
                if !(MIN_JOURNAL_FORMAT_VERSION..=JOURNAL_FORMAT_VERSION).contains(&version) {
                    return Err(Grade10Error::UnsupportedVersion(format!(
                        "journal {} is format version {version}, this build reads versions \
                         {MIN_JOURNAL_FORMAT_VERSION} through {JOURNAL_FORMAT_VERSION}",
                        path.display()
                    )));
                }
            }
            "launch" => {
                // Epoch boundary: the previous fleet is dead. Its live
                // claims were abandoned (they count toward the poisoned
                // ladder), and its permanent failures reopen for a fresh
                // chance.
                let stale: Vec<u64> = self.claims.keys().copied().collect();
                for h in stale {
                    self.claims.remove(&h);
                    *self.abandoned.entry(h).or_insert(0) += 1;
                }
                self.failed.clear();
            }
            "started" => {
                // v1 write-ahead marker: in flight, but no lease to track.
                if let Some(hash) = uint_field(&entries, "hash") {
                    self.started.insert(hash);
                } else {
                    self.quarantined += 1;
                }
            }
            "claimed" => {
                let (Some(hash), Some(at), Some(lease)) = (
                    uint_field(&entries, "hash"),
                    uint_field(&entries, "at"),
                    uint_field(&entries, "lease"),
                ) else {
                    self.quarantined += 1;
                    return Ok(());
                };
                let worker = match field(&entries, "worker") {
                    Some(Value::Str(s)) => s.clone(),
                    _ => {
                        self.quarantined += 1;
                        return Ok(());
                    }
                };
                self.started.insert(hash);
                if self.terminal(hash) {
                    return Ok(()); // late claim over a decided mix
                }
                match self.claims.get(&hash) {
                    // First claim over an unexpired lease wins; a later
                    // claim in the race window is ignored — every reader
                    // sees the same file order, so every reader agrees.
                    Some(prev) if at <= prev.deadline_ms => {}
                    other => {
                        if other.is_some() {
                            // Takeover of an expired lease: the previous
                            // claimant died without a terminal record.
                            *self.abandoned.entry(hash).or_insert(0) += 1;
                        }
                        self.claims.insert(
                            hash,
                            ClaimState {
                                worker,
                                deadline_ms: lease,
                            },
                        );
                    }
                }
            }
            "renewed" => {
                let (Some(hash), Some(lease)) =
                    (uint_field(&entries, "hash"), uint_field(&entries, "lease"))
                else {
                    self.quarantined += 1;
                    return Ok(());
                };
                let worker = match field(&entries, "worker") {
                    Some(Value::Str(s)) => s.clone(),
                    _ => {
                        self.quarantined += 1;
                        return Ok(());
                    }
                };
                if let Some(claim) = self.claims.get_mut(&hash) {
                    if claim.worker == worker {
                        claim.deadline_ms = claim.deadline_ms.max(lease);
                    }
                }
            }
            "finished" | "failed" | "skipped" | "quarantined" | "reopened" => {
                let Some(hash) = uint_field(&entries, "hash") else {
                    self.quarantined += 1;
                    return Ok(());
                };
                if kind != "reopened" && self.terminal(hash) {
                    // First terminal record wins: a double completion from
                    // a reclaim race changes nothing, it only clears any
                    // straggler lease.
                    self.claims.remove(&hash);
                    return Ok(());
                }
                self.claims.remove(&hash);
                self.abandoned.remove(&hash);
                match kind.as_str() {
                    // `skipped` means a resume served the mix from the
                    // store: the outcome is durable, the mix is done.
                    "finished" | "skipped" => {
                        self.finished.insert(hash);
                        self.failed.remove(&hash);
                    }
                    "failed" => {
                        let error = match field(&entries, "error") {
                            Some(Value::Str(s)) => s.clone(),
                            _ => String::new(),
                        };
                        let attempts = uint_field(&entries, "attempts").unwrap_or(0) as u32;
                        let kind_name = match field(&entries, "kind") {
                            Some(Value::Str(s)) => s.clone(),
                            _ => "error".to_string(), // v1 records carry no kind
                        };
                        self.failed.insert(
                            hash,
                            FailedMix {
                                error,
                                attempts,
                                kind: kind_name,
                            },
                        );
                    }
                    "quarantined" => {
                        let claims = uint_field(&entries, "claims").unwrap_or(0) as u32;
                        self.poisoned.insert(hash, claims);
                    }
                    // `reopened`: the resume leader found a `finished` mix
                    // whose store artifact was lost; undo the marker so
                    // the mix recomputes.
                    _ => {
                        self.finished.remove(&hash);
                        self.failed.remove(&hash);
                    }
                }
            }
            _ => self.quarantined += 1, // unknown record kind
        }
        Ok(())
    }
}

/// Serializes record fields plus a trailing checksum of them into one
/// journal line.
fn render_record(fields: &[(&str, Value)]) -> Result<String, Grade10Error> {
    let payload: Vec<(String, Value)> = fields
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    let crc = fnv1a(serde_json::to_string(&Value::Object(payload.clone()))?.as_bytes());
    let mut full = payload;
    full.push(("crc".to_string(), Value::UInt(crc)));
    let mut line = serde_json::to_string(&Value::Object(full))?;
    line.push('\n');
    Ok(line)
}

/// Parses one journal line, verifying its checksum. Returns the payload
/// entries (checksum removed) or `None` for any damaged line.
fn parse_record(line: &str) -> Option<Vec<(String, Value)>> {
    let Ok(Value::Object(mut entries)) = serde_json::from_str::<Value>(line) else {
        return None;
    };
    let (key, crc) = entries.pop()?;
    if key != "crc" {
        return None;
    }
    let Value::UInt(crc) = crc else { return None };
    let payload = Value::Object(entries);
    let expect = fnv1a(serde_json::to_string(&payload).ok()?.as_bytes());
    if crc != expect {
        return None;
    }
    let Value::Object(entries) = payload else {
        return None;
    };
    Some(entries)
}

fn field<'a>(entries: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn uint_field(entries: &[(String, Value)], key: &str) -> Option<u64> {
    match field(entries, key)? {
        Value::UInt(n) => Some(*n),
        _ => None,
    }
}

fn open_append(path: &Path) -> Result<std::fs::File, Grade10Error> {
    std::fs::OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(|e| Grade10Error::Io(format!("opening {}: {e}", path.display())))
}

impl Journal {
    /// Creates a fresh journal at `path` and writes its fsync'd header.
    /// Fails if the file already exists — starting a campaign over a live
    /// journal without `--resume` would silently fork its history.
    pub fn create(path: &Path, campaign: &str) -> Result<Journal, Grade10Error> {
        let file = std::fs::OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(path)
            .map_err(|e| Grade10Error::Io(format!("creating {}: {e}", path.display())))?;
        let mut journal = Journal { file };
        journal.append(
            &[
                ("record", Value::Str("header".to_string())),
                ("version", Value::UInt(JOURNAL_FORMAT_VERSION)),
                ("campaign", Value::Str(campaign.to_string())),
            ],
            true,
        )?;
        Ok(journal)
    }

    /// Opens an existing journal for resumption: replays its records,
    /// truncates any torn tail so appends start on a record boundary, and
    /// reopens for appending. **Destructive** — only the resume leader of
    /// a dead fleet may call this; a worker joining a live campaign uses
    /// [`open_join`](Self::open_join), which never truncates what a peer
    /// may still be writing. A missing file degenerates to
    /// [`create`](Self::create) — resuming nothing is a fresh start.
    pub fn open_resume(
        path: &Path,
        campaign: &str,
    ) -> Result<(Journal, JournalReplay), Grade10Error> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok((Journal::create(path, campaign)?, JournalReplay::default()));
            }
            Err(e) => return Err(Grade10Error::Io(format!("reading {}: {e}", path.display()))),
        };
        let mut replay = JournalReplay::default();
        // A record is only complete once its newline is on disk; anything
        // after the last newline is a torn tail from an unclean death.
        let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        if keep < bytes.len() {
            replay.quarantined += 1;
        }
        replay.absorb(&bytes[..keep], path)?;
        {
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| Grade10Error::Io(format!("opening {}: {e}", path.display())))?;
            file.set_len(keep as u64).map_err(|e| {
                Grade10Error::Io(format!("truncating torn tail of {}: {e}", path.display()))
            })?;
        }
        let mut journal = Journal {
            file: open_append(path)?,
        };
        if keep == 0 {
            // Everything (header included) was torn away: re-establish one.
            journal.append(
                &[
                    ("record", Value::Str("header".to_string())),
                    ("version", Value::UInt(JOURNAL_FORMAT_VERSION)),
                    ("campaign", Value::Str(campaign.to_string())),
                ],
                true,
            )?;
            replay.consumed = 0;
        }
        Ok((journal, replay))
    }

    /// Opens a journal that another worker owns, for joining a live
    /// campaign: replays whatever complete records exist and opens for
    /// appending without truncating anything — a trailing partial line may
    /// be a peer's append in flight, not damage.
    pub fn open_join(path: &Path) -> Result<(Journal, JournalReplay), Grade10Error> {
        let bytes = std::fs::read(path)
            .map_err(|e| Grade10Error::Io(format!("reading {}: {e}", path.display())))?;
        let mut replay = JournalReplay::default();
        replay.absorb(&bytes, path)?;
        Ok((
            Journal {
                file: open_append(path)?,
            },
            replay,
        ))
    }

    /// Read-only replay for progress inspection (`--status`): no handle is
    /// kept, nothing is truncated, and a torn tail is ignored. Safe to run
    /// while workers are live.
    pub fn replay_snapshot(path: &Path) -> Result<JournalReplay, Grade10Error> {
        let bytes = std::fs::read(path)
            .map_err(|e| Grade10Error::Io(format!("reading {}: {e}", path.display())))?;
        let mut replay = JournalReplay::default();
        replay.absorb(&bytes, path)?;
        Ok(replay)
    }

    /// Refreshes a live view: absorbs any complete records appended (by
    /// this worker or any peer) since `replay` last looked. Reads only the
    /// bytes past [`JournalReplay::consumed`], so however often a worker
    /// refreshes, it reads each journal byte about once.
    pub fn refresh(path: &Path, replay: &mut JournalReplay) -> Result<(), Grade10Error> {
        let io = |e: std::io::Error| Grade10Error::Io(format!("reading {}: {e}", path.display()));
        let mut file = std::fs::File::open(path).map_err(io)?;
        file.seek(SeekFrom::Start(replay.consumed as u64))
            .map_err(io)?;
        let mut tail = Vec::new();
        file.read_to_end(&mut tail).map_err(io)?;
        replay.absorb(&tail, path)
    }

    fn append(&mut self, fields: &[(&str, Value)], durable: bool) -> Result<(), Grade10Error> {
        let line = render_record(fields)?;
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| Grade10Error::Io(format!("journal append: {e}")))?;
        if durable {
            self.file
                .sync_all()
                .map_err(|e| Grade10Error::Io(format!("journal fsync: {e}")))?;
        }
        Ok(())
    }

    /// Records an epoch boundary (fsync'd): a new fleet is taking over a
    /// journal whose previous writers are dead. Replay treats claims
    /// before the marker as abandoned and reopens previous failures.
    pub fn record_launch(&mut self, worker: &str) -> Result<(), Grade10Error> {
        self.append(
            &[
                ("record", Value::Str("launch".to_string())),
                ("worker", Value::Str(worker.to_string())),
            ],
            true,
        )
    }

    /// Records a lease claim (fsync'd, so peers on a shared filesystem see
    /// it promptly): `worker` owns `mix` until `lease_deadline_ms`.
    pub fn record_claimed(
        &mut self,
        mix: &str,
        hash: u64,
        worker: &str,
        at_ms: u64,
        lease_deadline_ms: u64,
    ) -> Result<(), Grade10Error> {
        self.append(
            &[
                ("record", Value::Str("claimed".to_string())),
                ("mix", Value::Str(mix.to_string())),
                ("hash", Value::UInt(hash)),
                ("worker", Value::Str(worker.to_string())),
                ("at", Value::UInt(at_ms)),
                ("lease", Value::UInt(lease_deadline_ms)),
            ],
            true,
        )
    }

    /// Records a heartbeat (fsync'd): the claimant is alive and its lease
    /// now runs to `lease_deadline_ms`.
    pub fn record_renewed(
        &mut self,
        hash: u64,
        worker: &str,
        lease_deadline_ms: u64,
    ) -> Result<(), Grade10Error> {
        self.append(
            &[
                ("record", Value::Str("renewed".to_string())),
                ("hash", Value::UInt(hash)),
                ("worker", Value::Str(worker.to_string())),
                ("lease", Value::UInt(lease_deadline_ms)),
            ],
            true,
        )
    }

    /// Records a durable completion marker (fsync'd; the mix's outcome is
    /// already in the store when this lands).
    pub fn record_finished(
        &mut self,
        mix: &str,
        hash: u64,
        attempts: u32,
    ) -> Result<(), Grade10Error> {
        self.append(
            &[
                ("record", Value::Str("finished".to_string())),
                ("mix", Value::Str(mix.to_string())),
                ("hash", Value::UInt(hash)),
                ("attempts", Value::UInt(u64::from(attempts))),
            ],
            true,
        )
    }

    /// Records a durable permanent-failure marker (fsync'd). `kind` is the
    /// [`IncidentKind`](crate::supervise::IncidentKind) name, carried so
    /// any worker reconstructs the identical campaign incident from the
    /// journal alone.
    pub fn record_failed(
        &mut self,
        mix: &str,
        hash: u64,
        error: &str,
        attempts: u32,
        kind: &str,
    ) -> Result<(), Grade10Error> {
        self.append(
            &[
                ("record", Value::Str("failed".to_string())),
                ("mix", Value::Str(mix.to_string())),
                ("hash", Value::UInt(hash)),
                ("error", Value::Str(error.to_string())),
                ("attempts", Value::UInt(u64::from(attempts))),
                ("kind", Value::Str(kind.to_string())),
            ],
            true,
        )
    }

    /// Records that resume served a mix from the store without running it.
    pub fn record_skipped(&mut self, mix: &str, hash: u64) -> Result<(), Grade10Error> {
        self.append(
            &[
                ("record", Value::Str("skipped".to_string())),
                ("mix", Value::Str(mix.to_string())),
                ("hash", Value::UInt(hash)),
            ],
            false,
        )
    }

    /// Records that a mix was quarantined as poisoned (fsync'd): `claims`
    /// consecutive claimants died without recording an outcome, and the
    /// fleet will not feed it another worker.
    pub fn record_quarantined(
        &mut self,
        mix: &str,
        hash: u64,
        claims: u32,
    ) -> Result<(), Grade10Error> {
        self.append(
            &[
                ("record", Value::Str("quarantined".to_string())),
                ("mix", Value::Str(mix.to_string())),
                ("hash", Value::UInt(hash)),
                ("claims", Value::UInt(u64::from(claims))),
            ],
            true,
        )
    }

    /// Records that a `finished` marker was undone (fsync'd): the resume
    /// leader found its store artifact lost or corrupt, and the mix
    /// recomputes.
    pub fn record_reopened(&mut self, mix: &str, hash: u64) -> Result<(), Grade10Error> {
        self.append(
            &[
                ("record", Value::Str("reopened".to_string())),
                ("mix", Value::Str(mix.to_string())),
                ("hash", Value::UInt(hash)),
            ],
            true,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("g10-journal-{name}-{}", std::process::id()))
    }

    /// A live view refreshed while the journal grows in arbitrary chunks —
    /// each cut possibly mid-record, a torn last line that a later chunk
    /// completes — ends equal to one replay of the whole file.
    #[test]
    fn refreshing_in_chunks_equals_one_whole_replay() {
        use rand::{Rng, SeedableRng};
        let path = tmp("chunks");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::create(&path, "c").expect("create");
            j.record_claimed("a", 1, "w1", 100, 1_100).expect("rec");
            j.record_renewed(1, "w1", 2_100).expect("rec");
            j.record_finished("a", 1, 2).expect("rec");
            j.record_claimed("b", 2, "w2", 200, 1_200).expect("rec");
            j.record_failed("b", 2, "boom", 3, "panic").expect("rec");
            j.record_claimed("c", 3, "w1", 300, 1_300).expect("rec");
            j.record_launch("w3").expect("rec");
            j.record_skipped("d", 4).expect("rec");
            j.record_reopened("d", 4).expect("rec");
            j.record_quarantined("e", 5, 3).expect("rec");
            j.record_claimed("c", 3, "w3", 400, 1_400).expect("rec");
        }
        let whole = std::fs::read(&path).expect("journal");
        let replay_of = |cuts: &[usize]| {
            let mut replay = JournalReplay::default();
            for &cut in cuts {
                std::fs::write(&path, &whole[..cut]).expect("write prefix");
                Journal::refresh(&path, &mut replay).expect("refresh");
            }
            replay
        };
        let want = Journal::replay_snapshot(&path).expect("snapshot");
        assert_eq!(want.consumed, whole.len());
        // The last line torn, then completed.
        let last = whole[..whole.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .expect("several lines")
            + 1;
        let torn = replay_of(&[last + 7]);
        assert_eq!(torn.consumed, last, "a torn line is left for later");
        assert_ne!(torn, want);
        assert_eq!(replay_of(&[last + 7, whole.len()]), want);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x10f);
        for _ in 0..50 {
            let mut cuts: Vec<usize> = (0..rng.gen_range(1..8))
                .map(|_| rng.gen_range(0..=whole.len()))
                .collect();
            cuts.sort_unstable();
            cuts.push(whole.len());
            assert_eq!(replay_of(&cuts), want, "cuts {cuts:?}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn full_lifecycle_replays() {
        let path = tmp("life");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::create(&path, "c").expect("create");
            j.record_claimed("a", 1, "w1", 100, 1_100).expect("rec");
            j.record_finished("a", 1, 1).expect("rec");
            j.record_claimed("b", 2, "w1", 200, 1_200).expect("rec");
            j.record_failed("b", 2, "boom", 3, "panic").expect("rec");
            j.record_claimed("c", 3, "w2", 300, 1_300).expect("rec");
        }
        let (_j, replay) = Journal::open_resume(&path, "c").expect("resume");
        assert!(replay.finished.contains(&1));
        assert_eq!(
            replay.failed.get(&2),
            Some(&FailedMix {
                error: "boom".into(),
                attempts: 3,
                kind: "panic".into()
            })
        );
        assert_eq!(replay.interrupted(), BTreeSet::from([3]));
        assert_eq!(
            replay.claims.get(&3),
            Some(&ClaimState {
                worker: "w2".into(),
                deadline_ms: 1_300,
            })
        );
        assert_eq!(replay.quarantined, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn create_refuses_existing_journal() {
        let path = tmp("dup");
        let _ = std::fs::remove_file(&path);
        let _j = Journal::create(&path, "c").expect("create");
        assert!(Journal::create(&path, "c").is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn first_claim_wins_inside_the_lease() {
        let path = tmp("race");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::create(&path, "c").expect("create");
        j.record_claimed("a", 1, "w1", 100, 10_000).expect("rec");
        // A racing claim inside w1's lease loses, regardless of arriving
        // later in the file.
        j.record_claimed("a", 1, "w2", 150, 10_050).expect("rec");
        drop(j);
        let replay = Journal::replay_snapshot(&path).expect("snapshot");
        assert_eq!(replay.claims.get(&1).map(|c| c.worker.as_str()), Some("w1"));
        assert!(replay.abandoned.is_empty(), "a race is not an abandonment");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn expired_lease_takeover_counts_toward_poison() {
        let path = tmp("lease");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::create(&path, "c").expect("create");
        j.record_claimed("a", 1, "w1", 100, 1_000).expect("rec");
        j.record_renewed(1, "w1", 2_000).expect("rec");
        // Renewal by a non-owner is ignored.
        j.record_renewed(1, "w9", 99_000).expect("rec");
        // Claim after the renewed deadline: w1 is presumed dead.
        j.record_claimed("a", 1, "w2", 2_500, 3_500).expect("rec");
        drop(j);
        let replay = Journal::replay_snapshot(&path).expect("snapshot");
        assert_eq!(replay.claims.get(&1).map(|c| c.worker.as_str()), Some("w2"));
        assert_eq!(replay.abandoned.get(&1), Some(&1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn launch_reopens_failures_and_abandons_claims() {
        let path = tmp("launch");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::create(&path, "c").expect("create");
        j.record_claimed("a", 1, "w1", 100, 1_000).expect("rec");
        j.record_claimed("b", 2, "w1", 100, 1_000).expect("rec");
        j.record_failed("b", 2, "boom", 3, "panic").expect("rec");
        j.record_launch("w2").expect("rec");
        drop(j);
        let replay = Journal::replay_snapshot(&path).expect("snapshot");
        assert!(replay.failed.is_empty(), "failures reopen across epochs");
        assert!(replay.claims.is_empty(), "pre-boundary claims are dead");
        assert_eq!(replay.abandoned.get(&1), Some(&1));
        assert_eq!(
            replay.abandoned.get(&2),
            None,
            "terminal before the boundary"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn first_terminal_record_wins() {
        let path = tmp("term");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::create(&path, "c").expect("create");
        j.record_finished("a", 1, 1).expect("rec");
        // A reclaim race's late duplicate completion changes nothing.
        j.record_failed("a", 1, "late loser", 3, "error")
            .expect("rec");
        j.record_quarantined("a", 1, 3).expect("rec");
        drop(j);
        let replay = Journal::replay_snapshot(&path).expect("snapshot");
        assert!(replay.finished.contains(&1));
        assert!(replay.failed.is_empty());
        assert!(replay.poisoned.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn quarantined_and_reopened_are_replayed() {
        let path = tmp("poison");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::create(&path, "c").expect("create");
        j.record_quarantined("a", 1, 3).expect("rec");
        j.record_finished("b", 2, 1).expect("rec");
        j.record_reopened("b", 2).expect("rec");
        drop(j);
        let replay = Journal::replay_snapshot(&path).expect("snapshot");
        assert_eq!(replay.poisoned.get(&1), Some(&3));
        assert!(!replay.finished.contains(&2), "reopened undoes finished");
        assert!(!replay.terminal(2));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::create(&path, "c").expect("create");
            j.record_finished("a", 1, 1).expect("rec");
        }
        // Simulate a SIGKILL mid-append: a record prefix with no newline.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("open");
            f.write_all(b"{\"record\":\"finis").expect("tear");
        }
        // A non-destructive snapshot just ignores the tail.
        let snap = Journal::replay_snapshot(&path).expect("snapshot");
        assert_eq!(snap.quarantined, 0, "a growing tail is not damage");
        assert!(snap.finished.contains(&1));
        let (mut j, replay) = Journal::open_resume(&path, "c").expect("resume");
        assert_eq!(replay.quarantined, 1, "torn tail counted");
        assert!(replay.finished.contains(&1), "intact records survive");
        j.record_finished("b", 2, 1).expect("append after truncate");
        drop(j);
        let (_j, replay) = Journal::open_resume(&path, "c").expect("second resume");
        assert_eq!(replay.quarantined, 0, "tail was repaired");
        assert!(replay.finished.contains(&2));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_interior_record_is_quarantined_not_fatal() {
        let path = tmp("corrupt");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::create(&path, "c").expect("create");
            j.record_finished("a", 1, 1).expect("rec");
            j.record_finished("b", 2, 1).expect("rec");
        }
        // Flip a byte inside the first finished record's mix name; its
        // checksum no longer matches.
        let mut bytes = std::fs::read(&path).expect("read");
        let pos = bytes
            .windows(3)
            .position(|w| w == b"\"a\"")
            .expect("find payload");
        bytes[pos + 1] = b'z';
        std::fs::write(&path, &bytes).expect("rewrite");
        let (_j, replay) = Journal::open_resume(&path, "c").expect("resume");
        assert_eq!(replay.quarantined, 1);
        assert!(!replay.finished.contains(&1), "damaged record not trusted");
        assert!(replay.finished.contains(&2), "later records unaffected");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn version_1_journals_replay_unchanged() {
        let path = tmp("v1");
        let _ = std::fs::remove_file(&path);
        let mut text = String::new();
        for fields in [
            vec![
                ("record", Value::Str("header".into())),
                ("version", Value::UInt(1)),
                ("campaign", Value::Str("c".into())),
            ],
            vec![
                ("record", Value::Str("started".into())),
                ("mix", Value::Str("a".into())),
                ("hash", Value::UInt(1)),
            ],
            vec![
                ("record", Value::Str("finished".into())),
                ("mix", Value::Str("a".into())),
                ("hash", Value::UInt(1)),
                ("attempts", Value::UInt(1)),
            ],
            vec![
                ("record", Value::Str("started".into())),
                ("mix", Value::Str("b".into())),
                ("hash", Value::UInt(2)),
            ],
            vec![
                ("record", Value::Str("failed".into())),
                ("mix", Value::Str("b".into())),
                ("hash", Value::UInt(2)),
                ("error", Value::Str("boom".into())),
                ("attempts", Value::UInt(3)),
            ],
            vec![
                ("record", Value::Str("started".into())),
                ("mix", Value::Str("c".into())),
                ("hash", Value::UInt(3)),
            ],
        ] {
            text.push_str(&render_record(&fields).expect("render"));
        }
        std::fs::write(&path, text).expect("write");
        let (_j, replay) = Journal::open_resume(&path, "c").expect("resume");
        assert!(replay.finished.contains(&1));
        let failed = replay.failed.get(&2).expect("failed replayed");
        assert_eq!(failed.error, "boom");
        assert_eq!(failed.attempts, 3);
        assert_eq!(failed.kind, "error", "v1 records default the kind");
        assert_eq!(replay.interrupted(), BTreeSet::from([3]));
        assert_eq!(replay.quarantined, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn future_format_version_is_refused() {
        let path = tmp("ver");
        let _ = std::fs::remove_file(&path);
        let line = render_record(&[
            ("record", Value::Str("header".to_string())),
            ("version", Value::UInt(JOURNAL_FORMAT_VERSION + 1)),
            ("campaign", Value::Str("c".to_string())),
        ])
        .expect("render");
        std::fs::write(&path, line).expect("write");
        let err = Journal::open_resume(&path, "c").unwrap_err();
        assert!(
            matches!(err, Grade10Error::UnsupportedVersion(_)),
            "classified for callers: {err}"
        );
        assert!(err.to_string().contains("format version 3"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_of_missing_journal_is_a_fresh_start() {
        let path = tmp("fresh");
        let _ = std::fs::remove_file(&path);
        let (_j, replay) = Journal::open_resume(&path, "c").expect("resume");
        assert!(replay.finished.is_empty());
        assert!(path.exists(), "journal created with header");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn incremental_refresh_absorbs_only_new_records() {
        let path = tmp("incr");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::create(&path, "c").expect("create");
        j.record_finished("a", 1, 1).expect("rec");
        let mut view = Journal::replay_snapshot(&path).expect("snapshot");
        assert!(view.finished.contains(&1));
        j.record_finished("b", 2, 1).expect("rec");
        j.record_claimed("c", 3, "w1", 100, 1_000).expect("rec");
        Journal::refresh(&path, &mut view).expect("refresh");
        assert!(view.finished.contains(&2));
        assert!(view.claims.contains_key(&3));
        let _ = std::fs::remove_file(&path);
    }
}
