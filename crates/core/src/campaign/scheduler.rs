//! The campaign scheduler: fans the mix matrix over a worker fleet under
//! the durability envelope.
//!
//! Each mix runs at most once per launch, behind three layers of armor:
//! the result store memoizes finished mixes across launches, the journal
//! write-ahead-logs every state change so a SIGKILL'd campaign resumes
//! instead of restarting, and a retry ladder of three rungs (strict →
//! lenient → partial) gives a failing mix a more forgiving run before it
//! is given up on. The rungs run through the supervised policy's one
//! attempt loop, `supervise::run_unit`, back to back: no failure a mix can
//! return goes away by waiting, so nothing sleeps between them. A mix that
//! exhausts its ladder becomes a campaign-level [`Incident`] and the
//! campaign carries on — one pathological configuration must never cost
//! the other results of an overnight screening run.
//!
//! Since journal format v2 the fleet can span *processes*: every worker —
//! the in-process pool threads of one `grade10 campaign`, and any peer
//! process joined with `--join` over a shared filesystem — coordinates
//! purely through the journal. A worker leases a mix by appending a
//! `claimed` record, heartbeats with `renewed`, and releases it with a
//! terminal marker; claim races resolve by file order (first claim over
//! an unexpired lease wins), a dead worker's lease expires and any peer
//! reclaims the mix, and a mix that keeps killing its claimants is
//! quarantined as poisoned instead of crash-looping the fleet.
//!
//! Claimants take mixes in *claim order*: the matrix stably sorted by
//! dataset and seed, the two axes that decide a mix's input graph. Mixes
//! on one graph thus run back to back, and a runner that keeps its last
//! graph generates each one once per claimant rather than once per mix.
//! Claim order only decides who runs what when. The final report is
//! assembled from journal + store alone, in matrix order, so it is
//! byte-identical regardless of claim order, worker count, kill schedule,
//! or resume order.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use serde::{Serialize as _, Value};

use crate::config::pool_map;
use crate::error::Grade10Error;
use crate::supervise::{
    run_unit, Incident, IncidentKind, IncidentOutcome, RetryPolicy, SuperviseConfig, UnitRun,
};

use super::journal::{FailedMix, Journal, JournalReplay};
use super::spec::{CampaignSpec, MixSpec};
use super::store::{atomic_write, MixOutcome, Store};

/// Consecutive claimants a mix may kill (claims abandoned without a
/// terminal record) before it is quarantined as poisoned.
const POISON_THRESHOLD: u32 = 3;

/// Which rung of the degradation ladder a mix attempt runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MixMode {
    /// Strict ingestion: corrupt telemetry is rejected.
    Strict,
    /// Lenient ingestion: telemetry is repaired first.
    Lenient,
    /// Fully supervised run producing a partial characterization if
    /// stages or machines drop.
    Partial,
}

impl MixMode {
    /// Short lowercase name, stored in outcomes and printed in reports.
    pub fn name(self) -> &'static str {
        match self {
            MixMode::Strict => "strict",
            MixMode::Lenient => "lenient",
            MixMode::Partial => "partial",
        }
    }

    /// Inverse of [`name`](Self::name), for reloading the mode from the
    /// campaign manifest a joining worker reads.
    pub fn from_name(name: &str) -> Option<MixMode> {
        match name {
            "strict" => Some(MixMode::Strict),
            "lenient" => Some(MixMode::Lenient),
            "partial" => Some(MixMode::Partial),
            _ => None,
        }
    }
}

/// The ladder: attempt 0 runs at the campaign's base mode, the first
/// retry of a strict mix relaxes to lenient, and everything after runs
/// supervised, where a partial characterization still counts as a result.
pub fn ladder_mode(base: MixMode, attempt: u32) -> MixMode {
    match (base, attempt) {
        (_, 0) => base,
        (MixMode::Strict, 1) => MixMode::Lenient,
        _ => MixMode::Partial,
    }
}

/// One attempt handed to the mix runner.
#[derive(Clone, Copy, Debug)]
pub struct MixAttempt {
    /// 0-based attempt index within this mix's ladder.
    pub index: u32,
    /// The ladder rung to run at.
    pub mode: MixMode,
}

/// How a campaign executes: where its durable state lives and how hard
/// it fights for each mix.
#[derive(Clone, Debug)]
pub struct CampaignOptions {
    /// Campaign directory holding `journal.jsonl`, `campaign.json`,
    /// `store/`, and the final reports.
    pub dir: PathBuf,
    /// Resume a previous launch: replay the journal, serve finished
    /// mixes from the store, re-run the rest. Without this, an existing
    /// journal in `dir` is an error.
    pub resume: bool,
    /// Join a campaign another process leads: open its journal without
    /// truncating anything and start claiming mixes. Mutually exclusive
    /// with `resume` (a joiner is never the epoch leader).
    pub join: bool,
    /// Worker-pool width: in-process claimant threads (clamped to at
    /// least 1). Reports are byte-identical at any width.
    pub width: usize,
    /// Worker-id prefix this process claims mixes under; thread `i`
    /// claims as `"{worker}.{i}"`. Defaults to `"w{pid}"`, unique per
    /// process on one machine; give shared-filesystem fleets distinct
    /// names via `--worker`.
    pub worker: String,
    /// Lease duration: a claim not renewed within this window is
    /// presumed dead and reclaimable. Coarse (default 30s) on purpose —
    /// it only has to beat clock skew between fleet machines, not react
    /// quickly. One lease per fleet: the leader records it in
    /// `campaign.json` and every joiner reads it from there, because a
    /// holder heartbeats at its own lease/3 while an observer tolerates
    /// skew of its own lease/3, so mixed leases could steal a live claim.
    pub lease_ms: u64,
    /// The longest a worker sleeps between journal polls while every
    /// remaining mix is leased to someone else, or while a joiner waits for
    /// the leader's journal; the sleeps start at 1 ms and grow with the
    /// time spent waiting.
    pub poll_ms: u64,
    /// Unused: nothing in `core` or the binary reads this field. A mix's
    /// rungs run through the supervised policy's attempt loop with its
    /// default [`SuperviseConfig`]: three attempts, no sleep between them.
    /// The field is kept only because the frozen benchmark sources still
    /// assign it, and goes when a `benchmark` PR drops that assignment.
    pub retry: RetryPolicy,
    /// Ladder rung attempt 0 runs at.
    pub base_mode: MixMode,
    /// Test-only crash simulation: stop claiming new mixes after this
    /// many claims, leaving the campaign interrupted exactly as a kill
    /// signal would (minus the torn bytes). `None` in production.
    pub stop_after: Option<usize>,
}

impl CampaignOptions {
    /// The longest nap between journal polls, `poll_ms` (at least 1 ms).
    fn poll(&self) -> Duration {
        Duration::from_millis(self.poll_ms.max(1))
    }

    /// Options with production defaults, rooted at `dir`.
    pub fn new(dir: PathBuf) -> CampaignOptions {
        CampaignOptions {
            dir,
            resume: false,
            join: false,
            width: 1,
            worker: format!("w{}", std::process::id()),
            lease_ms: 30_000,
            poll_ms: 200,
            retry: RetryPolicy,
            base_mode: MixMode::Strict,
            stop_after: None,
        }
    }
}

/// What one campaign launch produced.
#[derive(Debug)]
pub struct CampaignRun {
    /// Surviving outcomes, in mix-matrix order (the report ranks its own
    /// copy).
    pub outcomes: Vec<MixOutcome>,
    /// Campaign-level incidents: one per mix that exhausted its ladder or
    /// was quarantined as poisoned. Reconstructed from the journal, so
    /// every worker reports the same incidents whoever suffered them.
    pub incidents: Vec<Incident>,
    /// Mixes this process actually executed this launch.
    pub executed: usize,
    /// Mixes served from the store without running.
    pub cached: usize,
    /// Mixes that ended in an incident (failed or poisoned).
    pub failed: usize,
    /// Journal records quarantined while reloading.
    pub quarantined_journal: usize,
    /// True when a `stop_after` budget interrupted the launch before the
    /// matrix completed; no report was written.
    pub interrupted: bool,
    /// Rendered text report (empty when interrupted).
    pub report_text: String,
    /// Rendered JSON report (empty when interrupted).
    pub report_json: String,
}

impl CampaignRun {
    /// True when every mix characterized completely with no campaign
    /// incidents — the exit-code-0 condition. Mixes that needed retries
    /// but finished clean still count as clean; degraded (partial) or
    /// incident-bearing outcomes do not.
    pub fn is_clean(&self) -> bool {
        !self.interrupted
            && self.incidents.is_empty()
            && self
                .outcomes
                .iter()
                .all(|o| !o.degraded && o.incidents == 0)
    }
}

fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Journal handle plus the incremental view of it, advanced together
/// under one lock.
struct JState {
    journal: Journal,
    replay: JournalReplay,
    /// First local sighting of each mix's current lease, keyed by content
    /// hash — the monotonic anchor for expiry arbitration (see
    /// [`claim_next`]). A renewal (worker or deadline change) replaces the
    /// entry, restarting the locally-measured countdown.
    observed: BTreeMap<u64, ObservedLease>,
}

/// One lease state as first seen by *this* process, with its expiry
/// re-anchored to the local monotonic clock. Lease deadlines in the
/// journal are absolute wall-clock milliseconds stamped by the claimant;
/// comparing them directly against our own `SystemTime::now()` lets a
/// worker whose clock runs ahead (or a claimant whose clock runs behind)
/// declare a live peer dead and double-run its mix. So wall expiry alone
/// never revokes a lease: we also require the lease to have stayed
/// unrenewed for its full locally-measured remaining lifetime plus a skew
/// tolerance of at least a third of the lease (one heartbeat interval).
struct ObservedLease {
    worker: String,
    deadline_ms: u64,
    expires_at: Instant,
}

/// Everything the claimant threads share.
struct Shared<'a> {
    opts: &'a CampaignOptions,
    /// The mix matrix with content hashes, in matrix order.
    items: &'a [(MixSpec, u64)],
    /// Indices into `items` in the order claimants take them.
    claim_order: Vec<usize>,
    store: &'a Store,
    journal_path: &'a Path,
    state: Mutex<JState>,
    interrupted: AtomicBool,
    claims_made: AtomicUsize,
    executed: AtomicUsize,
    /// Outcomes this process produced, the fallback if a store read fails
    /// during final assembly.
    local: Mutex<BTreeMap<u64, MixOutcome>>,
}

fn lock<'m, T>(m: &'m Mutex<T>) -> std::sync::MutexGuard<'m, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs (or resumes, or joins) a campaign: expands the spec, drains the
/// matrix through the lease protocol, and writes `report.txt` /
/// `report.json` into the campaign directory. The `runner` characterizes
/// one mix at one ladder rung; it fills the measurement fields of
/// [`MixOutcome`] (`makespan_ns`, `classes`, `incidents`, `degraded`) and
/// the scheduler normalizes the identity fields (`mix`, `hash`,
/// `attempts`, `mode`). Runner panics are captured and enter the retry
/// ladder like classified errors, as `stage panicked: <mix id>: <message>`.
pub fn run_campaign<F>(
    spec: &CampaignSpec,
    opts: &CampaignOptions,
    runner: F,
) -> Result<CampaignRun, Grade10Error>
where
    F: Fn(&MixSpec, MixAttempt) -> Result<MixOutcome, Grade10Error> + Sync,
{
    let mixes = spec.expand();
    if mixes.is_empty() {
        return Err(Grade10Error::Serialization(
            "campaign spec expands to zero mixes".to_string(),
        ));
    }
    std::fs::create_dir_all(&opts.dir)
        .map_err(|e| Grade10Error::Io(format!("creating {}: {e}", opts.dir.display())))?;
    let store = Store::open(&opts.dir.join("store"))?;
    let journal_path = opts.dir.join("journal.jsonl");
    let items: Vec<(MixSpec, u64)> = mixes
        .into_iter()
        .map(|m| {
            let h = m.content_hash(&spec.code_version);
            (m, h)
        })
        .collect();

    let (journal, replay, cached) = if opts.join {
        // The leader creates the journal; wait briefly for it to appear.
        if !Poll::new(opts.poll()).until(|| journal_path.exists()) {
            return Err(Grade10Error::Io(format!(
                "{}: no campaign journal appeared within 10s; is a leader running?",
                opts.dir.display()
            )));
        }
        let (j, r) = Journal::open_join(&journal_path)?;
        let cached = items.iter().filter(|(_, h)| r.finished.contains(h)).count();
        (j, r, cached)
    } else if opts.resume {
        let (mut j, mut r) = Journal::open_resume(&journal_path, &spec.name)?;
        // Epoch boundary: the previous fleet is dead; its live claims
        // count as abandoned and its permanent failures reopen.
        j.record_launch(&opts.worker)?;
        // Reconcile journal against store: the store is the outcome
        // authority. A stored outcome whose finished record was lost is
        // re-marked (`skipped`); a finished record whose artifact is
        // unloadable is reopened so the mix recomputes.
        let mut cached = 0;
        for (mix, hash) in &items {
            if store.load(*hash, mix).is_some() {
                cached += 1;
                if !r.finished.contains(hash) {
                    j.record_skipped(&mix.id(), *hash)?;
                }
            } else if r.finished.contains(hash) {
                j.record_reopened(&mix.id(), *hash)?;
            }
        }
        Journal::refresh(&journal_path, &mut r)?;
        (j, r, cached)
    } else {
        if journal_path.exists() {
            return Err(Grade10Error::Io(format!(
                "{} already holds a campaign journal; pass --resume to continue it or use a fresh directory",
                opts.dir.display()
            )));
        }
        (
            Journal::create(&journal_path, &spec.name)?,
            JournalReplay::default(),
            0,
        )
    };

    if !opts.join {
        // Manifest for joiners and `--status`: enough to reconstruct the
        // matrix and the execution knobs without the original spec file.
        let manifest = Value::Object(vec![
            ("spec".to_string(), spec.to_value()),
            (
                "base_mode".to_string(),
                Value::Str(opts.base_mode.name().to_string()),
            ),
            ("lease_ms".to_string(), Value::UInt(opts.lease_ms)),
        ]);
        let path = opts.dir.join("campaign.json");
        atomic_write(&path, serde_json::to_string_pretty(&manifest)?.as_bytes())
            .map_err(|e| Grade10Error::Io(format!("writing {}: {e}", path.display())))?;
    }

    let shared = Shared {
        opts,
        items: &items,
        claim_order: claim_order(&items),
        store: &store,
        journal_path: &journal_path,
        state: Mutex::new(JState {
            journal,
            replay,
            observed: BTreeMap::new(),
        }),
        interrupted: AtomicBool::new(false),
        claims_made: AtomicUsize::new(0),
        executed: AtomicUsize::new(0),
        local: Mutex::new(BTreeMap::new()),
    };
    let width = opts.width.max(1).min(items.len());
    let results = pool_map(width, (0..width).collect(), None, |slot| {
        worker_loop(&shared, slot, &runner)
    });
    for r in results {
        r?;
    }

    let Shared {
        state,
        local,
        interrupted,
        executed,
        ..
    } = shared;
    let mut st = state.into_inner().unwrap_or_else(PoisonError::into_inner);
    Journal::refresh(&journal_path, &mut st.replay)?;
    let local = local.into_inner().unwrap_or_else(PoisonError::into_inner);

    let mut run = CampaignRun {
        outcomes: Vec::new(),
        incidents: Vec::new(),
        executed: executed.load(Ordering::SeqCst),
        cached,
        failed: 0,
        quarantined_journal: st.replay.quarantined,
        interrupted: interrupted.load(Ordering::SeqCst),
        report_text: String::new(),
        report_json: String::new(),
    };
    if run.interrupted {
        // The launch died before covering the matrix: leave the journal
        // and store as the durable record, write no report.
        return Ok(run);
    }
    // Assemble in matrix order from journal + store alone, so every
    // worker that gets here renders the identical report.
    for (mix, hash) in &items {
        if let Some(&n) = st.replay.poisoned.get(hash) {
            run.incidents.push(poisoned_incident(mix, n));
        } else if let Some(f) = st.replay.failed.get(hash) {
            run.incidents.push(failed_incident(mix, f));
        } else if let Some(out) = store.load(*hash, mix).or_else(|| local.get(hash).cloned()) {
            run.outcomes.push(out);
        }
    }
    run.failed = run.incidents.len();
    let report = crate::report::campaign_report(&spec.name, &run.outcomes, &run.incidents);
    atomic_write(&opts.dir.join("report.txt"), report.text.as_bytes())
        .map_err(|e| Grade10Error::Io(format!("writing report.txt: {e}")))?;
    atomic_write(&opts.dir.join("report.json"), report.json.as_bytes())
        .map_err(|e| Grade10Error::Io(format!("writing report.json: {e}")))?;
    run.report_text = report.text;
    run.report_json = report.json;
    Ok(run)
}

/// The matrix indices stably sorted by `(dataset, seed)`, so mixes that run
/// on the same input graph are claimed consecutively.
fn claim_order(items: &[(MixSpec, u64)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| (&items[i].0.dataset, items[i].0.seed));
    order
}

fn failed_incident(mix: &MixSpec, f: &FailedMix) -> Incident {
    Incident {
        stage: "campaign",
        unit: mix.id(),
        kind: IncidentKind::from_name(&f.kind).unwrap_or(IncidentKind::Error),
        detail: f.error.clone(),
        attempts: f.attempts,
        outcome: IncidentOutcome::Dropped,
    }
}

fn poisoned_incident(mix: &MixSpec, claims: u32) -> Incident {
    Incident {
        stage: "campaign",
        unit: mix.id(),
        kind: IncidentKind::Poisoned,
        detail: format!(
            "poisoned mix: {claims} consecutive claimants died without recording an outcome"
        ),
        attempts: claims,
        outcome: IncidentOutcome::Dropped,
    }
}

/// What one pass over the matrix decided for a claimant thread.
enum Pick {
    /// Every mix is terminal; the campaign is drained.
    AllTerminal,
    /// Everything left is leased to live peers; sleep and re-poll.
    Wait,
    /// Journal state advanced (a skip, a quarantine, or a lost claim
    /// race); scan again immediately.
    Progress,
    /// Won the lease on `items[idx]`; run it.
    Run(usize),
}

/// One claimant thread: repeatedly pick the first available mix in claim
/// order (grouped by input graph; see the module docs), lease it through
/// the journal, and run it under the retry ladder. Exits when the matrix
/// is drained or the launch is interrupted.
fn worker_loop<F>(shared: &Shared<'_>, slot: usize, runner: &F) -> Result<(), Grade10Error>
where
    F: Fn(&MixSpec, MixAttempt) -> Result<MixOutcome, Grade10Error> + Sync,
{
    let me = format!("{}.{slot}", shared.opts.worker);
    // Waiting on peers' leases: a flat `poll_ms` nap made a short
    // campaign's wall time hinge on which worker drew the last mix.
    let mut idle = Poll::new(shared.opts.poll());
    loop {
        if shared.interrupted.load(Ordering::SeqCst) {
            return Ok(());
        }
        let pick = claim_next(shared, &me)?;
        match pick {
            Pick::AllTerminal => return Ok(()),
            Pick::Wait => {
                idle.nap();
                continue;
            }
            Pick::Progress => {}
            Pick::Run(idx) => run_claimed_mix(shared, &me, idx, runner)?,
        }
        idle = Poll::new(shared.opts.poll());
    }
}

/// How a campaign process waits on another one through the shared
/// directory: it naps a quarter of the time it has waited so far, between
/// 1 ms and a cap. What a peer finishes is seen within a quarter of the
/// time it took, and a long wait costs few polls.
pub struct Poll {
    waited: Duration,
    cap: Duration,
}

impl Poll {
    /// A wait that has not started, napping at most `cap` at a time.
    pub fn new(cap: Duration) -> Poll {
        Poll {
            waited: Duration::ZERO,
            cap,
        }
    }

    /// Sleeps one nap.
    pub fn nap(&mut self) {
        let nap = (self.waited / 4).clamp(Duration::from_millis(1), self.cap);
        std::thread::sleep(nap);
        self.waited += nap;
    }

    /// Naps until `ready` holds or 10 s have passed, and reports whether
    /// `ready` held.
    pub fn until(mut self, ready: impl Fn() -> bool) -> bool {
        while !ready() {
            if self.waited >= Duration::from_secs(10) {
                return false;
            }
            self.nap();
        }
        true
    }
}

/// One claim pass, entirely under the in-process journal lock (so two
/// local threads never race each other; cross-process races resolve by
/// journal file order).
fn claim_next(shared: &Shared<'_>, me: &str) -> Result<Pick, Grade10Error> {
    let mut st = lock(&shared.state);
    let JState {
        journal,
        replay,
        observed,
    } = &mut *st;
    Journal::refresh(shared.journal_path, replay)?;
    let now = now_ms();
    // Skew tolerance: how long past a lease's locally-measured lifetime we
    // keep honoring it. At least a third of the lease, so a live holder
    // (heartbeating at lease/3) always renews within the tolerance window
    // no matter how skewed the wall clocks are.
    let tol = Duration::from_millis(shared.opts.lease_ms.div_ceil(3).max(1));
    let mut all_terminal = true;
    let mut candidate: Option<(usize, u32)> = None;
    for &i in &shared.claim_order {
        let hash = &shared.items[i].1;
        if replay.terminal(*hash) {
            observed.remove(hash);
            continue;
        }
        all_terminal = false;
        // A live, unexpired lease belongs to someone; an expired one
        // means its holder is presumed dead and counts toward poison. The
        // deadline in the journal is the *claimant's* wall clock, so wall
        // expiry alone is not trusted: the lease must also have sat
        // unrenewed for its remaining lifetime plus `tol`, measured on
        // our own monotonic clock from when we first saw this exact
        // (worker, deadline) state.
        let expired = match replay.claims.get(hash) {
            Some(c) => {
                let fresh = observed
                    .get(hash)
                    .is_none_or(|o| o.worker != c.worker || o.deadline_ms != c.deadline_ms);
                if fresh {
                    let remaining = Duration::from_millis(c.deadline_ms.saturating_sub(now));
                    observed.insert(
                        *hash,
                        ObservedLease {
                            worker: c.worker.clone(),
                            deadline_ms: c.deadline_ms,
                            expires_at: Instant::now() + remaining + tol,
                        },
                    );
                }
                let wall_expired = now > c.deadline_ms;
                let locally_expired = observed
                    .get(hash)
                    .is_some_and(|o| Instant::now() >= o.expires_at);
                if !(wall_expired && locally_expired) {
                    continue;
                }
                1
            }
            None => {
                observed.remove(hash);
                0
            }
        };
        let abandoned = replay.abandoned.get(hash).copied().unwrap_or(0);
        candidate = Some((i, abandoned + expired));
        break;
    }
    if all_terminal {
        return Ok(Pick::AllTerminal);
    }
    let Some((idx, deaths)) = candidate else {
        return Ok(Pick::Wait);
    };
    let (mix, hash) = &shared.items[idx];
    let id = mix.id();
    if shared.store.load(*hash, mix).is_some() {
        // The store already holds this outcome (its journal record was
        // damaged, or a peer's resume landed it); mark and move on.
        journal.record_skipped(&id, *hash)?;
        replay.finished.insert(*hash);
        replay.claims.remove(hash);
        return Ok(Pick::Progress);
    }
    if deaths >= POISON_THRESHOLD {
        // The mix keeps killing whoever claims it; quarantine instead of
        // feeding it another worker.
        journal.record_quarantined(&id, *hash, deaths)?;
        Journal::refresh(shared.journal_path, replay)?;
        return Ok(Pick::Progress);
    }
    if let Some(limit) = shared.opts.stop_after {
        if shared.claims_made.fetch_add(1, Ordering::SeqCst) >= limit {
            shared.interrupted.store(true, Ordering::SeqCst);
            return Ok(Pick::Progress);
        }
    }
    journal.record_claimed(&id, *hash, me, now, now + shared.opts.lease_ms)?;
    Journal::refresh(shared.journal_path, replay)?;
    match replay.claims.get(hash) {
        Some(c) if c.worker == me => Ok(Pick::Run(idx)),
        // Lost the race to a peer process whose claim hit the file first.
        _ => Ok(Pick::Progress),
    }
}

/// Runs one leased mix under the retry ladder, heartbeating the lease
/// from a sidecar thread, and appends the terminal marker.
fn run_claimed_mix<F>(
    shared: &Shared<'_>,
    me: &str,
    idx: usize,
    runner: &F,
) -> Result<(), Grade10Error>
where
    F: Fn(&MixSpec, MixAttempt) -> Result<MixOutcome, Grade10Error> + Sync,
{
    let (mix, hash) = &shared.items[idx];
    let id = mix.id();
    let opts = shared.opts;
    let done = AtomicBool::new(false);
    let result = std::thread::scope(|s| {
        let heartbeat = s.spawn(|| {
            // Renew at a third of the lease so two heartbeats can be lost
            // before the lease lapses. Between renewals the thread is
            // parked; the claimant unparks it once the ladder returns.
            let interval = Duration::from_millis((opts.lease_ms / 3).max(1));
            loop {
                let started = Instant::now();
                // A park may end early or spuriously: only the flag and
                // the clock decide.
                loop {
                    if done.load(Ordering::SeqCst) {
                        return;
                    }
                    match interval.checked_sub(started.elapsed()) {
                        Some(left) if !left.is_zero() => std::thread::park_timeout(left),
                        _ => break,
                    }
                }
                let mut st = lock(&shared.state);
                let _ = st
                    .journal
                    .record_renewed(*hash, me, now_ms() + opts.lease_ms);
            }
        });
        let r = run_ladder(shared, mix, *hash, &id, runner);
        // Flag first, then wake: a heartbeat that read the flag before the
        // store finds the unpark token waiting when it parks.
        done.store(true, Ordering::SeqCst);
        heartbeat.thread().unpark();
        r
    });
    result
}

/// The retry ladder for one claimed mix: the supervised attempt loop runs
/// rung `k` at [`ladder_mode`]`(base_mode, k)`, with panic capture and a
/// stop on the first fatal error. Success stores the outcome then marks
/// `finished`; exhaustion (or a fatal error) marks `failed` with the
/// incident kind.
fn run_ladder<F>(
    shared: &Shared<'_>,
    mix: &MixSpec,
    hash: u64,
    id: &str,
    runner: &F,
) -> Result<(), Grade10Error>
where
    F: Fn(&MixSpec, MixAttempt) -> Result<MixOutcome, Grade10Error> + Sync,
{
    let base = shared.opts.base_mode;
    let UnitRun {
        result, attempts, ..
    } = run_unit(&SuperviseConfig::default(), id, |index| {
        let mode = ladder_mode(base, index);
        runner(mix, MixAttempt { index, mode })
    });
    let stored = result.and_then(|mut outcome| {
        outcome.mix = mix.clone();
        outcome.hash = hash;
        outcome.attempts = attempts;
        outcome.mode = ladder_mode(base, attempts - 1).name().to_string();
        shared.store.put(&outcome)?;
        Ok(outcome)
    });
    match stored {
        Ok(outcome) => {
            lock(&shared.state)
                .journal
                .record_finished(id, hash, attempts)?;
            lock(&shared.local).insert(hash, outcome);
        }
        Err(e) => lock(&shared.state).journal.record_failed(
            id,
            hash,
            &e.to_string(),
            attempts,
            IncidentKind::of(&e).name(),
        )?,
    }
    shared.executed.fetch_add(1, Ordering::SeqCst);
    Ok(())
}

/// The launch record (`campaign.json`) a leader writes for each epoch:
/// the spec, the base mode and the lease. Joiners and `--status`
/// reconstruct the matrix from it without the original spec file, and a
/// resumed leader keeps its base mode and lease.
pub fn load_manifest(dir: &Path) -> Result<(CampaignSpec, MixMode, u64), Grade10Error> {
    let path = dir.join("campaign.json");
    let bad = |what: &str| Grade10Error::Serialization(format!("{}: {what}", path.display()));
    let text = std::fs::read_to_string(&path).map_err(|e| {
        Grade10Error::Io(format!(
            "reading {}: {e}; was a campaign started in this directory?",
            path.display()
        ))
    })?;
    let value: Value = serde_json::from_str(&text)?;
    let Value::Object(entries) = &value else {
        return Err(bad("manifest is not an object"));
    };
    let get = |key: &str| entries.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let spec = CampaignSpec::from_value(get("spec").ok_or_else(|| bad("manifest has no `spec`"))?)?;
    let base_mode = match get("base_mode") {
        None => Some(MixMode::Strict),
        Some(Value::Str(s)) => MixMode::from_name(s),
        Some(_) => None,
    }
    .ok_or_else(|| bad("`base_mode` is not strict, lenient or partial"))?;
    // A zero lease would expire every claim the moment it is made.
    let lease_ms = match get("lease_ms") {
        Some(Value::UInt(n)) if *n >= 1 => *n,
        None => 30_000,
        Some(_) => return Err(bad("`lease_ms` is not a whole number >= 1")),
    };
    Ok((spec, base_mode, lease_ms))
}

/// Progress snapshot of a campaign directory, derived purely from the
/// journal and the store. Read-only and torn-tail tolerant, so it is safe
/// to run while workers are live.
#[derive(Debug, PartialEq, Eq)]
pub struct CampaignStatus {
    /// Campaign name from the manifest.
    pub campaign: String,
    /// Matrix size.
    pub total: usize,
    /// Mixes with a durable outcome.
    pub finished: usize,
    /// Mixes under a live, unexpired lease.
    pub claimed: usize,
    /// Mixes whose lease expired without a terminal record — their
    /// claimant is presumed dead and any worker may reclaim them.
    pub stale: usize,
    /// Mixes that failed permanently this epoch.
    pub failed: usize,
    /// Mixes quarantined as poisoned.
    pub poisoned: usize,
    /// Mixes not yet claimed this epoch.
    pub pending: usize,
    /// Journal records quarantined while reading.
    pub quarantined_journal: usize,
    /// True when `report.txt` exists (the matrix was drained at least
    /// once).
    pub report_written: bool,
}

/// Computes a [`CampaignStatus`] for `dir` without touching any durable
/// state.
pub fn campaign_status(dir: &Path) -> Result<CampaignStatus, Grade10Error> {
    let (spec, _, _) = load_manifest(dir)?;
    let replay = Journal::replay_snapshot(&dir.join("journal.jsonl"))?;
    let store = Store::open(&dir.join("store"))?;
    let now = now_ms();
    let mut status = CampaignStatus {
        campaign: spec.name.clone(),
        total: 0,
        finished: 0,
        claimed: 0,
        stale: 0,
        failed: 0,
        poisoned: 0,
        pending: 0,
        quarantined_journal: replay.quarantined,
        report_written: dir.join("report.txt").exists(),
    };
    for mix in spec.expand() {
        let hash = mix.content_hash(&spec.code_version);
        status.total += 1;
        if replay.poisoned.contains_key(&hash) {
            status.poisoned += 1;
        } else if replay.failed.contains_key(&hash) {
            status.failed += 1;
        } else if replay.finished.contains(&hash) || store.load(hash, &mix).is_some() {
            status.finished += 1;
        } else {
            match replay.claims.get(&hash) {
                Some(c) if now <= c.deadline_ms => status.claimed += 1,
                Some(_) => status.stale += 1,
                None => status.pending += 1,
            }
        }
    }
    Ok(status)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spec() -> CampaignSpec {
        CampaignSpec {
            name: "unit".into(),
            code_version: "t1".into(),
            algorithms: vec!["pr".into(), "bfs".into()],
            datasets: vec!["rmat:6".into()],
            engines: vec!["giraph".into()],
            machines: vec![2],
            seeds: vec![46],
            faults: vec!["none".into()],
        }
    }

    fn opts(dir: &str) -> CampaignOptions {
        let mut o = CampaignOptions::new(
            std::env::temp_dir().join(format!("g10-sched-{dir}-{}", std::process::id())),
        );
        o.poll_ms = 5;
        o
    }

    fn fake_runner(mix: &MixSpec, _a: MixAttempt) -> Result<MixOutcome, Grade10Error> {
        Ok(MixOutcome {
            mix: mix.clone(),
            hash: 0,
            makespan_ns: 1_000_000 * u64::from(mix.machines),
            classes: vec![format!("bottleneck:{}", mix.algorithm)],
            incidents: 0,
            degraded: false,
            attempts: 0,
            mode: String::new(),
        })
    }

    #[test]
    fn ladder_escalates_strict_lenient_partial() {
        assert_eq!(ladder_mode(MixMode::Strict, 0), MixMode::Strict);
        assert_eq!(ladder_mode(MixMode::Strict, 1), MixMode::Lenient);
        assert_eq!(ladder_mode(MixMode::Strict, 2), MixMode::Partial);
        assert_eq!(ladder_mode(MixMode::Lenient, 0), MixMode::Lenient);
        assert_eq!(ladder_mode(MixMode::Lenient, 1), MixMode::Partial);
        assert_eq!(ladder_mode(MixMode::Partial, 0), MixMode::Partial);
    }

    #[test]
    fn mode_names_round_trip() {
        for m in [MixMode::Strict, MixMode::Lenient, MixMode::Partial] {
            assert_eq!(MixMode::from_name(m.name()), Some(m));
        }
        assert_eq!(MixMode::from_name("bogus"), None);
    }

    #[test]
    fn clean_campaign_completes_and_reports() {
        let o = opts("clean");
        let _ = std::fs::remove_dir_all(&o.dir);
        let run = run_campaign(&spec(), &o, fake_runner).expect("run");
        assert!(run.is_clean());
        assert_eq!(run.executed, 2);
        assert_eq!(run.cached, 0);
        assert!(!run.report_text.is_empty());
        assert!(o.dir.join("report.txt").exists());
        assert!(o.dir.join("journal.jsonl").exists());
        assert!(o.dir.join("campaign.json").exists(), "manifest for joiners");
        let _ = std::fs::remove_dir_all(&o.dir);
    }

    #[test]
    fn finishing_a_mix_does_not_wait_for_the_heartbeat() {
        let o = opts("instant");
        let _ = std::fs::remove_dir_all(&o.dir);
        let mut sp = spec();
        sp.seeds = (0..32).collect();
        let started = Instant::now();
        let run = run_campaign(&sp, &o, fake_runner).expect("run");
        let elapsed = started.elapsed();
        assert_eq!(run.executed, 64);
        // A heartbeat that polled its flag every 25 ms held each mix for
        // that long: 1.6 s over 64 mixes whose runner returns at once.
        assert!(elapsed < Duration::from_millis(800), "{elapsed:?}");
        let _ = std::fs::remove_dir_all(&o.dir);
    }

    #[test]
    fn an_idle_claimant_sees_the_last_mix_finish_well_within_a_poll() {
        let mut o = opts("idle");
        o.width = 2;
        o.poll_ms = 5_000;
        let _ = std::fs::remove_dir_all(&o.dir);
        // Two mixes, two claimants: one returns at once and then waits on
        // the other's lease.
        let slow_then_fast = |mix: &MixSpec, a: MixAttempt| {
            if mix.algorithm == "pr" {
                std::thread::sleep(Duration::from_millis(100));
            }
            fake_runner(mix, a)
        };
        let started = Instant::now();
        let run = run_campaign(&spec(), &o, slow_then_fast).expect("run");
        let elapsed = started.elapsed();
        assert_eq!(run.executed, 2);
        // A flat `poll_ms` nap held the campaign for 5 s.
        assert!(elapsed < Duration::from_millis(2_500), "{elapsed:?}");
        let _ = std::fs::remove_dir_all(&o.dir);
    }

    #[test]
    fn mixes_run_grouped_by_input_graph_and_report_in_matrix_order() {
        let o = opts("grouped");
        let _ = std::fs::remove_dir_all(&o.dir);
        let mut sp = spec();
        sp.datasets = vec!["social:500".into(), "rmat:6".into()];
        sp.engines = vec!["giraph".into(), "powergraph".into()];
        sp.seeds = vec![47, 46];
        let calls = Mutex::new(Vec::new());
        let run = run_campaign(&sp, &o, |mix, a| {
            lock(&calls).push(mix.id());
            fake_runner(mix, a)
        })
        .expect("run");
        // Four graphs in ascending (dataset, seed), four mixes each, and
        // within a graph matrix order.
        let graphs = [
            ("rmat:6", 46),
            ("rmat:6", 47),
            ("social:500", 46),
            ("social:500", 47),
        ];
        let cells = [
            ("pr", "giraph"),
            ("pr", "powergraph"),
            ("bfs", "giraph"),
            ("bfs", "powergraph"),
        ];
        let mut grouped = Vec::new();
        for (ds, seed) in graphs {
            for (alg, eng) in cells {
                grouped.push(format!("{alg}-{ds}-{eng}-m2-s{seed}-none"));
            }
        }
        assert_eq!(
            calls.into_inner().unwrap(),
            grouped,
            "claimed by (dataset, seed)"
        );
        let reported: Vec<MixSpec> = run.outcomes.iter().map(|o| o.mix.clone()).collect();
        assert_eq!(reported, sp.expand(), "outcomes stay in matrix order");
        let _ = std::fs::remove_dir_all(&o.dir);
    }

    #[test]
    fn relaunch_without_resume_is_refused() {
        let o = opts("norerun");
        let _ = std::fs::remove_dir_all(&o.dir);
        run_campaign(&spec(), &o, fake_runner).expect("first run");
        let e = run_campaign(&spec(), &o, fake_runner).unwrap_err();
        assert!(e.to_string().contains("resume"), "{e}");
        let _ = std::fs::remove_dir_all(&o.dir);
    }

    #[test]
    fn resume_serves_finished_mixes_from_store() {
        let o = opts("cache");
        let _ = std::fs::remove_dir_all(&o.dir);
        let first = run_campaign(&spec(), &o, fake_runner).expect("first");
        let mut o2 = o.clone();
        o2.resume = true;
        let second = run_campaign(&spec(), &o2, |_mix, _a| {
            panic!("nothing should execute on a fully cached resume")
        })
        .expect("resume");
        assert_eq!(second.cached, 2);
        assert_eq!(second.executed, 0);
        assert_eq!(second.report_text, first.report_text, "byte-identical");
        assert_eq!(second.report_json, first.report_json);
        let _ = std::fs::remove_dir_all(&o.dir);
    }

    #[test]
    fn transient_failure_retries_up_the_ladder_and_succeeds() {
        let o = opts("retry");
        let _ = std::fs::remove_dir_all(&o.dir);
        let run = run_campaign(&spec(), &o, |mix, a| {
            if mix.algorithm == "pr" && a.index == 0 {
                return Err(Grade10Error::MalformedLog("first attempt chaos".into()));
            }
            fake_runner(mix, a)
        })
        .expect("run");
        assert!(run.incidents.is_empty());
        let pr = run
            .outcomes
            .iter()
            .find(|o| o.mix.algorithm == "pr")
            .expect("pr outcome");
        assert_eq!(pr.attempts, 2);
        assert_eq!(pr.mode, "lenient", "retried one rung down the ladder");
        let _ = std::fs::remove_dir_all(&o.dir);
    }

    /// What a scripted runner does on each attempt of its one mix.
    #[derive(Clone, Copy, Debug)]
    enum Script {
        Succeeds,
        FailsFirst,
        FailsAlways,
        PanicsAlways,
        FatalAlways,
    }

    /// Every base mode against every runner script: the `(index, mode)`
    /// rungs the runner is handed, and how the mix ends — an outcome's
    /// `(attempts, mode)` or an incident's `(kind, attempts)`.
    #[test]
    fn each_base_mode_walks_the_ladder_the_same_way_for_each_script() {
        use MixMode::{Lenient, Partial, Strict};
        let ladders = [
            (Strict, [(0, Strict), (1, Lenient), (2, Partial)]),
            (Lenient, [(0, Lenient), (1, Partial), (2, Partial)]),
            (Partial, [(0, Partial), (1, Partial), (2, Partial)]),
        ];
        let scripts = [
            Script::Succeeds,
            Script::FailsFirst,
            Script::FailsAlways,
            Script::PanicsAlways,
            Script::FatalAlways,
        ];
        let mut sp = spec();
        sp.algorithms = vec!["pr".into()];
        for (base, ladder) in ladders {
            for script in scripts {
                let mut o = opts(&format!("table-{}-{script:?}", base.name()));
                o.base_mode = base;
                let _ = std::fs::remove_dir_all(&o.dir);
                let seen = Mutex::new(Vec::new());
                let run = run_campaign(&sp, &o, |mix, a| {
                    lock(&seen).push((a.index, a.mode));
                    match script {
                        Script::Succeeds => fake_runner(mix, a),
                        Script::FailsFirst if a.index > 0 => fake_runner(mix, a),
                        Script::FailsFirst | Script::FailsAlways => {
                            Err(Grade10Error::MalformedLog("scripted damage".into()))
                        }
                        Script::PanicsAlways => panic!("scripted panic"),
                        Script::FatalAlways => {
                            Err(Grade10Error::ModelMismatch("scripted mismatch".into()))
                        }
                    }
                })
                .expect("run");
                let rungs = match script {
                    Script::Succeeds | Script::FatalAlways => 1,
                    Script::FailsFirst => 2,
                    Script::FailsAlways | Script::PanicsAlways => 3,
                };
                let case = format!("{} base, {script:?}", base.name());
                assert_eq!(
                    seen.into_inner().unwrap(),
                    ladder[..rungs].to_vec(),
                    "{case}"
                );
                let ended = match (&run.outcomes[..], &run.incidents[..]) {
                    ([out], []) => format!("outcome {} {}", out.attempts, out.mode),
                    ([], [inc]) => format!("incident {} {}", inc.kind.name(), inc.attempts),
                    _ => panic!("{case}: {run:?}"),
                };
                let want = match script {
                    Script::Succeeds => format!("outcome 1 {}", base.name()),
                    Script::FailsFirst => format!("outcome 2 {}", ladder[1].1.name()),
                    Script::FailsAlways => "incident error 3".to_string(),
                    Script::PanicsAlways => "incident panic 3".to_string(),
                    Script::FatalAlways => "incident error 1".to_string(),
                };
                assert_eq!(ended, want, "{case}");
                let _ = std::fs::remove_dir_all(&o.dir);
            }
        }
    }

    #[test]
    fn permanent_failure_becomes_incident_not_abort() {
        let o = opts("perm");
        let _ = std::fs::remove_dir_all(&o.dir);
        let run = run_campaign(&spec(), &o, |mix, a| {
            if mix.algorithm == "bfs" {
                panic!("bfs always dies");
            }
            fake_runner(mix, a)
        })
        .expect("run");
        assert!(!run.is_clean());
        assert_eq!(run.outcomes.len(), 1, "surviving mix still reported");
        assert_eq!(run.incidents.len(), 1);
        let i = &run.incidents[0];
        assert_eq!(i.stage, "campaign");
        assert_eq!(i.kind, IncidentKind::Panic);
        assert_eq!(i.attempts, 3, "whole ladder exhausted");
        assert!(run.report_text.contains("bfs"), "incident in report");
        let _ = std::fs::remove_dir_all(&o.dir);
    }

    #[test]
    fn fatal_errors_stop_the_ladder_early() {
        let o = opts("fatal");
        let _ = std::fs::remove_dir_all(&o.dir);
        let run = run_campaign(&spec(), &o, |mix, a| {
            if mix.algorithm == "bfs" {
                return Err(Grade10Error::ModelMismatch("wrong model".into()));
            }
            fake_runner(mix, a)
        })
        .expect("run");
        assert_eq!(run.incidents.len(), 1);
        assert_eq!(run.incidents[0].attempts, 1, "no retries for fatal errors");
        let _ = std::fs::remove_dir_all(&o.dir);
    }

    #[test]
    fn reports_are_identical_at_any_width() {
        let o1 = opts("w1");
        let mut o4 = opts("w4");
        o4.width = 4;
        let _ = std::fs::remove_dir_all(&o1.dir);
        let _ = std::fs::remove_dir_all(&o4.dir);
        let a = run_campaign(&spec(), &o1, fake_runner).expect("width 1");
        let b = run_campaign(&spec(), &o4, fake_runner).expect("width 4");
        assert_eq!(a.report_text, b.report_text);
        assert_eq!(a.report_json, b.report_json);
        let _ = std::fs::remove_dir_all(&o1.dir);
        let _ = std::fs::remove_dir_all(&o4.dir);
    }

    #[test]
    fn poisoned_mix_is_quarantined_not_rerun() {
        let o = opts("poison");
        let _ = std::fs::remove_dir_all(&o.dir);
        std::fs::create_dir_all(&o.dir).expect("mkdir");
        let sp = spec();
        let victim = &sp.expand()[0];
        let hash = victim.content_hash(&sp.code_version);
        // Three epochs each died holding a claim on the first mix: two
        // past launch boundaries plus the live claim our resume abandons.
        {
            let path = o.dir.join("journal.jsonl");
            let mut j = Journal::create(&path, &sp.name).expect("create");
            for _ in 0..2 {
                j.record_claimed(&victim.id(), hash, "dead", 1, 2)
                    .expect("claim");
                j.record_launch("next").expect("launch");
            }
            j.record_claimed(&victim.id(), hash, "dead", 1, 2)
                .expect("claim");
        }
        let mut o2 = o.clone();
        o2.resume = true;
        let run = run_campaign(&sp, &o2, |mix, a| {
            assert_ne!(mix.id(), victim.id(), "poisoned mix must not run");
            fake_runner(mix, a)
        })
        .expect("resume");
        assert_eq!(run.incidents.len(), 1);
        assert_eq!(run.incidents[0].kind, IncidentKind::Poisoned);
        assert_eq!(run.incidents[0].attempts, 3, "three claimants lost");
        assert_eq!(run.outcomes.len(), 1, "healthy mix still characterized");
        assert!(run.report_text.contains("poisoned"), "{}", run.report_text);
        assert!(!run.is_clean());
        let _ = std::fs::remove_dir_all(&o.dir);
    }

    #[test]
    fn joining_a_drained_campaign_reassembles_the_same_report() {
        let o = opts("join");
        let _ = std::fs::remove_dir_all(&o.dir);
        let first = run_campaign(&spec(), &o, fake_runner).expect("lead");
        let mut oj = o.clone();
        oj.join = true;
        let joined = run_campaign(&spec(), &oj, |_mix, _a| {
            panic!("nothing left for a late joiner to run")
        })
        .expect("join");
        assert_eq!(joined.executed, 0);
        assert_eq!(joined.cached, 2);
        assert_eq!(joined.report_text, first.report_text, "byte-identical");
        let _ = std::fs::remove_dir_all(&o.dir);
    }

    #[test]
    fn status_reflects_journal_and_store() {
        let o = opts("status");
        let _ = std::fs::remove_dir_all(&o.dir);
        run_campaign(&spec(), &o, |mix, a| {
            if mix.algorithm == "bfs" {
                return Err(Grade10Error::ModelMismatch("wrong model".into()));
            }
            fake_runner(mix, a)
        })
        .expect("run");
        let st = campaign_status(&o.dir).expect("status");
        assert_eq!(st.campaign, "unit");
        assert_eq!(st.total, 2);
        assert_eq!(st.finished, 1);
        assert_eq!(st.failed, 1);
        assert_eq!(st.pending, 0);
        assert_eq!(st.claimed + st.stale + st.poisoned, 0);
        assert!(st.report_written);
        let _ = std::fs::remove_dir_all(&o.dir);
    }

    #[test]
    fn manifest_round_trips() {
        let o = opts("manifest");
        let _ = std::fs::remove_dir_all(&o.dir);
        run_campaign(&spec(), &o, fake_runner).expect("run");
        let (loaded, base, lease) = load_manifest(&o.dir).expect("manifest");
        assert_eq!(loaded, spec());
        assert_eq!(base, MixMode::Strict);
        assert_eq!(lease, 30_000);
        let _ = std::fs::remove_dir_all(&o.dir);
    }

    /// The launch record's decoder under damage: every truncation and 300
    /// single-bit flips of a real `campaign.json` load or fail with a
    /// classified error, never a panic; a zero lease and a base mode that
    /// is not a mode name are refused.
    #[test]
    fn damaged_manifests_load_or_fail_cleanly() {
        use rand::{Rng, SeedableRng};
        let o = opts("manifest-fuzz");
        let _ = std::fs::remove_dir_all(&o.dir);
        run_campaign(&spec(), &o, fake_runner).expect("run");
        let path = o.dir.join("campaign.json");
        let good = std::fs::read(&path).expect("manifest");
        let loads = |bytes: &[u8]| {
            std::fs::write(&path, bytes).expect("write manifest");
            match load_manifest(&o.dir) {
                Ok(_) => true,
                Err(Grade10Error::Serialization(_) | Grade10Error::Io(_)) => false,
                Err(e) => panic!("unclassified manifest error: {e:?}"),
            }
        };
        for cut in 0..good.len() {
            assert!(!loads(&good[..cut]), "a {cut}-byte prefix loaded");
        }
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x6a5);
        for _ in 0..300 {
            let mut bytes = good.clone();
            bytes[rng.gen_range(0..good.len())] ^= 1 << rng.gen_range(0..8);
            loads(&bytes);
        }
        let text = String::from_utf8(good).expect("utf-8 manifest");
        let damage = [
            ("\"lease_ms\": 30000", "\"lease_ms\": 0", "lease_ms"),
            ("\"base_mode\": \"strict\"", "\"base_mode\": 5", "base_mode"),
        ];
        for (field, damaged, named) in damage {
            let bad = text.replace(field, damaged);
            assert_ne!(bad, text, "the manifest records {named}");
            std::fs::write(&path, bad).expect("write manifest");
            let err = load_manifest(&o.dir).expect_err("a damaged field is refused");
            assert!(
                matches!(&err, Grade10Error::Serialization(m) if m.contains(named)),
                "{err:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&o.dir);
    }
}
