//! The campaign durability envelope under chaos: interrupted launches at
//! several journal positions and pool widths must resume to a report
//! byte-identical to an uninterrupted run; damaged journal records must
//! be quarantined, never fatal; and content hashing must invalidate
//! exactly the mixes whose spec (or code version) changed.
//!
//! These tests drive `run_campaign` with deterministic synthetic runners
//! so the chaos schedule is exact. The real characterization pipeline
//! behind the `grade10 campaign` subcommand is exercised end-to-end
//! (including a SIGKILL) in `tests/campaign_cli.rs`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use grade10::core::campaign::{
    campaign_status, run_campaign, CampaignOptions, CampaignRun, CampaignSpec, Journal, MixAttempt,
    MixOutcome, MixSpec,
};
use grade10::core::error::Grade10Error;
use grade10::core::supervise::IncidentKind;

/// A 6-mix matrix: 3 algorithms × 2 machine counts.
fn spec() -> CampaignSpec {
    CampaignSpec {
        name: "chaos".into(),
        code_version: "t1".into(),
        algorithms: vec!["pr".into(), "bfs".into(), "wcc".into()],
        datasets: vec!["rmat:6".into()],
        engines: vec!["giraph".into()],
        machines: vec![2, 4],
        seeds: vec![46],
        faults: vec!["none".into()],
    }
}

fn opts(name: &str) -> CampaignOptions {
    let dir = std::env::temp_dir().join(format!("g10-campaign-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    CampaignOptions::new(dir)
}

/// Deterministic synthetic characterization: makespan and issue classes
/// are pure functions of the mix, so any schedule yields the same report.
fn fake_runner(mix: &MixSpec, _a: MixAttempt) -> Result<MixOutcome, Grade10Error> {
    Ok(MixOutcome {
        mix: mix.clone(),
        hash: 0,
        makespan_ns: 500_000_000 * u64::from(mix.machines) + mix.algorithm.len() as u64,
        classes: vec![format!("bottleneck:{}", mix.algorithm)],
        incidents: 0,
        degraded: false,
        attempts: 0,
        mode: String::new(),
    })
}

fn journal_path(o: &CampaignOptions) -> PathBuf {
    o.dir.join("journal.jsonl")
}

/// One uninterrupted reference run; its report is the ground truth every
/// chaos schedule must reproduce. Callers run concurrently, so each
/// baseline gets its own directory.
fn baseline() -> CampaignRun {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let o = opts(&format!("baseline{}", SEQ.fetch_add(1, Ordering::SeqCst)));
    let run = run_campaign(&spec(), &o, fake_runner).expect("baseline run");
    assert!(run.is_clean());
    let _ = std::fs::remove_dir_all(&o.dir);
    run
}

#[test]
fn chaos_resume_matrix_reproduces_the_uninterrupted_report() {
    let reference = baseline();
    // Kill positions: before the first mix record, mid-campaign, and
    // "all records written, report not yet" (simulated below by removing
    // the report files from a complete run — the on-disk state a SIGKILL
    // between the last fsync and the report write leaves behind).
    for width in [1usize, 2, 4] {
        for stop_after in [0usize, 2] {
            let name = format!("kill{stop_after}w{width}");
            let mut o = opts(&name);
            o.width = width;
            o.stop_after = Some(stop_after);
            let first = run_campaign(&spec(), &o, fake_runner).expect("interrupted launch");
            assert!(first.interrupted, "{name}: launch reports interruption");
            assert!(first.report_text.is_empty(), "{name}: no report rendered");
            assert!(
                !o.dir.join("report.txt").exists(),
                "{name}: interrupted launch writes no report file"
            );
            assert!(journal_path(&o).exists(), "{name}: journal survives");

            o.stop_after = None;
            o.resume = true;
            let resumed = run_campaign(&spec(), &o, fake_runner).expect("resume");
            assert!(!resumed.interrupted);
            assert_eq!(
                resumed.cached + resumed.executed,
                6,
                "{name}: whole matrix covered"
            );
            assert_eq!(
                resumed.cached, stop_after,
                "{name}: every mix finished before the kill is served from the store"
            );
            assert_eq!(
                resumed.report_text, reference.report_text,
                "{name}: text report byte-identical to uninterrupted run"
            );
            assert_eq!(
                resumed.report_json, reference.report_json,
                "{name}: json report byte-identical to uninterrupted run"
            );
            let _ = std::fs::remove_dir_all(&o.dir);
        }
    }
}

#[test]
fn killed_after_last_record_before_report_resumes_from_cache_alone() {
    let reference = baseline();
    let mut o = opts("prereport");
    let complete = run_campaign(&spec(), &o, fake_runner).expect("complete run");
    assert!(complete.is_clean());
    // Simulate dying between the final fsync'd journal record and the
    // report write: every outcome is durable, the report files are not.
    std::fs::remove_file(o.dir.join("report.txt")).expect("drop report.txt");
    std::fs::remove_file(o.dir.join("report.json")).expect("drop report.json");
    o.resume = true;
    let resumed = run_campaign(&spec(), &o, |_mix, _a| {
        panic!("resume after a complete journal must not recompute any mix")
    })
    .expect("resume");
    assert_eq!(resumed.cached, 6);
    assert_eq!(resumed.executed, 0);
    assert_eq!(resumed.report_text, reference.report_text);
    assert_eq!(resumed.report_json, reference.report_json);
    assert!(o.dir.join("report.txt").exists(), "report rewritten");
    let _ = std::fs::remove_dir_all(&o.dir);
}

#[test]
fn damaged_journal_records_are_quarantined_and_the_report_is_unaffected() {
    use std::io::Write as _;
    let reference = baseline();
    let mut o = opts("damage");
    o.stop_after = Some(3);
    run_campaign(&spec(), &o, fake_runner).expect("interrupted launch");
    // Corrupt the journal the three ways a dying machine can: flip a byte
    // inside a finished record (checksum mismatch), append a line of
    // garbage, and tear the final record mid-write (no newline).
    let path = journal_path(&o);
    let mut bytes = std::fs::read(&path).expect("read journal");
    let pos = bytes
        .windows(10)
        .position(|w| w == b"\"finished\"")
        .expect("a finished record to damage");
    bytes[pos + 1] = b'F';
    std::fs::write(&path, &bytes).expect("rewrite journal");
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("open journal");
        f.write_all(b"not json at all\n").expect("garbage line");
        f.write_all(b"{\"record\":\"started\",\"mix\":\"to")
            .expect("torn tail");
    }
    o.stop_after = None;
    o.resume = true;
    let resumed = run_campaign(&spec(), &o, fake_runner).expect("resume over damage");
    assert_eq!(
        resumed.quarantined_journal, 3,
        "checksum mismatch + garbage line + torn tail all quarantined"
    );
    assert!(!resumed.interrupted);
    assert_eq!(resumed.cached + resumed.executed, 6);
    assert_eq!(
        resumed.report_text, reference.report_text,
        "damage costs recomputation, never correctness"
    );
    let _ = std::fs::remove_dir_all(&o.dir);
}

#[test]
fn editing_one_axis_value_reruns_exactly_the_affected_mixes() {
    let mut o = opts("invalidate");
    let first = run_campaign(&spec(), &o, fake_runner).expect("first run");
    assert_eq!(first.executed, 6);
    // Swap one algorithm: the two wcc mixes (2 machine counts) change
    // identity, the four pr/bfs mixes keep their content hashes.
    let mut edited = spec();
    edited.algorithms = vec!["pr".into(), "bfs".into(), "cdlp".into()];
    o.resume = true;
    let second = run_campaign(&edited, &o, fake_runner).expect("resume with edited spec");
    assert_eq!(second.executed, 2, "only the replaced axis value re-runs");
    assert_eq!(second.cached, 4, "unchanged mixes served from the store");
    let _ = std::fs::remove_dir_all(&o.dir);
}

#[test]
fn bumping_the_code_version_invalidates_every_stored_outcome() {
    let mut o = opts("version");
    run_campaign(&spec(), &o, fake_runner).expect("first run");
    let mut bumped = spec();
    bumped.code_version = "t2".into();
    o.resume = true;
    let second = run_campaign(&bumped, &o, fake_runner).expect("resume with bumped version");
    assert_eq!(
        second.executed, 6,
        "no stale outcome survives a version bump"
    );
    assert_eq!(second.cached, 0);
    let _ = std::fs::remove_dir_all(&o.dir);
}

fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_millis() as u64
}

/// A joiner honors a live lease held by a worker it has never heard of:
/// it drains the rest of the matrix, waits out the stranger's lease, and
/// only reclaims the mix once the deadline passes — then finishes the
/// campaign to the reference report.
#[test]
fn joiner_waits_out_a_live_lease_then_reclaims_the_abandoned_mix() {
    let reference = baseline();
    let mut o = opts("ghostlease");
    std::fs::create_dir_all(&o.dir).unwrap();
    let mixes = spec().expand();
    let ghost_mix = &mixes[0];
    let ghost_hash = ghost_mix.content_hash(&spec().code_version);
    {
        let mut journal = Journal::create(&journal_path(&o), "chaos").expect("create");
        // A ghost worker claimed the first mix and died without a terminal
        // record; its lease has 600 ms left to run.
        journal
            .record_claimed(
                &ghost_mix.id(),
                ghost_hash,
                "ghost",
                now_ms(),
                now_ms() + 600,
            )
            .expect("ghost claim");
    }
    o.join = true;
    o.poll_ms = 5;
    o.worker = "joiner".into();
    let t0 = std::time::Instant::now();
    let run = run_campaign(&spec(), &o, fake_runner).expect("join over a live lease");
    assert!(
        t0.elapsed() >= Duration::from_millis(300),
        "the joiner must not claim over a live lease"
    );
    assert!(run.is_clean());
    assert_eq!(
        run.executed, 6,
        "the ghost's mix re-ran after its lease expired"
    );
    assert_eq!(run.report_text, reference.report_text);
    assert_eq!(run.report_json, reference.report_json);
    let _ = std::fs::remove_dir_all(&o.dir);
}

/// Lease deadlines are absolute wall-clock stamps from the *claimant's*
/// clock. A claimant whose clock runs behind ours writes a deadline that
/// is already past on our clock — here, an extreme offset: a claim
/// stamped near the epoch. A worker that trusted wall expiry alone would
/// declare the holder dead instantly and double-run the mix. The fix
/// re-anchors every first-seen lease to the observer's monotonic clock
/// and grants a skew tolerance of at least a third of the lease, so the
/// reclaim must wait out that locally-measured window (in which a live
/// holder would have heartbeat) before stealing.
#[test]
fn wall_clock_skew_does_not_let_a_worker_steal_a_fresh_lease() {
    let reference = baseline();
    let mut o = opts("skewlease");
    std::fs::create_dir_all(&o.dir).unwrap();
    let mixes = spec().expand();
    let victim = &mixes[0];
    let victim_hash = victim.content_hash(&spec().code_version);
    {
        let mut journal = Journal::create(&journal_path(&o), "chaos").expect("create");
        // Claimed at 1 ms, deadline 2 ms after the Unix epoch: decades
        // expired by our wall clock the instant it is observed.
        journal
            .record_claimed(&victim.id(), victim_hash, "skewed", 1, 2)
            .expect("skewed claim");
    }
    o.join = true; // join honors foreign claims; resume would abandon them
    o.poll_ms = 5;
    o.lease_ms = 600; // skew tolerance = lease/3 = 200 ms
    o.worker = "observer".into();
    let t0 = std::time::Instant::now();
    let run = run_campaign(&spec(), &o, fake_runner).expect("join across clock skew");
    assert!(
        t0.elapsed() >= Duration::from_millis(200),
        "a wall-expired lease must still be honored for the locally-measured \
         skew tolerance before it is reclaimed (elapsed {:?})",
        t0.elapsed()
    );
    assert!(run.is_clean());
    assert_eq!(
        run.executed, 6,
        "the skewed claimant's mix ran exactly once, after the tolerance lapsed"
    );
    assert_eq!(run.report_text, reference.report_text);
    assert_eq!(run.report_json, reference.report_json);
    let _ = std::fs::remove_dir_all(&o.dir);
}

/// A leader and an in-process joiner drain one matrix cooperatively:
/// every mix runs exactly once across the two, and both assemble the
/// same byte-identical report as a solo run.
#[test]
fn leader_and_joiner_share_the_matrix_without_double_execution() {
    let reference = baseline();
    let mut leader_opts = opts("shared");
    leader_opts.worker = "alpha".into();
    leader_opts.poll_ms = 5;
    let mut joiner_opts = CampaignOptions::new(leader_opts.dir.clone());
    joiner_opts.join = true;
    joiner_opts.worker = "beta".into();
    joiner_opts.poll_ms = 5;

    let slow_runner = |mix: &MixSpec, a: MixAttempt| {
        std::thread::sleep(Duration::from_millis(15));
        fake_runner(mix, a)
    };
    let (leader, joiner) = std::thread::scope(|s| {
        let lead = s.spawn(|| run_campaign(&spec(), &leader_opts, slow_runner));
        let join = s.spawn(|| run_campaign(&spec(), &joiner_opts, slow_runner));
        (lead.join().unwrap(), join.join().unwrap())
    });
    let leader = leader.expect("leader run");
    let joiner = joiner.expect("joiner run");
    assert!(leader.is_clean() && joiner.is_clean());
    assert_eq!(
        leader.executed + joiner.executed,
        6,
        "every mix ran exactly once across the fleet"
    );
    for run in [&leader, &joiner] {
        assert_eq!(run.report_text, reference.report_text);
        assert_eq!(run.report_json, reference.report_json);
    }
    let _ = std::fs::remove_dir_all(&leader_opts.dir);
}

/// A mix that killed three consecutive claimants is quarantined as a
/// poisoned-mix incident instead of being handed to a fourth victim, the
/// rest of the matrix is characterized normally, and `campaign_status`
/// accounts for it.
#[test]
fn a_mix_that_kills_three_claimants_is_quarantined_not_rerun() {
    let mut o = opts("poison");
    std::fs::create_dir_all(&o.dir).unwrap();
    let mixes = spec().expand();
    let victim = &mixes[0];
    let victim_hash = victim.content_hash(&spec().code_version);
    {
        // Two claim-then-crash epochs, plus a claim left dangling: the
        // resume below opens epoch four, bringing the death count to 3.
        let mut journal = Journal::create(&journal_path(&o), "chaos").expect("create");
        journal
            .record_claimed(&victim.id(), victim_hash, "w1", now_ms(), now_ms() + 60_000)
            .unwrap();
        journal.record_launch("w2").unwrap();
        journal
            .record_claimed(&victim.id(), victim_hash, "w2", now_ms(), now_ms() + 60_000)
            .unwrap();
        journal.record_launch("w3").unwrap();
        journal
            .record_claimed(&victim.id(), victim_hash, "w3", now_ms(), now_ms() + 60_000)
            .unwrap();
    }
    o.resume = true;
    let run = run_campaign(&spec(), &o, |mix, a| {
        assert_ne!(
            mix.id(),
            mixes[0].id(),
            "a poisoned mix must never reach a runner again"
        );
        fake_runner(mix, a)
    })
    .expect("campaign survives a poisoned mix");
    assert!(
        !run.is_clean(),
        "a quarantined mix makes the campaign partial"
    );
    assert_eq!(
        run.outcomes.len(),
        5,
        "the other five mixes are characterized"
    );
    assert_eq!(run.incidents.len(), 1);
    let incident = &run.incidents[0];
    assert_eq!(incident.kind, IncidentKind::Poisoned);
    assert_eq!(
        incident.attempts, 3,
        "the incident counts the dead claimants"
    );
    assert!(
        run.report_text.contains("poisoned"),
        "the ranked report names the quarantine:\n{}",
        run.report_text
    );

    let status = campaign_status(&o.dir).expect("status after the run");
    assert_eq!(status.total, 6);
    assert_eq!(status.poisoned, 1);
    assert_eq!(status.finished, 5);
    assert_eq!(status.pending, 0);
    assert!(status.report_written);
    let _ = std::fs::remove_dir_all(&o.dir);
}

#[test]
fn transient_failure_is_retried_and_recovers() {
    let o = opts("transient");
    let attempts_seen = AtomicUsize::new(0);
    let run = run_campaign(&spec(), &o, |mix, a| {
        if mix.algorithm == "bfs" && mix.machines == 2 && a.index == 0 {
            attempts_seen.fetch_add(1, Ordering::SeqCst);
            panic!("simulated transient crash on first attempt");
        }
        fake_runner(mix, a)
    })
    .expect("run");
    assert_eq!(
        attempts_seen.load(Ordering::SeqCst),
        1,
        "failed exactly once"
    );
    assert!(run.incidents.is_empty(), "retry absorbed the crash");
    let recovered = run
        .outcomes
        .iter()
        .find(|o| o.mix.algorithm == "bfs" && o.mix.machines == 2)
        .expect("recovered outcome");
    assert_eq!(recovered.attempts, 2);
    assert_eq!(recovered.mode, "lenient", "ladder stepped strict → lenient");
    assert!(run.is_clean(), "a recovered mix still counts as clean");
    let _ = std::fs::remove_dir_all(&o.dir);
}

#[test]
fn permanent_failure_is_an_incident_and_the_report_covers_survivors() {
    let o = opts("permanent");
    let run = run_campaign(&spec(), &o, |mix, a| {
        if mix.algorithm == "wcc" {
            return Err(Grade10Error::MalformedLog("telemetry always rotten".into()));
        }
        fake_runner(mix, a)
    })
    .expect("campaign survives a permanently failing mix");
    assert!(!run.is_clean(), "incidents make the campaign exit partial");
    assert_eq!(run.incidents.len(), 2, "one incident per dead mix");
    assert_eq!(run.outcomes.len(), 4, "survivors still characterized");
    for i in &run.incidents {
        assert_eq!(i.stage, "campaign");
        assert_eq!(i.attempts, 3, "whole retry ladder exhausted first");
    }
    assert!(
        run.report_text.contains("telemetry always rotten"),
        "incident detail reaches the report:\n{}",
        run.report_text
    );
    assert!(
        run.report_text.contains("4 characterized, 2 failed"),
        "summary counts both populations:\n{}",
        run.report_text
    );
    let _ = std::fs::remove_dir_all(&o.dir);
}
