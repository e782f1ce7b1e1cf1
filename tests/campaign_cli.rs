//! The `grade10 campaign` subcommand end to end, binary included: a
//! SIGKILL mid-campaign must leave a resumable directory, `--resume` must
//! finish the matrix and produce a report byte-identical to an
//! uninterrupted run, and the process exit-code taxonomy (0 clean /
//! 2 partial / 1 fatal) must hold across the subcommand dispatch.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn grade10() -> Command {
    Command::new(env!("CARGO_BIN_EXE_grade10"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("g10-cli-{name}-{}", std::process::id()))
}

/// A 4-mix screening spec small enough for CI: 2 algorithms × 2 seeds.
const SPEC: &str = r#"
name = "cli-smoke"
algorithms = ["pr", "bfs"]
datasets = ["rmat:6"]
machines = [2]
seeds = [46, 47]
"#;

/// A 16-mix spec over four input graphs: 2 datasets × 2 seeds, each run by
/// 2 algorithms on 2 engines.
const GRAPHS_SPEC: &str = r#"
name = "graph-reuse"
algorithms = ["pr", "bfs"]
datasets = ["rmat:6", "social:500"]
engines = ["giraph", "powergraph"]
machines = [2]
seeds = [46, 47]
"#;

/// Diffs `actual` against the checked-in golden, or re-blesses it when
/// `UPDATE_GOLDENS=1` is set.
fn check_golden(name: &str, actual: &[u8]) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name);
    if std::env::var("UPDATE_GOLDENS").ok().as_deref() == Some("1") {
        std::fs::write(&path, actual).expect("bless golden");
        return;
    }
    let expected = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); bless it with UPDATE_GOLDENS=1"));
    assert!(
        expected == actual,
        "campaign report drifted from golden {name}\n--- expected ---\n{}\n--- actual ---\n{}",
        String::from_utf8_lossy(&expected),
        String::from_utf8_lossy(actual)
    );
}

fn write_spec(dir: &Path) -> PathBuf {
    std::fs::create_dir_all(dir).expect("spec dir");
    let path = dir.join("spec.toml");
    std::fs::write(&path, SPEC).expect("write spec");
    path
}

fn run_campaign(spec: &Path, dir: &Path, resume: bool) -> std::process::Output {
    let mut cmd = grade10();
    cmd.arg("campaign")
        .arg("--spec")
        .arg(spec)
        .arg("--dir")
        .arg(dir)
        .arg("--threads")
        .arg("2");
    if resume {
        cmd.arg("--resume");
    }
    cmd.output().expect("run grade10 campaign")
}

#[test]
fn sigkill_mid_campaign_resumes_to_an_identical_report() {
    let root = tmp("kill");
    let _ = std::fs::remove_dir_all(&root);
    let spec = write_spec(&root);

    // Ground truth: the same campaign, never interrupted.
    let clean_dir = root.join("clean");
    let out = run_campaign(&spec, &clean_dir, false);
    assert!(
        out.status.success(),
        "uninterrupted campaign: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let want_txt = std::fs::read(clean_dir.join("report.txt")).expect("clean report.txt");
    let want_json = std::fs::read(clean_dir.join("report.json")).expect("clean report.json");

    // Chaos run: SIGKILL the process as soon as the journal holds a
    // durable completion marker, so the kill lands mid-campaign.
    let kill_dir = root.join("killed");
    let mut child = grade10()
        .arg("campaign")
        .arg("--spec")
        .arg(&spec)
        .arg("--dir")
        .arg(&kill_dir)
        .arg("--threads")
        .arg("1")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn campaign");
    let journal = kill_dir.join("journal.jsonl");
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut exited_first = false;
    loop {
        if let Ok(bytes) = std::fs::read(&journal) {
            if bytes.windows(10).any(|w| w == b"\"finished\"") {
                break;
            }
        }
        if child.try_wait().expect("try_wait").is_some() {
            // The campaign beat the poller; the resume below then only
            // re-renders the report, which must still be byte-identical.
            exited_first = true;
            break;
        }
        assert!(Instant::now() < deadline, "no finished record within 120s");
        std::thread::sleep(Duration::from_millis(5));
    }
    if !exited_first {
        child.kill().expect("SIGKILL campaign");
    }
    let _ = child.wait();
    assert!(journal.exists(), "journal survives the kill");

    // Relaunching without --resume must refuse the live journal (exit 1).
    let refused = run_campaign(&spec, &kill_dir, false);
    assert_eq!(
        refused.status.code(),
        Some(1),
        "existing journal without --resume is fatal: {}",
        String::from_utf8_lossy(&refused.stderr)
    );

    // --resume finishes the matrix and reproduces the reference report.
    let resumed = run_campaign(&spec, &kill_dir, true);
    assert!(
        resumed.status.success(),
        "resume: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let got_txt = std::fs::read(kill_dir.join("report.txt")).expect("resumed report.txt");
    let got_json = std::fs::read(kill_dir.join("report.json")).expect("resumed report.json");
    assert_eq!(
        got_txt, want_txt,
        "text report byte-identical after kill+resume"
    );
    assert_eq!(
        got_json, want_json,
        "json report byte-identical after kill+resume"
    );

    // The resumed stderr accounting shows the cache actually served mixes
    // (unless the process won the race and finished everything itself).
    if !exited_first {
        let stderr = String::from_utf8_lossy(&resumed.stderr);
        assert!(
            stderr.contains("cached"),
            "resume reports cache accounting: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

fn count_finished(journal: &Path) -> usize {
    std::fs::read(journal)
        .map(|b| b.windows(10).filter(|w| w == b"\"finished\"").count())
        .unwrap_or(0)
}

/// Waits until the journal holds more than `above` finished markers, or
/// every process in `fleet` has exited.
fn wait_for_finished(journal: &Path, above: usize, fleet: &mut [std::process::Child]) -> bool {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if count_finished(journal) > above {
            return true;
        }
        if fleet
            .iter_mut()
            .all(|c| c.try_wait().expect("try_wait").is_some())
        {
            return false;
        }
        assert!(Instant::now() < deadline, "no progress within 120s");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The kill matrix from the crash-tolerance issue, end to end with real
/// processes: a single-worker reference, a `--workers 3` fleet, and a
/// leader + two `--join` peers where both peers are SIGKILLed mid-run —
/// every variant must converge to the byte-identical ranked report, and
/// `--status` must stay safe to run while workers are live.
#[test]
fn multi_worker_fleet_survives_sigkills_and_reproduces_the_reference_report() {
    let root = tmp("fleet");
    let _ = std::fs::remove_dir_all(&root);
    let spec = write_spec(&root);

    // Width 1, never interrupted: the ground truth.
    let reference_dir = root.join("w1");
    let out = run_campaign(&spec, &reference_dir, false);
    assert!(
        out.status.success(),
        "single-worker reference: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let want_txt = std::fs::read(reference_dir.join("report.txt")).expect("reference report.txt");
    let want_json =
        std::fs::read(reference_dir.join("report.json")).expect("reference report.json");

    // Width 3 via --workers, unkilled: the leader spawns two peers and
    // waits for them.
    let spawn_dir = root.join("w3");
    let out = grade10()
        .args(["campaign", "--spec"])
        .arg(&spec)
        .arg("--dir")
        .arg(&spawn_dir)
        .args(["--threads", "1", "--workers", "3"])
        .output()
        .expect("run --workers 3");
    assert!(
        out.status.success(),
        "--workers 3: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for peer in ["worker-2.log", "worker-3.log"] {
        assert!(spawn_dir.join(peer).exists(), "{peer} captured");
    }
    assert_eq!(
        std::fs::read(spawn_dir.join("report.txt")).expect("w3 report"),
        want_txt,
        "3-worker report byte-identical to single-worker"
    );

    // Width 3 via explicit --join peers, with a deterministic kill
    // schedule: SIGKILL one peer after the first finished marker, the
    // second peer after the next. Short leases keep reclaim fast; the
    // peers read the leader's from campaign.json.
    let kill_dir = root.join("killed");
    let mut leader = grade10()
        .args(["campaign", "--spec"])
        .arg(&spec)
        .arg("--dir")
        .arg(&kill_dir)
        .args(["--threads", "1", "--worker", "lead", "--lease-ms", "800"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn leader");
    let mut peers: Vec<std::process::Child> = (0..2)
        .map(|i| {
            grade10()
                .args(["campaign", "--join"])
                .arg(&kill_dir)
                .args(["--threads", "1", "--worker", &format!("peer{i}")])
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn peer")
        })
        .collect();
    let journal = kill_dir.join("journal.jsonl");

    let mut fleet_alive = true;
    for victim in 0..2usize {
        if !wait_for_finished(&journal, victim, &mut peers) {
            // The fleet drained the 4-mix matrix before the schedule got
            // this far; the determinism assertions below still bind.
            fleet_alive = false;
            break;
        }
        let _ = peers[victim].kill();
        let _ = peers[victim].wait();
    }

    // --status is read-only and safe while workers are live (or just
    // finished — either way it must not disturb the campaign).
    let status = grade10()
        .args(["campaign", "--status"])
        .arg(&kill_dir)
        .output()
        .expect("run --status");
    assert!(
        status.status.success(),
        "--status during the fleet: {}",
        String::from_utf8_lossy(&status.stderr)
    );
    let status_out = String::from_utf8_lossy(&status.stdout);
    assert!(
        status_out.contains("mixes done"),
        "--status prints progress: {status_out}"
    );

    let leader_status = leader.wait().expect("leader exit");
    assert!(
        leader_status.success(),
        "the surviving leader drains the matrix alone (fleet alive: {fleet_alive})"
    );
    for mut p in peers {
        let _ = p.wait();
    }

    // A final resume is a no-op epoch that re-renders the same report.
    let resumed = run_campaign(&spec, &kill_dir, true);
    assert!(
        resumed.status.success(),
        "post-kill resume: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        std::fs::read(kill_dir.join("report.txt")).expect("killed report.txt"),
        want_txt,
        "kill schedule never changes the ranked report"
    );
    assert_eq!(
        std::fs::read(kill_dir.join("report.json")).expect("killed report.json"),
        want_json,
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Two real processes finishing the same mix hash leave exactly one
/// valid store artifact. The race is staged by SIGSTOPping the leader
/// mid-mix so its lease expires, letting a joiner reclaim and finish the
/// mix, then SIGCONTing the leader to complete its now-stale attempt —
/// both write the artifact, writes are pid-qualified and atomic, and
/// replay resolves the double completion idempotently.
#[test]
fn concurrent_finish_of_one_mix_leaves_a_single_valid_artifact() {
    let root = tmp("race");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("root");
    let spec = root.join("spec.toml");
    std::fs::write(
        &spec,
        "name = \"race\"\nalgorithms = [\"pr\"]\ndatasets = [\"rmat:6\"]\nmachines = [2]\nseeds = [46]\n",
    )
    .expect("write spec");
    let dir = root.join("run");

    let mut leader = grade10()
        .args(["campaign", "--spec"])
        .arg(&spec)
        .arg("--dir")
        .arg(&dir)
        .args(["--threads", "1", "--worker", "lead", "--lease-ms", "300"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn leader");

    // Freeze the leader the moment it claims the mix (best effort: if the
    // mix outruns the poller, the joiner is served from the store and the
    // artifact assertions below still bind).
    let journal = dir.join("journal.jsonl");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let bytes = std::fs::read(&journal).unwrap_or_default();
        if bytes.windows(9).any(|w| w == b"\"claimed\"") {
            break;
        }
        if leader.try_wait().expect("try_wait").is_some() {
            break;
        }
        assert!(Instant::now() < deadline, "no claim within 120s");
        std::thread::sleep(Duration::from_millis(2));
    }
    let frozen = leader.try_wait().expect("try_wait").is_none();
    if frozen {
        let stop = Command::new("kill")
            .args(["-STOP", &leader.id().to_string()])
            .status()
            .expect("SIGSTOP leader");
        assert!(stop.success(), "SIGSTOP delivered");
    }

    // The joiner leases for the leader's 300 ms, read from campaign.json.
    let joiner = grade10()
        .args(["campaign", "--join"])
        .arg(&dir)
        .args(["--threads", "1", "--worker", "peer"])
        .output()
        .expect("run joiner");
    assert!(
        joiner.status.success(),
        "joiner reclaims the expired lease and finishes: {}",
        String::from_utf8_lossy(&joiner.stderr)
    );

    if frozen {
        let cont = Command::new("kill")
            .args(["-CONT", &leader.id().to_string()])
            .status()
            .expect("SIGCONT leader");
        assert!(cont.success(), "SIGCONT delivered");
    }
    let leader_status = leader.wait().expect("leader exit");
    assert!(
        leader_status.success(),
        "the thawed leader completes its stale attempt idempotently"
    );

    // Exactly one artifact, fully written: no torn temp files, nothing
    // quarantined by the hash check, valid JSON content.
    let store = dir.join("store");
    let entries: Vec<String> = std::fs::read_dir(&store)
        .expect("store dir")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    let artifacts: Vec<&String> = entries.iter().filter(|n| n.ends_with(".json")).collect();
    assert_eq!(artifacts.len(), 1, "one mix, one artifact: {entries:?}");
    assert!(
        entries.iter().all(|n| !n.ends_with(".tmp")),
        "no torn temp files survive: {entries:?}"
    );
    assert!(
        entries.iter().all(|n| !n.ends_with(".quarantined")),
        "neither writer corrupted the artifact: {entries:?}"
    );
    let body = std::fs::read_to_string(store.join(artifacts[0])).expect("read artifact");
    assert!(
        body.starts_with('{') && body.trim_end().ends_with('}') && body.contains("makespan"),
        "artifact is one complete JSON outcome"
    );
    assert!(dir.join("report.txt").exists(), "report rendered");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn exit_code_taxonomy_holds_across_subcommand_dispatch() {
    let root = tmp("exits");
    let _ = std::fs::remove_dir_all(&root);
    let spec = write_spec(&root);

    // 0: clean campaign.
    let clean = run_campaign(&spec, &root.join("ok"), false);
    assert_eq!(
        clean.status.code(),
        Some(0),
        "clean campaign exits 0: {}",
        String::from_utf8_lossy(&clean.stderr)
    );
    // ... and a clean resume of it stays 0.
    let resumed = run_campaign(&spec, &root.join("ok"), true);
    assert_eq!(resumed.status.code(), Some(0));

    // 2: a supervised run with incidents still exits partial after the
    // subcommand dispatch gained the campaign arm.
    let partial = grade10()
        .args([
            "demo",
            "--partial",
            "--inject",
            "hostile",
            "--dataset",
            "rmat:6",
        ])
        .output()
        .expect("run demo --partial");
    assert_eq!(
        partial.status.code(),
        Some(2),
        "supervised demo with hostile faults exits 2: {}",
        String::from_utf8_lossy(&partial.stderr)
    );

    // 1: fatal usage and spec errors.
    let missing_spec = run_campaign(&root.join("nope.toml"), &root.join("x"), false);
    assert_eq!(
        missing_spec.status.code(),
        Some(1),
        "unreadable spec is fatal"
    );
    let no_args = grade10().arg("campaign").output().expect("run");
    assert_eq!(
        no_args.status.code(),
        Some(1),
        "missing --spec/--dir is fatal"
    );
    let bad_spec = root.join("bad.toml");
    std::fs::write(&bad_spec, "name = \"x\"\nalgorithms = [\"pr\"]\n").expect("write");
    let bad = run_campaign(&bad_spec, &root.join("y"), false);
    assert_eq!(
        bad.status.code(),
        Some(1),
        "spec missing a required axis is fatal: {}",
        String::from_utf8_lossy(&bad.stderr)
    );

    // 1: a flag the subcommand never reads, before any work starts. Each
    // of these used to run with the typo'd setting silently at its default;
    // the last is a flag only other subcommands read.
    let spec_arg = spec.to_str().expect("utf-8 path");
    let typo_dir = root.join("typo");
    let typo_dir_arg = typo_dir.to_str().expect("utf-8 path");
    let typos: [&[&str]; 6] = [
        &["demo", "--dataset", "rmat:6", "--fault-sed", "3"],
        &[
            "campaign",
            "--spec",
            spec_arg,
            "--dir",
            typo_dir_arg,
            "--thread",
            "2",
        ],
        &["export-model", "--engine", "giraph", "--no-such-flag", "7"],
        &[
            "analyze",
            "--model",
            "m.json",
            "--trace",
            "t.g10t",
            "--slices-ms",
            "5",
        ],
        &[
            "convert",
            "--events",
            "e.jsonl",
            "-o",
            "t.g10t",
            "--resource",
            "r.json",
        ],
        &["export-model", "--engine", "giraph", "--lenient"],
    ];
    for args in typos {
        let out = grade10().args(args).output().expect("run grade10");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?} is fatal: {stderr}");
        assert!(
            stderr.contains("unknown flag") && stderr.contains("usage:"),
            "{args:?} names the flag and prints the usage: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} did no work");
    }
    assert!(!typo_dir.exists(), "the typo'd campaign never started");

    // 1: a flag that only modifies another, without it. Each used to run
    // with the flag silently ignored: only the supervised policy reads the
    // supervision knobs, only --inject reads --fault-seed (it was not even
    // parsed), and only --self-profile has a trace for --self-export.
    let knobs: [(&[&str], &str); 6] = [
        (
            &["demo", "--dataset", "rmat:6", "--deadline-ms", "1"],
            "--partial",
        ),
        (
            &["demo", "--dataset", "rmat:6", "--max-retries", "0"],
            "--partial",
        ),
        (
            &[
                "analyze",
                "--model",
                "m.json",
                "--trace",
                "t.g10t",
                "--deadline-ms",
                "1",
            ],
            "--partial",
        ),
        (
            &[
                "analyze",
                "--model",
                "m.json",
                "--trace",
                "t.g10t",
                "--max-retries",
                "0",
            ],
            "--partial",
        ),
        (
            &["demo", "--dataset", "rmat:6", "--fault-seed", "abc"],
            "--inject",
        ),
        (
            &["demo", "--dataset", "rmat:6", "--self-export", "self-out"],
            "--self-profile",
        ),
    ];
    for (args, needs) in knobs {
        let out = grade10().args(args).output().expect("run grade10");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?} is fatal: {stderr}");
        assert!(
            stderr.contains(&format!("add {needs}")) && stderr.contains("usage:"),
            "{args:?} names {needs} and prints the usage: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} did no work");
    }

    // 1: the other usage errors — an unknown command, a missing flag, a
    // joiner setting its own lease over the fleet's, a flag with no value,
    // a malformed value — print the usage too; an error met after the
    // command line was understood ends on its cause.
    let join_dir = root.join("ok");
    let join_dir = join_dir.to_str().expect("utf-8 path");
    let usage_errors: [(&[&str], &str); 6] = [
        (&["frobnicate"], "unknown command 'frobnicate'"),
        (&["campaign"], "campaign needs --spec FILE"),
        (
            &["campaign", "--join", join_dir, "--lease-ms", "100"],
            "--lease-ms is fixed at launch",
        ),
        (&["demo", "--seed"], "flag '--seed' needs a value"),
        (&["demo", "--seed", "x"], "bad seed 'x'"),
        (
            &["demo", "--dataset", "rmat:64"],
            "vertex ids are 32-bit, so the scale is at most 32",
        ),
    ];
    for (args, cause) in usage_errors {
        let out = grade10().args(args).output().expect("run grade10");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?} is fatal: {stderr}");
        assert!(
            stderr.contains(cause) && stderr.contains("usage:"),
            "{args:?} names the cause and prints the usage: {stderr}"
        );
    }
    let stderr = String::from_utf8_lossy(&missing_spec.stderr);
    assert!(
        stderr.contains("nope.toml") && !stderr.contains("usage:"),
        "an unreadable spec is no usage error: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// README's command-line section opens with the usage synopsis, the flag
/// table `grade10` prints (here after the "no command given" error).
/// `UPDATE_GOLDENS=1` rewrites the block.
#[test]
fn readme_usage_block_is_the_printed_synopsis() {
    let out = grade10().output().expect("run grade10");
    assert_eq!(out.status.code(), Some(1), "no command is a usage error");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 usage");
    let usage = &stderr[stderr.find("usage:\n").expect("usage block")..];
    let synopsis = usage.split("\n\n").next().expect("synopsis");
    let rendered = format!("```text\n{synopsis}\n```\n");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("README.md");
    let doc = std::fs::read_to_string(&path).expect("read README.md");
    const BEGIN: &str = "<!-- BEGIN GENERATED usage -->\n";
    const END: &str = "<!-- END GENERATED usage -->";
    let (head, rest) = doc.split_once(BEGIN).expect("BEGIN marker");
    let (block, tail) = rest.split_once(END).expect("END marker");
    if std::env::var("UPDATE_GOLDENS").ok().as_deref() == Some("1") {
        let updated = format!("{head}{BEGIN}{rendered}{END}{tail}");
        std::fs::write(&path, updated).expect("write README.md");
        return;
    }
    assert_eq!(
        block, rendered,
        "README.md's usage block drifted from the binary's; re-bless with \
         UPDATE_GOLDENS=1 cargo test --test campaign_cli readme_usage"
    );
}

/// `demo --engine spark` honours the flags `demo` accepts, through the
/// tail it shares with the graph engines: strict ingestion rejects
/// injected damage, `--lenient` repairs it, `--export-logs` ships the
/// streams.
#[test]
fn spark_demo_honours_the_demo_flags() {
    let root = tmp("spark");
    let _ = std::fs::remove_dir_all(&root);
    let dir = root.to_str().expect("utf-8 path");
    let spark = ["demo", "--engine", "spark", "--dataset", "rmat:8"];
    let run = |args: &[&str]| {
        grade10()
            .args([&spark[..], args].concat())
            .output()
            .expect("run grade10")
    };
    let inject = ["--inject", "all", "--fault-seed", "3"];
    let strict = run(&inject);
    let stderr = String::from_utf8_lossy(&strict.stderr);
    assert_eq!(strict.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("retry with --lenient"), "{stderr}");

    let lenient = run(&[&inject[..], &["--lenient"]].concat());
    let stdout = String::from_utf8_lossy(&lenient.stdout);
    assert_eq!(
        lenient.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&lenient.stderr)
    );
    assert!(
        stdout.contains("ingestion repaired a degraded input:"),
        "{stdout}"
    );

    let exported = run(&["--export-logs", dir]);
    assert!(
        exported.status.success(),
        "{}",
        String::from_utf8_lossy(&exported.stderr)
    );
    assert!(root.join("events.jsonl").is_file(), "events.jsonl written");
    assert!(
        root.join("resources.json").is_file(),
        "resources.json written"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// The "retry with --lenient" hint follows only the errors lenient
/// ingestion repairs, and only when ingestion was strict.
#[test]
fn lenient_hint_names_only_strict_input_damage() {
    const HINT: &str = "retry with --lenient";
    let root = tmp("hint");
    let _ = std::fs::remove_dir_all(&root);
    let run = |args: &[&str]| grade10().args(args).output().expect("run grade10");
    let dir = root.to_str().expect("utf-8 path");
    let exported = run(&["demo", "--dataset", "rmat:6", "--export-logs", dir]);
    assert!(
        exported.status.success(),
        "{}",
        String::from_utf8_lossy(&exported.stderr)
    );
    let model = root.join("model.json");
    let model = model.to_str().expect("utf-8 path");
    assert!(run(&["export-model", "--engine", "giraph", "-o", model])
        .status
        .success());
    // A shipper that re-sent the first record at the end: out of order.
    let events = root.join("events.jsonl");
    let text = std::fs::read_to_string(&events).expect("read events");
    let first = text.lines().next().expect("a record");
    std::fs::write(&events, format!("{text}{first}\n")).expect("damage events");
    let (events, resources) = (events.to_str().unwrap(), root.join("resources.json"));
    let analyze = ["analyze", "--model", model, "--events", events];
    let resources = ["--resources", resources.to_str().expect("utf-8 path")];

    let strict = run(&[&analyze[..], &resources[..]].concat());
    let stderr = String::from_utf8_lossy(&strict.stderr);
    assert_eq!(strict.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("malformed log") && stderr.contains(HINT),
        "{stderr}"
    );

    // A zero deadline fails every attempt, `ingest/assemble` included:
    // fatal, but no repair would help.
    let knobs = [
        "--lenient",
        "--partial",
        "--deadline-ms",
        "0",
        "--max-retries",
        "0",
    ];
    let late = run(&[&["demo", "--dataset", "rmat:6"][..], &knobs[..]].concat());
    let stderr = String::from_utf8_lossy(&late.stderr);
    assert_eq!(late.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("deadline exceeded") && !stderr.contains(HINT),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// The model bundles `export-model` prints are pinned byte for byte: they
/// are what offline `analyze` runs characterize with.
#[test]
fn export_model_bundles_match_their_goldens() {
    for engine in ["giraph", "powergraph"] {
        let out = grade10()
            .args(["export-model", "--engine", engine])
            .output()
            .expect("run grade10 export-model");
        assert!(
            out.status.success(),
            "{engine}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        check_golden(&format!("export_model_{engine}.json"), &out.stdout);
    }
}

/// Runs the campaign `spec` once per variant of extra flags, each into a
/// fresh directory, and requires every run to exit 0 with the same
/// `report.txt` and `report.json`, pinned as the goldens `{golden}.txt`
/// and `{golden}.json`.
fn reports_match_golden_at_any_width(
    name: &str,
    spec: &str,
    golden: &str,
    variants: &[(&str, &[&str])],
) {
    let root = tmp(name);
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("root");
    let spec_path = root.join("spec.toml");
    std::fs::write(&spec_path, spec).expect("write spec");
    let mut reference: Option<(Vec<u8>, Vec<u8>)> = None;
    for (variant, args) in variants {
        let dir = root.join(variant);
        let out = grade10()
            .args(["campaign", "--spec"])
            .arg(&spec_path)
            .arg("--dir")
            .arg(&dir)
            .args(*args)
            .output()
            .expect("run grade10 campaign");
        assert!(
            out.status.success(),
            "{variant}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let txt = std::fs::read(dir.join("report.txt")).expect("report.txt");
        let json = std::fs::read(dir.join("report.json")).expect("report.json");
        match &reference {
            None => {
                check_golden(&format!("{golden}.txt"), &txt);
                check_golden(&format!("{golden}.json"), &json);
                reference = Some((txt, json));
            }
            Some((want_txt, want_json)) => {
                assert!(
                    &txt == want_txt,
                    "{variant}: report.txt differs from the first variant"
                );
                assert!(
                    &json == want_json,
                    "{variant}: report.json differs from the first variant"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The reports of a campaign whose mixes share input graphs are pinned,
/// and every way of running it — one or two claimant threads, two worker
/// processes, a stage cache — reproduces them byte for byte. A graph
/// reused under the wrong identity (say, the dataset without its seed)
/// changes a makespan and fails here.
#[test]
fn campaign_over_shared_graphs_matches_its_golden_at_any_width() {
    let cache = tmp("graphs-stage-cache");
    let _ = std::fs::remove_dir_all(&cache);
    let cache_arg = cache.to_str().expect("utf-8 path");
    reports_match_golden_at_any_width(
        "graphs",
        GRAPHS_SPEC,
        "campaign_graph_reuse_report",
        &[
            ("t1", &["--threads", "1"]),
            ("t2", &["--threads", "2"]),
            ("w2", &["--threads", "1", "--workers", "2"]),
            ("cache", &["--threads", "1", "--cache", cache_arg]),
        ],
    );
    let _ = std::fs::remove_dir_all(&cache);
}

/// A 16-mix spec whose `all` fault axis damages half the mixes: each of
/// those fails strict ingestion and finishes on the lenient rung.
const DAMAGED_SPEC: &str = r#"
name = "damaged"
algorithms = ["pr", "bfs"]
datasets = ["rmat:6"]
engines = ["giraph", "powergraph"]
machines = [2]
seeds = [46, 47]
faults = ["none", "all"]
"#;

/// The reports of a campaign in which half the mixes climb the retry
/// ladder are pinned, and one or two claimant threads, two worker
/// processes, or a stage cache cold and then warm reproduce them byte for
/// byte: the rung each mix ends on and its attempt count do not depend on
/// who ran it, nor on whether a failing rung was recomputed or read back.
#[test]
fn damaged_campaign_matches_its_golden_at_any_width() {
    let cache = tmp("damaged-stage-cache");
    let _ = std::fs::remove_dir_all(&cache);
    let cache_arg = cache.to_str().expect("utf-8 path");
    reports_match_golden_at_any_width(
        "damaged",
        DAMAGED_SPEC,
        "campaign_damaged_report",
        &[
            ("t1", &["--threads", "1"]),
            ("t2", &["--threads", "2"]),
            ("w2", &["--threads", "1", "--workers", "2"]),
            ("cache-cold", &["--threads", "1", "--cache", cache_arg]),
            ("cache-warm", &["--threads", "1", "--cache", cache_arg]),
        ],
    );
    let _ = std::fs::remove_dir_all(&cache);
}

/// An 8-mix spec on two input graphs, one per seed, each run by 2
/// algorithms on 2 engines.
const AFFINITY_SPEC: &str = r#"
name = "graph-affinity"
algorithms = ["pr", "bfs"]
datasets = ["rmat:6"]
engines = ["giraph", "powergraph"]
machines = [2]
seeds = [46, 47]
"#;

/// Two claimant threads split the two input graphs instead of alternating
/// inside each: the process generates at most 3 graphs — each claimant its
/// own, plus one when a claimant that ran out of its graph takes a mix
/// left on its peer's — where alternating claims generate all 4. The
/// reports are byte-identical to one claimant's, which generates 2.
#[test]
fn two_claimants_split_the_input_graphs_between_them() {
    let root = tmp("affinity");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("root");
    let spec = root.join("spec.toml");
    std::fs::write(&spec, AFFINITY_SPEC).expect("write spec");
    let mut reports = Vec::new();
    for (threads, most) in [("1", 2), ("2", 3)] {
        let dir = root.join(format!("t{threads}"));
        let out = grade10()
            .args(["campaign", "--spec"])
            .arg(&spec)
            .arg("--dir")
            .arg(&dir)
            .args(["--threads", threads])
            .output()
            .expect("run grade10 campaign");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "--threads {threads}: {stderr}");
        let graphs = stderr.lines().find_map(|line| {
            let n = line.strip_prefix("substrate: ")?;
            n.strip_suffix(" graphs generated for 8 simulated mixes")?
                .parse::<usize>()
                .ok()
        });
        let graphs = graphs.unwrap_or_else(|| panic!("no substrate line for 8 mixes: {stderr}"));
        assert!(
            graphs <= most,
            "--threads {threads}: {graphs} graphs generated, at most {most} expected"
        );
        let txt = std::fs::read(dir.join("report.txt")).expect("report.txt");
        let json = std::fs::read(dir.join("report.json")).expect("report.json");
        reports.push((txt, json));
    }
    assert!(reports[0] == reports[1], "reports differ across widths");
    let _ = std::fs::remove_dir_all(&root);
}

/// `--resume` keeps the base mode and the lease the campaign was launched
/// with, read from `campaign.json`: a mix reopened because its stored
/// outcome is gone reruns lenient under the launch's 500 ms lease, so the
/// report stays byte-identical to the uninterrupted one. `--lenient` beside
/// `--resume` is a usage error, since the mode is fixed at launch.
#[test]
fn resume_keeps_the_launch_base_mode() {
    let root = tmp("resume-mode");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("root");
    let spec = root.join("spec.toml");
    std::fs::write(
        &spec,
        "name = \"resume-mode\"\nalgorithms = [\"pr\"]\ndatasets = [\"rmat:6\"]\n\
         machines = [2]\nseeds = [46, 47]\n",
    )
    .expect("write spec");
    let dir = root.join("run");
    let campaign = |extra: &[&str]| {
        grade10()
            .args(["campaign", "--spec"])
            .arg(&spec)
            .arg("--dir")
            .arg(&dir)
            .args(["--threads", "1"])
            .args(extra)
            .output()
            .expect("run grade10 campaign")
    };
    let reports = || {
        (
            std::fs::read(dir.join("report.txt")).expect("report.txt"),
            std::fs::read(dir.join("report.json")).expect("report.json"),
        )
    };

    let launch = campaign(&["--lenient", "--lease-ms", "500"]);
    assert!(
        launch.status.success(),
        "lenient launch: {}",
        String::from_utf8_lossy(&launch.stderr)
    );
    let want = reports();
    assert!(
        String::from_utf8_lossy(&want.0).contains("lenient"),
        "the launch runs lenient"
    );
    let stored = std::fs::read_dir(dir.join("store"))
        .expect("store")
        .next()
        .expect("a stored outcome")
        .expect("store entry")
        .path();
    std::fs::remove_file(stored).expect("delete one stored outcome");

    let resumed = campaign(&["--resume"]);
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(resumed.status.success(), "resume: {stderr}");
    assert!(
        stderr.contains("1 executed, 1 cached"),
        "one mix reopened: {stderr}"
    );
    let got = reports();
    assert!(got.0 == want.0, "report.txt changed across the resume");
    assert!(got.1 == want.1, "report.json changed across the resume");
    let manifest = std::fs::read_to_string(dir.join("campaign.json")).expect("campaign.json");
    assert!(
        manifest.contains("\"lease_ms\": 500"),
        "the resume keeps the launch lease: {manifest}"
    );
    let journal = std::fs::read_to_string(dir.join("journal.jsonl")).expect("journal");
    let epoch = journal
        .rfind("\"record\":\"launch\"")
        .expect("the resume's launch record");
    let leases: Vec<u64> = journal[epoch..]
        .lines()
        .filter(|l| l.contains("\"record\":\"claimed\""))
        .map(|l| number_field(l, "lease") - number_field(l, "at"))
        .collect();
    assert!(
        !leases.is_empty() && leases.iter().all(|&l| l == 500),
        "claims of the resumed epoch lease for 500 ms: {leases:?}"
    );

    let refused = campaign(&["--resume", "--lenient"]);
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert_eq!(refused.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("--lenient is fixed at launch") && stderr.contains("usage:"),
        "a usage error: {stderr}"
    );
    assert!(reports() == want, "the refused resume did no work");
    let _ = std::fs::remove_dir_all(&root);
}

/// The unsigned number a journal line records under `key`.
fn number_field(line: &str, key: &str) -> u64 {
    let at = line.find(&format!("\"{key}\":")).expect("field present") + key.len() + 3;
    let digits = line[at..].split(|c: char| !c.is_ascii_digit()).next();
    digits.and_then(|d| d.parse().ok()).expect("a number")
}

/// Copies the directory tree `from` to `to`.
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy");
    for entry in std::fs::read_dir(from).expect("read dir") {
        let path = entry.expect("dir entry").path();
        let dest = to.join(path.file_name().expect("file name"));
        if path.is_dir() {
            copy_dir(&path, &dest);
        } else {
            std::fs::copy(&path, &dest).expect("copy file");
        }
    }
}

/// The peers of a resumed epoch read that epoch's launch record. An 8-mix
/// campaign is resumed with an edited 2-mix spec and `--workers 2`, its
/// stored outcomes deleted so both mixes rerun: the spawned peer must load
/// the 2-mix matrix the resume wrote to `campaign.json`, not the launch's
/// 8-mix one, and the report must be a fresh 2-mix campaign's. Five rounds,
/// each on a fresh copy, because a peer that starts too early loses a race.
#[test]
fn resumed_peers_read_the_epochs_launch_record() {
    let root = tmp("epoch");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("root");
    let wide = root.join("wide.toml");
    std::fs::write(
        &wide,
        "name = \"epoch\"\nalgorithms = [\"pr\", \"bfs\", \"wcc\", \"cdlp\"]\n\
         datasets = [\"rmat:8\"]\nmachines = [2, 4]\nseeds = [46]\n",
    )
    .expect("write spec");
    let narrow = root.join("narrow.toml");
    std::fs::write(
        &narrow,
        "name = \"epoch\"\nalgorithms = [\"pr\"]\ndatasets = [\"rmat:8\"]\n\
         machines = [2, 4]\nseeds = [46]\n",
    )
    .expect("write spec");
    let campaign = |spec: &Path, dir: &Path, extra: &[&str]| {
        let out = grade10()
            .args(["campaign", "--spec"])
            .arg(spec)
            .arg("--dir")
            .arg(dir)
            .args(["--threads", "1"])
            .args(extra)
            .output()
            .expect("run grade10 campaign");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{}: {stderr}", dir.display());
    };
    let reports = |dir: &Path| {
        (
            std::fs::read(dir.join("report.txt")).expect("report.txt"),
            std::fs::read(dir.join("report.json")).expect("report.json"),
        )
    };
    let launched = root.join("launched");
    campaign(&wide, &launched, &[]);
    let fresh = root.join("fresh");
    campaign(&narrow, &fresh, &[]);
    let want = reports(&fresh);
    for round in 0..5 {
        let dir = root.join(format!("round{round}"));
        copy_dir(&launched, &dir);
        for entry in std::fs::read_dir(dir.join("store")).expect("store") {
            let path = entry.expect("store entry").path();
            if path.extension().is_some_and(|e| e == "json") {
                std::fs::remove_file(path).expect("delete a stored outcome");
            }
        }
        campaign(&narrow, &dir, &["--resume", "--workers", "2"]);
        if let Ok(log) = std::fs::read_to_string(dir.join("worker-2.log")) {
            assert!(
                log.contains("campaign epoch: 2 mixes"),
                "round {round}: the peer loaded another epoch's matrix:\n{log}"
            );
        }
        assert!(
            reports(&dir) == want,
            "round {round}: the resumed report is not the fresh 2-mix one"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn campaign_validates_every_mix_before_running_any() {
    let root = tmp("validate");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("dir");
    let spec = root.join("spec.toml");
    std::fs::write(
        &spec,
        "name = \"v\"\nalgorithms = [\"pr\", \"zork\"]\ndatasets = [\"rmat:6\"]\n",
    )
    .expect("write spec");
    let dir = root.join("run");
    let out = run_campaign(&spec, &dir, false);
    assert_eq!(
        out.status.code(),
        Some(1),
        "unknown algorithm is fatal up front"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("zork"), "error names the bad mix: {stderr}");
    assert!(
        !dir.join("journal.jsonl").exists(),
        "nothing ran: validation precedes the journal"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A dataset no graph can be built from is refused at launch, before any
/// mix runs: `social:0` used to pass validation and panic in every mix,
/// and `rmat:64` (more vertices than 32-bit ids can name) to panic on a
/// wrapped shift.
#[test]
fn campaign_refuses_an_empty_dataset_at_launch() {
    let root = tmp("empty-dataset");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("dir");
    let spec = root.join("spec.toml");
    let bad = [
        ("social:0", "at least one vertex"),
        ("rmat:64", "the scale is at most 32"),
        ("social:4294967297", "at most 4294967296 vertices"),
    ];
    for (dataset, cause) in bad {
        std::fs::write(
            &spec,
            format!(
                "name = \"e\"\nalgorithms = [\"pr\"]\ndatasets = [\"rmat:6\", \"{dataset}\"]\n"
            ),
        )
        .expect("write spec");
        let dir = root.join("run");
        let out = run_campaign(&spec, &dir, false);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "refused up front: {stderr}");
        assert!(
            stderr.contains(dataset) && stderr.contains(cause),
            "the error names the mix and the cause: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(
            !dir.join("journal.jsonl").exists(),
            "nothing ran: validation precedes the journal"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// `--slice-ms 0` is a usage error, as `--threads 0` is: it used to reach
/// the timeslice grid and panic.
#[test]
fn zero_slice_is_a_usage_error() {
    let args = [
        "analyze",
        "--model",
        "m.json",
        "--trace",
        "t.g10t",
        "--slice-ms",
        "0",
    ];
    let out = grade10().args(args).output().expect("run grade10");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("bad slice '0'") && stderr.contains("usage:"),
        "names the value and prints the usage: {stderr}"
    );
    assert!(out.stdout.is_empty(), "did no work");
}
