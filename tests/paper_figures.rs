//! The paper's evaluation (§IV) as tests: one test per `EXPERIMENTS.md`
//! section. Each computes its section once through the `grade10-bench`
//! figure function, asserts the section's shape claims on the typed value,
//! then checks that the section's rendered markdown is byte for byte the
//! generated block in `EXPERIMENTS.md`. Re-bless the blocks with
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test paper_figures
//! ```
//!
//! — the shape assertions still run first, so a broken claim cannot be
//! blessed into the document.

use std::path::Path;
use std::sync::Mutex;

use grade10::core::model::AttributionRule;

/// Blessing rewrites one shared file; the tests run in parallel. A test that
/// fails while holding the lock leaves the file whole (it is written in one
/// call), so a poisoned lock is recovered rather than failing the others.
static EXPERIMENTS_MD: Mutex<()> = Mutex::new(());

/// Compares `rendered` with the block between `<!-- BEGIN GENERATED name -->`
/// and `<!-- END GENERATED name -->` in EXPERIMENTS.md, or rewrites the
/// block under `UPDATE_GOLDENS=1`.
fn check_block(name: &str, rendered: &str) {
    let _guard = EXPERIMENTS_MD.lock().unwrap_or_else(|e| e.into_inner());
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("EXPERIMENTS.md");
    let doc = std::fs::read_to_string(&path).expect("read EXPERIMENTS.md");
    let begin = format!("<!-- BEGIN GENERATED {name} -->\n");
    let end = format!("<!-- END GENERATED {name} -->");
    let start = doc
        .find(&begin)
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no `{}` marker", begin.trim()))
        + begin.len();
    let stop = start
        + doc[start..]
            .find(&end)
            .unwrap_or_else(|| panic!("EXPERIMENTS.md has no `{end}` marker"));
    if std::env::var("UPDATE_GOLDENS").ok().as_deref() == Some("1") {
        let updated = format!("{}{rendered}{}", &doc[..start], &doc[stop..]);
        std::fs::write(&path, updated).expect("write EXPERIMENTS.md");
        return;
    }
    let block = &doc[start..stop];
    if block != rendered {
        let first = block
            .lines()
            .zip(rendered.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(block.lines().count().min(rendered.lines().count()));
        panic!(
            "EXPERIMENTS.md block `{name}` drifted from its figure function at line {}:\n  \
             doc:      {:?}\n  rendered: {:?}\nre-bless with UPDATE_GOLDENS=1 \
             cargo test --test paper_figures\n--- rendered ---\n{rendered}",
            first + 1,
            block.lines().nth(first),
            rendered.lines().nth(first),
        );
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

#[test]
fn fig2_matches_the_paper_exactly() {
    let fig = grade10_bench::fig2();
    let (first, second) = fig.r2_upsampled();
    assert!(
        close(first, 15.0) && close(second, 65.0),
        "R2 upsampled to {first} / {second} (paper: 15 / 65)"
    );
    let (p3, p2) = fig.r2_split();
    assert!(
        close(p3, 50.0) && close(p2, 15.0),
        "P3 / P2 on R2 = {p3} / {p2} (paper: 50 / 15)"
    );
    let (used, demand) = fig.p2_r3();
    assert!(
        close(used, 80.0) && close(demand, 80.0),
        "P2 on R3: {used} of {demand}"
    );
    assert!(
        fig.profile.consumption.row(2)[2] < 100.0,
        "R3 is not saturated where P2 hits its ceiling"
    );
    check_block("fig2", &fig.markdown());
}

#[test]
fn table2_error_orderings() {
    let table = grade10_bench::table2();
    assert_eq!(table.rows.len(), 6);
    for w in table.rows.windows(2) {
        for (col, (lo, hi)) in w[0].errors.iter().zip(w[1].errors).enumerate() {
            assert!(
                *lo <= hi,
                "column {col}: error falls from {lo:.2} at {}x to {hi:.2} at {}x",
                w[0].factor,
                w[1].factor
            );
        }
    }
    for r in &table.rows {
        let [strawman, untuned, tuned, powergraph] = r.errors;
        assert!(
            strawman > untuned && strawman > tuned && strawman > powergraph,
            "{}x: the strawman ({strawman:.2}) must be worst",
            r.factor
        );
        assert!(
            powergraph < untuned && powergraph < tuned,
            "{}x: PowerGraph tuned ({powergraph:.2}) must be best",
            r.factor
        );
        assert!(tuned < untuned, "{}x: tuning must help Giraph", r.factor);
    }
    check_block("table2", &table.markdown());
}

#[test]
fn fig3_tuned_rules_bound_demand_and_reveal_bottlenecks() {
    let fig = grade10_bench::fig3();
    let threads = fig.threads as f64;
    assert!(
        fig.untuned.peak_demand() > threads,
        "untuned demand must overestimate"
    );
    assert!(
        fig.tuned.peak_demand() <= threads + 1e-6,
        "tuned demand bounded by threads"
    );
    assert!(
        fig.tuned.bottleneck_share() > fig.untuned.bottleneck_share(),
        "tuned rules must find more CPU bottlenecks"
    );
    assert!(fig.gc_pauses >= 1, "region ② needs a GC pause");
    assert!(fig.queue_stall_s > 0.0, "region ③ needs queue stalls");
    check_block("fig3", &fig.markdown());
}

#[test]
fn fig4_bottleneck_impacts_by_system() {
    let fig = grade10_bench::fig4();
    assert_eq!(fig.system(true).count(), 8);
    assert_eq!(fig.system(false).count(), 8);
    for r in fig.system(true) {
        assert!(
            (0.200..=0.699).contains(&r.cpu),
            "{}: CPU impact {:.3} outside the paper's 20.0-69.9 %",
            r.workload,
            r.cpu
        );
    }
    assert!(
        fig.system(true).any(|r| r.gc > 0.0),
        "GC bottlenecks appear in Giraph"
    );
    assert!(
        fig.system(true).any(|r| r.msgq > 0.0),
        "queue bottlenecks appear in Giraph"
    );
    for r in fig.system(false) {
        assert_eq!(r.gc, 0.0, "{}: PowerGraph has no GC", r.workload);
        assert_eq!(
            r.msgq, 0.0,
            "{}: PowerGraph has no stalling queues",
            r.workload
        );
        assert!(
            r.network <= 0.005,
            "{}: network impact {:.4}",
            r.workload,
            r.network
        );
    }
    // Disk bottlenecks come from the input read: each short BFS job shows
    // more of it than the long PageRank job on the same dataset and system,
    // and the Giraph BFS jobs finish before the heap fills.
    for (bfs, pr) in fig.rows.iter().zip(&fig.rows[1..]).step_by(4) {
        assert!(bfs.workload.starts_with("bfs-") && pr.workload.starts_with("pr-"));
        assert!(bfs.disk > pr.disk, "{} disk {:.3} vs {:.3}", bfs.workload, bfs.disk, pr.disk);
        assert!(!bfs.giraph || bfs.gc == 0.0, "{}: GC before the heap fills", bfs.workload);
    }
    check_block("fig4", &fig.markdown());
}

#[test]
fn fig5_gather_imbalance_dominates() {
    let fig = grade10_bench::fig5();
    assert_eq!(fig.rows.len(), 8);
    for r in &fig.rows {
        let gather = r.reductions[0];
        assert!(
            r.reductions[1..].iter().all(|&x| x <= gather),
            "{}: gather must be the largest type, got {:?}",
            r.workload,
            r.reductions
        );
        let [_, apply, scatter, _, load] = r.reductions;
        assert!(
            [apply, scatter, load].iter().all(|&x| x < 0.25 * gather),
            "{}: apply, scatter and load must stay small",
            r.workload
        );
    }
    let largest = fig.largest();
    assert!(
        fig.rows
            .iter()
            .any(|r| r.is_cdlp() && r.reductions[0] == largest),
        "the largest cell must be a CDLP gather"
    );
    check_block("fig5", &fig.markdown());
}

#[test]
fn fig6_recovers_the_sync_bug() {
    let fig = grade10_bench::fig6();
    assert!(
        fig.recovered >= 3 && fig.recovered <= fig.injected.len(),
        "recovered {} of {} injections",
        fig.recovered,
        fig.injected.len()
    );
    assert!(fig.detail_outliers >= 1 && fig.detail_slowdown > 1.05);
    check_block("fig6", &fig.markdown());
}

#[test]
fn fleet_screening_flags_every_job() {
    let fleet = grade10_bench::fleet();
    assert_eq!(fleet.jobs.len(), 8);
    for j in &fleet.jobs {
        assert!(j.affected > 0, "cdlp-{}: no straggler found", j.seed);
        assert!(j.injected > 0, "cdlp-{}: nothing injected", j.seed);
    }
    check_block("fleet", &fleet.markdown());
}

#[test]
fn ablation_orderings() {
    let a = grade10_bench::ablation();
    let (hash, range) = (&a.edge_cut[0], &a.edge_cut[1]);
    assert!(
        range.balance < hash.balance,
        "range-by-edges balances edges"
    );
    assert!(
        range.imbalance < 0.5 * hash.imbalance,
        "and removes most of the thread imbalance"
    );
    assert!(range.runtime_s < hash.runtime_s, "and runs faster");
    let (greedy, random) = (&a.vertex_cut[0], &a.vertex_cut[1]);
    assert!(
        random.balance > 1.5 * greedy.balance,
        "random cuts nearly double the replication factor"
    );
    assert!(
        random.imbalance < greedy.imbalance,
        "though their gather loads are better balanced"
    );
    assert!(random.runtime_s > greedy.runtime_s, "and run slower");
    let (off, on) = (&a.combiners[0], &a.combiners[1]);
    assert!(
        off.queue_stall_s > 0.0 && on.queue_stall_s == 0.0,
        "combiners drain the queues"
    );
    assert!(on.runtime_s < off.runtime_s, "and shorten the run");
    check_block("ablation-partitioning", &a.partitioning_markdown());
    check_block("ablation-combiners", &a.combiners_markdown());
}

#[test]
fn scaling_crosses_from_compute_to_communication() {
    let s = grade10_bench::scaling();
    assert_eq!(
        s.rows.iter().map(|r| r.machines).collect::<Vec<_>>(),
        [2, 4, 8]
    );
    for w in s.rows.windows(2) {
        assert!(w[1].cpu < w[0].cpu, "CPU impact falls with machine count");
        assert!(
            w[1].runtime_s < w[0].runtime_s,
            "runtime falls with machine count"
        );
        assert!(w[1].remote_fraction > w[0].remote_fraction);
    }
    assert!(
        s.rows[0].msgq == 0.0 && s.rows[1].msgq > 0.0,
        "queue bottlenecks appear between 2 and 4 machines"
    );
    check_block("scaling", &s.markdown());
}

#[test]
fn rule_inference_recovers_the_expert_thread_rule() {
    let inf = grade10_bench::rule_inference();
    assert_eq!(inf.workload, "pr-g500-11-giraph");
    match inf.learned_cpu("thread") {
        Some(AttributionRule::Exact(p)) => assert!(
            (100.0 * p - 12.5).abs() <= 0.05,
            "learned thread rule Exact {:.3} %, expert 12.5 %",
            100.0 * p
        ),
        other => panic!("learned thread rule {other:?}, expected Exact"),
    }
    let r2 = inf.r2("cpu").expect("a cpu fit");
    assert!(r2 >= 0.9995, "cpu fit r2 {r2}");
    check_block("rule-inference", &inf.markdown());
}
