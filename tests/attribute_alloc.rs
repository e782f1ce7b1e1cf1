//! The supervised policy's attribution allocates what the inline policy's
//! does. Its units fill their own rows of one profile, allocated once, so
//! the demand, upsample and attribute spans of a supervised run at pool
//! width 1 request within 10 % of the bytes an inline run of the same
//! stream requests.
//!
//! Lives in its own integration-test binary because it installs the
//! counting global allocator that feeds the spans' byte counts.

use grade10::cluster::{FaultClass, FaultPlan};
use grade10::core::obs::{self, CountingAlloc, MetaTrace, Stage};
use grade10::core::parse::EventStream;
use grade10::core::pipeline::{characterize_stream, CharacterizationConfig};
use grade10::core::supervise::UnitStatus;
use grade10::core::trace::MILLIS;
use grade10::engines::bridge::collected_streams;
use grade10::engines::pregel::PregelConfig;
use grade10::engines::{run_workload, Algorithm, Dataset, EngineKind, WorkloadSpec};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes the attribution spans requested.
fn attribution_bytes(trace: &MetaTrace) -> u64 {
    let attribution = [Stage::Demand, Stage::Upsample, Stage::Attribute];
    let spans = trace
        .spans
        .iter()
        .filter(|s| attribution.contains(&s.stage));
    spans.map(|s| s.alloc_bytes).sum()
}

#[test]
fn supervised_attribution_allocates_what_inline_does() {
    let run = run_workload(&WorkloadSpec {
        dataset: Dataset::Rmat { scale: 10, seed: 3 },
        algorithm: Algorithm::PageRank { iterations: 2 },
        engine: EngineKind::Giraph(PregelConfig {
            machines: 8,
            ..Default::default()
        }),
    });
    // Damaged the way the benchmark's damaged analysis is: every stream
    // fault but reordering.
    let mut plan = FaultPlan::clean(46);
    for class in FaultClass::STREAM_DAMAGE {
        if class != FaultClass::Reorder {
            plan.enable(class);
        }
    }
    let (events, monitoring) = collected_streams(&run.sim, Some(&plan));
    let events = EventStream::from_events(&events);
    let cfg = CharacterizationConfig::new(true, MILLIS, Some(1));
    let bytes = |supervised: bool| {
        let recording = obs::start();
        let p = characterize_stream(
            supervised,
            &run.model,
            &run.rules_tuned,
            &events,
            &monitoring,
            &cfg,
        )
        .expect("lenient run");
        let trace = recording.finish();
        let dropped = p
            .coverage
            .machines
            .iter()
            .filter(|m| m.status == UnitStatus::Dropped);
        assert_eq!(dropped.count(), 0, "{:?}", p.incidents);
        (
            attribution_bytes(&trace),
            p.characterization.profile.total_slices(),
        )
    };
    let (inline, cells) = bytes(false);
    let (supervised, supervised_cells) = bytes(true);
    assert_eq!(cells, supervised_cells);
    // The grids alone are 33 bytes a cell; anything less means the spans
    // missed them.
    assert!(
        inline >= 33 * cells as u64,
        "inline {inline} B for {cells} cells"
    );
    let ratio = supervised as f64 / inline as f64;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "supervised attribution requested {supervised} B, inline {inline} B ({ratio:.3}x)"
    );
}
