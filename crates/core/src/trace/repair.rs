//! Degraded-input ingestion: repair of damaged log and monitoring streams
//! (robustness layer over §III-C's data collection).
//!
//! Real telemetry pipelines damage data routinely: clocks skew between
//! machines, shippers reorder and duplicate records, workers crash mid-run
//! and truncate their streams, monitoring exports windows that are missing,
//! NaN, or negative. Grade10's core pipeline assumes clean input; this
//! module decides what happens when the input is not clean.
//!
//! Two [`IngestMode`]s:
//!
//! * **Strict** — the stream must satisfy the full event and monitoring
//!   contracts; any violation is a classified [`Grade10Error`] (use
//!   [`Grade10Error::is_recoverable`] to decide whether re-ingesting
//!   leniently can help).
//! * **Lenient** — violations are *repaired*: events are sorted and
//!   deduplicated, missing end events are synthesized at stream end,
//!   negative durations are clamped, dropped ancestors are reconstructed
//!   from their descendants, invalid monitoring windows are dropped and
//!   interior gaps interpolated. Every repair is counted in an
//!   [`IngestReport`], which condenses into a 0–1
//!   [`quality score`](IngestReport::quality_score) so downstream consumers
//!   know how much to trust the characterization.
//!
//! Both modes work on the [`EventStream`] of `crate::parse`: strict
//! validation keys its duplicate check on fixed-size records carrying path
//! and name ids, and repair keeps per-id arrays and emits records, so the
//! trace build reads what repair made without a path being hashed or
//! cloned again. [`validate_event_stream`], [`repair_events`] and
//! [`ingest`] intern the raw events they are given; `repair_events` turns
//! its records back into [`RawEvent`]s, and `ingest` hands its stream to
//! the pipeline's `ingest` row.

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use crate::error::Grade10Error;
use crate::model::execution::ExecutionModel;
use crate::parse::{EventStream, NameId, PathId, PathTable, RawEvent, Record, RecordKind};
use crate::trace::execution::ExecutionTrace;
use crate::trace::resource::{Measurement, ResourceIdx, ResourceInstance, ResourceTrace};
use crate::trace::timeslice::Nanos;

/// How ingestion treats contract violations in its inputs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum IngestMode {
    /// Reject any violation with a classified [`Grade10Error`].
    #[default]
    Strict,
    /// Repair what can be repaired, count every repair, never fail on
    /// recoverable damage.
    Lenient,
}

/// Ingestion settings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestConfig {
    /// Strict or lenient treatment of contract violations.
    pub mode: IngestMode,
}

impl IngestConfig {
    /// Shorthand for `IngestConfig { mode: IngestMode::Lenient }`.
    pub fn lenient() -> Self {
        IngestConfig {
            mode: IngestMode::Lenient,
        }
    }
}

/// Structured account of everything lenient ingestion found and fixed.
///
/// All counters are zero for a clean stream, so a default report doubles as
/// the "nothing happened" report strict-mode paths carry.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestReport {
    /// Log records received.
    pub events_total: usize,
    /// Records that arrived behind an earlier timestamp and were re-sorted.
    pub out_of_order_fixed: usize,
    /// Exact duplicate records dropped.
    pub duplicates_dropped: usize,
    /// Re-starts of an already-open phase or block dropped.
    pub duplicate_starts_dropped: usize,
    /// Phase/block end events synthesized at stream end (crash truncation).
    pub missing_ends_synthesized: usize,
    /// End events with no matching start, dropped.
    pub unmatched_ends_dropped: usize,
    /// Phases whose end preceded their start (clock damage), clamped to
    /// zero duration.
    pub negative_durations_clamped: usize,
    /// Container phases reconstructed from surviving descendants after
    /// their own records were lost.
    pub ancestors_synthesized: usize,
    /// Monitoring windows received.
    pub monitoring_windows_total: usize,
    /// Non-finite or structurally broken monitoring windows dropped.
    pub monitoring_invalid: usize,
    /// Negative monitoring samples clamped to zero.
    pub monitoring_negatives_clamped: usize,
    /// Monitoring windows that arrived out of order or overlapping and were
    /// re-sorted or dropped.
    pub monitoring_out_of_order: usize,
    /// Monitoring windows quarantined because their duration or placement
    /// was implausible (orders of magnitude beyond the stream's typical
    /// window) — a single skewed timestamp must not inflate the timeslice
    /// grid.
    pub monitoring_quarantined: usize,
    /// Interior monitoring gaps filled by linear interpolation.
    pub monitoring_gaps_interpolated: usize,
    /// Timeslices whose consumption was *estimated* from demand because no
    /// monitoring covered them (filled in by the attribution stage when
    /// demand-fallback estimation is enabled).
    pub slices_estimated: usize,
    /// Total (resource × timeslice) cells the profile covers.
    pub slices_total: usize,
}

impl IngestReport {
    /// Adds `from`'s repair counters into `self`. Totals and slice counters
    /// stay: whoever merges reports of parts of one input sets those once.
    pub(crate) fn absorb_repairs(&mut self, from: &IngestReport) {
        self.out_of_order_fixed += from.out_of_order_fixed;
        self.duplicates_dropped += from.duplicates_dropped;
        self.duplicate_starts_dropped += from.duplicate_starts_dropped;
        self.missing_ends_synthesized += from.missing_ends_synthesized;
        self.unmatched_ends_dropped += from.unmatched_ends_dropped;
        self.negative_durations_clamped += from.negative_durations_clamped;
        self.ancestors_synthesized += from.ancestors_synthesized;
        self.monitoring_invalid += from.monitoring_invalid;
        self.monitoring_negatives_clamped += from.monitoring_negatives_clamped;
        self.monitoring_out_of_order += from.monitoring_out_of_order;
        self.monitoring_quarantined += from.monitoring_quarantined;
        self.monitoring_gaps_interpolated += from.monitoring_gaps_interpolated;
    }

    /// Number of log-event repairs of any kind.
    pub fn event_repairs(&self) -> usize {
        self.out_of_order_fixed
            + self.duplicates_dropped
            + self.duplicate_starts_dropped
            + self.missing_ends_synthesized
            + self.unmatched_ends_dropped
            + self.negative_durations_clamped
            + self.ancestors_synthesized
    }

    /// Number of monitoring repairs of any kind.
    pub fn monitoring_repairs(&self) -> usize {
        self.monitoring_invalid
            + self.monitoring_negatives_clamped
            + self.monitoring_out_of_order
            + self.monitoring_quarantined
            + self.monitoring_gaps_interpolated
    }

    /// True when nothing was repaired or estimated: the input satisfied the
    /// strict contract.
    pub fn is_clean(&self) -> bool {
        self.event_repairs() == 0 && self.monitoring_repairs() == 0 && self.slices_estimated == 0
    }

    /// Data-quality score in `[0, 1]`: 1.0 for pristine input, degrading
    /// with the fraction of damaged events and monitoring windows.
    ///
    /// The score is the mean of an event component and a monitoring
    /// component, each `1 - damaged/total` clamped to `[0, 1]`; estimated
    /// timeslices count as damaged monitoring (an estimated slice carries
    /// model-derived, not measured, consumption). Empty inputs score 1.0 —
    /// nothing claimed, nothing wrong.
    pub fn quality_score(&self) -> f64 {
        fn component(damaged: usize, total: usize) -> Option<f64> {
            if total == 0 {
                None
            } else {
                Some((1.0 - damaged as f64 / total as f64).clamp(0.0, 1.0))
            }
        }
        let event = component(self.event_repairs(), self.events_total);
        // Scale estimated slices to window units so the two damage kinds are
        // commensurable.
        let estimated_in_windows = (self.slices_estimated * self.monitoring_windows_total.max(1))
            .checked_div(self.slices_total)
            .unwrap_or(0);
        let monitoring_damaged = self.monitoring_repairs() + estimated_in_windows;
        let monitoring = component(monitoring_damaged, self.monitoring_windows_total);
        match (event, monitoring) {
            (Some(e), Some(m)) => (e + m) / 2.0,
            (Some(x), None) | (None, Some(x)) => x,
            (None, None) => 1.0,
        }
    }

    /// One human-readable line per non-zero counter, for report output.
    pub fn summary_lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut line = |n: usize, what: &str| {
            if n > 0 {
                out.push(format!("{n} {what}"));
            }
        };
        line(self.out_of_order_fixed, "out-of-order events re-sorted");
        line(self.duplicates_dropped, "duplicate records dropped");
        line(self.duplicate_starts_dropped, "duplicate starts dropped");
        line(
            self.missing_ends_synthesized,
            "missing end events synthesized",
        );
        line(self.unmatched_ends_dropped, "unmatched end events dropped");
        line(
            self.negative_durations_clamped,
            "negative durations clamped",
        );
        line(
            self.ancestors_synthesized,
            "lost container phases reconstructed",
        );
        line(
            self.monitoring_invalid,
            "invalid monitoring windows dropped",
        );
        line(
            self.monitoring_negatives_clamped,
            "negative monitoring samples clamped",
        );
        line(
            self.monitoring_out_of_order,
            "out-of-order monitoring windows fixed",
        );
        line(
            self.monitoring_quarantined,
            "implausible monitoring windows quarantined",
        );
        line(
            self.monitoring_gaps_interpolated,
            "monitoring gaps interpolated",
        );
        line(self.slices_estimated, "timeslices estimated from demand");
        out
    }
}

/// One resource's monitoring stream as it arrives from the outside world:
/// windows may be unsorted, overlapping, gappy, NaN, or negative. Ingestion
/// turns a set of these into a validated [`ResourceTrace`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RawSeries {
    /// The resource the windows claim to measure.
    pub instance: ResourceInstance,
    /// Measurement windows, in arrival order.
    pub measurements: Vec<Measurement>,
}

impl RawSeries {
    /// Decomposes a [`ResourceTrace`] back into raw series, e.g. to re-run
    /// a deserialized trace (whose contents bypassed validation) through
    /// ingestion.
    pub fn from_trace(rt: &ResourceTrace) -> Vec<RawSeries> {
        rt.instances()
            .iter()
            .enumerate()
            .map(|(r, inst)| RawSeries {
                instance: inst.clone(),
                measurements: rt.measurements(ResourceIdx(r as u32)).to_vec(),
            })
            .collect()
    }
}

/// Everything ingestion produces: validated traces plus the account of what
/// it took to get them.
#[derive(Clone, Debug)]
pub struct IngestedInput {
    /// The execution trace built from the (possibly repaired) event stream.
    pub trace: ExecutionTrace,
    /// The resource trace built from the (possibly repaired) monitoring.
    pub resources: ResourceTrace,
    /// What was repaired along the way.
    pub report: IngestReport,
}

/// Ingests an event stream and monitoring streams together under one
/// config, producing both traces and a combined report: the pipeline's
/// `ingest` row, run inline over the interned events, so its checks run in
/// the pipeline's order (the events, then the monitoring, then the trace
/// build).
pub fn ingest(
    model: &ExecutionModel,
    events: &[RawEvent],
    monitoring: &[RawSeries],
    cfg: &IngestConfig,
) -> Result<IngestedInput, Grade10Error> {
    crate::pipeline::ingest_inline(model, &EventStream::from_events(events), monitoring, *cfg)
}

/// Strict stream-level checks build_execution_trace does not make itself:
/// records must arrive in time order (log streams are append-ordered; a
/// regression signals clock skew or shipper reordering) and phase records
/// must not repeat exactly (a repeat signals a duplicating shipper). Block
/// records are exempt from the duplicate check: a thread that blocks twice
/// for zero duration at the same instant legitimately emits identical
/// records.
pub fn validate_event_stream(events: &[RawEvent]) -> Result<(), Grade10Error> {
    validate_records(&EventStream::from_events(events).records)
}

/// [`validate_event_stream`] over interned records. A phase record repeats
/// exactly when its time, machine, thread, kind and path id do.
pub(crate) fn validate_records(records: &[Record]) -> Result<(), Grade10Error> {
    for w in records.windows(2) {
        let (earlier, later) = (w[0].time, w[1].time);
        if later < earlier {
            return Err(Grade10Error::MalformedLog(format!(
                "events out of order: {later} after {earlier}"
            )));
        }
    }
    let mut seen: HashSet<&Record> = HashSet::with_capacity(records.len());
    for r in records {
        let is_phase = matches!(r.kind, RecordKind::PhaseStart(_) | RecordKind::PhaseEnd(_));
        if is_phase && !seen.insert(r) {
            return Err(Grade10Error::MalformedLog(format!(
                "duplicate record at t={} on machine {} thread {}",
                r.time, r.machine, r.thread
            )));
        }
    }
    Ok(())
}

/// Repairs a damaged raw event stream into one that satisfies the strict
/// contract, counting every repair in `report`:
///
/// * records are sorted by time (out-of-order arrivals counted);
/// * exact duplicate phase records are dropped (block records are exempt,
///   as in the strict contract — repeated zero-length bursts are
///   legitimate, and duplicated block records surface as pairing damage);
/// * per phase path: extra starts are dropped, the earliest start wins, the
///   latest end wins, a missing end is synthesized at stream end, and an
///   end before the start is clamped to zero duration;
/// * end events with no start are dropped;
/// * container phases whose own records were lost are reconstructed
///   spanning their surviving descendants;
/// * per (machine, thread, resource): block starts and ends are re-paired
///   in time order, with the same synthesis/drop rules.
pub fn repair_events(events: &[RawEvent], report: &mut IngestReport) -> Vec<RawEvent> {
    let stream = EventStream::from_events(events);
    let repaired = repair_events_opts(&stream.paths, &stream.records, true, report);
    stream.raw_events(&repaired)
}

/// [`repair_events`] over interned records, whose paths `paths` holds, with
/// ancestor synthesis switchable off. It emits records, so no path is
/// cloned or hashed again on the way to the trace build. When the ingest
/// stage splits the input per machine it repairs each machine's records
/// separately and must not synthesize container phases per machine — a
/// shared root would be reconstructed once per unit, duplicating its start
/// in the merged stream. Those units repair with `synthesize_ancestors:
/// false` and one pass over the merged survivors synthesizes instead.
pub(crate) fn repair_events_opts(
    paths: &PathTable,
    records: &[Record],
    synthesize_ancestors: bool,
    report: &mut IngestReport,
) -> Vec<Record> {
    // 1. Out-of-order count, then a stable sort by time.
    report.out_of_order_fixed += records.windows(2).filter(|w| w[1].time < w[0].time).count();
    let mut sorted: Vec<&Record> = records.iter().collect();
    sorted.sort_by_key(|r| r.time);

    // 2. Exact duplicates — phase records only, mirroring the strict
    // contract: a thread legitimately emits identical block records when it
    // blocks twice for zero duration at one instant, so those are left for
    // rank pairing, which silently merges legitimate zero-length repeats
    // and counts genuinely duplicated block records as pairing damage.
    let mut seen: HashSet<&Record> = HashSet::with_capacity(sorted.len());
    let mut unique: Vec<&Record> = Vec::with_capacity(sorted.len());
    for (i, r) in sorted.into_iter().enumerate() {
        if i.is_multiple_of(4096) {
            crate::supervise::checkpoint();
        }
        let is_phase = matches!(r.kind, RecordKind::PhaseStart(_) | RecordKind::PhaseEnd(_));
        if !is_phase || seen.insert(r) {
            unique.push(r);
        } else {
            report.duplicates_dropped += 1;
        }
    }
    let stream_end = unique.iter().map(|r| r.time).max().unwrap_or(0);

    // 3. Collect phase starts/ends per path id, order-independently — clock
    // damage can place an end *before* its start in the sorted stream.
    #[derive(Clone, Copy, Default)]
    struct Phase {
        starts: usize,
        /// The earliest start, with its machine and thread.
        first: Option<(Nanos, u16, u16)>,
        ends: usize,
        /// The latest end.
        last: Option<Nanos>,
    }
    let mut phases = vec![Phase::default(); paths.len()];
    // Block marks: (machine, thread, resource, is end, time).
    let mut marks: Vec<(u16, u16, NameId, bool, Nanos)> = Vec::new();
    for r in &unique {
        match r.kind {
            RecordKind::PhaseStart(id) => {
                let ph = &mut phases[id as usize];
                let start = (r.time, r.machine, r.thread);
                ph.starts += 1;
                ph.first = Some(ph.first.map_or(start, |first| first.min(start)));
            }
            RecordKind::PhaseEnd(id) => {
                let ph = &mut phases[id as usize];
                ph.ends += 1;
                ph.last = ph.last.max(Some(r.time));
            }
            RecordKind::BlockStart(resource) => {
                marks.push((r.machine, r.thread, resource, false, r.time))
            }
            RecordKind::BlockEnd(resource) => {
                marks.push((r.machine, r.thread, resource, true, r.time))
            }
        }
    }

    // 4. Close phases: earliest start wins, latest end wins; a missing end
    // is synthesized at stream end (crash truncation); an end preceding
    // the start is clamped to zero duration. Per path id, so in path order:
    // the phase as (start, end, machine, thread), if the path has one.
    let mut closed: Vec<Option<(Nanos, Nanos, u16, u16)>> = vec![None; paths.len()];
    for (ph, slot) in phases.iter().zip(&mut closed) {
        let Some((start, machine, thread)) = ph.first else {
            // Ends with no start at all: nothing to anchor a phase on.
            report.unmatched_ends_dropped += ph.ends;
            continue;
        };
        report.duplicate_starts_dropped += ph.starts - 1;
        let end = end_of(start, ph.last, stream_end, report);
        *slot = Some((start, end, machine, thread));
    }

    // 5. Pair blocks: k-th start with k-th end (bursts on one thread are
    // sequential, so rank pairing survives jitter); inverted pairs clamp
    // to zero length, excess ends drop, excess starts synthesize an end at
    // stream end. Overlapping repaired pairs are merged so the emitted
    // stream stays balanced under the strict parser's scan. Sorted, the
    // marks group by (machine, thread, resource), starts before ends, each
    // in time order; name ids order as the names do, so the groups (and
    // the emission order of tied block records) follow the names.
    marks.sort_unstable();
    let mut blocks: Vec<(u16, u16, NameId, Nanos, Nanos)> = Vec::new();
    let mut pairs: Vec<(Nanos, Nanos)> = Vec::new();
    for burst in marks.chunk_by(|a, b| (a.0, a.1, a.2) == (b.0, b.1, b.2)) {
        let (machine, thread, resource, ..) = burst[0];
        let (starts, mut ends) = burst.split_at(burst.partition_point(|m| !m.3));
        if ends.len() > starts.len() {
            report.unmatched_ends_dropped += ends.len() - starts.len();
            ends = &ends[ends.len() - starts.len()..];
        }
        pairs.clear();
        for (i, &(.., start)) in starts.iter().enumerate() {
            let end = ends.get(i).map(|&(.., end)| end);
            pairs.push((start, end_of(start, end, stream_end, report)));
        }
        pairs.sort_unstable();
        for &(start, end) in &pairs {
            match blocks.last_mut() {
                Some((m, t, r, _, prev_end))
                    if *m == machine && *t == thread && *r == resource && start <= *prev_end =>
                {
                    *prev_end = (*prev_end).max(end);
                }
                _ => blocks.push((machine, thread, resource, start, end)),
            }
        }
    }
    // Zero-length blocks carry no blocked time and would emit an End
    // before a Start at the same instant; drop them.
    blocks.retain(|&(.., start, end)| end > start);

    // 6. Reconstruct lost ancestors: every proper prefix of a surviving
    // path must itself be a phase; a missing one is synthesized spanning
    // the union of its surviving descendants, and takes the machine and
    // thread of the first of them in path order.
    if synthesize_ancestors {
        let mut lost: Vec<Option<(Nanos, Nanos, u16, u16)>> = vec![None; paths.len()];
        for (id, &phase) in closed.iter().enumerate() {
            let Some(phase @ (start, end, ..)) = phase else {
                continue;
            };
            let mut up = paths.parent(id as PathId);
            while let Some(p) = up {
                if closed[p as usize].is_none() {
                    let ancestor = lost[p as usize].get_or_insert(phase);
                    ancestor.0 = ancestor.0.min(start);
                    ancestor.1 = ancestor.1.max(end);
                }
                up = paths.parent(p);
            }
        }
        report.ancestors_synthesized += lost.iter().flatten().count();
        for (slot, ancestor) in closed.iter_mut().zip(lost) {
            *slot = slot.or(ancestor);
        }
    }

    // 7. Emit a balanced stream, phases in path order, then blocks. Tie-
    // breaking at equal timestamps matters because the strict parser keeps
    // arrival order among ties: parents must start before children, block
    // ends must precede block starts of the next burst, and children must
    // end before parents.
    let mut out: Vec<Record> = Vec::new();
    for (id, phase) in (0..).zip(closed) {
        if let Some((start, end, machine, thread)) = phase {
            out.push(Record {
                time: start,
                machine,
                thread,
                kind: RecordKind::PhaseStart(id),
            });
            out.push(Record {
                time: end,
                machine,
                thread,
                kind: RecordKind::PhaseEnd(id),
            });
        }
    }
    for (machine, thread, resource, start, end) in blocks {
        out.push(Record {
            time: start,
            machine,
            thread,
            kind: RecordKind::BlockStart(resource),
        });
        out.push(Record {
            time: end,
            machine,
            thread,
            kind: RecordKind::BlockEnd(resource),
        });
    }
    out.sort_by_key(|r| match r.kind {
        RecordKind::BlockEnd(_) => (r.time, 0, 0),
        RecordKind::PhaseStart(id) => (r.time, 1, paths.depth(id)),
        RecordKind::BlockStart(_) => (r.time, 2, 0),
        RecordKind::PhaseEnd(id) => (r.time, 3, usize::MAX - paths.depth(id)),
    });
    out
}

/// Where repair ends a phase or block that started at `start` and ended at
/// `end`, if it did: a missing end is synthesized at `stream_end` (crash
/// truncation), an end before the start is clamped to it. Counts either
/// repair.
fn end_of(start: Nanos, end: Option<Nanos>, stream_end: Nanos, report: &mut IngestReport) -> Nanos {
    match end {
        None => {
            report.missing_ends_synthesized += 1;
            stream_end.max(start)
        }
        Some(end) if end < start => {
            report.negative_durations_clamped += 1;
            start
        }
        Some(end) => end,
    }
}

/// Builds a resource trace from raw monitoring streams under the given
/// mode.
///
/// Strict mode rejects any window violating the monitoring contract with a
/// classified [`Grade10Error::InvalidMonitoring`]. Lenient mode repairs:
/// non-finite windows are dropped (becoming gaps), negative samples are
/// clamped to zero, windows are re-sorted and overlaps dropped, and
/// interior gaps are filled by linear interpolation between the
/// neighboring windows. Leading/trailing gaps are left uncovered for the
/// attribution stage's demand fallback to estimate.
pub fn ingest_monitoring(
    series: &[RawSeries],
    cfg: &IngestConfig,
    report: &mut IngestReport,
) -> Result<ResourceTrace, Grade10Error> {
    report.monitoring_windows_total += series.iter().map(|s| s.measurements.len()).sum::<usize>();
    let lenient = cfg.mode == IngestMode::Lenient;
    let bound = lenient.then(|| plausibility_bound(series)).flatten();
    ingest_series(series, cfg.mode, bound, report)
}

/// [`ingest_monitoring`] over any subset of the series, with the lenient
/// plausibility bound supplied by the caller: the bound is a cross-series
/// statistic, so a caller ingesting one machine's series at a time computes
/// it once over all of them.
pub(crate) fn ingest_series<'s>(
    series: impl IntoIterator<Item = &'s RawSeries>,
    mode: IngestMode,
    bound: Option<Nanos>,
    report: &mut IngestReport,
) -> Result<ResourceTrace, Grade10Error> {
    let mut rt = ResourceTrace::new();
    for s in series {
        match mode {
            IngestMode::Strict => {
                let idx = rt.try_add_resource(s.instance.clone())?;
                for &m in &s.measurements {
                    rt.try_add_measurement(idx, m)?;
                }
            }
            IngestMode::Lenient => {
                if !(s.instance.capacity.is_finite() && s.instance.capacity > 0.0) {
                    // A resource with no believable capacity cannot be
                    // attributed against; drop the whole series.
                    report.monitoring_invalid += s.measurements.len();
                    continue;
                }
                let repaired = repair_series(&s.measurements, bound, report);
                let idx = rt.add_resource(s.instance.clone());
                for &m in &repaired {
                    rt.add_measurement(idx, m);
                }
            }
        }
    }
    Ok(rt)
}

/// How many typical window durations a window (or a gap between windows)
/// may span before lenient repair quarantines it as timestamp damage. A
/// clock bomb multiplies a timestamp by orders of magnitude, so a generous
/// two-orders-of-magnitude margin never fires on organic jitter.
const QUARANTINE_FACTOR: Nanos = 100;

/// The cross-series sanity bound on window duration and placement:
/// `median valid window duration × QUARANTINE_FACTOR`, or `None` when no
/// series carries a structurally valid window.
///
/// The median is taken across *all* series, not per series: a bombed export
/// interval stretches every window of its series equally, so the series'
/// own statistics look self-consistent — only its peers reveal the damage.
pub(crate) fn plausibility_bound(series: &[RawSeries]) -> Option<Nanos> {
    let mut durations: Vec<Nanos> = series
        .iter()
        .flat_map(|s| s.measurements.iter())
        .filter(|m| m.avg.is_finite() && m.end > m.start)
        .map(|m| m.end - m.start)
        .collect();
    if durations.is_empty() {
        return None;
    }
    let mid = durations.len() / 2;
    let (_, median, _) = durations.select_nth_unstable(mid);
    (*median).checked_mul(QUARANTINE_FACTOR)
}

/// Lenient per-series window repair; see [`ingest_monitoring`]. `bound` is
/// the cross-series plausibility bound from [`plausibility_bound`]: windows
/// longer than it are quarantined, the series is cut at the first gap wider
/// than it (everything after a bombed timestamp is untrustworthy), and gaps
/// wider than it are never bridged by interpolation.
fn repair_series(
    measurements: &[Measurement],
    bound: Option<Nanos>,
    report: &mut IngestReport,
) -> Vec<Measurement> {
    // Drop structurally broken windows, clamp negatives, quarantine
    // implausibly long windows.
    let mut windows: Vec<Measurement> = Vec::with_capacity(measurements.len());
    for &m in measurements {
        if !m.avg.is_finite() || m.end <= m.start {
            report.monitoring_invalid += 1;
            continue;
        }
        if bound.is_some_and(|b| m.end - m.start > b) {
            report.monitoring_quarantined += 1;
            continue;
        }
        let mut m = m;
        if m.avg < 0.0 {
            report.monitoring_negatives_clamped += 1;
            m.avg = 0.0;
        }
        windows.push(m);
    }
    // Sort; count arrival-order violations.
    report.monitoring_out_of_order += windows
        .windows(2)
        .filter(|w| w[1].start < w[0].start)
        .count();
    windows.sort_by_key(|m| (m.start, m.end));
    // Drop overlapping windows (keep the earlier one).
    let mut kept: Vec<Measurement> = Vec::with_capacity(windows.len());
    for m in windows {
        match kept.last() {
            Some(last) if m.start < last.end => report.monitoring_out_of_order += 1,
            _ => kept.push(m),
        }
    }
    // Quarantine the tail past any implausibly wide gap: a window that sits
    // orders of magnitude after its predecessor got there via a damaged
    // timestamp, and keeping it would stretch the timeslice grid to match.
    if let Some(b) = bound {
        if let Some(cut) = kept.windows(2).position(|w| w[1].start - w[0].end > b) {
            report.monitoring_quarantined += kept.len() - (cut + 1);
            kept.truncate(cut + 1);
        }
    }
    // Interpolate interior gaps: one synthetic window per gap, its level
    // the mean of its two neighbors.
    let mut out: Vec<Measurement> = Vec::with_capacity(kept.len());
    for m in kept {
        if let Some(prev) = out.last() {
            if m.start > prev.end {
                report.monitoring_gaps_interpolated += 1;
                let filler = Measurement {
                    start: prev.end,
                    end: m.start,
                    avg: 0.5 * (prev.avg + m.avg),
                };
                out.push(filler);
            }
        }
        out.push(m);
    }
    out
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    use super::*;
    use crate::model::execution::{ExecutionModelBuilder, Repeat};
    use crate::parse::tests::{damage, random_stream, DAMAGE_CLASSES};
    use crate::parse::{build_execution_trace, build_trace_from, RawEventKind, RawPath};
    use crate::trace::timeslice::MILLIS;

    /// The record-keyed strict check the id-keyed one replaced, kept as the
    /// oracle of `interned_repair_matches_the_record_keyed_oracle`.
    fn validate_by_record(events: &[RawEvent]) -> Result<(), Grade10Error> {
        for w in events.windows(2) {
            let (earlier, later) = (w[0].time, w[1].time);
            if later < earlier {
                return Err(Grade10Error::MalformedLog(format!(
                    "events out of order: {later} after {earlier}"
                )));
            }
        }
        let mut seen: HashSet<&RawEvent> = HashSet::with_capacity(events.len());
        for ev in events {
            let is_phase = matches!(
                ev.kind,
                RawEventKind::PhaseStart { .. } | RawEventKind::PhaseEnd { .. }
            );
            if is_phase && !seen.insert(ev) {
                return Err(Grade10Error::MalformedLog(format!(
                    "duplicate record at t={} on machine {} thread {}",
                    ev.time, ev.machine, ev.thread
                )));
            }
        }
        Ok(())
    }

    /// The path-keyed repair the id-keyed one replaced, kept as the oracle of
    /// `interned_repair_matches_the_record_keyed_oracle`.
    fn repair_by_path(
        events: &[RawEvent],
        synthesize_ancestors: bool,
        report: &mut IngestReport,
    ) -> Vec<RawEvent> {
        // 1. Out-of-order count, then a stable sort by time.
        report.out_of_order_fixed += events.windows(2).filter(|w| w[1].time < w[0].time).count();
        let mut sorted: Vec<&RawEvent> = events.iter().collect();
        sorted.sort_by_key(|e| e.time);

        // 2. Exact duplicates — phase records only, mirroring the strict
        // contract: a thread legitimately emits identical block records when it
        // blocks twice for zero duration at one instant, so those are left for
        // rank pairing, which silently merges legitimate zero-length repeats
        // and counts genuinely duplicated block records as pairing damage.
        let mut seen: HashSet<&RawEvent> = HashSet::with_capacity(sorted.len());
        let mut unique: Vec<&RawEvent> = Vec::with_capacity(sorted.len());
        for (i, ev) in sorted.into_iter().enumerate() {
            if i.is_multiple_of(4096) {
                crate::supervise::checkpoint();
            }
            let is_phase = matches!(
                ev.kind,
                RawEventKind::PhaseStart { .. } | RawEventKind::PhaseEnd { .. }
            );
            if !is_phase || seen.insert(ev) {
                unique.push(ev);
            } else {
                report.duplicates_dropped += 1;
            }
        }
        let stream_end = unique.iter().map(|e| e.time).max().unwrap_or(0);

        // 3. Collect phase starts/ends per path, order-independently — clock
        // damage can place an end *before* its start in the sorted stream.
        #[derive(Default)]
        struct Phase {
            starts: Vec<(Nanos, u16, u16)>,
            ends: Vec<Nanos>,
        }
        let mut phases: HashMap<&RawPath, Phase> = HashMap::new();
        // Block starts/ends per (machine, thread, resource), in sorted order.
        #[derive(Default)]
        struct Burst {
            starts: Vec<Nanos>,
            ends: Vec<Nanos>,
        }
        let mut bursts: HashMap<(u16, u16, &str), Burst> = HashMap::new();

        for ev in &unique {
            match &ev.kind {
                RawEventKind::PhaseStart { path } => phases
                    .entry(path)
                    .or_default()
                    .starts
                    .push((ev.time, ev.machine, ev.thread)),
                RawEventKind::PhaseEnd { path } => {
                    phases.entry(path).or_default().ends.push(ev.time)
                }
                RawEventKind::BlockStart { resource } => bursts
                    .entry((ev.machine, ev.thread, resource.as_str()))
                    .or_default()
                    .starts
                    .push(ev.time),
                RawEventKind::BlockEnd { resource } => bursts
                    .entry((ev.machine, ev.thread, resource.as_str()))
                    .or_default()
                    .ends
                    .push(ev.time),
            }
        }

        // 4. Close phases: earliest start wins, latest end wins; a missing end
        // is synthesized at stream end (crash truncation); an end preceding
        // the start is clamped to zero duration.
        let mut closed: Vec<(RawPath, Nanos, Nanos, u16, u16)> = Vec::new();
        for (path, ph) in phases {
            let Some(&(start, machine, thread)) = ph.starts.iter().min() else {
                // Ends with no start at all: nothing to anchor a phase on.
                report.unmatched_ends_dropped += ph.ends.len();
                continue;
            };
            report.duplicate_starts_dropped += ph.starts.len() - 1;
            let end = match ph.ends.iter().max() {
                Some(&e) => e,
                None => {
                    report.missing_ends_synthesized += 1;
                    stream_end.max(start)
                }
            };
            let end = if end < start {
                report.negative_durations_clamped += 1;
                start
            } else {
                end
            };
            closed.push((path.clone(), start, end, machine, thread));
        }
        // Path order, not hash order: the ancestor scan below credits a
        // synthesized parent to the first descendant seen, and the final
        // emission sort breaks timestamp ties by insertion order — both must
        // not depend on HashMap iteration.
        closed.sort_unstable();

        // 5. Pair blocks: k-th start with k-th end (bursts on one thread are
        // sequential, so rank pairing survives jitter); inverted pairs clamp
        // to zero length, excess ends drop, excess starts synthesize an end at
        // stream end. Overlapping repaired pairs are merged so the emitted
        // stream stays balanced under the strict parser's scan.
        let mut blocks: Vec<(u16, u16, &str, Nanos, Nanos)> = Vec::new();
        let mut bursts: Vec<_> = bursts.into_iter().collect();
        bursts.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for ((machine, thread, resource), mut burst) in bursts {
            burst.starts.sort_unstable();
            burst.ends.sort_unstable();
            if burst.ends.len() > burst.starts.len() {
                report.unmatched_ends_dropped += burst.ends.len() - burst.starts.len();
                burst.ends.drain(..burst.ends.len() - burst.starts.len());
            }
            let mut pairs: Vec<(Nanos, Nanos)> = Vec::with_capacity(burst.starts.len());
            for (i, &start) in burst.starts.iter().enumerate() {
                let end = match burst.ends.get(i) {
                    Some(&e) => e,
                    None => {
                        report.missing_ends_synthesized += 1;
                        stream_end.max(start)
                    }
                };
                let end = if end < start {
                    report.negative_durations_clamped += 1;
                    start
                } else {
                    end
                };
                pairs.push((start, end));
            }
            pairs.sort_unstable();
            for (start, end) in pairs {
                match blocks.last_mut() {
                    Some((m, t, r, _, prev_end))
                        if *m == machine
                            && *t == thread
                            && *r == resource
                            && start <= *prev_end =>
                    {
                        *prev_end = (*prev_end).max(end);
                    }
                    _ => blocks.push((machine, thread, resource, start, end)),
                }
            }
        }
        // Zero-length blocks carry no blocked time and would emit an End
        // before a Start at the same instant; drop them.
        blocks.retain(|&(.., start, end)| end > start);

        // 6. Reconstruct lost ancestors: every proper prefix of a surviving
        // path must itself be a phase; a missing one is synthesized spanning
        // the union of its surviving descendants.
        if synthesize_ancestors {
            let have: HashSet<&[(String, u32)]> =
                closed.iter().map(|(p, ..)| p.as_slice()).collect();
            let mut missing: HashMap<RawPath, (Nanos, Nanos, u16, u16)> = HashMap::new();
            for (path, start, end, machine, thread) in &closed {
                for cut in 1..path.len() {
                    let prefix = &path[..cut];
                    if have.contains(prefix) {
                        continue;
                    }
                    missing
                        .entry(prefix.to_vec())
                        .and_modify(|(s, e, ..)| {
                            *s = (*s).min(*start);
                            *e = (*e).max(*end);
                        })
                        .or_insert((*start, *end, *machine, *thread));
                }
            }
            report.ancestors_synthesized += missing.len();
            closed.extend(
                missing
                    .into_iter()
                    .map(|(path, (s, e, m, t))| (path, s, e, m, t)),
            );
            // Restore path order over the appended ancestors (hash order).
            closed.sort_unstable();
        }

        // 7. Emit a balanced stream. Tie-breaking at equal timestamps matters
        // because the strict parser keeps arrival order among ties: parents
        // must start before children, block ends must precede block starts of
        // the next burst, and children must end before parents.
        let mut out: Vec<(Nanos, u8, usize, RawEvent)> = Vec::new();
        for (path, start, end, machine, thread) in closed {
            let depth = path.len();
            out.push((
                start,
                1,
                depth,
                RawEvent {
                    time: start,
                    machine,
                    thread,
                    kind: RawEventKind::PhaseStart { path: path.clone() },
                },
            ));
            out.push((
                end,
                3,
                usize::MAX - depth,
                RawEvent {
                    time: end,
                    machine,
                    thread,
                    kind: RawEventKind::PhaseEnd { path },
                },
            ));
        }
        for (machine, thread, resource, start, end) in blocks {
            out.push((
                start,
                2,
                0,
                RawEvent {
                    time: start,
                    machine,
                    thread,
                    kind: RawEventKind::BlockStart {
                        resource: resource.to_string(),
                    },
                },
            ));
            out.push((
                end,
                0,
                0,
                RawEvent {
                    time: end,
                    machine,
                    thread,
                    kind: RawEventKind::BlockEnd {
                        resource: resource.to_string(),
                    },
                },
            ));
        }
        out.sort_by_key(|a| (a.0, a.1, a.2));
        out.into_iter().map(|(_, _, _, ev)| ev).collect()
    }

    fn model() -> ExecutionModel {
        let mut b = ExecutionModelBuilder::new("job");
        let r = b.root();
        let step = b.child(r, "step", Repeat::Sequential);
        let _ = b.child(step, "task", Repeat::Parallel);
        b.build()
    }

    fn path(segs: &[(&str, u32)]) -> RawPath {
        segs.iter().map(|(n, k)| (n.to_string(), *k)).collect()
    }

    fn ev(time: Nanos, kind: RawEventKind) -> RawEvent {
        RawEvent {
            time,
            machine: 0,
            thread: 0,
            kind,
        }
    }

    fn clean_stream() -> Vec<RawEvent> {
        vec![
            ev(
                0,
                RawEventKind::PhaseStart {
                    path: path(&[("job", 0)]),
                },
            ),
            ev(
                0,
                RawEventKind::PhaseStart {
                    path: path(&[("job", 0), ("step", 0)]),
                },
            ),
            ev(
                10 * MILLIS,
                RawEventKind::PhaseEnd {
                    path: path(&[("job", 0), ("step", 0)]),
                },
            ),
            ev(
                10 * MILLIS,
                RawEventKind::PhaseEnd {
                    path: path(&[("job", 0)]),
                },
            ),
        ]
    }

    /// The id-keyed strict check and repair give exactly what the
    /// record-keyed oracles give — every error text, the materialized
    /// stream, every counter, and the trace built from it — on clean and
    /// damaged random streams, whole and split per machine as the
    /// supervised ingest stage splits them, with ancestor synthesis on and
    /// off.
    #[test]
    fn interned_repair_matches_the_record_keyed_oracle() {
        let m = crate::parse::tests::model();
        let mut rng = ChaCha8Rng::seed_from_u64(0x2e9a);
        let (mut rejected, mut repairs) = (0, 0);
        for case in 0..600 {
            let mut events = random_stream(&mut rng);
            damage(&mut rng, &mut events, case % DAMAGE_CLASSES);
            let synthesize = case % 2 == 0;
            let stream = EventStream::from_events(&events);
            let whole: Vec<usize> = (0..events.len()).collect();
            let of = |machine| -> Vec<usize> {
                whole
                    .iter()
                    .copied()
                    .filter(|&i| events[i].machine == machine)
                    .collect()
            };
            let shares = [whole.clone(), of(0), of(1)];
            for share in shares {
                let records: Vec<Record> = share.iter().map(|&i| stream.records[i]).collect();
                let raw: Vec<RawEvent> = share.iter().map(|&i| events[i].clone()).collect();
                let strict = validate_records(&records).map_err(|e| e.to_string());
                let oracle = validate_by_record(&raw).map_err(|e| e.to_string());
                assert_eq!(strict, oracle, "case {case}");
                rejected += usize::from(strict.is_err());

                let (mut mine, mut theirs) = (IngestReport::default(), IngestReport::default());
                let repaired = repair_events_opts(&stream.paths, &records, synthesize, &mut mine);
                let expected = repair_by_path(&raw, synthesize, &mut theirs);
                assert_eq!(stream.raw_events(&repaired), expected, "case {case}");
                assert_eq!(mine, theirs, "case {case}");
                repairs += mine.event_repairs();

                match (
                    build_trace_from(&m, &stream, &repaired),
                    build_execution_trace(&m, &expected),
                ) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.instances(), b.instances(), "case {case}");
                        assert_eq!(a.blocking(), b.blocking(), "case {case}");
                    }
                    (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "case {case}"),
                    (a, b) => panic!("case {case}: ids {:?}, oracle {:?}", a.err(), b.err()),
                }
            }
        }
        assert!(
            rejected >= 200 && repairs >= 1000,
            "{rejected} rejected, {repairs} repairs"
        );
    }

    #[test]
    fn clean_stream_repairs_to_itself() {
        let events = clean_stream();
        let mut report = IngestReport::default();
        let repaired = repair_events(&events, &mut report);
        assert_eq!(repaired, events);
        assert!(report.is_clean());
        assert_eq!(report.quality_score(), 1.0);
    }

    #[test]
    fn strict_rejects_out_of_order_and_duplicates() {
        let mut events = clean_stream();
        events.swap(2, 3);
        // Same timestamps, so swapping alone is still monotone; shift one.
        events[2].time += 1;
        let err = validate_event_stream(&events).unwrap_err();
        assert!(matches!(err, Grade10Error::MalformedLog(_)));
        assert!(err.is_recoverable());

        let mut dup = clean_stream();
        dup.insert(1, dup[0].clone());
        let err = validate_event_stream(&dup).unwrap_err();
        assert!(err.detail().contains("duplicate"), "{err}");
    }

    #[test]
    fn strict_allows_repeated_zero_length_blocks() {
        // A thread that blocks twice for zero duration at one instant emits
        // two identical start/end pairs — legitimate, not shipper damage.
        let mut events = clean_stream();
        let t = 5 * MILLIS;
        for _ in 0..2 {
            events.insert(
                2,
                ev(
                    t,
                    RawEventKind::BlockEnd {
                        resource: "barrier".into(),
                    },
                ),
            );
            events.insert(
                2,
                ev(
                    t,
                    RawEventKind::BlockStart {
                        resource: "barrier".into(),
                    },
                ),
            );
        }
        assert!(validate_event_stream(&events).is_ok());
    }

    #[test]
    fn repair_sorts_and_dedups() {
        let mut events = clean_stream();
        events.swap(0, 3); // ends before starts
        events.push(events[1].clone()); // exact duplicate
        let mut report = IngestReport::default();
        let repaired = repair_events(&events, &mut report);
        assert!(report.out_of_order_fixed >= 1);
        assert_eq!(report.duplicates_dropped, 1);
        let trace = build_execution_trace(&model(), &repaired).unwrap();
        assert_eq!(trace.instances().len(), 2);
    }

    #[test]
    fn repair_synthesizes_missing_end_at_stream_end() {
        let mut events = clean_stream();
        events.remove(3); // job never ends
        let mut report = IngestReport::default();
        let repaired = repair_events(&events, &mut report);
        assert_eq!(report.missing_ends_synthesized, 1);
        let trace = build_execution_trace(&model(), &repaired).unwrap();
        let job = &trace.instances()[0];
        assert_eq!(job.end, 10 * MILLIS); // stream end
    }

    #[test]
    fn repair_drops_orphan_end_and_duplicate_start() {
        let mut events = clean_stream();
        events.insert(
            1,
            ev(
                5,
                RawEventKind::PhaseStart {
                    path: path(&[("job", 0)]),
                },
            ),
        );
        events.push(ev(
            11 * MILLIS,
            RawEventKind::PhaseEnd {
                path: path(&[("job", 0), ("step", 1)]),
            },
        ));
        let mut report = IngestReport::default();
        let repaired = repair_events(&events, &mut report);
        assert_eq!(report.duplicate_starts_dropped, 1);
        assert_eq!(report.unmatched_ends_dropped, 1);
        let trace = build_execution_trace(&model(), &repaired).unwrap();
        assert_eq!(trace.instances().len(), 2);
        assert_eq!(trace.instances()[0].start, 0); // earliest start wins
    }

    #[test]
    fn repair_clamps_negative_duration() {
        let events = vec![
            ev(
                20,
                RawEventKind::PhaseStart {
                    path: path(&[("job", 0)]),
                },
            ),
            ev(
                5,
                RawEventKind::PhaseEnd {
                    path: path(&[("job", 0)]),
                },
            ),
        ];
        let mut report = IngestReport::default();
        let repaired = repair_events(&events, &mut report);
        assert_eq!(report.negative_durations_clamped, 1);
        let trace = build_execution_trace(&model(), &repaired).unwrap();
        assert_eq!(trace.instances()[0].start, trace.instances()[0].end);
    }

    #[test]
    fn repair_reconstructs_lost_ancestors() {
        let events = vec![
            // Only the innermost task survives; job and step were dropped.
            ev(
                2 * MILLIS,
                RawEventKind::PhaseStart {
                    path: path(&[("job", 0), ("step", 0), ("task", 1)]),
                },
            ),
            ev(
                8 * MILLIS,
                RawEventKind::PhaseEnd {
                    path: path(&[("job", 0), ("step", 0), ("task", 1)]),
                },
            ),
        ];
        let mut report = IngestReport::default();
        let repaired = repair_events(&events, &mut report);
        assert_eq!(report.ancestors_synthesized, 2);
        let trace = build_execution_trace(&model(), &repaired).unwrap();
        assert_eq!(trace.instances().len(), 3);
        // Ancestors span the surviving descendant.
        assert!(trace.instances().iter().all(|i| i.start == 2 * MILLIS));
        assert!(trace.instances().iter().all(|i| i.end == 8 * MILLIS));
    }

    #[test]
    fn repair_balances_blocks() {
        let events = vec![
            ev(
                0,
                RawEventKind::PhaseStart {
                    path: path(&[("job", 0)]),
                },
            ),
            ev(
                MILLIS,
                RawEventKind::BlockStart {
                    resource: "gc".into(),
                },
            ),
            // No BlockEnd: crashed mid-block. Also an orphan end:
            ev(
                2 * MILLIS,
                RawEventKind::BlockEnd {
                    resource: "msgq".into(),
                },
            ),
            ev(
                10 * MILLIS,
                RawEventKind::PhaseEnd {
                    path: path(&[("job", 0)]),
                },
            ),
        ];
        let mut report = IngestReport::default();
        let repaired = repair_events(&events, &mut report);
        assert_eq!(report.missing_ends_synthesized, 1);
        assert_eq!(report.unmatched_ends_dropped, 1);
        let trace = build_execution_trace(&model(), &repaired).unwrap();
        assert_eq!(trace.blocking().len(), 1);
        assert_eq!(trace.blocking()[0].end, 10 * MILLIS);
    }

    fn series(samples: &[f64]) -> RawSeries {
        let mut ms = Vec::new();
        for (i, &avg) in samples.iter().enumerate() {
            ms.push(Measurement {
                start: i as Nanos * 10 * MILLIS,
                end: (i as Nanos + 1) * 10 * MILLIS,
                avg,
            });
        }
        RawSeries {
            instance: ResourceInstance {
                kind: "cpu".into(),
                machine: Some(0),
                capacity: 4.0,
            },
            measurements: ms,
        }
    }

    #[test]
    fn strict_monitoring_rejects_nan_negative_and_overlap() {
        let cfg = IngestConfig::default();
        for bad in [f64::NAN, -1.0] {
            let mut report = IngestReport::default();
            let err = ingest_monitoring(&[series(&[1.0, bad])], &cfg, &mut report).unwrap_err();
            assert!(matches!(err, Grade10Error::InvalidMonitoring(_)), "{err}");
            assert!(err.is_recoverable());
        }
        let mut s = series(&[1.0, 2.0]);
        s.measurements.swap(0, 1);
        let mut report = IngestReport::default();
        let err = ingest_monitoring(&[s], &cfg, &mut report).unwrap_err();
        assert!(err.detail().contains("out of order"), "{err}");
    }

    #[test]
    fn lenient_monitoring_interpolates_interior_nan() {
        let cfg = IngestConfig::lenient();
        let mut report = IngestReport::default();
        let rt = ingest_monitoring(&[series(&[1.0, f64::NAN, 3.0])], &cfg, &mut report).unwrap();
        let idx = rt.find("cpu", Some(0)).unwrap();
        let ms = rt.measurements(idx);
        assert_eq!(ms.len(), 3);
        assert_eq!(report.monitoring_invalid, 1);
        assert_eq!(report.monitoring_gaps_interpolated, 1);
        // The gap window carries the neighbor mean.
        assert!((ms[1].avg - 2.0).abs() < 1e-12, "{}", ms[1].avg);
    }

    #[test]
    fn lenient_monitoring_clamps_negatives_and_leaves_edges() {
        let cfg = IngestConfig::lenient();
        let mut report = IngestReport::default();
        let rt = ingest_monitoring(
            &[series(&[f64::NAN, -2.0, 3.0, f64::NAN])],
            &cfg,
            &mut report,
        )
        .unwrap();
        let idx = rt.find("cpu", Some(0)).unwrap();
        let ms = rt.measurements(idx);
        // Edge NaNs become uncovered time, not synthetic windows.
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].avg, 0.0);
        assert_eq!(report.monitoring_negatives_clamped, 1);
        assert_eq!(report.monitoring_invalid, 2);
        assert_eq!(ms[0].start, 10 * MILLIS);
        assert_eq!(ms[1].end, 30 * MILLIS);
    }

    #[test]
    fn lenient_monitoring_drops_invalid_capacity_series() {
        let cfg = IngestConfig::lenient();
        let mut report = IngestReport::default();
        let mut s = series(&[1.0, 2.0]);
        s.instance.capacity = f64::NAN;
        let rt = ingest_monitoring(&[s], &cfg, &mut report).unwrap();
        assert!(rt.instances().is_empty());
        assert_eq!(report.monitoring_invalid, 2);
    }

    #[test]
    fn lenient_monitoring_quarantines_bombed_window() {
        // One window whose end timestamp was multiplied by a bomb: its
        // duration dwarfs the stream's typical 10ms window.
        let cfg = IngestConfig::lenient();
        let mut s = series(&[1.0, 2.0, 3.0, 4.0]);
        s.measurements[1].end = s.measurements[1].start + 10_000_000 * MILLIS;
        let mut report = IngestReport::default();
        let rt = ingest_monitoring(&[s], &cfg, &mut report).unwrap();
        assert_eq!(report.monitoring_quarantined, 1);
        let idx = rt.find("cpu", Some(0)).unwrap();
        // The bombed window is gone; its slot becomes an interpolated gap,
        // and the grid end stays at the organic 40ms.
        assert_eq!(rt.measurements(idx).len(), 4);
        assert_eq!(rt.end(), 40 * MILLIS);
        assert_eq!(report.monitoring_gaps_interpolated, 1);
    }

    #[test]
    fn lenient_monitoring_quarantines_bombed_interval_series() {
        // A whole series exported with a ×1000 interval looks internally
        // consistent; only the cross-series median reveals it.
        let cfg = IngestConfig::lenient();
        let normal_a = series(&[1.0, 2.0, 3.0]);
        let normal_b = series(&[0.5, 0.5, 0.5]);
        let mut bombed = series(&[1.0, 2.0, 3.0]);
        bombed.instance.kind = "network".into();
        for m in &mut bombed.measurements {
            m.start *= 1000;
            m.end *= 1000;
        }
        let mut report = IngestReport::default();
        let rt = ingest_monitoring(&[normal_a, normal_b, bombed], &cfg, &mut report).unwrap();
        assert_eq!(report.monitoring_quarantined, 3);
        let idx = rt.find("network", Some(0)).unwrap();
        assert!(rt.measurements(idx).is_empty());
        // The healthy series are untouched and the grid stays small.
        assert_eq!(rt.end(), 30 * MILLIS);
        assert!(!report.is_clean());
    }

    #[test]
    fn lenient_monitoring_cuts_tail_after_bombed_gap() {
        // One bombed *start* pushes a window (and everything after it) far
        // past the organic end of the stream; the tail is quarantined
        // rather than bridged by interpolation.
        let cfg = IngestConfig::lenient();
        let mut s = series(&[1.0, 2.0, 3.0, 4.0]);
        for m in &mut s.measurements[2..] {
            m.start += 10_000_000 * MILLIS;
            m.end += 10_000_000 * MILLIS;
        }
        let mut report = IngestReport::default();
        let rt = ingest_monitoring(&[s], &cfg, &mut report).unwrap();
        assert_eq!(report.monitoring_quarantined, 2);
        assert_eq!(report.monitoring_gaps_interpolated, 0);
        let idx = rt.find("cpu", Some(0)).unwrap();
        assert_eq!(rt.measurements(idx).len(), 2);
        assert_eq!(rt.end(), 20 * MILLIS);
    }

    #[test]
    fn clean_monitoring_is_not_quarantined() {
        let cfg = IngestConfig::lenient();
        let mut report = IngestReport::default();
        let rt = ingest_monitoring(&[series(&[1.0, 2.0, 3.0])], &cfg, &mut report).unwrap();
        assert_eq!(report.monitoring_quarantined, 0);
        assert!(report.is_clean());
        let idx = rt.find("cpu", Some(0)).unwrap();
        assert_eq!(rt.measurements(idx).len(), 3);
    }

    #[test]
    fn quality_score_degrades_with_damage() {
        let mut r = IngestReport {
            events_total: 100,
            monitoring_windows_total: 100,
            ..Default::default()
        };
        assert_eq!(r.quality_score(), 1.0);
        r.duplicates_dropped = 10;
        let one_fault = r.quality_score();
        assert!(one_fault < 1.0 && one_fault > 0.9, "{one_fault}");
        r.monitoring_invalid = 50;
        let two_faults = r.quality_score();
        assert!(two_faults < one_fault);
        assert!(r.quality_score() >= 0.0);
        assert!(!r.is_clean());
    }

    #[test]
    fn ingest_combines_events_and_monitoring() {
        let mut events = clean_stream();
        events.remove(3);
        let out = ingest(
            &model(),
            &events,
            &[series(&[1.0, f64::NAN, 3.0])],
            &IngestConfig::lenient(),
        )
        .unwrap();
        assert_eq!(out.trace.instances().len(), 2);
        assert_eq!(out.resources.instances().len(), 1);
        assert_eq!(out.report.missing_ends_synthesized, 1);
        assert_eq!(out.report.monitoring_gaps_interpolated, 1);
        assert!(out.report.quality_score() < 1.0);
        // The same damaged input is rejected strictly, with recoverable
        // classification.
        let err = ingest(&model(), &events, &[], &IngestConfig::default()).unwrap_err();
        assert!(err.is_recoverable(), "{err}");
    }
}
