//! Deterministic fault injection for the data-collection path.
//!
//! Grade10 consumes two streams from the system under test: execution logs
//! and monitoring data (§III-C). On a real cluster both are produced by
//! best-effort agents — NTP-skewed clocks, UDP log shippers, crashing
//! workers, monitoring daemons that miss windows. This module corrupts the
//! *pristine* streams leaving the simulator in exactly those ways, so the
//! ingestion layer's strict/lenient behavior can be exercised under a
//! seeded, reproducible fault model.
//!
//! A [`FaultPlan`] is a seed and a set of enabled [`FaultClass`]es; each
//! class corrupts at one fixed severity (the constants below). Every random
//! choice derives from the plan's seed through per-fault sub-streams:
//! enabling one fault never changes the random choices of another, and
//! re-running with the same seed reproduces the same corruption byte for
//! byte.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::logging::{LogEvent, LogRecord};
use crate::monitor::ResourceSeries;
use crate::time::{SimDuration, SimTime};

// Distinct stream tags so each fault draws from its own RNG stream.
const TAG_SKEW: u64 = 0x5157_4b45_0000_0001;
const TAG_REORDER: u64 = 0x5157_4b45_0000_0002;
const TAG_DROP: u64 = 0x5157_4b45_0000_0003;
const TAG_DUP: u64 = 0x5157_4b45_0000_0004;
const TAG_TRUNC: u64 = 0x5157_4b45_0000_0005;
const TAG_MON: u64 = 0x5157_4b45_0000_0006;
const TAG_MISSING: u64 = 0x5157_4b45_0000_0007;
const TAG_BOMB: u64 = 0x5157_4b45_0000_0008;

/// Largest offset a machine's clock runs fast by (NTP drift).
const MAX_SKEW: SimDuration = SimDuration::from_millis(50);
/// Share of records whose timestamp log shipping displaces...
const REORDER_FRACTION: f64 = 0.25;
/// ...by up to this much in either direction.
const MAX_DISPLACEMENT: SimDuration = SimDuration::from_millis(5);
/// Share of records lost (lossy log shipping).
const DROP_FRACTION: f64 = 0.05;
/// Share of records delivered twice (at-least-once log shipping).
const DUPLICATE_FRACTION: f64 = 0.05;
/// Share of the crashing machine's time span whose records survive.
const TRUNCATE_KEEP: f64 = 0.7;
/// Share of monitoring samples replaced by NaN (a missed window)...
const NAN_FRACTION: f64 = 0.1;
/// ...and share of the remaining ones made negative (a buggy agent).
const NEGATIVE_FRACTION: f64 = 0.05;
/// Multiplier of the bombed timestamp and sampling interval: large enough
/// that even a bomb landing on an early record pushes the trace end orders
/// of magnitude past the grid budget — the guard, not luck, must absorb it.
const BOMB_FACTOR: u64 = 100_000;

/// The fault classes the harness can inject, for CLI flags and sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Per-machine constant clock offset, up to 50 ms. Breaks
    /// cross-machine timestamp monotonicity.
    ClockSkew,
    /// A quarter of the records jittered by up to 5 ms either way, as if
    /// log shipping delivered them late or early.
    Reorder,
    /// 5 % of the records lost.
    Drop,
    /// 5 % of the records delivered twice.
    Duplicate,
    /// One machine crashes mid-run: its log records and monitoring samples
    /// after 70 % of its active time span are lost.
    Truncate,
    /// 10 % of the monitoring samples NaN (missed windows), then 5 % of the
    /// rest sign-flipped (a buggy collection agent).
    Monitoring,
    /// One machine's log stream lost entirely (dead log shipper) while its
    /// monitoring daemon keeps reporting: the supervised ingestion path
    /// should degrade that machine to monitoring-only coverage, not fail
    /// the run.
    MachineMissing,
    /// A single far-future timestamp (a "clock bomb"): one log record's
    /// time and one monitoring series' sampling interval are multiplied by
    /// 100 000. Lenient ingestion survives both, but the bombed timestamps
    /// would inflate the timeslice grid by orders of magnitude — this is
    /// the fault the supervision budget guard and monitoring quarantine
    /// exist for.
    TimestampBomb,
}

impl FaultClass {
    /// All classes, in a fixed order.
    pub const ALL: [FaultClass; 8] = [
        FaultClass::ClockSkew,
        FaultClass::Reorder,
        FaultClass::Drop,
        FaultClass::Duplicate,
        FaultClass::Truncate,
        FaultClass::Monitoring,
        FaultClass::MachineMissing,
        FaultClass::TimestampBomb,
    ];

    /// The record-level stream-damage classes lenient ingestion repairs on
    /// its own: everything except [`MachineMissing`](Self::MachineMissing)
    /// and [`TimestampBomb`](Self::TimestampBomb), which need the
    /// supervision layer (coverage accounting, budget guard, quarantine)
    /// to handle gracefully.
    pub const STREAM_DAMAGE: [FaultClass; 6] = [
        FaultClass::ClockSkew,
        FaultClass::Reorder,
        FaultClass::Drop,
        FaultClass::Duplicate,
        FaultClass::Truncate,
        FaultClass::Monitoring,
    ];

    /// Stable CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            FaultClass::ClockSkew => "clock-skew",
            FaultClass::Reorder => "reorder",
            FaultClass::Drop => "drop",
            FaultClass::Duplicate => "duplicate",
            FaultClass::Truncate => "truncate",
            FaultClass::Monitoring => "monitoring",
            FaultClass::MachineMissing => "machine-missing",
            FaultClass::TimestampBomb => "timestamp-bomb",
        }
    }

    /// Parses a CLI name ([`name`](Self::name) inverse).
    pub fn from_name(s: &str) -> Option<FaultClass> {
        FaultClass::ALL.iter().find(|c| c.name() == s).copied()
    }
}

/// A seeded, reproducible corruption plan for one run's output streams:
/// the seed and the classes it enables, each at its fixed severity.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed all random choices derive from.
    pub seed: u64,
    /// Whether each class is on, indexed in [`FaultClass::ALL`] order.
    on: [bool; FaultClass::ALL.len()],
}

impl FaultPlan {
    /// A plan with no faults enabled (identity transform).
    pub fn clean(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..Default::default()
        }
    }

    /// Enables one fault class.
    pub fn single(class: FaultClass, seed: u64) -> FaultPlan {
        let mut p = FaultPlan::clean(seed);
        p.enable(class);
        p
    }

    /// Enables every *stream-damage* class (see
    /// [`FaultClass::STREAM_DAMAGE`]): the damage lenient ingestion can
    /// repair end to end. For the full hostile set including machine loss
    /// and timestamp bombs, use [`FaultPlan::hostile`].
    pub fn all(seed: u64) -> FaultPlan {
        let mut p = FaultPlan::clean(seed);
        for c in FaultClass::STREAM_DAMAGE {
            p.enable(c);
        }
        p
    }

    /// Enables every fault class, including the ones only the supervised
    /// pipeline handles gracefully (machine loss, timestamp bombs).
    pub fn hostile(seed: u64) -> FaultPlan {
        let mut p = FaultPlan::clean(seed);
        for c in FaultClass::ALL {
            p.enable(c);
        }
        p
    }

    /// Parses a fault spec — `all`, `hostile`, or a comma-separated class
    /// list — into a plan seeded with `seed`: the grammar of `demo
    /// --inject` and of a campaign's fault axis.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        match spec {
            "all" => return Ok(FaultPlan::all(seed)),
            "hostile" => return Ok(FaultPlan::hostile(seed)),
            _ => {}
        }
        let mut plan = FaultPlan::clean(seed);
        for name in spec.split(',') {
            let class = FaultClass::from_name(name.trim())
                .ok_or_else(|| format!("unknown fault class '{name}'"))?;
            plan.enable(class);
        }
        Ok(plan)
    }

    /// Turns one class on.
    pub fn enable(&mut self, class: FaultClass) -> &mut Self {
        self.on[class as usize] = true;
        self
    }

    /// The classes this plan enables, in [`FaultClass::ALL`] order.
    pub fn enabled(&self) -> Vec<FaultClass> {
        FaultClass::ALL
            .into_iter()
            .filter(|&c| self.is_on(c))
            .collect()
    }

    fn is_on(&self, class: FaultClass) -> bool {
        self.on[class as usize]
    }

    fn stream(&self, tag: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(self.seed ^ tag)
    }

    /// A machine's clock offset: order-independent (derived from the seed
    /// and the machine id, not from draw order).
    fn skew_of(&self, machine: u16) -> SimDuration {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ TAG_SKEW ^ (machine as u64) << 32);
        SimDuration(rng.gen_range(0..=MAX_SKEW.as_nanos()))
    }

    /// The crashing machine for a cluster of `machines` machines. Both log
    /// and monitoring truncation use this, so the "crash" is consistent
    /// across streams.
    fn crash_site(&self, machines: u64) -> Option<u16> {
        if machines == 0 {
            return None;
        }
        Some(self.stream(TAG_TRUNC).gen_range(0..machines) as u16)
    }

    /// Applies the enabled log faults, in order: clock skew, reordering,
    /// drops, duplication, truncation, machine loss, the timestamp bomb.
    /// The output preserves the input's *arrival* order — corrupted
    /// timestamps are deliberately left non-monotone, exactly as a
    /// collector would see them.
    pub fn inject_logs(&self, logs: &[LogRecord]) -> Vec<LogRecord> {
        let mut out: Vec<LogRecord> = logs.to_vec();

        if self.is_on(FaultClass::ClockSkew) {
            for rec in &mut out {
                rec.time += self.skew_of(rec.machine);
            }
        }

        if self.is_on(FaultClass::Reorder) {
            let mut rng = self.stream(TAG_REORDER);
            let max = MAX_DISPLACEMENT.as_nanos();
            for rec in &mut out {
                if rng.gen_bool(REORDER_FRACTION) {
                    let delta = rng.gen_range(0..=2 * max);
                    rec.time = SimTime((rec.time.0 + delta).saturating_sub(max));
                }
            }
        }

        if self.is_on(FaultClass::Drop) {
            let mut rng = self.stream(TAG_DROP);
            out.retain(|_| !rng.gen_bool(DROP_FRACTION));
        }

        if self.is_on(FaultClass::Duplicate) {
            let mut rng = self.stream(TAG_DUP);
            let mut dup = Vec::with_capacity(out.len());
            for rec in out {
                let twice = rng.gen_bool(DUPLICATE_FRACTION);
                dup.push(rec.clone());
                if twice {
                    dup.push(rec);
                }
            }
            out = dup;
        }

        if self.is_on(FaultClass::Truncate) {
            let machines = out.iter().map(|r| r.machine as u64 + 1).max().unwrap_or(0);
            if let Some(victim) = self.crash_site(machines) {
                let span: Vec<u64> = out
                    .iter()
                    .filter(|r| r.machine == victim)
                    .map(|r| r.time.0)
                    .collect();
                if let (Some(&lo), Some(&hi)) = (span.iter().min(), span.iter().max()) {
                    let cut = lo + ((hi - lo) as f64 * TRUNCATE_KEEP) as u64;
                    out.retain(|r| r.machine != victim || r.time.0 <= cut);
                }
            }
        }

        if self.is_on(FaultClass::MachineMissing) {
            // One victim, and only where another machine keeps logging.
            let machines = out.iter().map(|r| r.machine as u64 + 1).max().unwrap_or(0);
            if machines > 1 {
                let victim = self.stream(TAG_MISSING).gen_range(0..machines) as u16;
                out.retain(|r| r.machine != victim);
            }
        }

        if self.is_on(FaultClass::TimestampBomb) {
            // Bomb a *phase* record from the first half of the stream: a
            // bombed phase timestamp stretches the reconstructed trace (and
            // with it the timeslice grid) by the bomb factor, which is the
            // failure mode the supervision budget guard exists for. Block
            // records only stretch blocked intervals, not the makespan.
            let phase_idx: Vec<usize> = out
                .iter()
                .enumerate()
                .filter(|(_, r)| {
                    matches!(
                        r.event,
                        LogEvent::PhaseStart { .. } | LogEvent::PhaseEnd { .. }
                    )
                })
                .map(|(i, _)| i)
                .collect();
            if !phase_idx.is_empty() {
                let mut rng = self.stream(TAG_BOMB);
                let pick = rng.gen_range(0..(phase_idx.len() / 2).max(1));
                let t = &mut out[phase_idx[pick]].time;
                *t = SimTime(t.0.max(1).saturating_mul(BOMB_FACTOR));
            }
        }

        out
    }

    /// Applies the enabled monitoring faults: sample corruption
    /// (NaN / negative readings), the worker crash, which truncates the
    /// victim machine's series at the same point in time as its logs, and
    /// the timestamp bomb's inflated sampling interval.
    pub fn inject_series(&self, series: &[ResourceSeries]) -> Vec<ResourceSeries> {
        let mut out: Vec<ResourceSeries> = series.to_vec();

        if self.is_on(FaultClass::Monitoring) {
            let mut rng = self.stream(TAG_MON);
            for s in &mut out {
                for v in &mut s.samples {
                    if rng.gen_bool(NAN_FRACTION) {
                        *v = f64::NAN;
                    } else if rng.gen_bool(NEGATIVE_FRACTION) {
                        *v = -v.abs() - 1.0;
                    }
                }
            }
        }

        if self.is_on(FaultClass::Truncate) {
            let machines = out
                .iter()
                .map(|s| s.spec.machine as u64 + 1)
                .max()
                .unwrap_or(0);
            if let Some(victim) = self.crash_site(machines) {
                for s in &mut out {
                    if s.spec.machine != victim || s.samples.is_empty() {
                        continue;
                    }
                    let span = s.interval.as_nanos() * s.samples.len() as u64;
                    let cut = (span as f64 * TRUNCATE_KEEP) as u64;
                    let kept = (cut / s.interval.as_nanos().max(1)) as usize;
                    s.samples.truncate(kept.min(s.samples.len()));
                }
            }
        }

        // MachineMissing deliberately leaves monitoring alone: the victim's
        // monitoring daemon outlives its log shipper.

        if self.is_on(FaultClass::TimestampBomb) && !out.is_empty() {
            // One series reports with a wildly inflated interval, as if its
            // collector misread its own clock: every window in the series
            // becomes implausibly long.
            let idx = self.stream(TAG_BOMB).gen_range(0..out.len());
            let s = &mut out[idx];
            s.interval = SimDuration(s.interval.as_nanos().saturating_mul(BOMB_FACTOR));
        }

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logging::{LogEvent, PhasePath};
    use crate::monitor::{ResourceKind, ResourceSpec};

    fn sample_logs() -> Vec<LogRecord> {
        let mut out = Vec::new();
        for m in 0..3u16 {
            let path = PhasePath::root().child("job", 0).child("worker", m as u32);
            out.push(LogRecord {
                time: SimTime(1_000_000 * (m as u64 + 1)),
                machine: m,
                thread: 0,
                event: LogEvent::PhaseStart { path: path.clone() },
            });
            out.push(LogRecord {
                time: SimTime(100_000_000 + 1_000_000 * (m as u64 + 1)),
                machine: m,
                thread: 0,
                event: LogEvent::PhaseEnd { path },
            });
        }
        out.sort_by_key(|r| r.time);
        out
    }

    fn sample_series() -> Vec<ResourceSeries> {
        (0..3u16)
            .map(|m| ResourceSeries {
                spec: ResourceSpec {
                    kind: ResourceKind::Cpu,
                    machine: m,
                    capacity: 4.0,
                },
                interval: SimDuration::from_millis(10),
                samples: vec![1.0; 20],
            })
            .collect()
    }

    #[test]
    fn clean_plan_is_identity() {
        let p = FaultPlan::clean(7);
        assert_eq!(p.inject_logs(&sample_logs()), sample_logs());
        assert_eq!(p.inject_series(&sample_series()), sample_series());
        assert!(p.enabled().is_empty());
    }

    #[test]
    fn same_seed_reproduces_exactly() {
        let a = FaultPlan::all(42);
        let b = FaultPlan::all(42);
        assert_eq!(a.inject_logs(&sample_logs()), b.inject_logs(&sample_logs()));
        // NaN != NaN, so compare the debug form (bit-identical streams).
        assert_eq!(
            format!("{:?}", a.inject_series(&sample_series())),
            format!("{:?}", b.inject_series(&sample_series()))
        );
    }

    #[test]
    fn different_seeds_differ() {
        let logs = sample_logs();
        let a = FaultPlan::single(FaultClass::ClockSkew, 1).inject_logs(&logs);
        let b = FaultPlan::single(FaultClass::ClockSkew, 2).inject_logs(&logs);
        assert_ne!(a, b);
    }

    #[test]
    fn clock_skew_shifts_but_keeps_count() {
        let logs = sample_logs();
        let out = FaultPlan::single(FaultClass::ClockSkew, 3).inject_logs(&logs);
        assert_eq!(out.len(), logs.len());
        // Events on the same machine shift by the same offset.
        let offsets: Vec<u64> = out
            .iter()
            .zip(&logs)
            .map(|(a, b)| a.time.0 - b.time.0)
            .collect();
        for (o, rec) in offsets.iter().zip(&logs) {
            let other = out
                .iter()
                .zip(&logs)
                .filter(|(_, b)| b.machine == rec.machine)
                .map(|(a, b)| a.time.0 - b.time.0);
            for o2 in other {
                assert_eq!(*o, o2);
            }
        }
    }

    #[test]
    fn drop_and_duplicate_change_count() {
        let logs: Vec<LogRecord> = (0..200)
            .flat_map(|_| sample_logs())
            .enumerate()
            .map(|(i, mut r)| {
                r.time = SimTime(r.time.0 + i as u64);
                r
            })
            .collect();
        let dropped = FaultPlan::single(FaultClass::Drop, 5).inject_logs(&logs);
        assert!(dropped.len() < logs.len());
        let duped = FaultPlan::single(FaultClass::Duplicate, 5).inject_logs(&logs);
        assert!(duped.len() > logs.len());
    }

    #[test]
    fn truncate_crashes_one_machine_in_both_streams() {
        let plan = FaultPlan::single(FaultClass::Truncate, 11);
        let logs = plan.inject_logs(&sample_logs());
        let series = plan.inject_series(&sample_series());
        // Exactly one machine lost log records...
        let lost_logs: Vec<u16> = (0..3u16)
            .filter(|m| {
                logs.iter().filter(|r| r.machine == *m).count()
                    < sample_logs().iter().filter(|r| r.machine == *m).count()
            })
            .collect();
        assert_eq!(lost_logs.len(), 1);
        // ...and the same machine lost monitoring samples.
        let lost_mon: Vec<u16> = series
            .iter()
            .filter(|s| s.samples.len() < 20)
            .map(|s| s.spec.machine)
            .collect();
        assert_eq!(lost_mon, lost_logs);
    }

    #[test]
    fn monitoring_fault_corrupts_samples() {
        let out = FaultPlan::single(FaultClass::Monitoring, 9).inject_series(&sample_series());
        let bad = out
            .iter()
            .flat_map(|s| &s.samples)
            .filter(|v| !v.is_finite() || **v < 0.0)
            .count();
        assert!(bad > 0, "expected corrupted samples");
        // Series structure is untouched.
        for (a, b) in out.iter().zip(sample_series()) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.samples.len(), b.samples.len());
        }
    }

    #[test]
    fn enabling_one_fault_does_not_disturb_another_stream() {
        // Drop draws must be identical whether or not duplication is on:
        // each fault has its own RNG stream.
        let logs = sample_logs();
        let only_drop = FaultPlan::single(FaultClass::Drop, 21).inject_logs(&logs);
        let mut both_plan = FaultPlan::single(FaultClass::Drop, 21);
        both_plan.enable(FaultClass::ClockSkew);
        let both = both_plan.inject_logs(&logs);
        // Strip the skew and compare survivors: the same records survived.
        let survived_only: Vec<(u16, u16)> =
            only_drop.iter().map(|r| (r.machine, r.thread)).collect();
        let survived_both: Vec<(u16, u16)> = both.iter().map(|r| (r.machine, r.thread)).collect();
        assert_eq!(survived_only.len(), survived_both.len());
        assert_eq!(survived_only, survived_both);
    }

    #[test]
    fn machine_missing_silences_logs_but_not_monitoring() {
        let plan = FaultPlan::single(FaultClass::MachineMissing, 13);
        let logs = plan.inject_logs(&sample_logs());
        let series = plan.inject_series(&sample_series());
        let silenced: Vec<u16> = (0..3u16)
            .filter(|m| !logs.iter().any(|r| r.machine == *m))
            .collect();
        assert_eq!(silenced.len(), 1, "exactly one machine loses its logs");
        // Its monitoring is untouched.
        assert_eq!(series, sample_series());
        // And the survivors' logs are untouched.
        assert_eq!(
            logs.len(),
            sample_logs()
                .iter()
                .filter(|r| r.machine != silenced[0])
                .count()
        );
    }

    #[test]
    fn timestamp_bomb_inflates_one_record_and_one_interval() {
        let plan = FaultPlan::single(FaultClass::TimestampBomb, 17);
        let logs = plan.inject_logs(&sample_logs());
        let bombed: Vec<&LogRecord> = logs.iter().filter(|r| !sample_logs().contains(r)).collect();
        assert_eq!(bombed.len(), 1, "exactly one record is bombed");
        // The bombed record (time ×100 000) lands far past the clean stream.
        let max_clean = sample_logs().iter().map(|r| r.time.0).max().unwrap();
        assert!(bombed[0].time.0 > max_clean);

        let series = plan.inject_series(&sample_series());
        let inflated = series
            .iter()
            .filter(|s| s.interval.as_nanos() > SimDuration::from_millis(10).as_nanos())
            .count();
        assert_eq!(inflated, 1, "exactly one series' interval is inflated");
    }

    #[test]
    fn hostile_preset_enables_every_class() {
        assert_eq!(FaultPlan::hostile(1).enabled().len(), FaultClass::ALL.len());
        // `all` stays the repairable stream-damage preset.
        assert_eq!(
            FaultPlan::all(1).enabled(),
            FaultClass::STREAM_DAMAGE.to_vec()
        );
    }

    #[test]
    fn specs_parse_into_seeded_plans() {
        assert_eq!(FaultPlan::parse("all", 3), Ok(FaultPlan::all(3)));
        assert_eq!(FaultPlan::parse("hostile", 4), Ok(FaultPlan::hostile(4)));
        let mut list = FaultPlan::clean(5);
        list.enable(FaultClass::Drop)
            .enable(FaultClass::TimestampBomb);
        assert_eq!(FaultPlan::parse("drop, timestamp-bomb", 5), Ok(list));
        assert_eq!(
            FaultPlan::parse("drop,bogus", 5),
            Err("unknown fault class 'bogus'".to_string())
        );
    }

    #[test]
    fn class_names_round_trip() {
        for c in FaultClass::ALL {
            assert_eq!(FaultClass::from_name(c.name()), Some(c));
        }
        assert_eq!(FaultClass::from_name("nope"), None);
    }
}
