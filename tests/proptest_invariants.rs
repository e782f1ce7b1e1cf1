//! Property-based tests of the core invariants, across crates.
//!
//! These encode the conservation laws and safety bounds that every
//! refactoring must preserve: allocation never exceeds capacity, upsampling
//! conserves measured totals, attribution conserves consumption, replay is
//! monotone, partitions cover their graphs exactly.
//!
//! Cases are generated from seeded ChaCha8 streams (one seed per case, so a
//! failure report's seed reproduces the exact input) rather than a shrinking
//! framework; the invariants themselves are unchanged from the original
//! proptest suite.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use grade10::cluster::alloc::{fair_share_single, max_min_fair, Consumer};
use grade10::cluster::{FaultClass, FaultPlan};
use grade10::core::attribution::upsample::{upsample_measurement, waterfill};
use grade10::core::attribution::{build_profile, PerformanceProfile, ProfileConfig};
use grade10::core::critical_path::critical_path;
use grade10::core::model::{AttributionRule, ExecutionModelBuilder, Repeat, RuleSet};
use grade10::core::parse::{EventStream, RawEvent, RawEventKind};
use grade10::core::pipeline::{
    characterize_events, characterize_stream, Characterization, CharacterizationConfig,
};
use grade10::core::replay::{original_durations, ReplayConfig, ReplayPlan};
use grade10::core::report::{render_gantt, GanttConfig};
use grade10::core::supervise::{characterize_events_supervised, StageStatus};
use grade10::core::trace::repair::validate_event_stream;
use grade10::core::trace::{
    ingest_monitoring, repair_events, ExecutionTrace, IngestConfig, IngestReport, Measurement,
    RawSeries, ResourceIdx, ResourceInstance, ResourceTrace, TimesliceGrid, TraceBuilder, MILLIS,
};
use grade10::core::ExecutionModel;
use grade10::engines::bridge::{collected_streams, to_raw_events, to_raw_series};
use grade10::engines::{run_workload, Algorithm, Dataset, EngineKind, WorkloadRun, WorkloadSpec};
use grade10::graph::algorithms::{bfs, pagerank};
use grade10::graph::partition::{EdgeCutPartition, VertexCutPartition};
use grade10::graph::{CsrGraph, VertexId};

fn vec_f64(rng: &mut ChaCha8Rng, lo: f64, hi: f64, min_len: usize, max_len: usize) -> Vec<f64> {
    let n = rng.gen_range(min_len..=max_len);
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

// ---------- cluster: max–min fair allocation ----------

#[test]
fn fair_share_respects_capacity_and_demands() {
    for case in 0..200u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5A17_0000 + case);
        let demands = vec_f64(&mut rng, 0.0, 10.0, 0, 19);
        let capacity = rng.gen_range(0.1..50.0);
        let rates = fair_share_single(&demands, capacity);
        let total: f64 = rates.iter().sum();
        assert!(total <= capacity + 1e-6, "case {case}");
        for (r, d) in rates.iter().zip(&demands) {
            assert!(*r <= d + 1e-9, "case {case}");
            assert!(*r >= -1e-12, "case {case}");
        }
        // Work conservation: if capacity remains, every demand is met.
        if total < capacity - 1e-6 {
            for (r, d) in rates.iter().zip(&demands) {
                assert!((r - d).abs() < 1e-6, "case {case}");
            }
        }
    }
}

#[test]
fn bipartite_allocation_respects_all_links() {
    for case in 0..200u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5A17_1000 + case);
        let nflows = rng.gen_range(1..12usize);
        let consumers: Vec<Consumer> = (0..nflows)
            .map(|_| Consumer {
                demand: rng.gen_range(0.1..20.0),
                links: vec![rng.gen_range(0..4usize), 4 + rng.gen_range(0..4usize)],
            })
            .collect();
        let caps: Vec<f64> = (0..8).map(|_| rng.gen_range(0.5..10.0)).collect();
        let rates = max_min_fair(&consumers, &caps);
        let mut used = [0.0f64; 8];
        for (c, r) in consumers.iter().zip(&rates) {
            assert!(*r <= c.demand + 1e-9, "case {case}");
            for &l in &c.links {
                used[l] += r;
            }
        }
        for (l, &u) in used.iter().enumerate() {
            assert!(
                u <= caps[l] + 1e-6,
                "case {case} link {l}: {u} > {}",
                caps[l]
            );
        }
    }
}

// ---------- core: waterfill and upsampling ----------

#[test]
fn waterfill_conserves_and_caps() {
    for case in 0..200u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5A17_2000 + case);
        let weights = vec_f64(&mut rng, 0.0, 5.0, 1, 11);
        let caps = vec_f64(&mut rng, 0.0, 8.0, 1, 11);
        let amount = rng.gen_range(0.0..40.0);
        let n = weights.len().min(caps.len());
        let (weights, caps) = (&weights[..n], &caps[..n]);
        let mut out = vec![0.0; n];
        let left = waterfill(weights, caps, amount, &mut out);
        let placed: f64 = out.iter().sum();
        assert!((placed + left - amount).abs() < 1e-6, "case {case}");
        for i in 0..n {
            assert!(out[i] <= caps[i] + 1e-9, "case {case}");
            if weights[i] == 0.0 {
                assert!(out[i] == 0.0, "case {case}");
            }
        }
    }
}

/// Waterfill's convergence tolerances are relative to the problem's
/// magnitude: the same random shapes must conserve and cap at scales from
/// 1e-15 to 1e+15, where an absolute epsilon either spins (huge inputs
/// never get within 1e-12 of converged) or leaks the whole amount back
/// (tiny inputs read as converged immediately).
#[test]
fn waterfill_conserves_at_extreme_magnitudes() {
    for case in 0..200u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5A17_2100 + case);
        let scale = [1e-15f64, 1e-9, 1.0, 1e9, 1e15][(case % 5) as usize];
        let weights = vec_f64(&mut rng, 0.0, 5.0, 1, 11);
        let caps: Vec<f64> = vec_f64(&mut rng, 0.0, 8.0, weights.len(), weights.len())
            .iter()
            .map(|c| c * scale)
            .collect();
        let amount = rng.gen_range(0.0..40.0) * scale;
        let mut out = vec![0.0; weights.len()];
        let left = waterfill(&weights, &caps, amount, &mut out);
        let placed: f64 = out.iter().sum();
        assert!(
            (placed + left - amount).abs() < 1e-6 * scale.max(1.0),
            "case {case} scale {scale}: placed {placed} + left {left} != {amount}"
        );
        for i in 0..weights.len() {
            assert!(
                out[i] <= caps[i] * (1.0 + 1e-9),
                "case {case} scale {scale}"
            );
            if weights[i] == 0.0 {
                assert!(out[i] == 0.0, "case {case} scale {scale}");
            }
        }
    }
}

/// Mass conservation must survive measurement windows whose bounds sit off
/// the slice boundaries: placed + overflow equals `avg × true duration`
/// (in units × slices), not `avg × snapped slice count`.
#[test]
fn upsampling_conserves_true_mass_for_off_boundary_windows() {
    for case in 0..200u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5A17_3100 + case);
        let n = rng.gen_range(4..15usize);
        let exact = vec_f64(&mut rng, 0.0, 6.0, n, n);
        let variable = vec_f64(&mut rng, 0.0, 3.0, n, n);
        let avg = rng.gen_range(0.0..5.0);
        let capacity = rng.gen_range(1.0..6.0);
        let grid = TimesliceGrid::covering(0, n as u64 * 10 * MILLIS, 10 * MILLIS);
        // Arbitrary sub-slice bounds inside the grid, never snapped-aligned
        // by construction.
        let start = rng.gen_range(0..(n as u64 - 2) * 10 * MILLIS);
        let end = rng.gen_range(start + 1..n as u64 * 10 * MILLIS);
        let m = Measurement { start, end, avg };
        let true_slices = (end - start) as f64 / (10 * MILLIS) as f64;
        let mut out = vec![0.0; n];
        let overflow = upsample_measurement(&m, &grid, &exact, &variable, capacity, &mut out);
        let placed: f64 = out.iter().sum();
        assert!(
            (placed + overflow - avg * true_slices).abs() < 1e-6,
            "case {case}: [{start},{end}) placed {placed} + overflow {overflow} \
             != {avg} × {true_slices}"
        );
        for &v in &out {
            assert!(v <= capacity + 1e-6, "case {case}");
            assert!(v >= -1e-12, "case {case}");
        }
    }
}

#[test]
fn upsampling_conserves_total_and_capacity() {
    for case in 0..200u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5A17_3000 + case);
        let exact = vec_f64(&mut rng, 0.0, 6.0, 4, 15);
        let variable = vec_f64(&mut rng, 0.0, 3.0, 4, 15);
        let avg = rng.gen_range(0.0..5.0);
        let capacity = rng.gen_range(1.0..6.0);
        let n = exact.len().min(variable.len());
        let (exact, variable) = (&exact[..n], &variable[..n]);
        let grid = TimesliceGrid::covering(0, n as u64 * 10 * MILLIS, 10 * MILLIS);
        let m = Measurement {
            start: 0,
            end: n as u64 * 10 * MILLIS,
            avg,
        };
        let mut out = vec![0.0; n];
        let overflow = upsample_measurement(&m, &grid, exact, variable, capacity, &mut out);
        let placed: f64 = out.iter().sum();
        assert!(
            (placed + overflow - avg * n as f64).abs() < 1e-6,
            "case {case}"
        );
        for &v in &out {
            assert!(v <= capacity + 1e-6, "case {case}");
            assert!(v >= -1e-12, "case {case}");
        }
        // Overflow only when the measurement physically exceeds capacity.
        if avg <= capacity - 1e-9 {
            assert!(overflow < 1e-6, "case {case}");
        }
    }
}

// ---------- core: replay monotonicity ----------

#[test]
fn replay_critical_path_is_monotone_in_durations() {
    for case in 0..64u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5A17_4000 + case);
        let durs: Vec<u64> = (0..4).map(|_| rng.gen_range(1..200u64)).collect();
        let shrink: Vec<f64> = (0..4).map(|_| rng.gen_range(0.1..1.0)).collect();
        // job -> step(seq) x2 -> task(par) x2 each.
        let mut b = ExecutionModelBuilder::new("job");
        let r = b.root();
        let step = b.child(r, "step", Repeat::Sequential);
        let _task = b.child(step, "task", Repeat::Parallel);
        let model = b.build();
        let mut tb = TraceBuilder::new(&model);
        let s0 = durs[0].max(durs[1]);
        let s1 = durs[2].max(durs[3]);
        tb.add_phase(&[("job", 0)], 0, (s0 + s1) * MILLIS, None, None)
            .unwrap();
        for (si, window) in [(0u32, 0..2usize), (1, 2..4)] {
            let base = if si == 0 { 0 } else { s0 };
            let len = if si == 0 { s0 } else { s1 };
            tb.add_phase(
                &[("job", 0), ("step", si)],
                base * MILLIS,
                (base + len) * MILLIS,
                None,
                None,
            )
            .unwrap();
            for (k, di) in window.enumerate() {
                tb.add_phase(
                    &[("job", 0), ("step", si), ("task", k as u32)],
                    base * MILLIS,
                    (base + durs[di]) * MILLIS,
                    Some(0),
                    Some(k as u16),
                )
                .unwrap();
            }
        }
        let trace = tb.build().unwrap();
        let cfg = ReplayConfig {
            enforce_concurrency: false,
        };
        // One plan, both duration vectors: the law must hold on the path
        // issue detection takes, with the shrunk run reusing the base
        // run's buffers.
        let mut plan = ReplayPlan::new(&model, &trace, &cfg);
        let original = original_durations(&trace);
        let base = plan.run(&original);
        let shrunk_durations: Vec<u64> = trace
            .instances()
            .iter()
            .map(|inst| {
                if trace.is_leaf(inst.id) {
                    (inst.duration() as f64 * shrink[inst.thread.unwrap_or(0) as usize % 4]) as u64
                } else {
                    inst.duration()
                }
            })
            .collect();
        let shrunk = plan.run(&shrunk_durations);
        assert_eq!(plan.makespan(&original), base.makespan, "case {case}");
        assert!(shrunk.makespan <= base.makespan, "case {case}");
        // Critical path equals the sum of each step's longest task.
        let expect = durs[0].max(durs[1]) + durs[2].max(durs[3]);
        assert_eq!(base.makespan, expect * MILLIS, "case {case}");
    }
}

// ---------- graph: partitions and algorithms ----------

fn arbitrary_graph(rng: &mut ChaCha8Rng) -> CsrGraph {
    let n = rng.gen_range(2..40usize);
    let nedges = rng.gen_range(1..120usize);
    let edges: Vec<(VertexId, VertexId)> = (0..nedges)
        .map(|_| {
            (
                rng.gen_range(0..n) as VertexId,
                rng.gen_range(0..n) as VertexId,
            )
        })
        .collect();
    CsrGraph::with_transpose(n, &edges)
}

#[test]
fn edge_cut_partition_covers_all_vertices() {
    for case in 0..100u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5A17_5000 + case);
        let g = arbitrary_graph(&mut rng);
        let parts = rng.gen_range(1..6usize);
        let p = EdgeCutPartition::hash(&g, parts);
        let loads = p.vertex_loads();
        assert_eq!(
            loads.iter().sum::<u64>() as usize,
            g.num_vertices(),
            "case {case}"
        );
        for v in g.vertices() {
            assert!((p.owner(v) as usize) < parts, "case {case}");
        }
    }
}

#[test]
fn vertex_cut_covers_all_edges_once() {
    for case in 0..100u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5A17_6000 + case);
        let g = arbitrary_graph(&mut rng);
        let parts = rng.gen_range(1..6usize);
        let p = VertexCutPartition::greedy(&g, parts);
        assert_eq!(
            p.edge_loads().iter().sum::<u64>() as usize,
            g.num_edges(),
            "case {case}"
        );
        // Every endpoint of every edge has a replica where the edge lives.
        let mut eidx = 0u64;
        for u in g.vertices() {
            for &v in g.neighbors(u) {
                let owner = p.edge_owner(eidx);
                assert!(p.has_replica(u, owner), "case {case}");
                assert!(p.has_replica(v, owner), "case {case}");
                eidx += 1;
            }
        }
    }
}

#[test]
fn bfs_distances_satisfy_triangle_inequality() {
    for case in 0..100u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5A17_7000 + case);
        let g = arbitrary_graph(&mut rng);
        let p = EdgeCutPartition::hash(&g, 1);
        let r = bfs(&g, &p, 0);
        for (u, v) in g.edges() {
            let du = r.distance[u as usize];
            if du != u64::MAX {
                assert!(r.distance[v as usize] <= du + 1, "case {case}");
            }
        }
        assert_eq!(r.distance[0], 0, "case {case}");
    }
}

#[test]
fn pagerank_mass_is_conserved() {
    for case in 0..100u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5A17_8000 + case);
        let g = arbitrary_graph(&mut rng);
        let iters = rng.gen_range(1..6usize);
        let p = EdgeCutPartition::hash(&g, 2);
        let r = pagerank(&g, &p, iters, 0.85);
        let sum: f64 = r.rank.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "case {case}: rank mass {sum}");
        assert!(r.rank.iter().all(|&x| x >= 0.0), "case {case}");
    }
}

#[test]
fn timeslice_grid_partitions_time() {
    for case in 0..100u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5A17_9000 + case);
        let origin = rng.gen_range(0..1000u64);
        let span = rng.gen_range(1..100_000u64);
        let slice = rng.gen_range(1..1000u64);
        let grid = TimesliceGrid::covering(origin, origin + span, slice);
        // Slices tile the covered range without gaps.
        let mut expected_start = origin;
        for i in 0..grid.num_slices() {
            let (s, e) = grid.bounds(i);
            assert_eq!(s, expected_start, "case {case}");
            assert_eq!(e - s, slice, "case {case}");
            expected_start = e;
        }
        assert!(expected_start >= origin + span, "case {case}");
        // Every instant maps to the slice containing it.
        for t in [origin, origin + span / 2, origin + span - 1] {
            let i = grid.slice_of(t);
            let (s, e) = grid.bounds(i);
            assert!(s <= t && t < e, "case {case}");
        }
    }
}

// ---------- core: full attribution pipeline under random inputs ----------

/// A random flat workload: n parallel phases with arbitrary intervals and
/// rules, one CPU, random measurements.
fn random_scenario(
    rng: &mut ChaCha8Rng,
) -> (ExecutionModel, RuleSet, ExecutionTrace, ResourceTrace) {
    let nphases = rng.gen_range(1..8usize);
    let phases: Vec<(u64, u64, u32, u32)> = (0..nphases)
        .map(|_| {
            (
                rng.gen_range(0..20u64),
                rng.gen_range(1..20u64),
                rng.gen_range(0..3u32),
                rng.gen_range(1..6u32),
            )
        })
        .collect();
    let samples = vec_f64(rng, 0.0, 5.0, 1, 9);
    let mut b = ExecutionModelBuilder::new("job");
    let root = b.root();
    let ty = b.child(root, "p", Repeat::Parallel);
    let model = b.build();
    let mut rules = RuleSet::new().with_default(AttributionRule::None);
    let end = phases
        .iter()
        .map(|&(s, d, _, _)| s + d)
        .max()
        .unwrap()
        .max(samples.len() as u64 * 2);
    let mut tb = TraceBuilder::new(&model);
    tb.add_phase(&[("job", 0)], 0, end * 10 * MILLIS, None, None)
        .unwrap();
    for (k, &(start, dur, rule_kind, weight)) in phases.iter().enumerate() {
        tb.add_phase(
            &[("job", 0), ("p", k as u32)],
            start * 10 * MILLIS,
            (start + dur) * 10 * MILLIS,
            Some(0),
            Some(k as u16),
        )
        .unwrap();
        // One rule for the whole type: last phase wins, which is
        // fine — the invariants hold for any rule.
        let rule = match rule_kind {
            0 => AttributionRule::None,
            1 => AttributionRule::Exact((weight as f64 / 10.0).min(1.0)),
            _ => AttributionRule::Variable(weight as f64),
        };
        rules.set(ty, "cpu", rule);
    }
    let trace = tb.build().unwrap();
    let mut rt = ResourceTrace::new();
    let cpu = rt.add_resource(ResourceInstance {
        kind: "cpu".into(),
        machine: Some(0),
        capacity: 4.0,
    });
    rt.add_series(cpu, 0, 20 * MILLIS, &samples);
    (model, rules, trace, rt)
}

/// The §III-D laws, per resource row: upsampling conserves the measured
/// total up to the reported overflow, consumption stays within capacity,
/// and attribution plus the unattributed rest equals consumption in every
/// slice. `measured[r]` is row `r`'s monitored total in unit-seconds.
fn assert_attribution_laws(profile: &PerformanceProfile, measured: &[f64], what: &str) {
    assert_eq!(profile.resources.len(), measured.len(), "{what}");
    for (r, &measured) in measured.iter().enumerate() {
        let upsampled: f64 = profile.consumption[r].iter().sum::<f64>() * profile.grid.slice_secs();
        // Conservation up to reported overflow.
        assert!(
            (measured - upsampled - profile.overflow[r]).abs() < 1e-6 + measured * 1e-9,
            "{what} resource {r}: measured {measured}, upsampled {upsampled}, overflow {}",
            profile.overflow[r]
        );
        // Capacity respected everywhere.
        let capacity = profile.resources[r].capacity;
        for &c in &profile.consumption[r] {
            assert!(c <= capacity + 1e-9, "{what} resource {r}");
            assert!(c >= -1e-12, "{what} resource {r}");
        }
        // Attribution + unattributed == consumption per slice.
        for s in 0..profile.grid.num_slices() {
            let attributed: f64 = profile
                .usages
                .iter()
                .filter(|u| u.resource == ResourceIdx(r as u32))
                .map(|u| u.usage_at(s))
                .sum();
            assert!(
                (attributed + profile.unattributed[r][s] - profile.consumption[r][s]).abs() < 1e-6,
                "{what} resource {r} slice {s}"
            );
            assert!(attributed >= -1e-9, "{what} resource {r} slice {s}");
        }
    }
}

#[test]
fn attribution_pipeline_invariants_hold_for_random_inputs() {
    for case in 0..100u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5A17_A000 + case);
        let (model, rules, trace, rt) = random_scenario(&mut rng);
        let profile = build_profile(&model, &rules, &trace, &rt, &ProfileConfig::default());
        let measured = rt.total_consumption(ResourceIdx(0));
        assert_attribution_laws(&profile, &[measured], &format!("case {case}"));
    }
}

// ---------- core: the lifecycle's two executor policies ----------

/// A random clean run as its collectors would ship it: `machines` machines,
/// each running a few parallel `p` phases under one shared `job` root and
/// monitored by one CPU series. The event stream satisfies the strict
/// contract (time order; parents open first and close last).
fn random_streams(
    rng: &mut ChaCha8Rng,
    machines: u16,
) -> (ExecutionModel, RuleSet, Vec<RawEvent>, Vec<RawSeries>) {
    let mut b = ExecutionModelBuilder::new("job");
    let root = b.root();
    let ty = b.child(root, "p", Repeat::Parallel);
    let model = b.build();
    let rule = match rng.gen_range(0..3u32) {
        0 => AttributionRule::None,
        1 => AttributionRule::Exact(rng.gen_range(1..=10u32) as f64 / 10.0),
        _ => AttributionRule::Variable(rng.gen_range(1..6u32) as f64),
    };
    let rules = RuleSet::new()
        .with_default(AttributionRule::None)
        .rule(ty, "cpu", rule);

    // (time, ends-after-starts, depth order, event)
    let mut keyed: Vec<(u64, u8, i32, RawEvent)> = Vec::new();
    let mut phase = |path: Vec<(String, u32)>, start: u64, end: u64, machine: u16, thread: u16| {
        let depth = path.len() as i32;
        let ev = |time, kind| RawEvent {
            time,
            machine,
            thread,
            kind,
        };
        keyed.push((
            start,
            0,
            depth,
            ev(start, RawEventKind::PhaseStart { path: path.clone() }),
        ));
        keyed.push((end, 1, -depth, ev(end, RawEventKind::PhaseEnd { path })));
    };
    let mut job_end = 1u64;
    let mut key = 0u32;
    for machine in 0..machines {
        for thread in 0..rng.gen_range(1..4u16) {
            let start = rng.gen_range(0..20u64) * 10 * MILLIS;
            let end = start + rng.gen_range(1..20u64) * 10 * MILLIS;
            job_end = job_end.max(end);
            let path = vec![("job".to_string(), 0), ("p".to_string(), key)];
            phase(path, start, end, machine, thread);
            key += 1;
        }
    }
    phase(vec![("job".to_string(), 0)], 0, job_end, 0, 0);
    keyed.sort_by_key(|&(time, ends, depth, _)| (time, ends, depth));
    let events = keyed.into_iter().map(|(.., ev)| ev).collect();

    let monitoring = (0..machines)
        .map(|machine| RawSeries {
            instance: ResourceInstance {
                kind: "cpu".into(),
                machine: Some(machine),
                capacity: 4.0,
            },
            measurements: vec_f64(rng, 0.0, 5.0, 1, 9)
                .into_iter()
                .enumerate()
                .map(|(i, avg)| Measurement {
                    start: i as u64 * 20 * MILLIS,
                    end: (i as u64 + 1) * 20 * MILLIS,
                    avg,
                })
                .collect(),
        })
        .collect();
    (model, rules, events, monitoring)
}

/// Everything a characterization holds, with the usage rows — whose order
/// is the one thing per-machine units change — sorted.
fn dump_characterization(c: &Characterization) -> String {
    let p = &c.profile;
    let mut usages: Vec<String> = p.usages.iter().map(|u| format!("{u:?}")).collect();
    usages.sort();
    format!(
        "slices={} resources={:?}\nconsumption={:?}\ndemand_exact={:?}\ndemand_variable={:?}\n\
         unattributed={:?}\noverflow={:?}\nestimated={:?}\nissues={:?}\nmakespan={}\n\
         ingest={:?}\nusages={usages:#?}",
        p.grid.num_slices(),
        p.resources,
        p.consumption,
        p.demand_exact,
        p.demand_variable,
        p.unattributed,
        p.overflow,
        p.estimated,
        c.issues,
        c.base_makespan,
        c.ingest,
    )
}

/// Policy invariance: on clean streams — strict and lenient, 1/2/4
/// machines — the supervised policy at pool widths 1 and 2 returns the same
/// grids, issues, makespan and ingest report as the inline policy and the
/// same usage rows as a set, with nothing in its ledgers; and the §III-D
/// laws hold on what it returns.
#[test]
fn supervised_policy_matches_inline_policy_on_clean_streams() {
    for case in 0..60u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5A17_A800 + case);
        let machines = [1u16, 2, 4][(case % 3) as usize];
        let (model, rules, events, monitoring) = random_streams(&mut rng, machines);
        let mut cfg = CharacterizationConfig::default();
        if case % 2 == 1 {
            cfg.ingest = IngestConfig::lenient();
        }
        let what = format!("case {case} ({machines} machines, {:?})", cfg.ingest.mode);
        let inline = characterize_events(&model, &rules, &events, &monitoring, &cfg)
            .unwrap_or_else(|e| panic!("{what}: inline: {e}"));
        let measured: Vec<f64> = monitoring
            .iter()
            .map(|s| {
                s.measurements
                    .iter()
                    .map(|m| m.avg * (m.end - m.start) as f64 / 1e9)
                    .sum()
            })
            .collect();
        assert_attribution_laws(&inline.profile, &measured, &what);
        for width in [1usize, 2] {
            cfg.supervise.threads = Some(width);
            let p = characterize_events_supervised(&model, &rules, &events, &monitoring, &cfg)
                .unwrap_or_else(|e| panic!("{what}: supervised width {width}: {e}"));
            assert!(p.is_complete(), "{what} width {width}: {:?}", p.incidents);
            assert!(
                p.coverage
                    .stages
                    .iter()
                    .all(|s| s.status == StageStatus::Full),
                "{what} width {width}: {:?}",
                p.coverage
            );
            assert_eq!(
                p.coverage.machines.len(),
                machines as usize,
                "{what} width {width}"
            );
            assert_eq!(
                dump_characterization(&p.characterization),
                dump_characterization(&inline),
                "{what} width {width}"
            );
            assert_attribution_laws(&p.characterization.profile, &measured, &what);
        }
    }
}

/// Incidents and coverage are the supervised policy's ledgers: the inline
/// policy repairs damaged input leniently like the supervised one does, but
/// records no incident (quarantined monitoring windows included) and splits
/// nothing by machine.
#[test]
fn inline_policy_keeps_no_incident_log_on_damaged_input() {
    let run = fault_run();
    let cfg = CharacterizationConfig::new(true, 10 * MILLIS, None);
    for seed in 1..=4u64 {
        let mut plan = FaultPlan::all(seed);
        plan.enable(FaultClass::TimestampBomb);
        let (events, monitoring) = collected_streams(&run.sim, Some(&plan));
        let inline = characterize_stream(
            false,
            &run.model,
            &run.rules_tuned,
            &EventStream::from_events(&events),
            &monitoring,
            &cfg,
        )
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(
            !inline.characterization.ingest.is_clean(),
            "seed {seed}: nothing was damaged"
        );
        assert!(inline.is_complete(), "seed {seed}: {:?}", inline.incidents);
        assert!(inline.coverage.machines.is_empty(), "seed {seed}");
        assert!(inline
            .coverage
            .stages
            .iter()
            .all(|s| s.status == StageStatus::Full));
        let supervised = characterize_events_supervised(
            &run.model,
            &run.rules_tuned,
            &events,
            &monitoring,
            &cfg,
        )
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        if inline.characterization.ingest.monitoring_quarantined > 0 {
            assert!(
                !supervised.is_complete(),
                "seed {seed}: quarantine must be an incident"
            );
        }
    }
}

#[test]
fn critical_path_accounts_for_the_whole_makespan() {
    for case in 0..100u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5A17_B000 + case);
        let ndurs = rng.gen_range(2..10usize);
        let durs: Vec<u64> = (0..ndurs).map(|_| rng.gen_range(1..100u64)).collect();
        // Sequential steps: the path must cover every step exactly.
        let mut b = ExecutionModelBuilder::new("job");
        let root = b.root();
        let _ = b.child(root, "step", Repeat::Sequential);
        let model = b.build();
        let total: u64 = durs.iter().sum();
        let mut tb = TraceBuilder::new(&model);
        tb.add_phase(&[("job", 0)], 0, total * MILLIS, None, None)
            .unwrap();
        let mut t0 = 0u64;
        for (k, &d) in durs.iter().enumerate() {
            tb.add_phase(
                &[("job", 0), ("step", k as u32)],
                t0 * MILLIS,
                (t0 + d) * MILLIS,
                Some(0),
                Some(0),
            )
            .unwrap();
            t0 += d;
        }
        let trace = tb.build().unwrap();
        let cp = critical_path(&model, &trace, &Default::default());
        assert_eq!(cp.makespan, total * MILLIS, "case {case}");
        assert_eq!(cp.hops.len(), durs.len(), "case {case}");
        let path_time: u64 = cp.hops.iter().map(|h| h.end - h.start).sum();
        assert_eq!(path_time, total * MILLIS, "case {case}");
    }
}

// ---------- core: lenient-ingestion repair laws ----------

/// A small simulated workload whose pristine streams the fault harness can
/// corrupt — the same shape the fault-tolerance integration tests use.
fn fault_run() -> WorkloadRun {
    run_workload(&WorkloadSpec {
        dataset: Dataset::Rmat { scale: 8, seed: 3 },
        algorithm: Algorithm::PageRank { iterations: 2 },
        engine: EngineKind::Giraph(grade10::engines::pregel::PregelConfig {
            machines: 2,
            threads: 2,
            cores: 2.0,
            ..Default::default()
        }),
    })
}

/// Repair is idempotent: a repaired stream satisfies the strict contract,
/// and repairing it again repairs nothing and yields the same events.
///
/// Tie order among events with equal (time, kind, depth) sort keys comes
/// from hash-map iteration and may differ between passes, so the streams
/// are compared as multisets.
#[test]
fn lenient_event_repair_is_idempotent() {
    let run = fault_run();
    let as_multiset = |evs: &[RawEvent]| {
        let mut v: Vec<String> = evs.iter().map(|e| format!("{e:?}")).collect();
        v.sort();
        v
    };
    for case in 0..24u64 {
        let plan = FaultPlan::all(0x5A17_D000 + case);
        let damaged = to_raw_events(&plan.inject_logs(&run.sim.logs));
        let mut first = IngestReport::default();
        let once = repair_events(&damaged, &mut first);
        assert!(first.event_repairs() > 0, "case {case}: no damage injected");
        validate_event_stream(&once)
            .unwrap_or_else(|e| panic!("case {case}: repaired stream is not strict-clean: {e}"));
        let mut second = IngestReport::default();
        let twice = repair_events(&once, &mut second);
        assert_eq!(
            second.event_repairs(),
            0,
            "case {case}: second repair repaired"
        );
        assert_eq!(as_multiset(&once), as_multiset(&twice), "case {case}");
    }
}

/// Monitoring repair is idempotent: re-ingesting an already-repaired
/// resource trace repairs nothing and reproduces it exactly.
#[test]
fn lenient_monitoring_repair_is_idempotent() {
    let run = fault_run();
    let cfg = IngestConfig::lenient();
    for case in 0..24u64 {
        let plan = FaultPlan::all(0x5A17_D100 + case);
        let damaged = to_raw_series(&plan.inject_series(&run.sim.series), 8);
        let mut first = IngestReport::default();
        let rt1 = ingest_monitoring(&damaged, &cfg, &mut first).unwrap();
        let mut second = IngestReport::default();
        let rt2 = ingest_monitoring(&RawSeries::from_trace(&rt1), &cfg, &mut second).unwrap();
        assert_eq!(second.monitoring_repairs(), 0, "case {case}");
        assert_eq!(rt1.instances(), rt2.instances(), "case {case}");
        for r in 0..rt1.instances().len() {
            let idx = ResourceIdx(r as u32);
            assert_eq!(rt1.measurements(idx), rt2.measurements(idx), "case {case}");
        }
    }
}

/// `quality_score` is monotone non-increasing in every damage counter:
/// with totals fixed, reporting one more repair of any kind never raises
/// the score. This is the exact law the 0–1 score must obey for "lower
/// score" to mean "less trustworthy input".
#[test]
fn quality_score_is_monotone_in_damage_counters() {
    for case in 0..200u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5A17_F000 + case);
        let mut r = IngestReport {
            events_total: rng.gen_range(1..500usize),
            monitoring_windows_total: rng.gen_range(1..100usize),
            slices_total: rng.gen_range(1..1000usize),
            ..Default::default()
        };
        let bump = |r: &mut IngestReport, which: usize, by: usize| match which {
            0 => r.out_of_order_fixed += by,
            1 => r.duplicates_dropped += by,
            2 => r.duplicate_starts_dropped += by,
            3 => r.missing_ends_synthesized += by,
            4 => r.unmatched_ends_dropped += by,
            5 => r.negative_durations_clamped += by,
            6 => r.ancestors_synthesized += by,
            7 => r.monitoring_invalid += by,
            8 => r.monitoring_negatives_clamped += by,
            9 => r.monitoring_out_of_order += by,
            10 => r.monitoring_gaps_interpolated += by,
            _ => r.slices_estimated = (r.slices_estimated + by).min(r.slices_total),
        };
        // Random starting damage, then single-counter increments.
        for _ in 0..rng.gen_range(0..8usize) {
            let which = rng.gen_range(0..12usize);
            let by = rng.gen_range(0..20usize);
            bump(&mut r, which, by);
        }
        let before = r.quality_score();
        assert!((0.0..=1.0).contains(&before), "case {case}: {before}");
        for which in 0..12usize {
            let mut worse = r.clone();
            bump(&mut worse, which, 1);
            let after = worse.quality_score();
            assert!(
                after <= before + 1e-12,
                "case {case}: counter {which} raised quality {before} -> {after}"
            );
        }
    }
}

/// Adding stream-damage fault classes (in `FaultClass::STREAM_DAMAGE`
/// order, same seed) does not improve the ingest quality score beyond
/// noise: more injected damage, same or lower trust.
///
/// The comparison carries a small tolerance because the classes interact
/// through repair: a duplicated block record can *realign* the rank
/// pairing that earlier drops had shifted, legitimately reducing the
/// clamp count by a hair. The score is honest about that — it reflects
/// repairs actually performed, not faults nominally enabled. The hostile
/// classes are excluded for the same reason, only more so:
/// `machine-missing` deletes an entire machine's (damaged) events, which
/// can legitimately *raise* the score of what remains.
#[test]
fn quality_score_is_monotone_in_fault_classes() {
    let run = fault_run();
    let cfg = CharacterizationConfig::new(true, 10 * MILLIS, None);
    for seed in 0..6u64 {
        let mut plan = FaultPlan::clean(0x5A17_E000 + seed);
        let mut prev = 1.0f64;
        let mut prev_classes = String::from("(clean)");
        for class in FaultClass::STREAM_DAMAGE {
            plan.enable(class);
            let (events, monitoring) = collected_streams(&run.sim, Some(&plan));
            let result =
                characterize_events(&run.model, &run.rules_tuned, &events, &monitoring, &cfg)
                    .unwrap_or_else(|e| panic!("seed {seed} +{}: {e}", class.name()));
            let q = result.ingest.quality_score();
            assert!(
                q <= prev + 0.02,
                "seed {seed}: adding {} raised quality {prev} -> {q} (after {prev_classes})",
                class.name()
            );
            prev = q;
            prev_classes = class.name().to_string();
        }
        assert!(
            prev < 1.0,
            "seed {seed}: all faults enabled but quality is 1.0"
        );
    }
}

#[test]
fn gantt_renders_arbitrary_traces_without_panicking() {
    for case in 0..100u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5A17_C000 + case);
        let nphases = rng.gen_range(1..20usize);
        let phases: Vec<(u64, u64)> = (0..nphases)
            .map(|_| (rng.gen_range(0..50u64), rng.gen_range(1..50u64)))
            .collect();
        let width = rng.gen_range(1..200usize);
        let mut b = ExecutionModelBuilder::new("job");
        let root = b.root();
        let _ = b.child(root, "p", Repeat::Parallel);
        let model = b.build();
        let end = phases.iter().map(|&(s, d)| s + d).max().unwrap();
        let mut tb = TraceBuilder::new(&model);
        tb.add_phase(&[("job", 0)], 0, end * MILLIS, None, None)
            .unwrap();
        for (k, &(s, d)) in phases.iter().enumerate() {
            tb.add_phase(
                &[("job", 0), ("p", k as u32)],
                s * MILLIS,
                (s + d).min(end) * MILLIS,
                Some(0),
                Some(k as u16),
            )
            .unwrap();
        }
        let trace = tb.build().unwrap();
        let out = render_gantt(
            &model,
            &trace,
            &GanttConfig {
                width,
                max_depth: 2,
                max_rows: 10,
            },
        );
        assert!(!out.is_empty(), "case {case}");
        // Row count respects the cap (+1 for the omission note).
        assert!(out.lines().count() <= 11, "case {case}");
    }
}
