//! A Spark-like dataflow engine — the paper's §V extension, implemented.
//!
//! The paper reports ongoing work "characterizing Spark workloads by
//! extending Grade10's methods". This module provides the corresponding
//! simulated SUT: a job is a sequence of *stages* separated by shuffles;
//! each stage consists of independent *tasks* scheduled onto per-machine
//! executor slots (longest-processing-time packing, Spark's effective
//! behavior under its default scheduler); after its tasks finish, each
//! machine writes its shuffle output to every other machine.
//!
//! Architecturally this differs from both graph engines: no GC pauses are
//! modeled by default (configurable), there are no bounded queues, and —
//! most importantly — work is *task-granular*, so a straggler task delays
//! only its stage boundary, not a thread-long phase. Grade10 needs nothing
//! new to characterize it: a model, rules, and the same pipeline.

use grade10_cluster::{
    GcConfig, MachineConfig, MsgOutput, Op, PhasePath, SimDuration, SimOutput, Simulation,
    ThreadProgram,
};
use grade10_core::model::{AttributionRule, ExecutionModel, ExecutionModelBuilder, Repeat, RuleSet};
use grade10_graph::algorithms::WorkProfile;

use crate::job;

/// One stage: per-task CPU work (core-seconds) and the shuffle volume each
/// machine writes afterwards (bytes).
#[derive(Clone, Debug)]
pub struct StageSpec {
    /// CPU work per task, core-seconds.
    pub task_work: Vec<f64>,
    /// Shuffle output each machine writes after its tasks, bytes.
    pub shuffle_bytes_per_machine: f64,
}

/// A whole dataflow job.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// The stages, executed in order with a shuffle between them.
    pub stages: Vec<StageSpec>,
}

impl JobSpec {
    /// Derives a GraphX-flavored job from a graph-algorithm work profile:
    /// one stage per iteration, one task per partition (task work from
    /// edges scanned), shuffle volume from remote messages.
    pub fn from_work_profile(
        work: &WorkProfile,
        secs_per_edge: f64,
        bytes_per_msg: f64,
        machines: usize,
    ) -> JobSpec {
        let stages = work
            .iterations
            .iter()
            .map(|it| {
                let task_work = it
                    .per_part
                    .iter()
                    .map(|p| p.edges_scanned as f64 * secs_per_edge)
                    .collect();
                let remote: u64 = it.per_part.iter().map(|p| p.msgs_remote).sum();
                StageSpec {
                    task_work,
                    shuffle_bytes_per_machine: remote as f64 * bytes_per_msg
                        / machines as f64,
                }
            })
            .collect();
        JobSpec { stages }
    }
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct DataflowConfig {
    /// Number of worker machines.
    pub machines: usize,
    /// Executor slots (threads) per machine.
    pub executors: usize,
    /// CPU cores per machine.
    pub cores: f64,
    /// NIC bandwidth per direction, bytes/second.
    pub net_bps: f64,
    /// Optional JVM GC (Spark runs on the JVM; enable to study GC impact).
    pub gc: Option<GcConfig>,
    /// Heap bytes allocated per core-second of task work (only meaningful
    /// with `gc` enabled).
    pub alloc_per_work: f64,
    /// Simulation quantum.
    pub quantum: SimDuration,
    /// Ground-truth monitoring interval.
    pub monitor_interval: SimDuration,
}

impl Default for DataflowConfig {
    fn default() -> Self {
        DataflowConfig {
            machines: 4,
            executors: 8,
            cores: 8.0,
            net_bps: 2.0e7,
            gc: None,
            alloc_per_work: 0.0,
            quantum: SimDuration::from_millis(1),
            monitor_interval: SimDuration::from_millis(50),
        }
    }
}

/// Phase-type handles of the dataflow model.
#[derive(Clone, Copy, Debug)]
pub struct DataflowPhases {
    /// The stage container (sequential).
    pub stage: grade10_core::model::PhaseTypeId,
    /// One executor slot's work within a stage.
    pub executor: grade10_core::model::PhaseTypeId,
    /// A single task (leaf).
    pub task: grade10_core::model::PhaseTypeId,
    /// The per-machine shuffle write (leaf).
    pub shuffle: grade10_core::model::PhaseTypeId,
}

/// Execution model:
///
/// ```text
/// dataflow_job
/// └── stage (sequential)
///     ├── executor (per machine × slot) ── task (the tasks it ran)
///     └── shuffle (per machine)              executor → shuffle
/// ```
pub fn dataflow_model() -> (ExecutionModel, DataflowPhases) {
    let mut b = ExecutionModelBuilder::new("dataflow_job");
    let root = b.root();
    let stage = b.child(root, "stage", Repeat::Sequential);
    let executor = b.child(stage, "executor", Repeat::Parallel);
    let task = b.child(executor, "task", Repeat::Parallel);
    let shuffle = b.child(stage, "shuffle", Repeat::Parallel);
    b.edge(executor, shuffle);
    let model = b.build();
    (
        model,
        DataflowPhases {
            stage,
            executor,
            task,
            shuffle,
        },
    )
}

/// Tuned rules: a task uses exactly one core; shuffle is network-bound.
pub fn dataflow_rules_tuned(phases: &DataflowPhases, cores: f64) -> RuleSet {
    RuleSet::new()
        .with_default(AttributionRule::None)
        .rule(phases.task, "cpu", AttributionRule::Exact((1.0 / cores).min(1.0)))
        .rule(phases.shuffle, "net_out", AttributionRule::Variable(1.0))
        .rule(phases.shuffle, "net_in", AttributionRule::Variable(1.0))
        .rule(phases.shuffle, "cpu", AttributionRule::Variable(0.25))
}

mod barrier {
    pub fn stage_start(s: usize) -> u32 {
        10 + s as u32 * 100
    }
    pub fn tasks_done(s: usize) -> u32 {
        11 + s as u32 * 100
    }
    pub fn stage_end(s: usize) -> u32 {
        12 + s as u32 * 100
    }
}

/// Runs a dataflow job on the simulated cluster.
///
/// Tasks are packed onto executor slots with the longest-processing-time
/// heuristic (sort descending, always give the next task to the least
/// loaded slot), machine by machine round-robin — deterministic and close
/// to what a work-stealing scheduler achieves.
pub fn run_dataflow(job: &JobSpec, cfg: &DataflowConfig) -> SimOutput {
    let machine = MachineConfig {
        cores: cfg.cores,
        net_out_bps: cfg.net_bps,
        net_in_bps: cfg.net_bps,
        disk_bps: 5.0e8, // ample; this engine models no disk I/O
        gc: cfg.gc.clone(),
        out_queue_bytes: None,
    };
    let ccfg = job::cluster(cfg.machines, machine, cfg.quantum, cfg.monitor_interval);
    let mut sim = Simulation::new(ccfg);

    let slots = cfg.machines * cfg.executors;
    let total = (slots + cfg.machines + 1) as u32; // executors + shufflers + driver

    let jobp = PhasePath::root().child("dataflow_job", 0);

    // Assign tasks to slots per stage (LPT).
    // assignment[stage][slot] = list of (task key, work).
    let mut assignment: Vec<Vec<Vec<(u32, f64)>>> = Vec::new();
    for spec in &job.stages {
        let mut tasks: Vec<(u32, f64)> = spec
            .task_work
            .iter()
            .enumerate()
            .map(|(i, &w)| (i as u32, w))
            .collect();
        tasks.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut per_slot: Vec<Vec<(u32, f64)>> = vec![Vec::new(); slots];
        let mut loads = vec![0.0f64; slots];
        for (key, w) in tasks {
            let Some(slot) =
                (0..slots).min_by(|&a, &b| loads[a].total_cmp(&loads[b]).then(a.cmp(&b)))
            else {
                unreachable!("slots >= 1, so the range is never empty");
            };
            per_slot[slot].push((key, w));
            loads[slot] += w;
        }
        assignment.push(per_slot);
    }

    // Driver: job and stage containers.
    {
        let mut p = ThreadProgram::new(0);
        p.push(Op::PhaseStart(jobp.clone()));
        for s in 0..job.stages.len() {
            let stage = jobp.child("stage", s as u32);
            p.push(Op::Barrier {
                id: barrier::stage_start(s),
                participants: total,
            });
            p.push(Op::PhaseStart(stage.clone()));
            p.push(Op::Barrier {
                id: barrier::stage_end(s),
                participants: total,
            });
            p.push(Op::PhaseEnd(stage));
        }
        p.push(Op::PhaseEnd(jobp.clone()));
        sim.add_thread(p);
    }

    // Executor slots.
    for slot in 0..slots {
        let m = slot / cfg.executors;
        let mut p = ThreadProgram::new(m as u16);
        for (s, _) in job.stages.iter().enumerate() {
            let stage = jobp.child("stage", s as u32);
            let exec = stage.child("executor", slot as u32);
            p.push(Op::Barrier {
                id: barrier::stage_start(s),
                participants: total,
            });
            p.push(Op::PhaseStart(exec.clone()));
            for &(key, work) in &assignment[s][slot] {
                if work <= 0.0 {
                    continue;
                }
                let task = exec.child("task", key);
                p.push(Op::PhaseStart(task.clone()));
                p.push(Op::Compute {
                    work,
                    max_cores: 1.0,
                    alloc_per_work: cfg.alloc_per_work,
                    msgs: MsgOutput::none(),
                });
                p.push(Op::PhaseEnd(task));
            }
            p.push(Op::PhaseEnd(exec));
            p.push(Op::Barrier {
                id: barrier::tasks_done(s),
                participants: total - 1, // shufflers wait too; driver does not
            });
            p.push(Op::Barrier {
                id: barrier::stage_end(s),
                participants: total,
            });
        }
        sim.add_thread(p);
    }

    // Shuffle writers, one per machine.
    for m in 0..cfg.machines {
        let mut p = ThreadProgram::new(m as u16);
        for (s, spec) in job.stages.iter().enumerate() {
            let stage = jobp.child("stage", s as u32);
            let shuffle = stage.child("shuffle", m as u32);
            p.push(Op::Barrier {
                id: barrier::stage_start(s),
                participants: total,
            });
            p.push(Op::Barrier {
                id: barrier::tasks_done(s),
                participants: total - 1,
            });
            p.push(Op::PhaseStart(shuffle.clone()));
            if cfg.machines > 1 && spec.shuffle_bytes_per_machine > 0.0 {
                let per = spec.shuffle_bytes_per_machine / (cfg.machines - 1) as f64;
                for dst in 0..cfg.machines {
                    if dst != m {
                        p.push(Op::Send {
                            dst: dst as u16,
                            bytes: per,
                        });
                    }
                }
            }
            p.push(Op::PhaseEnd(shuffle));
            p.push(Op::Barrier {
                id: barrier::stage_end(s),
                participants: total,
            });
        }
        sim.add_thread(p);
    }

    sim.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use grade10_core::parse::build_execution_trace;

    use crate::bridge::to_raw_events;

    fn two_stage_job() -> JobSpec {
        JobSpec {
            stages: vec![
                StageSpec {
                    task_work: vec![0.2, 0.2, 0.2, 0.2, 0.8], // one straggler
                    shuffle_bytes_per_machine: 2.0e6,
                },
                StageSpec {
                    task_work: vec![0.3; 8],
                    shuffle_bytes_per_machine: 0.0,
                },
            ],
        }
    }

    fn small_cfg() -> DataflowConfig {
        DataflowConfig {
            machines: 2,
            executors: 2,
            cores: 2.0,
            net_bps: 4.0e6,
            ..Default::default()
        }
    }

    #[test]
    fn stages_run_sequentially_and_parse() {
        let out = run_dataflow(&two_stage_job(), &small_cfg());
        let (model, _) = dataflow_model();
        let trace = build_execution_trace(&model, &to_raw_events(&out.logs)).unwrap();
        let stage_ty = model.find_by_name("stage").unwrap();
        let stages: Vec<_> = trace.instances_of_type(stage_ty).collect();
        assert_eq!(stages.len(), 2);
        assert!(stages[0].end <= stages[1].start || stages[1].end <= stages[0].start);
        let task_ty = model.find_by_name("task").unwrap();
        assert_eq!(trace.instances_of_type(task_ty).count(), 13);
    }

    #[test]
    fn lpt_packing_bounds_stage_length() {
        // 5 tasks (0.2 x4 + 0.8) on 4 slots: the straggler dominates, so
        // stage 0 compute is ~0.8 s; shuffle adds 2 MB / 4 MB/s = 0.5 s.
        let out = run_dataflow(&two_stage_job(), &small_cfg());
        // Stage 1: 8 x 0.3 on 4 slots = 0.6 s. Total ~ 0.8 + 0.5 + 0.6.
        let t = out.end_time.as_secs_f64();
        assert!((1.8..2.2).contains(&t), "runtime {t}");
    }

    #[test]
    fn grade10_finds_the_straggler_task_imbalance() {
        let out = run_dataflow(&two_stage_job(), &small_cfg());
        let (model, phases) = dataflow_model();
        let trace = build_execution_trace(&model, &to_raw_events(&out.logs)).unwrap();
        let issue = grade10_core::issues::imbalance::imbalance_issue(
            &model,
            &trace,
            phases.task,
            &grade10_core::replay::ReplayConfig::default(),
        );
        // Balancing the stage-0 tasks (0.2 x4 + 0.8 → five x 0.32) trims
        // the straggler's tail: the stage shrinks from 0.8 to 2 x 0.32 on
        // the shared slot, roughly 8 % of the whole job.
        assert!(
            issue.reduction > 0.05,
            "task imbalance should be visible: {}",
            issue.reduction
        );
    }

    #[test]
    fn from_work_profile_maps_iterations_to_stages() {
        use grade10_graph::algorithms::pagerank;
        use grade10_graph::generators::rmat::RmatConfig;
        use grade10_graph::partition::EdgeCutPartition;
        let g = RmatConfig::graph500(8, 3).generate();
        let part = EdgeCutPartition::hash(&g, 8);
        let pr = pagerank(&g, &part, 3, 0.85);
        let job = JobSpec::from_work_profile(&pr.profile, 1e-4, 100.0, 2);
        assert_eq!(job.stages.len(), 3);
        assert_eq!(job.stages[0].task_work.len(), 8);
        assert!(job.stages[0].shuffle_bytes_per_machine > 0.0);
    }

    #[test]
    fn rules_and_model_cover_the_phases() {
        let (model, phases) = dataflow_model();
        let rules = dataflow_rules_tuned(&phases, 8.0);
        assert_eq!(
            rules.get(phases.task, "cpu"),
            AttributionRule::Exact(0.125)
        );
        assert!(model.is_leaf(phases.task));
        assert!(model.is_leaf(phases.shuffle));
        assert_eq!(model.grouping_scope(phases.task), phases.stage);
    }
}
