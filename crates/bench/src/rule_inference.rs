//! Rule inference (§V ongoing work, implemented).
//!
//! The paper lists rule inference as ongoing work: expert input takes a
//! week per framework. This reruns the calibration of
//! `examples/infer_rules.rs`: one workload monitored at the analysis
//! timeslice, the (phase type × resource kind) demand coefficients learned
//! by non-negative least squares, and the learned rules set next to the
//! expert-written ones.

use grade10_core::infer::{infer_rules, InferenceConfig};
use grade10_core::model::AttributionRule;
use grade10_engines::pregel::PregelConfig;
use grade10_engines::{run_workload, Algorithm, Dataset, EngineKind, WorkloadSpec};

use crate::markdown_table;

/// The calibration run's fit and the learned rules.
pub struct RuleInference {
    /// The calibration workload's name.
    pub workload: String,
    /// Its simulated runtime, in seconds.
    pub simulated_s: f64,
    /// Fit quality per resource kind: (kind, R², observations).
    pub fits: Vec<(String, f64, usize)>,
    /// Leaf phase types' CPU rules: (phase type, learned, expert).
    pub cpu_rules: Vec<(&'static str, AttributionRule, AttributionRule)>,
}

/// Runs the calibration and learns the rules.
pub fn rule_inference() -> RuleInference {
    let cfg = PregelConfig { machines: 2, threads: 4, cores: 8.0, ..Default::default() };
    let run = run_workload(&WorkloadSpec {
        dataset: Dataset::Rmat { scale: 11, seed: 3 },
        algorithm: Algorithm::PageRank { iterations: 6 },
        engine: EngineKind::Giraph(cfg),
    });
    let fine = run.resource_trace(1); // no downsampling: slice-granular
    let result = infer_rules(&run.model, &run.trace, &fine, &InferenceConfig::default());
    let learned = result.to_rule_set();
    let fits = result.fits.iter().map(|f| (f.resource_kind.clone(), f.r2, f.observations));
    let cpu_rules = ["thread", "communicate", "load", "output"].map(|name| {
        let ty = run.model.find_by_name(name).expect("a Giraph phase type");
        (name, learned.get(ty, "cpu"), run.rules_tuned.get(ty, "cpu"))
    });
    RuleInference {
        workload: run.spec.name(),
        simulated_s: run.sim.end_time.as_secs_f64(),
        fits: fits.collect(),
        cpu_rules: cpu_rules.to_vec(),
    }
}

fn rule_str(rule: AttributionRule) -> String {
    match rule {
        AttributionRule::None => "-".into(),
        AttributionRule::Exact(p) => format!("Exact {:.1} %", 100.0 * p),
        AttributionRule::Variable(w) => format!("Variable {w:.2}"),
    }
}

impl RuleInference {
    /// The learned CPU rule of one phase type.
    pub fn learned_cpu(&self, phase: &str) -> Option<AttributionRule> {
        self.cpu_rules.iter().find(|r| r.0 == phase).map(|r| r.1)
    }

    /// The fit's R² for one resource kind.
    pub fn r2(&self, kind: &str) -> Option<f64> {
        self.fits.iter().find(|f| f.0 == kind).map(|f| f.1)
    }

    /// The section's markdown block: the fit quality, then learned vs
    /// expert CPU rules.
    pub fn markdown(&self) -> String {
        let fits = self.fits.iter().map(|(k, r2, n)| row![k, format!("{r2:.4}"), n]);
        let fits: Vec<_> = fits.collect();
        let rules: Vec<_> =
            self.cpu_rules.iter().map(|&(p, l, e)| row![p, rule_str(l), rule_str(e)]).collect();
        format!(
            "(calibration run {}, {:.1} s simulated, monitored at the analysis timeslice)\n\n\
             {}\n{}",
            self.workload,
            self.simulated_s,
            markdown_table(&["Resource kind", "R²", "Observations"], &fits),
            markdown_table(&["Phase type (cpu)", "Learned", "Expert"], &rules)
        )
    }
}
