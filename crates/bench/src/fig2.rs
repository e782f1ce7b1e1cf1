//! Figure 2 — the paper's constructed resource-attribution example.
//!
//! Rebuilds the scenario of Figure 2 (four phases P1–P4, three resources
//! R1–R3, the rule matrix of Fig. 2b, the monitoring data of Fig. 2d) and
//! attributes it: the execution trace (a), the rules (b), the
//! timeslice-granular demand (c), the raw measurements (d), the upsampled
//! consumption (e), and the final per-phase attribution (f). They include
//! the numbers the paper's §III-D walks through: R2 upsampled to 15 % /
//! 65 %, and the 50 / 15 split between P3 and P2.

use grade10_core::attribution::{build_profile, InstanceUsage, PerformanceProfile, ProfileConfig};
use grade10_core::model::{
    AttributionRule, ExecutionModel, ExecutionModelBuilder, Repeat, RuleSet,
};
use grade10_core::trace::{
    ExecutionTrace, ResourceIdx, ResourceInstance, ResourceTrace, TraceBuilder, MILLIS,
};

use crate::{claims_table, markdown_table, tick};

/// The quantities the §III-D text walks through, with the paper's values.
const CLAIMS: [(&str, &str); 3] = [
    ("R2 measurement of 40 % over two slices, upsampled", "15 % / 65 %"),
    ("Attribution in the busy slice: P3 (Exact 50 %) / P2 (Variable)", "50 % / 15 %"),
    ("P2 hits its 80 % Exact ceiling on R3 without saturation", "yes"),
];

/// The Figure 2 scenario and its attribution.
pub struct Fig2 {
    /// The four phase types P1–P4 under one job.
    pub model: ExecutionModel,
    /// The rule matrix of Fig. 2b.
    pub rules: RuleSet,
    /// The execution trace of Fig. 2a, in 10 ms timeslices.
    pub trace: ExecutionTrace,
    /// The monitoring data of Fig. 2d: one measurement per two slices.
    pub resources: ResourceTrace,
    /// Demand (c), upsampled consumption (e) and attribution (f).
    pub profile: PerformanceProfile,
}

/// Runs the Figure 2 example through `build_profile`.
pub fn fig2() -> Fig2 {
    let mut b = ExecutionModelBuilder::new("job");
    let r = b.root();
    let p1 = b.child(r, "P1", Repeat::Once);
    let p2 = b.child(r, "P2", Repeat::Once);
    let p3 = b.child(r, "P3", Repeat::Once);
    let p4 = b.child(r, "P4", Repeat::Once);
    let model = b.build();

    let rules = RuleSet::new()
        .with_default(AttributionRule::None)
        .rule(p1, "R1", AttributionRule::Variable(1.0))
        .rule(p2, "R1", AttributionRule::Variable(2.0))
        .rule(p2, "R2", AttributionRule::Variable(1.0))
        .rule(p3, "R2", AttributionRule::Exact(0.5))
        .rule(p2, "R3", AttributionRule::Exact(0.8))
        .rule(p3, "R3", AttributionRule::Variable(1.0))
        .rule(p4, "R3", AttributionRule::Variable(1.0));

    let ms = MILLIS;
    let mut tb = TraceBuilder::new(&model);
    let mut phase = |path: &[(&str, u32)], start: u64, end: u64, machine, thread| {
        tb.add_phase(path, start * ms, end * ms, machine, thread).expect("Fig. 2 phases nest");
    };
    phase(&[("job", 0)], 0, 60, None, None);
    phase(&[("job", 0), ("P1", 0)], 0, 20, Some(0), Some(0));
    phase(&[("job", 0), ("P2", 0)], 20, 40, Some(0), Some(1));
    phase(&[("job", 0), ("P3", 0)], 30, 50, Some(0), Some(2));
    phase(&[("job", 0), ("P4", 0)], 40, 60, Some(0), Some(3));
    let trace = tb.build().expect("Fig. 2 trace is complete");

    let mut resources = ResourceTrace::new();
    for (kind, samples) in [
        ("R1", [60.0, 85.0, 30.0]),
        ("R2", [0.0, 40.0, 20.0]),
        ("R3", [40.0, 90.0, 50.0]),
    ] {
        let instance = ResourceInstance { kind: kind.into(), machine: Some(0), capacity: 100.0 };
        let r = resources.add_resource(instance);
        resources.add_series(r, 0, 20 * ms, &samples);
    }
    let profile = build_profile(&model, &rules, &trace, &resources, &ProfileConfig::default());
    Fig2 { model, rules, trace, resources, profile }
}

/// A table row: the label, then the cells.
fn prepend(label: &str, cells: impl Iterator<Item = String>) -> Vec<String> {
    std::iter::once(label.to_string()).chain(cells).collect()
}

impl Fig2 {
    /// The attribution of one resource to one phase.
    fn usage(&self, phase: &str, resource: &str) -> &InstanceUsage {
        let ty = self.model.find_by_name(phase).expect("a Fig. 2 phase");
        let inst = self.trace.instances_of_type(ty).next().expect("runs once").id;
        let r = self.resources.find(resource, Some(0)).expect("a Fig. 2 resource");
        self.profile.usage_of(inst, r).expect("phase uses resource")
    }

    /// R2's 40 % measurement over t3–t4, upsampled to (t3, t4).
    pub fn r2_upsampled(&self) -> (f64, f64) {
        let r2 = self.profile.consumption.row(1);
        (r2[2], r2[3])
    }

    /// R2's attribution in t4: (P3, P2).
    pub fn r2_split(&self) -> (f64, f64) {
        let at_t4 = |phase| self.usage(phase, "R2").usage_at(3);
        (at_t4("P3"), at_t4("P2"))
    }

    /// P2 on R3 in t3: (usage, demand).
    pub fn p2_r3(&self) -> (f64, f64) {
        let u = self.usage("P2", "R3");
        (u.usage_at(2), u.demand_at(2))
    }

    /// The section's markdown block: the six matrices, then the three
    /// quantities of the §III-D text.
    pub fn markdown(&self) -> String {
        let p = &self.profile;
        let ns = p.grid.num_slices();
        let slices = |first: &[&str]| -> Vec<String> {
            let names = (1..=ns).map(|i| format!("t{i}"));
            first.iter().map(|s| s.to_string()).chain(names).collect()
        };

        let mut rows = Vec::new();
        for inst in self.trace.instances().iter().skip(1) {
            let (start, end) = (inst.start / MILLIS, inst.end / MILLIS);
            let slices = format!("{}..{}", start / 10, end / 10);
            rows.push(row![self.model.name(inst.type_id), start, end, slices]);
        }
        let mut out = "(a) Execution trace (timeslices of 10 ms)\n\n".to_string();
        out += &markdown_table(&["phase", "start (ms)", "end (ms)", "slices"], &rows);

        let mut rows = Vec::new();
        for name in ["P1", "P2", "P3", "P4"] {
            let ty = self.model.find_by_name(name).expect("a Fig. 2 phase");
            let cell = |res| match self.rules.get(ty, res) {
                AttributionRule::None => "-".to_string(),
                AttributionRule::Exact(p) => format!("{:.0}%", p * 100.0),
                AttributionRule::Variable(w) => format!("{w:.0}x"),
            };
            rows.push(row![name, cell("R1"), cell("R2"), cell("R3")]);
        }
        out += "\n(b) Attribution rules (phase × resource)\n\n";
        out += &markdown_table(&["phase", "R1", "R2", "R3"], &rows);

        let (mut demand, mut measured, mut consumption) = (Vec::new(), Vec::new(), Vec::new());
        for (r, res) in p.resources.iter().enumerate() {
            let (exact, var) = (p.demand_exact.row(r), p.demand_variable.row(r));
            let cells = (0..ns).map(|s| format!("{:.0}+{:.0}v", exact[s], var[s]));
            demand.push(prepend(&res.kind, cells));
            let cells = p.consumption.row(r).iter().map(|x| format!("{x:.0}%"));
            consumption.push(prepend(&res.kind, cells));
            let windows = self.resources.measurements(ResourceIdx(r as u32)).iter();
            measured.push(prepend(&res.kind, windows.map(|m| format!("{:.0}%", m.avg))));
        }
        out += "\n(c) Estimated demand per timeslice (exact % + variable weight)\n\n";
        out += &markdown_table(&slices(&["resource"]), &demand);
        out += "\n(d) Monitoring data (average % per 2-slice measurement)\n\n";
        out += &markdown_table(&["resource", "t1-2", "t3-4", "t5-6"], &measured);
        out += "\n(e) Upsampled consumption per timeslice\n\n";
        out += &markdown_table(&slices(&["resource"]), &consumption);

        let mut rows = Vec::new();
        for u in &p.usages {
            let phase = self.model.name(self.trace.instance(u.instance).type_id);
            let mut row = prepend(phase, (0..ns).map(|s| format!("{:.0}%", u.usage_at(s))));
            row.insert(1, p.resources[u.resource.0 as usize].kind.clone());
            rows.push(row);
        }
        out += "\n(f) Attribution to phases (usage % per timeslice)\n\n";
        out += &markdown_table(&slices(&["phase", "resource"]), &rows);

        let ((up3, up4), (p3, p2)) = (self.r2_upsampled(), self.r2_split());
        let (used, demand) = self.p2_r3();
        let ceiling = tick(used == demand && p.consumption.row(2)[2] < 100.0);
        out += "\n";
        out += &claims_table(&CLAIMS, [
            format!("{up3:.0} % / {up4:.0} %"),
            format!("{p3:.0} % / {p2:.0} %"),
            format!("{ceiling} ({used:.0} % used of {demand:.0} % demand)"),
        ]);
        out
    }
}
