//! Gantt-style text rendering of an execution trace — the trace-level view
//! of the paper's result-visualization component. Each phase instance is a
//! bar on a shared time axis, indented by hierarchy depth, with its
//! blocking events marked.

use crate::model::execution::ExecutionModel;
use crate::trace::execution::{ExecutionTrace, InstanceId};

/// Options for [`render_gantt`].
#[derive(Clone, Debug)]
pub struct GanttConfig {
    /// Character width of the time axis.
    pub width: usize,
    /// Deepest hierarchy level to draw (root = 0); deeper phases are
    /// omitted.
    pub max_depth: usize,
    /// Cap on emitted rows (large traces stay readable).
    pub max_rows: usize,
}

impl Default for GanttConfig {
    fn default() -> Self {
        GanttConfig {
            width: 80,
            max_depth: 3,
            max_rows: 60,
        }
    }
}

/// Renders the trace as one bar per phase instance: `█` while executing,
/// `░` while blocked. Rows appear in depth-first, start-time order.
pub fn render_gantt(model: &ExecutionModel, trace: &ExecutionTrace, cfg: &GanttConfig) -> String {
    let origin = trace.origin();
    let end = trace.makespan_end().max(origin + 1);
    let span = (end - origin) as f64;
    let col_of = |t: u64| -> usize {
        (((t.saturating_sub(origin)) as f64 / span) * cfg.width as f64).round() as usize
    };

    let (order, omitted) = gantt_rows(model, trace, cfg.max_depth, cfg.max_rows);
    let mut rows = Vec::new();
    for (id, depth, name) in order {
        let inst = trace.instance(id);
        let label = format!("{}{}", "  ".repeat(depth), name);
        let (s, e) = (
            col_of(inst.start),
            col_of(inst.end).max(col_of(inst.start) + 1),
        );
        let mut bar: Vec<char> = vec![' '; cfg.width + 1];
        for c in bar.iter_mut().take(e.min(cfg.width + 1)).skip(s) {
            *c = '█';
        }
        // Blocking overlays only on leaves: a container's "blocking" is its
        // coordinator waiting for children and would shade the whole bar.
        if trace.is_leaf(id) {
            for ev in trace.blocking_of(id) {
                let (bs, be) = (col_of(ev.start), col_of(ev.end).max(col_of(ev.start) + 1));
                for c in bar.iter_mut().take(be.min(cfg.width + 1)).skip(bs) {
                    *c = '░';
                }
            }
        }
        rows.push((label, bar.into_iter().collect::<String>()));
    }

    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, bar) in rows {
        out.push_str(&format!("{label:<label_w$} |{}|\n", bar.trim_end()));
    }
    if omitted > 0 {
        out.push_str(&format!("... {omitted} more phases omitted\n"));
    }
    out
}

/// The rows of a Gantt drawing, shared by the text and SVG renderers:
/// instances in depth-first, start-time order down to `max_depth`, the
/// first `max_rows` of them as `(instance, depth, name[key])` (the key is
/// left off when it is 0), plus the number of rows left out.
pub(crate) fn gantt_rows(
    model: &ExecutionModel,
    trace: &ExecutionTrace,
    max_depth: usize,
    max_rows: usize,
) -> (Vec<(InstanceId, usize, String)>, usize) {
    let mut roots: Vec<InstanceId> = trace
        .instances()
        .iter()
        .filter(|i| i.parent.is_none())
        .map(|i| i.id)
        .collect();
    roots.sort_by_key(|&id| trace.instance(id).start);
    let mut order: Vec<(InstanceId, usize)> = Vec::new();
    let mut stack: Vec<(InstanceId, usize)> = roots.into_iter().rev().map(|r| (r, 0)).collect();
    while let Some((id, depth)) = stack.pop() {
        order.push((id, depth));
        if depth < max_depth {
            let mut children = trace.children_of(id).to_vec();
            children.sort_by_key(|&c| std::cmp::Reverse((trace.instance(c).start, c.0)));
            stack.extend(children.into_iter().map(|c| (c, depth + 1)));
        }
    }
    let omitted = order.len().saturating_sub(max_rows);
    let rows = order
        .into_iter()
        .take(max_rows)
        .map(|(id, depth)| {
            let inst = trace.instance(id);
            let n = model.name(inst.type_id);
            let name = if inst.key == 0 {
                n.to_string()
            } else {
                format!("{n}[{}]", inst.key)
            };
            (id, depth, name)
        })
        .collect();
    (rows, omitted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::execution::{ExecutionModelBuilder, Repeat};
    use crate::trace::execution::TraceBuilder;
    use crate::trace::timeslice::MILLIS;

    fn setup() -> (ExecutionModel, ExecutionTrace) {
        let mut b = ExecutionModelBuilder::new("job");
        let r = b.root();
        let s = b.child(r, "step", Repeat::Sequential);
        let _t = b.child(s, "task", Repeat::Parallel);
        let model = b.build();
        let trace = build_trace(&model);
        (model, trace)
    }

    fn build_trace(model: &ExecutionModel) -> ExecutionTrace {
        let mut tb = TraceBuilder::new(model);
        tb.add_phase(&[("job", 0)], 0, 100 * MILLIS, None, None)
            .unwrap();
        tb.add_phase(&[("job", 0), ("step", 0)], 0, 50 * MILLIS, None, None)
            .unwrap();
        let t = tb
            .add_phase(
                &[("job", 0), ("step", 0), ("task", 0)],
                0,
                40 * MILLIS,
                Some(0),
                Some(0),
            )
            .unwrap();
        tb.add_blocking(t, "gc", 10 * MILLIS, 20 * MILLIS);
        tb.add_phase(
            &[("job", 0), ("step", 1)],
            50 * MILLIS,
            100 * MILLIS,
            None,
            None,
        )
        .unwrap();
        tb.build().unwrap()
    }

    #[test]
    fn renders_all_rows_with_hierarchy_indent() {
        let (model, trace) = setup();
        let out = render_gantt(&model, &trace, &GanttConfig::default());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "{out}");
        assert!(lines[0].starts_with("job "));
        assert!(lines[1].starts_with("  step "));
        assert!(lines[2].starts_with("    task "));
        assert!(lines[3].starts_with("  step[1]"));
    }

    #[test]
    fn bars_reflect_time_extent() {
        let (model, trace) = setup();
        let cfg = GanttConfig {
            width: 100,
            ..Default::default()
        };
        let out = render_gantt(&model, &trace, &cfg);
        let lines: Vec<&str> = out.lines().collect();
        // The root spans the full width; step 0 about half of it.
        let solid = |l: &str| l.chars().filter(|&c| c == '█' || c == '░').count();
        assert!(solid(lines[0]) >= 99);
        let step0 = solid(lines[1]);
        assert!((45..=55).contains(&step0), "step0 width {step0}");
    }

    #[test]
    fn blocking_marked_distinctly() {
        let (model, trace) = setup();
        let out = render_gantt(&model, &trace, &GanttConfig::default());
        let task_line = out.lines().find(|l| l.contains("task")).unwrap();
        assert!(
            task_line.contains('░'),
            "blocked interval must render: {task_line}"
        );
    }

    #[test]
    fn depth_and_row_limits_apply() {
        let (model, trace) = setup();
        let shallow = render_gantt(
            &model,
            &trace,
            &GanttConfig {
                max_depth: 1,
                ..Default::default()
            },
        );
        assert!(!shallow.contains("task"));
        let capped = render_gantt(
            &model,
            &trace,
            &GanttConfig {
                max_rows: 2,
                ..Default::default()
            },
        );
        assert!(capped.contains("more phases omitted"));
    }
}
