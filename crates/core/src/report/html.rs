//! Self-contained HTML report — the shareable form of the paper's result
//! visualization (component ⑩): one file an engineer can attach to a
//! ticket, with the issue ranking, utilization and consumption tables, and
//! an SVG Gantt of the execution.

use std::fmt::Write as _;

use crate::model::execution::ExecutionModel;
use crate::pipeline::Characterization;
use crate::report::gantt::gantt_rows;
use crate::report::summary::{machine_table, usage_table};
use crate::report::table::Table;
use crate::trace::execution::ExecutionTrace;

/// Options for [`render_html_report`].
#[derive(Clone, Debug)]
pub struct HtmlConfig {
    /// Report title.
    pub title: String,
    /// Pixel width of the Gantt drawing area.
    pub gantt_width: u32,
    /// Deepest hierarchy level drawn in the Gantt.
    pub max_depth: usize,
    /// Row cap for the Gantt.
    pub max_rows: usize,
}

impl Default for HtmlConfig {
    fn default() -> Self {
        HtmlConfig {
            title: "Grade10 characterization".into(),
            gantt_width: 900,
            max_depth: 3,
            max_rows: 80,
        }
    }
}

/// Renders a complete standalone HTML document.
pub fn render_html_report(
    model: &ExecutionModel,
    trace: &ExecutionTrace,
    result: &Characterization,
    cfg: &HtmlConfig,
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">\
         <title>{}</title><style>{}</style></head><body>",
        escape(&cfg.title),
        CSS
    );
    let _ = write!(out, "<h1>{}</h1>", escape(&cfg.title));
    let _ = write!(
        out,
        "<p>baseline makespan (replayed): <b>{:.2}s</b></p>",
        result.base_makespan as f64 / 1e9
    );

    out.push_str("<h2>Issues, most impactful first</h2><ol>");
    for line in result.summary(model) {
        let _ = write!(out, "<li>{}</li>", escape(&line));
    }
    if result.issues.is_empty() {
        out.push_str("<li><i>none above threshold</i></li>");
    }
    out.push_str("</ol>");

    out.push_str("<h2>Cluster utilization</h2>");
    out.push_str(&html_table(&machine_table(&result.profile)));
    out.push_str("<h2>Attributed consumption by phase type</h2>");
    out.push_str(&html_table(&usage_table(&result.profile, model, trace)));

    out.push_str("<h2>Execution</h2>");
    out.push_str(&gantt_svg(model, trace, cfg));

    out.push_str("</body></html>");
    out
}

const CSS: &str = "body{font-family:sans-serif;max-width:1000px;margin:2em auto;\
color:#222}table{border-collapse:collapse;margin:.5em 0}td,th{border:1px solid \
#ccc;padding:.25em .6em;text-align:left;font-size:.9em}th{background:#f0f0f0}\
svg{border:1px solid #ddd}h2{margin-top:1.4em}";

/// Minimal HTML escaping.
fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Converts a text [`Table`] into an HTML table, cell for cell.
fn html_table(t: &Table) -> String {
    let mut out = String::from("<table><tr>");
    for h in t.headers() {
        let _ = write!(out, "<th>{}</th>", escape(h));
    }
    out.push_str("</tr>");
    for row in t.rows() {
        out.push_str("<tr>");
        for c in row {
            let _ = write!(out, "<td>{}</td>", escape(c));
        }
        out.push_str("</tr>");
    }
    out.push_str("</table>");
    out
}

/// Deterministic pastel color per phase type.
fn color_of(type_idx: u32) -> String {
    let hue = (type_idx as u64 * 73) % 360;
    format!("hsl({hue},60%,70%)")
}

fn gantt_svg(model: &ExecutionModel, trace: &ExecutionTrace, cfg: &HtmlConfig) -> String {
    const ROW_H: u32 = 18;
    const LABEL_W: u32 = 260;
    let origin = trace.origin();
    let end = trace.makespan_end().max(origin + 1);
    let span = (end - origin) as f64;
    let x_of = |t: u64| -> f64 {
        LABEL_W as f64 + (t.saturating_sub(origin)) as f64 / span * cfg.gantt_width as f64
    };

    let (rows, _) = gantt_rows(model, trace, cfg.max_depth, cfg.max_rows);

    let height = rows.len() as u32 * ROW_H + 10;
    let mut svg = format!(
        "<svg width=\"{}\" height=\"{height}\" xmlns=\"http://www.w3.org/2000/svg\">",
        LABEL_W + cfg.gantt_width + 10
    );
    for (row, (id, depth, name)) in rows.into_iter().enumerate() {
        let inst = trace.instance(id);
        let y = row as u32 * ROW_H + 4;
        let _ = write!(
            svg,
            "<text x=\"{}\" y=\"{}\" font-size=\"11\">{}</text>",
            4 + depth as u32 * 10,
            y + 11,
            escape(&name)
        );
        let x0 = x_of(inst.start);
        let w = (x_of(inst.end) - x0).max(1.0);
        let _ = write!(
            svg,
            "<rect x=\"{x0:.1}\" y=\"{y}\" width=\"{w:.1}\" height=\"{}\" \
             fill=\"{}\"><title>{} {:.3}s-{:.3}s</title></rect>",
            ROW_H - 4,
            color_of(inst.type_id.0),
            escape(&trace.instance_path(model, id)),
            inst.start as f64 / 1e9,
            inst.end as f64 / 1e9,
        );
        // Blocking overlays on leaves, hatched darker.
        if trace.is_leaf(id) {
            for ev in trace.blocking_of(id) {
                let bx = x_of(ev.start);
                let bw = (x_of(ev.end) - bx).max(1.0);
                let _ = write!(
                    svg,
                    "<rect x=\"{bx:.1}\" y=\"{y}\" width=\"{bw:.1}\" height=\"{}\" \
                     fill=\"#555\" fill-opacity=\"0.55\"><title>blocked on {}</title></rect>",
                    ROW_H - 4,
                    escape(&ev.resource),
                );
            }
        }
    }
    svg.push_str("</svg>");
    svg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::execution::{ExecutionModelBuilder, Repeat};
    use crate::model::rules::RuleSet;
    use crate::pipeline::{characterize, CharacterizationConfig};
    use crate::trace::execution::TraceBuilder;
    use crate::trace::resource::{ResourceInstance, ResourceTrace};
    use crate::trace::timeslice::MILLIS;

    fn setup() -> (ExecutionModel, ExecutionTrace, Characterization) {
        let mut b = ExecutionModelBuilder::new("job");
        let r = b.root();
        b.child(r, "p", Repeat::Parallel);
        let model = b.build();
        let trace = {
            let mut tb = TraceBuilder::new(&model);
            tb.add_phase(&[("job", 0)], 0, 100 * MILLIS, None, None)
                .unwrap();
            let p0 = tb
                .add_phase(&[("job", 0), ("p", 0)], 0, 100 * MILLIS, Some(0), Some(0))
                .unwrap();
            tb.add_blocking(p0, "gc", 20 * MILLIS, 40 * MILLIS);
            tb.add_phase(&[("job", 0), ("p", 1)], 0, 50 * MILLIS, Some(0), Some(1))
                .unwrap();
            tb.build().unwrap()
        };
        let mut rt = ResourceTrace::new();
        let cpu = rt.add_resource(ResourceInstance {
            kind: "cpu".into(),
            machine: Some(0),
            capacity: 2.0,
        });
        rt.add_series(cpu, 0, 50 * MILLIS, &[2.0, 2.0]);
        let result = characterize(
            &model,
            &RuleSet::new(),
            &trace,
            &rt,
            &CharacterizationConfig::default(),
        );
        (model, trace, result)
    }

    #[test]
    fn produces_complete_standalone_document() {
        let (model, trace, result) = setup();
        let html = render_html_report(&model, &trace, &result, &HtmlConfig::default());
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.ends_with("</body></html>"));
        assert!(html.contains("<svg"));
        assert!(html.contains("Cluster utilization"));
        assert!(html.contains("cpu@0"));
        // Phase rows and the blocking overlay are drawn.
        assert!(html.contains("p[1]"));
        assert!(html.contains("blocked on gc"));
    }

    #[test]
    fn html_table_keeps_every_cell() {
        let mut t = Table::new(&["name", "note"]);
        t.row(&["".into(), "a  b".into()]);
        assert_eq!(
            html_table(&t),
            "<table><tr><th>name</th><th>note</th></tr>\
             <tr><td></td><td>a  b</td></tr></table>"
        );
    }

    #[test]
    fn escapes_untrusted_names() {
        let mut b = ExecutionModelBuilder::new("<job>");
        let r = b.root();
        b.child(r, "a&b", Repeat::Once);
        let model = b.build();
        let trace = {
            let mut tb = TraceBuilder::new(&model);
            tb.add_phase(&[("<job>", 0)], 0, 10 * MILLIS, None, None)
                .unwrap();
            tb.add_phase(
                &[("<job>", 0), ("a&b", 0)],
                0,
                10 * MILLIS,
                Some(0),
                Some(0),
            )
            .unwrap();
            tb.build().unwrap()
        };
        let mut rt = ResourceTrace::new();
        let cpu = rt.add_resource(ResourceInstance {
            kind: "cpu".into(),
            machine: Some(0),
            capacity: 1.0,
        });
        rt.add_series(cpu, 0, 10 * MILLIS, &[0.5]);
        let result = characterize(
            &model,
            &RuleSet::new(),
            &trace,
            &rt,
            &CharacterizationConfig::default(),
        );
        let html = render_html_report(&model, &trace, &result, &HtmlConfig::default());
        assert!(!html.contains("<job>"));
        assert!(html.contains("&lt;job&gt;"));
        assert!(html.contains("a&amp;b"));
    }

    #[test]
    fn row_cap_applies() {
        let (model, trace, result) = setup();
        let html = render_html_report(
            &model,
            &trace,
            &result,
            &HtmlConfig {
                max_rows: 1,
                ..Default::default()
            },
        );
        // Only the root row is drawn.
        assert!(!html.contains("p[1]"));
    }
}
