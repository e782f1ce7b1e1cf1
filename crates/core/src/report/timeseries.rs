//! ASCII rendering of per-slice time series — the textual counterpart of
//! the paper's Fig. 3 plots (attributed usage, demand, bottleneck presence
//! over time).

/// Renders one or more aligned series as rows of a text chart.
///
/// Each series is downscaled to `width` buckets (bucket = mean of the slices
/// it covers) and drawn with a 0–8 level block glyph, normalized to
/// `max_value`.
pub fn render_series(labels: &[&str], series: &[&[f64]], max_value: f64, width: usize) -> String {
    assert_eq!(labels.len(), series.len());
    assert!(width > 0 && max_value > 0.0);
    const GLYPHS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let label_w = labels.iter().map(|l| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, s) in labels.iter().zip(series) {
        out.push_str(&format!("{label:<label_w$} |"));
        for b in 0..width {
            let lo = b * s.len() / width;
            let hi = (((b + 1) * s.len()) / width).max(lo + 1).min(s.len());
            let mean = if lo >= s.len() {
                0.0
            } else {
                s[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
            };
            let level = ((mean / max_value) * 8.0).round().clamp(0.0, 8.0) as usize;
            out.push(GLYPHS[level]);
        }
        out.push_str("|\n");
    }
    out
}

/// Renders a boolean presence row (e.g. "bottlenecked?") with `█`/space.
pub fn render_presence(label: &str, flags: &[bool], width: usize) -> String {
    let series: Vec<f64> = flags.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
    render_series(&[label], &[&series], 1.0, width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_rows_of_requested_width() {
        let s1 = vec![0.0, 0.5, 1.0, 1.0];
        let s2 = vec![1.0, 1.0, 0.0, 0.0];
        let out = render_series(&["usage", "demand"], &[&s1, &s2], 1.0, 4);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        // label + " |" + 4 glyphs + "|"
        assert_eq!(lines[0].chars().count(), 6 + 2 + 4 + 1);
        assert!(lines[0].starts_with("usage"));
    }

    #[test]
    fn empty_and_full_levels() {
        let s = vec![0.0, 1.0];
        let out = render_series(&["x"], &[&s], 1.0, 2);
        assert!(out.contains(' '), "zero renders blank");
        assert!(out.contains('█'), "max renders full block");
    }

    #[test]
    fn presence_row() {
        let out = render_presence("bn", &[true, false, true, true], 4);
        let body: String = out
            .chars()
            .skip_while(|&c| c != '|')
            .skip(1)
            .take(4)
            .collect();
        assert_eq!(body, "█ ██");
    }

    #[test]
    fn downsampling_averages() {
        let s = vec![1.0, 0.0, 1.0, 0.0];
        let out = render_series(&["x"], &[&s], 1.0, 2);
        // Each bucket averages to 0.5 → glyph level 4.
        assert_eq!(out.matches('▄').count(), 2, "{out}");
    }
}
