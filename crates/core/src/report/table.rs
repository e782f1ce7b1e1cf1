//! Fixed-width text tables and CSV export, used by the experiment harnesses
//! to print paper-style tables.

use std::fmt::Write as _;

/// A simple column-aligned table.
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the header count.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells, table has {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// The column headers.
    pub(crate) fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows, cell for cell as added.
    pub(crate) fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns and a separator under the header.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:<width$}", cell, width = widths[c]);
            }
            // No trailing spaces.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats nanoseconds as seconds with two decimals.
pub fn secs(ns: u64) -> String {
    format!("{:.2}s", ns as f64 / 1e9)
}

/// Engineering notation for mixed-magnitude quantities (bytes·s next to
/// core·s in one table): 39876509.3 → "39.9M".
pub fn eng(v: f64) -> String {
    let a = v.abs();
    if a >= 1e9 {
        format!("{:.1}G", v / 1e9)
    } else if a >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if a >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["cpu".into(), "97.0%".into()])
            .row(&["net".into(), "3%".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].contains("cpu"));
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn wrong_arity_rejected() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.437), "43.7%");
        assert_eq!(secs(2_500_000_000), "2.50s");
        assert_eq!(eng(39_876_509.3), "39.9M");
        assert_eq!(eng(1_500.0), "1.5k");
        assert_eq!(eng(2.0e9), "2.0G");
        assert_eq!(eng(0.25), "0.25");
    }
}
