//! Experiment output: figure curves. Tables are
//! [`dlk_sim::metrics::Table`].

use serde::{Deserialize, Serialize};

/// A named (x, y) series — one curve of a figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Curve label.
    pub label: String,
    /// Points in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Self { label: label.into(), points: Vec::new() }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Final y value (NaN for empty series).
    pub fn last_y(&self) -> f64 {
        self.points.last().map_or(f64::NAN, |&(_, y)| y)
    }

    /// Renders several series as a compact ASCII listing, one line per
    /// x value, one column per series.
    pub fn render_all(title: &str, series: &[Series]) -> String {
        let mut out = format!("== {title} ==\n");
        out.push('x');
        for s in series {
            out.push_str(&format!("\t{}", s.label));
        }
        out.push('\n');
        let n = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
        for index in 0..n {
            let x = series
                .iter()
                .find_map(|s| s.points.get(index).map(|&(x, _)| x))
                .unwrap_or(f64::NAN);
            out.push_str(&format!("{x:.0}"));
            for s in series {
                match s.points.get(index) {
                    Some(&(_, y)) => out.push_str(&format!("\t{y:.6}")),
                    None => out.push_str("\t-"),
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_render_includes_all_labels() {
        let mut a = Series::new("bfa");
        a.push(0.0, 0.9);
        a.push(1.0, 0.5);
        let mut b = Series::new("random");
        b.push(0.0, 0.9);
        b.push(1.0, 0.8);
        let text = Series::render_all("fig", &[a.clone(), b]);
        assert!(text.contains("bfa") && text.contains("random"));
        assert_eq!(a.last_y(), 0.5);
    }
}
