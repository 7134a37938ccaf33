//! The workspace's one result table.
//!
//! A [`Table`] is a rectangular result set, printed column-aligned
//! (under a `== title ==` line when titled) and exported as CSV (for
//! figure pipelines and CI logs) or markdown (for docs and PR
//! summaries). The paper's figure and table experiments fill one row by
//! row; [`Table::from_reports`] collects any number of [`RunReport`]s
//! into one — rows keyed by scenario label, columns the report's scalar
//! fields plus one `mit:<defense>` column per defense name seen
//! anywhere in the set.
//!
//! ```
//! use dlk_sim::metrics::Table;
//!
//! let mut table = Table::new("demo", &["x", "y"]);
//! table.row(vec!["1".to_owned(), "2".to_owned()]);
//! assert!(table.to_string().starts_with("== demo ==\n"));
//! assert_eq!(table.to_csv(), "x,y\n1,2\n");
//! ```
//!
//! ```
//! use dlk_sim::{metrics, Scenario};
//!
//! # fn main() -> Result<(), dlk_sim::SimError> {
//! let report = dlk_sim::find("hammer-vs-dram-locker")?.scenario().build()?.run()?;
//! let table = metrics::Table::from_reports([&report]);
//! assert!(table.to_csv().contains("hammer-vs-dram-locker"));
//! assert!(table.to_markdown().starts_with("| scenario |"));
//! # Ok(())
//! # }
//! ```

use crate::report::{csv_escape, RunReport};

/// A rectangular result set with an optional title.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: Option<String>,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty titled table with the given column names.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            title: Some(title.into()),
            columns: columns.iter().map(|&c| c.to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the column count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row width must match columns");
        self.rows.push(cells);
    }

    /// Builds the table from reports, in the given (deterministic)
    /// order. Per-defense mitigation-count columns are the union of the
    /// defense names across all reports, in first-appearance order;
    /// reports that did not mount a defense leave its cell empty.
    pub fn from_reports<'a>(reports: impl IntoIterator<Item = &'a RunReport>) -> Self {
        let reports: Vec<&RunReport> = reports.into_iter().collect();
        let mut defense_names: Vec<String> = Vec::new();
        for report in &reports {
            for mitigation in &report.mitigations {
                if !defense_names.contains(&mitigation.name) {
                    defense_names.push(mitigation.name.clone());
                }
            }
        }
        let mut columns: Vec<String> =
            RunReport::csv_header().split(',').map(str::to_owned).collect();
        // The folded single-report summary column is replaced by one
        // real column per defense.
        columns.pop();
        columns.extend(defense_names.iter().map(|name| format!("mit:{name}")));
        let rows = reports
            .iter()
            .map(|report| {
                let mut cells = report.csv_cells();
                cells.pop();
                for name in &defense_names {
                    let actions = report
                        .mitigations
                        .iter()
                        .find(|m| &m.name == name)
                        .map(|m| m.actions.to_string())
                        .unwrap_or_default();
                    cells.push(actions);
                }
                cells
            })
            .collect();
        Self { title: None, columns, rows }
    }

    /// The column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The rows, in report order.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// CSV export: header line plus one line per row.
    pub fn to_csv(&self) -> String {
        let mut out = self.columns.join(",");
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row.iter().map(|cell| csv_escape(cell)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        }
        out
    }

    /// GitHub-flavored markdown export.
    pub fn to_markdown(&self) -> String {
        let escape = |cell: &str| cell.replace('|', "\\|");
        let mut out = format!("| {} |\n", self.columns.join(" | "));
        out.push_str(&format!("|{}\n", "---|".repeat(self.columns.len())));
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|c| escape(c)).collect();
            out.push_str(&format!("| {} |\n", cells.join(" | ")));
        }
        out
    }
}

/// Column-aligned plain text (pads every column but the last to its
/// widest cell), under a `== title ==` line when the table has a title.
impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(title) = &self.title {
            writeln!(f, "== {title} ==")?;
        }
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (width, cell) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell.len());
            }
        }
        let write_row = |f: &mut std::fmt::Formatter<'_>, cells: &[String]| {
            for (index, (cell, &width)) in cells.iter().zip(&widths).enumerate() {
                if index > 0 {
                    write!(f, "  ")?;
                }
                // The last column is not padded: no trailing blanks.
                let width = if index + 1 < cells.len() { width } else { 0 };
                write!(f, "{cell:width$}")?;
            }
            writeln!(f)
        };
        write_row(f, &self.columns)?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{MitigationReport, VictimReport};
    use dlk_memctrl::ControllerStats;

    fn report(label: &str, defenses: &[(&str, u64)]) -> RunReport {
        RunReport {
            scenario: label.to_owned(),
            attack: "hammer".into(),
            channels: 1,
            landed_flips: 0,
            requests: 10,
            denied: 10,
            redirected: false,
            target_bits: vec![],
            flipped_bits: vec![],
            curve: vec![],
            cycles: 99,
            energy_pj: 1.5,
            controller: ControllerStats::default(),
            victims: vec![VictimReport::default()],
            mitigations: defenses
                .iter()
                .map(|(n, a)| MitigationReport { name: (*n).to_owned(), actions: *a })
                .collect(),
        }
    }

    #[test]
    fn defense_columns_are_the_union_in_first_appearance_order() {
        let a = report("a", &[("dram-locker", 3)]);
        let b = report("b", &[("graphene", 5)]);
        let table = Table::from_reports([&a, &b]);
        let columns = table.columns();
        assert_eq!(columns[columns.len() - 2..], ["mit:dram-locker", "mit:graphene"]);
        // Row a has no graphene cell, row b no locker cell.
        assert_eq!(table.rows()[0][columns.len() - 2..], ["3".to_owned(), String::new()]);
        assert_eq!(table.rows()[1][columns.len() - 2..], [String::new(), "5".to_owned()]);
    }

    #[test]
    fn cells_stay_raw_and_escape_exactly_once_at_csv_time() {
        let quoted = report("a,\"b\"", &[]);
        let table = Table::from_reports([&quoted]);
        // Raw in the table (and therefore in markdown/Display)…
        assert_eq!(table.rows()[0][0], "a,\"b\"");
        // …escaped exactly once in CSV, parsing back to the raw label.
        let row = table.to_csv().lines().nth(1).unwrap().to_owned();
        assert!(row.starts_with("\"a,\"\"b\"\"\","), "{row}");
        // RunReport's own single-row export matches.
        assert!(quoted.to_csv_row().starts_with("\"a,\"\"b\"\"\","));
    }

    #[test]
    fn csv_and_markdown_agree_on_shape() {
        let a = report("a", &[("dram-locker", 3)]);
        let table = Table::from_reports([&a]);
        let csv = table.to_csv();
        assert_eq!(csv.lines().count(), 2);
        assert_eq!(csv.lines().next().unwrap().split(',').count(), table.columns().len());
        let md = table.to_markdown();
        assert_eq!(md.lines().count(), 3);
        assert!(md.lines().nth(1).unwrap().starts_with("|---|"));
        let text = table.to_string();
        assert!(text.lines().next().unwrap().starts_with("scenario"));
    }

    #[test]
    fn titled_table_renders_aligned_under_its_title() {
        let mut table = Table::new("t", &["name", "value"]);
        table.row(vec!["alpha".to_owned(), "1".to_owned()]);
        table.row(vec!["b".to_owned(), "10000".to_owned()]);
        assert_eq!(table.to_string(), "== t ==\nname   value\nalpha  1\nb      10000\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_row_rejected() {
        let mut table = Table::new("t", &["a", "b"]);
        table.row(vec!["only-one".to_owned()]);
    }
}
