//! The analyzer's diagnostics.
//!
//! A [`Diagnostic`] is one finding: a stable [`RuleCode`], a
//! [`Severity`] (both stated in `dlk_sim::check`), a `file:line:col`
//! span and a message. A [`Report`] collects them and renders the
//! aligned text listing that `dlk check` prints.

use dlk_sim::{Finding, RuleCode, Severity};

/// One finding, anchored to a `file:line:col` span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub code: RuleCode,
    /// Error or warning.
    pub severity: Severity,
    /// Path of the offending spec file, as the caller named it (or a
    /// `<catalog:name>` pseudo-path for catalog entries, which have no
    /// file).
    pub file: String,
    /// 1-based line of the finding (0 = whole file).
    pub line: usize,
    /// 1-based column of the finding (0 = whole line).
    pub col: usize,
    /// What is wrong, in one sentence.
    pub message: String,
}

impl Diagnostic {
    /// An error-severity finding.
    pub fn error(
        code: RuleCode,
        file: impl Into<String>,
        line: usize,
        col: usize,
        message: impl Into<String>,
    ) -> Self {
        Self {
            code,
            severity: Severity::Error,
            file: file.into(),
            line,
            col,
            message: message.into(),
        }
    }

    /// A spec's [`Finding`], anchored at `file:line:col`.
    pub fn at(file: &str, line: usize, col: usize, finding: Finding) -> Self {
        let Finding { code, severity, message, .. } = finding;
        Self { code, severity, file: file.to_owned(), line, col, message }
    }

    /// The `file:line:col` span prefix.
    pub fn location(&self) -> String {
        format!("{}:{}:{}", self.file, self.line, self.col)
    }
}

/// An ordered collection of findings plus scan metadata.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Findings in file/line order (see [`Report::sort`]).
    pub diagnostics: Vec<Diagnostic>,
    /// How many files the analyzer scanned.
    pub files_scanned: usize,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a finding.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Absorbs another report (findings and file counts).
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
        self.files_scanned += other.files_scanned;
    }

    /// Sorts findings by file, then line, column and code — a stable
    /// order for the listing.
    pub fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            (&a.file, a.line, a.col, a.code).cmp(&(&b.file, b.line, b.col, b.code))
        });
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    /// Renders the aligned text listing: every finding as
    /// `location: severity[CODE] message` with the location column
    /// padded to the widest span, followed by a one-line summary.
    pub fn render_text(&self) -> String {
        let width = self.diagnostics.iter().map(|d| d.location().len()).max().unwrap_or(0);
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!(
                "{loc:<width$}  {sev}[{code}] {msg}\n",
                loc = d.location(),
                sev = d.severity.tag(),
                code = d.code,
                msg = d.message,
            ));
        }
        out.push_str(&format!(
            "{} file{} scanned: {} error{}, {} warning{}\n",
            self.files_scanned,
            plural(self.files_scanned),
            self.errors(),
            plural(self.errors()),
            self.warnings(),
            plural(self.warnings()),
        ));
        out
    }
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_locations_and_counts() {
        let mut report = Report::new();
        report.files_scanned = 2;
        report.push(Diagnostic::error(RuleCode::Dlk101, "a/long/path.dlk", 10, 5, "bad"));
        let meh = Diagnostic::error(RuleCode::Dlk103, "b.dlk", 1, 1, "meh");
        report.push(Diagnostic { severity: Severity::Warning, ..meh });
        report.sort();
        let text = report.render_text();
        assert!(text.contains("a/long/path.dlk:10:5  error[DLK101] bad"), "{text}");
        assert!(text.contains("b.dlk:1:1"), "{text}");
        assert!(text.contains("2 files scanned: 1 error, 1 warning"), "{text}");
        // The two severity columns start at the same offset.
        let cols: Vec<usize> =
            text.lines().take(2).map(|l| l.find("rror").or(l.find("arning")).unwrap()).collect();
        assert_eq!(cols[0], cols[1], "{text}");
    }

    #[test]
    fn sort_orders_by_file_then_line() {
        let mut report = Report::new();
        report.push(Diagnostic::error(RuleCode::Dlk103, "b.dlk", 1, 1, "x"));
        report.push(Diagnostic::error(RuleCode::Dlk101, "a.dlk", 9, 1, "x"));
        report.push(Diagnostic::error(RuleCode::Dlk102, "a.dlk", 2, 1, "x"));
        report.sort();
        let order: Vec<(&str, usize)> =
            report.diagnostics.iter().map(|d| (d.file.as_str(), d.line)).collect();
        assert_eq!(order, [("a.dlk", 2), ("a.dlk", 9), ("b.dlk", 1)]);
    }
}
