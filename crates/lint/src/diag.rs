//! The diagnostics core shared by both front ends.
//!
//! A [`Diagnostic`] is one finding: a stable [`RuleCode`], a
//! [`Severity`], a `file:line:col` span and a message. A [`Report`]
//! collects them, renders the aligned text listing both front ends
//! print, and exports the schema-v2 JSON document (`kind: "lint"`)
//! that CI uploads as a job artifact — the same
//! [`dlk_obs::json`] writer every other machine-readable artifact in
//! the workspace goes through.

use dlk_obs::json::{escape, number, BuildInfo, Document};

/// Every rule either front end can fire, with a stable code.
///
/// `DLK0xx` are source-linter rules (front end 1, walking `.rs`
/// files); `DLK1xx` are spec-analyzer rules (front end 2, walking
/// parsed [`ScenarioSpec`](dlk_sim::ScenarioSpec)s). Codes are part of
/// the stable interface: suppression comments, CI logs and fixture
/// goldens all name them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleCode {
    /// No `unwrap()` / `expect(` / `panic!` in hot-path modules
    /// outside `#[cfg(test)]`.
    Dlk001,
    /// Atomic-ordering policy: only `Ordering::Relaxed` in
    /// `crates/obs` (the lock-free layer's deliberate policy).
    Dlk002,
    /// Determinism guard: no wall-clock reads, sleeps or non-seeded
    /// RNG construction in the deterministic crates.
    Dlk003,
    /// Codec exhaustiveness: every spec-enum variant must appear in
    /// both the writer and the parser codec regions.
    Dlk004,
    /// Victim home channel (or replay channel) out of range for the
    /// spec's engine configuration.
    Dlk101,
    /// Duplicate labels in a spec list file.
    Dlk102,
    /// Zero (error) or absurd (warning) budget fields, or a zero read
    /// chunk.
    Dlk103,
    /// Target index out of range, an attack aimed at a victim it does
    /// not run against, or a bad `progressive-bfa` search window.
    Dlk104,
    /// Duplicate mitigation in a defense stack.
    Dlk105,
}

impl RuleCode {
    /// Every rule, in code order.
    pub const ALL: [RuleCode; 9] = [
        RuleCode::Dlk001,
        RuleCode::Dlk002,
        RuleCode::Dlk003,
        RuleCode::Dlk004,
        RuleCode::Dlk101,
        RuleCode::Dlk102,
        RuleCode::Dlk103,
        RuleCode::Dlk104,
        RuleCode::Dlk105,
    ];

    /// The stable code string (`DLK001`…), as printed and as written
    /// in `// dlk-lint: allow(CODE)` suppression comments.
    pub fn code(self) -> &'static str {
        match self {
            RuleCode::Dlk001 => "DLK001",
            RuleCode::Dlk002 => "DLK002",
            RuleCode::Dlk003 => "DLK003",
            RuleCode::Dlk004 => "DLK004",
            RuleCode::Dlk101 => "DLK101",
            RuleCode::Dlk102 => "DLK102",
            RuleCode::Dlk103 => "DLK103",
            RuleCode::Dlk104 => "DLK104",
            RuleCode::Dlk105 => "DLK105",
        }
    }

    /// One-line rule summary (the README rule table's text).
    pub fn summary(self) -> &'static str {
        match self {
            RuleCode::Dlk001 => "no unwrap()/expect(/panic! in hot-path modules outside tests",
            RuleCode::Dlk002 => "only Ordering::Relaxed in crates/obs (lock-free layer policy)",
            RuleCode::Dlk003 => "no wall clock, sleeps or non-seeded RNGs in deterministic crates",
            RuleCode::Dlk004 => "every spec-enum variant present in both codec directions",
            RuleCode::Dlk101 => "victim home / replay channel within the engine's channel count",
            RuleCode::Dlk102 => "labels unique within a spec list",
            RuleCode::Dlk103 => "budget fields and read chunks non-zero and plausibly sized",
            RuleCode::Dlk104 => "attack target valid and of the kind the attack runs against",
            RuleCode::Dlk105 => "no duplicate mitigation in a defense stack",
        }
    }

    /// Parses a code string (`DLK001`) back to the rule.
    pub fn parse(code: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|rule| rule.code() == code)
    }
}

impl std::fmt::Display for RuleCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// How bad a finding is. Only errors fail a `--deny` run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory; never fails the gate.
    Warning,
    /// Invariant violation; fails `--deny`.
    Error,
}

impl Severity {
    /// The rendered tag (`error` / `warning`).
    pub fn tag(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding, anchored to a `file:line:col` span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub code: RuleCode,
    /// Error or warning.
    pub severity: Severity,
    /// Path of the offending file, workspace-relative with `/`
    /// separators (or a `<catalog:name>` pseudo-path for catalog
    /// entries, which have no file).
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

    /// A warning-severity finding.
    pub fn warning(
        code: RuleCode,
        file: impl Into<String>,
        line: usize,
        col: usize,
        message: impl Into<String>,
    ) -> Self {
        Self {
            code,
            severity: Severity::Warning,
            file: file.into(),
            line,
            col,
            message: message.into(),
        }
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
    /// How many files the producing front end scanned.
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

    /// Sorts findings by file, then line, column and code — the stable
    /// order the goldens pin.
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

    /// The schema-v2 JSON document (`kind: "lint"`): a `summary`
    /// section with the counts and a `diagnostics` section with one
    /// object per finding.
    pub fn to_document(&self, name: &str) -> Document {
        let mut doc = Document::new("lint", name);
        doc.push_object(
            "summary",
            &[
                ("files_scanned", number(self.files_scanned as f64)),
                ("errors", number(self.errors() as f64)),
                ("warnings", number(self.warnings() as f64)),
            ],
        );
        doc.section("diagnostics");
        for d in &self.diagnostics {
            doc.push_object(
                "diagnostics",
                &[
                    ("code", escape(d.code.code())),
                    ("severity", escape(d.severity.tag())),
                    ("file", escape(&d.file)),
                    ("line", number(d.line as f64)),
                    ("col", number(d.col as f64)),
                    ("message", escape(&d.message)),
                ],
            );
        }
        doc
    }

    /// [`Report::to_document`] with a pinned build header, for golden
    /// tests that need a byte-stable render.
    pub fn to_pinned_document(&self, name: &str) -> Document {
        let mut doc = self.to_document(name);
        doc.set_build(BuildInfo::pinned());
        doc
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
    fn codes_round_trip_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for rule in RuleCode::ALL {
            assert_eq!(RuleCode::parse(rule.code()), Some(rule));
            assert!(seen.insert(rule.code()), "duplicate code {rule}");
            assert!(!rule.summary().is_empty());
        }
        assert_eq!(RuleCode::parse("DLK999"), None);
    }

    #[test]
    fn render_aligns_locations_and_counts() {
        let mut report = Report::new();
        report.files_scanned = 2;
        report.push(Diagnostic::error(RuleCode::Dlk001, "a/long/path.rs", 10, 5, "bad"));
        report.push(Diagnostic::warning(RuleCode::Dlk103, "b.rs", 1, 1, "meh"));
        report.sort();
        let text = report.render_text();
        assert!(text.contains("a/long/path.rs:10:5  error[DLK001] bad"), "{text}");
        assert!(text.contains("b.rs:1:1"), "{text}");
        assert!(text.contains("2 files scanned: 1 error, 1 warning"), "{text}");
        // The two severity columns start at the same offset.
        let cols: Vec<usize> =
            text.lines().take(2).map(|l| l.find("rror").or(l.find("arning")).unwrap()).collect();
        assert_eq!(cols[0], cols[1], "{text}");
    }

    #[test]
    fn sort_orders_by_file_then_line() {
        let mut report = Report::new();
        report.push(Diagnostic::error(RuleCode::Dlk003, "b.rs", 1, 1, "x"));
        report.push(Diagnostic::error(RuleCode::Dlk001, "a.rs", 9, 1, "x"));
        report.push(Diagnostic::error(RuleCode::Dlk002, "a.rs", 2, 1, "x"));
        report.sort();
        let order: Vec<(&str, usize)> =
            report.diagnostics.iter().map(|d| (d.file.as_str(), d.line)).collect();
        assert_eq!(order, [("a.rs", 2), ("a.rs", 9), ("b.rs", 1)]);
    }

    #[test]
    fn json_document_parses_and_carries_findings() {
        let mut report = Report::new();
        report.files_scanned = 1;
        report.push(Diagnostic::error(RuleCode::Dlk004, "spec.rs", 7, 3, "variant \"X\" missing"));
        let json = report.to_pinned_document("unit").to_json();
        let value = dlk_obs::json::parse(&json).expect("lint report must parse");
        assert_eq!(value.get("kind").unwrap().as_str(), Some("lint"));
        let summary = &value.section("summary")[0];
        assert_eq!(summary.get("errors").unwrap().as_u64(), Some(1));
        let diag = &value.section("diagnostics")[0];
        assert_eq!(diag.get("code").unwrap().as_str(), Some("DLK004"));
        assert_eq!(diag.get("line").unwrap().as_u64(), Some(7));
        assert_eq!(diag.get("message").unwrap().as_str(), Some("variant \"X\" missing"));
    }
}
