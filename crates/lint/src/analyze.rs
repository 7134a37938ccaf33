//! Front end 2: the scenario-spec semantic analyzer (`dlk check`).
//!
//! Parsing a `.dlk` file already rejects syntax errors; this pass
//! rejects specs that parse but cannot mean what their author wanted —
//! a victim homed on a channel the engine does not have, a duplicate
//! label silently shadowing a sweep row, a budget that can never fire,
//! an attack aimed at a victim it does not run against. Findings use the
//! same [`Report`]/rule-code machinery as the source linter, with
//! spans resolved back to the record lines of the spec file (or a
//! `<catalog:NAME>` pseudo-file for catalog entries, which have no
//! file).

use dlk_sim::{AttackSpec, ScenarioSpec, SimError, VictimSpec};

use crate::diag::{Diagnostic, Report, RuleCode, Severity};

/// Budgets above these bounds are almost certainly a typo'd unit
/// (warnings, not errors — someone may really mean them).
const ABSURD_ACTIVATIONS: u64 = 1_000_000_000;
const ABSURD_ITERATIONS: usize = 100_000;

/// Which record of a spec a finding anchors to; the front ends map
/// this back to a file span (or to the whole entry for catalog specs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Record {
    Label,
    Budget,
    EvalBatch,
    Target,
    Victim(usize),
    Attack,
    Defense(usize),
}

/// One semantic finding, before span resolution.
struct Finding {
    code: RuleCode,
    severity: Severity,
    record: Record,
    message: String,
}

impl Finding {
    fn error(code: RuleCode, record: Record, message: String) -> Self {
        Self { code, severity: Severity::Error, record, message }
    }

    fn warning(code: RuleCode, record: Record, message: String) -> Self {
        Self { code, severity: Severity::Warning, record, message }
    }
}

/// The semantic rules (DLK101–DLK105) over one parsed spec.
fn check_spec(spec: &ScenarioSpec) -> Vec<Finding> {
    let mut findings = Vec::new();
    let channels = spec.engine.channels;

    // DLK101: every home channel must exist on the engine.
    for (at, (_, home)) in spec.victims.iter().enumerate() {
        if *home >= channels {
            findings.push(Finding::error(
                RuleCode::Dlk101,
                Record::Victim(at),
                format!(
                    "victim home={home} out of range: engine '{}' has {channels} channel{}",
                    spec.engine,
                    if channels == 1 { "" } else { "s" }
                ),
            ));
        }
    }
    if let Some(AttackSpec::WeightFetch { channel, .. }) = &spec.attack {
        if *channel >= channels {
            findings.push(Finding::error(
                RuleCode::Dlk101,
                Record::Attack,
                format!(
                    "weight-fetch channel={channel} out of range: engine '{}' has {channels} channel{}",
                    spec.engine,
                    if channels == 1 { "" } else { "s" }
                ),
            ));
        }
    }

    // DLK103: budgets must be able to fire, and plausibly sized.
    let budget = &spec.budget;
    for (field, value) in [
        ("activations", budget.max_activations),
        ("check", budget.check_interval),
        ("iterations", budget.iterations as u64),
    ] {
        if value == 0 {
            findings.push(Finding::error(
                RuleCode::Dlk103,
                Record::Budget,
                format!("budget {field}=0: the attack loop would never run"),
            ));
        }
    }
    if spec.eval_batch == 0 {
        findings.push(Finding::error(
            RuleCode::Dlk103,
            Record::EvalBatch,
            "eval-batch 0: accuracy would be measured on no samples".to_string(),
        ));
    }
    if let Some(
        attack @ (AttackSpec::InferenceStream { chunk: 0, .. }
        | AttackSpec::WeightFetch { chunk: 0, .. }),
    ) = &spec.attack
    {
        findings.push(Finding::error(
            RuleCode::Dlk103,
            Record::Attack,
            format!("{} chunk=0: every read would be empty", attack.token()),
        ));
    }
    if budget.max_activations > ABSURD_ACTIVATIONS {
        findings.push(Finding::warning(
            RuleCode::Dlk103,
            Record::Budget,
            format!(
                "budget activations={} exceeds {ABSURD_ACTIVATIONS}: likely a unit typo",
                budget.max_activations
            ),
        ));
    }
    if budget.iterations > ABSURD_ITERATIONS {
        findings.push(Finding::warning(
            RuleCode::Dlk103,
            Record::Budget,
            format!(
                "budget iterations={} exceeds {ABSURD_ITERATIONS}: likely a unit typo",
                budget.iterations
            ),
        ));
    }

    // DLK104: the target index must name a deployed victim, and the
    // attack must run against it (the pairing rule scenario build
    // applies).
    let target_valid = spec.target < spec.victims.len();
    if spec.attack.is_some() && !spec.victims.is_empty() && !target_valid {
        findings.push(Finding::error(
            RuleCode::Dlk104,
            Record::Target,
            format!(
                "target {} out of range: spec deploys {} victim{}",
                spec.target,
                spec.victims.len(),
                if spec.victims.len() == 1 { "" } else { "s" }
            ),
        ));
    }
    let target_victim = spec.victims.get(spec.target).map(|(victim, _)| victim);
    if let Some(attack) = &spec.attack {
        if let Some(Err(mismatch)) = target_victim.map(|victim| attack.check_victim(victim)) {
            findings.push(Finding::error(
                RuleCode::Dlk104,
                Record::Attack,
                format!("target {}: {mismatch}", spec.target),
            ));
        }
        if let AttackSpec::ProgressiveBfa { config, .. } = attack {
            if config.candidates_per_layer == 0 {
                let pool = target_victim
                    .and_then(VictimSpec::model_kind)
                    .map(|kind| {
                        format!(
                            " ({} has {} weighted layers)",
                            kind.token(),
                            kind.weighted_layers()
                        )
                    })
                    .unwrap_or_default();
                findings.push(Finding::error(
                    RuleCode::Dlk104,
                    Record::Attack,
                    format!("progressive-bfa candidates=0: no bits per weighted layer{pool}"),
                ));
            }
            if let Some([lo, hi]) = config.bits_considered {
                if lo > hi || hi > 7 {
                    findings.push(Finding::error(
                        RuleCode::Dlk104,
                        Record::Attack,
                        format!("progressive-bfa bits={lo},{hi}: weights are 8-bit (bits 0..=7)"),
                    ));
                }
            }
        }
    }

    // DLK105: a defense stack mounts each mitigation at most once.
    for (at, defense) in spec.defenses.iter().enumerate() {
        if spec.defenses[..at].iter().any(|earlier| earlier.name() == defense.name()) {
            findings.push(Finding::error(
                RuleCode::Dlk105,
                Record::Defense(at),
                format!("defense '{}' mounted twice in the stack", defense.name()),
            ));
        }
    }

    findings
}

/// Line index of one spec chunk inside a list file: resolves a
/// [`Record`] to the `line:col` of its record line.
struct ChunkSpans<'a> {
    lines: &'a [&'a str],
    /// 1-based inclusive line range of the chunk.
    from: usize,
    to: usize,
}

impl ChunkSpans<'_> {
    /// The `nth` record line (0-based) whose first token is `key`,
    /// with the column of its first character; falls back to the
    /// chunk's first line.
    fn record(&self, key: &str, nth: usize) -> (usize, usize) {
        let mut seen = 0usize;
        for line in self.from..=self.to.min(self.lines.len()) {
            let raw = self.lines[line - 1];
            if raw.split_whitespace().next() == Some(key) {
                if seen == nth {
                    let col = raw.len() - raw.trim_start().len() + 1;
                    return (line, col);
                }
                seen += 1;
            }
        }
        (self.from, 1)
    }

    fn span(&self, record: Record) -> (usize, usize) {
        match record {
            Record::Label => self.record("label", 0),
            Record::Budget => self.record("budget", 0),
            Record::EvalBatch => self.record("eval-batch", 0),
            Record::Target => self.record("target", 0),
            Record::Victim(at) => self.record("victim", at),
            Record::Attack => self.record("attack", 0),
            Record::Defense(at) => self.record("defense", at),
        }
    }
}

/// Analyzes the text of one `.dlk` spec (or spec list) file.
/// `file` is the path reported in spans.
///
/// # Errors
///
/// Returns [`SimError::SpecParse`] when the text does not parse at
/// all — syntax errors precede semantic analysis.
pub fn analyze_text(file: &str, text: &str) -> Result<Report, SimError> {
    let specs = ScenarioSpec::list_from_text_with_lines(text)?;
    let lines: Vec<&str> = text.lines().collect();
    let mut report = Report::new();
    report.files_scanned = 1;

    let mut chunk_ends = Vec::with_capacity(specs.len());
    for at in 0..specs.len() {
        let end = specs.get(at + 1).map_or(lines.len(), |(next_start, _)| next_start - 1);
        chunk_ends.push(end);
    }

    // DLK102: labels must be unique within a list file (a duplicate
    // silently shadows a sweep row in results keyed by label).
    for (at, (_, spec)) in specs.iter().enumerate() {
        let earlier = specs[..at].iter().any(|(_, other)| other.label == spec.label);
        if earlier {
            let spans = ChunkSpans { lines: &lines, from: specs[at].0, to: chunk_ends[at] };
            let (line, col) = spans.span(Record::Label);
            report.push(Diagnostic::error(
                RuleCode::Dlk102,
                file,
                line,
                col,
                format!("duplicate label '{}' in spec list", spec.label),
            ));
        }
    }

    for (at, (start, spec)) in specs.iter().enumerate() {
        let spans = ChunkSpans { lines: &lines, from: *start, to: chunk_ends[at] };
        for finding in check_spec(spec) {
            let (line, col) = spans.span(finding.record);
            report.push(Diagnostic {
                code: finding.code,
                severity: finding.severity,
                file: file.to_string(),
                line,
                col,
                message: finding.message,
            });
        }
    }
    report.sort();
    Ok(report)
}

/// Analyzes an already-parsed spec with no backing file (catalog
/// entries): findings anchor to `file` at line 0.
pub fn analyze_spec(file: &str, spec: &ScenarioSpec) -> Report {
    let mut report = Report::new();
    report.files_scanned = 1;
    for finding in check_spec(spec) {
        report.push(Diagnostic {
            code: finding.code,
            severity: finding.severity,
            file: file.to_string(),
            line: 0,
            col: 0,
            message: finding.message,
        });
    }
    report.sort();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlk_sim::DefenseSpec;

    fn codes(report: &Report) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code.code()).collect()
    }

    #[test]
    fn clean_spec_has_no_findings() {
        let report = analyze_text("a.dlk", &ScenarioSpec::new("clean").to_text()).unwrap();
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn dlk101_flags_home_channel_beyond_engine() {
        let spec = ScenarioSpec {
            victims: vec![(VictimSpec::row(20, 0xA5), 3)],
            ..ScenarioSpec::new("bad-home")
        };
        let report = analyze_text("a.dlk", &spec.to_text()).unwrap();
        assert_eq!(codes(&report), ["DLK101"]);
        let diag = &report.diagnostics[0];
        assert!(diag.message.contains("home=3"), "{diag:?}");
        // Anchored at the victim record line.
        let line_text = spec.to_text().lines().nth(diag.line - 1).unwrap().to_string();
        assert!(line_text.starts_with("victim"), "{line_text}");
    }

    #[test]
    fn dlk102_flags_duplicate_labels() {
        let mut text = ScenarioSpec::new("same").to_text();
        text.push_str(&ScenarioSpec::new("other").to_text());
        text.push_str(&ScenarioSpec::new("same").to_text());
        let report = analyze_text("list.dlk", &text).unwrap();
        assert_eq!(codes(&report), ["DLK102"]);
        // Anchored in the *third* chunk.
        let expected =
            text.lines().count() - text.lines().rev().position(|l| l == "label same").unwrap();
        assert_eq!(report.diagnostics[0].line, expected);
    }

    #[test]
    fn dlk103_zero_budget_is_an_error_and_huge_budget_a_warning() {
        let mut spec = ScenarioSpec::new("budget");
        spec.budget.max_activations = 0;
        let report = analyze_text("a.dlk", &spec.to_text()).unwrap();
        assert_eq!(codes(&report), ["DLK103"]);
        assert_eq!(report.errors(), 1);

        let mut spec = ScenarioSpec::new("budget");
        spec.budget.max_activations = ABSURD_ACTIVATIONS + 1;
        let report = analyze_text("a.dlk", &spec.to_text()).unwrap();
        assert_eq!(codes(&report), ["DLK103"]);
        assert_eq!((report.errors(), report.warnings()), (0, 1));
    }

    #[test]
    fn dlk104_flags_target_out_of_range() {
        let spec = ScenarioSpec {
            victims: vec![(VictimSpec::row(20, 0xA5), 0)],
            attack: Some(AttackSpec::Hammer { bit: 7 }),
            target: 2,
            ..ScenarioSpec::new("target")
        };
        let report = analyze_text("a.dlk", &spec.to_text()).unwrap();
        assert_eq!(codes(&report), ["DLK104"]);
        assert!(report.diagnostics[0].message.contains("out of range"));
    }

    #[test]
    fn dlk104_flags_bfa_against_a_rowspan_victim() {
        let spec = ScenarioSpec {
            victims: vec![(VictimSpec::row(20, 0xA5), 0)],
            attack: Some(AttackSpec::RandomFlip { seed: 1 }),
            ..ScenarioSpec::new("bfa-rows")
        };
        let report = analyze_text("a.dlk", &spec.to_text()).unwrap();
        assert_eq!(codes(&report), ["DLK104"]);
        assert!(report.diagnostics[0].message.contains("raw row span"));
    }

    #[test]
    fn dlk104_fires_exactly_where_the_run_rejects_the_pairing() {
        // Every attack kind against a raw row span, a contiguous model
        // and a paged model, on a 64-activation budget.
        let attacks = [
            "hammer bit=7",
            "row-probe accesses=4",
            "bfa-hammer batch=8",
            "progressive-bfa rate=1 seed=1 candidates=2 bits=6,7",
            "random-flip seed=1",
            "page-table pfn-bit=1 xor=0x80",
            "inference batches=1 chunk=32",
            "replay\ntenant sequential base=0x0 len=8 count=4",
            "replay-trace untrusted=1\nop R 0x0 8\nop R 0x40 8",
            "weight-fetch samples=1 chunk=32 channel=0",
        ];
        let victims = [
            "victim rows home=0 protect=0 first=20 count=1 fill=0xa5",
            "victim model home=0 protect=1 kind=tiny seed=42 base=0x400",
            "victim paged home=0 protect=1 kind=tiny seed=42 page=256 pfn=8 table=0x1000",
        ];
        let mut rejected = 0;
        for attack in attacks {
            for victim in victims {
                let text = format!(
                    "label pair\nbudget activations=64 check=8 iterations=1\n{victim}\nattack {attack}\n"
                );
                let spec = ScenarioSpec::from_text(&text).unwrap();
                let token = spec.attack.as_ref().map_or("", AttackSpec::token);
                let flagged = check_spec(&spec).iter().any(|f| f.code == RuleCode::Dlk104);
                match dlk_sim::Scenario::from_spec(&spec).and_then(|mut run| run.run()) {
                    Ok(report) => {
                        assert!(!flagged, "{token} vs `{victim}` runs but DLK104 fires");
                        assert_eq!(report.attack, token);
                    }
                    Err(SimError::Build(why)) => {
                        assert!(flagged, "{token} vs `{victim}` fails to build ({why}) unflagged");
                        rejected += 1;
                    }
                    Err(other) => panic!("{token} vs `{victim}`: {other}"),
                }
            }
        }
        assert_eq!(rejected, 14);
    }

    #[test]
    fn dlk103_flags_a_zero_read_chunk() {
        for attack in [
            AttackSpec::InferenceStream { batches: 1, chunk: 0 },
            AttackSpec::weight_fetch(1, 0, 0),
        ] {
            let spec = ScenarioSpec {
                victims: vec![(VictimSpec::model(dlk_sim::ModelKind::Tiny, 42, 0x400), 0)],
                attack: Some(attack),
                ..ScenarioSpec::new("chunk")
            };
            let report = analyze_text("a.dlk", &spec.to_text()).unwrap();
            assert_eq!(codes(&report), ["DLK103"]);
            assert!(report.diagnostics[0].message.contains("chunk=0"), "{report:?}");
        }
    }

    #[test]
    fn dlk105_flags_duplicate_mitigations() {
        let spec = ScenarioSpec {
            defenses: vec![DefenseSpec::graphene(64, 8), DefenseSpec::graphene(128, 16)],
            ..ScenarioSpec::new("dup-defense")
        };
        let report = analyze_text("a.dlk", &spec.to_text()).unwrap();
        assert_eq!(codes(&report), ["DLK105"]);
        // rrs and srs are different mitigations, not duplicates.
        let spec = ScenarioSpec {
            defenses: vec![DefenseSpec::rrs(800, 1), DefenseSpec::srs(800, 1)],
            ..ScenarioSpec::new("swap-pair")
        };
        assert!(analyze_text("a.dlk", &spec.to_text()).unwrap().diagnostics.is_empty());
    }

    #[test]
    fn catalog_entries_analyze_without_a_file() {
        for entry in dlk_sim::catalog() {
            let report = analyze_spec(&format!("<catalog:{}>", entry.name), &entry.spec);
            assert_eq!(report.errors(), 0, "{}: {:?}", entry.name, report.diagnostics);
        }
    }

    #[test]
    fn syntax_errors_precede_semantics() {
        let err = analyze_text("a.dlk", "label x\nbogus record\n").unwrap_err();
        assert!(matches!(err, SimError::SpecParse { line: 2, .. }), "{err}");
    }
}
