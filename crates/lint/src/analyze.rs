//! `dlk check`: the spec rules, anchored to files.
//!
//! The rules a single spec must meet (DLK101, DLK103–DLK105) are
//! stated once, in [`ScenarioSpec::check`], and every scenario build
//! applies them. This pass adds what concerns files: DLK102 (a label
//! repeated across a spec list, which silently shadows a sweep row in
//! results keyed by label) and the `file:line:col` of each finding's
//! record (or a `<catalog:NAME>` pseudo-file for catalog entries, which
//! have no file).

use std::collections::HashSet;

use dlk_sim::{RuleCode, ScenarioSpec, SimError};

use crate::diag::{Diagnostic, Report};

/// Line index of one spec chunk inside a list file: resolves a
/// finding's record to the `line:col` of its record line.
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
    fn record(&self, (key, nth): (&str, usize)) -> (usize, usize) {
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
    Ok(analyze_list(file, text, &specs))
}

/// Analyzes the specs that
/// [`ScenarioSpec::list_from_text_with_lines`] parsed from `text`, for
/// a caller that runs them after the check.
pub fn analyze_list(file: &str, text: &str, specs: &[(usize, ScenarioSpec)]) -> Report {
    let lines: Vec<&str> = text.lines().collect();
    let mut report = Report::new();
    report.files_scanned = 1;
    let mut labels = HashSet::with_capacity(specs.len());
    for (at, (start, spec)) in specs.iter().enumerate() {
        let to = specs.get(at + 1).map_or(lines.len(), |(next_start, _)| next_start - 1);
        let spans = ChunkSpans { lines: &lines, from: *start, to };
        if !labels.insert(spec.label.as_str()) {
            let (line, col) = spans.record(("label", 0));
            report.push(Diagnostic::error(
                RuleCode::Dlk102,
                file,
                line,
                col,
                format!("duplicate label '{}' in spec list", spec.label),
            ));
        }
        for finding in spec.check() {
            let (line, col) = spans.record(finding.record);
            report.push(Diagnostic::at(file, line, col, finding));
        }
    }
    report.sort();
    report
}

/// Analyzes an already-parsed spec with no backing file (catalog
/// entries): findings anchor to `file` at line 0.
pub fn analyze_spec(file: &str, spec: &ScenarioSpec) -> Report {
    let mut report = Report::new();
    report.files_scanned = 1;
    for finding in spec.check() {
        report.push(Diagnostic::at(file, 0, 0, finding));
    }
    report.sort();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlk_sim::{AttackSpec, DefenseSpec, VictimSpec};

    fn codes(report: &Report) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code.code()).collect()
    }

    /// A spec that deploys one raw-row victim and nothing else: the
    /// smallest spec that may run.
    fn one_victim(label: &str) -> ScenarioSpec {
        ScenarioSpec { victims: vec![(VictimSpec::row(20, 0xA5), 0)], ..ScenarioSpec::new(label) }
    }

    #[test]
    fn clean_spec_has_no_findings() {
        let report = analyze_text("a.dlk", &one_victim("clean").to_text()).unwrap();
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
        let mut text = one_victim("same").to_text();
        text.push_str(&one_victim("other").to_text());
        text.push_str(&one_victim("same").to_text());
        let report = analyze_text("list.dlk", &text).unwrap();
        assert_eq!(codes(&report), ["DLK102"]);
        // Anchored in the *third* chunk.
        let expected =
            text.lines().count() - text.lines().rev().position(|l| l == "label same").unwrap();
        assert_eq!(report.diagnostics[0].line, expected);

        // A label used three times: one finding per repeat, anchored
        // in the second and third chunks.
        let text = one_victim("same").to_text().repeat(3);
        let report = analyze_text("list.dlk", &text).unwrap();
        assert_eq!(codes(&report), ["DLK102", "DLK102"]);
        let label_lines: Vec<usize> = (text.lines().enumerate())
            .filter(|(_, line)| *line == "label same")
            .map(|(index, _)| index + 1)
            .collect();
        let lines: Vec<usize> = report.diagnostics.iter().map(|d| d.line).collect();
        assert_eq!(lines, label_lines[1..]);
    }

    #[test]
    fn dlk103_zero_budget_is_an_error_and_huge_budget_a_warning() {
        let hammer =
            ScenarioSpec { attack: Some(AttackSpec::Hammer { bit: 7 }), ..one_victim("budget") };
        let mut spec = hammer.clone();
        spec.budget.max_activations = 0;
        let report = analyze_text("a.dlk", &spec.to_text()).unwrap();
        assert_eq!(codes(&report), ["DLK103"]);
        assert_eq!(report.errors(), 1);

        let mut spec = hammer;
        spec.budget.max_activations = 2_000_000_000;
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
    fn dlk104_names_the_layer_count_when_bfa_has_no_candidates() {
        for (kind, count) in [("tiny", "tiny has 2"), ("resnet20-cnn", "resnet20-cnn has 22")] {
            let text = format!(
                "label zero\nvictim model home=0 protect=1 kind={kind} seed=42 base=0x400\n\
                 attack progressive-bfa rate=1 seed=1 candidates=0 bits=6,7\n"
            );
            let report = analyze_text("a.dlk", &text).unwrap();
            assert_eq!(codes(&report), ["DLK104"]);
            let message = &report.diagnostics[0].message;
            assert!(message.contains(&format!("{count} weighted layers")), "{message}");
        }
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
            ..one_victim("dup-defense")
        };
        let report = analyze_text("a.dlk", &spec.to_text()).unwrap();
        assert_eq!(codes(&report), ["DLK105"]);
        // rrs and srs are different mitigations, not duplicates.
        let spec = ScenarioSpec {
            defenses: vec![DefenseSpec::rrs(800, 1), DefenseSpec::srs(800, 1)],
            ..one_victim("swap-pair")
        };
        assert!(analyze_text("a.dlk", &spec.to_text()).unwrap().diagnostics.is_empty());
    }

    /// A spec list whose second spec repeats the first one's `op`
    /// block, which the parser shares instead of reading: findings
    /// after the block still anchor at their whole-file lines.
    #[test]
    fn findings_after_a_shared_op_block_keep_their_lines() {
        let trace = dlk_sim::Workload::Sequential { base: 0, len: 8, count: 50 }.trace();
        let spec = |defenses| ScenarioSpec {
            attack: Some(AttackSpec::trace(trace.clone())),
            defenses,
            ..one_victim("same")
        };
        let mut text = spec(vec![]).to_text();
        text.push_str(
            &spec(vec![DefenseSpec::graphene(64, 8), DefenseSpec::graphene(128, 16)]).to_text(),
        );
        let line_of = |prefix: &str, nth: usize| {
            text.lines()
                .enumerate()
                .filter(|(_, line)| line.starts_with(prefix))
                .nth(nth)
                .unwrap()
                .0
                + 1
        };
        let report = analyze_text("list.dlk", &text).unwrap();
        let found: Vec<(&str, usize)> =
            report.diagnostics.iter().map(|d| (d.code.code(), d.line)).collect();
        assert_eq!(
            found,
            [("DLK102", line_of("label same", 1)), ("DLK105", line_of("defense graphene", 1))]
        );
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
