//! Property: a `dlk-lint: allow(CODE)` waiver silences a diagnostic
//! if and only if it names that diagnostic's exact rule code — it can
//! never mask a *different* rule on the same line.

use dlk_lint::lexer::lex;
use dlk_lint::rules::lint_lexed;
use dlk_lint::RuleCode;

use proptest::prelude::*;

/// `crates/memctrl/src/controller.rs` is both a hot-path file (DLK001)
/// and inside a deterministic crate (DLK003), and not the worker pool
/// (DLK005), so each violation can be planted at the same path.
const FIXTURE_PATH: &str = "crates/memctrl/src/controller.rs";

fn violation(index: usize) -> (&'static str, RuleCode) {
    match index {
        0 => ("let v = queue.pop().unwrap();", RuleCode::Dlk001),
        1 => ("let t = Instant::now();", RuleCode::Dlk003),
        2 => ("std::thread::sleep(pause);", RuleCode::Dlk003),
        _ => ("let h = std::thread::spawn(job);", RuleCode::Dlk005),
    }
}

proptest! {
    #[test]
    fn allow_silences_only_its_exact_code(
        planted in 0usize..4,
        allowed in 0..RuleCode::ALL.len(),
        trailing in any::<bool>(),
    ) {
        let (stmt, expected) = violation(planted);
        let allow = RuleCode::ALL[allowed];
        let source = if trailing {
            format!("pub fn f() {{\n    {stmt} // dlk-lint: allow({})\n}}\n", allow.code())
        } else {
            format!(
                "pub fn f() {{\n    // dlk-lint: allow({}): fixture\n    {stmt}\n}}\n",
                allow.code()
            )
        };
        let report = lint_lexed(&[(FIXTURE_PATH.to_owned(), lex(&source))]);
        if allow == expected {
            prop_assert!(
                report.diagnostics.is_empty(),
                "allow({}) must silence {}: {}",
                allow.code(),
                expected.code(),
                report.render_text()
            );
        } else {
            prop_assert_eq!(report.diagnostics.len(), 1);
            prop_assert_eq!(report.diagnostics[0].code, expected);
        }
    }
}
