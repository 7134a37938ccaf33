//! `dlk-lint`: static analysis for the DRAM-Locker workspace.
//!
//! Two front ends share one diagnostics core ([`diag`]):
//!
//! 1. The **source linter** ([`rules`], surfaced as the `dlk-lint`
//!    binary): a hand-rolled lexer ([`lexer`]) walks the workspace's
//!    Rust sources and enforces the repo invariants — hot-path
//!    panic-freedom (DLK001), the obs layer's relaxed-only atomic
//!    policy (DLK002), the deterministic crates' no-wall-clock /
//!    no-ambient-RNG guarantee (DLK003), spec-codec exhaustiveness
//!    across both text directions (DLK004), and threads started only
//!    by the worker pool (DLK005).
//! 2. The **spec analyzer** ([`analyze`], surfaced as `dlk check`):
//!    semantic validation of parsed
//!    [`ScenarioSpec`](dlk_sim::ScenarioSpec)s without running them —
//!    channel ranges, duplicate labels, degenerate budgets, target
//!    indices, duplicate mitigations (DLK101–DLK105).
//!
//! Both run in CI as hard gates (`dlk-lint --deny`, `dlk check
//! specs/`). Findings carry stable rule codes and `file:line:col`
//! spans, render as an aligned text listing, and export as a
//! schema-v2 JSON document (`kind: "lint"`) via [`dlk_obs::json`].
//! Any finding can be waived in place with
//! `// dlk-lint: allow(CODE): reason`.

pub mod analyze;
pub mod diag;
pub mod lexer;
pub mod rules;

pub use diag::{Diagnostic, Report, RuleCode, Severity};

/// Usage text for the `dlk-lint` binary.
pub const USAGE: &str = "\
usage: dlk-lint [ROOT] [--deny] [--report FILE]
       dlk-lint --verify-report FILE

Lints the workspace rooted at ROOT (default: current directory).

  --deny                 exit 1 when any error-severity finding remains
  --report FILE          also write the findings as a schema-v2 JSON document
  --verify-report FILE   parse FILE with the schema-v2 reader and check
                         it is a lint report (CI artifact self-check)
";

/// Entry point for the `dlk-lint` binary: parses `args` (without the
/// program name) and returns the process exit code — 0 clean, 1 for
/// denied findings or a failed report verification, 2 for usage
/// errors.
pub fn run_main(args: Vec<String>) -> i32 {
    let mut root = None;
    let mut deny = false;
    let mut report_path = None;
    let mut verify_path = None;
    let mut at = 0usize;
    while at < args.len() {
        match args[at].as_str() {
            "--deny" => deny = true,
            "--report" | "--verify-report" => {
                let Some(value) = args.get(at + 1) else {
                    eprintln!("dlk-lint: {} needs a file argument\n{USAGE}", args[at]);
                    return 2;
                };
                if args[at] == "--report" {
                    report_path = Some(value.clone());
                } else {
                    verify_path = Some(value.clone());
                }
                at += 1;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            flag if flag.starts_with('-') => {
                eprintln!("dlk-lint: unknown flag {flag}\n{USAGE}");
                return 2;
            }
            positional => {
                if root.replace(positional.to_string()).is_some() {
                    eprintln!("dlk-lint: more than one ROOT\n{USAGE}");
                    return 2;
                }
            }
        }
        at += 1;
    }

    if let Some(path) = verify_path {
        return match verify_report(&path) {
            Ok(summary) => {
                println!("{path}: ok ({summary})");
                0
            }
            Err(reason) => {
                eprintln!("dlk-lint: {reason}");
                1
            }
        };
    }

    let root = root.unwrap_or_else(|| ".".to_string());
    let report = match rules::lint_workspace(std::path::Path::new(&root)) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("dlk-lint: {root}: {err}");
            return 1;
        }
    };
    print!("{}", report.render_text());
    if let Some(path) = report_path {
        if let Err(err) = report.to_document("workspace").write(&path) {
            eprintln!("dlk-lint: writing {path}: {err}");
            return 1;
        }
    }
    if deny && report.errors() > 0 {
        return 1;
    }
    0
}

/// Parses `path` with the schema-v2 reader and checks it is a lint
/// report; returns a one-line summary of its contents.
fn verify_report(path: &str) -> Result<String, String> {
    let value = dlk_obs::json::parse_file(path)?;
    let kind = value.get("kind").and_then(dlk_obs::json::Value::as_str).unwrap_or("<none>");
    if kind != "lint" {
        return Err(format!("{path}: kind is {kind:?}, expected \"lint\""));
    }
    let summary = value
        .section("summary")
        .first()
        .ok_or_else(|| format!("{path}: missing summary section"))?;
    let count = |key: &str| summary.get(key).and_then(dlk_obs::json::Value::as_u64).unwrap_or(0);
    Ok(format!(
        "{} files, {} errors, {} warnings, {} diagnostics",
        count("files_scanned"),
        count("errors"),
        count("warnings"),
        value.section("diagnostics").len()
    ))
}
