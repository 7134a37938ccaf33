//! `dlk check <spec.dlk | dir | catalog-name>` — semantic validation
//! of scenario specs without running them.
//!
//! Parsing already rejects malformed records; `check` runs the spec
//! rules (DLK101–DLK105) on everything that parses: channel ranges vs
//! the engine, duplicate labels, degenerate budgets, target indices
//! and duplicate mitigations, each finding at its record's
//! `file:line:col` ([`dlk_lint::analyze`]). A directory checks every
//! `.dlk` file in it (recursively, sorted); a bare name checks the
//! catalog entry of that name, with the catalog's did-you-mean on
//! typos. Exit 0 when no error-severity findings remain (warnings print
//! but pass). Every scenario build refuses the same per-spec errors
//! (`ScenarioSpec::check`), and `dlk run` and `dlk sweep` check their
//! files first, DLK102 included.

use std::path::{Path, PathBuf, MAIN_SEPARATOR};

use dlk_lint::analyze;
use dlk_lint::Report;

use crate::CliError;

const USAGE: &str = "dlk check <spec.dlk | dir | catalog-name>";

/// Runs the subcommand.
///
/// # Errors
///
/// Usage errors, spec parse errors (with line context), unknown
/// catalog names (with did-you-mean), and [`CliError::Failed`] when
/// error-severity findings remain.
pub fn run(args: Vec<String>) -> Result<(), CliError> {
    let target = super::one_operand(args, USAGE)?;
    let path = Path::new(&target);
    let report = if path.is_dir() {
        check_dir(path)?
    } else if path.exists() || target.ends_with(".dlk") || target.contains(MAIN_SEPARATOR) {
        check_file(path)?
    } else {
        // Catalog names reuse `sim::find`, so a typo gets the
        // catalog's did-you-mean suggestion.
        let entry = dlk_sim::find(&target)?;
        analyze::analyze_spec(&format!("<catalog:{}>", entry.name), &entry.spec)
    };
    print!("{}", report.render_text());
    match report.errors() {
        0 => Ok(()),
        n => Err(CliError::Failed(format!("{n} semantic error{}", if n == 1 { "" } else { "s" }))),
    }
}

fn check_file(path: &Path) -> Result<Report, CliError> {
    let text = std::fs::read_to_string(path).map_err(|error| CliError::io(path, error))?;
    Ok(analyze::analyze_text(&path.display().to_string(), &text)?)
}

fn check_dir(dir: &Path) -> Result<Report, CliError> {
    let mut files = Vec::new();
    collect_dlk(dir, &mut files).map_err(|error| CliError::io(dir, error))?;
    files.sort();
    if files.is_empty() {
        return Err(CliError::Failed(format!("{}: no .dlk files", dir.display())));
    }
    let mut report = Report::new();
    for file in files {
        report.merge(check_file(&file)?);
    }
    report.sort();
    Ok(report)
}

fn collect_dlk(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_dlk(&path, files)?;
        } else if path.extension().is_some_and(|ext| ext == "dlk") {
            files.push(path);
        }
    }
    Ok(())
}
