//! The `dlk` subcommands. Each module exposes
//! `run(args: Vec<String>) -> Result<(), CliError>` over the argument
//! vector that followed the command word.

pub mod bench;
pub mod catalog;
pub mod check;
pub mod run;
pub mod serve;
pub mod sweep;
pub mod top;

use std::path::{Path, MAIN_SEPARATOR};

use dlk_sim::ScenarioSpec;

use crate::CliError;

/// Resolves a `run`/`sweep` target to its spec list: anything that
/// looks like a path (exists, ends in `.dlk`, or contains a separator)
/// is loaded as a spec file; everything else is a catalog name, so an
/// unknown one surfaces the catalog's did-you-mean suggestion.
///
/// A file is read and parsed once. Loaded specs pass through the `dlk
/// check` rules before they are returned, so a bad spec fails fast with
/// a rule code (and its record's `file:line:col`) instead of at build;
/// warnings print to stderr and do not block.
pub(crate) fn load_specs(target: &str) -> Result<Vec<ScenarioSpec>, CliError> {
    let looks_like_path =
        Path::new(target).exists() || target.ends_with(".dlk") || target.contains(MAIN_SEPARATOR);
    if looks_like_path {
        let text = std::fs::read_to_string(target).map_err(|error| CliError::io(target, error))?;
        let specs = ScenarioSpec::list_from_text_with_lines(&text)?;
        if specs.is_empty() {
            return Err(CliError::Failed(format!("{target}: no specs in file")));
        }
        deny_semantic_errors(dlk_lint::analyze::analyze_list(target, &text, &specs))?;
        Ok(specs.into_iter().map(|(_, spec)| spec).collect())
    } else {
        let entry = dlk_sim::find(target)?;
        let report =
            dlk_lint::analyze::analyze_spec(&format!("<catalog:{}>", entry.name), &entry.spec);
        deny_semantic_errors(report)?;
        Ok(vec![entry.spec])
    }
}

/// Fails with the rendered findings when any are error-severity;
/// prints warning-only reports to stderr.
fn deny_semantic_errors(report: dlk_lint::Report) -> Result<(), CliError> {
    if report.errors() > 0 {
        return Err(CliError::Failed(format!(
            "spec failed semantic checks (see `dlk check`):\n{}",
            report.render_text()
        )));
    }
    if report.warnings() > 0 {
        eprint!("{}", report.render_text());
    }
    Ok(())
}

/// Exactly one positional operand, or a usage error citing `usage`.
pub(crate) fn one_operand(args: Vec<String>, usage: &str) -> Result<String, CliError> {
    let mut args = crate::args::positionals(args, usage)?;
    match args.len() {
        1 => Ok(args.remove(0)),
        0 => Err(CliError::Usage(format!("missing operand\n  {usage}"))),
        _ => Err(CliError::Usage(format!("too many operands\n  {usage}"))),
    }
}
