//! `dlk bench diff <old.json> <new.json> [--check] [--max-regress
//! PCT]` — compare two schema-v2 snapshot documents.
//!
//! Thin shell over [`dlk_bench::diff`]: both documents are parsed with
//! the shared JSON reader, aligned by member name, and printed as a
//! delta table with percent changes. With `--check`, any row that
//! moved in its bad direction — throughput down, time up — by more
//! than `--max-regress` percent (default 10) *and* more than the
//! baseline's recorded spread fails the command; wall times under the
//! floor never do. This is the CI regression gate over the committed
//! `BENCH_*.json` baselines.

use dlk_bench::diff;
use dlk_sim::obs::json;

use crate::args;
use crate::CliError;

const USAGE: &str = "dlk bench diff <old.json> <new.json> [--check] [--max-regress PCT]";

/// Default regression threshold for `--check`, in percent.
const DEFAULT_MAX_REGRESS: f64 = 10.0;

/// Runs the subcommand.
///
/// # Errors
///
/// Usage errors, [`CliError::Failed`] when a document is missing or
/// unparseable, and — under `--check` — when any metric regressed past
/// the gate.
pub fn run(mut args: Vec<String>) -> Result<(), CliError> {
    let check = args::take_switch(&mut args, "--check");
    let max_regress = match args::take_value(&mut args, "--max-regress")? {
        Some(raw) => raw.parse::<f64>().map_err(|_| {
            CliError::Usage(format!("--max-regress expects a percentage, got '{raw}'"))
        })?,
        None => DEFAULT_MAX_REGRESS,
    };
    let mut operands = args::positionals(args, USAGE)?;
    if operands.first().map(String::as_str) != Some("diff") {
        return Err(CliError::Usage(format!("expected the 'diff' subcommand\n  {USAGE}")));
    }
    operands.remove(0);
    let [old_path, new_path] = operands.as_slice() else {
        return Err(CliError::Usage(format!("expected two snapshot files\n  {USAGE}")));
    };

    let old = json::parse_file(old_path).map_err(CliError::Failed)?;
    let new = json::parse_file(new_path).map_err(CliError::Failed)?;
    let diff = diff::diff(&old, &new);

    print!("{}", diff.render(check.then_some(max_regress)));

    if check {
        let regressed = diff.regressions(max_regress);
        if !regressed.is_empty() {
            let worst: Vec<String> = regressed
                .iter()
                .map(|d| {
                    format!("{}/{} {:.1}%", d.section, d.name, d.regression_pct().unwrap_or(0.0))
                })
                .collect();
            return Err(CliError::Failed(format!(
                "{}: {} metric(s) regressed more than {max_regress}% and their spread: {}",
                diff.new_name,
                regressed.len(),
                worst.join(", ")
            )));
        }
        println!("ok: no metric regressed more than {max_regress}% beyond its spread");
    }
    Ok(())
}
