//! `dlk sweep <grid.dlk> [--jobs N] [--out FILE] [--timeout-secs S]
//! [--metrics FILE]` — run every spec in a grid file on the process's
//! worker pool, streaming CSV rows to stdout as jobs finish (status
//! lines go to stderr). `--out` additionally writes the rows in spec
//! order, which — because the runner's results are bit-identical to a
//! serial run — is the same file any job count produces.
//! `--metrics` dumps the observed registry (queue scheduling metrics
//! plus the aggregated engine/controller/locker metrics of every run)
//! as shared-schema JSON after the sweep.

use std::collections::HashSet;
use std::fs;
use std::time::{Duration, Instant};

use dlk_sim::obs::Registry;
use dlk_sim::{JobStatus, RunReport, SweepRunner};

use crate::args;
use crate::CliError;

const USAGE: &str =
    "dlk sweep <grid.dlk> [--jobs N] [--out FILE] [--timeout-secs S] [--metrics FILE]";

/// Runs the subcommand.
///
/// # Errors
///
/// Usage errors, grid parse errors, `--out` write failures, and
/// [`CliError::Failed`] when any job ended other than `done`.
pub fn run(mut args: Vec<String>) -> Result<(), CliError> {
    let jobs = args::take_value(&mut args, "--jobs")?;
    let out = args::take_value(&mut args, "--out")?;
    let timeout = args::take_value(&mut args, "--timeout-secs")?;
    let metrics = args::take_value(&mut args, "--metrics")?;
    let grid = super::one_operand(args, USAGE)?;
    let specs = super::load_specs(&grid)?;

    let mut runner = match jobs {
        Some(raw) => {
            let n = args::parse_count("--jobs", &raw)?;
            if n == 0 {
                return Err(CliError::Usage("--jobs must be at least 1".to_owned()));
            }
            SweepRunner::with_threads(n as usize)
        }
        None => SweepRunner::parallel(),
    };
    if let Some(raw) = timeout {
        runner = runner.timeout(Duration::from_secs(args::parse_count("--timeout-secs", &raw)?));
    }
    let registry = Registry::new();
    if metrics.is_some() {
        runner = runner.observe(&registry);
    }
    runner = runner.on_progress(|outcome| {
        match &outcome.report {
            Ok(report) => println!("{}", report.to_csv_row()),
            Err(err) => {
                eprintln!("dlk: sweep: {} {}: {err}", outcome.status().token(), outcome.label);
            }
        }
        true
    });

    println!("{}", RunReport::csv_header());
    let started = Instant::now();
    let outcomes = runner.run_jobs(&specs);
    let elapsed = started.elapsed();

    if let Some(path) = out {
        let mut csv = String::from(RunReport::csv_header());
        csv.push('\n');
        for outcome in &outcomes {
            if let Ok(report) = &outcome.report {
                csv.push_str(&report.to_csv_row());
                csv.push('\n');
            }
        }
        fs::write(&path, csv).map_err(|e| CliError::io(&path, e))?;
    }
    if let Some(path) = metrics {
        registry.write_json("dlk-sweep", &path).map_err(|e| CliError::io(&path, e))?;
        eprintln!("dlk: sweep: metrics written to {path}");
    }

    let done = outcomes.iter().filter(|o| o.status() == JobStatus::Done).count();
    // The threads that ran a job: `--jobs` only caps them, and the pool
    // runs at most one per core.
    let workers: HashSet<usize> = outcomes.iter().filter_map(|o| o.worker).collect();
    let rate = outcomes.len() as f64 / elapsed.as_secs_f64().max(1e-9);
    eprintln!(
        "dlk: sweep: {done}/{} done on {} worker(s) in {elapsed:.2?} ({rate:.2} jobs/s)",
        outcomes.len(),
        workers.len(),
    );
    if done < outcomes.len() {
        return Err(CliError::Failed(format!(
            "{} of {} jobs did not finish done",
            outcomes.len() - done,
            outcomes.len()
        )));
    }
    Ok(())
}
