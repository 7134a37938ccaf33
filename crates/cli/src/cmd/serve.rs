//! `dlk serve --spool DIR --out DIR [...]` — the spool daemon. All the
//! machinery lives in [`crate::spool`]; this module is flag parsing
//! plus a stderr log sink.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use dlk_sim::SweepRunner;

use crate::args;
use crate::spool::{serve, ServeConfig};
use crate::CliError;

const USAGE: &str = "dlk serve --spool DIR --out DIR [--jobs N] [--poll-ms M] [--once] \
                     [--timeout-secs S] [--abort-after K]";

/// Runs the subcommand.
///
/// # Errors
///
/// Usage errors and spool/out directory I/O failures; individual job
/// failures are journaled and reported in the summary instead.
pub fn run(mut args: Vec<String>) -> Result<(), CliError> {
    let spool = args::take_value(&mut args, "--spool")?;
    let out = args::take_value(&mut args, "--out")?;
    let jobs = args::take_value(&mut args, "--jobs")?;
    let poll_ms = args::take_value(&mut args, "--poll-ms")?;
    let timeout = args::take_value(&mut args, "--timeout-secs")?;
    let abort_after = args::take_value(&mut args, "--abort-after")?;
    let once = args::take_switch(&mut args, "--once");
    let rest = args::positionals(args, USAGE)?;
    if !rest.is_empty() {
        return Err(CliError::Usage(format!("unexpected operand '{}'\n  {USAGE}", rest[0])));
    }
    let (Some(spool), Some(out)) = (spool, out) else {
        return Err(CliError::Usage(format!("--spool and --out are required\n  {USAGE}")));
    };

    let jobs = match jobs {
        Some(raw) => {
            let n = args::parse_count("--jobs", &raw)?;
            if n == 0 {
                return Err(CliError::Usage("--jobs must be at least 1".to_owned()));
            }
            n as usize
        }
        // One worker per core of the process's pool.
        None => SweepRunner::parallel().threads(),
    };
    let poll = match poll_ms {
        Some(raw) => Duration::from_millis(args::parse_count("--poll-ms", &raw)?),
        None => Duration::from_millis(500),
    };
    let job_timeout = match timeout {
        Some(raw) => Some(Duration::from_secs(args::parse_count("--timeout-secs", &raw)?)),
        None => None,
    };
    let abort_after = match abort_after {
        Some(raw) => Some(args::parse_count("--abort-after", &raw)? as usize),
        None => None,
    };

    let cfg = ServeConfig {
        spool: PathBuf::from(spool),
        out: PathBuf::from(out),
        jobs,
        poll,
        once,
        job_timeout,
        abort_after,
        max_scans: None,
    };
    let summary = serve(&cfg, Arc::new(|line: &str| eprintln!("dlk: {line}")))?;
    eprintln!("dlk: {summary}");
    if summary.failed > 0 {
        return Err(CliError::Failed(format!("{} job(s) did not finish done", summary.failed)));
    }
    Ok(())
}
