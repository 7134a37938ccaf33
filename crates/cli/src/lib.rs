//! # dlk-cli — the `dlk` binary and spool daemon
//!
//! The serving front door of the workspace: everything the
//! [`ScenarioSpec`](dlk_sim::ScenarioSpec) text codec made enumerable
//! data becomes loadable, runnable and queueable from disk.
//!
//! ```text
//! dlk run <spec.dlk | catalog-name> [--csv] [--trace]
//! dlk sweep <grid.dlk> [--jobs N] [--out FILE] [--timeout-secs S] [--metrics FILE]
//! dlk catalog [--filter SUBSTR] [--dump NAME [--to FILE]]
//! dlk serve --spool DIR --out DIR [--jobs N] [--poll-ms M] [--once]
//! dlk top --spool DIR [--refresh-ms M] [--once]
//! dlk bench diff <old.json> <new.json> [--check] [--max-regress PCT]
//! ```
//!
//! `run` executes one spec file (or named catalog entry — an unknown
//! name surfaces the catalog's did-you-mean suggestion) and prints the
//! aligned [`RunReport`](dlk_sim::RunReport) or its CSV row. `sweep`
//! pushes a spec-list file through the pooled
//! [`SweepRunner`](dlk_sim::SweepRunner), streaming CSV rows as jobs
//! finish. `serve` is the long-running daemon: it watches a spool
//! directory for `.dlk` files, queues every spec, records each
//! completion in an append-only checkpoint journal, and on restart
//! skips already-completed work — a kill mid-sweep loses at most the
//! in-flight jobs (see [`spool`] for the crash-safety contract). Every
//! scan atomically rewrites a `metrics.json` heartbeat (the shared
//! observability schema, including rolling time series that survive
//! restarts) next to the journal. `top` renders that heartbeat as a
//! live terminal view — sparklines, percentiles, stalled-vs-idle —
//! and `bench diff` compares any two schema-v2 snapshots, the CI
//! regression gate over the committed `BENCH_*.json` baselines.
//!
//! The binary is a thin shell over this library so the whole surface —
//! argument parsing, commands, journal, daemon loop — is unit- and
//! integration-testable in-process.

#![allow(
    clippy::disallowed_types,
    reason = "this crate measures wall time by design; clippy.toml bans the clock elsewhere (DLK003)"
)]

pub mod args;
pub mod cmd;
pub mod spool;

use dlk_sim::SimError;

/// Top-level usage text (also printed on `dlk help` and usage errors).
pub const USAGE: &str = "\
dlk — DRAM-Locker serving front door

USAGE:
  dlk run <spec.dlk | catalog-name> [--csv] [--trace]
  dlk sweep <grid.dlk> [--jobs N] [--out FILE] [--timeout-secs S]
            [--metrics FILE]
  dlk check <spec.dlk | dir | catalog-name>
  dlk catalog [--filter SUBSTR] [--dump NAME [--to FILE]]
  dlk serve --spool DIR --out DIR [--jobs N] [--poll-ms M] [--once]
            [--timeout-secs S] [--abort-after K]
  dlk top --spool DIR [--refresh-ms M] [--once]
  dlk bench diff <old.json> <new.json> [--check] [--max-regress PCT]
  dlk help

Spec files use the `# dlk-scenario v1` line codec; a file may hold any
number of concatenated specs (each `label` record starts the next one).
Dump a runnable starting point with `dlk catalog --dump <name>`.";

/// Everything the CLI can fail with, mapped to process exit codes by
/// [`run_main`].
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation (unknown flag, missing operand). Exit code 2.
    Usage(String),
    /// Spec/scenario-layer failure (parse errors with line context,
    /// unknown catalog names with did-you-mean). Exit code 1.
    Sim(SimError),
    /// Filesystem failure. Exit code 1.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error.
        error: std::io::Error,
    },
    /// The command ran but (some) work failed. Exit code 1.
    Failed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage: {msg}"),
            CliError::Sim(err) => write!(f, "{err}"),
            CliError::Io { path, error } => write!(f, "{path}: {error}"),
            CliError::Failed(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<SimError> for CliError {
    fn from(err: SimError) -> Self {
        CliError::Sim(err)
    }
}

impl CliError {
    /// Wraps a filesystem error with its path.
    pub fn io(path: impl AsRef<std::path::Path>, error: std::io::Error) -> Self {
        CliError::Io { path: path.as_ref().display().to_string(), error }
    }

    /// The process exit code this error maps to.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            _ => 1,
        }
    }
}

/// Dispatches a full argument vector (without the program name) and
/// returns the process exit code. Errors are printed to stderr; usage
/// errors additionally print the synopsis.
pub fn run_main(args: Vec<String>) -> i32 {
    let mut args = args.into_iter();
    let command = args.next().unwrap_or_else(|| "help".to_owned());
    let rest: Vec<String> = args.collect();
    let result = match command.as_str() {
        "run" => cmd::run::run(rest),
        "sweep" => cmd::sweep::run(rest),
        "check" => cmd::check::run(rest),
        "catalog" => cmd::catalog::run(rest),
        "serve" => cmd::serve::run(rest),
        "top" => cmd::top::run(rest),
        "bench" => cmd::bench::run(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command '{other}'"))),
    };
    match result {
        Ok(()) => 0,
        Err(err) => {
            eprintln!("dlk: {err}");
            if matches!(err, CliError::Usage(_)) {
                eprintln!("\n{USAGE}");
            }
            err.exit_code()
        }
    }
}
