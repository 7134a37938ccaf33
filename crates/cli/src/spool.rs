//! Spool-directory daemon: scan, journal, resume.
//!
//! ## Crash-safety contract
//!
//! The only durable side effect of executing a job is one appended line
//! in `checkpoint.log` (`<status>\t<key>\t<payload>\n`, payload = the
//! report's CSV row for `done`, the error message otherwise). The
//! trailing newline is the commit point: [`Journal::load`] ignores a
//! torn final line without one, and [`serve`] truncates those torn
//! bytes away before its first append (so a resumed entry never lands
//! on the tail of a partial line), meaning a kill at any instant loses
//! at most the jobs that were in flight. `results.csv` is *derived*
//! state — it is rebuilt atomically (temp file + rename) from the
//! journal after every batch, and on the first scan that finds nothing
//! pending (covering a crash between the final journal append and the
//! results rename), with rows ordered by spool position (file name,
//! then spec index), never by completion order. An interrupted sweep
//! that is resumed therefore produces a `results.csv` byte-identical
//! to one that was never interrupted.
//!
//! Job keys are `<file-name>#<index>`: renaming a spool file or
//! reordering specs inside it makes the work look new, which is the
//! conservative direction.

use std::collections::{HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

use dlk_sim::obs::series::parse_series_object;
use dlk_sim::obs::{json, Counter, Gauge, Registry, Sampler};
use dlk_sim::{JobOutcome, JobStatus, RunReport, ScenarioSpec, SweepRunner};

use crate::CliError;

/// Append-only checkpoint journal, inside the `--out` directory.
pub const JOURNAL_FILE: &str = "checkpoint.log";
/// Derived CSV of every `done` job, inside the `--out` directory.
pub const RESULTS_FILE: &str = "results.csv";
/// Metrics heartbeat (shared JSON schema), inside the `--out`
/// directory. Rewritten atomically (temp file + rename) after every
/// scan and on shutdown; an aborted pass leaves it stale, exactly like
/// [`RESULTS_FILE`].
pub const METRICS_FILE: &str = "metrics.json";
/// Samples retained per heartbeat time series — at the default 500ms
/// poll that is a one-minute rolling window, and the whole `series`
/// section stays a few KB no matter how long the daemon runs.
pub const SERIES_CAPACITY: usize = 120;

/// A log sink for daemon progress lines (stderr in the binary, a
/// capturing buffer in tests).
pub type LogFn = dyn Fn(&str) + Send + Sync;

/// Everything `dlk serve` needs to run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Directory watched for `.dlk` spec files.
    pub spool: PathBuf,
    /// Output directory holding the journal and derived CSV.
    pub out: PathBuf,
    /// Worker threads for the sweep queue.
    pub jobs: usize,
    /// Sleep between spool scans.
    pub poll: Duration,
    /// Exit after the first scan instead of polling forever.
    pub once: bool,
    /// Per-job wall-clock budget.
    pub job_timeout: Option<Duration>,
    /// Test hook: simulate a crash by cancelling the queue (and
    /// returning without rewriting the CSV) after this many journaled
    /// completions.
    pub abort_after: Option<usize>,
    /// Test hook: return after this many scans even without `once`
    /// (exercises multi-scan behavior — poisoned-file dedup, heartbeat
    /// rewrites — without a background thread).
    pub max_scans: Option<usize>,
}

/// What a serve pass did (the daemon loop only returns when `once` is
/// set or an abort fired).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Jobs executed and journaled across all scans.
    pub executed: usize,
    /// Distinct spooled jobs skipped because the journal already had
    /// them.
    pub skipped: usize,
    /// Executed jobs that did not end `done`.
    pub failed: usize,
    /// Spool scans performed.
    pub scans: usize,
    /// Distinct spool files that failed to parse (each logged once).
    pub poisoned: usize,
    /// The `abort_after` crash hook fired.
    pub aborted: bool,
}

impl std::fmt::Display for ServeSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "serve: {} executed ({} failed), {} skipped, {} scan{}{}{}",
            self.executed,
            self.failed,
            self.skipped,
            self.scans,
            if self.scans == 1 { "" } else { "s" },
            if self.poisoned > 0 { format!(", {} poisoned", self.poisoned) } else { String::new() },
            if self.aborted { ", aborted" } else { "" },
        )
    }
}

/// One runnable unit discovered in the spool.
#[derive(Debug, Clone)]
pub struct SpoolJob {
    /// Stable identity: `<file-name>#<index>`.
    pub key: String,
    /// The parsed spec.
    pub spec: ScenarioSpec,
}

/// The journal key of spec `index` within spool file `file`.
pub fn job_key(file: &str, index: usize) -> String {
    format!("{file}#{index}")
}

/// What one spool scan found: runnable jobs plus the files that failed
/// to parse (the caller decides how loudly to report those — the
/// daemon logs each poisoned file once and counts it in the heartbeat).
#[derive(Debug, Default)]
pub struct SpoolScan {
    /// Every spec of every parseable `.dlk` file, in file-name order.
    pub jobs: Vec<SpoolJob>,
    /// `(file name, parse error)` for each unparseable `.dlk` file.
    pub poisoned: Vec<(String, String)>,
}

/// Scans the spool directory: every `.dlk` file in file-name order,
/// split into its spec list. A file that fails to parse lands in
/// [`SpoolScan::poisoned`] and is skipped — one poisoned file must not
/// take the daemon down.
///
/// # Errors
///
/// Returns [`CliError::Io`] only when the directory itself is
/// unreadable.
pub fn scan_spool(dir: &Path) -> Result<SpoolScan, CliError> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| CliError::io(dir, e))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "dlk"))
        .collect();
    files.sort();
    let mut scan = SpoolScan::default();
    for path in files {
        let name = path.file_name().unwrap_or_default().to_string_lossy().into_owned();
        match ScenarioSpec::list_from_file(&path) {
            Ok(specs) => {
                scan.jobs.extend(
                    specs
                        .into_iter()
                        .enumerate()
                        .map(|(index, spec)| SpoolJob { key: job_key(&name, index), spec }),
                );
            }
            Err(err) => scan.poisoned.push((path.display().to_string(), err.to_string())),
        }
    }
    Ok(scan)
}

/// One committed journal line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// [`JobStatus::token`] of the outcome.
    pub status: String,
    /// The [`job_key`].
    pub key: String,
    /// CSV row (`done`) or one-line error message.
    pub payload: String,
}

impl JournalEntry {
    /// The entry records a successful (`done`) job.
    pub fn is_done(&self) -> bool {
        self.status == JobStatus::Done.token()
    }
}

/// The parsed checkpoint journal: entries in commit order plus a
/// last-write-wins key index.
#[derive(Debug, Default)]
pub struct Journal {
    entries: Vec<JournalEntry>,
    index: HashMap<String, usize>,
    committed_len: u64,
}

impl Journal {
    /// Loads a journal file; a missing file is an empty journal. Only
    /// newline-terminated lines count (a torn tail from a crash is
    /// silently dropped), as are lines that don't split into three
    /// tab-separated fields.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Io`] when the file exists but can't be read.
    pub fn load(path: &Path) -> Result<Self, CliError> {
        let text = match fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Self::default()),
            Err(e) => return Err(CliError::io(path, e)),
        };
        let mut journal = Self::default();
        let committed = match text.rfind('\n') {
            Some(last) => &text[..=last],
            None => "",
        };
        journal.committed_len = committed.len() as u64;
        for line in committed.lines() {
            let mut fields = line.splitn(3, '\t');
            if let (Some(status), Some(key), Some(payload)) =
                (fields.next(), fields.next(), fields.next())
            {
                journal.record(JournalEntry {
                    status: status.to_owned(),
                    key: key.to_owned(),
                    payload: payload.to_owned(),
                });
            }
        }
        Ok(journal)
    }

    fn record(&mut self, entry: JournalEntry) {
        self.index.insert(entry.key.clone(), self.entries.len());
        self.entries.push(entry);
    }

    /// The journal already holds an outcome for `key`.
    pub fn contains(&self, key: &str) -> bool {
        self.index.contains_key(key)
    }

    /// The (last) committed entry for `key`.
    pub fn get(&self, key: &str) -> Option<&JournalEntry> {
        self.index.get(key).map(|&at| &self.entries[at])
    }

    /// Committed entries, in commit order.
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// Byte length of the committed prefix of the file this journal was
    /// loaded from (up to and including the last `\n`). Appending must
    /// start here: a torn tail left by a crash has to be truncated away
    /// first, or the next entry would be concatenated onto the partial
    /// line and both would parse as one garbage entry on the next load.
    pub fn committed_len(&self) -> u64 {
        self.committed_len
    }

    /// Appends one entry durably (write + fsync — the trailing newline
    /// is the commit point), then records it in memory.
    fn append(&mut self, file: &mut File, entry: JournalEntry) -> std::io::Result<()> {
        let line = format!("{}\t{}\t{}\n", entry.status, entry.key, one_line(&entry.payload));
        file.write_all(line.as_bytes())?;
        file.sync_data()?;
        self.record(entry);
        Ok(())
    }
}

/// Collapses a payload to one journal-safe line (the journal format is
/// newline-framed and tab-separated).
fn one_line(text: &str) -> String {
    text.replace(['\n', '\t'], " ")
}

/// Per-batch shared state between the daemon loop and the progress
/// callback running on worker threads.
struct Batch {
    journal: Journal,
    file: File,
    completions: usize,
    aborted: bool,
}

/// The daemon's own event counters, alongside whatever the observed
/// sweep queue and scenario runs report into the same registry.
struct ServeMetrics {
    registry: Registry,
    scans: Arc<Counter>,
    executed: Arc<Counter>,
    failed: Arc<Counter>,
    skipped: Arc<Counter>,
    spool_poisoned: Arc<Counter>,
    /// Monotonic across restarts (resumed from the previous heartbeat),
    /// unlike `serve.scans` which counts this process's scans — `dlk
    /// top` uses the pair to tell a stalled daemon from an idle one.
    scan_seq: Arc<Gauge>,
    /// Wall micros the previous heartbeat write took.
    heartbeat_write_us: Arc<Gauge>,
}

impl ServeMetrics {
    fn new() -> Self {
        let registry = Registry::new();
        Self {
            scans: registry.counter("serve.scans"),
            executed: registry.counter("serve.executed"),
            failed: registry.counter("serve.failed"),
            skipped: registry.counter("serve.skipped"),
            spool_poisoned: registry.counter("serve.spool_poisoned"),
            scan_seq: registry.gauge("serve.scan_seq"),
            heartbeat_write_us: registry.gauge("serve.heartbeat_write_us"),
            registry,
        }
    }

    /// Atomically publishes the heartbeat (validate + temp + rename,
    /// via the shared JSON writer): the registry's point-in-time
    /// sections plus the sampler's rolling `series` section, ticked
    /// once here so every heartbeat carries a fresh sample. Returns the
    /// write's wall time (also published as `serve.heartbeat_write_us`
    /// for the *next* heartbeat).
    fn write(&self, out: &Path, sampler: &Mutex<Sampler>) -> Result<Duration, CliError> {
        let path = out.join(METRICS_FILE);
        let start = Instant::now();
        let mut doc = self.registry.to_document("dlk-serve");
        {
            let mut sampler = sampler.lock().expect("serve sampler poisoned");
            sampler.tick();
            sampler.export_into(&mut doc);
        }
        doc.write(&path).map_err(|e| CliError::io(&path, e))?;
        let wall = start.elapsed();
        self.heartbeat_write_us.set(i64::try_from(wall.as_micros()).unwrap_or(i64::MAX));
        Ok(wall)
    }
}

/// Microseconds since the Unix epoch — the sampler's timestamp origin,
/// so replayed history and fresh ticks share one monotone axis across
/// restarts (`dlk top` uses the same clock to age heartbeats).
pub(crate) fn unix_micros() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
}

/// Replays the previous heartbeat into a fresh sampler: every exported
/// series is seeded back (the ring keeps the newest
/// [`SERIES_CAPACITY`]), and the previous `serve.scan_seq` is returned
/// so the sequence stays monotonic across restarts. A missing or
/// corrupt heartbeat (it is derived state, atomically replaced — a
/// crash can only leave the *old* one) replays nothing.
fn replay_heartbeat(path: &Path, sampler: &mut Sampler) -> u64 {
    let Ok(value) = json::parse_file(path) else { return 0 };
    for object in value.section("series") {
        if let Some((name, samples)) = parse_series_object(object) {
            sampler.seed(&name, samples);
        }
    }
    value
        .section("gauges")
        .iter()
        .find(|g| g.get("name").and_then(json::Value::as_str) == Some("serve.scan_seq"))
        .and_then(|g| g.get("value"))
        .and_then(json::Value::as_u64)
        .unwrap_or(0)
}

/// Runs the daemon loop. Returns after one scan in `once` mode, when
/// the `abort_after` crash hook fires, or never (steady-state daemon).
///
/// # Errors
///
/// Returns [`CliError::Io`] for spool/out directory failures; job
/// failures are journaled, not fatal.
pub fn serve(cfg: &ServeConfig, log: Arc<LogFn>) -> Result<ServeSummary, CliError> {
    fs::create_dir_all(&cfg.out).map_err(|e| CliError::io(&cfg.out, e))?;
    let journal_path = cfg.out.join(JOURNAL_FILE);
    let journal = Journal::load(&journal_path)?;
    let file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&journal_path)
        .map_err(|e| CliError::io(&journal_path, e))?;
    // Drop any torn tail from a crashed predecessor before appending:
    // `load` ignored those bytes, and leaving them would glue the next
    // entry onto the partial line, corrupting both on the next load.
    file.set_len(journal.committed_len()).map_err(|e| CliError::io(&journal_path, e))?;

    let mut summary =
        ServeSummary { executed: 0, skipped: 0, failed: 0, scans: 0, poisoned: 0, aborted: false };
    let metrics = ServeMetrics::new();
    // The rolling time series survive restarts the same way results do:
    // the previous heartbeat (derived, atomically replaced) is replayed
    // as seed history, and the scan sequence number picks up where the
    // dead daemon left off.
    let mut sampler =
        Sampler::new(&metrics.registry, SERIES_CAPACITY).with_origin_us(unix_micros());
    let mut scan_seq = replay_heartbeat(&cfg.out.join(METRICS_FILE), &mut sampler);
    if scan_seq > 0 {
        log(&format!("serve: resuming heartbeat history at scan #{scan_seq}"));
    }
    let sampler = Arc::new(Mutex::new(sampler));
    let mut seen_skipped: HashSet<String> = HashSet::new();
    let mut poisoned_logged: HashSet<String> = HashSet::new();
    let mut results_synced = false;
    let batch = Arc::new(Mutex::new(Batch { journal, file, completions: 0, aborted: false }));

    #[allow(
        clippy::disallowed_methods,
        reason = "the daemon sleeps one poll interval between scans"
    )]
    loop {
        summary.scans += 1;
        scan_seq += 1;
        metrics.scan_seq.set(i64::try_from(scan_seq).unwrap_or(i64::MAX));
        metrics.scans.inc();
        let scan = scan_spool(&cfg.spool)?;
        // Report each poisoned file once per daemon lifetime, not once
        // per scan — a steady-state daemon polling a bad file would
        // otherwise flood the log with the same line forever.
        for (file, err) in &scan.poisoned {
            if poisoned_logged.insert(file.clone()) {
                summary.poisoned += 1;
                metrics.spool_poisoned.inc();
                log(&format!("serve: skipping {file}: {err}"));
            }
        }
        let jobs = scan.jobs;
        let pending: Vec<SpoolJob> = {
            let state = batch.lock().expect("serve batch state poisoned");
            jobs.iter()
                .filter(|job| {
                    if state.journal.contains(&job.key) {
                        if seen_skipped.insert(job.key.clone()) {
                            summary.skipped += 1;
                            metrics.skipped.inc();
                        }
                        false
                    } else {
                        true
                    }
                })
                .cloned()
                .collect()
        };

        if !pending.is_empty() {
            log(&format!(
                "serve: scan {}: {} pending of {} spooled",
                summary.scans,
                pending.len(),
                jobs.len()
            ));
            let (executed, failed) =
                run_batch(cfg, &batch, &pending, &log, &metrics.registry, &sampler);
            summary.executed += executed;
            summary.failed += failed;
            metrics.executed.add(executed as u64);
            metrics.failed.add(failed as u64);
            let state = batch.lock().expect("serve batch state poisoned");
            if state.aborted {
                // Simulated crash: leave results.csv (and the metrics
                // heartbeat) exactly as a real kill would — stale, to
                // be rebuilt on resume.
                summary.aborted = true;
                return Ok(summary);
            }
            write_results(&cfg.out, &jobs, &state.journal)?;
            results_synced = true;
            log(&format!("serve: scan {}: {executed} executed, {failed} failed", summary.scans));
        } else if !results_synced {
            // Nothing pending, but the derived CSV may still be stale:
            // a crash in the window between the last journaled job and
            // the results rename leaves the journal complete while
            // results.csv is missing or behind. Rebuild it once.
            let state = batch.lock().expect("serve batch state poisoned");
            if !state.journal.entries().is_empty() {
                write_results(&cfg.out, &jobs, &state.journal)?;
            }
            results_synced = true;
        }

        // The heartbeat: every scan ends with a fresh metrics.json, so
        // an operator (or the CI smoke) can always read a consistent,
        // current view — including the shutdown scan in `once` mode.
        let write_wall = metrics.write(&cfg.out, &sampler)?;
        if write_wall > cfg.poll {
            log(&format!(
                "serve: warning: heartbeat write took {write_wall:?}, longer than the {:?} poll \
                 interval — the heartbeat can never be current; raise --poll-ms",
                cfg.poll
            ));
        }

        if cfg.once || cfg.max_scans.is_some_and(|max| summary.scans >= max) {
            return Ok(summary);
        }
        std::thread::sleep(cfg.poll);
    }
}

/// Executes one batch of pending jobs on the sweep runner,
/// journaling each completion from the progress callback. Returns
/// (journaled, journaled-not-done) counts.
fn run_batch(
    cfg: &ServeConfig,
    batch: &Arc<Mutex<Batch>>,
    pending: &[SpoolJob],
    log: &Arc<LogFn>,
    registry: &Registry,
    sampler: &Arc<Mutex<Sampler>>,
) -> (usize, usize) {
    let keys: Arc<Vec<String>> = Arc::new(pending.iter().map(|job| job.key.clone()).collect());
    let specs: Vec<ScenarioSpec> = pending.iter().map(|job| job.spec.clone()).collect();
    let before = batch.lock().expect("serve batch state poisoned").completions;

    let state = Arc::clone(batch);
    let keys_cb = Arc::clone(&keys);
    let log_cb = Arc::clone(log);
    let abort_after = cfg.abort_after;
    let mut runner = SweepRunner::with_threads(cfg.jobs)
        .observe(registry)
        .sample(sampler)
        .on_progress(move |outcome| {
            let mut state = state.lock().expect("serve batch state poisoned");
            if state.aborted {
                // In-flight stragglers after the simulated crash: a dead
                // process journals nothing.
                return false;
            }
            let key = keys_cb[outcome.index].clone();
            let entry = journal_entry(&key, outcome);
            let Batch { journal, file, .. } = &mut *state;
            if let Err(err) = journal.append(file, entry) {
                log_cb(&format!("serve: journal write failed for {key}: {err}"));
                return false;
            }
            state.completions += 1;
            log_cb(&format!(
                "serve: {} {} ({:?}, worker {:?})",
                state.journal.entries().last().map_or("?", |e| e.status.as_str()),
                key,
                outcome.wall,
                outcome.worker,
            ));
            if abort_after.is_some_and(|k| state.completions >= k) {
                state.aborted = true;
                return false;
            }
            true
        });
    if let Some(limit) = cfg.job_timeout {
        runner = runner.timeout(limit);
    }

    let outcomes = runner.run_jobs(&specs);
    let state = batch.lock().expect("serve batch state poisoned");
    let executed = state.completions - before;
    let failed = outcomes
        .iter()
        .filter(|o| {
            state.journal.get(&keys[o.index]).is_some_and(|entry| !entry.is_done())
                && o.status() != JobStatus::Cancelled
        })
        .count();
    (executed, failed)
}

/// Converts one queue outcome into its journal entry.
fn journal_entry(key: &str, outcome: &JobOutcome) -> JournalEntry {
    let payload = match &outcome.report {
        Ok(report) => report.to_csv_row(),
        Err(err) => err.to_string(),
    };
    JournalEntry { status: outcome.status().token().to_owned(), key: key.to_owned(), payload }
}

/// Rebuilds `results.csv` from the journal: header, then every `done`
/// row in spool order, then `done` rows for journaled keys no longer in
/// the spool (in commit order) so removing a spec file never silently
/// drops its results. Written to a temp file and renamed into place.
fn write_results(out: &Path, jobs: &[SpoolJob], journal: &Journal) -> Result<(), CliError> {
    let mut csv = String::from(RunReport::csv_header());
    csv.push('\n');
    let mut emitted: std::collections::HashSet<&str> = std::collections::HashSet::new();
    for job in jobs {
        if let Some(entry) = journal.get(&job.key) {
            if entry.is_done() {
                csv.push_str(&entry.payload);
                csv.push('\n');
                emitted.insert(job.key.as_str());
            }
        }
    }
    for entry in journal.entries() {
        if entry.is_done() && !emitted.contains(entry.key.as_str()) {
            csv.push_str(&entry.payload);
            csv.push('\n');
        }
    }
    let tmp = out.join(format!("{RESULTS_FILE}.tmp"));
    fs::write(&tmp, csv).map_err(|e| CliError::io(&tmp, e))?;
    let target = out.join(RESULTS_FILE);
    fs::rename(&tmp, &target).map_err(|e| CliError::io(&target, e))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_ignores_torn_tail_and_malformed_lines() {
        let dir = std::env::temp_dir().join(format!("dlk-journal-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(JOURNAL_FILE);
        let text =
            "done\ta.dlk#0\trow,one\nnot a journal line\nfailed\ta.dlk#1\tboom\ndone\ta.dlk#2\ttorn-no-newline";
        fs::write(&path, text).unwrap();
        let journal = Journal::load(&path).unwrap();
        assert_eq!(journal.entries().len(), 2);
        assert_eq!(
            journal.committed_len(),
            (text.rfind('\n').unwrap() + 1) as u64,
            "committed_len must stop at the last newline so the torn tail gets truncated"
        );
        assert!(journal.contains("a.dlk#0") && journal.contains("a.dlk#1"));
        assert!(!journal.contains("a.dlk#2"), "torn tail must not count as committed");
        assert_eq!(journal.get("a.dlk#0").unwrap().payload, "row,one");
        assert!(!journal.get("a.dlk#1").unwrap().is_done());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_journal_is_empty() {
        let journal = Journal::load(Path::new("/nonexistent/dir/checkpoint.log")).unwrap();
        assert!(journal.entries().is_empty());
    }

    #[test]
    fn payloads_are_flattened_to_one_line() {
        assert_eq!(one_line("a\nb\tc"), "a b c");
    }
}
