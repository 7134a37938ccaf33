//! Grid expansion and parallel execution over scenario specs.
//!
//! The paper's results are grids — attack × defense × geometry sweeps
//! reported as tables and figures. [`SweepGrid`] expands axes over a
//! base [`ScenarioSpec`] into a flat, deterministic spec list;
//! [`SweepRunner`] executes any spec list on the process's worker
//! [`pool`] (each free thread takes the next spec in spec order) and
//! returns results in spec order, bit-identical to running each spec
//! serially (scenarios share no state, and each one's engine is
//! already deterministic). Feed the reports to
//! [`metrics::Table`](crate::metrics::Table) for CSV/markdown export.
//!
//! Serving fronts (the `dlk` daemon) get three extra guarantees per
//! job: a wall-clock [`timeout`](SweepRunner::timeout), panic
//! isolation (a poisoned spec fails *that* [`JobOutcome`], not the
//! process), and an [`on_progress`](SweepRunner::on_progress) callback
//! streamed in completion order that can cancel the rest of the queue.
//!
//! ```
//! use dlk_sim::sweep::{SweepGrid, SweepRunner};
//! use dlk_sim::{metrics, DefenseSpec};
//!
//! # fn main() -> Result<(), dlk_sim::SimError> {
//! let base = dlk_sim::find("hammer-vs-none")?.spec;
//! let specs = SweepGrid::over(base)
//!     .channels([1, 2])
//!     .defenses([vec![], vec![DefenseSpec::locker_adjacent()]])
//!     .expand();
//! assert_eq!(specs.len(), 4);
//! let results = SweepRunner::parallel().run(&specs);
//! let reports: Vec<_> = results.iter().filter_map(|r| r.report.as_ref().ok()).collect();
//! let csv = metrics::Table::from_reports(reports.iter().copied()).to_csv();
//! assert_eq!(csv.lines().count(), 1 + 4);
//! # Ok(())
//! # }
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
#[allow(clippy::disallowed_types, reason = "sweep telemetry measures real wall time")]
use std::time::{Duration, Instant};

use dlk_dnn::models::ModelKind;
use dlk_memctrl::pool;
use dlk_obs::{Counter, Gauge, Histogram, Registry, Sampler};

use crate::error::SimError;
use crate::report::RunReport;
use crate::scenario::Scenario;
use crate::spec::{AttackSpec, DefenseSpec, ScenarioSpec};

/// Expands axes over a base spec into the cartesian spec list.
///
/// Every axis is optional; an unset axis keeps the base spec's value.
/// Expansion order is deterministic: models (outermost) × attacks ×
/// defense stacks × channels (innermost), each in the order given.
/// Labels append one `/`-separated segment per set axis, so each
/// expanded spec is self-describing in reports and tables.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    base: ScenarioSpec,
    channels: Vec<usize>,
    defenses: Vec<Vec<DefenseSpec>>,
    attacks: Vec<AttackSpec>,
    models: Vec<ModelKind>,
}

impl SweepGrid {
    /// A grid over `base` with no axes set (expands to just `base`).
    pub fn over(base: ScenarioSpec) -> Self {
        Self {
            base,
            channels: Vec::new(),
            defenses: Vec::new(),
            attacks: Vec::new(),
            models: Vec::new(),
        }
    }

    /// Sweeps the engine's channel count. Parallelism within one run
    /// follows the base spec's engine (`parallel` flag); a 1-channel
    /// point is the classic serial pipeline.
    pub fn channels(mut self, channels: impl IntoIterator<Item = usize>) -> Self {
        self.channels = channels.into_iter().collect();
        self
    }

    /// Sweeps the defense stack (each element is one whole stack; use
    /// `vec![]` for the undefended point).
    pub fn defenses(mut self, stacks: impl IntoIterator<Item = Vec<DefenseSpec>>) -> Self {
        self.defenses = stacks.into_iter().collect();
        self
    }

    /// Sweeps the attack.
    pub fn attacks(mut self, attacks: impl IntoIterator<Item = AttackSpec>) -> Self {
        self.attacks = attacks.into_iter().collect();
        self
    }

    /// Sweeps the victim model kind (applied to every model-backed
    /// victim of the base spec, keeping each victim's seed and layout).
    pub fn models(mut self, models: impl IntoIterator<Item = ModelKind>) -> Self {
        self.models = models.into_iter().collect();
        self
    }

    /// The expanded spec list.
    pub fn expand(&self) -> Vec<ScenarioSpec> {
        // Each axis expands to "keep the base value" when unset; `None`
        // marks the kept point so labels only grow for real axes.
        fn axis<T: Clone>(values: &[T]) -> Vec<Option<T>> {
            if values.is_empty() {
                vec![None]
            } else {
                values.iter().cloned().map(Some).collect()
            }
        }
        let mut specs = Vec::new();
        for model in axis(&self.models) {
            for attack in axis(&self.attacks) {
                for stack in axis(&self.defenses) {
                    for channels in axis(&self.channels) {
                        let mut spec = self.base.clone();
                        let mut label = spec.label.clone();
                        if let Some(model) = model {
                            for (victim, _) in &mut spec.victims {
                                *victim = victim.with_model_kind(model);
                            }
                            label.push_str(&format!("/{}", model.token()));
                        }
                        if let Some(attack) = &attack {
                            spec.attack = Some(attack.clone());
                            label.push_str(&format!("/{}", attack.token()));
                        }
                        if let Some(stack) = &stack {
                            spec.defenses = stack.clone();
                            let stack_label = if stack.is_empty() {
                                "none".to_owned()
                            } else {
                                stack.iter().map(DefenseSpec::name).collect::<Vec<_>>().join("+")
                            };
                            label.push_str(&format!("/{stack_label}"));
                        }
                        if let Some(channels) = channels {
                            spec.engine.channels = channels;
                            label.push_str(&format!("/{channels}ch"));
                        }
                        spec.label = label;
                        specs.push(spec);
                    }
                }
            }
        }
        specs
    }
}

/// One executed point of a sweep.
#[derive(Debug)]
pub struct SweepResult {
    /// The spec that ran.
    pub spec: ScenarioSpec,
    /// Its report, or the build/run failure.
    pub report: Result<RunReport, SimError>,
}

/// How one queued job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// The scenario ran and produced a report.
    Done,
    /// The scenario failed to build or run ([`SimError`]).
    Failed,
    /// The job panicked; the worker (and the queue) survived.
    Panicked,
    /// The job exceeded the per-job wall-clock timeout.
    TimedOut,
    /// The queue was cancelled before this job executed.
    Cancelled,
}

impl JobStatus {
    /// The stable lowercase token (`done`/`failed`/`panicked`/
    /// `timed-out`/`cancelled`) used in logs and journals.
    pub fn token(self) -> &'static str {
        match self {
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Panicked => "panicked",
            JobStatus::TimedOut => "timed-out",
            JobStatus::Cancelled => "cancelled",
        }
    }
}

/// Why a job produced no report.
#[derive(Debug)]
pub enum JobError {
    /// Scenario build/run failure.
    Scenario(SimError),
    /// The job panicked with this message.
    Panicked(String),
    /// The job exceeded this wall-clock budget.
    TimedOut(Duration),
    /// The queue was cancelled (by the progress callback) before the
    /// job executed.
    Cancelled,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Scenario(e) => write!(f, "{e}"),
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
            JobError::TimedOut(limit) => write!(f, "job timed out after {limit:?}"),
            JobError::Cancelled => write!(f, "job cancelled before execution"),
        }
    }
}

impl std::error::Error for JobError {}

/// One executed (or skipped) job of a sweep, with scheduling metadata.
#[derive(Debug)]
pub struct JobOutcome {
    /// Index into the submitted spec list.
    pub index: usize,
    /// The spec's label (`#<index>` for closure jobs).
    pub label: String,
    /// The worker that executed the job (`None` when cancelled).
    pub worker: Option<usize>,
    /// Wall-clock time the job spent executing.
    pub wall: Duration,
    /// The report, or why there is none.
    pub report: Result<RunReport, JobError>,
}

impl JobOutcome {
    /// The job's terminal status.
    pub fn status(&self) -> JobStatus {
        match &self.report {
            Ok(_) => JobStatus::Done,
            Err(JobError::Scenario(_)) => JobStatus::Failed,
            Err(JobError::Panicked(_)) => JobStatus::Panicked,
            Err(JobError::TimedOut(_)) => JobStatus::TimedOut,
            Err(JobError::Cancelled) => JobStatus::Cancelled,
        }
    }

    fn cancelled(index: usize, label: String) -> Self {
        Self { index, label, worker: None, wall: Duration::ZERO, report: Err(JobError::Cancelled) }
    }
}

/// The progress callback: invoked once per job in *completion* order,
/// from worker threads. Returning `false` cancels the queue: jobs not
/// yet started are skipped, while in-flight jobs finish and their
/// outcomes are still recorded.
pub type ProgressFn = dyn Fn(&JobOutcome) -> bool + Send + Sync;

/// Executes spec lists on the process's worker [`pool`].
///
/// Results always come back in spec order, and each run is independent
/// (own engine, own trained victim clones), so the parallel result set
/// is bit-identical to the serial one — the determinism suite asserts
/// exactly that. [`timeout`](SweepRunner::timeout) bounds each job's
/// wall clock, panics are isolated per job, and
/// [`on_progress`](SweepRunner::on_progress) streams outcomes as they
/// complete (and can cancel the rest of the queue).
#[derive(Clone)]
pub struct SweepRunner {
    threads: usize,
    timeout: Option<Duration>,
    progress: Option<Arc<ProgressFn>>,
    obs: Option<Registry>,
    sampler: Option<Arc<Mutex<Sampler>>>,
}

impl std::fmt::Debug for SweepRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepRunner")
            .field("threads", &self.threads)
            .field("timeout", &self.timeout)
            .field("progress", &self.progress.as_ref().map(|_| "Fn"))
            .field("observed", &self.obs.is_some())
            .field("sampled", &self.sampler.is_some())
            .finish()
    }
}

/// Registry-backed handles for the queue's scheduling metrics, resolved
/// once per run so the per-job bookkeeping never touches the registry
/// lock.
#[derive(Clone)]
struct SweepMetrics {
    jobs: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    job_wall_us: Arc<Histogram>,
    worker_busy_ns: Arc<Counter>,
    worker_idle_ns: Arc<Counter>,
}

impl SweepMetrics {
    fn registered(registry: &Registry) -> Self {
        Self {
            jobs: registry.counter("sweep.jobs"),
            queue_depth: registry.gauge("sweep.queue_depth"),
            job_wall_us: registry.histogram("sweep.job_wall_us"),
            worker_busy_ns: registry.counter("sweep.worker_busy_ns"),
            worker_idle_ns: registry.counter("sweep.worker_idle_ns"),
        }
    }
}

/// Saturating nanoseconds since `since` (a sweep would have to idle for
/// ~585 years to overflow, but the cast should still be total).
#[allow(clippy::disallowed_types, reason = "worker busy/idle telemetry, not sim state")]
fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl SweepRunner {
    /// Runs every spec on the calling thread, in order.
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// Runs specs across one worker per core of the process's pool.
    pub fn parallel() -> Self {
        Self::with_threads(pool::threads())
    }

    /// Runs specs on up to `threads` threads (at least one) of the
    /// process's worker [`pool`], which runs at most [`pool::threads`]
    /// at once.
    pub fn with_threads(threads: usize) -> Self {
        Self { threads: threads.max(1), timeout: None, progress: None, obs: None, sampler: None }
    }

    /// The cap on worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Bounds each job's wall-clock time. A job past its deadline is
    /// reported [`JobStatus::TimedOut`] and its worker moves on (the
    /// abandoned computation finishes on a detached watchdog thread and
    /// its result is dropped).
    pub fn timeout(mut self, limit: Duration) -> Self {
        self.timeout = Some(limit);
        self
    }

    /// Streams every [`JobOutcome`] in completion order (from worker
    /// threads — the callback must serialize its own side effects).
    /// Returning `false` cancels the remaining queue: jobs not yet
    /// started come back [`JobStatus::Cancelled`] — but jobs already in
    /// flight on other workers run to completion, and their outcomes
    /// still reach the callback (and are returned). A callback that
    /// must go quiet after cancelling needs its own guard.
    pub fn on_progress(
        mut self,
        progress: impl Fn(&JobOutcome) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.progress = Some(Arc::new(progress));
        self
    }

    /// Connects the runner to a metrics registry. The queue reports
    /// `sweep.jobs`, `sweep.queue_depth` (a gauge, back to zero once
    /// drained), a `sweep.job_wall_us` histogram and
    /// `sweep.worker_busy_ns`/`sweep.worker_idle_ns` counters; scenario
    /// sweeps additionally observe every run (see
    /// [`ScenarioRun::observe`](crate::ScenarioRun::observe)), so the
    /// engine/controller/locker metrics aggregate across the grid.
    pub fn observe(mut self, registry: &Registry) -> Self {
        self.obs = Some(registry.clone());
        self
    }

    /// Connects the runner to a shared [`Sampler`]: the sampler ticks
    /// once per completed job (from the finishing worker's thread), so
    /// queue depth, busy/idle time and the job wall-clock percentiles
    /// become time series without any polling thread. Pair it with
    /// [`observe`](SweepRunner::observe) on the sampler's registry —
    /// a sampler over an unobserved runner has nothing to snapshot.
    pub fn sample(mut self, sampler: &Arc<Mutex<Sampler>>) -> Self {
        self.sampler = Some(Arc::clone(sampler));
        self
    }

    /// Executes every spec on the queue and returns one [`JobOutcome`]
    /// per spec, in spec order.
    pub fn run_jobs(&self, specs: &[ScenarioSpec]) -> Vec<JobOutcome> {
        let specs: Arc<Vec<ScenarioSpec>> = Arc::new(specs.to_vec());
        let labels: Vec<String> = specs.iter().map(|spec| spec.label.clone()).collect();
        let obs = self.obs.clone();
        let job = move |index: usize| {
            Scenario::from_spec(&specs[index]).and_then(|mut run| {
                if let Some(registry) = &obs {
                    run.observe(registry);
                }
                run.run()
            })
        };
        self.run_inner(labels, job)
    }

    /// Executes `count` closure jobs on the same queue machinery —
    /// timeout, panic isolation, cancellation and progress all apply.
    /// This is the harness the queue tests and throughput benches drive;
    /// scenario sweeps go through [`run_jobs`](SweepRunner::run_jobs).
    pub fn run_fn(
        &self,
        count: usize,
        job: impl Fn(usize) -> Result<RunReport, SimError> + Send + Sync + 'static,
    ) -> Vec<JobOutcome> {
        self.run_inner((0..count).map(|index| format!("#{index}")).collect(), job)
    }

    fn run_inner(
        &self,
        labels: Vec<String>,
        job: impl Fn(usize) -> Result<RunReport, SimError> + Send + Sync + 'static,
    ) -> Vec<JobOutcome> {
        let count = labels.len();
        if count == 0 {
            return Vec::new();
        }
        let job: Arc<dyn Fn(usize) -> Result<RunReport, SimError> + Send + Sync> = Arc::new(job);
        let metrics = self.obs.as_ref().map(SweepMetrics::registered);
        if let Some(metrics) = &metrics {
            metrics.queue_depth.set(i64::try_from(count).unwrap_or(i64::MAX));
        }
        let cancelled = AtomicBool::new(false);
        let workers = AtomicUsize::new(0);
        #[allow(
            clippy::disallowed_types,
            reason = "the idle/busy split and its telemetry marks are observability only"
        )]
        let outcomes = pool::deal(
            labels.into_iter().enumerate().collect(),
            self.threads,
            // Each thread that takes a job numbers itself and starts
            // its busy/idle mark.
            || (workers.fetch_add(1, Ordering::Relaxed), Instant::now()),
            |(worker, mark), (index, label)| {
                if cancelled.load(Ordering::Acquire) {
                    return JobOutcome::cancelled(index, label);
                }
                if let Some(metrics) = &metrics {
                    metrics.worker_idle_ns.add(elapsed_ns(*mark));
                    metrics.queue_depth.add(-1);
                    *mark = Instant::now();
                }
                let outcome = self.execute_one(index, label, *worker, &job);
                let keep_going = self.progress.as_ref().is_none_or(|progress| progress(&outcome));
                if let Some(metrics) = &metrics {
                    metrics.jobs.inc();
                    metrics
                        .job_wall_us
                        .record(u64::try_from(outcome.wall.as_micros()).unwrap_or(u64::MAX));
                    metrics.worker_busy_ns.add(elapsed_ns(*mark));
                    *mark = Instant::now();
                }
                if let Some(sampler) = &self.sampler {
                    sampler.lock().expect("sweep sampler").tick();
                }
                if !keep_going {
                    cancelled.store(true, Ordering::Release);
                }
                outcome
            },
        );
        if let Some(metrics) = &metrics {
            // Skipped jobs never counted the depth down; the queue is
            // drained regardless once the deal returns.
            metrics.queue_depth.set(0);
        }
        outcomes
    }

    fn execute_one(
        &self,
        index: usize,
        label: String,
        worker: usize,
        job: &Arc<dyn Fn(usize) -> Result<RunReport, SimError> + Send + Sync>,
    ) -> JobOutcome {
        #[allow(clippy::disallowed_types, reason = "job wall-clock is reported, never fed back")]
        let start = Instant::now();
        let report = match self.timeout {
            None => flatten(catch_unwind(AssertUnwindSafe(|| job(index)))),
            Some(limit) => {
                // The only way to bound a job's wall clock without
                // cooperative checks inside the scenario: run it on a
                // watchdog thread and wait with a deadline. On timeout
                // the thread is detached; it finishes eventually and
                // its result is dropped with the dead channel.
                let (sender, receiver) = mpsc::channel();
                let job = Arc::clone(job);
                pool::spawn_detached(move || {
                    let result = catch_unwind(AssertUnwindSafe(|| job(index)));
                    let _ = sender.send(result);
                });
                match receiver.recv_timeout(limit) {
                    Ok(result) => flatten(result),
                    Err(_) => Err(JobError::TimedOut(limit)),
                }
            }
        };
        JobOutcome { index, label, worker: Some(worker), wall: start.elapsed(), report }
    }

    /// Executes every spec and returns results in spec order.
    pub fn run(&self, specs: &[ScenarioSpec]) -> Vec<SweepResult> {
        specs
            .iter()
            .zip(self.run_jobs(specs))
            .map(|(spec, outcome)| SweepResult {
                spec: spec.clone(),
                report: outcome.report.map_err(|err| match err {
                    JobError::Scenario(e) => e,
                    other => SimError::Build(other.to_string()),
                }),
            })
            .collect()
    }

    /// Executes every spec and returns just the reports (in spec
    /// order), failing on the first scenario error.
    ///
    /// # Errors
    ///
    /// Returns the first failing spec's error, by spec order.
    pub fn run_reports(&self, specs: &[ScenarioSpec]) -> Result<Vec<RunReport>, SimError> {
        self.run(specs).into_iter().map(|result| result.report).collect()
    }
}

fn flatten(
    result: std::thread::Result<Result<RunReport, SimError>>,
) -> Result<RunReport, JobError> {
    match result {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(err)) => Err(JobError::Scenario(err)),
        Err(panic) => Err(JobError::Panicked(panic_message(&*panic))),
    }
}

/// Extracts the human-readable payload of a caught panic.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(msg) = panic.downcast_ref::<&str>() {
        (*msg).to_owned()
    } else if let Some(msg) = panic.downcast_ref::<String>() {
        msg.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::victim::VictimSpec;

    fn base() -> ScenarioSpec {
        ScenarioSpec {
            victims: vec![(VictimSpec::row(20, 0xA5), 0)],
            attack: Some(AttackSpec::Hammer { bit: 7 }),
            ..ScenarioSpec::new("grid")
        }
    }

    #[test]
    fn unset_axes_expand_to_the_base_spec() {
        let specs = SweepGrid::over(base()).expand();
        assert_eq!(specs, vec![base()]);
    }

    #[test]
    fn axes_multiply_and_label_deterministically() {
        let specs = SweepGrid::over(base())
            .channels([1, 2, 4])
            .defenses([vec![], vec![DefenseSpec::locker_adjacent()]])
            .expand();
        assert_eq!(specs.len(), 6);
        let labels: Vec<&str> = specs.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "grid/none/1ch",
                "grid/none/2ch",
                "grid/none/4ch",
                "grid/dram-locker/1ch",
                "grid/dram-locker/2ch",
                "grid/dram-locker/4ch",
            ]
        );
        assert_eq!(specs[2].engine.channels, 4);
        assert!(specs[2].defenses.is_empty() && !specs[5].defenses.is_empty());
    }

    #[test]
    fn model_axis_swaps_every_model_victim() {
        use dlk_dnn::models::ModelKind;
        let base = ScenarioSpec {
            victims: vec![
                (VictimSpec::model(ModelKind::Tiny, 42, 0x400), 0),
                (VictimSpec::row(20, 0xA5), 0),
            ],
            ..ScenarioSpec::new("models")
        };
        let specs = SweepGrid::over(base).models([ModelKind::TinyCnn]).expand();
        assert_eq!(specs[0].victims[0].0.model_kind(), Some(ModelKind::TinyCnn));
        assert_eq!(specs[0].victims[1].0.model_kind(), None);
        assert_eq!(specs[0].label, "models/tiny-cnn");
    }

    fn failing_job(index: usize) -> Result<RunReport, SimError> {
        Err(SimError::Build(format!("job {index}")))
    }

    #[test]
    fn panics_are_isolated_to_their_job() {
        let outcomes = SweepRunner::with_threads(2).run_fn(4, |index| {
            assert!(index != 2, "deliberate poison");
            failing_job(index)
        });
        assert_eq!(outcomes.len(), 4);
        assert_eq!(outcomes[2].status(), JobStatus::Panicked);
        assert!(
            matches!(&outcomes[2].report, Err(JobError::Panicked(msg)) if msg.contains("poison"))
        );
        for index in [0, 1, 3] {
            assert_eq!(outcomes[index].status(), JobStatus::Failed, "worker survived the panic");
        }
    }

    #[test]
    #[allow(clippy::disallowed_methods, reason = "a job that outlives its timeout")]
    fn timeouts_fire_per_job_and_spare_the_rest() {
        let outcomes =
            SweepRunner::with_threads(2).timeout(Duration::from_millis(40)).run_fn(3, |index| {
                if index == 1 {
                    std::thread::sleep(Duration::from_secs(5));
                }
                failing_job(index)
            });
        assert_eq!(outcomes[1].status(), JobStatus::TimedOut);
        assert_eq!(outcomes[0].status(), JobStatus::Failed);
        assert_eq!(outcomes[2].status(), JobStatus::Failed);
        assert!(outcomes[1].wall >= Duration::from_millis(40));
    }

    #[test]
    fn progress_streams_every_job_once_and_can_cancel() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let outcomes = {
            let seen = Arc::clone(&seen);
            SweepRunner::with_threads(2)
                .on_progress(move |job| {
                    seen.lock().unwrap().push(job.index);
                    true
                })
                .run_fn(8, failing_job)
        };
        let mut seen = seen.lock().unwrap().clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
        assert!(outcomes.iter().all(|o| o.status() == JobStatus::Failed));

        // A cancelling callback: after the first completion the queue
        // stops handing out jobs; unexecuted slots come back Cancelled.
        let outcomes = SweepRunner::serial().on_progress(|_| false).run_fn(5, failing_job);
        assert_eq!(outcomes[0].status(), JobStatus::Failed);
        assert!(outcomes[1..].iter().all(|o| o.status() == JobStatus::Cancelled));
        assert!(outcomes[1..].iter().all(|o| o.worker.is_none()));
    }

    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "one slow job gives the busy/idle split a wall time"
    )]
    fn observed_runner_populates_queue_metrics() {
        let registry = Registry::new();
        let outcomes = {
            let registry = registry.clone();
            SweepRunner::with_threads(2).observe(&registry).run_fn(8, |index| {
                if index == 0 {
                    std::thread::sleep(Duration::from_millis(60));
                }
                failing_job(index)
            })
        };
        assert_eq!(outcomes.len(), 8);
        assert_eq!(registry.counter("sweep.jobs").get(), 8);
        assert_eq!(registry.histogram("sweep.job_wall_us").count(), 8);
        assert!(registry.counter("sweep.worker_busy_ns").get() > 0);
        assert_eq!(registry.gauge("sweep.queue_depth").get(), 0);
    }

    #[test]
    fn sampled_runner_ticks_once_per_completed_job() {
        let registry = Registry::new();
        let sampler = Arc::new(Mutex::new(Sampler::new(&registry, 16)));
        let outcomes =
            SweepRunner::with_threads(2).observe(&registry).sample(&sampler).run_fn(6, failing_job);
        assert_eq!(outcomes.len(), 6);
        let sampler = sampler.lock().unwrap();
        let jobs = sampler.get("sweep.jobs").expect("jobs series");
        assert_eq!(jobs.len(), 6, "one tick per completion");
        assert_eq!(jobs.last().unwrap().value, 6.0);
        // Depth was sampled on the way down and the busy/idle split
        // became series alongside the queue counters.
        assert!(sampler.get("sweep.queue_depth").is_some());
        assert!(sampler.get("sweep.worker_busy_ns").is_some());
        assert!(sampler.get("sweep.job_wall_us.p95").is_some());
    }

    #[test]
    fn observed_scenario_sweep_threads_registry_into_runs() {
        let registry = Registry::new();
        let results = SweepRunner::serial().observe(&registry).run(&[base()]);
        assert!(results[0].report.is_ok());
        // The scenario's engine/controller metrics landed in the same
        // registry the queue reports into.
        assert!(registry.counter("memctrl.served").get() > 0);
        assert_eq!(registry.counter("sweep.jobs").get(), 1);
    }

    #[test]
    fn runner_reports_errors_in_order_without_aborting_the_rest() {
        let bad = ScenarioSpec::new("no-victim");
        let results = SweepRunner::with_threads(2).run(&[bad.clone(), base()]);
        assert_eq!(results.len(), 2);
        assert!(results[0].report.is_err());
        assert!(results[1].report.is_ok());
        assert!(SweepRunner::serial().run_reports(&[bad]).is_err());
    }
}
