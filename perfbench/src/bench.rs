//! Set-up, timed rounds, output checks and the traced pass.
//!
//! A run sets up [`INPUT_SETS`] input sets (one set-up round each),
//! then repeats rounds over them for the measured window: round `i`
//! runs every job of set `i % INPUT_SETS`, one scenario at a time (the
//! sweep hands its whole set to `SweepRunner` with two workers). Every
//! report is checked; the first pass over each set also fixes the set's
//! determinism digest, which every later pass must reproduce.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use dlk_sim::obs::{Registry, SpanTree};
use dlk_sim::{EngineConfig, RunReport, Scenario, ScenarioRun, ScenarioSpec, SweepRunner};

use crate::gen::{self, Expect, InputSet, Job, Kind, Scale, INPUT_SETS};
use crate::spans::Spans;

/// Sweep worker threads (the host has two vCPUs).
pub const SWEEP_THREADS: usize = 2;

/// The set-up result: the program-parsed input sets and their timings.
pub struct Setup {
    pub sets: Vec<InputSet>,
    /// Wall time of each set-up round.
    pub rounds: Vec<Duration>,
    /// Time spent in `ModelKind::victim` (memo cold) per round.
    pub train: Vec<Duration>,
}

/// Builds the input sets. Each round generates one set, hands its
/// specs to the program as spec-list text (`ScenarioSpec::list_from_text`,
/// the on-disk format) and trains the victims the specs name.
pub fn setup(kind: Kind, seed: u64, scale: Scale, spans: &mut Spans) -> Result<Setup, String> {
    let mut out = Setup { sets: Vec::new(), rounds: Vec::new(), train: Vec::new() };
    for set in 0..INPUT_SETS {
        let span = spans.enter("setup", None);
        let start = Instant::now();
        let mut input = gen::input_set(kind, seed, set, scale);
        let parsed = ScenarioSpec::list_from_text(&input.to_text())
            .map_err(|e| format!("set {set}: generated specs do not parse: {e}"))?;
        if parsed.len() != input.jobs.len() {
            return Err(format!(
                "set {set}: {} specs parsed back as {}",
                input.jobs.len(),
                parsed.len()
            ));
        }
        for (job, spec) in input.jobs.iter_mut().zip(parsed) {
            if spec != job.spec {
                return Err(format!(
                    "spec '{}' does not round-trip through its text",
                    job.spec.label
                ));
            }
            job.spec = spec;
        }
        let train_span = spans.enter("ModelKind::victim", Some(span));
        let train_start = Instant::now();
        for &(model, victim_seed) in &input.models {
            black_box(model.victim(victim_seed));
        }
        out.train.push(train_start.elapsed());
        spans.exit(train_span);
        out.rounds.push(start.elapsed());
        spans.exit(span);
        out.sets.push(input);
    }
    Ok(out)
}

/// One executed scenario.
pub struct Done {
    /// Index of the job in its input set.
    pub job: usize,
    /// Wall time of `from_spec` + run.
    pub wall: Duration,
    pub report: RunReport,
    /// Traced runs only: the build and run split and the engine's
    /// device statistics after the run.
    pub detail: Option<Detail>,
}

/// What a traced scenario adds to its report.
pub struct Detail {
    pub build: Duration,
    pub run: Duration,
    /// Phase name -> wall time, from `ScenarioRun::run_traced`.
    pub phases: BTreeMap<String, Duration>,
    pub dram: DramTotals,
}

/// Device statistics summed over an engine's shards.
#[derive(Debug, Default, Clone, Copy)]
pub struct DramTotals {
    pub cycles: u64,
    pub energy_pj: f64,
    pub row_hits: u64,
    pub row_misses: u64,
    pub disturbances: u64,
    pub bit_flips: u64,
}

impl DramTotals {
    fn of(run: &ScenarioRun) -> Self {
        let mut totals = Self::default();
        for shard in run.engine().shards() {
            let stats = shard.controller().dram().stats();
            totals.cycles += stats.cycles;
            totals.energy_pj += stats.energy_pj;
            totals.row_hits += stats.row_buffer_hits;
            totals.row_misses += stats.row_buffer_misses;
            totals.disturbances += stats.disturbances;
            totals.bit_flips += stats.bit_flips;
        }
        totals
    }

    pub fn add(&mut self, other: &Self) {
        self.cycles += other.cycles;
        self.energy_pj += other.energy_pj;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.disturbances += other.disturbances;
        self.bit_flips += other.bit_flips;
    }
}

/// One round over one input set.
pub struct Round {
    pub set: usize,
    pub wall: Duration,
    pub done: Vec<Done>,
    /// Jobs that errored or failed their check, with the reason.
    pub failures: Vec<String>,
}

impl Round {
    /// Simulated requests (served + denied) of the round.
    pub fn requests(&self) -> u64 {
        self.done.iter().map(|d| requests(&d.report)).sum()
    }
}

/// Simulated requests a report accounts for: served plus denied.
pub fn requests(report: &RunReport) -> u64 {
    report.controller.served + report.controller.denied
}

/// Observation for a traced round: the registry runs report into (if
/// any) and the benchmark's span list.
pub struct Tracer<'a> {
    pub registry: Option<&'a Registry>,
    pub spans: &'a mut Spans,
}

/// Runs one round over `set`.
pub fn round(kind: Kind, set: usize, input: &InputSet, tracer: Option<&mut Tracer<'_>>) -> Round {
    let start = Instant::now();
    let (done, mut failures) = match kind {
        Kind::Sweep => sweep_round(input, tracer),
        Kind::BfaCnn | Kind::Replay => serial_round(input, tracer),
    };
    let wall = start.elapsed();
    for done in &done {
        let job = &input.jobs[done.job];
        if let Err(reason) = check(job, &done.report) {
            failures.push(format!("{}: {reason}", job.spec.label));
        }
    }
    Round { set, wall, done, failures }
}

fn serial_round(input: &InputSet, mut tracer: Option<&mut Tracer<'_>>) -> (Vec<Done>, Vec<String>) {
    let mut done = Vec::with_capacity(input.jobs.len());
    let mut failures = Vec::new();
    for (index, job) in input.jobs.iter().enumerate() {
        let result = match tracer.as_deref_mut() {
            Some(tracer) => run_traced(&job.spec, tracer),
            None => run_plain(&job.spec),
        };
        match result {
            Ok((wall, report, detail)) => done.push(Done { job: index, wall, report, detail }),
            Err(e) => failures.push(format!("{}: {e}", job.spec.label)),
        }
    }
    (done, failures)
}

type Ran = (Duration, RunReport, Option<Detail>);

fn run_plain(spec: &ScenarioSpec) -> Result<Ran, String> {
    let start = Instant::now();
    let report =
        Scenario::from_spec(spec).and_then(|mut run| run.run()).map_err(|e| e.to_string())?;
    Ok((start.elapsed(), report, None))
}

/// Runs one scenario under the benchmark's spans, with the program's
/// phase spans from `run_traced`.
fn run_traced(spec: &ScenarioSpec, tracer: &mut Tracer<'_>) -> Result<Ran, String> {
    let start = Instant::now();
    let job_span = tracer.spans.enter(&spec.label, None);
    let build_span = tracer.spans.enter("Scenario::from_spec", Some(job_span));
    let built = Scenario::from_spec(spec);
    let build = start.elapsed();
    tracer.spans.exit(build_span);
    let mut run = built.map_err(|e| e.to_string())?;
    if let Some(registry) = tracer.registry {
        run.observe(registry);
    }
    let run_span = tracer.spans.enter("ScenarioRun::run_traced", Some(job_span));
    let run_start = Instant::now();
    let (report, tree) = run.run_traced().map_err(|e| e.to_string())?;
    let run_wall = run_start.elapsed();
    let phases = phase_walls(&tree);
    tracer.spans.exit(run_span);
    tracer.spans.children(run_span, &phases);
    tracer.spans.exit(job_span);
    let detail = Detail { build, run: run_wall, phases, dram: DramTotals::of(&run) };
    Ok((start.elapsed(), report, Some(detail)))
}

fn sweep_round(input: &InputSet, tracer: Option<&mut Tracer<'_>>) -> (Vec<Done>, Vec<String>) {
    let specs: Vec<ScenarioSpec> = input.jobs.iter().map(|job| job.spec.clone()).collect();
    let mut runner = SweepRunner::with_threads(SWEEP_THREADS);
    let outcomes = match tracer {
        Some(tracer) => {
            if let Some(registry) = tracer.registry {
                runner = runner.observe(registry);
            }
            let span = tracer.spans.enter("SweepRunner::run_jobs", None);
            let outcomes = runner.run_jobs(&specs);
            tracer.spans.exit(span);
            outcomes
        }
        None => runner.run_jobs(&specs),
    };
    let mut done = Vec::with_capacity(outcomes.len());
    let mut failures = Vec::new();
    for outcome in outcomes {
        match outcome.report {
            Ok(report) => {
                done.push(Done { job: outcome.index, wall: outcome.wall, report, detail: None })
            }
            Err(e) => failures.push(format!("{}: {e}", outcome.label)),
        }
    }
    (done, failures)
}

/// The sweep's traced pass adds a serial pass over the same specs with
/// the build/run split, phase spans and device statistics the runner
/// does not expose. It is not timed as part of the round, and it is not
/// observed: the runner pass already exported these runs' controller
/// and locker counters.
pub fn sweep_detail(input: &InputSet, spans: &mut Spans) -> (Vec<Done>, Vec<String>) {
    serial_round(input, Some(&mut Tracer { registry: None, spans }))
}

/// Reads the phase spans of a `run_traced` tree. The tree's nodes are
/// private, so this parses its rendering (`name  1.23ms  45.6%`); the
/// rendering rounds to two decimals of its unit.
fn phase_walls(tree: &SpanTree) -> BTreeMap<String, Duration> {
    let mut phases = BTreeMap::new();
    for line in tree.to_string().lines().skip(1) {
        let body = line.trim_start_matches(|c: char| c.is_whitespace() || "├└│─".contains(c));
        let mut tokens = body.split_whitespace();
        let (Some(name), Some(wall)) = (tokens.next(), tokens.next()) else { continue };
        if let Some(wall) = parse_wall(wall) {
            *phases.entry(name.to_owned()).or_default() += wall;
        }
    }
    phases
}

fn parse_wall(text: &str) -> Option<Duration> {
    let (number, scale) = [("ms", 1e-3), ("us", 1e-6), ("ns", 1e-9), ("s", 1.0)]
        .into_iter()
        .find_map(|(suffix, scale)| Some((text.strip_suffix(suffix)?, scale)))?;
    let value: f64 = number.parse().ok()?;
    Some(Duration::from_secs_f64(value * scale))
}

/// Checks one report against its job's expectation.
pub fn check(job: &Job, report: &RunReport) -> Result<(), String> {
    if report.scenario != job.spec.label {
        return Err(format!("report is labelled '{}'", report.scenario));
    }
    match job.expect {
        Expect::Harmed if !report.harmed() => Err(format!(
            "expected harm, got accuracy delta {:.2} points, data intact {:?}",
            report.accuracy_delta_pct(),
            report.victims.first().and_then(|v| v.data_intact)
        )),
        Expect::Contained | Expect::Locked if report.harmed() => Err(format!(
            "expected containment, got accuracy delta {:.2} points, data intact {:?}, redirected {}",
            report.accuracy_delta_pct(),
            report.victims.first().and_then(|v| v.data_intact),
            report.redirected
        )),
        Expect::Locked if report.landed_flips != 0 => {
            Err(format!("DRAM-Locker mounted, yet {} flips landed", report.landed_flips))
        }
        Expect::Locked if report.victims.iter().any(|v| v.data_intact == Some(false)) => {
            Err("DRAM-Locker mounted, yet the victim data changed".to_owned())
        }
        _ => Ok(()),
    }
}

/// Runs every `serial_check` job of `input` on its
/// `EngineConfig::serial_reference` engine and compares the reports
/// with the sharded ones in `round`.
pub fn serial_reference_check(input: &InputSet, round: &Round) -> (usize, Vec<String>) {
    let mut attempted = 0;
    let mut failures = Vec::new();
    for done in &round.done {
        let job = &input.jobs[done.job];
        if !job.serial_check {
            continue;
        }
        attempted += 1;
        let mut spec = job.spec.clone();
        spec.engine = EngineConfig::serial_reference(spec.engine.channels);
        match Scenario::from_spec(&spec).and_then(|mut run| run.run()) {
            Ok(reference) if reference == done.report => {}
            Ok(_) => failures
                .push(format!("{}: sharded report differs from serial reference", spec.label)),
            Err(e) => failures.push(format!("{}: serial reference failed: {e}", spec.label)),
        }
    }
    (attempted, failures)
}

/// FNV-1a over the simulated statistics of a round, in job order:
/// cycles, served/denied, landed flips and every victim's accuracy
/// after the attack and data integrity.
pub fn digest(round: &Round) -> u64 {
    let mut done: Vec<&Done> = round.done.iter().collect();
    done.sort_by_key(|d| d.job);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |value: u64| {
        for byte in value.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for d in done {
        let r = &d.report;
        feed(d.job as u64);
        feed(r.cycles);
        feed(r.controller.served);
        feed(r.controller.denied);
        feed(r.landed_flips);
        for victim in &r.victims {
            feed(victim.accuracy_after_pct.map_or(u64::MAX, f64::to_bits));
            feed(match victim.data_intact {
                None => 2,
                Some(intact) => u64::from(intact),
            });
        }
    }
    hash
}
