//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bfa-cnn|replay|sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process sets up seeded inputs, runs closed-loop rounds of
//! scenarios for `--seconds`, checks every output and prints one metric
//! per line followed by a JSON summary as the last line. `--trace 0`
//! prints the end-to-end metrics; `--trace 1` additionally runs one
//! observed pass over every input set and prints the per-layer metrics
//! instead, writing the benchmark's spans to
//! `.bench_trace/<workload>-seed<n>.spans.jsonl`. The exit code is
//! non-zero when any scenario errors or fails its output check.
//!
//! Host facts that shape the workloads (2-vCPU host):
//! - every scenario uses the `tiny` geometry: paper-scale geometries
//!   fail row-victim and replay scenarios with `RD on idle bank`
//!   (auto-refresh fires inside `DramDevice::access_read` after the row
//!   was opened);
//! - two threads of pure ALU work reach only ~1.22x of one, so the
//!   sweep's two workers are a scheduling test, not a speed-up claim;
//! - sweep job times are bimodal: counter trackers run the whole
//!   activation budget, every other defense ends at its first check.

mod bench;
mod gen;
mod metrics;
mod spans;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dlk_sim::obs::Registry;
use dlk_sim::AttackSpec;

use crate::bench::{Done, DramTotals, Round, Tracer};
use crate::gen::{InputSet, Kind, Scale, INPUT_SETS};
use crate::spans::Spans;

const USAGE: &str =
    "usage: perfbench --workload <bfa-cnn|replay|sweep> --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut fields: BTreeMap<String, String> = BTreeMap::new();
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = args.next().ok_or_else(|| format!("--{key} needs a value"))?;
        fields.insert(key.to_owned(), value);
    }
    let get = |key: &str| fields.get(key).ok_or_else(|| format!("missing --{key}"));
    let number = |key: &str| -> Result<u64, String> {
        get(key)?.parse().map_err(|_| format!("--{key} must be a whole number"))
    };
    if let Some(unknown) =
        fields.keys().find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{unknown}"));
    }
    let workload = get("workload")?;
    let kind = Kind::parse(workload).ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let trace = match number("trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".to_owned()),
    };
    Ok(Args { kind, seed: number("seed")?, seconds: number("seconds")?.max(1), trace })
}

/// What one benchmark run produced.
struct Outcome {
    attempted: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
    digest: u64,
    samples: usize,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(args, Scale::FULL) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for failure in &outcome.failures {
        eprintln!("FAILED {failure}");
    }
    println!("workload {} seed {} digest {:016x}", args.kind.name(), args.seed, outcome.digest);
    println!("scenario samples {}", outcome.samples);
    for (name, value) in &outcome.metrics {
        println!("{name} {value} {}", metrics::describe(name));
    }
    println!("{}", summary_json(&outcome));
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn summary_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            debug_assert!(metrics::valid_name(name), "{name}");
            let unit = metrics::unit(name).unwrap_or("");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failures.len(),
        metrics.join(", ")
    )
}

/// Sets up, measures for `args.seconds`, and (with `--trace 1`) runs
/// the observed pass.
fn run(args: Args, scale: Scale) -> Result<Outcome, String> {
    let mut spans = Spans::new();
    let setup = bench::setup(args.kind, args.seed, scale, &mut spans)?;
    let mut attempted = 0u64;
    let mut failures = Vec::new();

    let window = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut digests: Vec<Option<u64>> = vec![None; INPUT_SETS];
    // Whole passes only, so every input set weighs the same in the
    // medians whatever the window fits.
    while !rounds.len().is_multiple_of(INPUT_SETS) || rounds.is_empty() || start.elapsed() < window
    {
        let set = rounds.len() % INPUT_SETS;
        let input = &setup.sets[set];
        let round = bench::round(args.kind, set, input, None);
        attempted += input.jobs.len() as u64;
        failures.extend(round.failures.iter().cloned());
        let digest = bench::digest(&round);
        match digests[set] {
            None => {
                digests[set] = Some(digest);
                let (checked, failed) = bench::serial_reference_check(input, &round);
                attempted += checked as u64;
                failures.extend(failed);
            }
            Some(first) if first != digest => {
                failures.push(format!("set {set}: simulated statistics changed between passes"));
            }
            Some(_) => {}
        }
        rounds.push(round);
    }
    let digest = digests.iter().flatten().fold(0u64, |acc, d| acc.rotate_left(17) ^ d);
    let samples = rounds.iter().map(|r| r.done.len()).sum();

    let metrics = if args.trace {
        let registry = Registry::new();
        let mut traced = Vec::new();
        let mut serial_pass = Vec::new();
        for (set, input) in setup.sets.iter().enumerate() {
            let mut tracer = Tracer { registry: Some(&registry), spans: &mut spans };
            let round = bench::round(args.kind, set, input, Some(&mut tracer));
            attempted += input.jobs.len() as u64;
            failures.extend(round.failures.iter().cloned());
            if args.kind == Kind::Sweep {
                let (done, failed) = bench::sweep_detail(input, tracer.spans);
                attempted += input.jobs.len() as u64;
                failures.extend(failed);
                serial_pass.push(Round { set, wall: Duration::ZERO, done, failures: Vec::new() });
            }
            traced.push(round);
        }
        // Detail (phases, build/run split, device statistics) comes from
        // the traced rounds, or from the sweep's serial pass.
        let detailed = if args.kind == Kind::Sweep { &serial_pass } else { &traced };
        let detail: Vec<(usize, &Done)> =
            detailed.iter().flat_map(|r| r.done.iter().map(move |d| (r.set, d))).collect();
        let path = PathBuf::from(".bench_trace").join(format!(
            "{}-seed{}.spans.jsonl",
            args.kind.name(),
            args.seed
        ));
        spans.write(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        per_layer(args.kind, &setup, &rounds, &traced, &detail, &registry)
    } else {
        end_to_end(&setup, &rounds)
    };
    for (name, value) in &metrics {
        if !value.is_finite() {
            failures.push(format!("metric {name} is not finite"));
        }
    }
    Ok(Outcome { attempted, failures, metrics, digest, samples })
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Linear-interpolated quantile of `values` (`q` in `[0, 1]`).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Device cycles of a round's twin jobs: (with the locker, without).
fn twin_cycles(input: &InputSet, round: &Round) -> (u64, u64) {
    let (mut locked, mut plain) = (0, 0);
    for done in &round.done {
        let job = &input.jobs[done.job];
        if job.twin {
            if job.locked() {
                locked += done.report.cycles;
            } else {
                plain += done.report.cycles;
            }
        }
    }
    (locked, plain)
}

fn end_to_end(setup: &bench::Setup, rounds: &[Round]) -> Vec<(&'static str, f64)> {
    let walls: Vec<f64> = rounds.iter().map(|r| secs(r.wall)).collect();
    let scenario_ms: Vec<f64> =
        rounds.iter().flat_map(|r| r.done.iter().map(|d| ms(d.wall))).collect();
    let rates: Vec<f64> = rounds.iter().map(|r| r.requests() as f64 / secs(r.wall) / 1e6).collect();
    // Simulated statistics are exact: take them from the first pass,
    // one round per input set.
    let first = &rounds[..INPUT_SETS];
    let cycles: u64 = first.iter().flat_map(|r| r.done.iter().map(|d| d.report.cycles)).sum();
    let requests: u64 = first.iter().map(Round::requests).sum();
    let (locked, plain) = first
        .iter()
        .map(|r| twin_cycles(&setup.sets[r.set], r))
        .fold((0, 0), |(a, b), (l, p)| (a + l, b + p));
    vec![
        ("setup_s", median(&setup.rounds.iter().copied().map(secs).collect::<Vec<_>>())),
        ("run_s", median(&walls)),
        ("scenario_ms.p50", quantile(&scenario_ms, 0.5)),
        ("scenario_ms.p95", quantile(&scenario_ms, 0.95)),
        ("sim_mreq_per_s", median(&rates)),
        ("sim_cycles_per_req", cycles as f64 / requests as f64),
        ("locker_cycle_ratio", locked as f64 / plain as f64),
        ("peak_rss_mb", peak_rss_mb()),
    ]
}

fn per_layer(
    kind: Kind,
    setup: &bench::Setup,
    rounds: &[Round],
    traced: &[Round],
    detail: &[(usize, &Done)],
    registry: &Registry,
) -> Vec<(&'static str, f64)> {
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let counter = |name: &str| registry.counter(name).get() as f64;
    let hist = |name: &str| registry.histogram(name);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let passes = traced.len() as f64;

    values
        .insert("dnn.train_s", median(&setup.train.iter().copied().map(secs).collect::<Vec<_>>()));
    let phase = |name: &str| -> f64 {
        detail
            .iter()
            .filter_map(|(_, d)| d.detail.as_ref()?.phases.get(name).copied())
            .map(ms)
            .sum::<f64>()
            / passes
    };
    values.insert("sim.phase.baseline_accuracy_ms", phase("baseline-accuracy"));
    values.insert("sim.phase.attack_ms", phase("attack"));
    values.insert("sim.phase.measure_ms", phase("measure"));

    // Progressive campaigns: fixed iterations, seeded landings.
    let (mut iterations, mut landed, mut attack_ms) = (0u64, 0u64, 0.0);
    for (set, d) in detail {
        let spec = &setup.sets[*set].jobs[d.job].spec;
        if let Some(AttackSpec::ProgressiveBfa { .. }) = spec.attack {
            iterations += spec.budget.iterations as u64;
            landed += d.report.landed_flips;
            attack_ms +=
                d.detail.as_ref().and_then(|x| x.phases.get("attack").copied()).map_or(0.0, ms);
        }
    }
    values.insert("attacks.bfa.iterations", iterations as f64);
    values.insert("attacks.bfa.landed", landed as f64);
    values.insert("attacks.bfa.landed_ratio", ratio(landed as f64, iterations as f64));
    values.insert("attacks.ms_per_landed_flip", ratio(attack_ms, landed as f64));

    let builds: Vec<f64> =
        detail.iter().filter_map(|(_, d)| Some(ms(d.detail.as_ref()?.build))).collect();
    let runs: Vec<f64> =
        detail.iter().filter_map(|(_, d)| Some(ms(d.detail.as_ref()?.run))).collect();
    values.insert("sim.build_ms", median(&builds));
    values.insert("sim.run_ms", median(&runs));

    let job_wall = hist("sweep.job_wall_us");
    values.insert("sweep.job_wall_us.p50", job_wall.percentile(0.5) as f64);
    values.insert("sweep.job_wall_us.p95", job_wall.percentile(0.95) as f64);
    let (busy, idle) = (counter("sweep.worker_busy_ns"), counter("sweep.worker_idle_ns"));
    values.insert("sweep.worker_busy_ns", busy);
    values.insert("sweep.worker_idle_ns", idle);
    values.insert("sweep.busy_ratio", ratio(busy, busy + idle));
    values.insert("sweep.steals", counter("sweep.steals"));
    values.insert("sweep.jobs", counter("sweep.jobs"));

    let drain = hist("engine.drain_wall_ns");
    values.insert("engine.drain_wall_ns.sum", drain.sum() as f64);
    values.insert("engine.drain_wall_ns.p50", drain.percentile(0.5) as f64);
    values.insert("engine.drain_wall_ns.p99", drain.percentile(0.99) as f64);
    values.insert("engine.drains", counter("engine.drains"));
    values.insert("engine.merge_wall_ns.sum", hist("engine.merge_wall_ns").sum() as f64);
    values.insert("engine.shard_imbalance", ratio(drain.max() as f64, drain.mean()));

    let served = counter("memctrl.served");
    values.insert("memctrl.served", served);
    values.insert("memctrl.denied", counter("memctrl.denied"));
    values.insert("memctrl.redirected", counter("memctrl.redirected"));
    values.insert("memctrl.os_faults", counter("memctrl.os_faults"));
    values.insert("memctrl.latency_cycles.read.mean", hist("memctrl.latency_cycles.read").mean());
    values.insert("memctrl.latency_cycles.write.mean", hist("memctrl.latency_cycles.write").mean());
    // Queued path (replay): drain wall per served request. Direct
    // path: attack-phase wall per simulated request.
    let host_ns = if kind == Kind::Replay {
        ratio(drain.sum() as f64, served)
    } else {
        let attack_ns: f64 = detail
            .iter()
            .filter_map(|(_, d)| d.detail.as_ref()?.phases.get("attack").copied())
            .map(|w| w.as_nanos() as f64)
            .sum();
        ratio(attack_ns, detail.iter().map(|(_, d)| bench::requests(&d.report)).sum::<u64>() as f64)
    };
    values.insert("memctrl.host_ns_per_req", host_ns);

    let mut dram = DramTotals::default();
    for (_, d) in detail {
        if let Some(x) = &d.detail {
            dram.add(&x.dram);
        }
    }
    values.insert("dram.cycles", dram.cycles as f64);
    values.insert("dram.energy_pj", dram.energy_pj);
    values.insert(
        "dram.row_buffer_hit_ratio",
        ratio(dram.row_hits as f64, (dram.row_hits + dram.row_misses) as f64),
    );
    values.insert("dram.disturbances", dram.disturbances as f64);
    values.insert("dram.bit_flips", dram.bit_flips as f64);

    let (lookups, hits) = (counter("locker.locktable.lookups"), counter("locker.locktable.hits"));
    values.insert("locker.locktable.lookups", lookups);
    values.insert("locker.locktable.hits", hits);
    values.insert("locker.locktable.hit_ratio", ratio(hits, lookups));

    for metric in metrics::PER_LAYER {
        if let Some(defense) =
            metric.name.strip_prefix("mit.").and_then(|n| n.strip_suffix(".actions"))
        {
            let actions: u64 = traced
                .iter()
                .flat_map(|r| r.done.iter())
                .flat_map(|d| d.report.mitigations.iter())
                .filter(|m| m.name == defense)
                .map(|m| m.actions)
                .sum();
            values.insert(metric.name, actions as f64);
        }
        if let Some(defense) = metric.name.strip_prefix("sweep.job_ms.") {
            let walls: Vec<f64> = traced
                .iter()
                .flat_map(|r| r.done.iter().map(move |d| (r.set, d)))
                .filter(|(set, d)| setup.sets[*set].jobs[d.job].defense == defense)
                .map(|(_, d)| ms(d.wall))
                .collect();
            values.insert(metric.name, median(&walls));
        }
    }

    let untraced = median(&rounds.iter().map(|r| secs(r.wall)).collect::<Vec<_>>());
    let traced_wall = median(&traced.iter().map(|r| secs(r.wall)).collect::<Vec<_>>());
    values.insert("obs.trace_overhead_pct", (ratio(traced_wall, untraced) - 1.0) * 100.0);

    metrics::PER_LAYER
        .iter()
        .map(|m| (m.name, values.get(m.name).copied().unwrap_or(f64::NAN)))
        .collect()
}

/// Peak resident set size of this process, from `getrusage`.
fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs;
    // `ru_maxrss` (KiB) is the first long.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        longs: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage { times: [0; 4], longs: [0; 14] };
    // SAFETY: `usage` is a live, writable struct with the size and
    // layout of the C `struct rusage`, and RUSAGE_SELF (0) is valid.
    let status = unsafe { getrusage(0, &mut usage) };
    if status != 0 {
        return f64::NAN;
    }
    usage.longs[0] as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(kind: Kind, seed: u64, trace: bool) -> Outcome {
        let args = Args { kind, seed, seconds: 1, trace };
        let outcome = run(args, Scale::SMALL).expect("set-up succeeds");
        assert!(outcome.failures.is_empty(), "{}: {:?}", kind.name(), outcome.failures);
        outcome
    }

    fn names(outcome: &Outcome) -> Vec<&'static str> {
        outcome.metrics.iter().map(|(name, _)| *name).collect()
    }

    #[test]
    fn every_metric_is_emitted_for_every_workload() {
        let end_to_end: Vec<&str> = metrics::END_TO_END.iter().map(|m| m.name).collect();
        let per_layer: Vec<&str> = metrics::PER_LAYER.iter().map(|m| m.name).collect();
        for kind in Kind::ALL {
            let plain = small(kind, 3, false);
            assert_eq!(names(&plain), end_to_end);
            for (name, value) in &plain.metrics {
                assert!(value.is_finite() && *value > 0.0, "{}: {name} = {value}", kind.name());
            }
            let traced = small(kind, 3, true);
            assert_eq!(names(&traced), per_layer);
            assert!(traced.metrics.iter().all(|(_, v)| v.is_finite()), "{}", kind.name());
        }
    }

    #[test]
    fn the_digest_follows_the_seed() {
        for kind in Kind::ALL {
            let first = small(kind, 21, false).digest;
            assert_eq!(first, small(kind, 21, false).digest, "{}: same seed", kind.name());
            assert_ne!(first, small(kind, 22, false).digest, "{}: other seed", kind.name());
        }
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let parse = |line: &str| parse_args(line.split_whitespace().map(str::to_owned));
        let args = parse("--workload sweep --seed 4 --seconds 10 --trace 1").expect("valid");
        assert_eq!((args.kind, args.seed, args.seconds, args.trace), (Kind::Sweep, 4, 10, true));
        assert!(parse("--workload nope --seed 4 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload sweep --seed 4 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload sweep --seed 4 --seconds 10").is_err());
        assert!(parse("--workload sweep --seed 4 --seconds 10 --trace 0 --extra 1").is_err());
    }

    #[test]
    fn the_summary_is_one_json_object() {
        let outcome = Outcome {
            attempted: 3,
            failures: vec!["x".to_owned()],
            metrics: vec![("run_s", 1.25), ("setup_s", 0.5)],
            digest: 0,
            samples: 3,
        };
        let summary = dlk_sim::obs::json::parse(&summary_json(&outcome)).expect("valid JSON");
        assert_eq!(summary.get("failed").and_then(|v| v.as_u64()), Some(1));
        let run_s = summary.get("metrics").and_then(|m| m.get("run_s")).expect("run_s");
        assert_eq!(run_s.get("value").and_then(|v| v.as_f64()), Some(1.25));
        assert_eq!(run_s.get("unit").and_then(|v| v.as_str()), Some("s"));
    }
}
