//! The table-driven runner behind the layered bench
//! (`cargo bench -p dlk-bench --bench layers`).
//!
//! A bench is data: a `const` table of [`Case`]s, one
//! `(layer, name, unit, setup)` entry per measured kernel, plus a table
//! of [`Ratio`]s between rate cases of one layer. [`run`] sets every
//! case up once, then measures [`REPS`] interleaved rounds: each round
//! times every case over one [`WINDOW`], so a noisy stretch of host
//! time lands on all cases at once instead of sinking one. Every run —
//! a committed baseline or the CI gate's fresh one — takes this same
//! measurement, so any two snapshots compare.
//!
//! A case's samples become a five-number [`Spread`]; a ratio's spread
//! is that of its per-round quotients. [`Results::snapshots`] groups
//! both into one schema-v2 document per layer.

use std::time::{Duration, Instant};

use crate::snapshot::{Snapshot, Spread};

/// Rate units and their divisors: a case in one of these reports its
/// work per second, divided by the divisor.
pub const RATE_UNITS: &[(&str, f64)] = &[("M/s", 1e6), ("MFLOP/s", 1e6), ("k/s", 1e3), ("/s", 1.0)];

/// The wall unit: milliseconds per unit of work.
pub const WALL_UNIT: &str = "ms";

/// Measured rounds per case: enough for quartiles that shrug off a few
/// disturbed rounds, in about a minute for the whole table.
pub const REPS: usize = 27;

/// Minimum timed span of one case in one round.
pub const WINDOW: Duration = Duration::from_millis(25);

/// A case's measured body. Each call does some work and returns how
/// many units it did (instructions, requests, FLOPs, regenerations).
pub type Kernel = Box<dyn FnMut() -> u64>;

/// One row of a bench table.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    /// Layer the case measures; names its snapshot
    /// (`BENCH_<layer>.json`).
    pub layer: &'static str,
    /// Metric name, unique within the layer.
    pub name: &'static str,
    /// A rate unit from [`RATE_UNITS`], or [`WALL_UNIT`].
    pub unit: &'static str,
    /// Builds the kernel, outside the timed region.
    pub setup: fn() -> Kernel,
}

/// A speedup between two rate cases of one layer: per round,
/// `numerator / denominator`.
#[derive(Debug, Clone, Copy)]
pub struct Ratio {
    /// Layer both cases belong to.
    pub layer: &'static str,
    /// Speedup name, unique within the layer.
    pub name: &'static str,
    /// Case name of the new path.
    pub numerator: &'static str,
    /// Case name of the reference path.
    pub denominator: &'static str,
}

fn rate_divisor(unit: &str) -> Option<f64> {
    RATE_UNITS.iter().find(|(name, _)| *name == unit).map(|&(_, divisor)| divisor)
}

/// Checks a bench table: every unit is known, every name is unique
/// within its layer, and every ratio relates two rate cases of its own
/// layer.
///
/// # Errors
///
/// Names the first offending entry.
pub fn check(cases: &[Case], ratios: &[Ratio]) -> Result<(), String> {
    for (at, case) in cases.iter().enumerate() {
        if rate_divisor(case.unit).is_none() && case.unit != WALL_UNIT {
            return Err(format!("{}/{}: unknown unit '{}'", case.layer, case.name, case.unit));
        }
        if cases[..at].iter().any(|c| c.layer == case.layer && c.name == case.name) {
            return Err(format!("{}/{}: duplicate case", case.layer, case.name));
        }
    }
    for (at, ratio) in ratios.iter().enumerate() {
        if ratios[..at].iter().any(|r| r.layer == ratio.layer && r.name == ratio.name) {
            return Err(format!("{}/{}: duplicate ratio", ratio.layer, ratio.name));
        }
        for operand in [ratio.numerator, ratio.denominator] {
            let is_rate = cases.iter().any(|c| {
                c.layer == ratio.layer && c.name == operand && rate_divisor(c.unit).is_some()
            });
            if !is_rate {
                return Err(format!(
                    "{}/{}: '{operand}' is not a rate case of this layer",
                    ratio.layer, ratio.name
                ));
            }
        }
    }
    Ok(())
}

/// Calls `kernel` until `window` has elapsed (at least once) and
/// converts the work done into `unit`.
fn measure(unit: &str, kernel: &mut Kernel, window: Duration) -> f64 {
    let start = Instant::now();
    let mut work = 0u64;
    loop {
        work += kernel();
        let elapsed = start.elapsed();
        if elapsed >= window {
            let secs = elapsed.as_secs_f64();
            return match rate_divisor(unit) {
                Some(divisor) => work as f64 / secs / divisor,
                None => secs * 1e3 / work.max(1) as f64,
            };
        }
    }
}

/// Sets up and measures every case of a checked table over [`REPS`]
/// rounds.
///
/// # Errors
///
/// Returns the [`check`] failure without running anything.
pub fn run<'a>(cases: &'a [Case], ratios: &'a [Ratio]) -> Result<Results<'a>, String> {
    run_rounds(cases, ratios, REPS)
}

fn run_rounds<'a>(
    cases: &'a [Case],
    ratios: &'a [Ratio],
    reps: usize,
) -> Result<Results<'a>, String> {
    check(cases, ratios)?;
    let mut kernels: Vec<Kernel> = cases.iter().map(|case| (case.setup)()).collect();
    for kernel in &mut kernels {
        kernel(); // warm caches and lazy state once, untimed
    }
    let mut samples = vec![Vec::with_capacity(reps); cases.len()];
    for _ in 0..reps {
        for ((case, kernel), samples) in cases.iter().zip(&mut kernels).zip(&mut samples) {
            samples.push(measure(case.unit, kernel, WINDOW));
        }
    }
    Ok(Results { reps, cases, ratios, samples })
}

/// The measured samples of one bench run.
#[derive(Debug)]
pub struct Results<'a> {
    reps: usize,
    cases: &'a [Case],
    ratios: &'a [Ratio],
    /// Per case (table order), one sample per round.
    samples: Vec<Vec<f64>>,
}

impl Results<'_> {
    fn samples_of(&self, layer: &str, name: &str) -> &[f64] {
        let at = self.cases.iter().position(|c| c.layer == layer && c.name == name);
        at.map_or(&[], |at| &self.samples[at])
    }

    fn ratio_spread(&self, ratio: &Ratio) -> Spread {
        let numerator = self.samples_of(ratio.layer, ratio.numerator);
        let denominator = self.samples_of(ratio.layer, ratio.denominator);
        let quotients: Vec<f64> = numerator.iter().zip(denominator).map(|(n, d)| n / d).collect();
        Spread::of(&quotients)
    }

    /// Layer names in first-appearance order.
    fn layers(&self) -> Vec<&'static str> {
        let mut layers: Vec<&'static str> = Vec::new();
        for case in self.cases {
            if !layers.contains(&case.layer) {
                layers.push(case.layer);
            }
        }
        layers
    }

    /// One snapshot per layer, in table order.
    pub fn snapshots(&self) -> Vec<Snapshot> {
        self.layers()
            .into_iter()
            .map(|layer| {
                let mut snap = Snapshot::new(layer, self.reps);
                for (case, samples) in self.cases.iter().zip(&self.samples) {
                    if case.layer == layer {
                        snap.metric(case.name, case.unit, Spread::of(samples));
                    }
                }
                for ratio in self.ratios.iter().filter(|r| r.layer == layer) {
                    snap.speedup(ratio.name, self.ratio_spread(ratio));
                }
                snap
            })
            .collect()
    }

    /// The aligned stdout table: one line per case and ratio.
    pub fn render(&self) -> String {
        let mut out = format!("layers bench ({} reps)\n", self.reps);
        out.push_str(&format!(
            "{:<9} {:<36} {:>12} {:>12} {:>12}\n",
            "layer", "name", "median", "q1", "q3"
        ));
        let mut line = |layer: &str, name: &str, spread: Spread, unit: &str| {
            out.push_str(&format!(
                "{layer:<9} {name:<36} {:>12.3} {:>12.3} {:>12.3} {unit}\n",
                spread.median, spread.q1, spread.q3
            ));
        };
        for layer in self.layers() {
            for (case, samples) in self.cases.iter().zip(&self.samples) {
                if case.layer == layer {
                    line(layer, case.name, Spread::of(samples), case.unit);
                }
            }
            for ratio in self.ratios.iter().filter(|r| r.layer == layer) {
                line(layer, ratio.name, self.ratio_spread(ratio), "x");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin() -> Kernel {
        Box::new(|| {
            std::hint::black_box((0..1_000u64).sum::<u64>());
            1_000
        })
    }

    #[allow(clippy::disallowed_methods, reason = "a kernel whose wall time is all sleep")]
    fn sleepy() -> Kernel {
        Box::new(|| {
            std::thread::sleep(Duration::from_millis(2));
            1
        })
    }

    const CASES: &[Case] = &[
        Case { layer: "alpha", name: "spin_a", unit: "M/s", setup: spin },
        Case { layer: "alpha", name: "spin_b", unit: "M/s", setup: spin },
        Case { layer: "beta", name: "sleep_wall_ms", unit: "ms", setup: sleepy },
    ];
    const RATIOS: &[Ratio] =
        &[Ratio { layer: "alpha", name: "a_vs_b", numerator: "spin_a", denominator: "spin_b" }];

    #[test]
    fn check_accepts_a_well_formed_table() {
        check(CASES, RATIOS).unwrap();
    }

    #[test]
    fn check_names_each_kind_of_malformed_entry() {
        let case = |layer, name, unit| Case { layer, name, unit, setup: spin };
        let unknown = [case("a", "x", "furlongs")];
        assert!(check(&unknown, &[]).unwrap_err().contains("unknown unit 'furlongs'"));
        let duplicate = [case("a", "x", "M/s"), case("a", "x", "k/s")];
        assert!(check(&duplicate, &[]).unwrap_err().contains("a/x: duplicate case"));
        let same_name_other_layer = [case("a", "x", "M/s"), case("b", "x", "M/s")];
        check(&same_name_other_layer, &[]).unwrap();

        let ratio =
            |name, numerator, denominator| Ratio { layer: "a", name, numerator, denominator };
        let cases = [case("a", "x", "M/s"), case("a", "w", "ms"), case("b", "y", "M/s")];
        for (operand, other_layer_or_wall) in
            [("y", ratio("r", "x", "y")), ("w", ratio("r", "w", "x"))]
        {
            let err = check(&cases, &[other_layer_or_wall]).unwrap_err();
            assert!(err.contains(&format!("'{operand}' is not a rate case")), "{err}");
        }
        let twice = [ratio("r", "x", "x"), ratio("r", "x", "x")];
        assert!(check(&cases, &twice).unwrap_err().contains("duplicate ratio"));
    }

    #[test]
    fn run_measures_every_case_once_per_round() {
        let results = run_rounds(CASES, RATIOS, 3).unwrap();
        assert!(results.samples.iter().all(|s| s.len() == 3));
        assert!(results.samples[0].iter().all(|&rate| rate.is_finite() && rate > 0.0));
        // 2 ms sleeps in a 25 ms window: at least 2 ms per regeneration.
        let wall = Spread::of(&results.samples[2]);
        assert!((2.0..50.0).contains(&wall.median), "{wall:?}");

        let snaps = results.snapshots();
        let names: Vec<&str> = snaps.iter().map(Snapshot::name).collect();
        assert_eq!(names, ["alpha", "beta"], "one snapshot per layer, table order");
        let alpha = dlk_obs::json::parse(&snaps[0].to_json()).unwrap();
        let reps = alpha.get("build").unwrap().get("reps").unwrap().as_u64();
        assert_eq!(reps, Some(3));
        assert_eq!(alpha.section("metrics").len(), 2);
        let ratio = &alpha.section("speedups")[0];
        assert_eq!(ratio.get("name").unwrap().as_str(), Some("a_vs_b"));
        assert!(ratio.get("median").unwrap().as_f64().unwrap() > 0.0);
        assert!(dlk_obs::json::parse(&snaps[1].to_json()).unwrap().section("speedups").is_empty());

        let table = results.render();
        assert!(table.starts_with("layers bench (3 reps)\n"), "{table}");
        assert!(table.contains("alpha") && table.contains("a_vs_b") && table.contains(" ms\n"));
    }

    #[test]
    fn run_refuses_a_malformed_table_before_measuring() {
        let bad = [Case { layer: "a", name: "x", unit: "parsecs", setup: sleepy }];
        assert!(run(&bad, &[]).is_err());
    }
}
