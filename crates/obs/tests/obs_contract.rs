//! Satellite contract tests for `dlk-obs`: the histogram's percentile
//! guarantee against a sorted-vec oracle (property-based), the
//! time-series ring + windowed rate against a Vec oracle
//! (property-based), sampler delta-absorb exactness across ticks,
//! counter linearity under real thread contention, and
//! golden-file-pinned text/JSON exposition so the formats can't drift
//! silently.

use std::sync::Arc;

use dlk_obs::json::BuildInfo;
use dlk_obs::{Histogram, Registry, Sample, Sampler, TimeSeries};
use proptest::collection;
use proptest::prelude::*;

/// The exact quantile the histogram estimates: the `rank`-th smallest
/// sample with `rank = ceil(q * n)` clamped to `[1, n]`.
fn oracle(sorted: &[u64], q: f64) -> u64 {
    let total = sorted.len() as u64;
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
    sorted[(rank - 1) as usize]
}

proptest! {
    /// The estimate never under-reports the true quantile, never
    /// exceeds the observed max, and is tight to one power of two.
    #[test]
    fn percentiles_bound_the_sorted_vec_oracle(
        small in collection::vec(0u64..1024, 1..40),
        large in collection::vec(any::<u64>(), 0..8),
        q in 0.0f64..=1.0,
    ) {
        let hist = Histogram::new();
        let mut samples = small.clone();
        samples.extend_from_slice(&large);
        for &v in &samples {
            hist.record(v);
        }
        samples.sort_unstable();

        let truth = oracle(&samples, q);
        let est = hist.percentile(q);
        prop_assert!(est >= truth, "estimate {} under-reports true quantile {}", est, truth);
        prop_assert!(est <= hist.max(), "estimate {} above max {}", est, hist.max());
        if truth == 0 {
            prop_assert_eq!(est, 0);
        } else {
            // The documented error bound: truth is in (est/2, est].
            prop_assert!(est / 2 < truth, "estimate {} looser than 2x truth {}", est, truth);
        }
    }

    /// Shard-local histograms merged into one report exactly what a
    /// single central histogram would have — the online-aggregation
    /// contract the fleet roadmap item leans on.
    #[test]
    fn merge_is_indistinguishable_from_central_recording(
        a in collection::vec(any::<u64>(), 0..20),
        b in collection::vec(0u64..100_000, 1..20),
    ) {
        let left = Histogram::new();
        let right = Histogram::new();
        let central = Histogram::new();
        for &v in &a {
            left.record(v);
            central.record(v);
        }
        for &v in &b {
            right.record(v);
            central.record(v);
        }
        left.merge(&right);
        prop_assert_eq!(left.snapshot(), central.snapshot());
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            prop_assert_eq!(left.percentile(q), central.percentile(q));
        }
    }
}

proptest! {
    /// The ring is exactly "a Vec that forgets its oldest entries":
    /// after any push sequence the retained samples equal the tail of
    /// the full history, and every windowed query agrees with the
    /// oracle computed on that tail.
    #[test]
    fn ring_matches_a_vec_oracle_through_wraparound(
        capacity in 1usize..12,
        deltas in collection::vec((0u64..5_000_000, -1000i64..1000), 0..40),
        window_raw in 0u64..20_000_002,
    ) {
        // Fold the edge cases into the range: 0 = "latest sample only",
        // the top value = "unbounded window".
        let window_us = if window_raw == 20_000_001 { u64::MAX } else { window_raw };
        let mut series = TimeSeries::new(capacity);
        let mut oracle: Vec<Sample> = Vec::new();
        // Timestamps are cumulative deltas: nondecreasing, like any
        // real clock the sampler ticks with.
        let mut t_us = 0u64;
        for (dt, value) in deltas {
            t_us += dt;
            series.push(t_us, value as f64);
            oracle.push(Sample { t_us, value: value as f64 });
        }
        let tail: Vec<Sample> =
            oracle.iter().copied().skip(oracle.len().saturating_sub(capacity)).collect();

        prop_assert_eq!(series.len(), tail.len());
        prop_assert_eq!(series.iter().collect::<Vec<_>>(), tail.clone());
        prop_assert_eq!(series.last(), tail.last().copied());

        let from = tail.last().map_or(0, |last| last.t_us.saturating_sub(window_us));
        let windowed: Vec<Sample> = tail.iter().copied().filter(|s| s.t_us >= from).collect();
        prop_assert_eq!(series.window(window_us).collect::<Vec<_>>(), windowed.clone());

        let expected_rate = match (windowed.first(), windowed.last()) {
            (Some(first), Some(last)) if last.t_us > first.t_us => {
                Some((last.value - first.value) / ((last.t_us - first.t_us) as f64 / 1e6))
            }
            _ => None,
        };
        prop_assert_eq!(series.rate(window_us), expected_rate);

        let expected_mean = (!windowed.is_empty())
            .then(|| windowed.iter().map(|s| s.value).sum::<f64>() / windowed.len() as f64);
        prop_assert_eq!(series.mean(window_us), expected_mean);
    }

    /// Across any tick boundaries, the sampler's histogram series stay
    /// exact: `<name>.count` is the lifetime count, and each tick's
    /// `<name>.mean` is the exact mean of precisely the samples
    /// recorded since the previous tick — no double counting, no loss.
    #[test]
    fn sampler_absorbs_histogram_deltas_exactly(
        batches in collection::vec(collection::vec(0u64..100_000, 0..10), 1..8),
    ) {
        let registry = Registry::new();
        let hist = registry.histogram("h");
        let mut sampler = Sampler::new(&registry, batches.len().max(1));

        let mut lifetime = 0u64;
        for (tick, batch) in batches.iter().enumerate() {
            for &v in batch {
                hist.record(v);
            }
            lifetime += batch.len() as u64;
            sampler.tick_at(tick as u64);

            let count = sampler.get("h.count").unwrap().last().unwrap().value;
            prop_assert_eq!(count, lifetime as f64);
            let mean = sampler.get("h.mean").unwrap().last().unwrap().value;
            let expected = if batch.is_empty() {
                0.0
            } else {
                batch.iter().sum::<u64>() as f64 / batch.len() as f64
            };
            prop_assert!(
                mean == expected,
                "tick {} mean {} must cover only its batch (expected {})",
                tick,
                mean,
                expected
            );
        }
    }
}

#[test]
#[allow(clippy::disallowed_methods, reason = "the contention under test needs threads of its own")]
fn concurrent_increments_from_scoped_threads_all_land() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;

    let registry = Registry::new();
    let counter = registry.counter("contention.events");
    let hist = registry.histogram("contention.values");
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let counter = Arc::clone(&counter);
            let hist = Arc::clone(&hist);
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    counter.inc();
                    hist.record(i);
                }
            });
        }
    });

    assert_eq!(counter.get(), THREADS * PER_THREAD, "no increment may be lost");
    assert_eq!(hist.count(), THREADS * PER_THREAD);
    assert_eq!(hist.max(), PER_THREAD - 1);
    // Re-resolving the name sees the same metric, not a fresh zero.
    assert_eq!(registry.counter("contention.events").get(), THREADS * PER_THREAD);
}

/// Builds the registry both golden files pin.
fn golden_registry() -> Registry {
    let registry = Registry::new();
    registry.counter("serve.executed").add(4);
    registry.gauge("sweep.queue_depth").set(-2);
    let hist = registry.histogram("memctrl.latency");
    for v in [1u64, 3, 8] {
        hist.record(v);
    }
    registry
}

#[test]
fn text_exposition_matches_the_golden_file() {
    assert_eq!(golden_registry().to_text(), include_str!("golden/registry.txt"));
}

#[test]
fn json_exposition_matches_the_golden_file() {
    let mut doc = golden_registry().to_document("golden");
    doc.set_build(BuildInfo::pinned());
    let json = doc.to_json();
    dlk_obs::json::validate(&json).expect("golden render must parse");
    assert_eq!(json, include_str!("golden/registry.json"));
}

/// Ticks the golden registry twice (one more executed job, one more
/// latency sample in between) — what the series golden files pin.
fn golden_sampler() -> Sampler {
    let registry = golden_registry();
    let mut sampler = Sampler::new(&registry, 4);
    sampler.tick_at(1_000_000);
    registry.counter("serve.executed").inc();
    registry.histogram("memctrl.latency").record(6);
    sampler.tick_at(2_000_000);
    sampler
}

#[test]
fn series_text_exposition_matches_the_golden_file() {
    assert_eq!(golden_sampler().to_text(), include_str!("golden/series.txt"));
}

#[test]
fn series_json_exposition_matches_the_golden_file() {
    let sampler = golden_sampler();
    let mut doc = golden_registry().to_document("golden");
    doc.set_build(BuildInfo::pinned());
    sampler.export_into(&mut doc);
    let json = doc.to_json();
    dlk_obs::json::validate(&json).expect("golden series render must parse");
    assert_eq!(json, include_str!("golden/series.json"));

    // And the exported section parses back into the exact samples.
    let value = dlk_obs::json::parse(&json).unwrap();
    let series = value.section("series");
    assert_eq!(series.len(), 5, "counter + gauge + 3 histogram series");
    let (name, samples) = dlk_obs::series::parse_series_object(&series[4]).unwrap();
    assert_eq!(name, "sweep.queue_depth");
    assert_eq!(
        samples,
        [Sample { t_us: 1_000_000, value: -2.0 }, Sample { t_us: 2_000_000, value: -2.0 }]
    );
}
