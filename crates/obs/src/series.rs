//! Time-series telemetry: a fixed-capacity ring of timestamped samples
//! plus a registry sampler.
//!
//! A [`Histogram`](crate::Histogram) answers "what is the distribution
//! so far"; a [`TimeSeries`] answers "what happened over the last N
//! seconds". The ring holds the most recent `capacity` samples and
//! nothing else, so a daemon that ticks every scan costs O(capacity)
//! memory regardless of how long it runs — the same constant-memory
//! discipline as the histogram's online merge, extended into the time
//! dimension.
//!
//! [`Sampler`] is the bridge from the point-in-time [`Registry`] to
//! series: each caller-driven [`tick`](Sampler::tick) snapshots every
//! registered metric into its series (counters and gauges one series
//! each; histograms fan out to `<name>.count` / `<name>.mean` /
//! `<name>.p95`, where `mean` is computed from the *delta* of count and
//! sum since the previous tick — the absorb trick from
//! [`LocalHistogram`](crate::LocalHistogram), applied across time, so
//! the per-tick mean is exact even though the histogram itself can
//! never forget). Series are exposed as the ordered `series` section of
//! the schema-v2 JSON document and as `series <name> t:v ...` text
//! lines, both golden-pinned.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::json::{self, Document};
use crate::registry::{Metric, Registry};

/// One timestamped observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Timestamp in microseconds (whatever epoch the producer ticks
    /// with — the serve daemon uses Unix micros so history splices
    /// across restarts).
    pub t_us: u64,
    /// Observed value.
    pub value: f64,
}

/// A fixed-capacity ring buffer of [`Sample`]s in push order.
///
/// Pushing beyond `capacity` overwrites the oldest sample; every query
/// walks at most `capacity` entries. Windowed queries measure time
/// backwards from the newest sample, so they keep working no matter
/// which epoch the timestamps use.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    samples: Vec<Sample>,
    /// Index of the oldest sample once the ring has wrapped.
    head: usize,
    capacity: usize,
}

impl TimeSeries {
    /// An empty series retaining at most `capacity` samples (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self { samples: Vec::with_capacity(capacity.min(1024)), head: 0, capacity }
    }

    /// A series pre-filled from `samples` (oldest first), keeping only
    /// the newest `capacity` of them.
    pub fn from_samples(capacity: usize, samples: impl IntoIterator<Item = Sample>) -> Self {
        let mut series = Self::new(capacity);
        for sample in samples {
            series.push(sample.t_us, sample.value);
        }
        series
    }

    /// Appends a sample, evicting the oldest once full.
    pub fn push(&mut self, t_us: u64, value: f64) {
        if self.samples.len() < self.capacity {
            self.samples.push(Sample { t_us, value });
        } else {
            self.samples[self.head] = Sample { t_us, value };
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The retention limit.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Retained samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = Sample> + '_ {
        let (tail, front) = self.samples.split_at(self.head.min(self.samples.len()));
        front.iter().chain(tail.iter()).copied()
    }

    /// The newest sample.
    pub fn last(&self) -> Option<Sample> {
        let at = if self.samples.len() < self.capacity {
            self.samples.len().checked_sub(1)?
        } else {
            Some((self.head + self.capacity - 1) % self.capacity)?
        };
        self.samples.get(at).copied()
    }

    /// Retained samples whose timestamp is within `window_us` of the
    /// newest sample (inclusive), oldest first.
    pub fn window(&self, window_us: u64) -> impl Iterator<Item = Sample> + '_ {
        let from = self.last().map_or(0, |last| last.t_us.saturating_sub(window_us));
        self.iter().filter(move |sample| sample.t_us >= from)
    }

    /// Rate of change per second over the window, for series of
    /// cumulative values (counters): `(newest - oldest) / Δt`. `None`
    /// with fewer than two windowed samples or a zero time span.
    pub fn rate(&self, window_us: u64) -> Option<f64> {
        let mut samples = self.window(window_us);
        let first = samples.next()?;
        let last = samples.last()?;
        let dt_us = last.t_us.checked_sub(first.t_us)?;
        if dt_us == 0 {
            return None;
        }
        Some((last.value - first.value) / (dt_us as f64 / 1e6))
    }

    /// Arithmetic mean of the sample values in the window. `None` when
    /// the series is empty.
    pub fn mean(&self, window_us: u64) -> Option<f64> {
        let (mut sum, mut count) = (0.0f64, 0u64);
        for sample in self.window(window_us) {
            sum += sample.value;
            count += 1;
        }
        (count > 0).then(|| sum / count as f64)
    }
}

/// Snapshots a [`Registry`] into per-metric [`TimeSeries`] on a
/// caller-driven tick. See the module docs for the per-kind mapping.
#[derive(Debug)]
pub struct Sampler {
    registry: Registry,
    capacity: usize,
    origin: Instant,
    origin_us: u64,
    series: BTreeMap<String, TimeSeries>,
    /// Per-histogram `(count, sum)` absorbed by previous ticks, so each
    /// tick's `<name>.mean` covers exactly the samples recorded since
    /// the last one.
    absorbed: BTreeMap<String, (u64, u64)>,
}

impl Sampler {
    /// A sampler over `registry`, retaining `capacity` samples per
    /// series. Ticks are timestamped relative to construction time
    /// unless [`with_origin_us`](Sampler::with_origin_us) rebases them.
    pub fn new(registry: &Registry, capacity: usize) -> Self {
        Self {
            registry: registry.clone(),
            capacity: capacity.max(1),
            origin: Instant::now(),
            origin_us: 0,
            series: BTreeMap::new(),
            absorbed: BTreeMap::new(),
        }
    }

    /// Rebases [`tick`](Sampler::tick) timestamps to `origin_us` + the
    /// wall time elapsed since construction. The serve daemon passes
    /// Unix micros here so replayed history and fresh samples share one
    /// monotone axis across restarts.
    pub fn with_origin_us(mut self, origin_us: u64) -> Self {
        self.origin_us = origin_us;
        self
    }

    /// Per-series retention limit.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Snapshots every registered metric at the current time. Returns
    /// the timestamp used.
    pub fn tick(&mut self) -> u64 {
        let elapsed = u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX);
        let t_us = self.origin_us.saturating_add(elapsed);
        self.tick_at(t_us);
        t_us
    }

    /// Snapshots every registered metric at an explicit timestamp.
    pub fn tick_at(&mut self, t_us: u64) {
        for (name, metric) in self.registry.metrics() {
            match metric {
                Metric::Counter(counter) => self.push(&name, t_us, counter.get() as f64),
                Metric::Gauge(gauge) => self.push(&name, t_us, gauge.get() as f64),
                Metric::Histogram(hist) => {
                    let snap = hist.snapshot();
                    let (last_count, last_sum) = self
                        .absorbed
                        .insert(name.clone(), (snap.count, snap.sum))
                        .unwrap_or((0, 0));
                    let delta_count = snap.count.saturating_sub(last_count);
                    let delta_mean = if delta_count == 0 {
                        0.0
                    } else {
                        snap.sum.wrapping_sub(last_sum) as f64 / delta_count as f64
                    };
                    self.push(&format!("{name}.count"), t_us, snap.count as f64);
                    self.push(&format!("{name}.mean"), t_us, delta_mean);
                    self.push(&format!("{name}.p95"), t_us, snap.p95 as f64);
                }
            }
        }
    }

    fn push(&mut self, name: &str, t_us: u64, value: f64) {
        self.series
            .entry(name.to_owned())
            .or_insert_with(|| TimeSeries::new(self.capacity))
            .push(t_us, value);
    }

    /// Pre-loads history for one series (oldest first) — how the serve
    /// daemon replays the previous heartbeat's tail after a restart.
    pub fn seed(&mut self, name: &str, samples: impl IntoIterator<Item = Sample>) {
        for sample in samples {
            self.push(name, sample.t_us, sample.value);
        }
    }

    /// The series recorded under `name`, if any tick has produced one.
    pub fn get(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name)
    }

    /// All series in name order.
    pub fn series(&self) -> impl Iterator<Item = (&str, &TimeSeries)> {
        self.series.iter().map(|(name, series)| (name.as_str(), series))
    }

    /// Number of distinct series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True before the first tick (or seed).
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Appends the ordered `series` section to a schema-v2 document:
    /// one object per series, `samples` an array of `[t_us, value]`
    /// pairs, oldest first.
    pub fn export_into(&self, doc: &mut Document) {
        doc.section("series");
        for (name, series) in &self.series {
            doc.push_object(
                "series",
                &[("name", json::escape(name)), ("samples", render_samples(series))],
            );
        }
    }

    /// Plain-text exposition: one `series <name> <t_us>:<value> ...`
    /// line per series in name order. Stable format, golden-pinned.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, series) in &self.series {
            let _ = write!(out, "series {name}");
            for sample in series.iter() {
                let _ = write!(out, " {}:{}", sample.t_us, json::number(sample.value));
            }
            out.push('\n');
        }
        out
    }
}

/// Renders a series' samples as a JSON array of `[t_us, value]` pairs.
fn render_samples(series: &TimeSeries) -> String {
    let mut out = String::from("[");
    for (at, sample) in series.iter().enumerate() {
        if at > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "[{}, {}]", sample.t_us, json::number(sample.value));
    }
    out.push(']');
    out
}

/// Parses one exported series object (`{"name": ..., "samples":
/// [[t_us, value], ...]}`) back into `(name, samples)` — the read half
/// of [`Sampler::export_into`], used by heartbeat replay and `dlk top`.
pub fn parse_series_object(object: &json::Value) -> Option<(String, Vec<Sample>)> {
    let name = object.get("name")?.as_str()?.to_owned();
    let mut samples = Vec::new();
    for pair in object.get("samples")?.as_array()? {
        let pair = pair.as_array()?;
        let [t, v] = pair else { return None };
        samples.push(Sample { t_us: t.as_u64()?, value: v.as_f64()? });
    }
    Some((name, samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_of(samples: &[(u64, f64)]) -> TimeSeries {
        TimeSeries::from_samples(
            samples.len().max(1),
            samples.iter().map(|&(t_us, value)| Sample { t_us, value }),
        )
    }

    #[test]
    fn ring_keeps_the_newest_capacity_samples() {
        let mut series = TimeSeries::new(3);
        for t in 0..5u64 {
            series.push(t, t as f64);
        }
        assert_eq!(series.len(), 3);
        let kept: Vec<u64> = series.iter().map(|s| s.t_us).collect();
        assert_eq!(kept, [2, 3, 4]);
        assert_eq!(series.last().unwrap().t_us, 4);
    }

    #[test]
    fn empty_and_single_sample_edges() {
        let series = TimeSeries::new(4);
        assert!(series.is_empty() && series.last().is_none());
        assert_eq!(series.rate(1_000), None);
        assert_eq!(series.mean(1_000), None);

        let one = series_of(&[(10, 7.0)]);
        assert_eq!(one.last().unwrap().value, 7.0);
        assert_eq!(one.rate(1_000), None, "rate needs two samples");
        assert_eq!(one.mean(1_000), Some(7.0));
    }

    #[test]
    fn rate_is_delta_over_window_seconds() {
        // A counter climbing 10 per second, sampled once a second.
        let series = series_of(&[(0, 0.0), (1_000_000, 10.0), (2_000_000, 20.0)]);
        assert_eq!(series.rate(u64::MAX), Some(10.0));
        // A 1s window keeps only the last two samples.
        assert_eq!(series.rate(1_000_000), Some(10.0));
        // Zero-width window: one sample, no rate.
        assert_eq!(series.rate(0), None);
    }

    #[test]
    fn windowed_mean_ignores_old_samples() {
        let series = series_of(&[(0, 100.0), (9_000_000, 2.0), (10_000_000, 4.0)]);
        assert_eq!(series.mean(1_000_000), Some(3.0));
        assert_eq!(series.mean(u64::MAX), Some(106.0 / 3.0));
    }

    #[test]
    fn sampler_maps_metric_kinds_to_series() {
        let registry = Registry::new();
        registry.counter("serve.executed").add(3);
        registry.gauge("sweep.queue_depth").set(5);
        registry.histogram("sweep.job_wall_us").record(100);

        let mut sampler = Sampler::new(&registry, 8);
        sampler.tick_at(1_000);
        registry.counter("serve.executed").add(2);
        registry.histogram("sweep.job_wall_us").record(300);
        sampler.tick_at(2_000);

        let executed = sampler.get("serve.executed").unwrap();
        let values: Vec<f64> = executed.iter().map(|s| s.value).collect();
        assert_eq!(values, [3.0, 5.0]);
        assert_eq!(sampler.get("sweep.queue_depth").unwrap().last().unwrap().value, 5.0);
        let count = sampler.get("sweep.job_wall_us.count").unwrap();
        assert_eq!(count.last().unwrap().value, 2.0);
        assert!(sampler.get("sweep.job_wall_us.p95").is_some());
    }

    #[test]
    fn sampler_histogram_mean_is_per_tick_delta_exact() {
        let registry = Registry::new();
        let hist = registry.histogram("lat");
        let mut sampler = Sampler::new(&registry, 8);

        hist.record(10);
        hist.record(20);
        sampler.tick_at(1);
        // Mean of the first tick's absorbed delta: (10+20)/2.
        assert_eq!(sampler.get("lat.mean").unwrap().last().unwrap().value, 15.0);

        hist.record(100);
        sampler.tick_at(2);
        // Only the new sample counts, not the lifetime mean (130/3).
        assert_eq!(sampler.get("lat.mean").unwrap().last().unwrap().value, 100.0);

        // A tick with nothing new absorbs nothing and reports 0.
        sampler.tick_at(3);
        assert_eq!(sampler.get("lat.mean").unwrap().last().unwrap().value, 0.0);
    }

    #[test]
    fn export_and_parse_round_trip() {
        let registry = Registry::new();
        registry.counter("c").add(4);
        let mut sampler = Sampler::new(&registry, 4);
        sampler.tick_at(10);
        registry.counter("c").inc();
        sampler.tick_at(20);

        let mut doc = Document::new("metrics", "rt");
        sampler.export_into(&mut doc);
        let json_text = doc.to_json();
        let value = json::parse(&json_text).expect("exported series must parse");
        let objects = value.section("series");
        assert_eq!(objects.len(), 1);
        let (name, samples) = parse_series_object(&objects[0]).expect("series object shape");
        assert_eq!(name, "c");
        assert_eq!(samples, [Sample { t_us: 10, value: 4.0 }, Sample { t_us: 20, value: 5.0 }]);

        // Seeding a fresh sampler from the parsed samples replays them.
        let mut replayed = Sampler::new(&Registry::new(), 4);
        replayed.seed(&name, samples);
        assert_eq!(replayed.get("c").unwrap().len(), 2);
        assert_eq!(replayed.get("c").unwrap().last().unwrap().value, 5.0);
    }

    #[test]
    fn text_exposition_is_one_line_per_series() {
        let registry = Registry::new();
        registry.gauge("depth").set(-2);
        let mut sampler = Sampler::new(&registry, 4);
        sampler.tick_at(5);
        sampler.tick_at(6);
        assert_eq!(sampler.to_text(), "series depth 5:-2 6:-2\n");
    }
}
