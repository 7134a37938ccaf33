//! Machine-readable bench snapshots (`BENCH_<layer>.json`).
//!
//! The layered bench records one snapshot per layer so CI (and future
//! sessions) can diff them without scraping stdout. Rendering,
//! validation and the atomic on-disk write all live in the shared
//! [`dlk_obs::json`] layer (schema version 2); this module keeps the
//! bench-facing `Snapshot` builder — a `kind: "bench"` document whose
//! `build` block also records the run's `reps`, with a
//! `metrics` section (name, unit and the five-number summary over the
//! reps: median, quartiles, min, max) and a `speedups` section (name
//! and the same summary of the per-rep ratios).
//!
//! ```json
//! {
//!   "schema_version": 2,
//!   "kind": "bench",
//!   "name": "locker",
//!   "build": { ..., "reps": 27 },
//!   "metrics": [
//!     { "name": "decode_minstr_per_s", "unit": "M/s", "median": 1958.3, "q1": 1940.1, "q3": 1971.0, "min": 1901.2, "max": 1990.0 }
//!   ],
//!   "speedups": [
//!     { "name": "decode_vs_reference", "median": 5.2, "q1": 5.1, "q3": 5.2, "min": 5.0, "max": 5.3 }
//!   ]
//! }
//! ```

use std::io;
use std::path::Path;

use dlk_obs::json::{self, Document};

/// The shared well-formedness parser (kept under its historic name).
pub use dlk_obs::json::validate as validate_json;
/// Schema version of the shared JSON layer (re-exported so bench code
/// keeps one import path).
pub use dlk_obs::json::SCHEMA_VERSION;

/// The five-number summary of one quantity over a run's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median sample.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Spread {
    /// The summary of `samples` (quantiles interpolated between the
    /// nearest ranks); all zero when there are none.
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        if sorted.is_empty() {
            return Self::exact(0.0);
        }
        let quantile = |p: f64| {
            let pos = p * (sorted.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        };
        Self {
            min: quantile(0.0),
            q1: quantile(0.25),
            median: quantile(0.5),
            q3: quantile(0.75),
            max: quantile(1.0),
        }
    }

    /// A single exact value (no spread).
    pub fn exact(value: f64) -> Self {
        Self { min: value, q1: value, median: value, q3: value, max: value }
    }

    /// The interquartile range relative to the median, in percent (0
    /// for a zero median): the noise a run recorded for this quantity,
    /// robust to one disturbed repetition.
    pub fn iqr_pct(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs() * 100.0
        }
    }

    fn fields(&self) -> [(&'static str, String); 5] {
        [
            ("median", json::number(self.median)),
            ("q1", json::number(self.q1)),
            ("q3", json::number(self.q3)),
            ("min", json::number(self.min)),
            ("max", json::number(self.max)),
        ]
    }
}

/// One measured quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Snake-case metric name, e.g. `decode_minstr_per_s`.
    pub name: String,
    /// Unit label, e.g. `M/s` or `ms`.
    pub unit: String,
    /// Spread over the repetitions (non-finite values are recorded as
    /// `0`).
    pub spread: Spread,
}

/// A named new-vs-reference ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct Speedup {
    /// Snake-case ratio name, e.g. `decode_vs_reference`.
    pub name: String,
    /// Per-repetition throughput ratios (> 1 means the new path is
    /// faster).
    pub spread: Spread,
}

/// An in-memory bench snapshot, serialized with [`Snapshot::to_json`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    bench: String,
    reps: usize,
    metrics: Vec<Metric>,
    speedups: Vec<Speedup>,
}

impl Snapshot {
    /// Starts an empty snapshot for the named bench, measured over
    /// `reps` repetitions.
    pub fn new(bench: impl Into<String>, reps: usize) -> Self {
        Self { bench: bench.into(), reps, metrics: Vec::new(), speedups: Vec::new() }
    }

    /// The bench (layer) name.
    pub fn name(&self) -> &str {
        &self.bench
    }

    /// Records a measured metric.
    pub fn metric(&mut self, name: &str, unit: &str, spread: Spread) -> &mut Self {
        self.metrics.push(Metric { name: name.into(), unit: unit.into(), spread });
        self
    }

    /// Records a new-vs-reference speedup ratio.
    pub fn speedup(&mut self, name: &str, spread: Spread) -> &mut Self {
        self.speedups.push(Speedup { name: name.into(), spread });
        self
    }

    /// Lowers the snapshot onto the shared schema-v2 document (both
    /// sections always present, possibly empty).
    pub fn to_document(&self) -> Document {
        let mut doc = Document::new("bench", &self.bench);
        doc.build_field("reps", self.reps.to_string());
        doc.section("metrics");
        doc.section("speedups");
        for metric in &self.metrics {
            let [median, q1, q3, min, max] = metric.spread.fields();
            doc.push_object(
                "metrics",
                &[
                    ("name", json::escape(&metric.name)),
                    ("unit", json::escape(&metric.unit)),
                    median,
                    q1,
                    q3,
                    min,
                    max,
                ],
            );
        }
        for speedup in &self.speedups {
            let [median, q1, q3, min, max] = speedup.spread.fields();
            doc.push_object(
                "speedups",
                &[("name", json::escape(&speedup.name)), median, q1, q3, min, max],
            );
        }
        doc
    }

    /// Renders the snapshot as a JSON document.
    pub fn to_json(&self) -> String {
        self.to_document().to_json()
    }

    /// Serializes and writes `BENCH_<bench>.json`-style output to
    /// `path` atomically (temp file + rename), validating the JSON
    /// first.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error; an invalid render (a bug in the
    /// shared JSON layer) surfaces as [`io::ErrorKind::InvalidData`].
    pub fn write(&self, path: impl AsRef<Path>) -> io::Result<()> {
        self.to_document().write(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlk_obs::json::parse;
    use std::fs;

    #[test]
    fn snapshot_json_is_valid_and_carries_fields() {
        let mut snap = Snapshot::new("locker", 5);
        snap.metric("decode_minstr_per_s", "M/s", Spread::of(&[120.0, 123.456, 130.0]));
        snap.metric("gemm_mflop_per_s", "MFLOP/s", Spread::exact(789.0));
        snap.speedup("decode_vs_reference", Spread::exact(2.4));
        let json = snap.to_json();
        validate_json(&json).expect("snapshot JSON must parse");
        assert!(json.contains("\"schema_version\": 2"));
        assert!(json.contains("\"kind\": \"bench\""));
        assert!(json.contains("\"name\": \"locker\""));
        assert!(json.contains("\"unit\": \"MFLOP/s\""));
        assert!(json.contains("\"profile\""));
        let doc = parse(&json).unwrap();
        let build = doc.get("build").unwrap();
        assert_eq!(build.get("reps").unwrap().as_u64(), Some(5));
        let decode = &doc.section("metrics")[0];
        assert_eq!(decode.get("name").unwrap().as_str(), Some("decode_minstr_per_s"));
        assert_eq!(decode.get("median").unwrap().as_f64(), Some(123.456));
        assert_eq!(decode.get("min").unwrap().as_f64(), Some(120.0));
        assert_eq!(decode.get("max").unwrap().as_f64(), Some(130.0));
        assert!(decode.get("q1").unwrap().as_f64().unwrap() < 123.456);
        assert!(decode.get("q3").unwrap().as_f64().unwrap() > 123.456);
        let ratio = &doc.section("speedups")[0];
        assert_eq!(ratio.get("median").unwrap().as_f64(), Some(2.4));
    }

    #[test]
    fn spread_orders_samples_and_takes_the_middle() {
        let odd = Spread::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(odd, Spread { min: 1.0, q1: 2.0, median: 3.0, q3: 4.0, max: 5.0 });
        let even = Spread::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(even, Spread { min: 1.0, q1: 1.75, median: 2.5, q3: 3.25, max: 4.0 });
        assert_eq!(Spread::of(&[]), Spread::exact(0.0));
        // One disturbed repetition moves min, not the quartiles.
        let disturbed = Spread::of(&[100.0, 98.0, 102.0, 40.0, 101.0]);
        assert_eq!((disturbed.q1, disturbed.median, disturbed.q3), (98.0, 100.0, 101.0));
        assert!((disturbed.iqr_pct() - 3.0).abs() < 1e-9);
        assert_eq!(Spread::exact(0.0).iqr_pct(), 0.0);
    }

    #[test]
    fn empty_snapshot_is_valid() {
        let json = Snapshot::new("empty", 1).to_json();
        validate_json(&json).expect("empty snapshot must parse");
        assert!(json.contains("\"metrics\": []"));
        assert!(json.contains("\"speedups\": []"));
    }

    #[test]
    fn non_finite_metrics_serialize_as_zero() {
        let mut snap = Snapshot::new("nan", 1);
        snap.metric("bad", "x", Spread::exact(f64::NAN)).metric(
            "inf",
            "x",
            Spread::exact(f64::INFINITY),
        );
        let json = snap.to_json();
        validate_json(&json).expect("non-finite values must not break JSON");
        assert!(json.contains("\"median\": 0,"));
    }

    #[test]
    fn strings_are_escaped() {
        let mut snap = Snapshot::new("quote\"and\\slash\n", 1);
        snap.metric("tab\there", "u", Spread::exact(1.0));
        let json = snap.to_json();
        validate_json(&json).expect("escaped JSON must parse");
        assert!(json.contains("quote\\\"and\\\\slash\\n"));
    }

    #[test]
    fn write_is_atomic_and_valid_on_disk() {
        let dir = std::env::temp_dir().join(format!("dlk_snapshot_test_{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("BENCH_test.json");
        let mut snap = Snapshot::new("test", 1);
        snap.metric("m", "u", Spread::exact(1.0));
        snap.write(&path).expect("write");
        let on_disk = fs::read_to_string(&path).expect("read back");
        validate_json(&on_disk).expect("on-disk JSON parses");
        assert!(!path.with_extension("json.tmp").exists(), "temp file must be renamed away");
        fs::remove_dir_all(&dir).ok();
    }
}
