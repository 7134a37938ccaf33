//! `dlk-obs` — zero-dependency observability for the DRAM-Locker stack.
//!
//! Everything the simulator's layers need to report what they are
//! doing at runtime, with nothing the hot path can't afford:
//!
//! - [`Counter`] / [`Gauge`]: relaxed-atomic scalars (a bare
//!   `fetch_add` on the record path — safe inside the memory
//!   controller's per-request service loop).
//! - [`Histogram`]: a 65-bucket log2 histogram with lock-free
//!   [`Histogram::record`], online [`Histogram::merge`] (the streaming
//!   aggregation primitive fleet-level simulation needs), and
//!   `p50/p95/p99/max` estimates accurate to one power of two.
//!   [`LocalHistogram`] is its non-atomic single-owner twin for
//!   `&mut self` hot paths, flushed via [`Histogram::absorb`] deltas.
//! - [`Span`]: an RAII wall-clock timer feeding a histogram, plus
//!   [`SpanRecorder`]/[`SpanTree`] for the `dlk run --trace` span tree.
//! - [`TimeSeries`] / [`Sampler`]: the temporal layer — a
//!   fixed-capacity ring of timestamped samples with windowed
//!   `rate()`/`mean()`, filled by snapshotting a registry on a
//!   caller-driven tick (histogram deltas absorbed per tick), so
//!   "what happened over the last N seconds" costs O(capacity) no
//!   matter how long the daemon runs. `dlk serve` heartbeats and
//!   `dlk top` render these.
//! - [`Registry`]: a clonable name → metric table with plain-text and
//!   schema-v2 JSON exposition ([`Registry::write_json`] is atomic,
//!   tmp + rename, the same discipline as the serve daemon's
//!   `results.csv`).
//! - [`json`]: the shared hand-written JSON writer/validator used by
//!   both registry dumps (`metrics.json`) and the `BENCH_*.json`
//!   snapshot trajectory in `dlk-bench`.
//!
//! The crate depends on `std` only, by construction: every other crate
//! in the workspace (including `dlk-memctrl` underneath the uISA hot
//! path) can pull it in without dragging anything else along.

#![allow(
    clippy::disallowed_types,
    reason = "this crate measures wall time by design; clippy.toml bans the clock elsewhere (DLK003)"
)]

pub mod hist;
pub mod json;
pub mod metric;
pub mod registry;
pub mod series;
pub mod span;

pub use hist::{Histogram, HistogramSnapshot, LocalHistogram, Span};
pub use metric::{Counter, Gauge};
pub use registry::{Metric, Registry};
pub use series::{Sample, Sampler, TimeSeries};
pub use span::{SpanId, SpanRecorder, SpanTree};

#[cfg(test)]
mod tests {
    use std::fs;
    use std::path::Path;

    /// DLK002: every atomic in this crate is `Relaxed`. Its counters are
    /// monotonic and share no invariant across cells, so a stronger
    /// ordering buys nothing and costs the memory controller's service
    /// path, which records into them on every request.
    #[test]
    fn atomics_are_relaxed_only() {
        // The crate's sources are one flat directory: a subdirectory
        // fails the read below instead of going unchecked.
        for entry in fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("src")).unwrap() {
            let path = entry.unwrap().path();
            let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            for order in ["Acquire", "Release", "AcqRel", "SeqCst"] {
                let stronger = format!("Ordering::{order}");
                assert!(!text.contains(&stronger), "{}: {stronger}", path.display());
            }
        }
    }
}
