//! Controller observability: per-[`RequestKind`] latency histograms
//! and outcome counters — the controller's one recorder, from which
//! [`ControllerStats`](crate::ControllerStats) is derived.
//!
//! [`CtrlMetrics`] is a plain local recorder, not a bundle of shared
//! atomics: the servicing hot path runs under `&mut self`, so every
//! record is a non-atomic add ([`dlk_obs::LocalHistogram`] plus bare
//! `u64` counters) — measurably free even at millions of requests per
//! second, where per-request lock-prefixed RMWs cost ~10% of service
//! throughput. Nothing is shared until
//! [`CtrlMetrics::export_into`] folds the deltas recorded since the
//! last export into a `dlk-obs` registry; exports from many shards
//! land on the same `<prefix>.*` names, which is how a multi-channel
//! engine aggregates into one fleet-wide view. Delta-based export
//! means calling it repeatedly (per drain, per run, per scan) never
//! double-counts.

use dlk_obs::{LocalHistogram, Registry};

use crate::request::RequestKind;

/// Everything a controller records, locally and lock-free.
#[derive(Debug, Clone, Default)]
pub struct CtrlMetrics {
    /// Per-kind service latency in simulated cycles (served requests
    /// and denied requests both record — a denial's check latency is
    /// part of the service distribution, as in the paper's skipped
    /// instructions).
    pub latency_cycles: [LocalHistogram; RequestKind::COUNT],
    /// Requests served against DRAM, per kind (indexed by
    /// [`RequestKind::index`]).
    pub served: [u64; RequestKind::COUNT],
    /// Requests denied by the defense hook.
    pub denied: u64,
    /// Requests redirected by the defense hook.
    pub redirected: u64,
    /// Untrusted requests rejected by OS page protection.
    pub os_faults: u64,
    /// Counter values at the last export, in the order
    /// served/denied/redirected/os_faults.
    exported: [u64; 4],
}

impl CtrlMetrics {
    /// A fresh, empty recorder (what a new controller owns).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completed request of `kind` with `latency` cycles.
    #[inline]
    pub fn record_latency(&mut self, kind: RequestKind, latency: u64) {
        self.latency_cycles[kind.index()].record(latency);
    }

    /// Folds everything recorded since the last export into `registry`
    /// under `<prefix>.latency_cycles.<kind>`, `<prefix>.served`,
    /// `<prefix>.denied`, `<prefix>.redirected` and
    /// `<prefix>.os_faults`. Safe to call repeatedly — only deltas are
    /// added, and shards exporting to the same prefix aggregate.
    pub fn export_into(&mut self, registry: &Registry, prefix: &str) {
        for (at, kind) in RequestKind::ALL.iter().enumerate() {
            registry
                .histogram(&format!("{prefix}.latency_cycles.{}", kind.token()))
                .absorb(&mut self.latency_cycles[at]);
        }
        let counters = [
            ("served", self.served.iter().sum()),
            ("denied", self.denied),
            ("redirected", self.redirected),
            ("os_faults", self.os_faults),
        ];
        for (at, (name, value)) in counters.into_iter().enumerate() {
            let delta = value - self.exported[at];
            if delta != 0 {
                registry.counter(&format!("{prefix}.{name}")).add(delta);
                self.exported[at] = value;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_is_delta_based_and_aggregates_across_recorders() {
        let registry = Registry::new();
        let mut a = CtrlMetrics::new();
        let mut b = CtrlMetrics::new();
        a.served[RequestKind::Read.index()] += 2;
        a.record_latency(RequestKind::Read, 10);
        b.denied += 1;
        b.record_latency(RequestKind::Read, 30);

        a.export_into(&registry, "memctrl");
        b.export_into(&registry, "memctrl");
        assert_eq!(registry.counter("memctrl.served").get(), 2);
        assert_eq!(registry.counter("memctrl.denied").get(), 1);
        assert_eq!(registry.histogram("memctrl.latency_cycles.read").count(), 2);

        // Re-exporting with nothing new must not double-count.
        a.export_into(&registry, "memctrl");
        assert_eq!(registry.counter("memctrl.served").get(), 2);
        assert_eq!(registry.histogram("memctrl.latency_cycles.read").count(), 2);

        a.served[RequestKind::Write.index()] += 1;
        a.export_into(&registry, "memctrl");
        assert_eq!(registry.counter("memctrl.served").get(), 3);
    }

    #[test]
    fn kind_order_matches_index_order() {
        for (at, kind) in RequestKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), at);
        }
    }
}
