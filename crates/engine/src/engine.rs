//! The sharded multi-channel execution engine.

use std::sync::Arc;

use dlk_dram::DramStats;
use dlk_memctrl::{CompletedRequest, ControllerStats, MemCtrlConfig, MemRequest, MemoryController};
use dlk_obs::{Counter, Histogram, Registry};

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::replay::ReplaySource;
use crate::route::ChannelRouter;
use crate::shard::ChannelShard;

/// Completions drained from every shard, kept per channel so the merge
/// order is explicit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DrainOutcome {
    /// Each channel's completions in its own scheduling order, indexed
    /// by channel id.
    pub per_channel: Vec<Vec<CompletedRequest>>,
}

impl DrainOutcome {
    /// All completions concatenated in channel-id order — the
    /// deterministic merged view.
    pub fn merged(&self) -> Vec<CompletedRequest> {
        self.per_channel.iter().flatten().cloned().collect()
    }

    /// Total completions across channels.
    pub fn len(&self) -> usize {
        self.per_channel.iter().map(Vec::len).sum()
    }

    /// `true` when no shard completed anything.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Completions the defense denied, across channels.
    pub fn denied(&self) -> u64 {
        self.per_channel.iter().flatten().filter(|done| done.denied).count() as u64
    }
}

/// A deterministic, mergeable snapshot of the whole engine's state —
/// per-channel controller statistics plus device-level cost and flip
/// outcomes, merged in channel-id order.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot {
    /// Channel count.
    pub channels: usize,
    /// Controller statistics merged across channels.
    pub controller: ControllerStats,
    /// Each channel's controller statistics, indexed by channel id.
    pub per_channel: Vec<ControllerStats>,
    /// Wall-clock device cycles: the maximum over channels (channels
    /// run concurrently in hardware).
    pub cycles: u64,
    /// Total DRAM energy in picojoules, summed in channel order.
    pub energy_pj: f64,
    /// Total disturbance events across channels.
    pub disturbances: u64,
    /// Total bit flips across channels.
    pub bit_flips: u64,
}

/// Engine-level observability handles: wall time per shard drain and
/// per merge. The engine always owns a bundle (private by default) so
/// the drain path records unconditionally; [`ShardedEngine::observe`]
/// swaps in registry-backed handles. The drain path is not hot —
/// a handful of samples per run — so shared atomics are fine here,
/// unlike the controller's per-request `CtrlMetrics`, which records
/// locally and exports deltas.
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    /// Wall nanoseconds one shard spent draining its queue (one sample
    /// per shard per drain — the per-channel step-time distribution).
    pub drain_wall_ns: Arc<Histogram>,
    /// Wall nanoseconds spent assembling the channel-ordered merge of
    /// a drain's completions.
    pub merge_wall_ns: Arc<Histogram>,
    /// Shard drains performed.
    pub drains: Arc<Counter>,
}

impl EngineMetrics {
    /// A private, unregistered bundle.
    pub fn unregistered() -> Self {
        Self {
            drain_wall_ns: Arc::new(Histogram::new()),
            merge_wall_ns: Arc::new(Histogram::new()),
            drains: Arc::new(Counter::new()),
        }
    }

    /// A bundle registered in `registry` under `<prefix>.*`.
    pub fn registered(registry: &Registry, prefix: &str) -> Self {
        Self {
            drain_wall_ns: registry.histogram(&format!("{prefix}.drain_wall_ns")),
            merge_wall_ns: registry.histogram(&format!("{prefix}.merge_wall_ns")),
            drains: registry.counter(&format!("{prefix}.drains")),
        }
    }
}

impl Default for EngineMetrics {
    fn default() -> Self {
        Self::unregistered()
    }
}

/// The sharded multi-channel execution engine: one [`ChannelShard`] per
/// DRAM channel, a [`ChannelRouter`] in front, and a deterministic
/// merge behind.
///
/// Global requests are routed to their home shard, shards are stepped
/// either serially in channel order or in parallel on scoped threads
/// (per [`EngineConfig`]), and every observable result — completions,
/// statistics, errors — is merged in channel-id order, so a parallel
/// run is bit-identical to its serial reference.
///
/// # Example
///
/// ```
/// use dlk_engine::{EngineConfig, ShardedEngine};
/// use dlk_memctrl::{MemCtrlConfig, MemRequest};
///
/// # fn main() -> Result<(), dlk_engine::EngineError> {
/// let mut engine = ShardedEngine::new(EngineConfig::sharded(2), MemCtrlConfig::tiny_for_tests())?;
/// engine.submit(MemRequest::write(0, vec![42]));
/// engine.submit(MemRequest::read(0, 1));
/// let outcome = engine.run_to_completion()?;
/// assert_eq!(outcome.merged()[1].data.as_deref(), Some(&[42u8][..]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedEngine {
    config: EngineConfig,
    router: ChannelRouter,
    shards: Vec<ChannelShard>,
    metrics: EngineMetrics,
    obs: Option<Registry>,
}

impl ShardedEngine {
    /// Creates an engine whose shards are identical controllers built
    /// from `ctrl_config` (one per-channel device each).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NoChannels`] for a zero channel count.
    pub fn new(config: EngineConfig, ctrl_config: MemCtrlConfig) -> Result<Self, EngineError> {
        Self::with_controllers(config, |_| MemoryController::new(ctrl_config))
    }

    /// Creates an engine from per-channel controllers (differently
    /// configured hooks are fine; geometry and mapping must match).
    /// The router is derived from channel 0's mapper.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NoChannels`] for a zero channel count and
    /// [`EngineError::GeometryMismatch`] when a controller's geometry
    /// or mapping scheme differs from channel 0's (the router's
    /// interleave math would silently misroute otherwise).
    pub fn with_controllers(
        config: EngineConfig,
        mut make: impl FnMut(usize) -> MemoryController,
    ) -> Result<Self, EngineError> {
        if config.channels == 0 {
            return Err(EngineError::NoChannels);
        }
        let shards: Vec<ChannelShard> =
            (0..config.channels).map(|channel| ChannelShard::new(channel, make(channel))).collect();
        let reference = shards[0].controller().mapper();
        if let Some(shard) = shards.iter().find(|shard| shard.controller().mapper() != reference) {
            return Err(EngineError::GeometryMismatch { channel: shard.channel() });
        }
        let router = ChannelRouter::new(config.channels, shards[0].controller().mapper());
        Ok(Self { config, router, shards, metrics: EngineMetrics::unregistered(), obs: None })
    }

    /// Wires the engine into a shared observability registry: engine
    /// drain/merge timings register under `engine.*`, and from now on
    /// every drain exports each shard controller's locally recorded
    /// metrics into the shared `memctrl.*` names (deltas only, so
    /// per-channel activity aggregates into a single fleet-wide view
    /// without touching the controllers' hot path). Controller metrics
    /// recorded before this call are included in the first export.
    pub fn observe(&mut self, registry: &Registry) {
        self.metrics = EngineMetrics::registered(registry, "engine");
        self.obs = Some(registry.clone());
        self.export_obs();
    }

    /// Folds every shard controller's locally recorded metrics into
    /// the observed registry under `memctrl.*`. Delta-based — safe to
    /// call at any boundary, and a no-op when [`Self::observe`] was
    /// never called. [`Self::run_to_completion`] calls this after each
    /// drain, so callers stepping controllers directly (per-request
    /// drivers) are the only ones who need it explicitly.
    pub fn export_obs(&mut self) {
        if let Some(registry) = self.obs.clone() {
            for shard in &mut self.shards {
                shard.controller_mut().export_obs(&registry, "memctrl");
            }
        }
    }

    /// The engine-level metrics bundle.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// The engine configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// The global-address router.
    pub fn router(&self) -> &ChannelRouter {
        &self.router
    }

    /// Number of channel shards.
    pub fn channels(&self) -> usize {
        self.shards.len()
    }

    /// All shards, in channel order.
    pub fn shards(&self) -> &[ChannelShard] {
        &self.shards
    }

    /// One shard by channel id.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn shard(&self, channel: usize) -> &ChannelShard {
        &self.shards[channel]
    }

    /// Mutable access to one shard by channel id.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn shard_mut(&mut self, channel: usize) -> &mut ChannelShard {
        &mut self.shards[channel]
    }

    /// Channel 0's shard — the home of every single-channel scenario.
    pub fn primary(&self) -> &ChannelShard {
        &self.shards[0]
    }

    /// Mutable access to channel 0's shard.
    pub fn primary_mut(&mut self) -> &mut ChannelShard {
        &mut self.shards[0]
    }

    /// Total queued requests across shards.
    pub fn pending(&self) -> usize {
        self.shards.iter().map(ChannelShard::pending).sum()
    }

    /// Routes a global request to its home shard's queue and returns
    /// the channel it landed on.
    pub fn submit(&mut self, request: MemRequest) -> usize {
        let (channel, request) = self.route(request);
        self.shards[channel].submit(request);
        channel
    }

    /// Routes and serves one global request immediately, bypassing the
    /// queues.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Shard`] tagged with the home channel.
    pub fn service(&mut self, request: MemRequest) -> Result<CompletedRequest, EngineError> {
        let (channel, request) = self.route(request);
        self.shards[channel].service(request)
    }

    fn route(&self, mut request: MemRequest) -> (usize, MemRequest) {
        let (channel, local) = self.router.to_local(request.addr);
        request.addr = local;
        (channel, request)
    }

    /// Drains every shard's queue — on scoped threads when the
    /// configuration says `parallel`, in channel order otherwise. Both
    /// modes drain *all* shards and report the lowest failing channel,
    /// so results (and errors) are independent of the stepping mode.
    ///
    /// # Errors
    ///
    /// Returns the first failing channel's error (by channel id).
    pub fn run_to_completion(&mut self) -> Result<DrainOutcome, EngineError> {
        let metrics = &self.metrics;
        let drain_timed = |shard: &mut ChannelShard| {
            let span = metrics.drain_wall_ns.span();
            let result = shard.drain();
            span.finish();
            metrics.drains.inc();
            result
        };
        let results: Vec<Result<Vec<CompletedRequest>, EngineError>> =
            if self.config.parallel && self.shards.len() > 1 {
                let drain_timed = &drain_timed;
                std::thread::scope(|scope| {
                    let handles: Vec<_> = self
                        .shards
                        .iter_mut()
                        .map(|shard| scope.spawn(move || drain_timed(shard)))
                        .collect();
                    // Joining in spawn order keeps the result vector in
                    // channel order regardless of completion order.
                    handles
                        .into_iter()
                        .map(|handle| handle.join().expect("shard thread panicked"))
                        .collect()
                })
            } else {
                self.shards.iter_mut().map(drain_timed).collect()
            };
        let merge_span = self.metrics.merge_wall_ns.span();
        let mut outcome = DrainOutcome { per_channel: Vec::with_capacity(results.len()) };
        let mut first_error = None;
        for result in results {
            match result {
                Ok(completions) => outcome.per_channel.push(completions),
                Err(err) => {
                    if first_error.is_none() {
                        first_error = Some(err);
                    }
                    outcome.per_channel.push(Vec::new());
                }
            }
        }
        merge_span.finish();
        self.export_obs();
        match first_error {
            Some(err) => Err(err),
            None => Ok(outcome),
        }
    }

    /// Feeds a replay source through the router (global addresses) and
    /// drains all shards. Routing is a cheap serial pass; execution
    /// follows the configured stepping mode.
    ///
    /// # Errors
    ///
    /// Returns the first failing channel's error (by channel id).
    pub fn replay(&mut self, mut source: impl ReplaySource) -> Result<DrainOutcome, EngineError> {
        while let Some(request) = source.next_request() {
            self.submit(request);
        }
        self.run_to_completion()
    }

    /// A deterministic snapshot of statistics, costs and flip outcomes,
    /// merged in channel-id order.
    pub fn snapshot(&self) -> EngineSnapshot {
        let per_channel: Vec<ControllerStats> =
            self.shards.iter().map(ChannelShard::stats).collect();
        let mut controller = ControllerStats::default();
        for stats in &per_channel {
            controller.merge(stats);
        }
        let mut dram = DramStats::new();
        for shard in &self.shards {
            dram.merge(shard.controller().dram().stats());
        }
        EngineSnapshot {
            channels: self.shards.len(),
            controller,
            per_channel,
            cycles: dram.cycles,
            energy_pj: dram.energy_pj,
            disturbances: dram.disturbances,
            bit_flips: dram.bit_flips,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::TraceReplay;
    use dlk_memctrl::Trace;

    fn tiny_engine(config: EngineConfig) -> ShardedEngine {
        ShardedEngine::new(config, MemCtrlConfig::tiny_for_tests()).unwrap()
    }

    #[test]
    fn zero_channels_rejected() {
        let config = EngineConfig { channels: 0, parallel: false };
        assert_eq!(
            ShardedEngine::new(config, MemCtrlConfig::tiny_for_tests()).unwrap_err(),
            EngineError::NoChannels
        );
    }

    #[test]
    fn heterogeneous_shard_geometries_rejected() {
        let err = ShardedEngine::with_controllers(EngineConfig::sharded(3), |channel| {
            let config = if channel == 2 {
                MemCtrlConfig::default() // larger geometry than the others
            } else {
                MemCtrlConfig::tiny_for_tests()
            };
            MemoryController::new(config)
        })
        .unwrap_err();
        assert_eq!(err, EngineError::GeometryMismatch { channel: 2 });
    }

    #[test]
    fn single_channel_engine_matches_bare_controller() {
        let mut ctrl = MemoryController::new(MemCtrlConfig::tiny_for_tests());
        let mut engine = tiny_engine(EngineConfig::serial());
        for target in [0u64, 64, 130, 7] {
            ctrl.submit(MemRequest::write(target, vec![target as u8]));
            engine.submit(MemRequest::write(target, vec![target as u8]));
            ctrl.submit(MemRequest::read(target, 1));
            engine.submit(MemRequest::read(target, 1));
        }
        let reference: Vec<_> =
            ctrl.run_to_completion().unwrap().into_iter().map(|c| (c.denied, c.data)).collect();
        let sharded: Vec<_> = engine
            .run_to_completion()
            .unwrap()
            .merged()
            .into_iter()
            .map(|c| (c.denied, c.data))
            .collect();
        assert_eq!(reference, sharded);
        assert_eq!(ctrl.stats(), engine.snapshot().controller);
        assert_eq!(ctrl.dram().stats().cycles, engine.snapshot().cycles);
    }

    #[test]
    fn routed_write_read_roundtrips_on_every_channel() {
        let mut engine = tiny_engine(EngineConfig::sharded(4));
        let row_bytes = engine.primary().controller().geometry().row_bytes as u64;
        for row in 0..8u64 {
            let addr = row * row_bytes + 3;
            engine.submit(MemRequest::write(addr, vec![row as u8 + 1]));
        }
        engine.run_to_completion().unwrap();
        for row in 0..8u64 {
            let addr = row * row_bytes + 3;
            let done = engine.service(MemRequest::read(addr, 1)).unwrap();
            assert_eq!(done.data.as_deref(), Some(&[row as u8 + 1][..]));
        }
        // Row-interleaving spread the writes over all four shards.
        for shard in engine.shards() {
            assert_eq!(shard.stats().writes, 2, "channel {}", shard.channel());
        }
    }

    /// Everything observable about a completion except the request id,
    /// which is allocated from a process-global counter and therefore
    /// differs between two engine instances replaying the same trace.
    fn observable(done: &CompletedRequest) -> (u64, bool, bool, u64, Option<Vec<u8>>) {
        (done.request.addr, done.request.untrusted, done.denied, done.latency, done.data.clone())
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial_reference() {
        let trace = Trace::random_reads(4 * 64 * 64, 1, 400, 99);
        let run = |config: EngineConfig| {
            let mut engine = tiny_engine(config);
            let outcome = engine.replay(TraceReplay::new(&trace)).unwrap();
            let merged: Vec<_> = outcome.merged().iter().map(observable).collect();
            (merged, engine.snapshot())
        };
        let (serial_outcome, serial_snap) = run(EngineConfig::serial_reference(4));
        let (parallel_outcome, parallel_snap) = run(EngineConfig::sharded(4));
        assert_eq!(serial_outcome, parallel_outcome);
        assert_eq!(serial_snap, parallel_snap);
        assert!(parallel_snap.controller.served > 0);
        assert!(parallel_snap.per_channel.iter().all(|s| s.served > 0), "all channels busy");
    }

    #[test]
    fn shard_error_reports_lowest_channel_in_both_modes() {
        for config in [EngineConfig::serial_reference(2), EngineConfig::sharded(2)] {
            let mut engine = tiny_engine(config);
            let capacity = engine.router().capacity();
            // Unmappable addresses routed to both channels; the error
            // from channel 0 wins in either stepping mode.
            engine.submit(MemRequest::read(capacity + 64, 1)); // channel 1
            engine.submit(MemRequest::read(capacity, 1)); // channel 0
            let err = engine.run_to_completion().unwrap_err();
            assert!(matches!(err, EngineError::Shard { channel: 0, .. }), "{err:?}");
        }
    }

    #[test]
    fn observe_aggregates_all_shards_into_one_registry() {
        let registry = Registry::new();
        let mut engine = tiny_engine(EngineConfig::sharded(4));
        engine.observe(&registry);
        let row_bytes = engine.primary().controller().geometry().row_bytes as u64;
        for row in 0..8u64 {
            engine.submit(MemRequest::write(row * row_bytes, vec![1]));
        }
        engine.run_to_completion().unwrap();
        // All four channels' serves land in the one shared counter.
        assert_eq!(registry.counter("memctrl.served").get(), 8);
        assert_eq!(registry.histogram("memctrl.latency_cycles.write").count(), 8);
        // One drain per shard, one merge for the run.
        assert_eq!(registry.counter("engine.drains").get(), 4);
        assert_eq!(registry.histogram("engine.drain_wall_ns").count(), 4);
        assert_eq!(registry.histogram("engine.merge_wall_ns").count(), 1);
    }

    /// Each controller records every counter once, so the shards'
    /// exports into one prefix and the snapshot's merged stats agree.
    #[test]
    fn shard_exports_equal_the_snapshot_controller_stats() {
        let registry = Registry::new();
        let mut engine = tiny_engine(EngineConfig::sharded(2));
        engine.observe(&registry);
        let row_bytes = engine.primary().controller().geometry().row_bytes as u64;
        for channel in 0..2 {
            engine.shard_mut(channel).controller_mut().os_protect_range(0, 2 * row_bytes);
        }
        for row in 0..8u64 {
            engine.submit(MemRequest::write(row * row_bytes + 5, vec![row as u8]));
            engine.submit(MemRequest::read(row * row_bytes + 5, 1).untrusted());
        }
        engine.run_to_completion().unwrap();

        let stats = engine.snapshot().controller;
        let counter = |name: &str| registry.counter(&format!("memctrl.{name}")).get();
        assert_eq!(
            (stats.served, stats.denied, stats.redirected, stats.os_faults),
            (counter("served"), counter("denied"), counter("redirected"), counter("os_faults"))
        );
        let latency = |kind: &str| registry.histogram(&format!("memctrl.latency_cycles.{kind}"));
        assert_eq!(stats.total_latency, latency("read").sum() + latency("write").sum());
        assert!(stats.os_faults > 0 && stats.reads > 0 && stats.writes == 8, "{stats:?}");
    }

    #[test]
    fn empty_replay_snapshot_is_all_zero() {
        let mut engine = tiny_engine(EngineConfig::sharded(2));
        let outcome = engine.replay(TraceReplay::new(&Trace::new())).unwrap();
        assert!(outcome.is_empty());
        let snapshot = engine.snapshot();
        assert_eq!(snapshot.controller.mean_latency(), 0.0);
        assert_eq!(snapshot.controller.denial_rate(), 0.0);
        assert_eq!(snapshot.cycles, 0);
    }
}
