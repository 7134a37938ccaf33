//! The sharded multi-channel execution engine.

use std::sync::Arc;

use dlk_dram::DramStats;
use dlk_memctrl::{
    pool, CompletedRequest, ControllerStats, MemCtrlConfig, MemRequest, MemoryController, Trace,
};
use dlk_obs::{Counter, Histogram, Registry};

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::route::ChannelRouter;
use crate::shard::ChannelShard;

/// What a [`ShardedEngine::replay`] did, summed over shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayCounts {
    /// Ops completed, served or denied.
    pub requests: u64,
    /// Ops denied, by OS page protection or by the defense.
    pub denied: u64,
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

/// Engine-level observability handles: wall time per shard replay and
/// per merge. The engine always owns a bundle (private by default) so
/// [`ShardedEngine::replay`] records unconditionally;
/// [`ShardedEngine::observe`] swaps in registry-backed handles. These
/// record a handful of samples per replay, so shared atomics are fine
/// here, unlike the controller's per-request `CtrlMetrics`, which
/// records locally and exports deltas.
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    /// Wall nanoseconds one shard spent serving its share of a replay
    /// (one sample per shard per replay — the per-channel step-time
    /// distribution).
    pub drain_wall_ns: Arc<Histogram>,
    /// Wall nanoseconds spent merging a replay's per-shard counts and
    /// errors in channel order.
    pub merge_wall_ns: Arc<Histogram>,
    /// Shard replays performed.
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
/// either serially in channel order or in parallel over the process's
/// worker [`pool`] (per [`EngineConfig`]), and every observable result
/// — counts, statistics, errors — is merged in channel-id order, so a
/// parallel run is bit-identical to its serial reference.
///
/// # Example
///
/// ```
/// use dlk_engine::{EngineConfig, ShardedEngine};
/// use dlk_memctrl::{MemCtrlConfig, MemRequest, Trace, TraceOp};
///
/// # fn main() -> Result<(), dlk_engine::EngineError> {
/// let mut engine = ShardedEngine::new(EngineConfig::sharded(2), MemCtrlConfig::tiny_for_tests())?;
/// let trace: Trace = [TraceOp::Write { addr: 0, payload: vec![42] }].into_iter().collect();
/// assert_eq!(engine.replay(&trace)?.requests, 1);
/// let done = engine.service(MemRequest::read(0, 1))?;
/// assert_eq!(done.data.as_deref(), Some(&[42u8][..]));
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
    /// configured hooks are fine; geometry and mapping must match). The
    /// router is derived from channel 0's mapper.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NoChannels`] for a zero channel count and
    /// [`EngineError::GeometryMismatch`] when a controller's geometry
    /// differs from channel 0's (the router's interleave math would
    /// silently misroute otherwise).
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
    /// replay/merge timings register under `engine.*`, and from now on
    /// every replay exports each shard controller's locally recorded
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
    /// never called. [`Self::replay`] calls this after each replay, so
    /// callers serving requests on controllers directly (per-request
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

    /// Routes and serves one global request immediately.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Shard`] tagged with the home channel.
    pub fn service(&mut self, mut request: MemRequest) -> Result<CompletedRequest, EngineError> {
        let (channel, local) = self.router.to_local(request.addr);
        request.addr = local;
        self.shards[channel].service(request)
    }

    /// Replays a global-address trace: every shard serves the ops
    /// routed to it, in trace order — dealt over the process's worker
    /// [`pool`] when the configuration says `parallel`, in channel
    /// order on the caller's thread otherwise. Both modes serve *all*
    /// shards and report the lowest failing channel, so results (and
    /// errors) are independent of the stepping mode.
    ///
    /// # Errors
    ///
    /// Returns the first failing channel's error (by channel id); a
    /// failing shard stops at its failing op.
    pub fn replay(&mut self, trace: &Trace) -> Result<ReplayCounts, EngineError> {
        let (metrics, router) = (&self.metrics, &self.router);
        let replay_timed = |shard: &mut ChannelShard| {
            let span = metrics.drain_wall_ns.span();
            let result = shard.replay(trace, router);
            span.finish();
            metrics.drains.inc();
            result
        };
        let results: Vec<Result<ReplayCounts, EngineError>> = if self.config.parallel {
            // The shards are the jobs; results come back in channel order.
            let workers = self.shards.len();
            pool::deal(
                self.shards.iter_mut().collect(),
                workers,
                || (),
                |(), shard| replay_timed(shard),
            )
        } else {
            self.shards.iter_mut().map(replay_timed).collect()
        };
        let merge_span = self.metrics.merge_wall_ns.span();
        let mut total = ReplayCounts::default();
        let mut first_error = None;
        for result in results {
            match result {
                Ok(counts) => {
                    total.requests += counts.requests;
                    total.denied += counts.denied;
                }
                Err(err) => {
                    first_error.get_or_insert(err);
                }
            }
        }
        merge_span.finish();
        self.export_obs();
        first_error.map_or(Ok(total), Err)
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
    use dlk_memctrl::TraceOp;

    fn tiny_engine(config: EngineConfig) -> ShardedEngine {
        ShardedEngine::new(config, MemCtrlConfig::tiny_for_tests()).unwrap()
    }

    /// One write of `row + 1` at byte 3 of each of the first `rows`
    /// global rows.
    fn row_writes(engine: &ShardedEngine, rows: u64) -> Trace {
        let row_bytes = engine.primary().controller().geometry().row_bytes as u64;
        (0..rows)
            .map(|row| TraceOp::Write { addr: row * row_bytes + 3, payload: vec![row as u8 + 1] })
            .collect()
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
        let mut trace = row_writes(&engine, 4);
        let reads: Vec<_> =
            trace.ops().iter().map(|op| TraceOp::Read { addr: op.addr(), len: 1 }).collect();
        trace.extend(reads);
        let mut denied = 0;
        for request in trace.requests() {
            denied += u64::from(ctrl.service(request).unwrap().denied);
        }
        let counts = engine.replay(&trace).unwrap();
        assert_eq!(counts, ReplayCounts { requests: 8, denied });
        assert_eq!(ctrl.stats(), engine.snapshot().controller);
        assert_eq!(ctrl.dram().stats(), engine.primary().controller().dram().stats());
    }

    #[test]
    fn routed_write_read_roundtrips_on_every_channel() {
        let mut engine = tiny_engine(EngineConfig::sharded(4));
        let row_bytes = engine.primary().controller().geometry().row_bytes as u64;
        engine.replay(&row_writes(&engine, 8)).unwrap();
        for row in 0..8u64 {
            let done = engine.service(MemRequest::read(row * row_bytes + 3, 1)).unwrap();
            assert_eq!(done.data.as_deref(), Some(&[row as u8 + 1][..]));
        }
        // Row-interleaving spread the writes over all four shards.
        for shard in engine.shards() {
            assert_eq!(shard.stats().writes, 2, "channel {}", shard.channel());
        }
    }

    #[test]
    fn shard_error_reports_lowest_channel_in_both_modes() {
        for config in [EngineConfig::serial_reference(2), EngineConfig::sharded(2)] {
            let mut engine = tiny_engine(config);
            let capacity = engine.router().capacity();
            // Unmappable addresses routed to both channels; the error
            // from channel 0 wins in either stepping mode.
            let trace: Trace = [capacity + 64, capacity]
                .into_iter()
                .map(|addr| TraceOp::Read { addr, len: 1 })
                .collect();
            let err = engine.replay(&trace).unwrap_err();
            assert!(matches!(err, EngineError::Shard { channel: 0, .. }), "{err:?}");
        }
    }

    #[test]
    fn observe_aggregates_all_shards_into_one_registry() {
        let registry = Registry::new();
        let mut engine = tiny_engine(EngineConfig::sharded(4));
        engine.observe(&registry);
        engine.replay(&row_writes(&engine, 8)).unwrap();
        // All four channels' serves land in the one shared counter.
        assert_eq!(registry.counter("memctrl.served").get(), 8);
        assert_eq!(registry.histogram("memctrl.latency_cycles.write").count(), 8);
        // One sample per shard, one merge for the replay.
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
        let writes = row_writes(&engine, 8);
        let mut reads: Trace =
            writes.ops().iter().map(|op| TraceOp::Read { addr: op.addr(), len: 1 }).collect();
        reads.untrusted = true;
        engine.replay(&writes).unwrap();
        let counts = engine.replay(&reads).unwrap();

        let stats = engine.snapshot().controller;
        assert_eq!(counts.denied, stats.os_faults);
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
        assert_eq!(engine.replay(&Trace::new()).unwrap(), ReplayCounts::default());
        let snapshot = engine.snapshot();
        assert_eq!(snapshot.controller.mean_latency(), 0.0);
        assert_eq!(snapshot.controller.denial_rate(), 0.0);
        assert_eq!(snapshot.cycles, 0);
    }
}
