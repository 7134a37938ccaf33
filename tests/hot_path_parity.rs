//! Parity pins for trace replay: `ShardedEngine::replay`, which streams
//! each op to its home shard (on threads when sharded), must leave
//! every shard exactly as routing each op by hand and calling the
//! controller's one servicing path, `service`, in trace order does.

use dram_locker::dram::RowId;
use dram_locker::engine::{ChannelRouter, EngineConfig, EngineError, ReplayCounts, ShardedEngine};
use dram_locker::locker::{DramLocker, LockerConfig};
use dram_locker::memctrl::{MemCtrlConfig, MemoryController, Trace, TraceOp};

/// Deterministic xorshift for the trace mix.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Builds a controller with an OS-protected range and a DRAM-Locker
/// hook with a few locked rows, so the mix exercises every completion
/// flavour (served, os-faulted, denied).
fn controller_under_test() -> MemoryController {
    let config = MemCtrlConfig::tiny_for_tests();
    let row_bytes = config.dram.geometry.row_bytes as u64;
    let mut locker = DramLocker::new(LockerConfig::default(), config.dram.geometry);
    locker.lock_phys_range(3 * row_bytes, 16 * row_bytes).expect("lock rows 3..16");
    let mut ctrl = MemoryController::with_hook(config, Box::new(locker));
    ctrl.os_protect_range(32 * row_bytes, 64 * row_bytes);
    ctrl
}

/// Seeded traces over `rows` global rows, each a run of 1–40 reads and
/// writes sharing one trust level: untrusted runs hit the OS-protected
/// range (→ os_faults) and locked rows (→ denials), trusted runs hit
/// locked rows (→ SWAP redirects).
fn trace_mix(seed: u64, traces: usize, row_bytes: u64, rows: u64) -> Vec<Trace> {
    let mut rng = Rng(seed | 1);
    (0..traces)
        .map(|_| {
            let ops = 1 + rng.next() % 40;
            let mut trace: Trace = (0..ops)
                .map(|_| {
                    let addr = (rng.next() % rows) * row_bytes + rng.next() % (row_bytes - 8);
                    let len = 1 + (rng.next() % 8) as usize;
                    if rng.next().is_multiple_of(4) {
                        TraceOp::Write { addr, payload: vec![(rng.next() & 0xFF) as u8; len] }
                    } else {
                        TraceOp::Read { addr, len }
                    }
                })
                .collect();
            trace.untrusted = rng.next().is_multiple_of(3);
            trace
        })
        .collect()
}

/// `controller_under_test` on every channel of a `config`-shaped engine.
fn engine_under_test(config: EngineConfig) -> ShardedEngine {
    ShardedEngine::with_controllers(config, |_| controller_under_test()).expect("uniform shards")
}

/// The by-hand reference for one engine: per-channel controllers, each
/// serving the ops of a trace routed to it, in trace order, until its
/// first error.
struct Reference {
    router: ChannelRouter,
    shards: Vec<MemoryController>,
    counts: ReplayCounts,
}

impl Reference {
    fn new(engine: &ShardedEngine) -> Self {
        let channels = engine.channels();
        Self {
            router: *engine.router(),
            shards: (0..channels).map(|_| controller_under_test()).collect(),
            counts: ReplayCounts::default(),
        }
    }

    /// Serves `trace`; returns the lowest channel that failed on it.
    fn serve(&mut self, trace: &Trace) -> Option<usize> {
        let mut failed = vec![false; self.shards.len()];
        for op in trace.ops() {
            let (channel, local) = self.router.to_local(op.addr());
            if failed[channel] {
                continue;
            }
            match self.shards[channel].service(op.request(local, trace.untrusted)) {
                Ok(done) => {
                    self.counts.requests += 1;
                    self.counts.denied += u64::from(done.denied);
                }
                Err(_) => failed[channel] = true,
            }
        }
        failed.iter().position(|&failed| failed)
    }

    /// Asserts every shard of `engine` equals its reference controller:
    /// statistics, device statistics, clock and every row's bytes.
    fn assert_matches(&self, engine: &ShardedEngine, context: &str) {
        for (channel, reference) in self.shards.iter().enumerate() {
            let shard = engine.shard(channel).controller();
            let context = format!("{context}, channel {channel}");
            assert_eq!(shard.stats(), reference.stats(), "controller stats, {context}");
            assert_eq!(shard.dram().stats(), reference.dram().stats(), "dram stats, {context}");
            assert_eq!(shard.dram().now(), reference.dram().now(), "clock, {context}");
            let geometry = shard.geometry();
            for id in 0..geometry.total_rows() {
                let row = geometry.row_addr(RowId(id)).expect("id in range");
                assert_eq!(
                    shard.dram().read_row(row).expect("valid row"),
                    reference.dram().read_row(row).expect("valid row"),
                    "row {row}, {context}"
                );
            }
        }
    }
}

#[test]
fn streamed_replay_equals_routed_direct_service() {
    let mut merged = dram_locker::memctrl::ControllerStats::default();
    for seed in [3u64, 17, 0xC0FFEE] {
        for channels in [1usize, 2, 4] {
            for config in
                [EngineConfig::serial_reference(channels), EngineConfig::sharded(channels)]
            {
                let mut engine = engine_under_test(config);
                let mut reference = Reference::new(&engine);
                let geometry = engine.primary().controller().geometry();
                let rows = channels as u64 * geometry.total_rows();
                let mut counts = ReplayCounts::default();
                for trace in trace_mix(seed, 30, geometry.row_bytes as u64, rows) {
                    assert_eq!(reference.serve(&trace), None, "mix is mappable");
                    let replayed = engine.replay(&trace).expect("mappable");
                    counts.requests += replayed.requests;
                    counts.denied += replayed.denied;
                }
                let context = format!("seed {seed}, {config}");
                assert_eq!(counts, reference.counts, "replay counts, {context}");
                reference.assert_matches(&engine, &context);
                merged.merge(&engine.snapshot().controller);
            }
        }
    }
    // The mix must exercise every completion path, or parity is vacuous.
    assert!(merged.served > 0, "mix never reached the device");
    assert!(merged.os_faults > 0, "mix never OS-faulted");
    assert!(merged.denied > 0, "mix never hit a locked row untrusted");
    assert!(merged.redirected > 0, "mix never SWAP-redirected a trusted access");
    assert!(merged.reads > 0 && merged.writes > 0, "{merged:?}");
}

#[test]
fn unmappable_ops_report_the_lowest_channel_and_every_shard_is_served() {
    for channels in [1usize, 2, 4] {
        for config in [EngineConfig::serial_reference(channels), EngineConfig::sharded(channels)] {
            let mut engine = engine_under_test(config);
            let mut reference = Reference::new(&engine);
            let geometry = engine.primary().controller().geometry();
            let (row_bytes, capacity) = (geometry.row_bytes as u64, engine.router().capacity());
            let mut traces = trace_mix(5, 6, row_bytes, channels as u64 * geometry.total_rows());
            // Past the end on the last channel, then on channel 0, in
            // the middle of a trace whose later ops still map.
            let bad = traces[2].ops().len() / 2;
            let mut ops = traces[2].ops().to_vec();
            let last = (channels as u64 - 1) * row_bytes;
            ops.insert(bad, TraceOp::Read { addr: capacity + last, len: 1 });
            ops.insert(bad + 1, TraceOp::Read { addr: capacity, len: 1 });
            let untrusted = traces[2].untrusted;
            traces[2] = ops.into_iter().collect();
            traces[2].untrusted = untrusted;
            for (at, trace) in traces.iter().enumerate() {
                let lowest = reference.serve(trace);
                match engine.replay(trace) {
                    Ok(_) => assert_eq!(lowest, None, "{config}, trace {at}"),
                    Err(EngineError::Shard { channel, .. }) => {
                        assert_eq!(Some(channel), lowest, "{config}, trace {at}");
                        assert_eq!(channel, 0, "{config}: the lowest failing channel wins");
                    }
                    Err(other) => panic!("{config}: unexpected {other:?}"),
                }
            }
            reference.assert_matches(&engine, &config.to_string());
        }
    }
}
