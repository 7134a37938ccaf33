//! The sharded execution engine's workspace-level guarantees:
//!
//! 1. a multi-channel `ScenarioRun` stepped on scoped threads produces
//!    a `RunReport` bit-identical to the serial reference run;
//! 2. the parallel run really does execute shards on multiple threads
//!    (observed from inside the mounted defense hooks);
//! 3. any generated `Trace` survives a serialization round-trip through
//!    the workspace trace codec (`to_text`/`from_text` *is* the
//!    trace's on-disk format);
//! 4. cross-channel multi-tenant isolation: hammering channel 0's
//!    victim never perturbs channel 1's tenant.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use dram_locker::dram::{DramDevice, RowAddr};
use dram_locker::memctrl::{DefenseHook, HookAction, MemRequest, Trace, TraceOp};
use dram_locker::sim::{
    find, AttackSpec, DefenseSpec, EngineConfig, RunReport, Scenario, ScenarioBuilder, SimError,
    VictimSpec, Workload,
};

const ROW_BYTES: u64 = 64; // tiny geometry

/// The multi-tenant 4-channel mix used across these tests: three
/// benign tenants plus a hammer loop aimed at channel 0's victim
/// (global rows 76/84 = channel 0's local rows 19/21).
fn multitenant_4ch() -> ScenarioBuilder {
    Scenario::builder()
        .label("determinism")
        .victim_on(VictimSpec::row(20, 0xA5), 0)
        .victim_on(VictimSpec::row(20, 0x5A), 1)
        .attack(AttackSpec::tenants(vec![
            Workload::Sequential { base: 0, len: 8, count: 400 },
            Workload::Strided { base: 0, stride: 4 * ROW_BYTES, len: 4, count: 200 },
            Workload::PointerChase { base: 0, span: 512 * ROW_BYTES, len: 8, count: 400, seed: 3 },
            Workload::HammerLoop {
                addr_a: 76 * ROW_BYTES,
                addr_b: 84 * ROW_BYTES,
                iterations: 200,
            },
        ]))
}

fn run_with(engine: EngineConfig, defended: bool) -> Result<RunReport, SimError> {
    let mut builder = multitenant_4ch().engine(engine);
    if defended {
        builder = builder.defense(DefenseSpec::locker_adjacent());
    }
    builder.build()?.run()
}

#[test]
fn sharded_run_report_is_bit_identical_to_serial_reference() {
    for defended in [false, true] {
        let parallel = run_with(EngineConfig::sharded(4), defended).unwrap();
        let serial = run_with(EngineConfig::serial_reference(4), defended).unwrap();
        assert_eq!(parallel, serial, "defended={defended}");
        assert_eq!(parallel.channels, 4);
        assert!(parallel.requests > 0);
    }
}

#[test]
fn undefended_mix_harms_only_channel_zeros_victim() {
    let report = run_with(EngineConfig::sharded(4), false).unwrap();
    assert_eq!(report.victims[0].data_intact, Some(false), "hammered tenant corrupted");
    assert_eq!(report.victims[1].data_intact, Some(true), "channel 1 tenant isolated");
}

#[test]
fn per_shard_lock_table_slices_contain_the_hammer_tenant() {
    let report = run_with(EngineConfig::sharded(4), true).unwrap();
    assert_eq!(report.victims[0].data_intact, Some(true));
    assert_eq!(report.victims[1].data_intact, Some(true));
    assert!(report.denied > 0, "the hammer tenant's accesses were denied");
    assert!(report.mitigation_total() > 0);
}

/// A mounted hook that records which thread served its shard's
/// traffic.
struct ThreadSpy {
    seen: Arc<Mutex<HashSet<ThreadId>>>,
}

impl DefenseHook for ThreadSpy {
    fn before_access(
        &mut self,
        _request: &MemRequest,
        _target: RowAddr,
        _dram: &mut DramDevice,
    ) -> HookAction {
        self.seen.lock().unwrap().insert(std::thread::current().id());
        HookAction::Allow
    }

    fn name(&self) -> &str {
        "thread-spy"
    }
}

/// Mounts a spy on every shard between `build()` and `run()`: the
/// victims are already deployed then, exactly as when a defense mounts
/// during the build.
fn spy_threads(engine: EngineConfig) -> HashSet<ThreadId> {
    let seen = Arc::new(Mutex::new(HashSet::new()));
    let mut run = multitenant_4ch().engine(engine).build().unwrap();
    for channel in 0..run.engine().channels() {
        let spy = Box::new(ThreadSpy { seen: seen.clone() });
        run.engine_mut().shard_mut(channel).controller_mut().set_hook(spy);
    }
    run.run().unwrap();
    let set = seen.lock().unwrap().clone();
    set
}

#[test]
fn parallel_engine_steps_shards_on_multiple_non_main_threads() {
    // The attack phase drains shards on scoped threads; the
    // measurement probes afterwards run on the main thread, so `main`
    // legitimately appears in both sets.
    let main = std::thread::current().id();
    let parallel = spy_threads(EngineConfig::sharded(4));
    let shard_threads = parallel.iter().filter(|&&id| id != main).count();
    assert!(shard_threads >= 2, "expected several shard threads, saw {shard_threads}");
    let serial = spy_threads(EngineConfig::serial_reference(4));
    assert_eq!(serial, HashSet::from([main]), "serial reference stays on the main thread");
}

/// A pseudo-random trace: mixed reads/writes over a 32-bit address
/// space with arbitrary lengths and payloads.
fn generated_trace(seed: u64, ops: usize, untrusted: bool) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Trace::new();
    trace.untrusted = untrusted;
    for _ in 0..ops {
        let addr = rng.random_range(0u64..1 << 32);
        if rng.random_bool(0.5) {
            trace.push(TraceOp::Read { addr, len: rng.random_range(1usize..64) });
        } else {
            // Include empty payloads: they round-trip via the codec's
            // explicit `-` marker.
            let len = rng.random_range(0usize..16);
            let payload = (0..len).map(|_| rng.random_range(0u32..256) as u8).collect();
            trace.push(TraceOp::Write { addr, payload });
        }
    }
    trace
}

proptest! {
    /// Any generated trace survives the workspace codec round-trip.
    #[test]
    fn any_generated_trace_roundtrips_through_the_codec(
        seed in any::<u64>(),
        ops in 0usize..48,
        untrusted in any::<bool>(),
    ) {
        let trace = generated_trace(seed, ops, untrusted);
        let text = trace.to_text();
        let parsed = Trace::from_text(&text).expect("codec parses its own output");
        prop_assert_eq!(parsed, trace);
    }

    /// Sharded and serial-reference engines agree on arbitrary seeds:
    /// the determinism guarantee holds across the workload space, not
    /// just one hand-picked trace.
    #[test]
    fn determinism_holds_for_arbitrary_chase_seeds(seed in any::<u64>()) {
        let scenario = |engine| {
            Scenario::builder()
                .engine(engine)
                .victim(VictimSpec::row(20, 0xA5))
                .attack(AttackSpec::replay(Workload::PointerChase {
                    base: 0,
                    span: 512 * ROW_BYTES,
                    len: 8,
                    count: 200,
                    seed,
                }))
                .build()
                .unwrap()
                .run()
                .unwrap()
        };
        prop_assert_eq!(
            scenario(EngineConfig::sharded(2)),
            scenario(EngineConfig::serial_reference(2))
        );
    }
}

#[test]
fn catalog_replay_scenarios_run_sharded() {
    for name in ["replay-stream-2ch", "replay-multitenant-4ch-vs-dram-locker"] {
        let report = find(name).unwrap().scenario().build().unwrap().run().unwrap();
        assert!(report.channels > 1, "{name} is a multi-channel scenario");
        assert!(report.requests > 0);
        assert!(!report.harmed(), "{name}: {report:?}");
    }
}
