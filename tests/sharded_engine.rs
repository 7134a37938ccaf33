//! The sharded execution engine's workspace-level guarantees:
//!
//! 1. a multi-channel `ScenarioRun` stepped over the worker pool
//!    produces a `RunReport` bit-identical to the serial reference run;
//! 2. any generated `Trace` survives a serialization round-trip through
//!    the workspace trace codec (`to_text`/`from_text` *is* the
//!    trace's on-disk format);
//! 3. cross-channel multi-tenant isolation: hammering channel 0's
//!    victim never perturbs channel 1's tenant.
//!
//! That a parallel run really leaves the caller's thread is checked in
//! `sharded_engine_threads.rs`, a process of its own whose pool no
//! other test holds.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use dram_locker::memctrl::{Trace, TraceOp};
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
