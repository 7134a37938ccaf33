//! Trace-driven workload replay on the sharded multi-channel engine.
//!
//! Four tenants — a streaming reader, a strided scanner, a pointer
//! chaser and a RowHammer attacker — are interleaved into one trace,
//! serialized through the workspace trace codec (round-tripping like a
//! recorded trace file would), and replayed over a 4-channel sharded
//! engine twice: undefended, then with per-shard DRAM-Locker lock-table
//! slices. The parallel run's report is asserted bit-identical to the
//! serial reference.
//!
//! Run with: `cargo run --release --example trace_replay`

use dram_locker::memctrl::Trace;
use dram_locker::sim::{
    AttackSpec, DefenseSpec, EngineConfig, RunReport, Scenario, VictimSpec, Workload,
};

const ROW_BYTES: u64 = 64; // tiny geometry
const CHANNELS: usize = 4;

/// Global rows stripe over channels, so channel 0's local rows 19/21
/// (the aggressor-candidate neighbours of victim row 20) are global
/// rows 76/84 on a 4-channel engine.
fn tenant_mix() -> Trace {
    Workload::multi_tenant(&[
        Workload::Sequential { base: 0, len: 8, count: 600 },
        Workload::Strided { base: 0, stride: CHANNELS as u64 * ROW_BYTES, len: 4, count: 200 },
        Workload::PointerChase { base: 0, span: 512 * ROW_BYTES, len: 8, count: 600, seed: 42 },
        Workload::HammerLoop { addr_a: 76 * ROW_BYTES, addr_b: 84 * ROW_BYTES, iterations: 300 },
    ])
}

fn replay(engine: EngineConfig, trace: &Trace, defended: bool) -> RunReport {
    let mut builder = Scenario::builder()
        .label(if defended { "replay-defended" } else { "replay-undefended" })
        .engine(engine)
        // Two tenants' secrets, homed on different channels.
        .victim_on(VictimSpec::row(20, 0xA5), 0)
        .victim_on(VictimSpec::row(20, 0x5A), 1)
        .attack(AttackSpec::trace(trace.clone()));
    if defended {
        builder = builder.defense(DefenseSpec::locker_adjacent());
    }
    builder.build().expect("scenario builds").run().expect("replay runs")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Generate the multi-tenant trace and round-trip it through the
    //    trace-file codec, exactly as a recorded trace would be loaded.
    let recorded = tenant_mix();
    let text = recorded.to_text();
    let trace = Trace::from_text(&text)?;
    assert_eq!(trace, recorded);
    println!("trace: {} ops, {} bytes serialized", trace.len(), text.len());

    // 2. Undefended replay across 4 sharded channels: the hammer tenant
    //    corrupts channel 0's victim; channel 1's tenant is untouched.
    let undefended = replay(EngineConfig::sharded(CHANNELS), &trace, false);
    println!(
        "undefended: {} requests over {} channels, victim A intact: {:?}, victim B intact: {:?}",
        undefended.requests,
        undefended.channels,
        undefended.victims[0].data_intact,
        undefended.victims[1].data_intact,
    );
    assert_eq!(undefended.victims[0].data_intact, Some(false));
    assert_eq!(undefended.victims[1].data_intact, Some(true));

    // 3. Same mix with DRAM-Locker mounted per shard: every shard
    //    guards its own victims with its slice of the lock table.
    let defended = replay(EngineConfig::sharded(CHANNELS), &trace, true);
    println!(
        "defended:   {} of {} requests denied, both victims intact: {:?}/{:?}",
        defended.denied,
        defended.requests,
        defended.victims[0].data_intact,
        defended.victims[1].data_intact,
    );
    assert_eq!(defended.victims[0].data_intact, Some(true));
    assert_eq!(defended.victims[1].data_intact, Some(true));
    assert!(defended.denied > 0);

    // 4. Determinism: the threaded run equals the serial reference,
    //    bit for bit.
    let reference = replay(EngineConfig::serial_reference(CHANNELS), &trace, true);
    assert_eq!(defended, reference);
    println!("parallel report is bit-identical to the serial reference");

    println!(
        "merged controller stats: served {}, denied {}, mean latency {:.1} cycles",
        defended.controller.served,
        defended.controller.denied,
        defended.controller.mean_latency(),
    );
    Ok(())
}
