//! Quickstart: one `Scenario` composes a victim row, a probing
//! attacker and the DRAM-Locker defense — watch the lock table deny the
//! attacker while the legitimate program is served via SWAP + redirect.
//!
//! Run with: `cargo run --example quickstart`

use dram_locker::memctrl::MemRequest;
use dram_locker::sim::{AttackSpec, DefenseSpec, Scenario, VictimSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The whole pipeline in one builder: a secret-filled DRAM row,
    // locked by DRAM-Locker, probed 1000 times by an untrusted process.
    let mut run = Scenario::builder()
        .label("quickstart")
        .victim(VictimSpec::row(10, 0x42))
        .defense(DefenseSpec::locker_data_rows())
        .attack(AttackSpec::RowProbe { accesses: 1000 })
        .build()?;
    let report = run.run()?;

    // 1. Every attacker access was denied: the instruction is skipped,
    //    so the attack phase issued no DRAM command at all.
    assert_eq!(report.denied, 1000);
    println!(
        "attacker: {} accesses, all denied; DRAM cycles spent on them: {}",
        report.requests, report.cycles
    );

    // 2. The victim program still got its data: the integrity probe
    //    read the locked row through a SWAP + redirect.
    assert_eq!(report.victims[0].data_intact, Some(true));
    println!("victim: read served via SWAP + redirect, data intact");

    // 3. The same pipeline stays open for more traffic: a trusted read
    //    of the locked row returns the secret.
    let row_bytes = run.controller().geometry().row_bytes as u64;
    let done = run.controller_mut().service(MemRequest::read(10 * row_bytes, 4))?;
    assert!(!done.denied);
    assert_eq!(done.data.as_deref(), Some(&[0x42u8; 4][..]));

    // 4. Defense bookkeeping comes with the report — the report's
    //    Display impl renders the whole thing aligned.
    println!("\n{report}");
    Ok(())
}
