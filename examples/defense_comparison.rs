//! Mounts every RowHammer defense in the workspace on the same
//! scenario and subjects each to the same hammer campaign, then prints
//! the Table I overhead comparison.
//!
//! Run with: `cargo run --release --example defense_comparison`

use dram_locker::sim::{AttackSpec, Budget, DefenseSpec, Scenario, VictimSpec};
use dram_locker::xlayer::experiments::table1;

fn campaign(defense: Option<DefenseSpec>) -> (bool, u64, u64) {
    // TRH = 16 on the tiny test geometry (the builder's default).
    let mut builder = Scenario::builder()
        .label("defense-comparison")
        .victim(VictimSpec::row(20, 0xA5))
        .attack(AttackSpec::Hammer { bit: 99 })
        .budget(Budget { max_activations: 5_000, check_interval: 8, iterations: 1 });
    if let Some(defense) = defense {
        builder = builder.defense(defense);
    }
    let report = builder.build().expect("scenario builds").run().expect("campaign runs");
    (report.landed_flips > 0, report.requests, report.denied)
}

fn main() {
    println!("hammer campaign against row 20, TRH = 16, budget 5000 activations\n");
    println!("{:<18} {:>8} {:>10} {:>8}", "defense", "flipped", "requests", "denied");

    let rows: Vec<(&str, Option<DefenseSpec>)> = vec![
        ("none", None),
        ("graphene", Some(DefenseSpec::graphene(64, 8))),
        ("hydra", Some(DefenseSpec::hydra(16, 4, 8))),
        ("twice", Some(DefenseSpec::twice(8, 64, 1))),
        ("counter-per-row", Some(DefenseSpec::counter_per_row(8))),
        ("rrs", Some(DefenseSpec::rrs(8, 1))),
        ("srs", Some(DefenseSpec::srs(8, 1))),
        ("shadow", Some(DefenseSpec::shadow(8, 1))),
        // The protection plan locks the aggressor-candidate rows
        // around the guarded victim row.
        ("dram-locker", Some(DefenseSpec::locker_adjacent())),
    ];

    for (name, defense) in rows {
        let (flipped, requests, denied) = campaign(defense);
        println!("{name:<18} {flipped:>8} {requests:>10} {denied:>8}");
    }

    println!();
    println!("{}", table1::run());
}
