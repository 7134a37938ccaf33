//! Every defense in the workspace against the same hammer campaign,
//! assembled through the unified Scenario API.
//!
//! The campaign targets row 20 with the tiny test configuration
//! (TRH = 16). Expectations:
//!
//! - no defense: the victim bit flips and the data pattern corrupts;
//! - counter-based trackers (Graphene, Hydra, TWiCE, counter-per-row):
//!   the aggressor is refreshed before reaching TRH, no flip;
//! - swap-based defenses (RRS, SRS, SHADOW): the aggressor's physical
//!   row is relocated before reaching TRH; the victim's *logical* data
//!   survives (the report's integrity probe follows the remap);
//! - DRAM-Locker: aggressor accesses are denied outright.

use dram_locker::sim::{find, AttackSpec, Budget, DefenseSpec, RunReport, Scenario, VictimSpec};

/// The campaign against `defenses`, stacked in order (`None` for an
/// undefended run).
fn campaign(defenses: impl IntoIterator<Item = DefenseSpec>) -> RunReport {
    let mut builder = Scenario::builder()
        .label("defense-matrix")
        .victim(VictimSpec::row(20, 0xA5))
        .attack(AttackSpec::Hammer { bit: 77 })
        .budget(Budget { max_activations: 4_000, check_interval: 8, iterations: 1 });
    for defense in defenses {
        builder = builder.defense(defense);
    }
    builder.build().expect("scenario builds").run().expect("campaign runs")
}

#[test]
fn no_defense_fails() {
    let report = campaign(None);
    assert_eq!(report.landed_flips, 1, "{report:?}");
    assert_eq!(report.victims[0].data_intact, Some(false), "pattern must corrupt");
}

#[test]
fn graphene_prevents_the_flip() {
    // Mitigation threshold below TRH=16.
    let report = campaign(Some(DefenseSpec::graphene(64, 8)));
    assert_eq!(report.landed_flips, 0, "{report:?}");
    assert!(report.mitigation_total() > 0, "graphene must have refreshed: {report:?}");
}

#[test]
fn hydra_prevents_the_flip() {
    let report = campaign(Some(DefenseSpec::hydra(16, 4, 8)));
    assert_eq!(report.landed_flips, 0, "{report:?}");
}

#[test]
fn twice_prevents_the_flip() {
    let report = campaign(Some(DefenseSpec::twice(8, 64, 1)));
    assert_eq!(report.landed_flips, 0, "{report:?}");
}

#[test]
fn counter_per_row_prevents_the_flip() {
    let report = campaign(Some(DefenseSpec::counter_per_row(8)));
    assert_eq!(report.landed_flips, 0, "{report:?}");
}

#[test]
fn rrs_preserves_victim_data() {
    let report = campaign(Some(DefenseSpec::rrs(8, 5)));
    assert_eq!(report.victims[0].data_intact, Some(true), "{report:?}");
}

#[test]
fn srs_preserves_victim_data() {
    let report = campaign(Some(DefenseSpec::srs(8, 5)));
    assert_eq!(report.victims[0].data_intact, Some(true), "{report:?}");
}

#[test]
fn shadow_preserves_victim_data() {
    let report = campaign(Some(DefenseSpec::shadow(8, 5)));
    assert_eq!(report.victims[0].data_intact, Some(true), "{report:?}");
}

#[test]
fn dram_locker_denies_instead_of_refreshing() {
    // The adjacent-row protection plan locks rows 19 and 21 around the
    // guarded victim row — exactly the aggressor candidates.
    let report = campaign(Some(DefenseSpec::locker_adjacent()));
    assert_eq!(report.landed_flips, 0, "{report:?}");
    assert!(report.fully_denied(), "DRAM-Locker denies rather than mitigates: {report:?}");
    assert_eq!(report.victims[0].data_intact, Some(true));
}

#[test]
fn counter_defenses_allow_but_mitigate() {
    // Counter-based defenses never deny; they serve and refresh.
    let report = campaign(Some(DefenseSpec::graphene(64, 8)));
    assert_eq!(report.denied, 0);
    assert!(report.requests > 0);
    assert_eq!(report.mitigations.len(), 1);
    assert_eq!(report.mitigations[0].name, "graphene");
}

#[test]
fn per_defense_action_counts_are_pinned() {
    // Denies + swaps for DRAM-Locker, targeted refreshes for the
    // counter trackers, swaps or shuffles for the remapping defenses.
    let cases = [
        (vec![DefenseSpec::locker_adjacent()], vec![8]),
        (vec![DefenseSpec::graphene(64, 8)], vec![1000]),
        (vec![DefenseSpec::hydra(16, 4, 8)], vec![1000]),
        (vec![DefenseSpec::twice(8, 64, 1)], vec![1000]),
        (vec![DefenseSpec::counter_per_row(8)], vec![1000]),
        (vec![DefenseSpec::rrs(8, 5)], vec![16]),
        (vec![DefenseSpec::srs(8, 5)], vec![16]),
        (vec![DefenseSpec::shadow(8, 5)], vec![16]),
        // The locker denies everything, so the stacked tracker sees no
        // activation to act on.
        (vec![DefenseSpec::locker_adjacent(), DefenseSpec::graphene(64, 8)], vec![8, 0]),
    ];
    for (stack, expected) in cases {
        let want: Vec<(&str, u64)> = stack.iter().map(DefenseSpec::name).zip(expected).collect();
        let report = campaign(stack.clone());
        let got: Vec<(&str, u64)> =
            report.mitigations.iter().map(|m| (m.name.as_str(), m.actions)).collect();
        assert_eq!(got, want);
    }
    // Summed over the four channel shards, each with its own locker.
    let entry = find("replay-multitenant-4ch-vs-dram-locker").expect("catalog entry");
    let report = entry.scenario().build().expect("builds").run().expect("runs");
    assert_eq!(report.mitigations.len(), 1);
    assert_eq!(report.mitigation_total(), 405);
}
