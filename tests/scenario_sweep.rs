//! Head-to-head sweep over the named scenario catalog: every attack ×
//! defense combination runs through the unified pipeline and shows the
//! qualitative result the paper reports.

use dram_locker::sim::{catalog, find, Expected};

#[test]
fn catalog_enumerates_the_papers_matchups() {
    assert!(catalog().len() >= 6, "need at least 6 named attack×defense scenarios");
    let names: std::collections::HashSet<_> = catalog().iter().map(|e| e.name).collect();
    assert_eq!(names.len(), catalog().len(), "catalog names must be unique");
    for required in [
        "hammer-vs-none",
        "hammer-vs-dram-locker",
        "bfa-vs-none",
        "bfa-vs-dram-locker",
        "pta-vs-none",
        "pta-vs-dram-locker",
    ] {
        assert!(find(required).is_ok(), "missing catalog entry {required}");
    }
}

#[test]
fn sweep_every_scenario_matches_its_expectation() {
    for entry in catalog() {
        let report = entry
            .scenario()
            .build()
            .unwrap_or_else(|e| panic!("{} failed to build: {e}", entry.name))
            .run()
            .unwrap_or_else(|e| panic!("{} failed to run: {e}", entry.name));
        assert_eq!(report.scenario, entry.name);
        let attack = entry.spec.attack.as_ref().map_or("", |attack| attack.token());
        assert_eq!(report.attack, attack, "{} reports its attack's spec token", entry.name);
        match entry.expected {
            Expected::Harmed => {
                assert!(report.harmed(), "{} should harm the victim: {report:?}", entry.name);
            }
            Expected::Contained => {
                assert!(!report.harmed(), "{} should be contained: {report:?}", entry.name);
            }
            Expected::Any => {}
        }
    }
}

#[test]
fn locker_scenarios_actually_deny() {
    for name in ["hammer-vs-dram-locker", "bfa-hammer-vs-dram-locker", "pta-vs-dram-locker"] {
        let report = find(name).unwrap().scenario().build().unwrap().run().unwrap();
        assert!(report.fully_denied(), "{name} must fully deny the attacker: {report:?}");
        assert!(report.mitigation_total() > 0, "{name} must report locker actions");
    }
}

#[test]
fn overhead_scenario_reports_costs_without_denials() {
    let report =
        find("inference-vs-dram-locker").unwrap().scenario().build().unwrap().run().unwrap();
    assert_eq!(report.denied, 0, "adjacent-row locking never touches victim traffic");
    assert!(report.cycles > 0);
    assert!(report.energy_pj > 0.0);
    assert_eq!(report.accuracy_delta_pct(), 0.0);
}
