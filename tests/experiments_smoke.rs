//! Fast-fidelity smoke run of every paper experiment: each artifact
//! builds, has the right shape, and shows the qualitative result the
//! paper reports.

use dram_locker::xlayer::experiments::{
    fig1a, fig1b, fig7a, fig7b, fig8, mc_variation, pta, table1, table2, Fidelity,
};

#[test]
fn fig1a_bfa_beats_random() {
    let result = fig1a::run(Fidelity::Fast);
    assert!(result.bfa.last_y() < result.random.last_y());
}

#[test]
fn fig1b_has_all_generations() {
    assert_eq!(fig1b::run().rows().len(), 6);
}

#[test]
fn mc_variation_zero_is_perfect() {
    let table = mc_variation::run(Fidelity::Fast);
    assert_eq!(table.rows()[0][2], "0");
}

#[test]
fn table1_ranks_locker_smallest_area() {
    let table = table1::run();
    let locker = table.rows().iter().find(|r| r[0] == "DRAM-Locker").unwrap();
    assert_eq!(locker[3], "0.02%");
}

#[test]
fn fig7a_locker_lowest() {
    let result = fig7a::run(Fidelity::Fast);
    let dl_last = result.dl().last_y();
    for shadow in &result.series[..4] {
        assert!(dl_last < shadow.last_y());
    }
}

#[test]
fn fig7b_locker_over_500_days() {
    let days = fig7b::dl_days();
    assert!(days[0].1 > 500.0);
}

#[test]
fn fig8_locker_preserves_accuracy() {
    let panels = fig8::run(Fidelity::Fast);
    for panel in panels {
        assert!(panel.with_locker.last_y() > panel.without_locker.last_y());
    }
}

#[test]
fn table2_locker_row_is_lossless() {
    let entries = table2::entries(Fidelity::Fast);
    let locker = entries.last().unwrap();
    assert_eq!(locker.clean_acc_pct, locker.post_attack_acc_pct);
}

#[test]
fn pta_defense_works_end_to_end() {
    let undefended = pta::run_scenario(false).unwrap();
    let defended = pta::run_scenario(true).unwrap();
    assert!(undefended.redirected);
    assert!(!defended.redirected);
    assert!(defended.denied > 0);
}
